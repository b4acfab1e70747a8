//! Differential test of exact prime generation on the synthesis corpus:
//! every next-state and output function that a `results/synth_golden.json`
//! controller minimizes exactly gets the same primes from its on-set and
//! dc-set cubes as from the minterm Quine–McCluskey oracle.

#[path = "../crates/logic/tests/qm_oracle/mod.rs"]
mod qm_oracle;

use tauhls::core::experiments::paper_benchmarks;
use tauhls::core::stages::{self, BindStrategy, PipelineTrace, SynthesisInput};
use tauhls::fsm::{controller_functions, Encoding, EXACT_LIMIT};
use tauhls::logic::{primes_of_cubes, Cover, Cube};

#[test]
fn corpus_primes_match_the_minterm_oracle() {
    let mut checked = 0;
    for (dfg, allocation, _) in paper_benchmarks() {
        let input = SynthesisInput {
            dfg,
            allocation,
            strategy: BindStrategy::LeftEdge,
        };
        let controls = stages::run_front(&input, false, None, &mut PipelineTrace::default())
            .expect("benchmark synthesizes");
        let units = controls.distributed().controllers().iter().map(|(_, f)| f);
        for fsm in units.chain([controls.cent_sync()]) {
            for encoding in [Encoding::Binary, Encoding::Gray, Encoding::OneHot] {
                let f = controller_functions(fsm, encoding);
                for on in f.next_state.iter().chain(&f.outputs) {
                    let n = on.num_vars();
                    if n > EXACT_LIMIT {
                        continue;
                    }
                    let cubes: Vec<Cube> =
                        on.cubes().iter().chain(f.dcset.cubes()).copied().collect();
                    let minterms = Cover::from_cubes(n, cubes.iter().copied()).onset_minterms();
                    assert_eq!(
                        primes_of_cubes(cubes),
                        qm_oracle::qm_primes(n, &minterms),
                        "{} under {encoding:?}",
                        fsm.name()
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0);
}
