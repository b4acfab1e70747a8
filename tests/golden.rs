//! Golden-file snapshot tests: the checked-in machine-readable artifacts
//! under `results/` must be byte-for-byte reproducible from the current
//! code. Regenerate with `./regen_results.sh` after an intentional change
//! and review the diff.
//!
//! The Table 2 snapshot deliberately runs on all available cores: the
//! batch engine's determinism guarantee is what makes a parallel run
//! byte-identical to the file a (possibly differently-sized) machine
//! produced.

use tauhls::core::experiments::{table1, table2};
use tauhls::fsm::Encoding;
use tauhls::logic::AreaModel;
use tauhls::sim::BatchRunner;
use tauhls_json::ToJson;

fn golden(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden file {path}: {e}"))
}

#[test]
fn table1_json_matches_golden() {
    let rendered = table1(Encoding::Binary, &AreaModel::default())
        .to_json()
        .to_pretty();
    assert_eq!(
        rendered,
        golden("table1.json"),
        "table1.json drifted; run ./regen_results.sh and review"
    );
}

#[test]
fn table2_json_matches_golden() {
    // Same parameters regen_results.sh uses; thread count intentionally
    // machine-dependent.
    let rendered = table2(6000, 2003, &BatchRunner::available())
        .expect("fault-free table2")
        .to_json()
        .to_pretty();
    assert_eq!(
        rendered,
        golden("table2.json"),
        "table2.json drifted; run ./regen_results.sh and review"
    );
}

#[test]
fn kernel_conformance_matches_golden() {
    // Engine-equivalence corpus: benchmark × seed × fault plan
    // fingerprints for every simulation engine. The checked-in file was
    // generated by the pre-kernel per-engine loops, so this test proves
    // the shared-kernel ports are bit-identical to them.
    let rendered = tauhls::core::conformance::kernel_conformance().to_pretty();
    assert_eq!(
        rendered,
        golden("kernel_golden.json"),
        "kernel_golden.json drifted; run ./regen_results.sh and review"
    );
}

#[test]
fn kernel_conformance_sliced_matches_golden() {
    // The same corpus replayed through the bit-sliced engine (one lane
    // per entry, scalar fallback for the diagnostic-bearing entries).
    // The 126-entry oracle is untouched: the sliced engine must reproduce
    // the pre-refactor fingerprints byte for byte.
    let rendered = tauhls::core::conformance::kernel_conformance_sliced().to_pretty();
    assert_eq!(
        rendered,
        golden("kernel_golden.json"),
        "sliced engine diverged from the kernel_golden.json oracle"
    );
}

#[test]
fn synth_conformance_matches_golden() {
    // Staged-pipeline corpus: benchmark × encoding artifact-hash chains
    // and controller fingerprints. The goldens were generated when the
    // staged pipeline landed; this replay proves the stage decomposition
    // (and its content hashing) stays bit-identical.
    let rendered = tauhls::core::conformance::synth_conformance().to_pretty();
    assert_eq!(
        rendered,
        golden("synth_golden.json"),
        "synth_golden.json drifted; run ./regen_results.sh and review"
    );
}

#[test]
fn resilience_json_matches_golden() {
    // Fault-injection sweeps of every paper benchmark under three leg
    // selections, 100 trials per kind (a full 64-lane slab plus a ragged
    // one). Pins the sliced/scalar split of every leg: DIST and ELASTIC
    // classification, detection latency and CENT agreement.
    let rendered =
        tauhls::core::conformance::resilience_conformance(&BatchRunner::available()).to_pretty();
    assert_eq!(
        rendered,
        golden("resilience_golden.json"),
        "resilience_golden.json drifted; run ./regen_results.sh and review"
    );
}

#[test]
fn table2_text_matches_golden() {
    let rendered = format!(
        "{}",
        table2(6000, 2003, &BatchRunner::available()).expect("fault-free table2")
    );
    assert_eq!(
        rendered.trim_end(),
        golden("table2.txt").trim_end(),
        "table2.txt drifted; run ./regen_results.sh and review"
    );
}
