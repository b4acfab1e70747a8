//! Kernel-equivalence conformance corpus.
//!
//! Fingerprints every simulation engine over a fixed corpus of benchmark
//! DFGs × seeds × fault plans. The rendered JSON is checked in as
//! `results/kernel_golden.json`: the file was generated by the
//! pre-refactor per-engine cycle loops, so the shared-kernel ports must
//! reproduce it byte for byte — `Ok` results down to every
//! per-op cycle count, `Err` results down to the diagnostic text.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tauhls_dfg::{Dfg, OpId};
use tauhls_fsm::DistributedControlUnit;
use tauhls_json::{Json, ToJson};
use tauhls_sched::{Allocation, BoundDfg};
use tauhls_sim::{
    elastic_trial_skew_seed, simulate_pipelined_with, Accumulator, BatchRunner, CompletionModel,
    ControlStyle, ControlStyleSet, ElasticSpec, Engine, Fault, FaultKind, FaultPlan, LaneBuilder,
    LaneInput, PipelinedResult, SimConfig, SimError, SimResult, SlabDriver,
};

use crate::experiments::paper_benchmarks;
use crate::resilience::{resilience_sweep_with, ResilienceOptions};
use crate::stages::{self, BindStrategy, PipelineTrace, SynthesisInput};
use crate::{Design, Synthesis, Timing};
use tauhls_fsm::Encoding;
use tauhls_logic::AreaModel;

/// Seeds exercised per benchmark × plan cell.
const SEEDS: [u64; 3] = [0, 1, 2];

/// Overlapped iterations for the pipelined fingerprints.
const PIPELINE_ITERATIONS: usize = 3;

/// The named fault plans of the corpus. Op and controller indices are
/// chosen to exist in every paper benchmark (the smallest has 5 ops and
/// 3 units).
fn corpus_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::empty()),
        (
            "stuck_short",
            FaultPlan::single(3, FaultKind::StuckAtShort { op: OpId(1) }),
        ),
        (
            "stuck_long",
            FaultPlan::single(2, FaultKind::StuckAtLong { op: OpId(0) }),
        ),
        (
            "drop_pulse",
            FaultPlan::single(2, FaultKind::DropPulse { op: OpId(1) }),
        ),
        (
            "spurious",
            FaultPlan::single(2, FaultKind::SpuriousPulse { op: OpId(2) }),
        ),
        ("delay_latch", {
            let mut p = FaultPlan::single(
                3,
                FaultKind::DelayLatch {
                    op: OpId(1),
                    delay: 2,
                },
            );
            p.push(Fault {
                at_cycle: 5,
                kind: FaultKind::DropPulse { op: OpId(0) },
            });
            p
        }),
        (
            "flip_state",
            FaultPlan::single(
                2,
                FaultKind::FlipState {
                    controller: 0,
                    bit: 1,
                },
            ),
        ),
    ]
}

/// The elastic-clocking specs fingerprinted per corpus cell. `zero`
/// must reproduce the distributed fingerprint of the same cell bit for
/// bit (the bisimulation the engine guarantees); the other two exercise
/// genuine skew windows and handshake latencies.
fn elastic_corpus_specs() -> [(&'static str, ElasticSpec); 3] {
    [
        ("elastic_zero", ElasticSpec::zero()),
        ("elastic_default", ElasticSpec::default()),
        (
            "elastic_wide",
            ElasticSpec {
                skew_bound: 3,
                sync_latency: 2,
            },
        ),
    ]
}

/// The fault plans of the elastic corpus block: the synchronous seven
/// plus a `clock_skew` excursion, which only clock-domain engines react
/// to.
fn elastic_corpus_plans() -> Vec<(&'static str, FaultPlan)> {
    let mut plans = corpus_plans();
    plans.push((
        "clock_skew",
        FaultPlan::single(
            2,
            FaultKind::ClockSkew {
                controller: 0,
                stall: 3,
            },
        ),
    ));
    plans
}

fn usizes(v: &[usize]) -> Json {
    Json::array(v.iter().map(|&x| Json::from(x)))
}

fn result_json(r: Result<&SimResult, &SimError>) -> Json {
    match r {
        Ok(res) => Json::object([
            ("cycles", Json::from(res.cycles)),
            ("completion_cycle", usizes(&res.completion_cycle)),
            ("start_cycle", usizes(&res.start_cycle)),
            ("unit_busy_cycles", usizes(&res.unit_busy_cycles)),
            (
                "values",
                Json::array(res.values.iter().map(|&v| Json::from(v))),
            ),
        ]),
        Err(e) => Json::object([("error", Json::from(e.to_string()))]),
    }
}

fn pipelined_json(r: &Result<PipelinedResult, SimError>) -> Json {
    match r {
        Ok(res) => Json::object([
            ("iterations", Json::from(res.iterations)),
            ("iteration_end_cycle", usizes(&res.iteration_end_cycle)),
            ("total_cycles", Json::from(res.total_cycles)),
            (
                "war_hazards",
                Json::array(
                    res.war_hazards
                        .iter()
                        .map(|&(op, cycle)| Json::array([Json::from(op.0), Json::from(cycle)])),
                ),
            ),
        ]),
        Err(e) => Json::object([("error", Json::from(e.to_string()))]),
    }
}

/// Renders the engine-equivalence fingerprint corpus: every paper
/// benchmark × seed × fault plan, through the distributed, synchronized
/// centralized and pipelined engines under `Bernoulli { p: 0.6 }`, then
/// the elastic block, then the CENT block.
///
/// Each engine gets a freshly seeded RNG so its fingerprint is
/// independent of the others.
pub fn kernel_conformance() -> Json {
    kernel_corpus(false)
}

/// Renders the same corpus as [`kernel_conformance`], but drives every
/// single-iteration entry through the bit-sliced engine, one
/// [`SlabDriver`] lane per entry; the pipelined leg, which has no sliced
/// twin, runs scalar in both corpora. The output must match
/// [`kernel_conformance`] — and therefore `results/kernel_golden.json` —
/// byte for byte; `tests/golden.rs` replays it against the oracle, whose
/// pre-refactor 126-entry prefix is untouched.
pub fn kernel_conformance_sliced() -> Json {
    kernel_corpus(true)
}

fn kernel_corpus(sliced: bool) -> Json {
    let model = CompletionModel::Bernoulli { p: 0.6 };
    let designs: Vec<Design> = paper_benchmarks()
        .into_iter()
        .map(|(dfg, alloc, _)| {
            Synthesis::new(dfg)
                .allocation(alloc)
                .timing(Timing::default())
                .run()
                .expect("benchmark synthesizes")
        })
        .collect();
    let plans = corpus_plans();
    let sync_styles = [
        ("dist", ControlStyle::Distributed),
        ("cent_sync", ControlStyle::CentSync),
    ];
    let mut entries = Vec::new();
    for design in &designs {
        let bound = design.bound();
        let cu = DistributedControlUnit::generate(bound);
        let rows = style_rows(bound, &sync_styles, &model, &plans, sliced);
        for (cell, mut row) in rows.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(SEEDS[cell / plans.len()]);
            let config = SimConfig::with_faults(plans[cell % plans.len()].1.clone());
            let pipe =
                simulate_pipelined_with(bound, &cu, &model, PIPELINE_ITERATIONS, &mut rng, &config);
            row.push(("pipelined", pipelined_json(&pipe)));
            entries.push(Json::object(row));
        }
    }
    // Elastic (GALS) block, appended after the pre-refactor entries so
    // the original 126-entry prefix stays byte-identical: every
    // benchmark × seed × plan (including the clock-domain-only
    // `clock_skew` plan) fingerprinted at each elastic spec.
    let elastic_plans = elastic_corpus_plans();
    let elastic_styles =
        elastic_corpus_specs().map(|(name, spec)| (name, ControlStyle::Elastic(spec)));
    for design in &designs {
        let bound = design.bound();
        let rows = style_rows(bound, &elastic_styles, &model, &elastic_plans, sliced);
        entries.extend(rows.into_iter().map(Json::object));
    }
    // CENT block, appended after the elastic one: the centralized style's
    // own scalar body and its composite `CENT=…` diagnostics, over every
    // benchmark × seed × synchronous plan.
    for design in &designs {
        let rows = style_rows(
            design.bound(),
            &[("cent", ControlStyle::Cent)],
            &model,
            &plans,
            sliced,
        );
        entries.extend(rows.into_iter().map(Json::object));
    }
    Json::array(entries)
}

/// One corpus entry's fields: benchmark, seed and plan, then one named
/// cell per engine.
type Row = Vec<(&'static str, Json)>;

/// Rows in trial order: the batch runner folds chunks in chunk order.
#[derive(Default)]
struct Rows(Vec<Row>);

impl Accumulator for Rows {
    fn empty() -> Self {
        Rows::default()
    }
    fn fold(&mut self, other: Self) {
        self.0.extend(other.0);
    }
}

/// Renders the entry of every [`SEEDS`] × `plans` cell of one benchmark,
/// seed-major, under each named style. Every style gets a fresh `StdRng` seeded with
/// the cell's seed; the skew schedule uses the batch derivation at job 0,
/// trial 0, so the cells replay what a one-trial batch would compute.
/// `sliced` runs the cells as lanes of one [`SlabDriver`], otherwise each
/// style's scalar engine runs them one at a time.
fn style_rows(
    bound: &BoundDfg,
    styles: &[(&'static str, ControlStyle)],
    model: &CompletionModel,
    plans: &[(&'static str, FaultPlan)],
    sliced: bool,
) -> Vec<Row> {
    let n = plans.len() as u64;
    let cells = SEEDS.len() as u64 * n;
    let seed_of = |cell: u64| SEEDS[(cell / n) as usize];
    let config_of = |cell: u64| SimConfig::with_faults(plans[(cell % n) as usize].1.clone());
    let skew_of = |cell: u64| elastic_trial_skew_seed(seed_of(cell), 0, 0);
    let render = |cell: u64, results: &[Result<&SimResult, &SimError>]| -> Row {
        let mut row = vec![
            ("bench", Json::from(bound.dfg().name())),
            ("seed", Json::from(seed_of(cell))),
            ("plan", Json::from(plans[(cell % n) as usize].0)),
        ];
        let names = styles.iter().map(|&(name, _)| name);
        row.extend(names.zip(results.iter().map(|&r| result_json(r))));
        row
    };
    let kinds: Vec<ControlStyle> = styles.iter().map(|&(_, style)| style).collect();
    if sliced {
        let lanes = LaneBuilder {
            rng: &|cell| StdRng::seed_from_u64(seed_of(cell)),
            model: LaneInput::Shared(model),
            config: LaneInput::PerLane(&|cell, _| config_of(cell)),
            skew_seed: &skew_of,
        };
        let driver = SlabDriver::new(bound, &kinds);
        let runner = BatchRunner::serial();
        let Rows(rows) = driver.run(
            cells,
            &runner,
            &lanes,
            |Rows(rows): &mut Rows, cell, _, results| rows.push(render(cell, results)),
        );
        return rows;
    }
    let engines: Vec<Engine> = kinds.iter().map(|&s| Engine::generate(bound, s)).collect();
    (0..cells)
        .map(|cell| {
            let config = config_of(cell);
            let results: Vec<_> = engines
                .iter()
                .map(|e| {
                    let mut rng = StdRng::seed_from_u64(seed_of(cell));
                    e.run_scalar(bound, model, None, &mut rng, &config, skew_of(cell))
                })
                .collect();
            render(
                cell,
                &results.iter().map(Result::as_ref).collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Trials per fault kind in the resilience corpus: above one 64-lane
/// slab, so every sweep also runs a ragged second slab.
const RESILIENCE_TRIALS: u64 = 100;

/// Renders the resilience corpus: [`resilience_sweep_with`] over every
/// paper benchmark at `P = 0.5` under three leg selections — the default
/// (DIST + CENT + ELASTIC), DIST only, and the zero elastic spec (whose
/// elastic columns must equal the distributed ones). Checked in as
/// `results/resilience_golden.json`, so any drift in fault injection,
/// outcome classification or the sliced/scalar split shows up as a byte
/// diff. The report is thread-count invariant, so `runner` only sets the
/// speed.
pub fn resilience_conformance(runner: &BatchRunner) -> Json {
    let all = ResilienceOptions::default();
    let options = [
        ("default", all.styles, all.elastic),
        ("dist_only", ControlStyleSet::DIST, all.elastic),
        ("elastic_zero", all.styles, ElasticSpec::zero()),
    ];
    let mut entries = Vec::new();
    for (dfg, alloc, _) in paper_benchmarks() {
        let bound = BoundDfg::bind(&dfg, &alloc);
        for (name, styles, elastic) in options {
            let opts = ResilienceOptions { styles, elastic };
            let report = resilience_sweep_with(&bound, 0.5, RESILIENCE_TRIALS, 2003, &opts, runner);
            entries.push(Json::object([
                ("options", Json::from(name)),
                ("report", report.to_json()),
            ]));
        }
    }
    Json::array(entries)
}

/// Encodings fingerprinted per benchmark by the original corpus, chosen
/// when exact minimization of one-hot controllers took seconds: the dense
/// encodings (binary/Gray) for the mid-size benchmarks, one-hot for the
/// state-explosion benchmark `ar_lattice4`, and all three on the smallest
/// benchmark. The encodings left out here follow as appended entries.
fn corpus_encodings(bench: &str) -> &'static [Encoding] {
    match bench {
        "fir3" => &[Encoding::Binary, Encoding::Gray, Encoding::OneHot],
        "ar_lattice4" => &[Encoding::OneHot],
        _ => &[Encoding::Binary, Encoding::Gray],
    }
}

/// Renders the staged-pipeline conformance corpus: every paper benchmark
/// under every encoding through [`stages::run_full`], fingerprinting the
/// artifact-hash chain, every synthesized unit controller (states,
/// flip-flops, initial code, exact areas), the CENT-SYNC-FSM, and the
/// report rows. The `corpus_encodings` cells come first and the rest
/// after them, so the file only ever grew by appending. Checked in as
/// `results/synth_golden.json`, so any drift in scheduling, binding,
/// controller generation, logic synthesis, or the hashing discipline
/// itself shows up as a byte diff.
pub fn synth_conformance() -> Json {
    const ENCODINGS: [Encoding; 3] = [Encoding::Binary, Encoding::Gray, Encoding::OneHot];
    let model = AreaModel::default();
    let benches = paper_benchmarks();
    let pinned = benches.iter().flat_map(|(dfg, alloc, _)| {
        corpus_encodings(dfg.name())
            .iter()
            .map(move |&encoding| (dfg, alloc, encoding))
    });
    let appended = benches.iter().flat_map(|(dfg, alloc, _)| {
        ENCODINGS
            .into_iter()
            .filter(|e| !corpus_encodings(dfg.name()).contains(e))
            .map(move |encoding| (dfg, alloc, encoding))
    });
    Json::array(
        pinned
            .chain(appended)
            .map(|(dfg, alloc, encoding)| synth_entry(dfg, alloc, encoding, &model)),
    )
}

/// One corpus entry: `dfg` bound to `alloc` and synthesized under `encoding`.
fn synth_entry(dfg: &Dfg, alloc: &Allocation, encoding: Encoding, model: &AreaModel) -> Json {
    let input = SynthesisInput {
        dfg: dfg.clone(),
        allocation: alloc.clone(),
        strategy: BindStrategy::LeftEdge,
    };
    let mut trace = PipelineTrace::default();
    let (logic, reports) = stages::run_full(&input, false, encoding, model, None, &mut trace)
        .expect("benchmark synthesizes");
    let chain = Json::array(trace.hash_chain().into_iter().map(|(stage, hash)| {
        Json::object([
            ("stage", Json::from(stage)),
            ("hash", Json::from(format!("{hash:016x}").as_str())),
        ])
    }));
    let units = logic.controls().design().bound().allocation().units();
    let fsm_json = |syn: &tauhls_fsm::SynthesizedFsm| {
        vec![
            ("states", Json::from(syn.num_states())),
            ("flip_flops", Json::from(syn.flip_flops())),
            ("initial_code", Json::from(syn.initial_code())),
            ("area_com", Json::Float(syn.area().combinational)),
            ("area_seq", Json::Float(syn.area().sequential)),
        ]
    };
    let controllers = Json::array(logic.controllers().iter().map(|(u, syn)| {
        let mut cells = vec![("unit", Json::from(units[u.0].display_name().as_str()))];
        cells.extend(fsm_json(syn));
        Json::object(cells)
    }));
    let rows = Json::array(reports.rows().iter().map(|r| {
        Json::object([
            ("name", Json::from(r.name.as_str())),
            ("inputs", Json::from(r.inputs)),
            ("outputs", Json::from(r.outputs)),
            ("states", Json::from(r.states)),
            ("flip_flops", Json::from(r.flip_flops)),
            ("area_com", Json::Float(r.area_combinational)),
            ("area_seq", Json::Float(r.area_sequential)),
        ])
    }));
    Json::object([
        ("bench", Json::from(dfg.name())),
        (
            "encoding",
            Json::from(format!("{encoding:?}").to_lowercase().as_str()),
        ),
        ("stages", chain),
        ("controllers", controllers),
        ("cent_sync", Json::object(fsm_json(logic.cent_sync()))),
        ("rows", rows),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_fault_kind_and_both_outcomes() {
        let json = kernel_conformance().to_compact();
        for tag in [
            "\"none\"",
            "\"stuck_short\"",
            "\"stuck_long\"",
            "\"drop_pulse\"",
            "\"spurious\"",
            "\"delay_latch\"",
            "\"flip_state\"",
            "\"clock_skew\"",
        ] {
            assert!(json.contains(tag), "corpus lost the {tag} plan");
        }
        for tag in [
            "\"elastic_zero\"",
            "\"elastic_default\"",
            "\"elastic_wide\"",
        ] {
            assert!(json.contains(tag), "corpus lost the {tag} spec");
        }
        assert!(json.contains("\"cycles\""), "no successful runs in corpus");
        assert!(json.contains("\"error\""), "no failing runs in corpus");
    }

    #[test]
    fn elastic_corpus_zero_spec_reproduces_dist_fingerprints() {
        // The appended elastic block's `elastic_zero` cells must equal the
        // `dist` cells of the matching pre-refactor entries: skew 0 with
        // zero handshake latency is bisimilar to the synchronous
        // distributed engine, cell for cell.
        let json = kernel_conformance();
        let entries = json.as_array().expect("corpus is an array");
        let mut checked = 0;
        for e in entries {
            let Some(zero) = e.get("elastic_zero") else {
                continue;
            };
            let plan = e.get("plan").and_then(|p| p.as_str()).expect("plan");
            if plan == "clock_skew" {
                continue; // no synchronous twin exists for this plan
            }
            let twin = entries
                .iter()
                .find(|t| {
                    t.get("dist").is_some()
                        && t.get("bench") == e.get("bench")
                        && t.get("seed") == e.get("seed")
                        && t.get("plan") == e.get("plan")
                })
                .expect("every elastic cell has a synchronous twin");
            assert_eq!(
                zero.to_compact(),
                twin.get("dist").expect("dist cell").to_compact(),
                "elastic_zero diverged from dist for {}",
                e.to_compact()
            );
            checked += 1;
        }
        assert!(checked > 0, "no elastic cells found");
    }

    #[test]
    fn cent_corpus_matches_dist_results_and_names_the_composite() {
        // CENT is bisimilar to DIST: every successful `cent` cell equals
        // the `dist` cell of the same benchmark/seed/plan, and its errors
        // name one composite `CENT` controller.
        let json = kernel_conformance();
        let entries = json.as_array().expect("corpus is an array");
        let (mut ok, mut composite) = (0, 0);
        for e in entries {
            let Some(cent) = e.get("cent") else {
                continue;
            };
            let twin = entries
                .iter()
                .find(|t| {
                    t.get("dist").is_some()
                        && t.get("bench") == e.get("bench")
                        && t.get("seed") == e.get("seed")
                        && t.get("plan") == e.get("plan")
                })
                .expect("every CENT cell has a DIST twin");
            let dist = twin.get("dist").expect("dist cell");
            if cent.get("cycles").is_some() {
                assert_eq!(cent.to_compact(), dist.to_compact(), "{}", e.to_compact());
                ok += 1;
            } else if cent.to_compact().contains("CENT=") {
                composite += 1;
            }
        }
        assert!(ok > 0 && composite > 0, "ok {ok}, composite {composite}");
    }

    #[test]
    fn synth_corpus_covers_every_encoding() {
        // Determinism of the corpus itself is pinned byte-for-byte by the
        // golden replay in tests/golden.rs; here we only check coverage.
        let a = synth_conformance().to_compact();
        for tag in ["\"binary\"", "\"gray\"", "\"onehot\"", "\"cent_sync\""] {
            assert!(a.contains(tag), "corpus lost {tag}");
        }
        // Six paper benchmarks × three encodings: the 12 original cells
        // (see corpus_encodings) and the 6 appended after them.
        assert_eq!(a.matches("\"bench\"").count(), 18);
    }
}
