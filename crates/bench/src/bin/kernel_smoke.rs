//! Bench-smoke for the unified cycle kernel: runs every paper benchmark
//! through all four scalar controller engines (DIST, CENT, CENT-SYNC,
//! ELASTIC) *and* their bit-sliced counterparts (64 Monte-Carlo lanes per
//! word) for a small fixed trial count, and records simulated cycles per
//! wall-clock second — plus heap-allocation counts from a bin-level
//! counting allocator — in `BENCH_kernel.json`. CI runs this in short
//! mode as a throughput regression canary and `bench_gate` compares the
//! numbers against the committed baseline; it is a smoke check, not a
//! calibrated benchmark — use `cargo bench -p tauhls-bench --bench
//! latency_sim` for per-style latency numbers.
//!
//! Every style runs through the same loop: its scalar [`Engine`] and the
//! [`SlicedSim`] keyed by it. Two self-checks run inline: the sliced
//! engines must allocate less per trial than the scalar ones (the
//! scratch-reuse contract), and a second sliced pass over a reused
//! `SlicedSim` must reproduce the first pass's cycle totals exactly.
//!
//! The `<style>_faulty` rows (DIST, CENT, ELASTIC) run each benchmark's
//! trials under resilience-sweep fault draws — trial `t` carries one
//! fault of kind `t % 6` — through a serial [`SlabDriver`], counting the
//! cycles simulated to completion or to detection, and record how many
//! cells reran through the scalar engine (`reruns`). The sliced engine
//! diagnoses every fault it runs, so any rerun fails the run.
//!
//! The `legs_coupled` row per benchmark runs a `/v1/simulate` request's
//! shape: every [`SIMULATE_LEGS`] style through one serial
//! [`SlabDriver`], each trial drawing one completion table at P = 0.9
//! and at P = 0.5 and feeding it to every style, the way `latency_batch`
//! runs them. Its `trials` counts both `P` values, and `total_cycles`
//! every cell.
//!
//! [`SIMULATE_LEGS`]: tauhls_core::jobspec::SIMULATE_LEGS
//!
//! Usage: `kernel_smoke [trials-per-benchmark]` (default 300).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tauhls_core::experiments::paper_benchmarks;
use tauhls_core::jobspec::{leg_styles, Endpoint, JobSpec};
use tauhls_core::resilience::{sweep_trial_config, FAULT_KINDS};
use tauhls_json::{Json, JsonRef};
use tauhls_sched::BoundDfg;
use tauhls_sim::{
    elastic_trial_skew_seed, trial_rng, Accumulator, BatchRunner, CompletionModel, ControlStyle,
    ElasticSpec, Engine, LaneBuilder, LaneConfigs, LaneInput, LaneModels, LaneOutcome, SimConfig,
    SlabDriver, SlicedSim, LANES,
};

/// Counts every heap allocation so the smoke can assert the sliced
/// engine's scratch reuse actually sticks. Bin-level only: the simulation
/// library itself stays `forbid(unsafe_code)`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter has no
// effect on layout or pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const P_SHORT: f64 = 0.7;
const SEED: u64 = 2003;

struct EngineRow {
    engine: String,
    benchmark: String,
    trials: u64,
    total_cycles: u64,
    elapsed_ns: u64,
    allocs: u64,
    /// Cells rerun through the scalar engine (faulty rows only).
    reruns: Option<u64>,
}

impl EngineRow {
    fn cycles_per_sec(&self) -> f64 {
        self.total_cycles as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("engine", Json::from(self.engine.as_str())),
            ("benchmark", Json::from(self.benchmark.as_str())),
            ("trials", Json::from(self.trials)),
            ("total_cycles", Json::from(self.total_cycles)),
            ("elapsed_ns", Json::from(self.elapsed_ns)),
            ("cycles_per_sec", Json::from(self.cycles_per_sec())),
            ("allocs", Json::from(self.allocs)),
        ];
        fields.extend(self.reruns.map(|r| ("reruns", Json::from(r))));
        Json::object(fields)
    }
}

/// Times `trials` fault-free runs of one scalar engine closure, returning
/// the simulated-cycle total, the wall-clock spent, and the heap
/// allocations made.
fn measure(trials: u64, mut run: impl FnMut(&mut StdRng) -> u64) -> (u64, u64, u64) {
    let mut rng = StdRng::seed_from_u64(SEED);
    // One warm-up pass so lazily-faulted caches don't bill the first row.
    run(&mut rng);
    let mut total_cycles = 0u64;
    let allocs_before = alloc_count();
    let start = Instant::now();
    for _ in 0..trials {
        total_cycles += run(&mut rng);
    }
    (
        total_cycles,
        start.elapsed().as_nanos() as u64,
        alloc_count() - allocs_before,
    )
}

/// Times `trials` fault-free trials through a sliced engine closure that
/// consumes one slab of per-trial RNGs (up to [`LANES`] lanes) per call.
fn measure_sliced(trials: u64, mut run: impl FnMut(&mut [StdRng]) -> u64) -> (u64, u64, u64) {
    let fill = |rngs: &mut Vec<StdRng>, start: u64, end: u64| {
        rngs.clear();
        for t in start..end {
            rngs.push(trial_rng(SEED, 0, t));
        }
    };
    let mut rngs: Vec<StdRng> = Vec::with_capacity(LANES);
    // Warm-up slab, mirroring the scalar warm-up pass.
    fill(&mut rngs, 0, (LANES as u64).min(trials));
    run(&mut rngs);
    let mut total_cycles = 0u64;
    let allocs_before = alloc_count();
    let start = Instant::now();
    let mut t = 0u64;
    while t < trials {
        let end = (t + LANES as u64).min(trials);
        fill(&mut rngs, t, end);
        total_cycles += run(&mut rngs);
        t = end;
    }
    (
        total_cycles,
        start.elapsed().as_nanos() as u64,
        alloc_count() - allocs_before,
    )
}

fn slab_cycles(out: &[LaneOutcome]) -> u64 {
    out.iter()
        .map(|lane| match lane {
            LaneOutcome::Done(r) => r.cycles as u64,
            _ => panic!("fault-free sliced lane did not complete: {lane:?}"),
        })
        .sum()
}

/// An exact cycle total, folded chunk by chunk.
struct Cycles(u64);

impl Accumulator for Cycles {
    fn empty() -> Self {
        Cycles(0)
    }
    fn fold(&mut self, other: Self) {
        self.0 += other.0;
    }
}

/// Times `trials` resilience-style faulty trials of `style` on `bound`
/// through a serial [`SlabDriver`]: the cycles simulated to completion or
/// to detection, the wall-clock, the heap allocations, and the cells that
/// reran scalar.
fn measure_faulty(bound: &BoundDfg, style: ControlStyle, trials: u64) -> (u64, u64, u64, u64) {
    let num_ops = bound.dfg().num_ops();
    let controllers = Engine::generate(bound, ControlStyle::Distributed)
        .dist_bank()
        .map_or(0, |cu| cu.controllers().len());
    let model = CompletionModel::Bernoulli { p: P_SHORT };
    let config = |trial: u64, _: &mut StdRng| {
        let kind = (trial % FAULT_KINDS.len() as u64) as usize;
        sweep_trial_config(SEED, kind, trial, num_ops, controllers)
    };
    let lanes = LaneBuilder {
        rng: &|trial| trial_rng(SEED, 0, trial),
        model: LaneInput::Shared(&model),
        config: LaneInput::PerLane(&config),
        skew_seed: &|trial| elastic_trial_skew_seed(SEED, 0, trial),
    };
    let driver = SlabDriver::new(bound, &[style]);
    let allocs_before = alloc_count();
    let start = Instant::now();
    let runner = BatchRunner::serial();
    let Cycles(total) = driver.run(trials, &runner, &lanes, |Cycles(acc), _, _, results| {
        for result in results {
            *acc += match result {
                Ok(r) => r.cycles,
                Err(e) => e.detected_cycle().expect("a fault is diagnosed at a cycle"),
            } as u64;
        }
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let allocs = alloc_count() - allocs_before;
    (total, elapsed_ns, allocs, driver.paths().reruns())
}

/// The `P` values of the `legs_coupled` rows: a `simulate_mc` request's.
const COUPLED_P: [f64; 2] = [0.9, 0.5];

/// Times `trials` fault-free trials per [`COUPLED_P`] value of every
/// [`SIMULATE_LEGS`] style through one serial [`SlabDriver`], each trial
/// drawing its completion table the way `latency_batch` does: the cycles
/// of every cell, the wall-clock and the heap allocations.
///
/// [`SIMULATE_LEGS`]: tauhls_core::jobspec::SIMULATE_LEGS
fn measure_coupled(bound: &BoundDfg, trials: u64) -> (u64, u64, u64) {
    let num_ops = bound.dfg().num_ops();
    let fault_free = SimConfig::default();
    let driver = SlabDriver::new(bound, &leg_styles(ElasticSpec::default()));
    let runner = BatchRunner::serial();
    let allocs_before = alloc_count();
    let start = Instant::now();
    let mut total = 0;
    for (job, p) in (0u64..).zip(COUPLED_P) {
        let lanes = LaneBuilder {
            rng: &|trial| trial_rng(SEED, job, trial),
            model: LaneInput::PerLane(&|_, rng| CompletionModel::draw_table(num_ops, p, rng)),
            config: LaneInput::Shared(&fault_free),
            skew_seed: &|trial| elastic_trial_skew_seed(SEED, job, trial),
        };
        let Cycles(cycles) = driver.run(trials, &runner, &lanes, |Cycles(acc), _, _, results| {
            for result in results {
                *acc += result.expect("fault-free coupled trial").cycles as u64;
            }
        });
        total += cycles;
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    (total, elapsed_ns, alloc_count() - allocs_before)
}

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("trials must be an integer"))
        .unwrap_or(300);
    let model = CompletionModel::Bernoulli { p: P_SHORT };
    let fault_free = SimConfig::default();
    // The measured styles and their row names; each also gets a
    // `<name>_sliced` row.
    let styles = [
        ("dist", ControlStyle::Distributed),
        ("cent", ControlStyle::Cent),
        ("cent_sync", ControlStyle::CentSync),
        ("elastic", ControlStyle::Elastic(ElasticSpec::default())),
    ];
    let models = LaneModels::Shared(&model);
    let cfgs = LaneConfigs::Shared(&fault_free);
    // The scalar ELASTIC row keeps one fixed skew schedule, a pure
    // throughput probe (trials still vary through the Bernoulli draws);
    // the sliced rows give lane `t` of every slab its own schedule.
    let skew_seed = elastic_trial_skew_seed(SEED, 0, 0);
    let skew_seeds: Vec<u64> = (0..LANES as u64)
        .map(|t| elastic_trial_skew_seed(SEED, 0, t))
        .collect();
    let mut rows = Vec::new();
    for (dfg, alloc, _) in paper_benchmarks() {
        let name = dfg.name().to_string();
        let bound = BoundDfg::bind(&dfg, &alloc);
        let row = |engine: String, (cycles, ns, allocs)| EngineRow {
            engine,
            benchmark: name.clone(),
            trials,
            total_cycles: cycles,
            elapsed_ns: ns,
            allocs,
            reruns: None,
        };
        // Scalar rows first, then the sliced ones, in style order.
        let mut sliced_rows = Vec::new();
        for (style_name, style) in styles {
            let engine = Engine::generate(&bound, style);
            rows.push(row(
                style_name.to_string(),
                measure(trials, |rng| {
                    (engine.run_scalar(&bound, &model, None, rng, &fault_free, skew_seed))
                        .expect("fault-free simulation")
                        .cycles as u64
                }),
            ));
            let mut sim = SlicedSim::new(&bound, &engine);
            let mut out = Vec::new();
            let mut sliced = || {
                measure_sliced(trials, |rngs| {
                    let skews = &skew_seeds[..rngs.len()];
                    sim.run(skews, &models, &cfgs, rngs, &mut out);
                    slab_cycles(&out)
                })
            };
            let first = sliced();
            // Scratch-reuse self-check: a second pass over the same
            // SlicedSim must reproduce the first pass's totals exactly.
            assert_eq!(
                first.0,
                sliced().0,
                "{name}: {style_name} sliced scratch reuse changed results"
            );
            sliced_rows.push(row(format!("{style_name}_sliced"), first));
        }
        rows.append(&mut sliced_rows);
        for (style_name, style) in styles {
            if style == ControlStyle::CentSync {
                continue;
            }
            let (cycles, ns, allocs, reruns) = measure_faulty(&bound, style, trials);
            rows.push(EngineRow {
                reruns: Some(reruns),
                ..row(format!("{style_name}_faulty"), (cycles, ns, allocs))
            });
        }
        rows.push(EngineRow {
            trials: trials * COUPLED_P.len() as u64,
            ..row("legs_coupled".to_string(), measure_coupled(&bound, trials))
        });
    }

    for row in &rows {
        println!(
            "{:<18} {:<14} {:>12.0} cycles/sec  ({} trials, {} cycles, {} allocs)",
            row.engine,
            row.benchmark,
            row.cycles_per_sec(),
            row.trials,
            row.total_cycles,
            row.allocs
        );
    }
    // Allocation self-check: slicing must cut per-trial allocations, or
    // the scratch/arena reuse has regressed.
    for (scalar, _) in styles {
        let sliced = format!("{scalar}_sliced");
        let total = |engine: &str| -> u64 {
            rows.iter()
                .filter(|r| r.engine == engine)
                .map(|r| r.allocs)
                .sum()
        };
        let (a, b) = (total(scalar), total(&sliced));
        assert!(
            b < a,
            "{sliced} allocated {b} times, not less than {scalar}'s {a}"
        );
        println!("allocs: {sliced} {b} vs {scalar} {a}");
    }
    // Rerun self-check: no `_faulty` cell may leave the sliced engine.
    let reran: Vec<String> = (rows.iter())
        .filter(|r| r.reruns.unwrap_or(0) > 0)
        .map(|r| format!("{} {}", r.engine, r.benchmark))
        .collect();
    assert!(
        reran.is_empty(),
        "faulty cells reran through the scalar engine: {}",
        reran.join(", ")
    );

    // Zero-copy spec-parse self-check: the borrowed `JsonRef` path the
    // service uses on request bodies must allocate strictly less than
    // the owned `Json` parse it replaced (the borrowed tree keeps keys
    // and strings as slices of the request buffer).
    let (borrowed_allocs, owned_allocs) = spec_parse_allocs();
    assert!(
        borrowed_allocs < owned_allocs,
        "borrowed spec parse allocated {borrowed_allocs} times, \
         not less than the owned path's {owned_allocs}"
    );
    println!("allocs per spec parse: borrowed {borrowed_allocs} vs owned {owned_allocs}");

    let report = Json::object([
        ("mode", Json::from("short")),
        ("p", Json::from(P_SHORT)),
        ("seed", Json::from(SEED)),
        ("trials_per_benchmark", Json::from(trials)),
        ("engines", Json::array(rows.iter().map(EngineRow::to_json))),
        (
            "spec_parse",
            Json::object([
                ("borrowed_allocs", Json::from(borrowed_allocs)),
                ("owned_allocs", Json::from(owned_allocs)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_kernel.json", report.to_pretty()).expect("write BENCH_kernel.json");
    println!("BENCH_kernel.json: {} rows", rows.len());
}

/// Allocation counts for one borrowed-vs-owned parse of a representative
/// request body, averaged over a fixed number of passes (after a warm-up
/// each). The borrowed tree keeps keys and strings as slices of the
/// request buffer, so only container nodes hit the heap; the owned tree
/// copies every key and string. Downstream [`JobSpec`] construction is
/// validated once outside the counted loops — its built-in-DFG
/// resolution allocates identically on both paths and would drown the
/// parse numbers.
fn spec_parse_allocs() -> (u64, u64) {
    const BODY: &str = r#"{"dfg":"ewf","trials":2000,"p":[0.9,0.7,0.5],"seed":2003}"#;
    const PASSES: u64 = 64;
    let endpoint = Endpoint::parse("simulate").expect("simulate endpoint");
    let borrowed_tree = JsonRef::parse(BODY).expect("borrowed parse");
    let owned_tree = Json::parse(BODY).expect("owned parse");
    assert_eq!(
        JobSpec::from_json_ref(endpoint, &borrowed_tree)
            .expect("borrowed spec")
            .cache_key(),
        JobSpec::from_json(endpoint, &owned_tree)
            .expect("owned spec")
            .cache_key(),
        "borrowed and owned parses disagree on the canonical spec"
    );
    let count = |parse: &dyn Fn()| -> u64 {
        parse();
        let before = alloc_count();
        for _ in 0..PASSES {
            parse();
        }
        (alloc_count() - before) / PASSES
    };
    let borrowed = count(&|| {
        std::hint::black_box(JsonRef::parse(BODY).expect("borrowed parse"));
    });
    let owned = count(&|| {
        std::hint::black_box(Json::parse(BODY).expect("owned parse"));
    });
    (borrowed, owned)
}
