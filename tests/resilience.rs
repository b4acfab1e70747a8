//! Integration tests for the resilience sweep driver: each fault kind is
//! demonstrably detected as a structured `SimError` through the full
//! core-driver stack, and the report (including its canonical JSON bytes)
//! is bit-identical for any thread count.

use tauhls::core::experiments::paper_benchmarks;
use tauhls::core::resilience::{resilience_sweep, FAULT_KINDS};
use tauhls::dfg::benchmarks::{diffeq, fir5};
use tauhls::sched::BoundDfg;
use tauhls::sim::BatchRunner;
use tauhls::Allocation;
use tauhls_json::ToJson;

#[test]
fn every_fault_kind_is_detected_somewhere() {
    // Across two benchmarks and a healthy trial budget, every kind of
    // injected fault must surface at least once as a structured error —
    // the sweep is not allowed to be blind to a whole fault class.
    let designs: Vec<_> = paper_benchmarks()
        .into_iter()
        .filter(|(g, _, _)| g.name() == "fir5" || g.name() == "diffeq")
        .map(|(g, alloc, _)| (g, alloc))
        .collect();
    assert_eq!(designs.len(), 2, "canonical suite covers both benchmarks");
    let mut detected = std::collections::BTreeMap::new();
    for (g, alloc) in designs {
        let bound = BoundDfg::bind(&g, &alloc);
        let report = resilience_sweep(&bound, 0.5, 150, 2003, &BatchRunner::available());
        for row in &report.rows {
            *detected.entry(row.kind.clone()).or_insert(0u64) +=
                row.detected_deadlock + row.detected_desync;
            assert_eq!(
                row.detected_deadlock + row.detected_desync + row.survived,
                row.trials,
                "{}: outcomes must partition trials",
                row.kind
            );
        }
    }
    for kind in FAULT_KINDS {
        assert!(
            detected.get(kind).copied().unwrap_or(0) > 0,
            "fault kind {kind} was never detected: {detected:?}"
        );
    }
}

#[test]
fn detection_latency_is_reported_for_detected_faults() {
    let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
    let report = resilience_sweep(&bound, 0.5, 150, 7, &BatchRunner::serial());
    let stuck_long = report
        .rows
        .iter()
        .find(|r| r.kind == "stuck_long")
        .expect("stuck_long row");
    assert!(stuck_long.detected_deadlock > 0);
    // A deadlock is diagnosed by watchdog expiry, strictly after injection.
    assert!(stuck_long.mean_detection_latency > 0.0);
    assert!(stuck_long.detection_rate() <= 1.0);
    assert!(stuck_long.survival_fraction() <= 1.0);
}

#[test]
fn report_json_is_bit_identical_across_thread_counts() {
    let bound = BoundDfg::bind(&diffeq(), &Allocation::paper(2, 1, 1));
    let reference = resilience_sweep(&bound, 0.5, 64, 2003, &BatchRunner::serial())
        .to_json()
        .to_pretty();
    for threads in [2usize, 8] {
        let got = resilience_sweep(&bound, 0.5, 64, 2003, &BatchRunner::new(threads))
            .to_json()
            .to_pretty();
        assert_eq!(reference, got, "threads = {threads}");
    }
    // Sanity: the artifact names every fault kind.
    for kind in FAULT_KINDS {
        assert!(reference.contains(kind));
    }
}

#[test]
fn elastic_columns_partition_trials_and_bisimulate_at_zero_spec() {
    use tauhls::core::resilience::{resilience_sweep_with, ResilienceOptions};
    use tauhls::sim::{ControlStyleSet, ElasticSpec};

    let bound = BoundDfg::bind(&fir5(), &Allocation::paper(2, 1, 0));
    // Default options: all three styles, the default elastic spec. The
    // elastic outcomes must partition the trials of every row.
    let report = resilience_sweep_with(
        &bound,
        0.5,
        96,
        2003,
        &ResilienceOptions::default(),
        &BatchRunner::available(),
    );
    for row in &report.rows {
        assert_eq!(
            row.elastic_deadlock + row.elastic_desync + row.elastic_survived,
            row.trials,
            "{}: elastic outcomes must partition trials",
            row.kind
        );
    }
    // Zero spec: the elastic engine is bisimilar to the distributed one,
    // so the elastic columns must equal the dist columns row for row.
    let zero = resilience_sweep_with(
        &bound,
        0.5,
        96,
        2003,
        &ResilienceOptions {
            elastic: ElasticSpec::zero(),
            ..ResilienceOptions::default()
        },
        &BatchRunner::available(),
    );
    for row in &zero.rows {
        assert_eq!(row.elastic_deadlock, row.detected_deadlock, "{}", row.kind);
        assert_eq!(row.elastic_desync, row.detected_desync, "{}", row.kind);
        assert_eq!(row.elastic_survived, row.survived, "{}", row.kind);
    }
    // Styles filter: a dist-only sweep keeps the dist columns bit-equal
    // and zeroes everything gated off.
    let dist_only = resilience_sweep_with(
        &bound,
        0.5,
        96,
        2003,
        &ResilienceOptions {
            styles: ControlStyleSet::DIST,
            ..ResilienceOptions::default()
        },
        &BatchRunner::available(),
    );
    for (full, lean) in report.rows.iter().zip(&dist_only.rows) {
        assert_eq!(full.detected_deadlock, lean.detected_deadlock);
        assert_eq!(full.detected_desync, lean.detected_desync);
        assert_eq!(full.survived, lean.survived);
        assert_eq!(lean.cent_agreement, 0);
        assert_eq!(
            lean.elastic_deadlock + lean.elastic_desync + lean.elastic_survived,
            0
        );
    }
}

#[test]
fn sliced_engine_diagnoses_the_golden_sweeps_without_scalar_reruns() {
    use tauhls::core::resilience::{resilience_kind_counters_with_paths, ResilienceOptions};
    use tauhls::sim::{CellPaths, ControlStyleSet, ElasticSpec};

    // The inputs of results/resilience_golden.json: every paper benchmark
    // at P = 0.5, 100 trials per kind, seed 2003, under the three leg
    // selections of the corpus.
    let all = ResilienceOptions::default();
    let options = [
        all,
        ResilienceOptions {
            styles: ControlStyleSet::DIST,
            ..all
        },
        ResilienceOptions {
            elastic: ElasticSpec::zero(),
            ..all
        },
    ];
    let mut total = CellPaths::default();
    for (dfg, alloc, _) in paper_benchmarks() {
        let bound = BoundDfg::bind(&dfg, &alloc);
        for opts in &options {
            let runner = BatchRunner::available();
            let (_, paths) = resilience_kind_counters_with_paths(
                &bound,
                0.5,
                100,
                2003,
                0..FAULT_KINDS.len(),
                opts,
                &runner,
            );
            assert_eq!(paths.cells(), 100 * FAULT_KINDS.len() as u64 * legs(opts));
            total += paths;
        }
    }
    println!("golden resilience cells: {total:?}");
    // The sweep diagnoses thousands of faults; the sliced engine reports
    // them itself, so fewer than 1 % of cells rerun through the scalar
    // engine.
    assert!(total.sliced_error > 0, "{total:?}");
    assert!(total.reruns() * 100 < total.cells(), "{total:?}");
}

/// Engine legs a sweep under `opts` runs per trial.
fn legs(opts: &tauhls::core::resilience::ResilienceOptions) -> u64 {
    opts.styles.names().len() as u64
}
