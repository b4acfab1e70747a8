//! Determinism regression tests for the batch simulation engine: the same
//! base seed must produce byte-identical artifacts regardless of how many
//! worker threads execute the trials, and independent of chunking. This is
//! the contract that makes the checked-in golden files in `results/`
//! meaningful on any machine.

use tauhls::core::experiments::table2;
use tauhls::dfg::benchmarks;
use tauhls::sched::BoundDfg;
use tauhls::sim::{latency_batch, BatchRunner, ControlStyle, LatencySummary};
use tauhls::Allocation;
use tauhls_json::ToJson;

/// Coupled CENT-SYNC and DIST summaries.
fn sync_and_dist(
    bound: &BoundDfg,
    ps: &[f64],
    trials: u64,
    seed: u64,
    runner: &BatchRunner,
) -> Vec<LatencySummary> {
    let styles = [ControlStyle::CentSync, ControlStyle::Distributed];
    latency_batch(bound, &styles, ps, 0, trials, seed, runner).expect("fault-free")
}

#[test]
fn latency_summaries_identical_across_thread_counts() {
    let bound = BoundDfg::bind(&benchmarks::diffeq(), &Allocation::paper(2, 1, 1));
    let ps = [0.9, 0.7, 0.5];
    let reference = sync_and_dist(&bound, &ps, 500, 2003, &BatchRunner::serial());
    for threads in [2usize, 8] {
        let got = sync_and_dist(&bound, &ps, 500, 2003, &BatchRunner::new(threads));
        assert_eq!(reference, got, "threads = {threads}");
    }
    // Chunk geometry is equally irrelevant.
    let ragged = sync_and_dist(
        &bound,
        &ps,
        500,
        2003,
        &BatchRunner::new(4).with_chunk_size(17),
    );
    assert_eq!(reference, ragged);
}

#[test]
fn table2_json_identical_across_thread_counts() {
    // The full paper artifact, rendered to its canonical byte form.
    let reference = table2(200, 7, &BatchRunner::serial())
        .expect("fault-free table2")
        .to_json()
        .to_pretty();
    for threads in [2usize, 8] {
        let got = table2(200, 7, &BatchRunner::new(threads))
            .expect("fault-free table2")
            .to_json()
            .to_pretty();
        assert_eq!(reference, got, "threads = {threads}");
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the determinism is not vacuous (e.g. the engine
    // ignoring the seed entirely).
    let bound = BoundDfg::bind(&benchmarks::diffeq(), &Allocation::paper(2, 1, 1));
    let a = sync_and_dist(&bound, &[0.5], 400, 1, &BatchRunner::serial());
    let b = sync_and_dist(&bound, &[0.5], 400, 2, &BatchRunner::serial());
    assert_ne!(a, b, "seeds 1 and 2 produced identical averages");
}
