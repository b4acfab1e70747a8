//! Smoke benchmark for the synthesis endpoints: the perf-trajectory
//! datapoint for `/v1/synth` and the staged pipeline behind it.
//!
//! With a path argument it spawns that `tauhls` binary as a real server
//! process and checks the `tauhls call synth` round-trip; without one it
//! runs against an in-process [`tauhls_serve::Server`]. Either way it
//! measures four regimes — cold synthesis of new designs (every built-in
//! benchmark under a grid of allocations), encoding sweeps (new responses
//! for designs already synthesized once), response-cache replays, and
//! `/v1/explore` design-space sweeps over distinct seeds — then scrapes
//! `/metrics` for the per-stage latency histograms, and writes
//! everything to `BENCH_synth.json`.
//!
//! CI runs this as the `synth-smoke` job; like `serve_smoke` it is a
//! regression canary plus a trend artifact, not a calibrated benchmark.
//!
//! Usage: `synth_smoke [path/to/tauhls]`

use std::time::Instant;

use tauhls_bench::serve::{cli_round_trip, metric, post, start, stop, TIMEOUT};
use tauhls_dfg::benchmarks;
use tauhls_json::Json;
use tauhls_serve::{client, ServeConfig};

/// The cold pass crosses every built-in benchmark with every allocation
/// of 1..=`COLD_MULS` multipliers and 1..=`COLD_ADDS` adders: each pair
/// is a distinct design, so every request is a response-cache miss that
/// runs the whole pipeline. Many cheap misses keep the rate steady
/// against the accept poll's per-request jitter.
const COLD_MULS: u64 = 6;
const COLD_ADDS: u64 = 4;
/// Encodings swept over every cold design afterwards: each is a new
/// response, so the whole pipeline reruns.
const SWEEP_ENCODINGS: [&str; 2] = ["gray", "onehot"];
/// Replays of one warmed spec — pure response-cache path.
const HIT_JOBS: u64 = 200;
/// Design-space sweeps via `/v1/explore`; distinct seeds keep each one
/// cold through the batch engine.
const EXPLORE_JOBS: u64 = 100;

fn spec(dfg: &str, (muls, adds): (u64, u64), encoding: &str) -> String {
    format!(r#"{{"dfg":"{dfg}","muls":{muls},"adds":{adds},"encoding":"{encoding}"}}"#)
}

/// The spec the CLI round trip synthesizes and the hot pass replays:
/// fir3 under the default allocation and encoding.
fn warm_spec() -> String {
    spec("fir3", (2, 1), "binary")
}

fn explore_spec(seed: u64) -> String {
    format!(
        r#"{{"dfg":"fir3","max_muls":2,"max_adds":1,"trials":400,"p":[0.9,0.5],"sd_ld":[0.75,1.0],"seed":{seed}}}"#
    )
}

fn main() {
    let binary = std::env::args().nth(1);
    let (instance, addr) = start(
        binary.as_deref(),
        &["--workers", "4"],
        ServeConfig::default(),
    );
    println!("server at {addr}");
    if let Some(bin) = binary.as_deref() {
        cli_round_trip(
            bin,
            &addr,
            "tauhls-synth-smoke",
            &warm_spec(),
            &["synth", "area"],
        );
    }
    // The CLI round trip above already synthesized the warm spec in
    // subprocess mode; the cold pass skips it.
    let designs: Vec<_> = benchmarks::NAMES
        .iter()
        .flat_map(|dfg| {
            (1..=COLD_MULS).flat_map(move |m| (1..=COLD_ADDS).map(move |a| (*dfg, (m, a))))
        })
        .filter(|&(dfg, alloc)| binary.is_none() || spec(dfg, alloc, "binary") != warm_spec())
        .collect();

    // Cold pass: every benchmark under every allocation, default
    // encoding — every stage of the pipeline executes.
    let cold_start = Instant::now();
    for &(dfg, alloc) in &designs {
        post(&addr, "/v1/synth", &spec(dfg, alloc, "binary"), "miss");
    }
    let cold_elapsed = cold_start.elapsed();

    // Sweep pass: the same designs, new encodings. Each is a
    // response-cache miss, so every stage executes again.
    let sweep_start = Instant::now();
    for &(dfg, alloc) in &designs {
        for encoding in SWEEP_ENCODINGS {
            post(&addr, "/v1/synth", &spec(dfg, alloc, encoding), "miss");
        }
    }
    let sweep_elapsed = sweep_start.elapsed();

    // Hot pass: one warmed spec replayed — pure response-cache path.
    let hit_start = Instant::now();
    for _ in 0..HIT_JOBS {
        post(&addr, "/v1/synth", &warm_spec(), "hit");
    }
    let hit_elapsed = hit_start.elapsed();

    // Explore pass: the Pareto design-space sweep. Each request fans a
    // small allocation x encoding x (p, sd_ld) grid through the batch
    // engine, so this is the heaviest per-request path the server has.
    let explore_start = Instant::now();
    for seed in 0..EXPLORE_JOBS {
        let r = post(&addr, "/v1/explore", &explore_spec(seed), "miss");
        assert!(
            r.body.contains("frontier"),
            "explore body lacks a frontier: {}",
            r.body
        );
    }
    let explore_elapsed = explore_start.elapsed();

    let metrics = client::request(&addr, "GET", "/metrics", None, TIMEOUT).expect("scrape metrics");
    assert_eq!(metrics.status, 200);
    let stage_names = [
        "canonicalize",
        "order",
        "bind",
        "controllers",
        "logic",
        "report",
    ];
    let stages = Json::object(stage_names.map(|stage| {
        let sum = metric(
            &metrics.body,
            &format!("tauhls_serve_stage_seconds_sum{{stage=\"{stage}\"}} "),
        );
        let count = metric(
            &metrics.body,
            &format!("tauhls_serve_stage_seconds_count{{stage=\"{stage}\"}} "),
        );
        (
            stage,
            Json::object([
                ("runs", Json::from(count)),
                (
                    "mean_us",
                    Json::from(if count > 0.0 { 1e6 * sum / count } else { 0.0 }),
                ),
            ]),
        )
    }));
    let synth_requests = metric(
        &metrics.body,
        "tauhls_serve_requests_total{endpoint=\"synth\"} ",
    );
    stop(instance);

    let cold_sps = designs.len() as f64 / cold_elapsed.as_secs_f64();
    let sweep_jobs = (designs.len() * SWEEP_ENCODINGS.len()) as f64;
    let sweep_sps = sweep_jobs / sweep_elapsed.as_secs_f64();
    let hit_rps = HIT_JOBS as f64 / hit_elapsed.as_secs_f64();
    let explore_sps = EXPLORE_JOBS as f64 / explore_elapsed.as_secs_f64();
    println!("cold (full pipeline):   {cold_sps:>10.1} synth/sec");
    println!("sweep (new encodings):  {sweep_sps:>10.1} synth/sec");
    println!("hot (response cache):   {hit_rps:>10.1} requests/sec");
    println!("explore (design space): {explore_sps:>10.1} sweeps/sec");

    let report = Json::object([
        (
            "mode",
            Json::from(if binary.is_some() {
                "subprocess"
            } else {
                "in_process"
            }),
        ),
        ("cold_jobs", Json::from(designs.len())),
        ("cold_synth_per_sec", Json::from(cold_sps)),
        ("sweep_jobs", Json::from(sweep_jobs)),
        ("sweep_synth_per_sec", Json::from(sweep_sps)),
        ("hit_jobs", Json::from(HIT_JOBS)),
        ("hit_requests_per_sec", Json::from(hit_rps)),
        ("explore_jobs", Json::from(EXPLORE_JOBS)),
        ("explore_per_sec", Json::from(explore_sps)),
        ("synth_requests_total", Json::from(synth_requests)),
        ("stages", stages),
    ]);
    std::fs::write("BENCH_synth.json", report.to_pretty()).expect("write BENCH_synth.json");
    println!("BENCH_synth.json written");
}
