//! Smoke benchmark for the simulation service: the first perf-trajectory
//! datapoint for `tauhls serve`.
//!
//! With a path argument it spawns that `tauhls` binary as a real server
//! process, checks the `tauhls call` client round-trip, then measures
//! cold (cache-miss) and hot (cache-hit) request throughput with the
//! std-only HTTP client, scrapes `/metrics`, and writes the numbers to
//! `BENCH_serve.json`. Without an argument it runs the same measurement
//! against an in-process [`tauhls_serve::Server`] (handy for local
//! iteration).
//!
//! CI runs this as the `serve-smoke` job; like `kernel_smoke` it is a
//! regression canary plus a trend artifact, not a calibrated benchmark.
//!
//! Usage: `serve_smoke [path/to/tauhls]`

use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use tauhls_bench::serve::{cli_round_trip, metric, post, start, stop, Instance, TIMEOUT};
use tauhls_json::Json;
use tauhls_serve::{client, ServeConfig};

/// Distinct specs for the cold pass — every request simulates.
const COLD_JOBS: u64 = 16;
/// Replays of one spec for the sequential hot pass — every request hits.
const HIT_JOBS: u64 = 400;
/// Client threads hammering the cache concurrently.
const CONCURRENT_CLIENTS: u64 = 4;
const HITS_PER_CLIENT: u64 = 100;
/// Distinct async jobs for the submit→poll→result pass.
const ASYNC_JOBS: u64 = 24;

fn spec(seed: u64) -> String {
    format!(r#"{{"dfg":"fir3","trials":200,"p":[0.5],"seed":{seed}}}"#)
}

/// Starts the measured server: four connection workers, journalling
/// into `data_dir`.
fn start_server(binary: Option<&str>, data_dir: &Path) -> (Instance, String) {
    let dir = data_dir.to_str().expect("utf-8 temp path");
    let config = ServeConfig {
        data_dir: Some(data_dir.to_path_buf()),
        ..ServeConfig::default()
    };
    start(binary, &["--workers", "4", "--data-dir", dir], config)
}

fn simulate(addr: &str, body: &str, want_cache: &str) {
    post(addr, "/v1/simulate", body, want_cache);
}

/// Submits one async job, returning its id.
fn submit_job(addr: &str, spec: &str) -> String {
    let body = format!(r#"{{"endpoint":"simulate","spec":{spec}}}"#);
    let r =
        client::request(addr, "POST", "/v1/jobs", Some(&body), TIMEOUT).expect("submit response");
    assert!(
        r.status == 200 || r.status == 202,
        "{} {}",
        r.status,
        r.body
    );
    Json::parse(&r.body)
        .ok()
        .and_then(|j| j.get("job").and_then(|v| v.as_str().map(String::from)))
        .unwrap_or_else(|| panic!("submit body has no job id: {}", r.body))
}

/// Polls one job to `done` and returns its result body.
fn await_job(addr: &str, id: &str) -> String {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let r = client::request(addr, "GET", &format!("/v1/jobs/{id}/result"), None, TIMEOUT)
            .expect("result response");
        match r.status {
            200 => return r.body,
            202 => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                thread::sleep(Duration::from_millis(5));
            }
            other => panic!("job {id}: HTTP {other}: {}", r.body),
        }
    }
}

/// Monte-Carlo batch sharded across the cluster pass — sized so a
/// single `--threads 1` worker takes a few seconds in release mode.
const CLUSTER_TRIALS: u64 = 60000;
const CLUSTER_P: &str = "[0.9,0.85,0.8,0.75,0.7,0.65,0.6,0.55,0.5,0.45,0.4,0.35]";

fn cluster_spec() -> String {
    format!(r#"{{"dfg":"ewf","trials":{CLUSTER_TRIALS},"p":{CLUSTER_P},"seed":77}}"#)
}

/// Starts one cluster node — a plain worker when `peers` is `None`, a
/// coordinator over the listed workers otherwise. Single-threaded
/// simulation so the 1-vs-3-worker comparison measures sharding, not
/// the in-process thread pool.
fn start_node(binary: Option<&str>, peers: Option<&Path>) -> (Instance, String) {
    let mut flags = vec!["--threads", "1"];
    if let Some(path) = peers {
        flags.extend(["--workers-file", path.to_str().expect("utf-8 peers path")]);
    }
    let config = ServeConfig {
        sim_threads: Some(1),
        workers_file: peers.map(Path::to_path_buf),
        ..ServeConfig::default()
    };
    start(binary, &flags, config)
}

/// Runs the cluster batch through a fresh coordinator over `workers`
/// real worker addresses (plus optionally one dead address, to measure
/// requeue recovery); returns (elapsed, merged body).
fn cluster_batch(
    binary: Option<&str>,
    dir: &Path,
    worker_count: usize,
    with_dead_worker: bool,
) -> (Duration, String) {
    let nodes: Vec<(Instance, String)> = (0..worker_count)
        .map(|_| start_node(binary, None))
        .collect();
    let mut addrs: Vec<String> = nodes.iter().map(|(_, a)| a.clone()).collect();
    if with_dead_worker {
        // Port 9 (discard) answers nothing; localhost connects are
        // refused immediately, so this measures the requeue path, not
        // a connect timeout.
        addrs.push("127.0.0.1:9".to_string());
    }
    let peers = dir.join(format!("peers-{worker_count}-{with_dead_worker}.json"));
    let body = format!(
        "[{}]",
        addrs
            .iter()
            .map(|a| format!("{a:?}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    std::fs::write(&peers, body).expect("write peers file");
    let (coordinator, caddr) = start_node(binary, Some(&peers));
    let spec = cluster_spec();
    let start = Instant::now();
    let r = client::request(&caddr, "POST", "/v1/simulate", Some(&spec), TIMEOUT)
        .expect("clustered batch");
    let elapsed = start.elapsed();
    assert_eq!(r.status, 200, "{}", r.body);
    stop(coordinator);
    for (node, _) in nodes {
        stop(node);
    }
    (elapsed, r.body)
}

fn main() {
    let binary = std::env::args().nth(1);
    let data_dir = std::env::temp_dir().join(format!("tauhls-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("create data dir");
    let (instance, addr) = start_server(binary.as_deref(), &data_dir);
    println!("server at {addr}");
    if let Some(bin) = binary.as_deref() {
        let endpoints = ["healthz", "simulate", "metrics"];
        cli_round_trip(bin, &addr, "tauhls-serve-smoke", &spec(1), &endpoints);
    }

    // Cold pass: distinct seeds, so every request runs the simulation.
    let cold_start = Instant::now();
    for seed in 0..COLD_JOBS {
        simulate(&addr, &spec(100 + seed), "miss");
    }
    let cold_elapsed = cold_start.elapsed();

    // Hot pass: one warmed spec replayed sequentially — pure cache path.
    simulate(
        &addr,
        &spec(1),
        if binary.is_some() { "hit" } else { "miss" },
    );
    let hit_start = Instant::now();
    for _ in 0..HIT_JOBS {
        simulate(&addr, &spec(1), "hit");
    }
    let hit_elapsed = hit_start.elapsed();

    // Concurrent hot pass: the sharded cache under parallel clients.
    let concurrent_start = Instant::now();
    let clients: Vec<_> = (0..CONCURRENT_CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || {
                for _ in 0..HITS_PER_CLIENT {
                    simulate(&addr, &spec(1), "hit");
                }
            })
        })
        .collect();
    for handle in clients {
        handle.join().expect("client thread");
    }
    let concurrent_elapsed = concurrent_start.elapsed();

    // Async-jobs pass: submit→poll→result round trips through the
    // durable job manager, every spec distinct so each one executes and
    // journals.
    let jobs_start = Instant::now();
    let ids: Vec<String> = (0..ASYNC_JOBS)
        .map(|seed| submit_job(&addr, &spec(1000 + seed)))
        .collect();
    for id in &ids {
        let body = await_job(&addr, id);
        assert!(body.contains("\"spec\""), "result body for {id}: {body}");
    }
    let jobs_elapsed = jobs_start.elapsed();

    let metrics = client::request(&addr, "GET", "/metrics", None, TIMEOUT).expect("scrape metrics");
    assert_eq!(metrics.status, 200);
    let hits = metric(&metrics.body, "tauhls_serve_cache_hits_total ");
    let misses = metric(&metrics.body, "tauhls_serve_cache_misses_total ");
    let trials = metric(&metrics.body, "tauhls_serve_trials_total ");
    let simulate_count = metric(
        &metrics.body,
        "tauhls_serve_requests_total{endpoint=\"simulate\"} ",
    );
    let jobs_completed = metric(
        &metrics.body,
        "tauhls_serve_jobs_total{event=\"completed\"} ",
    );
    assert!(
        jobs_completed >= ASYNC_JOBS as f64,
        "only {jobs_completed} of {ASYNC_JOBS} async jobs completed"
    );
    stop(instance);

    // Recovery pass: restart on the same data dir and time the journal
    // replay plus artifact re-verification, then confirm a recovered
    // job's result is served from disk without recomputation.
    let replay_start = Instant::now();
    let (instance, addr) = start_server(binary.as_deref(), &data_dir);
    let replay_elapsed = replay_start.elapsed();
    let recovered = await_job(&addr, &ids[0]);
    assert!(recovered.contains("\"spec\""), "{recovered}");
    let metrics = client::request(&addr, "GET", "/metrics", None, TIMEOUT).expect("scrape metrics");
    let jobs_recovered = metric(
        &metrics.body,
        "tauhls_serve_jobs_total{event=\"recovered\"} ",
    );
    assert!(
        jobs_recovered >= ASYNC_JOBS as f64,
        "only {jobs_recovered} of {ASYNC_JOBS} jobs recovered after restart"
    );
    stop(instance);
    let _ = std::fs::remove_dir_all(&data_dir);

    // Cluster pass: the identical batch through a coordinator at 1 and
    // 3 workers (merges must be byte-identical), plus a requeue run
    // where one registered worker address is dead from the start — the
    // difference against the clean 1-worker run is the price of
    // detecting the loss and requeueing its partition.
    let cluster_dir =
        std::env::temp_dir().join(format!("tauhls-cluster-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cluster_dir);
    std::fs::create_dir_all(&cluster_dir).expect("create cluster dir");
    let (one_elapsed, one_body) = cluster_batch(binary.as_deref(), &cluster_dir, 1, false);
    let (three_elapsed, three_body) = cluster_batch(binary.as_deref(), &cluster_dir, 3, false);
    assert_eq!(
        one_body, three_body,
        "1-worker and 3-worker merges diverged"
    );
    let (requeue_elapsed, requeue_body) = cluster_batch(binary.as_deref(), &cluster_dir, 1, true);
    assert_eq!(requeue_body, one_body, "requeue changed the merged bytes");
    let requeue_recovery = (requeue_elapsed.as_secs_f64() - one_elapsed.as_secs_f64()).max(0.0);
    let _ = std::fs::remove_dir_all(&cluster_dir);
    let cluster_units = (CLUSTER_TRIALS * 12) as f64;
    let cluster_one_tps = cluster_units / one_elapsed.as_secs_f64();
    let cluster_three_tps = cluster_units / three_elapsed.as_secs_f64();

    let cold_rps = COLD_JOBS as f64 / cold_elapsed.as_secs_f64();
    let hit_rps = HIT_JOBS as f64 / hit_elapsed.as_secs_f64();
    let concurrent_rps =
        (CONCURRENT_CLIENTS * HITS_PER_CLIENT) as f64 / concurrent_elapsed.as_secs_f64();
    let job_rps = ASYNC_JOBS as f64 / jobs_elapsed.as_secs_f64();
    println!("cold (simulating):  {cold_rps:>10.1} requests/sec");
    println!("hot (cache hit):    {hit_rps:>10.1} requests/sec");
    println!("hot ({CONCURRENT_CLIENTS} clients):    {concurrent_rps:>10.1} requests/sec");
    println!("async jobs:         {job_rps:>10.1} round-trips/sec");
    println!(
        "recovery replay:    {:>10.1} ms ({ASYNC_JOBS} jobs)",
        replay_elapsed.as_secs_f64() * 1e3
    );
    println!("cache hits {hits} / misses {misses}, {trials} trials simulated");
    println!("cluster 1 worker:   {cluster_one_tps:>10.0} trials/sec");
    println!("cluster 3 workers:  {cluster_three_tps:>10.0} trials/sec");
    println!(
        "requeue recovery:   {:>10.1} ms (one dead worker)",
        requeue_recovery * 1e3
    );

    let report = Json::object([
        (
            "mode",
            Json::from(if binary.is_some() {
                "subprocess"
            } else {
                "in_process"
            }),
        ),
        ("cold_jobs", Json::from(COLD_JOBS)),
        ("cold_requests_per_sec", Json::from(cold_rps)),
        ("hit_jobs", Json::from(HIT_JOBS)),
        ("hit_requests_per_sec", Json::from(hit_rps)),
        ("concurrent_clients", Json::from(CONCURRENT_CLIENTS)),
        (
            "concurrent_hit_requests_per_sec",
            Json::from(concurrent_rps),
        ),
        ("async_jobs", Json::from(ASYNC_JOBS)),
        ("job_round_trips_per_sec", Json::from(job_rps)),
        (
            "recovery_replay_seconds",
            Json::from(replay_elapsed.as_secs_f64()),
        ),
        ("jobs_recovered", Json::from(jobs_recovered)),
        ("cache_hits", Json::from(hits)),
        ("cache_misses", Json::from(misses)),
        ("cache_hit_rate", Json::from(hits / (hits + misses))),
        ("trials_total", Json::from(trials)),
        ("simulate_requests_total", Json::from(simulate_count)),
        ("cluster_batch_trials", Json::from(CLUSTER_TRIALS * 12)),
        (
            "cluster_1worker_trials_per_sec",
            Json::from(cluster_one_tps),
        ),
        (
            "cluster_3workers_trials_per_sec",
            Json::from(cluster_three_tps),
        ),
        (
            "cluster_requeue_recovery_seconds",
            Json::from(requeue_recovery),
        ),
    ]);
    std::fs::write("BENCH_serve.json", report.to_pretty()).expect("write BENCH_serve.json");
    println!("BENCH_serve.json written");
}
