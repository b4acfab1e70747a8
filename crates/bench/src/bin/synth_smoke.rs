//! Smoke benchmark for the synthesis endpoints: the perf-trajectory
//! datapoint for `/v1/synth` and the staged pipeline behind it.
//!
//! With a path argument it spawns that `tauhls` binary as a real server
//! process and checks the `tauhls call synth` round-trip; without one it
//! runs against an in-process [`Server`]. Either way it measures four
//! regimes — cold synthesis of new designs, encoding sweeps (new
//! responses for designs already synthesized once), response-cache
//! replays, and `/v1/explore` design-space sweeps — then scrapes
//! `/metrics` for the per-stage latency histograms, and writes
//! everything to `BENCH_synth.json`.
//!
//! CI runs this as the `synth-smoke` job; like `serve_smoke` it is a
//! regression canary plus a trend artifact, not a calibrated benchmark.
//!
//! Usage: `synth_smoke [path/to/tauhls]`

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tauhls_json::Json;
use tauhls_serve::{client, ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(120);
/// Benchmarks used for the cold pass — the cheap end of the paper suite,
/// so the job stays a smoke test even on a loaded CI runner.
const COLD_DFGS: [&str; 4] = ["fir3", "fir5", "iir2", "diffeq"];
/// Encodings swept per benchmark after the cold pass: each is a new
/// response, so the whole pipeline reruns.
const SWEEP_ENCODINGS: [&str; 2] = ["gray", "onehot"];
/// Replays of one warmed spec — pure response-cache path.
const HIT_JOBS: u64 = 200;
/// Design-space sweeps via `/v1/explore`; distinct seeds keep each one
/// cold through the batch engine.
const EXPLORE_JOBS: u64 = 3;

fn spec(dfg: &str, encoding: &str) -> String {
    format!(r#"{{"dfg":"{dfg}","encoding":"{encoding}"}}"#)
}

fn explore_spec(seed: u64) -> String {
    format!(
        r#"{{"dfg":"fir3","max_muls":2,"max_adds":1,"trials":400,"p":[0.9,0.5],"sd_ld":[0.75,1.0],"seed":{seed}}}"#
    )
}

enum Instance {
    Spawned(Child),
    InProcess(Server),
}

fn start(binary: Option<&str>) -> (Instance, String) {
    match binary {
        Some(bin) => {
            let mut child = Command::new(bin)
                .args(["serve", "--addr", "127.0.0.1:0", "--workers", "4"])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn tauhls serve");
            let mut banner = String::new();
            std::io::BufReader::new(child.stdout.take().expect("stdout piped"))
                .read_line(&mut banner)
                .expect("read banner");
            let addr = banner
                .trim()
                .strip_prefix("listening on ")
                .expect("banner format")
                .to_string();
            (Instance::Spawned(child), addr)
        }
        None => {
            let server = Server::start(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            })
            .expect("bind ephemeral port");
            let addr = server.local_addr().to_string();
            (Instance::InProcess(server), addr)
        }
    }
}

fn stop(instance: Instance) {
    match instance {
        Instance::Spawned(mut child) => {
            let killed = Command::new("kill")
                .args(["-TERM", &child.id().to_string()])
                .status()
                .expect("send SIGTERM");
            assert!(killed.success(), "kill -TERM failed");
            let status = child.wait().expect("wait for server");
            assert!(status.success(), "server exited non-zero: {status:?}");
        }
        Instance::InProcess(server) => server.shutdown(),
    }
}

/// The smoke half of the job: `tauhls call synth` (and `area`) must
/// round-trip against a live server.
fn drive_with_cli(bin: &str, addr: &str) {
    let dir = std::env::temp_dir().join("tauhls-synth-smoke");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec("fir3", "binary")).expect("write spec file");
    let spec_arg = spec_path.to_str().expect("utf-8 temp path");
    for args in [
        vec!["call", "synth", spec_arg, "--addr", addr],
        vec!["call", "area", spec_arg, "--addr", addr],
    ] {
        let out = Command::new(bin)
            .args(&args)
            .output()
            .expect("run tauhls call");
        assert!(
            out.status.success(),
            "tauhls {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    println!("tauhls call synth/area: ok");
}

fn synth(addr: &str, body: &str, want_cache: &str) {
    let r =
        client::request(addr, "POST", "/v1/synth", Some(body), TIMEOUT).expect("synth response");
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.header("x-cache"), Some(want_cache), "for spec {body}");
}

/// Reads one sample value; `prefix` must include everything up to the
/// value, e.g. `"tauhls_serve_stage_seconds_count{stage=\"bind\"} "`.
fn metric(text: &str, prefix: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(prefix)?.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("metric {prefix:?} missing from /metrics"))
}

fn main() {
    let binary = std::env::args().nth(1);
    let (instance, addr) = start(binary.as_deref());
    println!("server at {addr}");
    if let Some(bin) = binary.as_deref() {
        drive_with_cli(bin, &addr);
    }
    // The CLI warmup above already synthesized fir3/binary in subprocess
    // mode, so its replay below starts from a warm response cache.
    let warmed = binary.is_some();

    // Cold pass: distinct benchmarks under the default encoding — every
    // stage of the pipeline executes.
    let cold_start = Instant::now();
    for (i, dfg) in COLD_DFGS.iter().enumerate() {
        let expect = if warmed && i == 0 { "hit" } else { "miss" };
        synth(&addr, &spec(dfg, "binary"), expect);
    }
    let cold_elapsed = cold_start.elapsed();

    // Sweep pass: same benchmarks, new encodings. Each is a response-cache
    // miss, so every stage executes again.
    let sweep_start = Instant::now();
    for dfg in COLD_DFGS {
        for encoding in SWEEP_ENCODINGS {
            synth(&addr, &spec(dfg, encoding), "miss");
        }
    }
    let sweep_elapsed = sweep_start.elapsed();

    // Hot pass: one warmed spec replayed — pure response-cache path.
    let hit_start = Instant::now();
    for _ in 0..HIT_JOBS {
        synth(&addr, &spec("fir3", "binary"), "hit");
    }
    let hit_elapsed = hit_start.elapsed();

    // Explore pass: the Pareto design-space sweep. Each request fans a
    // small allocation x encoding x (p, sd_ld) grid through the batch
    // engine, so this is the heaviest per-request path the server has.
    let explore_start = Instant::now();
    for seed in 0..EXPLORE_JOBS {
        let body = explore_spec(seed);
        let r = client::request(&addr, "POST", "/v1/explore", Some(&body), TIMEOUT)
            .expect("explore response");
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.header("x-cache"), Some("miss"), "for spec {body}");
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

    let cold_sps = COLD_DFGS.len() as f64 / cold_elapsed.as_secs_f64();
    let sweep_jobs = (COLD_DFGS.len() * SWEEP_ENCODINGS.len()) as f64;
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
        ("cold_jobs", Json::from(COLD_DFGS.len())),
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
