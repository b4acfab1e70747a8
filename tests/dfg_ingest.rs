//! End-to-end tests for first-class DFG ingestion: inline wire-format
//! graphs through the synchronous endpoints, the validator, the
//! design-space explorer (sync, async + kill -9 recovery, CLI), and the
//! live-status endpoint.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use tauhls::serve::{client, ServeConfig, Server};
use tauhls_json::Json;

const TIMEOUT: Duration = Duration::from_secs(120);

/// A compact wire document used across the suite: a two-op multiply-add
/// with three inputs (`r = a*x + b`).
const AXPY_WIRE: &str = r#"{"nodes":[{"id":"a","op":"input"},{"id":"x","op":"input"},{"id":"b","op":"input"},{"id":"m","op":"mul"},{"id":"s","op":"add"}],"edges":[{"from":"a","to":"m","port":0},{"from":"x","to":"m","port":1},{"from":"m","to":"s","port":0},{"from":"b","to":"s","port":1}],"outputs":{"r":"s"},"params":{"name":"axpy"}}"#;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tauhls-dfg-it-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start_server(sim_threads: Option<usize>) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        sim_threads,
        job_workers: 1,
        job_backoff_base: Duration::from_millis(5),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn post(addr: &str, path: &str, body: &str) -> client::Response {
    client::request(addr, "POST", path, Some(body), TIMEOUT).expect("response")
}

fn job_state(addr: &str, id: &str) -> String {
    let r = client::request(addr, "GET", &format!("/v1/jobs/{id}"), None, TIMEOUT)
        .expect("status response");
    assert_eq!(r.status, 200, "{}", r.body);
    Json::parse(&r.body)
        .ok()
        .and_then(|j| j.get("state").and_then(|v| v.as_str().map(String::from)))
        .unwrap_or_else(|| panic!("status body has no state: {}", r.body))
}

fn wait_for_result(addr: &str, id: &str) -> String {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let state = job_state(addr, id);
        match state.as_str() {
            "done" => break,
            "failed" | "cancelled" => panic!("job {id} ended {state}"),
            _ => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
    let r = client::request(addr, "GET", &format!("/v1/jobs/{id}/result"), None, TIMEOUT)
        .expect("result response");
    assert_eq!(r.status, 200, "{}", r.body);
    r.body
}

fn spawn_serve(data_dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tauhls"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--threads",
            "1",
            "--job-workers",
            "1",
            "--backoff-ms",
            "5",
            "--data-dir",
            data_dir.to_str().expect("utf-8 temp path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tauhls serve");
    let mut lines = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    lines.read_line(&mut line).expect("read banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("banner format")
        .to_string();
    (child, addr)
}

#[test]
fn inline_wire_dfgs_run_on_every_sync_endpoint_and_canonicalize() {
    let server = start_server(Some(1));
    let addr = server.local_addr().to_string();

    // Simulate with an inline graph: 200, and the canonical echo holds
    // the canonical wire object, not a benchmark name.
    let sim = post(
        &addr,
        "/v1/simulate",
        &format!(r#"{{"dfg":{AXPY_WIRE},"trials":50,"p":[0.5],"seed":9}}"#),
    );
    assert_eq!(sim.status, 200, "{}", sim.body);
    assert!(sim.body.contains("\"nodes\""), "{}", sim.body);

    // A semantically identical document with respelled key order is the
    // same job: second request is a byte-identical cache hit.
    let respelled = AXPY_WIRE.replace(r#"{"id":"a","op":"input"}"#, r#"{"op":"input","id":"a"}"#);
    assert_ne!(respelled, AXPY_WIRE);
    let hit = post(
        &addr,
        "/v1/simulate",
        &format!(r#"{{"dfg":{respelled},"trials":50,"p":[0.5],"seed":9}}"#),
    );
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-cache"), Some("hit"), "{}", hit.body);
    assert_eq!(hit.body, sim.body);

    // Synth and area accept the same inline graph.
    let synth = post(&addr, "/v1/synth", &format!(r#"{{"dfg":{AXPY_WIRE}}}"#));
    assert_eq!(synth.status, 200, "{}", synth.body);
    assert!(synth.body.contains("\"controllers\""), "{}", synth.body);
    let area = post(
        &addr,
        "/v1/area",
        &format!(r#"{{"dfg":{AXPY_WIRE},"width":16}}"#),
    );
    assert_eq!(area.status, 200, "{}", area.body);

    // A hostile graph (dangling edge) is a typed 400 with a byte offset.
    let bad = AXPY_WIRE.replace(r#""from":"m","to":"s""#, r#""from":"ghost","to":"s""#);
    let rejected = post(
        &addr,
        "/v1/simulate",
        &format!(r#"{{"dfg":{bad},"trials":5}}"#),
    );
    assert_eq!(rejected.status, 400, "{}", rejected.body);
    assert!(rejected.body.contains("byte "), "{}", rejected.body);
    assert!(rejected.body.contains("ghost"), "{}", rejected.body);

    server.shutdown();
}

#[test]
fn dfg_validate_and_status_round_trip_over_http() {
    let server = start_server(Some(1));
    let addr = server.local_addr().to_string();

    let ok = post(&addr, "/v1/dfg/validate", AXPY_WIRE);
    assert_eq!(ok.status, 200, "{}", ok.body);
    let doc = Json::parse(&ok.body).expect("validate body is JSON");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        doc.get("name").and_then(|v| v.as_str()),
        Some("axpy"),
        "{}",
        ok.body
    );
    let hash = doc
        .get("hash")
        .and_then(|v| v.as_str())
        .expect("hash present");
    assert_eq!(hash.len(), 16, "{hash}");

    // Validation is pure: it never caches, and the canonical form it
    // answers re-validates to the same hash.
    let canonical = doc.get("canonical").expect("canonical echo").to_compact();
    let again = post(&addr, "/v1/dfg/validate", &canonical);
    assert_eq!(again.status, 200, "{}", again.body);
    let again_doc = Json::parse(&again.body).expect("JSON");
    assert_eq!(
        again_doc.get("hash").and_then(|v| v.as_str()),
        Some(hash),
        "canonical form drifted"
    );

    let cyclic = r#"{"nodes":[{"id":"p","op":"add"},{"id":"q","op":"add"}],"edges":[{"from":"p","to":"q","port":0},{"from":"q","to":"p","port":0},{"from":"p","to":"q","port":1},{"from":"q","to":"p","port":1}],"outputs":{"y":"p"}}"#;
    let rejected = post(&addr, "/v1/dfg/validate", cyclic);
    assert_eq!(rejected.status, 400, "{}", rejected.body);
    assert!(rejected.body.contains("byte "), "{}", rejected.body);

    // The status endpoint reports the live service as JSON.
    let status = client::request(&addr, "GET", "/v1/status", None, TIMEOUT).expect("status");
    assert_eq!(status.status, 200, "{}", status.body);
    let snap = Json::parse(&status.body).expect("status body is JSON");
    assert!(snap.get("uptime_seconds").is_some(), "{}", status.body);
    assert!(snap.get("jobs").is_some(), "{}", status.body);
    assert!(snap.get("events").is_some(), "{}", status.body);
    // dfg_validate traffic shows up in the metrics endpoint list.
    let metrics = client::request(&addr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
    assert!(
        metrics
            .body
            .contains("tauhls_serve_requests_total{endpoint=\"dfg_validate\"} 3"),
        "{}",
        metrics.body
    );
    server.shutdown();
}

#[test]
fn explore_frontier_is_thread_count_invariant_and_kill9_durable() {
    let explore_spec = format!(
        r#"{{"dfg":{AXPY_WIRE},"max_muls":2,"max_adds":1,"trials":60000,"p":[0.9,0.5],"sd_ld":[0.75,1.0],"seed":3}}"#
    );

    // Reference frontier from a single-threaded in-process server.
    let server = start_server(Some(1));
    let addr = server.local_addr().to_string();
    let serial = post(&addr, "/v1/dfg/explore", &explore_spec);
    assert_eq!(serial.status, 200, "{}", serial.body);
    assert!(serial.body.contains("\"frontier\""), "{}", serial.body);
    server.shutdown();

    // Same spec on a 4-thread server: byte-identical body.
    let server = start_server(Some(4));
    let addr = server.local_addr().to_string();
    let threaded = post(&addr, "/v1/explore", &explore_spec);
    assert_eq!(threaded.status, 200);
    assert_eq!(
        threaded.body, serial.body,
        "explore frontier depends on the thread count"
    );
    server.shutdown();

    // Durable async explore: submit to a real subprocess, SIGKILL it
    // mid-run, restart on the same data dir, and the recovered frontier
    // is byte-identical to the synchronous reference.
    let dir = TempDir::new("explore-sigkill");
    let (mut child, addr) = spawn_serve(dir.path());
    let submit_body = format!(r#"{{"endpoint":"explore","spec":{explore_spec}}}"#);
    let submitted =
        client::request_with(&addr, "POST", "/v1/jobs", &[], Some(&submit_body), TIMEOUT)
            .expect("submit response");
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let id = Json::parse(&submitted.body)
        .ok()
        .and_then(|j| j.get("job").and_then(|v| v.as_str().map(String::from)))
        .expect("submit body has job id");

    let deadline = Instant::now() + TIMEOUT;
    while job_state(&addr, &id) != "running" {
        assert!(Instant::now() < deadline, "explore job never started");
        thread::sleep(Duration::from_millis(10));
    }
    let killed = Command::new("kill")
        .args(["-9", &child.id().to_string()])
        .status()
        .expect("send SIGKILL");
    assert!(killed.success());
    child.wait().expect("reap killed server");

    let (mut child, addr) = spawn_serve(dir.path());
    let recovered = wait_for_result(&addr, &id);
    assert_eq!(
        recovered, serial.body,
        "recovered explore frontier diverged from the synchronous run"
    );
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    let _ = child.wait();
}

#[test]
fn explore_cli_matches_the_service_and_dfg_verbs_work() {
    let dir = TempDir::new("cli");
    let wire_file = dir.path().join("axpy.json");
    std::fs::write(&wire_file, AXPY_WIRE).expect("write wire file");
    let wire_path = wire_file.to_str().expect("utf-8 path");

    // `tauhls explore` locally computes the same body the service
    // answers for the same knobs.
    let output = Command::new(env!("CARGO_BIN_EXE_tauhls"))
        .args([
            "explore",
            wire_path,
            "--max-muls",
            "2",
            "--max-adds",
            "1",
            "--trials",
            "200",
            "--p",
            "0.5",
            "--threads",
            "1",
        ])
        .output()
        .expect("run tauhls explore");
    assert!(
        output.status.success(),
        "explore failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let printed = String::from_utf8(output.stdout).expect("utf-8 explore output");

    let server = start_server(Some(2));
    let addr = server.local_addr().to_string();
    let served = post(
        &addr,
        "/v1/explore",
        &format!(r#"{{"dfg":{AXPY_WIRE},"max_muls":2,"max_adds":1,"trials":200,"p":[0.5]}}"#),
    );
    assert_eq!(served.status, 200, "{}", served.body);
    // The printout is the body and one newline: no trailing blank line.
    assert_eq!(
        printed,
        format!("{}\n", served.body.trim_end()),
        "CLI explore diverged from the service"
    );
    server.shutdown();

    // `tauhls dfg validate` prints the summary with the content hash.
    let output = Command::new(env!("CARGO_BIN_EXE_tauhls"))
        .args(["dfg", "validate", wire_path])
        .output()
        .expect("run tauhls dfg validate");
    assert!(output.status.success());
    let summary = String::from_utf8(output.stdout).expect("utf-8 summary");
    assert!(summary.contains("\"axpy\""), "{summary}");
    assert!(summary.contains("\"hash\""), "{summary}");

    // `tauhls dfg dot` renders Graphviz from the wire document.
    let output = Command::new(env!("CARGO_BIN_EXE_tauhls"))
        .args(["dfg", "dot", wire_path])
        .output()
        .expect("run tauhls dfg dot");
    assert!(output.status.success());
    let dot = String::from_utf8(output.stdout).expect("utf-8 dot");
    assert!(dot.starts_with("digraph \"axpy\""), "{dot}");
    assert!(dot.contains("->"), "{dot}");

    // `tauhls dfg convert` round-trips wire -> text -> wire.
    let output = Command::new(env!("CARGO_BIN_EXE_tauhls"))
        .args(["dfg", "convert", wire_path])
        .output()
        .expect("run tauhls dfg convert");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).expect("utf-8 text form");
    assert!(text.contains("input a"), "{text}");
    let text_file = dir.path().join("axpy.dfg");
    std::fs::write(&text_file, &text).expect("write text form");
    let output = Command::new(env!("CARGO_BIN_EXE_tauhls"))
        .args(["dfg", "convert", text_file.to_str().expect("utf-8 path")])
        .output()
        .expect("run tauhls dfg convert back");
    assert!(output.status.success());
    let back = String::from_utf8(output.stdout).expect("utf-8 wire form");
    assert!(back.trim_start().starts_with('{'), "{back}");
    assert!(back.contains("\"nodes\""), "{back}");

    // A corrupt file reports the byte-offset diagnostic on stderr.
    let bad_file = dir.path().join("bad.json");
    std::fs::write(&bad_file, r#"{"nodes":[{"id":"a","op":"warp"}]}"#).expect("write bad file");
    let output = Command::new(env!("CARGO_BIN_EXE_tauhls"))
        .args(["dfg", "validate", bad_file.to_str().expect("utf-8 path")])
        .output()
        .expect("run tauhls dfg validate on bad input");
    assert!(!output.status.success());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("byte "), "{err}");
}
