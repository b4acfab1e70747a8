//! Cluster conformance and chaos tests.
//!
//! Conformance: a coordinator sharding a job across 1, 2, or 3 workers
//! must answer the byte-identical body a single-node server produces,
//! for every partitionable job kind (simulate / resilience / explore).
//!
//! Chaos: real `tauhls serve` subprocesses. SIGKILL a worker mid-sweep
//! and the coordinator requeues its partitions and still converges to
//! the single-node bytes; SIGKILL the *coordinator* mid-sweep and a
//! restart over the same journal replays the job to the same bytes.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use tauhls::serve::{client, ServeConfig, Server};

const TIMEOUT: Duration = Duration::from_secs(120);

/// The three partitionable job kinds, with enough units each that every
/// worker count in 1..=3 produces a genuine multi-part split.
const SPECS: [(&str, &str); 3] = [
    (
        "/v1/simulate",
        r#"{"dfg":"fir5","trials":200,"p":[0.9,0.7,0.5,0.3],"seed":7}"#,
    ),
    (
        "/v1/resilience",
        r#"{"dfg":"fir3","trials":80,"p":0.7,"seed":5}"#,
    ),
    (
        "/v1/explore",
        r#"{"dfg":"fir3","max_muls":2,"max_adds":1,"trials":40,"p":[0.5],"seed":3}"#,
    ),
];

fn start_single() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        sim_threads: Some(1),
        ..ServeConfig::default()
    })
    .expect("bind single server")
}

fn write_peers(dir: &std::path::Path, addrs: &[String]) -> std::path::PathBuf {
    let path = dir.join("peers.json");
    let body = format!(
        "[{}]",
        addrs
            .iter()
            .map(|a| format!("{a:?}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    std::fs::write(&path, body).expect("write peers file");
    path
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tauhls-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn coordinator_merges_are_byte_identical_at_any_worker_count() {
    // Single-node baselines.
    let single = start_single();
    let single_addr = single.local_addr().to_string();
    let baselines: Vec<String> = SPECS
        .iter()
        .map(|(path, spec)| {
            let r = client::request(&single_addr, "POST", path, Some(spec), TIMEOUT)
                .expect("baseline response");
            assert_eq!(r.status, 200, "{path}: {}", r.body);
            r.body
        })
        .collect();
    single.shutdown();

    let dir = temp_dir("conformance");
    for worker_count in 1..=3usize {
        let workers: Vec<Server> = (0..worker_count).map(|_| start_single()).collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
        let coordinator = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            sim_threads: Some(1),
            workers_file: Some(write_peers(&dir, &addrs)),
            ..ServeConfig::default()
        })
        .expect("bind coordinator");
        let caddr = coordinator.local_addr().to_string();
        for ((path, spec), baseline) in SPECS.iter().zip(&baselines) {
            let r = client::request(&caddr, "POST", path, Some(spec), TIMEOUT)
                .expect("clustered response");
            assert_eq!(r.status, 200, "{path}@{worker_count}: {}", r.body);
            assert_eq!(
                &r.body, baseline,
                "{path} diverged from single-node bytes at {worker_count} workers"
            );
        }
        // The coordinator actually dispatched: its status reports the
        // coordinator role and its metrics count completed partitions.
        let status = client::request(&caddr, "GET", "/v1/status", None, TIMEOUT).expect("status");
        assert!(
            status.body.contains("\"role\": \"coordinator\""),
            "{}",
            status.body
        );
        let metrics = client::request(&caddr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
        let completed: u64 = metrics
            .body
            .lines()
            .find_map(|l| {
                l.strip_prefix("tauhls_serve_cluster_partitions_total{event=\"completed\"} ")
            })
            .expect("completed counter")
            .parse()
            .expect("numeric counter");
        assert!(
            completed > 0,
            "no partitions dispatched at {worker_count} workers:\n{}",
            metrics.body
        );
        coordinator.shutdown();
        for w in workers {
            w.shutdown();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn synchronous_cluster_requests_journal_no_partition_lines() {
    let dir = temp_dir("journal");
    let worker = start_single();
    let coordinator = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        sim_threads: Some(1),
        data_dir: Some(dir.join("data")),
        workers_file: Some(write_peers(&dir, &[worker.local_addr().to_string()])),
        ..ServeConfig::default()
    })
    .expect("bind coordinator");
    let caddr = coordinator.local_addr().to_string();
    let (path, spec) = SPECS[0];
    let r = client::request(&caddr, "POST", path, Some(spec), TIMEOUT).expect("simulate");
    assert_eq!(r.status, 200, "{}", r.body);
    let metrics = client::request(&caddr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
    assert!(
        !metrics
            .body
            .contains("tauhls_serve_cluster_partitions_total{event=\"completed\"} 0\n"),
        "the request never reached the worker:\n{}",
        metrics.body
    );
    coordinator.shutdown();
    worker.shutdown();
    let journal = std::fs::read_to_string(dir.join("data").join("jobs.journal")).expect("journal");
    for event in ["dispatch", "part_done", "part_requeue"] {
        assert!(
            !journal.contains(&format!("\"event\":\"{event}\"")),
            "{event} journalled:\n{journal}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn long_heartbeat_intervals_do_not_delay_shutdown() {
    let slow = Duration::from_secs(30);
    let coordinator = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        coordinator: true,
        heartbeat_interval: slow,
        ..ServeConfig::default()
    })
    .expect("bind coordinator");
    let caddr = coordinator.local_addr().to_string();
    let worker = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        worker_of: Some(caddr.clone()),
        heartbeat_interval: slow,
        ..ServeConfig::default()
    })
    .expect("bind worker");
    // Both background loops are asleep once the worker has registered.
    let waddr = worker.local_addr().to_string();
    let deadline = Instant::now() + TIMEOUT;
    while !client::request(&caddr, "GET", "/v1/status", None, TIMEOUT)
        .expect("status")
        .body
        .contains(&waddr)
    {
        assert!(Instant::now() < deadline, "worker never registered");
        thread::sleep(Duration::from_millis(20));
    }
    for (role, server) in [("worker", worker), ("coordinator", coordinator)] {
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "{role} shutdown took {took:?}"
        );
    }
}

fn spawn_serve(extra: &[&str]) -> (Child, String) {
    let mut args = vec!["serve", "--addr", "127.0.0.1:0", "--threads", "1"];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_tauhls"))
        .args(&args)
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

fn sigkill(child: &mut Child) {
    child.kill().expect("SIGKILL");
    let _ = child.wait();
}

fn sigterm(child: &mut Child) {
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    let _ = child.wait();
}

/// A sweep slow enough (in a debug build) that a kill a moment after
/// submission lands mid-flight, with enough units to split 3 ways.
const SLOW_SPEC: &str = r#"{"dfg":"ewf","trials":60000,"p":[0.9,0.8,0.7,0.6,0.5,0.4],"seed":11}"#;

#[test]
fn killing_a_worker_mid_sweep_requeues_and_converges_byte_identically() {
    let single = start_single();
    let single_addr = single.local_addr().to_string();
    let baseline = client::request(
        &single_addr,
        "POST",
        "/v1/simulate",
        Some(SLOW_SPEC),
        TIMEOUT,
    )
    .expect("baseline");
    assert_eq!(baseline.status, 200, "{}", baseline.body);
    single.shutdown();

    let (mut worker_a, addr_a) = spawn_serve(&[]);
    let (mut worker_b, addr_b) = spawn_serve(&[]);
    let dir = temp_dir("worker-chaos");
    let peers = write_peers(&dir, &[addr_a, addr_b]);
    let (mut coordinator, caddr) = spawn_serve(&[
        "--workers-file",
        peers.to_str().expect("utf-8 path"),
        "--heartbeat-ms",
        "200",
        "--partition-timeout-ms",
        "60000",
    ]);

    let job = {
        let caddr = caddr.clone();
        thread::spawn(move || {
            client::request(&caddr, "POST", "/v1/simulate", Some(SLOW_SPEC), TIMEOUT)
        })
    };
    // Let the dispatch fan out, then hard-kill one worker. Its
    // partitions requeue to the survivor (or run locally after the
    // attempts are exhausted) — either way the bytes cannot change.
    thread::sleep(Duration::from_millis(500));
    sigkill(&mut worker_a);

    let merged = job
        .join()
        .expect("client thread")
        .expect("clustered response");
    assert_eq!(merged.status, 200, "{}", merged.body);
    assert_eq!(
        merged.body, baseline.body,
        "worker loss changed the merged bytes"
    );

    // The loss was actually observed: the dead worker's partitions were
    // requeued (to the survivor or to a local fallback run).
    let metrics = client::request(&caddr, "GET", "/metrics", None, TIMEOUT).expect("metrics");
    let counter = |event: &str| -> u64 {
        metrics
            .body
            .lines()
            .find_map(|l| {
                l.strip_prefix(&format!(
                    "tauhls_serve_cluster_partitions_total{{event=\"{event}\"}} "
                ))
            })
            .expect("counter line")
            .parse()
            .expect("numeric counter")
    };
    assert!(
        counter("requeued") + counter("local") > 0,
        "kill -9 was never observed:\n{}",
        metrics.body
    );

    sigterm(&mut coordinator);
    sigkill(&mut worker_b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killing_the_coordinator_mid_sweep_recovers_to_the_same_bytes() {
    let single = start_single();
    let single_addr = single.local_addr().to_string();
    let baseline = client::request(
        &single_addr,
        "POST",
        "/v1/simulate",
        Some(SLOW_SPEC),
        TIMEOUT,
    )
    .expect("baseline");
    assert_eq!(baseline.status, 200, "{}", baseline.body);
    single.shutdown();

    let (mut worker_a, addr_a) = spawn_serve(&[]);
    let (mut worker_b, addr_b) = spawn_serve(&[]);
    let dir = temp_dir("coordinator-chaos");
    let peers = write_peers(&dir, &[addr_a, addr_b]);
    let data_dir = dir.join("data");
    let coordinator_args: Vec<String> = [
        "--workers-file",
        peers.to_str().expect("utf-8 path"),
        "--data-dir",
        data_dir.to_str().expect("utf-8 path"),
        "--job-workers",
        "1",
        "--heartbeat-ms",
        "200",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let arg_refs: Vec<&str> = coordinator_args.iter().map(String::as_str).collect();
    let (mut coordinator, caddr) = spawn_serve(&arg_refs);

    // Submit asynchronously so the job is journalled before it runs.
    let submission = format!(r#"{{"endpoint":"simulate","spec":{SLOW_SPEC}}}"#);
    let submitted =
        client::request(&caddr, "POST", "/v1/jobs", Some(&submission), TIMEOUT).expect("submit");
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    let job_id = submitted
        .header("location")
        .expect("Location header")
        .rsplit('/')
        .next()
        .expect("job id")
        .to_string();

    // Kill -9 the coordinator while the sweep is in flight.
    thread::sleep(Duration::from_millis(500));
    sigkill(&mut coordinator);

    // Restart over the same journal and workers file: the interrupted
    // job requeues and re-runs through the cluster.
    let (mut coordinator, caddr) = spawn_serve(&arg_refs);
    let deadline = Instant::now() + TIMEOUT;
    let body = loop {
        let poll = client::request(
            &caddr,
            "GET",
            &format!("/v1/jobs/{job_id}/result"),
            None,
            TIMEOUT,
        )
        .expect("poll result");
        match poll.status {
            200 => break poll.body,
            202 => {
                assert!(
                    Instant::now() < deadline,
                    "job never finished after restart"
                );
                thread::sleep(Duration::from_millis(100));
            }
            other => panic!("unexpected result status {other}: {}", poll.body),
        }
    };
    assert_eq!(
        body, baseline.body,
        "coordinator crash-recovery changed the job bytes"
    );

    sigterm(&mut coordinator);
    sigkill(&mut worker_a);
    sigkill(&mut worker_b);
    let _ = std::fs::remove_dir_all(&dir);
}
