//! The server harness of the service smoke benchmarks (`serve_smoke`,
//! `synth_smoke`): start a `tauhls serve` node, drive it, stop it.
//!
//! A node is either a spawned `tauhls` binary (the real process, stopped
//! with SIGTERM and required to exit 0) or an in-process [`Server`]
//! (handy for local iteration without a release build).

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use tauhls_serve::client::{self, Response};
use tauhls_serve::{ServeConfig, Server};

/// Per-request timeout of every harness call.
pub const TIMEOUT: Duration = Duration::from_secs(120);

/// A running server node.
pub enum Instance {
    /// A `tauhls serve` child process.
    Spawned(Child),
    /// A server inside this process.
    InProcess(Server),
}

/// Starts a node on an ephemeral loopback port and answers it with its
/// address. With `binary`, spawns `binary serve --addr 127.0.0.1:0
/// <flags>` and reads the address from its `listening on` banner;
/// without, starts `config` in process. `flags` and `config` should
/// describe the same server.
pub fn start(binary: Option<&str>, flags: &[&str], config: ServeConfig) -> (Instance, String) {
    match binary {
        Some(bin) => {
            let mut child = Command::new(bin)
                .args(["serve", "--addr", "127.0.0.1:0"])
                .args(flags)
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
                ..config
            })
            .expect("bind ephemeral port");
            let addr = server.local_addr().to_string();
            (Instance::InProcess(server), addr)
        }
    }
}

/// Stops a node gracefully: SIGTERM for a child (which must exit 0),
/// [`Server::shutdown`] in process.
pub fn stop(instance: Instance) {
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

/// The smoke half of a bench: each `tauhls call <endpoint>` must
/// round-trip against the live server at `addr`. Job endpoints are
/// called with `spec` (written to a file under `tag` in the temp dir);
/// `healthz`, `metrics` and `status` take no spec.
pub fn cli_round_trip(bin: &str, addr: &str, tag: &str, spec: &str, endpoints: &[&str]) {
    let dir = std::env::temp_dir().join(tag);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec).expect("write spec file");
    let spec_arg = spec_path.to_str().expect("utf-8 temp path");
    for endpoint in endpoints {
        let mut args = vec!["call", endpoint];
        if !matches!(*endpoint, "healthz" | "metrics" | "status") {
            args.push(spec_arg);
        }
        args.extend(["--addr", addr]);
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
    println!("tauhls call {}: ok", endpoints.join("/"));
}

/// POSTs `body` to `path`, requires a `200` whose `X-Cache` header is
/// `want_cache` (`"hit"` or `"miss"`), and answers the response.
pub fn post(addr: &str, path: &str, body: &str, want_cache: &str) -> Response {
    let r = client::request(addr, "POST", path, Some(body), TIMEOUT).expect("response");
    assert_eq!(r.status, 200, "{path}: {}", r.body);
    assert_eq!(
        r.header("x-cache"),
        Some(want_cache),
        "{path} for spec {body}"
    );
    r
}

/// Reads one sample value from a `/metrics` scrape; `prefix` must
/// include everything up to the value, e.g.
/// `"tauhls_serve_stage_seconds_count{stage=\"bind\"} "`.
pub fn metric(text: &str, prefix: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(prefix)?.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("metric {prefix:?} missing from /metrics"))
}
