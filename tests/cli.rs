//! Error-path tests for the `tauhls` binary: every misuse must exit
//! non-zero with a diagnostic on stderr — and never a panic backtrace.

use std::path::Path;
use std::process::{Command, Output};
use tauhls::dfg::{benchmarks, dfg_to_text};

mod oversized;

fn tauhls(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tauhls"))
        .args(args)
        .output()
        .expect("spawn tauhls")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_graceful_failure(out: &Output, needle: &str) {
    let stderr = stderr_of(out);
    assert!(!out.status.success(), "expected failure, got: {stderr}");
    assert!(
        stderr.contains(needle),
        "stderr should mention {needle:?}, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked at") && !stderr.contains("RUST_BACKTRACE"),
        "CLI leaked a panic backtrace: {stderr}"
    );
}

fn example_dfg() -> &'static str {
    let p = "examples/dfg/axpy.dfg";
    assert!(Path::new(p).exists(), "run from the workspace root");
    p
}

/// A per-process scratch directory: concurrent test invocations (e.g.
/// `cargo test` and `cargo test --workspace` side by side) must not
/// truncate each other's fixture files mid-read.
fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tauhls-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_arguments_prints_usage() {
    let out = tauhls(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert_graceful_failure(&out, "usage:");
}

#[test]
fn bad_subcommand_prints_usage() {
    let out = tauhls(&["frobnicate", example_dfg()]);
    assert_eq!(out.status.code(), Some(2));
    assert_graceful_failure(&out, "usage:");
}

#[test]
fn missing_dfg_file_reports_path() {
    let out = tauhls(&["simulate", "/nonexistent/missing.dfg"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "/nonexistent/missing.dfg");
}

#[test]
fn malformed_dfg_reports_parse_error_with_line() {
    let path = scratch_dir().join("broken.dfg");
    std::fs::write(&path, "dfg broken\nop a = frob 1 2\n").unwrap();
    let out = tauhls(&["synth", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "line 2");
}

#[test]
fn bad_option_values_print_usage() {
    for args in [
        ["simulate", "--trials", "many"],
        ["simulate", "--p", "0.9,oops"],
    ] {
        let out = tauhls(&[args[0], example_dfg(), args[1], args[2]]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_graceful_failure(&out, "error:");
    }
    // A value that parses but that the spec rejects is a spec error.
    let out = tauhls(&["simulate", example_dfg(), "--binding", "sideways"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "'binding' must be");
}

#[test]
fn simulate_reports_all_four_styles() {
    let out = tauhls(&[
        "simulate",
        example_dfg(),
        "--trials",
        "40",
        "--threads",
        "2",
        "--skew",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    for key in ["LT_TAU", "LT_DIST", "LT_CENT", "LT_ELAS"] {
        assert!(text.contains(key), "simulate output missing {key}: {text}");
    }
    assert!(
        text.contains("s=2"),
        "simulate output missing the elastic spec: {text}"
    );
}

/// The pinned `simulate` run: its stdout is [`SIMULATE_PIN`].
fn simulate_pinned(dfg: &str) -> Output {
    tauhls(&[
        "simulate",
        dfg,
        "--trials",
        "40",
        "--seed",
        "3",
        "--threads",
        "2",
        "--skew",
        "2",
    ])
}

const SIMULATE_PIN: &str = "\
clock 15 ns, 40 coupled trials at P = [0.9, 0.7, 0.5]
LT_TAU  (synchronized) : [45][49.9, 57.0, 63.4][75]
LT_DIST (distributed)  : [45][49.5, 56.2, 62.6][75]
LT_CENT (centralized)  : [45][49.5, 56.2, 62.6][75]
LT_ELAS (elastic s=2,l=1) : [60][109.1, 122.6, 127.1][270]
  P = 0.9: +0.8% enhancement
  P = 0.7: +1.3% enhancement
  P = 0.5: +1.2% enhancement
";

#[test]
fn simulate_stdout_is_pinned() {
    let out = simulate_pinned(example_dfg());
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout), SIMULATE_PIN);
}

#[test]
fn simulate_on_the_wire_twin_prints_the_same_bytes() {
    let out = tauhls(&["dfg", "convert", example_dfg()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let wire = scratch_dir().join("axpy-twin.json");
    std::fs::write(&wire, &out.stdout).unwrap();
    let out = simulate_pinned(wire.to_str().unwrap());
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout), SIMULATE_PIN);
}

#[test]
fn verilog_stdout_is_pinned() {
    // Exact bytes: the top module declares its internal wires in name
    // order, so every run prints the same text.
    let out = tauhls(&["verilog", example_dfg()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("pins/axpy.v")
    );
}

#[test]
fn dot_stdout_is_pinned() {
    let out = tauhls(&["dot", example_dfg()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("pins/axpy.dot")
    );
}

#[test]
fn resilience_stdout_is_pinned_at_the_default_p() {
    let args = [
        "resilience",
        example_dfg(),
        "--trials",
        "24",
        "--seed",
        "11",
        "--threads",
        "1",
    ];
    let out = tauhls(&args);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("pins/axpy-resilience.json")
    );
    // The documented CLI default is P = 0.9.
    let explicit = tauhls(&[&args[..], &["--p", "0.9"]].concat());
    assert!(explicit.status.success(), "{}", stderr_of(&explicit));
    assert_eq!(explicit.stdout, out.stdout);
}

#[test]
fn report_stdout_is_pinned() {
    let out = tauhls(&["report", example_dfg()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let expected = "\
system area (16-bit datapath, GE):
  control               251 (com 141 + seq 110)
  units                5392
  completion gen        320
  registers             704 (2 x 16 bits)
  total                6667 (control fraction 3.8%)
";
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn report_honours_the_requested_binding() {
    let path = scratch_dir().join("diffeq-report.dfg");
    std::fs::write(&path, dfg_to_text(&benchmarks::diffeq())).unwrap();
    let report = |binding: &str| {
        let out = tauhls(&["report", path.to_str().unwrap(), "--binding", binding]);
        assert!(out.status.success(), "{}", stderr_of(&out));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let chains = report("chains");
    // The control line matches `synth --binding chains` (583 GE total).
    assert!(
        chains.contains("  control               583 (com 341 + seq 242)\n"),
        "{chains}"
    );
    assert_ne!(chains, report("left-edge"));
}

#[test]
fn table2_runs_builtin_suite_with_cent_column() {
    let out = tauhls(&["table2", "--trials", "20", "--seed", "3", "--threads", "2"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    for key in ["LT_TAU", "LT_DIST", "LT_CENT", "fir5", "ar_lattice4"] {
        assert!(text.contains(key), "table2 output missing {key}: {text}");
    }
    // Bad options still fail gracefully without a DFG argument.
    let bad = tauhls(&["table2", "--trials", "many"]);
    assert_eq!(bad.status.code(), Some(2));
    assert_graceful_failure(&bad, "error:");
}

#[test]
fn resilience_misuse_fails_cleanly() {
    let out = tauhls(&["resilience", example_dfg(), "--trials", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "'trials' must be in 1..=1000000, got 0");

    let out = tauhls(&["resilience", example_dfg(), "--p", "1.5"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "'p' must be a probability in [0, 1], got 1.5");

    // The sweep runs at one P: a list is an error, not its first value.
    let out = tauhls(&["resilience", example_dfg(), "--p", "0.9,0.5"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "'p' must be a number");

    // --styles must keep the distributed engine (and parse at all).
    let out = tauhls(&["resilience", example_dfg(), "--styles", "cent,elastic"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "must include 'dist'");
}

#[test]
fn simulate_misuse_fails_cleanly() {
    for (flag, value, needle) in [
        ("--p", "1.5", "'p' entries must be in [0, 1], got 1.5"),
        ("--p", "nan", "'p' entries must be in [0, 1], got NaN"),
        ("--trials", "0", "'trials' must be in 1..=1000000, got 0"),
    ] {
        let out = tauhls(&["simulate", example_dfg(), flag, value]);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        assert_graceful_failure(&out, needle);
    }
}

#[test]
fn resilience_styles_filter_drops_the_unselected_columns() {
    let out = tauhls(&[
        "resilience",
        example_dfg(),
        "--trials",
        "24",
        "--seed",
        "11",
        "--styles",
        "dist,elastic",
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("elastic_survived"),
        "elastic columns missing: {text}"
    );
    assert!(
        text.contains("\"cent_agreement\": 0"),
        "cent leg should be gated off: {text}"
    );
}

#[test]
fn synth_misuse_fails_with_one_line_messages() {
    // Allocation cannot cover the graph: the staged pipeline rejects it
    // as a typed error, not a panic.
    let out = tauhls(&["synth", example_dfg(), "--muls", "0"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "allocation lacks a unit");

    // Malformed spec file: parser diagnostic with a line number.
    let dir = scratch_dir();
    let bad = dir.join("bad-synth.dfg");
    std::fs::write(&bad, "dfg bad\ninput a\nop x = mul a\n").unwrap();
    let out = tauhls(&["synth", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "line 3");

    // A graph with no operations is an invalid request, not a crash, on
    // every subcommand that synthesizes or binds it.
    let empty = dir.join("empty-synth.dfg");
    std::fs::write(&empty, "dfg hollow\ninput a\n").unwrap();
    for cmd in ["synth", "report", "simulate", "resilience"] {
        let mut args = vec![cmd, empty.to_str().unwrap()];
        if matches!(cmd, "simulate" | "resilience") {
            args.extend(["--trials", "10"]);
        }
        let out = tauhls(&args);
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        assert_graceful_failure(&out, "no operations");
    }
}

#[test]
fn oversized_controllers_exit_1_naming_the_limit() {
    // A controller wider than the 64 cover variables is a typed error on
    // every subcommand that synthesizes logic, never a panic (exit 101).
    let dir = scratch_dir();
    let wide = dir.join("wide.dfg");
    std::fs::write(&wide, oversized::wide_dfg()).unwrap();
    let chain = dir.join("add-chain.dfg");
    std::fs::write(&chain, oversized::add_chain_dfg()).unwrap();
    let (wide, chain) = (wide.to_str().unwrap(), chain.to_str().unwrap());
    for args in [
        vec!["synth", wide, "--muls", "8", "--adds", "1"],
        vec![
            "synth",
            wide,
            "--muls",
            "8",
            "--adds",
            "1",
            "--encoding",
            "gray",
        ],
        vec!["report", wide, "--muls", "8", "--adds", "1"],
        vec!["verilog", wide, "--muls", "8", "--adds", "1"],
        vec![
            "synth",
            chain,
            "--muls",
            "1",
            "--adds",
            "1",
            "--encoding",
            "onehot",
        ],
    ] {
        let out = tauhls(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_graceful_failure(&out, "too large to synthesize");
        assert_graceful_failure(&out, "limit 64");
    }
    // The same chain fits in binary encoding.
    let out = tauhls(&["synth", chain, "--muls", "1", "--adds", "1"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
}

#[test]
fn synth_json_emits_the_artifact_hash_chain() {
    let out = tauhls(&["synth", example_dfg(), "--json"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    for stage in [
        "canonicalize",
        "order",
        "bind",
        "controllers",
        "logic",
        "report",
    ] {
        assert!(
            text.contains(&format!("\"stage\": \"{stage}\"")),
            "missing stage {stage}: {text}"
        );
    }
    assert!(text.contains("\"controllers\""), "{text}");
    // The hash chain is deterministic: a second run (and a run with a
    // different thread count) reports identical artifact hashes.
    let extract_hashes = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("_hash"))
            .map(String::from)
            .collect()
    };
    let again = tauhls(&["synth", example_dfg(), "--json", "--threads", "4"]);
    assert!(again.status.success(), "{}", stderr_of(&again));
    assert_eq!(
        extract_hashes(&text),
        extract_hashes(&String::from_utf8_lossy(&again.stdout)),
        "artifact hashes must not depend on run or thread count"
    );
}

#[test]
fn call_misuse_fails_with_one_line_messages() {
    let out = tauhls(&["call"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "call needs an endpoint");

    let out = tauhls(&["call", "bogus"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "unknown endpoint 'bogus'");

    let out = tauhls(&["call", "healthz", "--addr"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "missing value for --addr");

    let out = tauhls(&["call", "simulate", "a.json", "b.json", "extra"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "too many arguments");

    let out = tauhls(&["call", "simulate", "/nonexistent/spec.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "/nonexistent/spec.json");

    // Nothing listening: connection refused, one line, no backtrace.
    let out = tauhls(&["call", "healthz", "--addr", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "connect 127.0.0.1:1");
}

#[test]
fn serve_misuse_fails_with_one_line_messages() {
    let out = tauhls(&["serve", "--workers", "many"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "--workers");

    let out = tauhls(&["serve", "--wat", "1"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "unknown serve option --wat");

    let out = tauhls(&["serve", "--addr", "not-an-address"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "cannot start server");

    // A cache budget whose byte count overflows is rejected, not wrapped.
    let out = tauhls(&["serve", "--cache-mb", "20000000000000"]);
    assert_eq!(out.status.code(), Some(1));
    assert_graceful_failure(&out, "--cache-mb: 20000000000000 MiB");
}

#[test]
fn resilience_happy_path_emits_deterministic_json() {
    let args = [
        "resilience",
        example_dfg(),
        "--trials",
        "24",
        "--seed",
        "11",
    ];
    let a = tauhls(&{
        let mut v = args.to_vec();
        v.extend(["--threads", "1"]);
        v
    });
    assert!(a.status.success(), "{}", stderr_of(&a));
    let b = tauhls(&{
        let mut v = args.to_vec();
        v.extend(["--threads", "4"]);
        v
    });
    assert!(b.status.success(), "{}", stderr_of(&b));
    let text = String::from_utf8_lossy(&a.stdout).into_owned();
    assert_eq!(
        text,
        String::from_utf8_lossy(&b.stdout),
        "thread count leaked into the report"
    );
    for key in [
        "stuck_short",
        "flip_state",
        "detection_rate",
        "survival_fraction",
    ] {
        assert!(text.contains(key), "report missing {key}: {text}");
    }
}

/// Flags the service would reject fail the CLI with the service's own
/// message, before any trial runs.
#[test]
fn cli_rejects_what_the_service_rejects_with_its_message() {
    use tauhls::core::jobspec::{Endpoint, JobSpec};
    use tauhls_json::Json;
    let malformed = scratch_dir().join("malformed.dfg");
    std::fs::write(&malformed, "@#$").unwrap();
    let rows = [
        (
            "simulate",
            Endpoint::Simulate,
            "--skew",
            "17",
            ("skew", Json::from(17u64)),
        ),
        (
            "simulate",
            Endpoint::Simulate,
            "--sync-latency",
            "17",
            ("sync_latency", Json::from(17u64)),
        ),
        (
            "simulate",
            Endpoint::Simulate,
            "--muls",
            "65",
            ("muls", Json::from(65u64)),
        ),
        (
            "simulate",
            Endpoint::Simulate,
            "--trials",
            "1000001",
            ("trials", Json::from(1_000_001u64)),
        ),
        (
            "table2",
            Endpoint::Table2,
            "--muls",
            "9",
            ("muls", Json::from(9u64)),
        ),
        (
            "simulate",
            Endpoint::Simulate,
            "--encoding",
            "gray",
            ("encoding", Json::from("gray")),
        ),
        (
            "dot",
            Endpoint::Synth,
            "--skew",
            "3",
            ("skew", Json::from(3u64)),
        ),
        (
            "simulate",
            Endpoint::Simulate,
            "--p",
            "0.5,0.5",
            ("p", Json::array([Json::Float(0.5), Json::Float(0.5)])),
        ),
        (
            "explore",
            Endpoint::Explore,
            "--sd-ld",
            "0.75,0.75",
            ("sd_ld", Json::array([Json::Float(0.75), Json::Float(0.75)])),
        ),
    ];
    // A malformed graph file is reported before the bad flag, as the
    // service reports a malformed `dfg_text` before a later field.
    let bad_graph = (
        (
            "simulate",
            Endpoint::Simulate,
            "--muls",
            "65",
            ("muls", Json::from(65u64)),
        ),
        malformed.to_str().unwrap(),
    );
    let cases = rows.into_iter().map(|row| (row, example_dfg()));
    for ((cmd, endpoint, flag, value, field), file) in cases.chain([bad_graph]) {
        let mut pairs = vec![field];
        let mut args = vec![cmd];
        if endpoint != Endpoint::Table2 {
            let dfg_text = std::fs::read_to_string(file).unwrap();
            pairs.push(("dfg_text", Json::from(dfg_text.as_str())));
            args.push(file);
        }
        let want = JobSpec::from_json(endpoint, &Json::object(pairs))
            .expect_err("the service rejects this spec")
            .to_string();
        args.extend([flag, value]);
        let out = tauhls(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_graceful_failure(&out, &want);
        assert_eq!(stderr_of(&out).lines().count(), 1, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A reader that has gone away (`tauhls ... | head`) ends the output
/// quietly: exit 0, no panic.
#[test]
fn closed_stdout_exits_quietly() {
    for args in [
        vec!["verilog", example_dfg()],
        vec!["dot", example_dfg()],
        vec!["dfg", "validate", example_dfg()],
        vec![
            "simulate",
            example_dfg(),
            "--trials",
            "20",
            "--threads",
            "1",
        ],
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_tauhls"))
            .args(&args)
            .stdout(writer)
            .output()
            .expect("spawn tauhls");
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    }
}

/// Asserts `out` is a failure with exit code 1, nothing on stdout and
/// exactly one stderr line, `error: {message}`.
fn assert_one_error_line(args: &[&str], out: &Output, message: &str) {
    assert_eq!(out.status.code(), Some(1), "{args:?}");
    assert_eq!(stderr_of(out), format!("error: {message}\n"), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

/// Every misuse of the client verbs that fails before (or instead of)
/// an HTTP exchange prints one pinned line and exits 1.
#[test]
fn service_verb_misuse_prints_one_pinned_line() {
    let bad_json = scratch_dir().join("not-json.json");
    std::fs::write(&bad_json, "{not json").unwrap();
    let bad_json = bad_json.to_str().unwrap();
    let refused = "connect 127.0.0.1:1: Connection refused (os error 111)";
    let missing = "/nonexistent/spec.json: No such file or directory (os error 2)";
    let not_json = format!("{bad_json}: invalid JSON: byte 1: expected a string object key");
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["jobs"],
            "jobs needs a verb (submit|status|result|cancel)",
        ),
        (
            vec!["jobs", "frob"],
            "unknown jobs verb 'frob' (submit|status|result|cancel)",
        ),
        (
            vec!["jobs", "submit"],
            "jobs submit needs an endpoint (simulate|table2|resilience|synth|area|explore)",
        ),
        (vec!["jobs", "submit", "bogus"], "unknown endpoint 'bogus'"),
        (
            vec!["jobs", "submit", "simulate", "a.json", "b.json"],
            "too many arguments to jobs submit",
        ),
        (
            vec!["jobs", "status", "a", "b"],
            "too many arguments to jobs status",
        ),
        (
            vec!["jobs", "submit", "simulate", "/nonexistent/spec.json"],
            missing,
        ),
        (vec!["jobs", "submit", "simulate", bad_json], &not_json),
        (vec!["jobs", "status"], "jobs status needs a job id"),
        (vec!["jobs", "result"], "jobs result needs a job id"),
        (
            vec!["jobs", "status", "x", "--addr"],
            "missing value for --addr",
        ),
        (
            vec!["jobs", "submit", "--client"],
            "missing value for --client",
        ),
        (vec!["jobs", "--wat"], "unknown jobs option --wat"),
        (vec!["cluster"], "cluster needs the verb 'status'"),
        (vec!["cluster", "frob"], "cluster needs the verb 'status'"),
        (vec!["cluster", "--wat"], "unknown cluster option --wat"),
        (
            vec!["cluster", "status", "--addr"],
            "missing value for --addr",
        ),
        (vec!["cluster", "status", "--addr", "127.0.0.1:1"], refused),
        (
            vec!["call"],
            "call needs an endpoint \
             (simulate|table2|resilience|synth|area|explore|status|healthz|metrics)",
        ),
        (
            vec!["call", "bogus"],
            "unknown endpoint 'bogus' \
             (simulate|table2|resilience|synth|area|explore|status|healthz|metrics)",
        ),
        (vec!["call", "--wat"], "unknown call option --wat"),
        (
            vec!["call", "simulate", "a.json", "b.json"],
            "too many arguments to call",
        ),
        (vec!["call", "simulate", "/nonexistent/spec.json"], missing),
        (vec!["call", "healthz", "--addr", "127.0.0.1:1"], refused),
    ];
    for (args, message) in cases {
        assert_one_error_line(&args, &tauhls(&args), message);
    }
}

/// A `tauhls serve` child on an ephemeral port, stopped with SIGTERM when
/// dropped.
struct LiveServer {
    child: std::process::Child,
    addr: String,
}

impl LiveServer {
    fn start() -> LiveServer {
        use std::io::BufRead as _;
        let mut child = Command::new(env!("CARGO_BIN_EXE_tauhls"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .args(["--threads", "1", "--job-workers", "1"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn tauhls serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read banner");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .expect("banner format")
            .to_string();
        LiveServer { child, addr }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
        let _ = self.child.wait();
    }
}

/// A status the verb does not accept prints the one HTTP-error line:
/// status, path and the trimmed body.
#[test]
fn http_errors_from_a_live_server_print_one_pinned_line() {
    let server = LiveServer::start();
    let spec = scratch_dir().join("zero-trials.json");
    std::fs::write(&spec, "{\"trials\":0}\n").unwrap();
    let addr = server.addr.as_str();
    let cases = [
        (
            vec!["call", "simulate", spec.to_str().unwrap(), "--addr", addr],
            "HTTP 400 from /v1/simulate: \
             {\"error\":\"invalid job spec: 'trials' must be in 1..=1000000, got 0\"}",
        ),
        (
            vec!["jobs", "result", "0123456789abcdef", "--addr", addr],
            "HTTP 404 from /v1/jobs/0123456789abcdef/result: {\"error\":\"unknown job\"}",
        ),
    ];
    for (args, message) in cases {
        assert_one_error_line(&args, &tauhls(&args), message);
    }
}
