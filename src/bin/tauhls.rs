//! `tauhls` — command-line front end for the telescopic-controller
//! synthesis pipeline.
//!
//! ```text
//! tauhls synth      <file> [options]       staged pipeline: controllers + area table
//!                                          (--json: artifact-hash chain + timings)
//! tauhls simulate   <file> [options]       latency: distributed vs centralized styles
//! tauhls table2     [options]              paper Table 2 (one column per style)
//! tauhls resilience <file> [options]       fault-injection sweep (JSON report)
//! tauhls report     <file> [options]       whole-system area breakdown
//! tauhls verilog    <file> [options]       emit the control unit as Verilog
//! tauhls dot        <file> [options]       emit the bound DFG as Graphviz DOT
//! tauhls explore    <file> [explore opts]  latency/area Pareto design-space sweep
//! tauhls dfg        <verb> <file>          wire-format tooling:
//!                                          validate (summary + content hash)
//!                                          dot (Graphviz) | convert (wire <-> text)
//! tauhls serve      [serve options]        run the HTTP simulation service
//! tauhls call       <endpoint> [spec.json] query a running service
//! tauhls jobs       <verb> ...             async jobs against a service:
//!                                          submit <endpoint> [spec.json]
//!                                          status|result|cancel <job-id>
//! tauhls cluster    status                 a coordinator's worker table and
//!                                          partition counters
//!
//! Every <file> accepts both DFG formats: the classic `.dfg` text and
//! the JSON wire format (`{"nodes":[...],"edges":[...],...}`) — the
//! loader sniffs a leading `{`.
//!
//! The analysis subcommands run service job specs. Their flags are the
//! fields of one endpoint's spec — simulate, table2, resilience and
//! explore each fill their own; synth, report, verilog and dot fill the
//! synth spec (report at a 16-bit datapath) — and the <file> is its `dfg`
//! (wire) or `dfg_text` (classic). `JobSpec::from_json` parses, defaults
//! and bounds them exactly as it does a `POST /v1/<endpoint>` body, so a
//! value the service rejects, or a flag whose field the endpoint does not
//! have, fails with the service's one-line message (exit 1). A flag that
//! does not parse (unknown, missing its value, a malformed number) prints
//! the usage text (exit 2).
//!
//! Exit codes. Every subcommand returns its text or one error to `main`,
//! the only place that writes an error line or picks the exit code:
//! - 0: the text was printed (a closed stdout ends it quietly);
//! - 2: the command line does not parse — one `error:` line, then the
//!   usage text; a missing or unknown subcommand prints the usage alone;
//! - 1: anything else, with one `error:` line — a spec the service
//!   rejects, a failed run, any misuse of `serve`, `call`, `jobs`,
//!   `cluster` or `dfg`, and a response status the client verb does not
//!   accept (`error: HTTP <status> from <path>: <body>`).
//!
//! options (spec fields, with the service's defaults and bounds):
//!   --muls N --adds N --subs N   allocation (default 2/1/1, each <= 64;
//!                                × telescopic)
//!   --binding left-edge|chains   binding strategy (default left-edge)
//!   --encoding binary|gray|onehot  state encoding (default binary)
//!   --p LIST                     comma-separated P sweep, 1-16 values in
//!                                [0, 1] (default 0.9,0.7,0.5; resilience
//!                                takes one value, default 0.9)
//!   --trials N                   Monte-Carlo trials, 1..=1000000 (default 2000)
//!   --seed N                     RNG seed (default 2003)
//!   --skew N --sync-latency N    elastic (GALS) clocking spec for the
//!                                LT_ELAS leg and the resilience elastic
//!                                columns (defaults 1/1, each <= 16; 0/0
//!                                bisimulates the distributed style)
//!   --styles LIST                resilience only: comma-separated styles
//!                                to sweep (dist,cent,elastic; must
//!                                include dist; default all three)
//!   --threads N                  CLI only: simulation worker threads
//!                                (default: all cores; results identical
//!                                for any N)
//!   --json                       CLI only, synth only: emit the
//!                                artifact-hash chain and per-stage wall
//!                                times as JSON
//!
//! explore options (the `POST /v1/explore` fields):
//!   --max-muls N --max-adds N --max-subs N   allocation maxima (default
//!                                4/2/2, each <= 8)
//!   --encodings LIST             comma-separated encodings (default binary)
//!   --p LIST                     completion probabilities (default 0.9,0.7,0.5)
//!   --sd-ld LIST                 short/long clock ratios in [0.5,1] (default 0.75)
//!   --skew LIST                  elastic skew bounds to sweep, each <= 16
//!                                (default 0; 0 = synchronous distributed
//!                                control)
//!   --trials N --width N --seed N --threads N  as above (defaults
//!                                400/16/2003; width <= 128; at most 4096
//!                                grid points)
//!
//! serve options:
//!   --addr HOST:PORT             listen address (default 127.0.0.1:7203)
//!   --workers N                  job worker threads (default 4)
//!   --queue N                    job queue capacity (default 64)
//!   --cache-mb N                 response cache budget in MiB (default 32)
//!   --threads N                  simulation threads per job (default: all)
//!   --data-dir PATH              durable job store (journal + artifacts;
//!                                replayed on restart; default: memory only)
//!   --job-workers N              async-job worker threads (default 2)
//!   --job-queue N                async-job queue capacity (default 256)
//!   --max-attempts N             attempts per async job (default 3)
//!   --backoff-ms N               retry backoff base in ms (default 250)
//!   --rate R --burst B           per-client admission token bucket
//!                                (default 20/s, burst 40)
//!   --max-pending N              per-client pending-job quota (default 64)
//!
//! call: endpoint is simulate|table2|resilience|synth|area|explore|
//! status|healthz|metrics; the optional spec.json is POSTed as the job
//! spec (status/healthz/metrics are GETs). --addr as above.
//!
//! jobs: submit POSTs `/v1/jobs` (options: --client NAME, --priority 0..9,
//! --wait to poll until the job is terminal and print its result);
//! status/result/cancel address `/v1/jobs/<id>`. --addr as above.
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;
use tauhls::core::experiments;
use tauhls::core::jobspec::{
    Endpoint, JobError, JobSpec, SimulateSpec, SynthSpec, KINDS, SIMULATE_LEGS,
};
use tauhls::core::report::system_area_from_logic;
use tauhls::core::stages::{self, PipelineTrace};
use tauhls::dfg::{canonical_wire, dfg_to_text, parse_dfg, parse_wire_dfg, wire_hash, Dfg};
use tauhls::fsm::control_unit_to_verilog;
use tauhls::logic::AreaModel;
use tauhls::serve::{client, signal, ServeConfig, Server};
use tauhls::sim::{BatchRunner, ControlStyle};
use tauhls_json::Json;

/// The usage text `main` prints, after the error line, when a command
/// line does not parse.
const USAGE: &str = "usage: tauhls <synth|simulate|resilience|report|verilog|dot> <file> \
    [--muls N] [--adds N] [--subs N] [--binding left-edge|chains] \
    [--encoding binary|gray|onehot] [--p 0.9,0.5] [--trials N] [--seed N] \
    [--threads N] [--skew N] [--sync-latency N] [--styles dist,cent,elastic] \
    [--json]\n       tauhls table2 [--trials N] [--seed N] [--threads N]\
    \n       tauhls explore <file> [--max-muls N] [--max-adds N] [--max-subs N] \
    [--encodings binary,gray] [--p 0.9,0.5] [--sd-ld 0.75,1.0] [--skew 0,2] \
    [--trials N] [--width N] [--seed N] [--threads N]\
    \n       tauhls dfg <validate|dot|convert> <file>\
    \n       tauhls serve [--addr HOST:PORT] [--workers N] [--queue N] \
    [--cache-mb N] [--threads N] [--data-dir PATH] \
    [--job-workers N] [--job-queue N] [--max-attempts N] [--backoff-ms N] \
    [--rate R] [--burst B] [--max-pending N] \
    [--coordinator] [--workers-file PEERS.json] [--worker-of HOST:PORT] \
    [--heartbeat-ms N] [--partition-timeout-ms N] [--cluster-attempts N] \
    [--cluster-partitions N]\
    \n       tauhls call <simulate|table2|resilience|synth|area|explore|status|\
healthz|metrics> [spec.json] [--addr HOST:PORT]\
    \n       tauhls jobs submit <endpoint> [spec.json] [--addr HOST:PORT] \
    [--client NAME] [--priority 0..9] [--wait]\
    \n       tauhls jobs <status|result|cancel> <job-id> [--addr HOST:PORT]\
    \n       tauhls cluster status [--addr HOST:PORT]\
    \n\nDFG files may be classic `.dfg` text or the JSON wire format.\
    \nAnalysis flags are the fields of the endpoint's job spec, with the \
    service's defaults and bounds.";

/// Writes `text` to stdout: the one output path of every subcommand. A
/// closed pipe (`tauhls ... | head`) ends the output quietly; any other
/// write failure is an error.
fn emit(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
        _ => Ok(()),
    }
}

/// Writes one line to stderr: the CLI's one stderr path, for `main`'s
/// error line and usage text and for `serve`'s notes.
#[allow(clippy::print_stderr)]
fn note(line: &str) {
    eprintln!("{line}");
}

/// Reads a file named on the command line; an error names its path.
fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Parses a DFG from either on-disk format: a leading `{` selects the
/// JSON wire format, anything else the classic `.dfg` text. Wire errors
/// carry their byte offset, exactly as the service's `400` bodies do.
fn parse_dfg_any(text: &str) -> Result<Dfg, String> {
    if text.trim_start().starts_with('{') {
        parse_wire_dfg(text).map_err(|e| e.to_string())
    } else {
        parse_dfg(text).map_err(|e| e.to_string())
    }
}

/// Why a subcommand failed. `main` prints it and picks the exit code.
#[derive(Debug)]
enum CliError {
    /// The command line does not parse: one `error:` line, then the usage
    /// text, exit 2.
    Usage(String),
    /// No subcommand, or one the CLI does not have: the usage text alone,
    /// exit 2.
    NoCommand,
    /// Anything else: one `error:` line, exit 1.
    Failed(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failed(message)
    }
}

impl From<JobError> for CliError {
    fn from(err: JobError) -> Self {
        CliError::Failed(err.to_string())
    }
}

/// How an analysis flag's value becomes the JSON of its spec field.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// A non-negative integer.
    Uint,
    /// A number.
    Num,
    /// A name, passed through as a string.
    Name,
}

impl Shape {
    fn parse(self, token: &str) -> Result<Json, String> {
        match self {
            Shape::Uint => token
                .parse::<u64>()
                .map(Json::from)
                .map_err(|e| e.to_string()),
            Shape::Num => token
                .parse::<f64>()
                .map(Json::Float)
                .map_err(|e| e.to_string()),
            Shape::Name => Ok(Json::from(token)),
        }
    }
}

/// Every analysis flag: its name, its spec field and its value shape.
/// Each flag goes into whatever spec the subcommand fills, so a field the
/// endpoint does not have is rejected there, exactly as the service
/// rejects it.
const SPEC_FLAGS: [(&str, &str, Shape); 17] = [
    ("--muls", "muls", Shape::Uint),
    ("--adds", "adds", Shape::Uint),
    ("--subs", "subs", Shape::Uint),
    ("--binding", "binding", Shape::Name),
    ("--encoding", "encoding", Shape::Name),
    ("--p", "p", Shape::Num),
    ("--trials", "trials", Shape::Uint),
    ("--seed", "seed", Shape::Uint),
    ("--skew", "skew", Shape::Uint),
    ("--sync-latency", "sync_latency", Shape::Uint),
    ("--styles", "styles", Shape::Name),
    ("--max-muls", "max_muls", Shape::Uint),
    ("--max-adds", "max_adds", Shape::Uint),
    ("--max-subs", "max_subs", Shape::Uint),
    ("--encodings", "encodings", Shape::Name),
    ("--sd-ld", "sd_ld", Shape::Num),
    ("--width", "width", Shape::Uint),
];

/// A flag's value as the JSON of its field: a list field (named in its
/// endpoint's [`KINDS`] row) takes the comma-separated items as an array,
/// a scalar field its one item.
/// Several items for a scalar field stay an array, so the spec names the
/// mismatch.
fn field_value(shape: Shape, list: bool, raw: &str) -> Result<Json, String> {
    if shape == Shape::Name && !list {
        return Ok(Json::from(raw));
    }
    let mut items = raw
        .split(',')
        .map(|token| shape.parse(token))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(if !list && items.len() == 1 {
        items.remove(0)
    } else {
        Json::Array(items)
    })
}

/// The flags that stay on the command line: they choose how a job runs
/// or prints, never what it computes.
#[derive(Default)]
struct Knobs {
    threads: Option<usize>,
    json: bool,
}

/// Builds a subcommand's `endpoint` job spec. The flags become the spec's
/// fields (a repeated flag overrides the earlier one) and the CLI-only
/// knobs, `json_ok` admitting `--json`; the DFG file becomes its `dfg`
/// (wire format) or `dfg_text` (classic text); and
/// [`JobSpec::from_json`] parses, defaults and validates the whole.
fn job_spec(
    endpoint: Endpoint,
    file: Option<&str>,
    args: &[String],
    json_ok: bool,
) -> Result<(JobSpec, Knobs), CliError> {
    let mut fields: Vec<(&str, Json)> = Vec::new();
    let mut knobs = Knobs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if json_ok && flag == "--json" {
            knobs.json = true;
            continue;
        }
        let spec_flag = SPEC_FLAGS.iter().find(|(name, ..)| name == flag);
        if spec_flag.is_none() && flag != "--threads" {
            return Err(CliError::Usage(format!("unknown option {flag}")));
        }
        let usage = |e: &dyn std::fmt::Display| CliError::Usage(format!("{flag}: {e}"));
        let raw = it.next().ok_or_else(|| usage(&"missing value"))?;
        let Some(&(_, key, shape)) = spec_flag else {
            knobs.threads = Some(raw.parse().map_err(|e| usage(&e))?);
            continue;
        };
        let list = endpoint.kind().lists.contains(&key);
        let value = field_value(shape, list, raw).map_err(|e| usage(&e))?;
        fields.retain(|(k, _)| *k != key);
        fields.push((key, value));
    }
    if let Some(path) = file {
        let text = read_file(path)?;
        fields.push(if text.trim_start().starts_with('{') {
            (
                "dfg",
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
            )
        } else {
            ("dfg_text", Json::from(text.as_str()))
        });
    }
    // The CLI's documented resilience default is P = 0.9.
    if endpoint == Endpoint::Resilience && fields.iter().all(|(k, _)| *k != "p") {
        fields.push(("p", Json::Float(0.9)));
    }
    let spec = JobSpec::from_json(endpoint, &Json::object(fields))?;
    Ok((spec, knobs))
}

/// The analysis subcommands and the endpoint whose spec each fills.
const ANALYSES: [(&str, Endpoint); 8] = [
    ("simulate", Endpoint::Simulate),
    ("resilience", Endpoint::Resilience),
    ("table2", Endpoint::Table2),
    ("explore", Endpoint::Explore),
    ("synth", Endpoint::Synth),
    ("report", Endpoint::Synth),
    ("verilog", Endpoint::Synth),
    ("dot", Endpoint::Synth),
];

/// Runs one analysis subcommand to the text it prints. Every subcommand
/// but `table2` takes its DFG file first.
fn analysis(cmd: &str, endpoint: Endpoint, args: &[String]) -> Result<String, CliError> {
    let (file, flags) = match (endpoint, args.split_first()) {
        (Endpoint::Table2, _) => (None, args),
        (_, Some((path, flags))) => (Some(path.as_str()), flags),
        (_, None) => return Err(CliError::Usage(format!("{cmd} needs a DFG file"))),
    };
    let (spec, knobs) = job_spec(endpoint, file, flags, cmd == "synth")?;
    let runner = BatchRunner::sized(knobs.threads);
    Ok(match &spec {
        JobSpec::Simulate(s) => simulate_text(s, &spec.run(&runner)?)?,
        JobSpec::Resilience(_) => cell(&spec.run(&runner)?, "report")?.to_pretty(),
        JobSpec::Table2(s) => experiments::table2(s.trials as usize, s.seed, &runner)
            .map_err(|e| e.to_string())?
            .to_string(),
        JobSpec::Synth(s) => match cmd {
            "synth" => synth_text(s, knobs.json)?,
            "report" => {
                let (logic, _, _) = s.synthesize(None)?;
                system_area_from_logic(&logic, &AreaModel::default(), 16).to_string()
            }
            "verilog" => control_unit_to_verilog(s.synthesize(None)?.0.controllers()),
            _ => {
                let mut trace = PipelineTrace::default();
                let controls = stages::run_front(&s.input(), false, None, &mut trace)
                    .map_err(|e| e.to_string())?;
                let bound = controls.design().bound();
                tauhls::dfg::to_dot(bound.dfg(), bound.schedule_arcs())
            }
        },
        JobSpec::Explore(_) | JobSpec::Area(_) => spec.run(&runner)?.to_pretty(),
    })
}

/// `tauhls synth`: the full staged pipeline, from parsed DFG to gate-level
/// controllers, with the artifact-hash chain and per-stage wall times.
fn synth_text(s: &SynthSpec, json: bool) -> Result<String, JobError> {
    let (logic, _, trace) = s.synthesize(None)?;
    let bound = logic.controls().design().bound();
    let units = bound.allocation().units();
    if json {
        let stage_rows: Vec<Json> = trace
            .records
            .iter()
            .map(|r| {
                Json::object([
                    ("stage", Json::from(r.stage)),
                    (
                        "input_hash",
                        Json::from(format!("{:016x}", r.input_hash).as_str()),
                    ),
                    (
                        "output_hash",
                        Json::from(format!("{:016x}", r.output_hash).as_str()),
                    ),
                    ("wall_us", Json::from(r.wall.as_micros() as u64)),
                ])
            })
            .collect();
        let controllers: Vec<Json> = logic
            .controllers()
            .iter()
            .map(|(u, syn)| {
                Json::object([
                    ("unit", Json::from(units[u.0].display_name().as_str())),
                    ("states", Json::from(syn.num_states())),
                    ("flip_flops", Json::from(syn.flip_flops())),
                    ("area", Json::Float(syn.area().total())),
                ])
            })
            .collect();
        let body = Json::object([
            ("dfg", Json::from(bound.dfg().name())),
            (
                "binding",
                Json::from(if s.chains { "chains" } else { "left-edge" }),
            ),
            (
                "encoding",
                Json::from(format!("{:?}", s.encoding).to_lowercase().as_str()),
            ),
            ("stages", Json::array(stage_rows)),
            ("controllers", Json::array(controllers)),
        ]);
        return Ok(format!("{}\n", body.to_pretty()));
    }
    let mut out = format!(
        "DFG '{}': {} ops, {} schedule arcs inserted\n",
        bound.dfg().name(),
        bound.dfg().num_ops(),
        bound.schedule_arcs().len()
    );
    let mut total = 0.0;
    let _ = writeln!(
        out,
        "{:<10} {:<24} {:>7} {:>5} {:>14}",
        "unit", "sequence", "states", "FFs", "area (GE)"
    );
    for (u, syn) in logic.controllers() {
        total += syn.area().total();
        let _ = writeln!(
            out,
            "{:<10} {:<24} {:>7} {:>5} {:>14.0}",
            units[u.0].display_name(),
            format!("{:?}", bound.sequence(*u)),
            syn.num_states(),
            syn.flip_flops(),
            syn.area().total()
        );
    }
    let _ = writeln!(
        out,
        "total control area: {total:.0} GE ({:?} encoding)",
        s.encoding
    );
    let _ = writeln!(
        out,
        "{:<14} {:>16}  {:>9}",
        "stage", "artifact hash", "wall"
    );
    for r in &trace.records {
        let _ = writeln!(
            out,
            "{:<14} {:016x}  {:>6} us",
            r.stage,
            r.output_hash,
            r.wall.as_micros()
        );
    }
    Ok(out)
}

/// The `key` cell of a job's response body.
fn cell<'a>(body: &'a Json, key: &str) -> Result<&'a Json, String> {
    body.get(key)
        .ok_or_else(|| format!("job body carries no {key}"))
}

/// `tauhls simulate`: the job's body as text — every [`SIMULATE_LEGS`]
/// style on coupled trials, rendered in ns, with the paper's enhancement
/// column.
fn simulate_text(s: &SimulateSpec, body: &Json) -> Result<String, String> {
    let clock = cell(body, "clock_ns")?.as_f64().unwrap_or_default();
    let mut out = format!(
        "clock {clock} ns, {} coupled trials at P = {:?}\n",
        s.trials, s.p_values
    );
    for (key, description, style) in SIMULATE_LEGS {
        let clocks = match style(s.elastic) {
            ControlStyle::Elastic(e) => format!(" s={},l={}", e.skew_bound, e.sync_latency),
            _ => String::new(),
        };
        let label = format!("{:<7} ({description}{clocks})", key.to_ascii_uppercase());
        let rendered = cell(cell(body, key)?, "rendered_ns")?.as_str();
        let _ = writeln!(out, "{label:<22} : {}", rendered.unwrap_or_default());
    }
    let enhancement = cell(body, "enhancement_percent")?.as_array();
    for (p, e) in s.p_values.iter().zip(enhancement.unwrap_or_default()) {
        let e = e.as_f64().unwrap_or_default();
        let _ = writeln!(out, "  P = {p}: {e:+.1}% enhancement");
    }
    Ok(out)
}

/// `tauhls dfg`: wire-format tooling. `validate` answers the same
/// summary (and the same byte-offset diagnostics) as
/// `POST /v1/dfg/validate`; `dot` renders Graphviz; `convert` flips a
/// document between the wire format and the classic text format.
fn cmd_dfg(args: &[String]) -> Result<String, String> {
    let (Some(verb), Some(path)) = (args.first(), args.get(1)) else {
        return Err("dfg needs a verb (validate|dot|convert) and a file".to_string());
    };
    if args.len() > 2 {
        return Err(format!("too many arguments to dfg {verb}"));
    }
    let text = read_file(path)?;
    let parse = || parse_dfg_any(&text).map_err(|e| format!("{path}: {e}"));
    match verb.as_str() {
        "validate" => {
            let dfg = parse()?;
            let canonical = canonical_wire(&dfg);
            let body = Json::object([
                ("ok", Json::from(true)),
                ("name", Json::from(dfg.name())),
                ("ops", Json::from(dfg.num_ops())),
                ("inputs", Json::from(dfg.input_names().len())),
                ("outputs", Json::from(dfg.outputs().len())),
                (
                    "hash",
                    Json::from(format!("{:016x}", wire_hash(&canonical)).as_str()),
                ),
            ]);
            Ok(format!("{}\n", body.to_pretty()))
        }
        "dot" => Ok(tauhls::dfg::to_dot(&parse()?, &[])),
        "convert" if text.trim_start().starts_with('{') => Ok(dfg_to_text(&parse()?)),
        "convert" => Ok(format!("{}\n", canonical_wire(&parse()?))),
        other => Err(format!("unknown dfg verb '{other}' (validate|dot|convert)")),
    }
}

/// Sets one [`ServeConfig`] field from its flag's value, or says why the
/// value does not parse.
type ServeSetter = fn(&mut ServeConfig, &str) -> Result<(), String>;

/// A flag's value as a `T`, or the parser's message.
fn parse<T: std::str::FromStr>(value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

/// Every `tauhls serve` flag that takes a value and the [`ServeConfig`]
/// field it sets; `--coordinator` is the one switch.
const SERVE_FLAGS: [(&str, ServeSetter); 19] = [
    ("--addr", |c, v| parse(v).map(|a| c.addr = a)),
    ("--workers", |c, v| parse(v).map(|n| c.workers = n)),
    ("--queue", |c, v| parse(v).map(|n| c.queue_capacity = n)),
    ("--cache-mb", |c, v| {
        let mb: usize = parse(v)?;
        let bytes = mb.checked_mul(1024 * 1024);
        let bytes = bytes.ok_or_else(|| format!("{mb} MiB overflows the byte count"))?;
        c.cache_bytes = bytes;
        Ok(())
    }),
    ("--threads", |c, v| {
        parse(v).map(|n| c.sim_threads = Some(n))
    }),
    ("--data-dir", |c, v| parse(v).map(|p| c.data_dir = Some(p))),
    ("--job-workers", |c, v| parse(v).map(|n| c.job_workers = n)),
    ("--job-queue", |c, v| {
        parse(v).map(|n| c.job_queue_capacity = n)
    }),
    ("--max-attempts", |c, v| {
        parse(v).map(|n| c.job_max_attempts = n)
    }),
    ("--backoff-ms", |c, v| {
        parse(v).map(|ms| c.job_backoff_base = Duration::from_millis(ms))
    }),
    ("--rate", |c, v| parse(v).map(|r| c.admission_rate = r)),
    ("--burst", |c, v| parse(v).map(|b| c.admission_burst = b)),
    ("--max-pending", |c, v| {
        parse(v).map(|n| c.max_pending_per_client = n)
    }),
    ("--workers-file", |c, v| {
        parse(v).map(|p| c.workers_file = Some(p))
    }),
    ("--worker-of", |c, v| {
        parse(v).map(|a| c.worker_of = Some(a))
    }),
    ("--heartbeat-ms", |c, v| {
        parse(v).map(|ms| c.heartbeat_interval = Duration::from_millis(ms))
    }),
    ("--partition-timeout-ms", |c, v| {
        parse(v).map(|ms| c.partition_timeout = Duration::from_millis(ms))
    }),
    ("--cluster-attempts", |c, v| {
        parse(v).map(|n| c.cluster_max_attempts = n)
    }),
    ("--cluster-partitions", |c, v| {
        parse(v).map(|n| c.cluster_partitions = n)
    }),
];

/// Parses `tauhls serve` flags onto a [`ServeConfig`] through
/// [`SERVE_FLAGS`].
fn parse_serve_options(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--coordinator" {
            config.coordinator = true;
            continue;
        }
        let Some((_, set)) = SERVE_FLAGS.iter().find(|(name, _)| name == flag) else {
            return Err(format!("unknown serve option {flag}"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        set(&mut config, value).map_err(|e| format!("{flag}: {e}"))?;
    }
    Ok(config)
}

/// `tauhls serve`: run the service until SIGTERM/ctrl-c, then drain.
fn cmd_serve(args: &[String]) -> Result<String, String> {
    let config = parse_serve_options(args)?;
    signal::install_handlers();
    let server = Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    // Scripts (and the integration tests) read the resolved address off
    // this line; `emit` flushes it out before the server blocks.
    if let Err(e) = emit(&format!("listening on {}\n", server.local_addr())) {
        note(&format!("warning: {e}"));
    }
    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    note("shutdown requested: draining in-flight jobs");
    server.shutdown();
    Ok(String::new())
}

/// A client verb: its name, the value flags and switches it takes besides
/// `--addr`, and how long each of its requests may take.
struct ClientVerb {
    name: &'static str,
    values: &'static [&'static str],
    switches: &'static [&'static str],
    timeout: Duration,
}

const CALL: ClientVerb = ClientVerb {
    name: "call",
    values: &[],
    switches: &[],
    timeout: Duration::from_secs(600),
};

const JOBS: ClientVerb = ClientVerb {
    name: "jobs",
    values: &["--client", "--priority"],
    switches: &["--wait"],
    timeout: Duration::from_secs(600),
};

const CLUSTER: ClientVerb = ClientVerb {
    name: "cluster",
    values: &[],
    switches: &[],
    timeout: Duration::from_secs(30),
};

/// A client verb's command line, read by [`ClientVerb::parse`].
struct ClientArgs<'a> {
    addr: String,
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(&'a str, Option<&'a str>)>,
    positional: Vec<&'a str>,
    timeout: Duration,
}

impl ClientVerb {
    /// Reads `--addr` (default: the service's), the verb's own flags, and
    /// the positional arguments. Any other `--` argument is an error.
    fn parse<'a>(&self, args: &'a [String]) -> Result<ClientArgs<'a>, String> {
        let mut cli = ClientArgs {
            addr: ServeConfig::default().addr,
            flags: Vec::new(),
            positional: Vec::new(),
            timeout: self.timeout,
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            let takes_value = arg == "--addr" || self.values.contains(&arg);
            if takes_value {
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for {arg}"))?;
                match arg {
                    "--addr" => cli.addr = value.to_string(),
                    _ => cli.flags.push((arg, Some(value))),
                }
            } else if self.switches.contains(&arg) {
                cli.flags.push((arg, None));
            } else if arg.starts_with("--") {
                return Err(format!("unknown {} option {arg}", self.name));
            } else {
                cli.positional.push(arg);
            }
        }
        Ok(cli)
    }
}

impl ClientArgs<'_> {
    /// The value of the last `flag` given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| *f == flag)?.1
    }

    /// Whether the switch `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// Sends one request to the service: the response body when its
    /// status is one of `accepted`, else the one HTTP-error line.
    fn fetch(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
        accepted: &[u16],
    ) -> Result<String, String> {
        let response = client::request_with(&self.addr, method, path, headers, body, self.timeout)?;
        if accepted.contains(&response.status) {
            return Ok(response.body);
        }
        let (status, body) = (response.status, response.body.trim());
        Err(format!("HTTP {status} from {path}: {body}"))
    }
}

/// `tauhls cluster status`: the cluster section of a running server's
/// `/v1/status` — role, workers with health and heartbeat age, and the
/// partition lifecycle counters.
fn cmd_cluster(args: &[String]) -> Result<String, String> {
    let cli = CLUSTER.parse(args)?;
    if cli.positional != ["status"] {
        return Err("cluster needs the verb 'status'".to_string());
    }
    let status = cli.fetch("GET", "/v1/status", &[], None, &[200])?;
    Json::parse(&status)
        .ok()
        .and_then(|doc| doc.get("cluster").map(Json::to_pretty))
        .ok_or_else(|| "status body carries no cluster section".to_string())
}

/// The job kinds' names, `|`-separated.
fn kind_names() -> String {
    KINDS.map(|k| k.name).join("|")
}

/// `tauhls call`: one request against a running service.
fn cmd_call(args: &[String]) -> Result<String, String> {
    let cli = CALL.parse(args)?;
    let reachable = format!("{}|status|healthz|metrics", kind_names());
    let (Some(endpoint), spec_path) = (cli.positional.first(), cli.positional.get(1)) else {
        return Err(format!("call needs an endpoint ({reachable})"));
    };
    if cli.positional.len() > 2 {
        return Err("too many arguments to call".to_string());
    }
    let (method, path) = match *endpoint {
        "healthz" => ("GET", "/healthz".to_string()),
        "metrics" => ("GET", "/metrics".to_string()),
        "status" => ("GET", "/v1/status".to_string()),
        name if Endpoint::parse(name).is_some() => ("POST", format!("/v1/{name}")),
        other => return Err(format!("unknown endpoint '{other}' ({reachable})")),
    };
    let body = match spec_path {
        Some(p) => read_file(p)?,
        None => "{}".to_string(),
    };
    let payload = (method == "POST").then_some(body.as_str());
    cli.fetch(method, &path, &[], payload, &[200])
}

/// `tauhls jobs`: submit to and poll the async job endpoints.
fn cmd_jobs(args: &[String]) -> Result<String, String> {
    let cli = JOBS.parse(args)?;
    const VERBS: &str = "submit|status|result|cancel";
    let submit = match cli.positional.as_slice() {
        [] => return Err(format!("jobs needs a verb ({VERBS})")),
        ["submit", rest @ ..] => rest,
        [verb @ ("status" | "result" | "cancel"), rest @ ..] => {
            let [id] = rest else {
                return Err(match rest {
                    [] => format!("jobs {verb} needs a job id"),
                    _ => format!("too many arguments to jobs {verb}"),
                });
            };
            let (method, path) = match *verb {
                "status" => ("GET", format!("/v1/jobs/{id}")),
                "result" => ("GET", format!("/v1/jobs/{id}/result")),
                _ => ("DELETE", format!("/v1/jobs/{id}")),
            };
            return cli.fetch(method, &path, &[], None, &[200]);
        }
        [other, ..] => return Err(format!("unknown jobs verb '{other}' ({VERBS})")),
    };
    let Some(endpoint) = submit.first() else {
        return Err(format!("jobs submit needs an endpoint ({})", kind_names()));
    };
    if Endpoint::parse(endpoint).is_none() {
        return Err(format!("unknown endpoint '{endpoint}'"));
    }
    if submit.len() > 2 {
        return Err("too many arguments to jobs submit".to_string());
    }
    let spec = match submit.get(1) {
        Some(p) => {
            let text = read_file(p)?;
            Json::parse(&text).map_err(|e| format!("{p}: invalid JSON: {e}"))?;
            text
        }
        None => "{}".to_string(),
    };
    let body = format!("{{\"endpoint\":\"{endpoint}\",\"spec\":{spec}}}");
    let headers: Vec<(&str, &str)> = [("X-Client", "--client"), ("X-Priority", "--priority")]
        .into_iter()
        .filter_map(|(header, flag)| Some((header, cli.value(flag)?)))
        .collect();
    let status = cli.fetch("POST", "/v1/jobs", &headers, Some(&body), &[200, 202])?;
    let id = Json::parse(&status)
        .ok()
        .and_then(|j| j.get("job")?.as_str().map(String::from))
        .ok_or_else(|| format!("submit response has no job id: {status}"))?;
    if !cli.has("--wait") {
        return Ok(status);
    }
    // `--wait`: poll until the job is terminal, then fetch its result.
    let path = format!("/v1/jobs/{id}");
    loop {
        let status = cli.fetch("GET", &path, &[], None, &[200])?;
        let state = Json::parse(&status)
            .ok()
            .and_then(|j| j.get("state")?.as_str().map(String::from))
            .unwrap_or_default();
        match state.as_str() {
            "done" => return cli.fetch("GET", &format!("{path}/result"), &[], None, &[200]),
            "failed" | "cancelled" => {
                return Err(format!("job {id} ended {state}: {}", status.trim()))
            }
            _ => std::thread::sleep(Duration::from_millis(200)),
        }
    }
}

/// Runs one subcommand to the text it prints.
fn run(cmd: &str, args: &[String]) -> Result<String, CliError> {
    let service = match cmd {
        "serve" => cmd_serve,
        "call" => cmd_call,
        "jobs" => cmd_jobs,
        "cluster" => cmd_cluster,
        "dfg" => cmd_dfg,
        name => {
            return match ANALYSES.iter().find(|(n, _)| *n == name) {
                Some(&(_, endpoint)) => analysis(name, endpoint, args),
                None => Err(CliError::NoCommand),
            }
        }
    };
    Ok(service(args)?)
}

/// The one exit path: prints the subcommand's text, or its error line
/// (and the usage text for a command line that does not parse), and
/// picks the exit code.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let text = match args.split_first() {
        Some((cmd, rest)) => run(cmd, rest),
        None => Err(CliError::NoCommand),
    };
    match text.and_then(|t| Ok(emit(&t)?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failed(e)) => {
            note(&format!("error: {e}"));
            ExitCode::FAILURE
        }
        Err(CliError::Usage(e)) => {
            note(&format!("error: {e}"));
            note(USAGE);
            ExitCode::from(2)
        }
        Err(CliError::NoCommand) => {
            note(USAGE);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls::fsm::Encoding;
    use tauhls::sim::{ControlStyleSet, ElasticSpec};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The spec `flags` translate to, with no DFG file (the spec's
    /// default graph).
    fn spec(endpoint: Endpoint, flags: &str) -> Result<JobSpec, CliError> {
        job_spec(endpoint, None, &args(flags), false).map(|(spec, _)| spec)
    }

    fn usage_error(endpoint: Endpoint, flags: &str) -> String {
        match spec(endpoint, flags) {
            Err(CliError::Usage(m)) => m,
            other => panic!("{flags}: want a usage error, got {other:?}"),
        }
    }

    fn spec_error(endpoint: Endpoint, flags: &str) -> String {
        match spec(endpoint, flags) {
            Err(CliError::Failed(m)) => m,
            other => panic!("{flags}: want a spec rejection, got {other:?}"),
        }
    }

    #[test]
    fn defaults_and_overrides() {
        let Ok(JobSpec::Synth(s)) = spec(Endpoint::Synth, "") else {
            panic!("synth spec");
        };
        assert_eq!((s.muls, s.adds, s.subs), (2, 1, 1));
        assert!(!s.chains);
        assert_eq!(s.encoding, Encoding::Binary);
        let Ok(JobSpec::Synth(s)) = spec(
            Endpoint::Synth,
            "--muls 3 --adds 2 --subs 0 --binding chains --encoding onehot",
        ) else {
            panic!("synth spec");
        };
        assert_eq!((s.muls, s.adds, s.subs), (3, 2, 0));
        assert!(s.chains);
        assert_eq!(s.encoding, Encoding::OneHot);

        let Ok(JobSpec::Simulate(s)) = spec(Endpoint::Simulate, "") else {
            panic!("simulate spec");
        };
        assert_eq!(s.p_values, vec![0.9, 0.7, 0.5]);
        assert_eq!((s.trials, s.seed), (2000, 2003));
        let (overridden, knobs) = job_spec(
            Endpoint::Simulate,
            None,
            &args("--p 0.8,0.4 --trials 10 --seed 5 --threads 2"),
            false,
        )
        .unwrap();
        let JobSpec::Simulate(s) = overridden else {
            panic!("simulate spec");
        };
        assert_eq!(s.p_values, vec![0.8, 0.4]);
        assert_eq!((s.trials, s.seed), (10, 5));
        assert_eq!(knobs.threads, Some(2));
        // A one-value list field is still a list; a later flag wins.
        let Ok(JobSpec::Simulate(s)) = spec(Endpoint::Simulate, "--p 0.5 --trials 3 --trials 4")
        else {
            panic!("simulate spec");
        };
        assert_eq!((s.p_values, s.trials), (vec![0.5], 4));
    }

    #[test]
    fn elastic_and_styles_flags_parse_and_reject() {
        let Ok(JobSpec::Resilience(r)) = spec(Endpoint::Resilience, "") else {
            panic!("resilience spec");
        };
        assert_eq!(r.elastic, ElasticSpec::default());
        assert!(r.styles.contains(ControlStyleSet::ELASTIC));
        // The CLI's resilience default is P = 0.9, and `--p` is a scalar.
        assert_eq!(r.p, 0.9);
        let Ok(JobSpec::Resilience(r)) = spec(
            Endpoint::Resilience,
            "--p 0.5 --skew 3 --sync-latency 2 --styles dist,elastic",
        ) else {
            panic!("resilience spec");
        };
        assert_eq!(r.p, 0.5);
        assert_eq!((r.elastic.skew_bound, r.elastic.sync_latency), (3, 2));
        assert!(r.styles.contains(ControlStyleSet::DIST));
        assert!(r.styles.contains(ControlStyleSet::ELASTIC));
        assert!(!r.styles.contains(ControlStyleSet::CENT));
        // The GALS alias resolves to the elastic style.
        let Ok(JobSpec::Resilience(r)) = spec(Endpoint::Resilience, "--styles dist,gals") else {
            panic!("resilience spec");
        };
        assert!(r.styles.contains(ControlStyleSet::ELASTIC));
        // Explore sweeps skew as a list.
        let Ok(JobSpec::Explore(x)) = spec(Endpoint::Explore, "--skew 0,2 --encodings gray") else {
            panic!("explore spec");
        };
        assert_eq!(x.skew, vec![0, 2]);
        assert_eq!(x.encodings, vec![Encoding::Gray]);
        assert!(usage_error(Endpoint::Resilience, "--skew x").contains("--skew"));
        for (flags, needle) in [
            ("--styles cent,elastic", "must include 'dist'"),
            ("--styles tau,dist", "dist, cent, and elastic"),
            ("--styles nope", "nope"),
            ("--p 0.9,0.5", "'p' must be a number"),
        ] {
            let err = spec_error(Endpoint::Resilience, flags);
            assert!(err.contains(needle), "{flags}: {err}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        for flags in ["--muls", "--muls x", "--p 0.9,oops", "--wat 1", "--json"] {
            usage_error(Endpoint::Simulate, flags);
        }
        assert!(spec_error(Endpoint::Simulate, "--binding sideways").contains("'binding'"));
        assert!(spec_error(Endpoint::Synth, "--encoding hex").contains("'encoding'"));
        // A flag whose field the endpoint lacks is the spec's unknown field.
        assert!(spec_error(Endpoint::Table2, "--muls 9").contains("unknown field 'muls'"));
    }

    #[test]
    fn bind_reports_missing_file_and_bad_alloc() {
        let err = job_spec(Endpoint::Simulate, Some("/nonexistent/x.dfg"), &[], false);
        assert!(matches!(err, Err(CliError::Failed(m)) if m.contains("/nonexistent/x.dfg")));
        assert!(spec_error(Endpoint::Simulate, "--muls 0").contains("allocation lacks a unit"));
    }
    #[test]
    fn serve_options_parse_and_reject() {
        let c = parse_serve_options(&args(
            "--addr 0.0.0.0:9000 --workers 2 --queue 8 --cache-mb 4 --threads 1",
        ))
        .unwrap();
        assert_eq!(c.addr, "0.0.0.0:9000");
        assert_eq!((c.workers, c.queue_capacity), (2, 8));
        assert_eq!(c.cache_bytes, 4 * 1024 * 1024);
        assert_eq!(c.sim_threads, Some(1));
        assert!(parse_serve_options(&args("--workers")).is_err());
        assert!(parse_serve_options(&args("--cache-mb x")).is_err());
        assert!(parse_serve_options(&args("--wat 1")).is_err());
        assert_eq!(
            parse_serve_options(&args("--stage-cache 16"))
                .err()
                .as_deref(),
            Some("unknown serve option --stage-cache")
        );
    }

    #[test]
    fn serve_job_options_parse_and_reject() {
        let c = parse_serve_options(&args(
            "--data-dir /tmp/tauhls-jobs --job-workers 3 --job-queue 32 \
             --max-attempts 5 --backoff-ms 100 --rate 2.5 --burst 10 --max-pending 7",
        ))
        .unwrap();
        assert_eq!(
            c.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/tauhls-jobs"))
        );
        assert_eq!((c.job_workers, c.job_queue_capacity), (3, 32));
        assert_eq!(c.job_max_attempts, 5);
        assert_eq!(c.job_backoff_base, Duration::from_millis(100));
        assert_eq!((c.admission_rate, c.admission_burst), (2.5, 10.0));
        assert_eq!(c.max_pending_per_client, 7);
        // Defaults keep the durable store off.
        assert!(parse_serve_options(&[]).unwrap().data_dir.is_none());
        assert!(parse_serve_options(&args("--data-dir")).is_err());
        assert!(parse_serve_options(&args("--job-workers x")).is_err());
        assert!(parse_serve_options(&args("--max-attempts -1")).is_err());
        assert!(parse_serve_options(&args("--rate fast")).is_err());
    }

    #[test]
    fn serve_cluster_options_parse_and_reject() {
        let c = parse_serve_options(&args(
            "--coordinator --workers-file peers.json --heartbeat-ms 250 \
             --partition-timeout-ms 5000 --cluster-attempts 4 --cluster-partitions 6",
        ))
        .unwrap();
        assert!(c.coordinator);
        assert_eq!(
            c.workers_file.as_deref(),
            Some(std::path::Path::new("peers.json"))
        );
        assert_eq!(c.heartbeat_interval, Duration::from_millis(250));
        assert_eq!(c.partition_timeout, Duration::from_millis(5000));
        assert_eq!(c.cluster_max_attempts, 4);
        assert_eq!(c.cluster_partitions, 6);
        let w = parse_serve_options(&args("--worker-of 127.0.0.1:8080")).unwrap();
        assert_eq!(w.worker_of.as_deref(), Some("127.0.0.1:8080"));
        // Defaults stay single-node.
        let d = parse_serve_options(&[]).unwrap();
        assert!(!d.coordinator && d.workers_file.is_none() && d.worker_of.is_none());
        assert!(parse_serve_options(&args("--worker-of")).is_err());
        assert!(parse_serve_options(&args("--heartbeat-ms soon")).is_err());
        assert!(parse_serve_options(&args("--cluster-partitions x")).is_err());
    }
}
