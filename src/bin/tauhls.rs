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
//! options:
//!   --muls N --adds N --subs N   allocation (default 2/1/1; × telescopic)
//!   --binding left-edge|chains   binding strategy (default left-edge)
//!   --encoding binary|gray|onehot  state encoding (default binary)
//!   --p LIST                     comma-separated P sweep (default 0.9,0.7,0.5;
//!                                resilience takes one value, default 0.9)
//!   --trials N                   Monte-Carlo trials (default 2000)
//!   --seed N                     RNG seed (default 2003)
//!   --threads N                  simulation worker threads (default: all
//!                                cores; results identical for any N)
//!   --skew N --sync-latency N    elastic (GALS) clocking spec for the
//!                                LT_ELAS leg and the resilience elastic
//!                                columns (defaults 1/1; 0/0 bisimulates
//!                                the distributed style)
//!   --styles LIST                resilience only: comma-separated styles
//!                                to sweep (dist,cent,elastic; must
//!                                include dist; default all three)
//!   --json                       synth only: emit the artifact-hash chain
//!                                and per-stage wall times as JSON
//!
//! explore options (the same knobs as `POST /v1/explore`):
//!   --max-muls N --max-adds N --max-subs N   allocation maxima (default 4/2/2)
//!   --encodings LIST             comma-separated encodings (default binary)
//!   --p LIST                     completion probabilities (default 0.9,0.7,0.5)
//!   --sd-ld LIST                 short/long clock ratios in [0.5,1] (default 0.75)
//!   --skew LIST                  elastic skew bounds to sweep (default 0;
//!                                0 = synchronous distributed control)
//!   --trials N --width N --seed N --threads N  as above (defaults 400/16/2003)
//!
//! serve options:
//!   --addr HOST:PORT             listen address (default 127.0.0.1:7203)
//!   --workers N                  job worker threads (default 4)
//!   --queue N                    job queue capacity (default 64)
//!   --cache-mb N                 response cache budget in MiB (default 32)
//!   --stage-cache N              synthesis stage-cache entries (default
//!                                1024; 0 disables)
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

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use tauhls::core::jobspec::{
    bind_checked, leg_styles, legs_enhancement, Endpoint, JobSpec, SIMULATE_LEGS,
};
use tauhls::core::report::system_area_from_logic;
use tauhls::core::resilience::{resilience_sweep_with, ResilienceOptions};
use tauhls::core::stages::{self, BindStrategy, PipelineTrace, SynthesisInput, SynthesizedLogic};
use tauhls::dfg::{canonical_wire, dfg_to_text, parse_dfg, parse_wire_dfg, wire_hash, Dfg};
use tauhls::fsm::{control_unit_to_verilog, DistributedControlUnit, Encoding};
use tauhls::logic::AreaModel;
use tauhls::sched::BoundDfg;
use tauhls::serve::{client, signal, ServeConfig, Server};
use tauhls::sim::{latency_batch, BatchRunner, ControlStyle, ControlStyleSet, ElasticSpec};
use tauhls::Allocation;
use tauhls_json::{Json, ToJson};

/// The `--p` sweep when the flag is absent; `resilience` takes its first
/// value.
const DEFAULT_P: [f64; 3] = [0.9, 0.7, 0.5];

struct Options {
    muls: usize,
    adds: usize,
    subs: usize,
    chains: bool,
    encoding: Encoding,
    /// The `--p` values; empty when the flag is absent.
    p_values: Vec<f64>,
    trials: usize,
    seed: u64,
    threads: Option<usize>,
    json: bool,
    elastic: ElasticSpec,
    styles: ControlStyleSet,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            muls: 2,
            adds: 1,
            subs: 1,
            chains: false,
            encoding: Encoding::Binary,
            p_values: Vec::new(),
            trials: 2000,
            seed: 2003,
            threads: None,
            json: false,
            elastic: ElasticSpec::default(),
            styles: ControlStyleSet::DIST | ControlStyleSet::CENT | ControlStyleSet::ELASTIC,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tauhls <synth|simulate|resilience|report|verilog|dot> <file> \
         [--muls N] [--adds N] [--subs N] [--binding left-edge|chains] \
         [--encoding binary|gray|onehot] [--p 0.9,0.5] [--trials N] [--seed N] \
         [--threads N] [--skew N] [--sync-latency N] [--styles dist,cent,elastic] \
         [--json]\n       tauhls table2 [--trials N] [--seed N] [--threads N]\
         \n       tauhls explore <file> [--max-muls N] [--max-adds N] [--max-subs N] \
         [--encodings binary,gray] [--p 0.9,0.5] [--sd-ld 0.75,1.0] [--skew 0,2] \
         [--trials N] [--width N] [--seed N] [--threads N]\
         \n       tauhls dfg <validate|dot|convert> <file>\
         \n       tauhls serve [--addr HOST:PORT] [--workers N] [--queue N] \
         [--cache-mb N] [--stage-cache N] [--threads N] [--data-dir PATH] \
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
         \n\nDFG files may be classic `.dfg` text or the JSON wire format."
    );
    ExitCode::from(2)
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

fn load_dfg(path: &str) -> Result<Dfg, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_dfg_any(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--muls" => o.muls = value()?.parse().map_err(|e| format!("--muls: {e}"))?,
            "--adds" => o.adds = value()?.parse().map_err(|e| format!("--adds: {e}"))?,
            "--subs" => o.subs = value()?.parse().map_err(|e| format!("--subs: {e}"))?,
            "--binding" => {
                o.chains = match value()?.as_str() {
                    "chains" => true,
                    "left-edge" => false,
                    other => return Err(format!("unknown binding {other}")),
                }
            }
            "--encoding" => {
                o.encoding = match value()?.as_str() {
                    "binary" => Encoding::Binary,
                    "gray" => Encoding::Gray,
                    "onehot" => Encoding::OneHot,
                    other => return Err(format!("unknown encoding {other}")),
                }
            }
            "--p" => {
                o.p_values = value()?
                    .split(',')
                    .map(|t| t.parse::<f64>().map_err(|e| format!("--p: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--trials" => o.trials = value()?.parse().map_err(|e| format!("--trials: {e}"))?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => {
                o.threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--json" => o.json = true,
            "--skew" => {
                o.elastic.skew_bound = value()?.parse().map_err(|e| format!("--skew: {e}"))?
            }
            "--sync-latency" => {
                o.elastic.sync_latency = value()?
                    .parse()
                    .map_err(|e| format!("--sync-latency: {e}"))?
            }
            "--styles" => {
                let set = ControlStyleSet::parse(value()?).map_err(|e| format!("--styles: {e}"))?;
                if set.contains(ControlStyleSet::TAU) {
                    return Err("--styles supports dist, cent, and elastic".to_string());
                }
                if !set.contains(ControlStyleSet::DIST) {
                    return Err("--styles must include 'dist' (the engine under test)".to_string());
                }
                o.styles = set;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

/// One `--threads` mapping for every subcommand (and, via
/// [`BatchRunner::sized`], the `serve` worker pool too).
fn runner_for(threads: Option<usize>) -> BatchRunner {
    BatchRunner::sized(threads)
}

fn bind(path: &str, o: &Options) -> Result<BoundDfg, String> {
    let alloc = Allocation::paper(o.muls, o.adds, o.subs);
    bind_checked(&load_dfg(path)?, &alloc, o.chains)
}

/// Runs the staged pipeline, from parsed DFG to gate-level controllers,
/// under the requested allocation, binding and encoding.
fn run_pipeline(path: &str, o: &Options) -> Result<(Arc<SynthesizedLogic>, PipelineTrace), String> {
    let input = SynthesisInput {
        dfg: load_dfg(path)?,
        allocation: Allocation::paper(o.muls, o.adds, o.subs),
        strategy: if o.chains {
            BindStrategy::Chains
        } else {
            BindStrategy::LeftEdge
        },
    };
    let mut trace = PipelineTrace::default();
    let (logic, _) = stages::run_full(
        &input,
        false,
        o.encoding,
        &AreaModel::default(),
        None,
        &mut trace,
    )
    .map_err(|e| e.to_string())?;
    Ok((logic, trace))
}

/// `tauhls synth`: the full staged pipeline, from parsed DFG to gate-level
/// controllers, with the artifact-hash chain and per-stage wall times.
fn cmd_synth(path: &str, o: &Options) -> Result<(), String> {
    let (logic, trace) = run_pipeline(path, o)?;
    let bound = logic.controls().design().bound();
    let units = bound.allocation().units();
    if o.json {
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
                Json::from(if o.chains { "chains" } else { "left-edge" }),
            ),
            (
                "encoding",
                Json::from(format!("{:?}", o.encoding).to_lowercase().as_str()),
            ),
            ("stages", Json::array(stage_rows)),
            ("controllers", Json::array(controllers)),
        ]);
        println!("{}", body.to_pretty());
        return Ok(());
    }
    println!(
        "DFG '{}': {} ops, {} schedule arcs inserted",
        bound.dfg().name(),
        bound.dfg().num_ops(),
        bound.schedule_arcs().len()
    );
    let mut total = 0.0;
    println!(
        "{:<10} {:<24} {:>7} {:>5} {:>14}",
        "unit", "sequence", "states", "FFs", "area (GE)"
    );
    for (u, syn) in logic.controllers() {
        total += syn.area().total();
        println!(
            "{:<10} {:<24} {:>7} {:>5} {:>14.0}",
            units[u.0].display_name(),
            format!("{:?}", bound.sequence(*u)),
            syn.num_states(),
            syn.flip_flops(),
            syn.area().total()
        );
    }
    println!(
        "total control area: {total:.0} GE ({:?} encoding)",
        o.encoding
    );
    println!("{:<14} {:>16}  {:>9}", "stage", "artifact hash", "wall");
    for r in &trace.records {
        println!(
            "{:<14} {:016x}  {:>6} us",
            r.stage,
            r.output_hash,
            r.wall.as_micros()
        );
    }
    Ok(())
}

/// `tauhls report`: the whole-system area breakdown, its controller
/// figures read off the pipeline's `logic` artifact.
fn cmd_report(path: &str, o: &Options) -> Result<(), String> {
    let (logic, _) = run_pipeline(path, o)?;
    print!(
        "{}",
        system_area_from_logic(&logic, &AreaModel::default(), 16)
    );
    Ok(())
}

fn cmd_simulate(bound: &BoundDfg, o: &Options) -> Result<(), String> {
    let runner = runner_for(o.threads);
    let p_values = if o.p_values.is_empty() {
        &DEFAULT_P[..]
    } else {
        &o.p_values
    };
    let legs = latency_batch(
        bound,
        &leg_styles(o.elastic),
        p_values,
        0,
        o.trials as u64,
        o.seed,
        &runner,
    )
    .map_err(|e| e.to_string())?;
    let clk = 15.0;
    println!(
        "clock 15 ns, {} coupled trials at P = {p_values:?}",
        o.trials
    );
    for ((key, description, style), summary) in SIMULATE_LEGS.iter().zip(&legs) {
        let clocks = match style(o.elastic) {
            ControlStyle::Elastic(e) => format!(" s={},l={}", e.skew_bound, e.sync_latency),
            _ => String::new(),
        };
        let label = format!("{:<7} ({description}{clocks})", key.to_ascii_uppercase());
        println!("{label:<22} : {}", summary.to_ns_string(clk));
    }
    for (p, e) in p_values.iter().zip(legs_enhancement(&legs)) {
        println!("  P = {p}: {e:+.1}% enhancement");
    }
    Ok(())
}

fn cmd_resilience(bound: &BoundDfg, o: &Options) -> Result<(), String> {
    if o.trials == 0 {
        return Err("resilience sweep needs --trials >= 1".to_string());
    }
    let p = match o.p_values[..] {
        [] => DEFAULT_P[0],
        [p] => p,
        _ => return Err("resilience sweep takes one --p value, not a list".to_string()),
    };
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("--p {p} is not a probability"));
    }
    let runner = runner_for(o.threads);
    let opts = ResilienceOptions {
        styles: o.styles,
        elastic: o.elastic,
    };
    let report = resilience_sweep_with(bound, p, o.trials as u64, o.seed, &opts, &runner);
    print!("{}", report.to_json().to_pretty());
    Ok(())
}

/// `tauhls explore`: the Pareto design-space sweep, locally. The flags
/// assemble the exact `POST /v1/explore` job spec, so the printed body
/// is byte-identical to what the service would answer for the same
/// graph and knobs.
fn cmd_explore(path: &str, args: &[String]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut pairs: Vec<(&str, Json)> = Vec::new();
    if text.trim_start().starts_with('{') {
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        pairs.push(("dfg", doc));
    } else {
        pairs.push(("dfg_text", Json::from(text.as_str())));
    }
    let mut threads = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        let uint = |key: &'static str, v: &str| -> Result<(&'static str, Json), String> {
            let n: u64 = v.parse().map_err(|e| format!("{flag}: {e}"))?;
            Ok((key, Json::from(n)))
        };
        let floats = |key: &'static str, v: &str| -> Result<(&'static str, Json), String> {
            let vals = v
                .split(',')
                .map(|t| t.parse::<f64>().map_err(|e| format!("{flag}: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((
                key,
                Json::Array(vals.into_iter().map(Json::Float).collect()),
            ))
        };
        match flag.as_str() {
            "--max-muls" => pairs.push(uint("max_muls", value()?)?),
            "--max-adds" => pairs.push(uint("max_adds", value()?)?),
            "--max-subs" => pairs.push(uint("max_subs", value()?)?),
            "--trials" => pairs.push(uint("trials", value()?)?),
            "--width" => pairs.push(uint("width", value()?)?),
            "--seed" => pairs.push(uint("seed", value()?)?),
            "--p" => pairs.push(floats("p", value()?)?),
            "--sd-ld" => pairs.push(floats("sd_ld", value()?)?),
            "--skew" => {
                let vals = value()?
                    .split(',')
                    .map(|t| t.parse::<u64>().map_err(|e| format!("--skew: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                pairs.push((
                    "skew",
                    Json::Array(vals.into_iter().map(Json::from).collect()),
                ));
            }
            "--encodings" => pairs.push((
                "encodings",
                Json::Array(value()?.split(',').map(Json::from).collect()),
            )),
            "--threads" => threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?),
            other => return Err(format!("unknown explore option {other}")),
        }
    }
    let spec =
        JobSpec::from_json(Endpoint::Explore, &Json::object(pairs)).map_err(|e| e.to_string())?;
    let runner = runner_for(threads);
    let (body, _records) = spec.run_with(&runner, None).map_err(|e| e.to_string())?;
    println!("{}", body.to_pretty());
    Ok(())
}

/// `tauhls dfg`: wire-format tooling. `validate` answers the same
/// summary (and the same byte-offset diagnostics) as
/// `POST /v1/dfg/validate`; `dot` renders Graphviz; `convert` flips a
/// document between the wire format and the classic text format.
fn cmd_dfg(args: &[String]) -> Result<(), String> {
    let (Some(verb), Some(path)) = (args.first(), args.get(1)) else {
        return Err("dfg needs a verb (validate|dot|convert) and a file".to_string());
    };
    if args.len() > 2 {
        return Err(format!("too many arguments to dfg {verb}"));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match verb.as_str() {
        "validate" => {
            let dfg = parse_dfg_any(&text).map_err(|e| format!("{path}: {e}"))?;
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
            println!("{}", body.to_pretty());
        }
        "dot" => {
            let dfg = parse_dfg_any(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", tauhls::dfg::to_dot(&dfg, &[]));
        }
        "convert" => {
            let dfg = parse_dfg_any(&text).map_err(|e| format!("{path}: {e}"))?;
            if text.trim_start().starts_with('{') {
                print!("{}", dfg_to_text(&dfg));
            } else {
                println!("{canonical}", canonical = canonical_wire(&dfg));
            }
        }
        other => return Err(format!("unknown dfg verb '{other}' (validate|dot|convert)")),
    }
    Ok(())
}

/// Parses `tauhls serve` flags onto a [`ServeConfig`].
fn parse_serve_options(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--addr" => config.addr = value()?.clone(),
            "--workers" => {
                config.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                config.queue_capacity = value()?.parse().map_err(|e| format!("--queue: {e}"))?
            }
            "--cache-mb" => {
                let mb: usize = value()?.parse().map_err(|e| format!("--cache-mb: {e}"))?;
                config.cache_bytes = mb * 1024 * 1024;
            }
            "--stage-cache" => {
                config.stage_cache_entries = value()?
                    .parse()
                    .map_err(|e| format!("--stage-cache: {e}"))?
            }
            "--threads" => {
                config.sim_threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--data-dir" => config.data_dir = Some(std::path::PathBuf::from(value()?)),
            "--job-workers" => {
                config.job_workers = value()?
                    .parse()
                    .map_err(|e| format!("--job-workers: {e}"))?
            }
            "--job-queue" => {
                config.job_queue_capacity =
                    value()?.parse().map_err(|e| format!("--job-queue: {e}"))?
            }
            "--max-attempts" => {
                config.job_max_attempts = value()?
                    .parse()
                    .map_err(|e| format!("--max-attempts: {e}"))?
            }
            "--backoff-ms" => {
                let ms: u64 = value()?.parse().map_err(|e| format!("--backoff-ms: {e}"))?;
                config.job_backoff_base = Duration::from_millis(ms);
            }
            "--rate" => {
                config.admission_rate = value()?.parse().map_err(|e| format!("--rate: {e}"))?
            }
            "--burst" => {
                config.admission_burst = value()?.parse().map_err(|e| format!("--burst: {e}"))?
            }
            "--max-pending" => {
                config.max_pending_per_client = value()?
                    .parse()
                    .map_err(|e| format!("--max-pending: {e}"))?
            }
            "--coordinator" => config.coordinator = true,
            "--workers-file" => {
                config.workers_file = Some(std::path::PathBuf::from(value()?));
            }
            "--worker-of" => config.worker_of = Some(value()?.clone()),
            "--heartbeat-ms" => {
                let ms: u64 = value()?
                    .parse()
                    .map_err(|e| format!("--heartbeat-ms: {e}"))?;
                config.heartbeat_interval = Duration::from_millis(ms);
            }
            "--partition-timeout-ms" => {
                let ms: u64 = value()?
                    .parse()
                    .map_err(|e| format!("--partition-timeout-ms: {e}"))?;
                config.partition_timeout = Duration::from_millis(ms);
            }
            "--cluster-attempts" => {
                config.cluster_max_attempts = value()?
                    .parse()
                    .map_err(|e| format!("--cluster-attempts: {e}"))?
            }
            "--cluster-partitions" => {
                config.cluster_partitions = value()?
                    .parse()
                    .map_err(|e| format!("--cluster-partitions: {e}"))?
            }
            other => return Err(format!("unknown serve option {other}")),
        }
    }
    Ok(config)
}

/// `tauhls serve`: run the service until SIGTERM/ctrl-c, then drain.
fn cmd_serve(args: &[String]) -> ExitCode {
    let config = match parse_serve_options(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    signal::install_handlers();
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts (and the integration tests) read the resolved address off
    // this line, so flush it out before blocking.
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("shutdown requested: draining in-flight jobs");
    server.shutdown();
    ExitCode::SUCCESS
}

/// `tauhls cluster status`: the cluster section of a running server's
/// `/v1/status` — role, workers with health and heartbeat age, and the
/// partition lifecycle counters.
fn cmd_cluster(args: &[String]) -> ExitCode {
    let mut addr = ServeConfig::default().addr;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => {
                    eprintln!("error: missing value for --addr");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown cluster option {flag}");
                return ExitCode::FAILURE;
            }
            _ => positional.push(arg),
        }
    }
    if positional.len() != 1 || positional[0].as_str() != "status" {
        eprintln!("error: cluster needs the verb 'status'");
        return ExitCode::FAILURE;
    }
    match client::request(&addr, "GET", "/v1/status", None, Duration::from_secs(30)) {
        Ok(response) if response.status == 200 => {
            let section = Json::parse(&response.body).ok().and_then(|doc| {
                doc.as_object()?
                    .iter()
                    .find(|(k, _)| k == "cluster")
                    .map(|(_, v)| v.to_pretty())
            });
            match section {
                Some(body) => {
                    print!("{body}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("error: status body carries no cluster section");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(response) => {
            eprintln!(
                "error: HTTP {} from /v1/status: {}",
                response.status,
                response.body.trim()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `tauhls call`: one request against a running service.
fn cmd_call(args: &[String]) -> ExitCode {
    let mut addr = ServeConfig::default().addr;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => {
                    eprintln!("error: missing value for --addr");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown call option {flag}");
                return ExitCode::FAILURE;
            }
            _ => positional.push(arg),
        }
    }
    let (Some(endpoint), spec_path) = (positional.first(), positional.get(1)) else {
        eprintln!(
            "error: call needs an endpoint \
             (simulate|table2|resilience|synth|area|explore|status|healthz|metrics)"
        );
        return ExitCode::FAILURE;
    };
    if positional.len() > 2 {
        eprintln!("error: too many arguments to call");
        return ExitCode::FAILURE;
    }
    let (method, path) = match endpoint.as_str() {
        "healthz" => ("GET", "/healthz".to_string()),
        "metrics" => ("GET", "/metrics".to_string()),
        "status" => ("GET", "/v1/status".to_string()),
        name if Endpoint::parse(name).is_some() => ("POST", format!("/v1/{name}")),
        other => {
            eprintln!(
                "error: unknown endpoint '{other}' \
                 (simulate|table2|resilience|synth|area|explore|status|healthz|metrics)"
            );
            return ExitCode::FAILURE;
        }
    };
    let body = match spec_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => "{}".to_string(),
    };
    let payload = (method == "POST").then_some(body.as_str());
    match client::request(&addr, method, &path, payload, Duration::from_secs(600)) {
        Ok(response) if response.status == 200 => {
            print!("{}", response.body);
            ExitCode::SUCCESS
        }
        Ok(response) => {
            eprintln!(
                "error: HTTP {} from {path}: {}",
                response.status,
                response.body.trim()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `tauhls jobs`: submit to and poll the async job endpoints.
fn cmd_jobs(args: &[String]) -> ExitCode {
    let mut addr = ServeConfig::default().addr;
    let mut client_name: Option<String> = None;
    let mut priority: Option<String> = None;
    let mut wait = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| match it.next() {
            Some(v) => Ok(v.clone()),
            None => Err(format!("missing value for {flag}")),
        };
        let parsed = match arg.as_str() {
            "--addr" => value("--addr").map(|v| addr = v),
            "--client" => value("--client").map(|v| client_name = Some(v)),
            "--priority" => value("--priority").map(|v| priority = Some(v)),
            "--wait" => {
                wait = true;
                Ok(())
            }
            flag if flag.starts_with("--") => Err(format!("unknown jobs option {flag}")),
            _ => {
                positional.push(arg);
                Ok(())
            }
        };
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let Some(verb) = positional.first() else {
        eprintln!("error: jobs needs a verb (submit|status|result|cancel)");
        return ExitCode::FAILURE;
    };
    let timeout = Duration::from_secs(600);
    match verb.as_str() {
        "submit" => {
            let Some(endpoint) = positional.get(1) else {
                eprintln!(
                    "error: jobs submit needs an endpoint \
                     (simulate|table2|resilience|synth|area|explore)"
                );
                return ExitCode::FAILURE;
            };
            if Endpoint::parse(endpoint).is_none() {
                eprintln!("error: unknown endpoint '{endpoint}'");
                return ExitCode::FAILURE;
            }
            if positional.len() > 3 {
                eprintln!("error: too many arguments to jobs submit");
                return ExitCode::FAILURE;
            }
            let spec = match positional.get(2) {
                Some(p) => match std::fs::read_to_string(p) {
                    Ok(text) => match Json::parse(&text) {
                        Ok(_) => text,
                        Err(e) => {
                            eprintln!("error: {p}: invalid JSON: {e}");
                            return ExitCode::FAILURE;
                        }
                    },
                    Err(e) => {
                        eprintln!("error: {p}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => "{}".to_string(),
            };
            let body = format!("{{\"endpoint\":\"{endpoint}\",\"spec\":{spec}}}");
            let mut headers: Vec<(&str, &str)> = Vec::new();
            if let Some(name) = client_name.as_deref() {
                headers.push(("X-Client", name));
            }
            if let Some(p) = priority.as_deref() {
                headers.push(("X-Priority", p));
            }
            let response = match client::request_with(
                &addr,
                "POST",
                "/v1/jobs",
                &headers,
                Some(&body),
                timeout,
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if response.status != 200 && response.status != 202 {
                eprintln!(
                    "error: HTTP {} from /v1/jobs: {}",
                    response.status,
                    response.body.trim()
                );
                return ExitCode::FAILURE;
            }
            let id = Json::parse(&response.body)
                .ok()
                .and_then(|j| j.get("job").and_then(|v| v.as_str().map(String::from)));
            let Some(id) = id else {
                eprintln!("error: submit response has no job id: {}", response.body);
                return ExitCode::FAILURE;
            };
            if !wait {
                print!("{}", response.body);
                return ExitCode::SUCCESS;
            }
            jobs_wait_and_print(&addr, &id, timeout)
        }
        "status" | "result" | "cancel" => {
            let Some(id) = positional.get(1) else {
                eprintln!("error: jobs {verb} needs a job id");
                return ExitCode::FAILURE;
            };
            if positional.len() > 2 {
                eprintln!("error: too many arguments to jobs {verb}");
                return ExitCode::FAILURE;
            }
            let (method, path) = match verb.as_str() {
                "status" => ("GET", format!("/v1/jobs/{id}")),
                "result" => ("GET", format!("/v1/jobs/{id}/result")),
                _ => ("DELETE", format!("/v1/jobs/{id}")),
            };
            match client::request(&addr, method, &path, None, timeout) {
                Ok(r) if r.status == 200 => {
                    print!("{}", r.body);
                    ExitCode::SUCCESS
                }
                Ok(r) => {
                    eprintln!("error: HTTP {} from {path}: {}", r.status, r.body.trim());
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => {
            eprintln!("error: unknown jobs verb '{other}' (submit|status|result|cancel)");
            ExitCode::FAILURE
        }
    }
}

/// Polls a job until it reaches a terminal state, then prints its result
/// body (the `--wait` path of `tauhls jobs submit`).
fn jobs_wait_and_print(addr: &str, id: &str, timeout: Duration) -> ExitCode {
    let path = format!("/v1/jobs/{id}");
    loop {
        let response = match client::request(addr, "GET", &path, None, timeout) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if response.status != 200 {
            eprintln!(
                "error: HTTP {} from {path}: {}",
                response.status,
                response.body.trim()
            );
            return ExitCode::FAILURE;
        }
        let state = Json::parse(&response.body)
            .ok()
            .and_then(|j| j.get("state").and_then(|v| v.as_str().map(String::from)))
            .unwrap_or_default();
        match state.as_str() {
            "done" => break,
            "failed" | "cancelled" => {
                eprintln!("error: job {id} ended {state}: {}", response.body.trim());
                return ExitCode::FAILURE;
            }
            _ => std::thread::sleep(Duration::from_millis(200)),
        }
    }
    match client::request(addr, "GET", &format!("{path}/result"), None, timeout) {
        Ok(r) if r.status == 200 => {
            print!("{}", r.body);
            ExitCode::SUCCESS
        }
        Ok(r) => {
            eprintln!(
                "error: HTTP {} from {path}/result: {}",
                r.status,
                r.body.trim()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    // The service subcommands parse their own flags.
    if cmd == "serve" {
        return cmd_serve(&args[1..]);
    }
    if cmd == "call" {
        return cmd_call(&args[1..]);
    }
    if cmd == "jobs" {
        return cmd_jobs(&args[1..]);
    }
    if cmd == "cluster" {
        return cmd_cluster(&args[1..]);
    }
    if cmd == "dfg" {
        return match cmd_dfg(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "explore" {
        let Some(path) = args.get(1) else {
            return usage();
        };
        return match cmd_explore(path, &args[2..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // `table2` runs the built-in paper suite and takes no DFG file.
    if cmd == "table2" {
        let options = match parse_options(&args[1..]) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
        let runner = runner_for(options.threads);
        let table = match tauhls::core::experiments::table2(options.trials, options.seed, &runner) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{table}");
        return ExitCode::SUCCESS;
    }
    let Some(path) = args.get(1) else {
        return usage();
    };
    let options = match parse_options(&args[2..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    // `synth` and `report` route through the staged pipeline, which does
    // its own binding and validation.
    if cmd == "synth" || cmd == "report" {
        let run = if cmd == "synth" {
            cmd_synth
        } else {
            cmd_report
        };
        return match run(path, &options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let bound = match bind(path, &options) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "simulate" | "resilience" => {
            let run = if cmd == "simulate" {
                cmd_simulate
            } else {
                cmd_resilience
            };
            if let Err(e) = run(&bound, &options) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "verilog" => {
            let cu = DistributedControlUnit::generate(&bound);
            print!(
                "{}",
                control_unit_to_verilog(&cu, options.encoding, &AreaModel::default())
            );
        }
        "dot" => {
            print!(
                "{}",
                tauhls::dfg::to_dot(bound.dfg(), bound.schedule_arcs())
            );
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_and_overrides() {
        let o = parse_options(&[]).unwrap();
        assert_eq!((o.muls, o.adds, o.subs), (2, 1, 1));
        assert!(!o.chains);
        let o = parse_options(&args(
            "--muls 3 --adds 2 --subs 0 --binding chains --encoding onehot --p 0.8,0.4 --trials 10 --seed 5 --threads 2",
        ))
        .unwrap();
        assert_eq!((o.muls, o.adds, o.subs), (3, 2, 0));
        assert!(o.chains);
        assert_eq!(o.encoding, Encoding::OneHot);
        assert_eq!(o.p_values, vec![0.8, 0.4]);
        assert_eq!(o.trials, 10);
        assert_eq!(o.seed, 5);
        assert_eq!(o.threads, Some(2));
    }

    #[test]
    fn elastic_and_styles_flags_parse_and_reject() {
        let o = parse_options(&[]).unwrap();
        assert_eq!(o.elastic, ElasticSpec::default());
        assert!(o.styles.contains(ControlStyleSet::ELASTIC));
        let o = parse_options(&args("--skew 3 --sync-latency 2 --styles dist,elastic")).unwrap();
        assert_eq!(o.elastic.skew_bound, 3);
        assert_eq!(o.elastic.sync_latency, 2);
        assert!(o.styles.contains(ControlStyleSet::DIST));
        assert!(o.styles.contains(ControlStyleSet::ELASTIC));
        assert!(!o.styles.contains(ControlStyleSet::CENT));
        // The GALS alias resolves to the elastic style.
        let o = parse_options(&args("--styles dist,gals")).unwrap();
        assert!(o.styles.contains(ControlStyleSet::ELASTIC));
        assert!(parse_options(&args("--skew x")).is_err());
        assert!(parse_options(&args("--styles cent,elastic")).is_err());
        assert!(parse_options(&args("--styles tau,dist")).is_err());
        assert!(parse_options(&args("--styles nope")).is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse_options(&args("--muls")).is_err());
        assert!(parse_options(&args("--muls x")).is_err());
        assert!(parse_options(&args("--binding sideways")).is_err());
        assert!(parse_options(&args("--encoding hex")).is_err());
        assert!(parse_options(&args("--p 0.9,oops")).is_err());
        assert!(parse_options(&args("--wat 1")).is_err());
    }

    #[test]
    fn bind_reports_missing_file_and_bad_alloc() {
        let o = Options::default();
        assert!(bind("/nonexistent/x.dfg", &o).is_err());
    }

    #[test]
    fn serve_options_parse_and_reject() {
        let c = parse_serve_options(&args(
            "--addr 0.0.0.0:9000 --workers 2 --queue 8 --cache-mb 4 --stage-cache 16 --threads 1",
        ))
        .unwrap();
        assert_eq!(c.addr, "0.0.0.0:9000");
        assert_eq!((c.workers, c.queue_capacity), (2, 8));
        assert_eq!(c.cache_bytes, 4 * 1024 * 1024);
        assert_eq!(c.stage_cache_entries, 16);
        assert_eq!(c.sim_threads, Some(1));
        assert!(parse_serve_options(&args("--workers")).is_err());
        assert!(parse_serve_options(&args("--cache-mb x")).is_err());
        assert!(parse_serve_options(&args("--stage-cache x")).is_err());
        assert!(parse_serve_options(&args("--wat 1")).is_err());
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
