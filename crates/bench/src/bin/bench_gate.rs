//! Perf-regression gate over the committed `BENCH_*.json` baselines.
//!
//! Compares a freshly generated bench report (`kernel_smoke`,
//! `serve_smoke`, or `synth_smoke` output) against the baseline committed
//! under `results/bench_baseline/` and fails when any throughput metric
//! regresses by more than the tolerance (10% by default). Individual
//! metrics can be waived with `--allow <metric>` when a regression is
//! understood and accepted — the waiver is printed, never silent.
//!
//! For the kernel report the gate also enforces the bit-sliced engine's
//! reason to exist: aggregate `dist_sliced` throughput must be at least
//! 10x aggregate scalar `dist` throughput *within the fresh file*. That
//! ratio compares two numbers from the same run on the same machine, so
//! it holds regardless of how fast the CI runner is; the absolute
//! baseline comparison is the noisier cross-run check the tolerance and
//! allowlist exist for. Likewise machine-independent: every engine ×
//! benchmark row of the kernel baseline must reappear with exactly its
//! `total_cycles`, which the fixed seed and trial count determine, and
//! with no more heap `allocs` than the baseline row records: a ceiling
//! that, like the cycle count, depends on the code alone.
//!
//! Usage:
//! ```text
//! bench_gate <kernel|serve|synth> <fresh.json> <baseline.json>
//!            [--tolerance 0.10] [--allow <metric>]...
//! ```
//!
//! Exit codes: 0 = pass, 1 = regression, 2 = usage/parse error.

use std::process::ExitCode;
use tauhls_json::Json;

/// Relative throughput drop (0.10 = 10%) tolerated before failing.
const DEFAULT_TOLERANCE: f64 = 0.10;

/// The sliced distributed engine must clear this speedup over the scalar
/// one within a single kernel report.
const MIN_SLICED_DIST_SPEEDUP: f64 = 10.0;

/// Named throughput metrics extracted from one bench report. Higher is
/// always better for every metric the gate tracks.
fn metrics(kind: &str, report: &Json) -> Result<Vec<(String, f64)>, String> {
    match kind {
        "kernel" => kernel_rows(report)?
            .into_iter()
            .map(|(key, row)| {
                let cps = row
                    .get("cycles_per_sec")
                    .and_then(Json::as_f64)
                    .ok_or("engine row missing cycles_per_sec")?;
                Ok((key, cps))
            })
            .collect(),
        "serve" | "synth" => {
            let fields = report.as_object().ok_or("report is not a JSON object")?;
            let found: Vec<_> = fields
                .iter()
                .filter(|(key, _)| key.ends_with("_per_sec"))
                .map(|(key, value)| {
                    let v = value
                        .as_f64()
                        .ok_or_else(|| format!("{key} is not a number"))?;
                    Ok((format!("{kind}/{key}"), v))
                })
                .collect::<Result<_, String>>()?;
            if found.is_empty() {
                return Err(format!("{kind} report has no *_per_sec metrics"));
            }
            Ok(found)
        }
        other => Err(format!("unknown report kind {other:?}")),
    }
}

/// The `engines[]` rows of a kernel report, keyed
/// `kernel/<engine>/<benchmark>`.
fn kernel_rows(report: &Json) -> Result<Vec<(String, &Json)>, String> {
    let rows = report
        .get("engines")
        .and_then(Json::as_array)
        .ok_or("kernel report has no engines[] array")?;
    rows.iter()
        .map(|row| {
            let field = |name: &str| {
                (row.get(name).and_then(Json::as_str))
                    .ok_or_else(|| format!("engine row missing {name} name"))
            };
            Ok((
                format!("kernel/{}/{}", field("engine")?, field("benchmark")?),
                row,
            ))
        })
        .collect()
}

/// The exact rows: every baseline kernel row whose fresh twin is missing
/// or simulated a different `total_cycles`, described for the report.
fn total_cycles_mismatches(baseline: &Json, fresh: &Json) -> Result<Vec<String>, String> {
    let cycles = |row: &Json| row.get("total_cycles").and_then(Json::as_u64);
    let fresh = kernel_rows(fresh)?;
    let mut mismatches = Vec::new();
    for (key, row) in kernel_rows(baseline)? {
        let want = cycles(row).ok_or("engine row missing total_cycles")?;
        match fresh
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, r)| cycles(r))
        {
            Some(Some(got)) if got == want => {}
            Some(Some(got)) => mismatches.push(format!("{key} total_cycles {got} != {want}")),
            _ => mismatches.push(format!("{key} missing from the fresh report")),
        }
    }
    Ok(mismatches)
}

/// The allocation ceiling: every baseline kernel row with an `allocs`
/// count whose fresh twin allocated more, or reports no count, described
/// for the report. Rows missing from the fresh report are left to
/// [`total_cycles_mismatches`].
fn allocs_increases(baseline: &Json, fresh: &Json) -> Result<Vec<String>, String> {
    let allocs = |row: &Json| row.get("allocs").and_then(Json::as_u64);
    let fresh = kernel_rows(fresh)?;
    let mut increases = Vec::new();
    for (key, row) in kernel_rows(baseline)? {
        let Some(ceiling) = allocs(row) else { continue };
        match fresh
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, r)| allocs(r))
        {
            Some(Some(got)) if got > ceiling => {
                increases.push(format!("{key} allocs {got} > {ceiling}"))
            }
            Some(None) => increases.push(format!("{key} reports no allocs")),
            _ => {}
        }
    }
    Ok(increases)
}

/// One metric that fell more than the tolerance below its baseline.
#[derive(Debug, PartialEq)]
struct Regression {
    metric: String,
    baseline: f64,
    fresh: f64,
    waived: bool,
}

impl Regression {
    fn drop_pct(&self) -> f64 {
        (1.0 - self.fresh / self.baseline) * 100.0
    }
}

/// Compares fresh metrics against the baseline. Metrics present only on
/// one side are ignored (new benchmarks don't fail the gate; the next
/// baseline refresh picks them up), but a regressed metric is reported
/// even when waived.
fn compare(
    baseline: &[(String, f64)],
    fresh: &[(String, f64)],
    tolerance: f64,
    allow: &[String],
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for (metric, base) in baseline {
        let Some((_, new)) = fresh.iter().find(|(m, _)| m == metric) else {
            continue;
        };
        if *base > 0.0 && *new < *base * (1.0 - tolerance) {
            regressions.push(Regression {
                metric: metric.clone(),
                baseline: *base,
                fresh: *new,
                waived: allow.iter().any(|a| a == metric),
            });
        }
    }
    regressions
}

/// Aggregate cycles-per-second for one engine across every benchmark row
/// of a kernel report: total simulated cycles over total wall-clock.
fn aggregate_cycles_per_sec(report: &Json, engine: &str) -> Result<f64, String> {
    let rows = report
        .get("engines")
        .and_then(Json::as_array)
        .ok_or("kernel report has no engines[] array")?;
    let mut cycles = 0u64;
    let mut ns = 0u64;
    for row in rows {
        if row.get("engine").and_then(Json::as_str) == Some(engine) {
            cycles += row
                .get("total_cycles")
                .and_then(Json::as_u64)
                .ok_or("engine row missing total_cycles")?;
            ns += row
                .get("elapsed_ns")
                .and_then(Json::as_u64)
                .ok_or("engine row missing elapsed_ns")?;
        }
    }
    if ns == 0 {
        return Err(format!("kernel report has no {engine} rows"));
    }
    Ok(cycles as f64 / (ns as f64 / 1e9))
}

/// The machine-independent check: within one kernel report, the sliced
/// distributed engine must be at least [`MIN_SLICED_DIST_SPEEDUP`] times
/// the scalar one.
fn sliced_dist_speedup(report: &Json) -> Result<f64, String> {
    let scalar = aggregate_cycles_per_sec(report, "dist")?;
    let sliced = aggregate_cycles_per_sec(report, "dist_sliced")?;
    Ok(sliced / scalar)
}

fn usage() -> String {
    "usage: bench_gate <kernel|serve|synth> <fresh.json> <baseline.json> \
     [--tolerance 0.10] [--allow <metric>]..."
        .to_string()
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut positional = Vec::new();
    let mut allow = Vec::new();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--allow" => allow.push(it.next().ok_or("--allow needs a metric name")?.clone()),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
            }
            _ => positional.push(arg.clone()),
        }
    }
    let [kind, fresh_path, baseline_path] = positional.as_slice() else {
        return Err(usage());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let fresh = load(fresh_path)?;
    let baseline = load(baseline_path)?;

    let fresh_metrics = metrics(kind, &fresh)?;
    let baseline_metrics = metrics(kind, &baseline)?;
    let regressions = compare(&baseline_metrics, &fresh_metrics, tolerance, &allow);

    let mut pass = true;
    for r in &regressions {
        let tag = if r.waived { "WAIVED" } else { "FAIL" };
        println!(
            "{tag}: {} dropped {:.1}% ({:.0} -> {:.0})",
            r.metric,
            r.drop_pct(),
            r.baseline,
            r.fresh
        );
        pass &= r.waived;
    }
    let checked = baseline_metrics
        .iter()
        .filter(|(m, _)| fresh_metrics.iter().any(|(f, _)| f == m))
        .count();
    println!(
        "{kind}: {checked} metrics within {:.0}% of baseline ({} regressed, {} waived)",
        tolerance * 100.0,
        regressions.len(),
        regressions.iter().filter(|r| r.waived).count()
    );

    if *kind == "kernel" {
        let mismatches = total_cycles_mismatches(&baseline, &fresh)?;
        for m in &mismatches {
            println!("FAIL: {m}");
        }
        pass &= mismatches.is_empty();
        println!(
            "kernel: {} total_cycles rows differ from baseline",
            mismatches.len()
        );
        let increases = allocs_increases(&baseline, &fresh)?;
        for m in &increases {
            println!("FAIL: {m}");
        }
        pass &= increases.is_empty();
        println!(
            "kernel: {} rows allocate above their baseline allocs",
            increases.len()
        );
        let speedup = sliced_dist_speedup(&fresh)?;
        if speedup < MIN_SLICED_DIST_SPEEDUP {
            println!(
                "FAIL: sliced dist speedup {speedup:.2}x below required \
                 {MIN_SLICED_DIST_SPEEDUP:.0}x"
            );
            pass = false;
        } else {
            println!(
                "kernel: sliced dist speedup {speedup:.2}x (>= {MIN_SLICED_DIST_SPEEDUP:.0}x)"
            );
        }
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_report(rows: &[(&str, &str, u64, u64)]) -> Json {
        Json::object([(
            "engines",
            Json::array(rows.iter().map(|(engine, benchmark, cycles, ns)| {
                Json::object([
                    ("engine", Json::from(*engine)),
                    ("benchmark", Json::from(*benchmark)),
                    ("total_cycles", Json::from(*cycles)),
                    ("elapsed_ns", Json::from(*ns)),
                    (
                        "cycles_per_sec",
                        Json::from(*cycles as f64 / (*ns as f64 / 1e9)),
                    ),
                ])
            })),
        )])
    }

    #[test]
    fn kernel_metrics_are_per_engine_per_benchmark() {
        let report = kernel_report(&[("dist", "fir3", 1000, 1_000_000)]);
        let m = metrics("kernel", &report).unwrap();
        assert_eq!(m, vec![("kernel/dist/fir3".to_string(), 1_000_000.0)]);
    }

    #[test]
    fn serve_metrics_pick_per_sec_keys_only() {
        let report = Json::object([
            ("mode", Json::from("subprocess")),
            ("hit_requests_per_sec", Json::from(200.0)),
            ("cache_hits", Json::from(17.0)),
        ]);
        let m = metrics("serve", &report).unwrap();
        assert_eq!(m, vec![("serve/hit_requests_per_sec".to_string(), 200.0)]);
    }

    #[test]
    fn compare_flags_only_drops_beyond_tolerance() {
        let baseline = vec![
            ("a".to_string(), 100.0),
            ("b".to_string(), 100.0),
            ("gone".to_string(), 100.0),
        ];
        let fresh = vec![
            ("a".to_string(), 91.0),  // -9%: inside tolerance
            ("b".to_string(), 80.0),  // -20%: regression
            ("new".to_string(), 1.0), // not in baseline: ignored
        ];
        let out = compare(&baseline, &fresh, 0.10, &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].metric, "b");
        assert!(!out[0].waived);
        assert!((out[0].drop_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn allowlist_waives_but_still_reports() {
        let baseline = vec![("b".to_string(), 100.0)];
        let fresh = vec![("b".to_string(), 50.0)];
        let out = compare(&baseline, &fresh, 0.10, &["b".to_string()]);
        assert_eq!(out.len(), 1);
        assert!(out[0].waived);
    }

    #[test]
    fn sliced_speedup_aggregates_across_benchmarks() {
        // dist: 2000 cycles in 2ms = 1M cps; sliced: 2000 in 0.1ms = 20M.
        let report = kernel_report(&[
            ("dist", "fir3", 1000, 1_000_000),
            ("dist", "fir5", 1000, 1_000_000),
            ("dist_sliced", "fir3", 1000, 50_000),
            ("dist_sliced", "fir5", 1000, 50_000),
        ]);
        let speedup = sliced_dist_speedup(&report).unwrap();
        assert!((speedup - 20.0).abs() < 1e-9);
    }

    #[test]
    fn total_cycles_must_match_the_baseline_exactly() {
        let baseline = kernel_report(&[
            ("dist", "fir3", 1000, 1_000_000),
            ("cent", "fir3", 1000, 1_000_000),
        ]);
        // Timing may differ freely; cycles may not.
        let same = kernel_report(&[
            ("cent", "fir3", 1000, 9_000_000),
            ("dist", "fir3", 1000, 50),
        ]);
        assert!(total_cycles_mismatches(&baseline, &same)
            .unwrap()
            .is_empty());
        let drifted = kernel_report(&[("dist", "fir3", 1001, 1_000_000)]);
        assert_eq!(
            total_cycles_mismatches(&baseline, &drifted).unwrap(),
            vec![
                "kernel/dist/fir3 total_cycles 1001 != 1000".to_string(),
                "kernel/cent/fir3 missing from the fresh report".to_string(),
            ]
        );
    }

    #[test]
    fn allocs_must_not_rise_above_the_baseline() {
        let with_allocs = |rows: &[(&str, u64)]| {
            Json::object([(
                "engines",
                Json::array(rows.iter().map(|(engine, allocs)| {
                    Json::object([
                        ("engine", Json::from(*engine)),
                        ("benchmark", Json::from("fir3")),
                        ("allocs", Json::from(*allocs)),
                    ])
                })),
            )])
        };
        let baseline = with_allocs(&[("dist", 100), ("dist_sliced", 10)]);
        // Fewer or equal allocations pass; a new row has no ceiling.
        let fewer = with_allocs(&[("dist", 100), ("dist_sliced", 3), ("legs", 9)]);
        assert!(allocs_increases(&baseline, &fewer).unwrap().is_empty());
        let more = with_allocs(&[("dist", 101), ("dist_sliced", 10)]);
        assert_eq!(
            allocs_increases(&baseline, &more).unwrap(),
            vec!["kernel/dist/fir3 allocs 101 > 100".to_string()]
        );
        // A row that stops counting cannot pass the ceiling.
        let uncounted = kernel_report(&[("dist_sliced", "fir3", 1, 1)]);
        assert_eq!(
            allocs_increases(&baseline, &uncounted).unwrap(),
            vec!["kernel/dist_sliced/fir3 reports no allocs".to_string()]
        );
    }

    #[test]
    fn missing_engine_rows_are_an_error_not_a_pass() {
        let report = kernel_report(&[("dist", "fir3", 1000, 1_000_000)]);
        assert!(sliced_dist_speedup(&report).is_err());
    }
}
