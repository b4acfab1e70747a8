//! How a job runs and renders, on one node or across a cluster.
//!
//! Every job runs as a partition plan: [`plan`] splits a [`JobSpec`] into
//! contiguous partitions over the spec's natural unit axis, [`run_part`]
//! runs one partition to a partial result, and [`merge`] reassembles the
//! partials into the response body. A single-node run is the one-part
//! plan — [`JobSpec::run_with`] is `merge` of `run_part` over the whole
//! axis — and a coordinator ships each partition of a larger plan to a
//! worker. The invariant this module owes the cluster is
//! **byte-identity**: the body [`merge`] produces is the same at any
//! partition count, for every job kind. Three design rules deliver it:
//!
//! 1. **Global coordinates on the wire.** Every partition runs its slice
//!    with the *global* indices a single-node run would use — simulate
//!    seeds each `P` leg by its index in the full `p_values` list,
//!    resilience seeds each fault kind by its [`FAULT_KINDS`] index, and
//!    explore seeds each allocation by its own triple — so a unit's
//!    numbers never depend on which partition it landed in.
//! 2. **Exact values in partials.** Partials carry raw `u64` counters and
//!    `f64` measurements. Integers are exact by construction; floats are
//!    exact because `tauhls-json` renders shortest-roundtrip, so
//!    `f64 → JSON → f64` is the identity for finite values.
//! 3. **One body builder.** Response bodies are rendered only here, by
//!    [`merge`], from the in-memory structures (latency summaries,
//!    resilience counters, sweep points) it reassembles — and a
//!    single-node run is the one-part plan, so it goes through the same
//!    merge. Cross-grid post-processing (Pareto marking, enhancement
//!    rows) is computed over the merged whole.
//!
//! The unit axes: simulate partitions over `p_values`, resilience over
//! the six fault kinds, explore over the deterministic allocation
//! enumeration. `table2`, `synth`, and `area` have no partitionable axis
//! and plan as a single partition whose partial embeds the whole body.

use crate::experiments::table2;
use crate::explore::{design_space_slice, enumerate_allocations, mark_scenario_pareto, SweepPoint};
use crate::jobspec::{
    encoding_name, legs_enhancement, parse_encoding, JobError, JobSpec, SIMULATE_LEGS,
};
use crate::report::system_area_from_logic;
use crate::resilience::{report_from_counters, KindCounters, COUNTER_FIELDS, FAULT_KINDS};
use crate::stages::{PipelineTrace, StageCache, StageRecord, SynthesizedLogic};
use crate::Timing;
use tauhls_json::{Json, ToJson};
use tauhls_logic::AreaModel;
use tauhls_sim::{BatchRunner, LatencySummary};

/// One contiguous slice of a job's partition axis.
///
/// `lo..hi` are global unit indices; the planner's slices tile the axis
/// in index order, so concatenating partial results by `index` recovers
/// single-node unit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Part {
    /// Position of this partition in the plan (0-based).
    pub index: usize,
    /// Number of partitions in the plan.
    pub total: usize,
    /// First unit covered (inclusive, global index).
    pub lo: usize,
    /// One past the last unit covered (global index).
    pub hi: usize,
}

/// The length of `spec`'s partition axis: swept `P` values for simulate,
/// fault kinds for resilience, covering allocations for explore, and `1`
/// for the indivisible kinds.
pub fn unit_count(spec: &JobSpec) -> usize {
    match spec {
        JobSpec::Simulate(s) => s.p_values.len(),
        JobSpec::Resilience(_) => FAULT_KINDS.len(),
        JobSpec::Explore(s) => enumerate_allocations(&s.graph, &s.sweep_params()).len(),
        JobSpec::Table2(_) | JobSpec::Synth(_) | JobSpec::Area(_) => 1,
    }
}

/// Plans `spec` into at most `max_parts` contiguous partitions.
///
/// Partition `k` of `n` covers units `[k·U/n, (k+1)·U/n)` — the same
/// arithmetic on every node, so a coordinator and a worker handed only
/// `(spec, k, n)` agree on the slice without negotiation. The plan never
/// exceeds the unit count (no empty partitions) and is never empty.
pub fn plan(spec: &JobSpec, max_parts: usize) -> Vec<Part> {
    let units = unit_count(spec);
    let total = max_parts.max(1).min(units.max(1));
    (0..total)
        .map(|k| Part {
            index: k,
            total,
            lo: k * units / total,
            hi: (k + 1) * units / total,
        })
        .collect()
}

/// Recomputes the slice partition `index` of `total` covers — the
/// worker-side half of [`plan`], for a node that received only the
/// coordinates.
///
/// # Errors
///
/// [`JobError::Invalid`] when the coordinates are out of range for the
/// spec (wrong `total`, or `index >= total`).
pub fn part_for(spec: &JobSpec, index: usize, total: usize) -> Result<Part, JobError> {
    let parts = plan(spec, total);
    if parts.len() != total {
        return Err(JobError::Invalid(format!(
            "job splits into at most {} parts, not {total}",
            parts.len()
        )));
    }
    parts
        .get(index)
        .copied()
        .ok_or_else(|| JobError::Invalid(format!("part {index} out of range for {total} parts")))
}

/// Runs one partition of `spec` to its partial-result JSON.
///
/// The partial carries the partition coordinates plus exactly the values
/// [`merge`] needs: per-`P` latency legs (simulate), raw fault-kind
/// counters (resilience), unmarked sweep points (explore), or the whole
/// response body (the indivisible kinds). Stage records from synthesis
/// work are returned alongside for the caller's stage metrics.
///
/// # Errors
///
/// As [`JobSpec::run_with`], plus [`JobError::Invalid`] for slice bounds
/// that don't fit the spec.
pub fn run_part(
    spec: &JobSpec,
    part: Part,
    runner: &BatchRunner,
    stage_cache: Option<&StageCache>,
) -> Result<(Json, Vec<StageRecord>), JobError> {
    let (payload, records) = match spec {
        JobSpec::Simulate(s) => {
            let summaries = s.measure_legs(part.lo..part.hi, runner)?;
            let legs = SIMULATE_LEGS
                .iter()
                .zip(&summaries)
                .map(|((key, _, _), summary)| (*key, summary_json(summary, None)));
            (("legs", Json::object(legs)), Vec::new())
        }
        JobSpec::Resilience(s) => {
            let counters = s.kind_counters(part.lo..part.hi, runner)?;
            let rows = counters.into_iter().map(|mut c| {
                Json::object(COUNTER_FIELDS.map(|(name, field)| (name, Json::from(*field(&mut c)))))
            });
            (("counters", Json::array(rows)), Vec::new())
        }
        JobSpec::Explore(s) => {
            let params = s.sweep_params();
            let allocs = enumerate_allocations(&s.graph, &params);
            if part.hi > allocs.len().max(1) {
                return Err(JobError::Invalid("slice beyond allocations".to_string()));
            }
            let slice = &allocs[part.lo.min(allocs.len())..part.hi.min(allocs.len())];
            let (points, records) =
                design_space_slice(&s.graph, &params, slice, runner, stage_cache)
                    .map_err(JobError::from_sweep)?;
            let pts = points.iter().map(|p| point_json(p, false));
            (("points", Json::array(pts)), records)
        }
        JobSpec::Table2(s) => {
            let t = table2(s.trials as usize, s.seed, runner).map_err(JobError::from_sim)?;
            (("body", body(spec, [("table2", t.to_json())])), Vec::new())
        }
        JobSpec::Synth(s) => {
            let (logic, _, trace) = s.synthesize(stage_cache)?;
            let cells = [
                ("stages", stage_hashes(&trace)),
                ("synth", synth_body(&logic)),
            ];
            (("body", body(spec, cells)), trace.records)
        }
        JobSpec::Area(s) => {
            let (logic, reports, trace) = s.synth.synthesize(stage_cache)?;
            let system = system_area_from_logic(&logic, &AreaModel::default(), s.width);
            let rows = reports.rows().iter().map(|r| {
                Json::object([
                    ("name", Json::from(r.name.as_str())),
                    ("inputs", Json::from(r.inputs)),
                    ("outputs", Json::from(r.outputs)),
                    ("states", Json::from(r.states)),
                    ("flip_flops", Json::from(r.flip_flops)),
                    ("area_combinational", Json::Float(r.area_combinational)),
                    ("area_sequential", Json::Float(r.area_sequential)),
                ])
            });
            let cells = [
                ("stages", stage_hashes(&trace)),
                ("rows", Json::array(rows)),
                ("system", system.to_json()),
            ];
            (("body", body(spec, cells)), trace.records)
        }
    };
    let partial = Json::object([
        ("part", Json::from(part.index)),
        ("of", Json::from(part.total)),
        payload,
    ]);
    Ok((partial, records))
}

/// A response body: the canonical spec, then `cells`.
fn body(spec: &JobSpec, cells: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::object([("spec", spec.canonical())].into_iter().chain(cells))
}

/// Renders a trace's artifact-hash chain as a JSON array of
/// `{stage, hash}` objects, hashes as fixed-width hex — deliberately
/// without wall times, which vary run to run and would break the
/// byte-identical response-cache guarantee.
fn stage_hashes(trace: &PipelineTrace) -> Json {
    Json::array(
        trace
            .hash_chain()
            .into_iter()
            .map(|(stage, hash)| {
                Json::object([
                    ("stage", Json::from(stage)),
                    ("hash", Json::from(format!("{hash:016x}").as_str())),
                ])
            })
            .collect::<Vec<_>>(),
    )
}

/// The deterministic `/v1/synth` payload: one row per unit controller plus
/// the synchronizing CENT-SYNC-FSM.
fn synth_body(logic: &SynthesizedLogic) -> Json {
    let units = logic.controls().design().bound().allocation().units();
    let fsm_cells = |syn: &tauhls_fsm::SynthesizedFsm| {
        vec![
            ("states", Json::from(syn.num_states())),
            ("flip_flops", Json::from(syn.flip_flops())),
            ("inputs", Json::from(syn.num_inputs())),
            ("outputs", Json::from(syn.num_outputs())),
            ("area_combinational", Json::Float(syn.area().combinational)),
            ("area_sequential", Json::Float(syn.area().sequential)),
        ]
    };
    let controllers: Vec<Json> = logic
        .controllers()
        .iter()
        .map(|(unit, syn)| {
            let mut cells = vec![("unit", Json::from(units[unit.0].display_name().as_str()))];
            cells.extend(fsm_cells(syn));
            Json::object(cells)
        })
        .collect();
    Json::object([
        ("encoding", Json::from(encoding_name(logic.encoding()))),
        ("controllers", Json::array(controllers)),
        ("cent_sync", Json::object(fsm_cells(logic.cent_sync()))),
    ])
}

/// One latency leg as the `/v1/simulate` body and the simulate partial
/// render it; a clock period adds the leg rendered in ns, which the
/// partial leaves to the merge.
fn summary_json(summary: &LatencySummary, clock_ns: Option<f64>) -> Json {
    let mut cells = vec![
        ("best_cycles", Json::from(summary.best_cycles)),
        ("average_cycles", Json::floats(&summary.average_cycles)),
        ("worst_cycles", Json::from(summary.worst_cycles)),
    ];
    if let Some(clk) = clock_ns {
        cells.push((
            "rendered_ns",
            Json::from(summary.to_ns_string(clk).as_str()),
        ));
    }
    Json::object(cells)
}

/// One explore sweep point as the `/v1/dfg/explore` body and the explore
/// partial render it; `pareto` adds the Pareto mark, which the partial
/// leaves to the merge.
fn point_json(p: &SweepPoint, pareto: bool) -> Json {
    let mut cells = vec![
        ("muls", Json::from(p.muls)),
        ("adds", Json::from(p.adds)),
        ("subs", Json::from(p.subs)),
        ("encoding", Json::from(encoding_name(p.encoding))),
        ("p", Json::Float(p.p)),
        ("sd_ld", Json::Float(p.sd_ld)),
        ("skew", Json::from(p.skew)),
        ("avg_cycles", Json::Float(p.avg_cycles)),
        ("latency_ns", Json::Float(p.latency_ns)),
        ("area_ge", Json::Float(p.area_ge)),
    ];
    if pareto {
        cells.push(("pareto", Json::from(p.pareto)));
    }
    Json::object(cells)
}

fn bad(msg: &str) -> JobError {
    JobError::Failed(format!("malformed partition partial: {msg}"))
}

fn field<'a>(obj: &'a Json, key: &str, msg: &str) -> Result<&'a Json, JobError> {
    obj.get(key).ok_or_else(|| bad(msg))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, JobError> {
    field(obj, key, key)?.as_u64().ok_or_else(|| bad(key))
}

fn floats_field(obj: &Json, key: &str) -> Result<Vec<f64>, JobError> {
    field(obj, key, key)?
        .as_array()
        .ok_or_else(|| bad(key))?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| bad(key)))
        .collect()
}

fn summary_from_partial(
    legs: &Json,
    leg: &str,
    p_values: &[f64],
    lo: usize,
    hi: usize,
) -> Result<LatencySummary, JobError> {
    let obj = field(legs, leg, leg)?;
    let avg = floats_field(obj, "average_cycles")?;
    if avg.len() != hi - lo {
        return Err(bad("average_cycles length mismatch"));
    }
    Ok(LatencySummary {
        best_cycles: u64_field(obj, "best_cycles")? as usize,
        average_cycles: avg,
        worst_cycles: u64_field(obj, "worst_cycles")? as usize,
        p_values: p_values[lo..hi].to_vec(),
    })
}

/// Merges partition partials — in partition order, one per planned part —
/// back into the final response body.
///
/// The body is the same at any partition count: exact integers and
/// round-trip-exact floats restore the very values a one-part run
/// computes, and rendering happens here alone. Cross-partition
/// post-processing (Pareto marking for explore, enhancement rows for
/// simulate) is computed over the merged whole. The partials are taken
/// by value, so an indivisible job's embedded body is moved out, not
/// copied.
///
/// # Errors
///
/// [`JobError::Failed`] when the partials don't form exactly the plan
/// ([`plan`]`(spec, partials.len())`) — wrong count, wrong coordinates,
/// missing fields, or mismatched slice lengths.
pub fn merge(spec: &JobSpec, partials: Vec<Json>) -> Result<Json, JobError> {
    let parts = plan(spec, partials.len());
    if parts.len() != partials.len() {
        return Err(bad(&format!(
            "expected {} partials, got {}",
            parts.len(),
            partials.len()
        )));
    }
    for (part, partial) in parts.iter().zip(&partials) {
        if u64_field(partial, "part")? != part.index as u64
            || u64_field(partial, "of")? != part.total as u64
        {
            return Err(bad("partition coordinates out of order"));
        }
    }
    match spec {
        JobSpec::Simulate(s) => {
            let mut merged: Vec<LatencySummary> = Vec::new();
            for (part, partial) in parts.iter().zip(&partials) {
                let legs = field(partial, "legs", "legs")?;
                for (k, (key, _, _)) in SIMULATE_LEGS.iter().enumerate() {
                    let piece = summary_from_partial(legs, key, &s.p_values, part.lo, part.hi)?;
                    match merged.get_mut(k) {
                        None => merged.push(piece),
                        Some(whole) => {
                            // Best/worst are deterministic extremes; every
                            // partition reports the same values.
                            if whole.best_cycles != piece.best_cycles
                                || whole.worst_cycles != piece.worst_cycles
                            {
                                return Err(bad("partitions disagree on best/worst"));
                            }
                            whole.average_cycles.extend(piece.average_cycles);
                            whole.p_values.extend(piece.p_values);
                        }
                    }
                }
            }
            if merged.first().map(|leg| leg.average_cycles.len()) != Some(s.p_values.len()) {
                return Err(bad("merged sweep does not cover p_values"));
            }
            let clk = Timing::default().clock_ns();
            let mut cells = vec![("clock_ns", Json::from(clk))];
            cells.extend(
                SIMULATE_LEGS
                    .iter()
                    .zip(&merged)
                    .map(|((key, _, _), summary)| (*key, summary_json(summary, Some(clk)))),
            );
            let enhancement = legs_enhancement(&merged);
            cells.push(("enhancement_percent", Json::floats(&enhancement)));
            Ok(body(spec, cells))
        }
        JobSpec::Resilience(s) => {
            let mut counters = Vec::with_capacity(FAULT_KINDS.len());
            for (part, partial) in parts.iter().zip(&partials) {
                let rows = field(partial, "counters", "counters")?
                    .as_array()
                    .ok_or_else(|| bad("counters"))?;
                if rows.len() != part.hi - part.lo {
                    return Err(bad("counters length mismatch"));
                }
                for row in rows {
                    let mut c = KindCounters::default();
                    for (name, field) in COUNTER_FIELDS {
                        *field(&mut c) = u64_field(row, name)?;
                    }
                    counters.push(c);
                }
            }
            if counters.len() != FAULT_KINDS.len() {
                return Err(bad("merged counters do not cover all fault kinds"));
            }
            let report = report_from_counters(s.graph.name(), s.p, s.trials, s.seed, &counters);
            Ok(body(spec, [("report", report.to_json())]))
        }
        JobSpec::Explore(s) => {
            let mut points = Vec::new();
            for partial in &partials {
                let pts = field(partial, "points", "points")?
                    .as_array()
                    .ok_or_else(|| bad("points"))?;
                for p in pts {
                    let enc = field(p, "encoding", "encoding")?
                        .as_str()
                        .and_then(parse_encoding)
                        .ok_or_else(|| bad("encoding"))?;
                    let f = |key: &str| -> Result<f64, JobError> {
                        field(p, key, key)?.as_f64().ok_or_else(|| bad(key))
                    };
                    points.push(SweepPoint {
                        muls: u64_field(p, "muls")? as usize,
                        adds: u64_field(p, "adds")? as usize,
                        subs: u64_field(p, "subs")? as usize,
                        encoding: enc,
                        p: f("p")?,
                        sd_ld: f("sd_ld")?,
                        skew: u64_field(p, "skew")?,
                        avg_cycles: f("avg_cycles")?,
                        latency_ns: f("latency_ns")?,
                        area_ge: f("area_ge")?,
                        pareto: false,
                    });
                }
            }
            mark_scenario_pareto(&mut points);
            let marked = |p: &SweepPoint| point_json(p, true);
            let frontier: Vec<Json> = points.iter().filter(|p| p.pareto).map(marked).collect();
            let graph = &s.graph;
            Ok(body(
                spec,
                [
                    (
                        "graph",
                        Json::object([
                            ("name", Json::from(graph.name())),
                            ("ops", Json::from(graph.num_ops())),
                            ("inputs", Json::from(graph.num_inputs())),
                        ]),
                    ),
                    ("points", Json::array(points.iter().map(marked))),
                    ("frontier", Json::array(frontier)),
                ],
            ))
        }
        JobSpec::Table2(_) | JobSpec::Synth(_) | JobSpec::Area(_) => {
            match partials.into_iter().next() {
                Some(Json::Object(pairs)) => pairs
                    .into_iter()
                    .find_map(|(key, value)| (key == "body").then_some(value))
                    .ok_or_else(|| bad("missing body")),
                _ => Err(bad("missing body")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobspec::Endpoint;

    fn spec(endpoint: Endpoint, text: &str) -> JobSpec {
        JobSpec::from_json(endpoint, &Json::parse(text).expect("well-formed test spec"))
            .expect("valid test spec")
    }

    /// Splits, runs, and merges `spec` at several partition counts,
    /// demanding that the single-node body and every merged body equal
    /// `pinned` byte for byte — a checked-in rendering, so the two paths
    /// are held to an independent reference rather than only to each
    /// other.
    fn assert_conformance(spec: &JobSpec, pinned: &str, max_parts_list: &[usize]) {
        let runner = BatchRunner::new(2);
        let single = spec
            .run_with(&runner, None)
            .expect("single-node run")
            .0
            .to_pretty();
        assert_eq!(single, pinned, "single-node body differs from its pin");
        for &max_parts in max_parts_list {
            let parts = plan(spec, max_parts);
            let partials: Vec<Json> = parts
                .iter()
                .map(|&part| {
                    // Round-trip each partial through its serialized form,
                    // exactly as the HTTP wire does.
                    let (partial, _) = run_part(spec, part, &runner, None).expect("part run");
                    Json::parse(&partial.to_compact()).expect("partial round-trips")
                })
                .collect();
            let merged = merge(spec, partials).expect("merge").to_pretty();
            assert_eq!(
                merged, pinned,
                "byte-identity violated at max_parts={max_parts}"
            );
        }
    }

    #[test]
    fn simulate_merges_bit_identically() {
        let s = spec(
            Endpoint::Simulate,
            r#"{"dfg":"fir3","p":[0.3,0.5,0.7,0.9,1.0],"trials":60,"seed":11}"#,
        );
        assert_conformance(&s, include_str!("../pins/simulate.json"), &[1, 2, 3, 5, 8]);
    }

    #[test]
    fn resilience_merges_bit_identically() {
        let s = spec(
            Endpoint::Resilience,
            r#"{"dfg":"fir5","p":0.5,"trials":40,"seed":2003}"#,
        );
        assert_conformance(&s, include_str!("../pins/resilience.json"), &[1, 2, 3, 6]);
    }

    #[test]
    fn explore_merges_bit_identically() {
        let s = spec(
            Endpoint::Explore,
            r#"{"dfg":"fir5","max_muls":2,"max_adds":2,"p":[0.5,0.9],"trials":40,"seed":7}"#,
        );
        assert_conformance(&s, include_str!("../pins/explore.json"), &[1, 2, 3, 4]);
    }

    #[test]
    fn indivisible_kinds_plan_one_part_and_merge_to_the_body() {
        let cases = [
            (
                Endpoint::Synth,
                r#"{"dfg":"fir3","muls":1,"adds":1,"encoding":"gray"}"#,
                include_str!("../pins/synth.json"),
            ),
            (
                Endpoint::Area,
                r#"{"dfg":"fir3","muls":1,"adds":1,"width":8}"#,
                include_str!("../pins/area.json"),
            ),
            (
                Endpoint::Table2,
                r#"{"trials":20,"seed":5}"#,
                include_str!("../pins/table2.json"),
            ),
        ];
        for (endpoint, text, pinned) in cases {
            let s = spec(endpoint, text);
            assert_eq!(unit_count(&s), 1);
            assert_conformance(&s, pinned, &[1, 3]);
        }
    }

    #[test]
    fn plan_is_contiguous_total_and_worker_side_recomputable() {
        let s = spec(
            Endpoint::Simulate,
            r#"{"dfg":"fir3","p":[0.1,0.2,0.3,0.4,0.5],"trials":10}"#,
        );
        for max_parts in 1..=7 {
            let parts = plan(&s, max_parts);
            assert!(parts.len() <= 5, "never more parts than units");
            assert_eq!(parts[0].lo, 0);
            assert_eq!(parts.last().unwrap().hi, 5);
            for w in parts.windows(2) {
                assert_eq!(w[0].hi, w[1].lo, "contiguous tiling");
            }
            for part in &parts {
                assert!(part.hi > part.lo, "no empty partitions");
                assert_eq!(
                    part_for(&s, part.index, part.total).unwrap(),
                    *part,
                    "worker recomputes the same slice"
                );
            }
        }
        assert!(part_for(&s, 9, 3).is_err());
        assert!(part_for(&s, 0, 9).is_err(), "over-split total is rejected");
    }

    #[test]
    fn merge_rejects_shuffled_or_short_partials() {
        let s = spec(
            Endpoint::Simulate,
            r#"{"dfg":"fir3","p":[0.25,0.75],"trials":20}"#,
        );
        let runner = BatchRunner::serial();
        let parts = plan(&s, 2);
        let mut partials: Vec<Json> = parts
            .iter()
            .map(|&part| run_part(&s, part, &runner, None).unwrap().0)
            .collect();
        partials.swap(0, 1);
        assert!(
            merge(&s, partials.clone()).is_err(),
            "out-of-order partials"
        );
        partials.truncate(1);
        assert!(merge(&s, partials).is_err(), "short partials");
    }
}
