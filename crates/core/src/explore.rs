//! Allocation-space exploration: enumerate unit allocations, measure each
//! design's average latency (distributed control) and whole-system area,
//! and return the Pareto frontier — the "resource allocation" piece of the
//! paper's §6 future-work HLS tool, built from the parts this workspace
//! already has. [`design_space`] is the one explorer: a single scenario
//! (one encoding, `P`, clock ratio and skew) is just a one-element grid.

use crate::report::system_area_from_logic;
use crate::stages::{self, BindStrategy, PipelineTrace, StageCache, StageRecord, SynthesisInput};
use crate::{SynthesisError, Timing};
use std::fmt;
use tauhls_dfg::{Dfg, ResourceClass};
use tauhls_fsm::Encoding;
use tauhls_logic::AreaModel;
use tauhls_sched::Allocation;
use tauhls_sim::{derive_seed, latency_batch, BatchRunner, ControlStyle, ElasticSpec, SimError};

/// Parameters of a design-space sweep: per-class allocation maxima
/// crossed with state encodings, SD/LD clock-period ratios, skew bounds,
/// and a list of short-completion probabilities.
#[derive(Clone, Debug)]
pub struct SweepParams {
    /// Maximum telescopic multipliers to consider.
    pub max_muls: usize,
    /// Maximum adders.
    pub max_adds: usize,
    /// Maximum subtractors.
    pub max_subs: usize,
    /// State encodings swept in the area estimate.
    pub encodings: Vec<Encoding>,
    /// Short-completion probabilities swept in the latency estimate.
    pub p_values: Vec<f64>,
    /// SD/LD clock-period ratios; the SD clock is `ratio × ld_ns`.
    pub sd_ld: Vec<f64>,
    /// Elastic skew bounds swept in the latency estimate: `0` measures
    /// the synchronous distributed controllers, `s > 0` the ELASTIC
    /// (GALS) controllers at skew bound `s` (handshake latency fixed at
    /// the [`ElasticSpec::default`] value).
    pub skew: Vec<u64>,
    /// Monte-Carlo trials per allocation.
    pub trials: u64,
    /// Datapath width for the area model.
    pub width: u32,
    /// Base RNG seed.
    pub seed: u64,
}

/// One point of the full sweep grid.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// TAU multipliers allocated.
    pub muls: usize,
    /// Adders allocated.
    pub adds: usize,
    /// Subtractors allocated.
    pub subs: usize,
    /// State encoding of the synthesized controllers.
    pub encoding: Encoding,
    /// Short-completion probability of this scenario.
    pub p: f64,
    /// SD/LD clock ratio of this scenario.
    pub sd_ld: f64,
    /// Elastic skew bound of this scenario (`0` = synchronous clocks).
    pub skew: u64,
    /// Mean latency in SD cycles — distributed control at `skew == 0`,
    /// elastic (GALS) control otherwise.
    pub avg_cycles: f64,
    /// Mean latency in nanoseconds: `avg_cycles × sd_ld × ld_ns`.
    pub latency_ns: f64,
    /// Whole-system area in gate equivalents.
    pub area_ge: f64,
    /// True iff no other design dominates this one in its scenario.
    pub pareto: bool,
}

/// Why a design-space sweep failed.
#[derive(Debug)]
pub enum SweepError {
    /// The Monte-Carlo latency estimate failed (e.g. cancelled).
    Sim(SimError),
    /// Controller synthesis failed for a swept allocation.
    Synthesis(SynthesisError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Sim(e) => write!(f, "sweep simulation failed: {e}"),
            SweepError::Synthesis(e) => write!(f, "sweep synthesis failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Sweeps the full design space of `dfg` and marks the latency/area
/// Pareto frontier.
///
/// The grid is allocations (class-aware, see [`enumerate_allocations`]) ×
/// `encodings` × `p_values` × `sd_ld` × `skew`. Each allocation runs the
/// synthesis front once and is simulated once on its `bind` artifact —
/// one coupled [`latency_batch`] covering every `P` and every skew bound
/// (DIST at skew 0, ELASTIC otherwise), seeded by the allocation triple
/// so results are independent of enumeration order and of `runner`'s
/// thread count — and only the `logic` and `report` stages run per
/// encoding, through the shared [`StageCache`]. Cycle counts don't depend on
/// encoding or clock ratio, so those axes are pure post-processing;
/// every skew leg reads the same per-trial completion tables.
///
/// `(p, sd_ld, skew)` describe the *scenario* (workload, clock, and
/// clocking discipline), not the design, so Pareto domination is judged
/// only between points of the same scenario: within each group a point
/// survives if no other allocation/encoding is at least as good in both
/// latency and area and strictly better in one (with the noise tolerance
/// of [`mark_scenario_pareto`]). Skew is a scenario axis rather than a
/// design axis because elastic latency is never below the
/// synchronous latency of the same design — folding it into the frontier
/// would just erase every skewed point.
///
/// Returns the swept points (grid order: allocation, then `P`, then
/// encoding, then ratio, then skew) plus the stage records of every
/// synthesis run, for the caller's stage metrics.
pub fn design_space(
    dfg: &Dfg,
    params: &SweepParams,
    runner: &BatchRunner,
    stage_cache: Option<&StageCache>,
) -> Result<(Vec<SweepPoint>, Vec<StageRecord>), SweepError> {
    let allocs = enumerate_allocations(dfg, params);
    let (mut points, records) = design_space_slice(dfg, params, &allocs, runner, stage_cache)?;
    mark_scenario_pareto(&mut points);
    Ok((points, records))
}

/// The deterministic allocation enumeration a sweep iterates: class-aware
/// ranges (a class with no operations gets 0 units, otherwise `1..=max`),
/// filtered to allocations that cover `dfg`, in nested
/// muls → adds → subs order.
///
/// Exposed so a distributed coordinator can plan contiguous partitions
/// over exactly the order [`design_space`] uses; each allocation is
/// independently seeded by its triple, so any contiguous slice computes
/// the same points the full sweep would.
pub fn enumerate_allocations(dfg: &Dfg, params: &SweepParams) -> Vec<(usize, usize, usize)> {
    let hist = dfg.class_histogram();
    let need = |c: ResourceClass| hist.get(&c).copied().unwrap_or(0);
    let range = |c: ResourceClass, max: usize| {
        if need(c) == 0 {
            0..=0
        } else {
            1..=max.max(1)
        }
    };
    let mut allocs = Vec::new();
    for muls in range(ResourceClass::Multiplier, params.max_muls) {
        for adds in range(ResourceClass::Adder, params.max_adds) {
            for subs in range(ResourceClass::Subtractor, params.max_subs) {
                if Allocation::paper(muls, adds, subs).covers(dfg) {
                    allocs.push((muls, adds, subs));
                }
            }
        }
    }
    allocs
}

/// Measures the sweep points of an explicit allocation list — a
/// contiguous slice of [`enumerate_allocations`] when called by a
/// partition, or the full list when called by [`design_space`].
///
/// Per-allocation seeding (`derive_seed(seed, point_id, 0)` from the
/// triple) makes the output independent of which slice an allocation
/// lands in. Pareto flags are **not** marked: domination is judged across
/// the whole grid, so the caller runs [`mark_scenario_pareto`] after
/// concatenating slices in enumeration order.
pub fn design_space_slice(
    dfg: &Dfg,
    params: &SweepParams,
    allocs: &[(usize, usize, usize)],
    runner: &BatchRunner,
    stage_cache: Option<&StageCache>,
) -> Result<(Vec<SweepPoint>, Vec<StageRecord>), SweepError> {
    let ld_ns = Timing::default().ld_ns;
    let mut points = Vec::new();
    let mut records = Vec::new();

    for &(muls, adds, subs) in allocs {
        // One synthesis front per allocation: the latency batch reads the
        // `bind` artifact and every encoding reuses its controllers.
        let input = SynthesisInput {
            dfg: dfg.clone(),
            allocation: Allocation::paper(muls, adds, subs),
            strategy: BindStrategy::LeftEdge,
        };
        let mut trace = PipelineTrace::default();
        let controls = stages::run_front(&input, false, stage_cache, &mut trace)
            .map_err(SweepError::Synthesis)?;
        let point_id = ((muls as u64) << 16) | ((adds as u64) << 8) | subs as u64;
        let point_seed = derive_seed(params.seed, point_id, 0);
        // One leg per skew bound on coupled trials: skew 0 measures DIST,
        // `s > 0` ELASTIC at skew bound `s`, and every leg reads the same
        // per-trial completion tables.
        let styles: Vec<ControlStyle> = params
            .skew
            .iter()
            .map(|&s| match s {
                0 => ControlStyle::Distributed,
                s => ControlStyle::Elastic(ElasticSpec {
                    skew_bound: s.min(u64::from(u32::MAX)) as u32,
                    ..ElasticSpec::default()
                }),
            })
            .collect();
        // Per-skew cycle estimates, indexed [skew][p].
        let cycles_by_skew = latency_batch(
            controls.design().bound(),
            &styles,
            &params.p_values,
            0,
            params.trials,
            point_seed,
            runner,
        )
        .map_err(SweepError::Sim)?;
        let mut areas = Vec::with_capacity(params.encodings.len());
        for &encoding in &params.encodings {
            let (logic, _) = stages::run_back(
                &controls,
                encoding,
                &AreaModel::default(),
                stage_cache,
                &mut trace,
            )
            .map_err(SweepError::Synthesis)?;
            let area = system_area_from_logic(&logic, &AreaModel::default(), params.width);
            areas.push(area.total());
        }
        records.extend(trace.records);
        for (ip, &p) in params.p_values.iter().enumerate() {
            for (ie, &encoding) in params.encodings.iter().enumerate() {
                for &ratio in &params.sd_ld {
                    for (is, &skew) in params.skew.iter().enumerate() {
                        let cycles = cycles_by_skew[is].average_cycles[ip];
                        points.push(SweepPoint {
                            muls,
                            adds,
                            subs,
                            encoding,
                            p,
                            sd_ld: ratio,
                            skew,
                            avg_cycles: cycles,
                            latency_ns: cycles * ld_ns * ratio,
                            area_ge: areas[ie],
                            pareto: false,
                        });
                    }
                }
            }
        }
    }
    Ok((points, records))
}

/// Marks each point's `pareto` flag within its `(p, sd_ld, skew)`
/// scenario group. Exact float equality is the group key — every group
/// member carries the identical swept value, not a recomputation.
///
/// Public so a merge of distributed partials can re-run the exact filter
/// [`design_space`] applies after reassembling the grid.
pub fn mark_scenario_pareto(points: &mut [SweepPoint]) {
    // Latency is a Monte-Carlo estimate, so comparisons use a small
    // tolerance to keep statistically-tied points from shielding each
    // other.
    const LAT_EPS: f64 = 0.02;
    let snapshot: Vec<(f64, f64, u64, f64, f64)> = points
        .iter()
        .map(|p| (p.p, p.sd_ld, p.skew, p.avg_cycles, p.area_ge))
        .collect();
    for p in points.iter_mut() {
        p.pareto = !snapshot.iter().any(|&(qp, qr, qs, q_cycles, q_area)| {
            qp == p.p
                && qr == p.sd_ld
                && qs == p.skew
                && ((q_cycles <= p.avg_cycles + LAT_EPS && q_area < p.area_ge)
                    || (q_cycles < p.avg_cycles - LAT_EPS && q_area <= p.area_ge))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_dfg::benchmarks::fir5;
    use tauhls_sched::BoundDfg;

    /// One scenario (binary encoding, `P = 0.7`, synchronous clocks) over
    /// the given allocation maxima.
    fn one_scenario(max_muls: usize, max_adds: usize, max_subs: usize, trials: u64) -> SweepParams {
        SweepParams {
            max_muls,
            max_adds,
            max_subs,
            encodings: vec![Encoding::Binary],
            p_values: vec![0.7],
            sd_ld: vec![0.75],
            skew: vec![0],
            trials,
            width: 16,
            seed: 2003,
        }
    }

    #[test]
    fn frontier_is_nonempty_and_consistent() {
        let (pts, _) = design_space(
            &fir5(),
            &one_scenario(3, 2, 0, 150),
            &BatchRunner::new(2),
            None,
        )
        .unwrap();
        assert!(!pts.is_empty());
        let frontier: Vec<_> = pts.iter().filter(|p| p.pareto).collect();
        assert!(!frontier.is_empty());
        // No frontier point dominates another (with the filter's noise
        // tolerance).
        for a in &frontier {
            for b in &frontier {
                let dominates = a.avg_cycles <= b.avg_cycles + 0.02 && a.area_ge < b.area_ge
                    || a.avg_cycles < b.avg_cycles - 0.02 && a.area_ge <= b.area_ge;
                assert!(!dominates, "{a:?} dominates {b:?}");
            }
        }
        // More multipliers never hurt latency (same adders).
        let lat = |m: usize| {
            pts.iter()
                .find(|p| p.muls == m && p.adds == 1)
                .map(|p| p.avg_cycles)
                .unwrap()
        };
        assert!(lat(3) <= lat(1) + 1e-9);
    }

    #[test]
    fn design_space_sweep_is_grouped_deterministic_and_cache_transparent() {
        let params = SweepParams {
            max_muls: 2,
            max_adds: 1,
            max_subs: 0,
            encodings: vec![Encoding::Binary, Encoding::Gray],
            p_values: vec![0.9, 0.5],
            sd_ld: vec![0.75, 1.0],
            skew: vec![0],
            trials: 60,
            width: 16,
            seed: 2003,
        };
        let (pts, recs) = design_space(&fir5(), &params, &BatchRunner::serial(), None).unwrap();
        // 2 allocations × 2 P × 2 encodings × 2 ratios.
        assert_eq!(pts.len(), 16);
        // Per allocation: the four front stages once, `logic` and
        // `report` once per encoding.
        assert_eq!(recs.len(), 2 * (4 + 2 * 2));
        // Latency renders as cycles × ratio × LD; cycles are ratio- and
        // encoding-independent.
        for p in &pts {
            assert!((p.latency_ns - p.avg_cycles * 20.0 * p.sd_ld).abs() < 1e-9);
        }
        // Pareto domination never crosses a (p, sd_ld) scenario: every
        // scenario group keeps at least one survivor.
        for &(sp, sr) in &[(0.9, 0.75), (0.9, 1.0), (0.5, 0.75), (0.5, 1.0)] {
            assert!(
                pts.iter().any(|p| p.p == sp && p.sd_ld == sr && p.pareto),
                "scenario ({sp}, {sr}) lost its whole frontier"
            );
        }
        // Thread-count invariance, with and without a stage cache.
        let (threaded, _) = design_space(&fir5(), &params, &BatchRunner::new(3), None).unwrap();
        let cache = StageCache::new(64);
        let (cached, cached_recs) =
            design_space(&fir5(), &params, &BatchRunner::new(2), Some(&cache)).unwrap();
        let render = |ps: &[SweepPoint]| {
            ps.iter()
                .map(|p| format!("{p:?}"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&pts), render(&threaded));
        assert_eq!(render(&pts), render(&cached));
        assert!(cached_recs.iter().all(|r| !r.cache_hit));
        // A repeated sweep is served from the cache, stage for stage.
        let (again, again_recs) =
            design_space(&fir5(), &params, &BatchRunner::serial(), Some(&cache)).unwrap();
        assert_eq!(render(&pts), render(&again));
        assert_eq!(again_recs.len(), cached_recs.len());
        assert!(again_recs.iter().all(|r| r.cache_hit));
    }

    #[test]
    fn design_space_binds_each_allocation_once() {
        let params = SweepParams {
            encodings: vec![Encoding::Binary, Encoding::Gray],
            ..one_scenario(2, 1, 0, 20)
        };
        let allocs = enumerate_allocations(&fir5(), &params);
        assert_eq!(allocs.len(), 2);
        let (_, recs) = design_space(&fir5(), &params, &BatchRunner::serial(), None).unwrap();
        let count = |stage: &str| recs.iter().filter(|r| r.stage == stage).count();
        assert_eq!(count("bind"), allocs.len());
        assert_eq!(count("controllers"), allocs.len());
        assert_eq!(count("logic"), allocs.len() * params.encodings.len());
        assert_eq!(count("report"), allocs.len() * params.encodings.len());
    }

    #[test]
    fn design_space_skew_axis_adds_elastic_scenarios() {
        let params = SweepParams {
            max_muls: 2,
            max_adds: 1,
            max_subs: 0,
            encodings: vec![Encoding::Binary],
            p_values: vec![0.7],
            sd_ld: vec![1.0],
            skew: vec![0, 2],
            trials: 60,
            width: 16,
            seed: 2003,
        };
        let (pts, _) = design_space(&fir5(), &params, &BatchRunner::serial(), None).unwrap();
        // 2 allocations × 1 P × 1 encoding × 1 ratio × 2 skews.
        assert_eq!(pts.len(), 4);
        // Each skew scenario keeps its own frontier.
        for skew in [0u64, 2] {
            assert!(
                pts.iter().any(|p| p.skew == skew && p.pareto),
                "skew {skew} scenario lost its whole frontier"
            );
        }
        // Elastic stalls never beat the synchronous leg of the same design.
        for a in pts.iter().filter(|p| p.skew != 0) {
            let twin = pts
                .iter()
                .find(|b| b.skew == 0 && b.muls == a.muls && b.adds == a.adds && b.subs == a.subs)
                .expect("every elastic point has a synchronous twin");
            assert!(
                a.avg_cycles >= twin.avg_cycles - 1e-9,
                "elastic {a:?} undercut synchronous {twin:?}"
            );
        }
        // Determinism across thread counts with the skew axis in play.
        let (threaded, _) = design_space(&fir5(), &params, &BatchRunner::new(3), None).unwrap();
        assert_eq!(format!("{pts:?}"), format!("{threaded:?}"));
    }

    #[test]
    fn skew_cells_equal_the_coupled_latency_batch_legs() {
        let params = SweepParams {
            max_muls: 2,
            max_adds: 1,
            max_subs: 0,
            encodings: vec![Encoding::Binary],
            p_values: vec![0.9, 0.5],
            sd_ld: vec![1.0],
            skew: vec![0, 1, 2],
            trials: 70,
            width: 16,
            seed: 2003,
        };
        let (pts, _) = design_space(&fir5(), &params, &BatchRunner::new(2), None).unwrap();
        let elastic = |skew_bound| {
            ControlStyle::Elastic(ElasticSpec {
                skew_bound,
                ..ElasticSpec::default()
            })
        };
        let styles = [ControlStyle::Distributed, elastic(1), elastic(2)];
        for (muls, adds, subs) in enumerate_allocations(&fir5(), &params) {
            let bound = BoundDfg::bind(&fir5(), &Allocation::paper(muls, adds, subs));
            let point_id = ((muls as u64) << 16) | ((adds as u64) << 8) | subs as u64;
            let seed = derive_seed(params.seed, point_id, 0);
            let legs = latency_batch(
                &bound,
                &styles,
                &params.p_values,
                0,
                params.trials,
                seed,
                &BatchRunner::serial(),
            )
            .unwrap();
            let cells = pts
                .iter()
                .filter(|p| (p.muls, p.adds, p.subs) == (muls, adds, subs));
            for p in cells {
                let is = params.skew.iter().position(|&s| s == p.skew).unwrap();
                let ip = params.p_values.iter().position(|&q| q == p.p).unwrap();
                assert_eq!(p.avg_cycles, legs[is].average_cycles[ip], "{p:?}");
            }
        }
    }

    #[test]
    fn subtractor_range_skipped_when_unused() {
        // FIR has no subtract-class ops: subs should stay at 0.
        let (pts, _) = design_space(
            &fir5(),
            &one_scenario(2, 1, 2, 50),
            &BatchRunner::serial(),
            None,
        )
        .unwrap();
        assert!(pts.iter().all(|p| p.subs == 0));
    }
}
