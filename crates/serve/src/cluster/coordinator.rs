//! The dispatch half of cluster mode: split a job, ship the partitions,
//! survive the failures, merge the partials.
//!
//! [`Coordinator::execute`] answers what a local [`JobSpec::run_with`]
//! answers, so [`super::Cluster::execute`] can pick either for the
//! synchronous handlers and the job manager alike: every caller keeps
//! its caching, journaling, and error semantics. The invariants:
//!
//! * **Byte-identity.** Partition planning and merging are
//!   [`tauhls_core::partition`]; the merged body equals a single-node
//!   run at any worker count. Workers recompute their slice from
//!   `(spec, part, of)` — no negotiated state.
//! * **Requeue on loss.** A failed or timed-out dispatch marks the
//!   worker, logs the requeue as an operational event, backs off
//!   deterministically (the job-retry curve, keyed by
//!   `job:part:attempt`), and retries on the next live worker. When
//!   attempts run out — or no worker is live — the coordinator computes
//!   the slice locally, so a job converges even with every worker dead.
//! * **No lost answers.** Workers cache partials content-addressed, so
//!   a re-dispatched partition (worker restart, coordinator restart)
//!   is answered from cache, byte-identical. A partition is never
//!   journalled: a job recovers from its own job-level events and
//!   simply re-runs its partitions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tauhls_core::jobspec::{JobError, JobSpec};
use tauhls_core::partition::{self, Part};
use tauhls_core::StageRecord;
use tauhls_json::Json;
use tauhls_sim::BatchRunner;

use super::registry::WorkerRegistry;
use crate::client;
use crate::config::ServeConfig;
use crate::jobs::{backoff_delay, ExecResult};
use crate::metrics::Metrics;

/// The cluster dispatcher. One per coordinator-mode server, shared by
/// the synchronous handlers and the async job workers.
pub struct Coordinator {
    registry: Arc<WorkerRegistry>,
    metrics: Arc<Metrics>,
    connect_timeout: Duration,
    partition_timeout: Duration,
    max_attempts: u32,
    backoff_base: Duration,
    partitions: usize,
    inflight: AtomicU64,
}

impl Coordinator {
    /// Builds a coordinator over `registry` with the cluster knobs from
    /// `config`.
    pub fn new(
        registry: Arc<WorkerRegistry>,
        metrics: Arc<Metrics>,
        config: &ServeConfig,
    ) -> Coordinator {
        Coordinator {
            registry,
            metrics,
            connect_timeout: config.heartbeat_interval.max(Duration::from_millis(250)),
            partition_timeout: config.partition_timeout,
            max_attempts: config.cluster_max_attempts.max(1),
            backoff_base: config.job_backoff_base,
            partitions: config.cluster_partitions,
            inflight: AtomicU64::new(0),
        }
    }

    /// Partitions currently dispatched or running.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Runs `spec` across the cluster: plan, dispatch, requeue, merge.
    /// With no live workers the whole job runs locally — the coordinator
    /// degrades to a plain single-node server, never an error.
    pub fn execute(
        &self,
        spec: &JobSpec,
        runner: &BatchRunner,
    ) -> Result<(Json, Vec<StageRecord>), JobError> {
        let live = self.registry.live_workers();
        if live.is_empty() {
            self.metrics.count_cluster("local");
            return spec.run_with(runner, None);
        }
        let want = if self.partitions > 0 {
            self.partitions
        } else {
            live.len()
        };
        let parts = partition::plan(spec, want);
        let job = spec.job_id();
        let canonical = spec.canonical();
        let mut slots: Vec<Option<ExecResult>> = (0..parts.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|&part| {
                    let (job, canonical) = (&job, &canonical);
                    scope.spawn(move || self.run_one(spec, part, job, canonical, runner))
                })
                .collect();
            for (slot, handle) in slots.iter_mut().zip(handles) {
                *slot = Some(handle.join().unwrap_or_else(|_| {
                    Err(JobError::Failed("partition thread panicked".to_string()))
                }));
            }
        });
        let mut partials = Vec::with_capacity(parts.len());
        let mut records = Vec::new();
        for slot in slots {
            let (partial, mut recs) =
                slot.unwrap_or_else(|| Err(JobError::Failed("partition missing".to_string())))?;
            partials.push(partial);
            records.append(&mut recs);
        }
        let body = partition::merge(spec, partials)?;
        Ok((body, records))
    }

    /// One partition's life: remote attempts with requeue, then the
    /// local fallback.
    fn run_one(
        &self,
        spec: &JobSpec,
        part: Part,
        job: &str,
        canonical: &Json,
        runner: &BatchRunner,
    ) -> Result<(Json, Vec<StageRecord>), JobError> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let result = self.run_one_inner(spec, part, job, canonical, runner);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn run_one_inner(
        &self,
        spec: &JobSpec,
        part: Part,
        job: &str,
        canonical: &Json,
        runner: &BatchRunner,
    ) -> Result<(Json, Vec<StageRecord>), JobError> {
        let body = Json::object([
            ("spec", canonical.clone()),
            ("part", Json::from(part.index)),
            ("of", Json::from(part.total)),
        ])
        .to_compact();
        for attempt in 1..=self.max_attempts {
            runner.check_cancelled().map_err(|_| JobError::Cancelled)?;
            let live = self.registry.live_workers();
            if live.is_empty() {
                break;
            }
            // Rotate by attempt so a requeued partition lands on the
            // next live worker, not the one that just failed it.
            let worker = &live[(part.index + attempt as usize - 1) % live.len()];
            self.registry.mark_dispatch(worker);
            self.metrics.count_cluster("dispatched");
            match self.dispatch(worker, &body) {
                Ok(partial) => {
                    self.registry.mark_success(worker);
                    self.metrics.count_cluster("completed");
                    return Ok((partial, Vec::new()));
                }
                Err(error) => {
                    self.registry.mark_failure(worker);
                    self.metrics.count_cluster("requeued");
                    self.metrics.log_event(&format!(
                        "cluster: partition {}/{} requeued off {worker} (attempt {attempt}): {error}",
                        part.index, part.total
                    ));
                    self.sleep_backoff(job, part, attempt, runner)?;
                }
            }
        }
        // Remote attempts exhausted (or no worker live): converge by
        // computing the slice here.
        self.metrics.count_cluster("local");
        partition::run_part(spec, part, runner, None)
    }

    /// POSTs one partition to `worker` and parses the partial strictly.
    fn dispatch(&self, worker: &str, body: &str) -> Result<Json, String> {
        let response = client::request_timeouts(
            worker,
            "POST",
            "/v1/cluster/partition",
            &[],
            Some(body),
            self.connect_timeout,
            self.partition_timeout,
        )?;
        if response.status != 200 {
            return Err(format!(
                "HTTP {}: {}",
                response.status,
                response.body.trim()
            ));
        }
        Json::parse(&response.body).map_err(|e| format!("partial is not valid JSON: {e}"))
    }

    /// The deterministic retry curve, interruptible by cancellation.
    fn sleep_backoff(
        &self,
        job: &str,
        part: Part,
        attempt: u32,
        runner: &BatchRunner,
    ) -> Result<(), JobError> {
        let key = format!("{job}:{}:{}", part.index, part.total);
        let mut left = backoff_delay(self.backoff_base, &key, attempt);
        while !left.is_zero() {
            runner.check_cancelled().map_err(|_| JobError::Cancelled)?;
            let step = left.min(Duration::from_millis(20));
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
        Ok(())
    }
}
