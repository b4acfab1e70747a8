//! Service configuration, mirrored one-to-one by the `tauhls serve`
//! flags.

use std::time::Duration;

/// Everything the server needs to start.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7203` (`:0` picks an ephemeral
    /// port; the bound address is reported back).
    pub addr: String,
    /// Worker threads executing jobs. `0` is a diagnostic mode: requests
    /// queue but never execute, so backpressure paths can be tested
    /// deterministically.
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue answers `503`.
    pub queue_capacity: usize,
    /// Response-cache budget in bytes (key + body payload).
    pub cache_bytes: usize,
    /// Simulation threads per job (`None` → all cores). Worker-level
    /// concurrency times this is the peak core demand.
    pub sim_threads: Option<usize>,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// How long a graceful shutdown waits for in-flight jobs before
    /// cancelling them through the batch engine's
    /// [`CancelToken`](tauhls_sim::CancelToken).
    pub drain_timeout: Duration,
    /// Durable state directory for the async job manager: the write-ahead
    /// job journal plus hash-keyed result artifacts live here and are
    /// replayed on startup. `None` keeps job state in memory only (jobs
    /// still work, but do not survive a restart).
    pub data_dir: Option<std::path::PathBuf>,
    /// Dedicated threads executing async jobs (separate from the
    /// connection workers so a backlog of sweeps cannot starve
    /// synchronous requests). `0` is a diagnostic mode: jobs queue and
    /// journal but never execute.
    pub job_workers: usize,
    /// Bounded async-job queue capacity; a full queue answers `503`.
    pub job_queue_capacity: usize,
    /// Attempts per job before it is marked failed (the first run plus
    /// retries); watchdog-cancelled attempts count.
    pub job_max_attempts: u32,
    /// Base delay of the exponential retry backoff (doubled per attempt,
    /// plus deterministic seed-derived jitter, capped at 32x the base).
    pub job_backoff_base: Duration,
    /// Per-client token-bucket refill rate for job submissions, in
    /// requests per second.
    pub admission_rate: f64,
    /// Per-client token-bucket burst capacity.
    pub admission_burst: f64,
    /// Per-client cap on jobs that are queued or running at once; beyond
    /// it submissions answer `429` with `Retry-After`.
    pub max_pending_per_client: usize,
    /// Run as a cluster coordinator: partition batch jobs across the
    /// registered workers and merge the partials (bit-identically) into
    /// the final body. Implied by `workers_file`.
    pub coordinator: bool,
    /// A JSON array of worker addresses (`["host:port", ...]`) to
    /// pre-register at startup; the same addresses `POST
    /// /v1/cluster/register` would add at runtime.
    pub workers_file: Option<std::path::PathBuf>,
    /// Run as a cluster worker of this coordinator address: register at
    /// startup and heartbeat every `heartbeat_interval`.
    pub worker_of: Option<String>,
    /// How often a worker heartbeats its coordinator, and how often a
    /// coordinator health-probes its workers.
    pub heartbeat_interval: Duration,
    /// Per-partition dispatch timeout: a worker that has not answered a
    /// `POST /v1/cluster/partition` within this window is marked failed
    /// and the partition is requeued onto the next live worker.
    pub partition_timeout: Duration,
    /// Remote dispatch attempts per partition before the coordinator
    /// falls back to computing the slice locally (so a job converges
    /// even if every worker dies).
    pub cluster_max_attempts: u32,
    /// Partitions per divisible job. `0` (the default) plans one
    /// partition per live worker; the planner clamps to the job's unit
    /// count either way.
    pub cluster_partitions: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7203".to_string(),
            workers: 4,
            queue_capacity: 64,
            cache_bytes: 32 * 1024 * 1024,
            sim_threads: None,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(30),
            data_dir: None,
            job_workers: 2,
            job_queue_capacity: 256,
            job_max_attempts: 3,
            job_backoff_base: Duration::from_millis(250),
            admission_rate: 20.0,
            admission_burst: 40.0,
            max_pending_per_client: 64,
            coordinator: false,
            workers_file: None,
            worker_of: None,
            heartbeat_interval: Duration::from_millis(1000),
            partition_timeout: Duration::from_secs(60),
            cluster_max_attempts: 3,
            cluster_partitions: 0,
        }
    }
}
