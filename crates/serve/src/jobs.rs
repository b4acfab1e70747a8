//! Durable async job manager: crash-recoverable job store, retry with
//! deterministic backoff, and per-client admission control.
//!
//! Jobs are addressed by content: the job ID is the FNV-1a hash of the
//! spec's canonical rendering ([`JobSpec::job_id`]), so resubmitting an
//! identical spec reconnects to the same job — submission is idempotent
//! by construction, across retries *and* across restarts.
//!
//! Durability is a write-ahead journal plus hash-keyed artifacts under
//! the configured `data_dir`:
//!
//! ```text
//! data_dir/
//!   jobs.journal          append-only JSON lines, fsync'd per event
//!   artifacts/<fnv64>.json  one result body per content hash
//!   quarantine/             artifacts that failed their integrity check
//! ```
//!
//! Every state transition is journalled *before* it is answered, so a
//! `kill -9` at any instant loses at most the work of the in-flight
//! attempt, never the job: startup replays the journal, re-verifies each
//! completed artifact against its recorded FNV-1a hash (corrupt or
//! missing files are quarantined and the job recomputed), requeues
//! whatever was queued, running, or backing off at crash time, and
//! compacts the journal to one `submit` (plus terminal) event per job.
//! Because the batch engine is bit-deterministic in the canonical spec,
//! a crash/restart cycle converges to byte-identical results.
//!
//! Failures retry with exponential backoff — base doubles per attempt,
//! capped at 32x, plus a deterministic jitter derived from the job ID
//! and attempt number (no wall-clock entropy: two replicas replaying the
//! same journal schedule identical retries). Watchdog-cancelled attempts
//! count as failures; a client `DELETE` is terminal.
//!
//! Admission control is per client (the `X-Client` header): a token
//! bucket bounds submission rate and a pending-jobs quota bounds queued
//! work, both answering `429` with a `Retry-After` derived from the
//! bucket deficit — one hostile client cannot starve the rest.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::splitmix64_mix;
use tauhls_core::jobspec::{JobError, JobSpec};
use tauhls_core::stages::Fnv64;
use tauhls_core::StageRecord;
use tauhls_json::Json;
use tauhls_sim::{BatchRunner, CancelToken};

use crate::cache::Cache;
use crate::config::ServeConfig;
use crate::metrics::Metrics;
use crate::queue::Queue;

/// Lifecycle of one job. `Backoff` is `Queued` with a scheduled wake-up;
/// both replay as `Queued`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a job worker.
    Queued,
    /// An attempt is executing right now.
    Running,
    /// A failed attempt is waiting out its retry delay.
    Backoff,
    /// Completed; the result body is durable and servable.
    Done,
    /// Exhausted its attempts (or the spec is invalid); terminal.
    Failed,
    /// Cancelled by the client; terminal.
    Cancelled,
}

impl JobState {
    /// The wire name used in status bodies and the journal.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Backoff => "backoff",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Why a submission was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The client's token bucket is empty; retry after the given seconds.
    RateLimited(u64),
    /// The client already has its quota of pending jobs.
    QuotaExceeded(u64),
    /// The shared job queue is at capacity (or the server is draining).
    QueueFull,
}

/// A successful submission: the content-derived ID and the state the job
/// was in when the call returned (an idempotent resubmit of a completed
/// job answers `Done` immediately).
#[derive(Debug)]
pub struct SubmitOutcome {
    /// The job's content address (16 lowercase hex digits).
    pub id: String,
    /// State at submit time.
    pub state: JobState,
}

/// What `GET /v1/jobs/<id>/result` should answer.
#[derive(Debug)]
pub enum JobResult {
    /// No such job.
    Unknown,
    /// Completed: the exact (durable) response body.
    Ready(Arc<str>),
    /// Still queued / running / backing off; poll again.
    Pending(&'static str),
    /// Exhausted its attempts; the last error.
    Failed(String),
    /// Cancelled by the client.
    Cancelled,
}

/// A job body (or partition partial) plus its stage-latency records.
pub(crate) type ExecResult = Result<(Json, Vec<StageRecord>), JobError>;
/// How a job's spec becomes its body: the server passes
/// [`crate::cluster::Cluster::execute`] to [`JobManager::start`], so a
/// job runs wherever the server's cluster role sends it.
pub(crate) type Executor = Arc<dyn Fn(&JobSpec, &BatchRunner) -> ExecResult + Send + Sync>;

#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    client: String,
    priority: u8,
    attempts: u32,
    state: JobState,
    error: Option<String>,
    artifact: Option<u64>,
    result: Option<Arc<str>>,
    cancel: Option<CancelToken>,
}

/// Per-client token bucket state.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Token-bucket admission control, keyed by client identity. The map is
/// pruned of long-idle buckets so unique hostile client names cannot
/// balloon memory.
#[derive(Debug)]
struct Admission {
    rate: f64,
    burst: f64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

/// Buckets idle this long are reclaimed (their refill has long since
/// topped out, so dropping one never penalizes a legitimate client).
const BUCKET_IDLE: Duration = Duration::from_secs(60);
const BUCKET_PRUNE_LEN: usize = 4096;

impl Admission {
    fn new(rate: f64, burst: f64) -> Admission {
        Admission {
            rate,
            burst: burst.max(1.0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Takes one token for `client`, or answers the seconds until one
    /// will be available.
    fn try_take(&self, client: &str) -> Result<(), u64> {
        if self.rate <= 0.0 {
            return Ok(()); // rate limiting disabled
        }
        let mut buckets = self.buckets.lock().unwrap_or_else(PoisonError::into_inner);
        let now = Instant::now();
        if buckets.len() >= BUCKET_PRUNE_LEN && !buckets.contains_key(client) {
            buckets.retain(|_, b| now.duration_since(b.last) < BUCKET_IDLE);
        }
        let bucket = buckets.entry(client.to_string()).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let refill = now.duration_since(bucket.last).as_secs_f64() * self.rate;
        bucket.tokens = (bucket.tokens + refill).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            Err(((deficit / self.rate).ceil() as u64).max(1))
        }
    }
}

struct Inner {
    data_dir: Option<PathBuf>,
    journal: Mutex<Option<File>>,
    table: Mutex<HashMap<String, JobRecord>>,
    pending: Queue<String>,
    backoff: Mutex<Vec<(Instant, String)>>,
    backoff_wake: Condvar,
    admission: Admission,
    max_pending_per_client: usize,
    max_attempts: u32,
    backoff_base: Duration,
    sim_threads: Option<usize>,
    cancel: CancelToken,
    shutting_down: AtomicBool,
    metrics: Arc<Metrics>,
    cache: Arc<Cache>,
    executor: Executor,
}

/// The async job manager: owns the job table, the durable journal, the
/// retry scheduler, and the dedicated job-worker pool.
pub struct JobManager {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl JobManager {
    /// Starts the manager: replays the journal under `config.data_dir`
    /// (if any), requeues interrupted jobs, compacts the journal, and
    /// spawns `config.job_workers` workers plus the retry scheduler.
    /// Every attempt runs through `executor`.
    pub(crate) fn start(
        config: &ServeConfig,
        metrics: Arc<Metrics>,
        cache: Arc<Cache>,
        cancel: CancelToken,
        executor: Executor,
    ) -> std::io::Result<JobManager> {
        let pending = Queue::new(config.job_queue_capacity);
        let mut table = HashMap::new();
        let mut journal = None;
        if let Some(dir) = &config.data_dir {
            fs::create_dir_all(dir.join("artifacts"))?;
            fs::create_dir_all(dir.join("quarantine"))?;
            let journal_path = dir.join("jobs.journal");
            let replay = replay_journal(&journal_path);
            for diagnostic in &replay.diagnostics {
                eprintln!("tauhls-serve: {diagnostic}");
            }
            for (id, rj) in replay.jobs {
                if let Some((id, rec)) = revive_job(dir, &metrics, &cache, id, rj) {
                    table.insert(id, rec);
                }
            }
            for (id, rec) in &table {
                if rec.state == JobState::Queued
                    && pending
                        .try_push_at(class_of(rec.priority, &rec.spec), id.clone())
                        .is_err()
                {
                    eprintln!(
                        "tauhls-serve: recovered job {id} exceeds the job queue \
                         capacity; it stays journalled but unscheduled"
                    );
                }
            }
            journal = Some(compact_journal(&journal_path, &table)?);
            metrics.log_event(&format!(
                "job journal replayed: {} jobs recovered, {} requeued",
                table.len(),
                table
                    .values()
                    .filter(|r| r.state == JobState::Queued)
                    .count()
            ));
        }
        let inner = Arc::new(Inner {
            data_dir: config.data_dir.clone(),
            journal: Mutex::new(journal),
            table: Mutex::new(table),
            pending,
            backoff: Mutex::new(Vec::new()),
            backoff_wake: Condvar::new(),
            admission: Admission::new(config.admission_rate, config.admission_burst),
            max_pending_per_client: config.max_pending_per_client.max(1),
            max_attempts: config.job_max_attempts.max(1),
            backoff_base: config.job_backoff_base,
            sim_threads: config.sim_threads,
            cancel,
            shutting_down: AtomicBool::new(false),
            metrics,
            cache,
            executor,
        });
        let mut threads = Vec::with_capacity(config.job_workers + 1);
        for i in 0..config.job_workers {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tauhls-serve-job-{i}"))
                    .spawn(move || runner_loop(&inner))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("tauhls-serve-job-scheduler".to_string())
                    .spawn(move || scheduler_loop(&inner))?,
            );
        }
        Ok(JobManager {
            inner,
            threads: Mutex::new(threads),
        })
    }

    /// Submits a job for `client` at `priority` (0 soonest .. 9 latest).
    /// Idempotent: a spec already known answers its current state.
    pub fn submit(
        &self,
        spec: JobSpec,
        client: &str,
        priority: u8,
    ) -> Result<SubmitOutcome, SubmitError> {
        let inner = &self.inner;
        if inner.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::QueueFull);
        }
        if let Err(retry_after) = inner.admission.try_take(client) {
            inner.metrics.count_job("rejected");
            return Err(SubmitError::RateLimited(retry_after));
        }
        let id = spec.job_id();
        let class = class_of(priority, &spec);
        let mut table = inner.lock_table();
        if let Some(rec) = table.get_mut(&id) {
            match rec.state {
                JobState::Failed | JobState::Cancelled => {
                    // Resubmitting a dead job restarts it with a fresh
                    // attempt budget (content address unchanged).
                    if inner.pending.try_push_at(class, id.clone()).is_err() {
                        return Err(SubmitError::QueueFull);
                    }
                    rec.attempts = 0;
                    rec.error = None;
                    rec.state = JobState::Queued;
                    rec.client = client.to_string();
                    rec.priority = priority;
                    let line = submit_line(&id, rec);
                    inner.journal_line(&line);
                    inner.metrics.count_job("submitted");
                    return Ok(SubmitOutcome {
                        id,
                        state: JobState::Queued,
                    });
                }
                state => {
                    return Ok(SubmitOutcome { id, state });
                }
            }
        }
        let pending_for_client = table
            .values()
            .filter(|r| r.client == client && !r.state.is_terminal())
            .count();
        if pending_for_client >= inner.max_pending_per_client {
            drop(table);
            inner.metrics.count_job("rejected");
            let retry_after = (pending_for_client as u64).clamp(1, 60);
            return Err(SubmitError::QuotaExceeded(retry_after));
        }
        if inner.pending.try_push_at(class, id.clone()).is_err() {
            return Err(SubmitError::QueueFull);
        }
        let rec = JobRecord {
            spec,
            client: client.to_string(),
            priority,
            attempts: 0,
            state: JobState::Queued,
            error: None,
            artifact: None,
            result: None,
            cancel: None,
        };
        let line = submit_line(&id, &rec);
        inner.journal_line(&line);
        table.insert(id.clone(), rec);
        drop(table);
        inner.metrics.count_job("submitted");
        Ok(SubmitOutcome {
            id,
            state: JobState::Queued,
        })
    }

    /// The job's status body (compact JSON plus trailing newline).
    pub fn status(&self, id: &str) -> Option<String> {
        let table = self.inner.lock_table();
        table.get(id).map(|rec| render_status(id, rec))
    }

    /// The job's current state.
    pub fn state(&self, id: &str) -> Option<JobState> {
        let table = self.inner.lock_table();
        table.get(id).map(|rec| rec.state)
    }

    /// The job's result, by lifecycle.
    pub fn result(&self, id: &str) -> JobResult {
        let table = self.inner.lock_table();
        let Some(rec) = table.get(id) else {
            return JobResult::Unknown;
        };
        match rec.state {
            JobState::Done => match &rec.result {
                Some(body) => JobResult::Ready(Arc::clone(body)),
                None => JobResult::Pending("done"),
            },
            JobState::Failed => {
                JobResult::Failed(rec.error.clone().unwrap_or_else(|| "failed".to_string()))
            }
            JobState::Cancelled => JobResult::Cancelled,
            state => JobResult::Pending(state.as_str()),
        }
    }

    /// Cancels a job: queued/backing-off jobs become terminal
    /// immediately; a running attempt is cancelled through its token
    /// (the batch engine observes it between trial chunks). Answers the
    /// post-cancel status body, or `None` for an unknown ID.
    pub fn cancel(&self, id: &str) -> Option<String> {
        let inner = &self.inner;
        let mut table = inner.lock_table();
        let rec = table.get_mut(id)?;
        match rec.state {
            JobState::Queued | JobState::Backoff => {
                rec.state = JobState::Cancelled;
                rec.error = Some("cancelled by client".to_string());
                inner.journal_event(id, "cancelled", Vec::new());
                inner.metrics.count_job("cancelled");
            }
            JobState::Running => {
                if let Some(token) = &rec.cancel {
                    token.cancel();
                }
                rec.error = Some("cancellation requested".to_string());
            }
            _ => {} // already terminal; idempotent
        }
        Some(render_status(id, rec))
    }

    /// Jobs currently waiting in the shared queue.
    pub fn depth(&self) -> usize {
        self.inner.pending.depth()
    }

    /// A count per lifecycle state over the whole job table, in the
    /// fixed order queued/running/backoff/done/failed/cancelled (states
    /// with zero jobs included) — the `jobs` block of `GET /v1/status`.
    pub fn state_counts(&self) -> [(&'static str, u64); 6] {
        const STATES: [JobState; 6] = [
            JobState::Queued,
            JobState::Running,
            JobState::Backoff,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ];
        let table = self.inner.lock_table();
        let mut counts = STATES.map(|s| (s.as_str(), 0u64));
        for rec in table.values() {
            if let Some(slot) = STATES.iter().position(|s| *s == rec.state) {
                counts[slot].1 += 1;
            }
        }
        counts
    }

    /// Stops accepting and scheduling work. Queued jobs stay journalled
    /// (`submit`/`retry` is their most recent event), so a restart
    /// requeues them; running attempts finish or are cancelled by the
    /// server's drain watchdog and journal a `requeue` event.
    pub fn begin_shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.pending.close();
        self.inner.pending.drain();
        self.inner.backoff_wake.notify_all();
    }

    /// Joins the worker and scheduler threads (call after
    /// [`JobManager::begin_shutdown`]).
    pub fn join(&self) {
        let handles: Vec<_> = {
            let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
            threads.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Inner {
    fn lock_table(&self) -> MutexGuard<'_, HashMap<String, JobRecord>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event line to the journal and fsyncs it. A write
    /// failure downgrades to in-memory operation with a diagnostic —
    /// durability degrades, correctness does not.
    fn journal_line(&self, line: &Json) {
        let mut guard = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(file) = guard.as_mut() {
            let mut text = line.to_compact();
            text.push('\n');
            let wrote = file
                .write_all(text.as_bytes())
                .and_then(|()| file.sync_data());
            if let Err(e) = wrote {
                eprintln!("tauhls-serve: job journal write failed ({e}); continuing in-memory");
                *guard = None;
            }
        }
    }

    fn journal_event(&self, id: &str, event: &str, extra: Vec<(&str, Json)>) {
        let mut pairs = vec![("event", Json::from(event)), ("job", Json::from(id))];
        pairs.extend(extra);
        self.journal_line(&Json::object(pairs));
    }

    /// Persists one result body under its content hash (atomic via a
    /// temp file and rename; content-addressed, so an existing file is
    /// already correct).
    fn write_artifact(&self, hash: u64, body: &[u8]) {
        let Some(dir) = &self.data_dir else { return };
        let path = artifact_path(dir, hash);
        if path.exists() {
            return;
        }
        let tmp = dir.join("artifacts").join(format!(".tmp-{hash:016x}"));
        let wrote = (|| -> std::io::Result<()> {
            let mut file = File::create(&tmp)?;
            file.write_all(body)?;
            file.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        if let Err(e) = wrote {
            eprintln!("tauhls-serve: artifact {hash:016x} not persisted ({e})");
        }
    }
}

/// Maps (client priority 0..=9, job cost) onto a queue class: priority
/// dominates, and within a priority small interactive jobs overtake
/// giant sweeps.
fn class_of(priority: u8, spec: &JobSpec) -> u8 {
    let cost = match spec.trials() {
        0..=10_000 => 0,
        10_001..=100_000 => 1,
        _ => 2,
    };
    priority.min(9) * 3 + cost
}

/// The retry delay before attempt `attempt + 1`: exponential in the
/// attempt number (capped at 32x base) plus a jitter below one base
/// period derived from the job ID — deterministic, no clock entropy.
pub(crate) fn backoff_delay(base: Duration, id: &str, attempt: u32) -> Duration {
    let base_ms = (base.as_millis() as u64).max(1);
    let factor = 1u64 << attempt.saturating_sub(1).min(5);
    let mut h = Fnv64::new();
    h.write_str(id);
    let jitter = splitmix64_mix(h.finish() ^ u64::from(attempt)) % base_ms;
    Duration::from_millis(base_ms * factor + jitter)
}

fn artifact_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join("artifacts").join(format!("{hash:016x}.json"))
}

fn render_status(id: &str, rec: &JobRecord) -> String {
    let mut pairs = vec![
        ("job", Json::from(id)),
        ("endpoint", Json::from(rec.spec.endpoint().as_str())),
        ("state", Json::from(rec.state.as_str())),
        ("attempts", Json::from(u64::from(rec.attempts))),
        ("priority", Json::from(u64::from(rec.priority))),
        ("client", Json::from(rec.client.as_str())),
    ];
    if let Some(error) = &rec.error {
        pairs.push(("error", Json::from(error.as_str())));
    }
    if let Some(artifact) = rec.artifact {
        pairs.push(("artifact", Json::from(format!("{artifact:016x}"))));
    }
    if let Some(result) = &rec.result {
        pairs.push(("result_bytes", Json::from(result.len())));
    }
    let mut body = Json::object(pairs).to_compact();
    body.push('\n');
    body
}

fn submit_line(id: &str, rec: &JobRecord) -> Json {
    Json::object([
        ("event", Json::from("submit")),
        ("job", Json::from(id)),
        ("client", Json::from(rec.client.as_str())),
        ("priority", Json::from(u64::from(rec.priority))),
        ("attempts", Json::from(u64::from(rec.attempts))),
        ("spec", rec.spec.canonical()),
    ])
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

fn runner_loop(inner: &Arc<Inner>) {
    while let Some(id) = inner.pending.pop() {
        run_one(inner, &id);
    }
}

fn run_one(inner: &Arc<Inner>, id: &str) {
    let (spec, token, attempt) = {
        let mut table = inner.lock_table();
        let Some(rec) = table.get_mut(id) else { return };
        if rec.state != JobState::Queued && rec.state != JobState::Backoff {
            return; // cancelled (or duplicate queue entry) while waiting
        }
        rec.attempts += 1;
        rec.state = JobState::Running;
        let token = inner.cancel.child();
        rec.cancel = Some(token.clone());
        (rec.spec.clone(), token, rec.attempts)
    };
    inner.journal_event(
        id,
        "start",
        vec![("attempt", Json::from(u64::from(attempt)))],
    );
    let started = Instant::now();
    let runner = BatchRunner::sized(inner.sim_threads).with_cancel(token.clone());
    let outcome = catch_unwind(AssertUnwindSafe(|| (inner.executor)(&spec, &runner)))
        .unwrap_or_else(|_| {
            inner.metrics.count_panic();
            Err(JobError::Failed("job attempt panicked".to_string()))
        });
    match outcome {
        Ok((json, records)) => complete(inner, id, &spec, &json, &records, started),
        Err(JobError::Cancelled) => {
            if token.is_self_cancelled() {
                // Client DELETE: terminal.
                inner.journal_event(id, "cancelled", Vec::new());
                let mut table = inner.lock_table();
                if let Some(rec) = table.get_mut(id) {
                    rec.state = JobState::Cancelled;
                    rec.error = Some("cancelled by client".to_string());
                    rec.cancel = None;
                }
                drop(table);
                inner.metrics.count_job("cancelled");
            } else {
                // Shutdown watchdog: journal the interruption so the
                // next start requeues the job.
                inner.journal_event(id, "requeue", Vec::new());
                let mut table = inner.lock_table();
                if let Some(rec) = table.get_mut(id) {
                    rec.state = JobState::Queued;
                    rec.cancel = None;
                }
                drop(table);
                inner.metrics.count_job("requeued");
            }
        }
        // An invalid spec can never succeed on retry.
        Err(JobError::Invalid(m)) => fail(inner, id, format!("invalid job spec: {m}")),
        Err(JobError::Failed(m)) => retry_or_fail(inner, id, attempt, m),
    }
}

fn complete(
    inner: &Arc<Inner>,
    id: &str,
    spec: &JobSpec,
    json: &Json,
    records: &[StageRecord],
    started: Instant,
) {
    let body: Arc<str> = Arc::from(json.to_pretty());
    let hash = Fnv64::of(body.as_bytes());
    // Durability order: artifact first, then the journal entry that
    // points at it — a crash between the two replays as "still running"
    // and recomputes, never as "done with a missing artifact".
    inner.write_artifact(hash, body.as_bytes());
    inner.journal_event(
        id,
        "done",
        vec![
            ("artifact", Json::from(format!("{hash:016x}"))),
            ("bytes", Json::from(body.len())),
        ],
    );
    for record in records {
        inner.metrics.observe_stage(record);
    }
    inner.metrics.count_trials(spec.trials());
    inner.metrics.observe_latency("jobs", started.elapsed());
    inner.cache.insert(spec.cache_key(), Arc::clone(&body));
    let mut table = inner.lock_table();
    if let Some(rec) = table.get_mut(id) {
        rec.state = JobState::Done;
        rec.artifact = Some(hash);
        rec.result = Some(body);
        rec.error = None;
        rec.cancel = None;
    }
    drop(table);
    inner.metrics.count_job("completed");
}

fn fail(inner: &Arc<Inner>, id: &str, error: String) {
    inner.journal_event(id, "failed", vec![("error", Json::from(error.as_str()))]);
    let mut table = inner.lock_table();
    if let Some(rec) = table.get_mut(id) {
        rec.state = JobState::Failed;
        rec.error = Some(error);
        rec.cancel = None;
    }
    drop(table);
    inner.metrics.count_job("failed");
}

fn retry_or_fail(inner: &Arc<Inner>, id: &str, attempt: u32, error: String) {
    if attempt >= inner.max_attempts {
        fail(inner, id, error);
        return;
    }
    let delay = backoff_delay(inner.backoff_base, id, attempt);
    inner.journal_event(
        id,
        "retry",
        vec![
            ("attempt", Json::from(u64::from(attempt))),
            ("delay_ms", Json::from(delay.as_millis() as u64)),
            ("error", Json::from(error.as_str())),
        ],
    );
    {
        let mut table = inner.lock_table();
        if let Some(rec) = table.get_mut(id) {
            rec.state = JobState::Backoff;
            rec.error = Some(error);
            rec.cancel = None;
        }
    }
    {
        let mut backoff = inner.backoff.lock().unwrap_or_else(PoisonError::into_inner);
        backoff.push((Instant::now() + delay, id.to_string()));
    }
    inner.backoff_wake.notify_all();
    inner.metrics.count_job("retried");
}

/// Wakes jobs whose backoff expired and feeds them back to the queue.
fn scheduler_loop(inner: &Arc<Inner>) {
    let mut guard = inner.backoff.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        let mut i = 0;
        while i < guard.len() {
            if guard[i].0 <= now {
                due.push(guard.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        if !due.is_empty() {
            drop(guard);
            for id in due {
                enqueue_ready(inner, &id);
            }
            guard = inner.backoff.lock().unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        let wait = guard
            .iter()
            .map(|(t, _)| t.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_millis(200))
            .clamp(Duration::from_millis(1), Duration::from_millis(200));
        guard = inner
            .backoff_wake
            .wait_timeout(guard, wait)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

fn enqueue_ready(inner: &Arc<Inner>, id: &str) {
    let class = {
        let table = inner.lock_table();
        let Some(rec) = table.get(id) else { return };
        if rec.state != JobState::Backoff {
            return; // cancelled while waiting out the delay
        }
        class_of(rec.priority, &rec.spec)
    };
    if inner.pending.try_push_at(class, id.to_string()).is_err()
        && !inner.shutting_down.load(Ordering::SeqCst)
    {
        // Queue momentarily full: park again briefly. (On shutdown the
        // journalled `retry` event requeues the job after restart.)
        let mut backoff = inner.backoff.lock().unwrap_or_else(PoisonError::into_inner);
        backoff.push((Instant::now() + Duration::from_millis(250), id.to_string()));
    }
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

#[derive(Debug)]
struct ReplayJob {
    canonical: Json,
    client: String,
    priority: u8,
    attempts: u32,
    state: JobState,
    artifact: Option<u64>,
    error: Option<String>,
}

#[derive(Debug, Default)]
struct Replay {
    jobs: Vec<(String, ReplayJob)>,
    diagnostics: Vec<String>,
}

/// Replays the journal into per-job end states. Hostile input is
/// answered with diagnostics, never a panic: an unparseable line stops
/// the replay there (append-only journals corrupt from the tail), and a
/// semantically malformed line is skipped.
fn replay_journal(path: &Path) -> Replay {
    let mut out = Replay::default();
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return out,
        Err(e) => {
            out.diagnostics
                .push(format!("job journal unreadable ({e}); starting empty"));
            return out;
        }
    };
    let text = String::from_utf8_lossy(&bytes);
    let mut index: HashMap<String, usize> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match Json::parse(line) {
            Ok(j) => j,
            Err(e) => {
                out.diagnostics.push(format!(
                    "job journal line {n}: unreadable ({e}); stopping replay at torn tail"
                ));
                break;
            }
        };
        let event = parsed.get("event").and_then(|j| j.as_str());
        let job = parsed.get("job").and_then(|j| j.as_str());
        let (Some(event), Some(job)) = (event, job) else {
            out.diagnostics
                .push(format!("job journal line {n}: missing event/job; skipped"));
            continue;
        };
        if event == "submit" {
            let Some(spec) = parsed.get("spec") else {
                out.diagnostics.push(format!(
                    "job journal line {n}: submit without spec; skipped"
                ));
                continue;
            };
            let rj = ReplayJob {
                canonical: spec.clone(),
                client: parsed
                    .get("client")
                    .and_then(|j| j.as_str())
                    .unwrap_or("anonymous")
                    .to_string(),
                priority: parsed
                    .get("priority")
                    .and_then(|j| j.as_u64())
                    .unwrap_or(5)
                    .min(9) as u8,
                attempts: parsed.get("attempts").and_then(|j| j.as_u64()).unwrap_or(0) as u32,
                state: JobState::Queued,
                artifact: None,
                error: None,
            };
            match index.get(job) {
                Some(&i) => out.jobs[i].1 = rj,
                None => {
                    index.insert(job.to_string(), out.jobs.len());
                    out.jobs.push((job.to_string(), rj));
                }
            }
            continue;
        }
        // Partition events (`dispatch`, `part_done`, `part_requeue`) are
        // no longer written — job state lives in the job-level events —
        // but journals from earlier versions hold them, for submitted
        // jobs and for synchronous requests alike. Skip them silently.
        if matches!(event, "dispatch" | "part_done" | "part_requeue") {
            continue;
        }
        let Some(&i) = index.get(job) else {
            out.diagnostics.push(format!(
                "job journal line {n}: {event} for unknown job {job}; skipped"
            ));
            continue;
        };
        let rj = &mut out.jobs[i].1;
        match event {
            "start" => {
                if let Some(a) = parsed.get("attempt").and_then(|j| j.as_u64()) {
                    rj.attempts = a as u32;
                }
                rj.state = JobState::Running;
            }
            "retry" => {
                if let Some(a) = parsed.get("attempt").and_then(|j| j.as_u64()) {
                    rj.attempts = a as u32;
                }
                rj.error = parsed
                    .get("error")
                    .and_then(|j| j.as_str())
                    .map(str::to_string);
                rj.state = JobState::Queued;
            }
            "done" => {
                let hash = parsed
                    .get("artifact")
                    .and_then(|j| j.as_str())
                    .and_then(|h| u64::from_str_radix(h, 16).ok());
                match hash {
                    Some(h) => {
                        rj.artifact = Some(h);
                        rj.state = JobState::Done;
                    }
                    None => out.diagnostics.push(format!(
                        "job journal line {n}: done without a valid artifact hash; skipped"
                    )),
                }
            }
            "failed" => {
                rj.error = parsed
                    .get("error")
                    .and_then(|j| j.as_str())
                    .map(str::to_string);
                rj.state = JobState::Failed;
            }
            "cancelled" => rj.state = JobState::Cancelled,
            "requeue" => rj.state = JobState::Queued,
            other => out.diagnostics.push(format!(
                "job journal line {n}: unknown event {other:?}; skipped"
            )),
        }
    }
    out
}

/// Turns one replayed job into a live record: parses the canonical spec,
/// re-verifies its ID, and for completed jobs re-verifies the artifact
/// (quarantining and recomputing on any mismatch).
fn revive_job(
    dir: &Path,
    metrics: &Metrics,
    cache: &Cache,
    id: String,
    rj: ReplayJob,
) -> Option<(String, JobRecord)> {
    let spec = match JobSpec::from_canonical(&rj.canonical) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tauhls-serve: job {id}: journalled spec unusable ({e}); dropped");
            return None;
        }
    };
    if spec.job_id() != id {
        eprintln!("tauhls-serve: job {id}: journalled spec hashes to a different ID; dropped");
        return None;
    }
    let mut rec = JobRecord {
        spec,
        client: rj.client,
        priority: rj.priority,
        attempts: rj.attempts,
        state: rj.state,
        error: rj.error,
        artifact: None,
        result: None,
        cancel: None,
    };
    match rj.state {
        JobState::Done => match verify_artifact(dir, rj.artifact) {
            Ok((hash, body)) => {
                let body: Arc<str> = Arc::from(body);
                cache.insert(rec.spec.cache_key(), Arc::clone(&body));
                rec.artifact = Some(hash);
                rec.result = Some(body);
                metrics.count_job("recovered");
            }
            Err(why) => {
                eprintln!("tauhls-serve: job {id}: artifact {why}; quarantined, recomputing");
                if let Some(hash) = rj.artifact {
                    quarantine_artifact(dir, hash);
                }
                metrics.count_job("quarantined");
                rec.state = JobState::Queued;
                rec.attempts = 0;
                rec.error = None;
            }
        },
        JobState::Failed | JobState::Cancelled => metrics.count_job("recovered"),
        JobState::Running | JobState::Backoff => {
            // Interrupted mid-flight by the crash: back to the queue.
            rec.state = JobState::Queued;
            metrics.count_job("requeued");
        }
        JobState::Queued => metrics.count_job("recovered"),
    }
    Some((id, rec))
}

/// Loads one artifact and checks its FNV-1a content hash.
fn verify_artifact(dir: &Path, hash: Option<u64>) -> Result<(u64, String), String> {
    let hash = hash.ok_or_else(|| "hash missing from journal".to_string())?;
    let path = artifact_path(dir, hash);
    let bytes = fs::read(&path).map_err(|e| format!("{hash:016x} unreadable ({e})"))?;
    if Fnv64::of(&bytes) != hash {
        return Err(format!("{hash:016x} failed its integrity check"));
    }
    String::from_utf8(bytes)
        .map(|body| (hash, body))
        .map_err(|_| format!("{hash:016x} is not UTF-8"))
}

fn quarantine_artifact(dir: &Path, hash: u64) {
    let from = artifact_path(dir, hash);
    let to = dir.join("quarantine").join(format!("{hash:016x}.json"));
    if let Err(e) = fs::rename(&from, &to) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("tauhls-serve: artifact {hash:016x} not quarantined ({e})");
        }
    }
}

/// Rewrites the journal to its minimal equivalent — one `submit` (plus
/// terminal event) per live job — atomically, then reopens it for
/// appending. Bounds journal growth across restarts.
fn compact_journal(path: &Path, table: &HashMap<String, JobRecord>) -> std::io::Result<File> {
    let tmp = path.with_file_name("jobs.journal.tmp");
    {
        let mut file = File::create(&tmp)?;
        for (id, rec) in table {
            let mut line = submit_line(id, rec).to_compact();
            line.push('\n');
            file.write_all(line.as_bytes())?;
            let terminal = match rec.state {
                JobState::Done => rec.artifact.map(|hash| {
                    Json::object([
                        ("event", Json::from("done")),
                        ("job", Json::from(id.as_str())),
                        ("artifact", Json::from(format!("{hash:016x}"))),
                        (
                            "bytes",
                            Json::from(rec.result.as_ref().map_or(0, |r| r.len())),
                        ),
                    ])
                }),
                JobState::Failed => Some(Json::object([
                    ("event", Json::from("failed")),
                    ("job", Json::from(id.as_str())),
                    (
                        "error",
                        Json::from(rec.error.as_deref().unwrap_or("failed")),
                    ),
                ])),
                JobState::Cancelled => Some(Json::object([
                    ("event", Json::from("cancelled")),
                    ("job", Json::from(id.as_str())),
                ])),
                _ => None,
            };
            if let Some(event) = terminal {
                let mut line = event.to_compact();
                line.push('\n');
                file.write_all(line.as_bytes())?;
            }
        }
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    OpenOptions::new().append(true).create(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use tauhls_core::jobspec::Endpoint;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tauhls-jobs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    fn config(data_dir: Option<PathBuf>) -> ServeConfig {
        ServeConfig {
            data_dir,
            job_workers: 2,
            job_max_attempts: 3,
            job_backoff_base: Duration::from_millis(5),
            sim_threads: Some(1),
            ..ServeConfig::default()
        }
    }

    fn manager(config: &ServeConfig) -> JobManager {
        manager_with(config, Arc::new(|spec, runner| spec.run_with(runner, None)))
    }

    fn manager_with(config: &ServeConfig, executor: Executor) -> JobManager {
        JobManager::start(
            config,
            Arc::new(Metrics::new()),
            Arc::new(Cache::new(1 << 20)),
            CancelToken::new(),
            executor,
        )
        .expect("manager")
    }

    fn spec(trials: u64) -> JobSpec {
        let doc = Json::parse(&format!(r#"{{"dfg":"fir3","trials":{trials},"seed":7}}"#))
            .expect("spec json");
        JobSpec::from_json(Endpoint::Simulate, &doc).expect("spec")
    }

    fn wait_until(what: &str, f: impl Fn() -> bool) {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(20) {
            if f() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn submit_executes_and_result_round_trips() {
        let m = manager(&config(None));
        let s = spec(50);
        let id = s.job_id();
        let out = m.submit(s, "alice", 5).expect("submit");
        assert_eq!(out.id, id);
        wait_until("job done", || m.state(&id) == Some(JobState::Done));
        let JobResult::Ready(body) = m.result(&id) else {
            panic!("result not ready: {:?}", m.result(&id));
        };
        let parsed = Json::parse(&body).expect("result json");
        assert!(parsed.get("spec").is_some(), "result echoes its spec");
        // Idempotent resubmit: same ID, answered done, no second run.
        let again = m.submit(spec(50), "bob", 5).expect("resubmit");
        assert_eq!(again.id, id);
        assert_eq!(again.state, JobState::Done);
        let status = m.status(&id).expect("status");
        assert!(status.contains("\"state\":\"done\""), "{status}");
        m.begin_shutdown();
        m.join();
    }

    #[test]
    fn retries_back_off_then_fail_permanently() {
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&attempts);
        let executor: Executor = Arc::new(move |_, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            Err(JobError::Failed("flaky backend".to_string()))
        });
        let m = manager_with(&config(None), executor);
        let id = m.submit(spec(10), "alice", 5).expect("submit").id;
        wait_until("job failed", || m.state(&id) == Some(JobState::Failed));
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        let JobResult::Failed(error) = m.result(&id) else {
            panic!("expected failed result");
        };
        assert!(error.contains("flaky backend"), "{error}");
        m.begin_shutdown();
        m.join();
    }

    #[test]
    fn a_transient_failure_recovers_on_retry() {
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&attempts);
        let executor: Executor = Arc::new(move |_, _| {
            if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(JobError::Failed("first attempt flakes".to_string()))
            } else {
                Ok((Json::object([("ok", Json::from(true))]), Vec::new()))
            }
        });
        let m = manager_with(&config(None), executor);
        let id = m.submit(spec(10), "alice", 5).expect("submit").id;
        wait_until("job done", || m.state(&id) == Some(JobState::Done));
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        let status = m.status(&id).expect("status");
        assert!(status.contains("\"attempts\":2"), "{status}");
        m.begin_shutdown();
        m.join();
    }

    #[test]
    fn a_panicking_attempt_counts_as_a_failure_not_a_crash() {
        let executor: Executor = Arc::new(|_, _| panic!("executor exploded"));
        let m = manager_with(&config(None), executor);
        let id = m.submit(spec(10), "alice", 5).expect("submit").id;
        wait_until("job failed", || m.state(&id) == Some(JobState::Failed));
        let JobResult::Failed(error) = m.result(&id) else {
            panic!("expected failed result");
        };
        assert!(error.contains("panicked"), "{error}");
        m.begin_shutdown();
        m.join();
    }

    #[test]
    fn cancel_is_terminal_for_queued_jobs() {
        let cfg = ServeConfig {
            job_workers: 0, // diagnostic mode: nothing executes
            ..config(None)
        };
        let m = manager(&cfg);
        let id = m.submit(spec(10), "alice", 5).expect("submit").id;
        assert_eq!(m.state(&id), Some(JobState::Queued));
        let status = m.cancel(&id).expect("cancel");
        assert!(status.contains("\"state\":\"cancelled\""), "{status}");
        assert!(matches!(m.result(&id), JobResult::Cancelled));
        // Cancelling again is idempotent; cancelling nonsense is None.
        assert!(m.cancel(&id).is_some());
        assert!(m.cancel("0000000000000000").is_none());
        // A resubmit restarts the cancelled job.
        let again = m.submit(spec(10), "alice", 5).expect("resubmit");
        assert_eq!(again.state, JobState::Queued);
        m.begin_shutdown();
        m.join();
    }

    #[test]
    fn rate_limit_and_quota_answer_retry_after_per_client() {
        let cfg = ServeConfig {
            job_workers: 0,
            admission_rate: 100.0,
            admission_burst: 100.0,
            max_pending_per_client: 2,
            ..config(None)
        };
        let m = manager(&cfg);
        m.submit(spec(11), "alice", 5).expect("first");
        m.submit(spec(12), "alice", 5).expect("second");
        let err = m.submit(spec(13), "alice", 5).expect_err("quota");
        assert!(
            matches!(err, SubmitError::QuotaExceeded(s) if s >= 1),
            "{err:?}"
        );
        // Another client is unaffected by alice's quota.
        m.submit(spec(13), "bob", 5).expect("bob proceeds");
        m.begin_shutdown();
        m.join();
    }

    #[test]
    fn token_bucket_exhausts_then_refills() {
        let a = Admission::new(10.0, 2.0);
        assert_eq!(a.try_take("c"), Ok(()));
        assert_eq!(a.try_take("c"), Ok(()));
        let retry = a.try_take("c").expect_err("bucket empty");
        assert!(retry >= 1);
        assert_eq!(a.try_take("other"), Ok(()), "buckets are per client");
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(a.try_take("c"), Ok(()), "bucket refills with time");
    }

    #[test]
    fn backoff_delay_is_deterministic_exponential_and_capped() {
        let base = Duration::from_millis(100);
        let d1 = backoff_delay(base, "deadbeefdeadbeef", 1);
        let d2 = backoff_delay(base, "deadbeefdeadbeef", 2);
        let d9 = backoff_delay(base, "deadbeefdeadbeef", 9);
        assert_eq!(d1, backoff_delay(base, "deadbeefdeadbeef", 1));
        assert!(d1 >= base && d1 < base * 2, "{d1:?}");
        assert!(d2 >= base * 2 && d2 < base * 3, "{d2:?}");
        assert!(d9 >= base * 32 && d9 < base * 33, "capped at 32x: {d9:?}");
        assert_ne!(
            backoff_delay(base, "deadbeefdeadbeef", 1),
            backoff_delay(base, "0123456789abcdef", 1),
            "jitter differs per job"
        );
    }

    #[test]
    fn journal_replays_done_jobs_across_restart() {
        let dir = tempdir("replay");
        let cfg = config(Some(dir.clone()));
        let id;
        let body;
        {
            let m = manager(&cfg);
            id = m.submit(spec(40), "alice", 5).expect("submit").id;
            wait_until("job done", || m.state(&id) == Some(JobState::Done));
            let JobResult::Ready(b) = m.result(&id) else {
                panic!("result not ready");
            };
            body = b.to_string();
            m.begin_shutdown();
            m.join();
        }
        let m = manager(&cfg);
        assert_eq!(m.state(&id), Some(JobState::Done), "recovered from journal");
        let JobResult::Ready(recovered) = m.result(&id) else {
            panic!("recovered result not ready");
        };
        assert_eq!(
            recovered.as_ref(),
            body,
            "byte-identical across the restart"
        );
        m.begin_shutdown();
        m.join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_jobs_requeue_and_finish_after_restart() {
        let dir = tempdir("requeue");
        let cfg = ServeConfig {
            job_workers: 0, // accepted but never started: simulates a crash mid-queue
            ..config(Some(dir.clone()))
        };
        let id;
        {
            let m = manager(&cfg);
            id = m.submit(spec(40), "alice", 5).expect("submit").id;
            assert_eq!(m.state(&id), Some(JobState::Queued));
            m.begin_shutdown();
            m.join();
        }
        let cfg = config(Some(dir.clone()));
        let m = manager(&cfg);
        wait_until("requeued job done", || m.state(&id) == Some(JobState::Done));
        assert!(matches!(m.result(&id), JobResult::Ready(_)));
        m.begin_shutdown();
        m.join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifacts_are_quarantined_and_recomputed() {
        let dir = tempdir("quarantine");
        let cfg = config(Some(dir.clone()));
        let id;
        let body;
        {
            let m = manager(&cfg);
            id = m.submit(spec(40), "alice", 5).expect("submit").id;
            wait_until("job done", || m.state(&id) == Some(JobState::Done));
            let JobResult::Ready(b) = m.result(&id) else {
                panic!("result not ready");
            };
            body = b.to_string();
            m.begin_shutdown();
            m.join();
        }
        // Flip one byte in the (only) artifact on disk.
        let artifacts = dir.join("artifacts");
        let entry = fs::read_dir(&artifacts)
            .expect("artifacts dir")
            .next()
            .expect("one artifact")
            .expect("entry");
        let mut bytes = fs::read(entry.path()).expect("artifact bytes");
        bytes[0] ^= 0x40;
        fs::write(entry.path(), &bytes).expect("corrupt artifact");
        let m = manager(&cfg);
        // The corrupt artifact was moved aside and the job requeued...
        assert!(
            fs::read_dir(dir.join("quarantine"))
                .expect("quarantine dir")
                .next()
                .is_some(),
            "artifact quarantined"
        );
        // ...and determinism recomputes the identical body.
        wait_until("recomputed", || m.state(&id) == Some(JobState::Done));
        let JobResult::Ready(recomputed) = m.result(&id) else {
            panic!("recomputed result not ready");
        };
        assert_eq!(recomputed.as_ref(), body);
        m.begin_shutdown();
        m.join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_journal_tails_never_panic_and_keep_the_prefix() {
        let dir = tempdir("torn");
        let cfg = config(Some(dir.clone()));
        let id;
        {
            let m = manager(&cfg);
            id = m.submit(spec(40), "alice", 5).expect("submit").id;
            wait_until("job done", || m.state(&id) == Some(JobState::Done));
            m.begin_shutdown();
            m.join();
        }
        // Append a torn half-line, as a crash mid-append would leave.
        let journal = dir.join("jobs.journal");
        let mut text = fs::read_to_string(&journal).expect("journal");
        text.push_str("{\"event\":\"submit\",\"job\":\"012");
        fs::write(&journal, &text).expect("torn journal");
        let m = manager(&cfg);
        assert_eq!(m.state(&id), Some(JobState::Done), "prefix survives");
        m.begin_shutdown();
        m.join();
        // The compacted journal replays clean a second time.
        let m = manager(&cfg);
        assert_eq!(m.state(&id), Some(JobState::Done));
        m.begin_shutdown();
        m.join();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partition_lines_of_earlier_journals_replay_silently() {
        let dir = tempdir("partition-lines");
        let journal = dir.join("jobs.journal");
        let s = spec(30);
        let id = s.job_id();
        let submit = Json::object([
            ("event", Json::from("submit")),
            ("job", Json::from(id.as_str())),
            ("spec", s.canonical()),
        ])
        .to_compact();
        let start = format!(r#"{{"event":"start","job":"{id}","attempt":1}}"#);
        let partition_lines = |job: &str| {
            [
                format!(
                    r#"{{"event":"dispatch","job":"{job}","part":0,"of":2,"worker":"127.0.0.1:9001","attempt":1}}"#
                ),
                format!(
                    r#"{{"event":"part_requeue","job":"{job}","part":0,"of":2,"worker":"127.0.0.1:9001","error":"refused"}}"#
                ),
                format!(r#"{{"event":"part_done","job":"{job}","part":1,"of":2}}"#),
            ]
        };
        let replay = |lines: &[String]| {
            fs::write(&journal, lines.join("\n") + "\n").expect("journal");
            replay_journal(&journal)
        };
        let plain = replay(&[submit.clone(), start.clone()]);
        let mut lines = vec![submit];
        lines.extend(partition_lines(&id));
        lines.push(start);
        // A synchronous cluster request never submitted a job.
        lines.extend(partition_lines("0123456789abcdef"));
        let mixed = replay(&lines);
        assert!(mixed.diagnostics.is_empty(), "{:?}", mixed.diagnostics);
        assert_eq!(mixed.jobs.len(), 1);
        let (got_id, got) = &mixed.jobs[0];
        let (_, want) = &plain.jobs[0];
        assert_eq!(got_id, &id);
        assert_eq!(got.state, JobState::Running);
        assert_eq!(
            (got.state, got.attempts, &got.error, got.artifact),
            (want.state, want.attempts, &want.error, want.artifact)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_skips_semantic_garbage_without_panicking() {
        let dir = tempdir("garbage");
        let journal = dir.join("jobs.journal");
        fs::write(
            &journal,
            concat!(
                "{\"no_event\":true}\n",
                "{\"event\":\"start\",\"job\":\"ffffffffffffffff\",\"attempt\":1}\n",
                "{\"event\":\"submit\",\"job\":\"not-the-real-id\",\"spec\":{\"endpoint\":\"table2\",\"trials\":10,\"seed\":1}}\n",
                "{\"event\":\"submit\",\"job\":\"aaaaaaaaaaaaaaaa\",\"spec\":{\"endpoint\":\"nonsense\"}}\n",
                "{\"event\":\"wat\",\"job\":\"bbbbbbbbbbbbbbbb\"}\n",
            ),
        )
        .expect("journal");
        let m = manager(&ServeConfig {
            job_workers: 0,
            ..config(Some(dir.clone()))
        });
        // Every line was diagnosed and dropped; nothing revived, no panic.
        assert_eq!(m.depth(), 0);
        m.begin_shutdown();
        m.join();
        let _ = fs::remove_dir_all(&dir);
    }
}
