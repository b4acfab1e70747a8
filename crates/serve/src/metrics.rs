//! Service counters and their Prometheus text rendering.
//!
//! Everything is a relaxed atomic — the metrics path must never contend
//! with the simulation path. The `/metrics` endpoint renders the
//! [exposition text format](https://prometheus.io/docs/instrumenting/exposition_formats/)
//! from one table of family rows: counters for requests/responses/trials/
//! cache activity, gauges for queue depth and jobs, and cumulative
//! latency histograms (`trials/sec` is the PromQL ratio
//! `rate(tauhls_serve_trials_total[1m])`). [`exposition`] is the one
//! text writer; the cluster's worker gauges use it too.

use std::collections::VecDeque;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tauhls_core::jobspec::KINDS;
use tauhls_core::stages::STAGE_NAMES;
use tauhls_core::StageRecord;

use crate::cache::Cache;
use crate::jobs::JobState;

/// The request-routing labels counted under
/// `tauhls_serve_requests_total`: the job kinds, then the other routes
/// (paths no route knows count as `other`).
pub const ENDPOINTS: [&str; 13] = kinds_then(&[
    "jobs",
    "dfg_validate",
    "status",
    "healthz",
    "metrics",
    "cluster",
    "other",
]);

/// The endpoints timed under `tauhls_serve_request_seconds`: the job
/// endpoints, async job execution, and the cluster partitions this node
/// serves (the cheap read-only endpoints are not worth a histogram each).
pub const TIMED_ENDPOINTS: [&str; 8] = kinds_then(&["jobs", "cluster"]);

/// The [`KINDS`] names, in table order, then `rest`.
const fn kinds_then<const N: usize>(rest: &[&'static str]) -> [&'static str; N] {
    assert!(KINDS.len() + rest.len() == N, "label count mismatch");
    let mut labels = [""; N];
    let mut i = 0;
    while i < N {
        labels[i] = if i < KINDS.len() {
            KINDS[i].name
        } else {
            rest[i - KINDS.len()]
        };
        i += 1;
    }
    labels
}

/// How many entries the in-memory event log retains; older entries are
/// dropped (and counted) so the log is bounded no matter the uptime.
pub const EVENT_LOG_CAPACITY: usize = 128;

/// Response status codes we count.
pub const STATUS_CODES: [u16; 11] = [200, 202, 400, 404, 405, 408, 409, 413, 429, 500, 503];

/// Async job lifecycle events counted under
/// `tauhls_serve_jobs_total{event=...}`.
pub const JOB_EVENTS: [&str; 9] = [
    "submitted",
    "completed",
    "failed",
    "cancelled",
    "retried",
    "requeued",
    "recovered",
    "quarantined",
    "rejected",
];

/// Cluster partition lifecycle events counted under
/// `tauhls_serve_cluster_partitions_total{event=...}`: partitions a
/// coordinator dispatched / saw complete / requeued off a failed
/// worker / computed locally as a fallback, partitions this node served
/// as a worker, and malformed cluster requests rejected.
pub const CLUSTER_EVENTS: [&str; 6] = [
    "dispatched",
    "completed",
    "requeued",
    "local",
    "served",
    "rejected",
];

/// Histogram bucket upper bounds, in seconds.
pub const BUCKETS_SECONDS: [f64; 8] = [0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0, 16.0];

/// One cumulative latency histogram (Prometheus semantics: each bucket
/// counts observations ≤ its bound, and the implicit `+Inf` bucket is
/// the total count).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS_SECONDS.len()],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        for (bound, bucket) in BUCKETS_SECONDS.iter().zip(&self.buckets) {
            if secs <= *bound {
                bucket.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.sum_micros
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        load(&self.count)
    }
}

fn load(value: &AtomicU64) -> u64 {
    value.load(Ordering::Relaxed)
}

/// One labelled family: a fixed set of label values with one `T` (a
/// relaxed counter or a histogram) per value.
#[derive(Debug)]
struct Labelled<T, K: 'static = &'static str> {
    keys: &'static [K],
    values: Box<[T]>,
}

impl<T: Default, K: Copy + Display> Labelled<T, K> {
    fn new(keys: &'static [K]) -> Self {
        Labelled {
            keys,
            values: keys.iter().map(|_| T::default()).collect(),
        }
    }

    /// The entry for label value `key`, if the family has one.
    fn get<Q>(&self, key: Q) -> Option<&T>
    where
        K: PartialEq<Q>,
    {
        self.keys
            .iter()
            .zip(self.values.iter())
            .find_map(|(k, value)| (*k == key).then_some(value))
    }

    /// `(label set, entry)` pairs in label-value order.
    fn samples<'a, V>(&'a self, label: &str, value: impl Fn(&'a T) -> V) -> Vec<(String, V)> {
        self.keys
            .iter()
            .zip(self.values.iter())
            .map(|(k, entry)| (format!("{label}=\"{k}\""), value(entry)))
            .collect()
    }
}

impl<K: Copy + Display> Labelled<AtomicU64, K> {
    /// The family's counter samples under `label`.
    fn counter(&self, label: &str) -> Samples<'static> {
        Samples::Counter(self.samples(label, |c| load(c).to_string()))
    }

    /// Counts one event under `key`; false if the family has no such
    /// label value.
    fn add<Q>(&self, key: Q) -> bool
    where
        K: PartialEq<Q>,
    {
        self.get(key)
            .map(|c| c.fetch_add(1, Ordering::Relaxed))
            .is_some()
    }

    /// Events counted under `key` (0 for an unknown label value).
    fn count<Q>(&self, key: Q) -> u64
    where
        K: PartialEq<Q>,
    {
        self.get(key).map_or(0, load)
    }
}

impl Labelled<Histogram> {
    /// The family's histogram samples under `label`.
    fn histogram(&self, label: &str) -> Samples<'_> {
        Samples::Histogram(self.samples(label, |h| h))
    }
}

/// One exposition family's samples, each under its label set (an empty
/// label set renders a bare sample).
pub(crate) enum Samples<'a> {
    /// `# TYPE … counter` values.
    Counter(Vec<(String, String)>),
    /// `# TYPE … gauge` values.
    Gauge(Vec<(String, String)>),
    /// `# TYPE … histogram`: `_bucket`, `_sum` and `_count` per label set.
    Histogram(Vec<(String, &'a Histogram)>),
}

/// An unlabelled counter's one sample.
pub(crate) fn counter(value: impl Display) -> Samples<'static> {
    Samples::Counter(vec![(String::new(), value.to_string())])
}

/// An unlabelled gauge's one sample.
pub(crate) fn gauge(value: impl Display) -> Samples<'static> {
    Samples::Gauge(vec![(String::new(), value.to_string())])
}

/// Writes `(family name, samples)` rows as Prometheus exposition text —
/// the one writer behind every `/metrics` line.
pub(crate) fn exposition<'a>(families: impl IntoIterator<Item = (&'a str, Samples<'a>)>) -> String {
    let mut out = String::with_capacity(8192);
    // Writing to a String cannot fail.
    for (name, samples) in families {
        let kind = match samples {
            Samples::Counter(_) => "counter",
            Samples::Gauge(_) => "gauge",
            Samples::Histogram(_) => "histogram",
        };
        let _ = writeln!(out, "# TYPE {name} {kind}");
        match samples {
            Samples::Counter(values) | Samples::Gauge(values) => {
                for (labels, value) in values {
                    if labels.is_empty() {
                        let _ = writeln!(out, "{name} {value}");
                    } else {
                        let _ = writeln!(out, "{name}{{{labels}}} {value}");
                    }
                }
            }
            Samples::Histogram(histograms) => {
                for (labels, h) in histograms {
                    for (bound, bucket) in BUCKETS_SECONDS.iter().zip(&h.buckets) {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{{labels},le=\"{bound}\"}} {}",
                            load(bucket)
                        );
                    }
                    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {}", h.count());
                    let sum = load(&h.sum_micros) as f64 / 1e6;
                    let _ = writeln!(out, "{name}_sum{{{labels}}} {sum}");
                    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
                }
            }
        }
    }
    out
}

/// One retained service event: a monotone sequence number, seconds
/// since process start, and a single-line message.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotone event number (total events ever logged ends at the last
    /// entry's `seq`).
    pub seq: u64,
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// Single-line description (newlines are replaced on entry).
    pub message: String,
}

/// A bounded in-memory log of service lifecycle events (startups,
/// recoveries, quarantines, shutdowns). Lifecycle moments are rare, so
/// one mutex is fine here — the per-request counters stay lock-free.
#[derive(Debug)]
struct EventLog {
    start: Instant,
    entries: Mutex<VecDeque<Event>>,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog {
            start: Instant::now(),
            entries: Mutex::new(VecDeque::new()),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

/// All service counters, shared across acceptor and workers.
#[derive(Debug)]
pub struct Metrics {
    requests: Labelled<AtomicU64>,
    responses: Labelled<AtomicU64, u16>,
    trials: AtomicU64,
    inflight: AtomicU64,
    panics: AtomicU64,
    latency: Labelled<Histogram>,
    stage_seconds: Labelled<Histogram>,
    jobs: Labelled<AtomicU64>,
    cluster: Labelled<AtomicU64>,
    events: EventLog,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: Labelled::new(&ENDPOINTS),
            responses: Labelled::new(&STATUS_CODES),
            trials: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            latency: Labelled::new(&TIMED_ENDPOINTS),
            stage_seconds: Labelled::new(&STAGE_NAMES),
            jobs: Labelled::new(&JOB_EVENTS),
            cluster: Labelled::new(&CLUSTER_EVENTS),
            events: EventLog::default(),
        }
    }
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts a routed request (unknown routes land in `other`).
    pub fn count_request(&self, endpoint: &str) {
        if !self.requests.add(endpoint) {
            self.requests.add("other");
        }
    }

    /// Counts a response by status code (uncounted codes are ignored —
    /// keep [`STATUS_CODES`] in sync with what the router emits).
    pub fn count_response(&self, status: u16) {
        self.responses.add(status);
    }

    /// Adds completed Monte-Carlo trials (the numerator of trials/sec).
    pub fn count_trials(&self, trials: u64) {
        self.trials.fetch_add(trials, Ordering::Relaxed);
    }

    /// Records one completed job's wall-clock latency. Endpoints outside
    /// [`TIMED_ENDPOINTS`] are ignored.
    pub fn observe_latency(&self, endpoint: &str, elapsed: Duration) {
        if let Some(h) = self.latency.get(endpoint) {
            h.observe(elapsed);
        }
    }

    /// Folds one executed pipeline stage into the per-stage latency
    /// histograms.
    pub fn observe_stage(&self, record: &StageRecord) {
        if let Some(h) = self.stage_seconds.get(record.stage) {
            h.observe(record.wall);
        }
    }

    /// Marks a job entering (`+1`) or leaving (`-1`) the worker pool.
    pub fn add_inflight(&self, delta: i64) {
        if delta >= 0 {
            self.inflight.fetch_add(delta as u64, Ordering::Relaxed);
        } else {
            self.inflight.fetch_sub((-delta) as u64, Ordering::Relaxed);
        }
    }

    /// Jobs currently being processed.
    pub fn inflight(&self) -> u64 {
        load(&self.inflight)
    }

    /// Counts a worker surviving a job panic.
    pub fn count_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one async job lifecycle event (a name from
    /// [`JOB_EVENTS`]; unknown names are ignored — keep callers in
    /// sync).
    pub fn count_job(&self, event: &str) {
        self.jobs.add(event);
    }

    /// Counts one cluster partition lifecycle event (a name from
    /// [`CLUSTER_EVENTS`]; unknown names are ignored — keep callers in
    /// sync).
    pub fn count_cluster(&self, event: &str) {
        self.cluster.add(event);
    }

    /// Total events counted for one [`CLUSTER_EVENTS`] name (the
    /// rendered `tauhls_serve_cluster_partitions_total` series carries
    /// the same values).
    pub fn cluster_count(&self, event: &str) -> u64 {
        self.cluster.count(event)
    }

    /// Seconds since this `Metrics` (and so the service) was created.
    pub fn uptime_seconds(&self) -> f64 {
        self.events.start.elapsed().as_secs_f64()
    }

    /// Appends one single-line event to the bounded in-memory log.
    /// Newlines in `message` are flattened so the `/metrics` comment
    /// rendering cannot be broken out of.
    pub fn log_event(&self, message: &str) {
        let seq = self.events.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let event = Event {
            seq,
            uptime_seconds: self.uptime_seconds(),
            message: message.replace(['\n', '\r'], " "),
        };
        let Ok(mut entries) = self.events.entries.lock() else {
            return;
        };
        entries.push_back(event);
        while entries.len() > EVENT_LOG_CAPACITY {
            entries.pop_front();
            self.events.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .entries
            .lock()
            .map(|entries| entries.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Total events ever logged (retained or dropped).
    pub fn event_count(&self) -> u64 {
        load(&self.events.seq)
    }

    /// A `Retry-After` value (seconds) derived from the queue depth and
    /// the measured drain rate: average request latency across the timed
    /// endpoints times the backlog ahead of a new arrival, divided by
    /// the worker count. Falls back to `1` before any request has
    /// completed, and clamps to `1..=60` so the hint is always sane.
    pub fn retry_after_hint(&self, queue_depth: usize, workers: usize) -> u64 {
        let count: u64 = self.latency.values.iter().map(Histogram::count).sum();
        let sum_micros: u64 = self
            .latency
            .values
            .iter()
            .map(|h| load(&h.sum_micros))
            .sum();
        if count == 0 {
            return 1;
        }
        let avg_secs = (sum_micros as f64 / count as f64) / 1e6;
        let secs = ((queue_depth as f64 + 1.0) * avg_secs / workers.max(1) as f64).ceil();
        (secs as u64).clamp(1, 60)
    }

    /// Renders the Prometheus exposition text, folding in the response
    /// cache's own counters, the queue's current depth,
    /// and the job gauges derived from the job table's `job_states`
    /// (pending = queued + backing off).
    pub fn render(&self, cache: &Cache, queue_depth: usize, job_states: &[(&str, u64)]) -> String {
        let jobs_in = |states: &[JobState]| -> u64 {
            job_states
                .iter()
                .filter(|(name, _)| states.iter().any(|s| s.as_str() == *name))
                .map(|(_, n)| n)
                .sum()
        };
        // One row per family, in exposition order.
        #[rustfmt::skip]
        let mut out = exposition([
            ("tauhls_serve_requests_total", self.requests.counter("endpoint")),
            ("tauhls_serve_responses_total", self.responses.counter("code")),
            ("tauhls_serve_trials_total", counter(load(&self.trials))),
            ("tauhls_serve_cache_hits_total", counter(cache.hit_count())),
            ("tauhls_serve_cache_misses_total", counter(cache.miss_count())),
            ("tauhls_serve_cache_evictions_total", counter(cache.eviction_count())),
            ("tauhls_serve_cache_bytes", gauge(cache.bytes())),
            ("tauhls_serve_cache_entries", gauge(cache.entries())),
            ("tauhls_serve_queue_depth", gauge(queue_depth)),
            ("tauhls_serve_inflight_jobs", gauge(self.inflight())),
            ("tauhls_serve_worker_panics_total", counter(load(&self.panics))),
            ("tauhls_serve_jobs_total", self.jobs.counter("event")),
            ("tauhls_serve_jobs_pending", gauge(jobs_in(&[JobState::Queued, JobState::Backoff]))),
            ("tauhls_serve_jobs_running", gauge(jobs_in(&[JobState::Running]))),
            ("tauhls_serve_cluster_partitions_total", self.cluster.counter("event")),
            ("tauhls_serve_request_seconds", self.latency.histogram("endpoint")),
            ("tauhls_serve_stage_seconds", self.stage_seconds.histogram("stage")),
            ("tauhls_serve_uptime_seconds", gauge(format_args!("{:.3}", self.uptime_seconds()))),
            ("tauhls_serve_events_total", counter(self.event_count())),
            ("tauhls_serve_events_dropped_total", counter(load(&self.events.dropped))),
        ]);
        // The retained event log rides along as exposition comments, so
        // one /metrics scrape carries the recent service history too.
        for event in self.events() {
            let _ = writeln!(
                out,
                "# event {} +{:.3}s {}",
                event.seq, event.uptime_seconds, event.message
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_exposes_every_family_with_values() {
        let m = Metrics::new();
        let cache = Cache::new(1024);
        m.count_request("simulate");
        m.count_request("simulate");
        m.count_request("/weird");
        m.count_response(200);
        m.count_response(503);
        m.count_trials(500);
        m.add_inflight(1);
        m.observe_latency("simulate", Duration::from_millis(2));
        m.observe_stage(&StageRecord {
            stage: "bind",
            input_hash: 1,
            output_hash: 2,
            wall: Duration::from_millis(1),
            cache_hit: false,
        });
        m.observe_stage(&StageRecord {
            stage: "bind",
            input_hash: 1,
            output_hash: 2,
            wall: Duration::from_micros(5),
            cache_hit: false,
        });
        cache.insert("k".to_string(), "v".into());
        cache.get("k");
        cache.get("absent");
        m.count_job("submitted");
        m.count_job("submitted");
        m.count_job("completed");
        m.count_job("nonesuch"); // ignored
        let text = m.render(&cache, 3, &[("queued", 1), ("backoff", 2), ("running", 1)]);
        for needle in [
            "tauhls_serve_requests_total{endpoint=\"simulate\"} 2",
            "tauhls_serve_requests_total{endpoint=\"other\"} 1",
            "tauhls_serve_responses_total{code=\"200\"} 1",
            "tauhls_serve_responses_total{code=\"503\"} 1",
            "tauhls_serve_trials_total 500",
            "tauhls_serve_cache_hits_total 1",
            "tauhls_serve_cache_misses_total 1",
            "tauhls_serve_cache_evictions_total 0",
            "tauhls_serve_queue_depth 3",
            "tauhls_serve_inflight_jobs 1",
            "tauhls_serve_request_seconds_count{endpoint=\"simulate\"} 1",
            "tauhls_serve_request_seconds_bucket{endpoint=\"simulate\",le=\"+Inf\"} 1",
            "tauhls_serve_request_seconds_count{endpoint=\"area\"} 0",
            "tauhls_serve_requests_total{endpoint=\"explore\"} 0",
            "tauhls_serve_requests_total{endpoint=\"dfg_validate\"} 0",
            "tauhls_serve_requests_total{endpoint=\"status\"} 0",
            "tauhls_serve_request_seconds_count{endpoint=\"explore\"} 0",
            "tauhls_serve_request_seconds_count{endpoint=\"jobs\"} 0",
            "tauhls_serve_uptime_seconds ",
            "tauhls_serve_events_total 0",
            "tauhls_serve_events_dropped_total 0",
            "tauhls_serve_stage_seconds_count{stage=\"bind\"} 2",
            "tauhls_serve_jobs_total{event=\"submitted\"} 2",
            "tauhls_serve_jobs_total{event=\"completed\"} 1",
            "tauhls_serve_jobs_total{event=\"rejected\"} 0",
            "tauhls_serve_jobs_pending 3",
            "tauhls_serve_jobs_running 1",
            "tauhls_serve_responses_total{code=\"429\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // 2ms lands in every bucket from 4ms upward, not the 1ms one.
        assert!(text.contains("le=\"0.001\"} 0"));
        assert!(text.contains("{endpoint=\"simulate\",le=\"0.004\"} 1"));
    }

    #[test]
    fn retry_after_hint_tracks_depth_and_drain_rate() {
        let m = Metrics::new();
        // No completions yet: the hint is the conservative fallback.
        assert_eq!(m.retry_after_hint(10, 4), 1);
        // 2s average latency, 4 workers, 7 queued ahead: (7+1)*2/4 = 4s.
        for _ in 0..5 {
            m.observe_latency("simulate", Duration::from_secs(2));
        }
        assert_eq!(m.retry_after_hint(7, 4), 4);
        // Sub-second drains still answer at least a second...
        assert_eq!(m.retry_after_hint(0, 4), 1);
        // ...and pathological backlogs clamp at a minute.
        assert_eq!(m.retry_after_hint(100_000, 1), 60);
    }

    #[test]
    fn event_log_is_bounded_sanitized_and_rendered() {
        let m = Metrics::new();
        assert_eq!(m.event_count(), 0);
        m.log_event("started\r\nwith sneaky\nnewlines");
        for i in 0..(EVENT_LOG_CAPACITY + 10) {
            m.log_event(&format!("event {i}"));
        }
        assert_eq!(m.event_count() as usize, EVENT_LOG_CAPACITY + 11);
        let events = m.events();
        assert_eq!(events.len(), EVENT_LOG_CAPACITY, "log is bounded");
        assert!(events.iter().all(|e| !e.message.contains('\n')));
        assert_eq!(
            events.last().map(|e| e.seq),
            Some((EVENT_LOG_CAPACITY + 11) as u64),
            "sequence numbers are monotone over drops"
        );
        let text = m.render(&Cache::new(1024), 0, &[]);
        assert!(text.contains(&format!(
            "tauhls_serve_events_total {}",
            EVENT_LOG_CAPACITY + 11
        )));
        assert!(text.contains("tauhls_serve_events_dropped_total 11"));
        assert!(text.contains(&format!("# event {} ", (EVENT_LOG_CAPACITY + 11))));
    }

    #[test]
    fn inflight_round_trips() {
        let m = Metrics::new();
        m.add_inflight(1);
        m.add_inflight(1);
        m.add_inflight(-1);
        assert_eq!(m.inflight(), 1);
    }
}
