//! The service itself: acceptor, bounded queue, worker pool, cache.
//!
//! Invariants the tests pin down:
//!
//! * **The acceptor never blocks on a client.** It accepts, stamps socket
//!   timeouts, and either enqueues the connection or answers `503` with
//!   `Retry-After` on a full queue. Request parsing happens in workers.
//! * **Cache hits are byte-identical to cold runs.** The cache stores the
//!   exact response body keyed by the spec's content address; only the
//!   `X-Cache` header distinguishes a hit from a miss.
//! * **Graceful shutdown drains in-flight jobs.** [`Server::shutdown`]
//!   stops the acceptor, closes the queue, answers anything still queued
//!   with `503`, and waits for running jobs to finish — cancelling them
//!   through the batch engine's [`CancelToken`] only if the drain
//!   exceeds its timeout (a cancelled job answers `503`, never a partial
//!   result).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tauhls_core::jobspec::{Endpoint, JobError, JobSpec};
use tauhls_core::partition;
use tauhls_dfg::{canonical_wire, parse_wire_dfg, wire_hash};
use tauhls_json::{Json, JsonRef};
use tauhls_sim::{BatchRunner, CancelToken};

use crate::cache::Cache;
use crate::client;
use crate::cluster::{Cluster, Coordinator, Role, WorkerRegistry};
use crate::config::ServeConfig;
use crate::http::{read_request, write_response, HttpError, Request};
use crate::jobs::{Executor, JobManager, JobResult, JobState, SubmitError};
use crate::metrics::Metrics;
use crate::queue::Queue;

/// How often the acceptor polls between accepts and stop checks.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// A one-way flag a thread can sleep on: [`Latch::set`] wakes every
/// [`Latch::wait`] at once, so a stop is noticed without polling.
#[derive(Default)]
struct Latch {
    set: Mutex<bool>,
    changed: Condvar,
}

impl Latch {
    fn set(&self) {
        *self.set.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.changed.notify_all();
    }

    fn is_set(&self) -> bool {
        *self.set.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleeps until the latch is set or `timeout` passes; answers
    /// whether it is set.
    fn wait(&self, timeout: Duration) -> bool {
        let guard = self.set.lock().unwrap_or_else(PoisonError::into_inner);
        *self
            .changed
            .wait_timeout_while(guard, timeout, |set| !*set)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }
}

struct Shared {
    config: ServeConfig,
    queue: Queue<TcpStream>,
    cache: Arc<Cache>,
    metrics: Arc<Metrics>,
    cancel: CancelToken,
    stop: Latch,
    jobs: JobManager,
    cluster: Arc<Cluster>,
}

/// A running service instance.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    cluster_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts the acceptor and worker threads.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cache = Arc::new(Cache::new(config.cache_bytes));
        let metrics = Arc::new(Metrics::new());
        let cancel = CancelToken::new();
        metrics.log_event(&format!("server starting on {addr}"));
        let cluster = build_cluster(&config, addr, &metrics)?;
        let executor: Executor = {
            let cluster = Arc::clone(&cluster);
            Arc::new(move |spec, runner| cluster.execute(spec, runner))
        };
        let jobs = JobManager::start(
            &config,
            Arc::clone(&metrics),
            Arc::clone(&cache),
            cancel.clone(),
            executor,
        )?;
        let shared = Arc::new(Shared {
            queue: Queue::new(config.queue_capacity),
            cache,
            metrics,
            cancel,
            stop: Latch::default(),
            jobs,
            cluster,
            config,
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tauhls-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tauhls-serve-acceptor".to_string())
                .spawn(move || acceptor_loop(&listener, &shared))?
        };
        let cluster_threads = spawn_cluster_threads(&shared, addr)?;
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            cluster_threads,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully shuts down: stop accepting, flush the queue backlog
    /// with `503`, wait for in-flight jobs (cancelling them only after
    /// the drain timeout), and join every thread.
    pub fn shutdown(mut self) {
        self.shared.metrics.log_event("shutdown requested");
        self.shared.stop.set();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.shared.queue.close();
        // Whatever is still queued was never started; in the `workers: 0`
        // diagnostic mode this is the only way those clients get answered.
        for stream in self.shared.queue.drain() {
            bounce(stream, &self.shared, "server shutting down");
        }
        // Async jobs stop being scheduled; whatever is journalled as
        // queued or retrying requeues on the next start. Running attempts
        // get the rest of the drain window before the watchdog cancels
        // them (journalling a requeue).
        self.shared.jobs.begin_shutdown();
        let drained = Arc::new(Latch::default());
        let watchdog = {
            let drained = Arc::clone(&drained);
            let cancel = self.shared.cancel.clone();
            let timeout = self.shared.config.drain_timeout;
            std::thread::spawn(move || {
                if !drained.wait(timeout) {
                    cancel.cancel();
                }
            })
        };
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared.jobs.join();
        drained.set();
        let _ = watchdog.join();
        for handle in self.cluster_threads.drain(..) {
            let _ = handle.join();
        }
        self.shared.metrics.log_event("shutdown complete");
    }
}

/// Derives this server's cluster role from its configuration, validates
/// the workers file (coordinator mode), and records the bound address as
/// the self-address registrations must not equal.
fn build_cluster(
    config: &ServeConfig,
    addr: SocketAddr,
    metrics: &Arc<Metrics>,
) -> std::io::Result<Arc<Cluster>> {
    let coordinates = config.coordinator || config.workers_file.is_some();
    if coordinates && config.worker_of.is_some() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a server cannot be both a coordinator and a worker \
             (drop either --worker-of or --coordinator/--workers-file)",
        ));
    }
    let registry = Arc::new(WorkerRegistry::new());
    registry.set_self_addr(&addr.to_string());
    let role = if coordinates {
        if let Some(path) = &config.workers_file {
            let text = std::fs::read_to_string(path)?;
            let doc = Json::parse(&text).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: not valid JSON: {e}", path.display()),
                )
            })?;
            let entries = doc.as_array().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: expected a JSON array of \"host:port\"", path.display()),
                )
            })?;
            for entry in entries {
                let worker = entry.as_str().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{}: workers must be strings", path.display()),
                    )
                })?;
                registry.register(worker).map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{}: {worker:?}: {e}", path.display()),
                    )
                })?;
            }
            metrics.log_event(&format!(
                "cluster: coordinator with {} configured workers",
                entries.len()
            ));
        } else {
            metrics.log_event("cluster: coordinator awaiting worker registrations");
        }
        Role::Coordinator
    } else if let Some(coordinator) = &config.worker_of {
        metrics.log_event(&format!("cluster: worker of {coordinator}"));
        Role::Worker
    } else {
        Role::Single
    };
    let coordinator = (role == Role::Coordinator)
        .then(|| Coordinator::new(Arc::clone(&registry), Arc::clone(metrics), config));
    Ok(Arc::new(Cluster {
        role,
        registry,
        coordinator,
    }))
}

/// Starts the role's background loop: coordinators probe every
/// registered worker's `/healthz` each `heartbeat_interval` (a probe
/// success revives a dead worker, a failure counts toward
/// [`crate::cluster::FAILURE_LIMIT`]); workers register with their
/// coordinator and keep heartbeating it (the heartbeat re-registers
/// after a coordinator restart). Single-role servers start nothing.
fn spawn_cluster_threads(
    shared: &Arc<Shared>,
    addr: SocketAddr,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    let mut threads = Vec::new();
    match shared.cluster.role {
        Role::Single => {}
        Role::Coordinator => {
            let shared = Arc::clone(shared);
            threads.push(
                std::thread::Builder::new()
                    .name("tauhls-serve-cluster-probe".to_string())
                    .spawn(move || {
                        while !shared.stop.wait(shared.config.heartbeat_interval) {
                            for worker in shared.cluster.registry.all_workers() {
                                let probe = client::request_timeouts(
                                    &worker,
                                    "GET",
                                    "/healthz",
                                    &[],
                                    None,
                                    shared.config.heartbeat_interval,
                                    shared.config.heartbeat_interval,
                                );
                                let was_live =
                                    shared.cluster.registry.live_workers().contains(&worker);
                                match probe {
                                    Ok(r) if r.status == 200 => {
                                        let _ = shared.cluster.registry.heartbeat(&worker);
                                        if !was_live {
                                            shared.metrics.log_event(&format!(
                                                "cluster: worker {worker} revived by probe"
                                            ));
                                        }
                                    }
                                    _ => {
                                        shared.cluster.registry.mark_failure(&worker);
                                        if was_live
                                            && !shared
                                                .cluster
                                                .registry
                                                .live_workers()
                                                .contains(&worker)
                                        {
                                            shared.metrics.log_event(&format!(
                                                "cluster: worker {worker} marked dead"
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    })?,
            );
        }
        Role::Worker => {
            let shared = Arc::clone(shared);
            // Advertise the actually-bound address — the configured one
            // may be `host:0`.
            let self_addr = addr.to_string();
            threads.push(
                std::thread::Builder::new()
                    .name("tauhls-serve-cluster-heartbeat".to_string())
                    .spawn(move || worker_heartbeat_loop(&shared, &self_addr))?,
            );
        }
    }
    Ok(threads)
}

/// The worker's side of the cluster: one registration attempt at
/// startup, then a heartbeat every `heartbeat_interval`. Errors are
/// tolerated (the coordinator may simply not be up yet — heartbeats
/// auto-register on its side), but transitions are logged.
fn worker_heartbeat_loop(shared: &Shared, self_addr: &str) {
    let Some(coordinator) = shared.config.worker_of.clone() else {
        return;
    };
    let mut body = Json::object([("addr", Json::from(self_addr))]).to_compact();
    body.push('\n');
    let send = |path: &str| {
        client::request_timeouts(
            &coordinator,
            "POST",
            path,
            &[],
            Some(&body),
            shared.config.heartbeat_interval,
            shared.config.heartbeat_interval,
        )
    };
    let mut reachable = match send("/v1/cluster/register") {
        Ok(r) if r.status == 200 => {
            shared
                .metrics
                .log_event(&format!("cluster: registered with {coordinator}"));
            true
        }
        // 400 covers "already registered" after a worker restart; the
        // heartbeat below keeps the entry fresh either way.
        Ok(_) => true,
        Err(_) => false,
    };
    while !shared.stop.wait(shared.config.heartbeat_interval) {
        let ok = matches!(send("/v1/cluster/heartbeat"), Ok(r) if r.status == 200);
        if ok != reachable {
            reachable = ok;
            shared.metrics.log_event(&format!(
                "cluster: coordinator {coordinator} {}",
                if ok { "reachable" } else { "unreachable" }
            ));
        }
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.stop.is_set() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Accepted sockets must not inherit the listener's
                // non-blocking mode; workers use plain timed I/O.
                let ready = stream
                    .set_nonblocking(false)
                    .and_then(|()| stream.set_read_timeout(Some(shared.config.read_timeout)))
                    .and_then(|()| stream.set_write_timeout(Some(shared.config.write_timeout)));
                if ready.is_err() {
                    continue; // peer already gone; nothing to answer
                }
                if let Err(rejected) = shared.queue.try_push(stream) {
                    // Backpressure: answer right here. The write is a few
                    // hundred bytes into a fresh socket buffer and carries
                    // a write timeout, so the acceptor cannot hang.
                    bounce(rejected, shared, "job queue is full");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(mut stream) = shared.queue.pop() {
        shared.metrics.add_inflight(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_connection(shared, &mut stream)));
        if outcome.is_err() {
            shared.metrics.count_panic();
            send(
                &mut stream,
                &shared.metrics,
                &Reply::error(500, "internal error"),
            );
        }
        shared.metrics.add_inflight(-1);
    }
}

/// Answers a connection whose request was never read with a `503`,
/// carrying a `Retry-After` derived from the current queue depth and
/// the measured drain rate (never the hard-coded guess it used to be).
///
/// Closing a socket that still holds unread received bytes makes the
/// kernel send RST, which can discard the response in flight — so after
/// writing we half-close our side and briefly sink the client's request
/// bytes until it hangs up (or a short timeout fires).
fn bounce(mut stream: TcpStream, shared: &Shared, message: &str) {
    send(&mut stream, &shared.metrics, &busy(shared, message));
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// One response: built by a handler, counted and written by [`send`].
/// The body is shared, so serving a cached body is a refcount bump.
struct Reply {
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: Arc<str>,
}

/// What a handler answers: `Err` carries a rejection, so handlers bail
/// out with `?`.
type Answer = Result<Reply, Reply>;

impl Reply {
    fn json(status: u16, body: impl Into<Arc<str>>) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A one-line compact JSON document.
    fn compact(status: u16, doc: &Json) -> Reply {
        let mut body = doc.to_compact();
        body.push('\n');
        Reply::json(status, body)
    }

    /// `{"error": message}`.
    fn error(status: u16, message: &str) -> Reply {
        Reply::compact(status, &Json::object([("error", Json::from(message))]))
    }

    fn with(mut self, name: &'static str, value: impl Into<String>) -> Reply {
        self.headers.push((name, value.into()));
        self
    }
}

/// A `400` rejection.
fn bad(message: impl AsRef<str>) -> Reply {
    Reply::error(400, message.as_ref())
}

/// A `405` naming the methods `allow`ed.
fn not_allowed(allow: &'static str, message: &str) -> Reply {
    Reply::error(405, message).with("Allow", allow)
}

/// A `503` whose `Retry-After` reflects the connection queue's backlog.
fn busy(shared: &Shared, message: &str) -> Reply {
    let hint = shared
        .metrics
        .retry_after_hint(shared.queue.depth(), shared.config.workers);
    Reply::error(503, message).with("Retry-After", hint.to_string())
}

/// Counts and writes one reply — the only place a response is written.
fn send<S: Write>(stream: &mut S, metrics: &Metrics, reply: &Reply) {
    metrics.count_response(reply.status);
    let _ = write_response(
        stream,
        reply.status,
        reply.content_type,
        &reply.headers,
        reply.body.as_bytes(),
    );
}

/// Reads, routes, and answers one connection. Generic over the stream so
/// the routing table is unit-testable without sockets.
fn handle_connection<S: Read + Write>(shared: &Shared, stream: &mut S) {
    let reply = match read_request(stream) {
        Ok(request) => {
            shared.metrics.count_request(route_label(&request.path));
            match route(shared, &request) {
                Ok(reply) | Err(reply) => reply,
            }
        }
        Err(HttpError::BadRequest(m)) => bad(m),
        Err(HttpError::TooLarge) => Reply::error(413, "request too large"),
        Err(HttpError::Io(_)) => Reply::error(408, "timed out reading request"),
    };
    send(stream, &shared.metrics, &reply);
}

/// The `tauhls_serve_requests_total` label of a request path, whatever
/// its method (a wrong method still counts against the route it tried).
fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/v1/status" => "status",
        "/v1/dfg/validate" => "dfg_validate",
        "/v1/dfg/explore" => Endpoint::Explore.as_str(),
        "/v1/cluster/partition" | "/v1/cluster/register" | "/v1/cluster/heartbeat" => "cluster",
        "/v1/jobs" => "jobs",
        _ if path.starts_with("/v1/jobs/") => "jobs",
        _ => path
            .strip_prefix("/v1/")
            .and_then(Endpoint::parse)
            .map_or("other", Endpoint::as_str),
    }
}

fn route(shared: &Shared, request: &Request) -> Answer {
    let body = &request.body;
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok(Reply::compact(
            200,
            &Json::object([
                ("status", Json::from("ok")),
                ("inflight", Json::from(shared.metrics.inflight())),
                ("queue_depth", Json::from(shared.queue.depth())),
            ]),
        )),
        ("GET", "/metrics") => {
            let mut text = shared.metrics.render(
                &shared.cache,
                shared.queue.depth(),
                &shared.jobs.state_counts(),
            );
            text.push_str(&shared.cluster.render_metrics());
            Ok(Reply {
                content_type: "text/plain; version=0.0.4",
                ..Reply::json(200, text)
            })
        }
        ("GET", "/v1/status") => Ok(handle_status(shared)),
        ("POST", "/v1/dfg/validate") => handle_dfg_validate(body),
        // `/v1/dfg/explore` is the explorer's spelled-out address; it is
        // the same handler as `POST /v1/explore`.
        ("POST", "/v1/dfg/explore") => handle_job(shared, Endpoint::Explore, body),
        ("POST", "/v1/cluster/partition") => {
            count_rejected(shared, handle_cluster_partition(shared, body))
        }
        ("POST", "/v1/cluster/register") => {
            count_rejected(shared, handle_cluster_membership(shared, body, false))
        }
        ("POST", "/v1/cluster/heartbeat") => {
            count_rejected(shared, handle_cluster_membership(shared, body, true))
        }
        (_, "/v1/cluster/partition" | "/v1/cluster/register" | "/v1/cluster/heartbeat") => {
            Err(not_allowed("POST", "use POST with a JSON body"))
        }
        ("POST", "/v1/jobs") => handle_job_submit(shared, request),
        ("GET" | "DELETE", "/v1/jobs") => Err(not_allowed(
            "POST",
            "use POST with {\"endpoint\":...,\"spec\":{...}}",
        )),
        (method, path) if path.starts_with("/v1/jobs/") => handle_job_entity(shared, method, path),
        ("POST", path) => match path.strip_prefix("/v1/").and_then(Endpoint::parse) {
            Some(endpoint) => handle_job(shared, endpoint, body),
            None => Err(Reply::error(404, "unknown endpoint")),
        },
        ("GET", path)
            if path
                .strip_prefix("/v1/")
                .and_then(Endpoint::parse)
                .is_some() =>
        {
            Err(not_allowed("POST", "use POST with a JSON job spec"))
        }
        (_, "/healthz" | "/metrics") => Err(not_allowed("GET", "use GET")),
        _ => Err(Reply::error(404, "unknown endpoint")),
    }
}

/// A required request body as text; the error is the message to answer.
fn body_text<'a>(raw: &'a [u8], required: &str) -> Result<&'a str, String> {
    match std::str::from_utf8(raw) {
        Ok(text) if !text.trim().is_empty() => Ok(text),
        Ok(_) => Err(required.to_string()),
        Err(_) => Err("request body is not UTF-8".to_string()),
    }
}

/// Reads a required body that must be one JSON object whose keys all
/// come from `fields`, answering each field's value in `fields` order.
/// The parse is strict, with byte-offset diagnostics: a malformed
/// cluster request is answered with where it broke, not tolerated.
fn json_fields<const N: usize>(
    raw: &[u8],
    required: &str,
    what: &str,
    fields: [&str; N],
) -> Result<[Option<Json>; N], Reply> {
    let text = body_text(raw, required).map_err(bad)?;
    let parsed = Json::parse(text).map_err(|e| bad(format!("body is not valid JSON: {e}")))?;
    let Json::Object(pairs) = parsed else {
        return Err(bad(format!("{what} request must be a JSON object")));
    };
    let mut values = [const { None }; N];
    for (key, value) in pairs {
        let Some(slot) = fields.iter().position(|f| *f == key) else {
            return Err(bad(format!(
                "unknown field {key:?} (expected {})",
                fields.join(", ")
            )));
        };
        values[slot] = Some(value);
    }
    Ok(values)
}

/// Counts a cluster request answered `400` as rejected.
fn count_rejected(shared: &Shared, answer: Answer) -> Answer {
    answer.inspect_err(|reply| {
        if reply.status == 400 {
            shared.metrics.count_cluster("rejected");
        }
    })
}

fn handle_job(shared: &Shared, endpoint: Endpoint, raw_body: &[u8]) -> Answer {
    let text = std::str::from_utf8(raw_body).map_err(|_| bad("request body is not UTF-8"))?;
    let text = if text.trim().is_empty() { "{}" } else { text };
    // Zero-copy parse: escape-free strings (DFG names, binding modes —
    // the common case) borrow straight from the request buffer instead
    // of allocating copies.
    let parsed = JsonRef::parse(text).map_err(|e| bad(format!("body is not valid JSON: {e}")))?;
    let spec = JobSpec::from_json_ref(endpoint, &parsed).map_err(|e| bad(e.to_string()))?;
    let key = spec.cache_key();
    if let Some(body) = shared.cache.get(&key) {
        return Ok(Reply::json(200, body).with("X-Cache", "hit"));
    }
    let started = Instant::now();
    let runner = BatchRunner::sized(shared.config.sim_threads).with_cancel(shared.cancel.clone());
    let (json, records) = shared
        .cluster
        .execute(&spec, &runner)
        .map_err(|e| match e {
            JobError::Cancelled => busy(shared, "job cancelled during shutdown"),
            JobError::Invalid(m) => bad(format!("invalid job spec: {m}")),
            JobError::Failed(m) => Reply::error(500, &format!("simulation failed: {m}")),
        })?;
    let body: Arc<str> = Arc::from(json.to_pretty());
    shared.metrics.count_trials(spec.trials());
    shared
        .metrics
        .observe_latency(endpoint.as_str(), started.elapsed());
    for record in &records {
        shared.metrics.observe_stage(record);
    }
    shared.cache.insert(key, Arc::clone(&body));
    Ok(Reply::json(200, body).with("X-Cache", "miss"))
}

/// `POST /v1/cluster/partition`: runs one partition of a job on this
/// node — `{"spec": <canonical spec>, "part": K, "of": N}` answers the
/// partial payload [`tauhls_core::partition::run_part`] produces for
/// global unit range `K` of `N`. Every server answers this regardless
/// of role, so any plain `tauhls serve` process is a valid worker.
/// Partials are content-addressed in the response cache under the spec
/// key *plus* the partition coordinates: a requeued partition re-served
/// by the same worker is a byte-identical cache hit.
fn handle_cluster_partition(shared: &Shared, raw_body: &[u8]) -> Answer {
    let [spec, part, of] = json_fields(
        raw_body,
        "partition body required: {\"spec\":{...},\"part\":K,\"of\":N}",
        "partition",
        ["spec", "part", "of"],
    )?;
    let spec = spec.ok_or_else(|| bad("spec (object) is required"))?;
    let spec = JobSpec::from_canonical(&spec).map_err(|e| bad(e.to_string()))?;
    let (Some(index), Some(total)) = (
        part.as_ref().and_then(Json::as_u64),
        of.as_ref().and_then(Json::as_u64),
    ) else {
        return Err(bad("part and of (integers) are required"));
    };
    let part = partition::part_for(&spec, index as usize, total as usize)
        .map_err(|e| bad(e.to_string()))?;
    let key = format!("part:{}/{}:{}", part.index, part.total, spec.cache_key());
    if let Some(body) = shared.cache.get(&key) {
        shared.metrics.count_cluster("served");
        return Ok(Reply::json(200, body).with("X-Cache", "hit"));
    }
    let started = Instant::now();
    let runner = BatchRunner::sized(shared.config.sim_threads).with_cancel(shared.cancel.clone());
    let (json, records) = partition::run_part(&spec, part, &runner, None).map_err(|e| match e {
        JobError::Cancelled => {
            Reply::error(503, "partition cancelled during shutdown").with("Retry-After", "1")
        }
        JobError::Invalid(m) => bad(format!("invalid partition: {m}")),
        JobError::Failed(m) => Reply::error(500, &format!("partition failed: {m}")),
    })?;
    let reply = Reply::compact(200, &json);
    shared.metrics.count_cluster("served");
    shared.metrics.observe_latency("cluster", started.elapsed());
    for record in &records {
        shared.metrics.observe_stage(record);
    }
    shared.cache.insert(key, Arc::clone(&reply.body));
    Ok(reply.with("X-Cache", "miss"))
}

/// `POST /v1/cluster/register` and `POST /v1/cluster/heartbeat`:
/// membership, `{"addr": "host:port"}`. Registration is strict —
/// malformed, duplicate, and self-referential addresses each answer
/// `400` with a distinct diagnostic. A heartbeat refreshes liveness and
/// auto-registers an unknown worker (the re-join path after a
/// coordinator restart), but rejects the same malformed addresses.
fn handle_cluster_membership(shared: &Shared, raw_body: &[u8], heartbeat: bool) -> Answer {
    let [addr] = json_fields(
        raw_body,
        "body required: {\"addr\":\"host:port\"}",
        "membership",
        ["addr"],
    )?;
    let addr = addr
        .as_ref()
        .and_then(Json::as_str)
        .ok_or_else(|| bad("addr (string) is required"))?;
    if heartbeat {
        shared.cluster.registry.heartbeat(addr)
    } else {
        shared.cluster.registry.register(addr)
    }
    .map_err(|e| bad(e.to_string()))?;
    if !heartbeat {
        shared
            .metrics
            .log_event(&format!("cluster: worker {addr} registered"));
    }
    Ok(Reply::compact(
        200,
        &Json::object([
            ("ok", Json::from(true)),
            ("addr", Json::from(addr)),
            (
                "workers",
                Json::from(shared.cluster.registry.all_workers().len()),
            ),
        ]),
    ))
}

/// `GET /v1/status`: one compact JSON snapshot of the live service —
/// uptime, queue/inflight gauges, the job table by lifecycle state,
/// the response cache's population, and the most recent operational events.
/// Unlike `/metrics` this is meant for humans and scripts (`jq`), not
/// scrapers, so it answers `application/json` and nests.
fn handle_status(shared: &Shared) -> Reply {
    let jobs = Json::object(
        shared
            .jobs
            .state_counts()
            .into_iter()
            .map(|(state, n)| (state, Json::from(n)))
            .collect::<Vec<_>>(),
    );
    let caches = Json::object([(
        "response",
        Json::object([
            ("entries", Json::from(shared.cache.entries())),
            ("bytes", Json::from(shared.cache.bytes())),
            ("hits", Json::from(shared.cache.hit_count())),
            ("misses", Json::from(shared.cache.miss_count())),
            ("evictions", Json::from(shared.cache.eviction_count())),
        ]),
    )]);
    let events = Json::Array(
        shared
            .metrics
            .events()
            .into_iter()
            .map(|event| {
                Json::object([
                    ("seq", Json::from(event.seq)),
                    ("uptime_seconds", Json::from(event.uptime_seconds)),
                    ("message", Json::from(event.message)),
                ])
            })
            .collect(),
    );
    let mut body = Json::object([
        ("status", Json::from("ok")),
        (
            "uptime_seconds",
            Json::from(shared.metrics.uptime_seconds()),
        ),
        ("inflight", Json::from(shared.metrics.inflight())),
        ("queue_depth", Json::from(shared.queue.depth())),
        ("job_queue_depth", Json::from(shared.jobs.depth())),
        ("jobs", jobs),
        ("caches", caches),
        ("cluster", shared.cluster.status_json(&shared.metrics)),
        ("events_total", Json::from(shared.metrics.event_count())),
        ("events", events),
    ])
    .to_pretty();
    body.push('\n');
    Reply::json(200, body)
}

/// `POST /v1/dfg/validate`: the request body *is* a DFG wire document.
/// A valid graph answers its summary, content hash, and canonical
/// rendering; an invalid one answers `400` with the parser's
/// byte-offset diagnostic — the same diagnostic an inline `"dfg"`
/// object would produce on any job endpoint, so clients can lint a
/// graph before submitting work against it.
fn handle_dfg_validate(raw_body: &[u8]) -> Answer {
    let invalid = |message: String| {
        Reply::compact(
            400,
            &Json::object([("ok", Json::from(false)), ("error", Json::from(message))]),
        )
    };
    let text = body_text(raw_body, "request body must be a DFG wire document").map_err(invalid)?;
    let dfg = parse_wire_dfg(text).map_err(|e| invalid(e.to_string()))?;
    let canonical = canonical_wire(&dfg);
    let hash = format!("{:016x}", wire_hash(&canonical));
    let canonical_doc = Json::parse(&canonical).unwrap_or_else(|_| Json::from(canonical.as_str()));
    let mut body = Json::object([
        ("ok", Json::from(true)),
        ("name", Json::from(dfg.name())),
        ("ops", Json::from(dfg.num_ops())),
        ("inputs", Json::from(dfg.input_names().len())),
        ("outputs", Json::from(dfg.outputs().len())),
        ("hash", Json::from(hash)),
        ("canonical", canonical_doc),
    ])
    .to_pretty();
    body.push('\n');
    Ok(Reply::json(200, body))
}

/// `POST /v1/jobs`: validates `{"endpoint":..., "spec":{...},
/// "priority":N}` strictly, reads client identity from `X-Client`, and
/// submits through the job manager's admission control.
fn handle_job_submit(shared: &Shared, request: &Request) -> Answer {
    let text = body_text(
        &request.body,
        "submission body required: {\"endpoint\":...,\"spec\":{...}}",
    )
    .map_err(bad)?;
    // Zero-copy: the spec's strings borrow from the request buffer.
    let parsed = JsonRef::parse(text).map_err(|e| bad(format!("body is not valid JSON: {e}")))?;
    let pairs = parsed
        .as_object()
        .ok_or_else(|| bad("submission must be a JSON object"))?;
    let (mut endpoint_field, mut spec_field, mut priority_field) = (None, None, None);
    for (key, value) in pairs {
        match key.as_ref() {
            "endpoint" => endpoint_field = Some(value),
            "spec" => spec_field = Some(value),
            "priority" => priority_field = Some(value),
            other => {
                return Err(bad(format!(
                    "unknown field {other:?} (expected endpoint, spec, priority)"
                )))
            }
        }
    }
    let endpoint_name = endpoint_field
        .and_then(JsonRef::as_str)
        .ok_or_else(|| bad("endpoint (string) is required"))?;
    let endpoint = Endpoint::parse(endpoint_name)
        .ok_or_else(|| bad(format!("unknown endpoint {endpoint_name:?}")))?;
    let empty_spec = JsonRef::Object(Vec::new());
    let spec = JobSpec::from_json_ref(endpoint, spec_field.unwrap_or(&empty_spec))
        .map_err(|e| bad(e.to_string()))?;
    // Priority 0 runs soonest, 9 last; the body field overrides the
    // X-Priority header; default 5.
    let priority = match (priority_field, request.header("x-priority")) {
        (Some(value), _) => value
            .as_u64()
            .filter(|p| *p <= 9)
            .ok_or_else(|| bad("priority must be an integer 0..=9"))?
            as u8,
        (None, Some(header)) => header
            .parse::<u8>()
            .ok()
            .filter(|p| *p <= 9)
            .ok_or_else(|| bad("x-priority must be an integer 0..=9"))?,
        (None, None) => 5,
    };
    let client = request.header("x-client").unwrap_or("anonymous");
    match shared.jobs.submit(spec, client, priority) {
        Ok(outcome) => {
            let status = if outcome.state == JobState::Done {
                200
            } else {
                202
            };
            Ok(job_status(shared, &outcome.id, status)
                .with("Location", format!("/v1/jobs/{}", outcome.id)))
        }
        Err(SubmitError::RateLimited(secs)) => {
            Err(Reply::error(429, "submission rate limit exceeded")
                .with("Retry-After", secs.to_string()))
        }
        Err(SubmitError::QuotaExceeded(secs)) => Err(Reply::error(
            429,
            "pending-job quota reached; wait for jobs to finish",
        )
        .with("Retry-After", secs.to_string())),
        Err(SubmitError::QueueFull) => {
            let hint = shared
                .metrics
                .retry_after_hint(shared.jobs.depth(), shared.config.job_workers);
            Err(Reply::error(503, "job queue is full").with("Retry-After", hint.to_string()))
        }
    }
}

/// A job's status body under `status`.
fn job_status(shared: &Shared, id: &str, status: u16) -> Reply {
    match shared.jobs.status(id) {
        Some(body) => Reply::json(status, body),
        None => Reply::error(status, "job state unavailable"),
    }
}

/// `GET /v1/jobs/<id>` (status), `GET /v1/jobs/<id>/result` (the
/// durable body once done), `DELETE /v1/jobs/<id>` (cancel).
fn handle_job_entity(shared: &Shared, method: &str, path: &str) -> Answer {
    let rest = path.strip_prefix("/v1/jobs/").unwrap_or("");
    let (id, want_result) = match rest.strip_suffix("/result") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    if id.is_empty() || id.contains('/') {
        return Err(Reply::error(404, "unknown endpoint"));
    }
    let unknown = || Reply::error(404, "unknown job");
    match (method, want_result) {
        ("GET", false) => shared
            .jobs
            .status(id)
            .map(|body| Reply::json(200, body))
            .ok_or_else(unknown),
        ("GET", true) => match shared.jobs.result(id) {
            JobResult::Unknown => Err(unknown()),
            JobResult::Ready(body) => Ok(Reply::json(200, body).with("X-Job-State", "done")),
            JobResult::Pending(state) => Ok(job_status(shared, id, 202)
                .with("Retry-After", "1")
                .with("X-Job-State", state)),
            JobResult::Failed(error) => Err(Reply::error(500, &format!("job failed: {error}"))),
            JobResult::Cancelled => Err(Reply::error(409, "job was cancelled")),
        },
        ("DELETE", false) => shared
            .jobs
            .cancel(id)
            .map(|body| Reply::json(200, body))
            .ok_or_else(unknown),
        _ => Err(not_allowed(
            "GET, DELETE",
            "use GET for status/result, DELETE to cancel",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Executor;

    /// An in-memory duplex: reads from a canned request, captures writes.
    struct FakeStream {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl FakeStream {
        fn new(raw: &str) -> Self {
            FakeStream {
                input: std::io::Cursor::new(raw.as_bytes().to_vec()),
                output: Vec::new(),
            }
        }

        fn response(&self) -> String {
            String::from_utf8(self.output.clone()).expect("UTF-8 response")
        }
    }

    impl Read for FakeStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn shared_with(config: ServeConfig) -> Shared {
        shared_running(config, None)
    }

    /// A service whose async jobs run through `executor` (the real
    /// pipeline when `None`).
    fn shared_running(config: ServeConfig, executor: Option<Executor>) -> Shared {
        let cache = Arc::new(Cache::new(1 << 20));
        let metrics = Arc::new(Metrics::new());
        let cancel = CancelToken::new();
        let registry = Arc::new(WorkerRegistry::new());
        registry.set_self_addr("127.0.0.1:7203");
        let cluster = Arc::new(Cluster {
            role: Role::Single,
            registry,
            coordinator: None,
        });
        let executor = executor.unwrap_or_else(|| {
            let cluster = Arc::clone(&cluster);
            Arc::new(move |spec, runner| cluster.execute(spec, runner))
        });
        let jobs = JobManager::start(
            &config,
            Arc::clone(&metrics),
            Arc::clone(&cache),
            cancel.clone(),
            executor,
        )
        .expect("job manager");
        Shared {
            config,
            queue: Queue::new(4),
            cache,
            metrics,
            cancel,
            stop: Latch::default(),
            jobs,
            cluster,
        }
    }

    fn shared() -> Shared {
        shared_with(ServeConfig {
            sim_threads: Some(1),
            job_workers: 1,
            job_backoff_base: std::time::Duration::from_millis(5),
            ..ServeConfig::default()
        })
    }

    fn drive(shared: &Shared, raw: &str) -> String {
        let mut stream = FakeStream::new(raw);
        handle_connection(shared, &mut stream);
        stream.response()
    }

    fn post(path: &str, body: &str) -> String {
        format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn routes_health_metrics_and_errors() {
        let sh = shared();
        assert!(drive(&sh, "GET /healthz HTTP/1.1\r\n\r\n").contains("\"status\":\"ok\""));
        assert!(drive(&sh, "GET /metrics HTTP/1.1\r\n\r\n")
            .contains("tauhls_serve_requests_total{endpoint=\"healthz\"} 1"));
        assert!(drive(&sh, "GET /nope HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));
        assert!(drive(&sh, "DELETE /healthz HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        assert!(drive(&sh, "GET /v1/simulate HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        assert!(drive(&sh, &post("/v1/unknown", "{}")).starts_with("HTTP/1.1 404"));
        assert!(drive(&sh, "garbage\r\n\r\n").starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn job_requests_answer_parse_spec_and_simulation_errors() {
        let sh = shared();
        let bad_json = drive(&sh, &post("/v1/simulate", "{not json"));
        assert!(bad_json.starts_with("HTTP/1.1 400"), "{bad_json}");
        assert!(bad_json.contains("byte "), "offset missing: {bad_json}");
        let bad_spec = drive(&sh, &post("/v1/simulate", r#"{"trials":0}"#));
        assert!(bad_spec.starts_with("HTTP/1.1 400"), "{bad_spec}");
    }

    #[test]
    fn cold_then_hot_bodies_are_byte_identical() {
        let sh = shared();
        let spec = r#"{"dfg":"fir3","trials":30,"p":[0.5],"seed":11}"#;
        let cold = drive(&sh, &post("/v1/simulate", spec));
        let hot = drive(&sh, &post("/v1/simulate", spec));
        assert!(cold.contains("X-Cache: miss"), "{cold}");
        assert!(hot.contains("X-Cache: hit"), "{hot}");
        let body = |r: &str| r.split("\r\n\r\n").nth(1).map(String::from);
        assert_eq!(
            body(&cold).expect("cold body"),
            body(&hot).expect("hot body")
        );
        // Equivalent spelling of the same spec also hits.
        let same = drive(
            &sh,
            &post(
                "/v1/simulate",
                r#"{"seed":11,"p":[0.5],"trials":30,"dfg":"fir3"}"#,
            ),
        );
        assert!(same.contains("X-Cache: hit"), "{same}");
        assert_eq!(body(&cold), body(&same));
    }

    #[test]
    fn synth_requests_hit_the_response_cache_and_time_every_stage() {
        let sh = shared();
        let body = |r: &str| r.split("\r\n\r\n").nth(1).map(String::from);
        let cold = drive(&sh, &post("/v1/synth", r#"{"dfg":"fir3"}"#));
        assert!(cold.contains("X-Cache: miss"), "{cold}");
        assert!(cold.contains("\"controllers\""), "{cold}");
        // A respelled spec is the same content address: a byte-identical hit.
        let respelled = drive(
            &sh,
            &post("/v1/synth", r#"{"encoding":"binary","dfg":"fir3"}"#),
        );
        assert!(respelled.contains("X-Cache: hit"), "{respelled}");
        assert_eq!(body(&respelled), body(&cold));
        // A different encoding is a new job, answered with the offline body.
        let spec = r#"{"dfg":"fir3","encoding":"gray"}"#;
        let gray = drive(&sh, &post("/v1/synth", spec));
        assert!(gray.contains("X-Cache: miss"), "{gray}");
        let offline = JobSpec::from_json(Endpoint::Synth, &Json::parse(spec).expect("json"))
            .and_then(|s| s.run(&BatchRunner::serial()))
            .expect("offline synth");
        assert_eq!(body(&gray), Some(offline.to_pretty()));
        // Both misses ran the whole pipeline; the hit ran none of it.
        let metrics = drive(&sh, "GET /metrics HTTP/1.1\r\n\r\n");
        for stage in tauhls_core::stages::STAGE_NAMES {
            let needle = format!("tauhls_serve_stage_seconds_count{{stage=\"{stage}\"}} 2");
            assert!(metrics.contains(&needle), "missing {needle}: {metrics}");
        }
        assert!(
            metrics.contains("tauhls_serve_request_seconds_count{endpoint=\"synth\"} 2"),
            "{metrics}"
        );
    }

    /// A small valid wire document shared by the route tests below.
    const TINY_WIRE: &str = r#"{"nodes":[{"id":"a","op":"input"},{"id":"b","op":"input"},{"id":"s","op":"add"}],"edges":[{"from":"a","to":"s","port":0},{"from":"b","to":"s","port":1}],"outputs":{"y":"s"},"params":{"name":"tiny"}}"#;

    #[test]
    fn status_endpoint_reports_jobs_caches_and_events() {
        let sh = shared();
        sh.metrics.log_event("test event one");
        let status = drive(&sh, "GET /v1/status HTTP/1.1\r\n\r\n");
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        for needle in [
            "\"uptime_seconds\"",
            "\"queued\"",
            "\"running\"",
            "\"caches\"",
            "\"response\"",
            "test event one",
        ] {
            assert!(status.contains(needle), "missing {needle}: {status}");
        }
        assert!(drive(&sh, &post("/v1/status", "{}")).starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn dfg_validate_answers_summary_or_byte_offset_diagnostics() {
        let sh = shared();
        let ok = drive(&sh, &post("/v1/dfg/validate", TINY_WIRE));
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        for needle in ["\"ok\"", "tiny", "\"hash\"", "\"canonical\""] {
            assert!(ok.contains(needle), "missing {needle}: {ok}");
        }
        let bad = drive(
            &sh,
            &post("/v1/dfg/validate", r#"{"nodes":[{"id":"a","op":"bogus"}]}"#),
        );
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        assert!(bad.contains("byte "), "offset missing: {bad}");
        let empty = drive(&sh, &post("/v1/dfg/validate", ""));
        assert!(empty.starts_with("HTTP/1.1 400"), "{empty}");
    }

    #[test]
    fn inline_dfg_explore_routes_answer_a_frontier() {
        let sh = shared();
        let body =
            format!(r#"{{"dfg":{TINY_WIRE},"max_muls":1,"max_adds":1,"trials":20,"p":[0.5]}}"#);
        let spelled = drive(&sh, &post("/v1/dfg/explore", &body));
        assert!(spelled.starts_with("HTTP/1.1 200"), "{spelled}");
        assert!(spelled.contains("\"frontier\""), "{spelled}");
        assert!(spelled.contains("X-Cache: miss"), "{spelled}");
        // The short spelling is the same handler and therefore the same
        // cache entry: this second request is a byte-identical hit.
        let short = drive(&sh, &post("/v1/explore", &body));
        assert!(short.contains("X-Cache: hit"), "{short}");
    }

    #[test]
    fn async_jobs_submit_poll_result_cancel_round_trip() {
        let sh = shared();
        // Hostile submissions are diagnosed, never panicked on.
        assert!(drive(&sh, &post("/v1/jobs", "{not json")).starts_with("HTTP/1.1 400"));
        assert!(drive(&sh, &post("/v1/jobs", r#"{"bogus":1}"#)).starts_with("HTTP/1.1 400"));
        assert!(drive(&sh, &post("/v1/jobs", r#"{"endpoint":"nope"}"#)).starts_with("HTTP/1.1 400"));
        assert!(drive(
            &sh,
            &post("/v1/jobs", r#"{"endpoint":"simulate","priority":99}"#)
        )
        .starts_with("HTTP/1.1 400"));
        assert!(drive(&sh, "GET /v1/jobs HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        assert!(drive(&sh, "PUT /v1/jobs/abc HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        // Unknown IDs answer 404 on every verb.
        for raw in [
            "GET /v1/jobs/ffffffffffffffff HTTP/1.1\r\n\r\n",
            "GET /v1/jobs/ffffffffffffffff/result HTTP/1.1\r\n\r\n",
            "DELETE /v1/jobs/ffffffffffffffff HTTP/1.1\r\n\r\n",
        ] {
            assert!(drive(&sh, raw).starts_with("HTTP/1.1 404"), "{raw}");
        }
        // Submit, poll to done, fetch the result.
        let spec = r#"{"endpoint":"simulate","spec":{"dfg":"fir3","trials":30,"seed":3}}"#;
        let submit = drive(&sh, &post("/v1/jobs", spec));
        assert!(submit.starts_with("HTTP/1.1 202"), "{submit}");
        let id = submit
            .lines()
            .find_map(|l| l.strip_prefix("Location: /v1/jobs/"))
            .expect("location header")
            .trim()
            .to_string();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let status = drive(&sh, &format!("GET /v1/jobs/{id} HTTP/1.1\r\n\r\n"));
            if status.contains("\"state\":\"done\"") {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "job never finished");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // An identical resubmission answers 200 done immediately.
        let again = drive(&sh, &post("/v1/jobs", spec));
        assert!(again.starts_with("HTTP/1.1 200"), "{again}");
        let result = drive(&sh, &format!("GET /v1/jobs/{id}/result HTTP/1.1\r\n\r\n"));
        assert!(result.starts_with("HTTP/1.1 200"), "{result}");
        assert!(result.contains("X-Job-State: done"), "{result}");
        // The async result warmed the response cache: the synchronous
        // endpoint serves the byte-identical body as a hit.
        let sync = drive(
            &sh,
            &post("/v1/simulate", r#"{"dfg":"fir3","trials":30,"seed":3}"#),
        );
        assert!(sync.contains("X-Cache: hit"), "{sync}");
        let body = |r: &str| r.split("\r\n\r\n").nth(1).map(String::from);
        assert_eq!(
            body(&result).expect("job body"),
            body(&sync).expect("sync body")
        );
        sh.jobs.begin_shutdown();
        sh.jobs.join();
    }

    #[test]
    fn rate_limited_submissions_answer_429_with_retry_after() {
        let sh = shared_with(ServeConfig {
            sim_threads: Some(1),
            job_workers: 0, // diagnostic: jobs queue but never run
            admission_rate: 0.5,
            admission_burst: 1.0,
            ..ServeConfig::default()
        });
        let submit = |trials: u64, client: &str| {
            let body =
                format!(r#"{{"endpoint":"simulate","spec":{{"dfg":"fir3","trials":{trials}}}}}"#);
            drive(
                &sh,
                &format!(
                    "POST /v1/jobs HTTP/1.1\r\nX-Client: {client}\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                ),
            )
        };
        assert!(submit(10, "alice").starts_with("HTTP/1.1 202"));
        let limited = submit(11, "alice");
        assert!(limited.starts_with("HTTP/1.1 429"), "{limited}");
        let retry_after = limited
            .lines()
            .find_map(|l| l.strip_prefix("Retry-After: "))
            .expect("Retry-After header")
            .trim()
            .parse::<u64>()
            .expect("numeric Retry-After");
        assert!(retry_after >= 1);
        // Another client is admitted while alice is limited.
        assert!(submit(12, "bob").starts_with("HTTP/1.1 202"));
        // Cancelling a queued job is terminal and visible in the result.
        let submit_body = submit(13, "carol");
        let id = submit_body
            .lines()
            .find_map(|l| l.strip_prefix("Location: /v1/jobs/"))
            .expect("location")
            .trim()
            .to_string();
        let cancelled = drive(&sh, &format!("DELETE /v1/jobs/{id} HTTP/1.1\r\n\r\n"));
        assert!(cancelled.contains("\"state\":\"cancelled\""), "{cancelled}");
        let result = drive(&sh, &format!("GET /v1/jobs/{id}/result HTTP/1.1\r\n\r\n"));
        assert!(result.starts_with("HTTP/1.1 409"), "{result}");
        sh.jobs.begin_shutdown();
        sh.jobs.join();
    }

    #[test]
    fn cluster_membership_is_strict_and_status_reports_workers() {
        let sh = shared();
        // Well-formed registrations land in the registry...
        let ok = drive(
            &sh,
            &post("/v1/cluster/register", r#"{"addr":"127.0.0.1:7300"}"#),
        );
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        // ...and each failure mode is a distinct 400: duplicate, the
        // coordinator's own address, a malformed pair, an unknown field,
        // and JSON that does not parse (with its byte offset).
        for body in [
            r#"{"addr":"127.0.0.1:7300"}"#,
            r#"{"addr":"localhost:7203"}"#,
            r#"{"addr":"no-port"}"#,
            r#"{"addr":"x:0","extra":1}"#,
            r#"{"addr":"#,
        ] {
            let r = drive(&sh, &post("/v1/cluster/register", body));
            assert!(r.starts_with("HTTP/1.1 400"), "{body}: {r}");
        }
        assert_eq!(sh.metrics.cluster_count("rejected"), 5);
        // Heartbeats tolerate duplicates but reject the same bad shapes.
        let hb = drive(
            &sh,
            &post("/v1/cluster/heartbeat", r#"{"addr":"127.0.0.1:7300"}"#),
        );
        assert!(hb.starts_with("HTTP/1.1 200"), "{hb}");
        let bad_hb = drive(&sh, &post("/v1/cluster/heartbeat", r#"{"addr":"x:0"}"#));
        assert!(bad_hb.starts_with("HTTP/1.1 400"), "{bad_hb}");
        assert!(drive(&sh, "GET /v1/cluster/register HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        let status = drive(&sh, "GET /v1/status HTTP/1.1\r\n\r\n");
        for needle in [
            "\"cluster\"",
            "\"role\": \"single\"",
            "\"addr\": \"127.0.0.1:7300\"",
            "\"last_heartbeat_seconds_ago\"",
        ] {
            assert!(status.contains(needle), "missing {needle}: {status}");
        }
        let metrics = drive(&sh, "GET /metrics HTTP/1.1\r\n\r\n");
        for needle in [
            "tauhls_serve_cluster_partitions_total{event=\"rejected\"} 6",
            "tauhls_serve_cluster_workers 1",
            "tauhls_serve_cluster_worker_healthy{worker=\"127.0.0.1:7300\"} 1",
        ] {
            assert!(metrics.contains(needle), "missing {needle}: {metrics}");
        }
    }

    #[test]
    fn cluster_partition_endpoint_serves_cached_byte_identical_partials() {
        let sh = shared();
        let spec = JobSpec::from_json_ref(
            Endpoint::Simulate,
            &JsonRef::parse(r#"{"dfg":"fir3","trials":30,"p":[0.3,0.5,0.7],"seed":9}"#)
                .expect("json"),
        )
        .expect("spec");
        let body = Json::object([
            ("spec", spec.canonical()),
            ("part", Json::from(1u64)),
            ("of", Json::from(3u64)),
        ])
        .to_compact();
        let cold = drive(&sh, &post("/v1/cluster/partition", &body));
        assert!(cold.starts_with("HTTP/1.1 200"), "{cold}");
        assert!(cold.contains("X-Cache: miss"), "{cold}");
        assert!(cold.contains("\"part\""), "{cold}");
        let hot = drive(&sh, &post("/v1/cluster/partition", &body));
        assert!(hot.contains("X-Cache: hit"), "{hot}");
        let payload = |r: &str| r.split("\r\n\r\n").nth(1).map(String::from);
        assert_eq!(payload(&cold).expect("cold"), payload(&hot).expect("hot"));
        assert_eq!(sh.metrics.cluster_count("served"), 2);
        // Out-of-range coordinates and unknown fields are 400s.
        let oob = Json::object([
            ("spec", spec.canonical()),
            ("part", Json::from(7u64)),
            ("of", Json::from(3u64)),
        ])
        .to_compact();
        assert!(drive(&sh, &post("/v1/cluster/partition", &oob)).starts_with("HTTP/1.1 400"));
        assert!(drive(&sh, &post("/v1/cluster/partition", r#"{"bogus":1}"#))
            .starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn cancelled_jobs_answer_503_and_do_not_poison_the_cache() {
        let sh = shared();
        sh.cancel.cancel();
        let spec = r#"{"dfg":"fir3","trials":30}"#;
        let r = drive(&sh, &post("/v1/simulate", spec));
        assert!(r.starts_with("HTTP/1.1 503"), "{r}");
        assert!(r.contains("Retry-After: 1"), "{r}");
        assert_eq!(sh.cache.entries(), 0);
    }

    #[test]
    fn cancellation_spares_earlier_cache_entries_but_caches_nothing_new() {
        let sh = shared();
        let spec = r#"{"dfg":"fir3","trials":30}"#;
        // A completed batch is cached as usual...
        let r = drive(&sh, &post("/v1/simulate", spec));
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        assert!(r.contains("X-Cache: miss"), "{r}");
        assert_eq!(sh.cache.entries(), 1);
        // ...then shutdown begins: the cached result still serves (the
        // cache lookup precedes the batch run entirely)...
        sh.cancel.cancel();
        let r = drive(&sh, &post("/v1/simulate", spec));
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        assert!(r.contains("X-Cache: hit"), "{r}");
        // ...but any batch that actually runs is cancelled mid-flight and
        // must never be cached, even partially.
        let other = r#"{"dfg":"fir5","trials":30}"#;
        let r = drive(&sh, &post("/v1/simulate", other));
        assert!(r.starts_with("HTTP/1.1 503"), "{r}");
        assert_eq!(sh.cache.entries(), 1);
    }

    /// Compares `actual` with the checked-in file `golden/<name>` of this
    /// crate.
    fn assert_golden(name: &str, actual: &str) {
        let path = format!("{}/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
        assert!(
            expected == actual,
            "{path} drifted; this run renders:\n{actual}"
        );
    }

    /// The body of a raw HTTP response.
    fn body_of(response: &str) -> &str {
        response.split_once("\r\n\r\n").map_or("", |(_, body)| body)
    }

    /// Masks the wall-clock parts of a `/metrics` body: the uptime gauge
    /// and each retained event's timestamp.
    fn mask_clock(body: &str) -> String {
        body.lines()
            .map(|line| {
                let event = line
                    .strip_prefix("# event ")
                    .and_then(|rest| rest.split_once(" +"))
                    .and_then(|(seq, rest)| Some((seq, rest.split_once("s ")?.1)));
                if line.starts_with("tauhls_serve_uptime_seconds ") {
                    "tauhls_serve_uptime_seconds <uptime>\n".to_string()
                } else if let Some((seq, message)) = event {
                    format!("# event {seq} +<t>s {message}\n")
                } else {
                    format!("{line}\n")
                }
            })
            .collect()
    }

    /// An executor that announces each attempt on the returned receiver,
    /// then blocks until the test sends that attempt's outcome (a done
    /// attempt answers `{"ok":true}`).
    fn gated_executor() -> (
        Executor,
        std::sync::mpsc::Receiver<()>,
        std::sync::mpsc::Sender<Result<(), JobError>>,
    ) {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, outcomes) = std::sync::mpsc::channel::<Result<(), JobError>>();
        let outcomes = std::sync::Mutex::new(outcomes);
        let executor: Executor = Arc::new(move |_, _| {
            let _ = entered_tx.send(());
            let outcome = outcomes
                .lock()
                .expect("gate")
                .recv()
                .unwrap_or(Err(JobError::Cancelled));
            outcome.map(|()| (Json::object([("ok", Json::from(true))]), Vec::new()))
        });
        (executor, entered, release)
    }

    fn job_spec(trials: u64) -> JobSpec {
        let doc = format!(r#"{{"dfg":"fir3","trials":{trials},"seed":5}}"#);
        JobSpec::from_json_ref(Endpoint::Simulate, &JsonRef::parse(&doc).expect("json"))
            .expect("spec")
    }

    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn metrics_exposition_matches_golden() {
        let (executor, entered, release) = gated_executor();
        let sh = shared_running(
            ServeConfig {
                sim_threads: Some(1),
                job_workers: 1,
                ..ServeConfig::default()
            },
            Some(executor),
        );
        let m = &sh.metrics;
        let routes = [
            "simulate",
            "table2",
            "resilience",
            "synth",
            "area",
            "explore",
            "jobs",
            "dfg_validate",
            "status",
            "healthz",
            "metrics",
            "cluster",
            "/weird",
        ];
        for (i, route) in routes.iter().enumerate() {
            for _ in 0..=i {
                m.count_request(route);
            }
        }
        for (i, code) in [200, 202, 400, 404, 405, 408, 409, 413, 429, 500, 503, 418]
            .into_iter()
            .enumerate()
        {
            for _ in 0..=i {
                m.count_response(code);
            }
        }
        m.count_trials(12_345);
        let timed = [
            "simulate",
            "table2",
            "resilience",
            "synth",
            "area",
            "explore",
            "jobs",
            "cluster",
            "healthz",
        ];
        for (i, endpoint) in timed.iter().enumerate() {
            m.observe_latency(endpoint, Duration::from_micros(300 << (2 * i)));
        }
        for (i, stage) in tauhls_core::stages::STAGE_NAMES.iter().enumerate() {
            for _ in 0..3 {
                m.observe_stage(&tauhls_core::StageRecord {
                    stage,
                    input_hash: 1,
                    output_hash: 2,
                    wall: Duration::from_micros(700 << (2 * i)),
                    cache_hit: false,
                });
            }
        }
        for (i, event) in crate::JOB_EVENTS.iter().enumerate() {
            for _ in 0..=i {
                m.count_job(event);
            }
        }
        for (i, event) in crate::CLUSTER_EVENTS.iter().enumerate() {
            for _ in 0..=i {
                m.count_cluster(event);
            }
        }
        m.add_inflight(3);
        m.count_panic();
        m.log_event("golden event one");
        m.log_event("golden event two");
        sh.cache.insert("k".to_string(), "cached body".into());
        sh.cache.get("k");
        sh.cache.get("absent");
        let registry = &sh.cluster.registry;
        for worker in ["127.0.0.1:9001", "127.0.0.1:9002"] {
            registry.register(worker).expect("register");
            registry.mark_dispatch(worker);
        }
        registry.mark_success("127.0.0.1:9001");
        for _ in 0..crate::cluster::FAILURE_LIMIT {
            registry.mark_failure("127.0.0.1:9002");
        }
        // One job running (held at the gate), two queued behind it.
        for trials in [21, 22, 23] {
            sh.jobs
                .submit(job_spec(trials), "golden", 5)
                .expect("submit");
            if trials == 21 {
                entered.recv().expect("first job runs");
            }
        }
        let scrape = drive(&sh, "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(scrape.starts_with("HTTP/1.1 200 OK\r\n"), "{scrape}");
        assert!(
            scrape.contains("\r\nContent-Type: text/plain; version=0.0.4\r\n"),
            "{scrape}"
        );
        assert_golden("metrics.prom", &mask_clock(body_of(&scrape)));
        for _ in 0..3 {
            let _ = release.send(Ok(()));
        }
        sh.jobs.begin_shutdown();
        sh.jobs.join();
    }

    #[test]
    fn job_gauges_match_the_job_table_through_the_lifecycle() {
        let (executor, entered, release) = gated_executor();
        let sh = shared_running(
            ServeConfig {
                sim_threads: Some(1),
                job_workers: 1,
                job_max_attempts: 3,
                // Long enough that a retried job is still backing off when
                // the test cancels it.
                job_backoff_base: Duration::from_secs(30),
                ..ServeConfig::default()
            },
            Some(executor),
        );
        let gauges = || {
            let scrape = drive(&sh, "GET /metrics HTTP/1.1\r\n\r\n");
            let gauge = |name: &str| {
                body_of(&scrape)
                    .lines()
                    .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok())
                    .unwrap_or_else(|| panic!("{name} missing: {scrape}"))
            };
            (
                gauge("tauhls_serve_jobs_pending"),
                gauge("tauhls_serve_jobs_running"),
            )
        };
        let table = || {
            let status = drive(&sh, "GET /v1/status HTTP/1.1\r\n\r\n");
            let doc = Json::parse(body_of(&status)).expect("status json");
            let count = |state: &str| {
                doc.get("jobs")
                    .and_then(|jobs| jobs.get(state))
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("jobs.{state} missing: {status}"))
            };
            (count("queued") + count("backoff"), count("running"))
        };
        // Each step: wait for the table to reach the expected counts, then
        // the gauges must agree with it.
        let step = |what: &str, expected: (u64, u64)| {
            wait_for(what, || table() == expected);
            wait_for(&format!("gauges after {what}"), || gauges() == table());
            assert_eq!(gauges(), expected, "{what}");
        };
        let submit = |trials: u64| {
            let outcome = sh
                .jobs
                .submit(job_spec(trials), "gauges", 5)
                .expect("submit");
            outcome.id
        };
        step("an idle manager", (0, 0));
        let first = submit(31);
        entered.recv().expect("first attempt");
        step("the first job running", (0, 1));
        let second = submit(32);
        step("a second job queued", (1, 1));
        release
            .send(Err(JobError::Failed("transient".to_string())))
            .expect("release first");
        entered.recv().expect("second job runs");
        step("the first job backing off", (1, 1));
        assert_eq!(sh.jobs.state(&first), Some(JobState::Backoff));
        assert!(sh.jobs.cancel(&first).is_some());
        step("the backing-off job cancelled", (0, 1));
        release.send(Ok(())).expect("release second");
        step("the second job done", (0, 0));
        assert_eq!(sh.jobs.state(&second), Some(JobState::Done));
        let third = submit(33);
        entered.recv().expect("third attempt");
        step("the third job running", (0, 1));
        assert!(sh.jobs.cancel(&third).is_some());
        release
            .send(Err(JobError::Cancelled))
            .expect("release third");
        step("the running job cancelled", (0, 0));
        assert_eq!(sh.jobs.state(&third), Some(JobState::Cancelled));
        sh.jobs.begin_shutdown();
        sh.jobs.join();
    }

    #[test]
    fn every_routed_request_is_counted_and_partitions_are_timed() {
        let sh = shared();
        let sample = |series: &str| {
            let scrape = drive(&sh, "GET /metrics HTTP/1.1\r\n\r\n");
            body_of(&scrape)
                .lines()
                .find_map(|l| {
                    l.strip_prefix(series)?
                        .strip_prefix(' ')?
                        .parse::<u64>()
                        .ok()
                })
                .unwrap_or_else(|| panic!("{series} missing: {scrape}"))
        };
        // A 404 for an unknown job endpoint counts as `other`, a 405
        // against the route it tried.
        assert!(drive(&sh, &post("/v1/nope", "{}")).starts_with("HTTP/1.1 404"));
        assert_eq!(sample("tauhls_serve_requests_total{endpoint=\"other\"}"), 1);
        assert!(drive(&sh, "GET /v1/simulate HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        assert_eq!(
            sample("tauhls_serve_requests_total{endpoint=\"simulate\"}"),
            1
        );
        assert!(drive(&sh, "DELETE /healthz HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        assert_eq!(
            sample("tauhls_serve_requests_total{endpoint=\"healthz\"}"),
            1
        );
        // A served partition lands in its own latency histogram.
        let spec = job_spec(30);
        let body = Json::object([
            ("spec", spec.canonical()),
            ("part", Json::from(0u64)),
            ("of", Json::from(1u64)),
        ])
        .to_compact();
        let served = drive(&sh, &post("/v1/cluster/partition", &body));
        assert!(served.starts_with("HTTP/1.1 200"), "{served}");
        assert_eq!(
            sample("tauhls_serve_request_seconds_count{endpoint=\"cluster\"}"),
            1
        );
    }

    /// A stream whose reads time out, as a stalled client's would.
    struct Stalled(Vec<u8>);

    impl Read for Stalled {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::TimedOut.into())
        }
    }

    impl Write for Stalled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One request per router branch (every error branch of the job,
    /// partition, membership, job-submit and job-entity handlers
    /// included); the status line, headers and body of each answer are
    /// pinned. `/metrics` and `/v1/status` bodies carry wall-clock values
    /// and are pinned elsewhere, so only their heads are kept here.
    #[test]
    fn every_route_answers_its_pinned_response() {
        let mut log = String::new();
        let mut record = |label: &str, response: &str| {
            let response = response.replace("\r\n", "\n");
            let response = if label.starts_with("volatile ") {
                let (head, _) = response.split_once("\n\n").unwrap_or((&response, ""));
                let head: Vec<&str> = head
                    .lines()
                    .filter(|l| !l.starts_with("Content-Length:"))
                    .collect();
                format!("{}\n\n<volatile body>\n", head.join("\n"))
            } else {
                response
            };
            log.push_str(&format!("=== {label}\n{response}\n"));
        };
        let raw = |method: &str, path: &str, headers: &str, body: &[u8]| {
            let mut raw = format!(
                "{method} {path} HTTP/1.1\r\n{headers}Content-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            raw.extend_from_slice(body);
            raw
        };
        let send = |sh: &Shared, request: Vec<u8>| {
            let mut stream = FakeStream {
                input: std::io::Cursor::new(request),
                output: Vec::new(),
            };
            handle_connection(sh, &mut stream);
            stream.response()
        };
        let not_utf8: &[u8] = b"{\"dfg\":\"\xff\"}";
        let sweep = JobSpec::from_json_ref(
            Endpoint::Simulate,
            &JsonRef::parse(r#"{"dfg":"fir3","trials":30,"p":[0.3,0.5,0.7],"seed":9}"#)
                .expect("json"),
        )
        .expect("spec");
        let partition = |part: u64, of: u64| {
            Json::object([
                ("spec", sweep.canonical()),
                ("part", Json::from(part)),
                ("of", Json::from(of)),
            ])
            .to_compact()
        };

        // Plain routes, method errors, and unknown paths.
        let sh = shared_with(ServeConfig {
            sim_threads: Some(1),
            job_workers: 0, // submissions stay queued: their bodies are stable
            max_pending_per_client: 2,
            ..ServeConfig::default()
        });
        for (label, method, path) in [
            ("healthz", "GET", "/healthz"),
            ("volatile metrics", "GET", "/metrics"),
            ("volatile status", "GET", "/v1/status"),
            ("unknown GET path", "GET", "/nope"),
            ("unknown POST endpoint", "POST", "/v1/nope"),
            ("status by POST", "POST", "/v1/status"),
            ("validate by GET", "GET", "/v1/dfg/validate"),
            ("simulate by GET", "GET", "/v1/simulate"),
            ("healthz by DELETE", "DELETE", "/healthz"),
            ("metrics by POST", "POST", "/metrics"),
            ("partition by GET", "GET", "/v1/cluster/partition"),
            ("register by PUT", "PUT", "/v1/cluster/register"),
            ("heartbeat by GET", "GET", "/v1/cluster/heartbeat"),
            ("jobs by GET", "GET", "/v1/jobs"),
            ("jobs by DELETE", "DELETE", "/v1/jobs"),
        ] {
            record(label, &send(&sh, raw(method, path, "", b"")));
        }

        // Unreadable requests.
        record("malformed request line", &drive(&sh, "garbage\r\n\r\n"));
        record(
            "oversized body",
            &drive(
                &sh,
                "POST /v1/simulate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
            ),
        );
        let mut stalled = Stalled(Vec::new());
        handle_connection(&sh, &mut stalled);
        record(
            "stalled read",
            &String::from_utf8(stalled.0).expect("utf-8"),
        );

        // Synchronous job endpoints.
        for (label, path, body) in [
            ("job body not UTF-8", "/v1/simulate", not_utf8),
            ("job body not JSON", "/v1/simulate", b"{not json".as_slice()),
            (
                "job spec invalid",
                "/v1/simulate",
                br#"{"trials":0}"#.as_slice(),
            ),
            (
                "job unknown dfg",
                "/v1/simulate",
                br#"{"dfg":"nonesuch"}"#.as_slice(),
            ),
            (
                "job cold",
                "/v1/simulate",
                br#"{"dfg":"fir3","trials":30,"p":[0.5],"seed":11}"#.as_slice(),
            ),
            (
                "job cached",
                "/v1/simulate",
                br#"{"seed":11,"p":[0.5],"trials":30,"dfg":"fir3"}"#.as_slice(),
            ),
            ("validate ok", "/v1/dfg/validate", TINY_WIRE.as_bytes()),
            (
                "validate bad graph",
                "/v1/dfg/validate",
                br#"{"nodes":[{"id":"a","op":"bogus"}]}"#.as_slice(),
            ),
            ("validate empty", "/v1/dfg/validate", b"".as_slice()),
            ("validate not UTF-8", "/v1/dfg/validate", not_utf8),
        ] {
            record(label, &send(&sh, raw("POST", path, "", body)));
        }

        // Cluster partitions.
        for (label, body) in [
            ("partition empty", String::new()),
            ("partition not JSON", "{\"spec\":".to_string()),
            ("partition not an object", "[1]".to_string()),
            ("partition unknown field", r#"{"bogus":1}"#.to_string()),
            ("partition without spec", r#"{"part":0,"of":1}"#.to_string()),
            (
                "partition bad spec",
                r#"{"spec":{"bogus":1},"part":0,"of":1}"#.to_string(),
            ),
            (
                "partition without coordinates",
                Json::object([("spec", sweep.canonical())]).to_compact(),
            ),
            ("partition out of range", partition(7, 3)),
            ("partition cold", partition(1, 3)),
            ("partition cached", partition(1, 3)),
        ] {
            record(
                label,
                &send(
                    &sh,
                    raw("POST", "/v1/cluster/partition", "", body.as_bytes()),
                ),
            );
        }
        record(
            "partition not UTF-8",
            &send(&sh, raw("POST", "/v1/cluster/partition", "", not_utf8)),
        );

        // Cluster membership.
        for (label, path, body) in [
            (
                "register ok",
                "/v1/cluster/register",
                r#"{"addr":"127.0.0.1:7300"}"#,
            ),
            (
                "register duplicate",
                "/v1/cluster/register",
                r#"{"addr":"127.0.0.1:7300"}"#,
            ),
            (
                "register self",
                "/v1/cluster/register",
                r#"{"addr":"localhost:7203"}"#,
            ),
            (
                "register malformed",
                "/v1/cluster/register",
                r#"{"addr":"no-port"}"#,
            ),
            (
                "register unknown field",
                "/v1/cluster/register",
                r#"{"addr":"x:1","extra":1}"#,
            ),
            ("register not JSON", "/v1/cluster/register", r#"{"addr":"#),
            ("register not an object", "/v1/cluster/register", "[]"),
            ("register empty", "/v1/cluster/register", ""),
            (
                "register addr not a string",
                "/v1/cluster/register",
                r#"{"addr":5}"#,
            ),
            (
                "heartbeat ok",
                "/v1/cluster/heartbeat",
                r#"{"addr":"127.0.0.1:7300"}"#,
            ),
            (
                "heartbeat new worker",
                "/v1/cluster/heartbeat",
                r#"{"addr":"127.0.0.1:7301"}"#,
            ),
            (
                "heartbeat bad",
                "/v1/cluster/heartbeat",
                r#"{"addr":"x:0"}"#,
            ),
        ] {
            record(label, &send(&sh, raw("POST", path, "", body.as_bytes())));
        }
        record(
            "register not UTF-8",
            &send(&sh, raw("POST", "/v1/cluster/register", "", not_utf8)),
        );

        // Async job submission.
        let submit = |headers: &str, body: &str| {
            send(&sh, raw("POST", "/v1/jobs", headers, body.as_bytes()))
        };
        for (label, headers, body) in [
            ("submit empty", "", ""),
            ("submit not JSON", "", "{not json"),
            ("submit not an object", "", "[]"),
            ("submit unknown field", "", r#"{"bogus":1}"#),
            ("submit without endpoint", "", r#"{"spec":{}}"#),
            ("submit unknown endpoint", "", r#"{"endpoint":"nope"}"#),
            (
                "submit bad spec",
                "",
                r#"{"endpoint":"simulate","spec":{"trials":0}}"#,
            ),
            (
                "submit bad priority",
                "",
                r#"{"endpoint":"simulate","priority":99}"#,
            ),
            (
                "submit bad priority header",
                "X-Priority: soon\r\n",
                r#"{"endpoint":"simulate"}"#,
            ),
            (
                "submit queued",
                "X-Priority: 3\r\n",
                r#"{"endpoint":"simulate","spec":{"dfg":"fir3","trials":41}}"#,
            ),
            (
                "submit again",
                "",
                r#"{"endpoint":"simulate","spec":{"trials":41,"dfg":"fir3"}}"#,
            ),
            (
                "submit second",
                "X-Client: carol\r\n",
                r#"{"endpoint":"simulate","spec":{"dfg":"fir3","trials":42},"priority":0}"#,
            ),
            (
                "submit third",
                "",
                r#"{"endpoint":"simulate","spec":{"dfg":"fir3","trials":43}}"#,
            ),
            (
                "submit over quota",
                "",
                r#"{"endpoint":"simulate","spec":{"dfg":"fir3","trials":44}}"#,
            ),
        ] {
            record(label, &submit(headers, body));
        }
        record(
            "submit not UTF-8",
            &send(&sh, raw("POST", "/v1/jobs", "", not_utf8)),
        );

        // Job entities.
        let id = job_spec(999).job_id(); // never submitted: an unknown ID
        let queued = JobSpec::from_json_ref(
            Endpoint::Simulate,
            &JsonRef::parse(r#"{"dfg":"fir3","trials":41}"#).expect("json"),
        )
        .expect("spec")
        .job_id();
        for (label, method, path) in [
            ("entity without id", "GET", "/v1/jobs/".to_string()),
            ("entity nested path", "GET", "/v1/jobs/a/b".to_string()),
            ("entity unknown", "GET", format!("/v1/jobs/{id}")),
            (
                "entity unknown result",
                "GET",
                format!("/v1/jobs/{id}/result"),
            ),
            ("entity unknown cancel", "DELETE", format!("/v1/jobs/{id}")),
            ("entity by PUT", "PUT", format!("/v1/jobs/{queued}")),
            (
                "entity result by DELETE",
                "DELETE",
                format!("/v1/jobs/{queued}/result"),
            ),
            ("entity status", "GET", format!("/v1/jobs/{queued}")),
            (
                "entity pending result",
                "GET",
                format!("/v1/jobs/{queued}/result"),
            ),
            ("entity cancel", "DELETE", format!("/v1/jobs/{queued}")),
            (
                "entity cancelled result",
                "GET",
                format!("/v1/jobs/{queued}/result"),
            ),
        ] {
            record(label, &send(&sh, raw(method, &path, "", b"")));
        }
        sh.jobs.begin_shutdown();
        sh.jobs.join();

        // Done and failed results, held at a gate so each is terminal
        // before it is fetched.
        let (executor, entered, release) = gated_executor();
        let gated = shared_running(
            ServeConfig {
                sim_threads: Some(1),
                job_workers: 1,
                job_max_attempts: 1,
                ..ServeConfig::default()
            },
            Some(executor),
        );
        for (trials, outcome) in [
            (51, Ok(())),
            (52, Err(JobError::Failed("backend exploded".to_string()))),
        ] {
            let spec = job_spec(trials);
            let id = spec.job_id();
            gated.jobs.submit(spec, "gated", 5).expect("submit");
            entered.recv().expect("attempt");
            release.send(outcome).expect("release");
            wait_for("a terminal job", || {
                gated.jobs.state(&id).is_some_and(JobState::is_terminal)
            });
            record(
                &format!("entity result of job {trials}"),
                &send(
                    &gated,
                    raw("GET", &format!("/v1/jobs/{id}/result"), "", b""),
                ),
            );
        }
        let done = r#"{"endpoint":"simulate","spec":{"dfg":"fir3","trials":51,"seed":5}}"#;
        record(
            "submit already done",
            &send(&gated, raw("POST", "/v1/jobs", "", done.as_bytes())),
        );
        gated.jobs.begin_shutdown();
        gated.jobs.join();

        // Admission control and shutdown.
        let limited = shared_with(ServeConfig {
            sim_threads: Some(1),
            job_workers: 0,
            admission_rate: 0.001,
            admission_burst: 1.0,
            ..ServeConfig::default()
        });
        for (label, trials) in [("admitted", 61), ("rate limited", 62)] {
            let body =
                format!(r#"{{"endpoint":"simulate","spec":{{"dfg":"fir3","trials":{trials}}}}}"#);
            record(
                label,
                &send(&limited, raw("POST", "/v1/jobs", "", body.as_bytes())),
            );
        }
        limited.jobs.begin_shutdown();
        let body = r#"{"endpoint":"simulate","spec":{"dfg":"fir3","trials":63}}"#;
        record(
            "submit during shutdown",
            &send(
                &limited,
                raw("POST", "/v1/jobs", "X-Client: dave\r\n", body.as_bytes()),
            ),
        );
        limited.jobs.join();

        // Work cancelled by shutdown.
        let cancelled = shared();
        cancelled.cancel.cancel();
        record(
            "job cancelled",
            &send(
                &cancelled,
                raw("POST", "/v1/simulate", "", br#"{"dfg":"fir3","trials":30}"#),
            ),
        );
        record(
            "partition cancelled",
            &send(
                &cancelled,
                raw(
                    "POST",
                    "/v1/cluster/partition",
                    "",
                    partition(0, 3).as_bytes(),
                ),
            ),
        );
        cancelled.jobs.begin_shutdown();
        cancelled.jobs.join();

        assert_golden("routes.txt", &log);
    }
}
