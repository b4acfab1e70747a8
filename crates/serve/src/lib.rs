//! # tauhls-serve — a zero-dependency concurrent simulation service
//!
//! Turns the deterministic batch engine into an always-on evaluation
//! backend: minimal HTTP/1.1 over [`std::net::TcpListener`], a fixed
//! acceptor plus worker-thread pool, a bounded job queue with `503`
//! backpressure, and a sharded content-addressed LRU cache over response
//! bodies. Because every job is bit-deterministic in its canonical spec
//! (seed included), a cache hit is *byte-identical* to the cold run it
//! replaces — the cache can never change an answer, only its latency.
//!
//! ```text
//!  clients ──► acceptor ──► bounded queue ──► workers ──► BatchRunner
//!                 │ full?                        │  ▲
//!                 └──► 503 + Retry-After         ▼  │ miss
//!                                            content-addressed LRU
//! ```
//!
//! Endpoints: `POST /v1/simulate`, `POST /v1/table2`,
//! `POST /v1/resilience`, `POST /v1/synth`, and `POST /v1/area` (JSON
//! job specs, validated strictly by [`tauhls_core::jobspec`]), plus
//! `GET /healthz` and `GET /metrics` (Prometheus text). The same specs
//! also run asynchronously through the durable job manager —
//! `POST /v1/jobs` submits, `GET /v1/jobs/<id>[/result]` polls, and
//! `DELETE /v1/jobs/<id>` cancels — with a crash-recoverable journal,
//! retry/backoff, and per-client admission control (`429` +
//! `Retry-After`); see [`JobManager`]. The synthesis
//! endpoints run the staged pipeline of [`tauhls_core::stages`] cold on
//! every response-cache miss (a whole synthesis costs well under a
//! millisecond), and each stage's latency surfaces in `/metrics`.
//! Graceful shutdown (SIGTERM/ctrl-c via [`signal`],
//! or [`Server::shutdown`]) stops the acceptor, flushes the queue
//! backlog with `503`, and drains in-flight jobs — cancelling them
//! through [`tauhls_sim::CancelToken`] only past the drain timeout.
//!
//! Everything is `std`-only: no registry crates, per DESIGN §5. The only
//! `unsafe` in the workspace is the two-line `signal(2)` binding in
//! [`signal`].
//!
//! # Examples
//!
//! ```no_run
//! use tauhls_serve::{client, Server, ServeConfig};
//! use std::time::Duration;
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..ServeConfig::default()
//! })?;
//! let addr = server.local_addr().to_string();
//! let r = client::request(
//!     &addr,
//!     "POST",
//!     "/v1/simulate",
//!     Some(r#"{"dfg":"fir5","trials":100}"#),
//!     Duration::from_secs(60),
//! ).expect("response");
//! assert_eq!(r.status, 200);
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)] // `signal` opts back in for its 2-line libc binding
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod cache;
mod config;
mod http;
mod jobs;
mod metrics;
mod queue;
mod server;

pub mod client;
pub mod cluster;
pub mod signal;

pub use cache::Cache;
pub use config::ServeConfig;
pub use http::{HttpError, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};
pub use jobs::{JobManager, JobResult, JobState, SubmitError, SubmitOutcome};
pub use metrics::{
    Event, Histogram, Metrics, BUCKETS_SECONDS, CLUSTER_EVENTS, ENDPOINTS, EVENT_LOG_CAPACITY,
    JOB_EVENTS, STATUS_CODES, TIMED_ENDPOINTS,
};
pub use queue::Queue;
pub use server::Server;
