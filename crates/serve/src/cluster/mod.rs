//! Master/worker clustering: shard one job's batch across nodes and
//! merge the partials bit-identically (DESIGN §5j).
//!
//! Three roles, selected by [`crate::ServeConfig`]:
//!
//! * **Single** (the default): no cluster threads; the `cluster`
//!   status section reports the role and nothing else. Every server —
//!   single included — serves `POST /v1/cluster/partition`, so any
//!   plain `tauhls serve` process is a valid worker.
//! * **Coordinator** (`coordinator` / `workers_file`): keeps a
//!   [`WorkerRegistry`], health-probes it, and executes jobs through
//!   the [`Coordinator`] — partition, dispatch, requeue-on-loss, merge.
//!   `Cluster::execute` is the one place that choice is made, for the
//!   synchronous handlers and the async job workers alike.
//! * **Worker** (`worker_of`): registers with its coordinator at
//!   startup and heartbeats on `heartbeat_interval`.
//!
//! Determinism survives distribution because the partition math and the
//! merge are [`tauhls_core::partition`]: global unit coordinates on the
//! wire, exact values in partials, one body builder. The cluster layer
//! adds only transport and failure handling — nothing it does can
//! change a byte of the answer, only how long it takes.

mod coordinator;
mod registry;

pub use coordinator::Coordinator;
pub use registry::{RegisterError, WorkerRegistry, WorkerStats, FAILURE_LIMIT};

use std::sync::Arc;

use tauhls_core::jobspec::JobSpec;
use tauhls_json::Json;
use tauhls_sim::BatchRunner;

use crate::jobs::ExecResult;
use crate::metrics::{exposition, gauge, Samples};

/// Which part a server plays in a cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Not clustered (still serves partitions if asked).
    Single,
    /// Partitions jobs across registered workers.
    Coordinator,
    /// Registers with and heartbeats a coordinator.
    Worker,
}

impl Role {
    /// The role's status-body spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Single => "single",
            Role::Coordinator => "coordinator",
            Role::Worker => "worker",
        }
    }
}

/// The per-server cluster state: role, worker table, and (for
/// coordinators) the dispatcher.
pub struct Cluster {
    /// This server's role.
    pub role: Role,
    /// The worker table (empty and unused outside coordinator mode,
    /// but always present so registrations are handled uniformly).
    pub registry: Arc<WorkerRegistry>,
    /// The dispatcher, coordinator role only.
    pub coordinator: Option<Coordinator>,
}

impl Cluster {
    /// Runs `spec` where this server's role says: sharded across the
    /// workers on a coordinator, in process otherwise. The body is
    /// byte-identical either way.
    pub(crate) fn execute(&self, spec: &JobSpec, runner: &BatchRunner) -> ExecResult {
        match &self.coordinator {
            Some(coordinator) => coordinator.execute(spec, runner),
            None => spec.run_with(runner, None),
        }
    }

    /// The `cluster` section of `GET /v1/status`.
    pub fn status_json(&self, metrics: &crate::Metrics) -> Json {
        let workers: Vec<Json> = self
            .registry
            .snapshot()
            .into_iter()
            .map(|w| {
                let mut pairs = vec![
                    ("addr", Json::from(w.addr.as_str())),
                    ("healthy", Json::from(w.healthy)),
                    (
                        "consecutive_failures",
                        Json::from(u64::from(w.consecutive_failures)),
                    ),
                    ("dispatched", Json::from(w.dispatched)),
                    ("completed", Json::from(w.completed)),
                    ("requeued", Json::from(w.requeued)),
                ];
                if let Some(secs) = w.last_heartbeat_secs {
                    pairs.push(("last_heartbeat_seconds_ago", Json::Float(secs)));
                }
                Json::object(pairs)
            })
            .collect();
        let mut partitions = vec![(
            "inflight",
            Json::from(self.coordinator.as_ref().map_or(0, Coordinator::inflight)),
        )];
        for event in crate::CLUSTER_EVENTS {
            partitions.push((event, Json::from(metrics.cluster_count(event))));
        }
        Json::object([
            ("role", Json::from(self.role.as_str())),
            ("workers", Json::Array(workers)),
            ("partitions", Json::object(partitions)),
        ])
    }

    /// Per-worker gauge lines appended to the `/metrics` exposition
    /// (the scalar cluster counters render inside
    /// [`crate::Metrics::render`]).
    pub fn render_metrics(&self) -> String {
        let snapshot = self.registry.snapshot();
        let worker = |w: &WorkerStats| format!("worker=\"{}\"", w.addr);
        let partitions = snapshot.iter().flat_map(|w| {
            [
                ("dispatched", w.dispatched),
                ("completed", w.completed),
                ("requeued", w.requeued),
            ]
            .map(|(event, n)| (format!("{},event=\"{event}\"", worker(w)), n.to_string()))
        });
        exposition([
            (
                "tauhls_serve_cluster_partitions_inflight",
                gauge(self.coordinator.as_ref().map_or(0, Coordinator::inflight)),
            ),
            ("tauhls_serve_cluster_workers", gauge(snapshot.len())),
            (
                "tauhls_serve_cluster_worker_healthy",
                Samples::Gauge(
                    snapshot
                        .iter()
                        .map(|w| (worker(w), u8::from(w.healthy).to_string()))
                        .collect(),
                ),
            ),
            (
                "tauhls_serve_cluster_worker_partitions_total",
                Samples::Counter(partitions.collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_metrics_render_worker_rows() {
        let registry = Arc::new(WorkerRegistry::new());
        registry.register("127.0.0.1:9001").unwrap();
        registry.mark_dispatch("127.0.0.1:9001");
        registry.mark_success("127.0.0.1:9001");
        let cluster = Cluster {
            role: Role::Coordinator,
            registry,
            coordinator: None,
        };
        let status = cluster.status_json(&crate::Metrics::new()).to_compact();
        assert!(status.contains("\"role\":\"coordinator\""), "{status}");
        assert!(status.contains("\"addr\":\"127.0.0.1:9001\""), "{status}");
        assert!(status.contains("\"completed\":1"), "{status}");
        let metrics = cluster.render_metrics();
        assert!(
            metrics.contains("tauhls_serve_cluster_worker_healthy{worker=\"127.0.0.1:9001\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains(
                "tauhls_serve_cluster_worker_partitions_total{worker=\"127.0.0.1:9001\",event=\"completed\"} 1"
            ),
            "{metrics}"
        );
    }
}
