//! JSON renderings of the experiment artifacts.
//!
//! Every report type renders through [`tauhls_json`], whose emitter keeps
//! insertion order and shortest-roundtrip float formatting, so the
//! `results/*.json` golden files are byte-stable across platforms and
//! thread counts.

use crate::experiments::{ExplosionPoint, LatencyRow, SummaryCells, Table1, Table2};
use crate::jobspec::SIMULATE_LEGS;
use crate::report::SystemArea;
use crate::resilience::{KindStats, ResilienceReport};
use crate::stages::ReportRow;
use crate::sweeps::{AllocationPoint, CurvePoint};
use crate::utilization::{UtilizationRow, UtilizationTable};
use tauhls_json::{Json, ToJson};

impl ToJson for SystemArea {
    fn to_json(&self) -> Json {
        Json::object([
            ("width", Json::from(u64::from(self.width))),
            ("control_com", Json::Float(self.control_com)),
            ("control_seq", Json::Float(self.control_seq)),
            ("units", Json::Float(self.units)),
            (
                "completion_generators",
                Json::Float(self.completion_generators),
            ),
            ("register_count", Json::from(self.register_count)),
            ("registers", Json::Float(self.registers)),
            ("total", Json::Float(self.total())),
            ("control_fraction", Json::Float(self.control_fraction())),
        ])
    }
}

/// Table 1's row rendering; the keys keep their historical short names.
impl ToJson for ReportRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::from(self.name.as_str())),
            ("inputs", Json::from(self.inputs)),
            ("outputs", Json::from(self.outputs)),
            ("states", Json::from(self.states)),
            ("ffs", Json::from(self.flip_flops)),
            ("area_com", Json::from(self.area_combinational)),
            ("area_seq", Json::from(self.area_sequential)),
        ])
    }
}

impl ToJson for Table1 {
    fn to_json(&self) -> Json {
        Json::object([
            ("encoding", Json::from(self.encoding.as_str())),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for SummaryCells {
    fn to_json(&self) -> Json {
        Json::object([
            ("best_ns", Json::from(self.best_ns)),
            ("avg_ns", Json::floats(&self.avg_ns)),
            ("worst_ns", Json::from(self.worst_ns)),
            ("rendered", Json::from(self.rendered.as_str())),
        ])
    }
}

impl ToJson for LatencyRow {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::from(self.name.as_str())),
            ("resources", Json::from(self.resources.as_str())),
        ];
        let legs = SIMULATE_LEGS.iter().zip(&self.legs);
        fields.extend(legs.map(|((key, _, _), cells)| (*key, cells.to_json())));
        fields.push(("enhancement", Json::floats(&self.enhancement)));
        Json::object(fields)
    }
}

impl ToJson for Table2 {
    fn to_json(&self) -> Json {
        Json::object([
            ("clock_ns", Json::from(self.clock_ns)),
            ("p_values", Json::floats(&self.p_values)),
            ("trials", Json::from(self.trials)),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for ExplosionPoint {
    fn to_json(&self) -> Json {
        Json::object([
            ("n", Json::from(self.n)),
            ("cent_states", Json::from(self.cent_states)),
            ("cent_branching", Json::from(self.cent_branching)),
            ("dist_states", Json::from(self.dist_states)),
            ("sync_states", Json::from(self.sync_states)),
        ])
    }
}

impl ToJson for CurvePoint {
    fn to_json(&self) -> Json {
        Json::object([
            ("p", Json::from(self.p)),
            ("sync_cycles", Json::from(self.sync_cycles)),
            ("dist_cycles", Json::from(self.dist_cycles)),
            ("enhancement", Json::from(self.enhancement)),
        ])
    }
}

impl ToJson for AllocationPoint {
    fn to_json(&self) -> Json {
        Json::object([
            ("muls", Json::from(self.muls)),
            ("enhancement", Json::from(self.enhancement)),
            ("dist_cycles", Json::from(self.dist_cycles)),
            ("schedule_arcs", Json::from(self.schedule_arcs)),
        ])
    }
}

impl ToJson for UtilizationRow {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::from(self.name.as_str())),
            ("dist_cycles", Json::from(self.dist_cycles)),
            ("sync_cycles", Json::from(self.sync_cycles)),
            ("dist_utilization", Json::from(self.dist_utilization)),
            ("sync_utilization", Json::from(self.sync_utilization)),
        ])
    }
}

impl ToJson for UtilizationTable {
    fn to_json(&self) -> Json {
        Json::object([
            ("p", Json::from(self.p)),
            ("trials", Json::from(self.trials)),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for KindStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("kind", Json::from(self.kind.as_str())),
            ("trials", Json::from(self.trials)),
            ("detected_deadlock", Json::from(self.detected_deadlock)),
            ("detected_desync", Json::from(self.detected_desync)),
            ("survived", Json::from(self.survived)),
            ("detection_rate", Json::from(self.detection_rate())),
            ("survival_fraction", Json::from(self.survival_fraction())),
            (
                "mean_detection_latency",
                Json::from(self.mean_detection_latency),
            ),
            ("cent_agreement", Json::from(self.cent_agreement)),
            (
                "cent_agreement_rate",
                Json::from(self.cent_agreement_rate()),
            ),
            ("elastic_deadlock", Json::from(self.elastic_deadlock)),
            ("elastic_desync", Json::from(self.elastic_desync)),
            ("elastic_survived", Json::from(self.elastic_survived)),
            (
                "elastic_detection_rate",
                Json::from(self.elastic_detection_rate()),
            ),
            (
                "elastic_survival_fraction",
                Json::from(self.elastic_survival_fraction()),
            ),
            (
                "elastic_mean_detection_latency",
                Json::from(self.elastic_mean_detection_latency),
            ),
        ])
    }
}

impl ToJson for ResilienceReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::from(self.name.as_str())),
            ("p", Json::from(self.p)),
            ("trials", Json::from(self.trials)),
            ("seed", Json::from(self.seed)),
            ("rows", self.rows.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tauhls_fsm::Encoding;
    use tauhls_logic::AreaModel;
    use tauhls_sim::BatchRunner;

    #[test]
    fn table1_json_has_all_rows() {
        let t = crate::experiments::table1(Encoding::Binary, &AreaModel::default());
        let s = t.to_json().to_pretty();
        for r in &t.rows {
            assert!(s.contains(&format!("\"name\": \"{}\"", r.name)));
        }
        assert!(s.ends_with('\n'));
    }

    #[test]
    fn table2_json_is_deterministic_across_thread_counts() {
        let a = crate::experiments::table2(120, 9, &BatchRunner::serial()).expect("fault-free");
        let b = crate::experiments::table2(120, 9, &BatchRunner::new(4)).expect("fault-free");
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        assert!(a.to_json().to_compact().contains("\"clock_ns\":15.0"));
    }
}
