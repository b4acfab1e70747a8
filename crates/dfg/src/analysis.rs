//! Structural analyses over dataflow graphs: ASAP/ALAP levels, mobility,
//! critical path.
//!
//! Levels are in abstract *time steps* assuming unit latency per operation —
//! the convention of the paper's original (pre-telescopic) scheduling. The
//! telescopic timing itself is introduced later by the controller generation
//! and simulation stages.

use crate::graph::{Dfg, OpId};

/// Per-operation scheduling freedom derived from ASAP/ALAP analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelAnalysis {
    asap: Vec<usize>,
    alap: Vec<usize>,
    depth: usize,
}

impl LevelAnalysis {
    /// Runs ASAP and ALAP labelling on the graph (unit latencies).
    pub fn new(g: &Dfg) -> Self {
        let n = g.num_ops();
        let order = g.topo_order();
        let mut asap = vec![0usize; n];
        for &v in &order {
            asap[v.0] = g.preds(v).iter().map(|p| asap[p.0] + 1).max().unwrap_or(0);
        }
        let depth = asap.iter().copied().max().map_or(0, |d| d + 1);
        let mut alap = vec![depth.saturating_sub(1); n];
        for &v in order.iter().rev() {
            let succ_min = g.succs(v).iter().map(|s| alap[s.0]).min();
            if let Some(s) = succ_min {
                alap[v.0] = s - 1;
            }
        }
        LevelAnalysis { asap, alap, depth }
    }

    /// Earliest time step at which the operation can run.
    pub fn asap(&self, v: OpId) -> usize {
        self.asap[v.0]
    }

    /// Latest time step at which the operation can run without stretching
    /// the schedule beyond the critical path.
    pub fn alap(&self, v: OpId) -> usize {
        self.alap[v.0]
    }

    /// `alap - asap`: the operation's scheduling freedom.
    pub fn mobility(&self, v: OpId) -> usize {
        self.alap[v.0] - self.asap[v.0]
    }

    /// Number of time steps on the critical path (unit latencies).
    pub fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DfgBuilder, Operand};

    /// Operations with zero mobility, in ASAP order — the critical path(s).
    fn critical_ops(la: &LevelAnalysis) -> Vec<OpId> {
        let mut out: Vec<OpId> = (0..la.asap.len())
            .map(OpId)
            .filter(|&v| la.mobility(v) == 0)
            .collect();
        out.sort_by_key(|&v| la.asap(v));
        out
    }

    /// Diamond: m0, m1 independent; a = m0 + m1; s = a - m0.
    fn diamond() -> Dfg {
        let mut b = DfgBuilder::new("d");
        let x = b.input("x");
        let y = b.input("y");
        let m0 = b.mul(x.into(), y.into());
        let m1 = b.mul(x.into(), Operand::Const(3));
        let a = b.add(m0.into(), m1.into());
        let s = b.sub(a.into(), m0.into());
        b.output("o", s);
        b.build().unwrap()
    }

    #[test]
    fn asap_alap_depth() {
        let g = diamond();
        let la = LevelAnalysis::new(&g);
        assert_eq!(la.depth(), 3);
        assert_eq!(la.asap(OpId(0)), 0);
        assert_eq!(la.asap(OpId(1)), 0);
        assert_eq!(la.asap(OpId(2)), 1);
        assert_eq!(la.asap(OpId(3)), 2);
        assert_eq!(la.alap(OpId(0)), 0); // feeds both a and s transitively
        assert_eq!(la.alap(OpId(1)), 0);
        assert_eq!(la.alap(OpId(3)), 2);
    }

    #[test]
    fn mobility_zero_on_critical_path() {
        let g = diamond();
        let la = LevelAnalysis::new(&g);
        // Everything here is critical except none — depth 3 with 4 ops; m1
        // feeds only `a`, so alap(m1)=0 as well -> mobility 0 everywhere.
        for v in g.op_ids() {
            assert_eq!(la.mobility(v), 0, "{v}");
        }
        assert_eq!(critical_ops(&la).len(), 4);
    }

    #[test]
    fn slack_appears_off_critical_path() {
        let mut b = DfgBuilder::new("s");
        let x = b.input("x");
        // chain of three mults (critical), plus one independent add.
        let m0 = b.mul(x.into(), x.into());
        let m1 = b.mul(m0.into(), x.into());
        let m2 = b.mul(m1.into(), x.into());
        let a = b.add(x.into(), Operand::Const(1));
        b.output("m", m2);
        b.output("a", a);
        let g = b.build().unwrap();
        let la = LevelAnalysis::new(&g);
        assert_eq!(la.depth(), 3);
        assert_eq!(la.mobility(OpId(3)), 2); // the add floats freely
        assert_eq!(critical_ops(&la), vec![OpId(0), OpId(1), OpId(2)]);
    }

    #[test]
    fn empty_graph() {
        let g = DfgBuilder::new("e").build().unwrap();
        let la = LevelAnalysis::new(&g);
        assert_eq!(la.depth(), 0);
        assert!(critical_ops(&la).is_empty());
    }
}
