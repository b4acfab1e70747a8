//! The dataflow-graph model: operations, operands, data edges.

use std::collections::HashMap;
use std::fmt;

/// Identifier of an operation node within a [`Dfg`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

impl fmt::Debug for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// Identifier of a primary input of a [`Dfg`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct InputId(pub usize);

/// The arithmetic operation performed by a node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction.
    Sub,
    /// Two's-complement multiplication.
    Mul,
    /// Signed less-than comparison producing 0 or 1.
    Lt,
}

impl OpKind {
    /// The class of functional unit able to execute this operation.
    pub fn resource_class(self) -> ResourceClass {
        match self {
            OpKind::Add => ResourceClass::Adder,
            OpKind::Sub => ResourceClass::Subtractor,
            OpKind::Mul => ResourceClass::Multiplier,
            // Comparison is a subtraction whose sign bit is observed, so it
            // shares the subtractor class (this matches the paper's Diff.Eq
            // allocation, which lists only {×, +, −} units).
            OpKind::Lt => ResourceClass::Subtractor,
        }
    }

    /// The operator symbol used in displays, e.g. `*` for multiplication.
    pub fn symbol(self) -> &'static str {
        match self {
            OpKind::Add => "+",
            OpKind::Sub => "-",
            OpKind::Mul => "*",
            OpKind::Lt => "<",
        }
    }

    /// Evaluates the operation on two's-complement values.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            OpKind::Add => a.wrapping_add(b),
            OpKind::Sub => a.wrapping_sub(b),
            OpKind::Mul => a.wrapping_mul(b),
            OpKind::Lt => i64::from(a < b),
        }
    }
}

/// Classes of functional units that can be allocated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ResourceClass {
    /// Executes [`OpKind::Mul`]. In this reproduction, the class implemented
    /// as a telescopic unit in the paper's experiments.
    Multiplier,
    /// Executes [`OpKind::Add`].
    Adder,
    /// Executes [`OpKind::Sub`] and [`OpKind::Lt`].
    Subtractor,
}

impl ResourceClass {
    /// All resource classes, in display order.
    pub const ALL: [ResourceClass; 3] = [
        ResourceClass::Multiplier,
        ResourceClass::Adder,
        ResourceClass::Subtractor,
    ];

    /// Short display name (`mul` / `add` / `sub`).
    pub fn short_name(self) -> &'static str {
        match self {
            ResourceClass::Multiplier => "mul",
            ResourceClass::Adder => "add",
            ResourceClass::Subtractor => "sub",
        }
    }
}

impl fmt::Display for ResourceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// One operand of an operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A primary input of the graph.
    Input(InputId),
    /// A compile-time constant.
    Const(i64),
    /// The result of another operation.
    Op(OpId),
}

/// An operation node: a kind plus its two operands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Operation {
    /// What the node computes.
    pub kind: OpKind,
    /// Left operand.
    pub lhs: Operand,
    /// Right operand.
    pub rhs: Operand,
}

/// Errors reported by [`Dfg::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DfgError {
    /// An operand references an operation id not present in the graph.
    DanglingOp(OpId),
    /// An operand references an input id not present in the graph.
    DanglingInput(InputId),
    /// An output references an operation id not present in the graph.
    DanglingOutput(OpId),
    /// The data dependences contain a cycle through the given operation.
    Cycle(OpId),
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::DanglingOp(o) => write!(f, "operand references missing operation {o}"),
            DfgError::DanglingInput(i) => write!(f, "operand references missing input {i:?}"),
            DfgError::DanglingOutput(o) => write!(f, "output references missing operation {o}"),
            DfgError::Cycle(o) => write!(f, "data-dependence cycle through {o}"),
        }
    }
}

impl std::error::Error for DfgError {}

/// A dataflow graph: primary inputs, operation nodes, and named outputs.
///
/// Data edges are implicit in the operand references. The graph must be
/// acyclic; [`Dfg::validate`] (called by [`DfgBuilder::build`]) checks this.
///
/// # Examples
///
/// ```
/// use tauhls_dfg::{DfgBuilder, OpKind, Operand};
/// let mut b = DfgBuilder::new("tiny");
/// let x = b.input("x");
/// let y = b.input("y");
/// let m = b.op(OpKind::Mul, x.into(), y.into());
/// let s = b.op(OpKind::Add, m.into(), Operand::Const(1));
/// b.output("r", s);
/// let g = b.build().unwrap();
/// assert_eq!(g.num_ops(), 2);
/// let out = g.evaluate(&[3, 4]);
/// assert_eq!(out["r"], 13);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dfg {
    name: String,
    input_names: Vec<String>,
    ops: Vec<Operation>,
    outputs: Vec<(String, OpId)>,
}

impl Dfg {
    /// The graph's name (used in reports and exported files).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operation nodes.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// Primary input names, indexed by [`InputId`].
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.0]
    }

    /// All operations, indexed by [`OpId`].
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Iterates over all operation ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len()).map(OpId)
    }

    /// The named outputs.
    pub fn outputs(&self) -> &[(String, OpId)] {
        &self.outputs
    }

    /// Direct predecessor operations (data-dependence parents on *other*
    /// operations; inputs and constants are not included).
    pub fn preds(&self, id: OpId) -> Vec<OpId> {
        let op = &self.ops[id.0];
        let mut out = Vec::with_capacity(2);
        for operand in [op.lhs, op.rhs] {
            if let Operand::Op(p) = operand {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// Direct successor operations (consumers of this node's result).
    pub fn succs(&self, id: OpId) -> Vec<OpId> {
        self.op_ids()
            .filter(|&s| self.preds(s).contains(&id))
            .collect()
    }

    /// Ids of operations with the given resource class.
    pub fn ops_of_class(&self, class: ResourceClass) -> Vec<OpId> {
        self.op_ids()
            .filter(|&o| self.ops[o.0].kind.resource_class() == class)
            .collect()
    }

    /// Count of operations per resource class.
    pub fn class_histogram(&self) -> HashMap<ResourceClass, usize> {
        let mut h = HashMap::new();
        for op in &self.ops {
            *h.entry(op.kind.resource_class()).or_insert(0) += 1;
        }
        h
    }

    /// Checks structural validity: operand references in range and no
    /// data-dependence cycles.
    ///
    /// # Errors
    ///
    /// Returns the first [`DfgError`] found.
    pub fn validate(&self) -> Result<(), DfgError> {
        for op in &self.ops {
            for operand in [op.lhs, op.rhs] {
                match operand {
                    Operand::Op(p) if p.0 >= self.ops.len() => return Err(DfgError::DanglingOp(p)),
                    Operand::Input(i) if i.0 >= self.input_names.len() => {
                        return Err(DfgError::DanglingInput(i))
                    }
                    _ => {}
                }
            }
        }
        for (_, o) in &self.outputs {
            if o.0 >= self.ops.len() {
                return Err(DfgError::DanglingOutput(*o));
            }
        }
        // Cycle check via DFS colouring.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        fn dfs(g: &Dfg, v: OpId, marks: &mut [Mark]) -> Result<(), DfgError> {
            marks[v.0] = Mark::Grey;
            for p in g.preds(v) {
                match marks[p.0] {
                    Mark::Grey => return Err(DfgError::Cycle(p)),
                    Mark::White => dfs(g, p, marks)?,
                    Mark::Black => {}
                }
            }
            marks[v.0] = Mark::Black;
            Ok(())
        }
        let mut marks = vec![Mark::White; self.ops.len()];
        for v in self.op_ids() {
            if marks[v.0] == Mark::White {
                dfs(self, v, &mut marks)?;
            }
        }
        Ok(())
    }

    /// A topological order of the operations (predecessors first).
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic (guarded by [`Dfg::validate`] at build
    /// time).
    pub fn topo_order(&self) -> Vec<OpId> {
        let n = self.ops.len();
        let mut indeg = vec![0usize; n];
        let mut succs: Vec<Vec<OpId>> = vec![Vec::new(); n];
        for v in self.op_ids() {
            for p in self.preds(v) {
                indeg[v.0] += 1;
                succs[p.0].push(v);
            }
        }
        // Kahn's algorithm with a min-heap on ids for a deterministic order.
        let mut queue: std::collections::BinaryHeap<std::cmp::Reverse<OpId>> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| std::cmp::Reverse(OpId(i)))
            .collect();
        let mut out = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(v)) = queue.pop() {
            out.push(v);
            for &s in &succs[v.0] {
                indeg[s.0] -= 1;
                if indeg[s.0] == 0 {
                    queue.push(std::cmp::Reverse(s));
                }
            }
        }
        assert_eq!(out.len(), n, "cyclic graph");
        out
    }

    /// Evaluates the graph on concrete input values (by [`InputId`] index),
    /// returning the named outputs. Reference semantics for simulation
    /// checking.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn evaluate(&self, inputs: &[i64]) -> HashMap<String, i64> {
        assert_eq!(inputs.len(), self.num_inputs(), "wrong input count");
        let values = self.evaluate_all(inputs);
        self.outputs
            .iter()
            .map(|(name, id)| (name.clone(), values[id.0]))
            .collect()
    }

    /// Evaluates every operation, returning the value per [`OpId`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn evaluate_all(&self, inputs: &[i64]) -> Vec<i64> {
        assert_eq!(inputs.len(), self.num_inputs(), "wrong input count");
        let mut values = vec![0i64; self.ops.len()];
        let order = {
            // plain Kahn order
            let n = self.ops.len();
            let mut indeg = vec![0usize; n];
            let mut succs: Vec<Vec<OpId>> = vec![Vec::new(); n];
            for v in self.op_ids() {
                for p in self.preds(v) {
                    indeg[v.0] += 1;
                    succs[p.0].push(v);
                }
            }
            let mut queue: Vec<OpId> = (0..n).filter(|&i| indeg[i] == 0).map(OpId).collect();
            let mut out = Vec::with_capacity(n);
            while let Some(v) = queue.pop() {
                out.push(v);
                for &s in &succs[v.0] {
                    indeg[s.0] -= 1;
                    if indeg[s.0] == 0 {
                        queue.push(s);
                    }
                }
            }
            out
        };
        for v in order {
            let op = &self.ops[v.0];
            let read = |o: Operand| -> i64 {
                match o {
                    Operand::Input(i) => inputs[i.0],
                    Operand::Const(c) => c,
                    Operand::Op(p) => values[p.0],
                }
            };
            values[v.0] = op.kind.apply(read(op.lhs), read(op.rhs));
        }
        values
    }
}

/// Incremental builder for [`Dfg`].
#[derive(Clone, Debug, Default)]
pub struct DfgBuilder {
    name: String,
    input_names: Vec<String>,
    ops: Vec<Operation>,
    outputs: Vec<(String, OpId)>,
}

impl DfgBuilder {
    /// Starts a new graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        DfgBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares a primary input and returns its id.
    pub fn input(&mut self, name: impl Into<String>) -> InputId {
        self.input_names.push(name.into());
        InputId(self.input_names.len() - 1)
    }

    /// Adds an operation node and returns its id.
    pub fn op(&mut self, kind: OpKind, lhs: Operand, rhs: Operand) -> OpId {
        self.ops.push(Operation { kind, lhs, rhs });
        OpId(self.ops.len() - 1)
    }

    /// Convenience: `lhs + rhs`.
    pub fn add(&mut self, lhs: Operand, rhs: Operand) -> OpId {
        self.op(OpKind::Add, lhs, rhs)
    }

    /// Convenience: `lhs - rhs`.
    pub fn sub(&mut self, lhs: Operand, rhs: Operand) -> OpId {
        self.op(OpKind::Sub, lhs, rhs)
    }

    /// Convenience: `lhs * rhs`.
    pub fn mul(&mut self, lhs: Operand, rhs: Operand) -> OpId {
        self.op(OpKind::Mul, lhs, rhs)
    }

    /// Convenience: `lhs < rhs`.
    pub fn lt(&mut self, lhs: Operand, rhs: Operand) -> OpId {
        self.op(OpKind::Lt, lhs, rhs)
    }

    /// Marks an operation's result as a named primary output.
    pub fn output(&mut self, name: impl Into<String>, op: OpId) {
        self.outputs.push((name.into(), op));
    }

    /// Finalizes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns a [`DfgError`] if references dangle or dependences cycle.
    pub fn build(self) -> Result<Dfg, DfgError> {
        let g = Dfg {
            name: self.name,
            input_names: self.input_names,
            ops: self.ops,
            outputs: self.outputs,
        };
        g.validate()?;
        Ok(g)
    }
}

impl From<InputId> for Operand {
    fn from(i: InputId) -> Operand {
        Operand::Input(i)
    }
}

impl From<OpId> for Operand {
    fn from(o: OpId) -> Operand {
        Operand::Op(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dfg {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let m = b.mul(x.into(), y.into());
        let a = b.add(m.into(), Operand::Const(5));
        let c = b.lt(a.into(), x.into());
        b.output("sum", a);
        b.output("cmp", c);
        b.build().unwrap()
    }

    #[test]
    fn evaluate_reference_semantics() {
        let g = tiny();
        let out = g.evaluate(&[2, 3]);
        assert_eq!(out["sum"], 11);
        assert_eq!(out["cmp"], 0);
        let out = g.evaluate(&[100, -3]);
        assert_eq!(out["sum"], -295);
        assert_eq!(out["cmp"], 1);
    }

    #[test]
    fn preds_and_succs() {
        let g = tiny();
        assert_eq!(g.preds(OpId(0)), vec![]);
        assert_eq!(g.preds(OpId(1)), vec![OpId(0)]);
        assert_eq!(g.succs(OpId(0)), vec![OpId(1)]);
        assert_eq!(g.succs(OpId(1)), vec![OpId(2)]);
        assert_eq!(g.succs(OpId(2)), vec![]);
    }

    #[test]
    fn duplicate_operand_listed_once_in_preds() {
        let mut b = DfgBuilder::new("sq");
        let x = b.input("x");
        let m = b.mul(x.into(), x.into());
        let s = b.mul(m.into(), m.into());
        b.output("y", s);
        let g = b.build().unwrap();
        assert_eq!(g.preds(OpId(1)), vec![OpId(0)]);
        assert_eq!(g.evaluate(&[3])["y"], 81);
    }

    #[test]
    fn class_histogram_counts() {
        let g = tiny();
        let h = g.class_histogram();
        assert_eq!(h[&ResourceClass::Multiplier], 1);
        assert_eq!(h[&ResourceClass::Adder], 1);
        assert_eq!(h[&ResourceClass::Subtractor], 1); // the Lt
    }

    #[test]
    fn topo_order_respects_dependences() {
        let g = tiny();
        let order = g.topo_order();
        assert_eq!(order.len(), 3);
        let pos: HashMap<OpId, usize> = order.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        for v in g.op_ids() {
            for p in g.preds(v) {
                assert!(pos[&p] < pos[&v]);
            }
        }
    }

    #[test]
    fn validate_rejects_dangling() {
        let g = Dfg {
            name: "bad".into(),
            input_names: vec![],
            ops: vec![Operation {
                kind: OpKind::Add,
                lhs: Operand::Op(OpId(7)),
                rhs: Operand::Const(0),
            }],
            outputs: vec![],
        };
        assert_eq!(g.validate(), Err(DfgError::DanglingOp(OpId(7))));
    }

    #[test]
    fn validate_rejects_cycle() {
        let g = Dfg {
            name: "cyc".into(),
            input_names: vec![],
            ops: vec![
                Operation {
                    kind: OpKind::Add,
                    lhs: Operand::Op(OpId(1)),
                    rhs: Operand::Const(0),
                },
                Operation {
                    kind: OpKind::Add,
                    lhs: Operand::Op(OpId(0)),
                    rhs: Operand::Const(0),
                },
            ],
            outputs: vec![],
        };
        assert!(matches!(g.validate(), Err(DfgError::Cycle(_))));
    }

    #[test]
    #[should_panic(expected = "wrong input count")]
    fn evaluate_checks_arity() {
        tiny().evaluate(&[1]);
    }
}
