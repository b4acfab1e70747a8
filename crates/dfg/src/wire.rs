//! Strict JSON DAG wire format for user-supplied dataflow graphs.
//!
//! The document shape mirrors the service's `JobSpec` discipline: strict
//! RFC 8259 JSON, unknown keys rejected, and every error carries a byte
//! offset into the submitted text (`"byte {offset}: {message}"`) so a
//! client can point at the exact defect. The format:
//!
//! ```json
//! {
//!   "nodes": [
//!     {"id": "a",  "op": "input"},
//!     {"id": "k",  "op": "const", "value": 3},
//!     {"id": "m0", "op": "mul"},
//!     {"id": "s0", "op": "add"}
//!   ],
//!   "edges": [
//!     {"from": "a",  "to": "m0", "port": 0},
//!     {"from": "k",  "to": "m0", "port": 1},
//!     {"from": "m0", "to": "s0"},
//!     {"from": "a",  "to": "s0"}
//!   ],
//!   "outputs": {"y": "s0"},
//!   "params": {"name": "axpy"}
//! }
//! ```
//!
//! Semantics: `input`/`const` nodes are sources (no incoming edges);
//! every `add`/`sub`/`mul`/`lt` node takes exactly two operands. An edge
//! may pin its operand slot with `"port": 0|1`; unported edges fill the
//! lowest free port in edge-list order. The graph must be acyclic
//! (checked iteratively — deeply chained graphs cannot overflow the
//! stack) and declare at least one output naming an op node.
//!
//! [`dfg_to_wire`] renders any [`Dfg`] back into the format in a
//! canonical form (deterministic node ids and ordering); the canonical
//! rendering is a fixed point of parse→render, which is what lets the
//! service embed it verbatim in content-addressed cache keys.

use std::collections::HashMap;
use std::fmt;

use tauhls_json::Json;

use crate::graph::{Dfg, DfgBuilder, InputId, OpId, OpKind, Operand};

/// Hard cap on `nodes` in one wire document; edges are capped at twice
/// this (each op node carries exactly two incoming edges).
pub const MAX_WIRE_NODES: usize = 1024;
/// Byte-length cap for node ids, output names, and the graph name.
pub const MAX_WIRE_NAME: usize = 64;

/// A wire-format rejection: a byte offset into the submitted text plus
/// a message, rendered exactly like [`tauhls_json::JsonParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset into the submitted document near the defect.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for WireError {}

fn err<T>(offset: usize, message: impl Into<String>) -> Result<T, WireError> {
    Err(WireError {
        offset,
        message: message.into(),
    })
}

/// Byte offset of the `n`-th (0-based) occurrence of `needle`, or 0 when
/// the text has fewer occurrences. Node ids and names are restricted to
/// an escape-free charset, so a quoted token appears in the source
/// exactly as rendered here.
fn nth_offset(text: &str, needle: &str, n: usize) -> usize {
    let mut from = 0;
    let mut count = 0;
    while let Some(at) = text[from..].find(needle) {
        let pos = from + at;
        if count == n {
            return pos;
        }
        count += 1;
        from = pos + needle.len();
    }
    0
}

/// Whether `s` is a legal wire identifier: non-empty, at most
/// [`MAX_WIRE_NAME`] bytes, ASCII alphanumerics plus `_`, `-`, `.`.
/// The charset deliberately excludes anything JSON would escape, so an
/// identifier's quoted form equals its byte content in the source text.
pub fn valid_wire_id(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= MAX_WIRE_NAME
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

/// FNV-1a 64 over `text` — the content hash `/v1/dfg/validate` reports
/// for a canonical wire rendering.
pub fn wire_hash(text: &str) -> u64 {
    crate::Fnv64::of(text.as_bytes())
}

#[derive(Clone, Copy, PartialEq)]
enum NodeKind {
    Input(usize),
    Const(i64),
    Op(usize),
}

struct WireNode {
    id: String,
    kind: NodeKind,
    op_kind: Option<OpKind>,
    anchor: usize,
}

fn op_kind_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Add => "add",
        OpKind::Sub => "sub",
        OpKind::Mul => "mul",
        OpKind::Lt => "lt",
    }
}

fn parse_op_kind(s: &str) -> Option<OpKind> {
    match s {
        "add" => Some(OpKind::Add),
        "sub" => Some(OpKind::Sub),
        "mul" => Some(OpKind::Mul),
        "lt" => Some(OpKind::Lt),
        _ => None,
    }
}

/// Parses a strict wire-format document into a [`Dfg`].
///
/// Every rejection — JSON syntax, schema, duplicate ids, dangling or
/// self edges, arity, cycles — returns a [`WireError`] whose offset
/// points into `text` near the defect.
pub fn parse_wire_dfg(text: &str) -> Result<Dfg, WireError> {
    let doc = Json::parse(text).map_err(|e| WireError {
        offset: e.offset,
        message: e.message,
    })?;
    let Some(top) = doc.as_object() else {
        return err(0, "top level must be an object");
    };
    const TOP_KEYS: [&str; 4] = ["nodes", "edges", "outputs", "params"];
    let mut seen_top: Vec<&str> = Vec::new();
    for (key, _) in top {
        let anchor = nth_offset(text, &format!("\"{key}\""), 0);
        if !TOP_KEYS.contains(&key.as_str()) {
            return err(
                anchor,
                format!("unknown key '{key}' (allowed: nodes, edges, outputs, params)"),
            );
        }
        if seen_top.contains(&key.as_str()) {
            return err(anchor, format!("duplicate key '{key}'"));
        }
        seen_top.push(key);
    }

    // ---- nodes -------------------------------------------------------
    let nodes_json = match doc.get("nodes").and_then(Json::as_array) {
        Some(a) => a,
        None => return err(0, "'nodes' must be an array of node objects"),
    };
    if nodes_json.is_empty() {
        return err(
            nth_offset(text, "\"nodes\"", 0),
            "'nodes' must not be empty",
        );
    }
    if nodes_json.len() > MAX_WIRE_NODES {
        return err(
            nth_offset(text, "\"nodes\"", 0),
            format!("too many nodes: {} > {MAX_WIRE_NODES}", nodes_json.len()),
        );
    }

    let mut nodes: Vec<WireNode> = Vec::with_capacity(nodes_json.len());
    let mut by_id: HashMap<String, usize> = HashMap::new();
    let (mut num_inputs, mut num_ops) = (0usize, 0usize);
    for (i, node) in nodes_json.iter().enumerate() {
        let anchor = nth_offset(text, "\"id\"", i);
        let Some(pairs) = node.as_object() else {
            return err(anchor, format!("node {i} must be an object"));
        };
        for (key, _) in pairs {
            if !matches!(key.as_str(), "id" | "op" | "value") {
                return err(
                    anchor,
                    format!("node {i}: unknown key '{key}' (allowed: id, op, value)"),
                );
            }
        }
        let Some(id) = node.get("id").and_then(Json::as_str) else {
            return err(anchor, format!("node {i}: 'id' must be a string"));
        };
        if !valid_wire_id(id) {
            return err(
                anchor,
                format!(
                    "node {i}: invalid id {id:?} (1..={MAX_WIRE_NAME} bytes of \
                     ASCII alphanumerics, '_', '-', '.')"
                ),
            );
        }
        let anchor = nth_offset(text, &format!("\"{id}\""), 0);
        if by_id.contains_key(id) {
            return err(
                nth_offset(text, &format!("\"{id}\""), 1),
                format!("duplicate node id '{id}'"),
            );
        }
        let Some(op) = node.get("op").and_then(Json::as_str) else {
            return err(anchor, format!("node '{id}': 'op' must be a string"));
        };
        let value = node.get("value");
        if value.is_some() && op != "const" {
            return err(
                anchor,
                format!("node '{id}': 'value' is only allowed on const nodes"),
            );
        }
        let kind = match op {
            "input" => {
                num_inputs += 1;
                NodeKind::Input(num_inputs - 1)
            }
            "const" => {
                let value = match value {
                    Some(&Json::Int(v)) => v,
                    Some(&Json::UInt(v)) if v <= i64::MAX as u64 => v as i64,
                    Some(_) => {
                        return err(anchor, format!("node '{id}': 'value' must be an integer"))
                    }
                    None => return err(anchor, format!("node '{id}': const nodes need a 'value'")),
                };
                NodeKind::Const(value)
            }
            other => match parse_op_kind(other) {
                Some(_) => {
                    num_ops += 1;
                    NodeKind::Op(num_ops - 1)
                }
                None => {
                    return err(
                        anchor,
                        format!(
                            "node '{id}': unknown op {other:?} \
                             (allowed: input, const, add, sub, mul, lt)"
                        ),
                    )
                }
            },
        };
        by_id.insert(id.to_string(), i);
        nodes.push(WireNode {
            id: id.to_string(),
            kind,
            op_kind: parse_op_kind(op),
            anchor,
        });
    }

    // ---- edges -------------------------------------------------------
    let edges_json = match doc.get("edges").and_then(Json::as_array) {
        Some(a) => a,
        None => return err(0, "'edges' must be an array of edge objects"),
    };
    if edges_json.len() > 2 * MAX_WIRE_NODES {
        return err(
            nth_offset(text, "\"edges\"", 0),
            format!(
                "too many edges: {} > {}",
                edges_json.len(),
                2 * MAX_WIRE_NODES
            ),
        );
    }
    // Per op node: the two operand slots, filled by edges.
    let mut slots: Vec<[Option<Operand>; 2]> = vec![[None, None]; num_ops];
    for (j, edge) in edges_json.iter().enumerate() {
        let anchor = nth_offset(text, "\"from\"", j);
        let Some(pairs) = edge.as_object() else {
            return err(anchor, format!("edge {j} must be an object"));
        };
        for (key, _) in pairs {
            if !matches!(key.as_str(), "from" | "to" | "port") {
                return err(
                    anchor,
                    format!("edge {j}: unknown key '{key}' (allowed: from, to, port)"),
                );
            }
        }
        let Some(from) = edge.get("from").and_then(Json::as_str) else {
            return err(anchor, format!("edge {j}: 'from' must be a string node id"));
        };
        let Some(to) = edge.get("to").and_then(Json::as_str) else {
            return err(anchor, format!("edge {j}: 'to' must be a string node id"));
        };
        let Some(&src) = by_id.get(from) else {
            return err(anchor, format!("edge {j}: unknown node '{from}' in 'from'"));
        };
        let Some(&dst) = by_id.get(to) else {
            return err(anchor, format!("edge {j}: unknown node '{to}' in 'to'"));
        };
        if src == dst {
            return err(anchor, format!("edge {j}: self-edge on node '{to}'"));
        }
        let NodeKind::Op(op_index) = nodes[dst].kind else {
            return err(
                anchor,
                format!("edge {j}: node '{to}' is not an op node and cannot receive edges"),
            );
        };
        let port = match edge.get("port") {
            None => None,
            Some(p) => match p.as_u64() {
                Some(p @ 0..=1) => Some(p as usize),
                _ => return err(anchor, format!("edge {j}: 'port' must be 0 or 1")),
            },
        };
        let operand = match nodes[src].kind {
            NodeKind::Input(k) => Operand::Input(InputId(k)),
            NodeKind::Const(v) => Operand::Const(v),
            NodeKind::Op(k) => Operand::Op(OpId(k)),
        };
        let slot = match port {
            Some(p) => {
                if slots[op_index][p].is_some() {
                    return err(
                        anchor,
                        format!("edge {j}: port {p} of node '{to}' is driven twice"),
                    );
                }
                p
            }
            None => match slots[op_index].iter().position(Option::is_none) {
                Some(p) => p,
                None => {
                    return err(
                        anchor,
                        format!("edge {j}: node '{to}' has more than 2 incoming edges"),
                    )
                }
            },
        };
        slots[op_index][slot] = Some(operand);
    }
    for node in &nodes {
        if let NodeKind::Op(k) = node.kind {
            let have = slots[k].iter().flatten().count();
            if have != 2 {
                return err(
                    node.anchor,
                    format!(
                        "op node '{}' needs exactly 2 incoming edges, has {have}",
                        node.id
                    ),
                );
            }
        }
    }

    // ---- outputs -----------------------------------------------------
    let outputs_anchor = nth_offset(text, "\"outputs\"", 0);
    let outputs_json = match doc.get("outputs").and_then(Json::as_object) {
        Some(o) => o,
        None => {
            return err(
                outputs_anchor,
                "'outputs' must be an object of name -> op node id",
            )
        }
    };
    if outputs_json.is_empty() {
        return err(outputs_anchor, "at least one output is required");
    }
    let mut outputs: Vec<(String, OpId)> = Vec::with_capacity(outputs_json.len());
    for (name, target) in outputs_json {
        let anchor = {
            let needle = format!("\"{name}\"");
            match text[outputs_anchor..].find(&needle) {
                Some(at) => outputs_anchor + at,
                None => outputs_anchor,
            }
        };
        if !valid_wire_id(name) {
            return err(
                anchor,
                format!(
                    "invalid output name {name:?} (1..={MAX_WIRE_NAME} bytes of \
                     ASCII alphanumerics, '_', '-', '.')"
                ),
            );
        }
        if outputs.iter().any(|(n, _)| n == name) {
            return err(anchor, format!("duplicate output name '{name}'"));
        }
        let Some(id) = target.as_str() else {
            return err(anchor, format!("output '{name}' must be a string node id"));
        };
        let Some(&node) = by_id.get(id) else {
            return err(anchor, format!("output '{name}': unknown node '{id}'"));
        };
        let NodeKind::Op(k) = nodes[node].kind else {
            return err(anchor, format!("output '{name}' must reference an op node"));
        };
        outputs.push((name.clone(), OpId(k)));
    }

    // ---- params ------------------------------------------------------
    let mut name = "dfg".to_string();
    if let Some(params) = doc.get("params") {
        let anchor = nth_offset(text, "\"params\"", 0);
        let Some(pairs) = params.as_object() else {
            return err(anchor, "'params' must be an object");
        };
        for (key, value) in pairs {
            match key.as_str() {
                "name" => match value.as_str() {
                    Some(n) if valid_wire_id(n) => name = n.to_string(),
                    _ => {
                        return err(
                            anchor,
                            format!(
                                "params.name must be a string of 1..={MAX_WIRE_NAME} bytes of \
                                 ASCII alphanumerics, '_', '-', '.'"
                            ),
                        )
                    }
                },
                other => {
                    return err(
                        anchor,
                        format!("params: unknown key '{other}' (allowed: name)"),
                    )
                }
            }
        }
    }

    // ---- cycle check (iterative: depth bombs cannot overflow) --------
    // Dfg::validate would find cycles too, but its DFS recurses; a
    // 1000-deep chain of forward references is fine for it only because
    // MAX_WIRE_NODES bounds depth. The check here is explicit and
    // iterative, and reports the offending node id with an offset.
    let mut color = vec![0u8; num_ops]; // 0 new, 1 on stack, 2 done
    let preds = |k: usize| -> Vec<usize> {
        slots[k]
            .iter()
            .flatten()
            .filter_map(|o| match o {
                Operand::Op(OpId(p)) => Some(*p),
                _ => None,
            })
            .collect()
    };
    for start in 0..num_ops {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, Vec<usize>, usize)> = vec![(start, preds(start), 0)];
        color[start] = 1;
        while let Some((node, ps, next)) = stack.pop() {
            if next < ps.len() {
                let p = ps[next];
                stack.push((node, ps, next + 1));
                match color[p] {
                    0 => {
                        color[p] = 1;
                        let pp = preds(p);
                        stack.push((p, pp, 0));
                    }
                    1 => {
                        let wire = nodes.iter().find(|n| n.kind == NodeKind::Op(p));
                        let (anchor, id) =
                            wire.map(|n| (n.anchor, n.id.as_str())).unwrap_or((0, "?"));
                        return err(anchor, format!("cycle through node '{id}'"));
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
            }
        }
    }

    // ---- build -------------------------------------------------------
    let mut builder = DfgBuilder::new(name);
    for node in &nodes {
        if matches!(node.kind, NodeKind::Input(_)) {
            builder.input(node.id.clone());
        }
    }
    for node in &nodes {
        if let NodeKind::Op(k) = node.kind {
            let kind = node.op_kind.unwrap_or(OpKind::Add);
            let (lhs, rhs) = (slots[k][0], slots[k][1]);
            match (lhs, rhs) {
                (Some(lhs), Some(rhs)) => {
                    builder.op(kind, lhs, rhs);
                }
                _ => {
                    return err(
                        node.anchor,
                        format!("op node '{}' lost an operand", node.id),
                    )
                }
            }
        }
    }
    for (name, op) in outputs {
        builder.output(name, op);
    }
    builder.build().map_err(|e| WireError {
        offset: 0,
        message: format!("invalid graph: {e}"),
    })
}

/// Deterministic, collision-free wire identifier assignment for
/// [`dfg_to_wire`]: sanitize into the legal charset, then suffix `_`
/// until unique.
fn assign_id(used: &mut Vec<String>, candidate: &str) -> String {
    let mut id: String = candidate
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .take(MAX_WIRE_NAME / 2)
        .collect();
    if id.is_empty() {
        id.push('n');
    }
    while used.iter().any(|u| u == &id) {
        id.push('_');
    }
    used.push(id.clone());
    id
}

/// Renders a [`Dfg`] into the canonical wire form: inputs first (in
/// input order, ids from the input names), then const nodes (first-use
/// order, ids `c{value}`), then ops (ids `n{index}`), all edges with
/// explicit ports, outputs in declaration order, and the graph name in
/// `params`. The rendering is a fixed point of
/// `parse_wire_dfg` ∘ `dfg_to_wire`, which makes the compact form a
/// canonical content address for any graph.
pub fn dfg_to_wire(dfg: &Dfg) -> Json {
    let mut used: Vec<String> = Vec::new();
    let input_ids: Vec<String> = dfg
        .input_names()
        .iter()
        .map(|name| assign_id(&mut used, name))
        .collect();
    // Const nodes: one per distinct value, discovered in operand order.
    let mut const_ids: Vec<(i64, String)> = Vec::new();
    for id in dfg.op_ids() {
        let op = dfg.op(id);
        for operand in [op.lhs, op.rhs] {
            if let Operand::Const(v) = operand {
                if !const_ids.iter().any(|(c, _)| *c == v) {
                    let id = assign_id(&mut used, &format!("c{v}"));
                    const_ids.push((v, id));
                }
            }
        }
    }
    let op_ids: Vec<String> = dfg
        .op_ids()
        .map(|id| assign_id(&mut used, &format!("n{}", id.0)))
        .collect();

    let operand_id = |operand: Operand| -> String {
        match operand {
            Operand::Input(InputId(i)) => input_ids[i].clone(),
            Operand::Const(v) => const_ids
                .iter()
                .find(|(c, _)| *c == v)
                .map(|(_, id)| id.clone())
                .unwrap_or_default(),
            Operand::Op(OpId(k)) => op_ids[k].clone(),
        }
    };

    let mut nodes = Vec::new();
    for id in &input_ids {
        nodes.push(Json::object([
            ("id", Json::from(id.as_str())),
            ("op", Json::from("input")),
        ]));
    }
    for (value, id) in &const_ids {
        nodes.push(Json::object([
            ("id", Json::from(id.as_str())),
            ("op", Json::from("const")),
            ("value", Json::from(*value)),
        ]));
    }
    let mut edges = Vec::new();
    for id in dfg.op_ids() {
        let op = dfg.op(id);
        nodes.push(Json::object([
            ("id", Json::from(op_ids[id.0].as_str())),
            ("op", Json::from(op_kind_name(op.kind))),
        ]));
        for (port, operand) in [(0u64, op.lhs), (1, op.rhs)] {
            edges.push(Json::object([
                ("from", Json::from(operand_id(operand))),
                ("to", Json::from(op_ids[id.0].as_str())),
                ("port", Json::from(port)),
            ]));
        }
    }
    let mut out_names: Vec<String> = Vec::new();
    let outputs = Json::object(dfg.outputs().iter().map(|(name, op)| {
        (
            assign_id(&mut out_names, name),
            Json::from(op_ids[op.0].as_str()),
        )
    }));
    let mut graph_name: Vec<String> = Vec::new();
    Json::object([
        ("nodes", Json::array(nodes)),
        ("edges", Json::array(edges)),
        ("outputs", outputs),
        (
            "params",
            Json::object([("name", Json::from(assign_id(&mut graph_name, dfg.name())))]),
        ),
    ])
}

/// The canonical compact wire text for a graph — the content-addressed
/// normal form embedded in spec cache keys.
pub fn canonical_wire(dfg: &Dfg) -> String {
    dfg_to_wire(dfg).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    const AXPY: &str = r#"{
      "nodes": [
        {"id": "a", "op": "input"},
        {"id": "x", "op": "input"},
        {"id": "y", "op": "input"},
        {"id": "m", "op": "mul"},
        {"id": "s", "op": "add"}
      ],
      "edges": [
        {"from": "a", "to": "m"},
        {"from": "x", "to": "m"},
        {"from": "m", "to": "s", "port": 0},
        {"from": "y", "to": "s", "port": 1}
      ],
      "outputs": {"r": "s"},
      "params": {"name": "axpy"}
    }"#;

    #[test]
    fn parses_axpy_and_evaluates() {
        let dfg = parse_wire_dfg(AXPY).expect("axpy parses");
        assert_eq!(dfg.name(), "axpy");
        assert_eq!(dfg.num_ops(), 2);
        assert_eq!(dfg.num_inputs(), 3);
        let out = dfg.evaluate(&[2, 5, 7]);
        assert_eq!(out.get("r"), Some(&17));
    }

    #[test]
    fn unported_edges_fill_ports_in_order() {
        let dfg = parse_wire_dfg(
            r#"{"nodes":[{"id":"a","op":"input"},{"id":"b","op":"input"},
                {"id":"d","op":"sub"}],
               "edges":[{"from":"a","to":"d"},{"from":"b","to":"d"}],
               "outputs":{"o":"d"}}"#,
        )
        .expect("parses");
        // a - b, not b - a.
        assert_eq!(dfg.evaluate(&[10, 3]).get("o"), Some(&7));
    }

    #[test]
    fn both_operands_may_come_from_one_node() {
        let dfg = parse_wire_dfg(
            r#"{"nodes":[{"id":"x","op":"input"},{"id":"sq","op":"mul"}],
               "edges":[{"from":"x","to":"sq","port":0},{"from":"x","to":"sq","port":1}],
               "outputs":{"y":"sq"}}"#,
        )
        .expect("x*x parses");
        assert_eq!(dfg.evaluate(&[9]).get("y"), Some(&81));
    }

    fn wire_err(text: &str) -> WireError {
        parse_wire_dfg(text).expect_err("must be rejected")
    }

    #[test]
    fn rejections_carry_useful_offsets_and_messages() {
        let cases: [(&str, &str); 12] = [
            ("[1,2]", "top level must be an object"),
            (
                r#"{"nodes":[],"edges":[],"outputs":{}}"#,
                "'nodes' must not be empty",
            ),
            (
                r#"{"nodes":[{"id":"a","op":"input"}],"edges":[],"outputs":{},"zzz":1}"#,
                "unknown key 'zzz'",
            ),
            (
                r#"{"nodes":[{"id":"a","op":"input"},{"id":"a","op":"input"}],
                   "edges":[],"outputs":{}}"#,
                "duplicate node id 'a'",
            ),
            (
                r#"{"nodes":[{"id":"a","op":"warp"}],"edges":[],"outputs":{}}"#,
                "unknown op \"warp\"",
            ),
            (
                r#"{"nodes":[{"id":"k","op":"const"}],"edges":[],"outputs":{}}"#,
                "const nodes need a 'value'",
            ),
            (
                r#"{"nodes":[{"id":"a","op":"input"},{"id":"s","op":"add"}],
                   "edges":[{"from":"a","to":"s"},{"from":"ghost","to":"s"}],
                   "outputs":{"o":"s"}}"#,
                "unknown node 'ghost'",
            ),
            (
                r#"{"nodes":[{"id":"s","op":"add"}],
                   "edges":[{"from":"s","to":"s"}],"outputs":{"o":"s"}}"#,
                "self-edge on node 's'",
            ),
            (
                r#"{"nodes":[{"id":"a","op":"input"},{"id":"b","op":"input"}],
                   "edges":[{"from":"a","to":"b"}],"outputs":{}}"#,
                "is not an op node",
            ),
            (
                r#"{"nodes":[{"id":"a","op":"input"},{"id":"s","op":"add"}],
                   "edges":[{"from":"a","to":"s","port":0},{"from":"a","to":"s","port":0}],
                   "outputs":{"o":"s"}}"#,
                "port 0 of node 's' is driven twice",
            ),
            (
                r#"{"nodes":[{"id":"a","op":"input"},{"id":"s","op":"add"}],
                   "edges":[{"from":"a","to":"s"}],"outputs":{"o":"s"}}"#,
                "needs exactly 2 incoming edges, has 1",
            ),
            (
                r#"{"nodes":[{"id":"a","op":"input"},{"id":"s","op":"add"}],
                   "edges":[{"from":"a","to":"s"},{"from":"a","to":"s"}],
                   "outputs":{}}"#,
                "at least one output is required",
            ),
        ];
        for (text, needle) in cases {
            let e = wire_err(text);
            assert!(
                e.message.contains(needle),
                "expected {needle:?} in {:?} for {text}",
                e.message
            );
            assert!(e.offset <= text.len(), "offset {} out of range", e.offset);
            assert!(e.to_string().starts_with("byte "), "{e}");
        }
    }

    #[test]
    fn duplicate_id_offset_points_at_the_second_occurrence() {
        let text = r#"{"nodes":[{"id":"dup","op":"input"},{"id":"dup","op":"input"}],
                       "edges":[],"outputs":{}}"#;
        let e = wire_err(text);
        let first = text.find("\"dup\"").unwrap();
        assert!(
            e.offset > first,
            "offset {} not past first occurrence {first}",
            e.offset
        );
    }

    #[test]
    fn cycles_are_rejected_iteratively() {
        // a 2-cycle through forward references
        let e = wire_err(
            r#"{"nodes":[{"id":"p","op":"add"},{"id":"q","op":"add"}],
               "edges":[{"from":"p","to":"q"},{"from":"q","to":"p"},
                        {"from":"p","to":"q"},{"from":"q","to":"p"}],
               "outputs":{"o":"p"}}"#,
        );
        assert!(e.message.contains("cycle through node"), "{e}");
    }

    #[test]
    fn deep_chain_is_fine_and_does_not_overflow() {
        // A maximal-depth linear chain: n0 = a+a, n{i} = n{i-1}+a.
        let mut nodes = vec![r#"{"id":"a","op":"input"}"#.to_string()];
        let mut edges = Vec::new();
        let depth = MAX_WIRE_NODES - 1;
        for i in 0..depth {
            nodes.push(format!(r#"{{"id":"n{i}","op":"add"}}"#));
            let prev = if i == 0 {
                "a".to_string()
            } else {
                format!("n{}", i - 1)
            };
            edges.push(format!(r#"{{"from":"{prev}","to":"n{i}","port":0}}"#));
            edges.push(format!(r#"{{"from":"a","to":"n{i}","port":1}}"#));
        }
        let text = format!(
            r#"{{"nodes":[{}],"edges":[{}],"outputs":{{"o":"n{}"}}}}"#,
            nodes.join(","),
            edges.join(","),
            depth - 1
        );
        let dfg = parse_wire_dfg(&text).expect("deep chain parses");
        assert_eq!(dfg.num_ops(), depth);
    }

    #[test]
    fn canonical_rendering_is_a_fixed_point() {
        let dfg = parse_wire_dfg(AXPY).expect("axpy parses");
        let canon = canonical_wire(&dfg);
        let reparsed = parse_wire_dfg(&canon).expect("canonical form parses");
        assert_eq!(canonical_wire(&reparsed), canon);
        assert_eq!(reparsed.evaluate(&[2, 5, 7]).get("r"), Some(&17));
    }

    #[test]
    fn benchmarks_round_trip_through_the_wire_format() {
        for name in benchmarks::NAMES {
            let dfg = benchmarks::by_name(name).expect("benchmark exists");
            let canon = canonical_wire(&dfg);
            let reparsed = parse_wire_dfg(&canon)
                .unwrap_or_else(|e| panic!("{name} canonical form rejected: {e}"));
            assert_eq!(reparsed.num_ops(), dfg.num_ops(), "{name}");
            assert_eq!(reparsed.num_inputs(), dfg.num_inputs(), "{name}");
            let inputs: Vec<i64> = (0..dfg.num_inputs() as i64).map(|i| 3 * i + 1).collect();
            assert_eq!(
                reparsed.evaluate_all(&inputs),
                dfg.evaluate_all(&inputs),
                "{name} evaluation diverged through the wire format"
            );
            assert_eq!(canonical_wire(&reparsed), canon, "{name} not a fixed point");
        }
    }

    #[test]
    fn id_collisions_in_export_are_resolved_deterministically() {
        // An input literally named like an op id must not collide.
        let dfg = parse_wire_dfg(
            r#"{"nodes":[{"id":"n0","op":"input"},{"id":"add0","op":"add"}],
               "edges":[{"from":"n0","to":"add0"},{"from":"n0","to":"add0"}],
               "outputs":{"o":"add0"}}"#,
        )
        .expect("parses");
        let canon = canonical_wire(&dfg);
        let reparsed = parse_wire_dfg(&canon).expect("canonical form parses");
        assert_eq!(canonical_wire(&reparsed), canon);
    }
}
