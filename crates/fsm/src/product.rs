//! Synchronous product composition — the CENT-FSM style of Fig 4(a).
//!
//! A centralized controller that tracks every TAU's completion
//! independently is, semantically, the synchronous product of the per-unit
//! controllers with the inter-controller completion signals internalized.
//! Building it explicitly exhibits the paper's point: the reachable state
//! count grows exponentially with the number of concurrently active TAUs,
//! while the distributed realization keeps the components separate.

use crate::machine::{Fsm, StateId};
use crate::minimize::minterms_to_expr;
use std::collections::HashMap;

/// Maximum number of external inputs a product may enumerate (2^k input
/// minterms per composite state).
const MAX_EXTERNAL_INPUTS: usize = 16;

/// Builds the reachable synchronous product of `components`.
///
/// Signals are wired **by name**: an input of one component that matches an
/// output name of another becomes an internal wire and disappears from the
/// product interface. Internal wires are resolved per cycle by fixpoint
/// iteration (completion outputs of Algorithm-1 controllers depend only on
/// their own state and external inputs, so the fixpoint converges in two
/// rounds; a cyclic combinational dependence panics).
///
/// # Panics
///
/// Panics if `components` is empty, if the external input count exceeds 16,
/// or if the internal-signal fixpoint fails to converge (combinational
/// loop).
pub fn synchronous_product(name: &str, components: &[&Fsm]) -> Fsm {
    assert!(!components.is_empty(), "product of nothing");
    // Classify signals.
    let mut produced: HashMap<&str, (usize, usize)> = HashMap::new(); // name -> (component, output idx)
    for (ci, f) in components.iter().enumerate() {
        for (oi, out) in f.outputs().iter().enumerate() {
            let prev = produced.insert(out.as_str(), (ci, oi));
            assert!(prev.is_none(), "output {out} produced by two components");
        }
    }
    let mut external_inputs: Vec<String> = Vec::new();
    for f in components {
        for inp in f.inputs() {
            if !produced.contains_key(inp.as_str()) && !external_inputs.iter().any(|e| e == inp) {
                external_inputs.push(inp.clone());
            }
        }
    }
    assert!(
        external_inputs.len() <= MAX_EXTERNAL_INPUTS,
        "too many external inputs to enumerate"
    );

    let mut product = Fsm::new(name.to_string());
    let ext_idx: Vec<usize> = external_inputs
        .iter()
        .map(|n| product.add_input(n.clone()))
        .collect();
    // External outputs: everything not consumed internally.
    let consumed: Vec<String> = components
        .iter()
        .flat_map(|f| f.inputs().iter().cloned())
        .collect();
    let mut out_idx: HashMap<String, usize> = HashMap::new();
    for f in components {
        for out in f.outputs() {
            if !consumed.iter().any(|c| c == out) {
                let idx = product.add_output(out.clone());
                out_idx.insert(out.clone(), idx);
            }
        }
    }

    // BFS over reachable composite states.
    let initial: Vec<StateId> = components.iter().map(|f| f.initial()).collect();
    let mut ids: HashMap<Vec<StateId>, StateId> = HashMap::new();
    let tuple_name = |t: &[StateId]| {
        components
            .iter()
            .zip(t)
            .map(|(f, &s)| f.state_name(s))
            .collect::<Vec<_>>()
            .join(".")
    };
    let init_id = product.add_state(tuple_name(&initial));
    ids.insert(initial.clone(), init_id);
    let mut queue = vec![initial];

    while let Some(tuple) = queue.pop() {
        let from_id = ids[&tuple];
        // Collect transitions per (next tuple, output set) to merge guards.
        let mut buckets: HashMap<(Vec<StateId>, Vec<usize>), Vec<u64>> = HashMap::new();
        for minterm in 0..1u64 << external_inputs.len() {
            let (next, outs) = step_product(components, &tuple, &external_inputs, minterm);
            let mut ext_outs: Vec<usize> = outs
                .iter()
                .filter_map(|n| out_idx.get(n.as_str()).copied())
                .collect();
            ext_outs.sort_unstable();
            ext_outs.dedup();
            buckets.entry((next, ext_outs)).or_default().push(minterm);
        }
        let mut entries: Vec<_> = buckets.into_iter().collect();
        entries.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0 .1.cmp(&b.0 .1)));
        for ((next, outs), minterms) in entries {
            let to_id = *ids.entry(next.clone()).or_insert_with(|| {
                queue.push(next.clone());
                product.add_state(tuple_name(&next))
            });
            let guard = minterms_to_expr(&minterms, &ext_idx, ext_idx.len());
            product.add_transition(from_id, to_id, guard, outs);
        }
    }
    product
}

/// One synchronous step of the composition under an external input minterm,
/// returning the next component states and the names of all asserted
/// outputs.
pub(crate) fn step_product(
    components: &[&Fsm],
    tuple: &[StateId],
    external_inputs: &[String],
    minterm: u64,
) -> (Vec<StateId>, Vec<String>) {
    // Fixpoint over internal signal values.
    let mut internal: HashMap<String, bool> = HashMap::new();
    let max_iter = components.len() + 2;
    let mut last: Option<(Vec<StateId>, Vec<String>)> = None;
    for _ in 0..max_iter {
        let mut next_states = Vec::with_capacity(components.len());
        let mut asserted: Vec<String> = Vec::new();
        for (f, &st) in components.iter().zip(tuple) {
            let (nx, outs) = f.step(st, |v| {
                let name = &f.inputs()[v];
                if let Some(pos) = external_inputs.iter().position(|e| e == name) {
                    minterm >> pos & 1 == 1
                } else {
                    internal.get(name.as_str()).copied().unwrap_or(false)
                }
            });
            next_states.push(nx);
            for o in outs {
                asserted.push(f.outputs()[o].clone());
            }
        }
        let new_internal: HashMap<String, bool> =
            asserted.iter().map(|n| (n.clone(), true)).collect();
        let stable = new_internal
            .keys()
            .all(|k| internal.get(k).copied().unwrap_or(false))
            && internal
                .iter()
                .all(|(k, &v)| !v || new_internal.contains_key(k));
        internal = new_internal;
        let result = (next_states, asserted);
        if stable {
            return result;
        }
        last = Some(result);
    }
    // One extra settling check: if the last two iterations agreed we are
    // fine; otherwise the combinational wiring oscillates.
    last.expect("at least one iteration ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::unit_controller;
    use tauhls_dfg::{DfgBuilder, OpId};
    use tauhls_sched::{Allocation, BoundDfg, UnitId};

    /// n independent single-multiplication "units": the Fig 4(a) set-up.
    fn independent_taus(n: usize) -> (BoundDfg, Vec<Fsm>) {
        let mut b = DfgBuilder::new(format!("ind{n}"));
        let x = b.input("x");
        let mut ids = Vec::new();
        for i in 0..n {
            let m = b.mul(x.into(), x.into());
            b.output(format!("y{i}"), m);
            ids.push(m);
        }
        let g = b.build().unwrap();
        let alloc = Allocation::paper(n, 0, 0);
        let bound = BoundDfg::bind_explicit(&g, &alloc, ids.into_iter().map(|i| vec![i]).collect())
            .unwrap();
        let fsms: Vec<Fsm> = (0..n).map(|u| unit_controller(&bound, UnitId(u))).collect();
        (bound, fsms)
    }

    #[test]
    fn fig4a_two_taus_have_four_states_and_four_way_branching() {
        let (_, fsms) = independent_taus(2);
        let refs: Vec<&Fsm> = fsms.iter().collect();
        let p = synchronous_product("CENT", &refs);
        p.check().unwrap();
        // Component state spaces are {S, S'} each: product = 4 states.
        assert_eq!(p.num_states(), 4);
        // From (S0,S1) there are 2^2 = 4 distinct input behaviours.
        let init = p.initial();
        assert_eq!(p.transitions_from(init).len(), 4);
    }

    #[test]
    fn product_states_grow_exponentially() {
        let mut prev = 0;
        for n in 1..=4 {
            let (_, fsms) = independent_taus(n);
            let refs: Vec<&Fsm> = fsms.iter().collect();
            let p = synchronous_product("CENT", &refs);
            assert_eq!(p.num_states(), 1 << n, "n={n}");
            assert!(p.num_states() > prev);
            prev = p.num_states();
        }
    }

    #[test]
    fn product_internalizes_completion_signals() {
        // Two chained ops on different units: the C_CO wire disappears.
        let mut b = DfgBuilder::new("chain");
        let x = b.input("x");
        let m = b.mul(x.into(), x.into());
        let a = b.add(m.into(), x.into());
        b.output("y", a);
        let g = b.build().unwrap();
        let bound = BoundDfg::bind(&g, &Allocation::paper(1, 1, 0));
        let f0 = unit_controller(&bound, UnitId(0));
        let f1 = unit_controller(&bound, UnitId(1));
        let p = synchronous_product("CENT", &[&f0, &f1]);
        p.check().unwrap();
        assert!(p.input_by_name("C_M1").is_some());
        assert!(p.input_by_name(&format!("C_CO({})", m.0)).is_none());
        // OF/RE outputs survive.
        assert!(p.output_by_name(&format!("OF{}", a.0)).is_some());
    }

    #[test]
    fn product_behaviour_matches_components() {
        // Drive the chain product and check the dependent add only fires
        // after the multiplication completes.
        let mut b = DfgBuilder::new("chain");
        let x = b.input("x");
        let m = b.mul(x.into(), x.into());
        let a = b.add(m.into(), x.into());
        b.output("y", a);
        let g = b.build().unwrap();
        let bound = BoundDfg::bind(&g, &Allocation::paper(1, 1, 0));
        let f0 = unit_controller(&bound, UnitId(0));
        let f1 = unit_controller(&bound, UnitId(1));
        let p = synchronous_product("CENT", &[&f0, &f1]);
        let re_a = p.output_by_name(&format!("RE{}", a.0)).unwrap();
        let re_m = p.output_by_name(&format!("RE{}", m.0)).unwrap();

        // Cycle 1: C_M1 low -> mult extends; adder must not latch.
        let (s1, outs) = p.step(p.initial(), |_| false);
        assert!(!outs.contains(&re_a));
        assert!(!outs.contains(&re_m));
        // Cycle 2: extension completes the mult; adder sees C_CO same
        // cycle it is asserted? The adder waits in R until C_CO(m) -> the
        // completion propagates combinationally, so the adder leaves R now.
        let (s2, outs) = p.step(s1, |_| false);
        assert!(outs.contains(&re_m));
        // Cycle 3: adder executes and latches.
        let (_, outs) = p.step(s2, |_| false);
        assert!(outs.contains(&re_a));
    }

    #[test]
    fn product_machine_matches_component_semantics() {
        // fir3 on 2 multipliers + 1 adder keeps the product small enough
        // to build; it has at least as many states as any component, and
        // its initial state is the dot-joined tuple of the component
        // initials, the composite state CENT diagnostics print.
        use crate::distributed::DistributedControlUnit;
        use tauhls_dfg::benchmarks::fir3;
        let bound = BoundDfg::bind(&fir3(), &Allocation::paper(2, 1, 0));
        let cu = DistributedControlUnit::generate(&bound);
        let components: Vec<&Fsm> = cu.controllers().iter().map(|(_, f)| f).collect();
        let product = synchronous_product("CENT", &components);
        assert_eq!(product.name(), "CENT");
        let max_component = components.iter().map(|f| f.num_states()).max();
        assert!(product.num_states() >= max_component.expect("controllers"));
        let initials: Vec<&str> = components
            .iter()
            .map(|f| f.state_name(f.initial()))
            .collect();
        assert_eq!(product.state_name(product.initial()), initials.join("."));
    }

    #[test]
    fn fig3_cent_fsm_builds_and_checks() {
        use tauhls_dfg::benchmarks::fig3_dfg;
        let bound = BoundDfg::bind_explicit(
            &fig3_dfg(),
            &Allocation::paper(2, 2, 0),
            vec![
                vec![OpId(0), OpId(1)],
                vec![OpId(6), OpId(4), OpId(8)],
                vec![OpId(3), OpId(2)],
                vec![OpId(7), OpId(5)],
            ],
        )
        .unwrap();
        let fsms: Vec<Fsm> = (0..4).map(|u| unit_controller(&bound, UnitId(u))).collect();
        let refs: Vec<&Fsm> = fsms.iter().collect();
        let p = synchronous_product("CENT(fig3)", &refs);
        p.check().unwrap();
        // Far fewer than the 5*7*3*3 = 315 raw combinations are reachable,
        // but well more than the 7 CENT-SYNC states.
        assert!(p.num_states() > 7, "{}", p.num_states());
        assert!(p.num_states() < 100, "{}", p.num_states());
        assert_eq!(p.inputs().len(), 2); // C_M1, C_M2 only
    }
}
