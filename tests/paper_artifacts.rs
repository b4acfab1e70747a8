//! Regression tests for the paper's worked examples (figures) and
//! headline table shapes: changes to any pipeline stage that would break
//! the reproduction are caught here.

use tauhls::core::experiments::{fig4_explosion, table1, table2};
use tauhls::core::figures;
use tauhls::fsm::Encoding;
use tauhls::logic::AreaModel;
use tauhls::sim::BatchRunner;

#[test]
fn fig_reports_regenerate() {
    let f1 = figures::fig1_report();
    assert!(f1.contains("telescopic arithmetic unit"));
    assert!(f1.contains("completion signal generator"));

    let f2 = figures::fig2_report();
    assert!(f2.contains("best 4 cycles, worst 6 cycles"));
    assert!(f2.contains("TAUBM FSM"));

    let f3 = figures::fig3_report();
    assert!(f3.contains("minimum clique cover"));
    assert!(f3.contains("3 TAU multipliers required"));

    let f6 = figures::fig6_report();
    assert!(f6.contains("D-FSM-M1"));
    assert!(f6.contains("5 states"));
    assert!(f6.contains("10 transitions"));

    let f7 = figures::fig7_report();
    assert!(f7.contains("CONT_M2"));
    assert!(f7.contains("C_CO("));
}

#[test]
fn table1_reproduces_paper_ordering() {
    let t = table1(Encoding::Binary, &AreaModel::default());
    let total = |name: &str| {
        let r = t.rows.iter().find(|r| r.name == name).unwrap();
        r.area_combinational + r.area_sequential
    };
    // The paper's qualitative ordering:
    //   CENT-SYNC < DIST < CENT (total area),
    // with DIST ~3x CENT-SYNC and CENT ~1.6x DIST in the paper.
    let sync = total("CENT-SYNC-FSM");
    let dist = total("DIST-FSM");
    let cent = total("CENT-FSM");
    assert!(sync < dist, "sync {sync} dist {dist}");
    assert!(dist < cent, "dist {dist} cent {cent}");
    let ratio_dist_sync = dist / sync;
    let ratio_cent_dist = cent / dist;
    assert!(
        (1.3..8.0).contains(&ratio_dist_sync),
        "DIST/SYNC ratio {ratio_dist_sync}"
    );
    assert!(
        (1.05..6.0).contains(&ratio_cent_dist),
        "CENT/DIST ratio {ratio_cent_dist}"
    );
    // The paper's per-controller flip-flop counts: D-FSM-M1/M2 have 3 FFs,
    // the adder controller 2 (paper lists 2-3 FFs per component).
    for r in &t.rows {
        if r.name.starts_with("D-FSM") {
            assert!(
                (1..=4).contains(&r.flip_flops),
                "{}: {} FFs",
                r.name,
                r.flip_flops
            );
        }
    }
    // Exact matches against the paper's legible Table 1 cells
    // (sequential area at 22 GE per flip-flop):
    let exact = |name: &str, ffs: usize, seq: f64| {
        let r = t.rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!(r.flip_flops, ffs, "{name} FFs");
        assert_eq!(r.area_sequential, seq, "{name} sequential area");
    };
    exact("CENT-FSM", 5, 110.0); // paper: 110
    exact("CENT-SYNC-FSM", 3, 66.0); // paper: 66
    exact("D-FSM-M1", 3, 66.0); // paper: 66
    exact("D-FSM-M2", 3, 66.0); // paper: 66
    exact("D-FSM-A1", 2, 44.0); // paper: 44
}

#[test]
fn table2_reproduces_paper_shape() {
    let t = table2(600, 7, &BatchRunner::available()).expect("fault-free table2");
    // Best/worst columns in ns are exact, deterministic reproductions.
    let by_name = |n: &str| t.rows.iter().find(|r| r.name == n).unwrap();
    // Legs in SIMULATE_LEGS order: LT_TAU, then LT_DIST.
    let tau = |n: &str| &by_name(n).legs[0];
    let dist = |n: &str| &by_name(n).legs[1];
    assert_eq!(tau("fir3").best_ns, 45.0);
    assert_eq!(tau("fir3").worst_ns, 75.0);
    assert_eq!(dist("fir3").best_ns, 45.0);
    assert_eq!(tau("fir5").best_ns, 75.0);
    // Paper prints 105 ns here, but with 5 multiplications on 2 TAUs the
    // schedule necessarily has 3 multiply steps, each extendable by one
    // fast cycle: worst = 75 + 3*15 = 120 ns. Our value is the
    // self-consistent one (see EXPERIMENTS.md).
    assert_eq!(tau("fir5").worst_ns, 120.0);
    assert_eq!(dist("fir5").worst_ns, 105.0);
    assert_eq!(tau("diffeq").best_ns, 60.0);
    assert_eq!(tau("diffeq").worst_ns, 105.0);
    // Enhancement grows with shrinking P for the multi-TAU benchmarks.
    for r in &t.rows {
        if r.name != "fir3" && r.name != "diffeq" {
            assert!(
                r.enhancement[2] + 0.7 >= r.enhancement[0],
                "{}: {:?}",
                r.name,
                r.enhancement
            );
        }
        // Everything is nonnegative (coupled draws).
        for e in &r.enhancement {
            assert!(*e >= 0.0, "{}: {e}", r.name);
        }
    }
    // FIR5 and IIR2 have the same structure in the paper (identical
    // LT_DIST cells); ours agree on best/worst.
    assert_eq!(dist("fir5").best_ns, dist("iir2").best_ns);
    assert_eq!(dist("fir5").worst_ns, dist("iir2").worst_ns);
}

#[test]
fn fig4_sweep_shapes() {
    let pts = fig4_explosion(6);
    // Exponential centralized growth, linear distributed growth, constant
    // synchronized size.
    for w in pts.windows(2) {
        assert_eq!(w[1].cent_states, 2 * w[0].cent_states);
        assert_eq!(w[1].dist_states - w[0].dist_states, 2);
        assert_eq!(w[1].sync_states, w[0].sync_states);
    }
}
