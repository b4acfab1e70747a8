//! Regenerates `resilience_golden.json`: the resilience corpus (every
//! paper benchmark's fault-injection sweep under three leg selections).
//! `tests/golden.rs` byte-compares the checked-in copy against the
//! current sweep, so any drift in fault classification shows up as a
//! diff.

use tauhls_core::conformance::resilience_conformance;
use tauhls_sim::BatchRunner;

fn main() {
    let rendered = resilience_conformance(&BatchRunner::available()).to_pretty();
    std::fs::write("resilience_golden.json", &rendered).expect("write resilience_golden.json");
    let entries = rendered.matches("\"options\"").count();
    println!("resilience_golden.json: {entries} corpus entries");
}
