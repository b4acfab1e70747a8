#!/bin/sh
# Regenerates every table/figure artifact in results/ (used by
# EXPERIMENTS.md and the golden-file snapshot tests in tests/golden.rs).
# The Monte-Carlo artifacts are produced by the deterministic batch engine,
# so the output is byte-identical regardless of the machine's core count.
set -e
cd "$(dirname "$0")"
mkdir -p results
cargo run -p tauhls-bench --release --bin table1 > results/table1.txt
mv -f table1.json results/
cargo run -p tauhls-bench --release --bin table2 -- 6000 2003 > results/table2.txt
mv -f table2.json results/
cargo run -p tauhls-bench --release --bin kernel_golden
mv -f kernel_golden.json results/
cargo run -p tauhls-bench --release --bin synth_golden
mv -f synth_golden.json results/
cargo run -p tauhls-bench --release --bin resilience_golden
mv -f resilience_golden.json results/
for f in fig1_tau fig2_taubm fig3_scheduling fig4_explosion fig6_dfsm fig7_distributed fig_sweeps fig_pipeline; do
  cargo run -p tauhls-bench --release --bin $f > results/$f.txt
done
cargo run -p tauhls-bench --release --bin fig_utilization -- 0.6 3000 > results/fig_utilization.txt
echo "results/ regenerated"
