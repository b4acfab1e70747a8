//! Minimal std-only micro-benchmark harness (offline stand-in for
//! criterion), shared by the `benches/` targets.
//!
//! Usage inside a `harness = false` bench target:
//!
//! ```no_run
//! use tauhls_bench::{black_box, Bench};
//!
//! fn main() {
//!     let bench = Bench::from_args();
//!     bench.run("group/function", || {
//!         black_box(2u64.pow(20));
//!     });
//! }
//! ```
//!
//! `cargo bench -p tauhls-bench` runs every target; an optional positional
//! argument (as criterion accepted) filters benchmark names by substring.
//! Each benchmark is auto-calibrated to a fixed batch duration, sampled
//! several times, and reported as `min / median` nanoseconds per
//! iteration. The harness favours robustness over rigor: it is meant to
//! catch order-of-magnitude regressions, not single-percent drifts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock duration of one measured batch.
const BATCH_TARGET: Duration = Duration::from_millis(10);

/// Benchmark runner configured from the command line.
#[derive(Clone, Debug)]
pub struct Bench {
    filter: Option<String>,
    samples: usize,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            filter: None,
            samples: 7,
        }
    }
}

impl Bench {
    /// Builds a runner from `std::env::args`: the first non-flag argument
    /// becomes a substring filter on benchmark names (flags that cargo's
    /// bench protocol forwards, like `--bench`, are ignored).
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Bench {
            filter,
            ..Bench::default()
        }
    }

    /// Overrides the number of measured batches per benchmark.
    pub fn sample_size(mut self, samples: usize) -> Self {
        assert!(samples > 0);
        self.samples = samples;
        self
    }

    /// Times `f`, printing `min / median` ns-per-iteration, unless the
    /// name does not match the filter.
    pub fn run(&self, name: &str, mut f: impl FnMut()) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        // Calibrate: grow the iteration count until one batch reaches the
        // target duration (also serves as warm-up).
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let took = start.elapsed();
            if took >= BATCH_TARGET || iters >= 1 << 24 {
                break;
            }
            iters = if took.is_zero() {
                iters * 16
            } else {
                (iters * 2)
                    .max((iters as u128 * BATCH_TARGET.as_nanos() / took.as_nanos().max(1)) as u64)
            };
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    f();
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        println!(
            "{name:<44} {:>12} / {:>12}  ({iters} iters x {} samples)",
            format_ns(min),
            format_ns(median),
            self.samples
        );
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_filters() {
        let mut calls = 0u32;
        Bench {
            filter: Some("match".into()),
            samples: 1,
        }
        .run("no", || calls += 1);
        assert_eq!(calls, 0);
        Bench {
            filter: Some("yes".into()),
            samples: 1,
        }
        .run("yes/really", || calls += 1);
        assert!(calls > 0);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(12.0), "12 ns");
        assert_eq!(format_ns(4_500.0), "4.50 µs");
        assert_eq!(format_ns(7_000_000.0), "7.00 ms");
        assert_eq!(format_ns(2_100_000_000.0), "2.10 s");
    }
}
