//! A minimal, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so the workspace's
//! `harness = false` benches link against this subset instead: each
//! `bench_function` calibrates a batch size from one warm-up call, times
//! eleven batches, and prints the median wall-clock time per
//! iteration with its quartiles (linear interpolation between closest
//! ranks, the rule of the `benchmark/` package's `stats.rs`). No plots
//! or saved baselines — just enough to keep `cargo bench` meaningful and
//! `cargo build --benches` compiling.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::hint;
use std::time::{Duration, Instant};

/// Timed batches per benchmark.
const BATCHES: usize = 11;

/// What one batch aims to take; the batch size is calibrated from the
/// warm-up call.
const BATCH_TARGET: Duration = Duration::from_millis(20);

/// Opaque value barrier; defers to [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// The `p`-quantile (0..=1) of `sorted` by linear interpolation
/// between closest ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Times closures registered through [`Criterion::bench_function`].
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Applies command-line configuration (accepted and ignored).
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Runs and reports one named benchmark: median time per iteration
    /// over the batches, then the first and third quartile.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            per_iter: Vec::new(),
            iters: 0,
        };
        f(&mut b);
        let mut sorted = b.per_iter;
        if sorted.is_empty() {
            println!("{id:<48} (routine never ran)");
            return self;
        }
        sorted.sort_by(|x, y| x.partial_cmp(y).expect("timings are never NaN"));
        let at = |p| Duration::from_secs_f64(quantile(&sorted, p));
        println!(
            "{id:<48} {:>12.2?}/iter [{:.2?}, {:.2?}] ({} batches of {} iters)",
            at(0.5),
            at(0.25),
            at(0.75),
            sorted.len(),
            b.iters
        );
        self
    }
}

/// Passed to benchmark closures; times the hot loop.
#[derive(Debug)]
pub struct Bencher {
    /// Seconds per iteration, one entry per batch.
    per_iter: Vec<f64>,
    iters: u64,
}

impl Bencher {
    /// Times repeated calls of `routine`: one warm-up call sizes the
    /// batches, then `BATCHES` batches of that many calls each.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(50));
        let iters = (BATCH_TARGET.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
        self.per_iter = (0..BATCHES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                start.elapsed().as_secs_f64() / iters as f64
            })
            .collect();
        self.iters = iters;
    }
}

/// Registers benchmark group functions (compatible subset).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Emits `main` running the registered groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let sorted = [1.0, 2.0, 3.0];
        let q = |p| quantile(&sorted, p);
        assert_eq!((q(0.25), q(0.5), q(0.75)), (1.5, 2.0, 2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[5.0], 0.75), 5.0);
    }
}
