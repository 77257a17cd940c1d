//! A minimal, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so the workspace's
//! `harness = false` benches link against this subset instead: each
//! `bench_function` runs a short warmup, then times a fixed batch and
//! prints mean wall-clock time per iteration. No statistics, plots, or
//! saved baselines — just enough to keep `cargo bench` meaningful and
//! `cargo build --benches` compiling.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::hint;
use std::time::{Duration, Instant};

/// Opaque value barrier; defers to [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
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

    /// Runs and reports one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        let per_iter = if b.iters == 0 {
            Duration::ZERO
        } else {
            b.elapsed / u32::try_from(b.iters.min(u64::from(u32::MAX))).unwrap_or(u32::MAX)
        };
        println!("{id:<48} {per_iter:>12.2?}/iter ({} iters)", b.iters);
        self
    }
}

/// Passed to benchmark closures; times the hot loop.
#[derive(Debug)]
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warmup and calibration: aim for ~0.2 s of measurement.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(50));
        let target = Duration::from_millis(200);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
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
