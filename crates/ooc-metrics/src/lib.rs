//! # ooc-metrics
//!
//! The durable-metrics layer that sits beside `ooc-trace`: where a
//! trace answers *what happened when* inside one run, this crate
//! answers *how much* — and makes the answer survive the run as a
//! machine-readable artifact that later runs can be compared against.
//!
//! * [`registry`] — a per-run [`Registry`] of typed metrics: monotone
//!   [`Value::Counter`]s, point-in-time [`Value::Gauge`]s, and
//!   [`Histogram`]s over power-of-two buckets (the same log2 bucket
//!   scheme the runtime's `MeasuredIo` run-length histogram uses).
//! * [`snapshot`] — a sorted, schema-versioned [`Snapshot`] of a
//!   registry, with JSON exposition (via the workspace's
//!   dependency-free `ooc_trace::json` layer), a strict parser, and a
//!   structural schema validator for CI gates.
//! * [`prometheus`] — Prometheus text exposition of a snapshot, so a
//!   run's metrics can be scraped or pushed without extra tooling.
//! * [`diff`] — snapshot diffing with per-metric policies: exact-match
//!   hard failures on deterministic counters and histograms, relative
//!   thresholds (warn-only) on wall-clock-like gauges. The
//!   `bench-compare` binary is a thin wrapper over [`diff::diff_snapshots`].
//!
//! The paper's whole argument is quantitative (bytes moved, I/O calls,
//! seek shape); this crate is how the repo keeps that argument honest
//! from one commit to the next.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod prometheus;
pub mod registry;
pub mod snapshot;

pub use diff::{diff_snapshots, DiffEntry, DiffPolicy, DiffReport, Verdict};
pub use prometheus::prometheus_text;
pub use registry::{Histogram, Key, Registry, Value};
pub use snapshot::{validate_snapshot_json, Snapshot};

/// Number of log2 histogram buckets. Bucket `i` counts observations in
/// `2^i ..= 2^(i+1)-1`; the last bucket absorbs the overflow. This is
/// the bucket scheme of the runtime's run-length histogram
/// (`ooc_runtime::MeasuredIo`), hoisted here so every layer shares it.
pub const LOG2_BUCKETS: usize = 24;

/// The log2 bucket of an observation (`0` maps to bucket 0).
#[must_use]
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    ((63 - u64::leading_zeros(v)) as usize).min(LOG2_BUCKETS - 1)
}

/// Inclusive `(lo, hi)` observation range of bucket `i`. The last
/// bucket's upper bound is `u64::MAX` (it absorbs the overflow).
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < LOG2_BUCKETS, "bucket {i} out of range");
    let lo = if i == 0 { 0 } else { 1u64 << i };
    let hi = if i == LOG2_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    };
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_matches_runtime_histogram() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(8), 3);
        assert_eq!(log2_bucket(u64::MAX), LOG2_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_and_partition() {
        assert_eq!(bucket_bounds(0), (0, 1));
        assert_eq!(bucket_bounds(1), (2, 3));
        assert_eq!(bucket_bounds(3), (8, 15));
        assert_eq!(bucket_bounds(LOG2_BUCKETS - 1).1, u64::MAX);
        // Every bucket's bounds round-trip through log2_bucket.
        for i in 0..LOG2_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(log2_bucket(lo), i);
            assert_eq!(log2_bucket(hi), i);
        }
        // Adjacent buckets tile the u64 range.
        for i in 0..LOG2_BUCKETS - 1 {
            assert_eq!(bucket_bounds(i).1 + 1, bucket_bounds(i + 1).0);
        }
    }
}
