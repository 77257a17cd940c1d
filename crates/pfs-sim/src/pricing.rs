//! Pricing an observed call sequence under the disk cost model.
//!
//! The profiler (`ooc-runtime`'s `ProfilingStore`) records what calls
//! a store actually received; this module answers *what that trace
//! would cost* on the simulated disk: each call is charged
//! [`DiskParams::call_overhead_s`] plus its transfer time at
//! [`DiskParams::bandwidth_bps`] (with the
//! [`DiskParams::min_transfer_bytes`] floor), calls run back-to-back,
//! and the result is a simulated-time [`PricedTimeline`] that can be
//! rendered as an ASCII strip showing where time goes — seek-heavy
//! traces are overhead-dominated (`o`), streaming traces are
//! transfer-dominated (`=`).

use crate::config::DiskParams;

/// One call of a priced trace, placed on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricedCall {
    /// Element offset of the call (carried through for rendering).
    pub offset: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Write (`true`) or read (`false`).
    pub write: bool,
    /// Simulated start time, seconds from trace start.
    pub start_s: f64,
    /// Simulated end time, seconds.
    pub end_s: f64,
    /// The fixed per-call overhead portion of the duration, seconds.
    pub overhead_s: f64,
}

impl PricedCall {
    /// Call duration in seconds.
    #[must_use]
    fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// `true` when the fixed overhead exceeds the transfer time — the
    /// signature of a fragmented, call-bound access pattern.
    #[must_use]
    fn overhead_bound(&self) -> bool {
        self.overhead_s >= self.duration_s() - self.overhead_s
    }
}

/// A call trace priced on the simulated disk clock.
#[derive(Debug, Clone, Default)]
pub struct PricedTimeline {
    /// Every call, in order, with simulated start/end times.
    pub calls: Vec<PricedCall>,
    /// Total simulated time, seconds.
    pub total_s: f64,
    /// Time spent in fixed per-call overhead, seconds.
    pub overhead_s: f64,
    /// Time spent moving bytes, seconds.
    pub transfer_s: f64,
}

impl PricedTimeline {
    /// Fraction of simulated time lost to per-call overhead (0 when
    /// the trace is empty).
    #[must_use]
    pub fn overhead_frac(&self) -> f64 {
        if self.total_s <= 0.0 {
            0.0
        } else {
            self.overhead_s / self.total_s
        }
    }
}

/// Prices a `(offset_elems, bytes, is_write)` call sequence under
/// `disk`: every call costs the fixed overhead plus its (floored)
/// transfer time, run back-to-back on one simulated disk.
#[must_use]
pub fn price_sequence<I>(calls: I, disk: &DiskParams) -> PricedTimeline
where
    I: IntoIterator<Item = (u64, u64, bool)>,
{
    let mut timeline = PricedTimeline::default();
    let mut clock = 0.0f64;
    for (offset, bytes, write) in calls {
        let transfer = bytes.max(disk.min_transfer_bytes) as f64 / disk.bandwidth_bps;
        let start = clock;
        clock += disk.call_overhead_s + transfer;
        timeline.overhead_s += disk.call_overhead_s;
        timeline.transfer_s += transfer;
        timeline.calls.push(PricedCall {
            offset,
            bytes,
            write,
            start_s: start,
            end_s: clock,
            overhead_s: disk.call_overhead_s,
        });
    }
    timeline.total_s = clock;
    timeline
}

/// Renders a priced timeline as one ASCII strip of `width` characters:
/// each column covers an equal slice of simulated time and shows `o`
/// when the call active there is overhead-bound, `=` when it is
/// transfer-bound. A glance distinguishes call-bound fragmented I/O
/// (`oooo…`) from streaming I/O (`====…`).
#[must_use]
pub fn render_timeline(timeline: &PricedTimeline, width: usize) -> String {
    if width == 0 || timeline.total_s <= 0.0 || timeline.calls.is_empty() {
        return String::new();
    }
    let mut out = String::with_capacity(width);
    let mut call_idx = 0usize;
    for col in 0..width {
        // Time at the column's midpoint.
        let t = (col as f64 + 0.5) / width as f64 * timeline.total_s;
        while call_idx + 1 < timeline.calls.len() && timeline.calls[call_idx].end_s < t {
            call_idx += 1;
        }
        out.push(if timeline.calls[call_idx].overhead_bound() {
            'o'
        } else {
            '='
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskParams {
        DiskParams::default()
    }

    #[test]
    fn prices_overhead_plus_transfer() {
        let d = disk();
        // One big sequential call: 1.5 MB at 1.5 MB/s = 1 s + 3 ms.
        let t = price_sequence([(0u64, 1_500_000u64, false)], &d);
        assert_eq!(t.calls.len(), 1);
        assert!((t.total_s - (d.call_overhead_s + 1.0)).abs() < 1e-9);
        assert!((t.overhead_s - d.call_overhead_s).abs() < 1e-12);
        assert!(!t.calls[0].overhead_bound());
        assert!(t.overhead_frac() < 0.01);
    }

    #[test]
    fn min_transfer_floor_applies() {
        let d = disk();
        // 8-byte call is floored to min_transfer_bytes.
        let t = price_sequence([(0u64, 8u64, true)], &d);
        let expect = d.call_overhead_s + d.min_transfer_bytes as f64 / d.bandwidth_bps;
        assert!((t.total_s - expect).abs() < 1e-12);
        assert!(t.calls[0].overhead_bound());
    }

    #[test]
    fn calls_run_back_to_back() {
        let d = disk();
        let t = price_sequence([(0, 1024, false), (128, 1024, false)], &d);
        assert_eq!(t.calls.len(), 2);
        assert!((t.calls[1].start_s - t.calls[0].end_s).abs() < 1e-12);
        assert!((t.total_s - t.calls[1].end_s).abs() < 1e-12);
        assert!((t.overhead_s + t.transfer_s - t.total_s).abs() < 1e-9);
    }

    #[test]
    fn timeline_render_distinguishes_regimes() {
        let d = disk();
        // Many tiny calls then one large streaming call of equal total
        // time share.
        let mut calls: Vec<(u64, u64, bool)> = (0..100).map(|i| (i * 8, 8u64, false)).collect();
        calls.push((0, 6_000_000, false));
        let t = price_sequence(calls, &d);
        let strip = render_timeline(&t, 40);
        assert_eq!(strip.len(), 40);
        assert!(strip.contains('o'), "{strip:?}");
        assert!(strip.contains('='), "{strip:?}");
        // Overhead-bound prefix precedes the streaming suffix.
        assert!(strip.find('o').expect("o") < strip.find('=').expect("="));
        assert_eq!(render_timeline(&PricedTimeline::default(), 40), "");
    }
}
