//! Critical-path extraction over the reconstructed timeline.
//!
//! The critical path is the heaviest chain of pairwise
//! non-overlapping, non-idle segments across all lanes — a weighted
//! interval scheduling maximum, found by the classic sort-by-end DP.
//! Because chain members cannot overlap in time, the chain's total
//! duration is **at most the wall-clock** by construction. It is a
//! conservative over-approximation of the true causal DAG path (it
//! may chain segments with no happens-before edge), which is exactly
//! the right direction for a bound: the real critical path cannot be
//! longer than what we report.

use crate::blame::{Blame, Waterfall};
use crate::timeline::Timeline;
use std::fmt::Write as _;

/// One segment on the extracted chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// Lane the segment lives on.
    pub lane: String,
    /// Span name that owned the segment.
    pub name: String,
    /// Blame category of the segment.
    pub cat: Blame,
    /// Start, microseconds relative to the run window.
    pub start_us: u64,
    /// End (exclusive), relative microseconds.
    pub end_us: u64,
}

/// The heaviest non-overlapping chain through the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Chain members in time order.
    pub steps: Vec<PathStep>,
    /// Total chain duration, microseconds (<= wall-clock).
    pub total_us: u64,
    /// The run wall-clock the chain is bounded by.
    pub wall_us: u64,
}

impl CriticalPath {
    /// Extracts the critical path from a timeline. Idle-category
    /// segments never appear on the chain (they are filler, not
    /// work or a measured wait).
    #[must_use]
    pub fn extract(timeline: &Timeline) -> CriticalPath {
        let mut segs: Vec<PathStep> = Vec::new();
        for lane in &timeline.lanes {
            for s in &lane.segments {
                if s.cat == lane.idle_cat || s.dur_us() == 0 {
                    continue;
                }
                segs.push(PathStep {
                    lane: lane.label.clone(),
                    name: s.name.clone(),
                    cat: s.cat,
                    start_us: s.start_us,
                    end_us: s.end_us,
                });
            }
        }
        if segs.is_empty() {
            return CriticalPath {
                wall_us: timeline.wall_us,
                ..CriticalPath::default()
            };
        }
        segs.sort_by_key(|s| (s.end_us, s.start_us));
        let n = segs.len();
        // best[i]: heaviest chain ending with segment i.
        // pref[i]: max best[0..=i] for O(log n) predecessor lookup.
        let mut best = vec![0u64; n];
        let mut prev = vec![usize::MAX; n];
        let mut pref = vec![0u64; n];
        let mut pref_idx = vec![usize::MAX; n];
        for i in 0..n {
            let dur = segs[i].end_us - segs[i].start_us;
            // Rightmost j with end <= start_us[i].
            let j = segs.partition_point(|s| s.end_us <= segs[i].start_us);
            let (base, from) = if j == 0 {
                (0, usize::MAX)
            } else {
                (pref[j - 1], pref_idx[j - 1])
            };
            best[i] = base + dur;
            prev[i] = from;
            if i == 0 || best[i] > pref[i - 1] {
                pref[i] = best[i];
                pref_idx[i] = i;
            } else {
                pref[i] = pref[i - 1];
                pref_idx[i] = pref_idx[i - 1];
            }
        }
        let mut at = pref_idx[n - 1];
        let total_us = pref[n - 1];
        let mut steps = Vec::new();
        while at != usize::MAX {
            steps.push(segs[at].clone());
            at = prev[at];
        }
        steps.reverse();
        CriticalPath {
            steps,
            total_us,
            wall_us: timeline.wall_us,
        }
    }

    /// The chain's own blame decomposition (which resource bounds
    /// the run).
    #[must_use]
    pub fn blame(&self) -> Waterfall {
        let mut w = Waterfall {
            wall_us: self.total_us,
            ..Waterfall::default()
        };
        for s in &self.steps {
            w.add(s.cat, s.end_us - s.start_us);
        }
        w
    }

    /// The category holding the most chain time: the resource that
    /// bounds the run.
    #[must_use]
    pub fn bounding(&self) -> Option<Blame> {
        self.blame().dominant()
    }

    /// Human-readable chain summary: coverage, bounding resource, and
    /// the first `max_steps` members (adjacent same-lane same-category
    /// steps collapsed).
    #[must_use]
    pub fn render(&self, max_steps: usize) -> String {
        let mut out = String::new();
        if self.steps.is_empty() {
            out.push_str("critical path: (no attributed segments)\n");
            return out;
        }
        let pct = if self.wall_us == 0 {
            100.0
        } else {
            self.total_us as f64 / self.wall_us as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "critical path: {} us of {} us wall ({:.1}%), bounded by {}",
            self.total_us,
            self.wall_us,
            pct,
            self.bounding().map_or("-", Blame::label),
        );
        // Collapse runs of (lane, cat, name) before printing.
        let mut merged: Vec<PathStep> = Vec::new();
        for s in &self.steps {
            if let Some(last) = merged.last_mut() {
                if last.lane == s.lane && last.cat == s.cat && last.name == s.name {
                    last.end_us = s.end_us;
                    continue;
                }
            }
            merged.push(s.clone());
        }
        for (i, s) in merged.iter().enumerate() {
            if i >= max_steps {
                let _ = writeln!(out, "  ... {} more steps", merged.len() - max_steps);
                break;
            }
            let _ = writeln!(
                out,
                "  [{:>8}..{:>8}] {:<12} {:<14} {} ({} us)",
                s.start_us,
                s.end_us,
                s.lane,
                s.cat.label(),
                s.name,
                s.end_us - s.start_us,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{LaneTimeline, Segment};

    fn seg(start: u64, end: u64, cat: Blame, name: &str) -> Segment {
        Segment {
            start_us: start,
            end_us: end,
            cat,
            name: name.into(),
        }
    }

    fn lane(label: &str, idle: Blame, segs: Vec<Segment>, wall: u64) -> LaneTimeline {
        let mut blame = Waterfall {
            wall_us: wall,
            ..Waterfall::default()
        };
        let mut covered = 0;
        for s in &segs {
            blame.add(s.cat, s.dur_us());
            covered += s.dur_us();
        }
        blame.add(idle, wall - covered);
        LaneTimeline {
            label: label.into(),
            idle_cat: idle,
            segments: segs,
            blame,
        }
    }

    fn tl(lanes: Vec<LaneTimeline>, wall: u64) -> Timeline {
        Timeline {
            top_span: "exec-parallel".into(),
            wall_us: wall,
            lanes,
            flows: vec![],
        }
    }

    #[test]
    fn chain_picks_heaviest_non_overlapping_combination() {
        // shard:0 works 0..60, shard:1 works 50..100: they overlap in
        // 50..60, so the chain takes one of each side's best pieces.
        let t = tl(
            vec![
                lane(
                    "shard:0",
                    Blame::Barrier,
                    vec![seg(0, 60, Blame::Compute, "shard-run")],
                    100,
                ),
                lane(
                    "shard:1",
                    Blame::Barrier,
                    vec![seg(50, 100, Blame::PrefetchStall, "prefetch-stall")],
                    100,
                ),
            ],
            100,
        );
        let cp = CriticalPath::extract(&t);
        assert!(cp.total_us <= cp.wall_us);
        // Best chain: 0..60 compute is 60; it excludes 50..100 (50).
        assert_eq!(cp.total_us, 60);
        assert_eq!(cp.bounding(), Some(Blame::Compute));
    }

    #[test]
    fn chain_spans_lanes_when_disjoint() {
        let t = tl(
            vec![
                lane(
                    "shard:0",
                    Blame::Barrier,
                    vec![seg(0, 40, Blame::Compute, "shard-run")],
                    100,
                ),
                lane(
                    "ionode:2",
                    Blame::Idle,
                    vec![seg(40, 90, Blame::QueueWait, "queue-wait")],
                    100,
                ),
            ],
            100,
        );
        let cp = CriticalPath::extract(&t);
        assert_eq!(cp.total_us, 90);
        assert_eq!(cp.steps.len(), 2);
        assert_eq!(cp.bounding(), Some(Blame::QueueWait));
        let text = cp.render(10);
        assert!(text.contains("bounded by queue-wait"), "{text}");
    }

    #[test]
    fn idle_filler_never_joins_the_chain() {
        let t = tl(
            vec![lane(
                "shard:0",
                Blame::Barrier,
                vec![seg(10, 20, Blame::Barrier, "gap")],
                100,
            )],
            100,
        );
        // Barrier here IS the lane's idle category: excluded.
        let cp = CriticalPath::extract(&t);
        assert!(cp.steps.is_empty());
        assert_eq!(cp.total_us, 0);
    }

    #[test]
    fn empty_timeline_renders() {
        let cp = CriticalPath::extract(&tl(vec![], 0));
        assert!(cp.render(5).contains("no attributed segments"));
    }
}
