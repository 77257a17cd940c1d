//! Per-lane timeline reconstruction from a recorded trace.
//!
//! The builder replays each thread's span stack in event order and
//! cuts the run's wall-clock window into contiguous **segments**, each
//! owned by exactly one [`Blame`] category (innermost wait wins, work
//! spans are compute, uncovered time is the lane's idle category).
//! Threads are then grouped into **lanes** by the structured lane
//! identity stamped on their events — the per-iteration shard threads
//! of the parallel executor all fold into one `shard:k` lane — and
//! each lane's waterfall is completed so it partitions the wall-clock
//! interval exactly.

use crate::blame::{Blame, Waterfall};
use ooc_trace::{Event, EventKind, LaneKind, TraceData};
use std::collections::BTreeMap;

/// One contiguous slice of a lane's time owned by one category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Start, microseconds relative to the run window.
    pub start_us: u64,
    /// End (exclusive), microseconds relative to the run window.
    pub end_us: u64,
    /// The category owning this slice.
    pub cat: Blame,
    /// Name of the span that determined the category.
    pub name: String,
}

impl Segment {
    /// The segment's duration.
    #[must_use]
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// One lane's reconstructed activity over the run window.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneTimeline {
    /// Display label (`shard:0`, `prefetch:1`, `tid:7`...).
    pub label: String,
    /// Category charged for time not covered by any span.
    pub idle_cat: Blame,
    /// Covered slices, sorted by start, pairwise disjoint.
    pub segments: Vec<Segment>,
    /// The lane's exactly-conserving decomposition.
    pub blame: Waterfall,
}

/// A matched cross-thread causal link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowLink {
    /// Flow id (prefetch delivery sequence number).
    pub id: u64,
    /// Producing side: (relative ts, tid).
    pub start: (u64, u64),
    /// Consuming side: (relative ts, tid).
    pub finish: (u64, u64),
}

/// The reconstructed run: a wall-clock window and the lanes that
/// partition it.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Name of the window-defining top span (`exec-parallel`, or
    /// `trace` when no executor span exists).
    pub top_span: String,
    /// Run wall-clock, microseconds.
    pub wall_us: u64,
    /// Lanes in label order.
    pub lanes: Vec<LaneTimeline>,
    /// Matched causal links (prefetch deliveries), by id.
    pub flows: Vec<FlowLink>,
}

fn idle_cat_of(label: &str) -> Blame {
    if label.starts_with("shard:") {
        Blame::Barrier
    } else {
        Blame::Idle
    }
}

/// The category currently in force for a span stack: the innermost
/// wait span wins; any other open span means compute; an empty stack
/// means uncovered time.
fn current_cat(stack: &[(String, Option<Blame>)]) -> Option<(Blame, &str)> {
    for (name, wait) in stack.iter().rev() {
        if let Some(cat) = wait {
            return Some((*cat, name));
        }
    }
    stack
        .last()
        .map(|(name, _)| (Blame::Compute, name.as_str()))
}

impl Timeline {
    /// Reconstructs the run timeline from a finished (or snapshot)
    /// trace. Never fails: an empty trace yields an empty timeline,
    /// and a truncated trace (orphan `End`s) degrades to
    /// uncovered time instead of erroring.
    #[must_use]
    pub fn from_trace(data: &TraceData) -> Timeline {
        // 1. The wall-clock window: the first executor span if there
        // is one, else the full event range.
        let mut window: Option<(u64, u64, String, u64)> = None; // (start, end, name, tid)
        for e in &data.events {
            if matches!(e.kind, EventKind::Begin) && e.name == "exec-parallel" {
                window = Some((e.ts_us, e.ts_us, e.name.clone(), e.tid));
                break;
            }
        }
        let (w_start, mut w_end, top_span) = match window {
            Some((s, _, name, tid)) => {
                let mut depth = 0i64;
                let mut end = s;
                for e in data.events.iter().filter(|e| e.tid == tid) {
                    if e.ts_us < s {
                        continue;
                    }
                    match e.kind {
                        EventKind::Begin if e.name == name => depth += 1,
                        EventKind::End if e.name == name => {
                            depth -= 1;
                            if depth == 0 {
                                end = e.ts_us;
                                break;
                            }
                        }
                        _ => {}
                    }
                    end = end.max(e.ts_us);
                }
                (s, end.max(s), name)
            }
            None => {
                let min = data.events.iter().map(|e| e.ts_us).min().unwrap_or(0);
                let max = data.events.iter().map(|e| e.ts_us).max().unwrap_or(0);
                (min, max, "trace".to_string())
            }
        };
        // Late lanes (e.g. a straggling writer) may outlive the top
        // span end by a few events; clip, don't extend.
        w_end = w_end.max(w_start);
        let wall_us = w_end - w_start;
        let rel = |ts: u64| ts.clamp(w_start, w_end) - w_start;

        // 2. Per-tid segment extraction.
        let mut tids: Vec<u64> = data.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        let mut flows_start: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut flows: Vec<FlowLink> = Vec::new();
        let mut by_label: BTreeMap<String, Vec<Segment>> = BTreeMap::new();
        for tid in tids {
            let events: Vec<&Event> = data.events.iter().filter(|e| e.tid == tid).collect();
            let label = events
                .iter()
                .find_map(|e| e.lane)
                .map_or_else(|| format!("tid:{tid}"), |l| l.to_string());
            let mut stack: Vec<(String, Option<Blame>)> = Vec::new();
            let mut cursor = 0u64;
            let mut segs: Vec<Segment> = Vec::new();
            let close_to = |cursor: &mut u64,
                            ts: u64,
                            stack: &[(String, Option<Blame>)],
                            segs: &mut Vec<Segment>| {
                if ts > *cursor {
                    if let Some((cat, name)) = current_cat(stack) {
                        segs.push(Segment {
                            start_us: *cursor,
                            end_us: ts,
                            cat,
                            name: name.to_string(),
                        });
                    }
                    *cursor = ts;
                }
            };
            for e in &events {
                match &e.kind {
                    EventKind::Begin => {
                        let ts = rel(e.ts_us);
                        close_to(&mut cursor, ts, &stack, &mut segs);
                        stack.push((e.name.clone(), Blame::of_wait_span(&e.name)));
                    }
                    EventKind::End => {
                        let ts = rel(e.ts_us);
                        close_to(&mut cursor, ts, &stack, &mut segs);
                        // Orphan End (truncated trace): no-op pop.
                        stack.pop();
                    }
                    EventKind::FlowStart(id) => {
                        flows_start.insert(*id, (rel(e.ts_us), e.tid));
                    }
                    EventKind::FlowFinish(id) => {
                        if let Some(start) = flows_start.remove(id) {
                            flows.push(FlowLink {
                                id: *id,
                                start,
                                finish: (rel(e.ts_us), e.tid),
                            });
                        }
                    }
                    EventKind::Instant | EventKind::Counter(_) => {}
                }
            }
            close_to(&mut cursor, wall_us, &stack, &mut segs);
            by_label.entry(label).or_default().extend(segs);
        }
        flows.sort_by_key(|f| f.id);

        // 3. Lanes: merge each label's segments (iteration-scoped
        // shard threads are time-disjoint; clip defensively anyway)
        // and complete the waterfall so it conserves by construction.
        let mut lanes = Vec::new();
        for (label, mut segs) in by_label {
            segs.sort_by_key(|s| (s.start_us, s.end_us));
            let mut merged: Vec<Segment> = Vec::new();
            for mut s in segs {
                if let Some(prev) = merged.last() {
                    s.start_us = s.start_us.max(prev.end_us);
                    s.end_us = s.end_us.max(s.start_us);
                }
                if s.end_us > s.start_us {
                    merged.push(s);
                }
            }
            let idle_cat = idle_cat_of(&label);
            let mut blame = Waterfall {
                wall_us,
                ..Waterfall::default()
            };
            let mut covered = 0u64;
            for s in &merged {
                blame.add(s.cat, s.dur_us());
                covered += s.dur_us();
            }
            blame.add(idle_cat, wall_us - covered);
            debug_assert!(blame.is_conserving());
            lanes.push(LaneTimeline {
                label,
                idle_cat,
                segments: merged,
                blame,
            });
        }
        Timeline {
            top_span,
            wall_us,
            lanes,
            flows,
        }
    }

    /// The lane with the given label.
    #[must_use]
    pub fn lane(&self, label: &str) -> Option<&LaneTimeline> {
        self.lanes.iter().find(|l| l.label == label)
    }

    /// Aggregate waterfall across all lanes (`wall_us` becomes
    /// `lanes x wall`, still exactly conserving).
    #[must_use]
    pub fn aggregate(&self) -> Waterfall {
        let mut agg = Waterfall::default();
        for lane in &self.lanes {
            agg.merge(&lane.blame);
        }
        agg
    }

    /// Number of shard lanes (0 for single-threaded runs).
    #[must_use]
    pub fn shard_lanes(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.label.starts_with(LaneKind::Shard.label()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_trace::{Lane, Session};

    fn spin_us(us: u64) {
        let t = std::time::Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn empty_trace_is_empty_timeline() {
        let t = Timeline::from_trace(&TraceData::default());
        assert_eq!(t.wall_us, 0);
        assert!(t.lanes.is_empty());
        assert!(t.aggregate().is_conserving());
    }

    #[test]
    fn every_lane_conserves_on_a_real_parallel_shaped_trace() {
        let session = Session::start();
        {
            let _lane = ooc_trace::lane_scope(Lane::main());
            let _top = ooc_trace::span("parallel", "exec-parallel");
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    std::thread::spawn(move || {
                        let _lane = ooc_trace::lane_scope(Lane::shard(i));
                        let _run = ooc_trace::span("parallel", "shard-run");
                        spin_us(300);
                        {
                            let _stall = ooc_trace::span("pipeline", "prefetch-stall");
                            spin_us(200);
                        }
                        {
                            let _sync = ooc_trace::span("pipeline", "sync-read");
                            {
                                let _q = ooc_trace::span("striped", "queue-wait");
                                spin_us(100);
                            }
                            spin_us(100);
                        }
                    })
                })
                .collect();
            let _join = ooc_trace::span("parallel", "join-wait");
            for h in handles {
                h.join().expect("shard");
            }
        }
        let data = session.finish();
        let t = Timeline::from_trace(&data);
        assert_eq!(t.top_span, "exec-parallel");
        assert!(t.wall_us >= 600, "wall {}", t.wall_us);
        assert_eq!(t.shard_lanes(), 2);
        for lane in &t.lanes {
            assert!(lane.blame.is_conserving(), "lane {}", lane.label);
        }
        let s0 = t.lane("shard:0").expect("shard lane");
        assert!(s0.blame.get(Blame::PrefetchStall) >= 150);
        // queue-wait nested inside sync-read wins innermost.
        assert!(s0.blame.get(Blame::QueueWait) >= 50);
        assert!(s0.blame.get(Blame::SyncRead) >= 50);
        assert!(s0.blame.get(Blame::Compute) >= 200);
        // The main lane spent the shards' runtime in join-wait.
        let main = t.lane("main:0").expect("main lane");
        assert!(main.blame.get(Blame::Barrier) >= 500);
        // Aggregate still conserves (3 lanes x wall).
        let agg = t.aggregate();
        assert!(agg.is_conserving());
        assert_eq!(agg.wall_us, 3 * t.wall_us);
    }

    #[test]
    fn flow_links_are_matched() {
        let session = Session::start();
        {
            let _top = ooc_trace::span("parallel", "exec-parallel");
            ooc_trace::flow_start("pipeline", "delivery", 3);
            ooc_trace::flow_finish("pipeline", "delivery", 3);
            ooc_trace::flow_start("pipeline", "delivery", 9);
            // id 9 never finishes: unmatched, dropped.
        }
        let t = Timeline::from_trace(&session.finish());
        assert_eq!(t.flows.len(), 1);
        assert_eq!(t.flows[0].id, 3);
    }
}
