//! Property tests of the scaling-forensics conservation law.
//!
//! For *arbitrary* generated span streams — balanced or truncated,
//! monotone timestamps, any mix of wait/work/flow events across
//! several lanes — the reconstruction must satisfy, exactly:
//!
//! 1. every lane's blame waterfall sums to the run wall-clock to the
//!    microsecond (the conservation law);
//! 2. the aggregate waterfall sums to `lanes x wall`;
//! 3. critical-path length <= wall-clock <= aggregate blame total
//!    (when at least one lane exists);
//! 4. lane segments are pairwise disjoint and inside the window.

use ooc_analyze::{AnalysisReport, CriticalPath, Timeline};
use ooc_trace::{Event, EventKind, Lane, LaneKind, TraceData};
use proptest::prelude::*;

const NAMES: [&str; 12] = [
    "exec-parallel",
    "shard-run",
    "nest:mxm",
    "sync-read",
    "sync-write",
    "prefetch-stall",
    "fence-wait",
    "queue-wait",
    "checkpoint",
    "recovery-replay",
    "join-wait",
    "wb-write",
];

fn lane_of(tid: u64) -> Option<Lane> {
    match tid {
        0 => Some(Lane::main()),
        1 => Some(Lane::shard(0)),
        2 => Some(Lane::shard(1)),
        3 => Some(Lane::new(LaneKind::Prefetch, 0)),
        _ => None,
    }
}

/// Decodes raw tuples into a monotone-timestamp event stream with
/// per-tid balanced-ish nesting (Ends only pop when something is
/// open, unless truncation later orphans them).
fn synthesize(raw: &[(u64, u8, u8, u64)], drop_prefix: usize) -> TraceData {
    let mut ts = 0u64;
    let mut depth = [0usize; 5];
    let mut open: Vec<Vec<&str>> = vec![Vec::new(); 5];
    let mut events = Vec::new();
    for &(tid_raw, op, name_idx, dt) in raw {
        let tid = tid_raw % 5;
        ts += dt;
        let ti = tid as usize;
        let kind_sel = op % 8;
        let (kind, name) = if kind_sel < 4 || depth[ti] == 0 {
            // Begin
            let name = NAMES[(name_idx as usize) % NAMES.len()];
            depth[ti] += 1;
            open[ti].push(name);
            (EventKind::Begin, name)
        } else if kind_sel < 7 {
            // End of the innermost open span.
            depth[ti] -= 1;
            let name = open[ti].pop().unwrap_or("x");
            (EventKind::End, name)
        } else {
            // Flow / instant noise.
            let k = match name_idx % 3 {
                0 => EventKind::Instant,
                1 => EventKind::FlowStart(u64::from(name_idx)),
                _ => EventKind::FlowFinish(u64::from(name_idx)),
            };
            (k, "delivery")
        };
        events.push(Event {
            ts_us: ts,
            tid,
            lane: lane_of(tid),
            name: name.to_string(),
            cat: "prop",
            kind,
            args: Vec::new(),
        });
    }
    // Close everything so the balanced variant is well-formed.
    for (ti, stack) in open.iter_mut().enumerate() {
        while let Some(name) = stack.pop() {
            ts += 1;
            events.push(Event {
                ts_us: ts,
                tid: ti as u64,
                lane: lane_of(ti as u64),
                name: name.to_string(),
                cat: "prop",
                kind: EventKind::End,
                args: Vec::new(),
            });
        }
    }
    TraceData {
        events: events.split_off(drop_prefix.min(events.len())),
        explains: Vec::new(),
    }
}

fn check_invariants(data: &TraceData) {
    let timeline = Timeline::from_trace(data);
    // (1) per-lane exact conservation.
    for lane in &timeline.lanes {
        prop_assert_eq!(
            lane.blame.total_us(),
            timeline.wall_us,
            "lane {} does not conserve",
            &lane.label
        );
        prop_assert!(lane.blame.is_conserving());
        // (4) segments disjoint, sorted, inside the window.
        let mut prev_end = 0u64;
        for s in &lane.segments {
            prop_assert!(s.start_us >= prev_end, "overlap in lane {}", &lane.label);
            prop_assert!(s.end_us > s.start_us);
            prop_assert!(s.end_us <= timeline.wall_us);
            prev_end = s.end_us;
        }
    }
    // (2) aggregate conservation: lanes x wall.
    let agg = timeline.aggregate();
    prop_assert!(agg.is_conserving());
    prop_assert_eq!(
        agg.total_us(),
        timeline.wall_us * timeline.lanes.len() as u64
    );
    // (3) critical <= wall <= aggregate total.
    let critical = CriticalPath::extract(&timeline);
    prop_assert!(
        critical.total_us <= timeline.wall_us,
        "critical {} > wall {}",
        critical.total_us,
        timeline.wall_us
    );
    if !timeline.lanes.is_empty() {
        prop_assert!(timeline.wall_us <= agg.total_us());
    }
    // Chain steps are themselves non-overlapping and in time order.
    let mut prev_end = 0u64;
    for s in &critical.steps {
        prop_assert!(s.start_us >= prev_end);
        prev_end = s.end_us;
    }
    // The full report renders without a conservation marker ('!').
    let report = AnalysisReport::from_trace(data);
    let text = report.render_waterfall();
    prop_assert!(!text.contains('!'), "conservation violated:\n{}", text);
}

proptest! {
    /// Balanced arbitrary span streams conserve exactly.
    #[test]
    fn blame_decomposition_conserves_for_arbitrary_timelines(
        raw in proptest::collection::vec((0u64..5, 0u8..8, 0u8..12, 0u64..40), 1..120),
    ) {
        let data = synthesize(&raw, 0);
        check_invariants(&data);
    }

    /// Truncation (a missing prefix, orphan Ends) still conserves:
    /// truncation degrades attribution, never the law.
    #[test]
    fn truncated_timelines_still_conserve(
        raw in proptest::collection::vec((0u64..5, 0u8..8, 0u8..12, 0u64..40), 4..120),
        drop in 1usize..40,
    ) {
        let data = synthesize(&raw, drop);
        check_invariants(&data);
    }
}
