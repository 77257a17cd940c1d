//! ASCII Gantt rendering of the per-lane timelines.
//!
//! Each lane becomes one row of fixed-width cells; each cell shows the
//! glyph of the category that held the **most time inside that cell's
//! time slice** (ties to the earlier taxonomy category), so a 100-cell
//! row is a faithful downsampling of the lane's waterfall. A legend
//! mapping glyphs to categories is appended.

use crate::blame::ALL_BLAMES;
use crate::timeline::Timeline;
use std::fmt::Write as _;

/// Renders the timeline as one Gantt row per lane, `width` cells wide.
#[must_use]
pub fn render(timeline: &Timeline, width: usize) -> String {
    let width = width.max(1);
    let mut out = String::new();
    if timeline.wall_us == 0 || timeline.lanes.is_empty() {
        out.push_str("gantt: (empty run)\n");
        return out;
    }
    let label_w = timeline
        .lanes
        .iter()
        .map(|l| l.label.len())
        .max()
        .unwrap_or(0)
        .max(4);
    let _ = writeln!(
        out,
        "gantt: {} us wall, {} us/cell",
        timeline.wall_us,
        (timeline.wall_us as f64 / width as f64).ceil() as u64
    );
    for lane in &timeline.lanes {
        let mut row = String::with_capacity(width);
        for cell in 0..width {
            // Cell covers [lo, hi) in run-relative microseconds.
            let lo = (cell as u128 * u128::from(timeline.wall_us) / width as u128) as u64;
            let hi = ((cell as u128 + 1) * u128::from(timeline.wall_us) / width as u128) as u64;
            let hi = hi.max(lo + 1);
            let mut per_cat = [0u64; ALL_BLAMES.len()];
            let mut covered = 0u64;
            for s in &lane.segments {
                let o_lo = s.start_us.max(lo);
                let o_hi = s.end_us.min(hi);
                if o_hi > o_lo {
                    let idx = ALL_BLAMES.iter().position(|c| *c == s.cat).unwrap_or(0);
                    per_cat[idx] += o_hi - o_lo;
                    covered += o_hi - o_lo;
                }
            }
            let idle_idx = ALL_BLAMES
                .iter()
                .position(|c| *c == lane.idle_cat)
                .unwrap_or(ALL_BLAMES.len() - 1);
            per_cat[idle_idx] += (hi - lo).saturating_sub(covered);
            let winner = per_cat
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .map_or(idle_idx, |(i, _)| i);
            row.push(ALL_BLAMES[winner].glyph());
        }
        let _ = writeln!(out, "{:<label_w$} |{row}|", lane.label);
    }
    let legend: Vec<String> = ALL_BLAMES
        .iter()
        .map(|c| format!("{}={}", if c.glyph() == ' ' { '_' } else { c.glyph() }, c))
        .collect();
    let _ = writeln!(out, "legend: {}", legend.join(" "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::{Blame, Waterfall};
    use crate::timeline::{LaneTimeline, Segment};

    fn half_and_half() -> Timeline {
        let segs = vec![
            Segment {
                start_us: 0,
                end_us: 50,
                cat: Blame::Compute,
                name: "shard-run".into(),
            },
            Segment {
                start_us: 50,
                end_us: 100,
                cat: Blame::PrefetchStall,
                name: "prefetch-stall".into(),
            },
        ];
        let mut blame = Waterfall {
            wall_us: 100,
            ..Waterfall::default()
        };
        blame.add(Blame::Compute, 50);
        blame.add(Blame::PrefetchStall, 50);
        Timeline {
            top_span: "exec-parallel".into(),
            wall_us: 100,
            lanes: vec![LaneTimeline {
                label: "shard:0".into(),
                idle_cat: Blame::Barrier,
                segments: segs,
                blame,
            }],
            flows: vec![],
        }
    }

    #[test]
    fn cells_downsample_by_majority() {
        let text = render(&half_and_half(), 10);
        let row = text
            .lines()
            .find(|l| l.starts_with("shard:0"))
            .expect("row");
        assert!(row.contains("#####sssss"), "{text}");
        assert!(text.contains("legend:"), "{text}");
    }

    #[test]
    fn empty_run_renders_placeholder() {
        let t = Timeline {
            top_span: "trace".into(),
            wall_us: 0,
            lanes: vec![],
            flows: vec![],
        };
        assert!(render(&t, 80).contains("empty run"));
    }
}
