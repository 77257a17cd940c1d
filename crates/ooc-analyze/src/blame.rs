//! The blame taxonomy and the exactly-conserving waterfall.
//!
//! Every microsecond of a lane's wall-clock interval is assigned to
//! exactly one [`Blame`] category, so a lane's waterfall **sums to the
//! run's wall-clock exactly** — no unattributed and no double-counted
//! time. The assignment rule is *innermost wait wins*: while a thread
//! is inside a `sync-read` span that is itself inside a `shard-run`
//! span, the time is synchronous-read time, not compute; while it is
//! inside no wait span but inside any work span, it is compute; while
//! it is inside no span at all, it is the lane's idle category
//! (barrier skew for shard lanes, idle for service lanes).

use std::collections::BTreeMap;
use std::fmt;

/// Where one slice of wall-clock went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Blame {
    /// In a work span with no wait active: staging + compute.
    Compute,
    /// Blocking read on the consuming thread (`sync-read`).
    SyncRead,
    /// Blocking write-back on the consuming thread (`sync-write`).
    SyncWrite,
    /// Waiting for an in-flight prefetch delivery (`prefetch-stall`).
    PrefetchStall,
    /// Write-behind read-after-write fence or flush (`fence-wait`).
    FenceWait,
    /// Waiting for an I/O-node FIFO grant (`queue-wait`).
    QueueWait,
    /// Journal/checkpoint overhead of durable runs (`checkpoint`).
    Checkpoint,
    /// Pre-image rollback on crash recovery (`recovery-replay`).
    Replay,
    /// Degraded-mode repair machinery: parity writes, XOR
    /// reconstruction, scrubbing (`parity-write`,
    /// `degraded-reconstruct`, `scrub`).
    Repair,
    /// Barrier skew: a shard lane outside its work window, or the
    /// main lane inside `join-wait`.
    Barrier,
    /// A service lane (prefetch/writer) with nothing to do.
    Idle,
}

/// Every category, in waterfall rendering order.
pub const ALL_BLAMES: [Blame; 11] = [
    Blame::Compute,
    Blame::SyncRead,
    Blame::SyncWrite,
    Blame::PrefetchStall,
    Blame::FenceWait,
    Blame::QueueWait,
    Blame::Checkpoint,
    Blame::Replay,
    Blame::Repair,
    Blame::Barrier,
    Blame::Idle,
];

impl Blame {
    /// The category a *wait* span name maps to, if it is one.
    #[must_use]
    pub fn of_wait_span(name: &str) -> Option<Blame> {
        match name {
            "sync-read" => Some(Blame::SyncRead),
            "sync-write" => Some(Blame::SyncWrite),
            "prefetch-stall" => Some(Blame::PrefetchStall),
            "fence-wait" => Some(Blame::FenceWait),
            "queue-wait" => Some(Blame::QueueWait),
            "checkpoint" => Some(Blame::Checkpoint),
            "recovery-replay" => Some(Blame::Replay),
            "parity-write" | "degraded-reconstruct" | "scrub" => Some(Blame::Repair),
            "join-wait" => Some(Blame::Barrier),
            _ => None,
        }
    }

    /// Stable label for tables and metric series.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Blame::Compute => "compute",
            Blame::SyncRead => "sync-read",
            Blame::SyncWrite => "sync-write",
            Blame::PrefetchStall => "prefetch-stall",
            Blame::FenceWait => "fence-wait",
            Blame::QueueWait => "queue-wait",
            Blame::Checkpoint => "checkpoint",
            Blame::Replay => "replay",
            Blame::Repair => "repair",
            Blame::Barrier => "barrier",
            Blame::Idle => "idle",
        }
    }

    /// One-character glyph for the ASCII Gantt.
    #[must_use]
    pub fn glyph(self) -> char {
        match self {
            Blame::Compute => '#',
            Blame::SyncRead => 'r',
            Blame::SyncWrite => 'w',
            Blame::PrefetchStall => 's',
            Blame::FenceWait => 'f',
            Blame::QueueWait => 'q',
            Blame::Checkpoint => 'c',
            Blame::Replay => 'R',
            Blame::Repair => 'p',
            Blame::Barrier => '.',
            Blame::Idle => ' ',
        }
    }
}

impl fmt::Display for Blame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One lane's complete decomposition of the run's wall-clock.
///
/// Invariant (checked by [`Waterfall::is_conserving`] and enforced by
/// construction in the timeline builder): the category values sum to
/// `wall_us` **exactly**.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Waterfall {
    /// Microseconds per category (absent = 0).
    pub us: BTreeMap<Blame, u64>,
    /// The wall-clock interval the categories partition.
    pub wall_us: u64,
}

impl Waterfall {
    /// Adds `us` microseconds to `cat`.
    pub fn add(&mut self, cat: Blame, us: u64) {
        *self.us.entry(cat).or_insert(0) += us;
    }

    /// Microseconds attributed to `cat`.
    #[must_use]
    pub fn get(&self, cat: Blame) -> u64 {
        self.us.get(&cat).copied().unwrap_or(0)
    }

    /// Sum across all categories.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.us.values().sum()
    }

    /// The conservation law: categories partition the wall-clock.
    #[must_use]
    pub fn is_conserving(&self) -> bool {
        self.total_us() == self.wall_us
    }

    /// Folds another lane's waterfall in (aggregate rows sum
    /// lane-seconds, so the aggregate total is `lanes x wall`).
    pub fn merge(&mut self, other: &Waterfall) {
        for (cat, us) in &other.us {
            self.add(*cat, *us);
        }
        self.wall_us += other.wall_us;
    }

    /// The category holding the most time, ties broken by taxonomy
    /// order. `None` for an empty waterfall.
    #[must_use]
    pub fn dominant(&self) -> Option<Blame> {
        ALL_BLAMES
            .iter()
            .copied()
            .filter(|c| self.get(*c) > 0)
            .max_by_key(|c| self.get(*c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_span_names_map_and_others_do_not() {
        assert_eq!(Blame::of_wait_span("sync-read"), Some(Blame::SyncRead));
        assert_eq!(Blame::of_wait_span("queue-wait"), Some(Blame::QueueWait));
        assert_eq!(Blame::of_wait_span("join-wait"), Some(Blame::Barrier));
        assert_eq!(Blame::of_wait_span("shard-run"), None);
        assert_eq!(Blame::of_wait_span("nest:mxm"), None);
    }

    #[test]
    fn waterfall_conserves_and_merges() {
        let mut w = Waterfall {
            wall_us: 100,
            ..Waterfall::default()
        };
        w.add(Blame::Compute, 60);
        w.add(Blame::PrefetchStall, 30);
        w.add(Blame::Barrier, 10);
        assert!(w.is_conserving());
        assert_eq!(w.dominant(), Some(Blame::Compute));
        let mut agg = Waterfall::default();
        agg.merge(&w);
        agg.merge(&w);
        assert_eq!(agg.wall_us, 200);
        assert_eq!(agg.get(Blame::Compute), 120);
        assert!(agg.is_conserving());
    }
}
