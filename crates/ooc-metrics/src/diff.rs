//! Snapshot diffing with per-metric regression policies.
//!
//! The perf-regression contract this module encodes:
//!
//! * **Counters and histograms are deterministic.** They come from
//!   analytic run accounting or instrumented stores over fixed seeds,
//!   so *any* change against the baseline is a hard failure — a
//!   regression if the number got worse, an un-recorded improvement if
//!   it got better (refresh the committed baseline in the same change).
//! * **Timing histograms are half-deterministic.** Series named
//!   `timing_*` record *measured durations* (queue waits, stall
//!   drains): how *often* the instrumented path ran is deterministic
//!   and gates exactly on the observation count, but where the
//!   samples land moves with the host clock, so bucket-shape and sum
//!   drift at equal count is tolerated.
//! * **Gauges drift.** Wall-clock and simulated-seconds vary with the
//!   host or legitimately move as code evolves; a gauge only *warns*,
//!   and only beyond a relative threshold.
//! * **A vanished counter is a hard failure** (coverage regressed); a
//!   vanished or new gauge, and any newly added series, warn.
//!
//! [`DiffReport`] renders human-readably and knows its exit-code
//! semantics ([`DiffReport::is_clean`]); the `bench-compare` binary is
//! a thin CLI over this module.

use crate::registry::{Key, Value};
use crate::snapshot::Snapshot;
use std::collections::BTreeMap;
use std::fmt;

/// Tunable thresholds of a diff run.
#[derive(Debug, Clone)]
pub struct DiffPolicy {
    /// Relative change beyond which a gauge warns (0.25 = ±25%).
    pub gauge_warn_rel: f64,
    /// Absolute gauge change below which no warning fires regardless
    /// of the relative change (guards tiny denominators).
    pub gauge_warn_abs: f64,
}

impl Default for DiffPolicy {
    fn default() -> Self {
        DiffPolicy {
            gauge_warn_rel: 0.25,
            gauge_warn_abs: 1e-9,
        }
    }
}

/// The outcome of comparing one metric series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Value unchanged (or within gauge tolerance).
    Unchanged,
    /// A gauge moved in the good direction beyond the threshold.
    Improved,
    /// Non-fatal drift: gauge beyond threshold, added series, removed
    /// gauge.
    Warned,
    /// A deterministic metric changed or disappeared: the gate fails.
    HardFail,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Unchanged => "ok",
            Verdict::Improved => "IMPROVED",
            Verdict::Warned => "WARN",
            Verdict::HardFail => "FAIL",
        };
        write!(f, "{s}")
    }
}

/// One compared series.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// The series identity.
    pub key: Key,
    /// Baseline value (`None` for newly added series).
    pub old: Option<Value>,
    /// Current value (`None` for removed series).
    pub new: Option<Value>,
    /// The policy's verdict.
    pub verdict: Verdict,
    /// Human-readable explanation.
    pub detail: String,
}

/// The full result of diffing two snapshots.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every compared series, baseline order (sorted by key).
    pub entries: Vec<DiffEntry>,
}

impl DiffReport {
    /// Number of hard failures.
    #[must_use]
    pub fn hard_fails(&self) -> usize {
        self.count(Verdict::HardFail)
    }

    /// Number of warnings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.count(Verdict::Warned)
    }

    /// Number of improvements.
    #[must_use]
    pub fn improvements(&self) -> usize {
        self.count(Verdict::Improved)
    }

    fn count(&self, v: Verdict) -> usize {
        self.entries.iter().filter(|e| e.verdict == v).count()
    }

    /// `true` when the gate passes (warnings allowed, hard fails not).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.hard_fails() == 0
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let changed: Vec<&DiffEntry> = self
            .entries
            .iter()
            .filter(|e| e.verdict != Verdict::Unchanged)
            .collect();
        if changed.is_empty() {
            writeln!(f, "no changes across {} series", self.entries.len())?;
        }
        for e in &changed {
            writeln!(f, "{:8} {}: {}", e.verdict.to_string(), e.key, e.detail)?;
        }
        writeln!(
            f,
            "{} series compared: {} hard failures, {} warnings, {} improvements, {} unchanged",
            self.entries.len(),
            self.hard_fails(),
            self.warnings(),
            self.improvements(),
            self.entries.len() - changed.len(),
        )
    }
}

fn fmt_value(v: &Option<Value>) -> String {
    v.as_ref()
        .map_or_else(|| "absent".to_string(), Value::to_string)
}

/// Series whose name starts with this prefix hold *measured-time*
/// histograms (queue waits, stall drains): their observation **count**
/// is deterministic and gates exactly, but bucket shape and sum move
/// with the host clock, so shape drift at equal count is tolerated.
const TIMING_HIST_PREFIX: &str = "timing_";

fn judge(key: &Key, old: &Value, new: &Value, policy: &DiffPolicy) -> (Verdict, String) {
    match (old, new) {
        (Value::Histogram(a), Value::Histogram(b)) if key.name.starts_with(TIMING_HIST_PREFIX) => {
            if a.count == b.count {
                (Verdict::Unchanged, String::new())
            } else {
                (
                    Verdict::HardFail,
                    format!(
                        "timing histogram observation count changed ({} -> {}); \
                         the instrumented path ran a different number of times",
                        a.count, b.count
                    ),
                )
            }
        }
        (Value::Counter(a), Value::Counter(b)) => {
            if a == b {
                (Verdict::Unchanged, String::new())
            } else if b > a {
                (
                    Verdict::HardFail,
                    format!("counter regressed {a} -> {b} (+{})", b - a),
                )
            } else {
                (
                    Verdict::HardFail,
                    format!(
                        "counter changed {a} -> {b} (-{}); an improvement must refresh the \
                         committed baseline",
                        a - b
                    ),
                )
            }
        }
        (Value::Histogram(a), Value::Histogram(b)) => {
            if a == b {
                (Verdict::Unchanged, String::new())
            } else {
                (
                    Verdict::HardFail,
                    format!(
                        "histogram shape changed (count {} -> {}, sum {} -> {}); \
                         refresh the baseline if intended",
                        a.count, b.count, a.sum, b.sum
                    ),
                )
            }
        }
        (Value::Gauge(a), Value::Gauge(b)) => {
            let abs = (b - a).abs();
            let rel = if a.abs() > 0.0 {
                abs / a.abs()
            } else {
                f64::INFINITY
            };
            if abs <= policy.gauge_warn_abs || rel <= policy.gauge_warn_rel {
                (Verdict::Unchanged, String::new())
            } else if b < a {
                (
                    Verdict::Improved,
                    format!("gauge {a} -> {b} ({:+.1}%)", 100.0 * (b - a) / a.abs()),
                )
            } else {
                (
                    Verdict::Warned,
                    format!(
                        "gauge {a} -> {b} ({:+.1}%, warn threshold {:.0}%)",
                        100.0 * (b - a) / a.abs(),
                        100.0 * policy.gauge_warn_rel
                    ),
                )
            }
        }
        _ => (
            Verdict::HardFail,
            format!(
                "metric type changed: {} -> {}",
                old.type_name(),
                new.type_name()
            ),
        ),
    }
}

/// Compares `new` against the `old` baseline under `policy`.
#[must_use]
pub fn diff_snapshots(old: &Snapshot, new: &Snapshot, policy: &DiffPolicy) -> DiffReport {
    let new_map: BTreeMap<&Key, &Value> = new.samples.iter().map(|(k, v)| (k, v)).collect();
    let old_map: BTreeMap<&Key, &Value> = old.samples.iter().map(|(k, v)| (k, v)).collect();
    let mut entries = Vec::new();
    for (key, old_value) in &old.samples {
        match new_map.get(key) {
            Some(new_value) => {
                let (verdict, detail) = judge(key, old_value, new_value, policy);
                entries.push(DiffEntry {
                    key: key.clone(),
                    old: Some(old_value.clone()),
                    new: Some((*new_value).clone()),
                    verdict,
                    detail,
                });
            }
            None => {
                // A deterministic series disappearing means coverage
                // regressed; a gauge disappearing is drift.
                let verdict = match old_value {
                    Value::Gauge(_) => Verdict::Warned,
                    _ => Verdict::HardFail,
                };
                entries.push(DiffEntry {
                    key: key.clone(),
                    old: Some(old_value.clone()),
                    new: None,
                    verdict,
                    detail: format!(
                        "series removed (was {})",
                        fmt_value(&Some(old_value.clone()))
                    ),
                });
            }
        }
    }
    for (key, new_value) in &new.samples {
        if !old_map.contains_key(key) {
            entries.push(DiffEntry {
                key: key.clone(),
                old: None,
                new: Some(new_value.clone()),
                verdict: Verdict::Warned,
                detail: format!(
                    "new series (now {}); refresh the baseline to track it",
                    fmt_value(&Some(new_value.clone()))
                ),
            });
        }
    }
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    DiffReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn snap(f: impl Fn(&Registry)) -> Snapshot {
        let r = Registry::new();
        f(&r);
        Snapshot::capture("t", &r)
    }

    #[test]
    fn identical_snapshots_are_clean() {
        let a = snap(|r| {
            r.counter_add("io_calls", &[("k", "trans")], 100);
            r.gauge_set("seconds", &[], 2.0);
            r.observe("run_len", &[], 8);
        });
        let rep = diff_snapshots(&a, &a.clone(), &DiffPolicy::default());
        assert!(rep.is_clean());
        assert_eq!(rep.warnings(), 0);
        assert!(rep.entries.iter().all(|e| e.verdict == Verdict::Unchanged));
    }

    #[test]
    fn counter_increase_and_decrease_both_hard_fail() {
        let old = snap(|r| r.counter_add("io_calls", &[], 100));
        for delta in [90u64, 110] {
            let new = snap(|r| r.counter_add("io_calls", &[], delta));
            let rep = diff_snapshots(&old, &new, &DiffPolicy::default());
            assert_eq!(rep.hard_fails(), 1, "delta {delta}");
            assert!(!rep.is_clean());
        }
    }

    #[test]
    fn gauge_drift_warns_only_beyond_threshold() {
        let old = snap(|r| r.gauge_set("wall_ms", &[], 100.0));
        let close = snap(|r| r.gauge_set("wall_ms", &[], 110.0));
        assert!(diff_snapshots(&old, &close, &DiffPolicy::default())
            .entries
            .iter()
            .all(|e| e.verdict == Verdict::Unchanged));
        let slow = snap(|r| r.gauge_set("wall_ms", &[], 200.0));
        let rep = diff_snapshots(&old, &slow, &DiffPolicy::default());
        assert_eq!(rep.warnings(), 1);
        assert!(rep.is_clean(), "gauges never hard-fail");
        let fast = snap(|r| r.gauge_set("wall_ms", &[], 10.0));
        let rep = diff_snapshots(&old, &fast, &DiffPolicy::default());
        assert_eq!(rep.improvements(), 1);
        assert!(rep.is_clean());
    }

    #[test]
    fn removed_counter_hard_fails_removed_gauge_warns() {
        let old = snap(|r| {
            r.counter_add("io_calls", &[], 1);
            r.gauge_set("wall_ms", &[], 5.0);
        });
        let new = snap(|_| {});
        let rep = diff_snapshots(&old, &new, &DiffPolicy::default());
        assert_eq!(rep.hard_fails(), 1);
        assert_eq!(rep.warnings(), 1);
    }

    #[test]
    fn added_series_warns() {
        let old = snap(|_| {});
        let new = snap(|r| r.counter_add("io_calls", &[], 1));
        let rep = diff_snapshots(&old, &new, &DiffPolicy::default());
        assert!(rep.is_clean());
        assert_eq!(rep.warnings(), 1);
    }

    #[test]
    fn histogram_change_hard_fails() {
        let old = snap(|r| r.observe("run_len", &[], 8));
        let new = snap(|r| r.observe("run_len", &[], 16));
        let rep = diff_snapshots(&old, &new, &DiffPolicy::default());
        assert_eq!(rep.hard_fails(), 1);
    }

    #[test]
    fn timing_histogram_gates_on_count_only() {
        // Same number of observations, different durations: clean.
        let old = snap(|r| {
            r.observe("timing_queue_wait_ns", &[("node", "0")], 100);
            r.observe("timing_queue_wait_ns", &[("node", "0")], 900);
        });
        let shifted = snap(|r| {
            r.observe("timing_queue_wait_ns", &[("node", "0")], 5_000_000);
            r.observe("timing_queue_wait_ns", &[("node", "0")], 7);
        });
        let rep = diff_snapshots(&old, &shifted, &DiffPolicy::default());
        assert!(rep.is_clean(), "{rep}");
        assert!(rep.entries.iter().all(|e| e.verdict == Verdict::Unchanged));
        // A different observation count still hard-fails.
        let fewer = snap(|r| {
            r.observe("timing_queue_wait_ns", &[("node", "0")], 100);
        });
        let rep = diff_snapshots(&old, &fewer, &DiffPolicy::default());
        assert_eq!(rep.hard_fails(), 1);
        assert!(rep.entries[0].detail.contains("observation count"), "{rep}");
    }

    #[test]
    fn type_change_hard_fails() {
        let old = snap(|r| r.counter_add("x", &[], 1));
        let new = snap(|r| r.gauge_set("x", &[], 1.0));
        let rep = diff_snapshots(&old, &new, &DiffPolicy::default());
        assert_eq!(rep.hard_fails(), 1);
    }

    #[test]
    fn report_renders_summary() {
        let old = snap(|r| r.counter_add("io_calls", &[("k", "trans")], 100));
        let new = snap(|r| r.counter_add("io_calls", &[("k", "trans")], 120));
        let rep = diff_snapshots(&old, &new, &DiffPolicy::default());
        let text = rep.to_string();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("io_calls{k=\"trans\"}"), "{text}");
        assert!(text.contains("1 hard failures"), "{text}");
    }
}
