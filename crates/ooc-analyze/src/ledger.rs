//! Rendering, pricing, and version-diff explanation of I/O provenance
//! ledgers ([`ProvenanceLedger`]).
//!
//! The executors classify every transfer by cause
//! ([`ooc_runtime::IoCause`]) under an exact conservation law; this
//! module turns the classified stream into the three consumable
//! artifacts:
//!
//! * [`render_ledger`] — per-cause and per-array tables with byte
//!   totals and [`DiskParams`]-priced seconds,
//! * [`diff_ledgers`] — a tile-attributed explanation of *why* one
//!   version of a program moves fewer bytes than another ("c-opt
//!   eliminates N capacity-miss bytes on U because the reuse distance
//!   now fits the cache"),
//! * [`register_metrics`] — deterministic per-cause counters for the
//!   bench-compare regression gate.

use ooc_runtime::{CauseTotal, IoCause, ProvenanceLedger, ELEM_BYTES};
use pfs_sim::DiskParams;
use std::fmt::Write as _;

/// Seconds the disk model charges one cause bucket.
#[must_use]
fn bucket_seconds(disk: &DiskParams, t: &CauseTotal) -> f64 {
    disk.bulk_seconds(t.calls, t.elems * ELEM_BYTES)
}

/// Total priced seconds of every bucket — data causes plus the
/// checksum sidecar channel.
#[must_use]
fn price_ledger(ledger: &ProvenanceLedger, disk: &DiskParams) -> f64 {
    let totals = ledger.totals();
    IoCause::ALL
        .iter()
        .map(|&c| {
            let t = cause_total(&totals, c);
            bucket_seconds(disk, &t)
        })
        .sum()
}

fn cause_total(
    totals: &std::collections::BTreeMap<(u32, IoCause), CauseTotal>,
    cause: IoCause,
) -> CauseTotal {
    let mut out = CauseTotal::default();
    for ((_, c), t) in totals {
        if *c == cause {
            out.events += t.events;
            out.calls += t.calls;
            out.elems += t.elems;
        }
    }
    out
}

/// `1234567` → `"1,234,567"`.
#[must_use]
fn commas(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn signed_commas(n: i64) -> String {
    if n < 0 {
        format!("-{}", commas(n.unsigned_abs()))
    } else {
        format!("+{}", commas(n.unsigned_abs()))
    }
}

fn identity(l: &ProvenanceLedger) -> String {
    let mut parts = Vec::new();
    if !l.kernel.is_empty() {
        parts.push(l.kernel.clone());
    }
    if !l.version.is_empty() {
        parts.push(l.version.clone());
    }
    if parts.is_empty() && !l.executor.is_empty() {
        parts.push(l.executor.clone());
    }
    if parts.is_empty() {
        "ledger".to_string()
    } else {
        parts.join(" ")
    }
}

fn array_name(l: &ProvenanceLedger, a: u32) -> String {
    l.arrays
        .get(a as usize)
        .filter(|n| !n.is_empty())
        .map_or_else(|| format!("#{a}"), Clone::clone)
}

/// The full ledger render: identity header, the per-cause table
/// (events, calls, bytes, priced seconds, byte share), the per-array ×
/// cause byte matrix, and the journal sidecar line.
#[must_use]
pub fn render_ledger(ledger: &ProvenanceLedger, disk: &DiskParams) -> String {
    let totals = ledger.totals();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== I/O provenance: {} ({}; {} events)",
        identity(ledger),
        if ledger.executor.is_empty() {
            "unknown executor"
        } else {
            &ledger.executor
        },
        commas(ledger.events.len() as u64),
    );
    let grand_bytes: u64 = IoCause::ALL
        .iter()
        .map(|&c| cause_total(&totals, c).bytes())
        .sum();
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>8} {:>14} {:>10} {:>7}",
        "cause", "events", "calls", "bytes", "seconds", "share"
    );
    for cause in IoCause::ALL {
        let t = cause_total(&totals, cause);
        if t.events == 0 && t.elems == 0 {
            continue;
        }
        let share = if grand_bytes == 0 {
            0.0
        } else {
            t.bytes() as f64 / grand_bytes as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>8} {:>14} {:>10.4} {:>6.1}%",
            cause.label(),
            commas(t.events),
            commas(t.calls),
            commas(t.bytes()),
            bucket_seconds(disk, &t),
            share
        );
    }
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>8} {:>14} {:>10.4} {:>6.1}%",
        "total",
        "",
        "",
        commas(grand_bytes),
        price_ledger(ledger, disk),
        100.0
    );

    // Per-array byte matrix over the causes that actually occur.
    let active: Vec<IoCause> = IoCause::ALL
        .iter()
        .copied()
        .filter(|&c| {
            let t = cause_total(&totals, c);
            t.events > 0 || t.elems > 0
        })
        .collect();
    let arrays: Vec<u32> = {
        let mut seen: Vec<u32> = totals.keys().map(|&(a, _)| a).collect();
        seen.dedup();
        seen
    };
    if !arrays.is_empty() && !active.is_empty() {
        out.push('\n');
        let _ = write!(out, "{:<8}", "array");
        for c in &active {
            let _ = write!(out, " {:>14}", c.label());
        }
        out.push('\n');
        for &a in &arrays {
            let _ = write!(out, "{:<8}", array_name(ledger, a));
            for &c in &active {
                let bytes = totals
                    .get(&(a, c))
                    .map_or(0, ooc_runtime::CauseTotal::bytes);
                let _ = write!(out, " {:>14}", commas(bytes));
            }
            out.push('\n');
        }
    }
    if ledger.journal_bytes > 0 {
        let _ = writeln!(
            out,
            "journal: {} bytes appended (intent pre-images + data, outside the partition)",
            commas(ledger.journal_bytes)
        );
    }
    out
}

/// One cause's totals in the two ledgers being compared.
#[derive(Debug, Clone, Copy)]
pub struct CauseDelta {
    /// The cause bucket.
    pub cause: IoCause,
    /// Totals in the baseline ledger.
    pub a: CauseTotal,
    /// Totals in the comparison ledger.
    pub b: CauseTotal,
}

impl CauseDelta {
    /// `b - a` in bytes (negative = the comparison moves fewer).
    #[must_use]
    fn delta_bytes(&self) -> i64 {
        self.b.bytes() as i64 - self.a.bytes() as i64
    }
}

/// The explained comparison of two ledgers — same program, two
/// versions (or two executors).
#[derive(Debug, Clone)]
pub struct LedgerDiff {
    /// Identity of the baseline ledger.
    pub a_id: String,
    /// Identity of the comparison ledger.
    pub b_id: String,
    /// Per-cause totals side by side, every cause in display order.
    pub rows: Vec<CauseDelta>,
    /// Priced seconds of the baseline.
    pub a_seconds: f64,
    /// Priced seconds of the comparison.
    pub b_seconds: f64,
    /// Tile-attributed explanation sentences, largest byte swing
    /// first.
    pub explanations: Vec<String>,
}

/// Eviction forensics of one array's capacity misses: how many
/// re-reads paid for an eviction, the median eviction→re-read gap in
/// schedule steps, and how many evictions happened while the cache
/// knew a next use was scheduled.
fn capacity_detail(l: &ProvenanceLedger, array: u32) -> (u64, Option<u64>, u64) {
    let mut gaps: Vec<u64> = Vec::new();
    let mut misses = 0u64;
    let mut foreseen = 0u64;
    for e in &l.events {
        if e.array != array || e.cause != IoCause::CapacityMiss {
            continue;
        }
        misses += 1;
        if let Some(d) = e.evict {
            gaps.push(e.step.saturating_sub(d.evicted_at_step));
            if d.next_use_at_eviction.is_some() {
                foreseen += 1;
            }
        }
    }
    gaps.sort_unstable();
    let median = (!gaps.is_empty()).then(|| gaps[gaps.len() / 2]);
    (misses, median, foreseen)
}

/// Mean elements per call of one `(array, cause)` cell — the run
/// length the layout achieves for that traffic class.
fn mean_call_elems(l: &ProvenanceLedger, array: u32, cause: IoCause) -> f64 {
    let (calls, elems) = l
        .events
        .iter()
        .filter(|e| e.array == array && e.cause == cause)
        .fold((0u64, 0u64), |(c, n), e| (c + e.calls, n + e.elems));
    if calls == 0 {
        0.0
    } else {
        elems as f64 / calls as f64
    }
}

fn explain_one(
    a: &ProvenanceLedger,
    b: &ProvenanceLedger,
    b_id: &str,
    a_id: &str,
    cell: (u32, IoCause, i64, i64),
) -> String {
    let (array, cause, delta, call_delta) = cell;
    let name = array_name(
        if a.arrays.len() >= b.arrays.len() {
            a
        } else {
            b
        },
        array,
    );
    if delta == 0 && call_delta != 0 {
        // Byte-neutral call swing: the paper's headline optimization.
        // The same regions move, but the file layout now matches (or
        // no longer matches) the traversal, changing how many elements
        // each I/O call batches.
        let improved = call_delta < 0;
        return format!(
            "{b_id} {} {} {} I/O calls on array {name} with bytes unchanged: contiguous \
             runs {} from {:.1} to {:.1} elems per call{}.",
            if improved { "eliminates" } else { "adds" },
            commas(call_delta.unsigned_abs()),
            cause.label(),
            if improved { "lengthen" } else { "shorten" },
            mean_call_elems(a, array, cause),
            mean_call_elems(b, array, cause),
            if improved {
                " \u{2014} the file layout now matches the traversal"
            } else {
                ""
            }
        );
    }
    let improved = delta < 0;
    let verb = match (cause, improved) {
        (IoCause::Compulsory, _) => {
            if improved {
                "trims"
            } else {
                "grows"
            }
        }
        (_, true) => "eliminates",
        (_, false) => "adds",
    };
    let amount = commas(delta.unsigned_abs());
    let mut s = format!(
        "{b_id} {verb} {amount} {} bytes on array {name}",
        cause.label()
    );
    match cause {
        IoCause::CapacityMiss => {
            // The forensics come from whichever side still pays the
            // misses: the baseline when the comparison eliminated
            // them, the comparison when it introduced them.
            let (side, side_id) = if improved { (a, a_id) } else { (b, b_id) };
            let (misses, median, foreseen) = capacity_detail(side, array);
            let _ = write!(s, " because {side_id} re-read {misses} evicted regions",);
            if let Some(g) = median {
                let _ = write!(s, " (median eviction\u{2192}re-read gap {g} steps");
                if foreseen > 0 {
                    let _ = write!(s, ", {foreseen} evicted despite a scheduled next use");
                }
                s.push(')');
            }
            if improved {
                s.push_str("; the reuse distance now fits the cache");
            } else {
                s.push_str("; the reuse distance no longer fits the cache");
            }
        }
        IoCause::Compulsory => {
            let count = |l: &ProvenanceLedger| {
                l.events
                    .iter()
                    .filter(|e| e.array == array && e.cause == IoCause::Compulsory)
                    .count()
            };
            let _ = write!(
                s,
                " (first-touch traffic: the layout change reshapes tile geometry, {} \u{2192} {} cold regions)",
                count(a),
                count(b)
            );
        }
        IoCause::PrefetchUseful => {
            s.push_str(" (reads served asynchronously by the prefetcher)");
        }
        IoCause::PrefetchWasted => {
            let count = |l: &ProvenanceLedger| {
                l.events
                    .iter()
                    .filter(|e| e.array == array && e.cause == IoCause::PrefetchWasted)
                    .count()
            };
            let _ = write!(
                s,
                " (deliveries evicted or unconsumed: {} \u{2192} {})",
                count(a),
                count(b)
            );
        }
        IoCause::WriteRewrite => {
            s.push_str(
                " (the same regions written more than once; a tighter schedule batches them)",
            );
        }
        IoCause::WriteBack => {
            s.push_str(" (first write-back of each tile region)");
        }
        IoCause::ReplayRead | IoCause::ReplayWrite => {
            s.push_str(" (recovery-machinery traffic: journal pre-images and rollback)");
        }
        IoCause::ChecksumOverhead => {
            s.push_str(" (integrity sidecar: CRC verification and refresh)");
        }
        IoCause::ParityWrite => {
            s.push_str(
                " (redundancy upkeep: parity read-modify-write riding along each data write)",
            );
        }
        IoCause::DegradedReconstruct => {
            s.push_str(" (degraded-mode traffic: lost chunks rebuilt by XOR from surviving peers)");
        }
        IoCause::ScrubRead => {
            s.push_str(" (background scrubber verifying parity groups against their data)");
        }
    }
    s.push('.');
    s
}

/// Compares two ledgers of the same program — typically two compiled
/// versions — and explains every per-(array, cause) byte swing,
/// largest first. The headline use: *why* does `c-opt` move fewer
/// bytes than `col`, tile region by tile region.
#[must_use]
pub fn diff_ledgers(a: &ProvenanceLedger, b: &ProvenanceLedger, disk: &DiskParams) -> LedgerDiff {
    let (ta, tb) = (a.totals(), b.totals());
    let a_id = if a.version.is_empty() {
        identity(a)
    } else {
        a.version.clone()
    };
    let b_id = if b.version.is_empty() {
        identity(b)
    } else {
        b.version.clone()
    };
    let rows: Vec<CauseDelta> = IoCause::ALL
        .iter()
        .map(|&cause| CauseDelta {
            cause,
            a: cause_total(&ta, cause),
            b: cause_total(&tb, cause),
        })
        .collect();

    // Every (array, cause) cell that changed — in bytes or, when
    // bytes are neutral, in call count — by descending swing.
    let mut cells: Vec<(u32, IoCause, i64, i64)> = Vec::new();
    let keys: std::collections::BTreeSet<(u32, IoCause)> =
        ta.keys().chain(tb.keys()).copied().collect();
    for (array, cause) in keys {
        let (ab, ac) = ta
            .get(&(array, cause))
            .map_or((0, 0), |t| (t.bytes() as i64, t.calls as i64));
        let (bb, bc) = tb
            .get(&(array, cause))
            .map_or((0, 0), |t| (t.bytes() as i64, t.calls as i64));
        if ab != bb || ac != bc {
            cells.push((array, cause, bb - ab, bc - ac));
        }
    }
    cells.sort_by_key(|&(_, _, db, dc)| std::cmp::Reverse((db.unsigned_abs(), dc.unsigned_abs())));
    let explanations = cells
        .iter()
        .map(|&cell| explain_one(a, b, &b_id, &a_id, cell))
        .collect();

    LedgerDiff {
        a_id,
        b_id,
        rows,
        a_seconds: price_ledger(a, disk),
        b_seconds: price_ledger(b, disk),
        explanations,
    }
}

impl LedgerDiff {
    /// Net byte change across all cause buckets (`b - a`).
    #[must_use]
    fn net_bytes(&self) -> i64 {
        self.rows.iter().map(CauseDelta::delta_bytes).sum()
    }

    /// The rendered comparison: side-by-side cause table, priced
    /// seconds, and the explanation list.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== ledger diff: {} \u{2192} {}", self.a_id, self.b_id);
        let _ = writeln!(
            out,
            "{:<18} {:>14} {:>14} {:>15} {:>13}",
            "cause",
            self.a_id.chars().take(14).collect::<String>(),
            self.b_id.chars().take(14).collect::<String>(),
            "delta(bytes)",
            "calls"
        );
        for row in &self.rows {
            if row.a.bytes() == 0 && row.b.bytes() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<18} {:>14} {:>14} {:>15} {:>13}",
                row.cause.label(),
                commas(row.a.bytes()),
                commas(row.b.bytes()),
                signed_commas(row.delta_bytes()),
                format!("{}\u{2192}{}", row.a.calls, row.b.calls)
            );
        }
        let _ = writeln!(
            out,
            "{:<18} {:>13.4}s {:>13.4}s {:>15}",
            "priced",
            self.a_seconds,
            self.b_seconds,
            signed_commas(self.net_bytes())
        );
        if !self.explanations.is_empty() {
            let _ = writeln!(out, "\nwhy:");
            for e in &self.explanations {
                let _ = writeln!(out, "  - {e}");
            }
        }
        out
    }
}

/// Registers the ledger's per-cause byte/call totals as counters (the
/// classification is deterministic on the synchronous executor, so
/// bench-compare can gate them exactly) plus priced seconds as a
/// gauge. `labels` carry the run identity (`kernel`, `version`, ...).
pub fn register_metrics(
    ledger: &ProvenanceLedger,
    disk: &DiskParams,
    registry: &ooc_metrics::Registry,
    labels: &[(&str, &str)],
) {
    let totals = ledger.totals();
    for cause in IoCause::ALL {
        let t = cause_total(&totals, cause);
        if t.events == 0 && t.elems == 0 {
            continue;
        }
        let mut lv: Vec<(&str, &str)> = labels.to_vec();
        let name = cause.label();
        lv.push(("cause", name));
        registry.counter_add("ledger_bytes_total", &lv, t.bytes());
        registry.counter_add("ledger_calls_total", &lv, t.calls);
        registry.counter_add("ledger_events_total", &lv, t.events);
    }
    registry.counter_add("ledger_journal_bytes_total", labels, ledger.journal_bytes);
    registry.gauge_set("ledger_priced_seconds", labels, price_ledger(ledger, disk));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_runtime::{LedgerEvent, LedgerRecorder, Region};

    fn region(lo: i64, hi: i64) -> Region {
        Region::new(vec![lo], vec![hi])
    }

    fn event(array: u32, cause: IoCause, elems: u64, step: u64) -> LedgerEvent {
        LedgerEvent {
            array,
            cause,
            calls: 1,
            elems,
            region: region(1, elems as i64),
            nest: 0,
            step,
            evict: None,
        }
    }

    fn sample(version: &str, capacity_miss_elems: u64) -> ProvenanceLedger {
        let rec = LedgerRecorder::new();
        rec.set_run("trans", version);
        rec.set_executor("sync");
        rec.set_array(0, "U");
        rec.set_array(1, "V");
        rec.record(event(0, IoCause::Compulsory, 64, 0));
        if capacity_miss_elems > 0 {
            let mut e = event(0, IoCause::CapacityMiss, capacity_miss_elems, 9);
            e.evict = Some(ooc_runtime::EvictDetail {
                evicted_at_step: 2,
                next_use_at_eviction: Some(9),
            });
            rec.record(e);
        }
        rec.record(event(1, IoCause::WriteBack, 64, 1));
        rec.take()
    }

    #[test]
    fn commas_group_digits() {
        assert_eq!(commas(0), "0");
        assert_eq!(commas(999), "999");
        assert_eq!(commas(14336), "14,336");
        assert_eq!(commas(1234567), "1,234,567");
        assert_eq!(signed_commas(-14336), "-14,336");
        assert_eq!(signed_commas(7), "+7");
    }

    #[test]
    fn render_shows_causes_and_prices() {
        let l = sample("col", 1792);
        let text = render_ledger(&l, &DiskParams::default());
        assert!(text.contains("capacity_miss"), "{text}");
        assert!(text.contains("14,336"), "bytes of the miss bucket: {text}");
        assert!(text.contains("trans col"), "{text}");
        assert!(text.contains("U"), "{text}");
    }

    #[test]
    fn diff_explains_capacity_miss_elimination() {
        let a = sample("col", 1792);
        let b = sample("c-opt", 0);
        let diff = diff_ledgers(&a, &b, &DiskParams::default());
        assert_eq!(diff.net_bytes(), -14336);
        let text = diff.render();
        assert!(
            text.contains("c-opt eliminates 14,336 capacity_miss bytes on array U"),
            "{text}"
        );
        assert!(text.contains("re-read 1 evicted regions"), "{text}");
        assert!(
            text.contains("median eviction\u{2192}re-read gap 7 steps"),
            "{text}"
        );
        assert!(text.contains("reuse distance now fits the cache"), "{text}");
        assert!(diff.b_seconds < diff.a_seconds, "{diff:?}");
    }

    #[test]
    fn metrics_registration_gates_cause_bytes() {
        let l = sample("col", 128);
        let registry = ooc_metrics::Registry::new();
        register_metrics(
            &l,
            &DiskParams::default(),
            &registry,
            &[("kernel", "trans"), ("version", "col")],
        );
        let snap = ooc_metrics::Snapshot::capture("test", &registry);
        let v = snap
            .get(
                "ledger_bytes_total",
                &[
                    ("cause", "compulsory"),
                    ("kernel", "trans"),
                    ("version", "col"),
                ],
            )
            .expect("registered");
        assert_eq!(v, &ooc_metrics::Value::Counter(64 * 8));
    }
}
