//! Property tests of the write intent journal: for arbitrary op
//! sequences and arbitrary crash points (byte-level journal
//! truncation), checkpoint rollback restores exactly the
//! before-the-watermark state, replaying a rollback is idempotent,
//! and the committed records recovery trusts verify by checksum.
//!
//! The model is one array split into non-overlapping blocks; each op
//! follows the executor's protocol — append intent (with pre-image),
//! write data, optionally commit.

use ooc_runtime::{crc64_f64s, parse_journal, rollback, Journal, MemLog, MemStore, Region, Store};
use proptest::prelude::*;

const BLOCKS: u64 = 6;
const BLOCK: u64 = 4;
const ELEMS: u64 = BLOCKS * BLOCK;

fn block_region(b: u64) -> Region {
    let lo = i64::try_from(b * BLOCK).expect("offset");
    Region::new(
        vec![lo],
        vec![lo + i64::try_from(BLOCK).expect("block") - 1],
    )
}

fn op_values(i: usize, salt: i64) -> Vec<f64> {
    (0..BLOCK)
        .map(|j| salt as f64 + i as f64 * 0.25 + j as f64 * 0.0625)
        .collect()
}

fn initial_contents() -> Vec<f64> {
    (0..ELEMS).map(|e| e as f64 * 0.5 + 1.0).collect()
}

fn fresh_store() -> MemStore {
    let mut s = MemStore::new(ELEMS);
    s.write_run(0, &initial_contents()).expect("seed");
    s
}

fn contents(s: &dyn Store) -> Vec<f64> {
    let mut buf = vec![0.0; usize::try_from(ELEMS).expect("size")];
    s.read_run(0, &mut buf).expect("full read");
    buf
}

/// The model's ground truth: initial contents with the writes of
/// `ops[..n]` applied.
fn reference_after(ops: &[(u64, i64, u8)], n: usize) -> Vec<f64> {
    let mut v = initial_contents();
    for (i, &(block, salt, _)) in ops.iter().take(n).enumerate() {
        let at = usize::try_from(block * BLOCK).expect("offset");
        v[at..at + usize::try_from(BLOCK).expect("block")].copy_from_slice(&op_values(i, salt));
    }
    v
}

/// Runs the full op sequence through the intent → write → commit
/// protocol. Returns the journal log and, per op, the journal byte
/// length once that op's records were fully appended.
fn run_ops(store: &mut MemStore, ops: &[(u64, i64, u8)]) -> (MemLog, Vec<usize>) {
    let log = MemLog::new();
    let journal = Journal::new(Box::new(log.clone()), 0);
    let mut marks = Vec::with_capacity(ops.len());
    for (i, &(block, salt, commit)) in ops.iter().enumerate() {
        let region = block_region(block);
        let vals = op_values(i, salt);
        let mut pre = vec![0.0; usize::try_from(BLOCK).expect("block")];
        store.read_run(block * BLOCK, &mut pre).expect("pre-image");
        let seq = journal.intent(0, &region, &vals, &pre).expect("intent");
        assert_eq!(seq, i as u64, "sequence numbers are dense and ordered");
        store.write_run(block * BLOCK, &vals).expect("data write");
        if commit != 0 {
            journal.commit(seq).expect("commit");
        }
        marks.push(log.snapshot().len());
    }
    (log, marks)
}

/// The recovery write path: pre-images land back in the store.
fn undo_into(store: &mut MemStore) -> impl FnMut(u32, &Region, &[f64]) -> std::io::Result<()> + '_ {
    |_, region, pre| {
        let at = u64::try_from(region.lo[0]).expect("offset");
        store.write_run(at, pre)
    }
}

/// `(block, salt, commit-flag)` triples; the flag is a `0..2` integer
/// because the vendored proptest subset has no bool strategy.
fn ops_strategy() -> impl Strategy<Value = Vec<(u64, i64, u8)>> {
    proptest::collection::vec((0u64..BLOCKS, -64i64..64, 0u8..2), 1..24)
}

proptest! {
    /// Checkpoint rollback: undoing every intent at or past watermark
    /// `w` restores exactly the state after the first `w` ops, and
    /// replaying the same rollback is a no-op (pre-images are
    /// absolute, not deltas).
    #[test]
    fn rollback_restores_any_watermark_and_is_idempotent(
        ops in ops_strategy(),
        w_raw in 0usize..64,
    ) {
        let mut store = fresh_store();
        let (log, _) = run_ops(&mut store, &ops);
        let scan = parse_journal(&log.snapshot());
        prop_assert!(!scan.torn_tail);
        prop_assert_eq!(scan.next_seq, ops.len() as u64);

        let w = w_raw % (ops.len() + 1);
        let undone = rollback(&scan.intents_after(w as u64), &mut undo_into(&mut store))
            .expect("rollback");
        prop_assert_eq!(undone, (ops.len() - w) as u64);
        let recovered = contents(&store);
        prop_assert_eq!(&recovered, &reference_after(&ops, w));

        let again = rollback(&scan.intents_after(w as u64), &mut undo_into(&mut store))
            .expect("second rollback");
        prop_assert_eq!(again, undone);
        prop_assert_eq!(&contents(&store), &recovered);
    }

    /// Crash anywhere: truncate the journal at an arbitrary *byte*
    /// (mid-record tails must parse as torn, never as garbage), build
    /// the store state such a crash can leave — every fully-journaled
    /// write landed except possibly the last, which may be absent,
    /// torn, or complete — and recover. The result is exactly the
    /// state at the watermark, for every watermark the surviving
    /// journal prefix covers.
    #[test]
    fn any_crash_point_prefix_recovers_consistent(
        ops in ops_strategy(),
        cut_pm in 0u64..1001,
        last_landed in 0u8..3,
        w_raw in 0usize..64,
    ) {
        let mut full_store = fresh_store();
        let (log, _) = run_ops(&mut full_store, &ops);
        let bytes = log.snapshot();
        let cut = usize::try_from(bytes.len() as u64 * cut_pm / 1000).expect("cut");
        let scan = parse_journal(&bytes[..cut.min(bytes.len())]);
        let m = scan.intents().len();
        prop_assert!(m <= ops.len());

        // The crashed store: ops before the last surviving intent all
        // wrote (the protocol appends op k+1's intent only after op
        // k's data write returned); the last surviving intent's write
        // may not have happened, may be torn, or may have completed.
        let mut store = fresh_store();
        let landed = match last_landed {
            0 => m.saturating_sub(1),
            _ => m,
        };
        for (i, &(block, salt, _)) in ops.iter().take(landed).enumerate() {
            let mut vals = op_values(i, salt);
            if last_landed == 1 && i + 1 == landed {
                vals.truncate(vals.len() / 2); // torn prefix of the dying write
            }
            store.write_run(block * BLOCK, &vals).expect("crashed write");
        }

        // Any checkpoint watermark the surviving journal covers: the
        // manifest only records a watermark after the journal records
        // behind it are durable, so w <= m always holds in the system —
        // and a checkpoint never covers an op whose data write did not
        // complete (checkpoints follow the flush), so if the last
        // surviving write is absent or torn the watermark sits below it.
        let cover = if last_landed == 2 { m } else { m.saturating_sub(1) };
        let w = w_raw % (cover + 1);
        rollback(&scan.intents_after(w as u64), &mut undo_into(&mut store)).expect("rollback");
        prop_assert_eq!(&contents(&store), &reference_after(&ops, w));
    }

    /// Resume discipline: whatever byte the crash tore the journal at,
    /// truncating to the scan's valid prefix and then appending new
    /// records keeps the log fully parseable — no surviving record is
    /// lost and nothing merges into the torn tail. (This is the
    /// invariant a *second* crash recovery depends on.)
    #[test]
    fn truncated_valid_prefix_accepts_appends_cleanly(
        ops in ops_strategy(),
        cut_pm in 0u64..1001,
    ) {
        let mut store = fresh_store();
        let (log, _) = run_ops(&mut store, &ops);
        let bytes = log.snapshot();
        let cut = usize::try_from(bytes.len() as u64 * cut_pm / 1000).expect("cut");
        let torn = &bytes[..cut.min(bytes.len())];
        let scan = parse_journal(torn);
        log.replace(torn.to_vec());

        let mut resumed_log: Box<dyn ooc_runtime::LogStore> = Box::new(log.clone());
        resumed_log.truncate_to(scan.valid_len).expect("truncate");
        let journal = Journal::new(resumed_log, scan.next_seq);
        let region = block_region(0);
        let vals = op_values(0, 1);
        let seq = journal.intent(0, &region, &vals, &vals).expect("intent");
        prop_assert_eq!(seq, scan.next_seq, "resume continues the sequence");
        journal.commit(seq).expect("commit");

        let rescan = parse_journal(&log.snapshot());
        prop_assert!(!rescan.torn_tail, "resumed log must reparse clean");
        prop_assert_eq!(rescan.records.len(), scan.records.len() + 2);
        prop_assert_eq!(&rescan.records[..scan.records.len()], &scan.records[..]);
        prop_assert!(rescan.intents().iter().any(|w| w.seq == seq));
    }

    /// The uncommitted-rollback flavor (what the pipelined executor's
    /// fence enables): undoing only uncommitted intents leaves every
    /// block at its latest *committed* write, whose stored checksum
    /// must match the block's recovered bits.
    #[test]
    fn latest_committed_checksums_verify_after_uncommitted_rollback(
        ops_raw in ops_strategy(),
    ) {
        // Crash discipline: per block, once an intent is uncommitted
        // every later intent on that block is too — a crash leaves an
        // in-flight *suffix*, it cannot lose a commit and then commit
        // a later write to the same region.
        let mut ops = ops_raw;
        let mut dead = [false; BLOCKS as usize];
        for op in &mut ops {
            let b = usize::try_from(op.0).expect("block");
            if op.2 == 0 {
                dead[b] = true;
            }
            if dead[b] {
                op.2 = 0;
            }
        }
        let mut store = fresh_store();
        let (log, _) = run_ops(&mut store, &ops);
        let scan = parse_journal(&log.snapshot());
        rollback(&scan.uncommitted(), &mut undo_into(&mut store)).expect("rollback");

        let latest = scan.latest_committed();
        for ((_, region), intent) in &latest {
            let at = u64::try_from(region.lo[0]).expect("offset");
            let mut buf = vec![0.0; usize::try_from(BLOCK).expect("block")];
            store.read_run(at, &mut buf).expect("read block");
            prop_assert_eq!(
                crc64_f64s(&buf),
                intent.checksum,
                "block at {} does not match its committed checksum",
                at
            );
        }
        // Blocks never committed must be back at their initial state.
        let recovered = contents(&store);
        let init = initial_contents();
        for b in 0..BLOCKS {
            let key = (0u32, block_region(b));
            if !latest.contains_key(&key) {
                let at = usize::try_from(b * BLOCK).expect("offset");
                let end = at + usize::try_from(BLOCK).expect("block");
                prop_assert_eq!(&recovered[at..end], &init[at..end]);
            }
        }
    }
}
