//! The write intent journal: an append-only undo log that makes tile
//! write-back crash-consistent.
//!
//! Protocol (write-ahead + undo):
//!
//! 1. **Intent** — before a tile region is written back, append
//!    `{seq, array, region, checksum-of-new-data, pre-image}`. The
//!    pre-image is the region's contents just before the write, so
//!    rolling intents back in reverse order restores checkpoint state
//!    exactly.
//! 2. Perform the store write.
//! 3. **Commit** — append `{seq}`.
//!
//! The same log carries the checkpoints: once every written tile is
//! durable, the executor appends a record stamped with the sequence the
//! next intent will get (its *watermark*). One line per record:
//!
//! ```text
//! I <seq> <array> <crc> <lo> <hi> <n> <pre>   intent (coordinates `;`-joined, pre `,`-joined or `-`)
//! C <seq>                                     commit
//! S <watermark>                               seeding completed
//! K <nest> <step> <watermark>                 <step> steps of <nest> are durable
//! ```
//!
//! `K nest+1 0 w` marks a nest fully done; `K nests.len() 0 w` marks the
//! whole program done. A crash at any point leaves a log whose *torn
//! tail* (a partial final record) is tolerated by [`parse_journal`];
//! recovery restarts from the last `S`/`K` record
//! ([`JournalScan::boundary`]) and applies the pre-images of every
//! intent at or past its watermark in reverse sequence order
//! ([`rollback`]), which is idempotent — replaying the scan twice lands
//! in the same state, the property `journal_proptests.rs` drives at
//! random.
//!
//! `f64` values are serialized as their 16-hex-digit bit patterns, so
//! every value (NaN payloads included) round-trips exactly.

use crate::checksum::crc64_f64s;
use crate::layout::Region;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Byte-level backing of a journal: append-only writes plus a full
/// scan. Implementations decide persistence (memory for tests, a file
/// for real runs).
pub trait LogStore: Send {
    /// Appends `bytes` at the end of the log.
    ///
    /// # Errors
    /// Propagates I/O errors.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Reads the whole log.
    ///
    /// # Errors
    /// Propagates I/O errors.
    fn read_all(&self) -> io::Result<Vec<u8>>;

    /// Empties the log.
    ///
    /// # Errors
    /// Propagates I/O errors.
    fn truncate(&mut self) -> io::Result<()>;

    /// Shortens the log to its first `len` bytes — how recovery drops
    /// a torn tail before appending new records (otherwise the first
    /// new append would merge with the partial, newline-less final
    /// record into one unparseable line).
    ///
    /// # Errors
    /// Propagates I/O errors.
    fn truncate_to(&mut self, len: u64) -> io::Result<()>;
}

/// An in-memory [`LogStore`]; clones share the same bytes, so a
/// handle kept outside a simulated crash still sees everything the
/// dead run appended.
#[derive(Debug, Clone, Default)]
pub struct MemLog(Arc<Mutex<Vec<u8>>>);

impl MemLog {
    /// An empty shared log.
    #[must_use]
    pub fn new() -> Self {
        MemLog::default()
    }

    /// A copy of the current contents.
    ///
    /// # Panics
    /// Panics if the log mutex was poisoned.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        self.0.lock().expect("log lock").clone()
    }

    /// Replaces the contents (test plumbing: crash-point prefixes).
    ///
    /// # Panics
    /// Panics if the log mutex was poisoned.
    pub fn replace(&self, bytes: Vec<u8>) {
        *self.0.lock().expect("log lock") = bytes;
    }
}

impl LogStore for MemLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.lock().expect("log lock").extend_from_slice(bytes);
        Ok(())
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        Ok(self.snapshot())
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.0.lock().expect("log lock").clear();
        Ok(())
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.0
            .lock()
            .expect("log lock")
            .truncate(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(())
    }
}

/// A file-backed [`LogStore`] at a fixed path; a missing file reads
/// as an empty log.
///
/// By default appends reach the OS page cache but are **not** fsynced:
/// records survive a process crash (the scope the fault matrix tests)
/// but not a kernel panic or power loss. [`FileLog::synced`] adds a
/// `sync_all` per append for callers that need the log itself on
/// physical media — note full power-loss consistency would also
/// require syncing the data files before each checkpoint record.
#[derive(Debug, Clone)]
pub struct FileLog {
    path: PathBuf,
    sync: bool,
}

impl FileLog {
    /// A log at `path` (created on first append), durable across
    /// process crashes only.
    #[must_use]
    pub fn new(path: &Path) -> Self {
        FileLog {
            path: path.to_path_buf(),
            sync: false,
        }
    }

    /// A log at `path` that fsyncs every append.
    #[must_use]
    pub fn synced(path: &Path) -> Self {
        FileLog {
            path: path.to_path_buf(),
            sync: true,
        }
    }
}

impl LogStore for FileLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(bytes)?;
        if self.sync {
            f.sync_all()
        } else {
            f.flush()
        }
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn truncate(&mut self) -> io::Result<()> {
        std::fs::write(&self.path, b"")
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        match std::fs::OpenOptions::new().write(true).open(&self.path) {
            Ok(f) => {
                f.set_len(len)?;
                if self.sync {
                    f.sync_all()?;
                }
                Ok(())
            }
            // A missing log is already an empty prefix.
            Err(e) if e.kind() == io::ErrorKind::NotFound && len == 0 => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// One write intent: the region about to be written, the checksum of
/// the *new* data (for post-crash verification), and the pre-image
/// that undoes it.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteIntent {
    /// Journal sequence number (unique, ascending).
    pub seq: u64,
    /// Array index the write targets.
    pub array: u32,
    /// Region being written.
    pub region: Region,
    /// CRC64 of the new data's bit patterns ([`crc64_f64s`]).
    pub checksum: u64,
    /// The region's prior contents (undo data).
    pub pre: Vec<f64>,
}

/// A parsed journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A write intent.
    Intent(WriteIntent),
    /// A commit of the intent with this sequence number.
    Commit(u64),
    /// Seeding completed; journal watermark at that point.
    Seeded {
        /// Journal sequence the next intent will get.
        watermark: u64,
    },
    /// `step` global tile steps of `nest` are durable (all earlier
    /// nests complete).
    Checkpoint {
        /// Nest index (`nests.len()` = whole program done).
        nest: usize,
        /// Global steps completed within the nest (across iterations).
        step: u64,
        /// Journal sequence the next intent will get.
        watermark: u64,
    },
}

/// The last consistent execution boundary a journal records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundary {
    /// First nest that is not fully durable.
    pub nest: usize,
    /// Global steps of that nest already durable.
    pub step: u64,
    /// Journal watermark: intents with `seq >= watermark` must be
    /// rolled back.
    pub watermark: u64,
}

/// The boundary an `S` or `K` record marks.
fn boundary_of(r: &JournalRecord) -> Option<Boundary> {
    match *r {
        JournalRecord::Seeded { watermark } => Some(Boundary {
            nest: 0,
            step: 0,
            watermark,
        }),
        JournalRecord::Checkpoint {
            nest,
            step,
            watermark,
        } => Some(Boundary {
            nest,
            step,
            watermark,
        }),
        JournalRecord::Intent(_) | JournalRecord::Commit(_) => None,
    }
}

/// The writer side of the journal: a shared handle, so every write
/// path (main thread, shard workers, write-behind writers) and the
/// checkpoints append to one log under one sequence. Clones share the
/// writer.
#[derive(Clone)]
pub struct Journal(Arc<Mutex<Writer>>);

struct Writer {
    log: Box<dyn LogStore>,
    next_seq: u64,
    intents: u64,
    commits: u64,
}

impl Journal {
    /// A journal appending to `log`, numbering intents from `next_seq`:
    /// 0 for an empty log, a prior scan's [`JournalScan::next_seq`] to
    /// resume one.
    #[must_use]
    pub fn new(log: Box<dyn LogStore>, next_seq: u64) -> Self {
        Journal(Arc::new(Mutex::new(Writer {
            log,
            next_seq,
            intents: 0,
            commits: 0,
        })))
    }

    fn writer(&self) -> MutexGuard<'_, Writer> {
        self.0.lock().expect("journal lock")
    }

    /// Appends a write intent for `region` of `array`, returning its
    /// sequence number. `new_data` is checksummed; `pre` is stored as
    /// the undo image.
    ///
    /// # Errors
    /// Propagates log I/O errors.
    ///
    /// # Panics
    /// Panics if the journal mutex was poisoned.
    pub fn intent(
        &self,
        array: u32,
        region: &Region,
        new_data: &[f64],
        pre: &[f64],
    ) -> io::Result<u64> {
        let mut w = self.writer();
        let seq = w.next_seq;
        w.next_seq += 1;
        let mut line = format!(
            "I {seq} {array} {:016x} {} {} {}",
            crc64_f64s(new_data),
            join_coords(&region.lo),
            join_coords(&region.hi),
            pre.len(),
        );
        if pre.is_empty() {
            line.push_str(" -");
        } else {
            line.push(' ');
            for (i, v) in pre.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{:016x}", v.to_bits()));
            }
        }
        line.push('\n');
        w.log.append(line.as_bytes())?;
        w.intents += 1;
        Ok(seq)
    }

    /// Appends a commit record for `seq`.
    ///
    /// # Errors
    /// Propagates log I/O errors.
    ///
    /// # Panics
    /// Panics if the journal mutex was poisoned.
    pub fn commit(&self, seq: u64) -> io::Result<()> {
        let mut w = self.writer();
        w.log.append(format!("C {seq}\n").as_bytes())?;
        w.commits += 1;
        Ok(())
    }

    /// Appends the `S` record (seeding completed) with the current
    /// watermark.
    ///
    /// # Errors
    /// Propagates log I/O errors.
    ///
    /// # Panics
    /// Panics if the journal mutex was poisoned.
    pub fn seeded(&self) -> io::Result<()> {
        let mut w = self.writer();
        let line = format!("S {}\n", w.next_seq);
        w.log.append(line.as_bytes())
    }

    /// Appends a `K` record (`step` steps of `nest` durable), returning
    /// the watermark it carries. Callers must have made every written
    /// tile durable first.
    ///
    /// # Errors
    /// Propagates log I/O errors.
    ///
    /// # Panics
    /// Panics if the journal mutex was poisoned.
    pub fn checkpoint(&self, nest: usize, step: u64) -> io::Result<u64> {
        let mut w = self.writer();
        let wm = w.next_seq;
        w.log.append(format!("K {nest} {step} {wm}\n").as_bytes())?;
        Ok(wm)
    }

    /// `(intents, commits)` appended through this writer (not counting
    /// a resumed log's past).
    ///
    /// # Panics
    /// Panics if the journal mutex was poisoned.
    #[must_use]
    pub fn written(&self) -> (u64, u64) {
        let w = self.writer();
        (w.intents, w.commits)
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let w = self.writer();
        f.debug_struct("Journal")
            .field("next_seq", &w.next_seq)
            .field("intents", &w.intents)
            .field("commits", &w.commits)
            .finish_non_exhaustive()
    }
}

fn join_coords(cs: &[i64]) -> String {
    cs.iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_coords(s: &str) -> Option<Vec<i64>> {
    s.split(';').map(|c| c.parse().ok()).collect()
}

fn parse_line(line: &str) -> Option<JournalRecord> {
    let mut f = line.split_ascii_whitespace();
    match f.next()? {
        "C" => {
            let seq = f.next()?.parse().ok()?;
            if f.next().is_some() {
                return None;
            }
            Some(JournalRecord::Commit(seq))
        }
        "I" => {
            // The largest sequence has no successor to resume from.
            let seq = f.next()?.parse().ok().filter(|&s| s < u64::MAX)?;
            let array = f.next()?.parse().ok()?;
            let checksum = u64::from_str_radix(f.next()?, 16).ok()?;
            let lo = parse_coords(f.next()?)?;
            let hi = parse_coords(f.next()?)?;
            if lo.len() != hi.len() {
                return None;
            }
            let n: usize = f.next()?.parse().ok()?;
            let pre_field = f.next()?;
            let pre: Vec<f64> = if pre_field == "-" {
                Vec::new()
            } else {
                pre_field
                    .split(',')
                    .map(|h| u64::from_str_radix(h, 16).ok().map(f64::from_bits))
                    .collect::<Option<Vec<f64>>>()?
            };
            if pre.len() != n || f.next().is_some() {
                return None;
            }
            Some(JournalRecord::Intent(WriteIntent {
                seq,
                array,
                region: Region::new(lo, hi),
                checksum,
                pre,
            }))
        }
        "S" => {
            let watermark = f.next()?.parse().ok()?;
            if f.next().is_some() {
                return None;
            }
            Some(JournalRecord::Seeded { watermark })
        }
        "K" => {
            let nest = f.next()?.parse().ok()?;
            let step = f.next()?.parse().ok()?;
            let watermark = f.next()?.parse().ok()?;
            if f.next().is_some() {
                return None;
            }
            Some(JournalRecord::Checkpoint {
                nest,
                step,
                watermark,
            })
        }
        _ => None,
    }
}

/// Result of scanning a (possibly crash-torn) journal.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Records in log order.
    pub records: Vec<JournalRecord>,
    /// Whether a torn tail (partial final record) was dropped.
    pub torn_tail: bool,
    /// One past the highest intent sequence seen — what a resumed
    /// [`Journal::new`] continues from.
    pub next_seq: u64,
    /// Byte length of the parsed-valid prefix. When `torn_tail` is
    /// set, recovery must [`LogStore::truncate_to`] this length before
    /// appending, or the first new record merges with the partial tail
    /// into one unparseable line.
    pub valid_len: u64,
}

impl JournalScan {
    /// Sequence numbers with a commit record.
    #[must_use]
    fn committed_seqs(&self) -> BTreeSet<u64> {
        self.records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Commit(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    /// All intents in log order.
    #[must_use]
    pub fn intents(&self) -> Vec<&WriteIntent> {
        self.records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Intent(w) => Some(w),
                _ => None,
            })
            .collect()
    }

    /// Intents without a commit record — in-flight at the crash.
    #[must_use]
    pub fn uncommitted(&self) -> Vec<&WriteIntent> {
        let committed = self.committed_seqs();
        self.intents()
            .into_iter()
            .filter(|w| !committed.contains(&w.seq))
            .collect()
    }

    /// Intents at or past the checkpoint watermark `seq` (everything
    /// a checkpoint-rollback recovery must undo, committed or not).
    #[must_use]
    pub fn intents_after(&self, watermark: u64) -> Vec<&WriteIntent> {
        self.intents()
            .into_iter()
            .filter(|w| w.seq >= watermark)
            .collect()
    }

    /// The last recorded boundary; `None` means nothing durable exists
    /// yet (recovery re-runs from scratch, re-seeding everything).
    #[must_use]
    pub fn boundary(&self) -> Option<Boundary> {
        self.records.iter().rev().find_map(boundary_of)
    }

    /// All checkpoint watermarks in record order (checkpoint-interval
    /// boundaries in journal-sequence space).
    #[must_use]
    pub fn watermarks(&self) -> Vec<u64> {
        self.records
            .iter()
            .filter_map(|r| boundary_of(r).map(|b| b.watermark))
            .collect()
    }

    /// The last *committed* intent per exact region, keyed by
    /// `(array, region)` — the data recovery trusts (and verifies by
    /// checksum in the property tests).
    #[must_use]
    pub fn latest_committed(&self) -> BTreeMap<(u32, Region), &WriteIntent> {
        let committed = self.committed_seqs();
        let mut out: BTreeMap<(u32, Region), &WriteIntent> = BTreeMap::new();
        for w in self.intents() {
            if committed.contains(&w.seq) {
                out.insert((w.array, w.region.clone()), w);
            }
        }
        out
    }
}

/// Parses a journal byte stream, tolerating a torn tail: the first
/// unparseable or unterminated line and everything after it is
/// dropped (a crash mid-append cannot corrupt earlier records in an
/// append-only log).
#[must_use]
pub fn parse_journal(bytes: &[u8]) -> JournalScan {
    let mut scan = JournalScan::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            scan.torn_tail = true;
            break;
        };
        let line = &bytes[pos..pos + nl];
        pos += nl + 1;
        let parsed = std::str::from_utf8(line).ok().and_then(parse_line);
        match parsed {
            Some(r) => {
                if let JournalRecord::Intent(w) = &r {
                    scan.next_seq = scan.next_seq.max(w.seq + 1);
                }
                scan.records.push(r);
                scan.valid_len = pos as u64;
            }
            None => {
                scan.torn_tail = true;
                break;
            }
        }
    }
    scan
}

/// Applies `intents` in reverse sequence order through `write(array,
/// region, pre-image)`, restoring each pre-image — the undo pass of
/// recovery. Returns the number of tiles rolled back. Idempotent:
/// pre-images are absolute contents, so replaying the same rollback
/// lands in the same state.
///
/// # Errors
/// Propagates `write` errors.
pub fn rollback<F>(intents: &[&WriteIntent], write: &mut F) -> io::Result<u64>
where
    F: FnMut(u32, &Region, &[f64]) -> io::Result<()>,
{
    let mut ordered: Vec<&WriteIntent> = intents.to_vec();
    ordered.sort_by_key(|w| std::cmp::Reverse(w.seq));
    let mut n = 0u64;
    for w in ordered {
        write(w.array, &w.region, &w.pre)?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(lo: i64, hi: i64) -> Region {
        Region::new(vec![lo], vec![hi])
    }

    #[test]
    fn roundtrip_including_weird_floats() {
        let log = MemLog::new();
        let j = Journal::new(Box::new(log.clone()), 0);
        let pre = vec![f64::NAN, -0.0, f64::INFINITY, 1.5e-300];
        let s0 = j
            .intent(3, &region(5, 8), &[1.0, 2.0, 3.0, 4.0], &pre)
            .expect("intent");
        j.commit(s0).expect("commit");
        let s1 = j
            .intent(1, &region(1, 2), &[9.0, 9.5], &[0.25, 0.5])
            .expect("intent");
        assert_eq!((s0, s1), (0, 1));

        let scan = parse_journal(&log.snapshot());
        assert!(!scan.torn_tail);
        assert_eq!(scan.next_seq, 2);
        assert_eq!(scan.records.len(), 3);
        let intents = scan.intents();
        assert_eq!(intents[0].checksum, crc64_f64s(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(
            intents[0].pre[0].to_bits(),
            pre[0].to_bits(),
            "NaN payload survives"
        );
        assert_eq!(
            intents[0].pre[1].to_bits(),
            (-0.0f64).to_bits(),
            "-0.0 survives"
        );
        let un = scan.uncommitted();
        assert_eq!(un.len(), 1);
        assert_eq!(un[0].seq, 1);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let log = MemLog::new();
        let j = Journal::new(Box::new(log.clone()), 0);
        let s = j
            .intent(0, &region(1, 4), &[1.0; 4], &[0.0; 4])
            .expect("intent");
        j.commit(s).expect("commit");
        let full = log.snapshot();
        // Every proper prefix of the log parses, with the partial
        // final record dropped.
        for cut in 0..full.len() {
            let scan = parse_journal(&full[..cut]);
            assert!(scan.records.len() <= 2);
            if cut < full.len() {
                // Only complete records are kept; the count is a
                // function of how many newlines survived.
                let newlines = full[..cut].iter().filter(|&&b| b == b'\n').count();
                assert!(scan.records.len() <= newlines + 1);
            }
        }
        let whole = parse_journal(&full);
        assert!(!whole.torn_tail);
        assert_eq!(whole.records.len(), 2);
    }

    #[test]
    fn rollback_restores_pre_images_in_reverse() {
        // Two intents touching the same region: rollback must end on
        // the *older* pre-image (reverse order).
        let a = WriteIntent {
            seq: 0,
            array: 0,
            region: region(1, 2),
            checksum: 0,
            pre: vec![10.0, 11.0],
        };
        let b = WriteIntent {
            seq: 1,
            array: 0,
            region: region(1, 2),
            checksum: 0,
            pre: vec![20.0, 21.0],
        };
        let mut state = vec![99.0, 99.0];
        let n = rollback(&[&a, &b], &mut |_, _, pre| {
            state.copy_from_slice(pre);
            Ok(())
        })
        .expect("rollback");
        assert_eq!(n, 2);
        assert_eq!(state, vec![10.0, 11.0], "oldest pre-image wins");
    }

    #[test]
    fn truncating_torn_tail_keeps_later_appends_parseable() {
        let log = MemLog::new();
        let j = Journal::new(Box::new(log.clone()), 0);
        let s = j
            .intent(0, &region(1, 4), &[1.0; 4], &[0.0; 4])
            .expect("intent");
        j.commit(s).expect("commit");
        // A crash mid-append leaves a partial, newline-less record.
        log.clone().append(b"I 1 0 dead").expect("torn tail");
        let scan = parse_journal(&log.snapshot());
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 2);

        // Without truncation, the next append would merge with the
        // torn tail and the merged line would poison the log. After
        // truncate_to(valid_len) the journal stays fully parseable.
        log.clone().truncate_to(scan.valid_len).expect("truncate");
        let resumed = Journal::new(Box::new(log.clone()), scan.next_seq);
        let s2 = resumed
            .intent(0, &region(5, 8), &[2.0; 4], &[1.0; 4])
            .expect("intent after recovery");
        resumed.commit(s2).expect("commit after recovery");
        let rescan = parse_journal(&log.snapshot());
        assert!(!rescan.torn_tail, "truncated log reparses clean");
        assert_eq!(rescan.records.len(), 4);
        assert_eq!(rescan.next_seq, 2);
    }

    #[test]
    fn valid_len_covers_exactly_the_parsed_records() {
        let log = MemLog::new();
        let j = Journal::new(Box::new(log.clone()), 0);
        let s = j
            .intent(2, &region(0, 3), &[1.0; 4], &[0.5; 4])
            .expect("intent");
        j.commit(s).expect("commit");
        let full = log.snapshot();
        let whole = parse_journal(&full);
        assert!(!whole.torn_tail);
        assert_eq!(whole.valid_len, full.len() as u64);
        for cut in 0..full.len() {
            let scan = parse_journal(&full[..cut]);
            // The valid prefix reparses to the same records, torn-free.
            let len = usize::try_from(scan.valid_len).expect("len");
            assert!(len <= cut);
            let again = parse_journal(&full[..len]);
            assert!(!again.torn_tail);
            assert_eq!(again.records, scan.records);
        }
        // A complete but garbage line invalidates itself and the tail.
        log.clone().append(b"garbage\nC 0\n").expect("append");
        let scan = parse_journal(&log.snapshot());
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_len, full.len() as u64);
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn checkpoint_records_share_the_log_and_its_torn_tail_rule() {
        let log = MemLog::new();
        let j = Journal::new(Box::new(log.clone()), 0);
        j.seeded().expect("seeded");
        let s = j
            .intent(0, &region(1, 2), &[1.0; 2], &[0.0; 2])
            .expect("intent");
        j.commit(s).expect("commit");
        assert_eq!(j.checkpoint(0, 4).expect("checkpoint"), 1);
        assert_eq!(j.checkpoint(1, 0).expect("checkpoint"), 1);
        let full = log.snapshot();
        assert!(full.starts_with(b"S 0\nI 0 0 "));
        assert!(full.ends_with(b"\nC 0\nK 0 4 1\nK 1 0 1\n"));
        let whole = parse_journal(&full);
        assert!(!whole.torn_tail);
        assert_eq!(whole.records.len(), 5);
        let last = Boundary {
            nest: 1,
            step: 0,
            watermark: 1,
        };
        assert_eq!(whole.boundary(), Some(last));
        assert_eq!(whole.watermarks(), vec![0, 1, 1]);
        for cut in 0..full.len() {
            // A torn log still yields the last *complete* boundary, and
            // the valid prefix reparses torn-free to the same records.
            let scan = parse_journal(&full[..cut]);
            let len = usize::try_from(scan.valid_len).expect("len");
            assert!(len <= cut);
            assert_eq!(scan.boundary().is_some(), cut >= 4, "cut {cut}");
            let again = parse_journal(&full[..len]);
            assert!(!again.torn_tail);
            assert_eq!(again.records, scan.records);
        }
        // Garbage line: dropped with everything after it.
        log.clone().append(b"garbage\nK 9 9 9\n").expect("append");
        let scan = parse_journal(&log.snapshot());
        assert!(scan.torn_tail);
        assert_eq!(scan.boundary(), Some(last));
        assert_eq!(scan.valid_len, full.len() as u64);
    }

    #[test]
    fn file_log_truncate_to_and_synced_append() {
        let dir = crate::testing::TempDir::new("journal-truncto").expect("tmp");
        let path = dir.path().join("j.log");
        let mut log = FileLog::synced(&path);
        log.truncate_to(0).expect("missing file, empty prefix ok");
        log.append(b"C 0\nC 1\npartial").expect("append");
        let scan = parse_journal(&log.read_all().expect("read"));
        assert!(scan.torn_tail);
        log.truncate_to(scan.valid_len).expect("truncate");
        log.append(b"C 2\n").expect("append after truncate");
        let rescan = parse_journal(&log.read_all().expect("read"));
        assert!(!rescan.torn_tail);
        assert_eq!(rescan.records.len(), 3);
    }

    #[test]
    fn file_log_appends_and_scans() {
        let dir = crate::testing::TempDir::new("journal-filelog").expect("tmp");
        let mut log = FileLog::new(&dir.path().join("j.log"));
        assert!(log.read_all().expect("missing reads empty").is_empty());
        log.append(b"C 0\n").expect("append");
        log.append(b"C 1\n").expect("append");
        let scan = parse_journal(&log.read_all().expect("read"));
        assert_eq!(scan.records.len(), 2);
        log.truncate().expect("truncate");
        assert!(log.read_all().expect("read").is_empty());
    }

    #[test]
    fn journal_clones_share_one_writer_across_threads() {
        let log = MemLog::new();
        let j = Journal::new(Box::new(log.clone()), 0);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let j = j.clone();
                scope.spawn(move || {
                    for _ in 0..16 {
                        let s = j.intent(t, &region(1, 1), &[1.0], &[0.0]).expect("intent");
                        j.commit(s).expect("commit");
                    }
                });
            }
        });
        let scan = parse_journal(&log.snapshot());
        assert_eq!(scan.intents().len(), 64);
        assert_eq!(scan.committed_seqs().len(), 64);
        assert!(scan.uncommitted().is_empty());
        // Sequence numbers unique and dense.
        let seqs: BTreeSet<u64> = scan.intents().iter().map(|w| w.seq).collect();
        assert_eq!(seqs.len(), 64);
        assert_eq!(seqs.last(), Some(&63));
    }
}
