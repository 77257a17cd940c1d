//! Tile-region integrity: [`ChecksummedStore`] pairs a data store
//! with a CRC64 *sidecar* store and verifies every read against
//! per-chunk checksums, so corrupt or torn data surfaces as a typed
//! **corrupt** error ([`CorruptError`], [`is_corrupt`]) instead of
//! silently wrong values.
//!
//! The store is divided into fixed-size element chunks; element `i`
//! of the sidecar holds the CRC64 of chunk `i`'s raw bytes,
//! bit-stored as an `f64` so the sidecar is itself an ordinary
//! [`Store`] (in memory, in a file, shared — whatever matches the
//! data store's persistence). A write lands in the data store
//! *first* and only then refreshes the covering chunk checksums:
//! a crash between the two steps leaves a detectable mismatch, which
//! is exactly the property the recovery layer's torn-write detection
//! relies on.
//!
//! Corrupt errors use [`io::ErrorKind::InvalidData`], which the
//! runtime's [`RetryPolicy`](crate::array::RetryPolicy) classifies as
//! non-transient — a corrupt read is never retried, it must be
//! handled (rolled back) by the recovery layer.

use crate::store::Store;
use crate::trace::MeasuredIo;
use std::io;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// CRC-64/XZ (ECMA-182 polynomial, reflected), slice-by-8:
/// `TABLES[0]` is the bytewise table and `TABLES[k][b]` the CRC of
/// byte `b` followed by `k` zero bytes, so eight input bytes fold into
/// the CRC with eight independent lookups.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Words per lane of the braided fold (see [`fold_words`]). A block is
/// four lanes, so the braid engages from `4 * LANE_WORDS` words up:
/// 32 is the longest lane whose block still fits the smallest chunk
/// hashed in earnest, the durable default of 128 elements. Shorter
/// lanes measured slower at every length (more [`skip`]s per word),
/// longer ones 5 % faster from 512 elements up and serial at 128
/// (`cargo bench -p ooc-bench --bench checksum`).
const LANE_WORDS: usize = 32;

const fn build_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// `SKIP[k][b]` is the register `b << 8k` advanced over `LANE_WORDS`
/// zero words. Advancing is linear over XOR, so a whole register
/// advances as the XOR of its eight bytes' entries ([`skip`]).
const fn build_skip(tables: &[[u64; 256]; 8]) -> [[u64; 256]; 8] {
    // The image of each register bit; every entry is a sum of these.
    let mut basis = [0u64; 64];
    let mut bit = 0;
    while bit < 64 {
        let mut reg = 1u64 << bit;
        let mut n = 0;
        while n < LANE_WORDS * 8 {
            reg = tables[0][(reg & 0xFF) as usize] ^ (reg >> 8);
            n += 1;
        }
        basis[bit] = reg;
        bit += 1;
    }
    let mut skip = [[0u64; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let mut j = 0;
            while j < 8 {
                if b >> j & 1 == 1 {
                    skip[k][b] ^= basis[8 * k + j];
                }
                j += 1;
            }
            b += 1;
        }
        k += 1;
    }
    skip
}

const TABLE_VALUES: [[u64; 256]; 8] = build_tables();
static TABLES: [[u64; 256]; 8] = TABLE_VALUES;
static SKIP: [[u64; 256]; 8] = build_skip(&TABLE_VALUES);

/// Folds eight bytes, given as their little-endian word, into `crc`.
#[inline(always)]
fn crc_word(crc: u64, word: u64) -> u64 {
    let x = (crc ^ word).to_le_bytes();
    TABLES[7][x[0] as usize]
        ^ TABLES[6][x[1] as usize]
        ^ TABLES[5][x[2] as usize]
        ^ TABLES[4][x[3] as usize]
        ^ TABLES[3][x[4] as usize]
        ^ TABLES[2][x[5] as usize]
        ^ TABLES[1][x[6] as usize]
        ^ TABLES[0][x[7] as usize]
}

/// Advances the register over `LANE_WORDS` zero words.
#[inline(always)]
fn skip(crc: u64) -> u64 {
    let x = crc.to_le_bytes();
    SKIP[0][x[0] as usize]
        ^ SKIP[1][x[1] as usize]
        ^ SKIP[2][x[2] as usize]
        ^ SKIP[3][x[3] as usize]
        ^ SKIP[4][x[4] as usize]
        ^ SKIP[5][x[5] as usize]
        ^ SKIP[6][x[6] as usize]
        ^ SKIP[7][x[7] as usize]
}

/// Folds the words of `items` (`N` items to a word, read by `word`)
/// into the register `crc`; items past the last whole word are left to
/// the caller.
///
/// One `crc_word` chain is a dependent lookup per word and runs at the
/// table-load latency, so whole blocks of four lanes are *braided*:
/// lane 0 continues from `crc`, lanes 1–3 start from a zero register,
/// and the four chains advance in one loop, independent of each other.
/// The register is linear over XOR — the state after a message `M`
/// from state `s` is `advance(s, |M|) ^ state(0, M)` — so the lanes
/// join exactly: each [`skip`] carries the joined prefix over the next
/// lane's length before that lane's own state is XORed in. What is
/// left after the last block folds serially.
fn fold_words<T, const N: usize>(mut crc: u64, items: &[T], word: impl Fn(&[T]) -> u64) -> u64 {
    let lane = LANE_WORDS * N;
    let mut blocks = items.chunks_exact(4 * lane);
    for block in &mut blocks {
        let (l0, rest) = block.split_at(lane);
        let (l1, rest) = rest.split_at(lane);
        let (l2, l3) = rest.split_at(lane);
        let words = |l| words_of::<T, N>(l, &word);
        let (mut s0, mut s1, mut s2, mut s3) = (crc, 0, 0, 0);
        for (((w0, w1), w2), w3) in words(l0).zip(words(l1)).zip(words(l2)).zip(words(l3)) {
            s0 = crc_word(s0, w0);
            s1 = crc_word(s1, w1);
            s2 = crc_word(s2, w2);
            s3 = crc_word(s3, w3);
        }
        crc = skip(skip(skip(s0) ^ s1) ^ s2) ^ s3;
    }
    words_of::<T, N>(blocks.remainder(), &word).fold(crc, crc_word)
}

/// The whole words of `items`, `N` items each.
fn words_of<'a, T, const N: usize>(
    items: &'a [T],
    word: &'a impl Fn(&[T]) -> u64,
) -> impl Iterator<Item = u64> + 'a {
    items.chunks_exact(N).map(word)
}

/// CRC64 (CRC-64/XZ) of a byte slice.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = fold_words::<u8, 8>(!0, bytes, |w| {
        u64::from_le_bytes(w.try_into().expect("8-byte chunk"))
    });
    for &b in &bytes[bytes.len() - bytes.len() % 8..] {
        crc = TABLES[0][((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// CRC64 of a run of `f64`s, hashing each value's little-endian bit
/// pattern — bit-exact, NaN-payload-preserving, allocation-free.
#[must_use]
pub fn crc64_f64s(values: &[f64]) -> u64 {
    !fold_words::<f64, 1>(!0, values, |v| v[0].to_bits())
}

/// Typed payload of a corrupt-read error: which chunk failed
/// verification and the checksums that disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptError {
    /// Index of the failing chunk.
    pub chunk: u64,
    /// First element offset of the chunk.
    pub offset: u64,
    /// Chunk length in elements.
    pub len: u64,
    /// Checksum the sidecar recorded.
    pub expected: u64,
    /// Checksum of the data actually read.
    pub actual: u64,
}

impl std::fmt::Display for CorruptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt chunk {} (elems {}..{}): sidecar crc {:016x}, data crc {:016x}",
            self.chunk,
            self.offset,
            self.offset + self.len,
            self.expected,
            self.actual
        )
    }
}

impl std::error::Error for CorruptError {}

/// Wraps a [`CorruptError`] as a non-transient [`io::Error`].
#[must_use]
fn corrupt_error(detail: CorruptError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// Whether `e` is a checksum-verification failure from a
/// [`ChecksummedStore`] (as opposed to a transient or crash fault).
#[must_use]
pub fn is_corrupt(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<CorruptError>())
}

#[derive(Debug, Default)]
struct ChecksumCounters {
    verified_chunks: AtomicU64,
    corrupt_reads: AtomicU64,
    chunk_updates: AtomicU64,
    sidecar_calls: AtomicU64,
    sidecar_elems: AtomicU64,
}

/// A cheap shared handle onto a [`ChecksummedStore`]'s verification
/// counters, usable after the store moved into an array.
#[derive(Debug, Clone)]
pub struct ChecksumHandle(Arc<ChecksumCounters>);

impl ChecksumHandle {
    /// Chunks verified successfully so far.
    #[must_use]
    pub fn verified_chunks(&self) -> u64 {
        self.0.verified_chunks.load(Ordering::Relaxed)
    }

    /// Reads that failed verification (each counts once).
    #[must_use]
    pub fn corrupt_reads(&self) -> u64 {
        self.0.corrupt_reads.load(Ordering::Relaxed)
    }

    /// Chunk checksums recomputed by writes.
    #[must_use]
    pub fn chunk_updates(&self) -> u64 {
        self.0.chunk_updates.load(Ordering::Relaxed)
    }

    /// Sidecar traffic as `(calls, elems)`: `calls` counts the sidecar
    /// reads and writes the store issued, one per request however many
    /// chunks it covers; `elems` the checksums those calls moved, read
    /// or written, booked when a call succeeds — a read that fails
    /// verification still moved every checksum it read. This is the
    /// provenance ledger's `ChecksumOverhead` channel — integrity
    /// traffic that never appears in the data store's own metrics (see
    /// [`ChecksummedStore::metrics`], which forwards the data store
    /// only).
    #[must_use]
    pub fn sidecar_io(&self) -> (u64, u64) {
        let calls = self.0.sidecar_calls.load(Ordering::Relaxed);
        (calls, self.0.sidecar_elems.load(Ordering::Relaxed))
    }
}

/// A [`Store`] wrapper verifying every read against a per-chunk CRC64
/// sidecar and refreshing the sidecar after every write. See the
/// module docs for the torn-write detection argument.
///
/// The calls it issues below itself are a contract, because a
/// [`FaultStore`](crate::fault::FaultStore) under this layer numbers
/// them and crash points are indices into that numbering. A request
/// issues two calls to its data store and sidecar, however many
/// chunks it covers:
/// - a read issues one data read over the whole chunks it covers,
///   then one sidecar read of their checksums, and verifies the
///   chunks in ascending order;
/// - a write issues the data write, then one data read of each
///   partially covered chunk at its ends (at most two), then one
///   sidecar write of all the covered chunks' checksums.
///
/// The first failing call ends the request. A write's checksums are
/// of the data it was asked to store: fully covered chunks are hashed
/// from the caller's buffer, and the caller's elements overlay a
/// read-back edge chunk before it is hashed, so a write the data
/// store acknowledged but lost fails the next read that covers it.
/// After a failed read the buffer's contents are unspecified: a
/// chunk-aligned read lands in the caller's buffer before it is
/// verified.
#[derive(Debug)]
pub struct ChecksummedStore<S, C> {
    data: S,
    sidecar: C,
    /// Chunk length in elements, at most the store's length: the size
    /// of every scratch buffer, so it is bounded by what the store
    /// holds and not by what the caller configured.
    chunk_elems: usize,
    counters: Arc<ChecksumCounters>,
}

impl<S: Store, C: Store> ChecksummedStore<S, C> {
    /// Attaches `sidecar` to `data` with `chunk_elems`-element chunks,
    /// trusting the sidecar's current contents (use [`Self::rebuild`]
    /// to recompute them from the data).
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] when `chunk_elems` is zero, the
    /// sidecar is too small to cover the data store, or a chunk of the
    /// store does not fit the address space.
    pub fn attach(data: S, sidecar: C, chunk_elems: u64) -> io::Result<Self> {
        if chunk_elems == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "chunk_elems must be positive",
            ));
        }
        let chunks = data.len().div_ceil(chunk_elems);
        if sidecar.len() < chunks {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "sidecar holds {} checksums, {} chunks needed",
                    sidecar.len(),
                    chunks
                ),
            ));
        }
        // A chunk longer than the store is the store: same chunk
        // indices, same spans.
        let chunk_elems = usize::try_from(chunk_elems.min(data.len().max(1))).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a chunk of {chunk_elems} elements does not fit in memory"),
            )
        })?;
        Ok(ChecksummedStore {
            data,
            sidecar,
            chunk_elems,
            counters: Arc::new(ChecksumCounters::default()),
        })
    }

    /// Sidecar elements needed to cover `data_len` elements at
    /// `chunk_elems`-element granularity.
    #[must_use]
    pub fn sidecar_len(data_len: u64, chunk_elems: u64) -> u64 {
        data_len.div_ceil(chunk_elems.max(1)).max(1)
    }

    /// A shared handle onto the verification counters.
    #[must_use]
    pub fn handle(&self) -> ChecksumHandle {
        ChecksumHandle(Arc::clone(&self.counters))
    }

    /// The wrapped data store.
    #[must_use]
    pub fn data(&self) -> &S {
        &self.data
    }

    /// Unwraps into `(data, sidecar)`.
    #[must_use]
    pub fn into_inner(self) -> (S, C) {
        (self.data, self.sidecar)
    }

    /// The chunk length as an element offset.
    fn chunk(&self) -> u64 {
        self.chunk_elems as u64
    }

    fn chunks(&self) -> u64 {
        self.data.len().div_ceil(self.chunk())
    }

    /// The chunks covering the in-range, non-empty request
    /// `offset..offset + len`.
    fn chunks_of(&self, offset: u64, len: usize) -> RangeInclusive<u64> {
        offset / self.chunk()..=(offset + len as u64 - 1) / self.chunk()
    }

    /// `(first element, length)` of chunk `i`, clamped to the store.
    fn chunk_span(&self, i: u64) -> (u64, usize) {
        let start = i * self.chunk();
        let left = self.data.len() - start;
        let len = usize::try_from(left).map_or(self.chunk_elems, |left| left.min(self.chunk_elems));
        (start, len)
    }

    /// Counts one issued sidecar call, and the `elems` checksums it
    /// moved when it succeeded; passes its result on.
    fn sidecar_call(&self, done: io::Result<()>, elems: usize) -> io::Result<()> {
        self.counters.sidecar_calls.fetch_add(1, Ordering::Relaxed);
        if done.is_ok() {
            let elems = elems as u64;
            self.counters
                .sidecar_elems
                .fetch_add(elems, Ordering::Relaxed);
        }
        done
    }

    /// Recomputes every chunk checksum from the data store.
    ///
    /// # Errors
    /// Propagates data / sidecar I/O errors.
    pub fn rebuild(&mut self) -> io::Result<()> {
        let mut scratch = vec![0.0f64; self.chunk_elems];
        let crcs = (0..self.chunks())
            .map(|i| {
                let (start, len) = self.chunk_span(i);
                self.data.read_run(start, &mut scratch[..len])?;
                Ok(f64::from_bits(crc64_f64s(&scratch[..len])))
            })
            .collect::<io::Result<Vec<f64>>>()?;
        if !crcs.is_empty() {
            let done = self.sidecar.write_run(0, &crcs);
            self.sidecar_call(done, crcs.len())?;
        }
        Ok(())
    }

    /// Verifies every chunk, one at a time, returning the number
    /// checked.
    ///
    /// # Errors
    /// The first corrupt chunk (see [`is_corrupt`]); data / sidecar
    /// I/O errors.
    pub fn verify(&self) -> io::Result<u64> {
        let chunks = self.chunks();
        let mut scratch = vec![0.0f64; self.chunk_elems];
        for i in 0..chunks {
            let (_, len) = self.chunk_span(i);
            self.read_verified(i, &mut scratch[..len])?;
        }
        Ok(chunks)
    }

    /// Reads the chunks from `first` on into `span`, which ends where a
    /// chunk ends, with one data read, then their checksums with one
    /// sidecar read, and verifies them in ascending order.
    fn read_verified(&self, first: u64, span: &mut [f64]) -> io::Result<()> {
        self.data.read_run(first * self.chunk(), span)?;
        let n = span.len().div_ceil(self.chunk_elems);
        // Most requests cover a chunk or two: their checksums need no
        // heap.
        let (mut few, mut many) = ([0.0f64; 4], Vec::new());
        let recorded = if n <= few.len() {
            &mut few[..n]
        } else {
            many.resize(n, 0.0f64);
            &mut many[..]
        };
        let done = self.sidecar.read_run(first, recorded);
        self.sidecar_call(done, n)?;
        let mut verified = 0;
        for ((i, data), crc) in (first..).zip(span.chunks(self.chunk_elems)).zip(&*recorded) {
            let (expected, actual) = (crc.to_bits(), crc64_f64s(data));
            if actual != expected {
                self.counters
                    .verified_chunks
                    .fetch_add(verified, Ordering::Relaxed);
                self.counters.corrupt_reads.fetch_add(1, Ordering::Relaxed);
                return Err(corrupt_error(CorruptError {
                    chunk: i,
                    offset: i * self.chunk(),
                    len: data.len() as u64,
                    expected,
                    actual,
                }));
            }
            verified += 1;
        }
        self.counters
            .verified_chunks
            .fetch_add(verified, Ordering::Relaxed);
        Ok(())
    }

    fn in_range(&self, offset: u64, len: usize) -> bool {
        offset
            .checked_add(len as u64)
            .is_some_and(|end| end <= self.data.len())
    }
}

impl<S: Store, C: Store> Store for ChecksummedStore<S, C> {
    fn len(&self) -> u64 {
        self.data.len()
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        if buf.is_empty() || !self.in_range(offset, buf.len()) {
            // Delegate degenerate and out-of-range calls so error
            // semantics match the wrapped store exactly.
            return self.data.read_run(offset, buf);
        }
        let chunks = self.chunks_of(offset, buf.len());
        let start = chunks.start() * self.chunk();
        let (last, last_len) = self.chunk_span(*chunks.end());
        // At most the request plus a chunk at either end.
        let len = (last - start) as usize + last_len;
        if (start, len) == (offset, buf.len()) {
            // Whole chunks are wanted: read and verify them where the
            // caller wants them.
            return self.read_verified(*chunks.start(), buf);
        }
        // A partial chunk at either end: verify the whole span aside,
        // hand over the request.
        let mut span = vec![0.0f64; len];
        self.read_verified(*chunks.start(), &mut span)?;
        let skip = (offset - start) as usize;
        buf.copy_from_slice(&span[skip..skip + buf.len()]);
        Ok(())
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        if buf.is_empty() || !self.in_range(offset, buf.len()) {
            return self.data.write_run(offset, buf);
        }
        // Data first, checksums second: a crash in between leaves a
        // *detectable* stale checksum, never a silently-trusted one.
        self.data.write_run(offset, buf)?;
        let chunks = self.chunks_of(offset, buf.len());
        let first = *chunks.start();
        let end = offset + buf.len() as u64;
        let mut scratch = Vec::new();
        let crcs = chunks
            .map(|i| {
                let (start, len) = self.chunk_span(i);
                // The caller's elements of chunk `i`, from `lo` on.
                let lo = start.max(offset);
                let hi = end.min(start + len as u64);
                let ours = &buf[(lo - offset) as usize..(hi - offset) as usize];
                if ours.len() == len {
                    return Ok(f64::from_bits(crc64_f64s(ours)));
                }
                // A partial edge chunk (at most two per request): the
                // rest of it comes back from the store, and the
                // caller's elements overlay what came back, so the
                // checksum is of what the caller asked to store.
                scratch.resize(len, 0.0f64);
                self.data.read_run(start, &mut scratch)?;
                let at = (lo - start) as usize;
                scratch[at..at + ours.len()].copy_from_slice(ours);
                Ok(f64::from_bits(crc64_f64s(&scratch)))
            })
            .collect::<io::Result<Vec<f64>>>()?;
        let done = self.sidecar.write_run(first, &crcs);
        self.sidecar_call(done, crcs.len())?;
        self.counters
            .chunk_updates
            .fetch_add(crcs.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn reset_metrics(&mut self) {
        self.data.reset_metrics();
        self.sidecar.reset_metrics();
        // The verification counters scope to the same window as the
        // I/O metrics, so post-seed resets leave both channels
        // covering exactly the compute phase.
        self.counters.verified_chunks.store(0, Ordering::Relaxed);
        self.counters.corrupt_reads.store(0, Ordering::Relaxed);
        self.counters.chunk_updates.store(0, Ordering::Relaxed);
        self.counters.sidecar_calls.store(0, Ordering::Relaxed);
        self.counters.sidecar_elems.store(0, Ordering::Relaxed);
    }

    fn metrics(&self) -> Option<MeasuredIo> {
        self.data.metrics()
    }

    fn access_log(&self) -> Option<Vec<crate::profile::AccessRecord>> {
        self.data.access_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedStore;
    use crate::store::MemStore;

    fn checksummed(
        len: u64,
        chunk: u64,
    ) -> (
        ChecksummedStore<SharedStore<MemStore>, MemStore>,
        SharedStore<MemStore>,
    ) {
        let data = SharedStore::new(MemStore::new(len));
        let raw = data.clone();
        let sidecar = MemStore::new(ChecksummedStore::<MemStore, MemStore>::sidecar_len(
            len, chunk,
        ));
        let mut cs = ChecksummedStore::attach(data, sidecar, chunk).expect("attach");
        cs.rebuild().expect("rebuild");
        (cs, raw)
    }

    #[test]
    fn crc64_known_answer() {
        // The CRC-64/XZ check value.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn crc64_f64s_matches_byte_stream() {
        let vals = [1.5f64, -2.25, f64::NAN, 0.0];
        let bytes: Vec<u8> = vals
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        assert_eq!(crc64_f64s(&vals), crc64(&bytes));
    }

    /// One `crc_word` chain over the whole input: the fold the braid
    /// replaced, and the one that wrote every sidecar before it.
    fn serial_f64s(values: &[f64]) -> u64 {
        !values
            .iter()
            .fold(!0u64, |crc, v| crc_word(crc, v.to_bits()))
    }

    #[test]
    fn every_length_equals_the_serial_fold() {
        let block = 4 * LANE_WORDS;
        let values: Vec<f64> = (0..4 * block + 17)
            .map(|i| f64::from_bits((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let bytes: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        for n in 0..=values.len() {
            let want = serial_f64s(&values[..n]);
            assert_eq!(crc64_f64s(&values[..n]), want, "{n} values");
            assert_eq!(crc64(&bytes[..8 * n]), want, "{n} whole words of bytes");
        }
        // A ragged byte tail after 0, 1 and 3 blocks plus a few words.
        for words in [0, 5, block + 2, 3 * block + 9] {
            for tail in 1..8 {
                let n = 8 * words + tail;
                let mut crc = !serial_f64s(&values[..words]);
                for &b in &bytes[8 * words..n] {
                    crc = TABLES[0][((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
                }
                assert_eq!(crc64(&bytes[..n]), !crc, "{n} bytes");
            }
        }
    }

    #[test]
    fn sidecars_of_the_serial_fold_verify_clean() {
        // Chunks below, at and above one braid block, last chunk short.
        for chunk in [100u64, 128, 512, 700] {
            let len = 3 * chunk + 37;
            let mut data = MemStore::new(len);
            let values: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
            data.write_run(0, &values).expect("seed");
            let crcs: Vec<f64> = values
                .chunks(chunk as usize)
                .map(|c| f64::from_bits(serial_f64s(c)))
                .collect();
            let mut sidecar = MemStore::new(crcs.len() as u64);
            sidecar.write_run(0, &crcs).expect("sidecar");
            let cs = ChecksummedStore::attach(data, sidecar, chunk).expect("attach");
            assert_eq!(cs.verify().expect("parent-format sidecar"), 4);
        }
    }

    #[test]
    fn scratch_is_sized_by_the_store_not_by_the_configured_chunk() {
        let sidecar = MemStore::new(1);
        let mut cs =
            ChecksummedStore::attach(MemStore::new(16), sidecar, u64::MAX).expect("attach");
        cs.rebuild().expect("rebuild");
        cs.write_run(3, &[1.0, 2.0]).expect("write");
        let mut buf = [0.0; 4];
        cs.read_run(2, &mut buf).expect("read");
        assert_eq!(buf, [0.0, 1.0, 2.0, 0.0]);
        assert_eq!(cs.verify().expect("verify"), 1);
        // Same chunking as any chunk length that covers the store.
        assert_eq!(cs.handle().chunk_updates(), 1);
    }

    /// Sidecar elements are the checksums the sidecar calls moved: a
    /// rebuild writes one per chunk, and a read that fails verification
    /// on its first chunk has still read the checksums of all three.
    #[test]
    fn sidecar_elements_are_the_checksums_the_calls_moved() {
        let (cs, mut raw) = checksummed(11, 4);
        assert_eq!(cs.handle().sidecar_io(), (1, 3));
        raw.write_run(1, &[9.0]).expect("poke");
        let mut buf = [0.0; 11];
        let err = cs.read_run(0, &mut buf).expect_err("chunk 0 changed");
        assert!(is_corrupt(&err), "{err}");
        assert_eq!(cs.handle().verified_chunks(), 0);
        assert_eq!(cs.handle().sidecar_io(), (2, 6));
    }

    #[test]
    fn roundtrip_verifies_clean() {
        let (mut cs, _) = checksummed(20, 8);
        // Offsets 5..=10 straddle the chunk-0/chunk-1 boundary.
        cs.write_run(5, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .expect("write");
        let mut buf = [0.0; 6];
        cs.read_run(5, &mut buf).expect("read");
        assert_eq!(buf, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(cs.verify().expect("verify"), 3);
        assert_eq!(cs.handle().corrupt_reads(), 0);
        assert!(cs.handle().chunk_updates() >= 2, "write spans two chunks");
    }

    #[test]
    fn detects_corruption_behind_the_wrapper() {
        let (mut cs, raw) = checksummed(16, 4);
        cs.write_run(0, &[7.0; 16]).expect("write");
        // Corrupt the underlying data without updating the sidecar —
        // exactly what a torn write leaves behind.
        let mut raw = raw;
        raw.write_run(5, &[999.0]).expect("raw poke");
        let mut buf = [0.0; 4];
        let err = cs.read_run(4, &mut buf).expect_err("detects");
        assert!(is_corrupt(&err), "typed corrupt error: {err}");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(cs.handle().corrupt_reads(), 1);
        // Untouched chunks still verify.
        cs.read_run(0, &mut buf).expect("chunk 0 clean");
        // Rewriting the damaged region heals the checksum.
        cs.write_run(4, &[7.0; 4]).expect("heal");
        cs.read_run(4, &mut buf).expect("verified again");
        assert_eq!(buf, [7.0; 4]);
    }

    #[test]
    fn corrupt_errors_are_not_transient() {
        let policy = crate::array::RetryPolicy::default();
        let corrupt = corrupt_error(CorruptError {
            chunk: 0,
            offset: 0,
            len: 4,
            expected: 1,
            actual: 2,
        });
        assert!(!crate::array::RetryPolicy::is_transient(&corrupt));
        assert!(policy.max_attempts > 1, "policy does retry transients");
    }

    #[test]
    fn attach_validates_geometry() {
        let err = ChecksummedStore::attach(MemStore::new(16), MemStore::new(1), 4)
            .map(|_| ())
            .expect_err("sidecar too small");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = ChecksummedStore::attach(MemStore::new(16), MemStore::new(16), 0)
            .map(|_| ())
            .expect_err("zero chunk");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn out_of_range_matches_inner_store() {
        let (cs, _) = checksummed(8, 4);
        let mut buf = [0.0; 4];
        let err = cs.read_run(6, &mut buf).expect_err("out of range");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// A data store that acknowledges every write without applying it.
    struct LosesWrites(MemStore);

    impl Store for LosesWrites {
        fn len(&self) -> u64 {
            self.0.len()
        }

        fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
            self.0.read_run(offset, buf)
        }

        fn write_run(&mut self, _offset: u64, _buf: &[f64]) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_lost_write_fails_the_next_read_that_covers_it() {
        // Chunks of 8 over 20 elements: a whole-chunk write, a write
        // with both ends partial, and one inside a single chunk.
        for (offset, n) in [(8u64, 8usize), (5, 6), (2, 3)] {
            let mut data = MemStore::new(20);
            data.write_run(0, &[1.0; 20]).expect("seed");
            let mut cs =
                ChecksummedStore::attach(LosesWrites(data), MemStore::new(3), 8).expect("attach");
            cs.rebuild().expect("rebuild");
            cs.write_run(offset, &vec![2.0; n]).expect("acknowledged");
            let mut buf = vec![0.0; n];
            let err = cs
                .read_run(offset, &mut buf)
                .expect_err("the stale data must not verify");
            assert!(is_corrupt(&err), "write({offset},{n}): {err}");
        }
    }
}
