//! Degraded mode: what a [`StripedStore`] built with
//! [`build_with_parity`](StripedStore::build_with_parity) does beyond
//! the fault-free path of `striped`.
//!
//! Such a store keeps a rotating parity lane (see [`ParityLayout`]):
//! every group of K−1 data stripes gets a full-stripe XOR parity chunk
//! on the one node holding none of the group's data, so it survives
//! the loss of any single I/O node bit-exactly:
//!
//! * writes keep parity consistent by read-modify-write of the delta
//!   (`old ⊕ new`), the data write strictly *before* the parity
//!   update;
//! * reads of a dead node's stripes ([`NodeHealth::Down`]) reconstruct
//!   the lost range by XOR from its K−1 peers, and writes to them land
//!   entirely in parity; a call that *discovers* a dead node or a
//!   corrupt chunk surfaces the typed error instead, so the caller
//!   can quarantine the node and re-run the affected work;
//! * [`StripedStore::scrub`] walks the parity groups, verifying parity
//!   against data (CRC-corrupt chunks surface as typed errors from the
//!   checksum layer) and rewriting whichever side is stale.
//!
//! Everything here is built from two primitives. Every part-store
//! call is the store's one **lane call** (`read_part` / `write_part`
//! over `IoNodePool::call`), made under a repair [`CallClass`]: the
//! lane counts it in [`NodeStats::repair`](crate::NodeStats) and, when
//! a [`LedgerRecorder`](crate::LedgerRecorder) is attached, books it to the provenance
//! ledger's repair channel at the same point, so no function below
//! keeps a tally and the data-plane conservation invariants are
//! untouched by redundancy. And "XOR every other stripe of the group
//! over this range" is the one **group XOR** (`group_xor`) behind
//! reconstruction and parity rewrite.

use crate::checksum::is_corrupt;
use crate::fault::is_node_down;
use crate::ledger::IoCause;
use crate::parity::{xor_into, ParityLayout};
use crate::pool::{CallClass, NodeHealth};
use crate::store::Store;
use crate::striped::{chunk, Part, Segment, StripedStore};
use std::io;

/// What one scrub pass (or group) found and fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Parity groups visited.
    pub groups: u64,
    /// Groups whose parity verified bit-exactly against the data.
    pub clean: u64,
    /// Groups whose parity was readable but stale (rewritten when
    /// repairing).
    pub parity_mismatch: u64,
    /// Chunks (data or parity) whose CRC sidecar flagged corruption.
    pub corrupt_chunks: u64,
    /// Chunks rewritten from redundancy.
    pub repaired: u64,
    /// Chunks skipped because their node is down (redundancy already
    /// spent — nothing to verify against).
    pub skipped: u64,
    /// Corrupt chunks beyond single-fault repair (≥ 2 losses in one
    /// group).
    pub unrecoverable: u64,
    /// Elements read while scrubbing.
    pub read_elems: u64,
    /// Elements rewritten while repairing.
    pub written_elems: u64,
}

impl ScrubReport {
    /// Folds `other` into this report.
    pub fn absorb(&mut self, other: &ScrubReport) {
        self.groups += other.groups;
        self.clean += other.clean;
        self.parity_mismatch += other.parity_mismatch;
        self.corrupt_chunks += other.corrupt_chunks;
        self.repaired += other.repaired;
        self.skipped += other.skipped;
        self.unrecoverable += other.unrecoverable;
        self.read_elems += other.read_elems;
        self.written_elems += other.written_elems;
    }
}

/// What scrubbing found where a chunk should be.
#[derive(Debug)]
enum Chunk {
    /// Read back clean.
    Read(Vec<f64>),
    /// The CRC sidecar flagged it.
    Corrupt,
    /// Its node is down.
    Dead,
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn no_parity_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        "store has no parity lane (built without build_with_parity)",
    )
}

/// A `striped`-category trace span named `name` carrying the node
/// and/or parity group it concerns; `None` while tracing is off.
fn span(name: &str, node: Option<usize>, group: Option<u64>) -> Option<ooc_trace::SpanGuard> {
    ooc_trace::enabled().then(|| {
        let node = node.map(|n| ("node", (n as u64).into()));
        let group = group.map(|j| ("group", j.into()));
        ooc_trace::span_with("striped", name, node.into_iter().chain(group).collect())
    })
}

/// The payload of a double-fault [`io::Error`]: parity group `group`
/// needs node `node` to serve a lost node's data, and `node` is down
/// too — the single-fault redundancy is spent, so no retry can help.
#[derive(Debug)]
pub struct DoubleFaultError {
    /// The parity group that cannot be reconstructed.
    pub group: u64,
    /// The second node the group needs, also down.
    pub node: usize,
}

impl std::fmt::Display for DoubleFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "double fault: group {} needs node {}, which is also down",
            self.group, self.node
        )
    }
}

impl std::error::Error for DoubleFaultError {}

/// Whether `e` is a double-fault error (see [`DoubleFaultError`]).
#[must_use]
pub fn is_double_fault(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<DoubleFaultError>())
}

fn double_fault_error(group: u64, node: usize) -> io::Error {
    io::Error::other(DoubleFaultError { group, node })
}

impl<S: Store> StripedStore<S> {
    /// The parity geometry, or the typed no-parity error.
    fn layout(&self) -> io::Result<ParityLayout> {
        self.parity_layout().ok_or_else(no_parity_error)
    }

    /// The group-XOR primitive: the XOR, over `[within, within + len)`
    /// of their stripes, of every data stripe of group `j` except
    /// `skip`, each read as one `cause` repair call on its node's
    /// lane. A stripe the range misses (the short last one) adds zero
    /// bits and costs no call. Parity is XOR over stripe-aligned
    /// chunks, so the range restriction is element-wise exact. Returns
    /// the accumulator and the elements read.
    ///
    /// # Errors
    /// A double-fault error when a needed stripe's node is down; any
    /// read error otherwise.
    fn group_xor(
        &self,
        j: u64,
        skip: u64,
        within: u64,
        len: usize,
        cause: IoCause,
    ) -> io::Result<(Vec<f64>, u64)> {
        let lay = self.layout()?;
        let class = CallClass::repair_read(cause);
        let mut acc = vec![0.0; len];
        let mut buf = vec![0.0; len];
        let mut read = 0u64;
        for g in lay.stripes_of_group(j) {
            let glen = lay.stripe_len(g);
            if g == skip || within >= glen {
                continue;
            }
            let node = lay.data_node(g);
            if self.pool.health(node) == NodeHealth::Down {
                return Err(double_fault_error(j, node));
            }
            let piece = &mut buf[..chunk((glen - within).min(len as u64))];
            let off = lay.data_part_offset(g) + within;
            self.read_part(Part::Data, node, off, class, piece)?;
            xor_into(&mut acc, piece);
            read += piece.len() as u64;
        }
        Ok((acc, read))
    }

    /// Rebuilds `dst.len()` elements of data stripe `g`, starting
    /// `within` elements into the stripe, by XOR-ing the group's
    /// parity chunk with every *other* data stripe over the same
    /// range. Returns the elements read to do so.
    ///
    /// # Errors
    /// A double-fault error when the parity node (or a needed peer)
    /// is also down; any peer read error otherwise.
    fn reconstruct_range(&self, g: u64, within: u64, dst: &mut [f64]) -> io::Result<u64> {
        let lay = self.layout()?;
        let j = lay.group_of(g);
        let pnode = lay.parity_node(j);
        if self.pool.health(pnode) == NodeHealth::Down {
            return Err(double_fault_error(j, pnode));
        }
        let _span = span("degraded-reconstruct", Some(lay.data_node(g)), Some(j));
        let cause = IoCause::DegradedReconstruct;
        let mut parity = vec![0.0; dst.len()];
        let poff = lay.parity_part_offset(j) + within;
        let class = CallClass::repair_read(cause);
        self.read_part(Part::Parity, pnode, poff, class, &mut parity)?;
        let (peers, read) = self.group_xor(j, g, within, dst.len(), cause)?;
        dst.copy_from_slice(&peers);
        xor_into(dst, &parity);
        Ok(read + dst.len() as u64)
    }

    /// Serves one read segment of a store with a parity lane,
    /// degrading through parity when the owning node is known dead. A
    /// read that *discovers* a dead node or corrupt data surfaces the
    /// typed error, so an orchestrator can quarantine the node and
    /// re-run the affected work; once the node is marked down, later
    /// reads reconstruct.
    pub(crate) fn read_segment_parity(&self, seg: Segment, dst: &mut [f64]) -> io::Result<()> {
        if self.pool.health(seg.node) == NodeHealth::Down {
            return self
                .reconstruct_range(seg.stripe, seg.within, dst)
                .map(drop);
        }
        self.read_part(Part::Data, seg.node, seg.part_off, CallClass::Read, dst)
    }

    /// Recomputes and writes the parity range covering `seg`, taking
    /// `src` as stripe `seg.stripe`'s content and reading every other
    /// group stripe from disk. Used when the old data (or old parity)
    /// needed for the RMW delta is unavailable — in particular when
    /// the segment's owning node is dead: the data chunk itself is
    /// unreachable, so the write lands entirely in parity — peers XOR
    /// src — and later reads reconstruct it.
    fn rewrite_parity_from_group(&mut self, seg: Segment, src: &[f64]) -> io::Result<()> {
        let lay = self.layout()?;
        let j = lay.group_of(seg.stripe);
        let pnode = lay.parity_node(j);
        if self.pool.health(pnode) == NodeHealth::Down {
            return Err(double_fault_error(j, pnode));
        }
        let _span = span("parity-write", Some(pnode), Some(j));
        let cause = IoCause::ParityWrite;
        let (mut pchunk, _) = self.group_xor(j, seg.stripe, seg.within, src.len(), cause)?;
        xor_into(&mut pchunk, src);
        let poff = lay.parity_part_offset(j) + seg.within;
        let class = CallClass::repair_write(cause);
        self.write_part(Part::Parity, pnode, poff, class, &pchunk)
    }

    /// Writes one segment with the parity lane kept consistent:
    /// read-modify-write of the parity delta (`old ⊕ new`), with the
    /// data write strictly *before* the parity update so a failed or
    /// torn data write leaves parity agreeing with the old data.
    pub(crate) fn write_segment_parity(&mut self, seg: Segment, src: &[f64]) -> io::Result<()> {
        if self.pool.health(seg.node) == NodeHealth::Down {
            return self.rewrite_parity_from_group(seg, src);
        }
        let lay = self.layout()?;
        let rmw_read = CallClass::repair_read(IoCause::ParityWrite);
        // Old data, for the parity delta. A pre-image read that
        // discovers a dead node or corrupt data surfaces the error.
        let mut old = vec![0.0; src.len()];
        self.read_part(Part::Data, seg.node, seg.part_off, rmw_read, &mut old)?;
        // New data, before parity: a failure here leaves parity
        // consistent with the old chunk.
        self.write_part(Part::Data, seg.node, seg.part_off, CallClass::Write, src)?;
        // Parity RMW.
        let j = lay.group_of(seg.stripe);
        let pnode = lay.parity_node(j);
        if self.pool.health(pnode) == NodeHealth::Down {
            // Single-fault model: data is authoritative, parity for
            // this group is lost with the node.
            return Ok(());
        }
        let poff = lay.parity_part_offset(j) + seg.within;
        let mut pchunk = vec![0.0; src.len()];
        match self.read_part(Part::Parity, pnode, poff, rmw_read, &mut pchunk) {
            Ok(()) => {}
            // Stale/torn parity: recompute this range from the
            // whole group instead of applying a delta to garbage.
            Err(e) if is_corrupt(&e) => return self.rewrite_parity_from_group(seg, src),
            Err(e) if is_node_down(&e) => return Ok(()),
            Err(e) => return Err(e),
        }
        xor_into(&mut pchunk, &old);
        xor_into(&mut pchunk, src);
        let class = CallClass::repair_write(IoCause::ParityWrite);
        self.write_part(Part::Parity, pnode, poff, class, &pchunk)
    }

    /// Reads one chunk for scrubbing and turns what came back into a
    /// verdict: a chunk on a dead node (known or discovered by this
    /// read) is [`Chunk::Dead`], a CRC-flagged one [`Chunk::Corrupt`].
    ///
    /// # Errors
    /// Any other part error.
    fn scrub_read(&self, part: Part, node: usize, off: u64, len: usize) -> io::Result<Chunk> {
        if self.pool.health(node) == NodeHealth::Down {
            return Ok(Chunk::Dead);
        }
        let mut buf = vec![0.0; len];
        let class = CallClass::repair_read(IoCause::ScrubRead);
        match self.read_part(part, node, off, class, &mut buf) {
            Ok(()) => Ok(Chunk::Read(buf)),
            Err(e) if is_corrupt(&e) => Ok(Chunk::Corrupt),
            Err(e) if is_node_down(&e) => Ok(Chunk::Dead),
            Err(e) => Err(e),
        }
    }

    /// Verifies (and with `repair`, fixes) one parity group: reads
    /// every live data chunk and the parity chunk, checks parity
    /// bit-exactly, rewrites stale parity, and rebuilds a single
    /// CRC-corrupt chunk from redundancy.
    ///
    /// # Errors
    /// Out-of-range group, missing parity lane, or an unexpected
    /// (non-corruption, non-dead-node) part error.
    fn scrub_group(&mut self, j: u64, repair: bool) -> io::Result<ScrubReport> {
        let lay = self.layout()?;
        if j >= lay.groups() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("parity group {j} out of range ({} groups)", lay.groups()),
            ));
        }
        let _span = span("scrub", None, Some(j));
        let stripe = chunk(lay.stripe_elems);
        let pnode = lay.parity_node(j);
        let poff = lay.parity_part_offset(j);
        let mut data = Vec::new();
        for g in lay.stripes_of_group(j) {
            let (node, off) = (lay.data_node(g), lay.data_part_offset(g));
            let glen = chunk(lay.stripe_len(g));
            data.push((g, self.scrub_read(Part::Data, node, off, glen)?));
        }
        let parity = self.scrub_read(Part::Parity, pnode, poff, stripe)?;
        let mut rep = ScrubReport {
            groups: 1,
            ..ScrubReport::default()
        };
        for verdict in data.iter().map(|(_, c)| c).chain([&parity]) {
            match verdict {
                Chunk::Read(buf) => rep.read_elems += buf.len() as u64,
                Chunk::Corrupt => rep.corrupt_chunks += 1,
                Chunk::Dead => rep.skipped += 1,
            }
        }
        if rep.skipped > 0 {
            // Degraded group: redundancy already spent covering the
            // dead node; nothing to verify against.
            return Ok(rep);
        }
        if rep.corrupt_chunks > 1 {
            rep.unrecoverable += rep.corrupt_chunks;
            return Ok(rep);
        }
        // XOR of every readable data chunk, zero-padded to the unit.
        let mut acc = vec![0.0; stripe];
        for (_, c) in &data {
            if let Chunk::Read(buf) = c {
                xor_into(&mut acc, buf);
            }
        }
        let corrupt_data = data.iter().find(|(_, c)| matches!(c, Chunk::Corrupt));
        match (parity, corrupt_data) {
            (Chunk::Read(p), None) if bits_equal(&p, &acc) => rep.clean += 1,
            (Chunk::Read(p), Some(&(g, _))) => {
                // Exactly one CRC-corrupt data chunk: peers ⊕ parity
                // restores it; the write refreshes the CRC sidecar too.
                xor_into(&mut acc, &p);
                if repair {
                    let rebuilt = &acc[..chunk(lay.stripe_len(g))];
                    let (node, off) = (lay.data_node(g), lay.data_part_offset(g));
                    let class = CallClass::repair_write(IoCause::DegradedReconstruct);
                    self.write_part(Part::Data, node, off, class, rebuilt)?;
                    rep.repaired += 1;
                    rep.written_elems += rebuilt.len() as u64;
                }
            }
            (parity, _) => {
                // Parity is CRC-corrupt, or readable but stale against
                // clean data: the data's XOR replaces it.
                if matches!(parity, Chunk::Read(_)) {
                    rep.parity_mismatch += 1;
                }
                if repair {
                    let class = CallClass::repair_write(IoCause::ParityWrite);
                    self.write_part(Part::Parity, pnode, poff, class, &acc)?;
                    rep.repaired += 1;
                    rep.written_elems += acc.len() as u64;
                }
            }
        }
        Ok(rep)
    }

    /// Scrubs every parity group once: verifies each group's parity
    /// bit-exactly and, with `repair`, rewrites stale parity and
    /// rebuilds a single CRC-corrupt chunk from redundancy.
    ///
    /// # Errors
    /// Missing parity lane, or an unexpected (non-corruption,
    /// non-dead-node) part error.
    pub fn scrub(&mut self, repair: bool) -> io::Result<ScrubReport> {
        let mut total = ScrubReport::default();
        for j in 0..self.layout()?.groups() {
            total.absorb(&self.scrub_group(j, repair)?);
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NodeFaultConfig;
    use crate::pool::{IoNodePool, StripeConfig};
    use crate::store::MemStore;
    use crate::striped::tests::{pool, striped_parity};

    /// XOR of every data chunk of every group equals the parity chunk.
    fn assert_parity_consistent(s: &StripedStore<MemStore>) {
        let lay = s.parity_layout().expect("parity layout");
        let stripe = usize::try_from(lay.stripe_elems).expect("stripe");
        for j in 0..lay.groups() {
            let mut acc = vec![0.0; stripe];
            for g in lay.stripes_of_group(j) {
                let glen = usize::try_from(lay.stripe_len(g)).expect("stripe");
                let mut buf = vec![0.0; glen];
                s.parts[lay.data_node(g)]
                    .read_run(lay.data_part_offset(g), &mut buf)
                    .expect("data chunk");
                xor_into(&mut acc, &buf);
            }
            let pnode = lay.parity_node(j);
            let mut p = vec![0.0; stripe];
            s.parity.as_ref().expect("parity").parts[pnode]
                .read_run(lay.parity_part_offset(j), &mut p)
                .expect("parity chunk");
            assert!(bits_equal(&acc, &p), "group {j} parity consistent");
        }
    }

    #[test]
    fn parity_store_matches_flat_and_keeps_parity_consistent() {
        let p = pool(4, 8);
        let mut flat = MemStore::new(100);
        let mut s = striped_parity(&p, 100);
        let mut x = 1.0;
        for (off, len) in [(0u64, 100usize), (17, 31), (90, 10), (8, 8), (95, 5)] {
            let data: Vec<f64> = (0..len)
                .map(|i| {
                    x += 0.25 + i as f64;
                    x
                })
                .collect();
            flat.write_run(off, &data).expect("flat write");
            s.write_run(off, &data).expect("parity-striped write");
        }
        let mut a = vec![0.0; 100];
        let mut b = vec![0.0; 100];
        flat.read_run(0, &mut a).expect("flat read");
        s.read_run(0, &mut b).expect("striped read");
        assert_eq!(a, b);
        assert_parity_consistent(&s);
        // Parity traffic is accounted on the repair plane only.
        let repair = p.total_repair();
        assert!(repair.get(IoCause::ParityWrite).write_calls > 0);
        assert_eq!(repair.get(IoCause::DegradedReconstruct).total_calls(), 0);
    }

    #[test]
    fn degraded_read_reconstructs_bit_equal_for_every_dead_node() {
        let data: Vec<f64> = (0..100).map(|i| f64::from(i) * 1.5 - 20.0).collect();
        for dead in 0..4 {
            // A dead node stays down, so each one gets a fresh pool.
            let p = pool(4, 8);
            let mut s = striped_parity(&p, 100);
            s.write_run(0, &data).expect("healthy write");
            let before = p.snapshot()[dead].io.clone();
            p.quarantine(dead);
            assert_eq!(p.health(dead), NodeHealth::Down);
            let mut buf = vec![0.0; 100];
            s.read_run(0, &mut buf).expect("degraded read");
            assert!(bits_equal(&buf, &data), "node {dead} dead: bit-equal");
            // Reconstruction is repair traffic; the dead node's
            // data-plane counters do not move.
            assert_eq!(p.snapshot()[dead].io, before, "node {dead} io frozen");
            assert!(
                p.total_repair()
                    .get(IoCause::DegradedReconstruct)
                    .read_calls
                    > 0
            );
        }
    }

    #[test]
    fn degraded_write_lands_in_parity_and_reads_back() {
        let p = pool(3, 4);
        let mut s = striped_parity(&p, 36);
        let first: Vec<f64> = (0..36).map(f64::from).collect();
        s.write_run(0, &first).expect("healthy write");
        p.quarantine(1);
        let second: Vec<f64> = (0..36).map(|i| f64::from(i) * -2.5).collect();
        s.write_run(0, &second).expect("degraded write");
        let mut buf = vec![0.0; 36];
        s.read_run(0, &mut buf).expect("degraded read");
        assert!(bits_equal(&buf, &second), "degraded write round-trips");
        // The dead node's part never saw the new data.
        let lay = s.parity_layout().expect("layout");
        let mut stale = vec![0.0; 4];
        s.parts[1].read_run(0, &mut stale).expect("stale chunk");
        let g = (0..lay.data_stripes())
            .find(|&g| lay.data_node(g) == 1)
            .expect("stripe on node 1");
        assert!(
            bits_equal(&stale, &first[(g * 4) as usize..(g * 4 + 4) as usize]),
            "dead part still holds pre-kill bits"
        );
    }

    #[test]
    fn manual_mode_surfaces_discovery_then_reconstructs_known_dead() {
        let p = IoNodePool::with_faults(
            StripeConfig {
                nodes: 4,
                stripe_elems: 8,
                ..StripeConfig::default()
            },
            NodeFaultConfig::new().permanent_fail_at(1, u64::MAX),
        );
        let mut s = striped_parity(&p, 100);
        let data: Vec<f64> = (0..100).map(|i| f64::from(i) + 0.75).collect();
        s.write_run(0, &data).expect("healthy write");
        // Kill node 1 *after* seeding (schedule said never, we say now).
        p.quarantine(1);
        // Known-dead reconstruction works...
        let mut buf = vec![0.0; 100];
        s.read_run(0, &mut buf).expect("known-dead read");
        assert!(bits_equal(&buf, &data));
        // ...but a *fresh* discovery surfaces the typed error: new pool
        // where the node dies at its first arrival after seeding. The
        // seed's arrival count on node 1 comes from a fault-free twin
        // (arrivals = data + repair calls, all deterministic).
        let twin = p.snapshot()[1].clone();
        let seed_arrivals = twin.io.total_calls() + twin.repair.total_calls();
        let p2 = IoNodePool::with_faults(
            StripeConfig {
                nodes: 4,
                stripe_elems: 8,
                ..StripeConfig::default()
            },
            NodeFaultConfig::new().permanent_fail_at(1, seed_arrivals),
        );
        let mut s2 = striped_parity(&p2, 100);
        s2.write_run(0, &data).expect("seed within fault budget");
        let e = s2.read_run(0, &mut buf).expect_err("discovery surfaces");
        assert!(is_node_down(&e), "typed NodeDown, got {e}");
        // After discovery the node is marked down; reads degrade.
        assert_eq!(p2.health(1), NodeHealth::Down);
        s2.read_run(0, &mut buf)
            .expect("degraded read after discovery");
        assert!(bits_equal(&buf, &data));
    }

    #[test]
    fn scrub_verifies_detects_and_repairs() {
        let p = pool(3, 4);
        let mut s = striped_parity(&p, 36);
        let data: Vec<f64> = (0..36).map(|i| f64::from(i) * 3.25).collect();
        s.write_run(0, &data).expect("write");
        let clean = s.scrub(false).expect("clean scrub");
        assert_eq!(clean.groups, s.parity_layout().expect("layout").groups());
        assert_eq!(clean.clean, clean.groups);
        assert_eq!(clean.parity_mismatch, 0);
        assert_eq!(clean.repaired, 0);
        assert!(clean.read_elems > 0);

        // Stale parity: overwrite group 0's parity chunk behind the
        // store's back.
        let lay = s.parity_layout().expect("layout");
        let pnode = lay.parity_node(0);
        s.parity.as_mut().expect("parity").parts[pnode]
            .write_run(lay.parity_part_offset(0), &[9.0, 9.0, 9.0, 9.0])
            .expect("corrupt parity");
        let found = s.scrub(false).expect("detect scrub");
        assert_eq!(found.parity_mismatch, 1);
        assert_eq!(found.repaired, 0, "verify-only leaves it stale");
        let fixed = s.scrub(true).expect("repair scrub");
        assert_eq!(fixed.parity_mismatch, 1);
        assert_eq!(fixed.repaired, 1);
        assert!(fixed.written_elems > 0);
        assert_parity_consistent(&s);
        // Redundancy is whole again: degraded reads are bit-equal.
        p.quarantine(lay.data_node(0));
        let mut buf = vec![0.0; 36];
        s.read_run(0, &mut buf).expect("degraded read");
        assert!(bits_equal(&buf, &data));
        // Scrub skips degraded groups rather than "repairing" them.
        p.quarantine(lay.data_node(0));
        let degraded = s.scrub(true).expect("degraded scrub");
        assert!(degraded.skipped > 0);
        assert_eq!(degraded.unrecoverable, 0);
    }

    /// The group-XOR primitive against brute force: every element of
    /// the group read through the flat image, for every
    /// `(group, skip, within, len)` of a store with a short last
    /// stripe — the accumulator, the elements it returns, and the
    /// calls and elements the lanes (and the ledger) counted for it.
    #[test]
    fn group_xor_matches_the_flat_image_oracle() {
        let (stripe, len) = (4u64, 23u64);
        let p = pool(3, stripe);
        let rec = crate::LedgerRecorder::new();
        let mut s = striped_parity(&p, len).with_ledger(rec.clone(), 0);
        let image: Vec<f64> = (0..len).map(|i| (i as f64).sqrt() - 2.5).collect();
        s.write_run(0, &image).expect("seed");
        let lay = s.parity_layout().expect("layout");
        // A cause nothing else in this test emits, so deltas are exact.
        let cause = IoCause::ScrubRead;
        for j in 0..lay.groups() {
            for skip in lay.stripes_of_group(j) {
                for within in 0..stripe {
                    for n in 1..=chunk(stripe - within) {
                        let mut want = vec![0u64; n];
                        let (mut calls, mut elems) = (0u64, 0u64);
                        for g in lay.stripes_of_group(j).filter(|&g| g != skip) {
                            let first = g * stripe + within;
                            let live = (first..first + n as u64).filter(|&o| o < len);
                            for (w, o) in want.iter_mut().zip(live.clone()) {
                                *w ^= image[chunk(o)].to_bits();
                            }
                            calls += u64::from(live.clone().count() > 0);
                            elems += live.count() as u64;
                        }
                        let before = p.total_repair().get(cause);
                        let (acc, read) = s.group_xor(j, skip, within, n, cause).expect("xor");
                        let after = p.total_repair().get(cause);
                        let got: Vec<u64> = acc.iter().map(|x| x.to_bits()).collect();
                        let case = format!("group {j} skip {skip} within {within} len {n}");
                        assert_eq!(got, want, "{case}");
                        assert_eq!(read, elems, "{case}");
                        assert_eq!(after.read_calls - before.read_calls, calls, "{case}");
                        assert_eq!(after.read_elems - before.read_elems, elems, "{case}");
                    }
                }
            }
        }
        let lanes = p.total_repair().get(cause);
        assert_eq!(
            rec.snapshot().repair.get(&(0, cause)),
            Some(&(lanes.read_calls, lanes.read_elems))
        );
    }
}
