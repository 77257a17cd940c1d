//! Striped per-I/O-node storage: one logical [`Store`] split into
//! 64 KB stripes round-robined across K per-node part stores, each
//! fronted by one lane of a shared [`IoNodePool`].
//!
//! This is the measured counterpart of `pfs-sim`'s analytic PFS
//! model: `PfsConfig::node_of` assigns stripes to I/O nodes on paper,
//! [`StripedStore`] actually routes every element run through the
//! node that owns its stripe. Three modules, one seam each:
//!
//! * `pool` — the lanes: FIFO tickets, bounded admission, node
//!   health, and the per-node statistics
//!   ([`NodeStats`](crate::NodeStats)). A striped call is counted
//!   where it takes its lane, nowhere else.
//! * this module — the stripe geometry ([`part_len`], the segment
//!   split), how a store is put together ([`StripedStore::build`],
//!   and [`build_with_parity`](StripedStore::build_with_parity)), and
//!   the fault-free read/write path: split the run at
//!   stripe boundaries, serve each piece from its node's part store
//!   under that node's lane. This is all a reader of the measured
//!   Table 3 needs.
//! * `repair` — everything a parity lane *does*, reached from here
//!   only when a store was built with one: parity maintenance on
//!   writes, reads that survive a dead node, background verification,
//!   and rebuilding a replaced node.

use crate::ledger::LedgerRecorder;
use crate::parity::ParityLayout;
use crate::pool::{CallClass, IoNodePool, RepairSink};
use crate::store::{range_err, Store};
use std::io;

/// One contiguous piece of a run, entirely within one stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    pub(crate) node: usize,
    /// Global stripe index.
    pub(crate) stripe: u64,
    /// Element offset within the stripe.
    pub(crate) within: u64,
    pub(crate) part_off: u64,
    pub(crate) buf_off: usize,
    pub(crate) len: usize,
}

/// Which of a node's two part stores a lane call addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    /// The node's share of the data stripes.
    Data,
    /// The node's parity chunks (stores built with a parity lane).
    Parity,
}

/// The parity lane riding alongside a striped store's data parts.
#[derive(Debug)]
pub(crate) struct ParityState<S> {
    pub(crate) layout: ParityLayout,
    pub(crate) parts: Vec<S>,
}

/// A logical element store striped across K per-node part stores.
///
/// Element offset `o` lives in global stripe `g = o / stripe_elems`;
/// stripe `g` belongs to node `g % K` at local stripe `g / K`, so the
/// part-store offset is `(g / K) * stripe_elems + o % stripe_elems` —
/// exactly `pfs-sim`'s `PfsConfig::node_of` mapping, executed. Every
/// call is split at stripe boundaries and each piece is served under
/// its node's FIFO lane.
///
/// Built with [`build_with_parity`](Self::build_with_parity), the
/// store additionally maintains a rotating parity lane and survives
/// the loss of any single I/O node bit-exactly.
#[derive(Debug)]
pub struct StripedStore<S> {
    pub(crate) pool: IoNodePool,
    pub(crate) parts: Vec<S>,
    pub(crate) len: u64,
    pub(crate) parity: Option<ParityState<S>>,
    pub(crate) ledger: Option<RepairSink>,
}

/// Narrows an element count bounded by the stripe unit, which
/// [`StripedStore::build`] checked to fit `usize`.
pub(crate) fn chunk(elems: u64) -> usize {
    usize::try_from(elems).expect("at most a stripe unit, which fits usize")
}

/// `part` if it holds the `want` elements the geometry assigns to
/// `node`'s `what` part.
fn checked_part<S: Store>(what: &str, node: usize, want: u64, part: S) -> io::Result<S> {
    if part.len() == want {
        return Ok(part);
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "{what} part {node}: store holds {} elements, geometry needs {want}",
            part.len()
        ),
    ))
}

impl<S: Store> StripedStore<S> {
    /// Builds a striped store of `len` elements over the pool's node
    /// count, creating each part via `make_part(node, part_len)`.
    ///
    /// # Errors
    /// Propagates `make_part` failures; rejects parts of the wrong
    /// length and a stripe unit that does not fit `usize`.
    pub fn build(
        pool: &IoNodePool,
        len: u64,
        mut make_part: impl FnMut(usize, u64) -> io::Result<S>,
    ) -> io::Result<Self> {
        let stripe = pool.config().stripe_elems;
        if usize::try_from(stripe).is_err() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("stripe unit of {stripe} elements does not fit usize"),
            ));
        }
        let nodes = pool.nodes();
        let mut parts = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let want = part_len(len, stripe, nodes, node);
            let part = make_part(node, want)?;
            parts.push(checked_part("striped", node, want, part)?);
        }
        Ok(StripedStore {
            pool: pool.clone(),
            parts,
            len,
            parity: None,
            ledger: None,
        })
    }

    /// Builds a striped store with a rotating parity lane: data parts
    /// via `make_part(node, part_len)` as in [`build`](Self::build),
    /// plus one parity part per node via
    /// `make_parity(node, parity_part_len)` holding the XOR chunks of
    /// the groups whose parity rotates onto that node.
    ///
    /// # Errors
    /// Rejects pools with fewer than two nodes (no peer to hold
    /// parity); otherwise as [`build`](Self::build).
    pub fn build_with_parity(
        pool: &IoNodePool,
        len: u64,
        make_part: impl FnMut(usize, u64) -> io::Result<S>,
        mut make_parity: impl FnMut(usize, u64) -> io::Result<S>,
    ) -> io::Result<Self> {
        if pool.nodes() < 2 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "parity needs at least two I/O nodes",
            ));
        }
        let mut store = Self::build(pool, len, make_part)?;
        let layout = ParityLayout::new(pool.nodes(), pool.config().stripe_elems, len);
        let mut parts = Vec::with_capacity(pool.nodes());
        for node in 0..pool.nodes() {
            let want = layout.parity_part_len(node);
            let part = make_parity(node, want)?;
            parts.push(checked_part("parity", node, want, part)?);
        }
        store.parity = Some(ParityState { layout, parts });
        Ok(store)
    }

    /// Attaches a provenance-ledger recorder: all repair-plane
    /// traffic is booked to `array`'s repair channel.
    #[must_use]
    pub fn with_ledger(mut self, recorder: LedgerRecorder, array: u32) -> Self {
        self.ledger = Some((recorder, array));
        self
    }

    /// The parity geometry, when a parity lane exists.
    #[must_use]
    pub fn parity_layout(&self) -> Option<ParityLayout> {
        self.parity.as_ref().map(|p| p.layout)
    }

    /// The shared lane pool this store routes through.
    #[must_use]
    pub fn pool(&self) -> &IoNodePool {
        &self.pool
    }

    /// Splits `[offset, offset + len)` at stripe boundaries. The cut
    /// points depend only on the stripe unit — not the node count —
    /// which is what makes per-node call totals conserved across K.
    fn segments(&self, offset: u64, len: usize) -> Vec<Segment> {
        let stripe = self.pool.config().stripe_elems;
        let nodes = self.pool.nodes() as u64;
        let mut out = Vec::new();
        let mut off = offset;
        let mut buf_off = 0usize;
        while buf_off < len {
            let g = off / stripe;
            let within = off % stripe;
            let take = (stripe - within).min((len - buf_off) as u64);
            out.push(Segment {
                node: (g % nodes) as usize, // below the node count, a usize
                stripe: g,
                within,
                part_off: (g / nodes) * stripe + within,
                buf_off,
                len: chunk(take),
            });
            off += take;
            buf_off += chunk(take);
        }
        out
    }

    /// `Ok` when `[offset, offset + len)` lies inside the store.
    fn check_range(&self, offset: u64, len: usize) -> io::Result<()> {
        match offset.checked_add(len as u64) {
            Some(end) if end <= self.len => Ok(()),
            _ => Err(range_err()),
        }
    }

    /// The read half of the store's lane call: every part-store read
    /// of a striped store is this one [`IoNodePool::call`], which
    /// counts it under `class` (and books a repair-plane call to the
    /// attached ledger) — no caller keeps a tally of its own.
    pub(crate) fn read_part(
        &self,
        part: Part,
        node: usize,
        off: u64,
        class: CallClass,
        buf: &mut [f64],
    ) -> io::Result<()> {
        let store = match part {
            Part::Data => &self.parts[node],
            Part::Parity => &self.parity.as_ref().expect("parity lane").parts[node],
        };
        let elems = buf.len() as u64;
        let sink = self.ledger.as_ref();
        self.pool
            .call(node, class, elems, sink, || store.read_run(off, buf))
    }

    /// The write half of the store's lane call; see
    /// [`read_part`](Self::read_part).
    pub(crate) fn write_part(
        &mut self,
        part: Part,
        node: usize,
        off: u64,
        class: CallClass,
        buf: &[f64],
    ) -> io::Result<()> {
        let store = match part {
            Part::Data => &mut self.parts[node],
            Part::Parity => &mut self.parity.as_mut().expect("parity lane").parts[node],
        };
        let elems = buf.len() as u64;
        let sink = self.ledger.as_ref();
        self.pool
            .call(node, class, elems, sink, || store.write_run(off, buf))
    }
}

/// Elements node `k` of `nodes` holds for a `len`-element store with
/// the given stripe unit (the last global stripe may be partial).
#[must_use]
pub fn part_len(len: u64, stripe_elems: u64, nodes: usize, k: usize) -> u64 {
    let nodes = nodes as u64;
    let k = k as u64;
    let full = len / stripe_elems; // complete stripes
    let tail = len % stripe_elems;
    // Complete stripes with index ≡ k (mod nodes).
    let mine = full / nodes + u64::from(full % nodes > k);
    let tail_mine = u64::from(tail > 0 && full % nodes == k) * tail;
    mine * stripe_elems + tail_mine
}

impl<S: Store> Store for StripedStore<S> {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        self.check_range(offset, buf.len())?;
        for seg in self.segments(offset, buf.len()) {
            let dst = &mut buf[seg.buf_off..seg.buf_off + seg.len];
            if self.parity.is_some() {
                self.read_segment_parity(seg, dst)?;
            } else {
                self.read_part(Part::Data, seg.node, seg.part_off, CallClass::Read, dst)?;
            }
        }
        Ok(())
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        self.check_range(offset, buf.len())?;
        for seg in self.segments(offset, buf.len()) {
            let src = &buf[seg.buf_off..seg.buf_off + seg.len];
            if self.parity.is_some() {
                self.write_segment_parity(seg, src)?;
            } else {
                self.write_part(Part::Data, seg.node, seg.part_off, CallClass::Write, src)?;
            }
        }
        Ok(())
    }

    fn reset_metrics(&mut self) {
        for part in &mut self.parts {
            part.reset_metrics();
        }
        if let Some(par) = &mut self.parity {
            for part in &mut par.parts {
                part.reset_metrics();
            }
        }
        self.pool.reset_stats();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pool::StripeConfig;
    use crate::store::MemStore;
    use crate::trace::MeasuredIo;

    pub(crate) fn pool(nodes: usize, stripe: u64) -> IoNodePool {
        IoNodePool::new(StripeConfig {
            nodes,
            stripe_elems: stripe,
            ..StripeConfig::default()
        })
    }

    pub(crate) fn striped(nodes: usize, stripe: u64, len: u64) -> StripedStore<MemStore> {
        StripedStore::build(&pool(nodes, stripe), len, |_, l| Ok(MemStore::new(l)))
            .expect("build striped store")
    }

    pub(crate) fn striped_parity(p: &IoNodePool, len: u64) -> StripedStore<MemStore> {
        StripedStore::build_with_parity(
            p,
            len,
            |_, l| Ok(MemStore::new(l)),
            |_, l| Ok(MemStore::new(l)),
        )
        .expect("build parity striped store")
    }

    #[test]
    fn part_lengths_cover_the_store() {
        for (len, stripe, nodes) in [(100, 8, 3), (64, 8, 8), (7, 8, 2), (0, 4, 4), (33, 8, 4)] {
            let total: u64 = (0..nodes).map(|k| part_len(len, stripe, nodes, k)).sum();
            assert_eq!(total, len, "len {len} stripe {stripe} nodes {nodes}");
        }
    }

    #[test]
    fn roundtrip_across_stripe_boundaries() {
        let mut s = striped(3, 4, 40);
        let data: Vec<f64> = (0..37).map(|i| i as f64 + 0.5).collect();
        s.write_run(2, &data).expect("write spanning stripes");
        let mut buf = vec![0.0; 37];
        s.read_run(2, &mut buf).expect("read spanning stripes");
        assert_eq!(buf, data);
        // Single-element probes hit the right nodes too.
        let mut one = [0.0];
        s.read_run(13, &mut one).expect("probe");
        assert_eq!(one[0], 11.5);
    }

    #[test]
    fn matches_a_flat_store_bit_for_bit() {
        let mut flat = MemStore::new(100);
        let mut s = striped(4, 8, 100);
        let mut x = 1.0;
        for (off, len) in [(0u64, 100usize), (17, 31), (90, 10), (8, 8), (95, 5)] {
            let data: Vec<f64> = (0..len)
                .map(|i| {
                    x += 0.25 + i as f64;
                    x
                })
                .collect();
            flat.write_run(off, &data).expect("flat write");
            s.write_run(off, &data).expect("striped write");
        }
        let mut a = vec![0.0; 100];
        let mut b = vec![0.0; 100];
        flat.read_run(0, &mut a).expect("flat read");
        s.read_run(0, &mut b).expect("striped read");
        assert_eq!(a, b);
    }

    #[test]
    fn per_node_totals_are_conserved_across_node_counts() {
        let workload = |s: &mut StripedStore<MemStore>| {
            let data: Vec<f64> = (0..50).map(f64::from).collect();
            s.write_run(3, &data).expect("write");
            let mut buf = vec![0.0; 64];
            s.read_run(0, &mut buf).expect("read");
            s.write_run(60, &data[..4]).expect("tail write");
        };
        let mut one = striped(1, 8, 64);
        workload(&mut one);
        let single = one.pool().total_io();
        for nodes in [2, 3, 4, 8] {
            let mut s = striped(nodes, 8, 64);
            workload(&mut s);
            let total = s.pool().total_io();
            assert_eq!(total, single, "totals conserved at {nodes} nodes");
            let per_node: u64 = s.pool().snapshot().iter().map(|n| n.io.total_calls()).sum();
            assert_eq!(per_node, single.total_calls());
        }
    }

    #[test]
    fn stats_are_deterministic_and_resettable() {
        let run = || {
            let mut s = striped(2, 4, 32);
            s.write_run(0, &[1.0; 32]).expect("write");
            let mut buf = [0.0; 10];
            s.read_run(5, &mut buf).expect("read");
            s.pool()
                .snapshot()
                .iter()
                .map(|n| n.io.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "deterministic per-node traffic");

        let mut s = striped(2, 4, 32);
        s.write_run(0, &[1.0; 32]).expect("write");
        assert!(s.pool().total_io().total_calls() > 0);
        s.reset_metrics();
        assert_eq!(s.pool().total_io(), MeasuredIo::default());
    }

    #[test]
    fn build_with_parity_needs_two_nodes() {
        let p = pool(1, 8);
        let e = StripedStore::build_with_parity(
            &p,
            16,
            |_, l| Ok(MemStore::new(l)),
            |_, l| Ok(MemStore::new(l)),
        )
        .expect_err("one node cannot hold parity");
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn striped_bounds_checked() {
        let mut s = striped(2, 4, 8);
        assert!(s.write_run(7, &[1.0, 2.0]).is_err());
        // An offset whose end wraps around u64 is out of range too.
        assert!(s.write_run(u64::MAX, &[1.0, 2.0]).is_err());
        assert!(s.read_run(u64::MAX - 1, &mut [0.0; 4]).is_err());
        // Nothing reached a lane.
        assert_eq!(s.pool().total_io(), MeasuredIo::default());
    }
}
