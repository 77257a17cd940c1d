//! Striped per-I/O-node storage: one logical [`Store`] split into
//! 64 KB stripes round-robined across K per-node part stores, each
//! fronted by a bounded FIFO request lane so contention is
//! *experienced* rather than priced.
//!
//! This is the measured counterpart of `pfs-sim`'s analytic PFS
//! model: `PfsConfig::node_of` assigns stripes to I/O nodes on paper,
//! [`StripedStore`] actually routes every element run through the
//! node that owns its stripe. A shared [`IoNodePool`] serializes the
//! calls that land on one node (strict ticket FIFO, bounded queue
//! admission, optional simulated service time) and counts two kinds
//! of per-node statistics:
//!
//! * **deterministic traffic** ([`NodeStats::io`], a [`MeasuredIo`])
//!   — call/element counts and segment run-length histograms. These
//!   are pure functions of the offset→stripe mapping, independent of
//!   thread interleaving, so tests and CI gates compare them exactly.
//!   Splitting a run at stripe boundaries does not depend on the node
//!   count, so per-node totals are *conserved*: summed over K nodes
//!   they equal the single-node totals.
//! * **timing** ([`NodeStats::timing`]) — queue-depth and wait-time
//!   histograms plus busy time. These depend on real scheduling and
//!   are reported as warn-only observability, never gated.
//!
//! # Degraded mode
//!
//! With [`StripedStore::build_with_parity`] the store additionally
//! keeps a rotating parity lane (see [`ParityLayout`]): every group
//! of K−1 data stripes gets a full-stripe XOR parity chunk on the one
//! node holding none of the group's data. The pool then becomes a set
//! of **fault domains**:
//!
//! * nodes can die permanently ([`NodeFaultConfig::permanent_fail_at`]
//!   or [`IoNodePool::quarantine`]) — calls are rejected with a typed
//!   [`NodeDownError`](crate::NodeDownError) and reads reconstruct
//!   the lost chunk by XOR from its K−1 peers;
//! * lanes honor a queue-wait deadline
//!   ([`StripeConfig::queue_deadline_ns`]) — a lane that stops
//!   draining returns a typed
//!   [`NodeSlowError`](crate::NodeSlowError) instead of blocking
//!   forever;
//! * reads can be **hedged** ([`HedgeConfig`]): after a quantile-based
//!   wait the request is retired against the parity-derived peer set,
//!   masking gray stragglers;
//! * an [`OnlineScrubber`] walks parity groups in the background,
//!   verifying parity against data (CRC-corrupt chunks surface as
//!   typed errors from the checksum layer) and rewriting whichever
//!   side is stale; [`StripedStore::resilver`] rebuilds a replacement
//!   node from peers.
//!
//! All repair-plane traffic (parity RMW, reconstruction, hedges,
//! scrubbing) is counted **separately** from the data plane — in
//! [`NodeStats::repair`] per node and, when a
//! [`LedgerRecorder`] is attached, in the provenance ledger's repair
//! channel — so the data-plane conservation invariants above are
//! untouched by redundancy.

use crate::checksum::is_corrupt;
use crate::fault::{is_node_down, is_node_slow, node_down_error, node_slow_error, NodeFaultConfig};
use crate::ledger::{IoCause, LedgerRecorder};
use crate::parity::{xor_into, ParityLayout};
use crate::shared::SharedStore;
use crate::store::Store;
use crate::trace::MeasuredIo;
use ooc_metrics::Histogram;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Simulated service time per call on one I/O node. With the default
/// (zero) model a lane only serializes concurrent callers; non-zero
/// values hold the lane for `call_ns + elems * elem_ns` nanoseconds
/// per call so speedup measurements see realistic node occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceModel {
    /// Fixed nanoseconds one call occupies the node.
    pub call_ns: u64,
    /// Additional nanoseconds per element transferred.
    pub elem_ns: u64,
}

impl ServiceModel {
    /// Service duration of one call moving `elems` elements.
    #[must_use]
    pub fn duration(&self, elems: u64) -> Duration {
        Duration::from_nanos(
            self.call_ns
                .saturating_add(self.elem_ns.saturating_mul(elems)),
        )
    }

    /// `true` when the model adds no simulated time.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.call_ns == 0 && self.elem_ns == 0
    }
}

/// Hedged-read policy: a read waiting longer than
/// `max(min_ns, waitₚ · multiplier)` for its lane grant — where
/// `waitₚ` is the lane's observed wait-time quantile — gives up and
/// is retired against the parity-derived peer set instead. Only reads
/// hedge (a hedged write would race its abandoned twin); only stores
/// with a parity lane can hedge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Which wait-time quantile to base the deadline on, in ‰
    /// (950 = p95).
    pub quantile_per_mille: u32,
    /// Deadline multiplier over the quantile, in ‰ (3000 = 3×).
    pub multiplier_per_mille: u32,
    /// Floor in nanoseconds, so an idle lane's empty histogram does
    /// not hedge instantly.
    pub min_ns: u64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            quantile_per_mille: 950,
            multiplier_per_mille: 3000,
            min_ns: 200_000,
        }
    }
}

impl HedgeConfig {
    /// The hedge deadline for a lane with the given wait-time history.
    #[must_use]
    pub fn deadline_ns(&self, wait_hist: &Histogram) -> u64 {
        let q = f64::from(self.quantile_per_mille.min(1000)) / 1000.0;
        let scaled = wait_hist
            .quantile(q)
            .saturating_mul(u64::from(self.multiplier_per_mille))
            / 1000;
        scaled.max(self.min_ns)
    }
}

/// Striping geometry plus lane behavior for an [`IoNodePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeConfig {
    /// Number of simulated I/O nodes (the paper's PFS: 64).
    pub nodes: usize,
    /// Stripe unit in *elements*. The default mirrors the Paragon's
    /// 64 KB stripes: 8192 eight-byte elements.
    pub stripe_elems: u64,
    /// Bounded FIFO depth per node: a caller blocks before enqueueing
    /// once this many requests are waiting or in service.
    pub queue_capacity: usize,
    /// Simulated per-call service time.
    pub service: ServiceModel,
    /// Queue-wait deadline in nanoseconds: a caller that has not been
    /// granted the lane within this budget gets a typed
    /// [`NodeSlowError`](crate::NodeSlowError) instead of blocking
    /// indefinitely. `None` (the default) waits forever.
    pub queue_deadline_ns: Option<u64>,
    /// Hedged-read policy for stores with a parity lane. `None` (the
    /// default) never hedges.
    pub hedge: Option<HedgeConfig>,
}

impl Default for StripeConfig {
    fn default() -> Self {
        StripeConfig {
            nodes: 4,
            stripe_elems: 8192,
            queue_capacity: 64,
            service: ServiceModel::default(),
            queue_deadline_ns: None,
            hedge: None,
        }
    }
}

impl StripeConfig {
    /// The default geometry over `nodes` I/O nodes.
    #[must_use]
    pub fn with_nodes(nodes: usize) -> Self {
        StripeConfig {
            nodes,
            ..StripeConfig::default()
        }
    }
}

/// How a lane call should be accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallClass {
    /// Data-plane read: counted in [`NodeStats::io`].
    Read,
    /// Data-plane write: counted in [`NodeStats::io`].
    Write,
    /// Repair-plane traffic (parity RMW, reconstruction, hedges,
    /// scrubbing): counted in [`NodeStats::repair`] under `cause`,
    /// never in the conserved data-plane counters.
    Repair {
        /// Which repair activity this call belongs to (one of
        /// [`IoCause::REPAIR`]).
        cause: IoCause,
        /// Whether the call reads (vs. writes) the part store.
        is_read: bool,
    },
}

impl CallClass {
    /// A repair-plane read under `cause`.
    #[must_use]
    pub fn repair_read(cause: IoCause) -> Self {
        CallClass::Repair {
            cause,
            is_read: true,
        }
    }

    /// A repair-plane write under `cause`.
    #[must_use]
    pub fn repair_write(cause: IoCause) -> Self {
        CallClass::Repair {
            cause,
            is_read: false,
        }
    }
}

/// One I/O node's health as seen by its lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum NodeHealth {
    /// Serving normally.
    #[default]
    Up,
    /// Alive but missed at least one caller's deadline (gray
    /// straggler). Still serves calls.
    Slow,
    /// Dead: every call is rejected with a typed
    /// [`NodeDownError`](crate::NodeDownError).
    Down,
}

/// Timing-dependent observability for one node's lane. Values vary
/// with thread scheduling — report them, never gate on them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeTiming {
    /// Total nanoseconds callers waited for this lane.
    pub wait_ns: u64,
    /// Total nanoseconds the node spent servicing calls (including
    /// simulated service time).
    pub busy_ns: u64,
    /// High-water mark of requests waiting or in service.
    pub max_depth: u64,
    /// Distribution of queue depth observed at each arrival.
    pub depth_hist: Histogram,
    /// Distribution of per-call wait times in nanoseconds.
    pub wait_hist: Histogram,
    /// Calls that gave up on the lane after missing their queue-wait
    /// or hedge deadline.
    pub timeouts: u64,
    /// Calls rejected because the node was down.
    pub down_rejections: u64,
}

/// Read/write call and element counts for one repair cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairCounter {
    /// Repair-plane read calls.
    pub read_calls: u64,
    /// Elements moved by repair reads.
    pub read_elems: u64,
    /// Repair-plane write calls.
    pub write_calls: u64,
    /// Elements moved by repair writes.
    pub write_elems: u64,
}

impl RepairCounter {
    fn add(&mut self, is_read: bool, elems: u64) {
        if is_read {
            self.read_calls += 1;
            self.read_elems += elems;
        } else {
            self.write_calls += 1;
            self.write_elems += elems;
        }
    }

    /// Total calls, reads plus writes.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.read_calls + self.write_calls
    }

    /// Total elements, reads plus writes.
    #[must_use]
    pub fn total_elems(&self) -> u64 {
        self.read_elems + self.write_elems
    }
}

/// Repair-plane traffic on one node, broken down by cause. Kept
/// strictly outside [`NodeStats::io`] so the data-plane conservation
/// invariants (per-node totals summing to the single-node totals) are
/// unaffected by redundancy overhead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairIo {
    /// Cause → counters.
    pub by_cause: BTreeMap<IoCause, RepairCounter>,
}

impl RepairIo {
    /// Adds one call of `elems` elements under `cause`.
    pub fn add(&mut self, cause: IoCause, is_read: bool, elems: u64) {
        self.by_cause.entry(cause).or_default().add(is_read, elems);
    }

    /// The counters for `cause` (zero if never seen).
    #[must_use]
    pub fn get(&self, cause: IoCause) -> RepairCounter {
        self.by_cause.get(&cause).copied().unwrap_or_default()
    }

    /// Total repair calls across causes.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.by_cause.values().map(RepairCounter::total_calls).sum()
    }

    /// Total repair elements across causes.
    #[must_use]
    pub fn total_elems(&self) -> u64 {
        self.by_cause.values().map(RepairCounter::total_elems).sum()
    }

    /// `true` when no repair traffic was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_cause.is_empty()
    }

    /// Folds `other`'s counters into this one.
    pub fn merge(&mut self, other: &RepairIo) {
        for (cause, c) in &other.by_cause {
            let e = self.by_cause.entry(*cause).or_default();
            e.read_calls += c.read_calls;
            e.read_elems += c.read_elems;
            e.write_calls += c.write_calls;
            e.write_elems += c.write_elems;
        }
    }
}

/// Everything one I/O node counted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// Deterministic traffic: per-segment calls, elements, and run
    /// lengths (pure function of the stripe mapping).
    pub io: MeasuredIo,
    /// Timing-dependent lane observability.
    pub timing: NodeTiming,
    /// Repair-plane traffic (parity, reconstruction, hedges, scrub),
    /// outside the conserved data plane.
    pub repair: RepairIo,
}

/// One node's FIFO lane: a ticket dispenser plus its statistics.
#[derive(Debug, Default)]
struct LaneState {
    next_ticket: u64,
    serving: u64,
    /// Per-node arrival counter — the `call` index node faults key on.
    arrivals: u64,
    health: NodeHealth,
    /// Set after [`IoNodePool::revive`]: disables the injected
    /// `down_at` schedule for this (replaced) node.
    revived: bool,
    /// Tickets abandoned by deadline-expired callers; the completer
    /// skips them when advancing `serving`.
    cancelled: BTreeSet<u64>,
    stats: NodeStats,
}

#[derive(Debug, Default)]
struct Lane {
    state: Mutex<LaneState>,
    grant: Condvar,
}

#[derive(Debug)]
struct PoolInner {
    cfg: StripeConfig,
    faults: NodeFaultConfig,
    lanes: Vec<Lane>,
}

/// Remaining wait budget of a deadline-bounded lane caller.
enum Budget {
    Unlimited,
    Left(Duration),
    Expired,
}

fn remaining(deadline: Option<Duration>, arrived: Instant) -> Budget {
    match deadline {
        None => Budget::Unlimited,
        Some(d) => match d.checked_sub(arrived.elapsed()) {
            Some(left) if !left.is_zero() => Budget::Left(left),
            _ => Budget::Expired,
        },
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// K per-node FIFO request lanes shared by every [`StripedStore`] of
/// a run. Cloning shares the pool (and its statistics), so all
/// arrays' traffic aggregates into one per-node picture — the
/// measured analogue of `pfs-sim`'s machine-wide I/O node model.
#[derive(Debug, Clone)]
pub struct IoNodePool {
    inner: Arc<PoolInner>,
}

impl IoNodePool {
    /// A pool of `cfg.nodes` idle lanes with no injected node faults.
    ///
    /// # Panics
    /// Panics on zero nodes or a zero stripe unit.
    #[must_use]
    pub fn new(cfg: StripeConfig) -> Self {
        Self::with_faults(cfg, NodeFaultConfig::new())
    }

    /// A pool with an injected node-fault schedule: permanent deaths
    /// keyed to per-node arrival counters and per-call gray slowness.
    ///
    /// # Panics
    /// Panics on zero nodes or a zero stripe unit.
    #[must_use]
    pub fn with_faults(cfg: StripeConfig, faults: NodeFaultConfig) -> Self {
        assert!(cfg.nodes > 0, "a pool needs at least one I/O node");
        assert!(cfg.stripe_elems > 0, "stripe unit must be positive");
        IoNodePool {
            inner: Arc::new(PoolInner {
                cfg,
                faults,
                lanes: (0..cfg.nodes).map(|_| Lane::default()).collect(),
            }),
        }
    }

    /// The pool's configuration.
    #[must_use]
    pub fn config(&self) -> &StripeConfig {
        &self.inner.cfg
    }

    /// The injected node-fault schedule.
    #[must_use]
    pub fn faults(&self) -> &NodeFaultConfig {
        &self.inner.faults
    }

    /// Number of I/O nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.inner.cfg.nodes
    }

    /// `node`'s current health.
    #[must_use]
    pub fn health(&self, node: usize) -> NodeHealth {
        self.inner.lanes[node]
            .state
            .lock()
            .expect("lane poisoned")
            .health
    }

    /// Declares `node` dead: every subsequent call is rejected with a
    /// typed [`NodeDownError`](crate::NodeDownError) until
    /// [`revive`](Self::revive). Callers already granted the lane
    /// finish normally, so quarantine never wedges waiting tickets.
    pub fn quarantine(&self, node: usize) {
        let lane = &self.inner.lanes[node];
        let mut st = lane.state.lock().expect("lane poisoned");
        st.health = NodeHealth::Down;
        drop(st);
        lane.grant.notify_all();
    }

    /// Marks `node` healthy again after its stores were resilvered
    /// onto a replacement. Also disables the injected `down_at`
    /// schedule for this node — the replacement is a new device.
    pub fn revive(&self, node: usize) {
        let mut st = self.inner.lanes[node].state.lock().expect("lane poisoned");
        st.health = NodeHealth::Up;
        st.revived = true;
    }

    /// The hedge deadline for a read on `node`, from the configured
    /// [`HedgeConfig`] and the lane's observed wait-time histogram.
    /// `None` when hedging is not configured.
    #[must_use]
    pub fn hedge_deadline_ns(&self, node: usize) -> Option<u64> {
        let hedge = self.inner.cfg.hedge?;
        let st = self.inner.lanes[node].state.lock().expect("lane poisoned");
        Some(hedge.deadline_ns(&st.stats.timing.wait_hist))
    }

    /// Runs one store call on `node`'s lane under the pool-wide
    /// queue-wait deadline ([`StripeConfig::queue_deadline_ns`]).
    /// See [`execute_deadline`](Self::execute_deadline).
    ///
    /// # Errors
    /// Propagates `op`'s error, a typed dead-node rejection, or a
    /// typed deadline timeout.
    pub fn execute<R>(
        &self,
        node: usize,
        class: CallClass,
        elems: u64,
        op: impl FnOnce() -> io::Result<R>,
    ) -> io::Result<R> {
        self.execute_deadline(node, class, elems, self.inner.cfg.queue_deadline_ns, op)
    }

    /// Runs one store call on `node`'s lane: waits for bounded FIFO
    /// admission and the lane grant (up to `deadline_ns`, if given),
    /// executes `op`, holds the lane for the simulated service time
    /// (plus any injected gray slowness), and records the node's
    /// statistics under `class`.
    ///
    /// # Errors
    /// * a typed [`NodeDownError`](crate::NodeDownError) when the node
    ///   is dead (quarantined or at/past its injected death call) —
    ///   `op` never runs;
    /// * a typed [`NodeSlowError`](crate::NodeSlowError) when the lane
    ///   grant missed `deadline_ns` — the ticket is cancelled and `op`
    ///   never runs;
    /// * `op`'s own error otherwise.
    pub fn execute_deadline<R>(
        &self,
        node: usize,
        class: CallClass,
        elems: u64,
        deadline_ns: Option<u64>,
        op: impl FnOnce() -> io::Result<R>,
    ) -> io::Result<R> {
        let lane = &self.inner.lanes[node];
        let capacity = self.inner.cfg.queue_capacity.max(1) as u64;
        let arrived = Instant::now();
        let deadline = deadline_ns.map(Duration::from_nanos);
        let ticket;
        {
            let mut st = lane.state.lock().expect("lane poisoned");
            let call = st.arrivals;
            st.arrivals += 1;
            let injected_down = !st.revived
                && self
                    .inner
                    .faults
                    .down_at
                    .get(&node)
                    .is_some_and(|&at| call >= at);
            if st.health == NodeHealth::Down || injected_down {
                st.health = NodeHealth::Down;
                st.stats.timing.down_rejections += 1;
                return Err(node_down_error(node, call));
            }
            // Queue-wait blame span: covers bounded admission plus the
            // FIFO grant wait, attributed to the *calling* lane.
            let _qwait = (ooc_trace::enabled()
                && (st.next_ticket - st.serving >= capacity || st.serving != st.next_ticket))
                .then(|| {
                    ooc_trace::span_with(
                        "striped",
                        "queue-wait",
                        vec![("node", (node as u64).into())],
                    )
                });
            while st.next_ticket - st.serving >= capacity {
                match remaining(deadline, arrived) {
                    Budget::Unlimited => st = lane.grant.wait(st).expect("lane poisoned"),
                    Budget::Left(d) => {
                        st = lane.grant.wait_timeout(st, d).expect("lane poisoned").0;
                    }
                    Budget::Expired => return Err(Self::give_up(&mut st, node, arrived)),
                }
            }
            ticket = st.next_ticket;
            st.next_ticket += 1;
            let depth = st.next_ticket - st.serving;
            st.stats.timing.max_depth = st.stats.timing.max_depth.max(depth);
            st.stats.timing.depth_hist.observe(depth);
            while st.serving != ticket {
                match remaining(deadline, arrived) {
                    Budget::Unlimited => st = lane.grant.wait(st).expect("lane poisoned"),
                    Budget::Left(d) => {
                        st = lane.grant.wait_timeout(st, d).expect("lane poisoned").0;
                    }
                    Budget::Expired => {
                        // Cancellation is safe: serving != ticket here,
                        // so the completer has not granted us yet and
                        // will skip the abandoned ticket.
                        st.cancelled.insert(ticket);
                        return Err(Self::give_up(&mut st, node, arrived));
                    }
                }
            }
            let wait_ns = elapsed_ns(arrived);
            st.stats.timing.wait_ns += wait_ns;
            st.stats.timing.wait_hist.observe(wait_ns);
        }
        let started = Instant::now();
        let result = op();
        let service = self.inner.cfg.service;
        let slow_ns = self.inner.faults.slow_ns.get(&node).copied().unwrap_or(0);
        if !service.is_zero() || slow_ns > 0 {
            std::thread::sleep(service.duration(elems) + Duration::from_nanos(slow_ns));
        }
        let mut st = lane.state.lock().expect("lane poisoned");
        match &result {
            Ok(_) => match class {
                CallClass::Read => {
                    let io = &mut st.stats.io;
                    io.read_calls += 1;
                    io.read_elems += elems;
                    io.run_hist[MeasuredIo::bucket_of(elems)] += 1;
                }
                CallClass::Write => {
                    let io = &mut st.stats.io;
                    io.write_calls += 1;
                    io.write_elems += elems;
                    io.run_hist[MeasuredIo::bucket_of(elems)] += 1;
                }
                CallClass::Repair { cause, is_read } => {
                    st.stats.repair.add(cause, is_read, elems);
                }
            },
            Err(_) => st.stats.io.failed_calls += 1,
        }
        st.stats.timing.busy_ns += elapsed_ns(started);
        st.serving += 1;
        loop {
            let next = st.serving;
            if !st.cancelled.remove(&next) {
                break;
            }
            st.serving += 1;
        }
        lane.grant.notify_all();
        drop(st);
        result
    }

    /// Records a deadline miss on a locked lane and builds its error.
    fn give_up(st: &mut LaneState, node: usize, arrived: Instant) -> io::Error {
        st.stats.timing.timeouts += 1;
        if st.health == NodeHealth::Up {
            st.health = NodeHealth::Slow;
        }
        node_slow_error(node, elapsed_ns(arrived))
    }

    /// A copy of every node's statistics, in node order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<NodeStats> {
        self.inner
            .lanes
            .iter()
            .map(|l| l.state.lock().expect("lane poisoned").stats.clone())
            .collect()
    }

    /// Per-node deterministic traffic summed into one [`MeasuredIo`].
    #[must_use]
    pub fn total_io(&self) -> MeasuredIo {
        let mut total = MeasuredIo::default();
        for s in self.snapshot() {
            total.merge(&s.io);
        }
        total
    }

    /// Per-node repair-plane traffic summed into one [`RepairIo`].
    #[must_use]
    pub fn total_repair(&self) -> RepairIo {
        let mut total = RepairIo::default();
        for s in self.snapshot() {
            total.merge(&s.repair);
        }
        total
    }

    /// Zeroes every node's statistics. [`StripedStore`] forwards its
    /// `reset_metrics` here; since executors reset all arrays at one
    /// barrier (after seeding), the last reset leaves the pool clean
    /// for the compute phase. Health, arrival counters, and tickets
    /// are preserved — only statistics reset.
    pub fn reset_stats(&self) {
        for lane in &self.inner.lanes {
            lane.state.lock().expect("lane poisoned").stats = NodeStats::default();
        }
    }
}

/// One contiguous piece of a run, entirely within one stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    node: usize,
    /// Global stripe index.
    stripe: u64,
    /// Element offset within the stripe.
    within: u64,
    part_off: u64,
    buf_off: usize,
    len: u64,
}

/// How a parity-equipped store reacts when it *discovers* a fault
/// (a call failing with a dead-node or corrupt-data error). Known
/// dead nodes ([`NodeHealth::Down`]) are always read via
/// reconstruction in both modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradedMode {
    /// Reconstruct transparently: the caller never sees single-node
    /// faults.
    #[default]
    Auto,
    /// Surface the typed error on first discovery so an orchestrator
    /// can quarantine the node and re-run affected shards (the
    /// durable-recovery path); once the node is marked down,
    /// subsequent reads reconstruct.
    Manual,
}

/// The parity lane riding alongside a striped store's data parts.
#[derive(Debug)]
struct ParityState<S> {
    layout: ParityLayout,
    parts: Vec<S>,
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
/// the loss of any single I/O node bit-exactly (see the module docs).
#[derive(Debug)]
pub struct StripedStore<S> {
    pool: IoNodePool,
    parts: Vec<S>,
    len: u64,
    parity: Option<ParityState<S>>,
    mode: DegradedMode,
    ledger: Option<(LedgerRecorder, u32)>,
}

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

/// What a [`StripedStore::resilver`] rebuilt onto the replacement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilverReport {
    /// Data stripes reconstructed from peers.
    pub data_stripes: u64,
    /// Parity chunks recomputed from group data.
    pub parity_chunks: u64,
    /// Elements written to the replacement part stores.
    pub elems_written: u64,
    /// Elements read from surviving peers to source the rebuild.
    pub source_elems_read: u64,
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

fn double_fault_error(group: u64, node: usize) -> io::Error {
    io::Error::other(format!(
        "double fault: group {group} needs node {node}, which is also down"
    ))
}

impl<S: Store> StripedStore<S> {
    /// Builds a striped store of `len` elements over the pool's node
    /// count, creating each part via `make_part(node, part_len)`.
    ///
    /// # Errors
    /// Propagates `make_part` failures; rejects parts of the wrong
    /// length.
    pub fn build(
        pool: &IoNodePool,
        len: u64,
        mut make_part: impl FnMut(usize, u64) -> io::Result<S>,
    ) -> io::Result<Self> {
        let nodes = pool.nodes();
        let mut parts = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let want = part_len(len, pool.config().stripe_elems, nodes, node);
            let part = make_part(node, want)?;
            if part.len() != want {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "striped part {node}: store holds {} elements, geometry needs {want}",
                        part.len()
                    ),
                ));
            }
            parts.push(part);
        }
        Ok(StripedStore {
            pool: pool.clone(),
            parts,
            len,
            parity: None,
            mode: DegradedMode::default(),
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
        let mut pparts = Vec::with_capacity(pool.nodes());
        for node in 0..pool.nodes() {
            let want = layout.parity_part_len(node);
            let part = make_parity(node, want)?;
            if part.len() != want {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "parity part {node}: store holds {} elements, geometry needs {want}",
                        part.len()
                    ),
                ));
            }
            pparts.push(part);
        }
        store.parity = Some(ParityState {
            layout,
            parts: pparts,
        });
        Ok(store)
    }

    /// Attaches a provenance-ledger recorder: all repair-plane
    /// traffic is booked to `array`'s repair channel.
    #[must_use]
    pub fn with_ledger(mut self, recorder: LedgerRecorder, array: u32) -> Self {
        self.ledger = Some((recorder, array));
        self
    }

    /// The shared lane pool this store routes through.
    #[must_use]
    pub fn pool(&self) -> &IoNodePool {
        &self.pool
    }

    /// Whether this store carries a parity lane.
    #[must_use]
    pub fn has_parity(&self) -> bool {
        self.parity.is_some()
    }

    /// Number of parity groups, when a parity lane exists.
    #[must_use]
    pub fn parity_groups(&self) -> Option<u64> {
        self.parity.as_ref().map(|p| p.layout.groups())
    }

    /// The parity geometry, when a parity lane exists.
    #[must_use]
    pub fn parity_layout(&self) -> Option<ParityLayout> {
        self.parity.as_ref().map(|p| p.layout)
    }

    /// How fault discovery is handled (see [`DegradedMode`]).
    #[must_use]
    pub fn degraded_mode(&self) -> DegradedMode {
        self.mode
    }

    /// Sets the fault-discovery policy.
    pub fn set_degraded_mode(&mut self, mode: DegradedMode) {
        self.mode = mode;
    }

    /// Books repair-plane traffic to the attached ledger, if any.
    fn book_repair(&self, cause: IoCause, calls: u64, elems: u64) {
        if calls == 0 && elems == 0 {
            return;
        }
        if let Some((rec, array)) = &self.ledger {
            rec.add_repair(*array, cause, calls, elems);
        }
    }

    /// Splits `[offset, offset + len)` at stripe boundaries. The cut
    /// points depend only on the stripe unit — not the node count —
    /// which is what makes per-node call totals conserved across K.
    fn segments(&self, offset: u64, len: usize) -> Vec<Segment> {
        let stripe = self.pool.config().stripe_elems;
        let nodes = self.pool.nodes() as u64;
        let mut out = Vec::new();
        let mut off = offset;
        let mut remaining = len as u64;
        let mut buf_off = 0usize;
        while remaining > 0 {
            let g = off / stripe;
            let within = off % stripe;
            let take = (stripe - within).min(remaining);
            out.push(Segment {
                node: usize::try_from(g % nodes).expect("node index fits usize"),
                stripe: g,
                within,
                part_off: (g / nodes) * stripe + within,
                buf_off,
                len: take,
            });
            off += take;
            remaining -= take;
            buf_off += usize::try_from(take).expect("segment fits usize");
        }
        out
    }

    /// Rebuilds `dst.len()` elements of data stripe `g`, starting
    /// `within` elements into the stripe, by XOR-ing the group's
    /// parity chunk with every *other* data stripe over the same
    /// range. Parity is XOR over stripe-aligned chunks, so the range
    /// restriction is element-wise exact. Returns the repair calls
    /// and elements spent.
    ///
    /// # Errors
    /// A double-fault error when the parity node (or a needed peer)
    /// is also down; any peer read error otherwise.
    fn reconstruct_range(
        &self,
        g: u64,
        within: u64,
        dst: &mut [f64],
        cause: IoCause,
    ) -> io::Result<(u64, u64)> {
        let par = self.parity.as_ref().ok_or_else(no_parity_error)?;
        let lay = par.layout;
        let j = lay.group_of(g);
        let pnode = lay.parity_node(j);
        if self.pool.health(pnode) == NodeHealth::Down {
            return Err(double_fault_error(j, pnode));
        }
        let span_name = if cause == IoCause::HedgedRead {
            "hedge-read"
        } else {
            "degraded-reconstruct"
        };
        let _span = ooc_trace::enabled().then(|| {
            ooc_trace::span_with(
                "striped",
                span_name,
                vec![
                    ("node", (lay.data_node(g) as u64).into()),
                    ("group", j.into()),
                ],
            )
        });
        let len = dst.len();
        let mut acc = vec![0.0; len];
        let poff = lay.parity_part_offset(j) + within;
        let mut calls = 0u64;
        let mut elems = 0u64;
        self.pool
            .execute(pnode, CallClass::repair_read(cause), len as u64, || {
                par.parts[pnode].read_run(poff, &mut acc)
            })?;
        calls += 1;
        elems += len as u64;
        for peer in lay.stripes_of_group(j) {
            if peer == g {
                continue;
            }
            let plen = lay.stripe_len(peer);
            if within >= plen {
                continue;
            }
            let take = (plen - within).min(len as u64);
            let node = lay.data_node(peer);
            if self.pool.health(node) == NodeHealth::Down {
                return Err(double_fault_error(j, node));
            }
            let mut buf = vec![0.0; usize::try_from(take).expect("chunk fits usize")];
            let off = lay.data_part_offset(peer) + within;
            self.pool
                .execute(node, CallClass::repair_read(cause), take, || {
                    self.parts[node].read_run(off, &mut buf)
                })?;
            xor_into(&mut acc, &buf);
            calls += 1;
            elems += take;
        }
        dst.copy_from_slice(&acc);
        self.book_repair(cause, calls, elems);
        Ok((calls, elems))
    }

    /// Serves one read segment, degrading through parity when the
    /// owning node is dead, slow past its hedge deadline, or (in
    /// [`DegradedMode::Auto`]) freshly discovered dead/corrupt.
    fn read_segment(&self, seg: Segment, dst: &mut [f64]) -> io::Result<()> {
        if self.parity.is_none() {
            return self.pool.execute(seg.node, CallClass::Read, seg.len, || {
                self.parts[seg.node].read_run(seg.part_off, dst)
            });
        }
        if self.pool.health(seg.node) == NodeHealth::Down {
            return self
                .reconstruct_range(seg.stripe, seg.within, dst, IoCause::DegradedReconstruct)
                .map(|_| ());
        }
        let deadline = self
            .pool
            .hedge_deadline_ns(seg.node)
            .or(self.pool.config().queue_deadline_ns);
        let direct =
            self.pool
                .execute_deadline(seg.node, CallClass::Read, seg.len, deadline, || {
                    self.parts[seg.node].read_run(seg.part_off, dst)
                });
        match direct {
            Ok(()) => Ok(()),
            Err(e) if is_node_slow(&e) => {
                // Hedge: retire the read against the peer set. Valid
                // even though the node is alive — parity stays
                // consistent for slow-but-healthy lanes.
                self.reconstruct_range(seg.stripe, seg.within, dst, IoCause::HedgedRead)
                    .map(|_| ())
            }
            Err(e) if self.mode == DegradedMode::Auto && (is_node_down(&e) || is_corrupt(&e)) => {
                self.reconstruct_range(seg.stripe, seg.within, dst, IoCause::DegradedReconstruct)
                    .map(|_| ())
            }
            Err(e) => Err(e),
        }
    }

    /// Recomputes and writes the parity range covering `seg`, taking
    /// `src` as stripe `seg.stripe`'s content and reading every other
    /// group stripe from disk. Used when the old data (or old parity)
    /// needed for the RMW delta is unavailable.
    fn rewrite_parity_from_group(&mut self, seg: Segment, src: &[f64]) -> io::Result<()> {
        let pool = self.pool.clone();
        let lay = self.parity.as_ref().ok_or_else(no_parity_error)?.layout;
        let j = lay.group_of(seg.stripe);
        let pnode = lay.parity_node(j);
        if pool.health(pnode) == NodeHealth::Down {
            return Err(double_fault_error(j, pnode));
        }
        let _span = ooc_trace::enabled().then(|| {
            ooc_trace::span_with(
                "striped",
                "parity-write",
                vec![("node", (pnode as u64).into()), ("group", j.into())],
            )
        });
        let len = src.len();
        let mut pchunk = vec![0.0; len];
        xor_into(&mut pchunk, src);
        let mut calls = 0u64;
        let mut elems = 0u64;
        for peer in lay.stripes_of_group(j) {
            if peer == seg.stripe {
                continue;
            }
            let plen = lay.stripe_len(peer);
            if seg.within >= plen {
                continue;
            }
            let take = (plen - seg.within).min(len as u64);
            let node = lay.data_node(peer);
            if pool.health(node) == NodeHealth::Down {
                return Err(double_fault_error(j, node));
            }
            let mut buf = vec![0.0; usize::try_from(take).expect("chunk fits usize")];
            let off = lay.data_part_offset(peer) + seg.within;
            pool.execute(
                node,
                CallClass::repair_read(IoCause::ParityWrite),
                take,
                || self.parts[node].read_run(off, &mut buf),
            )?;
            xor_into(&mut pchunk, &buf);
            calls += 1;
            elems += take;
        }
        let poff = lay.parity_part_offset(j) + seg.within;
        let ppart = &mut self.parity.as_mut().expect("parity lane").parts[pnode];
        pool.execute(
            pnode,
            CallClass::repair_write(IoCause::ParityWrite),
            seg.len,
            || ppart.write_run(poff, &pchunk),
        )?;
        calls += 1;
        elems += seg.len;
        self.book_repair(IoCause::ParityWrite, calls, elems);
        Ok(())
    }

    /// Writes `src` to a segment whose owning node is dead: the data
    /// chunk itself is unreachable, so the write lands entirely in
    /// parity — peers XOR src — and later reads reconstruct it.
    fn degraded_write_segment(&mut self, seg: Segment, src: &[f64]) -> io::Result<()> {
        self.rewrite_parity_from_group(seg, src)
    }

    /// Writes one segment with the parity lane kept consistent:
    /// read-modify-write of the parity delta (`old ⊕ new`), with the
    /// data write strictly *before* the parity update so a failed or
    /// torn data write leaves parity agreeing with the old data.
    fn write_segment_parity(&mut self, seg: Segment, src: &[f64]) -> io::Result<()> {
        let pool = self.pool.clone();
        if pool.health(seg.node) == NodeHealth::Down {
            return self.degraded_write_segment(seg, src);
        }
        let lay = self.parity.as_ref().ok_or_else(no_parity_error)?.layout;
        let len = src.len();
        let mut repair_calls = 0u64;
        let mut repair_elems = 0u64;
        // Old data, for the parity delta.
        let mut old = vec![0.0; len];
        let read_old = pool.execute(
            seg.node,
            CallClass::repair_read(IoCause::ParityWrite),
            seg.len,
            || self.parts[seg.node].read_run(seg.part_off, &mut old),
        );
        match read_old {
            Ok(()) => {
                repair_calls += 1;
                repair_elems += seg.len;
            }
            Err(e) if is_corrupt(&e) && self.mode == DegradedMode::Auto => {
                // Torn/corrupt pre-image: parity still agrees with the
                // clean old data, so reconstruct it from peers, then
                // proceed with the normal delta.
                self.reconstruct_range(
                    seg.stripe,
                    seg.within,
                    &mut old,
                    IoCause::DegradedReconstruct,
                )?;
            }
            Err(e) if is_node_down(&e) => {
                if self.mode == DegradedMode::Auto {
                    return self.degraded_write_segment(seg, src);
                }
                return Err(e);
            }
            Err(e) => return Err(e),
        }
        // New data, before parity: a failure here leaves parity
        // consistent with the old chunk.
        let write_new = pool.execute(seg.node, CallClass::Write, seg.len, || {
            self.parts[seg.node].write_run(seg.part_off, src)
        });
        if let Err(e) = write_new {
            if is_node_down(&e) && self.mode == DegradedMode::Auto {
                return self.degraded_write_segment(seg, src);
            }
            return Err(e);
        }
        // Parity RMW.
        let j = lay.group_of(seg.stripe);
        let pnode = lay.parity_node(j);
        if pool.health(pnode) == NodeHealth::Down {
            // Single-fault model: data is authoritative, parity for
            // this group is lost until the node is resilvered.
            self.book_repair(IoCause::ParityWrite, repair_calls, repair_elems);
            return Ok(());
        }
        let poff = lay.parity_part_offset(j) + seg.within;
        let mut pchunk = vec![0.0; len];
        let read_parity = {
            let ppart = &self.parity.as_ref().expect("parity lane").parts[pnode];
            pool.execute(
                pnode,
                CallClass::repair_read(IoCause::ParityWrite),
                seg.len,
                || ppart.read_run(poff, &mut pchunk),
            )
        };
        match read_parity {
            Ok(()) => {
                repair_calls += 1;
                repair_elems += seg.len;
            }
            Err(e) if is_corrupt(&e) => {
                // Stale/torn parity: recompute this range from the
                // whole group instead of applying a delta to garbage.
                self.book_repair(IoCause::ParityWrite, repair_calls, repair_elems);
                return self.rewrite_parity_from_group(seg, src);
            }
            Err(e) if is_node_down(&e) => {
                self.book_repair(IoCause::ParityWrite, repair_calls, repair_elems);
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        xor_into(&mut pchunk, &old);
        xor_into(&mut pchunk, src);
        let ppart = &mut self.parity.as_mut().expect("parity lane").parts[pnode];
        pool.execute(
            pnode,
            CallClass::repair_write(IoCause::ParityWrite),
            seg.len,
            || ppart.write_run(poff, &pchunk),
        )?;
        repair_calls += 1;
        repair_elems += seg.len;
        self.book_repair(IoCause::ParityWrite, repair_calls, repair_elems);
        Ok(())
    }

    /// Verifies (and with `repair`, fixes) one parity group: reads
    /// every live data chunk and the parity chunk, checks parity
    /// bit-exactly, rewrites stale parity, and rebuilds a single
    /// CRC-corrupt chunk from redundancy.
    ///
    /// # Errors
    /// Out-of-range group, missing parity lane, or an unexpected
    /// (non-corruption, non-dead-node) part error.
    pub fn scrub_group(&mut self, j: u64, repair: bool) -> io::Result<ScrubReport> {
        let pool = self.pool.clone();
        let lay = self.parity.as_ref().ok_or_else(no_parity_error)?.layout;
        if j >= lay.groups() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("parity group {j} out of range ({} groups)", lay.groups()),
            ));
        }
        let _span = ooc_trace::enabled()
            .then(|| ooc_trace::span_with("striped", "scrub", vec![("group", j.into())]));
        let mut rep = ScrubReport {
            groups: 1,
            ..ScrubReport::default()
        };
        let stripe = usize::try_from(lay.stripe_elems).expect("stripe fits usize");
        let pnode = lay.parity_node(j);
        let mut scrub_calls = 0u64;
        let mut scrub_elems = 0u64;
        let mut chunks: Vec<Option<Vec<f64>>> = Vec::new();
        let mut corrupt: Vec<u64> = Vec::new();
        let mut dead = 0u64;
        for g in lay.stripes_of_group(j) {
            let node = lay.data_node(g);
            if pool.health(node) == NodeHealth::Down {
                rep.skipped += 1;
                dead += 1;
                chunks.push(None);
                continue;
            }
            let glen = usize::try_from(lay.stripe_len(g)).expect("stripe fits usize");
            let mut buf = vec![0.0; glen];
            let off = lay.data_part_offset(g);
            let r = pool.execute(
                node,
                CallClass::repair_read(IoCause::ScrubRead),
                glen as u64,
                || self.parts[node].read_run(off, &mut buf),
            );
            match r {
                Ok(()) => {
                    scrub_calls += 1;
                    scrub_elems += glen as u64;
                    rep.read_elems += glen as u64;
                    chunks.push(Some(buf));
                }
                Err(e) if is_corrupt(&e) => {
                    rep.corrupt_chunks += 1;
                    corrupt.push(g);
                    chunks.push(None);
                }
                Err(e) if is_node_down(&e) => {
                    rep.skipped += 1;
                    dead += 1;
                    chunks.push(None);
                }
                Err(e) => return Err(e),
            }
        }
        let mut parity_chunk: Option<Vec<f64>> = None;
        let mut parity_corrupt = false;
        if pool.health(pnode) == NodeHealth::Down {
            rep.skipped += 1;
            dead += 1;
        } else {
            let mut buf = vec![0.0; stripe];
            let poff = lay.parity_part_offset(j);
            let r = {
                let ppart = &self.parity.as_ref().expect("parity lane").parts[pnode];
                pool.execute(
                    pnode,
                    CallClass::repair_read(IoCause::ScrubRead),
                    stripe as u64,
                    || ppart.read_run(poff, &mut buf),
                )
            };
            match r {
                Ok(()) => {
                    scrub_calls += 1;
                    scrub_elems += stripe as u64;
                    rep.read_elems += stripe as u64;
                    parity_chunk = Some(buf);
                }
                Err(e) if is_corrupt(&e) => {
                    rep.corrupt_chunks += 1;
                    parity_corrupt = true;
                }
                Err(e) if is_node_down(&e) => {
                    rep.skipped += 1;
                    dead += 1;
                }
                Err(e) => return Err(e),
            }
        }
        self.book_repair(IoCause::ScrubRead, scrub_calls, scrub_elems);
        if dead > 0 {
            // Degraded group: redundancy already spent covering the
            // dead node; nothing to verify against until resilvered.
            return Ok(rep);
        }
        let total_corrupt = corrupt.len() as u64 + u64::from(parity_corrupt);
        if total_corrupt > 1 {
            rep.unrecoverable += total_corrupt;
            return Ok(rep);
        }
        // XOR of every readable data chunk, zero-padded to the unit.
        let mut acc = vec![0.0; stripe];
        for c in chunks.iter().flatten() {
            xor_into(&mut acc, c);
        }
        let parity_stale = !parity_corrupt
            && corrupt.is_empty()
            && parity_chunk.as_ref().is_some_and(|p| !bits_equal(p, &acc));
        if parity_corrupt || parity_stale {
            if parity_stale {
                rep.parity_mismatch += 1;
            }
            if repair {
                let poff = lay.parity_part_offset(j);
                let ppart = &mut self.parity.as_mut().expect("parity lane").parts[pnode];
                pool.execute(
                    pnode,
                    CallClass::repair_write(IoCause::ParityWrite),
                    stripe as u64,
                    || ppart.write_run(poff, &acc),
                )?;
                rep.repaired += 1;
                rep.written_elems += stripe as u64;
                self.book_repair(IoCause::ParityWrite, 1, stripe as u64);
            }
            return Ok(rep);
        }
        if let (&[g], Some(p)) = (corrupt.as_slice(), parity_chunk.as_ref()) {
            // Exactly one CRC-corrupt data chunk: peers ⊕ parity
            // restores it; the write refreshes the CRC sidecar too.
            xor_into(&mut acc, p);
            if repair {
                let glen = usize::try_from(lay.stripe_len(g)).expect("stripe fits usize");
                let node = lay.data_node(g);
                let off = lay.data_part_offset(g);
                let rebuilt = &acc[..glen];
                let parts = &mut self.parts;
                pool.execute(
                    node,
                    CallClass::repair_write(IoCause::DegradedReconstruct),
                    glen as u64,
                    || parts[node].write_run(off, rebuilt),
                )?;
                rep.repaired += 1;
                rep.written_elems += glen as u64;
                self.book_repair(IoCause::DegradedReconstruct, 1, glen as u64);
            }
            return Ok(rep);
        }
        rep.clean += 1;
        Ok(rep)
    }

    /// Scrubs every parity group once. See
    /// [`scrub_group`](Self::scrub_group).
    ///
    /// # Errors
    /// As [`scrub_group`](Self::scrub_group).
    pub fn scrub(&mut self, repair: bool) -> io::Result<ScrubReport> {
        let groups = self.parity_groups().ok_or_else(no_parity_error)?;
        let mut total = ScrubReport::default();
        for j in 0..groups {
            total.absorb(&self.scrub_group(j, repair)?);
        }
        Ok(total)
    }

    /// Rebuilds dead node `node`'s data and parity parts onto fresh
    /// replacement stores (`make_data(part_len)` /
    /// `make_parity(parity_part_len)`), reconstructing every data
    /// stripe from its peers and recomputing every parity chunk from
    /// its group. Replacement writes bypass the (dead) lane.
    ///
    /// Does **not** revive the node in the pool: other arrays sharing
    /// the pool may still need resilvering. Call
    /// [`IoNodePool::revive`] once every array is rebuilt.
    ///
    /// # Errors
    /// Missing parity lane, wrong-length replacement parts, or peer
    /// read failures (double faults).
    pub fn resilver(
        &mut self,
        node: usize,
        make_data: impl FnOnce(u64) -> io::Result<S>,
        make_parity: impl FnOnce(u64) -> io::Result<S>,
    ) -> io::Result<ResilverReport> {
        let pool = self.pool.clone();
        let lay = self.parity.as_ref().ok_or_else(no_parity_error)?.layout;
        let _span = ooc_trace::enabled().then(|| {
            ooc_trace::span_with("striped", "resilver", vec![("node", (node as u64).into())])
        });
        let dlen = part_len(self.len, lay.stripe_elems, lay.nodes, node);
        let plen = lay.parity_part_len(node);
        let mut new_data = make_data(dlen)?;
        if new_data.len() != dlen {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "replacement data part {node}: store holds {} elements, geometry needs {dlen}",
                    new_data.len()
                ),
            ));
        }
        let mut new_parity = make_parity(plen)?;
        if new_parity.len() != plen {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "replacement parity part {node}: store holds {} elements, geometry needs {plen}",
                    new_parity.len()
                ),
            ));
        }
        let mut rep = ResilverReport::default();
        for g in 0..lay.data_stripes() {
            if lay.data_node(g) != node {
                continue;
            }
            let glen = usize::try_from(lay.stripe_len(g)).expect("stripe fits usize");
            let mut buf = vec![0.0; glen];
            let (_, elems) =
                self.reconstruct_range(g, 0, &mut buf, IoCause::DegradedReconstruct)?;
            rep.source_elems_read += elems;
            new_data.write_run(lay.data_part_offset(g), &buf)?;
            rep.data_stripes += 1;
            rep.elems_written += glen as u64;
        }
        let stripe = usize::try_from(lay.stripe_elems).expect("stripe fits usize");
        for j in 0..lay.groups() {
            if lay.parity_node(j) != node {
                continue;
            }
            let mut acc = vec![0.0; stripe];
            let mut elems = 0u64;
            for g in lay.stripes_of_group(j) {
                let dnode = lay.data_node(g);
                if pool.health(dnode) == NodeHealth::Down {
                    return Err(double_fault_error(j, dnode));
                }
                let glen = usize::try_from(lay.stripe_len(g)).expect("stripe fits usize");
                let mut buf = vec![0.0; glen];
                let off = lay.data_part_offset(g);
                pool.execute(
                    dnode,
                    CallClass::repair_read(IoCause::DegradedReconstruct),
                    glen as u64,
                    || self.parts[dnode].read_run(off, &mut buf),
                )?;
                elems += glen as u64;
                xor_into(&mut acc, &buf);
            }
            new_parity.write_run(lay.parity_part_offset(j), &acc)?;
            rep.parity_chunks += 1;
            rep.elems_written += stripe as u64;
            rep.source_elems_read += elems;
            self.book_repair(
                IoCause::DegradedReconstruct,
                lay.stripes_of_group(j).count() as u64,
                elems,
            );
        }
        self.parts[node] = new_data;
        self.parity.as_mut().expect("parity lane").parts[node] = new_parity;
        // The off-lane replacement writes, booked as repair traffic.
        self.book_repair(
            IoCause::DegradedReconstruct,
            rep.data_stripes + rep.parity_chunks,
            rep.elems_written,
        );
        Ok(rep)
    }
}

/// A background scrubber thread walking a shared striped store's
/// parity groups (lock taken per group, so foreground I/O interleaves
/// freely), optionally repairing what it finds.
#[derive(Debug)]
pub struct OnlineScrubber {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<io::Result<ScrubReport>>,
}

impl OnlineScrubber {
    /// Starts scrubbing `store` in a background thread: `passes` full
    /// walks over all parity groups (0 = until stopped), pausing
    /// `pace` between groups, repairing when `repair` is set.
    #[must_use]
    pub fn start<S: Store + Send + 'static>(
        store: SharedStore<StripedStore<S>>,
        repair: bool,
        pace: Duration,
        passes: u64,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let Some(groups) = store.with_inner(|s| s.parity_groups()) else {
                return Err(no_parity_error());
            };
            let mut total = ScrubReport::default();
            let mut pass = 0u64;
            'walk: while !flag.load(Ordering::Relaxed) && (passes == 0 || pass < passes) {
                for j in 0..groups {
                    if flag.load(Ordering::Relaxed) {
                        break 'walk;
                    }
                    let rep = store.with_inner(|s| s.scrub_group(j, repair))?;
                    total.absorb(&rep);
                    if !pace.is_zero() {
                        std::thread::sleep(pace);
                    }
                }
                pass += 1;
            }
            Ok(total)
        });
        OnlineScrubber { stop, handle }
    }

    /// Signals the walker to stop and joins it, returning the
    /// accumulated report.
    ///
    /// # Errors
    /// A scrub error from the thread, or a generic error if it
    /// panicked.
    pub fn stop(self) -> io::Result<ScrubReport> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .map_err(|_| io::Error::other("scrubber thread panicked"))?
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
        if offset + buf.len() as u64 > self.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "run out of store range",
            ));
        }
        for seg in self.segments(offset, buf.len()) {
            let end = seg.buf_off + usize::try_from(seg.len).expect("segment fits usize");
            let dst = &mut buf[seg.buf_off..end];
            self.read_segment(seg, dst)?;
        }
        Ok(())
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        if offset + buf.len() as u64 > self.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "run out of store range",
            ));
        }
        for seg in self.segments(offset, buf.len()) {
            let end = seg.buf_off + usize::try_from(seg.len).expect("segment fits usize");
            let src = &buf[seg.buf_off..end];
            if self.parity.is_some() {
                self.write_segment_parity(seg, src)?;
            } else {
                let part = &mut self.parts[seg.node];
                self.pool.execute(seg.node, CallClass::Write, seg.len, || {
                    part.write_run(seg.part_off, src)
                })?;
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
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn pool(nodes: usize, stripe: u64) -> IoNodePool {
        IoNodePool::new(StripeConfig {
            nodes,
            stripe_elems: stripe,
            ..StripeConfig::default()
        })
    }

    fn striped(nodes: usize, stripe: u64, len: u64) -> StripedStore<MemStore> {
        StripedStore::build(&pool(nodes, stripe), len, |_, l| Ok(MemStore::new(l)))
            .expect("build striped store")
    }

    fn striped_parity(p: &IoNodePool, len: u64) -> StripedStore<MemStore> {
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
    fn lanes_serialize_concurrent_callers() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let p = IoNodePool::new(StripeConfig {
            nodes: 1,
            stripe_elems: 4,
            queue_capacity: 2,
            ..StripeConfig::default()
        });
        let in_lane = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let p = p.clone();
                let in_lane = Arc::clone(&in_lane);
                scope.spawn(move || {
                    for _ in 0..50 {
                        p.execute(0, CallClass::Read, 4, || {
                            let now = in_lane.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(now, 0, "lane admitted two callers at once");
                            std::thread::yield_now();
                            in_lane.fetch_sub(1, Ordering::SeqCst);
                            Ok(())
                        })
                        .expect("op");
                    }
                });
            }
        });
        let stats = p.snapshot();
        assert_eq!(stats[0].io.read_calls, 400);
        assert!(stats[0].timing.max_depth >= 1);
        assert!(stats[0].timing.depth_hist.count == 400);
    }

    #[test]
    fn failed_calls_are_counted_separately() {
        let mut s = striped(2, 4, 8);
        // In-range for the logical store but force a part error by
        // using the pool directly with a failing op.
        let err = s
            .pool()
            .execute(0, CallClass::Read, 1, || -> io::Result<()> {
                Err(io::Error::other("boom"))
            })
            .expect_err("op error propagates");
        assert_eq!(err.to_string(), "boom");
        assert_eq!(s.pool().snapshot()[0].io.failed_calls, 1);
        assert_eq!(s.pool().snapshot()[0].io.read_calls, 0);
        // The lane is still usable afterwards.
        s.write_run(0, &[1.0]).expect("write after failure");
    }

    #[test]
    fn service_model_duration() {
        let m = ServiceModel {
            call_ns: 1000,
            elem_ns: 10,
        };
        assert_eq!(m.duration(5), Duration::from_nanos(1050));
        assert!(!m.is_zero());
        assert!(ServiceModel::default().is_zero());
    }

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
        let p = pool(4, 8);
        let mut s = striped_parity(&p, 100);
        let data: Vec<f64> = (0..100).map(|i| f64::from(i) * 1.5 - 20.0).collect();
        s.write_run(0, &data).expect("healthy write");
        for dead in 0..4 {
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
            p.revive(dead);
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
    fn resilver_rebuilds_a_replacement_node() {
        let p = pool(4, 8);
        let mut s = striped_parity(&p, 100);
        let data: Vec<f64> = (0..100).map(|i| f64::from(i).sqrt()).collect();
        s.write_run(0, &data).expect("healthy write");
        p.quarantine(2);
        let patch: Vec<f64> = (0..20).map(|i| f64::from(i) + 0.125).collect();
        s.write_run(10, &patch).expect("degraded write");
        let mut want = data.clone();
        want[10..30].copy_from_slice(&patch);

        let rep = s
            .resilver(2, |l| Ok(MemStore::new(l)), |l| Ok(MemStore::new(l)))
            .expect("resilver");
        assert!(rep.data_stripes > 0);
        assert!(rep.parity_chunks > 0);
        assert!(rep.elems_written > 0);
        p.revive(2);
        assert_eq!(p.health(2), NodeHealth::Up);

        let mut buf = vec![0.0; 100];
        s.read_run(0, &mut buf).expect("post-resilver read");
        assert!(bits_equal(&buf, &want), "resilvered store bit-equal");
        assert_parity_consistent(&s);
        // The revived lane serves data-plane reads again.
        let before = p.snapshot()[2].io.read_calls;
        let mut probe = vec![0.0; 100];
        s.read_run(0, &mut probe).expect("probe");
        assert!(
            p.snapshot()[2].io.read_calls > before,
            "lane back in service"
        );
    }

    #[test]
    fn injected_permanent_failure_is_typed_sticky_and_counted() {
        let p = IoNodePool::with_faults(
            StripeConfig {
                nodes: 2,
                stripe_elems: 4,
                ..StripeConfig::default()
            },
            NodeFaultConfig::new().permanent_fail_at(1, 2),
        );
        for _ in 0..2 {
            p.execute(1, CallClass::Read, 1, || Ok(()))
                .expect("pre-death call");
        }
        let e = p
            .execute(1, CallClass::Read, 1, || Ok(()))
            .expect_err("death at call 2");
        assert!(is_node_down(&e));
        assert_eq!(crate::fault::node_down(&e).expect("payload").node, 1);
        assert_eq!(p.health(1), NodeHealth::Down);
        // Sticky: later calls are rejected without running the op.
        let e2 = p
            .execute(1, CallClass::Read, 1, || -> io::Result<()> {
                panic!("op must not run")
            })
            .expect_err("still dead");
        assert!(is_node_down(&e2));
        assert_eq!(p.snapshot()[1].timing.down_rejections, 2);
        // The other node is unaffected.
        p.execute(0, CallClass::Read, 1, || Ok(()))
            .expect("peer alive");
        // Revive disables the injected schedule (replacement device).
        p.revive(1);
        p.execute(1, CallClass::Read, 1, || Ok(()))
            .expect("revived");
    }

    #[test]
    fn queue_deadline_returns_typed_timeout() {
        let p = IoNodePool::with_faults(
            StripeConfig {
                nodes: 1,
                stripe_elems: 4,
                queue_deadline_ns: Some(2_000_000), // 2 ms
                ..StripeConfig::default()
            },
            NodeFaultConfig::new().slow_node(0, 60_000_000), // 60 ms service
        );
        let entered = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let bg = p.clone();
            let flag = Arc::clone(&entered);
            scope.spawn(move || {
                bg.execute_deadline(0, CallClass::Read, 1, None, || {
                    flag.store(true, Ordering::SeqCst);
                    Ok(())
                })
                .expect("background call");
            });
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // The lane is now held for ~60 ms; our 2 ms budget expires.
            let e = p
                .execute(0, CallClass::Read, 1, || Ok(()))
                .expect_err("deadline miss");
            assert!(is_node_slow(&e), "typed slow error, got {e}");
        });
        assert_eq!(p.snapshot()[0].timing.timeouts, 1);
        assert_eq!(p.health(0), NodeHealth::Slow);
        // The lane still drains: a patient call succeeds.
        p.execute_deadline(0, CallClass::Read, 1, None, || Ok(()))
            .expect("lane drains after timeout");
    }

    #[test]
    fn hedged_read_reconstructs_past_a_straggler() {
        let p = IoNodePool::with_faults(
            StripeConfig {
                nodes: 3,
                stripe_elems: 4,
                hedge: Some(HedgeConfig {
                    min_ns: 1_000_000, // 1 ms floor, empty history
                    ..HedgeConfig::default()
                }),
                ..StripeConfig::default()
            },
            NodeFaultConfig::new().slow_node(0, 60_000_000),
        );
        let mut s = striped_parity(&p, 24);
        let data: Vec<f64> = (0..24).map(|i| f64::from(i) * 0.5).collect();
        // Seed without tripping hedges: write path never hedges, and
        // node 0's injected slowness only delays it.
        s.write_run(0, &data).expect("write");
        let entered = Arc::new(AtomicBool::new(false));
        let shared = SharedStore::new(s);
        std::thread::scope(|scope| {
            let bg = p.clone();
            let flag = Arc::clone(&entered);
            scope.spawn(move || {
                bg.execute_deadline(0, CallClass::Read, 1, None, || {
                    flag.store(true, Ordering::SeqCst);
                    Ok(())
                })
                .expect("straggling call");
            });
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // Node 0 is busy for ~60 ms; the hedge fires after ~1 ms
            // and retires stripe 0 against nodes 1 + parity.
            let mut buf = vec![0.0; 4];
            shared
                .with_inner(|s| s.read_run(0, &mut buf))
                .expect("hedged read");
            assert!(bits_equal(&buf, &data[..4]), "hedged read bit-equal");
        });
        let repair = p.total_repair();
        assert!(
            repair.get(IoCause::HedgedRead).read_calls > 0,
            "hedge accounted"
        );
        assert_eq!(p.snapshot()[0].timing.timeouts, 1);
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
        s.set_degraded_mode(DegradedMode::Manual);
        assert_eq!(s.degraded_mode(), DegradedMode::Manual);
        let data: Vec<f64> = (0..100).map(|i| f64::from(i) + 0.75).collect();
        s.write_run(0, &data).expect("healthy write");
        // Kill node 1 *after* seeding (schedule said never, we say now).
        p.quarantine(1);
        // Known-dead reconstruction works even in Manual mode...
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
        s2.set_degraded_mode(DegradedMode::Manual);
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
        assert_eq!(clean.groups, s.parity_groups().expect("groups"));
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

    #[test]
    fn online_scrubber_walks_in_the_background() {
        let p = pool(3, 4);
        let mut s = striped_parity(&p, 48);
        let data: Vec<f64> = (0..48).map(|i| f64::from(i) - 7.5).collect();
        s.write_run(0, &data).expect("write");
        let shared = SharedStore::new(s);
        let scrubber = OnlineScrubber::start(shared.clone(), true, Duration::ZERO, 2);
        // Foreground I/O interleaves with the walker: at least 20
        // reads, and on until the walker has booked its first group
        // (it may be scheduled late) or has plainly failed to.
        let scrubbed = || p.total_repair().get(IoCause::ScrubRead).read_calls > 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut reads = 0;
        while reads < 20 || (!scrubbed() && std::time::Instant::now() < deadline) {
            reads += 1;
            let mut buf = vec![0.0; 48];
            shared
                .with_inner(|s| s.read_run(0, &mut buf))
                .expect("read");
            assert!(bits_equal(&buf, &data));
        }
        let rep = scrubber.stop().expect("scrubber result");
        assert!(rep.groups > 0, "walker visited groups");
        assert_eq!(rep.unrecoverable, 0);
        assert!(scrubbed());
    }

    #[test]
    fn ledger_books_repair_traffic_outside_the_data_partition() {
        let rec = LedgerRecorder::new();
        let p = pool(4, 8);
        let mut s = striped_parity(&p, 64).with_ledger(rec.clone(), 3);
        let data: Vec<f64> = (0..64).map(f64::from).collect();
        s.write_run(0, &data).expect("write");
        p.quarantine(0);
        let mut buf = vec![0.0; 64];
        s.read_run(0, &mut buf).expect("degraded read");
        let ledger = rec.snapshot();
        assert!(ledger.events.is_empty(), "repair never lands in events");
        assert!(
            ledger
                .repair
                .get(&(3, IoCause::ParityWrite))
                .is_some_and(|&(c, e)| c > 0 && e > 0),
            "parity RMW booked"
        );
        assert!(
            ledger
                .repair
                .get(&(3, IoCause::DegradedReconstruct))
                .is_some_and(|&(c, e)| c > 0 && e > 0),
            "reconstruction booked"
        );
        ledger
            .check_conservation(&[])
            .expect("conservation holds with repair outside the partition");
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
}
