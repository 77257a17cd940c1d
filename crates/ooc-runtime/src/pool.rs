//! The I/O-node pool: K bounded FIFO request lanes, one per simulated
//! I/O node, shared by every [`StripedStore`](crate::StripedStore) of
//! a run so contention is *experienced* rather than priced.
//!
//! A lane serializes the calls that land on its node (strict ticket
//! FIFO behind bounded queue admission) and is **the one place a
//! striped call is counted**: the lane books the call it has just
//! served under its [`CallClass`], and nobody else keeps a tally. Two
//! kinds of per-node statistics come out:
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
//! Repair-plane calls ([`CallClass::Repair`]: parity RMW,
//! reconstruction, scrubbing) are counted **separately** from the data
//! plane — in [`NodeStats::repair`] and, when the calling store carries
//! a [`LedgerRecorder`], at the same point in the provenance ledger's
//! repair channel — so the conservation invariant above is untouched by
//! redundancy and the two repair accounts agree by construction.
//!
//! The pool is also the set of **fault domains**: nodes can die
//! permanently ([`NodeFaultConfig::permanent_fail_at`] or
//! [`IoNodePool::quarantine`]), and calls are then rejected with a
//! typed [`NodeDownError`](crate::NodeDownError).

use crate::fault::{node_down_error, NodeFaultConfig};
use crate::ledger::{IoCause, LedgerRecorder};
use crate::trace::MeasuredIo;
use ooc_metrics::Histogram;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Striping geometry plus lane admission bound for an [`IoNodePool`].
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
}

impl Default for StripeConfig {
    fn default() -> Self {
        StripeConfig {
            nodes: 4,
            stripe_elems: 8192,
            queue_capacity: 64,
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
    /// Repair-plane traffic (parity RMW, reconstruction, scrubbing):
    /// counted in [`NodeStats::repair`] under `cause`,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Serving normally.
    Up,
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
    /// Total nanoseconds the node spent servicing calls.
    pub busy_ns: u64,
    /// High-water mark of requests waiting or in service.
    pub max_depth: u64,
    /// Distribution of queue depth observed at each arrival.
    pub depth_hist: Histogram,
    /// Distribution of per-call wait times in nanoseconds.
    pub wait_hist: Histogram,
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
    /// Repair-plane traffic (parity, reconstruction, scrub),
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
    /// The arrival index at which the node went down: its first
    /// rejected call, or its arrival count when it was quarantined.
    down_at: Option<u64>,
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

impl Lane {
    fn lock(&self) -> MutexGuard<'_, LaneState> {
        self.state.lock().expect("lane poisoned")
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Where a striped store has its repair-plane lane calls booked
/// besides [`NodeStats::repair`]: a ledger recorder and the array id
/// the store reports under.
pub(crate) type RepairSink = (LedgerRecorder, u32);

/// K per-node FIFO request lanes shared by every
/// [`StripedStore`](crate::StripedStore) of a run. Cloning shares the
/// pool (and its statistics), so all arrays' traffic aggregates into
/// one per-node picture — the measured analogue of `pfs-sim`'s
/// machine-wide I/O node model.
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
    /// keyed to per-node arrival counters.
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

    /// Number of I/O nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.inner.cfg.nodes
    }

    /// `node`'s current health.
    #[must_use]
    pub fn health(&self, node: usize) -> NodeHealth {
        match self.inner.lanes[node].lock().down_at {
            Some(_) => NodeHealth::Down,
            None => NodeHealth::Up,
        }
    }

    /// Every node that is down, in node order, each with the arrival
    /// index at which it went down — whether a rejected call
    /// discovered the death or nothing ever did.
    #[must_use]
    pub fn lost(&self) -> Vec<(usize, u64)> {
        let lanes = self.inner.lanes.iter().enumerate();
        lanes
            .filter_map(|(n, lane)| lane.lock().down_at.map(|at| (n, at)))
            .collect()
    }

    /// Declares `node` dead: every subsequent call is rejected with a
    /// typed [`NodeDownError`](crate::NodeDownError) for the pool's
    /// lifetime. Callers already holding a ticket are still served, so
    /// quarantine never wedges waiting tickets. Idempotent: a node
    /// already down keeps the arrival index it went down at.
    pub fn quarantine(&self, node: usize) {
        let mut st = self.inner.lanes[node].lock();
        let at = st.arrivals;
        st.down_at.get_or_insert(at);
    }

    /// Runs one store call on `node`'s lane — the only place a
    /// striped store's part-store call is counted: waits for bounded
    /// FIFO admission and the lane grant, executes `op`, and books a
    /// served call into `node`'s [`NodeStats`] under `class`. A
    /// repair-plane call is booked to `sink`'s ledger (when the calling
    /// store has one) in the same match arm, so the two repair accounts
    /// cannot drift apart.
    ///
    /// # Errors
    /// * a typed [`NodeDownError`](crate::NodeDownError) when the node
    ///   is dead (quarantined or at/past its injected death call) —
    ///   `op` never runs;
    /// * `op`'s own error otherwise.
    pub(crate) fn call<R>(
        &self,
        node: usize,
        class: CallClass,
        elems: u64,
        sink: Option<&RepairSink>,
        op: impl FnOnce() -> io::Result<R>,
    ) -> io::Result<R> {
        let lane = &self.inner.lanes[node];
        let capacity = self.inner.cfg.queue_capacity.max(1) as u64;
        let arrived = Instant::now();
        let ticket;
        {
            let mut st = lane.lock();
            let call = st.arrivals;
            st.arrivals += 1;
            let injected_down = self
                .inner
                .faults
                .down_at
                .get(&node)
                .is_some_and(|&at| call >= at);
            if st.down_at.is_some() || injected_down {
                st.down_at.get_or_insert(call);
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
                st = lane.grant.wait(st).expect("lane poisoned");
            }
            ticket = st.next_ticket;
            st.next_ticket += 1;
            let depth = st.next_ticket - st.serving;
            st.stats.timing.max_depth = st.stats.timing.max_depth.max(depth);
            st.stats.timing.depth_hist.observe(depth);
            while st.serving != ticket {
                st = lane.grant.wait(st).expect("lane poisoned");
            }
            let wait_ns = elapsed_ns(arrived);
            st.stats.timing.wait_ns += wait_ns;
            st.stats.timing.wait_hist.observe(wait_ns);
        }
        let started = Instant::now();
        let result = op();
        let mut st = lane.lock();
        match &result {
            Ok(_) => match class {
                CallClass::Read => st.stats.io.count(elems, false),
                CallClass::Write => st.stats.io.count(elems, true),
                CallClass::Repair { cause, is_read } => {
                    st.stats.repair.add(cause, is_read, elems);
                    if let Some((ledger, array)) = sink {
                        ledger.add_repair(*array, cause, 1, elems);
                    }
                }
            },
            Err(_) => st.stats.io.failed_calls += 1,
        }
        st.stats.timing.busy_ns += elapsed_ns(started);
        st.serving += 1;
        lane.grant.notify_all();
        drop(st);
        result
    }

    /// A copy of every node's statistics, in node order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<NodeStats> {
        self.inner
            .lanes
            .iter()
            .map(|l| l.lock().stats.clone())
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

    /// Zeroes every node's statistics. A striped store forwards its
    /// `reset_metrics` here; since executors reset all arrays at one
    /// barrier (after seeding), the last reset leaves the pool clean
    /// for the compute phase. Health, arrival counters, and tickets
    /// are preserved — only statistics reset.
    pub fn reset_stats(&self) {
        for lane in &self.inner.lanes {
            lane.lock().stats = NodeStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::is_node_down;
    use crate::store::Store;
    use crate::striped::tests::{pool, striped, striped_parity};

    #[test]
    fn lanes_serialize_concurrent_callers() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let p = IoNodePool::new(StripeConfig {
            nodes: 1,
            stripe_elems: 4,
            queue_capacity: 2,
        });
        let in_lane = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let p = p.clone();
                let in_lane = Arc::clone(&in_lane);
                scope.spawn(move || {
                    for _ in 0..50 {
                        p.call(0, CallClass::Read, 4, None, || {
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
            .call(0, CallClass::Read, 1, None, || -> io::Result<()> {
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
            p.call(1, CallClass::Read, 1, None, || Ok(()))
                .expect("pre-death call");
        }
        let e = p
            .call(1, CallClass::Read, 1, None, || Ok(()))
            .expect_err("death at call 2");
        assert!(is_node_down(&e));
        assert_eq!(crate::fault::node_down(&e).expect("payload").node, 1);
        assert_eq!(p.health(1), NodeHealth::Down);
        // Sticky: later calls are rejected without running the op.
        let e2 = p
            .call(1, CallClass::Read, 1, None, || -> io::Result<()> {
                panic!("op must not run")
            })
            .expect_err("still dead");
        assert!(is_node_down(&e2));
        assert_eq!(p.snapshot()[1].timing.down_rejections, 2);
        // The pool records the arrival the death fired at, not the
        // later rejections.
        assert_eq!(p.lost(), [(1, 2)]);
        // The other node is unaffected.
        p.call(0, CallClass::Read, 1, None, || Ok(()))
            .expect("peer alive");
        // A dead node stays down for the pool's lifetime.
        assert_eq!(p.health(1), NodeHealth::Down);
    }

    #[test]
    fn quarantine_never_wedges_waiting_tickets() {
        use std::sync::mpsc;
        use std::time::Duration;
        // Every wait is bounded, and the callers are joined only once
        // both reported, so a wedged ticket fails the test instead of
        // hanging it.
        let bound = Duration::from_secs(10);
        let p = pool(2, 4);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        // A holds node 0's lane until released.
        let a = p.clone();
        let a_done = done_tx.clone();
        let a_thread = std::thread::spawn(move || {
            let r = a.call(0, CallClass::Read, 1, None, || {
                entered_tx.send(()).expect("signal entry");
                release_rx.recv_timeout(bound).map_err(io::Error::other)
            });
            a_done.send(('A', r.is_ok())).expect("report A");
        });
        entered_rx.recv_timeout(bound).expect("A holds the lane");
        // B takes the next ticket and waits behind A.
        let b = p.clone();
        let b_thread = std::thread::spawn(move || {
            let r = b.call(0, CallClass::Read, 1, None, || Ok(()));
            done_tx.send(('B', r.is_ok())).expect("report B");
        });
        let waiting = std::time::Instant::now();
        while p.snapshot()[0].timing.depth_hist.count < 2 {
            assert!(waiting.elapsed() < bound, "B never took a ticket");
            std::thread::sleep(Duration::from_millis(1));
        }
        p.quarantine(0);
        // Quarantined at its third arrival, which stays its record
        // however often it is quarantined again.
        p.quarantine(0);
        assert_eq!(p.lost(), [(0, 2)]);
        release_tx.send(()).expect("release A");
        let mut done: Vec<(char, bool)> = (0..2)
            .map(|_| done_rx.recv_timeout(bound).expect("a ticket wedged"))
            .collect();
        done.sort_unstable();
        assert_eq!(done, [('A', true), ('B', true)]);
        a_thread.join().expect("A");
        b_thread.join().expect("B");
        // A call arriving after the quarantine is rejected unrun.
        let e = p
            .call(0, CallClass::Read, 1, None, || -> io::Result<()> {
                panic!("op must not run")
            })
            .expect_err("node 0 is down");
        assert!(is_node_down(&e));
        let stats = &p.snapshot()[0];
        assert_eq!(stats.timing.down_rejections, 1);
        assert_eq!(stats.io.read_calls, 2);
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
}
