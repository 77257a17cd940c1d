//! Deterministic fault injection: [`FaultStore`] makes a fraction of
//! store calls fail with *transient* [`io::Error`]s (kind
//! [`io::ErrorKind::Interrupted`]), driven by a seeded PRNG so every
//! failure sequence replays exactly.
//!
//! Paired with the retry policy in
//! [`RuntimeConfig`](crate::array::RuntimeConfig), this proves the
//! runtime's read/write paths survive flaky backing storage without
//! changing results — the robustness half of the instrumented store
//! layer.
//!
//! Determinism is **per (store, call index)**, not per global call
//! order: each store (one per array) numbers its own calls, and the
//! raw fail/pass decision for call `k` is a pure hash of
//! `(seed, k)` — see [`fault_plan`]. Concurrent callers
//! (prefetch workers hammering several arrays at once) therefore
//! observe exactly the same injected-fault schedule per array as a
//! single-threaded run, regardless of how the threads interleave.
//! An earlier revision walked one xorshift state per *draw*, which
//! made each decision a function of the whole draw history threaded
//! through the shared state — impossible to replay or predict for one
//! call in isolation once callers interleave.
//!
//! Beyond transients, [`CrashMode`] models *hard* process death at a
//! chosen per-store call index: `CrashAt` makes that call and every
//! later one fail with a permanent [`CrashedError`], and `TornWrite`
//! additionally lands a prefix of the dying write — the torn-page
//! hazard checksums and the write intent journal exist to catch.
//! Crash decisions are pure functions of the call index too, so the
//! deterministic-replay guarantee is unchanged: the transient
//! schedule below the crash point is exactly the capped
//! [`fault_plan`] schedule.

use crate::store::Store;
use crate::trace::MeasuredIo;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

/// A simulated *hard* crash, as opposed to the transient failures a
/// retry loop can ride out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashMode {
    /// No crash; only transient faults (the pre-crash default).
    #[default]
    None,
    /// Store call number `0` (this store's own counter) fails
    /// permanently at the given index; every later call fails too —
    /// the process is "dead" from that point on.
    CrashAt(u64),
    /// Like [`CrashMode::CrashAt`], but if the dying call is a write,
    /// a prefix of the buffer (`frac_per_mille`/1000 of its elements)
    /// lands in the backing store first — a torn write.
    TornWrite {
        /// Call index at which the crash fires.
        at: u64,
        /// Fraction of the dying write that lands, in parts per 1000.
        frac_per_mille: u32,
    },
}

impl CrashMode {
    /// The call index at which this mode crashes, if any.
    #[must_use]
    fn crash_index(&self) -> Option<u64> {
        match self {
            CrashMode::None => None,
            CrashMode::CrashAt(at) | CrashMode::TornWrite { at, .. } => Some(*at),
        }
    }
}

/// Configuration of a [`FaultStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// PRNG seed; equal seeds give identical failure sequences.
    pub seed: u64,
    /// Probability of failing a call, in parts per 1000.
    pub fail_per_mille: u32,
    /// Total failures to inject before going permanently quiet
    /// (`u64::MAX` = unbounded).
    pub max_faults: u64,
    /// Cap on back-to-back failures, so a bounded retry loop always
    /// makes progress.
    pub max_consecutive: u32,
    /// Hard-crash injection on top of the transient schedule.
    pub crash: CrashMode,
}

impl FaultConfig {
    /// Fails roughly `per_mille`/1000 of calls under `seed`.
    #[must_use]
    pub fn transient(seed: u64, per_mille: u32) -> Self {
        FaultConfig {
            seed,
            fail_per_mille: per_mille,
            max_faults: u64::MAX,
            max_consecutive: 2,
            crash: CrashMode::None,
        }
    }

    /// Injects exactly `n` failures (spread by `seed`), then stops.
    #[must_use]
    pub fn first_n(seed: u64, n: u64) -> Self {
        FaultConfig {
            seed,
            fail_per_mille: 333,
            max_faults: n,
            max_consecutive: 1,
            crash: CrashMode::None,
        }
    }

    /// No transient faults; hard crash at store call `at`.
    #[must_use]
    pub fn crash_at(at: u64) -> Self {
        FaultConfig::transient(0, 0).with_crash(CrashMode::CrashAt(at))
    }

    /// No transient faults; torn write landing `frac_per_mille`/1000
    /// of the dying write at store call `at`.
    #[must_use]
    pub fn torn_write(at: u64, frac_per_mille: u32) -> Self {
        FaultConfig::transient(0, 0).with_crash(CrashMode::TornWrite { at, frac_per_mille })
    }

    /// This config with its crash mode replaced.
    #[must_use]
    pub fn with_crash(mut self, crash: CrashMode) -> Self {
        self.crash = crash;
        self
    }
}

/// The payload of a crash-injected [`io::Error`] — kind
/// [`io::ErrorKind::Other`], never matched by the transient retry
/// predicate.
#[derive(Debug)]
pub struct CrashedError {
    /// The store-call index the crash fired at.
    pub call: u64,
    /// Whether a torn prefix of the dying write landed.
    pub torn: bool,
}

impl std::fmt::Display for CrashedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected crash at store call {}{}",
            self.call,
            if self.torn { " (torn write)" } else { "" }
        )
    }
}

impl std::error::Error for CrashedError {}

/// Whether `e` is an injected crash (see [`CrashMode`]).
#[must_use]
pub fn is_crashed(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<CrashedError>())
}

/// Per-node fault injection for an
/// [`IoNodePool`](crate::IoNodePool): *permanent* node death, the
/// failure mode [`CrashMode`] cannot express (a crash kills the
/// process; this kills one storage node while the run keeps going).
///
/// Like the transient schedule, injection is deterministic and
/// replayable: each lane numbers its own arrivals, and node `n` dies
/// at *its* call number `down_at[n]` regardless of which thread (or
/// which logical segment) happens to be that arrival. At a fixed
/// shard count the set of calls reaching each node is deterministic,
/// so `permanent_fail_at(n, 0)` — dead from the start — reproduces
/// exact repair-traffic counts run over run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeFaultConfig {
    /// Node → per-node arrival index at which the node dies and stays
    /// dead (every call from that index on fails with
    /// [`NodeDownError`]).
    pub down_at: BTreeMap<usize, u64>,
}

impl NodeFaultConfig {
    /// No injected node faults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// This config with node `node` dying permanently at its `call`-th
    /// arrival (0 = dead before the run starts).
    #[must_use]
    pub fn permanent_fail_at(mut self, node: usize, call: u64) -> Self {
        self.down_at.insert(node, call);
        self
    }
}

/// The payload of a dead-node [`io::Error`]: node `node` failed
/// permanently at its own call number `call` (injected or declared
/// via quarantine). Never matched by the transient retry predicate.
#[derive(Debug)]
pub struct NodeDownError {
    /// The dead I/O node.
    pub node: usize,
    /// The per-node arrival index the death fired at.
    pub call: u64,
}

impl std::fmt::Display for NodeDownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "I/O node {} down (at node call {})",
            self.node, self.call
        )
    }
}

impl std::error::Error for NodeDownError {}

/// Whether `e` is a dead-node error (see [`NodeDownError`]).
#[must_use]
pub fn is_node_down(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<NodeDownError>())
}

/// The dead-node payload of `e`, if any.
#[must_use]
pub fn node_down(e: &io::Error) -> Option<&NodeDownError> {
    e.get_ref().and_then(|inner| inner.downcast_ref())
}

/// A dead-node [`io::Error`] for node `node` at per-node call `call`.
#[must_use]
pub fn node_down_error(node: usize, call: u64) -> io::Error {
    io::Error::other(NodeDownError { node, call })
}

#[derive(Debug)]
struct FaultState {
    /// Index the next call will be assigned (per-store counter).
    next_call: u64,
    injected: u64,
    consecutive: u32,
    /// Sticky once the crash index is reached.
    crashed: bool,
}

/// What a single store call does under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Roll {
    Pass,
    Transient,
    Crash {
        index: u64,
        /// `Some(frac_per_mille)` when a torn prefix should land.
        torn: Option<u32>,
    },
}

/// A [`Store`] wrapper injecting seeded transient failures.
#[derive(Debug)]
pub struct FaultStore<S> {
    inner: S,
    config: FaultConfig,
    state: Arc<Mutex<FaultState>>,
}

/// A cheap shared handle counting the failures a [`FaultStore`] has
/// injected so far.
#[derive(Debug, Clone)]
pub struct FaultHandle(Arc<Mutex<FaultState>>);

impl FaultHandle {
    /// Failures injected so far.
    ///
    /// # Panics
    /// Panics if the fault mutex was poisoned.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.0.lock().expect("fault lock").injected
    }

    /// Store calls attempted so far (including failed ones) — the
    /// per-store call-index space crash points are expressed in.
    ///
    /// # Panics
    /// Panics if the fault mutex was poisoned.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.0.lock().expect("fault lock").next_call
    }
}

impl<S: Store> FaultStore<S> {
    /// Wraps `inner` under `config`.
    #[must_use]
    pub fn new(inner: S, config: FaultConfig) -> Self {
        FaultStore {
            inner,
            config,
            state: Arc::new(Mutex::new(FaultState {
                next_call: 0,
                injected: 0,
                consecutive: 0,
                crashed: false,
            })),
        }
    }

    /// A shared handle onto the injection counter.
    #[must_use]
    pub fn handle(&self) -> FaultHandle {
        FaultHandle(Arc::clone(&self.state))
    }

    /// Unwraps the backing store.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Decides (and records) what the next call does. The lock only
    /// serializes the per-store call counter and the running caps;
    /// the underlying decisions are pure functions of the index —
    /// [`raw_fault`] for transients, [`CrashMode::crash_index`] for
    /// the crash point.
    fn roll(&self) -> Roll {
        let mut s = self.state.lock().expect("fault lock");
        let index = s.next_call;
        s.next_call += 1;
        if s.crashed {
            return Roll::Crash { index, torn: None };
        }
        if let Some(at) = self.config.crash.crash_index() {
            if index >= at {
                s.crashed = true;
                s.injected += 1;
                let torn = match self.config.crash {
                    CrashMode::TornWrite { frac_per_mille, .. } if index == at => {
                        Some(frac_per_mille)
                    }
                    _ => None,
                };
                return Roll::Crash { index, torn };
            }
        }
        let fail = raw_fault(&self.config, index)
            && s.injected < self.config.max_faults
            && s.consecutive < self.config.max_consecutive;
        if fail {
            s.injected += 1;
            s.consecutive += 1;
            Roll::Transient
        } else {
            s.consecutive = 0;
            Roll::Pass
        }
    }

    fn transient_error() -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, "injected transient I/O failure")
    }

    fn crashed_error(index: u64, torn: bool) -> io::Error {
        io::Error::other(CrashedError { call: index, torn })
    }
}

/// The raw (uncapped) fail decision for call `index` under `config`:
/// a stateless splitmix64-style hash of `(seed, index)`. Every capped
/// decision derives from these, so the whole schedule is a pure
/// function of the per-store call index.
#[must_use]
fn raw_fault(config: &FaultConfig, index: u64) -> bool {
    let mut x = config
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        | 1;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x % 1000 < u64::from(config.fail_per_mille)
}

/// The capped fail/pass schedule for the first `calls` calls of a
/// store under `config` — exactly what a [`FaultStore`] with that
/// config injects, whatever the caller interleaving. Regression tests
/// compare concurrent observations against this plan.
#[must_use]
pub fn fault_plan(config: &FaultConfig, calls: u64) -> Vec<bool> {
    let mut plan = Vec::with_capacity(usize::try_from(calls).unwrap_or(0));
    let (mut injected, mut consecutive) = (0u64, 0u32);
    for index in 0..calls {
        let fail = raw_fault(config, index)
            && injected < config.max_faults
            && consecutive < config.max_consecutive;
        if fail {
            injected += 1;
            consecutive += 1;
        } else {
            consecutive = 0;
        }
        plan.push(fail);
    }
    plan
}

impl<S: Store> Store for FaultStore<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        match self.roll() {
            Roll::Pass => self.inner.read_run(offset, buf),
            Roll::Transient => Err(Self::transient_error()),
            Roll::Crash { index, .. } => Err(Self::crashed_error(index, false)),
        }
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        match self.roll() {
            Roll::Pass => self.inner.write_run(offset, buf),
            Roll::Transient => Err(Self::transient_error()),
            Roll::Crash { index, torn } => {
                if let Some(frac) = torn {
                    // A torn write: the head of the buffer lands, the
                    // tail is lost, and the caller sees the crash.
                    let keep = (buf.len() as u64 * u64::from(frac.min(1000)) / 1000) as usize;
                    if keep > 0 {
                        let _ = self.inner.write_run(offset, &buf[..keep]);
                    }
                }
                Err(Self::crashed_error(index, torn.is_some()))
            }
        }
    }

    fn reset_metrics(&mut self) {
        self.inner.reset_metrics();
    }

    fn metrics(&self) -> Option<MeasuredIo> {
        self.inner.metrics()
    }

    fn access_log(&self) -> Option<Vec<crate::profile::AccessRecord>> {
        self.inner.access_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn deterministic_for_equal_seeds() {
        let run = |seed: u64| -> Vec<bool> {
            let s = FaultStore::new(MemStore::new(8), FaultConfig::transient(seed, 300));
            (0..100)
                .map(|_| {
                    let mut buf = [0.0; 1];
                    s.read_run(0, &mut buf).is_err()
                })
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds must differ");
    }

    #[test]
    fn respects_max_faults_and_consecutive_cap() {
        let mut s = FaultStore::new(MemStore::new(8), FaultConfig::first_n(7, 3));
        let mut failures = 0;
        let mut consecutive: u32 = 0;
        for i in 0..200u64 {
            let r = s.write_run(i % 4, &[1.0]);
            if r.is_err() {
                failures += 1;
                consecutive += 1;
                assert!(consecutive <= 1, "max_consecutive=1 violated");
            } else {
                consecutive = 0;
            }
        }
        assert_eq!(failures, 3, "exactly max_faults injected");
        assert_eq!(s.handle().injected(), 3);
    }

    #[test]
    fn failures_are_transient_and_side_effect_free() {
        let mut s = FaultStore::new(MemStore::new(4), FaultConfig::first_n(1, 1));
        // Drive calls until the single failure fires; retrying the same
        // write must then succeed and take effect.
        let mut failed_once = false;
        for _ in 0..50 {
            match s.write_run(0, &[9.0]) {
                Ok(()) => {}
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::Interrupted);
                    failed_once = true;
                    s.write_run(0, &[9.0]).expect("retry succeeds");
                }
            }
        }
        assert!(failed_once, "the injected failure fired");
        let mut buf = [0.0; 1];
        s.read_run(0, &mut buf).expect("read");
        assert_eq!(buf[0], 9.0);
    }

    #[test]
    fn observed_schedule_matches_the_plan() {
        let config = FaultConfig::transient(99, 250);
        let s = FaultStore::new(MemStore::new(8), config);
        let plan = fault_plan(&config, 64);
        for (k, planned) in plan.iter().enumerate() {
            let mut buf = [0.0; 1];
            let observed = s.read_run(0, &mut buf).is_err();
            assert_eq!(observed, *planned, "live call {k} diverged from plan");
        }
    }

    #[test]
    fn per_store_schedule_survives_concurrent_callers() {
        // Two stores under the same config: one hammered from four
        // threads, one driven sequentially. Each store numbers its own
        // calls, so the *set* of injected faults must match the pure
        // plan exactly — thread interleaving only changes which caller
        // observes a given failure, never how many fire or when (by
        // call index) they fire.
        let config = FaultConfig::transient(7, 300);
        let calls_per_thread = 64u64;
        let threads = 4u64;
        let total = calls_per_thread * threads;

        let concurrent = FaultStore::new(MemStore::new(8), config);
        let failures = Mutex::new(0u64);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut local = 0u64;
                    for _ in 0..calls_per_thread {
                        let mut buf = [0.0; 1];
                        if concurrent.read_run(0, &mut buf).is_err() {
                            local += 1;
                        }
                    }
                    *failures.lock().expect("count lock") += local;
                });
            }
        });

        let planned: u64 = fault_plan(&config, total).iter().filter(|&&f| f).count() as u64;
        assert!(planned > 0, "config must actually inject");
        assert_eq!(*failures.lock().expect("count lock"), planned);
        assert_eq!(concurrent.handle().injected(), planned);

        // And the sequential twin sees the identical schedule.
        let sequential = FaultStore::new(MemStore::new(8), config);
        let observed: Vec<bool> = (0..total)
            .map(|_| {
                let mut buf = [0.0; 1];
                sequential.read_run(0, &mut buf).is_err()
            })
            .collect();
        assert_eq!(observed, fault_plan(&config, total));
    }

    #[test]
    fn crash_at_is_sticky_and_not_transient() {
        let mut s = FaultStore::new(MemStore::new(8), FaultConfig::crash_at(3));
        let mut buf = [0.0; 1];
        for k in 0..3u64 {
            s.read_run(k % 4, &mut buf).expect("pre-crash calls pass");
        }
        let e = s.write_run(0, &[1.0]).expect_err("call 3 crashes");
        assert!(is_crashed(&e), "typed crash payload");
        assert!(
            !crate::array::RetryPolicy::is_transient(&e),
            "crashes must not be retried"
        );
        // Dead forever: every later call fails too.
        for _ in 0..5 {
            let e = s.read_run(0, &mut buf).expect_err("dead store");
            assert!(is_crashed(&e));
        }
        assert_eq!(s.handle().calls(), 9);
        // The dying (non-torn) write left no trace.
        let fresh = FaultStore::new(MemStore::new(8), FaultConfig::transient(0, 0));
        fresh.read_run(0, &mut buf).expect("read");
        assert_eq!(buf[0], 0.0);
    }

    #[test]
    fn torn_write_lands_a_prefix() {
        let mut s = FaultStore::new(MemStore::new(8), FaultConfig::torn_write(0, 500));
        let e = s
            .write_run(0, &[1.0, 2.0, 3.0, 4.0])
            .expect_err("call 0 crashes");
        assert!(is_crashed(&e));
        assert!(e.to_string().contains("torn write"));
        // Half the buffer landed before the crash.
        let inner = s.into_inner();
        let mut buf = [0.0; 4];
        inner.read_run(0, &mut buf).expect("read inner");
        assert_eq!(buf, [1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn crash_keeps_transient_schedule_below_crash_point() {
        // The same seeded transient schedule replays identically with
        // and without a crash bolted on — determinism satellite.
        let plain = FaultConfig::transient(11, 300);
        let crashing = plain.with_crash(CrashMode::CrashAt(40));
        let plan = fault_plan(&plain, 40);
        let s = FaultStore::new(MemStore::new(8), crashing);
        let mut buf = [0.0; 1];
        for (k, planned) in plan.iter().enumerate() {
            let r = s.read_run(0, &mut buf);
            match r {
                Ok(()) => assert!(!planned, "call {k} passed but plan says fail"),
                Err(e) => {
                    assert!(planned, "call {k} failed but plan says pass");
                    assert!(
                        !is_crashed(&e),
                        "below the crash point faults are transient"
                    );
                }
            }
        }
        let e = s.read_run(0, &mut buf).expect_err("call 40 crashes");
        assert!(is_crashed(&e));
    }

    #[test]
    fn node_fault_errors_are_typed_and_not_transient() {
        let down = io::Error::other(NodeDownError { node: 2, call: 17 });
        assert!(is_node_down(&down));
        assert!(!is_crashed(&down));
        assert!(!crate::array::RetryPolicy::is_transient(&down));
        assert_eq!(node_down(&down).expect("payload").node, 2);
        assert_eq!(node_down(&down).expect("payload").call, 17);
    }

    #[test]
    fn node_fault_config_builders_compose() {
        let cfg = NodeFaultConfig::new()
            .permanent_fail_at(3, 40)
            .permanent_fail_at(1, 0);
        assert_eq!(cfg.down_at.get(&3), Some(&40));
        assert_eq!(cfg.down_at.get(&1), Some(&0));
        assert!(NodeFaultConfig::new().down_at.is_empty());
    }

    #[test]
    fn zero_rate_never_fails() {
        let s = FaultStore::new(MemStore::new(8), FaultConfig::transient(1, 0));
        for _ in 0..100 {
            let mut buf = [0.0; 2];
            s.read_run(0, &mut buf).expect("no faults at rate 0");
        }
        assert_eq!(s.handle().injected(), 0);
    }
}
