//! # ooc-trace
//!
//! A zero-dependency structured tracing subsystem for the out-of-core
//! compiler and runtime: nestable spans with monotonic timestamps,
//! instant events, typed counters, and machine-readable
//! *decision-explain* records, collected by a process-wide
//! [`Session`] and exported as Chrome-trace-event JSON
//! ([`chrome::chrome_trace_json`], openable in `chrome://tracing` or
//! Perfetto) or rendered as a plain-text tree ([`tree::render_tree`]).
//!
//! Design constraints:
//!
//! * **Cheap when off.** Every emitter first checks one relaxed
//!   atomic ([`enabled`]); with no session installed the entire
//!   subsystem is a single load-and-branch, so instrumented hot paths
//!   (per-tile I/O) cost nothing measurable in normal runs.
//! * **Thread-safe.** Any thread may emit concurrently; events carry
//!   a small per-thread id and per-thread timestamp order is
//!   preserved.
//! * **One session at a time.** [`Session::start`] holds a
//!   process-wide lock until the session is dropped, so concurrent
//!   tests serialize instead of corrupting each other's traces.
//!
//! ```
//! let session = ooc_trace::Session::start();
//! {
//!     let _span = ooc_trace::span("compiler", "optimize");
//!     ooc_trace::counter("nests", 2.0);
//!     ooc_trace::explain(
//!         ooc_trace::Explain::new("layout-fixed", "U", "RowMajor")
//!             .detail("nest", "nest1"),
//!     );
//! }
//! let data = session.finish();
//! assert_eq!(data.explains.len(), 1);
//! let json = ooc_trace::chrome::chrome_trace_json(&data.events);
//! ooc_trace::chrome::validate_chrome_trace(&json).expect("well-formed");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod json;
pub mod tree;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// A typed argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A string.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
}

impl From<&str> for ArgValue {
    fn from(s: &str) -> Self {
        ArgValue::Str(s.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(s: String) -> Self {
        ArgValue::Str(s)
    }
}
impl From<u64> for ArgValue {
    fn from(n: u64) -> Self {
        ArgValue::U64(n)
    }
}
impl From<i64> for ArgValue {
    fn from(n: i64) -> Self {
        ArgValue::I64(n)
    }
}
impl From<f64> for ArgValue {
    fn from(x: f64) -> Self {
        ArgValue::F64(x)
    }
}

/// What kind of event this is, mirroring the Chrome trace phases.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Span begin (`ph: "B"`).
    Begin,
    /// Span end (`ph: "E"`).
    End,
    /// Instantaneous event (`ph: "i"`).
    Instant,
    /// Counter sample (`ph: "C"`).
    Counter(f64),
    /// Cross-thread causal-link start (`ph: "s"`), keyed by a flow id.
    /// Pairs with a [`EventKind::FlowFinish`] of the same id on the
    /// receiving thread (e.g. a prefetch delivery being consumed).
    FlowStart(u64),
    /// Cross-thread causal-link finish (`ph: "f"`), keyed by a flow id.
    FlowFinish(u64),
}

/// The role an execution lane plays in a parallel out-of-core run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LaneKind {
    /// The orchestrating thread (setup, joins, flush barriers).
    Main,
    /// A shard worker executing iteration-space slices.
    Shard,
    /// A prefetch pool worker fetching tiles ahead of compute.
    Prefetch,
    /// The write-behind writer draining dirty tiles.
    Writer,
    /// A striped-store I/O node servicing tile requests.
    IoNode,
}

impl LaneKind {
    /// Stable lowercase label used in exports and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LaneKind::Main => "main",
            LaneKind::Shard => "shard",
            LaneKind::Prefetch => "prefetch",
            LaneKind::Writer => "writer",
            LaneKind::IoNode => "ionode",
        }
    }
}

/// Structured lane identity stamped on every event a thread emits
/// while a [`LaneScope`] is active: which kind of worker it is and its
/// index within that kind (shard 2, prefetch worker 0, I/O node 5...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lane {
    /// The lane's role.
    pub kind: LaneKind,
    /// Index within the role (shard number, node number, ...).
    pub index: u32,
}

impl Lane {
    /// A lane of `kind` with the given index.
    #[must_use]
    pub fn new(kind: LaneKind, index: u32) -> Lane {
        Lane { kind, index }
    }
    /// The orchestrating main lane.
    #[must_use]
    pub fn main() -> Lane {
        Lane::new(LaneKind::Main, 0)
    }
    /// Shard worker `index`.
    #[must_use]
    pub fn shard(index: u32) -> Lane {
        Lane::new(LaneKind::Shard, index)
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.kind.label(), self.index)
    }
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Microseconds since the session epoch (monotonic per thread).
    pub ts_us: u64,
    /// Small per-thread id (assigned in thread-creation order).
    pub tid: u64,
    /// Structured lane identity of the emitting thread, if declared
    /// via [`lane_scope`].
    pub lane: Option<Lane>,
    /// Event name (span name, counter name, ...).
    pub name: String,
    /// Category, e.g. `"compiler"` or `"runtime"`.
    pub cat: &'static str,
    /// Phase of the event.
    pub kind: EventKind,
    /// Typed arguments (decision payloads, sizes, labels).
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A machine-readable record of one compiler/runtime decision: *what*
/// was decided about *whom*, and the evidence *why*.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// Decision taxonomy slug, e.g. `"cost-rank"`, `"layout-fixed"`,
    /// `"layout-propagated"`, `"transform"`, `"kernel-relation"`,
    /// `"completion"`, `"component"`, `"normalize"`, `"compile"`.
    pub kind: &'static str,
    /// The entity the decision is about (nest or array name).
    pub subject: String,
    /// The decision itself, rendered compactly.
    pub decision: String,
    /// Supporting evidence as key/value pairs.
    pub details: Vec<(&'static str, String)>,
}

impl Explain {
    /// A new record with no details yet.
    #[must_use]
    pub fn new(
        kind: &'static str,
        subject: impl Into<String>,
        decision: impl Into<String>,
    ) -> Self {
        Explain {
            kind,
            subject: subject.into(),
            decision: decision.into(),
            details: Vec::new(),
        }
    }

    /// Appends one detail pair (builder style).
    #[must_use]
    pub fn detail(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.details.push((key, value.into()));
        self
    }
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:18} {:10} -> {}",
            self.kind, self.subject, self.decision
        )?;
        for (k, v) in &self.details {
            write!(f, "  [{k}={v}]")?;
        }
        Ok(())
    }
}

/// Everything a finished session collected.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// All events in emission order.
    pub events: Vec<Event>,
    /// All decision-explain records in emission order.
    pub explains: Vec<Explain>,
}

impl TraceData {
    /// Sum of every counter sample with the given name.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> f64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match e.kind {
                EventKind::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// The explain records of one kind, in order.
    #[must_use]
    pub fn explains_of(&self, kind: &str) -> Vec<&Explain> {
        self.explains.iter().filter(|e| e.kind == kind).collect()
    }
}

#[derive(Debug)]
struct SessionInner {
    epoch: Instant,
    data: Mutex<TraceData>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT: RwLock<Option<Arc<SessionInner>>> = RwLock::new(None);
static INSTALL_LOCK: Mutex<()> = Mutex::new(());
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static LANE: Cell<Option<Lane>> = const { Cell::new(None) };
}

/// The lane identity currently declared for this thread, if any.
#[must_use]
fn current_lane() -> Option<Lane> {
    LANE.with(Cell::get)
}

/// Declares this thread's lane identity for the duration of the
/// returned guard; every event the thread emits meanwhile carries it.
/// Nesting restores the previous lane on drop.
#[must_use]
pub fn lane_scope(lane: Lane) -> LaneScope {
    let prev = LANE.with(|l| l.replace(Some(lane)));
    LaneScope { prev }
}

/// RAII guard from [`lane_scope`]; restores the previous lane on drop.
#[derive(Debug)]
pub struct LaneScope {
    prev: Option<Lane>,
}

impl Drop for LaneScope {
    fn drop(&mut self) {
        LANE.with(|l| l.set(self.prev));
    }
}

/// `true` while a [`Session`] is installed. Relaxed atomic load — the
/// no-op fast path of every emitter.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn current() -> Option<Arc<SessionInner>> {
    if !enabled() {
        return None;
    }
    CURRENT
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

fn emit(
    inner: &SessionInner,
    name: String,
    cat: &'static str,
    kind: EventKind,
    args: Vec<(&'static str, ArgValue)>,
) {
    let ts_us = u64::try_from(inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
    let tid = TID.with(|t| *t);
    let lane = current_lane();
    let event = Event {
        ts_us,
        tid,
        lane,
        name,
        cat,
        kind,
        args,
    };
    inner
        .data
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .events
        .push(event);
}

/// The process-wide trace collector. Starting a session enables every
/// emitter in the process; dropping (or [`Session::finish`]ing) it
/// disables them again and releases the collected data.
#[derive(Debug)]
pub struct Session {
    inner: Arc<SessionInner>,
    _exclusive: MutexGuard<'static, ()>,
}

impl Session {
    /// Installs a fresh session. Blocks until any other live session
    /// is dropped (sessions are process-exclusive).
    #[must_use]
    pub fn start() -> Session {
        let exclusive = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let inner = Arc::new(SessionInner {
            epoch: Instant::now(),
            data: Mutex::new(TraceData::default()),
        });
        *CURRENT.write().unwrap_or_else(PoisonError::into_inner) = Some(inner.clone());
        ENABLED.store(true, Ordering::Relaxed);
        Session {
            inner,
            _exclusive: exclusive,
        }
    }

    /// A snapshot of everything collected so far (the session stays
    /// live).
    ///
    /// # Panics
    /// Panics if an emitter panicked while holding the data lock.
    #[must_use]
    pub fn snapshot(&self) -> TraceData {
        self.inner
            .data
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Stops the session and returns everything it collected.
    #[must_use]
    pub fn finish(self) -> TraceData {
        let data = self.snapshot();
        ENABLED.store(false, Ordering::Relaxed);
        *CURRENT.write().unwrap_or_else(PoisonError::into_inner) = None;
        data
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
        *CURRENT.write().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Keeps trace sessions out of the process: waits for a live
/// [`Session`] to end and blocks new ones until the guard drops.
///
/// Emitters are process-wide, so code that emits events while another
/// thread owns a session leaks spans into that session — and has them
/// cut off when it finishes. Tests that share a binary with
/// session-owning tests hold this guard while they run instrumented
/// code (or assert that tracing is off). Starting a session on a
/// thread that holds the guard deadlocks.
#[must_use]
pub fn exclude_sessions() -> SessionExclusion {
    SessionExclusion {
        _exclusive: INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

/// RAII guard from [`exclude_sessions`].
#[derive(Debug)]
pub struct SessionExclusion {
    _exclusive: MutexGuard<'static, ()>,
}

/// An RAII span: a `Begin` event now, the matching `End` when dropped.
/// Inert (no allocation, no clock read) when tracing is disabled at
/// construction time.
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<(Arc<SessionInner>, String, &'static str)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, name, cat)) = self.live.take() {
            emit(&inner, name, cat, EventKind::End, Vec::new());
        }
    }
}

/// Opens a span named `name` in category `cat`.
#[must_use]
pub fn span(cat: &'static str, name: &str) -> SpanGuard {
    span_with(cat, name, Vec::new())
}

/// [`span`] with arguments attached to the `Begin` event.
#[must_use]
pub fn span_with(cat: &'static str, name: &str, args: Vec<(&'static str, ArgValue)>) -> SpanGuard {
    match current() {
        None => SpanGuard { live: None },
        Some(inner) => {
            let name = name.to_string();
            emit(&inner, name.clone(), cat, EventKind::Begin, args);
            SpanGuard {
                live: Some((inner, name, cat)),
            }
        }
    }
}

/// Emits an instantaneous event.
pub fn instant(cat: &'static str, name: &str, args: Vec<(&'static str, ArgValue)>) {
    if let Some(inner) = current() {
        emit(&inner, name.to_string(), cat, EventKind::Instant, args);
    }
}

/// Emits a counter sample. Samples with the same name form a time
/// series in the Chrome trace and sum in
/// [`TraceData::counter_total`].
pub fn counter(name: &str, value: f64) {
    if let Some(inner) = current() {
        emit(
            &inner,
            name.to_string(),
            "counter",
            EventKind::Counter(value),
            Vec::new(),
        );
    }
}

/// Emits the producing half of a cross-thread causal link (Chrome
/// flow event `ph: "s"`). The consuming thread closes it with
/// [`flow_finish`] using the same `id` — e.g. a prefetch worker
/// starts flow `seq` when it sends a delivery, and the shard worker
/// finishes it when it accepts that tile.
pub fn flow_start(cat: &'static str, name: &str, id: u64) {
    if let Some(inner) = current() {
        emit(
            &inner,
            name.to_string(),
            cat,
            EventKind::FlowStart(id),
            Vec::new(),
        );
    }
}

/// Emits the consuming half of a cross-thread causal link (Chrome
/// flow event `ph: "f"`). See [`flow_start`].
pub fn flow_finish(cat: &'static str, name: &str, id: u64) {
    if let Some(inner) = current() {
        emit(
            &inner,
            name.to_string(),
            cat,
            EventKind::FlowFinish(id),
            Vec::new(),
        );
    }
}

/// Records a decision-explain record (and mirrors it into the event
/// stream as an instant, so exported traces carry the decisions too).
pub fn explain(record: Explain) {
    if let Some(inner) = current() {
        let mut args: Vec<(&'static str, ArgValue)> = vec![
            ("subject", ArgValue::Str(record.subject.clone())),
            ("decision", ArgValue::Str(record.decision.clone())),
        ];
        for (k, v) in &record.details {
            args.push((k, ArgValue::Str(v.clone())));
        }
        emit(
            &inner,
            format!("explain:{}", record.kind),
            "explain",
            EventKind::Instant,
            args,
        );
        inner
            .data
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .explains
            .push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_cheap() {
        // Sibling tests install sessions concurrently.
        let _no_sessions = exclude_sessions();
        assert!(!enabled());
        // Emitters are no-ops without a session.
        let _s = span("compiler", "nothing");
        counter("x", 1.0);
        instant("compiler", "i", Vec::new());
        explain(Explain::new("k", "s", "d"));
        assert!(!enabled());
    }

    #[test]
    fn session_collects_spans_counters_explains() {
        let session = Session::start();
        assert!(enabled());
        {
            let _outer = span("compiler", "outer");
            {
                let _inner = span_with("compiler", "inner", vec![("n", ArgValue::U64(3))]);
                counter("calls", 2.0);
                counter("calls", 5.0);
            }
            explain(Explain::new("layout-fixed", "U", "RowMajor").detail("nest", "nest1"));
        }
        let data = session.finish();
        assert!(!enabled());
        let kinds: Vec<&EventKind> = data.events.iter().map(|e| &e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &EventKind::Begin,
                &EventKind::Begin,
                &EventKind::Counter(2.0),
                &EventKind::Counter(5.0),
                &EventKind::End,
                &EventKind::Instant,
                &EventKind::End,
            ]
        );
        assert_eq!(data.counter_total("calls"), 7.0);
        assert_eq!(data.explains.len(), 1);
        assert_eq!(data.explains_of("layout-fixed")[0].subject, "U");
        // Timestamps are monotone (single thread).
        for pair in data.events.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
    }

    #[test]
    fn lane_scope_stamps_events_and_restores() {
        let session = Session::start();
        instant("t", "before", Vec::new());
        {
            let _outer = lane_scope(Lane::shard(3));
            instant("t", "in-shard", Vec::new());
            {
                let _inner = lane_scope(Lane::new(LaneKind::Prefetch, 1));
                instant("t", "in-prefetch", Vec::new());
            }
            instant("t", "back-in-shard", Vec::new());
        }
        instant("t", "after", Vec::new());
        let data = session.finish();
        let lanes: Vec<Option<Lane>> = data.events.iter().map(|e| e.lane).collect();
        assert_eq!(
            lanes,
            vec![
                None,
                Some(Lane::shard(3)),
                Some(Lane::new(LaneKind::Prefetch, 1)),
                Some(Lane::shard(3)),
                None,
            ]
        );
        assert_eq!(Lane::shard(3).to_string(), "shard:3");
    }

    #[test]
    fn flow_links_pair_across_threads() {
        let session = Session::start();
        flow_start("pipeline", "delivery", 42);
        std::thread::spawn(|| flow_finish("pipeline", "delivery", 42))
            .join()
            .expect("consumer");
        let data = session.finish();
        assert_eq!(data.events[0].kind, EventKind::FlowStart(42));
        assert_eq!(data.events[1].kind, EventKind::FlowFinish(42));
        assert_ne!(data.events[0].tid, data.events[1].tid);
    }

    #[test]
    fn sessions_are_exclusive_and_sequential() {
        let s1 = Session::start();
        counter("a", 1.0);
        let d1 = s1.finish();
        let s2 = Session::start();
        counter("a", 10.0);
        let d2 = s2.finish();
        assert_eq!(d1.counter_total("a"), 1.0);
        assert_eq!(d2.counter_total("a"), 10.0);
    }

    #[test]
    fn concurrent_emitters_tagged_by_thread() {
        let session = Session::start();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span("runtime", &format!("worker-{i}"));
                    counter("work", 1.0);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let data = session.finish();
        assert_eq!(data.counter_total("work"), 4.0);
        let tids: std::collections::BTreeSet<u64> = data.events.iter().map(|e| e.tid).collect();
        assert!(tids.len() >= 4, "expected >=4 distinct tids, got {tids:?}");
    }
}
