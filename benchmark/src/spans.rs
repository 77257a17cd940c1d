//! The benchmark's own in-memory span recorder.
//!
//! Every call the benchmark makes into a crate goes through
//! [`Recorder::time`], which always measures the call with
//! `Instant` and, when recording is on, also keeps a span
//! `{id, parent, name, workload, start_ns, end_ns}`. End-to-end
//! metrics are measured with recording off; the traced pass turns it
//! on, and the difference between the two is
//! `bench.span_overhead_frac`. No span is recorded inside any crate:
//! the benchmark is single-threaded at this level, so a plain stack
//! gives each span its parent.

use ooc_trace::json::Json;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer boundary name.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Times calls and, when enabled, records them as a span tree.
#[derive(Debug)]
pub struct Recorder {
    workload: String,
    enabled: bool,
    paused: Cell<bool>,
    epoch: Instant,
    state: RefCell<State>,
}

impl Recorder {
    /// A recorder for one workload's process; `enabled` is the
    /// `--trace` flag.
    #[must_use]
    pub fn new(workload: &str, enabled: bool) -> Self {
        Recorder {
            workload: workload.to_string(),
            enabled,
            paused: Cell::new(false),
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Suspends (`true`) or resumes recording — the untraced half of
    /// the span-overhead comparison runs paused.
    pub fn pause(&self, paused: bool) {
        self.paused.set(paused);
    }

    /// Runs `f`, returning its result and its duration in seconds.
    /// Spans opened inside `f` become children of this one.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.enabled || self.paused.get() {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed().as_secs_f64());
        }
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let parent = st.stack.last().copied();
            st.spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
            });
            st.stack.push(id);
            id
        };
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        let start_ns = u64::try_from((t0 - self.epoch).as_nanos()).unwrap_or(u64::MAX);
        let mut st = self.state.borrow_mut();
        st.stack.pop();
        st.spans[id].start_ns = start_ns;
        st.spans[id].end_ns =
            start_ns.saturating_add(u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX));
        (r, dt.as_secs_f64())
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spans as a JSON array. `self_ns` is the span's duration
    /// minus the time its children cover.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let st = self.state.borrow();
        let mut child_ns = vec![0u64; st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Json::Arr(
            st.spans
                .iter()
                .map(|s| {
                    let dur = s.end_ns - s.start_ns;
                    Json::obj([
                        ("id", Json::U64(s.id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("name", Json::Str(s.name.clone())),
                        ("workload", Json::Str(self.workload.clone())),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        ("self_ns", Json::U64(dur.saturating_sub(child_ns[s.id]))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let rec = Recorder::new("w", true);
        rec.time("outer", || {
            rec.time("inner", || std::hint::black_box(1 + 1));
        });
        let json = rec.to_json();
        let spans = json.as_arr().expect("array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent"), Some(&Json::U64(0)));
        let dur = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).expect("number");
        let outer = dur(&spans[0], "end_ns") - dur(&spans[0], "start_ns");
        let inner = dur(&spans[1], "end_ns") - dur(&spans[1], "start_ns");
        assert_eq!(dur(&spans[0], "self_ns"), outer - inner);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new("w", false);
        let (v, secs) = rec.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.is_empty());
    }
}
