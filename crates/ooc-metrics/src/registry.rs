//! The per-run metrics registry: typed, labeled, thread-safe.
//!
//! A [`Registry`] is a cheap clonable handle onto a shared metric
//! table; any thread may record through any clone concurrently. Three
//! metric types exist, mirroring the Prometheus data model restricted
//! to what the experiment harnesses need:
//!
//! * **counter** — a monotone `u64` (I/O calls, seeks, tile steps).
//!   Deterministic given the program and inputs, so a downstream diff
//!   may demand exact equality.
//! * **gauge** — a point-in-time `f64` (simulated seconds, wall-clock
//!   milliseconds). Subject to noise or legitimate drift; diffs apply
//!   relative thresholds.
//! * **histogram** — counts over the shared log2 bucket scheme
//!   ([`crate::log2_bucket`]), e.g. per-call run lengths.
//!
//! A metric is identified by a [`Key`]: a name plus sorted
//! `label=value` pairs, so `io_calls{kernel="trans",version="col"}`
//! and `io_calls{kernel="mxm",version="col"}` are distinct series of
//! one metric family.

use crate::{log2_bucket, LOG2_BUCKETS};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// A metric identity: name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// Metric (family) name, e.g. `io_calls`.
    pub name: String,
    /// Label pairs, kept sorted by label name so equal label sets
    /// compare equal regardless of construction order.
    pub labels: Vec<(String, String)>,
}

impl Key {
    /// Builds a key; labels are sorted by name.
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        Key {
            name: name.to_string(),
            labels,
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}=\"{v}\"")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// A log2-bucketed histogram (shared bucket scheme, see
/// [`crate::log2_bucket`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub buckets: [u64; LOG2_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[log2_bucket(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Builds a histogram from pre-bucketed counts (e.g. the runtime's
    /// `MeasuredIo::run_hist`) plus the known sum of observations.
    #[must_use]
    pub fn from_counts(buckets: [u64; LOG2_BUCKETS], sum: u64) -> Self {
        Histogram {
            buckets,
            count: buckets.iter().sum(),
            sum,
        }
    }

    /// Adds `other`'s observations into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile (`0.0 ≤ q ≤ 1.0`), reported as the upper
    /// bound of the log2 bucket holding that rank — an upper estimate
    /// with the bucketing's resolution. Returns 0 when empty.
    ///
    /// # Panics
    /// Panics when `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        // Nearest rank: ceil(q * count), clamped to [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return crate::bucket_bounds(i).1;
            }
        }
        crate::bucket_bounds(LOG2_BUCKETS - 1).1
    }

    /// Compact one-line rendering: each nonzero bucket as
    /// `[lo-hi]xCOUNT` (`[lo+]` for the overflow bucket), e.g.
    /// `[0-1]x3 [8-15]x4`. Empty string when empty.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut parts = Vec::new();
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (lo, hi) = crate::bucket_bounds(i);
            if hi == u64::MAX {
                parts.push(format!("[{lo}+]x{count}"));
            } else {
                parts.push(format!("[{lo}-{hi}]x{count}"));
            }
        }
        parts.join(" ")
    }
}

/// A metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Monotone unsigned counter.
    Counter(u64),
    /// Point-in-time float.
    Gauge(f64),
    /// Log2-bucketed histogram.
    Histogram(Histogram),
}

impl Value {
    /// Short type tag used in JSON and error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Counter(n) => write!(f, "{n}"),
            Value::Gauge(x) => write!(f, "{x}"),
            Value::Histogram(h) => write!(f, "hist(count={}, sum={})", h.count, h.sum),
        }
    }
}

/// A clonable handle onto a shared, thread-safe metric table.
///
/// Recording against an existing key with a different metric type
/// panics — a registry is typed, and a type confusion is a programming
/// error that must surface in tests, not corrupt exported snapshots.
#[derive(Debug, Clone, Default)]
pub struct Registry(Arc<Mutex<BTreeMap<Key, Value>>>);

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn with_entry(&self, key: Key, default: Value, f: impl FnOnce(&mut Value)) {
        let mut table = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = table.entry(key).or_insert(default);
        f(entry);
    }

    /// Adds `delta` to the counter at `name{labels}` (created at 0).
    ///
    /// # Panics
    /// Panics if the key already holds a non-counter metric.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let key = Key::new(name, labels);
        self.with_entry(key.clone(), Value::Counter(0), |v| match v {
            Value::Counter(n) => *n += delta,
            other => panic!("metric {key} is a {}, not a counter", other.type_name()),
        });
    }

    /// Sets the gauge at `name{labels}`.
    ///
    /// # Panics
    /// Panics if the key already holds a non-gauge metric.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let key = Key::new(name, labels);
        self.with_entry(key.clone(), Value::Gauge(value), |v| match v {
            Value::Gauge(x) => *x = value,
            other => panic!("metric {key} is a {}, not a gauge", other.type_name()),
        });
    }

    /// Records one observation into the histogram at `name{labels}`.
    ///
    /// # Panics
    /// Panics if the key already holds a non-histogram metric.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        let key = Key::new(name, labels);
        self.with_entry(
            key.clone(),
            Value::Histogram(Histogram::default()),
            |val| match val {
                Value::Histogram(h) => h.observe(v),
                other => panic!("metric {key} is a {}, not a histogram", other.type_name()),
            },
        );
    }

    /// Merges a whole pre-built histogram into `name{labels}`.
    ///
    /// # Panics
    /// Panics if the key already holds a non-histogram metric.
    pub fn record_hist(&self, name: &str, labels: &[(&str, &str)], hist: &Histogram) {
        let key = Key::new(name, labels);
        self.with_entry(
            key.clone(),
            Value::Histogram(Histogram::default()),
            |val| match val {
                Value::Histogram(h) => h.merge(hist),
                other => panic!("metric {key} is a {}, not a histogram", other.type_name()),
            },
        );
    }

    /// The current value of a metric, if recorded.
    #[must_use]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<Value> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&Key::new(name, labels))
            .cloned()
    }

    /// Number of distinct metric series recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sorted copy of every `(key, value)` pair at this instant.
    #[must_use]
    pub fn samples(&self) -> Vec<(Key, Value)> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank_bucket_upper_bound() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        // 10 × 1 (bucket 0), 5 × 8 (bucket 3), 1 × 1000 (bucket 9).
        for _ in 0..10 {
            h.observe(1);
        }
        for _ in 0..5 {
            h.observe(8);
        }
        h.observe(1000);
        assert_eq!(h.quantile(0.0), crate::bucket_bounds(0).1);
        assert_eq!(h.quantile(0.5), crate::bucket_bounds(0).1, "rank 8 of 16");
        assert_eq!(h.quantile(0.9), crate::bucket_bounds(3).1, "rank 15");
        assert_eq!(h.quantile(1.0), crate::bucket_bounds(9).1, "max bucket");
    }

    #[test]
    fn histogram_renders_compactly() {
        let mut buckets = [0; LOG2_BUCKETS];
        assert_eq!(Histogram::from_counts(buckets, 0).compact(), "");
        buckets[0] = 3;
        buckets[3] = 4;
        buckets[LOG2_BUCKETS - 1] = 1;
        assert_eq!(
            Histogram::from_counts(buckets, 0).compact(),
            "[0-1]x3 [8-15]x4 [8388608+]x1"
        );
    }

    #[test]
    fn counters_accumulate_per_series() {
        let r = Registry::new();
        r.counter_add("io_calls", &[("kernel", "trans")], 3);
        r.counter_add("io_calls", &[("kernel", "trans")], 4);
        r.counter_add("io_calls", &[("kernel", "mxm")], 1);
        assert_eq!(
            r.get("io_calls", &[("kernel", "trans")]),
            Some(Value::Counter(7))
        );
        assert_eq!(
            r.get("io_calls", &[("kernel", "mxm")]),
            Some(Value::Counter(1))
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        r.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        r.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.get("c", &[("b", "2"), ("a", "1")]),
            Some(Value::Counter(2))
        );
        assert_eq!(
            Key::new("c", &[("b", "2"), ("a", "1")]).to_string(),
            "c{a=\"1\",b=\"2\"}"
        );
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        r.gauge_set("seconds", &[], 1.5);
        r.gauge_set("seconds", &[], 2.5);
        assert_eq!(r.get("seconds", &[]), Some(Value::Gauge(2.5)));
    }

    #[test]
    fn histogram_observe_and_merge() {
        let mut h = Histogram::default();
        h.observe(1);
        h.observe(8);
        h.observe(9);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 18);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 2);
        assert_eq!(h.mean(), 6.0);

        let r = Registry::new();
        r.observe("run_len", &[], 8);
        r.record_hist("run_len", &[], &h);
        match r.get("run_len", &[]) {
            Some(Value::Histogram(got)) => {
                assert_eq!(got.count, 4);
                assert_eq!(got.sum, 26);
                assert_eq!(got.buckets[3], 3);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter_add("x", &[], 1);
        r.gauge_set("x", &[], 1.0);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let r = Registry::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.counter_add("n", &[], 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        assert_eq!(r.get("n", &[]), Some(Value::Counter(8000)));
    }
}
