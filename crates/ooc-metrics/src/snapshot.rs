//! Schema-versioned, order-stable snapshots of a registry.
//!
//! A [`Snapshot`] is what outlives a run: the producer's name, the
//! schema version, and every metric series sorted by key (so two
//! snapshots of the same program diff cleanly, line by line). The JSON
//! layout is deliberately flat and explicit — every sample carries its
//! own `type` tag — so the file is self-describing without this crate:
//!
//! ```json
//! {
//!   "schema": "ooc-metrics-snapshot/v1",
//!   "producer": "table2",
//!   "metrics": [
//!     {"name": "io_calls", "labels": {"kernel": "trans", "version": "col"},
//!      "type": "counter", "value": 4224},
//!     {"name": "seconds", "labels": {}, "type": "gauge", "value": 12.5},
//!     {"name": "run_len", "labels": {}, "type": "histogram",
//!      "buckets": [0, 1], "count": 1, "sum": 2}
//!   ]
//! }
//! ```
//!
//! (Histogram `buckets` arrays are trailing-zero-trimmed on write and
//! zero-padded on read, keeping typical snapshots compact.)
//!
//! [`validate_snapshot_json`] checks an arbitrary parsed JSON document
//! against this schema and reports every defect — it is the gate CI
//! runs on freshly emitted snapshots before trusting them in
//! `bench-compare`.

use crate::registry::{Histogram, Key, Registry, Value};
use crate::LOG2_BUCKETS;
use ooc_trace::json::Json;

/// The schema identifier every valid snapshot carries.
const SNAPSHOT_SCHEMA: &str = "ooc-metrics-snapshot/v1";

/// A registry's state at one instant, plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Which binary/harness produced this snapshot (e.g. `table2`).
    pub producer: String,
    /// Sorted `(key, value)` samples.
    pub samples: Vec<(Key, Value)>,
}

impl Snapshot {
    /// Captures a registry's current state.
    #[must_use]
    pub fn capture(producer: &str, registry: &Registry) -> Self {
        Snapshot {
            producer: producer.to_string(),
            samples: registry.samples(),
        }
    }

    /// Looks up one series.
    #[must_use]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Value> {
        let key = Key::new(name, labels);
        self.samples
            .binary_search_by(|(k, _)| k.cmp(&key))
            .ok()
            .map(|i| &self.samples[i].1)
    }

    /// Serializes to the schema'd JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let metrics = self
            .samples
            .iter()
            .map(|(key, value)| {
                let labels = Json::Obj(
                    key.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                );
                let mut fields = vec![
                    ("name".to_string(), Json::Str(key.name.clone())),
                    ("labels".to_string(), labels),
                    ("type".to_string(), Json::Str(value.type_name().to_string())),
                ];
                match value {
                    Value::Counter(n) => fields.push(("value".to_string(), Json::U64(*n))),
                    Value::Gauge(x) => fields.push(("value".to_string(), Json::F64(*x))),
                    Value::Histogram(h) => {
                        let used = h.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
                        fields.push((
                            "buckets".to_string(),
                            Json::Arr(h.buckets[..used].iter().map(|&c| Json::U64(c)).collect()),
                        ));
                        fields.push(("count".to_string(), Json::U64(h.count)));
                        fields.push(("sum".to_string(), Json::U64(h.sum)));
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        Json::obj([
            ("schema", Json::Str(SNAPSHOT_SCHEMA.to_string())),
            ("producer", Json::Str(self.producer.clone())),
            ("metrics", Json::Arr(metrics)),
        ])
    }

    /// Reconstructs a snapshot from a parsed JSON document, validating
    /// the schema along the way.
    ///
    /// # Errors
    /// Returns the first structural problem found.
    fn from_json(v: &Json) -> Result<Snapshot, String> {
        validate_snapshot_json(v)?;
        let producer = v
            .get("producer")
            .and_then(Json::as_str)
            .expect("validated")
            .to_string();
        let metrics = v.get("metrics").and_then(Json::as_arr).expect("validated");
        let mut samples = Vec::with_capacity(metrics.len());
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).expect("validated");
            let labels: Vec<(&str, &str)> = match m.get("labels") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str().expect("validated")))
                    .collect(),
                _ => Vec::new(),
            };
            let key = Key::new(name, &labels);
            let value = match m.get("type").and_then(Json::as_str).expect("validated") {
                "counter" => Value::Counter(as_u64(m.get("value").expect("validated"))),
                "gauge" => Value::Gauge(m.get("value").and_then(Json::as_f64).expect("validated")),
                "histogram" => {
                    let arr = m.get("buckets").and_then(Json::as_arr).expect("validated");
                    let mut buckets = [0u64; LOG2_BUCKETS];
                    for (i, b) in arr.iter().enumerate() {
                        buckets[i] = as_u64(b);
                    }
                    Value::Histogram(Histogram {
                        buckets,
                        count: as_u64(m.get("count").expect("validated")),
                        sum: as_u64(m.get("sum").expect("validated")),
                    })
                }
                _ => unreachable!("validated"),
            };
            samples.push((key, value));
        }
        samples.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(Snapshot { producer, samples })
    }

    /// Parses and validates a snapshot from JSON text.
    ///
    /// # Errors
    /// Returns parse errors or the first schema violation.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let v = Json::parse(text)?;
        Snapshot::from_json(&v)
    }
}

fn as_u64(v: &Json) -> u64 {
    match v {
        Json::U64(n) => *n,
        _ => unreachable!("validated unsigned integer"),
    }
}

fn check_u64(v: Option<&Json>, what: &str, ctx: &str) -> Result<(), String> {
    match v {
        Some(Json::U64(_)) => Ok(()),
        Some(other) => Err(format!(
            "{ctx}: `{what}` must be an unsigned integer, got {other:?}"
        )),
        None => Err(format!("{ctx}: missing `{what}`")),
    }
}

/// Validates an arbitrary parsed JSON document against the
/// `ooc-metrics-snapshot/v1` schema.
///
/// # Errors
/// Returns a message locating the first violation.
pub fn validate_snapshot_json(v: &Json) -> Result<(), String> {
    match v.get("schema").and_then(Json::as_str) {
        Some(SNAPSHOT_SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "unknown schema `{other}` (want `{SNAPSHOT_SCHEMA}`)"
            ))
        }
        None => return Err("missing `schema` field".to_string()),
    }
    if v.get("producer").and_then(Json::as_str).is_none() {
        return Err("missing or non-string `producer`".to_string());
    }
    let Some(metrics) = v.get("metrics").and_then(Json::as_arr) else {
        return Err("missing or non-array `metrics`".to_string());
    };
    for (i, m) in metrics.iter().enumerate() {
        let ctx = format!("metrics[{i}]");
        let Some(name) = m.get("name").and_then(Json::as_str) else {
            return Err(format!("{ctx}: missing or non-string `name`"));
        };
        if name.is_empty() {
            return Err(format!("{ctx}: empty metric name"));
        }
        let ctx = format!("{ctx} ({name})");
        match m.get("labels") {
            Some(Json::Obj(fields)) => {
                for (k, lv) in fields {
                    if lv.as_str().is_none() {
                        return Err(format!("{ctx}: label `{k}` must be a string"));
                    }
                }
            }
            Some(_) => return Err(format!("{ctx}: `labels` must be an object")),
            None => return Err(format!("{ctx}: missing `labels`")),
        }
        match m.get("type").and_then(Json::as_str) {
            Some("counter") => check_u64(m.get("value"), "value", &ctx)?,
            Some("gauge") => {
                if m.get("value").and_then(Json::as_f64).is_none() {
                    return Err(format!("{ctx}: gauge `value` must be a number"));
                }
            }
            Some("histogram") => {
                let Some(arr) = m.get("buckets").and_then(Json::as_arr) else {
                    return Err(format!("{ctx}: histogram missing `buckets` array"));
                };
                if arr.len() > LOG2_BUCKETS {
                    return Err(format!(
                        "{ctx}: {} buckets exceeds the schema's {LOG2_BUCKETS}",
                        arr.len()
                    ));
                }
                for (bi, b) in arr.iter().enumerate() {
                    if !matches!(b, Json::U64(_)) {
                        return Err(format!("{ctx}: buckets[{bi}] must be an unsigned integer"));
                    }
                }
                check_u64(m.get("count"), "count", &ctx)?;
                check_u64(m.get("sum"), "sum", &ctx)?;
                let bucket_total = arr
                    .iter()
                    .try_fold(0u64, |acc, b| match b {
                        Json::U64(n) => acc.checked_add(*n),
                        _ => Some(acc),
                    })
                    .ok_or_else(|| format!("{ctx}: bucket counts overflow u64"))?;
                if let Some(Json::U64(count)) = m.get("count") {
                    if bucket_total != *count {
                        return Err(format!(
                            "{ctx}: bucket counts sum to {bucket_total} but `count` is {count}"
                        ));
                    }
                }
            }
            Some(other) => return Err(format!("{ctx}: unknown metric type `{other}`")),
            None => return Err(format!("{ctx}: missing or non-string `type`")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter_add("io_calls", &[("kernel", "trans"), ("version", "col")], 4224);
        r.gauge_set("seconds", &[], 12.5);
        r.observe("run_len", &[], 2);
        Snapshot::capture("table2", &r)
    }

    #[test]
    fn json_round_trip() {
        let snap = sample_snapshot();
        let text = snap.to_json().pretty();
        let back = Snapshot::parse(&text).expect("round trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn get_finds_series() {
        let snap = sample_snapshot();
        assert_eq!(
            snap.get("io_calls", &[("version", "col"), ("kernel", "trans")]),
            Some(&Value::Counter(4224))
        );
        assert_eq!(snap.get("io_calls", &[]), None);
    }

    #[test]
    fn validator_accepts_emitted_and_rejects_mutations() {
        let snap = sample_snapshot();
        let good = snap.to_json().pretty();
        assert!(validate_snapshot_json(&Json::parse(&good).expect("parses")).is_ok());

        for (bad, why) in [
            (good.replace(SNAPSHOT_SCHEMA, "other/v9"), "wrong schema"),
            (good.replace("\"counter\"", "\"wat\""), "unknown type"),
            (good.replace("\"producer\": \"table2\",", ""), "no producer"),
            (good.replace("4224", "-1"), "negative counter"),
        ] {
            let v = Json::parse(&bad).expect("still parses");
            assert!(validate_snapshot_json(&v).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn histogram_buckets_trimmed_and_padded() {
        let r = Registry::new();
        r.observe("h", &[], 9); // bucket 3
        let snap = Snapshot::capture("t", &r);
        let text = snap.to_json().pretty();
        assert!(text.contains("\"buckets\""));
        // Only 4 buckets written (trailing zeros trimmed).
        let parsed = Snapshot::parse(&text).expect("parses");
        match parsed.get("h", &[]) {
            Some(Value::Histogram(h)) => {
                assert_eq!(h.buckets[3], 1);
                assert_eq!(h.count, 1);
                assert_eq!(h.sum, 9);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn bucket_count_mismatch_rejected() {
        let text = r#"{
  "schema": "ooc-metrics-snapshot/v1",
  "producer": "t",
  "metrics": [
    {"name": "h", "labels": {}, "type": "histogram",
     "buckets": [1, 1], "count": 3, "sum": 4}
  ]
}"#;
        let v = Json::parse(text).expect("parses");
        let err = validate_snapshot_json(&v).expect_err("must reject");
        assert!(err.contains("sum to 2"), "{err}");
    }
}
