//! Chrome-trace-event export and structural validation.
//!
//! [`chrome_trace_json`] serializes a recorded event stream into the
//! JSON object format understood by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): `{"traceEvents": [...]}` with
//! `B`/`E` duration events, `i` instants, and `C` counters, all on
//! `pid` 0 with the session's per-thread ids. [`validate_chrome_trace`]
//! re-parses an exported document and checks it structurally — every
//! event carries the required fields and the `B`/`E` events are
//! balanced in stack order per thread — so tests and CI can assert a
//! trace file is openable before anyone loads it into a viewer.

use crate::json::Json;
use crate::{ArgValue, Event, EventKind};

fn arg_json(v: &ArgValue) -> Json {
    match v {
        ArgValue::Str(s) => Json::Str(s.clone()),
        ArgValue::U64(n) => Json::U64(*n),
        ArgValue::I64(n) => Json::I64(*n),
        ArgValue::F64(x) => Json::F64(*x),
    }
}

fn event_json(e: &Event) -> Json {
    let ph = match e.kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
        EventKind::Counter(_) => "C",
        EventKind::FlowStart(_) => "s",
        EventKind::FlowFinish(_) => "f",
    };
    let mut fields: Vec<(String, Json)> = vec![
        ("name".into(), Json::Str(e.name.clone())),
        ("cat".into(), Json::Str(e.cat.to_string())),
        ("ph".into(), Json::Str(ph.into())),
        ("ts".into(), Json::U64(e.ts_us)),
        ("pid".into(), Json::U64(0)),
        ("tid".into(), Json::U64(e.tid)),
    ];
    if matches!(e.kind, EventKind::Instant) {
        // Thread-scoped instant marker.
        fields.push(("s".into(), Json::Str("t".into())));
    }
    match &e.kind {
        EventKind::FlowStart(id) | EventKind::FlowFinish(id) => {
            fields.push(("id".into(), Json::U64(*id)));
            if matches!(e.kind, EventKind::FlowFinish(_)) {
                // Bind to the enclosing slice like Chrome expects.
                fields.push(("bp".into(), Json::Str("e".into())));
            }
        }
        _ => {}
    }
    let mut args: Vec<(String, Json)> = Vec::new();
    if let Some(lane) = e.lane {
        args.push(("lane".into(), Json::Str(lane.to_string())));
    }
    match &e.kind {
        EventKind::Counter(v) => {
            args.push(("value".into(), Json::F64(*v)));
        }
        _ => {
            args.extend(e.args.iter().map(|(k, v)| ((*k).to_string(), arg_json(v))));
        }
    }
    if !args.is_empty() {
        fields.push(("args".into(), Json::Obj(args)));
    }
    Json::Obj(fields)
}

/// Serializes events as a Chrome trace document (compact JSON).
#[must_use]
pub fn chrome_trace_json(events: &[Event]) -> String {
    Json::obj([
        (
            "traceEvents",
            Json::Arr(events.iter().map(event_json).collect()),
        ),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
    .compact()
}

/// Summary statistics of a validated trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total events.
    pub events: usize,
    /// Completed spans (matched `B`/`E` pairs).
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
    /// Flow events (`s`/`f` causal links).
    pub flows: usize,
}

/// Parses and structurally validates an exported trace document.
///
/// Checks: the document is valid JSON of the `{"traceEvents": [...]}`
/// shape; every event is an object with a string `name`, a known
/// `ph`, and numeric non-negative `ts`, `pid`, `tid`; per `tid`,
/// timestamps are non-decreasing and `B`/`E` events balance in stack
/// order with matching names.
///
/// # Errors
/// Returns a description of the first structural problem found.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeSummary, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut summary = ChromeSummary {
        events: events.len(),
        spans: 0,
        instants: 0,
        counters: 0,
        flows: 0,
    };
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string `name`"))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric `ts`"))?;
        for field in ["pid", "tid"] {
            let v = e
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric `{field}`"))?;
            if v < 0.0 {
                return Err(format!("event {i}: negative `{field}`"));
            }
        }
        if ts < 0.0 {
            return Err(format!("event {i}: negative `ts`"));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let tid = e.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let prev = last_ts.entry(tid).or_insert(0.0);
        if ts < *prev {
            return Err(format!(
                "event {i} (`{name}`): ts {ts} goes backwards on tid {tid} (prev {prev})"
            ));
        }
        *prev = ts;
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let top = stacks.entry(tid).or_default().pop().ok_or_else(|| {
                    format!("event {i}: `E` for `{name}` with no open span on tid {tid}")
                })?;
                if top != name {
                    return Err(format!(
                        "event {i}: `E` for `{name}` but innermost open span on tid {tid} is `{top}`"
                    ));
                }
                summary.spans += 1;
            }
            "i" | "I" => summary.instants += 1,
            "C" => {
                e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: counter without numeric args.value"))?;
                summary.counters += 1;
            }
            "s" | "f" => {
                e.get("id")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: flow event without numeric `id`"))?;
                summary.flows += 1;
            }
            "X" | "M" => {}
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed span `{open}` on tid {tid}"));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    #[test]
    fn export_validates_and_counts() {
        let session = Session::start();
        {
            let _a = crate::span("compiler", "outer");
            let _b = crate::span_with("compiler", "inner \"quoted\"", vec![("k", "v".into())]);
            crate::instant("compiler", "note", vec![("n", crate::ArgValue::U64(1))]);
            crate::counter("io-calls", 3.0);
        }
        let data = session.finish();
        let text = chrome_trace_json(&data.events);
        let summary = validate_chrome_trace(&text).expect("valid");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.events, data.events.len());
    }

    #[test]
    fn validator_rejects_unbalanced_and_misnested() {
        let bad = r#"{"traceEvents":[{"name":"a","cat":"c","ph":"B","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad)
            .expect_err("unclosed")
            .contains("unclosed"));
        let crossed = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"B","ts":1,"pid":0,"tid":0},
            {"name":"b","cat":"c","ph":"B","ts":2,"pid":0,"tid":0},
            {"name":"a","cat":"c","ph":"E","ts":3,"pid":0,"tid":0},
            {"name":"b","cat":"c","ph":"E","ts":4,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(crossed)
            .expect_err("misnested")
            .contains("innermost"));
        let backwards = r#"{"traceEvents":[
            {"name":"i","cat":"c","ph":"i","ts":5,"pid":0,"tid":0},
            {"name":"i","cat":"c","ph":"i","ts":4,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(backwards)
            .expect_err("time travel")
            .contains("backwards"));
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }

    #[test]
    fn flow_and_lane_round_trip() {
        let session = Session::start();
        {
            let _lane = crate::lane_scope(crate::Lane::shard(1));
            let _s = crate::span("pipeline", "step");
            crate::flow_start("pipeline", "delivery", 7);
            crate::flow_finish("pipeline", "delivery", 7);
        }
        let data = session.finish();
        let text = chrome_trace_json(&data.events);
        let summary = validate_chrome_trace(&text).expect("valid");
        assert_eq!(summary.flows, 2);
        assert_eq!(summary.spans, 1);
        let doc = Json::parse(&text).expect("parses");
        let first = &doc.get("traceEvents").and_then(Json::as_arr).expect("arr")[0];
        assert_eq!(
            first
                .get("args")
                .and_then(|a| a.get("lane"))
                .and_then(Json::as_str),
            Some("shard:1")
        );
    }

    #[test]
    fn names_with_specials_survive_round_trip() {
        let session = Session::start();
        {
            let _s = crate::span("compiler", "weird \\ \"name\"\nwith\tspecials \u{1}");
        }
        let data = session.finish();
        let text = chrome_trace_json(&data.events);
        validate_chrome_trace(&text).expect("escaped correctly");
        let doc = Json::parse(&text).expect("parses");
        let name = doc.get("traceEvents").and_then(Json::as_arr).expect("arr")[0]
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string();
        assert_eq!(name, "weird \\ \"name\"\nwith\tspecials \u{1}");
    }
}
