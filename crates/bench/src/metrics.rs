//! `--metrics out.json` support for the experiment binaries.
//!
//! [`MetricsScope::from_args`] pulls `--metrics PATH` (or
//! `--metrics=PATH`) out of an argument list and hands the binary an
//! `ooc_metrics` [`Registry`] to fill. [`MetricsScope::finish`]
//! captures a [`Snapshot`], appends a `wall_ms` gauge (host wall-clock
//! — drift-tolerant by design, counters stay deterministic), validates
//! the JSON against the snapshot schema, and writes it to the
//! requested path. `bench-compare` then diffs two such files.
//!
//! The `*_register` helpers translate experiment results into registry
//! series; the perf-regression gate test reuses them so a fresh
//! in-process run registers byte-identically to what the binary wrote
//! into the committed baseline.

use crate::experiments::{Table2Row, Table3Entry};
use ooc_metrics::{validate_snapshot_json, Registry, Snapshot};
use std::time::Instant;

/// A started (or inert) metrics scope for one binary invocation.
pub struct MetricsScope {
    registry: Registry,
    path: Option<String>,
    producer: &'static str,
    started: Instant,
}

impl MetricsScope {
    /// Parses and removes `--metrics PATH` from `args` (positional
    /// argument handling stays untouched). The registry is live either
    /// way; without a path, [`finish`](Self::finish) writes nothing.
    #[must_use]
    pub fn from_args(args: &mut Vec<String>, producer: &'static str) -> MetricsScope {
        let path = crate::trace::take_value_flag(args, "--metrics");
        MetricsScope {
            registry: Registry::new(),
            path,
            producer,
            started: Instant::now(),
        }
    }

    /// `true` when a snapshot will be written.
    #[must_use]
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// The registry the binary fills.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Captures the snapshot, validates it, and writes it when a path
    /// was given. Returns the snapshot (written or not).
    ///
    /// # Panics
    /// Panics if the emitted JSON fails schema validation (a bug in
    /// the exposition code — CI runs this path on purpose) or the
    /// output file cannot be written.
    pub fn finish(self) -> Snapshot {
        self.registry
            .gauge_set("wall_ms", &[], self.started.elapsed().as_secs_f64() * 1e3);
        let snapshot = Snapshot::capture(self.producer, &self.registry);
        if let Some(path) = &self.path {
            let json = snapshot.to_json();
            validate_snapshot_json(&json)
                .unwrap_or_else(|e| panic!("emitted snapshot is schema-invalid: {e}"));
            std::fs::write(path, format!("{}\n", json.pretty()))
                .unwrap_or_else(|e| panic!("cannot write metrics to {path}: {e}"));
            eprintln!(
                "metrics: wrote {path} ({} series) — diff with bench-compare",
                snapshot.samples.len()
            );
        }
        snapshot
    }
}

/// Registers Table 2 results: per `{kernel, version}` the analytic
/// `io_calls`/`io_bytes` counters (deterministic — exact-match in
/// diffs) and the simulated `sim_seconds` gauge.
pub fn table2_register(registry: &Registry, rows: &[Table2Row]) {
    for row in rows {
        for cell in &row.cells {
            let labels = [
                ("kernel", row.kernel.as_str()),
                ("version", cell.version.as_str()),
            ];
            registry.counter_add("io_calls", &labels, cell.io_calls);
            registry.counter_add("io_bytes", &labels, cell.io_bytes);
            registry.gauge_set("sim_seconds", &labels, cell.seconds);
        }
    }
}

/// Registers Table 3 results: per `{kernel, version, procs}` the
/// simulated time and speedup gauges.
pub fn table3_register(registry: &Registry, entries: &[Table3Entry]) {
    for e in entries {
        let procs = e.procs.to_string();
        let labels = [
            ("kernel", e.kernel.as_str()),
            ("version", e.version.as_str()),
            ("procs", procs.as_str()),
        ];
        registry.gauge_set("sim_seconds", &labels, e.seconds);
        registry.gauge_set("speedup", &labels, e.speedup);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table2_row;
    use ooc_kernels::kernel_by_name;
    use ooc_metrics::Value;

    #[test]
    fn metrics_flag_extracted_and_inert_without_path() {
        let mut args = vec![
            "trans".to_string(),
            "--metrics".to_string(),
            "/tmp/m.json".to_string(),
            "16".to_string(),
        ];
        let scope = MetricsScope::from_args(&mut args, "test");
        assert!(scope.active());
        assert_eq!(args, vec!["trans".to_string(), "16".to_string()]);

        let mut args = vec!["trans".to_string()];
        let scope = MetricsScope::from_args(&mut args, "test");
        assert!(!scope.active());
        // finish() still yields a valid snapshot with the wall gauge.
        let snap = scope.finish();
        assert_eq!(snap.producer, "test");
        assert!(snap.get("wall_ms", &[]).is_some());
        validate_snapshot_json(&snap.to_json()).expect("schema-valid");
    }

    #[test]
    fn table2_registration_is_deterministic() {
        let _no_sessions = ooc_trace::exclude_sessions();
        let k = kernel_by_name("trans").expect("kernel");
        let row = table2_row(&k, 4, 32);
        let (a, b) = (Registry::new(), Registry::new());
        table2_register(&a, std::slice::from_ref(&row));
        table2_register(&b, std::slice::from_ref(&row));
        assert_eq!(
            Snapshot::capture("x", &a).samples,
            Snapshot::capture("x", &b).samples
        );
        let labels = [("kernel", "trans"), ("version", "col")];
        match a.get("io_calls", &labels) {
            Some(Value::Counter(n)) => assert_eq!(n, row.cells[0].io_calls),
            other => panic!("expected counter, got {other:?}"),
        }
    }
}
