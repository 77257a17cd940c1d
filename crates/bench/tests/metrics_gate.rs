//! The perf-regression gate, tested against the committed baseline.
//!
//! `BENCH_seed.json` at the repo root is what `table2 32 4 --metrics`
//! wrote at the baseline commit. These tests re-run the same
//! experiment in-process through the same registration helper and
//! assert the diff gate's contract both ways: a faithful re-run is
//! clean, and a deliberately perturbed deterministic counter hard-
//! fails.

use ooc_bench::{recovery_register, run_recovery_demo, run_table2, table2_register};
use ooc_metrics::{diff_snapshots, validate_snapshot_json, DiffPolicy, Registry, Snapshot, Value};

fn committed_baseline() -> Snapshot {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_seed.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_seed.json");
    Snapshot::parse(&text).expect("baseline parses against the schema")
}

fn committed_recovery_baseline() -> Snapshot {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_recovery_seed.json"
    );
    let text = std::fs::read_to_string(path).expect("committed BENCH_recovery_seed.json");
    Snapshot::parse(&text).expect("recovery baseline parses against the schema")
}

fn fresh_recovery_snapshot() -> Snapshot {
    let registry = Registry::new();
    recovery_register(&registry, &run_recovery_demo("mxm", 3));
    Snapshot::capture("figure5", &registry)
}

fn fresh_table2_snapshot() -> Snapshot {
    let registry = Registry::new();
    table2_register(&registry, &run_table2(4, 32));
    Snapshot::capture("table2", &registry)
}

#[test]
fn committed_baseline_is_schema_valid() {
    let snap = committed_baseline();
    validate_snapshot_json(&snap.to_json()).expect("schema-valid");
    assert_eq!(snap.producer, "table2");
    assert!(
        snap.samples.len() > 100,
        "10 kernels x 6 versions x 3 series expected, got {}",
        snap.samples.len()
    );
}

#[test]
fn fresh_run_matches_committed_baseline() {
    // The actual regression gate, in-process: a fresh run of the same
    // experiment must produce exactly the committed deterministic
    // counters. If this fails, either a real regression slipped in or
    // an improvement landed without refreshing BENCH_seed.json — both
    // are states the gate exists to block.
    let report = diff_snapshots(
        &committed_baseline(),
        &fresh_table2_snapshot(),
        &DiffPolicy::default(),
    );
    assert!(
        report.is_clean(),
        "fresh table2 run diverges from BENCH_seed.json \
         (regenerate with `table2 32 4 --metrics BENCH_seed.json` if intended):\n{report}"
    );
}

#[test]
fn self_diff_is_fully_unchanged() {
    let snap = fresh_table2_snapshot();
    let report = diff_snapshots(&snap, &snap.clone(), &DiffPolicy::default());
    assert!(report.is_clean());
    assert_eq!(report.warnings(), 0);
    assert_eq!(report.improvements(), 0);
}

#[test]
fn perturbed_counter_hard_fails_the_gate() {
    // Deliberately bump one analytic I/O-call counter: the gate must
    // report a hard failure (this is what drives bench-compare's
    // nonzero exit).
    let baseline = committed_baseline();
    let mut perturbed = baseline.clone();
    let tampered = perturbed
        .samples
        .iter_mut()
        .find(|(k, v)| k.name == "io_calls" && matches!(v, Value::Counter(_)))
        .expect("baseline has io_calls counters");
    match &mut tampered.1 {
        Value::Counter(n) => *n += 1,
        other => panic!("expected counter, got {other:?}"),
    }
    let report = diff_snapshots(&baseline, &perturbed, &DiffPolicy::default());
    assert!(!report.is_clean(), "perturbation must hard-fail");
    assert_eq!(report.hard_fails(), 1);
    assert!(report.to_string().contains("counter regressed"));
}

#[test]
fn committed_recovery_baseline_is_schema_valid() {
    let snap = committed_recovery_baseline();
    validate_snapshot_json(&snap.to_json()).expect("schema-valid");
    assert_eq!(snap.producer, "figure5");
    assert!(
        snap.samples.len() >= 90,
        "3 intervals x 3 crash points x 10 series expected, got {}",
        snap.samples.len()
    );
}

#[test]
fn fresh_recovery_run_matches_committed_baseline() {
    // The crash-recovery gate: the figure5 sweep (crash, torn write,
    // checksum scan, rollback, resume) must replay byte-identically —
    // journal intents, checkpoints, rolled-back tiles and all. A drift
    // here means recovery behavior changed without refreshing
    // BENCH_recovery_seed.json.
    let report = diff_snapshots(
        &committed_recovery_baseline(),
        &fresh_recovery_snapshot(),
        &DiffPolicy::default(),
    );
    assert!(
        report.is_clean(),
        "fresh recovery sweep diverges from BENCH_recovery_seed.json \
         (regenerate with `figure5 mxm 3 --metrics BENCH_recovery_seed.json` if intended):\n{report}"
    );
}

#[test]
fn perturbed_recovery_counter_hard_fails_the_gate() {
    let baseline = committed_recovery_baseline();
    let mut perturbed = baseline.clone();
    let tampered = perturbed
        .samples
        .iter_mut()
        .find(|(k, v)| k.name == "journal_intents_total" && matches!(v, Value::Counter(_)))
        .expect("recovery baseline has journal_intents_total counters");
    match &mut tampered.1 {
        Value::Counter(n) => *n += 1,
        other => panic!("expected counter, got {other:?}"),
    }
    let report = diff_snapshots(&baseline, &perturbed, &DiffPolicy::default());
    assert!(!report.is_clean(), "perturbation must hard-fail");
    assert_eq!(report.hard_fails(), 1);
}

#[test]
fn baseline_roundtrips_through_json() {
    let snap = committed_baseline();
    let reparsed = Snapshot::parse(&snap.to_json().pretty()).expect("roundtrip");
    assert_eq!(snap.samples, reparsed.samples);
}
