//! Byte-mutation fuzz of the two parsers of on-disk JSON: the metrics
//! snapshot reader (`Snapshot::parse`, which validates through
//! `validate_snapshot_json`) and the JSON reader under it
//! (`Json::parse`). `bench-compare` and the Chrome-trace validator feed
//! them files named on the command line, so hostile input must come
//! back as `Err`, never as a panic or an abort. The inputs:
//!
//! * a real snapshot (counters, gauges, histograms) cut at every byte —
//!   no proper prefix of it is a document — and 2000 seeded single-byte
//!   mutations (a JSON delimiter, a digit, a letter, a dropped or a
//!   doubled byte); a mutant that still parses re-serializes to itself;
//! * 200 000 nested `[` and `{"a":` — the reader recursed once per
//!   level and overflowed the stack;
//! * histogram buckets whose sum overflows `u64` — validation panicked
//!   in a debug build and wrapped to a passing count in a release one.

use ooc_opt::metrics::{Registry, Snapshot};
use ooc_opt::trace::json::Json;
use std::panic::catch_unwind;

/// splitmix64: the mutation stream, reproducible from its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A snapshot with every metric type, labelled and not.
fn real_snapshot() -> String {
    let r = Registry::new();
    r.counter_add("io_calls", &[("kernel", "trans"), ("version", "col")], 4224);
    r.counter_add("io_calls", &[("kernel", "mxm"), ("version", "c-opt")], 96);
    r.gauge_set("seconds", &[], 12.5);
    r.gauge_set("replay_ratio", &[("interval", "2")], -0.375);
    for v in [1, 2, 3, 900, 1 << 20] {
        r.observe("run_len", &[("array", "A")], v);
    }
    Snapshot::capture("table2", &r).to_json().pretty()
}

/// Parses `text` as a snapshot; a panic fails the test.
fn parse(text: &str, what: &str) -> Result<Snapshot, String> {
    catch_unwind(|| Snapshot::parse(text)).unwrap_or_else(|_| panic!("{what}: parse panicked"))
}

#[test]
fn truncated_and_mutated_snapshots_are_errors_not_panics() {
    let text = real_snapshot();
    let snap = parse(&text, "the snapshot").expect("the snapshot parses");
    for cut in 0..text.len() {
        let what = format!("cut at {cut}");
        assert!(parse(&text[..cut], &what).is_err(), "{what} parsed");
    }

    let mut rng = Rng(0x5eed);
    let alphabet = b"{}[]\",:-.0123456789eE+ tfnul\\x";
    let mut rejected = 0;
    for i in 0..2000 {
        let mut bytes = text.clone().into_bytes();
        let pos = rng.below(bytes.len());
        let kind = rng.below(3);
        match kind {
            0 => bytes[pos] = alphabet[rng.below(alphabet.len())],
            1 => {
                bytes.remove(pos);
            }
            _ => bytes.insert(pos, bytes[pos]),
        }
        let what = format!("mutation {i} (byte {pos}, kind {kind})");
        let mutant = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        match parse(&mutant, &what) {
            Ok(m) => {
                let again = parse(&m.to_json().pretty(), &what).expect("re-serialized");
                assert_eq!(again, m, "{what}");
            }
            Err(_) => rejected += 1,
        }
    }
    // Most single-byte damage breaks the document; some (a digit for a
    // digit) yields another valid snapshot.
    assert!(rejected > 1000, "{rejected} of 2000 mutations rejected");
    assert_eq!(snap, parse(&text, "again").expect("parses"));
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let depth = 200_000;
    for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
        let text = format!("{}1{}", open.repeat(depth), close.repeat(depth));
        assert!(Json::parse(&text).is_err(), "{open} x {depth}");
        assert!(Snapshot::parse(&text).is_err(), "{open} x {depth}");
    }
    // The limit: 128 levels parse, 129 do not.
    let nested = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
    assert!(Json::parse(&nested(128)).is_ok());
    assert!(Json::parse(&nested(129)).is_err());
}

#[test]
fn overflowing_histogram_buckets_are_an_error_not_a_panic() {
    let histogram = |buckets: &str, count: &str| {
        format!(
            "{{\"schema\": \"ooc-metrics-snapshot/v1\", \"producer\": \"x\", \"metrics\": [\
             {{\"name\": \"h\", \"labels\": {{}}, \"type\": \"histogram\", \
             \"buckets\": [{buckets}], \"count\": {count}, \"sum\": 0}}]}}"
        )
    };
    // Wrapping the sum gives 0 = `count`.
    let text = histogram("18446744073709551615, 1", "0");
    let err = parse(&text, "overflow").expect_err("the buckets sum past u64::MAX");
    assert!(err.contains("overflow"), "{err}");
    assert!(parse(
        &histogram("18446744073709551614, 1", "18446744073709551615"),
        "max"
    )
    .is_ok());
}
