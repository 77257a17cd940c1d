//! Byte-mutation fuzz of the one durable log. The logs of a completed
//! and of a crashed durable run of `trans` and `mxm` c-opt, each ending
//! in the partial record a crash mid-append leaves, are cut at every
//! byte and mutated one byte at a time (200 seeded mutations each: a
//! digit, a space, `;`, `,`, a newline, or a dropped byte). A third of
//! the mutations land anywhere, a third in the torn tail, and a third
//! in the fields of one intent with the log cut right after it, so the
//! resume rolls that intent back. For every variant:
//!
//! * `parse_journal` does not panic, and its `valid_len` is a line
//!   boundary no larger than the input;
//! * a `Start::Resume` of `run_durable` over the run's own stores does
//!   not panic: it returns the recovered run or a typed error;
//! * a mutation the parser drops with the torn tail (at or past the
//!   base log's `valid_len`) resumes bit-equal to `run_functional`.

use ooc_opt::core::{
    run_durable, run_functional, run_functional_durable, DurabilityConfig, DurableMedium,
    FunctionalConfig, Start,
};
use ooc_opt::ir::ArrayId;
use ooc_opt::kernels::{compile, kernel_by_name, Version};
use ooc_opt::runtime::{
    is_crashed, parse_journal, FaultConfig, JournalScan, LogStore, MemLog, MemStore, SharedStore,
    Store,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    idx.iter()
        .fold(a.0 as f64 + 1.0, |acc, &x| acc * 7.0 + x as f64)
}

type Stores = BTreeMap<usize, SharedStore<MemStore>>;

/// An in-memory durable medium a trial can copy, so every resume
/// starts from the same stores.
#[derive(Default)]
struct Medium {
    data: Stores,
    sidecars: Stores,
    log: MemLog,
}

impl Medium {
    /// A deep copy of the stores with `log` as the journal.
    fn fork(&self, log: &[u8]) -> Medium {
        let copy = |m: &Stores| {
            m.iter()
                .map(|(&a, s)| (a, SharedStore::new(s.with_inner(|s| s.clone()))))
                .collect()
        };
        let out = Medium {
            data: copy(&self.data),
            sidecars: copy(&self.sidecars),
            log: MemLog::new(),
        };
        out.log.replace(log.to_vec());
        out
    }
}

fn store(m: &mut Stores, a: usize, len: u64) -> io::Result<Box<dyn Store + Send>> {
    let s = m
        .entry(a)
        .or_insert_with(|| SharedStore::new(MemStore::new(len)));
    Ok(Box::new(s.clone()))
}

impl DurableMedium for Medium {
    fn data(&mut self, a: usize, _name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        store(&mut self.data, a, len)
    }

    fn sidecar(&mut self, a: usize, _name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        store(&mut self.sidecars, a, len)
    }

    fn journal(&mut self) -> io::Result<Box<dyn LogStore>> {
        Ok(Box::new(self.log.clone()))
    }
}

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

/// Parses `bytes`, asserting the scan's own invariants.
fn scan(bytes: &[u8], what: &str) -> JournalScan {
    let scan = catch_unwind(|| parse_journal(bytes))
        .unwrap_or_else(|_| panic!("{what}: parse_journal panicked"));
    let len = usize::try_from(scan.valid_len).expect("valid_len fits");
    assert!(
        len <= bytes.len(),
        "{what}: valid_len {len} > {}",
        bytes.len()
    );
    assert!(
        len == 0 || bytes[len - 1] == b'\n',
        "{what}: valid_len {len} mid-line"
    );
    assert_eq!(scan.torn_tail, len < bytes.len(), "{what}");
    scan
}

struct Case {
    tiled: ooc_opt::core::TiledProgram,
    params: Vec<i64>,
    cfg: FunctionalConfig,
    expected: Vec<Vec<f64>>,
}

impl Case {
    /// Resumes a copy of `stores` with `log`: `Ok` with the recovered
    /// contents, or the typed error; a panic fails the test.
    fn resume(&self, stores: &Medium, log: &[u8], what: &str) -> io::Result<Vec<Vec<f64>>> {
        let mut medium = stores.fork(log);
        let dur = DurabilityConfig::default();
        let run = AssertUnwindSafe(|| {
            let (tp, params) = (&self.tiled, &self.params);
            run_durable(
                tp,
                params,
                &seed,
                &self.cfg,
                &dur,
                &mut medium,
                &|_| None,
                Start::Resume,
            )
        });
        match catch_unwind(run) {
            Ok(out) => out.map(|o| o.run.data),
            Err(_) => panic!("{what}: the resume panicked"),
        }
    }
}

/// Every truncation point and 200 mutations of `log` (ending in a torn
/// tail that starts at `valid`), resumed over `stores`.
fn fuzz(case: &Case, stores: &Medium, log: &[u8], valid: usize, rng: &mut Rng, what: &str) {
    let base = scan(log, what);
    assert_eq!(base.valid_len, valid as u64, "{what}: the tail is torn");

    // A resume reads only the prefix's boundary and intents (commits
    // are not consulted), so one resume per distinct pair covers every
    // truncation point.
    let mut resumed = BTreeSet::new();
    for cut in 0..=log.len() {
        let what = format!("{what} cut at {cut}");
        let s = scan(&log[..cut], &what);
        let boundary = s.boundary().map(|b| (b.nest, b.step, b.watermark));
        if resumed.insert((boundary, s.intents().len())) {
            let out = case.resume(stores, &log[..cut], &what);
            if cut >= valid {
                assert_eq!(out.expect("resume"), case.expected, "{what}");
            }
        }
    }

    // Each intent line: where it starts, where its fields before the
    // pre-image end, and where the line ends.
    let mut intents: Vec<(usize, usize, usize)> = Vec::new();
    let mut start = 0;
    for line in log[..valid].split_inclusive(|&b| b == b'\n') {
        if line.starts_with(b"I ") {
            let fields = line.iter().rposition(|&b| b == b' ').unwrap_or(0);
            intents.push((start, start + fields, start + line.len()));
        }
        start += line.len();
    }
    for i in 0..200 {
        let mut bytes = log.to_vec();
        let pos = match i % 3 {
            0 => rng.below(log.len()),
            1 => valid + rng.below(log.len() - valid),
            _ => {
                let (lo, hi, end) = intents[rng.below(intents.len())];
                bytes.drain(end..valid);
                lo + rng.below(hi - lo)
            }
        };
        let kind = rng.below(6);
        match kind {
            0 => bytes[pos] = b'0' + rng.below(10) as u8,
            5 => {
                bytes.remove(pos);
            }
            _ => bytes[pos] = [b' ', b';', b',', b'\n'][kind - 1],
        }
        let what = format!("{what} mutation {i} (byte {pos}, kind {kind})");
        let s = scan(&bytes, &what);
        let out = case.resume(stores, &bytes, &what);
        if pos >= valid {
            assert_eq!(s.records, base.records, "{what}: the tail stays dropped");
            assert_eq!(out.expect("resume"), case.expected, "{what}");
        }
    }
}

#[test]
fn log_mutations_never_panic_and_a_dropped_tail_resumes_bit_equal() {
    let mut rng = Rng(0x5eed);
    // Small enough that every truncation point parses and resumes well
    // inside the tier-1 budget, large enough for several checkpoint
    // intervals per log.
    for (name, n) in [("trans", 8), ("mxm", 4)] {
        let k = kernel_by_name(name).expect("kernel");
        let cv = compile(&k, Version::COpt);
        let case = Case {
            expected: run_functional(&cv.tiled, &[n], &seed),
            tiled: cv.tiled,
            params: vec![n],
            cfg: FunctionalConfig::with_fraction(4),
        };
        let dur = DurabilityConfig::default();
        let (tp, params) = (&case.tiled, &case.params);

        let mut done = Medium::default();
        let out = run_functional_durable(tp, params, &seed, &case.cfg, &dur, &mut done, &|_| {
            Some(FaultConfig::transient(1, 0))
        })
        .expect("completed run");
        let calls = out.fault_handles[0].as_ref().expect("wrapped").calls();
        let mut crashed = Medium::default();
        let err = run_functional_durable(tp, params, &seed, &case.cfg, &dur, &mut crashed, &|a| {
            (a == 0).then(|| FaultConfig::crash_at(calls / 2))
        })
        .expect_err("crash injected");
        assert!(is_crashed(&err), "{name}: {err}");

        for (run, stores) in [("completed", &done), ("crashed", &crashed)] {
            // The partial record a crash mid-append leaves: the log's
            // first intent, cut inside its pre-image.
            let mut log = stores.log.snapshot();
            let intent = log
                .split(|&b| b == b'\n')
                .find(|l| l.starts_with(b"I "))
                .expect("an intent")
                .to_vec();
            let valid = log.len();
            log.extend_from_slice(&intent[..intent.len() * 2 / 3]);
            fuzz(
                &case,
                stores,
                &log,
                valid,
                &mut rng,
                &format!("{name} {run}"),
            );
        }
    }
}
