//! The call-sequence contract of `ChecksummedStore`: which
//! `(op, offset, len)` calls it issues to its data store and to its
//! sidecar, in which order, on clean requests and when a call fails.
//!
//! `FaultStore` sits *under* this layer and numbers the calls it sees,
//! so the crash labels of `BENCH_recovery_seed.json` and the
//! `crash_at(n)` tests are indices into exactly these sequences: a
//! change that reorders, merges or drops one call renumbers every
//! crash point. `tests/checksum_calls.txt` was generated on the commit
//! that made a request two calls below the layer (one data read over
//! the covered chunks and one sidecar read; a write, its edge-chunk
//! read-backs and one sidecar write) and is compared unchanged; a
//! change that means to move the sequence replaces the file with
//! `render()`'s output and moves the recovery baselines with it.

use ooc_opt::runtime::{is_corrupt, ChecksummedStore, MemStore, Store};
use std::fmt::Write as _;
use std::io;
use std::sync::{Arc, Mutex};

const GOLDEN: &str = include_str!("checksum_calls.txt");

/// The calls both recorders of one scenario saw, in issue order.
#[derive(Clone, Default)]
struct Log(Arc<Mutex<Vec<String>>>);

impl Log {
    fn push(&self, entry: String) {
        self.0.lock().expect("log lock").push(entry);
    }

    fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.0.lock().expect("log lock"))
    }
}

/// Calls a [`Recorder`] still serves before the one it fails; `None`
/// fails nothing.
type Fuse = Arc<Mutex<Option<u64>>>;

/// A `MemStore` that logs every call as `<name>.<op>(offset,len)` and
/// fails the call its fuse runs out on, after logging it.
struct Recorder {
    name: &'static str,
    inner: MemStore,
    log: Log,
    fuse: Fuse,
}

impl Recorder {
    fn new(name: &'static str, len: u64, log: &Log) -> Self {
        Recorder {
            name,
            inner: MemStore::new(len),
            log: log.clone(),
            fuse: Fuse::default(),
        }
    }

    fn record(&self, op: char, offset: u64, len: usize) -> io::Result<()> {
        self.log.push(format!("{}.{op}({offset},{len})", self.name));
        let mut fuse = self.fuse.lock().expect("fuse lock");
        match *fuse {
            Some(0) => {
                *fuse = None;
                Err(io::Error::other("injected"))
            }
            Some(left) => {
                *fuse = Some(left - 1);
                Ok(())
            }
            None => Ok(()),
        }
    }
}

impl Store for Recorder {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        self.record('r', offset, buf.len())?;
        self.inner.read_run(offset, buf)
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        self.record('w', offset, buf.len())?;
        self.inner.write_run(offset, buf)
    }
}

#[derive(Clone, Copy)]
enum Op {
    Read,
    Write,
}

/// Which recorder fails, and at which of its calls.
#[derive(Clone, Copy)]
enum Fail {
    None,
    Data(u64),
    Sidecar(u64),
}

fn value(i: u64) -> f64 {
    1.0 + i as f64 * 0.5
}

/// One request against a fresh, rebuilt `len`-element store: a line
/// with the outcome, the counters and the calls issued.
fn scenario(out: &mut String, len: u64, chunk: u64, op: Op, offset: u64, n: usize, fail: Fail) {
    let log = Log::default();
    let data = Recorder::new("data", len, &log);
    let sidecar = Recorder::new("sidecar", len.div_ceil(chunk).max(1), &log);
    let (data_fuse, sidecar_fuse) = (Arc::clone(&data.fuse), Arc::clone(&sidecar.fuse));
    let mut cs = ChecksummedStore::attach(data, sidecar, chunk).expect("attach");
    let seeded: Vec<f64> = (0..len).map(value).collect();
    cs.write_run(0, &seeded).expect("seed");
    cs.reset_metrics();
    log.take();
    match fail {
        Fail::None => {}
        Fail::Data(k) => *data_fuse.lock().expect("fuse lock") = Some(k),
        Fail::Sidecar(k) => *sidecar_fuse.lock().expect("fuse lock") = Some(k),
    }

    let (label, result) = match op {
        Op::Read => {
            let mut buf = vec![f64::NAN; n];
            let r = cs.read_run(offset, &mut buf);
            if r.is_ok() {
                let lo = usize::try_from(offset).expect("small offset");
                assert!(
                    buf.iter()
                        .zip(&seeded[lo..])
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "read({offset},{n}) of len {len} chunk {chunk} returned other data"
                );
            }
            ("read", r)
        }
        Op::Write => {
            let buf: Vec<f64> = (0..n as u64).map(|i| -value(offset + i)).collect();
            ("write", cs.write_run(offset, &buf))
        }
    };
    let outcome = match &result {
        Ok(()) => "ok".to_string(),
        Err(e) if is_corrupt(e) => "corrupt".to_string(),
        Err(e) => format!("err:{:?}", e.kind()),
    };
    let fail = match fail {
        Fail::None => String::new(),
        Fail::Data(k) => format!(" fail=data#{k}"),
        Fail::Sidecar(k) => format!(" fail=sidecar#{k}"),
    };
    let h = cs.handle();
    let _ = writeln!(
        out,
        "len={len} chunk={chunk} {label}({offset},{n}){fail} -> {outcome} verified={} corrupt={} updates={} sidecar_io={:?}: {}",
        h.verified_chunks(),
        h.corrupt_reads(),
        h.chunk_updates(),
        h.sidecar_io(),
        log.take().join(" ")
    );
}

/// A read over a chunk whose data changed behind the layer's back.
fn corrupt_scenario(out: &mut String, offset: u64, n: usize, poke: u64) {
    let (len, chunk) = (11, 4);
    let log = Log::default();
    let data = Recorder::new("data", len, &log);
    let sidecar = Recorder::new("sidecar", 3, &log);
    let mut cs = ChecksummedStore::attach(data, sidecar, chunk).expect("attach");
    cs.rebuild().expect("rebuild");
    let (mut data, sidecar) = cs.into_inner();
    data.write_run(poke, &[999.0]).expect("poke");
    let cs = ChecksummedStore::attach(data, sidecar, chunk).expect("re-attach");
    log.take();
    let mut buf = vec![0.0; n];
    let err = cs.read_run(offset, &mut buf).expect_err("poked chunk");
    assert!(is_corrupt(&err), "{err}");
    let h = cs.handle();
    let _ = writeln!(
        out,
        "len={len} chunk={chunk} poke={poke} read({offset},{n}) -> corrupt verified={} corrupt={} updates={} sidecar_io={:?}: {}",
        h.verified_chunks(),
        h.corrupt_reads(),
        h.chunk_updates(),
        h.sidecar_io(),
        log.take().join(" ")
    );
}

/// `rebuild` then `verify` over a whole store.
fn whole_store_scenario(out: &mut String, len: u64, chunk: u64) {
    let log = Log::default();
    let data = Recorder::new("data", len, &log);
    let sidecar = Recorder::new("sidecar", len.div_ceil(chunk).max(1), &log);
    let mut cs = ChecksummedStore::attach(data, sidecar, chunk).expect("attach");
    cs.rebuild().expect("rebuild");
    let _ = writeln!(
        out,
        "len={len} chunk={chunk} rebuild: {}",
        log.take().join(" ")
    );
    let checked = cs.verify().expect("verify");
    let _ = writeln!(
        out,
        "len={len} chunk={chunk} verify -> {checked} verified={}: {}",
        cs.handle().verified_chunks(),
        log.take().join(" ")
    );
}

fn render() -> String {
    let mut out = String::new();
    // (len, chunk): a short last chunk, an exact multiple, and a chunk
    // longer than the store.
    for (len, chunk) in [(11, 4), (8, 4), (3, 8)] {
        // Every in-range request: aligned, straddling, sub-chunk and
        // last-short-chunk ones are all among them.
        for offset in 0..len {
            for n in 1..=usize::try_from(len - offset).expect("small") {
                for op in [Op::Read, Op::Write] {
                    scenario(&mut out, len, chunk, op, offset, n, Fail::None);
                }
            }
        }
        // Degenerate and out-of-range requests go to the data store.
        for (offset, n) in [(3, 0), (len, 1), (len - 1, 2), (u64::MAX, 1)] {
            for op in [Op::Read, Op::Write] {
                scenario(&mut out, len, chunk, op, offset, n, Fail::None);
            }
        }
        whole_store_scenario(&mut out, len, chunk);
    }
    // A failing call ends the request: nothing is issued after it and
    // only the chunks before it count. (1,9) covers chunks 0..=2 of
    // the 11/4 store with both edges partial; (0,8) and (4,7) are the
    // aligned forms.
    for (offset, n) in [(1, 9), (0, 8), (4, 7)] {
        for k in 0..3 {
            scenario(&mut out, 11, 4, Op::Read, offset, n, Fail::Data(k));
            scenario(&mut out, 11, 4, Op::Read, offset, n, Fail::Sidecar(k));
        }
        for k in 0..4 {
            scenario(&mut out, 11, 4, Op::Write, offset, n, Fail::Data(k));
        }
        scenario(&mut out, 11, 4, Op::Write, offset, n, Fail::Sidecar(0));
    }
    for (offset, n, poke) in [(0, 11, 5), (1, 9, 2), (4, 4, 7), (3, 6, 9), (9, 2, 8)] {
        corrupt_scenario(&mut out, offset, n, poke);
    }
    out
}

#[test]
fn call_sequences_match_the_recorded_contract() {
    let actual = render();
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "call sequence moved at line {}:\n  now:      {}\n  recorded: {}",
            first + 1,
            actual.lines().nth(first).unwrap_or("<end>"),
            GOLDEN.lines().nth(first).unwrap_or("<end>"),
        );
    }
}

/// The contract in words, checked directly so it does not rest on
/// the recorded file alone.
#[test]
fn a_request_verifies_its_chunks_with_one_data_call_and_one_sidecar_call() {
    let expect = |out: &str, tail: &str| assert!(out.ends_with(tail), "{out}");
    // A read straddling all three chunks of the 11/4 store reads their
    // span once and their checksums once.
    let mut out = String::new();
    scenario(&mut out, 11, 4, Op::Read, 3, 6, Fail::None);
    expect(&out, "sidecar_io=(1, 3): data.r(0,11) sidecar.r(0,3)\n");
    // A chunk-aligned read asks for exactly the request.
    let mut out = String::new();
    scenario(&mut out, 11, 4, Op::Read, 4, 7, Fail::None);
    expect(&out, ": data.r(4,7) sidecar.r(1,2)\n");
    // A write reads back only its partial edge chunks ...
    let mut out = String::new();
    scenario(&mut out, 11, 4, Op::Write, 3, 6, Fail::None);
    expect(
        &out,
        "sidecar_io=(1, 3): data.w(3,6) data.r(0,4) data.r(8,3) sidecar.w(0,3)\n",
    );
    // ... and an aligned one none.
    let mut out = String::new();
    scenario(&mut out, 11, 4, Op::Write, 0, 8, Fail::None);
    expect(&out, ": data.w(0,8) sidecar.w(0,2)\n");
    // Chunks verify in ascending order: a corrupt chunk 1 leaves chunk
    // 0 verified and chunk 2 unchecked.
    let mut out = String::new();
    corrupt_scenario(&mut out, 0, 11, 5);
    assert!(out.contains("verified=1 corrupt=1 updates=0"), "{out}");
}
