//! The closed-loop driver every workload runs under.
//!
//! One process runs one workload. The untraced run sets up a few
//! times (reporting the median as `setup_s`), then alternates the
//! headline and the baseline variant until `--seconds` have passed,
//! verifying every repetition. The traced run sets up once and hands
//! the rest of its time to the workload's layer-peeling pass.

use crate::config::Sizes;
use crate::inputs::Rng;
use crate::metrics::{self, Decl};
use crate::spans::Recorder;
use crate::stats::{median, summarize, Summary};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// What a workload needs from its process.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Workload sizes.
    pub sizes: &'a Sizes,
    /// `--seed`.
    pub seed: u64,
    /// Scratch directory of this process; the caller removes it.
    pub tmp: &'a Path,
    /// The span recorder.
    pub rec: &'a Recorder,
    /// Compute threads a workload may use: `min(2, nproc)`.
    pub threads: usize,
}

/// The two variants of a workload's kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper's combined optimization, `c-opt` (`run_s`).
    Headline,
    /// The unoptimized column-major baseline, `col` (`base_run_s`).
    Base,
}

/// One verified repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Seconds of the measured call(s) alone; verification excluded.
    pub seconds: f64,
    /// Whether the outputs were correct.
    pub ok: bool,
    /// Counts made by the program that must repeat exactly, by name.
    /// `io_calls` and `io_elems` feed the end-to-end metrics.
    pub counts: Vec<(&'static str, u64)>,
    /// Named parts of `seconds` (per-layer metrics of the traced run).
    pub parts: Vec<(String, f64)>,
}

impl Rep {
    fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Per-layer values a traced run collects, with its own operation
/// accounting. Every declared metric starts at 0: a workload that does
/// not run a layer reports 0 for it.
#[derive(Debug)]
pub struct Layers {
    values: Vec<(Decl, f64)>,
    /// Verified operations of the traced pass.
    pub attempted: u64,
    /// Those that failed verification or an exact-count check.
    pub failed: u64,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: metrics::per_layer().into_iter().map(|d| (d, 0.0)).collect(),
            attempted: 0,
            failed: 0,
        }
    }
}

impl Layers {
    /// Records a per-layer metric.
    ///
    /// # Panics
    /// Panics on a name [`metrics::per_layer`] does not declare.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(d, _)| d.name == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        slot.1 = value;
    }

    /// Counts one verified operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A workload: set up by its module's `setup`, then driven through
/// this interface.
pub trait Workload {
    /// Runs and verifies one repetition of `variant`.
    ///
    /// # Errors
    /// Propagates I/O errors of the stores; a wrong result is not an
    /// error but `Rep::ok == false`.
    fn rep(&mut self, ctx: &Ctx, variant: Variant) -> io::Result<Rep>;

    /// The layer-peeling pass of the traced run, within about
    /// `budget_s` seconds.
    ///
    /// # Errors
    /// Propagates I/O errors of the stores.
    fn peel(&mut self, ctx: &Ctx, budget_s: f64, layers: &mut Layers) -> io::Result<()>;
}

/// One metric of a finished run.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name and unit.
    pub decl: Decl,
    /// The reported value: a median for timings.
    pub value: f64,
    /// Quartiles and sample count, for timings.
    pub summary: Option<Summary>,
}

/// The outcome of one process.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Repetitions (or traced operations) attempted.
    pub attempted: u64,
    /// Those that failed verification or an exact-count check.
    pub failed: u64,
    /// Every declared metric of the run's kind.
    pub metrics: Vec<Metric>,
    /// Printed but not gated: the measured Table 2 ratio, MB/s.
    pub notes: Vec<String>,
}

impl RunResult {
    /// `true` when nothing failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Sets up workload `name` (compile, stores, seeding, reference).
///
/// # Errors
/// Unknown names and I/O errors.
pub fn setup(name: &str, ctx: &Ctx) -> io::Result<Box<dyn Workload>> {
    use crate::workloads::{compile_all, mxm_sync_mem, trans_par_striped, trans_stage};
    Ok(match name {
        "compile_all" => Box::new(compile_all::setup(ctx)?),
        "mxm_sync_mem" => Box::new(mxm_sync_mem::setup(ctx)?),
        "trans_stage_file" => Box::new(trans_stage::setup(ctx, false)?),
        "trans_stage_crc" => Box::new(trans_stage::setup(ctx, true)?),
        "trans_par_striped" => Box::new(trans_par_striped::setup(ctx)?),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload {other}"),
            ))
        }
    })
}

/// Set-up plus one warm-up repetition of each variant: everything
/// before the first timed repetition. The warm-up's counts become the
/// expectation every later repetition is held to.
fn setup_and_warm(name: &str, ctx: &Ctx) -> io::Result<(Box<dyn Workload>, [Rep; 2])> {
    let mut w = setup(name, ctx)?;
    let head = ctx.rec.time("warmup", || w.rep(ctx, Variant::Headline)).0?;
    let base = ctx.rec.time("warmup", || w.rep(ctx, Variant::Base)).0?;
    Ok((w, [head, base]))
}

/// Peak resident set of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Jiffies the host took from this machine's CPUs and jiffies in
/// total, from the first line of `/proc/stat`. On a shared host a
/// slow run is often a stolen one; the share is printed beside the
/// timings so a reader can tell.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
/// Propagates set-up and store I/O errors.
pub fn run_untraced(
    name: &str,
    ctx: &Ctx,
    seconds: f64,
    process_start: Instant,
) -> io::Result<RunResult> {
    ctx.rec
        .time("workload", || {
            let steal_before = cpu_steal();
            let mut setups = Vec::with_capacity(ctx.sizes.setups);
            let mut state = None;
            for i in 0..ctx.sizes.setups.max(1) {
                // Release the previous set-up's stores before building the
                // next, so peak memory is one set-up's.
                drop(state.take());
                let began = if i == 0 {
                    process_start
                } else {
                    Instant::now()
                };
                state = Some(ctx.rec.time("setup", || setup_and_warm(name, ctx)).0?);
                setups.push(began.elapsed().as_secs_f64());
            }
            let (mut w, expected) = state.expect("at least one set-up");

            let mut order = [Variant::Headline, Variant::Base];
            if Rng::new(ctx.seed).next_u64() & 1 == 1 {
                order.reverse();
            }
            let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
            let (mut attempted, mut failed) = (0u64, 0u64);
            // The warm-ups are verified operations too; a wrong one makes
            // every comparison against it moot.
            for (v, rep) in expected.iter().enumerate() {
                attempted += 1;
                if !rep.ok {
                    failed += 1;
                    eprintln!("{name}: warm-up of variant {v} failed verification");
                }
            }
            let loop_start = Instant::now();
            let mut pairs = 0usize;
            while pairs < ctx.sizes.min_reps || loop_start.elapsed().as_secs_f64() < seconds {
                for variant in order {
                    let v = usize::from(variant == Variant::Base);
                    let rep = ctx.rec.time("rep", || w.rep(ctx, variant)).0?;
                    attempted += 1;
                    if !rep.ok {
                        failed += 1;
                        eprintln!("{name}: repetition {pairs} of {variant:?} failed verification");
                    } else if rep.counts != expected[v].counts {
                        failed += 1;
                        eprintln!(
                            "{name}: exact counts of {variant:?} changed: {:?} then {:?}",
                            expected[v].counts, rep.counts
                        );
                    }
                    times[v].push(rep.seconds);
                }
                pairs += 1;
            }

            let run = summarize(&times[0]);
            let base = summarize(&times[1]);
            let io_calls = expected[0].count("io_calls");
            let io_mb = expected[0].count("io_elems") as f64 * 8.0 / 1e6;
            let value_of = |name: &str| -> (f64, Option<Summary>) {
                match name {
                    "setup_s" => {
                        let s = summarize(&setups);
                        (s.median, Some(s))
                    }
                    "run_s" => (run.median, Some(run)),
                    "base_run_s" => (base.median, Some(base)),
                    "io_calls" => (io_calls as f64, None),
                    "io_mb" => (io_mb, None),
                    "peak_rss_mb" => (peak_rss_mb(), None),
                    other => unreachable!("undeclared end-to-end metric {other}"),
                }
            };
            let metrics = metrics::end_to_end()
                .into_iter()
                .map(|decl| {
                    let (value, summary) = value_of(&decl.name);
                    Metric {
                        decl,
                        value,
                        summary,
                    }
                })
                .collect();
            let stolen = match (steal_before, cpu_steal()) {
                (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                    100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
                }
                _ => 0.0,
            };
            let notes = vec![
                format!("{stolen:.1} % of this machine's CPU time was stolen by its host during the run"),
                format!(
                    "base_run_s / run_s = {:.3} (baseline over headline; not gated)",
                    base.median / run.median
                ),
                format!(
                    "achieved {:.1} MB/s headline, computed bytes over run_s (not gated)",
                    io_mb / run.median
                ),
            ];
            Ok(RunResult {
                workload: name.to_string(),
                attempted,
                failed,
                metrics,
                notes,
            })
        })
        .0
}

/// The traced run: per-layer metrics.
///
/// A third of the budget compares headline repetitions with span
/// recording on and off (`bench.span_overhead_frac`, and the
/// repetitions' named parts as per-layer metrics); the rest goes to
/// the workload's own peeling pass.
///
/// # Errors
/// Propagates set-up and store I/O errors.
pub fn run_traced(name: &str, ctx: &Ctx, seconds: f64) -> io::Result<RunResult> {
    ctx.rec
        .time("workload", || {
            let (mut w, expected) = ctx.rec.time("setup", || setup_and_warm(name, ctx)).0?;
            let mut layers = Layers::default();
            for rep in &expected {
                layers.op(rep.ok);
            }

            let started = Instant::now();
            let (mut on, mut off) = (Vec::new(), Vec::new());
            let mut parts: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            let min_pairs = ctx.sizes.min_reps.min(2);
            while on.len() < min_pairs || started.elapsed().as_secs_f64() < seconds / 3.0 {
                let rep = ctx.rec.time("rep", || w.rep(ctx, Variant::Headline)).0?;
                layers.op(rep.ok && rep.counts == expected[0].counts);
                on.push(rep.seconds);
                for (part, s) in rep.parts {
                    parts.entry(part).or_default().push(s);
                }
                ctx.rec.pause(true);
                let rep = w.rep(ctx, Variant::Headline);
                ctx.rec.pause(false);
                let rep = rep?;
                layers.op(rep.ok && rep.counts == expected[0].counts);
                off.push(rep.seconds);
            }
            layers.set("bench.span_overhead_frac", median(&on) / median(&off) - 1.0);
            for (part, samples) in &parts {
                layers.set(part, median(samples));
            }

            let left = (seconds - started.elapsed().as_secs_f64()).max(0.0);
            ctx.rec.time("peel", || w.peel(ctx, left, &mut layers)).0?;

            let (attempted, failed) = (layers.attempted, layers.failed);
            let metrics = layers
                .values
                .into_iter()
                .map(|(decl, value)| Metric {
                    decl,
                    value,
                    summary: None,
                })
                .collect();
            Ok(RunResult {
                workload: name.to_string(),
                attempted,
                failed,
                metrics,
                notes: Vec::new(),
            })
        })
        .0
}

/// Runs `pass` at least once and then for as long as another pass of
/// the same length still fits in `budget_s`, at most `max` times.
///
/// # Errors
/// Stops at the first failing pass.
pub fn passes_within(
    budget_s: f64,
    max: usize,
    mut pass: impl FnMut() -> io::Result<()>,
) -> io::Result<()> {
    let started = Instant::now();
    let mut n = 0;
    loop {
        let t0 = Instant::now();
        pass()?;
        n += 1;
        let last = t0.elapsed().as_secs_f64();
        if n >= max || started.elapsed().as_secs_f64() + last > budget_s {
            return Ok(());
        }
    }
}
