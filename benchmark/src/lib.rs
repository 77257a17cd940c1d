//! Wall-clock benchmark of the ooc-opt crates.
//!
//! Five workloads, each dominated by one layer of the system, are
//! measured from outside by timing calls into the crates' public
//! functions. An untraced run reports the end-to-end metrics; a traced
//! run peels the layers apart. `README.md` explains the choices and
//! how the metrics interact; `BENCHMARK.json` at the repository root
//! declares the names this crate emits.

#![warn(missing_docs)]

pub mod config;
pub mod inputs;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
pub mod workloads;

use config::Sizes;
use spans::Recorder;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Ctx, RunResult};

/// A process's scratch directory, `out/tmp-<pid>`: removed when the
/// run ends, whether it succeeded, failed or panicked.
#[derive(Debug)]
struct Scratch(PathBuf);

impl Scratch {
    fn create(out_dir: &Path) -> io::Result<Self> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One run of one workload in this process.
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    /// Workload name, one of [`metrics::WORKLOADS`].
    pub workload: &'a str,
    /// `--seed`: array contents and variant order.
    pub seed: u64,
    /// `--seconds`: how long to measure.
    pub seconds: f64,
    /// `--trace`: the layer-peeling run instead of the end-to-end one.
    pub traced: bool,
    /// Where `tmp-<pid>` and the trace go.
    pub out_dir: &'a Path,
    /// Where a traced run writes its spans.
    pub trace_out: &'a Path,
}

/// Runs one workload and, when traced, writes its spans.
///
/// # Errors
/// Unknown workloads and filesystem errors.
pub fn run_one(spec: &RunSpec, sizes: &Sizes, process_start: Instant) -> io::Result<RunResult> {
    std::fs::create_dir_all(spec.out_dir)?;
    let scratch = Scratch::create(spec.out_dir)?;
    let rec = Recorder::new(spec.workload, spec.traced);
    let ctx = Ctx {
        sizes,
        seed: spec.seed,
        tmp: &scratch.0,
        rec: &rec,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
    };
    let result = if spec.traced {
        workload::run_traced(spec.workload, &ctx, spec.seconds)?
    } else {
        workload::run_untraced(spec.workload, &ctx, spec.seconds, process_start)?
    };
    if spec.traced {
        std::fs::write(spec.trace_out, rec.to_json().compact())?;
    }
    Ok(result)
}
