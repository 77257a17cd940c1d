//! Command line of the benchmark.
//!
//! `--workload W --seed S --seconds T --trace 0|1` runs one workload
//! in this process and prints its result as the last line. Without
//! `--workload`, every workload runs in its own child process, the
//! traced pass follows, and `out/results.json` and `out/trace.json`
//! are written (`--aa` does it all twice and compares the sets).

use ooc_benchmark::config::Sizes;
use ooc_benchmark::report::{self, FullRun};
use ooc_benchmark::{run_one, RunSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: ooc-benchmark [--workload NAME] [--seed N] [--seconds N] \
                     [--trace 0|1] [--aa] [--bench-dir DIR] [--trace-out FILE]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    aa: bool,
    bench_dir: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        aa: false,
        bench_dir: PathBuf::from("benchmark"),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds out of range".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => args.aa = true,
            "--bench-dir" => args.bench_dir = PathBuf::from(value()?),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        let full = FullRun {
            bench_dir: args.bench_dir,
            seed: args.seed,
            seconds: args.seconds,
            aa: args.aa,
        };
        return match report::run_full(&full) {
            Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
            Err(e) => {
                eprintln!("benchmark failed: {e}");
                ExitCode::from(2)
            }
        };
    };
    let out_dir = args.bench_dir.join("out");
    let trace_out = args.trace_out.unwrap_or_else(|| out_dir.join("trace.json"));
    let spec = RunSpec {
        workload: &workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(10.0),
        traced: args.traced,
        out_dir: &out_dir,
        trace_out: &trace_out,
    };
    match run_one(&spec, &Sizes::full(), process_start) {
        Ok(result) => {
            report::print_result(&result);
            println!("detail {}", report::detail_json(&result).compact());
            println!("{}", report::result_line(&result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::from(2)
        }
    }
}
