//! Output: the result line of a single run, and the full run that
//! launches every workload in its own process, prints every metric and
//! writes `out/results.json` and `out/trace.json`.

use crate::metrics::{self, EXACT, WORKLOADS};
use crate::workload::RunResult;
use ooc_trace::json::Json;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// The last line of a single run's standard output: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_line(r: &RunResult) -> String {
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::U64(r.attempted)),
        ("failed", Json::U64(r.failed)),
        (
            "metrics",
            Json::Obj(
                r.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.decl.name.clone(),
                            Json::obj([
                                ("value", Json::F64(finite(m.value))),
                                ("unit", Json::Str(m.decl.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .compact()
}

/// The run with its quartiles and sample counts, for `results.json`.
#[must_use]
pub fn detail_json(r: &RunResult) -> Json {
    Json::obj([
        ("workload", Json::Str(r.workload.clone())),
        ("ops_total", Json::U64(r.attempted)),
        ("ops_failed", Json::U64(r.failed)),
        (
            "metrics",
            Json::Obj(
                r.metrics
                    .iter()
                    .map(|m| {
                        let mut fields = vec![
                            ("value".to_string(), Json::F64(finite(m.value))),
                            ("unit".to_string(), Json::Str(m.decl.unit.to_string())),
                        ];
                        if let Some(s) = m.summary {
                            fields.push(("q1".to_string(), Json::F64(s.q1)));
                            fields.push(("q3".to_string(), Json::F64(s.q3)));
                            fields.push(("n".to_string(), Json::U64(s.n as u64)));
                        }
                        (m.decl.name.clone(), Json::Obj(fields))
                    })
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(r.notes.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// Prints every metric of a run by name, with its unit.
pub fn print_result(r: &RunResult) {
    println!("workload {}", r.workload);
    for m in &r.metrics {
        let spread = m.summary.map_or(String::new(), |s| {
            format!("  (q1 {:.6} q3 {:.6} n {})", s.q1, s.q3, s.n)
        });
        println!(
            "  {:<34} {:>16.6} {}{spread}",
            m.decl.name, m.value, m.decl.unit
        );
    }
    println!("  {:<34} {:>16} count", "ops_total", r.attempted);
    println!("  {:<34} {:>16} count", "ops_failed", r.failed);
    for note in &r.notes {
        println!("  {note}");
    }
}

/// The environment a full run was measured in.
fn env_json(bench_dir: &Path, seed: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Json::obj([
        (
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(rustc)),
        ("git_commit", Json::Str(git_commit(bench_dir))),
        ("seed", Json::U64(seed)),
        ("tmp_fs", Json::Str(fs_type(&bench_dir.join("out")))),
    ])
}

/// `HEAD` of the repository the benchmark sits in, read from `.git`
/// directly so nothing outside the checkout is consulted.
fn git_commit(bench_dir: &Path) -> String {
    let git = bench_dir.join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_else(|_| {
            // The ref may live in packed-refs as "<commit> <ref>".
            std::fs::read_to_string(git.join("packed-refs"))
                .unwrap_or_default()
                .lines()
                .find_map(|l| l.strip_suffix(r).map(str::to_string))
                .unwrap_or_default()
        }),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit.to_string()
    }
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(mount)
                        .then(|| (mount.len(), fs.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a full run was asked to do.
#[derive(Debug, Clone)]
pub struct FullRun {
    /// The `benchmark/` directory: `out/` lives in it, `BENCHMARK.json`
    /// and `.git` beside it.
    pub bench_dir: PathBuf,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`; `None` takes `run_seconds` from `BENCHMARK.json`.
    pub seconds: Option<f64>,
    /// `--aa`: run everything twice and compare the sets.
    pub aa: bool,
}

/// One child process: a single run of one workload. An untraced
/// child's metric lines are passed through as they are; a traced
/// child's go into the per-layer table instead.
fn spawn_run(
    full: &FullRun,
    workload: &str,
    seconds: f64,
    trace_out: Option<&Path>,
) -> io::Result<Json> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload])
        .args(["--seed", &full.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace_out.is_some() { "1" } else { "0" }])
        .arg("--bench-dir")
        .arg(&full.bench_dir);
    if let Some(path) = trace_out {
        command.arg("--trace-out").arg(path);
    }
    let out = command.stderr(std::process::Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let bad = |what: &str| io::Error::other(format!("{workload}: {what}\n{stdout}"));
    if !out.status.success() {
        return Err(bad("run failed"));
    }
    for line in stdout.lines() {
        if let Some(detail) = line.strip_prefix("detail ") {
            return Json::parse(detail).map_err(|e| bad(&e));
        }
        if trace_out.is_none() {
            println!("{line}");
        }
    }
    Err(bad("no detail line"))
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One set: every workload untraced, then every workload traced, each
/// in its own process so peak memory is per workload.
fn run_set(
    full: &FullRun,
    seconds: f64,
    spans: &mut Vec<Json>,
) -> io::Result<(Vec<Json>, Vec<Json>)> {
    let out_dir = full.bench_dir.join("out");
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    println!("== end-to-end (median of the repetitions; span recording off) ==");
    for w in WORKLOADS {
        eprintln!("running {w} ...");
        untraced.push(spawn_run(full, w, seconds, None)?);
    }
    for w in WORKLOADS {
        eprintln!("tracing {w} ...");
        let part = out_dir.join(format!("trace-{w}.json"));
        traced.push(spawn_run(full, w, seconds, Some(&part))?);
        let text = std::fs::read_to_string(&part)?;
        std::fs::remove_file(&part)?;
        match Json::parse(&text).map_err(io::Error::other)? {
            Json::Arr(items) => spans.extend(items),
            _ => return Err(io::Error::other("trace part is not an array")),
        }
    }
    Ok((untraced, traced))
}

fn print_layers(traced: &[Json]) {
    println!("== per-layer (traced pass; a workload that does not run a layer reads 0) ==");
    print!("{:<34} {:<8}", "metric", "unit");
    for w in WORKLOADS {
        print!(" {w:>17}");
    }
    println!();
    for d in metrics::per_layer() {
        print!("{:<34} {:<8}", d.name, d.unit);
        for run in traced {
            print!(" {:>17.6}", metric_value(run, &d.name).unwrap_or(0.0));
        }
        println!();
    }
}

fn ops_failed(runs: &[Json]) -> u64 {
    runs.iter()
        .map(|r| r.get("ops_failed").and_then(Json::as_f64).unwrap_or(1.0) as u64)
        .sum()
}

/// Compares two sets of the same code. Prints one row per (metric,
/// workload); returns how many end-to-end pairs are outside their
/// bound and how many exact counts differ.
fn compare_sets(spec: &Json, a: &[Vec<Json>; 2], b: &[Vec<Json>; 2]) -> u64 {
    let mut bad = 0u64;
    println!("== A/A: two sets of the same build ==");
    println!(
        "{:<34} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "metric", "workload", "set A", "set B", "ratio", "bound"
    );
    let mut row = |name: &str, w: &str, va: f64, vb: f64, bound: Option<f64>| {
        let ratio = if va == vb { 1.0 } else { vb / va };
        let exact = EXACT.contains(&name);
        let spread = (va.max(vb) / va.min(vb).max(f64::MIN_POSITIVE) - 1.0).abs();
        let fails = if exact {
            va != vb
        } else {
            bound.is_some_and(|b| va != vb && spread > b)
        };
        let bound_text = if exact {
            "exact".to_string()
        } else {
            bound.map_or("-".to_string(), |b| format!("{b:.2}"))
        };
        println!(
            "{name:<34} {w:<18} {va:>14.6} {vb:>14.6} {ratio:>8.4} {bound_text:>7}{}",
            if fails { "  OUTSIDE" } else { "" }
        );
        bad += u64::from(fails);
    };
    for d in spec.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = d.get("name").and_then(Json::as_str).unwrap_or("");
        let bound = d.get("bound").and_then(Json::as_f64);
        for (ra, rb) in a[0].iter().zip(&b[0]) {
            let w = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
            if let (Some(va), Some(vb)) = (metric_value(ra, name), metric_value(rb, name)) {
                row(name, w, va, vb, bound);
            }
        }
    }
    for d in metrics::per_layer() {
        for (ra, rb) in a[1].iter().zip(&b[1]) {
            let w = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
            let (va, vb) = (
                metric_value(ra, &d.name).unwrap_or(0.0),
                metric_value(rb, &d.name).unwrap_or(0.0),
            );
            if va != 0.0 || vb != 0.0 {
                row(&d.name, w, va, vb, None);
            }
        }
    }
    bad
}

/// The full run. Returns the process exit code: 1 when any operation
/// failed or, with `--aa`, when the two sets disagree.
///
/// # Errors
/// A child that cannot run, and filesystem errors.
pub fn run_full(full: &FullRun) -> io::Result<i32> {
    let spec_path = full.bench_dir.join("../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(&spec_path)?).map_err(io::Error::other)?;
    let seconds = full
        .seconds
        .or_else(|| spec.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0);
    let out_dir = full.bench_dir.join("out");
    std::fs::create_dir_all(&out_dir)?;

    let mut spans = Vec::new();
    let (untraced, traced) = run_set(full, seconds, &mut spans)?;
    print_layers(&traced);
    let mut failed = ops_failed(&untraced) + ops_failed(&traced);
    let mut sets = vec![Json::obj([
        ("end_to_end", Json::Arr(untraced.clone())),
        ("per_layer", Json::Arr(traced.clone())),
    ])];
    let mut outside = 0;
    if full.aa {
        let (untraced_b, traced_b) = run_set(full, seconds, &mut Vec::new())?;
        failed += ops_failed(&untraced_b) + ops_failed(&traced_b);
        outside = compare_sets(
            &spec,
            &[untraced, traced],
            &[untraced_b.clone(), traced_b.clone()],
        );
        sets.push(Json::obj([
            ("end_to_end", Json::Arr(untraced_b)),
            ("per_layer", Json::Arr(traced_b)),
        ]));
    }

    let env = env_json(&full.bench_dir, full.seed);
    println!("env {}", env.compact());
    let results = Json::obj([
        ("env", env),
        ("run_seconds", Json::F64(seconds)),
        ("sets", Json::Arr(sets)),
    ]);
    std::fs::write(out_dir.join("results.json"), results.pretty())?;
    std::fs::write(out_dir.join("trace.json"), Json::Arr(spans).compact())?;
    println!("ops_failed total {failed}");
    if full.aa {
        println!("A/A pairs outside their bound or inexact: {outside}");
    }
    println!(
        "wrote {} and {}",
        out_dir.join("results.json").display(),
        out_dir.join("trace.json").display()
    );
    Ok(i32::from(failed > 0 || outside > 0))
}
