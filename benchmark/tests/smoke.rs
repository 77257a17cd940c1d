//! Every workload and its traced pass at toy size, and the agreement
//! between what they emit and what `BENCHMARK.json` declares.

use ooc_benchmark::config::Sizes;
use ooc_benchmark::metrics::{self, WORKLOADS};
use ooc_benchmark::report::result_line;
use ooc_benchmark::{run_one, RunSpec};
use ooc_trace::json::Json;
use std::path::Path;
use std::time::Instant;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn declared_names_are_the_emitted_names() {
    let spec = spec();
    let Json::Obj(fields) = &spec else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    assert_eq!(names(&spec, "workloads"), WORKLOADS);
    let e2e: Vec<String> = metrics::end_to_end().into_iter().map(|d| d.name).collect();
    let layers: Vec<String> = metrics::per_layer().into_iter().map(|d| d.name).collect();
    assert_eq!(names(&spec, "end_to_end"), e2e);
    assert_eq!(names(&spec, "per_layer"), layers);
    assert!(e2e.len() <= 16, "{} end-to-end metrics", e2e.len());
    assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
    assert!(e2e.contains(&"setup_s".to_string()));

    let mut all: Vec<&String> = e2e.iter().chain(&layers).collect();
    for name in all.iter().copied().chain(&names(&spec, "workloads")) {
        assert!(valid_name(name), "bad name {name:?}");
    }
    all.sort();
    all.dedup();
    assert_eq!(all.len(), e2e.len() + layers.len(), "a metric name repeats");

    // Units agree too, and every declared metric has one.
    for (key, decls) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        let declared = spec.get(key).and_then(Json::as_arr).expect("array");
        for (item, decl) in declared.iter().zip(&decls) {
            let unit = item.get("unit").and_then(Json::as_str).expect("unit");
            assert!(!unit.is_empty() && unit.len() <= 16, "{}", decl.name);
            assert_eq!(unit, decl.unit, "{}", decl.name);
        }
    }
}

#[test]
fn every_workload_runs_traced_and_untraced_at_toy_size() {
    let started = Instant::now();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let sizes = Sizes::toy();
    for traced in [false, true] {
        let declared = if traced {
            metrics::per_layer()
        } else {
            metrics::end_to_end()
        };
        for workload in WORKLOADS {
            let trace_out = out_dir.join(format!("trace-{workload}.json"));
            let spec = RunSpec {
                workload,
                seed: 7,
                seconds: 0.0,
                traced,
                out_dir: &out_dir,
                trace_out: &trace_out,
            };
            let result = run_one(&spec, &sizes, Instant::now())
                .unwrap_or_else(|e| panic!("{workload} (traced {traced}): {e}"));
            assert_eq!(result.failed, 0, "{workload} (traced {traced})");
            assert!(result.attempted >= 1, "{workload}");

            // The result line: exactly the contract's keys, every
            // declared metric with a unit, nothing else.
            let line = Json::parse(&result_line(&result)).expect("result line is JSON");
            let Json::Obj(fields) = &line else {
                panic!("result line is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(emitted)) = line.get("metrics") else {
                panic!("metrics is an object")
            };
            let emitted_names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            let declared_names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(emitted_names, declared_names, "{workload}");
            for ((name, metric), decl) in emitted.iter().zip(&declared) {
                assert!(
                    metric.get("value").and_then(Json::as_f64).is_some(),
                    "{name}"
                );
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(decl.unit));
            }
            if !traced {
                for (name, metric) in emitted {
                    let v = metric.get("value").and_then(Json::as_f64).expect("value");
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
                }
            } else {
                let spans = std::fs::read_to_string(&trace_out).expect("trace written");
                let spans = Json::parse(&spans).expect("trace is JSON");
                let spans = spans.as_arr().expect("trace is an array");
                assert_eq!(
                    spans[0].get("name").and_then(Json::as_str),
                    Some("workload")
                );
                for name in ["setup", "rep", "peel"] {
                    assert!(
                        spans
                            .iter()
                            .any(|s| s.get("name").and_then(Json::as_str) == Some(name)),
                        "{workload}: no {name} span"
                    );
                }
            }
        }
    }
    // Scratch files are gone, success or not.
    let leftovers: Vec<_> = std::fs::read_dir(&out_dir)
        .expect("out dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    assert!(
        started.elapsed().as_secs_f64() < 10.0,
        "smoke run took {:?}",
        started.elapsed()
    );
}
