//! Runs every workload at smoke size through the real binary, traced and
//! untraced, and holds the output against `BENCHMARK.json`: every declared
//! metric present, none undeclared, and the declarations themselves equal
//! to `spec.rs`.

use cc_perf::json::{self, Json};
use cc_perf::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_cc-perf");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<&str> {
    list.as_arr()
        .expect("an array")
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("a name"))
        .collect()
}

#[test]
fn benchmark_json_repeats_spec() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
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

    let workloads = doc.get("workloads").unwrap();
    assert_eq!(names(workloads), WORKLOADS.map(|w| w.name));
    for (entry, spec) in workloads.as_arr().unwrap().iter().zip(&WORKLOADS) {
        assert_eq!(entry.get("why").and_then(Json::as_str), Some(spec.why));
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }

    let end_to_end = doc.get("end_to_end").unwrap();
    assert_eq!(names(end_to_end), END_TO_END.map(|m| m.name));
    for (entry, spec) in end_to_end.as_arr().unwrap().iter().zip(&END_TO_END) {
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(spec.unit),
            "{}",
            spec.name
        );
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(spec.better.label())
        );
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(spec.bound),
            "{}",
            spec.name
        );
        assert!(spec.bound > 0.0 && spec.bound <= 0.25);
    }
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.better.label()),
        ("setup_s", "s", "lower")
    );
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let per_layer = doc.get("per_layer").unwrap();
    assert_eq!(names(per_layer), PER_LAYER.map(|m| m.name));
    for (entry, spec) in per_layer.as_arr().unwrap().iter().zip(&PER_LAYER) {
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(spec.unit),
            "{}",
            spec.name
        );
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(spec.better.label())
        );
    }

    let mut all: Vec<&str> = names(workloads);
    all.extend(names(end_to_end));
    all.extend(names(per_layer));
    let distinct: std::collections::HashSet<&str> = all.iter().copied().collect();
    assert_eq!(distinct.len(), all.len(), "a name is used once");
}

/// The keys of a metrics object, in order.
fn metric_names(metrics: &Json) -> Vec<&str> {
    metrics
        .as_obj()
        .expect("a metrics object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn smoke_run_reports_every_declared_metric() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_ledger.json");
    let status = Command::new(BIN)
        .args([
            "run",
            "--smoke",
            "--with-trace",
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("cc-perf starts");
    assert!(
        status.success(),
        "cc-perf run --smoke failed: some output was wrong"
    );

    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).expect("ledger parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(cc_perf::report::SCHEMA)
    );
    for key in [
        "git_sha", "nproc", "cpu", "rustc", "seed", "seconds", "size",
    ] {
        assert!(doc.get(key).is_some(), "ledger lacks {key}");
    }
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(
        names(doc.get("workloads").unwrap()),
        WORKLOADS.map(|w| w.name)
    );
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(
            w.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{name} failed operations"
        );
        assert_eq!(w.get("correct").and_then(Json::as_bool), Some(true));
        assert!(w.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(w.get("why").and_then(Json::as_str).is_some());

        let end_to_end = w.get("end_to_end").unwrap();
        assert_eq!(
            metric_names(end_to_end),
            END_TO_END.map(|m| m.name),
            "{name}"
        );
        for (metric, value) in end_to_end.as_obj().unwrap() {
            let v = value.get("value").and_then(Json::as_f64).unwrap();
            assert!(
                v > 0.0 && v.is_finite(),
                "{name}.{metric} = {v}: end-to-end metrics are never 0"
            );
            assert!(value.get("n").and_then(Json::as_f64).unwrap() >= 1.0);
        }
        let per_layer = w.get("per_layer").unwrap();
        assert_eq!(metric_names(per_layer), PER_LAYER.map(|m| m.name), "{name}");
        let measured = per_layer
            .as_obj()
            .unwrap()
            .iter()
            .filter(|(_, v)| v.get("n").and_then(Json::as_f64).unwrap() > 0.0)
            .count();
        assert!(
            measured >= 5,
            "{name} measured only {measured} per-layer metrics"
        );
    }

    // The ledger compares clean against itself.
    let status = Command::new(BIN)
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success());
}

/// The driver's form: the last line of standard output is one object with
/// exactly four keys, and each metric is a value and a unit.
#[test]
fn driver_line_has_the_contract_shape() {
    for (trace, declared) in [
        ("0", END_TO_END.map(|m| (m.name, m.unit)).to_vec()),
        ("1", PER_LAYER.map(|m| (m.name, m.unit)).to_vec()),
    ] {
        let output = Command::new(BIN)
            .args([
                "--workload",
                "serve_cache",
                "--seed",
                "2",
                "--seconds",
                "0.2",
                "--trace",
                trace,
            ])
            .arg("--smoke")
            .output()
            .expect("cc-perf starts");
        assert!(output.status.success());
        let text = String::from_utf8(output.stdout).unwrap();
        let line = json::parse(text.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), declared.len());
        for ((name, value), (want, unit)) in metrics.iter().zip(&declared) {
            assert_eq!(name, want);
            let keys: Vec<&str> = value
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(*unit));
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serve_open", "--trace", "2"],
        &["--workload", "serve_open", "--seconds", "0"],
        &["compare", "only_one.json"],
        &["frobnicate"],
        &[],
    ] {
        let output = Command::new(BIN).args(args).output().unwrap();
        assert!(!output.status.success(), "{args:?} should fail");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
