//! Command line of `cc-perf`.
//!
//! ```text
//! cc-perf --workload NAME --seed N --seconds S --trace 0|1    one workload (the driver's form)
//! cc-perf run   [--seed N] [--seconds S] [--with-trace] [--out FILE]
//! cc-perf trace [--seed N] [--seconds S] [--out FILE]
//! cc-perf compare [--exact] A.json B.json
//! ```

use cc_perf::compare;
use cc_perf::fixtures::Size;
use cc_perf::json::{self, Json};
use cc_perf::report::{self, SCHEMA};
use cc_perf::spec::WORKLOADS;
use cc_perf::workloads::{dispatch, Params};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  cc-perf --workload NAME --seed N --seconds S --trace 0|1
  cc-perf run   [--seed N] [--seconds S] [--with-trace] [--out FILE]
  cc-perf trace [--seed N] [--seconds S] [--out FILE]
  cc-perf compare [--exact] A.json B.json      (--exact: counted and simulated metrics only)
workloads: combine_lenet offline_resnet offline_resnet_2shard serve_closed serve_open serve_cache";

/// Seconds one timed phase measures unless `--seconds` says otherwise;
/// `BENCHMARK.json`'s `run_seconds` is the same number.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug)]
struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    with_trace: bool,
    detail: bool,
    smoke: bool,
    exact: bool,
    out: Option<String>,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        with_trace: false,
        detail: false,
        smoke: false,
        exact: false,
        out: None,
    };
    let mut raw = raw.peekable();
    while let Some(arg) = raw.next() {
        let mut value = |name: &str| raw.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".to_string());
                }
                args.seconds = seconds;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--out" => args.out = Some(value("--out")?),
            "--with-trace" => args.with_trace = true,
            "--detail" => args.detail = true,
            "--smoke" => args.smoke = true,
            "--exact" => args.exact = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if args.command.is_none() && args.workload.is_none() => args.command = Some(arg),
            _ => args.files.push(arg),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its table, then (with
/// `--detail`) the detail line, then the driver's result line last.
fn one_workload(name: &str, args: &Args) -> ExitCode {
    let size = if args.smoke {
        Size::smoke()
    } else {
        Size::full()
    };
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        size,
    };
    let Some(mut outcome) = dispatch(name, &params, args.trace) else {
        eprintln!("unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let workload = cc_perf::spec::workload(name).expect("dispatch knew the name");
    for stray in report::complete(&mut outcome, args.trace) {
        outcome.fail(1, format!("metric {stray} is reported but not declared"));
    }
    for (declared, _) in report::declared(args.trace) {
        if outcome.get(declared).is_none() {
            outcome.fail(1, format!("metric {declared} is declared but not reported"));
        }
    }
    report::print_table(workload, &outcome, args.trace);
    if args.detail {
        println!("{}", report::detail_json(&outcome, args.trace).render());
    }
    println!("{}", report::driver_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

/// Re-executes this binary for one workload, so that peak memory and heap
/// state are the workload's own, and returns its detail JSON.
fn child(name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--detail")
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = text.lines().collect();
    if !output.status.success() || lines.len() < 2 {
        return Err(format!(
            "{name} ended with {} and {} lines",
            output.status,
            lines.len()
        ));
    }
    for line in &lines[..lines.len() - 2] {
        println!("{line}");
    }
    json::parse(lines[lines.len() - 2]).map_err(|e| format!("{name}: {e}"))
}

/// `run` and `trace`: every workload in its own process, one ledger JSON.
fn all_workloads(args: &Args, end_to_end: bool, per_layer: bool) -> ExitCode {
    let mut rows = Vec::new();
    let mut failed = false;
    for workload in &WORKLOADS {
        let mut members = vec![
            ("name".to_string(), Json::str(workload.name)),
            ("why".to_string(), Json::str(workload.why)),
        ];
        let mut counts: Option<(f64, f64)> = None;
        for (wanted, trace, key) in [
            (end_to_end, false, "end_to_end"),
            (per_layer, true, "per_layer"),
        ] {
            if !wanted {
                continue;
            }
            match child(workload.name, args, trace) {
                Ok(detail) => {
                    let count = |k: &str| detail.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                    let so_far = counts.get_or_insert((0.0, 0.0));
                    so_far.0 += count("attempted");
                    so_far.1 += count("failed");
                    members.push((
                        key.to_string(),
                        detail.get("metrics").cloned().unwrap_or(Json::Null),
                    ));
                    if let Some(notes) = detail.get("notes") {
                        members.push((format!("{key}_notes"), notes.clone()));
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
        let (attempted, failures) = counts.unwrap_or((0.0, 1.0));
        failed |= failures > 0.0;
        members.insert(2, ("attempted".to_string(), Json::Num(attempted)));
        members.insert(3, ("failed".to_string(), Json::Num(failures)));
        members.insert(4, ("correct".to_string(), Json::Bool(failures == 0.0)));
        rows.push(Json::Obj(members));
    }
    let mut doc = vec![("schema".to_string(), Json::str(SCHEMA))];
    if let Json::Obj(machine) = report::machine_json() {
        doc.extend(machine);
    }
    doc.push(("seed".to_string(), Json::from(args.seed)));
    doc.push(("seconds".to_string(), Json::Num(args.seconds)));
    doc.push((
        "size".to_string(),
        Json::str(if args.smoke { "smoke" } else { "full" }),
    ));
    doc.push(("workloads".to_string(), Json::Arr(rows)));
    let text = Json::Obj(doc).render_pretty();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        None => print!("{text}"),
    }
    if failed {
        eprintln!("some operation failed or some output was wrong: see the notes above");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn compare_files(files: &[String], exact_only: bool) -> ExitCode {
    let [a, b] = files else {
        eprintln!("compare takes two files\n{USAGE}");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match load(a).and_then(|a| load(b).and_then(|b| compare::compare(&a, &b, exact_only))) {
        Ok(rows) => {
            if compare::print(&rows) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => one_workload(name, &args),
        (Some("run"), None) => all_workloads(&args, true, args.with_trace),
        (Some("trace"), None) => all_workloads(&args, false, true),
        (Some("compare"), None) => compare_files(&args.files, args.exact),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
