//! What a workload run hands back, and how it is printed: the table for
//! people, the one-line result for the driver, and the schema-versioned
//! ledger JSON.

use crate::json::Json;
use crate::spec::{self, Workload};
use crate::stats::PhaseStats;

/// Version of the ledger JSON layout; `compare` refuses other versions.
pub const SCHEMA: &str = "cc-perf/1";

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Samples behind the value (latencies, repetitions, batches).
    pub n: u64,
    /// First-to-third-quartile distance, over the median, of the same
    /// metric taken per slice of the timed phase (or per repetition): the
    /// spread this one run saw. `None` for counts.
    pub spread: Option<f64>,
}

impl Value {
    pub fn new(value: f64, n: u64) -> Self {
        Value {
            value,
            n,
            spread: None,
        }
    }

    /// A value read off `windows`, its per-slice or per-repetition values.
    pub fn with_windows(value: f64, n: u64, windows: &[f64]) -> Self {
        Value {
            value,
            n,
            spread: Some(crate::stats::relative_iqr(windows)),
        }
    }

    /// A count or simulated figure: one sample, no spread.
    pub fn exact(value: f64) -> Self {
        Value::new(value, 1)
    }
}

/// The outcome of one workload run, traced or not.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations checked against their reference.
    pub attempted: u64,
    /// Operations that were shed, errored, hung, or produced wrong output.
    pub failed: u64,
    pub metrics: Vec<(&'static str, Value)>,
    /// Human-readable remarks (why something failed, tables).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: Value) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Records a failed check with its reason.
    pub fn fail(&mut self, count: u64, why: impl Into<String>) {
        if count > 0 {
            self.failed += count;
            self.notes.push(format!("FAILED x{count}: {}", why.into()));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Sets `accuracy` to the share of checked operations that passed,
    /// for workloads whose outputs are right or wrong, not scored.
    pub fn set_accuracy_from_checks(&mut self) {
        let passed = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.set(spec::ACCURACY, Value::new(passed, self.attempted));
    }

    /// Sets the three metrics every timed phase yields.
    pub fn set_phase(&mut self, phase: &PhaseStats) {
        self.set(
            spec::IMG_PER_S,
            Value::with_windows(phase.rate, phase.samples, &phase.rate_slices),
        );
        self.set(
            spec::P50_US,
            Value::with_windows(phase.p50_us, phase.samples, &phase.p50_slices),
        );
        self.set(
            spec::P90_US,
            Value::with_windows(phase.p90_us, phase.samples, &phase.p90_slices),
        );
    }
}

/// `(name, unit)` of every metric a run of the given kind must report, in
/// declaration order.
pub fn declared(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Fills every declared metric the workload did not measure with 0 (a
/// per-layer metric of a layer the workload bypasses) and returns the
/// names of metrics that are reported but not declared.
pub fn complete(outcome: &mut Outcome, trace: bool) -> Vec<&'static str> {
    let names = declared(trace);
    let undeclared = outcome
        .metrics
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !names.iter().any(|(d, _)| d == n))
        .collect();
    if trace {
        for (name, _) in &names {
            if outcome.get(name).is_none() {
                outcome.set(name, Value::new(0.0, 0));
            }
        }
    }
    undeclared
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a value and a unit.
pub fn driver_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = declared(trace)
        .into_iter()
        .filter_map(|(name, unit)| {
            outcome.get(name).map(|v| {
                (
                    name,
                    Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(unit))]),
                )
            })
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// Every metric with its sample count and own spread, for the ledger.
pub fn metrics_json(outcome: &Outcome, trace: bool) -> Json {
    Json::obj(declared(trace).into_iter().filter_map(|(name, unit)| {
        outcome.get(name).map(|v| {
            let mut members = vec![
                ("value", Json::Num(v.value)),
                ("unit", Json::str(unit)),
                ("n", Json::from(v.n)),
            ];
            if let Some(spread) = v.spread {
                members.push(("spread", Json::Num(spread)));
            }
            (name, Json::obj(members))
        })
    }))
}

/// The detail line a child process prints above the driver line, which
/// `run`/`trace` fold into the ledger JSON.
pub fn detail_json(outcome: &Outcome, trace: bool) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(outcome, trace)),
        (
            "notes",
            Json::Arr(outcome.notes.iter().map(Json::str).collect()),
        ),
    ])
}

/// Prints every metric by name with its unit and sample count.
pub fn print_table(workload: &Workload, outcome: &Outcome, trace: bool) {
    println!(
        "== {} ({}) ==",
        workload.name,
        if trace { "traced" } else { "tracing off" }
    );
    for (name, unit) in declared(trace) {
        let Some(v) = outcome.get(name) else { continue };
        if trace && v.n == 0 {
            continue;
        }
        let spread = v
            .spread
            .map_or_else(String::new, |s| format!("  slices IQR {:.1}%", 100.0 * s));
        // A traced metric says which end-to-end metric it should move.
        let moves = spec::PER_LAYER
            .iter()
            .find(|m| trace && m.name == name)
            .map_or_else(String::new, |m| format!("  -> {}", m.moves));
        println!(
            "  {name:<42} {:>16} {unit:<9} n={}{spread}{moves}",
            format_value(v.value),
            v.n
        );
    }
    println!(
        "  attempted {}  failed {}  fail_share {}",
        outcome.attempted,
        outcome.failed,
        format_value(outcome.failed as f64 / outcome.attempted.max(1) as f64)
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

/// Four significant decimals for small values, none for large counts.
pub fn format_value(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{v:.0}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// First line of a command's standard output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and with what the numbers were taken.
pub fn machine_json() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        (
            "git_sha",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Json::from(nproc as u64)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
    ])
}
