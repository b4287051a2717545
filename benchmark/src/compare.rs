//! `cc-perf compare A.json B.json`: the noise-aware diff of two ledger
//! rows. A is the base; every ratio is B over A.

use crate::json::Json;
use crate::report::{format_value, SCHEMA};
use crate::spec::{Better, EndToEnd, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// An exact metric, equal on both sides.
    Same,
    /// An exact metric that differs between two runs at one seed.
    Changed,
    /// Within the bound, and both runs' own slices are tighter than it.
    Ok,
    /// Within the bound, but a run's own slices spread (first to third
    /// quartile) wider than the bound: "no regression" is not established.
    Unresolved,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Absent on one side.
    Missing,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Changed => "CHANGED",
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "MISSING",
        }
    }

    /// Whether this verdict makes `compare` exit non-zero.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Changed | Verdict::Regressed | Verdict::Missing
        )
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// One side of one metric: its value and the spread of its own run's
/// slices (0 where the ledger records none).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative when `b` is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict on one metric. `same_seed` says whether the two runs drew
/// the same inputs, which is when exact metrics must agree exactly.
pub fn judge(metric: &EndToEnd, a: &Side, b: &Side, same_seed: bool) -> Verdict {
    if metric.exact && same_seed {
        return if a.value == b.value {
            Verdict::Same
        } else {
            Verdict::Changed
        };
    }
    let worse = worsening(metric.better, a.value, b.value);
    let spread = a.spread.max(b.spread);
    if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema {other:?}, expected {SCHEMA:?}")),
    }
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no workloads array".to_string())
}

/// One row per workload of A and end-to-end metric, plus a `failed` row
/// per workload. With `exact_only`, timing metrics are left out: that is
/// the comparison that still means something between two machines.
pub fn compare(a: &Json, b: &Json, exact_only: bool) -> Result<Vec<Row>, String> {
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    let b_workloads = workloads(b)?;
    let mut rows = Vec::new();
    for wa in workloads(a)? {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let wb = b_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name));
        let row = |metric: &str, a: f64, b: f64, verdict| Row {
            workload: name.to_string(),
            metric: metric.to_string(),
            a,
            b,
            verdict,
        };
        for metric in END_TO_END.iter().filter(|m| m.exact || !exact_only) {
            let sa = side(wa, metric.name);
            let sb = wb.and_then(|w| side(w, metric.name));
            rows.push(match (sa, sb) {
                (Some(sa), Some(sb)) => row(
                    metric.name,
                    sa.value,
                    sb.value,
                    judge(metric, &sa, &sb, same_seed),
                ),
                (sa, sb) => row(
                    metric.name,
                    sa.map_or(f64::NAN, |s| s.value),
                    sb.map_or(f64::NAN, |s| s.value),
                    Verdict::Missing,
                ),
            });
        }
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64);
        rows.push(match (failed(wa), wb.and_then(failed)) {
            (Some(fa), Some(fb)) => row(
                "failed",
                fa,
                fb,
                if fb > fa {
                    Verdict::Regressed
                } else {
                    Verdict::Same
                },
            ),
            _ => row("failed", f64::NAN, f64::NAN, Verdict::Missing),
        });
    }
    Ok(rows)
}

/// Prints the rows; returns whether any fails the comparison.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A (base)", "B", "B/A"
    );
    for r in rows {
        let ratio = if r.a != 0.0 && r.a.is_finite() && r.b.is_finite() {
            format!("{:.4}", r.b / r.a)
        } else {
            "-".to_string()
        };
        println!(
            "{:<22} {:<20} {:>14} {:>14} {:>9}  {}",
            r.workload,
            r.metric,
            format_value(r.a),
            format_value(r.b),
            ratio,
            r.verdict.label()
        );
    }
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows, {failing} failing, {unresolved} unresolved",
        rows.len()
    );
    failing > 0
}
