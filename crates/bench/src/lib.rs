//! Experiment harness for the column-combining reproduction.
//!
//! One binary per paper artifact (see `src/bin/`): `fig13a`, `fig13b`,
//! `fig13c`, `fig14b`, `fig15a`, `fig15b`, `fig16`, `table1`, `table2`,
//! `table3`, `sec72`, `ablation`, plus `all` which runs the lot and writes
//! CSVs under `results/`; `autotune` pits the serving controller against
//! static configs; the serving and sharding gates live in the test-only
//! `gates` module. Host performance is measured by `cc-perf`
//! (`benchmark/`), not here.
//!
//! Experiments run at a CPU-friendly **quick** scale by default (small
//! synthetic datasets, width-scaled networks); set `CC_SCALE=full` for
//! longer runs. The *shapes* of the paper's results — who wins, by what
//! factor, where the knees are — are what these regenerate; see
//! `EXPERIMENTS.md` for the recorded paper-vs-measured comparison.

pub mod report;
pub mod scale;
pub mod setups;
pub mod workload;

pub mod experiments;

#[cfg(test)]
mod gates;

use report::Table;

/// Serializes the wall-clock gates (`cache_gate_zipf_*`, `fault_gate`,
/// `autotune_gate`): the test harness runs tests concurrently, and two
/// timing loops sharing the machine's cores would skew each other's
/// measurements into false failures. Each gate holds this lock while it
/// measures.
#[cfg(test)]
pub(crate) fn perf_gate_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Prints each table and writes it to `results/<name>_<index>.csv`.
pub fn emit(name: &str, tables: &[Table]) {
    for (i, t) in tables.iter().enumerate() {
        t.print();
        let path = format!("results/{name}_{i}.csv");
        if let Err(e) = t.write_csv(&path) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
}
