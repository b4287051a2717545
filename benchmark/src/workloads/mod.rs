//! The workloads. Each has a `run` (tracing off, end-to-end metrics) and
//! a `trace` (per-layer metrics, timed from here around calls into each
//! layer's public functions).

pub mod combine;
pub mod layers;
pub mod load;
pub mod offline;
pub mod serve;

use crate::fixtures::Size;
use crate::report::{Outcome, Value};
use crate::spec;
use std::time::Instant;

/// What the command line fixes for one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Seeds data, weights, request mix and unique-input indices.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    pub size: Size,
}

/// Set-ups per run: at least the first number, then more while they
/// have taken under a second in all, up to the second number. A set-up
/// of milliseconds needs the repeats for a steady median; one of most of
/// a second cannot afford them.
const SETUP_REPS: (usize, usize) = (5, 40);

/// Builds the workload's fixture several times, keeps the last and
/// records the median build time as `setup_s`.
pub fn timed_setup<T>(outcome: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_REPS.1);
    let mut fixture = None;
    while times.len() < SETUP_REPS.0
        || (times.len() < SETUP_REPS.1 && times.iter().sum::<f64>() < 1.0)
    {
        // The previous fixture goes first so that two never coexist: a
        // server's threads and a network's buffers would otherwise count
        // into the next set-up's time and into peak memory.
        drop(fixture.take());
        let started = Instant::now();
        fixture = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    outcome.set(
        spec::SETUP_S,
        Value::with_windows(crate::stats::median(&times), times.len() as u64, &times),
    );
    fixture.expect("at least one set-up ran")
}

/// Runs `name` with tracing off or on. `None` for an unknown name.
pub fn dispatch(name: &str, params: &Params, trace: bool) -> Option<Outcome> {
    use serve::Kind;
    let p = params;
    Some(match (name, trace) {
        (spec::COMBINE_LENET, false) => combine::run(p),
        (spec::COMBINE_LENET, true) => combine::trace(p),
        (spec::OFFLINE_RESNET, false) => offline::run(p, 1),
        (spec::OFFLINE_RESNET, true) => offline::trace_one_array(p),
        (spec::OFFLINE_RESNET_2SHARD, false) => offline::run(p, 2),
        (spec::OFFLINE_RESNET_2SHARD, true) => offline::trace_two_shards(p),
        (spec::SERVE_CLOSED, false) => serve::run(p, Kind::Closed),
        (spec::SERVE_CLOSED, true) => serve::trace_closed(p),
        (spec::SERVE_OPEN, false) => serve::run(p, Kind::Open),
        (spec::SERVE_OPEN, true) => serve::trace_open(p),
        (spec::SERVE_CACHE, false) => serve::run(p, Kind::Cache),
        (spec::SERVE_CACHE, true) => serve::trace_cache(p),
        _ => return None,
    })
}
