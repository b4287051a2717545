//! Autotune experiment: a phased load schedule (interactive trickle →
//! saturating burst → steady stream) driven against a grid of static
//! serving configurations and against the same server under the
//! self-tuning [`Controller`] — the load-shift story the control plane
//! exists for.
//!
//! Each static config is some operator's fixed guess: tuned for one
//! phase, wrong for the others. The controller starts from the same
//! middle-of-the-road posture, classifies each phase from live telemetry
//! deltas, and retunes the running server (pool size, batch knobs,
//! executor plan) guided by a [`ProfileStore`] filled by a short on-box
//! calibration sweep before serving. The claim gated in release CI
//! (`autotune_gate`): across the whole schedule the controller's
//! throughput is at least the best static config's, at a p99 no worse
//! than 1.05×, with no request failed — adaptivity beats every fixed
//! choice without buying throughput with tail latency.

use crate::report::{fnum, Table};
use crate::scale::Scale;
use crate::setups;
use cc_dataset::Dataset;
use cc_deploy::DeployedNetwork;
use cc_serve::{
    ControlConfig, Controller, ModelRegistry, Profile, ProfileStore, ServeConfig, Server,
    SubmitError,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One segment of the load schedule.
pub(crate) struct Phase {
    pub name: &'static str,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Requests this phase issues.
    pub total: usize,
    /// Per-request client think time (`None` = submit back-to-back):
    /// what separates a trickle from a flood at the same client count.
    pub pace: Option<Duration>,
}

/// The schedule every config runs: latency-sensitive trickle, then a
/// saturating burst, then a moderate steady stream. `n` is the burst
/// request count; the other phases scale from it.
pub(crate) fn schedule(n: usize) -> Vec<Phase> {
    vec![
        Phase {
            name: "interactive",
            clients: 2,
            total: (n / 8).max(32),
            pace: Some(Duration::from_micros(300)),
        },
        Phase { name: "burst", clients: 32, total: n, pace: None },
        Phase { name: "steady", clients: 8, total: (n / 2).max(64), pace: None },
    ]
}

/// What one phase measured, client side.
pub(crate) struct PhaseStats {
    pub name: &'static str,
    /// Requests issued.
    pub requests: usize,
    pub throughput_rps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// One config's trip through the whole schedule.
pub(crate) struct AutotuneRun {
    pub label: &'static str,
    pub phases: Vec<PhaseStats>,
    /// Total requests / total wall time across all phases.
    pub overall_rps: f64,
    /// p99 over every request of every phase.
    pub overall_p99_us: f64,
    /// Knob moves the server counted (0 for static configs).
    pub retunes: u64,
    /// Requests that resolved with an error, warm-up included. They add
    /// neither to throughput nor to the latency percentiles.
    pub failed: usize,
}

fn percentile_us(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx].as_secs_f64() * 1e6
}

/// What one phase's clients saw.
struct PhaseRun {
    /// Client-observed latency of every request served `Ok` (submit
    /// attempt → resolved ticket, so admission retries are billed to the
    /// request that suffered them).
    latencies: Vec<Duration>,
    /// Requests whose ticket resolved with an error.
    failed: usize,
    elapsed: Duration,
}

/// Drives one phase of closed-loop clients against `server`.
fn drive_phase(server: &Server, test: &Dataset, phase: &Phase) -> PhaseRun {
    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let latencies = Mutex::new(Vec::with_capacity(phase.total));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..phase.clients {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= phase.total {
                        break;
                    }
                    if let Some(pace) = phase.pace {
                        std::thread::sleep(pace);
                    }
                    let image = test.image(i % test.len()).clone();
                    let issued = Instant::now();
                    loop {
                        match server.submit("m", image.clone()) {
                            Ok(ticket) => {
                                match ticket.wait_result() {
                                    Ok(_) => local.push(issued.elapsed()),
                                    Err(_) => {
                                        failed.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                break;
                            }
                            Err(SubmitError::QueueFull) => {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => panic!("autotune submit failed: {e}"),
                        }
                    }
                }
                latencies.lock().expect("latency sink").extend(local);
            });
        }
    });
    PhaseRun {
        latencies: latencies.into_inner().expect("latency sink"),
        failed: failed.into_inner(),
        elapsed: started.elapsed(),
    }
}

/// Runs the whole schedule against `server`, labeling the result.
fn drive_schedule(
    server: &Server,
    test: &Dataset,
    phases: &[Phase],
    label: &'static str,
) -> AutotuneRun {
    // Unmeasured warm-up: a short trickle that pages in the weight
    // tiles, spins up the pool, and — under the controller — lets the
    // first classification land before the clock starts. Every config
    // gets the same grace, so the comparison stays fair; without it a
    // run's first phase would bill one-time startup to the schedule.
    let warmup =
        Phase { name: "warmup", clients: 2, total: 24, pace: Some(Duration::from_micros(300)) };
    let mut failed = drive_phase(server, test, &warmup).failed;

    let mut phase_stats = Vec::new();
    let mut all = Vec::new();
    let mut total_secs = 0.0f64;
    for phase in phases {
        let mut run = drive_phase(server, test, phase);
        run.latencies.sort_unstable();
        let secs = run.elapsed.as_secs_f64().max(1e-9);
        phase_stats.push(PhaseStats {
            name: phase.name,
            requests: phase.total,
            throughput_rps: run.latencies.len() as f64 / secs,
            p50_us: percentile_us(&run.latencies, 0.50),
            p99_us: percentile_us(&run.latencies, 0.99),
        });
        failed += run.failed;
        total_secs += secs;
        all.extend(run.latencies);
    }
    all.sort_unstable();
    AutotuneRun {
        label,
        phases: phase_stats,
        overall_rps: all.len() as f64 / total_secs.max(1e-9),
        overall_p99_us: percentile_us(&all, 0.99),
        retunes: server.telemetry().retunes,
        failed,
    }
}

/// One fixed configuration through the schedule.
pub(crate) fn run_static(
    net: &DeployedNetwork,
    test: &Dataset,
    phases: &[Phase],
    label: &'static str,
    workers: usize,
    max_batch: usize,
    deadline: Duration,
) -> AutotuneRun {
    let server = Server::start(
        ModelRegistry::new().with_model("m", net.clone()),
        ServeConfig::default()
            .with_workers(workers)
            .with_max_batch(max_batch)
            .with_batch_deadline(deadline)
            .with_queue_capacity(128),
    );
    let run = drive_schedule(&server, test, phases, label);
    drop(server);
    run
}

/// The controller's [`ControlConfig`] for the schedule: ticks fast
/// enough to re-classify within a phase, damped enough not to flap on a
/// single odd tick.
fn bench_control_config() -> ControlConfig {
    ControlConfig {
        interval: Duration::from_millis(1),
        hysteresis_ticks: 2,
        min_workers: 1,
        max_workers: 4,
        // Thresholds are on outstanding work (queued + in flight): the
        // 2-client trickle holds at most 2, the 8-client steady stream
        // ~8, the 32-client burst ~32. Saturation starts past steady.
        saturated_queue: 12,
        interactive_queue: 2,
        interactive_workers: 2,
        interactive_batch: 1,
        interactive_deadline: Duration::from_micros(50),
        saturated_batch: 16,
        saturated_deadline: Duration::from_millis(2),
        steady_batch: 4,
        steady_deadline: Duration::from_micros(500),
        // Online refinement at a 1 ms tick needs a wide pooling window
        // (one tick completes ~a dozen requests) and a fat dethroning
        // margin: calibration measures a config alone on the box while
        // online ticks measure it under 32 competing client threads, so
        // unrun challengers look ~1.5x rosier than the incumbent on
        // principle. Only a claim beyond that bias is worth acting on.
        refine_window_ticks: 8,
        refine_margin: 2.0,
        cooldown_ticks: 4,
        ..ControlConfig::default()
    }
}

/// The knob tuples the calibration sweep measures: the static grid's
/// own guesses plus the single-worker batched postures a static grid
/// never tries (on a small host, batch amortization of the per-batch
/// thread hand-offs is the real throughput lever).
const CALIBRATION_GRID: [(usize, usize); 6] = [(1, 1), (1, 4), (1, 8), (2, 4), (2, 8), (4, 16)];

/// Offline profiling on the box the controller will actually run on: a
/// short saturating burst against each calibration config, measured
/// client-side and recorded into the store. This is the "profile first,
/// then serve" step an operator of the static configs never gets.
pub(crate) fn calibrate(net: &DeployedNetwork, test: &Dataset, store: &mut ProfileStore) {
    let phase = Phase { name: "calibrate", clients: 8, total: 96, pace: None };
    for (workers, max_batch) in CALIBRATION_GRID {
        let server = Server::start(
            ModelRegistry::new().with_model("m", net.clone()),
            ServeConfig::default()
                .with_workers(workers)
                .with_max_batch(max_batch)
                .with_batch_deadline(Duration::from_millis(1))
                .with_queue_capacity(128),
        );
        let (stages, shards) = server.exec_plan();
        // Best-of-3 like the repo's other perf measurements: one unlucky
        // scheduler hiccup must not exile a good config from the store's
        // noise band (the first round doubles as the server's warm-up).
        let mut best: Option<Profile> = None;
        for _ in 0..3 {
            let mut run = drive_phase(&server, test, &phase);
            run.latencies.sort_unstable();
            let round = Profile {
                workers,
                max_batch,
                stages,
                shards,
                throughput_rps: run.latencies.len() as f64
                    / run.elapsed.as_secs_f64().max(1e-9),
                p99_us: percentile_us(&run.latencies, 0.99),
            };
            if best.as_ref().is_none_or(|b| round.throughput_rps > b.throughput_rps) {
                best = Some(round);
            }
        }
        let profile = best.expect("three calibration rounds ran");
        eprintln!(
            "calibrate ({workers}w, b{max_batch}): {:.0} rps, p99 {:.0} us",
            profile.throughput_rps, profile.p99_us
        );
        store.record(profile);
        drop(server);
    }
}

/// The same middle-of-the-road starting posture as the static-mid
/// config, but with a [`Controller`] attached. The warm-up trickle in
/// [`drive_schedule`] gives the controller its first classification
/// before measurement starts — exactly what a real deployment's first
/// seconds of traffic would.
pub(crate) fn run_controlled(
    net: &DeployedNetwork,
    test: &Dataset,
    phases: &[Phase],
    store: ProfileStore,
) -> AutotuneRun {
    let server = Arc::new(Server::start(
        ModelRegistry::new().with_model("m", net.clone()),
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(4)
            .with_batch_deadline(Duration::from_millis(1))
            .with_queue_capacity(128),
    ));
    let controller = Controller::attach(Arc::clone(&server), bench_control_config(), store);
    let run = drive_schedule(&server, test, phases, "controller");
    drop(controller.detach());
    run
}

/// Everything the release gate needs from one schedule comparison.
pub(crate) struct Comparison {
    pub runs: Vec<AutotuneRun>,
    pub best_static: usize,
    pub controller: usize,
}

impl Comparison {
    pub fn best_static_run(&self) -> &AutotuneRun {
        &self.runs[self.best_static]
    }
    pub fn controller_run(&self) -> &AutotuneRun {
        &self.runs[self.controller]
    }
}

/// Runs the full grid + controller over one schedule with a pre-built
/// profile store (calibrate once, then run the comparison as many rounds
/// as needed). Static order ends on the usual winner so the
/// controller's run is temporally adjacent to the config it is judged
/// against — the fairest pairing a drifting box allows.
pub(crate) fn compare(
    net: &DeployedNetwork,
    test: &Dataset,
    n: usize,
    store: ProfileStore,
) -> Comparison {
    let phases = schedule(n);
    let mut runs = vec![
        run_static(net, test, &phases, "static-tput", 4, 16, Duration::from_millis(3)),
        run_static(net, test, &phases, "static-mid", 2, 4, Duration::from_millis(1)),
        run_static(net, test, &phases, "static-lat", 1, 1, Duration::from_micros(50)),
    ];
    let best_static = runs
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.overall_rps.total_cmp(&b.overall_rps))
        .map(|(i, _)| i)
        .expect("static grid is non-empty");
    runs.push(run_controlled(net, test, &phases, store));
    let controller = runs.len() - 1;
    Comparison { runs, best_static, controller }
}

/// The phased comparison at bench scale, as printed tables.
pub fn run(scale: &Scale) -> Vec<Table> {
    let (packed, _, test) = setups::serving_networks(scale);
    let n = (scale.train_samples / 2).max(256);
    let mut store = ProfileStore::new();
    calibrate(&packed, &test, &mut store);
    let cmp = compare(&packed, &test, n, store);

    let mut table = Table::new(
        "Autotune: phased load (interactive -> burst -> steady), static grid vs controller",
        &["config", "phase", "clients", "requests", "throughput_rps", "p50_us", "p99_us"],
    );
    let phases = schedule(n);
    for run in &cmp.runs {
        for (phase, stats) in phases.iter().zip(&run.phases) {
            table.push_row(vec![
                run.label.into(),
                stats.name.into(),
                phase.clients.to_string(),
                stats.requests.to_string(),
                fnum(stats.throughput_rps, 1),
                fnum(stats.p50_us, 0),
                fnum(stats.p99_us, 0),
            ]);
        }
        table.push_row(vec![
            run.label.into(),
            "overall".into(),
            "-".into(),
            run.phases.iter().map(|p| p.requests).sum::<usize>().to_string(),
            fnum(run.overall_rps, 1),
            "-".into(),
            fnum(run.overall_p99_us, 0),
        ]);
    }

    let best = cmp.best_static_run();
    let ctl = cmp.controller_run();
    let mut verdict = Table::new("Autotune: controller vs best static", &["metric", "value"]);
    verdict.push_row(vec!["best static".into(), best.label.into()]);
    verdict.push_row(vec![
        "throughput ratio (controller / best static)".into(),
        fnum(ctl.overall_rps / best.overall_rps.max(1e-9), 3),
    ]);
    verdict.push_row(vec![
        "p99 ratio (controller / best static)".into(),
        fnum(ctl.overall_p99_us / best.overall_p99_us.max(1e-9), 3),
    ]);
    verdict.push_row(vec!["controller retunes".into(), ctl.retunes.to_string()]);
    verdict.push_row(vec![
        "failed requests (all runs)".into(),
        cmp.runs.iter().map(|run| run.failed).sum::<usize>().to_string(),
    ]);
    verdict
        .push_row(vec!["calibration sweep configs".into(), CALIBRATION_GRID.len().to_string()]);

    vec![table, verdict]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_deploy::identity_groups;
    use cc_serve::FaultPlan;

    /// The schedule helper keeps its phases distinct — the bench's
    /// regimes must actually differ or the comparison measures noise.
    #[test]
    fn schedule_phases_are_distinct() {
        let phases = schedule(256);
        assert_eq!(phases.len(), 3);
        assert!(phases[0].pace.is_some() && phases[1].pace.is_none());
        assert!(phases[1].clients > 4 * phases[0].clients);
        assert!(phases[1].total > phases[0].total);
    }

    /// A request whose ticket resolves with an error is a failure, not a
    /// served request with a (fast) latency: otherwise a config that
    /// fails requests would read as faster and lower-p99.
    #[test]
    fn drive_phase_counts_a_failed_request_as_a_failure() {
        let scale = Scale { train_samples: 32, test_samples: 8, ..Scale::quick() };
        let (train, test) = setups::mnist_setup(&scale, 5);
        let net = setups::lenet(&scale, 5);
        let server = Server::start(
            ModelRegistry::new()
                .with_model("m", DeployedNetwork::build(&net, &identity_groups(&net), &train)),
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(1)
                .with_faults(Arc::new(FaultPlan::seeded(3).panic_on_batch(0))),
        );
        let phase = Phase { name: "faulted", clients: 1, total: 4, pace: None };
        let run = drive_phase(&server, &test, &phase);
        assert_eq!(run.failed, 1, "the panicked batch's request must count as failed");
        assert_eq!(run.latencies.len(), 3, "only served requests carry a latency");
    }
}
