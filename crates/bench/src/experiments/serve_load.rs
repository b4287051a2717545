//! Serving load generator: drives `cc-serve` with closed- and open-loop
//! traffic, sweeping worker count × max batch size for the same network
//! deployed packed (column-combined) and unpacked (singleton groups).
//!
//! Closed-loop clients submit-and-wait, measuring saturation throughput;
//! the open-loop generator submits at a fixed offered rate regardless of
//! completions, exposing shedding and tail latency under overload. Beyond
//! the printed tables, results land machine-readable in
//! `results/bench_serve.json` so the repo's serving-performance trajectory
//! is trackable across PRs.

use crate::report::{fnum, JsonValue, Table};
use crate::scale::Scale;
use crate::setups;
use cc_dataset::Dataset;
use cc_deploy::{identity_groups, DeployedNetwork};
use cc_packing::ColumnCombiner;
use cc_serve::{
    CacheConfig, EventKind, FaultPlan, ModelRegistry, QosClass, ServeConfig, Server, SubmitError,
    SubmitOptions, TelemetrySnapshot, TraceConfig,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured serving configuration.
struct Measurement {
    model: &'static str,
    workers: usize,
    max_batch: usize,
    /// Per-worker pipeline stages (1 = serial execution).
    stages: usize,
    requests: usize,
    offered_rps: Option<f64>,
    stats: TelemetrySnapshot,
}

impl Measurement {
    fn as_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("model", JsonValue::from(self.model)),
            ("workers", JsonValue::from(self.workers)),
            ("max_batch", JsonValue::from(self.max_batch)),
            ("stages", JsonValue::from(self.stages)),
            ("requests", JsonValue::from(self.requests)),
            // The whole snapshot rides as one blob through the same
            // formatter the Prometheus exposition and trace demo use —
            // one schema for every consumer of serving metrics.
            ("stats", JsonValue::Raw(self.stats.to_json())),
        ];
        if let Some(rate) = self.offered_rps {
            pairs.push(("offered_rps", JsonValue::from(rate)));
        }
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// Trains one small network and deploys it twice: with its column-combined
/// groups and with singleton (unpacked) groups.
pub(crate) fn build_networks(scale: &Scale) -> (DeployedNetwork, DeployedNetwork, Dataset) {
    // Serve a conv-dominated network even at quick scale: on a tiny model
    // the fixed per-request cost (quantize, shift, pools, channel
    // hand-off) swamps the array time that packing actually saves.
    let scale = &Scale {
        image_hw: scale.image_hw.max(16),
        width_mult: scale.width_mult.max(1.0),
        ..*scale
    };
    let (train, test) = setups::mnist_setup(scale, 31);
    let mut net = setups::lenet(scale, 31);
    // Serving cares about the deployed artifact, not accuracy: a shortened
    // combining run keeps the load generator's setup time in check.
    let cfg = cc_packing::ColumnCombineConfig {
        epochs_per_iteration: 1,
        final_epochs: 1,
        max_iterations: 4,
        rho: net.nonzero_conv_weights() / 2,
        ..setups::combine_config(scale, &net, 0.5, 8, 0.5)
    };
    let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
    let packed = DeployedNetwork::build(&net, &groups, &train);
    let unpacked = DeployedNetwork::build(&net, &identity_groups(&net), &train);
    (packed, unpacked, test)
}

fn server_for(
    net: &DeployedNetwork,
    workers: usize,
    max_batch: usize,
    stages: usize,
    shards: usize,
) -> Server {
    Server::start(
        ModelRegistry::new().with_model("m", net.clone()),
        ServeConfig::default()
            .with_workers(workers)
            .with_max_batch(max_batch)
            .with_batch_deadline(Duration::from_millis(1))
            .with_queue_capacity(128)
            .with_pipeline_stages(stages)
            .with_shards(shards),
    )
}

/// Closed loop: `clients` threads submit-and-wait until `total` requests
/// complete; retried submissions make shedding invisible to the client, so
/// the snapshot measures saturation throughput. The client count is the
/// offered concurrency — configs being compared must use the same value,
/// or the comparison measures load, not the server.
#[allow(clippy::too_many_arguments)]
pub(crate) fn closed_loop(
    net: &DeployedNetwork,
    test: &Dataset,
    workers: usize,
    max_batch: usize,
    stages: usize,
    shards: usize,
    clients: usize,
    total: usize,
) -> TelemetrySnapshot {
    let cfg = ServeConfig::default()
        .with_workers(workers)
        .with_max_batch(max_batch)
        .with_batch_deadline(Duration::from_millis(1))
        .with_queue_capacity(128)
        .with_pipeline_stages(stages)
        .with_shards(shards);
    closed_loop_cfg(net, test, cfg, clients, total).1
}

/// [`closed_loop`] over an arbitrary [`ServeConfig`] — the trace-overhead
/// gate and `--trace` runs need knobs (tracing, cache) the positional
/// helper does not expose. Returns the Chrome-trace export captured
/// before shutdown (`None` unless the config allocated a recorder)
/// alongside the final telemetry.
pub(crate) fn closed_loop_cfg(
    net: &DeployedNetwork,
    test: &Dataset,
    cfg: ServeConfig,
    clients: usize,
    total: usize,
) -> (Option<String>, TelemetrySnapshot) {
    let server = Server::start(ModelRegistry::new().with_model("m", net.clone()), cfg);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let image = test.image(i % test.len()).clone();
                loop {
                    match server.submit("m", image.clone()) {
                        Ok(ticket) => {
                            ticket.wait();
                            break;
                        }
                        Err(SubmitError::QueueFull) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("closed-loop submit failed: {e}"),
                    }
                }
            });
        }
    });
    // Snapshot before rendering: the telemetry window runs to the moment
    // it is read, so serializing the trace first would bill its render
    // time to the traced config's throughput.
    let stats = server.telemetry();
    let chrome = server.chrome_trace();
    drop(server);
    (chrome, stats)
}

/// Open loop: submit at `offered_rps` regardless of completions; the
/// admission queue sheds what the workers cannot absorb.
fn open_loop(
    net: &DeployedNetwork,
    test: &Dataset,
    workers: usize,
    max_batch: usize,
    offered_rps: f64,
    total: usize,
) -> TelemetrySnapshot {
    let server = server_for(net, workers, max_batch, 1, 1);
    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let mut tickets = Vec::new();
    let mut due = Instant::now();
    for i in 0..total {
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        due += interval;
        if let Ok(ticket) = server.submit("m", test.image(i % test.len()).clone()) {
            tickets.push(ticket);
        }
    }
    for ticket in tickets {
        ticket.wait();
    }
    server.shutdown()
}

/// Runs the serving sweep and returns the printed tables; also writes
/// `results/bench_serve.json`.
pub fn run(scale: &Scale) -> Vec<Table> {
    let (packed, unpacked, test) = build_networks(scale);
    let requests = (scale.train_samples / 4).max(64);

    let mut closed = Table::new(
        "Serving: closed-loop sweep (workers x max_batch, packed vs unpacked)",
        &[
            "model", "workers", "max_batch", "requests", "throughput_rps", "occupancy",
            "p50_us", "p95_us", "p99_us",
        ],
    );
    let mut measurements = Vec::new();
    for &workers in &[1usize, 2, 4] {
        for &max_batch in &[1usize, 8] {
            for (model, net) in [("packed", &packed), ("unpacked", &unpacked)] {
                let clients = (workers * max_batch).clamp(2, 16);
                let stats = closed_loop(net, &test, workers, max_batch, 1, 1, clients, requests);
                closed.push_row(vec![
                    model.into(),
                    workers.to_string(),
                    max_batch.to_string(),
                    requests.to_string(),
                    fnum(stats.throughput_rps, 1),
                    fnum(stats.mean_batch_occupancy, 2),
                    fnum(stats.p50.as_secs_f64() * 1e6, 0),
                    fnum(stats.p95.as_secs_f64() * 1e6, 0),
                    fnum(stats.p99.as_secs_f64() * 1e6, 0),
                ]);
                measurements.push(Measurement {
                    model,
                    workers,
                    max_batch,
                    stages: 1,
                    requests,
                    offered_rps: None,
                    stats,
                });
            }
        }
    }

    // Stage-pipelined sweep: the same packed deployment with each worker
    // split into K cost-balanced layer stages, streaming batches through
    // the stages (the serving analogue of the array's inter-layer
    // wavefront). stages = 1 rows are the serial baseline at identical
    // worker/batch settings.
    let mut pipelined = Table::new(
        "Serving: stage-pipelined sweep (packed, stages x workers x max_batch)",
        &[
            "stages", "workers", "max_batch", "requests", "throughput_rps", "occupancy",
            "p50_us", "p99_us",
        ],
    );
    let mut pipeline_measurements = Vec::new();
    let swept_stages = [1usize, 2, 3];
    let deepest = *swept_stages.iter().max().expect("non-empty sweep");
    for &stages in &swept_stages {
        for &workers in &[1usize, 2] {
            for &max_batch in &[4usize, 8] {
                // Every row of a (workers, max_batch) group offers the
                // same concurrency — sized to saturate the deepest
                // pipeline — so a throughput delta is attributable to the
                // stage count, not to unequal load. Best-of-two per row
                // (identical methodology for every row) damps scheduler
                // noise.
                let clients = (workers * max_batch * deepest).clamp(2, 16 * deepest);
                let stats = (0..2)
                    .map(|_| {
                        closed_loop(&packed, &test, workers, max_batch, stages, 1, clients, requests)
                    })
                    .max_by(|a, b| a.throughput_rps.total_cmp(&b.throughput_rps))
                    .expect("two runs");
                pipelined.push_row(vec![
                    stages.to_string(),
                    workers.to_string(),
                    max_batch.to_string(),
                    requests.to_string(),
                    fnum(stats.throughput_rps, 1),
                    fnum(stats.mean_batch_occupancy, 2),
                    fnum(stats.p50.as_secs_f64() * 1e6, 0),
                    fnum(stats.p99.as_secs_f64() * 1e6, 0),
                ]);
                pipeline_measurements.push(Measurement {
                    model: "packed",
                    workers,
                    max_batch,
                    stages,
                    requests,
                    offered_rps: None,
                    stats,
                });
            }
        }
    }
    // Best multi-stage speedup over the serial baseline at matching
    // worker/batch settings — the headline the pipeline exists for.
    let pipeline_speedup_best = pipeline_measurements
        .iter()
        .filter(|m| m.stages > 1)
        .filter_map(|m| {
            pipeline_measurements
                .iter()
                .find(|b| b.stages == 1 && b.workers == m.workers && b.max_batch == m.max_batch)
                .map(|b| m.stats.throughput_rps / b.stats.throughput_rps.max(1e-9))
        })
        .fold(0.0f64, f64::max);

    // Open loop at half and 1.5x the packed saturation throughput of the
    // default config: uncongested tail latency vs overload shedding.
    let saturation = measurements
        .iter()
        .filter(|m| m.model == "packed" && m.workers == 4 && m.max_batch == 8)
        .map(|m| m.stats.throughput_rps)
        .next_back()
        .unwrap_or(100.0)
        .max(1.0);
    let mut open = Table::new(
        "Serving: open-loop offered load (packed, 4 workers, max_batch 8)",
        &["offered_rps", "achieved_rps", "shed", "p50_us", "p99_us"],
    );
    let mut open_measurements = Vec::new();
    for factor in [0.5, 1.5] {
        let offered = saturation * factor;
        let stats = open_loop(&packed, &test, 4, 8, offered, requests.min(256));
        open.push_row(vec![
            fnum(offered, 1),
            fnum(stats.throughput_rps, 1),
            stats.shed.to_string(),
            fnum(stats.p50.as_secs_f64() * 1e6, 0),
            fnum(stats.p99.as_secs_f64() * 1e6, 0),
        ]);
        open_measurements.push(Measurement {
            model: "packed",
            workers: 4,
            max_batch: 8,
            stages: 1,
            requests: requests.min(256),
            offered_rps: Some(offered),
            stats,
        });
    }

    let json = JsonValue::obj([
        ("experiment", JsonValue::from("serve_load")),
        ("scale", JsonValue::from(if *scale == Scale::full() { "full" } else { "quick" })),
        (
            "closed_loop",
            JsonValue::Arr(measurements.iter().map(Measurement::as_json).collect()),
        ),
        (
            "pipeline",
            JsonValue::Arr(pipeline_measurements.iter().map(Measurement::as_json).collect()),
        ),
        ("pipeline_speedup_best", JsonValue::from(pipeline_speedup_best)),
        (
            "open_loop",
            JsonValue::Arr(open_measurements.iter().map(Measurement::as_json).collect()),
        ),
    ]);
    if let Err(e) = crate::report::write_json("results/bench_serve.json", &json) {
        eprintln!("warning: could not write results/bench_serve.json: {e}");
    }

    vec![closed, pipelined, open]
}

/// `--trace` mode: one traced serving run with mixed QoS classes and the
/// memo-cache enabled, exported as Chrome trace-event JSON to
/// `results/trace_serve.json` (load it in Perfetto or `chrome://tracing`).
/// The returned table summarizes what the recorder captured.
pub fn run_trace(scale: &Scale) -> Vec<Table> {
    let (packed, _, test) = build_networks(scale);
    let requests = (scale.train_samples / 2).max(128);
    let server = Server::start(
        ModelRegistry::new().with_model("m", packed),
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(8)
            .with_batch_deadline(Duration::from_millis(1))
            .with_queue_capacity(128)
            .with_cache(CacheConfig::bounded(1024, 1 << 20))
            .with_trace(TraceConfig::on()),
    );

    // Mixed traffic so every lifecycle path shows up in the trace:
    // rotating QoS classes, repeated inputs (cache hits once the working
    // set wraps), and a sliver of tight deadlines (queue sheds).
    let classes = [QosClass::Interactive, QosClass::Standard, QosClass::Batch];
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    break;
                }
                // Quarter-sized working set: three of four submits repeat
                // an input the cache has already answered.
                let image = test.image(i % (test.len() / 4).max(1)).clone();
                let mut options = SubmitOptions::new().with_class(classes[i % classes.len()]);
                if i % 16 == 15 {
                    options = options.with_deadline(Duration::from_micros(50));
                }
                match server.submit_with("m", image, options) {
                    Ok(ticket) => {
                        let _ = ticket.wait_result();
                    }
                    Err(SubmitError::QueueFull | SubmitError::QuotaExceeded { .. }) => {}
                    Err(e) => panic!("trace-run submit failed: {e}"),
                }
            });
        }
    });

    let events = server.trace_events();
    let stats = server.trace_stats().expect("trace recorder is configured on");
    let traced = cc_serve::trace::summarize_requests(&events);
    let chrome = server.chrome_trace().expect("trace recorder is configured on");
    if let Err(e) = crate::report::write_json("results/trace_serve.json", &JsonValue::Raw(chrome))
    {
        eprintln!("warning: could not write results/trace_serve.json: {e}");
    }

    let mut table = Table::new("Serving: request-lifecycle trace capture", &["metric", "value"]);
    table.push_row(vec!["requests offered".into(), requests.to_string()]);
    table.push_row(vec!["requests in trace".into(), traced.len().to_string()]);
    table.push_row(vec![
        "cache hits in trace".into(),
        traced.iter().filter(|t| t.cache_hit).count().to_string(),
    ]);
    table.push_row(vec!["events recorded".into(), stats.recorded.to_string()]);
    table.push_row(vec!["events dropped".into(), stats.dropped.to_string()]);
    for kind in [
        EventKind::Submit,
        EventKind::CacheProbe,
        EventKind::Queue,
        EventKind::BatchForm,
        EventKind::Stage,
        EventKind::ShardRun,
        EventKind::Execute,
        EventKind::Resolve,
        EventKind::Fault,
        EventKind::Quarantine,
        EventKind::Retry,
    ] {
        let count = events.iter().filter(|e| e.kind == kind).count();
        table.push_row(vec![format!("{} events", kind.label()), count.to_string()]);
    }
    drop(server);
    vec![table]
}

/// What one chaos (or clean-reference) run observed, request by request.
pub(crate) struct ChaosOutcome {
    /// Final telemetry, taken by the graceful drain.
    pub stats: TelemetrySnapshot,
    /// Whether [`Server::shutdown_within`] finished inside its timeout.
    pub drained: bool,
    /// Requests the clients submitted (admission retries excluded).
    pub total: usize,
    /// Requests that resolved `Ok` with logits bit-identical to the
    /// serial unsharded reference.
    pub ok: usize,
    /// Requests that resolved with an error (`Faulted`/`WorkerPanicked`).
    pub failed: usize,
    /// Requests that resolved `Ok` but with wrong logits — must be zero:
    /// recovery may cost retries, never correctness.
    pub mismatched: usize,
    /// Tickets still unresolved after the bounded wait — must be zero:
    /// the no-hang invariant of the fault plane.
    pub hung: usize,
    /// Tail tickets submitted right before shutdown that still resolved.
    pub tail_resolved: usize,
    /// Tail tickets submitted right before shutdown (drain-under-load).
    pub tail: usize,
}

impl ChaosOutcome {
    /// Fraction of non-shed requests that completed with correct logits.
    pub fn availability(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.ok as f64 / self.total as f64
    }

    fn as_json(&self, mode: &str) -> JsonValue {
        JsonValue::Obj(
            [
                ("mode", JsonValue::from(mode)),
                ("total", JsonValue::from(self.total)),
                ("ok", JsonValue::from(self.ok)),
                ("failed", JsonValue::from(self.failed)),
                ("mismatched", JsonValue::from(self.mismatched)),
                ("hung", JsonValue::from(self.hung)),
                ("availability", JsonValue::from(self.availability())),
                ("drained", JsonValue::Bool(self.drained)),
                ("tail", JsonValue::from(self.tail)),
                ("tail_resolved", JsonValue::from(self.tail_resolved)),
                ("stats", JsonValue::Raw(self.stats.to_json())),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        )
    }
}

/// Chaos closed loop: `clients` threads drive `total` requests through a
/// 3-shard server carrying `faults` (or none, for the clean reference),
/// checking every response against the serial unsharded reference logits
/// and bounding every wait — a hang is counted, never blocked on. Ends
/// with a drain-under-load: a tail of unawaited submissions followed by
/// [`Server::shutdown_within`].
pub(crate) fn chaos_loop(
    net: &DeployedNetwork,
    test: &Dataset,
    faults: Option<Arc<FaultPlan>>,
    clients: usize,
    total: usize,
) -> ChaosOutcome {
    // The correctness oracle: serial, unsharded, fault-free execution.
    // Sharding and quarantine re-planning gather by row concatenation, so
    // every Ok response must match these logits bit for bit.
    let images: Vec<cc_tensor::Tensor> =
        (0..test.len()).map(|i| test.image(i).clone()).collect();
    let reference = net.run_batch(&images);

    let mut cfg = ServeConfig::default()
        .with_workers(2)
        .with_max_batch(8)
        .with_batch_deadline(Duration::from_millis(1))
        .with_queue_capacity(128)
        .with_pipeline_stages(1)
        .with_shards(3);
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let server = Server::start(ModelRegistry::new().with_model("m", net.clone()), cfg);

    let next = AtomicUsize::new(0);
    let (ok, failed, mismatched, hung) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let idx = i % test.len();
                let ticket = loop {
                    match server.submit("m", test.image(idx).clone()) {
                        Ok(t) => break t,
                        Err(SubmitError::QueueFull) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("chaos submit failed: {e}"),
                    }
                };
                // Generous bound: any genuine hang dwarfs it, while a
                // healthy or retrying batch resolves far inside it.
                match ticket.wait_timeout(Duration::from_secs(10)) {
                    Some(Ok(resp)) => {
                        if resp.logits == reference[idx] {
                            ok.fetch_add(1, Ordering::Relaxed);
                        } else {
                            mismatched.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Some(Err(_)) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        hung.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    // Drain under load: submissions still in flight when shutdown begins
    // must resolve (served or disconnected), never hang.
    let tail_tickets: Vec<_> = (0..16)
        .filter_map(|i| server.submit("m", test.image(i % test.len()).clone()).ok())
        .collect();
    let tail = tail_tickets.len();
    let report = server.shutdown_within(Duration::from_secs(10));
    let tail_resolved = tail_tickets
        .into_iter()
        .filter(|t| t.wait_timeout(Duration::from_secs(1)).is_some())
        .count();

    ChaosOutcome {
        stats: report.stats,
        drained: report.drained,
        total,
        ok: ok.into_inner(),
        failed: failed.into_inner(),
        mismatched: mismatched.into_inner(),
        hung: hung.into_inner(),
        tail_resolved,
        tail,
    }
}

/// The deterministic chaos schedule the `--chaos` run and the release
/// fault gate share: one of the three shard lanes dies mid-run, a second
/// suffers periodic stalls and poisoned bands, and one worker panics on a
/// chosen batch. Same seed, same failures, every run.
pub(crate) fn chaos_plan() -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::seeded(0xC0FF_EECA_FE00)
            .kill_lane_after(2, 40)
            .stall_every(64, 50)
            .poison_every(97)
            .panic_on_batch(5),
    )
}

/// `--chaos` mode: the same closed loop run clean and under the seeded
/// fault plan, reporting availability, recovery work, and drain health
/// side by side; also writes `results/bench_faults.json`.
pub fn run_chaos(scale: &Scale) -> Vec<Table> {
    let (packed, _, test) = build_networks(scale);
    let total = (scale.train_samples * 4).max(600);
    let clean = chaos_loop(&packed, &test, None, 8, total);
    let chaos = chaos_loop(&packed, &test, Some(chaos_plan()), 8, total);

    let mut table = Table::new(
        "Serving under chaos: 1 of 3 shards killed + stalls + poison + worker panic",
        &["metric", "clean", "chaos"],
    );
    let mut row = |name: &str, a: String, b: String| table.push_row(vec![name.into(), a, b]);
    row("requests", clean.total.to_string(), chaos.total.to_string());
    row("ok (bit-identical)", clean.ok.to_string(), chaos.ok.to_string());
    row("failed", clean.failed.to_string(), chaos.failed.to_string());
    row("mismatched", clean.mismatched.to_string(), chaos.mismatched.to_string());
    row("hung", clean.hung.to_string(), chaos.hung.to_string());
    row(
        "availability",
        format!("{:.4}", clean.availability()),
        format!("{:.4}", chaos.availability()),
    );
    row(
        "band faults / retries",
        format!("{} / {}", clean.stats.band_faults, clean.stats.band_retries),
        format!("{} / {}", chaos.stats.band_faults, chaos.stats.band_retries),
    );
    row(
        "worker panics",
        clean.stats.worker_panics.to_string(),
        chaos.stats.worker_panics.to_string(),
    );
    row(
        "shards quarantined (final)",
        clean.stats.shards_quarantined.to_string(),
        chaos.stats.shards_quarantined.to_string(),
    );
    row(
        "p99 latency",
        fnum(clean.stats.p99.as_secs_f64() * 1e6, 1) + " µs",
        fnum(chaos.stats.p99.as_secs_f64() * 1e6, 1) + " µs",
    );
    row(
        "drained cleanly",
        format!("{} ({}/{} tail)", clean.drained, clean.tail_resolved, clean.tail),
        format!("{} ({}/{} tail)", chaos.drained, chaos.tail_resolved, chaos.tail),
    );

    let json = JsonValue::Obj(vec![(
        "runs".to_string(),
        JsonValue::Arr(vec![clean.as_json("clean"), chaos.as_json("chaos")]),
    )]);
    if let Err(e) = crate::report::write_json("results/bench_faults.json", &json) {
        eprintln!("warning: could not write results/bench_faults.json: {e}");
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline claims the load generator exists to demonstrate.
    ///
    /// The seed asserted packed serving beats unpacked on *host wall
    /// clock* — true then only because the indexed kernel spent host time
    /// on every occupied array cell, zeros included. The op-list kernel
    /// sweeps nonzero weights only for both deployments, so host time now
    /// tracks MAC count and the wall-clock gap collapses to packing's
    /// conflict-pruned weights and fewer tiles (small, noise-prone). The
    /// paper's claim lives where the hardware lives: packed must cost
    /// strictly fewer *simulated cycles*, and serving it must not be
    /// meaningfully slower in wall clock.
    #[test]
    fn packed_serving_outperforms_unpacked() {
        use cc_deploy::DeployedLayer;
        use cc_systolic::RunScratch;
        use cc_tensor::quant::{QuantMatrix, QuantParams};

        // A wall-clock comparison only has a trustworthy margin with
        // optimized code; debug-profile timing skew could flip it. CI runs
        // this test again in a release step.
        if cfg!(debug_assertions) {
            eprintln!("skipping wall-clock serving comparison in debug build");
            return;
        }
        let _exclusive = crate::perf_gate_lock();
        // Full-width network on 16x16 images so the packed-vs-unpacked
        // conv cost dominates per-request overheads.
        let scale = Scale {
            train_samples: 64,
            test_samples: 16,
            image_hw: 16,
            width_mult: 1.0,
            ..Scale::quick()
        };
        let (packed, unpacked, test) = build_networks(&scale);

        // Simulated hardware: summed array cycles of every conv layer,
        // packed vs unpacked, at a common stream length. This is the
        // column-combining win — fewer occupied columns, fewer tiles.
        let sim_cycles = |net: &DeployedNetwork| {
            let sched = net.scheduler();
            let mut scratch = RunScratch::new();
            let mut total = 0u64;
            for layer in net.layers() {
                if let DeployedLayer::PackedConv { tiles, .. } = layer {
                    let d = QuantMatrix::from_raw(
                        tiles.original_cols(),
                        16,
                        vec![1i8; tiles.original_cols() * 16],
                        QuantParams::from_max_abs(1.0),
                    );
                    total += sched.run_prepared_with(tiles, &d, &mut scratch).cycles;
                }
            }
            total
        };
        let packed_cycles = sim_cycles(&packed);
        let unpacked_cycles = sim_cycles(&unpacked);
        assert!(
            packed_cycles < unpacked_cycles,
            "packed deployment must cost fewer simulated cycles: {packed_cycles} vs {unpacked_cycles}"
        );

        // Host wall clock: best of three runs per deployment (scheduler
        // noise on a busy CI box exceeds the thin MAC-count margin), and a
        // no-regression bound rather than strict dominance — packed must
        // serve at least ~90% of unpacked throughput. Each run measures
        // 3072 requests (at 48 the whole measurement was a ~2 ms window,
        // short enough for one scheduler hiccup to decide it; at 384 it
        // still was), and the two deployments take turns, so a box that
        // speeds up or slows down over the test moves both sides alike.
        let run = |net: &DeployedNetwork| {
            let stats = closed_loop(net, &test, 2, 8, 1, 1, 16, 3072);
            assert_eq!(stats.completed, 3072);
            stats.throughput_rps
        };
        let (mut packed_rps, mut unpacked_rps) = (0.0f64, 0.0f64);
        for _ in 0..3 {
            packed_rps = packed_rps.max(run(&packed));
            unpacked_rps = unpacked_rps.max(run(&unpacked));
        }
        assert!(
            packed_rps > 0.9 * unpacked_rps,
            "packed serving fell behind unpacked wall clock: {packed_rps:.1} vs {unpacked_rps:.1} rps"
        );
    }

    /// Tracing-overhead gate. Three recorder states, identical load:
    /// no recorder at all ([`TraceConfig::none`]), recorder allocated but
    /// disabled (the default — every record site is one atomic load), and
    /// recorder on. Disabled tracing must sit within scheduler noise of
    /// the no-recorder baseline, and enabled tracing must keep at least
    /// 95% of disabled throughput — the "<5% when on" budget the trace
    /// subsystem was designed to.
    #[test]
    fn trace_gate() {
        if cfg!(debug_assertions) {
            eprintln!("skipping wall-clock tracing-overhead gate in debug build");
            return;
        }
        let _exclusive = crate::perf_gate_lock();
        let scale = Scale {
            train_samples: 64,
            test_samples: 16,
            image_hw: 16,
            width_mult: 1.0,
            ..Scale::quick()
        };
        let (packed, _, test) = build_networks(&scale);
        // Long enough that per-request work dominates thread start/stop
        // noise: at ~10k rps, 256 requests is a ~25 ms measured window.
        let total = 256;
        let run_once = |trace: TraceConfig| {
            let cfg = ServeConfig::default()
                .with_workers(2)
                .with_max_batch(8)
                .with_batch_deadline(Duration::from_millis(1))
                .with_queue_capacity(128)
                .with_trace(trace);
            let (_, stats) = closed_loop_cfg(&packed, &test, cfg, 16, total);
            assert_eq!(stats.completed, total as u64);
            stats.throughput_rps
        };
        // Interleave the configs across rounds and keep each one's best:
        // a slow phase of the host (frequency dip, noisy neighbor) then
        // hits all three alike instead of biasing whichever config ran
        // during it.
        // Maxima only sharpen with more rounds, so stop as soon as the
        // bounds hold; on this noisy single-box measurement (±10% per
        // round) a fixed small round count would trip on unlucky maxima.
        let (mut none, mut off, mut on) = (0.0f64, 0.0f64, 0.0f64);
        for round in 0..8 {
            none = none.max(run_once(TraceConfig::none()));
            off = off.max(run_once(TraceConfig::off()));
            on = on.max(run_once(TraceConfig::on()));
            eprintln!("trace_gate round {round}: none={none:.0} off={off:.0} on={on:.0} rps");
            if off > 0.90 * none && on > 0.95 * off {
                break;
            }
        }
        assert!(
            off > 0.90 * none,
            "disabled tracing regressed the no-recorder baseline: {off:.1} vs {none:.1} rps"
        );
        assert!(
            on > 0.95 * off,
            "enabled tracing cost more than its 5% budget: {on:.1} vs {off:.1} rps"
        );
    }

    /// Release fault gate: the seeded chaos plan (one of three shard
    /// lanes killed mid-run, periodic stalls and poisoned bands, one
    /// injected worker panic) must cost availability at most the panic's
    /// own batch — ≥ 99% of non-shed requests complete, every completion
    /// bit-identical to the serial unsharded reference, zero tickets
    /// hang (every wait is bounded), and the server drains cleanly with
    /// work still in flight.
    #[test]
    fn fault_gate() {
        if cfg!(debug_assertions) {
            eprintln!("skipping serving fault gate in debug build");
            return;
        }
        let _exclusive = crate::perf_gate_lock();
        let scale = Scale {
            train_samples: 64,
            test_samples: 16,
            image_hw: 16,
            width_mult: 1.0,
            ..Scale::quick()
        };
        let (packed, _, test) = build_networks(&scale);
        let total = 1000;

        // Clean reference: same server shape, no plan — everything
        // completes, nothing faults, and the drain is clean.
        let clean = chaos_loop(&packed, &test, None, 8, total);
        assert_eq!(clean.ok, total, "clean run must complete every request bit-identically");
        assert_eq!(clean.failed + clean.mismatched + clean.hung, 0);
        assert_eq!(clean.stats.band_faults, 0);
        assert_eq!(clean.stats.worker_panics, 0);
        assert!(clean.drained, "clean shutdown must finish inside its timeout");

        let chaos = chaos_loop(&packed, &test, Some(chaos_plan()), 8, total);
        assert_eq!(chaos.hung, 0, "no ticket may ever hang under chaos");
        assert_eq!(
            chaos.mismatched, 0,
            "post-quarantine outputs must stay bit-identical to the unsharded reference"
        );
        assert!(
            chaos.availability() >= 0.99,
            "availability under chaos fell below 99%: {}/{} ok ({} failed)",
            chaos.ok,
            chaos.total,
            chaos.failed
        );
        assert!(chaos.stats.band_faults > 0, "the plan must actually inject band faults");
        assert!(chaos.stats.band_retries > 0, "recovery must go through the retry path");
        assert!(chaos.stats.worker_panics >= 1, "the injected worker panic must be caught");
        assert!(chaos.drained, "chaos shutdown must still drain inside its timeout");
        assert_eq!(
            chaos.tail_resolved, chaos.tail,
            "every in-flight ticket must resolve through the drain"
        );
    }
}
