//! `serve_closed`, `serve_open`, `serve_cache`: the paper-geometry LeNet
//! behind `cc_serve::Server`. The load shape is fixed whatever the
//! machine: one submitting thread, two workers, batches of at most eight,
//! a 1 ms batch deadline.

use super::load::{closed_loop, open_loop, Mix, Source, Tally, MODEL, WAIT_LIMIT};
use super::{layers, timed_setup, Params};
use crate::fixtures::{self, BATCH};
use crate::inputs::{Rng, Zipf, UNIQUE_INDICES};
use crate::report::{peak_rss_mib, Outcome, Value};
use crate::spec;
use crate::stats::{self, phase_stats, PhaseStats};
use cc_deploy::{ActivationScratch, DeployedNetwork};
use cc_serve::trace::summarize_requests;
use cc_serve::{CacheConfig, ModelRegistry, ServeConfig, Server, TelemetrySnapshot, TraceConfig};
use cc_tensor::Tensor;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const BATCH_DEADLINE: Duration = Duration::from_millis(1);

/// Requests a closed-loop client keeps outstanding.
const CLOSED_WINDOW: usize = 16;
const CACHE_WINDOW: usize = 32;

/// Sized so that nothing is ever evicted: see README on the stale-flight
/// race a smaller cache can hit.
const CACHE_ENTRIES: usize = 131_072;
const CACHE_BYTES: usize = 256 << 20;

/// Latency limit of the open-loop rate ladder, on p90.
const OPEN_P90_LIMIT_US: f64 = 5_000.0;

/// Events the traced runs keep; each request leaves about six.
const TRACE_CAPACITY: usize = 1 << 17;

/// Never-seen inputs whose digests set-up checks against the catalog's.
const DIGEST_SAMPLE: u64 = 2048;

/// Which of the three serving workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Closed,
    Open,
    Cache,
}

struct Fixture {
    deployed: DeployedNetwork,
    server: Server,
    catalog: Vec<Tensor>,
}

fn config(kind: Kind, trace: TraceConfig, stages: usize) -> ServeConfig {
    let base = ServeConfig::default()
        .with_workers(WORKERS)
        .with_max_batch(BATCH)
        .with_batch_deadline(BATCH_DEADLINE)
        .with_pipeline_stages(stages)
        .with_trace(trace);
    match kind {
        Kind::Closed => base,
        // Deep enough that a machine stall queues requests instead of
        // shedding them: a shed request has no latency to report.
        Kind::Open => base.with_queue_capacity(4096),
        Kind::Cache => base.with_cache(CacheConfig::bounded(CACHE_ENTRIES, CACHE_BYTES)),
    }
}

fn setup(p: &Params, kind: Kind, trace: TraceConfig, stages: usize) -> Fixture {
    let (deployed, held_out) = fixtures::serving_lenet(&p.size, p.seed);
    let catalog = fixtures::images(&held_out, 0, p.size.catalog);
    let server = Server::start(
        ModelRegistry::new().with_model(MODEL, deployed.clone()),
        config(kind, trace, stages),
    );
    // Warm-up, part of set-up: enough requests that every worker has
    // sized its scratch. They are never-seen inputs from the top of the
    // index space, so the cache meets none of them again.
    let scale = deployed.input_scale();
    let tickets: Vec<_> = (0..(4 * WORKERS * BATCH) as u64)
        .map(|k| {
            let image = crate::inputs::unique_image(&catalog[0], UNIQUE_INDICES - 1 - k, scale);
            server
                .submit(MODEL, image)
                .expect("warm-up request admitted")
        })
        .collect();
    for ticket in tickets {
        ticket
            .wait_timeout(WAIT_LIMIT)
            .expect("warm-up request hung")
            .expect("warm-up served");
    }
    Fixture {
        deployed,
        server,
        catalog,
    }
}

/// The request source for `fx`: reference logits of the whole catalog,
/// computed serially here, outside set-up time and the timed phase.
fn source(p: &Params, kind: Kind, fx: &Fixture, out: &mut Outcome) -> Source {
    let reference = Arc::new(
        fx.catalog
            .iter()
            .map(|image| fx.deployed.logits(image))
            .collect(),
    );
    let mix = match kind {
        Kind::Cache => Mix::ZipfAndUnique(Zipf::new(fx.catalog.len(), 1.0)),
        Kind::Closed | Kind::Open => Mix::Uniform,
    };
    let source = Source {
        catalog: fx.catalog.clone(),
        reference,
        input_scale: fx.deployed.input_scale(),
        mix,
        rng: Rng::new(p.seed ^ 0x7265_7175),
        next_unique: 0,
    };
    if kind == Kind::Cache {
        let mut digests = HashSet::new();
        let distinct = fx
            .catalog
            .iter()
            .cloned()
            .chain((0..DIGEST_SAMPLE).map(|i| source.unique(i)))
            .all(|image| digests.insert(fx.deployed.quantize_input(&image).digest()));
        if !distinct {
            out.fail(1, "two inputs meant to differ share a quantized digest");
        }
    }
    source
}

/// Folds a load phase into the outcome: counts, failures, the three
/// timing metrics. Returns the phase statistics.
fn settle(out: &mut Outcome, tally: &Tally) -> PhaseStats {
    out.attempted += tally.attempted;
    out.fail(tally.shed, "requests shed at admission");
    out.fail(tally.errors, "tickets resolved with an error");
    out.fail(tally.hung, "tickets unresolved after the wait limit");
    out.fail(
        tally.mismatch,
        "responses whose logits differ from the serial reference",
    );
    phase_stats(&tally.done, 1.0)
}

fn drive(
    p: &Params,
    kind: Kind,
    fx: &Fixture,
    source: &mut Source,
    seconds: f64,
    time_submit: bool,
) -> Tally {
    let mut tally = match kind {
        Kind::Closed => closed_loop(&fx.server, source, CLOSED_WINDOW, seconds, time_submit),
        Kind::Cache => closed_loop(&fx.server, source, CACHE_WINDOW, seconds, time_submit),
        Kind::Open => open_loop(
            &fx.server,
            source,
            p.size.open_rates[0],
            seconds,
            time_submit,
        ),
    };
    tally.check_kept(&fx.deployed, source);
    tally
}

/// The timed run, tracing off.
pub fn run(p: &Params, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let fx = timed_setup(&mut out, || setup(p, kind, TraceConfig::none(), 1));
    let mut source = source(p, kind, &fx, &mut out);
    let tally = drive(p, kind, &fx, &mut source, p.seconds, false);
    let phase = settle(&mut out, &tally);
    out.set_phase(&phase);
    if kind == Kind::Open {
        // The schedule sets the rate, not the server: served over elapsed
        // says whether it kept up, where a slice's rate is a burst's.
        out.set(spec::IMG_PER_S, Value::new(phase.mean_rate, phase.samples));
    }
    let evictions = fx.server.telemetry().cache.evictions;
    out.fail(
        evictions,
        "cache entries evicted: the cache must hold the whole working set",
    );
    out.set_accuracy_from_checks();
    let figures = fixtures::array_figures(&fx.deployed, &fx.catalog[..BATCH.min(fx.catalog.len())]);
    layers::set_array_figures(&mut out, &figures);
    // At a fixed request count where the phase got that far: see RSS_MARK.
    out.set(
        spec::PEAK_RSS_MB,
        Value::exact(tally.rss_at_mark.unwrap_or_else(peak_rss_mib)),
    );
    out
}

fn p50(values: &[f64]) -> (f64, u64) {
    (stats::median(values), values.len() as u64)
}

fn set_p50(out: &mut Outcome, name: &'static str, values: &[f64]) {
    let (value, n) = p50(values);
    out.set(name, Value::new(value, n));
}

/// Busy seconds of stage slot 0 (the serial workers) in a snapshot.
fn busy_s(snapshot: &TelemetrySnapshot) -> f64 {
    snapshot.stage_busy.first().copied().unwrap_or(0.0) * snapshot.elapsed.as_secs_f64()
}

/// The per-layer serving metrics of one traced phase: the generator's own
/// spans, the server's trace reduced per request, and telemetry deltas
/// over the phase.
fn set_traced(
    out: &mut Outcome,
    fx: &Fixture,
    tally: &Tally,
    phase: &PhaseStats,
    before: &TelemetrySnapshot,
) {
    let after = fx.server.telemetry();
    let batches = after.batches - before.batches;
    let batched = after.mean_batch_occupancy * after.batches as f64
        - before.mean_batch_occupancy * before.batches as f64;
    out.set("serve.batches", Value::exact(batches as f64));
    out.set(
        "serve.batch_occupancy",
        Value::new(batched / batches.max(1) as f64, batches),
    );
    // Over the time this server was driven, which a phase made of turns
    // knows better than the server's own clock does.
    let driven_s = tally.done.last().map_or(f64::MIN_POSITIVE, |c| c.at_s);
    out.set(
        "serve.worker_busy",
        Value::new(
            (busy_s(&after) - busy_s(before)) / driven_s / WORKERS as f64,
            batches,
        ),
    );
    set_p50(out, "serve.submit_us_p50", &tally.submit_us);

    let requests = summarize_requests(&fx.server.trace_events());
    // The two spans tile a batched request's submit-to-resolve time, so
    // there is no residual to report beside them.
    let (mut queue, mut execute) = (Vec::new(), Vec::new());
    for r in &requests {
        if let (Some((_, q)), Some((_, e))) = (r.queue, r.execute) {
            queue.push(q as f64 / 1e3);
            execute.push(e as f64 / 1e3);
        }
    }
    set_p50(out, "serve.queue_us_p50", &queue);
    set_p50(out, "serve.execute_us_p50", &execute);

    out.set(
        "serve.latency.p99_us",
        Value::new(phase.p99_us, phase.samples),
    );
    out.set(
        "serve.latency.p999_us",
        Value::new(phase.p999_us, phase.samples),
    );
    out.set("serve.shed", Value::exact(tally.shed as f64));
    out.set("serve.hung", Value::exact(tally.hung as f64));
    out.set("serve.mismatch", Value::exact(tally.mismatch as f64));
    out.notes.push(format!(
        "traced phase: {:.0} req/s, p50 {:.0} us; batched requests: queue {:.0} us + execute {:.0} us (medians of the {} the trace ring still held; submit call {:.1} us)",
        phase.mean_rate,
        phase.p50_us,
        p50(&queue).0,
        p50(&execute).0,
        queue.len(),
        p50(&tally.submit_us).0,
    ));
}

/// One traced phase on a fresh traced server of `kind`.
fn traced_phase(
    p: &Params,
    kind: Kind,
    seconds: f64,
    out: &mut Outcome,
) -> (Fixture, Tally, PhaseStats) {
    let trace = TraceConfig::on().with_capacity(TRACE_CAPACITY);
    let fx = setup(p, kind, trace, 1);
    let mut source = source(p, kind, &fx, out);
    let before = fx.server.telemetry();
    let tally = drive(p, kind, &fx, &mut source, seconds, true);
    let phase = settle(out, &tally);
    set_traced(out, &fx, &tally, &phase, &before);
    (fx, tally, phase)
}

/// The same network with no server around it: [`WORKERS`] threads each
/// looping `run_batch_scratch` on batches of eight. Images per second.
fn bare_rate(fx: &Fixture, seconds: f64) -> f64 {
    let started = Instant::now();
    let images: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    let sched = fx.deployed.scheduler();
                    let mut scratch = ActivationScratch::new();
                    let mut done = 0u64;
                    // Each thread its own batches of the catalog, in turn.
                    let mut batches = fx
                        .catalog
                        .chunks_exact(BATCH)
                        .skip(w)
                        .step_by(WORKERS)
                        .cycle();
                    while started.elapsed().as_secs_f64() < seconds {
                        let batch = batches
                            .next()
                            .expect("the catalog holds a batch per worker");
                        std::hint::black_box(fx.deployed.run_batch_scratch(
                            &sched,
                            batch,
                            &mut scratch,
                        ));
                        done += BATCH as u64;
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("bare worker panicked"))
            .sum()
    });
    images as f64 / started.elapsed().as_secs_f64()
}

/// Rounds the four closed-loop variants of `trace_closed` take turns for.
/// The box has slow spells that last seconds; turns of a fraction of a
/// second put every variant inside each spell, and the median over
/// rounds drops it.
const ROUNDS: usize = 6;

/// Untraced and traced closed loops (their difference is the tracing
/// overhead), the bare loop (the serving tax) and the two-stage pipeline,
/// interleaved; then the LeNet's own layer attribution.
pub fn trace_closed(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let turn = p.seconds * 0.8 / (4 * ROUNDS) as f64;
    let traced = setup(
        p,
        Kind::Closed,
        TraceConfig::on().with_capacity(TRACE_CAPACITY),
        1,
    );
    let variants = [
        setup(p, Kind::Closed, TraceConfig::none(), 1),
        setup(p, Kind::Closed, TraceConfig::none(), 2),
    ];
    let mut traced_source = source(p, Kind::Closed, &traced, &mut out);
    let mut sources = variants
        .each_ref()
        .map(|fx| source(p, Kind::Closed, fx, &mut out));
    let before = traced.server.telemetry();

    let mut traced_tally = Tally::default();
    let mut rates: [Vec<f64>; 4] = Default::default();
    for _ in 0..ROUNDS {
        for (slot, (fx, source)) in variants.iter().zip(&mut sources).enumerate() {
            let tally = drive(p, Kind::Closed, fx, source, turn, false);
            rates[slot].push(settle(&mut out, &tally).mean_rate);
        }
        let tally = drive(p, Kind::Closed, &traced, &mut traced_source, turn, true);
        rates[2].push(phase_stats(&tally.done, 1.0).mean_rate);
        traced_tally.append(tally);
        rates[3].push(bare_rate(&traced, turn));
    }
    let [untraced, two_stage, traced_rate, bare] = rates.each_ref().map(|r| stats::median(r));
    let phase = settle(&mut out, &traced_tally);
    set_traced(&mut out, &traced, &traced_tally, &phase, &before);

    let rounds = ROUNDS as u64;
    out.set("serve.bare_rps", Value::new(bare, rounds));
    out.set("serve.bare_ratio", Value::new(untraced / bare, rounds));
    out.set("serve.pipeline.rps_2stage", Value::new(two_stage, rounds));
    out.set(
        "serve.trace_overhead_share",
        Value::new(1.0 - traced_rate / untraced, rounds),
    );
    out.notes.push(format!(
        "closed loop, medians of {ROUNDS} interleaved rounds: {untraced:.0} req/s untraced, {traced_rate:.0} traced, {bare:.0} img/s bare on {WORKERS} threads, {two_stage:.0} req/s with 2 pipeline stages"
    ));
    layers::attribute(
        &mut out,
        &traced.deployed,
        &traced.catalog[..BATCH.min(traced.catalog.len())],
        p.seconds * 0.2,
        false,
        p.seed,
    );
    out
}

/// The traced base rate, then the two higher rungs of the rate ladder.
pub fn trace_open(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let [base, r2, r3] = p.size.open_rates;
    let (fx, tally, phase) = traced_phase(p, Kind::Open, p.seconds * 0.4, &mut out);
    let mut late = tally.gen_late_us.clone();
    stats::sort(&mut late);
    out.set(
        "serve.open.gen_late_us_p99",
        Value::new(
            stats::percentile(&late, 0.99).unwrap_or(0.0),
            late.len() as u64,
        ),
    );
    let ok = |phase: &PhaseStats, tally: &Tally, fx: &Fixture| {
        phase.p90_us <= OPEN_P90_LIMIT_US
            && tally.failed() == 0
            && fx.server.telemetry().queue_depth == 0
    };
    let mut max_ok = if ok(&phase, &tally, &fx) { base } else { 0.0 };
    drop(fx);
    let rungs: [(f64, &'static str, &'static str); 2] = [
        (r2, "serve.open.p50_us_r5000", "serve.open.p90_us_r5000"),
        (r3, "serve.open.p50_us_r7500", "serve.open.p90_us_r7500"),
    ];
    for (rate, p50_name, p90_name) in rungs {
        let fx = setup(p, Kind::Open, TraceConfig::none(), 1);
        let mut source = source(p, Kind::Open, &fx, &mut out);
        let mut tally = open_loop(&fx.server, &mut source, rate, p.seconds * 0.3, false);
        tally.check_kept(&fx.deployed, &source);
        // A rung may overload the server: its failures are the finding,
        // not a fault of the run, so they are not counted as failed.
        let phase = phase_stats(&tally.done, 1.0);
        out.set(p50_name, Value::new(phase.p50_us, phase.samples));
        out.set(p90_name, Value::new(phase.p90_us, phase.samples));
        if ok(&phase, &tally, &fx) && max_ok > 0.0 {
            max_ok = rate;
        }
        out.notes.push(format!(
            "open loop at {rate:.0} req/s: served {:.0}/s p50 {:.0} us p90 {:.0} us, {} failed of {}, queue depth {} at the end",
            phase.mean_rate,
            phase.p50_us,
            phase.p90_us,
            tally.failed(),
            tally.attempted,
            fx.server.telemetry().queue_depth,
        ));
    }
    out.set("serve.open.max_rate_ok", Value::exact(max_ok));
    out
}

/// The traced cache workload: where hits and misses spend their time.
pub fn trace_cache(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let (fx, tally, _) = traced_phase(p, Kind::Cache, p.seconds, &mut out);
    let by_hit = |want: bool| -> Vec<f64> {
        tally
            .done
            .iter()
            .zip(&tally.hit)
            .filter(|(_, &h)| h == want)
            .map(|(c, _)| c.latency_us)
            .collect()
    };
    let (hits, misses) = (by_hit(true), by_hit(false));
    let cache = fx.server.telemetry().cache;
    out.set(
        "serve.cache.hit_share",
        Value::new(
            hits.len() as f64 / tally.done.len().max(1) as f64,
            tally.done.len() as u64,
        ),
    );
    set_p50(&mut out, "serve.cache.hit_us_p50", &hits);
    set_p50(&mut out, "serve.cache.miss_us_p50", &misses);
    out.set(
        "serve.cache.coalesced",
        Value::exact(cache.coalesced_hits as f64),
    );
    out.set(
        "serve.cache.evictions",
        Value::exact(cache.evictions as f64),
    );
    out.set("serve.cache.entries", Value::exact(cache.entries as f64));
    out.fail(cache.evictions, "cache entries evicted");
    out
}
