//! Response memo-cache benchmark: Zipf-distributed closed-loop traffic
//! through `cc-serve` with the cache on vs off, sweeping the skew
//! exponent `s`.
//!
//! Real inference traffic repeats itself — popularity is heavy-tailed —
//! and the memo-cache converts every repeat into a table lookup instead
//! of an array pass. At `s = 0` (uniform over the working set) the cache
//! still hits once the working set is resident; as `s` grows, the hot
//! head dominates and the win compounds. Results land machine-readable in
//! `results/bench_cache.json`; CI gates that cache-on beats cache-off at
//! `s = 1.0` and that overload sheds already-blown work first.

use crate::report::{fnum, JsonValue, Table};
use crate::scale::Scale;
use crate::setups;
use cc_dataset::Dataset;
use cc_deploy::{identity_groups, DeployedNetwork};
use cc_serve::{
    CacheConfig, ModelRegistry, ServeConfig, Server, SubmitError, TelemetrySnapshot,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Zipf sampler over ranks `0..n`: rank `i` drawn with probability
/// proportional to `1 / (i + 1)^s` (s = 0 is uniform).
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a rank.
    pub(crate) fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Deterministic splitmix64 over a counter: the bench must replay the
/// exact request sequence run to run.
fn mix(seed: u64, i: u64) -> f64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// One small deployed network — the cache win does not depend on packing,
/// so singleton groups keep the setup cheap.
fn build_network(scale: &Scale) -> (DeployedNetwork, Dataset) {
    // A conv-dominated request cost makes the array pass the thing the
    // cache saves; tiny images would measure fixed overheads instead.
    let scale = &Scale { image_hw: scale.image_hw.max(16), ..*scale };
    let (train, test) = setups::mnist_setup(scale, 47);
    let net = setups::lenet(scale, 47);
    (DeployedNetwork::build(&net, &identity_groups(&net), &train), test)
}

/// Closed loop over a pre-drawn Zipf request sequence: `clients` threads
/// submit-and-wait until the sequence drains. Identical sequence and
/// concurrency for every config compared.
pub(crate) fn zipf_loop(
    net: &DeployedNetwork,
    test: &Dataset,
    cache: CacheConfig,
    sequence: &[usize],
    clients: usize,
) -> TelemetrySnapshot {
    let server = Server::start(
        ModelRegistry::new().with_model("m", net.clone()),
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(8)
            .with_batch_deadline(Duration::from_millis(1))
            .with_queue_capacity(256)
            .with_cache(cache),
    );
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&rank) = sequence.get(i) else { break };
                let image = test.image(rank % test.len()).clone();
                loop {
                    match server.submit("m", image.clone()) {
                        Ok(ticket) => {
                            ticket.wait();
                            break;
                        }
                        Err(SubmitError::QueueFull) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("zipf-loop submit failed: {e}"),
                    }
                }
            });
        }
    });
    server.shutdown()
}

/// Draws the request sequence for one sweep point.
pub(crate) fn draw_sequence(distinct: usize, s: f64, total: usize, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(distinct, s);
    (0..total as u64).map(|i| zipf.sample(mix(seed, i))).collect()
}

struct Measurement {
    s: f64,
    cache_on: bool,
    requests: usize,
    stats: TelemetrySnapshot,
}

impl Measurement {
    fn as_json(&self) -> JsonValue {
        let probes = self.stats.cache.hits + self.stats.cache.misses;
        JsonValue::obj([
            ("s", JsonValue::from(self.s)),
            ("cache", JsonValue::from(if self.cache_on { "on" } else { "off" })),
            ("requests", JsonValue::from(self.requests)),
            ("completed", JsonValue::from(self.stats.completed)),
            ("throughput_rps", JsonValue::from(self.stats.throughput_rps)),
            ("hits", JsonValue::from(self.stats.cache.hits)),
            ("misses", JsonValue::from(self.stats.cache.misses)),
            ("deferred", JsonValue::from(self.stats.cache.deferred)),
            ("evictions", JsonValue::from(self.stats.cache.evictions)),
            (
                "hit_rate",
                JsonValue::from(if probes == 0 {
                    0.0
                } else {
                    self.stats.cache.hits as f64 / probes as f64
                }),
            ),
            ("p50_us", JsonValue::from(self.stats.p50.as_secs_f64() * 1e6)),
            ("p99_us", JsonValue::from(self.stats.p99.as_secs_f64() * 1e6)),
        ])
    }
}

/// Runs the Zipf cache sweep and returns the printed table; also writes
/// `results/bench_cache.json`.
pub fn run(scale: &Scale) -> Vec<Table> {
    let (net, test) = build_network(scale);
    let distinct = 32usize.min(test.len());
    let requests = (scale.train_samples / 2).max(128);
    let clients = 8usize;

    let mut table = Table::new(
        "Serving: response memo-cache under Zipf traffic (32-image working set)",
        &["s", "cache", "requests", "throughput_rps", "hit_rate", "p50_us", "p99_us"],
    );
    let mut measurements = Vec::new();
    for &s in &[0.0, 0.5, 1.0, 1.5] {
        let sequence = draw_sequence(distinct, s, requests, 0xCC_CAFE ^ s.to_bits());
        for cache_on in [false, true] {
            let cache = if cache_on {
                CacheConfig::bounded(distinct * 2, 4 << 20)
            } else {
                CacheConfig::disabled()
            };
            let stats = zipf_loop(&net, &test, cache, &sequence, clients);
            let probes = stats.cache.hits + stats.cache.misses;
            table.push_row(vec![
                fnum(s, 1),
                (if cache_on { "on" } else { "off" }).into(),
                requests.to_string(),
                fnum(stats.throughput_rps, 1),
                fnum(
                    if probes == 0 { 0.0 } else { stats.cache.hits as f64 / probes as f64 },
                    3,
                ),
                fnum(stats.p50.as_secs_f64() * 1e6, 0),
                fnum(stats.p99.as_secs_f64() * 1e6, 0),
            ]);
            measurements.push(Measurement { s, cache_on, requests, stats });
        }
    }

    // Headline: throughput ratio, cache on / off, at s = 1.0.
    let rps = |s: f64, on: bool| {
        measurements
            .iter()
            .find(|m| m.s == s && m.cache_on == on)
            .map(|m| m.stats.throughput_rps)
            .unwrap_or(0.0)
    };
    let speedup_s1 = rps(1.0, true) / rps(1.0, false).max(1e-9);

    let json = JsonValue::obj([
        ("experiment", JsonValue::from("cache_bench")),
        ("scale", JsonValue::from(if *scale == Scale::full() { "full" } else { "quick" })),
        ("distinct_inputs", JsonValue::from(distinct)),
        ("clients", JsonValue::from(clients)),
        ("sweep", JsonValue::Arr(measurements.iter().map(Measurement::as_json).collect())),
        ("speedup_s1", JsonValue::from(speedup_s1)),
    ]);
    if let Err(e) = crate::report::write_json("results/bench_cache.json", &json) {
        eprintln!("warning: could not write results/bench_cache.json: {e}");
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_serve::{QosClass, SubmitOptions, WaitError};

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let zipf = Zipf::new(16, 1.0);
        let mut counts = [0usize; 16];
        for i in 0..10_000u64 {
            counts[zipf.sample(mix(7, i))] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
        assert!(
            counts[0] > counts[8] && counts[0] > counts[15],
            "rank 0 must dominate under s=1: {counts:?}"
        );
        // s = 0 is uniform-ish: no rank should take a third of the draws.
        let uniform = Zipf::new(16, 0.0);
        let mut flat = [0usize; 16];
        for i in 0..10_000u64 {
            flat[uniform.sample(mix(8, i))] += 1;
        }
        assert!(flat.iter().all(|&c| c < 3_300), "s=0 must be near-uniform: {flat:?}");
    }

    /// CI gate (ISSUE 6): under Zipf s = 1.0 traffic, serving with the
    /// memo-cache must beat serving without it — repeats answered from
    /// memory instead of the array are the whole point.
    #[test]
    fn cache_gate_zipf_s1_cache_on_beats_cache_off() {
        // Wall-clock comparison: only trustworthy with optimized code.
        // CI runs this again in a release gate step.
        if cfg!(debug_assertions) {
            eprintln!("skipping wall-clock cache comparison in debug build");
            return;
        }
        let _exclusive = crate::perf_gate_lock();
        let scale = Scale {
            train_samples: 64,
            test_samples: 48,
            image_hw: 16,
            ..Scale::quick()
        };
        let (net, test) = build_network(&scale);
        let distinct = 32usize.min(test.len());
        let sequence = draw_sequence(distinct, 1.0, 256, 0xCC_CAFE);

        // Best of two per config damps scheduler noise; the margin itself
        // is large (hits skip the array entirely).
        let best = |cache: CacheConfig| {
            (0..2)
                .map(|_| {
                    let stats = zipf_loop(&net, &test, cache, &sequence, 8);
                    assert_eq!(stats.completed, 256);
                    stats.throughput_rps
                })
                .fold(0.0f64, f64::max)
        };
        let off = best(CacheConfig::disabled());
        let on = best(CacheConfig::bounded(distinct * 2, 4 << 20));
        assert!(
            on > off,
            "memo-cache must win under Zipf s=1.0: {on:.1} rps on vs {off:.1} rps off"
        );
    }

    /// CI gate (ISSUE 6): on an overload burst, deadline-aware ordering
    /// sheds already-blown work first — every blown-deadline request
    /// resolves `DeadlineExceeded` without occupying the array, and no
    /// live request is lost to make room for a corpse.
    #[test]
    fn cache_gate_overload_sheds_blown_work_first() {
        let scale = Scale {
            train_samples: 32,
            test_samples: 8,
            image_hw: 16,
            ..Scale::quick()
        };
        let (net, test) = build_network(&scale);
        let image = test.image(0).clone();
        let server = Server::start(
            ModelRegistry::new().with_model("m", net),
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(1)
                .with_batch_deadline(Duration::ZERO)
                .with_queue_capacity(64),
        );

        // Saturate the single worker, then queue an interleaved burst:
        // doomed requests (zero deadline — blown the instant they are
        // queued, so the gate is deterministic on any machine speed) and
        // live requests (no deadline, interactive class).
        let warm = server.submit("m", image.clone()).expect("admitted");
        let mut doomed = Vec::new();
        let mut live = Vec::new();
        for i in 0..12 {
            if i % 2 == 0 {
                doomed.push(
                    server
                        .submit_with(
                            "m",
                            image.clone(),
                            SubmitOptions::new()
                                .with_class(QosClass::Batch)
                                .with_deadline(Duration::ZERO),
                        )
                        .expect("queue has room"),
                );
            } else {
                live.push(
                    server
                        .submit_with(
                            "m",
                            image.clone(),
                            SubmitOptions::new().with_class(QosClass::Interactive),
                        )
                        .expect("queue has room"),
                );
            }
        }

        assert!(warm.wait().is_some());
        for (i, t) in live.into_iter().enumerate() {
            assert!(t.wait().is_some(), "live request {i} must complete, never be shed");
        }
        let mut shed = 0u64;
        for t in doomed {
            match t.wait_result() {
                Err(WaitError::DeadlineExceeded) => shed += 1,
                Ok(_) => {} // picked up before its deadline blew
                Err(e) => panic!("unexpected wait error: {e}"),
            }
        }
        assert!(shed > 0, "already-blown deadlines behind a saturated worker must shed");
        let stats = server.shutdown();
        assert_eq!(stats.deadline_shed, shed);
        assert_eq!(
            stats.shed_by_class[QosClass::Batch.index()],
            shed,
            "only blown batch-class work is shed"
        );
        assert_eq!(
            stats.shed_by_class[QosClass::Interactive.index()],
            0,
            "live interactive work must never be shed for a corpse"
        );
        assert_eq!(stats.queue_depth, 0, "shed work must leave the depth gauge");
    }
}
