//! The serving and sharding gates: claims no `cc-perf` row carries (its
//! rows, under `benchmark/`, carry the speed claims). CI runs them in one
//! release step, `cargo test --release -p cc-bench --lib gates`; the
//! deterministic ones run under plain `cargo test` too, and the ones that
//! time or stress a server skip themselves in debug builds.
//!
//! - **Shards** (simulated): the row-band makespan falls strictly from 1
//!   to 4 shards, and a big + small fleet beats the small array alone
//!   without losing to the big one.
//! - **Packing** (simulated): the packed deployment of the serving LeNet
//!   costs strictly fewer simulated array cycles than the same network
//!   deployed unpacked.
//! - **Faults** (release only): the seeded chaos plan costs at most the
//!   panicked batch's availability, never a hung ticket or a wrong output.
//! - **Cache**: an overload sheds already-blown deadlines first, and
//!   (release only, wall clock) the memo-cache wins under Zipf s = 1.0
//!   traffic.
//! - **Autotune** (release only, wall clock): the controller matches the
//!   best static config over the phased schedule, failing no request.

use crate::experiments::autotune::{calibrate, compare};
use crate::scale::Scale;
use crate::setups;
use cc_dataset::Dataset;
use cc_deploy::{identity_groups, DeployedLayer, DeployedNetwork};
use cc_packing::{group_columns, pack_columns, GroupingConfig};
use cc_serve::{
    CacheConfig, FaultPlan, ModelRegistry, ProfileStore, QosClass, ServeConfig, Server,
    SubmitError, SubmitOptions, TelemetrySnapshot, WaitError,
};
use cc_systolic::array::{ArrayConfig, QuantPacked};
use cc_systolic::{ArrayGeometry, BandLane, PreparedPacked, RunScratch, SimStats, TiledScheduler};
use cc_tensor::init::sparse_matrix;
use cc_tensor::quant::{AccumWidth, QuantMatrix, QuantParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The serving experiments' network at gate size: full width on 16×16
/// images, so the packed-vs-unpacked conv cost dominates per-request
/// overheads.
fn gate_networks() -> (DeployedNetwork, DeployedNetwork, Dataset) {
    setups::serving_networks(&Scale {
        train_samples: 64,
        test_samples: 16,
        image_hw: 16,
        width_mult: 1.0,
        ..Scale::quick()
    })
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

/// Shard widths the makespan gate sweeps.
const SHARD_SWEEP: [usize; 4] = [1, 2, 3, 4];

/// One layer-shaped kernel workload (row count chosen to span several
/// tile row-groups on the 32-row array, so bands can actually fan out).
struct LayerCase {
    name: &'static str,
    rows: usize,
    cols: usize,
    density: f64,
    l: usize,
}

fn layer_cases() -> Vec<LayerCase> {
    vec![
        // A wide mid-network layer: 8 row-groups on the 32-row array.
        LayerCase { name: "layer_256x120_l16", rows: 256, cols: 120, density: 0.16, l: 16 },
        // A deeper, sparser late layer with a longer stream.
        LayerCase { name: "layer_320x200_l32", rows: 320, cols: 200, density: 0.10, l: 32 },
    ]
}

fn prepared_fixture(case: &LayerCase, seed: u64) -> (PreparedPacked, QuantMatrix, TiledScheduler) {
    let f = sparse_matrix(case.rows, case.cols, case.density, seed);
    let params = QuantParams::calibrate(f.as_slice());
    let groups = group_columns(&f, &GroupingConfig::paper_default());
    let qp = QuantPacked::quantize_with(&pack_columns(&f, &groups), params);
    let sched = TiledScheduler::new(ArrayConfig::new(32, 32, AccumWidth::Bits32));
    let prepared = sched.prepare_packed(&qp);
    let d = QuantMatrix::quantize(&sparse_matrix(case.cols, case.l, 1.0, seed ^ 0x5));
    (prepared, d, sched)
}

/// Simulated makespans (max band cycles) of one kernel case across the
/// shard sweep, as `(shards, bands, makespan)`, with the scatter/gather
/// actually executed and checked against the unsharded plane.
fn kernel_makespans(case: &LayerCase) -> Vec<(usize, usize, u64)> {
    let (prepared, d, sched) = prepared_fixture(case, 61);
    let mut reference = RunScratch::new();
    sched.run_prepared_with(&prepared, &d, &mut reference);
    SHARD_SWEEP
        .iter()
        .map(|&shards| {
            let plan = prepared.partition_row_bands(shards);
            let mut primary = RunScratch::new();
            let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
            let mut stats = vec![SimStats::default(); plan.len()];
            let mut busy = vec![0u64; plan.len()];
            sched.run_bands_with(
                &prepared, &plan, &d, &mut primary, &mut aux, &mut stats, &mut busy,
            );
            assert_eq!(
                primary.outputs(),
                reference.outputs(),
                "sharded gather diverged on {}",
                case.name
            );
            let makespan = stats.iter().map(|s| s.cycles).max().unwrap_or(0);
            (shards, plan.len(), makespan)
        })
        .collect()
}

/// The makespan of one kernel case scattered across an explicit fleet of
/// array geometries (cost-weighted band planning), with the gather checked
/// bit-identical against the unsharded plane. Returns `(bands, makespan)`.
fn fleet_makespan(
    prepared: &PreparedPacked,
    sched: &TiledScheduler,
    d: &QuantMatrix,
    fleet: &[ArrayGeometry],
    reference: &RunScratch,
) -> (usize, u64) {
    let plan = prepared.partition_row_bands_for(fleet, d.cols());
    let mut primary = RunScratch::new();
    let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
    let mut lanes: Vec<BandLane> = fleet.iter().copied().map(BandLane::new).collect();
    sched.run_bands(prepared, &plan, d, &mut primary, &mut aux, &mut lanes);
    assert_eq!(primary.outputs(), reference.outputs(), "fleet gather diverged");
    (plan.len(), lanes[..plan.len()].iter().map(|lane| lane.stats.cycles).max().unwrap_or(0))
}

/// On the layer workloads the row-band makespan must decrease strictly
/// and monotonically from 1 to 4 shards — adding arrays must keep buying
/// simulated time.
#[test]
fn shard_gate_makespan_scales_down_monotonically() {
    for case in layer_cases() {
        let rows = kernel_makespans(&case);
        for pair in rows.windows(2) {
            assert!(
                pair[1].2 < pair[0].2,
                "{}: makespan must fall {} -> {} shards: {} vs {}",
                case.name,
                pair[0].0,
                pair[1].0,
                pair[0].2,
                pair[1].2,
            );
        }
    }
}

/// Pairing the base array with a weaker partner must help, not hurt —
/// the heterogeneous 2-shard plan's makespan must fall strictly below
/// the *worst* single array running everything alone, and must not
/// exceed the base array alone (a cost-weighted planner that hands a
/// straggler too much work would violate one of these).
#[test]
fn shard_gate_hetero_fleet_beats_worst_single_array() {
    for case in layer_cases() {
        let (prepared, d, sched) = prepared_fixture(&case, 61);
        let mut reference = RunScratch::new();
        sched.run_prepared_with(&prepared, &d, &mut reference);
        let base = ArrayGeometry::new(32, 32);
        let weak = ArrayGeometry::new(8, 8);
        let (_, base_alone) = fleet_makespan(&prepared, &sched, &d, &[base], &reference);
        let (_, weak_alone) = fleet_makespan(&prepared, &sched, &d, &[weak], &reference);
        let (bands, hetero) = fleet_makespan(&prepared, &sched, &d, &[base, weak], &reference);
        assert_eq!(bands, 2, "{}: the fleet must actually fan out", case.name);
        assert!(
            hetero < weak_alone,
            "{}: hetero plan must beat the weak array alone: {hetero} vs {weak_alone}",
            case.name
        );
        assert!(
            hetero <= base_alone,
            "{}: adding a weak array must never hurt the base: {hetero} vs {base_alone}",
            case.name
        );
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// The paper's claim where the hardware lives: summed array cycles of
/// every conv layer, at a common stream length, packed vs unpacked. This
/// is the column-combining win — fewer occupied columns, fewer tiles.
#[test]
fn packed_serving_simulates_fewer_cycles_than_unpacked() {
    let (packed, unpacked, _) = gate_networks();
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
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// What one chaos (or clean-reference) run observed, request by request.
struct ChaosOutcome {
    /// Final telemetry, taken by the graceful drain.
    stats: TelemetrySnapshot,
    /// Whether [`Server::shutdown_within`] finished inside its timeout.
    drained: bool,
    /// Requests the clients submitted (admission retries excluded).
    total: usize,
    /// Requests that resolved `Ok` with logits bit-identical to the
    /// serial unsharded reference.
    ok: usize,
    /// Requests that resolved with an error (`Faulted`/`WorkerPanicked`).
    failed: usize,
    /// Requests that resolved `Ok` but with wrong logits — must be zero:
    /// recovery may cost retries, never correctness.
    mismatched: usize,
    /// Tickets still unresolved after the bounded wait — must be zero:
    /// the no-hang invariant of the fault plane.
    hung: usize,
    /// Tail tickets submitted right before shutdown that still resolved.
    tail_resolved: usize,
    /// Tail tickets submitted right before shutdown (drain-under-load).
    tail: usize,
}

impl ChaosOutcome {
    /// Fraction of non-shed requests that completed with correct logits.
    fn availability(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.ok as f64 / self.total as f64
    }
}

/// Chaos closed loop: `clients` threads drive `total` requests through a
/// 3-shard server carrying `faults` (or none, for the clean reference),
/// checking every response against the serial unsharded reference logits
/// and bounding every wait — a hang is counted, never blocked on. Ends
/// with a drain-under-load: a tail of unawaited submissions followed by
/// [`Server::shutdown_within`].
fn chaos_loop(
    net: &DeployedNetwork,
    test: &Dataset,
    faults: Option<Arc<FaultPlan>>,
    clients: usize,
    total: usize,
) -> ChaosOutcome {
    // The correctness oracle: serial, unsharded, fault-free execution.
    // Sharding and quarantine re-planning gather by row concatenation, so
    // every Ok response must match these logits bit for bit.
    let images: Vec<cc_tensor::Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
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

/// The deterministic chaos schedule: one of the three shard lanes dies
/// mid-run, a second suffers periodic stalls and poisoned bands, and one
/// worker panics on a chosen batch. Same seed, same failures, every run.
fn chaos_plan() -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::seeded(0xC0FF_EECA_FE00)
            .kill_lane_after(2, 40)
            .stall_every(64, 50)
            .poison_every(97)
            .panic_on_batch(5),
    )
}

/// The seeded chaos plan must cost availability at most the panic's own
/// batch — ≥ 99% of non-shed requests complete, every completion
/// bit-identical to the serial unsharded reference, zero tickets hang
/// (every wait is bounded), and the server drains cleanly with work
/// still in flight.
#[test]
fn fault_gate() {
    if cfg!(debug_assertions) {
        eprintln!("skipping serving fault gate in debug build");
        return;
    }
    let _exclusive = crate::perf_gate_lock();
    let (packed, _, test) = gate_networks();
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

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

/// Zipf sampler over ranks `0..n`: rank `i` drawn with probability
/// proportional to `1 / (i + 1)^s` (s = 0 is uniform).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
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
    fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Deterministic splitmix64 over a counter: the gate must replay the
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
fn cache_network(scale: &Scale) -> (DeployedNetwork, Dataset) {
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
fn zipf_loop(
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
fn draw_sequence(distinct: usize, s: f64, total: usize, seed: u64) -> Vec<usize> {
    let zipf = Zipf::new(distinct, s);
    (0..total as u64).map(|i| zipf.sample(mix(seed, i))).collect()
}

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

/// Under Zipf s = 1.0 traffic, serving with the memo-cache must beat
/// serving without it — repeats answered from memory instead of the
/// array are the whole point. No `cc-perf` row covers this 256-request
/// cold start: `serve_cache` measures a warm cache over a long run.
#[test]
fn cache_gate_zipf_s1_cache_on_beats_cache_off() {
    // Wall-clock comparison: only trustworthy with optimized code.
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
    let (net, test) = cache_network(&scale);
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

/// On an overload burst, deadline-aware ordering sheds already-blown
/// work first — every blown-deadline request resolves
/// `DeadlineExceeded` without occupying the array, and no live request
/// is lost to make room for a corpse.
#[test]
fn cache_gate_overload_sheds_blown_work_first() {
    let scale = Scale {
        train_samples: 32,
        test_samples: 8,
        image_hw: 16,
        ..Scale::quick()
    };
    let (net, test) = cache_network(&scale);
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

// ---------------------------------------------------------------------------
// Autotune
// ---------------------------------------------------------------------------

/// Across the phased schedule the controller must reach at least the
/// best static config's throughput at a p99 no worse than 1.05× its p99
/// — the adaptive plan beats every fixed guess without trading tail
/// latency for it — and no run may fail a request. Best-of-rounds on
/// both sides of the comparison damps single-box scheduler noise; the
/// bounds only have to hold on one round.
#[test]
fn autotune_gate() {
    if cfg!(debug_assertions) {
        eprintln!("skipping wall-clock autotune gate in debug build");
        return;
    }
    let _exclusive = crate::perf_gate_lock();
    let (packed, _, test) = gate_networks();
    let mut store = ProfileStore::new();
    calibrate(&packed, &test, &mut store);

    let mut last = String::new();
    for round in 0..6 {
        let cmp = compare(&packed, &test, 384, store.clone());
        let best = cmp.best_static_run();
        let ctl = cmp.controller_run();
        let tput_ratio = ctl.overall_rps / best.overall_rps.max(1e-9);
        let p99_ratio = ctl.overall_p99_us / best.overall_p99_us.max(1e-9);
        eprintln!(
            "autotune_gate round {round}: controller {:.0} rps / p99 {:.0} us vs best static \
             ({}) {:.0} rps / p99 {:.0} us — ratios {:.3} / {:.3}, {} retunes",
            ctl.overall_rps,
            ctl.overall_p99_us,
            best.label,
            best.overall_rps,
            best.overall_p99_us,
            tput_ratio,
            p99_ratio,
            ctl.retunes
        );
        for run in &cmp.runs {
            assert_eq!(run.failed, 0, "{} failed {} requests", run.label, run.failed);
        }
        assert!(ctl.retunes > 0, "the controller must actually retune under a load shift");
        if tput_ratio >= 1.0 && p99_ratio <= 1.05 {
            return;
        }
        last = format!(
            "controller {:.1} rps (p99 {:.0} us) vs best static {} {:.1} rps (p99 {:.0} us)",
            ctl.overall_rps, ctl.overall_p99_us, best.label, best.overall_rps, best.overall_p99_us
        );
    }
    panic!("autotune gate failed on every round: {last}");
}
