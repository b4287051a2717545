//! Chaos property suite for the fault-injection plane and the serving
//! stack's self-healing (ISSUE 9): under pinned-seed random fault plans —
//! stalled, poisoned, and killed shard lanes plus injected worker panics —
//! every submitted request must resolve exactly once within a bounded
//! wait (no ticket ever hangs), and every `Ok` response must be
//! bit-identical to the serial unsharded reference, because quarantine
//! re-plans row bands over surviving lanes and gather is row
//! concatenation. Recovery may cost retries and latency, never
//! correctness.

use cc_dataset::{Dataset, SyntheticSpec};
use cc_deploy::engine::run_layer_batch_scratch;
use cc_deploy::{
    identity_groups, ActivationScratch, BandSet, BatchOutput, DeployedNetwork, FaultInjector,
    HealthEvent, ShardHealthConfig,
};
use cc_nn::layer::LayerKind;
use cc_nn::layers::{Linear, PointwiseConv, Relu, Shift};
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_nn::Network;
use cc_serve::{
    CacheConfig, EventKind, FaultPlan, ModelRegistry, PipelineExecutor, ServeConfig, Server,
    StageEnv, Telemetry, TraceConfig, TraceRecorder, Track, WaitError,
};
use cc_packing::{group_columns, pack_columns, GroupingConfig};
use cc_systolic::array::{ArrayConfig, QuantPacked};
use cc_systolic::{BandAction, BandLane, BandOutcome, RowBand, RunScratch, TiledScheduler};
use cc_tensor::init::sparse_matrix;
use cc_tensor::quant::{AccumWidth, QuantMatrix};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A deployed network over a random shape: 1-channel `size`×`size` input,
/// shift → pointwise(hidden) → relu → linear head.
fn deployed(hidden: usize, size: usize, seed: u64) -> (DeployedNetwork, Dataset) {
    let (train, test) = SyntheticSpec::mnist_like()
        .with_size(size, size)
        .with_samples(12, 5)
        .generate(seed);
    let net = Network::new(
        "prop-fault",
        vec![
            LayerKind::Shift(Shift::new(1)),
            LayerKind::Pointwise(PointwiseConv::new(1, hidden, false, seed)),
            LayerKind::Relu(Relu::new()),
            LayerKind::Linear(Linear::new(hidden * size * size, 10, seed ^ 1)),
        ],
        10,
    );
    (DeployedNetwork::build(&net, &identity_groups(&net), &train), test)
}

proptest! {
    // Each case deploys a network and runs a chaos-injected server; keep
    // the case count modest. Cases and RNG stream are pinned so CI
    // failures replay exactly.
    #![proptest_config(ProptestConfig::with_cases(8).with_rng_seed(0xA5_1305_0009))]

    /// The core chaos invariant: whatever the plan does — kill a lane,
    /// poison bands, stall, panic a worker mid-batch — every ticket
    /// resolves exactly once within a bound, `Ok` logits are bit-identical
    /// to the unsharded serial reference, and the telemetry ledger
    /// balances (`completed + failed` = requests).
    #[test]
    fn every_request_resolves_once_and_ok_is_bit_identical(
        hidden in 2usize..5,
        size in 3usize..7,
        seed in 0u64..1_000,
        shards in 1usize..4,
        // The vendored proptest has no Option strategy; each clause's
        // range carries a "disabled" band instead.
        kill_lane in 0usize..4,      // 3 = no kill clause
        kill_after in 0u64..30,
        poison in 0u64..128,         // < 16 = no poison clause
        stall in 0u64..64,           // < 8 = no stall clause
        panic_batch in 0u64..12,     // >= 6 = no panic clause
    ) {
        let (net, test) = deployed(hidden, size, seed);
        let reference: Vec<Vec<f32>> =
            (0..test.len()).map(|i| net.logits(test.image(i))).collect();

        let mut plan = FaultPlan::seeded(seed ^ 0xFA017);
        if kill_lane < 3 {
            plan = plan.kill_lane_after(kill_lane % shards.max(1), kill_after);
        }
        if poison >= 16 {
            plan = plan.poison_every(poison);
        }
        if stall >= 8 {
            // Short stalls: the property is about resolution, not time.
            plan = plan.stall_every(stall, 20);
        }
        if panic_batch < 6 {
            plan = plan.panic_on_batch(panic_batch);
        }

        let server = Server::start(
            ModelRegistry::new().with_model("m", net),
            ServeConfig::default()
                .with_workers(2)
                .with_max_batch(4)
                .with_queue_capacity(64)
                .with_shards(shards)
                .with_faults(Arc::new(plan)),
        );

        let total = 2 * test.len();
        let mut ok = 0u64;
        let mut failed = 0u64;
        for i in 0..total {
            let idx = i % test.len();
            let ticket = server.submit("m", test.image(idx).clone()).expect("admitted");
            // Exactly-once, bounded: `None` would mean a hung ticket.
            match ticket.wait_timeout(Duration::from_secs(20)) {
                Some(Ok(resp)) => {
                    prop_assert_eq!(
                        &resp.logits, &reference[idx],
                        "request {} diverged from the unsharded serial reference", i
                    );
                    ok += 1;
                }
                Some(Err(WaitError::WorkerPanicked | WaitError::Faulted)) => failed += 1,
                Some(Err(e)) => prop_assert!(false, "unexpected resolution: {}", e),
                None => prop_assert!(false, "ticket for request {} hung", i),
            }
        }

        let stats = server.shutdown();
        prop_assert_eq!(stats.completed, ok, "completed must count exactly the Ok tickets");
        prop_assert_eq!(stats.failed, failed, "failed must count exactly the Err tickets");
        prop_assert_eq!(ok + failed, total as u64, "every request resolves exactly once");
    }
}

/// The same ledger with the memo-cache on and identical requests in
/// flight together, which the property above (cache off, one request at
/// a time) cannot see: requests that coalesce onto an in-flight miss get
/// tickets too, so when their leader's batch panics they must land in
/// `failed` — followers of a failed leader used to be counted in no
/// bucket at all, while followers of a successful one were `completed`.
/// `completed + failed + shed` must equal the tickets handed out.
///
/// The interleaving is forced, not slept for: batches of two under a
/// window that outlasts the test, so a leader stays in flight — and every
/// identical submit after it attaches as a follower — until a different
/// image fills its batch.
#[test]
fn coalesced_followers_share_their_leaders_ledger_bucket() {
    let (net, test) = deployed(3, 4, 29);
    let reference = [net.logits(test.image(0)), net.logits(test.image(1))];
    let server = Server::start(
        ModelRegistry::new().with_model("m", net),
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(2)
            .with_batch_deadline(Duration::from_secs(600))
            .with_cache(CacheConfig::bounded(32, 1 << 20))
            .with_faults(Arc::new(FaultPlan::seeded(29).panic_on_batch(0))),
    );

    const FOLLOWERS: u64 = 3;
    let (mut ok, mut failed) = (0u64, 0u64);
    // Round 0 rides the batch that panics, round 1 the respawned worker.
    for round in 0..2 {
        let images = (0..=FOLLOWERS).map(|_| 0).chain([1]);
        let tickets: Vec<_> = images
            .map(|idx| (idx, server.submit("m", test.image(idx).clone()).expect("admitted")))
            .collect();
        for (idx, ticket) in tickets {
            match ticket.wait_timeout(Duration::from_secs(20)) {
                Some(Ok(resp)) => {
                    assert_eq!(resp.logits, reference[idx], "round {round} diverged");
                    ok += 1;
                }
                Some(Err(WaitError::WorkerPanicked | WaitError::Faulted)) => failed += 1,
                Some(Err(e)) => panic!("unexpected resolution: {e}"),
                None => panic!("a ticket of round {round} hung"),
            }
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.submitted, 4, "only leaders take queue slots: the rest must have coalesced");
    assert_eq!(stats.cache.coalesced_hits, FOLLOWERS, "round 1 followers get their leader's logits");
    assert_eq!((ok, failed), (FOLLOWERS + 2, FOLLOWERS + 2), "round 0 fails whole, round 1 serves");
    assert_eq!(stats.completed, ok, "completed must count exactly the Ok tickets");
    assert_eq!(stats.failed, failed, "failed must count exactly the Err tickets");
    assert_eq!(stats.completed + stats.failed + stats.shed, 2 * (FOLLOWERS + 2));
}

/// Regression for the ticket-hang failure mode: a worker panicking
/// mid-batch must resolve that batch's tickets with
/// [`WaitError::WorkerPanicked`] — never leave them blocked on a dropped
/// sender — and the supervisor must respawn the worker so the very next
/// request is served normally.
#[test]
fn worker_panic_resolves_tickets_and_respawns_the_worker() {
    let (net, test) = deployed(3, 4, 7);
    let reference = net.logits(test.image(0));
    let server = Server::start(
        ModelRegistry::new().with_model("m", net),
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(16)
            .with_faults(Arc::new(FaultPlan::seeded(7).panic_on_batch(0))),
    );

    let doomed = server.submit("m", test.image(0).clone()).expect("admitted");
    let resolution = doomed
        .wait_timeout(Duration::from_secs(20))
        .expect("a panicked worker's tickets must resolve, not hang");
    assert!(
        matches!(resolution, Err(WaitError::WorkerPanicked)),
        "expected WorkerPanicked, got {resolution:?}"
    );

    // The single worker died with the panic; only a respawn can serve this.
    let healed = server.submit("m", test.image(0).clone()).expect("admitted");
    let resp = healed
        .wait_timeout(Duration::from_secs(20))
        .expect("respawned worker must serve, not hang")
        .expect("post-respawn request must succeed");
    assert_eq!(resp.logits, reference);

    let stats = server.shutdown();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

/// A dead shard lane is quarantined and the band plan re-planned over the
/// survivors; because gather is row concatenation, post-quarantine
/// outputs stay bit-identical to the unsharded serial run while the
/// telemetry records the recovery work. Lane 0 is the one killed: the
/// tiny conv here spans a single tile row group, so the band plan has
/// one band and only the first active lane ever executes — killing a
/// higher lane would never fire.
#[test]
fn killed_lane_quarantines_and_outputs_stay_bit_identical() {
    let (net, test) = deployed(4, 5, 11);
    let reference: Vec<Vec<f32>> = (0..test.len()).map(|i| net.logits(test.image(i))).collect();
    let server = Server::start(
        ModelRegistry::new().with_model("m", net),
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(64)
            .with_shards(3)
            .with_faults(Arc::new(FaultPlan::seeded(11).kill_lane_after(0, 2))),
    );

    let total = 4 * test.len();
    for i in 0..total {
        let idx = i % test.len();
        let ticket = server.submit("m", test.image(idx).clone()).expect("admitted");
        match ticket.wait_timeout(Duration::from_secs(20)).expect("bounded resolution") {
            Ok(resp) => assert_eq!(
                resp.logits, reference[idx],
                "post-quarantine output diverged at request {i}"
            ),
            // The retry budget makes a kill invisible, but losing a race
            // with the health scorer is legal — failing is, hanging isn't.
            Err(WaitError::Faulted) => {}
            Err(e) => panic!("unexpected resolution: {e}"),
        }
    }

    let stats = server.shutdown();
    assert!(stats.band_faults > 0, "the dead lane must register faults");
    assert!(stats.band_retries > 0, "recovery must go through retries");
    assert_eq!(stats.worker_panics, 0);
}

/// Drain-on-drop under faults: every batch fed to a [`PipelineExecutor`]
/// must leave through exactly one of the sink or the fault handler before
/// `drain` returns — an injected stage panic may cost its own batch, but
/// it must not swallow later ones or kill the stage thread (which would
/// deadlock the drain).
#[test]
fn pipeline_drains_every_batch_through_sink_or_fault_handler() {
    let (net, test) = deployed(3, 4, 13);
    let images: Vec<cc_tensor::Tensor> = (0..4).map(|i| test.image(i % test.len()).clone()).collect();
    let batches = 6usize;

    let sunk = Arc::new(AtomicUsize::new(0));
    let faulted = Arc::new(AtomicUsize::new(0));
    let (sunk_in, faulted_in) = (Arc::clone(&sunk), Arc::clone(&faulted));
    let pipe: PipelineExecutor<usize> = PipelineExecutor::with_env(
        net,
        2,
        1,
        StageEnv {
            shards: 2,
            faults: Some(Arc::new(FaultPlan::seeded(13).panic_on_batch(2))),
            ..StageEnv::default()
        },
        Some(Arc::new(move |_tag, fault| {
            assert!(fault.is_none(), "a plain panic carries no fault payload");
            faulted_in.fetch_add(1, Ordering::Relaxed);
        })),
        move |out, _tag| {
            assert!(matches!(out, BatchOutput::Logits(_)));
            sunk_in.fetch_add(1, Ordering::Relaxed);
        },
    );
    for b in 0..batches {
        pipe.submit(&images, b);
    }
    pipe.drain();

    assert_eq!(faulted.load(Ordering::Relaxed), 1, "exactly the panicked batch faults");
    assert_eq!(
        sunk.load(Ordering::Relaxed) + faulted.load(Ordering::Relaxed),
        batches,
        "drain must flush every batch through the sink or the fault handler"
    );
}

/// When every band execution is poisoned, quarantine cannot help (the
/// last active lane is never removed) and the retry budget exhausts: the
/// batch must fail *with a fault payload* through the handler, and the
/// stage threads must survive to drain.
#[test]
fn unrecoverable_poison_fails_batches_with_fault_payload() {
    let (net, test) = deployed(3, 4, 17);
    let images: Vec<cc_tensor::Tensor> = (0..3).map(|i| test.image(i % test.len()).clone()).collect();
    let batches = 3usize;

    let sunk = Arc::new(AtomicUsize::new(0));
    let faulted = Arc::new(AtomicUsize::new(0));
    let (sunk_in, faulted_in) = (Arc::clone(&sunk), Arc::clone(&faulted));
    let pipe: PipelineExecutor<usize> = PipelineExecutor::with_env(
        net,
        2,
        1,
        StageEnv {
            shards: 2,
            faults: Some(Arc::new(FaultPlan::seeded(17).poison_every(1))),
            ..StageEnv::default()
        },
        Some(Arc::new(move |_tag, fault| {
            let fault = fault.expect("retry exhaustion must carry its BandFaultError");
            assert!(fault.attempts > 0);
            faulted_in.fetch_add(1, Ordering::Relaxed);
        })),
        move |_out, _tag| {
            sunk_in.fetch_add(1, Ordering::Relaxed);
        },
    );
    for b in 0..batches {
        pipe.submit(&images, b);
    }
    pipe.drain();

    assert_eq!(sunk.load(Ordering::Relaxed), 0, "all-poisoned bands can never succeed");
    assert_eq!(faulted.load(Ordering::Relaxed), batches);
}

/// Pipelined-path parity: a stage runs the very step a serial worker
/// runs, so a traced two-stage pipeline under a seeded fault plan must
/// leave `Fault`/`Retry`/`Quarantine` instants in the trace (stages used
/// to bump the counters only), agreeing with the telemetry counters, all
/// under real batch ids — and every `ShardRun` span must sit inside a
/// `Stage` span of its own batch: a failed batch's undrained conv log
/// used to be exported under the next traced batch's id.
#[test]
fn pipelined_chaos_traces_health_instants_under_the_right_batch() {
    let (train, test) =
        SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 6).generate(23);
    let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
    // A deliberately small array so every conv spans several tile
    // row-groups and both lanes of each stage really execute bands.
    let deployed = DeployedNetwork::build_with_array(
        &net,
        &identity_groups(&net),
        &train,
        ArrayConfig::new(4, 8, AccumWidth::Bits32),
    );
    let images: Vec<cc_tensor::Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
    let reference = deployed.run_batch(&images);
    let batches = 24u64;

    let recorder = Arc::new(TraceRecorder::new(TraceConfig::on()));
    let telemetry = Arc::new(Telemetry::new());
    // Lane 0 dies early (deterministic Fault → Retry → Quarantine) and
    // every other band execution is poisoned, so some batches exhaust
    // their retries mid-stage while later ones still succeed.
    let plan = FaultPlan::seeded(23).kill_lane_after(0, 2).poison_every(3);
    let sunk = Arc::new(AtomicUsize::new(0));
    let faulted = Arc::new(AtomicUsize::new(0));
    let (sunk_in, faulted_in) = (Arc::clone(&sunk), Arc::clone(&faulted));
    let pipe: PipelineExecutor<u64> = PipelineExecutor::with_env(
        deployed,
        2,
        1,
        StageEnv {
            shards: 2,
            fleet: None,
            faults: Some(Arc::new(plan)),
            telemetry: Some(Arc::clone(&telemetry)),
            recorder: Some(Arc::clone(&recorder)),
        },
        Some(Arc::new(move |_bid, fault| {
            assert!(fault.is_some(), "no panic clause: failures carry a fault payload");
            faulted_in.fetch_add(1, Ordering::Relaxed);
        })),
        move |out, bid| {
            match out {
                BatchOutput::Logits(logits) => {
                    assert_eq!(logits, reference, "batch {bid} diverged under chaos")
                }
                BatchOutput::Maps(_) => panic!("pipeline must end at the classifier head"),
            }
            sunk_in.fetch_add(1, Ordering::Relaxed);
        },
    );
    let num_stages = pipe.num_stages();
    assert_eq!(num_stages, 2);
    for bid in 1..=batches {
        pipe.submit_traced(&images, bid, bid, None);
    }
    pipe.drain();
    let (sunk, faulted) = (sunk.load(Ordering::Relaxed), faulted.load(Ordering::Relaxed));
    assert_eq!(sunk + faulted, batches as usize, "every batch leaves through one exit");
    assert!(sunk > 0 && faulted > 0, "the plan must both fail and pass batches: {sunk}/{faulted}");

    let events = recorder.events();
    let stats = telemetry.snapshot();
    let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count() as u64;
    assert!(count(EventKind::Fault) > 0, "stage faults must reach the trace");
    assert!(count(EventKind::Retry) > 0, "stage retries must reach the trace");
    assert!(count(EventKind::Quarantine) > 0, "stage quarantines must reach the trace");
    assert_eq!(count(EventKind::Fault), stats.band_faults, "instants and counters disagree");
    assert_eq!(count(EventKind::Retry), stats.band_retries, "instants and counters disagree");
    for e in events.iter().filter(|e| {
        matches!(e.kind, EventKind::Fault | EventKind::Retry | EventKind::Quarantine)
    }) {
        assert!((1..=batches).contains(&e.bid), "health instant under no batch: {e:?}");
        if e.kind == EventKind::Retry {
            assert!(matches!(e.track, Track::Stage(s) if usize::from(s) < num_stages));
        }
    }

    let stage_spans: Vec<_> = events.iter().filter(|e| e.kind == EventKind::Stage).collect();
    let shard_runs: Vec<_> = events.iter().filter(|e| e.kind == EventKind::ShardRun).collect();
    assert!(!shard_runs.is_empty(), "traced convs must export shard spans");
    for run in shard_runs {
        assert!(
            stage_spans.iter().any(|stage| stage.bid == run.bid
                && stage.start_ns <= run.start_ns
                && run.end_ns() <= stage.end_ns()),
            "ShardRun span outside every stage span of its batch (foreign bid?): {run:?}"
        );
    }
}

/// Pipelined-path parity: the batch's deadline rides the job through
/// every stage, so a stage whose bands keep faulting stops retrying the
/// moment the deadline has passed instead of burning the whole budget
/// (stages used to retry on budget alone).
#[test]
fn blown_deadline_stops_pipelined_retries() {
    let (net, test) = deployed(3, 4, 19);
    let images: Vec<cc_tensor::Tensor> = (0..2).map(|i| test.image(i).clone()).collect();
    let faults = Arc::new(Mutex::new(Vec::new()));
    let faults_in = Arc::clone(&faults);
    let pipe: PipelineExecutor<usize> = PipelineExecutor::with_env(
        net,
        2,
        1,
        StageEnv {
            faults: Some(Arc::new(FaultPlan::seeded(19).poison_every(1))),
            ..StageEnv::default()
        },
        Some(Arc::new(move |tag, fault| faults_in.lock().unwrap().push((tag, fault)))),
        move |_out, _tag| panic!("all-poisoned bands can never succeed"),
    );
    pipe.submit_traced(&images, 0, 0, Some(Instant::now()));
    pipe.submit_traced(&images, 1, 0, None);
    pipe.drain();

    let faults = faults.lock().unwrap();
    let (tag, late) = (faults[0].0, faults[0].1.expect("fault payload"));
    assert_eq!(tag, 0);
    assert!(late.deadline_blown, "a passed deadline must end the retry loop");
    assert_eq!(late.attempts, 1, "no retry may run after the deadline");
    let (tag, patient) = (faults[1].0, faults[1].1.expect("fault payload"));
    assert_eq!(tag, 1);
    assert!(!patient.deadline_blown);
    assert!(patient.attempts > 1, "without a deadline the budget is spent");
}

/// Every shard lane finishes its own rows of every conv, so recovery has
/// to hold for the *activations*, not only for the logits a batch ends
/// in: under seeded plans that poison, stall and kill lanes mid-network —
/// each faulted conv re-run, tripped lanes quarantined and the bands
/// re-planned over the survivors, which moves every lane's row range —
/// every layer's output digests equal the unsharded run's.
/// A retry that skipped the finishing step, or carved the maps along the
/// previous attempt's plan, would leave a stale or misplaced band here.
#[test]
fn recovered_convs_leave_every_intermediate_activation_bit_identical() {
    let (train, test) =
        SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 6).generate(31);
    let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
    // A small array, so every conv spans several tile row-groups and all
    // three lanes really execute bands.
    let deployed = DeployedNetwork::build_with_array(
        &net,
        &identity_groups(&net),
        &train,
        ArrayConfig::new(4, 8, AccumWidth::Bits32),
    );
    let images: Vec<cc_tensor::Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
    let sched = deployed.scheduler();

    // Every layer's output, in order: map digests, then logit bits.
    // The set runs the walk as its scratch's own, and is handed back.
    let walk = |bands: &mut BandSet| {
        let mut scratch = ActivationScratch::new();
        std::mem::swap(scratch.bands_mut(), bands);
        let mut seen: Vec<u64> = Vec::new();
        let mut data = BatchOutput::Maps(deployed.quantize_batch_scratch(&images, &mut scratch));
        for layer in deployed.layers() {
            let BatchOutput::Maps(maps) = data else {
                panic!("layers scheduled after the classifier head");
            };
            data = run_layer_batch_scratch(layer, &maps, &sched, &mut scratch);
            match &data {
                BatchOutput::Maps(out) => seen.extend(out.iter().map(|m| m.digest())),
                BatchOutput::Logits(out) => {
                    seen.extend(out.iter().flatten().map(|l| u64::from(l.to_bits())));
                }
            }
            scratch.recycle_batch(maps);
        }
        std::mem::swap(scratch.bands_mut(), bands);
        seen
    };
    let want = walk(&mut BandSet::new(1));

    let (mut faults, mut retries, mut quarantines) = (0u32, 0u32, 0u32);
    for seed in 0..6u64 {
        // One lane dies a few band executions in, roughly every fourth
        // execution elsewhere is poisoned and every fifth stalls.
        let plan = FaultPlan::seeded(0x19_0000 + seed)
            .kill_lane_after((seed % 3) as usize, 1 + seed)
            .poison_every(4)
            .stall_every(5, 20);
        let mut set = BandSet::new(3);
        set.set_fault_injector(Some(Arc::new(plan)));
        set.set_health_config(ShardHealthConfig {
            retry_budget: 24,
            backoff: Duration::ZERO,
            probe_after: 3,
            ..ShardHealthConfig::default()
        });
        // Several batches, so the kill, the quarantine re-plan and the
        // half-open probes that readmit (and re-trip) the dead lane all
        // land between one conv and the next.
        for round in 0..4 {
            assert_eq!(walk(&mut set), want, "seed {seed} round {round}: activations moved");
        }
        for event in set.take_health_events() {
            match event {
                HealthEvent::Fault { .. } => faults += 1,
                HealthEvent::Retry { .. } => retries += 1,
                HealthEvent::Quarantine { .. } => quarantines += 1,
                HealthEvent::Readmit { .. } => {}
            }
        }
    }
    assert!(faults > 0 && retries > 0 && quarantines > 0, "the plans must exercise recovery");
}

/// The lane-side half of the same contract, on the scatter itself: under
/// a seeded plan a `Dead` band's finishing step is never called (its rows
/// were never produced), every other band's is called exactly once, and
/// what it is handed is the lane's own rows — the unsharded plane's,
/// bit-inverted when the lane was poisoned.
#[test]
fn finishing_steps_run_once_per_live_band_and_never_for_a_dead_one() {
    let f = sparse_matrix(60, 30, 0.3, 37);
    let qp = QuantPacked::quantize(&pack_columns(
        &f,
        &group_columns(&f, &GroupingConfig::paper_default()),
    ));
    let sched = TiledScheduler::new(ArrayConfig::new(4, 8, AccumWidth::Bits32));
    let prepared = sched.prepare_packed(&qp);
    let d = QuantMatrix::quantize(&sparse_matrix(30, 7, 1.0, 38));
    let l = d.cols();
    let mut reference = RunScratch::new();
    sched.run_prepared_with(&prepared, &d, &mut reference);

    let faults = FaultPlan::seeded(37).kill_lane_after(1, 3).poison_every(3).stall_every(4, 10);
    let plan = prepared.partition_row_bands(4);
    assert_eq!(plan.len(), 4);
    let mut primary = RunScratch::new();
    let mut aux = vec![RunScratch::new(); 3];
    let mut seen = [0u32; 4]; // dead, poisoned, stalled, ran
    for run in 0..24u64 {
        let mut lanes: Vec<BandLane> = (0..4)
            .map(|lane| BandLane {
                action: faults.band_action(lane, run),
                ..BandLane::new(sched.config().geometry())
            })
            .collect();
        let mut calls: Vec<Vec<Vec<i32>>> = vec![Vec::new(); 4];
        let mut steps: Vec<_> = calls
            .iter_mut()
            .zip(&plan)
            .map(|(calls, mine)| {
                move |band: &RowBand, words: &[i32]| {
                    assert_eq!(band, mine, "a step was handed another band");
                    calls.push(words.to_vec());
                }
            })
            .collect();
        sched.run_bands_then(&prepared, &plan, &d, &mut primary, &mut aux, &mut lanes, &mut steps);
        drop(steps);

        for ((band, lane), calls) in plan.iter().zip(&lanes).zip(&calls) {
            let rows = &reference.outputs()[band.rows().start * l..band.rows().end * l];
            match lane.outcome {
                BandOutcome::Dead => {
                    assert!(calls.is_empty(), "run {run}: a dead band's step was called");
                    seen[0] += 1;
                }
                BandOutcome::Poisoned => {
                    let garbage: Vec<i32> = rows.iter().map(|w| !w).collect();
                    assert_eq!(calls[..], [garbage], "run {run}: poison is garbage in");
                    seen[1] += 1;
                }
                BandOutcome::Stalled | BandOutcome::Ran => {
                    assert_eq!(calls[..], [rows.to_vec()], "run {run}: unfinished rows");
                    seen[2 + usize::from(lane.outcome == BandOutcome::Ran)] += 1;
                }
            }
            assert_eq!(lane.action == BandAction::Dead, lane.outcome == BandOutcome::Dead);
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "the plan must produce every outcome: {seen:?}");
}
