//! Integration tests for the serving runtime: concurrent batched serving
//! must be bit-identical to serial inference, telemetry must be coherent,
//! and admission control must shed rather than buffer without bound.

use cc_dataset::{Dataset, SyntheticSpec};
use cc_deploy::{identity_groups, DeployedNetwork};
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_packing::{ColumnCombineConfig, ColumnCombiner};
use cc_serve::batcher::Batcher;
use cc_serve::cache::OPEN_ENTRIES;
use cc_serve::{
    CacheConfig, ModelRegistry, QosClass, ResponseCache, ServeConfig, Server, SubmitError,
    SubmitOptions, WaitError,
};
use cc_tensor::Tensor;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A small column-combined LeNet deployed end to end (trained for one
/// iteration — serving correctness does not need accuracy).
fn combined_lenet(seed: u64) -> (DeployedNetwork, Dataset) {
    let (train, test) =
        SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 16).generate(seed);
    let mut net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
    let cfg = ColumnCombineConfig {
        rho: net.nonzero_conv_weights() / 2,
        epochs_per_iteration: 1,
        final_epochs: 0,
        ..ColumnCombineConfig::default()
    };
    let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
    (DeployedNetwork::build(&net, &groups, &train), test)
}

/// An untrained, uncombined deployment — the cheapest way to mint a
/// distinct pipeline identity.
fn tiny(seed: u64) -> DeployedNetwork {
    let (train, _) =
        SyntheticSpec::mnist_like().with_size(8, 8).with_samples(16, 4).generate(seed);
    let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
    DeployedNetwork::build(&net, &identity_groups(&net), &train)
}

/// An untrained but larger deployment whose per-request cost is high
/// enough to keep workers busy while a burst arrives.
fn slow_lenet() -> (DeployedNetwork, Dataset) {
    let (train, test) =
        SyntheticSpec::mnist_like().with_size(16, 16).with_samples(16, 8).generate(11);
    let net = lenet5_shift(&ModelConfig::new(1, 16, 16, 10));
    (DeployedNetwork::build(&net, &identity_groups(&net), &train), test)
}

/// Tentpole acceptance: 4 workers serving 256+ queued requests with
/// dynamic batching, bit-identical to serial execution, with coherent
/// telemetry.
#[test]
fn four_workers_256_requests_bit_identical_with_telemetry() {
    let (deployed, test) = combined_lenet(42);
    let images: Vec<Tensor> = (0..256).map(|i| test.image(i % test.len()).clone()).collect();
    let serial: Vec<Vec<f32>> = images.iter().map(|im| deployed.logits(im)).collect();

    let registry = ModelRegistry::new().with_model("lenet", deployed);
    let server = Server::start(
        registry,
        ServeConfig::default()
            .with_workers(4)
            .with_max_batch(8)
            .with_batch_deadline(Duration::from_millis(2))
            .with_queue_capacity(512),
    );

    let tickets: Vec<_> = images
        .iter()
        .map(|im| server.submit("lenet", im.clone()).expect("capacity 512 admits all"))
        .collect();

    let mut batch_sizes = Vec::new();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().expect("request served");
        assert_eq!(
            response.logits, serial[i],
            "request {i} served concurrently diverged from serial inference"
        );
        assert!(response.latency > Duration::ZERO);
        batch_sizes.push(response.batch_size);
    }
    assert!(
        batch_sizes.iter().any(|&b| b > 1),
        "a 256-request burst over 4 workers must coalesce some batches"
    );

    let stats = server.shutdown();
    assert_eq!(stats.submitted, 256);
    assert_eq!(stats.completed, 256);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.batches > 0 && stats.batches < 256, "batches: {}", stats.batches);
    assert!(
        stats.mean_batch_occupancy > 1.0,
        "burst occupancy should exceed 1: {}",
        stats.mean_batch_occupancy
    );
    assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99, "percentiles must be ordered");
    assert!(stats.p99 > Duration::ZERO);
    assert!(stats.throughput_rps > 0.0);
}

/// The scatter/gather scheduler: serving with a shard pool (and an auto
/// pipeline depth) must stay bit-identical to serial inference and must
/// surface per-stage and per-shard occupancy.
#[test]
fn sharded_serving_is_bit_identical_with_occupancy_telemetry() {
    use cc_systolic::array::ArrayConfig;
    use cc_tensor::quant::AccumWidth;
    // An 8-row array gives the tiny LeNet's convs several tile row-groups,
    // so a shard pool genuinely fans out instead of collapsing to 1 band.
    let (train, test) =
        SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 16).generate(77);
    let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
    let deployed = DeployedNetwork::build_with_array(
        &net,
        &identity_groups(&net),
        &train,
        ArrayConfig::new(8, 32, AccumWidth::Bits32),
    );
    let images: Vec<Tensor> = (0..96).map(|i| test.image(i % test.len()).clone()).collect();
    let serial: Vec<Vec<f32>> = images.iter().map(|im| deployed.logits(im)).collect();

    for (stages, shards) in [(1usize, 2usize), (0, 3), (2, 2)] {
        let registry = ModelRegistry::new().with_model("lenet", deployed.clone());
        let server = Server::start(
            registry,
            ServeConfig::default()
                .with_workers(2)
                .with_max_batch(8)
                .with_queue_capacity(256)
                .with_pipeline_stages(stages)
                .with_shards(shards),
        );
        let tickets: Vec<_> = images
            .iter()
            .map(|im| server.submit("lenet", im.clone()).expect("capacity admits all"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait().expect("request served");
            assert_eq!(
                response.logits, serial[i],
                "request {i} diverged under stages={stages} shards={shards}"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 96);
        assert!(
            !stats.stage_busy.is_empty() && stats.stage_busy[0] > 0.0,
            "stage occupancy must be recorded (stages={stages})"
        );
        assert!(
            stats.shard_busy.len() >= shards.min(2),
            "shard lanes must record occupancy: {:?} (shards={shards})",
            stats.shard_busy
        );
    }
}

/// Heterogeneous fleet serving: a server configured with mixed array
/// geometries must stay bit-identical to serial inference (geometry
/// shapes only the cost model, never the arithmetic) and must surface
/// per-geometry busy fractions alongside the per-lane gauges — in both
/// the serial-worker path (stages=1) and the pipelined path (stages=2).
#[test]
fn fleet_serving_is_bit_identical_with_per_geometry_telemetry() {
    use cc_systolic::array::ArrayConfig;
    use cc_systolic::ArrayGeometry;
    use cc_tensor::quant::AccumWidth;
    let (train, test) =
        SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 16).generate(78);
    let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
    let deployed = DeployedNetwork::build_with_array(
        &net,
        &identity_groups(&net),
        &train,
        ArrayConfig::new(8, 32, AccumWidth::Bits32),
    );
    let images: Vec<Tensor> = (0..64).map(|i| test.image(i % test.len()).clone()).collect();
    let serial: Vec<Vec<f32>> = images.iter().map(|im| deployed.logits(im)).collect();

    // One full-strength array plus one quarter-size straggler.
    let fleet = vec![ArrayGeometry::new(8, 32), ArrayGeometry::new(2, 8)];
    for stages in [1usize, 2] {
        let registry = ModelRegistry::new().with_model("lenet", deployed.clone());
        let cfg = ServeConfig::default()
            .with_workers(2)
            .with_max_batch(8)
            .with_queue_capacity(128)
            .with_pipeline_stages(stages)
            .with_fleet(fleet.clone());
        assert_eq!(cfg.shards, 2, "the fleet length must set the shard count");
        let server = Server::start(registry, cfg);
        let tickets: Vec<_> = images
            .iter()
            .map(|im| server.submit("lenet", im.clone()).expect("capacity admits all"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait().expect("request served");
            assert_eq!(
                response.logits, serial[i],
                "request {i} diverged under a mixed fleet (stages={stages})"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 64);
        let labels: Vec<&str> =
            stats.shard_geometry_busy.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            ["8x32-MX8", "2x8-MX8"],
            "snapshot must report one entry per geometry, in fleet order (stages={stages})"
        );
        assert!(
            stats.shard_geometry_busy.iter().any(|(_, f)| *f > 0.0),
            "some geometry must have absorbed kernel time (stages={stages})"
        );
        let exposition = stats.to_json();
        assert!(
            exposition.contains("\"shard_geometry_busy\":{\"8x32-MX8\":"),
            "JSON exposition must carry the geometry view: {exposition}"
        );
    }
}

#[test]
fn two_models_are_batched_separately_and_served_correctly() {
    let (a, test_a) = combined_lenet(7);
    let (b, test_b) = combined_lenet(8);
    let expect_a = a.logits(test_a.image(0));
    let expect_b = b.logits(test_b.image(0));

    let registry = ModelRegistry::new().with_model("a", a).with_model("b", b);
    let server = Server::start(registry, ServeConfig::default().with_workers(2));

    let tickets: Vec<_> = (0..32)
        .map(|i| {
            if i % 2 == 0 {
                ("a", server.submit("a", test_a.image(0).clone()).unwrap())
            } else {
                ("b", server.submit("b", test_b.image(0).clone()).unwrap())
            }
        })
        .collect();
    for (model, ticket) in tickets {
        let response = ticket.wait().expect("served");
        let expected = if model == "a" { &expect_a } else { &expect_b };
        assert_eq!(&response.logits, expected, "model {model} served wrong logits");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 32);
}

#[test]
fn admission_control_rejects_bad_requests_and_sheds_under_overload() {
    let (deployed, test) = slow_lenet();
    let good = test.image(0).clone();
    let registry = ModelRegistry::new().with_model("lenet", deployed);
    let server = Server::start(
        registry,
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(1)
            .with_batch_deadline(Duration::ZERO)
            .with_queue_capacity(2),
    );

    // Unknown model.
    assert!(matches!(
        server.submit("nope", good.clone()),
        Err(SubmitError::UnknownModel(_))
    ));
    // Wrong input shape.
    let wrong = Tensor::zeros(cc_tensor::Shape::d3(1, 4, 4));
    assert!(matches!(
        server.submit("lenet", wrong),
        Err(SubmitError::InvalidShape { expected: (1, 16, 16), .. })
    ));

    // Overload: a burst far beyond queue capacity with one slow worker
    // must shed rather than buffer.
    let mut tickets = Vec::new();
    let mut sheds = 0u64;
    for _ in 0..64 {
        match server.submit("lenet", good.clone()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QueueFull) => sheds += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(sheds > 0, "64-burst into capacity-2 queue must shed");
    let accepted = tickets.len() as u64;
    for ticket in tickets {
        assert!(ticket.wait().is_some(), "accepted requests must still be served");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, accepted);
    assert_eq!(stats.shed, sheds);
    assert_eq!(stats.submitted, accepted);
}

/// Tentpole acceptance: stage-pipelined execution (K ≥ 2) must serve the
/// exact logits the serial `run_batch` path produces, under concurrent
/// batched load, and still drain cleanly at shutdown.
#[test]
fn pipelined_serving_is_bit_identical_to_serial() {
    let (deployed, test) = combined_lenet(13);
    let images: Vec<Tensor> = (0..96).map(|i| test.image(i % test.len()).clone()).collect();
    let serial: Vec<Vec<f32>> = images.iter().map(|im| deployed.logits(im)).collect();
    assert!(deployed.num_layers() >= 3, "need enough layers for a 3-stage pipeline");

    let registry = ModelRegistry::new().with_model("lenet", deployed);
    let server = Server::start(
        registry,
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(4)
            .with_batch_deadline(Duration::from_millis(2))
            .with_queue_capacity(256)
            .with_pipeline_stages(3),
    );

    let tickets: Vec<_> = images
        .iter()
        .map(|im| server.submit("lenet", im.clone()).expect("capacity admits the burst"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().expect("request served");
        assert_eq!(
            response.logits, serial[i],
            "request {i} served through the stage pipeline diverged from serial inference"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 96);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99);
}

/// A pipeline deeper than the layer count must clamp, not die: the extreme
/// configuration still serves every request bit-identically.
#[test]
fn oversized_stage_count_clamps_to_layer_count() {
    let (deployed, test) = combined_lenet(14);
    let expect = deployed.logits(test.image(0));
    let layers = deployed.num_layers();
    let registry = ModelRegistry::new().with_model("m", deployed);
    let server = Server::start(
        registry,
        ServeConfig::default().with_workers(1).with_pipeline_stages(layers + 16),
    );
    let tickets: Vec<_> =
        (0..8).map(|_| server.submit("m", test.image(0).clone()).unwrap()).collect();
    for ticket in tickets {
        assert_eq!(ticket.wait().expect("served").logits, expect);
    }
    assert_eq!(server.shutdown().completed, 8);
}

/// Regression for the co-batching bug: workers run a whole batch on the
/// first request's network, so the batcher must key on *network identity*
/// (the `Arc` pointer), never on model name alone — two distinct deployed
/// pipelines that coexist under one name (e.g. across a registry
/// hot-swap) may not share a batch.
#[test]
fn two_networks_under_one_name_never_co_batch() {
    let a = tiny(1);
    let b = tiny(2);
    assert_ne!(a.identity(), b.identity());

    // The server's exact batch key: network identity, with the model name
    // carried only as payload.
    let (tx, rx) = mpsc::channel();
    let now = Instant::now();
    for net in [&a, &b, &a] {
        tx.send(("model", net.clone(), now)).unwrap();
    }
    drop(tx);
    let mut batcher = Batcher::new(
        rx,
        8,
        Duration::from_millis(1),
        |r: &(&str, DeployedNetwork, Instant)| r.1.identity(),
        |r: &(&str, DeployedNetwork, Instant)| r.2,
    );

    let first = batcher.next_batch().expect("first batch");
    assert_eq!(first.len(), 2, "both requests for pipeline A coalesce");
    assert!(first.iter().all(|r| r.1.identity() == a.identity()));
    let second = batcher.next_batch().expect("second batch");
    assert_eq!(second.len(), 1, "pipeline B must ride alone");
    assert_eq!(second[0].1.identity(), b.identity());
    assert!(batcher.next_batch().is_none());
}

/// A pipelined worker keeps an LRU-bounded cache of per-network stage
/// pipelines; rotating across more models than the cache holds must
/// evict-and-drain stale pipelines without losing or mis-serving a single
/// request.
#[test]
fn pipelined_worker_evicts_stale_pipelines_without_dropping_requests() {
    let nets: Vec<DeployedNetwork> = (21..27).map(tiny).collect();
    let (_, probe) = SyntheticSpec::mnist_like().with_size(8, 8).with_samples(4, 2).generate(3);
    let image = probe.image(0).clone();
    let expected: Vec<Vec<f32>> = nets.iter().map(|n| n.logits(&image)).collect();

    let mut registry = ModelRegistry::new();
    for (i, n) in nets.iter().enumerate() {
        registry.register(format!("m{i}"), n.clone());
    }
    let server = Server::start(
        registry,
        ServeConfig::default().with_workers(1).with_pipeline_stages(2),
    );

    // Two sequential round-robin passes: the second revisits pipelines the
    // first pass evicted (6 models > the worker's cache bound).
    let mut served = 0u64;
    for _ in 0..2 {
        for (i, expect) in expected.iter().enumerate() {
            let ticket = server.submit(&format!("m{i}"), image.clone()).expect("admitted");
            let response = ticket.wait().expect("served across eviction");
            assert_eq!(&response.logits, expect, "model m{i} served wrong logits");
            served += 1;
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, served);
    assert_eq!(stats.shed, 0);
}

/// Tentpole acceptance: with the memo-cache enabled, repeated inputs are
/// served bit-identically to serial inference, the hit/miss counters
/// reconcile with the traffic, and hits bypass the array (batch_size 0).
#[test]
fn memo_cache_serves_repeats_bit_identically() {
    let (deployed, test) = combined_lenet(31);
    let distinct = 4usize;
    let serial: Vec<Vec<f32>> =
        (0..distinct).map(|i| deployed.logits(test.image(i))).collect();

    let registry = ModelRegistry::new().with_model("lenet", deployed);
    let server = Server::start(
        registry,
        ServeConfig::default()
            .with_workers(2)
            .with_queue_capacity(512)
            .with_cache(CacheConfig::bounded(64, 1 << 20)),
    );

    // Zipf-ish repetition: every request is one of `distinct` images.
    let total = 96usize;
    let mut cached_responses = 0u64;
    for r in 0..total {
        let i = r % distinct;
        let ticket = server.submit("lenet", test.image(i).clone()).expect("admitted");
        let response = ticket.wait().expect("served");
        assert_eq!(
            response.logits, serial[i],
            "request {r} (image {i}) diverged from serial inference"
        );
        if response.batch_size == 0 {
            cached_responses += 1;
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, total as u64);
    assert_eq!(stats.cache.hits, cached_responses, "hit counter matches cached responses");
    assert!(
        stats.cache.hits >= (total - 2 * distinct) as u64,
        "a 4-image working set over {total} requests must mostly hit: {} hits",
        stats.cache.hits
    );
    assert!(stats.cache.misses >= distinct as u64, "each distinct image misses at least once");
    assert_eq!(stats.cache.entries, distinct as u64, "one entry per distinct input");
    assert_eq!(
        stats.submitted + stats.cache.hits,
        total as u64,
        "hits never touch the admission queue"
    );
}

/// Past a shard's first `OPEN_ENTRIES` entries the cache stores a response
/// on its input's second sighting, so a scan of inputs nobody repeats —
/// ten times the entry budget here — leaves the cache to the few it
/// parked while the shard was open and to the one input that does repeat:
/// held back at its first request, stored by its second, a hit from its
/// third on, and nothing is ever evicted. (The second request comes
/// straight after the first: the doorkeeper remembers about as many keys
/// as the shard may hold entries, and which of them a scan overwrites
/// first depends on the tags it happens to bring.)
#[test]
fn a_scan_of_one_time_inputs_neither_fills_nor_evicts_the_cache() {
    let (deployed, test) = combined_lenet(37);
    let hot = test.image(0).clone();
    let hot_logits = deployed.logits(&hot);
    // Scan input `k`: image 1 with `k` spelt in its first ten pixels,
    // far enough apart to survive quantization.
    let swing = deployed.quantize_input(&hot).scale() * 100.0;
    let scan = |k: usize| {
        let mut image = test.image(1).clone();
        for (bit, pixel) in image.as_mut_slice()[..10].iter_mut().enumerate() {
            *pixel = if (k >> bit) & 1 == 1 { swing } else { -swing };
        }
        image
    };
    const ENTRIES: usize = 4 * OPEN_ENTRIES;
    let server = Server::start(
        ModelRegistry::new().with_model("lenet", deployed),
        ServeConfig::default()
            .with_workers(2)
            .with_cache(CacheConfig::bounded(ENTRIES, 1 << 20).with_shards(1)),
    );
    let serve =
        |image: Tensor| server.submit("lenet", image).expect("admitted").wait().expect("served");

    let mut scanned = 0;
    let mut scan_some = |n: usize| {
        for _ in 0..n {
            assert_ne!(serve(scan(scanned)).batch_size, 0, "scan input {scanned} was never sent");
            scanned += 1;
        }
    };
    scan_some(OPEN_ENTRIES);
    assert_eq!(server.telemetry().cache.entries, OPEN_ENTRIES as u64, "an open shard stores all");
    for sighting in 1..=5 {
        scan_some(if sighting == 2 { 0 } else { 5 * ENTRIES / 2 });
        let response = serve(hot.clone());
        assert_eq!(response.logits, hot_logits, "sighting {sighting}");
        assert_eq!(response.batch_size == 0, sighting >= 3, "sighting {sighting} of the hot input");
    }
    let stats = server.shutdown();
    assert!(scanned > 10 * ENTRIES);
    assert_eq!(stats.cache.hits, 3);
    assert_eq!(stats.cache.entries, OPEN_ENTRIES as u64 + 1, "the parked few and the repeated one");
    assert_eq!(stats.cache.evictions, 0, "one-time inputs cannot evict what they never displace");
    assert_eq!(
        stats.cache.deferred,
        (scanned - OPEN_ENTRIES) as u64 + 1,
        "every first sighting past the open region was held back"
    );
}

/// Per-tenant quotas: a tenant at its in-flight limit sheds with
/// `QuotaExceeded`, quota slots free on completion, and untagged requests
/// bypass accounting entirely.
#[test]
fn tenant_quota_sheds_excess_and_releases_on_completion() {
    let (deployed, test) = slow_lenet();
    let image = test.image(0).clone();
    let registry = ModelRegistry::new().with_model("m", deployed);
    let server = Server::start(
        registry,
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(64)
            .with_tenant_quota(2),
    );

    let opts = || SubmitOptions::new().with_tenant("acme").with_class(QosClass::Batch);
    let mut tickets = Vec::new();
    let mut quota_sheds = 0u64;
    for _ in 0..8 {
        match server.submit_with("m", image.clone(), opts()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QuotaExceeded { tenant }) => {
                assert_eq!(tenant, "acme");
                quota_sheds += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(tickets.len(), 2, "quota 2 admits exactly two in-flight requests");
    assert_eq!(quota_sheds, 6);
    assert_eq!(server.tenant_in_flight("acme"), 2);
    // Another tenant and untagged traffic are unaffected.
    let other = server
        .submit_with("m", image.clone(), SubmitOptions::new().with_tenant("blm"))
        .expect("other tenant has its own budget");
    let untagged = server.submit("m", image.clone()).expect("untagged bypasses quotas");

    for t in tickets.drain(..) {
        assert!(t.wait().is_some(), "admitted requests must still be served");
    }
    assert!(other.wait().is_some());
    assert!(untagged.wait().is_some());
    // Completions released the quota slots.
    assert_eq!(server.tenant_in_flight("acme"), 0);
    let again = server.submit_with("m", image.clone(), opts()).expect("slots freed");
    assert!(again.wait().is_some());

    let stats = server.shutdown();
    assert_eq!(stats.shed, quota_sheds);
    assert_eq!(
        stats.shed_by_class[QosClass::Batch.index()],
        quota_sheds,
        "quota sheds land on the request's class"
    );
    assert_eq!(stats.deadline_shed, 0);
}

/// Deadline-aware shedding: requests whose deadline blows while queued
/// resolve with `WaitError::DeadlineExceeded` instead of occupying the
/// array, and every submitted request resolves one way or the other.
#[test]
fn blown_deadlines_resolve_tickets_with_deadline_exceeded() {
    let (deployed, test) = slow_lenet();
    let image = test.image(0).clone();
    let registry = ModelRegistry::new().with_model("m", deployed);
    let server = Server::start(
        registry,
        ServeConfig::default()
            .with_workers(1)
            .with_max_batch(1)
            .with_batch_deadline(Duration::ZERO)
            .with_queue_capacity(64),
    );

    // Saturate the single worker, then queue a burst with deadlines short
    // enough to blow while it grinds (at most a couple can be picked up
    // before the sweep at the next batch-formation point sheds the rest —
    // 10µs is far below the slow model's per-request cost, so the burst
    // sheds on any machine speed).
    let warm = server.submit("m", image.clone()).expect("admitted");
    let doomed: Vec<_> = (0..8)
        .map(|_| {
            server
                .submit_with(
                    "m",
                    image.clone(),
                    SubmitOptions::new().with_deadline(Duration::from_micros(10)),
                )
                .expect("queue has room")
        })
        .collect();

    assert!(warm.wait().is_some(), "the in-flight request completes normally");
    let mut shed = 0u64;
    let mut served = 0u64;
    for t in doomed {
        match t.wait_result() {
            Err(WaitError::DeadlineExceeded) => shed += 1,
            Ok(_) => served += 1,
            Err(e) => panic!("unexpected wait error: {e}"),
        }
    }
    assert!(shed > 0, "10µs deadlines behind a slow worker must shed");
    let stats = server.shutdown();
    assert_eq!(stats.deadline_shed, shed);
    assert_eq!(stats.completed, served + 1);
    assert_eq!(
        stats.shed_by_class[QosClass::Standard.index()],
        shed,
        "deadline sheds land on the request's class"
    );
    assert_eq!(stats.queue_depth, 0, "shed requests must leave the depth gauge");
}

/// Satellite 4: multi-thread hammer on one cache — hit/miss/eviction
/// counters must reconcile exactly with the issued operations, and the
/// gauges must respect the configured bounds throughout.
#[test]
fn cache_counters_stay_consistent_under_concurrent_hammer() {
    let cache = std::sync::Arc::new(ResponseCache::new(CacheConfig {
        max_entries: 32,
        max_bytes: 64 * 1024,
        shards: 4,
    }));
    const THREADS: usize = 8;
    const OPS: usize = 2_000;
    let lookups = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = std::sync::Arc::clone(&cache);
            let lookups = std::sync::Arc::clone(&lookups);
            std::thread::spawn(move || {
                for op in 0..OPS {
                    // 48 keys over a 32-entry bound: steady-state churn.
                    let digest = ((t + op) % 48) as u64;
                    let qdata = [digest as i8; 16];
                    let logits = [digest as f32, t as f32];
                    lookups.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    match cache.lookup(1, digest, &qdata) {
                        Some(hit) => assert_eq!(
                            hit[0], digest as f32,
                            "a hit must return the exact logits stored for its key"
                        ),
                        None => cache.insert(1, digest, &qdata, &logits),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("hammer thread panicked");
    }

    let stats = cache.stats();
    let issued = lookups.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(stats.hits + stats.misses, issued, "every probe is a hit or a miss");
    assert!(stats.hits > 0 && stats.misses > 0, "churn exercises both outcomes");
    assert!(
        stats.entries <= cache.capacity_entries() as u64,
        "entry gauge within bounds: {} > {}",
        stats.entries,
        cache.capacity_entries()
    );
    assert!(stats.evictions > 0, "48 keys over a 32-entry bound must evict");
    // Inserts = misses (every miss inserts); entries + evictions can't
    // exceed them (racing same-key inserts replace, not add).
    assert!(
        stats.entries + stats.evictions <= stats.misses,
        "gauge arithmetic broke: {stats:?}"
    );
    assert!(stats.bytes > 0 && stats.bytes <= 64 * 1024, "byte gauge within budget");
}

#[test]
fn shutdown_resolves_outstanding_tickets() {
    let (deployed, test) = combined_lenet(9);
    let registry = ModelRegistry::new().with_model("m", deployed);
    let server = Server::start(registry, ServeConfig::default().with_workers(2));
    let tickets: Vec<_> =
        (0..32).map(|i| server.submit("m", test.image(i % test.len()).clone()).unwrap()).collect();
    let stats = server.shutdown();
    assert_eq!(stats.completed, 32);
    for ticket in tickets {
        assert!(ticket.wait().is_some(), "shutdown must drain, not drop, pending work");
    }
}
