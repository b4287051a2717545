//! Property suite for the self-tuning control plane and model hot-swap
//! (ISSUE 10). The claims pinned here:
//!
//! - **Hot-swap under load is seamless**: swapping a registry entry in
//!   the middle of a burst resolves every in-flight ticket, requests
//!   submitted before the swap finish bit-identically on the old
//!   network, requests submitted after it are bit-identical to a fresh
//!   server started on the new network — and the two never share a
//!   batch (batches key on network identity; workers assert batch
//!   uniformity, so a violation panics the test).
//! - **Live retunes never touch correctness**: resizing the worker
//!   pool, narrowing/widening the batch knobs, and re-planning the
//!   stage × shard grid mid-burst leave every response bit-identical to
//!   a fresh serial run.
//! - **A controller attached to a live server** makes its decisions
//!   (observable in telemetry) without ever breaking bit-identity or
//!   losing a request.

use cc_dataset::{Dataset, SyntheticSpec};
use cc_deploy::{identity_groups, DeployedNetwork};
use cc_nn::layer::LayerKind;
use cc_nn::layers::{Linear, PointwiseConv, Relu, Shift};
use cc_nn::Network;
use cc_serve::{
    ControlConfig, Controller, ModelRegistry, Profile, ProfileStore, ServeConfig, Server,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A deployed network over a random shape: 1-channel `size`×`size`
/// input, shift → pointwise(hidden) → relu → linear head. Distinct
/// seeds give distinct weights, hence distinct logits for the same
/// image — which is what lets the swap tests tell old from new.
fn deployed(hidden: usize, size: usize, seed: u64) -> (DeployedNetwork, Dataset) {
    let (train, test) = SyntheticSpec::mnist_like()
        .with_size(size, size)
        .with_samples(12, 5)
        .generate(seed);
    let net = Network::new(
        "prop-control",
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
    // Every case starts a server (threads, packing, calibration); keep
    // the case count modest and the RNG pinned so failures replay.
    #![proptest_config(ProptestConfig::with_cases(8).with_rng_seed(0xA5_1305_0010))]

    /// Swap mid-burst: all tickets resolve, pre-swap requests are
    /// bit-identical to the old network, post-swap requests to a fresh
    /// run of the new one, and the swap drains within its bound.
    #[test]
    fn hot_swap_mid_burst_is_seamless(
        hidden in 2usize..6,
        size in 3usize..7,
        seed in 0u64..1_000,
    ) {
        let (old_net, test) = deployed(hidden, size, seed);
        // The replacement shares the input shape (same `size`) but has
        // different weights and may have a different width.
        let (new_net, _) = deployed(hidden + 1, size, seed ^ 0x5EED);
        let fresh_old: Vec<Vec<f32>> =
            (0..test.len()).map(|i| old_net.logits(test.image(i))).collect();
        let fresh_new: Vec<Vec<f32>> =
            (0..test.len()).map(|i| new_net.logits(test.image(i))).collect();

        let registry = ModelRegistry::new().with_model("m", old_net);
        let server = Server::start(
            registry,
            ServeConfig::default()
                .with_workers(2)
                .with_max_batch(4)
                .with_batch_deadline(Duration::from_micros(200))
                .with_queue_capacity(64),
        );

        // First half of the burst rides the old network…
        let before: Vec<_> = (0..test.len())
            .map(|i| server.submit("m", test.image(i).clone()).expect("admitted"))
            .collect();
        // …then the entry is replaced while those are still in flight.
        let report = server
            .swap_model("m", new_net, Duration::from_secs(10))
            .expect("known model");
        prop_assert!(report.drained, "in-flight old-network work must drain in 10s");
        // …and the second half rides the new one.
        let after: Vec<_> = (0..test.len())
            .map(|i| server.submit("m", test.image(i).clone()).expect("admitted"))
            .collect();

        for (i, ticket) in before.into_iter().enumerate() {
            let response = ticket.wait().expect("pre-swap ticket resolves");
            prop_assert_eq!(
                &response.logits, &fresh_old[i],
                "pre-swap request {} must finish on the old network", i
            );
        }
        for (i, ticket) in after.into_iter().enumerate() {
            let response = ticket.wait().expect("post-swap ticket resolves");
            prop_assert_eq!(
                &response.logits, &fresh_new[i],
                "post-swap request {} must match a fresh server on the new network", i
            );
        }

        let stats = server.shutdown();
        prop_assert_eq!(stats.completed, 2 * test.len() as u64);
        prop_assert_eq!(stats.swaps, 1);
        prop_assert_eq!(stats.failed, 0u64);
    }

    /// Every live knob moves mid-burst — pool size, batch cap and
    /// deadline, stage depth, shard width — and every response stays
    /// bit-identical to a fresh serial run.
    #[test]
    fn live_retunes_preserve_bit_identity(
        hidden in 2usize..6,
        size in 3usize..7,
        seed in 0u64..1_000,
    ) {
        let (net, test) = deployed(hidden, size, seed);
        let fresh: Vec<Vec<f32>> =
            (0..test.len()).map(|i| net.logits(test.image(i))).collect();

        let registry = ModelRegistry::new().with_model("m", net);
        let server = Server::start(
            registry,
            ServeConfig::default()
                .with_workers(2)
                .with_pipeline_stages(2)
                .with_shards(2)
                .with_max_batch(4)
                .with_batch_deadline(Duration::from_micros(200))
                .with_queue_capacity(64),
        );

        // A different knob posture per round, changed while the
        // previous round's responses are still settling.
        let postures: [(usize, usize, usize, usize); 3] =
            [(1, 1, 2, 1), (3, 8, 1, 2), (2, 2, 2, 2)];
        for (workers, max_batch, stages, shards) in postures {
            server.resize_workers(workers);
            server.set_max_batch(max_batch);
            server.set_batch_deadline(Duration::from_micros(100));
            let (applied_stages, applied_shards) = server.retune_executors(stages, shards);
            prop_assert!(applied_stages <= 2 && applied_shards <= 2,
                "retunes clamp to the start-time grid");
            let tickets: Vec<_> = (0..test.len())
                .map(|i| server.submit("m", test.image(i).clone()).expect("admitted"))
                .collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let response = ticket.wait().expect("served across retune");
                prop_assert_eq!(
                    &response.logits, &fresh[i],
                    "response {} diverged under posture {:?}",
                    i, (workers, max_batch, stages, shards)
                );
            }
        }

        let stats = server.shutdown();
        prop_assert_eq!(stats.completed, 3 * test.len() as u64);
        prop_assert!(stats.retunes > 0, "knob moves must be counted");
        prop_assert_eq!(stats.failed, 0u64);
    }
}

/// A controller attached to a live server retunes it under a shifting
/// load without breaking bit-identity or losing a request — the
/// end-to-end shape of the autotune bench, shrunk to test size.
#[test]
fn controller_drives_a_live_server_without_breaking_identity() {
    let (net, test) = deployed(3, 5, 7);
    let fresh: Vec<Vec<f32>> = (0..test.len()).map(|i| net.logits(test.image(i))).collect();

    let registry = ModelRegistry::new().with_model("m", net);
    let server = Arc::new(Server::start(
        registry,
        ServeConfig::default()
            .with_workers(2)
            .with_shards(2)
            .with_max_batch(4)
            .with_batch_deadline(Duration::from_micros(200))
            .with_queue_capacity(256),
    ));

    let mut store = ProfileStore::new();
    store.observe(Profile {
        workers: 2,
        max_batch: 8,
        stages: 1,
        shards: 1,
        throughput_rps: 8000.0,
        p99_us: 700.0,
    });
    let cfg = ControlConfig {
        interval: Duration::from_millis(2),
        hysteresis_ticks: 1,
        cooldown_ticks: 1,
        ..ControlConfig::default()
    };
    let controller = Controller::attach(Arc::clone(&server), cfg, store);

    // Alternate a trickle and a flood so the regime actually shifts
    // under the controller while responses are checked for identity.
    let mut total = 0u64;
    for round in 0..6 {
        let repeats = if round % 2 == 0 { 1 } else { 8 };
        let tickets: Vec<_> = (0..repeats)
            .flat_map(|_| {
                (0..test.len())
                    .map(|i| (i, server.submit("m", test.image(i).clone()).expect("admitted")))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (i, ticket) in tickets {
            let response = ticket.wait().expect("served under controller");
            assert_eq!(
                response.logits, fresh[i],
                "response for image {i} diverged while the controller was live"
            );
            total += 1;
        }
        std::thread::sleep(Duration::from_millis(4));
    }

    let engine = controller.detach();
    // The controller observed saturated ticks, so the store must have
    // grown beyond (or refined) its single seeded profile.
    assert!(!engine.store().is_empty(), "online refinement never recorded a profile");

    let stats = Arc::try_unwrap(server).expect("controller detached").shutdown();
    assert_eq!(stats.completed, total);
    assert_eq!(stats.failed, 0);
}
