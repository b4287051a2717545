//! Self-tuning serving: attach the control plane to a live server, shift
//! the load under it, and watch it retune — then hot-swap the model
//! without dropping a request.
//!
//! ```text
//! cargo run --release -p cc-examples --example control_demo
//! ```
//!
//! The controller classifies each tick's load from telemetry deltas
//! (idle / interactive / steady / saturated) and moves the live knobs —
//! worker-pool size, batch cap and coalescing deadline, the stage ×
//! shard executor grid — guided by a profile store it fills and refines
//! online while saturated. Hysteresis + cooldown keep it from flapping. The swap at
//! the end replaces the registry entry mid-traffic: old-network batches
//! drain, new requests ride the warmed-up replacement, and the two never
//! share a batch.

use cc_dataset::SyntheticSpec;
use cc_deploy::{identity_groups, DeployedNetwork};
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_serve::{
    ControlConfig, Controller, ModelRegistry, ProfileStore, ServeConfig, Server, TraceConfig,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 1. Two deployments of the same architecture with different weights:
    //    v1 serves first, v2 is the hot-swap replacement.
    let (train, test) = SyntheticSpec::mnist_like()
        .with_size(12, 12)
        .with_samples(192, 48)
        .generate(41);
    let build = |seed: u64| {
        let net = lenet5_shift(&ModelConfig::new(1, 12, 12, 10).with_width(0.5).with_seed(seed));
        DeployedNetwork::build(&net, &identity_groups(&net), &train)
    };
    let v1 = build(1);
    let v2 = build(2);

    // 2. A live server with headroom for the controller to work in: the
    //    executor grid starts 2 stages × 2 shards, the pool can grow.
    let server = Arc::new(Server::start(
        ModelRegistry::new().with_model("lenet", v1),
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(4)
            .with_batch_deadline(Duration::from_millis(1))
            .with_queue_capacity(256)
            .with_pipeline_stages(2)
            .with_shards(2)
            .with_trace(TraceConfig::on()),
    ));

    // 3. Attach the control plane with an empty profile store: the
    //    controller learns every profile online.
    let controller = Controller::attach(
        Arc::clone(&server),
        ControlConfig { interval: Duration::from_millis(2), ..ControlConfig::default() },
        ProfileStore::new(),
    );

    // 4. Shift the load: a latency-sensitive trickle, then a flood.
    let drive = |label: &str, clients: usize, total: usize, pace: Option<Duration>| {
        std::thread::scope(|scope| {
            for c in 0..clients {
                let server = &server;
                let test = &test;
                scope.spawn(move || {
                    for i in (c..total).step_by(clients) {
                        if let Some(pace) = pace {
                            std::thread::sleep(pace);
                        }
                        let image = test.image(i % test.len()).clone();
                        if let Ok(ticket) = server.submit("lenet", image) {
                            let _ = ticket.wait();
                        }
                    }
                });
            }
        });
        let snap = server.telemetry();
        let (max_batch, deadline) = server.batch_knobs();
        let (stages, shards) = server.exec_plan();
        println!(
            "{label:>12}: {:>6.0} rps  p99 {:>7.0} µs | knobs now: {} workers, batch {} / {:?}, \
             {} stage(s) × {} shard(s), {} retunes",
            snap.throughput_rps,
            snap.p99.as_secs_f64() * 1e6,
            server.worker_target(),
            max_batch,
            deadline,
            stages,
            shards,
            snap.retunes,
        );
    };
    drive("trickle", 2, 128, Some(Duration::from_micros(400)));
    drive("flood", 24, 768, None);

    // 5. Hot-swap to v2 while a burst is still in flight.
    let tickets: Vec<_> = (0..48)
        .filter_map(|i| server.submit("lenet", test.image(i % test.len()).clone()).ok())
        .collect();
    let report = server
        .swap_model("lenet", v2, Duration::from_secs(5))
        .expect("registered model");
    println!(
        "hot-swap: drained={} in {:?}; {} in-flight tickets still resolve",
        report.drained,
        report.waited,
        tickets.len()
    );
    let resolved = tickets.into_iter().filter_map(|t| t.wait()).count();
    println!("   ...{resolved} resolved on the old network");
    drive("post-swap", 8, 256, None);

    // 6. Detach: the engine comes back with its online-refined profiles.
    let engine = controller.detach();
    println!(
        "controller detached; profile store now holds {} measured configs",
        engine.store().len()
    );
    let stats = Arc::try_unwrap(server).expect("sole owner after detach").shutdown();
    println!(
        "served {} requests, {} retunes, {} swap(s), 0 failed: {}",
        stats.completed,
        stats.retunes,
        stats.swaps,
        stats.failed == 0,
    );
}
