//! Multi-array sharding demo: one deployed network carved across N
//! simulated systolic arrays as row-band shards (each conv's output rows
//! split across arrays) — with bit-identical results, a scaling table
//! (simulated-cycle makespan beside host images per second), and a
//! sharded serving run through `cc-serve`.
//!
//! ```text
//! cargo run --release -p cc-examples --example shard_demo
//! ```

use cc_dataset::SyntheticSpec;
use cc_deploy::{ActivationScratch, BandSet, DeployedNetwork};
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_packing::{ColumnCombineConfig, ColumnCombiner};
use cc_serve::{ModelRegistry, ServeConfig, Server};
use cc_systolic::array::ArrayConfig;
use cc_tensor::quant::AccumWidth;
use cc_tensor::Tensor;
use std::time::{Duration, Instant};

fn main() {
    // 1. Train + column-combine a small network, deploy it once on a
    // small-row array so convs span several tile row-groups.
    let (train, test) = SyntheticSpec::mnist_like()
        .with_size(12, 12)
        .with_samples(256, 64)
        .generate(31);
    let mut net = lenet5_shift(&ModelConfig::new(1, 12, 12, 10).with_width(0.5));
    let cfg = ColumnCombineConfig {
        rho: net.nonzero_conv_weights() / 2,
        epochs_per_iteration: 1,
        final_epochs: 1,
        ..ColumnCombineConfig::default()
    };
    let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
    let deployed = DeployedNetwork::build_with_array(
        &net,
        &groups,
        &train,
        ArrayConfig::new(8, 32, AccumWidth::Bits32),
    );

    let images: Vec<Tensor> = (0..8).map(|i| test.image(i % test.len()).clone()).collect();
    let serial = deployed.run_batch(&images);

    // 2. Shard it 1..4 ways: bit-identity, the simulated-cycle makespan
    // each extra array buys, and what the host makes of it (printed, not
    // asserted: it depends on the box — row bands run on a thread per
    // lane).
    println!("sharding one model across N simulated arrays (batch of {}):", images.len());
    println!("  shards  makespan_cycles  speedup  host_img_per_s");
    let sched = deployed.scheduler();
    let mut scratch = ActivationScratch::new();
    let mut base = 0u64;
    let mut base_mac_ops = 0u64;
    for shards in 1..=4 {
        let mut bands = BandSet::new(shards);
        let logits = deployed.run_batch_banded(&sched, &images, &mut scratch, &mut bands);
        assert_eq!(logits, serial, "sharded execution must be bit-identical to unsharded");
        let (makespan, merged) = (bands.makespan_cycles(), bands.merged_stats());
        if shards == 1 {
            base = makespan;
            base_mac_ops = merged.mac_ops;
        }
        assert_eq!(merged.mac_ops, base_mac_ops, "the scatter must conserve total work");
        // Warm scratch, a fifth of a second of batches.
        let (started, mut batches) = (Instant::now(), 0usize);
        while started.elapsed() < Duration::from_millis(200) {
            std::hint::black_box(deployed.run_batch_banded(
                &sched,
                &images,
                &mut scratch,
                &mut bands,
            ));
            batches += 1;
        }
        println!(
            "  {:>6}  {:>15}  {:>6.2}x  {:>14.0}",
            bands.shards(),
            makespan,
            base as f64 / makespan.max(1) as f64,
            (batches * images.len()) as f64 / started.elapsed().as_secs_f64(),
        );
    }

    // 3. Serve the same burst through the scatter/gather scheduler: a
    // shard pool per worker (and an auto-chosen pipeline depth).
    let registry = ModelRegistry::new().with_model("lenet", deployed.clone());
    let server = Server::start(
        registry,
        ServeConfig::default()
            .with_workers(2)
            .with_max_batch(8)
            .with_batch_deadline(Duration::from_millis(1))
            .with_queue_capacity(256)
            .with_pipeline_stages(0) // auto from the layer cost model
            .with_shards(2),
    );
    let burst: Vec<Tensor> = (0..96).map(|i| test.image(i % test.len()).clone()).collect();
    let expected: Vec<Vec<f32>> = burst.iter().map(|im| deployed.logits(im)).collect();
    let tickets: Vec<_> = burst
        .iter()
        .map(|im| server.submit("lenet", im.clone()).expect("queue sized for the burst"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().expect("request served");
        assert_eq!(response.logits, expected[i], "sharded serving diverged on request {i}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed as usize, burst.len());
    println!(
        "served {} requests through 2 workers x 2-shard pools, bit-identically \
         ({:.0} req/s, shard occupancy {:?})",
        burst.len(),
        stats.throughput_rps,
        stats.shard_busy.iter().map(|f| (f * 100.0).round() / 100.0).collect::<Vec<_>>(),
    );
}
