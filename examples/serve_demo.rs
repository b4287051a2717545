//! Serve a column-combined network under concurrent load: build a model
//! registry, start the batched serving runtime, fire a burst of requests,
//! and read the telemetry back — the `cc-serve` quickstart.
//!
//! ```text
//! cargo run --release -p cc-examples --example serve_demo
//! ```

use cc_dataset::SyntheticSpec;
use cc_deploy::DeployedNetwork;
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_packing::{ColumnCombineConfig, ColumnCombiner};
use cc_serve::{ModelRegistry, ServeConfig, Server};
use std::time::Duration;

fn main() {
    // 1. Train + column-combine a small network, then pack/quantize/
    //    calibrate it ONCE into an immutable deployed pipeline.
    let (train, test) = SyntheticSpec::mnist_like()
        .with_size(12, 12)
        .with_samples(256, 64)
        .generate(23);
    let mut net = lenet5_shift(&ModelConfig::new(1, 12, 12, 10).with_width(0.5));
    let cfg = ColumnCombineConfig {
        rho: net.nonzero_conv_weights() / 2,
        epochs_per_iteration: 1,
        final_epochs: 2,
        ..ColumnCombineConfig::default()
    };
    let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
    let deployed = DeployedNetwork::build(&net, &groups, &train);

    // 2. Registry + server: 4 workers, batches of up to 8 held open at
    //    most 1 ms for company, shedding beyond 256 queued requests.
    let registry = ModelRegistry::new().with_model("lenet", deployed);
    let server = Server::start(
        registry,
        ServeConfig::default()
            .with_workers(4)
            .with_max_batch(8)
            .with_batch_deadline(Duration::from_millis(1))
            .with_queue_capacity(256),
    );

    // 3. A burst of 256 concurrent requests.
    let tickets: Vec<_> = (0..256)
        .map(|i| {
            server
                .submit("lenet", test.image(i % test.len()).clone())
                .expect("queue sized for the burst")
        })
        .collect();
    let mut classes = vec![0usize; 10];
    for ticket in tickets {
        let response = ticket.wait().expect("request served");
        classes[response.class] += 1;
    }

    // 4. Telemetry of the burst.
    let stats = server.telemetry();
    println!("served {} requests in {:.2?}", stats.completed, stats.elapsed);
    println!("  throughput:        {:.0} req/s", stats.throughput_rps);
    println!(
        "  batches:           {} (mean occupancy {:.2} requests/batch)",
        stats.batches, stats.mean_batch_occupancy
    );
    println!(
        "  latency:           p50 {:?}  p95 {:?}  p99 {:?}",
        stats.p50, stats.p95, stats.p99
    );
    println!("  shed:              {}", stats.shed);
    println!("  class histogram:   {classes:?}");

    assert_eq!(stats.completed, 256, "demo must serve the whole burst");
    assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99);

    // 5. The window is an upper bound: widened to 5 s, it still does not
    //    hold a lone request while the rest of the pool sits idle.
    let window = Duration::from_secs(5);
    server.set_batch_deadline(window);
    let response = server
        .submit("lenet", test.image(0).clone())
        .expect("idle pool")
        .wait()
        .expect("request served");
    println!("  lone request:      {:?} with a {window:?} window", response.latency);
    assert_eq!(response.batch_size, 1, "dispatched alone");
    assert!(response.latency < window / 10, "an idle peer must not wait out the window");
    server.shutdown();
}
