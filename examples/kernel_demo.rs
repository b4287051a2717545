//! Fast-kernel demo: one deployed model (and one representative packed
//! layer) run through the seed indexed path and the prepared op-list +
//! scratch kernel, asserting bit-identity and printing the speedups.
//!
//! ```text
//! cargo run --release -p cc-examples --example kernel_demo
//! ```

use cc_bench::experiments::kernel_bench::ns_per_call;
use cc_bench::report::{fnum, Table};
use cc_dataset::SyntheticSpec;
use cc_deploy::{identity_groups, ActivationScratch, DeployedNetwork};
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_packing::{group_columns, pack_columns, GroupingConfig};
use cc_systolic::array::{ArrayConfig, QuantPacked};
use cc_systolic::{RunScratch, TiledScheduler};
use cc_tensor::init::sparse_matrix;
use cc_tensor::quant::{AccumWidth, QuantMatrix, QuantParams};
use cc_tensor::Tensor;
use std::hint::black_box;

fn main() {
    // 1. A representative packed layer: seed indexed path vs the prepared
    //    op-list kernel writing into a reused scratch.
    let f = sparse_matrix(128, 120, 0.16, 7);
    let params = QuantParams::calibrate(f.as_slice());
    let groups = group_columns(&f, &GroupingConfig::paper_default());
    let qp = QuantPacked::quantize_with(&pack_columns(&f, &groups), params);
    let d = QuantMatrix::quantize(&sparse_matrix(120, 16, 1.0, 8));
    let sched = TiledScheduler::new(ArrayConfig::new(32, 32, AccumWidth::Bits32));
    let prepared = sched.prepare_packed(&qp);
    let mut run_scratch = RunScratch::new();

    let reference = sched.run_packed_reference(&qp, &d);
    let stats = sched.run_prepared_with(&prepared, &d, &mut run_scratch);
    let outputs: Vec<i64> = run_scratch.outputs().iter().map(|&o| i64::from(o)).collect();
    assert_eq!(outputs, reference.outputs, "kernel outputs must match");
    assert_eq!(stats, reference.stats, "kernel stats must match");
    println!(
        "kernel bit-identity: {} outputs, {} MAC ops — identical across paths\n",
        reference.outputs.len(),
        stats.mac_ops
    );

    let iters = 200;
    let seed_ns = ns_per_call(
        || {
            black_box(sched.run_packed_reference(black_box(&qp), black_box(&d)));
        },
        iters,
    );
    let scratch_ns = ns_per_call(
        || {
            black_box(sched.run_prepared_with(black_box(&prepared), black_box(&d), &mut run_scratch));
        },
        iters,
    );

    // 2. A whole deployed model: allocating inference vs warm-scratch
    //    inference, bit for bit.
    let (train, test) =
        SyntheticSpec::mnist_like().with_size(12, 12).with_samples(64, 16).generate(31);
    let net = lenet5_shift(&ModelConfig::new(1, 12, 12, 10).with_width(0.5));
    let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
    let images: Vec<Tensor> = (0..8).map(|i| test.image(i).clone()).collect();
    let model_sched = deployed.scheduler();
    let mut scratch = ActivationScratch::new();

    let alloc_logits = deployed.run_batch(&images);
    let scratch_logits = deployed.run_batch_scratch(&model_sched, &images, &mut scratch);
    assert_eq!(alloc_logits, scratch_logits, "model paths must be bit-identical");
    println!(
        "model bit-identity: {} images, {} classes — identical logits across paths\n",
        images.len(),
        alloc_logits[0].len()
    );

    let model_iters = 10;
    let alloc_ns = ns_per_call(
        || {
            black_box(deployed.run_batch(black_box(&images)));
        },
        model_iters,
    );
    let warm_ns = ns_per_call(
        || {
            black_box(deployed.run_batch_scratch(&model_sched, black_box(&images), &mut scratch));
        },
        model_iters,
    );

    // The fast path's lane kernel is compiled for more than one vector
    // level; timings only compare between runs that name the same one.
    println!("lane kernel level on this CPU: {}\n", cc_systolic::tiled::lane_isa());
    let mut table = Table::new(
        "Fast kernels: seed path vs prepared op-list + scratch (ns, lower is better)",
        &["workload", "seed_ns", "fast_ns", "speedup"],
    );
    table.push_row(vec![
        "packed layer 128x120, l=16".into(),
        fnum(seed_ns, 0),
        fnum(scratch_ns, 0),
        fnum(seed_ns / scratch_ns.max(1e-9), 2),
    ]);
    table.push_row(vec![
        "lenet batch-of-8 inference".into(),
        fnum(alloc_ns, 0),
        fnum(warm_ns, 0),
        fnum(alloc_ns / warm_ns.max(1e-9), 2),
    ]);
    table.print();

    println!(
        "scratch pool: {} allocations, {} reuses (steady state allocates nothing)",
        scratch.buffer_allocations(),
        scratch.buffer_reuses()
    );
    assert!(
        scratch.buffer_reuses() > scratch.buffer_allocations(),
        "warm scratch must be serving buffers from the pool"
    );
}
