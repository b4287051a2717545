//! Fast-kernel demo: one deployed model (and one representative packed
//! layer) run through the seed indexed path and the prepared op-list +
//! scratch kernel, asserting bit-identity and printing the speedups — and
//! the two float blocks behind the array (the ReLU + quantizer epilogue and
//! the residual add) at the build's baseline against the vector level the
//! CPU has, word for word.
//!
//! ```text
//! cargo run --release -p cc-examples --example kernel_demo
//! ```

use cc_bench::report::{fnum, Table};
use cc_dataset::SyntheticSpec;
use cc_deploy::engine::{Epilogue, EpilogueRows, ResidualAdd};
use cc_deploy::{identity_groups, ActivationScratch, DeployedNetwork};
use cc_nn::models::{lenet5_shift, ModelConfig};
use cc_packing::{group_columns, pack_columns, GroupingConfig};
use cc_systolic::array::{ArrayConfig, QuantPacked};
use cc_systolic::{RunScratch, TiledScheduler};
use cc_tensor::init::sparse_matrix;
use cc_tensor::isa::{self, Level};
use cc_tensor::quant::{AccumWidth, QuantMatrix, QuantParams};
use cc_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call of `f`, averaged over `iters` calls.
fn ns_per_call(mut f: impl FnMut(), iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// Runs `block` into `out` at each of `levels`, asserts the outputs are
/// identical, and returns each level's ns per call.
fn at_both_levels<S: Clone + PartialEq>(
    levels: [Level; 2],
    out: &mut S,
    mut block: impl FnMut(Level, &mut S),
) -> [f64; 2] {
    let blank = out.clone();
    let outs = levels.map(|level| {
        *out = blank.clone();
        block(level, out);
        out.clone()
    });
    assert!(outs[0] == outs[1] && outs[0] != blank, "levels must agree word for word");
    levels.map(|level| ns_per_call(|| block(black_box(level), black_box(out)), 20))
}

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

    // 3. The periphery goes through the same dispatch as the lane kernel:
    //    one ResNet-sized plane (16 channels, batch 8 of 32x32) through the
    //    epilogue and the residual add at each level, word for word.
    let (n, l, b) = (16, 1024, 8);
    let words: Vec<i32> = (0..n * b * l).map(|i| (i as i32).wrapping_mul(0x9e37) % 40_000).collect();
    let (channel_scale, channel_bias) = (vec![0.031; n], vec![-0.2; n]);
    let epilogue = Epilogue {
        acc_scale: 2.5e-4,
        channel_scale: &channel_scale,
        channel_bias: &channel_bias,
        relu: true,
        out_scale: 0.043,
        l,
    };
    let body: Vec<i8> = words.iter().map(|&o| (o % 255 - 127) as i8).collect();
    let shortcut: Vec<i8> = body.iter().rev().copied().collect();
    let levels = [Level::Baseline, Level::detect()];
    let mut periphery = Table::new(
        "Peripheral blocks: build baseline vs the level this CPU has (ns per word)",
        &["block", levels[0].name(), levels[1].name(), "speedup"],
    );
    let mut row = |block: &str, ns: [f64; 2]| {
        let ns = ns.map(|ns| ns / words.len() as f64);
        periphery.push_row(vec![
            block.into(),
            fnum(ns[0], 2),
            fnum(ns[1], 2),
            fnum(ns[0] / ns[1].max(1e-9), 2),
        ]);
    };
    let mut maps = vec![vec![0i8; n * l]; b];
    let ns = at_both_levels(levels, &mut maps, |level, maps| {
        isa::run_at(level, EpilogueRows { epilogue: &epilogue, rows: 0..n, words: &words, dsts: maps });
    });
    row("relu + quantizer epilogue", ns);
    let mut merged = vec![0i8; body.len()];
    let ns = at_both_levels(levels, &mut merged, |level, out| {
        let kernel = ResidualAdd {
            body: &body,
            body_scale: 0.021,
            shortcut: &shortcut,
            shortcut_scale: 0.034,
            out_scale: 0.043,
            out,
        };
        isa::run_at(level, kernel);
    });
    row("residual add", ns);
    periphery.print();

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
