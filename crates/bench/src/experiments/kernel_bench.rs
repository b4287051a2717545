//! Kernel benchmark: the seed indexed packed path (per-call tile slicing +
//! `multiply_packed`) against the prepared op-list kernel, with and without
//! a reused [`RunScratch`] — plus a whole-model scratch-vs-allocating
//! comparison and a single-worker serving throughput sample.
//!
//! Beyond the printed tables, results land machine-readable in
//! `results/bench_kernel.json` so the repo's kernel-performance trajectory
//! is trackable across PRs. CI runs the release-mode `kernel_gate` tests in
//! this module: the prepared+scratch path must beat the seed path by ≥2×,
//! and the batch-major lane sweep must not lose to the scalar op-sweep it
//! replaced at batch ≥ 8 (best-of-2 per path, tolerating noisy runners).

use crate::report::{fnum, JsonValue, Table};
use crate::scale::Scale;
use crate::setups;
use cc_deploy::{identity_groups, ActivationScratch, DeployedNetwork};
use cc_packing::{group_columns, pack_columns, GroupingConfig};
use cc_systolic::array::{ArrayConfig, QuantPacked};
use cc_systolic::{RunScratch, TiledScheduler};
use cc_tensor::init::sparse_matrix;
use cc_tensor::quant::{AccumWidth, QuantMatrix, QuantParams};
use cc_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call of `f`, averaged over `iters` calls. (Shared with
/// the `kernel_demo` example so the two measurement harnesses cannot
/// drift.)
pub fn ns_per_call(mut f: impl FnMut(), iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// Best (minimum) of `rounds` timing rounds — the same noise shield the
/// serving perf gate uses.
pub fn best_ns(mut f: impl FnMut(), iters: u32, rounds: u32) -> f64 {
    (0..rounds).map(|_| ns_per_call(&mut f, iters)).fold(f64::INFINITY, f64::min)
}

/// One weight-matrix shape the kernel comparison runs.
struct KernelCase {
    name: &'static str,
    rows: usize,
    cols: usize,
    density: f64,
    /// Stream length (data columns) — positions × batch in deployed terms.
    l: usize,
}

/// A packed fixture for one case.
fn fixture(case: &KernelCase, seed: u64) -> (QuantPacked, QuantMatrix) {
    let f = sparse_matrix(case.rows, case.cols, case.density, seed);
    let params = QuantParams::calibrate(f.as_slice());
    let groups = group_columns(&f, &GroupingConfig::paper_default());
    let qp = QuantPacked::quantize_with(&pack_columns(&f, &groups), params);
    let d = QuantMatrix::quantize(&sparse_matrix(case.cols, case.l, 1.0, seed ^ 0xD));
    (qp, d)
}

struct KernelMeasurement {
    name: &'static str,
    tiles: usize,
    l: usize,
    reference_ns: f64,
    prepared_ns: f64,
    scratch_ns: f64,
}

impl KernelMeasurement {
    fn speedup_scratch(&self) -> f64 {
        self.reference_ns / self.scratch_ns.max(1e-9)
    }

    fn as_json(&self) -> JsonValue {
        JsonValue::obj([
            ("case", JsonValue::from(self.name)),
            ("tiles", JsonValue::from(self.tiles)),
            ("stream_len", JsonValue::from(self.l)),
            ("seed_indexed_ns", JsonValue::from(self.reference_ns)),
            ("prepared_ns", JsonValue::from(self.prepared_ns)),
            ("prepared_scratch_ns", JsonValue::from(self.scratch_ns)),
            (
                "speedup_prepared",
                JsonValue::from(self.reference_ns / self.prepared_ns.max(1e-9)),
            ),
            ("speedup_prepared_scratch", JsonValue::from(self.speedup_scratch())),
        ])
    }
}

/// Times the three kernel paths on one fixture (best-of-`rounds`).
fn measure_case(case: &KernelCase, iters: u32, rounds: u32) -> KernelMeasurement {
    let (qp, d) = fixture(case, 41);
    let sched = TiledScheduler::new(ArrayConfig::new(32, 32, AccumWidth::Bits32));
    let prepared = sched.prepare_packed(&qp);
    let mut scratch = RunScratch::new();
    // Pin down bit-identity on the exact fixture being timed.
    let reference = sched.run_packed_reference(&qp, &d);
    let stats = sched.run_prepared_with(&prepared, &d, &mut scratch);
    let outputs: Vec<i64> = scratch.outputs().iter().map(|&o| i64::from(o)).collect();
    assert_eq!(outputs, reference.outputs, "kernel paths diverged");
    assert_eq!(stats, reference.stats, "kernel stats diverged");

    KernelMeasurement {
        name: case.name,
        tiles: prepared.num_tiles(),
        l: case.l,
        reference_ns: best_ns(
            || {
                black_box(sched.run_packed_reference(black_box(&qp), black_box(&d)));
            },
            iters,
            rounds,
        ),
        prepared_ns: best_ns(
            || {
                black_box(sched.run_prepared(black_box(&prepared), black_box(&d)));
            },
            iters,
            rounds,
        ),
        scratch_ns: best_ns(
            || {
                black_box(sched.run_prepared_with(
                    black_box(&prepared),
                    black_box(&d),
                    &mut scratch,
                ));
            },
            iters,
            rounds,
        ),
    }
}

/// One scalar-vs-lane comparison point: the serving layer shape at a
/// given image batch and stream length (positions per image × batch).
struct LaneCase {
    batch: usize,
    l: usize,
}

struct LaneMeasurement {
    batch: usize,
    l: usize,
    mac_ops: u64,
    scalar_ns: f64,
    lane_ns: f64,
}

impl LaneMeasurement {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.lane_ns.max(1e-9)
    }

    /// Host nanoseconds per simulated MAC on the lane sweep — the figure
    /// `cc-perf` reports as `systolic.ns_per_mac`; only comparable between
    /// runs at the same `lane_isa`.
    fn lane_ns_per_mac(&self) -> f64 {
        self.lane_ns / self.mac_ops.max(1) as f64
    }

    fn as_json(&self) -> JsonValue {
        JsonValue::obj([
            ("batch", JsonValue::from(self.batch)),
            ("stream_len", JsonValue::from(self.l)),
            ("scalar_ns", JsonValue::from(self.scalar_ns)),
            ("lane_ns", JsonValue::from(self.lane_ns)),
            ("lane_ns_per_mac", JsonValue::from(self.lane_ns_per_mac())),
            ("speedup_lane", JsonValue::from(self.speedup())),
        ])
    }
}

/// Times the retired scalar op-sweep against the batch-major lane sweep
/// on the serving layer shape, pinning bit-identity (outputs and stats)
/// on the exact fixture being timed.
fn measure_lane_case(case: &LaneCase, iters: u32, rounds: u32) -> LaneMeasurement {
    let shape =
        KernelCase { name: "lane", rows: 128, cols: 120, density: 0.16, l: case.l };
    let (qp, d) = fixture(&shape, 47);
    let sched = TiledScheduler::new(ArrayConfig::new(32, 32, AccumWidth::Bits32));
    let prepared = sched.prepare_packed(&qp);
    let mut lane_scratch = RunScratch::new();
    let mut scalar_scratch = RunScratch::new();
    let lane_stats = sched.run_prepared_with(&prepared, &d, &mut lane_scratch);
    let scalar_stats = sched.run_prepared_scalar_with(&prepared, &d, &mut scalar_scratch);
    assert_eq!(lane_scratch.outputs(), scalar_scratch.outputs(), "lane sweep diverged");
    assert_eq!(lane_stats, scalar_stats, "lane sweep stats diverged");

    LaneMeasurement {
        batch: case.batch,
        l: case.l,
        mac_ops: lane_stats.mac_ops,
        scalar_ns: best_ns(
            || {
                black_box(sched.run_prepared_scalar_with(
                    black_box(&prepared),
                    black_box(&d),
                    &mut scalar_scratch,
                ));
            },
            iters,
            rounds,
        ),
        lane_ns: best_ns(
            || {
                black_box(sched.run_prepared_with(
                    black_box(&prepared),
                    black_box(&d),
                    &mut lane_scratch,
                ));
            },
            iters,
            rounds,
        ),
    }
}

/// The stream length the lane gate and `speedup_lane_at_batch8` are pinned
/// to: 16 positions per image at batch 8.
const GATE_STREAM_LEN: usize = 128;

fn lane_cases() -> Vec<LaneCase> {
    vec![
        // 16 stream positions per image: batch 1 is one short block,
        // batch 3 three of them, batch 8 two wide blocks.
        LaneCase { batch: 1, l: 16 },
        LaneCase { batch: 3, l: 48 },
        LaneCase { batch: 8, l: GATE_STREAM_LEN },
        // ResNet-20's three stage planes (8×8, 16×16, 32×32 positions) at
        // batch 8 — the regime `cc-perf`'s `offline_resnet` runs in, where
        // a row is 8 to 128 wide blocks and nothing else.
        LaneCase { batch: 8, l: 512 },
        LaneCase { batch: 8, l: 2048 },
        LaneCase { batch: 8, l: 8192 },
    ]
}

fn kernel_cases() -> Vec<KernelCase> {
    vec![
        // The serving shape: one small image's positions through a
        // mid-size layer.
        KernelCase { name: "layer_128x120_l16", rows: 128, cols: 120, density: 0.16, l: 16 },
        // A batch of four such images.
        KernelCase { name: "layer_128x120_l64", rows: 128, cols: 120, density: 0.16, l: 64 },
        // A wide late layer with a long stream.
        KernelCase { name: "layer_64x256_l128", rows: 64, cols: 256, density: 0.1, l: 128 },
    ]
}

/// Deploys an (untrained, identity-grouped) LeNet for the whole-model and
/// serving measurements — kernel time, not accuracy, is what matters here.
fn model_fixture(scale: &Scale) -> (DeployedNetwork, Vec<Tensor>) {
    let scale =
        Scale { image_hw: scale.image_hw.max(12), width_mult: scale.width_mult.max(0.5), ..*scale };
    let (train, test) = setups::mnist_setup(&scale, 43);
    let net = setups::lenet(&scale, 43);
    let deployed = DeployedNetwork::build(&net, &identity_groups(&net), &train);
    let images: Vec<Tensor> = (0..4).map(|i| test.image(i % test.len()).clone()).collect();
    (deployed, images)
}

/// Runs the kernel benchmark and returns the printed tables; also writes
/// `results/bench_kernel.json`.
pub fn run(scale: &Scale) -> Vec<Table> {
    let release = !cfg!(debug_assertions);
    // Debug builds only smoke the plumbing; real numbers need --release.
    let (iters, rounds) = if release { (60, 2) } else { (2, 1) };

    let mut kernels = Table::new(
        "Kernel: seed indexed path vs prepared op-list kernel (ns/run, best-of-2)",
        &["case", "tiles", "stream_len", "seed_ns", "prepared_ns", "scratch_ns", "speedup"],
    );
    let mut measurements = Vec::new();
    for case in kernel_cases() {
        let m = measure_case(&case, iters, rounds);
        kernels.push_row(vec![
            m.name.into(),
            m.tiles.to_string(),
            m.l.to_string(),
            fnum(m.reference_ns, 0),
            fnum(m.prepared_ns, 0),
            fnum(m.scratch_ns, 0),
            fnum(m.speedup_scratch(), 2),
        ]);
        measurements.push(m);
    }
    let speedup_min =
        measurements.iter().map(KernelMeasurement::speedup_scratch).fold(f64::INFINITY, f64::min);
    let speedup_best =
        measurements.iter().map(KernelMeasurement::speedup_scratch).fold(0.0f64, f64::max);

    // Scalar op-sweep vs batch-major lane sweep across image batch sizes.
    // The scalar sweep is compiled for the build's baseline only; the lane
    // sweep runs at the level named in the title.
    let lane_isa = cc_systolic::tiled::lane_isa();
    let mut lanes = Table::new(
        format!(
            "Kernel: scalar op-sweep vs batch-major lane sweep at lane level `{lane_isa}` \
             (ns/run, best-of-2)"
        ),
        &["batch", "stream_len", "scalar_ns", "lane_ns", "lane_ns_per_mac", "speedup"],
    );
    let mut lane_measurements = Vec::new();
    for case in lane_cases() {
        let m = measure_lane_case(&case, iters, rounds);
        lanes.push_row(vec![
            m.batch.to_string(),
            m.l.to_string(),
            fnum(m.scalar_ns, 0),
            fnum(m.lane_ns, 0),
            fnum(m.lane_ns_per_mac(), 3),
            fnum(m.speedup(), 2),
        ]);
        lane_measurements.push(m);
    }
    let lane_at_batch8 = lane_measurements
        .iter()
        .find(|m| m.l == GATE_STREAM_LEN)
        .map_or(0.0, LaneMeasurement::speedup);

    // Whole model: allocating run_batch vs warm-scratch run_batch_scratch.
    let (deployed, images) = model_fixture(scale);
    let sched = deployed.scheduler();
    let mut scratch = ActivationScratch::new();
    let serial = deployed.run_batch(&images);
    assert_eq!(
        deployed.run_batch_scratch(&sched, &images, &mut scratch),
        serial,
        "model paths diverged"
    );
    let model_iters = if release { 20 } else { 1 };
    let alloc_ns = best_ns(
        || {
            black_box(deployed.run_batch(black_box(&images)));
        },
        model_iters,
        rounds,
    );
    let scratch_ns = best_ns(
        || {
            black_box(deployed.run_batch_scratch(&sched, black_box(&images), &mut scratch));
        },
        model_iters,
        rounds,
    );
    let mut model = Table::new(
        "Model: batch-of-4 inference, allocating vs warm scratch (ns/batch)",
        &["model", "alloc_ns", "scratch_ns", "speedup", "scratch_allocs", "scratch_reuses"],
    );
    model.push_row(vec![
        "lenet".into(),
        fnum(alloc_ns, 0),
        fnum(scratch_ns, 0),
        fnum(alloc_ns / scratch_ns.max(1e-9), 2),
        scratch.buffer_allocations().to_string(),
        scratch.buffer_reuses().to_string(),
    ]);

    // Serving throughput through the full stack (registry → batcher →
    // worker with worker-lifetime scratch), recorded for cross-PR
    // trajectory tracking.
    let serving_requests = 64usize;
    let serving_set =
        cc_dataset::Dataset::new(images.clone(), vec![0; images.len()], 1);
    let serving_stats = crate::experiments::serve_load::closed_loop(
        &deployed,
        &serving_set,
        1,
        4,
        1,
        1,
        4,
        serving_requests,
    );
    let mut serving = Table::new(
        "Serving: single worker over the scratch hot path",
        &["workers", "max_batch", "requests", "throughput_rps", "p50_us"],
    );
    serving.push_row(vec![
        "1".into(),
        "4".into(),
        serving_requests.to_string(),
        fnum(serving_stats.throughput_rps, 1),
        fnum(serving_stats.p50.as_secs_f64() * 1e6, 0),
    ]);

    let json = JsonValue::obj([
        ("experiment", JsonValue::from("kernel_bench")),
        ("profile", JsonValue::from(if release { "release" } else { "debug" })),
        ("scale", JsonValue::from(if *scale == Scale::full() { "full" } else { "quick" })),
        ("kernels", JsonValue::Arr(measurements.iter().map(KernelMeasurement::as_json).collect())),
        ("speedup_prepared_scratch_min", JsonValue::from(speedup_min)),
        ("speedup_prepared_scratch_best", JsonValue::from(speedup_best)),
        ("lane_isa", JsonValue::from(lane_isa)),
        (
            "lane_kernels",
            JsonValue::Arr(lane_measurements.iter().map(LaneMeasurement::as_json).collect()),
        ),
        ("speedup_lane_at_batch8", JsonValue::from(lane_at_batch8)),
        (
            "model",
            JsonValue::obj([
                ("model", JsonValue::from("lenet")),
                ("batch", JsonValue::from(images.len())),
                ("alloc_ns", JsonValue::from(alloc_ns)),
                ("scratch_ns", JsonValue::from(scratch_ns)),
                ("speedup", JsonValue::from(alloc_ns / scratch_ns.max(1e-9))),
                ("scratch_allocations", JsonValue::from(scratch.buffer_allocations())),
                ("scratch_reuses", JsonValue::from(scratch.buffer_reuses())),
            ]),
        ),
        (
            "serving",
            JsonValue::obj([
                ("workers", JsonValue::from(1u64)),
                ("max_batch", JsonValue::from(4u64)),
                ("requests", JsonValue::from(serving_requests)),
                ("throughput_rps", JsonValue::from(serving_stats.throughput_rps)),
                ("p50_us", JsonValue::from(serving_stats.p50.as_secs_f64() * 1e6)),
            ]),
        ),
    ]);
    if let Err(e) = crate::report::write_json("results/bench_kernel.json", &json) {
        eprintln!("warning: could not write results/bench_kernel.json: {e}");
    }

    vec![kernels, lanes, model, serving]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI release gate: the prepared+scratch kernel must beat the seed
    /// per-call indexed path by ≥2× on the serving-shaped case. Best-of-2
    /// per path (identical methodology to the packed-vs-unpacked serving
    /// gate) tolerates noisy runners.
    #[test]
    fn kernel_gate_prepared_scratch_beats_seed_by_2x() {
        // Wall-clock ratios only mean something with optimized code; the
        // CI release step runs this again with the assertion live.
        if cfg!(debug_assertions) {
            eprintln!("skipping kernel perf gate in debug build");
            return;
        }
        let _exclusive = crate::perf_gate_lock();
        let case =
            KernelCase { name: "gate_128x120_l16", rows: 128, cols: 120, density: 0.16, l: 16 };
        let m = measure_case(&case, 200, 2);
        assert!(
            m.speedup_scratch() >= 2.0,
            "prepared+scratch kernel must be ≥2× the seed path: {:.0} ns vs {:.0} ns ({:.2}×)",
            m.reference_ns,
            m.scratch_ns,
            m.speedup_scratch()
        );
    }

    /// The CI release gate for the batch-major refactor: at batch ≥ 8 the
    /// lane sweep that replaced the scalar op-sweep must at least match it
    /// (≥ 1.0×) — a lane kernel slower than the loop it displaced would
    /// make the refactor a regression. Best-of-2 per path, same
    /// methodology as the other wall-clock gates.
    #[test]
    fn kernel_gate_lane_sweep_at_least_matches_scalar_at_batch_8() {
        if cfg!(debug_assertions) {
            eprintln!("skipping lane perf gate in debug build");
            return;
        }
        let _exclusive = crate::perf_gate_lock();
        let m = measure_lane_case(&LaneCase { batch: 8, l: GATE_STREAM_LEN }, 200, 2);
        assert!(
            m.speedup() >= 1.0,
            "lane sweep must not lose to the scalar op-sweep at batch 8: \
             {:.0} ns vs {:.0} ns ({:.2}×)",
            m.scalar_ns,
            m.lane_ns,
            m.speedup()
        );
    }

    /// Debug-profile smoke: the experiment plumbing runs end to end and
    /// the in-measurement bit-identity assertions hold.
    #[test]
    fn kernel_bench_smoke() {
        let case = KernelCase { name: "smoke", rows: 40, cols: 36, density: 0.3, l: 8 };
        let m = measure_case(&case, 1, 1);
        assert!(m.reference_ns > 0.0 && m.scratch_ns > 0.0);
        let lane = measure_lane_case(&LaneCase { batch: 1, l: 16 }, 1, 1);
        assert!(lane.scalar_ns > 0.0 && lane.lane_ns > 0.0);
    }
}
