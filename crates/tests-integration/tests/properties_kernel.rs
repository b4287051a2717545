//! Property suite for the packed inference kernels: for random packings,
//! array geometries, accumulator widths, cell kinds, and the exact
//! bit-serial datapath on/off, three independent implementations must
//! agree bit-exactly —
//!
//! 1. the prepared op-list kernel (`run_prepared_with`, zero-allocation
//!    serving hot path, scratch reused across calls — and
//!    `run_prepared_at`, the same kernel at every vector level the CPU
//!    has, not only the detected one),
//! 2. the seed indexed path (per-call tile slicing through
//!    `multiply_packed`, via `run_packed_reference`), and
//! 3. a naive i64 reference GEMM over the pruned-unpacked equivalent
//!    matrix (`quant_matmul`),
//!
//! including the `SimStats` counters of the two simulator paths.

use cc_packing::{group_columns, pack_columns, GroupingConfig};
use cc_systolic::array::{ArrayConfig, QuantPacked};
use cc_systolic::{CellKind, RunScratch, TiledScheduler};
use cc_tensor::init::sparse_matrix;
use cc_tensor::isa::Level;
use cc_tensor::quant::{quant_matmul, AccumWidth, QuantMatrix, QuantParams};
use proptest::prelude::*;

/// The scratch's `i32` accumulator plane as the oracles' `i64` words.
fn widened(scratch: &RunScratch) -> Vec<i64> {
    scratch.outputs().iter().map(|&o| i64::from(o)).collect()
}

proptest! {
    // Cases and RNG stream are pinned so CI failures replay exactly.
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0xA5_1305_0004))]

    #[test]
    fn oplist_kernel_matches_indexed_path_and_reference_gemm(
        rows in 1usize..40,
        cols in 2usize..40,
        density in 0.05f64..0.9,
        l in 1usize..12,
        array_rows in 4usize..24,
        array_cols in 4usize..24,
        sixteen_bit in any::<bool>(),
        interleaved_cell in any::<bool>(),
        exact_bitserial in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = sparse_matrix(rows, cols, density, seed);
        let params = QuantParams::calibrate(f.as_slice());
        let packed = pack_columns(&f, &group_columns(&f, &GroupingConfig::paper_default()));
        let qp = QuantPacked::quantize_with(&packed, params);
        let d = QuantMatrix::quantize(&sparse_matrix(cols, l, 1.0, seed ^ 0xBEEF));

        let acc = if sixteen_bit { AccumWidth::Bits16 } else { AccumWidth::Bits32 };
        let cell = if interleaved_cell {
            CellKind::Interleaved
        } else {
            CellKind::Multiplexed { mux_width: 8 }
        };
        let cfg = ArrayConfig {
            rows: array_rows,
            cols: array_cols,
            acc,
            cell,
            exact_bitserial,
        };
        let sched = TiledScheduler::new(cfg);

        // Seed indexed path: per-call slicing + multiply_packed per tile.
        let reference = sched.run_packed_reference(&qp, &d);

        // New op-list kernel, scratch reused across two calls (a stale
        // scratch must not leak into the second run).
        let prepared = sched.prepare_packed(&qp);
        let mut scratch = RunScratch::new();
        for round in 0..2 {
            let stats = sched.run_prepared_with(&prepared, &d, &mut scratch);
            prop_assert_eq!(
                &widened(&scratch),
                &reference.outputs,
                "kernel outputs diverged on round {}",
                round
            );
            prop_assert_eq!(stats, reference.stats, "kernel stats diverged on round {}", round);
        }
        // The allocating wrapper is the same kernel.
        prop_assert_eq!(&sched.run_prepared(&prepared, &d), &reference);
        // So is every compilation of it this CPU can run.
        for level in Level::available() {
            let stats = sched.run_prepared_at(&prepared, &d, &mut scratch, level);
            prop_assert_eq!(&widened(&scratch), &reference.outputs, "{} outputs", level.name());
            prop_assert_eq!(stats, reference.stats, "{} stats", level.name());
        }

        // Naive reference GEMM on the pruned-unpacked equivalent matrix
        // (pure i64 arithmetic, no simulator code in common).
        let q_pruned = QuantMatrix::quantize_with(&packed.unpack(), params);
        prop_assert_eq!(&reference.outputs, &quant_matmul(&q_pruned, &d, acc));
    }

    /// The batch-major lane sweep, through the serving entry and at every
    /// vector level the CPU has, against the scalar op-sweep it replaced
    /// AND the naive i64 GEMM, across image-batch-shaped stream lengths
    /// (batch 1 underfills one lane chunk, 3 straddles, 8 spans several):
    /// all three must agree bit-exactly on outputs, and the two op-list
    /// paths on stats too.
    #[test]
    fn lane_sweep_matches_scalar_sweep_and_reference_gemm(
        rows in 1usize..48,
        cols in 2usize..40,
        density in 0.05f64..0.9,
        positions in 1usize..10,
        batch_idx in 0usize..3,
        sixteen_bit in any::<bool>(),
        exact_bitserial in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let batch = [1usize, 3, 8][batch_idx];
        let l = positions * batch;
        let f = sparse_matrix(rows, cols, density, seed);
        let params = QuantParams::calibrate(f.as_slice());
        let packed = pack_columns(&f, &group_columns(&f, &GroupingConfig::paper_default()));
        let qp = QuantPacked::quantize_with(&packed, params);
        let d = QuantMatrix::quantize(&sparse_matrix(cols, l, 1.0, seed ^ 0xFACE));

        let acc = if sixteen_bit { AccumWidth::Bits16 } else { AccumWidth::Bits32 };
        let cfg = ArrayConfig {
            rows: 8,
            cols: 16,
            acc,
            cell: CellKind::Multiplexed { mux_width: 8 },
            exact_bitserial,
        };
        let sched = TiledScheduler::new(cfg);
        let prepared = sched.prepare_packed(&qp);

        let mut lane = RunScratch::new();
        let mut scalar = RunScratch::new();
        let scalar_stats = sched.run_prepared_scalar_with(&prepared, &d, &mut scalar);
        let q_pruned = QuantMatrix::quantize_with(&packed.unpack(), params);
        let oracle = quant_matmul(&q_pruned, &d, acc);
        // The serving entry (row bands and their lane bookkeeping) at the
        // detected level, then the kernel itself at every level.
        let lane_stats = sched.run_prepared_with(&prepared, &d, &mut lane);
        prop_assert_eq!(
            lane.outputs(),
            scalar.outputs(),
            "lane sweep diverged from scalar at batch {}",
            batch
        );
        prop_assert_eq!(lane_stats, scalar_stats, "lane stats diverged at batch {}", batch);
        prop_assert_eq!(widened(&lane), oracle.clone());
        for level in Level::available() {
            let lane_stats = sched.run_prepared_at(&prepared, &d, &mut lane, level);
            prop_assert_eq!(
                lane.outputs(),
                scalar.outputs(),
                "{} lane sweep diverged from scalar at batch {}",
                level.name(),
                batch
            );
            prop_assert_eq!(lane_stats, scalar_stats, "{} stats at batch {}", level.name(), batch);
            prop_assert_eq!(widened(&lane), oracle.clone());
        }
    }
}
