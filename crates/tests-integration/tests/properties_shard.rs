//! Property suite for multi-array sharding: a row-band [`BandSet`] of 1–4
//! shards, homogeneous or a mixed fleet, driven through `run_batch_banded`,
//! must reproduce the unsharded `run_batch` bit-exactly on whole deployed
//! networks, with merged [`SimStats`] that are shard-plan invariant, and
//! the kernel-level band scatter/gather must match the unsharded prepared
//! run on random packings — every special case (one band, no fleet, no
//! faults) being a degenerate configuration of the one scatter,
//! `run_bands`.

use cc_deploy::{identity_groups, ActivationScratch, BandSet, DeployedNetwork};
use cc_nn::models::{lenet5_shift, resnet20_shift, ModelConfig};
use cc_packing::{group_columns, pack_columns, GroupingConfig};
use cc_systolic::array::{ArrayConfig, QuantPacked, SimStats};
use cc_systolic::{
    ArrayGeometry, BandLane, BandOutcome, CellKind, RunScratch, TiledScheduler,
};
use cc_tensor::init::sparse_matrix;
use cc_tensor::quant::{quant_matmul, AccumWidth, QuantMatrix, QuantParams};
use cc_tensor::Tensor;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Deployed fixtures are expensive to build (train-free, but packing and
/// calibration still cost seconds); build each once and share across
/// proptest cases. The 4×8 array makes even tiny convs span several tile
/// row-groups, so row-band plans genuinely fan out.
fn small_array() -> ArrayConfig {
    ArrayConfig::new(4, 8, AccumWidth::Bits32)
}

fn lenet_fixture() -> &'static (DeployedNetwork, Vec<Tensor>, Vec<Vec<f32>>) {
    static FIXTURE: OnceLock<(DeployedNetwork, Vec<Tensor>, Vec<Vec<f32>>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (train, test) = cc_dataset::SyntheticSpec::mnist_like()
            .with_size(8, 8)
            .with_samples(48, 8)
            .generate(71);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed =
            DeployedNetwork::build_with_array(&net, &identity_groups(&net), &train, small_array());
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        let serial = deployed.run_batch(&images);
        (deployed, images, serial)
    })
}

fn resnet_fixture() -> &'static (DeployedNetwork, Vec<Tensor>, Vec<Vec<f32>>) {
    static FIXTURE: OnceLock<(DeployedNetwork, Vec<Tensor>, Vec<Vec<f32>>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (train, test) = cc_dataset::SyntheticSpec::cifar_like()
            .with_size(8, 8)
            .with_samples(32, 6)
            .generate(72);
        let net = resnet20_shift(&ModelConfig::tiny(3, 8, 8, 10));
        let deployed =
            DeployedNetwork::build_with_array(&net, &identity_groups(&net), &train, small_array());
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        let serial = deployed.run_batch(&images);
        (deployed, images, serial)
    })
}

/// A deterministic fleet of `shards` mixed geometries (rows, cols, and
/// cell kind all vary) derived from one u64, so proptest shrinking stays
/// meaningful while the fleet space is genuinely heterogeneous.
fn random_fleet(shards: usize, gseed: u64) -> Vec<ArrayGeometry> {
    let mut s = gseed;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) as usize
    };
    (0..shards)
        .map(|_| {
            let g = ArrayGeometry::new(2 + next() % 11, 2 + next() % 15);
            match next() % 3 {
                0 => g.with_cell(CellKind::Balanced),
                1 => g.with_cell(CellKind::Interleaved),
                _ => g, // keep the multiplexed default
            }
        })
        .collect()
}

/// Merged stats of `batch` through a fresh one-shard set: the unsharded
/// reference every plan's merged stats must equal.
fn one_lane_merged(deployed: &DeployedNetwork, batch: &[Tensor]) -> SimStats {
    let mut set = BandSet::new(1);
    deployed.run_batch_banded(
        &deployed.scheduler(),
        batch,
        &mut ActivationScratch::new(),
        &mut set,
    );
    set.merged_stats()
}

/// The scratch's `i32` accumulator plane as the oracles' `i64` words.
fn widened(scratch: &RunScratch) -> Vec<i64> {
    scratch.outputs().iter().map(|&o| i64::from(o)).collect()
}

proptest! {
    // Cases and RNG stream are pinned so CI failures replay exactly.
    #![proptest_config(ProptestConfig::with_cases(16).with_rng_seed(0xA5_1305_0005))]

    /// Whole-network sharding: any (shard count, batch slice) must be
    /// bit-identical to the unsharded batch, and the merged stats must be
    /// identical across every plan — the scatter redistributes work, it
    /// never changes it.
    #[test]
    fn sharded_network_matches_unsharded_bit_exactly(
        residual in any::<bool>(),
        shards in 1usize..5,
        start in 0usize..4,
        len in 1usize..5,
    ) {
        let (deployed, images, serial) =
            if residual { resnet_fixture() } else { lenet_fixture() };
        let start = start.min(images.len() - 1);
        let end = (start + len).min(images.len());
        let batch = &images[start..end];
        let expected = &serial[start..end];

        let sched = deployed.scheduler();
        let mut set = BandSet::new(shards);
        let mut scratch = ActivationScratch::new();

        // The 1-shard set is the unsharded reference for merged stats.
        let reference = one_lane_merged(deployed, batch);

        // Two rounds through one scratch: stale state must not leak.
        for round in 0..2 {
            set.reset_stats();
            let logits = deployed.run_batch_banded(&sched, batch, &mut scratch, &mut set);
            prop_assert_eq!(
                &logits[..], expected,
                "x{} diverged on round {}", shards, round
            );
            let merged = set.merged_stats();
            prop_assert_eq!(
                merged, reference,
                "x{} merged stats diverged on round {}", shards, round
            );
            prop_assert!(set.makespan_cycles() <= merged.cycles);
            prop_assert!(
                set.shard_stats().iter().map(|s| s.cycles).max().unwrap_or(0)
                    == set.makespan_cycles()
            );
        }
    }

    /// Kernel-level row bands on random packings: the gathered plane and
    /// the exact work sums must match the unsharded prepared run.
    #[test]
    fn row_band_gather_matches_prepared_run(
        rows in 8usize..64,
        cols in 4usize..40,
        density in 0.05f64..0.8,
        l in 1usize..10,
        array_rows in 2usize..12,
        shards in 1usize..5,
        sixteen_bit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = sparse_matrix(rows, cols, density, seed);
        let params = QuantParams::calibrate(f.as_slice());
        let packed = pack_columns(&f, &group_columns(&f, &GroupingConfig::paper_default()));
        let qp = QuantPacked::quantize_with(&packed, params);
        let d = QuantMatrix::quantize(&sparse_matrix(cols, l, 1.0, seed ^ 0xF00D));
        let acc = if sixteen_bit { AccumWidth::Bits16 } else { AccumWidth::Bits32 };
        let sched = TiledScheduler::new(ArrayConfig::new(array_rows, 8, acc));
        let prepared = sched.prepare_packed(&qp);

        let mut reference = RunScratch::new();
        let ref_stats = sched.run_prepared_with(&prepared, &d, &mut reference);

        let plan = prepared.partition_row_bands(shards);
        let mut primary = RunScratch::new();
        let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
        let mut stats = vec![SimStats::default(); plan.len()];
        let mut busy = vec![0u64; plan.len()];
        sched.run_bands_with(&prepared, &plan, &d, &mut primary, &mut aux, &mut stats, &mut busy);

        prop_assert_eq!(primary.outputs(), reference.outputs(), "gathered plane diverged");
        let mut summed = SimStats::default();
        let mut makespan = 0u64;
        for s in &stats {
            summed.merge(s);
            makespan = makespan.max(s.cycles);
        }
        prop_assert_eq!(summed.mac_ops, ref_stats.mac_ops);
        prop_assert_eq!(summed.cell_word_slots, ref_stats.cell_word_slots);
        prop_assert_eq!(summed.input_words, ref_stats.input_words);
        prop_assert_eq!(summed.output_words, ref_stats.output_words);
        prop_assert_eq!(summed.load_cycles, ref_stats.load_cycles);
        prop_assert!(makespan <= ref_stats.cycles, "a shard outran the sequential run");
        prop_assert_eq!(prepared.sequential_cycles(l), ref_stats.cycles);
    }

    /// Whole-network sharding over a random heterogeneous fleet (1–4
    /// shards, mixed rows/cols/cell kinds): logits must stay bit-identical
    /// to the unsharded batch, and the merged stats must equal the
    /// unsharded reference — geometry reshapes only where work lands and
    /// how it is priced, never the work itself.
    #[test]
    fn mixed_fleet_network_matches_unsharded_bit_exactly(
        residual in any::<bool>(),
        shards in 1usize..5,
        start in 0usize..4,
        len in 1usize..5,
        gseed in any::<u64>(),
    ) {
        let (deployed, images, serial) =
            if residual { resnet_fixture() } else { lenet_fixture() };
        let start = start.min(images.len() - 1);
        let end = (start + len).min(images.len());
        let batch = &images[start..end];
        let expected = &serial[start..end];

        let fleet = random_fleet(shards, gseed);
        let sched = deployed.scheduler();
        let mut set = BandSet::with_fleet(fleet.clone());
        prop_assert_eq!(set.shards(), shards);
        prop_assert_eq!(set.fleet(), Some(&fleet[..]));
        let mut scratch = ActivationScratch::new();

        // The 1-shard set is the unsharded reference for merged stats.
        let reference = one_lane_merged(deployed, batch);

        // Two rounds through one scratch: stale state must not leak.
        for round in 0..2 {
            set.reset_stats();
            let logits = deployed.run_batch_banded(&sched, batch, &mut scratch, &mut set);
            prop_assert_eq!(
                &logits[..], expected,
                "fleet {:?} diverged on round {}", fleet, round
            );
            prop_assert_eq!(
                set.merged_stats(), reference,
                "fleet {:?} merged stats diverged on round {}", fleet, round
            );
            prop_assert!(
                set.shard_stats().iter().map(|s| s.cycles).max().unwrap_or(0)
                    == set.makespan_cycles()
            );
        }
    }

    /// Kernel-level fleet banding on random packings: the cost-weighted
    /// plan gathered under per-band geometries must reproduce the
    /// unsharded plane bit-exactly, and the geometry-invariant work sums
    /// (MACs, occupied cell slots, output words) must match the reference.
    /// `input_words` and `load_cycles` legitimately vary with geometry —
    /// smaller arrays re-tile, re-stream, and re-load more.
    #[test]
    fn fleet_band_gather_matches_prepared_run(
        rows in 8usize..64,
        cols in 4usize..40,
        density in 0.05f64..0.8,
        l in 1usize..10,
        shards in 1usize..5,
        sixteen_bit in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = sparse_matrix(rows, cols, density, seed);
        let params = QuantParams::calibrate(f.as_slice());
        let packed = pack_columns(&f, &group_columns(&f, &GroupingConfig::paper_default()));
        let qp = QuantPacked::quantize_with(&packed, params);
        let d = QuantMatrix::quantize(&sparse_matrix(cols, l, 1.0, seed ^ 0xD1CE));
        let acc = if sixteen_bit { AccumWidth::Bits16 } else { AccumWidth::Bits32 };
        let sched = TiledScheduler::new(ArrayConfig::new(4, 8, acc));
        let prepared = sched.prepare_packed(&qp);

        let mut reference = RunScratch::new();
        let ref_stats = sched.run_prepared_with(&prepared, &d, &mut reference);

        let fleet = random_fleet(shards, seed ^ 0xFEED);
        let plan = prepared.partition_row_bands_for(&fleet, l);
        prop_assert!(!plan.is_empty() && plan.len() <= fleet.len());
        let mut primary = RunScratch::new();
        let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
        let mut lanes: Vec<BandLane> = fleet.iter().copied().map(BandLane::new).collect();
        sched.run_bands(&prepared, &plan, &d, &mut primary, &mut aux, &mut lanes);

        prop_assert_eq!(primary.outputs(), reference.outputs(), "fleet gather diverged");
        let mut summed = SimStats::default();
        for lane in &lanes[..plan.len()] {
            summed.merge(&lane.stats);
        }
        prop_assert_eq!(summed.mac_ops, ref_stats.mac_ops);
        prop_assert_eq!(summed.cell_word_slots, ref_stats.cell_word_slots);
        prop_assert_eq!(summed.output_words, ref_stats.output_words);
    }

    /// "Special cases are degenerate configurations": for 1–4 bands ×
    /// {homogeneous, mixed fleet} × {16-, 32-bit} × exact bit-serial
    /// on/off, the one scatter with all-`Run` lanes, the unsharded
    /// `run_prepared_with`, the seed indexed `run_packed_reference` and
    /// the naive i64 GEMM all produce the same plane, and the per-band
    /// counters add back up to the unsharded run's.
    #[test]
    fn degenerate_scatter_configurations_agree(
        rows in 8usize..64,
        cols in 4usize..40,
        density in 0.05f64..0.8,
        l in 1usize..10,
        array_rows in 2usize..12,
        bands in 1usize..5,
        mixed_fleet in any::<bool>(),
        sixteen_bit in any::<bool>(),
        exact_bitserial in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let f = sparse_matrix(rows, cols, density, seed);
        let params = QuantParams::calibrate(f.as_slice());
        let packed = pack_columns(&f, &group_columns(&f, &GroupingConfig::paper_default()));
        let qp = QuantPacked::quantize_with(&packed, params);
        let d = QuantMatrix::quantize(&sparse_matrix(cols, l, 1.0, seed ^ 0xD06E));
        let acc = if sixteen_bit { AccumWidth::Bits16 } else { AccumWidth::Bits32 };
        let cfg = ArrayConfig { exact_bitserial, ..ArrayConfig::new(array_rows, 8, acc) };
        let sched = TiledScheduler::new(cfg);
        let prepared = sched.prepare_packed(&qp);

        let gemm = quant_matmul(&QuantMatrix::quantize_with(&packed.unpack(), params), &d, acc);
        let indexed = sched.run_packed_reference(&qp, &d);
        prop_assert_eq!(&indexed.outputs, &gemm, "indexed path diverged from the i64 GEMM");
        let mut unsharded = RunScratch::new();
        let ref_stats = sched.run_prepared_with(&prepared, &d, &mut unsharded);
        prop_assert_eq!(&widened(&unsharded), &gemm, "unsharded kernel diverged");
        prop_assert_eq!(ref_stats, indexed.stats, "unsharded stats diverged");

        let (fleet, plan) = if mixed_fleet {
            let fleet = random_fleet(bands, seed ^ 0xFEED);
            let plan = prepared.partition_row_bands_for(&fleet, l);
            (fleet, plan)
        } else {
            (vec![cfg.geometry(); bands], prepared.partition_row_bands(bands))
        };
        let mut primary = RunScratch::new();
        let mut aux = vec![RunScratch::new(); plan.len().saturating_sub(1)];
        let mut lanes: Vec<BandLane> = fleet.iter().copied().map(BandLane::new).collect();
        sched.run_bands(&prepared, &plan, &d, &mut primary, &mut aux, &mut lanes);
        prop_assert_eq!(&widened(&primary), &gemm, "scatter diverged from the i64 GEMM");

        let ran = &lanes[..plan.len()];
        prop_assert!(ran.iter().all(|lane| lane.outcome == BandOutcome::Ran));
        prop_assert!(ran.iter().all(|lane| lane.busy_ns > 0), "every band records host time");
        let mut summed = SimStats::default();
        for lane in ran {
            summed.merge(&lane.stats);
        }
        // Work is geometry-invariant; re-streamed inputs and weight loads
        // are only conserved when every lane is the preparing array.
        prop_assert_eq!(summed.mac_ops, ref_stats.mac_ops);
        prop_assert_eq!(summed.cell_word_slots, ref_stats.cell_word_slots);
        prop_assert_eq!(summed.output_words, ref_stats.output_words);
        if !mixed_fleet {
            prop_assert_eq!(summed.input_words, ref_stats.input_words);
            prop_assert_eq!(summed.load_cycles, ref_stats.load_cycles);
            if plan.len() == 1 {
                prop_assert_eq!(ran[0].stats, ref_stats, "one band is the unsharded run");
            }
        }
    }
}
