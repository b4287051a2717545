//! Golden digests of the deployed integer engine: pinned-seed
//! ResNet-20-Shift and LeNet-5-Shift deployments, every intermediate
//! activation of every layer folded into one digest per execution shape,
//! held against constants captured once and never regenerated by a change
//! that only claims speed. The peripheral blocks (shift, epilogue,
//! residual add, pools) are float-and-round code whose last bit moves with
//! the order or kind of one operation; bit-identity *between* two paths of
//! the same build (serial = batched = banded, which the property suites
//! check) cannot see both paths drift together — these constants can.

use cc_dataset::{Dataset, SyntheticSpec};
use cc_deploy::engine::run_layer_batch_scratch;
use cc_deploy::{ActivationScratch, BandSet, BatchOutput, DeployedLayer, DeployedNetwork, QMap};
use cc_nn::models::{lenet5_shift, resnet20_shift, ModelConfig};
use cc_nn::schedule::LrSchedule;
use cc_nn::train::{TrainConfig, Trainer};
use cc_nn::Network;
use cc_packing::{group_columns, prune_smallest_fraction, ColumnGroups, GroupingConfig};
use cc_systolic::array::ArrayConfig;
use cc_systolic::TiledScheduler;
use cc_tensor::quant::AccumWidth;
use cc_tensor::Tensor;

/// FNV-1a over the little-endian bytes of each folded word.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn maps(&mut self, maps: &[QMap]) {
        for m in maps {
            self.eat(m.digest());
        }
    }

    fn logits(&mut self, logits: &[Vec<f32>]) {
        for l in logits.iter().flatten() {
            self.eat(l.to_bits() as u64);
        }
    }
}

/// Runs `layers` on `inputs` one engine call per stage, on the scratch's
/// band set, folding every stage's output. A residual block's body is
/// walked on the block inputs first (its intermediates), then the block
/// runs whole (its merged output).
fn walk(
    layers: &[DeployedLayer],
    inputs: Vec<QMap>,
    sched: &TiledScheduler,
    scratch: &mut ActivationScratch,
    fold: &mut Fold,
) {
    let mut data = BatchOutput::Maps(inputs);
    for layer in layers {
        let BatchOutput::Maps(maps) = data else {
            panic!("layers scheduled after the classifier head");
        };
        if let DeployedLayer::Residual { body, .. } = layer {
            walk(body, maps.clone(), sched, scratch, fold);
        }
        data = run_layer_batch_scratch(layer, &maps, sched, scratch);
        match &data {
            BatchOutput::Maps(out) => fold.maps(out),
            BatchOutput::Logits(out) => fold.logits(out),
        }
        scratch.recycle_batch(maps);
    }
}

/// A briefly trained, magnitude-pruned network and its column groups: the
/// training moves batch-norm statistics off their initial values so the
/// folded per-channel scale and bias are not trivial.
fn train_and_group(mut net: Network, train: &Dataset) -> (Network, Vec<ColumnGroups>) {
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 16,
        schedule: LrSchedule::Constant(0.05),
        ..TrainConfig::default()
    };
    Trainer::new(cfg).fit(&mut net, train, None);
    net.visit_pointwise(&mut |_, pw| {
        let (pruned, _) = prune_smallest_fraction(&pw.filter_matrix(), 0.6);
        pw.set_filter_matrix(pruned);
    });
    let grouping = GroupingConfig::paper_default();
    let mut groups: Vec<ColumnGroups> = Vec::new();
    net.visit_pointwise_ref(&mut |_, pw| {
        groups.push(group_columns(&pw.filter_matrix(), &grouping));
    });
    (net, groups)
}

/// The six execution shapes of one deployment, one digest each: serial
/// `logits`, `run_batch_scratch` at batch 1 / 3 / 8, `run_batch_banded`
/// over two and three row-band shards. Each folds the entry point's logit
/// bits, then the layer walk's intermediates at the same shape.
fn digests(deployed: &DeployedNetwork, images: &[Tensor]) -> [u64; 6] {
    let sched = deployed.scheduler();
    let mut scratch = ActivationScratch::new();
    let mut out = [0u64; 6];

    let mut fold = Fold::new();
    for image in images {
        fold.logits(&[deployed.logits(image)]);
    }
    out[0] = fold.0;

    for (slot, batch) in [1usize, 3, 8].into_iter().enumerate() {
        let mut fold = Fold::new();
        for chunk in images.chunks(batch) {
            fold.logits(&deployed.run_batch_scratch(&sched, chunk, &mut scratch));
            let input = deployed.quantize_batch_scratch(chunk, &mut scratch);
            fold.maps(&input);
            walk(deployed.layers(), input, &sched, &mut scratch, &mut fold);
        }
        out[1 + slot] = fold.0;
    }

    for (slot, shards) in [2usize, 3].into_iter().enumerate() {
        let mut bands = BandSet::new(shards);
        let mut fold = Fold::new();
        fold.logits(&deployed.run_batch_banded(&sched, images, &mut scratch, &mut bands));
        let input = deployed.quantize_batch_scratch(images, &mut scratch);
        std::mem::swap(scratch.bands_mut(), &mut bands);
        walk(deployed.layers(), input, &sched, &mut scratch, &mut fold);
        std::mem::swap(scratch.bands_mut(), &mut bands);
        out[4 + slot] = fold.0;
    }
    out
}

/// `Bits32`, `Bits16`, and the exact bit-serial datapath, on an array
/// small enough that every conv spans several tile row-groups (so two and
/// three bands genuinely fan out) and several column bands (so partial
/// sums accumulate across tiles).
fn arrays() -> [ArrayConfig; 3] {
    [
        ArrayConfig::new(4, 8, AccumWidth::Bits32),
        ArrayConfig::new(4, 8, AccumWidth::Bits16),
        ArrayConfig::new(4, 8, AccumWidth::Bits32).with_exact_bitserial(true),
    ]
}

fn check(name: &str, net: Network, train: &Dataset, test: &Dataset, golden: &[[u64; 6]; 3]) {
    let images: Vec<Tensor> = (0..8).map(|i| test.image(i).clone()).collect();
    let (net, groups) = train_and_group(net, train);
    let got = arrays().map(|array| {
        digests(&DeployedNetwork::build_with_array(&net, &groups, train, array), &images)
    });
    assert_eq!(
        &got, golden,
        "{name} engine digests moved (rows: Bits32, Bits16, exact_bitserial; columns: serial, \
         batch 1, batch 3, batch 8, 2 bands, 3 bands); got {got:#018x?}"
    );
}

/// Captured on 26879e7 (the parent of the vectorised peripheral blocks).
const RESNET_GOLDEN: [[u64; 6]; 3] = [
    [
        0x5217_f029_c76e_7e0e,
        0xb0fa_2321_2a4d_a270,
        0xefb4_bfad_a704_ea6c,
        0xdde9_42c6_c077_8e48,
        0xbc1e_d2f7_30bd_9405,
        0xbc1e_d2f7_30bd_9405,
    ],
    [
        0xa727_4a1d_39a5_fa50,
        0x067e_4960_fe1e_3346,
        0xa456_c944_b6fc_b84a,
        0x9774_7b44_2f6d_84c2,
        0x77f2_73ef_2d9e_0b53,
        0x77f2_73ef_2d9e_0b53,
    ],
    [
        0x5217_f029_c76e_7e0e,
        0xb0fa_2321_2a4d_a270,
        0xefb4_bfad_a704_ea6c,
        0xdde9_42c6_c077_8e48,
        0xbc1e_d2f7_30bd_9405,
        0xbc1e_d2f7_30bd_9405,
    ],
];

/// Captured on 26879e7.
const LENET_GOLDEN: [[u64; 6]; 3] = [
    [
        0x5b9b_9481_81c7_96d6,
        0xfc1e_203a_2784_0e1a,
        0x3883_bbe8_7ad2_0832,
        0x85f0_e531_621e_deb2,
        0x3543_2772_a569_a5f4,
        0x3543_2772_a569_a5f4,
    ],
    [
        0x7ac0_c1b1_e38c_6380,
        0xc2a1_f681_4a20_2d8f,
        0x8ff2_7015_692d_e827,
        0xa60d_e6cb_049a_0857,
        0xb68a_473e_7cb0_43d9,
        0xb68a_473e_7cb0_43d9,
    ],
    [
        0x5b9b_9481_81c7_96d6,
        0xfc1e_203a_2784_0e1a,
        0x3883_bbe8_7ad2_0832,
        0x85f0_e531_621e_deb2,
        0x3543_2772_a569_a5f4,
        0x3543_2772_a569_a5f4,
    ],
];

#[test]
fn resnet20_shift_engine_digests_are_pinned() {
    let (train, test) =
        SyntheticSpec::cifar_like().with_size(16, 16).with_samples(48, 8).generate(1401);
    let net = resnet20_shift(&ModelConfig::new(3, 16, 16, 10).with_width(0.5).with_seed(1402));
    check("resnet20_shift", net, &train, &test, &RESNET_GOLDEN);
}

#[test]
fn lenet5_shift_engine_digests_are_pinned() {
    let (train, test) =
        SyntheticSpec::mnist_like().with_size(12, 12).with_samples(48, 8).generate(1403);
    let net = lenet5_shift(&ModelConfig::new(1, 12, 12, 10).with_seed(1404));
    check("lenet5_shift", net, &train, &test, &LENET_GOLDEN);
}
