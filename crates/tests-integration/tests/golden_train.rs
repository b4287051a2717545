//! Golden digests of the float training path: Algorithm 1 on
//! LeNet-5-Shift, two epochs of ResNet-20-Shift, one epoch of the standard
//! 3×3 LeNet and of a biased pointwise stack, each folded into one digest —
//! every `Param::value` bit pattern, the batch-norm running statistics,
//! every epoch's `train_loss` bits and the held-out logits. Float addition
//! does not reassociate, so a GEMM that sums in another order, a fused
//! multiply-add, a reduction split into lanes or a pooling window added in
//! another order each move a last bit somewhere in these folds. The
//! constants were captured on the per-element seed implementation of
//! `cc-nn` and are never regenerated by a change that only claims speed;
//! they are the same in debug and release builds.

use cc_dataset::{Dataset, SyntheticSpec};
use cc_nn::layer::LayerKind;
use cc_nn::layers::{AvgPool2, GlobalAvgPool, Linear, PointwiseConv, Relu, Shift};
use cc_nn::models::{lenet5_shift, lenet5_standard, resnet20_shift, ModelConfig};
use cc_nn::schedule::LrSchedule;
use cc_nn::train::{EpochStats, TrainConfig, Trainer};
use cc_nn::Network;
use cc_packing::{ColumnCombineConfig, ColumnCombiner};

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

    fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.eat(v.to_bits() as u64);
        }
    }

    /// Running mean and variance of every batch-norm layer, residual
    /// bodies walked inline.
    fn running_stats(&mut self, layers: &[LayerKind]) {
        for layer in layers {
            match layer {
                LayerKind::BatchNorm(bn) => {
                    self.floats(bn.running_mean());
                    self.floats(bn.running_var());
                }
                LayerKind::Residual(block) => self.running_stats(block.body()),
                _ => {}
            }
        }
    }
}

/// Folds everything training left behind: parameters, running statistics,
/// the loss curve, and eval-mode logits of every held-out image.
fn digest(net: &mut Network, epochs: &[EpochStats], held_out: &Dataset) -> u64 {
    let mut fold = Fold::new();
    net.visit_params(&mut |p| fold.floats(p.value.as_slice()));
    fold.running_stats(net.layers());
    for e in epochs {
        fold.eat(e.train_loss.to_bits() as u64);
    }
    for batch in held_out.batches_sequential(8) {
        fold.floats(net.forward(&batch.x, false).as_slice());
    }
    fold.0
}

/// Algorithm 1 with the benchmark's parameters (α 8, β 0.2, γ 0.5, a
/// quarter of the weights kept, 2 + 4 epochs) on a 12×12 half-width
/// LeNet-5-Shift: masked weights and the GEMM's zero-skip are on the path
/// from the first retraining on.
fn combine_lenet(seed: u64) -> u64 {
    let (train, test) = SyntheticSpec::mnist_like()
        .with_size(12, 12)
        .with_samples(96, 32)
        .with_noise(0.6)
        .generate(seed);
    let mut net = lenet5_shift(&ModelConfig::new(1, 12, 12, 10).with_width(0.5).with_seed(seed));
    let cfg = ColumnCombineConfig {
        alpha: 8,
        beta: 0.2,
        gamma: 0.5,
        rho: net.nonzero_conv_weights() / 4,
        epochs_per_iteration: 2,
        final_epochs: 4,
        max_iterations: 12,
        eta: 0.05,
        batch_size: 32,
        seed,
        ..ColumnCombineConfig::default()
    };
    let (history, _, _) = ColumnCombiner::new(cfg).run(&mut net, &train, Some(&test));
    assert!(net.nonzero_conv_weights() <= cfg.rho, "Algorithm 1 stopped short of ρ");
    digest(&mut net, &history.epochs, &test)
}

fn train(mut net: Network, train: &Dataset, test: &Dataset, epochs: usize, batch: usize) -> u64 {
    let cfg = TrainConfig {
        epochs,
        batch_size: batch,
        schedule: LrSchedule::Constant(0.05),
        seed: 3,
        ..TrainConfig::default()
    };
    let history = Trainer::new(cfg).fit(&mut net, train, Some(test));
    digest(&mut net, &history.epochs, test)
}

#[test]
fn algorithm1_on_lenet5_shift_is_pinned() {
    assert_eq!(combine_lenet(1), 0xb733_a38a_e8cd_289d, "seed 1");
    assert_eq!(combine_lenet(2), 0x5627_af58_cdb9_5069, "seed 2");
}

/// 14×14 input, so the stage transitions pool 14 → 7 → 3: identity and
/// downsampling residuals, channel pad/unpad, and an odd plane whose last
/// row and column the pool drops.
#[test]
fn resnet20_shift_two_epochs_are_pinned() {
    let (tr, te) = SyntheticSpec::cifar_like().with_size(14, 14).with_samples(48, 16).generate(5);
    let net = resnet20_shift(&ModelConfig::new(3, 14, 14, 10).with_width(0.5).with_seed(5));
    assert_eq!(train(net, &tr, &te, 2, 16), 0x1ce7_5cf5_bf5f_fe73);
}

/// `Conv3x3` (im2col, col2im) through the standard LeNet, and a biased
/// `PointwiseConv`, which no model builder uses.
#[test]
fn conv3x3_and_biased_pointwise_are_pinned() {
    let (tr, te) = SyntheticSpec::mnist_like().with_size(10, 10).with_samples(48, 16).generate(7);
    let standard = lenet5_standard(&ModelConfig::tiny(1, 10, 10, 10).with_seed(7));
    assert_eq!(train(standard, &tr, &te, 1, 16), 0xd651_e07e_a03b_c303, "lenet5_standard");

    let biased = Network::new(
        "biased-pointwise",
        vec![
            LayerKind::Shift(Shift::new(1)),
            LayerKind::Pointwise(PointwiseConv::new(1, 6, true, 11)),
            LayerKind::Relu(Relu::new()),
            LayerKind::AvgPool(AvgPool2::new()),
            LayerKind::Shift(Shift::new(6)),
            LayerKind::Pointwise(PointwiseConv::new(6, 12, true, 12)),
            LayerKind::Relu(Relu::new()),
            LayerKind::GlobalAvgPool(GlobalAvgPool::new()),
            LayerKind::Linear(Linear::new(12, 10, 13)),
        ],
        10,
    );
    assert_eq!(train(biased, &tr, &te, 2, 16), 0x7b51_dcbb_4e94_ff97, "biased pointwise");
}
