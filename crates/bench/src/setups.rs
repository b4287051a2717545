//! Standard datasets and models used by the experiment binaries.

use crate::scale::Scale;
use cc_dataset::{Dataset, SyntheticSpec};
use cc_deploy::{identity_groups, DeployedNetwork};
use cc_nn::models::{lenet5_shift, resnet20_shift, vgg16_shift, ModelConfig};
use cc_nn::Network;
use cc_packing::{ColumnCombineConfig, ColumnCombiner, GroupingPolicy};

/// CIFAR-10-like synthetic dataset at the experiment scale.
pub fn cifar_setup(scale: &Scale, seed: u64) -> (Dataset, Dataset) {
    SyntheticSpec::cifar_like()
        .with_size(scale.image_hw, scale.image_hw)
        .with_samples(scale.train_samples, scale.test_samples)
        .generate(seed)
}

/// MNIST-like synthetic dataset at the experiment scale.
pub fn mnist_setup(scale: &Scale, seed: u64) -> (Dataset, Dataset) {
    SyntheticSpec::mnist_like()
        .with_size(scale.image_hw, scale.image_hw)
        .with_samples(scale.train_samples, scale.test_samples)
        .generate(seed)
}

/// ResNet-20-Shift at the experiment scale (CIFAR-shaped input).
pub fn resnet(scale: &Scale, seed: u64) -> Network {
    let cfg = ModelConfig::new(3, scale.image_hw, scale.image_hw, 10)
        .with_width(scale.width_mult)
        .with_seed(seed);
    resnet20_shift(&cfg)
}

/// VGG-16-Shift at the experiment scale (width further reduced — VGG is by
/// far the largest of the three networks).
pub fn vgg(scale: &Scale, seed: u64) -> Network {
    let cfg = ModelConfig::new(3, scale.image_hw, scale.image_hw, 10)
        .with_width(scale.width_mult * 0.25)
        .with_seed(seed);
    vgg16_shift(&cfg)
}

/// LeNet-5-Shift at the experiment scale (MNIST-shaped input).
pub fn lenet(scale: &Scale, seed: u64) -> Network {
    let cfg = ModelConfig::new(1, scale.image_hw, scale.image_hw, 10)
        .with_width(scale.width_mult)
        .with_seed(seed);
    lenet5_shift(&cfg)
}

/// The paper's three Algorithm 1 parameter settings from §5.4 / Fig. 15a /
/// Fig. 16.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Setting {
    /// Standard pruning, no combining: α = 1, γ = 0.
    Baseline,
    /// Column combining without conflict pruning: α = 8, γ = 0.
    Combine,
    /// Column combining with conflict pruning: α = 8, γ = 0.5.
    CombinePrune,
}

impl Setting {
    /// All three settings in the paper's presentation order.
    pub fn all() -> [Setting; 3] {
        [Setting::Baseline, Setting::Combine, Setting::CombinePrune]
    }

    /// Display label, matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            Setting::Baseline => "Baseline (a=1, g=0)",
            Setting::Combine => "Column-Combine (a=8, g=0)",
            Setting::CombinePrune => "Column-Combine Pruning (a=8, g=0.5)",
        }
    }

    /// (α, γ) used when *packing* under this setting.
    pub fn alpha_gamma(&self) -> (usize, f64) {
        match self {
            Setting::Baseline => (1, 0.0),
            Setting::Combine => (8, 0.0),
            Setting::CombinePrune => (8, 0.5),
        }
    }
}

/// An Algorithm 1 configuration at the experiment scale, targeting a
/// `keep` fraction of the initial nonzero weights.
pub fn combine_config(scale: &Scale, net: &Network, keep: f64, alpha: usize, gamma: f64) -> ColumnCombineConfig {
    ColumnCombineConfig {
        alpha,
        gamma,
        beta: 0.20,
        rho: (net.nonzero_conv_weights() as f64 * keep) as usize,
        beta_decay: 0.9,
        epochs_per_iteration: scale.epochs_per_iteration,
        final_epochs: scale.final_epochs,
        max_iterations: scale.max_iterations,
        eta: scale.eta,
        batch_size: scale.batch_size,
        seed: 7,
        policy: GroupingPolicy::DenseColumnFirst,
    }
}

/// The serving experiments' network: one small LeNet trained and
/// column-combined, then deployed twice — with its combined groups
/// (packed) and with singleton groups (unpacked) — plus its test set.
pub fn serving_networks(scale: &Scale) -> (DeployedNetwork, DeployedNetwork, Dataset) {
    // Serve a conv-dominated network even at quick scale: on a tiny model
    // the fixed per-request cost (quantize, shift, pools, channel
    // hand-off) swamps the array time that packing actually saves.
    let scale = &Scale {
        image_hw: scale.image_hw.max(16),
        width_mult: scale.width_mult.max(1.0),
        ..*scale
    };
    let (train, test) = mnist_setup(scale, 31);
    let mut net = lenet(scale, 31);
    // Serving cares about the deployed artifact, not accuracy: a shortened
    // combining run keeps setup time in check.
    let cfg = ColumnCombineConfig {
        epochs_per_iteration: 1,
        final_epochs: 1,
        max_iterations: 4,
        rho: net.nonzero_conv_weights() / 2,
        ..combine_config(scale, &net, 0.5, 8, 0.5)
    };
    let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
    let packed = DeployedNetwork::build(&net, &groups, &train);
    let unpacked = DeployedNetwork::build(&net, &identity_groups(&net), &train);
    (packed, unpacked, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_build() {
        let s = Scale::quick();
        let (train, test) = cifar_setup(&s, 1);
        assert_eq!(train.num_classes(), 10);
        assert!(!test.is_empty());
        assert_eq!(resnet(&s, 1).num_pointwise(), 19);
        assert_eq!(lenet(&s, 1).num_pointwise(), 4);
        assert_eq!(vgg(&s, 1).num_pointwise(), 14);
    }

    #[test]
    fn settings_match_paper() {
        assert_eq!(Setting::Baseline.alpha_gamma(), (1, 0.0));
        assert_eq!(Setting::Combine.alpha_gamma(), (8, 0.0));
        assert_eq!(Setting::CombinePrune.alpha_gamma(), (8, 0.5));
    }

    #[test]
    fn combine_config_targets_keep_fraction() {
        let s = Scale::quick();
        let net = lenet(&s, 1);
        let cfg = combine_config(&s, &net, 0.25, 8, 0.5);
        assert_eq!(cfg.rho, net.nonzero_conv_weights() / 4);
    }
}
