//! Seeded networks and datasets the workloads run on, and the sizes they
//! come in.

use cc_dataset::{Dataset, SyntheticSpec};
use cc_deploy::{ActivationScratch, BandSet, DeployedLayer, DeployedNetwork};
use cc_nn::models::{lenet5_shift, resnet20_shift, ModelConfig};
use cc_nn::Network;
use cc_packing::{group_columns, prune_smallest_fraction, ColumnGroups, GroupingConfig};
use cc_systolic::SimStats;
use cc_tensor::Tensor;

/// Images per offline batch and per serving batch cap; simulated counts
/// are taken at this batch size too.
pub const BATCH: usize = 8;

/// Paper's grouping parameters (alpha = 8, gamma = 0.5).
pub const ALPHA: usize = 8;
pub const GAMMA: f64 = 0.5;

/// Geometry and counts of every workload. `full` is what the benchmark
/// measures; `smoke` is a fiftieth of it, small enough for a debug-build
/// test to run every workload in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Size {
    /// LeNet input side and width multiplier.
    pub lenet_hw: usize,
    pub lenet_width: f32,
    /// `combine_lenet` training and held-out set sizes.
    pub combine_train: usize,
    pub combine_test: usize,
    /// ResNet input side and width multiplier (6 is the paper's
    /// shift-ResNet: its layer 3 is 96x94).
    pub resnet_hw: usize,
    pub resnet_width: f32,
    /// Distinct offline batches cycled through.
    pub offline_batches: usize,
    /// Images in the serving catalog.
    pub catalog: usize,
    /// `serve_open` arrival rate and the two extra traced rungs.
    pub open_rates: [f64; 3],
}

impl Size {
    pub fn full() -> Self {
        Size {
            lenet_hw: 28,
            lenet_width: 1.0,
            combine_train: 384,
            combine_test: 256,
            resnet_hw: 32,
            resnet_width: 6.0,
            offline_batches: 4,
            catalog: 1024,
            open_rates: [2500.0, 5000.0, 7500.0],
        }
    }

    pub fn smoke() -> Self {
        Size {
            lenet_hw: 12,
            lenet_width: 0.5,
            combine_train: 64,
            combine_test: 32,
            resnet_hw: 8,
            resnet_width: 0.5,
            offline_batches: 2,
            catalog: 64,
            open_rates: [500.0, 1000.0, 1500.0],
        }
    }
}

/// Synthetic MNIST-shaped data at the LeNet geometry. The noise is above
/// the generator's default so that held-out accuracy does not saturate at
/// 1.0 and can move either way.
pub fn mnist(size: &Size, train: usize, test: usize, seed: u64) -> (Dataset, Dataset) {
    SyntheticSpec::mnist_like()
        .with_size(size.lenet_hw, size.lenet_hw)
        .with_samples(train, test)
        .with_noise(0.6)
        .generate(seed)
}

/// Dense LeNet-5-Shift with seeded weights.
pub fn lenet(size: &Size, seed: u64) -> Network {
    lenet5_shift(
        &ModelConfig::new(1, size.lenet_hw, size.lenet_hw, 10)
            .with_width(size.lenet_width)
            .with_seed(seed),
    )
}

/// Magnitude-prunes every pointwise layer to `density`, standing in for
/// the sparsity iterative pruning reaches: array-side cost depends on
/// shapes and sparsity, not on trained values.
pub fn sparsify(net: &mut Network, density: f64) {
    net.visit_pointwise(&mut |_, pw| {
        let (pruned, _) = prune_smallest_fraction(&pw.filter_matrix(), 1.0 - density);
        pw.set_filter_matrix(pruned);
    });
}

/// Column groups of every pointwise layer under the paper's parameters.
pub fn paper_groups(net: &Network) -> Vec<ColumnGroups> {
    let cfg = GroupingConfig::new(ALPHA, GAMMA);
    let mut groups = Vec::with_capacity(net.num_pointwise());
    net.visit_pointwise_ref(&mut |_, pw| groups.push(group_columns(&pw.filter_matrix(), &cfg)));
    groups
}

/// The serving model: LeNet-5-Shift at paper geometry, a quarter of its
/// weights kept, column-combined, deployed. Returns the held-out images
/// the catalog is cut from as well.
pub fn serving_lenet(size: &Size, seed: u64) -> (DeployedNetwork, Dataset) {
    let (calibration, catalog) = mnist(size, 16, size.catalog, seed);
    let mut net = lenet(size, seed);
    sparsify(&mut net, 0.25);
    let deployed = DeployedNetwork::build(&net, &paper_groups(&net), &calibration);
    (deployed, catalog)
}

/// The offline model before deployment: ResNet-20-Shift at publication
/// geometry and density 0.16, with calibration data and the images the
/// offline batches are cut from.
pub fn offline_resnet(size: &Size, seed: u64) -> (Network, Dataset, Dataset) {
    let (calibration, images) = SyntheticSpec::cifar_like()
        .with_size(size.resnet_hw, size.resnet_hw)
        .with_samples(16, size.offline_batches * BATCH)
        .generate(seed);
    let mut net = resnet20_shift(
        &ModelConfig::new(3, size.resnet_hw, size.resnet_hw, 10)
            .with_width(size.resnet_width)
            .with_seed(seed),
    );
    sparsify(&mut net, 0.16);
    (net, calibration, images)
}

/// Clones `count` images of `data` starting at `first`, wrapping around.
pub fn images(data: &Dataset, first: usize, count: usize) -> Vec<Tensor> {
    (0..count)
        .map(|i| data.image((first + i) % data.len()).clone())
        .collect()
}

/// Whether two logit vectors are the same bit for bit.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Array-side figures of a deployed network at batch [`BATCH`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrayFigures {
    /// Counters of one batch on one array.
    pub stats: SimStats,
    /// Tiles over every packed conv.
    pub tiles: u64,
    /// Weight words loaded per pass over the network.
    pub weight_words: u64,
}

impl ArrayFigures {
    pub fn sim_cycles_per_img(&self) -> f64 {
        self.stats.cycles as f64 / BATCH as f64
    }
}

/// Calls `f` on every packed conv of `layers`, residual bodies included.
pub fn for_each_conv(layers: &[DeployedLayer], f: &mut dyn FnMut(&cc_systolic::PreparedPacked)) {
    for layer in layers {
        match layer {
            DeployedLayer::PackedConv { tiles, .. } => f(tiles),
            DeployedLayer::Residual { body, .. } => for_each_conv(body, f),
            _ => {}
        }
    }
}

/// Runs one batch through a one-shard band set, whose merged counters are
/// the unsharded run's by construction, and reads the array-side figures.
pub fn array_figures(deployed: &DeployedNetwork, batch: &[Tensor]) -> ArrayFigures {
    let mut bands = BandSet::new(1);
    deployed.run_batch_banded(
        &deployed.scheduler(),
        batch,
        &mut ActivationScratch::new(),
        &mut bands,
    );
    let (mut tiles, mut weight_words) = (0u64, 0u64);
    for_each_conv(deployed.layers(), &mut |conv| {
        tiles += conv.num_tiles() as u64;
        weight_words += conv.load_words();
    });
    ArrayFigures {
        stats: bands.merged_stats(),
        tiles,
        weight_words,
    }
}
