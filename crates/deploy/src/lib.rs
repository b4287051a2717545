//! Quantized deployment of column-combined networks — the paper's full
//! systolic *system* (Fig. 6): shift block → packed MX-cell array → ReLU
//! block → quantizer, end to end in integer arithmetic.
//!
//! Training (`cc-nn`) happens in 32-bit float; deployment quantizes inputs
//! and weights to 8-bit fixed point with 32-bit accumulation (§2.5) and
//! folds each batch-norm layer into the per-channel requantization step —
//! exactly what a real accelerator ships. [`DeployedNetwork`] builds that
//! integer pipeline from a trained [`cc_nn::Network`] plus its column
//! groups, calibrating activation scales on sample data, and runs
//! inference where every pointwise layer executes on the tiled bit-serial
//! systolic array simulator.
//!
//! This closes the loop on the paper's claim that 8-bit quantization and
//! column combining together lose little accuracy: the crate's tests
//! compare float accuracy against deployed integer accuracy on the same
//! test set.
//!
//! # Examples
//!
//! ```
//! use cc_dataset::SyntheticSpec;
//! use cc_deploy::DeployedNetwork;
//! use cc_nn::models::{lenet5_shift, ModelConfig};
//! use cc_packing::{ColumnCombineConfig, ColumnCombiner};
//!
//! let (train, test) = SyntheticSpec::mnist_like()
//!     .with_size(8, 8)
//!     .with_samples(64, 16)
//!     .generate(0);
//! let mut net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
//! let cfg = ColumnCombineConfig {
//!     rho: net.nonzero_conv_weights() / 2,
//!     epochs_per_iteration: 1,
//!     final_epochs: 1,
//!     ..ColumnCombineConfig::default()
//! };
//! let (_, groups, _) = ColumnCombiner::new(cfg).run(&mut net, &train, None);
//! let deployed = DeployedNetwork::build(&net, &groups, &train);
//! let acc = deployed.accuracy(&test);
//! assert!((0.0..=1.0).contains(&acc));
//! ```

pub mod builder;
pub mod engine;
pub mod qmap;
pub mod scratch;
pub mod shard;

pub use builder::{identity_groups, DeployedNetwork};
pub use engine::{layer_cost, BatchOutput, DeployedLayer};
pub use qmap::QMap;
pub use scratch::ActivationScratch;
pub use shard::{
    BandFaultError, BandSet, ConvTrace, FaultInjector, HealthEvent, ShardHealthConfig,
};
