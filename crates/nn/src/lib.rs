//! Shift-plus-pointwise CNN substrate with full training support.
//!
//! The paper (§5) replaces every convolution in LeNet-5, VGG-16 and
//! ResNet-20 by *shift convolution*: a learned-weight-free spatial shift per
//! channel followed by a pointwise (1×1) convolution (Fig. 2). The filter
//! matrix of a pointwise layer is exactly the `N × M` matrix that column
//! combining packs, so this crate is the substrate on which `cc-packing`
//! runs Algorithms 1–3.
//!
//! Provided here:
//!
//! * every layer with a hand-written backward pass
//!   ([`layers`]: pointwise conv with pruning masks, shift, batch norm,
//!   ReLU, pooling, linear, residual blocks),
//! * [`Network`] — a composable container with train/eval modes,
//! * [`loss`] — softmax cross-entropy,
//! * [`optim`] — SGD with Nesterov momentum (paper §5: momentum 0.9),
//! * [`schedule`] — cosine learning-rate decay (paper §5),
//! * [`train`] — the epoch loop, and [`models`] — LeNet-5-Shift,
//!   VGG-16-Shift and ResNet-20-Shift builders.
//!
//! # Examples
//!
//! Train a tiny network for one epoch:
//!
//! ```
//! use cc_dataset::SyntheticSpec;
//! use cc_nn::{models, train::{Trainer, TrainConfig}};
//!
//! let (train, test) = SyntheticSpec::mnist_like()
//!     .with_size(8, 8)
//!     .with_samples(64, 32)
//!     .generate(0);
//! let mut net = models::lenet5_shift(&models::ModelConfig::tiny(1, 8, 8, 10));
//! let cfg = TrainConfig { epochs: 1, batch_size: 16, ..TrainConfig::default() };
//! let history = Trainer::new(cfg).fit(&mut net, &train, Some(&test));
//! assert_eq!(history.epochs.len(), 1);
//! ```

pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod network;
pub mod optim;
#[cfg(test)]
mod oracle;
pub mod param;
pub mod schedule;
pub mod serialize;
pub mod shapes;
pub mod train;

pub use layer::LayerKind;
pub use network::Network;
pub use param::Param;
