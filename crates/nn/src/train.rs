//! The training loop.

use crate::loss::softmax_cross_entropy;
use crate::metrics::accuracy;
use crate::network::Network;
use crate::optim::Sgd;
use crate::schedule::LrSchedule;
use cc_dataset::{Batch, Dataset};
use cc_tensor::pool;

/// Configuration for [`Trainer`].
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Optimizer hyper-parameters.
    pub sgd: Sgd,
    /// Base RNG seed for batch shuffling (varied per epoch).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            schedule: LrSchedule::paper_iteration(0.05, 10),
            sgd: Sgd::default(),
            seed: 0,
        }
    }
}

/// Per-epoch record of the training trajectory — the raw series behind the
/// paper's Fig. 13a (accuracy and nonzero weights over epochs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Test accuracy (when a test set is supplied; otherwise 0).
    pub test_accuracy: f64,
    /// Nonzero weights in the prunable (pointwise) layers.
    pub nonzero_weights: usize,
    /// Learning rate used this epoch.
    pub lr: f32,
}

/// Full training history.
#[derive(Clone, Debug, Default)]
pub struct History {
    /// One entry per completed epoch.
    pub epochs: Vec<EpochStats>,
}

impl History {
    /// Final test accuracy (0 when no epochs ran).
    pub fn final_accuracy(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.test_accuracy)
    }
}

/// Epoch-loop trainer: shuffled mini-batches, forward, softmax
/// cross-entropy, backward, SGD step (masks re-applied inside the step).
#[derive(Clone, Copy, Debug)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on `train`, optionally evaluating on `test` each epoch.
    ///
    /// Steps draw their tensors from this thread's [`cc_tensor::pool`] and
    /// give them back, so after the first step of the run none allocates;
    /// the pool's buffers are released when `fit` returns.
    pub fn fit(&self, net: &mut Network, train: &Dataset, test: Option<&Dataset>) -> History {
        let mut history = History::default();
        for epoch in 0..self.config.epochs {
            let lr = self.config.schedule.lr_at(epoch);
            let mut loss_sum = 0.0f32;
            let mut batches = 0usize;
            let epoch_seed = self.config.seed.wrapping_mul(1_000_003).wrapping_add(epoch as u64);
            for batch in train.batches(self.config.batch_size, epoch_seed) {
                loss_sum += self.step(net, batch, lr);
                batches += 1;
            }
            let test_accuracy =
                test.map_or(0.0, |t| accuracy(net, t, self.config.batch_size.max(1)));
            history.epochs.push(EpochStats {
                epoch,
                train_loss: if batches > 0 { loss_sum / batches as f32 } else { 0.0 },
                test_accuracy,
                nonzero_weights: net.nonzero_conv_weights(),
                lr,
            });
        }
        pool::release();
        history
    }

    /// One SGD step on `batch` at learning rate `lr`, returning its loss.
    /// Every tensor the step makes, and the batch's input, goes back to
    /// [`cc_tensor::pool`], so once one step has warmed the pool the next
    /// (same batch shape) allocates no tensor buffer.
    fn step(&self, net: &mut Network, batch: Batch, lr: f32) -> f32 {
        net.zero_grad();
        let logits = net.forward(&batch.x, true);
        let (loss, grad) = softmax_cross_entropy(&logits, &batch.y);
        net.backward(&grad);
        self.config.sgd.step(net, lr);
        for done in [batch.x, logits, grad] {
            pool::recycle(done);
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{lenet5_shift, resnet20_shift, ModelConfig};
    use cc_dataset::SyntheticSpec;

    /// Once the first step of an epoch has warmed the pool, no step
    /// allocates a tensor buffer: not the batch, not an activation, cached
    /// input or gradient, not the GEMMs' scratch — on LeNet and on a
    /// ResNet, whose residual blocks pool, pad and add their shortcuts.
    #[test]
    fn steps_after_the_first_allocate_no_tensor_buffer() {
        let (digits, _) =
            SyntheticSpec::mnist_like().with_size(12, 12).with_samples(96, 1).generate(3);
        let (photos, _) =
            SyntheticSpec::cifar_like().with_size(8, 8).with_samples(96, 1).generate(4);
        let nets = [
            (lenet5_shift(&ModelConfig::tiny(1, 12, 12, 10)), &digits),
            (resnet20_shift(&ModelConfig::tiny(3, 8, 8, 10)), &photos),
        ];
        let trainer = Trainer::new(TrainConfig::default());
        for (mut net, data) in nets {
            let mut per_step = Vec::new();
            let mut batches = data.batches(16, 5);
            loop {
                let before = pool::allocations();
                let Some(batch) = batches.next() else { break };
                let loss = trainer.step(&mut net, batch, 0.05);
                assert!(loss.is_finite());
                per_step.push(pool::allocations() - before);
            }
            assert_eq!(per_step.len(), 6);
            assert!(per_step[0] > 0, "{}: the first step warms the pool", net.name());
            assert!(per_step[1..].iter().all(|&n| n == 0), "{}: {per_step:?}", net.name());
        }
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let (train, test) = SyntheticSpec::mnist_like()
            .with_size(8, 8)
            .with_samples(256, 128)
            .generate(11);
        let mut net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 32,
            schedule: LrSchedule::Constant(0.05),
            ..TrainConfig::default()
        };
        let history = Trainer::new(cfg).fit(&mut net, &train, Some(&test));
        let first = history.epochs.first().unwrap().train_loss;
        let last = history.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss did not decrease: {first} → {last}");
        assert!(
            history.final_accuracy() > 0.3,
            "accuracy {:.3} not above chance",
            history.final_accuracy()
        );
    }

    #[test]
    fn history_tracks_epochs_and_lr() {
        let (train, _) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(32, 8).generate(1);
        let mut net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 16,
            schedule: LrSchedule::Cosine { start: 0.1, end: 0.01, epochs: 3 },
            ..TrainConfig::default()
        };
        let h = Trainer::new(cfg).fit(&mut net, &train, None);
        assert_eq!(h.epochs.len(), 3);
        assert!((h.epochs[0].lr - 0.1).abs() < 1e-6);
        assert!((h.epochs[2].lr - 0.01).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(64, 32).generate(5);
        let run = || {
            let mut net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
            let cfg = TrainConfig { epochs: 2, batch_size: 16, ..TrainConfig::default() };
            Trainer::new(cfg).fit(&mut net, &train, Some(&test)).final_accuracy()
        };
        assert_eq!(run(), run());
    }
}
