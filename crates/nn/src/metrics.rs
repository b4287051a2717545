//! Evaluation metrics.

use crate::loss::predictions;
use crate::network::Network;
use cc_dataset::Dataset;
use cc_tensor::pool;

/// Classification accuracy of `net` on `data` in `[0, 1]`, evaluated in
/// eval mode (running batch-norm statistics, no activation caching).
pub fn accuracy(net: &mut Network, data: &Dataset, batch_size: usize) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for batch in data.batches_sequential(batch_size) {
        let logits = net.forward(&batch.x, false);
        for (pred, &truth) in predictions(&logits).iter().zip(&batch.y) {
            if *pred == truth {
                correct += 1;
            }
        }
        pool::recycle(batch.x);
        pool::recycle(logits);
    }
    correct as f64 / data.len() as f64
}

/// Confusion matrix: `counts[truth][pred]`.
pub fn confusion_matrix(net: &mut Network, data: &Dataset, batch_size: usize) -> Vec<Vec<usize>> {
    let k = data.num_classes();
    let mut counts = vec![vec![0usize; k]; k];
    for batch in data.batches_sequential(batch_size) {
        let logits = net.forward(&batch.x, false);
        for (pred, &truth) in predictions(&logits).iter().zip(&batch.y) {
            counts[truth][*pred] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;
    use crate::layers::{GlobalAvgPool, Linear};
    use cc_dataset::SyntheticSpec;

    fn trivial_net(channels: usize, classes: usize) -> Network {
        Network::new(
            "t",
            vec![
                LayerKind::GlobalAvgPool(GlobalAvgPool::new()),
                LayerKind::Linear(Linear::new(channels, classes, 3)),
            ],
            classes,
        )
    }

    #[test]
    fn accuracy_in_unit_interval() {
        let (_, test) =
            SyntheticSpec::mnist_like().with_size(6, 6).with_samples(10, 20).generate(1);
        let mut net = trivial_net(1, 10);
        let acc = accuracy(&mut net, &test, 8);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn confusion_matrix_rows_sum_to_class_counts() {
        let (_, test) =
            SyntheticSpec::mnist_like().with_size(6, 6).with_samples(10, 30).generate(2);
        let mut net = trivial_net(1, 10);
        let cm = confusion_matrix(&mut net, &test, 7);
        let hist = test.class_histogram();
        for (row, expected) in cm.iter().zip(hist) {
            assert_eq!(row.iter().sum::<usize>(), expected);
        }
    }

    #[test]
    fn empty_dataset_accuracy_is_zero() {
        let (train, _) =
            SyntheticSpec::mnist_like().with_size(6, 6).with_samples(10, 2).generate(3);
        let empty = train.subset_fraction(0.0, 1);
        let mut net = trivial_net(1, 10);
        assert_eq!(accuracy(&mut net, &empty, 4), 0.0);
    }
}
