//! Mini-batch construction.

use crate::dataset::Dataset;
use cc_tensor::{pool, Shape, Tensor};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One mini-batch: an `(N, C, H, W)` input tensor plus labels.
///
/// `x` is drawn from [`cc_tensor::pool`]: a loop that hands it back with
/// [`pool::recycle`] once the batch is done stacks the next batch into the
/// same buffer.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Stacked input images, NCHW.
    pub x: Tensor,
    /// Ground-truth class per sample.
    pub y: Vec<usize>,
}

impl Batch {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// `true` when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// Iterator over mini-batches of a [`Dataset`].
///
/// Created by [`Dataset::batches`] (shuffled) or
/// [`Dataset::batches_sequential`] (in order). The trailing short batch is
/// yielded.
pub struct BatchIter<'a> {
    dataset: &'a Dataset,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl<'a> BatchIter<'a> {
    pub(crate) fn new(dataset: &'a Dataset, batch_size: usize, seed: Option<u64>) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        if let Some(seed) = seed {
            let mut rng = SmallRng::seed_from_u64(seed);
            order.shuffle(&mut rng);
        }
        BatchIter { dataset, order, batch_size, cursor: 0 }
    }
}

impl Iterator for BatchIter<'_> {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let idxs = &self.order[self.cursor..end];
        self.cursor = end;

        let first = self.dataset.image(idxs[0]).shape();
        let (c, h, w) = (first.dim(0), first.dim(1), first.dim(2));
        let mut x = pool::zeros(Shape::d4(idxs.len(), c, h, w));
        let chw = c * h * w;
        for (bi, &i) in idxs.iter().enumerate() {
            x.as_mut_slice()[bi * chw..(bi + 1) * chw]
                .copy_from_slice(self.dataset.image(i).as_slice());
        }
        let y = idxs.iter().map(|&i| self.dataset.label(i)).collect();
        Some(Batch { x, y })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n: usize) -> Dataset {
        let images = (0..n).map(|i| Tensor::full(Shape::d3(2, 3, 3), i as f32)).collect();
        let labels = (0..n).map(|i| i % 2).collect();
        Dataset::new(images, labels, 2)
    }

    #[test]
    fn sequential_covers_all_in_order() {
        let d = tiny(7);
        let batches: Vec<Batch> = d.batches_sequential(3).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 3);
        assert_eq!(batches[2].len(), 1);
        assert_eq!(batches[0].x.get4(0, 0, 0, 0), 0.0);
        assert_eq!(batches[2].x.get4(0, 0, 0, 0), 6.0);
    }

    #[test]
    fn shuffled_is_permutation() {
        let d = tiny(10);
        let mut seen: Vec<f32> = d
            .batches(4, 99)
            .flat_map(|b| (0..b.len()).map(|i| b.x.get4(i, 0, 0, 0)).collect::<Vec<_>>())
            .collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(seen, (0..10).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_depends_on_seed() {
        let d = tiny(32);
        let order = |seed| -> Vec<usize> {
            d.batches(32, seed).next().unwrap().y.clone()
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
    }

    #[test]
    fn batch_tensor_is_nchw() {
        let d = tiny(2);
        let b = d.batches_sequential(2).next().unwrap();
        assert_eq!(b.x.shape().dims(), &[2, 2, 3, 3]);
    }
}
