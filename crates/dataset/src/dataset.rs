//! In-memory labelled image dataset with deterministic subsetting.

use crate::batch::BatchIter;
use cc_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labelled set of images, all sharing one `(C, H, W)` shape.
///
/// Supports the deterministic fractional subsetting used by the paper's
/// limited-data study (§6, Fig. 15b): vendors retrain with only a fraction
/// of the customer's training set.
#[derive(Clone, Debug)]
pub struct Dataset {
    images: Vec<Tensor>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Builds a dataset from parallel image/label vectors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, if any label is `>= num_classes`, or if
    /// images disagree on shape.
    pub fn new(images: Vec<Tensor>, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
        if let Some(first) = images.first() {
            assert!(
                images.iter().all(|im| im.shape() == first.shape()),
                "all images must share a shape"
            );
        }
        Dataset { images, labels, num_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Image `i` as a `(C, H, W)` tensor.
    pub fn image(&self, i: usize) -> &Tensor {
        &self.images[i]
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// All images, in sample order.
    pub fn images(&self) -> &[Tensor] {
        &self.images
    }

    /// Iterates over mini-batches in a shuffled order derived from `seed`.
    /// The final short batch is included.
    pub fn batches(&self, batch_size: usize, seed: u64) -> BatchIter<'_> {
        BatchIter::new(self, batch_size, Some(seed))
    }

    /// Iterates over mini-batches in dataset order (for evaluation).
    pub fn batches_sequential(&self, batch_size: usize) -> BatchIter<'_> {
        BatchIter::new(self, batch_size, None)
    }

    /// Deterministic class-stratified subset containing roughly `fraction`
    /// of the samples (at least one per class when the class is nonempty
    /// and `fraction > 0`). This mirrors the paper's limited-data protocol:
    /// "providing only a subset of the original dataset" (§6).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction <= 1.0`.
    pub fn subset_fraction(&self, fraction: f64, seed: u64) -> Dataset {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut picked: Vec<usize> = Vec::new();
        for class in 0..self.num_classes {
            let mut members: Vec<usize> =
                (0..self.len()).filter(|&i| self.labels[i] == class).collect();
            members.shuffle(&mut rng);
            let take = if fraction == 0.0 {
                0
            } else {
                ((members.len() as f64 * fraction).round() as usize).max(1).min(members.len())
            };
            picked.extend_from_slice(&members[..take]);
        }
        picked.sort_unstable();
        Dataset {
            images: picked.iter().map(|&i| self.images[i].clone()).collect(),
            labels: picked.iter().map(|&i| self.labels[i]).collect(),
            num_classes: self.num_classes,
        }
    }

    /// Splits off the first `n` samples into one dataset and the rest into
    /// another (order-preserving).
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn split_at(&self, n: usize) -> (Dataset, Dataset) {
        assert!(n <= self.len(), "split point out of range");
        let head = Dataset {
            images: self.images[..n].to_vec(),
            labels: self.labels[..n].to_vec(),
            num_classes: self.num_classes,
        };
        let tail = Dataset {
            images: self.images[n..].to_vec(),
            labels: self.labels[n..].to_vec(),
            num_classes: self.num_classes,
        };
        (head, tail)
    }

    /// Per-class sample counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes];
        for &l in &self.labels {
            h[l] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::Shape;

    fn tiny(n: usize, classes: usize) -> Dataset {
        let images = (0..n).map(|i| Tensor::full(Shape::d3(1, 2, 2), i as f32)).collect();
        let labels = (0..n).map(|i| i % classes).collect();
        Dataset::new(images, labels, classes)
    }

    #[test]
    fn histogram_counts_classes() {
        let d = tiny(10, 2);
        assert_eq!(d.class_histogram(), vec![5, 5]);
    }

    #[test]
    fn subset_fraction_is_stratified_and_deterministic() {
        let d = tiny(100, 4);
        let s1 = d.subset_fraction(0.25, 7);
        let s2 = d.subset_fraction(0.25, 7);
        assert_eq!(s1.labels(), s2.labels());
        // 25 per class * 0.25 ≈ 6 each
        for &count in &s1.class_histogram() {
            assert!((5..=7).contains(&count), "unexpected class count {count}");
        }
    }

    #[test]
    fn subset_fraction_keeps_at_least_one_per_class() {
        let d = tiny(100, 10);
        let s = d.subset_fraction(0.01, 3);
        assert!(s.class_histogram().iter().all(|&c| c >= 1));
    }

    #[test]
    fn subset_zero_is_empty() {
        let d = tiny(10, 2);
        assert!(d.subset_fraction(0.0, 1).is_empty());
    }

    #[test]
    fn split_at_partitions() {
        let d = tiny(10, 2);
        let (a, b) = d.split_at(3);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 7);
        assert_eq!(a.image(0).as_slice()[0], 0.0);
        assert_eq!(b.image(0).as_slice()[0], 3.0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        let images = vec![Tensor::zeros(Shape::d3(1, 1, 1))];
        Dataset::new(images, vec![5], 2);
    }
}
