//! A minimal dense row-major `f32` tensor.

use crate::shape::Shape;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major `f32` tensor with up to four dimensions (NCHW).
///
/// This is intentionally small: the reproduction needs exactly the operations
/// a shift-plus-pointwise CNN requires, nothing more. Data is stored in a
/// contiguous `Vec<f32>`.
///
/// # Examples
///
/// ```
/// use cc_tensor::{Shape, Tensor};
/// let mut t = Tensor::zeros(Shape::d2(2, 3));
/// t.set2(1, 2, 7.0);
/// assert_eq!(t.get2(1, 2), 7.0);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor { data: vec![0.0; shape.len()], shape }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor { data: vec![value; shape.len()], shape }
    }

    /// Creates a tensor from a shape and existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(self.shape.len(), shape.len(), "reshape element count mismatch");
        self.shape = shape;
        self
    }

    /// Element at a rank-2 index.
    pub fn get2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.rank(), 2);
        self.data[r * self.shape.dim(1) + c]
    }

    /// Sets the element at a rank-2 index.
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        debug_assert_eq!(self.shape.rank(), 2);
        let cols = self.shape.dim(1);
        self.data[r * cols + c] = v;
    }

    /// Element at a rank-3 CHW index.
    pub fn get3(&self, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.index3(c, h, w)]
    }

    /// Sets the element at a rank-3 CHW index.
    pub fn set3(&mut self, c: usize, h: usize, w: usize, v: f32) {
        let i = self.index3(c, h, w);
        self.data[i] = v;
    }

    fn index3(&self, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.rank(), 3);
        let d = self.shape.dims();
        (c * d[1] + h) * d[2] + w
    }

    /// Element at a rank-4 NCHW index.
    pub fn get4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.index4(n, c, h, w)]
    }

    /// Sets the element at a rank-4 NCHW index.
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.index4(n, c, h, w);
        self.data[i] = v;
    }

    fn index4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.rank(), 4);
        let d = self.shape.dims();
        ((n * d[1] + c) * d[2] + h) * d[3] + w
    }

    /// Number of nonzero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of nonzero elements in `[0, 1]`; zero for an empty tensor.
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.count_nonzero() as f64 / self.data.len() as f64
        }
    }

    /// In-place element-wise scaling.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// In-place element-wise addition of `other * k` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, k: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += k * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute value (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

impl Index<usize> for Tensor {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Tensor {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} nnz={}/{}", self.shape, self.count_nonzero(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(Shape::d2(2, 2));
        assert_eq!(z.sum(), 0.0);
        let f = Tensor::full(Shape::d2(2, 2), 3.0);
        assert_eq!(f.sum(), 12.0);
    }

    #[test]
    fn rank4_indexing_matches_row_major() {
        let mut t = Tensor::zeros(Shape::d4(2, 3, 4, 5));
        t.set4(1, 2, 3, 4, 9.0);
        assert_eq!(t.as_slice()[60 + 2 * 20 + 3 * 5 + 4], 9.0);
        assert_eq!(t.get4(1, 2, 3, 4), 9.0);
    }

    #[test]
    fn density_counts_nonzeros() {
        let t = Tensor::from_vec(Shape::d1(4), vec![0.0, 1.0, 0.0, -2.0]);
        assert_eq!(t.count_nonzero(), 2);
        assert!((t.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn axpy_adds_scaled() {
        let mut a = Tensor::from_vec(Shape::d1(3), vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(Shape::d1(3), vec![1.0, 1.0, 1.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_mismatch_panics() {
        let _ = Tensor::zeros(Shape::d1(4)).reshape(Shape::d2(3, 3));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape::d1(6), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let m = t.reshape(Shape::d2(2, 3));
        assert_eq!(m.get2(1, 0), 3.0);
    }

    #[test]
    fn max_abs_handles_negatives() {
        let t = Tensor::from_vec(Shape::d1(3), vec![1.0, -5.0, 2.0]);
        assert_eq!(t.max_abs(), 5.0);
    }
}
