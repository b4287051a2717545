//! Tensor shapes (up to 4 dimensions, NCHW convention).

use std::fmt;

/// The shape of a [`crate::Tensor`], stored as up to four dimensions.
///
/// The NCHW convention is used throughout: `(batch, channels, height, width)`.
/// Lower-rank tensors simply use fewer dimensions; a matrix is `(rows, cols)`.
///
/// # Examples
///
/// ```
/// use cc_tensor::Shape;
/// let s = Shape::d4(8, 3, 32, 32);
/// assert_eq!(s.len(), 8 * 3 * 32 * 32);
/// assert_eq!(s.rank(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; 4],
    rank: u8,
}

impl Shape {
    /// Creates a rank-1 shape.
    pub fn d1(n: usize) -> Self {
        Shape { dims: [n, 1, 1, 1], rank: 1 }
    }

    /// Creates a rank-2 shape `(rows, cols)`.
    pub fn d2(r: usize, c: usize) -> Self {
        Shape { dims: [r, c, 1, 1], rank: 2 }
    }

    /// Creates a rank-3 shape `(channels, height, width)`.
    pub fn d3(c: usize, h: usize, w: usize) -> Self {
        Shape { dims: [c, h, w, 1], rank: 3 }
    }

    /// Creates a rank-4 shape `(batch, channels, height, width)`.
    pub fn d4(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape { dims: [n, c, h, w], rank: 4 }
    }

    /// Builds a shape from a slice of dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or has more than four entries.
    pub fn from_slice(dims: &[usize]) -> Self {
        assert!(!dims.is_empty() && dims.len() <= 4, "shape rank must be 1..=4");
        let mut d = [1usize; 4];
        d[..dims.len()].copy_from_slice(dims);
        Shape { dims: d, rank: dims.len() as u8 }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims[..self.rank()].iter().product()
    }

    /// Returns `true` when the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank()`.
    pub fn dim(&self, i: usize) -> usize {
        assert!(i < self.rank(), "dimension {i} out of range for rank {}", self.rank());
        self.dims[i]
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank()]
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.dims().iter().map(|d| d.to_string()).collect();
        write!(f, "({})", parts.join("×"))
    }
}

impl From<(usize, usize)> for Shape {
    fn from((r, c): (usize, usize)) -> Self {
        Shape::d2(r, c)
    }
}

impl From<(usize, usize, usize, usize)> for Shape {
    fn from((n, c, h, w): (usize, usize, usize, usize)) -> Self {
        Shape::d4(n, c, h, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_and_len() {
        assert_eq!(Shape::d1(5).len(), 5);
        assert_eq!(Shape::d2(3, 4).len(), 12);
        assert_eq!(Shape::d3(2, 3, 4).len(), 24);
        assert_eq!(Shape::d4(2, 3, 4, 5).len(), 120);
        assert_eq!(Shape::d4(2, 3, 4, 5).rank(), 4);
    }

    #[test]
    fn from_slice_roundtrip() {
        let s = Shape::from_slice(&[4, 9]);
        assert_eq!(s, Shape::d2(4, 9));
        assert_eq!(s.dims(), &[4, 9]);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn dim_out_of_range_panics() {
        Shape::d2(2, 2).dim(2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape::d2(3, 4).to_string(), "(3×4)");
    }

    #[test]
    fn empty_shape() {
        assert!(Shape::d2(0, 5).is_empty());
        assert!(!Shape::d1(1).is_empty());
    }
}
