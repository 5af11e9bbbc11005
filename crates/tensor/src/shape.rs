//! Dimension bookkeeping: sizes, row-major strides, and index conversions.

use crate::MAX_DIMS;
use std::fmt;

/// The shape of a dense, row-major N-dimensional array.
///
/// A `Shape` owns the dimension sizes and pre-computes the row-major strides so that
/// multi-dimensional coordinates can be converted to flat offsets (and back) cheaply.
///
/// # Examples
///
/// ```
/// use ipc_tensor::Shape;
/// let s = Shape::new(&[4, 6, 8]);
/// assert_eq!(s.len(), 4 * 6 * 8);
/// assert_eq!(s.strides(), &[48, 8, 1]);
/// assert_eq!(s.offset_of(&[1, 2, 3]), 48 + 16 + 3);
/// assert_eq!(s.coords_of(67), vec![1, 2, 3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
    strides: Vec<usize>,
}

impl Shape {
    /// Create a shape from dimension sizes (row-major / C order).
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, has more than [`MAX_DIMS`] entries, or contains a
    /// zero-sized dimension.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "Shape must have at least one dimension");
        assert!(
            dims.len() <= MAX_DIMS,
            "Shape supports at most {MAX_DIMS} dimensions, got {}",
            dims.len()
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "Shape dimensions must be non-zero: {dims:?}"
        );
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        Self {
            dims: dims.to_vec(),
            strides,
        }
    }

    /// Convenience constructor for a 1-D shape.
    pub fn d1(n: usize) -> Self {
        Self::new(&[n])
    }

    /// Convenience constructor for a 2-D shape.
    pub fn d2(n0: usize, n1: usize) -> Self {
        Self::new(&[n0, n1])
    }

    /// Convenience constructor for a 3-D shape.
    pub fn d3(n0: usize, n1: usize, n2: usize) -> Self {
        Self::new(&[n0, n1, n2])
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True if the shape contains no elements (never the case for a valid `Shape`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest dimension size. Drives the number of interpolation levels.
    pub fn max_dim(&self) -> usize {
        *self.dims.iter().max().expect("non-empty shape")
    }

    /// Flat row-major offset of multi-dimensional coordinates.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `coords` has the wrong rank or is out of bounds.
    #[inline]
    pub fn offset_of(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.ndim(), "coordinate rank mismatch");
        let mut off = 0usize;
        for (i, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.dims[i], "coordinate {c} out of bounds in dim {i}");
            off += c * self.strides[i];
        }
        off
    }

    /// Multi-dimensional coordinates of a flat row-major offset.
    #[inline]
    pub fn coords_of(&self, mut offset: usize) -> Vec<usize> {
        debug_assert!(offset < self.len(), "offset out of bounds");
        let mut coords = vec![0usize; self.ndim()];
        for (coord, &stride) in coords.iter_mut().zip(&self.strides) {
            *coord = offset / stride;
            offset %= stride;
        }
        coords
    }

    /// True when `coords` lies inside the shape.
    #[inline]
    pub fn contains(&self, coords: &[usize]) -> bool {
        coords.len() == self.ndim() && coords.iter().zip(&self.dims).all(|(&c, &d)| c < d)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), &[12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.ndim(), 3);
        assert_eq!(s.max_dim(), 4);
    }

    #[test]
    fn offset_roundtrip_all_coords() {
        let s = Shape::new(&[3, 4, 5]);
        for off in 0..s.len() {
            let c = s.coords_of(off);
            assert_eq!(s.offset_of(&c), off);
        }
    }

    #[test]
    fn one_dimensional() {
        let s = Shape::d1(17);
        assert_eq!(s.strides(), &[1]);
        assert_eq!(s.offset_of(&[13]), 13);
        assert_eq!(s.coords_of(13), vec![13]);
    }

    #[test]
    fn two_dimensional_helpers() {
        let s = Shape::d2(5, 7);
        assert_eq!(s.dims(), &[5, 7]);
        assert_eq!(s.offset_of(&[2, 3]), 2 * 7 + 3);
    }

    #[test]
    fn contains_checks_bounds() {
        let s = Shape::d3(2, 2, 2);
        assert!(s.contains(&[1, 1, 1]));
        assert!(!s.contains(&[2, 0, 0]));
        assert!(!s.contains(&[0, 0]));
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        let _ = Shape::new(&[4, 0, 3]);
    }

    #[test]
    #[should_panic]
    fn too_many_dims_rejected() {
        let _ = Shape::new(&[2, 2, 2, 2, 2]);
    }

    #[test]
    fn display_formats_dimensions() {
        assert_eq!(format!("{}", Shape::d3(256, 384, 384)), "256x384x384");
    }
}
