//! Owned dense N-dimensional arrays.

use crate::Shape;

/// A dense, row-major N-dimensional array of `T`.
///
/// This is the in-memory representation of a scientific field throughout the
/// workspace. Compressors accept `&ArrayD<f64>` (or its flat `&[f64]` plus
/// [`Shape`]) and produce reconstructions of the same shape.
///
/// # Examples
///
/// ```
/// use ipc_tensor::{ArrayD, Shape};
/// let mut a = ArrayD::zeros(Shape::d2(2, 3));
/// a[[1, 2]] = 5.0;
/// assert_eq!(a[[1, 2]], 5.0);
/// assert_eq!(a.as_slice()[5], 5.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayD<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Clone + Default> ArrayD<T> {
    /// Create an array filled with `T::default()`.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.len();
        Self {
            shape,
            data: vec![T::default(); n],
        }
    }

    /// Create an array filled with a constant value.
    pub fn full(shape: Shape, value: T) -> Self {
        let n = shape.len();
        Self {
            shape,
            data: vec![value; n],
        }
    }
}

impl<T> ArrayD<T> {
    /// Wrap an existing flat buffer (row-major) with a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Self { shape, data }
    }

    /// Build an array by evaluating `f` at every coordinate.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for off in 0..shape.len() {
            let coords = shape.coords_of(off);
            data.push(f(&coords));
        }
        Self { shape, data }
    }

    /// The array's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array has no elements (never the case for a valid shape).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element at multi-dimensional coordinates.
    #[inline]
    pub fn get(&self, coords: &[usize]) -> &T {
        &self.data[self.shape.offset_of(coords)]
    }

    /// Mutable element at multi-dimensional coordinates.
    #[inline]
    pub fn get_mut(&mut self, coords: &[usize]) -> &mut T {
        let off = self.shape.offset_of(coords);
        &mut self.data[off]
    }

    /// Apply a function to every element, producing a new array of the results.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> ArrayD<U> {
        ArrayD {
            shape: self.shape.clone(),
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl ArrayD<f64> {
    /// Minimum and maximum values (ignoring NaNs); `(0.0, 0.0)` for all-NaN input.
    pub fn min_max(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.data {
            if v.is_nan() {
                continue;
            }
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Value range `max - min` (the paper's error bounds are relative to this range).
    pub fn value_range(&self) -> f64 {
        let (lo, hi) = self.min_max();
        hi - lo
    }
}

impl<T, const N: usize> std::ops::Index<[usize; N]> for ArrayD<T> {
    type Output = T;
    #[inline]
    fn index(&self, coords: [usize; N]) -> &T {
        self.get(&coords)
    }
}

impl<T, const N: usize> std::ops::IndexMut<[usize; N]> for ArrayD<T> {
    #[inline]
    fn index_mut(&mut self, coords: [usize; N]) -> &mut T {
        self.get_mut(&coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z: ArrayD<f64> = ArrayD::zeros(Shape::d2(3, 4));
        assert_eq!(z.len(), 12);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = ArrayD::full(Shape::d1(5), 7i32);
        assert!(f.as_slice().iter().all(|&v| v == 7));
    }

    #[test]
    fn from_vec_and_index() {
        let a = ArrayD::from_vec(Shape::d2(2, 3), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(a[[0, 0]], 0);
        assert_eq!(a[[1, 2]], 5);
        assert_eq!(*a.get(&[1, 0]), 3);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_mismatch_panics() {
        let _ = ArrayD::from_vec(Shape::d2(2, 3), vec![1, 2, 3]);
    }

    #[test]
    fn from_fn_evaluates_coordinates() {
        let a = ArrayD::from_fn(Shape::d2(3, 3), |c| (c[0] * 10 + c[1]) as i64);
        assert_eq!(a[[2, 1]], 21);
        assert_eq!(a[[0, 2]], 2);
    }

    #[test]
    fn index_mut_writes() {
        let mut a = ArrayD::zeros(Shape::d3(2, 2, 2));
        a[[1, 1, 1]] = 9.5;
        assert_eq!(a.as_slice()[7], 9.5);
    }

    #[test]
    fn min_max_and_range() {
        let a = ArrayD::from_vec(Shape::d1(5), vec![-2.0, 0.0, 3.5, 1.0, -0.5]);
        assert_eq!(a.min_max(), (-2.0, 3.5));
        assert_eq!(a.value_range(), 5.5);
    }

    #[test]
    fn min_max_ignores_nan() {
        let a = ArrayD::from_vec(Shape::d1(3), vec![f64::NAN, 1.0, 2.0]);
        assert_eq!(a.min_max(), (1.0, 2.0));
    }

    #[test]
    fn map_preserves_shape() {
        let a = ArrayD::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let b = a.map(|v| v * 2.0);
        assert_eq!(b.shape(), a.shape());
        assert_eq!(b.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }
}
