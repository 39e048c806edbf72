use crate::{ops, pool, Shape, TensorError};

/// Minimum elements per chunk before elementwise ops engage the worker
/// pool; smaller tensors run inline with zero synchronization.
const ELEMWISE_MIN_CHUNK: usize = 32 * 1024;

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single numeric container used across the workspace. It is
/// deliberately simple: no views, no broadcasting beyond the few explicit
/// `*_rowwise` helpers, and no interior mutability — operations either consume
/// `self`, borrow it, or return fresh tensors.
///
/// ```
/// use ahw_tensor::Tensor;
///
/// # fn main() -> Result<(), ahw_tensor::TensorError> {
/// let x = Tensor::zeros(&[2, 3]);
/// let y = x.map(|v| v + 1.0);
/// assert_eq!(y.sum(), 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying buffer, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn at(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self, TensorError> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Applies `f` to every element, returning a new tensor. Large tensors
    /// partition over the worker pool (elementwise maps are trivially
    /// deterministic under any partition).
    pub fn map<F: Fn(f32) -> f32 + Sync>(&self, f: F) -> Self {
        let mut data = vec![0.0f32; self.data.len()];
        let src = &self.data;
        pool::par_row_chunks_mut(&mut data, 1, ELEMWISE_MIN_CHUNK, |first, out| {
            let len = out.len();
            for (o, &v) in out.iter_mut().zip(&src[first..first + len]) {
                *o = f(v);
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` to every element, writing into a caller-provided buffer
    /// (typically checked out of a [`crate::Workspace`]). Bit-identical to
    /// [`Tensor::map`]; prior contents of `out` are discarded.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `out.len()` differs from
    /// the element count.
    pub fn map_into<F: Fn(f32) -> f32 + Sync>(
        &self,
        f: F,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        if out.len() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: self.data.len(),
                actual: out.len(),
            });
        }
        let src = &self.data;
        pool::par_row_chunks_mut(out, 1, ELEMWISE_MIN_CHUNK, |first, chunk| {
            let len = chunk.len();
            for (o, &v) in chunk.iter_mut().zip(&src[first..first + len]) {
                *o = f(v);
            }
        });
        Ok(())
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place<F: Fn(f32) -> f32 + Sync>(&mut self, f: F) {
        pool::par_row_chunks_mut(&mut self.data, 1, ELEMWISE_MIN_CHUNK, |_, chunk| {
            for v in chunk {
                *v = f(*v);
            }
        });
    }

    /// Elementwise binary operation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip<F: Fn(f32, f32) -> f32 + Sync>(
        &self,
        other: &Tensor,
        op: &'static str,
        f: F,
    ) -> Result<Self, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut data = vec![0.0f32; self.data.len()];
        let (lhs, rhs) = (&self.data, &other.data);
        pool::par_row_chunks_mut(&mut data, 1, ELEMWISE_MIN_CHUNK, |first, out| {
            let len = out.len();
            for ((o, &a), &b) in out
                .iter_mut()
                .zip(&lhs[first..first + len])
                .zip(&rhs[first..first + len])
            {
                *o = f(a, b);
            }
        });
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self, TensorError> {
        self.zip(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self, TensorError> {
        self.zip(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Self, TensorError> {
        self.zip(other, "mul", |a, b| a * b)
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "add_scaled",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let rhs = &other.data;
        pool::par_row_chunks_mut(&mut self.data, 1, ELEMWISE_MIN_CHUNK, |first, chunk| {
            let len = chunk.len();
            for (a, &b) in chunk.iter_mut().zip(&rhs[first..first + len]) {
                *a += alpha * b;
            }
        });
        Ok(())
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Self {
        self.map(|v| v * alpha)
    }

    /// Sum of all elements.
    ///
    /// Accumulated in fixed [`pool::REDUCE_CHUNK`]-sized chunks folded in
    /// chunk order, so the result is bit-identical at every thread count.
    pub fn sum(&self) -> f32 {
        pool::sum_mapped(&self.data, |v| v)
    }

    /// Arithmetic mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in the flat buffer (ties go to the first).
    ///
    /// Returns `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        self.data
            .iter()
            .enumerate()
            .fold(None, |best, (i, &v)| match best {
                Some((_, bv)) if bv >= v => best,
                _ => Some((i, v)),
            })
            .map(|(i, _)| i)
    }

    /// L2 norm of the flattened tensor (deterministic chunked reduction).
    pub fn norm(&self) -> f32 {
        pool::sum_mapped(&self.data, |v| v * v).sqrt()
    }

    /// Clamps every element into `[lo, hi]` in place.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        self.map_in_place(|v| v.clamp(lo, hi));
    }

    /// Matrix multiplication `self (m×k) · rhs (k×n)`.
    ///
    /// Delegates to the blocked kernel in [`ops::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2,
    /// or [`TensorError::ShapeMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        ops::matmul(self, rhs)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }
}

impl From<Vec<f32>> for Tensor {
    /// Wraps a buffer as a rank-1 tensor.
    fn from(data: Vec<f32>) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn at_and_set_round_trip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.5).unwrap();
        assert_eq!(t.at(&[1, 2, 3]).unwrap(), 7.5);
        assert_eq!(t.at(&[0, 0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn elementwise_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 4.0]);
        a.add_scaled(&b, 0.5).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), Some(2));
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        let t = Tensor::from_slice(&[3.0, 1.0, 3.0]);
        assert_eq!(t.argmax(), Some(0));
        assert_eq!(Tensor::zeros(&[0]).argmax(), None);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let at = a.transpose().unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.transpose().unwrap(), a);
        assert_eq!(at.at(&[2, 1]).unwrap(), a.at(&[1, 2]).unwrap());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let b = a.reshape(&[2, 2]).unwrap();
        assert_eq!(b.at(&[1, 0]).unwrap(), 3.0);
        assert!(a.reshape(&[3, 2]).is_err());
    }

    #[test]
    fn clamp_in_place_bounds_values() {
        let mut t = Tensor::from_slice(&[-2.0, 0.5, 9.0]);
        t.clamp_in_place(0.0, 1.0);
        assert_eq!(t.as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn map_into_matches_map() {
        let t = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
        let mut out = vec![f32::NAN; 3];
        t.map_into(|v| v.max(0.0), &mut out).unwrap();
        assert_eq!(out, t.map(|v| v.max(0.0)).as_slice());
        let mut short = vec![0.0; 2];
        assert!(t.map_into(|v| v, &mut short).is_err());
    }

    #[test]
    fn norm_is_euclidean() {
        let t = Tensor::from_slice(&[3.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }
}
