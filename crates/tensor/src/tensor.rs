use rand::distributions::Distribution;
use rand::Rng;

use crate::{Shape, TensorError};

/// An owned, contiguous, row-major `f32` tensor.
///
/// # Example
///
/// ```
/// use radar_tensor::Tensor;
///
/// # fn main() -> Result<(), radar_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.get(&[1, 2]), 6.0);
/// assert_eq!(t.sum(), 21.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a data buffer and shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal the number
    /// of elements implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor with elements drawn i.i.d. from a uniform distribution on
    /// `[low, high)`.
    pub fn rand_uniform<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], low: f32, high: f32) -> Self {
        let shape = Shape::new(dims);
        let dist = rand::distributions::Uniform::new(low, high);
        let data = (0..shape.numel()).map(|_| dist.sample(rng)).collect();
        Tensor { data, shape }
    }

    /// Creates a tensor with elements drawn i.i.d. from a normal distribution
    /// `N(mean, std²)` using a Box–Muller transform (no external distribution crate).
    pub fn rand_normal<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], mean: f32, std: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Immutable view of the underlying row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self, TensorError> {
        let new_shape = Shape::new(dims);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.numel(),
                to: new_shape.numel(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: new_shape,
        })
    }

    /// Applies a function to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Self {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Combines two tensors elementwise with a binary function.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch in elementwise op: {} vs {}",
            self.shape, other.shape
        );
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element. Returns negative infinity for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Maximum absolute value of any element. Returns `0.0` for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |acc, &x| acc.max(x.abs()))
    }

    /// Index of the maximum element in a flat view (first occurrence wins).
    ///
    /// Returns `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor(shape={}, numel={})", self.shape, self.numel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[2, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[2], 2.5).data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 0], 7.0);
        assert_eq!(t.get(&[1, 0]), 7.0);
        assert_eq!(t.get(&[0, 1]), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -5.0, 3.0], &[3]).unwrap();
        assert_eq!(t.sum(), -1.0);
        assert!((t.mean() + 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.max_abs(), 5.0);
        assert_eq!(t.argmax(), Some(2));
    }

    #[test]
    fn argmax_empty_is_none() {
        let t = Tensor::from_vec(vec![], &[0]).unwrap();
        assert_eq!(t.argmax(), None);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).data(), &[4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_map_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        a.zip_map(&b, |x, y| x + y);
    }

    #[test]
    fn rand_normal_statistics_are_plausible() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Tensor::rand_normal(&mut rng, &[10_000], 1.0, 2.0);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 10_000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::rand_uniform(&mut rng, &[1000], -0.5, 0.5);
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }
}
