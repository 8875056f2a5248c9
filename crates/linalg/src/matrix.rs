//! Dense row-major matrices.
//!
//! Constrained-mixer simulation multiplies a complex statevector (restricted to the
//! feasible subspace) by the real orthogonal eigenvector matrix `V` and its transpose.
//! [`RealMatrix`] stores such matrices row-major and offers rayon-parallel
//! matrix–vector products against complex vectors.  [`ComplexMatrix`] supports custom
//! user-supplied unitary mixers that are not real symmetric.

use crate::{parallel_kernels_enabled, Complex64};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A dense real matrix stored row-major.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RealMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl RealMatrix {
    /// Creates an all-zeros matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        RealMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates an identity matrix of size `n×n`.
    pub fn identity(n: usize) -> Self {
        let mut m = RealMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a function of the (row, column) index.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        RealMatrix { nrows, ncols, data }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "row-major data length mismatch");
        RealMatrix { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Borrow of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// A borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> RealMatrix {
        RealMatrix::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// True when the matrix is square and symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Dense real matrix–matrix product `self * other`.
    ///
    /// Only used in tests and pre-computation sanity checks, so a straightforward
    /// triple loop (parallel over rows) is sufficient.
    pub fn matmul(&self, other: &RealMatrix) -> RealMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul dimension mismatch");
        let nrows = self.nrows;
        let ncols = other.ncols;
        let inner = self.ncols;
        let mut out = vec![0.0; nrows * ncols];
        out.par_chunks_mut(ncols)
            .zip(self.data.par_chunks(inner))
            .for_each(|(orow, arow)| {
                for (k, &aik) in arow.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = other.row(k);
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o += aik * brow[j];
                    }
                }
            });
        RealMatrix {
            nrows,
            ncols,
            data: out,
        }
    }

    /// Real matrix × complex vector: `out = self · x`.
    ///
    /// This is the hot kernel when applying the eigendecomposition of a custom
    /// mixer (`V e^{-iβD} Vᵀ ψ`), so it is parallelised over output rows.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matvec_complex(&self, x: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(x.len(), self.ncols, "matvec input length mismatch");
        assert_eq!(out.len(), self.nrows, "matvec output length mismatch");
        let work = self.nrows * self.ncols;
        if parallel_kernels_enabled(work) {
            out.par_iter_mut()
                .zip(self.data.par_chunks(self.ncols))
                .for_each(|(o, row)| {
                    *o = dot_row_complex(row, x);
                });
        } else {
            for (o, row) in out.iter_mut().zip(self.data.chunks(self.ncols)) {
                *o = dot_row_complex(row, x);
            }
        }
    }

    /// Real matrix-transpose × complex vector: `out = selfᵀ · x`.
    ///
    /// Implemented by accumulating over rows of `self` so the memory access stays
    /// row-contiguous; parallelised by splitting the output into column blocks.
    pub fn matvec_transpose_complex(&self, x: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(x.len(), self.nrows, "matvecᵀ input length mismatch");
        assert_eq!(out.len(), self.ncols, "matvecᵀ output length mismatch");
        let work = self.nrows * self.ncols;
        if parallel_kernels_enabled(work) {
            // Parallelise over output entries: out[j] = Σ_i self[i][j] * x[i].
            // Column access strides, but each task is independent and allocation-free.
            out.par_iter_mut().enumerate().for_each(|(j, o)| {
                let mut acc = Complex64::ZERO;
                for (i, &xi) in x.iter().enumerate() {
                    acc += xi * self.data[i * self.ncols + j];
                }
                *o = acc;
            });
        } else {
            out.iter_mut().for_each(|o| *o = Complex64::ZERO);
            for (i, &xi) in x.iter().enumerate() {
                let row = self.row(i);
                for (j, &r) in row.iter().enumerate() {
                    out[j] += xi * r;
                }
            }
        }
    }

    /// Frobenius norm of the difference between two matrices.
    pub fn frobenius_diff(&self, other: &RealMatrix) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

#[inline]
fn dot_row_complex(row: &[f64], x: &[Complex64]) -> Complex64 {
    let mut re = 0.0;
    let mut im = 0.0;
    for (&r, z) in row.iter().zip(x.iter()) {
        re += r * z.re;
        im += r * z.im;
    }
    Complex64::new(re, im)
}

impl std::ops::Index<(usize, usize)> for RealMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.ncols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for RealMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.ncols + j]
    }
}

/// A dense complex matrix stored row-major.
///
/// Used for custom user-supplied mixer unitaries and for the naive dense baseline
/// simulator; the purpose-built simulation paths never materialise complex matrices.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ComplexMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<Complex64>,
}

impl ComplexMatrix {
    /// Creates an all-zeros complex matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        ComplexMatrix {
            nrows,
            ncols,
            data: vec![Complex64::ZERO; nrows * ncols],
        }
    }

    /// Creates an identity matrix of size `n×n`.
    pub fn identity(n: usize) -> Self {
        let mut m = ComplexMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix from a function of the (row, column) index.
    pub fn from_fn(
        nrows: usize,
        ncols: usize,
        mut f: impl FnMut(usize, usize) -> Complex64,
    ) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        ComplexMatrix { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// A borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Complex64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Conjugate transpose (adjoint).
    pub fn adjoint(&self) -> ComplexMatrix {
        ComplexMatrix::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Complex matrix × complex vector, parallel over rows for large matrices.
    pub fn matvec(&self, x: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(out.len(), self.nrows);
        let work = self.nrows * self.ncols;
        if parallel_kernels_enabled(work) {
            out.par_iter_mut()
                .zip(self.data.par_chunks(self.ncols))
                .for_each(|(o, row)| {
                    let mut acc = Complex64::ZERO;
                    for (&r, z) in row.iter().zip(x.iter()) {
                        acc += r * *z;
                    }
                    *o = acc;
                });
        } else {
            for (o, row) in out.iter_mut().zip(self.data.chunks(self.ncols)) {
                let mut acc = Complex64::ZERO;
                for (&r, z) in row.iter().zip(x.iter()) {
                    acc += r * *z;
                }
                *o = acc;
            }
        }
    }

    /// Dense complex matrix–matrix product `self * other`.
    pub fn matmul(&self, other: &ComplexMatrix) -> ComplexMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul dimension mismatch");
        let nrows = self.nrows;
        let ncols = other.ncols;
        let inner = self.ncols;
        let mut out = vec![Complex64::ZERO; nrows * ncols];
        out.par_chunks_mut(ncols)
            .zip(self.data.par_chunks(inner))
            .for_each(|(orow, arow)| {
                for (k, &aik) in arow.iter().enumerate() {
                    let brow = other.row(k);
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o += aik * brow[j];
                    }
                }
            });
        ComplexMatrix {
            nrows,
            ncols,
            data: out,
        }
    }

    /// Maximum elementwise distance from the identity of `self·self†`; a unitarity check.
    pub fn unitarity_defect(&self) -> f64 {
        let prod = self.matmul(&self.adjoint());
        let mut max = 0.0f64;
        for i in 0..prod.nrows {
            for j in 0..prod.ncols {
                let expected = if i == j {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                max = max.max((prod[(i, j)] - expected).abs());
            }
        }
        max
    }
}

impl std::ops::Index<(usize, usize)> for ComplexMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        &self.data[i * self.ncols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for ComplexMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        &mut self.data[i * self.ncols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity_map() {
        let id = RealMatrix::identity(5);
        let x: Vec<Complex64> = (0..5).map(|i| Complex64::new(i as f64, -1.0)).collect();
        let mut out = vec![Complex64::ZERO; 5];
        id.matvec_complex(&x, &mut out);
        assert_eq!(out, x);
        id.matvec_transpose_complex(&x, &mut out);
        assert_eq!(out, x);
    }

    #[test]
    fn indexing_and_rows() {
        let mut m = RealMatrix::zeros(2, 3);
        m[(0, 0)] = 1.0;
        m[(0, 2)] = 3.0;
        m[(1, 1)] = -2.0;
        assert_eq!(m.row(0), &[1.0, 0.0, 3.0]);
        assert_eq!(m.row(1), &[0.0, -2.0, 0.0]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
    }

    #[test]
    fn transpose_matches_indices() {
        let m = RealMatrix::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        let t = m.transpose();
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn symmetry_check() {
        let sym = RealMatrix::from_fn(4, 4, |i, j| (i + j) as f64);
        assert!(sym.is_symmetric(1e-12));
        let mut asym = sym.clone();
        asym[(0, 1)] += 0.5;
        assert!(!asym.is_symmetric(1e-12));
        let rect = RealMatrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = RealMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = RealMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn matvec_and_transpose_matvec_agree_with_matmul() {
        let m = RealMatrix::from_fn(6, 6, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let x: Vec<Complex64> = (0..6)
            .map(|i| Complex64::new(0.3 * i as f64, 1.0 - 0.1 * i as f64))
            .collect();
        let mut y = vec![Complex64::ZERO; 6];
        m.matvec_complex(&x, &mut y);
        // Compare against explicit sums.
        for i in 0..6 {
            let mut acc = Complex64::ZERO;
            for j in 0..6 {
                acc += x[j] * m[(i, j)];
            }
            assert!((y[i] - acc).abs() < 1e-12);
        }
        let mut yt = vec![Complex64::ZERO; 6];
        m.matvec_transpose_complex(&x, &mut yt);
        let t = m.transpose();
        let mut expected = vec![Complex64::ZERO; 6];
        t.matvec_complex(&x, &mut expected);
        for i in 0..6 {
            assert!((yt[i] - expected[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn large_parallel_matvec_matches_serial() {
        // 256×256 ⇒ work = 65536 ≥ the default par_threshold, so this drives the
        // rayon branch of matvec (and the transpose matvec); the serial branch is
        // forced on the same inputs via the outer-parallelism guard.
        let n = 256;
        assert!(
            n * n >= crate::par_threshold(),
            "must reach the parallel branch"
        );
        let m = RealMatrix::from_fn(n, n, |i, j| ((i + 2 * j) % 7) as f64 * 0.25 - 0.5);
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i % 5) as f64, (i % 3) as f64 - 1.0))
            .collect();
        let mut y = vec![Complex64::ZERO; n];
        m.matvec_complex(&x, &mut y);
        let mut yt = vec![Complex64::ZERO; n];
        m.matvec_transpose_complex(&x, &mut yt);

        let (mut y_serial, mut yt_serial) = (vec![Complex64::ZERO; n], vec![Complex64::ZERO; n]);
        {
            let _guard = crate::enter_outer_parallelism();
            m.matvec_complex(&x, &mut y_serial);
            m.matvec_transpose_complex(&x, &mut yt_serial);
        }
        for i in 0..n {
            let mut acc = Complex64::ZERO;
            for j in 0..n {
                acc += x[j] * m[(i, j)];
            }
            assert!((y[i] - acc).abs() < 1e-9);
            assert!((y[i] - y_serial[i]).abs() < 1e-9);
            assert!((yt[i] - yt_serial[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn frobenius_diff_zero_for_equal() {
        let m = RealMatrix::from_fn(3, 3, |i, j| (i * j) as f64);
        assert_eq!(m.frobenius_diff(&m), 0.0);
        let mut m2 = m.clone();
        m2[(2, 2)] += 3.0;
        assert!((m.frobenius_diff(&m2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn complex_identity_and_adjoint() {
        let id = ComplexMatrix::identity(4);
        assert!(id.unitarity_defect() < 1e-12);
        let m = ComplexMatrix::from_fn(3, 2, |i, j| Complex64::new(i as f64, j as f64));
        let a = m.adjoint();
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 3);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(a[(j, i)], m[(i, j)].conj());
            }
        }
    }

    #[test]
    fn complex_matvec_matches_explicit_sum() {
        let m = ComplexMatrix::from_fn(5, 5, |i, j| Complex64::new(i as f64 - j as f64, 0.5));
        let x: Vec<Complex64> = (0..5).map(|i| Complex64::new(1.0, i as f64)).collect();
        let mut y = vec![Complex64::ZERO; 5];
        m.matvec(&x, &mut y);
        for i in 0..5 {
            let mut acc = Complex64::ZERO;
            for j in 0..5 {
                acc += m[(i, j)] * x[j];
            }
            assert!((y[i] - acc).abs() < 1e-12);
        }
    }

    #[test]
    fn unitarity_defect_detects_nonunitary() {
        let mut m = ComplexMatrix::identity(3);
        m[(0, 0)] = Complex64::new(2.0, 0.0);
        assert!(m.unitarity_defect() > 1.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_length_mismatch_panics() {
        let _ = RealMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
