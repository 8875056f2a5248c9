//! Dense symmetric eigensolver.
//!
//! A user-supplied custom mixer has no structure to exploit, so JuliQAOA pre-computes
//! its eigendecomposition `H_M = V D Vᵀ` once and re-uses it in every simulation
//! (`mixers::CustomMixer`; the dense path also serves as the test reference for the
//! matrix-free Clique and Ring mixers, which never call it).  This module provides that
//! decomposition for real symmetric matrices using the classic two-stage approach:
//!
//! 1. Householder reduction to tridiagonal form (`tred2`),
//! 2. implicit-shift QL iteration with eigenvector accumulation (`tql2`).
//!
//! The implementation follows the public-domain EISPACK/JAMA formulation, translated to
//! 0-based row-major Rust.  The cost is `O(m³)` for an `m×m` matrix — the "costly but
//! done once" pre-computation the paper describes.  The second stage alone is exposed as
//! [`tridiagonal_eigen`], which works in caller-provided storage so that small
//! per-call problems (the Lanczos tridiagonals of the Clique mixer) allocate nothing.

use crate::matrix::RealMatrix;

/// The eigendecomposition `A = V · diag(eigenvalues) · Vᵀ` of a real symmetric matrix.
///
/// Column `j` of [`SymmetricEigen::eigenvectors`] is the (unit-norm) eigenvector for
/// `eigenvalues[j]`.  Eigenvalues are sorted in ascending order.
#[derive(Clone, Debug)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Orthogonal matrix whose columns are the corresponding eigenvectors.
    pub eigenvectors: RealMatrix,
}

/// Computes the eigendecomposition of a real symmetric matrix.
///
/// # Panics
/// Panics if the matrix is not square.  The upper triangle is assumed to mirror the
/// lower triangle; only the values actually stored are used, so a slightly asymmetric
/// input (from floating-point noise) is effectively symmetrised.
pub fn symmetric_eigen(a: &RealMatrix) -> SymmetricEigen {
    assert_eq!(
        a.nrows(),
        a.ncols(),
        "eigendecomposition requires a square matrix"
    );
    let n = a.nrows();
    if n == 0 {
        return SymmetricEigen {
            eigenvalues: Vec::new(),
            eigenvectors: RealMatrix::zeros(0, 0),
        };
    }
    // v starts as a copy of the input and is overwritten with the eigenvectors.
    let mut v: Vec<Vec<f64>> = (0..n).map(|i| a.row(i).to_vec()).collect();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];

    tred2(&mut v, &mut d, &mut e);
    // tred2 leaves the coupling of rows i-1 and i in e[i]; tql2 wants it in e[i-1].
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut z = v.concat();
    tql2(&mut z, &mut d, &mut e);

    SymmetricEigen {
        eigenvalues: d,
        eigenvectors: RealMatrix::from_vec(n, n, z),
    }
}

/// Eigendecomposition of a real symmetric tridiagonal matrix, in place.
///
/// On entry `d` holds the diagonal and `e[i]` the coupling of rows `i` and `i + 1`
/// (`e[n-1]` is ignored).  On exit `d` holds the eigenvalues in ascending order and the
/// columns of the row-major `n×n` matrix `z` the matching orthonormal eigenvectors; `e`
/// is clobbered.  Allocation-free.
///
/// # Panics
/// Panics if `e` or `z` do not match `d` in size.
pub fn tridiagonal_eigen(d: &mut [f64], e: &mut [f64], z: &mut [f64]) {
    let n = d.len();
    assert_eq!(e.len(), n, "tridiagonal coupling length mismatch");
    assert_eq!(z.len(), n * n, "eigenvector storage must be n×n");
    if n == 0 {
        return;
    }
    z.fill(0.0);
    for i in 0..n {
        z[i * n + i] = 1.0;
    }
    e[n - 1] = 0.0;
    tql2(z, d, e);
}

/// Householder reduction of a real symmetric matrix to tridiagonal form.
///
/// On exit `d` holds the diagonal, `e` the sub-diagonal (with `e[0] = 0`), and `v` the
/// accumulated orthogonal transformation.
#[allow(clippy::needless_range_loop)] // index-coupled EISPACK loops, kept close to the reference
fn tred2(v: &mut [Vec<f64>], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    d.copy_from_slice(&v[n - 1]);

    // Householder reduction to tridiagonal form.
    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let mut scale = 0.0;
        let mut h = 0.0;
        for item in d.iter().take(i) {
            scale += item.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[i - 1][j];
                v[i][j] = 0.0;
                v[j][i] = 0.0;
            }
        } else {
            // Generate Householder vector.
            for item in d.iter_mut().take(i) {
                *item /= scale;
                h += *item * *item;
            }
            let mut f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            for item in e.iter_mut().take(i) {
                *item = 0.0;
            }

            // Apply similarity transformation to remaining columns.
            for j in 0..i {
                f = d[j];
                v[j][i] = f;
                g = e[j] + v[j][j] * f;
                for k in (j + 1)..i {
                    g += v[k][j] * d[k];
                    e[k] += v[k][j] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                for k in j..i {
                    v[k][j] -= f * e[k] + g * d[k];
                }
                d[j] = v[i - 1][j];
                v[i][j] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate transformations.
    for i in 0..(n - 1) {
        v[n - 1][i] = v[i][i];
        v[i][i] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = v[k][i + 1] / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += v[k][i + 1] * v[k][j];
                }
                for k in 0..=i {
                    v[k][j] -= g * d[k];
                }
            }
        }
        for k in 0..=i {
            v[k][i + 1] = 0.0;
        }
    }
    for j in 0..n {
        d[j] = v[n - 1][j];
        v[n - 1][j] = 0.0;
    }
    v[n - 1][n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix (`e[i]` couples rows
/// `i` and `i + 1`, `e[n-1] = 0`) with eigenvector accumulation into the row-major `v`,
/// plus a final ascending sort of the eigenpairs.
#[allow(clippy::needless_range_loop)] // index-coupled EISPACK loops, kept close to the reference
fn tql2(v: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    let mut f = 0.0;
    let mut tst1: f64 = 0.0;
    let eps = f64::EPSILON;
    for l in 0..n {
        // Find a small subdiagonal element.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m >= n {
            m = n - 1;
        }

        // If m == l, d[l] is already an eigenvalue; otherwise iterate.
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                assert!(
                    iter <= 1000,
                    "symmetric eigensolver failed to converge after 1000 QL iterations"
                );

                // Compute implicit shift.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = hypot(p, 1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for item in d.iter_mut().take(n).skip(l + 2) {
                    *item -= h;
                }
                f += h;

                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    h = c * p;
                    r = hypot(p, e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);

                    // Accumulate the rotation into the eigenvector matrix.
                    for row in v.chunks_exact_mut(n) {
                        h = row[i + 1];
                        row[i + 1] = s * row[i] + c * h;
                        row[i] = c * row[i] - s * h;
                    }
                }
                // Off-diagonal correction (JAMA/EISPACK formulation).
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;

                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }

    // Sort eigenvalues (ascending) and reorder eigenvector columns to match.
    for i in 0..n.saturating_sub(1) {
        let mut k = i;
        let mut p = d[i];
        for j in (i + 1)..n {
            if d[j] < p {
                k = j;
                p = d[j];
            }
        }
        if k != i {
            d[k] = d[i];
            d[i] = p;
            for row in v.chunks_exact_mut(n) {
                row.swap(i, k);
            }
        }
    }
}

#[inline]
fn hypot(a: f64, b: f64) -> f64 {
    a.hypot(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reconstructs the original matrix `V D Vᵀ`.
    fn reconstruct(e: &SymmetricEigen) -> RealMatrix {
        let n = e.eigenvalues.len();
        let v = &e.eigenvectors;
        RealMatrix::from_fn(n, n, |i, j| {
            let mut acc = 0.0;
            for (k, &lambda) in e.eigenvalues.iter().enumerate() {
                acc += v[(i, k)] * lambda * v[(j, k)];
            }
            acc
        })
    }

    /// Maximum deviation of `VᵀV` from the identity; an orthogonality check.
    fn orthogonality_defect(e: &SymmetricEigen) -> f64 {
        let n = e.eigenvalues.len();
        let v = &e.eigenvectors;
        let mut max = 0.0f64;
        for a in 0..n {
            for b in 0..n {
                let mut dot = 0.0;
                for k in 0..n {
                    dot += v[(k, a)] * v[(k, b)];
                }
                let expected = if a == b { 1.0 } else { 0.0 };
                max = max.max((dot - expected).abs());
            }
        }
        max
    }

    fn max_abs(v: &[f64]) -> f64 {
        v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_the_diagonal() {
        let diag = [3.0, -1.0, 2.5, 0.0];
        let m = RealMatrix::from_fn(4, 4, |i, j| if i == j { diag[i] } else { 0.0 });
        let eig = symmetric_eigen(&m);
        let mut sorted = diag.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let diffs: Vec<f64> = eig
            .eigenvalues
            .iter()
            .zip(sorted.iter())
            .map(|(a, b)| a - b)
            .collect();
        assert!(max_abs(&diffs) < 1e-12);
        assert!(orthogonality_defect(&eig) < 1e-10);
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let m = RealMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = symmetric_eigen(&m);
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
        // Eigenvector for eigenvalue 3 is (1,1)/√2 up to sign.
        let v = &eig.eigenvectors;
        assert!((v[(0, 1)].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v[(1, 1)].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_of_random_symmetric_matrix() {
        // A deterministic pseudo-random symmetric matrix.
        let n = 20;
        let m = RealMatrix::from_fn(n, n, |i, j| {
            let (a, b) = if i <= j { (i, j) } else { (j, i) };
            (((a * 31 + b * 17) % 13) as f64 - 6.0) * 0.37
        });
        assert!(m.is_symmetric(0.0));
        let eig = symmetric_eigen(&m);
        let rec = reconstruct(&eig);
        assert!(m.frobenius_diff(&rec) < 1e-8);
        assert!(orthogonality_defect(&eig) < 1e-9);
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let n = 15;
        let m = RealMatrix::from_fn(n, n, |i, j| {
            let (a, b) = if i <= j { (i, j) } else { (j, i) };
            ((a * 7 + b * 3) % 11) as f64 - 5.0
        });
        let eig = symmetric_eigen(&m);
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn eigenvector_satisfies_definition() {
        let n = 12;
        let m = RealMatrix::from_fn(n, n, |i, j| {
            let (a, b) = if i <= j { (i, j) } else { (j, i) };
            (((a + 1) * (b + 2)) % 7) as f64 * 0.5 - 1.0
        });
        let eig = symmetric_eigen(&m);
        // Check A·v_k = λ_k·v_k for every eigenpair.
        for k in 0..n {
            let lambda = eig.eigenvalues[k];
            for i in 0..n {
                let mut av = 0.0;
                for j in 0..n {
                    av += m[(i, j)] * eig.eigenvectors[(j, k)];
                }
                assert!(
                    (av - lambda * eig.eigenvectors[(i, k)]).abs() < 1e-8,
                    "eigenpair {k} violates A v = λ v at row {i}"
                );
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let n = 25;
        let m = RealMatrix::from_fn(n, n, |i, j| {
            let (a, b) = if i <= j { (i, j) } else { (j, i) };
            ((a * b + a + 3 * b) % 9) as f64 - 4.0
        });
        let trace: f64 = (0..n).map(|i| m[(i, i)]).sum();
        let eig = symmetric_eigen(&m);
        let eigsum: f64 = eig.eigenvalues.iter().sum();
        assert!((trace - eigsum).abs() < 1e-8);
    }

    #[test]
    fn handles_1x1_and_empty() {
        let m1 = RealMatrix::from_vec(1, 1, vec![4.2]);
        let e1 = symmetric_eigen(&m1);
        assert_eq!(e1.eigenvalues, vec![4.2]);
        assert!((e1.eigenvectors[(0, 0)].abs() - 1.0).abs() < 1e-14);

        let m0 = RealMatrix::zeros(0, 0);
        let e0 = symmetric_eigen(&m0);
        assert!(e0.eigenvalues.is_empty());
    }

    #[test]
    fn handles_already_tridiagonal_matrix() {
        // Tridiagonal Toeplitz matrix with 2 on the diagonal and -1 off-diagonal has
        // known eigenvalues 2 - 2cos(kπ/(n+1)).
        let n = 10;
        let m = RealMatrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let eig = symmetric_eigen(&m);
        let mut expected: Vec<f64> = (1..=n)
            .map(|k| 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos())
            .collect();
        expected.sort_by(|a, b| a.total_cmp(b));
        for (got, want) in eig.eigenvalues.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_eigenvalues_still_give_orthogonal_vectors() {
        // The 4x4 all-ones matrix has eigenvalues {4, 0, 0, 0}.
        let m = RealMatrix::from_fn(4, 4, |_, _| 1.0);
        let eig = symmetric_eigen(&m);
        assert!((eig.eigenvalues[3] - 4.0).abs() < 1e-10);
        for k in 0..3 {
            assert!(eig.eigenvalues[k].abs() < 1e-10);
        }
        assert!(orthogonality_defect(&eig) < 1e-9);
        assert!(m.frobenius_diff(&reconstruct(&eig)) < 1e-9);
    }

    #[test]
    fn tridiagonal_entry_point_matches_the_dense_solver() {
        let n = 9;
        let diag: Vec<f64> = (0..n).map(|i| ((i * 5) % 7) as f64 - 2.5).collect();
        let off: Vec<f64> = (0..n).map(|i| 0.3 + ((i * 3) % 4) as f64).collect();
        let m = RealMatrix::from_fn(n, n, |i, j| {
            if i == j {
                diag[i]
            } else if j == i + 1 {
                off[i]
            } else if i == j + 1 {
                off[j]
            } else {
                0.0
            }
        });
        let dense = symmetric_eigen(&m);
        let (mut d, mut e, mut z) = (diag.clone(), off.clone(), vec![7.0; n * n]);
        tridiagonal_eigen(&mut d, &mut e, &mut z);
        for (a, b) in d.iter().zip(dense.eigenvalues.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        let tri = SymmetricEigen {
            eigenvalues: d,
            eigenvectors: RealMatrix::from_vec(n, n, z),
        };
        assert!(m.frobenius_diff(&reconstruct(&tri)) < 1e-12);
        assert!(orthogonality_defect(&tri) < 1e-13);
    }

    #[test]
    #[should_panic]
    fn non_square_matrix_panics() {
        let m = RealMatrix::zeros(3, 4);
        let _ = symmetric_eigen(&m);
    }
}
