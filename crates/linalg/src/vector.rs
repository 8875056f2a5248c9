//! Vector kernels over complex statevectors.
//!
//! These are the inner loops of the simulator: phase multiplications (the cost unitary),
//! inner products (expectation values, Grover-mixer overlaps) and axpy updates.  Every
//! kernel has a serial and a rayon-parallel path chosen by
//! [`crate::parallel_kernels_enabled`] (size threshold plus the outer-parallelism
//! guard), and no serial path allocates.
//!
//! The *indexed* phase kernels ([`build_phase_table`], [`apply_phases_indexed`],
//! [`apply_phases_indexed_sum`]) are the table-driven fast path for objectives with few
//! distinct values: one `cis` evaluation per distinct value instead of one per
//! amplitude, with the per-amplitude sweep reduced to a gather-and-multiply.
//!
//! Reductions (sums, norms, inner products) add up fixed [`REDUCTION_CHUNK`]-element
//! chunks and combine the partial sums in index order on both paths, so their bits
//! depend only on the input — never on the core count, `JULIQAOA_PAR_THRESHOLD` or an
//! outer-parallelism guard.

use crate::{parallel_kernels_enabled, Complex64};
use rayon::prelude::*;
use std::ops::{Add, Range};

/// Elements per partial sum of every reduction kernel.  A vector of at most one chunk
/// is summed by a single serial loop from its first element to its last.
pub const REDUCTION_CHUNK: usize = 1 << 16;

/// Sums `partial` over `0..len` cut into [`REDUCTION_CHUNK`]-element ranges, combining
/// the per-range results in index order (in parallel when the kernel size allows).
fn chunked_sum<S, F>(len: usize, partial: F) -> S
where
    S: Add<Output = S> + Send,
    F: Fn(Range<usize>) -> S + Sync + Send + Clone,
{
    if len <= REDUCTION_CHUNK {
        return partial(0..len);
    }
    let chunk = move |c: usize| c * REDUCTION_CHUNK..len.min((c + 1) * REDUCTION_CHUNK);
    let chunks = 0..len.div_ceil(REDUCTION_CHUNK);
    if parallel_kernels_enabled(len) {
        let partials: Vec<S> = chunks.into_par_iter().map(|c| partial(chunk(c))).collect();
        sum_in_order(partials.into_iter())
    } else {
        sum_in_order(chunks.map(|c| partial(chunk(c))))
    }
}

/// `((p₀ + p₁) + p₂) + …` over the partial sums of a vector longer than one chunk.
fn sum_in_order<S: Add<Output = S>>(partials: impl Iterator<Item = S>) -> S {
    partials
        .reduce(|a, b| a + b)
        .expect("a vector longer than one chunk has at least two partial sums")
}

/// Squared 2-norm `Σ |ψ_x|²` of a complex vector.
pub fn norm_sqr(v: &[Complex64]) -> f64 {
    chunked_sum(v.len(), |r| v[r].iter().map(|z| z.norm_sqr()).sum::<f64>())
}

/// 2-norm of a complex vector.
pub fn norm(v: &[Complex64]) -> f64 {
    norm_sqr(v).sqrt()
}

/// Normalises `v` to unit 2-norm in place. Returns the original norm.
///
/// A zero vector is left untouched and `0.0` is returned.
pub fn normalize(v: &mut [Complex64]) -> f64 {
    let n = norm(v);
    if n > 0.0 {
        let inv = 1.0 / n;
        scale(v, inv);
    }
    n
}

/// Scales every element of `v` by the real factor `s` in place.
pub fn scale(v: &mut [Complex64], s: f64) {
    if parallel_kernels_enabled(v.len()) {
        v.par_iter_mut().for_each(|z| *z = z.scale(s));
    } else {
        v.iter_mut().for_each(|z| *z = z.scale(s));
    }
}

/// Hermitian inner product `⟨a|b⟩ = Σ conj(a_x)·b_x`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn inner(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(a.len(), b.len(), "inner product of mismatched lengths");
    chunked_sum(a.len(), |r| {
        a[r.clone()]
            .iter()
            .zip(b[r].iter())
            .map(|(x, y)| x.conj() * *y)
            .sum::<Complex64>()
    })
}

/// Weighted inner product `⟨a|diag(w)|b⟩ = Σ conj(a_x)·(w_x·b_x)`.
///
/// Equals [`inner`]`(a, c)` bit for bit, where `c_x = b_x.scale(w_x)`: every term is
/// the same expression and the terms are summed in the same chunked order, but the
/// scaled copy `c` is never written.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn inner_weighted(a: &[Complex64], b: &[Complex64], weights: &[f64]) -> Complex64 {
    assert!(
        a.len() == b.len() && b.len() == weights.len(),
        "weighted inner product of mismatched lengths"
    );
    chunked_sum(a.len(), |r| {
        a[r.clone()]
            .iter()
            .zip(b[r.clone()].iter())
            .zip(weights[r].iter())
            .map(|((x, y), &w)| x.conj() * y.scale(w))
            .sum::<Complex64>()
    })
}

/// `y += alpha * x` (complex axpy).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "axpy of mismatched lengths");
    if parallel_kernels_enabled(x.len()) {
        y.par_iter_mut()
            .zip(x.par_iter())
            .for_each(|(yi, xi)| *yi += alpha * *xi);
    } else {
        y.iter_mut()
            .zip(x.iter())
            .for_each(|(yi, xi)| *yi += alpha * *xi);
    }
}

/// Multiplies each amplitude by the phase `e^{-i·angle·values[x]}`.
///
/// This is the QAOA phase separator `e^{-iγ H_C}` (with `values = C(x)`), and is also
/// used for diagonalised mixers `e^{-iβ D}` where `values` holds the mixer eigenvalues.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn apply_phases(state: &mut [Complex64], values: &[f64], angle: f64) {
    assert_eq!(
        state.len(),
        values.len(),
        "phase kernel: state and value vectors must match"
    );
    if parallel_kernels_enabled(state.len()) {
        state
            .par_iter_mut()
            .zip(values.par_iter())
            .for_each(|(z, &c)| *z *= Complex64::cis(-angle * c));
    } else {
        state
            .iter_mut()
            .zip(values.iter())
            .for_each(|(z, &c)| *z *= Complex64::cis(-angle * c));
    }
}

/// Fills `table` with the phase factors `e^{-i·angle·distinct[k]}`.
///
/// This is the per-round trigonometry of the table-driven phase separator: one `cis`
/// per *distinct* objective value, instead of one per amplitude.  `table` is resized to
/// `distinct.len()`, reusing its allocation across rounds.
pub fn build_phase_table(distinct: &[f64], angle: f64, table: &mut Vec<Complex64>) {
    table.clear();
    table.extend(distinct.iter().map(|&c| Complex64::cis(-angle * c)));
}

/// Multiplies each amplitude by its class's phase factor: `ψ_x *= table[class_idx[x]]`.
///
/// Together with [`build_phase_table`] this is the table-driven phase separator
/// `e^{-iγ H_C}`: the per-amplitude work is a gather and a complex multiply, with no
/// trigonometry in the sweep.  Produces bit-identical results to [`apply_phases`] for
/// the same `(value, angle)` pairs, because each factor is computed by the same
/// `cis(-angle·value)` expression.
///
/// # Panics
/// Panics if `state` and `class_idx` lengths differ, or if an index is out of range
/// for `table` (debug builds; release builds bound-check via the slice index).
pub fn apply_phases_indexed(state: &mut [Complex64], class_idx: &[u16], table: &[Complex64]) {
    assert_eq!(
        state.len(),
        class_idx.len(),
        "phase kernel: state and class-index vectors must match"
    );
    if parallel_kernels_enabled(state.len()) {
        state
            .par_iter_mut()
            .zip(class_idx.par_iter())
            .for_each(|(z, &k)| *z *= table[k as usize]);
    } else {
        state
            .iter_mut()
            .zip(class_idx.iter())
            .for_each(|(z, &k)| *z *= table[k as usize]);
    }
}

/// Applies the phase table and accumulates `Σ_x ψ_x` in the same memory sweep.
///
/// This fuses the phase separator with the Grover mixer's overlap reduction: a
/// GM-QAOA round needs `⟨ψ₀|e^{-iγ H_C}ψ⟩ ∝ Σ_x (e^{-iγ C(x)}ψ_x)`, and computing the
/// sum while the amplitudes are already in registers saves one full pass over the
/// statevector per round.
///
/// # Panics
/// Panics if `state` and `class_idx` lengths differ.
pub fn apply_phases_indexed_sum(
    state: &mut [Complex64],
    class_idx: &[u16],
    table: &[Complex64],
) -> Complex64 {
    assert_eq!(
        state.len(),
        class_idx.len(),
        "phase kernel: state and class-index vectors must match"
    );
    let fused = |state: &mut [Complex64], class_idx: &[u16]| {
        let mut sum = Complex64::ZERO;
        for (z, &k) in state.iter_mut().zip(class_idx.iter()) {
            *z *= table[k as usize];
            sum += *z;
        }
        sum
    };
    // The same fixed chunks and index-order combination as `chunked_sum`, over a
    // mutable sweep.
    if state.len() <= REDUCTION_CHUNK {
        return fused(state, class_idx);
    }
    if parallel_kernels_enabled(state.len()) {
        let partials: Vec<Complex64> = state
            .par_chunks_mut(REDUCTION_CHUNK)
            .zip(class_idx.par_chunks(REDUCTION_CHUNK))
            .map(|(s, c)| fused(s, c))
            .collect();
        sum_in_order(partials.into_iter())
    } else {
        let chunks = state.chunks_mut(REDUCTION_CHUNK);
        sum_in_order(
            chunks
                .zip(class_idx.chunks(REDUCTION_CHUNK))
                .map(|(s, c)| fused(s, c)),
        )
    }
}

/// Weighted expectation `Σ values[x]·|ψ_x|²` of a diagonal observable.
///
/// For a normalised state this is `⟨ψ|diag(values)|ψ⟩`, i.e. the QAOA objective
/// `⟨β,γ|C(x)|β,γ⟩`.
pub fn diagonal_expectation(state: &[Complex64], values: &[f64]) -> f64 {
    assert_eq!(state.len(), values.len());
    chunked_sum(state.len(), |r| {
        state[r.clone()]
            .iter()
            .zip(values[r].iter())
            .map(|(z, &c)| z.norm_sqr() * c)
            .sum::<f64>()
    })
}

/// Sum of all amplitudes `Σ ψ_x` (the un-normalised overlap with the uniform state).
pub fn amplitude_sum(state: &[Complex64]) -> Complex64 {
    chunked_sum(state.len(), |r| state[r].iter().copied().sum::<Complex64>())
}

/// The measurement probability of each value class, `out[c] = Σ_{x: class_idx[x] = c}
/// |ψ_x|²`, over `out.len()` classes.
///
/// One pass over the state.  A state of at most one [`REDUCTION_CHUNK`] accumulates
/// in index order; a longer one adds one per-class partial per chunk into `out`, in
/// chunk order on both paths, so the bits depend only on the input.  The parallel
/// path holds one partial per thread at a time.
///
/// # Panics
/// Panics if `state` and `class_idx` lengths differ or a class index is out of
/// range of `out`.
pub fn class_probabilities(state: &[Complex64], class_idx: &[u16], out: &mut [f64]) {
    assert_eq!(
        state.len(),
        class_idx.len(),
        "class probabilities: state and class-index vectors must match"
    );
    let accumulate = |range: Range<usize>, acc: &mut [f64]| {
        for (z, &k) in state[range.clone()].iter().zip(&class_idx[range]) {
            acc[k as usize] += z.norm_sqr();
        }
    };
    let len = state.len();
    out.fill(0.0);
    if len <= REDUCTION_CHUNK {
        accumulate(0..len, out);
        return;
    }
    let chunk = |c: usize| c * REDUCTION_CHUNK..len.min((c + 1) * REDUCTION_CHUNK);
    let chunks = len.div_ceil(REDUCTION_CHUNK);
    let add_into = |out: &mut [f64], partial: &[f64]| {
        for (o, p) in out.iter_mut().zip(partial) {
            *o += p;
        }
    };
    if parallel_kernels_enabled(len) {
        let group = rayon::current_num_threads().max(1);
        for first in (0..chunks).step_by(group) {
            let partials: Vec<Vec<f64>> = (first..chunks.min(first + group))
                .into_par_iter()
                .map(|c| {
                    let mut acc = vec![0.0; out.len()];
                    accumulate(chunk(c), &mut acc);
                    acc
                })
                .collect();
            for partial in &partials {
                add_into(out, partial);
            }
        }
    } else {
        let mut acc = vec![0.0; out.len()];
        for c in 0..chunks {
            acc.fill(0.0);
            accumulate(chunk(c), &mut acc);
            add_into(out, &acc);
        }
    }
}

/// Fills the vector with the uniform superposition `1/√len`.
pub fn fill_uniform(state: &mut [Complex64]) {
    let amp = 1.0 / (state.len() as f64).sqrt();
    let val = Complex64::from_real(amp);
    if parallel_kernels_enabled(state.len()) {
        state.par_iter_mut().for_each(|z| *z = val);
    } else {
        state.iter_mut().for_each(|z| *z = val);
    }
}

/// Maximum absolute difference between two complex vectors.
pub fn max_abs_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(n: usize, f: impl Fn(usize) -> Complex64) -> Vec<Complex64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn norm_of_unit_basis_vector() {
        let mut v = vec![Complex64::ZERO; 8];
        v[3] = Complex64::ONE;
        assert!((norm(&v) - 1.0).abs() < 1e-12);
        assert!((norm_sqr(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut v = vec_of(16, |i| Complex64::new(i as f64, -(i as f64) * 0.5));
        let old = normalize(&mut v);
        assert!(old > 0.0);
        assert!((norm(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![Complex64::ZERO; 4];
        assert_eq!(normalize(&mut v), 0.0);
        assert!(v.iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn inner_product_hermitian_symmetry() {
        let a = vec_of(10, |i| Complex64::new(i as f64 * 0.1, 1.0 - i as f64 * 0.2));
        let b = vec_of(10, |i| Complex64::new(-(i as f64) * 0.3, i as f64 * 0.05));
        let ab = inner(&a, &b);
        let ba = inner(&b, &a);
        assert!((ab - ba.conj()).abs() < 1e-12);
        assert!((inner(&a, &a).im).abs() < 1e-12);
    }

    #[test]
    fn axpy_matches_manual() {
        let x = vec_of(5, |i| Complex64::new(i as f64, 1.0));
        let mut y = vec_of(5, |i| Complex64::new(1.0, -(i as f64)));
        let y0 = y.clone();
        let alpha = Complex64::new(0.5, -2.0);
        axpy(alpha, &x, &mut y);
        for i in 0..5 {
            assert!((y[i] - (y0[i] + alpha * x[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_phases_preserves_norm_and_sets_phase() {
        let mut v = vec_of(8, |i| Complex64::new(1.0 + i as f64, -0.25 * i as f64));
        let before = norm(&v);
        let costs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let gamma = 0.7;
        let orig = v.clone();
        apply_phases(&mut v, &costs, gamma);
        assert!((norm(&v) - before).abs() < 1e-12);
        for i in 0..8 {
            let expected = orig[i] * Complex64::cis(-gamma * costs[i]);
            assert!((v[i] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn indexed_phases_match_dense_phases_exactly() {
        // 64 amplitudes over only 5 distinct objective values.
        let distinct = [-2.0, -0.5, 0.0, 1.25, 3.0];
        let class_idx: Vec<u16> = (0..64).map(|i| ((i * 7) % 5) as u16).collect();
        let values: Vec<f64> = class_idx.iter().map(|&k| distinct[k as usize]).collect();
        let gamma = 0.9137;

        let mut dense = vec_of(64, |i| {
            Complex64::new(0.1 * i as f64, 1.0 - 0.05 * i as f64)
        });
        let mut indexed = dense.clone();
        apply_phases(&mut dense, &values, gamma);

        let mut table = Vec::new();
        build_phase_table(&distinct, gamma, &mut table);
        assert_eq!(table.len(), distinct.len());
        apply_phases_indexed(&mut indexed, &class_idx, &table);

        // Same cis(-γ·value) expression on both paths: bit-identical, not just close.
        for (a, b) in dense.iter().zip(indexed.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn indexed_sum_fusion_matches_separate_sweeps() {
        let distinct = [0.0, 1.0, 4.0];
        let class_idx: Vec<u16> = (0..48).map(|i| (i % 3) as u16).collect();
        let beta = -1.234;
        let mut table = Vec::new();
        build_phase_table(&distinct, beta, &mut table);

        let mut fused = vec_of(48, |i| Complex64::new((i as f64).cos(), (i as f64).sin()));
        let mut unfused = fused.clone();

        let sum_fused = apply_phases_indexed_sum(&mut fused, &class_idx, &table);
        apply_phases_indexed(&mut unfused, &class_idx, &table);
        let sum_unfused = amplitude_sum(&unfused);

        assert!(max_abs_diff(&fused, &unfused) == 0.0);
        assert!((sum_fused - sum_unfused).abs() < 1e-12);
    }

    #[test]
    fn phase_table_reuses_allocation() {
        let mut table = Vec::with_capacity(8);
        build_phase_table(&[1.0, 2.0], 0.5, &mut table);
        let ptr = table.as_ptr();
        build_phase_table(&[3.0, 4.0], 0.25, &mut table);
        assert_eq!(table.as_ptr(), ptr);
        assert!((table[0] - Complex64::cis(-0.25 * 3.0)).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn indexed_phases_mismatched_lengths_panic() {
        let mut state = vec![Complex64::ONE; 4];
        let idx = vec![0u16; 5];
        apply_phases_indexed(&mut state, &idx, &[Complex64::ONE]);
    }

    #[test]
    fn diagonal_expectation_uniform_state_is_mean() {
        let n = 16;
        let mut v = vec![Complex64::ZERO; n];
        fill_uniform(&mut v);
        let costs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mean = costs.iter().sum::<f64>() / n as f64;
        assert!((diagonal_expectation(&v, &costs) - mean).abs() < 1e-12);
    }

    #[test]
    fn amplitude_sum_counts_uniform() {
        let n = 32;
        let mut v = vec![Complex64::ZERO; n];
        fill_uniform(&mut v);
        let s = amplitude_sum(&v);
        assert!((s.re - (n as f64).sqrt()).abs() < 1e-12);
        assert!(s.im.abs() < 1e-12);
    }

    #[test]
    fn parallel_path_matches_serial_path() {
        // Force the parallel branch with a large vector and compare against a serial fold.
        let n = crate::par_threshold() * 2;
        let v = vec_of(n, |i| {
            Complex64::new((i % 17) as f64 * 0.01, ((i * 7) % 13) as f64 * 0.02)
        });
        let serial: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        assert!((norm_sqr(&v) - serial).abs() < 1e-9 * serial.max(1.0));

        let costs: Vec<f64> = (0..n).map(|i| ((i * 31) % 23) as f64).collect();
        let serial_exp: f64 = v
            .iter()
            .zip(costs.iter())
            .map(|(z, &c)| z.norm_sqr() * c)
            .sum();
        let par_exp = diagonal_expectation(&v, &costs);
        assert!((par_exp - serial_exp).abs() < 1e-6 * serial_exp.abs().max(1.0));
    }

    #[test]
    fn reductions_are_bit_identical_with_and_without_outer_parallelism() {
        // Four chunks: the unguarded call takes the parallel path (at the default
        // threshold), the guarded one the serial path; both must agree to the bit.
        let n = 4 * REDUCTION_CHUNK;
        let v = vec_of(n, |i| {
            Complex64::new(
                ((i * 37) % 101) as f64 * 0.013 - 0.6,
                ((i * 11) % 29) as f64 * 0.07 - 1.0,
            )
        });
        let w = vec_of(n, |i| {
            Complex64::new(((i * 5) % 17) as f64 * 0.1, -(((i * 3) % 7) as f64))
        });
        let costs: Vec<f64> = (0..n).map(|i| ((i * 31) % 23) as f64 - 11.5).collect();
        let class_idx: Vec<u16> = (0..n).map(|i| (i % 5) as u16).collect();
        let mut table = Vec::new();
        build_phase_table(&[0.0, 1.0, -2.0, 3.5, 7.0], 0.37, &mut table);
        let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
        let run = || {
            let mut phased = v.clone();
            (
                norm_sqr(&v).to_bits(),
                bits(inner(&v, &w)),
                diagonal_expectation(&v, &costs).to_bits(),
                bits(amplitude_sum(&v)),
                bits(apply_phases_indexed_sum(&mut phased, &class_idx, &table)),
            )
        };
        let unguarded = run();
        let guarded = {
            let _outer = crate::enter_outer_parallelism();
            run()
        };
        assert_eq!(unguarded, guarded);
        // Both equal the index-order sum of per-chunk serial partials.
        let by_chunks = v
            .chunks(REDUCTION_CHUNK)
            .map(|c| c.iter().map(|z| z.norm_sqr()).sum::<f64>())
            .reduce(|a, b| a + b)
            .unwrap();
        assert_eq!(unguarded.0, by_chunks.to_bits());
    }

    #[test]
    fn inner_weighted_equals_inner_over_the_scaled_copy_bit_for_bit() {
        // Several chunks plus a ragged tail, on both reduction paths.
        for n in [37, 4 * REDUCTION_CHUNK + 3] {
            let a = vec_of(n, |i| {
                Complex64::new((i as f64 * 0.37).sin(), 0.1 * (i % 11) as f64)
            });
            let b = vec_of(n, |i| {
                Complex64::new((i as f64 * 0.71).cos(), -0.3 * (i % 7) as f64)
            });
            let w: Vec<f64> = (0..n).map(|i| ((i * 31) % 23) as f64 * 0.7 - 5.0).collect();
            let scaled: Vec<Complex64> = b.iter().zip(&w).map(|(z, &c)| z.scale(c)).collect();
            let expected = inner(&a, &scaled);
            let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
            assert_eq!(bits(inner_weighted(&a, &b, &w)), bits(expected));
            let _outer = crate::enter_outer_parallelism();
            assert_eq!(bits(inner_weighted(&a, &b, &w)), bits(expected));
        }
    }

    #[test]
    fn class_probabilities_are_chunked_sums_on_both_paths() {
        for n in [37, 4 * REDUCTION_CHUNK + 3] {
            let v = vec_of(n, |i| {
                Complex64::new((i as f64 * 0.37).sin(), 0.1 * (i % 11) as f64)
            });
            let class_idx: Vec<u16> = (0..n).map(|i| ((i * 7) % 5) as u16).collect();
            // Per class, the index-order sum of per-chunk serial partials.
            let expected: Vec<u64> = (0..5u16)
                .map(|c| {
                    v.chunks(REDUCTION_CHUNK)
                        .zip(class_idx.chunks(REDUCTION_CHUNK))
                        .map(|(zs, ks)| {
                            zs.iter()
                                .zip(ks)
                                .filter(|(_, &k)| k == c)
                                .map(|(z, _)| z.norm_sqr())
                                .sum::<f64>()
                        })
                        .reduce(|a, b| a + b)
                        .unwrap()
                        .to_bits()
                })
                .collect();
            let run = || {
                let mut out = vec![f64::NAN; 5];
                class_probabilities(&v, &class_idx, &mut out);
                out.iter().map(|p| p.to_bits()).collect::<Vec<u64>>()
            };
            assert_eq!(run(), expected, "n={n}");
            let _outer = crate::enter_outer_parallelism();
            assert_eq!(run(), expected, "n={n}, serial path");
        }
    }

    #[test]
    fn max_abs_diff_detects_perturbation() {
        let a = vec_of(10, |i| Complex64::new(i as f64, 0.0));
        let mut b = a.clone();
        assert_eq!(max_abs_diff(&a, &b), 0.0);
        b[7] += Complex64::new(0.0, 1e-3);
        assert!((max_abs_diff(&a, &b) - 1e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn inner_mismatched_lengths_panics() {
        let a = vec![Complex64::ONE; 3];
        let b = vec![Complex64::ONE; 4];
        let _ = inner(&a, &b);
    }
}
