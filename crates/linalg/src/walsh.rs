//! Fast Walsh–Hadamard transforms (`H^{⊗n}`).
//!
//! Every Pauli-X product mixer Hamiltonian `f(X_i)` is diagonalised by the uniform
//! Hadamard rotation: `e^{-iβ f(X_i)} = H^{⊗n} e^{-iβ f(Z_i)} H^{⊗n}` (Eq. 2 in the
//! paper).  Applying `H^{⊗n}` to a statevector is the butterfly-structured fast
//! Walsh–Hadamard transform, costing `O(n·2ⁿ)` — the "appropriate tensor contractions"
//! of §2.2.  This module provides one in-place, normalised (unitary) transform,
//! [`walsh_hadamard`], with a serial and a rayon-parallel schedule.
//!
//! # The radix-2 definition and the blocked schedule
//!
//! The definition runs `n` stages over `2ⁿ` amplitudes: stage `s` replaces every pair
//! `(x_i, x_{i+2^s})` with bit `s` of `i` clear by `(x_i + x_{i+2^s}, x_i − x_{i+2^s})`,
//! and the result is multiplied by `2^{-n/2}`.  Run stage by stage, that is `n` sweeps
//! over the state plus one for the scale.  [`walsh_hadamard`] runs the same butterflies
//! in a cache-friendlier order:
//!
//! 1. stages 0–3 on each 16-amplitude group, held in a local array;
//! 2. the remaining stages below `BLOCK` (`2^14`) amplitudes, block by block, so each block
//!    stays in cache for all of them (radix-4 sweeps, two stages each, plus one
//!    radix-2 sweep when their count is odd);
//! 3. the stages above the block as radix-4 sweeps over the whole state, two stages
//!    per sweep, with one radix-2 sweep last when their count is odd.
//!
//! The `2^{-n/2}` factor is multiplied into the outputs of whichever pass runs last,
//! so there is no separate scale sweep.  The parallel schedule runs the same passes
//! with one fork over the blocks and one fork per high sweep; a sweep with fewer
//! butterfly groups than threads splits each group's index range across the threads.
//!
//! # Why the bits equal the definition
//!
//! Every butterfly computes `a + b` and `a − b` from the same two operands as the
//! definition, every amplitude meets the stages in the same order (stage `s` before
//! stage `s + 1`), and the last operation on every amplitude is the same multiply by
//! `1/√len`.  The schedules only reorder butterflies that do not depend on each other,
//! so the serial and parallel schedules reproduce the radix-2 definition bit for bit,
//! at any thread count.
//!
//! # Transforms per simulation
//!
//! A Pauli-X mixer evolution is two transforms (into the eigenbasis and back), so a
//! cold evaluation at `p` rounds costs `2p`, and a prefix-cache tail replay that
//! changes only the final `β` costs one.  The adjoint gradient adds five per round to
//! its forward pass (see `juliqaoa_core::gradient`).

use crate::{parallel_kernels_enabled, Complex64};
use juliqaoa_telemetry::kernels::KERNELS;
use rayon::prelude::*;

/// Amplitudes per cache block: the stages below `log2(BLOCK)` run block by block.
///
/// `2^14` amplitudes are 256 KiB, which stays in a core's L2 cache for all ten
/// in-block stages.  On a 2-CPU x86-64 Xeon (48 KiB L1d, 2 MiB L2 per core) the
/// serial transform ran about 10% faster than with an L1-sized `2^11` block for
/// `n = 14–20`, and no slower at `n = 22`.
const BLOCK: usize = 1 << 14;

/// Applies the unitary transform `H^{⊗n}` to `state` in place.
///
/// `state.len()` must be a power of two; `n = log2(len)`.  The transform is normalised
/// (an overall `2^{-n/2}` factor), so applying it twice returns the original state.
/// The result equals the radix-2 definition bit for bit (see the module docs).
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn walsh_hadamard(state: &mut [Complex64]) {
    let len = state.len();
    assert!(
        len.is_power_of_two(),
        "statevector length must be a power of two"
    );
    KERNELS.wht_passes.inc();
    let scale = 1.0 / (len as f64).sqrt();
    if parallel_kernels_enabled(len) {
        walsh_hadamard_parallel(state, scale);
    } else {
        walsh_hadamard_serial(state, scale);
    }
}

/// The serial schedule: every block's stages in turn, then the high sweeps.
fn walsh_hadamard_serial(state: &mut [Complex64], scale: f64) {
    let len = state.len();
    let block = len.min(BLOCK);
    for b in state.chunks_exact_mut(block) {
        block_stages(b, (block == len).then_some(scale));
    }
    for (h, radix) in sweeps(block, len) {
        sweep(state, h, radix, (h * radix == len).then_some(scale));
    }
}

/// The parallel schedule: the serial schedule's passes, with one fork over the blocks
/// and one fork per high sweep.
fn walsh_hadamard_parallel(state: &mut [Complex64], scale: f64) {
    let len = state.len();
    let block = len.min(BLOCK);
    let last = (block == len).then_some(scale);
    state
        .par_chunks_mut(block)
        .for_each(|b| block_stages(b, last));
    let threads = rayon::current_num_threads();
    for (h, radix) in sweeps(block, len) {
        let last = (h * radix == len).then_some(scale);
        // With fewer butterfly groups than threads, each group's index range `0..h`
        // is cut into pieces, so that every thread gets a share of the sweep.
        let piece = h.div_ceil(threads.div_ceil(len / (radix * h)));
        if radix == 4 {
            let mut quads = Vec::new();
            for g in state.chunks_exact_mut(4 * h) {
                let [q0, q1, q2, q3] = rows(g);
                quads.extend(
                    q0.chunks_mut(piece)
                        .zip(q1.chunks_mut(piece))
                        .zip(q2.chunks_mut(piece))
                        .zip(q3.chunks_mut(piece)),
                );
            }
            quads
                .into_par_iter()
                .for_each(|(((q0, q1), q2), q3)| radix4([q0, q1, q2, q3], last));
        } else {
            let mut pairs = Vec::new();
            for g in state.chunks_exact_mut(2 * h) {
                let [lo, hi] = rows(g);
                pairs.extend(lo.chunks_mut(piece).zip(hi.chunks_mut(piece)));
            }
            pairs
                .into_par_iter()
                .for_each(|(lo, hi)| radix2([lo, hi], last));
        }
    }
}

/// The sweeps `(h, radix)` that run stages `log2(from)..log2(to)`: radix 4 (stages
/// `log2 h` and `log2 h + 1`) while two stages remain, then radix 2 for an odd one.
fn sweeps(from: usize, to: usize) -> impl Iterator<Item = (usize, usize)> {
    let radix = move |h: usize| if 4 * h <= to { 4 } else { 2 };
    std::iter::successors(Some(from), move |&h| Some(h * radix(h)))
        .take_while(move |&h| h < to)
        .map(move |h| (h, radix(h)))
}

/// Every stage of one block (`block.len()` is a power of two): stages 0–3 on each
/// 16-amplitude group, then the rest as in-block sweeps.
fn block_stages(block: &mut [Complex64], last: Option<f64>) {
    let len = block.len();
    let mut from = 1;
    if len >= 16 {
        let group_last = if len == 16 { last } else { None };
        for group in block.chunks_exact_mut(16) {
            first_four_stages(group, group_last);
        }
        from = 16;
    }
    for (h, radix) in sweeps(from, len) {
        sweep(block, h, radix, last.filter(|_| h * radix == len));
    }
}

/// Stages 0–3 of one 16-amplitude group, as two radix-4 steps on a local copy.
fn first_four_stages(group: &mut [Complex64], last: Option<f64>) {
    let mut a = [Complex64::ZERO; 16];
    a.copy_from_slice(group);
    for i in [0, 4, 8, 12] {
        [a[i], a[i + 1], a[i + 2], a[i + 3]] = butterfly4(a[i], a[i + 1], a[i + 2], a[i + 3]);
    }
    for i in 0..4 {
        [a[i], a[i + 4], a[i + 8], a[i + 12]] = butterfly4(a[i], a[i + 4], a[i + 8], a[i + 12]);
    }
    for (dst, z) in group.iter_mut().zip(a) {
        *dst = output(z, last);
    }
}

/// Stages `log2 h` and `log2 h + 1` on amplitudes `i, i+h, i+2h, i+3h`: the two
/// radix-2 stages' adds and subtracts, in their order.
#[inline(always)]
fn butterfly4(x0: Complex64, x1: Complex64, x2: Complex64, x3: Complex64) -> [Complex64; 4] {
    let (y0, y1, y2, y3) = (x0 + x1, x0 - x1, x2 + x3, x2 - x3);
    [y0 + y2, y1 + y3, y0 - y2, y1 - y3]
}

/// A butterfly output, multiplied by `1/√len` when its pass is the transform's last.
#[inline(always)]
fn output(z: Complex64, last: Option<f64>) -> Complex64 {
    match last {
        Some(scale) => z.scale(scale),
        None => z,
    }
}

/// Splits a butterfly group into its `R` rows of `group.len() / R` amplitudes.
fn rows<const R: usize>(group: &mut [Complex64]) -> [&mut [Complex64]; R] {
    let mut rows = group.chunks_exact_mut(group.len() / R);
    std::array::from_fn(|_| rows.next().expect("a group holds R equal rows"))
}

/// One sweep: stages `log2 h` and, for radix 4, `log2 h + 1`, on every
/// `radix·h`-amplitude group of `v`.
fn sweep(v: &mut [Complex64], h: usize, radix: usize, last: Option<f64>) {
    for group in v.chunks_exact_mut(radix * h) {
        if radix == 4 {
            radix4(rows(group), last);
        } else {
            radix2(rows(group), last);
        }
    }
}

/// Radix-4 butterflies across four equal rows (`rows[k][j]` is amplitude `i + k·h`).
fn radix4([q0, q1, q2, q3]: [&mut [Complex64]; 4], last: Option<f64>) {
    let quads = q0.iter_mut().zip(q1.iter_mut()).zip(q2.iter_mut()).zip(q3);
    for (((a, b), c), d) in quads {
        let [z0, z1, z2, z3] = butterfly4(*a, *b, *c, *d);
        *a = output(z0, last);
        *b = output(z1, last);
        *c = output(z2, last);
        *d = output(z3, last);
    }
}

/// Radix-2 butterflies across two equal rows.
fn radix2([lo, hi]: [&mut [Complex64]; 2], last: Option<f64>) {
    for (a, b) in lo.iter_mut().zip(hi) {
        let (x, y) = (*a, *b);
        *a = output(x + y, last);
        *b = output(x - y, last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    /// The Walsh character `(-1)^{popcount(x & y)}`, i.e. the `(x, y)` entry of the
    /// unnormalised Hadamard matrix `H^{⊗n}·2^{n/2}`.
    fn walsh_character(x: usize, y: usize) -> f64 {
        if (x & y).count_ones().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        }
    }

    /// The radix-2 definition: `n` stage sweeps, then the `2^{-n/2}` scale sweep.
    fn walsh_hadamard_reference(state: &mut [Complex64]) {
        let len = state.len();
        let mut h = 1;
        while h < len {
            let step = h * 2;
            let mut start = 0;
            while start < len {
                for i in start..start + h {
                    let a = state[i];
                    let b = state[i + h];
                    state[i] = a + b;
                    state[i + h] = a - b;
                }
                start += step;
            }
            h = step;
        }
        let scale = 1.0 / (len as f64).sqrt();
        state.iter_mut().for_each(|z| *z = z.scale(scale));
    }

    /// A state with distinct, irregular amplitudes, so rounding differs between
    /// butterfly orders.
    fn irregular_state(len: usize) -> Vec<Complex64> {
        (0..len)
            .map(|i| {
                Complex64::new(
                    ((i * 37) % 101) as f64 * 0.013 - 0.6 + (i as f64 * 0.7).sin() * 1e-3,
                    ((i * 13) % 17) as f64 * 0.05 - (i as f64 * 0.3).cos() * 1e-3,
                )
            })
            .collect()
    }

    fn assert_bits_eq(a: &[Complex64], b: &[Complex64], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: amplitude {i} of {}: {x} vs {y}",
                a.len()
            );
        }
    }

    fn basis_state(len: usize, idx: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; len];
        v[idx] = Complex64::ONE;
        v
    }

    #[test]
    fn walsh_hadamard_matches_the_radix2_reference_bit_for_bit() {
        for n in 0..=20 {
            let orig = irregular_state(1 << n);
            let mut expected = orig.clone();
            walsh_hadamard_reference(&mut expected);
            let mut v = orig;
            walsh_hadamard(&mut v);
            assert_bits_eq(&v, &expected, &format!("walsh_hadamard n={n}"));
        }
    }

    #[test]
    fn parallel_path_matches_serial_path() {
        // Both schedules, called directly at every size, against the reference.
        for n in 0..=20 {
            let len = 1usize << n;
            let scale = 1.0 / (len as f64).sqrt();
            let orig = irregular_state(len);
            let mut expected = orig.clone();
            walsh_hadamard_reference(&mut expected);
            let mut serial = orig.clone();
            walsh_hadamard_serial(&mut serial, scale);
            assert_bits_eq(&serial, &expected, &format!("serial n={n}"));
            let mut parallel = orig;
            walsh_hadamard_parallel(&mut parallel, scale);
            assert_bits_eq(&parallel, &expected, &format!("parallel n={n}"));
        }
    }

    #[test]
    fn hadamard_of_basis_zero_is_uniform() {
        let n = 4;
        let len = 1 << n;
        let mut v = basis_state(len, 0);
        walsh_hadamard(&mut v);
        let amp = 1.0 / (len as f64).sqrt();
        for z in &v {
            assert!((z.re - amp).abs() < 1e-12);
            assert!(z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn transform_is_self_inverse() {
        let len = 1 << 6;
        let orig: Vec<Complex64> = (0..len)
            .map(|i| Complex64::new((i % 7) as f64 * 0.3 - 1.0, (i % 5) as f64 * 0.2))
            .collect();
        let mut v = orig.clone();
        walsh_hadamard(&mut v);
        walsh_hadamard(&mut v);
        assert!(vector::max_abs_diff(&v, &orig) < 1e-12);
    }

    #[test]
    fn transform_preserves_norm() {
        let len = 1 << 7;
        let mut v: Vec<Complex64> = (0..len)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let before = vector::norm(&v);
        walsh_hadamard(&mut v);
        assert!((vector::norm(&v) - before).abs() < 1e-10);
    }

    #[test]
    fn matches_walsh_character_matrix() {
        // H^{⊗n}|y⟩ should have amplitude 2^{-n/2}·(-1)^{x·y} at position x.
        let n = 5;
        let len = 1 << n;
        let scale = 1.0 / (len as f64).sqrt();
        for y in [0usize, 1, 7, 19, 31] {
            let mut v = basis_state(len, y);
            walsh_hadamard(&mut v);
            for (x, amp) in v.iter().enumerate() {
                let expected = scale * walsh_character(x, y);
                assert!((amp.re - expected).abs() < 1e-12, "x={x} y={y}");
                assert!(amp.im.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn single_element_transform_is_identity() {
        let mut v = vec![Complex64::new(0.3, -0.4)];
        walsh_hadamard(&mut v);
        assert!((v[0] - Complex64::new(0.3, -0.4)).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        let mut v = vec![Complex64::ZERO; 6];
        walsh_hadamard(&mut v);
    }

    #[test]
    fn walsh_character_parity() {
        assert_eq!(walsh_character(0b101, 0b100), -1.0);
        assert_eq!(walsh_character(0b101, 0b101), 1.0);
        assert_eq!(walsh_character(0, 12345), 1.0);
    }
}
