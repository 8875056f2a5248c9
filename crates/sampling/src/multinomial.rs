//! Per-outcome shot counts in O(outcomes): exact binomial and multinomial draws.
//!
//! Every estimator of [`crate::estimator`] depends only on how many shots landed on
//! each objective value, so a sampled evaluation over `C` value classes needs the
//! class counts, not the individual shots.  [`multinomial()`] draws those counts
//! directly as a chain of conditional binomials: class `c` receives
//! `Bin(shots left, P_c / P_{≥c})`.  The chain follows the outcome order, stops as
//! soon as no shots remain, and costs `O(C)` binomial draws whatever the shot
//! count, against one alias lookup per shot for [`crate::StateSampler`].
//!
//! [`binomial`] is exact: Hörmann's transformed rejection with decomposition (BTRD,
//! W. Hörmann, "The generation of binomial random variates", J. Stat. Comput.
//! Simul. 46, 1993) when `n·min(p, 1−p) ≥ 10`, and sequential inversion of the
//! pmf below that.  Both run in `O(1)` expected time for any `n` the service
//! accepts (up to 2³⁰ shots).

use crate::sampler::SampleCounts;
use rand::{Rng, RngCore};

/// Draws from `Bin(n, p)`: the number of successes in `n` independent trials that
/// each succeed with probability `p`.
///
/// # Panics
/// Panics unless `0 ≤ p ≤ 1`.
pub fn binomial<R: RngCore + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "binomial probability must lie in [0, 1] (got {p})"
    );
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    // Both samplers want p ≤ ½; Bin(n, p) is n − Bin(n, 1 − p).
    let (q, flip) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
    let k = if n as f64 * q >= 10.0 {
        btrd(n, q, rng)
    } else {
        inversion(n, q, rng)
    };
    if flip {
        n - k
    } else {
        k
    }
}

/// Sequential search of the pmf from `k = 0` for `n·p < 10`, `p ≤ ½`: the expected
/// number of steps is `n·p + 1`.  `f(0) = (1−p)ⁿ ≥ e^{−10}` never underflows.
fn inversion<R: RngCore + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let s = p / (1.0 - p);
    let a = (n as f64 + 1.0) * s;
    let f0 = (n as f64 * (-p).ln_1p()).exp();
    'draw: loop {
        let mut u: f64 = rng.gen();
        let mut f = f0;
        let mut k = 0u64;
        while u >= f {
            u -= f;
            k += 1;
            // f(k) = f(k−1)·((n+1)/k − 1)·p/(1−p).
            f *= a / k as f64 - s;
            // `u` fell in the rounding sliver past the pmf's accumulated mass:
            // past the mean with a negligible term, or past the support.  Reject.
            if k > n || (f < f64::EPSILON && k as f64 > n as f64 * p) {
                continue 'draw;
            }
        }
        return k;
    }
}

/// Hörmann's BTRD for `n·p ≥ 10`, `p ≤ ½`.  Steps 1–2 accept ~86% of draws from the
/// table-free centre of the hat; the rest go through the exact acceptance test of
/// step 3, by recursion near the mode and by Stirling's series away from it.
fn btrd<R: RngCore + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let nf = n as f64;
    let m = ((nf + 1.0) * p).floor();
    let r = p / (1.0 - p);
    let nr = (nf + 1.0) * r;
    let npq = nf * p * (1.0 - p);
    let spq = npq.sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let alpha = (2.83 + 5.1 / b) * spq;
    let v_r = 0.92 - 4.2 / b;
    let u_rv_r = 0.86 * v_r;
    loop {
        // Step 1: the centre of the hat, accepted without a test.
        let mut v: f64 = rng.gen();
        if v <= u_rv_r {
            let u = v / v_r - 0.43;
            return ((2.0 * a / (0.5 - u.abs()) + b) * u + c).floor() as u64;
        }
        // Step 2: a fresh point elsewhere under the hat.
        let u = if v >= v_r {
            rng.gen::<f64>() - 0.5
        } else {
            let w = v / v_r - 0.93;
            v = rng.gen::<f64>() * v_r;
            if w < 0.0 {
                -0.5 - w
            } else {
                0.5 - w
            }
        };
        // Step 3.0: transform, and reject points outside the support.
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + c).floor();
        if k < 0.0 || k > nf {
            continue;
        }
        v *= alpha / (a / (us * us) + b);
        let km = (k - m).abs();
        if km <= 15.0 {
            // Step 3.1: f(k)/f(m) by the pmf's ratio recursion.
            let mut f = 1.0;
            let mut i = m.min(k);
            while i < m.max(k) {
                i += 1.0;
                if m < k {
                    f *= nr / i - r;
                } else {
                    v *= nr / i - r;
                }
            }
            if v <= f {
                return k as u64;
            }
            continue;
        }
        // Step 3.2: squeeze on log f(k)/f(m).
        let v = v.ln();
        let rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
        let t = -km * km / (2.0 * npq);
        if v < t - rho {
            return k as u64;
        }
        if v > t + rho {
            continue;
        }
        // Steps 3.3–3.4: the exact test, with Stirling corrections.
        let nm = nf - m + 1.0;
        let h = (m + 0.5) * ((m + 1.0) / (r * nm)).ln() + stirling_tail(m) + stirling_tail(nf - m);
        let nk = nf - k + 1.0;
        let bound = h + (nf + 1.0) * (nm / nk).ln() + (k + 0.5) * (nk * r / (k + 1.0)).ln()
            - stirling_tail(k)
            - stirling_tail(nf - k);
        if v <= bound {
            return k as u64;
        }
    }
}

/// `ln k! − ((k + ½)·ln(k + 1) − (k + 1) + ½·ln 2π)`, the error of Stirling's
/// formula: tabulated below 10, three terms of its series above.
fn stirling_tail(k: f64) -> f64 {
    const TABLE: [f64; 10] = [
        0.081_061_466_795_327_26,
        0.041_340_695_955_409_29,
        0.027_677_925_684_998_34,
        0.020_790_672_103_765_09,
        0.016_644_691_189_821_19,
        0.013_876_128_823_070_75,
        0.011_896_709_945_891_77,
        0.010_411_265_261_972_09,
        0.009_255_462_182_712_733,
        0.008_330_563_433_362_87,
    ];
    if k < 10.0 {
        return TABLE[k as usize];
    }
    let inv = 1.0 / (k + 1.0);
    let inv2 = inv * inv;
    (1.0 / 12.0 - (1.0 / 360.0 - inv2 / 1260.0) * inv2) * inv
}

/// Draws the per-outcome counts of `shots` independent measurements from the
/// distribution proportional to `probs`, as one histogram.
///
/// Outcome `c` receives `Bin(shots left, probs[c] / Σ_{j≥c} probs[j])`, in index
/// order.  The suffix sums normalise the weights, so a state's ~1e-12 norm drift
/// never biases the draw; each conditional probability is clamped to `[0, 1]`; the
/// last outcome with mass takes whatever shots remain, so the counts sum to `shots`
/// exactly; and the chain stops as soon as no shots remain.  The result is a pure
/// function of `(probs, shots, rng state)`.
///
/// # Panics
/// Panics if `probs` is empty, any weight is negative or non-finite, all weights
/// are zero, or `shots == 0`.
pub fn multinomial<R: RngCore + ?Sized>(probs: &[f64], shots: u64, rng: &mut R) -> SampleCounts {
    assert!(shots > 0, "cannot draw zero shots");
    assert!(
        probs.iter().all(|p| p.is_finite() && *p >= 0.0),
        "multinomial weights must be finite and non-negative"
    );
    let last = probs
        .iter()
        .rposition(|&p| p > 0.0)
        .expect("multinomial weights must not all be zero");
    let mut mass_from = vec![0.0; last + 1];
    let mut suffix = 0.0;
    for c in (0..=last).rev() {
        suffix += probs[c];
        mass_from[c] = suffix;
    }
    let mut counts = vec![0u64; probs.len()];
    let mut left = shots;
    for c in 0..last {
        if left == 0 {
            break;
        }
        let k = binomial(left, (probs[c] / mass_from[c]).clamp(0.0, 1.0), rng);
        counts[c] = k;
        left -= k;
    }
    counts[last] += left;
    SampleCounts::from_counts(counts, shots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exact `Bin(n, p)` pmf over `0..=n` by the ratio recursion.
    fn pmf(n: u64, p: f64) -> Vec<f64> {
        let mut f = vec![(1.0 - p).powi(n as i32)];
        for k in 0..n {
            let next = f[k as usize] * (n - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
            f.push(next);
        }
        f
    }

    /// Pearson χ² of `observed` against `expected` (both per cell), after merging
    /// neighbouring cells until each expects at least 5; returns `(χ², dof)`.
    fn chi_square(observed: &[u64], expected: &[f64]) -> (f64, usize) {
        let (mut cells, mut obs, mut exp) = (Vec::new(), 0.0, 0.0);
        for (&o, &e) in observed.iter().zip(expected) {
            obs += o as f64;
            exp += e;
            if exp >= 5.0 {
                cells.push((obs, exp));
                (obs, exp) = (0.0, 0.0);
            }
        }
        match cells.last_mut() {
            Some(last) => {
                last.0 += obs;
                last.1 += exp;
            }
            None => cells.push((obs, exp)),
        }
        let chi2 = cells.iter().map(|(o, e)| (o - e).powi(2) / e).sum();
        (chi2, cells.len() - 1)
    }

    /// A χ² bound with a ~1e-6 false-alarm rate: mean + 7σ of the χ² law.
    fn chi_square_bound(dof: usize) -> f64 {
        dof as f64 + 7.0 * (2.0 * dof as f64).sqrt()
    }

    fn binomial_draws(n: u64, p: f64, draws: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..draws).map(|_| binomial(n, p, &mut rng)).collect()
    }

    #[test]
    fn degenerate_binomials_are_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(binomial(0, 0.3, &mut rng), 0);
        assert_eq!(binomial(0, 1.0, &mut rng), 0);
        assert_eq!(binomial(17, 0.0, &mut rng), 0);
        assert_eq!(binomial(17, 1.0, &mut rng), 17);
        assert_eq!(binomial(1 << 30, 0.0, &mut rng), 0);
        assert_eq!(binomial(1 << 30, 1.0, &mut rng), 1 << 30);
    }

    #[test]
    fn p_above_one_half_mirrors_p_below() {
        // Bin(n, p) = n − Bin(n, 1 − p), draw for draw, on both sides of the switch.
        for (n, p) in [(20u64, 0.7), (1000, 0.98), (1 << 30, 0.75)] {
            let high = binomial_draws(n, p, 200, 5);
            let low = binomial_draws(n, 1.0 - p, 200, 5);
            for (h, l) in high.iter().zip(&low) {
                assert_eq!(*h, n - l, "n={n} p={p}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn probabilities_outside_the_unit_interval_panic() {
        let _ = binomial(10, 1.5, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic]
    fn nan_probabilities_panic() {
        let _ = binomial(10, f64::NAN, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn moments_match_on_both_sides_of_the_btrd_switch() {
        // n·p from 0.5 (inversion) through 9.9 | 10.1 (the switch) to 2²⁹ (BTRD at
        // the service's shot limit).  The sample mean and variance of 20k draws must
        // sit within 5σ of np and np(1−p).
        let draws = 20_000;
        for (i, (n, p)) in [
            (50u64, 0.01),
            (99, 0.1),
            (101, 0.1),
            (1000, 0.02),
            (60, 0.45),
            (1 << 30, 9.0 / (1u64 << 30) as f64),
            (1 << 30, 0.5),
            (1 << 30, 0.37),
        ]
        .into_iter()
        .enumerate()
        {
            let xs = binomial_draws(n, p, draws, 100 + i as u64);
            assert!(xs.iter().all(|&x| x <= n));
            let mean_exact = n as f64 * p;
            let var_exact = mean_exact * (1.0 - p);
            let d = draws as f64;
            let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / d;
            let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / (d - 1.0);
            let mean_sigma = (var_exact / d).sqrt();
            assert!(
                (mean - mean_exact).abs() <= 5.0 * mean_sigma,
                "n={n} p={p}: mean {mean} vs {mean_exact}"
            );
            // Var(s²) ≈ σ⁴(2 + κ)/d, κ = (1 − 6pq)/(npq) the excess kurtosis.
            let kurt = (1.0 - 6.0 * p * (1.0 - p)) / var_exact;
            let var_sigma = (var_exact * var_exact * (2.0 + kurt.max(0.0)) / d).sqrt();
            assert!(
                (var - var_exact).abs() <= 5.0 * var_sigma,
                "n={n} p={p}: variance {var} vs {var_exact}"
            );
        }
    }

    #[test]
    fn binomial_histograms_fit_the_exact_pmf() {
        // Bin(20, 0.3) runs inversion (np = 6), Bin(1000, 0.02) runs BTRD (np = 20)
        // through its recursion and squeeze paths, Bin(400, 0.5) its Stirling path.
        for (n, p, seed) in [(20u64, 0.3, 7u64), (1000, 0.02, 8), (400, 0.5, 9)] {
            let draws = 200_000usize;
            let mut observed = vec![0u64; n as usize + 1];
            for x in binomial_draws(n, p, draws, seed) {
                observed[x as usize] += 1;
            }
            let expected: Vec<f64> = pmf(n, p).iter().map(|f| f * draws as f64).collect();
            let (chi2, dof) = chi_square(&observed, &expected);
            assert!(
                chi2 <= chi_square_bound(dof),
                "Bin({n}, {p}): χ² = {chi2} over {dof} dof"
            );
        }
    }

    #[test]
    fn multinomial_counts_sum_to_the_shots_and_skip_empty_classes() {
        let probs = [0.0, 0.3, 0.0, 0.5, 0.2, 0.0];
        let mut rng = StdRng::seed_from_u64(3);
        for shots in [1u64, 2, 7, 2048, 1 << 30] {
            let counts = multinomial(&probs, shots, &mut rng);
            assert_eq!(counts.shots(), shots);
            assert_eq!(counts.as_slice().iter().sum::<u64>(), shots);
            for c in [0, 2, 5] {
                assert_eq!(counts.count(c), 0, "zero-probability class {c} drew shots");
            }
        }
        // A single class with mass takes every shot.
        let counts = multinomial(&[0.0, 2.5, 0.0], 99, &mut rng);
        assert_eq!(counts.as_slice(), &[0, 99, 0]);
    }

    #[test]
    fn multinomial_ignores_the_weight_scale() {
        // Normalised weights and the same weights off by a norm drift draw the
        // same counts from the same stream.
        let probs = [0.1, 0.2, 0.3, 0.4];
        let drifted: Vec<f64> = probs.iter().map(|p| p * (1.0 + 1e-12)).collect();
        let a = multinomial(&probs, 5000, &mut StdRng::seed_from_u64(9));
        let b = multinomial(&drifted, 5000, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn multinomial_fits_the_class_probabilities_at_every_shot_scale() {
        // 21 classes, as a sampled-grid eval has.  Fewer shots than classes, about as
        // many, and many more: the pooled counts of repeated draws fit the exact
        // class probabilities.
        let weights: Vec<f64> = (0..21)
            .map(|c| ((c * 7 % 11) as f64 + 0.5).powi(2))
            .collect();
        let total: f64 = weights.iter().sum();
        for (shots, repeats, seed) in [(5u64, 40_000u64, 1u64), (21, 10_000, 2), (2048, 100, 3)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pooled = vec![0u64; weights.len()];
            for _ in 0..repeats {
                let counts = multinomial(&weights, shots, &mut rng);
                for (p, &c) in pooled.iter_mut().zip(counts.as_slice()) {
                    *p += c;
                }
            }
            let draws = (shots * repeats) as f64;
            let expected: Vec<f64> = weights.iter().map(|w| w / total * draws).collect();
            let (chi2, dof) = chi_square(&pooled, &expected);
            assert!(
                chi2 <= chi_square_bound(dof),
                "shots={shots}: χ² = {chi2} over {dof} dof"
            );
        }
    }

    #[test]
    fn multinomial_is_a_pure_function_of_its_stream() {
        let probs = [0.25, 0.25, 0.5];
        let a = multinomial(&probs, 1000, &mut StdRng::seed_from_u64(4));
        let b = multinomial(&probs, 1000, &mut StdRng::seed_from_u64(4));
        let c = multinomial(&probs, 1000, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic]
    fn all_zero_weights_panic() {
        let _ = multinomial(&[0.0, 0.0], 10, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic]
    fn negative_weights_panic() {
        let _ = multinomial(&[0.5, -0.1], 10, &mut StdRng::seed_from_u64(0));
    }
}
