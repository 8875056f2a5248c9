//! QAOA angle vectors.
//!
//! A `p`-round QAOA has `2p` parameters: the mixer angles `β_1…β_p` and the phase
//! separator angles `γ_1…γ_p`.  The flat layout follows the paper's Listing 1
//! (`angles[1:p] = betas, angles[p+1:2p] = gammas`), which is also the layout the
//! optimizers in `juliqaoa-optim` work with.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The angles `{β_i, γ_i}` of a `p`-round QAOA.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Angles {
    betas: Vec<f64>,
    gammas: Vec<f64>,
}

impl Angles {
    /// Creates an angle set from separate beta and gamma vectors.
    ///
    /// # Panics
    /// Panics if the two vectors have different lengths.
    pub fn new(betas: Vec<f64>, gammas: Vec<f64>) -> Self {
        assert_eq!(
            betas.len(),
            gammas.len(),
            "βs and γs must have the same length"
        );
        Angles { betas, gammas }
    }

    /// Parses the flat layout `[β_1…β_p, γ_1…γ_p]` used by Listing 1 and the optimizers.
    ///
    /// # Panics
    /// Panics if the slice has odd length.
    pub fn from_flat(flat: &[f64]) -> Self {
        assert!(
            flat.len().is_multiple_of(2),
            "flat angle vector must have even length"
        );
        let p = flat.len() / 2;
        Angles {
            betas: flat[..p].to_vec(),
            gammas: flat[p..].to_vec(),
        }
    }

    /// Serialises to the flat layout `[β_1…β_p, γ_1…γ_p]`.
    pub fn to_flat(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(2 * self.p());
        flat.extend_from_slice(&self.betas);
        flat.extend_from_slice(&self.gammas);
        flat
    }

    /// All-zero angles for `p` rounds (the identity circuit).
    pub fn zeros(p: usize) -> Self {
        Angles {
            betas: vec![0.0; p],
            gammas: vec![0.0; p],
        }
    }

    /// Uniform random angles in `[0, 2π)`, the usual starting point for random local
    /// minima searches (Listing 3's `2π·rand(2p)`).
    pub fn random<R: Rng + ?Sized>(p: usize, rng: &mut R) -> Self {
        let tau = 2.0 * std::f64::consts::PI;
        Angles {
            betas: (0..p).map(|_| rng.gen::<f64>() * tau).collect(),
            gammas: (0..p).map(|_| rng.gen::<f64>() * tau).collect(),
        }
    }

    /// Linear-ramp (Trotterized-annealing) initial angles: `γ_i` ramps up from ~0 to
    /// `dt·p` while `β_i` ramps down — the standard annealing-inspired initialisation
    /// used as a QAOA warm start in the literature the paper cites.
    pub fn linear_ramp(p: usize, dt: f64) -> Self {
        let betas = (0..p)
            .map(|i| (1.0 - (i as f64 + 0.5) / p as f64) * dt)
            .collect();
        let gammas = (0..p).map(|i| ((i as f64 + 0.5) / p as f64) * dt).collect();
        Angles { betas, gammas }
    }

    /// Number of rounds `p`.
    pub fn p(&self) -> usize {
        self.betas.len()
    }

    /// The mixer angles `β_1…β_p`.
    pub fn betas(&self) -> &[f64] {
        &self.betas
    }

    /// The phase-separator angles `γ_1…γ_p`.
    pub fn gammas(&self) -> &[f64] {
        &self.gammas
    }

    /// The `(γ_i, β_i)` pair of round `i` (0-based).
    pub fn round(&self, i: usize) -> (f64, f64) {
        (self.gammas[i], self.betas[i])
    }

    /// Extends a good `(p−1)`-round angle set to a `p`-round starting guess by linear
    /// extrapolation of the angle schedules — the seeding step of the iterative
    /// angle-finding strategy (§2.3).
    ///
    /// For `p = 1` inputs the last angles are simply repeated.
    pub fn extrapolate(&self) -> Self {
        let p = self.p();
        assert!(p >= 1, "cannot extrapolate an empty angle set");
        let extend = |v: &[f64]| -> Vec<f64> {
            let mut out = v.to_vec();
            let next = if p >= 2 {
                2.0 * v[p - 1] - v[p - 2]
            } else {
                v[p - 1]
            };
            out.push(next);
            out
        };
        Angles {
            betas: extend(&self.betas),
            gammas: extend(&self.gammas),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flat_round_trip() {
        let flat = vec![0.1, 0.2, 0.3, 1.1, 1.2, 1.3];
        let a = Angles::from_flat(&flat);
        assert_eq!(a.p(), 3);
        assert_eq!(a.betas(), &[0.1, 0.2, 0.3]);
        assert_eq!(a.gammas(), &[1.1, 1.2, 1.3]);
        assert_eq!(a.to_flat(), flat);
        assert_eq!(a.round(1), (1.2, 0.2));
    }

    #[test]
    fn zeros_and_random() {
        let z = Angles::zeros(4);
        assert_eq!(z.p(), 4);
        assert!(z.to_flat().iter().all(|&x| x == 0.0));

        let r = Angles::random(5, &mut StdRng::seed_from_u64(1));
        assert_eq!(r.p(), 5);
        assert!(r
            .to_flat()
            .iter()
            .all(|&x| (0.0..2.0 * std::f64::consts::PI).contains(&x)));
        // Deterministic given the seed.
        let r2 = Angles::random(5, &mut StdRng::seed_from_u64(1));
        assert_eq!(r, r2);
    }

    #[test]
    fn linear_ramp_is_monotone() {
        let a = Angles::linear_ramp(6, 0.8);
        for w in a.gammas().windows(2) {
            assert!(w[0] < w[1]);
        }
        for w in a.betas().windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!(a.gammas().iter().all(|&g| g > 0.0 && g < 0.8));
    }

    #[test]
    fn extrapolation_extends_by_one_round() {
        let a = Angles::new(vec![0.5, 0.4], vec![0.2, 0.6]);
        let b = a.extrapolate();
        assert_eq!(b.p(), 3);
        // Linear extrapolation of the schedules.
        assert!((b.betas()[2] - 0.3).abs() < 1e-12);
        assert!((b.gammas()[2] - 1.0).abs() < 1e-12);
        // Existing rounds untouched.
        assert_eq!(&b.betas()[..2], a.betas());
    }

    #[test]
    fn extrapolating_single_round_repeats() {
        let a = Angles::new(vec![0.7], vec![0.3]);
        let b = a.extrapolate();
        assert_eq!(b.betas(), &[0.7, 0.7]);
        assert_eq!(b.gammas(), &[0.3, 0.3]);
    }

    #[test]
    #[should_panic]
    fn odd_flat_length_panics() {
        let _ = Angles::from_flat(&[0.1, 0.2, 0.3]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = Angles::new(vec![0.1], vec![0.1, 0.2]);
    }
}
