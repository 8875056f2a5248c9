//! Multi-angle QAOA: several mixers, each with its own angle, at every layer.
//!
//! Section 3: "to test multi-angle QAOA, one can even pass an array of arrays of mixers,
//! along with a nested array of angles, which allows for multiple mixers at each layer."
//! [`MultiAngleSimulator`] implements exactly that generalisation: layer `ℓ` applies the
//! phase separator with angle `γ_ℓ`, followed by every mixer of the layer in order, each
//! with its own `β`.

use crate::error::QaoaError;
use crate::result::SimulationResult;
use crate::workspace::Workspace;
use juliqaoa_linalg::{vector, Complex64};
use juliqaoa_mixers::Mixer;

/// Angles for a multi-angle QAOA: one `γ` per layer plus one `β` per mixer per layer.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiAngles {
    /// Phase-separator angle of each layer.
    pub gammas: Vec<f64>,
    /// `betas[ℓ][m]` is the angle of mixer `m` in layer `ℓ`.
    pub betas: Vec<Vec<f64>>,
}

impl MultiAngles {
    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.gammas.len()
    }
}

/// A QAOA simulator with an arbitrary per-layer mixer schedule.
pub struct MultiAngleSimulator {
    obj_vals: Vec<f64>,
    /// `layers[ℓ]` is the ordered list of mixers applied in layer `ℓ`.
    layers: Vec<Vec<Mixer>>,
    dim: usize,
}

impl MultiAngleSimulator {
    /// Creates a multi-angle simulator.
    ///
    /// # Errors
    /// Returns an error if the objective vector is empty or any mixer's dimension
    /// disagrees with it.
    pub fn new(obj_vals: Vec<f64>, layers: Vec<Vec<Mixer>>) -> Result<Self, QaoaError> {
        if obj_vals.is_empty() {
            return Err(QaoaError::EmptyObjective);
        }
        let dim = obj_vals.len();
        for layer in &layers {
            for m in layer {
                if m.dim() != dim {
                    return Err(QaoaError::DimensionMismatch {
                        objective_len: dim,
                        mixer_dim: m.dim(),
                    });
                }
            }
        }
        Ok(MultiAngleSimulator {
            obj_vals,
            layers,
            dim,
        })
    }

    /// Dimension of the feasible set.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Runs the simulation from the uniform superposition.
    ///
    /// # Errors
    /// Returns [`QaoaError::InvalidAngles`] if the angle structure does not match the
    /// mixer schedule.
    pub fn simulate(&self, angles: &MultiAngles) -> Result<SimulationResult, QaoaError> {
        if angles.layers() != self.layers.len() {
            return Err(QaoaError::InvalidAngles(format!(
                "{} layers of angles supplied for {} layers of mixers",
                angles.layers(),
                self.layers.len()
            )));
        }
        for (l, (betas, mixers)) in angles.betas.iter().zip(self.layers.iter()).enumerate() {
            if betas.len() != mixers.len() {
                return Err(QaoaError::InvalidAngles(format!(
                    "layer {l} has {} mixers but {} β angles",
                    mixers.len(),
                    betas.len()
                )));
            }
        }
        let mut ws = Workspace::new(self.dim);
        vector::fill_uniform(&mut ws.state);
        for (l, mixers) in self.layers.iter().enumerate() {
            vector::apply_phases(&mut ws.state, &self.obj_vals, angles.gammas[l]);
            for (m, mixer) in mixers.iter().enumerate() {
                mixer.apply_evolution(angles.betas[l][m], &mut ws.state, &mut ws.scratch);
            }
        }
        Ok(SimulationResult::from_state(ws.state, &self.obj_vals))
    }

    /// Expectation value at the given multi-angles.
    pub fn expectation(&self, angles: &MultiAngles) -> Result<f64, QaoaError> {
        Ok(self.simulate(angles)?.expectation_value())
    }

    /// The uniform-superposition state the simulation starts in, exposed for tests.
    pub fn initial_state(&self) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; self.dim];
        vector::fill_uniform(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angles::Angles;
    use crate::simulator::Simulator;
    use juliqaoa_graphs::erdos_renyi;
    use juliqaoa_problems::{precompute_full, MaxCut};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn maxcut_obj(n: usize, seed: u64) -> Vec<f64> {
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(seed));
        precompute_full(&MaxCut::new(graph))
    }

    #[test]
    fn single_mixer_per_layer_matches_standard_simulator() {
        let n = 5;
        let obj = maxcut_obj(n, 3);
        let standard = Simulator::new(obj.clone(), Mixer::transverse_field(n)).unwrap();
        let multi = MultiAngleSimulator::new(
            obj,
            vec![
                vec![Mixer::transverse_field(n)],
                vec![Mixer::transverse_field(n)],
            ],
        )
        .unwrap();
        let angles = Angles::random(2, &mut StdRng::seed_from_u64(4));
        let ma = MultiAngles {
            gammas: angles.gammas().to_vec(),
            betas: angles.betas().iter().map(|&b| vec![b]).collect(),
        };
        let e_standard = standard.expectation(&angles).unwrap();
        let e_multi = multi.expectation(&ma).unwrap();
        assert!((e_standard - e_multi).abs() < 1e-10);
    }

    #[test]
    fn two_mixers_per_layer_run_and_preserve_norm() {
        let n = 5;
        let obj = maxcut_obj(n, 9);
        let multi = MultiAngleSimulator::new(
            obj,
            vec![vec![Mixer::transverse_field(n), Mixer::grover_full(n)]],
        )
        .unwrap();
        let res = multi
            .simulate(&MultiAngles {
                gammas: vec![0.4],
                betas: vec![vec![0.3, 0.7]],
            })
            .unwrap();
        assert!((res.total_probability() - 1.0).abs() < 1e-10);
        assert_eq!(multi.dim(), 32);
    }

    #[test]
    fn angle_structure_is_validated() {
        let n = 4;
        let obj = maxcut_obj(n, 1);
        let multi = MultiAngleSimulator::new(obj, vec![vec![Mixer::transverse_field(n)]]).unwrap();
        // Wrong number of layers.
        assert!(matches!(
            multi.simulate(&MultiAngles {
                gammas: vec![0.1, 0.2],
                betas: vec![vec![0.1], vec![0.2]],
            }),
            Err(QaoaError::InvalidAngles(_))
        ));
        // Wrong number of betas within the layer.
        assert!(matches!(
            multi.simulate(&MultiAngles {
                gammas: vec![0.1],
                betas: vec![vec![0.1, 0.2]],
            }),
            Err(QaoaError::InvalidAngles(_))
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let obj = maxcut_obj(4, 5);
        assert!(matches!(
            MultiAngleSimulator::new(obj, vec![vec![Mixer::transverse_field(3)]]),
            Err(QaoaError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            MultiAngleSimulator::new(vec![], vec![]),
            Err(QaoaError::EmptyObjective)
        ));
    }

    #[test]
    fn zero_layers_is_the_uniform_state() {
        let obj = maxcut_obj(4, 6);
        let mean: f64 = obj.iter().sum::<f64>() / obj.len() as f64;
        let multi = MultiAngleSimulator::new(obj, vec![]).unwrap();
        let e = multi
            .expectation(&MultiAngles {
                gammas: vec![],
                betas: vec![],
            })
            .unwrap();
        assert!((e - mean).abs() < 1e-12);
        assert_eq!(multi.initial_state().len(), 16);
    }
}
