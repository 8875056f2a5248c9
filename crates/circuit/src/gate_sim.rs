//! A generic gate-by-gate statevector simulator.
//!
//! This is the architecture of the packages the paper compares against: every QAOA
//! evaluation first builds a circuit and then applies it gate by gate to a `2ⁿ`
//! statevector.  Single-qubit gates cost `O(2ⁿ)`, so a p-round MaxCut QAOA costs
//! `O(p·(n + |E|)·2ⁿ)` — asymptotically comparable to the purpose-built simulator's
//! unconstrained path but with a much larger constant (per-gate dispatch, repeated
//! circuit construction, no pre-computation reuse), which is what Figure 4 measures.

use crate::circuit::Circuit;
use crate::gate::Gate;
use juliqaoa_linalg::{vector, Complex64};

/// A statevector simulator that executes [`Circuit`]s.
#[derive(Clone, Debug)]
pub struct GateSimulator {
    n: usize,
    state: Vec<Complex64>,
}

impl GateSimulator {
    /// Initialises the simulator in `|0…0⟩`.
    pub fn new(n: usize) -> Self {
        assert!(n < 30, "gate simulator limited to n < 30 qubits");
        let mut state = vec![Complex64::ZERO; 1 << n];
        state[0] = Complex64::ONE;
        GateSimulator { n, state }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The current statevector.
    pub fn state(&self) -> &[Complex64] {
        &self.state
    }

    /// Applies a whole circuit.
    ///
    /// # Panics
    /// Panics if the circuit is defined on a different number of qubits.
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(
            circuit.num_qubits(),
            self.n,
            "circuit/simulator qubit mismatch"
        );
        for gate in circuit.gates() {
            self.apply(*gate);
        }
    }

    /// Applies a single gate.
    pub fn apply(&mut self, gate: Gate) {
        match gate {
            Gate::H(q) => self.apply_single(q, |a, b| {
                let s = std::f64::consts::FRAC_1_SQRT_2;
                ((a + b).scale(s), (a - b).scale(s))
            }),
            Gate::X(q) => self.apply_single(q, |a, b| (b, a)),
            Gate::Z(q) => self.apply_single(q, |a, b| (a, -b)),
            Gate::Rx(q, theta) => {
                let c = (theta / 2.0).cos();
                let s = (theta / 2.0).sin();
                let mis = Complex64::new(0.0, -s);
                self.apply_single(q, |a, b| (a.scale(c) + mis * b, b.scale(c) + mis * a))
            }
            Gate::Ry(q, theta) => {
                let c = (theta / 2.0).cos();
                let s = (theta / 2.0).sin();
                self.apply_single(q, |a, b| (a.scale(c) - b.scale(s), b.scale(c) + a.scale(s)))
            }
            Gate::Rz(q, theta) => {
                let ph0 = Complex64::cis(-theta / 2.0);
                let ph1 = Complex64::cis(theta / 2.0);
                self.apply_single(q, |a, b| (ph0 * a, ph1 * b))
            }
            Gate::Rzz(q1, q2, theta) => {
                let same = Complex64::cis(-theta / 2.0);
                let diff = Complex64::cis(theta / 2.0);
                for (x, amp) in self.state.iter_mut().enumerate() {
                    let b1 = (x >> q1) & 1;
                    let b2 = (x >> q2) & 1;
                    *amp *= if b1 == b2 { same } else { diff };
                }
            }
            Gate::Cnot(control, target) => {
                let cbit = 1usize << control;
                let tbit = 1usize << target;
                for x in 0..self.state.len() {
                    if x & cbit != 0 && x & tbit == 0 {
                        self.state.swap(x, x | tbit);
                    }
                }
            }
        }
    }

    /// Applies a 1-qubit gate given its action on the amplitude pair
    /// `(|…0_q…⟩, |…1_q…⟩)`.
    fn apply_single(
        &mut self,
        q: usize,
        f: impl Fn(Complex64, Complex64) -> (Complex64, Complex64),
    ) {
        let bit = 1usize << q;
        for x in 0..self.state.len() {
            if x & bit == 0 {
                let a = self.state[x];
                let b = self.state[x | bit];
                let (na, nb) = f(a, b);
                self.state[x] = na;
                self.state[x | bit] = nb;
            }
        }
    }

    /// Expectation value of a diagonal observable given by its values on basis states.
    pub fn diagonal_expectation(&self, values: &[f64]) -> f64 {
        vector::diagonal_expectation(&self.state, values)
    }

    /// Measurement probability of basis state `x`.
    pub fn probability(&self, x: usize) -> f64 {
        self.state[x].norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn starts_in_all_zero_state() {
        let sim = GateSimulator::new(3);
        assert_eq!(sim.num_qubits(), 3);
        assert!((sim.probability(0) - 1.0).abs() < EPS);
        assert!((vector::norm(sim.state()) - 1.0).abs() < EPS);
    }

    #[test]
    fn hadamard_layer_gives_uniform_superposition() {
        let mut sim = GateSimulator::new(4);
        let mut c = Circuit::new(4);
        c.hadamard_layer();
        sim.run(&c);
        for x in 0..16 {
            assert!((sim.probability(x) - 1.0 / 16.0).abs() < EPS);
        }
    }

    #[test]
    fn x_and_cnot_produce_bell_like_logic() {
        let mut sim = GateSimulator::new(2);
        sim.apply(Gate::X(0));
        assert!((sim.probability(0b01) - 1.0).abs() < EPS);
        sim.apply(Gate::Cnot(0, 1));
        assert!((sim.probability(0b11) - 1.0).abs() < EPS);
        // Bell state from |00⟩: H then CNOT.
        sim = GateSimulator::new(2);
        sim.apply(Gate::H(0));
        sim.apply(Gate::Cnot(0, 1));
        assert!((sim.probability(0b00) - 0.5).abs() < EPS);
        assert!((sim.probability(0b11) - 0.5).abs() < EPS);
        assert!(sim.probability(0b01) < EPS);
    }

    #[test]
    fn rx_full_rotation_flips_qubit() {
        let mut sim = GateSimulator::new(1);
        sim.apply(Gate::Rx(0, std::f64::consts::PI));
        // RX(π)|0⟩ = −i|1⟩.
        assert!((sim.probability(1) - 1.0).abs() < EPS);
        assert!((sim.state()[1] - Complex64::new(0.0, -1.0)).abs() < EPS);
    }

    #[test]
    fn ry_rotation_creates_real_superposition() {
        let mut sim = GateSimulator::new(1);
        sim.apply(Gate::Ry(0, std::f64::consts::FRAC_PI_2));
        assert!((sim.probability(0) - 0.5).abs() < EPS);
        assert!((sim.probability(1) - 0.5).abs() < EPS);
        assert!(sim.state()[0].im.abs() < EPS);
        assert!(sim.state()[1].im.abs() < EPS);
    }

    #[test]
    fn rz_and_z_phases() {
        let mut sim = GateSimulator::new(1);
        sim.apply(Gate::H(0));
        sim.apply(Gate::Z(0));
        sim.apply(Gate::H(0));
        // HZH = X, so the qubit is flipped.
        assert!((sim.probability(1) - 1.0).abs() < EPS);

        sim = GateSimulator::new(1);
        sim.apply(Gate::H(0));
        sim.apply(Gate::Rz(0, std::f64::consts::PI));
        sim.apply(Gate::H(0));
        // H·RZ(π)·H = RX(π) up to global phase: qubit flipped.
        assert!((sim.probability(1) - 1.0).abs() < EPS);
    }

    #[test]
    fn rzz_applies_correlated_phases() {
        let mut sim = GateSimulator::new(2);
        sim.apply(Gate::H(0));
        sim.apply(Gate::H(1));
        let theta = 0.7;
        sim.apply(Gate::Rzz(0, 1, theta));
        // |00⟩ and |11⟩ get e^{-iθ/2}; |01⟩ and |10⟩ get e^{+iθ/2}.
        let same = Complex64::cis(-theta / 2.0).scale(0.5);
        let diff = Complex64::cis(theta / 2.0).scale(0.5);
        assert!((sim.state()[0b00] - same).abs() < EPS);
        assert!((sim.state()[0b11] - same).abs() < EPS);
        assert!((sim.state()[0b01] - diff).abs() < EPS);
        assert!((sim.state()[0b10] - diff).abs() < EPS);
    }

    #[test]
    fn all_gates_preserve_norm() {
        let mut sim = GateSimulator::new(3);
        let mut c = Circuit::new(3);
        c.hadamard_layer();
        c.push(Gate::Rzz(0, 2, 0.9));
        c.push(Gate::Rx(1, 1.3));
        c.push(Gate::Ry(2, -0.4));
        c.push(Gate::Rz(0, 2.2));
        c.push(Gate::Cnot(2, 0));
        c.push(Gate::X(1));
        c.push(Gate::Z(2));
        sim.run(&c);
        assert!((vector::norm(sim.state()) - 1.0).abs() < EPS);
    }

    #[test]
    fn diagonal_expectation_of_uniform_state() {
        let mut sim = GateSimulator::new(3);
        let mut c = Circuit::new(3);
        c.hadamard_layer();
        sim.run(&c);
        let values: Vec<f64> = (0..8).map(|x: u64| x.count_ones() as f64).collect();
        assert!((sim.diagonal_expectation(&values) - 1.5).abs() < EPS);
    }

    #[test]
    #[should_panic]
    fn mismatched_circuit_panics() {
        let mut sim = GateSimulator::new(2);
        let c = Circuit::new(3);
        sim.run(&c);
    }
}
