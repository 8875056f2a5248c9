//! The cost-function interface.
//!
//! Mirroring the Julia package, a problem is "anything that maps a basis state to a
//! scalar".  Basis states are passed as `u64` bitmasks (qubit `i` ↔ bit `i`); the
//! convenience method [`CostFunction::evaluate_bits`] accepts the explicit 0/1 arrays the
//! paper's listings use.  QAOA conventionally *maximizes* the objective; minimization
//! problems simply negate their values (as Listing 3 in the paper describes).
//!
//! A cost function may also *declare* a symmetry the simulator can exploit:
//! [`CostFunction::flip_symmetric`] states that `C(x) = C(x̄)` for every state, where
//! `x̄` complements all `n` bits.  MaxCut and number partitioning declare it, and
//! [`Negated`] and [`Offset`] forward their inner function's declaration.  Nothing
//! infers it from values: a scan can only confirm it for the states it saw.  A service
//! running such an objective under a Pauli-X mixer simulates half the space (see
//! `juliqaoa_mixers::pauli_x`).

use juliqaoa_combinatorics::bits;

/// A cost function `C(x)` on `n`-qubit computational basis states.
pub trait CostFunction: Sync {
    /// Number of qubits (bits) the cost function is defined on.
    fn num_qubits(&self) -> usize;

    /// The objective value of the basis state given as a bitmask.
    fn evaluate(&self, state: u64) -> f64;

    /// The objective value of a basis state given as a 0/1 array (LSB-first, i.e.
    /// `bits[i]` is qubit `i`).  Default implementation converts and calls
    /// [`CostFunction::evaluate`].
    fn evaluate_bits(&self, bits: &[u8]) -> f64 {
        assert_eq!(bits.len(), self.num_qubits(), "bit array has wrong length");
        self.evaluate(bits::from_bit_array(bits))
    }

    /// A short human-readable name, used in logs and benchmark output.
    fn name(&self) -> &str {
        "cost"
    }

    /// Whether `C(x) = C(x̄)` holds, bit for bit, for every state `x`, with `x̄` the
    /// complement of all `num_qubits()` bits.  A declaration, never a measurement:
    /// the default is `false`, and an implementation returns `true` only when its
    /// arithmetic makes the two evaluations identical.
    fn flip_symmetric(&self) -> bool {
        false
    }
}

/// Wraps a plain closure as a [`CostFunction`] — the "arbitrarily complicated or
/// synthetic optimization functions" escape hatch the paper highlights.
pub struct FnCost<F: Fn(u64) -> f64 + Sync> {
    n: usize,
    name: String,
    f: F,
}

impl<F: Fn(u64) -> f64 + Sync> FnCost<F> {
    /// Wraps `f` as a cost function on `n` qubits.
    pub fn new(n: usize, name: impl Into<String>, f: F) -> Self {
        FnCost {
            n,
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(u64) -> f64 + Sync> CostFunction for FnCost<F> {
    fn num_qubits(&self) -> usize {
        self.n
    }

    fn evaluate(&self, state: u64) -> f64 {
        (self.f)(state)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A cost function with every value negated; turns maximization into minimization and
/// vice versa (the "overall minus sign" of Listing 3).
pub struct Negated<C: CostFunction>(pub C);

impl<C: CostFunction> CostFunction for Negated<C> {
    fn num_qubits(&self) -> usize {
        self.0.num_qubits()
    }

    fn evaluate(&self, state: u64) -> f64 {
        -self.0.evaluate(state)
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn flip_symmetric(&self) -> bool {
        self.0.flip_symmetric()
    }
}

/// A cost function shifted by a constant offset; used to make mixed-sign objectives
/// single-signed as the paper recommends for `find_angles`.
pub struct Offset<C: CostFunction> {
    /// The wrapped cost function.
    pub inner: C,
    /// The constant added to every value.
    pub offset: f64,
}

impl<C: CostFunction> CostFunction for Offset<C> {
    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }

    fn evaluate(&self, state: u64) -> f64 {
        self.inner.evaluate(state) + self.offset
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn flip_symmetric(&self) -> bool {
        self.inner.flip_symmetric()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_cost_wraps_closure() {
        let c = FnCost::new(4, "popcount", |x: u64| x.count_ones() as f64);
        assert_eq!(c.num_qubits(), 4);
        assert_eq!(c.name(), "popcount");
        assert_eq!(c.evaluate(0b1011), 3.0);
        assert_eq!(c.evaluate_bits(&[1, 1, 0, 1]), 3.0);
    }

    #[test]
    fn negated_flips_sign() {
        let c = Negated(FnCost::new(3, "id", |x: u64| x as f64));
        assert_eq!(c.evaluate(5), -5.0);
        assert_eq!(c.num_qubits(), 3);
    }

    #[test]
    fn offset_shifts_values() {
        let c = Offset {
            inner: FnCost::new(3, "id", |x: u64| x as f64 - 4.0),
            offset: 4.0,
        };
        assert_eq!(c.evaluate(0), 0.0);
        assert_eq!(c.evaluate(7), 7.0);
    }

    #[test]
    fn symmetry_is_declared_never_inferred() {
        // A closure that happens to be symmetric still declares nothing.
        let even = FnCost::new(4, "weight parity", |x: u64| (x.count_ones() % 2) as f64);
        assert!(!even.flip_symmetric());
        let cut = crate::MaxCut::new(juliqaoa_graphs::cycle_graph(4));
        assert!(Negated(cut.clone()).flip_symmetric());
        assert!(Offset {
            inner: cut,
            offset: 1.5
        }
        .flip_symmetric());
        assert!(!Negated(even).flip_symmetric());
    }

    #[test]
    #[should_panic]
    fn evaluate_bits_length_mismatch_panics() {
        let c = FnCost::new(4, "id", |x: u64| x as f64);
        let _ = c.evaluate_bits(&[0, 1]);
    }
}
