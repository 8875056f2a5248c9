//! Number partitioning.
//!
//! Split a multiset of numbers into two groups minimizing the difference of their sums.
//! We expose it as a maximization problem (the convention of the rest of the crate) by
//! negating the squared imbalance, so the best states have objective 0 for perfectly
//! balanced partitions.

use crate::cost::CostFunction;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Number partitioning with objective `−(Σ_i a_i·s_i)²` where `s_i = 1 − 2·x_i ∈ {±1}`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NumberPartitioning {
    numbers: Vec<f64>,
}

impl NumberPartitioning {
    /// Creates the cost function for a set of numbers.
    pub fn new(numbers: Vec<f64>) -> Self {
        assert!(
            !numbers.is_empty(),
            "number partitioning needs at least one number"
        );
        NumberPartitioning { numbers }
    }

    /// Random instance with integer entries drawn uniformly from `1..=max_value`.
    pub fn random<R: Rng + ?Sized>(n: usize, max_value: u64, rng: &mut R) -> Self {
        let numbers = (0..n)
            .map(|_| rng.gen_range(1..=max_value) as f64)
            .collect();
        NumberPartitioning { numbers }
    }

    /// The numbers being partitioned.
    pub fn numbers(&self) -> &[f64] {
        &self.numbers
    }

    /// The signed imbalance `Σ_i a_i·s_i` for the given assignment.
    pub fn imbalance(&self, state: u64) -> f64 {
        self.numbers
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let s = if (state >> i) & 1 == 1 { -1.0 } else { 1.0 };
                a * s
            })
            .sum()
    }

    /// Brute-force optimal objective (closest to zero imbalance, negated square).
    pub fn optimal_value(&self) -> f64 {
        let n = self.numbers.len();
        assert!(n <= 30, "brute-force optimum limited to n ≤ 30");
        (0..(1u64 << n))
            .map(|x| self.evaluate(x))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl CostFunction for NumberPartitioning {
    fn num_qubits(&self) -> usize {
        self.numbers.len()
    }

    fn evaluate(&self, state: u64) -> f64 {
        let d = self.imbalance(state);
        -(d * d)
    }

    fn name(&self) -> &str {
        "number_partitioning"
    }

    /// Complementing every bit negates every term of the imbalance; the rounded sum
    /// of negated terms is the negated sum, and its square is the same bits.
    fn flip_symmetric(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perfectly_balanced_partition_scores_zero() {
        let c = NumberPartitioning::new(vec![3.0, 1.0, 2.0]);
        // {3} vs {1,2}: balanced.
        assert_eq!(c.evaluate(0b001), 0.0);
        assert_eq!(c.optimal_value(), 0.0);
    }

    #[test]
    fn imbalance_sign_and_symmetry() {
        let c = NumberPartitioning::new(vec![5.0, 2.0]);
        assert_eq!(c.imbalance(0b00), 7.0);
        assert_eq!(c.imbalance(0b11), -7.0);
        assert_eq!(c.evaluate(0b00), c.evaluate(0b11));
        assert_eq!(c.evaluate(0b01), -9.0);
    }

    #[test]
    fn impossible_balance_has_negative_optimum() {
        let c = NumberPartitioning::new(vec![1.0, 1.0, 1.0]);
        assert_eq!(c.optimal_value(), -1.0);
    }

    #[test]
    fn random_instance_has_requested_size() {
        let c = NumberPartitioning::random(10, 50, &mut StdRng::seed_from_u64(2));
        assert_eq!(c.num_qubits(), 10);
        assert!(c.numbers().iter().all(|&a| (1.0..=50.0).contains(&a)));
    }

    #[test]
    #[should_panic]
    fn empty_instance_panics() {
        let _ = NumberPartitioning::new(vec![]);
    }
}
