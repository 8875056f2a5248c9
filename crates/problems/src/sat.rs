//! k-SAT / Max-k-SAT.
//!
//! A clause is a disjunction of `k` literals; the Max-k-SAT objective counts satisfied
//! clauses.  The paper's Figure 2 uses a random 3-SAT instance with clause density 6
//! (i.e. `6·n` clauses) paired with the Grover mixer.

use crate::cost::CostFunction;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A single literal: variable index plus polarity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Literal {
    /// Variable (qubit) index.
    pub var: usize,
    /// `true` if the literal is negated (satisfied when the variable is 0).
    pub negated: bool,
}

impl Literal {
    /// A positive literal on `var`.
    pub fn pos(var: usize) -> Self {
        Literal {
            var,
            negated: false,
        }
    }

    /// A negated literal on `var`.
    pub fn neg(var: usize) -> Self {
        Literal { var, negated: true }
    }

    /// Whether the literal is satisfied by the assignment.
    #[inline]
    pub fn satisfied(&self, state: u64) -> bool {
        let bit = (state >> self.var) & 1 == 1;
        bit != self.negated
    }
}

/// A Max-k-SAT instance: maximize the number of satisfied clauses.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KSat {
    n: usize,
    clauses: Vec<Vec<Literal>>,
}

impl KSat {
    /// Builds an instance from explicit clauses.
    ///
    /// # Panics
    /// Panics if any literal references a variable `≥ n` or a clause is empty.
    pub fn new(n: usize, clauses: Vec<Vec<Literal>>) -> Self {
        let sat = KSat { n, clauses };
        if let Err(e) = sat.validate() {
            panic!("{e}");
        }
        sat
    }

    /// Checks the invariants [`KSat::new`] enforces, for an instance that did not
    /// come through it (a deserialised one): no clause is empty and no literal
    /// references a variable `≥ n`.  Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (i, clause) in self.clauses.iter().enumerate() {
            if clause.is_empty() {
                return Err(format!("clause {i} is empty"));
            }
            if let Some(lit) = clause.iter().find(|lit| lit.var >= self.n) {
                return Err(format!(
                    "clause {i} references variable {} out of range for n={}",
                    lit.var, self.n
                ));
            }
        }
        Ok(())
    }

    /// Generates a random k-SAT instance with `num_clauses` clauses.  Each clause picks
    /// `k` distinct variables uniformly and negates each independently with
    /// probability ½.
    pub fn random<R: Rng + ?Sized>(n: usize, k: usize, num_clauses: usize, rng: &mut R) -> Self {
        assert!(k <= n, "clause width k={k} exceeds variable count n={n}");
        let vars: Vec<usize> = (0..n).collect();
        let clauses = (0..num_clauses)
            .map(|_| {
                let chosen: Vec<usize> = vars.choose_multiple(rng, k).copied().collect();
                chosen
                    .into_iter()
                    .map(|var| Literal {
                        var,
                        negated: rng.gen::<bool>(),
                    })
                    .collect()
            })
            .collect();
        KSat { n, clauses }
    }

    /// Generates a random k-SAT instance at a given clause density (`⌊density·n⌋`
    /// clauses), the parameterisation used in the paper's Figure 2.
    pub fn random_with_density<R: Rng + ?Sized>(
        n: usize,
        k: usize,
        density: f64,
        rng: &mut R,
    ) -> Self {
        let num_clauses = (density * n as f64).floor() as usize;
        Self::random(n, k, num_clauses, rng)
    }

    /// The clauses of the instance.
    pub fn clauses(&self) -> &[Vec<Literal>] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of clauses satisfied by the assignment (the objective value).
    pub fn satisfied_count(&self, state: u64) -> usize {
        self.clauses
            .iter()
            .filter(|clause| clause.iter().any(|lit| lit.satisfied(state)))
            .count()
    }

    /// Brute-force maximum number of simultaneously satisfiable clauses.
    pub fn optimal_value(&self) -> f64 {
        assert!(self.n <= 30, "brute-force optimum limited to n ≤ 30");
        (0..(1u64 << self.n))
            .map(|x| self.satisfied_count(x))
            .max()
            .unwrap_or(0) as f64
    }
}

impl CostFunction for KSat {
    fn num_qubits(&self) -> usize {
        self.n
    }

    fn evaluate(&self, state: u64) -> f64 {
        self.satisfied_count(state) as f64
    }

    fn name(&self) -> &str {
        "ksat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn literal_satisfaction() {
        assert!(Literal::pos(0).satisfied(0b1));
        assert!(!Literal::pos(0).satisfied(0b0));
        assert!(Literal::neg(0).satisfied(0b0));
        assert!(!Literal::neg(0).satisfied(0b1));
        assert!(Literal::pos(3).satisfied(0b1000));
    }

    #[test]
    fn single_clause_counting() {
        // (x0 ∨ ¬x1)
        let sat = KSat::new(2, vec![vec![Literal::pos(0), Literal::neg(1)]]);
        assert_eq!(sat.evaluate(0b00), 1.0);
        assert_eq!(sat.evaluate(0b01), 1.0);
        assert_eq!(sat.evaluate(0b10), 0.0);
        assert_eq!(sat.evaluate(0b11), 1.0);
    }

    #[test]
    fn contradictory_clauses_cannot_all_be_satisfied() {
        // (x0) ∧ (¬x0): at most one clause satisfiable.
        let sat = KSat::new(1, vec![vec![Literal::pos(0)], vec![Literal::neg(0)]]);
        assert_eq!(sat.optimal_value(), 1.0);
    }

    #[test]
    fn random_instance_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let sat = KSat::random(10, 3, 25, &mut rng);
        assert_eq!(sat.num_clauses(), 25);
        assert_eq!(sat.num_qubits(), 10);
        for clause in sat.clauses() {
            assert_eq!(clause.len(), 3);
            // Variables within a clause are distinct.
            let mut vars: Vec<usize> = clause.iter().map(|l| l.var).collect();
            vars.sort_unstable();
            vars.dedup();
            assert_eq!(vars.len(), 3);
        }
    }

    #[test]
    fn density_parameterisation() {
        let mut rng = StdRng::seed_from_u64(9);
        let sat = KSat::random_with_density(12, 3, 6.0, &mut rng);
        assert_eq!(sat.num_clauses(), 72);
    }

    #[test]
    fn objective_bounded_by_clause_count() {
        let mut rng = StdRng::seed_from_u64(17);
        let sat = KSat::random(8, 3, 40, &mut rng);
        for x in 0..(1u64 << 8) {
            let v = sat.evaluate(x);
            assert!((0.0..=40.0).contains(&v));
        }
        assert!(sat.optimal_value() <= 40.0);
    }

    #[test]
    fn reproducible_from_seed() {
        let a = KSat::random(8, 3, 10, &mut StdRng::seed_from_u64(3));
        let b = KSat::random(8, 3, 10, &mut StdRng::seed_from_u64(3));
        assert_eq!(a.clauses(), b.clauses());
    }

    #[test]
    #[should_panic]
    fn out_of_range_literal_panics() {
        let _ = KSat::new(2, vec![vec![Literal::pos(2)]]);
    }

    #[test]
    fn validate_reports_the_first_violation() {
        assert_eq!(
            KSat::random(6, 3, 20, &mut StdRng::seed_from_u64(1)).validate(),
            Ok(())
        );
        let sat = |clauses| KSat { n: 4, clauses };
        let err = sat(vec![vec![Literal::pos(1)], vec![]])
            .validate()
            .unwrap_err();
        assert_eq!(err, "clause 1 is empty");
        let err = sat(vec![vec![Literal::neg(4)], vec![]])
            .validate()
            .unwrap_err();
        assert_eq!(err, "clause 0 references variable 4 out of range for n=4");
    }
}
