//! Class compression of real diagonals: objective values and mixer spectra.
//!
//! MaxCut, k-SAT, Densest-k-Subgraph and the other objectives of the paper take only
//! `O(m)` distinct values over the `2ⁿ` (or `C(n,k)`) feasible states — the same
//! degeneracy structure `juliqaoa_problems::DegeneracyTable` exploits for the Grover
//! fast path — and a Pauli-X mixer's Hadamard-basis spectrum is just as degenerate
//! (the transverse field has `n + 1` eigenvalues).  [`PhaseClasses`] stores that
//! structure in state order: the list of distinct values plus, for every state, the
//! index of its value class.  A diagonal evolution `e^{-iθ·diag(v)}` then needs one
//! `cis` per *distinct* value (into a small table, [`crate::vector::build_phase_table`])
//! followed by a gather-multiply sweep ([`crate::vector::apply_phases_indexed`]),
//! instead of a sine/cosine pair per amplitude.
//!
//! Compression is only attempted up to [`PhaseClasses::MAX_CLASSES`] distinct values;
//! diagonals that are effectively injective (e.g. continuous random weights) fall
//! back to the dense kernel, which every caller keeps for exactly this case.

use std::collections::HashMap;

/// A real diagonal compressed into `(distinct values, per-state class index)`.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseClasses {
    distinct: Vec<f64>,
    class_idx: Vec<u16>,
}

impl PhaseClasses {
    /// Hard cap on the number of distinct values worth compressing.
    ///
    /// Beyond this the per-round table stops fitting in fast cache and the dense
    /// kernel's streaming trigonometry is no slower, so [`PhaseClasses::build`]
    /// reports the objective as non-compressible instead.
    pub const MAX_CLASSES: usize = 1 << 16;

    /// Compresses a real diagonal (objective values or mixer eigenvalues), preserving
    /// order.
    ///
    /// Returns `None` when the values are not worth compressing: more than
    /// [`Self::MAX_CLASSES`] distinct values, or more distinct values than half the
    /// states (the table stops paying for the extra indirection).  Values are classed
    /// by exact bit pattern, so `-0.0` and `0.0` form distinct classes and every NaN
    /// bit pattern its own class — both still multiply amplitudes by exactly the same
    /// factor the dense kernel would.
    pub fn build(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let cap = Self::MAX_CLASSES.min((values.len() / 2).max(1));
        let mut first_index: HashMap<u64, u16> = HashMap::new();
        let mut distinct: Vec<f64> = Vec::new();
        let mut class_idx: Vec<u16> = Vec::with_capacity(values.len());
        for &v in values {
            // `cap <= MAX_CLASSES = 2^16` keeps every *stored* index within u16: the
            // cast can only wrap on the iteration that pushes class 2^16, and that
            // iteration returns `None` below before the index is ever used.
            let next = distinct.len() as u16;
            let k = *first_index.entry(v.to_bits()).or_insert_with(|| {
                distinct.push(v);
                next
            });
            if distinct.len() > cap {
                return None;
            }
            class_idx.push(k);
        }
        Some(PhaseClasses {
            distinct,
            class_idx,
        })
    }

    /// The distinct objective values, in order of first appearance.
    pub fn distinct_values(&self) -> &[f64] {
        &self.distinct
    }

    /// For every state, the index of its value class in [`Self::distinct_values`].
    pub fn class_indices(&self) -> &[u16] {
        &self.class_idx
    }

    /// Heap bytes the compression holds: one `u16` class index per state plus one
    /// `f64` per distinct value.
    pub fn bytes(&self) -> usize {
        2 * self.class_idx.len() + 8 * self.distinct.len()
    }

    /// Number of distinct value classes.
    pub fn num_classes(&self) -> usize {
        self.distinct.len()
    }

    /// Number of states (the statevector dimension).
    pub fn len(&self) -> usize {
        self.class_idx.len()
    }

    /// Whether the table covers zero states.
    pub fn is_empty(&self) -> bool {
        self.class_idx.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstructs_the_original_values() {
        // MaxCut on the 8-cycle: the cut value of every 8-bit assignment.
        let obj: Vec<f64> = (0u32..256)
            .map(|x| (x ^ (((x >> 1) | (x << 7)) & 0xff)).count_ones() as f64)
            .collect();
        let classes = PhaseClasses::build(&obj).expect("MaxCut is compressible");
        assert_eq!(classes.len(), obj.len());
        for (x, &v) in obj.iter().enumerate() {
            let k = classes.class_indices()[x] as usize;
            assert_eq!(classes.distinct_values()[k], v);
        }
        // An 8-cycle has cut values {0, 2, 4, 6, 8}.
        assert_eq!(classes.num_classes(), 5);
        assert!(classes.len() > 50 * classes.num_classes());
    }

    #[test]
    fn distinct_values_in_first_appearance_order() {
        let classes = PhaseClasses::build(&[3.0, 1.0, 3.0, 2.0, 1.0, 1.0]).unwrap();
        assert_eq!(classes.distinct_values(), &[3.0, 1.0, 2.0]);
        assert_eq!(classes.class_indices(), &[0, 1, 0, 2, 1, 1]);
    }

    #[test]
    fn injective_values_are_rejected() {
        let obj: Vec<f64> = (0..64).map(|i| i as f64 * 0.137).collect();
        assert!(PhaseClasses::build(&obj).is_none());
    }

    #[test]
    fn barely_compressible_values_are_rejected() {
        // 33 distinct values over 64 states: more classes than half the states.
        let obj: Vec<f64> = (0..64)
            .map(|i| (i / 2).min(32) as f64 + (i % 2) as f64 * 0.5)
            .collect();
        let distinct: std::collections::HashSet<u64> = obj.iter().map(|v| v.to_bits()).collect();
        assert!(distinct.len() > 32);
        assert!(PhaseClasses::build(&obj).is_none());
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(PhaseClasses::build(&[]).is_none());
    }

    #[test]
    fn negative_zero_is_its_own_class() {
        let classes = PhaseClasses::build(&[0.0, -0.0, 0.0, -0.0]).unwrap();
        assert_eq!(classes.num_classes(), 2);
    }
}
