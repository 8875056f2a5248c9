//! Phase-class compression of objective-value vectors.
//!
//! MaxCut, k-SAT, Densest-k-Subgraph and the other objectives of the paper take only
//! `O(m)` distinct values over the `2ⁿ` (or `C(n,k)`) feasible states — the same
//! degeneracy structure [`crate::DegeneracyTable`] exploits for the Grover fast path.
//! [`PhaseClasses`] stores that structure in simulation order: the list of distinct
//! values plus, for every state, the index of its value class.  The phase separator
//! `e^{-iγ H_C}` then needs one `cis` per *distinct* value per round (into a small
//! table) followed by a gather-multiply sweep, instead of a sine/cosine pair per
//! amplitude — see `juliqaoa_linalg::vector::apply_phases_indexed`.
//!
//! Compression is only attempted up to [`PhaseClasses::MAX_CLASSES`] distinct values;
//! objectives that are effectively injective (e.g. continuous random weights) fall
//! back to the dense kernel, which the simulator keeps for exactly this case.

use std::collections::HashMap;

/// Objective values compressed into `(distinct values, per-state class index)`.
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

    /// Compresses an objective-value vector, preserving order.
    ///
    /// Returns `None` when the values are not worth compressing: more than
    /// [`Self::MAX_CLASSES`] distinct values, or more distinct values than half the
    /// states (the table stops paying for the extra indirection).  Values are classed
    /// by exact bit pattern, so `-0.0` and `0.0` form distinct classes and every NaN
    /// bit pattern its own class — both still multiply amplitudes by exactly the same
    /// factor the dense kernel would.
    pub fn build(obj_vals: &[f64]) -> Option<Self> {
        if obj_vals.is_empty() {
            return None;
        }
        let cap = Self::MAX_CLASSES.min((obj_vals.len() / 2).max(1));
        let mut first_index: HashMap<u64, u16> = HashMap::new();
        let mut distinct: Vec<f64> = Vec::new();
        let mut class_idx: Vec<u16> = Vec::with_capacity(obj_vals.len());
        for &v in obj_vals {
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

/// Builds [`PhaseClasses`] for a pre-computed objective vector (convenience wrapper
/// mirroring [`crate::precompute_full`] / [`crate::precompute_dicke`], whose outputs
/// are exactly what this consumes).
pub fn phase_classes(obj_vals: &[f64]) -> Option<PhaseClasses> {
    PhaseClasses::build(obj_vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut::MaxCut;
    use crate::precompute::precompute_full;
    use juliqaoa_graphs::cycle_graph;

    #[test]
    fn reconstructs_the_original_values() {
        let obj = precompute_full(&MaxCut::new(cycle_graph(8)));
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
