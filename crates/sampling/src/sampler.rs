//! Seeded shot sampling from final statevectors.
//!
//! A [`StateSampler`] owns an [`AliasTable`] over `|ψ_x|²` and a base seed.  Shots are
//! drawn in fixed-size shards of [`SHOT_SHARD_SIZE`]; shard `j`'s RNG stream is seeded
//! with `derive_stream_seed(base_seed, SHARD_DOMAIN, j)`, and shard histograms merge
//! by exact integer addition — associative and commutative, so *any* grouping of
//! shards across workers yields the same totals.  The partition into shards depends
//! only on the shot count — never on the thread count or schedule — so a batch's
//! [`SampleCounts`] is **bit-identical** whether it was drawn serially or fanned out
//! across any number of rayon workers (the same contract the job service guarantees
//! for exact results).
//!
//! Shard fan-out follows the workspace's parallelism conventions: batches take the
//! rayon path only above `juliqaoa_linalg::par_threshold()` shots and never inside an
//! outer parallel region.

use crate::alias::AliasTable;
use juliqaoa_combinatorics::{derive_stream_seed, DickeSubspace};
use juliqaoa_linalg::parallel_kernels_enabled;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Shots per RNG shard.  Fixed — the shard boundaries (and therefore every drawn
/// stream) must be a pure function of the shot count, not of the thread count.
pub const SHOT_SHARD_SIZE: u64 = 1 << 14;

/// Domain tag separating per-shard sampling streams from other derived streams (see
/// `juliqaoa_combinatorics::seeding`).
const SHARD_DOMAIN: u64 = 0xD1CE;

/// A histogram of measured outcomes: dense state indices when drawn by a
/// [`StateSampler`], value classes when drawn by [`crate::multinomial()`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleCounts {
    counts: Vec<u64>,
    shots: u64,
}

impl SampleCounts {
    /// A histogram from per-outcome counts that sum to `shots`.
    pub(crate) fn from_counts(counts: Vec<u64>, shots: u64) -> Self {
        debug_assert_eq!(counts.iter().sum::<u64>(), shots);
        SampleCounts { counts, shots }
    }

    /// Number of shots the histogram aggregates.
    #[inline]
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Number of possible outcomes (the feasible-set dimension, or the number of
    /// value classes).
    #[inline]
    pub fn dim(&self) -> usize {
        self.counts.len()
    }

    /// How often outcome `i` was measured.
    #[inline]
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// The raw histogram, indexed by outcome.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }

    /// `(outcome, count)` pairs for outcomes that were measured at least once, in
    /// index order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, c)| c > 0)
    }

    /// Number of distinct outcomes measured.
    pub fn distinct_outcomes(&self) -> usize {
        self.iter_nonzero().count()
    }
}

/// An O(1)-per-shot sampler over a final state's measurement distribution.
#[derive(Clone, Debug)]
pub struct StateSampler {
    alias: AliasTable,
    seed: u64,
}

impl StateSampler {
    /// Builds the sampler from measurement probabilities (need not be normalised —
    /// statevectors carry O(1e-12) norm drift) in dense-index order.  O(dim).
    pub fn from_probabilities(probs: impl ExactSizeIterator<Item = f64>, seed: u64) -> Self {
        StateSampler {
            alias: AliasTable::new(probs),
            seed,
        }
    }

    /// Feasible-set dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.alias.len()
    }

    /// The base seed every shard stream is derived from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws `shots` measurements into a histogram.
    ///
    /// Deterministic given `(probabilities, seed, shots)` — see the module docs for
    /// why the result is independent of thread count.
    pub fn sample_counts(&self, shots: u64) -> SampleCounts {
        let shards = shots.div_ceil(SHOT_SHARD_SIZE).max(1);
        let parallel = shards >= 2 && parallel_kernels_enabled(shots as usize);
        self.sample_counts_impl(shots, parallel)
    }

    /// [`StateSampler::sample_counts`] with the shard fan-out forced on or off;
    /// results are bit-identical either way.  Exposed for the determinism tests and
    /// the thread-scaling benchmark.
    pub fn sample_counts_with_parallelism(&self, shots: u64, parallel: bool) -> SampleCounts {
        self.sample_counts_impl(shots, parallel)
    }

    fn sample_counts_impl(&self, shots: u64, parallel: bool) -> SampleCounts {
        assert!(shots > 0, "cannot draw zero shots");
        juliqaoa_telemetry::kernels::KERNELS.shots_drawn.add(shots);
        let shards = shots.div_ceil(SHOT_SHARD_SIZE);
        let threads = rayon::current_num_threads() as u64;
        if parallel && shards >= 2 && threads > 1 {
            // One accumulator per contiguous piece of the shard range (not per
            // shard — a dim-length histogram per shard would swamp the O(1) draws
            // with allocation and merge traffic at large dims).  The piece
            // partition may depend on the thread count, but every shard's stream
            // depends only on its index and histogram merging is exact integer
            // addition — associative and commutative — so any grouping produces
            // the same counts bit-for-bit.
            let pieces = threads.min(shards) as usize;
            let piece_counts: Vec<Vec<u64>> = (0..pieces)
                .into_par_iter()
                .map(|piece| {
                    let start = piece as u64 * shards / pieces as u64;
                    let end = (piece as u64 + 1) * shards / pieces as u64;
                    let mut acc = vec![0u64; self.dim()];
                    for j in start..end {
                        self.draw_shard_into(j, shots, &mut acc);
                    }
                    acc
                })
                .collect();
            let mut counts = vec![0u64; self.dim()];
            for piece in piece_counts {
                for (total, c) in counts.iter_mut().zip(piece) {
                    *total += c;
                }
            }
            SampleCounts { counts, shots }
        } else {
            let mut counts = vec![0u64; self.dim()];
            for j in 0..shards {
                self.draw_shard_into(j, shots, &mut counts);
            }
            SampleCounts { counts, shots }
        }
    }

    /// Draws shard `j` of a `shots`-shot batch into `acc` (the shard's RNG stream
    /// depends only on `j`).
    fn draw_shard_into(&self, j: u64, shots: u64, acc: &mut [u64]) {
        let start = j * SHOT_SHARD_SIZE;
        let len = SHOT_SHARD_SIZE.min(shots - start);
        let mut rng = StdRng::seed_from_u64(derive_stream_seed(self.seed, SHARD_DOMAIN, j));
        for _ in 0..len {
            acc[self.alias.sample(&mut rng)] += 1;
        }
    }
}

/// Maps dense feasible-set indices back to computational basis states.
///
/// Unconstrained problems index the full `2ⁿ` space directly; Hamming-weight
/// constrained problems index the Dicke subspace through its combinatorial unranking.
#[derive(Clone, Debug)]
pub enum IndexMap {
    /// Dense index `i` *is* the basis state, over `n` qubits.
    Full {
        /// Number of qubits.
        n: usize,
    },
    /// Dense indices enumerate the weight-k subspace.
    Dicke(DickeSubspace),
}

impl IndexMap {
    /// The identity map over all `2ⁿ` basis states.
    pub fn full(n: usize) -> Self {
        IndexMap::Full { n }
    }

    /// The weight-`k` Dicke subspace map.
    pub fn dicke(n: usize, k: usize) -> Self {
        IndexMap::Dicke(DickeSubspace::new(n, k))
    }

    /// Number of qubits.
    pub fn n(&self) -> usize {
        match self {
            IndexMap::Full { n } => *n,
            IndexMap::Dicke(s) => s.n(),
        }
    }

    /// Feasible-set dimension.
    pub fn dim(&self) -> usize {
        match self {
            IndexMap::Full { n } => 1usize << n,
            IndexMap::Dicke(s) => s.dim(),
        }
    }

    /// The basis state at dense index `i`.
    pub fn bitstring(&self, i: usize) -> u64 {
        match self {
            IndexMap::Full { .. } => i as u64,
            IndexMap::Dicke(s) => s.state_at(i),
        }
    }

    /// The basis state at dense index `i` as an `n`-character binary string, most
    /// significant qubit first (the conventional ket label).
    pub fn bitstring_label(&self, i: usize) -> String {
        let state = self.bitstring(i);
        let n = self.n();
        (0..n)
            .rev()
            .map(|b| if (state >> b) & 1 == 1 { '1' } else { '0' })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_sampler(dim: usize, seed: u64) -> StateSampler {
        let weights: Vec<f64> = (0..dim).map(|i| (i + 1) as f64).collect();
        StateSampler::from_probabilities(weights.into_iter(), seed)
    }

    #[test]
    fn counts_sum_to_shots() {
        let s = skewed_sampler(9, 3);
        for shots in [
            1u64,
            100,
            SHOT_SHARD_SIZE,
            SHOT_SHARD_SIZE + 1,
            3 * SHOT_SHARD_SIZE,
        ] {
            let c = s.sample_counts_with_parallelism(shots, false);
            assert_eq!(c.shots(), shots);
            assert_eq!(c.as_slice().iter().sum::<u64>(), shots);
        }
    }

    #[test]
    fn serial_and_parallel_batches_are_bit_identical() {
        let s = skewed_sampler(17, 41);
        for shots in [
            SHOT_SHARD_SIZE + 7,
            2 * SHOT_SHARD_SIZE,
            5 * SHOT_SHARD_SIZE + 1234,
        ] {
            let serial = s.sample_counts_with_parallelism(shots, false);
            let parallel = s.sample_counts_with_parallelism(shots, true);
            assert_eq!(serial, parallel, "shots={shots}");
        }
    }

    #[test]
    fn same_seed_repeats_different_seed_differs() {
        let a = skewed_sampler(8, 7).sample_counts(10_000);
        let b = skewed_sampler(8, 7).sample_counts(10_000);
        let c = skewed_sampler(8, 8).sample_counts(10_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn chi_square_against_the_target_distribution() {
        // dim 8, p_i ∝ i+1; 200k shots.  χ² with 7 degrees of freedom has mean 7 and
        // σ ≈ 3.7; 50 is a ~1e-8 tail, and the draw is deterministic anyway.
        let dim = 8;
        let shots = 200_000u64;
        let total: f64 = (1..=dim).map(|i| i as f64).sum();
        let s = skewed_sampler(dim, 123);
        let counts = s.sample_counts(shots);
        let chi2: f64 = (0..dim)
            .map(|i| {
                let expected = shots as f64 * (i + 1) as f64 / total;
                let observed = counts.count(i) as f64;
                (observed - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 < 50.0, "χ² = {chi2}");
    }

    #[test]
    fn nonzero_iteration_and_frequencies() {
        let s = StateSampler::from_probabilities([0.0, 1.0, 0.0, 3.0].into_iter(), 11);
        let c = s.sample_counts(10_000);
        let nz: Vec<usize> = c.iter_nonzero().map(|(i, _)| i).collect();
        assert_eq!(nz, vec![1, 3]);
        assert_eq!(c.distinct_outcomes(), 2);
        assert_eq!(c.count(1) + c.count(3), c.shots());
        assert!(c.count(3) > c.count(1));
    }

    #[test]
    fn index_maps_recover_bitstrings() {
        let full = IndexMap::full(4);
        assert_eq!(full.dim(), 16);
        assert_eq!(full.bitstring(11), 11);
        assert_eq!(full.bitstring_label(11), "1011");
        let dicke = IndexMap::dicke(4, 2);
        assert_eq!(dicke.dim(), 6);
        for i in 0..dicke.dim() {
            assert_eq!(dicke.bitstring(i).count_ones(), 2);
            assert_eq!(dicke.bitstring_label(i).matches('1').count(), 2);
        }
        // Dense order is increasing numeric order, so index 0 is the smallest word.
        assert_eq!(dicke.bitstring(0), 0b0011);
        assert_eq!(dicke.bitstring_label(0), "0011");
    }

    #[test]
    #[should_panic]
    fn zero_shots_panic() {
        let _ = skewed_sampler(4, 0).sample_counts(0);
    }
}
