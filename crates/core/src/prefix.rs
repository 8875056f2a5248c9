//! Prefix-state reuse for angle sweeps.
//!
//! The angle-finding outer loop evaluates the same circuit at thousands of nearby
//! points, and most of those points share a *prefix*: a grid search that varies the
//! deepest round's angles fastest changes only round `p` between consecutive points,
//! and a central finite difference perturbs one round at a time.  Restarting every
//! evaluation from `|ψ₀⟩` replays all `p` rounds anyway.  A [`PrefixCache`] is the
//! knowledge-compilation answer at the sweep level: checkpoint the statevector after
//! each round once, then let every evaluation that agrees with the cached angles
//! through round `k` resume from checkpoint `k` and re-evolve only the suffix.
//!
//! # Checkpoint invalidation rule
//!
//! A checkpoint is valid for an evaluation exactly when **every** round up to and
//! including its own was applied with bit-identical `(γ, β)` angles by the **same
//! simulator** (same objective vector, same kernel path, same mixers, same initial
//! state).  Concretely:
//!
//! * Each checkpoint stores the `f64` bit patterns of its round's angles; matching is
//!   by `to_bits()` equality, so `-0.0` vs `0.0` or any rounding difference
//!   conservatively re-evolves rather than risking a non-identical state.
//! * The cache is bound to a simulator *identity token* — a unique id every
//!   [`crate::Simulator`] construction (and every kernel-path or initial-state
//!   mutation) refreshes.  Binding the cache to a different token clears it, so a
//!   cache can never replay checkpoints produced by a different circuit.  Clones of a
//!   simulator share the token because they are bit-identical evaluators.
//! * When an evaluation's angles diverge from the stored prefix at round `k`, the
//!   checkpoints for rounds `≥ k` are stale; they are truncated as soon as the cache
//!   decides to record the new trajectory (see the write policy below).
//!
//! Because a resumed evaluation runs the *same kernels in the same order* on a state
//! that is a byte copy of what the cold path would have produced, results are
//! bit-identical to a full re-evolution — the cache changes cost, never answers.
//!
//! # Write policy
//!
//! Storing a checkpoint costs one state-sized `memcpy` per round, which is pure
//! overhead for optimizers (like BFGS line searches) whose consecutive points share
//! no prefix.  The cache therefore records checkpoints only when the access pattern
//! shows reuse: when the current evaluation extends the stored prefix, or when it
//! shares a prefix with the *previous* evaluation that the store cannot yet serve
//! (the start of a sweep).  A pure-miss workload pays only an angle comparison.
//!
//! # Tail checkpoints
//!
//! Sweeping the deepest round still replays all of round `p`, so the cache also keeps
//! one **tail** checkpoint inside the final round, for an evaluation that differs
//! only in the final `β`:
//!
//! * **Pauli-X mixers** (fixed cheap diagonalising transform `H^{⊗n}`): the state
//!   after the final phase separator, already rotated into the mixer eigenbasis — the
//!   replay is one diagonal sweep plus the rotation back, skipping the phase
//!   separator *and* the forward Hadamard transform;
//! * **Grover mixers**: the state straight after the final phase separator, together
//!   with the amplitude sum the fused table-driven round computed (none in class
//!   space, whose replay recomputes the overlap) — the replay is just the rank-1
//!   update.
//!
//! # Bit-identity scope
//!
//! "Bit-identical" is relative to a cold evolution under the same kernel-parallelism
//! context (rayon thread count and outer-parallelism guard state): reduction-bearing
//! kernels (Grover overlaps, expectation values) order their sums by that context.
//! Every outer-loop driver in this workspace pins inner kernels serial on worker
//! threads, so checkpoints there are context-independent in practice.
//!
//! The cache never allocates in the steady state: truncated checkpoint buffers are
//! recycled through a spare pool.

use crate::angles::Angles;
use juliqaoa_linalg::Complex64;
use juliqaoa_telemetry::kernels::KERNELS;

/// Default byte budget for one cache: 256 MiB, enough for `p ≤ 8` full checkpoints at
/// `n = 20` and deliberately larger than any service-sized (`n ≤ 16`) sweep needs.
pub const DEFAULT_PREFIX_BUDGET_BYTES: usize = 256 << 20;

/// Hard cap on stored checkpoints, a backstop against absurd round counts.
const MAX_CHECKPOINTS: usize = 64;

/// The default budget, [`DEFAULT_PREFIX_BUDGET_BYTES`].
pub fn default_prefix_budget() -> usize {
    DEFAULT_PREFIX_BUDGET_BYTES
}

/// A full-round checkpoint: the round's angles (as bit patterns) and the statevector
/// after that round.
#[derive(Clone, Debug)]
struct Checkpoint {
    gamma_bits: u64,
    beta_bits: u64,
    state: Vec<Complex64>,
}

/// What the stored tail state represents (and therefore how a `β`-only replay must
/// complete the final round).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum TailKind {
    /// State after the final phase separator, already rotated into the mixer
    /// eigenbasis (Pauli-X mixers): replay = diagonal phase + rotate back.
    Eigenbasis,
    /// State straight after the final phase separator (Grover mixers): replay = the
    /// rank-1 update.  Carries the amplitude sum the fused table-driven round already
    /// computed (`None` on the dense path, where the replay recomputes it exactly as
    /// the cold kernel would).
    PostPhase {
        /// Amplitude sum from the fused phase sweep, when one was performed.
        fused_sum: Option<Complex64>,
    },
}

/// The final-round sub-checkpoint (see the module docs).
#[derive(Clone, Debug)]
struct TailCheckpoint {
    /// Number of full rounds preceding the final round this tail belongs to.
    prefix_rounds: usize,
    /// Bit pattern of the final round's `γ`.
    gamma_bits: u64,
    kind: TailKind,
    /// The stored state.
    state: Vec<Complex64>,
}

/// Monotonic reuse counters, reported through the service metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Evaluations that resumed from at least one checkpoint.
    pub hits: u64,
    /// Evaluations that ran cold.
    pub misses: u64,
    /// Full rounds skipped across all hits.
    pub rounds_saved: u64,
    /// Hits served by a final-round tail checkpoint (eigenbasis or post-phase).
    pub tail_hits: u64,
}

impl PrefixStats {
    /// Adds another counter set into this one (aggregation across caches).
    pub fn absorb(&mut self, other: PrefixStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.rounds_saved += other.rounds_saved;
        self.tail_hits += other.tail_hits;
    }
}

/// A stack of per-round checkpoint statevectors for incremental re-evolution.
///
/// Owned by one evaluation loop (an optimizer objective) and handed to
/// [`crate::Simulator::evolve_cached`] on every evaluation; see the module docs for
/// the invalidation rule and write policy.  All stored states count against a byte
/// budget fixed at construction — a budget too small for even one checkpoint makes
/// the cache inert (every evaluation runs cold) rather than wrong.
#[derive(Clone, Debug)]
pub struct PrefixCache {
    /// Identity token of the simulator the checkpoints belong to (0 = unbound).
    token: u64,
    /// Statevector dimension the buffers are sized for.
    dim: usize,
    budget_bytes: usize,
    rounds: Vec<Checkpoint>,
    tail: Option<TailCheckpoint>,
    /// Angle bit patterns of the previous evaluation, for the write policy.
    last_angles: Vec<(u64, u64)>,
    /// Recycled checkpoint buffers.
    spare: Vec<Vec<Complex64>>,
    stats: PrefixStats,
}

impl Default for PrefixCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixCache {
    /// A cache with the [`default_prefix_budget`] byte budget.
    pub fn new() -> Self {
        Self::with_budget(default_prefix_budget())
    }

    /// A cache whose stored states may use at most `budget_bytes` bytes in total.
    pub fn with_budget(budget_bytes: usize) -> Self {
        PrefixCache {
            token: 0,
            dim: 0,
            budget_bytes,
            rounds: Vec::new(),
            tail: None,
            last_angles: Vec::new(),
            spare: Vec::new(),
            stats: PrefixStats::default(),
        }
    }

    /// Number of full-round checkpoints currently stored.
    pub fn checkpoints(&self) -> usize {
        self.rounds.len()
    }

    /// Approximate bytes held in checkpoint states (including the tail and spares).
    pub fn bytes(&self) -> usize {
        let vecs = self.rounds.len() + self.spare.len() + usize::from(self.tail.is_some());
        vecs * self.dim * std::mem::size_of::<Complex64>()
    }

    /// The reuse counters.
    pub fn stats(&self) -> PrefixStats {
        self.stats
    }

    /// Returns the counters and resets them to zero (used when a cache cycles
    /// through a shared home between jobs, so totals are never double-counted).
    pub fn take_stats(&mut self) -> PrefixStats {
        std::mem::take(&mut self.stats)
    }

    /// Drops every checkpoint (counters are kept).
    pub fn clear(&mut self) {
        while let Some(cp) = self.rounds.pop() {
            self.spare.push(cp.state);
        }
        if let Some(tail) = self.tail.take() {
            self.spare.push(tail.state);
        }
        self.last_angles.clear();
    }

    /// Maximum number of state-sized buffers the budget allows.
    fn max_states(&self) -> usize {
        let bytes_per = self.dim * std::mem::size_of::<Complex64>();
        if bytes_per == 0 {
            return 0;
        }
        (self.budget_bytes / bytes_per).min(MAX_CHECKPOINTS)
    }

    /// Binds the cache to a simulator identity, clearing it when the identity (or the
    /// dimension) changed since the last evaluation.
    pub(crate) fn bind(&mut self, token: u64, dim: usize) {
        if self.token != token || self.dim != dim {
            self.token = token;
            // Buffers of a different dimension cannot be recycled.
            if self.dim != dim {
                self.rounds.clear();
                self.tail = None;
                self.spare.clear();
                self.last_angles.clear();
                self.dim = dim;
            } else {
                self.clear();
            }
        }
    }

    /// Longest stored checkpoint prefix matching `angles` bit-for-bit (capped at `p`).
    pub(crate) fn matching_rounds(&self, angles: &Angles) -> usize {
        let p = angles.p();
        let mut k = 0;
        while k < self.rounds.len() && k < p {
            let (gamma, beta) = angles.round(k);
            let cp = &self.rounds[k];
            if cp.gamma_bits != gamma.to_bits() || cp.beta_bits != beta.to_bits() {
                break;
            }
            k += 1;
        }
        k
    }

    /// Longest prefix shared with the *previous* evaluation's angles (the write-policy
    /// signal; returns 0 before the first evaluation).
    fn shared_with_last(&self, angles: &Angles) -> usize {
        let p = angles.p();
        let mut k = 0;
        while k < self.last_angles.len() && k < p {
            let (gamma, beta) = angles.round(k);
            if self.last_angles[k] != (gamma.to_bits(), beta.to_bits()) {
                break;
            }
            k += 1;
        }
        k
    }

    /// Decides whether this evaluation should record checkpoints, and remembers its
    /// angles as the new "previous evaluation".  `k` is the usable stored prefix.
    /// Callers that decide to write must [`Self::truncate_to`]`(k)` first, so stale
    /// deeper checkpoints never coexist with the new trajectory.
    pub(crate) fn plan_writes(&mut self, angles: &Angles, k: usize) -> bool {
        let write =
            self.max_states() > 0 && (k == self.rounds.len() || self.shared_with_last(angles) > k);
        self.note_eval(angles);
        write
    }

    /// Remembers `angles` as the previous evaluation (for the write policy) without
    /// any other side effect.
    pub(crate) fn note_eval(&mut self, angles: &Angles) {
        self.last_angles.clear();
        for round in 0..angles.p() {
            let (gamma, beta) = angles.round(round);
            self.last_angles.push((gamma.to_bits(), beta.to_bits()));
        }
    }

    /// Drops checkpoints beyond the first `k` rounds (and any tail), recycling buffers.
    pub(crate) fn truncate_to(&mut self, k: usize) {
        while self.rounds.len() > k {
            let cp = self.rounds.pop().expect("len checked");
            self.spare.push(cp.state);
        }
        if let Some(tail) = self.tail.take() {
            self.spare.push(tail.state);
        }
    }

    /// The stored state after `rounds` rounds (`rounds ≥ 1`).
    pub(crate) fn state_after(&self, rounds: usize) -> &[Complex64] {
        &self.rounds[rounds - 1].state
    }

    fn buffer_from_spare(&mut self, src: &[Complex64]) -> Vec<Complex64> {
        match self.spare.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.extend_from_slice(src);
                buf
            }
            None => src.to_vec(),
        }
    }

    /// Records the state after one more round, if the budget allows.  Checkpoints must
    /// be pushed in round order on top of the existing stack.
    pub(crate) fn push_checkpoint(&mut self, gamma: f64, beta: f64, state: &[Complex64]) {
        debug_assert_eq!(state.len(), self.dim);
        // Reserve one buffer slot for the tail checkpoint.
        if self.rounds.len() + 1 >= self.max_states() {
            return;
        }
        let buf = self.buffer_from_spare(state);
        self.rounds.push(Checkpoint {
            gamma_bits: gamma.to_bits(),
            beta_bits: beta.to_bits(),
            state: buf,
        });
    }

    /// The stored tail (kind and state) serving a final round at depth
    /// `prefix_rounds` with this `γ`, if any.
    pub(crate) fn matching_tail(
        &self,
        prefix_rounds: usize,
        gamma: f64,
    ) -> Option<(TailKind, &[Complex64])> {
        self.tail
            .as_ref()
            .filter(|t| t.prefix_rounds == prefix_rounds && t.gamma_bits == gamma.to_bits())
            .map(|t| (t.kind, t.state.as_slice()))
    }

    /// Records the final round's sub-checkpoint, if the budget allows.
    pub(crate) fn store_tail(
        &mut self,
        prefix_rounds: usize,
        gamma: f64,
        kind: TailKind,
        state: &[Complex64],
    ) {
        debug_assert_eq!(state.len(), self.dim);
        if self.max_states() == 0 {
            return;
        }
        match self.tail.as_mut() {
            Some(tail) => {
                tail.prefix_rounds = prefix_rounds;
                tail.gamma_bits = gamma.to_bits();
                tail.kind = kind;
                tail.state.clear();
                tail.state.extend_from_slice(state);
            }
            None => {
                let buf = self.buffer_from_spare(state);
                self.tail = Some(TailCheckpoint {
                    prefix_rounds,
                    gamma_bits: gamma.to_bits(),
                    kind,
                    state: buf,
                });
            }
        }
    }

    pub(crate) fn record_hit(&mut self, rounds_saved: usize, tail: bool) {
        self.stats.hits += 1;
        self.stats.rounds_saved += rounds_saved as u64;
        self.stats.tail_hits += u64::from(tail);
        KERNELS.prefix_checkpoint_hits.inc();
        KERNELS.prefix_rounds_saved.add(rounds_saved as u64);
    }

    pub(crate) fn record_miss(&mut self) {
        self.stats.misses += 1;
        KERNELS.prefix_cold_starts.inc();
    }

    /// A comparable warmth score: how much replay work this cache's checkpoints can
    /// save the next evaluation.  Full-round checkpoints dominate (each one skips a
    /// whole round); a tail sub-checkpoint breaks ties between equally deep caches.
    pub fn warmth(&self) -> usize {
        2 * self.rounds.len() + usize::from(self.tail.is_some())
    }

    /// Deepest-wins merge: keeps whichever of the two caches serves deeper prefixes
    /// (ties favour `self`), folding the other's reuse counters into the survivor so
    /// no hits are lost when concurrently warmed caches race back to a shared slot.
    ///
    /// The two caches' checkpoints are never spliced together — they may describe
    /// different angle trajectories, and a mixed stack could violate the invariant
    /// that rounds `0..k` were applied with one consistent angle prefix.  Keeping the
    /// deeper cache whole is always safe and loses at most the shallower warm-up.
    pub fn merge_deeper(self, other: PrefixCache) -> PrefixCache {
        let (mut keep, discard) = if other.warmth() > self.warmth() {
            (other, self)
        } else {
            (self, other)
        };
        keep.stats.absorb(discard.stats);
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(dim: usize, fill: f64) -> Vec<Complex64> {
        vec![Complex64::new(fill, -fill); dim]
    }

    #[test]
    fn binding_a_different_token_clears_checkpoints() {
        let mut cache = PrefixCache::with_budget(1 << 20);
        cache.bind(1, 8);
        cache.plan_writes(&Angles::new(vec![0.1], vec![0.2]), 0);
        cache.push_checkpoint(0.2, 0.1, &state(8, 1.0));
        assert_eq!(cache.checkpoints(), 1);
        cache.bind(2, 8);
        assert_eq!(cache.checkpoints(), 0);
        // Re-binding the same token is a no-op.
        cache.push_checkpoint(0.2, 0.1, &state(8, 2.0));
        cache.bind(2, 8);
        assert_eq!(cache.checkpoints(), 1);
    }

    #[test]
    fn matching_stops_at_the_first_differing_round() {
        let mut cache = PrefixCache::with_budget(1 << 20);
        cache.bind(1, 4);
        cache.push_checkpoint(0.5, 0.25, &state(4, 1.0));
        cache.push_checkpoint(0.75, 0.125, &state(4, 2.0));
        let same = Angles::new(vec![0.25, 0.125, 0.9], vec![0.5, 0.75, 0.9]);
        assert_eq!(cache.matching_rounds(&same), 2);
        let diverges = Angles::new(vec![0.25, 0.99], vec![0.5, 0.75]);
        assert_eq!(cache.matching_rounds(&diverges), 1);
        let shallow = Angles::new(vec![0.25], vec![0.5]);
        assert_eq!(cache.matching_rounds(&shallow), 1);
        let cold = Angles::new(vec![0.0, 0.125], vec![0.5, 0.75]);
        assert_eq!(cache.matching_rounds(&cold), 0);
    }

    #[test]
    fn zero_budget_cache_is_inert() {
        let mut cache = PrefixCache::with_budget(0);
        cache.bind(1, 8);
        let angles = Angles::new(vec![0.1, 0.2], vec![0.3, 0.4]);
        assert!(!cache.plan_writes(&angles, 0));
        cache.push_checkpoint(0.3, 0.1, &state(8, 1.0));
        assert_eq!(cache.checkpoints(), 0);
        cache.store_tail(1, 0.4, TailKind::Eigenbasis, &state(8, 1.0));
        assert!(cache.matching_tail(1, 0.4).is_none());
    }

    #[test]
    fn write_policy_waits_for_a_repeated_prefix() {
        let mut cache = PrefixCache::with_budget(1 << 20);
        cache.bind(1, 8);
        let a = Angles::new(vec![0.1, 0.2], vec![0.3, 0.4]);
        let b = Angles::new(vec![0.1, 0.9], vec![0.3, 0.8]);
        let c = Angles::new(vec![0.5, 0.6], vec![0.7, 0.8]);
        // First evaluation: empty stack counts as "extending", so it may write.
        assert!(cache.plan_writes(&a, 0));
        cache.push_checkpoint(0.3, 0.1, &state(8, 1.0));
        // A full miss with no shared prefix against the last evaluation: no writes,
        // and the stored checkpoint survives.
        assert!(!cache.plan_writes(&c, 0));
        assert_eq!(cache.checkpoints(), 1);
        // Sharing round 0 with the previous evaluation beyond what the (stale) store
        // can serve triggers a rewrite... here the store already serves round 0.
        assert!(cache.plan_writes(&a, 1));
        // A sweep step sharing the stored round-0 prefix keeps extending.
        assert!(cache.plan_writes(&b, 1));
    }

    #[test]
    fn truncation_recycles_buffers() {
        let mut cache = PrefixCache::with_budget(1 << 20);
        cache.bind(1, 16);
        cache.push_checkpoint(0.1, 0.2, &state(16, 1.0));
        cache.push_checkpoint(0.3, 0.4, &state(16, 2.0));
        let bytes_before = cache.bytes();
        cache.truncate_to(0);
        assert_eq!(cache.checkpoints(), 0);
        // Buffers moved to the spare pool, not freed.
        assert_eq!(cache.bytes(), bytes_before);
        cache.push_checkpoint(0.5, 0.6, &state(16, 3.0));
        assert_eq!(cache.bytes(), bytes_before);
    }

    #[test]
    fn warmth_orders_caches_by_checkpoint_depth() {
        let mut shallow = PrefixCache::with_budget(1 << 20);
        shallow.bind(1, 8);
        shallow.push_checkpoint(0.1, 0.2, &state(8, 1.0));
        let mut deep = PrefixCache::with_budget(1 << 20);
        deep.bind(1, 8);
        deep.push_checkpoint(0.1, 0.2, &state(8, 1.0));
        deep.push_checkpoint(0.3, 0.4, &state(8, 2.0));
        assert!(deep.warmth() > shallow.warmth());
        // A tail breaks ties between equally deep caches but never outranks a full
        // round.
        let mut tailed = PrefixCache::with_budget(1 << 20);
        tailed.bind(1, 8);
        tailed.push_checkpoint(0.1, 0.2, &state(8, 1.0));
        tailed.store_tail(1, 0.5, TailKind::Eigenbasis, &state(8, 3.0));
        assert!(tailed.warmth() > shallow.warmth());
        assert!(deep.warmth() > tailed.warmth());
        assert_eq!(PrefixCache::with_budget(1 << 20).warmth(), 0);
    }

    #[test]
    fn merge_deeper_keeps_the_warmer_cache_and_both_counter_sets() {
        let mut a = PrefixCache::with_budget(1 << 20);
        a.bind(1, 8);
        a.push_checkpoint(0.1, 0.2, &state(8, 1.0));
        a.record_hit(1, false);
        let mut b = PrefixCache::with_budget(1 << 20);
        b.bind(1, 8);
        b.push_checkpoint(0.5, 0.6, &state(8, 4.0));
        b.push_checkpoint(0.7, 0.8, &state(8, 5.0));
        b.record_miss();
        // b is deeper: it survives, carrying a's counters.
        let merged = a.merge_deeper(b);
        assert_eq!(merged.checkpoints(), 2);
        assert_eq!(
            merged.matching_rounds(&Angles::new(vec![0.6], vec![0.5])),
            1
        );
        assert_eq!(merged.stats().hits, 1);
        assert_eq!(merged.stats().misses, 1);
        // Ties keep self (no churn when both are equally warm).
        let mut c = PrefixCache::with_budget(1 << 20);
        c.bind(1, 8);
        c.push_checkpoint(0.9, 0.1, &state(8, 6.0));
        let mut d = PrefixCache::with_budget(1 << 20);
        d.bind(1, 8);
        d.push_checkpoint(0.2, 0.3, &state(8, 7.0));
        let tied = c.merge_deeper(d);
        assert_eq!(tied.matching_rounds(&Angles::new(vec![0.1], vec![0.9])), 1);
    }

    #[test]
    fn stats_take_resets() {
        let mut cache = PrefixCache::new();
        cache.record_hit(3, true);
        cache.record_miss();
        let s = cache.take_stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.rounds_saved, 3);
        assert_eq!(s.tail_hits, 1);
        assert_eq!(cache.stats(), PrefixStats::default());
    }
}
