//! Pre-allocated simulation workspaces.
//!
//! §2.2: "we pre-allocate and re-use memory, allowing for functionally zero overhead."
//! A [`Workspace`] owns every buffer a simulation (and its gradient) needs; the
//! angle-finding outer loop creates one workspace and hands it to every expectation /
//! gradient evaluation, so the hot loop performs no heap allocation at all.
//!
//! A workspace built [`Workspace::with_prefix_reuse`] also keeps the sweep's prefix
//! checkpoints ([`crate::prefix`]): every evolution through it resumes from the
//! deepest checkpoint its angles share, bit-identically.  So one object is the whole
//! evaluator's state, and [`Workspace::new`] (which keeps none) evolves every
//! evaluation from round 0.

use crate::prefix::PrefixCache;
use juliqaoa_linalg::Complex64;

/// Scratch buffers for repeated simulations of a fixed problem size.
#[derive(Clone, Debug)]
pub struct Workspace {
    /// The evolving statevector (over the feasible set).
    pub state: Vec<Complex64>,
    /// Scratch for subspace mat-vecs.
    pub scratch: Vec<Complex64>,
    /// The adjoint (co-state) vector used by the gradient sweep.
    pub lambda: Vec<Complex64>,
    /// Temporary used to hold `H·ψ` during the gradient sweep.
    pub tmp: Vec<Complex64>,
    /// Per-round phase factors `e^{-iγ·value}` for the table-driven phase separator —
    /// one entry per *distinct* objective value, so it is tiny compared to the state
    /// buffers and its allocation is reused across rounds and simulations.
    pub phase_table: Vec<Complex64>,
    /// Prefix checkpoints the evolution resumes from; `None` evolves cold.
    pub(crate) prefix: Option<PrefixCache>,
}

impl Workspace {
    /// Allocates a workspace for statevectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        Workspace {
            state: vec![Complex64::ZERO; dim],
            scratch: vec![Complex64::ZERO; dim],
            lambda: vec![Complex64::ZERO; dim],
            tmp: vec![Complex64::ZERO; dim],
            phase_table: Vec::new(),
            prefix: None,
        }
    }

    /// Keeps prefix checkpoints whose stored states use at most `budget_bytes` bytes
    /// in total (see [`crate::prefix`]).  A budget too small for one checkpoint keeps
    /// none, so every evaluation still runs cold.
    pub fn with_prefix_reuse(mut self, budget_bytes: usize) -> Self {
        self.prefix = Some(PrefixCache::with_budget(budget_bytes));
        self
    }

    /// The prefix checkpoints and their reuse counters, when this workspace keeps them.
    pub fn prefix_cache(&self) -> Option<&PrefixCache> {
        self.prefix.as_ref()
    }

    /// The statevector dimension this workspace serves.
    pub fn dim(&self) -> usize {
        self.state.len()
    }

    /// Resizes all buffers (only reallocating when the dimension actually changes).
    pub fn resize(&mut self, dim: usize) {
        if dim != self.dim() {
            self.state.resize(dim, Complex64::ZERO);
            self.scratch.resize(dim, Complex64::ZERO);
            self.lambda.resize(dim, Complex64::ZERO);
            self.tmp.resize(dim, Complex64::ZERO);
        }
    }

    /// Approximate heap footprint in bytes (used by the memory-scaling benchmark),
    /// prefix checkpoints included.
    pub fn bytes(&self) -> usize {
        let checkpoints = self.prefix.as_ref().map_or(0, PrefixCache::bytes);
        (4 * self.state.capacity() + self.phase_table.capacity()) * std::mem::size_of::<Complex64>()
            + checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_and_resize() {
        let mut ws = Workspace::new(8);
        assert_eq!(ws.dim(), 8);
        assert_eq!(ws.scratch.len(), 8);
        ws.resize(16);
        assert_eq!(ws.dim(), 16);
        assert_eq!(ws.lambda.len(), 16);
        assert_eq!(ws.tmp.len(), 16);
        // Resizing to the same size is a no-op.
        let ptr = ws.state.as_ptr();
        ws.resize(16);
        assert_eq!(ws.state.as_ptr(), ptr);
    }

    #[test]
    fn bytes_accounts_for_all_buffers() {
        let ws = Workspace::new(100);
        assert!(ws.bytes() >= 4 * 100 * 16);
    }
}
