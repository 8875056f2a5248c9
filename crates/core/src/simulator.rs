//! The QAOA statevector simulator.
//!
//! A [`Simulator`] is assembled from the two pre-computed ingredients of Figure 1 —
//! the objective values `C(x)` over the feasible set and a [`Mixer`] — plus an initial
//! state.  Evaluating the ansatz at a set of [`Angles`] then alternates two cheap
//! kernels per round:
//!
//! 1. the phase separator `e^{-iγ H_C}`: an element-wise phase multiplication by the
//!    pre-computed objective values;
//! 2. the mixer `e^{-iβ H_M}`: Walsh–Hadamard-diagonalised for Pauli-X mixers, a rank-1
//!    update for the Grover mixer, or two subspace mat-vecs for Clique/Ring mixers.
//!
//! A Grover-mixer problem can also run in *class space* ([`Simulator::grover_classes`]):
//! the same kernels over one amplitude per distinct objective value.
//!
//! Nothing in the hot loop allocates; all buffers live in a caller-held [`Workspace`],
//! and so do the prefix checkpoints a sweep resumes from when the workspace keeps
//! them ([`Workspace::with_prefix_reuse`]).

use crate::angles::Angles;
use crate::error::QaoaError;
use crate::prefix::PrefixCache;
use crate::result::SimulationResult;
use crate::workspace::Workspace;
use juliqaoa_linalg::{vector, Complex64};
use juliqaoa_mixers::{GroverMixer, Mixer};
use juliqaoa_problems::PhaseClasses;
use juliqaoa_telemetry::kernels::KERNELS;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of simulator identity tokens (see [`Simulator::identity_token`]); 0 is the
/// "unbound" sentinel of [`PrefixCache`], so tokens start at 1.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

fn fresh_token() -> u64 {
    // relaxed: uniqueness counter; fetch_add is atomic regardless of ordering and the
    // token value synchronizes with nothing.
    NEXT_TOKEN.fetch_add(1, Ordering::Relaxed)
}

/// The state the QAOA starts from.
#[derive(Clone, Debug)]
pub enum InitialState {
    /// The uniform superposition over the feasible set (the default: `|+⟩^{⊗n}` for
    /// unconstrained problems, the Dicke state `|D^n_k⟩` for weight-k problems; in
    /// Grover class space, the weighted mixer's reference `s_c = √(d_c/N)`).
    Uniform,
    /// A single feasible basis state, given by its dense index.
    Basis(usize),
    /// An arbitrary caller-supplied state (e.g. a warm start); normalised on use.
    Custom(Vec<Complex64>),
}

/// How a simulator's measurement outcomes group into objective-value classes — the
/// outcomes a sampled evaluation draws per-class counts over
/// ([`Simulator::value_classes`]).
#[derive(Clone, Copy, Debug)]
pub enum ValueClasses<'a> {
    /// Grover class space: every amplitude is one class already, and class `c` has
    /// value `values[c]` (the simulator's objective values).
    ClassSpace {
        /// The value of each class.
        values: &'a [f64],
    },
    /// States grouped by their [`PhaseClasses`] index.
    Indexed(&'a PhaseClasses),
}

impl<'a> ValueClasses<'a> {
    /// The objective value of each class.
    pub fn values(&self) -> &'a [f64] {
        match self {
            ValueClasses::ClassSpace { values } => values,
            ValueClasses::Indexed(classes) => classes.distinct_values(),
        }
    }

    /// Writes the measurement probability of each class in `state` into `out`
    /// (resized to the class count): `|φ_c|²` in class space, `Σ_{x∈c} |ψ_x|²` by one
    /// fixed-chunk pass over the class index otherwise
    /// ([`vector::class_probabilities`]), so the bits never depend on the thread
    /// count.
    pub fn probabilities(&self, state: &[Complex64], out: &mut Vec<f64>) {
        match self {
            ValueClasses::ClassSpace { .. } => {
                out.clear();
                out.extend(state.iter().map(|z| z.norm_sqr()));
            }
            ValueClasses::Indexed(classes) => {
                out.resize(classes.num_classes(), 0.0);
                vector::class_probabilities(state, classes.class_indices(), out);
            }
        }
    }
}

/// An exact QAOA statevector simulator over a pre-computed problem.
#[derive(Clone, Debug)]
pub struct Simulator {
    obj_vals: Vec<f64>,
    /// Phase-class compression of `obj_vals`, built once at construction.  `Some` for
    /// the paper's objectives (which take `O(m)` distinct values over `2ⁿ` states);
    /// `None` for effectively-injective objectives, which keep the dense `cis` path.
    phase_classes: Option<PhaseClasses>,
    mixers: Vec<Mixer>,
    initial_state: InitialState,
    dim: usize,
    /// Identity token for prefix caching; refreshed by every construction and by every
    /// mutation that changes what an evolution produces (kernel path, initial state).
    /// Clones keep the token — they are bit-identical evaluators.
    token: u64,
}

impl Simulator {
    /// Creates a simulator with a single mixer shared by every round — the common case
    /// of Listing 1 (`simulate(angles, mixer, obj_vals)`).
    pub fn new(obj_vals: Vec<f64>, mixer: Mixer) -> Result<Self, QaoaError> {
        Self::with_mixers(obj_vals, vec![mixer])
    }

    /// Creates a simulator with one mixer per round (the `mixers` array option of §3);
    /// the number of rounds simulated must then equal the number of mixers.
    pub fn with_mixers(obj_vals: Vec<f64>, mixers: Vec<Mixer>) -> Result<Self, QaoaError> {
        let phase_classes = PhaseClasses::build(&obj_vals);
        Self::from_parts(obj_vals, phase_classes, mixers)
    }

    /// Assembles a simulator from an objective vector whose [`PhaseClasses`]
    /// compression was already computed (or found non-compressible) elsewhere.
    ///
    /// This is the constructor behind instance caching: a job service that runs many
    /// jobs over the same problem instance builds the compression once, keeps it with
    /// the cached objective vector, and hands clones to each simulator instead of
    /// re-scanning the `2ⁿ` values per job.  The classes must describe exactly
    /// `obj_vals` — the per-state index table has to have the same length.
    pub fn from_parts(
        obj_vals: Vec<f64>,
        phase_classes: Option<PhaseClasses>,
        mixers: Vec<Mixer>,
    ) -> Result<Self, QaoaError> {
        if obj_vals.is_empty() {
            return Err(QaoaError::EmptyObjective);
        }
        assert!(!mixers.is_empty(), "at least one mixer is required");
        let dim = obj_vals.len();
        if let Some(classes) = &phase_classes {
            assert_eq!(
                classes.len(),
                dim,
                "phase classes describe a different objective vector"
            );
        }
        for m in &mixers {
            if m.dim() != dim {
                return Err(QaoaError::DimensionMismatch {
                    objective_len: dim,
                    mixer_dim: m.dim(),
                });
            }
        }
        Ok(Simulator {
            obj_vals,
            phase_classes,
            mixers,
            initial_state: InitialState::Uniform,
            dim,
            token: fresh_token(),
        })
    }

    /// An opaque id identifying this simulator's exact evaluation behaviour, used by
    /// [`PrefixCache`] to detect when stored checkpoints belong to a different circuit.
    /// Clones share the token; [`Simulator::with_dense_phases`] and
    /// [`Simulator::with_initial_state`] refresh it because they change the produced
    /// states (or their bit patterns).
    pub fn identity_token(&self) -> u64 {
        self.token
    }

    /// Disables phase-class compression, forcing the dense per-amplitude `cis` kernel.
    ///
    /// The table-driven path is equivalent to within machine precision (the same
    /// `cis(-γ·value)` factors are applied, computed once per distinct value); this
    /// toggle exists for benchmarking the two paths against each other and as an
    /// escape hatch.
    pub fn with_dense_phases(mut self) -> Self {
        self.phase_classes = None;
        self.token = fresh_token();
        self
    }

    /// The phase-class compression in use, if the objective was compressible.
    pub fn phase_classes(&self) -> Option<&PhaseClasses> {
        self.phase_classes.as_ref()
    }

    /// The value classes a sampled evaluation draws counts over: every amplitude in
    /// Grover class space, the phase classes of a compressible objective, `None` for
    /// an objective that stays dense (whose draws resolve individual states).
    pub fn value_classes(&self) -> Option<ValueClasses<'_>> {
        if self.class_reference().is_some() {
            return Some(ValueClasses::ClassSpace {
                values: &self.obj_vals,
            });
        }
        self.phase_classes.as_ref().map(ValueClasses::Indexed)
    }

    /// Replaces the initial state (the `initial_state` keyword of `simulate()`); used for
    /// warm starts and for starting constrained problems in specific feasible states.
    pub fn with_initial_state(mut self, init: InitialState) -> Result<Self, QaoaError> {
        match &init {
            InitialState::Uniform => {}
            InitialState::Basis(i) => {
                if *i >= self.dim {
                    return Err(QaoaError::InvalidInitialState(format!(
                        "basis index {i} out of range for dimension {}",
                        self.dim
                    )));
                }
            }
            InitialState::Custom(v) => {
                if v.len() != self.dim {
                    return Err(QaoaError::InvalidInitialState(format!(
                        "custom state has length {} but the feasible set has {} states",
                        v.len(),
                        self.dim
                    )));
                }
                if vector::norm(v) == 0.0 {
                    return Err(QaoaError::InvalidInitialState(
                        "custom state has zero norm".into(),
                    ));
                }
            }
        }
        self.initial_state = init;
        self.token = fresh_token();
        Ok(self)
    }

    /// Dimension of the feasible set (and of every statevector involved).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The pre-computed objective values.
    pub fn objective_values(&self) -> &[f64] {
        &self.obj_vals
    }

    /// The mixer used at a given round.
    pub fn mixers(&self) -> &[Mixer] {
        &self.mixers
    }

    /// The reference state of the first [`GroverMixer::weighted`] mixer, if any: such a
    /// simulator runs in Grover class space, where the uniform superposition over the
    /// feasible set is that reference (see [`Simulator::grover_classes`]).
    fn class_reference(&self) -> Option<&[f64]> {
        self.mixers.iter().find_map(|m| match m {
            Mixer::Grover(grover) => grover.reference(),
            _ => None,
        })
    }

    /// The phase classes and mixer of a fused GM-QAOA round: a compressible objective
    /// and the uniform Grover mixer, whose overlap is the plain amplitude sum the
    /// table-driven phase sweep accumulates.
    fn fused_grover<'a>(&'a self, mixer: &'a Mixer) -> Option<(&'a PhaseClasses, &'a GroverMixer)> {
        match (&self.phase_classes, mixer) {
            (Some(classes), Mixer::Grover(grover)) if grover.reference().is_none() => {
                Some((classes, grover))
            }
            _ => None,
        }
    }

    /// Heap bytes the simulator holds: its objective values, their phase classes, its
    /// mixers and a custom initial state.
    pub fn bytes(&self) -> usize {
        let classes = self.phase_classes.as_ref().map_or(0, PhaseClasses::bytes);
        let mixers: usize = self.mixers.iter().map(Mixer::bytes).sum();
        let initial = match &self.initial_state {
            InitialState::Custom(v) => std::mem::size_of_val(v.as_slice()),
            InitialState::Uniform | InitialState::Basis(_) => 0,
        };
        std::mem::size_of_val(self.obj_vals.as_slice()) + classes + mixers + initial
    }

    /// Largest objective value (the optimum for maximization problems).
    pub fn max_objective(&self) -> f64 {
        self.obj_vals
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest objective value.
    pub fn min_objective(&self) -> f64 {
        self.obj_vals.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Allocates a workspace matched to this simulator's dimension; it keeps no
    /// prefix checkpoints, so every evaluation through it evolves from round 0.
    pub fn workspace(&self) -> Workspace {
        Workspace::new(self.dim)
    }

    /// Writes the initial state into `state`.
    pub fn prepare_initial(&self, state: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim);
        match &self.initial_state {
            InitialState::Uniform => match self.class_reference() {
                Some(reference) => {
                    for (z, &sc) in state.iter_mut().zip(reference) {
                        *z = Complex64::from_real(sc);
                    }
                    vector::normalize(state);
                }
                None => vector::fill_uniform(state),
            },
            InitialState::Basis(i) => {
                state.iter_mut().for_each(|z| *z = Complex64::ZERO);
                state[*i] = Complex64::ONE;
            }
            InitialState::Custom(v) => {
                state.copy_from_slice(v);
                vector::normalize(state);
            }
        }
    }

    /// Returns the mixer to use for `round` out of `p`, validating the schedule.
    pub(crate) fn mixer_for_round(&self, round: usize, p: usize) -> Result<&Mixer, QaoaError> {
        if self.mixers.len() == 1 {
            Ok(&self.mixers[0])
        } else if self.mixers.len() == p {
            Ok(&self.mixers[round])
        } else {
            Err(QaoaError::MixerScheduleMismatch {
                mixers: self.mixers.len(),
                rounds: p,
            })
        }
    }

    /// Applies the phase separator `e^{-iγ H_C}` to `ws.state` (table-driven when the
    /// objective compresses, dense `cis` otherwise — which in class space is already
    /// one `cis` per distinct value).
    fn apply_phase_separator(&self, gamma: f64, ws: &mut Workspace) {
        let class_space = self.class_reference().is_some();
        if class_space {
            KERNELS.grover_class_rounds.inc();
        }
        match &self.phase_classes {
            Some(classes) => {
                KERNELS.phase_table_applies.inc();
                vector::build_phase_table(classes.distinct_values(), gamma, &mut ws.phase_table);
                vector::apply_phases_indexed(
                    &mut ws.state,
                    classes.class_indices(),
                    &ws.phase_table,
                );
            }
            None => {
                if !class_space {
                    KERNELS.dense_phase_applies.inc();
                }
                vector::apply_phases(&mut ws.state, &self.obj_vals, gamma);
            }
        }
    }

    /// Applies one full QAOA round (phase separator, then mixer) to `ws.state`.
    ///
    /// This is the single round kernel shared by the cold and the resumed evolution
    /// paths, which is what makes the two bit-identical: a resumed evaluation runs
    /// exactly these operations on a byte copy of the state a cold evaluation would
    /// have reached.
    fn apply_round_kernels(&self, gamma: f64, beta: f64, mixer: &Mixer, ws: &mut Workspace) {
        if let Some((classes, grover)) = self.fused_grover(mixer) {
            // Fused GM-QAOA round: one cis per distinct objective value, and the
            // phase sweep also accumulates the amplitude sum the Grover rank-1
            // update needs — two passes over the state instead of three.
            KERNELS.fused_grover_rounds.inc();
            KERNELS.phase_table_applies.inc();
            vector::build_phase_table(classes.distinct_values(), gamma, &mut ws.phase_table);
            let sum = vector::apply_phases_indexed_sum(
                &mut ws.state,
                classes.class_indices(),
                &ws.phase_table,
            );
            grover.apply_evolution_with_sum(beta, &mut ws.state, sum);
        } else {
            self.apply_phase_separator(gamma, ws);
            mixer.apply_evolution(beta, &mut ws.state, &mut ws.scratch);
        }
    }

    /// Evolves the initial state through all `p` rounds, leaving `|β,γ⟩` in `ws.state`.
    ///
    /// With a compressible objective each round's phase separator is table-driven
    /// (`O(#distinct)` trigonometry plus one gather-multiply sweep), and Grover-mixer
    /// rounds fuse the separator with the mixer's overlap reduction so a full GM-QAOA
    /// round costs two passes over the state instead of three.  The dense per-amplitude
    /// `cis` path remains for non-compressible objectives; both paths agree to within
    /// `1e-12` (the phase factors are bit-identical, only reduction order can differ).
    ///
    /// When `ws` keeps prefix checkpoints ([`Workspace::with_prefix_reuse`]) and the
    /// leading rounds of `angles` agree bit-for-bit with what it recorded from earlier
    /// evaluations of this simulator, the evolution resumes from the deepest matching
    /// checkpoint instead of round 0.  The result is **bit-identical** to the cold
    /// loop — same kernels, same reduction order, just skipped rounds.  The
    /// checkpoints are bound to this simulator's [`Simulator::identity_token`], so a
    /// workspace last used with a different simulator is cleared rather than replayed.
    pub fn evolve_into(&self, angles: &Angles, ws: &mut Workspace) -> Result<(), QaoaError> {
        if let Some(mut cache) = ws.prefix.take() {
            let resumed = self.evolve_from_checkpoints(angles, ws, &mut cache);
            ws.prefix = Some(cache);
            return resumed;
        }
        ws.resize(self.dim);
        self.prepare_initial(&mut ws.state);
        let p = angles.p();
        for round in 0..p {
            let (gamma, beta) = angles.round(round);
            let mixer = self.mixer_for_round(round, p)?;
            self.apply_round_kernels(gamma, beta, mixer, ws);
        }
        Ok(())
    }

    /// Resumes the evolution from the deepest checkpoint in `cache` matching `angles`
    /// and replays the remaining rounds, recording new checkpoints per the cache's
    /// write policy ([`crate::prefix`]).
    fn evolve_from_checkpoints(
        &self,
        angles: &Angles,
        ws: &mut Workspace,
        cache: &mut PrefixCache,
    ) -> Result<(), QaoaError> {
        let p = angles.p();
        cache.bind(self.token, self.dim);
        // Validate the mixer schedule up front: a resumed evaluation must fail
        // exactly when the cold one would, even if every round is skipped.
        if p > 0 {
            self.mixer_for_round(p - 1, p)?;
        }
        ws.resize(self.dim);
        let k = cache.matching_rounds(angles);

        if k == p {
            // Full hit: the stored prefix covers every round.
            if p == 0 {
                self.prepare_initial(&mut ws.state);
            } else {
                ws.state.copy_from_slice(cache.state_after(p));
                cache.record_hit(p, false);
            }
            cache.note_eval(angles);
            return Ok(());
        }

        // Tail fast path: all but the final round match and the stored final-round
        // sub-checkpoint matches the final γ — only the mixer's tail end replays.
        if p > 0 && k == p - 1 {
            let (gamma, beta) = angles.round(p - 1);
            let mixer = self.mixer_for_round(p - 1, p)?;
            let mut served = false;
            if let Some((kind, tail_state)) = cache.matching_tail(p - 1, gamma) {
                match (kind, mixer) {
                    (crate::prefix::TailKind::Eigenbasis, m) if m.eigenbasis_supported() => {
                        ws.state.copy_from_slice(tail_state);
                        m.evolve_from_eigenbasis(beta, &mut ws.state);
                        served = true;
                    }
                    (crate::prefix::TailKind::PostPhase { fused_sum }, Mixer::Grover(grover)) => {
                        ws.state.copy_from_slice(tail_state);
                        match fused_sum {
                            // The fused table round already summed the amplitudes.
                            Some(sum) => grover.apply_evolution_with_sum(beta, &mut ws.state, sum),
                            // Dense path (class space included): the rank-1 update
                            // recomputes its overlap with the kernel the cold
                            // evolution uses.
                            None => grover.apply_evolution(beta, &mut ws.state),
                        }
                        served = true;
                    }
                    _ => {}
                }
            }
            if served {
                cache.record_hit(p - 1, true);
                cache.note_eval(angles);
                return Ok(());
            }
        }

        let write = cache.plan_writes(angles, k);
        if write {
            cache.truncate_to(k);
        }
        if k > 0 {
            ws.state.copy_from_slice(cache.state_after(k));
            cache.record_hit(k, false);
        } else {
            self.prepare_initial(&mut ws.state);
            cache.record_miss();
        }
        for round in k..p {
            let (gamma, beta) = angles.round(round);
            let mixer = self.mixer_for_round(round, p)?;
            let is_final = round + 1 == p;
            if is_final && write && mixer.eigenbasis_supported() {
                // Split the final round at the mixer eigenbasis so a β-only sweep
                // can replay just the diagonal phase and the rotation back.
                self.apply_phase_separator(gamma, ws);
                mixer.to_eigenbasis(&mut ws.state);
                cache.store_tail(round, gamma, crate::prefix::TailKind::Eigenbasis, &ws.state);
                mixer.evolve_from_eigenbasis(beta, &mut ws.state);
            } else if let (true, true, Mixer::Grover(grover)) = (is_final, write, mixer) {
                // Grover final round: checkpoint straight after the phase separator
                // so a β-only sweep replays just the rank-1 update.
                let fused_sum = match self.fused_grover(mixer) {
                    Some((classes, _)) => {
                        KERNELS.phase_table_applies.inc();
                        vector::build_phase_table(
                            classes.distinct_values(),
                            gamma,
                            &mut ws.phase_table,
                        );
                        Some(vector::apply_phases_indexed_sum(
                            &mut ws.state,
                            classes.class_indices(),
                            &ws.phase_table,
                        ))
                    }
                    None => {
                        self.apply_phase_separator(gamma, ws);
                        None
                    }
                };
                cache.store_tail(
                    round,
                    gamma,
                    crate::prefix::TailKind::PostPhase { fused_sum },
                    &ws.state,
                );
                match fused_sum {
                    Some(sum) => grover.apply_evolution_with_sum(beta, &mut ws.state, sum),
                    None => grover.apply_evolution(beta, &mut ws.state),
                }
            } else {
                self.apply_round_kernels(gamma, beta, mixer, ws);
                if write && !is_final {
                    cache.push_checkpoint(gamma, beta, &ws.state);
                }
            }
        }
        Ok(())
    }

    /// The expectation value `⟨β,γ|C|β,γ⟩` using a caller-held workspace (the zero
    /// allocation path used inside the angle-finding loop).
    pub fn expectation_with(&self, angles: &Angles, ws: &mut Workspace) -> Result<f64, QaoaError> {
        self.evolve_into(angles, ws)?;
        Ok(vector::diagonal_expectation(&ws.state, &self.obj_vals))
    }

    /// Convenience wrapper allocating a fresh workspace.
    pub fn expectation(&self, angles: &Angles) -> Result<f64, QaoaError> {
        let mut ws = self.workspace();
        self.expectation_with(angles, &mut ws)
    }

    /// Full simulation returning a [`SimulationResult`] (Listing 1's `simulate`).
    pub fn simulate(&self, angles: &Angles) -> Result<SimulationResult, QaoaError> {
        let mut ws = self.workspace();
        self.simulate_with(angles, &mut ws)
    }

    /// Full simulation re-using a workspace; the statevector is copied into the result.
    pub fn simulate_with(
        &self,
        angles: &Angles,
        ws: &mut Workspace,
    ) -> Result<SimulationResult, QaoaError> {
        self.evolve_into(angles, ws)?;
        Ok(SimulationResult::from_state(
            ws.state.clone(),
            &self.obj_vals,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juliqaoa_graphs::{cycle_graph, erdos_renyi};
    use juliqaoa_problems::{precompute_full, MaxCut};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn maxcut_simulator(n: usize) -> (Simulator, f64) {
        let graph = cycle_graph(n);
        let cost = MaxCut::new(graph);
        let optimum = cost.optimal_value();
        let obj = precompute_full(&cost);
        let sim = Simulator::new(obj, Mixer::transverse_field(n)).unwrap();
        (sim, optimum)
    }

    #[test]
    fn construction_validates_dimensions() {
        let obj = vec![0.0; 8];
        assert!(Simulator::new(obj.clone(), Mixer::transverse_field(3)).is_ok());
        let err = Simulator::new(obj, Mixer::transverse_field(2)).unwrap_err();
        assert!(matches!(err, QaoaError::DimensionMismatch { .. }));
        assert!(matches!(
            Simulator::new(vec![], Mixer::transverse_field(2)),
            Err(QaoaError::EmptyObjective)
        ));
    }

    #[test]
    fn from_parts_with_shared_classes_matches_direct_construction() {
        let (direct, _) = maxcut_simulator(6);
        let classes = PhaseClasses::build(direct.objective_values());
        assert!(classes.is_some());
        let shared = Simulator::from_parts(
            direct.objective_values().to_vec(),
            classes,
            vec![Mixer::transverse_field(6)],
        )
        .unwrap();
        let angles = Angles::random(3, &mut StdRng::seed_from_u64(5));
        let a = direct.expectation(&angles).unwrap();
        let b = shared.expectation(&angles).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_mismatched_classes() {
        let (sim, _) = maxcut_simulator(6);
        let wrong = PhaseClasses::build(&[0.0, 1.0, 0.0, 1.0]);
        let _ = Simulator::from_parts(
            sim.objective_values().to_vec(),
            wrong,
            vec![Mixer::transverse_field(6)],
        );
    }

    #[test]
    fn zero_rounds_reproduces_initial_expectation() {
        let (sim, _) = maxcut_simulator(6);
        // p = 0: expectation is the mean objective value over the uniform superposition.
        let mean: f64 = sim.objective_values().iter().sum::<f64>() / sim.dim() as f64;
        let e = sim.expectation(&Angles::zeros(0)).unwrap();
        assert!((e - mean).abs() < 1e-12);
    }

    #[test]
    fn zero_angles_leave_expectation_at_mean() {
        let (sim, _) = maxcut_simulator(6);
        let mean: f64 = sim.objective_values().iter().sum::<f64>() / sim.dim() as f64;
        let e = sim.expectation(&Angles::zeros(3)).unwrap();
        assert!((e - mean).abs() < 1e-10);
    }

    #[test]
    fn simulation_preserves_norm() {
        let (sim, _) = maxcut_simulator(6);
        let angles = Angles::random(4, &mut StdRng::seed_from_u64(7));
        let res = sim.simulate(&angles).unwrap();
        assert!((res.total_probability() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn single_round_qaoa_improves_over_random_guessing() {
        // A modest p=1 QAOA with reasonable angles should beat the uniform-superposition
        // mean for MaxCut on a cycle.
        let (sim, optimum) = maxcut_simulator(8);
        let mean: f64 = sim.objective_values().iter().sum::<f64>() / sim.dim() as f64;
        let mut best = f64::NEG_INFINITY;
        // Coarse grid over (β, γ) — the point is existence of an improving angle pair.
        for ib in 0..12 {
            for ig in 0..12 {
                let beta = ib as f64 * std::f64::consts::PI / 12.0;
                let gamma = ig as f64 * std::f64::consts::PI / 12.0;
                let e = sim
                    .expectation(&Angles::new(vec![beta], vec![gamma]))
                    .unwrap();
                best = best.max(e);
            }
        }
        assert!(best > mean + 0.3, "best {best} should exceed mean {mean}");
        assert!(best <= optimum + 1e-9);
    }

    #[test]
    fn expectation_bounded_by_objective_range() {
        let graph = erdos_renyi(7, 0.5, &mut StdRng::seed_from_u64(3));
        let cost = MaxCut::new(graph);
        let obj = precompute_full(&cost);
        let sim = Simulator::new(obj, Mixer::transverse_field(7)).unwrap();
        for seed in 0..5 {
            let angles = Angles::random(3, &mut StdRng::seed_from_u64(seed));
            let e = sim.expectation(&angles).unwrap();
            assert!(e <= sim.max_objective() + 1e-9);
            assert!(e >= sim.min_objective() - 1e-9);
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_allocation() {
        let (sim, _) = maxcut_simulator(6);
        let mut ws = sim.workspace();
        let angles = Angles::random(3, &mut StdRng::seed_from_u64(11));
        let with_ws = sim.expectation_with(&angles, &mut ws).unwrap();
        let fresh = sim.expectation(&angles).unwrap();
        assert!((with_ws - fresh).abs() < 1e-12);
        // Re-using the same workspace again gives the same answer (state fully reset).
        let again = sim.expectation_with(&angles, &mut ws).unwrap();
        assert!((again - fresh).abs() < 1e-12);
    }

    #[test]
    fn per_round_mixers_schedule_is_validated() {
        let n = 4;
        let obj = vec![1.0; 1 << n];
        let sim =
            Simulator::with_mixers(obj, vec![Mixer::transverse_field(n), Mixer::grover_full(n)])
                .unwrap();
        // Two mixers, two rounds: fine.
        assert!(sim.expectation(&Angles::zeros(2)).is_ok());
        // Two mixers, three rounds: schedule mismatch.
        let err = sim.expectation(&Angles::zeros(3)).unwrap_err();
        assert!(matches!(err, QaoaError::MixerScheduleMismatch { .. }));
    }

    #[test]
    fn basis_initial_state() {
        let (sim, _) = maxcut_simulator(5);
        let sim = sim.with_initial_state(InitialState::Basis(3)).unwrap();
        let res = sim.simulate(&Angles::zeros(0)).unwrap();
        assert!((res.amplitude(3) - Complex64::ONE).abs() < 1e-12);
        assert!((res.total_probability() - 1.0).abs() < 1e-12);
        // Out-of-range index is rejected.
        let (sim2, _) = maxcut_simulator(5);
        assert!(sim2
            .with_initial_state(InitialState::Basis(1 << 5))
            .is_err());
    }

    #[test]
    fn custom_initial_state_is_normalised() {
        let (sim, _) = maxcut_simulator(4);
        let mut custom = vec![Complex64::ZERO; 16];
        custom[0] = Complex64::new(3.0, 0.0);
        custom[1] = Complex64::new(0.0, 4.0);
        let sim = sim
            .with_initial_state(InitialState::Custom(custom))
            .unwrap();
        let res = sim.simulate(&Angles::zeros(0)).unwrap();
        assert!((res.total_probability() - 1.0).abs() < 1e-12);
        assert!((res.amplitude(0).abs() - 0.6).abs() < 1e-12);
        assert!((res.amplitude(1).abs() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn custom_initial_state_validation() {
        let (sim, _) = maxcut_simulator(4);
        assert!(sim
            .clone()
            .with_initial_state(InitialState::Custom(vec![Complex64::ZERO; 5]))
            .is_err());
        assert!(sim
            .with_initial_state(InitialState::Custom(vec![Complex64::ZERO; 16]))
            .is_err());
    }

    #[test]
    fn table_driven_path_matches_dense_path() {
        // MaxCut on a cycle is heavily compressible; the two phase-separator paths
        // must agree to machine precision for every mixer family.
        for mixer in [Mixer::transverse_field(6), Mixer::grover_full(6)] {
            let (base, _) = maxcut_simulator(6);
            let table_sim =
                Simulator::new(base.objective_values().to_vec(), mixer.clone()).unwrap();
            assert!(
                table_sim.phase_classes().is_some(),
                "cycle MaxCut compresses"
            );
            let dense_sim = table_sim.clone().with_dense_phases();
            assert!(dense_sim.phase_classes().is_none());
            for seed in 0..4 {
                let angles = Angles::random(3, &mut StdRng::seed_from_u64(seed));
                let mut ws_t = table_sim.workspace();
                let mut ws_d = dense_sim.workspace();
                table_sim.evolve_into(&angles, &mut ws_t).unwrap();
                dense_sim.evolve_into(&angles, &mut ws_d).unwrap();
                let diff = juliqaoa_linalg::vector::max_abs_diff(&ws_t.state, &ws_d.state);
                assert!(diff < 1e-12, "{}: diff {diff}", mixer.name());
            }
        }
    }

    #[test]
    fn incompressible_objective_falls_back_to_dense() {
        // An injective objective cannot be phase-class compressed; the simulator must
        // still work through the dense kernel.
        let n = 5;
        let obj: Vec<f64> = (0..(1usize << n)).map(|x| x as f64 * 0.618).collect();
        let sim = Simulator::new(obj, Mixer::transverse_field(n)).unwrap();
        assert!(sim.phase_classes().is_none());
        let angles = Angles::random(3, &mut StdRng::seed_from_u64(2));
        let res = sim.simulate(&angles).unwrap();
        assert!((res.total_probability() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn fused_grover_round_matches_unfused() {
        // The fused GM-QAOA round (phase+sum sweep, then rank-1 update) must agree
        // with the dense three-sweep evolution.
        let n = 7;
        let graph = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(17));
        let obj = precompute_full(&MaxCut::new(graph));
        let fused = Simulator::new(obj.clone(), Mixer::grover_full(n)).unwrap();
        assert!(fused.phase_classes().is_some());
        let unfused = fused.clone().with_dense_phases();
        for seed in 0..5 {
            let angles = Angles::random(4, &mut StdRng::seed_from_u64(100 + seed));
            let mut ws_f = fused.workspace();
            let mut ws_u = unfused.workspace();
            fused.evolve_into(&angles, &mut ws_f).unwrap();
            unfused.evolve_into(&angles, &mut ws_u).unwrap();
            assert!(juliqaoa_linalg::vector::max_abs_diff(&ws_f.state, &ws_u.state) < 1e-12);
        }
    }

    /// A workspace that keeps prefix checkpoints at the default budget.
    fn reuse_workspace(sim: &Simulator) -> Workspace {
        sim.workspace()
            .with_prefix_reuse(crate::prefix::default_prefix_budget())
    }

    fn prefix_stats(ws: &Workspace) -> crate::PrefixStats {
        ws.prefix_cache()
            .expect("workspace keeps checkpoints")
            .stats()
    }

    fn assert_states_bit_equal(a: &[Complex64], b: &[Complex64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn cached_sweep_is_bit_identical_to_cold_evolution() {
        // A suffix sweep over the deepest round's angles: after the first two
        // evaluations the cache serves every point from checkpoints, and every state
        // must still match a cold evolution bit-for-bit.
        for mixer in [
            Mixer::transverse_field(6),
            Mixer::grover_full(6),
            Mixer::PauliX(juliqaoa_mixers::PauliXMixer::uniform_products(6, &[1, 2])),
        ] {
            let (base, _) = maxcut_simulator(6);
            let sim = Simulator::new(base.objective_values().to_vec(), mixer.clone()).unwrap();
            let mut ws_c = reuse_workspace(&sim);
            let mut ws_cold = sim.workspace();
            let base_angles = Angles::random(3, &mut StdRng::seed_from_u64(31));
            for step in 0..12 {
                let mut flat = base_angles.to_flat();
                // Vary β_3 fastest, γ_3 every 4 steps — the suffix-major sweep shape.
                flat[2] += 0.1 * (step % 4) as f64;
                flat[5] += 0.2 * (step / 4) as f64;
                let angles = Angles::from_flat(&flat);
                sim.evolve_into(&angles, &mut ws_c).unwrap();
                sim.evolve_into(&angles, &mut ws_cold).unwrap();
                assert_states_bit_equal(&ws_c.state, &ws_cold.state);
            }
            let stats = prefix_stats(&ws_c);
            assert!(stats.hits >= 9, "{}: hits {}", mixer.name(), stats.hits);
            if mixer.eigenbasis_supported() {
                assert!(stats.tail_hits > 0, "{}: no tail hits", mixer.name());
            }
        }
    }

    #[test]
    fn cached_full_repeat_and_divergence_match_cold() {
        let (sim, _) = maxcut_simulator(6);
        let mut ws_c = reuse_workspace(&sim);
        let mut ws_cold = sim.workspace();
        let a = Angles::random(4, &mut StdRng::seed_from_u64(5));
        let mut b_flat = a.to_flat();
        b_flat[0] += 0.5; // diverge at round 0: a complete miss
        let b = Angles::from_flat(&b_flat);
        for angles in [&a, &a, &b, &a, &b, &b] {
            sim.evolve_into(angles, &mut ws_c).unwrap();
            sim.evolve_into(angles, &mut ws_cold).unwrap();
            assert_states_bit_equal(&ws_c.state, &ws_cold.state);
        }
        // Expectations ride on the same state, so they are bit-identical too.
        let e_c = sim.expectation_with(&a, &mut ws_c).unwrap();
        let e = sim.expectation_with(&a, &mut ws_cold).unwrap();
        assert_eq!(e_c.to_bits(), e.to_bits());
    }

    #[test]
    fn cache_bound_to_another_simulator_is_cleared_not_replayed() {
        let (sim_a, _) = maxcut_simulator(6);
        let graph = erdos_renyi(6, 0.5, &mut StdRng::seed_from_u64(77));
        let sim_b = Simulator::new(
            precompute_full(&MaxCut::new(graph)),
            Mixer::transverse_field(6),
        )
        .unwrap();
        assert_ne!(sim_a.identity_token(), sim_b.identity_token());
        let angles = Angles::random(3, &mut StdRng::seed_from_u64(9));
        let mut ws = reuse_workspace(&sim_a);
        // Warm the checkpoints on sim_a with two identical evaluations.
        sim_a.evolve_into(&angles, &mut ws).unwrap();
        sim_a.evolve_into(&angles, &mut ws).unwrap();
        assert!(prefix_stats(&ws).hits > 0);
        // The same workspace and angles on sim_b must not reuse sim_a's checkpoints.
        sim_b.evolve_into(&angles, &mut ws).unwrap();
        let mut ws_cold = sim_b.workspace();
        sim_b.evolve_into(&angles, &mut ws_cold).unwrap();
        assert_states_bit_equal(&ws.state, &ws_cold.state);
        assert_eq!(prefix_stats(&ws).misses, 2, "sim_b's evaluation ran cold");
        // Clones, by contrast, share the identity and may reuse.
        let clone = sim_a.clone();
        assert_eq!(clone.identity_token(), sim_a.identity_token());
    }

    #[test]
    fn zero_budget_cache_still_gives_identical_results() {
        let (sim, _) = maxcut_simulator(5);
        let mut ws_c = sim.workspace().with_prefix_reuse(0);
        let mut ws_cold = sim.workspace();
        let angles = Angles::random(3, &mut StdRng::seed_from_u64(3));
        for _ in 0..3 {
            sim.evolve_into(&angles, &mut ws_c).unwrap();
            sim.evolve_into(&angles, &mut ws_cold).unwrap();
            assert_states_bit_equal(&ws_c.state, &ws_cold.state);
        }
        assert_eq!(prefix_stats(&ws_c).hits, 0);
        // No checkpoint, tail or spare buffer was ever stored.
        assert_eq!(ws_c.prefix_cache().unwrap().bytes(), 0);
    }

    #[test]
    fn cached_schedule_mismatch_errors_like_cold() {
        let n = 4;
        let obj = vec![1.0; 1 << n];
        let sim =
            Simulator::with_mixers(obj, vec![Mixer::transverse_field(n), Mixer::grover_full(n)])
                .unwrap();
        let mut ws = reuse_workspace(&sim);
        // Valid two-round evaluation warms the checkpoints.
        sim.evolve_into(&Angles::zeros(2), &mut ws).unwrap();
        // Three rounds is a schedule mismatch on the resuming path too.
        let err = sim.evolve_into(&Angles::zeros(3), &mut ws).unwrap_err();
        assert!(matches!(err, QaoaError::MixerScheduleMismatch { .. }));
    }

    #[test]
    fn grover_and_transverse_field_agree_at_p0() {
        let n = 5;
        let cost = MaxCut::new(cycle_graph(n));
        let obj = precompute_full(&cost);
        let sim_x = Simulator::new(obj.clone(), Mixer::transverse_field(n)).unwrap();
        let sim_g = Simulator::new(obj, Mixer::grover_full(n)).unwrap();
        let a = sim_x.expectation(&Angles::zeros(0)).unwrap();
        let b = sim_g.expectation(&Angles::zeros(0)).unwrap();
        assert!((a - b).abs() < 1e-12);
    }
}
