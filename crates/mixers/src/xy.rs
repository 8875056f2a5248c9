//! XY-model mixers (Clique and Ring) restricted to the Dicke subspace, applied
//! matrix-free.
//!
//! The Clique mixer `Σ_{i<j} (X_iX_j + Y_iY_j)` and the Ring mixer
//! `Σ_i (X_iX_{i+1} + Y_iY_{i+1})` conserve Hamming weight, so for weight-k constrained
//! problems they act on the `C(n,k)`-dimensional Dicke subspace, where `X_iX_j + Y_iY_j`
//! has matrix element `2` between any two states related by hopping one excitation
//! between qubits `i` and `j`.  JuliQAOA eigendecomposes that dense `C(n,k)×C(n,k)`
//! matrix once per mixer — `O(dim³)` time and `O(dim²)` memory, the pre-computation
//! the paper names as its limit at `n = 18`.  [`XYMixer`] never forms the matrix.  It
//! stores only hop structure, built in `O(dim·n)` with no eigensolve:
//!
//! * **Clique.**  With `S⁻ = Σ_i σ⁻_i` the collective lowering operator,
//!   `H = 2(S⁺S⁻ − k)` on the weight-k subspace, so `H` is a function of total spin
//!   with the `min(k,n−k)+1` distinct eigenvalues `2k(n−k) − 2j(n+1−j)`,
//!   `j = 0..=min(k,n−k)`.  Every Krylov space of `H` therefore has at most that many
//!   dimensions, and a Lanczos run of at most `min(k,n−k)+1` steps with full
//!   reorthogonalisation yields `e^{−iβH}v` exactly (up to rounding), at a cost
//!   independent of `β`.  `S⁻` is stored as a weight-k → k−1 lowering table; for
//!   `k > n/2` the raising table to weight k+1 is narrower, with
//!   `H = 2(S⁻S⁺ − (n−k))`.
//! * **Ring.**  Under the Jordan–Wigner map the Ring is a free-fermion model: `k`
//!   particles hopping around `n` modes with single-particle matrix `h` (entries `2`;
//!   the wrap-around bond carries the sign `(−1)^{k−1}` of its string).  So `e^{−iβH}`
//!   is the `k`-particle action of the `n×n` unitary `U = e^{−iβh}`.  Each apply
//!   factors `U` into `n(n−1)/2` Givens rotations between adjacent modes; adjacent
//!   modes carry no string, so each rotation is a 2×2 update of the state pairs that
//!   differ by one hop across that bond.  The cost, `O(n²·C(n−2,k−1))`, does not
//!   depend on `β`: a polynomial (Chebyshev) expansion would need a degree growing with
//!   `|β|·‖H‖`, and the angle optimizers do visit `|β| ~ 10⁵`.
//!
//! Per apply, the Clique uses `(min(k,n−k)+1)·dim` complex values of Lanczos basis
//! plus two table gathers per step; the Ring works in place on the state plus `O(n²)`
//! of rotation data.  Both live in a per-thread buffer that only ever grows, so
//! repeated applies allocate nothing.  Reductions go through [`vector`]'s fixed-chunk
//! kernels, every gather sums each output row in a fixed order and the Ring's updates
//! run serially, so results are bit-identical across thread counts.
//!
//! [`build_xy_hamiltonian`] still builds the dense matrix; tests use it, through
//! [`crate::CustomMixer`], as the reference the matrix-free path must reproduce.

use juliqaoa_combinatorics::binomial::pascal_table;
use juliqaoa_combinatorics::{rank_combination, DickeSubspace, GosperIter};
use juliqaoa_linalg::{
    parallel_kernels_enabled, symmetric_eigen, tridiagonal_eigen, vector, Complex64, RealMatrix,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Which pairs of qubits the XY coupling acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum XYCoupling {
    /// All pairs `i < j` (the "Clique" or complete-graph mixer).
    Clique,
    /// Cyclically adjacent pairs `(i, i+1 mod n)` (the "Ring" mixer).
    Ring,
}

impl XYCoupling {
    /// The list of coupled qubit pairs for `n` qubits.
    pub fn pairs(&self, n: usize) -> Vec<(usize, usize)> {
        match self {
            XYCoupling::Clique => {
                let mut v = Vec::with_capacity(n * (n - 1) / 2);
                for i in 0..n {
                    for j in (i + 1)..n {
                        v.push((i, j));
                    }
                }
                v
            }
            XYCoupling::Ring => {
                if n < 2 {
                    return Vec::new();
                }
                if n == 2 {
                    return vec![(0, 1)];
                }
                (0..n).map(|i| (i, (i + 1) % n)).collect()
            }
        }
    }

    fn label(&self) -> &'static str {
        match self {
            XYCoupling::Clique => "clique",
            XYCoupling::Ring => "ring",
        }
    }
}

/// Most Lanczos vectors a Clique apply can need: `min(k, n−k) + 1 ≤ 32` for the
/// `n ≤ 63` a [`DickeSubspace`] supports, plus one.
const MAX_KRYLOV: usize = 33;

/// A Lanczos residual at most this fraction of the spectral radius `2k(n−k)` ends the
/// run: the Krylov space is exhausted.  Rounding leaves residuals of a few `ε·‖H‖`.
const LANCZOS_BREAKDOWN: f64 = 1e-13;

thread_local! {
    /// Per-thread Lanczos basis and Ring rotation data; grown on demand and reused, so
    /// applies allocate nothing once a thread has warmed up.
    static BUFFER: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's reusable buffer, grown to at least `len` values.
fn with_buffer<R>(len: usize, f: impl FnOnce(&mut [Complex64]) -> R) -> R {
    BUFFER.with(|cell| {
        let mut buffer = cell.borrow_mut();
        if buffer.len() < len {
            buffer.resize(len, Complex64::ZERO);
        }
        f(&mut buffer[..len])
    })
}

/// `out[r] ← row(r, out[r])` for every row, in parallel when the kernel size allows.
/// Each row is computed independently, so the split never changes the bits.
fn map_rows<F>(out: &mut [Complex64], row: F)
where
    F: Fn(usize, Complex64) -> Complex64 + Sync + Send,
{
    if parallel_kernels_enabled(out.len()) {
        out.par_iter_mut()
            .enumerate()
            .for_each(|(r, z)| *z = row(r, *z));
    } else {
        out.iter_mut()
            .enumerate()
            .for_each(|(r, z)| *z = row(r, *z));
    }
}

/// `Σ_t x[idx[t]]`, in list order.
#[inline]
fn gather(x: &[Complex64], idx: &[u32]) -> Complex64 {
    idx.iter()
        .fold(Complex64::ZERO, |acc, &i| acc + x[i as usize])
}

/// `C(p, j)` from a [`pascal_table`], zero where `j > p`.
fn choose(pascal: &[Vec<u64>], p: usize, j: usize) -> u64 {
    pascal[p].get(j).copied().unwrap_or(0)
}

/// Appends the ranks of `word` with each set bit cleared, lowest bit first.
///
/// With set positions `p_0 < … < p_{w−1}`, `rank = Σ_j C(p_j, j+1)`; clearing `p_t`
/// keeps the lower terms and shifts every higher one to `C(p_j, j)`.
fn push_lowered(word: u64, pascal: &[Vec<u64>], out: &mut Vec<u32>) {
    let c = |p, j| choose(pascal, p, j);
    let mut upper: u64 = bits(word).enumerate().map(|(j, p)| c(p, j)).sum();
    let mut lower = 0u64;
    for (t, p) in bits(word).enumerate() {
        upper -= c(p, t);
        out.push((lower + upper) as u32);
        lower += c(p, t + 1);
    }
}

/// Appends the ranks of `word` with each clear bit below `n` set, lowest bit first.
///
/// Setting `q` with `s` set bits below it keeps those terms, adds `C(q, s+1)` and
/// shifts every higher set bit to `C(p_j, j+2)`.
fn push_raised(word: u64, n: usize, pascal: &[Vec<u64>], out: &mut Vec<u32>) {
    let c = |p, j| choose(pascal, p, j);
    let mut upper: u64 = bits(word).enumerate().map(|(j, p)| c(p, j + 2)).sum();
    let mut lower = 0u64;
    let mut below = 0usize;
    for q in 0..n {
        if (word >> q) & 1 == 1 {
            upper -= c(q, below + 2);
            lower += c(q, below + 1);
            below += 1;
        } else {
            out.push((lower + c(q, below + 1) + upper) as u32);
        }
    }
}

/// Set-bit positions of `word`, ascending.
fn bits(word: u64) -> impl Iterator<Item = usize> {
    let mut w = word;
    std::iter::from_fn(move || {
        (w != 0).then(|| {
            let p = w.trailing_zeros() as usize;
            w &= w - 1;
            p
        })
    })
}

/// The hop structure a matrix-free XY mixer keeps.
#[derive(Clone, Debug)]
enum Hops {
    /// `H = 2(AᵀA − shift)` with `A` the weight-k → adjacent-weight hop (lowering to
    /// `k−1`, or raising to `k+1` when `k > n/2`).  `to_adjacent[a·width..][..width]`
    /// lists the adjacent-weight neighbours of state `a`, and
    /// `from_adjacent[b·back..][..back]` the weight-k neighbours of adjacent state `b`.
    /// `width == 0` means `k ∈ {0, n}`, where `H = 0`.
    Clique {
        shift: f64,
        width: usize,
        to_adjacent: Vec<u32>,
        back: usize,
        from_adjacent: Vec<u32>,
        /// Largest Krylov dimension: `min(k, n−k) + 1`.
        krylov: usize,
        /// Residual norm that counts as a Lanczos breakdown.
        breakdown: f64,
    },
    /// `H = 2 Σ_bonds (σ⁺_iσ⁻_j + h.c.)`.  `bonds[b]` lists, for the ring's `b`-th
    /// coupled pair `(i, j)`, every state pair `(a, a')` with the excitation on `i` in
    /// `a` and moved to `j` in `a'`; bond `b < n−1` is `(b, b+1)`.
    Ring {
        bonds: Vec<Vec<(u32, u32)>>,
        /// The single-particle hopping matrix `h = modes·diag(energies)·modesᵀ`.
        modes: RealMatrix,
        energies: Vec<f64>,
    },
}

/// A Clique or Ring XY mixer on the weight-k Dicke subspace, applied without forming
/// or diagonalising its matrix (see the module docs).
#[derive(Clone, Debug)]
pub struct XYMixer {
    name: String,
    n: usize,
    dim: usize,
    hops: Hops,
}

impl XYMixer {
    /// Builds the mixer's hop structure in `O(C(n,k)·n)`.
    ///
    /// # Panics
    /// Panics if `k > n`, `n > 63`, or `C(n,k)` does not fit a `u32` index.
    fn new(n: usize, k: usize, coupling: XYCoupling) -> Self {
        assert!(k <= n, "Hamming weight k={k} exceeds qubit count n={n}");
        assert!(n <= 63, "XY mixers support at most 63 qubits");
        let dim = juliqaoa_combinatorics::binomial(n, k);
        assert!(
            dim <= u64::from(u32::MAX),
            "C({n},{k}) = {dim} states exceed the u32 hop index"
        );
        let hops = match coupling {
            XYCoupling::Clique => Self::clique_hops(n, k),
            XYCoupling::Ring => Self::ring_hops(n, k),
        };
        XYMixer {
            name: format!("{}({n},{k})", coupling.label()),
            n,
            dim: dim as usize,
            hops,
        }
    }

    /// The Clique mixer `Σ_{i<j} X_iX_j + Y_iY_j` on the weight-k subspace.
    pub fn clique(n: usize, k: usize) -> Self {
        Self::new(n, k, XYCoupling::Clique)
    }

    /// The Ring mixer `Σ_i X_iX_{i+1} + Y_iY_{i+1}` (cyclic) on the weight-k subspace.
    pub fn ring(n: usize, k: usize) -> Self {
        Self::new(n, k, XYCoupling::Ring)
    }

    fn clique_hops(n: usize, k: usize) -> Hops {
        let c = pascal_table(n);
        let width = k.min(n - k);
        let (mut to_adjacent, mut from_adjacent) = (Vec::new(), Vec::new());
        let (shift, back) = if width == 0 {
            (0.0, 0)
        } else if k <= n - k {
            for word in GosperIter::new(n, k) {
                push_lowered(word, &c, &mut to_adjacent);
            }
            for word in GosperIter::new(n, k - 1) {
                push_raised(word, n, &c, &mut from_adjacent);
            }
            (k as f64, n - k + 1)
        } else {
            for word in GosperIter::new(n, k) {
                push_raised(word, n, &c, &mut to_adjacent);
            }
            for word in GosperIter::new(n, k + 1) {
                push_lowered(word, &c, &mut from_adjacent);
            }
            ((n - k) as f64, k + 1)
        };
        to_adjacent.shrink_to_fit();
        from_adjacent.shrink_to_fit();
        Hops::Clique {
            shift,
            width,
            to_adjacent,
            back,
            from_adjacent,
            krylov: width + 1,
            breakdown: LANCZOS_BREAKDOWN * (2 * k * (n - k)) as f64,
        }
    }

    fn ring_hops(n: usize, k: usize) -> Hops {
        let pascal = pascal_table(n);
        let pairs = XYCoupling::Ring.pairs(n);
        let mut h = RealMatrix::zeros(n, n);
        for &(i, j) in &pairs {
            // The wrap-around bond's Jordan–Wigner string counts the other k−1
            // excitations; adjacent bonds have no string.
            let hop = if j == i + 1 || k % 2 == 1 { 2.0 } else { -2.0 };
            h[(i, j)] = hop;
            h[(j, i)] = hop;
        }
        let mut bonds = vec![Vec::new(); pairs.len()];
        for (rank, word) in GosperIter::new(n, k).enumerate() {
            for (bond, &(i, j)) in bonds.iter_mut().zip(&pairs) {
                if (word >> i) & 1 == 0 || (word >> j) & 1 == 1 {
                    continue;
                }
                let moved = if j == i + 1 {
                    // The excitation keeps its ordinal t among the set bits, so the rank
                    // grows by C(i+1, t+1) − C(i, t+1) = C(i, t).
                    let t = (word & ((1u64 << i) - 1)).count_ones() as usize;
                    rank as u64 + choose(&pascal, i, t)
                } else {
                    rank_combination(word ^ ((1u64 << i) | (1u64 << j)))
                };
                bond.push((rank as u32, moved as u32));
            }
        }
        bonds.iter_mut().for_each(Vec::shrink_to_fit);
        let eig = symmetric_eigen(&h);
        Hops::Ring {
            bonds,
            modes: eig.eigenvectors,
            energies: eig.eigenvalues,
        }
    }

    /// Mixer name (e.g. `"clique(6,3)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimension `C(n,k)` of the subspace the mixer acts on.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Heap bytes of the hop structure (the per-thread apply buffers are not counted).
    pub fn bytes(&self) -> usize {
        let words = match &self.hops {
            Hops::Clique {
                to_adjacent,
                from_adjacent,
                ..
            } => to_adjacent.capacity() + from_adjacent.capacity(),
            Hops::Ring {
                bonds,
                modes,
                energies,
            } => {
                bonds.iter().map(|b| 2 * b.capacity()).sum::<usize>()
                    + 2 * (modes.nrows() * modes.ncols() + energies.capacity())
            }
        };
        4 * words + self.name.capacity()
    }

    /// Applies `H_M` itself: `ψ ← H_M ψ`, using `scratch` as workspace.
    ///
    /// # Panics
    /// Panics if `state` or `scratch` do not match the mixer dimension.
    pub fn apply_hamiltonian(&self, state: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        assert_eq!(scratch.len(), self.dim, "scratch dimension mismatch");
        match &self.hops {
            Hops::Clique {
                shift,
                width,
                to_adjacent,
                back,
                from_adjacent,
                ..
            } => {
                if *width == 0 {
                    state.fill(Complex64::ZERO);
                    return;
                }
                // The adjacent weight's subspace is never larger than the weight-k one.
                let adjacent = &mut scratch[..from_adjacent.len() / back];
                let src: &[Complex64] = state;
                map_rows(adjacent, |b, _| {
                    gather(src, &from_adjacent[b * back..(b + 1) * back])
                });
                let adjacent: &[Complex64] = adjacent;
                map_rows(state, |a, z| {
                    gather(adjacent, &to_adjacent[a * width..(a + 1) * width]).scale(2.0)
                        - z.scale(2.0 * shift)
                });
            }
            Hops::Ring { bonds, .. } => {
                scratch.fill(Complex64::ZERO);
                for &(a, b) in bonds.iter().flatten() {
                    let (a, b) = (a as usize, b as usize);
                    scratch[a] += state[b];
                    scratch[b] += state[a];
                }
                for (z, s) in state.iter_mut().zip(scratch.iter()) {
                    *z = s.scale(2.0);
                }
            }
        }
    }

    /// Applies `e^{-iβ H_M}` to the state, using `scratch` as workspace.
    ///
    /// # Panics
    /// Panics if `state` or `scratch` do not match the mixer dimension.
    pub fn apply_evolution(&self, beta: f64, state: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        assert_eq!(scratch.len(), self.dim, "scratch dimension mismatch");
        if beta == 0.0 {
            return;
        }
        match &self.hops {
            Hops::Clique { width: 0, .. } => {}
            Hops::Clique { krylov, .. } => {
                with_buffer((krylov + 1) * self.dim, |basis| {
                    self.lanczos_evolution(beta, state, scratch, basis)
                });
            }
            Hops::Ring { bonds, .. } if bonds.iter().all(Vec::is_empty) => {}
            Hops::Ring { .. } => {
                let n = self.n;
                with_buffer(n * n + n + n * (n - 1), |work| {
                    self.fermion_evolution(beta, state, work)
                });
            }
        }
    }

    /// The Lanczos process on `state` (Clique only): fills `basis` with the orthonormal
    /// Krylov vectors and returns the tridiagonal projection of `H`.
    fn lanczos(
        &self,
        state: &[Complex64],
        scratch: &mut [Complex64],
        basis: &mut [Complex64],
    ) -> Tridiagonal {
        let Hops::Clique {
            krylov, breakdown, ..
        } = &self.hops
        else {
            unreachable!("Lanczos runs only on the Clique mixer")
        };
        let dim = self.dim;
        let mut t = Tridiagonal {
            alpha: [0.0; MAX_KRYLOV],
            beta: [0.0; MAX_KRYLOV],
            steps: 0,
            norm: vector::norm(state),
        };
        if t.norm == 0.0 {
            return t;
        }
        let inv = 1.0 / t.norm;
        map_rows(&mut basis[..dim], |x, _| state[x].scale(inv));
        for j in 0..*krylov {
            let (done, rest) = basis.split_at_mut((j + 1) * dim);
            let w = &mut rest[..dim];
            let q_j = &done[j * dim..];
            w.copy_from_slice(q_j);
            self.apply_hamiltonian(w, scratch);
            t.steps = j + 1;
            if j + 1 == *krylov {
                // The last Krylov vector: the space is exhausted, only α is needed.
                t.alpha[j] = vector::inner(q_j, w).re;
                break;
            }
            // Full reorthogonalisation: two modified Gram–Schmidt passes.
            for _ in 0..2 {
                for i in 0..=j {
                    let q_i = &done[i * dim..(i + 1) * dim];
                    let c = vector::inner(q_i, w);
                    if i == j {
                        t.alpha[j] += c.re;
                    }
                    vector::axpy(-c, q_i, w);
                }
            }
            let residual = vector::norm(w);
            if residual <= *breakdown {
                break;
            }
            t.beta[j] = residual;
            vector::scale(w, 1.0 / residual);
        }
        t
    }

    /// `ψ ← ‖ψ‖·Q·e^{−iβT}·e₁` from the Lanczos projection `T` of `H` on `ψ`'s Krylov
    /// space.
    fn lanczos_evolution(
        &self,
        beta: f64,
        state: &mut [Complex64],
        scratch: &mut [Complex64],
        basis: &mut [Complex64],
    ) {
        let t = self.lanczos(state, scratch, basis);
        let s = t.steps;
        if s == 0 {
            return;
        }
        let (mut d, mut e) = (t.alpha, t.beta);
        let mut z = [0.0; MAX_KRYLOV * MAX_KRYLOV];
        tridiagonal_eigen(&mut d[..s], &mut e[..s], &mut z[..s * s]);
        // e^{−iβT}e₁ = Z·e^{−iβΛ}·Zᵀe₁, and Zᵀe₁ is Z's first row.
        let mut coef = [Complex64::ZERO; MAX_KRYLOV];
        for (i, c) in coef.iter_mut().take(s).enumerate() {
            *c = (0..s).fold(Complex64::ZERO, |acc, l| {
                acc + Complex64::cis(-beta * d[l]).scale(z[i * s + l] * z[l])
            });
            *c = c.scale(t.norm);
        }
        let dim = self.dim;
        let basis: &[Complex64] = basis;
        map_rows(state, |x, _| {
            (0..s).fold(Complex64::ZERO, |acc, i| acc + coef[i] * basis[i * dim + x])
        });
    }

    /// `ψ ← Γ(e^{−iβh})ψ`, the `k`-particle action of the single-particle propagator
    /// (Ring only).
    ///
    /// A Givens QR sweep over adjacent rows reduces `U = e^{−iβh}` to the identity:
    /// every rotation is in SU(2), so the remaining diagonal has unit entries and
    /// determinant `det U = e^{−iβ·tr h} = 1`.  Hence `U = G_1†⋯G_M†`, and `Γ(U)` is
    /// the rotations `G_M†, …, G_1†` applied in turn, each on its bond's state pairs.
    fn fermion_evolution(&self, beta: f64, state: &mut [Complex64], work: &mut [Complex64]) {
        let Hops::Ring {
            bonds,
            modes,
            energies,
        } = &self.hops
        else {
            unreachable!("fermion evolution runs only on the Ring mixer")
        };
        let n = self.n;
        let (u, rest) = work.split_at_mut(n * n);
        let (phases, rotations) = rest.split_at_mut(n);
        // U = V·e^{−iβΛ}·Vᵀ.
        for (phase, &energy) in phases.iter_mut().zip(energies.iter()) {
            *phase = Complex64::cis(-beta * energy);
        }
        for a in 0..n {
            for b in 0..n {
                u[a * n + b] = (0..n).fold(Complex64::ZERO, |acc, m| {
                    acc + phases[m].scale(modes[(a, m)] * modes[(b, m)])
                });
            }
        }
        // G_M⋯G_1·U = I: rotation (r−1, r) with g = [[x̄, ȳ], [−y, x]]/ρ zeroes U[r][c].
        let mut count = 0;
        for c in 0..n - 1 {
            for r in (c + 1..n).rev() {
                let (x, y) = (u[(r - 1) * n + c], u[r * n + c]);
                let rho = (x.norm_sqr() + y.norm_sqr()).sqrt();
                let (x, y) = if rho == 0.0 {
                    (Complex64::ONE, Complex64::ZERO)
                } else {
                    (x.scale(1.0 / rho), y.scale(1.0 / rho))
                };
                for col in c..n {
                    let (p, q) = (u[(r - 1) * n + col], u[r * n + col]);
                    u[(r - 1) * n + col] = x.conj() * p + y.conj() * q;
                    u[r * n + col] = x * q - y * p;
                }
                rotations[2 * count] = x;
                rotations[2 * count + 1] = y;
                count += 1;
            }
        }
        // Γ(G†) with G† = [[x, −ȳ], [y, x̄]] on modes (r−1, r): the pair with the
        // excitation on r−1 and on r mixes; empty and doubly occupied bonds (det = 1)
        // stay put.
        for c in (0..n - 1).rev() {
            for r in c + 1..n {
                count -= 1;
                let (x, y) = (rotations[2 * count], rotations[2 * count + 1]);
                for &(a, b) in &bonds[r - 1] {
                    let (a, b) = (a as usize, b as usize);
                    let (p, q) = (state[a], state[b]);
                    state[a] = x * p - y.conj() * q;
                    state[b] = y * p + x.conj() * q;
                }
            }
        }
    }
}

/// The Lanczos projection of the Clique Hamiltonian onto one state's Krylov space.
struct Tridiagonal {
    /// Diagonal `α_j = ⟨q_j|H|q_j⟩`.
    alpha: [f64; MAX_KRYLOV],
    /// Couplings `β_j` between `q_j` and `q_{j+1}`.
    beta: [f64; MAX_KRYLOV],
    /// Krylov vectors built (0 for a zero state).
    steps: usize,
    /// `‖ψ‖`.
    norm: f64,
}

/// Builds the XY mixer Hamiltonian as a dense real symmetric matrix on the weight-k
/// subspace.  `X_iX_j + Y_iY_j` contributes a matrix element `2` between any two
/// feasible states related by hopping a single excitation between qubits `i` and `j`.
///
/// The mixers themselves never build this `O(dim²)` matrix; it is the reference that
/// tests compare [`XYMixer`] against.
pub fn build_xy_hamiltonian(subspace: &DickeSubspace, coupling: XYCoupling) -> RealMatrix {
    let dim = subspace.dim();
    let pairs = coupling.pairs(subspace.n());
    let mut h = RealMatrix::zeros(dim, dim);
    for (a, state) in subspace.iter() {
        for &(i, j) in &pairs {
            let bi = (state >> i) & 1;
            let bj = (state >> j) & 1;
            if bi == bj {
                continue;
            }
            let hopped = state ^ ((1u64 << i) | (1u64 << j));
            let b = subspace.index_of(hopped);
            h[(a, b)] += 2.0;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custom::CustomMixer;
    use juliqaoa_linalg::vector::{fill_uniform, max_abs_diff, norm};

    fn test_state(dim: usize, seed: u64) -> Vec<Complex64> {
        // A deterministic, generic (all-eigenspace) state.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut v: Vec<Complex64> = (0..dim).map(|_| Complex64::new(next(), next())).collect();
        vector::normalize(&mut v);
        v
    }

    fn dense_reference(n: usize, k: usize, coupling: XYCoupling) -> crate::SubspaceMixer {
        let h = build_xy_hamiltonian(&DickeSubspace::new(n, k), coupling);
        CustomMixer::from_symmetric("dense", &h)
    }

    /// The distinct eigenvalues of the Clique mixer on the weight-k subspace of `n` qubits,
    /// `2k(n−k) − 2j(n+1−j)` for `j = 0..=min(k, n−k)`, largest first.
    fn clique_spectrum(n: usize, k: usize) -> Vec<f64> {
        (0..=k.min(n - k))
            .map(|j| 2.0 * (k * (n - k)) as f64 - 2.0 * (j * (n + 1 - j)) as f64)
            .collect()
    }

    #[test]
    fn coupling_pair_counts() {
        assert_eq!(XYCoupling::Clique.pairs(6).len(), 15);
        assert_eq!(XYCoupling::Ring.pairs(6).len(), 6);
        assert_eq!(XYCoupling::Ring.pairs(2).len(), 1);
        assert_eq!(XYCoupling::Ring.pairs(1).len(), 0);
    }

    #[test]
    fn xy_hamiltonian_is_symmetric_with_zero_diagonal() {
        let sub = DickeSubspace::new(6, 3);
        for coupling in [XYCoupling::Clique, XYCoupling::Ring] {
            let h = build_xy_hamiltonian(&sub, coupling);
            assert!(h.is_symmetric(1e-12));
            for a in 0..sub.dim() {
                assert_eq!(h[(a, a)], 0.0);
            }
        }
    }

    #[test]
    fn clique_row_sums_equal_2k_times_n_minus_k() {
        // Every weight-k state has k·(n−k) hop neighbours under the Clique coupling, each
        // contributing 2, so every row sums to 2·k·(n−k).
        let n = 6;
        let k = 2;
        let sub = DickeSubspace::new(n, k);
        let h = build_xy_hamiltonian(&sub, XYCoupling::Clique);
        for a in 0..sub.dim() {
            let row_sum: f64 = (0..sub.dim()).map(|b| h[(a, b)]).sum();
            assert_eq!(row_sum, 2.0 * (k * (n - k)) as f64);
        }
    }

    #[test]
    fn dicke_state_is_clique_eigenvector() {
        // The uniform superposition over the subspace is the top eigenvector of the
        // Clique mixer with eigenvalue 2k(n−k): one Lanczos step exhausts its Krylov
        // space, and evolution only multiplies it by a phase.
        let n = 6;
        let k = 3;
        let mixer = XYMixer::clique(n, k);
        let top = clique_spectrum(n, k)[0];
        assert_eq!(top, 2.0 * (k * (n - k)) as f64);

        let mut state = vec![Complex64::ZERO; mixer.dim()];
        fill_uniform(&mut state);
        let mut scratch = vec![Complex64::ZERO; mixer.dim()];
        let mut basis = vec![Complex64::ZERO; (k + 2) * mixer.dim()];
        let t = mixer.lanczos(&state, &mut scratch, &mut basis);
        assert_eq!(t.steps, 1);
        assert!((t.alpha[0] - top).abs() < 1e-12);

        let mut evolved = state.clone();
        let beta = 0.63;
        mixer.apply_evolution(beta, &mut evolved, &mut scratch);
        // Should equal e^{-iβ·top}·state.
        let phase = Complex64::cis(-beta * top);
        for (a, b) in evolved.iter().zip(state.iter()) {
            assert!((*a - phase * *b).abs() < 1e-12);
        }
    }

    #[test]
    fn clique_spectrum_formula_and_lanczos_step_count_for_every_small_subspace() {
        for n in 1..=10 {
            for k in 0..=n {
                // Distinct eigenvalues of the dense reference, clustered at 1e-6.
                let dense = dense_reference(n, k, XYCoupling::Clique);
                let mut distinct: Vec<f64> = Vec::new();
                for &lambda in dense.eigenvalues().iter().rev() {
                    if distinct.last().is_none_or(|&last| last - lambda > 1e-6) {
                        distinct.push(lambda);
                    }
                }
                let formula = clique_spectrum(n, k);
                assert_eq!(distinct.len(), formula.len(), "({n},{k})");
                for (got, want) in distinct.iter().zip(formula.iter()) {
                    assert!((got - want).abs() < 1e-9, "({n},{k}): {got} vs {want}");
                }
                // A generic state touches every eigenspace, so the Lanczos run takes
                // exactly min(k, n−k) + 1 steps and its Ritz values are the spectrum.
                let mixer = XYMixer::clique(n, k);
                let dim = mixer.dim();
                let state = test_state(dim, (n * 11 + k) as u64);
                let mut scratch = vec![Complex64::ZERO; dim];
                let mut basis = vec![Complex64::ZERO; (k.min(n - k) + 2) * dim];
                let t = mixer.lanczos(&state, &mut scratch, &mut basis);
                let steps = t.steps;
                assert_eq!(steps, k.min(n - k) + 1, "({n},{k})");
                let (mut d, mut e, mut z) = (t.alpha, t.beta, vec![0.0; steps * steps]);
                tridiagonal_eigen(&mut d[..steps], &mut e[..steps], &mut z);
                let mut ritz = d[..steps].to_vec();
                ritz.reverse();
                for (got, want) in ritz.iter().zip(formula.iter()) {
                    assert!((got - want).abs() < 1e-9, "({n},{k}) Ritz {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn evolution_is_unitary_for_both_mixers() {
        for mixer in [XYMixer::clique(6, 3), XYMixer::ring(6, 3)] {
            let dim = mixer.dim();
            let mut state: Vec<Complex64> = (0..dim)
                .map(|i| Complex64::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
                .collect();
            vector::normalize(&mut state);
            let mut scratch = vec![Complex64::ZERO; dim];
            mixer.apply_evolution(1.234, &mut state, &mut scratch);
            assert!((norm(&state) - 1.0).abs() < 1e-12, "{}", mixer.name());
        }
    }

    #[test]
    fn zero_angle_evolution_is_identity() {
        let mixer = XYMixer::ring(5, 2);
        let dim = mixer.dim();
        let orig: Vec<Complex64> = (0..dim)
            .map(|i| Complex64::new(i as f64 * 0.2 - 0.5, 0.3 * i as f64))
            .collect();
        let mut state = orig.clone();
        let mut scratch = vec![Complex64::ZERO; dim];
        mixer.apply_evolution(0.0, &mut state, &mut scratch);
        assert_eq!(state, orig);
    }

    #[test]
    fn apply_hamiltonian_matches_dense_matrix() {
        for (n, k) in [(5, 2), (6, 4), (7, 3), (4, 0), (4, 4)] {
            let sub = DickeSubspace::new(n, k);
            for coupling in [XYCoupling::Clique, XYCoupling::Ring] {
                let h = build_xy_hamiltonian(&sub, coupling);
                let mixer = XYMixer::new(n, k, coupling);
                let dim = sub.dim();
                let state: Vec<Complex64> = (0..dim)
                    .map(|i| Complex64::new(0.1 * i as f64, 1.0 - 0.05 * i as f64))
                    .collect();
                // Dense reference: H·ψ.
                let mut expected = vec![Complex64::ZERO; dim];
                h.matvec_complex(&state, &mut expected);
                let mut got = state;
                let mut scratch = vec![Complex64::ZERO; dim];
                mixer.apply_hamiltonian(&mut got, &mut scratch);
                assert!(max_abs_diff(&got, &expected) < 1e-12, "{}", mixer.name());
            }
        }
    }

    #[test]
    fn ring_bonds_list_every_hop_of_the_dense_hamiltonian() {
        // Each bond pair is a nonzero entry of the dense matrix, and together the bonds
        // cover all of them (every entry is 2, so row sums count hops).
        for (n, k) in [(2, 1), (3, 2), (6, 2), (7, 4), (8, 4)] {
            let sub = DickeSubspace::new(n, k);
            let h = build_xy_hamiltonian(&sub, XYCoupling::Ring);
            let Hops::Ring { bonds, .. } = XYMixer::ring(n, k).hops else {
                unreachable!()
            };
            let mut hops = vec![0.0; sub.dim()];
            for &(a, b) in bonds.iter().flatten() {
                assert_eq!(h[(a as usize, b as usize)], 2.0);
                hops[a as usize] += 2.0;
                hops[b as usize] += 2.0;
            }
            for (a, &count) in hops.iter().enumerate() {
                let row_sum: f64 = (0..sub.dim()).map(|b| h[(a, b)]).sum();
                assert_eq!(count, row_sum, "({n},{k}) row {a}");
            }
        }
    }

    #[test]
    fn ring_evolution_cost_does_not_grow_with_the_angle() {
        // Optimizers do reach |β| ~ 1e5; the free-fermion evolution must stay exact
        // and unitary there (a polynomial expansion would need ~1e6 terms).
        let dense = dense_reference(8, 3, XYCoupling::Ring);
        let mixer = XYMixer::ring(8, 3);
        let dim = mixer.dim();
        let orig = test_state(dim, 9);
        let (mut a, mut b) = (orig.clone(), orig);
        let mut scratch = vec![Complex64::ZERO; dim];
        let beta = 1.234e5;
        mixer.apply_evolution(beta, &mut a, &mut scratch);
        dense.apply_evolution(beta, &mut b, &mut scratch);
        assert!((norm(&a) - 1.0).abs() < 1e-12);
        // Both paths carry a phase error of about β·ε·‖H‖.
        assert!(max_abs_diff(&a, &b) < 1e-8, "{}", max_abs_diff(&a, &b));
    }

    #[test]
    fn hamming_weight_conservation_under_hops() {
        // Every nonzero off-diagonal entry connects two states of the same weight by
        // construction; verify indices map to weight-k states.
        let sub = DickeSubspace::new(6, 2);
        let h = build_xy_hamiltonian(&sub, XYCoupling::Clique);
        for a in 0..sub.dim() {
            for b in 0..sub.dim() {
                if h[(a, b)] != 0.0 {
                    assert_eq!(sub.state_at(a).count_ones(), 2);
                    assert_eq!(sub.state_at(b).count_ones(), 2);
                }
            }
        }
    }

    #[test]
    fn ring_is_sparser_than_clique() {
        let sub = DickeSubspace::new(7, 3);
        let clique = build_xy_hamiltonian(&sub, XYCoupling::Clique);
        let ring = build_xy_hamiltonian(&sub, XYCoupling::Ring);
        let nnz = |m: &RealMatrix| {
            let mut c = 0;
            for i in 0..m.nrows() {
                for j in 0..m.ncols() {
                    if m[(i, j)] != 0.0 {
                        c += 1;
                    }
                }
            }
            c
        };
        assert!(nnz(&ring) < nnz(&clique));
    }

    #[test]
    fn large_subspaces_build_and_evolve_reversibly() {
        // Sizes a dense eigendecomposition cannot reach in a test (minutes, ~19 GB).
        for (n, k) in [(16, 8), (18, 9)] {
            for mixer in [crate::Mixer::clique(n, k), crate::Mixer::ring(n, k)] {
                if (n, k) == (18, 9) {
                    assert!(mixer.bytes() < 64 << 20, "{} bytes", mixer.bytes());
                }
                let dim = mixer.dim();
                let orig = test_state(dim, n as u64);
                let mut state = orig.clone();
                let mut scratch = vec![Complex64::ZERO; dim];
                mixer.apply_evolution(0.05, &mut state, &mut scratch);
                assert!((norm(&state) - 1.0).abs() < 1e-12, "{}", mixer.name());
                assert!(max_abs_diff(&state, &orig) > 1e-3, "{}", mixer.name());
                mixer.apply_evolution(-0.05, &mut state, &mut scratch);
                assert!(max_abs_diff(&state, &orig) < 1e-12, "{}", mixer.name());
            }
        }
    }
}
