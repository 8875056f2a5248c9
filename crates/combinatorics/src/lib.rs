//! Bitstring and Hamming-weight-subspace combinatorics for QAOA simulation.
//!
//! Constrained optimization problems (Densest-k-Subgraph, Max-k-Vertex-Cover, …) live in
//! the Dicke subspace of all n-bit strings with Hamming weight k.  JuliQAOA never
//! represents those problems in the full `2ⁿ` space: cost vectors, mixer matrices and
//! statevectors are all indexed by the `C(n,k)` feasible states.  This crate provides the
//! machinery for that indexing:
//!
//! * [`bits`] — single-bit manipulation and conversions between integers and 0/1 arrays;
//! * [`mod@binomial`] — binomial coefficients with overflow-checked u128 arithmetic;
//! * [`gosper`] — Gosper's hack, iterating all weight-k words in lexicographic order
//!   (§2.4 of the paper uses it to partition degeneracy counting across workers);
//! * [`ranking`] — the combinatorial number system: a bijection between weight-k words
//!   and indices `0..C(n,k)`;
//! * [`dicke`] — a [`dicke::DickeSubspace`] bundling the above into the index map used by
//!   the constrained simulator and mixer builders;
//! * [`partition`] — splitting full-space or subspace enumeration into balanced chunks
//!   for multi-threaded pre-computation;
//! * [`seeding`] — the workspace's frozen seed-derivation scheme for named RNG
//!   substreams (paper instance families, per-shard sampling streams).

pub mod binomial;
pub mod bits;
pub mod dicke;
pub mod gosper;
pub mod partition;
pub mod ranking;
pub mod seeding;

pub use binomial::binomial;
pub use dicke::DickeSubspace;
pub use gosper::GosperIter;
pub use ranking::{rank_combination, unrank_combination};
pub use seeding::{derive_stream_seed, fold_bits};
