//! Work partitioning for multi-threaded pre-computation.
//!
//! Section 2.4 of the paper notes that degeneracy counting "can be easily spread across
//! many threads or GPUs": for unconstrained problems the integer range `0..2ⁿ` is split
//! into contiguous chunks, and for Hamming-weight-k problems Gosper's hack is used to
//! walk each worker's share of the weight-k words.  These helpers produce those shares.

use crate::binomial::binomial;
use crate::ranking::unrank_combination;

/// A contiguous range of (dense) state indices assigned to one worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// First index (inclusive).
    pub start: u64,
    /// One past the last index (exclusive).
    pub end: u64,
}

impl Chunk {
    /// Number of states in the chunk.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Splits the range `0..total` into at most `workers` near-equal contiguous chunks.
///
/// Every index is covered exactly once; chunks differ in size by at most one.  Empty
/// chunks are omitted, so fewer than `workers` chunks are returned when `total` is small.
pub fn split_range(total: u64, workers: usize) -> Vec<Chunk> {
    if total == 0 || workers == 0 {
        return Vec::new();
    }
    let workers = workers.min(total as usize);
    let base = total / workers as u64;
    let extra = total % workers as u64;
    let mut chunks = Vec::with_capacity(workers);
    let mut start = 0u64;
    for w in 0..workers as u64 {
        let len = base + if w < extra { 1 } else { 0 };
        let end = start + len;
        if len > 0 {
            chunks.push(Chunk { start, end });
        }
        start = end;
    }
    chunks
}

/// Splits the full computational basis `0..2ⁿ` across workers.
pub fn partition_full_space(n: usize, workers: usize) -> Vec<Chunk> {
    assert!(n < 64);
    split_range(1u64 << n, workers)
}

/// Splits the weight-`k` subspace of `n`-bit words across workers, returning for each
/// chunk the *starting word* (obtained by unranking) and the number of words to visit
/// with Gosper's hack from there.
pub fn partition_dicke_space(n: usize, k: usize, workers: usize) -> Vec<(u64, u64)> {
    let total = binomial(n, k);
    split_range(total, workers)
        .into_iter()
        .map(|c| (unrank_combination(c.start, k), c.len()))
        .collect()
}

/// Iterates the `count` weight-k words starting from `start_word` (inclusive) using
/// Gosper's hack; the worker-side companion to [`partition_dicke_space`].
pub fn dicke_chunk_iter(start_word: u64, count: u64) -> impl Iterator<Item = u64> {
    let mut current = start_word;
    let mut remaining = count;
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        remaining -= 1;
        let out = current;
        if remaining > 0 {
            current = crate::gosper::next_same_weight(current);
        }
        Some(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gosper::GosperIter;

    #[test]
    fn split_range_covers_everything_once() {
        for total in [0u64, 1, 7, 16, 100, 1023] {
            for workers in [1usize, 2, 3, 8, 200] {
                let chunks = split_range(total, workers);
                let mut covered = 0u64;
                let mut expected_start = 0u64;
                for c in &chunks {
                    assert_eq!(c.start, expected_start);
                    assert!(!c.is_empty());
                    covered += c.len();
                    expected_start = c.end;
                }
                assert_eq!(covered, total);
            }
        }
    }

    #[test]
    fn split_range_is_balanced() {
        let chunks = split_range(103, 10);
        let sizes: Vec<u64> = chunks.iter().map(|c| c.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn zero_workers_yields_nothing() {
        assert!(split_range(10, 0).is_empty());
        assert!(split_range(0, 4).is_empty());
    }

    #[test]
    fn full_space_partition_counts() {
        let chunks = partition_full_space(10, 4);
        let total: u64 = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 1 << 10);
    }

    #[test]
    fn dicke_partition_workers_cover_whole_subspace() {
        let n = 10;
        let k = 4;
        let mut all: Vec<u64> = Vec::new();
        for (start, count) in partition_dicke_space(n, k, 3) {
            all.extend(dicke_chunk_iter(start, count));
        }
        let expected: Vec<u64> = GosperIter::new(n, k).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn dicke_partition_single_worker_equals_gosper() {
        let n = 8;
        let k = 3;
        let parts = partition_dicke_space(n, k, 1);
        assert_eq!(parts.len(), 1);
        let words: Vec<u64> = dicke_chunk_iter(parts[0].0, parts[0].1).collect();
        let expected: Vec<u64> = GosperIter::new(n, k).collect();
        assert_eq!(words, expected);
    }

    #[test]
    fn dicke_chunk_iter_respects_count() {
        let words: Vec<u64> = dicke_chunk_iter(0b0111, 3).collect();
        assert_eq!(words, vec![0b0111, 0b1011, 0b1101]);
    }

    #[test]
    fn more_workers_than_states() {
        let chunks = partition_dicke_space(4, 2, 100);
        let total: u64 = chunks.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 6);
        assert!(chunks.len() <= 6);
    }
}
