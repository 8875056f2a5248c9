//! The bounded drop-oldest ring behind [`crate::span::SpanCollector`].
//!
//! It keeps the most recent `capacity` entries and counts what it had to drop.
//! Pushes take a short mutex — they happen per span, never inside simulation
//! kernels.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A fixed-capacity, drop-oldest ring of events.
#[derive(Debug)]
pub struct TraceRing<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
}

#[derive(Debug)]
struct Inner<T> {
    buf: VecDeque<T>,
    dropped: u64,
}

impl<T: Clone> TraceRing<T> {
    /// A ring holding at most `capacity` events (must be ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "trace ring needs capacity >= 1");
        TraceRing {
            inner: Mutex::new(Inner {
                buf: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Appends an event, evicting the oldest if full.
    pub fn push(&self, event: T) {
        let mut inner = self.inner.lock().expect("trace ring poisoned");
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        let inner = self.inner.lock().expect("trace ring poisoned");
        inner.buf.iter().cloned().collect()
    }

    /// How many events have been evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace ring poisoned").buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_most_recent_events_in_order() {
        let ring = TraceRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot(), vec![2, 3, 4]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn seq_gaps_at_the_ring_head_equal_the_dropped_count() {
        // A producer that numbers its pushes can detect loss by comparing
        // the first retained number against `dropped`: after overflow, the
        // gap below the oldest retained entry is exactly the number of
        // evictions.
        let ring = TraceRing::new(4);
        for seq in 0u64..11 {
            ring.push(seq);
        }
        let snapshot = ring.snapshot();
        assert_eq!(snapshot, vec![7, 8, 9, 10]);
        assert_eq!(
            snapshot[0],
            ring.dropped(),
            "first retained seq must equal the evicted count"
        );
        // Retained seqs are gap-free: every gap sits before the ring head.
        for pair in snapshot.windows(2) {
            assert_eq!(pair[1], pair[0] + 1);
        }
        // Before any eviction there is no gap at all.
        let fresh = TraceRing::new(4);
        fresh.push(0u64);
        fresh.push(1u64);
        assert_eq!(fresh.snapshot()[0], fresh.dropped());
    }

    #[test]
    fn concurrent_pushes_lose_nothing_beyond_capacity() {
        let ring = std::sync::Arc::new(TraceRing::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        ring.push(t * 100 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.len(), 64);
        assert_eq!(ring.dropped(), 400 - 64);
    }
}
