//! Completion-event priority structures of the event-driven WDEQ lane
//! ([`crate::algos::wdeq`]).
//!
//! The quadratic reference rescans the full active set on every
//! completion event; the event lane instead keeps *predicted finish
//! keys* in a 4-ary min-heap and handle each event in `O(log n)`. Keys
//! are generic over [`Scalar`], ordered by [`Scalar::total_cmp_s`] with
//! the task id as a deterministic tie-break, so the exact (`Rational`)
//! instantiation pops events in exactly the order the quadratic replay
//! discovers them. The arity is a large-`n` cache choice: four 16-byte
//! `f64` entries share one cache line and the tree is half as deep as a
//! binary heap, which is what keeps the measured wall-time exponent of
//! the `n = 10⁵…10⁶` scaling ladder near its `O(n log n)` ideal.
//!
//! Entries are *lazily deleted*: when a task changes regime (e.g. a WDEQ
//! task is promoted from equipartition-limited to δ-saturated) its stale
//! entry stays in the heap and is discarded on pop via the caller's
//! validity test. Each task pushes `O(1)` entries per regime change, so
//! heap size stays `O(n)`.

use numkit::Scalar;
use std::cmp::Ordering;

/// Heap arity. Four children per node: the whole sibling group of `f64`
/// entries lands in one cache line, and the tree depth halves relative to
/// a binary heap.
const ARITY: usize = 4;

/// A heap entry: predicted event time (or virtual time) plus the task id.
#[derive(Debug, Clone)]
struct Entry<S> {
    key: S,
    id: usize,
}

/// `a` strictly before `b`: earlier key, ties by ascending task id (so
/// event order is deterministic across scalar instantiations).
fn before<S: Scalar>(a: &Entry<S>, b: &Entry<S>) -> bool {
    match a.key.total_cmp_s(&b.key) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => a.id < b.id,
    }
}

/// A min-heap of `(key, id)` events with lazy deletion.
#[derive(Debug, Clone)]
pub(crate) struct EventHeap<S> {
    heap: Vec<Entry<S>>,
}

impl<S: Scalar> EventHeap<S> {
    pub(crate) fn with_capacity(n: usize) -> Self {
        EventHeap {
            heap: Vec::with_capacity(n),
        }
    }

    pub(crate) fn push(&mut self, key: S, id: usize) {
        self.heap.push(Entry { key, id });
        let mut k = self.heap.len() - 1;
        while k > 0 {
            let parent = (k - 1) / ARITY;
            if before(&self.heap[k], &self.heap[parent]) {
                self.heap.swap(k, parent);
                k = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut k: usize) {
        let len = self.heap.len();
        loop {
            let first = k * ARITY + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for c in (first + 1)..(first + ARITY).min(len) {
                if before(&self.heap[c], &self.heap[best]) {
                    best = c;
                }
            }
            if before(&self.heap[best], &self.heap[k]) {
                self.heap.swap(best, k);
                k = best;
            } else {
                break;
            }
        }
    }

    /// The earliest entry whose id still passes `valid`, discarding stale
    /// entries on the way. Returns `(key, id)` without removing it.
    pub(crate) fn peek_valid(&mut self, valid: impl Fn(usize) -> bool) -> Option<(&S, usize)> {
        while let Some(top) = self.heap.first() {
            if valid(top.id) {
                break;
            }
            self.pop();
        }
        self.heap.first().map(|e| (&e.key, e.id))
    }

    /// Remove and return the top entry (caller has already peeked it).
    pub(crate) fn pop(&mut self) -> Option<(S, usize)> {
        if self.heap.is_empty() {
            return None;
        }
        let e = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((e.key, e.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_ascending_key_order_with_id_ties() {
        let mut h = EventHeap::with_capacity(4);
        h.push(2.0, 7);
        h.push(1.0, 9);
        h.push(1.0, 3);
        h.push(3.0, 1);
        let mut out = Vec::new();
        while let Some((k, id)) = h.peek_valid(|_| true).map(|(k, id)| (*k, id)) {
            h.pop();
            out.push((k, id));
        }
        assert_eq!(out, vec![(1.0, 3), (1.0, 9), (2.0, 7), (3.0, 1)]);
    }

    #[test]
    fn lazy_deletion_skips_stale_entries() {
        let mut h = EventHeap::with_capacity(4);
        h.push(1.0, 0);
        h.push(2.0, 1);
        // Entry 0 goes stale; peek must discard it.
        let top = h.peek_valid(|id| id != 0).map(|(k, id)| (*k, id));
        assert_eq!(top, Some((2.0, 1)));
        assert_eq!(h.pop(), Some((2.0, 1)));
        assert!(h.peek_valid(|_| true).is_none());
    }

    #[test]
    fn heap_property_survives_interleaved_push_pop() {
        // Deterministic pseudo-random workload stressing sift paths past
        // one sibling group deep.
        let mut h = EventHeap::with_capacity(64);
        let mut state = 88172645463325252u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut popped = Vec::new();
        for round in 0..200 {
            h.push((rnd() % 1000) as f64, round);
            if round % 3 == 0 {
                if let Some((k, _)) = h.pop() {
                    popped.push(k);
                }
            }
        }
        while let Some((k, _)) = h.pop() {
            popped.push(k);
        }
        assert_eq!(popped.len(), 200);
        // Drain-tail is fully sorted (the interleaved prefix need not be).
        let tail = &popped[popped.len() - 133..];
        assert!(tail.windows(2).all(|w| w[0] <= w[1]));
    }
}
