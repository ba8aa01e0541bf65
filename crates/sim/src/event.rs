//! The time-ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A binary heap of `(time, event)` pairs: `O(log n)` per operation
/// whatever the push pattern. No engine runs on it. It is the
/// independent reference [`CalendarQueue`](crate::CalendarQueue) is
/// tested and benchmarked against, and it pops what the calendar pops
/// for the same pushes, in the order the calendar's docs define.
///
/// # Example
///
/// ```
/// use spinn_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::new(10), "b");
/// q.push(SimTime::new(5), "a");
/// q.push(SimTime::new(10), "c");
/// assert_eq!(q.pop(), Some((SimTime::new(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::new(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime::new(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    peak: usize,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    rank: u128,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.rank == other.rank && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest
        // (time, rank, seq) pops first.
        (other.time, other.rank, other.seq).cmp(&(self.time, self.rank, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            peak: 0,
        }
    }

    /// Schedules `event` at absolute time `time` (rank 0: FIFO among
    /// unranked same-instant events).
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_ranked(time, 0, event);
    }

    /// Schedules `event` at `time` with a content-derived tie-break
    /// `rank` (see the type-level docs).
    pub fn push_ranked(&mut self, time: SimTime, rank: u128, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time,
            rank,
            seq,
            event,
        });
        self.peak = self.peak.max(self.heap.len());
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Occupancy high-water mark (see
    /// [`CalendarQueue::peak_len`](crate::CalendarQueue::peak_len)).
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Removes every pending event and resets the insertion-order
    /// counter, returning the queue to its freshly-constructed state.
    ///
    /// Resetting the counter matters for replayability: a model that
    /// reuses a queue after `clear()` gets the same FIFO tie-break
    /// "seeds" as a fresh run, so the reused run is bit-identical to a
    /// fresh one.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.peak = 0;
    }

    /// Drains the queue in canonical pop order as `(time, rank, event)`
    /// triples (see
    /// [`CalendarQueue::drain_ranked`](crate::CalendarQueue::drain_ranked)).
    pub fn drain_ranked(&mut self) -> Vec<(SimTime, u128, E)> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.heap.pop() {
            out.push((e.time, e.rank, e.event));
        }
        self.seq = 0;
        self.peak = 0;
        out
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(30), 3);
        q.push(SimTime::new(10), 1);
        q.push(SimTime::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::new(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::new(5), ());
        q.push(SimTime::new(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::new(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_insertion_order_seq() {
        // Regression: `clear()` used to keep the private `seq` counter,
        // so a queue reused after `clear()` replayed same-instant ties
        // with different (though still FIFO-consistent) internal seeds
        // than a fresh queue. The observable contract: a cleared queue
        // behaves exactly like a new one.
        let mut reused = EventQueue::new();
        for i in 0..17 {
            reused.push(SimTime::new(1), i);
        }
        reused.clear();
        assert_eq!(reused.seq, 0, "clear() must reset the seq counter");

        let mut fresh = EventQueue::new();
        // Identical push sequence into both; ranks collide on purpose.
        for i in 0..10 {
            reused.push_ranked(SimTime::new(5), (i % 3) as u128, i);
            fresh.push_ranked(SimTime::new(5), (i % 3) as u128, i);
        }
        loop {
            let (a, b) = (reused.pop(), fresh.pop());
            assert_eq!(a, b, "cleared queue must replay like a fresh one");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(10), "late");
        q.push(SimTime::new(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(SimTime::new(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }
}
