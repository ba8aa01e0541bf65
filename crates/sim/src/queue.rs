//! The queue contract shared by every event-queue implementation.
//!
//! The kernel ships two implementations, for two kinds of user — there
//! is no switch between them, each caller names the type it runs on:
//!
//! * [`EventQueue`](crate::EventQueue) — a binary heap. `O(log n)` per
//!   operation whatever the push pattern. [`crate::Engine`]'s default,
//!   which the small models (links, flood fill, boot, fabric tests)
//!   run on, and the reference the calendar is tested against.
//! * [`CalendarQueue`](crate::CalendarQueue) — what the neural machine
//!   always runs on: a ladder of coarse time buckets. A push appends to
//!   the bucket its time falls in, a pop reads the back of the one
//!   bucket that has been sorted, and events further than a block of
//!   buckets ahead wait in a second, coarser ring. Amortized `O(1)`
//!   when events are scheduled a short way ahead of the clock, as the
//!   machine's are; the layout and the measurements behind its
//!   constants head `calendar.rs`.
//!
//! # The ordering contract
//!
//! Both implementations MUST produce identical pop sequences for
//! identical push sequences. Events pop in ascending
//! `(time, rank, insertion sequence)` order:
//!
//! 1. **Time** — strictly earlier events pop first.
//! 2. **Rank** — among same-instant events, ascending content-derived
//!    rank ([`crate::Model::tie_rank`]). Ranks make the same-instant
//!    order a function of *what* the events are rather than of who
//!    scheduled them first, which is what lets a sharded run
//!    (`spinn-par`) replay a serial run exactly.
//! 3. **Insertion sequence** — FIFO among same-instant, same-rank
//!    events. Events mapping to the same rank at the same instant must
//!    be *interchangeable* (their handling order must not affect the
//!    model's final state); FIFO merely makes the choice deterministic.
//!
//! # The monotonic-push constraint
//!
//! Callers must never push an event earlier than the time of the most
//! recently popped event. The [`crate::Engine`] enforces this already
//! ("cannot schedule into the past"); direct users of a queue must
//! uphold it themselves. `EventQueue` happens to tolerate violations,
//! `CalendarQueue` panics on them — portable code must not rely on
//! either behaviour.
//!
//! # `clear()` semantics
//!
//! `clear()` returns the queue to its freshly-constructed state,
//! *including* the insertion-sequence counter: a model reusing a queue
//! after `clear()` replays with the same FIFO tie-breaking as a fresh
//! run.

use crate::time::SimTime;

/// A time-ordered event queue (see the [module docs](self) for the
/// ordering contract every implementation must honour).
pub trait Queue<E>: Default {
    /// Schedules `event` at `time` with a content-derived tie-break
    /// `rank`.
    fn push_ranked(&mut self, time: SimTime, rank: u128, event: E);

    /// Schedules `event` at `time` with rank 0 (pure FIFO among
    /// unranked same-instant events).
    fn push(&mut self, time: SimTime, event: E) {
        self.push_ranked(time, 0, event);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// The timestamp of the earliest pending event, if any.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// High-water mark of [`Queue::len`] — the occupancy gauge the
    /// telemetry layer reads.
    ///
    /// The gauge contract (identical across implementations, locked
    /// down by `tests/props_queue.rs`): the peak rises on every push,
    /// and resets to zero with [`Queue::clear`] and
    /// [`Queue::drain_ranked`] (both return the queue to its
    /// freshly-constructed state). After [`Queue::restore`], the peak
    /// equals the number of restored items — the re-push loop rebuilds
    /// it identically in every implementation.
    fn peak_len(&self) -> usize;

    /// Whether the queue holds no pending events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every pending event and resets the insertion-sequence
    /// counter (the queue behaves exactly like a fresh one afterwards).
    fn clear(&mut self);

    /// Drains the queue into `(time, rank, event)` triples in canonical
    /// pop order — the checkpoint form of the queue's contents.
    ///
    /// The triples omit the private insertion sequence on purpose: FIFO
    /// only breaks ties between events whose `(time, rank)` collide,
    /// and the ordering contract requires such events to be
    /// interchangeable. Re-inserting the triples in drain order through
    /// [`Queue::restore`] therefore reproduces the exact pop sequence,
    /// and a drained snapshot from one queue implementation restores
    /// into the other (or into a differently-sharded run) without loss.
    fn drain_ranked(&mut self) -> Vec<(SimTime, u128, E)>;

    /// Restores a [`Queue::drain_ranked`] snapshot: clears the queue,
    /// then re-inserts the triples in order with fresh ascending
    /// insertion sequences. After `restore`, the pop sequence equals the
    /// drain order, and events pushed later sort after restored events
    /// with the same `(time, rank)` — exactly as they would have in the
    /// original queue.
    fn restore(&mut self, items: Vec<(SimTime, u128, E)>) {
        self.clear();
        for (time, rank, event) in items {
            self.push_ranked(time, rank, event);
        }
    }
}
