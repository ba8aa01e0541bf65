//! The calendar queue: a two-rung ladder of coarse time buckets.
//!
//! The machine's handlers schedule a short way ahead — 10-500 ns for
//! router hops and handler completions, microseconds for DMA, 1 ms for
//! the timer (Fig. 7) — so where a heap pays `O(log n)` scattered
//! memory touches per event, the calendar keeps the work by the clock:
//!
//! * **Near buckets.** Time is cut into buckets of `2^WIDTH_SHIFT`
//!   ticks; `BUCKETS` of them form an aligned *block*. The buckets of
//!   the clock's block are plain vectors: a push appends, unsorted, and
//!   sets the bucket's bit in one occupancy word.
//! * **The loaded bucket.** A pop that finds nothing loaded takes the
//!   earliest occupied bucket, sorts it once by descending
//!   `(time, rank, seq)` and from then on pops its back.
//! * **The side-run.** An event pushed into the loaded bucket while it
//!   drains joins a small ascending run beside it; a pop takes the
//!   smaller head. In-order pushes append; others wait in an unsorted
//!   tail that the next pop places one by one when short, sorts and
//!   merges when long, so neither one push per pop nor a burst of
//!   thousands is quadratic.
//! * **The far ring.** Events of later blocks go, unsorted, to slot
//!   `block % BLOCKS`; when the clock enters a block its slot is dealt
//!   into the near buckets. Events of later laps stay behind, and a
//!   per-slot minimum finds the next event when the block is empty.
//!
//! Every write is to the end of a vector, and a fresh queue (each run
//! segment builds one) is two tables of empty vectors. The next bucket
//! is found when the loaded one drains (`peek_time` is a field read)
//! but loaded only by the pop that needs it: the handler running in
//! between pushes just ahead, and not behind a bucket loaded too soon.

use std::cmp::Reverse;
use std::collections::VecDeque;

use crate::time::SimTime;

// Chosen by replaying the push/pop streams recorded from `cortex_stim` /
// `synfire_fabric` / `idle_mesh` (12 M operations each, 40-byte payloads,
// 2-core 2.1 GHz Xeon, best of 3; the heap reads 60 / 50 / 57 ns/op).
/// log2 of the near-bucket width in ticks (256 ns on the machine).
/// Shifts 6 to 10 read 33 27 28 32 32 / 28 28 31 40 42 / 28 23 20 21 20:
/// narrow buckets sort less and keep the side-run short, wide ones
/// load less often.
const WIDTH_SHIFT: u32 = 8;
/// Near buckets per block (32.8 µs), one bit each in `occupied`; 32 and
/// 64 read within 2 ns of 128.
const BUCKETS: u64 = 128;
/// Far slots: a lap is 2.1 ms, so the 1 ms timer meets no earlier lap.
/// The next far event is found by scanning the slot minima: 128 / 256
/// slots took 100 events 1 ms apart from 38 to 59 / 101 ns/op.
const BLOCKS: u64 = 64;
/// Most spare entries a drained bucket keeps. Unbounded, `idle_mesh`
/// (16 k events in a different bucket every tick) read 19 ns/op and
/// 253 MB peak RSS; 256 / 4096 read 13 / 15 and 223 MB, but at 256 a
/// cold E14 `bursty_500ns` regrows every burst: 36 ns/op against 29.
const SPARE: usize = 4096;
/// Longest side-run tail placed entry by entry rather than sorted and
/// merged; 2, 8 and 32 read the same.
const SMALL_TAIL: usize = 8;

#[derive(Debug)]
struct Entry<E> {
    time: u64,
    rank: u128,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The pop order. `seq` is unique, so keys never compare equal.
    fn key(&self) -> (u64, u128, u64) {
        (self.time, self.rank, self.seq)
    }

    /// The near bucket this entry's time falls in.
    fn bucket(&self) -> u64 {
        self.time >> WIDTH_SHIFT
    }
}

/// The event queue every [`Engine`](crate::Engine) runs on: a push
/// appends to a coarse time bucket and a pop reads the back of one
/// sorted vector (layout: the head of `calendar.rs`).
///
/// # Pop order
///
/// Events pop in ascending `(time, rank, insertion sequence)` order:
///
/// 1. **Time** — strictly earlier events pop first.
/// 2. **Rank** — among same-instant events, ascending content-derived
///    rank ([`crate::Model::tie_rank`]; [`CalendarQueue::push`] uses
///    0). Ranks make the same-instant order a function of *what* the
///    events are rather than of who scheduled them first, which is what
///    lets a sharded run (`spinn-par`) replay a serial run exactly.
/// 3. **Insertion sequence** — FIFO among same-instant, same-rank
///    events, which must be interchangeable (their handling order must
///    not affect the model's final state); FIFO merely makes the choice
///    deterministic.
///
/// Pushes must be monotonic: never earlier than the last popped time
/// (the engine's "cannot schedule into the past" check upholds this).
/// [`CalendarQueue::clear`] and [`CalendarQueue::drain_ranked`] return
/// the queue to its freshly-constructed state, insertion counter and
/// [`CalendarQueue::peak_len`] included, so re-pushing a drained
/// snapshot in order reproduces its pop sequence. The crate's
/// binary-heap reference queue pops the same sequence for the same
/// pushes; `tests/props_queue.rs` checks the two against each other.
///
/// # Example
///
/// ```
/// use spinn_sim::{CalendarQueue, SimTime};
///
/// let mut q = CalendarQueue::new();
/// q.push(SimTime::new(10), "b");
/// q.push(SimTime::new(5), "a");
/// q.push(SimTime::new(10), "c");
/// assert_eq!(q.pop(), Some((SimTime::new(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::new(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime::new(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// The loaded bucket, by *descending* key: the minimum is the back.
    cur: Vec<Entry<E>>,
    /// The side-run, ascending by key except for its last `unsorted`
    /// entries, which the next pop places.
    side: VecDeque<Entry<E>>,
    unsorted: usize,
    /// `near[b % BUCKETS]`: the events of bucket `b` of the loaded
    /// bucket's block, in push order.
    near: Vec<Vec<Entry<E>>>,
    /// Bit `i` set ⇔ `near[i]` is non-empty.
    occupied: u128,
    /// `far[k % BLOCKS]`: the events of every later block `k`, of any
    /// lap, in no order.
    far: Vec<Vec<Entry<E>>>,
    /// Earliest time in each far slot (`u64::MAX` when empty).
    far_min: Vec<u64>,
    /// Cached earliest pending time (`None` ⇔ empty).
    next: Option<u64>,
    len: usize,
    /// Monotonic insertion counter (FIFO tie-break within equal ranks).
    seq: u64,
    /// Time of the last pop: the push floor, in the loaded bucket.
    floor: u64,
    /// Occupancy high-water mark (see [`CalendarQueue::peak_len`]).
    peak: usize,
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            cur: Vec::new(),
            side: VecDeque::new(),
            unsorted: 0,
            near: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: 0,
            far: (0..BLOCKS).map(|_| Vec::new()).collect(),
            far_min: vec![u64::MAX; BLOCKS as usize],
            next: None,
            len: 0,
            seq: 0,
            floor: 0,
            peak: 0,
        }
    }

    /// Schedules `event` at `time` with rank 0 (pure FIFO among
    /// unranked same-instant events); panics like
    /// [`CalendarQueue::push_ranked`].
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_ranked(time, 0, event);
    }

    /// Schedules `event` at `time` with a content-derived tie-break
    /// `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped time (pushes
    /// must be monotonic).
    pub fn push_ranked(&mut self, time: SimTime, rank: u128, event: E) {
        let t = time.ticks();
        assert!(
            t >= self.floor,
            "calendar queue requires monotonic pushes: t={} floor={}",
            t,
            self.floor
        );
        let entry = Entry {
            time: t,
            rank,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        let (bucket, loaded) = (entry.bucket(), self.floor >> WIDTH_SHIFT);
        let draining = !(self.cur.is_empty() && self.side.is_empty());
        if bucket == loaded && draining {
            let in_order =
                self.unsorted == 0 && self.side.back().is_none_or(|b| b.key() < entry.key());
            self.side.push_back(entry);
            self.unsorted += usize::from(!in_order);
        } else if bucket / BUCKETS == loaded / BUCKETS {
            let slot = (bucket % BUCKETS) as usize;
            self.near[slot].push(entry);
            self.occupied |= 1 << slot;
        } else {
            let slot = (bucket / BUCKETS % BLOCKS) as usize;
            self.far_min[slot] = self.far_min[slot].min(t);
            self.far[slot].push(entry);
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.next = Some(self.next.map_or(t, |n| n.min(t)));
    }

    /// Removes and returns the earliest event (ties by `(rank, seq)`).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|e| (SimTime::new(e.time), e.event))
    }

    /// Drains the queue in pop order as `(time, rank, event)` triples,
    /// leaving it as freshly constructed — the checkpoint form of the
    /// queue. The triples omit the insertion sequence: it only orders
    /// events whose `(time, rank)` collide, which are interchangeable.
    pub fn drain_ranked(&mut self) -> Vec<(SimTime, u128, E)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(e) = self.pop_entry() {
            out.push((SimTime::new(e.time), e.rank, e.event));
        }
        self.clear();
        out
    }

    fn pop_entry(&mut self) -> Option<Entry<E>> {
        let next = self.next?;
        if self.cur.is_empty() && self.side.is_empty() {
            self.load(next >> WIDTH_SHIFT);
        }
        if self.unsorted > 0 {
            self.settle_side();
        }
        let from_side = match (self.side.front(), self.cur.last()) {
            (Some(s), Some(c)) => s.key() < c.key(),
            (s, _) => s.is_some(),
        };
        let entry = if from_side {
            self.side.pop_front()
        } else {
            self.cur.pop()
        }
        .expect("a non-empty queue loads a non-empty bucket");
        self.len -= 1;
        self.floor = entry.time;
        self.next = match (self.side.front(), self.cur.last()) {
            (Some(s), Some(c)) => Some(s.time.min(c.time)),
            (Some(e), None) | (None, Some(e)) => Some(e.time),
            (None, None) => self.earliest_waiting(),
        };
        Some(entry)
    }

    /// Earliest time outside the (empty) loaded bucket and side-run.
    fn earliest_waiting(&self) -> Option<u64> {
        if self.len == 0 {
            None
        } else if self.occupied != 0 {
            let slot = self.occupied.trailing_zeros() as usize;
            self.near[slot].iter().map(|e| e.time).min()
        } else {
            self.far_min.iter().copied().min()
        }
    }

    /// Loads bucket `target`, which holds the earliest pending event;
    /// the loaded bucket and the side-run are empty.
    fn load(&mut self, target: u64) {
        let block = target / BUCKETS;
        if block != (self.floor >> WIDTH_SHIFT) / BUCKETS {
            // An occupied near bucket is earlier than every far event,
            // so the block being left is empty: deal the new block's
            // events from its far slot into the near buckets. Events of
            // later laps stay behind.
            debug_assert_eq!(self.occupied, 0);
            let slot = (block % BLOCKS) as usize;
            let far = &mut self.far[slot];
            for entry in far.extract_if(.., |e| e.bucket() / BUCKETS == block) {
                let near = (entry.bucket() % BUCKETS) as usize;
                self.near[near].push(entry);
                self.occupied |= 1 << near;
            }
            self.far_min[slot] = far.iter().map(|e| e.time).min().unwrap_or(u64::MAX);
        }
        let slot = (target % BUCKETS) as usize;
        // The drained vector goes back as the bucket's spare capacity.
        self.cur.shrink_to(SPARE);
        std::mem::swap(&mut self.cur, &mut self.near[slot]);
        self.occupied &= !(1 << slot);
        self.cur.sort_unstable_by_key(|e| Reverse(e.key()));
    }

    /// Places the side-run's unsorted tail.
    fn settle_side(&mut self) {
        let run = self.side.make_contiguous();
        if self.unsorted <= SMALL_TAIL {
            for i in run.len() - self.unsorted..run.len() {
                let at = run[..i].partition_point(|e| e.key() < run[i].key());
                run[at..=i].rotate_right(1);
            }
        } else {
            // The stable sort keeps the ordered prefix as one run and
            // merges the sorted tail into it.
            run.sort_by_key(Entry::key);
        }
        self.unsorted = 0;
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next.map(SimTime::new)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`CalendarQueue::len`], the occupancy gauge
    /// the telemetry layer reads. It rises with pushes, survives pops,
    /// and resets with [`CalendarQueue::clear`] and
    /// [`CalendarQueue::drain_ranked`].
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Removes every pending event and resets the insertion-sequence
    /// counter: the queue behaves exactly like a fresh one afterwards.
    pub fn clear(&mut self) {
        *self = Self::new();
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    /// Ticks one block of near buckets spans.
    const BLOCK_TICKS: u64 = BUCKETS << WIDTH_SHIFT;
    /// Ticks one lap of the far ring spans.
    const LAP_TICKS: u64 = BLOCK_TICKS * BLOCKS;

    #[test]
    fn orders_by_time() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::new(30), 3);
        q.push(SimTime::new(10), 1);
        q.push(SimTime::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.push(SimTime::new(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn rank_orders_before_seq() {
        let mut q = CalendarQueue::new();
        q.push_ranked(SimTime::new(5), 9, "late-rank");
        q.push_ranked(SimTime::new(5), 1, "early-rank");
        q.push_ranked(SimTime::new(5), 1, "early-rank-second");
        assert_eq!(q.pop().unwrap().1, "early-rank");
        assert_eq!(q.pop().unwrap().1, "early-rank-second");
        assert_eq!(q.pop().unwrap().1, "late-rank");
    }

    #[test]
    fn overflow_tier_round_trips() {
        let mut q = CalendarQueue::new();
        // Blocks away from the loaded bucket: must take the far tier.
        let far = BLOCK_TICKS * 10;
        q.push(SimTime::new(far), "far");
        q.push(SimTime::new(far + 1), "farther");
        q.push(SimTime::new(3), "near");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::new(3)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop(), Some((SimTime::new(far), "far")));
        assert_eq!(q.pop(), Some((SimTime::new(far + 1), "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn window_jump_preserves_fifo_within_overflow_tick() {
        let mut q = CalendarQueue::new();
        let far = BLOCK_TICKS * 3 + 17;
        for i in 0..50 {
            q.push(SimTime::new(far), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn push_into_tick_being_drained() {
        let mut q = CalendarQueue::new();
        q.push_ranked(SimTime::new(10), 5, "b");
        q.push_ranked(SimTime::new(10), 7, "d");
        assert_eq!(q.pop().unwrap().1, "b");
        // Same-instant pushes while the tick drains: order by rank.
        q.push_ranked(SimTime::new(10), 6, "c");
        q.push_ranked(SimTime::new(10), 4, "a-too-late-rank-wise");
        assert_eq!(q.pop().unwrap().1, "a-too-late-rank-wise");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::new(10), "late");
        q.push(SimTime::new(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(SimTime::new(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn clear_resets_seq_and_state() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::new(100), 1);
        q.push(SimTime::new(BLOCK_TICKS * 2), 2);
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // After clear, earlier times are legal again and FIFO restarts.
        q.push(SimTime::new(4), 10);
        q.push(SimTime::new(4), 11);
        assert_eq!(q.pop().unwrap().1, 10);
        assert_eq!(q.pop().unwrap().1, 11);
    }

    #[test]
    #[should_panic(expected = "monotonic pushes")]
    fn pushing_into_past_panics() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::new(50), ());
        q.pop();
        q.push(SimTime::new(10), ());
    }

    #[test]
    fn drain_restore_round_trips_across_queue_kinds() {
        // A drained snapshot restores into either implementation and
        // keeps interleaving with *new* pushes exactly as the original
        // queue would have.
        let fill = |q: &mut dyn FnMut(SimTime, u128, u64)| {
            q(SimTime::new(9), 2, 0);
            q(SimTime::new(5), 7, 1);
            q(SimTime::new(5), 1, 2);
            q(SimTime::new(5), 1, 3);
            q(SimTime::new(BLOCK_TICKS * 4 + 3), 0, 4); // far tier
        };
        let mut cal = CalendarQueue::new();
        fill(&mut |t, r, e| cal.push_ranked(t, r, e));
        let snap = cal.drain_ranked();
        assert!(cal.is_empty());
        assert_eq!(
            snap.iter()
                .map(|&(t, r, e)| (t.ticks(), r, e))
                .collect::<Vec<_>>(),
            vec![
                (5, 1, 2),
                (5, 1, 3),
                (5, 7, 1),
                (9, 2, 0),
                (BLOCK_TICKS * 4 + 3, 0, 4)
            ]
        );
        // Restore into a heap queue and a fresh calendar; push one new
        // same-(time, rank) event into each — it must pop *after* the
        // restored ones.
        let mut heap = EventQueue::new();
        let mut cal2 = CalendarQueue::new();
        for (t, r, e) in snap {
            heap.push_ranked(t, r, e);
            cal2.push_ranked(t, r, e);
        }
        heap.push_ranked(SimTime::new(5), 1, 99);
        cal2.push_ranked(SimTime::new(5), 1, 99);
        let a: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|(_, e)| e).collect();
        let b: Vec<u64> = std::iter::from_fn(|| cal2.pop()).map(|(_, e)| e).collect();
        assert_eq!(a, vec![2, 3, 99, 1, 0, 4]);
        assert_eq!(a, b);
    }

    /// The calendar and the heap fed the same operations; every pop
    /// compares time, payload, `peek_time` and `len`.
    struct Lockstep {
        cal: CalendarQueue<u64>,
        heap: EventQueue<u64>,
        pushed: u64,
        now: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                cal: CalendarQueue::new(),
                heap: EventQueue::new(),
                pushed: 0,
                now: 0,
            }
        }

        /// Pushes at `delay` ticks after the last popped time.
        fn push(&mut self, delay: u64, rank: u64) {
            let t = SimTime::new(self.now + delay);
            self.cal.push_ranked(t, rank as u128, self.pushed);
            self.heap.push_ranked(t, rank as u128, self.pushed);
            self.pushed += 1;
        }

        fn pop(&mut self) -> bool {
            assert_eq!(self.cal.peek_time(), self.heap.peek_time());
            let (a, b) = (self.cal.pop(), self.heap.pop());
            assert_eq!(a, b);
            assert_eq!(self.cal.len(), self.heap.len());
            self.now = a.map_or(self.now, |(t, _)| t.ticks());
            a.is_some()
        }

        fn drain(&mut self) {
            while self.pop() {}
            assert_eq!(self.cal.peak_len(), self.heap.peak_len());
        }
    }

    /// Randomized equivalence against the heap queue (the fuller
    /// version lives in `tests/props_queue.rs`).
    #[test]
    fn matches_heap_queue_on_random_workload() {
        let mut rng = crate::Xoshiro256::seed_from_u64(0xCA1E);
        let mut p = Lockstep::new();
        for _ in 0..20_000 {
            if rng.next_f64() < 0.6 || p.heap.is_empty() {
                // Mix of same-tick, near, far and beyond-one-lap times.
                let delta = match rng.gen_range_u64(10) {
                    0..=4 => 0,
                    5..=7 => rng.gen_range_u64(2_000),
                    8 => rng.gen_range_u64(3 * BLOCK_TICKS),
                    _ => rng.gen_range_u64(2 * LAP_TICKS),
                };
                p.push(delta, rng.gen_range_u64(4));
            } else {
                p.pop();
            }
        }
        p.drain();
    }

    #[test]
    fn dense_burst_on_a_drained_instant_skips_the_side_run() {
        // E14's `dense_same_tick`: an instant drains, only the timer a
        // millisecond away is left, and the next burst lands on the
        // same instant again. Had the pop that emptied the bucket
        // loaded the timer's bucket, all 3000 pushes would lie behind
        // the loaded bucket and be placed one by one in the side-run.
        let mut p = Lockstep::new();
        for _ in 0..3 {
            for k in 0..3000 {
                p.push(0, k % 7);
            }
            p.push(1_000_000, 0);
            assert!(p.cal.side.is_empty(), "burst went through the side-run");
            assert!(
                p.cal.far.iter().any(|f| !f.is_empty()),
                "the timer was loaded early"
            );
            while p.cal.peek_time() == Some(SimTime::new(0)) {
                p.pop();
            }
        }
        p.drain();
    }

    #[test]
    fn dense_pushes_while_the_side_run_is_non_empty() {
        let mut p = Lockstep::new();
        for k in 0..100 {
            p.push(10 + k % 3, k % 7);
        }
        p.pop(); // the bucket is loaded and draining
        p.push(0, 9);
        p.push(1, 3);
        p.push(0, 0);
        assert_eq!(p.cal.unsorted, 1, "two in order, one to place");
        p.pop();
        assert_eq!(p.cal.unsorted, 0);
        assert!(!p.cal.side.is_empty());
        // A burst behind a non-empty side-run: sorted and merged.
        for k in 0..5000 {
            p.push(k % 5, k % 11);
        }
        assert!(p.cal.unsorted > SMALL_TAIL);
        p.pop();
        assert_eq!(p.cal.unsorted, 0);
        // One push per pop: each is placed on its own.
        for k in 0..200 {
            p.push(k % 3, k % 2);
            p.pop();
        }
        p.drain();
    }

    #[test]
    fn far_bucket_becomes_the_loaded_bucket() {
        let mut p = Lockstep::new();
        let far = 7 * LAP_TICKS + 3 * BLOCK_TICKS + 5;
        for k in 0..50 {
            p.push(far + k % 4, k % 3);
        }
        p.push(far + LAP_TICKS, 0); // same far slot, a lap later
        p.push(2, 0);
        p.pop();
        assert_eq!(p.cal.peek_time(), Some(SimTime::new(far)));
        p.pop();
        assert_eq!(p.cal.cur.len(), 49, "the rest of the far bucket is loaded");
        assert_eq!(p.cal.far.iter().map(Vec::len).sum::<usize>(), 1);
        // Pushes into the bucket that has just come out of the far tier,
        // beside it, and before the event left behind.
        p.push(0, 1);
        p.push(1, 0);
        p.push(300, 0);
        p.push(LAP_TICKS - 1, 0);
        p.drain();
    }

    #[test]
    fn same_slot_one_block_and_one_lap_apart() {
        let mut p = Lockstep::new();
        for base in [
            0,
            BLOCK_TICKS,
            2 * BLOCK_TICKS,
            LAP_TICKS,
            LAP_TICKS + BLOCK_TICKS,
        ] {
            for k in 0..5 {
                p.push(40 + base, k % 2);
            }
        }
        // The last tick of a block and a lap, and the first of the next.
        for edge in [BLOCK_TICKS, LAP_TICKS] {
            p.push(edge - 1, 0);
            p.push(edge, 0);
        }
        p.drain();
        // Steady state: every pop re-arms exactly one block, then
        // exactly one lap, later.
        for step in [BLOCK_TICKS, LAP_TICKS] {
            for k in 0..300 {
                p.push(k * 97 % step, k % 3);
            }
            for _ in 0..2000 {
                p.pop();
                p.push(step, 1);
            }
            p.drain();
        }
    }

    #[test]
    fn ten_thousand_same_instant_mixed_ranks() {
        let mut p = Lockstep::new();
        p.push(100, 0);
        p.push(100, 5);
        p.pop(); // the bucket of t=100 is loaded, one event left in it
        for k in 0..10_000 {
            p.push(0, k * 7919 % 13); // into the loaded bucket
        }
        for k in 0..10_000 {
            p.push(5_000, k * 7919 % 13); // into a bucket yet to load
        }
        for k in 0..10_000 {
            p.push(3_000_000, k * 7919 % 13); // into the far tier
        }
        assert_eq!(p.cal.peak_len(), 30_001);
        for k in 0..15_000 {
            p.pop();
            if k % 3 == 0 {
                p.push(0, k % 13);
            }
        }
        p.drain();
    }
}
