//! The queue-equivalence property: the binary-heap `EventQueue` and the
//! time-bucketed `CalendarQueue` are *the same queue* observationally.
//! Arbitrary interleaved `push`/`push_ranked`/`pop` sequences — with
//! same-tick rank collisions and far-future times that land in the
//! calendar's far tier — must produce identical pop sequences (times,
//! payloads and relative order, including FIFO within equal ranks),
//! and identical `peek_time`, `len` and `peak_len` after every step.

use proptest::collection::vec;
use proptest::prelude::*;

use spinn_sim::{CalendarQueue, EventQueue, SimTime};

/// One scripted queue operation, decoded from raw generator draws.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Push at `now + delta` with `rank` (`rank == 0` exercises the
    /// plain `push` path).
    Push {
        delta: u64,
        rank: u128,
    },
    Pop,
}

/// Decodes `(selector, delta_class, delta_raw, rank)` draws into an op.
///
/// Delta classes deliberately cover the calendar's regimes. A near
/// bucket is 2^8 ticks wide, a block of 128 buckets spans 2^15 ticks,
/// and one lap of the 64-block far ring spans 2^21: the classes are
/// same-tick collisions, the loaded bucket, up to two blocks ahead
/// (near buckets, block boundaries and the next far slot), up to three
/// far laps ahead, and whole multiples of eight laps up to 2^40 ticks
/// ahead (the fabric scenarios queue injections and deadlines tens of
/// milliseconds out in ns ticks: tens of laps).
fn decode(selector: u8, delta_class: u8, delta_raw: u16, rank: u8) -> Op {
    let delta = match delta_class {
        0 => 0,                                  // same tick
        1 => u64::from(delta_raw) % 7,           // dense near-ties, one bucket
        2 => u64::from(delta_raw),               // < 2^16: two blocks
        3 => u64::from(delta_raw) * 97 + 16_000, // < 2^22.6: three far laps
        _ => u64::from(delta_raw) << 24,         // < 2^40: 2^19 far laps
    };
    push_or_pop(selector, delta, rank % 5) // few distinct ranks -> collisions
}

/// A push for selectors 0-2, a pop above: three pushes to one pop
/// under `0..4` draws, three to two under `0..5`.
fn push_or_pop(selector: u8, delta: u64, rank: u8) -> Op {
    if selector < 3 {
        Op::Push {
            delta,
            rank: u128::from(rank),
        }
    } else {
        Op::Pop
    }
}

/// Decodes a machine-shaped op: the delays the machine model's handlers
/// schedule with — same instant, 10-500 ticks (router hops, handler
/// completions: the loaded bucket and its neighbours), 2-20 k ticks
/// (DMA, dropped-packet reissue: the rest of the block and the next far
/// slot) and the 10^6-tick timer re-arm (half a far lap) — under a few
/// ranks, three pushes to two pops.
fn decode_machine(selector: u8, mix: u8, raw: u16, rank: u8) -> Op {
    let delta = match mix {
        0 => 0,
        1..=13 => 10 + u64::from(raw) % 491,
        14..=18 => 2_000 + u64::from(raw) % 18_001,
        _ => 1_000_000,
    };
    push_or_pop(selector, delta, rank % 3)
}

/// Runs the op script against both queues in lockstep, comparing every
/// pop (and the drain at the end). Returns the number of pops compared.
fn run_script(ops: &[Op]) -> usize {
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    // Pushes are relative to the last popped time, which keeps the
    // script inside the monotonic-push contract both queues share.
    let mut now = 0u64;
    let mut compared = 0usize;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Push { delta, rank } => {
                let t = SimTime::new(now + delta);
                let payload = i as u64;
                if rank == 0 {
                    heap.push(t, payload);
                    cal.push(t, payload);
                } else {
                    heap.push_ranked(t, rank, payload);
                    cal.push_ranked(t, rank, payload);
                }
            }
            Op::Pop => {
                assert_eq!(heap.peek_time(), cal.peek_time(), "peek before pop {i}");
                let (a, b) = (heap.pop(), cal.pop());
                assert_eq!(a, b, "pop divergence at op {i}");
                if let Some((t, _)) = a {
                    now = t.ticks();
                }
                compared += 1;
            }
        }
        assert_eq!(heap.len(), cal.len(), "len divergence at op {i}");
        assert_eq!(
            heap.peak_len(),
            cal.peak_len(),
            "occupancy-gauge divergence at op {i}"
        );
    }
    loop {
        let (a, b) = (heap.pop(), cal.pop());
        assert_eq!(a, b, "drain divergence");
        compared += 1;
        if a.is_none() {
            break;
        }
    }
    compared
}

proptest! {
    /// The headline property: arbitrary interleavings agree.
    #[test]
    fn heap_and_calendar_pop_identically(
        raw in vec((0u8..4, 0u8..5, any::<u16>(), 0u8..8), 0..600),
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(s, dc, dr, r)| decode(s, dc, dr, r))
            .collect();
        run_script(&ops);
    }

    /// The machine's own delay mixture (see [`decode_machine`]).
    #[test]
    fn machine_shaped_schedules_agree(
        raw in vec((0u8..5, 0u8..20, any::<u16>(), 0u8..8), 0..2000),
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(s, mix, r, rank)| decode_machine(s, mix, r, rank))
            .collect();
        run_script(&ops);
    }

    /// Heavy same-tick collision pressure: every push lands on one of a
    /// handful of instants with one of a handful of ranks, so ordering
    /// is decided almost entirely by (rank, insertion seq).
    #[test]
    fn dense_same_tick_rank_collisions_agree(
        raw in vec((0u8..5, 0u8..3, 0u8..4), 0..500),
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(s, tick, rank)| {
                if s < 4 {
                    Op::Push { delta: u64::from(tick), rank: u128::from(rank) }
                } else {
                    Op::Pop
                }
            })
            .collect();
        run_script(&ops);
    }
}

/// The occupancy-gauge contract both queue kinds share: `peak_len`
/// rises with pushes, survives pops, resets to zero on `drain_ranked`
/// (and `clear`), and after re-pushing the drained items (what
/// `Engine::restore_events` does) equals exactly the restored count —
/// whatever tier (near or far) the calendar held them in.
#[test]
fn occupancy_gauge_agrees_across_drain_and_restore() {
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    // Mixed near and far-tier times, with rank collisions.
    for i in 0..64u64 {
        let t = SimTime::new(if i % 3 == 0 { i * 50_000 } else { i });
        heap.push_ranked(t, u128::from(i % 4), i);
        cal.push_ranked(t, u128::from(i % 4), i);
    }
    assert_eq!(heap.peak_len(), 64);
    assert_eq!(cal.peak_len(), 64);
    // Pops lower the length but not the high-water mark.
    for _ in 0..10 {
        assert_eq!(heap.pop(), cal.pop());
    }
    assert_eq!(heap.peak_len(), 64);
    assert_eq!(cal.peak_len(), 64);

    // Checkpoint: drain resets the gauge on both kinds.
    let heap_items = heap.drain_ranked();
    let cal_items = cal.drain_ranked();
    assert_eq!(heap_items, cal_items, "drain order must agree");
    assert_eq!(heap.peak_len(), 0, "drain must reset the heap gauge");
    assert_eq!(cal.peak_len(), 0, "drain must reset the calendar gauge");

    // Restore (a clear, then a re-push loop): the gauge climbs back to
    // exactly the restored count.
    heap.clear();
    cal.clear();
    for (t, rank, e) in heap_items {
        heap.push_ranked(t, rank, e);
        cal.push_ranked(t, rank, e);
    }
    assert_eq!(heap.peak_len(), 54);
    assert_eq!(cal.peak_len(), 54);

    // And clear behaves like drain.
    heap.clear();
    cal.clear();
    assert_eq!(heap.peak_len(), 0);
    assert_eq!(cal.peak_len(), 0);
}

/// Deterministic smoke case: a burst per tick with far-tier re-arming,
/// shaped like the machine's timer/packet pattern (kept out of the
/// proptest macro so a failure here pinpoints the regime).
#[test]
fn timer_like_pattern_agrees() {
    let mut ops = Vec::new();
    for tick in 0..40u64 {
        // A far-future "timer" rearm (far tier) ...
        ops.push(Op::Push {
            delta: 1_000_000,
            rank: 0,
        });
        // ... and a same-tick burst with colliding ranks.
        for j in 0..30u64 {
            ops.push(Op::Push {
                delta: 0,
                rank: u128::from(j % 3),
            });
        }
        for _ in 0..28 {
            ops.push(Op::Pop);
        }
        let _ = tick;
    }
    let compared = run_script(&ops);
    assert!(compared > 1000);
}
