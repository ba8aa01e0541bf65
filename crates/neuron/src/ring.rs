//! The deferred-event input ring buffer: §3.2's "soft delays".
//!
//! Electronic spike transit is effectively instantaneous on biological
//! timescales, but biological axonal/synaptic delays are "almost
//! certainly functional, so they can't simply be eliminated in the
//! model. Instead, they are made 'soft'": every synapse carries a 1–16 ms
//! delay that is re-inserted at the target neuron \[5\]. The mechanism is
//! this ring of 16 one-millisecond accumulator slots: a spike arriving
//! now with delay *d* deposits its weight into the slot that the timer
//! interrupt will drain *d* ticks later.
//!
//! A row's targets are scattered over the core's neurons and its delays
//! over the slots, so a deposit lands on a line the host has not seen
//! for a while. The machine reads the row's words when their DMA
//! completes, one handler before it walks them, and names each landing
//! place then ([`InputRing::hint_deposit`]).

use crate::hint::prefetch_read;

/// Number of delay slots (4-bit delay field: 1–16 ms).
pub const RING_SLOTS: usize = 16;

/// The per-core input ring buffer: `RING_SLOTS` slots × one 8.8
/// fixed-point accumulator per neuron, plus the slot the last tick
/// drained.
///
/// All of it is one allocation of `(RING_SLOTS + 1) × neurons`
/// accumulators, slot-major: rows `0..RING_SLOTS` are the delay slots,
/// row `RING_SLOTS` is the drained slot. A tick copies the current slot
/// into the drained row and zeroes it, so the drive the neurons read
/// and the charge still queued sit side by side in one slice.
///
/// # Example
///
/// ```
/// use spinn_neuron::ring::InputRing;
///
/// let mut ring = InputRing::new(4);
/// ring.deposit(3, 2, 256); // +1.0 nA to neuron 2, 3 ms from now
/// assert_eq!(ring.tick()[2], 0);   // t+1: nothing
/// assert_eq!(ring.tick()[2], 0);   // t+2: nothing
/// assert_eq!(ring.tick()[2], 256); // t+3: arrives
/// ```
#[derive(Clone, Debug)]
pub struct InputRing {
    acc: Vec<i32>,
    cursor: usize,
    neurons: usize,
}

impl InputRing {
    /// Creates a ring for `neurons` accumulators per slot.
    pub fn new(neurons: usize) -> Self {
        InputRing {
            acc: vec![0; (RING_SLOTS + 1) * neurons],
            cursor: 0,
            neurons,
        }
    }

    /// Number of neurons per slot.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Index of `neuron`'s accumulator in the slot `delay_ms` ticks out.
    fn index(&self, delay_ms: u8, neuron: usize) -> usize {
        (self.cursor + delay_ms as usize) % RING_SLOTS * self.neurons + neuron
    }

    /// Adds `weight_raw` (8.8 fixed point) to `neuron`'s accumulator
    /// `delay_ms` ticks in the future.
    ///
    /// # Panics
    ///
    /// Panics if `delay_ms` is outside `1..=16` or `neuron` is out of
    /// range.
    pub fn deposit(&mut self, delay_ms: u8, neuron: usize, weight_raw: i32) {
        assert!(
            (1..=RING_SLOTS as u8).contains(&delay_ms),
            "delay {delay_ms} outside 1..=16"
        );
        assert!(neuron < self.neurons, "neuron {neuron} out of range");
        let i = self.index(delay_ms, neuron);
        self.acc[i] = self.acc[i].saturating_add(weight_raw);
    }

    /// Hint, when a row's DMA completes: walking it will
    /// [`deposit`](InputRing::deposit) into this accumulator. An index
    /// out of range asks for nothing; a tick between hint and walk makes
    /// the hint miss by one slot and changes nothing else.
    #[inline]
    pub fn hint_deposit(&self, delay_ms: u8, neuron: usize) {
        if neuron < self.neurons {
            prefetch_read(&self.acc[self.index(delay_ms, neuron)]);
        }
    }

    /// Advances the ring by 1 ms and returns the accumulated input for
    /// the new current tick (8.8 fixed point per neuron). The returned
    /// slice is valid until the next call.
    pub fn tick(&mut self) -> &[i32] {
        self.cursor = (self.cursor + 1) % RING_SLOTS;
        let n = self.neurons;
        let (slots, drained) = self.acc.split_at_mut(RING_SLOTS * n);
        let slot = &mut slots[self.cursor * n..][..n];
        drained.copy_from_slice(slot);
        slot.fill(0);
        drained
    }

    /// The input drained by the most recent [`InputRing::tick`].
    pub fn current(&self) -> &[i32] {
        &self.acc[RING_SLOTS * self.neurons..]
    }

    /// Total absolute charge currently queued (diagnostics).
    pub fn queued_magnitude(&self) -> i64 {
        self.acc[..RING_SLOTS * self.neurons]
            .iter()
            .map(|&w| (w as i64).abs())
            .sum()
    }

    /// Memory footprint of the ring in the core's DTCM, bytes.
    pub fn size_bytes(&self) -> usize {
        RING_SLOTS * self.neurons * 4
    }

    /// Serializes the ring's complete state — cursor, every delay
    /// slot's accumulators and the most recently drained slot — for
    /// checkpoints. Accumulators are stored sparsely (only non-zero
    /// entries), so a quiet ring costs a handful of bytes regardless of
    /// neuron count.
    pub fn encode(&self, enc: &mut spinn_sim::wire::Enc) {
        let n = self.neurons;
        let (slots, drained) = self.acc.split_at(RING_SLOTS * n);
        let nonzero = |v: &[i32]| v.iter().filter(|&&w| w != 0).count();
        enc.seq(n);
        enc.u8(self.cursor as u8);
        enc.seq(nonzero(slots));
        for (i, &w) in slots.iter().enumerate() {
            if w != 0 {
                enc.u8((i / n) as u8).u32((i % n) as u32).i32(w);
            }
        }
        enc.seq(nonzero(drained));
        for (i, &w) in drained.iter().enumerate() {
            if w != 0 {
                enc.u32(i as u32).i32(w);
            }
        }
    }

    /// Rebuilds a ring of `neurons` accumulators per slot from
    /// [`InputRing::encode`] bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`spinn_sim::wire::WireError`] on truncated or corrupt
    /// input, and on a ring of any other size.
    pub fn decode(
        dec: &mut spinn_sim::wire::Dec<'_>,
        neurons: usize,
    ) -> Result<InputRing, spinn_sim::wire::WireError> {
        use spinn_sim::wire::WireError;
        // The declared neuron count is a *logical* size (the slots are
        // stored sparsely), so the remaining bytes do not bound it:
        // check it against the caller's before allocating anything.
        if dec.u64()? != neurons as u64 {
            return Err(WireError::Corrupt("ring size"));
        }
        let cursor = dec.u8()? as usize;
        if cursor >= RING_SLOTS {
            return Err(WireError::Corrupt("ring cursor"));
        }
        let mut ring = InputRing::new(neurons);
        ring.cursor = cursor;
        let n_slot_entries = dec.seq(9)?;
        for _ in 0..n_slot_entries {
            let slot = dec.u8()? as usize;
            let neuron = dec.u32()? as usize;
            if slot >= RING_SLOTS || neuron >= neurons {
                return Err(WireError::Corrupt("ring entry index"));
            }
            ring.acc[slot * neurons + neuron] = dec.i32()?;
        }
        let n_drained = dec.seq(8)?;
        for _ in 0..n_drained {
            let neuron = dec.u32()? as usize;
            if neuron >= neurons {
                return Err(WireError::Corrupt("ring drained index"));
            }
            ring.acc[RING_SLOTS * neurons + neuron] = dec.i32()?;
        }
        Ok(ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_exactness_all_delays() {
        // A weight deposited with delay d arrives after exactly d ticks —
        // the soft-delay invariant of §3.2.
        for d in 1..=16u8 {
            let mut ring = InputRing::new(2);
            ring.deposit(d, 1, 100);
            for t in 1..=16 {
                let drained = ring.tick()[1];
                if t == d as usize {
                    assert_eq!(drained, 100, "delay {d} arrived at tick {t}");
                } else {
                    assert_eq!(drained, 0, "delay {d} leaked at tick {t}");
                }
            }
        }
    }

    #[test]
    fn accumulation_in_same_slot() {
        let mut ring = InputRing::new(1);
        ring.deposit(2, 0, 10);
        ring.deposit(2, 0, -3);
        ring.tick();
        assert_eq!(ring.tick()[0], 7);
    }

    #[test]
    fn wraparound_reuse() {
        let mut ring = InputRing::new(1);
        for round in 0..5 {
            ring.deposit(16, 0, round + 1);
            for t in 1..=16 {
                let v = ring.tick()[0];
                if t == 16 {
                    assert_eq!(v, round + 1);
                } else {
                    assert_eq!(v, 0);
                }
            }
        }
    }

    #[test]
    fn deposits_during_drain_cycle_do_not_collide() {
        let mut ring = InputRing::new(1);
        ring.deposit(1, 0, 5);
        assert_eq!(ring.tick()[0], 5);
        // Slot was cleared after draining: new deposit lands cleanly
        // 16 ticks out.
        ring.deposit(16, 0, 9);
        for t in 1..=16 {
            let v = ring.tick()[0];
            assert_eq!(v, if t == 16 { 9 } else { 0 }, "tick {t}");
        }
    }

    #[test]
    fn saturating_accumulator() {
        let mut ring = InputRing::new(1);
        ring.deposit(1, 0, i32::MAX);
        ring.deposit(1, 0, i32::MAX);
        assert_eq!(ring.tick()[0], i32::MAX);
    }

    #[test]
    fn current_mirrors_last_tick() {
        let mut ring = InputRing::new(3);
        ring.deposit(1, 2, 42);
        ring.tick();
        assert_eq!(ring.current(), &[0, 0, 42]);
    }

    #[test]
    fn queued_magnitude_and_size() {
        let mut ring = InputRing::new(10);
        assert_eq!(ring.size_bytes(), 16 * 10 * 4);
        ring.deposit(4, 0, -50);
        ring.deposit(9, 3, 30);
        assert_eq!(ring.queued_magnitude(), 80);
        ring.tick();
        assert_eq!(ring.queued_magnitude(), 80); // nothing drained yet
    }

    #[test]
    fn hints_are_inert_at_every_cursor_and_out_of_range() {
        let encoded = |ring: &InputRing| {
            let mut enc = spinn_sim::wire::Enc::new();
            ring.encode(&mut enc);
            enc.into_bytes()
        };
        let mut ring = InputRing::new(3);
        for turn in 0..RING_SLOTS as i32 {
            ring.deposit(1 + (turn % 16) as u8, 1, 7 + turn);
            let (queued, bytes) = (ring.queued_magnitude(), encoded(&ring));
            // Every delay `deposit` takes and those it rejects, every
            // neuron and the first one past the end.
            for delay in [0, 17, u8::MAX].into_iter().chain(1..=16) {
                for neuron in [0, 1, 2, 3, usize::MAX] {
                    ring.hint_deposit(delay, neuron);
                }
            }
            assert_eq!(ring.queued_magnitude(), queued);
            assert_eq!(encoded(&ring), bytes);
            ring.tick();
        }
        let empty = InputRing::new(0);
        empty.hint_deposit(1, 0);
        assert_eq!(empty.queued_magnitude(), 0);
    }

    /// The checkpoint layout at every cursor position: a scripted run of
    /// deposits at every delay, one tick per turn, through all 16 cursor
    /// positions. The final bytes were recorded from the
    /// one-`Vec`-per-slot ring the flat layout replaced; decode → encode
    /// reproduces them at every turn, and the slot a tick drains leaves
    /// the queued charge at once (the drained row is not queued).
    #[test]
    fn encoding_is_pinned_through_every_cursor_position() {
        let encoded = |ring: &InputRing| {
            let mut enc = spinn_sim::wire::Enc::new();
            ring.encode(&mut enc);
            enc.into_bytes()
        };
        let mut ring = InputRing::new(3);
        for turn in 0..RING_SLOTS {
            for d in 1..=RING_SLOTS {
                let w = (turn * 37 + d * 11) as i32 % 97 - 48;
                ring.deposit(d as u8, (turn + d) % 3, w);
            }
            let queued = ring.queued_magnitude();
            let drained: i64 = ring.tick().iter().map(|&w| (w as i64).abs()).sum();
            assert!(drained > 0, "turn {turn}");
            assert_eq!(ring.queued_magnitude(), queued - drained, "turn {turn}");
            let bytes = encoded(&ring);
            let back = InputRing::decode(&mut spinn_sim::wire::Dec::new(&bytes), 3).unwrap();
            assert_eq!(encoded(&back), bytes, "turn {turn}");
            assert_eq!(back.queued_magnitude(), ring.queued_magnitude());
        }
        let hex: String = encoded(&ring).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "0300000000000000000f00000000000000",
                "0102000000dfffffff0200000000350000000301000000faffffff",
                "0402000000f0ffffff05000000001700000006010000000e000000",
                "0702000000d5ffffff08000000002e0000000901000000f6ffffff",
                "0a02000000500000000b00000000b8ffffff0c0100000013000000",
                "0d02000000ddffffff0e00000000d8ffffff0f0100000004000000",
                "0100000000000000010000001b000000",
            )
        );
    }

    #[test]
    fn decode_takes_only_a_ring_of_the_callers_size() {
        let mut ring = InputRing::new(3);
        ring.deposit(2, 1, 40);
        ring.tick();
        let mut enc = spinn_sim::wire::Enc::new();
        ring.encode(&mut enc);
        let bytes = enc.into_bytes();
        let decode = |bytes: &[u8], neurons| {
            InputRing::decode(&mut spinn_sim::wire::Dec::new(bytes), neurons)
        };
        let back = decode(&bytes, 3).unwrap();
        assert_eq!((back.cursor, back.current()), (1, ring.current()));
        assert_eq!(back.queued_magnitude(), 40);
        assert!(decode(&bytes, 4).is_err());
        // A declared size of four billion neurons is refused before the
        // 17 accumulators per neuron are allocated.
        let mut huge = bytes.clone();
        huge[..8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
        assert!(decode(&huge, 3).is_err());
    }

    #[test]
    #[should_panic(expected = "outside 1..=16")]
    fn zero_delay_rejected() {
        InputRing::new(1).deposit(0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neuron_bounds_checked() {
        InputRing::new(1).deposit(1, 1, 1);
    }
}
