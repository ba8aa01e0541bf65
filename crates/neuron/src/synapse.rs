//! The packed synaptic word.
//!
//! §4 of the paper: on an incoming spike the processor maps the source
//! neuron to "the associated block of connectivity data in SDRAM" and
//! DMAs it into local memory. That block is a row of these words; rows
//! and the table that finds them live in [`crate::synmatrix`]. §3.2:
//! each synapse carries a programmable delay "re-inserted
//! algorithmically at the target neuron" — and that per-synapse delay is
//! "one of the most expensive functions ... in terms of the cost of data
//! storage", which is why it is squeezed into 4 bits of the packed word.

/// One synapse, packed into 32 bits exactly as a SpiNNaker synaptic row
/// word: `[31:16]` weight (signed 8.8 fixed point, nA), `[15:12]` delay
/// minus one (1–16 ms), `[11:0]` target neuron index within the core.
///
/// # Example
///
/// ```
/// use spinn_neuron::synapse::SynapticWord;
///
/// let w = SynapticWord::new(256, 3, 42); // weight 1.0 nA, 3 ms, neuron 42
/// assert_eq!(w.weight_raw(), 256);
/// assert_eq!(w.weight_na(), 1.0);
/// assert_eq!(w.delay_ms(), 3);
/// assert_eq!(w.target(), 42);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SynapticWord(u32);

/// Maximum programmable synaptic delay, ms (4-bit field).
pub const MAX_DELAY_MS: u8 = 16;

/// Maximum target neuron index (12-bit field).
pub const MAX_TARGET: u16 = 0xFFF;

impl SynapticWord {
    /// Packs a synapse.
    ///
    /// `weight_raw` is in 8.8 fixed point (so `256` = 1.0 nA); negative
    /// weights are inhibitory.
    ///
    /// # Panics
    ///
    /// Panics if `delay_ms` is outside `1..=16` or `target > 0xFFF`.
    pub fn new(weight_raw: i16, delay_ms: u8, target: u16) -> Self {
        assert!(
            (1..=MAX_DELAY_MS).contains(&delay_ms),
            "synaptic delay {delay_ms} outside 1..=16 ms"
        );
        assert!(
            target <= MAX_TARGET,
            "target index {target} exceeds 12 bits"
        );
        let w = (weight_raw as u16 as u32) << 16;
        let d = ((delay_ms - 1) as u32) << 12;
        SynapticWord(w | d | target as u32)
    }

    /// Creates from raw bits (e.g. after a DMA transfer).
    pub const fn from_bits(bits: u32) -> Self {
        SynapticWord(bits)
    }

    /// The raw 32-bit word.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// The weight in 8.8 fixed point.
    pub fn weight_raw(self) -> i16 {
        (self.0 >> 16) as u16 as i16
    }

    /// The weight in nA.
    pub fn weight_na(self) -> f32 {
        self.weight_raw() as f32 / 256.0
    }

    /// The programmable axonal/synaptic delay, ms (1–16).
    pub fn delay_ms(self) -> u8 {
        ((self.0 >> 12) & 0xF) as u8 + 1
    }

    /// The target neuron index within the destination core.
    pub fn target(self) -> u16 {
        (self.0 & 0xFFF) as u16
    }

    /// Replaces the weight (used by STDP write-back).
    pub fn with_weight_raw(self, weight_raw: i16) -> Self {
        SynapticWord((self.0 & 0x0000_FFFF) | ((weight_raw as u16 as u32) << 16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (w, d, t) in [
            (0i16, 1u8, 0u16),
            (256, 16, 0xFFF),
            (-256, 8, 100),
            (i16::MAX, 1, 1),
            (i16::MIN, 16, 2),
        ] {
            let s = SynapticWord::new(w, d, t);
            assert_eq!(s.weight_raw(), w, "{w} {d} {t}");
            assert_eq!(s.delay_ms(), d);
            assert_eq!(s.target(), t);
            assert_eq!(SynapticWord::from_bits(s.bits()), s);
        }
    }

    #[test]
    fn weight_na_scaling() {
        assert_eq!(SynapticWord::new(256, 1, 0).weight_na(), 1.0);
        assert_eq!(SynapticWord::new(-128, 1, 0).weight_na(), -0.5);
        assert_eq!(SynapticWord::new(64, 1, 0).weight_na(), 0.25);
    }

    #[test]
    #[should_panic(expected = "outside 1..=16")]
    fn zero_delay_rejected() {
        let _ = SynapticWord::new(1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=16")]
    fn delay_17_rejected() {
        let _ = SynapticWord::new(1, 17, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds 12 bits")]
    fn target_overflow_rejected() {
        let _ = SynapticWord::new(1, 1, 0x1000);
    }

    #[test]
    fn with_weight_preserves_rest() {
        let s = SynapticWord::new(100, 5, 321);
        let s2 = s.with_weight_raw(-77);
        assert_eq!(s2.weight_raw(), -77);
        assert_eq!(s2.delay_ms(), 5);
        assert_eq!(s2.target(), 321);
    }

    #[test]
    fn row_accounting() {
        // A row in SDRAM is one header word plus one packed word per
        // synapse: the word is exactly 32 bits.
        use crate::synmatrix::row_sdram_bytes;
        assert_eq!(std::mem::size_of::<SynapticWord>(), 4);
        assert_eq!(row_sdram_bytes(0), 4);
        assert_eq!(row_sdram_bytes(10), 44);
    }
}
