//! Generator specs for **lazily materialized** synaptic rows.
//!
//! A full SpiNNaker-scale build (2^16 chips, 10^8+ synapses) cannot
//! afford to hold every expanded synaptic word in host RAM, and most
//! rows are never DMAed during a given run anyway. Instead of the
//! expanded words, the loader stores the *recipe*: the connector and
//! weight/delay distribution of the projection ([`GenSpec`]) plus, for
//! stochastic connectors, the RNG stream position at the start of each
//! source neuron's pair run ([`GenState`]). A row is then regenerated
//! bit-for-bit on first touch in `O(source fan-out)` — the host-side
//! analogue of the board keeping connectivity in compressed form and
//! expanding rows into DTCM on demand.
//!
//! The build and the replay step through one stream: pairs ascend by
//! source, weight/delay draws ([`GenSynapses::sample`]) consume the
//! projection's synapse RNG once per pair in global stream order, and
//! the Bernoulli connector finds each success with [`next_success`],
//! over the flattened `(src, dst)` index space. `spinn-map` expands its
//! eager rows and captures each lazy row's [`GenState`] with these same
//! functions. `FixedFanOut` (whose per-source target permutation is
//! cumulative) has no cheap per-row state and stays on the eager path.

use crate::synapse::SynapticWord;
use spinn_sim::Xoshiro256;

/// Connector patterns that support per-row lazy replay.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum GenConnector {
    /// `i -> i` for `i < min(n_src, n_dst)`.
    OneToOne,
    /// Dense row-major scan, optionally skipping the diagonal.
    AllToAll {
        /// Skip `i -> i` (recurrent projection without self-connections).
        skip_self: bool,
    },
    /// Independent inclusion with probability `p`, visited as geometric
    /// gaps between successes over the flattened index space.
    Bernoulli {
        /// Inclusion probability (p < 1: `spinn_map` maps p >= 1 to
        /// [`GenConnector::AllToAll`]; p <= 0 yields no pair).
        p: f64,
    },
}

/// Weight/delay distribution of a projection — the neuron-side mirror
/// of `spinn_map::Synapses`, which delegates its draws here so the
/// build-time and replay-time streams share one implementation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GenSynapses {
    /// Minimum weight, 8.8 fixed point.
    pub weight_min_raw: i16,
    /// Maximum weight, 8.8 fixed point.
    pub weight_max_raw: i16,
    /// Minimum delay, ms.
    pub delay_min_ms: u8,
    /// Maximum delay, ms.
    pub delay_max_ms: u8,
}

impl GenSynapses {
    /// Whether sampling never consumes randomness (point distribution).
    #[inline]
    pub fn is_constant(&self) -> bool {
        self.weight_min_raw == self.weight_max_raw && self.delay_min_ms == self.delay_max_ms
    }

    /// Draws a concrete `(weight, delay)` pair. Constant fields consume
    /// no randomness — the stream advances only for genuine ranges.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256) -> (i16, u8) {
        let w = if self.weight_min_raw == self.weight_max_raw {
            self.weight_min_raw
        } else {
            let span = (self.weight_max_raw as i32 - self.weight_min_raw as i32 + 1) as u64;
            (self.weight_min_raw as i32 + rng.gen_range_u64(span) as i32) as i16
        };
        let d = if self.delay_min_ms == self.delay_max_ms {
            self.delay_min_ms
        } else {
            let span = (self.delay_max_ms - self.delay_min_ms + 1) as u64;
            self.delay_min_ms + rng.gen_range_u64(span) as u8
        };
        (w, d)
    }
}

/// The recipe for one projection's contribution to one core's rows:
/// everything needed to regenerate any row's words, except the
/// per-source RNG positions (see [`GenState`]).
#[derive(Clone, Debug, PartialEq)]
pub struct GenSpec {
    /// Connection pattern.
    pub conn: GenConnector,
    /// Weight/delay distribution.
    pub syn: GenSynapses,
    /// Source population size.
    pub n_src: u32,
    /// Target population size.
    pub n_dst: u32,
    /// First global target index held by this core (inclusive).
    pub dst_lo: u32,
    /// One past the last global target index held by this core.
    pub dst_hi: u32,
}

/// RNG stream positions at the start of one source neuron's pair run.
///
/// Captured by the loader during its single streaming pass and replayed
/// by [`GenSpec::append_row`]. Analytic specs (deterministic connector
/// plus constant synapses) need no state at all — their rows regenerate
/// from the spec and row index alone.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GenState {
    /// Synapse-sampler RNG state after every draw for earlier pairs.
    pub syn_rng: [u64; 4],
    /// Connector RNG state (Bernoulli gap sampler; unused otherwise).
    pub conn_rng: [u64; 4],
    /// Next candidate flattened `(src, dst)` index (Bernoulli only).
    pub cursor: u64,
}

impl GenSpec {
    /// Whether rows of this spec need a captured [`GenState`]. False
    /// means the spec is fully analytic: the loader can skip streaming
    /// it entirely and row lengths come from [`GenSpec::row_len`].
    #[inline]
    pub fn needs_state(&self) -> bool {
        match self.conn {
            GenConnector::OneToOne | GenConnector::AllToAll { .. } => !self.syn.is_constant(),
            GenConnector::Bernoulli { .. } => true,
        }
    }

    /// Analytic row length for stateless connectors (`None` for
    /// Bernoulli, whose lengths are counted during the build pass).
    pub fn row_len(&self, s: u32) -> Option<u32> {
        match self.conn {
            GenConnector::OneToOne => {
                let hit = s < self.n_src.min(self.n_dst) && (self.dst_lo..self.dst_hi).contains(&s);
                Some(hit as u32)
            }
            GenConnector::AllToAll { skip_self } => {
                let window = self.dst_hi - self.dst_lo;
                let diag = (skip_self && (self.dst_lo..self.dst_hi).contains(&s)) as u32;
                Some(window - diag)
            }
            GenConnector::Bernoulli { .. } => None,
        }
    }

    /// Regenerates source `s`'s words for this core's target window,
    /// appending them to `out` — bit-identical to what the eager build
    /// would have staged for this (projection, row).
    ///
    /// # Panics
    ///
    /// Panics if the spec needs a [`GenState`] and none is given.
    pub fn append_row(&self, s: u32, state: Option<&GenState>, out: &mut Vec<SynapticWord>) {
        let window = self.dst_lo..self.dst_hi;
        match self.conn {
            GenConnector::OneToOne => {
                if s < self.n_src.min(self.n_dst) && window.contains(&s) {
                    let (w, d) = match state {
                        Some(st) => {
                            let mut rng = Xoshiro256::from_state(st.syn_rng);
                            self.syn.sample(&mut rng)
                        }
                        None => (self.syn.weight_min_raw, self.syn.delay_min_ms),
                    };
                    out.push(SynapticWord::new(w, d, (s - self.dst_lo) as u16));
                }
            }
            GenConnector::AllToAll { skip_self } => {
                let skip = skip_self;
                match state {
                    None => {
                        let (w, d) = (self.syn.weight_min_raw, self.syn.delay_min_ms);
                        for dst in window.clone() {
                            if skip && dst == s {
                                continue;
                            }
                            out.push(SynapticWord::new(w, d, (dst - self.dst_lo) as u16));
                        }
                    }
                    Some(st) => {
                        // Draws are per pair in global order, so the
                        // whole source run must be replayed even though
                        // only the window's words are kept.
                        let mut rng = Xoshiro256::from_state(st.syn_rng);
                        for dst in 0..self.n_dst {
                            if skip && dst == s {
                                continue;
                            }
                            let (w, d) = self.syn.sample(&mut rng);
                            if window.contains(&dst) {
                                out.push(SynapticWord::new(w, d, (dst - self.dst_lo) as u16));
                            }
                        }
                    }
                }
            }
            GenConnector::Bernoulli { p } => {
                let st = state.expect("Bernoulli rows need a captured GenState");
                let mut conn = Xoshiro256::from_state(st.conn_rng);
                let mut syn = Xoshiro256::from_state(st.syn_rng);
                let row_end = (s as u64 + 1) * self.n_dst as u64;
                let mut cursor = st.cursor;
                while let Some(idx) = next_success(&mut conn, p, cursor, row_end) {
                    cursor = idx + 1;
                    let dst = (idx % self.n_dst as u64) as u32;
                    let (w, d) = self.syn.sample(&mut syn);
                    if window.contains(&dst) {
                        out.push(SynapticWord::new(w, d, (dst - self.dst_lo) as u16));
                    }
                }
            }
        }
    }
}

/// The next success of a Bernoulli(`p`) process over a flattened
/// `(src, dst)` index space at or after `cursor` and below `end`, found
/// by drawing the geometric gap to it in one draw: `O(edges)` draws
/// instead of `O(n_src * n_dst)` trials. `None` once the next success
/// lies at or past `end`. Draws nothing when `p <= 0` (or NaN) or
/// `cursor >= end`, so a stream that is not drawn from keeps its state.
///
/// This is the one statement of the `FixedProbability` connector: the
/// build stream (`spinn_map`'s `Projection::iter` and its loader) and lazy
/// row replay ([`GenSpec::append_row`]) both step through it. `ln_1p`
/// keeps the denominator finite and non-zero for tiny `p` (where
/// `(1.0 - p).ln()` rounds to 0 and would invert the probability to 1),
/// and the float→int cast saturates, so sub-2e-18 probabilities
/// overshoot `end` rather than overflow.
#[inline]
pub fn next_success(rng: &mut Xoshiro256, p: f64, cursor: u64, end: u64) -> Option<u64> {
    if p > 0.0 && cursor < end {
        let u = rng.next_f64();
        let skip = ((1.0 - u).ln() / (-p).ln_1p()).floor() as u64;
        let idx = cursor.saturating_add(skip);
        if idx < end {
            return Some(idx);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn_const() -> GenSynapses {
        GenSynapses {
            weight_min_raw: 300,
            weight_max_raw: 300,
            delay_min_ms: 2,
            delay_max_ms: 2,
        }
    }

    #[test]
    fn next_success_draws_only_what_it_can_use() {
        let start = Xoshiro256::seed_from_u64(3).state();
        for (p, cursor, end) in [
            (0.0, 0, 100),
            (-1.0, 0, 100),
            (f64::NAN, 0, 100),
            (0.5, 9, 9),
        ] {
            let mut rng = Xoshiro256::from_state(start);
            assert_eq!(next_success(&mut rng, p, cursor, end), None);
            assert_eq!(rng.state(), start, "p {p}, cursor {cursor}, end {end}");
        }
        let mut rng = Xoshiro256::from_state(start);
        let idx = next_success(&mut rng, 0.5, 7, 100).expect("a success below 100");
        assert!((7..100).contains(&idx));
        assert_ne!(rng.state(), start, "one gap drawn");
    }

    #[test]
    fn analytic_specs_need_no_state() {
        let spec = GenSpec {
            conn: GenConnector::AllToAll { skip_self: true },
            syn: syn_const(),
            n_src: 10,
            n_dst: 10,
            dst_lo: 4,
            dst_hi: 8,
        };
        assert!(!spec.needs_state());
        assert_eq!(spec.row_len(2), Some(4));
        assert_eq!(spec.row_len(5), Some(3)); // diagonal falls in window
        let mut out = Vec::new();
        spec.append_row(5, None, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out.iter().map(|w| w.target()).collect::<Vec<_>>(),
            vec![0, 2, 3] // 4,6,7 shifted into the window
        );
    }

    #[test]
    fn one_to_one_hits_only_inside_window() {
        let spec = GenSpec {
            conn: GenConnector::OneToOne,
            syn: syn_const(),
            n_src: 20,
            n_dst: 16,
            dst_lo: 8,
            dst_hi: 12,
        };
        assert_eq!(spec.row_len(7), Some(0));
        assert_eq!(spec.row_len(9), Some(1));
        assert_eq!(spec.row_len(17), Some(0)); // beyond min(n_src, n_dst)
        let mut out = Vec::new();
        spec.append_row(9, None, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].target(), 1);
    }

    #[test]
    fn uniform_synapses_replay_the_global_stream() {
        // Manually run the eager stream (draw per pair, ascending
        // source) and check the per-source state replay reproduces it.
        let syn = GenSynapses {
            weight_min_raw: 100,
            weight_max_raw: 900,
            delay_min_ms: 1,
            delay_max_ms: 9,
        };
        let spec = GenSpec {
            conn: GenConnector::AllToAll { skip_self: false },
            syn,
            n_src: 6,
            n_dst: 5,
            dst_lo: 1,
            dst_hi: 4,
        };
        assert!(spec.needs_state());
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut eager: Vec<Vec<SynapticWord>> = vec![Vec::new(); 6];
        let mut states = Vec::new();
        for s in 0..6u32 {
            states.push(GenState {
                syn_rng: rng.state(),
                conn_rng: Xoshiro256::seed_from_u64(0).state(),
                cursor: 0,
            });
            for d in 0..5u32 {
                let (w, dl) = syn.sample(&mut rng);
                if (1..4).contains(&d) {
                    eager[s as usize].push(SynapticWord::new(w, dl, (d - 1) as u16));
                }
            }
        }
        for s in 0..6u32 {
            let mut out = Vec::new();
            spec.append_row(s, Some(&states[s as usize]), &mut out);
            assert_eq!(out, eager[s as usize], "source {s}");
        }
    }
}
