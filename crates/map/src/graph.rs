//! The abstract neural network: populations, projections, connectors.

use spinn_neuron::gen::{next_success, GenConnector};
use spinn_neuron::izhikevich::IzhikevichParams;
use spinn_neuron::lif::LifParams;
use spinn_sim::Xoshiro256;

/// Identifies a population within a [`NetworkGraph`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PopulationId(pub(crate) usize);

impl PopulationId {
    /// The population's index in creation order.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds an id from [`PopulationId::index`] (session snapshot
    /// restore). The caller must ensure the index names a population of
    /// the same network the index was taken from.
    pub fn from_index(index: usize) -> PopulationId {
        PopulationId(index)
    }
}

/// Which point-neuron model a population runs.
#[derive(Copy, Clone, Debug)]
pub enum NeuronKind {
    /// Izhikevich with the given parameters.
    Izhikevich(IzhikevichParams),
    /// Leaky integrate-and-fire with the given parameters.
    Lif(LifParams),
}

/// One population of identical neurons.
#[derive(Clone, Debug)]
pub struct Population {
    /// Human-readable name.
    pub name: String,
    /// Number of neurons.
    pub size: u32,
    /// Neuron model.
    pub kind: NeuronKind,
    /// Constant bias current, nA (stands in for background input).
    pub bias_na: f32,
}

/// Connection pattern of a projection.
#[derive(Copy, Clone, Debug)]
pub enum Connector {
    /// Neuron `i` connects to neuron `i` (requires equal sizes).
    OneToOne,
    /// Every source to every target; self-connections allowed only when
    /// the flag is set (relevant for recurrent projections).
    AllToAll {
        /// Include `i -> i` when source and target populations coincide.
        allow_self: bool,
    },
    /// Every pair connects independently with this probability.
    FixedProbability(f64),
    /// Every source neuron connects to exactly this many distinct,
    /// uniformly chosen targets.
    FixedFanOut(u32),
}

/// Weight/delay specification of a projection's synapses.
#[derive(Copy, Clone, Debug)]
pub struct Synapses {
    /// Minimum weight, 8.8 fixed point (negative = inhibitory).
    pub weight_min_raw: i16,
    /// Maximum weight, 8.8 fixed point.
    pub weight_max_raw: i16,
    /// Minimum delay, ms (1–16).
    pub delay_min_ms: u8,
    /// Maximum delay, ms (1–16).
    pub delay_max_ms: u8,
}

impl Synapses {
    /// Constant weight and delay.
    ///
    /// # Panics
    ///
    /// Panics if the delay is outside 1–16 ms.
    pub fn constant(weight_raw: i16, delay_ms: u8) -> Self {
        Self::uniform((weight_raw, weight_raw), (delay_ms, delay_ms))
    }

    /// Uniformly distributed weight and delay.
    ///
    /// # Panics
    ///
    /// Panics if ranges are inverted or delays are outside 1–16 ms.
    pub fn uniform(weight_raw: (i16, i16), delay_ms: (u8, u8)) -> Self {
        let syn = Synapses {
            weight_min_raw: weight_raw.0,
            weight_max_raw: weight_raw.1,
            delay_min_ms: delay_ms.0,
            delay_max_ms: delay_ms.1,
        };
        syn.check();
        syn
    }

    /// The one check on a synapse distribution, made where it is built
    /// ([`Synapses::uniform`]) and where it enters a network
    /// ([`NetworkGraph::project`]), since the fields are public.
    fn check(&self) {
        assert!(
            self.weight_min_raw <= self.weight_max_raw,
            "weight range inverted"
        );
        assert!(
            self.delay_min_ms <= self.delay_max_ms,
            "delay range inverted"
        );
        assert!(
            (1..=16).contains(&self.delay_min_ms) && self.delay_max_ms <= 16,
            "delays must lie in 1..=16 ms"
        );
    }

    /// The distribution in `spinn-neuron`'s generator-spec form — the
    /// single implementation both the eager build stream and lazy row
    /// replay draw from (one code path, one bit-exact stream).
    pub fn gen(&self) -> spinn_neuron::gen::GenSynapses {
        spinn_neuron::gen::GenSynapses {
            weight_min_raw: self.weight_min_raw,
            weight_max_raw: self.weight_max_raw,
            delay_min_ms: self.delay_min_ms,
            delay_max_ms: self.delay_max_ms,
        }
    }

    /// Draws a concrete (weight, delay) pair.
    pub fn sample(&self, rng: &mut Xoshiro256) -> (i16, u8) {
        self.gen().sample(rng)
    }
}

/// One projection between populations.
#[derive(Clone, Debug)]
pub struct Projection {
    /// Source population.
    pub src: PopulationId,
    /// Target population.
    pub dst: PopulationId,
    /// Connection pattern.
    pub connector: Connector,
    /// Synapse parameters.
    pub synapses: Synapses,
    /// Expansion seed (same seed = same concrete connectivity).
    pub seed: u64,
}

impl Projection {
    /// Expands the projection into a **streaming** iterator of concrete
    /// `(src, dst)` neuron pairs, deterministically from the seed — no
    /// edge list is ever materialized, so expansion memory is `O(1)`
    /// (plus a target permutation for [`Connector::FixedFanOut`])
    /// regardless of network size. Pairs are produced in ascending
    /// source order.
    pub fn iter(&self, n_src: u32, n_dst: u32) -> ConnectorIter {
        let state = match self.gen_connector() {
            Ok(GenConnector::OneToOne) => IterState::OneToOne {
                i: 0,
                n: n_src.min(n_dst),
            },
            Ok(GenConnector::AllToAll { skip_self }) => IterState::AllToAll {
                s: 0,
                d: 0,
                skip_self,
            },
            Ok(GenConnector::Bernoulli { p }) => IterState::Bernoulli {
                rng: self.conn_rng(),
                p,
                cursor: 0,
                total: n_src as u64 * n_dst as u64,
            },
            Err(k) => {
                let k = k.min(n_dst);
                IterState::FanOut {
                    targets: (0..n_dst).collect(),
                    rng: self.conn_rng(),
                    k,
                    next_s: 0,
                    j: k, // force a shuffle on the first `next`
                }
            }
        };
        ConnectorIter {
            n_src,
            n_dst,
            state,
        }
    }

    /// The connector in the generator form both the build stream and
    /// lazy row replay run, with its special cases resolved once: a
    /// recurrent `AllToAll` skips the diagonal only when source and target
    /// coincide, and `FixedProbability(p)` with `p >= 1` is dense (with
    /// `p <= 0` it yields nothing, see [`next_success`]). `Err(k)` for
    /// `FixedFanOut(k)`, whose cumulative target shuffle has no per-row
    /// replay state.
    pub(crate) fn gen_connector(&self) -> Result<GenConnector, u32> {
        Ok(match self.connector {
            Connector::OneToOne => GenConnector::OneToOne,
            Connector::AllToAll { allow_self } => GenConnector::AllToAll {
                skip_self: !allow_self && self.src == self.dst,
            },
            Connector::FixedProbability(p) if p >= 1.0 => {
                GenConnector::AllToAll { skip_self: false }
            }
            Connector::FixedProbability(p) => GenConnector::Bernoulli { p },
            Connector::FixedFanOut(k) => return Err(k),
        })
    }

    /// The connector stream's RNG: the Bernoulli gap draws, or the
    /// fan-out shuffles.
    pub(crate) fn conn_rng(&self) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.seed ^ 0x50C1_A11E)
    }

    /// The synapse stream's RNG: one weight/delay draw per pair, in pair
    /// order.
    pub(crate) fn syn_rng(&self) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.seed ^ 0x005E_ED0F_5EED)
    }

    /// Expands the projection into a materialized edge list (a
    /// convenience wrapper over [`Projection::iter`], kept for tests
    /// and small-network tooling; large builds should stream).
    pub fn pairs(&self, n_src: u32, n_dst: u32) -> Vec<(u32, u32)> {
        let it = self.iter(n_src, n_dst);
        let mut v = Vec::with_capacity(it.size_hint().0);
        v.extend(it);
        v
    }
}

/// Streaming expansion of one projection: yields `(src, dst)` pairs in
/// ascending source order without materializing the edge list. Obtained
/// from [`Projection::iter`].
///
/// Capacity arithmetic is done in `u64`/`usize` throughout (the
/// materializing predecessor computed `n_src * n_dst` in `u32`, which
/// wraps for populations ≥ 2¹⁶; see `size_hint`).
#[derive(Clone, Debug)]
pub struct ConnectorIter {
    n_src: u32,
    n_dst: u32,
    state: IterState,
}

#[derive(Clone, Debug)]
enum IterState {
    /// `i -> i` for `i < n`.
    OneToOne { i: u32, n: u32 },
    /// Dense row-major scan, optionally skipping the diagonal.
    AllToAll { s: u32, d: u32, skip_self: bool },
    /// Independent inclusion with probability `p`, visited by sampling
    /// geometric gaps between successes over the flattened `(s, d)`
    /// index space — `O(edges)` draws instead of `O(n_src * n_dst)`
    /// Bernoulli trials.
    Bernoulli {
        rng: Xoshiro256,
        p: f64,
        /// Next candidate flattened index.
        cursor: u64,
        /// One past the last flattened index.
        total: u64,
    },
    /// Per source: a fresh shuffle of the target permutation, then the
    /// first `k` entries. `next_s` is the next source to deal; `j`
    /// indexes the current source's deal (`j == k` means no current
    /// source).
    FanOut {
        rng: Xoshiro256,
        targets: Vec<u32>,
        k: u32,
        next_s: u32,
        j: u32,
    },
}

impl Iterator for ConnectorIter {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        match &mut self.state {
            IterState::OneToOne { i, n } => {
                if i < n {
                    let v = *i;
                    *i += 1;
                    Some((v, v))
                } else {
                    None
                }
            }
            IterState::AllToAll { s, d, skip_self } => loop {
                if *s >= self.n_src {
                    return None;
                }
                let pair = (*s, *d);
                *d += 1;
                if *d >= self.n_dst {
                    *d = 0;
                    *s += 1;
                }
                if !(*skip_self && pair.0 == pair.1) {
                    return Some(pair);
                }
            },
            IterState::Bernoulli {
                rng,
                p,
                cursor,
                total,
            } => {
                let Some(idx) = next_success(rng, *p, *cursor, *total) else {
                    *cursor = *total;
                    return None;
                };
                *cursor = idx + 1;
                Some((
                    (idx / self.n_dst as u64) as u32,
                    (idx % self.n_dst as u64) as u32,
                ))
            }
            IterState::FanOut {
                rng,
                targets,
                k,
                next_s,
                j,
            } => {
                if *k == 0 {
                    return None;
                }
                if *j >= *k {
                    if *next_s >= self.n_src {
                        return None;
                    }
                    // Deal the next source a fresh permutation — the
                    // same `shuffle` call sequence as the materializing
                    // expansion, so the concrete connectivity (and the
                    // golden traces built on it) is unchanged.
                    rng.shuffle(targets);
                    *next_s += 1;
                    *j = 0;
                }
                let pair = (*next_s - 1, targets[*j as usize]);
                *j += 1;
                Some(pair)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        fn to_usize(v: u64) -> usize {
            usize::try_from(v).unwrap_or(usize::MAX)
        }
        match &self.state {
            IterState::OneToOne { i, n } => {
                let left = (n - i) as usize;
                (left, Some(left))
            }
            IterState::AllToAll { s, d, skip_self } => {
                let scanned = *s as u64 * self.n_dst as u64 + *d as u64;
                let left = (self.n_src as u64 * self.n_dst as u64).saturating_sub(scanned);
                if *skip_self {
                    // Up to one diagonal element may be skipped per
                    // remaining source row.
                    let diag = (self.n_src - s).min(self.n_dst) as u64;
                    (to_usize(left.saturating_sub(diag)), Some(to_usize(left)))
                } else {
                    (to_usize(left), Some(to_usize(left)))
                }
            }
            IterState::Bernoulli { cursor, total, .. } => {
                (0, Some(to_usize(total.saturating_sub(*cursor))))
            }
            IterState::FanOut { k, next_s, j, .. } => {
                if *k == 0 {
                    return (0, Some(0));
                }
                let undealt = (self.n_src as u64).saturating_sub(*next_s as u64);
                let current = if *j < *k { (*k - *j) as u64 } else { 0 };
                let left = undealt * *k as u64 + current;
                (to_usize(left), Some(to_usize(left)))
            }
        }
    }
}

/// The whole abstract network.
#[derive(Clone, Debug, Default)]
pub struct NetworkGraph {
    pops: Vec<Population>,
    projections: Vec<Projection>,
}

impl NetworkGraph {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a population and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn population(
        &mut self,
        name: &str,
        size: u32,
        kind: NeuronKind,
        bias_na: f32,
    ) -> PopulationId {
        assert!(size > 0, "population must have at least one neuron");
        self.pops.push(Population {
            name: name.to_string(),
            size,
            kind,
            bias_na,
        });
        PopulationId(self.pops.len() - 1)
    }

    /// Adds a projection.
    ///
    /// # Panics
    ///
    /// Panics if the populations do not exist, if a one-to-one
    /// connector joins differently sized populations, or if `synapses`
    /// has an inverted weight or delay range or a delay outside
    /// 1–16 ms (the checks of [`Synapses::uniform`], repeated here for
    /// a struct literal).
    pub fn project(
        &mut self,
        src: PopulationId,
        dst: PopulationId,
        connector: Connector,
        synapses: Synapses,
        seed: u64,
    ) {
        assert!(src.0 < self.pops.len() && dst.0 < self.pops.len());
        synapses.check();
        if matches!(connector, Connector::OneToOne) {
            assert_eq!(
                self.pops[src.0].size, self.pops[dst.0].size,
                "one-to-one needs equal population sizes"
            );
        }
        self.projections.push(Projection {
            src,
            dst,
            connector,
            synapses,
            seed,
        });
    }

    /// The populations, in creation order.
    pub fn populations(&self) -> &[Population] {
        &self.pops
    }

    /// A population by id.
    pub fn pop(&self, id: PopulationId) -> &Population {
        &self.pops[id.0]
    }

    /// The projections.
    pub fn projections(&self) -> &[Projection] {
        &self.projections
    }

    /// Total neuron count.
    pub fn total_neurons(&self) -> u64 {
        self.pops.iter().map(|p| p.size as u64).sum()
    }

    /// Ids of populations that `src` projects to (deduplicated).
    pub fn targets_of(&self, src: PopulationId) -> Vec<PopulationId> {
        let mut v: Vec<PopulationId> = self
            .projections
            .iter()
            .filter(|p| p.src == src)
            .map(|p| p.dst)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind() -> NeuronKind {
        NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
    }

    #[test]
    fn build_network() {
        let mut net = NetworkGraph::new();
        let a = net.population("a", 10, kind(), 0.0);
        let b = net.population("b", 20, kind(), 1.0);
        net.project(
            a,
            b,
            Connector::AllToAll { allow_self: true },
            Synapses::constant(10, 1),
            0,
        );
        assert_eq!(net.populations().len(), 2);
        assert_eq!(net.total_neurons(), 30);
        assert_eq!(net.pop(b).size, 20);
        assert_eq!(net.targets_of(a), vec![b]);
        assert!(net.targets_of(b).is_empty());
    }

    #[test]
    fn one_to_one_pairs() {
        let p = Projection {
            src: PopulationId(0),
            dst: PopulationId(1),
            connector: Connector::OneToOne,
            synapses: Synapses::constant(1, 1),
            seed: 0,
        };
        assert_eq!(p.pairs(3, 3), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn all_to_all_excludes_self_when_recurrent() {
        let p = Projection {
            src: PopulationId(0),
            dst: PopulationId(0),
            connector: Connector::AllToAll { allow_self: false },
            synapses: Synapses::constant(1, 1),
            seed: 0,
        };
        let pairs = p.pairs(4, 4);
        assert_eq!(pairs.len(), 12);
        assert!(pairs.iter().all(|&(s, d)| s != d));
    }

    #[test]
    fn fixed_probability_density_and_determinism() {
        let p = Projection {
            src: PopulationId(0),
            dst: PopulationId(1),
            connector: Connector::FixedProbability(0.25),
            synapses: Synapses::constant(1, 1),
            seed: 77,
        };
        let a = p.pairs(100, 100);
        let b = p.pairs(100, 100);
        assert_eq!(a, b, "expansion must be deterministic");
        let density = a.len() as f64 / 10_000.0;
        assert!((0.2..0.3).contains(&density), "density {density}");
    }

    #[test]
    fn fixed_fan_out_exact_and_distinct() {
        let p = Projection {
            src: PopulationId(0),
            dst: PopulationId(1),
            connector: Connector::FixedFanOut(5),
            synapses: Synapses::constant(1, 1),
            seed: 3,
        };
        let pairs = p.pairs(10, 50);
        assert_eq!(pairs.len(), 50);
        for s in 0..10u32 {
            let mut t: Vec<u32> = pairs
                .iter()
                .filter(|&&(a, _)| a == s)
                .map(|&(_, d)| d)
                .collect();
            assert_eq!(t.len(), 5);
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), 5, "targets must be distinct");
        }
    }

    #[test]
    fn synapse_sampling_within_bounds() {
        let s = Synapses::uniform((-100, 200), (2, 9));
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..1000 {
            let (w, d) = s.sample(&mut rng);
            assert!((-100..=200).contains(&w));
            assert!((2..=9).contains(&d));
        }
        let c = Synapses::constant(55, 4);
        assert_eq!(c.sample(&mut rng), (55, 4));
    }

    #[test]
    fn streaming_iter_matches_materialized_pairs() {
        for (connector, sizes) in [
            (Connector::OneToOne, (64u32, 64u32)),
            (Connector::AllToAll { allow_self: false }, (20, 20)),
            (Connector::AllToAll { allow_self: true }, (13, 29)),
            (Connector::FixedProbability(0.3), (40, 50)),
            (Connector::FixedFanOut(7), (25, 30)),
        ] {
            let p = Projection {
                src: PopulationId(0),
                dst: PopulationId(0),
                connector,
                synapses: Synapses::constant(1, 1),
                seed: 99,
            };
            let streamed: Vec<_> = p.iter(sizes.0, sizes.1).collect();
            assert_eq!(streamed, p.pairs(sizes.0, sizes.1), "{connector:?}");
            // Sources ascend (the streaming loader relies on it).
            assert!(streamed.windows(2).all(|w| w[0].0 <= w[1].0));
            let (lo, hi) = p.iter(sizes.0, sizes.1).size_hint();
            assert!(lo <= streamed.len());
            assert!(streamed.len() <= hi.unwrap());
        }
    }

    /// Regression: the materializing expansion computed
    /// `n_src * n_dst` in `u32`, which wraps for populations ≥ 2^16
    /// (e.g. 70k x 70k ⇒ capacity 605M instead of 4.9G). The checked
    /// math lives in the iterator's `size_hint` now.
    #[test]
    fn size_hint_survives_u32_overflow() {
        let p = |connector| Projection {
            src: PopulationId(0),
            dst: PopulationId(1),
            connector,
            synapses: Synapses::constant(1, 1),
            seed: 0,
        };
        let n = 70_000u32; // n * n overflows u32
        let all = p(Connector::AllToAll { allow_self: true });
        let (lo, hi) = all.iter(n, n).size_hint();
        assert_eq!(lo as u64, n as u64 * n as u64);
        assert_eq!(hi.unwrap() as u64, n as u64 * n as u64);
        // FixedFanOut's capacity math (`n_src * k`) wrapped too.
        let fan = p(Connector::FixedFanOut(70_000));
        let (lo, hi) = fan.iter(70_000, 100_000).size_hint();
        assert_eq!(lo as u64, 70_000u64 * 70_000);
        assert_eq!(hi.unwrap(), lo);
        // Bernoulli's upper bound covers the full flattened space.
        let prob = p(Connector::FixedProbability(0.5));
        let (_, hi) = prob.iter(n, n).size_hint();
        assert_eq!(hi.unwrap() as u64, n as u64 * n as u64);
    }

    #[test]
    fn bernoulli_streaming_draws_o_edges_not_o_pairs() {
        // A sparse expansion over a huge index space must terminate
        // quickly: 200k x 200k pairs at p = 1e-9 is ~40 expected edges.
        let p = Projection {
            src: PopulationId(0),
            dst: PopulationId(1),
            connector: Connector::FixedProbability(1e-9),
            synapses: Synapses::constant(1, 1),
            seed: 5,
        };
        let edges: Vec<_> = p.iter(200_000, 200_000).collect();
        assert!(edges.len() < 1000, "{}", edges.len());
        for &(s, d) in &edges {
            assert!(s < 200_000 && d < 200_000);
        }
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
    }

    /// Regression: `(1.0 - p).ln()` rounds to 0 for p below ~1.1e-16,
    /// which made every gap collapse to 1 — inverting an ultra-sparse
    /// projection into all-to-all. `ln_1p` keeps the denominator
    /// finite.
    #[test]
    fn subepsilon_probability_stays_sparse() {
        let p = Projection {
            src: PopulationId(0),
            dst: PopulationId(1),
            connector: Connector::FixedProbability(1e-17),
            synapses: Synapses::constant(1, 1),
            seed: 7,
        };
        // 10,000 pairs at p = 1e-17: expected edges ~1e-13, i.e. none.
        assert_eq!(p.iter(100, 100).count(), 0);
        // And far below epsilon the skip computation saturates instead
        // of overflowing (`+ 1` on a saturated u64 panicked in debug).
        for seed in 0..64 {
            let p = Projection {
                connector: Connector::FixedProbability(1e-300),
                seed,
                ..p.clone()
            };
            assert_eq!(p.iter(100, 100).count(), 0, "seed {seed}");
        }
    }

    #[test]
    fn degenerate_connectors_yield_nothing() {
        let p = |connector| Projection {
            src: PopulationId(0),
            dst: PopulationId(1),
            connector,
            synapses: Synapses::constant(1, 1),
            seed: 1,
        };
        assert_eq!(p(Connector::FixedProbability(0.0)).pairs(50, 50), vec![]);
        assert_eq!(p(Connector::FixedFanOut(0)).pairs(50, 50), vec![]);
        assert_eq!(
            p(Connector::FixedProbability(1.0)).pairs(3, 2).len(),
            6,
            "p = 1 degenerates to all-to-all"
        );
    }

    /// The connector streams, pinned: an FNV-1a fingerprint of every
    /// `Projection::iter` pair, each followed by its `Synapses::sample`
    /// draw from the projection's synapse stream, per connector. The
    /// literals were recorded before the gap sampler, the seed salts and
    /// the connector mapping were each reduced to one copy, and hold
    /// unchanged after; the loader's lazy≡eager tests carry the pin over
    /// to lazy replay.
    #[test]
    fn connector_streams_are_pinned() {
        fn fnv1a(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
            }
        }
        let empty = 0xCBF2_9CE4_8422_2325; // FNV-1a of no bytes
        let cases = [
            (Connector::OneToOne, (40, 56), 0x5BF8_A551_E03D_B3DC, 40),
            (
                Connector::AllToAll { allow_self: false },
                (40, 40),
                0x9935_6029_78D0_6ED0,
                1_560,
            ),
            (
                Connector::FixedProbability(0.2),
                (40, 56),
                0xC604_0A00_225A_E050,
                434,
            ),
            (Connector::FixedProbability(1e-17), (40, 56), empty, 0),
            (Connector::FixedProbability(0.0), (40, 56), empty, 0),
            (
                Connector::FixedProbability(1.5),
                (40, 56),
                0x1692_AE37_851C_FB79,
                2_240,
            ),
            (
                Connector::FixedFanOut(7),
                (40, 56),
                0x1750_D4B8_97F8_5452,
                280,
            ),
        ];
        for (connector, (n_src, n_dst), want, want_len) in cases {
            let p = Projection {
                src: PopulationId(0),
                dst: PopulationId(0),
                connector,
                synapses: Synapses::uniform((-50, 300), (1, 16)),
                seed: 0x0123_4567_89AB,
            };
            let mut syn_rng = p.syn_rng();
            let mut h = empty;
            let mut len = 0;
            for (s, d) in p.iter(n_src, n_dst) {
                let (w, delay) = p.synapses.sample(&mut syn_rng);
                fnv1a(&mut h, &s.to_le_bytes());
                fnv1a(&mut h, &d.to_le_bytes());
                fnv1a(&mut h, &w.to_le_bytes());
                fnv1a(&mut h, &[delay]);
                len += 1;
            }
            assert_eq!((h, len), (want, want_len), "{connector:?}");
        }
    }

    #[test]
    #[should_panic(expected = "delays must lie in 1..=16 ms")]
    fn constant_rejects_zero_delay() {
        Synapses::constant(300, 0);
    }

    #[test]
    #[should_panic(expected = "delays must lie in 1..=16 ms")]
    fn constant_rejects_delay_past_the_ring() {
        Synapses::constant(300, 17);
    }

    /// `project` with a `Synapses` struct literal, which no
    /// constructor has checked.
    fn project_literal(syn: Synapses) {
        let mut net = NetworkGraph::new();
        let a = net.population("a", 4, kind(), 0.0);
        net.project(a, a, Connector::AllToAll { allow_self: true }, syn, 0);
    }

    const LITERAL: Synapses = Synapses {
        weight_min_raw: 100,
        weight_max_raw: 100,
        delay_min_ms: 1,
        delay_max_ms: 1,
    };

    #[test]
    #[should_panic(expected = "delays must lie in 1..=16 ms")]
    fn project_rejects_a_literal_zero_delay() {
        project_literal(Synapses {
            delay_min_ms: 0,
            ..LITERAL
        });
    }

    #[test]
    #[should_panic(expected = "delays must lie in 1..=16 ms")]
    fn project_rejects_a_literal_delay_past_the_ring() {
        project_literal(Synapses {
            delay_min_ms: 17,
            delay_max_ms: 17,
            ..LITERAL
        });
    }

    #[test]
    #[should_panic(expected = "weight range inverted")]
    fn project_rejects_a_literal_inverted_weight_range() {
        project_literal(Synapses {
            weight_min_raw: 200,
            ..LITERAL
        });
    }

    #[test]
    #[should_panic(expected = "equal population sizes")]
    fn one_to_one_size_mismatch_rejected() {
        let mut net = NetworkGraph::new();
        let a = net.population("a", 3, kind(), 0.0);
        let b = net.population("b", 4, kind(), 0.0);
        net.project(a, b, Connector::OneToOne, Synapses::constant(1, 1), 0);
    }

    #[test]
    #[should_panic(expected = "at least one neuron")]
    fn empty_population_rejected() {
        NetworkGraph::new().population("x", 0, kind(), 0.0);
    }
}
