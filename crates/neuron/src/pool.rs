//! Structure-of-arrays neuron state for the per-core tick update.
//!
//! The 1 ms timer handler (Fig. 7, priority 3) walks every neuron on
//! the core. With an array-of-structs (`Vec<AnyNeuron>`) each step
//! pays an enum-discriminant branch per neuron and drags the model
//! parameters through the cache interleaved with the state. A core
//! runs one population slice, so in practice every neuron shares a
//! model kind; [`NeuronPool`] exploits that by storing the state as
//! flat parallel arrays (one `match` per *tick*, not per neuron) while
//! producing bit-identical dynamics — the arithmetic is the same
//! fixed-point/f32 sequence as the per-neuron
//! [`step_1ms`](crate::model::NeuronModel::step_1ms) implementations,
//! which remain the one scalar statement of each model and which this
//! module's tests compare every pool against, bit for bit.
//!
//! A pool holds one model kind, as a core holds one population slice:
//! [`NeuronPool::from_neurons`] panics on a mixed vector and
//! [`NeuronPool::decode`] refuses one as corrupt.
//!
//! # Wide tick path
//!
//! Homogeneous pools step in `LANES`-wide chunks: the drive gather,
//! the state update and the threshold test each run as short
//! straight-line loops over a chunk (no per-neuron callback between
//! them), and threshold crossings collect into a per-chunk bitmask
//! that a trailing sweep turns into ascending-index `on_spike` calls.
//! The arithmetic per neuron is exactly the scalar sequence — the
//! Izhikevich update is integer 16.16 fixed point and the LIF decay
//! factor is a cached value of the same `exp` call the scalar path
//! makes — so chunking changes instruction scheduling, never results.

use crate::fixed::Fix1616;
use crate::izhikevich::{IzhikevichNeuron, IzhikevichParams};
use crate::lif::{LifNeuron, LifParams};
use crate::model::AnyNeuron;

/// Chunk width of the wide tick path. Eight 32-bit lanes span one
/// 256-bit vector register; the update loops are written per-chunk so
/// the autovectorizer can pick whatever width the target offers.
const LANES: usize = 8;

/// Izhikevich state as parallel 16.16 fixed-point arrays.
#[derive(Clone, Debug)]
pub struct IzhikevichPool {
    params: Vec<IzhikevichParams>,
    a: Vec<Fix1616>,
    b: Vec<Fix1616>,
    c: Vec<Fix1616>,
    d: Vec<Fix1616>,
    v: Vec<Fix1616>,
    u: Vec<Fix1616>,
    /// Set when any neuron's `|a|` or `|b|` reaches 1.0 — outside the
    /// clamp-free fast path's range proof (biological presets sit well
    /// below; only the manual API can get here). Checked once per
    /// chunk, not per tick, since parameters are fixed once built.
    params_wild: bool,
}

impl IzhikevichPool {
    /// One exactly sized array per field of `neurons`, all Izhikevich.
    fn new(neurons: &[AnyNeuron]) -> Self {
        let ns = neurons.iter().map(|n| match n {
            AnyNeuron::Izhikevich(n) => n,
            AnyNeuron::Lif(_) => unreachable!("one model per pool"),
        });
        let field = |f: fn(&IzhikevichNeuron) -> Fix1616| ns.clone().map(f).collect();
        IzhikevichPool {
            params: ns.clone().map(|n| n.params).collect(),
            a: field(|n| n.a),
            b: field(|n| n.b),
            c: field(|n| n.c),
            d: field(|n| n.d),
            v: field(|n| n.v),
            u: field(|n| n.u),
            params_wild: ns.clone().any(|n| {
                n.a.to_bits().unsigned_abs() >= 1 << 16 || n.b.to_bits().unsigned_abs() >= 1 << 16
            }),
        }
    }

    fn neuron(&self, i: usize) -> IzhikevichNeuron {
        IzhikevichNeuron {
            params: self.params[i],
            a: self.a[i],
            b: self.b[i],
            c: self.c[i],
            d: self.d[i],
            v: self.v[i],
            u: self.u[i],
        }
    }

    /// Chunked tick: the same fixed-point sequence as
    /// [`IzhikevichNeuron::step_1ms`], restructured as straight-line
    /// loops over `LANES`-wide blocks with a bitmask spike sweep. The
    /// update is integer arithmetic on independent lanes, so the
    /// result is bit-identical to the per-neuron walk.
    ///
    /// Chunks whose state is small enough that no intermediate of the
    /// update can reach the `i32` boundary take a clamp-free `i64`
    /// path: `saturating_add`/`saturating_mul` degenerate to plain
    /// add/widening-mul-shift when their clamps cannot trigger, so
    /// eliding them is exact — and it removes two compare/selects per
    /// arithmetic op from the hot loop. Interval propagation with
    /// entry bounds `v ∈ [-160, 96)`, `|u| ≤ 64`, `|inj| ≤ 64` and
    /// `|a|, |b| < 1` (see [`IzhikevichPool::params_wild`]) bounds the
    /// worst intermediate — `0.04·v₁²` on the second substep with
    /// `v₁ ≤ 654` — near 20,400 and `|v₂| ≤ 11,000`: everything stays
    /// inside the ±32,768 value range, so no clamp can fire. The `v`
    /// window covers rest (≈ -65), reset and hyperpolarized states;
    /// the spike upstroke past +96 (which genuinely saturates around
    /// `v ≈ 1,500`) falls back to the clamped walk for that chunk.
    ///
    /// Returns whether any lane's `v` or `u` moved or any lane fired.
    fn step_tick_wide(
        &mut self,
        input: &impl Fn(usize) -> f32,
        on_spike: &mut impl FnMut(usize),
    ) -> bool {
        let n = self.v.len();
        // OR of `old ^ new` over every lane's `v` and `u`.
        let mut moved = 0;
        let half = Fix1616::from_f32(0.5);
        let k004 = Fix1616::from_f32(0.04);
        let k5 = Fix1616::from_int(5);
        let k140 = Fix1616::from_int(140);
        let mut base = 0;
        while base < n {
            let m = LANES.min(n - base);
            // Gather the drive first so the update loop is pure lane
            // arithmetic with no interleaved calls. `spread` folds the
            // clamp-free guard: zero iff every lane has
            // `v + 160 ∈ [0, 256)` and `|u|, |inj| < 64` in value.
            let mut inj = [Fix1616::from_int(0); LANES];
            let mut spread: u64 = 0;
            for (k, lane) in inj.iter_mut().enumerate().take(m) {
                *lane = Fix1616::from_f32(input(base + k));
                let i = base + k;
                spread |= ((self.v[i].to_bits() as i64 + (160 << 16)) as u64) >> 24;
                spread |= (self.u[i].to_bits().unsigned_abs() as u64) >> 22;
                spread |= (lane.to_bits().unsigned_abs() as u64) >> 22;
            }
            let mut fired: u32 = 0;
            if spread == 0 && !self.params_wild {
                for k in 0..m {
                    let i = base + k;
                    let (mut v, mut u) = (self.v[i].to_bits() as i64, self.u[i].to_bits() as i64);
                    let (a, b) = (self.a[i].to_bits() as i64, self.b[i].to_bits() as i64);
                    let inj = inj[k].to_bits() as i64;
                    let (k004, k5, k140) = (
                        k004.to_bits() as i64,
                        k5.to_bits() as i64,
                        k140.to_bits() as i64,
                    );
                    for _ in 0..2 {
                        // Same association as `k004 * v * v + ...`; the
                        // `* half` is an exact arithmetic halving.
                        let t = ((((k004 * v) >> 16) * v) >> 16) + ((k5 * v) >> 16);
                        let dv = t + k140 - u + inj;
                        v += dv >> 1;
                    }
                    u += (a * (((b * v) >> 16) - u)) >> 16;
                    fired |= u32::from(v >= (30 << 16)) << k;
                    let (v, u) = (v as i32, u as i32);
                    moved |= (v ^ self.v[i].to_bits()) | (u ^ self.u[i].to_bits());
                    self.v[i] = Fix1616::from_bits(v);
                    self.u[i] = Fix1616::from_bits(u);
                }
            } else {
                for (k, &inj_k) in inj.iter().enumerate().take(m) {
                    let i = base + k;
                    let (mut v, mut u) = (self.v[i], self.u[i]);
                    for _ in 0..2 {
                        let dv = k004 * v * v + k5 * v + k140 - u + inj_k;
                        v += dv * half;
                    }
                    u += self.a[i] * (self.b[i] * v - u);
                    // `v.to_f32() >= 30.0` in the fixed domain: the
                    // conversion is exact for |bits| <= 2^24 and both
                    // sides agree for saturated magnitudes, so the
                    // integer compare decides identically.
                    fired |= u32::from(v.to_bits() >= 30 << 16) << k;
                    moved |=
                        (v.to_bits() ^ self.v[i].to_bits()) | (u.to_bits() ^ self.u[i].to_bits());
                    self.v[i] = v;
                    self.u[i] = u;
                }
            }
            moved |= fired as i32;
            // Spike sweep: resets and callbacks only for set lanes, in
            // ascending index order (the scalar path's order).
            while fired != 0 {
                let i = base + fired.trailing_zeros() as usize;
                fired &= fired - 1;
                self.v[i] = self.c[i];
                self.u[i] += self.d[i];
                on_spike(i);
            }
            base += m;
        }
        moved != 0
    }
}

/// LIF state as parallel arrays.
#[derive(Clone, Debug)]
pub struct LifPool {
    params: Vec<LifParams>,
    v: Vec<f32>,
    refract_left: Vec<u32>,
    /// Cached membrane decay `exp(-1/tau_m)` per neuron. Parameters are
    /// fixed once built, and this is the very expression
    /// [`LifNeuron::step_1ms`] evaluates, so caching it cannot change a
    /// bit of the dynamics — it only lifts a transcendental out of the
    /// per-tick loop.
    alpha: Vec<f32>,
}

impl LifPool {
    /// One exactly sized array per field of `neurons`, all LIF.
    fn new(neurons: &[AnyNeuron]) -> Self {
        let ns = neurons.iter().map(|n| match n {
            AnyNeuron::Lif(n) => n,
            AnyNeuron::Izhikevich(_) => unreachable!("one model per pool"),
        });
        LifPool {
            params: ns.clone().map(|n| n.params).collect(),
            v: ns.clone().map(|n| n.v).collect(),
            refract_left: ns.clone().map(|n| n.refract_left).collect(),
            alpha: ns.map(|n| (-1.0 / n.params.tau_m).exp()).collect(),
        }
    }

    fn neuron(&self, i: usize) -> LifNeuron {
        LifNeuron {
            params: self.params[i],
            v: self.v[i],
            refract_left: self.refract_left[i],
        }
    }

    /// Chunked tick: the same f32 sequence as [`LifNeuron::step_1ms`]
    /// with the decay factor taken from the [`LifPool::alpha`] cache and
    /// threshold crossings gathered into a bitmask before the reset
    /// sweep. Refractory bookkeeping stays inline — it is a counter
    /// decrement, not worth a separate pass.
    ///
    /// Returns whether any lane's `v` or refractory count moved or any
    /// lane fired.
    fn step_tick_wide(
        &mut self,
        input: &impl Fn(usize) -> f32,
        on_spike: &mut impl FnMut(usize),
    ) -> bool {
        let n = self.v.len();
        // OR of `old ^ new` over every lane's `v` and refractory count.
        let mut moved = 0;
        let mut base = 0;
        while base < n {
            let m = LANES.min(n - base);
            let mut fired: u32 = 0;
            for k in 0..m {
                let i = base + k;
                if self.refract_left[i] > 0 {
                    self.refract_left[i] -= 1;
                    moved |= 1;
                    continue;
                }
                let p = &self.params[i];
                let v_inf = p.v_rest + p.r_m * input(i);
                let v = v_inf + (self.v[i] - v_inf) * self.alpha[i];
                if v >= p.v_thresh {
                    fired |= 1 << k;
                } else {
                    moved |= v.to_bits() ^ self.v[i].to_bits();
                    self.v[i] = v;
                }
            }
            moved |= fired;
            while fired != 0 {
                let i = base + fired.trailing_zeros() as usize;
                fired &= fired - 1;
                self.v[i] = self.params[i].v_reset;
                self.refract_left[i] = self.params[i].t_refract;
                on_spike(i);
            }
            base += m;
        }
        moved != 0
    }
}

/// A core's neuron state vector in structure-of-arrays form.
///
/// # Example
///
/// ```
/// use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
/// use spinn_neuron::pool::NeuronPool;
///
/// let neurons = (0..4)
///     .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
///     .collect();
/// let mut pool = NeuronPool::from_neurons(neurons);
/// let mut fired = Vec::new();
/// pool.step_tick(|_| 15.0, |i| fired.push(i));
/// assert_eq!(pool.len(), 4);
/// ```
#[derive(Clone, Debug)]
pub enum NeuronPool {
    /// All neurons Izhikevich (the loader's common case).
    Izhikevich(IzhikevichPool),
    /// All neurons LIF.
    Lif(LifPool),
}

/// Whether `neurons` holds more than one model.
fn mixed(neurons: &[AnyNeuron]) -> bool {
    use std::mem::discriminant;
    neurons
        .windows(2)
        .any(|w| discriminant(&w[0]) != discriminant(&w[1]))
}

impl NeuronPool {
    /// Converts a neuron vector of one model into SoA form, one exactly
    /// sized array per state field. An empty vector gives an empty
    /// Izhikevich pool.
    ///
    /// # Panics
    ///
    /// Panics if the vector mixes models.
    pub fn from_neurons(neurons: Vec<AnyNeuron>) -> Self {
        assert!(!mixed(&neurons), "mixed neuron models in one pool");
        match neurons.first() {
            Some(AnyNeuron::Lif(_)) => NeuronPool::Lif(LifPool::new(&neurons)),
            _ => NeuronPool::Izhikevich(IzhikevichPool::new(&neurons)),
        }
    }

    /// Converts back to the per-neuron representation (core eviction /
    /// functional migration).
    pub fn into_neurons(self) -> Vec<AnyNeuron> {
        match self {
            NeuronPool::Izhikevich(p) => (0..p.v.len())
                .map(|i| AnyNeuron::Izhikevich(p.neuron(i)))
                .collect(),
            NeuronPool::Lif(p) => (0..p.v.len())
                .map(|i| AnyNeuron::Lif(p.neuron(i)))
                .collect(),
        }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        match self {
            NeuronPool::Izhikevich(p) => p.v.len(),
            NeuronPool::Lif(p) => p.v.len(),
        }
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the pool's complete state (checkpointing).
    ///
    /// The encoding is per-neuron ([`AnyNeuron::encode`]); decode
    /// rebuilds the SoA form through [`NeuronPool::from_neurons`], which
    /// reproduces the exact layout `from_neurons` would have produced on
    /// the original neuron vector — restored dynamics are bit-exact.
    pub fn encode(&self, enc: &mut spinn_sim::wire::Enc) {
        enc.seq(self.len());
        match self {
            NeuronPool::Izhikevich(p) => {
                for i in 0..p.v.len() {
                    AnyNeuron::Izhikevich(p.neuron(i)).encode(enc);
                }
            }
            NeuronPool::Lif(p) => {
                for i in 0..p.v.len() {
                    AnyNeuron::Lif(p.neuron(i)).encode(enc);
                }
            }
        }
    }

    /// Rebuilds a pool from [`NeuronPool::encode`] bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`spinn_sim::wire::WireError`] on truncated or corrupt
    /// input, a vector that mixes models included.
    pub fn decode(
        dec: &mut spinn_sim::wire::Dec<'_>,
    ) -> Result<NeuronPool, spinn_sim::wire::WireError> {
        let n = dec.seq(9)?;
        let mut neurons = Vec::with_capacity(n);
        for _ in 0..n {
            neurons.push(AnyNeuron::decode(dec)?);
        }
        if mixed(&neurons) {
            return Err(spinn_sim::wire::WireError::Corrupt("mixed neuron models"));
        }
        Ok(NeuronPool::from_neurons(neurons))
    }

    /// Advances every neuron by 1 ms: `input(i)` supplies the summed
    /// drive in nA, `on_spike(i)` fires for each neuron that crossed
    /// threshold, in ascending index order, through the chunked wide
    /// path (see the module docs).
    ///
    /// Returns `true` if the tick changed anything: a state bit moved
    /// (the pool's [`encode`](NeuronPool::encode) bytes differ) or a
    /// neuron fired. `false` means the pool sits at a fixed point of
    /// this drive — the same drive again changes nothing.
    #[inline]
    pub fn step_tick(
        &mut self,
        input: impl Fn(usize) -> f32,
        mut on_spike: impl FnMut(usize),
    ) -> bool {
        match self {
            NeuronPool::Izhikevich(p) => p.step_tick_wide(&input, &mut on_spike),
            NeuronPool::Lif(p) => p.step_tick_wide(&input, &mut on_spike),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NeuronModel;

    fn drive(t: usize, i: usize) -> f32 {
        match (t + i) % 4 {
            0 => 14.0,
            1 => 6.5,
            2 => 0.0,
            _ => 9.0,
        }
    }

    /// SoA stepping must match the per-neuron `step_1ms` models — the
    /// only scalar statement of either update — bit for bit: the spike
    /// list and the complete encoded state after every tick, at pool
    /// sizes that leave ragged tails shorter than a chunk and put
    /// neurons right at the chunk seams. Returns the spikes seen.
    fn assert_pool_matches_aos(mk: impl Fn(usize) -> AnyNeuron, ticks: usize) -> usize {
        let mut spikes = 0;
        for n in [0usize, 1, 7, 8, 9, 31, 32, 33] {
            let mut aos: Vec<AnyNeuron> = (0..n).map(&mk).collect();
            let mut pool = NeuronPool::from_neurons((0..n).map(&mk).collect());
            for t in 0..ticks {
                let mut expect = Vec::new();
                for (i, neuron) in aos.iter_mut().enumerate() {
                    if neuron.step_1ms(drive(t, i)) {
                        expect.push(i);
                    }
                }
                let mut got = Vec::new();
                pool.step_tick(|i| drive(t, i), |i| got.push(i));
                assert_eq!(got, expect, "n={n} tick {t}");
                let mut want = spinn_sim::wire::Enc::new();
                want.seq(n);
                for neuron in &aos {
                    neuron.encode(&mut want);
                }
                let mut have = spinn_sim::wire::Enc::new();
                pool.encode(&mut have);
                assert_eq!(have.into_bytes(), want.into_bytes(), "n={n} tick {t}");
                spikes += got.len();
            }
        }
        spikes
    }

    #[test]
    fn izhikevich_pool_bit_exact() {
        let presets = [
            IzhikevichParams::regular_spiking(),
            IzhikevichParams::fast_spiking(),
            IzhikevichParams::chattering(),
        ];
        let spikes = assert_pool_matches_aos(
            |i| AnyNeuron::Izhikevich(IzhikevichNeuron::new(presets[i % 3])),
            600,
        );
        assert!(spikes > 0);
    }

    /// `|a| >= 1` or `|b| >= 1` voids the range proof behind the
    /// clamp-free lanes, so one such neuron (reachable through the
    /// public `IzhikevichParams` fields) must pin the whole pool to the
    /// clamped walk — which still equals `step_1ms`, saturation and all.
    /// The last case is the one that bites: at rest its chunk passes the
    /// per-tick state guard, and `a·(b·v − u)` saturates on tick 0, so
    /// without the parameter guard the `i64` lanes wrap where `Fix1616`
    /// clamps.
    #[test]
    fn wild_izhikevich_params_take_the_clamped_path() {
        for wild in [
            IzhikevichParams {
                a: 1.5,
                ..IzhikevichParams::regular_spiking()
            },
            IzhikevichParams {
                b: -2.0,
                ..IzhikevichParams::regular_spiking()
            },
            IzhikevichParams {
                a: 30_000.0,
                ..IzhikevichParams::regular_spiking()
            },
        ] {
            let mk = |i: usize| -> AnyNeuron {
                // One wild neuron per chunk of tame ones.
                let params = if i % 8 == 3 {
                    wild
                } else {
                    IzhikevichParams::fast_spiking()
                };
                IzhikevichNeuron::new(params).into()
            };
            match NeuronPool::from_neurons((0..8).map(mk).collect()) {
                NeuronPool::Izhikevich(p) => assert!(p.params_wild),
                _ => unreachable!(),
            }
            assert!(assert_pool_matches_aos(mk, 600) > 0);
        }
    }

    #[test]
    fn lif_pool_bit_exact() {
        let spikes = assert_pool_matches_aos(
            |i| {
                AnyNeuron::Lif(LifNeuron::new(LifParams {
                    t_refract: (i % 5) as u32,
                    tau_m: 10.0 + (i % 7) as f32,
                    ..Default::default()
                }))
            },
            600,
        );
        assert!(spikes > 0);
    }

    fn encoded(pool: &NeuronPool) -> Vec<u8> {
        let mut enc = spinn_sim::wire::Enc::new();
        pool.encode(&mut enc);
        enc.into_bytes()
    }

    /// One tick of `pool` at `drive`: the changed-flag `step_tick`
    /// returns must say exactly whether the encoded state moved or a
    /// neuron fired. Returns the flag.
    fn assert_flag_is_exact(pool: &mut NeuronPool, drive: &[f32]) -> bool {
        let before = encoded(pool);
        let mut fired = false;
        let changed = pool.step_tick(|i| drive[i], |_| fired = true);
        assert_eq!(changed, encoded(pool) != before || fired, "drive {drive:?}");
        changed
    }

    /// `params` stepped at zero drive until a tick leaves it bit-equal.
    fn at_rest(params: IzhikevichParams) -> IzhikevichNeuron {
        let mut n = IzhikevichNeuron::new(params);
        for _ in 0..2000 {
            let (v, u) = (n.v, n.u);
            assert!(!n.step_1ms(0.0));
            if (n.v, n.u) == (v, u) {
                return n;
            }
        }
        panic!("no fixed point within 2000 ticks");
    }

    /// The changed-flag over random states and drives, both models, at
    /// pool sizes with ragged chunk tails: states from hyperpolarized
    /// to past threshold (so the clamped lanes, spikes and refractory
    /// counts all occur), drives zero half the time. Every third pool
    /// starts at rest under zero drive, with one neuron in four
    /// displaced, so still pools occur too.
    #[test]
    fn changed_flag_matches_the_encoded_state() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f32 / (1u64 << 53) as f32
        };
        let presets = [
            IzhikevichParams::regular_spiking(),
            IzhikevichParams::fast_spiking(),
        ];
        let rest = presets.map(at_rest);
        let (mut changed, mut still) = (0, 0);
        for round in 0..400 {
            let n = [1, 7, 8, 9, 17][round % 5];
            let quiet = round % 3 == 0;
            let drive: Vec<f32> = (0..n)
                .map(|_| {
                    if quiet || unit() < 0.5 {
                        0.0
                    } else {
                        unit() * 40.0 - 5.0
                    }
                })
                .collect();
            let mut pool = if round % 2 == 0 {
                NeuronPool::from_neurons(
                    (0..n)
                        .map(|i| {
                            let mut x = rest[i % 2].clone();
                            if !quiet || unit() < 0.25 {
                                x.v = Fix1616::from_f32(unit() * 140.0 - 100.0);
                                x.u = Fix1616::from_f32(unit() * 30.0 - 20.0);
                            }
                            x.into()
                        })
                        .collect(),
                )
            } else {
                NeuronPool::from_neurons(
                    (0..n)
                        .map(|_| {
                            let mut x = LifNeuron::new(LifParams {
                                t_refract: (unit() * 3.0) as u32,
                                ..Default::default()
                            });
                            if !quiet || unit() < 0.25 {
                                x.v = unit() * 20.0 - 70.0;
                                x.refract_left = (unit() * 2.0) as u32;
                            }
                            x.into()
                        })
                        .collect(),
                )
            };
            for _ in 0..3 {
                if assert_flag_is_exact(&mut pool, &drive) {
                    changed += 1;
                } else {
                    still += 1;
                }
            }
        }
        assert!(changed > 0 && still > 0, "{changed} changed, {still} still");
    }

    /// Regular-spiking Izhikevich at zero drive reaches a bit-exact
    /// fixed point, where a tick reports no change; one ulp of `v` off
    /// it, the tick moves the state and says so.
    #[test]
    fn the_regular_spiking_fixed_point_reports_no_change() {
        let mut n = at_rest(IzhikevichParams::regular_spiking());
        let mut pool = NeuronPool::from_neurons(vec![n.clone().into(); 9]);
        assert!(!assert_flag_is_exact(&mut pool, &[0.0; 9]));
        n.v = Fix1616::from_bits(n.v.to_bits() + 1);
        let mut neurons: Vec<AnyNeuron> = vec![pool.into_neurons()[0].clone(); 9];
        neurons[8] = n.into();
        let mut pool = NeuronPool::from_neurons(neurons);
        assert!(assert_flag_is_exact(&mut pool, &[0.0; 9]));
    }

    /// A snapshot whose pool mixes models is corrupt, not a panic: the
    /// encoding of an Izhikevich pool with one LIF neuron spliced in.
    #[test]
    fn decode_refuses_a_mixed_pool() {
        let mut enc = spinn_sim::wire::Enc::new();
        enc.seq(2);
        AnyNeuron::from(IzhikevichNeuron::new(IzhikevichParams::regular_spiking()))
            .encode(&mut enc);
        AnyNeuron::from(LifNeuron::new(LifParams::default())).encode(&mut enc);
        let bytes = enc.into_bytes();
        let got = NeuronPool::decode(&mut spinn_sim::wire::Dec::new(&bytes));
        assert!(matches!(got, Err(spinn_sim::wire::WireError::Corrupt(_))));
    }

    #[test]
    fn len_and_empty() {
        let pool = NeuronPool::from_neurons(Vec::new());
        assert_eq!(pool.len(), 0);
        assert!(pool.is_empty());
    }
}
