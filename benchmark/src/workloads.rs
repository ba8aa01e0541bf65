//! The seven workloads: every network, stimulus program and job stream
//! is generated here from `--seed`; the program under test receives
//! only the generated `NetworkGraph`s, `SimConfig`s and `JobSpec`s.
//!
//! Sizes and run lengths are constants in this file — there is no
//! quick mode and no environment variable.

use spinnaker::neuron::stdp::StdpParams;
use spinnaker::prelude::*;

use crate::stats::SplitMix;

/// `(name, why)` for every workload, in run order. `BENCHMARK.json`
/// carries the same list.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "cortex_stim",
        "paper operating point: 100k neurons, 10M synapses, 5 Hz Poisson; event queue, row walks and handlers do the work",
    ),
    (
        "cortex_stim_2w",
        "the same net, stimulus and seed on 2 worker threads: the only workload where the parallel engine does work",
    ),
    (
        "synfire_fabric",
        "few neurons really firing under scattered placement: router lookups, fabric hops and queue ops, almost no row walks",
    ),
    (
        "idle_mesh",
        "the million-core configuration in miniature: 16k mostly idle cores, so per-core tick cost and lazy-row memory show",
    ),
    (
        "plastic_stdp",
        "the synaptic layer's write path: STDP rewrites rows, DMAs them back and grows checkpoints with dirty rows",
    ),
    (
        "build_randgraph",
        "the mapping pipeline: place, route, minimize and load a random graph whose build dwarfs every other workload's",
    ),
    (
        "serve_churn",
        "closed-loop serving of 4 models under a 60% resident budget: snapshot encode, eviction and rehydrate on the job path",
    ),
];

/// Untimed warm-up before the timed loop, biological ms: lazy rows
/// materialize, allocators and queues reach steady capacity.
pub const WARMUP_MS: u32 = 50;

/// How a run's `--seconds` are divided: the timed loop gets this share,
/// the repeat phase after it the rest.
pub const LOOP_SHARE: f64 = 0.6;

/// The repeat phase of an untraced run times set-ups and checkpoint
/// round trips: one set-up, one round trip, alternately, for at least
/// `MIN_ROUNDS` rounds and until its share of `--seconds` has passed —
/// so a 20 ms build is judged on a hundred samples, and both metrics
/// sample the same several seconds of host time. (The host slows down
/// for a second or two at a time; half a second of back-to-back repeats
/// can fall wholly inside one such episode, and its median with it.)
/// The medians are reported. A traced run does each once.
pub const MIN_ROUNDS: usize = 5;
pub const MAX_ROUNDS: usize = 1000;

/// Whether the repeat phase owes another round.
pub fn more_rounds(rounds: usize, elapsed_s: f64, budget_s: f64) -> bool {
    rounds < MIN_ROUNDS || (rounds < MAX_ROUNDS && elapsed_s < budget_s)
}

/// Runs `round` until [`more_rounds`] is satisfied for a phase of
/// `budget_s` seconds; returns the number of rounds.
pub fn repeat_phase(budget_s: f64, mut round: impl FnMut()) -> usize {
    let t0 = std::time::Instant::now();
    let mut rounds = 0;
    while more_rounds(rounds, t0.elapsed().as_secs_f64(), budget_s) {
        round();
        rounds += 1;
    }
    rounds
}

/// Most packets the fabric may drop in the timed loop, as a share of
/// packets routed, on any workload (the paper's "no drops", with room
/// for the odd congested link).
pub const MAX_DROP_SHARE: f64 = 0.01;

/// A workload driven through `Simulation::build` → `RunSession`.
pub struct SessionWorkload {
    pub net: NetworkGraph,
    pub cfg: SimConfig,
    /// Poisson sources attached after the build: `(pop, Hz, seed)`.
    pub poisson: Vec<(PopulationId, f64, u64)>,
    /// One job is one `run_for(job_ms)` + `take_spikes()`; sized so a
    /// run completes enough jobs for a tail percentile.
    pub job_ms: u32,
    /// Length of the equality-check segments (build cross-check prefix
    /// and post-restore continuation), biological ms.
    pub check_ms: u32,
    /// Band the mean firing rate over all neurons must fall in during
    /// the timed loop, Hz — the run exercised what the workload is for.
    pub rate_hz: (f64, f64),
}

impl SessionWorkload {
    /// Explicit single-spike stimuli for the build cross-check prefix:
    /// `(tick, pop, neuron)`, a few per driven population per tick.
    /// Injected identically into every build being compared, before any
    /// Poisson source is attached.
    pub fn prefix_stimuli(&self, seed: u64) -> Vec<(u32, PopulationId, u32)> {
        let mut rng = SplitMix::new(seed ^ 0x5717_0000);
        let mut out = Vec::new();
        for t in 1..=self.check_ms {
            for &(pop, _, _) in &self.poisson {
                let size = u64::from(self.net.pop(pop).size);
                for _ in 0..(size / 512).max(1) {
                    out.push((t, pop, rng.below(size) as u32));
                }
            }
        }
        out
    }
}

fn rs() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

/// 20 × 5000 regular-spiking neurons in a ring of sparse random
/// projections (≈100 inputs per neuron, sub-threshold weights), every
/// population Poisson-driven at 5 Hz.
fn cortex(seed: u64, threads: u32) -> SessionWorkload {
    let mut rng = SplitMix::new(seed);
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..20)
        .map(|i| net.population(&format!("p{i}"), 5000, rs(), 0.0))
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        net.project(
            src,
            pops[(i + 1) % pops.len()],
            Connector::FixedProbability(0.02),
            Synapses::constant(150, 1 + (i % 4) as u8),
            rng.next_u64(),
        );
    }
    let poisson = pops.iter().map(|&p| (p, 5.0, rng.next_u64())).collect();
    SessionWorkload {
        net,
        cfg: SimConfig::new(8, 8)
            .with_neurons_per_core(256)
            .with_threads(threads),
        poisson,
        job_ms: 1,
        check_ms: 20,
        rate_hz: (0.0, 1.0),
    }
}

/// A 16-stage ring of 512-neuron stages, fan-out 12 with strong
/// synapses, every stage Poisson-driven at 10 Hz, placed at random so
/// every spike crosses many chips. Firing is real (~1.7 Hz) but
/// stimulus-driven and asynchronous: a tonically biased first stage
/// fires all 512 identical neurons in the same tick, and the volley
/// overflows the link queues (a fifth of all packets dropped).
fn synfire_fabric(seed: u64) -> SessionWorkload {
    let mut rng = SplitMix::new(seed);
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..16)
        .map(|i| net.population(&format!("s{i}"), 512, rs(), 0.0))
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        net.project(
            src,
            pops[(i + 1) % pops.len()],
            Connector::FixedFanOut(12),
            Synapses::constant(1200, 2),
            rng.next_u64(),
        );
    }
    let placer = Placer::Random {
        seed: rng.next_u64(),
    };
    let poisson = pops.iter().map(|&p| (p, 12.0, rng.next_u64())).collect();
    SessionWorkload {
        net,
        cfg: SimConfig::new(8, 8)
            .with_neurons_per_core(128)
            .with_placer(placer),
        poisson,
        job_ms: 5,
        check_ms: 100,
        rate_hz: (0.1, 2.0),
    }
}

/// 32 × 32 chips × 16 application cores, 8 neurons per core: one
/// 128-neuron population per chip in an all-to-all ring (lazy
/// generator rows), only chip 0's population Poisson-driven — 16 384
/// cores tick every millisecond and almost none has anything to do.
fn idle_mesh(seed: u64) -> SessionWorkload {
    let mut rng = SplitMix::new(seed);
    let mut net = NetworkGraph::new();
    let chips = 32 * 32;
    let pops: Vec<_> = (0..chips)
        .map(|i| net.population(&format!("c{i}"), 128, rs(), 0.0))
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        net.project(
            src,
            pops[(i + 1) % pops.len()],
            Connector::AllToAll { allow_self: false },
            Synapses::constant(40, 1),
            rng.next_u64(),
        );
    }
    let mut cfg = SimConfig::new(32, 32).with_neurons_per_core(8);
    cfg.machine.cores_per_chip = 17;
    SessionWorkload {
        net,
        cfg,
        poisson: vec![(pops[0], 20.0, rng.next_u64())],
        job_ms: 2,
        check_ms: 40,
        rate_hz: (0.0, 1.0),
    }
}

/// A ring of 64 × 128 excitatory neurons with dense random fan-in
/// (≈51 inputs per neuron), STDP on: the synaptic layer's write path.
/// Each population gets its own seeded supra-threshold bias, so the
/// populations fire at 6-18 Hz out of phase with each other; one shared
/// bias would fire all 8192 identical neurons in the same ticks and
/// turn the job latency into a burst lottery.
fn plastic_stdp(seed: u64) -> SessionWorkload {
    let mut rng = SplitMix::new(seed);
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..64)
        .map(|i| {
            let bias = 4.0 + 2.5 * rng.unit();
            net.population(&format!("e{i}"), 128, rs(), bias as f32)
        })
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        net.project(
            src,
            pops[(i + 1) % pops.len()],
            Connector::FixedProbability(0.4),
            Synapses::constant(150, 1 + (i % 4) as u8),
            rng.next_u64(),
        );
    }
    let poisson = pops.iter().map(|&p| (p, 20.0, rng.next_u64())).collect();
    SessionWorkload {
        net,
        cfg: SimConfig::new(8, 8)
            .with_neurons_per_core(128)
            .with_stdp(StdpParams {
                w_max_raw: 200,
                ..StdpParams::default()
            }),
        poisson,
        job_ms: 5,
        check_ms: 50,
        rate_hz: (2.0, 20.0),
    }
}

/// Many mid-sized populations, each projecting sparsely to four
/// seeded-random targets, placed at random on a 16 × 16 mesh: a build
/// that stresses routing-tree construction, table minimization and the
/// synapse loader.
fn build_randgraph(seed: u64) -> SessionWorkload {
    let mut rng = SplitMix::new(seed);
    let mut net = NetworkGraph::new();
    let n_pops = 128u64;
    let pops: Vec<_> = (0..n_pops)
        .map(|i| net.population(&format!("g{i}"), 1024, rs(), 0.0))
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        for k in 0..4u8 {
            let dst = pops[rng.below(n_pops) as usize];
            net.project(
                src,
                dst,
                Connector::FixedProbability(0.03),
                Synapses::constant(150, 1 + k),
                rng.next_u64() ^ i as u64,
            );
        }
    }
    let placer = Placer::Random {
        seed: rng.next_u64(),
    };
    let poisson = pops.iter().map(|&p| (p, 1.0, rng.next_u64())).collect();
    SessionWorkload {
        net,
        cfg: SimConfig::new(16, 16)
            .with_neurons_per_core(128)
            .with_placer(placer),
        poisson,
        job_ms: 1,
        check_ms: 20,
        rate_hz: (0.0, 1.0),
    }
}

/// The session workload of that name, generated from `seed`.
/// `cortex_stim` and `cortex_stim_2w` share every input but the thread
/// count, so their outputs must be identical.
pub fn session_workload(name: &str, seed: u64) -> Option<SessionWorkload> {
    Some(match name {
        "cortex_stim" => cortex(seed, 1),
        "cortex_stim_2w" => cortex(seed, 2),
        "synfire_fabric" => synfire_fabric(seed),
        "idle_mesh" => idle_mesh(seed),
        "plastic_stdp" => plastic_stdp(seed),
        "build_randgraph" => build_randgraph(seed),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// serve_churn

/// Serving models, clients and job shape.
pub const SERVE_MODELS: usize = 4;
pub const SERVE_CLIENTS: usize = 4;
pub const SERVE_JOB_MS: u32 = 10;
/// Share of requests each model receives, most popular first.
pub const SERVE_POPULARITY: [f64; SERVE_MODELS] = [0.55, 0.25, 0.13, 0.07];
/// Resident-byte budget as a share of the unlimited-budget peak.
pub const SERVE_BUDGET_SHARE: f64 = 0.60;
/// Jobs of the stream served untimed first (warm-up), and compared
/// against the unlimited-budget reference pass.
pub const SERVE_WARMUP_JOBS: usize = 200;

/// One serving model: a stimulus-driven feed-forward chain with no
/// tonic bias, so a job costs what its own stimulus injects.
pub fn serving_model(seed: u64, m: usize) -> (NetworkGraph, SimConfig) {
    let mut rng = SplitMix::new(seed ^ (0x5e7e_0000 + m as u64));
    let mut net = NetworkGraph::new();
    let size = 800 + 64 * m as u32;
    let pops: Vec<_> = (0..8)
        .map(|i| net.population(&format!("p{i}"), size, rs(), 0.0))
        .collect();
    for (i, w) in pops.windows(2).enumerate() {
        net.project(
            w[0],
            w[1],
            Connector::FixedProbability(0.02),
            Synapses::constant(520, 1 + (i % 4) as u8),
            rng.next_u64(),
        );
    }
    (net, SimConfig::new(4, 4).with_neurons_per_core(256))
}

/// One request of the job stream (the tenant is the submitting
/// client).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    pub model: usize,
    pub rate_hz: f64,
    pub stim_seed: u64,
}

/// The seeded, endless job stream: model by popularity, stimulus rate
/// and seed per job. Request `k` is a pure function of `(seed, k)`'s
/// position in the stream, whatever the server does with it.
pub struct JobStream(SplitMix);

impl JobStream {
    pub fn new(seed: u64) -> Self {
        JobStream(SplitMix::new(seed ^ 0x10b5_0000))
    }
}

impl Iterator for JobStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let u = self.0.unit();
        let mut acc = 0.0;
        let mut model = SERVE_MODELS - 1;
        for (m, share) in SERVE_POPULARITY.iter().enumerate() {
            acc += share;
            if u < acc {
                model = m;
                break;
            }
        }
        Some(Request {
            model,
            rate_hz: 40.0 + 80.0 * self.0.unit(),
            stim_seed: self.0.next_u64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a: Vec<_> = JobStream::new(3).take(50).collect();
        let b: Vec<_> = JobStream::new(3).take(50).collect();
        let c: Vec<_> = JobStream::new(4).take(50).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let seeds = |w: &SessionWorkload| -> Vec<u64> {
            w.net.projections().iter().map(|p| p.seed).collect()
        };
        let w1 = session_workload("plastic_stdp", 9).unwrap();
        let w2 = session_workload("plastic_stdp", 9).unwrap();
        let w3 = session_workload("plastic_stdp", 10).unwrap();
        assert_eq!(seeds(&w1), seeds(&w2));
        assert_ne!(seeds(&w1), seeds(&w3));
        assert_eq!(w1.prefix_stimuli(9), w2.prefix_stimuli(9));
    }

    #[test]
    fn popularity_follows_the_table() {
        let n = 20_000;
        let mut hits = [0usize; SERVE_MODELS];
        for r in JobStream::new(1).take(n) {
            hits[r.model] += 1;
        }
        for (h, share) in hits.iter().zip(SERVE_POPULARITY) {
            assert!((*h as f64 / n as f64 - share).abs() < 0.02, "{hits:?}");
        }
    }

    #[test]
    fn the_two_cortex_workloads_differ_only_in_threads() {
        let a = session_workload("cortex_stim", 5).unwrap();
        let b = session_workload("cortex_stim_2w", 5).unwrap();
        assert_eq!((a.cfg.threads, b.cfg.threads), (1, 2));
        assert_eq!(a.poisson, b.poisson);
        assert_eq!(a.prefix_stimuli(5), b.prefix_stimuli(5));
        assert!(session_workload("serve_churn", 5).is_none());
        assert_eq!(WORKLOADS.len(), 7);
    }

    #[test]
    fn cheap_rounds_repeat_until_the_phase_is_over() {
        assert!(more_rounds(0, 0.0, 4.0));
        // A slow set-up overruns the phase but still gets its minimum.
        assert!(more_rounds(MIN_ROUNDS - 1, 9.0, 4.0));
        assert!(!more_rounds(MIN_ROUNDS, 9.0, 4.0));
        assert!(more_rounds(MIN_ROUNDS, 3.9, 4.0));
        assert!(!more_rounds(MAX_ROUNDS, 0.1, 4.0));
        let mut calls = 0;
        assert_eq!(repeat_phase(0.0, || calls += 1), MIN_ROUNDS);
        assert_eq!(calls, MIN_ROUNDS);
    }
}
