//! Deterministic work counts: how much the machine did, not how long it
//! took. Wall-clock cannot gate on a one-core runner; these counts are
//! exact at any host parallelism, so a change that undoes an event diet
//! or walks a row twice fails `cargo test`, not a benchmark someone has
//! to remember to run.
//!
//! Five nets shrunk from the benchmark's workloads, each run for
//! `RUN_MS` in one segment at 1 and 2 forced shards:
//!
//! * `cortex`: a ring of `FixedProbability` projections, every
//!   population Poisson-driven (the shape of `cortex_stim`);
//! * `idle`: an 8 × 8 mesh with every application core loaded, lazy
//!   all-to-all rows and one Poisson-driven population (the shape of
//!   `idle_mesh`);
//! * `synfire`: a ring of fixed-fan-out stages placed at random, every
//!   stage Poisson-driven (the shape of `synfire_fabric`, where queue
//!   operations, router lookups and fabric hops do the work);
//! * `plastic`: a ring of dense `FixedProbability` projections loaded as
//!   lazy Bernoulli rows, every population Poisson-driven, STDP on (the
//!   shape of `plastic_stdp`: the traffic of both the STDP rule and lazy
//!   Bernoulli replay). Its rows written back are pinned beside the
//!   counts;
//! * `randgraph`: sparse `FixedProbability` projections from every
//!   population to 4 random targets, placed at random, every population
//!   Poisson-driven (the shape of `build_randgraph`). Its routing-table
//!   sizes before and after minimization, and the peak CAM occupancy of
//!   any router after the run, are pinned beside the counts.
//!
//! A sixth shape, `serve`, pins the serving layer's work instead: four
//! small feed-forward chains behind one `spinn_serve::Server` whose
//! resident budget is 60 % of what they hold together, driven by four
//! seeded closed-loop clients with one job outstanding each (the shape
//! of `serve_churn`). Its server and pool accounting (batches, warm
//! hits, cold builds, rehydrates, evictions, peak resident bytes) and
//! the spikes returned are pinned at 1 and 2 forced shards.
//!
//! The literals were recorded from the code as it stood when this file
//! was added. A change that moves one on purpose updates it and says
//! why:
//!
//! * one-shard `windows` and `busy` went from 0 to 1 when serial runs
//!   became one-shard runs of the parallel engine: a lone shard runs its
//!   segment in a single window, in which it is busy.
//!
//! The `synfire` literals were recorded later, from the code as it stood
//! just before the binary-heap queue stopped driving any engine (the
//! machine already ran on the calendar queue then, so they pin the same
//! machine path across that change).
//!
//! The `plastic` literals were recorded from the code as it stood just
//! before the STDP weight change became one function of `stdp.rs` and
//! the Bernoulli gap draw one function of `gen.rs` (both behaviour-
//! preserving, so the literals pin the same rule across that change).
//!
//! The `randgraph` literals were recorded from the code as it stood just
//! before each routing table began to keep its own lookup index (routers
//! had compiled a private copy of their table at the first packet after
//! an edit), so they pin the same routing across that change.
//!
//! The `serve` literals were recorded from the code as it stood just
//! before telemetry began to read the routers' and the energy meter's
//! own tallies at segment end (the fabric had kept a second count of
//! every packet), so they pin the same serving path across that change.

use spinn_serve::{JobSpec, PoolStats, ServeConfig, ServeStats, Server, Stimulus, TenantQuota};
use spinnaker::neuron::stdp::StdpParams;
use spinnaker::obs::{Counter, Phase};
use spinnaker::prelude::*;
use spinnaker::sim::Xoshiro256;

/// What one run did.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    spikes: u64,
    events: u64,
    neurons_ticked: u64,
    synaptic_events: u64,
    dma_bytes: u64,
    /// Queue-pop phase samples: one per event the queue handed out.
    queue_pops: u64,
    /// Neuron-tick phase samples: one per pool update.
    pool_ticks: u64,
    /// Rows still held as generator recipes after the run.
    lazy_rows: u64,
    /// Barrier windows of the run. One shard has no one to wait for:
    /// its one segment is one window.
    windows: u64,
    /// Busy shard-windows of the run (1 per window on one shard).
    busy: u64,
}

impl Counts {
    /// The counts no shard cut may change. The others are queue traffic
    /// (every shard replays the broadcast timer) and the window counters.
    fn shard_invariant(&self) -> [u64; 6] {
        [
            self.spikes,
            self.neurons_ticked,
            self.synaptic_events,
            self.dma_bytes,
            self.pool_ticks,
            self.lazy_rows,
        ]
    }
}

const RUN_MS: u32 = 40;

fn rs() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

/// Builds `net` on `cfg` at `shards` forced shards, attaches the
/// Poisson sources and runs one `RUN_MS` segment.
fn count(
    net: &NetworkGraph,
    cfg: SimConfig,
    poisson: &[(PopulationId, f64, u64)],
    shards: u32,
) -> Counts {
    counts(&run(net, cfg, poisson, shards))
}

/// The session after [`count`]'s run.
fn run(
    net: &NetworkGraph,
    cfg: SimConfig,
    poisson: &[(PopulationId, f64, u64)],
    shards: u32,
) -> RunSession {
    let cfg = cfg
        .with_threads(shards)
        .with_force_shards(true)
        .with_observability(ObsMode::CountersAndTrace);
    let mut session = Simulation::build(net, cfg)
        .expect("net fits the machine")
        .into_session();
    for &(pop, hz, seed) in poisson {
        session.add_poisson(pop, hz, seed);
    }
    session.run_for(RUN_MS);
    session
}

/// What `session` did since build.
fn counts(session: &RunSession) -> Counts {
    let m = session.machine();
    let t = session.telemetry();
    let par = m.par_stats().cloned().unwrap_or_default();
    Counts {
        spikes: session.spikes().len() as u64,
        events: t.total(Counter::Events),
        neurons_ticked: t.total(Counter::NeuronsTicked),
        synaptic_events: t.total(Counter::SynapticEvents),
        dma_bytes: t.total(Counter::DmaBytes),
        queue_pops: t.phase_total(Phase::QueuePop).count,
        pool_ticks: t.phase_total(Phase::NeuronTick).count,
        lazy_rows: m.total_lazy_rows(),
        windows: par.windows,
        busy: par.busy,
    }
}

/// 8 × 1000 neurons in a ring of sparse random projections (≈100 inputs
/// per neuron), every population Poisson-driven at 5 Hz, on a 4 × 4
/// mesh. The weights let the stimulus through to ≈2.5 Hz of firing.
fn cortex(shards: u32) -> Counts {
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..8)
        .map(|i| net.population(&format!("p{i}"), 1000, rs(), 0.0))
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        net.project(
            src,
            pops[(i + 1) % pops.len()],
            Connector::FixedProbability(0.1),
            Synapses::constant(700, 1 + (i % 4) as u8),
            0xC0 + i as u64,
        );
    }
    let poisson: Vec<_> = pops
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, 5.0, 0x5EED + i as u64))
        .collect();
    let cfg = SimConfig::new(4, 4).with_neurons_per_core(256);
    count(&net, cfg, &poisson, shards)
}

/// `side` × `side` chips × 16 application cores × 8 neurons: one
/// 128-neuron population per chip in an all-to-all ring (lazy generator
/// rows), only chip 0's population Poisson-driven. Returns the net, its
/// configuration and the one Poisson source.
fn idle_net(side: u32) -> (NetworkGraph, SimConfig, [(PopulationId, f64, u64); 1]) {
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..side * side)
        .map(|i| net.population(&format!("c{i}"), 128, rs(), 0.0))
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        net.project(
            src,
            pops[(i + 1) % pops.len()],
            Connector::AllToAll { allow_self: false },
            Synapses::constant(40, 1),
            0x1D + i as u64,
        );
    }
    let mut cfg = SimConfig::new(side, side).with_neurons_per_core(8);
    cfg.machine.cores_per_chip = 17;
    (net, cfg, [(pops[0], 20.0, 0x1D1E)])
}

/// The `idle` net on 8 × 8 chips.
fn idle(shards: u32) -> Counts {
    let (net, cfg, poisson) = idle_net(8);
    count(&net, cfg, &poisson, shards)
}

/// 16 × 512 neurons in a ring of `FixedFanOut(12)` projections with
/// strong synapses, every stage Poisson-driven at 12 Hz, placed at
/// random on 8 × 8 chips at 128 neurons per core, so every spike crosses
/// many chips.
fn synfire(shards: u32) -> Counts {
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
            0x5F + i as u64,
        );
    }
    let poisson: Vec<_> = pops
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, 12.0, 0xF1BE + i as u64))
        .collect();
    let cfg = SimConfig::new(8, 8)
        .with_neurons_per_core(128)
        .with_placer(Placer::Random { seed: 0x5EED });
    count(&net, cfg, &poisson, shards)
}

/// 16 × 128 neurons in a ring of dense random projections (≈51 inputs
/// per neuron), each population Poisson-driven at 20 Hz on a 4-6.25 nA
/// bias, on 4 × 4 chips at 128 neurons per core, with STDP on: the
/// shape of `plastic_stdp`. Every core's rows load as lazy Bernoulli
/// recipes, so the run materializes them and the STDP rule rewrites
/// and writes back the ones its spikes fetch. Returns the net, its
/// configuration and the Poisson sources.
fn plastic_net() -> (NetworkGraph, SimConfig, Vec<(PopulationId, f64, u64)>) {
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..16)
        .map(|i| net.population(&format!("e{i}"), 128, rs(), 4.0 + 0.15 * i as f32))
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        net.project(
            src,
            pops[(i + 1) % pops.len()],
            Connector::FixedProbability(0.4),
            Synapses::constant(150, 1 + (i % 4) as u8),
            0x57D0 + i as u64,
        );
    }
    let poisson: Vec<_> = pops
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, 20.0, 0xB0B + i as u64))
        .collect();
    let cfg = SimConfig::new(4, 4)
        .with_neurons_per_core(128)
        .with_stdp(StdpParams {
            w_max_raw: 200,
            ..StdpParams::default()
        });
    (net, cfg, poisson)
}

/// The `plastic` net after its run at `shards` shards.
fn plastic(shards: u32) -> RunSession {
    let (net, cfg, poisson) = plastic_net();
    run(&net, cfg, &poisson, shards)
}

/// 32 × 256 neurons, each population sending sparse random projections
/// to 4 targets drawn at random, placed at random on 8 × 8 chips at 64
/// neurons per core, every population Poisson-driven at 10 Hz: the shape
/// of `build_randgraph`, whose build routes, minimizes and installs a
/// table on nearly every chip.
fn randgraph(shards: u32) -> RunSession {
    let mut rng = Xoshiro256::seed_from_u64(0x6A2D);
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..32)
        .map(|i| net.population(&format!("g{i}"), 256, rs(), 0.0))
        .collect();
    for &src in &pops {
        for k in 0..4u8 {
            let dst = pops[rng.gen_range_usize(pops.len())];
            net.project(
                src,
                dst,
                Connector::FixedProbability(0.05),
                Synapses::constant(600, 1 + k),
                rng.next_u64(),
            );
        }
    }
    let poisson: Vec<_> = pops.iter().map(|&p| (p, 10.0, rng.next_u64())).collect();
    let cfg = SimConfig::new(8, 8)
        .with_neurons_per_core(64)
        .with_placer(Placer::Random {
            seed: rng.next_u64(),
        });
    run(&net, cfg, &poisson, shards)
}

/// Jobs each `serve` run completes, and their length, ms.
const SERVE_JOBS: u64 = 48;
const SERVE_JOB_MS: u32 = 10;

/// Share of requests each `serve` model receives, most popular first.
const SERVE_POPULARITY: [f64; 4] = [0.55, 0.25, 0.13, 0.07];

/// `serve` model `m`: a four-stage feed-forward chain with no tonic
/// bias, so a job costs what its own stimulus injects.
fn serve_model(m: u32) -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..4)
        .map(|i| net.population(&format!("m{m}s{i}"), 160 + 32 * m, rs(), 0.0))
        .collect();
    for (i, w) in pops.windows(2).enumerate() {
        net.project(
            w[0],
            w[1],
            Connector::FixedProbability(0.1),
            Synapses::constant(900, 1 + i as u8),
            0x5E4E + 8 * u64::from(m) + i as u64,
        );
    }
    net
}

/// What one `serve` run did: the server's and the pool's accounting,
/// and the spikes returned to the clients.
type Served = (ServeStats, PoolStats, u64);

/// The four `serve` models behind one server with `budget` resident
/// bytes, each segment on `shards` forced shards, driven by four
/// closed-loop clients that each keep one job outstanding: every idle
/// client submits its next seeded request (model by popularity, Poisson
/// rate and seed), then one batch is polled, until `SERVE_JOBS` jobs
/// have completed.
fn serve(shards: u32, budget: u64) -> Served {
    let mut server = Server::new(ServeConfig {
        resident_budget_bytes: budget,
        threads: shards,
        ..ServeConfig::default()
    });
    let quota = TenantQuota {
        max_in_flight: 1,
        ..TenantQuota::default()
    };
    let clients: Vec<_> = (0..4)
        .map(|c| server.register_tenant(&format!("client{c}"), quota))
        .collect();
    let cfg = SimConfig::new(2, 2)
        .with_neurons_per_core(128)
        .with_force_shards(true);
    let models: Vec<_> = (0..4)
        .map(|m| server.register_model(serve_model(m), cfg.clone()))
        .collect();
    let mut rng = Xoshiro256::seed_from_u64(0x5E4E_C4A2);
    let mut idle: Vec<usize> = (0..clients.len()).collect();
    let mut spikes = 0;
    while server.stats().jobs_completed < SERVE_JOBS {
        for client in std::mem::take(&mut idle) {
            let u = rng.next_f64();
            let model = SERVE_POPULARITY
                .iter()
                .scan(0.0, |below, p| {
                    *below += p;
                    Some(*below)
                })
                .position(|below| u < below)
                .unwrap_or(SERVE_POPULARITY.len() - 1);
            let spec = JobSpec {
                tenant: clients[client],
                model: models[model],
                run_ms: SERVE_JOB_MS,
                stimulus: vec![Stimulus {
                    pop: PopulationId::from_index(0),
                    rate_hz: 20.0 + rng.gen_range_u64(40) as f64,
                    seed: rng.next_u64(),
                }],
            };
            server
                .submit(spec)
                .expect("a client with no job outstanding is admitted");
        }
        for r in server.poll().expect("models build and rehydrate") {
            spikes += r.spikes.len() as u64;
            idle.push(r.tenant.index() as usize);
        }
    }
    (server.stats(), server.pool_stats(), spikes)
}

/// Runs `net` at 1 and 2 shards and compares with the pinned counts.
fn check(name: &str, net: fn(u32) -> Counts, want: [Counts; 2]) {
    check_counts(name, [net(1), net(2)], want);
}

/// Compares the counts of a 1- and a 2-shard run with the pinned ones.
fn check_counts(name: &str, got: [Counts; 2], want: [Counts; 2]) {
    assert_eq!(
        got[0].shard_invariant(),
        got[1].shard_invariant(),
        "{name}: the shard cut moved a count that must not depend on it"
    );
    assert_eq!(got, want, "{name}: work counts moved");
}

#[test]
fn cortex_work_counts() {
    check(
        "cortex",
        cortex,
        [
            Counts {
                spikes: 793,
                events: 35_230,
                neurons_ticked: 320_000,
                synaptic_events: 240_463,
                dma_bytes: 1_000_364,
                queue_pops: 5_206,
                pool_ticks: 1_280,
                lazy_rows: 23_516,
                windows: 1,
                busy: 1,
            },
            Counts {
                spikes: 793,
                events: 35_270,
                neurons_ticked: 320_000,
                synaptic_events: 240_463,
                dma_bytes: 1_000_364,
                queue_pops: 5_246,
                pool_ticks: 1_280,
                lazy_rows: 23_516,
                windows: 538,
                busy: 1_008,
            },
        ],
    );
}

#[test]
fn idle_mesh_work_counts() {
    check(
        "idle",
        idle,
        [
            Counts {
                spikes: 0,
                events: 45_692,
                neurons_ticked: 327_680,
                synaptic_events: 11_776,
                dma_bytes: 52_992,
                queue_pops: 316,
                pool_ticks: 40_960,
                lazy_rows: 129_952,
                windows: 1,
                busy: 1,
            },
            Counts {
                spikes: 0,
                events: 45_732,
                neurons_ticked: 327_680,
                synaptic_events: 11_776,
                dma_bytes: 52_992,
                queue_pops: 356,
                pool_ticks: 40_960,
                lazy_rows: 129_952,
                windows: 78,
                busy: 118,
            },
        ],
    );
}

#[test]
fn synfire_work_counts() {
    check(
        "synfire",
        synfire,
        [
            Counts {
                spikes: 43,
                events: 131_798,
                neurons_ticked: 327_680,
                synaptic_events: 47_004,
                dma_bytes: 250_688,
                queue_pops: 82_277,
                pool_ticks: 2_560,
                lazy_rows: 0,
                windows: 1,
                busy: 1,
            },
            Counts {
                spikes: 43,
                events: 131_838,
                neurons_ticked: 327_680,
                synaptic_events: 47_004,
                dma_bytes: 250_688,
                queue_pops: 82_317,
                pool_ticks: 2_560,
                lazy_rows: 0,
                windows: 924,
                busy: 1_761,
            },
        ],
    );
}

#[test]
fn plastic_work_counts() {
    let (net, cfg, _) = plastic_net();
    let built = Simulation::build(&net, cfg).expect("net fits the machine");
    assert_eq!(
        built.machine().total_lazy_rows(),
        2_048,
        "plastic: every row loads as a lazy Bernoulli recipe"
    );
    let runs = [plastic(1), plastic(2)];
    let writebacks = runs.each_ref().map(|s| s.machine().weight_writebacks());
    check_counts(
        "plastic",
        runs.each_ref().map(counts),
        [
            Counts {
                spikes: 3_017,
                events: 19_248,
                neurons_ticked: 81_920,
                synaptic_events: 238_124,
                dma_bytes: 1_826_328,
                queue_pops: 4_817,
                pool_ticks: 640,
                lazy_rows: 0,
                windows: 1,
                busy: 1,
            },
            Counts {
                spikes: 3_017,
                events: 19_288,
                neurons_ticked: 81_920,
                synaptic_events: 238_124,
                dma_bytes: 1_826_328,
                queue_pops: 4_857,
                pool_ticks: 640,
                lazy_rows: 0,
                windows: 59,
                busy: 99,
            },
        ],
    );
    assert_eq!(
        writebacks,
        [4_087, 4_087],
        "plastic: rows written back moved"
    );
}

#[test]
fn randgraph_work_counts() {
    let runs = [randgraph(1), randgraph(2)];
    let tables = runs.each_ref().map(|s| {
        let r = s.route_stats();
        (
            r.pre_minimize_entries,
            r.total_entries,
            s.machine().router_stats().table_peak_entries,
        )
    });
    check_counts(
        "randgraph",
        runs.each_ref().map(counts),
        [
            Counts {
                spikes: 276,
                events: 328_761,
                neurons_ticked: 327_680,
                synaptic_events: 184_376,
                dma_bytes: 953_712,
                queue_pops: 161_710,
                pool_ticks: 5_120,
                lazy_rows: 0,
                windows: 1,
                busy: 1,
            },
            Counts {
                spikes: 276,
                events: 328_801,
                neurons_ticked: 327_680,
                synaptic_events: 184_376,
                dma_bytes: 953_712,
                queue_pops: 161_750,
                pool_ticks: 5_120,
                lazy_rows: 0,
                windows: 1_651,
                busy: 3_196,
            },
        ],
    );
    // (entries before minimization, entries installed, peak CAM
    // occupancy of any router after the run)
    assert_eq!(
        tables,
        [(2_270, 932, 35); 2],
        "randgraph: routing tables moved"
    );
}

/// Pool updates per bio-ms follow the cores that have something to do,
/// not the cores loaded: an `idle` net past settling runs the same
/// number on 4 × 4 chips as on 16 × 16. Chip 0's cores hear nothing (the
/// stimulus stands in for their spikes) and settle as every undriven
/// core does, some 300 ticks after build; only chip 1's 16 cores, which
/// the stimulus drives, still tick.
#[test]
fn settled_cores_leave_the_tick_walk() {
    const WARM_MS: u32 = 600;
    const RUN_MS: u32 = 100;
    for side in [4, 16] {
        let (net, cfg, poisson) = idle_net(side);
        let cfg = cfg.with_observability(ObsMode::CountersAndTrace);
        let mut session = Simulation::build(&net, cfg)
            .expect("net fits the machine")
            .into_session();
        for (pop, hz, seed) in poisson {
            session.add_poisson(pop, hz, seed);
        }
        session.run_for(WARM_MS);
        let warm = session.telemetry().phase_total(Phase::NeuronTick).count;
        session.run_for(RUN_MS);
        let ran = session.telemetry().phase_total(Phase::NeuronTick).count - warm;
        assert_eq!(
            ran, 1_600,
            "{side} x {side} chips: pool updates in {RUN_MS} bio-ms"
        );
    }
}

/// The `serve_churn` shape: the resident budget is 60 % of what the
/// four models hold resident together (the peak of an unlimited-budget
/// run), so the closed loop evicts and rehydrates. The budget changes
/// the pool's work, never the spikes, and neither depends on the shard
/// cut.
#[test]
fn serve_churn_work_counts() {
    let want: Served = (
        ServeStats {
            jobs_completed: 49,
            warm_hits: 31,
            batches: 24,
            coalesced_jobs: 25,
            rejected: 0,
        },
        PoolStats {
            warm_acquires: 6,
            cold_builds: 4,
            rehydrates: 14,
            evictions: 16,
            peak_resident_bytes: 184_808,
        },
        1_570,
    );
    for shards in [1, 2] {
        let unlimited = serve(shards, u64::MAX);
        assert_eq!(
            unlimited.1.peak_resident_bytes, 234_076,
            "{shards} shard(s): the four models' resident bytes moved"
        );
        let served = serve(shards, unlimited.1.peak_resident_bytes * 3 / 5);
        assert_eq!(
            served.2, unlimited.2,
            "{shards} shard(s): the budget moved the spikes"
        );
        assert_eq!(served, want, "{shards} shard(s): serve work counts moved");
    }
}
