//! The golden scenarios, defined once: the nets and hand-built machines
//! whose spikes `tests/golden/*.trace` and whose state
//! `tests/golden/*.digest` pin. Every suite that replays them declares
//! `mod scenarios;` and passes in what it varies — thread count,
//! observability level — so each keeps its exact configuration.
//!
//! The hand-built machines get their synapses the way every core does:
//! one `SynapticMatrixBuilder` per core, one block per source core,
//! handed over with `NeuralMachine::install_matrix`.

use std::path::PathBuf;

use spinnaker::machine::machine::{NeuralMachine, SpikeRecord};
use spinnaker::neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
use spinnaker::neuron::model::AnyNeuron;
use spinnaker::neuron::synapse::SynapticWord;
use spinnaker::neuron::synmatrix::SynapticMatrixBuilder;
use spinnaker::noc::table::{McTableEntry, RouteSet};
use spinnaker::prelude::*;
use spinnaker::sim::Xoshiro256;

/// Length of every golden run, ms.
pub const RUN_MS: u32 = 200;
/// Nanoseconds per millisecond.
pub const MS_NS: u64 = 1_000_000;

fn kind() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

fn rs(n: usize) -> Vec<AnyNeuron> {
    (0..n)
        .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
        .collect()
}

/// Synfire chain: a ring of stages scattered over the torus by random
/// placement, so the travelling wave crosses shard boundaries at every
/// thread count.
pub fn synfire_net() -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..8u32)
        .map(|i| {
            net.population(
                &format!("s{i}"),
                128,
                kind(),
                if i == 0 { 9.0 } else { 0.0 },
            )
        })
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        let dst = pops[(i + 1) % pops.len()];
        net.project(
            src,
            dst,
            Connector::FixedFanOut(12),
            Synapses::constant(600, 2),
            i as u64,
        );
    }
    net
}

/// Retina pipeline: graded tonic drive across bands (the §5.4 vision
/// front end's rank-order structure) converging on one output
/// population, with per-band synaptic delays.
pub fn retina_net() -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let out = net.population("out", 96, kind(), 0.0);
    for g in 0..6u32 {
        // Earlier bands (stronger ganglion response) get stronger drive.
        let drive = 10.0 - 0.8 * g as f32;
        let band = net.population(&format!("band{g}"), 96, kind(), drive);
        net.project(
            band,
            out,
            Connector::FixedFanOut(10),
            Synapses::constant(350, 1 + (g % 8) as u8),
            g as u64,
        );
    }
    net
}

fn golden_cfg(placer_seed: u64, threads: u32, obs: ObsMode) -> SimConfig {
    SimConfig::new(4, 4)
        .with_neurons_per_core(64)
        .with_placer(Placer::Random { seed: placer_seed })
        .with_force_shards(true)
        .with_threads(threads)
        .with_observability(obs)
}

/// The synfire net's machine: 4x4, 64 neurons per core, shards forced.
pub fn synfire_cfg(threads: u32, obs: ObsMode) -> SimConfig {
    golden_cfg(0x60_1D, threads, obs)
}

/// The retina net's machine: as [`synfire_cfg`], another placement.
pub fn retina_cfg(threads: u32, obs: ObsMode) -> SimConfig {
    golden_cfg(0x2E71, threads, obs)
}

/// Fault injection: a hand-routed machine carrying a seeded random net
/// (randomized weights, delays and fan-in), whose only relay→target
/// route crosses the link that fails *mid-run* (t = 50 ms) with
/// emergency routing disabled. Spikes in flight are dropped and
/// monitor-reissued into the same dead link.
pub fn faulted_machine(obs: ObsMode) -> NeuralMachine {
    let mut cfg = MachineConfig::new(4, 4)
        .with_force_shards(true)
        .with_observability(obs);
    cfg.fabric.router.emergency_enabled = false;
    let mut m = NeuralMachine::new(cfg);
    let a = NodeCoord::new(0, 0); // tonically driven source
    let b = NodeCoord::new(1, 0); // relay
    let c = NodeCoord::new(3, 2); // target: fires only via b -> c
    m.load_core(a, 1, rs(48), vec![11.0; 48], 0x1000).unwrap();
    m.load_core(b, 1, rs(48), vec![0.0; 48], 0x2000).unwrap();
    m.load_core(c, 1, rs(48), vec![0.0; 48], 0x3000).unwrap();
    let table = |m: &mut NeuralMachine, at: NodeCoord, key: u32, route: RouteSet| {
        m.router_mut(at)
            .table
            .insert(McTableEntry {
                key,
                mask: 0xFFFF_F000,
                route,
            })
            .unwrap();
    };
    // a -> b: one hop east. b -> c: northeast at the branch points.
    table(
        &mut m,
        a,
        0x1000,
        RouteSet::EMPTY.with_link(Direction::East),
    );
    table(&mut m, b, 0x1000, RouteSet::EMPTY.with_core(1));
    table(
        &mut m,
        b,
        0x2000,
        RouteSet::EMPTY.with_link(Direction::NorthEast),
    );
    table(&mut m, c, 0x2000, RouteSet::EMPTY.with_core(1));
    // Seeded random connectivity: weights, delays and fan-in patterns,
    // drawn row by row alternating between the two cores.
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_FA17);
    let mut random_row = |into: &mut SynapticMatrixBuilder,
                          row: u32,
                          p: f64,
                          w_lo: u64,
                          w_span: u64,
                          d_span: u64| {
        for t in 0..48u16 {
            if rng.gen_bool(p) {
                into.push(
                    row,
                    SynapticWord::new(
                        (w_lo + rng.gen_range_u64(w_span)) as i16,
                        1 + rng.gen_range_u64(d_span) as u8,
                        t,
                    ),
                );
            }
        }
    };
    let (mut into_b, mut into_c) = (SynapticMatrixBuilder::new(), SynapticMatrixBuilder::new());
    let from_a = into_b.block(0x1000, !0xFFF, 48);
    let from_b = into_c.block(0x2000, !0xFFF, 48);
    for i in 0..48u32 {
        random_row(&mut into_b, from_a + i, 0.6, 500, 400, 4);
        random_row(&mut into_c, from_b + i, 0.5, 550, 350, 3);
    }
    m.install_matrix(b, 1, into_b.finish());
    m.install_matrix(c, 1, into_c.finish());
    // Mid-run: the only b -> c leg dies while spikes are in flight.
    m.queue_fail_link(50 * MS_NS, b, Direction::NorthEast);
    m
}

/// Fault → repair: the [`faulted_machine`]'s only b -> c leg dies at
/// 50 ms and a queued `RepairLink` brings it back at 120 ms.
pub fn repaired_machine(obs: ObsMode) -> NeuralMachine {
    let mut m = faulted_machine(obs);
    m.queue_repair_link(120 * MS_NS, NodeCoord::new(1, 0), Direction::NorthEast);
    m
}

/// A machine whose timer handler takes *longer than the 1 ms tick*
/// (inflated per-neuron cost): every segment boundary then falls inside
/// tick processing, so a checkpoint must carry a mid-tick work item,
/// pending handler completions and packets in flight, every tick is an
/// overrun, and a core busy at the tick starts its handler late.
pub fn overloaded_machine(obs: ObsMode) -> NeuralMachine {
    let mut cfg = MachineConfig::new(2, 2)
        .with_force_shards(true)
        .with_observability(obs);
    // 60k instructions per neuron at 200 MHz = 0.3 ms/neuron: a 12-neuron
    // core needs 3.6 ms per 1 ms tick — a permanent real-time violation.
    cfg.costs.per_neuron_instr = 60_000;
    let mut m = NeuralMachine::new(cfg);
    let src = NodeCoord::new(0, 0);
    let dst = NodeCoord::new(1, 0);
    m.load_core(src, 1, rs(12), vec![12.0; 12], 0x1000).unwrap();
    m.load_core(dst, 1, rs(12), vec![0.0; 12], 0x2000).unwrap();
    m.router_mut(src)
        .table
        .insert(McTableEntry {
            key: 0x1000,
            mask: 0xFFFF_F000,
            route: RouteSet::EMPTY.with_link(Direction::East),
        })
        .unwrap();
    m.router_mut(dst)
        .table
        .insert(McTableEntry {
            key: 0x1000,
            mask: 0xFFFF_F000,
            route: RouteSet::EMPTY.with_core(1),
        })
        .unwrap();
    let mut rows = SynapticMatrixBuilder::new();
    let from_src = rows.block(0x1000, !0xFFF, 12);
    for i in 0..12u32 {
        for t in 0..12u16 {
            rows.push(from_src + i, SynapticWord::new(900, 1 + (i % 3) as u8, t));
        }
    }
    m.install_matrix(dst, 1, rows.finish());
    m
}

/// `tests/golden/<file>`.
pub fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// The recorded golden trace `tests/golden/<name>.trace`: one
/// `time_ms key` line per spike, `#` lines are comments.
pub fn golden_trace(name: &str) -> Vec<SpikeRecord> {
    let path = golden_path(&format!("{name}.trace"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {}: {e}", path.display()))
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut it = l.split_whitespace();
            let time_ms: u32 = it.next().expect("time").parse().expect("time_ms");
            let key = it.next().expect("key").trim_start_matches("0x");
            SpikeRecord {
                time_ms,
                key: u32::from_str_radix(key, 16).expect("key"),
            }
        })
        .collect()
}
