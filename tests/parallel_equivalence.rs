//! The `spinn-par` contract: a sharded run is an event-exact replay of
//! the serial engine — identical `SpikeRecord` streams for every thread
//! count, on every placement.

use proptest::prelude::*;

use spinnaker::machine::config::MachineConfig;
use spinnaker::machine::machine::{NeuralMachine, SpikeRecord};
use spinnaker::neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
use spinnaker::neuron::model::AnyNeuron;
use spinnaker::neuron::synapse::SynapticWord;
use spinnaker::neuron::synmatrix::SynapticMatrixBuilder;
use spinnaker::noc::direction::Direction;
use spinnaker::noc::mesh::NodeCoord;
use spinnaker::noc::table::{McTableEntry, RouteSet};
use spinnaker::prelude::*;

fn rs_neurons(n: usize) -> Vec<AnyNeuron> {
    (0..n)
        .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
        .collect()
}

/// A hand-routed 4x4 machine: a driven population on (0,0) feeding a
/// relay on (1,0) feeding a far target on (3,2), so spikes cross several
/// chips (and shard boundaries at every thread count).
fn chain_machine() -> NeuralMachine {
    let mut m = NeuralMachine::new(MachineConfig::new(4, 4).with_force_shards(true));
    let a = NodeCoord::new(0, 0);
    let b = NodeCoord::new(1, 0);
    let c = NodeCoord::new(3, 2);
    m.load_core(a, 1, rs_neurons(40), vec![11.0; 40], 0x1000)
        .unwrap();
    m.load_core(b, 1, rs_neurons(40), vec![0.0; 40], 0x2000)
        .unwrap();
    m.load_core(c, 1, rs_neurons(40), vec![0.0; 40], 0x3000)
        .unwrap();
    // a -> b: one hop east.
    m.router_mut(a)
        .table
        .insert(McTableEntry {
            key: 0x1000,
            mask: 0xFFFF_F000,
            route: RouteSet::EMPTY.with_link(Direction::East),
        })
        .unwrap();
    m.router_mut(b)
        .table
        .insert(McTableEntry {
            key: 0x1000,
            mask: 0xFFFF_F000,
            route: RouteSet::EMPTY.with_core(1),
        })
        .unwrap();
    // b -> c: northeast twice then default east; route at the branch
    // points only.
    m.router_mut(b)
        .table
        .insert(McTableEntry {
            key: 0x2000,
            mask: 0xFFFF_F000,
            route: RouteSet::EMPTY.with_link(Direction::NorthEast),
        })
        .unwrap();
    m.router_mut(c)
        .table
        .insert(McTableEntry {
            key: 0x2000,
            mask: 0xFFFF_F000,
            route: RouteSet::EMPTY.with_core(1),
        })
        .unwrap();
    let (mut into_b, mut into_c) = (SynapticMatrixBuilder::new(), SynapticMatrixBuilder::new());
    let from_a = into_b.block(0x1000, !0xFFF, 40);
    let from_b = into_c.block(0x2000, !0xFFF, 40);
    for i in 0..40u32 {
        for t in 0..40u16 {
            into_b.push(from_a + i, SynapticWord::new(700, 1 + (i % 3) as u8, t));
            into_c.push(from_b + i, SynapticWord::new(650, 2, t));
        }
    }
    m.install_matrix(b, 1, into_b.finish());
    m.install_matrix(c, 1, into_c.finish());
    m
}

#[test]
fn chain_machine_parallel_matches_serial() {
    let reference: Vec<SpikeRecord> = chain_machine().run(200).spikes().to_vec();
    assert!(reference.len() > 100, "workload must actually spike");
    for threads in [1usize, 2, 3, 4, 16] {
        let (par, _) = chain_machine().run_segment(Vec::new(), 0, 200, threads);
        assert_eq!(
            par.spikes(),
            reference.as_slice(),
            "thread count {threads} changed the spike stream"
        );
        assert_eq!(par.row_misses(), 0);
        if threads > 1 {
            let stats = par.par_stats().expect("parallel run records stats");
            assert!(
                stats.exchanged > 0,
                "spikes must actually cross shard boundaries ({threads} threads)"
            );
        }
    }
}

#[test]
fn parallel_merges_stats_consistently() {
    let serial = chain_machine().run(150);
    let (par, _) = chain_machine().run_segment(Vec::new(), 0, 150, 4);
    assert_eq!(par.spikes().len(), serial.spikes().len());
    assert_eq!(
        par.meter().instructions,
        serial.meter().instructions,
        "instruction accounting must merge exactly"
    );
    assert_eq!(par.spike_latency().count(), serial.spike_latency().count());
    assert_eq!(par.spike_latency().max(), serial.spike_latency().max());
    assert_eq!(
        par.router_stats().mc_table_hits,
        serial.router_stats().mc_table_hits
    );
    assert_eq!(par.realtime_violations(), serial.realtime_violations());
}

/// The full pipeline (place -> route -> load -> run) through the public
/// API: `with_threads(n)` must not change the raster.
fn api_net(seed: u64) -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
    let a = net.population("a", 150, kind, 10.0);
    let b = net.population("b", 150, kind, 0.0);
    let c = net.population("c", 100, kind, 0.0);
    net.project(
        a,
        b,
        Connector::FixedFanOut(15),
        Synapses::constant(500, 2),
        seed,
    );
    net.project(
        b,
        c,
        Connector::FixedProbability(0.12),
        Synapses::constant(550, 3),
        seed ^ 1,
    );
    net.project(
        c,
        a,
        Connector::FixedFanOut(8),
        Synapses::constant(200, 4),
        seed ^ 2,
    );
    net
}

#[test]
fn api_run_identical_for_1_2_4_threads() {
    let net = api_net(42);
    let spikes_at = |threads: u32| {
        let cfg = SimConfig::new(4, 4)
            .with_force_shards(true)
            .with_threads(threads);
        Simulation::build(&net, cfg).unwrap().run(200).spikes()
    };
    let reference = spikes_at(1);
    assert!(reference.len() > 200, "workload must actually spike");
    for threads in [2u32, 4] {
        assert_eq!(spikes_at(threads), reference, "threads = {threads}");
    }
}

/// A dense synfire ring scattered over the whole torus by random
/// placement: heavy cross-shard traffic with frequent same-nanosecond
/// packet collisions — the regime where insertion-order tie-breaking
/// would diverge (content-ranked ordering keeps it exact).
#[test]
fn dense_random_placement_stays_identical() {
    let mut net = NetworkGraph::new();
    let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
    let pops: Vec<_> = (0..8u32)
        .map(|i| net.population(&format!("s{i}"), 256, kind, if i == 0 { 9.0 } else { 0.0 }))
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
    let cfg = SimConfig::new(4, 4)
        .with_force_shards(true)
        .with_neurons_per_core(128)
        .with_placer(Placer::Random { seed: 0xD15E });
    let serial = Simulation::build(&net, cfg.clone()).unwrap().run(120);
    let par = Simulation::build(&net, cfg.with_threads(4))
        .unwrap()
        .run(120);
    assert!(serial.spikes().len() > 500, "dense workload must spike");
    let stats = par.machine.par_stats().expect("parallel stats");
    assert!(stats.exchanged > 100, "workload must cross shards heavily");
    assert_eq!(par.spikes(), serial.spikes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Placement and thread count are both free choices: neither may
    /// perturb the spike raster (§3.2 virtualized topology, extended to
    /// the host's parallelism).
    #[test]
    fn random_placement_and_threads_preserve_raster(
        placer_sel in 0u8..3,
        place_seed in any::<u64>(),
        net_seed in any::<u64>(),
        threads in 2u32..6,
    ) {
        let placer = match placer_sel {
            0 => Placer::Locality,
            1 => Placer::RoundRobin,
            _ => Placer::Random { seed: place_seed },
        };
        let net = api_net(net_seed);
        let cfg = SimConfig::new(4, 4).with_force_shards(true).with_placer(placer);
        let serial = Simulation::build(&net, cfg.clone()).unwrap().run(100).spikes();
        let par = Simulation::build(&net, cfg.with_threads(threads))
            .unwrap()
            .run(100)
            .spikes();
        prop_assert_eq!(par, serial);
    }
}
