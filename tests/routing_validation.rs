//! Cross-crate validation: routing tables generated by `spinn-map` are
//! executed by the `spinn-noc` fabric and must deliver every source
//! core's spikes to exactly the right set of destination cores —
//! including through default-routed (elided) segments, and identically
//! after table minimization.

#[allow(dead_code)]
mod scenarios;

use spinn_map::graph::{Connector, NetworkGraph, NeuronKind, Synapses};
use spinn_map::keys::neuron_key;
use spinn_map::place::{Placement, Placer};
use spinn_map::route::RoutingPlan;
use spinn_neuron::izhikevich::IzhikevichParams;
use spinn_noc::fabric::{FabricConfig, FabricEvent, FabricSim};
use spinn_noc::packet::Packet;
use spinn_sim::{Engine, SimTime};
use spinn_system::experiments::e20_scaling;
use spinnaker::prelude::{ObsMode, SimConfig};
use std::collections::{BTreeSet, HashMap};

fn kind() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

/// Builds a plan, loads it into a bare fabric, injects one spike per
/// source core and checks the delivered (chip, core) sets — then does
/// it all again with the minimized plan, which must deliver
/// identically.
fn validate(net: &NetworkGraph, w: u32, h: u32, placer: Placer) {
    let cores_per_chip = 5;
    let placement = Placement::compute(net, w, h, cores_per_chip, 64, placer).unwrap();
    let plan = RoutingPlan::build(net, &placement, w, h);
    let minimized = plan.minimized();
    assert_eq!(plan.verify_against(&minimized), 0);
    assert!(minimized.total_entries() <= plan.total_entries());
    for p in [plan, minimized] {
        validate_plan(net, &placement, &p, w, h);
    }
}

/// Runs one plan through the live fabric and checks exact delivery.
fn validate_plan(net: &NetworkGraph, placement: &Placement, plan: &RoutingPlan, w: u32, h: u32) {
    let mut cfg = FabricConfig::new(w, h);
    cfg.router.wait1_ns = 2_000;
    cfg.router.wait2_ns = 10_000;
    let mut sim = FabricSim::new(cfg);
    sim.log_deliveries();
    let installed = plan
        .install_into(&mut sim.fabric)
        .expect("tables fit the CAM");
    assert_eq!(installed, plan.total_entries());

    // Expected destination core set per source slice.
    let mut expected: HashMap<u32, BTreeSet<(u32, u32, usize)>> = HashMap::new();
    for slice in placement.slices() {
        let mut dests = BTreeSet::new();
        for dst_pop in net.targets_of(slice.pop) {
            for d in placement.slices_of(dst_pop) {
                dests.insert((d.chip.x, d.chip.y, d.core as usize));
            }
        }
        if !dests.is_empty() {
            expected.insert(slice.global_core, dests);
        }
    }

    // One spike per source core, spaced out to avoid congestion.
    let mut t = 0u64;
    for slice in placement.slices() {
        if expected.contains_key(&slice.global_core) {
            sim.queue_injection(
                t,
                slice.chip,
                Packet::multicast(neuron_key(slice.global_core, 0)),
            );
            t += 50_000;
        }
    }

    let mut engine = Engine::new(sim);
    engine.schedule_at(SimTime::ZERO, FabricEvent::Pump);
    engine.run_until(SimTime::new(t + 10_000_000));
    let sim = engine.into_model();

    // Group deliveries by key and compare.
    let mut got: HashMap<u32, BTreeSet<(u32, u32, usize)>> = HashMap::new();
    for d in sim.deliveries() {
        let core_set = got.entry(d.packet.key >> 11).or_default();
        for core in 0..26 {
            if d.cores & (1 << core) != 0 {
                core_set.insert((d.node.x, d.node.y, core));
            }
        }
    }
    assert_eq!(
        got.len(),
        expected.len(),
        "spikes from {} cores expected, {} keys delivered",
        expected.len(),
        got.len()
    );
    for (core, want) in &expected {
        let have = got
            .get(core)
            .unwrap_or_else(|| panic!("no deliveries at all for source core {core}"));
        assert_eq!(have, want, "delivery set wrong for source core {core}");
    }
    // No drops, no unroutable packets.
    let stats = sim.fabric.total_stats();
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.mc_unroutable_local, 0);
    assert_eq!(stats.aged_out, 0);
}

#[test]
fn feed_forward_chain_tables_deliver_exactly() {
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..5)
        .map(|i| net.population(&format!("p{i}"), 120, kind(), 0.0))
        .collect();
    for w in pops.windows(2) {
        net.project(
            w[0],
            w[1],
            Connector::OneToOne,
            Synapses::constant(10, 1),
            0,
        );
    }
    validate(&net, 6, 6, Placer::Locality);
}

#[test]
fn fan_out_tables_deliver_exactly() {
    let mut net = NetworkGraph::new();
    let hub = net.population("hub", 64, kind(), 0.0);
    for i in 0..6 {
        let leaf = net.population(&format!("leaf{i}"), 64, kind(), 0.0);
        net.project(
            hub,
            leaf,
            Connector::FixedProbability(0.2),
            Synapses::constant(10, 1),
            i,
        );
    }
    validate(&net, 6, 6, Placer::Locality);
}

#[test]
fn random_placement_tables_deliver_exactly() {
    // The §3.2 stress case: arbitrary neuron-to-processor mapping must
    // still deliver precisely.
    let mut net = NetworkGraph::new();
    let a = net.population("a", 200, kind(), 0.0);
    let b = net.population("b", 150, kind(), 0.0);
    let c = net.population("c", 100, kind(), 0.0);
    net.project(
        a,
        b,
        Connector::FixedProbability(0.1),
        Synapses::constant(10, 1),
        1,
    );
    net.project(
        a,
        c,
        Connector::FixedProbability(0.1),
        Synapses::constant(10, 1),
        2,
    );
    net.project(
        b,
        c,
        Connector::FixedFanOut(2),
        Synapses::constant(10, 1),
        3,
    );
    for seed in [1, 7, 42] {
        validate(&net, 8, 8, Placer::Random { seed });
    }
}

#[test]
fn recurrent_network_tables_deliver_exactly() {
    let mut net = NetworkGraph::new();
    let a = net.population("a", 100, kind(), 0.0);
    net.project(
        a,
        a,
        Connector::AllToAll { allow_self: false },
        Synapses::constant(10, 1),
        4,
    );
    validate(&net, 4, 4, Placer::RoundRobin);
}

/// FNV-1a over every chip's minimized table, chip by chip: its dense id,
/// its entry count and each entry's key, mask and route bits.
fn minimized_tables_hash(net: &NetworkGraph, cfg: &SimConfig) -> u64 {
    let m = &cfg.machine;
    let placement = Placement::compute(
        net,
        m.width,
        m.height,
        m.cores_per_chip,
        cfg.neurons_per_core,
        cfg.placer,
    )
    .unwrap();
    let plan = RoutingPlan::build(net, &placement, m.width, m.height).minimized();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for (chip, table) in plan.tables().iter().enumerate() {
        eat(chip as u32);
        eat(table.len() as u32);
        for e in table {
            eat(e.key);
            eat(e.mask);
            eat(e.route.bits());
        }
    }
    h
}

#[test]
fn minimized_tables_of_the_golden_and_scaling_nets_are_pinned() {
    // Route-build changes that claim to move no entry are held to these
    // hashes: the golden scenarios' nets as `Simulation::build` routes
    // them, and E20's one-population-per-chip ring at 16x16.
    let mut e20 = SimConfig::new(16, 16).with_neurons_per_core(e20_scaling::NPC);
    e20.machine.cores_per_chip = e20_scaling::CORES_PER_CHIP;
    let got = [
        minimized_tables_hash(
            &scenarios::synfire_net(),
            &scenarios::synfire_cfg(1, ObsMode::Disabled),
        ),
        minimized_tables_hash(
            &scenarios::retina_net(),
            &scenarios::retina_cfg(1, ObsMode::Disabled),
        ),
        minimized_tables_hash(&e20_scaling::chip_ring_net(256), &e20),
    ];
    assert_eq!(
        got,
        [
            0xa892_621e_a0de_a871,
            0x5b88_b4a4_b136_55c4,
            0x606e_a28b_e2de_d543
        ]
    );
}
