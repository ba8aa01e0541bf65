//! Fault-injection integration tests: the fault-tolerance machinery the
//! paper builds in at every level (§2.2, §5.2, §5.3).

use spinnaker::machine::boot::{BootConfig, BootSim};
use spinnaker::prelude::*;

fn rs() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

/// Source on one chip driving a target population across the machine.
fn feed_forward() -> (NetworkGraph, PopulationId, PopulationId) {
    let mut net = NetworkGraph::new();
    let a = net.population("src", 150, rs(), 10.0);
    let b = net.population("dst", 150, rs(), 0.0);
    net.project(
        a,
        b,
        Connector::FixedFanOut(25),
        Synapses::constant(600, 1),
        8,
    );
    (net, a, b)
}

#[test]
fn emergency_routing_preserves_function_under_link_failure() {
    let (net, _, b) = feed_forward();
    // Healthy baseline.
    let cfg = SimConfig::new(6, 6).with_placer(Placer::Random { seed: 5 });
    let healthy = Simulation::build(&net, cfg.clone()).unwrap().run(200);
    let healthy_count = healthy.spike_count(b);
    assert!(healthy_count > 0);

    // Fail every link of chip (1,1) except one — heavy local damage.
    let mut sim = Simulation::build(&net, cfg.clone()).unwrap();
    for d in [Direction::East, Direction::NorthEast, Direction::North] {
        sim.fail_link(NodeCoord::new(1, 1), d);
    }
    let damaged = sim.run(200);
    let damaged_count = damaged.spike_count(b);
    // Emergency routing may add latency but the network keeps firing.
    assert!(
        damaged_count as f64 > healthy_count as f64 * 0.8,
        "function lost under link failure: {damaged_count} vs {healthy_count}"
    );
}

#[test]
fn without_emergency_routing_failures_lose_spikes() {
    let (net, _, b) = feed_forward();
    // Find a link on the spike path by probing with the healthy run.
    let cfg_off = {
        let mut c = SimConfig::new(4, 4).with_placer(Placer::RoundRobin);
        c.machine.fabric.router.emergency_enabled = false;
        c
    };
    // With round-robin placement on 4x4 x19 cores, src lands on chip 0
    // and dst on chip 0 too (both fit); force distance with random
    // placement instead.
    let cfg_off = SimConfig {
        machine: cfg_off.machine,
        ..SimConfig::new(4, 4).with_placer(Placer::Random { seed: 9 })
    };
    let mut cfg_off = cfg_off;
    cfg_off.machine.fabric.router.emergency_enabled = false;
    let mut cfg_on = cfg_off.clone();
    cfg_on.machine.fabric.router.emergency_enabled = true;

    let kill_all_links_of = NodeCoord::new(2, 2);
    let run = |cfg: SimConfig| {
        let mut sim = Simulation::build(&net, cfg).unwrap();
        for d in [Direction::East, Direction::North, Direction::NorthEast] {
            sim.fail_link(kill_all_links_of, d);
        }
        let done = sim.run(200);
        (done.spike_count(b), done.machine.router_stats().dropped)
    };
    let (with_em, dropped_with) = run(cfg_on);
    let (without_em, dropped_without) = run(cfg_off);
    // Emergency routing can only help (or tie, if no traffic crossed the
    // failed links under this placement).
    assert!(with_em >= without_em);
    assert!(dropped_with <= dropped_without);
}

#[test]
fn boot_tolerates_heavy_core_faults() {
    let mut cfg = BootConfig::new(10, 10);
    cfg.core_fault_prob = 0.4;
    cfg.seed = 17;
    let out = BootSim::run(cfg);
    assert!(!out.election_violated);
    assert_eq!(out.dead_chips, 0, "20 cores at 40% faults: all chips live");
    assert!(out.coords_complete_ns.is_some());
    assert!(out.reports_complete_ns.is_some());
    // Substantial core attrition actually happened.
    assert!(out.healthy_cores < 100 * 20 * 8 / 10);
}

#[test]
fn migration_after_core_loss_preserves_spiking() {
    // Build via the facade, then operate on the machine directly:
    // evict the target population's core and reinstall it elsewhere.
    let mut net = NetworkGraph::new();
    let src = net.population("src", 60, rs(), 11.0);
    let dst = net.population("dst", 60, rs(), 0.0);
    net.project(
        src,
        dst,
        Connector::AllToAll { allow_self: true },
        Synapses::constant(200, 1),
        3,
    );
    let sim = Simulation::build(&net, SimConfig::new(4, 4).with_neurons_per_core(64)).unwrap();
    let dst_slice = sim.placement().slices_of(dst).next().unwrap().clone();
    let src_slice = sim.placement().slices_of(src).next().unwrap().clone();
    let mut sim = sim;
    let machine = sim.machine_mut();

    // Migrate dst's core to a spare core on the same chip (so the
    // routing tree stays valid; only the core bit changes).
    let payload = machine.evict_core(dst_slice.chip, dst_slice.core).unwrap();
    let spare = dst_slice.core + 7;
    machine
        .install_core(dst_slice.chip, spare, payload)
        .unwrap();
    // Rewrite the table entries that delivered to the old core. The
    // installed tables are minimized, so the entry covering the source
    // key may be a widened (merged) one — match by coverage, not by
    // exact key. The table keeps its lookup index current, so the next
    // packet routes by the edit.
    let key = spinn_map::keys::core_base_key(src_slice.global_core);
    let router = machine.router_mut(dst_slice.chip);
    let old_entries: Vec<_> = router.table.iter().copied().collect();
    router.table.clear();
    for mut e in old_entries {
        if e.matches(key) && e.route.has_core(dst_slice.core as usize) {
            let links: Vec<Direction> = e.route.links().collect();
            let mut route = spinnaker::noc::table::RouteSet::EMPTY.with_core(spare as usize);
            for l in links {
                route = route.with_link(l);
            }
            e.route = route;
        }
        router.table.insert(e).unwrap();
    }

    let done = sim.run(200);
    assert!(
        done.machine.spikes().iter().any(|s| {
            let (core, _) = spinn_map::keys::split_key(s.key);
            core != src_slice.global_core
        }),
        "migrated population must keep firing"
    );
}
