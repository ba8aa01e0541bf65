//! Living with failure (§2.2, §5.3): emergency routing around a failed
//! link, and monitor-driven functional migration off a failed core.
//!
//! Part 1 runs the same feed-forward network with a healthy fabric, with
//! a failed link on the spike path (emergency routing rescues it), and
//! with emergency routing disabled (packets drop after wait1+wait2).
//!
//! Part 2 "kills" a core mid-experiment and migrates its neurons to a
//! spare core on another chip, rebuilding the routing entries — the
//! run-time "functional migration" the abstract promises.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use spinnaker::machine::config::MachineConfig;
use spinnaker::machine::machine::NeuralMachine;
use spinnaker::neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
use spinnaker::neuron::model::AnyNeuron;
use spinnaker::neuron::synapse::SynapticWord;
use spinnaker::neuron::synmatrix::SynapticMatrixBuilder;
use spinnaker::noc::direction::Direction;
use spinnaker::noc::mesh::NodeCoord;
use spinnaker::noc::table::{McTableEntry, RouteSet};
use spinnaker::SpinnError;

fn neurons(n: usize) -> Vec<AnyNeuron> {
    (0..n)
        .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
        .collect()
}

/// Source population on (0,0) driving a target on (3,0), straight east.
/// CAM and DTCM capacity errors propagate instead of panicking.
fn build(emergency: bool) -> Result<NeuralMachine, SpinnError> {
    let mut cfg = MachineConfig::new(8, 8);
    cfg.fabric.router.emergency_enabled = emergency;
    let mut m = NeuralMachine::new(cfg);
    let src = NodeCoord::new(0, 0);
    let dst = NodeCoord::new(3, 0);
    m.load_core(src, 1, neurons(50), vec![11.0; 50], 0x8000)?;
    m.load_core(dst, 1, neurons(50), vec![0.0; 50], 0x10000)?;
    m.router_mut(src).table.insert(McTableEntry {
        key: 0x8000,
        mask: 0xFFFF_8000,
        route: RouteSet::EMPTY.with_link(Direction::East),
    })?;
    m.router_mut(dst).table.insert(McTableEntry {
        key: 0x8000,
        mask: 0xFFFF_8000,
        route: RouteSet::EMPTY.with_core(1),
    })?;
    // Every source neuron excites every target: one block of 50 rows.
    let mut rows = SynapticMatrixBuilder::new();
    let first = rows.block(0x8000, !0xFFF, 50);
    for i in 0..50 {
        for t in 0..50 {
            rows.push(first + i, SynapticWord::new(500, 1, t));
        }
    }
    m.install_matrix(dst, 1, rows.finish());
    Ok(m)
}

fn main() -> Result<(), SpinnError> {
    println!("== Part 1: link failure and emergency routing (Fig. 8) ==\n");
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>9}",
        "scenario", "tgt spikes", "emergency", "dropped", "p99 ns"
    );
    for (label, fail, emergency) in [
        ("healthy fabric", false, true),
        ("failed link + emergency", true, true),
        ("failed link, no emergency", true, false),
    ] {
        let mut m = build(emergency)?;
        if fail {
            // Break the middle of the default-routed segment.
            m.fail_link(NodeCoord::new(1, 0), Direction::East);
        }
        let m = m.run(300);
        let tgt = m.spikes().iter().filter(|s| s.key & 0x1_0000 != 0).count();
        let rs = m.router_stats();
        println!(
            "{:<28} {:>10} {:>10} {:>10} {:>9}",
            label,
            tgt,
            rs.emergency_reroutes,
            rs.dropped,
            m.spike_latency().percentile(99.0)
        );
    }

    println!("\n== Part 2: core failure and functional migration ==\n");
    let mut m = build(true)?;
    let m_healthy = m.run(300);
    let healthy_spikes = m_healthy
        .spikes()
        .iter()
        .filter(|s| s.key & 0x1_0000 != 0)
        .count();

    // Rebuild, then simulate the monitor detecting a failing core at
    // (3,0) and migrating its neurons to a spare core on (3,1).
    m = build(true)?;
    let payload = m.evict_core(NodeCoord::new(3, 0), 1).expect("loaded");
    m.install_core(NodeCoord::new(3, 1), 1, payload)?;
    // Re-point the last hop: extend the tree one hop north. The table
    // keeps its lookup index current, so the next packet sees the edit.
    m.router_mut(NodeCoord::new(3, 0)).table.clear();
    m.router_mut(NodeCoord::new(3, 0))
        .table
        .insert(McTableEntry {
            key: 0x8000,
            mask: 0xFFFF_8000,
            route: RouteSet::EMPTY.with_link(Direction::North),
        })?;
    m.router_mut(NodeCoord::new(3, 1))
        .table
        .insert(McTableEntry {
            key: 0x8000,
            mask: 0xFFFF_8000,
            route: RouteSet::EMPTY.with_core(1),
        })?;
    let m = m.run(300);
    let migrated_spikes = m.spikes().iter().filter(|s| s.key & 0x1_0000 != 0).count();
    println!("target spikes before failure: {healthy_spikes}");
    println!("target spikes after migration: {migrated_spikes}");
    println!("(the population keeps functioning on its new core)");
    assert!(migrated_spikes > 0);
    Ok(())
}
