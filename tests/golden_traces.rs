//! Golden-trace conformance suite: four seeded scenarios
//! (`scenarios/mod.rs`: the synfire chain, the retina pipeline, the
//! mid-run fault and the fault → repair cycle) whose spike traces are
//! recorded in `tests/golden/*.trace`. The serial run and
//! sharded runs (2/4/16 shards, forced past the host's core count)
//! must all replay every trace **bit-exactly** — no event-core or
//! scheduling change may move a single spike. The traces were recorded
//! on the binary-heap queue the machine first ran on and have not moved
//! since; the calendar queue it runs on now is held to that heap by
//! `tests/props_queue.rs`.
//!
//! Regenerating, from the serial run (only when a change
//! *intentionally* alters behaviour):
//!
//! ```text
//! SPINN_GOLDEN_REGEN=1 cargo test --test golden_traces
//! ```

#[allow(dead_code)]
mod scenarios;

use std::fmt::Write as _;

use scenarios::{
    faulted_machine, golden_path, golden_trace, repaired_machine, retina_cfg, retina_net,
    synfire_cfg, synfire_net, RUN_MS,
};
use spinnaker::machine::machine::SpikeRecord;
use spinnaker::prelude::*;

/// The fault → repair scenario with a checkpoint *inside* the failure
/// window: the run is cut at 80 ms — mid-outage, with the future repair
/// still pending — the machine is snapshotted, restored onto a fresh
/// identical build (the pending `RepairLink` rides the wire codec), and
/// finished. Target spikes stop during the outage and resume after the
/// repair; the concatenated raster is pinned bit-exactly for every
/// shard count.
fn run_repaired(threads: u32) -> Vec<SpikeRecord> {
    let threads = threads as usize;
    let (m, pending) = repaired_machine(ObsMode::Disabled).run_segment(Vec::new(), 0, 80, threads);
    let bytes = m.snapshot(&pending);
    // Restore onto a freshly built machine: install_snapshot replaces
    // the fresh build's fault/repair plans with the checkpoint's state
    // (the failure already applied to the fabric, the repair pending).
    let mut fresh = repaired_machine(ObsMode::Disabled);
    let restored = fresh
        .install_snapshot(&bytes)
        .expect("mid-outage snapshot installs");
    assert_eq!(restored.elapsed_ms, 80);
    let (done, _) = fresh.run_segment(restored.pending, 80, RUN_MS - 80, threads);
    done.spikes().to_vec()
}

fn run_machine(threads: u32) -> Vec<SpikeRecord> {
    let (m, _) =
        faulted_machine(ObsMode::Disabled).run_segment(Vec::new(), 0, RUN_MS, threads as usize);
    m.spikes().to_vec()
}

fn run_net(
    net: fn() -> NetworkGraph,
    cfg: fn(u32, ObsMode) -> SimConfig,
    threads: u32,
) -> Vec<SpikeRecord> {
    Simulation::build(&net(), cfg(threads, ObsMode::Disabled))
        .expect("scenario fits a 4x4 machine")
        .run(RUN_MS)
        .machine
        .spikes()
        .to_vec()
}

fn format_trace(name: &str, spikes: &[SpikeRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# spinn golden trace v1: {name}");
    let _ = writeln!(out, "# run_ms {RUN_MS}  spikes {}", spikes.len());
    for s in spikes {
        let _ = writeln!(out, "{} {:#x}", s.time_ms, s.key);
    }
    out
}

fn check_scenario(name: &str, run_one: fn(u32) -> Vec<SpikeRecord>, min_spikes: usize) {
    let regen = std::env::var("SPINN_GOLDEN_REGEN").is_ok_and(|v| v == "1");
    // The reference: the serial run.
    let reference = run_one(1);
    assert!(
        reference.len() >= min_spikes,
        "{name}: workload too quiet ({} spikes) to pin anything down",
        reference.len()
    );
    if regen {
        let path = golden_path(&format!("{name}.trace"));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format_trace(name, &reference)).unwrap();
        eprintln!("regenerated {}", path.display());
    }
    let golden = golden_trace(name);
    assert_eq!(
        reference, golden,
        "{name}: serial run diverges from the recorded golden trace"
    );
    for threads in [2u32, 4, 16] {
        assert_eq!(
            run_one(threads),
            golden,
            "{name}: {threads} shards diverge from the golden trace"
        );
    }
}

#[test]
fn synfire_chain_replays_golden_trace() {
    check_scenario("synfire", |t| run_net(synfire_net, synfire_cfg, t), 400);
}

#[test]
fn retina_pipeline_replays_golden_trace() {
    check_scenario("retina", |t| run_net(retina_net, retina_cfg, t), 400);
}

#[test]
fn fault_injected_net_replays_golden_trace() {
    check_scenario("fault", run_machine, 200);
}

#[test]
fn fault_repair_cycle_replays_golden_trace() {
    check_scenario("fault_repair", run_repaired, 200);
}

/// The repair must actually bite, and the mid-outage checkpoint must be
/// a no-op: the link ends the run healthy, the target fires again after
/// 120 ms (unlike the never-repaired scenario-3 machine), and cutting
/// at 80 ms + restoring equals running straight through.
#[test]
fn mid_outage_checkpoint_and_repair_fire() {
    let whole = repaired_machine(ObsMode::Disabled).run(RUN_MS);
    assert!(
        !whole
            .fabric()
            .link_failed(NodeCoord::new(1, 0), Direction::NorthEast),
        "the queued repair must leave the link healthy"
    );
    let late_target_spikes = whole
        .spikes()
        .iter()
        .filter(|s| s.key & 0xF000 == 0x3000 && s.time_ms > 125)
        .count();
    assert!(
        late_target_spikes > 0,
        "target must fire again once the relay link is repaired"
    );
    let never_repaired = faulted_machine(ObsMode::Disabled).run(RUN_MS);
    assert_eq!(
        never_repaired
            .spikes()
            .iter()
            .filter(|s| s.key & 0xF000 == 0x3000 && s.time_ms > 125)
            .count(),
        0,
        "without the repair the target stays silent"
    );
    let resumed = run_repaired(1);
    assert_eq!(
        whole.spikes(),
        resumed.as_slice(),
        "checkpoint/restore mid-outage must not move a spike"
    );
}

/// The mid-run fault must actually bite: the fabric's link state after
/// the run shows the scheduled failure, packets were dropped and
/// reissued into the dead link, and the spikes differ from an
/// unfaulted run of the same machine (i.e. the trace pins *faulted*
/// behaviour, not a no-op).
#[test]
fn mid_run_fault_actually_fires() {
    let faulted = faulted_machine(ObsMode::Disabled).run(RUN_MS);
    assert!(faulted
        .fabric()
        .link_failed(NodeCoord::new(1, 0), Direction::NorthEast));
    assert!(
        faulted.router_stats().dropped > 0,
        "dead link must drop in-flight spikes"
    );
    assert!(
        faulted.reissued_packets() > 0,
        "monitor must attempt reissue into the dead link"
    );

    // Same machine, fault schedule stripped: build it identically, then
    // repair the schedule away by re-running without queue_fail_link.
    let healthy = {
        let mut m = faulted_machine(ObsMode::Disabled);
        m.clear_fault_plan();
        m.run(RUN_MS)
    };
    assert_eq!(healthy.router_stats().dropped, 0);
    assert_ne!(
        faulted.spikes(),
        healthy.spikes(),
        "killing the only relay->target route must perturb the raster"
    );
}
