//! Golden-trace conformance suite: three seeded scenarios whose spike
//! traces are recorded in `tests/golden/*.trace`. The serial run and
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

use std::fmt::Write as _;
use std::path::PathBuf;

use spinnaker::machine::machine::{NeuralMachine, SpikeRecord};
use spinnaker::neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
use spinnaker::neuron::model::AnyNeuron;
use spinnaker::neuron::synapse::{SynapticRow, SynapticWord};
use spinnaker::noc::table::{McTableEntry, RouteSet};
use spinnaker::prelude::*;
use spinnaker::sim::Xoshiro256;

const RUN_MS: u32 = 200;
const MS_NS: u64 = 1_000_000;

fn kind() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

/// Scenario 1 — synfire chain: a ring of stages scattered over the
/// torus by random placement, so the travelling wave crosses shard
/// boundaries at every thread count.
fn synfire(threads: u32) -> Simulation {
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
    let cfg = SimConfig::new(4, 4)
        .with_neurons_per_core(64)
        .with_placer(Placer::Random { seed: 0x60_1D })
        .with_force_shards(true)
        .with_threads(threads);
    Simulation::build(&net, cfg).expect("synfire fits a 4x4 machine")
}

/// Scenario 2 — retina pipeline: graded tonic drive across bands (the
/// §5.4 vision front end's rank-order structure) converging on one
/// output population, with per-band synaptic delays.
fn retina(threads: u32) -> Simulation {
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
    let cfg = SimConfig::new(4, 4)
        .with_neurons_per_core(64)
        .with_placer(Placer::Random { seed: 0x2E71 })
        .with_force_shards(true)
        .with_threads(threads);
    Simulation::build(&net, cfg).expect("retina net fits a 4x4 machine")
}

/// Scenario 3 — fault injection: a hand-routed machine carrying a
/// seeded random net (randomized weights, delays and fan-in), whose
/// only relay→target route crosses the link that fails *mid-run*
/// (t = 50 ms) with emergency routing disabled. Spikes in flight are
/// dropped and monitor-reissued into the same dead link; the target's
/// raster after the failure is pinned by the trace.
fn faulted_machine() -> NeuralMachine {
    let rs = |n: usize| -> Vec<AnyNeuron> {
        (0..n)
            .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
            .collect()
    };
    let mut cfg = MachineConfig::new(4, 4).with_force_shards(true);
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
    // Seeded random connectivity: weights, delays and fan-in patterns.
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_FA17);
    let mut random_row = |p: f64, w_lo: u64, w_span: u64, d_span: u64| -> SynapticRow {
        let mut words = Vec::new();
        for t in 0..48u16 {
            if rng.gen_bool(p) {
                words.push(SynapticWord::new(
                    (w_lo + rng.gen_range_u64(w_span)) as i16,
                    1 + rng.gen_range_u64(d_span) as u8,
                    t,
                ));
            }
        }
        words.into_iter().collect()
    };
    for i in 0..48u32 {
        let row_b = random_row(0.6, 500, 400, 4);
        m.set_row(b, 1, 0x1000 + i, row_b);
        let row_c = random_row(0.5, 550, 350, 3);
        m.set_row(c, 1, 0x2000 + i, row_c);
    }
    // Mid-run: the only b -> c leg dies while spikes are in flight.
    m.queue_fail_link(50 * MS_NS, b, Direction::NorthEast);
    m
}

/// Scenario 4 — fault → repair with a checkpoint *inside* the failure
/// window: the scenario-3 machine's only b -> c leg dies at 50 ms and a
/// queued `RepairLink` brings it back at 120 ms. The run is cut at
/// 80 ms — mid-outage, with the future repair still pending — the
/// machine is snapshotted, restored onto a fresh identical build (the
/// pending `RepairLink` rides the wire codec), and finished. Target
/// spikes stop during the outage and resume after the repair; the
/// concatenated raster is pinned bit-exactly for every shard count.
fn repaired_machine() -> NeuralMachine {
    let mut m = faulted_machine();
    m.queue_repair_link(120 * MS_NS, NodeCoord::new(1, 0), Direction::NorthEast);
    m
}

fn run_repaired(threads: u32) -> Vec<SpikeRecord> {
    let threads = threads as usize;
    let (m, pending) = repaired_machine().run_segment(Vec::new(), 0, 80, threads);
    let bytes = m.snapshot(&pending);
    // Restore onto a freshly built machine: install_snapshot replaces
    // the fresh build's fault/repair plans with the checkpoint's state
    // (the failure already applied to the fabric, the repair pending).
    let mut fresh = repaired_machine();
    let restored = fresh
        .install_snapshot(&bytes)
        .expect("mid-outage snapshot installs");
    assert_eq!(restored.elapsed_ms, 80);
    let (done, _) = fresh.run_segment(restored.pending, 80, RUN_MS - 80, threads);
    done.spikes().to_vec()
}

fn run_machine(threads: u32) -> Vec<SpikeRecord> {
    let m = faulted_machine();
    let m = if threads > 1 {
        m.run_parallel(RUN_MS, threads as usize)
    } else {
        m.run(RUN_MS)
    };
    m.spikes().to_vec()
}

fn run(build: fn(u32) -> Simulation, threads: u32) -> Vec<SpikeRecord> {
    build(threads).run(RUN_MS).machine.spikes().to_vec()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.trace"))
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

fn parse_trace(text: &str) -> Vec<SpikeRecord> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut it = l.split_whitespace();
            let time_ms: u32 = it.next().expect("time").parse().expect("time_ms");
            let key_str = it.next().expect("key");
            let key = u32::from_str_radix(key_str.trim_start_matches("0x"), 16).expect("key");
            SpikeRecord { time_ms, key }
        })
        .collect()
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
    let path = golden_path(name);
    if regen {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format_trace(name, &reference)).unwrap();
        eprintln!("regenerated {}", path.display());
    }
    let golden = parse_trace(
        &std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden trace {}: {e}", path.display())),
    );
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
    check_scenario("synfire", |t| run(synfire, t), 400);
}

#[test]
fn retina_pipeline_replays_golden_trace() {
    check_scenario("retina", |t| run(retina, t), 400);
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
    let whole = repaired_machine().run(RUN_MS);
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
    let never_repaired = faulted_machine().run(RUN_MS);
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
    let faulted = faulted_machine().run(RUN_MS);
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
        let mut m = faulted_machine();
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
