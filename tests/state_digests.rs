//! State-digest conformance suite: where `tests/golden/*.trace` pins
//! the spikes, `tests/golden/*.digest` pins everything *behind* them —
//! the checkpoint bytes (core queues, in-progress work items, DMA port
//! clocks, the pending event list), the energy meter, the spike-latency
//! histogram, the overrun and row-miss counts and the handled-event
//! total. A handler change that reorders two cores on a chip's DMA port
//! or resolves a completion a nanosecond off moves no spike for
//! hundreds of milliseconds, and moves these at once.
//!
//! Every scenario (the four golden nets and `session_resume`'s
//! overloaded machine) runs on 1, 2 and 4 shards, cut into segments of
//! 1 ms, 7 ms and the whole run; each combination is one line of the
//! scenario's digest file. The files were recorded on the commit before
//! core-local completions left the global event queue and have not
//! moved since.
//!
//! Regenerating (only when a change *intentionally* alters behaviour):
//!
//! ```text
//! SPINN_GOLDEN_REGEN=1 cargo test --test state_digests
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use spinnaker::machine::machine::{NeuralMachine, PendingEvent};
use spinnaker::neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
use spinnaker::neuron::model::AnyNeuron;
use spinnaker::neuron::synapse::{SynapticRow, SynapticWord};
use spinnaker::noc::table::{McTableEntry, RouteSet};
use spinnaker::obs::Counter;
use spinnaker::prelude::*;
use spinnaker::sim::Xoshiro256;

const RUN_MS: u32 = 200;
const MS_NS: u64 = 1_000_000;
const SHARDS: [u32; 3] = [1, 2, 4];

fn kind() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

fn rs(n: usize) -> Vec<AnyNeuron> {
    (0..n)
        .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
        .collect()
}

fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One digest line: the state of a paused machine and its pending list.
fn digest_line(
    shards: u32,
    segment_ms: u32,
    m: &NeuralMachine,
    pending: &[PendingEvent],
) -> String {
    let latency = fnv64(
        m.spike_latency()
            .iter()
            .flat_map(|(lo, n)| lo.to_le_bytes().into_iter().chain(n.to_le_bytes())),
    );
    format!(
        "{shards} {segment_ms} {:#018x} {} {} {} {latency:#018x} {} {} {}",
        fnv64(m.snapshot(pending)),
        m.meter().instructions,
        m.meter().core_active_ns,
        m.meter().sdram_bytes,
        m.realtime_violations(),
        m.row_misses(),
        m.telemetry().total(Counter::Events),
    )
}

/// The segment lengths a `run_ms` run is cut into: 1 ms, 7 ms, whole.
fn segmentations(run_ms: u32) -> [u32; 3] {
    [1, 7, run_ms]
}

// ---------------------------------------------------------------------
// The scenarios (identical to tests/golden_traces.rs and
// tests/session_resume.rs).

fn synfire_net() -> NetworkGraph {
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

fn retina_net() -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let out = net.population("out", 96, kind(), 0.0);
    for g in 0..6u32 {
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

fn golden_cfg(placer_seed: u64) -> SimConfig {
    SimConfig::new(4, 4)
        .with_neurons_per_core(64)
        .with_placer(Placer::Random { seed: placer_seed })
        .with_force_shards(true)
        .with_observability(ObsMode::Counters)
}

fn faulted_machine() -> NeuralMachine {
    let mut cfg = MachineConfig::new(4, 4)
        .with_force_shards(true)
        .with_observability(ObsMode::Counters);
    cfg.fabric.router.emergency_enabled = false;
    let mut m = NeuralMachine::new(cfg);
    let a = NodeCoord::new(0, 0);
    let b = NodeCoord::new(1, 0);
    let c = NodeCoord::new(3, 2);
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
    m.queue_fail_link(50 * MS_NS, b, Direction::NorthEast);
    m
}

fn repaired_machine() -> NeuralMachine {
    let mut m = faulted_machine();
    m.queue_repair_link(120 * MS_NS, NodeCoord::new(1, 0), Direction::NorthEast);
    m
}

/// `session_resume`'s machine whose timer handler outlasts the tick:
/// every cut falls inside tick processing, every tick is an overrun,
/// and a core busy at the tick starts its handler late.
fn overloaded_machine() -> NeuralMachine {
    let mut cfg = MachineConfig::new(2, 2)
        .with_force_shards(true)
        .with_observability(ObsMode::Counters);
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
    for i in 0..12u32 {
        let row: SynapticRow = (0..12)
            .map(|t| SynapticWord::new(900, 1 + (i % 3) as u8, t as u16))
            .collect();
        m.set_row(dst, 1, 0x1000 + i, row);
    }
    m
}

// ---------------------------------------------------------------------

/// Digest lines of a `Simulation`-built net, run through a session.
fn session_lines(net: &NetworkGraph, cfg: SimConfig) -> Vec<String> {
    let mut lines = Vec::new();
    for shards in SHARDS {
        for segment_ms in segmentations(RUN_MS) {
            let mut session = Simulation::build(net, cfg.clone().with_threads(shards))
                .expect("scenario fits the machine")
                .into_session();
            while session.elapsed_ms() < RUN_MS {
                session.run_for(segment_ms.min(RUN_MS - session.elapsed_ms()));
            }
            lines.push(digest_line(
                shards,
                segment_ms,
                session.machine(),
                session.pending_events(),
            ));
        }
    }
    lines
}

/// Digest lines of a hand-built machine, run through `run_segment`.
fn machine_lines(build: fn() -> NeuralMachine, run_ms: u32) -> Vec<String> {
    let mut lines = Vec::new();
    for shards in SHARDS {
        for segment_ms in segmentations(run_ms) {
            let (mut m, mut pending, mut done) = (build(), Vec::new(), 0);
            while done < run_ms {
                let step = segment_ms.min(run_ms - done);
                (m, pending) = m.run_segment(pending, done, step, shards as usize);
                done += step;
            }
            lines.push(digest_line(shards, segment_ms, &m, &pending));
        }
    }
    lines
}

fn check(name: &str, run_ms: u32, lines: Vec<String>) {
    let mut text = String::new();
    let _ = writeln!(text, "# spinn state digest v1: {name}");
    let _ = writeln!(
        text,
        "# run_ms {run_ms}; columns: shards segment_ms snapshot_fnv instructions \
         core_active_ns sdram_bytes latency_fnv realtime_violations row_misses events"
    );
    for line in &lines {
        let _ = writeln!(text, "{line}");
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.digest"));
    if std::env::var("SPINN_GOLDEN_REGEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &text).unwrap();
        eprintln!("regenerated {}", path.display());
    }
    let recorded = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing state digest {}: {e}", path.display()));
    // Line by line, so a failure names the shard count and segment
    // length that moved.
    for (got, want) in text.lines().zip(recorded.lines()) {
        assert_eq!(got, want, "{name}: state digest moved");
    }
    assert_eq!(text.lines().count(), recorded.lines().count(), "{name}");
    // Sharding and segmentation are invisible in the state itself: only
    // the event total differs (every shard replays the broadcast timer).
    let state = |line: &String| {
        let cols: Vec<&str> = line.split_whitespace().collect();
        cols[2..9].join(" ")
    };
    for line in &lines {
        assert_eq!(state(line), state(&lines[0]), "{name}: {line}");
    }
}

#[test]
fn synfire_state_digest() {
    check(
        "synfire",
        RUN_MS,
        session_lines(&synfire_net(), golden_cfg(0x60_1D)),
    );
}

#[test]
fn retina_state_digest() {
    check(
        "retina",
        RUN_MS,
        session_lines(&retina_net(), golden_cfg(0x2E71)),
    );
}

#[test]
fn fault_state_digest() {
    check("fault", RUN_MS, machine_lines(faulted_machine, RUN_MS));
}

#[test]
fn fault_repair_state_digest() {
    check(
        "fault_repair",
        RUN_MS,
        machine_lines(repaired_machine, RUN_MS),
    );
}

#[test]
fn overloaded_state_digest() {
    let lines = machine_lines(overloaded_machine, 40);
    let violations: u64 = lines[0].split_whitespace().nth(7).unwrap().parse().unwrap();
    assert!(
        violations > 0,
        "the overloaded machine must overrun its ticks"
    );
    check("overloaded", 40, lines);
}
