//! State-digest conformance suite: where `tests/golden/*.trace` pins
//! the spikes, `tests/golden/*.digest` pins everything *behind* them —
//! the checkpoint bytes (core queues, in-progress work items, DMA port
//! clocks, the pending event list), the energy meter, the spike-latency
//! histogram, the overrun and row-miss counts and the handled-event
//! total. A handler change that reorders two cores on a chip's DMA port
//! or resolves a completion a nanosecond off moves no spike for
//! hundreds of milliseconds, and moves these at once.
//!
//! Every scenario of `scenarios/mod.rs` (the four golden nets and the
//! overloaded machine), with counters on, runs on 1, 2 and 4 shards,
//! cut into segments of 1 ms, 7 ms and the whole run; each combination
//! is one line of the scenario's digest file. The files were recorded
//! on the commit before core-local completions left the global event
//! queue and have not moved since.
//!
//! Regenerating (only when a change *intentionally* alters behaviour):
//!
//! ```text
//! SPINN_GOLDEN_REGEN=1 cargo test --test state_digests
//! ```

#[allow(dead_code)]
mod scenarios;

use std::fmt::Write as _;

use scenarios::{
    faulted_machine, golden_path, overloaded_machine, repaired_machine, retina_cfg, retina_net,
    synfire_cfg, synfire_net, RUN_MS,
};
use spinnaker::machine::machine::{NeuralMachine, PendingEvent};
use spinnaker::obs::Counter;
use spinnaker::prelude::*;

const SHARDS: [u32; 3] = [1, 2, 4];

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
fn machine_lines(build: fn(ObsMode) -> NeuralMachine, run_ms: u32) -> Vec<String> {
    let mut lines = Vec::new();
    for shards in SHARDS {
        for segment_ms in segmentations(run_ms) {
            let (mut m, mut pending, mut done) = (build(ObsMode::Counters), Vec::new(), 0);
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
    let path = golden_path(&format!("{name}.digest"));
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
        session_lines(&synfire_net(), synfire_cfg(1, ObsMode::Counters)),
    );
}

#[test]
fn retina_state_digest() {
    check(
        "retina",
        RUN_MS,
        session_lines(&retina_net(), retina_cfg(1, ObsMode::Counters)),
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
