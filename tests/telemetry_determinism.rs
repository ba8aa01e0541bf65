//! Telemetry must observe, never steer: the synfire golden trace
//! (`tests/golden/synfire.trace`) replays **bit-exactly** under every
//! observability mode — `Disabled`, `Counters`, `CountersAndTrace` —
//! across serial and sharded execution. The
//! counters themselves are checked against ground truth: each of the
//! spike, packet, drop, emergency-hop and DMA counters equals what the
//! model's own tally (the raster, the routers' statistics, the energy
//! meter) grew by over the counted run, whatever the segment cuts and
//! thread counts, and from a restore on.

#[allow(dead_code)]
mod scenarios;

use scenarios::{
    faulted_machine, golden_trace, overloaded_machine, retina_cfg, retina_net, synfire_cfg,
    synfire_net, RUN_MS,
};
use spinnaker::machine::machine::NeuralMachine;
use spinnaker::obs::Counter;
use spinnaker::prelude::*;

fn run_synfire(obs: ObsMode, threads: u32) -> Completed {
    let net = synfire_net();
    Simulation::build(&net, synfire_cfg(threads, obs))
        .expect("synfire fits a 4x4 machine")
        .run(RUN_MS)
}

/// The headline property: every observability mode replays the golden
/// trace bit-exactly, whatever the thread count.
#[test]
fn every_observability_mode_replays_the_golden_trace() {
    let golden = golden_trace("synfire");
    assert!(
        golden.len() >= 400,
        "golden trace too quiet to pin anything"
    );
    for obs in [
        ObsMode::Disabled,
        ObsMode::Counters,
        ObsMode::CountersAndTrace,
    ] {
        for threads in [1u32, 4, 16] {
            let done = run_synfire(obs, threads);
            assert_eq!(
                done.machine.spikes(),
                &golden[..],
                "{obs} observability, {threads} thread(s) diverges from the golden trace"
            );
        }
    }
}

/// The counters each model tally stands for, in [`tallies`] order.
const TALLIED: [Counter; 5] = [
    Counter::PacketsMc,
    Counter::PacketsDropped,
    Counter::EmergencyHops,
    Counter::DmaBytes,
    Counter::Spikes,
];

/// What the model itself counts, in [`TALLIED`] order: multicast
/// decisions, drops of every kind and emergency hops from the routers'
/// statistics, DMA bytes from the energy meter, spikes from the raster.
fn tallies(m: &NeuralMachine) -> [u64; 5] {
    let s = m.router_stats();
    [
        s.mc_table_hits + s.mc_default_routed,
        s.dropped + s.aged_out + s.mc_unroutable_local,
        s.emergency_reroutes + s.emergency_second_legs,
        m.meter().sdram_bytes,
        m.spikes().len() as u64,
    ]
}

/// Asserts that each of `m`'s [`TALLIED`] counters equals what its
/// tally grew by since `base` (the tallies when counting began), and
/// returns the counter totals.
fn assert_counters_match_tallies(what: &str, m: &NeuralMachine, base: [u64; 5]) -> [u64; 5] {
    let t = m.telemetry();
    assert!(t.is_enabled(), "{what}: telemetry is on");
    let now = tallies(m);
    let grown: [u64; 5] = std::array::from_fn(|i| now[i] - base[i]);
    let counted = TALLIED.map(|c| t.total(c));
    assert_eq!(counted, grown, "{what}: {TALLIED:?} vs the model's tallies");
    counted
}

/// The counters must agree with ground truth: every tallied counter
/// equals the growth of the model's own tally (on the golden nets, on
/// the only scenarios that drop packets, across segment cuts at mixed
/// thread counts, and over a restored session), neuron ticks cover
/// population x biological time, and the queue-occupancy gauge saw real
/// work.
#[test]
fn counters_match_the_recorded_raster() {
    for threads in [1u32, 4] {
        let done = run_synfire(ObsMode::Counters, threads);
        let t = done.machine.telemetry();
        let what = format!("synfire, {threads} thread(s)");
        let [mc, _, _, _, spikes] = assert_counters_match_tallies(&what, &done.machine, [0; 5]);
        assert!(mc > 0 && spikes > 0, "{what}: the chain fires and routes");
        assert_eq!(
            t.total(Counter::NeuronsTicked),
            8 * 128 * u64::from(RUN_MS),
            "{threads} thread(s): every neuron ticks every millisecond (no synfire core settles in {RUN_MS} ms)"
        );
        assert!(t.total(Counter::Events) > 0);
        assert!(t.total(Counter::QueuePeak) > 0);
        // Counters mode keeps the expensive collectors off.
        assert!(t.trace().next().is_none(), "no trace in Counters mode");

        let retina = Simulation::build(&retina_net(), retina_cfg(threads, ObsMode::Counters))
            .expect("retina fits a 4x4 machine")
            .run(RUN_MS);
        let what = format!("retina, {threads} thread(s)");
        assert_counters_match_tallies(&what, &retina.machine, [0; 5]);
    }

    // The only scenarios that drop packets: a link dies mid-run, and an
    // overloaded core's handlers overrun every tick.
    for (what, build, run_ms) in [
        (
            "faulted",
            faulted_machine as fn(ObsMode) -> NeuralMachine,
            RUN_MS,
        ),
        ("overloaded", overloaded_machine, 40),
    ] {
        let m = build(ObsMode::Counters).run(run_ms);
        let [_, dropped, ..] = assert_counters_match_tallies(what, &m, [0; 5]);
        assert!(dropped > 0, "{what}: the scenario drops packets");
    }

    // Segment cuts at mixed thread counts: the totals accumulate.
    let threads = 4;
    let (mut m, mut pending, mut done) = (faulted_machine(ObsMode::Counters), Vec::new(), 0);
    for (ms, t) in [(70, threads), (60, 1), (70, threads)] {
        (m, pending) = m.run_segment(pending, done, ms, t as usize);
        done += ms;
        let what = format!("faulted, cut at {done} ms on {t} thread(s)");
        assert_counters_match_tallies(&what, &m, [0; 5]);
    }

    // A restored session counts from the restore, not from the build.
    let mut session = Simulation::build(&synfire_net(), synfire_cfg(threads, ObsMode::Counters))
        .expect("synfire fits a 4x4 machine")
        .into_session();
    session.run_for(70);
    let snapshot = session.checkpoint();
    let mut restored = RunSession::restore(
        &synfire_net(),
        synfire_cfg(threads, ObsMode::Counters),
        &snapshot,
    )
    .expect("the checkpoint restores");
    let base = tallies(restored.machine());
    assert!(
        base[4] > 0,
        "the checkpoint carries the first 70 ms of spikes"
    );
    for ms in [50, 30] {
        restored.run_for(ms);
        let what = format!("restored synfire at {} ms", restored.elapsed_ms());
        assert_counters_match_tallies(&what, restored.machine(), base);
    }
}

/// Full telemetry adds phase timing and the event trace on top of the
/// counters, and the per-loop rows come out finite.
#[test]
fn full_telemetry_yields_phases_and_trace() {
    let done = run_synfire(ObsMode::CountersAndTrace, 4);
    let t = done.machine.telemetry();
    assert!(t.ns_per_neuron().is_finite(), "{}", t.ns_per_neuron());
    assert!(
        t.ns_per_synaptic_event().is_finite(),
        "{}",
        t.ns_per_synaptic_event()
    );
    let share = t.barrier_wait_share();
    assert!((0.0..=1.0).contains(&share), "barrier share {share}");
    assert!(t.trace().next().is_some(), "trace must capture spikes");
    assert!(t.shards().len() > 1, "sharded run reports per-shard rows");
    // The report surfaces the telemetry section only when enabled.
    assert!(done.report().contains("telemetry:"), "{}", done.report());
    let quiet = run_synfire(ObsMode::Disabled, 4);
    assert!(!quiet.report().contains("telemetry:"));
    assert!(!quiet.machine.telemetry().is_enabled());
}

/// A traced run reports finite per-loop rows, and the share of trace
/// entries lost to ring overwrites is a fraction in [0, 1].
#[test]
fn traced_run_reports_windows_and_overwrite_ratio() {
    for threads in [1u32, 4] {
        let done = run_synfire(ObsMode::CountersAndTrace, threads);
        let t = done.machine.telemetry();
        assert!(t.is_enabled());
        assert!(t.ns_per_neuron().is_finite(), "{}", t.ns_per_neuron());
        let ratio = t.trace_overwrite_ratio();
        assert!(
            (0.0..=1.0).contains(&ratio),
            "{threads} thread(s): overwrite ratio {ratio}"
        );
    }
}

/// Telemetry accumulates across session segments rather than
/// resetting: whatever the cuts, the spike total equals the raster at
/// the end of every segment.
#[test]
fn session_counters_accumulate_across_segments() {
    let net = synfire_net();
    let cfg = synfire_cfg(4, ObsMode::Counters);
    let mut session = Simulation::build(&net, cfg)
        .expect("synfire fits a 4x4 machine")
        .into_session();
    for ms in [30, 50, 20] {
        session.run_for(ms);
        assert_eq!(
            session.telemetry().total(Counter::Spikes),
            session.machine().spikes().len() as u64,
            "after {} ms",
            session.elapsed_ms()
        );
    }
    assert_eq!(session.elapsed_ms(), 100);
    assert!(session.telemetry().total(Counter::Events) > 0);
}
