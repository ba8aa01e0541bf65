//! Telemetry must observe, never steer: the synfire golden trace
//! (`tests/golden/synfire.trace`) replays **bit-exactly** under every
//! observability mode — `Disabled`, `Counters`, `CountersAndTrace` —
//! across serial and sharded execution. The
//! counters themselves are checked against ground truth (the recorded
//! raster), and session segment summaries must partition the run's
//! totals.

#[allow(dead_code)]
mod scenarios;

use scenarios::{golden_trace, synfire_cfg, synfire_net, RUN_MS};
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

/// The counters must agree with ground truth: the spike counter equals
/// the recorded raster, neuron ticks cover population x biological
/// time, and the queue-occupancy gauge saw real work.
#[test]
fn counters_match_the_recorded_raster() {
    for threads in [1u32, 4] {
        let done = run_synfire(ObsMode::Counters, threads);
        let t = done.machine.telemetry();
        assert!(t.is_enabled());
        assert_eq!(
            t.total(Counter::Spikes),
            done.machine.spikes().len() as u64,
            "{threads} thread(s): spike counter vs raster"
        );
        assert_eq!(
            t.total(Counter::NeuronsTicked),
            8 * 128 * u64::from(RUN_MS),
            "{threads} thread(s): every neuron ticks every millisecond (no synfire core settles in {RUN_MS} ms)"
        );
        assert!(t.total(Counter::Events) > 0);
        assert!(t.total(Counter::QueuePeak) > 0);
        // Counters mode keeps the expensive collectors off.
        assert!(t.trace().next().is_none(), "no trace in Counters mode");
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

/// Segment summaries partition the session's totals: per-segment spike
/// deltas sum to the run's spike count, whatever the segment cuts (and
/// telemetry accumulates across segments rather than resetting).
#[test]
fn session_segment_summaries_partition_the_run() {
    let net = synfire_net();
    let cfg = synfire_cfg(4, ObsMode::Counters);
    let mut session = Simulation::build(&net, cfg)
        .expect("synfire fits a 4x4 machine")
        .into_session();
    session.run_for(30).run_for(50).run_for(20);
    let summaries = session.segment_summaries().to_vec();
    assert_eq!(summaries.len(), 3);
    assert_eq!(
        (summaries[0].start_ms, summaries[0].ms),
        (0, 30),
        "{summaries:?}"
    );
    assert_eq!(
        (summaries[2].start_ms, summaries[2].ms),
        (80, 20),
        "{summaries:?}"
    );
    let spike_sum: u64 = summaries.iter().map(|s| s.spikes).sum();
    assert_eq!(spike_sum, session.machine().spikes().len() as u64);
    assert_eq!(spike_sum, session.telemetry().total(Counter::Spikes));
    let tick_sum: u64 = summaries.iter().map(|s| s.events).sum();
    assert!(tick_sum > 0);
}
