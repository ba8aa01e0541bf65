//! Session-resume conformance suite: checkpoint/restore must be
//! invisible. For every golden-trace scenario, running through a
//! [`RunSession`] — whole, split at an arbitrary point, or split with a
//! serialize → restore cycle at the cut — replays the committed trace
//! bit-exactly, across 1/2/4/16 shards (resuming onto a *different*
//! shard count than the checkpoint was taken on).
//!
//! Also pinned here: checkpoints taken while events are in flight
//! (mid-tick timer work, packets on the wire), a checkpoint taken while
//! a lazy synaptic arena is half materialized, the exact count of rows a
//! run leaves compressed, stimulus-source RNG stream continuity, STDP
//! toggling between segments, and a proptest over random split points.

#[allow(dead_code)]
mod scenarios;

use proptest::prelude::*;
use scenarios::{
    faulted_machine, golden_trace, overloaded_machine, retina_cfg, retina_net, synfire_cfg,
    synfire_net, RUN_MS,
};
use spinnaker::machine::machine::{NeuralMachine, SpikeRecord};
use spinnaker::machine::snapshot::SnapshotError;
use spinnaker::prelude::*;
use spinnaker::sim::wire::WireError;

fn kind() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

// ---------------------------------------------------------------------
// Split-run bit-exactness against the golden traces.

/// Runs a scenario through a session, split at `split` ms with a full
/// checkpoint → serialize → rebuild → restore cycle at the cut. The
/// checkpoint half runs on `threads` shards; the resumed half runs on a
/// different count, which a correct snapshot must not be able to tell
/// apart.
fn split_session_spikes(
    net: &NetworkGraph,
    cfg: fn(u32) -> SimConfig,
    threads: u32,
    split: u32,
) -> Vec<SpikeRecord> {
    let mut session = Simulation::build(net, cfg(threads))
        .expect("scenario fits the machine")
        .into_session();
    session.run_for(split);
    let snap = session.checkpoint();
    drop(session);
    let other_threads = if threads == 1 { 4 } else { 1 };
    let mut resumed = RunSession::restore(net, cfg(other_threads), &snap)
        .expect("snapshot restores onto a fresh build");
    assert_eq!(resumed.elapsed_ms(), split);
    resumed.run_for(RUN_MS - split);
    resumed.machine().spikes().to_vec()
}

fn check_scenario_sessions(name: &str, net: &NetworkGraph, cfg: fn(u32) -> SimConfig) {
    let golden = golden_trace(name);
    // Session single-segment == golden for every shard count.
    for threads in [1u32, 2, 4, 16] {
        let mut session = Simulation::build(net, cfg(threads))
            .expect("scenario fits the machine")
            .into_session();
        session.run_for(RUN_MS);
        assert_eq!(
            session.machine().spikes(),
            golden.as_slice(),
            "{name}: session run ({threads} thread(s)) diverges from golden"
        );
    }
    // Split + checkpoint + restore onto a different thread count, at an
    // awkward (non-round) split point — none a multiple of the 5 ms
    // rebalance epoch, so the cut lands mid-stride between repartitions.
    for (threads, split) in [(1u32, 73u32), (4, 111), (16, 37)] {
        let got = split_session_spikes(net, cfg, threads, split);
        assert_eq!(
            got,
            golden,
            "{name}: run({RUN_MS}) != run({split}) + checkpoint/restore + run({}) \
             ({threads} thread(s))",
            RUN_MS - split
        );
    }
}

#[test]
fn synfire_session_split_resume_matches_golden() {
    check_scenario_sessions("synfire", &synfire_net(), |t| {
        synfire_cfg(t, ObsMode::Disabled)
    });
}

#[test]
fn retina_session_split_resume_matches_golden() {
    check_scenario_sessions("retina", &retina_net(), |t| {
        retina_cfg(t, ObsMode::Disabled)
    });
}

/// The fault scenario is a hand-built machine (no `Simulation` build),
/// so it exercises the machine-level `run_segment` + `snapshot` +
/// `install_snapshot` API directly — including a checkpoint taken
/// *before* the scheduled mid-run fault has fired (the fault must ride
/// the snapshot) and one after (the dead link state must ride it).
#[test]
fn fault_machine_split_resume_matches_golden() {
    let golden = golden_trace("fault");
    for (split, threads_a, threads_b) in [
        (30u32, 1usize, 4usize), // fault still pending at the cut
        (77, 2, 1),              // fault already fired at the cut
    ] {
        let (m, pending) =
            faulted_machine(ObsMode::Disabled).run_segment(Vec::new(), 0, split, threads_a);
        let bytes = m.snapshot(&pending);
        let mut fresh = faulted_machine(ObsMode::Disabled);
        let restored = fresh.install_snapshot(&bytes).expect("snapshot installs");
        assert_eq!(restored.elapsed_ms, split);
        let (done, _) = fresh.run_segment(restored.pending, split, RUN_MS - split, threads_b);
        assert_eq!(
            done.spikes(),
            golden.as_slice(),
            "fault scenario split at {split} ms diverges ({threads_a} -> {threads_b} threads)"
        );
        assert!(
            done.fabric()
                .link_failed(NodeCoord::new(1, 0), Direction::NorthEast),
            "the scheduled fault must fire on the restored machine"
        );
    }
}

// ---------------------------------------------------------------------
// Checkpoint under pending events.

#[test]
fn checkpoint_under_pending_events_resumes_bit_exactly() {
    let whole = overloaded_machine(ObsMode::Disabled).run(40);
    assert!(
        whole.realtime_violations() > 0,
        "the overloaded machine must actually overrun its ticks"
    );
    let (m, pending) = overloaded_machine(ObsMode::Disabled).run_segment(Vec::new(), 0, 17, 1);
    assert!(
        !pending.is_empty(),
        "a boundary inside tick processing must leave events queued"
    );
    let has_core_work = pending.iter().any(|p| {
        matches!(
            p.event,
            spinnaker::machine::machine::MachineEvent::CoreDone { .. }
                | spinnaker::machine::machine::MachineEvent::DmaDone { .. }
                | spinnaker::machine::machine::MachineEvent::InjectSpike { .. }
                | spinnaker::machine::machine::MachineEvent::Noc(_)
        )
    });
    assert!(
        has_core_work,
        "expected in-flight handler/packet events at the cut, got {pending:?}"
    );
    // Serialize, restore onto a fresh build, finish.
    let bytes = m.snapshot(&pending);
    let mut fresh = overloaded_machine(ObsMode::Disabled);
    let restored = fresh.install_snapshot(&bytes).unwrap();
    let (done, _) = fresh.run_segment(restored.pending, 17, 23, 1);
    assert_eq!(whole.spikes(), done.spikes());
    assert_eq!(whole.realtime_violations(), done.realtime_violations());
    assert_eq!(whole.meter().instructions, done.meter().instructions);
}

/// Hostile bytes: the overloaded machine's 17 ms snapshot, cut at every
/// length and with one bit flipped in every byte (the bit cycling
/// through all eight positions). Each either fails to install with a
/// `SnapshotError` or installs and runs 5 ms more — never a panic, and
/// never an allocation the loaded machine's own sizes do not allow.
#[test]
fn corrupt_snapshots_are_rejected_or_run_on() {
    let (m, pending) = overloaded_machine(ObsMode::Disabled).run_segment(Vec::new(), 0, 17, 1);
    let bytes = m.snapshot(&pending);
    let install_and_run = |bytes: &[u8]| {
        let mut fresh = overloaded_machine(ObsMode::Disabled);
        if let Ok(restored) = fresh.install_snapshot(bytes) {
            fresh.run_segment(restored.pending, restored.elapsed_ms, 5, 1);
        }
    };
    for len in 0..bytes.len() {
        install_and_run(&bytes[..len]);
    }
    let mut flipped = bytes.clone();
    for i in 0..bytes.len() {
        flipped[i] ^= 1 << (i % 8);
        install_and_run(&flipped);
        flipped[i] = bytes[i];
    }
}

// ---------------------------------------------------------------------
// Compressed lazy arena: snapshots must carry a half-materialized
// matrix (some rows touched by DMA, most still generator recipes)
// without disturbing results or forcing materialization.

/// A ring of constant-weight all-to-all projections: analytic for the
/// row generator, so the loader keeps every row as a compressed recipe
/// and only spike-touched rows materialize during the run.
fn lazy_ring_net() -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let pops: Vec<_> = (0..6u32)
        .map(|i| {
            net.population(
                &format!("r{i}"),
                96,
                kind(),
                if i == 0 { 10.0 } else { 0.0 },
            )
        })
        .collect();
    for (i, &src) in pops.iter().enumerate() {
        let dst = pops[(i + 1) % pops.len()];
        net.project(
            src,
            dst,
            Connector::AllToAll { allow_self: false },
            Synapses::constant(24, 1 + (i % 3) as u8),
            0x1A2 ^ i as u64,
        );
    }
    net
}

fn lazy_cfg(threads: u32) -> SimConfig {
    SimConfig::new(4, 4)
        .with_force_shards(true)
        .with_neurons_per_core(32)
        .with_threads(threads)
}

/// Checkpoint a lazily loaded machine mid-run — after spikes have
/// materialized some rows but long before all of them — and restore
/// onto a fresh (fully lazy) build. The resumed run must finish on the
/// uninterrupted run's exact spike stream, and the restore must not
/// have force-materialized the arena to get there.
#[test]
fn lazy_arena_snapshot_roundtrip_mid_materialization() {
    let net = lazy_ring_net();
    let sim = Simulation::build(&net, lazy_cfg(1)).expect("ring fits a 4x4 machine");
    // All rows start lazy: constant all-to-all is analytic.
    let total_rows = sim.machine().total_lazy_rows();
    assert!(total_rows > 0, "the ring net must load as a lazy arena");
    let reference = sim.run(RUN_MS).machine.spikes().to_vec();
    assert!(reference.len() > 50, "workload must actually spike");

    for (split, threads_b) in [(41u32, 4u32), (97, 16)] {
        let mut session = Simulation::build(&net, lazy_cfg(4))
            .expect("ring fits a 4x4 machine")
            .into_session();
        session.run_for(split);
        let lazy_at_cut = session.machine().total_lazy_rows();
        assert!(
            lazy_at_cut < total_rows,
            "spikes must have materialized some rows by {split} ms"
        );
        assert!(
            lazy_at_cut > 0,
            "the idle tail of the ring must still be compressed at {split} ms"
        );
        let snap = session.checkpoint();
        drop(session);
        let mut resumed = RunSession::restore(&net, lazy_cfg(threads_b), &snap)
            .expect("snapshot restores onto a fresh lazy build");
        assert!(
            resumed.machine().total_lazy_rows() > 0,
            "restore must revive recipes, not force-materialize the arena"
        );
        resumed.run_for(RUN_MS - split);
        assert_eq!(
            resumed.machine().spikes(),
            reference.as_slice(),
            "lazy-arena split at {split} ms diverges from the uninterrupted run"
        );
    }
}

/// Only a walked row leaves compressed form: nothing that looks at a
/// row on the way to the walk (the ISR's table search, the transfer in
/// flight) may expand it or its neighbours. A row expanded early still
/// replays the right spikes, so only these counts notice it.
///
/// The byte counts follow the synapse store's layout. Each of the 18
/// loaded cores holds 96 rows in 3 source blocks: 97 row pointers and
/// 96 `home` offsets at 4 B each, 3 table entries at 16 B, and one
/// 80-byte recipe, since the 3 blocks of one source population continue
/// each other and share it. That is 900 B per core, 16 200 B in all.
/// Each of the 288 walked rows adds its 32 words (36 864 B).
#[test]
fn only_walked_rows_leave_the_lazy_arena() {
    let net = lazy_ring_net();
    for threads in [1, 2] {
        let mut session = Simulation::build(&net, lazy_cfg(threads))
            .expect("ring fits a 4x4 machine")
            .into_session();
        let counts = |m: &NeuralMachine| (m.total_lazy_rows(), m.total_resident_bytes());
        assert_eq!(counts(session.machine()), (1728, 16_200));
        // Population 0 has fired by now and the volley dies in the next
        // one: its 288 outgoing rows are walked, the other 1440 are not.
        session.run_for(60);
        assert_eq!(
            counts(session.machine()),
            (1440, 53_064),
            "{threads} shard(s)"
        );
    }
}

// ---------------------------------------------------------------------
// Warm mutation: stimulus sources, STDP toggling.

fn poisson_net() -> (NetworkGraph, PopulationId, PopulationId) {
    let mut net = NetworkGraph::new();
    let input = net.population("input", 64, kind(), 0.0);
    let out = net.population("out", 64, kind(), 0.0);
    net.project(
        input,
        out,
        Connector::FixedFanOut(8),
        Synapses::constant(900, 2),
        7,
    );
    (net, input, out)
}

#[test]
fn poisson_sources_are_split_invariant_and_survive_restore() {
    let (net, input, out) = poisson_net();
    let cfg = || {
        SimConfig::new(4, 4)
            .with_force_shards(true)
            .with_neurons_per_core(32)
    };
    let run_whole = || {
        let mut s = Simulation::build(&net, cfg()).unwrap().into_session();
        s.add_poisson(input, 180.0, 0xF00D);
        s.run_for(120);
        s.machine().spikes().to_vec()
    };
    let whole = run_whole();
    assert!(!whole.is_empty(), "the Poisson drive must produce spikes");
    // Same source, three segments with a serialize/restore in between:
    // the RNG stream must continue, not restart.
    let mut s = Simulation::build(&net, cfg()).unwrap().into_session();
    s.add_poisson(input, 180.0, 0xF00D);
    s.run_for(43);
    let snap = s.checkpoint();
    let mut s = RunSession::restore(&net, cfg().with_threads(2), &snap).unwrap();
    s.run_for(29);
    s.run_for(48);
    assert_eq!(whole, s.machine().spikes());
    assert!(s.spike_count(out) > 0, "drive must propagate to out");
}

/// Hostile bytes in the session's own section: the stimulus sources
/// that follow the embedded machine snapshot. A checkpoint with one
/// Poisson source, cut at every length inside that section and with one
/// bit flipped in each of its bytes, either fails to restore or
/// restores and runs 5 ms more; a NaN or negative rate is an error.
#[test]
fn corrupt_session_sections_are_rejected_or_run_on() {
    let (net, input, _out) = poisson_net();
    let cfg = || {
        SimConfig::new(4, 4)
            .with_force_shards(true)
            .with_neurons_per_core(32)
    };
    let mut s = Simulation::build(&net, cfg()).unwrap().into_session();
    s.add_poisson(input, 180.0, 0xF00D);
    s.run_for(20);
    let bytes = s.checkpoint().as_bytes().to_vec();
    // The source count, then one source: population, rate, RNG state.
    let start = bytes.len() - (8 + 4 + 8 + 4 * 8);
    let restore =
        |bytes: &[u8]| RunSession::restore(&net, cfg(), &Snapshot::from_bytes(bytes.to_vec()));
    restore(&bytes).expect("the intact checkpoint restores");
    let restore_and_run = |bytes: &[u8]| {
        if let Ok(mut s) = restore(bytes) {
            s.run_for(5);
        }
    };
    for len in start..bytes.len() {
        restore_and_run(&bytes[..len]);
    }
    let mut flipped = bytes.clone();
    for i in start..bytes.len() {
        flipped[i] ^= 1 << (i % 8);
        restore_and_run(&flipped);
        flipped[i] = bytes[i];
    }
    let rate_at = start + 8 + 4;
    for rate in [f64::NAN, -1.0] {
        let mut bad = bytes.clone();
        bad[rate_at..rate_at + 8].copy_from_slice(&rate.to_le_bytes());
        assert!(
            matches!(
                restore(&bad),
                Err(SpinnError::Snapshot(SnapshotError::Wire(
                    WireError::Corrupt(_)
                )))
            ),
            "a rate of {rate} must be rejected as corrupt"
        );
    }
}

#[test]
fn warm_mutation_between_segments() {
    let (net, input, _out) = poisson_net();
    let cfg = SimConfig::new(4, 4)
        .with_force_shards(true)
        .with_neurons_per_core(32)
        .with_stdp(spinnaker::neuron::stdp::StdpParams::default());
    let mut session = Simulation::build(&net, cfg).unwrap().into_session();
    // Job 1: drive with one source.
    session.add_poisson(input, 250.0, 1);
    session.run_for(50);
    let job1 = session.take_spikes();
    assert!(!job1.is_empty(), "job 1 must fire");
    // Job 2: swap the stimulus, freeze plasticity, add a fault.
    session.clear_stimulus_sources();
    session.add_poisson(input, 40.0, 2);
    session.set_stdp(None);
    session.queue_fail_link(60, NodeCoord::new(0, 0), Direction::East);
    let wb_before = session.machine().weight_writebacks();
    session.run_for(50);
    assert_eq!(
        session.machine().weight_writebacks(),
        wb_before,
        "weights must freeze while STDP is off"
    );
    let job2 = session.take_spikes();
    // Job 3: direct stimulation of specific neurons.
    for t in 0..10 {
        session.stimulate(101 + t, input, t % 64);
    }
    session.run_for(50);
    let job3 = session.take_spikes();
    assert_eq!(session.elapsed_ms(), 150);
    // Distinct jobs produced distinct rasters on one resident machine.
    assert_ne!(job1, job2);
    assert_ne!(job2, job3);
}

// ---------------------------------------------------------------------
// Random split points (proptest).

proptest! {
    #![proptest_config(ProptestConfig::with_cases(spinn_proptest_cases(12)))]
    #[test]
    fn random_splits_resume_bit_exactly(
        split in 1u32..99,
        threads_a in 1u32..5,
        threads_b in 1u32..5,
    ) {
        let (net, input, _out) = poisson_net();
        let cfg = |threads: u32| {
            SimConfig::new(4, 4).with_force_shards(true)
                .with_neurons_per_core(32)
                .with_threads(threads)
        };
        let whole = {
            let mut s = Simulation::build(&net, cfg(threads_a)).unwrap().into_session();
            s.add_poisson(input, 200.0, 0xABCD);
            s.run_for(100);
            s.machine().spikes().to_vec()
        };
        let mut s = Simulation::build(&net, cfg(threads_a)).unwrap().into_session();
        s.add_poisson(input, 200.0, 0xABCD);
        s.run_for(split);
        let snap = s.checkpoint();
        let mut s = RunSession::restore(&net, cfg(threads_b), &snap).unwrap();
        s.run_for(100 - split);
        prop_assert_eq!(whole, s.machine().spikes().to_vec());
    }
}

/// Honours `PROPTEST_CASES` like the nightly CI job; defaults low
/// because every case simulates two full runs.
fn spinn_proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}
