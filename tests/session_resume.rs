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

use proptest::prelude::*;
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

// ---------------------------------------------------------------------
// The golden scenarios (identical to tests/golden_traces.rs).

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

fn synfire_cfg(threads: u32) -> SimConfig {
    SimConfig::new(4, 4)
        .with_force_shards(true)
        .with_neurons_per_core(64)
        .with_placer(Placer::Random { seed: 0x60_1D })
        .with_threads(threads)
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

fn retina_cfg(threads: u32) -> SimConfig {
    SimConfig::new(4, 4)
        .with_force_shards(true)
        .with_neurons_per_core(64)
        .with_placer(Placer::Random { seed: 0x2E71 })
        .with_threads(threads)
}

/// The hand-built fault-injection machine of the `fault` golden trace:
/// its only relay→target route dies mid-run at t = 50 ms.
fn faulted_machine() -> NeuralMachine {
    let rs = |n: usize| -> Vec<AnyNeuron> {
        (0..n)
            .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
            .collect()
    };
    let mut cfg = MachineConfig::new(4, 4).with_force_shards(true);
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

fn golden(name: &str) -> Vec<SpikeRecord> {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.trace"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {}: {e}", path.display()))
        .lines()
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
    let golden = golden(name);
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
    check_scenario_sessions("synfire", &synfire_net(), synfire_cfg);
}

#[test]
fn retina_session_split_resume_matches_golden() {
    check_scenario_sessions("retina", &retina_net(), retina_cfg);
}

/// The fault scenario is a hand-built machine (no `Simulation` build),
/// so it exercises the machine-level `run_segment` + `snapshot` +
/// `install_snapshot` API directly — including a checkpoint taken
/// *before* the scheduled mid-run fault has fired (the fault must ride
/// the snapshot) and one after (the dead link state must ride it).
#[test]
fn fault_machine_split_resume_matches_golden() {
    let golden = golden("fault");
    for (split, threads_a, threads_b) in [
        (30u32, 1usize, 4usize), // fault still pending at the cut
        (77, 2, 1),              // fault already fired at the cut
    ] {
        let (m, pending) = faulted_machine().run_segment(Vec::new(), 0, split, threads_a);
        let bytes = m.snapshot(&pending);
        let mut fresh = faulted_machine();
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

/// A machine whose timer handler takes *longer than the 1 ms tick*
/// (inflated per-neuron cost): every segment boundary then falls inside
/// tick processing, so the checkpoint must carry a mid-tick work item,
/// pending handler completions, and packets in flight — and still
/// resume bit-exactly.
fn overloaded_machine() -> NeuralMachine {
    let rs = |n: usize| -> Vec<AnyNeuron> {
        (0..n)
            .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
            .collect()
    };
    let mut cfg = MachineConfig::new(2, 2).with_force_shards(true);
    // 60k instructions per neuron at 200 MHz = 0.3 ms/neuron: a 12-neuron
    // core needs 3.6 ms per 1 ms tick — a permanent real-time violation.
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

#[test]
fn checkpoint_under_pending_events_resumes_bit_exactly() {
    let whole = overloaded_machine().run(40);
    assert!(
        whole.realtime_violations() > 0,
        "the overloaded machine must actually overrun its ticks"
    );
    let (m, pending) = overloaded_machine().run_segment(Vec::new(), 0, 17, 1);
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
    let mut fresh = overloaded_machine();
    let restored = fresh.install_snapshot(&bytes).unwrap();
    let (done, _) = fresh.run_segment(restored.pending, 17, 23, 1);
    assert_eq!(whole.spikes(), done.spikes());
    assert_eq!(whole.realtime_violations(), done.realtime_violations());
    assert_eq!(whole.meter().instructions, done.meter().instructions);
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
/// replays the right spikes, so only these counts, recorded at PR 16's
/// head before the row-fetch hints went in, notice it.
#[test]
fn only_walked_rows_leave_the_lazy_arena() {
    let net = lazy_ring_net();
    for threads in [1, 2] {
        let mut session = Simulation::build(&net, lazy_cfg(threads))
            .expect("ring fits a 4x4 machine")
            .into_session();
        let counts = |m: &NeuralMachine| (m.total_lazy_rows(), m.total_resident_bytes());
        assert_eq!(counts(session.machine()), (1728, 19_008));
        // Population 0 has fired by now and the volley dies in the next
        // one: its 288 outgoing rows are walked, the other 1440 are not.
        session.run_for(60);
        assert_eq!(
            counts(session.machine()),
            (1440, 55_872),
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
