//! Conformance for the chunked wide tick path under sharding: every
//! shard count — and a checkpoint/restore cut mid-run — must replay the
//! serial engine's spike stream bit-exactly, on a net whose population
//! sizes straddle the chunk width.
//!
//! The wide path is the only tick path for homogeneous pools; what
//! holds it to the per-neuron `step_1ms` models, bit for bit, is
//! `assert_pool_matches_aos` in `crates/neuron/src/pool.rs`. This suite
//! checks what that unit test cannot: that chunk seams and tail chunks
//! stay invisible once cores are spread over shards. (Two test names
//! still say "queue" from when the machine had a queue switch.)

use proptest::prelude::*;

use spinnaker::neuron::izhikevich::IzhikevichParams;
use spinnaker::neuron::lif::LifParams;
use spinnaker::prelude::*;
use spinnaker::RunSession;

/// A mixed-model net: Izhikevich populations (three parameter presets,
/// so chattering/fast-spiking chunks sit next to regular ones) driving
/// a LIF readout — both wide-path implementations and the bitmask
/// spike sweep are on the hot path, including partial tail chunks
/// (population sizes straddle the 8-lane chunk width).
fn mixed_net(seed: u64) -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let presets = [
        IzhikevichParams::regular_spiking(),
        IzhikevichParams::fast_spiking(),
        IzhikevichParams::chattering(),
    ];
    let pops: Vec<_> = (0..3u32)
        .map(|i| {
            net.population(
                &format!("iz{i}"),
                121 + 10 * i, // deliberately not multiples of the lane width
                NeuronKind::Izhikevich(presets[i as usize]),
                if i == 0 { 10.0 } else { 0.0 },
            )
        })
        .collect();
    let readout = net.population("lif", 93, NeuronKind::Lif(LifParams::default()), 0.0);
    for (i, &src) in pops.iter().enumerate() {
        let dst = pops[(i + 1) % pops.len()];
        net.project(
            src,
            dst,
            Connector::FixedFanOut(10),
            Synapses::constant(620, 1 + (i as u8 % 3)),
            seed ^ i as u64,
        );
        net.project(
            src,
            readout,
            Connector::FixedProbability(0.08),
            Synapses::constant(400, 2),
            seed ^ (0x10 + i as u64),
        );
    }
    net
}

fn cfg(threads: u32) -> SimConfig {
    SimConfig::new(4, 4)
        .with_force_shards(true)
        .with_neurons_per_core(64)
        .with_threads(threads)
}

#[test]
fn every_queue_and_thread_count_replays_the_serial_run() {
    let net = mixed_net(0xB0);
    let reference = Simulation::build(&net, cfg(1)).unwrap().run(80).spikes();
    assert!(reference.len() > 200, "workload must actually spike");
    for threads in [2u32, 4, 16] {
        let spikes = Simulation::build(&net, cfg(threads))
            .unwrap()
            .run(80)
            .spikes();
        assert_eq!(
            spikes, reference,
            "{threads} threads diverged from the serial run"
        );
    }
}

#[test]
fn checkpoint_mid_run_then_resume_replays_the_straight_run() {
    let net = mixed_net(7);
    let whole = {
        let mut s = Simulation::build(&net, cfg(1)).unwrap().into_session();
        s.run_for(90);
        s.machine().spikes().to_vec()
    };
    assert!(!whole.is_empty(), "workload must actually spike");
    // Cut at an odd boundary, serialize, restore onto a *different*
    // thread count, finish sharded: same raster.
    let mut s = Simulation::build(&net, cfg(4)).unwrap().into_session();
    s.run_for(37);
    let snap = s.checkpoint();
    let mut s = RunSession::restore(&net, cfg(16), &snap).unwrap();
    s.run_for(53);
    assert_eq!(whole, s.machine().spikes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Net topology and shard count are free choices: neither may
    /// perturb the raster the wide tick path produces.
    #[test]
    fn random_nets_replay_across_queue_and_shards(
        seed in any::<u64>(),
        threads in 2u32..6,
    ) {
        let net = mixed_net(seed);
        let serial = Simulation::build(&net, cfg(1)).unwrap().run(40).spikes();
        let sharded = Simulation::build(&net, cfg(threads))
            .unwrap()
            .run(40)
            .spikes();
        prop_assert_eq!(sharded, serial);
    }
}
