//! The build-and-run memory model: streaming expansion, the
//! master-population-table + arena core, DTCM/SDRAM admission errors
//! and byte-accounting invariants.

use spinnaker::machine::machine::NeuralMachine;
use spinnaker::map::loader::LoadedApp;
use spinnaker::neuron::izhikevich::IzhikevichNeuron;
use spinnaker::neuron::model::AnyNeuron;
use spinnaker::neuron::synapse::SynapticWord;
use spinnaker::neuron::synmatrix::SynapticMatrixBuilder;
use spinnaker::prelude::*;

fn kind() -> NeuronKind {
    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking())
}

fn rs_neurons(n: usize) -> Vec<AnyNeuron> {
    (0..n)
        .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
        .collect()
}

fn fan_net(sizes: (u32, u32), k: u32) -> NetworkGraph {
    let mut net = NetworkGraph::new();
    let a = net.population("a", sizes.0, kind(), 8.0);
    let b = net.population("b", sizes.1, kind(), 0.0);
    net.project(
        a,
        b,
        Connector::FixedFanOut(k),
        Synapses::constant(400, 2),
        7,
    );
    net
}

/// A slice too large for the 64 KB DTCM must surface as
/// `SpinnError::Dtcm` from the build pipeline, with honest byte
/// numbers.
#[test]
fn dtcm_overflow_surfaces_from_build() {
    let net = fan_net((1500, 100), 4);
    // 1500 neurons on one core: ring (1500*16*4 B) + state (1500*48 B)
    // far exceeds 64 KB.
    let cfg = SimConfig::new(4, 4).with_neurons_per_core(1500);
    let err = Simulation::build(&net, cfg).unwrap_err();
    match err {
        SpinnError::Dtcm(e) => {
            assert!(e.required > e.available, "{e}");
            assert_eq!(e.available, 64 * 1024);
            assert!(e.to_string().contains("DTCM"));
        }
        other => panic!("expected Dtcm error, got {other}"),
    }
}

/// The machine-level DTCM admission path: `load_core` rejects before
/// any state is installed, and the core slot stays free.
#[test]
fn dtcm_overflow_leaves_core_unloaded() {
    let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
    let err = m
        .load_core(
            NodeCoord::new(0, 0),
            1,
            rs_neurons(2000),
            vec![0.0; 2000],
            0,
        )
        .unwrap_err();
    assert!(err.required > err.available);
    // The slot is still free: a fitting load succeeds afterwards.
    m.load_core(NodeCoord::new(0, 0), 1, rs_neurons(10), vec![0.0; 10], 0)
        .unwrap();
}

/// Loader byte totals must equal the summed arena sizes, before and
/// after the matrices move onto the machine — the invariant behind the
/// per-chip SDRAM capacity check.
#[test]
fn sdram_accounting_is_conserved_across_loading() {
    let net = fan_net((300, 300), 12);
    let placement =
        spinnaker::map::place::Placement::compute(&net, 4, 4, 20, 64, Placer::Locality).unwrap();
    let app = LoadedApp::build(&net, &placement);
    let loader_total = app.total_sdram_bytes();
    let summed_arenas: u64 = app.images.iter().map(|i| i.matrix.sdram_bytes()).sum();
    assert_eq!(loader_total, summed_arenas);
    // 300 sources x 12 synapses = 3600 words.
    assert_eq!(app.total_synapses(), 3600);

    let cfg = SimConfig::new(4, 4).with_neurons_per_core(64);
    let sim = Simulation::build(&net, cfg).unwrap();
    assert_eq!(sim.machine().total_sdram_bytes(), loader_total);
    let pre_occ: u64 = sim
        .machine()
        .chip_occupancy()
        .iter()
        .map(|c| c.sdram_bytes)
        .sum();
    assert_eq!(pre_occ, loader_total);
    // Unchanged after the run (no STDP: nothing is written back).
    let done = sim.run(30);
    assert_eq!(done.machine.total_sdram_bytes(), loader_total);
    let occ_total: u64 = done.occupancy().iter().map(|c| c.sdram_bytes).sum();
    assert_eq!(occ_total, loader_total);
}

/// Empty rows (a source covered by the multicast tree with no synapses
/// on this core) still DMA their 4-byte header; keys outside every
/// master-population-table block count as row misses. The arena core
/// preserves both behaviours of the hash-map predecessor.
#[test]
fn empty_rows_dma_and_unknown_keys_miss() {
    let mk = |with_row: bool| -> NeuralMachine {
        let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
        let chip = NodeCoord::new(0, 0);
        m.load_core(chip, 1, rs_neurons(5), vec![12.0; 5], 0x1000)
            .unwrap();
        if with_row {
            // Explicitly empty rows for the core's own spikes.
            let mut b = SynapticMatrixBuilder::new();
            b.block(0x1000, !0xFFF, 5);
            m.install_matrix(chip, 1, b.finish());
        }
        m.router_mut(chip)
            .table
            .insert(spinnaker::noc::table::McTableEntry {
                key: 0x1000,
                mask: 0xFFFF_F000,
                route: spinnaker::noc::table::RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        m
    };
    let with_rows = mk(true).run(100);
    assert_eq!(with_rows.row_misses(), 0, "empty rows are not misses");
    assert!(
        with_rows.meter().sdram_bytes > 0,
        "empty rows still DMA their header"
    );
    let without_rows = mk(false).run(100);
    assert!(
        without_rows.row_misses() > 0,
        "unknown keys must count as mapping errors"
    );
}

/// STDP writes back into the arena in place through the full build
/// pipeline (loader-built matrices, not manual rows): weights move and
/// write-back DMAs are metered.
#[test]
fn stdp_writes_back_into_loader_built_arena() {
    let net = fan_net((60, 60), 10);
    let cfg = SimConfig::new(4, 4)
        .with_neurons_per_core(64)
        .with_stdp(spinnaker::neuron::stdp::StdpParams::default());
    let done = Simulation::build(&net, cfg).unwrap().run(300);
    assert!(done.machine.weight_writebacks() > 0);
    assert!(!done.machine.spikes().is_empty());
}

/// Per-chip occupancy decomposes the machine totals and respects
/// capacities on a healthy build.
#[test]
fn chip_occupancy_decomposes_machine_state() {
    let net = fan_net((200, 200), 8);
    let cfg = SimConfig::new(4, 4).with_neurons_per_core(64);
    let done = Simulation::build(&net, cfg).unwrap().run(50);
    let occ = done.occupancy();
    assert_eq!(occ.len(), 16);
    let loaded: u32 = occ.iter().map(|c| c.loaded_cores).sum();
    // 200 + 200 neurons at 64/core = ceil(200/64) * 2 = 8 cores.
    assert_eq!(loaded, 8);
    for c in &occ {
        assert!(c.dtcm_bytes <= c.dtcm_capacity, "{c:?}");
        assert!(c.sdram_bytes <= c.sdram_capacity, "{c:?}");
        if c.loaded_cores == 0 {
            assert_eq!(c.dtcm_bytes, 0);
            assert_eq!(c.sdram_bytes, 0);
        }
    }
    assert_eq!(
        occ.iter().map(|c| c.sdram_bytes).sum::<u64>(),
        done.machine.total_sdram_bytes()
    );
    // The report surfaces the same numbers.
    let report = done.report();
    assert!(report.contains("chip occupancy:"), "{report}");
    assert!(report.contains("memory totals:"), "{report}");
}

/// Spike streams through the arena-backed core must be identical for
/// the streaming build regardless of placement (§3.2 virtualized
/// topology) — the refactor's end-to-end sanity check.
#[test]
fn streaming_build_is_placement_independent() {
    let net = fan_net((200, 200), 8);
    let spikes = |placer| {
        let cfg = SimConfig::new(4, 4)
            .with_neurons_per_core(64)
            .with_placer(placer);
        let done = Simulation::build(&net, cfg).unwrap().run(120);
        let mut s = done.spikes();
        s.sort_by_key(|x| (x.time_ms, x.pop.index(), x.neuron));
        s
    };
    assert_eq!(spikes(Placer::Locality), spikes(Placer::Random { seed: 3 }));
}

/// Core eviction and re-installation carry the whole matrix (master
/// population table + arena) across chips intact.
#[test]
fn eviction_carries_the_matrix() {
    let mut m = NeuralMachine::new(MachineConfig::new(2, 2));
    let from = NodeCoord::new(0, 0);
    let to = NodeCoord::new(1, 1);
    m.load_core(from, 1, rs_neurons(4), vec![0.0; 4], 0x9000)
        .unwrap();
    let mut b = SynapticMatrixBuilder::new();
    let row = b.block(0x77, u32::MAX, 1);
    for t in 0..4 {
        b.push(row, SynapticWord::new(123, 3, t));
    }
    m.install_matrix(from, 1, b.finish());
    let payload = m.evict_core(from, 1).unwrap();
    assert_eq!(payload.matrix.total_synapses(), 4);
    m.install_core(to, 1, payload).unwrap();
    assert_eq!(m.weight_of(to, 1, 0x77, 2), Some(123));
    assert_eq!(m.weight_of(to, 1, 0x78, 2), None);
}
