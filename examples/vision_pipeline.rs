//! End-to-end vision: the §5.4 retina feeding spikes into the machine.
//!
//! The retina encodes a stimulus as a rank-order spike salvo (§5.4: the
//! rising surge of a background rhythm carries one salvo); those spikes
//! enter the fabric as AER multicast packets, drive an integrating
//! population on the machine, and the population's first movers recover
//! the stimulus location — all inside the 1 ms real-time discipline.
//!
//! Run with: `cargo run --release --example vision_pipeline`

use spinnaker::machine::config::MachineConfig;
use spinnaker::machine::machine::NeuralMachine;
use spinnaker::neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
use spinnaker::neuron::model::AnyNeuron;
use spinnaker::neuron::retina::{Image, RetinaLayer};
use spinnaker::neuron::synapse::SynapticWord;
use spinnaker::neuron::synmatrix::SynapticMatrixBuilder;
use spinnaker::noc::mesh::NodeCoord;
use spinnaker::noc::table::{McTableEntry, RouteSet};
use spinnaker::SpinnError;

const MS: u64 = 1_000_000;

fn main() -> Result<(), SpinnError> {
    // 1. The retina: 80 ganglion cells over a 32x32 field.
    let retina = RetinaLayer::new(32, 32, &[(1.2, 4), (2.4, 8)]);
    let n_cells = retina.len();

    // 2. A cortical population on the machine: one integrator neuron per
    //    ganglion cell, on chip (1,1) core 1. Each ganglion cell key
    //    0x1000+i drives integrator i one-to-one.
    let mut m = NeuralMachine::new(MachineConfig::new(4, 4));
    let cortex = NodeCoord::new(1, 1);
    let neurons: Vec<AnyNeuron> = (0..n_cells)
        .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
        .collect();
    m.load_core(cortex, 1, neurons, vec![0.0; n_cells], 0x8000)?;
    // Retina spikes are injected at chip (0,0) — the "optic nerve" entry
    // point — and routed east+north to the cortex chip. CAM overflow
    // propagates as a SpinnError instead of panicking.
    for (node, route) in [
        (
            NodeCoord::new(0, 0),
            RouteSet::EMPTY.with_link(spinnaker::noc::direction::Direction::NorthEast),
        ),
        (cortex, RouteSet::EMPTY.with_core(1)),
    ] {
        m.router_mut(node).table.insert(McTableEntry {
            key: 0x1000,
            mask: 0xFFFF_F000,
            route,
        })?;
    }
    let mut rows = SynapticMatrixBuilder::new();
    let first = rows.block(0x1000, !0xFFF, n_cells as u32);
    for i in 0..n_cells as u32 {
        rows.push(first + i, SynapticWord::new(12000, 1, i as u16));
    }
    m.install_matrix(cortex, 1, rows.finish());

    // 3. Stimulus: a bright blob. One rank-order salvo per "rhythm
    //    surge", 20 ms apart: earlier-ranked cells spike earlier within
    //    the salvo (1 ms per rank step, 4 ranks).
    let stimulus = Image::gaussian_blob(32, 32, 22.0, 9.0, 4.0);
    let code = retina.encode(&stimulus, 16);
    println!(
        "retina salvo: {} spikes, first cells {:?}",
        code.len(),
        &code.order[..4.min(code.len())]
    );
    for salvo in 0..5u64 {
        let t0 = 2 * MS + salvo * 20 * MS;
        for (rank, &cell) in code.order.iter().enumerate() {
            let t = t0 + (rank as u64 / 4) * MS;
            m.queue_stimulus(t, NodeCoord::new(0, 0), 0x1000 + cell);
        }
    }

    // 4. Run 120 ms of biological time.
    let m = m.run(120);

    // 5. Readout: which integrators fired, and where do they sit?
    let mut firing: Vec<u32> = m
        .spikes()
        .iter()
        .filter(|s| s.key & 0x8000 != 0)
        .map(|s| s.key - 0x8000)
        .collect();
    firing.sort_unstable();
    firing.dedup();
    println!("cortex: {} integrators fired over 5 salvos", firing.len());
    let (mut cx, mut cy) = (0.0f64, 0.0f64);
    for &i in &firing {
        cx += retina.cells()[i as usize].cx;
        cy += retina.cells()[i as usize].cy;
    }
    let n = firing.len().max(1) as f64;
    println!(
        "decoded stimulus position: ({:.1}, {:.1})   true: (22.0, 9.0)",
        cx / n,
        cy / n
    );
    println!(
        "fabric p99 latency {} ns; {} real-time violations",
        m.spike_latency().percentile(99.0),
        m.realtime_violations()
    );
    let err = ((cx / n - 22.0).powi(2) + (cy / n - 9.0).powi(2)).sqrt();
    assert!(err < 6.0, "decoded position off by {err:.1} px");
    assert_eq!(m.realtime_violations(), 0);
    Ok(())
}
