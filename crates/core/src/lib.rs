//! # spinnaker — the public API of the SpiNNaker reproduction
//!
//! A PyNN-flavoured front end over the whole stack: describe a spiking
//! network as populations and projections, build it onto a simulated
//! SpiNNaker machine (placement → routing tables → synaptic data), run
//! it in biological real time, and read back spikes, energy and fabric
//! statistics.
//!
//! ```
//! use spinnaker::prelude::*;
//!
//! // 1. Describe the network.
//! let mut net = NetworkGraph::new();
//! let exc = net.population(
//!     "exc", 200,
//!     NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()), 9.0);
//! let inh = net.population(
//!     "inh", 50,
//!     NeuronKind::Izhikevich(IzhikevichParams::fast_spiking()), 0.0);
//! net.project(exc, inh, Connector::FixedProbability(0.08),
//!             Synapses::constant(600, 2), 42);
//!
//! // 2. Build it onto a 4x4-chip machine.
//! let sim = Simulation::build(&net, SimConfig::new(4, 4)).unwrap();
//!
//! // 3. Run 100 ms of biological time.
//! let done = sim.run(100);
//!
//! // 4. Inspect.
//! assert!(done.spike_count(exc) > 0, "driven population must fire");
//! assert_eq!(done.machine.realtime_violations(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod session;
mod simulation;

pub use error::{SdramOverflow, SpinnError};
pub use session::{RunSession, Snapshot};
pub use simulation::{Completed, PopSpike, SimConfig, Simulation};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::{Completed, PopSpike, RunSession, SimConfig, Simulation, Snapshot, SpinnError};
    pub use spinn_machine::config::MachineConfig;
    pub use spinn_map::graph::{Connector, NetworkGraph, NeuronKind, PopulationId, Synapses};
    pub use spinn_map::place::Placer;
    pub use spinn_neuron::izhikevich::IzhikevichParams;
    pub use spinn_neuron::lif::LifParams;
    pub use spinn_noc::direction::Direction;
    pub use spinn_noc::mesh::NodeCoord;
    pub use spinn_obs::ObsMode;
}

// Re-export the substrate crates for advanced use.
pub use spinn_link as link;
pub use spinn_machine as machine;
pub use spinn_map as map;
pub use spinn_neuron as neuron;
pub use spinn_noc as noc;
pub use spinn_obs as obs;
pub use spinn_sim as sim;
