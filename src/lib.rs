//! # spinn-system — a full reproduction of the SpiNNaker architecture
//!
//! This workspace reproduces *Furber & Brown, "Biologically-Inspired
//! Massively-Parallel Architectures — computing beyond a million
//! processors" (DATE 2011)*: a discrete-event simulation of the SpiNNaker
//! machine from the self-timed inter-chip circuits up to
//! billion-neuron-scale real-time spiking neural simulation, plus the
//! experiment harness that regenerates every figure and quantitative
//! claim in the paper.
//!
//! The harness lives here: [`experiments`] (one module per table),
//! [`resil`] (E19's Monte Carlo fault campaigns) and [`figures`] (the
//! paper's structural figures). `cargo run --release --example paper`
//! prints every table (`SPINN_FULL=1` for the full-size runs), and
//! `tests/paper_claims.rs` checks each claim in quick mode.
//!
//! Otherwise the root crate re-exports the workspace members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`sim`] | deterministic discrete-event kernel, PRNG, statistics |
//! | [`link`] | transition-level self-timed links: 2-of-7 NRZ, 3-of-6 RTZ, Fig.-6 phase converters, glitch studies |
//! | [`noc`] | packets, hex-torus mesh, multicast router, emergency routing, whole-machine fabric |
//! | [`neuron`] | Izhikevich/LIF models (16.16 fixed point), synaptic rows, deferred-event ring, STDP, rank-order codes, retina |
//! | [`machine`] | chips, monitor election, boot, flood-fill loading, the running machine, energy/cost model |
//! | [`par`] | sharded, barrier-synchronized parallel execution of the machine (serial-exact) |
//! | [`map`] | populations/projections, placement, AER keys, multicast-tree routing tables, SDRAM images |
//! | [`spinnaker`] | the PyNN-flavoured public API: build → run → inspect |
//!
//! # Quickstart
//!
//! ```
//! use spinnaker::prelude::*;
//!
//! let mut net = NetworkGraph::new();
//! let exc = net.population(
//!     "exc", 100,
//!     NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()), 9.0);
//! let out = net.population(
//!     "out", 25,
//!     NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()), 0.0);
//! net.project(exc, out, Connector::FixedProbability(0.2),
//!             Synapses::constant(500, 3), 7);
//! let done = Simulation::build(&net, SimConfig::new(4, 4)).unwrap().run(100);
//! assert!(done.spike_count(exc) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod resil;

pub use spinn_link as link;
pub use spinn_machine as machine;
pub use spinn_map as map;
pub use spinn_neuron as neuron;
pub use spinn_noc as noc;
pub use spinn_par as par;
pub use spinn_sim as sim;
pub use spinnaker;

pub use spinnaker::prelude;
