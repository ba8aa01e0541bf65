//! # spinn-neuron — spiking neuron models and neural codes
//!
//! The application layer of the SpiNNaker reproduction: everything a
//! processor core computes when its 1 ms timer fires (§3.1, Fig. 7) and
//! the coding schemes §5.4 of the paper discusses.
//!
//! * [`fixed`] — 16.16 fixed-point arithmetic, as used by the ARM968
//!   neuron kernels (no FPU on the real chip).
//! * [`izhikevich`] — the Izhikevich neuron in fixed point, SpiNNaker's
//!   workhorse model, with the standard parameter presets.
//! * [`lif`] — leaky integrate-and-fire, a second "local algorithm"
//!   (§5.3 notes processors may run different local algorithms).
//! * [`model`] — the [`model::NeuronModel`] trait unifying them.
//! * [`synapse`] — the packed 32-bit synaptic word (§4).
//! * [`synmatrix`] — the per-core **master population table** over one
//!   contiguous synaptic arena (CSR layout): the source-indexed rows
//!   stored in SDRAM and DMA-fetched on spike arrival, the §5.2/§6
//!   memory model the machine's packet hot path indexes into.
//! * [`gen`] — generator recipes for **compressed, lazily materialized**
//!   rows: a full-machine build stores connector specs and RNG stream
//!   positions instead of expanded words, regenerating rows bit-exactly
//!   on first DMA touch.
//! * [`pool`] — structure-of-arrays neuron state, the flat-array form
//!   of the timer handler's per-tick update.
//! * [`ring`] — the **deferred-event input ring buffer** implementing
//!   §3.2's "soft delays": each synapse's programmable 1–16 ms delay is
//!   re-inserted algorithmically at the target neuron.
//! * [`stdp`] — the pair-based spike-timing-dependent plasticity rule
//!   the machine applies at each row fetch (the adaptive networks the
//!   paper's conclusions call for).
//! * [`coding`] — N-of-M population codes and rank-order codes \[20\].
//! * [`retina`] — the §5.4 retina: difference-of-Gaussians
//!   (centre-surround) ganglion cells at overlapping scales with lateral
//!   inhibition, rank-order readout, and graceful degradation under cell
//!   loss.
//!
//! # `deny(unsafe_code)`, not `forbid`
//!
//! Every other crate of the workspace forbids `unsafe_code`. This one
//! denies it, because a `forbid` cannot be lifted further in and one
//! private module (`hint`) has to lift it for a single instruction: the
//! host prefetch behind
//! [`SynapticMatrix::hint_row`](synmatrix::SynapticMatrix::hint_row) and
//! its two siblings, which safe Rust cannot express. Clippy's
//! `undocumented_unsafe_blocks` is denied alongside, and CI checks that
//! the keyword appears in no other source file of `crates/`.
//!
//! # Example
//!
//! ```
//! use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
//! use spinn_neuron::model::NeuronModel;
//!
//! let mut n = IzhikevichNeuron::new(IzhikevichParams::regular_spiking());
//! let mut spikes = 0;
//! for _ in 0..1000 {
//!     if n.step_1ms(10.0) {
//!         spikes += 1;
//!     }
//! }
//! assert!(spikes > 5, "tonic drive must elicit regular spiking");
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod coding;
pub mod fixed;
pub mod gen;
mod hint;
pub mod izhikevich;
pub mod lif;
pub mod model;
pub mod pool;
pub mod retina;
pub mod ring;
pub mod stdp;
pub mod synapse;
pub mod synmatrix;

pub use fixed::Fix1616;
pub use izhikevich::{IzhikevichNeuron, IzhikevichParams};
pub use lif::{LifNeuron, LifParams};
pub use model::{AnyNeuron, NeuronModel};
pub use pool::NeuronPool;
pub use ring::InputRing;
pub use synapse::SynapticWord;
pub use synmatrix::{SynapticMatrix, SynapticMatrixBuilder};
