//! # spinn-machine — the SpiNNaker machine model
//!
//! Assembles the substrates into the full machine of §4 and §5.2–5.3
//! (1 tick = 1 ns):
//!
//! * [`config`] — machine geometry, the per-handler instruction cost
//!   model standing in for the ARM968 cores, and the energy model.
//! * [`chip`] — one chip: up to 20 cores, the System Controller with its
//!   **read-sensitive monitor-arbitration register** (§5.2: all cores
//!   that pass self-test bid to serve as Monitor; exactly one wins).
//! * [`boot`] — system bring-up: self-test, monitor election,
//!   nearest-neighbour rescue of failed nodes, coordinate propagation
//!   from (0,0), point-to-point readiness, and host check-in (§5.2).
//! * [`flood`] — application loading by flood-fill over nn packets, with
//!   a redundancy parameter trading load time against fault tolerance
//!   \[15\].
//! * [`machine`] — the running machine: every application core executes
//!   the Fig. 7 event-driven model (packet-received > DMA-complete >
//!   1 ms timer, then low-power wait-for-interrupt), with spikes carried
//!   by the `spinn-noc` fabric and synaptic rows DMA-fetched from the
//!   shared SDRAM.
//! * [`energy`] — energy metering and the §2/§3.3 cost-effectiveness
//!   arithmetic (MIPS/W, MIPS/mm², purchase-vs-energy crossover).
//!
//! # Example
//!
//! ```
//! use spinn_machine::chip::SystemController;
//!
//! let mut sc = SystemController::new();
//! // Three cores race to read the register; only the first becomes
//! // Monitor (§5.2).
//! assert!(sc.read_monitor_arbiter(4));
//! assert!(!sc.read_monitor_arbiter(9));
//! assert!(!sc.read_monitor_arbiter(0));
//! assert_eq!(sc.monitor(), Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod chip;
pub mod config;
pub mod energy;
mod events;
pub mod flood;
mod handlers;
pub mod machine;
mod partition;
mod segment;
pub mod snapshot;

pub use boot::{BootConfig, BootOutcome, BootSim};
pub use chip::{ChipState, SystemController};
pub use config::{CostModel, EnergyModel, MachineConfig};
pub use energy::{CostEffectiveness, EnergyMeter};
pub use flood::{FloodConfig, FloodOutcome, FloodSim};
pub use machine::{NeuralMachine, PendingEvent, SpikeRecord};
pub use snapshot::{RestoredRun, SnapshotError};
