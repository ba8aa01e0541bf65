//! # spinn-noc — SpiNNaker's packet-switched communications fabric
//!
//! Packet-level models of the structures §4 and §5.3 of the paper build
//! the machine around (1 tick = 1 ns):
//!
//! * [`packet`] — the 40-bit packet: 8 bits of management data plus a
//!   32-bit content word (the AER source-neuron identifier for multicast
//!   packets), with an optional 32-bit payload; three packet types
//!   (multicast / point-to-point / nearest-neighbour) and the 2-bit
//!   emergency-routing state.
//! * [`direction`] — the six inter-chip link directions of the triangular
//!   mesh (E, NE, N, W, SW, S) and their algebra.
//! * [`mesh`] — the 2-D toroidal triangular-facet mesh (Fig. 2): hex
//!   distance, neighbours and the algorithmic point-to-point next hop.
//! * [`table`] — the ternary-CAM multicast routing table: `(key, mask) →
//!   route set` entries with first-match priority, plus default routing
//!   (a packet with no matching entry continues straight through).
//! * [`compiled`] — the lookup index every table keeps for the hot path:
//!   entries bucketed by ternary mask into hash maps, one probe per
//!   distinct mask instead of one compare per entry, with identical
//!   first-match semantics.
//! * [`router`] — one node's multicast packet router: output-link queues,
//!   blocked-link detection with programmable `wait1`/`wait2`,
//!   **emergency routing** around the two other sides of a mesh triangle
//!   (Fig. 8), and last-resort packet dropping with monitor notification
//!   (§5.3: "no Router will get into a state where it persistently
//!   refuses to accept incoming packets").
//! * [`fabric`] — the whole-machine fabric: routers wired by inter-chip
//!   links with failure injection, plus a standalone simulation model and
//!   traffic generators for the routing experiments (E3, E4, E8).
//!
//! # Example
//!
//! ```
//! use spinn_noc::mesh::{Torus, NodeCoord};
//! use spinn_noc::direction::Direction;
//!
//! let mesh = Torus::new(8, 8);
//! let a = NodeCoord::new(0, 0);
//! assert_eq!(mesh.neighbour(a, Direction::NorthEast), NodeCoord::new(1, 1));
//! // Toroidal wrap:
//! assert_eq!(mesh.neighbour(a, Direction::West), NodeCoord::new(7, 0));
//! assert_eq!(mesh.hex_distance(a, NodeCoord::new(2, 2)), 2); // one diagonal per step
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod direction;
pub mod fabric;
pub mod mesh;
pub mod packet;
pub mod router;
pub mod table;

pub use compiled::CompiledTable;
pub use direction::Direction;
pub use fabric::{Delivery, Fabric, FabricConfig, NocEvent, NocScheduler, Partition};
pub use mesh::{NodeCoord, Torus};
pub use packet::{EmergencyState, Packet, PacketKind};
pub use router::{Router, RouterConfig, RouterStats};
pub use table::{McTable, McTableEntry, RouteSet};
