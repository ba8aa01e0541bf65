//! The whole-machine communications fabric: every node's router wired to
//! its six neighbours, with link failure injection, congestion, emergency
//! routing and packet dropping (§5.3, Fig. 8).
//!
//! [`Fabric`] is a *composable* component: it owns all router/link state
//! and reacts to [`NocEvent`]s, but schedules follow-on events through the
//! [`NocScheduler`] trait, so it can be embedded in a larger simulation
//! model (the full machine in `spinn-machine` wraps `NocEvent` in its own
//! event enum). [`FabricSim`] is a self-contained [`spinn_sim::Model`] for
//! running the fabric standalone in the routing experiments.

use std::collections::VecDeque;

use spinn_sim::{Context, Histogram, Model};

use crate::direction::Direction;
use crate::mesh::{NodeCoord, Torus};
use crate::packet::{EmergencyState, Packet, PacketKind};
use crate::router::{Port, RouteDecision, Router, RouterConfig, RouterStats};
use crate::table::{McTableEntry, RouteSet};

/// Scheduling interface the fabric uses to emit future events.
pub trait NocScheduler {
    /// Schedules `ev` to fire `delay_ns` from now.
    fn schedule(&mut self, delay_ns: u64, ev: NocEvent);
}

/// Adapter that lets an embedding simulation (whose event enum wraps
/// [`NocEvent`]) hand its [`Context`] to the fabric.
///
/// ```
/// use spinn_noc::fabric::{CtxScheduler, NocEvent};
/// # use spinn_sim::{Context, Model};
/// enum MyEvent { Noc(NocEvent), Other }
/// # struct M;
/// # impl Model for M {
/// #     type Event = MyEvent;
/// fn handle(&mut self, ctx: &mut Context<MyEvent>, ev: MyEvent) {
///     let mut sched = CtxScheduler::new(ctx, MyEvent::Noc);
///     // fabric.handle(now, noc_event, &mut sched);
///     # let _ = (&mut sched, ev);
/// }
/// # }
/// ```
pub struct CtxScheduler<'a, E> {
    ctx: &'a mut Context<E>,
    wrap: fn(NocEvent) -> E,
}

impl<'a, E> CtxScheduler<'a, E> {
    /// Wraps a simulation context with the embedding's `NocEvent`
    /// constructor.
    pub fn new(ctx: &'a mut Context<E>, wrap: fn(NocEvent) -> E) -> Self {
        CtxScheduler { ctx, wrap }
    }
}

impl<E> NocScheduler for CtxScheduler<'_, E> {
    fn schedule(&mut self, delay_ns: u64, ev: NocEvent) {
        self.ctx.schedule_in(delay_ns, (self.wrap)(ev));
    }
}

/// A packet in flight, with its provenance for latency accounting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// The packet itself.
    pub packet: Packet,
    /// Inter-chip hops taken so far.
    pub hops: u32,
    /// Injection timestamp, ns.
    pub injected_at: u64,
}

/// Events the fabric reacts to.
#[derive(Copy, Clone, Debug)]
pub enum NocEvent {
    /// A packet arrives at `node`'s router over the link on port `port`.
    Arrive {
        /// Dense node id.
        node: u32,
        /// Arrival port (link direction index at the receiving node).
        port: u8,
        /// The packet and its flight record.
        flight: InFlight,
    },
    /// An output link finished serializing a packet.
    LinkFree {
        /// Dense node id.
        node: u32,
        /// Output link direction index.
        dir: u8,
    },
    /// A packet blocked on an output link re-attempts. The blocked packet
    /// effectively waits *continuously* in hardware; the model
    /// approximates that with [`RETRY_SLICES`] re-attempts per wait
    /// phase.
    Retry {
        /// Dense node id.
        node: u32,
        /// The blocked output link direction index.
        dir: u8,
        /// 1 = within wait1 (ends by invoking emergency routing);
        /// 2 = within wait2 (ends by dropping the packet).
        phase: u8,
        /// Re-attempts remaining in this phase.
        left: u8,
        /// The blocked packet.
        flight: InFlight,
    },
}

/// Number of discrete re-attempts used to approximate a continuously
/// waiting blocked packet within each wait phase.
pub const RETRY_SLICES: u8 = 4;

/// Fabric-wide configuration.
#[derive(Copy, Clone, Debug)]
pub struct FabricConfig {
    /// Mesh width in chips.
    pub width: u32,
    /// Mesh height in chips.
    pub height: u32,
    /// Inter-chip link serialization cost, ns per bit (paper-era links
    /// move a 40-bit packet in ~160 ns).
    pub ns_per_bit: u64,
    /// Link propagation delay, ns.
    pub link_prop_ns: u64,
    /// Router pipeline latency, ns.
    pub router_latency_ns: u64,
    /// Output-link queue capacity, packets.
    pub out_queue_cap: usize,
    /// Per-router configuration (timeouts, table size, emergency switch).
    pub router: RouterConfig,
    /// Hop limit: packets exceeding it are dropped as aged (guards
    /// against routing loops from bad tables).
    pub max_hops: u32,
}

impl FabricConfig {
    /// A fabric over a `width x height` torus with paper-era defaults.
    pub fn new(width: u32, height: u32) -> Self {
        FabricConfig {
            width,
            height,
            ns_per_bit: 4,
            link_prop_ns: 20,
            router_latency_ns: 10,
            out_queue_cap: 4,
            router: RouterConfig::default(),
            max_hops: 128,
        }
    }

    /// The smallest possible delay between a packet leaving one chip and
    /// arriving at its neighbour: serialization of the shortest (40-bit)
    /// packet plus wire propagation plus the receiving router's pipeline.
    ///
    /// This is the *lookahead* of sharded execution (`spinn-par`): a
    /// conservative window of this length can be simulated on every
    /// shard independently, because no cross-chip — hence no cross-shard
    /// — event can be generated closer to the present than this.
    pub fn min_remote_delay_ns(&self) -> u64 {
        Packet::MIN_WIRE_BITS as u64 * self.ns_per_bit + self.link_prop_ns + self.router_latency_ns
    }
}

/// Chip-ownership map for sharded execution: which shard simulates each
/// node of the torus.
#[derive(Clone, Debug)]
pub struct Partition {
    owner: Vec<u32>,
    me: u32,
}

impl Partition {
    /// Builds a partition from a per-node owner table, for the shard
    /// `me`.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is empty or `me` owns no node.
    pub fn new(owner: Vec<u32>, me: u32) -> Self {
        assert!(!owner.is_empty(), "partition needs at least one node");
        assert!(
            owner.contains(&me),
            "shard {me} owns no node of the partition"
        );
        Partition { owner, me }
    }

    /// The shard that simulates dense node id `node`.
    pub fn owner_of(&self, node: usize) -> u32 {
        self.owner[node]
    }

    /// The shard this fabric instance belongs to.
    pub fn shard(&self) -> u32 {
        self.me
    }
}

/// A packet delivered to a node (to local cores for multicast, or to the
/// node's system software for p2p/nn).
#[derive(Copy, Clone, Debug)]
pub struct Delivery {
    /// Where it was delivered.
    pub node: NodeCoord,
    /// Local-core bitmask for multicast deliveries (0 for p2p/nn, which
    /// go to the monitor).
    pub cores: u32,
    /// The packet.
    pub packet: Packet,
    /// When the packet was injected, ns.
    pub injected_at_ns: u64,
    /// When it was delivered, ns.
    pub delivered_at_ns: u64,
    /// Inter-chip hops taken.
    pub hops: u32,
}

/// A packet the router gave up on (§5.3: after wait1 + wait2 it drops the
/// packet and informs the monitor processor).
#[derive(Copy, Clone, Debug)]
pub struct DroppedPacket {
    /// Node at which it was dropped.
    pub node: NodeCoord,
    /// The packet.
    pub packet: Packet,
    /// Drop time, ns.
    pub time_ns: u64,
}

#[derive(Clone, Debug, Default)]
struct LinkState {
    busy: bool,
    queue: VecDeque<InFlight>,
    failed: bool,
}

/// The machine-wide fabric component.
///
/// # Example
///
/// Standalone use via [`FabricSim`]:
///
/// ```
/// use spinn_noc::fabric::{FabricConfig, FabricSim};
/// use spinn_noc::mesh::NodeCoord;
/// use spinn_noc::packet::Packet;
/// use spinn_sim::Engine;
///
/// let mut sim = FabricSim::new(FabricConfig::new(4, 4));
/// // p2p packet from (0,0) to (2,2):
/// let p = Packet::p2p(FabricSim::p2p_addr(NodeCoord::new(0, 0)),
///                     FabricSim::p2p_addr(NodeCoord::new(2, 2)), 7);
/// let mut engine = Engine::new(sim);
/// engine.model_mut().queue_injection(0, NodeCoord::new(0, 0), p);
/// engine.schedule_at(spinn_sim::SimTime::ZERO, spinn_noc::fabric::FabricEvent::Pump);
/// engine.run_to_completion(Some(100_000));
/// assert_eq!(engine.model().delivered(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    torus: Torus,
    routers: Vec<Router>,
    links: Vec<LinkState>,
    deliveries: Vec<Delivery>,
    dropped: Vec<DroppedPacket>,
    partition: Option<Partition>,
    remote: Vec<(u64, u32, NocEvent)>,
}

impl Fabric {
    /// Builds the fabric: one router per node, all links up.
    pub fn new(cfg: FabricConfig) -> Self {
        let torus = Torus::new(cfg.width, cfg.height);
        let n = torus.len();
        Fabric {
            cfg,
            torus,
            routers: (0..n).map(|_| Router::new(cfg.router)).collect(),
            links: (0..n * 6).map(|_| LinkState::default()).collect(),
            deliveries: Vec::new(),
            dropped: Vec::new(),
            partition: None,
            remote: Vec::new(),
        }
    }

    /// Restricts this fabric instance to the nodes a shard owns: packets
    /// crossing onto a chip owned by another shard are diverted into the
    /// exchange buffer ([`Fabric::drain_remote`]) instead of being
    /// scheduled locally.
    pub fn set_partition(&mut self, partition: Partition) {
        assert_eq!(
            partition.owner.len(),
            self.torus.len(),
            "partition size must match the torus"
        );
        self.partition = Some(partition);
    }

    /// Removes the partition (after shards are merged back together).
    pub fn clear_partition(&mut self) {
        self.partition = None;
    }

    /// The active partition, if sharded.
    pub fn partition(&self) -> Option<&Partition> {
        self.partition.as_ref()
    }

    /// Drains the cross-shard events diverted since the last call, as
    /// `(absolute arrival time ns, destination shard, event)`. The
    /// exchange buffer keeps its capacity for the next window.
    pub fn drain_remote(&mut self) -> std::vec::Drain<'_, (u64, u32, NocEvent)> {
        self.remote.drain(..)
    }

    /// Adopts the per-node state (router + outgoing links) of every node
    /// owned by `shard` from another fabric instance — the merge step
    /// after a sharded run.
    pub fn adopt_owned(&mut self, other: &mut Fabric, shard: u32) {
        let part = other
            .partition
            .as_ref()
            .expect("adopt_owned needs a partitioned source");
        assert_eq!(part.owner.len(), self.torus.len());
        for id in 0..self.torus.len() {
            if part.owner[id] == shard {
                std::mem::swap(&mut self.routers[id], &mut other.routers[id]);
                for d in 0..6 {
                    std::mem::swap(&mut self.links[id * 6 + d], &mut other.links[id * 6 + d]);
                }
            }
        }
    }

    /// The mesh geometry.
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Mutable access to a node's router (e.g. to load routing tables).
    pub fn router_mut(&mut self, node: NodeCoord) -> &mut Router {
        let id = self.torus.id_of(node);
        &mut self.routers[id]
    }

    /// A node's router.
    pub fn router(&self, node: NodeCoord) -> &Router {
        &self.routers[self.torus.id_of(node)]
    }

    /// Sums router statistics over the whole machine.
    pub fn total_stats(&self) -> RouterStats {
        let mut t = RouterStats::default();
        for r in &self.routers {
            let s = &r.stats;
            t.mc_table_hits += s.mc_table_hits;
            t.mc_default_routed += s.mc_default_routed;
            t.mc_local_deliveries += s.mc_local_deliveries;
            t.mc_unroutable_local += s.mc_unroutable_local;
            t.p2p_forwarded += s.p2p_forwarded;
            t.p2p_delivered += s.p2p_delivered;
            t.nn_delivered += s.nn_delivered;
            t.emergency_reroutes += s.emergency_reroutes;
            t.emergency_second_legs += s.emergency_second_legs;
            t.dropped += s.dropped;
            t.aged_out += s.aged_out;
            // CAM occupancy is a high-water mark over routers, not a sum.
            t.table_peak_entries = t
                .table_peak_entries
                .max(s.table_peak_entries)
                .max(r.table.peak_len() as u64);
            t.table_capacity = t.table_capacity.max(r.table.capacity() as u64);
        }
        t
    }

    /// Fails the physical link between `node` and its neighbour in
    /// direction `d` (both directions of the cable).
    pub fn fail_link(&mut self, node: NodeCoord, d: Direction) {
        let id = self.torus.id_of(node);
        self.links[id * 6 + d.index()].failed = true;
        let peer = self.torus.neighbour(node, d);
        let pid = self.torus.id_of(peer);
        self.links[pid * 6 + d.opposite().index()].failed = true;
    }

    /// Restores a previously failed link.
    pub fn repair_link(&mut self, node: NodeCoord, d: Direction) {
        let id = self.torus.id_of(node);
        self.links[id * 6 + d.index()].failed = false;
        let peer = self.torus.neighbour(node, d);
        let pid = self.torus.id_of(peer);
        self.links[pid * 6 + d.opposite().index()].failed = false;
    }

    /// Whether the link out of `node` in direction `d` is failed.
    pub fn link_failed(&self, node: NodeCoord, d: Direction) -> bool {
        self.links[self.torus.id_of(node) * 6 + d.index()].failed
    }

    /// Every currently failed outgoing link as `(dense chip id,
    /// direction)`, in dense-id order. Both ends of a failed cable are
    /// listed (a cable fails in both directions), so the result feeds
    /// an avoid-set for route repair without further expansion.
    pub fn failed_links(&self) -> Vec<(u32, Direction)> {
        let mut out = Vec::new();
        for id in 0..self.torus.len() {
            for d in 0..6 {
                if self.links[id * 6 + d].failed {
                    out.push((id as u32, Direction::from_index(d)));
                }
            }
        }
        out
    }

    /// Drains the packets delivered since the last call.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }

    /// Drains the delivered packets into `buf` (cleared first) by
    /// swapping buffers: unlike [`Fabric::take_deliveries`] this keeps
    /// the fabric's internal capacity, so a caller polling once per
    /// event never re-allocates on either side of the swap.
    pub fn swap_deliveries(&mut self, buf: &mut Vec<Delivery>) {
        buf.clear();
        std::mem::swap(&mut self.deliveries, buf);
    }

    /// Drains the packets dropped since the last call (the monitor
    /// processor can recover and re-issue them, §5.3).
    pub fn take_dropped(&mut self) -> Vec<DroppedPacket> {
        std::mem::take(&mut self.dropped)
    }

    /// Buffer-swapping variant of [`Fabric::take_dropped`]; see
    /// [`Fabric::swap_deliveries`].
    pub fn swap_dropped(&mut self, buf: &mut Vec<DroppedPacket>) {
        buf.clear();
        std::mem::swap(&mut self.dropped, buf);
    }

    /// Injects a locally sourced multicast or p2p packet at `node`.
    ///
    /// # Panics
    ///
    /// Panics for nearest-neighbour packets: use [`Fabric::inject_nn`].
    pub fn inject(
        &mut self,
        now: u64,
        node: NodeCoord,
        packet: Packet,
        sched: &mut impl NocScheduler,
    ) {
        let flight = InFlight {
            packet,
            hops: 0,
            injected_at: now,
        };
        match packet.kind {
            PacketKind::Multicast => self.route_mc(now, node, Port::Local, flight, sched),
            PacketKind::PointToPoint => self.route_p2p(now, node, flight, sched),
            PacketKind::NearestNeighbour => {
                panic!("nearest-neighbour packets need a direction: use inject_nn")
            }
        }
    }

    /// Injects a nearest-neighbour packet out of `node` on link `d`.
    pub fn inject_nn(
        &mut self,
        now: u64,
        node: NodeCoord,
        d: Direction,
        packet: Packet,
        sched: &mut impl NocScheduler,
    ) {
        let flight = InFlight {
            packet,
            hops: 0,
            injected_at: now,
        };
        self.output(now, self.torus.id_of(node), d, flight, sched);
    }

    /// Reacts to one fabric event.
    pub fn handle(&mut self, now: u64, ev: NocEvent, sched: &mut impl NocScheduler) {
        match ev {
            NocEvent::Arrive { node, port, flight } => self.on_arrive(
                now,
                node as usize,
                Direction::from_index(port as usize),
                flight,
                sched,
            ),
            NocEvent::LinkFree { node, dir } => {
                self.on_link_free(now, node as usize, dir as usize, sched)
            }
            NocEvent::Retry {
                node,
                dir,
                phase,
                left,
                flight,
            } => self.on_retry(
                now,
                node as usize,
                Direction::from_index(dir as usize),
                phase,
                left,
                flight,
                sched,
            ),
        }
    }

    // ------------------------------------------------------------------
    // internals

    fn on_arrive(
        &mut self,
        now: u64,
        node: usize,
        port: Direction,
        mut flight: InFlight,
        sched: &mut impl NocScheduler,
    ) {
        if flight.hops > self.cfg.max_hops {
            self.routers[node].stats.aged_out += 1;
            return;
        }
        let coord = self.torus.coord_of(node);
        match flight.packet.kind {
            PacketKind::Multicast => match flight.packet.emergency {
                EmergencyState::FirstLeg => {
                    // Close the triangle: forward out (arrival port + 1)
                    // without consulting the table (Fig. 8).
                    let out = Router::second_leg_output(port);
                    flight.packet.emergency = EmergencyState::SecondLeg;
                    self.routers[node].stats.emergency_second_legs += 1;
                    self.output(now, node, out, flight, sched);
                }
                EmergencyState::SecondLeg => {
                    flight.packet.emergency = EmergencyState::Normal;
                    let eff = Router::effective_port_after_detour(port);
                    self.route_mc(now, coord, Port::Link(eff), flight, sched);
                }
                EmergencyState::Normal => {
                    self.route_mc(now, coord, Port::Link(port), flight, sched)
                }
            },
            PacketKind::PointToPoint => self.route_p2p(now, coord, flight, sched),
            PacketKind::NearestNeighbour => {
                self.routers[node].stats.nn_delivered += 1;
                self.deliveries.push(Delivery {
                    node: coord,
                    cores: 0,
                    packet: flight.packet,
                    injected_at_ns: flight.injected_at,
                    delivered_at_ns: now,
                    hops: flight.hops,
                });
            }
        }
    }

    fn route_mc(
        &mut self,
        now: u64,
        node: NodeCoord,
        port: Port,
        flight: InFlight,
        sched: &mut impl NocScheduler,
    ) {
        let id = self.torus.id_of(node);
        match self.routers[id].decide_mc(flight.packet.key, port) {
            RouteDecision::Multicast(route) => {
                if route.core_mask() != 0 {
                    self.routers[id].stats.mc_local_deliveries += 1;
                    self.deliveries.push(Delivery {
                        node,
                        cores: route.core_mask(),
                        packet: flight.packet,
                        injected_at_ns: flight.injected_at,
                        delivered_at_ns: now,
                        hops: flight.hops,
                    });
                }
                for link in route.links() {
                    self.output(now, id, link, flight, sched);
                }
            }
            RouteDecision::UnroutableLocal => {
                self.dropped.push(DroppedPacket {
                    node,
                    packet: flight.packet,
                    time_ns: now,
                });
            }
        }
    }

    fn route_p2p(
        &mut self,
        now: u64,
        node: NodeCoord,
        flight: InFlight,
        sched: &mut impl NocScheduler,
    ) {
        let dest = p2p_coord(flight.packet.p2p_dst());
        let id = self.torus.id_of(node);
        if node == dest {
            self.routers[id].stats.p2p_delivered += 1;
            self.deliveries.push(Delivery {
                node,
                cores: 0,
                packet: flight.packet,
                injected_at_ns: flight.injected_at,
                delivered_at_ns: now,
                hops: flight.hops,
            });
            return;
        }
        self.routers[id].stats.p2p_forwarded += 1;
        let next = self
            .torus
            .p2p_next_hop(node, dest)
            .expect("non-equal nodes have a next hop");
        self.output(now, id, next, flight, sched);
    }

    /// Attempts to put a packet on an output link; on blockage, starts
    /// the wait1 timer.
    fn output(
        &mut self,
        now: u64,
        node: usize,
        dir: Direction,
        flight: InFlight,
        sched: &mut impl NocScheduler,
    ) {
        if self.try_enqueue(now, node, dir, flight, sched) {
            return;
        }
        let slice = (self.routers[node].config().wait1_ns / RETRY_SLICES as u64).max(1);
        sched.schedule(
            slice,
            NocEvent::Retry {
                node: node as u32,
                dir: dir.index() as u8,
                phase: 1,
                left: RETRY_SLICES - 1,
                flight,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_retry(
        &mut self,
        now: u64,
        node: usize,
        dir: Direction,
        phase: u8,
        left: u8,
        flight: InFlight,
        sched: &mut impl NocScheduler,
    ) {
        if self.try_enqueue(now, node, dir, flight, sched) {
            return;
        }
        let cfg = *self.routers[node].config();
        let can_emergency = cfg.emergency_enabled
            && flight.packet.kind == PacketKind::Multicast
            && flight.packet.emergency == EmergencyState::Normal;
        // During wait2 the router keeps attempting the emergency detour as
        // well ("then it tries emergency routing for a programmable
        // time", §5.3).
        if can_emergency && (phase == 2 || left == 0) {
            let mut redirected = flight;
            redirected.packet.emergency = EmergencyState::FirstLeg;
            let leg = dir.rotate_ccw();
            if self.try_enqueue(now, node, leg, redirected, sched) {
                self.routers[node].stats.emergency_reroutes += 1;
                return;
            }
        }
        if left > 0 {
            let wait = if phase == 1 {
                cfg.wait1_ns
            } else {
                cfg.wait2_ns
            };
            let slice = (wait / RETRY_SLICES as u64).max(1);
            sched.schedule(
                slice,
                NocEvent::Retry {
                    node: node as u32,
                    dir: dir.index() as u8,
                    phase,
                    left: left - 1,
                    flight,
                },
            );
        } else if phase == 1 {
            let slice = (cfg.wait2_ns / RETRY_SLICES as u64).max(1);
            sched.schedule(
                slice,
                NocEvent::Retry {
                    node: node as u32,
                    dir: dir.index() as u8,
                    phase: 2,
                    left: RETRY_SLICES - 1,
                    flight,
                },
            );
        } else {
            // §5.3: "then it gives up and drops the packet. The local
            // Monitor Processor is informed of the failure."
            self.routers[node].stats.dropped += 1;
            self.dropped.push(DroppedPacket {
                node: self.torus.coord_of(node),
                packet: flight.packet,
                time_ns: now,
            });
        }
    }

    /// True if the packet was accepted (link idle or queue has room).
    fn try_enqueue(
        &mut self,
        now: u64,
        node: usize,
        dir: Direction,
        flight: InFlight,
        sched: &mut impl NocScheduler,
    ) -> bool {
        let cap = self.cfg.out_queue_cap;
        let ls = &mut self.links[node * 6 + dir.index()];
        if ls.failed {
            return false;
        }
        if !ls.busy {
            ls.busy = true;
            self.start_tx(now, node, dir, flight, sched);
            true
        } else if ls.queue.len() < cap {
            ls.queue.push_back(flight);
            true
        } else {
            false
        }
    }

    fn start_tx(
        &mut self,
        now: u64,
        node: usize,
        dir: Direction,
        mut flight: InFlight,
        sched: &mut impl NocScheduler,
    ) {
        let ser = flight.packet.wire_bits() as u64 * self.cfg.ns_per_bit;
        sched.schedule(
            ser,
            NocEvent::LinkFree {
                node: node as u32,
                dir: dir.index() as u8,
            },
        );
        let peer = self.torus.neighbour(self.torus.coord_of(node), dir);
        let peer_id = self.torus.id_of(peer);
        flight.hops += 1;
        let delay = ser + self.cfg.link_prop_ns + self.cfg.router_latency_ns;
        debug_assert!(delay >= self.cfg.min_remote_delay_ns());
        let arrive = NocEvent::Arrive {
            node: peer_id as u32,
            port: dir.opposite().index() as u8,
            flight,
        };
        match &self.partition {
            // Cross-shard hop: divert into the exchange buffer with its
            // absolute arrival time; the parallel driver delivers it to
            // the owning shard at the next window barrier.
            Some(p) if p.owner_of(peer_id) != p.shard() => {
                self.remote.push((now + delay, p.owner_of(peer_id), arrive));
            }
            _ => sched.schedule(delay, arrive),
        }
    }

    fn on_link_free(&mut self, now: u64, node: usize, dir: usize, sched: &mut impl NocScheduler) {
        let ls = &mut self.links[node * 6 + dir];
        if let Some(next) = ls.queue.pop_front() {
            self.start_tx(now, node, Direction::from_index(dir), next, sched);
        } else {
            ls.busy = false;
        }
    }

    // ------------------------------------------------------------------
    // checkpoint/restore

    /// Serializes the fabric's mutable state — routing tables, router
    /// statistics, link failure/busy/queue state — into `enc`.
    ///
    /// Must be called at a drained instant: delivered/dropped packets
    /// polled, no partition active, no cross-shard events buffered (the
    /// machine's segment boundaries guarantee all three).
    pub fn encode_state(&self, enc: &mut spinn_sim::wire::Enc) {
        debug_assert!(
            self.deliveries.is_empty(),
            "undelivered packets at checkpoint"
        );
        debug_assert!(self.dropped.is_empty(), "unpolled drops at checkpoint");
        debug_assert!(
            self.remote.is_empty(),
            "buffered remote events at checkpoint"
        );
        enc.seq(self.routers.len());
        for r in &self.routers {
            enc.seq(r.table.len());
            for e in r.table.iter() {
                enc.u32(e.key).u32(e.mask).u32(e.route.bits());
            }
            enc.u64(r.table.peak_len() as u64);
            let s = &r.stats;
            for v in [
                s.mc_table_hits,
                s.mc_default_routed,
                s.mc_local_deliveries,
                s.mc_unroutable_local,
                s.p2p_forwarded,
                s.p2p_delivered,
                s.nn_delivered,
                s.emergency_reroutes,
                s.emergency_second_legs,
                s.dropped,
                s.aged_out,
                s.table_peak_entries,
                s.table_capacity,
            ] {
                enc.u64(v);
            }
        }
        for ls in &self.links {
            enc.bool(ls.failed).bool(ls.busy);
            enc.seq(ls.queue.len());
            for f in &ls.queue {
                encode_flight(enc, f);
            }
        }
    }

    /// Restores [`Fabric::encode_state`] onto this fabric, overwriting
    /// every router and link. The fabric must have the same geometry
    /// and configuration as the one that was encoded.
    ///
    /// # Errors
    ///
    /// Returns a [`spinn_sim::wire::WireError`] on truncated or corrupt
    /// input, or if the node count does not match this fabric.
    pub fn apply_state(
        &mut self,
        dec: &mut spinn_sim::wire::Dec<'_>,
    ) -> Result<(), spinn_sim::wire::WireError> {
        use spinn_sim::wire::WireError;
        let n = dec.seq(1)?;
        if n != self.routers.len() {
            return Err(WireError::Corrupt("fabric node count"));
        }
        for r in self.routers.iter_mut() {
            let mut table = crate::table::McTable::new(r.table.capacity());
            let entries = dec.seq(12)?;
            for _ in 0..entries {
                let key = dec.u32()?;
                let mask = dec.u32()?;
                let route = RouteSet::from_bits(dec.u32()?);
                table
                    .insert(McTableEntry { key, mask, route })
                    .map_err(|_| WireError::Corrupt("routing table overflow"))?;
            }
            table.restore_peak(dec.u64()? as usize);
            r.table = table;
            let s = &mut r.stats;
            for v in [
                &mut s.mc_table_hits,
                &mut s.mc_default_routed,
                &mut s.mc_local_deliveries,
                &mut s.mc_unroutable_local,
                &mut s.p2p_forwarded,
                &mut s.p2p_delivered,
                &mut s.nn_delivered,
                &mut s.emergency_reroutes,
                &mut s.emergency_second_legs,
                &mut s.dropped,
                &mut s.aged_out,
                &mut s.table_peak_entries,
                &mut s.table_capacity,
            ] {
                *v = dec.u64()?;
            }
        }
        for ls in self.links.iter_mut() {
            ls.failed = dec.bool()?;
            ls.busy = dec.bool()?;
            ls.queue.clear();
            let qn = dec.seq(28)?;
            for _ in 0..qn {
                ls.queue.push_back(decode_flight(dec)?);
            }
        }
        self.deliveries.clear();
        self.dropped.clear();
        self.remote.clear();
        Ok(())
    }
}

/// Serializes an in-flight packet (wire word + flight record).
pub fn encode_flight(enc: &mut spinn_sim::wire::Enc, f: &InFlight) {
    enc.u128(f.packet.encode());
    enc.u32(f.hops).u64(f.injected_at);
}

/// Decodes an [`encode_flight`] record.
pub fn decode_flight(
    dec: &mut spinn_sim::wire::Dec<'_>,
) -> Result<InFlight, spinn_sim::wire::WireError> {
    let packet = Packet::decode(dec.u128()?)
        .ok_or(spinn_sim::wire::WireError::Corrupt("packet wire word"))?;
    Ok(InFlight {
        packet,
        hops: dec.u32()?,
        injected_at: dec.u64()?,
    })
}

/// The 16-bit p2p address of a node coordinate (`x << 8 | y`).
pub fn p2p_addr(c: NodeCoord) -> u16 {
    debug_assert!(c.x < 256 && c.y < 256);
    (c.x as u16) << 8 | c.y as u16
}

/// The node coordinate of a 16-bit p2p address.
pub fn p2p_coord(addr: u16) -> NodeCoord {
    NodeCoord::new((addr >> 8) as u32, (addr & 0xFF) as u32)
}

// ----------------------------------------------------------------------
// Standalone simulation wrapper

/// Events of the standalone fabric simulation.
#[derive(Copy, Clone, Debug)]
pub enum FabricEvent {
    /// An internal fabric event.
    Noc(NocEvent),
    /// Drain the injection queue entries that are due.
    Pump,
}

impl NocScheduler for Context<FabricEvent> {
    fn schedule(&mut self, delay_ns: u64, ev: NocEvent) {
        self.schedule_in(delay_ns, FabricEvent::Noc(ev));
    }
}

/// A self-contained fabric simulation: drives [`Fabric`] on the event
/// kernel, with a queue of timed packet injections and latency recording.
/// Used by the routing experiments (E3, E4, E8) and the integration
/// tests.
#[derive(Debug)]
pub struct FabricSim {
    /// The fabric under simulation.
    pub fabric: Fabric,
    injections: VecDeque<(u64, NodeCoord, Packet)>,
    latency: Histogram,
    delivered: u64,
    deliveries_log: Option<Vec<Delivery>>,
}

impl FabricSim {
    /// Creates a simulation over a fresh fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        FabricSim {
            fabric: Fabric::new(cfg),
            injections: VecDeque::new(),
            latency: Histogram::new(4000, 20), // 20 ns buckets to 80 us
            delivered: 0,
            deliveries_log: None,
        }
    }

    /// Keeps every [`Delivery`] for inspection (tests; memory-heavy).
    pub fn log_deliveries(&mut self) {
        self.deliveries_log = Some(Vec::new());
    }

    /// The logged deliveries (empty unless [`Self::log_deliveries`] was
    /// called).
    pub fn deliveries(&self) -> &[Delivery] {
        self.deliveries_log.as_deref().unwrap_or(&[])
    }

    /// Queues a packet for injection at an absolute time (must be called
    /// before the simulation reaches that time; injections must be queued
    /// in non-decreasing time order).
    pub fn queue_injection(&mut self, at_ns: u64, node: NodeCoord, packet: Packet) {
        debug_assert!(
            self.injections.back().is_none_or(|(t, _, _)| *t <= at_ns),
            "injections must be queued in time order"
        );
        self.injections.push_back((at_ns, node, packet));
    }

    /// Number of packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// End-to-end latency histogram (ns).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The p2p address of a node (convenience re-export).
    pub fn p2p_addr(c: NodeCoord) -> u16 {
        p2p_addr(c)
    }

    fn drain_deliveries(&mut self) {
        for d in self.fabric.take_deliveries() {
            self.delivered += 1;
            self.latency.record(d.delivered_at_ns - d.injected_at_ns);
            if let Some(log) = self.deliveries_log.as_mut() {
                log.push(d);
            }
        }
    }
}

impl Model for FabricSim {
    type Event = FabricEvent;

    fn handle(&mut self, ctx: &mut Context<FabricEvent>, ev: FabricEvent) {
        let now = ctx.now().ticks();
        match ev {
            FabricEvent::Noc(ev) => self.fabric.handle(now, ev, ctx),
            FabricEvent::Pump => {
                while let Some(&(t, node, packet)) = self.injections.front() {
                    if t > now {
                        ctx.schedule_at(spinn_sim::SimTime::new(t), FabricEvent::Pump);
                        break;
                    }
                    self.injections.pop_front();
                    self.fabric.inject(now, node, packet, ctx);
                }
            }
        }
        self.drain_deliveries();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{McTableEntry, RouteSet};
    use spinn_sim::{Engine, SimTime};

    fn run_sim(sim: FabricSim, horizon_ns: u64) -> FabricSim {
        let mut engine = Engine::new(sim);
        engine.schedule_at(SimTime::ZERO, FabricEvent::Pump);
        engine.run_until(SimTime::new(horizon_ns));
        engine.into_model()
    }

    /// Loads a straight-line east route for `key` from (0,0) to (n,0):
    /// entry at source (out E) and at destination (to core 1) only;
    /// intermediate nodes rely on default routing.
    fn straight_east_tables(sim: &mut FabricSim, key: u32, n: u32) {
        sim.fabric
            .router_mut(NodeCoord::new(0, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_link(Direction::East),
            })
            .unwrap();
        sim.fabric
            .router_mut(NodeCoord::new(n, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
    }

    #[test]
    fn p2p_delivery_and_latency_scale_with_hops() {
        let mut sim = FabricSim::new(FabricConfig::new(8, 8));
        sim.log_deliveries();
        let src = NodeCoord::new(0, 0);
        for (i, dst) in [(1u32, 0u32), (4, 0), (4, 4)].iter().enumerate() {
            let dst = NodeCoord::new(dst.0, dst.1);
            sim.queue_injection(
                i as u64 * 10_000,
                src,
                Packet::p2p(p2p_addr(src), p2p_addr(dst), 0),
            );
        }
        let sim = run_sim(sim, 1_000_000);
        assert_eq!(sim.delivered(), 3);
        let d: Vec<_> = sim.deliveries().to_vec();
        assert_eq!(d[0].hops, 1);
        assert_eq!(d[1].hops, 4);
        assert_eq!(d[2].hops, 4); // diagonal: 4 NE hops
        let l1 = d[0].delivered_at_ns - d[0].injected_at_ns;
        let l4 = d[1].delivered_at_ns - d[1].injected_at_ns;
        assert!(l4 > 3 * l1, "latency should grow with hops: {l1} vs {l4}");
    }

    #[test]
    fn mc_default_routing_runs_straight() {
        let mut sim = FabricSim::new(FabricConfig::new(8, 8));
        sim.log_deliveries();
        straight_east_tables(&mut sim, 0xBEEF, 5);
        sim.queue_injection(0, NodeCoord::new(0, 0), Packet::multicast(0xBEEF));
        let sim = run_sim(sim, 1_000_000);
        assert_eq!(sim.delivered(), 1);
        let d = sim.deliveries()[0];
        assert_eq!(d.node, NodeCoord::new(5, 0));
        assert_eq!(d.cores, 0b10); // core 1
        assert_eq!(d.hops, 5);
        let stats = sim.fabric.total_stats();
        assert_eq!(stats.mc_default_routed, 4); // nodes 1..=4
        assert_eq!(stats.mc_table_hits, 2); // source + destination
    }

    #[test]
    fn mc_branching_multicast_tree() {
        // One entry at (1,0) branches the packet E and N, with local
        // delivery at three nodes.
        let mut sim = FabricSim::new(FabricConfig::new(6, 6));
        sim.log_deliveries();
        let key = 7;
        sim.fabric
            .router_mut(NodeCoord::new(0, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_link(Direction::East),
            })
            .unwrap();
        sim.fabric
            .router_mut(NodeCoord::new(1, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY
                    .with_link(Direction::East)
                    .with_link(Direction::North)
                    .with_core(2),
            })
            .unwrap();
        sim.fabric
            .router_mut(NodeCoord::new(2, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(0),
            })
            .unwrap();
        sim.fabric
            .router_mut(NodeCoord::new(1, 1))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        sim.queue_injection(0, NodeCoord::new(0, 0), Packet::multicast(key));
        let sim = run_sim(sim, 1_000_000);
        assert_eq!(sim.delivered(), 3);
        let nodes: Vec<NodeCoord> = sim.deliveries().iter().map(|d| d.node).collect();
        assert!(nodes.contains(&NodeCoord::new(1, 0)));
        assert!(nodes.contains(&NodeCoord::new(2, 0)));
        assert!(nodes.contains(&NodeCoord::new(1, 1)));
    }

    #[test]
    fn emergency_routing_rescues_failed_link() {
        let mut sim = FabricSim::new(FabricConfig::new(8, 8));
        sim.log_deliveries();
        straight_east_tables(&mut sim, 0xAA, 5);
        // Fail the link (2,0) -> E, in the middle of the default-routed
        // segment.
        sim.fabric.fail_link(NodeCoord::new(2, 0), Direction::East);
        sim.queue_injection(0, NodeCoord::new(0, 0), Packet::multicast(0xAA));
        let sim = run_sim(sim, 10_000_000);
        assert_eq!(sim.delivered(), 1, "packet must arrive via the detour");
        let d = sim.deliveries()[0];
        assert_eq!(d.node, NodeCoord::new(5, 0));
        assert_eq!(d.hops, 6, "detour adds exactly one hop");
        let stats = sim.fabric.total_stats();
        assert_eq!(stats.emergency_reroutes, 1);
        assert_eq!(stats.emergency_second_legs, 1);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn without_emergency_routing_packet_is_dropped() {
        let mut cfg = FabricConfig::new(8, 8);
        cfg.router.emergency_enabled = false;
        let mut sim = FabricSim::new(cfg);
        straight_east_tables(&mut sim, 0xAB, 5);
        sim.fabric.fail_link(NodeCoord::new(2, 0), Direction::East);
        sim.queue_injection(0, NodeCoord::new(0, 0), Packet::multicast(0xAB));
        let mut engine = Engine::new(sim);
        engine.schedule_at(SimTime::ZERO, FabricEvent::Pump);
        engine.run_until(SimTime::new(10_000_000));
        let sim = engine.into_model();
        assert_eq!(sim.delivered(), 0);
        let stats = sim.fabric.total_stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.emergency_reroutes, 0);
    }

    #[test]
    fn emergency_detour_of_east_goes_via_northeast_then_south() {
        // Structural check of the Fig. 8 geometry on the real fabric:
        // count traffic through the detour nodes.
        let mut sim = FabricSim::new(FabricConfig::new(8, 8));
        straight_east_tables(&mut sim, 1, 4);
        sim.fabric.fail_link(NodeCoord::new(1, 0), Direction::East);
        sim.queue_injection(0, NodeCoord::new(0, 0), Packet::multicast(1));
        let sim = run_sim(sim, 10_000_000);
        // The detour node is (2,1): it must have seen one emergency
        // second-leg forward.
        assert_eq!(
            sim.fabric
                .router(NodeCoord::new(2, 1))
                .stats
                .emergency_second_legs,
            1
        );
        assert_eq!(sim.delivered(), 1);
    }

    #[test]
    fn congestion_drops_without_emergency_and_improves_with() {
        // Hammer one link with a burst far beyond its queue capacity.
        let run_burst = |emergency: bool| {
            let mut cfg = FabricConfig::new(8, 8);
            cfg.router.emergency_enabled = emergency;
            cfg.out_queue_cap = 2;
            let mut sim = FabricSim::new(cfg);
            straight_east_tables(&mut sim, 5, 6);
            for i in 0..20 {
                // All injected back-to-back at t=i (much faster than the
                // 160 ns serialization).
                sim.queue_injection(i, NodeCoord::new(0, 0), Packet::multicast(5));
            }
            let sim = run_sim(sim, 100_000_000);
            let stats = sim.fabric.total_stats();
            (sim.delivered(), stats.dropped, stats.emergency_reroutes)
        };
        let (base_delivered, base_dropped, base_reroutes) = run_burst(false);
        assert!(
            base_dropped > 0,
            "expected drops under congestion without emergency routing"
        );
        assert_eq!(base_delivered + base_dropped, 20);
        assert_eq!(base_reroutes, 0);
        let (em_delivered, em_dropped, em_reroutes) = run_burst(true);
        assert!(
            em_delivered > base_delivered,
            "emergency routing should improve delivery: {em_delivered} vs {base_delivered}"
        );
        assert!(em_dropped < base_dropped);
        assert!(em_reroutes > 0);
    }

    #[test]
    fn moderate_burst_fully_rescued_by_emergency_routing() {
        // A burst sized within the wait1+wait2 tolerance: everything
        // arrives once the detour carries the overflow.
        let mut cfg = FabricConfig::new(8, 8);
        cfg.out_queue_cap = 2;
        let mut sim = FabricSim::new(cfg);
        straight_east_tables(&mut sim, 5, 6);
        for i in 0..8 {
            sim.queue_injection(i, NodeCoord::new(0, 0), Packet::multicast(5));
        }
        let sim = run_sim(sim, 100_000_000);
        assert_eq!(sim.delivered(), 8, "burst within tolerance must all arrive");
        assert_eq!(sim.fabric.total_stats().dropped, 0);
    }

    #[test]
    fn nn_packet_reaches_neighbour_only() {
        let mut sim = FabricSim::new(FabricConfig::new(4, 4));
        sim.log_deliveries();
        let mut engine = Engine::new(sim);
        let m = engine.model_mut();
        // inject_nn needs a scheduler; pump through the engine by
        // scheduling the arrival manually via the fabric API.
        struct Collect(Vec<(u64, NocEvent)>);
        impl NocScheduler for Collect {
            fn schedule(&mut self, d: u64, e: NocEvent) {
                self.0.push((d, e));
            }
        }
        let mut c = Collect(Vec::new());
        m.fabric.inject_nn(
            0,
            NodeCoord::new(1, 1),
            Direction::North,
            Packet::nn(9, 3),
            &mut c,
        );
        for (d, e) in c.0 {
            engine.schedule_at(SimTime::new(d), FabricEvent::Noc(e));
        }
        engine.run_to_completion(Some(10_000));
        let sim = engine.into_model();
        assert_eq!(sim.delivered(), 1);
        assert_eq!(sim.deliveries()[0].node, NodeCoord::new(1, 2));
        assert_eq!(sim.deliveries()[0].packet.key, 9);
    }

    #[test]
    fn routing_loop_ages_out() {
        // Two nodes pointing at each other: the packet ping-pongs until
        // the hop limit kills it.
        let mut cfg = FabricConfig::new(4, 4);
        cfg.max_hops = 16;
        let mut sim = FabricSim::new(cfg);
        for (node, dir) in [
            (NodeCoord::new(0, 0), Direction::East),
            (NodeCoord::new(1, 0), Direction::West),
        ] {
            sim.fabric
                .router_mut(node)
                .table
                .insert(McTableEntry {
                    key: 3,
                    mask: u32::MAX,
                    route: RouteSet::EMPTY.with_link(dir),
                })
                .unwrap();
        }
        sim.queue_injection(0, NodeCoord::new(0, 0), Packet::multicast(3));
        let sim = run_sim(sim, 100_000_000);
        assert_eq!(sim.delivered(), 0);
        assert_eq!(sim.fabric.total_stats().aged_out, 1);
    }

    #[test]
    fn p2p_addr_roundtrip() {
        for c in [
            NodeCoord::new(0, 0),
            NodeCoord::new(255, 255),
            NodeCoord::new(12, 7),
        ] {
            assert_eq!(p2p_coord(p2p_addr(c)), c);
        }
    }

    #[test]
    fn deterministic_two_runs_identical() {
        let build = || {
            let mut sim = FabricSim::new(FabricConfig::new(6, 6));
            straight_east_tables(&mut sim, 2, 4);
            for i in 0..10 {
                sim.queue_injection(i * 50, NodeCoord::new(0, 0), Packet::multicast(2));
            }
            let sim = run_sim(sim, 1_000_000);
            (sim.delivered(), sim.latency().mean() as u64)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn restored_tables_route_by_their_own_entries() {
        let node = NodeCoord::new(1, 1);
        let entry = |key, core| McTableEntry {
            key,
            mask: 0xFFFF_FF00,
            route: RouteSet::EMPTY.with_core(core),
        };
        let mut saved = Fabric::new(FabricConfig::new(3, 3));
        for (key, core) in [(0x100, 1), (0x200, 2)] {
            saved
                .router_mut(node)
                .table
                .insert(entry(key, core))
                .unwrap();
        }
        let mut enc = spinn_sim::wire::Enc::new();
        saved.encode_state(&mut enc);
        let bytes = enc.into_bytes();

        // The restore target holds other entries: after the restore its
        // router must route by the snapshot's table alone.
        let mut restored = Fabric::new(FabricConfig::new(3, 3));
        restored
            .router_mut(node)
            .table
            .insert(entry(0x300, 3))
            .unwrap();
        restored
            .apply_state(&mut spinn_sim::wire::Dec::new(&bytes))
            .unwrap();
        let r = restored.router_mut(node);
        assert!(r.table.iter().eq(saved.router(node).table.iter()));
        for (key, want) in [(0x142, Some(1)), (0x242, Some(2)), (0x342, None)] {
            let got = match r.decide_mc(key, Port::Local) {
                RouteDecision::Multicast(route) => route.cores().next(),
                RouteDecision::UnroutableLocal => None,
            };
            assert_eq!(got, want, "key {key:#x}");
        }
    }
}
