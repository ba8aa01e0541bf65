//! One node's packet router: tables, programmable timeouts and statistics.
//!
//! The dynamic behaviour (queues, blocking, emergency redirection, drops)
//! is driven by [`crate::fabric::Fabric`]; this module holds the per-node
//! state and the routing *decisions*, which makes them unit-testable in
//! isolation.

use crate::direction::Direction;
use crate::table::{McTable, RouteSet};

/// Per-router configuration (§5.3: the waits are programmable registers).
#[derive(Copy, Clone, Debug)]
pub struct RouterConfig {
    /// Multicast CAM capacity (1024 on the SpiNNaker chip).
    pub table_capacity: usize,
    /// Time a packet may wait on a blocked output before emergency
    /// routing is invoked, ns.
    pub wait1_ns: u64,
    /// Additional time before the packet is dropped, ns.
    pub wait2_ns: u64,
    /// Whether the emergency-routing mechanism is enabled (ablation
    /// switch for experiment E3).
    pub emergency_enabled: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            table_capacity: 1024,
            wait1_ns: 400,
            wait2_ns: 800,
            emergency_enabled: true,
        }
    }
}

/// Counters a router exposes to its monitor processor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Multicast packets routed via a table hit.
    pub mc_table_hits: u64,
    /// Multicast packets default-routed (no matching entry: straight
    /// through).
    pub mc_default_routed: u64,
    /// Multicast packets delivered to local cores.
    pub mc_local_deliveries: u64,
    /// Locally injected multicast packets with no table entry (mapping
    /// bug): dropped.
    pub mc_unroutable_local: u64,
    /// Point-to-point packets forwarded.
    pub p2p_forwarded: u64,
    /// Point-to-point packets delivered here.
    pub p2p_delivered: u64,
    /// Nearest-neighbour packets delivered here.
    pub nn_delivered: u64,
    /// Emergency first-leg redirections performed (§5.3).
    pub emergency_reroutes: u64,
    /// Emergency second-leg forwards performed.
    pub emergency_second_legs: u64,
    /// Packets dropped after wait1 + wait2 (monitor is notified).
    pub dropped: u64,
    /// Packets dropped because they exceeded the hop limit.
    pub aged_out: u64,
    /// Peak multicast CAM entries installed (occupancy high-water mark;
    /// aggregated as a max, not a sum, over routers).
    pub table_peak_entries: u64,
    /// Multicast CAM capacity (aggregated as a max over routers).
    pub table_capacity: u64,
}

impl RouterStats {
    /// Peak CAM occupancy as a fraction of capacity (0.0 when the
    /// capacity is unknown/zero).
    pub fn occupancy_ratio(&self) -> f64 {
        if self.table_capacity == 0 {
            0.0
        } else {
            self.table_peak_entries as f64 / self.table_capacity as f64
        }
    }
}

/// The routing decision for one multicast packet at one router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteDecision {
    /// Send out these links and deliver to these local cores.
    Multicast(RouteSet),
    /// Drop: locally injected multicast with no table entry.
    UnroutableLocal,
}

/// Where a packet entered the router.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Port {
    /// Injected by a local processor.
    Local,
    /// Arrived over an inter-chip link (the link's direction *at this
    /// node*, i.e. the port id).
    Link(Direction),
}

/// One node's router: the multicast CAM plus statistics.
///
/// Multicast lookups run against the table's key-indexed lookup
/// structure ([`crate::compiled::CompiledTable`], identical first-match
/// semantics) rather than the linear CAM scan. The table keeps it
/// current on every edit, so plan loading, fault-injection rewrites and
/// migration take effect on the next packet.
#[derive(Clone, Debug)]
pub struct Router {
    /// The multicast routing table.
    pub table: McTable,
    /// Router statistics (read by the monitor processor).
    pub stats: RouterStats,
    cfg: RouterConfig,
}

impl Router {
    /// Creates a router with an empty table.
    pub fn new(cfg: RouterConfig) -> Self {
        Router {
            table: McTable::new(cfg.table_capacity),
            stats: RouterStats::default(),
            cfg,
        }
    }

    /// The router's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Decides where a multicast packet goes. `input` is the arrival
    /// port; default routing continues straight through (out the port
    /// opposite the arrival port).
    pub fn decide_mc(&mut self, key: u32, input: Port) -> RouteDecision {
        // The monitor sees the table's occupancy as of the last routing
        // decision, so an edit shows in the stats (and in snapshots) only
        // once a packet has been routed. Both fields only ratchet upwards:
        // a wholesale table replacement (fault injection, migration)
        // cannot regress what the monitor has already observed.
        let s = &mut self.stats;
        s.table_peak_entries = s.table_peak_entries.max(self.table.peak_len() as u64);
        s.table_capacity = s.table_capacity.max(self.table.capacity() as u64);
        match self.table.compiled().lookup(key) {
            Some(route) => {
                self.stats.mc_table_hits += 1;
                RouteDecision::Multicast(route)
            }
            None => match input {
                Port::Link(d) => {
                    self.stats.mc_default_routed += 1;
                    RouteDecision::Multicast(RouteSet::EMPTY.with_link(d.opposite()))
                }
                Port::Local => {
                    self.stats.mc_unroutable_local += 1;
                    RouteDecision::UnroutableLocal
                }
            },
        }
    }

    /// The emergency second-leg output for a first-leg packet that
    /// arrived on `arrival_port`: one step counter-clockwise closes the
    /// mesh triangle (Fig. 8).
    pub fn second_leg_output(arrival_port: Direction) -> Direction {
        arrival_port.rotate_ccw()
    }

    /// The *effective* arrival port of a packet that completed an
    /// emergency detour: as if it had arrived over the original (blocked)
    /// link, so that default routing continues on the original heading.
    pub fn effective_port_after_detour(arrival_port: Direction) -> Direction {
        arrival_port.rotate_ccw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{
        p2p_addr, Fabric, FabricConfig, FabricEvent, FabricSim, NocEvent, NocScheduler,
    };
    use crate::mesh::NodeCoord;
    use crate::packet::Packet;
    use crate::table::McTableEntry;
    use spinn_sim::{Engine, SimTime};

    #[test]
    fn table_hit_routes_by_entry() {
        let mut r = Router::new(RouterConfig::default());
        r.table
            .insert(McTableEntry {
                key: 0x10,
                mask: 0xF0,
                route: RouteSet::EMPTY.with_link(Direction::North).with_core(3),
            })
            .unwrap();
        match r.decide_mc(0x17, Port::Local) {
            RouteDecision::Multicast(route) => {
                assert!(route.has_link(Direction::North));
                assert!(route.has_core(3));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.stats.mc_table_hits, 1);
    }

    #[test]
    fn default_route_continues_straight() {
        let mut r = Router::new(RouterConfig::default());
        // Arrived on the West port => travelling east => leaves East.
        match r.decide_mc(99, Port::Link(Direction::West)) {
            RouteDecision::Multicast(route) => {
                assert!(route.has_link(Direction::East));
                assert_eq!(route.links().count(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.stats.mc_default_routed, 1);
    }

    #[test]
    fn local_injection_without_entry_is_unroutable() {
        let mut r = Router::new(RouterConfig::default());
        assert_eq!(r.decide_mc(1, Port::Local), RouteDecision::UnroutableLocal);
        assert_eq!(r.stats.mc_unroutable_local, 1);
    }

    #[test]
    fn table_edits_show_in_stats_at_next_decision() {
        let mut r = Router::new(RouterConfig::default());
        for key in [0x10, 0x20, 0x30] {
            r.table
                .insert(McTableEntry {
                    key,
                    mask: 0xF0,
                    route: RouteSet::EMPTY.with_core(1),
                })
                .unwrap();
        }
        // The occupancy gauges are taken at routing decisions, not at
        // edits: snapshot bytes depend on that timing.
        assert_eq!(r.stats.table_peak_entries, 0);
        assert_eq!(r.stats.table_capacity, 0);
        assert!(matches!(
            r.decide_mc(0x12, Port::Local),
            RouteDecision::Multicast(_)
        ));
        assert_eq!(r.stats.table_peak_entries, 3);
        assert_eq!(r.stats.table_capacity, 1024);
        // Fault-injection style rewrite: clear and repoint the table.
        r.table.clear();
        r.table
            .insert(McTableEntry {
                key: 0x10,
                mask: 0xF0,
                route: RouteSet::EMPTY.with_core(7),
            })
            .unwrap();
        match r.decide_mc(0x12, Port::Local) {
            RouteDecision::Multicast(route) => {
                assert!(route.has_core(7));
                assert!(!route.has_core(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            r.decide_mc(0x22, Port::Local),
            RouteDecision::UnroutableLocal
        );
        assert_eq!(r.stats.table_peak_entries, 3);
        assert!(r.stats.occupancy_ratio() > 0.0);
        assert_eq!(r.table.compiled().len(), 1);
    }

    #[test]
    fn wholesale_table_replacement_recompiles() {
        // The replacement brings its own lookup index: the next packet
        // routes by the new entries.
        let mut r = Router::new(RouterConfig::default());
        r.table
            .insert(McTableEntry {
                key: 0x10,
                mask: 0xF0,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        let _ = r.decide_mc(0x12, Port::Local); // route by the old table
        let mut replacement = McTable::new(1024);
        replacement
            .insert(McTableEntry {
                key: 0x10,
                mask: 0xF0,
                route: RouteSet::EMPTY.with_core(9),
            })
            .unwrap();
        r.table = replacement;
        match r.decide_mc(0x12, Port::Local) {
            RouteDecision::Multicast(route) => assert!(route.has_core(9)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn occupancy_peak_survives_clear() {
        let mut r = Router::new(RouterConfig::default());
        for key in 0..5 {
            r.table
                .insert(McTableEntry {
                    key,
                    mask: u32::MAX,
                    route: RouteSet::EMPTY.with_core(1),
                })
                .unwrap();
        }
        // Shrink the table before any packet is routed: the high-water
        // mark must still report the 5 entries that were live.
        r.table.clear();
        r.table
            .insert(McTableEntry {
                key: 0,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(2),
            })
            .unwrap();
        let _ = r.decide_mc(0, Port::Local);
        assert_eq!(r.stats.table_peak_entries, 5);
        assert_eq!(r.table.peak_len(), 5);
    }

    #[test]
    fn stats_stay_cumulative_across_table_version_bumps() {
        // Regression: stats live on the router, not the table, and must
        // keep accumulating across table edits — including a wholesale
        // replacement with a *smaller* table, which used to regress the
        // recorded capacity (plain assignment instead of a ratchet).
        let mut r = Router::new(RouterConfig::default());
        for key in 0..4 {
            r.table
                .insert(McTableEntry {
                    key,
                    mask: u32::MAX,
                    route: RouteSet::EMPTY.with_core(1),
                })
                .unwrap();
        }
        let _ = r.decide_mc(0, Port::Local); // hit
        let _ = r.decide_mc(99, Port::Link(Direction::West)); // default

        // Edit in place: clear + re-insert.
        r.table.clear();
        r.table
            .insert(McTableEntry {
                key: 0,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(2),
            })
            .unwrap();
        let _ = r.decide_mc(0, Port::Local); // hit against the edit

        // Wholesale replacement with a smaller-capacity table.
        let mut small = McTable::new(16);
        small
            .insert(McTableEntry {
                key: 0,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(3),
            })
            .unwrap();
        r.table = small;
        let _ = r.decide_mc(0, Port::Local); // hit against the replacement
        let _ = r.decide_mc(1, Port::Local); // miss: unroutable

        assert_eq!(r.stats.mc_table_hits, 3, "hits accumulate across edits");
        assert_eq!(r.stats.mc_default_routed, 1);
        assert_eq!(r.stats.mc_unroutable_local, 1);
        assert_eq!(r.stats.table_peak_entries, 4, "peak ratchets");
        assert_eq!(r.stats.table_capacity, 1024, "capacity ratchets");
    }

    #[test]
    fn second_leg_geometry() {
        // Blocked link East: first leg NE; arrival port at the
        // intermediate node is opposite(NE) = SW; second leg must be
        // South (SW rotated ccw).
        let arrival = Direction::NorthEast.opposite();
        assert_eq!(Router::second_leg_output(arrival), Direction::South);
    }

    /// Collects the events an injection schedules.
    struct Collect(Vec<(u64, NocEvent)>);

    impl NocScheduler for Collect {
        fn schedule(&mut self, delay_ns: u64, ev: NocEvent) {
            self.0.push((delay_ns, ev));
        }
    }

    /// Runs a 4x4 fabric from one injection until no event is left.
    /// p2p and nearest-neighbour packets are decided by the fabric, which
    /// counts each decision on the router that takes it.
    fn settle(inject: impl FnOnce(&mut Fabric, &mut Collect)) -> Fabric {
        let mut sim = FabricSim::new(FabricConfig::new(4, 4));
        let mut pending = Collect(Vec::new());
        inject(&mut sim.fabric, &mut pending);
        let mut engine = Engine::new(sim);
        for (d, e) in pending.0 {
            engine.schedule_at(SimTime::new(d), FabricEvent::Noc(e));
        }
        engine.run_to_completion(Some(10_000));
        engine.into_model().fabric
    }

    #[test]
    fn p2p_decisions() {
        let (src, dst) = (NodeCoord::new(0, 0), NodeCoord::new(2, 0));
        let fabric = settle(|f, s| {
            let p = Packet::p2p(p2p_addr(src), p2p_addr(dst), 0);
            f.inject(0, src, p, s);
        });
        // Every router short of the destination forwards; the
        // destination delivers.
        let counts = |x| {
            let s = &fabric.router(NodeCoord::new(x, 0)).stats;
            (s.p2p_forwarded, s.p2p_delivered)
        };
        assert_eq!(counts(0), (1, 0));
        assert_eq!(counts(1), (1, 0));
        assert_eq!(counts(2), (0, 1));
        assert_eq!(fabric.total_stats().p2p_forwarded, 2);
        assert_eq!(fabric.total_stats().p2p_delivered, 1);
    }

    #[test]
    fn nn_always_delivers() {
        let fabric = settle(|f, s| {
            f.inject_nn(
                0,
                NodeCoord::new(1, 1),
                Direction::East,
                Packet::nn(0, 0),
                s,
            );
        });
        // The neighbour delivers without consulting its table.
        assert_eq!(fabric.router(NodeCoord::new(2, 1)).stats.nn_delivered, 1);
        assert_eq!(fabric.total_stats().nn_delivered, 1);
    }
}
