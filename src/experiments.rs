//! The experiments, one module per table (E1-E11, E13, A1, A2, E19,
//! E20). Each module's `run(quick)` returns its table as text
//! (`examples/paper.rs` prints them); the typed rows behind a table are
//! public so that `tests/paper_claims.rs` can assert the paper's claims
//! on them.

use std::fmt::Write as _;

/// E1 — glitch-induced deadlock: conventional vs transition-sensing
/// phase converters (Fig. 6, §5.1).
pub mod e01_glitch_deadlock {
    use super::*;
    use spinn_link::glitch::{deadlock_study, DeadlockStudy, GlitchTrialConfig};

    /// Runs the paired Monte-Carlo study across glitch rates.
    pub fn study(quick: bool) -> Vec<DeadlockStudy> {
        let trials = if quick { 150 } else { 2000 };
        let cfg = GlitchTrialConfig::default();
        let rates = [1e5, 3e5, 1e6, 3e6, 1e7];
        // Parallel Monte Carlo: one thread per rate.
        let mut results: Vec<Option<DeadlockStudy>> = vec![None; rates.len()];
        std::thread::scope(|scope| {
            for (slot, &rate) in results.iter_mut().zip(&rates) {
                let cfg = &cfg;
                scope.spawn(move || {
                    *slot = Some(deadlock_study(cfg, rate, trials, 0xE1));
                });
            }
        });
        results.into_iter().map(|r| r.expect("filled")).collect()
    }

    /// The E1 table.
    pub fn run(quick: bool) -> String {
        let rows = study(quick);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E1: glitch-induced deadlock, conventional vs transition-sensing (Fig. 6)"
        );
        let _ = writeln!(
            out,
            "   {} paired trials x 200 symbols per rate\n",
            rows[0].trials
        );
        let _ = writeln!(
            out,
            "{:>12} {:>12} {:>12} {:>10} {:>12} {:>12}",
            "glitch rate", "conv dead", "t-s dead", "factor", "conv corr", "t-s corr"
        );
        for s in rows {
            let factor = if s.transition_sensing_deadlocks == 0 {
                format!(">{:.0}", s.improvement_factor())
            } else {
                format!("{:.0}", s.improvement_factor())
            };
            let _ = writeln!(
                out,
                "{:>10.0e}Hz {:>8}/{:<4} {:>8}/{:<4} {:>9}x {:>12.2} {:>12.2}",
                s.glitch_rate_hz,
                s.conventional_deadlocks,
                s.trials,
                s.transition_sensing_deadlocks,
                s.trials,
                factor,
                s.conventional_corruption,
                s.transition_sensing_corruption,
            );
        }
        let _ = writeln!(
            out,
            "\npaper: transition sensing 'reduced the occurrence of deadlocks in our\nglitch simulations by a factor 1,000' and 'will keep passing data (albeit\nwith errors)' — the t-s column keeps capturing (corrupt) symbols with\n(near-)zero deadlocks while the conventional converter deadlocks freely."
        );
        out
    }
}

/// E2 — link protocols: 2-of-7 NRZ vs 3-of-6 RTZ (§5.1).
pub mod e02_link_protocols {
    use super::*;
    use spinn_link::throughput::{measure_nrz, measure_rtz, LinkMeasurement};

    /// `(NRZ, RTZ)` measurements at each wire delay.
    pub fn rows(quick: bool) -> Vec<(LinkMeasurement, LinkMeasurement)> {
        let n = if quick { 300 } else { 2000 };
        [500u64, 1_000, 2_000, 5_000, 10_000]
            .into_iter()
            .map(|wire| (measure_nrz(wire, n), measure_rtz(wire, n)))
            .collect()
    }

    /// The E2 table.
    pub fn run(quick: bool) -> String {
        let rows = rows(quick);
        let mut out = String::new();
        let _ = writeln!(out, "E2: inter-chip link protocols (§5.1)");
        let _ = writeln!(out, "   {} symbols per measurement\n", rows[0].0.symbols);
        let _ = writeln!(
            out,
            "{:>10} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}",
            "wire (ps)",
            "NRZ Mbit/s",
            "RTZ Mbit/s",
            "ratio",
            "NRZ tr/sym",
            "RTZ tr/sym",
            "pJ ratio"
        );
        for (nrz, rtz) in rows {
            let _ = writeln!(
                out,
                "{:>10} {:>12.1} {:>12.1} {:>7.2}x {:>10.1} {:>10.1} {:>7.2}x",
                nrz.wire_delay_ps,
                nrz.mbit_per_s,
                rtz.mbit_per_s,
                nrz.msymbols_per_s / rtz.msymbols_per_s,
                nrz.transitions_per_symbol,
                rtz.transitions_per_symbol,
                rtz.pj_per_symbol / nrz.pj_per_symbol,
            );
        }
        let _ = writeln!(
            out,
            "\npaper: off-chip 'the 2-of-7 NRZ code delivers twice the performance for\nless than half the energy per 4-bit symbol' (3 vs 8 transitions: exact)."
        );
        out
    }
}

/// E3 — emergency routing around a failed link (Fig. 8, §5.3).
pub mod e03_emergency_routing {
    use super::*;
    use spinn_noc::direction::Direction;
    use spinn_noc::fabric::{FabricConfig, FabricEvent, FabricSim};
    use spinn_noc::mesh::NodeCoord;
    use spinn_noc::packet::Packet;
    use spinn_noc::table::{McTableEntry, RouteSet};
    use spinn_sim::{Engine, SimTime};

    /// One scenario's measurements.
    pub struct Row {
        /// Scenario label.
        pub label: &'static str,
        /// Fraction of injected packets delivered.
        pub delivered_pct: f64,
        /// Mean end-to-end latency, ns.
        pub mean_latency_ns: f64,
        /// Emergency reroutes performed.
        pub reroutes: u64,
        /// Packets dropped.
        pub dropped: u64,
    }

    /// Streams `n` packets down a 6-hop path, with optional mid-path
    /// link failure and emergency routing on/off.
    pub fn scenario(
        label: &'static str,
        n: u64,
        interval_ns: u64,
        fail: bool,
        emergency: bool,
    ) -> Row {
        let mut cfg = FabricConfig::new(8, 8);
        cfg.router.emergency_enabled = emergency;
        cfg.router.wait1_ns = 2_000;
        cfg.router.wait2_ns = 10_000;
        let mut sim = FabricSim::new(cfg);
        let key = 0xE3;
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
            .router_mut(NodeCoord::new(6, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        if fail {
            sim.fabric.fail_link(NodeCoord::new(3, 0), Direction::East);
        }
        for i in 0..n {
            sim.queue_injection(
                i * interval_ns,
                NodeCoord::new(0, 0),
                Packet::multicast(key),
            );
        }
        let mut engine = Engine::new(sim);
        engine.schedule_at(SimTime::ZERO, FabricEvent::Pump);
        engine.run_until(SimTime::new(n * interval_ns + 50_000_000));
        let sim = engine.into_model();
        let stats = sim.fabric.total_stats();
        Row {
            label,
            delivered_pct: 100.0 * sim.delivered() as f64 / n as f64,
            mean_latency_ns: sim.latency().mean(),
            reroutes: stats.emergency_reroutes,
            dropped: stats.dropped,
        }
    }

    /// The E3 table.
    pub fn run(quick: bool) -> String {
        let n = if quick { 300 } else { 3000 };
        let mut out = String::new();
        let _ = writeln!(out, "E3: emergency routing around a failed link (Fig. 8)");
        let _ = writeln!(
            out,
            "   {n} packets, 6-hop east path, link (3,0)->E killed\n"
        );
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>12} {:>10} {:>9}",
            "scenario", "delivered", "mean ns", "reroutes", "dropped"
        );
        for row in [
            scenario("healthy link", n, 500, false, true),
            scenario("failed link + emergency", n, 500, true, true),
            scenario("failed link, no emergency", n, 500, true, false),
            scenario("failed + emergency, heavy load", n, 180, true, true),
        ] {
            let _ = writeln!(
                out,
                "{:<34} {:>9.1}% {:>12.0} {:>10} {:>9}",
                row.label, row.delivered_pct, row.mean_latency_ns, row.reroutes, row.dropped
            );
        }
        let _ = writeln!(
            out,
            "\npaper: packets are redirected 'around the two other sides of one of the\nmesh triangles'; without the mechanism the router 'gives up and drops the\npacket'. The detour costs ~one extra hop of latency."
        );
        out
    }
}

/// E4 — real-time spike delivery: latency vs distance (Fig. 7, §3.1).
pub mod e04_realtime_latency {
    use super::*;
    use spinn_machine::config::MachineConfig;
    use spinn_machine::machine::NeuralMachine;
    use spinn_neuron::izhikevich::{IzhikevichNeuron, IzhikevichParams};
    use spinn_neuron::model::AnyNeuron;
    use spinn_neuron::synapse::SynapticWord;
    use spinn_neuron::synmatrix::SynapticMatrixBuilder;
    use spinn_noc::direction::Direction;
    use spinn_noc::mesh::NodeCoord;
    use spinn_noc::table::{McTableEntry, RouteSet};

    fn neurons(n: usize) -> Vec<AnyNeuron> {
        (0..n)
            .map(|_| IzhikevichNeuron::new(IzhikevichParams::regular_spiking()).into())
            .collect()
    }

    /// Latency percentiles for spikes crossing `hops` chips east
    /// (`hops == 0`: target on a second core of the same chip).
    pub fn at_distance(hops: u32, ms: u32) -> (u64, u64, u64) {
        let mut m = NeuralMachine::new(MachineConfig::new(16, 16));
        let src = NodeCoord::new(0, 0);
        let dst = NodeCoord::new(hops, 0);
        let dst_core = if hops == 0 { 2 } else { 1 };
        m.load_core(src, 1, neurons(60), vec![11.0; 60], 0x4000)
            .unwrap();
        m.load_core(dst, dst_core, neurons(60), vec![0.0; 60], 0x8000)
            .unwrap();
        m.router_mut(src)
            .table
            .insert(McTableEntry {
                key: 0x4000,
                mask: 0xFFFF_C000,
                route: if hops == 0 {
                    RouteSet::EMPTY.with_core(dst_core as usize)
                } else {
                    RouteSet::EMPTY.with_link(Direction::East)
                },
            })
            .unwrap();
        if hops > 0 {
            m.router_mut(dst)
                .table
                .insert(McTableEntry {
                    key: 0x4000,
                    mask: 0xFFFF_C000,
                    route: RouteSet::EMPTY.with_core(1),
                })
                .unwrap();
        }
        let mut rows = SynapticMatrixBuilder::new();
        let first = rows.block(0x4000, !0x3FFF, 60);
        for i in 0..60 {
            for t in 0..60 {
                rows.push(first + i, SynapticWord::new(80, 1, t));
            }
        }
        m.install_matrix(dst, dst_core, rows.finish());
        let m = m.run(ms);
        let h = m.spike_latency();
        (h.percentile(50.0), h.percentile(99.0), h.max())
    }

    /// The E4 table.
    pub fn run(quick: bool) -> String {
        let ms = if quick { 100 } else { 400 };
        let mut out = String::new();
        let _ = writeln!(out, "E4: spike delivery latency vs distance (§3.1, Fig. 7)");
        let _ = writeln!(
            out,
            "   16x16 torus, 60-neuron source population, {ms} ms runs\n"
        );
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>10} {:>16}",
            "hops", "p50 ns", "p99 ns", "max ns", "% of 1 ms budget"
        );
        for hops in [0u32, 1, 2, 4, 8] {
            let (p50, p99, max) = at_distance(hops, ms);
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>10} {:>10} {:>15.2}%",
                hops,
                p50,
                p99,
                max,
                100.0 * max as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "\npaper: 'the communications fabric is designed to deliver mc packets in\nsignificantly under 1 ms, whatever the distance from source to destination'\n— the worst case above uses ~a thousandth of the millisecond budget, so\nsystem-wide synchrony emerges from the 1 ms timers alone."
        );
        out
    }
}

/// E5 — flood-fill loading time (§5.2, \[15\]).
pub mod e05_flood_fill {
    use super::*;
    use spinn_machine::flood::{FloodConfig, FloodOutcome, FloodSim};

    /// One load per machine size at `k = 1`, then `k = 2, 3` on 8x8.
    pub fn rows(quick: bool) -> Vec<(FloodConfig, FloodOutcome)> {
        let blocks = if quick { 32 } else { 128 };
        [
            (4u32, 1u8),
            (8, 1),
            (12, 1),
            (16, 1),
            (24, 1),
            (8, 2),
            (8, 3),
        ]
        .into_iter()
        .map(|(w, k)| {
            let mut cfg = FloodConfig::new(w, w);
            cfg.blocks = blocks;
            cfg.redundancy_k = k;
            (cfg, FloodSim::run(cfg))
        })
        .collect()
    }

    /// The E5 table.
    pub fn run(quick: bool) -> String {
        let rows = rows(quick);
        let mut out = String::new();
        let _ = writeln!(out, "E5: flood-fill application loading (§5.2)");
        let _ = writeln!(
            out,
            "   {} blocks streamed from the host into (0,0)\n",
            rows[0].0.blocks
        );
        let _ = writeln!(
            out,
            "{:>9} {:>4} {:>12} {:>14} {:>12}",
            "machine", "k", "load (us)", "vs 4x4", "nn packets"
        );
        let mut base = None;
        for (cfg, o) in rows {
            let t = o.load_complete_ns.expect("load completes") as f64 / 1e3;
            if base.is_none() && cfg.redundancy_k == 1 {
                base = Some(t);
            }
            let _ = writeln!(
                out,
                "{:>6}x{:<2} {:>4} {:>12.1} {:>13.2}x {:>12}",
                cfg.width,
                cfg.width,
                cfg.redundancy_k,
                t,
                t / base.unwrap(),
                o.nn_packets
            );
        }
        let _ = writeln!(
            out,
            "\npaper: 'load times almost independent of the size of the machine, with\ntrade-offs between load time and the degree of fault-tolerance ... the\nnumber of times a node receives each component'. 36x the chips costs only\npercent-level extra time; k=3 costs a little more than k=1."
        );
        out
    }
}

/// E6 — boot, monitor election and rescue (§5.2).
pub mod e06_boot {
    use super::*;
    use spinn_machine::boot::{BootConfig, BootOutcome, BootSim};

    /// Fault-free boots by machine size, then 8x8 under core faults.
    pub fn rows() -> Vec<(BootConfig, BootOutcome)> {
        [
            (4u32, 0.0f64),
            (8, 0.0),
            (16, 0.0),
            (24, 0.0),
            (8, 0.2),
            (8, 0.4),
            (8, 0.6),
        ]
        .into_iter()
        .map(|(w, fault)| {
            let mut cfg = BootConfig::new(w, w);
            cfg.core_fault_prob = fault;
            cfg.seed = 0xE6;
            (cfg, BootSim::run(cfg))
        })
        .collect()
    }

    /// The E6 table.
    pub fn run(_quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E6: boot — self-test, monitor election, coordinates (§5.2)"
        );
        let _ = writeln!(
            out,
            "\n{:>9} {:>7} {:>9} {:>8} {:>6} {:>12} {:>12}",
            "machine", "faults", "monitors", "rescued", "dead", "coords us", "reports us"
        );
        for (cfg, o) in rows() {
            assert!(!o.election_violated);
            let _ = writeln!(
                out,
                "{:>6}x{:<2} {:>6.0}% {:>9} {:>8} {:>6} {:>12.1} {:>12.1}",
                cfg.width,
                cfg.width,
                cfg.core_fault_prob * 100.0,
                o.monitors_first_round,
                o.rescued,
                o.dead_chips,
                o.coords_complete_ns.map_or(f64::NAN, |t| t as f64 / 1e3),
                o.reports_complete_ns.map_or(f64::NAN, |t| t as f64 / 1e3),
            );
        }
        let _ = writeln!(
            out,
            "\npaper: the read-sensitive register ensures 'one and only one processor is\nchosen as Monitor' (never violated above); coordinates propagate from (0,0)\nin O(diameter); failed neighbours are rescued over nn packets."
        );
        out
    }
}

/// E7 — cost-effectiveness: MIPS/mm², MIPS/W, ownership cost (§2, §3.3).
pub mod e07_cost_energy {
    use super::*;
    use spinn_machine::energy::{
        energy_cost_crossover_years, CostEffectiveness, ProcessorClass, DESKTOP_CLASS,
        SPINNAKER_NODE_CLASS,
    };
    use spinnaker::prelude::*;

    /// The PC of the purchase-vs-energy argument (§2).
    pub const PC: ProcessorClass = ProcessorClass {
        name: "PC",
        mips: 10_000.0,
        watts: 300.0,
        die_mm2: 400.0,
        cost_usd: 1000.0,
    };

    /// A simulated 4x4 machine's energy meter under neural load.
    pub struct Measured {
        /// Biological ms run.
        pub ms: u32,
        /// Spikes fired.
        pub spikes: usize,
        /// Mean power, W.
        pub mean_watts: f64,
        /// Sustained MIPS.
        pub mips: f64,
        /// MIPS per watt.
        pub mips_per_watt: f64,
    }

    /// Runs two 1200-neuron populations (one driven, fan-out 30) on a
    /// 4x4 machine and reads its energy meter.
    pub fn measured(quick: bool) -> Measured {
        let ms = if quick { 100 } else { 300 };
        let mut net = NetworkGraph::new();
        let a = net.population(
            "a",
            1200,
            NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()),
            9.0,
        );
        let b = net.population(
            "b",
            1200,
            NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()),
            0.0,
        );
        net.project(
            a,
            b,
            Connector::FixedFanOut(30),
            Synapses::constant(300, 2),
            7,
        );
        let done = Simulation::build(&net, SimConfig::new(4, 4))
            .unwrap()
            .run(ms);
        let meter = done.machine.meter();
        let energy = &done.machine.config().energy;
        let dur = done.machine.duration_ns();
        Measured {
            ms,
            spikes: done.machine.spikes().len(),
            mean_watts: meter.mean_watts(energy, dur),
            mips: meter.mips(dur),
            mips_per_watt: meter.mips_per_watt(energy, dur),
        }
    }

    /// The E7 table.
    pub fn run(quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "E7: cost-effectiveness metrics (§2, §3.3)\n");
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>8} {:>11} {:>10} {:>10}",
            "class", "MIPS", "W", "MIPS/mm2", "MIPS/W", "MIPS/$"
        );
        for p in [DESKTOP_CLASS, SPINNAKER_NODE_CLASS] {
            let ce = CostEffectiveness::of(&p);
            let _ = writeln!(
                out,
                "{:<28} {:>10.0} {:>8.1} {:>11.1} {:>10.0} {:>10.0}",
                p.name, p.mips, p.watts, ce.mips_per_mm2, ce.mips_per_watt, ce.mips_per_usd
            );
        }
        let d = CostEffectiveness::of(&DESKTOP_CLASS);
        let s = CostEffectiveness::of(&SPINNAKER_NODE_CLASS);
        let _ = writeln!(
            out,
            "\nratios (node/desktop): MIPS/mm2 {:.1}x, MIPS/W {:.0}x, MIPS/$ {:.0}x",
            s.mips_per_mm2 / d.mips_per_mm2,
            s.mips_per_watt / d.mips_per_watt,
            s.mips_per_usd / d.mips_per_usd
        );
        let _ = writeln!(
            out,
            "PC purchase-vs-energy crossover at $1/W/year: {:.1} years",
            energy_cost_crossover_years(&PC, 1.0)
        );

        let m = measured(quick);
        let _ = writeln!(
            out,
            "\nmeasured on a simulated 4x4 machine under load ({} ms, {} spikes):",
            m.ms, m.spikes
        );
        let _ = writeln!(
            out,
            "  mean power {:.2} W, sustained {:.0} MIPS, {:.0} MIPS/W (vs desktop {:.0})",
            m.mean_watts, m.mips, m.mips_per_watt, d.mips_per_watt
        );
        let _ = writeln!(
            out,
            "\npaper: 'on energy-efficiency the embedded processors win by an order of\nmagnitude'; 'the energy cost of a PC equals the purchase cost after a\nlittle more than three years'."
        );
        out
    }
}

/// E8 — multicast vs broadcast communication loading (§4).
pub mod e08_multicast_vs_broadcast {
    use super::*;
    use spinn_map::route::{tree_cost, TreeCost};
    use spinn_noc::mesh::{NodeCoord, Torus};
    use spinn_sim::Xoshiro256;

    /// Random destination sets drawn per destination count.
    const TRIALS: u64 = 50;

    /// Edge costs from (0,0), summed over 50 random destination
    /// chip sets per destination count, on a 16x16 torus.
    pub fn rows() -> Vec<(usize, TreeCost)> {
        let torus = Torus::new(16, 16);
        let mut rng = Xoshiro256::seed_from_u64(0xE8);
        [1usize, 2, 4, 8, 16, 32, 64, 128]
            .into_iter()
            .map(|k| {
                let mut sum = TreeCost {
                    multicast_edges: 0,
                    unicast_edges: 0,
                    broadcast_edges: 0,
                };
                for _ in 0..TRIALS {
                    let mut dests = Vec::new();
                    while dests.len() < k {
                        let d = NodeCoord::new(
                            rng.gen_range_usize(16) as u32,
                            rng.gen_range_usize(16) as u32,
                        );
                        if d != NodeCoord::new(0, 0) && !dests.contains(&d) {
                            dests.push(d);
                        }
                    }
                    let c = tree_cost(&torus, NodeCoord::new(0, 0), dests);
                    sum.multicast_edges += c.multicast_edges;
                    sum.unicast_edges += c.unicast_edges;
                    sum.broadcast_edges += c.broadcast_edges;
                }
                (k, sum)
            })
            .collect()
    }

    /// The E8 table.
    pub fn run(_quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "E8: multicast vs broadcast communication loading (§4)");
        let _ = writeln!(
            out,
            "   16x16 torus, random destination chip sets, 50 trials each\n"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>11} {:>10} {:>11} {:>13} {:>13}",
            "dests", "multicast", "unicast", "broadcast", "vs unicast", "vs broadcast"
        );
        for (k, c) in rows() {
            let (mc, uc, bc) = (c.multicast_edges, c.unicast_edges, c.broadcast_edges);
            let _ = writeln!(
                out,
                "{:>8} {:>11.1} {:>10.1} {:>11.1} {:>12.2}x {:>12.2}x",
                k,
                mc as f64 / TRIALS as f64,
                uc as f64 / TRIALS as f64,
                bc as f64 / TRIALS as f64,
                uc as f64 / mc as f64,
                bc as f64 / mc as f64,
            );
        }
        let _ = writeln!(
            out,
            "\npaper: AER 'has been used principally in bus-based broadcast\ncommunication ... but here we employ a packet-switched multicast mechanism\nto reduce total communication loading'. The tree always beats per-target\nunicast and beats broadcast until the destination set approaches the whole\nmachine."
        );
        out
    }
}

/// E9 — scaling towards the million-core machine (§1, §6).
pub mod e09_scaling {
    use super::*;
    use spinn_machine::config::MachineConfig;
    use spinnaker::prelude::*;

    /// One weak-scaling measurement row.
    pub struct Row {
        /// Mesh edge (machine is `w x w`).
        pub w: u32,
        /// Neurons simulated.
        pub neurons: u64,
        /// Synaptic events per biological second.
        pub syn_events_per_s: f64,
        /// Sustained MIPS.
        pub mips: f64,
        /// Real-time violations.
        pub violations: u64,
    }

    /// Runs the weak-scaling sweep: one independent driver->target
    /// population pair per chip, so per-core neuron count AND packet
    /// fan-in stay constant as the machine grows.
    pub fn sweep(sizes: &[u32], ms: u32) -> Vec<Row> {
        sizes
            .iter()
            .map(|&w| {
                let chips = w * w;
                let mut net = NetworkGraph::new();
                for c in 0..chips {
                    let a = net.population(
                        &format!("a{c}"),
                        8 * 128,
                        NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()),
                        8.6 + 0.1 * (c % 8) as f32,
                    );
                    let b = net.population(
                        &format!("b{c}"),
                        8 * 128,
                        NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()),
                        0.0,
                    );
                    net.project(
                        a,
                        b,
                        Connector::FixedFanOut(20),
                        Synapses::constant(250, 2),
                        c as u64,
                    );
                }
                let cfg = SimConfig::new(w, w).with_neurons_per_core(128);
                let done = Simulation::build(&net, cfg).unwrap().run(ms);
                let spikes = done.machine.spikes().len() as f64;
                Row {
                    w,
                    neurons: chips as u64 * 16 * 128,
                    syn_events_per_s: spikes * 20.0 / (ms as f64 / 1e3),
                    mips: done.machine.meter().mips(done.machine.duration_ns()),
                    violations: done.machine.realtime_violations(),
                }
            })
            .collect()
    }

    /// The E9 table.
    pub fn run(quick: bool) -> String {
        let (sizes, ms): (&[u32], u32) = if quick {
            (&[2, 3, 4], 80)
        } else {
            (&[2, 4, 6, 8], 200)
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E9: weak scaling towards the million-core machine (§1, §6)"
        );
        let _ = writeln!(
            out,
            "   128 neurons/core, 16 cores/chip used, {ms} ms runs\n"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>14} {:>12} {:>11}",
            "machine", "neurons", "syn events/s", "MIPS", "violations"
        );
        for r in sweep(sizes, ms) {
            let _ = writeln!(
                out,
                "{:>5}x{:<2} {:>10} {:>14.2e} {:>12.0} {:>11}",
                r.w, r.w, r.neurons, r.syn_events_per_s, r.mips, r.violations
            );
        }
        let full = MachineConfig::million_core();
        let cores = full.chips() as f64 * full.cores_per_chip as f64;
        let _ = writeln!(
            out,
            "\nextrapolation to the full machine (256x256 chips, {:.2}M cores):",
            cores / 1e6
        );
        let _ = writeln!(
            out,
            "  {:.0} teraIPS peak ({} MIPS x {:.2}M cores) — paper: 'around 200 teraIPS'",
            cores * full.cpu_mhz as f64 / 1e6,
            full.cpu_mhz,
            cores / 1e6
        );
        let _ = writeln!(
            out,
            "  ~1000 neurons/core x {:.2}M cores ≈ 10^9 neurons — paper: 'a billion\n  spiking neurons in biological real time' (1% of the human brain)",
            cores / 1e6
        );
        let _ = writeln!(
            out,
            "\nreal time holds at every measured size (0 violations), and per-core load,\nnot machine size, determines headroom — the architecture's scaling claim."
        );
        out
    }
}

/// E10 — virtualized topology: placement ablation (§3.2).
pub mod e10_placement {
    use super::*;
    use spinn_map::route::RouteStats;
    use spinnaker::prelude::*;

    /// Builds a 2-D grid-of-populations network (locally connected).
    pub fn grid_net(side: u32, pop: u32) -> NetworkGraph {
        let mut net = NetworkGraph::new();
        let mut ids = Vec::new();
        for y in 0..side {
            for x in 0..side {
                ids.push(net.population(
                    &format!("p{x}_{y}"),
                    pop,
                    NeuronKind::Izhikevich(IzhikevichParams::regular_spiking()),
                    if x == 0 && y == 0 { 10.0 } else { 0.0 },
                ));
            }
        }
        // 4-neighbour local projections, as in a cortical sheet.
        for y in 0..side {
            for x in 0..side {
                let src = ids[(y * side + x) as usize];
                for (dx, dy) in [(1i64, 0i64), (0, 1)] {
                    let nx = (x as i64 + dx).rem_euclid(side as i64) as u32;
                    let ny = (y as i64 + dy).rem_euclid(side as i64) as u32;
                    let dst = ids[(ny * side + nx) as usize];
                    net.project(
                        src,
                        dst,
                        Connector::FixedProbability(0.3),
                        Synapses::constant(400, 2),
                        (y * side + x) as u64,
                    );
                }
            }
        }
        net
    }

    /// One placer's routing cost and spike raster.
    pub struct Row {
        /// Placer label.
        pub label: &'static str,
        /// Routing-tree statistics of the placed network.
        pub routes: RouteStats,
        /// Link traversals of every packet sent during the run.
        pub packet_hops: u64,
        /// The spike raster, sorted by time, population and neuron.
        pub raster: Vec<spinnaker::PopSpike>,
    }

    /// Runs the 6x6 grid net on an 8x8 machine under each placer.
    pub fn rows(quick: bool) -> Vec<Row> {
        let ms = if quick { 80 } else { 200 };
        let net = grid_net(6, 64);
        [
            ("locality", Placer::Locality),
            ("round-robin", Placer::RoundRobin),
            ("random", Placer::Random { seed: 77 }),
        ]
        .into_iter()
        .map(|(label, placer)| {
            let cfg = SimConfig::new(8, 8)
                .with_neurons_per_core(64)
                .with_placer(placer);
            let sim = Simulation::build(&net, cfg).unwrap();
            let routes = sim.route_stats().clone();
            let done = sim.run(ms);
            let mut raster = done.spikes();
            raster.sort_by_key(|s| (s.time_ms, s.pop.index(), s.neuron));
            Row {
                label,
                routes,
                packet_hops: done.machine.meter().packet_hops,
                raster,
            }
        })
        .collect()
    }

    /// The E10 table.
    pub fn run(quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "E10: virtualized topology — placement ablation (§3.2)");
        let _ = writeln!(
            out,
            "   6x6 grid of 64-neuron populations, local projections, 8x8 machine\n"
        );
        let _ = writeln!(
            out,
            "{:<14} {:>11} {:>10} {:>9} {:>12} {:>10} {:>9}",
            "placer", "tree edges", "mean path", "entries", "packet hops", "spikes", "raster="
        );
        let rows = rows(quick);
        for r in &rows {
            let _ = writeln!(
                out,
                "{:<14} {:>11} {:>10.2} {:>9} {:>12} {:>10} {:>9}",
                r.label,
                r.routes.total_edges,
                r.routes.mean_path_len(),
                r.routes.total_entries,
                r.packet_hops,
                r.raster.len(),
                r.raster == rows[0].raster
            );
        }
        let _ = writeln!(
            out,
            "\npaper: 'In principle any neuron can be mapped onto any processor' — the\nspike raster is bit-identical under every placement (virtualized\ntopology); locality merely reduces routing cost ('minimize routing\ncosts, but it is not necessary to do so')."
        );
        out
    }
}

/// E11 — retina, rank-order codes and graceful degradation (§5.4).
pub mod e11_retina {
    use super::*;
    use spinn_neuron::coding::rank_order_similarity;
    use spinn_neuron::retina::{Image, RetinaLayer};
    use spinn_sim::Xoshiro256;

    /// The two overlapping DoG scales, `(sigma, spacing)`.
    const SCALES: &[(f64, usize)] = &[(1.2, 4), (2.4, 8)];

    /// Damage seeds averaged per row.
    fn trials(quick: bool) -> u64 {
        if quick {
            3
        } else {
            10
        }
    }

    /// Means over the damage seeds at one killed fraction.
    pub struct Row {
        /// Fraction of ganglion cells killed.
        pub killed: f64,
        /// Rank-order similarity of the damaged code to the healthy one.
        pub code_sim: f64,
        /// Correlation of the damaged reconstruction with the healthy one.
        pub recon_corr: f64,
        /// The same for the single-scale ablation (no overlap).
        pub recon_single_scale: f64,
    }

    /// Encodes a Gaussian blob with a damaged 32x32 retina at each
    /// killed fraction.
    pub fn rows(quick: bool) -> Vec<Row> {
        let trials = trials(quick);
        let stimulus = Image::gaussian_blob(32, 32, 13.0, 19.0, 4.0);
        let healthy = RetinaLayer::new(32, 32, SCALES);
        let code0 = healthy.encode(&stimulus, 24);
        let recon0 = healthy.reconstruct(&code0, 0.9);
        let mut rows = Vec::new();
        for frac in [0.0, 0.05, 0.10, 0.20, 0.30, 0.50] {
            let mut sim_sum = 0.0;
            let mut corr_sum = 0.0;
            let mut sparse_sum = 0.0;
            for t in 0..trials {
                let mut rng = Xoshiro256::seed_from_u64(0xE11 + t);
                let mut r = RetinaLayer::new(32, 32, SCALES);
                r.kill_fraction(frac, &mut rng);
                let code = r.encode(&stimulus, 24);
                sim_sum += rank_order_similarity(&code0, &code, r.len(), 0.9);
                corr_sum += recon0.correlation(&r.reconstruct(&code, 0.9));
                // Ablation: a single sparse scale (no overlap) damaged
                // the same way.
                let mut rng = Xoshiro256::seed_from_u64(0xE11 + t);
                let mut sparse = RetinaLayer::new(32, 32, &[(2.4, 8)]);
                sparse.kill_fraction(frac, &mut rng);
                let s0 = RetinaLayer::new(32, 32, &[(2.4, 8)]);
                let ref_recon = s0.reconstruct(&s0.encode(&stimulus, 24), 0.9);
                sparse_sum +=
                    ref_recon.correlation(&sparse.reconstruct(&sparse.encode(&stimulus, 24), 0.9));
            }
            rows.push(Row {
                killed: frac,
                code_sim: sim_sum / trials as f64,
                recon_corr: corr_sum / trials as f64,
                recon_single_scale: sparse_sum / trials as f64,
            });
        }
        rows
    }

    /// The E11 table.
    pub fn run(quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E11: retina, rank-order coding, graceful degradation (§5.4)"
        );
        let _ = writeln!(
            out,
            "   {} DoG ganglion cells at 2 overlapping scales, {} damage seeds\n",
            RetinaLayer::new(32, 32, SCALES).len(),
            trials(quick)
        );
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>12} {:>14}",
            "killed", "code sim", "recon corr", "recon (1scale)"
        );
        for r in rows(quick) {
            let _ = writeln!(
                out,
                "{:>7.0}% {:>12.3} {:>12.3} {:>14.3}",
                r.killed * 100.0,
                r.code_sim,
                r.recon_corr,
                r.recon_single_scale,
            );
        }
        let _ = writeln!(
            out,
            "\npaper: 'If a neuron fails ... a near-neighbour with a similar receptive\nfield will take over and very little information will be lost' — the\noverlapping-scale layer degrades gracefully; the single-scale ablation\n(no overlap) loses reconstruction quality faster."
        );
        out
    }
}

/// E13 — routing-table minimization and compiled lookup: masked-entry
/// compression in the mapper (Ordered-Covering style) against the
/// 1024-entry CAM budget (§4), and the key-indexed `CompiledTable`
/// against the linear scan on the per-packet hot path.
pub mod e13_table_minimization {
    use super::*;
    use spinn_map::place::{Placement, Placer};
    use spinn_map::route::RoutingPlan;
    use spinn_neuron::retina::{Image, RetinaLayer};
    use spinn_noc::compiled::CompiledTable;
    use spinn_noc::table::{McTable, McTableEntry, RouteSet};
    use spinn_sim::Xoshiro256;
    use spinnaker::prelude::*;
    use std::time::Instant;

    /// A synfire chain (Abeles): `stages` populations of `width` neurons
    /// in a ring, stage 0 tonically driven, each stage exciting the
    /// next. Once the wave has wrapped, every stage — and therefore
    /// every chip of the machine — is active on every timestep, which
    /// is the steady-state load the parallel engine is built for.
    pub fn synfire_net(stages: u32, width: u32) -> NetworkGraph {
        let mut net = NetworkGraph::new();
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let pops: Vec<_> = (0..stages)
            .map(|i| {
                let bias = if i == 0 { 9.0 } else { 0.0 };
                net.population(&format!("s{i}"), width, kind, bias)
            })
            .collect();
        for (i, &src) in pops.iter().enumerate() {
            let dst = pops[(i + 1) % pops.len()];
            net.project(
                src,
                dst,
                Connector::FixedFanOut(12),
                Synapses::constant(600, 2),
                i as u64,
            );
        }
        net
    }

    /// A retina-driven feed-forward network: a Gaussian-blob stimulus is
    /// encoded by the E11 DoG ganglion layer, the rank-order code is
    /// quantized into `groups` bands, and each band's tonic drive
    /// follows its cells' mean DoG response (earlier rank = stronger
    /// response = stronger drive) — §5.4's vision front end as a
    /// machine workload, with the encoded stimulus content shaping the
    /// firing pattern.
    pub fn retina_net(groups: u32, width: u32) -> NetworkGraph {
        let retina = RetinaLayer::new(32, 32, &[(1.2, 4), (2.4, 8)]);
        let stimulus = Image::gaussian_blob(32, 32, 13.0, 19.0, 4.0);
        let responses = retina.responses(&stimulus);
        let code = retina.encode(&stimulus, groups as usize * 4);
        assert!(!code.is_empty(), "stimulus must excite the retina");
        let peak = responses[code.order[0] as usize].max(1e-9);
        let mut net = NetworkGraph::new();
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let out = net.population("out", width, kind, 0.0);
        for g in 0..groups {
            // Band g covers one slice of the code's rank order; its
            // drive scales with the band's mean ganglion response.
            let lo = ((g as usize * code.len()) / groups as usize).min(code.len() - 1);
            let hi = (((g as usize + 1) * code.len()) / groups as usize).clamp(lo + 1, code.len());
            let band_cells = &code.order[lo..hi];
            let mean = band_cells
                .iter()
                .map(|&i| responses[i as usize])
                .sum::<f64>()
                / band_cells.len() as f64;
            let drive = 7.0 + 3.0 * (mean / peak) as f32;
            let band = net.population(&format!("band{g}"), width, kind, drive);
            net.project(
                band,
                out,
                Connector::FixedFanOut(10),
                Synapses::constant(350, 1 + (g % 8) as u8),
                g as u64,
            );
        }
        net
    }

    /// The dense random-placement workload of
    /// `tests/parallel_equivalence.rs`: an 8-stage synfire ring of
    /// 256-neuron populations scattered over a 4x4 torus.
    pub fn dense_random_net() -> NetworkGraph {
        let mut net = NetworkGraph::new();
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let pops: Vec<_> = (0..8u32)
            .map(|i| net.population(&format!("s{i}"), 256, kind, 0.0))
            .collect();
        for (i, &src) in pops.iter().enumerate() {
            let dst = pops[(i + 1) % pops.len()];
            net.project(
                src,
                dst,
                Connector::FixedFanOut(12),
                Synapses::constant(600, 2),
                i as u64,
            );
        }
        net
    }

    /// One workload's minimization measurements.
    pub struct Row {
        /// Workload label.
        pub label: &'static str,
        /// CAM entries before minimization.
        pub before: usize,
        /// CAM entries after minimization.
        pub after: usize,
        /// Largest per-chip table before.
        pub max_before: usize,
        /// Largest per-chip table after.
        pub max_after: usize,
        /// Route-equivalence violations (must be 0).
        pub violations: usize,
    }

    impl Row {
        /// Entry reduction, percent.
        pub fn saved_pct(&self) -> f64 {
            if self.before == 0 {
                0.0
            } else {
                100.0 * (self.before - self.after) as f64 / self.before as f64
            }
        }
    }

    /// Minimizes one placed workload and verifies route equivalence.
    pub fn measure(
        label: &'static str,
        net: &NetworkGraph,
        w: u32,
        h: u32,
        neurons_per_core: u32,
        placer: Placer,
    ) -> Row {
        let placement = Placement::compute(net, w, h, 20, neurons_per_core, placer)
            .expect("workload fits the machine");
        let plan = RoutingPlan::build(net, &placement, w, h);
        let min = plan.minimized();
        Row {
            label,
            before: plan.total_entries(),
            after: min.total_entries(),
            max_before: plan.stats().max_entries_per_chip,
            max_after: min.stats().max_entries_per_chip,
            violations: plan.verify_against(&min),
        }
    }

    /// The four placed workloads of the E13 table on a 4x4 machine.
    pub fn rows() -> Vec<Row> {
        let synfire = synfire_net(16, 512);
        let retina = retina_net(8, 512);
        let dense = dense_random_net();
        vec![
            measure(
                "synfire chain (locality)",
                &synfire,
                4,
                4,
                128,
                Placer::Locality,
            ),
            measure(
                "synfire chain (random)",
                &synfire,
                4,
                4,
                128,
                Placer::Random { seed: 0xE13 },
            ),
            measure("retina (locality)", &retina, 4, 4, 128, Placer::Locality),
            measure(
                "dense random placement",
                &dense,
                4,
                4,
                128,
                Placer::Random { seed: 0xD15E },
            ),
        ]
    }

    /// Builds a CAM-shaped table of `n` distinct core-block entries.
    pub fn synthetic_table(n: usize, seed: u64) -> McTable {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut table = McTable::new(n.max(1024));
        let mut used = std::collections::HashSet::new();
        while table.len() < n {
            let block = (rng.gen_range_usize(1 << 21)) as u32;
            if used.insert(block) {
                let (key, mask) = spinn_map::keys::core_key_mask(block);
                table
                    .insert(McTableEntry {
                        key,
                        mask,
                        route: RouteSet::from_bits(1 << (rng.gen_range_usize(26) + 6)),
                    })
                    .expect("capacity sized to n");
            }
        }
        table
    }

    /// Lookup throughput in millions of lookups per second:
    /// `(linear scan, compiled)` over a mixed hit/miss key stream.
    pub fn lookup_throughput(entries: usize, lookups: u64) -> (f64, f64) {
        let table = synthetic_table(entries, 0xE13);
        let compiled = CompiledTable::compile(&table);
        let keys: Vec<u32> = table
            .iter()
            .map(|e| e.key | 7)
            .chain((0..entries as u32 / 4).map(|i| !(i << 11)))
            .collect();
        let mps = |f: &dyn Fn(u32) -> Option<RouteSet>| {
            let mut acc = 0u32;
            let t0 = Instant::now();
            for i in 0..lookups {
                let key = keys[(i as usize * 7919) % keys.len()];
                acc ^= f(key).map_or(0, |r| r.bits());
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(acc);
            lookups as f64 / dt / 1e6
        };
        let linear = mps(&|k| table.lookup(k));
        let fast = mps(&|k| compiled.lookup(k));
        (linear, fast)
    }

    /// The E13 table.
    pub fn run(quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E13: routing-table minimization + compiled first-match lookup (§4)"
        );
        let _ = writeln!(
            out,
            "   masked-entry compression vs the 1024-entry CAM; hot-path lookup\n"
        );
        let _ = writeln!(
            out,
            "{:<26} {:>8} {:>8} {:>7} {:>10} {:>10} {:>11}",
            "workload", "entries", "minim.", "saved", "max/chip", "occupancy", "violations"
        );
        for row in rows() {
            let _ = writeln!(
                out,
                "{:<26} {:>8} {:>8} {:>6.1}% {:>6}->{:<3} {:>9.1}% {:>11}",
                row.label,
                row.before,
                row.after,
                row.saved_pct(),
                row.max_before,
                row.max_after,
                100.0 * row.max_after as f64 / 1024.0,
                row.violations,
            );
        }
        let lookups = if quick { 200_000 } else { 2_000_000 };
        let _ = writeln!(
            out,
            "\nlookup throughput, {lookups} lookups over a synthetic CAM:\n"
        );
        let _ = writeln!(
            out,
            "{:>13} {:>14} {:>14} {:>9}",
            "entries/chip", "linear M/s", "compiled M/s", "speedup"
        );
        for entries in [64usize, 256, 1024] {
            let (linear, fast) = lookup_throughput(entries, lookups);
            let _ = writeln!(
                out,
                "{:>13} {:>14.1} {:>14.1} {:>8.1}x",
                entries,
                linear,
                fast,
                fast / linear
            );
        }
        let _ = writeln!(
            out,
            "\nthe mapper's widened ternary entries keep sibling slices of one\npopulation to a single entry per chip (Ordered-Covering style, zero\nroute-equivalence violations), and the mask-bucketed compiled lookup\nreplaces the O(entries) CAM scan with one hash probe per distinct mask\n— the win grows with occupancy, exactly where the 1024-entry budget\nbites."
        );
        out
    }
}

/// A1 — ablation: the programmable router waits (wait1/wait2) trade
/// packet loss against blocked-time under bursty congestion (§5.3's
/// "programmable delay" registers).
pub mod a01_router_waits {
    use super::*;
    use spinn_noc::direction::Direction;
    use spinn_noc::fabric::{FabricConfig, FabricEvent, FabricSim};
    use spinn_noc::mesh::NodeCoord;
    use spinn_noc::packet::Packet;
    use spinn_noc::table::{McTableEntry, RouteSet};
    use spinn_sim::{Engine, SimTime};

    /// Sends a hard burst into one link and reports the outcome for one
    /// (wait1, wait2, queue capacity) setting.
    pub fn burst(wait1: u64, wait2: u64, cap: usize, n: u64) -> (f64, f64, u64) {
        let mut cfg = FabricConfig::new(8, 8);
        cfg.router.wait1_ns = wait1;
        cfg.router.wait2_ns = wait2;
        cfg.out_queue_cap = cap;
        let mut sim = FabricSim::new(cfg);
        let key = 0xA1;
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
            .router_mut(NodeCoord::new(4, 0))
            .table
            .insert(McTableEntry {
                key,
                mask: u32::MAX,
                route: RouteSet::EMPTY.with_core(1),
            })
            .unwrap();
        for i in 0..n {
            // 3x the link's drain rate: a genuine overload burst.
            sim.queue_injection(i * 55, NodeCoord::new(0, 0), Packet::multicast(key));
        }
        let mut engine = Engine::new(sim);
        engine.schedule_at(SimTime::ZERO, FabricEvent::Pump);
        engine.run_until(SimTime::new(n * 55 + 100_000_000));
        let sim = engine.into_model();
        let stats = sim.fabric.total_stats();
        (
            100.0 * sim.delivered() as f64 / n as f64,
            sim.latency().mean(),
            stats.dropped,
        )
    }

    /// The A1 table.
    pub fn run(quick: bool) -> String {
        let n = if quick { 200 } else { 1000 };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "A1 (ablation): router wait1/wait2 and queue depth under a 3x burst"
        );
        let _ = writeln!(
            out,
            "   {n}-packet burst at 55 ns spacing vs a 160 ns/packet link\n"
        );
        let _ = writeln!(
            out,
            "{:>9} {:>9} {:>7} {:>11} {:>12} {:>9}",
            "wait1 ns", "wait2 ns", "queue", "delivered", "mean lat ns", "dropped"
        );
        for (w1, w2, cap) in [
            (400u64, 800u64, 4usize),
            (2_000, 10_000, 4),
            (10_000, 50_000, 4),
            (2_000, 10_000, 1),
            (2_000, 10_000, 16),
        ] {
            let (pct, lat, dropped) = burst(w1, w2, cap, n);
            let _ = writeln!(
                out,
                "{w1:>9} {w2:>9} {cap:>7} {pct:>10.1}% {lat:>12.0} {dropped:>9}"
            );
        }
        let _ = writeln!(
            out,
            "\nlonger waits and deeper queues absorb bursts at the cost of blocked\ntime; the paper leaves both programmable for exactly this trade (§5.3)."
        );
        out
    }
}

/// A2 — ablation: default-route elision (§5.2): how much of the
/// 1024-entry CAM does the straight-through trick save?
pub mod a02_default_route_elision {
    use super::*;
    use spinn_map::place::{Placement, Placer};
    use spinn_map::route::RoutingPlan;

    /// `(placer, plan with elision, plan without)` for the E10 grid net
    /// on an 8x8 machine under each placer.
    pub fn rows() -> Vec<(&'static str, RoutingPlan, RoutingPlan)> {
        let net = super::e10_placement::grid_net(6, 64);
        [
            ("locality", Placer::Locality),
            ("round-robin", Placer::RoundRobin),
            ("random", Placer::Random { seed: 77 }),
        ]
        .into_iter()
        .map(|(label, placer)| {
            let placement = Placement::compute(&net, 8, 8, 17, 64, placer).unwrap();
            (
                label,
                RoutingPlan::build_with_options(&net, &placement, 8, 8, true),
                RoutingPlan::build_with_options(&net, &placement, 8, 8, false),
            )
        })
        .collect()
    }

    /// The A2 table.
    pub fn run(_quick: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "A2 (ablation): default-route elision and CAM pressure (§5.2)"
        );
        let _ = writeln!(
            out,
            "   6x6 grid-of-populations network on an 8x8 machine\n"
        );
        let _ = writeln!(
            out,
            "{:<14} {:>13} {:>13} {:>9} {:>15}",
            "placer", "entries", "w/o elision", "saved", "max/chip (cap 1024)"
        );
        for (label, with, without) in rows() {
            let _ = writeln!(
                out,
                "{:<14} {:>13} {:>13} {:>8.1}% {:>15}",
                label,
                with.total_entries(),
                without.total_entries(),
                100.0 * with.stats().elided_entries as f64 / without.total_entries().max(1) as f64,
                with.stats().max_entries_per_chip,
            );
        }
        let _ = writeln!(
            out,
            "\nthe worse the placement, the longer the straight default-routed runs —\nelision is what keeps arbitrary (virtualized) placements within the\n1024-entry CAM budget."
        );
        out
    }
}

/// E19 — Monte Carlo resilience campaigns (§6): spike-delivery
/// degradation vs link-failure rate from ≥ 1000 sessions forked off one
/// warm checkpoint, plus the repair arms (queued `RepairLink`, live
/// re-route) that claw delivery back. See `crate::resil` for the
/// harness; the quick campaign's delivery floors, paired recovery and
/// replay verdict are checked by `tests/paper_claims.rs`.
pub mod e19_resilience {
    use super::*;
    use crate::resil::{summarize, BucketSummary, Campaign, ForkOutcome, RepairPolicy};
    use spinnaker::prelude::*;
    use std::time::Instant;

    /// Campaign seed — every fork's fault schedule derives from it (and
    /// the fork id) alone, so the whole campaign replays bit-exactly.
    pub const SEED: u64 = 0x5EED_0E19;

    /// Failure rates swept by the degradation curve (fraction of the
    /// machine's cables failed per fork).
    /// The low end shows emergency routing (Fig. 8) absorbing sparse
    /// cable death outright; past ~0.25 the two-leg detours saturate
    /// and delivery falls — the region the repair arms operate in.
    pub const RATES: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.35, 0.5];

    /// The headline rate the repair arms run at.
    pub const HEADLINE_RATE: f64 = 0.35;

    /// The campaign workload: a feed-forward synfire chain scattered
    /// over the torus by random placement. The tonically-driven head
    /// launches a wave down the chain every firing cycle, so every
    /// downstream spike certifies delivery across the inter-chip links
    /// behind it; a dead cable silences the tail of the chain instead
    /// of merely perturbing re-entrant timing (which can *add* spikes
    /// and would blur the degradation curve).
    pub fn campaign_net(stages: u32, size: u32) -> (NetworkGraph, PopulationId) {
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let mut net = NetworkGraph::new();
        let pops: Vec<_> = (0..stages)
            .map(|i| net.population(&format!("s{i}"), size, kind, if i == 0 { 9.0 } else { 0.0 }))
            .collect();
        for (i, pair) in pops.windows(2).enumerate() {
            net.project(
                pair[0],
                pair[1],
                Connector::FixedFanOut(12),
                Synapses::constant(600, 2),
                i as u64,
            );
        }
        (net, pops[0])
    }

    /// Builds, warms and checkpoints the campaign session (forced
    /// shards, so sharded replays exercise real cross-shard traffic at
    /// any host parallelism).
    pub fn prepare() -> Campaign {
        let (net, input) = campaign_net(8, 96);
        let cfg = SimConfig::new(4, 4)
            .with_neurons_per_core(64)
            .with_placer(Placer::Random { seed: 0xE19 })
            .with_force_shards(true);
        Campaign::prepare(net, cfg, input, 20.0, 30, 90, (2, 30))
    }

    /// What one campaign measured.
    pub struct Report {
        /// Quick mode (a few forks per bucket) or full mode.
        pub quick: bool,
        /// The delivery-degradation curve: one unrepaired bucket per
        /// rate of [`RATES`].
        pub curve: Vec<BucketSummary>,
        /// The unrepaired, `repair_link` and `reroute` arms at
        /// [`HEADLINE_RATE`], on matched fault schedules.
        pub arms: Vec<BucketSummary>,
        /// Mean delivery ratio of the unrepaired control arm.
        pub unrepaired: f64,
        /// Mean delivery ratio of the `repair_link` arm.
        pub repair_link: f64,
        /// Mean delivery ratio of the `reroute` arm.
        pub reroute: f64,
        /// Standing fault load (emergency legs + drops) per fork,
        /// unrepaired.
        pub unrepaired_load: f64,
        /// The same, after the re-route.
        pub reroute_load: f64,
        /// Forks run, the baseline and the replays included.
        pub forks: u64,
        /// Forks run per wall-clock second.
        pub forks_per_sec: f64,
        /// The warm checkpoint's size, bytes.
        pub snapshot_bytes: usize,
        /// Every 2- and 4-thread replay reproduced its fork's spikes.
        pub bit_exact: bool,
    }

    impl Report {
        /// Share of the standing fault load the re-route takes off.
        pub fn reroute_load_cut(&self) -> f64 {
            if self.unrepaired_load > 0.0 {
                1.0 - self.reroute_load / self.unrepaired_load
            } else {
                0.0
            }
        }
    }

    /// Runs the campaign: the delivery-degradation curve, the repair
    /// arms on matched fault schedules, and the determinism replays.
    pub fn report(quick: bool) -> Report {
        // Full mode clears the 1000-fork acceptance bar:
        // 1 baseline + 6*160 curve + 3*100 repair arms + 8*3 replays.
        let (curve_forks, repair_forks, det_forks) = if quick {
            (4u32, 4u32, 2u32)
        } else {
            (160, 100, 8)
        };

        let campaign = prepare();
        let mut forks = 1u64; // the baseline fork inside prepare()

        let t0 = Instant::now();
        let curve = campaign.sweep(SEED, &RATES, RepairPolicy::Unrepaired, curve_forks, 0);
        forks += curve.len() as u64;

        // Repair arms on *matched* fault schedules: the same fork ids
        // (hence identical fault draws) run under each policy, so the
        // recovery deltas are paired, not resampled.
        const REPAIR_BASE: u32 = 50_000;
        let arm =
            |policy| campaign.sweep(SEED, &[HEADLINE_RATE], policy, repair_forks, REPAIR_BASE);
        let control = arm(RepairPolicy::Unrepaired);
        let repaired = arm(RepairPolicy::QueuedRepair { delay_ms: 15 });
        let rerouted = arm(RepairPolicy::Reroute { after_ms: 31 });
        forks += (control.len() + repaired.len() + rerouted.len()) as u64;
        let mean = |o: &[ForkOutcome]| -> f64 {
            o.iter().map(|f| f.delivery_ratio).sum::<f64>() / o.len() as f64
        };
        // Live repair has two observable effects, and the two arms split
        // them: restoring the cable (`repair_link`) rescues forks whose
        // topology was severed outright — a delivery-ratio gain that no
        // table rewrite can match — while re-routing the tables around
        // the dead cables (`reroute`) takes the standing emergency-detour
        // and drop load off the fabric (Fig. 8's mechanism is for
        // transient faults; permanent ones are supposed to be routed
        // around).
        let load = |o: &[ForkOutcome]| -> f64 {
            o.iter()
                .map(|f| (f.emergency_reroutes + f.dropped) as f64)
                .sum::<f64>()
                / o.len() as f64
        };

        // Determinism: replay a slice of the control arm at other
        // thread counts; every replay must reproduce the fork's spike
        // stream bit-exactly (compared via the FNV fingerprint).
        let mut bit_exact = true;
        for i in 0..det_forks {
            let fork = REPAIR_BASE + i;
            let base = campaign.run_fork(SEED, fork, HEADLINE_RATE, RepairPolicy::Unrepaired, None);
            for threads in [2u32, 4] {
                let replay = campaign.run_fork(
                    SEED,
                    fork,
                    HEADLINE_RATE,
                    RepairPolicy::Unrepaired,
                    Some(threads),
                );
                bit_exact &= replay.spike_hash == base.spike_hash && replay.spikes == base.spikes;
            }
            forks += 3;
        }

        Report {
            quick,
            curve: summarize(&curve),
            arms: [&control, &repaired, &rerouted]
                .into_iter()
                .flat_map(|o| summarize(o))
                .collect(),
            unrepaired: mean(&control),
            repair_link: mean(&repaired),
            reroute: mean(&rerouted),
            unrepaired_load: load(&control),
            reroute_load: load(&rerouted),
            forks,
            forks_per_sec: forks as f64 / t0.elapsed().as_secs_f64(),
            snapshot_bytes: campaign.snapshot_bytes(),
            bit_exact,
        }
    }

    /// The E19 table.
    pub fn run(quick: bool) -> String {
        format(&report(quick))
    }

    /// Formats a campaign as the human-readable E19 table.
    fn format(r: &Report) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E19: resilience campaigns — Monte Carlo fault sweeps + live repair ({} mode)",
            if r.quick { "quick" } else { "full" },
        );
        let _ = writeln!(
            out,
            "   §6 keep-computing-through-death: forks from one warm checkpoint under\n   randomized link-failure schedules, scored against the fault-free baseline\n"
        );
        let _ = writeln!(
            out,
            "{:>12} {:>8} {:>9} {:>10} {:>10} {:>10} {:>9}",
            "failure rate", "forks", "links", "delivery", "worst", "emergency", "dropped"
        );
        for b in &r.curve {
            let _ = writeln!(
                out,
                "{:>12.3} {:>8} {:>9.1} {:>10.3} {:>10.3} {:>10.1} {:>9.1}",
                b.failure_rate,
                b.forks,
                b.links_failed_mean,
                b.delivery_ratio_mean,
                b.delivery_ratio_min,
                b.emergency_reroutes_mean,
                b.dropped_mean,
            );
        }
        for b in &r.arms {
            let _ = writeln!(
                out,
                "  repair arm {:<12} at rate {:.3}: delivery {:.3} (worst {:.3})",
                b.policy, b.failure_rate, b.delivery_ratio_mean, b.delivery_ratio_min,
            );
        }
        let _ = writeln!(
            out,
            "  recovery at rate {HEADLINE_RATE:.3}: unrepaired {:.3} -> repair_link {:.3} (+{:.3}), reroute {:.3} (+{:.3})",
            r.unrepaired,
            r.repair_link,
            r.repair_link - r.unrepaired,
            r.reroute,
            r.reroute - r.unrepaired,
        );
        let _ = writeln!(
            out,
            "  reroute cuts standing fault load (emergency legs + drops) {:.1} -> {:.1} per fork ({:.0}% off)",
            r.unrepaired_load,
            r.reroute_load,
            r.reroute_load_cut() * 100.0,
        );
        let _ = writeln!(
            out,
            "  campaign: {} forks ({:.1}/s) from one {}-byte checkpoint; replays bit-exact: {}",
            r.forks, r.forks_per_sec, r.snapshot_bytes, r.bit_exact,
        );
        let _ = writeln!(
            out,
            "\nthe quick campaign is a unit test of this module: a delivery floor per\nfailure-rate bucket, paired repair recovery > 0, bit-exact replays."
        );
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn formatter_smoke_on_synthetic_records() {
            let bucket = BucketSummary {
                failure_rate: 0.1,
                policy: "none",
                forks: 4,
                links_failed_mean: 5.0,
                delivery_ratio_mean: 0.8,
                delivery_ratio_min: 0.7,
                emergency_reroutes_mean: 12.0,
                dropped_mean: 3.0,
                reissued_mean: 3.0,
            };
            let report = Report {
                quick: true,
                curve: vec![bucket.clone()],
                arms: vec![BucketSummary {
                    policy: "repair_link",
                    ..bucket
                }],
                unrepaired: 0.8,
                repair_link: 0.95,
                reroute: 0.9,
                unrepaired_load: 120.0,
                reroute_load: 60.0,
                forks: 21,
                forks_per_sec: 50.0,
                snapshot_bytes: 123_456,
                bit_exact: true,
            };
            let text = format(&report);
            assert!(text.contains("failure rate"), "{text}");
            assert!(text.contains("repair_link"), "{text}");
            assert!(text.contains("(50% off)"), "{text}");
            assert!(text.contains("bit-exact: true"), "{text}");
        }

        #[test]
        fn campaign_net_is_a_chain() {
            let (net, input) = campaign_net(4, 16);
            assert_eq!(net.total_neurons(), 64);
            assert_eq!(input.index(), 0);
        }
    }
}

/// E20 — compute beyond a million cores: the scaling study. One
/// population per chip on meshes from 32 x 32 up to the paper's full
/// 256 x 256 machine (>10^6 cores loaded, >10^9 synapses), built
/// through the streaming loader into compressed lazy arenas and run
/// serially and sharded. Quick mode stops at 16 x 16; `SPINN_FULL=1`
/// re-measures the whole ladder.
pub mod e20_scaling {
    use super::*;
    use spinnaker::prelude::*;
    use std::time::Instant;

    /// Cores per chip for the study: 16 application cores + monitor,
    /// so a 256 x 256 mesh loads exactly 2^20 application cores.
    pub const CORES_PER_CHIP: u8 = 17;
    /// Neurons per chip (16 app cores x 8 neurons each).
    const NEURONS_PER_CHIP: u32 = 128;
    /// Neurons per application core.
    pub const NPC: u32 = 8;

    /// Peak resident set of this process so far, bytes (Linux
    /// `/proc/self/status` `VmHWM`; 0 where unavailable). Monotone over
    /// the process lifetime, so rows are ordered smallest mesh first
    /// and each row's value approximates that row's true peak.
    fn peak_rss_bytes() -> u64 {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse::<u64>().ok())
            .unwrap_or(0)
            * 1024
    }

    /// The scaling workload: one `NEURONS_PER_CHIP`-neuron population
    /// per chip, chained into a ring of `AllToAll` constant-weight
    /// projections (so every chip holds 128 x 128 = 16 Ki synapses and
    /// a 256 x 256 mesh holds 2^30). Constant `AllToAll` rows are
    /// analytic for the generator, so the lazy loader stores each as a
    /// recipe and only spike-touched rows ever materialize. Only chip
    /// 0's population is biased: activity trickles around the ring
    /// while the other ~65 k chips sit idle — the configuration the
    /// paper's "interrupt-driven, no polling" energy argument cares
    /// about, and the one that exposes any O(all chips) per-tick cost.
    pub fn chip_ring_net(chips: u32) -> NetworkGraph {
        let kind = NeuronKind::Izhikevich(IzhikevichParams::regular_spiking());
        let mut net = NetworkGraph::new();
        let pops: Vec<_> = (0..chips)
            .map(|i| {
                let bias = if i == 0 { 9.0 } else { 0.0 };
                net.population(&format!("c{i}"), NEURONS_PER_CHIP, kind, bias)
            })
            .collect();
        for (i, &src) in pops.iter().enumerate() {
            let dst = pops[(i + 1) % pops.len()];
            net.project(
                src,
                dst,
                Connector::AllToAll { allow_self: false },
                Synapses::constant(40, 1),
                0xE20 ^ i as u64,
            );
        }
        net
    }

    /// One scaling-sweep cell.
    pub struct Row {
        /// Mesh edge (the machine is `edge x edge` chips).
        pub edge: u32,
        /// Application cores loaded.
        pub loaded_cores: u64,
        /// Thread count asked for.
        pub threads: u32,
        /// The thread count after the clamp to host parallelism.
        pub effective_threads: usize,
        /// Build wall-clock, s.
        pub build_s: f64,
        /// Run wall-clock, ms.
        pub wall_ms: f64,
        /// Host ns per neuron update.
        pub ns_per_neuron: f64,
        /// Resident synapse-store bytes per synapse after the run.
        pub bytes_per_synapse: f64,
        /// Resident synapse-store MiB after the run.
        pub resident_mb: f64,
        /// Peak resident set of the process so far, MiB.
        pub peak_rss_mb: f64,
    }

    /// Builds and runs one scaling-sweep cell: build time, wall clock,
    /// per-neuron cost and the resident memory per synapse next to the
    /// *post-clamp* thread count.
    #[allow(clippy::cast_precision_loss)]
    fn scaling_case(net: &NetworkGraph, edge: u32, threads: u32, ms: u32) -> Row {
        let mut cfg = SimConfig::new(edge, edge)
            .with_neurons_per_core(NPC)
            .with_threads(threads)
            .with_observability(ObsMode::CountersAndTrace);
        cfg.machine.cores_per_chip = CORES_PER_CHIP;
        let t0 = Instant::now();
        let sim = Simulation::build(net, cfg).expect("ring net fits one pop per chip");
        let build_s = t0.elapsed().as_secs_f64();
        let effective_threads = sim.machine().effective_threads(threads as usize);
        let loaded_cores = sim
            .machine()
            .chip_occupancy()
            .iter()
            .map(|o| u64::from(o.loaded_cores))
            .sum::<u64>();
        let synapses = sim.machine().total_synapses();
        let t1 = Instant::now();
        let done = sim.run(ms);
        let wall_ms = t1.elapsed().as_secs_f64() * 1e3;
        let resident = done.machine.total_resident_bytes();
        Row {
            edge,
            loaded_cores,
            threads,
            effective_threads,
            build_s,
            wall_ms,
            ns_per_neuron: done.machine.telemetry().ns_per_neuron(),
            bytes_per_synapse: resident as f64 / synapses as f64,
            resident_mb: resident as f64 / (1024.0 * 1024.0),
            peak_rss_mb: peak_rss_bytes() as f64 / (1024.0 * 1024.0),
        }
    }

    /// The mesh x thread scaling grid, smallest mesh first so the
    /// monotone peak-RSS counter approximates each row's own peak.
    pub fn rows(quick: bool) -> Vec<Row> {
        let (edges, thread_grid, ms): (&[u32], &[u32], u32) = if quick {
            (&[8, 16], &[1, 4], 20)
        } else {
            (&[32, 64, 128, 256], &[1, 4, 32], 10)
        };
        let mut rows = Vec::new();
        for &edge in edges {
            let net = chip_ring_net(edge * edge);
            for &threads in thread_grid {
                // The full 2^16-chip mesh runs the 1-thread cell plus
                // one parallel cell; re-running an 8-million-neuron
                // serial run per thread count buys nothing.
                if edge >= 256 && threads > 1 && threads != thread_grid[thread_grid.len() - 1] {
                    continue;
                }
                rows.push(scaling_case(&net, edge, threads, ms));
            }
        }
        rows
    }

    /// The E20 table.
    pub fn run(quick: bool) -> String {
        format(quick, &rows(quick))
    }

    /// Formats the scaling rows as the human-readable E20 table.
    pub fn format(quick: bool, rows: &[Row]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E20: scaling study — a million cores, a billion synapses, one host ({} mode)",
            if quick { "quick" } else { "full" },
        );
        let _ = writeln!(
            out,
            "   one population per chip, ring-connected; constant all-to-all rows stay\n   compressed generator recipes until a spike's DMA touches them\n"
        );
        let _ = writeln!(
            out,
            "{:>9} {:>9} {:>8}/{:<4} {:>9} {:>9} {:>11} {:>10} {:>9} {:>9}",
            "mesh",
            "cores",
            "thr",
            "eff",
            "build s",
            "wall ms",
            "ns/neuron",
            "B/synapse",
            "res MB",
            "RSS MB"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:>9} {:>9} {:>8}/{:<4} {:>9.2} {:>9.1} {:>11.1} {:>10.2} {:>9.1} {:>9.1}",
                format!("{0}x{0}", r.edge),
                r.loaded_cores,
                r.threads,
                r.effective_threads,
                r.build_s,
                r.wall_ms,
                r.ns_per_neuron,
                r.bytes_per_synapse,
                r.resident_mb,
                r.peak_rss_mb,
            );
        }
        out
    }
}
