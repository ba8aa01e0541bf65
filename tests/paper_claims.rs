//! The paper's claims, one test per experiment table (E1-E11, E13, A1,
//! A2, E19, E20), each run in quick mode on the rows the table prints
//! (`cargo run --release --example paper`).
//!
//! Each test asserts the claim as the README or the table's caption
//! states it, and its message names the paper section. Where the model
//! does not show a claim, the test says "not reproduced" in its name
//! and message and asserts what the model does produce instead; the
//! README's "Paper claims" table lists both kinds.

use spinn_system::experiments::*;
use spinnaker::machine::config::MachineConfig;
use spinnaker::machine::energy::{
    energy_cost_crossover_years, CostEffectiveness, DESKTOP_CLASS, SPINNAKER_NODE_CLASS,
};
use spinnaker::prelude::*;

/// E1 (§5.1, Fig. 6): transition sensing "reduced the occurrence of
/// deadlocks in our glitch simulations by a factor 1,000". At 150 trials
/// a rate no study can show a factor above 300 (conventional deadlocks
/// over half a deadlock), so the factor itself is not reproduced; what
/// the model shows is zero transition-sensing deadlocks at every glitch
/// rate while the conventional converter deadlocks at all of them, and
/// that the transition-sensing link keeps passing (corrupt) data.
#[test]
fn e1_transition_sensing_never_deadlocks_factor_1000_not_reproduced() {
    let rows = e01_glitch_deadlock::study(true);
    for s in &rows {
        assert_eq!(
            s.transition_sensing_deadlocks, 0,
            "§5.1: the transition-sensing converter deadlocked at {:e} Hz",
            s.glitch_rate_hz
        );
        assert!(
            s.conventional_deadlocks > 0,
            "§5.1: the conventional converter never deadlocked at {:e} Hz",
            s.glitch_rate_hz
        );
    }
    let best = rows
        .iter()
        .map(|s| s.improvement_factor())
        .fold(0.0, f64::max);
    assert!(
        (100.0..1000.0).contains(&best),
        "§5.1: factor 1,000 not reproduced at {} trials; the best lower bound is {best:.0}x",
        rows[0].trials
    );
    let worst = rows.last().expect("five rates");
    assert!(
        worst.transition_sensing_corruption > 0.0,
        "§5.1: at {:e} Hz the transition-sensing link must keep passing data, albeit with errors",
        worst.glitch_rate_hz
    );
}

/// E2 (§5.1): "the 2-of-7 NRZ code delivers twice the performance for
/// less than half the energy per 4-bit symbol" than 3-of-6 RTZ.
#[test]
fn e2_nrz_twice_the_performance_for_less_than_half_the_energy() {
    for (nrz, rtz) in e02_link_protocols::rows(true) {
        let wire = nrz.wire_delay_ps;
        let speedup = nrz.msymbols_per_s / rtz.msymbols_per_s;
        assert!(
            speedup >= 2.0,
            "§5.1: NRZ is {speedup:.2}x RTZ's symbol rate at {wire} ps wire delay, not twice"
        );
        assert!(
            nrz.pj_per_symbol < 0.5 * rtz.pj_per_symbol,
            "§5.1: NRZ costs {:.2} pJ per symbol against RTZ's {:.2} at {wire} ps, not less than half",
            nrz.pj_per_symbol,
            rtz.pj_per_symbol
        );
        assert_eq!(
            (nrz.transitions_per_symbol, rtz.transitions_per_symbol),
            (3.0, 8.0),
            "§5.1: 2-of-7 NRZ takes 3 wire transitions per symbol, 3-of-6 RTZ 8"
        );
    }
}

/// E3 (§5.3, Fig. 8): packets are redirected "around the two other
/// sides of one of the mesh triangles"; without the mechanism the
/// router "gives up and drops the packet". The detour costs the wait
/// before the router gives up on the dead link, plus about one hop.
#[test]
fn e3_emergency_routing_goes_around_a_dead_link() {
    use e03_emergency_routing::scenario;
    let n = 300;
    let healthy = scenario("healthy link", n, 500, false, true);
    let detour = scenario("failed link + emergency", n, 500, true, true);
    let lost = scenario("failed link, no emergency", n, 500, true, false);
    assert_eq!(
        (healthy.delivered_pct, healthy.reroutes),
        (100.0, 0),
        "§5.3: a healthy 6-hop path delivers everything without detours"
    );
    assert_eq!(
        (detour.delivered_pct, detour.reroutes, detour.dropped),
        (100.0, n, 0),
        "§5.3: emergency routing must take every packet around the dead link"
    );
    assert_eq!(
        (lost.delivered_pct, lost.dropped),
        (0.0, n),
        "§5.3: without emergency routing the router drops every packet"
    );
    // The scenario's first wait is 2 000 ns; a hop is a sixth of the
    // healthy 6-hop latency.
    let hop = healthy.mean_latency_ns / 6.0;
    let extra = detour.mean_latency_ns - healthy.mean_latency_ns - 2_000.0;
    assert!(
        (0.0..=1.5 * hop).contains(&extra),
        "§5.3: the detour should cost the wait plus ~one hop ({hop:.0} ns), costs {extra:.0} ns more"
    );
}

/// E4 (§3.1, Fig. 7): "the communications fabric is designed to
/// deliver mc packets in significantly under 1 ms, whatever the
/// distance from source to destination".
#[test]
fn e4_spike_delivery_takes_well_under_a_millisecond() {
    let mut last_max = 0;
    for hops in [0u32, 1, 2, 4, 8] {
        let (p50, p99, max) = e04_realtime_latency::at_distance(hops, 100);
        assert!(
            p50 <= p99 && p99 <= max,
            "§3.1: at {hops} hops p50 {p50} ns <= p99 {p99} ns <= max {max} ns must hold"
        );
        assert!(
            max < 10_000,
            "§3.1: the worst spike at {hops} hops took {max} ns, not well under 1 ms"
        );
        assert!(
            max >= last_max,
            "§3.1: latency must grow with distance ({hops} hops: {max} ns < {last_max} ns)"
        );
        last_max = max;
    }
}

/// E5 (§5.2): flood-fill gives "load times almost independent of the
/// size of the machine, with trade-offs between load time and the
/// degree of fault-tolerance ... the number of times a node receives
/// each component". Size independence holds. The trade-off is not
/// reproduced: the last chip to finish hears each block from several
/// equidistant neighbours at the same instant, so asking for 2 or 3
/// copies costs no load time at all, and no extra packets.
#[test]
fn e5_load_time_independent_of_size_redundancy_tradeoff_not_reproduced() {
    let rows = e05_flood_fill::rows(true);
    let load_us = |w: u32, k: u8| {
        let (_, o) = rows
            .iter()
            .find(|(c, _)| c.width == w && c.redundancy_k == k)
            .expect("row in the table");
        o.load_complete_ns.expect("load completes") as f64 / 1e3
    };
    for (cfg, o) in &rows {
        assert_eq!(
            o.nn_packets,
            u64::from(cfg.width * cfg.height * cfg.blocks) * 6,
            "§5.2: every chip forwards every block once on each of its six links"
        );
    }
    let growth = load_us(24, 1) / load_us(4, 1);
    assert!(
        growth < 1.02,
        "§5.2: 36x the chips costs {growth:.3}x the load time, not almost nothing"
    );
    let (k1, k3) = (load_us(8, 1), load_us(8, 3));
    assert_eq!(
        k3, k1,
        "§5.2 trade-off is listed as not reproduced; k=3 now loads in {k3:.3} us against \
         k=1's {k1:.3} us, so update README's Paper claims"
    );
}

/// E6 (§5.2): the read-sensitive register ensures "one and only one
/// processor is chosen as Monitor", and coordinates propagate from
/// (0,0) in O(diameter). Rescue of failed neighbours is not reproduced:
/// even at 60 % core faults no chip loses all its cores, so no rescue
/// runs.
#[test]
fn e6_one_monitor_per_chip_rescue_not_reproduced() {
    let rows = e06_boot::rows();
    for (cfg, o) in &rows {
        assert!(
            !o.election_violated,
            "§5.2: a chip elected two monitors ({}x{}, {:.0}% faults)",
            cfg.width,
            cfg.height,
            cfg.core_fault_prob * 100.0
        );
        assert_eq!(
            o.monitors_first_round,
            (cfg.width * cfg.height) as usize,
            "§5.2: every chip must elect its one monitor"
        );
        assert_eq!(
            (o.rescued, o.dead_chips),
            (0, 0),
            "§5.2 rescue not reproduced: the table never kills a whole chip"
        );
    }
    let coords = |w: u32| {
        let (_, o) = rows
            .iter()
            .find(|(c, _)| c.width == w && c.core_fault_prob == 0.0)
            .expect("row in the table");
        o.coords_complete_ns.expect("coordinates complete") as f64
    };
    assert!(
        coords(24) / coords(4) < 1.1,
        "§5.2: coordinates should reach a 24x24 machine almost as fast as a 4x4 one"
    );
}

/// E7 (§2, §3.3): "on energy-efficiency the embedded processors win by
/// an order of magnitude", and "the energy cost of a PC equals the
/// purchase cost after a little more than three years". Both hold for
/// the processor-class figures the model is given. The machine's own
/// energy meter does not reproduce the order of magnitude: under load
/// it measures more MIPS per watt than the desktop, but not ten times.
#[test]
fn e7_order_of_magnitude_energy_win_holds_for_class_figures_measured_not_reproduced() {
    let desktop = CostEffectiveness::of(&DESKTOP_CLASS);
    let node = CostEffectiveness::of(&SPINNAKER_NODE_CLASS);
    let win = node.mips_per_watt / desktop.mips_per_watt;
    assert!(
        win >= 10.0,
        "§2: the node wins {win:.1}x on MIPS/W, not an order of magnitude"
    );
    let years = energy_cost_crossover_years(&e07_cost_energy::PC, 1.0);
    assert!(
        (3.0..4.0).contains(&years),
        "§2: a PC's energy cost passes its price after {years:.1} years, not a little over three"
    );
    let m = e07_cost_energy::measured(true);
    assert!(
        m.spikes > 0 && m.mips_per_watt > desktop.mips_per_watt,
        "§3.3: the loaded machine measures {:.0} MIPS/W, not above the desktop's {:.0}",
        m.mips_per_watt,
        desktop.mips_per_watt
    );
    assert!(
        m.mips_per_watt < 10.0 * desktop.mips_per_watt,
        "§3.3: the measured order-of-magnitude win is listed as not reproduced; \
         {:.0} MIPS/W now reproduces it, so update README's Paper claims",
        m.mips_per_watt
    );
}

/// E8 (§4): the packet-switched multicast mechanism is used "to reduce
/// total communication loading": the tree never costs more than one
/// unicast per destination and beats broadcast up to half the machine.
#[test]
fn e8_multicast_tree_beats_unicast_and_broadcast() {
    for (dests, c) in e08_multicast_vs_broadcast::rows() {
        assert!(
            c.multicast_edges <= c.unicast_edges,
            "§4: the tree to {dests} chips costs more than unicast"
        );
        if dests >= 4 {
            assert!(
                c.multicast_edges < c.unicast_edges,
                "§4: the tree to {dests} chips saves nothing over unicast"
            );
        }
        assert!(
            c.multicast_edges < c.broadcast_edges,
            "§4: the tree to {dests} chips costs as much as a broadcast"
        );
    }
}

/// E9 (§1, §6): the full machine reaches "around 200 teraIPS", and real
/// time holds at every measured size with a per-chip load that does not
/// grow with the machine.
#[test]
fn e9_real_time_at_every_size_and_around_200_teraips() {
    let rows = e09_scaling::sweep(&[2, 3, 4], 80);
    for r in &rows {
        assert_eq!(
            r.violations, 0,
            "§6: a {0}x{0} machine missed real time",
            r.w
        );
    }
    let per_chip: Vec<f64> = rows
        .iter()
        .map(|r| r.syn_events_per_s / f64::from(r.w * r.w))
        .collect();
    let (lo, hi) = per_chip
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    assert!(
        hi < 1.1 * lo,
        "§6: synaptic events per chip should not depend on machine size: {per_chip:?}"
    );
    let full = MachineConfig::million_core();
    let teraips =
        full.chips() as f64 * f64::from(full.cores_per_chip) * f64::from(full.cpu_mhz) / 1e6;
    assert!(
        (200.0..300.0).contains(&teraips),
        "§1: the full machine peaks at {teraips:.0} teraIPS, not around 200"
    );
}

/// E10 (§3.2): "in principle any neuron can be mapped onto any
/// processor" — the raster is the same under every placement. Locality
/// is claimed to "minimize routing costs": it beats random placement,
/// but round-robin placement uses fewer packet hops than locality on
/// this net, so that half is not reproduced.
#[test]
fn e10_raster_identical_under_every_placement_locality_vs_round_robin_not_reproduced() {
    let rows = e10_placement::rows(true);
    let (locality, round_robin, random) = (&rows[0], &rows[1], &rows[2]);
    assert!(!locality.raster.is_empty(), "§3.2: the grid net must fire");
    for r in &rows[1..] {
        assert!(
            r.raster == locality.raster,
            "§3.2: the {} placement changed the spike raster",
            r.label
        );
    }
    assert!(
        locality.packet_hops < random.packet_hops,
        "§3.2: locality ({}) must use fewer packet hops than random placement ({})",
        locality.packet_hops,
        random.packet_hops
    );
    assert!(
        round_robin.packet_hops < locality.packet_hops,
        "§3.2 locality vs round-robin is listed as not reproduced; locality ({}) now beats \
         round-robin ({}), so update README's Paper claims",
        locality.packet_hops,
        round_robin.packet_hops
    );
}

/// E11 (§5.4): "if a neuron fails ... a near-neighbour with a similar
/// receptive field will take over and very little information will be
/// lost". The overlapping two-scale layer degrades gracefully. The
/// ablation is not reproduced: the single-scale layer's reconstruction
/// does not fall faster; it stays at 1.000 up to 30 % killed.
#[test]
fn e11_overlapping_retina_degrades_gracefully_ablation_not_reproduced() {
    let rows = e11_retina::rows(true);
    for pair in rows.windows(2) {
        assert!(
            pair[1].code_sim < pair[0].code_sim && pair[1].recon_corr < pair[0].recon_corr,
            "§5.4: killing {:.0}% must lose more than killing {:.0}%",
            pair[1].killed * 100.0,
            pair[0].killed * 100.0
        );
    }
    for r in rows.iter().filter(|r| r.killed <= 0.2) {
        assert!(
            r.recon_corr > 0.95,
            "§5.4: with {:.0}% killed the reconstruction correlates only {:.3}",
            r.killed * 100.0,
            r.recon_corr
        );
    }
    for r in rows.iter().filter(|r| r.killed > 0.0 && r.killed <= 0.3) {
        assert!(
            r.recon_single_scale >= r.recon_corr,
            "§5.4 ablation is listed as not reproduced; at {:.0}% killed the single scale \
             ({:.3}) now falls below the overlapping layer ({:.3}), so update README's Paper claims",
            r.killed * 100.0,
            r.recon_single_scale,
            r.recon_corr
        );
    }
}

/// E13 (§4): the mapper's masked-entry minimization keeps every route
/// exactly as it was while shrinking the tables well inside the
/// 1024-entry CAM.
#[test]
fn e13_minimized_tables_route_identically_in_fewer_entries() {
    for row in e13_table_minimization::rows() {
        assert_eq!(
            row.violations, 0,
            "§4: minimization changed a route ({})",
            row.label
        );
        assert!(
            row.saved_pct() > 25.0 && row.max_after <= 1024,
            "§4: {} minimized {} -> {} entries, max {} per chip",
            row.label,
            row.before,
            row.after,
            row.max_after
        );
    }
}

/// A1 (§5.3): the router's programmable waits trade packet loss for
/// blocked time: longer waits deliver more of a 3x burst and take
/// longer. Deeper queues are claimed to do the same; that is not
/// reproduced, since a one-packet queue delivers at least as much as a
/// four-packet one.
#[test]
fn a1_longer_waits_absorb_bursts_deeper_queues_not_reproduced() {
    use a01_router_waits::burst;
    let n = 200;
    let waits: Vec<(f64, f64, u64)> = [(400, 800), (2_000, 10_000), (10_000, 50_000)]
        .into_iter()
        .map(|(w1, w2)| burst(w1, w2, 4, n))
        .collect();
    assert!(
        waits[0].2 > 0 && waits[2].2 == 0,
        "§5.3: short waits must drop part of the burst and long ones none: {waits:?}"
    );
    for pair in waits.windows(2) {
        assert!(
            pair[1].0 >= pair[0].0 && pair[1].1 > pair[0].1,
            "§5.3: a longer wait must deliver no less and take longer: {waits:?}"
        );
    }
    let (shallow, deep) = (burst(2_000, 10_000, 1, n), burst(2_000, 10_000, 16, n));
    assert!(
        deep.0 >= waits[1].0,
        "§5.3: a 16-packet queue delivers {:.1}% against a 4-packet queue's {:.1}%",
        deep.0,
        waits[1].0
    );
    assert!(
        shallow.0 >= waits[1].0,
        "§5.3 queue depth is listed as not reproduced; a 1-packet queue ({:.1}%) now \
         delivers less than a 4-packet one ({:.1}%), so update README's Paper claims",
        shallow.0,
        waits[1].0
    );
}

/// A2 (§5.2): default routing lets a chip on a straight run of the
/// tree hold no entry; the worse the placement, the more it saves.
#[test]
fn a2_default_route_elision_saves_most_under_random_placement() {
    let saved: Vec<(&str, f64)> = a02_default_route_elision::rows()
        .into_iter()
        .map(|(label, with, without)| {
            assert!(
                with.total_entries() < without.total_entries()
                    && with.stats().max_entries_per_chip <= 1024,
                "§5.2: elision saved nothing under {label} placement"
            );
            (
                label,
                1.0 - with.total_entries() as f64 / without.total_entries() as f64,
            )
        })
        .collect();
    let random = saved.iter().find(|(l, _)| *l == "random").expect("row").1;
    assert!(
        saved.iter().all(|&(_, s)| s <= random),
        "§5.2: random placement should gain the most from elision: {saved:?}"
    );
}

/// Minimum acceptable mean delivery ratio at a given cable-failure
/// rate. Linear in the failure rate with generous slack below the
/// measured curve (full mode measures ~1.0, 0.997, 0.974, 0.881,
/// 0.694, 0.497 at rates 0, 0.05, 0.1, 0.2, 0.35, 0.5): emergency
/// routing must keep absorbing sparse death, and heavy death must not
/// collapse below what detours + monitor reissue recover.
fn resilience_floor(rate: f64) -> f64 {
    if rate == 0.0 {
        return 0.999;
    }
    (0.92 - 1.3 * rate).max(0.15)
}

/// E19 (§6): the machine keeps computing through component death.
#[test]
fn e19_quick_campaign_clears_the_floors() {
    use e19_resilience::{report, RATES};
    // The campaign is seeded, so the numbers are exact: the
    // curve reads 1.000 / 1.000 / 1.000 / 0.679 / 0.891 / 0.743
    // against floors 0.999 / 0.855 / 0.790 / 0.660 / 0.465 /
    // 0.270, repair_link recovers +0.058 and the re-route cuts
    // the fault load by 63 %. The 0.2 bucket's margin of 0.019
    // is the floor doing its job, not slack to spend.
    let r = report(true);
    assert_eq!(r.curve.len(), RATES.len());
    for b in &r.curve {
        let floor = resilience_floor(b.failure_rate);
        assert!(
            b.delivery_ratio_mean >= floor,
            "§6: rate {}: delivery {:.3} under its floor {floor:.3}",
            b.failure_rate,
            b.delivery_ratio_mean
        );
    }
    assert!(
        r.repair_link > r.unrepaired,
        "§6: repair_link must recover delivery: {:.3} vs {:.3}",
        r.repair_link,
        r.unrepaired
    );
    assert!(
        r.reroute_load_cut() > 0.0,
        "§6: the re-route must cut the fault load: {:.1} -> {:.1}",
        r.unrepaired_load,
        r.reroute_load
    );
    assert!(r.bit_exact, "§6: a 2- or 4-thread replay diverged");
}

/// E20 (§1, §6): "computing beyond a million processors" on one host:
/// lazy generator rows keep the synapse store small enough that the
/// full machine's 2^30 synapses fit in under 2 GiB, and the fixed cost
/// per core amortizes as the mesh grows.
#[test]
fn e20_lazy_rows_fit_a_billion_synapses_on_one_host() {
    use e20_scaling::{rows, NPC};
    let rows = rows(true);
    for r in &rows {
        assert_eq!(
            r.loaded_cores,
            u64::from(r.edge * r.edge) * 16,
            "§6: every application core of the {0}x{0} mesh must be loaded",
            r.edge
        );
        // Quick mode reads 1.52 B at 8x8 and 1.38 B at 16x16: one
        // recipe per core, 8 B per row, and the rows spikes touched.
        assert!(
            r.bytes_per_synapse < 1.55,
            "§1: {:.2} B per synapse puts 2^30 synapses above 1.55 GiB ({}x{} mesh, {NPC} neurons per core)",
            r.bytes_per_synapse,
            r.edge,
            r.edge
        );
    }
    let (small, large) = (&rows[0], &rows[rows.len() - 1]);
    assert!(
        large.edge > small.edge && large.bytes_per_synapse < small.bytes_per_synapse,
        "§1: bytes per synapse must fall as the mesh grows"
    );
}

#[test]
fn e20_formatter_smoke_on_synthetic_records() {
    use e20_scaling::{format, Row};
    let row = Row {
        edge: 32,
        loaded_cores: 16384,
        threads: 4,
        effective_threads: 1,
        build_s: 1.5,
        wall_ms: 220.0,
        ns_per_neuron: 80.0,
        bytes_per_synapse: 1.4,
        resident_mb: 22.0,
        peak_rss_mb: 310.0,
    };
    let text = format(true, &[row]);
    assert!(text.contains("32x32"), "{text}");
    assert!(text.contains("4/1"), "{text}");
}

#[test]
fn e20_ring_net_synapse_count() {
    use e20_scaling::chip_ring_net;
    let net = chip_ring_net(16);
    assert_eq!(net.total_neurons(), 16 * 128);
    let expected: u64 = net
        .projections()
        .iter()
        .map(|p| p.pairs(net.pop(p.src).size, net.pop(p.dst).size).len() as u64)
        .sum();
    assert_eq!(expected, 16 * 128 * 128);
}

#[test]
fn e20_quick_scaling_cell_loads_every_chip() {
    use e20_scaling::{chip_ring_net, CORES_PER_CHIP, NPC};
    let net = chip_ring_net(16);
    let mut cfg = SimConfig::new(4, 4).with_neurons_per_core(NPC);
    cfg.machine.cores_per_chip = CORES_PER_CHIP;
    let sim = Simulation::build(&net, cfg).expect("fits");
    assert_eq!(sim.machine().total_synapses(), 16 * 128 * 128);
    // Analytic constant rows: everything stays lazy at load.
    assert!(sim.machine().total_lazy_rows() > 0);
}
