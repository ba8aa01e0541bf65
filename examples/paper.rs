//! Prints every experiment's table (E1-E11, E13, A1, A2, E19, E20).
//! `SPINN_FULL=1` for the full-size versions quoted in the README.
//!
//! Usage: `cargo run --release --example paper [NAME...]` — with
//! arguments, only the named tables print (e.g. `paper E19`). `FIGURES`
//! prints the paper's structural figures (Figs. 1-5, 7), and only when
//! named. An unknown name exits with status 2 before anything runs.

use spinn_system::experiments as e;
use spinn_system::figures;

/// One table: its name and generator.
type Experiment = (&'static str, fn(bool) -> String);

/// Every experiment, in print order.
const EXPERIMENTS: [Experiment; 16] = [
    ("E1", e::e01_glitch_deadlock::run),
    ("E2", e::e02_link_protocols::run),
    ("E3", e::e03_emergency_routing::run),
    ("E4", e::e04_realtime_latency::run),
    ("E5", e::e05_flood_fill::run),
    ("E6", e::e06_boot::run),
    ("E7", e::e07_cost_energy::run),
    ("E8", e::e08_multicast_vs_broadcast::run),
    ("E9", e::e09_scaling::run),
    ("E10", e::e10_placement::run),
    ("E11", e::e11_retina::run),
    ("E13", e::e13_table_minimization::run),
    ("A1", e::a01_router_waits::run),
    ("A2", e::a02_default_route_elision::run),
    ("E19", e::e19_resilience::run),
    ("E20", e::e20_scaling::run),
];

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).map(|a| a.to_uppercase()).collect();
    // A typo'd filter must not masquerade as a successful run that
    // silently produced nothing.
    let unknown: Vec<&String> = filter
        .iter()
        .filter(|f| *f != "FIGURES" && EXPERIMENTS.iter().all(|(name, _)| name != f))
        .collect();
    if !unknown.is_empty() {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown experiment name(s): {unknown:?} (known: {known:?} and FIGURES)");
        std::process::exit(2);
    }
    let quick = !std::env::var("SPINN_FULL").is_ok_and(|v| v == "1");
    let mode = if quick { "quick" } else { "full" };
    println!("SpiNNaker reproduction — experiment suite ({mode} mode)\n");
    for (name, run) in EXPERIMENTS {
        if filter.is_empty() || filter.iter().any(|f| f == name) {
            println!("==================================================================");
            println!("{}", run(quick));
        }
    }
    if filter.iter().any(|f| f == "FIGURES") {
        println!("{}", figures::all());
    }
}
