//! `spinn-benchmark`: the one benchmark of the SpiNNaker reproduction.
//!
//! ```text
//! spinn-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command runs)
//! spinn-benchmark [suite] [--seed N] [--out FILE]                 every workload: 3 untraced repeats + 1 traced
//! spinn-benchmark compare A.json B.json                           verdict per workload × end-to-end metric
//! spinn-benchmark contract                                        print BENCHMARK.json from the metric tables
//! ```
//!
//! See README.md for the metric and workload tables.

mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod run;
mod serve_run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use run::Outcome;
use workloads::WORKLOADS;

/// Seconds one run measures for; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u32 = 10;

fn usage() -> ExitCode {
    eprintln!(
        "usage: spinn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         spinn-benchmark [suite] [--seed <n>] [--out <file>]\n       \
         spinn-benchmark compare <a.json> <b.json>\n       \
         spinn-benchmark contract\nworkloads: {}",
        WORKLOADS.map(|(n, _)| n).join(" ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the subcommand.
fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].as_str())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::main(a, b),
            _ => usage(),
        },
        Some("contract") => {
            println!("{}", contract());
            ExitCode::SUCCESS
        }
        _ if flag(&args, "--workload").is_some() => run_main(&args),
        None | Some("suite" | "--seed" | "--out") => suite_main(&args),
        Some(_) => usage(),
    }
}

fn suite_main(args: &[String]) -> ExitCode {
    let seed = match flag(args, "--seed").map(str::parse::<u64>) {
        None => 1,
        Some(Ok(s)) => s,
        Some(Err(_)) => return usage(),
    };
    suite::main(seed, flag(args, "--out"))
}

fn run_main(args: &[String]) -> ExitCode {
    let parsed = (|| {
        let workload = flag(args, "--workload")?;
        let seed = flag(args, "--seed")?.parse::<u64>().ok()?;
        let seconds = flag(args, "--seconds")?.parse::<f64>().ok()?;
        let traced = match flag(args, "--trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        (seconds > 0.0 && seconds <= 60.0).then_some((workload, seed, seconds, traced))
    })();
    let Some((workload, seed, seconds, traced)) = parsed else {
        return usage();
    };
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        eprintln!("unknown workload {workload:?}");
        return usage();
    }
    if workload == "cortex_stim_2w" && host::nproc() < 2 {
        // A 2-worker number from a 1-core host cannot mean what it
        // claims (the machine would clamp to one shard): refuse.
        eprintln!(
            "skipped: cortex_stim_2w needs 2 cores, host has {}: {}",
            host::nproc(),
            host::run_fingerprint().render()
        );
        return ExitCode::from(3);
    }

    let out = match workloads::session_workload(workload, seed) {
        Some(w) => run::run_session_workload(&w, seed, seconds, traced),
        None => serve_run::run_serve_churn(seed, seconds, traced),
    };
    if traced {
        write_trace(workload, seed, &out);
    }
    println!(
        "{}",
        detail_line(workload, seed, seconds, traced, &out).render()
    );
    println!("{}", result_line(traced, &out).render());
    ExitCode::SUCCESS
}

/// The last line of a run: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(traced: bool, out: &Outcome) -> Json {
    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics = if traced {
        Json::obj(PER_LAYER.iter().map(|&(name, unit, _)| {
            // A layer a workload never enters reads zero.
            (
                name,
                metric(out.layer.get(name).copied().unwrap_or(0.0), unit),
            )
        }))
    } else {
        Json::obj(END_TO_END.iter().map(|m| {
            let v = out.e2e.get(m.name).copied().unwrap_or(f64::NAN);
            (m.name, metric(v, m.unit))
        }))
    };
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ])
}

/// The line before it: what the suite needs beyond the metrics — the
/// host, every check with its evidence, the values that must repeat
/// exactly, and the sample counts.
fn detail_line(workload: &str, seed: u64, seconds: f64, traced: bool, out: &Outcome) -> Json {
    // Fingerprints are u64; JSON numbers are doubles, so they travel
    // as hex strings.
    let hex = |m: &std::collections::BTreeMap<&'static str, u64>| {
        Json::obj(m.iter().map(|(k, v)| (*k, Json::Str(format!("{v:016x}")))))
    };
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("host", host::run_fingerprint()),
        (
            "checks",
            Json::Arr(
                out.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("info", Json::str(c.info.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("exact", hex(&out.exact)),
        (
            "samples",
            Json::obj(out.samples.iter().map(|(k, v)| (*k, Json::Num(*v as f64)))),
        ),
    ])
}

/// Writes the run's spans to `benchmark/out/trace-<workload>.json`
/// (relative to the working directory, the checkout root). A failure
/// to write is reported, not fatal: the metrics do not depend on it.
fn write_trace(workload: &str, seed: u64, out: &Outcome) {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{workload}.json"));
    let run_id = format!("{workload}-seed{seed}");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, out.spans.to_json(&run_id).render()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// `BENCHMARK.json`, generated from the tables so the two cannot
/// drift (`metrics::tests::benchmark_json_matches_the_tables`).
fn contract() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<Json>| {
        rows.iter()
            .map(|r| format!("    {}", r.render()))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|(n, w)| Json::obj([("name", Json::str(*n)), ("why", Json::str(*w))]))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.name())),
                    ("bound", Json::Num(m.bound)),
                ])
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|(n, u, b)| {
                Json::obj([
                    ("name", Json::str(*n)),
                    ("unit", Json::str(*u)),
                    ("better", Json::str(b.name())),
                ])
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}");
    s
}
