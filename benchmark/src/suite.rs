//! The whole benchmark in one command: every workload, one at a time,
//! each run a fresh child process (a re-exec of this binary with the
//! same flags `BENCHMARK.json`'s command passes), so `peak_rss_mb` is
//! that run's own high-water mark and no run inherits another's
//! caches. Three untraced repeats give the end-to-end medians and
//! quartiles; one further traced repeat gives the per-layer numbers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use crate::RUN_SECONDS;

/// Untraced repeats per workload (never fewer: quartiles need them).
const REPEATS: usize = 3;

/// One child run, parsed.
struct Run {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    exact: Json,
    samples: Json,
    checks: Vec<Json>,
}

/// Runs one child; `Err` carries why no result could be read.
fn run_child(workload: &str, seed: u64, traced: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "exit {:?}: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or("no output".to_string())
        .and_then(Json::parse)?;
    let detail = lines
        .next()
        .ok_or("no detail line".to_string())
        .and_then(Json::parse)?;
    let num = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
        exact: detail.get("exact").cloned().unwrap_or(Json::Null),
        samples: detail.get("samples").cloned().unwrap_or(Json::Null),
        checks: detail
            .get("checks")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec(),
    })
}

/// Operations attempted and failed across the suite: every run's own
/// jobs and checks, plus the cross-run checks made here.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Records a cross-run output check, in the same shape as a run's
    /// own checks.
    fn check(&mut self, checks: &mut Vec<Json>, name: &str, ok: bool, info: String) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        checks.push(Json::obj([
            ("name", Json::str(name)),
            ("ok", Json::Bool(ok)),
            ("info", Json::Str(info)),
        ]));
    }
}

/// Whole numbers (counts, bytes) without a fraction, everything else
/// to six significant digits.
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
        format!("{v:.digits$}")
    }
}

fn failed_checks(checks: &[Json]) -> Vec<String> {
    checks
        .iter()
        .filter(|c| c.get("ok").and_then(Json::as_bool) != Some(true))
        .map(|c| {
            format!(
                "{}: {}",
                c.get("name").and_then(Json::as_str).unwrap_or("?"),
                c.get("info").and_then(Json::as_str).unwrap_or("")
            )
        })
        .collect()
}

pub fn main(seed: u64, out_path: Option<&str>) -> ExitCode {
    let host_fp = host::suite_fingerprint();
    println!("host: {}", host_fp.render());
    println!(
        "seed {seed}, {REPEATS} untraced repeats + 1 traced per workload, {RUN_SECONDS} s measured per run\n"
    );
    let mut tally = Tally::default();
    let mut docs: Vec<(String, Json)> = Vec::new();
    let mut cortex_exact: Option<Json> = None;

    for (name, why) in WORKLOADS {
        println!("== {name} — {why}");
        if name == "cortex_stim_2w" && host::nproc() < 2 {
            println!("   skipped: needs 2 cores, host has {}\n", host::nproc());
            docs.push((
                name.to_string(),
                Json::obj([
                    ("status", Json::str("skipped")),
                    ("reason", Json::str("needs 2 cores")),
                    ("host", host_fp.clone()),
                ]),
            ));
            continue;
        }
        let mut runs = Vec::new();
        let mut checks = Vec::new();
        for rep in 0..=REPEATS {
            let traced = rep == REPEATS;
            match run_child(name, seed, traced) {
                Ok(run) => {
                    tally.attempted += run.attempted;
                    tally.failed += run.failed;
                    checks.extend(run.checks.iter().cloned());
                    runs.push((traced, run));
                }
                // A run with no result is one failed operation.
                Err(e) => tally.check(&mut checks, "run_completes", false, e),
            }
        }

        // Outputs must not depend on the repeat, the run length or the
        // telemetry mode (telemetry observes, it never steers)...
        if let Some((_, first)) = runs.first() {
            let same = runs.iter().all(|(_, r)| r.exact == first.exact);
            tally.check(
                &mut checks,
                "repeats_agree_exactly",
                same && runs.len() == REPEATS + 1,
                format!("{} runs, exact values {}", runs.len(), first.exact.render()),
            );
            // ...nor on the worker count.
            if name == "cortex_stim" {
                cortex_exact = Some(first.exact.clone());
            }
            if name == "cortex_stim_2w" {
                tally.check(
                    &mut checks,
                    "two_workers_match_serial",
                    cortex_exact.as_ref() == Some(&first.exact),
                    "exact values of cortex_stim_2w vs cortex_stim".to_string(),
                );
            }
        }

        // End-to-end: medians and quartiles over the untraced repeats.
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter(|(traced, _)| !traced)
                .filter_map(|(_, r)| r.metrics.get(m.name).copied())
                .collect();
            if values.is_empty() {
                continue; // omitted, never printed as 0
            }
            let (q1, q3) = if values.len() >= 2 {
                quartiles(&values)
            } else {
                (values[0], values[0])
            };
            println!(
                "   {:<28} {:>12} {:<4} [q1 {}, q3 {}] n={}",
                m.name,
                fmt_num(median(&values)),
                m.unit,
                fmt_num(q1),
                fmt_num(q3),
                values.len()
            );
            e2e.push((
                m.name,
                Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("median", Json::Num(median(&values))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let untraced = runs.iter().find(|(traced, _)| !traced);
        if let Some((_, r)) = untraced {
            println!("   samples (first untraced run): {}", r.samples.render());
        }

        // Per layer: the traced repeat, layers the workload never
        // enters left out of the printout.
        let mut layer = Vec::new();
        if let Some((_, r)) = runs.iter().find(|(traced, _)| *traced) {
            println!("   per layer (traced run):");
            let mut line = String::new();
            let mut crate_name = "";
            for (lname, unit, _) in PER_LAYER {
                let Some(&v) = r.metrics.get(lname) else {
                    continue;
                };
                layer.push((
                    lname,
                    Json::obj([("unit", Json::str(unit)), ("value", Json::Num(v))]),
                ));
                let (prefix, short) = lname.split_once('.').unwrap_or(("", lname));
                if prefix != crate_name && !line.is_empty() {
                    println!("     {crate_name:<8}{line}");
                    line.clear();
                }
                crate_name = prefix;
                if v != 0.0 {
                    let _ = write!(line, " {short}={} {unit};", fmt_num(v));
                }
            }
            if !line.is_empty() {
                println!("     {crate_name:<8}{line}");
            }
            println!("   samples (traced run): {}", r.samples.render());
        }
        let bad = failed_checks(&checks);
        if bad.is_empty() {
            println!("   {} output checks passed\n", checks.len());
        } else {
            println!("   FAILED checks:\n     {}\n", bad.join("\n     "));
        }
        docs.push((
            name.to_string(),
            Json::obj([
                ("status", Json::str("ok")),
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(layer)),
                (
                    "exact",
                    runs.first().map_or(Json::Null, |(_, r)| r.exact.clone()),
                ),
                (
                    "samples",
                    untraced.map_or(Json::Null, |(_, r)| r.samples.clone()),
                ),
                ("checks", Json::Arr(checks)),
            ]),
        ));
    }

    let Tally { attempted, failed } = tally;
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!(
        "failed_share {failed_share} ({failed} failed of {attempted} operations and output checks)"
    );
    let doc = Json::obj([
        ("host", host_fp),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        ("repeats", Json::Num(REPEATS as f64)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("failed_share", Json::Num(failed_share)),
        ("workloads", Json::Obj(docs)),
    ]);
    let path = out_path.map_or_else(
        || std::path::PathBuf::from("benchmark/out/results.json"),
        std::path::PathBuf::from,
    );
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.render()));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_print_compactly() {
        assert_eq!(fmt_num(142.0), "142");
        assert_eq!(fmt_num(13.885054), "13.8851");
        assert_eq!(fmt_num(0.6090049), "0.609005");
        assert_eq!(fmt_num(0.000049), "0.0000490000");
        assert_eq!(fmt_num(10_001_637.0), "10001637");
        assert_eq!(fmt_num(2910740.512), "2910741");
    }

    #[test]
    fn tally_counts_cross_checks() {
        let mut t = Tally::default();
        let mut checks = Vec::new();
        t.check(&mut checks, "a", true, String::new());
        t.check(&mut checks, "b", false, "why".to_string());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(failed_checks(&checks), vec!["b: why".to_string()]);
    }
}
