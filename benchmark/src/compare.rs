//! `spinn-benchmark compare A.json B.json`: A is the baseline, B the
//! candidate, both written by the suite. One verdict per workload ×
//! end-to-end metric:
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `regressed` — it is worse by more than the bound;
//! * `unresolved` — the run-to-run spread of either side is wider than
//!   the bound and the two sets of runs overlap, so neither "same" nor
//!   "worse" can be claimed;
//! * `absent` — one side did not report the metric (a skipped
//!   workload, or a metric a workload does not have). Never read as 0.
//!
//! Values that must repeat exactly (output fingerprints, synapse
//! counts) compare with bound 0 when both files used the same seed:
//! any difference is `regressed`. Exit code 1 on any `regressed`.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Absent,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Absent => "absent",
        }
    }
}

/// By how much of A's median B's median is worse (negative = better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// The verdict for one metric given each side's runs.
pub fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Absent;
    }
    // The two sets of runs overlap unless every run of one side reads
    // better than every run of the other.
    let all_below = |lo: &[f64], hi: &[f64]| lo.iter().all(|x| hi.iter().all(|y| x < y));
    let overlap = !all_below(a, b) && !all_below(b, a);
    if spread(a).max(spread(b)) > m.bound && overlap {
        Verdict::Unresolved
    } else if worsening(m, median(a), median(b)) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values(workload: Option<&Json>, metric: &str) -> Vec<f64> {
    workload
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn status(workload: Option<&Json>) -> &str {
    workload
        .and_then(|w| w.get("status"))
        .and_then(Json::as_str)
        .unwrap_or("absent")
}

fn fmt_side(v: &[f64]) -> String {
    match v.len() {
        0 => "-".to_string(),
        1 => format!("{:.5}", v[0]),
        _ => {
            let (q1, q3) = quartiles(v);
            format!("{:.5} [{:.5}, {:.5}]", median(v), q1, q3)
        }
    }
}

/// Compares two result documents; returns the report and the number
/// of `regressed` rows.
pub fn compare(a: &Json, b: &Json) -> (String, usize) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut regressed = 0;
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    let wa = a.get("workloads");
    let wb = b.get("workloads");
    let names: Vec<&str> = wa
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let _ = writeln!(
        out,
        "{:<16} {:<28} {:>36} {:>36}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    for name in names {
        let (a_w, b_w) = (wa.and_then(|w| w.get(name)), wb.and_then(|w| w.get(name)));
        if status(a_w) != "ok" || status(b_w) != "ok" {
            let _ = writeln!(
                out,
                "{name:<16} {:<28} {:>36} {:>36}  absent",
                "(all)",
                status(a_w),
                status(b_w)
            );
            continue;
        }
        for m in &END_TO_END {
            let (va, vb) = (values(a_w, m.name), values(b_w, m.name));
            let v = verdict(m, &va, &vb);
            regressed += usize::from(v == Verdict::Regressed);
            let _ = writeln!(
                out,
                "{name:<16} {:<28} {:>36} {:>36}  {}",
                format!("{} ({})", m.name, m.unit),
                fmt_side(&va),
                fmt_side(&vb),
                v.name()
            );
        }
        if same_seed {
            let exact = |w: Option<&Json>| w.and_then(|w| w.get("exact")).cloned();
            let (ea, eb) = (exact(a_w), exact(b_w));
            for (key, val) in ea.as_ref().and_then(Json::as_obj).unwrap_or(&[]) {
                let other = eb.as_ref().and_then(|e| e.get(key));
                let v = match other {
                    None => Verdict::Absent,
                    Some(o) if o == val => Verdict::Ok,
                    Some(_) => Verdict::Regressed,
                };
                regressed += usize::from(v == Verdict::Regressed);
                let _ = writeln!(
                    out,
                    "{name:<16} {:<28} {:>36} {:>36}  {}",
                    format!("{key} (exact)"),
                    val.as_str().unwrap_or("-"),
                    other.and_then(Json::as_str).unwrap_or("-"),
                    v.name()
                );
            }
        }
    }
    if !same_seed {
        let _ = writeln!(out, "(seeds differ: exact-repeat values not compared)");
    }
    let _ = writeln!(out, "{regressed} regressed");
    (out, regressed)
}

pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => {
            let (report, regressed) = compare(&a, &b);
            print!("{report}");
            if regressed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixture metrics with a 10% bound, so the hand-written runs
    /// below do not move when the real bounds are re-sized.
    fn lower() -> &'static EndToEnd {
        &EndToEnd {
            name: "t_s",
            unit: "s",
            better: Better::Lower,
            bound: 0.10,
        }
    }

    fn higher() -> &'static EndToEnd {
        &EndToEnd {
            name: "ops_per_s",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_on_hand_written_runs() {
        // Within the bound either way.
        assert_eq!(
            verdict(lower(), &[10.0, 10.1, 10.2], &[10.5, 10.6, 10.4]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(lower(), &[10.0, 10.1, 10.2], &[8.0, 8.1, 8.2]),
            Verdict::Ok
        );
        // Worse by 20% with tight runs.
        assert_eq!(
            verdict(lower(), &[10.0, 10.1, 10.2], &[12.0, 12.1, 12.2]),
            Verdict::Regressed
        );
        // Higher-is-better mirrors it.
        assert_eq!(
            verdict(higher(), &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(higher(), &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Ok
        );
        // Spread wider than the bound and overlapping runs: unresolved,
        // whichever way the medians lean.
        assert_eq!(
            verdict(lower(), &[10.0, 12.0, 14.0], &[11.0, 13.0, 15.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(lower(), &[10.0, 12.0, 14.0], &[9.5, 11.0, 13.0]),
            Verdict::Unresolved
        );
        // Wide spread, but every B run beats every A run: resolved, ok.
        assert_eq!(
            verdict(lower(), &[10.0, 12.0, 14.0], &[5.0, 6.0, 7.0]),
            Verdict::Ok
        );
        // Wide spread, every B run worse than every A run and beyond
        // the bound: the runs do not overlap, so it is a regression.
        assert_eq!(
            verdict(lower(), &[10.0, 12.0, 14.0], &[20.0, 22.0, 24.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn omitted_metrics_are_absent_never_zero() {
        assert_eq!(verdict(lower(), &[], &[1.0]), Verdict::Absent);
        assert_eq!(verdict(lower(), &[1.0], &[]), Verdict::Absent);
        // One run a side still compares (no spread to object to).
        assert_eq!(verdict(lower(), &[1.0], &[1.05]), Verdict::Ok);
        assert_eq!(verdict(lower(), &[1.0], &[1.5]), Verdict::Regressed);
    }

    fn doc(seed: u32, host_s: &str, fp: &str, extra: &str) -> Json {
        Json::parse(&format!(
            r#"{{"seed": {seed}, "workloads": {{
                 "w": {{"status": "ok",
                        "end_to_end": {{"host_s_per_bio_s": {{"unit": "s/s", "values": {host_s}}}}},
                        "exact": {{"prefix_fingerprint": "{fp}"}}}}
                 {extra}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn documents_compare_row_by_row() {
        let a = doc(
            1,
            "[10.0, 10.1, 10.2]",
            "aa",
            r#", "s": {"status": "skipped"}"#,
        );
        let same = doc(
            1,
            "[10.1, 10.0, 10.3]",
            "aa",
            r#", "s": {"status": "skipped"}"#,
        );
        let (report, n) = compare(&a, &same);
        assert_eq!(n, 0, "{report}");
        // The other metrics are not in the fixture, and the skipped
        // workload is one row: all absent, none read as 0.
        assert_eq!(
            report.matches("  absent").count(),
            END_TO_END.len() - 1 + 1,
            "{report}"
        );
        assert!(report.contains("host_s_per_bio_s (s/s)"), "{report}");

        let slower = doc(1, "[13.0, 13.1, 13.2]", "aa", "");
        let (report, n) = compare(&a, &slower);
        assert_eq!(n, 1, "{report}");

        // Same speed, different output under the same seed: regressed.
        let changed = doc(1, "[10.0, 10.1, 10.2]", "bb", "");
        let (report, n) = compare(&a, &changed);
        assert_eq!(n, 1, "{report}");
        assert!(report.contains("prefix_fingerprint (exact)"));

        // Another seed: outputs legitimately differ, not compared.
        let other_seed = doc(2, "[10.0, 10.1, 10.2]", "bb", "");
        let (report, n) = compare(&a, &other_seed);
        assert_eq!(n, 0, "{report}");
        assert!(report.contains("seeds differ"));
    }
}
