//! The host a result was taken on. Every result carries this, so a
//! number can be refused when the host cannot mean what it claims
//! (a 2-worker row from a 1-core host).

use std::process::Command;

use crate::json::Json;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// This process's resident-set high-water mark (`VmHWM`), MB. Each run
/// is its own process, so the mark is that run's alone.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line(text: String) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| first_line(String::from_utf8_lossy(&o.stdout).into_owned()),
        )
}

/// What a single run can say about its host without leaving the
/// checkout or starting a process.
pub fn run_fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), first_line);
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::Str(cpu)),
        ("kernel", Json::Str(kernel)),
    ])
}

/// The suite's fuller fingerprint: adds the toolchain and the commit.
pub fn suite_fingerprint() -> Json {
    let Json::Obj(mut pairs) = run_fingerprint() else {
        unreachable!("run_fingerprint returns an object")
    };
    pairs.push((
        "rustc".into(),
        Json::Str(command_line("rustc", &["--version"])),
    ));
    pairs.push((
        "commit".into(),
        Json::Str(command_line("git", &["rev-parse", "HEAD"])),
    ));
    Json::Obj(pairs)
}
