//! In-process half of the hotnoc benchmark (`benchmark/run.py` drives it).
//!
//! ```text
//! harness setup SPEC.json MIN_REPS MIN_SECONDS
//! harness replay INPUT.json OUT_DIR
//! ```
//!
//! `setup` times the set-up a campaign's jobs pay before their first
//! simulated step (see [`replay::setup_once`]), repeated at least
//! `MIN_REPS` times and for at least `MIN_SECONDS`, and prints
//! `{"setup_s": [...]}`, one sample per repetition.
//!
//! `replay` runs the traced replay of `replay.rs`, writes its spans under
//! `OUT_DIR`, and prints
//! `{"jobs": N, "diverged": [...], "mismatched": [...], "metrics": {...}}`.
//!
//! Both print exactly one JSON line on stdout; diagnostics go to stderr.
//! Exit status 1 means the work itself failed, 2 a usage error.

mod mirror;
mod replay;
mod spans;

use hotnoc::scenario::json::Json;
use hotnoc::scenario::CampaignSpec;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: harness setup SPEC.json MIN_REPS MIN_SECONDS | harness replay INPUT.json OUT_DIR";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match strs.as_slice() {
        ["setup", spec, reps, secs] => match (reps.parse::<usize>(), secs.parse::<f64>()) {
            (Ok(reps), Ok(secs)) if secs.is_finite() && secs >= 0.0 => setup(spec, reps, secs),
            _ => return usage(),
        },
        ["replay", input, out] => replay_cmd(input, out),
        _ => return usage(),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn setup(spec_path: &str, min_reps: usize, min_secs: f64) -> Result<String, String> {
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = CampaignSpec::parse(&text)?;
    let budget = Duration::from_secs_f64(min_secs);
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps.max(1) || t0.elapsed() < budget {
        samples.push(Json::Num(replay::setup_once(&spec)?.as_secs_f64()));
    }
    Ok(Json::object(vec![("setup_s", Json::Array(samples))]).to_string())
}

fn replay_cmd(input: &str, out: &str) -> Result<String, String> {
    let input = replay::Input::load(Path::new(input))?;
    let report = replay::run(&input, Path::new(out))?;
    let names = |v: &[String]| Json::Array(v.iter().map(|s| Json::str(s)).collect());
    let metrics = Json::Object(
        report
            .metrics
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect(),
    );
    Ok(Json::object(vec![
        ("jobs", Json::int(report.jobs as u64)),
        ("diverged", names(&report.diverged)),
        ("mismatched", names(&report.mismatched)),
        ("metrics", metrics),
    ])
    .to_string())
}
