//! The traced replay: per-layer numbers for a set of jobs whose untraced
//! outcomes are known.
//!
//! The input is a `hotnoc-campaign-v1` artifact written by the `hotnoc`
//! binary, or, for the serve workload, a document of the same shape
//! (`results` of `spec` + `outcome`) without a `schema`, plus the request
//! lines that were sent. In one process:
//!
//! 1. every distinct chip is built and calibrated again, with probes into
//!    the LDPC and thermal constructors (`bench.chip` spans);
//! 2. each job runs twice, back to back on the same host state: through
//!    the library (`run_scenario` on a warm chip cache, one `scenario.run`
//!    span), whose outcome must equal the artifact's, and through the
//!    mirrors of `mirror.rs` (a `bench.job` span with a span around each
//!    call into a layer), whose outcome must reproduce the artifact or the
//!    job counts as diverged;
//! 3. for campaign artifacts, `run_campaign` runs at one worker on the same
//!    warm cache. Its artifact must equal the binary's byte for byte; its
//!    wall time minus the library runs' is the runner's own cost.

use crate::mirror::{self, CosimReplay, TrafficReplay};
use crate::spans::{NameTotals, Tracer};
use hotnoc::core::chip::TILE_AREA_M2;
use hotnoc::core::configs::Fidelity;
use hotnoc::core::{CalibratedPower, Chip};
use hotnoc::ldpc::{ClusterMapping, LdpcCode};
use hotnoc::noc::Network;
use hotnoc::scenario::json::Json;
use hotnoc::scenario::run::params_of;
use hotnoc::scenario::runner::RunnerOptions;
use hotnoc::scenario::{
    run_campaign, run_scenario, CampaignSpec, ChipKind, Policy, ScenarioOutcome, ScenarioSpec,
    Workload,
};
use hotnoc::thermal::{Floorplan, PackageConfig, RcNetwork};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Layers whose self time counts toward `trace.coverage`.
const LAYERS: [&str; 8] = [
    "noc.",
    "ldpc.",
    "thermal.",
    "power.",
    "reconfig.",
    "core.",
    "scenario.",
    "serve.",
];

/// Minimum measuring time of each per-call JSON/protocol loop.
const LOOP_TIME: Duration = Duration::from_millis(200);

struct Job {
    spec: ScenarioSpec,
    expected: ScenarioOutcome,
    /// The artifact record as canonical JSON text.
    record: String,
}

/// The replay's input.
pub struct Input {
    campaign: Option<(CampaignSpec, String)>,
    jobs: Vec<Job>,
    requests: Vec<String>,
}

impl Input {
    /// Reads an artifact (or a serve document) from `path`.
    pub fn load(path: &Path) -> Result<Input, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text)?;
        let campaign = match doc.get("schema") {
            Some(_) => Some((CampaignSpec::from_json(doc.req("spec")?)?, text.clone())),
            None => None,
        };
        let mut jobs = Vec::new();
        for r in doc.req_array("results")? {
            jobs.push(Job {
                spec: ScenarioSpec::from_json(r.req("spec")?)?,
                expected: ScenarioOutcome::from_json(r.req("outcome")?)?,
                record: r.to_string(),
            });
        }
        let requests = match doc.get("requests") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or("requests is not an array")?
                .iter()
                .map(|l| {
                    l.as_str()
                        .map(str::to_string)
                        .ok_or("request is not a string")
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(Input {
            campaign,
            jobs,
            requests,
        })
    }
}

/// Distinct chips of the LDPC jobs, in first-use order, with the index of
/// the first job on each.
fn distinct_chips(specs: &[&ScenarioSpec]) -> Vec<(ChipKind, Fidelity, usize)> {
    let mut chips: Vec<(ChipKind, Fidelity, usize)> = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        if s.workload == Workload::Ldpc
            && !chips
                .iter()
                .any(|(k, f, _)| *k == s.chip && *f == s.fidelity)
        {
            chips.push((s.chip.clone(), s.fidelity, i));
        }
    }
    chips
}

/// The set-up a campaign's jobs pay before their first simulated step,
/// summed over the campaign: build and calibrate every distinct chip (the
/// first LDPC job on each chip pays it; the rest reuse it), and build the
/// network, fault plan and traffic generator of every traffic job.
pub fn setup_once(spec: &CampaignSpec) -> Result<Duration, String> {
    let jobs = spec.expand();
    let refs: Vec<&ScenarioSpec> = jobs.iter().collect();
    let t0 = Instant::now();
    for (kind, fidelity, _) in distinct_chips(&refs) {
        let mut chip = Chip::build(kind.to_chip_spec(fidelity)).map_err(|e| e.to_string())?;
        std::hint::black_box(chip.calibrate().map_err(|e| e.to_string())?);
    }
    for s in jobs.iter().filter(|s| s.workload != Workload::Ldpc) {
        std::hint::black_box(mirror::traffic_setup(s)?);
    }
    Ok(t0.elapsed())
}

/// Outcome of [`run`]: named metrics plus the counts the caller needs to
/// judge the run.
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Jobs whose traced replay did not reproduce the artifact.
    pub diverged: Vec<String>,
    /// Jobs (or the runner artifact) where the untraced library run did
    /// not reproduce the binary's output.
    pub mismatched: Vec<String>,
    pub jobs: usize,
}

/// Runs the three phases and writes the spans under `out`.
pub fn run(input: &Input, out: &Path) -> Result<Report, String> {
    let specs: Vec<&ScenarioSpec> = input.jobs.iter().map(|j| &j.spec).collect();
    let chips = distinct_chips(&specs);
    let mut mismatched = Vec::new();

    // Warm the library's chip cache, so `scenario.run` times jobs only.
    for &(_, _, first) in &chips {
        run_scenario(&input.jobs[first].spec).map_err(|e| e.to_string())?;
    }

    let mut lib = Tracer::new();
    let mut tr = Tracer::new();
    let mut built: Vec<(ChipKind, Fidelity, Chip, CalibratedPower)> = Vec::new();
    for (kind, fidelity, first) in &chips {
        tr.set_job(Some(*first as u64));
        tr.enter("bench.chip");
        let r = replay_chip(&mut tr, kind, *fidelity);
        tr.exit();
        let (chip, cal) = r?;
        built.push((kind.clone(), *fidelity, chip, cal));
    }
    let mut diverged = Vec::new();
    let mut flit_hops = 0u64;
    let mut dropped = 0u64;
    let mut offered = 0u64;
    let mut chip_jobs = 0usize;
    for (i, job) in input.jobs.iter().enumerate() {
        lib.set_job(Some(i as u64));
        let got = lib
            .span("scenario.run", || run_scenario(&job.spec))
            .map_err(|e| e.to_string())?;
        if got != job.expected {
            mismatched.push(job.spec.name.clone());
        }
        tr.set_job(Some(i as u64));
        tr.enter("bench.job");
        let r = replay_job(&mut tr, &job.spec, &job.expected, &built);
        tr.exit();
        match r? {
            Replayed::Ldpc(same) => {
                chip_jobs += 1;
                if !same {
                    diverged.push(job.spec.name.clone());
                }
            }
            Replayed::Traffic(got, same) => {
                flit_hops += got.flit_hops;
                dropped += got.packets_dropped;
                offered += got.offered;
                if !same {
                    diverged.push(job.spec.name.clone());
                }
            }
        }
    }
    tr.set_job(None);
    let run_s = secs(lib.totals().get("scenario.run").map_or(0, |t| t.busy_ns));

    let mut runner_self_s = 0.0;
    if let Some((spec, artifact)) = &input.campaign {
        let opts = RunnerOptions {
            threads: 1,
            out_dir: out.join("runner"),
            max_jobs: None,
            fresh: true,
            progress: false,
            trace_dir: None,
        };
        let t0 = Instant::now();
        let done = run_campaign(spec, &opts).map_err(|e| e.to_string())?;
        runner_self_s = t0.elapsed().as_secs_f64() - run_s;
        let path = done.json_path.ok_or("runner left the campaign partial")?;
        let bytes = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        if &bytes != artifact {
            mismatched.push(format!("runner artifact {}", path.display()));
        }
    }

    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    for (name, t) in [("spans.library.jsonl", &lib), ("spans.replay.jsonl", &tr)] {
        std::fs::write(out.join(name), t.to_jsonl()).map_err(|e| e.to_string())?;
    }

    let totals = tr.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call_ns = |t: NameTotals| {
        if t.calls == 0 {
            0.0
        } else {
            t.busy_ns as f64 / t.calls as f64
        }
    };
    let (drain_steps, adaptive_step_ns) = nested_busy(&tr);
    let step = get("noc.step");
    let layer_self: u64 = totals
        .iter()
        .filter(|(n, _)| LAYERS.iter().any(|l| n.starts_with(l)))
        .map(|(_, t)| t.self_ns)
        .sum();
    let job_busy = get("bench.job").busy_ns;
    // Every replay span sits under a chip or a job span.
    let replay_wall = secs(get("bench.chip").busy_ns + job_busy);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("noc.step_ns", per_call_ns(step));
    m.insert("noc.step_calls", step.calls as f64);
    m.insert("noc.inject_ns", per_call_ns(get("noc.inject")));
    m.insert(
        "noc.drain_share",
        ratio(drain_steps as f64, step.calls as f64),
    );
    m.insert("noc.flit_hops", flit_hops as f64);
    m.insert("noc.dropped_frac", ratio(dropped as f64, offered as f64));
    m.insert("ldpc.construct_s", secs(get("ldpc.construct").busy_ns));
    m.insert("ldpc.block_run_s", secs(get("ldpc.block_run").busy_ns));
    m.insert("thermal.build_s", secs(get("thermal.build").busy_ns));
    m.insert("thermal.steady_ns", per_call_ns(get("thermal.steady")));
    m.insert("thermal.step_ns", per_call_ns(get("thermal.step")));
    m.insert("thermal.step_calls", get("thermal.step").calls as f64);
    m.insert("power.leakage_ns", per_call_ns(get("power.leakage")));
    m.insert("reconfig.plan_ns", per_call_ns(get("reconfig.plan")));
    m.insert("core.build_s", secs(get("core.build").busy_ns));
    m.insert("core.calibrate_s", secs(get("core.calibrate").busy_ns));
    m.insert("core.cosim_s", secs(get("core.cosim").busy_ns));
    m.insert("core.adaptive_s", secs(get("core.adaptive").busy_ns));
    m.insert("core.pick_scheme_ns", per_call_ns(get("core.pick_scheme")));
    m.insert(
        "core.pick_scheme_calls",
        get("core.pick_scheme").calls as f64,
    );
    m.insert(
        "core.adaptive_step_share",
        ratio(adaptive_step_ns as f64, get("core.adaptive").busy_ns as f64),
    );
    m.insert("scenario.run_s", run_s);
    m.insert("scenario.runner_self_s", runner_self_s);
    m.insert(
        "scenario.json_ns",
        per_item_ns(
            &input
                .jobs
                .iter()
                .map(|j| j.record.as_str())
                .collect::<Vec<_>>(),
            |t| Json::parse(t).map(|j| j.to_string()),
        ),
    );
    m.insert(
        "scenario.chip_reuse",
        ratio(
            chip_jobs.saturating_sub(chips.len()) as f64,
            input.jobs.len() as f64,
        ),
    );
    m.insert(
        "serve.protocol_ns",
        per_item_ns(
            &input
                .requests
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
            |t| hotnoc_serve::protocol::decode_request(&Json::parse(t)?),
        ),
    );
    m.insert("trace.layer_self_s", secs(layer_self));
    m.insert("trace.wall_s", replay_wall);
    m.insert("trace.overhead_frac", ratio(secs(job_busy), run_s) - 1.0);
    Ok(Report {
        metrics: m,
        diverged,
        mismatched,
        jobs: input.jobs.len(),
    })
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// `noc.step` calls made while draining, and `thermal.step` time inside
/// adaptive co-simulations.
fn nested_busy(tr: &Tracer) -> (u64, u64) {
    let spans = tr.spans();
    let parent_is =
        |s: &crate::spans::Span, name: &str| s.parent.is_some_and(|p| spans[p].name == name);
    let mut drain_steps = 0;
    let mut adaptive_step_ns = 0;
    for s in spans {
        if s.name == "noc.step" && parent_is(s, "noc.drain") {
            drain_steps += s.calls;
        }
        if s.name == "thermal.step" && parent_is(s, "core.adaptive") {
            adaptive_step_ns += s.busy_ns;
        }
    }
    (drain_steps, adaptive_step_ns)
}

/// Mean time of `f` per item, looping over `items` for at least
/// [`LOOP_TIME`]. Any error makes the whole figure 0 (no such work).
fn per_item_ns<R>(items: &[&str], f: impl Fn(&str) -> Result<R, String>) -> f64 {
    if items.is_empty() || items.iter().any(|t| f(t).is_err()) {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < LOOP_TIME {
        for t in items {
            let _ = std::hint::black_box(f(std::hint::black_box(t)));
        }
        calls += items.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

fn replay_chip(
    tr: &mut Tracer,
    kind: &ChipKind,
    fidelity: Fidelity,
) -> Result<(Chip, CalibratedPower), String> {
    let cs = kind.to_chip_spec(fidelity);
    let mut chip = tr
        .span("core.build", || Chip::build(cs.clone()))
        .map_err(|e| e.to_string())?;
    let cal = tr
        .span("core.calibrate", || chip.calibrate())
        .map_err(|e| e.to_string())?;
    // Probes: the constructors `Chip::build` calls, timed on their own.
    tr.span("ldpc.construct", || {
        let code = LdpcCode::gallager(cs.code_n, cs.wc, cs.wr, cs.seed)?;
        ClusterMapping::weighted(&code, &cs.tile_weights)
    })
    .map_err(|e| e.to_string())?;
    tr.span("thermal.build", || {
        let plan = Floorplan::mesh_grid(cs.mesh_side, cs.mesh_side, TILE_AREA_M2)?;
        RcNetwork::build(&plan, &PackageConfig::date05_defaults())
    })
    .map_err(|e| e.to_string())?;
    let mut net = Network::new(chip.mesh(), *chip.noc_config());
    let run = tr
        .span("ldpc.block_run", || {
            chip.app_mut().run_block(&mut net, cs.iterations)
        })
        .map_err(|e| e.to_string())?;
    if run.cycles != cal.block_cycles {
        return Err(format!(
            "block-run probe took {} cycles, calibration {}",
            run.cycles, cal.block_cycles
        ));
    }
    Ok((chip, cal))
}

enum Replayed {
    /// Whether the co-simulation matched the artifact.
    Ldpc(bool),
    Traffic(TrafficReplay, bool),
}

fn replay_job(
    tr: &mut Tracer,
    spec: &ScenarioSpec,
    expected: &ScenarioOutcome,
    built: &[(ChipKind, Fidelity, Chip, CalibratedPower)],
) -> Result<Replayed, String> {
    match &spec.workload {
        Workload::Traffic { .. } => {
            let got = mirror::run_traffic(tr, spec)?;
            let same =
                matches!(expected, ScenarioOutcome::Traffic(m) if TrafficReplay::of(m) == got);
            Ok(Replayed::Traffic(got, same))
        }
        Workload::Ldpc => {
            let (_, _, chip, cal) = built
                .iter()
                .find(|(k, f, _, _)| *k == spec.chip && *f == spec.fidelity)
                .expect("every LDPC job's chip was built");
            let params = params_of(spec);
            let got: CosimReplay = match spec.policy {
                Policy::Periodic { scheme, .. } => {
                    mirror::run_cosim(tr, chip, cal, scheme, &params)
                }
                Policy::Adaptive { .. } => mirror::run_adaptive_cosim(tr, chip, cal, &params),
                Policy::Baseline => {
                    return Err(format!("{}: baseline jobs are not replayed", spec.name))
                }
            }
            .map_err(|e| e.to_string())?;
            let same = match expected {
                ScenarioOutcome::Cosim(m) => {
                    m.peak == got.peak
                        && m.reduction == got.reduction
                        && m.migrations == got.migrations
                }
                ScenarioOutcome::Adaptive(m) => {
                    m.peak == got.peak && m.reduction == got.reduction && m.schedule == got.schedule
                }
                _ => false,
            };
            Ok(Replayed::Ldpc(same))
        }
    }
}
