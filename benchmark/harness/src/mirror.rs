//! Traced mirrors of the library functions whose inner calls the per-layer
//! metrics time.
//!
//! `run_cosim`, `run_adaptive_cosim`, `adaptive::pick_scheme` and
//! `Chip::steady_with_leakage` (hotnoc-core) and the traffic job of
//! `run_scenario` (hotnoc-scenario) are composites: a span around the
//! library call could not split their time between the thermal, power,
//! reconfig and NoC layers. Each mirror below repeats the library
//! function's arithmetic, in the same order, from the same public calls,
//! with a span around every call into another layer. A mirror is only
//! trusted when its outcome equals the untraced artifact bit for bit
//! (see `replay.rs`); a mirror that drifts from the library is reported as
//! a diverged replay, never silently measured.

use crate::spans::Tracer;
use hotnoc::core::{CalibratedPower, Chip, CoreError, CosimParams};
use hotnoc::noc::{Mesh, Network, NocConfig, NodeId, TrafficGenerator};
use hotnoc::power::leakage;
use hotnoc::reconfig::phases::PhaseCostModel;
use hotnoc::reconfig::{MigrationPlan, MigrationScheme, OrbitDecomposition, StateSpec};
use hotnoc::scenario::outcome::TrafficMetrics;
use hotnoc::scenario::spec::fault_plan_of;
use hotnoc::scenario::{ScenarioSpec, Workload};
use hotnoc::thermal::{Integrator, ThermalTrace, TransientSim};

/// What the fidelity check compares for an LDPC co-simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimReplay {
    pub peak: f64,
    pub reduction: f64,
    /// Migrations (periodic) or the chosen schedule's length (adaptive).
    pub migrations: u64,
    /// The adaptive controller's choices; empty for periodic jobs.
    pub schedule: Vec<MigrationScheme>,
}

fn peak_of(t: &[f64]) -> f64 {
    t.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

fn plan_of(tr: &mut Tracer, mesh: Mesh, scheme: MigrationScheme) -> MigrationPlan {
    tr.hot("reconfig.plan", || {
        MigrationPlan::plan(
            mesh,
            scheme,
            &StateSpec::default(),
            &PhaseCostModel::default(),
        )
    })
}

/// Mirror of `Chip::steady_with_leakage`, timed inside the caller's span.
pub fn steady_with_leakage(
    tr: &mut Tracer,
    chip: &Chip,
    dynamic: &[f64],
) -> Result<Vec<f64>, CoreError> {
    let areas = chip.tile_areas_mm2();
    let mut temps = tr.hot("thermal.steady", || chip.thermal().steady_state(dynamic))?;
    for _ in 0..6 {
        let clamped: Vec<f64> = temps.iter().map(|t| t.min(250.0)).collect();
        let leak = tr.hot("power.leakage", || {
            leakage::leakage_per_block(&areas, &clamped, chip.tech())
        });
        let total: Vec<f64> = dynamic.iter().zip(&leak).map(|(d, l)| d + l).collect();
        temps = tr.hot("thermal.steady", || chip.thermal().steady_state(&total))?;
    }
    Ok(temps)
}

/// Mirror of `run_cosim` for a periodic scheme, inside a `core.cosim` span.
pub fn run_cosim(
    tr: &mut Tracer,
    chip: &Chip,
    cal: &CalibratedPower,
    scheme: MigrationScheme,
    params: &CosimParams,
) -> Result<CosimReplay, CoreError> {
    tr.enter("core.cosim");
    let r = cosim_body(tr, chip, cal, scheme, params);
    tr.exit();
    r
}

fn cosim_body(
    tr: &mut Tracer,
    chip: &Chip,
    cal: &CalibratedPower,
    scheme: MigrationScheme,
    params: &CosimParams,
) -> Result<CosimReplay, CoreError> {
    let n = chip.spec().n_tiles();
    let areas = chip.tile_areas_mm2();
    let clock = chip.noc_config().clock_hz;
    let base_temps = steady_with_leakage(tr, chip, &cal.dynamic)?;
    let base_peak = peak_of(&base_temps);

    let mesh = chip.mesh();
    let plan = plan_of(tr, mesh, scheme);
    let stall_s = plan.total_cycles() as f64 / clock;
    let period_s = cal.block_seconds * params.period_blocks as f64;
    let super_s = period_s + stall_s;
    let per_tile_hops = plan.per_tile_flit_hops(mesh);
    let per_tile_endpoints = plan.per_tile_endpoint_flits(mesh);

    let order = scheme.order(mesh);
    let mut maps: Vec<Vec<f64>> = Vec::with_capacity(order);
    for k in 0..order {
        let mut m = vec![0.0; n];
        for tile in 0..n {
            let c = mesh.coord(NodeId::new(tile as u16));
            let dst = scheme.apply_k(c, mesh, k);
            let dst_idx = mesh.node_id(dst).expect("on mesh").index();
            m[dst_idx] = cal.dynamic[tile];
        }
        maps.push(m);
    }
    let per_tile_transfer: Vec<f64> = per_tile_hops
        .iter()
        .zip(&per_tile_endpoints)
        .map(|(&h, &e)| h as f64 * params.e_flit_hop + e as f64 * params.e_convert_flit)
        .collect();
    let mut stall_maps: Vec<Vec<f64>> = Vec::with_capacity(order);
    for m in &maps {
        let sm: Vec<f64> = m
            .iter()
            .zip(&per_tile_transfer)
            .map(|(p, t)| params.stall_power_fraction * p + t / stall_s)
            .collect();
        stall_maps.push(sm);
    }
    let init_dyn: Vec<f64> = cal
        .dynamic
        .iter()
        .zip(&per_tile_transfer)
        .map(|(p, t)| (p * (period_s + params.stall_power_fraction * stall_s) + t) / super_s)
        .collect();
    let init_temps = steady_with_leakage(tr, chip, &init_dyn)?;
    let init_leak = tr.hot("power.leakage", || {
        leakage::leakage_per_block(&areas, &init_temps, chip.tech())
    });
    let init_total: Vec<f64> = init_dyn
        .iter()
        .zip(&init_leak)
        .map(|(d, l)| d + l)
        .collect();
    let mut sim = tr.hot("thermal.init", || {
        let mut sim = TransientSim::new(chip.thermal(), params.dt, Integrator::BackwardEuler)?;
        sim.init_from_steady(&init_total)?;
        Ok::<_, CoreError>(sim)
    })?;

    let frames = (params.sim_time / params.dt).round() as usize;
    let warmup_frames = (params.warmup / params.dt).round() as usize;
    let mut trace = ThermalTrace::new(params.dt, n);
    let mut k = 0usize;
    let mut tau = 0.0f64;
    let mut frame_power = vec![0.0f64; n];
    for _ in 0..frames {
        frame_power.iter_mut().for_each(|p| *p = 0.0);
        let mut remaining = params.dt;
        while remaining > 1e-15 {
            if tau < period_s {
                let seg = remaining.min(period_s - tau);
                let w = seg / params.dt;
                for (fp, m) in frame_power.iter_mut().zip(&maps[k % order]) {
                    *fp += w * m;
                }
                tau += seg;
                remaining -= seg;
            } else {
                let seg = remaining.min(super_s - tau);
                let w = seg / params.dt;
                for (fp, s) in frame_power.iter_mut().zip(&stall_maps[k % order]) {
                    *fp += w * s;
                }
                tau += seg;
                remaining -= seg;
                if super_s - tau < 1e-12 {
                    tau = 0.0;
                    k += 1;
                }
            }
        }
        let leak = tr.hot("power.leakage", || {
            leakage::leakage_per_block(&areas, sim.block_temps(), chip.tech())
        });
        for (fp, l) in frame_power.iter_mut().zip(&leak) {
            *fp += l;
        }
        tr.hot("thermal.step", || sim.step(&frame_power))?;
        tr.hot("thermal.trace", || trace.push(sim.block_temps()));
    }
    let stats = tr
        .hot("thermal.trace", || {
            trace.stats_after(warmup_frames.min(frames.saturating_sub(1)))
        })
        .expect("at least one measured frame");
    Ok(CosimReplay {
        peak: stats.peak,
        reduction: base_peak - stats.peak,
        migrations: k as u64,
        schedule: Vec::new(),
    })
}

/// Mirror of `adaptive::pick_scheme`, one `core.pick_scheme` span per call.
pub fn pick_scheme(
    tr: &mut Tracer,
    chip: &Chip,
    current_power: &[f64],
    params: &CosimParams,
) -> Result<MigrationScheme, CoreError> {
    tr.enter("core.pick_scheme");
    let r = pick_scheme_body(tr, chip, current_power, params);
    tr.exit();
    r
}

fn pick_scheme_body(
    tr: &mut Tracer,
    chip: &Chip,
    current_power: &[f64],
    params: &CosimParams,
) -> Result<MigrationScheme, CoreError> {
    let mesh = chip.mesh();
    let mut best: Option<(f64, MigrationScheme)> = None;
    for scheme in MigrationScheme::FIGURE1 {
        if !scheme.is_applicable(mesh) {
            continue;
        }
        let averaged = tr.hot("reconfig.orbit", || {
            OrbitDecomposition::new(scheme, mesh).time_averaged_power(current_power)
        });
        let temps = steady_with_leakage(tr, chip, &averaged)?;
        let peak = peak_of(&temps);
        let plan = plan_of(tr, mesh, scheme);
        let stall_s = plan.total_cycles() as f64 / chip.noc_config().clock_hz;
        let energy = plan.total_flit_hops() as f64 * params.e_flit_hop
            + plan.per_tile_endpoint_flits(mesh).iter().sum::<u64>() as f64 * params.e_convert_flit
            + stall_s * params.stall_power_fraction * current_power.iter().sum::<f64>();
        let period_s = 100e-6;
        let penalty_c = 0.5 * energy / (period_s + stall_s);
        let score = peak + penalty_c;
        if best.is_none_or(|(b, _)| score < b) {
            best = Some((score, scheme));
        }
    }
    Ok(best.expect("at least one applicable scheme").1)
}

/// Mirror of `run_adaptive_cosim`, inside a `core.adaptive` span.
pub fn run_adaptive_cosim(
    tr: &mut Tracer,
    chip: &Chip,
    cal: &CalibratedPower,
    params: &CosimParams,
) -> Result<CosimReplay, CoreError> {
    tr.enter("core.adaptive");
    let r = adaptive_body(tr, chip, cal, params);
    tr.exit();
    r
}

fn adaptive_body(
    tr: &mut Tracer,
    chip: &Chip,
    cal: &CalibratedPower,
    params: &CosimParams,
) -> Result<CosimReplay, CoreError> {
    let n = chip.spec().n_tiles();
    let mesh = chip.mesh();
    let areas = chip.tile_areas_mm2();
    let base_temps = steady_with_leakage(tr, chip, &cal.dynamic)?;
    let base_peak = peak_of(&base_temps);
    let period_s = cal.block_seconds * params.period_blocks as f64;
    let mut current = cal.dynamic.clone();
    let mut schedule = Vec::new();

    let init_leak = tr.hot("power.leakage", || {
        leakage::leakage_per_block(&areas, &base_temps, chip.tech())
    });
    let init_total: Vec<f64> = current.iter().zip(&init_leak).map(|(d, l)| d + l).collect();
    let mut sim = tr.hot("thermal.init", || {
        let mut sim = TransientSim::new(chip.thermal(), params.dt, Integrator::BackwardEuler)?;
        sim.init_from_steady(&init_total)?;
        Ok::<_, CoreError>(sim)
    })?;

    let frames = (params.sim_time / params.dt).round() as usize;
    let warmup_frames = (params.warmup / params.dt).round() as usize;
    let mut trace = ThermalTrace::new(params.dt, n);
    let mut time_in_period = 0.0f64;
    for _ in 0..frames {
        if time_in_period >= period_s {
            time_in_period = 0.0;
            let scheme = pick_scheme(tr, chip, &current, params)?;
            schedule.push(scheme);
            let mut next = vec![0.0; n];
            for (tile, &cur) in current.iter().enumerate() {
                let c = mesh.coord(NodeId::new(tile as u16));
                let dst = scheme.apply(c, mesh);
                next[mesh.node_id(dst).expect("on mesh").index()] = cur;
            }
            current = next;
            // The executed plan only feeds the throughput penalty, which
            // the fidelity check does not compare; it is built because the
            // library builds it on every decision.
            plan_of(tr, mesh, scheme);
        }
        let mut power = current.clone();
        let leak = tr.hot("power.leakage", || {
            leakage::leakage_per_block(&areas, sim.block_temps(), chip.tech())
        });
        for (p, l) in power.iter_mut().zip(&leak) {
            *p += l;
        }
        tr.hot("thermal.step", || sim.step(&power))?;
        tr.hot("thermal.trace", || trace.push(sim.block_temps()));
        time_in_period += params.dt;
    }
    let stats = tr
        .hot("thermal.trace", || {
            trace.stats_after(warmup_frames.min(frames.saturating_sub(1)))
        })
        .expect("at least one measured frame");
    Ok(CosimReplay {
        peak: stats.peak,
        reduction: base_peak - stats.peak,
        migrations: schedule.len() as u64,
        schedule,
    })
}

/// Drain budget of a traffic job, as `run_scenario` sets it.
const DRAIN_BUDGET_PER_CYCLE: u64 = 50;
const DRAIN_BUDGET_FLOOR: u64 = 50_000;

/// What the fidelity check compares for a traffic job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficReplay {
    pub offered: u64,
    pub delivered: u64,
    pub drained: bool,
    pub flit_hops: u64,
    pub max_latency_cycles: u64,
    pub packets_dropped: u64,
}

impl TrafficReplay {
    /// The fields of an artifact outcome that the replay must reproduce.
    pub fn of(m: &TrafficMetrics) -> TrafficReplay {
        TrafficReplay {
            offered: m.offered,
            delivered: m.delivered,
            drained: m.drained,
            flit_hops: m.flit_hops,
            max_latency_cycles: m.max_latency_cycles,
            packets_dropped: m.packets_dropped,
        }
    }
}

/// Mirror of a traffic job (`TrafficGenerator::run` unrolled into
/// `tick` + `Network::step`, then `Network::run_until_idle` unrolled into
/// `Network::step` under a `noc.drain` span).
pub fn run_traffic(tr: &mut Tracer, spec: &ScenarioSpec) -> Result<TrafficReplay, String> {
    tr.enter("noc.setup");
    let setup = traffic_setup(spec);
    tr.exit();
    let (mut net, mut gen, cycles) = setup?;
    let mut offered = 0;
    for _ in 0..cycles {
        offered += tr.hot("noc.inject", || gen.tick(&mut net));
        tr.hot("noc.step", || net.step());
    }
    let budget = cycles.saturating_mul(DRAIN_BUDGET_PER_CYCLE) + DRAIN_BUDGET_FLOOR;
    tr.enter("noc.drain");
    let mut spent = 0;
    let mut drained = true;
    while net.in_flight() > 0 {
        if spent >= budget {
            drained = false;
            break;
        }
        tr.hot("noc.step", || net.step());
        spent += 1;
    }
    tr.exit();
    let stats = net.stats();
    Ok(TrafficReplay {
        offered,
        delivered: stats.packets_delivered,
        drained,
        flit_hops: stats.flit_hops,
        max_latency_cycles: stats.max_packet_latency,
        packets_dropped: stats.packets_dropped,
    })
}

/// What a traffic job builds before its first cycle: the network (with its
/// fault plan) and the generator, returned with the job's injection cycles.
/// This is the traffic-load workload's set-up cost.
pub fn traffic_setup(spec: &ScenarioSpec) -> Result<(Network, TrafficGenerator, u64), String> {
    let Workload::Traffic {
        pattern,
        rate,
        packet_len,
        cycles,
    } = &spec.workload
    else {
        return Err(format!("{} is not a traffic job", spec.name));
    };
    let mesh = Mesh::square(spec.chip.mesh_side()).map_err(|e| e.to_string())?;
    let mut net = Network::new(mesh, NocConfig::default());
    if !spec.faults.is_empty() {
        net.install_fault_plan(fault_plan_of(&spec.faults))
            .map_err(|e| e.to_string())?;
    }
    let gen = TrafficGenerator::new(mesh, pattern.clone(), *rate, *packet_len, spec.seed);
    Ok((net, gen, *cycles))
}
