//! The paper's exhibits, rendered from campaign records. [`render`] is the
//! one dispatch: `hotnoc campaign run` calls it when a whole run completes,
//! prints every exhibit the records determine (Figure 1, the §3 period
//! table, the §2.1–2.2 migration-cost tables, latency-vs-load curves) and
//! saves each table's CSV next to the campaign artifacts. A cell that
//! matches several records skips its exhibit rather than silently picking
//! one. docs/CAMPAIGNS.md *Exhibits* lists which records render what.

use crate::outcome::ScenarioOutcome;
use crate::runner::JobRecord;
use crate::spec::{ChipKind, Policy, Workload};
use crate::stats::{GroupKey, SummaryStats};
use hotnoc_core::configs::ChipConfigId;
use hotnoc_core::experiment::{Fig1Row, Fig1Table, MigrationCostRow, PeriodRow, PeriodTable};
use hotnoc_core::report;
use hotnoc_reconfig::MigrationScheme;
use std::fmt::Write as _;

/// One rendered exhibit.
#[derive(Debug, Clone, PartialEq)]
pub struct Exhibit {
    /// The table and its notes, as printed.
    pub text: String,
    /// `(file name, contents)` of the CSV saved next to the campaign
    /// artifacts; `None` for a text-only exhibit.
    pub csv: Option<(String, String)>,
}

/// Every exhibit a complete campaign's records determine, in a fixed
/// order: Figure 1, the period table, the migration-cost tables (configs
/// in [`ChipConfigId::ALL`] order), the latency-vs-load curves.
pub fn render(records: &[JobRecord]) -> Vec<Exhibit> {
    let mut out = Vec::new();
    if let Ok(table) = fig1_table(records) {
        out.push(Exhibit {
            text: fig1_text(&table),
            csv: Some(("fig1.csv".to_string(), report::fig1_csv(&table))),
        });
    }
    if let Ok(table) = period_table(records) {
        out.push(Exhibit {
            text: period_text(&table),
            csv: Some(("period_sweep.csv".to_string(), report::period_csv(&table))),
        });
    }
    for id in ChipConfigId::ALL {
        if let Ok(rows) = migration_cost_rows(records, id) {
            out.push(Exhibit {
                text: migration_cost_text(id, &rows),
                csv: Some((
                    format!("migration_cost_{id}.csv"),
                    report::migration_cost_csv(&rows),
                )),
            });
        }
    }
    if let Some(text) = render_latency_load(&latency_load_curves(records)) {
        out.push(Exhibit { text, csv: None });
    }
    out
}

/// The outcome of the one periodic record of config `id` under `scheme`
/// that `pick` accepts.
///
/// # Errors
///
/// Reports a cell with no such record, or with several.
fn cell<'a, T>(
    records: &'a [JobRecord],
    id: ChipConfigId,
    scheme: MigrationScheme,
    pick: impl Fn(&'a ScenarioOutcome) -> Option<&'a T>,
) -> Result<&'a T, String> {
    let mut found = records.iter().filter_map(|r| match r.spec.policy {
        Policy::Periodic { scheme: s, .. }
            if s == scheme && r.spec.chip == ChipKind::Config(id) =>
        {
            pick(&r.outcome)
        }
        _ => None,
    });
    match (found.next(), found.next()) {
        (Some(m), None) => Ok(m),
        (None, _) => Err(format!("no record for config {id}, scheme {scheme}")),
        (Some(_), Some(_)) => Err(format!("several records for config {id}, scheme {scheme}")),
    }
}

/// Rebuilds the Figure 1 table from a `fig1`-shaped campaign: one periodic
/// cosim record for every config in [`ChipConfigId::ALL`] x every scheme
/// in [`MigrationScheme::FIGURE1`].
///
/// # Errors
///
/// Reports the first (config, scheme) cell with no or several records.
pub fn fig1_table(records: &[JobRecord]) -> Result<Fig1Table, String> {
    let mut rows = Vec::new();
    for id in ChipConfigId::ALL {
        let mut results = Vec::new();
        for scheme in MigrationScheme::FIGURE1 {
            let m = cell(records, id, scheme, |o| match o {
                ScenarioOutcome::Cosim(m) => Some(m),
                _ => None,
            })?;
            results.push(m.to_cosim_result(Some(scheme)));
        }
        rows.push(Fig1Row {
            config: id,
            base_peak: results[0].base_peak,
            results,
        });
    }
    Ok(Fig1Table { rows })
}

/// Rebuilds the §3 period-sweep table from a `period-sweep`-shaped
/// campaign: every periodic cosim record on one config under one scheme,
/// one record per period, at least two periods. Rows come out in campaign
/// (axis) order.
///
/// # Errors
///
/// Reports records that do not form one such sweep.
pub fn period_table(records: &[JobRecord]) -> Result<PeriodTable, String> {
    let mut sweep: Option<(ChipConfigId, MigrationScheme)> = None;
    let mut rows: Vec<PeriodRow> = Vec::new();
    for rec in records {
        let (
            Policy::Periodic {
                scheme,
                period_blocks,
            },
            ScenarioOutcome::Cosim(m),
        ) = (&rec.spec.policy, &rec.outcome)
        else {
            continue;
        };
        let ChipKind::Config(id) = rec.spec.chip else {
            return Err(format!(
                "record {} is not on a configuration",
                rec.spec.name
            ));
        };
        if *sweep.get_or_insert((id, *scheme)) != (id, *scheme) {
            return Err("periodic records span several configs or schemes".to_string());
        }
        if rows.iter().any(|r| r.period_blocks == *period_blocks) {
            return Err(format!("several records for period {period_blocks}"));
        }
        rows.push(PeriodRow {
            period_blocks: *period_blocks,
            period_us: m.period_seconds * 1e6,
            penalty_pct: m.throughput_penalty * 100.0,
            peak: m.peak,
            reduction: m.reduction,
        });
    }
    match sweep {
        Some((config, scheme)) if rows.len() >= 2 => Ok(PeriodTable {
            config,
            scheme,
            rows,
        }),
        _ => Err("fewer than two periods".to_string()),
    }
}

/// Rebuilds the §2.1–2.2 migration-cost table for one config from a
/// `migration-cost`-shaped campaign (plan-cost outcomes), in
/// [`MigrationScheme::FIGURE1`] order.
///
/// # Errors
///
/// Reports the first scheme with no or several plan-cost records.
pub fn migration_cost_rows(
    records: &[JobRecord],
    id: ChipConfigId,
) -> Result<Vec<MigrationCostRow>, String> {
    MigrationScheme::FIGURE1
        .iter()
        .map(|&scheme| {
            let m = cell(records, id, scheme, |o| match o {
                ScenarioOutcome::PlanCost(m) => Some(m),
                _ => None,
            })?;
            Ok(MigrationCostRow {
                scheme,
                phases: m.phases as usize,
                stall_us: m.stall_us,
                flit_hops: m.flit_hops,
                energy_uj: m.energy_uj,
                moves: m.moves as usize,
            })
        })
        .collect()
}

/// Figure 1 with the §3 cross-checks against the paper's numbers.
fn fig1_text(table: &Fig1Table) -> String {
    let mut s = format!("{}\n", report::fig1_ascii(table));
    let avg = table.average_reductions();
    let _ = writeln!(s, "\nSection 3 cross-checks:");
    let _ = writeln!(
        s,
        "  X-Y Shift average reduction: {:.2} C (paper: 4.62 C, highest)",
        avg[4]
    );
    let _ = writeln!(
        s,
        "  Rotation  average reduction: {:.2} C (paper: 4.15 C, second)",
        avg[0]
    );
    let rot_e = &table.rows[4].results[0];
    let _ = writeln!(
        s,
        "  Rotation on E: reduction {:.2} C (paper: negative), mean-temp increase {:.2} C (paper: ~0.3 C)",
        rot_e.reduction,
        rot_e.mean_temp_increase()
    );
    let a_row = &table.rows[0];
    let best_a = a_row
        .results
        .iter()
        .map(|r| r.reduction)
        .fold(f64::MIN, f64::max);
    let _ = writeln!(s, "  Best reduction on A: {best_a:.2} C (paper: up to 8 C)");
    let _ = writeln!(
        s,
        "  X-Y Shift throughput penalty at 1-block period: {:.2}% (paper: 1.6%)",
        a_row.results[4].throughput_penalty * 100.0
    );
    s
}

/// The period table with the paper's peak-rise reference points.
fn period_text(table: &PeriodTable) -> String {
    let mut s = format!("{}\n", report::period_ascii(table));
    if let [first, second, third] = table.rows.as_slice() {
        let _ = writeln!(
            s,
            "Peak rise from {}-block to {}-block period: {:.3} C (paper: < 0.1 C)",
            first.period_blocks,
            second.period_blocks,
            second.peak - first.peak
        );
        let _ = writeln!(
            s,
            "Peak rise from {}-block to {}-block period: {:.3} C (paper: no significant impact)",
            first.period_blocks,
            third.period_blocks,
            third.peak - first.peak
        );
    }
    s
}

/// One chip's migration-cost table with the "rotation largest" check.
fn migration_cost_text(id: ChipConfigId, rows: &[MigrationCostRow]) -> String {
    let side = ChipKind::Config(id).mesh_side();
    let max_other = rows[1..]
        .iter()
        .map(|r| r.energy_uj)
        .fold(f64::MIN, f64::max);
    format!(
        "Migration cost — {side}x{side} chip (config {id}):\n{}\n\
         Rotation energy {:.1} uJ vs best-of-others {:.1} uJ (paper: rotation largest)\n\n",
        report::migration_cost_ascii(rows),
        rows[0].energy_uj,
        max_other
    )
}

/// One operating point of a latency-vs-load saturation curve, aggregated
/// across the seed axis.
#[derive(Debug, Clone)]
pub struct LatencyLoadPoint {
    /// Offered load (packets per node per cycle).
    pub offered_load: f64,
    /// Seeds aggregated into this point.
    pub n: u64,
    /// Fraction of offered packets delivered (1.0 below saturation).
    pub delivered_frac: f64,
    /// Runs whose network drained within the post-run budget.
    pub drained: u64,
    /// Mean packet latency across seeds (summary over the per-run means).
    pub mean_latency: SummaryStats,
    /// Largest per-run p95 upper bound (histogram bucket edge), cycles.
    pub p95_upper: u64,
    /// Largest per-run maximum latency, cycles.
    pub max_latency: u64,
}

/// A latency-vs-load curve: one campaign group modulo the offered-load
/// tag, one point per load.
#[derive(Debug, Clone)]
pub struct LatencyLoadCurve {
    /// The curve's identity: the seed-stripped group key with the
    /// `@l<rate>` load tag removed (e.g. `"A/w0:traffic:uniform/baseline"`)
    /// — distinguishes workload-axis entries that share a pattern label
    /// but differ in packet length or cycle count.
    pub key: String,
    /// Chip label (`"A"`, `"custom6x6"`).
    pub chip: String,
    /// Workload label (`"traffic:uniform"`).
    pub workload: String,
    /// Operating points in ascending load order.
    pub points: Vec<LatencyLoadPoint>,
}

/// Extracts latency-vs-load curves from a campaign's traffic records: one
/// curve per load-stripped group, one point per offered load, seeds
/// collapsed. Campaigns without traffic records (or with a single
/// operating point per curve) still produce curves — rendering decides
/// what is worth showing.
pub fn latency_load_curves(records: &[JobRecord]) -> Vec<LatencyLoadCurve> {
    let mut curves: Vec<LatencyLoadCurve> = Vec::new();
    for rec in records {
        let (Workload::Traffic { rate, .. }, ScenarioOutcome::Traffic(m)) =
            (&rec.spec.workload, &rec.outcome)
        else {
            continue;
        };
        let key = GroupKey::of_name(&rec.spec.name)
            .as_str()
            .replacen(&format!("@l{rate}"), "", 1);
        let curve = match curves.iter_mut().find(|c| c.key == key) {
            Some(c) => c,
            None => {
                curves.push(LatencyLoadCurve {
                    key,
                    chip: rec.spec.chip.label(),
                    workload: rec.spec.workload.label(),
                    points: Vec::new(),
                });
                curves.last_mut().expect("just pushed")
            }
        };
        let point = match curve.points.iter_mut().find(|p| p.offered_load == *rate) {
            Some(p) => p,
            None => {
                curve.points.push(LatencyLoadPoint {
                    offered_load: *rate,
                    n: 0,
                    delivered_frac: 0.0,
                    drained: 0,
                    mean_latency: SummaryStats::new(),
                    p95_upper: 0,
                    max_latency: 0,
                });
                curve.points.last_mut().expect("just pushed")
            }
        };
        point.n += 1;
        // Running mean of the delivered fraction (each run weighs equally).
        let frac = if m.offered == 0 {
            1.0
        } else {
            m.delivered as f64 / m.offered as f64
        };
        point.delivered_frac += (frac - point.delivered_frac) / point.n as f64;
        point.drained += u64::from(m.drained);
        point.mean_latency.record(m.mean_latency_cycles);
        point.p95_upper = point.p95_upper.max(m.p95_latency_cycles);
        point.max_latency = point.max_latency.max(m.max_latency_cycles);
    }
    for curve in &mut curves {
        curve
            .points
            .sort_by(|a, b| a.offered_load.total_cmp(&b.offered_load));
    }
    curves
}

/// Renders latency-vs-load curves as deterministic text tables — the
/// saturation-curve exhibit a `latency-load` campaign produces. Curves
/// with fewer than two operating points are skipped (no curve to show);
/// returns `None` when nothing qualifies.
pub fn render_latency_load(curves: &[LatencyLoadCurve]) -> Option<String> {
    let mut s = String::new();
    for curve in curves.iter().filter(|c| c.points.len() >= 2) {
        let _ = writeln!(
            s,
            "latency vs offered load — chip {}, {} ({}):",
            curve.chip, curve.workload, curve.key
        );
        let _ = writeln!(
            s,
            "{:>8}  {:>3}  {:>10}  {:>22}  {:>7}  {:>7}  drained",
            "load", "n", "delivered", "mean latency (cyc)", "p95 <=", "max"
        );
        for p in &curve.points {
            let mean = p.mean_latency.mean().unwrap_or(0.0);
            let ci = match p.mean_latency.ci95_half_width() {
                Some(hw) => format!("{mean:.2} ± {hw:.2}"),
                None => format!("{mean:.2}"),
            };
            let _ = writeln!(
                s,
                "{:>8}  {:>3}  {:>9.1}%  {:>22}  {:>7}  {:>7}  {}/{}",
                p.offered_load,
                p.n,
                p.delivered_frac * 100.0,
                ci,
                p.p95_upper,
                p.max_latency,
                p.drained,
                p.n
            );
        }
    }
    (!s.is_empty()).then_some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::builtin;
    use crate::campaign::CampaignSpec;
    use crate::runner::{run_campaign, RunnerOptions};
    use hotnoc_core::configs::{ChipSpec, Fidelity};
    use hotnoc_core::cosim::{migration_cost, CosimParams};
    use hotnoc_core::Chip;

    /// Runs `spec` in a fresh scratch directory and returns its records.
    fn records_of_run(spec: &CampaignSpec, tag: &str) -> Vec<JobRecord> {
        let dir = std::env::temp_dir().join(format!("hotnoc-exhibit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = run_campaign(
            spec,
            &RunnerOptions {
                threads: 2,
                out_dir: dir.clone(),
                ..RunnerOptions::default()
            },
        )
        .expect("campaign runs");
        let _ = std::fs::remove_dir_all(&dir);
        run.completed
    }

    #[test]
    fn latency_load_campaign_produces_a_monotone_saturation_curve() {
        let dir = std::env::temp_dir().join(format!("hotnoc-latload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = builtin("latency-load", Fidelity::Quick).unwrap();
        let run = run_campaign(
            &spec,
            &RunnerOptions {
                threads: 2,
                out_dir: dir.clone(),
                ..RunnerOptions::default()
            },
        )
        .expect("campaign runs");
        let curves = latency_load_curves(&run.completed);
        assert_eq!(curves.len(), 1);
        let curve = &curves[0];
        assert_eq!(curve.chip, "A");
        assert_eq!(curve.points.len(), spec.offered_loads.len());
        for (p, &load) in curve.points.iter().zip(&spec.offered_loads) {
            assert_eq!(p.offered_load, load);
            assert_eq!(p.n, spec.seeds.len() as u64);
            assert!(p.mean_latency.mean().unwrap() > 0.0);
        }
        // Latency cannot improve as offered load grows (the defining shape
        // of a saturation curve, with slack for sub-saturation noise).
        let first = curve.points.first().unwrap().mean_latency.mean().unwrap();
        let last = curve.points.last().unwrap().mean_latency.mean().unwrap();
        assert!(
            last >= first * 0.95,
            "latency fell with load: {first:.2} -> {last:.2}"
        );
        let table = render_latency_load(&curves).expect("2+ points");
        assert!(table.contains("latency vs offered load"), "{table}");
        assert!(table.contains("0.02"), "{table}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `(phases, stall_us, flit_hops, energy_uj, moves)` of one scheme.
    type PinnedCost = (usize, f64, u64, f64, usize);

    /// The cost per Figure-1 scheme recorded by the quick `migration-cost`
    /// campaign; any change to the migration-cost model shows here.
    const PINNED_COST: [(ChipConfigId, [PinnedCost; 5]); 2] = [
        (
            ChipConfigId::A,
            [
                (3, 5.22, 30720, 166.98621887058437, 16),
                (2, 3.48, 24576, 119.92574591372293, 16),
                (2, 3.504, 49152, 132.82048347174862, 16),
                (1, 1.74, 18432, 72.86527295686146, 16),
                (1, 1.752, 36864, 82.38464173587431, 16),
            ],
        ),
        (
            ChipConfigId::E,
            [
                (4, 6.976, 61440, 222.78184554317107, 24),
                (2, 3.488, 46080, 128.90132277158554, 20),
                (2, 3.52, 92160, 157.60225967774687, 24),
                (1, 1.744, 30720, 86.72266138579278, 25),
                (1, 1.76, 61440, 102.45552983887346, 25),
            ],
        ),
    ];

    #[test]
    fn migration_cost_campaign_matches_the_pinned_tables() {
        let spec = builtin("migration-cost", Fidelity::Quick).unwrap();
        let records = records_of_run(&spec, "cost");
        for (id, pinned) in PINNED_COST {
            let rows = migration_cost_rows(&records, id).expect("rows");
            assert_eq!(rows.len(), pinned.len());
            for (row, (phases, stall_us, flit_hops, energy_uj, moves)) in rows.iter().zip(pinned) {
                assert_eq!(row.phases, phases, "{id} {}", row.scheme);
                assert_eq!(row.flit_hops, flit_hops, "{id} {}", row.scheme);
                assert_eq!(row.moves, moves, "{id} {}", row.scheme);
                assert!(
                    (row.stall_us - stall_us).abs() < 1e-9,
                    "{id} {}",
                    row.scheme
                );
                assert!(
                    (row.energy_uj - energy_uj).abs() < 1e-9,
                    "{id} {}",
                    row.scheme
                );
            }
            // Rotation stalls longest (most phases) — the paper's "largest
            // energy penalty".
            assert!(rows.iter().all(|r| r.energy_uj > 0.0));
            assert!(rows[0].stall_us > rows[4].stall_us);
            assert!(rows[0].energy_uj > rows[4].energy_uj);
        }
        let names: Vec<String> = render(&records)
            .into_iter()
            .filter_map(|e| e.csv.map(|(name, _)| name))
            .collect();
        assert_eq!(names, ["migration_cost_A.csv", "migration_cost_E.csv"]);
    }

    #[test]
    fn migration_cost_campaign_matches_the_direct_experiment() {
        let records = records_of_run(
            &builtin("migration-cost", Fidelity::Quick).unwrap(),
            "direct",
        );
        for id in [ChipConfigId::A, ChipConfigId::E] {
            let via_engine = migration_cost_rows(&records, id).expect("rows");
            let mut chip = Chip::build(ChipSpec::of(id, Fidelity::Quick)).unwrap();
            let cal = chip.calibrate().unwrap();
            assert_eq!(via_engine.len(), MigrationScheme::FIGURE1.len());
            for (a, &scheme) in via_engine.iter().zip(&MigrationScheme::FIGURE1) {
                let b = migration_cost(&chip, scheme, &CosimParams::quick(), cal.total_dynamic);
                assert_eq!(a.scheme, scheme);
                assert_eq!(a.phases, b.plan.num_phases());
                assert_eq!(a.flit_hops, b.plan.total_flit_hops());
                assert_eq!(a.moves, b.plan.total_moves());
                assert!((a.stall_us - b.stall_seconds * 1e6).abs() < 1e-9);
                assert!((a.energy_uj - b.energy_j * 1e6).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn a_cell_with_several_records_renders_nothing() {
        // `sweep` runs every Figure 1 cell at two periods.
        let records = records_of_run(&builtin("sweep", Fidelity::Quick).unwrap(), "sweep");
        let err = fig1_table(&records).unwrap_err();
        assert!(err.contains("several records"), "{err}");
        assert_eq!(render(&records), vec![]);
    }

    #[test]
    fn period_sweep_penalty_decreases_with_period() {
        let spec = CampaignSpec {
            periods: vec![8, 32],
            ..builtin("period-sweep", Fidelity::Quick).unwrap()
        };
        let t = period_table(&records_of_run(&spec, "period")).unwrap();
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[0].penalty_pct > t.rows[1].penalty_pct);
        let ratio = t.rows[0].penalty_pct / t.rows[1].penalty_pct;
        assert!((2.5..4.0).contains(&ratio), "penalty ratio {ratio} off");
    }

    #[test]
    fn quick_period_sweep_cools_at_every_period() {
        let spec = builtin("period-sweep", Fidelity::Quick).unwrap();
        let records = records_of_run(&spec, "quick-sweep");
        let t = period_table(&records).unwrap();
        let periods: Vec<u64> = t.rows.iter().map(|r| r.period_blocks).collect();
        assert_eq!(periods, [24, 96, 192]);
        for r in &t.rows {
            assert!(
                r.reduction > 0.0,
                "period {}: {:.2} C",
                r.period_blocks,
                r.reduction
            );
        }
        let exhibits = render(&records);
        assert_eq!(exhibits.len(), 1);
        assert!(exhibits[0]
            .text
            .contains("Peak rise from 24-block to 96-block"));
        assert_eq!(
            exhibits[0].csv.as_ref().map(|(name, _)| name.as_str()),
            Some("period_sweep.csv")
        );
    }
}
