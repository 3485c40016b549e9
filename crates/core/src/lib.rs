//! # hotnoc-core — the DATE'05 co-simulation runtime
//!
//! Ties every substrate together into the paper's experimental flow:
//!
//! 1. [`configs`] defines the five chip configurations (A, B on 4x4 meshes;
//!    C, D, E on 5x5) with their thermally-placed workload distributions and
//!    the base peak temperatures reported in Figure 1.
//! 2. [`chip::Chip`] builds a configuration: LDPC code + cluster mapping
//!    (`hotnoc-ldpc`), cycle-accurate activity measurement (`hotnoc-noc`),
//!    power derivation and calibration (`hotnoc-power`), floorplan and RC
//!    thermal network (`hotnoc-thermal`).
//! 3. [`cosim`] runs the transient thermal co-simulation with periodic
//!    migration (`hotnoc-reconfig`), including migration state-transfer
//!    energy — "our simulations also include the energy consumed during the
//!    migration operation".
//! 4. [`experiment`] holds the paper's exhibit tables — Figure 1 (peak-
//!    temperature reductions), the migration-period sweep and the migration
//!    cost table — filled from campaign records by the scenario engine;
//!    [`report`] renders them.
//!
//! ```no_run
//! use hotnoc_core::configs::ChipConfigId;
//! use hotnoc_core::experiment::quick_demo;
//!
//! let outcome = quick_demo(ChipConfigId::A)?;
//! println!("config A base peak: {:.2} C", outcome.base_peak_celsius);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod chip;
pub mod configs;
pub mod cosim;
pub mod error;
pub mod experiment;
pub mod report;

pub use adaptive::{run_adaptive_cosim, run_adaptive_cosim_traced, AdaptiveResult};
pub use chip::{CalibratedPower, Chip};
pub use configs::{ChipConfigId, ChipSpec};
pub use cosim::{
    migration_cost, run_cosim, run_cosim_traced, CosimParams, CosimResult, MigrationCost,
};
pub use error::CoreError;
