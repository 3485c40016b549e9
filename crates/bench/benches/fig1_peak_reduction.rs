//! Bench harness for **Figure 1** (reduction in peak temperatures): the
//! pipeline stages behind it — chip calibration, the orbit-average
//! predictor, and one transient co-simulation run. The figure itself comes
//! from `hotnoc campaign run --builtin fig1 [--quick]`.

use criterion::{criterion_group, criterion_main, Criterion};
use hotnoc_core::chip::Chip;
use hotnoc_core::configs::{ChipConfigId, ChipSpec, Fidelity};
use hotnoc_core::cosim::{predicted_reduction, run_cosim, CosimParams};
use hotnoc_reconfig::MigrationScheme;

fn bench_fig1(c: &mut Criterion) {
    c.bench_function("fig1/chip_calibration_A", |b| {
        b.iter(|| {
            let mut chip =
                Chip::build(ChipSpec::of(ChipConfigId::A, Fidelity::Quick)).expect("build");
            chip.calibrate().expect("calibrate")
        })
    });

    let mut chip = Chip::build(ChipSpec::of(ChipConfigId::A, Fidelity::Quick)).expect("build");
    let cal = chip.calibrate().expect("calibrate");

    c.bench_function("fig1/predictor_all_schemes_A", |b| {
        b.iter(|| {
            MigrationScheme::FIGURE1
                .iter()
                .map(|&s| predicted_reduction(&chip, &cal, s).expect("predict"))
                .sum::<f64>()
        })
    });

    let mut group = c.benchmark_group("fig1/cosim_quick_A");
    group.sample_size(10);
    for scheme in [MigrationScheme::Rotation, MigrationScheme::XYShift] {
        group.bench_function(scheme.to_string().replace(' ', "_"), |b| {
            b.iter(|| run_cosim(&chip, &cal, Some(scheme), &CosimParams::quick()).expect("cosim"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
