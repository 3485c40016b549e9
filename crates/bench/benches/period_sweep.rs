//! Bench harness for the **§3 migration-period sweep** (109.3 / 437.2 /
//! 874.4 µs → 1.6 % / <0.4 % / <0.2 % throughput penalty): the
//! co-simulation at the three period settings. The table itself comes from
//! `hotnoc campaign run --builtin period-sweep [--quick]`.

use criterion::{criterion_group, criterion_main, Criterion};
use hotnoc_core::chip::Chip;
use hotnoc_core::configs::{ChipConfigId, ChipSpec, Fidelity};
use hotnoc_core::cosim::{run_cosim, CosimParams};
use hotnoc_reconfig::MigrationScheme;

fn bench_period(c: &mut Criterion) {
    let mut chip = Chip::build(ChipSpec::of(ChipConfigId::A, Fidelity::Quick)).expect("build");
    let cal = chip.calibrate().expect("calibrate");

    let mut group = c.benchmark_group("period_sweep/cosim");
    group.sample_size(10);
    for blocks in [24u64, 96, 192] {
        group.bench_function(format!("{blocks}_blocks"), |b| {
            let params = CosimParams {
                period_blocks: blocks,
                ..CosimParams::quick()
            };
            b.iter(|| {
                run_cosim(&chip, &cal, Some(MigrationScheme::XYShift), &params).expect("cosim")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_period);
criterion_main!(benches);
