//! Bench harness for the **§2.1–2.2 migration cost model**: congestion-free
//! phased planning and the per-tile state-transfer attribution behind the
//! paper's "energy consumed during the migration operation". The cost
//! tables themselves come from `hotnoc campaign run --builtin
//! migration-cost [--quick]`.

use criterion::{criterion_group, criterion_main, Criterion};
use hotnoc_noc::Mesh;
use hotnoc_reconfig::phases::PhaseCostModel;
use hotnoc_reconfig::{MigrationPlan, MigrationScheme, StateSpec};

fn bench_migration_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("migration_cost/plan");
    for side in [4usize, 5, 8] {
        let mesh = Mesh::square(side).expect("valid mesh");
        for scheme in [MigrationScheme::Rotation, MigrationScheme::XYShift] {
            group.bench_function(
                format!("{side}x{side}_{}", scheme.to_string().replace(' ', "_")),
                |b| {
                    b.iter(|| {
                        MigrationPlan::plan(
                            mesh,
                            scheme,
                            &StateSpec::default(),
                            &PhaseCostModel::default(),
                        )
                    })
                },
            );
        }
    }
    group.finish();

    c.bench_function("migration_cost/per_tile_flit_hops_5x5", |b| {
        let mesh = Mesh::square(5).expect("valid mesh");
        let plan = MigrationPlan::plan(
            mesh,
            MigrationScheme::Rotation,
            &StateSpec::default(),
            &PhaseCostModel::default(),
        );
        b.iter(|| plan.per_tile_flit_hops(mesh))
    });
}

criterion_group!(benches, bench_migration_cost);
criterion_main!(benches);
