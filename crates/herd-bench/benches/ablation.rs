//! Ablations of design choices the paper discusses (see the README):
//!
//! - Sec 8.2's "more static" preserved program order (no `rdw`/`detour`):
//!   cost and verdict drift;
//! - the `.st`-fences-as-lightweight alternative of Sec 4.7;
//! - the cat interpreter against the native Power model (the price of
//!   genericity).

use criterion::{criterion_group, criterion_main, Criterion};
use herd_bench::{enumerate_all, power_tests};
use herd_cat::stock;
use herd_core::arch::{Arm, ArmVariant, Power};
use herd_core::model::check;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cands = enumerate_all(&power_tests());

    // Report verdict drift of the static ppo once.
    let full = Power::new();
    let static_ppo = Power::without_dynamic_ppo();
    let drift = cands
        .iter()
        .filter(|x| check(&full, &x.exec).allowed() != check(&static_ppo, &x.exec).allowed())
        .count();
    println!(
        "static-ppo ablation: {} of {} candidates change verdict (paper: 24 tests of 8117)",
        drift,
        cands.len()
    );

    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);

    g.bench_function("power_full_ppo", |b| {
        b.iter(|| {
            let n: usize =
                cands.iter().filter(|x| check(&full, black_box(&x.exec)).allowed()).count();
            black_box(n)
        })
    });

    g.bench_function("power_static_ppo", |b| {
        b.iter(|| {
            let n: usize =
                cands.iter().filter(|x| check(&static_ppo, black_box(&x.exec)).allowed()).count();
            black_box(n)
        })
    });

    g.bench_function("arm_st_fences_full_vs_lightweight", |b| {
        let full_st = Arm::new(ArmVariant::Proposed);
        let light_st = Arm::with_lightweight_st_fences(ArmVariant::Proposed);
        b.iter(|| {
            let n: usize = cands
                .iter()
                .filter(|x| {
                    check(&full_st, &x.exec).allowed() == check(&light_st, &x.exec).allowed()
                })
                .count();
            black_box(n)
        })
    });

    g.bench_function("cat_interpreter_power", |b| {
        let cat = stock::load(stock::POWER);
        b.iter(|| {
            let n: usize = cands
                .iter()
                .filter(|x| cat.check(black_box(&x.exec)).expect("evaluates").allowed())
                .count();
            black_box(n)
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
