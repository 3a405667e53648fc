//! Criterion benchmarks: floorplanning and design realization.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vi_noc_core::{realize_on_floorplan, synthesize, SynthesisConfig};
use vi_noc_floorplan::{floorplan, FloorplanConfig, Module, Net};
use vi_noc_soc::{benchmarks, partition, CoreId};

fn bench_floorplan_sa(c: &mut Criterion) {
    let soc = benchmarks::d26_mobile();
    let modules: Vec<Module> = soc
        .cores()
        .iter()
        .map(|core| Module::new(core.name.clone(), core.area.mm2(), 0))
        .collect();
    let nets: Vec<Net> = soc
        .flows()
        .iter()
        .map(|f| Net::two_pin(f.src.index(), f.dst.index(), f.bandwidth.mbps()))
        .collect();
    let cfg = FloorplanConfig {
        iterations: 5_000,
        ..FloorplanConfig::default()
    };
    c.bench_function("floorplan_d26_5k_moves", |b| {
        b.iter(|| floorplan(black_box(&modules), black_box(&nets), &cfg))
    });
}

/// The annealer as `Scenario` runs it: default `FloorplanConfig` (2
/// restarts × 20 000 moves), cores on their 6 logical islands so the
/// cohesion term is live.
fn bench_floorplan_default(c: &mut Criterion) {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).expect("islands");
    let modules: Vec<Module> = soc
        .cores()
        .iter()
        .enumerate()
        .map(|(i, core)| {
            Module::new(
                core.name.clone(),
                core.area.mm2(),
                vi.island_of(CoreId::from_index(i)),
            )
        })
        .collect();
    let nets: Vec<Net> = soc
        .flows()
        .iter()
        .map(|f| Net::two_pin(f.src.index(), f.dst.index(), f.bandwidth.mbps()))
        .collect();
    let cfg = FloorplanConfig::default();
    let mut group = c.benchmark_group("floorplan_default");
    group.sample_size(10);
    group.bench_function("floorplan_d26_6vi", |b| {
        b.iter(|| floorplan(black_box(&modules), black_box(&nets), &cfg))
    });
    group.finish();
}

fn bench_realization(c: &mut Criterion) {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).expect("islands");
    let cfg = SynthesisConfig::default();
    let space = synthesize(&soc, &vi, &cfg).expect("feasible");
    let point = space.min_power_point().unwrap().clone();
    let fp_cfg = FloorplanConfig {
        iterations: 5_000,
        ..FloorplanConfig::default()
    };
    let mut group = c.benchmark_group("realize");
    group.sample_size(10);
    group.bench_function("realize_d26_6vi", |b| {
        b.iter(|| realize_on_floorplan(black_box(&soc), &vi, &point, &fp_cfg, &cfg))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_floorplan_sa,
    bench_floorplan_default,
    bench_realization
);
criterion_main!(benches);
