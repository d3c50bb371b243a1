//! Halo-exchange cost per pattern at 8 simulated ranks (the Table I
//! comparison and the plan-reuse ablation, DESIGN.md §5.1/5.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

use mpix_comm::{CartComm, Universe};
use mpix_dmp::{Decomposition, DistArray, HaloExchanger, HaloMode};
use mpix_trace::Tracer;

/// One full exchange on 8 ranks (2x2x2) for a field of `n`³ local points
/// at radius `r`.
fn run_exchange(mode: HaloMode, n: usize, r: usize, steps: usize) {
    let global = [n * 2, n * 2, n * 2];
    Universe::run(8, |comm| {
        let cart = CartComm::new(comm, &[2, 2, 2]);
        let dc = Arc::new(Decomposition::new(&global, &[2, 2, 2]));
        let coords = cart.coords().to_vec();
        let mut arr = DistArray::new(dc, &coords, r.max(2));
        let mut ex = HaloExchanger::new(mode);
        for _ in 0..steps {
            ex.exchange(&cart, &mut arr, r, 0, &mut Tracer::off());
        }
    });
}

fn bench_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("halo_exchange_8ranks");
    g.sample_size(10);
    for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
        for n in [16usize, 32] {
            g.bench_with_input(
                BenchmarkId::new(format!("{mode:?}"), format!("{n}^3_r4")),
                &(mode, n),
                |b, &(mode, n)| b.iter(|| run_exchange(mode, n, 4, 4)),
            );
        }
    }
    g.finish();
}

/// The plan-reuse ablation: every mode runs on a persistent plan with
/// preallocated buffers, so here we isolate repeated exchanges on one
/// long-lived exchanger vs a fresh exchanger per step (which rebuilds
/// the plan every time — what per-call allocation amounts to).
fn bench_prealloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("prealloc_ablation");
    g.sample_size(10);
    let global = [32usize, 32, 32];
    g.bench_function("diagonal_reused_buffers", |b| {
        b.iter(|| {
            Universe::run(8, |comm| {
                let cart = CartComm::new(comm, &[2, 2, 2]);
                let dc = Arc::new(Decomposition::new(&global, &[2, 2, 2]));
                let coords = cart.coords().to_vec();
                let mut arr = DistArray::new(dc, &coords, 4);
                let mut ex = HaloExchanger::new(HaloMode::Diagonal);
                for _ in 0..6 {
                    ex.exchange(&cart, &mut arr, 4, 0, &mut Tracer::off());
                }
            })
        })
    });
    g.bench_function("diagonal_fresh_buffers_each_step", |b| {
        b.iter(|| {
            Universe::run(8, |comm| {
                let cart = CartComm::new(comm, &[2, 2, 2]);
                let dc = Arc::new(Decomposition::new(&global, &[2, 2, 2]));
                let coords = cart.coords().to_vec();
                let mut arr = DistArray::new(dc, &coords, 4);
                for _ in 0..6 {
                    HaloExchanger::new(HaloMode::Diagonal).exchange(
                        &cart,
                        &mut arr,
                        4,
                        0,
                        &mut Tracer::off(),
                    );
                }
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_modes, bench_prealloc);
criterion_main!(benches);
