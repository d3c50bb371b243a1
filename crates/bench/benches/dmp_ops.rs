//! Micro-benchmarks of the DMP substrate: index conversion, packing,
//! global slicing and sparse operations.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use mpix_dmp::regions::{region_box, Region};
use mpix_dmp::{Decomposition, DistArray, SparsePlan, SparsePoints};

fn bench_decomp(c: &mut Criterion) {
    let dc = Decomposition::new(&[1024, 1024, 1024], &[16, 8, 8]);
    c.bench_function("global_to_local_conversion", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for g in (0..1024).step_by(7) {
                let (cc, l) = dc.global_to_local(0, g);
                acc += cc + l;
            }
            acc
        })
    });
}

fn bench_pack(c: &mut Criterion) {
    let dc = Arc::new(Decomposition::new(&[128, 128, 128], &[2, 2, 2]));
    let mut arr = DistArray::new(Arc::clone(&dc), &[0, 0, 0], 4);
    // Face slab perpendicular to x: radius 4.
    let local = arr.local_shape().to_vec();
    let b4: Vec<std::ops::Range<usize>> = vec![4..8, 4..4 + local[1], 4..4 + local[2]];
    let mut buf = Vec::new();
    c.bench_function("pack_face_slab_64x64x4", |bch| {
        bch.iter(|| {
            arr.pack_box(&b4, &mut buf);
            buf.len()
        })
    });
    c.bench_function("unpack_face_slab_64x64x4", |bch| {
        arr.pack_box(&b4, &mut buf);
        bch.iter(|| arr.unpack_box(&b4, &buf))
    });
}

fn bench_slicing(c: &mut Criterion) {
    let dc = Arc::new(Decomposition::new(&[256, 256], &[2, 2]));
    let mut arr = DistArray::new(dc, &[0, 0], 4);
    c.bench_function("fill_global_slice_quarter", |b| {
        b.iter(|| arr.fill_global_slice(&[32..160, 32..160], 1.0))
    });
}

fn bench_sparse(c: &mut Criterion) {
    let dc = Arc::new(Decomposition::new(&[128, 128, 128], &[2, 2, 2]));
    let mut arr = DistArray::new(Arc::clone(&dc), &[0, 0, 0], 4);
    let pts = SparsePoints::new(
        (0..64)
            .map(|i| vec![1.0 + i as f64 * 0.9, 20.5, 30.25])
            .collect(),
        vec![1.0, 1.0, 1.0],
    );
    c.bench_function("sparse_plan_build_64_points", |b| {
        b.iter(|| SparsePlan::build(&pts, &arr).len())
    });
    let mut plan = SparsePlan::build(&pts, &arr);
    c.bench_function("sparse_inject_step_64_points", |b| {
        b.iter(|| plan.inject(arr.raw_mut(), |_| 1.0))
    });
    // Sampling one step of a long run; the end-of-run combine is
    // message traffic, measured by the end-to-end benchmark.
    plan.begin_run(1);
    let mut row = vec![f32::NAN; pts.len()];
    c.bench_function("sparse_sample_step_64_points", |b| {
        b.iter(|| {
            plan.sample(arr.raw(), 0, &mut row);
            row[0]
        })
    });
}

fn bench_regions(c: &mut Criterion) {
    c.bench_function("remainder_boxes_128cube_r4", |b| {
        b.iter(|| mpix_dmp::remainder_boxes(&[128, 128, 128], 4, 4).len())
    });
    c.bench_function("region_box_core", |b| {
        b.iter(|| region_box(Region::Core, &[128, 128, 128], 4, 4))
    });
}

criterion_group!(
    benches,
    bench_decomp,
    bench_pack,
    bench_slicing,
    bench_sparse,
    bench_regions
);
criterion_main!(benches);
