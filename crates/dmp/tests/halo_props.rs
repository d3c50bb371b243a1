//! Property tests for halo exchange: random shapes, topologies, radii and
//! modes must reconstruct every interior FULL-region value, and all three
//! modes must agree bit-for-bit.

use std::ops::Range;
use std::sync::Arc;

use mpix_comm::{CartComm, Tag, Universe};
use mpix_dmp::halo::{HaloExchanger, HaloPlan};
use mpix_dmp::regions::for_each_index;
use mpix_dmp::{BoxNd, Decomposition, DistArray, HaloMode, Region};
use mpix_trace::Tracer;
use proptest::prelude::*;

/// Run one exchange and return every rank's FULL-region contents in a
/// canonical (coords, values) form.
fn exchange_snapshot(
    global: &[usize],
    dims: &[usize],
    radius: usize,
    mode: HaloMode,
) -> Vec<Vec<f32>> {
    let nranks: usize = dims.iter().product();
    let global = global.to_vec();
    let dims = dims.to_vec();
    Universe::run(nranks, move |comm| {
        let cart = CartComm::new(comm, &dims);
        let dc = Arc::new(Decomposition::new(&global, &dims));
        let coords = cart.coords().to_vec();
        let mut arr = DistArray::new(Arc::clone(&dc), &coords, radius.max(2));
        // Owned values = global linear index + 1.
        let nd = global.len();
        let starts: Vec<usize> = (0..nd)
            .map(|d| dc.owned_range(d, coords[d]).start)
            .collect();
        let local: Vec<std::ops::Range<usize>> = arr.local_shape().iter().map(|&n| 0..n).collect();
        let mut writes = Vec::new();
        for_each_index(&local, |idx| {
            let mut lin = 0usize;
            for d in 0..nd {
                lin = lin * global[d] + starts[d] + idx[d];
            }
            writes.push((idx.to_vec(), (lin + 1) as f32));
        });
        for (idx, v) in writes {
            arr.set_local(&idx, v);
        }
        HaloExchanger::new(mode).exchange(&cart, &mut arr, radius, 0, &mut Tracer::off());
        let full = arr.region(Region::Full, radius);
        let mut vals = Vec::new();
        for_each_index(&full, |p| vals.push(arr.get_padded(p)));
        vals
    })
}

/// Reference: what the FULL region *should* contain, computed globally.
fn expected_snapshot(global: &[usize], dims: &[usize], radius: usize) -> Vec<Vec<f32>> {
    let nranks: usize = dims.iter().product();
    let dc = Decomposition::new(global, dims);
    let nd = global.len();
    (0..nranks)
        .map(|rank| {
            let coords = CartComm::coords_of(dims, rank);
            let starts: Vec<i64> = (0..nd)
                .map(|d| dc.owned_range(d, coords[d]).start as i64)
                .collect();
            let shape = dc.local_shape(&coords);
            let full: Vec<std::ops::Range<i64>> = shape
                .iter()
                .map(|&n| -(radius as i64)..(n + radius) as i64)
                .collect();
            let mut vals = Vec::new();
            let mut idx: Vec<i64> = full.iter().map(|r| r.start).collect();
            'outer: loop {
                let mut lin = 0i64;
                let mut inside = true;
                for d in 0..nd {
                    let g = idx[d] + starts[d];
                    if g < 0 || g >= global[d] as i64 {
                        inside = false;
                    }
                    lin = lin * global[d] as i64 + g;
                }
                vals.push(if inside { (lin + 1) as f32 } else { 0.0 });
                let mut d = nd;
                loop {
                    if d == 0 {
                        break 'outer;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < full[d].end {
                        break;
                    }
                    idx[d] = full[d].start;
                }
            }
            vals
        })
        .collect()
}

// ---------------------------------------------------------------------------
// HaloPlan vs. the legacy per-call geometry
// ---------------------------------------------------------------------------

/// Independent reimplementation of the pre-plan per-call geometry: for
/// each message the pre-plan *basic*/*diagonal* exchanges would have
/// sent, the `(peer, send_tag, recv_tag, send_box, recv_box)` tuple it
/// would have computed, grouped by step.
#[allow(clippy::type_complexity)]
fn legacy_rows(
    cart: &CartComm,
    arr: &DistArray,
    mode: HaloMode,
    radius: usize,
    tag_base: Tag,
) -> Vec<Vec<(usize, Tag, Tag, BoxNd, BoxNd)>> {
    let nd = arr.local_shape().len();
    let halo = arr.halo();
    let mut steps = Vec::new();
    match mode {
        HaloMode::Basic => {
            for d in 0..nd {
                let extent = |e: usize| -> Range<usize> {
                    let n = arr.local_shape()[e];
                    if e < d {
                        halo - radius..halo + n + radius
                    } else {
                        halo..halo + n
                    }
                };
                let n_d = arr.local_shape()[d];
                let mut rows = Vec::new();
                for side in [-1i32, 1] {
                    let mut dvec = vec![0i32; nd];
                    dvec[d] = side;
                    if let Some(peer) = cart.neighbor(&dvec) {
                        let recv_tag = tag_base + (d as Tag) * 2 + u32::from(side > 0);
                        let send_tag = tag_base + (d as Tag) * 2 + u32::from(side < 0);
                        let send_box: BoxNd = (0..nd)
                            .map(|e| {
                                if e == d {
                                    if side < 0 {
                                        halo..halo + radius
                                    } else {
                                        halo + n_d - radius..halo + n_d
                                    }
                                } else {
                                    extent(e)
                                }
                            })
                            .collect();
                        let recv_box: BoxNd = (0..nd)
                            .map(|e| {
                                if e == d {
                                    if side < 0 {
                                        halo - radius..halo
                                    } else {
                                        halo + n_d..halo + n_d + radius
                                    }
                                } else {
                                    extent(e)
                                }
                            })
                            .collect();
                        rows.push((peer, send_tag, recv_tag, send_box, recv_box));
                    }
                }
                steps.push(rows);
            }
        }
        HaloMode::Diagonal | HaloMode::Full => {
            let code_of = |disp: &[i32]| -> usize {
                disp.iter()
                    .fold(0usize, |acc, &d| acc * 3 + (d + 1) as usize)
            };
            let strip = |s: i32, d: usize, own: bool| -> Range<usize> {
                let n = arr.local_shape()[d];
                match (s, own) {
                    (-1, true) => halo..halo + radius,
                    (1, true) => halo + n - radius..halo + n,
                    (-1, false) => halo - radius..halo,
                    (1, false) => halo + n..halo + n + radius,
                    _ => halo..halo + n,
                }
            };
            let mut rows = Vec::new();
            for (disp, peer) in cart.all_neighbors() {
                let inv: Vec<i32> = disp.iter().map(|x| -x).collect();
                let send_box: BoxNd = disp
                    .iter()
                    .enumerate()
                    .map(|(d, &s)| strip(s, d, true))
                    .collect();
                let recv_box: BoxNd = disp
                    .iter()
                    .enumerate()
                    .map(|(d, &s)| strip(s, d, false))
                    .collect();
                rows.push((
                    peer,
                    tag_base + code_of(&inv) as Tag,
                    tag_base + code_of(&disp) as Tag,
                    send_box,
                    recv_box,
                ));
            }
            steps.push(rows);
        }
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The persistent plan must precompute exactly the geometry the
    /// legacy path derived per call: same peers, same tags, same
    /// send/recv boxes — across nd ∈ {1,2,3}, uneven decompositions and
    /// radii 1..4, for every mode and every rank.
    #[test]
    fn prop_plan_matches_legacy_per_call_geometry(
        nd in 1usize..4,
        p0 in 1usize..4, p1 in 1usize..3, p2 in 1usize..3,
        extra in 0usize..3,
        radius in 1usize..5,
        mode_idx in 0usize..3,
    ) {
        let dims: Vec<usize> = [p0, p1, p2][..nd].to_vec();
        prop_assume!(dims.iter().product::<usize>() > 1);
        // Uneven: global extent not divisible by the rank count.
        let global: Vec<usize> = dims
            .iter()
            .map(|&p| p * (radius.max(2) * 2 + 1) + extra)
            .collect();
        let mode = [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full][mode_idx];
        let nranks: usize = dims.iter().product();
        let tag_base = 640;
        let dims_c = dims.clone();
        let global_c = global.clone();
        let ok = Universe::run(nranks, move |comm| {
            let cart = CartComm::new(comm, &dims_c);
            let dc = Arc::new(Decomposition::new(&global_c, &dims_c));
            let coords = cart.coords().to_vec();
            let arr = DistArray::new(dc, &coords, radius.max(2));
            let plan = HaloPlan::build(&cart, &arr, mode, radius, tag_base);
            let want = legacy_rows(&cart, &arr, mode, radius, tag_base);
            if plan.num_steps() != want.len() {
                return Err(format!(
                    "steps: plan {} vs legacy {}", plan.num_steps(), want.len()
                ));
            }
            for (s, rows) in want.iter().enumerate() {
                let got = plan.step_view(s);
                if &got != rows {
                    return Err(format!("step {s}: plan {got:?} vs legacy {rows:?}"));
                }
            }
            Ok(())
        });
        for (rank, r) in ok.into_iter().enumerate() {
            prop_assert!(r.is_ok(), "mode {:?} dims {:?} radius {} rank {}: {}",
                mode, dims, radius, rank, r.unwrap_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_exchange_reconstructs_full_region_2d(
        px in 1usize..4, py in 1usize..4,
        ex in 6usize..12, ey in 6usize..12,
        radius in 1usize..3,
        mode_idx in 0usize..3,
    ) {
        let dims = [px, py];
        let global = [px * ex, py * ey];
        prop_assume!(px * py > 1);
        let mode = [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full][mode_idx];
        let got = exchange_snapshot(&global, &dims, radius, mode);
        let want = expected_snapshot(&global, &dims, radius);
        prop_assert_eq!(got, want, "mode {:?} dims {:?} radius {}", mode, dims, radius);
    }

    #[test]
    fn prop_modes_agree_3d(
        px in 1usize..3, py in 1usize..3, pz in 1usize..3,
        radius in 1usize..3,
    ) {
        prop_assume!(px * py * pz > 1);
        let dims = [px, py, pz];
        let global = [px * 5, py * 6, pz * 4];
        let a = exchange_snapshot(&global, &dims, radius, HaloMode::Basic);
        let b = exchange_snapshot(&global, &dims, radius, HaloMode::Diagonal);
        let c = exchange_snapshot(&global, &dims, radius, HaloMode::Full);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        let want = expected_snapshot(&global, &dims, radius);
        prop_assert_eq!(a, want);
    }
}
