//! Integration: sparse (off-grid) operations under DMP — ownership
//! replication (Fig. 3), injection conservation, receiver gathers across
//! topologies, and `SparsePlan` checked bit for bit against the
//! per-point protocol it replaced.

use std::sync::Arc;

use mpix::comm::Tag;
use mpix::dmp::regions::for_each_index;
use mpix::prelude::*;
use mpix::solvers::{acoustic, ModelSpec};
use mpix::trace::MsgDir;
use proptest::prelude::*;

#[test]
fn receiver_gather_is_topology_invariant() {
    let spec = ModelSpec::new(&[12, 12, 12]).with_nbl(2);
    let op = acoustic::operator(&spec, 4);
    let nt = 6i64;
    let dt = spec.stable_dt(0.4);
    let opts = ApplyOptions::default().with_nt(nt).with_dt(dt);
    let spacing = vec![spec.spacing; 3];
    let rec: Vec<Vec<f64>> = vec![
        vec![0.05, 0.05, 0.08],
        vec![0.0799, 0.0799, 0.0799], // near a rank corner
    ];

    let mut gathers: Vec<Vec<Vec<f32>>> = Vec::new();
    for topo in [vec![2, 2, 2], vec![4, 2, 1], vec![8, 1, 1]] {
        let s2 = spec.clone();
        let rc = rec.clone();
        let sp = spacing.clone();
        let out = op
            .run(
                &opts.clone().with_ranks(8).with_topology(&topo),
                move |ws| {
                    acoustic::init_workspace(&s2, ws);
                    let c = s2.padded_shape()[0] / 2;
                    ws.field_data_mut("u", 0).set_global(&[c, c, c], 1.0);
                    ws.field_data_mut("u", -1).set_global(&[c, c, c], 1.0);
                    ws.add_receivers("u", SparsePoints::new(rc.clone(), sp.clone()));
                },
                |ws| ws.take_samples(0),
            )
            .results;
        // Merge: exactly one non-NaN per (t, p).
        let mut merged = vec![vec![f32::NAN; rec.len()]; nt as usize];
        for samples in &out {
            for (t, row) in samples.iter().enumerate() {
                for (p, &v) in row.iter().enumerate() {
                    if !v.is_nan() {
                        assert!(merged[t][p].is_nan(), "point recorded twice");
                        merged[t][p] = v;
                    }
                }
            }
        }
        for row in &merged {
            for &v in row {
                assert!(!v.is_nan(), "point never recorded");
            }
        }
        gathers.push(merged);
    }
    for other in &gathers[1..] {
        for (a, b) in gathers[0].iter().flatten().zip(other.iter().flatten()) {
            assert!(
                (a - b).abs() <= 1e-5 * b.abs().max(1e-3),
                "gather depends on topology: {a} vs {b}"
            );
        }
    }
}

#[test]
fn source_injection_is_topology_invariant() {
    let spec = ModelSpec::new(&[12, 12, 12]).with_nbl(2);
    let op = acoustic::operator(&spec, 4);
    let nt = 6i64;
    let opts = ApplyOptions::default()
        .with_nt(nt)
        .with_dt(spec.stable_dt(0.4));
    let spacing = vec![spec.spacing; 3];
    // Off-grid source near the center (straddling ranks in some topologies).
    let src = vec![0.0755, 0.0755, 0.0755];
    let mut fields = Vec::new();
    for ranks_topo in [
        (1usize, None),
        (4, Some(vec![2, 2, 1])),
        (8, Some(vec![2, 2, 2])),
    ] {
        let s2 = spec.clone();
        let sc = src.clone();
        let sp = spacing.clone();
        let mut o = opts.clone().with_ranks(ranks_topo.0);
        o.topology = ranks_topo.1;
        let out = op
            .run(
                &o,
                move |ws| {
                    acoustic::init_workspace(&s2, ws);
                    ws.add_injection(
                        "u",
                        SparsePoints::new(vec![sc.clone()], sp.clone()),
                        vec![1.0; nt as usize],
                        vec![1.0],
                    );
                },
                |ws| ws.gather("u"),
            )
            .results;
        fields.push(out.into_iter().next().unwrap());
    }
    for other in &fields[1..] {
        for (a, b) in fields[0].iter().zip(other) {
            assert!(
                (a - b).abs() <= 1e-5 * a.abs().max(1.0),
                "injection depends on decomposition: {a} vs {b}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn prop_ownership_covers_weights(x in 0.0f64..7.0, y in 0.0f64..7.0) {
        // Every nonzero-weight grid node of a random point must belong to
        // at least one rank of the replication set, and the weights sum
        // to 1.
        let dc = Arc::new(Decomposition::new(&[8, 8], &[2, 2]));
        let sp = SparsePoints::new(vec![vec![x, y]], vec![1.0, 1.0]);
        let weights = sp.corner_weights(0, &[8, 8]);
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let owners = sp.owner_coords(0, &dc);
        prop_assert!(!owners.is_empty());
        for (node, w) in &weights {
            prop_assert!(*w >= 0.0);
            let covered = owners.iter().any(|coords| {
                (0..2).all(|d| dc.owned_range(d, coords[d]).contains(&node[d]))
            });
            prop_assert!(covered, "node {:?} uncovered", node);
        }
    }
}

// ------------------------------------------------ plan vs per-point oracle

/// The per-point receiver protocol `SparsePlan` replaced, kept as the
/// oracle: every step, each owner of point `p` sums its owned corners in
/// corner order, each secondary sends its partial as one `f32`, and the
/// primary adds them in owner order. Collective over all ranks.
fn oracle_sample(pts: &SparsePoints, arr: &DistArray, cart: &CartComm, tag: Tag) -> Vec<f32> {
    let decomp = arr.decomp();
    let me = arr.coords().to_vec();
    let mut row = vec![f32::NAN; pts.len()];
    for (p, slot) in row.iter_mut().enumerate() {
        let owners = pts.owner_coords(p, decomp);
        if !owners.contains(&me) {
            continue;
        }
        let partial: f64 = pts
            .corner_weights(p, decomp.global_shape())
            .iter()
            .filter_map(|(node, w)| arr.get_global(node).map(|v| v as f64 * w))
            .sum();
        let primary = owners.iter().min().unwrap();
        if me == *primary {
            let mut total = partial;
            for o in owners.iter().filter(|o| **o != me) {
                let r = CartComm::rank_of(cart.dims(), o);
                total += cart.comm().recv_f32(r, tag)[0] as f64;
            }
            *slot = total as f32;
        } else {
            let r = CartComm::rank_of(cart.dims(), primary);
            cart.comm().send_f32(r, tag, &[partial as f32]);
        }
    }
    row
}

/// The per-point injection oracle: every owner of point `p` adds
/// `value(p) * w` into each corner it owns.
fn oracle_inject(pts: &SparsePoints, arr: &mut DistArray, value: impl Fn(usize) -> f64) {
    for p in 0..pts.len() {
        let owners = pts.owner_coords(p, arr.decomp());
        if !owners.iter().any(|c| c == arr.coords()) {
            continue;
        }
        for (node, w) in pts.corner_weights(p, arr.decomp().global_shape()) {
            if let Some(cur) = arr.get_global(&node) {
                arr.set_global(&node, cur + (value(p) * w) as f32);
            }
        }
    }
}

/// A small deterministic generator (64-bit LCG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }
    /// `±2^60`, `±1` or `±m · 2^e` with `e` in `[-30, 30)`: the huge
    /// values cancel exactly against each other, so the order of a sum
    /// and the rounding of each term show in the result.
    fn wild(&mut self) -> f32 {
        let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
        let m = match self.next() % 4 {
            0 => 2f64.powi(60),
            1 => 1.0,
            _ => (1.0 + self.unit()) * 2f64.powi((self.next() % 60) as i32 - 30),
        };
        (sign * m) as f32
    }
}

/// Test points in grid units: random ones (some outside the grid, so
/// clamped), points on and next to every rank boundary, points at every
/// corner where `2^nd` ranks meet (Fig. 3 point C), and far-out ones.
fn grid_points(shape: &[usize], dims: &[usize], rng: &mut Lcg) -> Vec<Vec<f64>> {
    let nd = shape.len();
    let decomp = Decomposition::new(shape, dims);
    let mut pts: Vec<Vec<f64>> = (0..12)
        .map(|_| {
            (0..nd)
                .map(|d| rng.unit() * (shape[d] + 1) as f64 - 0.5)
                .collect()
        })
        .collect();
    let bounds: Vec<Vec<usize>> = (0..nd)
        .map(|d| {
            (1..dims[d])
                .map(|c| decomp.owned_range(d, c).start)
                .collect()
        })
        .collect();
    for d in 0..nd {
        for &b in &bounds[d] {
            for x in [b as f64, b as f64 - 1.0, b as f64 - 0.5, b as f64 - 0.25] {
                let mut c: Vec<f64> = (0..nd)
                    .map(|e| rng.unit() * (shape[e] - 1) as f64)
                    .collect();
                c[d] = x;
                pts.push(c);
            }
        }
    }
    if bounds.iter().all(|b| !b.is_empty()) {
        let mut corner = vec![0usize; nd];
        for_each_index(&bounds.iter().map(|b| 0..b.len()).collect(), |i| {
            corner.copy_from_slice(i);
            pts.push((0..nd).map(|d| bounds[d][corner[d]] as f64 - 0.5).collect());
            pts.push((0..nd).map(|d| bounds[d][corner[d]] as f64 - 0.3).collect());
        });
    }
    pts.push(vec![-3.0; nd]);
    pts.push(shape.iter().map(|&n| n as f64 + 2.5).collect());
    pts
}

/// Sample wild step-dependent fields through a plan over two runs of
/// 3 and 4 steps (the second appending to the first's rows), inject
/// wild values, and compare both bit for bit with the oracle.
fn check_plan_against_oracle(shape: &[usize], dims: &[usize], seed: u64) {
    let pts = SparsePoints::new(
        grid_points(shape, dims, &mut Lcg(seed)),
        vec![1.0; shape.len()],
    );
    let values: Vec<f64> = {
        let mut rng = Lcg(seed ^ 0x5eed);
        (0..pts.len()).map(|_| rng.wild() as f64).collect()
    };
    let global: Vec<std::ops::Range<usize>> = shape.iter().map(|&n| 0..n).collect();
    let p: usize = dims.iter().product();
    Universe::run(p, |comm| {
        let cart = CartComm::new(comm, dims);
        let decomp = Arc::new(Decomposition::new(shape, dims));
        let mut arr = DistArray::new(decomp, cart.coords(), 2);
        let mut plan = SparsePlan::build(&pts, &arr);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut step = 0u64;
        for nt in [3, 4] {
            plan.begin_run(nt);
            let mut rows = vec![vec![f32::NAN; pts.len()]; nt];
            for (k, row) in rows.iter_mut().enumerate() {
                // Every rank draws the same global field for this step.
                let mut rng = Lcg(seed.wrapping_add(1000 * step));
                for_each_index(&global, |idx| arr.set_global(idx, rng.wild()));
                plan.sample(arr.raw(), k, row);
                want.push(oracle_sample(&pts, &arr, &cart, 7));
                step += 1;
            }
            plan.combine(cart.comm(), 8, &mut rows);
            got.extend(rows);
        }
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            for q in 0..pts.len() {
                assert_eq!(
                    g[q].to_bits(),
                    w[q].to_bits(),
                    "{dims:?} rank {} step {k} point {q} at {:?}: plan {} vs oracle {}",
                    cart.rank(),
                    pts.coords[q],
                    g[q],
                    w[q]
                );
            }
        }
        let mut oracle = arr.clone();
        plan.inject(arr.raw_mut(), |q| values[q]);
        oracle_inject(&pts, &mut oracle, |q| values[q]);
        assert!(
            arr.raw()
                .iter()
                .zip(oracle.raw())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{dims:?} rank {}: injected field differs from the oracle",
            cart.rank()
        );
    });
}

#[test]
fn plan_matches_per_point_oracle_bitwise_2d() {
    for (dims, seed) in [
        ([1, 1], 1),
        ([2, 1], 2),
        ([1, 2], 3),
        ([3, 1], 4),
        ([1, 3], 5),
        ([2, 2], 6),
        ([4, 1], 7),
        ([4, 2], 8),
        ([2, 4], 9),
    ] {
        check_plan_against_oracle(&[11, 10], &dims, seed);
    }
}

#[test]
fn plan_matches_per_point_oracle_bitwise_3d() {
    for (dims, seed) in [
        ([2, 2, 2], 11),
        ([1, 2, 4], 12),
        ([2, 2, 1], 13),
        ([3, 1, 1], 14),
    ] {
        check_plan_against_oracle(&[7, 6, 5], &dims, seed);
    }
}

// --------------------------------------- end to end: workspace sparse ops

/// 2-D constant-density acoustic wave operator, SDO 4.
fn wave_op(shape: &[usize]) -> Operator {
    let mut ctx = Context::new();
    let grid = Grid::new(shape, &vec![1.0; shape.len()]);
    let u = ctx.add_time_function("u", &grid, 4, 2);
    let m = ctx.add_function("m", &grid, 4);
    let pde = m.center() * u.dt2() - u.laplace();
    let stencil = mpix::symbolic::solve(&pde, &u.forward(), &ctx).unwrap();
    Operator::build(ctx, grid, vec![stencil]).unwrap()
}

/// Receivers, sources and adjoint-style trace sources of one run, in
/// physical coordinates.
struct Sparse {
    receivers: Vec<Vec<Vec<f64>>>,
    sources: Vec<Vec<f64>>,
    trace_points: Vec<Vec<f64>>,
}

/// Per rank: the final wavefield and each receiver set's samples.
type RankOut = (Vec<f32>, Vec<Vec<Vec<f32>>>);

/// Run `op` for `runs` consecutive applies (continuing `t0`) with the
/// sparse ops registered on the workspace, or — `oracle` — one step per
/// apply with the oracle injecting and sampling after each step.
fn run_sparse(
    op: &Operator,
    dims: &[usize],
    sp: &Sparse,
    runs: &[i64],
    oracle: bool,
) -> Vec<RankOut> {
    let nt: i64 = runs.iter().sum();
    let shape = op.grid().shape.clone();
    let spacing: Vec<f64> = (0..shape.len()).map(|d| op.grid().spacing(d)).collect();
    let signal: Vec<f32> = (0..nt).map(|t| ((t as f32) * 0.7).sin() * 3.0).collect();
    let scale: Vec<f32> = (0..sp.sources.len())
        .map(|i| 0.5 + i as f32 * 0.25)
        .collect();
    let traces: Vec<Vec<f32>> = (0..sp.trace_points.len())
        .map(|i| {
            (0..nt)
                .map(|t| ((t + i as i64) as f32 * 0.3).cos())
                .collect()
        })
        .collect();
    let tscale = vec![1.5f32; sp.trace_points.len()];
    let opts = ApplyOptions::default().with_dt(0.01);
    let exec = op.executable_for(&opts);
    let p: usize = dims.iter().product();
    Universe::run(p, |comm| {
        let cart = CartComm::new(comm, dims);
        let mut ws = Workspace::new(op.ctx(), op.grid(), cart);
        ws.field_data_mut("m", 0)
            .fill_global_slice(&shape.iter().map(|&n| 0..n).collect::<Vec<_>>(), 1.0);
        let c: Vec<usize> = shape.iter().map(|&n| n / 3).collect();
        for lvl in [0, -1] {
            ws.field_data_mut("u", lvl).set_global(&c, 1.0);
        }
        let src = SparsePoints::new(sp.sources.clone(), spacing.clone());
        let tpts = SparsePoints::new(sp.trace_points.clone(), spacing.clone());
        let recs: Vec<SparsePoints> = sp
            .receivers
            .iter()
            .map(|r| SparsePoints::new(r.clone(), spacing.clone()))
            .collect();
        let mut samples: Vec<Vec<Vec<f32>>> = vec![Vec::new(); recs.len()];
        if oracle {
            for t in 0..nt {
                op.apply(&mut ws, &exec, &opts.clone().with_t0(t).with_nt(1));
                let cart = &ws.cart;
                let i = ws
                    .fields
                    .iter()
                    .position(|f| f.field == ws.field_id("u"))
                    .unwrap();
                let b = ws.fields[i].buffer_index(t, 1);
                let arr = &mut ws.fields[i].buffers[b];
                let idx = (t as usize).min(signal.len() - 1);
                oracle_inject(&src, arr, |q| (signal[idx] * scale[q]) as f64);
                oracle_inject(&tpts, arr, |q| (traces[q][idx] * tscale[q]) as f64);
                for (set, pts) in recs.iter().enumerate() {
                    samples[set].push(oracle_sample(pts, arr, cart, 50 + set as Tag));
                }
            }
        } else {
            ws.add_injection("u", src, signal.clone(), scale.clone());
            ws.add_injection_traces("u", tpts, traces.clone(), tscale.clone());
            let handles: Vec<usize> = recs.into_iter().map(|r| ws.add_receivers("u", r)).collect();
            let mut t0 = 0;
            for &n in runs {
                op.apply(&mut ws, &exec, &opts.clone().with_t0(t0).with_nt(n));
                t0 += n;
            }
            for (set, h) in handles.into_iter().enumerate() {
                samples[set] = ws.take_samples(h);
            }
        }
        (ws.gather_at("u", nt), samples)
    })
}

fn assert_bitwise(got: &[RankOut], want: &[RankOut], what: &str) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (rank, ((gf, gs), (wf, ws))) in got.iter().zip(want).enumerate() {
        assert!(
            bits(gf) == bits(wf),
            "{what}: rank {rank} wavefield differs"
        );
        assert_eq!(gs.len(), ws.len());
        for (set, (g, w)) in gs.iter().zip(ws).enumerate() {
            assert_eq!(g.len(), w.len(), "{what}: rank {rank} set {set} row count");
            for (t, (gr, wr)) in g.iter().zip(w).enumerate() {
                assert!(
                    bits(gr) == bits(wr),
                    "{what}: rank {rank} set {set} step {t}: {gr:?} vs oracle {wr:?}"
                );
            }
        }
    }
}

/// Physical coordinates of `grid_points` on a unit-extent grid.
fn physical(shape: &[usize], dims: &[usize], seed: u64, n: usize) -> Vec<Vec<f64>> {
    let h: Vec<f64> = shape.iter().map(|&s| 1.0 / (s - 1) as f64).collect();
    let mut pts = grid_points(shape, dims, &mut Lcg(seed));
    let n0 = pts.len();
    pts.rotate_left(seed as usize % n0);
    pts.truncate(n);
    pts.iter()
        .map(|c| c.iter().zip(&h).map(|(x, h)| x * h).collect())
        .collect()
}

#[test]
fn workspace_sparse_ops_match_oracle_across_topologies() {
    let shape = [20, 18];
    let op = wave_op(&shape);
    for (dims, seed) in [
        ([1, 1], 21),
        ([2, 1], 22),
        ([1, 3], 23),
        ([2, 2], 24),
        ([4, 2], 25),
    ] {
        let sp = Sparse {
            receivers: vec![physical(&shape, &dims, seed, 40)],
            sources: physical(&shape, &dims, seed + 100, 6),
            trace_points: physical(&shape, &dims, seed + 200, 3),
        };
        let got = run_sparse(&op, &dims, &sp, &[3, 4], false);
        let want = run_sparse(&op, &dims, &sp, &[3, 4], true);
        assert_bitwise(&got, &want, &format!("{dims:?}"));
    }
}

#[test]
fn receiver_sets_of_different_sizes_keep_their_own_traces() {
    // Two receiver sets of sizes 3 and 5 on one workspace at 4 ranks:
    // each combines under its own tag, so neither can read the other's
    // partials whatever the set sizes.
    let shape = [20, 18];
    let dims = [2, 2];
    let op = wave_op(&shape);
    let all = physical(&shape, &dims, 31, 64);
    let shared: Vec<Vec<f64>> = all.iter().rev().take(10).cloned().collect();
    let sp = Sparse {
        receivers: vec![shared[..3].to_vec(), shared[3..8].to_vec()],
        sources: Vec::new(),
        trace_points: Vec::new(),
    };
    let got = run_sparse(&op, &dims, &sp, &[2, 3], false);
    let want = run_sparse(&op, &dims, &sp, &[2, 3], true);
    assert_bitwise(&got, &want, "sets of 3 and 5");
}

#[test]
fn warm_apply_allocates_nothing_and_combines_once_per_run() {
    // Receivers straddling a 2-rank split: after one warm-up apply, a
    // second apply allocates no comm buffers and sends exactly one
    // sparse message per (secondary → primary) pair.
    let shape = [20, 18];
    let dims = [2, 1];
    let op = wave_op(&shape);
    let h = 1.0 / 19.0;
    let receivers: Vec<Vec<f64>> = (0..8)
        .map(|i| vec![(9.0 + 0.125 * i as f64) * h, (2.0 + 1.7 * i as f64) * h])
        .collect();
    let spacing = vec![h, 1.0 / 17.0];
    let pts = SparsePoints::new(receivers.clone(), spacing.clone());
    let decomp = Decomposition::new(&shape, &dims);
    let shared = (0..pts.len())
        .filter(|&p| pts.owner_coords(p, &decomp).len() == 2)
        .count();
    assert!(shared > 0, "no receiver straddles the split");
    let opts = ApplyOptions::default()
        .with_dt(0.01)
        .with_nt(5)
        .with_trace(TraceLevel::Full);
    let exec = op.executable_for(&opts);
    let per_rank = Universe::run(2, |comm| {
        let cart = CartComm::new(comm, &dims);
        let mut ws = Workspace::new(op.ctx(), op.grid(), cart);
        ws.field_data_mut("m", 0)
            .fill_global_slice(&[0..20, 0..18], 1.0);
        ws.field_data_mut("u", 0).set_global(&[10, 9], 1.0);
        let rec = ws.add_receivers("u", SparsePoints::new(receivers.clone(), spacing.clone()));
        op.apply(&mut ws, &exec, &opts);
        let before = ws.cart.comm().stats().bufs_allocated;
        let stats = op.apply(&mut ws, &exec, &opts.clone().with_t0(5));
        let allocated = ws.cart.comm().stats().bufs_allocated - before;
        let tag = mpix_codegen::sparse_tag(rec);
        let sparse_msgs = stats
            .trace
            .unwrap()
            .messages
            .iter()
            .filter(|m| m.dir == MsgDir::Sent && m.tag == tag)
            .count();
        (allocated, sparse_msgs)
    });
    assert_eq!(per_rank[0], (0, 0), "primary rank 0");
    assert_eq!(per_rank[1], (0, 1), "secondary rank 1");
}
