//! The multi-backend correctness claim: every selectable execution
//! backend — the native JIT above all, and the interpreter's strips —
//! is **bitwise identical** to the scalar oracle
//! (`OperatorExec::scalar_oracle`), alone and composed with loop
//! blocking and slab threading, across space orders 4/8/12/16 and all
//! four shipped solver kernels.
//!
//! Bitwise — not approximately — because the JIT emits the same f32
//! operations in the same per-point order as the interpreter (shared
//! mul-then-add rounding, no FMA contraction), and clusters it cannot
//! prove it supports fall back to the interpreter per cluster. Selecting
//! a backend may change speed, never results.

use mpix::prelude::*;
use mpix::solvers::{KernelKind, ModelSpec, Propagator};
use proptest::prelude::*;

fn have_jit() -> bool {
    mpix::available_backends().contains(&Backend::Jit)
}

/// Diffusion-style operator `u.dt = laplace(u)` over an arbitrary grid.
fn laplace_op(shape: &[usize], so: u32) -> Operator {
    let mut ctx = Context::new();
    let spacing: Vec<f64> = shape.iter().map(|_| 0.1).collect();
    let grid = Grid::new(shape, &spacing);
    let u = ctx.add_time_function("u", &grid, so, 1);
    let eq = Eq::new(u.dt(), u.laplace());
    let st = eq.solve_for(&u.forward(), &ctx).unwrap();
    Operator::build(ctx, grid, vec![st]).unwrap()
}

/// Fill field `name` (time buffer 0) with the deterministic pattern of
/// `tests/vector_equivalence.rs`, so every stencil tap matters.
fn fill_pattern(ws: &mut Workspace, name: &str, shape: &[usize]) {
    let u = ws.field_data_mut(name, 0);
    let mut i = 0usize;
    let mut idx = vec![0usize; shape.len()];
    loop {
        u.set_global(&idx, ((i * 7 + 3) % 23) as f32 * 0.25);
        i += 1;
        let mut d = shape.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < shape[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// Run `op` with `opts` on `backend` — `None` is the scalar oracle —
/// and return rank 0's extracted result.
fn run_on<R: Send>(
    op: &Operator,
    opts: ApplyOptions,
    backend: Option<Backend>,
    init: impl Fn(&mut Workspace) + Send + Sync,
    extract: impl Fn(&mut Workspace) -> R + Send + Sync,
) -> R {
    let opts = opts.with_backend(backend.unwrap_or(Backend::Bytecode));
    let exec = op.executable_for(&opts);
    let exec = match backend {
        Some(_) => exec,
        None => std::sync::Arc::new(exec.scalar_oracle()),
    };
    op.run_with_exec(&exec, &opts, init, extract)
        .results
        .remove(0)
}

/// Run 3 steps with the given backend/execution knobs and gather the
/// full global field, bit-exact.
fn run_config(
    op: &Operator,
    shape: &[usize],
    backend: Option<Backend>,
    block: usize,
    threads: usize,
) -> Vec<f32> {
    let opts = ApplyOptions::default()
        .with_dt(0.001)
        .with_nt(3)
        .with_block(block)
        .with_threads(threads);
    let shape = shape.to_vec();
    run_on(
        op,
        opts,
        backend,
        move |ws: &mut Workspace| fill_pattern(ws, "u", &shape),
        |ws| ws.gather("u"),
    )
}

fn assert_backends_bitwise_equal(shape: &[usize], so: u32) {
    let op = laplace_op(shape, so);
    let oracle = run_config(&op, shape, None, 0, 1);
    let mut backends = vec![Backend::Bytecode];
    if have_jit() {
        backends.push(Backend::Jit);
    }
    // Every backend on every execution shape, including composition
    // with blocking and threading (tile-sized boxes, slab writes).
    for backend in backends {
        for (block, threads) in [(0usize, 1usize), (4, 1), (0, 3), (4, 2)] {
            let got = run_config(&op, shape, Some(backend), block, threads);
            for (k, (a, b)) in oracle.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "shape={shape:?} so={so} {backend} block={block} threads={threads} \
                     idx={k}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn jit_matches_bytecode_1d() {
    // 13 and 40: remainder-only and strip+remainder inner extents.
    assert_backends_bitwise_equal(&[13], 4);
    assert_backends_bitwise_equal(&[40], 8);
}

#[test]
fn jit_matches_bytecode_2d() {
    assert_backends_bitwise_equal(&[9, 21], 4);
    assert_backends_bitwise_equal(&[7, 33], 8);
}

#[test]
fn jit_matches_bytecode_3d() {
    assert_backends_bitwise_equal(&[6, 7, 19], 4);
    assert_backends_bitwise_equal(&[5, 6, 37], 8);
}

/// All four shipped solvers × SDO 4/8/12/16: the interpreter's strips
/// and the JIT run (its internal per-cluster fallback included)
/// reproduce the scalar oracle bit for bit, through the full pipeline — sources, boundary damping, staggered
/// multi-cluster updates, halo exchange on one rank.
#[test]
fn all_kernels_all_orders_bitwise_equal() {
    for kind in KernelKind::all() {
        for sdo in [4u32, 8, 12, 16] {
            let spec = ModelSpec::new(&[8, 8, 8]).with_nbl(2);
            let prop = Propagator::build(kind, spec, sdo);
            let nt = 3i64;
            let pref = &prop;
            let init = move |ws: &mut Workspace| {
                pref.init(ws);
                pref.add_ricker_source(ws, 18.0, nt as usize);
            };
            let gather = |ws: &mut Workspace| ws.gather(pref.main_field());
            let run = |backend| run_on(&prop.op, prop.apply_options(nt), backend, init, gather);
            let oracle = run(None);
            let mut backends = vec![Backend::Bytecode];
            if have_jit() {
                backends.push(Backend::Jit);
            }
            for backend in backends {
                let got = run(Some(backend));
                for (k, (a, b)) in oracle.iter().zip(&got).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{kind:?} sdo={sdo} {backend} idx={k}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// The JIT's loop nest at every inner extent from a lone partial strip
/// to past one interleaved pass, one single strip and a partial strip
/// (1 ..= 8·U + 9 for U = `MAX_STRIPS` strips; a grid needs two points
/// per axis, so extent 1 is the ragged 2-D tile at 17 + 1): acoustic
/// SDO 8 in 2-D and 3-D, the deep-stack elastic kernel and the
/// viscoelastic kernel (which loads streams it stores) in 3-D, plain,
/// blocked with ragged tiles and threaded (the slab path). Each geometry
/// encodes exactly one module per natively-run cluster, whatever the
/// blocking and threading (counted on the executable: the process-wide
/// `jit_modules_built` also counts other tests' modules).
#[test]
fn jit_inner_extent_sweep_bitwise() {
    if !have_jit() {
        return;
    }
    let max_inner = 8 * mpix::codegen::jit::MAX_STRIPS + 9;
    let cases: [(KernelKind, &[usize], usize); 4] = [
        // 2-D tiles block the inner dimension too: 17 leaves room for
        // the interleaved body in the first tile and a ragged second.
        (KernelKind::Acoustic, &[7], 17),
        (KernelKind::Acoustic, &[5, 4], 3),
        (KernelKind::Elastic, &[5, 4], 3),
        // Loads streams it stores: a partial strip's dead lanes must
        // never be stored.
        (KernelKind::Viscoelastic, &[5, 4], 3),
    ];
    for (kind, outer, block) in cases {
        for inner in 2..=max_inner {
            let mut shape = outer.to_vec();
            shape.push(inner);
            let prop = Propagator::build(kind, ModelSpec::new(&shape).with_nbl(0), 8);
            let field = prop.main_field();
            let run = |backend, block: usize, threads: usize| {
                let opts = prop
                    .apply_options(3)
                    .with_block(block)
                    .with_threads(threads);
                let init = |ws: &mut Workspace| {
                    prop.init(ws);
                    fill_pattern(ws, field, &shape);
                };
                run_on(&prop.op, opts, backend, init, |ws| ws.gather(field))
            };
            let oracle = run(None, 0, 1);
            for (block, threads) in [(0usize, 1usize), (block, 1), (0, 2)] {
                let jit = run(Some(Backend::Jit), block, threads);
                for (k, (a, b)) in oracle.iter().zip(&jit).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{kind:?} shape={shape:?} block={block} threads={threads} idx={k}: {a} vs {b}"
                    );
                }
            }
            let exec = prop
                .op
                .executable_for(&prop.apply_options(3).with_backend(Backend::Jit));
            let native = exec
                .cluster_routes()
                .iter()
                .filter(|r| r.backend == Backend::Jit)
                .count();
            assert!(native > 0, "{kind:?}: no cluster runs natively");
            assert_eq!(
                exec.cached_native_modules(),
                native,
                "{kind:?} shape={shape:?}: one module per (cluster, geometry)"
            );
        }
    }
}

/// Which backend runs each shipped cluster under `jit`, pinned: every
/// cluster of every solver at SDO 4/8/12/16 runs natively, whole boxes
/// and slabs alike. A register-plan change that pushes a
/// cluster onto the interpreter must show up here, not only as a
/// slowdown.
#[test]
fn shipped_clusters_run_natively() {
    for kind in KernelKind::all() {
        let clusters = match kind {
            KernelKind::Acoustic => 1,
            _ => 2,
        };
        for sdo in [4u32, 8, 12, 16] {
            let prop = Propagator::build(kind, ModelSpec::new(&[8, 8, 8]).with_nbl(2), sdo);
            let exec = prop
                .op
                .executable_for(&prop.apply_options(1).with_backend(Backend::Jit));
            let routes = exec.cluster_routes();
            assert_eq!(routes.len(), clusters, "{kind:?} sdo={sdo}");
            for (ci, r) in routes.iter().enumerate() {
                assert_eq!(
                    (r.backend, r.fallback),
                    (Backend::Jit, None),
                    "{kind:?} sdo={sdo} cluster {ci}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random 1D/2D/3D shapes with awkward inner extents: the JIT's
    /// strip loop + scalar tail and the interpreter's strips agree
    /// bit-for-bit with the scalar oracle.
    #[test]
    fn random_shapes_bitwise_equal(
        nd in 1usize..=3,
        inner in 5usize..40,
        outer in 5usize..9,
        so in prop_oneof![Just(4u32), Just(8u32)],
    ) {
        let mut shape = vec![outer; nd - 1];
        shape.push(inner);
        let op = laplace_op(&shape, so);
        let oracle = run_config(&op, &shape, None, 0, 1);
        let v = run_config(&op, &shape, Some(Backend::Bytecode), 0, 1);
        for (a, b) in oracle.iter().zip(&v) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        if have_jit() {
            let jit = run_config(&op, &shape, Some(Backend::Jit), 0, 1);
            for (a, b) in oracle.iter().zip(&jit) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
