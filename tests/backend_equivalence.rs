//! The multi-backend correctness claim: every selectable execution
//! backend — the native JIT above all — is **bitwise identical** to the
//! scalar bytecode interpreter, alone and composed with loop blocking
//! and slab threading, across the interpreter's strip widths, space
//! orders 4/8/12/16, and all four shipped solver kernels.
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

/// Run 3 steps with the given backend/execution knobs and gather the
/// full global field, bit-exact. Same deterministic seed as
/// `tests/vector_equivalence.rs` so every stencil tap matters.
fn run_config(
    op: &Operator,
    shape: &[usize],
    backend: Backend,
    vw: usize,
    block: usize,
    threads: usize,
) -> Vec<f32> {
    let opts = ApplyOptions::default()
        .with_dt(0.001)
        .with_nt(3)
        .with_backend(backend)
        .with_vector_width(vw)
        .with_block(block)
        .with_threads(threads);
    let shape = shape.to_vec();
    let applied = op.run(
        &opts,
        move |ws: &mut Workspace| {
            let u = ws.field_data_mut("u", 0);
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
        },
        |ws| ws.gather("u"),
    );
    applied.results.into_iter().next().unwrap()
}

fn assert_backends_bitwise_equal(shape: &[usize], so: u32) {
    let op = laplace_op(shape, so);
    let oracle = run_config(&op, shape, Backend::Bytecode, 0, 0, 1);
    // The interpreter's own strip widths stay the cross-check baseline…
    for vw in [8usize, 16, 32] {
        let v = run_config(&op, shape, Backend::Bytecode, vw, 0, 1);
        for (k, (a, b)) in oracle.iter().zip(&v).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "shape={shape:?} so={so} bytecode vw={vw} idx={k}: {a} vs {b}"
            );
        }
    }
    if !have_jit() {
        return;
    }
    // …and the JIT must match them on every execution shape, including
    // composition with blocking and threading (tile-sized boxes, slab
    // writes).
    for (block, threads) in [(0usize, 1usize), (4, 1), (0, 3), (4, 2)] {
        let jit = run_config(&op, shape, Backend::Jit, 0, block, threads);
        for (k, (a, b)) in oracle.iter().zip(&jit).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "shape={shape:?} so={so} jit block={block} threads={threads} idx={k}: {a} vs {b}"
            );
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

/// All four shipped solvers × SDO 4/8/12/16: the JIT run (its internal
/// per-cluster fallback included) reproduces the interpreter bit for
/// bit, through the full pipeline — sources, boundary damping, staggered
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
            let run = |backend: Backend, vw: usize| {
                let opts = prop
                    .apply_options(nt)
                    .with_backend(backend)
                    .with_vector_width(vw);
                prop.op.run(&opts, init, gather).results.remove(0)
            };
            let oracle = run(Backend::Bytecode, 0);
            let vector = run(Backend::Bytecode, 16);
            for (k, (a, b)) in oracle.iter().zip(&vector).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{kind:?} sdo={sdo} bytecode vw=16 idx={k}: {a} vs {b}"
                );
            }
            if have_jit() {
                let jit = run(Backend::Jit, 0);
                for (k, (a, b)) in oracle.iter().zip(&jit).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{kind:?} sdo={sdo} jit idx={k}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random 1D/2D/3D shapes with awkward inner extents: the JIT's
    /// strip loop + scalar tail agree bit-for-bit with the scalar
    /// interpreter, and with its vectorized strips.
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
        let oracle = run_config(&op, &shape, Backend::Bytecode, 0, 0, 1);
        let v = run_config(&op, &shape, Backend::Bytecode, 16, 0, 1);
        for (a, b) in oracle.iter().zip(&v) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        if have_jit() {
            let jit = run_config(&op, &shape, Backend::Jit, 0, 0, 1);
            for (a, b) in oracle.iter().zip(&jit) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
