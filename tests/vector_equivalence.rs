//! The vector-engine correctness claim: the interpreter's strips of
//! `LANES` (including boxes whose inner extent is not a multiple of
//! the width, or shorter than one strip) are **bitwise identical** to
//! the scalar oracle (`OperatorExec::scalar_oracle`), alone and composed
//! with loop blocking and slab threading, across 1D/2D/3D grids and
//! space orders 4/8.
//!
//! Bitwise — not approximately — because the strip interpreter performs
//! the same f32 operations in the same per-point order as the scalar
//! path, and the superinstruction fusion pass keeps mul-then-add
//! rounding (no FMA contraction).

use mpix::prelude::*;
use mpix::solvers::{KernelKind, ModelSpec, Propagator};
use proptest::prelude::*;

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

/// Fill field `name` (time buffer 0) with a deterministic non-uniform
/// seed, so every stencil tap matters.
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

/// Run `op` on the bytecode backend with `opts` — on the scalar oracle
/// when `oracle` is set — and return rank 0's extracted result.
fn run_bytecode<R: Send>(
    op: &Operator,
    opts: ApplyOptions,
    oracle: bool,
    init: impl Fn(&mut Workspace) + Send + Sync,
    extract: impl Fn(&mut Workspace) -> R + Send + Sync,
) -> R {
    let opts = opts.with_backend(Backend::Bytecode);
    let exec = op.executable_for(&opts);
    let exec = if oracle {
        std::sync::Arc::new(exec.scalar_oracle())
    } else {
        exec
    };
    op.run_with_exec(&exec, &opts, init, extract)
        .results
        .remove(0)
}

/// Run `nt` steps of the bytecode backend with the given execution
/// knobs — on the scalar oracle when `oracle` is set — and gather the
/// full global field, bit-exact.
fn run_config(
    op: &Operator,
    shape: &[usize],
    oracle: bool,
    block: usize,
    threads: usize,
) -> Vec<f32> {
    let opts = ApplyOptions::default()
        .with_dt(0.001)
        .with_nt(3)
        .with_block(block)
        .with_threads(threads);
    let shape = shape.to_vec();
    run_bytecode(
        op,
        opts,
        oracle,
        move |ws: &mut Workspace| fill_pattern(ws, "u", &shape),
        |ws| ws.gather("u"),
    )
}

fn assert_lanes_match_scalar_oracle(shape: &[usize], so: u32) {
    let op = laplace_op(shape, so);
    let scalar = run_config(&op, shape, true, 0, 1);
    // Plain, and composed with blocking and threading.
    for (block, threads) in [(0usize, 1usize), (4, 1), (0, 3), (4, 2)] {
        let out = run_config(&op, shape, false, block, threads);
        for (k, (a, b)) in scalar.iter().zip(&out).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "shape={shape:?} so={so} block={block} threads={threads} idx={k}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn vectorized_matches_scalar_1d() {
    // 13 and 40: partial-strip-only and strips + partial strip.
    assert_lanes_match_scalar_oracle(&[13], 4);
    assert_lanes_match_scalar_oracle(&[40], 8);
}

/// The viscoelastic kernel loads streams it stores, so a partial
/// strip's dead lanes must never be stored: inner extent 13 is one
/// partial strip per row, 40 two strips and a partial one.
#[test]
fn viscoelastic_partial_strips_match_scalar() {
    for inner in [13, 40] {
        let shape = [5, 4, inner];
        let spec = ModelSpec::new(&shape).with_nbl(0);
        let prop = Propagator::build(KernelKind::Viscoelastic, spec, 8);
        let field = prop.main_field();
        let run = |oracle: bool, block: usize, threads: usize| {
            let opts = prop
                .apply_options(3)
                .with_block(block)
                .with_threads(threads);
            let init = |ws: &mut Workspace| {
                prop.init(ws);
                fill_pattern(ws, field, &shape);
            };
            run_bytecode(&prop.op, opts, oracle, init, |ws| ws.gather(field))
        };
        let scalar = run(true, 0, 1);
        for (block, threads) in [(0usize, 1usize), (4, 1), (0, 2)] {
            let out = run(false, block, threads);
            for (k, (a, b)) in scalar.iter().zip(&out).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "inner={inner} block={block} threads={threads} idx={k}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn vectorized_matches_scalar_2d() {
    assert_lanes_match_scalar_oracle(&[9, 21], 4);
    assert_lanes_match_scalar_oracle(&[7, 33], 8);
}

#[test]
fn vectorized_matches_scalar_3d() {
    assert_lanes_match_scalar_oracle(&[6, 7, 19], 4);
    assert_lanes_match_scalar_oracle(&[5, 6, 37], 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random 1D/2D/3D shapes with awkward inner extents: the scalar
    /// oracle and the strips agree bit-for-bit.
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
        let scalar = run_config(&op, &shape, true, 0, 1);
        let v = run_config(&op, &shape, false, 0, 1);
        for (a, b) in scalar.iter().zip(&v) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
