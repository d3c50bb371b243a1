//! Flush-to-zero kernel semantics at the edges of the f32 normal range.
//!
//! Every backend computes with FTZ/DAZ (`mpix_codegen::arith`): the JIT
//! through the hardware MXCSR mode its generated code switches on, the
//! interpreter through a software emulation. These tests pin the two
//! bit for bit on operands chosen where the modes differ from gradual
//! underflow — subnormal operands, products and reciprocals in the
//! rounding window just under 2⁻¹²⁶, signed zeros — and check that the
//! generated code hands MXCSR back unchanged.

use std::hint::black_box;

use mpix::prelude::*;

const MIN: f32 = f32::MIN_POSITIVE;
const N: usize = 45;

fn have_jit() -> bool {
    mpix::available_backends().contains(&Backend::Jit)
}

/// `(a, b)` operand pairs at the FTZ/DAZ edges; the grid cycles through
/// them.
fn edge_pairs() -> Vec<(f32, f32)> {
    let one_minus = |k: u32| f32::from_bits(0x3F80_0000 - k); // 1 − k·2⁻²⁴
    let mut v = vec![
        (MIN * 0.5, 3.0),          // subnormal operand
        (-MIN * 0.25, -1e20),      // subnormal × large: DAZ, not 2⁻⁶⁴
        (f32::from_bits(1), 1e30), // smallest subnormal
        (0.0, -5.0),               // signed zeros
        (-0.0, 5.0),
        (-0.0, -0.0),
        (1.5, -2.25),                                // plain normals
        (one_minus(2), f32::from_bits(0x0080_0001)), // tie: rounds up to 2⁻¹²⁶
    ];
    // Products in and around [2⁻¹²⁶ − 2⁻¹⁵⁰, 2⁻¹²⁶ − 2⁻¹⁵¹).
    for k in 0..4 {
        for m in 0..3 {
            v.push((one_minus(k), f32::from_bits(0x0080_0000 + m)));
            v.push((-one_minus(k), f32::from_bits(0x0080_0000 + m)));
        }
    }
    // 1/a and 1/b² around 2⁻¹²⁶.
    for j in 0..4 {
        v.push((
            f32::from_bits(0x7E80_0000 - 2 + j),
            f32::from_bits(0x5F00_0000 - 2 + j),
        ));
    }
    v
}

struct EdgeOp {
    op: Operator,
    outputs: Vec<&'static str>,
}

/// One operator whose clusters read two material fields `a` and `b`
/// through every arithmetic shape the backends lower: loaded products,
/// coefficient products and sums (the fused superinstructions), squares
/// and reciprocals, plus a pure copy.
fn edge_operator() -> EdgeOp {
    let mut ctx = Context::new();
    let grid = Grid::new(&[N], &[1.0]);
    let a = ctx.add_function("a", &grid, 2);
    let b = ctx.add_function("b", &grid, 2);
    let outputs = ["prod", "lin", "fma", "recip", "recip2", "sq", "copy"];
    let f: Vec<_> = outputs
        .iter()
        .map(|name| ctx.add_time_function(name, &grid, 2, 1))
        .collect();
    let (ac, bc) = (a.center(), b.center());
    let eqs = vec![
        Eq::new(f[0].forward(), ac.clone() * bc.clone()),
        Eq::new(f[1].forward(), 0.5 * ac.clone() + 3.0 * bc.clone()),
        Eq::new(
            f[2].forward(),
            f[2].center() + ac.clone() * bc.clone() + 0.25 * ac.clone() * ac.clone(),
        ),
        Eq::new(f[3].forward(), ac.clone().pow(-1)),
        Eq::new(f[4].forward(), bc.clone().pow(-2)),
        Eq::new(f[5].forward(), bc.clone().pow(2)),
        Eq::new(f[6].forward(), ac),
    ];
    EdgeOp {
        op: Operator::build(ctx, grid, eqs).unwrap(),
        outputs: outputs.to_vec(),
    }
}

/// Operand pairs free of subnormals at the edges of the interpreter's
/// emulation: `0.5·a` just at 2⁻¹²⁶ (the threshold of a prepared
/// coefficient) and `3·b` cancelling `0.5·a` near 2⁻¹⁰⁰ and down to
/// 2⁻¹⁴⁸ (sums of normal products that must still flush).
fn graded_pairs() -> Vec<(f32, f32)> {
    let mut v = vec![(0.0, 0.0), (2f32.powi(-125), 2f32.powi(-99))];
    for k in 0..6u32 {
        let a = f32::from_bits(0x0E00_0000 + k) * if k % 2 == 0 { 1.0 } else { -1.0 };
        v.push((a, -(a / 6.0)));
        v.push((a, f32::from_bits(0x0D80_0000 + k)));
        // Normal operands whose `0.5·a + 3·b` cancels to 2⁻¹⁴⁸: a sum
        // of plain products that must still flush.
        let b = -f32::from_bits(0x0080_0000 + 2 * k);
        v.push(((6.0 * -b).next_up(), b));
    }
    v
}

fn init_pairs(ws: &mut Workspace, pairs: &[(f32, f32)]) {
    for i in 0..N {
        let (a, b) = pairs[i % pairs.len()];
        ws.field_data_mut("a", 0).set_global(&[i], a);
        ws.field_data_mut("b", 0).set_global(&[i], b);
    }
}

fn init_edges(ws: &mut Workspace) {
    init_pairs(ws, &edge_pairs());
}

/// Run two steps on `backend` — `None` is the scalar oracle — and
/// gather every output field.
fn run_on(
    e: &EdgeOp,
    backend: Option<Backend>,
    threads: usize,
    pairs: &[(f32, f32)],
) -> Vec<Vec<f32>> {
    let opts = ApplyOptions::default()
        .with_dt(1.0)
        .with_nt(2)
        .with_backend(backend.unwrap_or(Backend::Bytecode))
        .with_threads(threads);
    let exec = e.op.executable_for(&opts);
    let exec = match backend {
        Some(_) => exec,
        None => std::sync::Arc::new(exec.scalar_oracle()),
    };
    e.op.run_with_exec(
        &exec,
        &opts,
        |ws| init_pairs(ws, pairs),
        |ws| e.outputs.iter().map(|name| ws.gather(name)).collect(),
    )
    .results
    .remove(0)
}

#[test]
fn jit_matches_interpreter_on_edge_operands() {
    assert_arms_bitwise_equal(&edge_pairs());
}

#[test]
fn jit_matches_interpreter_on_data_at_the_launch_thresholds() {
    assert_arms_bitwise_equal(&graded_pairs());
    // Normal `a` below the bound where `0.5·a` stops being tiny.
    assert_arms_bitwise_equal(&[(MIN * 1.5, MIN), (-MIN * 1.25, MIN * 2.0), (0.0, -0.0)]);
}

fn assert_arms_bitwise_equal(pairs: &[(f32, f32)]) {
    let e = edge_operator();
    let oracle = run_on(&e, None, 1, pairs);
    let mut arms = vec![("bytecode", run_on(&e, Some(Backend::Bytecode), 1, pairs))];
    if have_jit() {
        arms.push(("jit", run_on(&e, Some(Backend::Jit), 1, pairs)));
        arms.push(("jit threads=2", run_on(&e, Some(Backend::Jit), 2, pairs)));
        let opts = ApplyOptions::default().with_backend(Backend::Jit);
        assert!(
            e.op.executable_for(&opts).cached_native_modules() > 0,
            "the edge operator must run natively, not through the interpreter fallback"
        );
    }
    for (arm, got) in &arms {
        for (name, (want, got)) in e.outputs.iter().zip(oracle.iter().zip(got)) {
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    g.to_bits(),
                    "{arm} {name}[{i}]: {g:e} vs {w:e}"
                );
            }
        }
    }
}

#[test]
fn arithmetic_flushes_and_moves_copy_bits() {
    let e = edge_operator();
    let out = run_on(&e, None, 1, &edge_pairs());
    let field = |name: &str| &out[e.outputs.iter().position(|n| *n == name).unwrap()];
    let pairs = edge_pairs();
    for i in 0..N {
        let (a, b) = pairs[i % pairs.len()];
        // The copy keeps subnormal bits; arithmetic never yields one.
        assert_eq!(field("copy")[i].to_bits(), a.to_bits(), "copy[{i}]");
        for name in ["prod", "lin", "fma", "recip", "recip2", "sq"] {
            assert!(
                !field(name)[i].is_subnormal(),
                "{name}[{i}] = {:e}",
                field(name)[i]
            );
        }
        let prod = field("prod")[i];
        if a.is_subnormal() || b.is_subnormal() {
            assert_eq!(prod, 0.0, "DAZ product at {i}");
        }
        // x86 after-rounding tininess: only products whose 24-bit
        // rounding reaches 2⁻¹²⁶ survive.
        let exact = a as f64 * b as f64;
        if exact.abs() < MIN as f64 - 2f64.powi(-151) {
            assert_eq!(prod, 0.0, "tiny product at {i}: {prod:e}");
            let negative = a.is_sign_negative() != b.is_sign_negative();
            assert_eq!(
                prod.is_sign_negative(),
                negative,
                "sign of the flushed product at {i}"
            );
        } else if exact.abs() < MIN as f64 {
            assert_eq!(prod.abs(), MIN, "product rounding up to 2⁻¹²⁶ at {i}");
        }
        if a.is_subnormal() {
            assert_eq!(field("recip")[i].abs(), f32::INFINITY, "1/subnormal at {i}");
        }
    }
}

#[test]
fn generated_code_restores_the_callers_mxcsr() {
    if !have_jit() {
        return;
    }
    let subnormal_mul = || black_box(MIN) * black_box(0.5f32);
    assert!(subnormal_mul().is_subnormal());
    let e = edge_operator();
    let opts = ApplyOptions::default()
        .with_dt(1.0)
        .with_nt(2)
        .with_backend(Backend::Jit);
    // `extract` runs on the rank thread right after the kernels did.
    let on_rank =
        e.op.run(&opts, init_edges, |_| subnormal_mul().is_subnormal());
    assert!(on_rank.results[0], "rank thread left in flush-to-zero mode");
    assert!(
        subnormal_mul().is_subnormal(),
        "calling thread left in flush-to-zero mode"
    );
}
