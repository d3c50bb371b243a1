//! Pass 3: bytecode verifier.
//!
//! Extends `CompiledCluster::stack_walk` (the stack-discipline walk
//! `fuse_cluster` relies on) into a full, non-panicking verifier over
//! the compiled stack program:
//!
//! * **slot validity** — every `Const`/`Scalar`/`Param`/`Temp`/stream/
//!   offset index lands inside its side table, and each load's offset
//!   entry belongs to the same stream the op names (streams may have
//!   different halo widths, hence different strides: a cross-stream
//!   offset entry would resolve against the wrong geometry);
//! * **definite assignment** — no `Temp` read before its `SetTemp`;
//! * **stack discipline** — the walk proves no underflow, balance
//!   at exit, and that the declared `max_stack` is not understated (the
//!   executor sizes its stack from it);
//! * **in-bounds proofs** — for every region box the executor runs
//!   (DOMAIN, CORE, each REMAINDER strip), the interpreter's strips of
//!   `LANES` and each row's partial strip stay inside the padded
//!   allocation in every dimension;
//! * **fusion invariance** — `fuse_cluster` must preserve `flop_count`,
//!   all metadata, and bitwise semantics relative to the constant-folded
//!   baseline (folding may legitimately drop flops; fusion on top of it
//!   may not).
//!
//! Soundness caveat: the bounds proof is per-dimension on box extremes
//! (stencil offsets are per-dim constants, so the extreme point is the
//! worst case); it proves no out-of-allocation access, and — stronger —
//! no row wrap-around, since a per-dim violation that stays inside the
//! linear allocation still reads the wrong row.

use mpix_codegen::arith;
use mpix_codegen::bytecode::CoeffSrc;
use mpix_codegen::{CompiledCluster, Op, LANES};
use mpix_dmp::regions::{region_box, remainder_boxes, Region};
use mpix_symbolic::Context;
use mpix_trace::Diagnostic;

const PASS: &str = "bytecode";

/// Structural verification of one compiled cluster.
pub fn check_compiled(
    ctx: &Context,
    ci: usize,
    cc: &CompiledCluster,
    num_params: usize,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let loc = |detail: String| format!("cluster {ci} / {detail}");

    if cc.streams.len() != cc.written.len() {
        diags.push(Diagnostic::error(
            PASS,
            loc("streams".into()),
            format!(
                "{} streams but {} written flags: the threaded executor partitions \
                 buffers by this table",
                cc.streams.len(),
                cc.written.len()
            ),
        ));
        return diags;
    }

    // Offset table entries must name a valid stream and match its rank.
    for (oi, (slot, deltas)) in cc.offsets.iter().enumerate() {
        if (*slot as usize) >= cc.streams.len() {
            diags.push(Diagnostic::error(
                PASS,
                loc(format!("offset {oi}")),
                format!("offset entry names stream {slot} of {}", cc.streams.len()),
            ));
            continue;
        }
        let nd = ctx.field(cc.streams[*slot as usize].0).shape.len();
        if deltas.len() != nd {
            diags.push(Diagnostic::error(
                PASS,
                loc(format!("offset {oi}")),
                format!(
                    "offset has {} deltas for a {nd}-dimensional field",
                    deltas.len()
                ),
            ));
        }
    }

    let mut assigned = vec![false; cc.num_temps];
    let mut stored = vec![false; cc.streams.len()];
    for (i, op) in cc.ops.iter().enumerate() {
        let oloc = || loc(format!("op {i} ({op:?})"));
        let check_slot = |what: &str, slot: u32, len: usize, diags: &mut Vec<Diagnostic>| {
            if (slot as usize) >= len {
                diags.push(Diagnostic::error(
                    PASS,
                    oloc(),
                    format!("{what} slot {slot} out of bounds (table has {len})"),
                ));
                false
            } else {
                true
            }
        };
        let check_load = |stream: u32, off: u32, diags: &mut Vec<Diagnostic>| {
            let ok_s = (stream as usize) < cc.streams.len();
            if !ok_s {
                diags.push(Diagnostic::error(
                    PASS,
                    oloc(),
                    format!("stream slot {stream} out of bounds ({})", cc.streams.len()),
                ));
            }
            if (off as usize) >= cc.offsets.len() {
                diags.push(Diagnostic::error(
                    PASS,
                    oloc(),
                    format!("offset index {off} out of bounds ({})", cc.offsets.len()),
                ));
            } else if ok_s && cc.offsets[off as usize].0 != stream {
                diags.push(Diagnostic::error(
                    PASS,
                    oloc(),
                    format!(
                        "load on stream {stream} uses offset entry {off} belonging to \
                         stream {}: the linear delta is resolved with that stream's \
                         strides, so differing halo widths make this read the wrong point",
                        cc.offsets[off as usize].0
                    ),
                ));
            }
        };
        let coeff_ok = |c: CoeffSrc, diags: &mut Vec<Diagnostic>| match c {
            CoeffSrc::Const(k) => {
                if (k as usize) >= cc.consts.len() {
                    diags.push(Diagnostic::error(
                        PASS,
                        oloc(),
                        format!(
                            "coefficient const slot {k} out of bounds ({})",
                            cc.consts.len()
                        ),
                    ));
                }
            }
            CoeffSrc::Scalar(k) => {
                if (k as usize) >= cc.scalars.len() {
                    diags.push(Diagnostic::error(
                        PASS,
                        oloc(),
                        format!(
                            "coefficient scalar slot {k} out of bounds ({})",
                            cc.scalars.len()
                        ),
                    ));
                }
            }
            CoeffSrc::Param(k) => {
                if (k as usize) >= num_params {
                    diags.push(Diagnostic::error(
                        PASS,
                        oloc(),
                        format!("coefficient param slot {k} out of bounds ({num_params})"),
                    ));
                }
            }
        };
        match *op {
            Op::Const(k) => {
                check_slot("const", k, cc.consts.len(), &mut diags);
            }
            Op::Scalar(k) => {
                check_slot("scalar", k, cc.scalars.len(), &mut diags);
            }
            Op::Param(k) => {
                check_slot("param", k, num_params, &mut diags);
            }
            Op::Temp(k) => {
                if check_slot("temp", k, cc.num_temps, &mut diags) && !assigned[k as usize] {
                    diags.push(Diagnostic::error(
                        PASS,
                        oloc(),
                        format!(
                            "temp {k} read before assignment: value is stale garbage \
                                 from the previous grid point"
                        ),
                    ));
                }
            }
            Op::SetTemp(k) => {
                if check_slot("temp", k, cc.num_temps, &mut diags) {
                    assigned[k as usize] = true;
                }
            }
            Op::Load { stream, off } => check_load(stream, off, &mut diags),
            Op::LoadMul { coeff, stream, off } | Op::LoadMulAdd { coeff, stream, off } => {
                coeff_ok(coeff, &mut diags);
                check_load(stream, off, &mut diags);
            }
            Op::Store { stream } => {
                if check_slot("stream", stream, cc.streams.len(), &mut diags) {
                    stored[stream as usize] = true;
                }
            }
            Op::Add | Op::Mul | Op::Pow(_) | Op::Call(_) | Op::MulAdd => {}
        }
    }

    match cc.stack_walk() {
        Err((i, why)) => diags.push(Diagnostic::error(PASS, loc(format!("op {i}")), why)),
        Ok(max) => {
            if max > cc.max_stack {
                diags.push(Diagnostic::error(
                    PASS,
                    loc("max_stack".into()),
                    format!(
                        "declared max_stack {} but the program reaches depth {max}: the \
                         executor allocates max(max_stack, 4) slots, so deeper programs \
                         write past the stack",
                        cc.max_stack
                    ),
                ));
            }
        }
    }

    for (s, (&w, &st)) in cc.written.iter().zip(&stored).enumerate() {
        if st && !w {
            diags.push(Diagnostic::error(
                PASS,
                loc(format!("stream {s}")),
                "stream is stored but not marked written: the threaded executor would \
                 bind it as a shared read-only slice"
                    .to_string(),
            ));
        } else if w && !st {
            diags.push(Diagnostic::warning(
                PASS,
                loc(format!("stream {s}")),
                "stream marked written but never stored: it is slab-partitioned for \
                 nothing, restricting reads to the thread's slab"
                    .to_string(),
            ));
        }
    }

    diags
}

/// In-bounds proofs for one compiled cluster on one rank-local geometry.
///
/// `local` is the owned local shape; `radius` the cluster's max stencil
/// radius (defines CORE/REMAINDER). Checks the DOMAIN box (basic and
/// diagonal modes) plus CORE and every REMAINDER strip (full mode): the
/// interpreter's [`LANES`]-wide strips and the live lanes of each row's
/// partial strip must stay within `[0, local_d + 2*halo_s)` in every
/// dimension. A partial strip's dead lanes are never stored, and they
/// are loaded only where the whole strip lies inside the stream's
/// binding, so only the live lanes need the proof.
pub fn check_bounds(
    ctx: &Context,
    ci: usize,
    cc: &CompiledCluster,
    local: &[usize],
    radius: usize,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let nd = local.len();
    if nd == 0 {
        return diags;
    }
    let mut boxes: Vec<(String, Vec<std::ops::Range<usize>>)> = vec![
        (
            "DOMAIN".to_string(),
            region_box(Region::Domain, local, 0, 0),
        ),
        (
            "CORE".to_string(),
            region_box(Region::Core, local, 0, radius),
        ),
    ];
    for (i, b) in remainder_boxes(local, 0, radius).into_iter().enumerate() {
        boxes.push((format!("REMAINDER[{i}]"), b));
    }

    for (oi, (slot, deltas)) in cc.offsets.iter().enumerate() {
        let s = *slot as usize;
        if s >= cc.streams.len() || deltas.len() != nd {
            continue; // structural pass reports these
        }
        let h = ctx.field(cc.streams[s].0).halo() as i64;
        let padded: Vec<i64> = local.iter().map(|&n| n as i64 + 2 * h).collect();
        for (bname, bx) in &boxes {
            if bx.iter().any(|r| r.is_empty()) {
                continue;
            }
            // Outer dims: extremes of the box decide the worst case.
            for d in 0..nd {
                let lo = bx[d].start as i64 + h + deltas[d] as i64;
                let hi = bx[d].end as i64 - 1 + h + deltas[d] as i64;
                if lo < 0 || hi >= padded[d] {
                    diags.push(out_of_bounds(
                        ci, oi, s, d, bname, "scalar", lo, hi, &padded,
                    ));
                }
            }
            // Innermost dim: the strip segment [start, start + full) in
            // LANES steps, then the partial strip's live lanes
            // [start + full, end).
            let inner = &bx[nd - 1];
            let n = inner.len();
            let full = n - n % LANES;
            let d = nd - 1;
            let phases = [
                ("strips", inner.start, inner.start + full),
                ("partial strip", inner.start + full, inner.end),
            ];
            for (phase, start, end) in phases {
                if start == end {
                    continue;
                }
                let lo = start as i64 + h + deltas[d] as i64;
                let hi = end as i64 - 1 + h + deltas[d] as i64;
                if lo < 0 || hi >= padded[d] {
                    let phase = format!("W={LANES} {phase}");
                    diags.push(out_of_bounds(ci, oi, s, d, bname, &phase, lo, hi, &padded));
                }
            }
        }
    }
    diags
}

#[allow(clippy::too_many_arguments)]
fn out_of_bounds(
    ci: usize,
    oi: usize,
    s: usize,
    d: usize,
    bname: &str,
    phase: &str,
    lo: i64,
    hi: i64,
    padded: &[i64],
) -> Diagnostic {
    Diagnostic::error(
        PASS,
        format!("cluster {ci} / offset {oi} / stream {s}"),
        format!(
            "out-of-bounds access in {bname} ({phase}): dimension {d} touches padded \
             indices {lo}..={hi}, allocation is 0..{}; the stencil offset exceeds the \
             halo width (or wraps into an adjacent row)",
            padded[d]
        ),
    )
}

/// Fusion-invariance: `fused` must preserve the constant-folded
/// baseline's flop count, metadata, and (optionally) bitwise semantics.
pub fn check_fusion_invariance(
    ci: usize,
    folded: &CompiledCluster,
    fused: &CompiledCluster,
    check_semantics: bool,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let loc = format!("cluster {ci} / fusion");

    if fused.flop_count() != folded.flop_count() {
        diags.push(Diagnostic::error(
            PASS,
            loc.clone(),
            format!(
                "fusion changed flop_count from {} to {}: fused ops must be costed at \
                 their full arithmetic weight or the roofline/perf accounting lies",
                folded.flop_count(),
                fused.flop_count()
            ),
        ));
    }
    if fused.streams != folded.streams
        || fused.written != folded.written
        || fused.offsets != folded.offsets
        || fused.num_temps != folded.num_temps
        || fused.scalars != folded.scalars
        || fused.consts.len() != folded.consts.len()
    {
        diags.push(Diagnostic::error(
            PASS,
            loc.clone(),
            "fusion altered cluster metadata (streams/written/offsets/temps/scalars/consts): \
             the peephole pass must only rewrite the op sequence"
                .to_string(),
        ));
        return diags; // geometry differs: the semantic check below would misfire
    }
    if check_semantics {
        for seed in [1u64, 2] {
            if let Some(d) = semantic_spot_check(ci, folded, fused, seed) {
                diags.push(d);
                break;
            }
        }
    }
    diags
}

/// Interpret a compiled program at one point with the executor's exact
/// arithmetic ([`arith`]: FTZ/DAZ, separate mul/add roundings for the
/// fused ops). Mutates
/// `buffers` on stores (same-point reads of fresh writes must see them)
/// and returns the stored `(stream, value)` sequence. Errors on stack
/// underflow or out-of-bounds access instead of panicking, so the fuzz
/// corpus can feed it corrupted programs.
pub fn eval_program(
    cc: &CompiledCluster,
    buffers: &mut [Vec<f32>],
    bases: &[usize],
    resolved: &[isize],
    scalars: &[f32],
    params: &[f32],
) -> Result<Vec<(u32, f32)>, String> {
    let mut stack: Vec<f32> = Vec::with_capacity(cc.max_stack.max(4));
    let mut temps = vec![0.0f32; cc.num_temps];
    let mut stores = Vec::new();
    let lens: Vec<usize> = buffers.iter().map(Vec::len).collect();
    let idx = move |stream: u32, off: u32| -> Result<(usize, usize), String> {
        let s = stream as usize;
        if s >= lens.len() {
            return Err(format!("stream {s} out of bounds"));
        }
        let r = *resolved
            .get(off as usize)
            .ok_or_else(|| format!("offset {off} out of bounds"))?;
        let i = bases[s] as isize + r;
        if i < 0 || i as usize >= lens[s] {
            return Err(format!("linear index {i} out of bounds for stream {s}"));
        }
        Ok((s, i as usize))
    };
    let coeff = |c: CoeffSrc| -> Result<f32, String> {
        Ok(match c {
            CoeffSrc::Const(k) => *cc
                .consts
                .get(k as usize)
                .ok_or_else(|| format!("const slot {k} out of bounds"))?,
            CoeffSrc::Scalar(k) => *scalars
                .get(k as usize)
                .ok_or_else(|| format!("scalar slot {k} out of bounds"))?,
            CoeffSrc::Param(k) => *params
                .get(k as usize)
                .ok_or_else(|| format!("param slot {k} out of bounds"))?,
        })
    };
    for (i, op) in cc.ops.iter().enumerate() {
        let underflow = |n: usize| format!("op {i} ({op:?}): stack underflow (needs {n})");
        match *op {
            Op::Const(k) => stack.push(coeff(CoeffSrc::Const(k))?),
            Op::Scalar(k) => stack.push(coeff(CoeffSrc::Scalar(k))?),
            Op::Param(k) => stack.push(coeff(CoeffSrc::Param(k))?),
            Op::Temp(k) => stack.push(
                *temps
                    .get(k as usize)
                    .ok_or_else(|| format!("temp slot {k} out of bounds"))?,
            ),
            Op::SetTemp(k) => {
                let v = stack.pop().ok_or_else(|| underflow(1))?;
                *temps
                    .get_mut(k as usize)
                    .ok_or_else(|| format!("temp slot {k} out of bounds"))? = v;
            }
            Op::Load { stream, off } => {
                let (s, i) = idx(stream, off)?;
                stack.push(buffers[s][i]);
            }
            Op::Store { stream } => {
                let v = stack.pop().ok_or_else(|| underflow(1))?;
                let s = stream as usize;
                if s >= buffers.len() {
                    return Err(format!("store stream {s} out of bounds"));
                }
                let b = bases[s];
                if b >= buffers[s].len() {
                    return Err(format!("store base {b} out of bounds for stream {s}"));
                }
                buffers[s][b] = v;
                stores.push((stream, v));
            }
            Op::Add => {
                let y = stack.pop().ok_or_else(|| underflow(2))?;
                let x = stack.pop().ok_or_else(|| underflow(2))?;
                stack.push(arith::add(x, y));
            }
            Op::Mul => {
                let y = stack.pop().ok_or_else(|| underflow(2))?;
                let x = stack.pop().ok_or_else(|| underflow(2))?;
                stack.push(arith::mul(x, y));
            }
            Op::Pow(n) => {
                let x = stack.pop().ok_or_else(|| underflow(1))?;
                stack.push(arith::powi(x, n));
            }
            Op::Call(f) => {
                let x = stack.pop().ok_or_else(|| underflow(1))?;
                stack.push(arith::call(f, x));
            }
            Op::MulAdd => {
                let y = stack.pop().ok_or_else(|| underflow(3))?;
                let x = stack.pop().ok_or_else(|| underflow(3))?;
                let acc = stack.last_mut().ok_or_else(|| underflow(3))?;
                *acc = arith::mul_add(*acc, x, y);
            }
            Op::LoadMul {
                coeff: c,
                stream,
                off,
            } => {
                let (s, i) = idx(stream, off)?;
                stack.push(arith::mul(coeff(c)?, buffers[s][i]));
            }
            Op::LoadMulAdd {
                coeff: c,
                stream,
                off,
            } => {
                let (s, i) = idx(stream, off)?;
                let v = buffers[s][i];
                let c = coeff(c)?;
                let acc = stack.last_mut().ok_or_else(|| underflow(1))?;
                *acc = arith::mul_add(*acc, c, v);
            }
        }
    }
    if !stack.is_empty() {
        return Err(format!("program left {} values on the stack", stack.len()));
    }
    Ok(stores)
}

/// Run `folded` and `fused` on identical deterministic synthetic data
/// and compare stored values bit for bit.
fn semantic_spot_check(
    ci: usize,
    folded: &CompiledCluster,
    fused: &CompiledCluster,
    seed: u64,
) -> Option<Diagnostic> {
    let nd = folded
        .offsets
        .iter()
        .map(|(_, d)| d.len())
        .max()
        .unwrap_or(1);
    let maxd: Vec<i64> = (0..nd)
        .map(|d| {
            folded
                .offsets
                .iter()
                .filter_map(|(_, ds)| ds.get(d).map(|&x| x.unsigned_abs() as i64))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let padded: Vec<usize> = maxd.iter().map(|&m| 2 * m as usize + 3).collect();
    let mut strides = vec![1usize; nd];
    for d in (0..nd.saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * padded[d + 1];
    }
    let len: usize = padded.iter().product::<usize>().max(1);
    let base: usize = maxd
        .iter()
        .zip(&strides)
        .map(|(&m, &s)| (m as usize + 1) * s)
        .sum();
    let resolved: Vec<isize> = folded
        .offsets
        .iter()
        .map(|(_, ds)| {
            ds.iter()
                .zip(&strides)
                .map(|(&d, &s)| d as isize * s as isize)
                .sum()
        })
        .collect();
    let buf_a: Vec<Vec<f32>> = (0..folded.streams.len())
        .map(|s| crate::backend_check::fill_stream(s, seed as usize, len))
        .collect();
    let scalars: Vec<f32> = (0..folded.scalars.len())
        .map(|j| 0.5 + 0.25 * (j as f32 + 1.0))
        .collect();
    let params: Vec<f32> = (0..crate::backend_check::params_read(folded))
        .map(|k| 0.375 * (k as f32 + 1.0) + 0.5)
        .collect();
    let bases = vec![base; folded.streams.len()];

    // The metadata check above makes the two programs' streams identical.
    let (mut buf_a, mut buf_b) = (buf_a.clone(), buf_a);
    let a = eval_program(folded, &mut buf_a, &bases, &resolved, &scalars, &params);
    let b = eval_program(fused, &mut buf_b, &bases, &resolved, &scalars, &params);
    let loc = format!("cluster {ci} / fusion");
    match (a, b) {
        (Err(e), _) | (_, Err(e)) => Some(Diagnostic::error(
            PASS,
            loc,
            format!("semantic spot check could not execute: {e}"),
        )),
        (Ok(sa), Ok(sb)) => {
            let same = sa.len() == sb.len()
                && sa
                    .iter()
                    .zip(&sb)
                    .all(|((s1, v1), (s2, v2))| s1 == s2 && v1.to_bits() == v2.to_bits())
                && buf_a
                    .iter()
                    .zip(&buf_b)
                    .all(|(x, y)| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()));
            if same {
                None
            } else {
                Some(Diagnostic::error(
                    PASS,
                    loc,
                    format!(
                        "fusion is not bitwise-neutral: folded stores {sa:?} but fused \
                         stores {sb:?} on identical inputs (seed {seed}); fused ops must \
                         round the multiply and add separately"
                    ),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_codegen::bytecode::{compile_cluster, fold_constants, fuse_cluster};
    use mpix_ir::cluster::clusterize;
    use mpix_ir::lowering::lower_equations;
    use mpix_symbolic::{Context, Eq, Grid};

    fn compiled() -> (Context, CompiledCluster) {
        let mut ctx = Context::new();
        let g = Grid::new(&[32, 32], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 4, 2);
        let m = ctx.add_function("m", &g, 4);
        let pde = m.center() * u.dt2() - u.laplace();
        let st = mpix_symbolic::solve(&pde, &u.forward(), &ctx).unwrap();
        let cl = clusterize(&lower_equations(&[st], &ctx).unwrap());
        (ctx, fuse_cluster(compile_cluster(&cl[0])))
    }

    #[test]
    fn clean_cluster_passes_all_checks() {
        let (ctx, cc) = compiled();
        assert!(check_compiled(&ctx, 0, &cc, 8).is_empty());
        assert!(check_bounds(&ctx, 0, &cc, &[12, 12], 2).is_empty());
    }

    #[test]
    fn corrupt_stream_slot_is_flagged() {
        let (ctx, mut cc) = compiled();
        for op in &mut cc.ops {
            if let Op::Load { stream, .. } = op {
                *stream = 99;
                break;
            }
        }
        let diags = check_compiled(&ctx, 0, &cc, 8);
        assert!(diags
            .iter()
            .any(|d| d.explanation.contains("out of bounds")));
    }

    #[test]
    fn cross_stream_offset_is_flagged() {
        let (ctx, mut cc) = compiled();
        if cc.streams.len() < 2 {
            return;
        }
        // Point some offset entry at a different stream than its op names.
        let (op_stream, op_off) = cc
            .ops
            .iter()
            .find_map(|op| match op {
                Op::Load { stream, off }
                | Op::LoadMul { stream, off, .. }
                | Op::LoadMulAdd { stream, off, .. } => Some((*stream, *off)),
                _ => None,
            })
            .unwrap();
        cc.offsets[op_off as usize].0 = (op_stream + 1) % cc.streams.len() as u32;
        let diags = check_compiled(&ctx, 0, &cc, 8);
        assert!(
            diags.iter().any(|d| d.explanation.contains("belonging to")),
            "{diags:?}"
        );
    }

    #[test]
    fn inserted_op_breaks_stack_balance() {
        let (ctx, mut cc) = compiled();
        cc.ops.insert(0, Op::Add);
        let diags = check_compiled(&ctx, 0, &cc, 8);
        assert!(diags.iter().any(|d| d.explanation.contains("underflow")));
    }

    #[test]
    fn understated_max_stack_is_flagged() {
        let (ctx, mut cc) = compiled();
        cc.max_stack = 0;
        let diags = check_compiled(&ctx, 0, &cc, 8);
        assert!(diags.iter().any(|d| d.explanation.contains("max_stack")));
    }

    #[test]
    fn delta_beyond_halo_is_out_of_bounds() {
        let (ctx, mut cc) = compiled();
        cc.offsets[0].1[0] = 7; // halo is 2
        let diags = check_bounds(&ctx, 0, &cc, &[12, 12], 2);
        assert!(
            diags
                .iter()
                .any(|d| d.explanation.contains("out-of-bounds")),
            "{diags:?}"
        );
    }

    #[test]
    fn fusion_invariance_holds_on_real_cluster() {
        let (_ctx, _) = compiled();
        let mut ctx = Context::new();
        let g = Grid::new(&[32, 32], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 8, 2);
        let eq = Eq::new(u.dt2(), u.laplace());
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        let cl = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let unfused = compile_cluster(&cl[0]);
        let mut folded = unfused.clone();
        fold_constants(&mut folded);
        let fused = fuse_cluster(unfused);
        assert!(check_fusion_invariance(0, &folded, &fused, true).is_empty());
    }

    #[test]
    fn corrupted_fused_coefficient_fails_semantics() {
        let (_ctx, cc) = compiled();
        let mut folded = cc.clone();
        fold_constants(&mut folded);
        let mut fused = folded.clone();
        // Flip a coefficient in a fused op (or inject a wrong const push).
        let mut mutated = false;
        for op in &mut fused.ops {
            if let Op::LoadMul {
                coeff: CoeffSrc::Const(k),
                ..
            }
            | Op::LoadMulAdd {
                coeff: CoeffSrc::Const(k),
                ..
            } = op
            {
                *k = (*k + 1) % folded.consts.len() as u32;
                mutated = true;
                break;
            }
        }
        if !mutated {
            return; // nothing fused with a const coeff: skip
        }
        let diags = check_fusion_invariance(0, &folded, &fused, true);
        assert!(!diags.is_empty(), "corrupted coefficient must be caught");
    }
}
