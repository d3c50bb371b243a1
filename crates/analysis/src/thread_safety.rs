//! Pass 4: slab write-disjointness proofs for the threaded executor.
//!
//! The shared-memory backend splits a box's outermost loop dimension
//! into contiguous chunks ([`slab_chunks`]) and hands each worker a
//! disjoint linear *slab* of every **written** stream's buffer (read-only
//! streams are shared); every worker runs the same kernel entry point
//! the serial path does. Two proof obligations follow:
//!
//! * [`check_written_offsets`] — a load from a *written* stream at a
//!   nonzero outer-dimension offset ([`crosses_slab`]) would cross into
//!   another thread's slab, where the value is nondeterministically pre-
//!   or post-update (a read/write race) → Error; `OperatorExec::run`
//!   refuses such an operator at `threads > 1` by the same rule.
//!   Nonzero offsets in inner dimensions stay inside the slab but still
//!   read neighbours the same sweep updates, making the result
//!   traversal-order-dependent → Warning. (The clusterizer only splits
//!   on flow dependences, not anti-dependences, so such programs can
//!   reach the executor.)
//! * [`check_cluster_slabs`] — takes the executor's own partition
//!   ([`slab_chunks`]) of every region box, thread count and written
//!   stream, derives each chunk's slab `[(x + halo) * stride0, (xe +
//!   halo) * stride0)`, and proves the chunks tile the loop range
//!   exactly and the slabs are pairwise disjoint and cover the written
//!   rows — i.e. every output point is written by exactly one thread.
//!
//! Both checks are pure functions over artifacts; the slab table is
//! split into [`compute_slabs`] / [`check_slabs`] so the mutation corpus
//! can corrupt a slab table directly.

use std::ops::Range;

use mpix_codegen::executor::{crosses_slab, slab_chunks};
use mpix_codegen::CompiledCluster;
use mpix_dmp::regions::{region_box, remainder_boxes, Region};
use mpix_symbolic::Context;
use mpix_trace::Diagnostic;

const PASS: &str = "thread-safety";

/// Lint loads on written streams whose stencil offsets leave the slab
/// (outer dimension, Error) or read same-sweep neighbours (inner
/// dimensions, Warning).
pub fn check_written_offsets(ctx: &Context, ci: usize, cc: &CompiledCluster) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut reported: Vec<(u32, u32)> = Vec::new();
    for (stream, off) in cc.ops.iter().filter_map(|op| op.load()) {
        let s = stream as usize;
        if s >= cc.written.len() || !cc.written[s] || (off as usize) >= cc.offsets.len() {
            continue; // unwritten stream, or structurally invalid (pass 3 reports)
        }
        if reported.contains(&(stream, off)) {
            continue;
        }
        reported.push((stream, off));
        let deltas = &cc.offsets[off as usize].1;
        let name = &ctx.field(cc.streams[s].0).name;
        if crosses_slab(deltas) {
            diags.push(Diagnostic::error(
                PASS,
                format!("cluster {ci} / stream {s} ({name})"),
                format!(
                    "load at offset {deltas:?} on a written stream crosses the slab \
                     boundary in the threaded outer dimension: another thread may or \
                     may not have updated that point yet (read/write race)"
                ),
            ));
        } else if deltas.iter().any(|&d| d != 0) {
            diags.push(Diagnostic::warning(
                PASS,
                format!("cluster {ci} / stream {s} ({name})"),
                format!(
                    "load at offset {deltas:?} on a written stream reads a neighbour \
                     the same sweep updates: the result depends on traversal order"
                ),
            ));
        }
    }
    diags
}

/// The executor's slab partition for one written stream: `(rows,
/// linear)` per worker, where `rows` is the worker's chunk of the outer
/// loop range ([`slab_chunks`]) and `linear` the buffer slab bound to
/// it. `None` when the executor runs the box unsplit, with every
/// buffer bound whole.
pub fn compute_slabs(
    range0: &Range<usize>,
    nthreads: usize,
    halo: usize,
    stride0: usize,
) -> Option<Vec<(Range<usize>, Range<usize>)>> {
    let chunks = slab_chunks(range0, nthreads)?;
    let slab = |r: &Range<usize>| (r.start + halo) * stride0..(r.end + halo) * stride0;
    Some(chunks.into_iter().map(|r| (r.clone(), slab(&r))).collect())
}

/// Prove a slab table partitions the written rows: chunks tile `range0`
/// exactly (no gap, no overlap → every output point written by exactly
/// one thread), and each linear slab is consistent with its rows.
pub fn check_slabs(
    slabs: &[(Range<usize>, Range<usize>)],
    range0: &Range<usize>,
    halo: usize,
    stride0: usize,
    location: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut cursor = range0.start;
    for (t, (rows, linear)) in slabs.iter().enumerate() {
        if rows.start != cursor {
            diags.push(Diagnostic::error(
                PASS,
                format!("{location} / thread {t}"),
                format!(
                    "chunk starts at row {} but the previous chunk ended at {cursor}: \
                     {}",
                    rows.start,
                    if rows.start > cursor {
                        "the gap rows are never written"
                    } else {
                        "the overlap rows are written by two threads concurrently"
                    }
                ),
            ));
        }
        cursor = cursor.max(rows.end);
        let expect = (rows.start + halo) * stride0..(rows.end + halo) * stride0;
        if *linear != expect {
            diags.push(Diagnostic::error(
                PASS,
                format!("{location} / thread {t}"),
                format!(
                    "linear slab {linear:?} does not match rows {rows:?} (expected \
                     {expect:?}): stores would land outside the thread's exclusive \
                     buffer region"
                ),
            ));
        }
    }
    if cursor != range0.end {
        diags.push(Diagnostic::error(
            PASS,
            location.to_string(),
            format!(
                "chunks end at row {cursor} but the loop range ends at {}: trailing \
                 rows are never written",
                range0.end
            ),
        ));
    }
    diags
}

/// Replay the slab partition for every region box × thread count ×
/// written stream of one cluster on one rank-local geometry.
pub fn check_cluster_slabs(
    ctx: &Context,
    ci: usize,
    cc: &CompiledCluster,
    local: &[usize],
    radius: usize,
    threads: &[usize],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if local.is_empty() {
        return diags;
    }
    let mut boxes = vec![
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
    for &t in threads {
        for (bname, bx) in &boxes {
            if bx.iter().any(|r| r.is_empty()) {
                continue;
            }
            for (s, &(f, _)) in cc.streams.iter().enumerate() {
                if !cc.written[s] {
                    continue;
                }
                let halo = ctx.field(f).halo() as usize;
                let stride0: usize = local[1..].iter().map(|&n| n + 2 * halo).product();
                let Some(slabs) = compute_slabs(&bx[0], t, halo, stride0) else {
                    continue; // executor runs this box unsplit
                };
                let location = format!(
                    "cluster {ci} / stream {s} ({}) / {bname} / {t} threads",
                    ctx.field(f).name
                );
                diags.extend(check_slabs(&slabs, &bx[0], halo, stride0, &location));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_codegen::bytecode::{compile_cluster, fuse_cluster};
    use mpix_codegen::Op;
    use mpix_ir::cluster::clusterize;
    use mpix_ir::lowering::lower_equations;
    use mpix_symbolic::Grid;

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
    fn clean_cluster_has_no_hazards() {
        let (ctx, cc) = compiled();
        assert!(check_written_offsets(&ctx, 0, &cc).is_empty());
        assert!(check_cluster_slabs(&ctx, 0, &cc, &[16, 16], 2, &[2, 3, 4]).is_empty());
    }

    #[test]
    fn outer_offset_on_written_stream_is_error() {
        let (ctx, mut cc) = compiled();
        // Redirect some load's offset entry to the written stream with a
        // nonzero outer-dimension delta.
        let ws = cc.written.iter().position(|&w| w).unwrap() as u32;
        let off = cc
            .ops
            .iter_mut()
            .find_map(|op| match op {
                Op::Load { stream, off } => {
                    *stream = ws;
                    Some(*off)
                }
                _ => None,
            })
            .unwrap();
        cc.offsets[off as usize] = (ws, vec![1, 0]);
        let diags = check_written_offsets(&ctx, 0, &cc);
        assert!(
            diags.iter().any(|d| d.explanation.contains("race")),
            "{diags:?}"
        );
    }

    #[test]
    fn inner_offset_on_written_stream_is_warning() {
        let (ctx, mut cc) = compiled();
        let ws = cc.written.iter().position(|&w| w).unwrap() as u32;
        let off = cc
            .ops
            .iter_mut()
            .find_map(|op| match op {
                Op::Load { stream, off } => {
                    *stream = ws;
                    Some(*off)
                }
                _ => None,
            })
            .unwrap();
        cc.offsets[off as usize] = (ws, vec![0, 1]);
        let diags = check_written_offsets(&ctx, 0, &cc);
        assert!(
            diags
                .iter()
                .any(|d| d.severity == mpix_trace::Severity::Warning),
            "{diags:?}"
        );
    }

    #[test]
    fn slab_partition_is_exact_for_awkward_sizes() {
        // Sizes that don't divide evenly, including ones that leave a
        // thread without rows, and boxes too thin to split.
        for len in [7usize, 8, 9, 13, 64] {
            for t in [2usize, 3, 4, 5] {
                let r = 3..3 + len;
                match compute_slabs(&r, t, 4, 40) {
                    Some(slabs) => {
                        assert!(slabs.len() <= t, "{len}/{t}");
                        assert!(check_slabs(&slabs, &r, 4, 40, "t").is_empty(), "{len}/{t}");
                    }
                    None => assert!(len < 2 * t, "{len}/{t} runs unsplit"),
                }
            }
        }
        // The executor stops at the range end: 9 rows on 4 threads are
        // three chunks of 3.
        let rows: Vec<_> = compute_slabs(&(0..9), 4, 0, 1)
            .unwrap()
            .into_iter()
            .map(|(rows, _)| rows)
            .collect();
        assert_eq!(rows, vec![0..3, 3..6, 6..9]);
    }

    #[test]
    fn corrupted_slab_is_flagged() {
        let r = 0..16;
        let mut slabs = compute_slabs(&r, 4, 2, 20).unwrap();
        // Overlap: thread 1 starts one row early.
        slabs[1].0 = slabs[1].0.start - 1..slabs[1].0.end;
        slabs[1].1 = (slabs[1].0.start + 2) * 20..(slabs[1].0.end + 2) * 20;
        let diags = check_slabs(&slabs, &r, 2, 20, "t");
        assert!(
            diags.iter().any(|d| d.explanation.contains("two threads")),
            "{diags:?}"
        );

        // Gap: drop a whole chunk's rows.
        let mut slabs = compute_slabs(&r, 4, 2, 20).unwrap();
        slabs[2].0 = slabs[2].0.end..slabs[2].0.end;
        slabs[2].1 = (slabs[2].0.start + 2) * 20..(slabs[2].0.end + 2) * 20;
        let diags = check_slabs(&slabs, &r, 2, 20, "t");
        assert!(
            diags.iter().any(|d| d.explanation.contains("gap")),
            "{diags:?}"
        );

        // Inconsistent linear slab for the rows.
        let mut slabs = compute_slabs(&r, 4, 2, 20).unwrap();
        slabs[0].1 = slabs[0].1.start..slabs[0].1.end + 20;
        let diags = check_slabs(&slabs, &r, 2, 20, "t");
        assert!(
            diags
                .iter()
                .any(|d| d.explanation.contains("exclusive buffer")),
            "{diags:?}"
        );
    }
}
