//! Backend equivalence pass: every selectable execution backend must be
//! *bitwise* interchangeable with the bytecode interpreter at the box
//! boundary — the exact seam `mpix_codegen::ClusterKernel` defines.
//!
//! The oracle is the scalar interpreter
//! ([`BytecodeKernel::scalar_oracle`]): the path
//! `bytecode_check::eval_program` re-implements instruction by
//! instruction and that `tests/vector_equivalence.rs` pins against the
//! interpreter's strips. Each backend under test compiles the *same*
//! [`CompiledCluster`] through [`compile_kernel`] and runs it over a
//! synthetic geometry with deterministic fills; any store whose bits
//! differ from the oracle's is an error. For the bytecode backend that
//! is the interpreter's own [`LANES`](mpix_codegen::LANES)-wide
//! strips, over the whole box and on cache-blocked dim-0 slabs, so one
//! pass discharges "the JIT is the interpreter" and "the interpreter's
//! strips are its scalar engine" together.
//!
//! The synthetic geometry's innermost extent ([`INNER_EXTENT`]) runs
//! every loop of every strip engine: the JIT's interleaved multi-strip
//! loop, its single-strip loop and its masked partial strip, and the
//! interpreter's full strips and partial strip. Per-axis
//! distinct extents make sure a transposed stride bug cannot cancel
//! out, and the outermost extent ([`OUTER_ROWS`]) splits into two
//! workers' dim-0 slabs ([`slab_chunks`]), the way the executor binds
//! a threaded box.

use mpix_codegen::bytecode::{CoeffSrc, CompiledCluster, Op};
use mpix_codegen::executor::{slab_bindings, slab_chunks, slab_crossing_load};
use mpix_codegen::{compile_kernel, Backend, BytecodeKernel, ClusterKernel, Launch, Stream};
use mpix_dmp::regions::BoxNd;
use mpix_trace::Diagnostic;

/// Pass name used in diagnostics.
pub const PASS: &str = "backend";

/// Innermost extent of the synthetic geometry: two passes of the JIT's
/// two-strip loop (32 points, also two full interpreter strips), one
/// pass of its single-strip loop (8) and a 5-lane partial strip; the
/// interpreter follows its two strips with a 13-lane partial strip.
pub const INNER_EXTENT: usize = 45;

/// Outermost extent of the synthetic geometry: the fewest rows
/// [`slab_chunks`] splits between the slab leg's two workers.
pub const OUTER_ROWS: usize = 2 * SLAB_WORKERS;

/// Workers of the slab leg.
const SLAB_WORKERS: usize = 2;

/// A self-contained launch geometry for one cluster: every stream gets
/// the same padded allocation (uniform halo = the cluster's max offset
/// reach), mirroring the single-rank executor layout, with
/// deterministic fills.
struct Geometry {
    strides: Vec<Vec<usize>>,
    halos: Vec<usize>,
    resolved: Vec<isize>,
    scalars: Vec<f32>,
    params: Vec<f32>,
    /// Initial padded buffer contents, one per stream.
    init: Vec<Vec<f32>>,
    bx: BoxNd,
}

impl Geometry {
    /// The gate's geometry for `cc`: every strip loop and the tail live
    /// innermost ([`INNER_EXTENT`]); the outermost splits into slabs
    /// ([`OUTER_ROWS`]); the extents between are distinct and small
    /// (stride transpositions cannot alias), because the gate runs the
    /// scalar oracle over every point.
    fn new(cc: &CompiledCluster, num_params: usize) -> Geometry {
        let nd = cc
            .offsets
            .iter()
            .map(|(_, d)| d.len())
            .max()
            .unwrap_or(1)
            .max(1);
        let extents: Vec<usize> = (0..nd)
            .map(|d| match d {
                _ if d == nd - 1 => INNER_EXTENT,
                0 => OUTER_ROWS,
                _ => 1 + d,
            })
            .collect();
        let halo = cc
            .offsets
            .iter()
            .flat_map(|(_, d)| d.iter().map(|x| x.unsigned_abs() as usize))
            .max()
            .unwrap_or(0);
        let padded: Vec<usize> = extents.iter().map(|e| e + 2 * halo).collect();
        let mut stride = vec![0usize; nd];
        stride[nd - 1] = 1;
        for d in (0..nd - 1).rev() {
            stride[d] = stride[d + 1] * padded[d + 1];
        }
        let len: usize = padded.iter().product();

        let resolved: Vec<isize> = cc
            .offsets
            .iter()
            .map(|(_, deltas)| {
                deltas
                    .iter()
                    .zip(&stride)
                    .map(|(&d, &s)| d as isize * s as isize)
                    .sum()
            })
            .collect();

        let init: Vec<Vec<f32>> = (0..cc.streams.len())
            .map(|s| fill_stream(s, 1, len))
            .collect();
        let scalars: Vec<f32> = (0..cc.scalars.len())
            .map(|j| 0.5 + 0.25 * (j + 1) as f32)
            .collect();
        let params: Vec<f32> = (0..num_params)
            .map(|k| 0.375 * (k + 1) as f32 + 0.5)
            .collect();

        Geometry {
            strides: vec![stride; cc.streams.len()],
            halos: vec![halo; cc.streams.len()],
            resolved,
            scalars,
            params,
            init,
            bx: extents.iter().map(|&e| 0..e).collect(),
        }
    }

    /// The launch of `cc` over this geometry with tile edge `block`.
    fn launch<'a>(&'a self, cc: &'a CompiledCluster, block: usize) -> Launch<'a> {
        Launch {
            cc,
            strides: &self.strides,
            halos: &self.halos,
            resolved: &self.resolved,
            scalars: &self.scalars,
            params: &self.params,
            block,
        }
    }
}

/// A deterministic, sign-varying, exactly-representable fill of `len`
/// values for stream `s`, shared by this pass and `bytecode_check`'s
/// fusion spot check: element `i` is `k / 16 - 3` with
/// `k = (31i + 17s + 7·seed) mod 97`, multiples of 1/16 so arithmetic
/// differs only where the programs genuinely differ. The residue is
/// stepped rather than divided out per element.
pub(crate) fn fill_stream(s: usize, seed: usize, len: usize) -> Vec<f32> {
    let mut k = (s * 17 + seed * 7) % 97;
    (0..len)
        .map(|_| {
            let v = k as f32 * 0.0625 - 3.0;
            k = (k + 31) % 97;
            v
        })
        .collect()
}

/// One past the highest parameter slot `cc` reads (0 when it reads
/// none): the parameter values a launch of it needs.
pub(crate) fn params_read(cc: &CompiledCluster) -> usize {
    cc.ops
        .iter()
        .filter_map(|op| match *op {
            Op::Param(k)
            | Op::LoadMul {
                coeff: CoeffSrc::Param(k),
                ..
            }
            | Op::LoadMulAdd {
                coeff: CoeffSrc::Param(k),
                ..
            } => Some(k as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Run `kernel` over the geometry on `bufs`, a working copy of its
/// initial buffers: whole, or (`slabs`) as the executor's dim-0 slabs
/// of [`SLAB_WORKERS`] workers ([`slab_bindings`]), one worker after
/// another. Only written streams are reset to their initial contents
/// first: the others are bound read-only, so no backend can change
/// them.
fn run_kernel(
    cc: &CompiledCluster,
    geo: &Geometry,
    bufs: &mut [Vec<f32>],
    kernel: &dyn ClusterKernel,
    block: usize,
    slabs: bool,
) {
    for ((buf, init), _) in bufs
        .iter_mut()
        .zip(&geo.init)
        .zip(&cc.written)
        .filter(|(_, &w)| w)
    {
        buf.copy_from_slice(init);
    }
    let launch = geo.launch(cc, block);
    if !slabs {
        let mut streams: Vec<Stream<'_>> = (bufs.iter_mut().zip(&cc.written))
            .map(|(buf, &w)| Stream::whole(buf, w))
            .collect();
        return kernel.exec_box(&launch, &geo.bx, &mut streams);
    }
    let chunks = slab_chunks(&geo.bx[0], SLAB_WORKERS).expect("the geometry splits into slabs");
    for (mut streams, rows) in slab_bindings(&launch, bufs, &chunks)
        .into_iter()
        .zip(chunks)
    {
        let mut sub = geo.bx.clone();
        sub[0] = rows;
        kernel.exec_box(&launch, &sub, &mut streams);
    }
}

/// The scalar oracle's final written buffers over the geometry (empty
/// for the streams it only reads), run on `bufs`.
fn run_oracle(cc: &CompiledCluster, geo: &Geometry, bufs: &mut [Vec<f32>]) -> Vec<Vec<f32>> {
    run_kernel(cc, geo, bufs, &BytecodeKernel::scalar_oracle(cc), 0, false);
    bufs.iter()
        .zip(&cc.written)
        .map(|(b, &w)| if w { b.clone() } else { Vec::new() })
        .collect()
}

/// Compare one backend run against the oracle's written buffers,
/// bitwise (streams the oracle holds empty are read-only).
fn compare(
    ci: usize,
    cc: &CompiledCluster,
    oracle: &[Vec<f32>],
    got: &[Vec<f32>],
    what: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for (s, (a, b)) in oracle.iter().zip(got).enumerate() {
        let mismatches = a
            .iter()
            .zip(b)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
        if mismatches > 0 {
            let (idx, (x, y)) = a
                .iter()
                .zip(b)
                .enumerate()
                .find(|(_, (x, y))| x.to_bits() != y.to_bits())
                .unwrap();
            diags.push(Diagnostic::error(
                PASS,
                format!("cluster {ci} / stream {s} / {what}"),
                format!(
                    "{mismatches} store(s) differ bitwise from the scalar bytecode \
                     oracle (first at linear index {idx}: oracle {x:?} ({:#010x}) vs \
                     backend {y:?} ({:#010x})); backends must be bitwise \
                     interchangeable — written streams: {:?}",
                    x.to_bits(),
                    y.to_bits(),
                    cc.written
                ),
            ));
        }
    }
}

/// Prove every backend in `backends` produces stores bitwise identical
/// to the scalar oracle on this cluster, run two ways through the
/// executor's binding path: the whole box, and the box split into two
/// workers' dim-0 slabs, cache-blocked (tile-sized boxes through the
/// same entry point). The slab leg is skipped for a cluster that loads
/// a written stream across its slab, which the executor never splits.
/// For the bytecode backend this checks the interpreter's strips
/// against its own scalar engine.
pub fn check_backend_equivalence(
    ci: usize,
    cc: &CompiledCluster,
    num_params: usize,
    backends: &[Backend],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if cc.ops.is_empty() || cc.streams.is_empty() || !cc.written.iter().any(|&w| w) {
        return diags; // nothing stored → nothing to compare
    }
    if params_read(cc) > num_params {
        // The slot-validity pass (`bytecode_check`) owns this error;
        // running would index out of bounds.
        return diags;
    }
    let geo = Geometry::new(cc, num_params);
    let mut bufs = geo.init.clone();
    let oracle = run_oracle(cc, &geo, &mut bufs);

    for &backend in backends {
        let kernel = match compile_kernel(backend, cc) {
            Ok(k) => k,
            Err(e) => {
                diags.push(Diagnostic::warning(
                    PASS,
                    format!("cluster {ci}"),
                    format!("backend {backend} unavailable, equivalence not checked: {e}"),
                ));
                continue;
            }
        };
        let mut legs = vec![(format!("backend {backend}"), 0, false)];
        if slab_crossing_load(cc).is_none() {
            let what = format!("backend {backend} ({SLAB_WORKERS} slabs, block=2)");
            legs.push((what, 2, true));
        }
        for (what, block, slabs) in legs {
            // A backend that indexes outside a binding panics (safe
            // slicing, or the JIT's bounds check): report it as this
            // leg's error rather than abort the gate.
            let run = || run_kernel(cc, &geo, &mut bufs, &*kernel, block, slabs);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                Ok(()) => compare(ci, cc, &oracle, &bufs, &what, &mut diags),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic payload");
                    diags.push(Diagnostic::error(
                        PASS,
                        format!("cluster {ci} / {what}"),
                        format!("the backend panicked where the scalar oracle ran: {msg}"),
                    ));
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_codegen::available_backends;
    use mpix_codegen::bytecode::{compile_cluster, fuse_cluster};
    use mpix_ir::cluster::clusterize;
    use mpix_ir::lowering::lower_equations;
    use mpix_symbolic::{Context, Eq, Grid};

    fn star_cluster() -> CompiledCluster {
        let mut ctx = Context::new();
        let g = Grid::new(&[12, 12, 12], &[1.0, 1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 4, 2);
        let eq = Eq::new(u.dt(), u.laplace());
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        let cl = clusterize(&lower_equations(&[st], &ctx).unwrap());
        fuse_cluster(compile_cluster(&cl[0]))
    }

    #[test]
    fn every_available_backend_matches_the_oracle() {
        let cc = star_cluster();
        let diags = check_backend_equivalence(0, &cc, 0, &available_backends());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn corrupted_program_is_caught_when_backends_diverge() {
        // Self-check of the comparator: perturb the oracle manually and
        // make sure `compare` reports a bitwise mismatch.
        let cc = star_cluster();
        let geo = Geometry::new(&cc, 0);
        let oracle = run_oracle(&cc, &geo, &mut geo.init.clone());
        let mut got = oracle.clone();
        let s = cc.written.iter().position(|&w| w).unwrap();
        let mid = got[s].len() / 2;
        got[s][mid] += 1.0;
        let mut diags = Vec::new();
        compare(0, &cc, &oracle, &got, "perturbed", &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].explanation.contains("differ bitwise"), "{diags:?}");
    }

    #[test]
    fn geometry_has_unit_innermost_stride_and_odd_extent() {
        use mpix_codegen::jit::MAX_STRIPS;
        use mpix_codegen::LANES;

        let cc = star_cluster();
        let geo = Geometry::new(&cc, 0);
        for s in &geo.strides {
            assert_eq!(*s.last().unwrap(), 1);
        }
        let n = geo.bx.last().unwrap().len();
        assert_eq!(n % 2, 1, "partial strips must stay live");
        // The JIT's interleaved loop runs, then its single-strip loop
        // (8 points left), then a partial strip of 5 lanes.
        assert!(n >= 8 * MAX_STRIPS, "interleaved body must run");
        assert!(
            n % (8 * MAX_STRIPS) > 8,
            "single-strip body and partial strip must run"
        );
        // Two workers each get a slab of the outermost rows.
        assert_eq!(
            slab_chunks(&geo.bx[0], SLAB_WORKERS).map(|c| c.len()),
            Some(SLAB_WORKERS)
        );
        // The interpreter runs full strips and a partial strip of 13
        // lanes.
        assert!(
            n > LANES && !n.is_multiple_of(LANES),
            "strips and their partial strip must run"
        );
        // Offsets resolve symmetrically: the star has matched ± taps.
        assert!(geo.resolved.iter().any(|&r| r > 0));
        assert!(geo.resolved.iter().any(|&r| r < 0));
    }
}
