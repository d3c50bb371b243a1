//! # mpix-analysis
//!
//! Compiler self-verification passes (ISSUE 4): turn the compiler's own
//! artifacts — Cluster accesses, the [`mpix_ir::halo::HaloPlan`], the
//! [`mpix_codegen::CompiledCluster`] bytecode, and the per-mode comm
//! schedules built by `mpix-dmp` — into checkable proof obligations, the
//! staged-IR-invariant discipline of the Devito architecture paper
//! (arXiv:1807.03032).
//!
//! Five passes, each emitting structured [`Diagnostic`] values:
//!
//! * [`halo_coverage`] — proves every off-rank stencil read is covered by
//!   an exchange in the plan (under-coverage → wrong numerics at rank
//!   boundaries), and flags exchanges the drop/merge pass should have
//!   removed (over-coverage → wasted bandwidth).
//! * [`comm_schedule`] — builds the *real* per-rank exchange plans on a
//!   P-rank topology and symbolically matches sends against posted
//!   receives: every send must have exactly one matching receive with a
//!   unique `(src, tag)` per rank (mismatch → deadlock or cross-matched
//!   messages), receive boxes must tile exactly the reachable halo
//!   annulus, and sent data must be owned or already received (the
//!   *basic* mode's corner-propagation provenance proof).
//! * [`bytecode_check`] — extends `CompiledCluster::stack_walk` into a
//!   full verifier: slot validity, temp definite-assignment, the stack
//!   walk, in-bounds access proofs for every region box at the
//!   interpreter's strip width `LANES` including the scalar remainder,
//!   and fusion-invariance of `flop_count` and semantics.
//! * [`thread_safety`] — proves the threaded executor's slab partition
//!   writes each output point from exactly one thread, and lints loads
//!   that would escape a written stream's slab.
//! * [`backend_check`] — the multi-backend equivalence gate: every
//!   selectable backend (the native JIT in particular) must produce
//!   stores bitwise identical to the scalar bytecode oracle over a
//!   synthetic geometry, across strip widths and cache blocking.
//!
//! The passes are pure functions over artifacts, so the mutation corpus
//! in `tests/compiler_fuzz.rs` can corrupt an artifact and assert the
//! right pass flags it. [`verify_operator`] is the aggregate entry point
//! used by `Operator::run` (behind `ApplyOptions::verify` /
//! `MPIX_VERIFY=1`) and the `mpix-verify` binary.

use std::fmt;

use mpix_codegen::bytecode::{compile_cluster, fold_constants, fuse_cluster};
use mpix_codegen::{available_backends, Backend};
use mpix_comm::dims_create;
use mpix_dmp::halo::HaloMode;
use mpix_dmp::Decomposition;
use mpix_ir::cluster::Cluster;
use mpix_ir::halo::HaloPlan;
use mpix_json::{json, Value};
use mpix_symbolic::{Context, Grid};
use mpix_trace::{Diagnostic, Severity};

pub mod backend_check;
pub mod bytecode_check;
pub mod comm_schedule;
pub mod fp;
pub mod halo_coverage;
pub mod lint;
pub mod thread_safety;

pub use lint::{LintConfig, LintLevel};

/// Which configurations the passes sweep. The `Operator::run` gate
/// verifies only the actual run configuration ([`AnalysisConfig::for_run`]);
/// the `mpix-verify` binary sweeps the full matrix ([`Default`]).
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Halo-exchange modes to check comm schedules for.
    pub modes: Vec<HaloMode>,
    /// Rank counts: each is factored into a Cartesian topology with
    /// `dims_create` and verified end to end.
    pub ranks: Vec<usize>,
    /// Thread counts for the slab write-disjointness proofs.
    pub threads: Vec<usize>,
    /// Backends for the bitwise equivalence gate (each is compared
    /// against the scalar bytecode oracle; see [`backend_check`]).
    pub backends: Vec<Backend>,
    /// Whether to run the bitwise fusion-semantics spot check (cheap,
    /// but disableable for pure structural runs).
    pub check_fused_semantics: bool,
    /// Lint levels for the `mpix-analysis::lint` passes; `None` skips
    /// linting entirely (the heavyweight passes still run).
    pub lint: Option<LintConfig>,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            modes: vec![HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full],
            ranks: vec![4],
            threads: vec![2, 3, 4],
            backends: available_backends(),
            check_fused_semantics: true,
            lint: Some(LintConfig::from_env()),
        }
    }
}

impl AnalysisConfig {
    /// The minimal configuration covering exactly one run: used by the
    /// `Operator::run` verify gate so debug-build overhead stays bounded.
    /// `vector_width` is a compatibility check for callers written when
    /// the interpreter width was a run option: `0` or
    /// [`LANES`](mpix_codegen::LANES), anything else panics.
    pub fn for_run(
        mode: HaloMode,
        ranks: usize,
        threads: usize,
        vector_width: usize,
        backend: Backend,
    ) -> AnalysisConfig {
        mpix_codegen::options::check_lane_width(vector_width);
        AnalysisConfig {
            modes: vec![mode],
            ranks: vec![ranks.max(1)],
            threads: if threads > 1 { vec![threads] } else { vec![] },
            backends: vec![backend],
            check_fused_semantics: true,
            lint: Some(LintConfig::from_env()),
        }
    }
}

/// The aggregate result of a verification run.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Worst severity present, or `None` when the report is clean.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    pub fn has_errors(&self) -> bool {
        self.max_severity() >= Some(Severity::Error)
    }

    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    pub fn to_json(&self) -> Value {
        json!({
            "diagnostics": Value::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            "errors": self.count(Severity::Error) as f64,
            "warnings": self.count(Severity::Warning) as f64,
        })
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "verification clean: all proof obligations discharged");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        writeln!(
            f,
            "{} error(s), {} warning(s)",
            self.count(Severity::Error),
            self.count(Severity::Warning)
        )
    }
}

/// Human-readable IR location for one `(field, time offset)` buffer.
pub(crate) fn buf_name(ctx: &Context, f: mpix_symbolic::FieldId, toff: i32) -> String {
    format!("{}[t{toff:+}]", ctx.field(f).name)
}

/// Run all four passes over one operator's artifacts.
///
/// `clusters` and `plan` are the compiler outputs the operator was built
/// from; the compiled bytecode is rebuilt here through the same
/// `compile_cluster`/`fuse_cluster` path the executor uses, so what is
/// verified is what runs.
pub fn verify_operator(
    ctx: &Context,
    grid: &Grid,
    clusters: &[Cluster],
    plan: &HaloPlan,
    cfg: &AnalysisConfig,
) -> AnalysisReport {
    let mut diags = Vec::new();
    let nd = grid.shape.len();

    // Pass 0: the lint family — cheapest, runs before any backend work,
    // so a broken artifact fails fast with a stable MPX code.
    if let Some(lc) = &cfg.lint {
        diags.extend(lint::lint_operator(
            ctx, clusters, plan, &cfg.modes, None, lc,
        ));
    }

    // Pass 1: halo coverage (pure, cheap).
    diags.extend(halo_coverage::check_halo_coverage(ctx, clusters, plan));

    // Precomputed-parameter slots are global across the operator.
    let num_params = clusters
        .iter()
        .flat_map(|c| c.params.iter().map(|(i, _)| i + 1))
        .max()
        .unwrap_or(0);

    // The distinct per-rank local shapes each configured topology yields.
    let mut geometries: Vec<(Vec<usize>, Vec<usize>)> = Vec::new(); // (dims, local)
    for &p in &cfg.ranks {
        let dims = dims_create(p.max(1), nd);
        let decomp = Decomposition::new(&grid.shape, &dims);
        for r in 0..p.max(1) {
            let coords = mpix_comm::CartComm::coords_of(&dims, r);
            let local = decomp.local_shape(&coords);
            if !geometries.iter().any(|(_, l)| *l == local) {
                geometries.push((dims.clone(), local));
            }
        }
    }

    // Passes 3 + 4: bytecode and thread-safety, per cluster.
    for (ci, cl) in clusters.iter().enumerate() {
        let unfused = compile_cluster(cl);
        let mut folded = unfused.clone();
        fold_constants(&mut folded);
        let fused = fuse_cluster(unfused);
        let radius = cl.max_radius(nd).into_iter().max().unwrap_or(0);

        diags.extend(bytecode_check::check_compiled(ctx, ci, &fused, num_params));
        diags.extend(bytecode_check::check_fusion_invariance(
            ci,
            &folded,
            &fused,
            cfg.check_fused_semantics,
        ));
        diags.extend(thread_safety::check_written_offsets(ctx, ci, &fused));
        diags.extend(backend_check::check_backend_equivalence(
            ci,
            &fused,
            num_params,
            &cfg.backends,
        ));

        for (_, local) in &geometries {
            diags.extend(bytecode_check::check_bounds(ctx, ci, &fused, local, radius));
            diags.extend(thread_safety::check_cluster_slabs(
                ctx,
                ci,
                &fused,
                local,
                radius,
                &cfg.threads,
            ));
        }
    }

    // Pass 2: comm schedules, per mode × topology × exchange key.
    let keys = comm_schedule::exchange_keys(plan);
    diags.extend(comm_schedule::check_tag_windows(
        ctx,
        &keys,
        nd,
        mpix_codegen::executor::MAX_SPARSE_OPS,
    ));
    for &mode in &cfg.modes {
        for &p in &cfg.ranks {
            if p < 2 {
                continue; // single rank: no messages, nothing to match
            }
            let dims = dims_create(p, nd);
            for &(f, toff, radius) in &keys {
                if radius == 0 {
                    continue;
                }
                let halo = ctx.field(f).halo() as usize;
                let location = format!(
                    "{} / {:?} on {} ranks {:?}",
                    buf_name(ctx, f, toff),
                    mode,
                    p,
                    dims
                );
                if grid.shape.iter().zip(&dims).any(|(&n, &d)| n / d < radius) {
                    diags.push(Diagnostic::error(
                        "comm-schedule",
                        location,
                        format!(
                            "decomposition too fine: some rank owns fewer than radius {radius} \
                             points per dimension, so exchange boxes would read unexchanged halo"
                        ),
                    ));
                    continue;
                }
                let plans =
                    comm_schedule::collect_schedules(&grid.shape, &dims, halo, mode, radius);
                let sctx = comm_schedule::ScheduleCtx {
                    global: grid.shape.clone(),
                    dims: dims.clone(),
                    halo,
                    radius,
                };
                diags.extend(comm_schedule::match_schedule(&plans, &sctx, &location));
            }
        }
    }

    // Deterministic output: the passes above iterate maps, geometry sets
    // and topology sweeps whose visit order is an implementation detail,
    // and overlapping sweeps can restate the same finding. A stable sort
    // by (code, pass, location, severity, explanation) plus dedup makes
    // `verify_operator` a pure function of the artifacts — baselines and
    // golden tests can diff its output textually.
    diags.sort_by(|a, b| {
        (&a.code, &a.pass, &a.location, a.severity, &a.explanation).cmp(&(
            &b.code,
            &b.pass,
            &b.location,
            b.severity,
            &b.explanation,
        ))
    });
    diags.dedup();

    AnalysisReport { diagnostics: diags }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_ir::cluster::clusterize;
    use mpix_ir::halo::detect_halo_exchanges;
    use mpix_ir::lowering::lower_equations;
    fn acoustic_artifacts() -> (Context, Grid, Vec<Cluster>, HaloPlan) {
        let mut ctx = Context::new();
        let g = Grid::new(&[24, 24], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 4, 2);
        let m = ctx.add_function("m", &g, 4);
        let pde = m.center() * u.dt2() - u.laplace();
        let st = mpix_symbolic::solve(&pde, &u.forward(), &ctx).unwrap();
        let cl = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let plan = detect_halo_exchanges(&cl, &ctx);
        (ctx, g, cl, plan)
    }

    #[test]
    fn clean_operator_verifies_clean() {
        let (ctx, g, cl, plan) = acoustic_artifacts();
        let report = verify_operator(&ctx, &g, &cl, &plan, &AnalysisConfig::default());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn report_severity_and_json() {
        let mut report = AnalysisReport::default();
        assert!(report.is_clean() && !report.has_errors());
        report
            .diagnostics
            .push(Diagnostic::warning("bytecode", "cluster 0", "w"));
        assert_eq!(report.max_severity(), Some(Severity::Warning));
        report
            .diagnostics
            .push(Diagnostic::error("halo-coverage", "cluster 1", "e"));
        assert!(report.has_errors());
        let j = report.to_json();
        assert_eq!(j.get("errors").and_then(Value::as_f64), Some(1.0));
        let s = format!("{report}");
        assert!(s.contains("1 error(s), 1 warning(s)"), "{s}");
    }

    #[test]
    fn shrunk_exchange_radius_is_flagged() {
        let (ctx, g, cl, mut plan) = acoustic_artifacts();
        plan.per_cluster[0][0].radius = vec![1, 1]; // stencil needs [2, 2]
        let report = verify_operator(&ctx, &g, &cl, &plan, &AnalysisConfig::default());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.pass == "halo-coverage" && d.severity == Severity::Error),
            "{report}"
        );
    }
}
