//! The `Operator`: compile once, apply at any rank count and MPI mode.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpix_codegen::executor::{ExecStats, OperatorExec};
pub use mpix_codegen::ApplyOptions;
use mpix_codegen::Backend;
use mpix_comm::{dims_create, CartComm, Universe};
use mpix_dmp::HaloMode;
use mpix_ir::cluster::{clusterize, Cluster};
use mpix_ir::halo::{detect_halo_exchanges, HaloPlan};
use mpix_ir::iet::{build_iet, Node};
use mpix_ir::lowering::{lower_equations, LoweringError};
use mpix_ir::opcount::{op_counts, OpCounts};
use mpix_ir::passes::{cse_cluster, lower_halo_spots};
use mpix_ir::schedule::ScheduleTree;
use mpix_perf::machine::archer2_node;
use mpix_symbolic::{Context, Eq, Grid};
use mpix_trace::{PerfSummary, TraceReport};

use crate::workspace::Workspace;

/// Compilation failures surfaced to the user.
#[derive(Debug)]
pub enum BuildError {
    Lowering(LoweringError),
    /// The operator has no equations.
    Empty,
}

impl From<LoweringError> for BuildError {
    fn from(e: LoweringError) -> Self {
        BuildError::Lowering(e)
    }
}

/// User-facing label of a halo mode, as stamped into [`PerfSummary`].
fn mode_label(mode: HaloMode) -> &'static str {
    match mode {
        HaloMode::Basic => "basic",
        HaloMode::Diagonal => "diag",
        HaloMode::Full => "full",
    }
}

/// The result of one [`Operator::run`]: every rank's extracted value
/// plus the aggregated performance readout.
pub struct Applied<R> {
    /// Per-rank results from the `extract` closure, rank order.
    pub results: Vec<R>,
    /// Cross-rank performance aggregate (timings are real even at
    /// `TraceLevel::Off`; section/message detail needs `Summary`/`Full`).
    pub summary: PerfSummary,
}

/// A compiled operator: the product of the Fig. 1 pipeline, plus enough
/// metadata to print every IR level.
pub struct Operator {
    ctx: Context,
    grid: Grid,
    clusters: Vec<Cluster>,
    plan: HaloPlan,
    iet: Node,
    counts: OpCounts,
    /// Executables already lowered, keyed by `(overlap, backend)`: *basic*
    /// and *diagonal* lower to the same IET, so they share one. Lowering
    /// and kernel compilation (including the JIT's per-geometry native
    /// modules, which live *inside* the cached [`OperatorExec`]) happen
    /// once per pair per operator; every later [`run`](Self::run) reuses
    /// the same kernels. This is the per-operator face of the serve
    /// layer's content-keyed [`crate::serve::OperatorCache`].
    execs: std::sync::Mutex<HashMap<(bool, Backend), Arc<OperatorExec>>>,
    /// Memoized [`content_key`](Self::content_key)s, keyed like `execs`.
    keys: std::sync::Mutex<HashMap<(bool, Backend), u64>>,
    /// Memoized per-point bytecode flop count (see
    /// [`bytecode_flops`](Self::bytecode_flops)).
    bc_flops: std::sync::OnceLock<usize>,
}

/// Wall time of each phase of one [`Operator::build`], in pipeline
/// order (Fig. 1).
#[derive(Clone, Copy, Debug)]
pub struct BuildProfile {
    /// Symbolic equations to indexed expressions.
    pub lowering: Duration,
    /// Grouping statements into clusters.
    pub clusterize: Duration,
    /// Parameter extraction and CSE over every cluster.
    pub cse: Duration,
    /// Halo sizing (each field's stencil reach) and exchange detection.
    pub halo: Duration,
    /// Compile-time operation counts.
    pub op_counts: Duration,
    /// IET construction.
    pub iet: Duration,
}

impl Operator {
    /// Run the compilation pipeline on explicit update equations
    /// (each `Eq` must already be in `target = stencil` form; use
    /// [`Eq::solve_for`] first for implicit PDE statements).
    pub fn build(ctx: Context, grid: Grid, eqs: Vec<Eq>) -> Result<Operator, BuildError> {
        Self::build_profile(ctx, grid, eqs).map(|(op, _)| op)
    }

    /// [`build`](Self::build), also returning how long each phase took.
    pub fn build_profile(
        mut ctx: Context,
        grid: Grid,
        eqs: Vec<Eq>,
    ) -> Result<(Operator, BuildProfile), BuildError> {
        if eqs.is_empty() {
            return Err(BuildError::Empty);
        }
        let mut t = Instant::now();
        let mut lap = || {
            let now = Instant::now();
            let d = now - t;
            t = now;
            d
        };
        let lowered = lower_equations(&eqs, &ctx)?;
        let lowering = lap();
        let mut clusters = clusterize(&lowered);
        let clusterize = lap();
        let mut next_param = 0;
        for cl in &mut clusters {
            cse_cluster(cl, &mut next_param);
        }
        let cse = lap();
        // Allocate only the halo the stencils read: each field's halo is
        // the largest radius any cluster reads it at, over every
        // dimension and time offset. Every consumer (workspace, launch
        // geometry, C emission, slab partition, analyses) reads this one
        // value from `self.ctx`.
        let mut reach = vec![0u32; ctx.fields().len()];
        for cl in &clusters {
            for (f, _, radius) in cl.reads() {
                let r = &mut reach[f.0 as usize];
                *r = radius.into_iter().fold(*r, |m, x| m.max(x as u32));
            }
        }
        for (i, halo) in reach.into_iter().enumerate() {
            ctx.set_halo(mpix_symbolic::FieldId(i as u32), halo);
        }
        let plan = detect_halo_exchanges(&clusters, &ctx);
        let halo = lap();
        let counts = op_counts(&clusters);
        let op_counts = lap();
        let iet = build_iet(clusters.clone(), &plan, "Kernel", 0, true);
        let profile = BuildProfile {
            lowering,
            clusterize,
            cse,
            halo,
            op_counts,
            iet: lap(),
        };
        let op = Operator {
            ctx,
            grid,
            clusters,
            plan,
            iet,
            counts,
            execs: std::sync::Mutex::new(HashMap::new()),
            keys: std::sync::Mutex::new(HashMap::new()),
            bc_flops: std::sync::OnceLock::new(),
        };
        Ok((op, profile))
    }

    pub fn ctx(&self) -> &Context {
        &self.ctx
    }
    pub fn grid(&self) -> &Grid {
        &self.grid
    }
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }
    pub fn halo_plan(&self) -> &HaloPlan {
        &self.plan
    }
    /// Compile-time operation counts (OI, flops/pt, streams) — the
    /// paper's §IV-C compile-time metrics.
    pub fn op_counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Per-point flop count of the bytecode the executor actually runs:
    /// the sum over clusters of the fused program's
    /// [`CompiledCluster::flop_count`](mpix_codegen::CompiledCluster::flop_count)
    /// (fused ops are costed at full arithmetic weight, so fusion never
    /// changes the number). Admission pricing derives per-point work
    /// from this — re-computed from the compiler on every build, never
    /// a per-solver constant — so it tracks compiler improvements (e.g.
    /// the CSE fix that dropped viscoelastic to ~580 flops/pt)
    /// automatically. Memoized: the bytecode compile is cheap but not
    /// free, and serve prices every job at admission.
    pub fn bytecode_flops(&self) -> usize {
        *self.bc_flops.get_or_init(|| {
            self.clusters
                .iter()
                .map(|cl| {
                    mpix_codegen::fuse_cluster(mpix_codegen::compile_cluster(cl)).flop_count()
                })
                .sum()
        })
    }

    /// The schedule tree (Listing 4).
    pub fn schedule_tree(&self) -> String {
        ScheduleTree::build(&self.clusters, &self.plan, &self.ctx).to_string()
    }

    /// The IET with HaloSpots (Listing 5).
    pub fn iet_string(&self) -> String {
        format!(
            "{}",
            mpix_ir::iet::IetPrinter {
                node: &self.iet,
                ctx: &self.ctx
            }
        )
    }

    /// Generated C code for the mode selected in `opts` (Listing 11).
    pub fn c_code_for(&self, opts: &ApplyOptions) -> String {
        let lowered = lower_halo_spots(self.iet.clone(), opts.mode.overlaps_computation());
        mpix_codegen::cgen::emit_c(&lowered, &self.ctx)
    }

    /// Executable lowered for the mode and backend selected in `opts`,
    /// compiled **once** per `(overlap, backend)` pair and shared across
    /// every subsequent `run` of this operator (the modes without overlap
    /// share one). The JIT's per-geometry native-module cache lives
    /// inside the returned executable, so repeated runs of the same
    /// geometry reuse machine code instead of re-encoding AVX on every
    /// call.
    ///
    /// Panics with the backend-availability listing if the requested
    /// backend cannot run on this host (e.g. `jit` without AVX) — a
    /// silently substituted backend would invalidate benchmark numbers.
    pub fn executable_for(&self, opts: &ApplyOptions) -> Arc<OperatorExec> {
        let key = (opts.mode.overlaps_computation(), opts.backend);
        // The lock is held across compilation deliberately: concurrent
        // first requests for one pair must compile once, not race
        // (single-flight at per-operator granularity; the serve layer's
        // OperatorCache adds the same guarantee across operators).
        let mut cache = self.execs.lock().unwrap();
        if let Some(exec) = cache.get(&key) {
            return Arc::clone(exec);
        }
        let exec = Arc::new(self.compile_executable_for(opts));
        cache.insert(key, Arc::clone(&exec));
        exec
    }

    /// Compile a fresh executable for `opts`, bypassing the cache. This
    /// is the raw compile [`executable_for`](Self::executable_for)
    /// memoizes; benchmarks use it to time compilation itself.
    pub fn compile_executable_for(&self, opts: &ApplyOptions) -> OperatorExec {
        let lowered = lower_halo_spots(self.iet.clone(), opts.mode.overlaps_computation());
        OperatorExec::with_backend(lowered, &self.ctx, opts.backend)
            .unwrap_or_else(|e| panic!("operator '{}': {e}", opts.label))
    }

    /// Content hash of this operator as lowered for `opts` — the serve
    /// layer's cache key. Two operators collide exactly when their
    /// mode-lowered IET (structure *and* expressions, via the C
    /// emission), their compiled cluster bytecode and the execution
    /// backend all agree; pointer identity plays no part. Same-geometry operators with different
    /// expressions hash apart (different coefficients/opcodes); the same
    /// equations built twice hash together. Computed once per
    /// `(overlap, backend)` pair, like [`executable_for`](Self::executable_for).
    pub fn content_key(&self, opts: &ApplyOptions) -> u64 {
        let key = (opts.mode.overlaps_computation(), opts.backend);
        *self
            .keys
            .lock()
            .expect("content-key memo poisoned by a panicking hash")
            .entry(key)
            .or_insert_with(|| self.hash_content(opts))
    }

    fn hash_content(&self, opts: &ApplyOptions) -> u64 {
        let lowered = lower_halo_spots(self.iet.clone(), opts.mode.overlaps_computation());
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // IET structure + expressions + halo call sites for this mode.
        mpix_codegen::cgen::emit_c(&lowered, &self.ctx).hash(&mut h);
        // The compiled cluster bodies (post-fusion bytecode listing).
        mpix_codegen::bytecode_listing(&lowered).hash(&mut h);
        opts.backend.to_string().hash(&mut h);
        h.finish()
    }

    /// Default runtime scalars: `dt` and the grid spacings.
    pub fn default_scalars(&self, opts: &ApplyOptions) -> HashMap<String, f32> {
        let mut m = HashMap::new();
        m.insert("dt".to_string(), opts.dt.unwrap_or(1.0) as f32);
        for d in 0..self.grid.ndim() {
            m.insert(Grid::spacing_symbol_name(d), self.grid.spacing(d) as f32);
        }
        for (k, v) in &opts.scalars {
            m.insert(k.clone(), *v);
        }
        m
    }

    /// Run the `mpix-analysis` self-verification passes over this
    /// operator's artifacts for an explicit configuration sweep. This is
    /// the programmatic face of the `mpix-verify` binary; [`run`](Self::run)
    /// calls it implicitly (for the run configuration only) when
    /// `opts.verify` is set.
    pub fn verify(&self, cfg: &mpix_analysis::AnalysisConfig) -> mpix_analysis::AnalysisReport {
        mpix_analysis::verify_operator(&self.ctx, &self.grid, &self.clusters, &self.plan, cfg)
    }

    /// Run on an existing per-rank workspace (the low-level entry point;
    /// [`run_with_exec`](Self::run_with_exec) calls it on every rank).
    ///
    /// Panics if a workspace buffer's halo differs from the one the
    /// executable was compiled for, e.g. a workspace built from the
    /// pre-build `Context` (space-order halos) rather than
    /// [`ctx`](Self::ctx) (stencil-reach halos): it would run, but at the
    /// wider layout's footprint.
    pub fn apply(&self, ws: &mut Workspace, exec: &OperatorExec, opts: &ApplyOptions) -> ExecStats {
        assert_eq!(
            ws.fields.len(),
            exec.halos().len(),
            "operator '{}': the workspace has {} fields but the executable {}; build \
             the Workspace from op.ctx(), the context the operator allocates from",
            opts.label,
            ws.fields.len(),
            exec.halos().len()
        );
        for fs in &ws.fields {
            let want = exec.halos()[fs.field.0 as usize];
            let have = fs.buffers[0].halo();
            assert_eq!(
                have,
                want,
                "operator '{}': workspace field '{}' has halo {have} but the executable \
                 expects halo {want}; build the Workspace from op.ctx(), the context \
                 the operator allocates from",
                opts.label,
                self.ctx.field(fs.field).name
            );
        }
        let scalars = self.default_scalars(opts);
        let Workspace {
            cart,
            fields,
            sparse,
            ..
        } = ws;
        exec.run(cart, fields, &scalars, sparse, opts)
    }

    /// The paper's zero-code-change promise, with observability: run the
    /// same operator on `opts.ranks` simulated MPI ranks. `init` seeds
    /// each rank's data (global indexing — every rank runs the same
    /// code, as with the distributed NumPy arrays); `extract` pulls
    /// per-rank results. The returned [`Applied`] carries both the
    /// extracted values and a cross-rank [`PerfSummary`] with the
    /// roofline ceiling of the reference machine attached.
    pub fn run<R, FI, FX>(&self, opts: &ApplyOptions, init: FI, extract: FX) -> Applied<R>
    where
        R: Send,
        FI: Fn(&mut Workspace) + Send + Sync,
        FX: Fn(&mut Workspace) -> R + Send + Sync,
    {
        let exec = self.executable_for(opts);
        self.run_with_exec(&exec, opts, init, extract)
    }

    /// [`run`](Self::run) against an explicitly provided executable —
    /// the serve layer's entry point, where the executable comes from a
    /// cross-operator [`crate::serve::OperatorCache`] rather than this
    /// operator's own per-`(mode, backend)` cache. The executable must
    /// have been lowered for the same mode and backend `opts` selects.
    pub fn run_with_exec<R, FI, FX>(
        &self,
        exec: &OperatorExec,
        opts: &ApplyOptions,
        init: FI,
        extract: FX,
    ) -> Applied<R>
    where
        R: Send,
        FI: Fn(&mut Workspace) + Send + Sync,
        FX: Fn(&mut Workspace) -> R + Send + Sync,
    {
        assert_eq!(
            exec.backend(),
            opts.backend,
            "operator '{}': executable was compiled by the {} backend but \
             the run options select {}",
            opts.label,
            exec.backend(),
            opts.backend
        );
        let nranks = opts.ranks.max(1);
        let dims = opts
            .topology
            .clone()
            .unwrap_or_else(|| dims_create(nranks, self.grid.ndim()));

        // Self-verification gate: prove the artifacts sound for this run
        // configuration before executing them. Errors abort — running a
        // provably broken plan deadlocks or silently corrupts numerics.
        let mut diagnostics = if opts.verify {
            let cfg = mpix_analysis::AnalysisConfig::for_run(
                opts.mode,
                nranks,
                opts.threads,
                mpix_codegen::LANES,
                opts.backend,
            );
            let report = self.verify(&cfg);
            assert!(
                !report.has_errors(),
                "operator '{}' failed self-verification:\n{report}",
                opts.label
            );
            report.diagnostics
        } else {
            Vec::new()
        };

        // Sanitizer: `with_sanitize(true)` forces it on; otherwise defer
        // to `MPIX_SAN` so job scripts can arm it without a rebuild (the
        // same path a bare `Universe::run` takes).
        let san = if opts.sanitize {
            Some(std::sync::Arc::new(mpix_san::San::new(nranks)))
        } else {
            mpix_san::San::from_env(nranks)
        };

        let per_rank = Universe::run_with_san(nranks, san.clone(), |comm| {
            let cart = CartComm::new(comm, &dims);
            let mut ws = Workspace::new(&self.ctx, &self.grid, cart);
            init(&mut ws);
            let stats = self.apply(&mut ws, exec, opts);
            ws.last_stats = Some(stats.clone());
            ws.final_t = opts.t0 + opts.nt;
            (extract(&mut ws), stats)
        });

        // Drain sanitizer findings into the summary (run_with_san already
        // finalized the leak check and echoed them to stderr).
        if let Some(s) = &san {
            diagnostics.extend(s.take_reports());
        }

        let mut results = Vec::with_capacity(per_rank.len());
        let mut rank_totals = Vec::with_capacity(per_rank.len());
        let mut reports: Vec<TraceReport> = Vec::new();
        for (r, stats) in per_rank {
            rank_totals.push((stats.total_secs(), stats.points_updated));
            if let Some(tr) = stats.trace {
                reports.push(tr);
            }
            results.push(r);
        }

        let oi = self.counts.oi();
        let machine = archer2_node();
        let ceiling = (machine.peak_flops).min(machine.mem_bw * oi) / 1e9;
        let summary = PerfSummary::from_reports(
            &opts.label,
            mode_label(opts.mode),
            opts.nt,
            self.counts.flops() as f64,
            oi,
            &rank_totals,
            &reports,
        )
        .with_roofline(format!("{} (reference)", machine.name), ceiling)
        .with_backend(exec.backend().to_string())
        .with_diagnostics(diagnostics);

        Applied { results, summary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_trace::TraceLevel;

    fn diffusion() -> (Context, Grid, Vec<Eq>) {
        let mut ctx = Context::new();
        let g = Grid::new(&[8, 8], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 4, 1);
        let st = Eq::new(u.dt(), u.laplace())
            .solve_for(&u.forward(), &ctx)
            .unwrap();
        (ctx, g, vec![st])
    }

    #[test]
    fn memoized_content_key_matches_a_fresh_hash() {
        let (ctx, g, eqs) = diffusion();
        let op = Operator::build(ctx, g, eqs).unwrap();
        for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
            for backend in mpix_codegen::available_backends() {
                let opts = ApplyOptions::default()
                    .with_mode(mode)
                    .with_backend(backend);
                let lowered = lower_halo_spots(op.iet.clone(), mode.overlaps_computation());
                let mut h = std::collections::hash_map::DefaultHasher::new();
                mpix_codegen::cgen::emit_c(&lowered, &op.ctx).hash(&mut h);
                mpix_codegen::bytecode_listing(&lowered).hash(&mut h);
                backend.to_string().hash(&mut h);
                let fresh = h.finish();
                assert_eq!(op.content_key(&opts), fresh, "{mode:?} {backend}");
                assert_eq!(op.content_key(&opts), fresh, "{mode:?} {backend} memoized");
            }
        }
        // basic and diagonal lower alike, so they share a memo entry.
        assert_eq!(
            op.keys.lock().unwrap().len(),
            2 * mpix_codegen::available_backends().len()
        );
    }

    #[test]
    fn build_profile_builds_the_same_operator() {
        let (ctx, g, eqs) = diffusion();
        let (op, _) = Operator::build_profile(ctx, g, eqs).unwrap();
        let (ctx, g, eqs) = diffusion();
        let built = Operator::build(ctx, g, eqs).unwrap();
        let opts = ApplyOptions::default();
        assert_eq!(op.c_code_for(&opts), built.c_code_for(&opts));
        assert!(matches!(
            Operator::build_profile(Context::new(), Grid::new(&[4], &[1.0]), vec![]),
            Err(BuildError::Empty)
        ));
    }

    #[test]
    #[should_panic(expected = "workspace field 'u' has halo 4 but the executable \
                               expects halo 2; build the Workspace from op.ctx()")]
    fn apply_rejects_a_workspace_built_from_the_pre_build_context() {
        let (ctx, g, eqs) = diffusion();
        let op = Operator::build(ctx.clone(), g.clone(), eqs).unwrap();
        let opts = ApplyOptions::default().with_verify(false);
        let exec = op.executable_for(&opts);
        Universe::run(1, |comm| {
            let cart = CartComm::new(comm, &[1, 1]);
            let mut ws = Workspace::new(&ctx, &g, cart);
            op.apply(&mut ws, &exec, &opts);
        });
    }

    #[test]
    fn apply_options_from_env_parses_job_script_values() {
        // Serialize ALL env mutation within this one test: the env is
        // process-global and tests run on parallel threads.
        std::env::set_var("MPIX_MPI", "diag2");
        std::env::set_var("MPIX_BLOCK", "16");
        std::env::set_var("MPIX_THREADS", "4");
        std::env::set_var("MPIX_RANKS", "8");
        std::env::set_var("MPIX_TRACE", "summary");
        std::env::set_var("MPIX_BACKEND", "jit");
        std::env::set_var("MPIX_VERIFY", "on");
        std::env::set_var("MPIX_SAN", "on");
        let o = ApplyOptions::from_env();
        assert_eq!(o.mode, HaloMode::Diagonal);
        assert_eq!(o.block, 16);
        assert_eq!(o.threads, 4);
        assert_eq!(o.ranks, 8);
        assert_eq!(o.trace, TraceLevel::Summary);
        assert_eq!(o.backend, Backend::Jit);
        assert!(o.verify);
        assert!(o.sanitize);
        std::env::set_var("MPIX_VERIFY", "0");
        std::env::set_var("MPIX_SAN", "off");
        let o = ApplyOptions::from_env();
        assert!(!o.verify);
        assert!(!o.sanitize);

        // Precedence: environment beats builder.
        let o = ApplyOptions::default()
            .with_mode(HaloMode::Full)
            .with_block(64)
            .with_trace(TraceLevel::Full)
            .env_overrides();
        assert_eq!(o.mode, HaloMode::Diagonal);
        assert_eq!(o.block, 16);
        assert_eq!(o.trace, TraceLevel::Summary);

        // Zero is malformed for THREADS/RANKS — fail loudly, never clamp
        // to 1 (a typo'd job script must not silently run serial).
        std::env::set_var("MPIX_THREADS", "0");
        assert!(std::panic::catch_unwind(ApplyOptions::from_env).is_err());
        std::env::set_var("MPIX_THREADS", "4");
        std::env::set_var("MPIX_RANKS", "0");
        assert!(std::panic::catch_unwind(ApplyOptions::from_env).is_err());
        std::env::set_var("MPIX_RANKS", "8");
        // Set-but-empty MPIX_TRACE is malformed, like every other knob.
        std::env::set_var("MPIX_TRACE", "");
        assert!(std::panic::catch_unwind(ApplyOptions::from_env).is_err());
        std::env::set_var("MPIX_TRACE", "summary");
        // C is an emission format, not a runtime backend: fail fast,
        // point at the emitter and list the runtime backends.
        std::env::set_var("MPIX_BACKEND", "c");
        let err = std::panic::catch_unwind(ApplyOptions::from_env).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        for want in [
            "MPIX_BACKEND",
            "emission format",
            "Operator::c_code_for",
            "bytecode, jit",
        ] {
            assert!(msg.contains(want), "{msg} should mention {want}");
        }
        std::env::set_var("MPIX_BACKEND", "jit");
        // A job script that sets the interpreter width fails fast and
        // names the one width.
        for v in ["16", "0"] {
            std::env::set_var("MPIX_VW", v);
            let err = std::panic::catch_unwind(ApplyOptions::from_env).unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            for want in ["MPIX_VW", "removed", "one lane width, 16"] {
                assert!(msg.contains(want), "{msg} should mention {want}");
            }
        }
        std::env::remove_var("MPIX_VW");
        // The compatibility checks accept 0 and LANES and nothing else.
        assert_eq!(mpix_codegen::LANES, 16);
        for vw in [0, mpix_codegen::LANES] {
            let _ = ApplyOptions::default().with_vector_width(vw);
            let _ = mpix_analysis::AnalysisConfig::for_run(HaloMode::Basic, 1, 1, vw, Backend::Jit);
        }
        let panics: [fn(); 2] = [
            || {
                let _ = ApplyOptions::default().with_vector_width(8);
            },
            || {
                let _ =
                    mpix_analysis::AnalysisConfig::for_run(HaloMode::Basic, 1, 1, 8, Backend::Jit);
            },
        ];
        for f in panics {
            let err = std::panic::catch_unwind(f).unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            for want in ["vector_width=8", "one lane width, 16"] {
                assert!(msg.contains(want), "{msg} should mention {want}");
            }
        }

        std::env::remove_var("MPIX_MPI");
        std::env::remove_var("MPIX_BLOCK");
        std::env::remove_var("MPIX_THREADS");
        std::env::remove_var("MPIX_RANKS");
        std::env::remove_var("MPIX_TRACE");
        std::env::remove_var("MPIX_BACKEND");
        std::env::remove_var("MPIX_VERIFY");
        std::env::remove_var("MPIX_SAN");
        let o = ApplyOptions::from_env();
        assert_eq!(o.mode, HaloMode::Basic);
        assert_eq!(o.block, 0);
        assert_eq!(o.trace, TraceLevel::Off);
        // `jit` by default wherever it can run.
        let default = if mpix_codegen::available_backends().contains(&Backend::Jit) {
            Backend::Jit
        } else {
            Backend::Bytecode
        };
        assert_eq!(o.backend, default);

        // Unset env leaves builder values untouched.
        let o = ApplyOptions::default()
            .with_mode(HaloMode::Full)
            .with_ranks(4)
            .env_overrides();
        assert_eq!(o.mode, HaloMode::Full);
        assert_eq!(o.ranks, 4);
    }
}
