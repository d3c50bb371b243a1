//! The executable backend: runs a lowered IET on one rank.
//!
//! This module plays the role of the paper's JIT-compiled C code.
//! [`OperatorExec::with_backend`] flattens the mode-lowered IET (see
//! `mpix_ir::passes::lower_halo_spots`) once into a run plan: the
//! hoisted exchanges, then the steps of one time step, each a halo step
//! on a per-`(field, time offset)` exchanger or a space loop's compiled
//! kernel. [`OperatorExec::run`] resolves every loop's launch geometry
//! once, then runs the plan over rotating time buffers, exchanging halos
//! through the `mpix-dmp` patterns and executing each kernel over the
//! DOMAIN / CORE / REMAINDER boxes with loop blocking and optional
//! shared-memory threading (the "X" in MPI-X).

use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

use mpix_comm::comm::RESERVED_TAG_BASE;
use mpix_comm::CartComm;
use mpix_dmp::regions::{box_len, region_box, remainder_boxes, BoxNd, Region};
use mpix_dmp::{DistArray, HaloExchanger, SparsePlan};
use mpix_ir::halo::HaloXchg;
use mpix_ir::iet::{Node, RegionKind};
use mpix_ir::iexpr::IExpr;
use mpix_san::San;
use mpix_symbolic::{Context, FieldId};
use mpix_trace::{Section, TraceLevel, TraceReport, Tracer};

use crate::arith;
use crate::backend::{
    compile_kernel, Backend, BackendError, BytecodeKernel, ClusterKernel, Launch, Stream,
};
use crate::bytecode::{compile_cluster, fuse_cluster, CompiledCluster};
use crate::jit::ClusterRoute;
use crate::options::ApplyOptions;

/// Process-wide count of full operator lowerings
/// ([`OperatorExec::with_backend`] calls). The serve smoke harness
/// asserts this equals the number of *unique* operator cache keys — the
/// compile-once contract made countable.
static EXEC_COMPILES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many times this process has lowered an operator into kernels.
pub fn exec_compiles() -> u64 {
    EXEC_COMPILES.load(std::sync::atomic::Ordering::Relaxed)
}

/// Per-field runtime state: one [`DistArray`] per time buffer.
pub struct FieldState {
    pub field: FieldId,
    pub buffers: Vec<DistArray>,
}

impl FieldState {
    /// Allocate zeroed buffers for a field.
    pub fn new(
        field: FieldId,
        nbuffers: usize,
        decomp: std::sync::Arc<mpix_dmp::Decomposition>,
        coords: &[usize],
        halo: usize,
    ) -> FieldState {
        FieldState {
            field,
            buffers: (0..nbuffers)
                .map(|_| DistArray::new(std::sync::Arc::clone(&decomp), coords, halo))
                .collect(),
        }
    }

    /// Buffer index holding time level `t + toff`.
    pub fn buffer_index(&self, t: i64, toff: i32) -> usize {
        let nb = self.buffers.len() as i64;
        ((t + toff as i64) % nb + nb) as usize % nb as usize
    }
}

/// Sparse operations appended to every time step (sources/receivers),
/// each over a [`SparsePlan`] built for this rank and the field's layout.
pub enum SparseOp {
    /// Add `signal[t] * weights` into `field`'s `t + time_offset` buffer
    /// around each point (multilinear injection).
    Inject {
        field: FieldId,
        time_offset: i32,
        plan: SparsePlan,
        /// One amplitude per time step, shared by all points.
        signal: Vec<f32>,
        /// Per-point scale factor (e.g. `dt²/m` at the source).
        scale: Vec<f32>,
    },
    /// Like `Inject`, but with an independent time trace per point
    /// (`traces[p][t]`) — the adjoint-source pattern of RTM/FWI, where
    /// every receiver injects its own residual trace.
    InjectTraces {
        field: FieldId,
        time_offset: i32,
        plan: SparsePlan,
        traces: Vec<Vec<f32>>,
        scale: Vec<f32>,
    },
    /// Sample `field` at each point into `samples[t][p]` (NaN on ranks
    /// that are not the point's primary owner). Shared points are
    /// combined at the end of each run, under [`sparse_tag`].
    Sample {
        field: FieldId,
        time_offset: i32,
        plan: SparsePlan,
        samples: Vec<Vec<f32>>,
    },
}

/// Fault injection for the sanitizer's runtime-mutant corpus: each
/// variant plants one concrete bug class into an otherwise-correct
/// execution, so `mpix-san` can be tested against real executor runs
/// rather than synthetic event streams. Hidden because it exists only
/// for the test suite; nothing in the shipped pipeline sets it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Skip every halo exchange after the first timestep — the runtime
    /// face of a wrongly dropped/hoisted exchange decision.
    DropExchange,
    /// Skip the `HaloWait` drain after the first timestep (full mode):
    /// remainder regions then read halo boxes whose receives never
    /// completed.
    SkipHaloWait,
    /// Declare overlapping per-worker write slabs to the sanitizer (the
    /// partition a buggy chunking computation would produce — safe Rust
    /// makes the *actual* overlapping writes impossible here, so the
    /// declaration is what carries the bug).
    OverlapSlabs,
    /// Declare per-worker write slabs with a coverage gap.
    GapSlabs,
}

/// Timing breakdown of one `run` (per rank).
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    pub compute_secs: f64,
    pub halo_secs: f64,
    pub points_updated: u64,
    /// Per-section trace, present when the run's `trace` level was not
    /// [`TraceLevel::Off`].
    pub trace: Option<TraceReport>,
}

impl ExecStats {
    /// Total wall time attributed to this rank's kernel work.
    pub fn total_secs(&self) -> f64 {
        self.compute_secs + self.halo_secs
    }
}

/// One entry of a [`RunPlan`]. A halo step names its exchanger slot,
/// one per `(field, time offset)` key ([`RunPlan::keys`]), so the sync
/// and async steps of a key share one [`HaloExchanger`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// Exchange slot `.0`'s buffer at radius `.1` and unpack it.
    Sync(usize, usize),
    /// Post slot `.0`'s exchange at radius `.1` (overlap, full mode).
    Begin(usize, usize),
    /// Drain slot `.0`'s posted receives and unpack them.
    Wait(usize),
    /// Kernel `.0` (the `compiled`/`kernels` index) over region `.1`,
    /// split at the cluster's widest stencil radius `.2`.
    Loop(usize, RegionKind, usize),
}

/// The lowered IET flattened once per executable: the steps before the
/// time loop (the hoisted exchanges) and the steps of one time step.
#[derive(Clone, Debug, Default)]
pub(crate) struct RunPlan {
    prologue: Vec<Step>,
    body: Vec<Step>,
    /// The `(field, time offset)` key of each exchanger slot.
    keys: Vec<(u32, i32)>,
}

impl RunPlan {
    /// Flatten `iet` into a plan and the compiled bodies of its space
    /// loops in order of appearance, which is their kernel index.
    pub(crate) fn new(iet: &Node) -> (RunPlan, Vec<CompiledCluster>) {
        let (mut plan, mut compiled) = (RunPlan::default(), Vec::new());
        plan.flatten(iet, false, &mut compiled);
        (plan, compiled)
    }

    fn flatten(&mut self, n: &Node, in_time: bool, compiled: &mut Vec<CompiledCluster>) {
        assert!(
            in_time || self.body.is_empty(),
            "run plan: the IET has a node after its time loop"
        );
        let mut steps: Vec<Step> = Vec::new();
        match n {
            Node::TimeLoop { body } => body.iter().for_each(|c| self.flatten(c, true, compiled)),
            Node::HaloUpdate {
                exchanges,
                is_async,
            } => {
                let step = if *is_async { Step::Begin } else { Step::Sync };
                steps.extend(self.slots(exchanges).map(|(s, r)| step(s, r)));
            }
            Node::HaloWait { exchanges } => {
                steps.extend(self.slots(exchanges).map(|(s, _)| Step::Wait(s)));
            }
            Node::SpaceLoop {
                cluster, region, ..
            } => {
                let radius = cluster.max_radius(cluster.ndim()).into_iter().max();
                steps.push(Step::Loop(compiled.len(), *region, radius.unwrap_or(0)));
                // Every compiled body runs through the superinstruction
                // fusion pass — fusion is bitwise-neutral, so there is no
                // scalar/fused configuration axis to test against.
                compiled.push(fuse_cluster(compile_cluster(cluster)));
            }
            Node::Callable { body, .. }
            | Node::Section { body, .. }
            | Node::HaloSpot { body, .. } => {
                body.iter().for_each(|c| self.flatten(c, in_time, compiled))
            }
        }
        let out = if in_time {
            &mut self.body
        } else {
            &mut self.prologue
        };
        out.extend(steps);
    }

    /// The slot and radius of each exchange with a nonzero radius (a
    /// radius-0 exchange has nothing to move); new keys get new slots.
    fn slots<'a>(&'a mut self, xs: &'a [HaloXchg]) -> impl Iterator<Item = (usize, usize)> + 'a {
        xs.iter().filter_map(|x| {
            let radius = x.radius.iter().copied().max().filter(|&r| r > 0)?;
            let key = (x.field.0, x.time_offset);
            let slot = self.keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                self.keys.push(key);
                self.keys.len() - 1
            });
            Some((slot, radius))
        })
    }
}

/// A loop step's launch, resolved once per run from the workspace. It is
/// the same for every time buffer of a field: [`FieldState::new`] builds
/// them alike.
struct LoopLaunch {
    /// The region's non-empty boxes, each after its dim-0 split at the
    /// run's thread count ([`slab_chunks`]).
    boxes: Vec<(Option<Vec<Range<usize>>>, BoxNd)>,
    points: u64,
    strides: Vec<Vec<usize>>,
    halos: Vec<usize>,
    /// Offset-table entries resolved to linear deltas.
    resolved: Vec<isize>,
    /// Runtime scalar values, in `cc.scalars` order.
    scalars: Vec<f32>,
    /// Per stream: a read whose stencil reaches the halo in this region,
    /// so it must observe a fresh exchange (`mpix-san`'s `halo_read`).
    halo_reads: Vec<bool>,
}

/// A compiled, runnable operator (one per `Operator::compile`).
pub struct OperatorExec {
    plan: RunPlan,
    /// Parameter slot -> defining expression (grid-invariant).
    param_defs: Vec<(usize, IExpr)>,
    /// Compiled bodies, keyed by space-loop order of appearance.
    compiled: Vec<CompiledCluster>,
    /// One executable kernel per compiled body, compiled by the selected
    /// backend ([`compile_kernel`]).
    kernels: Vec<Box<dyn ClusterKernel>>,
    /// Which backend compiled the kernels.
    backend: Backend,
    /// Allocated halo per field id.
    halos: Vec<usize>,
    /// The first load of a written stream that crosses its slab
    /// ([`crosses_slab`]), described for [`run`](Self::run)'s
    /// `threads > 1` check.
    slab_crossing: Option<String>,
}

impl OperatorExec {
    /// Flatten the lowered IET into a run plan and precompile every space
    /// loop through the chosen backend.
    pub fn with_backend(
        iet: Node,
        ctx: &Context,
        backend: Backend,
    ) -> Result<OperatorExec, BackendError> {
        let (plan, compiled) = RunPlan::new(&iet);
        let kernels = compiled
            .iter()
            .map(|cc| compile_kernel(backend, cc))
            .collect::<Result<_, _>>()?;
        EXEC_COMPILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let param_defs = match iet {
            Node::Callable { params, .. } => params,
            _ => Vec::new(),
        };
        let halos = ctx.fields().iter().map(|f| f.halo() as usize).collect();
        let slab_crossing = compiled.iter().enumerate().find_map(|(ci, cc)| {
            let (s, deltas) = slab_crossing_load(cc)?;
            let name = &ctx.field(cc.streams[s].0).name;
            Some(format!(
                "cluster {ci} loads the field it writes, {name}, at offset {deltas:?}"
            ))
        });
        Ok(OperatorExec {
            plan,
            param_defs,
            compiled,
            kernels,
            backend,
            halos,
            slab_crossing,
        })
    }

    /// This executable with every kernel replaced by the scalar oracle
    /// ([`BytecodeKernel::scalar_oracle`]): the operator-level reference
    /// the equivalence tests compare every backend against. It reports
    /// [`Backend::Bytecode`], so it runs with bytecode options.
    pub fn scalar_oracle(&self) -> OperatorExec {
        OperatorExec {
            plan: self.plan.clone(),
            param_defs: self.param_defs.clone(),
            compiled: self.compiled.clone(),
            kernels: self
                .compiled
                .iter()
                .map(|cc| Box::new(BytecodeKernel::scalar_oracle(cc)) as Box<dyn ClusterKernel>)
                .collect(),
            backend: Backend::Bytecode,
            halos: self.halos.clone(),
            slab_crossing: self.slab_crossing.clone(),
        }
    }

    /// The backend whose kernels this executable runs.
    pub fn backend(&self) -> Backend {
        self.backend
    }
    pub fn compiled_clusters(&self) -> &[CompiledCluster] {
        &self.compiled
    }
    pub fn halos(&self) -> &[usize] {
        &self.halos
    }

    /// Which backend actually executes each compiled cluster (in
    /// [`compiled_clusters`](Self::compiled_clusters) order), and why
    /// the JIT fell back where it did.
    pub fn cluster_routes(&self) -> Vec<ClusterRoute> {
        self.compiled
            .iter()
            .map(|cc| ClusterRoute::of(self.backend, cc))
            .collect()
    }

    /// Total natively-compiled per-geometry modules held across this
    /// executable's kernels (0 for interpreter backends). Stable across
    /// repeated runs of the same geometry — the compile-once contract.
    pub fn cached_native_modules(&self) -> usize {
        self.kernels.iter().map(|k| k.cached_modules()).sum()
    }

    /// Run the operator for time steps `opts.t0 .. opts.t0 + opts.nt`.
    ///
    /// Panics when `opts.threads > 1` and a cluster loads a field it
    /// writes at a nonzero dim-0 offset: split boxes would race on it.
    /// Panics before any step runs when two streams of a cluster would
    /// alias one time buffer of `fields`.
    pub fn run(
        &self,
        cart: &CartComm,
        fields: &mut [FieldState],
        scalars: &HashMap<String, f32>,
        sparse: &mut [SparseOp],
        opts: &ApplyOptions,
    ) -> ExecStats {
        if let (Some(what), 2..) = (&self.slab_crossing, opts.threads) {
            panic!(
                "threads = {}: {what}, which reads rows another worker's dim-0 slab \
                 writes (a read/write race); run this operator with threads = 1",
                opts.threads
            );
        }
        // Evaluate precomputed parameters (r0 = 1/dt, ...).
        let max_param = self
            .param_defs
            .iter()
            .map(|(i, _)| i + 1)
            .max()
            .unwrap_or(0);
        let mut params = vec![0.0f32; max_param];
        for (i, def) in &self.param_defs {
            params[*i] = eval_invariant(def, scalars, &params);
        }
        // Loop steps appear in kernel order, so this is indexed by kernel.
        let launches: Vec<LoopLaunch> = (self.plan.prologue.iter().chain(&self.plan.body))
            .filter_map(|step| match *step {
                Step::Loop(k, region, radius) => Some((&self.compiled[k], region, radius)),
                _ => None,
            })
            .map(|(cc, region, radius)| resolve_launch(cc, region, radius, fields, scalars, opts))
            .collect();
        let mut exchangers: Vec<HaloExchanger> = (self.plan.keys.iter())
            .map(|_| HaloExchanger::new(opts.mode))
            .collect();
        // At Full level the communicator logs every message so the report
        // can break halo traffic down per peer/tag.
        if opts.trace == TraceLevel::Full {
            cart.comm().set_msg_log(true);
        }
        let comm_before = if opts.trace.enabled() {
            Some(cart.comm().stats())
        } else {
            None
        };
        let mut st = ExecState {
            cart,
            fields,
            params,
            opts,
            t: opts.t0,
            stats: ExecStats::default(),
            tracer: Tracer::new(opts.trace),
        };
        for step in &self.plan.prologue {
            self.exec_step(step, &mut st, &launches, &mut exchangers);
        }
        let (t0, nt) = (opts.t0, opts.nt);
        let nsteps = nt.max(0) as usize;
        for op in sparse.iter_mut() {
            if let SparseOp::Sample { plan, samples, .. } = op {
                plan.begin_run(nsteps);
                samples.extend((0..nsteps).map(|_| vec![f32::NAN; plan.len()]));
            }
        }
        for t in t0..t0 + nt {
            st.t = t;
            st.tracer.begin_step(t);
            for step in &self.plan.body {
                self.exec_step(step, &mut st, &launches, &mut exchangers);
            }
            self.exec_sparse(&mut st, sparse, (t - t0) as usize, nsteps);
        }
        self.combine_samples(&mut st, sparse, nsteps);
        let ExecState {
            mut stats, tracer, ..
        } = st;
        if opts.trace.enabled() {
            let messages = if opts.trace == TraceLevel::Full {
                cart.comm().set_msg_log(false);
                cart.comm().take_msg_log()
            } else {
                Vec::new()
            };
            // Allocation/copy deltas over this run, so the report can
            // verify the persistent-plan zero-allocation contract.
            let before = comm_before.unwrap();
            let after = cart.comm().stats();
            stats.trace = Some(
                tracer
                    .finish(cart.comm().rank(), messages)
                    .with_comm_counters(
                        after.bufs_allocated - before.bufs_allocated,
                        after.bytes_copied - before.bytes_copied,
                    ),
            );
        }
        stats
    }

    fn exec_step(
        &self,
        step: &Step,
        st: &mut ExecState<'_>,
        launches: &[LoopLaunch],
        exchangers: &mut [HaloExchanger],
    ) {
        let slot = match *step {
            Step::Sync(slot, _) | Step::Begin(slot, _) | Step::Wait(slot) => slot,
            Step::Loop(k, region, _) => return self.exec_loop(k, region, &launches[k], st),
        };
        // Injected mutants (tests only): drop every exchange after the
        // first step — the runtime face of a bad drop/hoist decision,
        // which `mpix-san`'s stale-halo detector owns — or skip the drain,
        // so remainder regions read halo boxes whose receives never
        // completed.
        let fault = match step {
            Step::Wait(_) => Fault::SkipHaloWait,
            _ => Fault::DropExchange,
        };
        if st.opts.fault == Some(fault) && st.t > st.opts.t0 {
            return;
        }
        let start = Instant::now();
        let (field, toff) = self.plan.keys[slot];
        let fs = &mut st.fields[field as usize];
        let b = fs.buffer_index(st.t, toff);
        let (ex, arr) = (&mut exchangers[slot], &mut fs.buffers[b]);
        let tag_base = halo_tag_base(field, toff);
        match *step {
            Step::Sync(_, radius) => ex.exchange(st.cart, arr, radius, tag_base, &mut st.tracer),
            Step::Begin(_, radius) => ex.begin(st.cart, arr, radius, tag_base, &mut st.tracer),
            _ => ex.finish(arr, &mut st.tracer),
        }
        st.stats.halo_secs += start.elapsed().as_secs_f64();
    }

    /// Sparse ops of step `k` of a run of `steps` steps, whose sample
    /// rows are the last `steps` rows of each receiver's `samples`.
    fn exec_sparse(&self, st: &mut ExecState<'_>, sparse: &mut [SparseOp], k: usize, steps: usize) {
        let step = st.t;
        for op in sparse.iter_mut() {
            let section = match op {
                SparseOp::Inject { .. } | SparseOp::InjectTraces { .. } => Section::Source,
                SparseOp::Sample { .. } => Section::Receiver,
            };
            let sp = st.tracer.begin(section);
            match op {
                SparseOp::Inject {
                    field,
                    time_offset,
                    plan,
                    signal,
                    scale,
                } => {
                    let idx = (step as usize).min(signal.len().saturating_sub(1));
                    let amp = signal.get(idx).copied().unwrap_or(0.0);
                    let fs = &mut st.fields[field.0 as usize];
                    let b = fs.buffer_index(step, *time_offset);
                    plan.inject(fs.buffers[b].raw_mut(), |p| {
                        (amp * scale.get(p).copied().unwrap_or(1.0)) as f64
                    });
                }
                SparseOp::InjectTraces {
                    field,
                    time_offset,
                    plan,
                    traces,
                    scale,
                } => {
                    let fs = &mut st.fields[field.0 as usize];
                    let b = fs.buffer_index(step, *time_offset);
                    plan.inject(fs.buffers[b].raw_mut(), |p| {
                        let idx = (step as usize).min(traces[p].len().saturating_sub(1));
                        let amp = traces[p].get(idx).copied().unwrap_or(0.0);
                        (amp * scale.get(p).copied().unwrap_or(1.0)) as f64
                    });
                }
                SparseOp::Sample {
                    field,
                    time_offset,
                    plan,
                    samples,
                } => {
                    let fs = &st.fields[field.0 as usize];
                    let b = fs.buffer_index(step, *time_offset);
                    let row = samples.len() - steps + k;
                    plan.sample(fs.buffers[b].raw(), k, &mut samples[row]);
                }
            }
            st.tracer.end(sp);
        }
    }

    /// End of run: combine every receiver's shared-point partials (one
    /// message per secondary → primary pair) into the run's sample rows.
    fn combine_samples(&self, st: &mut ExecState<'_>, sparse: &mut [SparseOp], steps: usize) {
        for (si, op) in sparse.iter_mut().enumerate() {
            if let SparseOp::Sample { plan, samples, .. } = op {
                let sp = st.tracer.begin(Section::Receiver);
                let rows = samples.len() - steps;
                plan.combine(st.cart.comm(), sparse_tag(si), &mut samples[rows..]);
                st.tracer.end(sp);
            }
        }
    }

    /// Run kernel `k` over `region` with its resolved launch `l` on this
    /// step's buffers.
    fn exec_loop(&self, k: usize, region: RegionKind, l: &LoopLaunch, st: &mut ExecState<'_>) {
        let (cc, kernel, start) = (&self.compiled[k], &*self.kernels[k], Instant::now());
        let keys: Vec<(usize, usize)> = (cc.streams.iter())
            .map(|&(f, toff)| {
                (
                    f.0 as usize,
                    st.fields[f.0 as usize].buffer_index(st.t, toff),
                )
            })
            .collect();
        // Shadow-state hooks: written streams dirty their owned region;
        // reads that reach the halo must observe a fresh exchange.
        if let Some(san) = st.cart.comm().san() {
            let rank = st.cart.rank();
            for (slot, &(f, b)) in keys.iter().enumerate() {
                let arr_id = st.fields[f].buffers[b].shadow_id();
                if cc.written[slot] {
                    san.owned_write(rank, arr_id);
                } else if l.halo_reads[slot] {
                    san.halo_read(rank, arr_id, st.t);
                }
            }
        }
        // Move buffers out (no aliasing: checked when the launch was
        // resolved).
        let mut moved: Vec<Vec<f32>> = keys
            .iter()
            .map(|&(f, b)| std::mem::take(st.fields[f].buffers[b].raw_vec_mut()))
            .collect();
        let launch = Launch {
            cc,
            strides: &l.strides,
            halos: &l.halos,
            resolved: &l.resolved,
            scalars: &l.scalars,
            params: &st.params,
            block: st.opts.block,
        };
        for (chunks, bx) in &l.boxes {
            if let (Some(chunks), Some(san)) = (chunks, st.cart.comm().san()) {
                declare_slabs(san, st.cart.rank(), &bx[0], chunks, st.opts.fault);
            }
            exec_box(kernel, &launch, bx, &mut moved, chunks.as_deref());
        }
        st.stats.points_updated += l.points;
        // Move buffers back.
        for (&(f, b), v) in keys.iter().zip(moved) {
            *st.fields[f].buffers[b].raw_vec_mut() = v;
        }
        let elapsed = start.elapsed().as_secs_f64();
        st.stats.compute_secs += elapsed;
        let section = match region {
            RegionKind::Remainder => Section::Remainder,
            _ => Section::Compute,
        };
        st.tracer.add_secs(section, elapsed);
    }
}

/// Resolve the launch of `cc` over `region` (split at `radius`) against
/// the workspace `fields`. Panics when two of its streams alias one time
/// buffer.
fn resolve_launch(
    cc: &CompiledCluster,
    region: RegionKind,
    radius: usize,
    fields: &[FieldState],
    scalars: &HashMap<String, f32>,
    opts: &ApplyOptions,
) -> LoopLaunch {
    // Two streams alias one buffer when they name one field at time
    // offsets a multiple of its buffer count apart, at every step alike
    // (that would make the moved buffer list ambiguous).
    for (i, &(f, a)) in cc.streams.iter().enumerate() {
        let nb = fields[f.0 as usize].buffers.len() as i32;
        assert!(
            !cc.streams[i + 1..]
                .iter()
                .any(|&(g, b)| g == f && (a - b).rem_euclid(nb) == 0),
            "two streams alias one buffer: check time offsets vs buffer count"
        );
    }
    let arrays: Vec<&DistArray> = (cc.streams.iter())
        .map(|&(f, _)| &fields[f.0 as usize].buffers[0])
        .collect();
    // Local (owned) shape — identical across fields.
    let local = arrays[0].local_shape();
    let boxes: Vec<BoxNd> = match region {
        RegionKind::Domain => vec![region_box(Region::Domain, local, 0, 0)],
        RegionKind::Core => vec![region_box(Region::Core, local, 0, radius)],
        RegionKind::Remainder => remainder_boxes(local, 0, radius),
    };
    let boxes: Vec<_> = (boxes.into_iter())
        .filter(|b| b.iter().all(|r| !r.is_empty()))
        .map(|b| (slab_chunks(&b[0], opts.threads), b))
        .collect();
    let strides: Vec<Vec<usize>> = arrays.iter().map(|a| a.strides().to_vec()).collect();
    let resolved = (cc.offsets.iter())
        .map(|(slot, deltas)| {
            deltas
                .iter()
                .zip(&strides[*slot as usize])
                .map(|(&d, &s)| d as isize * s as isize)
                .sum()
        })
        .collect();
    // A read with a nonzero stencil radius touches halo points in every
    // region except the core, which is halo-free by construction.
    let halo_reads = (0..cc.streams.len())
        .map(|slot| {
            let mut offsets = cc.offsets.iter().filter(|(s, _)| *s as usize == slot);
            let reach = offsets.any(|(_, deltas)| deltas.iter().any(|&d| d != 0));
            !cc.written[slot] && reach && region != RegionKind::Core
        })
        .collect();
    let scalars = (cc.scalars.iter())
        .map(|name| {
            *(scalars.get(name)).unwrap_or_else(|| panic!("missing runtime scalar {name:?}"))
        })
        .collect();
    LoopLaunch {
        points: boxes.iter().map(|(_, b)| box_len(b) as u64).sum(),
        boxes,
        halos: arrays.iter().map(|a| a.halo()).collect(),
        strides,
        resolved,
        scalars,
        halo_reads,
    }
}

/// Evaluate a grid-invariant expression (parameter definitions) in the
/// kernel arithmetic, as the generated C does after its FTZ/DAZ
/// prologue.
pub fn eval_invariant(e: &IExpr, scalars: &HashMap<String, f32>, params: &[f32]) -> f32 {
    match e {
        IExpr::Const(c) => *c as f32,
        IExpr::Sym(s) => *scalars
            .get(s)
            .unwrap_or_else(|| panic!("missing runtime scalar {s:?}")),
        IExpr::Param(i) => params[*i],
        IExpr::Add(xs) => xs
            .iter()
            .map(|x| eval_invariant(x, scalars, params))
            .fold(-0.0, arith::add),
        IExpr::Mul(xs) => xs
            .iter()
            .map(|x| eval_invariant(x, scalars, params))
            .fold(1.0, arith::mul),
        IExpr::Pow(b, n) => arith::powi(eval_invariant(b, scalars, params), *n),
        IExpr::Func(fx, b) => arith::call(*fx, eval_invariant(b, scalars, params)),
        IExpr::Load(_) | IExpr::Temp(_) => panic!("not grid-invariant"),
    }
}

// ---------------------------------------------------------------------------
// Inner loops
// ---------------------------------------------------------------------------

/// Split `bx` into loop-blocking tiles: `block`-edged tiles over the two
/// outermost dimensions (the innermost stays contiguous for
/// vectorization, as in the generated C), or `bx` itself when blocking
/// is off. Every backend walks boxes in this order.
pub(crate) fn tiles(bx: &BoxNd, block: usize) -> Vec<BoxNd> {
    if block == 0 || bx.len() < 2 {
        return vec![bx.clone()];
    }
    let mut v = Vec::new();
    let (r0, r1) = (bx[0].clone(), bx[1].clone());
    let mut x0 = r0.start;
    while x0 < r0.end {
        let x1 = (x0 + block).min(r0.end);
        let mut y0 = r1.start;
        while y0 < r1.end {
            let y1 = (y0 + block).min(r1.end);
            let mut t = bx.clone();
            t[0] = x0..x1;
            t[1] = y0..y1;
            v.push(t);
            y0 = y1;
        }
        x0 = x1;
    }
    v
}

/// Whether a load at `deltas` leaves the loading point's dim-0 row. On
/// a written stream such a load reads rows another worker's slab
/// writes when the box is split: the rule behind
/// [`OperatorExec::run`]'s `threads > 1` check and the thread-safety
/// pass's error.
pub fn crosses_slab(deltas: &[i32]) -> bool {
    deltas.first().is_some_and(|&d| d != 0)
}

/// The first load in `cc` of a written stream that crosses its slab:
/// the stream's slot and the load's deltas. A cluster with one cannot
/// run on split boxes.
pub fn slab_crossing_load(cc: &CompiledCluster) -> Option<(usize, &[i32])> {
    cc.ops
        .iter()
        .filter_map(|op| op.load())
        .find_map(|(s, off)| {
            let (s, deltas) = (s as usize, cc.offsets[off as usize].1.as_slice());
            (cc.written[s] && crosses_slab(deltas)).then_some((s, deltas))
        })
}

/// The dim-0 chunks a box whose outermost range is `rows` runs as on
/// `nthreads` workers, or `None` when it runs unsplit: at one thread,
/// or with fewer than two rows per worker. Chunks are `ceil(len /
/// nthreads)` rows, the last one shorter, so there may be fewer chunks
/// than threads (9 rows on 4 threads → 3 + 3 + 3).
pub fn slab_chunks(rows: &Range<usize>, nthreads: usize) -> Option<Vec<Range<usize>>> {
    if nthreads <= 1 || rows.len() < 2 * nthreads {
        return None;
    }
    let chunk = rows.len().div_ceil(nthreads);
    let starts = rows.clone().step_by(chunk);
    Some(starts.map(|x| x..(x + chunk).min(rows.end)).collect())
}

/// Declare a split box's dim-0 partition to the sanitizer before its
/// workers start: overlapping or gapped declarations are exactly the
/// write-conflict / missed-coverage bugs the slab detector owns. The
/// injected faults mutate only the *declared* ranges, never the real
/// split, so the numerics stay correct while the detector must fire.
fn declare_slabs(
    san: &San,
    rank: usize,
    rows: &Range<usize>,
    chunks: &[Range<usize>],
    fault: Option<Fault>,
) {
    let mut declared: Vec<(usize, usize)> = chunks.iter().map(|c| (c.start, c.end)).collect();
    match fault {
        Some(Fault::OverlapSlabs) => {
            for i in 0..declared.len().saturating_sub(1) {
                declared[i].1 += 1;
            }
        }
        Some(Fault::GapSlabs) => {
            for d in declared.iter_mut().skip(1) {
                d.0 += 1;
            }
        }
        _ => {}
    }
    san.slab_partition(rank, (rows.start, rows.end), &declared);
}

/// Run `kernel` over `bx` on the streams' whole padded buffers `moved`.
/// Unsplit (`chunks = None`), every stream is bound whole. Split (the
/// [`slab_chunks`] of `bx[0]`), each worker runs its chunk's rows on its
/// [`slab_bindings`], one scoped thread per chunk.
fn exec_box(
    kernel: &dyn ClusterKernel,
    l: &Launch<'_>,
    bx: &BoxNd,
    moved: &mut [Vec<f32>],
    chunks: Option<&[Range<usize>]>,
) {
    let Some(chunks) = chunks else {
        let mut streams: Vec<Stream<'_>> = (moved.iter_mut().zip(&l.cc.written))
            .map(|(buf, &w)| Stream::whole(buf, w))
            .collect();
        return kernel.exec_box(l, bx, &mut streams);
    };
    let workers = slab_bindings(l, moved, chunks);
    std::thread::scope(|scope| {
        for (mut streams, rows) in workers.into_iter().zip(chunks) {
            scope.spawn(move || {
                let mut sub = bx.clone();
                sub[0] = rows.clone();
                kernel.exec_box(l, &sub, &mut streams);
            });
        }
    });
}

/// Each worker's stream bindings for a box split into dim-0 `chunks`:
/// the written streams' padded rows of the worker's chunk — disjoint
/// slabs carved from the buffers `moved` — and the read-only streams
/// shared whole. The executor runs each worker's rows on its bindings
/// in a thread of its own; the verify gate's backend pass runs them one
/// after another.
pub fn slab_bindings<'a>(
    l: &Launch<'_>,
    moved: &'a mut [Vec<f32>],
    chunks: &[Range<usize>],
) -> Vec<Vec<Stream<'a>>> {
    let mut workers: Vec<Vec<Stream<'_>>> = chunks.iter().map(|_| Vec::new()).collect();
    for (s, buf) in moved.iter_mut().enumerate() {
        if !l.cc.written[s] {
            let shared: &[f32] = buf;
            for w in &mut workers {
                w.push(Stream::Read(shared));
            }
            continue;
        }
        let (row, halo) = (l.strides[s][0], l.halos[s]);
        let (mut rest, mut consumed): (&mut [f32], usize) = (buf, 0);
        for (w, rows) in workers.iter_mut().zip(chunks) {
            let (lo, hi) = ((rows.start + halo) * row, (rows.end + halo) * row);
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(lo - consumed);
            let (slab, tail) = tail.split_at_mut(hi - lo);
            w.push(Stream::Write { slab, off: lo });
            (rest, consumed) = (tail, hi);
        }
    }
    workers
}

// ---------------------------------------------------------------------------
// Per-run mutable state
// ---------------------------------------------------------------------------

struct ExecState<'a> {
    cart: &'a CartComm,
    fields: &'a mut [FieldState],
    params: Vec<f32>,
    opts: &'a ApplyOptions,
    t: i64,
    stats: ExecStats,
    tracer: Tracer,
}

/// Message-tag namespace base for one `(field, time offset)` exchange
/// key: a disjoint 64-tag window per key, so concurrent exchanges of
/// different buffers can never cross-match. Public so the verification
/// passes (`mpix-analysis`) can prove window disjointness against the
/// same formula the executor uses.
pub fn halo_tag_base(field: u32, toff: i32) -> u32 {
    (field * 8 + toff.rem_euclid(8) as u32) * 64
}

/// First tag of the sparse window, which sits between the halo windows
/// and the collectives' [`RESERVED_TAG_BASE`].
pub const SPARSE_TAG_BASE: u32 = RESERVED_TAG_BASE / 2;

/// Most sparse ops one workspace may hold: one tag each, up to the
/// collectives' tags.
pub const MAX_SPARSE_OPS: usize = (RESERVED_TAG_BASE - SPARSE_TAG_BASE) as usize;

/// The one message tag of sparse op `si`: the end-of-run receiver
/// combine sends under it. Public so the verification passes can prove
/// the window clear of the halo and collective tags.
pub fn sparse_tag(si: usize) -> u32 {
    assert!(
        si < MAX_SPARSE_OPS,
        "sparse op {si} outside the {MAX_SPARSE_OPS}-tag sparse window"
    );
    SPARSE_TAG_BASE + si as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_comm::Universe;
    use mpix_dmp::Decomposition;
    use mpix_ir::cluster::clusterize;
    use mpix_ir::halo::detect_halo_exchanges;
    use mpix_ir::iet::build_iet;
    use mpix_ir::lowering::lower_equations;
    use mpix_ir::passes::{cse_cluster, lower_halo_spots};
    use mpix_symbolic::{Eq, Grid};
    use std::sync::Arc;

    #[test]
    fn buffer_index_rotates_correctly() {
        let dc = Arc::new(Decomposition::new(&[4, 4], &[1, 1]));
        let fs = FieldState::new(FieldId(0), 3, dc, &[0, 0], 2);
        // Three buffers: time t maps t+k via (t+k) mod 3.
        assert_eq!(fs.buffer_index(0, 0), 0);
        assert_eq!(fs.buffer_index(0, 1), 1);
        assert_eq!(fs.buffer_index(0, -1), 2);
        assert_eq!(fs.buffer_index(5, 0), 2);
        assert_eq!(fs.buffer_index(5, 1), 0);
        // Two buffers.
        let dc = Arc::new(Decomposition::new(&[4, 4], &[1, 1]));
        let fs2 = FieldState::new(FieldId(1), 2, dc, &[0, 0], 2);
        assert_eq!(fs2.buffer_index(7, 0), 1);
        assert_eq!(fs2.buffer_index(7, 1), 0);
    }

    #[test]
    fn eval_invariant_handles_params_and_pows() {
        let mut scalars = HashMap::new();
        scalars.insert("dt".to_string(), 2.0f32);
        // r0 = 1/dt; r1 = r0^2 * 3
        let r0 = eval_invariant(
            &IExpr::Pow(Box::new(IExpr::Sym("dt".into())), -1),
            &scalars,
            &[],
        );
        assert_eq!(r0, 0.5);
        let r1 = eval_invariant(
            &IExpr::Mul(vec![
                IExpr::Pow(Box::new(IExpr::Param(0)), 2),
                IExpr::Const(3.0),
            ]),
            &scalars,
            &[r0],
        );
        assert_eq!(r1, 0.75);
    }

    #[test]
    #[should_panic(expected = "not grid-invariant")]
    fn eval_invariant_rejects_loads() {
        let scalars = HashMap::new();
        eval_invariant(
            &IExpr::Load(mpix_ir::iexpr::IdxAccess {
                field: FieldId(0),
                time_offset: 0,
                deltas: vec![0],
            }),
            &scalars,
            &[],
        );
    }

    /// Build, lower and execute a small copy-shift operator directly
    /// through the executor (no Operator wrapper) and check the result.
    #[test]
    fn executor_runs_lowered_iet_directly() {
        let mut ctx = Context::new();
        let grid = Grid::new(&[6, 6], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 2, 1);
        // u[t+1](x,y) = 2 * u[t](x+1, y)
        let eq = Eq::new(u.forward(), 2.0 * u.at(0, &[1, 0]));
        let mut cls = clusterize(&lower_equations(&[eq], &ctx).unwrap());
        let mut next = 0;
        for c in &mut cls {
            cse_cluster(c, &mut next);
        }
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = build_iet(cls, &plan, "K", 0, false);
        let iet = lower_halo_spots(iet, false);
        let exec = OperatorExec::with_backend(iet, &ctx, Backend::Bytecode).unwrap();
        assert_eq!(exec.compiled_clusters().len(), 1);

        Universe::run(1, |comm| {
            let cart = mpix_comm::CartComm::new(comm, &[1, 1]);
            let dc = Arc::new(Decomposition::new(&[6, 6], &[1, 1]));
            let mut fields = vec![FieldState::new(u.id(), 2, dc, &[0, 0], 2)];
            for i in 0..6 {
                for j in 0..6 {
                    fields[0].buffers[0].set_global(&[i, j], (i * 6 + j) as f32);
                }
            }
            let scalars = HashMap::new();
            let stats = exec.run(
                &cart,
                &mut fields,
                &scalars,
                &mut [],
                &ApplyOptions::default(),
            );
            assert_eq!(stats.points_updated, 36);
            // After one step, buffer 1 holds 2*shifted values.
            let b1 = &fields[0].buffers[1];
            assert_eq!(b1.get_global(&[2, 3]), Some(2.0 * (3 * 6 + 3) as f32));
            // Bottom row reads the zero halo.
            assert_eq!(b1.get_global(&[5, 0]), Some(0.0));
        });
    }

    /// Lower `u[t+1] = u[t] + Δu[t]` (space order 2) on an 8 × 8 grid
    /// for the given overlap.
    fn diffusion_iet(overlap: bool) -> (Context, Node) {
        let mut ctx = Context::new();
        let grid = Grid::new(&[8, 8], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 2, 1);
        let st = Eq::new(u.dt(), u.laplace())
            .solve_for(&u.forward(), &ctx)
            .unwrap();
        let mut cls = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let mut next = 0;
        for c in &mut cls {
            cse_cluster(c, &mut next);
        }
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = lower_halo_spots(build_iet(cls, &plan, "K", 0, false), overlap);
        (ctx, iet)
    }

    #[test]
    fn full_mode_plan_is_begin_core_wait_remainder_on_one_slot() {
        let (_, iet) = diffusion_iet(true);
        let (plan, compiled) = RunPlan::new(&iet);
        assert_eq!(compiled.len(), 2);
        assert!(plan.prologue.is_empty());
        let body = [
            Step::Begin(0, 1),
            Step::Loop(0, RegionKind::Core, 1),
            Step::Wait(0),
            Step::Loop(1, RegionKind::Remainder, 1),
        ];
        assert_eq!(plan.body, body);
        assert_eq!(plan.keys, [(0, 0)]);
        // A synchronous exchange of the same key before the time loop
        // shares the overlapped steps' exchanger.
        let Node::Callable { name, params, body } = iet else {
            unreachable!()
        };
        let Some(Node::TimeLoop { body: steps }) = body.last() else {
            unreachable!()
        };
        let Node::Section { body: overlap, .. } = &steps[0] else {
            unreachable!()
        };
        let Node::HaloUpdate { exchanges, .. } = &overlap[0] else {
            unreachable!()
        };
        let hoisted = Node::HaloUpdate {
            exchanges: exchanges.clone(),
            is_async: false,
        };
        let body = std::iter::once(hoisted).chain(body).collect();
        let (plan, _) = RunPlan::new(&Node::Callable { name, params, body });
        assert_eq!(plan.prologue, [Step::Sync(0, 1)]);
        assert_eq!(plan.body[0], Step::Begin(0, 1));
        assert_eq!(plan.keys, [(0, 0)]);
    }

    #[test]
    fn basic_mode_plan_is_one_sync_exchange_and_one_domain_loop() {
        let (_, iet) = diffusion_iet(false);
        let (plan, _) = RunPlan::new(&iet);
        let body = [Step::Sync(0, 1), Step::Loop(0, RegionKind::Domain, 1)];
        assert_eq!(plan.body, body);
    }

    /// `u.dt2 = Δu` reads `u` at `t - 1`, `t` and `t + 1`; a workspace
    /// with two time buffers maps `t - 1` and `t + 1` onto one buffer.
    #[test]
    fn too_few_time_buffers_panic_before_any_step_runs() {
        let mut ctx = Context::new();
        let grid = Grid::new(&[6, 6], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 2, 2);
        let st = Eq::new(u.dt2(), u.laplace())
            .solve_for(&u.forward(), &ctx)
            .unwrap();
        let cls = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = lower_halo_spots(build_iet(cls, &plan, "K", 0, false), false);
        let exec = OperatorExec::with_backend(iet, &ctx, Backend::Bytecode).unwrap();
        Universe::run(1, |comm| {
            let cart = mpix_comm::CartComm::new(comm, &[1, 1]);
            let dc = Arc::new(Decomposition::new(&[6, 6], &[1, 1]));
            let mut fields = vec![FieldState::new(u.id(), 2, dc, &[0, 0], 1)];
            for (b, buf) in fields[0].buffers.iter_mut().enumerate() {
                buf.raw_mut().fill(b as f32 + 1.0);
            }
            let scalars = [("dt", 0.1f32), ("h_x", 1.0), ("h_y", 1.0)]
                .map(|(k, v)| (k.to_string(), v))
                .into();
            let opts = ApplyOptions::default().with_nt(2);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.run(&cart, &mut fields, &scalars, &mut [], &opts)
            }))
            .expect_err("aliased streams ran");
            let msg = (err.downcast_ref::<String>().map(String::as_str))
                .or(err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains("two streams alias one buffer"), "{msg}");
            for (b, buf) in fields[0].buffers.iter().enumerate() {
                assert!(buf.raw().iter().all(|&v| v == b as f32 + 1.0));
            }
        });
    }

    #[test]
    fn threaded_and_blocked_execution_bitwise_equal() {
        let mut ctx = Context::new();
        let grid = Grid::new(&[12, 10, 21], &[1.0, 1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 2, 1);
        let eq = Eq::new(u.dt(), u.laplace());
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        let mut cls = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let mut next = 0;
        for c in &mut cls {
            cse_cluster(c, &mut next);
        }
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = build_iet(cls, &plan, "K", 0, true);
        let iet = lower_halo_spots(iet, false);
        let exec = OperatorExec::with_backend(iet, &ctx, Backend::Bytecode).unwrap();
        let oracle = exec.scalar_oracle();

        let run = |exec: &OperatorExec, threads: usize, block: usize| -> Vec<f32> {
            Universe::run(1, |comm| {
                let cart = mpix_comm::CartComm::new(comm, &[1, 1, 1]);
                let dc = Arc::new(Decomposition::new(&[12, 10, 21], &[1, 1, 1]));
                let mut fields = vec![FieldState::new(u.id(), 2, dc, &[0, 0, 0], 2)];
                for i in 0..12 {
                    for j in 0..10 {
                        for k in 0..21 {
                            fields[0].buffers[0]
                                .set_global(&[i, j, k], ((i * 210 + j * 21 + k) % 13) as f32);
                        }
                    }
                }
                let mut scalars = HashMap::new();
                scalars.insert("dt".to_string(), 0.01f32);
                scalars.insert("h_x".to_string(), 0.1);
                scalars.insert("h_y".to_string(), 0.1);
                scalars.insert("h_z".to_string(), 0.1);
                exec.run(
                    &cart,
                    &mut fields,
                    &scalars,
                    &mut [],
                    &ApplyOptions::default()
                        .with_backend(Backend::Bytecode)
                        .with_nt(3)
                        .with_block(block)
                        .with_threads(threads),
                );
                fields[0].buffers[fields[0].buffer_index(3, 0)]
                    .raw()
                    .to_vec()
            })
            .pop()
            .unwrap()
        };
        // Inner extent 21: one full strip of LANES, then the overlapping
        // tail strip. Blocking and threading must not change a bit of it
        // against the scalar oracle, alone or composed.
        let base = run(&oracle, 1, 0);
        for (threads, block) in [(1, 0), (3, 0), (1, 4), (2, 4), (4, 8), (2, 8)] {
            assert_eq!(
                base,
                run(&exec, threads, block),
                "threads={threads}+block={block} differs"
            );
        }
    }

    /// `u[t+1] = u[t+1](point + deltas) / 2 + u[t]` on a 12 × 7 × 21
    /// grid: a cluster that loads the field it writes.
    fn self_reading_operator(deltas: [i32; 3]) -> (Context, mpix_symbolic::FieldHandle, Node) {
        let mut ctx = Context::new();
        let grid = Grid::new(&[12, 7, 21], &[1.0, 1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 2, 1);
        let eq = Eq::new(u.forward(), 0.5 * u.at(1, &deltas) + u.center());
        let mut cls = clusterize(&lower_equations(&[eq], &ctx).unwrap());
        let mut next = 0;
        for c in &mut cls {
            cse_cluster(c, &mut next);
        }
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = lower_halo_spots(build_iet(cls, &plan, "K", 0, false), false);
        (ctx, u, iet)
    }

    /// Run `exec` for 3 steps on one rank from a fixed fill of both
    /// time buffers; returns every buffer.
    fn run_self_reading(
        exec: &OperatorExec,
        u: &mpix_symbolic::FieldHandle,
        threads: usize,
        block: usize,
    ) -> Vec<Vec<f32>> {
        Universe::run(1, |comm| {
            let cart = mpix_comm::CartComm::new(comm, &[1, 1, 1]);
            let dc = Arc::new(Decomposition::new(&[12, 7, 21], &[1, 1, 1]));
            let mut fields = vec![FieldState::new(u.id(), 2, dc, &[0, 0, 0], 2)];
            for (b, buf) in fields[0].buffers.iter_mut().enumerate() {
                for (k, v) in buf.raw_mut().iter_mut().enumerate() {
                    *v = ((k * 7 + b * 3) % 23) as f32 * 0.25 - 2.0;
                }
            }
            let opts = ApplyOptions::default()
                .with_nt(3)
                .with_block(block)
                .with_threads(threads);
            exec.run(&cart, &mut fields, &HashMap::new(), &mut [], &opts);
            fields[0].buffers.iter().map(|b| b.raw().to_vec()).collect()
        })
        .pop()
        .unwrap()
    }

    /// Loads of the written field at inner-dimension offsets stay inside
    /// each worker's dim-0 slab: the JIT runs such a cluster natively on
    /// split boxes, bitwise equal to the scalar oracle.
    #[test]
    fn inner_offset_loads_of_a_written_field_run_threaded_on_the_jit() {
        if !crate::backend::available_backends().contains(&Backend::Jit) {
            return; // host cannot run native code
        }
        for deltas in [[0, 0, 1], [0, 1, 0]] {
            let (ctx, u, iet) = self_reading_operator(deltas);
            let jit = OperatorExec::with_backend(iet, &ctx, Backend::Jit).unwrap();
            let routes = jit.cluster_routes();
            assert!(
                routes.iter().all(|r| r.backend == Backend::Jit),
                "{routes:?}"
            );
            let oracle = run_self_reading(&jit.scalar_oracle(), &u, 1, 0);
            for (threads, block) in [(2, 0), (3, 0), (2, 4)] {
                let got = run_self_reading(&jit, &u, threads, block);
                let mut same = oracle.iter().flatten().zip(got.iter().flatten());
                assert!(
                    same.all(|(a, b)| a.to_bits() == b.to_bits()),
                    "deltas={deltas:?} threads={threads} block={block}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "threads = 2: cluster 0 loads the field it writes, u, at \
                               offset [1, 0, 0], which reads rows another worker's dim-0 \
                               slab writes (a read/write race); run this operator with \
                               threads = 1")]
    fn threaded_run_of_an_outer_offset_load_of_a_written_field_panics() {
        let (ctx, u, iet) = self_reading_operator([1, 0, 0]);
        let exec = OperatorExec::with_backend(iet, &ctx, Backend::Bytecode).unwrap();
        // One thread runs it; two would race across the slab boundary.
        assert_eq!(
            run_self_reading(&exec, &u, 1, 0),
            run_self_reading(&exec.scalar_oracle(), &u, 1, 0)
        );
        run_self_reading(&exec, &u, 2, 0);
    }

    /// The native JIT backend must be bitwise identical to the bytecode
    /// interpreter on every execution shape: plain, blocked, threaded,
    /// and their compositions (odd inner extent → scalar tail active).
    #[test]
    fn jit_backend_bitwise_equal_to_bytecode() {
        if !crate::backend::available_backends().contains(&Backend::Jit) {
            return; // host cannot run native code
        }
        let mut ctx = Context::new();
        let grid = Grid::new(&[11, 9, 13], &[1.0, 1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 4, 1);
        let eq = Eq::new(u.dt(), u.laplace());
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        let mut cls = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let mut next = 0;
        for c in &mut cls {
            cse_cluster(c, &mut next);
        }
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = build_iet(cls, &plan, "K", 0, true);
        let iet = lower_halo_spots(iet, false);

        let run = |backend: Backend, threads: usize, block: usize| -> Vec<f32> {
            let exec = OperatorExec::with_backend(iet.clone(), &ctx, backend).unwrap();
            Universe::run(1, |comm| {
                let cart = mpix_comm::CartComm::new(comm, &[1, 1, 1]);
                let dc = Arc::new(Decomposition::new(&[11, 9, 13], &[1, 1, 1]));
                let mut fields = vec![FieldState::new(u.id(), 2, dc, &[0, 0, 0], 4)];
                for i in 0..11 {
                    for j in 0..9 {
                        for k in 0..13 {
                            fields[0].buffers[0].set_global(
                                &[i, j, k],
                                ((i * 117 + j * 13 + k) % 29) as f32 * 0.125 - 1.0,
                            );
                        }
                    }
                }
                let mut scalars = HashMap::new();
                scalars.insert("dt".to_string(), 0.01f32);
                scalars.insert("h_x".to_string(), 0.1);
                scalars.insert("h_y".to_string(), 0.1);
                scalars.insert("h_z".to_string(), 0.1);
                exec.run(
                    &cart,
                    &mut fields,
                    &scalars,
                    &mut [],
                    &ApplyOptions::default()
                        .with_nt(3)
                        .with_block(block)
                        .with_threads(threads),
                );
                fields[0].buffers[fields[0].buffer_index(3, 0)]
                    .raw()
                    .to_vec()
            })
            .pop()
            .unwrap()
        };
        let oracle = run(Backend::Bytecode, 1, 0);
        for (threads, block) in [(1usize, 0usize), (1, 4), (3, 0), (2, 4)] {
            let jit = run(Backend::Jit, threads, block);
            for (k, (a, b)) in oracle.iter().zip(&jit).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "threads={threads} block={block} idx={k}: {a} vs {b}"
                );
            }
        }
    }
}
