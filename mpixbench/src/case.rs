//! One solver run — a compiled propagator, its run options, a Ricker
//! point source and optional receivers — executed either through
//! `Operator::run` (what a caller does) or rebuilt out of the same public
//! parts `Operator::run_with_exec` uses, with a timer around each layer
//! call (the traced run).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mpix::codegen::OperatorExec;
use mpix::comm::{dims_create, CartComm, Universe};
use mpix::core::{ApplyOptions, TraceLevel, Workspace};
use mpix::dmp::SparsePoints;
use mpix::solvers::{ricker_wavelet, KernelKind, Propagator};
use mpix::trace::Section;

/// Ricker peak frequency of every source.
const F0: f64 = 25.0;

/// Per-layer readings of one traced operation, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A traced operation's layer readings plus the two totals the
/// attribution report needs.
pub struct Traced {
    pub layers: Layers,
    /// Seconds covered by timed layer calls.
    pub attributed: f64,
    /// Wall seconds of the whole operation.
    pub wall: f64,
}

/// What one run produces: the gathered main wavefield and the receiver
/// traces (`t`-major, empty without receivers).
#[derive(Clone)]
pub struct Output {
    pub field: Vec<f32>,
    pub traces: Vec<f32>,
}

pub struct Case {
    pub prop: Arc<Propagator>,
    pub opts: ApplyOptions,
    /// Physical source coordinates.
    pub source: Vec<f64>,
    /// Physical receiver coordinates (may be empty).
    pub receivers: Vec<Vec<f64>>,
}

impl Case {
    /// Seed model parameters, then register the source and receivers.
    pub fn init(&self, ws: &mut Workspace) {
        let p = &self.prop;
        p.init(ws);
        let signal = ricker_wavelet(F0, p.dt, self.opts.nt as usize);
        let spacing = vec![p.spec.spacing; p.spec.shape.len()];
        // Same scaling as `Propagator::add_ricker_source`: dt²/m for the
        // second-order kernels, dt for the first-order systems.
        let scale = match p.kind {
            KernelKind::Acoustic | KernelKind::Tti => (p.dt * p.dt / p.spec.m()) as f32,
            _ => p.dt as f32,
        };
        for f in p.source_fields() {
            let pts = SparsePoints::new(vec![self.source.clone()], spacing.clone());
            ws.add_injection(f, pts, signal.clone(), vec![scale]);
        }
        if !self.receivers.is_empty() {
            let pts = SparsePoints::new(self.receivers.clone(), spacing);
            ws.add_receivers(p.main_field(), pts);
        }
    }

    /// Gather the main field (kept on rank 0 only) and this rank's
    /// receiver samples.
    fn extract(&self, ws: &mut Workspace) -> (Vec<f32>, Vec<Vec<f32>>) {
        let field = ws.gather(self.prop.main_field());
        let field = if ws.cart.comm().rank() == 0 {
            field
        } else {
            Vec::new()
        };
        let samples = if self.receivers.is_empty() {
            Vec::new()
        } else {
            let handle = ws.sparse.len() - 1;
            ws.take_samples(handle)
        };
        (field, samples)
    }

    /// One untraced run through `Operator::run`.
    pub fn run(&self) -> Output {
        let applied = self
            .prop
            .op
            .run(&self.opts, |ws| self.init(ws), |ws| self.extract(ws));
        merge(applied.results)
    }

    /// The same run rebuilt from its public parts (`Universe::run` →
    /// `CartComm::new` → `Workspace::new` → init → `Operator::apply` →
    /// gather) at `TraceLevel::Summary`, timing each call. `spawn_s` is
    /// the separately probed cost of an empty-body universe.
    pub fn run_traced(&self, exec: &OperatorExec, spawn_s: f64) -> (Output, Traced) {
        let opts = self.opts.clone().with_trace(TraceLevel::Summary);
        let op = &self.prop.op;
        let dims = self.dims();
        let nt = opts.nt as f64;
        let start = Instant::now();
        let per_rank = Universe::run(opts.ranks, |comm| {
            let body = Instant::now();
            let cart = CartComm::new(comm, &dims);
            let t = Instant::now();
            let mut ws = Workspace::new(op.ctx(), op.grid(), cart);
            let ws_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            self.init(&mut ws);
            let init_s = t.elapsed().as_secs_f64();
            let before = ws.cart.comm().stats();
            let t = Instant::now();
            let stats = op.apply(&mut ws, exec, &opts);
            let apply_s = t.elapsed().as_secs_f64();
            let after = ws.cart.comm().stats();
            ws.final_t = opts.t0 + opts.nt;
            let t = Instant::now();
            let out = self.extract(&mut ws);
            let gather_s = t.elapsed().as_secs_f64();
            let trace = stats.trace.expect("summary-level runs carry a trace");
            let sec = |s: Section| trace.section_secs(s);
            // `halo.pack` spans nest inside `halo.send`: report the send
            // section's self time so the sections partition `apply`.
            let sections = [
                (
                    "codegen.compute_s",
                    sec(Section::Compute) + sec(Section::Remainder),
                ),
                ("dmp.halo_pack_s", sec(Section::HaloPack)),
                (
                    "comm.halo_send_s",
                    sec(Section::HaloSend) - sec(Section::HaloPack),
                ),
                ("comm.halo_wait_s", sec(Section::HaloWait)),
                ("dmp.halo_unpack_s", sec(Section::HaloUnpack)),
                ("dmp.source_s", sec(Section::Source)),
                ("dmp.receiver_s", sec(Section::Receiver)),
            ];
            let mut l = Layers::new();
            let in_sections: f64 = sections.iter().map(|(_, s)| s).sum();
            l.extend(sections);
            l.insert("codegen.launch_s", (apply_s - in_sections).max(0.0));
            l.insert("apply_s", apply_s);
            l.insert("core.workspace_s", ws_s);
            l.insert("solvers.init_s", init_s);
            l.insert("core.gather_s", gather_s);
            l.insert(
                "comm.msgs",
                (after.msgs_sent - before.msgs_sent) as f64 / nt,
            );
            l.insert(
                "comm.bytes",
                (after.bytes_sent - before.bytes_sent) as f64 / nt,
            );
            l.insert(
                "comm.bytes_copied",
                (after.bytes_copied - before.bytes_copied) as f64 / nt,
            );
            let timed = ws_s + init_s + apply_s + gather_s;
            (out, l, timed, body.elapsed().as_secs_f64())
        });
        let t = Instant::now();
        // The critical rank (longest body) sets the wall time; message
        // counts are per rank, averaged over ranks.
        let crit = (0..per_rank.len())
            .max_by(|&a, &b| per_rank[a].3.total_cmp(&per_rank[b].3))
            .expect("at least one rank");
        let mut layers = per_rank[crit].1.clone();
        let timed = per_rank[crit].2;
        for key in ["comm.msgs", "comm.bytes", "comm.bytes_copied"] {
            let sum: f64 = per_rank.iter().map(|r| r.1[key]).sum();
            layers.insert(key, sum / per_rank.len() as f64);
        }
        let output = merge(per_rank.into_iter().map(|(o, ..)| o).collect());
        let merge_s = t.elapsed().as_secs_f64();
        let wall = start.elapsed().as_secs_f64();
        *layers.get_mut("core.gather_s").expect("set above") += merge_s;
        layers.insert("comm.spawn_s", spawn_s);
        let attributed = spawn_s + timed + merge_s;
        (
            output,
            Traced {
                layers,
                attributed,
                wall,
            },
        )
    }

    /// Comm-layer buffer allocations of a second `apply` on a workspace
    /// that already ran once: the steady-state pool-miss count.
    pub fn steady_state_bufs(&self, exec: &OperatorExec) -> f64 {
        let op = &self.prop.op;
        let dims = self.dims();
        let warm = self.opts.clone();
        let again = warm.clone().with_t0(warm.t0 + warm.nt);
        let per_rank = Universe::run(warm.ranks, |comm| {
            let cart = CartComm::new(comm, &dims);
            let mut ws = Workspace::new(op.ctx(), op.grid(), cart);
            self.init(&mut ws);
            op.apply(&mut ws, exec, &warm);
            let before = ws.cart.comm().stats().bufs_allocated;
            op.apply(&mut ws, exec, &again);
            ws.cart.comm().stats().bufs_allocated - before
        });
        per_rank.iter().sum::<u64>() as f64
    }

    /// The balanced rank topology `Operator::run` picks.
    pub fn dims(&self) -> Vec<usize> {
        dims_create(self.opts.ranks, self.prop.spec.shape.len())
    }

    /// Grid-point updates per run, as the paper's GPts/s counts them.
    pub fn points(&self) -> f64 {
        self.prop.points_per_step() as f64 * self.opts.nt as f64
    }

    /// Padded-domain grid points × steps: what per-point counts multiply.
    pub fn point_steps(&self) -> f64 {
        self.padded_points() * self.opts.nt as f64
    }

    /// Flops executed per run (bytecode flops per grid point × padded
    /// points × steps).
    pub fn flops(&self) -> f64 {
        self.prop.op.bytecode_flops() as f64 * self.point_steps()
    }

    /// Streaming bytes per step from the compile-time traffic model
    /// (computed, not measured).
    pub fn bytes_per_step(&self) -> f64 {
        self.prop.op.op_counts().bytes() as f64 * self.padded_points()
    }

    fn padded_points(&self) -> f64 {
        self.prop
            .spec
            .padded_shape()
            .iter()
            .map(|&s| s as f64)
            .product()
    }
}

/// Median wall seconds of a few empty-body universes (`Universe::run`
/// plus `CartComm::new`) at `ranks` ranks.
pub fn spawn_probe(ranks: usize, dims: &[usize]) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            Universe::run(ranks, |comm| {
                let _ = CartComm::new(comm, dims);
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// Combine per-rank extracts: rank 0's field and, for each (step,
/// receiver), the one rank that recorded it.
fn merge(per_rank: Vec<(Vec<f32>, Vec<Vec<f32>>)>) -> Output {
    let mut traces: Vec<f32> = Vec::new();
    let mut field = Vec::new();
    for (f, samples) in per_rank {
        if !f.is_empty() {
            field = f;
        }
        let flat: Vec<f32> = samples.into_iter().flatten().collect();
        if traces.is_empty() {
            traces = flat;
        } else {
            for (m, v) in traces.iter_mut().zip(flat) {
                if m.is_nan() {
                    *m = v;
                }
            }
        }
    }
    Output { field, traces }
}

/// The tolerance `tests/equivalence_all_kernels.rs` holds a distributed
/// run to against the serial one.
pub fn check_close(got: &Output, reference: &Output) -> Result<(), String> {
    for (what, a, b) in [
        ("field", &got.field, &reference.field),
        ("receivers", &got.traces, &reference.traces),
    ] {
        if a.len() != b.len() {
            return Err(format!(
                "{what}: {} values, reference has {}",
                a.len(),
                b.len()
            ));
        }
        if let Some(k) = (0..a.len()).find(|&k| {
            let (x, y) = (a[k], b[k]);
            !x.is_finite() || (x - y).abs() > 2e-5 * y.abs().max(1.0)
        }) {
            return Err(format!("{what}[{k}]: {} vs reference {}", a[k], b[k]));
        }
    }
    Ok(())
}

/// Repeated runs of one configuration must agree bit for bit.
pub fn check_bitwise(got: &Output, first: &Output) -> Result<(), String> {
    let same = |a: &[f32], b: &[f32]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    if same(&got.field, &first.field) && same(&got.traces, &first.traces) {
        Ok(())
    } else {
        Err("output differs bitwise from the first run of the same configuration".into())
    }
}

/// Fraction of values that are subnormal floats.
pub fn subnormal_frac(field: &[f32]) -> f64 {
    field.iter().filter(|v| v.is_subnormal()).count() as f64 / field.len().max(1) as f64
}
