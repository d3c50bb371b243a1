//! The three workloads whose operations run one after another:
//! `shot-acoustic`, `strong-elastic` and `compile-cold`.

use std::sync::Arc;
use std::time::Instant;

use mpix::codegen::{jit_modules_built, OperatorExec};
use mpix::comm::dims_create;
use mpix::core::{AnalysisConfig, Backend};
use mpix::dmp::HaloMode;
use mpix::solvers::{KernelKind, ModelSpec, Propagator};

use crate::case::{check_bitwise, check_close, spawn_probe, subnormal_frac, Case, Layers, Output};
use crate::stats::{median, peak_rss_mb, quantile, Rng};
use crate::{panic_message, Args, Report, SETUP_REPEATS};

/// `shot-acoustic` regime guard: the share of wavefield energy inside the
/// absorbing layer must reach this, i.e. the wavefront reached the ABC.
const MIN_LAYER_ENERGY: f64 = 1e-4;

/// Everything needed to build one case.
#[derive(Clone)]
pub struct Spec {
    pub kind: KernelKind,
    pub model: ModelSpec,
    pub so: u32,
    pub nt: i64,
    pub ranks: usize,
    pub mode: HaloMode,
    pub backend: Backend,
    pub vw: usize,
    pub verify: bool,
    /// Source position, in grid cells of the padded domain.
    pub source: Vec<f64>,
    /// Receiver positions, in grid cells.
    pub receivers: Vec<Vec<f64>>,
}

impl Spec {
    pub fn new(kind: KernelKind, model: ModelSpec, so: u32, nt: i64, source: Vec<f64>) -> Spec {
        Spec {
            kind,
            model,
            so,
            nt,
            ranks: 1,
            mode: HaloMode::Basic,
            backend: Backend::Jit,
            vw: 0,
            verify: false,
            source,
            receivers: Vec::new(),
        }
    }

    /// Compile the propagator (`solvers::<kernel>::operator` →
    /// `Operator::build`).
    pub fn build(&self) -> Arc<Propagator> {
        Arc::new(Propagator::build(self.kind, self.model.clone(), self.so))
    }

    /// This spec's run on an already built propagator.
    pub fn case(&self, prop: Arc<Propagator>) -> Case {
        let h = self.model.spacing;
        let opts = prop
            .apply_options(self.nt)
            .with_mode(self.mode)
            .with_ranks(self.ranks)
            .with_backend(self.backend)
            .with_vector_width(self.vw)
            .with_verify(self.verify);
        Case {
            opts,
            source: self.source.iter().map(|c| c * h).collect(),
            receivers: self
                .receivers
                .iter()
                .map(|r| r.iter().map(|c| c * h).collect())
                .collect(),
            prop,
        }
    }

    /// The rank topology of this spec's runs.
    pub fn dims(&self) -> Vec<usize> {
        dims_create(self.ranks, self.model.shape.len())
    }

    /// The verification gate configuration of this spec's run.
    pub fn verify_config(&self) -> AnalysisConfig {
        AnalysisConfig::for_run(self.mode, self.ranks, 1, self.vw, self.backend)
    }
}

/// A source position near `centre` (cells), jittered by the seed.
pub fn jittered(rng: &mut Rng, centre: &[f64], jitter: f64) -> Vec<f64> {
    centre
        .iter()
        .map(|c| c + jitter * (2.0 * rng.uniform() - 1.0))
        .collect()
}

/// The cases of a sequential workload and whether each operation
/// rebuilds them (`compile-cold`) or reuses set-up builds.
fn specs(args: &Args) -> (Vec<Spec>, bool) {
    let mut rng = Rng::new(args.seed);
    match args.workload.as_str() {
        "shot-acoustic" => {
            // A surface shot: source a few cells below the top absorbing
            // layer, 100 receivers on a line along the split dimension.
            let (n, nt, nrec) = if args.tiny {
                (16, 64, 10)
            } else {
                (64, 64, 100)
            };
            let nbl = 4;
            let model = ModelSpec::new(&[n, n, n]).with_nbl(nbl);
            let c = (n + 2 * nbl - 1) as f64 / 2.0;
            // Sub-cell jitter: the seed moves the shot without changing
            // how much of the field turns subnormal.
            let depth = nbl as f64 + 5.0 + rng.uniform() - 0.5;
            let xy = jittered(&mut rng, &[c, c], 0.5);
            let source = vec![xy[0], xy[1], depth];
            let rec_depth = nbl as f64 + 2.0 + rng.uniform();
            let receivers = (0..nrec)
                .map(|i| {
                    let x = nbl as f64 + 0.5 + i as f64 * (n - 2) as f64 / (nrec - 1) as f64;
                    vec![x, xy[1], rec_depth]
                })
                .collect();
            let mut s = Spec::new(KernelKind::Acoustic, model, 8, nt, source);
            s.ranks = 2;
            s.receivers = receivers;
            (vec![s], false)
        }
        "strong-elastic" => {
            let (n, nt) = if args.tiny { (8, 8) } else { (16, 128) };
            let model = ModelSpec::new(&[n, n, n]).with_nbl(4);
            let c = (n + 8 - 1) as f64 / 2.0;
            let source = jittered(&mut rng, &[c, c, c], 0.5);
            let mut s = Spec::new(KernelKind::Elastic, model, 12, nt, source);
            s.ranks = 2;
            s.mode = HaloMode::Diagonal;
            (vec![s], false)
        }
        "compile-cold" => {
            let (n, orders): (usize, &[u32]) = if args.tiny {
                (8, &[4])
            } else {
                (16, &[4, 8, 16])
            };
            let model = ModelSpec::new(&[n, n, n]).with_nbl(2);
            let c = (n + 4 - 1) as f64 / 2.0;
            let source = jittered(&mut rng, &[c, c, c], 0.5);
            let mut out = Vec::new();
            for kind in KernelKind::all() {
                for &so in orders {
                    let mut s = Spec::new(kind, model.clone(), so, 2, source.clone());
                    s.verify = true;
                    out.push(s);
                }
            }
            (out, true)
        }
        other => unreachable!("not a sequential workload: {other}"),
    }
}

/// Set-up state: prebuilt cases (empty for `compile-cold`), the 1-rank
/// references, the first run of each case (the bitwise baseline), and the
/// grid-point updates of one operation.
struct State {
    cases: Vec<Case>,
    reference: Vec<Output>,
    first: Vec<Output>,
    points: f64,
    regime: Option<Result<String, String>>,
}

impl State {
    fn new() -> State {
        State {
            cases: Vec::new(),
            reference: Vec::new(),
            first: Vec::new(),
            points: 0.0,
            regime: None,
        }
    }
}

/// Build every case, compute its 1-rank reference, and make its first
/// run with the verify gate on (so the gate proves the configuration
/// being measured). `compile-cold` keeps no builds: its reference is one
/// full sweep, which later sweeps must repeat bit for bit.
fn setup(specs: &[Spec], cold: bool, shot: bool) -> Result<State, String> {
    let mut st = State::new();
    for s in specs {
        let prop = s.build();
        let case = s.case(Arc::clone(&prop));
        st.points += case.points();
        if cold {
            let out = case.run();
            st.reference.push(out.clone());
            st.first.push(out);
            continue;
        }
        let mut serial = s.clone();
        serial.ranks = 1;
        let reference = serial.case(Arc::clone(&prop)).run();
        let mut gated = s.clone();
        gated.verify = true;
        let first = gated.case(prop).run();
        check_close(&first, &reference)?;
        if shot {
            st.regime = Some(regime_guard(&case, &first));
        }
        st.cases.push(case);
        st.reference.push(reference);
        st.first.push(first);
    }
    Ok(st)
}

/// The wavefield-regime guard: the wavefront must have reached the
/// absorbing layer (nonzero energy there), so a change that silences the
/// field fails instead of reading as a speed-up.
fn regime_guard(case: &Case, out: &Output) -> Result<String, String> {
    let spec = &case.prop.spec;
    let shape = spec.padded_shape();
    let (mut total, mut layer) = (0.0f64, 0.0f64);
    for (k, &v) in out.field.iter().enumerate() {
        let e = (v as f64) * (v as f64);
        let idx = [
            k / (shape[1] * shape[2]),
            (k / shape[2]) % shape[1],
            k % shape[2],
        ];
        total += e;
        if spec.damping_at(&idx) > 0.0 {
            layer += e;
        }
    }
    let frac = if total > 0.0 { layer / total } else { 0.0 };
    let line = format!(
        "regime: subnormal_frac={:.4} absorbing_layer_energy_frac={frac:.3e} (min {MIN_LAYER_ENERGY:.0e})",
        subnormal_frac(&out.field)
    );
    if frac >= MIN_LAYER_ENERGY {
        Ok(line)
    } else {
        Err(format!(
            "wavefront never reached the absorbing layer; {line}"
        ))
    }
}

fn regime_note(report: &mut Report, st: &State) {
    match &st.regime {
        Some(Ok(line)) => report.notes.push(line.clone()),
        Some(Err(e)) => {
            report.correct = false;
            report.notes.push(format!("FAILED: {e}"));
        }
        None => {}
    }
}

/// Check one run's output against the reference and the first run.
fn check(st: &State, i: usize, out: &Output) -> Result<(), String> {
    check_close(out, &st.reference[i])?;
    check_bitwise(out, &st.first[i])
}

/// One untraced, checked operation.
fn op(specs: &[Spec], st: &State, cold: bool) -> Result<(), String> {
    for (i, s) in specs.iter().enumerate() {
        let out = if cold {
            s.case(s.build()).run()
        } else {
            st.cases[i].run()
        };
        check(st, i, &out)?;
    }
    Ok(())
}

/// Run `f`, counting a panic or an error as a failed operation.
pub fn attempt<T>(report: &mut Report, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
    report.attempted += 1;
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Some(v),
        Ok(Err(e)) => {
            report.fail(e);
            None
        }
        Err(p) => {
            report.fail(format!("panic: {}", panic_message(&*p)));
            None
        }
    }
}

/// Repeat the set-up, timing each; the first is timed from process
/// start. Returns the last state and the set-up times.
pub fn repeated_setup<S>(
    t_start: Instant,
    mut make: impl FnMut() -> Result<S, String>,
) -> (Result<S, String>, Vec<f64>) {
    let mut times = Vec::new();
    let mut state = Err("no set-up ran".to_string());
    for k in 0..SETUP_REPEATS {
        // Tear the previous state down before the clock starts.
        drop(std::mem::replace(&mut state, Err(String::new())));
        let t = if k == 0 { t_start } else { Instant::now() };
        state = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut make))
            .unwrap_or_else(|p| Err(format!("set-up panicked: {}", panic_message(&*p))));
        times.push(t.elapsed().as_secs_f64());
        if state.is_err() {
            break;
        }
    }
    (state, times)
}

/// Time operations until `seconds` have passed; returns per-operation
/// wall seconds (successful operations only) and the window length.
pub fn timed_loop(
    seconds: f64,
    report: &mut Report,
    mut f: impl FnMut() -> Result<(), String>,
) -> (Vec<f64>, f64) {
    let window = Instant::now();
    let mut samples = Vec::new();
    while window.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        if attempt(report, &mut f).is_some() {
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    (samples, window.elapsed().as_secs_f64())
}

/// Fill the end-to-end metrics from set-up and operation timings;
/// `points` is the grid-point updates of one operation.
///
/// With one operation outstanding, `ops_per_s` and `gpts` are rates at the
/// median operation time: a count over the window would follow the mean,
/// which a few operations slowed by other work on the host move far more.
pub fn end_to_end(report: &mut Report, setup: &[f64], ops: &[f64], window: f64, points: f64) {
    let p50 = median(ops);
    let rate = |work: f64| if p50 > 0.0 { work / p50 } else { 0.0 };
    report.set("setup_s", median(setup));
    report.set("op_s_p50", p50);
    report.set("op_s_p90", quantile(ops, 0.9));
    report.set("ops_per_s", rate(1.0));
    report.set("gpts", rate(points) / 1e9);
    report.set("peak_rss_mb", peak_rss_mb());
    let first: Vec<String> = ops.iter().take(12).map(|s| format!("{s:.4}")).collect();
    report.notes.push(format!(
        "set-up seconds: {setup:.4?}; operations timed: {} in {window:.2} s \
         (fastest {:.4}, p50 {p50:.4}), first: [{}]",
        ops.len(),
        quantile(ops, 0.0),
        first.join(", ")
    ));
}

pub fn run(args: &Args, t_start: Instant) -> Report {
    let (specs, cold) = specs(args);
    let shot = args.workload == "shot-acoustic";
    let mut report = Report::default();
    let (state, setup_times) = repeated_setup(t_start, || setup(&specs, cold, shot));
    let st = match state {
        Ok(st) => st,
        Err(e) => {
            report.attempted = 1;
            report.fail(e);
            return report;
        }
    };
    regime_note(&mut report, &st);
    let (ops, window) = timed_loop(args.seconds, &mut report, || op(&specs, &st, cold));
    end_to_end(&mut report, &setup_times, &ops, window, st.points);
    report
}

/// Add `other`'s readings into `acc`, key by key.
pub fn accumulate(acc: &mut Layers, other: &Layers) {
    for (k, v) in other {
        *acc.entry(k).or_insert(0.0) += v;
    }
}

/// Per-key medians over a list of per-operation readings.
pub fn medians(samples: &[Layers]) -> Layers {
    per_key(samples, median)
}

/// Per-key means over a list of per-operation readings.
pub fn means(samples: &[Layers]) -> Layers {
    per_key(samples, |v| v.iter().sum::<f64>() / v.len().max(1) as f64)
}

fn per_key(samples: &[Layers], reduce: impl Fn(&[f64]) -> f64) -> Layers {
    let mut keys: Vec<&'static str> = samples.iter().flat_map(|l| l.keys().copied()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let v: Vec<f64> = samples
                .iter()
                .map(|l| l.get(k).copied().unwrap_or(0.0))
                .collect();
            (k, reduce(&v))
        })
        .collect()
}

/// One case taken through every compiler-side layer on its own timer:
/// build, verify, compile, then a first traced run and a warm rerun on
/// the same executable. The warm rerun (which yields
/// `codegen.first_run_extra_s`) is not part of `wall`.
struct ColdCase {
    case: Case,
    exec: Arc<OperatorExec>,
    output: Output,
    layers: Layers,
    attributed: f64,
    wall: f64,
}

fn cold_case(spec: &Spec, spawn_s: f64) -> Result<ColdCase, String> {
    let mut l = Layers::new();
    let t = Instant::now();
    let prop = spec.build();
    l.insert("core.build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let report = prop.op.verify(&spec.verify_config());
    if report.has_errors() {
        return Err(format!("verification failed:\n{report}"));
    }
    l.insert("analysis.verify_s", t.elapsed().as_secs_f64());
    let mut case = spec.case(prop);
    case.opts.verify = false; // verified just above, on its own timer
    let t = Instant::now();
    let exec = Arc::new(case.prop.op.compile_executable_for(&case.opts));
    l.insert("codegen.compile_s", t.elapsed().as_secs_f64());
    let compiler: f64 = l.values().sum();
    let jit0 = jit_modules_built();
    let (output, first) = case.run_traced(&exec, spawn_s);
    l.insert("codegen.jit_modules", (jit_modules_built() - jit0) as f64);
    let (_, warm) = case.run_traced(&exec, spawn_s);
    l.insert(
        "codegen.first_run_extra_s",
        first.layers["apply_s"] - warm.layers["apply_s"],
    );
    accumulate(&mut l, &first.layers);
    Ok(ColdCase {
        case,
        exec,
        output,
        layers: l,
        attributed: compiler + first.attributed,
        wall: compiler + first.wall,
    })
}

/// The set-up layers: totals over one set-up (per operation for
/// `compile-cold`, whose operation is the compiler).
const SETUP_LAYERS: [&str; 5] = [
    "core.build_s",
    "analysis.verify_s",
    "codegen.compile_s",
    "codegen.first_run_extra_s",
    "codegen.jit_modules",
];

pub fn run_traced(args: &Args) -> Report {
    let (specs, cold) = specs(args);
    let shot = args.workload == "shot-acoustic";
    let mut report = Report::default();
    let spawn_s = spawn_probe(specs[0].ranks, &specs[0].dims());

    // Traced set-up: the compiler-side layers on their own timers.
    let mut setup_layers = Layers::new();
    let mut st = State::new();
    let mut execs = Vec::new();
    let setup_ok = attempt(&mut report, || {
        if cold {
            st = setup(&specs, true, false)?;
            return Ok(());
        }
        for s in &specs {
            let cc = cold_case(s, spawn_s)?;
            let mut serial = s.clone();
            serial.ranks = 1;
            let reference = serial.case(Arc::clone(&cc.case.prop)).run();
            check_close(&cc.output, &reference)?;
            for k in SETUP_LAYERS {
                *setup_layers.entry(k).or_insert(0.0) += cc.layers[k];
            }
            if shot {
                st.regime = Some(regime_guard(&cc.case, &cc.output));
            }
            st.points += cc.case.points();
            st.first.push(cc.output);
            st.reference.push(reference);
            st.cases.push(cc.case);
            execs.push(cc.exec);
        }
        Ok(())
    });
    if setup_ok.is_none() {
        return report;
    }
    regime_note(&mut report, &st);

    // Untraced and traced operations alternate, so host drift hits both
    // alike; the ratio of their medians is the tracing overhead.
    let mut untraced = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let (mut attributed, mut wall) = (0.0, 0.0);
    let mut walls = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        if attempt(&mut report, || op(&specs, &st, cold)).is_some() {
            untraced.push(t.elapsed().as_secs_f64());
        }
        let r = attempt(&mut report, || {
            let mut layers = Layers::new();
            let (mut a, mut w) = (0.0, 0.0);
            let mut built = Vec::new();
            for (i, s) in specs.iter().enumerate() {
                let (l, out) = if cold {
                    let cc = cold_case(s, spawn_s)?;
                    a += cc.attributed;
                    w += cc.wall;
                    built.push((cc.case, cc.exec));
                    (cc.layers, cc.output)
                } else {
                    let (out, tr) = st.cases[i].run_traced(&execs[i], spawn_s);
                    a += tr.attributed;
                    w += tr.wall;
                    (tr.layers, out)
                };
                check(&st, i, &out)?;
                accumulate(&mut layers, &l);
            }
            Ok((layers, a, w, built))
        });
        if let Some((l, a, w, built)) = r {
            traced.push(l);
            attributed += a;
            wall += w;
            walls.push(w);
            if cold {
                (st.cases, execs) = built.into_iter().unzip();
            }
        }
    }
    if st.cases.is_empty() {
        return report;
    }

    let mut layers = medians(&traced);
    layers.extend(setup_layers);
    layers.remove("apply_s");
    // Kernel counts from the compiler's own numbers, weighted by the
    // point updates of each case of one operation.
    let cases = &st.cases;
    let flops: f64 = cases.iter().map(Case::flops).sum();
    let weighted =
        |f: &dyn Fn(&Case) -> f64| cases.iter().map(|c| f(c) * c.point_steps()).sum::<f64>();
    layers.insert("codegen.flops_per_pt", flops / weighted(&|_| 1.0));
    layers.insert(
        "codegen.oi",
        weighted(&|c| c.prop.op.op_counts().flops() as f64)
            / weighted(&|c| c.prop.op.op_counts().bytes() as f64),
    );
    let compute = layers.get("codegen.compute_s").copied().unwrap_or(0.0);
    layers.insert(
        "codegen.gflops",
        if compute > 0.0 {
            flops / compute / 1e9
        } else {
            0.0
        },
    );
    layers.insert(
        "codegen.bytes_per_step",
        cases.iter().map(Case::bytes_per_step).sum(),
    );
    let subnormal: Vec<f64> = st.first.iter().map(|o| subnormal_frac(&o.field)).collect();
    layers.insert("codegen.subnormal_frac", median(&subnormal));
    layers.insert("comm.bufs_allocated", cases[0].steady_state_bufs(&execs[0]));
    let p50_untraced = median(&untraced);
    layers.insert(
        "unattributed_frac",
        if wall > 0.0 {
            1.0 - attributed / wall
        } else {
            0.0
        },
    );
    layers.insert(
        "trace.overhead_frac",
        if p50_untraced > 0.0 {
            median(&walls) / p50_untraced - 1.0
        } else {
            0.0
        },
    );
    report.notes.push(format!(
        "traced operations: {}; untraced operations: {}",
        traced.len(),
        untraced.len()
    ));
    for (k, v) in layers {
        report.set(k, v);
    }
    report
}
