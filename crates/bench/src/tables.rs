//! Experiment drivers and table formatting for the `tables` binary.

use mpix_perf::machine::{archer2_node, tursa_a100};
use mpix_perf::roofline::roofline_point;
use mpix_perf::scaling::{
    efficiency, mode_crossover, strong_scaling, weak_scaling, Mode, ScalePoint,
};
use mpix_solvers::KernelKind;

use crate::paper::{self, UNITS};
use crate::profiles::{cpu_domain, gpu_domain, profile_for, timesteps};

/// Modeled CPU strong-scaling rows `[basic, diag, full]` in GPts/s.
pub fn model_cpu_rows(kind: KernelKind, sdo: u32) -> [[f64; 8]; 3] {
    let prof = profile_for(kind, sdo);
    let m = archer2_node();
    let global = cpu_domain(kind);
    let mut out = [[0.0; 8]; 3];
    for (mi, mode) in Mode::all().iter().enumerate() {
        for (ui, &u) in UNITS.iter().enumerate() {
            out[mi][ui] = strong_scaling(&prof, &m, *mode, u, &global).gpts;
        }
    }
    out
}

/// Modeled GPU strong-scaling row (basic mode) in GPts/s.
pub fn model_gpu_row(kind: KernelKind, sdo: u32) -> [f64; 8] {
    let prof = profile_for(kind, sdo);
    let m = tursa_a100();
    let global = gpu_domain(kind);
    let mut out = [0.0; 8];
    for (ui, &u) in UNITS.iter().enumerate() {
        out[ui] = strong_scaling(&prof, &m, Mode::Basic, u, &global).gpts;
    }
    out
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x >= 100.0 => format!("{x:7.1}"),
        Some(x) => format!("{x:7.2}"),
        None => format!("{:>7}", "-"),
    }
}

/// Print one CPU table (paper Tables III–XVIII) with paper references.
pub fn print_cpu_table(kind: KernelKind, sdo: u32) {
    let ours = model_cpu_rows(kind, sdo);
    let reference = paper::cpu_table(kind, sdo);
    println!(
        "\n## CPU strong scaling — {} so-{sdo} ({}³ dom., GPts/s; Tables III-XVIII / Figs 8-11,13-16)",
        kind.name(),
        cpu_domain(kind)[0]
    );
    print!("{:<14}", "nodes");
    for u in UNITS {
        print!("{u:>8}");
    }
    println!();
    for (mi, mode) in Mode::all().iter().enumerate() {
        print!("{:<14}", format!("{} (model)", mode.label()));
        for v in ours[mi] {
            print!(" {}", fmt_opt(Some(v)));
        }
        println!();
        if let Some(rt) = reference {
            print!("{:<14}", format!("{} (paper)", mode.label()));
            for v in rt.rows[mi] {
                print!(" {}", fmt_opt(v));
            }
            println!();
        }
    }
    // Efficiency line (as the paper's "ideal" annotations).
    let prof = profile_for(kind, sdo);
    let m = archer2_node();
    let pts: Vec<ScalePoint> = UNITS
        .iter()
        .map(|&u| strong_scaling(&prof, &m, Mode::Basic, u, &cpu_domain(kind)))
        .collect();
    let eff = efficiency(&pts);
    println!(
        "basic efficiency at 128 nodes: {:.0}% of ideal",
        eff[7] * 100.0
    );
}

/// Print one GPU table (paper Tables XIX–XXXIV).
pub fn print_gpu_table(kind: KernelKind, sdo: u32) {
    let ours = model_gpu_row(kind, sdo);
    let reference = paper::gpu_table(kind, sdo);
    println!(
        "\n## GPU strong scaling — {} so-{sdo} ({}³ dom., GPts/s, basic; Tables XIX-XXXIV / Figs 17-20)",
        kind.name(),
        gpu_domain(kind)[0]
    );
    print!("{:<14}", "GPUs");
    for u in UNITS {
        print!("{u:>8}");
    }
    println!();
    print!("{:<14}", "Basic (model)");
    for v in ours {
        print!(" {}", fmt_opt(Some(v)));
    }
    println!();
    if let Some(rt) = reference {
        print!("{:<14}", "Basic (paper)");
        for v in rt.row {
            print!(" {}", fmt_opt(v));
        }
        println!();
    }
}

/// Print the weak-scaling runtime chart (paper Fig. 12 / 21–24).
pub fn print_weak(sdo: u32) {
    println!("\n## Weak scaling — runtime [s] at 256³/unit, so-{sdo} (Fig. 12, 21-24)");
    print!("{:<22}", "units");
    for u in UNITS {
        print!("{u:>8}");
    }
    println!();
    for kind in KernelKind::all() {
        let prof = profile_for(kind, sdo);
        let nt = timesteps(kind);
        // CPU: all three modes (the paper's Fig. 12 plots each); GPU:
        // basic only (§III h).
        for mode in Mode::all() {
            print!("{:<22}", format!("{} CPU {}", kind.name(), mode.label()));
            for &u in &UNITS {
                let (_, t) = weak_scaling(&prof, &archer2_node(), mode, u, &[256, 256, 256], nt);
                print!(" {t:7.1}");
            }
            println!();
        }
        print!("{:<22}", format!("{} GPU Basic", kind.name()));
        for &u in &UNITS {
            let (_, t) = weak_scaling(&prof, &tursa_a100(), Mode::Basic, u, &[256, 256, 256], nt);
            print!(" {t:7.1}");
        }
        println!();
    }
}

/// Print the single-unit roofline data (paper Fig. 7).
pub fn print_fig7() {
    println!(
        "\n## Single-unit roofline (Fig. 7): OI from the compiler's AST, GFlops/s from the model"
    );
    println!(
        "{:<14} {:>6} | {:>10} {:>12} {:>12} | {:>10} {:>12}",
        "kernel", "OI", "CPU GPts/s", "CPU GFlop/s", "CPU ceiling", "GPU GPts/s", "GPU GFlop/s"
    );
    for kind in KernelKind::all() {
        let prof = profile_for(kind, 8);
        let c = roofline_point(&prof, &archer2_node(), &cpu_domain(kind));
        let g = roofline_point(&prof, &tursa_a100(), &gpu_domain(kind));
        println!(
            "{:<14} {:>6.2} | {:>10.2} {:>12.1} {:>12.1} | {:>10.2} {:>12.1}",
            kind.name(),
            prof.oi(),
            c.gpts,
            c.gflops,
            c.bw_ceiling.min(c.peak_ceiling),
            g.gpts,
            g.gflops,
        );
    }
}

/// Print Table I — derived from the implementations, not hard-coded.
pub fn print_table1() {
    use mpix_dmp::HaloMode;
    println!("\n## Table I: communication/computation patterns (derived from mpix-dmp)");
    println!(
        "{:<10} {:<10} {:<24} {:<13} {:<14} {:<18}",
        "MPI mode", "Target", "Communication", "Batches", "#msgs (3D)", "Buffer allocation"
    );
    for (mode, target, comm, batch) in [
        (
            HaloMode::Basic,
            "CPU, GPU",
            "Sync, no comp overlap",
            "Multi-step",
        ),
        (
            HaloMode::Diagonal,
            "CPU",
            "Sync, no comp overlap",
            "Single-step",
        ),
        (HaloMode::Full, "CPU", "Async, comp overlap", "Single-step"),
    ] {
        println!(
            "{:<10} {:<10} {:<24} {:<13} {:<14} {:<18}",
            format!("{mode:?}"),
            target,
            comm,
            batch,
            mode.messages_per_exchange(3),
            "pre-alloc"
        );
    }
}

/// Agreement report: for every (kernel, sdo, unit count) with published
/// numbers, does the model pick the same winning mode as the paper?
pub fn trend_report() -> (usize, usize) {
    println!("\n## Trend agreement: best mode, model vs paper (CPU strong scaling)");
    let mut agree = 0;
    let mut total = 0;
    for kind in KernelKind::all() {
        for sdo in [4u32, 8, 12, 16] {
            let Some(rt) = paper::cpu_table(kind, sdo) else {
                continue;
            };
            let ours = model_cpu_rows(kind, sdo);
            for (ui, &u) in UNITS.iter().enumerate() {
                // Only compare where all three paper entries exist.
                let pvals: Vec<f64> = (0..3).filter_map(|mi| rt.rows[mi][ui]).collect();
                if pvals.len() < 3 {
                    continue;
                }
                let pbest = (0..3)
                    .max_by(|&a, &b| {
                        rt.rows[a][ui]
                            .unwrap()
                            .partial_cmp(&rt.rows[b][ui].unwrap())
                            .unwrap()
                    })
                    .unwrap();
                let obest = (0..3)
                    .max_by(|&a, &b| ours[a][ui].partial_cmp(&ours[b][ui]).unwrap())
                    .unwrap();
                total += 1;
                // Count as agreement when the paper's margin is decisive
                // (>3%) and we match, or when the margin is within noise.
                let pmax = pvals.iter().cloned().fold(f64::MIN, f64::max);
                let pmin2 = {
                    let mut v = pvals.clone();
                    v.sort_by(|a, b| b.partial_cmp(a).unwrap());
                    v[1]
                };
                let decisive = (pmax - pmin2) / pmax > 0.03;
                if obest == pbest || !decisive {
                    agree += 1;
                } else {
                    println!(
                        "  disagree: {} so-{sdo} @ {u}: paper {} vs model {}",
                        kind.name(),
                        Mode::all()[pbest].label(),
                        Mode::all()[obest].label()
                    );
                }
            }
        }
    }
    println!("best-mode agreement: {agree}/{total}");
    (agree, total)
}

/// Correlate modeled vs paper throughput (log-space) across all
/// published CPU entries; returns (mean |log2 error|, count).
pub fn accuracy_report() -> (f64, usize) {
    let mut sum = 0.0;
    let mut n = 0;
    for kind in KernelKind::all() {
        for sdo in [4u32, 8, 12, 16] {
            let Some(rt) = paper::cpu_table(kind, sdo) else {
                continue;
            };
            let ours = model_cpu_rows(kind, sdo);
            for mi in 0..3 {
                for ui in 0..8 {
                    if let Some(p) = rt.rows[mi][ui] {
                        sum += (ours[mi][ui] / p).log2().abs();
                        n += 1;
                    }
                }
            }
        }
    }
    let mean = sum / n as f64;
    println!("\nmodel-vs-paper CPU accuracy: mean |log2 ratio| = {mean:.3} over {n} entries");
    (mean, n)
}

/// Crossover analysis: where each mode permanently overtakes another,
/// per kernel and SDO — model vs the paper's published rows.
pub fn print_crossovers() {
    println!("\n## Mode crossovers (basic overtakes diagonal at N nodes; §IV-D)");
    println!(
        "{:<14} {:>5} {:>14} {:>14}",
        "kernel", "sdo", "model", "paper"
    );
    for kind in KernelKind::all() {
        for sdo in [4u32, 8, 12, 16] {
            let prof = profile_for(kind, sdo);
            let m = archer2_node();
            let model = mode_crossover(
                &prof,
                &m,
                &cpu_domain(kind),
                Mode::Basic,
                Mode::Diagonal,
                &UNITS,
            );
            // Paper crossover from the reference rows (where complete).
            let paper_x = paper::cpu_table(kind, sdo).and_then(|t| {
                let wins: Vec<Option<bool>> = (0..8)
                    .map(|ui| match (t.rows[0][ui], t.rows[1][ui]) {
                        (Some(b), Some(d)) => Some(b >= d),
                        _ => None,
                    })
                    .collect();
                if wins.iter().any(|w| w.is_none()) {
                    return None;
                }
                let wins: Vec<bool> = wins.into_iter().map(|w| w.unwrap()).collect();
                match wins.iter().rposition(|&w| !w) {
                    None => Some(Some(UNITS[0])),
                    Some(last) if last + 1 < 8 => Some(Some(UNITS[last + 1])),
                    Some(_) => Some(None),
                }
            });
            let fmt = |x: Option<usize>| match x {
                Some(u) => format!("{u}"),
                None => "never".to_string(),
            };
            let paper_s = match paper_x {
                Some(x) => fmt(x),
                None => "-".to_string(),
            };
            println!(
                "{:<14} {:>5} {:>14} {:>14}",
                kind.name(),
                sdo,
                fmt(model),
                paper_s
            );
        }
    }
}

/// Machine-readable dump of every modeled curve (for external plotting).
pub fn json_dump() -> String {
    use mpix_json::{json, Value};
    let mut cpu = Vec::new();
    let mut gpu = Vec::new();
    for kind in KernelKind::all() {
        for sdo in [4u32, 8, 12, 16] {
            let rows = model_cpu_rows(kind, sdo);
            for (mi, mode) in Mode::all().iter().enumerate() {
                cpu.push(json!({
                    "kernel": kind.name(),
                    "sdo": sdo,
                    "mode": mode.label(),
                    "units": &UNITS[..],
                    "gpts": rows[mi].to_vec(),
                    "paper": paper::cpu_table(kind, sdo).map(|t| t.rows[mi].to_vec()),
                }));
            }
            gpu.push(json!({
                "kernel": kind.name(),
                "sdo": sdo,
                "mode": "Basic",
                "units": &UNITS[..],
                "gpts": model_gpu_row(kind, sdo).to_vec(),
                "paper": paper::gpu_table(kind, sdo).map(|t| t.row.to_vec()),
            }));
        }
    }
    let mut weak = Vec::new();
    for kind in KernelKind::all() {
        let prof = profile_for(kind, 8);
        let nt = timesteps(kind);
        for (mach, label) in [(archer2_node(), "cpu"), (tursa_a100(), "gpu")] {
            let runtimes: Vec<f64> = UNITS
                .iter()
                .map(|&u| weak_scaling(&prof, &mach, Mode::Basic, u, &[256, 256, 256], nt).1)
                .collect();
            weak.push(json!({
                "kernel": kind.name(),
                "machine": label,
                "units": &UNITS[..],
                "runtime_s": runtimes,
            }));
        }
    }
    let profiles: Vec<Value> = KernelKind::all()
        .iter()
        .map(|&k| profile_for(k, 8).to_json())
        .collect();
    json!({
        "strong_cpu": cpu,
        "strong_gpu": gpu,
        "weak": weak,
        "profiles_sdo8": profiles,
    })
    .pretty()
}

/// Per-rank observability readout: run the acoustic kernel for real on
/// 4 simulated ranks under `TraceLevel::Full`, once per halo mode, and
/// print each run's [`mpix_trace::PerfSummary`] as a table plus machine-readable
/// JSON (the `trace` layer of this PR, end to end).
pub fn print_perf() {
    use mpix_core::Workspace;
    use mpix_dmp::HaloMode;
    use mpix_solvers::{ModelSpec, Propagator};
    use mpix_trace::TraceLevel;

    println!(
        "\n## Per-rank performance summaries — acoustic so-4, 32³+ABC, 4 ranks, MPIX_TRACE=full"
    );
    let spec = ModelSpec::new(&[32, 32, 32]).with_nbl(4);
    let p = Propagator::build(KernelKind::Acoustic, spec, 4);
    let nt = 16i64;
    let pref = &p;
    let init = move |ws: &mut Workspace| {
        pref.init(ws);
        pref.add_ricker_source(ws, 18.0, nt as usize);
    };
    for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
        let opts = p
            .apply_options(nt)
            .with_mode(mode)
            .with_ranks(4)
            .with_trace(TraceLevel::Full);
        let summary = p.op.run(&opts, init, |_| ()).summary;
        println!("\n{}", summary.table());
        println!("json: {}", summary.to_json());
    }
}

/// One measured record, the shape every `tables bench-*` subcommand
/// writes: named arrays of rows, one row per configuration.
///
/// A row holds its key fields, the median of its main metric over the
/// record's `reps` timed runs, that metric's interquartile range
/// (`<metric>_iqr`, nearest-rank quartiles) and any further fields.
/// Where the baseline record (an earlier `BENCH_*.json`, typically the
/// parent's, taken on the same host) holds a row of the same array with
/// equal key fields, the row gains `baseline_<metric>` and `vs_baseline`:
/// this median over the baseline's, in the metric's own direction (above
/// 1 is faster for `gpts`, slower for a time). Keys and metric names are
/// the ones earlier records used, so old records join too.
pub struct Ledger {
    arm: String,
    baseline: Option<mpix_json::Value>,
    quick: bool,
    reps: usize,
    fields: Vec<(String, mpix_json::Value)>,
    arrays: Vec<(String, Vec<mpix_json::Value>)>,
}

impl Ledger {
    /// An empty record labelled `arm` that joins the rows of `baseline`.
    /// `quick` asks for CI smoke sizes: one timed run per row and an
    /// identical schema, with numbers not meant for trend tracking.
    pub fn new(arm: &str, baseline: Option<mpix_json::Value>, quick: bool) -> Ledger {
        Ledger {
            arm: arm.to_string(),
            baseline,
            quick,
            reps: 1,
            fields: Vec::new(),
            arrays: Vec::new(),
        }
    }

    /// Whether this is a smoke-size record.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Sets and returns the timed runs per row: `full`, or 1 when quick.
    pub fn reps(&mut self, full: usize) -> usize {
        self.reps = if self.quick { 1 } else { full };
        self.reps
    }

    /// Adds a record-level field (grid, step count, ...).
    pub fn field(&mut self, name: &str, value: impl Into<mpix_json::Value>) {
        self.fields.push((name.to_string(), value.into()));
    }

    /// Stores and prints one row of `array`: `key`, `metric` as the median
    /// of `samples` with its interquartile range, then `extra`, then the
    /// baseline join.
    pub fn row(
        &mut self,
        array: &str,
        key: &[(&str, mpix_json::Value)],
        metric: &str,
        samples: &[f64],
        extra: &[(&str, mpix_json::Value)],
    ) {
        use mpix_json::Value;
        let mut xs = samples.to_vec();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        let (med, iqr) = (xs[n / 2], xs[3 * n / 4] - xs[n / 4]);
        let owned = |fields: &[(&str, Value)]| -> Vec<(String, Value)> {
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect()
        };
        let mut row = owned(key);
        row.push((metric.to_string(), Value::from(med)));
        row.push((format!("{metric}_iqr"), Value::from(iqr)));
        row.extend(owned(extra));
        let shown: Vec<String> = key
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_str().map_or(v.to_string(), str::to_string)))
            .collect();
        let mut line = format!(
            "{array:<12} {:<48} {metric} {med:.4} (iqr {iqr:.4})",
            shown.join(" ")
        );
        let base = self
            .baseline
            .as_ref()
            .and_then(|b| b.get(array)?.as_array())
            .and_then(|rows| {
                rows.iter()
                    .find(|r| key.iter().all(|(k, v)| r.get(k) == Some(v)))
            })
            .and_then(|r| r.get(metric)?.as_f64());
        if let Some(b) = base {
            row.push((format!("baseline_{metric}"), Value::from(b)));
            row.push(("vs_baseline".to_string(), Value::from(med / b)));
            line += &format!("  {:.2}x baseline", med / b);
        }
        println!("{line}");
        match self.arrays.iter_mut().find(|(name, _)| name == array) {
            Some((_, rows)) => rows.push(Value::Obj(row)),
            None => self.arrays.push((array.to_string(), vec![Value::Obj(row)])),
        }
    }

    /// The record as pretty JSON: the shared envelope (`arm`,
    /// `baseline_arm`, `quick`, `reps`, `nproc`), the record-level fields,
    /// then every row array.
    pub fn finish(self) -> String {
        use mpix_json::Value;
        let baseline_arm = self.baseline.as_ref().map_or(Value::Null, |b| {
            Value::from(b.get("arm").and_then(Value::as_str).unwrap_or("unlabelled"))
        });
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let envelope = [
            ("arm".to_string(), Value::from(self.arm)),
            ("baseline_arm".to_string(), baseline_arm),
            ("quick".to_string(), Value::from(self.quick)),
            ("reps".to_string(), Value::from(self.reps)),
            ("nproc".to_string(), Value::from(nproc)),
        ];
        let arrays = self.arrays.into_iter().map(|(k, v)| (k, Value::Arr(v)));
        Value::Obj(
            envelope
                .into_iter()
                .chain(self.fields)
                .chain(arrays)
                .collect(),
        )
        .pretty()
    }
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Measured per-backend throughput, written by `tables bench-kernels` to
/// `BENCH_kernels.json`. Every row times whole `Operator::run`s after an
/// untimed warm-up and reports GPts/s (5 timed runs; quick: 1, on a
/// 12³ + 2 grid for 2 steps instead of 32³ + 4 for 8). Three arrays:
///
/// * `kernels`: each kernel at SDO 4/8/12/16 on one rank under every
///   backend the host runs (the interpreter's strips of
///   [`LANES`](mpix_codegen::LANES), and the native JIT where
///   supported); `speedup` is over the bytecode row.
/// * `blocking`: each kernel at SDO 8 on the fastest backend with
///   `block` 0 (off) and 16; `vs_unblocked` is over the block-0 row.
/// * `trace`: acoustic SDO 4 on 4 ranks at each `TraceLevel`;
///   `vs_off` is the run's GPts/s over the `off` row's. The levels share
///   one build, so `off` is not compared with an untraced binary.
pub fn bench_kernels(ledger: &mut Ledger) {
    use mpix_core::{available_backends, ApplyOptions, Backend, Workspace};
    use mpix_json::json;
    use mpix_solvers::{ModelSpec, Propagator};
    use mpix_trace::TraceLevel;
    use std::time::Instant;

    let reps = ledger.reps(5);
    let (edge, nbl, nt) = if ledger.quick() {
        (12usize, 2usize, 2i64)
    } else {
        (32, 4, 8)
    };
    let mut backends = vec![Backend::Bytecode];
    if available_backends().contains(&Backend::Jit) {
        backends.push(Backend::Jit);
    }
    let fastest = *backends.last().unwrap();
    ledger.field("grid", vec![edge, edge, edge]);
    ledger.field("nbl", nbl);
    ledger.field("nt", nt);
    ledger.field("lanes", mpix_codegen::LANES);
    ledger.field("jit_available", fastest == Backend::Jit);

    let build = |kind: KernelKind, sdo: u32| {
        Propagator::build(kind, ModelSpec::new(&[edge, edge, edge]).with_nbl(nbl), sdo)
    };
    // GPts/s of `reps` timed runs of `opts`.
    let gpts = |p: &Propagator, opts: ApplyOptions| -> Vec<f64> {
        let init = |ws: &mut Workspace| {
            p.init(ws);
            p.add_ricker_source(ws, 18.0, nt as usize);
        };
        // Untimed warm-up amortizes first-touch and compilation.
        p.op.run(&opts, init, |_| ());
        let pts = p.points_per_step() as f64 * nt as f64;
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                p.op.run(&opts, init, |_| ());
                pts / t0.elapsed().as_secs_f64() / 1e9
            })
            .collect()
    };

    println!("\n## Backend throughput: bytecode vs jit, {edge}\u{b3}+{nbl} ABC, nt={nt}, 1 rank");
    for kind in KernelKind::all() {
        for sdo in [4u32, 8, 12, 16] {
            let p = build(kind, sdo);
            // The bytecode row comes first: the interpreter is the
            // baseline every speedup is measured against.
            let mut bytecode = None;
            for &backend in &backends {
                let opts = p.apply_options(nt).with_backend(backend).with_ranks(1);
                let samples = gpts(&p, opts);
                let speedup = median(&samples) / *bytecode.get_or_insert(median(&samples));
                let key = [
                    ("kernel", json!(kind.name())),
                    ("sdo", json!(sdo)),
                    ("backend", json!(backend.to_string())),
                ];
                ledger.row(
                    "kernels",
                    &key,
                    "gpts",
                    &samples,
                    &[("speedup", json!(speedup))],
                );
            }
        }
    }

    println!("\n## Loop blocking on {fastest}, SDO 8, 1 rank");
    for kind in KernelKind::all() {
        let p = build(kind, 8);
        let mut unblocked = None;
        for block in [0usize, 16] {
            let opts = p.apply_options(nt).with_backend(fastest).with_ranks(1);
            let samples = gpts(&p, opts.with_block(block));
            let vs = median(&samples) / *unblocked.get_or_insert(median(&samples));
            let key = [
                ("kernel", json!(kind.name())),
                ("sdo", json!(8)),
                ("backend", json!(fastest.to_string())),
                ("block", json!(block)),
            ];
            ledger.row(
                "blocking",
                &key,
                "gpts",
                &samples,
                &[("vs_unblocked", json!(vs))],
            );
        }
    }

    println!("\n## Trace level cost: acoustic SDO 4, 4 ranks");
    let p = build(KernelKind::Acoustic, 4);
    let mut off = None;
    for level in [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Full] {
        let samples = gpts(&p, p.apply_options(nt).with_ranks(4).with_trace(level));
        let vs = median(&samples) / *off.get_or_insert(median(&samples));
        let key = [
            ("kernel", json!("acoustic")),
            ("sdo", json!(4)),
            ("ranks", json!(4)),
            ("trace", json!(level.name())),
        ];
        ledger.row("trace", &key, "gpts", &samples, &[("vs_off", json!(vs))]);
    }
}

/// A shipped solver's equation builder (`acoustic::equations`, …).
type Equations = fn(
    &mpix_solvers::ModelSpec,
    u32,
) -> (
    mpix_symbolic::Context,
    mpix_symbolic::Grid,
    Vec<mpix_symbolic::Eq>,
);

/// The equation builder of one shipped solver.
fn equations_of(kind: KernelKind) -> Equations {
    use mpix_solvers::{acoustic, elastic, tti, viscoelastic};
    match kind {
        KernelKind::Acoustic => acoustic::equations,
        KernelKind::Tti => tti::equations,
        KernelKind::Elastic => elastic::equations,
        KernelKind::Viscoelastic => viscoelastic::equations,
    }
}

/// Space orders `tables bench-build` compiles every kernel at.
pub const BUILD_SDOS: [u32; 8] = [2, 4, 6, 8, 10, 12, 14, 16];

/// Measured compile time, written by `tables bench-build` to
/// `BENCH_build.json`: one `builds` row per kernel × [`BUILD_SDOS`] with
/// the median `build_ms` of
/// [`Operator::build_profile`](mpix_core::Operator::build_profile) over
/// 7 builds (quick: 1), the median of each phase and CSE's share. The
/// equations are constructed outside the timed region.
///
/// Each row also records the layout the build chose: `workspace_bytes`,
/// the field buffers of a 1-rank `Workspace` built from the operator's
/// context (stencil-reach halos), and `space_order_bytes`, the same
/// fields at the pre-build default of a halo of `space_order` per side.
pub fn bench_build(ledger: &mut Ledger) {
    use mpix_core::{BuildProfile, Operator};
    use mpix_json::json;
    use mpix_solvers::ModelSpec;
    use std::time::{Duration, Instant};

    let reps = ledger.reps(7);
    let spec = ModelSpec::new(&[16, 16, 16]).with_nbl(2);
    ledger.field("grid", vec![16, 16, 16]);
    ledger.field("nbl", 2);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let configs: Vec<(KernelKind, u32)> = KernelKind::all()
        .into_iter()
        .flat_map(|k| BUILD_SDOS.map(|so| (k, so)))
        .collect();

    let timed: Vec<Vec<(f64, BuildProfile)>> = configs
        .iter()
        .map(|&(kind, sdo)| {
            (0..reps)
                .map(|_| {
                    let (ctx, grid, eqs) = equations_of(kind)(&spec, sdo);
                    let t0 = Instant::now();
                    let (_, profile) =
                        Operator::build_profile(ctx, grid, eqs).expect("shipped operator builds");
                    (ms(t0.elapsed()), profile)
                })
                .collect()
        })
        .collect();
    // Layouts are measured after every timed build: allocating and
    // dropping workspaces between builds slows the builds that follow.
    println!("\n## Operator::build time per phase, 16\u{b3}+2 ABC");
    for (&(kind, sdo), runs) in configs.iter().zip(timed) {
        let (ctx, grid, eqs) = equations_of(kind)(&spec, sdo);
        let op = Operator::build(ctx, grid, eqs).expect("shipped operator builds");
        let workspace_bytes = mpix_comm::Universe::run(1, |comm| {
            let cart = mpix_comm::CartComm::new(comm, &vec![1; op.grid().ndim()]);
            mpix_core::Workspace::new(op.ctx(), op.grid(), cart).bytes()
        })[0];
        let space_order_bytes: usize = op
            .ctx()
            .fields()
            .iter()
            .map(|f| {
                let pad = 2 * f.space_order as usize;
                let points: usize = f.shape.iter().map(|&n| n + pad).product();
                f.time_buffers() * points * std::mem::size_of::<f32>()
            })
            .sum();
        let phase = |f: fn(&BuildProfile) -> Duration| {
            median(&runs.iter().map(|(_, p)| ms(f(p))).collect::<Vec<_>>())
        };
        let build_ms: Vec<f64> = runs.iter().map(|(t, _)| *t).collect();
        let cse_ms = phase(|p| p.cse);
        ledger.row(
            "builds",
            &[("kernel", json!(kind.name())), ("sdo", json!(sdo))],
            "build_ms",
            &build_ms,
            &[
                ("lowering_ms", json!(phase(|p| p.lowering))),
                ("clusterize_ms", json!(phase(|p| p.clusterize))),
                ("cse_ms", json!(cse_ms)),
                ("halo_ms", json!(phase(|p| p.halo))),
                ("op_counts_ms", json!(phase(|p| p.op_counts))),
                ("iet_ms", json!(phase(|p| p.iet))),
                ("cse_share", json!(cse_ms / median(&build_ms))),
                ("workspace_bytes", json!(workspace_bytes)),
                ("space_order_bytes", json!(space_order_bytes)),
            ],
        );
    }
}

/// Space orders `tables bench-verify` gates every kernel at.
pub const VERIFY_SDOS: [u32; 3] = [4, 8, 16];
/// Halo modes `tables bench-verify` gates every operator in.
pub const VERIFY_MODES: [mpix_dmp::HaloMode; 2] =
    [mpix_dmp::HaloMode::Basic, mpix_dmp::HaloMode::Diagonal];
/// Rank counts `tables bench-verify` gates every operator on.
pub const VERIFY_RANKS: [usize; 2] = [1, 2];

/// Measured verify-gate time, written by `tables bench-verify` to
/// `BENCH_verify.json`: the gate `Operator::run` applies with `verify`
/// on ([`AnalysisConfig::for_run`](mpix_analysis::AnalysisConfig::for_run)
/// on `jit`), for every kernel × [`VERIFY_SDOS`] × [`VERIFY_MODES`] ×
/// [`VERIFY_RANKS`] on the largest `serve-mixed` grid (24³ + 4-cell
/// absorbing layer). One `gates` row per configuration: the median
/// `verify_ms` of 7 gate calls (quick: 1) and the number of exchange
/// `keys`. Operators are built outside the timed region.
pub fn bench_verify(ledger: &mut Ledger) {
    use mpix_analysis::AnalysisConfig;
    use mpix_codegen::Backend;
    use mpix_core::Operator;
    use mpix_json::json;
    use mpix_solvers::ModelSpec;
    use std::time::Instant;

    let reps = ledger.reps(7);
    let spec = ModelSpec::new(&[24, 24, 24]).with_nbl(4);
    ledger.field("grid", vec![24, 24, 24]);
    ledger.field("nbl", 4);
    ledger.field("backend", "jit");

    println!("\n## verify gate time (jit)");
    for kind in KernelKind::all() {
        for sdo in VERIFY_SDOS {
            let (ctx, grid, eqs) = equations_of(kind)(&spec, sdo);
            let op = Operator::build(ctx, grid, eqs).expect("shipped operator builds");
            let keys = mpix_analysis::comm_schedule::exchange_keys(op.halo_plan()).len();
            for mode in VERIFY_MODES {
                for ranks in VERIFY_RANKS {
                    let times: Vec<f64> = (0..reps)
                        .map(|_| {
                            let t0 = Instant::now();
                            let cfg = AnalysisConfig::for_run(mode, ranks, 1, 0, Backend::Jit);
                            let report = op.verify(&cfg);
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            assert!(!report.has_errors(), "{report}");
                            ms
                        })
                        .collect();
                    let key = [
                        ("kernel", json!(kind.name())),
                        ("sdo", json!(sdo)),
                        ("mode", json!(format!("{mode:?}").to_lowercase())),
                        ("ranks", json!(ranks)),
                    ];
                    ledger.row("gates", &key, "verify_ms", &times, &[("keys", json!(keys))]);
                }
            }
        }
    }
}

/// Measured communication costs, written by `tables bench-halo` to
/// `BENCH_comm.json`. The timed arrays take 7 repetitions (quick: 1);
/// each exchange repetition is the slowest rank's time for a block of
/// exchanges.
///
/// * `exchanges`: per-exchange latency on a 2×2×2 rank grid (16³ global)
///   for every mode and radius, with messages, bytes and steady-state
///   buffer allocations per exchange.
/// * `dmp`: single-rank substrate ops per call: packing and unpacking a
///   radius-4 face slab of a 64³ subdomain, and one step of 64-point
///   sparse injection and sampling.
/// * `ranks_sweep` (with `ranks_sweep`): weak-scaled diagonal exchanges
///   at P ∈ {8, 32, 128, 256, 512} (quick: {8, 32}), asserting zero
///   steady-state allocations at every P.
///
/// The record also carries the sanitizer-overhead gate's figures.
pub fn bench_halo(ledger: &mut Ledger, ranks_sweep: bool) {
    use mpix_comm::{CartComm, Universe};
    use mpix_dmp::{Decomposition, DistArray, HaloExchanger, HaloMode};
    use mpix_json::json;
    use mpix_trace::Tracer;
    use std::sync::Arc;
    use std::time::Instant;

    let quick = ledger.quick();
    let reps = ledger.reps(7);
    let dims = vec![2usize, 2, 2];
    let nranks: usize = dims.iter().product();
    let edge = 16usize; // 8³ points per rank: small, alloc-dominated messages
    let radii: Vec<usize> = if quick { vec![1, 4] } else { vec![1, 2, 3, 4] };
    let (warmup, iters) = if quick {
        (3u32, 25u32)
    } else {
        (20u32, 250u32)
    };
    ledger.field("grid", vec![edge, edge, edge]);
    ledger.field("rank_dims", dims.clone());
    ledger.field("ranks", nranks);
    ledger.field("iters", iters);

    println!("\n## Halo exchange latency, {nranks} ranks (2×2×2), {edge}³ global, {iters} iters");
    for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
        for &radius in &radii {
            let dims_c = dims.clone();
            let out = Universe::run(nranks, move |comm| {
                let cart = CartComm::new(comm, &dims_c);
                let dc = Arc::new(Decomposition::new(&[edge, edge, edge], &dims_c));
                let coords = cart.coords().to_vec();
                let mut arr = DistArray::new(dc, &coords, radius.max(2));
                arr.fill_global_slice(&[0..edge, 0..edge, 0..edge], 1.0);
                let mut ex = HaloExchanger::new(mode);
                let mut tracer = Tracer::off();
                for _ in 0..warmup {
                    ex.exchange(&cart, &mut arr, radius, 0, &mut tracer);
                }
                cart.comm().barrier();
                cart.comm().reset_stats();
                let secs = timed_blocks(&cart, reps, || {
                    for _ in 0..iters {
                        ex.exchange(&cart, &mut arr, radius, 0, &mut tracer);
                    }
                });
                (secs, cart.comm().stats())
            });
            let timed_exchanges = u64::from(iters) * reps as u64;
            let total =
                |f: fn(&mpix_comm::CommStats) -> u64| out.iter().map(|r| f(&r.1)).sum::<u64>();
            let us = slowest_rank(out.iter().map(|r| &r.0), f64::from(iters));
            let key = [
                ("mode", json!(format!("{mode:?}").to_lowercase())),
                ("radius", json!(radius)),
            ];
            ledger.row(
                "exchanges",
                &key,
                "plan_us_per_exchange",
                &us,
                &[
                    (
                        "msgs_per_exchange",
                        json!(total(|s| s.msgs_sent) / timed_exchanges),
                    ),
                    (
                        "bytes_per_exchange",
                        json!(total(|s| s.bytes_sent) / timed_exchanges),
                    ),
                    (
                        "steady_state_bufs_allocated",
                        json!(total(|s| s.bufs_allocated)),
                    ),
                ],
            );
        }
    }
    dmp_rows(ledger);

    // Sanitizer-overhead smoke. `mpix-san` is always compiled in, so the
    // claim to defend is that the *disabled* path costs nothing: every
    // hook site reduces to one `Option` branch. Measure the plan-arm
    // exchange loop with the sanitizer disabled, then enabled, then
    // disabled again (min over reps, slowest rank); the second disabled
    // arm must stay within the noise-calibrated gate below of the first —
    // arming the sanitizer may leave no residual cost, and any
    // unconditional work added to the hot hook sites shows up here. The
    // enabled figure rides along as a trend record, not a gate.
    let san_radius = 2usize;
    let (san_reps, san_iters) = if quick { (3u32, 50u32) } else { (5, 200) };
    let measure = |san: Option<Arc<mpix_san::San>>| -> f64 {
        let dims_c = dims.clone();
        let out = Universe::run_with_san(nranks, san, move |comm| {
            let cart = CartComm::new(comm, &dims_c);
            let dc = Arc::new(Decomposition::new(&[edge, edge, edge], &dims_c));
            let coords = cart.coords().to_vec();
            let mut arr = DistArray::new(dc, &coords, san_radius);
            arr.fill_global_slice(&[0..edge, 0..edge, 0..edge], 1.0);
            let mut ex = HaloExchanger::new(HaloMode::Basic);
            let mut tracer = Tracer::off();
            for _ in 0..3 {
                ex.exchange(&cart, &mut arr, san_radius, 0, &mut tracer);
            }
            let mut best = f64::INFINITY;
            for _ in 0..san_reps {
                cart.comm().barrier();
                let t0 = Instant::now();
                for _ in 0..san_iters {
                    ex.exchange(&cart, &mut arr, san_radius, 0, &mut tracer);
                }
                cart.comm().barrier();
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        });
        out.into_iter().fold(0.0, f64::max) / san_iters as f64 * 1e6
    };
    // The very first `Universe::run` of the process pays one-time costs
    // (thread-spawn warm-up, lazy allocator arenas, page faults on fresh
    // grids), and the process keeps getting gradually faster for a while
    // after that. Measuring each arm once in a fixed order made the first
    // disabled arm absorb all of that drift and produced nonsense
    // negative overheads (-17% in a published BENCH_comm.json). Burn the
    // cold start on several discarded passes (the warm-up curve is
    // convex — the first measure is far slower than the fourth, so one
    // discard is not enough), then measure the arms in *palindromic*
    // order over an even number of rounds — (before, enabled, after) on
    // even rounds, (after, enabled, before) on odd — so each arm's
    // measurement positions are symmetric around the run's midpoint; a
    // fixed within-round order would hand the later arm the drift every
    // single round. The gate takes the median of the per-round
    // `after / before` ratios: a round sees one host state, and a noise
    // burst in one round no longer moves the verdict as it moved the
    // per-arm means (which failed one run in four on an unchanged path).
    for _ in 0..4 {
        let _ = measure(None);
    }
    let mut disabled_before = Vec::new();
    let mut enabled = Vec::new();
    let mut disabled_after = Vec::new();
    for round in 0..6 {
        let san = || Some(Arc::new(mpix_san::San::new(nranks)));
        if round % 2 == 0 {
            disabled_before.push(measure(None));
            enabled.push(measure(san()));
            disabled_after.push(measure(None));
        } else {
            disabled_after.push(measure(None));
            enabled.push(measure(san()));
            disabled_before.push(measure(None));
        }
    }
    let mean = |v: &[f64]| -> f64 { v.iter().sum::<f64>() / v.len() as f64 };
    let disabled_before_us = mean(&disabled_before);
    let enabled_us = mean(&enabled);
    let disabled_after_us = mean(&disabled_after);
    let ratios = disabled_after.iter().zip(&disabled_before);
    let ratio = median(
        &ratios
            .map(|(after, before)| after / before)
            .collect::<Vec<_>>(),
    );
    let overhead_pct = (ratio - 1.0) * 100.0;
    println!(
        "\n## mpix-san overhead (basic, radius {san_radius}): disabled {disabled_before_us:.2} \
         µs/ex, enabled {enabled_us:.2} µs/ex, disabled-again {disabled_after_us:.2} µs/ex \
         (median round {overhead_pct:+.2}%)"
    );
    // Gate tolerance is calibrated to this harness's measured noise
    // floor, not to the cost being hunted: two *identical* disabled arms
    // differ by up to ~8% (quick mode, loaded single-core host) purely
    // from scheduling noise, while unconditional work added to the hook
    // sites lands in the +25-40% range the *enabled* arm shows. The old
    // 2% tolerance only ever passed because the cold-first-arm bias made
    // the after-arm systematically faster; with that bias fixed the gate
    // must sit above the (now symmetric) noise and below a real leak.
    // The 2 µs slack, per µs of the mean disabled cost.
    let tolerance = if quick { 1.12 } else { 1.08 };
    assert!(
        ratio <= tolerance + 2.0 / disabled_before_us,
        "sanitizer-disabled exchange cost regressed beyond the \
         {:.0}% noise gate: median round ratio {ratio:.3} \
         ({disabled_before_us:.2}µs -> {disabled_after_us:.2}µs mean)",
        (tolerance - 1.0) * 100.0
    );
    ledger.field(
        "sanitizer",
        json!({
            "disabled_us_per_exchange": disabled_before_us,
            "enabled_us_per_exchange": enabled_us,
            "disabled_after_us_per_exchange": disabled_after_us,
            "disabled_overhead_pct": overhead_pct,
        }),
    );

    if ranks_sweep {
        ranks_sweep_rows(ledger);
    }
}

/// Seconds of each of `reps` runs of `block`, every run between two
/// barriers so all ranks time the same work.
fn timed_blocks(cart: &mpix_comm::CartComm, reps: usize, mut block: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            cart.comm().barrier();
            let t0 = std::time::Instant::now();
            block();
            cart.comm().barrier();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// µs per exchange of each repetition on its slowest rank, from every
/// rank's [`timed_blocks`] of `iters` exchanges.
fn slowest_rank<'a>(ranks: impl Iterator<Item = &'a Vec<f64>>, iters: f64) -> Vec<f64> {
    let mut slowest: Vec<f64> = Vec::new();
    for secs in ranks {
        slowest.resize(secs.len(), 0.0);
        for (s, &t) in slowest.iter_mut().zip(secs) {
            *s = s.max(t / iters * 1e6);
        }
    }
    slowest
}

/// The `dmp` rows of [`bench_halo`]: µs per call of the per-step
/// substrate ops on rank 0 of a 128³ grid split 2×2×2.
fn dmp_rows(ledger: &mut Ledger) {
    use mpix_dmp::{Decomposition, DistArray, SparsePlan, SparsePoints};
    use mpix_json::json;
    use std::hint::black_box;
    use std::sync::Arc;

    let reps = ledger.reps;
    let calls = if ledger.quick() { 20 } else { 500 };
    // Every repetition times `calls` calls after one untimed call.
    let per_call = |f: &mut dyn FnMut()| -> Vec<f64> {
        f();
        (0..reps)
            .map(|_| {
                let t0 = std::time::Instant::now();
                for _ in 0..calls {
                    f();
                }
                t0.elapsed().as_secs_f64() / calls as f64 * 1e6
            })
            .collect()
    };
    let dc = Arc::new(Decomposition::new(&[128, 128, 128], &[2, 2, 2]));
    let mut arr = DistArray::new(dc, &[0, 0, 0], 4);
    let local = arr.local_shape().to_vec();
    let slab: Vec<std::ops::Range<usize>> = vec![4..8, 4..4 + local[1], 4..4 + local[2]];
    let pts = SparsePoints::new(
        (0..64)
            .map(|i| vec![1.0 + i as f64 * 0.9, 20.5, 30.25])
            .collect(),
        vec![1.0, 1.0, 1.0],
    );
    let mut plan = SparsePlan::build(&pts, &arr);
    let mut buf = Vec::new();
    let mut row = vec![f32::NAN; pts.len()];

    println!("\n## Decomposition and sparse ops, rank 0 of 128³ on 2×2×2");
    let pack = per_call(&mut || {
        arr.pack_box(&slab, &mut buf);
        black_box(buf.len());
    });
    let unpack = per_call(&mut || arr.unpack_box(&slab, &buf));
    let inject = per_call(&mut || plan.inject(arr.raw_mut(), |_| 1.0));
    // Sampling one step of a long run; the end-of-run combine is message
    // traffic, which the end-to-end benchmark measures.
    plan.begin_run(1);
    let sample = per_call(&mut || {
        plan.sample(arr.raw(), 0, &mut row);
        black_box(row[0]);
    });
    let elems = slab.iter().map(|r| r.len()).product::<usize>();
    for (op, samples, elems) in [
        ("pack_face_slab", pack, elems),
        ("unpack_face_slab", unpack, elems),
        ("sparse_inject", inject, pts.len()),
        ("sparse_sample", sample, pts.len()),
    ] {
        let key = [("op", json!(op))];
        ledger.row(
            "dmp",
            &key,
            "us_per_call",
            &samples,
            &[("elems", json!(elems))],
        );
    }
}

/// The `ranks_sweep` rows of [`bench_halo`]: 8³ points per rank,
/// diagonal (26-neighbour) exchange at radius 2, swept over P ∈ {8, 32,
/// 128, 256, 512} (quick: {8, 32}). Reports the slowest rank's µs per
/// exchange and the receive parks per exchange (futex round-trips after
/// the yield budget ran out — the contention signal), and asserts the
/// machine-independent contract: zero steady-state buffer allocations
/// at every P. Ranks are threads, so on a host with few cores the
/// wall-clock column measures scheduling and copy cost, not a
/// cluster's network.
fn ranks_sweep_rows(ledger: &mut Ledger) {
    use mpix_comm::{dims_create, CartComm, Universe};
    use mpix_dmp::{Decomposition, DistArray, HaloExchanger, HaloMode};
    use mpix_json::json;
    use mpix_trace::Tracer;
    use std::sync::Arc;
    use std::time::Duration;

    let plist: &[usize] = if ledger.quick() {
        &[8, 32]
    } else {
        &[8, 32, 128, 256, 512]
    };
    let radius = 2usize;
    let per_rank_edge = 8usize;
    let reps = ledger.reps;

    println!("\n## Ranks sweep: diagonal radius-{radius} exchange, {per_rank_edge}³ points/rank");
    for &p in plist {
        let dims = dims_create(p, 3);
        // Fixed per-rank work; shrink the iteration count as thread counts
        // (and per-exchange message counts) grow so each leg stays bounded.
        let (warmup, iters) = match p {
            0..=32 => (5u32, 40u32),
            33..=128 => (3, 16),
            129..=256 => (2, 8),
            _ => (2, 5),
        };
        let dims_c = dims.clone();
        // The generous timeout keeps the P=512 leg from tripping the
        // deadlock guard under heavy scheduling delay.
        let out = Universe::run_cfg(p, Duration::from_secs(300), None, move |comm| {
            let cart = CartComm::new(comm, &dims_c);
            let shape: Vec<usize> = dims_c.iter().map(|d| d * per_rank_edge).collect();
            let dc = Arc::new(Decomposition::new(&shape, &dims_c));
            let coords = cart.coords().to_vec();
            let mut arr = DistArray::new(dc, &coords, radius);
            let ranges: Vec<std::ops::Range<usize>> = shape.iter().map(|&e| 0..e).collect();
            arr.fill_global_slice(&ranges, 1.0);
            let mut ex = HaloExchanger::new(HaloMode::Diagonal);
            let mut tracer = Tracer::off();
            for _ in 0..warmup {
                ex.exchange(&cart, &mut arr, radius, 0, &mut tracer);
            }
            cart.comm().barrier();
            cart.comm().reset_stats();
            let secs = timed_blocks(&cart, reps, || {
                for _ in 0..iters {
                    ex.exchange(&cart, &mut arr, radius, 0, &mut tracer);
                }
            });
            let stats = cart.comm().stats();
            (secs, stats.recv_parks, stats.bufs_allocated)
        });
        let us = slowest_rank(out.iter().map(|r| &r.0), f64::from(iters));
        let parks: u64 = out.iter().map(|r| r.1).sum();
        let allocs: u64 = out.iter().map(|r| r.2).sum();
        assert_eq!(
            allocs, 0,
            "halo exchange allocated in steady state at P={p}"
        );
        ledger.row(
            "ranks_sweep",
            &[("ranks", json!(p))],
            "us_per_exchange",
            &us,
            &[
                ("rank_dims", json!(dims)),
                ("points_per_rank", json!(per_rank_edge.pow(3))),
                ("radius", json!(radius)),
                (
                    "recv_parks_per_exchange",
                    json!(parks as f64 / (f64::from(iters) * reps as f64)),
                ),
                ("steady_state_bufs_allocated", json!(allocs)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_json::Value;

    /// Held by the halo bench's timing gate and by every other test that
    /// times work (the kernel, build and verify benches), whose rank
    /// threads and JIT compiles would otherwise share the cores with the
    /// gate's two timed arms.
    static TIMED: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// The quick record `bench` writes as `arm`, joined to `baseline`.
    fn quick_record(bench: &dyn Fn(&mut Ledger), arm: &str, baseline: Option<Value>) -> Value {
        let mut ledger = Ledger::new(arm, baseline, true);
        bench(&mut ledger);
        let out = ledger.finish();
        let v = Value::parse(&out).unwrap_or_else(|e| panic!("invalid JSON {e:?}:\n{out}"));
        assert_envelope(&v, arm);
        v
    }

    /// `record` carries the envelope every record shares.
    fn assert_envelope(record: &Value, what: &str) {
        let has = |field: &str, ok: fn(&Value) -> bool| {
            assert!(record.get(field).is_some_and(ok), "{what}: {field}");
        };
        has("arm", |a| a.as_str().is_some());
        has("baseline_arm", |a| {
            a.as_str().is_some() || *a == Value::Null
        });
        has("quick", |q| q.as_bool().is_some());
        has("reps", |r| r.as_u64().is_some_and(|r| r >= 1));
        has("nproc", |n| n.as_u64().is_some_and(|n| n >= 1));
    }

    /// The rows of `record`'s `array`.
    fn rows<'a>(record: &'a Value, array: &str) -> &'a [Value] {
        record
            .get(array)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("no {array} array in {record}"))
    }

    /// The sorted field names of `row`.
    fn field_names(row: &Value) -> Vec<&str> {
        let mut keys: Vec<&str> = row
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        keys.sort_unstable();
        keys
    }

    fn f64_of(row: &Value, field: &str) -> f64 {
        row.get(field).and_then(Value::as_f64).unwrap()
    }

    #[test]
    fn cpu_rows_are_positive_and_grow() {
        let rows = model_cpu_rows(KernelKind::Acoustic, 8);
        for row in rows {
            assert!(row.iter().all(|&v| v > 0.0));
            assert!(row[7] > row[0]);
        }
    }

    #[test]
    fn gpu_single_unit_beats_cpu_node() {
        for kind in KernelKind::all() {
            let c = model_cpu_rows(kind, 8)[0][0];
            let g = model_gpu_row(kind, 8)[0];
            assert!(g > c, "{kind:?}: GPU {g} !> CPU {c}");
        }
    }

    /// Smoke for the backend column: the quick bench must emit one row
    /// per `(kernel, sdo, backend)`, and on a JIT-capable host the
    /// native rows must beat the vectorized interpreter somewhere —
    /// if the JIT never wins even once, the backend is mislinked (e.g.
    /// silently falling back to the interpreter everywhere). Also pins
    /// the `blocking` and `trace` row counts.
    #[test]
    fn bench_kernels_has_backend_rows_and_jit_wins_somewhere() {
        use mpix_core::{available_backends, Backend};
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());

        let v = quick_record(&bench_kernels, "current", None);
        let kernels = rows(&v, "kernels");
        let have_jit = available_backends().contains(&Backend::Jit);
        let backends_per_group = if have_jit { 2 } else { 1 };
        // 4 kernels × 4 SDOs × backends.
        assert_eq!(kernels.len(), 16 * backends_per_group, "{v}");
        for row in kernels {
            assert!(row.get("backend").and_then(Value::as_str).is_some());
            assert!(f64_of(row, "gpts") > 0.0);
        }
        if have_jit {
            let gpts_of = |backend: &str| -> Vec<f64> {
                kernels
                    .iter()
                    .filter(|r| r.get("backend").and_then(Value::as_str) == Some(backend))
                    .map(|r| f64_of(r, "gpts"))
                    .collect()
            };
            let jit = gpts_of("jit");
            let bytecode = gpts_of("bytecode");
            assert!(
                jit.iter().zip(&bytecode).any(|(j, b)| j > b),
                "jit never beat the vectorized interpreter:\n{v}"
            );
        }
        // 4 kernels × block {0, 16}; 3 trace levels.
        assert_eq!(rows(&v, "blocking").len(), 8, "{v}");
        assert_eq!(rows(&v, "trace").len(), 3, "{v}");
    }

    /// Schema of the quick build bench: one row per kernel × SDO with
    /// every phase and the CSE share, and a baseline's rows joined by
    /// `(kernel, sdo)`.
    #[test]
    fn bench_build_quick_rows_and_schema() {
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
        let first = quick_record(&bench_build, "first", None);
        assert_eq!(first.get("baseline_arm"), Some(&Value::Null));
        let v = quick_record(&bench_build, "second", Some(first));
        assert_eq!(v.get("baseline_arm").and_then(Value::as_str), Some("first"));
        let rows = rows(&v, "builds");
        assert_eq!(rows.len(), 4 * BUILD_SDOS.len(), "{v}");
        for row in rows {
            assert_eq!(
                field_names(row),
                [
                    "baseline_build_ms",
                    "build_ms",
                    "build_ms_iqr",
                    "clusterize_ms",
                    "cse_ms",
                    "cse_share",
                    "halo_ms",
                    "iet_ms",
                    "kernel",
                    "lowering_ms",
                    "op_counts_ms",
                    "sdo",
                    "space_order_bytes",
                    "vs_baseline",
                    "workspace_bytes",
                ],
                "{v}"
            );
            let bytes = |k: &str| row.get(k).and_then(Value::as_u64).unwrap();
            // Every shipped stencil reads at most `so / 2` points out, so
            // the reach-sized layout is always the smaller.
            assert!(bytes("workspace_bytes") > 0, "{v}");
            assert!(bytes("workspace_bytes") < bytes("space_order_bytes"), "{v}");
            assert!((0.0..=1.0).contains(&f64_of(row, "cse_share")), "{v}");
            assert!(f64_of(row, "build_ms") > 0.0);
        }
    }

    /// Schema of the quick verify bench: one row per kernel × SDO × mode
    /// × ranks with the key count and gate time, and a baseline's rows
    /// joined by `(kernel, sdo, mode, ranks)`.
    #[test]
    fn bench_verify_quick_rows_and_schema() {
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
        let first = quick_record(&bench_verify, "first", None);
        assert_eq!(first.get("baseline_arm"), Some(&Value::Null));
        let v = quick_record(&bench_verify, "second", Some(first));
        assert_eq!(v.get("baseline_arm").and_then(Value::as_str), Some("first"));
        let rows = rows(&v, "gates");
        assert_eq!(
            rows.len(),
            4 * VERIFY_SDOS.len() * VERIFY_MODES.len() * VERIFY_RANKS.len(),
            "{v}"
        );
        for row in rows {
            assert_eq!(
                field_names(row),
                [
                    "baseline_verify_ms",
                    "kernel",
                    "keys",
                    "mode",
                    "ranks",
                    "sdo",
                    "verify_ms",
                    "verify_ms_iqr",
                    "vs_baseline",
                ],
                "{v}"
            );
            assert!(
                f64_of(row, "keys") >= 1.0 && f64_of(row, "verify_ms") > 0.0,
                "{v}"
            );
        }
    }

    /// Smoke for the ranks-sweep axis: the quick sweep must emit one row
    /// per swept P, each with the zero-allocation steady state. Also pins
    /// the mode×radius and `dmp` row counts so `--ranks-sweep` cannot
    /// silently drop the other axes.
    #[test]
    fn bench_halo_quick_emits_exchange_and_ranks_sweep_rows() {
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
        let v = quick_record(&|l| bench_halo(l, true), "current", None);
        // Quick mode: 3 modes × 2 radii.
        let exchanges = rows(&v, "exchanges");
        assert_eq!(exchanges.len(), 6, "{v}");
        for row in exchanges {
            assert!(f64_of(row, "plan_us_per_exchange") > 0.0, "{v}");
        }
        let dmp = rows(&v, "dmp");
        assert_eq!(dmp.len(), 4, "{v}");
        assert!(dmp.iter().all(|r| f64_of(r, "us_per_call") > 0.0), "{v}");
        let sweep = rows(&v, "ranks_sweep");
        let ranks: Vec<u64> = sweep
            .iter()
            .map(|r| r.get("ranks").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(ranks, vec![8, 32], "{v}");
        for row in sweep {
            assert_eq!(
                field_names(row),
                [
                    "points_per_rank",
                    "radius",
                    "rank_dims",
                    "ranks",
                    "recv_parks_per_exchange",
                    "steady_state_bufs_allocated",
                    "us_per_exchange",
                    "us_per_exchange_iqr",
                ],
                "{v}"
            );
            assert!(f64_of(row, "us_per_exchange") > 0.0, "{v}");
            assert_eq!(
                row.get("steady_state_bufs_allocated")
                    .and_then(Value::as_u64),
                Some(0),
                "{v}"
            );
        }
    }

    /// A committed record: its file, the bench that regenerates it, and
    /// each of its row arrays with that array's key fields.
    struct Record {
        file: &'static str,
        bench: fn(&mut Ledger),
        arrays: &'static [(&'static str, &'static [&'static str])],
    }

    const RECORDS: [Record; 4] = [
        Record {
            file: "BENCH_kernels.json",
            bench: bench_kernels,
            arrays: &[
                ("kernels", &["kernel", "sdo", "backend"]),
                ("blocking", &["kernel", "sdo", "backend", "block"]),
                ("trace", &["kernel", "sdo", "ranks", "trace"]),
            ],
        },
        Record {
            file: "BENCH_build.json",
            bench: bench_build,
            arrays: &[("builds", &["kernel", "sdo"])],
        },
        Record {
            file: "BENCH_verify.json",
            bench: bench_verify,
            arrays: &[("gates", &["kernel", "sdo", "mode", "ranks"])],
        },
        Record {
            file: "BENCH_comm.json",
            bench: |l| bench_halo(l, true),
            arrays: &[
                ("exchanges", &["mode", "radius"]),
                ("dmp", &["op"]),
                ("ranks_sweep", &["ranks"]),
            ],
        },
    ];

    fn committed(file: &str) -> Value {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Value::parse(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"))
    }

    /// Every committed record carries the shared envelope.
    #[test]
    fn bench_records_carry_the_envelope() {
        for Record { file, arrays, .. } in RECORDS {
            let v = committed(file);
            assert_envelope(&v, file);
            for (array, _) in arrays {
                assert!(!rows(&v, array).is_empty(), "{file}: {array}");
            }
        }
    }

    /// A quick run given each committed record as its baseline joins every
    /// row whose key fields the baseline shares, so records written by
    /// earlier schemas stay readable as `--baseline`.
    #[test]
    fn bench_quick_runs_join_every_committed_record() {
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
        for Record {
            file,
            bench,
            arrays,
        } in RECORDS
        {
            let baseline = committed(file);
            let v = quick_record(&bench, "current", Some(baseline.clone()));
            for (array, key) in arrays {
                let Some(base_rows) = baseline.get(array).and_then(Value::as_array) else {
                    continue;
                };
                let mut joined = 0;
                for row in rows(&v, array) {
                    let shared = base_rows
                        .iter()
                        .any(|b| key.iter().all(|k| b.get(k) == row.get(k)));
                    assert_eq!(
                        row.get("vs_baseline").is_some(),
                        shared,
                        "{file} {array}: {row}"
                    );
                    joined += usize::from(shared);
                }
                assert!(joined > 0, "{file} {array}: no row joined");
            }
        }
    }
}
