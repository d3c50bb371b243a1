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

/// Measured per-backend throughput: run each kernel for real on one
/// rank at SDO 4/8/12/16 under every execution backend — the
/// interpreter (strips of [`LANES`](mpix_codegen::LANES)) and the
/// native JIT where the host supports it — and return the per-kernel
/// GPts/s comparison as pretty JSON with one row per
/// `(kernel, sdo, backend)`. Speedups are relative to the bytecode row.
/// The `tables bench-kernels` subcommand writes this to
/// `BENCH_kernels.json`, the perf-trajectory record for the repo.
///
/// Each row is the median of `reps` timed runs (5; 1 when `quick`).
/// `quick` shrinks the grid and step count to a CI smoke size (schema
/// identical; numbers not meaningful for trend tracking).
pub fn bench_kernels_json(quick: bool) -> String {
    bench_kernels_json_vs(quick, None)
}

/// [`bench_kernels_json`] with every row compared against `baseline`, a
/// record the same subcommand wrote earlier (typically at the parent
/// commit, on the same host): rows that match a baseline row by
/// `(kernel, sdo, backend)` gain `baseline_gpts` and `vs_baseline`
/// (this run's GPts/s over the baseline's).
pub fn bench_kernels_json_vs(quick: bool, baseline: Option<&mpix_json::Value>) -> String {
    use mpix_core::{available_backends, Backend};
    use mpix_json::{json, Value};
    use mpix_solvers::{ModelSpec, Propagator};
    use std::time::Instant;

    let (edge, nbl, nt, reps) = if quick {
        (12usize, 2usize, 2i64, 1usize)
    } else {
        (32, 4, 8, 5)
    };
    let have_jit = available_backends().contains(&Backend::Jit);

    let mut rows = Vec::new();
    println!("\n## Backend throughput: bytecode vs jit, {edge}\u{b3}+{nbl} ABC, nt={nt}, 1 rank");
    println!(
        "{:<14} {:>4} {:<9} {:>12} {:>9}",
        "kernel", "sdo", "backend", "GPts/s", "speedup"
    );
    for kind in KernelKind::all() {
        for sdo in [4u32, 8, 12, 16] {
            let spec = ModelSpec::new(&[edge, edge, edge]).with_nbl(nbl);
            let p = Propagator::build(kind, spec, sdo);
            let pref = &p;
            let init = move |ws: &mut mpix_core::Workspace| {
                pref.init(ws);
                pref.add_ricker_source(ws, 18.0, nt as usize);
            };
            let time_run = |backend: Backend| -> f64 {
                let opts = p.apply_options(nt).with_backend(backend).with_ranks(1);
                // Untimed warm-up amortizes first-touch and compilation.
                p.op.run(&opts, init, |_| ());
                median(
                    (0..reps)
                        .map(|_| {
                            let t0 = Instant::now();
                            p.op.run(&opts, init, |_| ());
                            t0.elapsed().as_secs_f64()
                        })
                        .collect(),
                )
            };
            let pts = p.points_per_step() as f64 * nt as f64;
            // The interpreter is the baseline every speedup is measured
            // against.
            let mut backends = vec![Backend::Bytecode];
            if have_jit {
                backends.push(Backend::Jit);
            }
            let mut bytecode = 0.0f64;
            for backend in backends {
                let gpts = pts / time_run(backend) / 1e9;
                if backend == Backend::Bytecode {
                    bytecode = gpts;
                }
                let speedup = gpts / bytecode;
                let label = backend.to_string();
                let key = [
                    ("kernel", json!(kind.name())),
                    ("sdo", json!(sdo)),
                    ("backend", json!(label.as_str())),
                ];
                let base =
                    baseline_row(baseline, "kernels", &key).and_then(|r| r.get("gpts")?.as_f64());
                println!(
                    "{:<14} {:>4} {:<9} {:>12.4} {:>8.2}x{}",
                    kind.name(),
                    sdo,
                    label,
                    gpts,
                    speedup,
                    base.map_or(String::new(), |b| format!(" {:>8.2}x baseline", gpts / b))
                );
                let mut row = vec![
                    ("kernel".to_string(), json!(kind.name())),
                    ("sdo".to_string(), json!(sdo)),
                    ("backend".to_string(), json!(label)),
                    ("gpts".to_string(), json!(gpts)),
                    ("speedup".to_string(), json!(speedup)),
                ];
                if let Some(b) = base {
                    row.push(("baseline_gpts".to_string(), json!(b)));
                    row.push(("vs_baseline".to_string(), json!(gpts / b)));
                }
                rows.push(Value::Obj(row));
            }
        }
    }
    json!({
        "grid": vec![edge, edge, edge],
        "nbl": nbl,
        "nt": nt,
        "lanes": mpix_codegen::LANES,
        "jit_available": have_jit,
        "quick": quick,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "reps": reps,
        "kernels": rows,
    })
    .pretty()
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

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The row of `baseline`'s `array` whose fields equal every `(key,
/// value)` pair of `key`: the row a `--baseline` record holds for the
/// same configuration.
fn baseline_row<'a>(
    baseline: Option<&'a mpix_json::Value>,
    array: &str,
    key: &[(&str, mpix_json::Value)],
) -> Option<&'a mpix_json::Value> {
    let rows = baseline?.get(array)?.as_array()?;
    rows.iter()
        .find(|r| key.iter().all(|(k, v)| r.get(k) == Some(v)))
}

/// The `arm` label of a baseline record, `null` without one.
fn baseline_arm(baseline: Option<&mpix_json::Value>) -> mpix_json::Value {
    baseline.map_or(mpix_json::Value::Null, |b| {
        let arm = b.get("arm").and_then(mpix_json::Value::as_str);
        mpix_json::Value::from(arm.unwrap_or("unlabelled"))
    })
}

/// Space orders `tables bench-build` compiles every kernel at.
pub const BUILD_SDOS: [u32; 8] = [2, 4, 6, 8, 10, 12, 14, 16];

/// Measured compile time: build every kernel at each of [`BUILD_SDOS`]
/// through [`Operator::build_profile`](mpix_core::Operator::build_profile)
/// and return one row per `(kernel, sdo)` as pretty JSON — the median
/// build time in ms, the median of each phase and CSE's share. The
/// `tables bench-build` subcommand writes this to `BENCH_build.json`.
///
/// Each row also records the layout the build chose: `workspace_bytes`,
/// the field buffers of a 1-rank `Workspace` built from the operator's
/// context (stencil-reach halos), and `space_order_bytes`, the same
/// fields at the pre-build default of a halo of `space_order` per side.
///
/// Each row is the median of `reps` builds (7; 1 when `quick`, with an
/// identical schema). The equations are constructed outside the timed
/// region. `arm` labels this record. With `baseline` (a record the same
/// subcommand wrote earlier, typically with the parent's compiler on the
/// same host) rows that match a baseline row by `(kernel, sdo)` gain
/// `baseline_build_ms`, `baseline_cse_share` and `speedup_vs_baseline`
/// (baseline build time over this one), and the record names the
/// baseline's arm.
pub fn bench_build_json(quick: bool, arm: &str, baseline: Option<&mpix_json::Value>) -> String {
    use mpix_core::{BuildProfile, Operator};
    use mpix_json::{json, Value};
    use mpix_solvers::ModelSpec;
    use std::time::Instant;

    let reps = if quick { 1 } else { 7 };
    let spec = ModelSpec::new(&[16, 16, 16]).with_nbl(2);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;

    let mut rows = Vec::new();
    let mut max_build_ms = 0.0f64;
    println!("\n## Operator::build time per phase ({arm}), median of {reps}");
    println!(
        "{:<14} {:>4} {:>10} {:>10} {:>9}",
        "kernel", "sdo", "build ms", "cse ms", "cse share"
    );
    for kind in KernelKind::all() {
        let equations = equations_of(kind);
        for sdo in BUILD_SDOS {
            let runs: Vec<(f64, BuildProfile)> = (0..reps)
                .map(|_| {
                    let (ctx, grid, eqs) = equations(&spec, sdo);
                    let t0 = Instant::now();
                    let (_, profile) =
                        Operator::build_profile(ctx, grid, eqs).expect("shipped operator builds");
                    (ms(t0.elapsed()), profile)
                })
                .collect();
            let phase = |f: fn(&BuildProfile) -> std::time::Duration| {
                median(runs.iter().map(|(_, p)| ms(f(p))).collect())
            };
            let build_ms = median(runs.iter().map(|(t, _)| *t).collect());
            let cse_ms = phase(|p| p.cse);
            let cse_share = cse_ms / build_ms;
            max_build_ms = max_build_ms.max(build_ms);
            let mut row = vec![
                ("kernel".to_string(), json!(kind.name())),
                ("sdo".to_string(), json!(sdo)),
                ("build_ms".to_string(), json!(build_ms)),
                ("lowering_ms".to_string(), json!(phase(|p| p.lowering))),
                ("clusterize_ms".to_string(), json!(phase(|p| p.clusterize))),
                ("cse_ms".to_string(), json!(cse_ms)),
                ("halo_ms".to_string(), json!(phase(|p| p.halo))),
                ("op_counts_ms".to_string(), json!(phase(|p| p.op_counts))),
                ("iet_ms".to_string(), json!(phase(|p| p.iet))),
                ("cse_share".to_string(), json!(cse_share)),
            ];
            let mut line = format!(
                "{:<14} {:>4} {:>10.3} {:>10.3} {:>9.3}",
                kind.name(),
                sdo,
                build_ms,
                cse_ms,
                cse_share
            );
            let key = [("kernel", json!(kind.name())), ("sdo", json!(sdo))];
            let base = baseline_row(baseline, "builds", &key);
            let base_ms = base.and_then(|r| r.get("build_ms")?.as_f64());
            let base_share = base.and_then(|r| r.get("cse_share")?.as_f64());
            if let (Some(b), Some(share)) = (base_ms, base_share) {
                row.push(("baseline_build_ms".to_string(), json!(b)));
                row.push(("baseline_cse_share".to_string(), json!(share)));
                row.push(("speedup_vs_baseline".to_string(), json!(b / build_ms)));
                line += &format!("   baseline {b:>9.3} ms {:>7.1}x", b / build_ms);
            }
            println!("{line}");
            rows.push(row);
        }
    }
    // Layouts are measured after every timed build: allocating and
    // dropping workspaces between builds slows the builds that follow.
    let configs = KernelKind::all()
        .into_iter()
        .flat_map(|k| BUILD_SDOS.map(|so| (k, so)));
    for (row, (kind, sdo)) in rows.iter_mut().zip(configs) {
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
        row.push(("workspace_bytes".to_string(), json!(workspace_bytes)));
        row.push(("space_order_bytes".to_string(), json!(space_order_bytes)));
    }
    let rows: Vec<Value> = rows.into_iter().map(Value::Obj).collect();
    json!({
        "arm": arm,
        "baseline_arm": baseline_arm(baseline),
        "grid": vec![16, 16, 16],
        "nbl": 2,
        "quick": quick,
        "reps": reps,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "max_build_ms": max_build_ms,
        "builds": rows,
    })
    .pretty()
}

/// Space orders `tables bench-verify` gates every kernel at.
pub const VERIFY_SDOS: [u32; 3] = [4, 8, 16];
/// Halo modes `tables bench-verify` gates every operator in.
pub const VERIFY_MODES: [mpix_dmp::HaloMode; 2] =
    [mpix_dmp::HaloMode::Basic, mpix_dmp::HaloMode::Diagonal];
/// Rank counts `tables bench-verify` gates every operator on.
pub const VERIFY_RANKS: [usize; 2] = [1, 2];

/// Measured verify-gate time: the gate `Operator::run` applies with
/// `verify` on ([`AnalysisConfig::for_run`](mpix_analysis::AnalysisConfig::for_run)
/// on `jit`), for every kernel × [`VERIFY_SDOS`] × [`VERIFY_MODES`] ×
/// [`VERIFY_RANKS`] on the largest `serve-mixed` grid (24³ + 4-cell
/// absorbing layer). Returns one row per configuration as pretty JSON:
/// the number of exchange keys and the median gate time in ms. The
/// `tables bench-verify` subcommand writes this to `BENCH_verify.json`.
///
/// Each row is the median of `reps` gate calls (7; 1 when `quick`, with
/// an identical schema); operators are built outside the timed region.
/// `arm` labels this record. With `baseline` (a record the same
/// subcommand wrote earlier, typically against the parent's analysis
/// crate on the same host) rows that match a baseline row by
/// `(kernel, sdo, mode, ranks)` gain `baseline_verify_ms` and
/// `speedup_vs_baseline` (baseline time over this one), and the record
/// names the baseline's arm.
pub fn bench_verify_json(quick: bool, arm: &str, baseline: Option<&mpix_json::Value>) -> String {
    use mpix_analysis::AnalysisConfig;
    use mpix_codegen::Backend;
    use mpix_core::Operator;
    use mpix_json::{json, Value};
    use mpix_solvers::ModelSpec;
    use std::time::Instant;

    let reps = if quick { 1 } else { 7 };
    let spec = ModelSpec::new(&[24, 24, 24]).with_nbl(4);

    let mut rows = Vec::new();
    let mut max_verify_ms = 0.0f64;
    println!("\n## verify gate time ({arm}, jit), median of {reps}");
    println!(
        "{:<14} {:>4} {:<9} {:>5} {:>5} {:>10}",
        "kernel", "sdo", "mode", "ranks", "keys", "verify ms"
    );
    for kind in KernelKind::all() {
        let equations = equations_of(kind);
        for sdo in VERIFY_SDOS {
            let (ctx, grid, eqs) = equations(&spec, sdo);
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
                    let verify_ms = median(times);
                    max_verify_ms = max_verify_ms.max(verify_ms);
                    let mode = format!("{mode:?}").to_lowercase();
                    let mut row = vec![
                        ("kernel".to_string(), json!(kind.name())),
                        ("sdo".to_string(), json!(sdo)),
                        ("mode".to_string(), json!(mode.as_str())),
                        ("ranks".to_string(), json!(ranks)),
                        ("keys".to_string(), json!(keys)),
                        ("verify_ms".to_string(), json!(verify_ms)),
                    ];
                    let mut line = format!(
                        "{:<14} {:>4} {:<9} {:>5} {:>5} {:>10.3}",
                        kind.name(),
                        sdo,
                        mode,
                        ranks,
                        keys,
                        verify_ms
                    );
                    let key = [
                        ("kernel", json!(kind.name())),
                        ("sdo", json!(sdo)),
                        ("mode", json!(mode.as_str())),
                        ("ranks", json!(ranks)),
                    ];
                    let base = baseline_row(baseline, "gates", &key)
                        .and_then(|r| r.get("verify_ms")?.as_f64());
                    if let Some(b) = base {
                        row.push(("baseline_verify_ms".to_string(), json!(b)));
                        row.push(("speedup_vs_baseline".to_string(), json!(b / verify_ms)));
                        line += &format!("   baseline {b:>9.3} ms {:>6.2}x", b / verify_ms);
                    }
                    println!("{line}");
                    rows.push(Value::Obj(row));
                }
            }
        }
    }
    json!({
        "arm": arm,
        "baseline_arm": baseline_arm(baseline),
        "grid": vec![24, 24, 24],
        "nbl": 4,
        "backend": "jit",
        "quick": quick,
        "reps": reps,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "max_verify_ms": max_verify_ms,
        "gates": rows,
    })
    .pretty()
}

/// Measure per-exchange halo latency on a 2×2×2 rank grid for every
/// mode and radius, comparing the persistent-plan path against a
/// faithful reproduction of the pre-plan cost model (per-call box
/// computation, fresh pack vector, `f32`→bytes conversion, byte-envelope
/// send, bytes→`f32` conversion on receive — four copies and three
/// allocations per message). Returns the `BENCH_comm.json` payload.
pub fn bench_halo_json(quick: bool) -> String {
    bench_halo_json_opts(quick, false)
}

/// [`bench_halo_json`] plus an optional ranks-sweep axis (`--ranks-sweep`):
/// weak-scaled diagonal exchanges at P ∈ {8, 32, 128, 256, 512}.
pub fn bench_halo_json_opts(quick: bool, ranks_sweep: bool) -> String {
    use mpix_comm::comm::{bytes_to_f32, f32_to_bytes};
    use mpix_comm::{CartComm, RecvRequest, Universe};
    use mpix_dmp::{BoxNd, Decomposition, DistArray, HaloExchanger, HaloMode, HaloPlan};
    use mpix_json::json;
    use mpix_trace::Tracer;
    use std::sync::Arc;
    use std::time::Instant;

    let dims = vec![2usize, 2, 2];
    let nranks: usize = dims.iter().product();
    let edge = 16usize; // 8³ points per rank: small, alloc-dominated messages
    let radii: Vec<usize> = if quick { vec![1, 4] } else { vec![1, 2, 3, 4] };
    let (warmup, iters) = if quick {
        (3u32, 25u32)
    } else {
        (20u32, 250u32)
    };
    // Each timed block repeats `reps` times; the fastest repetition is
    // reported. OS scheduling noise only ever adds time, so the minimum
    // is the least-noise estimate of the true exchange cost. Both arms
    // get identical treatment.
    let reps = if quick { 1u32 } else { 7u32 };

    // One exchange the way the pre-plan path did it: geometry re-derived
    // per call, byte-typed envelopes, fresh buffers everywhere.
    fn legacy_exchange(cart: &CartComm, arr: &mut DistArray, plan: &HaloPlan) {
        for step in 0..plan.num_steps() {
            let rows = plan.step_view(step);
            let mut reqs: Vec<(RecvRequest, BoxNd)> = Vec::with_capacity(rows.len());
            for (peer, _, recv_tag, _, recv_box) in &rows {
                reqs.push((cart.comm().irecv(*peer, *recv_tag), recv_box.clone()));
            }
            for (peer, send_tag, _, send_box, _) in &rows {
                let mut buf = Vec::new();
                arr.pack_box(send_box, &mut buf);
                cart.comm().isend(*peer, *send_tag, &f32_to_bytes(&buf));
            }
            for (req, recv_box) in reqs {
                let data = req.wait();
                arr.unpack_box(&recv_box, &bytes_to_f32(&data));
            }
        }
    }

    let mut rows = Vec::new();
    println!(
        "\n## Halo exchange latency: persistent plan vs pre-plan path, \
         {nranks} ranks (2×2×2), {edge}³ global, {iters} iters"
    );
    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>9} {:>6} {:>10} {:>11}",
        "mode",
        "radius",
        "plan µs/ex",
        "legacy µs/ex",
        "speedup",
        "msgs",
        "bytes/ex",
        "steady-alloc"
    );
    for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
        for &radius in &radii {
            let dims_c = dims.clone();
            let out = Universe::run(nranks, move |comm| {
                let cart = CartComm::new(comm, &dims_c);
                let dc = Arc::new(Decomposition::new(&[edge, edge, edge], &dims_c));
                let coords = cart.coords().to_vec();
                let mut arr = DistArray::new(dc, &coords, radius.max(2));
                arr.fill_global_slice(&[0..edge, 0..edge, 0..edge], 1.0);

                // Plan arm: build + prime during warm-up, then time.
                let mut ex = HaloExchanger::new(mode);
                let mut tracer = Tracer::off();
                for _ in 0..warmup {
                    ex.exchange(&cart, &mut arr, radius, 0, &mut tracer);
                }
                cart.comm().barrier();
                cart.comm().reset_stats();
                let mut plan_secs = f64::INFINITY;
                for _ in 0..reps {
                    cart.comm().barrier();
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        ex.exchange(&cart, &mut arr, radius, 0, &mut tracer);
                    }
                    cart.comm().barrier();
                    plan_secs = plan_secs.min(t0.elapsed().as_secs_f64());
                }
                let stats = cart.comm().stats();

                // Legacy arm: same geometry (taken from a plan), pre-plan
                // cost model. Distinct tag base so arms can't cross-match.
                let geo = HaloPlan::build(&cart, &arr, mode, radius, 4096);
                for _ in 0..warmup {
                    legacy_exchange(&cart, &mut arr, &geo);
                }
                let mut legacy_secs = f64::INFINITY;
                for _ in 0..reps {
                    cart.comm().barrier();
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        legacy_exchange(&cart, &mut arr, &geo);
                    }
                    cart.comm().barrier();
                    legacy_secs = legacy_secs.min(t0.elapsed().as_secs_f64());
                }
                (
                    plan_secs,
                    legacy_secs,
                    stats.msgs_sent,
                    stats.bytes_sent,
                    stats.bufs_allocated,
                )
            });
            // Slowest rank defines the exchange latency; allocations are
            // summed (the steady-state contract is zero everywhere).
            let plan_secs = out.iter().map(|r| r.0).fold(0.0, f64::max);
            let legacy_secs = out.iter().map(|r| r.1).fold(0.0, f64::max);
            let timed_exchanges = (iters * reps) as u64;
            let msgs_per_ex: u64 = out.iter().map(|r| r.2).sum::<u64>() / timed_exchanges;
            let bytes_per_ex: u64 = out.iter().map(|r| r.3).sum::<u64>() / timed_exchanges;
            let steady_allocs: u64 = out.iter().map(|r| r.4).sum();
            let plan_us = plan_secs / iters as f64 * 1e6;
            let legacy_us = legacy_secs / iters as f64 * 1e6;
            let speedup = legacy_us / plan_us;
            println!(
                "{:<10} {:>6} {:>12.2} {:>12.2} {:>8.2}x {:>6} {:>10} {:>11}",
                format!("{mode:?}").to_lowercase(),
                radius,
                plan_us,
                legacy_us,
                speedup,
                msgs_per_ex,
                bytes_per_ex,
                steady_allocs,
            );
            rows.push(json!({
                "mode": format!("{mode:?}").to_lowercase(),
                "radius": radius,
                "plan_us_per_exchange": plan_us,
                "legacy_us_per_exchange": legacy_us,
                "speedup": speedup,
                "msgs_per_exchange": msgs_per_ex,
                "bytes_per_exchange": bytes_per_ex,
                "steady_state_bufs_allocated": steady_allocs,
            }));
        }
    }
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
    let ratio = median(ratios.map(|(after, before)| after / before).collect());
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

    let sweep_rows = if ranks_sweep {
        ranks_sweep_rows(quick)
    } else {
        Vec::new()
    };

    json!({
        "grid": vec![edge, edge, edge],
        "rank_dims": dims,
        "ranks": nranks,
        "iters": iters,
        "quick": quick,
        "exchanges": rows,
        "ranks_sweep": sweep_rows,
        "sanitizer": json!({
            "disabled_us_per_exchange": disabled_before_us,
            "enabled_us_per_exchange": enabled_us,
            "disabled_after_us_per_exchange": disabled_after_us,
            "disabled_overhead_pct": overhead_pct,
        }),
    })
    .pretty()
}

/// Weak-scaling ranks sweep: 8³ points per rank, diagonal (26-neighbour)
/// exchange at radius 2, swept over P ∈ {8, 32, 128, 256, 512} (quick:
/// {8, 32}). Reports the slowest rank's µs per exchange and the
/// receive parks per exchange (futex round-trips after the yield
/// budget ran out — the contention signal), and asserts the
/// machine-independent contract: zero steady-state buffer allocations
/// at every P. Ranks are threads, so on a host with few cores the
/// wall-clock column measures scheduling and copy cost, not a
/// cluster's network.
fn ranks_sweep_rows(quick: bool) -> Vec<mpix_json::Value> {
    use mpix_comm::{dims_create, CartComm, Universe};
    use mpix_dmp::{Decomposition, DistArray, HaloExchanger, HaloMode};
    use mpix_json::json;
    use mpix_trace::Tracer;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let plist: &[usize] = if quick {
        &[8, 32]
    } else {
        &[8, 32, 128, 256, 512]
    };
    let radius = 2usize;
    let per_rank_edge = 8usize;
    let reps = if quick { 1u32 } else { 3u32 };

    let mut rows = Vec::new();
    println!("\n## Ranks sweep: diagonal radius-{radius} exchange, {per_rank_edge}³ points/rank");
    println!(
        "{:>6} {:>12} {:>10} {:>10} {:>13}",
        "ranks", "dims", "µs/ex", "parks/ex", "steady-alloc"
    );
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
            // Fastest of `reps` timed blocks: scheduling noise only ever
            // adds time.
            let mut secs = f64::INFINITY;
            for _ in 0..reps {
                cart.comm().barrier();
                let t0 = Instant::now();
                for _ in 0..iters {
                    ex.exchange(&cart, &mut arr, radius, 0, &mut tracer);
                }
                cart.comm().barrier();
                secs = secs.min(t0.elapsed().as_secs_f64());
            }
            let stats = cart.comm().stats();
            (secs, stats.recv_parks, stats.bufs_allocated)
        });
        let secs = out.iter().map(|r| r.0).fold(0.0, f64::max);
        let parks: u64 = out.iter().map(|r| r.1).sum();
        let allocs: u64 = out.iter().map(|r| r.2).sum();
        let us = secs / iters as f64 * 1e6;
        let parks_ex = parks as f64 / (iters * reps) as f64;
        println!(
            "{:>6} {:>12} {:>10.1} {:>10.1} {:>13}",
            p,
            format!("{dims:?}"),
            us,
            parks_ex,
            allocs
        );
        assert_eq!(
            allocs, 0,
            "halo exchange allocated in steady state at P={p}"
        );
        rows.push(json!({
            "ranks": p,
            "rank_dims": dims,
            "points_per_rank": per_rank_edge * per_rank_edge * per_rank_edge,
            "radius": radius,
            "us_per_exchange": us,
            "recv_parks_per_exchange": parks_ex,
            "steady_state_bufs_allocated": allocs,
        }));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by the halo bench's timing gate and by every other test that
    /// times work (the kernel, build and verify benches), whose rank
    /// threads and JIT compiles would otherwise share the cores with the
    /// gate's two timed arms.
    static TIMED: std::sync::Mutex<()> = std::sync::Mutex::new(());

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
    /// silently falling back to the interpreter everywhere).
    #[test]
    fn bench_kernels_has_backend_rows_and_jit_wins_somewhere() {
        use mpix_core::{available_backends, Backend};
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());

        let out = bench_kernels_json(true);
        let v = mpix_json::Value::parse(&out).expect("valid JSON");
        let rows = v
            .get("kernels")
            .and_then(mpix_json::Value::as_array)
            .unwrap();
        let have_jit = available_backends().contains(&Backend::Jit);
        let backends_per_group = if have_jit { 2 } else { 1 };
        // 4 kernels × 4 SDOs × backends.
        assert_eq!(rows.len(), 16 * backends_per_group, "{out}");
        for row in rows {
            assert!(row
                .get("backend")
                .and_then(mpix_json::Value::as_str)
                .is_some());
            assert!(row.get("gpts").and_then(mpix_json::Value::as_f64).unwrap() > 0.0);
        }
        if have_jit {
            let gpts_of = |backend: &str| -> Vec<f64> {
                rows.iter()
                    .filter(|r| {
                        r.get("backend").and_then(mpix_json::Value::as_str) == Some(backend)
                    })
                    .map(|r| r.get("gpts").and_then(mpix_json::Value::as_f64).unwrap())
                    .collect()
            };
            let jit = gpts_of("jit");
            let bytecode = gpts_of("bytecode");
            assert!(
                jit.iter().zip(&bytecode).any(|(j, b)| j > b),
                "jit never beat the vectorized interpreter:\n{out}"
            );
        }
    }

    /// Schema of the quick build bench: one row per kernel × SDO with
    /// every phase and the CSE share, and a baseline's rows joined by
    /// `(kernel, sdo)`.
    #[test]
    fn bench_build_quick_rows_and_schema() {
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
        let first = bench_build_json(true, "first", None);
        let v = mpix_json::Value::parse(&first).expect("valid JSON");
        assert_eq!(v.get("baseline_arm"), Some(&mpix_json::Value::Null));
        let out = bench_build_json(true, "second", Some(&v));
        let v = mpix_json::Value::parse(&out).expect("valid JSON");
        assert_eq!(
            v.get("baseline_arm").and_then(mpix_json::Value::as_str),
            Some("first")
        );
        let rows = v
            .get("builds")
            .and_then(mpix_json::Value::as_array)
            .unwrap();
        assert_eq!(rows.len(), 4 * BUILD_SDOS.len(), "{out}");
        for row in rows {
            let mut keys: Vec<&str> = row
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            keys.sort_unstable();
            assert_eq!(
                keys,
                [
                    "baseline_build_ms",
                    "baseline_cse_share",
                    "build_ms",
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
                    "speedup_vs_baseline",
                    "workspace_bytes",
                ],
                "{out}"
            );
            let bytes = |k: &str| row.get(k).and_then(mpix_json::Value::as_u64).unwrap();
            // Every shipped stencil reads at most `so / 2` points out, so
            // the reach-sized layout is always the smaller.
            assert!(bytes("workspace_bytes") > 0, "{out}");
            assert!(
                bytes("workspace_bytes") < bytes("space_order_bytes"),
                "{out}"
            );
            let share = row
                .get("cse_share")
                .and_then(mpix_json::Value::as_f64)
                .unwrap();
            assert!((0.0..=1.0).contains(&share), "{out}");
            assert!(
                row.get("build_ms")
                    .and_then(mpix_json::Value::as_f64)
                    .unwrap()
                    > 0.0
            );
        }
    }

    /// Schema of the quick verify bench: one row per kernel × SDO × mode
    /// × ranks with the key count and gate time, and a baseline's rows
    /// joined by `(kernel, sdo, mode, ranks)`.
    #[test]
    fn bench_verify_quick_rows_and_schema() {
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
        let first = bench_verify_json(true, "first", None);
        let v = mpix_json::Value::parse(&first).expect("valid JSON");
        assert_eq!(v.get("baseline_arm"), Some(&mpix_json::Value::Null));
        let out = bench_verify_json(true, "second", Some(&v));
        let v = mpix_json::Value::parse(&out).expect("valid JSON");
        assert_eq!(
            v.get("baseline_arm").and_then(mpix_json::Value::as_str),
            Some("first")
        );
        let rows = v.get("gates").and_then(mpix_json::Value::as_array).unwrap();
        assert_eq!(
            rows.len(),
            4 * VERIFY_SDOS.len() * VERIFY_MODES.len() * VERIFY_RANKS.len(),
            "{out}"
        );
        for row in rows {
            let mut keys: Vec<&str> = row
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            keys.sort_unstable();
            assert_eq!(
                keys,
                [
                    "baseline_verify_ms",
                    "kernel",
                    "keys",
                    "mode",
                    "ranks",
                    "sdo",
                    "speedup_vs_baseline",
                    "verify_ms",
                ],
                "{out}"
            );
            let get = |k: &str| row.get(k).and_then(mpix_json::Value::as_f64).unwrap();
            assert!(get("keys") >= 1.0 && get("verify_ms") > 0.0, "{out}");
        }
    }

    /// Smoke for the ranks-sweep axis: the quick sweep must emit one row
    /// per swept P in the single-arm schema, each with the
    /// zero-allocation steady state. Also pins the mode×radius row count
    /// so `--ranks-sweep` cannot silently drop the existing axis.
    #[test]
    fn bench_halo_quick_emits_exchange_and_ranks_sweep_rows() {
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
        let out = bench_halo_json_opts(true, true);
        let v = mpix_json::Value::parse(&out).expect("valid JSON");
        let rows = v
            .get("exchanges")
            .and_then(mpix_json::Value::as_array)
            .unwrap();
        // Quick mode: 3 modes × 2 radii.
        assert_eq!(rows.len(), 6, "{out}");
        for row in rows {
            let plan = row
                .get("plan_us_per_exchange")
                .and_then(mpix_json::Value::as_f64)
                .unwrap();
            assert!(plan > 0.0, "{out}");
        }
        let sweep = v
            .get("ranks_sweep")
            .and_then(mpix_json::Value::as_array)
            .unwrap();
        let ranks: Vec<u64> = sweep
            .iter()
            .map(|r| r.get("ranks").and_then(mpix_json::Value::as_u64).unwrap())
            .collect();
        assert_eq!(ranks, vec![8, 32], "{out}");
        for row in sweep {
            let mut keys: Vec<&str> = row
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            keys.sort_unstable();
            assert_eq!(
                keys,
                [
                    "points_per_rank",
                    "radius",
                    "rank_dims",
                    "ranks",
                    "recv_parks_per_exchange",
                    "steady_state_bufs_allocated",
                    "us_per_exchange",
                ],
                "{out}"
            );
            let us = row
                .get("us_per_exchange")
                .and_then(mpix_json::Value::as_f64)
                .unwrap();
            assert!(us > 0.0, "{out}");
            assert_eq!(
                row.get("steady_state_bufs_allocated")
                    .and_then(mpix_json::Value::as_u64),
                Some(0),
                "{out}"
            );
        }
    }
}
