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
            if mode.preallocates_buffers() {
                "pre-alloc"
            } else {
                "runtime"
            }
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
/// rank at SDO 4/8/12/16 under every execution backend — the scalar
/// interpreter (`vector_width = 0`, the paper's generated-C baseline
/// shape), the lane-vectorized interpreter strips (`vector_width = 16`),
/// and the native JIT where the host supports it — and return the
/// per-kernel GPts/s comparison as pretty JSON with one row per
/// `(kernel, sdo, backend)`. Speedups are relative to the scalar row.
/// The `tables bench-kernels` subcommand writes this to
/// `BENCH_kernels.json`, the perf-trajectory record for the repo.
///
/// `quick` shrinks the grid and step count to a CI smoke size (schema
/// identical; numbers not meaningful for trend tracking).
pub fn bench_kernels_json(quick: bool) -> String {
    use mpix_core::{available_backends, Backend};
    use mpix_json::json;
    use mpix_solvers::{ModelSpec, Propagator};
    use std::time::Instant;

    const VW: usize = 16;
    let (edge, nbl, nt) = if quick {
        (12usize, 2usize, 2i64)
    } else {
        (32, 4, 8)
    };
    let have_jit = available_backends().contains(&Backend::Jit);

    let mut rows = Vec::new();
    println!("\n## Backend throughput: scalar vs vector_width={VW} vs jit, {edge}\u{b3}+{nbl} ABC, nt={nt}, 1 rank");
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
            let time_run = |backend: Backend, vw: usize| -> f64 {
                let opts = p
                    .apply_options(nt)
                    .with_backend(backend)
                    .with_vector_width(vw)
                    .with_ranks(1);
                // Untimed warm-up amortizes first-touch and compilation.
                p.op.run(&opts, init, |_| ());
                let t0 = Instant::now();
                p.op.run(&opts, init, |_| ());
                t0.elapsed().as_secs_f64()
            };
            let pts = p.points_per_step() as f64 * nt as f64;
            // (row label, backend, strip width): the scalar interpreter
            // is the baseline every speedup is measured against.
            let mut configs = vec![
                ("scalar", Backend::Bytecode, 0usize),
                ("bytecode", Backend::Bytecode, VW),
            ];
            if have_jit {
                configs.push(("jit", Backend::Jit, 0));
            }
            let mut scalar = 0.0f64;
            for (label, backend, vw) in configs {
                let gpts = pts / time_run(backend, vw) / 1e9;
                if label == "scalar" {
                    scalar = gpts;
                }
                let speedup = gpts / scalar;
                println!(
                    "{:<14} {:>4} {:<9} {:>12.4} {:>8.2}x",
                    kind.name(),
                    sdo,
                    label,
                    gpts,
                    speedup
                );
                rows.push(json!({
                    "kernel": kind.name(),
                    "sdo": sdo,
                    "backend": label,
                    "gpts": gpts,
                    "speedup": speedup,
                }));
            }
        }
    }
    json!({
        "grid": vec![edge, edge, edge],
        "nbl": nbl,
        "nt": nt,
        "vector_width": VW,
        "jit_available": have_jit,
        "quick": quick,
        "kernels": rows,
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
/// weak-scaled diagonal exchanges at P ∈ {8, 32, 128, 256, 512} comparing
/// the sharded substrate against a single-shard/single-pool baseline.
pub fn bench_halo_json_opts(quick: bool, ranks_sweep: bool) -> String {
    use mpix_comm::comm::{bytes_to_f32, f32_to_bytes};
    use mpix_comm::{CartComm, RecvRequest, Universe};
    use mpix_dmp::halo::make_exchange;
    use mpix_dmp::{BoxNd, Decomposition, DistArray, HaloMode, HaloPlan};
    use mpix_json::json;
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
                let mut ex = make_exchange(mode);
                for _ in 0..warmup {
                    ex.exchange(&cart, &mut arr, radius, 0);
                }
                cart.comm().barrier();
                cart.comm().reset_stats();
                let mut plan_secs = f64::INFINITY;
                for _ in 0..reps {
                    cart.comm().barrier();
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        ex.exchange(&cart, &mut arr, radius, 0);
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
            let mut ex = make_exchange(HaloMode::Basic);
            for _ in 0..3 {
                ex.exchange(&cart, &mut arr, san_radius, 0);
            }
            let mut best = f64::INFINITY;
            for _ in 0..san_reps {
                cart.comm().barrier();
                let t0 = Instant::now();
                for _ in 0..san_iters {
                    ex.exchange(&cart, &mut arr, san_radius, 0);
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
    // measurement positions are symmetric around the run's midpoint.
    // Per-arm means then cancel any remaining linear drift exactly; a
    // fixed within-round order would hand the later arm the drift every
    // single round, which no amount of round-interleaving or robust
    // statistics can undo.
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
    let overhead_pct = (disabled_after_us / disabled_before_us - 1.0) * 100.0;
    println!(
        "\n## mpix-san overhead (basic, radius {san_radius}): disabled {disabled_before_us:.2} \
         µs/ex, enabled {enabled_us:.2} µs/ex, disabled-again {disabled_after_us:.2} µs/ex \
         ({overhead_pct:+.2}%)"
    );
    // Gate tolerance is calibrated to this harness's measured noise
    // floor, not to the cost being hunted: two *identical* disabled arms
    // differ by up to ~8% (quick mode, loaded single-core host) purely
    // from scheduling noise, while unconditional work added to the hook
    // sites lands in the +25-40% range the *enabled* arm shows. The old
    // 2% tolerance only ever passed because the cold-first-arm bias made
    // the after-arm systematically faster; with that bias fixed the gate
    // must sit above the (now symmetric) noise and below a real leak.
    let tolerance = if quick { 1.12 } else { 1.08 };
    assert!(
        disabled_after_us <= disabled_before_us * tolerance + 2.0,
        "sanitizer-disabled exchange cost regressed beyond the \
         {:.0}% noise gate: {disabled_before_us:.2}µs -> {disabled_after_us:.2}µs",
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
/// {8, 32}). Two arms differing only in substrate layout:
///
/// * **sharded** — the default `CommTuning` (16 mailbox shards per rank,
///   per-rank buffer pools with release-to-origin recycling), and
/// * **baseline** — `with_shards(1)`: one mailbox shard per rank and the
///   legacy single global pool capped at 1024 buffers, i.e. the
///   pre-shard layout, where at P ≥ 128 the pool cap (128 ranks × 52
///   primed buffers > 1024) forces steady-state allocation on every
///   exchange.
///
/// What each column can prove depends on the host. The structural
/// contracts are machine-independent and asserted: the sharded arm
/// completes every swept P with **zero** steady-state allocations, while
/// the baseline provably cannot once P ≥ 128 (its cap is 26x
/// under-provisioned at P = 512); those allocations, and `recv_parks`,
/// are the contention columns. The wall-clock speedup column is honest
/// measurement but only separates the arms on hosts with real
/// parallelism: with every rank time-slicing a single core, lock
/// contention cannot burn cycles (a blocked thread just yields the core
/// to whoever holds the lock) and both arms converge to the same serial
/// copy-plus-scheduling cost — on such hosts the column reads ~1.0x and
/// the allocation/park columns carry the signal. Each arm is sampled
/// twice in mirrored order and represented by its faster sample, so a
/// host-load excursion cannot masquerade as an arm-level difference. A
/// selected-vs-forced-binomial 32 KiB allreduce rides along to attribute
/// collective cost to the topology-aware algorithm choice.
fn ranks_sweep_rows(quick: bool) -> Vec<mpix_json::Value> {
    use mpix_comm::{dims_create, CartComm, CollectiveAlgo, CommTuning, ReduceOp, Universe};
    use mpix_dmp::halo::make_exchange;
    use mpix_dmp::{Decomposition, DistArray, HaloMode};
    use mpix_json::json;
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
    println!(
        "\n## Ranks sweep: diagonal radius-{radius} exchange, {per_rank_edge}³ points/rank, \
         sharded (16 shards, per-rank pools) vs baseline (1 shard, global pool)"
    );
    println!(
        "{:>6} {:>12} {:>15} {:>18} {:>9} {:>13} {:>15} {:>14} {:>22}",
        "ranks",
        "dims",
        "sharded µs/ex",
        "baseline µs/ex",
        "speedup",
        "parks/ex",
        "base-parks/ex",
        "base-allocs",
        "allreduce sel vs bin"
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
        let coll_iters = (256 / p).clamp(2, 32) as u32;

        // Returns (exchange secs, recv parks, steady-state allocations,
        // selected-allreduce secs, binomial-allreduce secs, algo labels).
        let run_arm = |tuning: CommTuning| -> (f64, u64, u64, f64, f64, Vec<String>) {
            let dims_c = dims.clone();
            let out = Universe::run_cfg(p, tuning, None, move |comm| {
                let cart = CartComm::new(comm, &dims_c);
                let shape: Vec<usize> = dims_c.iter().map(|d| d * per_rank_edge).collect();
                let dc = Arc::new(Decomposition::new(&shape, &dims_c));
                let coords = cart.coords().to_vec();
                let mut arr = DistArray::new(dc, &coords, radius);
                let ranges: Vec<std::ops::Range<usize>> = shape.iter().map(|&e| 0..e).collect();
                arr.fill_global_slice(&ranges, 1.0);
                let mut ex = make_exchange(HaloMode::Diagonal);
                for _ in 0..warmup {
                    ex.exchange(&cart, &mut arr, radius, 0);
                }
                cart.comm().barrier();
                cart.comm().reset_stats();
                let mut secs = f64::INFINITY;
                for _ in 0..reps {
                    cart.comm().barrier();
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        ex.exchange(&cart, &mut arr, radius, 0);
                    }
                    cart.comm().barrier();
                    secs = secs.min(t0.elapsed().as_secs_f64());
                }
                let ex_stats = cart.comm().stats();

                // Collective leg: 8192 floats = 32 KiB — the bandwidth
                // regime, where the topology-aware selection picks ring
                // on parallel hosts and a tree on oversubscribed single
                // cores. Integer-valued payloads keep all algorithms
                // bitwise-comparable.
                let rank = cart.comm().rank();
                let payload: Vec<f32> = (0..8192).map(|i| ((i + rank) % 17) as f32).collect();
                cart.comm().reset_stats();
                cart.comm().barrier();
                let t0 = Instant::now();
                for _ in 0..coll_iters {
                    let _ = cart.comm().allreduce_f32(&payload, ReduceOp::Sum);
                }
                cart.comm().barrier();
                let selected_secs = t0.elapsed().as_secs_f64();
                let algos: Vec<String> = cart
                    .comm()
                    .stats()
                    .collective_algos
                    .keys()
                    .cloned()
                    .collect();
                cart.comm().barrier();
                let t0 = Instant::now();
                for _ in 0..coll_iters {
                    let _ = cart.comm().allreduce_f32_with(
                        &payload,
                        ReduceOp::Sum,
                        CollectiveAlgo::Binomial,
                    );
                }
                cart.comm().barrier();
                let binomial_secs = t0.elapsed().as_secs_f64();
                (
                    secs,
                    ex_stats.recv_parks,
                    ex_stats.bufs_allocated,
                    selected_secs,
                    binomial_secs,
                    algos,
                )
            });
            let secs = out.iter().map(|r| r.0).fold(0.0, f64::max);
            let parks: u64 = out.iter().map(|r| r.1).sum();
            let allocs: u64 = out.iter().map(|r| r.2).sum();
            let sel = out.iter().map(|r| r.3).fold(0.0, f64::max);
            let bin = out.iter().map(|r| r.4).fold(0.0, f64::max);
            let algos = out.into_iter().next().map(|r| r.5).unwrap_or_default();
            (secs, parks, allocs, sel, bin, algos)
        };

        // Identical waiting knobs in both arms (the seed's 32-yield spin
        // budget is the default); only the shard/pool layout differs, so
        // the columns measure sharding and nothing else. The generous
        // timeout keeps the P=512 leg from tripping the deadlock
        // detector under heavy scheduling delay.
        //
        // Same palindromic discipline as the sanitizer smoke: each arm
        // is sampled twice in mirrored order (sharded, baseline,
        // baseline, sharded) so a host-load excursion cannot land on one
        // arm's only sample, and the faster sample represents each arm —
        // scheduling noise only ever adds time. The allocation contracts
        // below are checked on *both* samples of each arm.
        let common = CommTuning::default().with_recv_timeout(Duration::from_secs(300));
        let sh_a = run_arm(common.clone());
        let bl_a = run_arm(common.clone().with_shards(1));
        let bl_b = run_arm(common.clone().with_shards(1));
        let sh_b = run_arm(common.clone());
        let pick = |a: (f64, u64, u64, f64, f64, Vec<String>),
                    b: (f64, u64, u64, f64, f64, Vec<String>)| {
            if a.0 <= b.0 {
                a
            } else {
                b
            }
        };
        let sh_allocs_both = [sh_a.2, sh_b.2];
        let bl_allocs_both = [bl_a.2, bl_b.2];
        let (sh_secs, sh_parks, sh_allocs, sh_sel, sh_bin, algos) = pick(sh_a, sh_b);
        let (bl_secs, bl_parks, bl_allocs, bl_sel, bl_bin, _) = pick(bl_a, bl_b);

        let timed = (iters * reps) as f64;
        let sh_us = sh_secs / iters as f64 * 1e6;
        let bl_us = bl_secs / iters as f64 * 1e6;
        let speedup = bl_us / sh_us;
        let sh_parks_ex = sh_parks as f64 / timed;
        let bl_parks_ex = bl_parks as f64 / timed;
        let sel_us = sh_sel.min(bl_sel) / coll_iters as f64 * 1e6;
        let bin_us = sh_bin.min(bl_bin) / coll_iters as f64 * 1e6;
        let algo = algos.join(",");
        println!(
            "{:>6} {:>12} {:>15.1} {:>18.1} {:>8.2}x {:>13.1} {:>15.1} {:>14} {:>10.1} / {:>7.1}",
            p,
            format!("{dims:?}"),
            sh_us,
            bl_us,
            speedup,
            sh_parks_ex,
            bl_parks_ex,
            bl_allocs,
            sel_us,
            bin_us,
        );
        // The machine-independent contracts (see the fn docs): the
        // sharded arm keeps the zero-allocation steady state at every P,
        // and the baseline demonstrably loses it once its global pool
        // cap is exceeded (P ≥ 128: 128 ranks × 52 primed buffers
        // > 1024-buffer cap) — that structural gap, not the wall-clock
        // column, is what a single-core host can prove about sharding.
        for sh in sh_allocs_both {
            assert_eq!(sh, 0, "sharded arm allocated in steady state at P={p}");
        }
        if p >= 128 {
            for bl in bl_allocs_both {
                assert!(
                    bl > 0,
                    "baseline (global pool, cap 1024) unexpectedly stayed allocation-free \
                     at P={p}; the sweep is no longer exercising the pool-cap regime"
                );
            }
        }
        rows.push(json!({
            "ranks": p,
            "rank_dims": dims,
            "points_per_rank": per_rank_edge * per_rank_edge * per_rank_edge,
            "radius": radius,
            "sharded_us_per_exchange": sh_us,
            "baseline_us_per_exchange": bl_us,
            "speedup": speedup,
            "sharded_recv_parks_per_exchange": sh_parks_ex,
            "baseline_recv_parks_per_exchange": bl_parks_ex,
            "sharded_steady_state_bufs_allocated": sh_allocs,
            "baseline_steady_state_bufs_allocated": bl_allocs,
            "allreduce_algo": algo,
            "allreduce_selected_us": sel_us,
            "allreduce_binomial_us": bin_us,
        }));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

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

        let out = bench_kernels_json(true);
        let v = mpix_json::Value::parse(&out).expect("valid JSON");
        let rows = v
            .get("kernels")
            .and_then(mpix_json::Value::as_array)
            .unwrap();
        let have_jit = available_backends().contains(&Backend::Jit);
        let backends_per_group = if have_jit { 3 } else { 2 };
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

    /// Smoke for the ranks-sweep axis: the quick sweep must emit one row
    /// per swept P with both arms measured, the sharded arm must keep
    /// the zero-allocation steady-state contract, and the collective leg
    /// must attribute its cost to a named algorithm. Also pins the
    /// mode×radius row count so `--ranks-sweep` cannot silently drop the
    /// existing axis.
    #[test]
    fn bench_halo_quick_emits_exchange_and_ranks_sweep_rows() {
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
            for key in ["sharded_us_per_exchange", "baseline_us_per_exchange"] {
                let us = row.get(key).and_then(mpix_json::Value::as_f64).unwrap();
                assert!(us > 0.0, "{key}: {out}");
            }
            assert_eq!(
                row.get("sharded_steady_state_bufs_allocated")
                    .and_then(mpix_json::Value::as_u64),
                Some(0),
                "{out}"
            );
            let algo = row
                .get("allreduce_algo")
                .and_then(mpix_json::Value::as_str)
                .unwrap();
            assert!(algo.contains("allreduce_f32/"), "{algo}: {out}");
        }
    }
}
