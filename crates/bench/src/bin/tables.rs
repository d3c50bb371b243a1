//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p mpix-bench --release --bin tables            # everything
//! cargo run -p mpix-bench --release --bin tables -- strong-cpu
//! cargo run -p mpix-bench --release --bin tables -- strong-gpu
//! cargo run -p mpix-bench --release --bin tables -- weak
//! cargo run -p mpix-bench --release --bin tables -- fig7
//! cargo run -p mpix-bench --release --bin tables -- table1
//! cargo run -p mpix-bench --release --bin tables -- trends
//! cargo run -p mpix-bench --release --bin tables -- validate   # real multi-rank runs
//! cargo run -p mpix-bench --release --bin tables -- perf       # per-rank PerfSummary
//! cargo run -p mpix-bench --release --bin tables -- bench-kernels [--quick] [--baseline=FILE]
//! #   scalar vs vectorized interpreter vs jit GPts/s -> BENCH_kernels.json
//! #   --baseline adds each row's ratio to an earlier record's
//! cargo run -p mpix-bench --release --bin tables -- bench-build [--quick] [--arm=LABEL] [--baseline=FILE]
//! #   Operator::build time per phase, every kernel x SDO 2..16 -> BENCH_build.json
//! #   --arm labels the record; --baseline adds each row's ratio to an earlier one
//! cargo run -p mpix-bench --release --bin tables -- bench-verify [--quick] [--arm=LABEL] [--baseline=FILE]
//! #   Operator::run's verify gate (jit), kernel x SDO {4,8,16} x {basic,diagonal}
//! #   x ranks {1,2} -> BENCH_verify.json; --arm/--baseline as for bench-build
//! cargo run -p mpix-bench --release --bin tables -- bench-halo [--quick] [--ranks-sweep]
//! #   persistent-plan vs legacy halo exchange latency -> BENCH_comm.json
//! #   --ranks-sweep adds weak-scaled P in {8,32,128,256,512}: diagonal
//! #   exchange µs, receive parks, steady-state allocations (asserted 0)
//! ```

use mpix_bench::tables;
use mpix_core::Workspace;
use mpix_dmp::HaloMode;
use mpix_solvers::{KernelKind, ModelSpec, Propagator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "table1" => tables::print_table1(),
        "fig7" => tables::print_fig7(),
        "strong-cpu" => strong_cpu(&args),
        "strong-gpu" => strong_gpu(&args),
        "strong" => {
            strong_cpu(&args);
            strong_gpu(&args);
        }
        "weak" => {
            for sdo in sdo_filter(&args) {
                tables::print_weak(sdo);
            }
        }
        "trends" => {
            tables::trend_report();
            tables::accuracy_report();
        }
        "validate" => validate(),
        "perf" => tables::print_perf(),
        "bench-kernels" => bench_kernels(&args),
        "bench-halo" => bench_halo(&args),
        "bench-build" => bench_build(&args),
        "bench-verify" => bench_verify(&args),
        "json" => println!("{}", tables::json_dump()),
        "crossovers" => tables::print_crossovers(),
        "all" => {
            tables::print_table1();
            tables::print_fig7();
            strong_cpu(&args);
            strong_gpu(&args);
            for sdo in [4, 8, 12, 16] {
                tables::print_weak(sdo);
            }
            tables::trend_report();
            tables::accuracy_report();
            tables::print_crossovers();
            validate();
            tables::print_perf();
        }
        other => {
            eprintln!("unknown experiment {other:?}; see the header comment");
            std::process::exit(1);
        }
    }
}

/// Measure per-backend kernel throughput (bytecode vs jit) and write the JSON
/// record to `BENCH_kernels.json` (`--quick` = CI smoke size;
/// `--baseline=FILE` compares every row against an earlier record).
fn bench_kernels(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let baseline = baseline_arg(args);
    let json = tables::bench_kernels_json_vs(quick, baseline.as_ref());
    let path = "BENCH_kernels.json";
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("\nwrote {path}");
}

/// Measure `Operator::build` per phase for every kernel × SDO and write
/// the record to `BENCH_build.json` (`--quick` = one build per row;
/// `--arm=LABEL` names the record, default `current`;
/// `--baseline=FILE` compares every row against an earlier record).
fn bench_build(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let arm = arm_arg(args);
    let baseline = baseline_arg(args);
    let json = tables::bench_build_json(quick, arm, baseline.as_ref());
    let path = "BENCH_build.json";
    std::fs::write(path, &json).expect("write BENCH_build.json");
    println!("\nwrote {path}");
}

/// Measure the verify gate for every kernel × SDO × mode × ranks and
/// write the record to `BENCH_verify.json` (`--quick` = one gate call
/// per row; `--arm=LABEL` names the record, default `current`;
/// `--baseline=FILE` compares every row against an earlier record).
fn bench_verify(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let arm = arm_arg(args);
    let baseline = baseline_arg(args);
    let json = tables::bench_verify_json(quick, arm, baseline.as_ref());
    let path = "BENCH_verify.json";
    std::fs::write(path, &json).expect("write BENCH_verify.json");
    println!("\nwrote {path}");
}

/// The record label named by `--arm=LABEL`, default `current`.
fn arm_arg(args: &[String]) -> &str {
    args.iter()
        .find_map(|a| a.strip_prefix("--arm="))
        .unwrap_or("current")
}

/// The record named by `--baseline=FILE`, if given.
fn baseline_arg(args: &[String]) -> Option<mpix_json::Value> {
    args.iter()
        .find_map(|a| a.strip_prefix("--baseline="))
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("--baseline={path}: cannot read: {e}"));
            mpix_json::Value::parse(&text)
                .unwrap_or_else(|e| panic!("--baseline={path}: not a JSON record: {e:?}"))
        })
}

/// Measure persistent-plan vs legacy halo-exchange latency per mode and
/// radius and write the record to `BENCH_comm.json` (`--quick` = CI
/// smoke size; `--ranks-sweep` adds the weak-scaling P ∈ {8..512} axis
/// comparing the sharded substrate against the single-shard baseline).
fn bench_halo(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let ranks_sweep = args.iter().any(|a| a == "--ranks-sweep");
    let json = tables::bench_halo_json_opts(quick, ranks_sweep);
    let path = "BENCH_comm.json";
    std::fs::write(path, &json).expect("write BENCH_comm.json");
    println!("\nwrote {path}");
}

fn sdo_filter(args: &[String]) -> Vec<u32> {
    args.iter()
        .position(|a| a == "--sdo")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .map(|s| vec![s])
        .unwrap_or_else(|| vec![4, 8, 12, 16])
}

fn strong_cpu(args: &[String]) {
    for kind in KernelKind::all() {
        for sdo in sdo_filter(args) {
            tables::print_cpu_table(kind, sdo);
        }
    }
}

fn strong_gpu(args: &[String]) {
    for kind in KernelKind::all() {
        for sdo in sdo_filter(args) {
            tables::print_gpu_table(kind, sdo);
        }
    }
}

/// Run every kernel for real on 1 and 8 simulated ranks, all modes, and
/// report numerical deviation plus measured message counts — grounding
/// the model in executed code.
fn validate() {
    println!("\n## Validation: real simulated-MPI runs (8 ranks vs serial), so-4, 16³+ABC");
    println!(
        "{:<14} {:<10} {:>14} {:>12} {:>13}",
        "kernel", "mode", "max rel. dev.", "msgs/rank", "GPts/s (real)"
    );
    for kind in KernelKind::all() {
        let spec = ModelSpec::new(&[16, 16, 16]).with_nbl(2);
        let p = Propagator::build(kind, spec, 4);
        let nt = 8i64;
        let opts = p.apply_options(nt);
        let pref = &p;
        let init = move |ws: &mut Workspace| {
            pref.init(ws);
            pref.add_ricker_source(ws, 18.0, nt as usize);
        };
        let serial =
            p.op.run(&opts, init, |ws| ws.gather(pref.main_field()))
                .results
                .remove(0);
        for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
            let opts = opts.clone().with_mode(mode).with_ranks(8);
            let t0 = std::time::Instant::now();
            let out =
                p.op.run(&opts, init, |ws| {
                    (
                        ws.gather(pref.main_field()),
                        ws.cart.comm().stats().msgs_sent,
                    )
                })
                .results;
            let wall = t0.elapsed().as_secs_f64();
            let mut max_dev = 0.0f64;
            for (a, b) in out[0].0.iter().zip(&serial) {
                let dev = ((a - b).abs() / b.abs().max(1.0)) as f64;
                max_dev = max_dev.max(dev);
            }
            let msgs = out.iter().map(|(_, m)| m).max().unwrap();
            let gpts = p.points_per_step() as f64 * nt as f64 / wall / 1e9;
            println!(
                "{:<14} {:<10} {:>14.2e} {:>12} {:>13.4}",
                kind.name(),
                format!("{mode:?}"),
                max_dev,
                msgs,
                gpts
            );
            assert!(max_dev < 1e-3, "{kind:?} {mode:?} diverged: {max_dev}");
        }
    }
    println!("all modes numerically equivalent to serial execution ✓");
}
