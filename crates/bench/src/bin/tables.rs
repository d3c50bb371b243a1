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
//! cargo run -p mpix-bench --release --bin tables -- bench-kernels
//! #   bytecode vs jit GPts/s, blocking on/off, trace levels -> BENCH_kernels.json
//! cargo run -p mpix-bench --release --bin tables -- bench-build
//! #   Operator::build time per phase, every kernel x SDO 2..16 -> BENCH_build.json
//! cargo run -p mpix-bench --release --bin tables -- bench-verify
//! #   Operator::run's verify gate (jit), kernel x SDO {4,8,16} x {basic,diagonal}
//! #   x ranks {1,2} -> BENCH_verify.json
//! cargo run -p mpix-bench --release --bin tables -- bench-halo [--ranks-sweep]
//! #   halo exchange latency per mode x radius, substrate ops, the sanitizer
//! #   overhead gate -> BENCH_comm.json; --ranks-sweep adds weak-scaled
//! #   P in {8,32,128,256,512}: diagonal exchange µs, receive parks,
//! #   steady-state allocations (asserted 0)
//! #
//! # Every bench-* takes [--quick] (CI smoke size), [--arm=LABEL] (the
//! # record's label, default `current`) and [--baseline=FILE] (an earlier
//! # record: each row with the same key gains its ratio to that row).
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
            if !bench(other, &args) {
                eprintln!("unknown experiment {other:?}; see the header comment");
                std::process::exit(1);
            }
        }
    }
}

/// Run the `bench-*` subcommand `what` into its record file; `false` if
/// there is none. Every one takes `--quick` (CI smoke size), `--arm=LABEL`
/// (the record's label, default `current`) and `--baseline=FILE` (an
/// earlier record whose rows this one joins).
fn bench(what: &str, args: &[String]) -> bool {
    let ranks_sweep = args.iter().any(|a| a == "--ranks-sweep");
    let halo = |ledger: &mut tables::Ledger| tables::bench_halo(ledger, ranks_sweep);
    type Bench<'a> = &'a dyn Fn(&mut tables::Ledger);
    let benches: [(&str, &str, Bench); 4] = [
        (
            "bench-kernels",
            "BENCH_kernels.json",
            &tables::bench_kernels,
        ),
        ("bench-build", "BENCH_build.json", &tables::bench_build),
        ("bench-verify", "BENCH_verify.json", &tables::bench_verify),
        ("bench-halo", "BENCH_comm.json", &halo),
    ];
    let Some((_, path, run)) = benches.iter().find(|(name, ..)| *name == what) else {
        return false;
    };
    let arm = args
        .iter()
        .find_map(|a| a.strip_prefix("--arm="))
        .unwrap_or("current");
    let baseline = args
        .iter()
        .find_map(|a| a.strip_prefix("--baseline="))
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("--baseline={path}: cannot read: {e}"));
            mpix_json::Value::parse(&text)
                .unwrap_or_else(|e| panic!("--baseline={path}: not a JSON record: {e:?}"))
        });
    let quick = args.iter().any(|a| a == "--quick");
    let mut ledger = tables::Ledger::new(arm, baseline, quick);
    run(&mut ledger);
    std::fs::write(path, ledger.finish()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
    true
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
