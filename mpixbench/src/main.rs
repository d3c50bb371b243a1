//! End-to-end and per-layer benchmark of the `mpix` solver stack.
//!
//! ```text
//! cargo run --release --manifest-path mpixbench/Cargo.toml -- \
//!     --workload <shot-acoustic|strong-elastic|serve-mixed|compile-cold> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--tiny` shrinks every
//! workload to smoke-test size. See `README.md` for what each metric means.

mod case;
mod host;
mod serve;
mod stats;
mod workloads;

use std::time::Instant;

use host::Host;

pub const WORKLOADS: [&str; 4] = [
    "shot-acoustic",
    "strong-elastic",
    "serve-mixed",
    "compile-cold",
];

/// End-to-end metrics (`--trace 0`), with units. For the sequential
/// workloads `ops_per_s` and `gpts` are rates at the median operation
/// time; for `serve-mixed` they are counts over the measuring window.
/// `op_s_p90` is printed in the table but kept out of the result: one run
/// in ten that shares the host with a burst of other work moves it 2–3×,
/// past any usable bound.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("ops_per_s", "1/s"),
    ("gpts", "GPts/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.build_s", "s"),
    ("analysis.verify_s", "s"),
    ("codegen.compile_s", "s"),
    ("codegen.first_run_extra_s", "s"),
    ("codegen.jit_modules", "count"),
    ("comm.spawn_s", "s"),
    ("core.workspace_s", "s"),
    ("solvers.init_s", "s"),
    ("codegen.compute_s", "s"),
    ("dmp.source_s", "s"),
    ("dmp.receiver_s", "s"),
    ("core.gather_s", "s"),
    ("codegen.flops_per_pt", "flop/pt"),
    ("codegen.oi", "flop/B"),
    ("codegen.gflops", "GFLOP/s"),
    ("codegen.bytes_per_step", "B/step-computed"),
    ("codegen.subnormal_frac", "frac"),
    ("dmp.halo_pack_s", "s"),
    ("comm.halo_send_s", "s"),
    ("comm.halo_wait_s", "s"),
    ("dmp.halo_unpack_s", "s"),
    ("codegen.launch_s", "s"),
    ("comm.msgs", "msg/step"),
    ("comm.bytes", "B/step"),
    ("comm.bufs_allocated", "count"),
    ("comm.bytes_copied", "B/step"),
    ("serve.queue_s_p50", "s"),
    ("serve.run_s_p50", "s"),
    ("serve.run_s_p50.jit", "s"),
    ("serve.run_s_p50.bytecode", "s"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.compiles", "count"),
    ("serve.evictions", "count"),
    ("unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The benchmark's own bound on `unattributed_frac`: the traced run must
/// account for at least this share of each operation's wall time.
pub const UNATTRIBUTED_BOUND: f64 = 0.10;

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

/// The outcome of one run: correctness, operation counts and metrics.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Record a failed operation (panic, rejected or failed job, output
    /// mismatch).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.correct = false;
        if self.notes.len() < 20 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: mpixbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            a.tiny = true;
            continue;
        }
        let Some(v) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) || a.seconds <= 0.0 {
        usage()
    }
    a
}

/// Run a workload phase, turning a panic that escapes it into a failed
/// report instead of a crash without a result line.
fn guarded(f: impl FnOnce() -> Report) -> Report {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.fail(format!("workload panicked: {}", panic_message(&*p)));
        r
    })
}

pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

fn main() {
    let t_start = Instant::now();
    let args = parse_args();
    let host = Host::detect();
    println!("{}", host.line());
    if !host.jit {
        eprintln!(
            "mpixbench: the jit backend is unavailable on this host (needs x86-64 Linux \
             with AVX; avx={}). Every workload pins `jit`; run on an AVX host rather than \
             falling back to the interpreter.",
            host.avx
        );
        std::process::exit(3);
    }
    let mut report = guarded(|| match (args.workload.as_str(), args.trace) {
        ("serve-mixed", false) => serve::run(&args, t_start),
        ("serve-mixed", true) => serve::run_traced(&args),
        (_, false) => workloads::run(&args, t_start),
        (_, true) => workloads::run_traced(&args),
    });
    report.attempted = report.attempted.max(1);

    // Every metric of the selected set is printed, in list order.
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |m| m.1)
    };
    if args.trace {
        let unattributed = value("unattributed_frac");
        if unattributed > UNATTRIBUTED_BOUND {
            report.notes.push(format!(
                "unattributed_frac {unattributed:.4} exceeds the bound {UNATTRIBUTED_BOUND}"
            ));
        }
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "workload: {} seed={} trace={}",
        args.workload, args.seed, args.trace as u8
    );
    for (name, unit) in list {
        println!("  {name:<28} {:>16.6e} {unit}", value(name));
    }
    if !args.trace {
        println!("  {:<28} {:>16.6e} s (tail)", "op_s_p90", value("op_s_p90"));
    }
    let fail_frac = report.failed as f64 / report.attempted as f64;
    println!(
        "  {:<28} {:>16.6e} frac ({} of {} operations)",
        "fail_frac", fail_frac, report.failed, report.attempted
    );
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = value(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    save(&args, &host, &report, &result);
    println!("{result}");
}

/// Keep a copy of the result with the host record under `.bench_out/`.
fn save(args: &Args, host: &Host, report: &Report, result: &str) {
    let notes: Vec<String> = report.notes.iter().map(|n| format!("{n:?}")).collect();
    let body = format!(
        "{{\"workload\": {:?}, \"seed\": {}, \"trace\": {}, \"host\": {}, \"notes\": [{}], \"result\": {}}}\n",
        args.workload,
        args.seed,
        args.trace as u8,
        host.json(),
        notes.join(", "),
        result
    );
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("mpixbench: could not write {}: {e}", path.display());
    }
}
