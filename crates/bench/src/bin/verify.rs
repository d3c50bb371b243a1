//! `mpix-verify` — run the compiler self-verification passes across the
//! full shipped-solver matrix.
//!
//! ```text
//! cargo run -p mpix-bench --bin mpix-verify                 # full matrix
//! cargo run -p mpix-bench --bin mpix-verify -- --json       # JSON report
//! cargo run -p mpix-bench --bin mpix-verify -- acoustic 8   # one kernel/SDO
//! cargo run -p mpix-bench --bin mpix-verify -- --san        # runtime sweep
//! cargo run -p mpix-bench --bin mpix-verify -- --backends=jit   # one backend
//! ```
//!
//! Sweeps every shipped solver × space discretization order {4, 8, 12,
//! 16} × all three halo-exchange modes (basic / diagonal / full) on 1-,
//! 2- and 4-rank topologies, plus the thread-slab and vector-strip
//! proofs and the backend bitwise-equivalence gate (every runtime
//! backend named by `--backends` — `bytecode`, `jit` — default all
//! available on this host, against the scalar bytecode oracle). C is an
//! emission format, not a backend: `--backends=c` fails, pointing at
//! `Operator::c_code_for`. Exits nonzero if any pass reports a
//! diagnostic of severity Error or worse — the CI gate that generated
//! artifacts stay provably sound.
//!
//! `--san` switches from the static passes to the `mpix-san` dynamic
//! sweep: *execute* each configuration for a few time steps under the
//! happens-before sanitizer and require zero findings — the
//! false-positive gate for shipped solvers. Tiny domains keep the full
//! matrix under a few minutes.

use mpix_analysis::{AnalysisConfig, LintConfig};
use mpix_core::{available_backends, Backend, Workspace};
use mpix_dmp::HaloMode;
use mpix_json::Value;
use mpix_solvers::{KernelKind, ModelSpec, Propagator};
use mpix_trace::Severity;

/// Solver shape for one kernel: large enough that every swept topology
/// keeps a stencil radius's worth of points per rank per dimension.
fn sweep_shape(kind: KernelKind) -> &'static [usize] {
    match kind {
        KernelKind::Acoustic => &[40, 40],
        _ => &[16, 16, 16],
    }
}

/// The `--san` sweep: run every kernel × SDO × mode × rank count for
/// real under the sanitizer and count findings. Any `mpix-san/*`
/// diagnostic on a shipped configuration is a false positive (the
/// mutant corpus in `tests/sanitizer.rs` proves the detectors *can*
/// fire), so the exit status is nonzero iff any report appears.
fn san_sweep(kernels: &[KernelKind], orders: &[u32], ranks_list: &[usize], json: bool) {
    let nt = 4i64;
    let mut entries: Vec<Value> = Vec::new();
    let mut total_reports = 0usize;
    let mut configs = 0usize;
    for &kind in kernels {
        for &so in orders {
            let spec = ModelSpec::new(sweep_shape(kind)).with_nbl(4);
            let prop = Propagator::build(kind, spec, so);
            for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
                for &ranks in ranks_list {
                    let pref = &prop;
                    let init = move |ws: &mut Workspace| {
                        pref.init(ws);
                        pref.add_ricker_source(ws, 18.0, nt as usize);
                    };
                    let opts = prop
                        .apply_options(nt)
                        .with_mode(mode)
                        .with_ranks(ranks)
                        .with_threads(2)
                        .with_verify(false)
                        .with_sanitize(true);
                    let summary = prop.op.run(&opts, init, |_| ()).summary;
                    let findings: Vec<&mpix_trace::Diagnostic> = summary
                        .diagnostics
                        .iter()
                        .filter(|d| d.pass.starts_with("mpix-san/"))
                        .collect();
                    configs += 1;
                    total_reports += findings.len();
                    if json {
                        entries.push(Value::Obj(vec![
                            ("kernel".to_string(), Value::Str(kind.name().to_string())),
                            ("so".to_string(), Value::Num(so as f64)),
                            (
                                "mode".to_string(),
                                Value::Str(format!("{mode:?}").to_lowercase()),
                            ),
                            ("ranks".to_string(), Value::Num(ranks as f64)),
                            ("reports".to_string(), Value::Num(findings.len() as f64)),
                        ]));
                    } else {
                        let status = if findings.is_empty() {
                            "clean".to_string()
                        } else {
                            format!("{} report(s)", findings.len())
                        };
                        println!(
                            "{:<14} so={:<3} mode={:<6} ranks={} {status}",
                            kind.name(),
                            so,
                            format!("{mode:?}").to_lowercase(),
                            ranks
                        );
                        for d in &findings {
                            println!("    {d}");
                        }
                    }
                }
            }
        }
    }
    if json {
        let out = Value::Obj(vec![
            ("results".to_string(), Value::Arr(entries)),
            ("configs".to_string(), Value::Num(configs as f64)),
            ("reports".to_string(), Value::Num(total_reports as f64)),
        ]);
        println!("{}", out.pretty());
    } else {
        println!("\nmpix-verify --san: {configs} configuration(s), {total_reports} finding(s)");
    }
    if total_reports > 0 {
        std::process::exit(1);
    }
}

const HELP: &str = "\
mpix-verify — compiler self-verification over the shipped-solver matrix

USAGE:
    mpix-verify [FLAGS] [KERNEL [SPACE_ORDER]]

FLAGS:
    --json             machine-readable JSON report on stdout
    --deny-warnings    treat Warning diagnostics as fatal (see EXIT CODES)
    --san              dynamic sanitizer sweep instead of the static passes
    --backends=A,B     restrict the equivalence gate to named runtime
                       backends: bytecode, jit (C is an emission format,
                       reachable through Operator::c_code_for)
    --ranks=N,M        rank counts to sweep (default 1,2,4)
    --help             print this message

EXIT CODES:
    0    every configuration verified clean (no Error diagnostics; with
         --deny-warnings, no Warning diagnostics either)
    1    at least one diagnostic at Severity::Error or worse, or — under
         --deny-warnings — at Severity::Warning; with --san, at least
         one sanitizer finding

Lint findings from the MPX registry run as pass 0 of verification; use
MPIX_LINT=\"MPX004=allow,...\" to adjust per-code levels.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    let json = args.iter().any(|a| a == "--json");
    let san = args.iter().any(|a| a == "--san");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    // Backend axis for the equivalence gate: `--backends=jit` or
    // `--backends=bytecode,jit`; unknown names abort with the
    // available-backend listing, so a CI matrix leg cannot silently
    // verify nothing.
    let backends: Vec<Backend> = match args.iter().find_map(|a| a.strip_prefix("--backends=")) {
        Some(list) => list
            .split(',')
            .map(|name| name.parse().unwrap_or_else(|e| panic!("--backends: {e}")))
            .collect(),
        None => available_backends(),
    };
    // Rank-count axis: `--ranks=32` or `--ranks=1,2,4,32`. The default
    // toy counts keep the full matrix fast; CI adds a dedicated P=32 leg
    // so the sharded mailboxes and per-rank pools are exercised (and
    // sanitized) well past the counts the unit tests use.
    let ranks_list: Vec<usize> = match args.iter().find_map(|a| a.strip_prefix("--ranks=")) {
        Some(list) => list
            .split(',')
            .map(|r| r.parse().unwrap_or_else(|e| panic!("--ranks: {e}")))
            .collect(),
        None => vec![1, 2, 4],
    };
    let pos: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let kernels: Vec<KernelKind> = match pos.first() {
        Some(name) => vec![*KernelKind::all()
            .iter()
            .find(|k| k.name() == name.as_str())
            .unwrap_or_else(|| panic!("unknown kernel {name:?}"))],
        None => KernelKind::all().to_vec(),
    };
    let orders: Vec<u32> = match pos.get(1) {
        Some(so) => vec![so.parse().expect("space order")],
        None => vec![4, 8, 12, 16],
    };

    if san {
        san_sweep(&kernels, &orders, &ranks_list, json);
        return;
    }

    let cfg = AnalysisConfig {
        modes: vec![HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full],
        ranks: ranks_list,
        threads: vec![2, 3, 4],
        vector_widths: vec![8, 16, 32],
        backends,
        check_fused_semantics: true,
        lint: Some(LintConfig::from_env()),
    };

    let mut worst: Option<Severity> = None;
    let mut entries: Vec<Value> = Vec::new();
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    for &kind in &kernels {
        for &so in &orders {
            // Domain large enough that every swept topology keeps the
            // stencil radius's worth of points per rank per dimension
            // (so=16 -> radius 8; 4 ranks on 24³ leave 12 a side). The
            // acoustic kernel is dimension-agnostic, so it covers the
            // 2-D path; the other three are 3-D by construction.
            let spec = ModelSpec::new(sweep_shape(kind)).with_nbl(4);
            let prop = Propagator::build(kind, spec, so);
            let report = prop.op.verify(&cfg);
            worst = worst.max(report.max_severity());
            total_errors += report.count(Severity::Error);
            total_warnings += report.count(Severity::Warning);
            if json {
                let mut obj = vec![
                    ("kernel".to_string(), Value::Str(kind.name().to_string())),
                    ("so".to_string(), Value::Num(so as f64)),
                ];
                if let Value::Obj(fields) = report.to_json() {
                    obj.extend(fields);
                }
                entries.push(Value::Obj(obj));
            } else {
                let status = match report.max_severity() {
                    None => "clean".to_string(),
                    Some(s) => format!(
                        "{} ({} error(s), {} warning(s))",
                        s,
                        report.count(Severity::Error),
                        report.count(Severity::Warning)
                    ),
                };
                println!("{:<14} so={:<3} {status}", kind.name(), so);
                for d in &report.diagnostics {
                    println!("    {d}");
                }
            }
        }
    }

    if json {
        let out = Value::Obj(vec![
            ("results".to_string(), Value::Arr(entries)),
            ("errors".to_string(), Value::Num(total_errors as f64)),
            ("warnings".to_string(), Value::Num(total_warnings as f64)),
        ]);
        println!("{}", out.pretty());
    } else {
        println!(
            "\nmpix-verify: {} configuration(s), {total_errors} error(s), \
             {total_warnings} warning(s)",
            kernels.len() * orders.len()
        );
    }
    // Exit-code contract (see --help): Error always gates; Warning gates
    // only under --deny-warnings.
    let gate = if deny_warnings {
        Severity::Warning
    } else {
        Severity::Error
    };
    if worst >= Some(gate) {
        std::process::exit(1);
    }
}
