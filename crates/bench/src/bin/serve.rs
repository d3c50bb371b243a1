//! `mpix-serve` — the long-running solver service driver.
//!
//! ```text
//! cargo run --release -p mpix-bench --bin mpix-serve                # demo workload
//! cargo run --release -p mpix-bench --bin mpix-serve -- --jobs 48  # bigger mix
//! cargo run --release -p mpix-bench --bin mpix-serve -- --smoke    # CI gate
//! ```
//!
//! Streams one compact JSON line per finished job (cache hit/miss,
//! admission price, the run's `PerfSummary` with diagnostics) followed
//! by a final `serve.summary` line with the cache hit rate — `tail`able
//! while the service runs.
//!
//! `--smoke` is the CI gate: submit a ~100-job concurrent mixed
//! workload (kernel × SDO × mode × ranks) with the happens-before
//! sanitizer armed on every job, then require
//!
//! * every job finished (`done == jobs`, nothing failed or rejected),
//! * zero `mpix-san/*` findings across all streamed summaries,
//! * compilation ran exactly once per unique content key — both the
//!   cache's own counters (`compiles == misses == unique keys`) and the
//!   process-global `mpix_codegen::exec_compiles()` delta must agree,
//! * the final summary line reports the cache hit rate.
//!
//! Exit status is nonzero on any violation.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use mpix_core::serve::{Job, RecordSink, ServeConfig, Server};
use mpix_dmp::HaloMode;
use mpix_json::Value;
use mpix_solvers::{KernelKind, ModelSpec, Propagator};
use mpix_trace::JsonlSink;

/// One workload entry: a compiled propagator and the options its jobs
/// run with. Several jobs share one entry (same physics, same mode —
/// cache hits); entries differ in kernel, SDO, mode, or rank count.
struct Workload {
    prop: Arc<Propagator>,
    mode: HaloMode,
    ranks: usize,
    nt: i64,
}

/// A small-domain mixed matrix: two kernels × two SDOs × two modes ×
/// two rank counts. Domains are tiny — the point is concurrency and
/// cache behaviour, not throughput.
fn build_workload() -> Vec<Workload> {
    let mut entries = Vec::new();
    for kind in [KernelKind::Acoustic, KernelKind::Elastic] {
        for so in [4u32, 8] {
            let shape: &[usize] = match kind {
                KernelKind::Acoustic => &[24, 24],
                _ => &[12, 12, 12],
            };
            let prop = Arc::new(Propagator::build(
                kind,
                ModelSpec::new(shape).with_nbl(2),
                so,
            ));
            for mode in [HaloMode::Basic, HaloMode::Diagonal] {
                for ranks in [1usize, 4] {
                    entries.push(Workload {
                        prop: Arc::clone(&prop),
                        mode,
                        ranks,
                        nt: 2,
                    });
                }
            }
        }
    }
    entries
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut jobs_target: usize = if smoke { 100 } else { 24 };
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        jobs_target = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("--jobs takes a positive integer"));
    }

    let compiles_before = mpix_codegen::exec_compiles();
    let workload = build_workload();

    // Expected unique keys: every (operator content, mode, backend)
    // combination in the workload. Rank count is a *launch* parameter —
    // it must not key the cache.
    let mut expected_keys: HashSet<u64> = HashSet::new();
    for w in workload.iter().take(jobs_target.max(1)) {
        let opts = w.prop.apply_options(w.nt).with_mode(w.mode);
        expected_keys.insert(w.prop.op.content_key(&opts));
    }

    let stdout_sink = Arc::new(JsonlSink::stdout());
    let records: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
    let sink: RecordSink = {
        let stdout_sink = Arc::clone(&stdout_sink);
        let records = Arc::clone(&records);
        Arc::new(move |v: &Value| {
            stdout_sink.write(v);
            records.lock().unwrap().push(v.clone());
        })
    };

    let cfg = ServeConfig::default()
        .with_workers(4)
        .with_pool_ranks(16)
        .env_overrides();
    let server = Server::start(cfg, sink);

    let tenants = ["alice", "bob", "carol"];
    for i in 0..jobs_target {
        let w = &workload[i % workload.len()];
        let tenant = tenants[i % tenants.len()];
        let opts = w
            .prop
            .apply_options(w.nt)
            .with_mode(w.mode)
            .with_ranks(w.ranks)
            .with_verify(false)
            .with_sanitize(smoke);
        let init_prop = Arc::clone(&w.prop);
        server.submit(
            Job::new(tenant, Arc::clone(&w.prop.op), opts).with_init(move |ws| init_prop.init(ws)),
        );
    }

    let report = server.shutdown();
    let compiled = mpix_codegen::exec_compiles() - compiles_before;

    if !smoke {
        eprintln!(
            "served {} jobs: {} done, {} rejected, {} failed; cache {} hits / {} compiles \
             (hit rate {:.1}%)",
            report.jobs,
            report.done,
            report.rejected,
            report.failed,
            report.cache.hits,
            report.cache.compiles,
            report.cache.hit_rate() * 100.0
        );
        return;
    }

    // --- the CI gate ---
    let mut violations: Vec<String> = Vec::new();
    if report.done != report.jobs || report.failed != 0 || report.rejected != 0 {
        violations.push(format!(
            "expected all {} jobs done; got done={} rejected={} failed={}",
            report.jobs, report.done, report.rejected, report.failed
        ));
    }
    if report.cache.compiles != expected_keys.len() as u64 {
        violations.push(format!(
            "cache compiled {} artifacts for {} unique content keys",
            report.cache.compiles,
            expected_keys.len()
        ));
    }
    if compiled != report.cache.compiles {
        violations.push(format!(
            "process compiled {compiled} executables but the cache accounts for {}",
            report.cache.compiles
        ));
    }

    let records = records.lock().unwrap();
    let san_findings: usize = records
        .iter()
        .filter(|r| r.get("record").and_then(Value::as_str) == Some("job"))
        .flat_map(|r| {
            r.get("summary")
                .and_then(|s| s.get("diagnostics"))
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
        })
        .filter(|d| {
            d.get("pass")
                .and_then(Value::as_str)
                .is_some_and(|p| p.starts_with("mpix-san"))
        })
        .count();
    if san_findings != 0 {
        violations.push(format!(
            "{san_findings} sanitizer finding(s) in streamed summaries"
        ));
    }

    let summary_line = records
        .iter()
        .find(|r| r.get("record").and_then(Value::as_str) == Some("serve.summary"));
    match summary_line {
        None => violations.push("no serve.summary record streamed".into()),
        Some(s) => {
            if s.get("cache").and_then(|c| c.get("hit_rate")).is_none() {
                violations.push("serve.summary does not report the cache hit rate".into());
            }
        }
    }

    if violations.is_empty() {
        eprintln!(
            "smoke ok: {} jobs, {} unique keys, {} compiles, hit rate {:.1}%, 0 san findings",
            report.jobs,
            expected_keys.len(),
            report.cache.compiles,
            report.cache.hit_rate() * 100.0
        );
    } else {
        for v in &violations {
            eprintln!("smoke FAILED: {v}");
        }
        std::process::exit(1);
    }
}
