//! Load test for `mpix-serve` (mpix_core::serve): ≥200 concurrent
//! mixed-size jobs through one server, with the compile-once,
//! hit-rate-reported, sanitizer-clean, and tenant-isolation guarantees
//! counter-asserted rather than eyeballed.
//!
//! All counters asserted here are **cache-local** (`CacheSnapshot`), so
//! the parallel tests in this binary cannot perturb each other's
//! numbers; the process-global `exec_compiles()` is only used by the
//! single-purpose `mpix-serve --smoke` binary.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use mpix_core::prelude::*;
use mpix_core::serve::{Job, OperatorKey, RecordSink, ServeConfig, Server};
use mpix_core::{available_backends, Backend};
use mpix_solvers::{KernelKind, ModelSpec, Propagator};
use mpix_trace::Value;

/// A sink that both collects records and never blocks workers.
fn collecting_sink() -> (RecordSink, Arc<Mutex<Vec<Value>>>) {
    let records: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
    let sink: RecordSink = {
        let records = Arc::clone(&records);
        Arc::new(move |v: &Value| records.lock().unwrap().push(v.clone()))
    };
    (sink, records)
}

/// The mixed workload: 2 kernels × 2 SDOs × 2 modes × {1, 2, 4} ranks,
/// tiny domains (different sizes per kernel). 24 distinct job shapes.
fn workload() -> Vec<(Arc<Propagator>, HaloMode, usize)> {
    let mut out = Vec::new();
    for kind in [KernelKind::Acoustic, KernelKind::Elastic] {
        for so in [4u32, 8] {
            let shape: &[usize] = match kind {
                KernelKind::Acoustic => &[20, 20],
                _ => &[12, 12, 12],
            };
            let prop = Arc::new(Propagator::build(
                kind,
                ModelSpec::new(shape).with_nbl(2),
                so,
            ));
            for mode in [HaloMode::Basic, HaloMode::Diagonal] {
                for ranks in [1usize, 2, 4] {
                    out.push((Arc::clone(&prop), mode, ranks));
                }
            }
        }
    }
    out
}

fn job_opts(prop: &Propagator, mode: HaloMode, ranks: usize, sanitize: bool) -> ApplyOptions {
    prop.apply_options(2)
        .with_mode(mode)
        .with_ranks(ranks)
        .with_verify(false)
        .with_sanitize(sanitize)
}

#[test]
fn load_200_concurrent_mixed_jobs_compile_once_per_key() {
    const JOBS: usize = 200;
    let work = workload();

    // Every unique content key the workload can produce.
    let mut expected_keys: HashSet<u64> = HashSet::new();
    for (prop, mode, ranks) in &work {
        expected_keys.insert(prop.op.content_key(&job_opts(prop, *mode, *ranks, true)));
    }

    let (sink, records) = collecting_sink();
    let server = Server::start(
        ServeConfig::default().with_workers(6).with_pool_ranks(8),
        sink,
    );
    let tenants = ["alice", "bob", "carol", "dave"];
    for i in 0..JOBS {
        let (prop, mode, ranks) = &work[i % work.len()];
        let opts = job_opts(prop, *mode, *ranks, true); // sanitizer armed
        let init_prop = Arc::clone(prop);
        server.submit(
            Job::new(tenants[i % tenants.len()], Arc::clone(&prop.op), opts)
                .with_init(move |ws| init_prop.init(ws)),
        );
    }
    let report = server.shutdown();

    // Everything ran; nothing was refused or died.
    assert_eq!(report.jobs, JOBS as u64);
    assert_eq!(report.done, JOBS as u64);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.failed, 0);

    // Compile-once: exactly one compilation per unique content key, and
    // every other request was a hit.
    assert_eq!(report.cache.compiles, expected_keys.len() as u64);
    assert_eq!(report.cache.misses, report.cache.compiles);
    assert_eq!(report.cache.hits, JOBS as u64 - report.cache.compiles);

    let records = records.lock().unwrap();
    let job_records: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("record").and_then(Value::as_str) == Some("job"))
        .collect();
    assert_eq!(job_records.len(), JOBS);

    // The streamed records agree with the counters: misses seen in the
    // stream == compiles, and every record carries a key.
    let streamed_misses = job_records
        .iter()
        .filter(|r| r.get("cache").and_then(Value::as_str) == Some("miss"))
        .count();
    assert_eq!(streamed_misses as u64, report.cache.compiles);
    let streamed_keys: HashSet<&str> = job_records
        .iter()
        .filter_map(|r| r.get("key").and_then(Value::as_str))
        .collect();
    assert_eq!(streamed_keys.len(), expected_keys.len());

    // Zero sanitizer findings across all 200 summaries.
    let san_findings = job_records
        .iter()
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
    assert_eq!(san_findings, 0, "sanitizer must stay silent under load");

    // The hit rate is reported in the streamed JSON summary line.
    let summary = records
        .iter()
        .find(|r| r.get("record").and_then(Value::as_str) == Some("serve.summary"))
        .expect("a serve.summary record is streamed at shutdown");
    let hit_rate = summary
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(Value::as_f64)
        .expect("summary reports the cache hit rate");
    assert!((hit_rate - report.cache.hit_rate()).abs() < 1e-12);
    assert!(hit_rate > 0.8, "200 jobs over few keys must mostly hit");
}

#[test]
fn concurrent_identical_jobs_single_flight() {
    // Many identical jobs racing on one cold key through many workers:
    // exactly one compile; everyone else waits and shares.
    let prop = Arc::new(Propagator::build(
        KernelKind::Acoustic,
        ModelSpec::new(&[16, 16]).with_nbl(2),
        4,
    ));
    let (sink, _records) = collecting_sink();
    let server = Server::start(
        ServeConfig::default().with_workers(8).with_pool_ranks(8),
        sink,
    );
    for _ in 0..32 {
        let opts = job_opts(&prop, HaloMode::Basic, 1, false);
        let init_prop = Arc::clone(&prop);
        server.submit(
            Job::new("racer", Arc::clone(&prop.op), opts).with_init(move |ws| init_prop.init(ws)),
        );
    }
    let report = server.shutdown();
    assert_eq!(report.done, 32);
    assert_eq!(report.cache.compiles, 1, "single-flight: one compile");
    assert_eq!(report.cache.misses, 1);
    assert_eq!(report.cache.hits, 31);
}

#[test]
fn same_geometry_different_expression_operators_hash_apart() {
    // Two operators over identical grids and stencil geometry but with
    // different expressions (different diffusivity coefficient) must
    // NOT share a compiled artifact; the same equations built twice
    // must. Pointer identity plays no part either way.
    let build = |alpha: f64| {
        let mut ctx = Context::new();
        let grid = Grid::new(&[12, 12], &[11.0, 11.0]);
        let u = ctx.add_time_function("u", &grid, 2, 2);
        let eq = Eq::new(u.dt(), u.laplace() * alpha);
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        Operator::build(ctx, grid, vec![st]).unwrap()
    };
    let opts = ApplyOptions::default().with_nt(1);
    let a1 = build(1.0);
    let a2 = build(1.0); // distinct instance, same physics
    let b = build(0.5); // same geometry, different expression

    assert_eq!(
        OperatorKey::of(&a1, &opts),
        OperatorKey::of(&a2, &opts),
        "identical physics from distinct builds shares one key"
    );
    assert_ne!(
        OperatorKey::of(&a1, &opts),
        OperatorKey::of(&b, &opts),
        "same geometry, different expression must hash apart"
    );

    // The backend is part of the key (a jit artifact is not an
    // interpreter artifact); mode Basic vs Diagonal is deliberately NOT
    // (they lower to the identical IET — the exchange pattern is a
    // launch parameter), while Full lowers differently and hashes apart.
    assert_ne!(
        OperatorKey::of(&a1, &opts.clone().with_backend(Backend::Bytecode)),
        OperatorKey::of(&a1, &opts.clone().with_backend(Backend::Jit)),
    );
    assert_eq!(
        OperatorKey::of(&a1, &opts.clone().with_mode(HaloMode::Basic)),
        OperatorKey::of(&a1, &opts.clone().with_mode(HaloMode::Diagonal)),
    );
    assert_ne!(
        OperatorKey::of(&a1, &opts.clone().with_mode(HaloMode::Basic)),
        OperatorKey::of(&a1, &opts.clone().with_mode(HaloMode::Full)),
    );
    // The operator's own executable cache keys the same way: basic and
    // diagonal share one executable, full compiles its own.
    let exec_of = |mode| a1.executable_for(&opts.clone().with_mode(mode));
    let basic = exec_of(HaloMode::Basic);
    assert!(Arc::ptr_eq(&basic, &exec_of(HaloMode::Diagonal)));
    assert!(!Arc::ptr_eq(&basic, &exec_of(HaloMode::Full)));
}

#[test]
fn tenants_share_artifacts_but_not_worlds() {
    // Two tenants running the same physics share the compiled artifact
    // (one compile) but never a communicator world: every job's world
    // id is unique, so no message/barrier state can cross jobs.
    let prop = Arc::new(Propagator::build(
        KernelKind::Acoustic,
        ModelSpec::new(&[16, 16]).with_nbl(2),
        4,
    ));
    let (sink, records) = collecting_sink();
    let server = Server::start(
        ServeConfig::default().with_workers(4).with_pool_ranks(8),
        sink,
    );
    for tenant in ["alice", "bob", "alice", "carol", "bob", "alice"] {
        let opts = job_opts(&prop, HaloMode::Basic, 2, false);
        let init_prop = Arc::clone(&prop);
        server.submit(
            Job::new(tenant, Arc::clone(&prop.op), opts).with_init(move |ws| init_prop.init(ws)),
        );
    }
    let report = server.shutdown();
    assert_eq!(report.done, 6);
    // Eviction-free reuse: one artifact for the whole lifetime.
    assert_eq!(report.cache.compiles, 1);
    assert_eq!(report.cache.hits, 5);

    let records = records.lock().unwrap();
    let world_ids: Vec<u64> = records
        .iter()
        .filter(|r| r.get("record").and_then(Value::as_str) == Some("job"))
        .filter_map(|r| r.get("world_id").and_then(Value::as_u64))
        .collect();
    assert_eq!(world_ids.len(), 6, "every job reports its world id");
    let unique: HashSet<u64> = world_ids.iter().copied().collect();
    assert_eq!(unique.len(), 6, "communicator worlds are never shared");
}

#[test]
fn oversized_and_overpriced_jobs_are_rejected_not_run() {
    let prop = Arc::new(Propagator::build(
        KernelKind::Acoustic,
        ModelSpec::new(&[16, 16]).with_nbl(2),
        4,
    ));
    let (sink, records) = collecting_sink();
    let server = Server::start(
        ServeConfig::default()
            .with_workers(2)
            .with_pool_ranks(4)
            .with_max_cost(1e-12), // everything is over this price
        sink,
    );
    // Over capacity: wants 8 ranks from a 4-slot pool.
    server.submit(Job::new(
        "greedy",
        Arc::clone(&prop.op),
        job_opts(&prop, HaloMode::Basic, 8, false),
    ));
    // Over price: fits the pool but exceeds the rank-second bound.
    server.submit(Job::new(
        "pricey",
        Arc::clone(&prop.op),
        job_opts(&prop, HaloMode::Basic, 2, false),
    ));
    let report = server.shutdown();
    assert_eq!(report.rejected, 2);
    assert_eq!(report.done, 0);
    // Rejection happens at admission: nothing was compiled.
    assert_eq!(report.cache.compiles, 0);

    let records = records.lock().unwrap();
    for r in records
        .iter()
        .filter(|r| r.get("record").and_then(Value::as_str) == Some("job"))
    {
        assert_eq!(r.get("status").and_then(Value::as_str), Some("rejected"));
        assert!(r.get("reason").and_then(Value::as_str).is_some());
        assert!(r.get("cost").is_some(), "rejections still carry the price");
    }
}

#[test]
fn jit_modules_survive_across_runs_of_one_operator() {
    // The per-run recompile bug, pinned: repeated runs of one operator
    // reuse both the compiled executable (Arc identity) and the JIT's
    // per-geometry native modules (module count stable after warm-up).
    if !available_backends().contains(&Backend::Jit) {
        return; // host without AVX: the jit backend cannot run
    }
    let prop = Propagator::build(
        KernelKind::Acoustic,
        ModelSpec::new(&[16, 16]).with_nbl(2),
        4,
    );
    let opts = prop
        .apply_options(2)
        .with_backend(Backend::Jit)
        .with_ranks(2)
        .with_verify(false);
    let init = |ws: &mut Workspace| {
        mpix_solvers::acoustic::init_workspace(&prop.spec, ws);
    };

    let exec1 = prop.op.executable_for(&opts);
    prop.op.run(&opts, init, |_| ());
    let modules_after_first = exec1.cached_native_modules();
    assert!(
        modules_after_first > 0,
        "a jit run must have compiled native modules"
    );

    prop.op.run(&opts, init, |_| ());
    let exec2 = prop.op.executable_for(&opts);
    assert!(
        Arc::ptr_eq(&exec1, &exec2),
        "repeated runs share one executable instead of recompiling"
    );
    assert_eq!(
        exec2.cached_native_modules(),
        modules_after_first,
        "the second run reused the cached native modules"
    );
}

#[test]
fn admission_prices_from_bytecode_flop_count() {
    // The bytecode count must agree with the AST-level OpCounts for
    // every shipped kernel at SDO 8 — the two are derived independently
    // (IExpr walk vs. compiled-program op weights), so agreement means
    // neither has drifted into a stale snapshot of the compiler.
    for kind in KernelKind::all() {
        let shape: &[usize] = match kind {
            KernelKind::Acoustic => &[16, 16],
            _ => &[10, 10, 10],
        };
        let p = Propagator::build(kind, ModelSpec::new(shape).with_nbl(2), 8);
        assert_eq!(
            p.op.bytecode_flops(),
            p.op.op_counts().flops(),
            "{}: bytecode and AST flop counts drifted apart",
            p.kind.name()
        );
    }

    // Pin the post-CSE viscoelastic count, and pin the price the serve
    // layer actually admits it at to the price derived from that count:
    // reintroducing a pre-CSE per-solver constant (~700 flops/pt) would
    // change the recorded rank-seconds and fail here.
    let p = Arc::new(Propagator::build(
        KernelKind::Viscoelastic,
        ModelSpec::new(&[10, 10, 10]).with_nbl(2),
        8,
    ));
    assert_eq!(
        p.op.bytecode_flops(),
        580,
        "viscoelastic SDO-8 flops/pt after the CSE fix"
    );

    let opts = job_opts(&p, HaloMode::Basic, 2, false);
    let expected = mpix_perf::price_job(
        580.0,
        p.op.op_counts().bytes() as f64,
        p.op.grid().num_points() as u64,
        opts.nt as u64,
        opts.ranks,
        &mpix_perf::archer2_node(),
    );

    let (sink, records) = collecting_sink();
    let server = Server::start(
        ServeConfig::default().with_workers(1).with_pool_ranks(2),
        sink,
    );
    let init = Arc::clone(&p);
    server.submit(Job::new("priced", Arc::clone(&p.op), opts).with_init(move |ws| init.init(ws)));
    let report = server.shutdown();
    assert_eq!(report.done, 1);

    let records = records.lock().unwrap();
    let job = records
        .iter()
        .find(|r| r.get("record").and_then(Value::as_str) == Some("job"))
        .expect("one job record");
    let priced = job
        .get("cost")
        .and_then(|c| c.get("rank_seconds"))
        .and_then(Value::as_f64)
        .expect("job record carries the admission price");
    assert!(
        (priced - expected.rank_seconds).abs() <= 1e-9 * expected.rank_seconds,
        "admission priced {priced} rank-seconds; bytecode-derived price is {}",
        expected.rank_seconds
    );
}
