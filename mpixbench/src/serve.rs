//! `serve-mixed`: an `mpix-serve` `Server` driven by a single-threaded
//! closed loop that keeps two jobs outstanding, over a fixed deck of jobs
//! (kernels, orders, grids, lengths, rank counts, modes and backends)
//! whose order the seed shuffles.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpix::codegen::jit_modules_built;
use mpix::comm::dims_create;
use mpix::core::serve::{Job, OperatorCache, OperatorKey, RecordSink, ServeConfig, Server};
use mpix::core::{Backend, TraceLevel};
use mpix::dmp::HaloMode;
use mpix::solvers::{KernelKind, ModelSpec, Propagator};
use mpix::trace::{PerfSummary, Value};

use crate::case::{spawn_probe, subnormal_frac, Case, Layers};
use crate::stats::{median, quantile, Rng};
use crate::workloads::{accumulate, attempt, end_to_end, jittered, means, repeated_setup, Spec};
use crate::{Args, Report};

/// Jobs kept outstanding by the closed-loop client.
const OUTSTANDING: usize = 2;

/// The operators one server serves (built in set-up) and the job deck
/// drawn over them: a fixed composition whose order the seed shuffles
/// round by round, so every seed runs the same work in another order.
struct Mix {
    /// Deck entries: propagator index and the job's configuration.
    deck: Vec<(usize, Spec)>,
    props: Vec<Arc<Propagator>>,
    order: Vec<usize>,
    pos: usize,
    rng: Rng,
}

impl Mix {
    /// Build every kernel × SDO {4, 8} × grid operator and deal the deck:
    /// each operator in both modes, with nt 4–8, 1 or 2 ranks and one job
    /// in eight on `bytecode` at lane width 16 spread over it by a fixed
    /// (seed-independent) shuffle.
    fn build(args: &Args, layers: Option<&mut Layers>) -> Mix {
        let grids: &[usize] = if args.tiny { &[8] } else { &[16, 20, 24] };
        let mut specs = Vec::new();
        for kind in KernelKind::all() {
            for so in [4, 8] {
                for &n in grids {
                    let model = ModelSpec::new(&[n, n, n]).with_nbl(4);
                    let c = (n + 8 - 1) as f64 / 2.0;
                    specs.push(Spec::new(kind, model, so, 4, vec![c; 3]));
                }
            }
        }
        let mut build_s = 0.0;
        let props = specs
            .iter()
            .map(|s| {
                let t = Instant::now();
                let p = s.build();
                build_s += t.elapsed().as_secs_f64();
                p
            })
            .collect();
        if let Some(l) = layers {
            l.insert("core.build_s", build_s);
        }
        let n = 2 * specs.len();
        let mut fixed = Rng::new(0x6d70_6978);
        let mut attrs: Vec<usize> = (0..n).collect();
        shuffle(&mut fixed, &mut attrs);
        let deck = (0..n)
            .map(|j| {
                let i = j / 2;
                let a = attrs[j];
                let mut s = specs[i].clone();
                s.mode = [HaloMode::Basic, HaloMode::Diagonal][j % 2];
                s.ranks = 1 + a % 2;
                s.nt = 4 + (a / 2 % 5) as i64;
                if a % 8 == 7 {
                    s.backend = Backend::Bytecode;
                    s.vw = 16;
                }
                (i, s)
            })
            .collect();
        Mix {
            deck,
            props,
            order: Vec::new(),
            pos: 0,
            rng: Rng::new(args.seed),
        }
    }

    /// True between rounds of the deck.
    fn at_round_start(&self) -> bool {
        self.pos == self.order.len()
    }

    /// The next job: the deck in seeded order, reshuffled every round,
    /// with a seeded source position.
    fn next(&mut self, trace: TraceLevel) -> Case {
        if self.at_round_start() {
            self.order = (0..self.deck.len()).collect();
            shuffle(&mut self.rng, &mut self.order);
            self.pos = 0;
        }
        let (i, s) = &self.deck[self.order[self.pos]];
        self.pos += 1;
        let mut s = s.clone();
        let c = (s.model.padded_shape()[0] - 1) as f64 / 2.0;
        s.source = jittered(&mut self.rng, &[c, c, c], 0.5);
        let mut case = s.case(Arc::clone(&self.props[*i]));
        case.opts = case.opts.with_trace(trace);
        case
    }

    /// Deck entries with distinct run configurations, one each.
    fn configs(&self) -> Vec<&(usize, Spec)> {
        let mut seen = HashSet::new();
        self.deck
            .iter()
            .filter(|(i, s)| seen.insert((*i, s.mode, s.ranks, s.backend, s.vw)))
            .collect()
    }

    /// Run the verify gate once per served configuration, as a service
    /// does before it takes jobs (the jobs themselves run unverified).
    fn verify_all(&self) -> Result<(), String> {
        for (i, s) in self.configs() {
            let rep = self.props[*i].op.verify(&s.verify_config());
            if rep.has_errors() {
                return Err(format!("verification failed:\n{rep}"));
            }
        }
        Ok(())
    }

    /// Distinct cache keys the deck requests.
    fn distinct_keys(&self) -> usize {
        let keys: HashSet<OperatorKey> = self
            .deck
            .iter()
            .map(|(i, s)| {
                let p = &self.props[*i];
                OperatorKey::of(&p.op, &s.case(Arc::clone(p)).opts)
            })
            .collect();
        keys.len()
    }
}

/// Fisher–Yates shuffle.
fn shuffle(rng: &mut Rng, v: &mut [usize]) {
    for k in (1..v.len()).rev() {
        v.swap(k, rng.below(k + 1));
    }
}

/// One finished job as the client saw it.
struct Sample {
    traced: bool,
    latency: f64,
    backend: Backend,
    points: f64,
    summary: Option<PerfSummary>,
}

/// A running server plus the channel its sink feeds.
struct Serving {
    server: Server,
    records: Receiver<(Instant, Value)>,
    cap: usize,
}

fn start(mix: &Mix) -> Serving {
    let cap = (mix.distinct_keys() / 2).max(1);
    let (tx, records) = mpsc::channel();
    let tx = Mutex::new(tx);
    let sink: RecordSink = Arc::new(move |v: &Value| {
        // A send fails only once the client stopped listening.
        let _ = tx
            .lock()
            .expect("sink mutex is never held across a panic")
            .send((Instant::now(), v.clone()));
    });
    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_pool_ranks(2)
        .with_cache_cap(cap);
    Serving {
        server: Server::start(cfg, sink),
        records,
        cap,
    }
}

/// Closed loop: keep `OUTSTANDING` jobs in flight until `stop` says no
/// more submissions, then drain. `trace` picks each job's trace level by
/// submission index. Returns the finished jobs and the time from the
/// first submission to the last record.
fn closed_loop(
    sv: &Serving,
    mix: &mut Mix,
    trace: impl Fn(usize) -> TraceLevel,
    report: &mut Report,
    mut stop: impl FnMut(usize, bool) -> bool,
) -> (Vec<Sample>, f64) {
    let window = Instant::now();
    let mut inflight: HashMap<u64, (Instant, Backend, f64, i64, bool)> = HashMap::new();
    let mut submitted = 0;
    let mut samples = Vec::new();
    loop {
        while inflight.len() < OUTSTANDING && !stop(submitted, mix.at_round_start()) {
            let case = mix.next(trace(submitted));
            let meta = (case.opts.backend, case.points(), case.opts.nt);
            let traced = case.opts.trace.enabled();
            let opts = case.opts.clone();
            let op = Arc::clone(&case.prop.op);
            let job = Job::new("bench", op, opts).with_init(move |ws| case.init(ws));
            let t = Instant::now();
            let id = sv.server.submit(job);
            inflight.insert(id, (t, meta.0, meta.1, meta.2, traced));
            submitted += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let Ok((at, v)) = sv.records.recv_timeout(Duration::from_secs(120)) else {
            report.attempted += inflight.len() as u64;
            for _ in 0..inflight.len() {
                report.fail("no record within 120 s".into());
            }
            break;
        };
        if v.get("record").and_then(Value::as_str) != Some("job") {
            continue;
        }
        let id = v.get("job").and_then(Value::as_u64).unwrap_or(0);
        let Some((t, backend, points, nt, traced)) = inflight.remove(&id) else {
            continue;
        };
        report.attempted += 1;
        let status = v.get("status").and_then(Value::as_str).unwrap_or("?");
        let summary = v
            .get("summary")
            .filter(|s| !matches!(s, Value::Null))
            .and_then(|s| PerfSummary::from_json(s).ok());
        match (status, &summary) {
            ("done", Some(s)) if s.timesteps == nt => samples.push(Sample {
                traced,
                latency: at.duration_since(t).as_secs_f64(),
                backend,
                points,
                summary,
            }),
            _ => {
                let why = v.get("reason").and_then(Value::as_str).unwrap_or("");
                report.fail(format!("job {id} ended {status}: {why}"));
            }
        }
    }
    (samples, window.elapsed().as_secs_f64())
}

struct Setup {
    mix: Mix,
    serving: Serving,
}

fn setup(args: &Args, report: &mut Report) -> Result<Setup, String> {
    let mut mix = Mix::build(args, None);
    mix.verify_all()?;
    let serving = start(&mix);
    let mut warm = Report::default();
    // Warm up with one whole round, so measurement starts at a round
    // boundary.
    closed_loop(
        &serving,
        &mut mix,
        |_| TraceLevel::Off,
        &mut warm,
        |n, round| n > 0 && round,
    );
    if warm.failed > 0 {
        report.notes.extend(warm.notes);
        return Err(format!(
            "{} of {} warm-up jobs failed",
            warm.failed, warm.attempted
        ));
    }
    Ok(Setup { mix, serving })
}

fn finish(sv: Serving, report: &mut Report) -> mpix::core::ServeReport {
    let r = sv.server.shutdown();
    report.notes.push(format!(
        "serve: cache cap {} | jobs {} done {} rejected {} failed {} | cache hits {} misses {} compiles {} evictions {}",
        sv.cap, r.jobs, r.done, r.rejected, r.failed, r.cache.hits, r.cache.misses, r.cache.compiles,
        r.cache.evictions
    ));
    r
}

pub fn run(args: &Args, t_start: Instant) -> Report {
    let mut report = Report::default();
    let mut notes = Report::default();
    let (state, setup_times) = repeated_setup(t_start, || setup(args, &mut notes));
    report.notes.append(&mut notes.notes);
    let mut st = match state {
        Ok(st) => st,
        Err(e) => {
            report.attempted = 1;
            report.fail(e);
            return report;
        }
    };
    let seconds = args.seconds;
    let (samples, window) = {
        let t = Instant::now();
        // Measure whole rounds only, so every seed measures the same work.
        closed_loop(
            &st.serving,
            &mut st.mix,
            |_| TraceLevel::Off,
            &mut report,
            |_, round| round && t.elapsed().as_secs_f64() >= seconds,
        )
    };
    finish(st.serving, &mut report);
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency).collect();
    let points: f64 = samples.iter().map(|s| s.points).sum();
    end_to_end(&mut report, &setup_times, &latencies, window, 0.0);
    // Throughput as the client sees it with two jobs outstanding: jobs and
    // grid-point updates of every finished job over the window.
    report.set("ops_per_s", samples.len() as f64 / window);
    report.set("gpts", points / window / 1e9);
    report
}

pub fn run_traced(args: &Args) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::new();

    // Traced set-up: build, verify, and compile plus first-vs-warm run of
    // every served configuration, each on its own timer.
    let mut st = match attempt(&mut report, || {
        let mix = Mix::build(args, Some(&mut layers));
        let t = Instant::now();
        mix.verify_all()?;
        layers.insert("analysis.verify_s", t.elapsed().as_secs_f64());
        let mut acc = Layers::new();
        for (i, s) in mix.configs() {
            let mut l = Layers::new();
            let case = s.case(Arc::clone(&mix.props[*i]));
            let t = Instant::now();
            let exec = case.prop.op.compile_executable_for(&case.opts);
            l.insert("codegen.compile_s", t.elapsed().as_secs_f64());
            let jit0 = jit_modules_built();
            let spawn = spawn_probe(case.opts.ranks, &case.dims());
            let (_, first) = case.run_traced(&exec, spawn);
            l.insert("codegen.jit_modules", (jit_modules_built() - jit0) as f64);
            let (_, warm) = case.run_traced(&exec, spawn);
            l.insert(
                "codegen.first_run_extra_s",
                first.layers["apply_s"] - warm.layers["apply_s"],
            );
            accumulate(&mut acc, &l);
        }
        layers.extend(acc);
        let serving = start(&mix);
        Ok(Setup { mix, serving })
    }) {
        Some(st) => st,
        None => return report,
    };

    // Untraced and traced (`TraceLevel::Summary`) jobs alternate on the
    // same server, so host drift hits both alike; their latency medians
    // give the tracing overhead, the traced records the serve metrics.
    let before = st.serving.server.cache().stats();
    let t = Instant::now();
    let (samples, _) = closed_loop(
        &st.serving,
        &mut st.mix,
        |n| [TraceLevel::Off, TraceLevel::Summary][n % 2],
        &mut report,
        |_, _| t.elapsed().as_secs_f64() >= 0.65 * args.seconds,
    );
    let after = st.serving.server.cache().stats();
    let cap = st.serving.cap;
    finish(st.serving, &mut report);
    let (traced, untraced): (Vec<Sample>, Vec<Sample>) =
        samples.into_iter().partition(|s| s.traced);

    let lat = |v: &[Sample]| median(&v.iter().map(|s| s.latency).collect::<Vec<_>>());
    let run_s = |f: &dyn Fn(&Sample) -> bool| {
        let v: Vec<f64> = traced
            .iter()
            .filter(|s| f(s))
            .filter_map(|s| s.summary.as_ref().map(|m| m.total_secs))
            .collect();
        median(&v)
    };
    let queue: Vec<f64> = traced
        .iter()
        .filter_map(|s| s.summary.as_ref().map(|m| s.latency - m.total_secs))
        .collect();
    layers.insert("serve.queue_s_p50", median(&queue));
    layers.insert("serve.run_s_p50", run_s(&|_| true));
    layers.insert("serve.run_s_p50.jit", run_s(&|s| s.backend == Backend::Jit));
    layers.insert(
        "serve.run_s_p50.bytecode",
        run_s(&|s| s.backend == Backend::Bytecode),
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    layers.insert("serve.cache_hits", hits as f64);
    layers.insert("serve.cache_misses", misses as f64);
    layers.insert(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.insert("serve.compiles", (after.compiles - before.compiles) as f64);
    layers.insert(
        "serve.evictions",
        (after.evictions - before.evictions) as f64,
    );
    let p50_untraced = lat(&untraced);
    layers.insert(
        "trace.overhead_frac",
        if p50_untraced > 0.0 {
            lat(&traced) / p50_untraced - 1.0
        } else {
            0.0
        },
    );
    report.notes.push(format!(
        "serve latency p90: untraced {:.3e} s over {} jobs, traced {:.3e} s over {} jobs",
        quantile(&untraced.iter().map(|s| s.latency).collect::<Vec<_>>(), 0.9),
        untraced.len(),
        quantile(&traced.iter().map(|s| s.latency).collect::<Vec<_>>(), 0.9),
        traced.len()
    ));

    // Then the same job stream replayed without the server, each job
    // rebuilt from its public parts (cache key → bounded cache → traced
    // run) so its wall time splits across layers.
    let cache = OperatorCache::bounded(cap);
    let spawn = [1, 2].map(|r| spawn_probe(r, &dims_create(r, 3)));
    let mut per_job: Vec<Layers> = Vec::new();
    let (mut attributed, mut wall, mut flops, mut compute) = (0.0, 0.0, 0.0, 0.0);
    let (mut pts, mut ir_flops, mut bytes, mut bytes_per_step) = (0.0, 0.0, 0.0, 0.0);
    let mut subnormal = Vec::new();
    let mut steady = None;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < 0.35 * args.seconds {
        let case = st.mix.next(TraceLevel::Summary);
        let r = attempt(&mut report, || {
            let start = Instant::now();
            let key = OperatorKey::of(&case.prop.op, &case.opts);
            let (exec, _) = cache.get_or_compile(key, || {
                Arc::new(case.prop.op.compile_executable_for(&case.opts))
            });
            let lookup = start.elapsed().as_secs_f64();
            let (out, tr) = case.run_traced(&exec, spawn[case.opts.ranks - 1]);
            Ok((out, tr, lookup, start.elapsed().as_secs_f64(), exec))
        });
        let Some((out, tr, lookup, w, exec)) = r else {
            continue;
        };
        attributed += lookup + tr.attributed;
        wall += w;
        flops += case.flops();
        compute += tr.layers["codegen.compute_s"];
        let p = case.point_steps();
        pts += p;
        let counts = case.prop.op.op_counts();
        ir_flops += counts.flops() as f64 * p;
        bytes += counts.bytes() as f64 * p;
        bytes_per_step += case.bytes_per_step();
        subnormal.push(subnormal_frac(&out.field));
        if steady.is_none() && case.opts.ranks == 2 && case.opts.backend == Backend::Jit {
            steady = Some(case.steady_state_bufs(&exec));
        }
        per_job.push(tr.layers);
    }
    // Means, not medians: half the jobs run on one rank, and their zero
    // halo sections would hide the other half's.
    let mut job_layers = means(&per_job);
    job_layers.remove("apply_s");
    layers.extend(job_layers);
    layers.insert("codegen.flops_per_pt", flops / pts.max(1.0));
    layers.insert("codegen.oi", ir_flops / bytes.max(1.0));
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
        bytes_per_step / per_job.len().max(1) as f64,
    );
    layers.insert(
        "codegen.subnormal_frac",
        subnormal.iter().sum::<f64>() / subnormal.len().max(1) as f64,
    );
    layers.insert("comm.bufs_allocated", steady.unwrap_or(0.0));
    layers.insert(
        "unattributed_frac",
        if wall > 0.0 {
            1.0 - attributed / wall
        } else {
            0.0
        },
    );
    report
        .notes
        .push(format!("replayed jobs: {}", per_job.len()));
    for (k, v) in layers {
        report.set(k, v);
    }
    report
}
