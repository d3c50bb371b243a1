//! `mpix-serve`: a long-running solver service on top of [`Operator`].
//!
//! The pre-serve flow paid full compilation on every `Operator::run`:
//! mode lowering, cluster compilation, and (on the `jit` backend) native
//! module encoding were rebuilt per call. A service answering many
//! solver jobs — the same handful of kernels at different sizes, modes,
//! and rank counts, submitted by different tenants — would recompile
//! the same operator hundreds of times. This module makes compilation a
//! *cached, content-addressed* step:
//!
//! * [`OperatorKey`] — the cache key is a content hash of the lowered
//!   operator ([`Operator::content_key`]: mode-lowered IET structure and
//!   expressions, compiled cluster bytecode, backend, interpreter lane
//!   width). Pointer identity plays no part: two `Operator`s built from
//!   the same equations share one compiled artifact; same-geometry
//!   operators with different expressions do not.
//! * [`OperatorCache`] — a concurrent map from key to compiled
//!   [`OperatorExec`] with **single-flight** compilation: when N jobs
//!   race on a cold key, exactly one compiles while the other N−1 wait
//!   on the slot, then share the artifact. [`CacheStats`] counts hits,
//!   misses, and compiles (`compiles == misses == unique keys` is the
//!   invariant `tests/serve_load.rs` pins).
//! * [`RankPool`] — admission-controlled scheduling: the pool owns a
//!   fixed number of simulated-MPI rank slots; a job's rank request is
//!   acquired all-or-nothing before it runs and released after.
//!   Admission is priced by [`mpix_perf::price_job`] (roofline
//!   rank-seconds from the operator's compile-time op counts), so a job
//!   that would monopolize the pool is rejected *before* compiling.
//! * [`Server`] — worker threads draining a job queue. Each finished
//!   job streams one JSON record (cache hit/miss, admission price, the
//!   full [`mpix_trace::PerfSummary`] with diagnostics) through the sink; shutdown
//!   streams a final summary record with the cache hit rate.
//!
//! Tenant isolation is by construction: every job's `run` builds a
//! fresh communicator world ([`mpix_comm::Comm::world_id`] is unique
//! per run), so no message, barrier, or sanitizer state crosses jobs —
//! only the immutable compiled artifacts are shared.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mpix_codegen::OperatorExec;
use mpix_json::{json, Value};
use mpix_perf::machine::archer2_node;

use crate::operator::{ApplyOptions, Operator};
use crate::workspace::Workspace;

// ---------------------------------------------------------------------------
// Cache key
// ---------------------------------------------------------------------------

/// Content hash identifying one compiled operator artifact (see
/// [`Operator::content_key`] for what it covers). Displayed as 16 hex
/// digits in job records.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OperatorKey(pub u64);

impl OperatorKey {
    /// Compute the key for an operator under the given run options.
    pub fn of(op: &Operator, opts: &ApplyOptions) -> OperatorKey {
        OperatorKey(op.content_key(opts))
    }
}

impl fmt::Display for OperatorKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Cache statistics
// ---------------------------------------------------------------------------

/// Hit/miss/compile counters for one [`OperatorCache`]. Counters are
/// cache-local (not process-global) so concurrent tests and servers in
/// one process never perturb each other's numbers.
#[derive(Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Requests served from an already-compiled (or in-flight) slot.
    pub hits: u64,
    /// Requests that found no slot and triggered a compile.
    pub misses: u64,
    /// Compilations actually executed. Equal to `misses` — the
    /// single-flight invariant — and to the number of unique keys seen.
    pub compiles: u64,
    /// Ready slots dropped by the LRU capacity bound (always 0 for an
    /// unbounded cache). A re-request of an evicted key recompiles, so
    /// `compiles` can exceed the number of *live* keys by `evictions`.
    pub evictions: u64,
}

impl CacheSnapshot {
    /// Fraction of requests served without compiling (0.0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    pub fn to_json(&self) -> Value {
        json!({
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
        })
    }
}

// ---------------------------------------------------------------------------
// The operator cache (single-flight)
// ---------------------------------------------------------------------------

/// One cache slot. `state` moves `Compiling → Ready` exactly once;
/// `Poisoned` records a compile panic so waiters fail loudly instead of
/// hanging or silently recompiling.
enum SlotState {
    Compiling,
    Ready(Arc<OperatorExec>),
    Poisoned(String),
}

struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

/// Marks the slot poisoned if the compiling thread unwinds before
/// storing a result, and wakes every waiter either way.
struct CompileGuard<'a> {
    slot: &'a Slot,
    armed: bool,
}

impl Drop for CompileGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            *self.slot.state.lock().unwrap() =
                SlotState::Poisoned("compile panicked; see the compiling job's error".into());
        }
        self.slot.ready.notify_all();
    }
}

/// One cache entry: the slot plus its recency stamp for LRU eviction.
struct Entry {
    slot: Arc<Slot>,
    last_used: u64,
}

/// The mutex-protected cache interior: the key map and a monotone use
/// counter (incremented per request) that stamps entries for LRU order.
#[derive(Default)]
struct CacheMap {
    slots: HashMap<OperatorKey, Entry>,
    tick: u64,
}

/// A concurrent, content-addressed map from [`OperatorKey`] to compiled
/// executable, with single-flight compilation: for each key, exactly one
/// requester compiles; concurrent requesters for the same key block
/// until the artifact is ready and then share it.
///
/// By default entries are never evicted — compiled operators are small
/// (bytecode programs plus JIT module tables) and a serving process
/// wants its whole working set warm. A long-lived multi-tenant server
/// seeing unbounded distinct operators can bound the map with
/// [`bounded`](Self::bounded) (`MPIX_SERVE_CACHE_CAP` at the server
/// level): inserting past the capacity evicts least-recently-used
/// **non-in-flight** slots. A slot still compiling is never evicted —
/// removing it would break single-flight (a concurrent request for the
/// same key would start a second compile while waiters block on the
/// orphaned slot). Evicting a Ready slot is safe: running jobs keep
/// their `Arc<OperatorExec>`; only the cache's reference is dropped.
#[derive(Default)]
pub struct OperatorCache {
    map: Mutex<CacheMap>,
    /// Maximum live slots; `None` = unbounded.
    cap: Option<usize>,
    stats: CacheStats,
}

impl OperatorCache {
    /// An unbounded cache (entries live until the server drops).
    pub fn new() -> OperatorCache {
        OperatorCache::default()
    }

    /// A cache holding at most `cap` slots, LRU-evicting beyond that.
    pub fn bounded(cap: usize) -> OperatorCache {
        assert!(cap >= 1, "the operator cache needs at least one slot");
        OperatorCache {
            cap: Some(cap),
            ..OperatorCache::default()
        }
    }

    /// Fetch the artifact for `key`, compiling it with `compile` if this
    /// is the first request. Returns the shared executable and whether
    /// the request was a cache hit (`false` exactly for the one request
    /// per key that ran `compile`).
    ///
    /// If `compile` panics, the panic propagates to this caller, the
    /// slot is poisoned, and every waiter on the same key panics with
    /// the poison message — a broken operator fails all its jobs rather
    /// than deadlocking the pool.
    pub fn get_or_compile<F>(&self, key: OperatorKey, compile: F) -> (Arc<OperatorExec>, bool)
    where
        F: FnOnce() -> Arc<OperatorExec>,
    {
        let (slot, we_compile) = {
            let mut m = self.map.lock().unwrap();
            m.tick += 1;
            let tick = m.tick;
            match m.slots.get_mut(&key) {
                Some(e) => {
                    e.last_used = tick;
                    (Arc::clone(&e.slot), false)
                }
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Compiling),
                        ready: Condvar::new(),
                    });
                    m.slots.insert(
                        key,
                        Entry {
                            slot: Arc::clone(&slot),
                            last_used: tick,
                        },
                    );
                    if let Some(cap) = self.cap {
                        self.evict_over(&mut m, cap);
                    }
                    (slot, true)
                }
            }
        };

        if we_compile {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            self.stats.compiles.fetch_add(1, Ordering::Relaxed);
            let mut guard = CompileGuard {
                slot: &slot,
                armed: true,
            };
            // Compile outside both locks: waiters block on the slot, and
            // other keys stay servable while this one compiles.
            let exec = compile();
            *slot.state.lock().unwrap() = SlotState::Ready(Arc::clone(&exec));
            guard.armed = false;
            drop(guard); // notify_all
            return (exec, false);
        }

        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        let mut state = slot.state.lock().unwrap();
        loop {
            match &*state {
                SlotState::Ready(exec) => return (Arc::clone(exec), true),
                SlotState::Poisoned(msg) => {
                    panic!("operator cache: key {key} poisoned: {msg}")
                }
                SlotState::Compiling => state = slot.ready.wait(state).unwrap(),
            }
        }
    }

    /// Drop least-recently-used non-in-flight slots until at most `cap`
    /// remain (or nothing evictable is left — a map full of compiling
    /// slots may transiently exceed the capacity rather than stall
    /// admission or break single-flight).
    fn evict_over(&self, m: &mut CacheMap, cap: usize) {
        while m.slots.len() > cap {
            let victim = m
                .slots
                .iter()
                .filter(|(_, e)| {
                    // try_lock: a contended state mutex means the slot is
                    // mid-compile or being handed to waiters — in-flight
                    // either way, so it is not a candidate.
                    e.slot
                        .state
                        .try_lock()
                        .is_ok_and(|s| !matches!(&*s, SlotState::Compiling))
                })
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    m.slots.remove(&k);
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Number of keys currently live in the map (evicted keys are gone;
    /// an unbounded cache never shrinks).
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            compiles: self.stats.compiles.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// The rank pool
// ---------------------------------------------------------------------------

/// A fixed budget of simulated-MPI rank slots shared by every running
/// job. Acquisition is all-or-nothing (a job holds either all of its
/// ranks or none — partial holds would deadlock two half-admitted
/// jobs) and blocking, in arrival order of the wakeups.
pub struct RankPool {
    total: usize,
    avail: Mutex<usize>,
    freed: Condvar,
}

impl RankPool {
    /// A pool of `total` rank slots. `total == 0` is a configuration
    /// error (no job could ever run).
    pub fn new(total: usize) -> RankPool {
        assert!(total >= 1, "rank pool needs at least one slot");
        RankPool {
            total,
            avail: Mutex::new(total),
            freed: Condvar::new(),
        }
    }

    /// Pool capacity (the admission bound on a single job's ranks).
    pub fn capacity(&self) -> usize {
        self.total
    }

    /// Rank slots not currently held by a running job.
    pub fn available(&self) -> usize {
        *self.avail.lock().unwrap()
    }

    /// Block until `n` slots are free, then take them. Panics if `n`
    /// exceeds capacity — such a job can never be satisfied, and the
    /// scheduler rejects it at admission instead of calling this.
    pub fn acquire(self: &Arc<Self>, n: usize) -> RankPermit {
        assert!(
            n >= 1 && n <= self.total,
            "cannot acquire {n} ranks from a pool of {}",
            self.total
        );
        let mut avail = self.avail.lock().unwrap();
        while *avail < n {
            avail = self.freed.wait(avail).unwrap();
        }
        *avail -= n;
        RankPermit {
            pool: Arc::clone(self),
            n,
        }
    }
}

/// RAII hold on `n` rank slots; dropping returns them and wakes waiters.
pub struct RankPermit {
    pool: Arc<RankPool>,
    n: usize,
}

impl RankPermit {
    /// How many slots this permit holds.
    pub fn ranks(&self) -> usize {
        self.n
    }
}

impl Drop for RankPermit {
    fn drop(&mut self) {
        let mut avail = self.pool.avail.lock().unwrap();
        *avail += self.n;
        self.pool.freed.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Server configuration. Like [`ApplyOptions`], builders set the
/// baseline and [`env_overrides`](Self::env_overrides) lets job scripts
/// retune a fixed binary; set-but-malformed values panic.
///
/// | variable                | overrides    | values                     |
/// |-------------------------|--------------|----------------------------|
/// | `MPIX_SERVE_WORKERS`    | `workers`    | worker threads, >= 1       |
/// | `MPIX_SERVE_POOL_RANKS` | `pool_ranks` | rank slots, >= 1           |
/// | `MPIX_SERVE_MAX_COST`   | `max_cost`   | rank-seconds bound (> 0), or `off` |
/// | `MPIX_SERVE_CACHE_CAP`  | `cache_cap`  | max cached operators (>= 1), or `off` |
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Concurrent job-executing worker threads.
    pub workers: usize,
    /// Total simulated-MPI rank slots in the [`RankPool`].
    pub pool_ranks: usize,
    /// Reject jobs whose roofline admission price exceeds this many
    /// rank-seconds on the reference machine. `None` = no price bound
    /// (capacity bounds still apply).
    pub max_cost: Option<f64>,
    /// Bound the [`OperatorCache`] to this many compiled operators,
    /// LRU-evicting non-in-flight slots beyond it. `None` = unbounded
    /// (every compiled operator stays warm for the server's lifetime).
    pub cache_cap: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            pool_ranks: 16,
            max_cost: None,
            cache_cap: None,
        }
    }
}

impl ServeConfig {
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "a server needs at least one worker");
        self.workers = workers;
        self
    }
    pub fn with_pool_ranks(mut self, pool_ranks: usize) -> Self {
        assert!(pool_ranks >= 1, "the rank pool needs at least one slot");
        self.pool_ranks = pool_ranks;
        self
    }
    pub fn with_max_cost(mut self, rank_seconds: f64) -> Self {
        assert!(rank_seconds > 0.0, "max cost must be positive");
        self.max_cost = Some(rank_seconds);
        self
    }
    pub fn with_cache_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "the operator cache needs at least one slot");
        self.cache_cap = Some(cap);
        self
    }

    /// Apply `MPIX_SERVE_*` environment overrides (env wins; unset
    /// leaves the builder value; set-but-malformed panics — the same
    /// contract as [`ApplyOptions::env_overrides`]).
    pub fn env_overrides(mut self) -> Self {
        if let Ok(v) = std::env::var("MPIX_SERVE_WORKERS") {
            self.workers = match v.parse() {
                Ok(w) if w >= 1 => w,
                _ => panic!("MPIX_SERVE_WORKERS={v:?}: expected a worker count >= 1"),
            };
        }
        if let Ok(v) = std::env::var("MPIX_SERVE_POOL_RANKS") {
            self.pool_ranks = match v.parse() {
                Ok(r) if r >= 1 => r,
                _ => panic!("MPIX_SERVE_POOL_RANKS={v:?}: expected a rank-slot count >= 1"),
            };
        }
        if let Ok(v) = std::env::var("MPIX_SERVE_MAX_COST") {
            self.max_cost = match v.to_ascii_lowercase().as_str() {
                "off" | "none" => None,
                _ => match v.parse::<f64>() {
                    Ok(c) if c > 0.0 && c.is_finite() => Some(c),
                    _ => panic!("MPIX_SERVE_MAX_COST={v:?}: expected rank-seconds > 0, or off"),
                },
            };
        }
        if let Ok(v) = std::env::var("MPIX_SERVE_CACHE_CAP") {
            self.cache_cap = match v.to_ascii_lowercase().as_str() {
                "off" | "none" => None,
                _ => match v.parse::<usize>() {
                    Ok(c) if c >= 1 => Some(c),
                    _ => panic!("MPIX_SERVE_CACHE_CAP={v:?}: expected a slot count >= 1, or off"),
                },
            };
        }
        self
    }

    /// Defaults plus environment overrides.
    pub fn from_env() -> Self {
        ServeConfig::default().env_overrides()
    }
}

// ---------------------------------------------------------------------------
// Jobs and records
// ---------------------------------------------------------------------------

/// One solver job: an operator, its run options, and a data initializer,
/// tagged with the submitting tenant. The operator rides in an `Arc` so
/// many jobs can share one build; sharing of *compiled* artifacts is by
/// content key, so distinct `Operator` instances with identical physics
/// still share.
pub struct Job {
    /// Submitting tenant, echoed in the job record. Isolation between
    /// tenants is structural (fresh communicator world per run), not
    /// name-based.
    pub tenant: String,
    pub op: Arc<Operator>,
    pub opts: ApplyOptions,
    /// Seeds each rank's workspace before time stepping (global
    /// indexing, as in `Operator::run`).
    pub init: Arc<dyn Fn(&mut Workspace) + Send + Sync>,
}

impl Job {
    /// A job with a no-op initializer (zero-filled fields).
    pub fn new(tenant: &str, op: Arc<Operator>, opts: ApplyOptions) -> Job {
        Job {
            tenant: tenant.to_string(),
            op,
            opts,
            init: Arc::new(|_| {}),
        }
    }

    pub fn with_init(mut self, init: impl Fn(&mut Workspace) + Send + Sync + 'static) -> Job {
        self.init = Arc::new(init);
        self
    }
}

/// Terminal status of one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion; the record carries the `PerfSummary`.
    Done,
    /// Refused at admission (over pool capacity or over the price
    /// bound); never compiled, never held pool slots.
    Rejected,
    /// Panicked while compiling or running; the worker survived and the
    /// record carries the panic message.
    Failed,
}

impl JobStatus {
    fn name(self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Rejected => "rejected",
            JobStatus::Failed => "failed",
        }
    }
}

/// Everything the server knows about one finished job — the struct
/// behind the streamed JSON record.
pub struct JobRecord {
    pub job: u64,
    pub tenant: String,
    pub status: JobStatus,
    /// Content key, when the job got far enough to compute one.
    pub key: Option<OperatorKey>,
    /// Whether the compiled artifact came from cache. `None` for jobs
    /// that never reached the cache.
    pub cache_hit: Option<bool>,
    /// Roofline admission price.
    pub cost: Option<mpix_perf::JobCost>,
    /// Communicator world id of the run — unique per job, the tenant-
    /// isolation witness.
    pub world_id: Option<u64>,
    /// Why the job was rejected or failed.
    pub reason: Option<String>,
    /// The run's performance summary (with diagnostics), when it ran.
    pub summary: Option<mpix_trace::PerfSummary>,
}

impl JobRecord {
    /// The streamed JSON form (`"record": "job"` lines in the stream).
    pub fn to_json(&self) -> Value {
        json!({
            "record": "job",
            "job": self.job,
            "tenant": &self.tenant,
            "status": self.status.name(),
            "key": self.key.map(|k| k.to_string()),
            "cache": self.cache_hit.map(|h| if h { "hit" } else { "miss" }),
            "cost": self.cost.as_ref().map(|c| c.to_json()),
            "world_id": self.world_id,
            "reason": self.reason.clone(),
            "summary": self.summary.as_ref().map(|s| s.to_json()),
        })
    }
}

/// Aggregate result of a server's lifetime, returned by
/// [`Server::shutdown`] and streamed as the final `"record": "serve.summary"`
/// line.
#[derive(Clone, Debug)]
pub struct ServeReport {
    pub jobs: u64,
    pub done: u64,
    pub rejected: u64,
    pub failed: u64,
    pub cache: CacheSnapshot,
}

impl ServeReport {
    pub fn to_json(&self) -> Value {
        json!({
            "record": "serve.summary",
            "jobs": self.jobs,
            "done": self.done,
            "rejected": self.rejected,
            "failed": self.failed,
            "cache": self.cache.to_json(),
        })
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Where finished-job records go. Called once per job (and once at
/// shutdown) from worker threads; implementations must be cheap or
/// internally buffered.
pub type RecordSink = Arc<dyn Fn(&Value) + Send + Sync>;

struct ServerShared {
    cache: OperatorCache,
    pool: Arc<RankPool>,
    cfg: ServeConfig,
    sink: RecordSink,
    done: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
}

/// The serving loop: `workers` threads drain a submission queue, admit
/// jobs against the [`RankPool`], compile through the shared
/// [`OperatorCache`], run, and stream a [`JobRecord`] per job.
///
/// ```
/// use std::sync::Arc;
/// use mpix_core::prelude::*;
/// use mpix_core::serve::{Job, RecordSink, ServeConfig, Server};
///
/// let mut ctx = Context::new();
/// let grid = Grid::new(&[8, 8], &[7.0, 7.0]);
/// let u = ctx.add_time_function("u", &grid, 2, 2);
/// let eq = Eq::new(u.dt(), u.laplace());
/// let stencil = eq.solve_for(&u.forward(), &ctx).unwrap();
/// let op = Arc::new(Operator::build(ctx, grid, vec![stencil]).unwrap());
///
/// let sink: RecordSink = Arc::new(|_record| { /* stream it */ });
/// let server = Server::start(ServeConfig::default().with_workers(2), sink);
/// for _ in 0..4 {
///     server.submit(Job::new(
///         "tenant-a",
///         Arc::clone(&op),
///         ApplyOptions::default().with_nt(1).with_ranks(2),
///     ));
/// }
/// let report = server.shutdown();
/// assert_eq!(report.done, 4);
/// assert_eq!(report.cache.compiles, 1); // one artifact, shared 4 ways
/// ```
pub struct Server {
    shared: Arc<ServerShared>,
    tx: Option<mpsc::Sender<(u64, Job)>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Server {
    /// Spawn the worker threads and return the handle jobs are submitted
    /// through.
    pub fn start(cfg: ServeConfig, sink: RecordSink) -> Server {
        assert!(cfg.workers >= 1, "a server needs at least one worker");
        let shared = Arc::new(ServerShared {
            cache: match cfg.cache_cap {
                Some(cap) => OperatorCache::bounded(cap),
                None => OperatorCache::new(),
            },
            pool: Arc::new(RankPool::new(cfg.pool_ranks)),
            cfg,
            sink,
            done: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::channel::<(u64, Job)>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..shared.cfg.workers)
            .map(|w| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mpix-serve-{w}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only to dequeue; running
                        // the job must not serialize the other workers.
                        let next = rx.lock().unwrap().recv();
                        match next {
                            Ok((id, job)) => run_job(&shared, id, job),
                            Err(_) => break, // queue closed: shutdown
                        }
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            shared,
            tx: Some(tx),
            workers,
            next_id: AtomicU64::new(1),
        }
    }

    /// Enqueue a job; returns its id (stamped into the streamed record).
    /// Submission never blocks — admission happens on the worker.
    pub fn submit(&self, job: Job) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.tx
            .as_ref()
            .expect("server accepting jobs")
            .send((id, job))
            .expect("serve queue alive while the server holds workers");
        id
    }

    /// The shared artifact cache (for inspection/tests).
    pub fn cache(&self) -> &OperatorCache {
        &self.shared.cache
    }

    /// The rank pool (for inspection/tests).
    pub fn pool(&self) -> &RankPool {
        &self.shared.pool
    }

    /// Close the queue, drain every submitted job, join the workers, and
    /// stream + return the lifetime summary.
    pub fn shutdown(mut self) -> ServeReport {
        drop(self.tx.take()); // close the queue; workers drain and exit
        for w in self.workers.drain(..) {
            w.join().expect("serve worker exited cleanly");
        }
        let report = ServeReport {
            jobs: self.next_id.load(Ordering::Relaxed) - 1,
            done: self.shared.done.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            cache: self.shared.cache.stats(),
        };
        (self.shared.sink)(&report.to_json());
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `shutdown` consumed the fields; a dropped-without-shutdown
        // server still drains its queue rather than stranding jobs.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Execute one job end to end on a worker thread and stream its record.
fn run_job(shared: &ServerShared, id: u64, job: Job) {
    let mut record = JobRecord {
        job: id,
        tenant: job.tenant.clone(),
        status: JobStatus::Failed,
        key: None,
        cache_hit: None,
        cost: None,
        world_id: None,
        reason: None,
        summary: None,
    };

    // Admission: price from compile-time counts — no full compilation,
    // no pool slots spent on a job we refuse. Per-point work comes from
    // the memoized bytecode flop count (what the executor actually
    // runs), not a per-solver constant, so pricing tracks compiler
    // improvements like the CSE fix instead of a stale snapshot.
    let counts = job.op.op_counts();
    let cost = mpix_perf::price_job(
        job.op.bytecode_flops() as f64,
        counts.bytes() as f64,
        job.op.grid().num_points() as u64,
        job.opts.nt.max(0) as u64,
        job.opts.ranks,
        &archer2_node(),
    );
    let over_capacity = job.opts.ranks > shared.pool.capacity();
    let over_price = shared
        .cfg
        .max_cost
        .is_some_and(|max| cost.rank_seconds > max);
    record.cost = Some(cost);
    if over_capacity || over_price {
        record.status = JobStatus::Rejected;
        record.reason = Some(if over_capacity {
            format!(
                "requested {} ranks; pool capacity is {}",
                job.opts.ranks,
                shared.pool.capacity()
            )
        } else {
            format!(
                "admission price {:.3e} rank-seconds exceeds MPIX_SERVE_MAX_COST {:.3e}",
                record.cost.as_ref().unwrap().rank_seconds,
                shared.cfg.max_cost.unwrap()
            )
        });
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        (shared.sink)(&record.to_json());
        return;
    }

    // Compile (or fetch) the shared artifact, then run under a pool
    // permit. Panics — a broken operator, a failed verification gate, a
    // sanitizer-poisoned world — fail this job, not the worker.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let key = OperatorKey::of(&job.op, &job.opts);
        let (exec, hit) = shared
            .cache
            .get_or_compile(key, || Arc::new(job.op.compile_executable_for(&job.opts)));
        let _permit = shared.pool.acquire(job.opts.ranks.max(1));
        let init = Arc::clone(&job.init);
        let applied = job.op.run_with_exec(
            &exec,
            &job.opts,
            move |ws| init(ws),
            |ws| ws.cart.comm().world_id(),
        );
        (key, hit, applied)
    }));

    match outcome {
        Ok((key, hit, applied)) => {
            record.status = JobStatus::Done;
            record.key = Some(key);
            record.cache_hit = Some(hit);
            record.world_id = applied.results.first().copied();
            record.summary = Some(applied.summary);
            shared.done.fetch_add(1, Ordering::Relaxed);
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "job panicked".to_string());
            record.status = JobStatus::Failed;
            record.reason = Some(msg);
            shared.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    (shared.sink)(&record.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_exec_factory(calls: &AtomicU64) -> impl Fn() -> Arc<OperatorExec> + '_ {
        move || {
            calls.fetch_add(1, Ordering::Relaxed);
            // Build a tiny real executable: serve tests at module level
            // use real operators; unit tests here only need *an* exec.
            let mut ctx = mpix_symbolic::Context::new();
            let grid = mpix_symbolic::Grid::new(&[4, 4], &[3.0, 3.0]);
            let u = ctx.add_time_function("u", &grid, 2, 1);
            let eq = mpix_symbolic::Eq::new(u.dt(), u.laplace());
            let st = eq.solve_for(&u.forward(), &ctx).unwrap();
            let op = Operator::build(ctx, grid, vec![st]).unwrap();
            Arc::new(op.compile_executable_for(&ApplyOptions::default()))
        }
    }

    #[test]
    fn cache_counts_hits_misses_and_compiles() {
        let cache = OperatorCache::new();
        let calls = AtomicU64::new(0);
        let factory = dummy_exec_factory(&calls);
        let (a, hit_a) = cache.get_or_compile(OperatorKey(1), &factory);
        let (b, hit_b) = cache.get_or_compile(OperatorKey(1), &factory);
        let (_c, hit_c) = cache.get_or_compile(OperatorKey(2), &factory);
        assert!(!hit_a && hit_b && !hit_c);
        assert!(Arc::ptr_eq(&a, &b), "same key shares one artifact");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compiles), (1, 2, 2));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(cache.len(), 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_cache_evicts_lru_instead_of_growing() {
        const CAP: usize = 2;
        let cache = OperatorCache::bounded(CAP);
        let calls = AtomicU64::new(0);
        let factory = dummy_exec_factory(&calls);

        // 3×cap distinct keys: the map must stop growing at the cap
        // rather than monotonically accreting every key it ever saw.
        for k in 0..(3 * CAP as u64) {
            cache.get_or_compile(OperatorKey(k), &factory);
            assert!(
                cache.len() <= CAP,
                "cache grew to {} slots past cap {CAP}",
                cache.len()
            );
        }
        let s = cache.stats();
        assert_eq!(s.compiles, 3 * CAP as u64, "every distinct key compiled");
        assert_eq!(
            s.evictions,
            2 * CAP as u64,
            "all but the last cap keys were evicted"
        );
        assert_eq!(cache.len(), CAP);

        // LRU order, not insertion order: touch key 4 (making key 5 the
        // least recently used), insert a fresh key, and key 4 survives
        // (hit, no compile) while key 5 is gone (recompiles on return).
        let before = cache.stats().compiles;
        let (_, hit) = cache.get_or_compile(OperatorKey(4), &factory);
        assert!(hit, "key 4 is still cached");
        cache.get_or_compile(OperatorKey(100), &factory);
        let (_, hit4) = cache.get_or_compile(OperatorKey(4), &factory);
        assert!(hit4, "recently used key survived the eviction");
        let (_, hit5) = cache.get_or_compile(OperatorKey(5), &factory);
        assert!(!hit5, "LRU key 5 was the victim");
        assert_eq!(cache.stats().compiles, before + 2, "keys 100 and 5");
    }

    #[test]
    fn compiling_slots_are_never_evicted() {
        // A capacity-1 cache with a slow compile in flight: a second
        // distinct key inserted mid-compile must not evict the compiling
        // slot (that would break single-flight); the map transiently
        // holds both, then the *ready* slot is evictable next insert.
        let cache = Arc::new(OperatorCache::bounded(1));
        let calls = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let slow = {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                s.spawn(move || {
                    let factory = dummy_exec_factory(&calls);
                    cache.get_or_compile(OperatorKey(1), || {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        factory()
                    })
                })
            };
            // Give the slow compile time to claim its slot.
            std::thread::sleep(std::time::Duration::from_millis(10));
            let factory = dummy_exec_factory(&calls);
            cache.get_or_compile(OperatorKey(2), &factory);
            let (_, hit) = cache.get_or_compile(OperatorKey(1), &factory);
            assert!(hit, "in-flight slot survived the over-cap insert");
            slow.join().unwrap();
        });
        assert_eq!(
            calls.load(Ordering::Relaxed),
            2,
            "single-flight held for key 1 throughout"
        );
    }

    #[test]
    fn single_flight_under_concurrent_identical_requests() {
        let cache = Arc::new(OperatorCache::new());
        let calls = Arc::new(AtomicU64::new(0));
        let execs: Vec<Arc<OperatorExec>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let calls = Arc::clone(&calls);
                    s.spawn(move || {
                        let factory = dummy_exec_factory(&calls);
                        let (exec, _hit) = cache.get_or_compile(OperatorKey(42), || {
                            // Widen the race window: the slow compile is
                            // exactly when duplicates pile up.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            factory()
                        });
                        exec
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1, "exactly one compile");
        for e in &execs[1..] {
            assert!(Arc::ptr_eq(&execs[0], e), "all callers share the artifact");
        }
        let s = cache.stats();
        assert_eq!(s.compiles, 1);
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn poisoned_slot_fails_waiters_loudly() {
        let cache = Arc::new(OperatorCache::new());
        let compiler = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compile(OperatorKey(7), || panic!("boom"))
                }));
            })
        };
        compiler.join().unwrap();
        let waiter = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let calls = AtomicU64::new(0);
            cache.get_or_compile(OperatorKey(7), dummy_exec_factory(&calls))
        }));
        assert!(waiter.is_err(), "waiters on a poisoned key must fail");
    }

    #[test]
    fn rank_pool_blocks_until_released() {
        let pool = Arc::new(RankPool::new(4));
        let permit = pool.acquire(3);
        assert_eq!(pool.available(), 1);
        let pool2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            let p = pool2.acquire(2); // must wait for the 3 to come back
            p.ranks()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!waiter.is_finished(), "2-rank acquire must block at 1 free");
        drop(permit);
        assert_eq!(waiter.join().unwrap(), 2);
        drop(pool);
    }

    #[test]
    #[should_panic(expected = "cannot acquire")]
    fn rank_pool_rejects_over_capacity_acquire() {
        let pool = Arc::new(RankPool::new(2));
        let _ = pool.acquire(3);
    }

    #[test]
    fn serve_config_env_overrides_parse_and_panic() {
        // Env is process-global: one serialized test, like ApplyOptions'.
        std::env::set_var("MPIX_SERVE_WORKERS", "3");
        std::env::set_var("MPIX_SERVE_POOL_RANKS", "9");
        std::env::set_var("MPIX_SERVE_MAX_COST", "2.5");
        let cfg = ServeConfig::from_env();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.pool_ranks, 9);
        assert_eq!(cfg.max_cost, Some(2.5));

        std::env::set_var("MPIX_SERVE_MAX_COST", "off");
        assert_eq!(ServeConfig::from_env().max_cost, None);

        // Zero workers/ranks are misconfigurations, not "round up to 1".
        std::env::set_var("MPIX_SERVE_WORKERS", "0");
        let r = std::panic::catch_unwind(ServeConfig::from_env);
        assert!(r.is_err(), "MPIX_SERVE_WORKERS=0 must panic");
        std::env::set_var("MPIX_SERVE_WORKERS", "3");

        std::env::set_var("MPIX_SERVE_POOL_RANKS", "banana");
        let r = std::panic::catch_unwind(ServeConfig::from_env);
        assert!(r.is_err(), "malformed MPIX_SERVE_POOL_RANKS must panic");

        std::env::remove_var("MPIX_SERVE_WORKERS");
        std::env::remove_var("MPIX_SERVE_POOL_RANKS");
        std::env::remove_var("MPIX_SERVE_MAX_COST");
    }
}
