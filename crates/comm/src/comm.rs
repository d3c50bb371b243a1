//! The communicator: point-to-point messaging, requests, matching.
//!
//! ## Zero-copy typed payloads and the buffer pools
//!
//! `f32` traffic — the halo-exchange hot path — travels natively: an
//! [`Comm::isend_f32`] copies the payload once into a pooled `Vec<f32>`
//! envelope (the "wire" copy), and a typed receive either moves that
//! vector out wholesale ([`RecvRequest::wait_f32`]) or lends it to the
//! caller in place and recycles the envelope ([`PersistentRecv::wait_with`]
//! / [`PersistentRecv::try_with`], the `MPI_Recv_init` analogue). In
//! steady state the pools serve every envelope, so a halo exchange
//! performs **zero heap allocations**; [`CommStats::bufs_allocated`]
//! counts the misses so the contract is testable.
//!
//! Pools are **per sending rank** (receivers release an envelope back to
//! the pool of the rank that acquired it), so steady-state sends on
//! different ranks never serialize on one pool lock and the pooled
//! capacity scales with the rank count.
//!
//! ## Sharded bucketed matching
//!
//! Each rank's mailbox is an array of 16 *shards*, each with its own
//! mutex, condvar and set of per-`(source, tag)` FIFO queues; a stream
//! hashes to exactly one shard, preserving MPI's non-overtaking guarantee
//! per `(source, tag)` pair while concurrent senders from different peers
//! land on different locks. Matching is an O(1) front pop; persistent
//! requests resolve their `(shard, slot)` address once at init and skip
//! even the hash on every message. `MPI_Waitany`-style completion uses a
//! lock-free eventcount (an atomic push counter plus an advertised-waiter
//! count), so the arrival-order drain loop in `dmp::halo` costs senders
//! one atomic add + one atomic load when nobody is parked.
//!
//! ## Waiting
//!
//! A blocked receive first yields its core 32 times — on an
//! oversubscribed host the matching send is usually one scheduler handoff
//! away, and a yield is far cheaper than a futex round-trip — then parks
//! on a condvar until the message arrives, the world is poisoned, or the
//! world's receive timeout (the deadlock guard, `MPIX_RECV_TIMEOUT_MS`)
//! expires.
//!
//! ## Fail-fast poison semantics
//!
//! When a rank's closure panics, [`crate::Universe`] poisons the world:
//! every blocked receive and barrier wait wakes up and unwinds promptly
//! instead of hitting the receive timeout, and the *original* panic
//! payload is re-raised to the `Universe::run` caller.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mpix_san::{San, SendKind};
use mpix_trace::{MsgDir, MsgRecord};

use crate::stats::{CommStats, StatsInner};

/// Message tag. User tags must stay below [`RESERVED_TAG_BASE`].
pub type Tag = u32;

/// Tags at or above this value are reserved for collectives.
pub const RESERVED_TAG_BASE: Tag = 1 << 30;

/// Panic message used when a wait unwinds because a *peer* rank panicked
/// (the world was poisoned). `Universe::run` swallows these secondary
/// panics and re-raises the original payload instead.
pub const POISONED_MSG: &str = "world poisoned: a peer rank panicked";

/// Mailbox shards per rank (a power of two). Streams hash across them,
/// so concurrent senders into one rank rarely share a lock.
pub(crate) const MAILBOX_SHARDS: usize = 16;

/// Sched-yields a blocked receive donates before parking on a condvar.
pub(crate) const SPIN_YIELDS: usize = 32;

/// Upper bound on pooled envelope buffers per rank. A rank's in-flight
/// window is its neighbour count times the pipelining depth (26 × a few
/// for 3-D diagonal), so 256 keeps the steady state allocation-free at
/// any rank count while capping memory at O(ranks), not O(ranks²).
const POOL_MAX_PER_RANK: usize = 256;

/// A message payload. `f32` traffic (the halo hot path) is carried
/// natively so typed receives never round-trip through bytes; the byte
/// representation survives for small control traffic (`f64` reductions).
#[derive(Debug)]
enum Payload {
    Bytes(Vec<u8>),
    F32(Vec<f32>),
}

impl Payload {
    fn len_bytes(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::F32(v) => v.len() * 4,
        }
    }
}

#[derive(Debug)]
struct Envelope {
    payload: Payload,
    /// When the sender enqueued this message; receivers derive the
    /// enqueue→match latency logged at `TraceLevel::Full`. Only stamped
    /// while some rank has message logging on — a clock read per message
    /// is measurable on the halo hot path.
    sent_at: Option<Instant>,
}

/// One shard of a mailbox: an independent set of per-`(source, tag)`
/// FIFO queues under its own lock.
#[derive(Default)]
struct ShardInner {
    /// Per-(source, tag) FIFO queues. A slot, once created for a stream,
    /// lives for the world's lifetime, so persistent requests resolve
    /// their `(shard, slot)` address at init time and skip the hash
    /// lookup on every message; a pop is an O(1) front pop.
    slots: Vec<VecDeque<Envelope>>,
    /// `(source, tag)` → slot index, consulted once per persistent
    /// request (at init) and once per non-persistent message.
    index: HashMap<(usize, Tag), usize>,
    queued: usize,
    /// Threads currently parked on this shard's `arrived` condvar.
    /// Senders skip the (syscall-priced) wake entirely when nobody is
    /// parked — in a healthy exchange most messages land before the
    /// receiver blocks.
    waiters: usize,
}

impl ShardInner {
    /// Slot index of the `(src, tag)` stream, creating it on first use.
    fn slot_of(&mut self, src: usize, tag: Tag) -> usize {
        if let Some(&s) = self.index.get(&(src, tag)) {
            return s;
        }
        self.slots.push(VecDeque::new());
        let s = self.slots.len() - 1;
        self.index.insert((src, tag), s);
        s
    }

    fn push_slot(&mut self, slot: usize, env: Envelope) {
        self.slots[slot].push_back(env);
        self.queued += 1;
    }

    fn pop_slot(&mut self, slot: usize) -> Option<Envelope> {
        let env = self.slots[slot].pop_front()?;
        self.queued -= 1;
        Some(env)
    }

    fn pop(&mut self, src: usize, tag: Tag) -> Option<Envelope> {
        let &s = self.index.get(&(src, tag))?;
        self.pop_slot(s)
    }
}

struct Shard {
    inner: Mutex<ShardInner>,
    arrived: Condvar,
}

/// One mailbox per rank; senders push, the owner matches and pops.
///
/// Matching state is split across `MAILBOX_SHARDS` independently-locked
/// shards keyed by a hash of `(source, tag)`, so concurrent senders
/// targeting one rank from different streams never contend on one mutex.
/// The `MPI_Waitany` path rides on a mailbox-wide *eventcount*: `pushes`
/// counts arrivals across all shards, and a parked any-waiter advertises
/// itself in `any_waiters` before re-checking the counter — the SeqCst
/// ordering of both sides makes a lost wakeup impossible (see
/// [`wait_arrival_beyond`]).
pub(crate) struct Mailbox {
    shards: Box<[Shard]>,
    /// Monotone arrival counter across all shards (the eventcount word).
    pushes: AtomicU64,
    /// Threads inside `wait_arrival_beyond` that are about to park (or
    /// parked) on `any_arrived`. Senders skip the wake when zero.
    any_waiters: AtomicUsize,
    any_lock: Mutex<()>,
    any_arrived: Condvar,
}

impl Mailbox {
    pub(crate) fn new() -> Mailbox {
        Mailbox {
            shards: (0..MAILBOX_SHARDS)
                .map(|_| Shard {
                    inner: Mutex::new(ShardInner::default()),
                    arrived: Condvar::new(),
                })
                .collect(),
            pushes: AtomicU64::new(0),
            any_waiters: AtomicUsize::new(0),
            any_lock: Mutex::new(()),
            any_arrived: Condvar::new(),
        }
    }

    /// Shard index of the `(src, tag)` stream. A multiplicative hash of
    /// both coordinates so that one peer's many tags *and* one tag's
    /// many peers both spread across shards.
    fn shard_of(&self, src: usize, tag: Tag) -> usize {
        let h = (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (tag as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        ((h >> 32) as usize) % MAILBOX_SHARDS
    }

    /// Resolve the `(shard, slot)` address of a stream, creating the
    /// slot on first use (persistent-request init).
    fn slot_addr(&self, src: usize, tag: Tag) -> (usize, usize) {
        let si = self.shard_of(src, tag);
        let slot = self.shards[si].inner.lock().unwrap().slot_of(src, tag);
        (si, slot)
    }

    /// Enqueue one envelope. `addr` is the pre-resolved `(shard, slot)`
    /// for persistent sends; `None` falls back to the hash + index
    /// lookup. Bumps the eventcount and performs both waiter-gated
    /// wakes (the stream's shard condvar and the any-arrival condvar).
    fn push(&self, addr: Option<(usize, usize)>, src: usize, tag: Tag, env: Envelope) {
        let si = match addr {
            Some((si, _)) => si,
            None => self.shard_of(src, tag),
        };
        let shard = &self.shards[si];
        let wake = {
            let mut g = shard.inner.lock().unwrap();
            match addr {
                Some((_, slot)) => g.push_slot(slot, env),
                None => {
                    let slot = g.slot_of(src, tag);
                    g.push_slot(slot, env);
                }
            }
            g.waiters > 0
        };
        // Eventcount publish, strictly after the envelope is enqueued
        // (under the shard lock above) and strictly before the
        // any-waiter check below — see `wait_arrival_beyond` for why the
        // SeqCst pairing makes lost wakeups impossible.
        self.pushes.fetch_add(1, Ordering::SeqCst);
        if wake {
            shard.arrived.notify_all();
        }
        if self.any_waiters.load(Ordering::SeqCst) > 0 {
            let _g = self.any_lock.lock().unwrap();
            self.any_arrived.notify_all();
        }
    }

    /// Human-readable digest of queued-but-unmatched envelopes across
    /// all shards, so a receive timeout reads as the tag-mismatch it
    /// usually is rather than a lost message.
    fn queued_summary(&self) -> String {
        let mut entries: Vec<(usize, Tag, usize)> = Vec::new();
        let mut queued = 0usize;
        for shard in self.shards.iter() {
            let g = shard.inner.lock().unwrap();
            queued += g.queued;
            for (&(src, tag), &slot) in g.index.iter() {
                for env in &g.slots[slot] {
                    entries.push((src, tag, env.payload.len_bytes()));
                }
            }
        }
        if queued == 0 {
            return "mailbox is empty".to_string();
        }
        entries.sort_unstable();
        let mut out = format!("mailbox holds {queued} unmatched message(s):");
        for (i, (src, tag, bytes)) in entries.iter().enumerate() {
            if i == 16 {
                let _ = write!(out, " …");
                break;
            }
            let _ = write!(out, " (src={src}, tag={tag}, {bytes} bytes)");
        }
        out
    }

    /// Wake every waiter on every shard plus the any-arrival condvar
    /// (poison path).
    fn wake_all(&self) {
        for shard in self.shards.iter() {
            let _g = shard.inner.lock().unwrap();
            shard.arrived.notify_all();
        }
        let _g = self.any_lock.lock().unwrap();
        self.any_arrived.notify_all();
    }
}

/// Recycles envelope buffers between sends and typed receives so the
/// steady-state message path allocates nothing. `acquire` is best-fit:
/// it picks the smallest pooled buffer whose capacity covers the
/// request, so mixed message sizes stabilize after warm-up.
struct BufferPool {
    inner: Mutex<PoolInner>,
    max: usize,
}

/// Free buffers keyed by capacity so `acquire` is an `O(log n)` best-fit
/// lookup instead of a linear scan — the hot send path hits this once per
/// message.
#[derive(Default)]
struct PoolInner {
    by_cap: BTreeMap<usize, Vec<Vec<f32>>>,
    total: usize,
}

impl BufferPool {
    fn new(max: usize) -> BufferPool {
        BufferPool {
            inner: Mutex::new(PoolInner::default()),
            max,
        }
    }

    /// Returns `(buffer, allocated)` where `allocated` reports whether a
    /// heap allocation (fresh buffer or capacity growth) was needed.
    fn acquire(&self, len: usize) -> (Vec<f32>, bool) {
        let mut pool = self.inner.lock().unwrap();
        // Best fit: the smallest pooled capacity that covers the request.
        let fit = pool
            .by_cap
            .range(len..)
            .find(|(_, q)| !q.is_empty())
            .map(|(&cap, _)| cap);
        if let Some(cap) = fit {
            let buf = pool.by_cap.get_mut(&cap).unwrap().pop().unwrap();
            pool.total -= 1;
            return (buf, false);
        }
        // No adequate buffer: grow the largest undersized one (keeps the
        // pool population stable) or allocate fresh if the pool is empty.
        let biggest = pool
            .by_cap
            .iter()
            .rev()
            .find(|(_, q)| !q.is_empty())
            .map(|(&cap, _)| cap);
        if let Some(cap) = biggest {
            let mut buf = pool.by_cap.get_mut(&cap).unwrap().pop().unwrap();
            pool.total -= 1;
            buf.reserve(len);
            (buf, true)
        } else {
            (Vec::with_capacity(len), true)
        }
    }

    fn release(&self, mut buf: Vec<f32>) {
        buf.clear();
        let mut pool = self.inner.lock().unwrap();
        if pool.total < self.max {
            pool.total += 1;
            pool.by_cap.entry(buf.capacity()).or_default().push(buf);
        }
    }

    /// Pre-populate the pool with `count` buffers of `len` elements each
    /// (up to the pool cap). The halo plans call this at build time so
    /// steady-state exchanges are deterministically allocation-free: the
    /// warm-up cost is paid once, under the caller's control.
    fn reserve(&self, count: usize, len: usize) {
        let mut pool = self.inner.lock().unwrap();
        for _ in 0..count {
            if pool.total >= self.max {
                break;
            }
            let buf = Vec::with_capacity(len);
            pool.total += 1;
            pool.by_cap.entry(buf.capacity()).or_default().push(buf);
        }
    }
}

/// Condvar-based, poison-aware barrier. Unlike `std::sync::Barrier`,
/// waiters wake up and unwind when the world is poisoned instead of
/// blocking forever on a rank that will never arrive.
pub(crate) struct PoisonBarrier {
    n: usize,
    inner: Mutex<BarrierInner>,
    cv: Condvar,
}

#[derive(Default)]
struct BarrierInner {
    arrived: usize,
    generation: u64,
}

impl PoisonBarrier {
    fn new(n: usize) -> PoisonBarrier {
        PoisonBarrier {
            n,
            inner: Mutex::new(BarrierInner::default()),
            cv: Condvar::new(),
        }
    }

    fn wait(&self, poisoned: &AtomicBool) {
        let mut g = self.inner.lock().unwrap();
        if poisoned.load(Ordering::SeqCst) {
            drop(g);
            panic!("{POISONED_MSG}");
        }
        g.arrived += 1;
        if g.arrived == self.n {
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
            return;
        }
        let gen = g.generation;
        while g.generation == gen {
            g = self.cv.wait(g).unwrap();
            if poisoned.load(Ordering::SeqCst) {
                drop(g);
                panic!("{POISONED_MSG}");
            }
        }
    }

    fn poison_notify(&self) {
        let _g = self.inner.lock().unwrap();
        self.cv.notify_all();
    }
}

/// Shared state for a set of ranks (the "world").
pub(crate) struct World {
    /// Process-unique id, assigned at construction. Every `Universe::run`
    /// builds a fresh `World`, so two concurrently running jobs can prove
    /// their communicators are disjoint by comparing ids — the serve
    /// layer's tenant-isolation test does exactly this.
    pub(crate) id: u64,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) barrier: PoisonBarrier,
    pub(crate) stats: Vec<Mutex<StatsInner>>,
    /// How long a blocking receive waits before declaring deadlock.
    recv_timeout: Duration,
    /// Envelope-buffer pools, one per rank (indexed by the *sending*
    /// rank; receivers release a buffer back to its origin pool).
    pools: Box<[BufferPool]>,
    poisoned: AtomicBool,
    /// True once any rank enables message logging; senders stamp
    /// envelopes with `sent_at` only while set.
    log_any: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Happens-before sanitizer, when enabled for this world
    /// (`MPIX_SAN` / `ApplyOptions::sanitize`). `None` — the default —
    /// costs exactly one branch per hooked operation.
    pub(crate) san: Option<Arc<San>>,
}

/// Monotonic source of [`World::id`]s. Starts at 1 so 0 can mean
/// "no world" in diagnostics.
static NEXT_WORLD_ID: AtomicU64 = AtomicU64::new(1);

impl World {
    pub(crate) fn new(n: usize, san: Option<Arc<San>>, recv_timeout: Duration) -> World {
        World {
            id: NEXT_WORLD_ID.fetch_add(1, Ordering::Relaxed),
            mailboxes: (0..n).map(|_| Mailbox::new()).collect(),
            barrier: PoisonBarrier::new(n),
            stats: (0..n).map(|_| Mutex::new(StatsInner::default())).collect(),
            recv_timeout,
            pools: (0..n).map(|_| BufferPool::new(POOL_MAX_PER_RANK)).collect(),
            poisoned: AtomicBool::new(false),
            log_any: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            san,
        }
    }

    /// The envelope pool owned by (sending) `rank`.
    fn pool_for(&self, rank: usize) -> &BufferPool {
        &self.pools[rank]
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Mark the world dead after a rank panic: store the first (original)
    /// panic payload and wake every blocked waiter so peers unwind
    /// promptly instead of deadlocking.
    pub(crate) fn poison(&self, payload: Box<dyn Any + Send>) {
        {
            let mut slot = self.panic_payload.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        // Tell the sanitizer the run is unwinding: peers legitimately
        // abandon in-flight traffic now, so the finalize-time leak check
        // must not fire, but reports already collected stay flushable.
        if let Some(san) = &self.san {
            san.set_poisoned();
        }
        self.poisoned.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.wake_all();
        }
        self.barrier.poison_notify();
    }

    /// The original panic payload, if any rank panicked.
    pub(crate) fn take_panic_payload(&self) -> Option<Box<dyn Any + Send>> {
        self.panic_payload.lock().unwrap().take()
    }
}

/// Shared blocking-match loop: spin-yield, then park on the stream's
/// shard condvar until `pop` produces an envelope. Poison-aware and
/// deadline-guarded; on expiry the panic lists every queued-but-unmatched
/// envelope in the mailbox (tag-mismatch diagnosis instead of a bare
/// "deadlock").
fn wait_match(
    world: &World,
    rank: usize,
    shard_idx: usize,
    timeout: Duration,
    mut pop: impl FnMut(&mut ShardInner) -> Option<Envelope>,
    describe: impl Fn() -> String,
) -> Envelope {
    let mailbox = &world.mailboxes[rank];
    let shard = &mailbox.shards[shard_idx];
    // Cooperative phase: donate the timeslice to whichever peer owes us
    // the message before paying for a futex park.
    for _ in 0..SPIN_YIELDS {
        if let Some(env) = pop(&mut shard.inner.lock().unwrap()) {
            return env;
        }
        if world.is_poisoned() {
            panic!("{POISONED_MSG}");
        }
        std::thread::yield_now();
    }
    let deadline = Instant::now() + timeout;
    let mut inner = shard.inner.lock().unwrap();
    loop {
        if let Some(env) = pop(&mut inner) {
            return env;
        }
        if world.is_poisoned() {
            drop(inner);
            panic!("{POISONED_MSG}");
        }
        let now = Instant::now();
        if now >= deadline {
            drop(inner);
            let queued = mailbox.queued_summary();
            panic!(
                "rank {rank} deadlocked waiting for {}; {queued}",
                describe()
            );
        }
        inner.waiters += 1;
        // `stats[rank]` is only ever locked by its owning thread (and
        // we are it), so taking it under the shard lock cannot deadlock.
        world.stats[rank].lock().unwrap().recv_parks += 1;
        let (mut g, _) = shard.arrived.wait_timeout(inner, deadline - now).unwrap();
        g.waiters -= 1;
        inner = g;
    }
}

/// Block until a `(src, tag)` message arrives in `rank`'s mailbox.
/// Unwinds with [`POISONED_MSG`] if a peer rank panics while we wait, and
/// with a queued-envelope digest if `timeout` expires.
fn wait_envelope(world: &World, rank: usize, src: usize, tag: Tag, timeout: Duration) -> Envelope {
    let si = world.mailboxes[rank].shard_of(src, tag);
    wait_match(
        world,
        rank,
        si,
        timeout,
        |g| g.pop(src, tag),
        || format!("(src={src}, tag={tag})"),
    )
}

/// Non-blocking variant of [`wait_envelope`].
fn try_envelope(world: &World, rank: usize, src: usize, tag: Tag) -> Option<Envelope> {
    let mailbox = &world.mailboxes[rank];
    let si = mailbox.shard_of(src, tag);
    mailbox.shards[si].inner.lock().unwrap().pop(src, tag)
}

/// Current value of `rank`'s mailbox arrival counter (see
/// [`wait_arrival_beyond`]).
fn arrival_seq(world: &World, rank: usize) -> u64 {
    world.mailboxes[rank].pushes.load(Ordering::SeqCst)
}

/// Park until `rank`'s mailbox has seen a push beyond `seq` — the
/// `MPI_Waitany` building block: snapshot the counter, try every pending
/// request, and park here only if none completed. Returns immediately if
/// the counter already moved, so no arrival between snapshot and park can
/// be lost.
///
/// Lost-wakeup proof (eventcount): the waiter advertises itself in
/// `any_waiters` (SeqCst) and only *then* re-reads `pushes`; the sender
/// bumps `pushes` (SeqCst) and only *then* reads `any_waiters`. If the
/// waiter's re-read misses the sender's bump, the bump is after the
/// re-read in the total SeqCst order, hence after the advertisement, so
/// the sender's `any_waiters` read sees it and the sender takes
/// `any_lock` to notify — a lock the waiter holds continuously from
/// before its re-read until it parks, so the notify cannot slip into
/// the gap. Poison-aware and deadline-guarded like [`wait_envelope`].
fn wait_arrival_beyond(world: &World, rank: usize, seq: u64) {
    let mailbox = &world.mailboxes[rank];
    // Cooperative phase, as in `wait_match`.
    for _ in 0..SPIN_YIELDS {
        if mailbox.pushes.load(Ordering::SeqCst) != seq {
            return;
        }
        if world.is_poisoned() {
            panic!("{POISONED_MSG}");
        }
        std::thread::yield_now();
    }
    let deadline = Instant::now() + world.recv_timeout;
    let mut g = mailbox.any_lock.lock().unwrap();
    loop {
        if mailbox.pushes.load(Ordering::SeqCst) != seq {
            return;
        }
        if world.is_poisoned() {
            drop(g);
            panic!("{POISONED_MSG}");
        }
        let now = Instant::now();
        if now >= deadline {
            drop(g);
            let queued = mailbox.queued_summary();
            panic!("rank {rank} deadlocked waiting for any arrival; {queued}");
        }
        mailbox.any_waiters.fetch_add(1, Ordering::SeqCst);
        // Advertised-waiter re-check: closes the race against a sender
        // that bumped `pushes` before seeing our advertisement.
        if mailbox.pushes.load(Ordering::SeqCst) != seq {
            mailbox.any_waiters.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        world.stats[rank].lock().unwrap().recv_parks += 1;
        let (g2, _) = mailbox.any_arrived.wait_timeout(g, deadline - now).unwrap();
        mailbox.any_waiters.fetch_sub(1, Ordering::SeqCst);
        g = g2;
    }
}

/// Book a completed receive into `rank`'s stats. `copied` is the number
/// of payload bytes physically copied on completion (0 for moves).
/// `persistent` says which matching discipline completed the message
/// (persistent-plan slot vs ad-hoc request) — every successful match in
/// the crate funnels through here, which makes this the sanitizer's one
/// receive hook.
fn record_recv(
    world: &World,
    rank: usize,
    src: usize,
    tag: Tag,
    env: &Envelope,
    copied: usize,
    persistent: bool,
) {
    if let Some(san) = &world.san {
        let kind = if persistent {
            SendKind::Persistent
        } else {
            SendKind::Adhoc
        };
        san.on_recv(rank, src, tag, kind);
    }
    let bytes = env.payload.len_bytes();
    let mut s = world.stats[rank].lock().unwrap();
    s.msgs_received += 1;
    s.bytes_received += bytes as u64;
    s.bytes_copied += copied as u64;
    if s.log_messages {
        s.msg_log.push(MsgRecord {
            dir: MsgDir::Received,
            peer: src,
            tag,
            bytes,
            latency_secs: env.sent_at.map_or(0.0, |t| t.elapsed().as_secs_f64()),
        });
    }
}

/// A per-rank communicator handle. Clone-free by design: each rank thread
/// owns exactly one.
pub struct Comm {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) world: Arc<World>,
}

/// Completed-on-creation send request (eager delivery), kept for API
/// symmetry with MPI's `MPI_Isend`.
#[derive(Debug)]
pub struct SendRequest;

impl SendRequest {
    /// Eager sends complete immediately.
    pub fn test(&self) -> bool {
        true
    }
    pub fn wait(self) {}
}

/// A pending non-blocking receive. Poll with [`RecvRequest::test`] (the
/// paper's progress thread calls `MPI_Test` between tile blocks) or block
/// with [`RecvRequest::wait`].
pub struct RecvRequest {
    src: usize,
    tag: Tag,
    world: Arc<World>,
    rank: usize,
    done: Option<Payload>,
}

impl RecvRequest {
    /// Try to complete the receive without blocking. Returns `true` once
    /// the message has been matched (idempotent afterwards).
    pub fn test(&mut self) -> bool {
        if self.done.is_some() {
            return true;
        }
        if let Some(env) = try_envelope(&self.world, self.rank, self.src, self.tag) {
            record_recv(&self.world, self.rank, self.src, self.tag, &env, 0, false);
            self.done = Some(env.payload);
            true
        } else {
            false
        }
    }

    /// Non-blocking: if the message has arrived (or was already matched
    /// by a previous [`test`](Self::test)), take its payload as bytes.
    /// The request must not be used again after this returns `Some`.
    pub fn try_take(&mut self) -> Option<Vec<u8>> {
        if self.test() {
            Some(self.take_bytes())
        } else {
            None
        }
    }

    /// Block until the message arrives and return its payload.
    pub fn wait(self) -> Vec<u8> {
        let timeout = self.world.recv_timeout;
        self.wait_timeout(timeout)
    }

    /// [`wait`](Self::wait) with an explicit deadlock timeout; on expiry
    /// the panic lists the mailbox's queued-but-unmatched envelopes.
    pub fn wait_timeout(mut self, timeout: Duration) -> Vec<u8> {
        self.fill(timeout);
        self.take_bytes()
    }

    /// Like [`wait`](Self::wait) but interpreting the payload as `f32`s.
    /// Natively-typed messages are moved out without conversion.
    pub fn wait_f32(mut self) -> Vec<f32> {
        self.fill(self.world.recv_timeout);
        self.take_f32()
    }

    fn fill(&mut self, timeout: Duration) {
        if self.done.is_none() {
            let env = wait_envelope(&self.world, self.rank, self.src, self.tag, timeout);
            record_recv(&self.world, self.rank, self.src, self.tag, &env, 0, false);
            self.done = Some(env.payload);
        }
    }

    fn take_bytes(&mut self) -> Vec<u8> {
        match self.done.take().unwrap() {
            Payload::Bytes(b) => b,
            Payload::F32(v) => {
                // Conversion allocates; count it so the zero-copy path's
                // advantage stays visible in the stats.
                self.world.stats[self.rank].lock().unwrap().bufs_allocated += 1;
                f32_to_bytes(&v)
            }
        }
    }

    fn take_f32(&mut self) -> Vec<f32> {
        match self.done.take().unwrap() {
            Payload::F32(v) => v,
            Payload::Bytes(b) => {
                self.world.stats[self.rank].lock().unwrap().bufs_allocated += 1;
                bytes_to_f32(&b)
            }
        }
    }
}

/// A persistent receive request — the `MPI_Recv_init` analogue. Built
/// once per (peer, tag) by [`Comm::recv_init`]; each call to
/// [`wait_with`](Self::wait_with) or [`try_with`](Self::try_with)
/// completes one matching message in place with zero allocations.
pub struct PersistentRecv {
    src: usize,
    tag: Tag,
    /// Mailbox `(shard, slot)` address resolved at init, skipping both
    /// the shard hash and the per-message index lookup on every
    /// completion (and every failed poll).
    shard: usize,
    slot: usize,
    rank: usize,
    world: Arc<World>,
}

impl PersistentRecv {
    /// The matched source rank.
    pub fn source(&self) -> usize {
        self.src
    }

    /// Block for the next matching message and hand the payload slice to
    /// `f` in place — no intermediate staging buffer, so completion costs
    /// a single copy (whatever `f` itself writes). The envelope's storage
    /// returns to the pool afterwards.
    pub fn wait_with<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        let env = self.wait_slot();
        let copied = env.payload.len_bytes();
        record_recv(
            &self.world,
            self.rank,
            self.src,
            self.tag,
            &env,
            copied,
            true,
        );
        complete_with(&self.world, self.rank, self.src, env.payload, f)
    }

    /// Non-blocking [`wait_with`](Self::wait_with): returns `None` when
    /// no matching message has arrived yet.
    pub fn try_with<R>(&self, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        let env = self.try_slot()?;
        let copied = env.payload.len_bytes();
        record_recv(
            &self.world,
            self.rank,
            self.src,
            self.tag,
            &env,
            copied,
            true,
        );
        Some(complete_with(
            &self.world,
            self.rank,
            self.src,
            env.payload,
            f,
        ))
    }

    /// Blocking matched-envelope fetch through the cached `(shard,
    /// slot)` address (no per-message hash), sharing the poison/timeout
    /// semantics of [`wait_envelope`].
    fn wait_slot(&self) -> Envelope {
        let timeout = self.world.recv_timeout;
        let slot = self.slot;
        wait_match(
            &self.world,
            self.rank,
            self.shard,
            timeout,
            |g| g.pop_slot(slot),
            || format!("(src={}, tag={})", self.src, self.tag),
        )
    }

    /// Non-blocking variant of [`wait_slot`](Self::wait_slot).
    fn try_slot(&self) -> Option<Envelope> {
        self.world.mailboxes[self.rank].shards[self.shard]
            .inner
            .lock()
            .unwrap()
            .pop_slot(self.slot)
    }

    /// Snapshot of the owning rank's mailbox arrival counter, paired with
    /// [`wait_any_arrival`](Self::wait_any_arrival) for `MPI_Waitany`-style
    /// completion loops: snapshot, [`try_with`](Self::try_with) every
    /// pending request, then park only if none completed.
    pub fn arrival_seq(&self) -> u64 {
        arrival_seq(&self.world, self.rank)
    }

    /// Park until any message (for any request) lands in the owning
    /// rank's mailbox after the [`arrival_seq`](Self::arrival_seq)
    /// snapshot `seq`. Returns immediately if one already has.
    pub fn wait_any_arrival(&self, seq: u64) {
        wait_arrival_beyond(&self.world, self.rank, seq);
    }
}

/// Complete a received envelope by lending its payload slice to `f`,
/// recycling the envelope's storage through its origin rank's pool.
/// Zero allocations for typed payloads.
fn complete_with<R>(
    world: &World,
    rank: usize,
    origin: usize,
    payload: Payload,
    f: impl FnOnce(&[f32]) -> R,
) -> R {
    match payload {
        Payload::F32(v) => {
            let r = f(&v);
            world.pool_for(origin).release(v);
            r
        }
        Payload::Bytes(b) => {
            assert_eq!(b.len() % 4, 0, "payload not a whole number of f32s");
            world.stats[rank].lock().unwrap().bufs_allocated += 1;
            f(&bytes_to_f32(&b))
        }
    }
}

/// A persistent send request — the `MPI_Send_init` analogue. Each
/// [`start`](Self::start) ships the caller's buffer through a pooled
/// envelope (one wire copy, zero allocations in steady state).
pub struct PersistentSend {
    dest: usize,
    tag: Tag,
    /// Destination-mailbox `(shard, slot)` address resolved at init,
    /// skipping the per-message hash lookup.
    shard: usize,
    slot: usize,
    rank: usize,
    world: Arc<World>,
}

impl PersistentSend {
    pub fn dest(&self) -> usize {
        self.dest
    }

    /// Send `data` to the bound (dest, tag); completes eagerly.
    pub fn start(&self, data: &[f32]) -> SendRequest {
        send_pooled_with(
            &self.world,
            self.rank,
            self.dest,
            self.tag,
            Some((self.shard, self.slot)),
            data.len(),
            |buf| buf.extend_from_slice(data),
        )
    }

    /// Send by letting `fill` pack up to `len` floats straight into the
    /// pooled wire buffer — the analogue of packing into a persistent
    /// request's registered buffer. Saves the staging copy that
    /// [`start`](Self::start) pays.
    pub fn start_with(&self, len: usize, fill: impl FnOnce(&mut Vec<f32>)) -> SendRequest {
        send_pooled_with(
            &self.world,
            self.rank,
            self.dest,
            self.tag,
            Some((self.shard, self.slot)),
            len,
            fill,
        )
    }
}

/// The shared typed-send path: acquire a pooled envelope buffer, copy
/// the payload in (the single wire copy), enqueue, notify.
pub(crate) fn send_f32_pooled(
    world: &World,
    rank: usize,
    dest: usize,
    tag: Tag,
    data: &[f32],
) -> SendRequest {
    send_pooled_with(world, rank, dest, tag, None, data.len(), |buf| {
        buf.extend_from_slice(data)
    })
}

/// Typed-send core: acquire a pooled buffer sized for `len` floats, let
/// `fill` write the payload (the single wire copy), enqueue, notify.
/// `addr` is the destination-mailbox `(shard, slot)` when the caller
/// resolved it at init time (persistent sends); `None` falls back to the
/// hash lookup.
pub(crate) fn send_pooled_with(
    world: &World,
    rank: usize,
    dest: usize,
    tag: Tag,
    addr: Option<(usize, usize)>,
    len: usize,
    fill: impl FnOnce(&mut Vec<f32>),
) -> SendRequest {
    let (mut buf, allocated) = world.pool_for(rank).acquire(len);
    fill(&mut buf);
    enqueue(world, rank, dest, tag, addr, Payload::F32(buf), allocated)
}

/// The one send core, behind the typed and the byte path: book the
/// message (stats, message log), report it to the sanitizer, stamp and
/// enqueue it, notify. `allocated` says whether `payload`'s buffer was
/// freshly allocated rather than taken from the pool; `addr` is as for
/// [`send_pooled_with`], and `Some` iff this is a persistent-plan start.
fn enqueue(
    world: &World,
    rank: usize,
    dest: usize,
    tag: Tag,
    addr: Option<(usize, usize)>,
    payload: Payload,
    allocated: bool,
) -> SendRequest {
    assert!(
        dest != rank,
        "self-send unsupported (as in the generated code)"
    );
    if world.is_poisoned() {
        panic!("{POISONED_MSG}");
    }
    let bytes = payload.len_bytes();
    {
        let mut s = world.stats[rank].lock().unwrap();
        s.msgs_sent += 1;
        s.bytes_sent += bytes as u64;
        s.bytes_copied += bytes as u64;
        if allocated {
            s.bufs_allocated += 1;
        }
        s.bump_peer(dest);
        if s.log_messages {
            s.msg_log.push(MsgRecord {
                dir: MsgDir::Sent,
                peer: dest,
                tag,
                bytes,
                latency_secs: 0.0,
            });
        }
    }
    // Sanitizer send event, strictly before the mailbox push: once the
    // envelope is visible the receiver may match it, and the sanitizer's
    // per-channel FIFO must already hold this send. Persistent-plan
    // starts and ad-hoc sends (collectives, user traffic) follow the
    // reuse/matching disciplines the detectors distinguish.
    if let Some(san) = &world.san {
        let kind = if addr.is_some() {
            SendKind::Persistent
        } else {
            SendKind::Adhoc
        };
        san.on_send(rank, dest, tag, kind);
    }
    let env = Envelope {
        payload,
        // Relaxed is sufficient (audited): `log_any` is a sticky
        // monotonic false->true flag guarding only whether we pay for
        // an `Instant::now` stamp. The stamp itself travels inside
        // the envelope under the shard mutex, which releases/
        // acquires it properly; a racing sender that still reads
        // `false` merely emits one unstamped record (latency 0.0),
        // never a torn or unsynchronized value. No happens-before
        // edge is built on this load — the sanitizer's clocks ride
        // on the shard mutex, not on this flag.
        sent_at: world.log_any.load(Ordering::Relaxed).then(Instant::now),
    };
    world.mailboxes[dest].push(addr, rank, tag, env);
    SendRequest
}

impl Comm {
    pub(crate) fn new(rank: usize, size: usize, world: Arc<World>) -> Comm {
        Comm { rank, size, world }
    }

    /// This rank's id, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Process-unique id of the world this communicator belongs to.
    /// Each `Universe::run` builds a fresh world, so ids differ across
    /// jobs even when they run concurrently — the communicator-isolation
    /// witness for multi-tenant serving.
    pub fn world_id(&self) -> u64 {
        self.world.id
    }

    /// How long a blocking receive in this world waits before
    /// declaring deadlock (`MPIX_RECV_TIMEOUT_MS`, default 60 s).
    pub fn recv_timeout(&self) -> Duration {
        self.world.recv_timeout
    }

    /// The happens-before sanitizer attached to this world, if enabled.
    /// Higher layers (halo plans, the executor) use this to report
    /// array-level events; `None` — the default — makes every hook a
    /// single predictable branch.
    pub fn san(&self) -> Option<&Arc<San>> {
        self.world.san.as_ref()
    }

    // ---------------------------------------------------------------- P2P

    /// Blocking (eager, buffered) send of raw bytes.
    pub fn send(&self, dest: usize, tag: Tag, data: &[u8]) {
        self.isend(dest, tag, data).wait();
    }

    /// Non-blocking send of raw bytes; completes eagerly. The byte path
    /// always allocates its envelope — typed `f32` traffic should use
    /// [`isend_f32`](Self::isend_f32), which is pooled.
    pub fn isend(&self, dest: usize, tag: Tag, data: &[u8]) -> SendRequest {
        assert!(dest < self.size, "send to out-of-range rank {dest}");
        let payload = Payload::Bytes(data.to_vec());
        enqueue(&self.world, self.rank, dest, tag, None, payload, true)
    }

    /// Blocking receive of a message from `src` with `tag`.
    pub fn recv(&self, src: usize, tag: Tag) -> Vec<u8> {
        self.irecv(src, tag).wait()
    }

    /// Post a non-blocking receive.
    pub fn irecv(&self, src: usize, tag: Tag) -> RecvRequest {
        assert!(src < self.size, "recv from out-of-range rank {src}");
        RecvRequest {
            src,
            tag,
            world: Arc::clone(&self.world),
            rank: self.rank,
            done: None,
        }
    }

    /// Typed convenience: send a slice of `f32` (natively, no byte
    /// round-trip, pooled envelope).
    pub fn send_f32(&self, dest: usize, tag: Tag, data: &[f32]) {
        self.isend_f32(dest, tag, data).wait();
    }

    /// Typed convenience: non-blocking `f32` send through the pool.
    pub fn isend_f32(&self, dest: usize, tag: Tag, data: &[f32]) -> SendRequest {
        assert!(dest < self.size, "send to out-of-range rank {dest}");
        send_f32_pooled(&self.world, self.rank, dest, tag, data)
    }

    /// Typed convenience: blocking `f32` receive.
    pub fn recv_f32(&self, src: usize, tag: Tag) -> Vec<f32> {
        self.irecv(src, tag).wait_f32()
    }

    /// Build a persistent receive request bound to `(src, tag)` — the
    /// `MPI_Recv_init` analogue used by the halo plans.
    pub fn recv_init(&self, src: usize, tag: Tag) -> PersistentRecv {
        assert!(src < self.size, "recv from out-of-range rank {src}");
        let (shard, slot) = self.world.mailboxes[self.rank].slot_addr(src, tag);
        PersistentRecv {
            src,
            tag,
            shard,
            slot,
            rank: self.rank,
            world: Arc::clone(&self.world),
        }
    }

    /// Pre-populate this rank's envelope-buffer pool with `count`
    /// message buffers of `len` `f32`s each (the `MPI_Buffer_attach`
    /// analogue). Halo plans call this once at build time so every
    /// steady-state send finds a pooled buffer and
    /// [`CommStats::bufs_allocated`] stays flat.
    pub fn reserve_msg_buffers(&self, count: usize, len: usize) {
        self.world.pool_for(self.rank).reserve(count, len);
    }

    /// Build a persistent send request bound to `(dest, tag)` — the
    /// `MPI_Send_init` analogue used by the halo plans.
    pub fn send_init(&self, dest: usize, tag: Tag) -> PersistentSend {
        assert!(dest < self.size, "send to out-of-range rank {dest}");
        assert!(
            dest != self.rank,
            "self-send unsupported (as in the generated code)"
        );
        let (shard, slot) = self.world.mailboxes[dest].slot_addr(self.rank, tag);
        PersistentSend {
            dest,
            tag,
            shard,
            slot,
            rank: self.rank,
            world: Arc::clone(&self.world),
        }
    }

    // ---------------------------------------------------------- collectives

    /// Synchronize all ranks. Poison-aware: unwinds promptly if a peer
    /// rank panics while we wait. (The tree collectives live in
    /// [`crate::collectives`].)
    pub fn barrier(&self) {
        // Arrive strictly before blocking: every rank's clock is folded
        // into the generation's accumulator before any rank can depart,
        // so departure hands each rank the lub of all arrivals — the
        // all-pairs happens-before edge a barrier promises.
        if let Some(san) = &self.world.san {
            san.barrier_arrive(self.rank);
        }
        self.world.barrier.wait(&self.world.poisoned);
        if let Some(san) = &self.world.san {
            san.barrier_depart(self.rank);
        }
    }

    // --------------------------------------------------------------- stats

    /// Snapshot of this rank's traffic counters.
    pub fn stats(&self) -> CommStats {
        self.world.stats[self.rank]
            .lock()
            .unwrap()
            .snapshot(self.rank)
    }

    /// Reset this rank's traffic counters (the message log and its
    /// enable flag survive the reset).
    pub fn reset_stats(&self) {
        let mut s = self.world.stats[self.rank].lock().unwrap();
        let log_messages = s.log_messages;
        let msg_log = std::mem::take(&mut s.msg_log);
        *s = StatsInner {
            log_messages,
            msg_log,
            ..StatsInner::default()
        };
    }

    /// Enable or disable this rank's per-message log. Off by default;
    /// the executor switches it on at `TraceLevel::Full`.
    pub fn set_msg_log(&self, on: bool) {
        self.world.stats[self.rank].lock().unwrap().log_messages = on;
        if on {
            // Sticky: senders on other ranks must start stamping
            // envelopes; clearing would need a world-wide census and the
            // stamp is cheap relative to logging itself.
            //
            // Relaxed is sufficient (audited): this store needs no
            // release edge because nothing is published *through* the
            // flag — readers act on it alone (pay for a stamp or not),
            // and `log_messages` itself is read under the stats mutex.
            // The worst cost of the weak ordering is a brief window in
            // which other ranks' sends go unstamped (latency 0.0 in the
            // log), which the logging contract already allows.
            self.world.log_any.store(true, Ordering::Relaxed);
        }
    }

    /// Drain this rank's message log (records accumulated since the log
    /// was enabled or last drained).
    pub fn take_msg_log(&self) -> Vec<MsgRecord> {
        std::mem::take(&mut self.world.stats[self.rank].lock().unwrap().msg_log)
    }
}

/// Reinterpret an `f32` slice as little-endian bytes.
pub fn f32_to_bytes(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Reinterpret little-endian bytes as `f32`s.
pub fn bytes_to_f32(data: &[u8]) -> Vec<f32> {
    assert_eq!(data.len() % 4, 0, "payload not a whole number of f32s");
    data.chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn bytes_roundtrip() {
        let v = vec![1.5f32, -2.25, 0.0, f32::MAX];
        assert_eq!(bytes_to_f32(&f32_to_bytes(&v)), v);
    }

    #[test]
    fn ping_pong() {
        Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send_f32(1, 5, &[42.0]);
                let r = c.recv_f32(1, 6);
                assert_eq!(r, vec![43.0]);
            } else {
                let r = c.recv_f32(0, 5);
                assert_eq!(r, vec![42.0]);
                c.send_f32(0, 6, &[43.0]);
            }
        });
    }

    #[test]
    fn tag_matching_is_selective() {
        Universe::run(2, |c| {
            if c.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                c.send_f32(1, 2, &[2.0]);
                c.send_f32(1, 1, &[1.0]);
            } else {
                assert_eq!(c.recv_f32(0, 1), vec![1.0]);
                assert_eq!(c.recv_f32(0, 2), vec![2.0]);
            }
        });
    }

    #[test]
    fn same_tag_preserves_order() {
        Universe::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..10 {
                    c.send_f32(1, 9, &[i as f32]);
                }
            } else {
                for i in 0..10 {
                    assert_eq!(c.recv_f32(0, 9), vec![i as f32]);
                }
            }
        });
    }

    #[test]
    fn irecv_test_polls_without_blocking() {
        Universe::run(2, |c| {
            if c.rank() == 1 {
                let mut req = c.irecv(0, 3);
                // Might not have arrived yet — poll until it does.
                let mut spins = 0u64;
                while !req.test() {
                    std::hint::spin_loop();
                    spins += 1;
                    assert!(spins < 1_000_000_000, "never arrived");
                }
                assert_eq!(req.wait_f32(), vec![7.0]);
            } else {
                c.send_f32(1, 3, &[7.0]);
            }
        });
    }

    #[test]
    fn persistent_requests_cycle_through_pool_without_allocating() {
        Universe::run(2, |c| {
            if c.rank() == 0 {
                let send = c.send_init(1, 12);
                let data = vec![3.5f32; 64];
                for _ in 0..10 {
                    send.start(&data);
                }
                // Warm-up allocates. All ten are in flight before the
                // receiver takes any, so the pool ends up holding as many
                // buffers as the steady state can ever have in flight;
                // after that the sends must be allocation-free.
                c.barrier();
                c.barrier();
                c.reset_stats();
                for _ in 0..10 {
                    send.start(&data);
                }
                c.barrier();
                c.barrier();
                assert_eq!(c.stats().bufs_allocated, 0, "steady-state send allocated");
            } else {
                let recv = c.recv_init(0, 12);
                c.barrier();
                for _ in 0..10 {
                    recv.wait_with(|data| assert_eq!(data, &[3.5f32; 64][..]));
                }
                c.barrier();
                c.reset_stats();
                for _ in 0..10 {
                    recv.wait_with(|_| ());
                }
                c.barrier();
                assert_eq!(c.stats().bufs_allocated, 0, "steady-state recv allocated");
                c.barrier();
            }
        });
    }

    #[test]
    fn recv_timeout_panic_lists_unmatched_envelopes() {
        let result = std::panic::catch_unwind(|| {
            Universe::run(2, |c| {
                if c.rank() == 0 {
                    // Wrong tag: receiver waits on 8, we send 7.
                    c.send_f32(1, 7, &[1.0, 2.0]);
                    // Keep rank 0 parked so the timeout fires first on 1.
                    c.barrier();
                } else {
                    c.irecv(0, 8).wait_timeout(Duration::from_millis(200));
                }
            });
        });
        let err = result.expect_err("receive must time out");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap().to_string());
        assert!(msg.contains("(src=0, tag=8)"), "wanted target in {msg:?}");
        assert!(
            msg.contains("src=0, tag=7, 8 bytes"),
            "wanted queued envelope digest in {msg:?}"
        );
    }

    #[test]
    fn short_recv_timeout_is_honored_per_run() {
        let start = Instant::now();
        let result = std::panic::catch_unwind(|| {
            Universe::run_cfg(2, Duration::from_millis(100), None, |c| {
                if c.rank() == 1 {
                    c.recv_f32(0, 3); // never sent
                } else {
                    c.barrier();
                }
            });
        });
        result.expect_err("receive must time out");
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "short recv_timeout was not honored: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send_f32(1, 1, &[0.0; 10]);
                c.send_f32(1, 1, &[0.0; 6]);
            } else {
                c.recv_f32(0, 1);
                c.recv_f32(0, 1);
            }
            c.barrier();
            c.stats()
        });
        assert_eq!(out[0].msgs_sent, 2);
        assert_eq!(out[0].bytes_sent, 64);
        assert_eq!(out[1].msgs_received, 2);
        assert_eq!(out[1].bytes_received, 64);
    }

    #[test]
    fn msg_log_records_both_directions() {
        let out = Universe::run(2, |c| {
            c.set_msg_log(true);
            if c.rank() == 0 {
                c.send_f32(1, 11, &[1.0; 4]);
            } else {
                c.recv_f32(0, 11);
            }
            c.barrier();
            c.take_msg_log()
        });
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[0][0].dir, MsgDir::Sent);
        assert_eq!(
            (out[0][0].peer, out[0][0].tag, out[0][0].bytes),
            (1, 11, 16)
        );
        assert_eq!(out[0][0].latency_secs, 0.0);
        assert_eq!(out[1].len(), 1);
        assert_eq!(out[1][0].dir, MsgDir::Received);
        assert_eq!(
            (out[1][0].peer, out[1][0].tag, out[1][0].bytes),
            (0, 11, 16)
        );
        assert!(out[1][0].latency_secs >= 0.0);
    }

    #[test]
    fn msg_log_off_by_default_and_survives_reset() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send_f32(1, 1, &[0.0]);
            } else {
                c.recv_f32(0, 1);
            }
            c.barrier();
            c.set_msg_log(true);
            c.reset_stats();
            if c.rank() == 0 {
                c.send_f32(1, 2, &[0.0]);
            } else {
                c.recv_f32(0, 2);
            }
            c.barrier();
            (c.take_msg_log(), c.stats())
        });
        // The first exchange predates set_msg_log; only the second is logged,
        // and reset_stats keeps the flag (and any already-logged records).
        assert_eq!(out[0].0.len(), 1);
        assert_eq!(out[0].0[0].tag, 2);
        assert_eq!(out[0].1.msgs_sent, 1);
    }

    #[test]
    #[should_panic]
    fn self_send_rejected() {
        Universe::run(1, |c| {
            c.send_f32(0, 0, &[1.0]);
        });
    }
}
