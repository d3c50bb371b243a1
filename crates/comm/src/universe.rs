//! Rank spawning: the analogue of `mpirun -np N`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use mpix_san::San;

use crate::comm::{Comm, World, MAILBOX_SHARDS, SPIN_YIELDS};

/// Receive timeout when `MPIX_RECV_TIMEOUT_MS` is unset: generous for
/// slow CI machines while still failing fast on real deadlocks.
const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// The world's receive timeout from the environment, looked up through
/// `var` so tests need not touch the process environment:
/// `MPIX_RECV_TIMEOUT_MS` (milliseconds, at least 1) or 60 s when unset.
/// The removed layout knobs `MPIX_COMM_SHARDS` and `MPIX_SPIN_YIELDS`
/// panic when set, naming the fixed value — a job script that still
/// sets them expects a layout it would no longer get. A malformed
/// timeout panics too.
fn recv_timeout_from(var: impl Fn(&str) -> Option<String>) -> Duration {
    let removed = [
        ("MPIX_COMM_SHARDS", MAILBOX_SHARDS, "mailbox shards"),
        (
            "MPIX_SPIN_YIELDS",
            SPIN_YIELDS,
            "yields before a blocked receive parks",
        ),
    ];
    for (name, fixed, what) in removed {
        if let Some(v) = var(name) {
            panic!("{name}={v:?}: removed: fixed at {fixed} {what}; unset {name}");
        }
    }
    match var("MPIX_RECV_TIMEOUT_MS") {
        None => DEFAULT_RECV_TIMEOUT,
        Some(v) => match v.parse::<u64>() {
            Ok(ms) if ms >= 1 => Duration::from_millis(ms),
            _ => panic!("MPIX_RECV_TIMEOUT_MS={v:?}: expected a timeout in milliseconds >= 1"),
        },
    }
}

/// Entry point for simulated multi-rank execution.
///
/// `Universe::run(n, f)` plays the role of
/// `mpirun -np <n> <executable>` in the paper: it spawns `n` rank threads,
/// hands each a [`Comm`], and joins them, returning the per-rank results
/// in rank order.
///
/// ## Fail-fast panic propagation
///
/// When any rank's closure panics, the world is *poisoned*: peers blocked
/// in `barrier` or a receive wake up and unwind promptly (no 60 s
/// deadlock timeout, no forever-blocked `Barrier::wait`), and the
/// **original** panic payload is re-raised to the caller. The secondary
/// "world poisoned" unwinds of the peers are absorbed — mirroring
/// `mpirun`, which kills the job and reports the first failing rank.
pub struct Universe;

impl Universe {
    /// Run `f` on `n` ranks. The closure may borrow from the environment
    /// (scoped threads); shared captures must be `Sync`.
    ///
    /// Honors `MPIX_SAN=1`: the happens-before sanitizer is attached for
    /// the duration of the run and any findings are printed to stderr
    /// (never panicking — the sanitizer observes, the caller decides).
    /// For programmatic access to the reports, build a
    /// [`mpix_san::San`] yourself and use
    /// [`run_with_san`](Self::run_with_san).
    ///
    /// The blocking-receive deadlock timeout is read from
    /// `MPIX_RECV_TIMEOUT_MS` once per run (default 60 s; a malformed
    /// value panics); [`run_cfg`](Self::run_cfg) takes it explicitly.
    /// `MPIX_COMM_SHARDS` and `MPIX_SPIN_YIELDS` were removed — the
    /// mailbox layout and the waiting behaviour are fixed — and panic
    /// when set.
    pub fn run<R, F>(n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        Self::run_with_san(n, San::from_env(n), f)
    }

    /// [`run`](Self::run) with an explicit sanitizer attachment (`None`
    /// disables; one branch per hooked operation). On clean completion
    /// the sanitizer's finalize-time checks run (leaked requests) and
    /// pending reports are flushed to stderr; on a rank panic the
    /// reports collected so far are flushed *before* the original panic
    /// payload is re-raised, so diagnostics are not lost on exactly the
    /// runs that fail.
    pub fn run_with_san<R, F>(n: usize, san: Option<Arc<San>>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        let recv_timeout = recv_timeout_from(|name| std::env::var(name).ok());
        Self::run_cfg(n, recv_timeout, san, f)
    }

    /// [`run_with_san`](Self::run_with_san) with an explicit receive
    /// timeout, bypassing the environment entirely.
    pub fn run_cfg<R, F>(n: usize, recv_timeout: Duration, san: Option<Arc<San>>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Send + Sync,
    {
        assert!(n >= 1, "need at least one rank");
        if let Some(s) = &san {
            assert_eq!(
                s.nranks(),
                n,
                "sanitizer was built for {} rank(s), universe has {n}",
                s.nranks()
            );
        }
        let world = Arc::new(World::new(n, san.clone(), recv_timeout));
        let f = &f;
        let results: Vec<Option<R>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let world = Arc::clone(&world);
                handles.push(scope.spawn(move || {
                    let comm = Comm::new(rank, n, Arc::clone(&world));
                    match catch_unwind(AssertUnwindSafe(|| f(comm))) {
                        Ok(r) => Some(r),
                        Err(payload) => {
                            // First panic stores its payload; later
                            // (secondary) poison unwinds are dropped.
                            world.poison(payload);
                            None
                        }
                    }
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread itself must not die"))
                .collect()
        });
        if let Some(payload) = world.take_panic_payload() {
            // Poison path: flush what the sanitizer saw before
            // re-raising — `World::poison` already marked it poisoned,
            // which also disables the finalize-time leak check (peers
            // legitimately abandon in-flight traffic while unwinding).
            if let Some(s) = &san {
                s.flush_to_stderr();
            }
            resume_unwind(payload);
        }
        if let Some(s) = &san {
            s.finalize();
            s.flush_to_stderr();
        }
        results
            .into_iter()
            .map(|r| r.expect("no panic recorded but a rank produced no result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::POISONED_MSG;
    use std::time::Instant;

    /// The message of a caught panic, whether it was raised with a
    /// literal or a formatted string.
    fn panic_msg(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn recv_timeout_parses_from_the_given_lookup() {
        assert_eq!(recv_timeout_from(|_| None), Duration::from_secs(60));
        let set = |v: &'static str| {
            move |name: &str| (name == "MPIX_RECV_TIMEOUT_MS").then(|| v.to_string())
        };
        assert_eq!(recv_timeout_from(set("250")), Duration::from_millis(250));
        for bad in ["0", "abc", "-5", ""] {
            let err = std::panic::catch_unwind(|| recv_timeout_from(set(bad)))
                .expect_err("malformed timeout must panic");
            let msg = panic_msg(err);
            assert!(msg.contains("MPIX_RECV_TIMEOUT_MS"), "{bad:?}: {msg:?}");
        }
    }

    #[test]
    fn removed_layout_knobs_panic_naming_the_fixed_value() {
        for (name, fixed) in [("MPIX_COMM_SHARDS", "16"), ("MPIX_SPIN_YIELDS", "32")] {
            let lookup = |n: &str| (n == name).then(|| "4".to_string());
            let err = std::panic::catch_unwind(|| recv_timeout_from(lookup))
                .expect_err("a set removed knob must panic");
            let msg = panic_msg(err);
            assert!(
                msg.contains(name) && msg.contains("removed") && msg.contains(fixed),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn results_are_in_rank_order() {
        let out = Universe::run(6, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn closures_can_borrow_environment() {
        let base = 100usize;
        let out = Universe::run(3, |c| base + c.rank());
        assert_eq!(out, vec![100, 101, 102]);
    }

    #[test]
    fn single_rank_works() {
        let out = Universe::run(1, |c| {
            assert_eq!(c.size(), 1);
            c.barrier();
            "ok"
        });
        assert_eq!(out, vec!["ok"]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panics_propagate() {
        Universe::run(2, |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
        });
    }

    /// The original ISSUE bug: a rank panics while its peers sit in
    /// `barrier()`. Before the poison protocol this deadlocked forever
    /// (std Barrier waits for a rank that will never arrive).
    #[test]
    fn panic_unblocks_peers_stuck_in_barrier() {
        let start = Instant::now();
        let result = std::panic::catch_unwind(|| {
            Universe::run(4, |c| {
                if c.rank() == 2 {
                    panic!("boom");
                }
                c.barrier();
            });
        });
        let err = result.expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom", "original payload must survive, not {msg:?}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "propagation took {:?}",
            start.elapsed()
        );
    }

    /// Same, but peers block in a receive that will never be satisfied.
    /// Before the poison protocol this took the full 60 s RECV_TIMEOUT.
    #[test]
    fn panic_unblocks_peers_stuck_in_recv() {
        let start = Instant::now();
        let result = std::panic::catch_unwind(|| {
            Universe::run(3, |c| {
                if c.rank() == 0 {
                    // Let peers get parked in recv first.
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("boom");
                }
                // Rank 0 never sends: blocks until poisoned.
                c.recv_f32(0, 42);
            });
        });
        let err = result.expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom", "original payload must survive, not {msg:?}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "propagation took {:?}",
            start.elapsed()
        );
    }

    /// Sends into a poisoned world unwind too (a panicking peer means the
    /// job is dead); the secondary message is the poison marker, and the
    /// caller still sees only the original payload.
    #[test]
    fn poisoned_sends_unwind_with_marker() {
        let result = std::panic::catch_unwind(|| {
            Universe::run(2, |c| {
                if c.rank() == 1 {
                    panic!("first failure");
                }
                std::thread::sleep(Duration::from_millis(50));
                loop {
                    c.send_f32(1, 0, &[1.0]);
                }
            });
        });
        let err = result.expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "first failure");
        // The marker itself must exist as a distinct message so tooling
        // can tell primary from secondary failures.
        assert!(POISONED_MSG.contains("poisoned"));
    }
}
