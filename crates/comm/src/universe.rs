//! Rank spawning: the analogue of `mpirun -np N`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mpix_san::San;

use crate::comm::{Comm, World};
use crate::tuning::CommTuning;

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
    /// Comm-layer tuning (mailbox shards, spin yields, receive timeout)
    /// is read from the environment once per run — see
    /// [`CommTuning::from_env`]; [`run_cfg`](Self::run_cfg) takes an
    /// explicit [`CommTuning`].
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
        Self::run_cfg(n, CommTuning::from_env(), san, f)
    }

    /// [`run_with_san`](Self::run_with_san) with explicit comm-layer
    /// tuning, bypassing the environment entirely. The ranks-sweep
    /// benchmark drives both arms (sharded vs the `with_shards(1)`
    /// baseline layout) through this in one process.
    pub fn run_cfg<R, F>(n: usize, tuning: CommTuning, san: Option<Arc<San>>, f: F) -> Vec<R>
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
        let world = Arc::new(World::new(n, san.clone(), tuning));
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
    use std::time::{Duration, Instant};

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
