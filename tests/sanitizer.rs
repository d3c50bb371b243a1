//! `mpix-san` end-to-end: property tests for the happens-before core,
//! one regression per detector, and the injected-bug mutant corpus.
//!
//! The mutant corpus is the sanitizer's own verification story: each
//! test injects one runtime bug (via the hidden `ApplyOptions::fault`
//! executor faults, or by driving `mpix-comm` into an illegal pattern
//! directly) and asserts the *owning* detector reports it. The
//! complementary false-positive gate — every shipped solver × SDO ×
//! mode × rank-count configuration stays clean — is swept exhaustively
//! by `mpix-verify --san`; a spot check rides along here.

use std::sync::Arc;

use mpix_codegen::executor::Fault;
use mpix_comm::Universe;
use mpix_core::Workspace;
use mpix_dmp::{HaloMode, SparsePoints};
use mpix_san::{
    San, VectorClock, PASS_LEAK, PASS_MSG_RACE, PASS_REUSE, PASS_SLAB, PASS_STALE_HALO,
};
use mpix_solvers::{KernelKind, ModelSpec, Propagator};
use mpix_trace::Diagnostic;
use proptest::prelude::*;

// ---------------------------------------------------------------- helpers

fn has_pass(diags: &[Diagnostic], pass: &str) -> bool {
    diags.iter().any(|d| d.pass == pass)
}

fn count_pass(diags: &[Diagnostic], pass: &str) -> usize {
    diags.iter().filter(|d| d.pass == pass).count()
}

/// Run one shipped solver under the sanitizer, optionally with an
/// injected executor fault, and return every diagnostic on the summary.
fn run_solver(
    kind: KernelKind,
    so: u32,
    mode: HaloMode,
    ranks: usize,
    threads: usize,
    fault: Option<Fault>,
) -> Vec<Diagnostic> {
    let shape: &[usize] = match kind {
        KernelKind::Acoustic => &[40, 40],
        _ => &[16, 16, 16],
    };
    let spec = ModelSpec::new(shape).with_nbl(4);
    let prop = Propagator::build(kind, spec, so);
    // nt = 4 is the shortest horizon on which both stale-halo flavors
    // are detectable with triple-buffered fields: the dropped exchange
    // shows up when the step-0 buffer rotates back in at step 3.
    let nt = 4i64;
    let pref = &prop;
    let init = move |ws: &mut Workspace| {
        pref.init(ws);
        pref.add_ricker_source(ws, 18.0, nt as usize);
    };
    let mut opts = prop
        .apply_options(nt)
        .with_mode(mode)
        .with_ranks(ranks)
        .with_threads(threads)
        .with_verify(false)
        .with_sanitize(true);
    opts.fault = fault;
    prop.op.run(&opts, init, |_| ()).summary.diagnostics
}

/// Run a raw communicator scenario under an explicit sanitizer and
/// return its reports (finalize-time checks included).
fn run_comm<F>(nranks: usize, f: F) -> Vec<Diagnostic>
where
    F: Fn(mpix_comm::Comm) + Send + Sync,
{
    let san = Arc::new(San::new(nranks));
    Universe::run_with_san(nranks, Some(san.clone()), f);
    san.take_reports()
}

fn clock_from(v: &[u64]) -> VectorClock {
    let mut c = VectorClock::new(v.len());
    for (i, &k) in v.iter().enumerate() {
        for _ in 0..k {
            c.tick(i);
        }
    }
    c
}

// ------------------------------------------------------- property tests

proptest! {
    /// `leq` is a partial order on clocks and `merge` computes its least
    /// upper bound: transitivity over every triple drawn from the
    /// generated clocks and their pairwise merges, plus the lub laws.
    #[test]
    fn prop_vector_clock_partial_order_and_lub(
        a in proptest::collection::vec(0u64..4, 3..4),
        b in proptest::collection::vec(0u64..4, 3..4),
        c in proptest::collection::vec(0u64..4, 3..4),
    ) {
        let (ca, cb, cc) = (clock_from(&a), clock_from(&b), clock_from(&c));
        let mut ab = ca.clone();
        ab.merge(&cb);
        let mut bc = cb.clone();
        bc.merge(&cc);
        let mut ac = ca.clone();
        ac.merge(&cc);
        // Upper bound: each operand precedes the merge.
        prop_assert!(ca.leq(&ab) && cb.leq(&ab));
        // Least: any common upper bound of a and b dominates a⊔b.
        if ca.leq(&cc) && cb.leq(&cc) {
            prop_assert!(ab.leq(&cc));
        }
        // Transitivity across all ordered triples.
        let set = [&ca, &cb, &cc, &ab, &bc, &ac];
        for x in set {
            prop_assert!(x.leq(x)); // reflexivity
            for y in set {
                for z in set {
                    if x.leq(y) && y.leq(z) {
                        prop_assert!(x.leq(z), "transitivity violated");
                    }
                }
            }
        }
    }

    /// A barrier is an all-pairs happens-before edge: after departing,
    /// every rank's clock dominates every rank's pre-barrier clock.
    #[test]
    fn prop_barrier_establishes_all_pairs_hb(
        ticks in proptest::collection::vec(0usize..5, 2..5),
    ) {
        let n = ticks.len();
        let san = San::new(n);
        // Local history per rank: k sends to the right neighbor.
        for (r, &k) in ticks.iter().enumerate() {
            for _ in 0..k {
                san.on_send(r, (r + 1) % n, 9000, mpix_san::SendKind::Adhoc);
            }
        }
        let pre: Vec<VectorClock> = (0..n).map(|r| san.clock_snapshot(r)).collect();
        for r in 0..n {
            san.barrier_arrive(r);
        }
        for r in 0..n {
            san.barrier_depart(r);
        }
        for r in 0..n {
            let post = san.clock_snapshot(r);
            for p in &pre {
                prop_assert!(p.leq(&post), "barrier must dominate all arrivals");
            }
        }
    }
}

// ---------------------------------------- mutants: reuse-before-wait (1)

#[test]
fn mutant_reuse_triple_persistent_start() {
    let reports = run_comm(2, |comm| {
        if comm.rank() == 0 {
            let ps = comm.send_init(1, 100);
            for _ in 0..3 {
                ps.start(&[1.0, 2.0]);
            }
        }
        comm.barrier();
        if comm.rank() == 1 {
            let pr = comm.recv_init(0, 100);
            for _ in 0..3 {
                pr.wait_with(|_| ());
            }
        }
        comm.barrier();
    });
    assert!(has_pass(&reports, PASS_REUSE), "reports: {reports:#?}");
    // Fully drained: the reuse is the only finding.
    assert!(!has_pass(&reports, PASS_LEAK), "reports: {reports:#?}");
    assert!(!has_pass(&reports, PASS_MSG_RACE), "reports: {reports:#?}");
}

#[test]
fn mutant_reuse_triple_start_with_packed_path() {
    // Same bug through the zero-copy `start_with` entry point.
    let reports = run_comm(2, |comm| {
        if comm.rank() == 0 {
            let ps = comm.send_init(1, 101);
            for i in 0..3 {
                ps.start_with(4, |buf| buf.extend_from_slice(&[i as f32; 4]));
            }
        }
        comm.barrier();
        if comm.rank() == 1 {
            let pr = comm.recv_init(0, 101);
            for _ in 0..3 {
                pr.wait_with(|_| ());
            }
        }
        comm.barrier();
    });
    assert!(has_pass(&reports, PASS_REUSE), "reports: {reports:#?}");
    assert!(!has_pass(&reports, PASS_LEAK), "reports: {reports:#?}");
}

#[test]
fn mutant_reuse_every_rank_of_a_ring() {
    // 4 ranks, every rank triple-starts to its right neighbor: the
    // detector must localize each offender independently.
    let reports = run_comm(4, |comm| {
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let ps = comm.send_init(right, 102);
        for _ in 0..3 {
            ps.start(&[0.5; 8]);
        }
        comm.barrier();
        let pr = comm.recv_init(left, 102);
        for _ in 0..3 {
            pr.wait_with(|_| ());
        }
        comm.barrier();
    });
    // One report per rank (each channel hits backlog 2 exactly once).
    assert_eq!(count_pass(&reports, PASS_REUSE), 4, "reports: {reports:#?}");
    assert!(!has_pass(&reports, PASS_LEAK), "reports: {reports:#?}");
}

// --------------------------------------------- mutants: stale halo (2)

#[test]
fn mutant_drop_exchange_basic_mode() {
    let d = run_solver(
        KernelKind::Acoustic,
        4,
        HaloMode::Basic,
        2,
        1,
        Some(Fault::DropExchange),
    );
    assert!(has_pass(&d, PASS_STALE_HALO), "diagnostics: {d:#?}");
}

#[test]
fn mutant_drop_exchange_diagonal_mode_4ranks() {
    let d = run_solver(
        KernelKind::Acoustic,
        8,
        HaloMode::Diagonal,
        4,
        1,
        Some(Fault::DropExchange),
    );
    assert!(has_pass(&d, PASS_STALE_HALO), "diagnostics: {d:#?}");
}

#[test]
fn mutant_skip_halo_wait_full_mode() {
    let d = run_solver(
        KernelKind::Acoustic,
        4,
        HaloMode::Full,
        2,
        1,
        Some(Fault::SkipHaloWait),
    );
    // The skipped drain leaves epoch-stamped boxes behind the exchange
    // counter — the stale-halo detector owns this; the undrained
    // receives also (correctly) surface as leaked requests.
    assert!(has_pass(&d, PASS_STALE_HALO), "diagnostics: {d:#?}");
    assert!(has_pass(&d, PASS_LEAK), "diagnostics: {d:#?}");
}

// ----------------------------------------------- mutants: msg-race (3)

#[test]
fn mutant_msg_race_mixed_sender_disciplines() {
    // An ad-hoc send and a persistent-plan start share (src, dst, tag):
    // FIFO matching makes completion pairing ambiguous. Flagged at the
    // second send; the unreceived traffic also reports as leaked.
    let reports = run_comm(2, |comm| {
        if comm.rank() == 0 {
            comm.send_f32(1, 70, &[1.0; 4]);
            let ps = comm.send_init(1, 70);
            ps.start(&[2.0; 4]);
        }
        comm.barrier();
    });
    assert!(has_pass(&reports, PASS_MSG_RACE), "reports: {reports:#?}");
}

#[test]
fn mutant_msg_race_adhoc_matched_by_persistent_recv() {
    // Receiver side: a persistent-slot receive completes against an
    // ad-hoc send — the disciplines disagree about who owns the slot.
    let reports = run_comm(2, |comm| {
        if comm.rank() == 0 {
            comm.send_f32(1, 71, &[3.0; 4]);
        }
        if comm.rank() == 1 {
            let pr = comm.recv_init(0, 71);
            pr.wait_with(|_| ());
        }
        comm.barrier();
    });
    assert!(has_pass(&reports, PASS_MSG_RACE), "reports: {reports:#?}");
    // Drained on match: no leaks.
    assert!(!has_pass(&reports, PASS_LEAK), "reports: {reports:#?}");
}

// -------------------------------------------- mutants: slab conflict (4)

#[test]
fn mutant_overlapping_write_slabs() {
    let d = run_solver(
        KernelKind::Acoustic,
        4,
        HaloMode::Basic,
        1,
        2,
        Some(Fault::OverlapSlabs),
    );
    assert!(has_pass(&d, PASS_SLAB), "diagnostics: {d:#?}");
    // Single rank, no exchanges: the slab fault must not bleed into the
    // communication detectors.
    assert!(!has_pass(&d, PASS_STALE_HALO), "diagnostics: {d:#?}");
    assert!(!has_pass(&d, PASS_MSG_RACE), "diagnostics: {d:#?}");
    assert!(!has_pass(&d, PASS_LEAK), "diagnostics: {d:#?}");
}

#[test]
fn mutant_gapped_write_slabs() {
    let d = run_solver(
        KernelKind::Acoustic,
        4,
        HaloMode::Basic,
        1,
        3,
        Some(Fault::GapSlabs),
    );
    assert!(has_pass(&d, PASS_SLAB), "diagnostics: {d:#?}");
    assert!(!has_pass(&d, PASS_STALE_HALO), "diagnostics: {d:#?}");
}

// ------------------------------------------------ mutants: leaks (5)

#[test]
fn mutant_leak_adhoc_send_never_received() {
    let reports = run_comm(2, |comm| {
        if comm.rank() == 0 {
            comm.isend(1, 50, &[0u8; 16]).wait();
        }
        comm.barrier();
    });
    assert!(has_pass(&reports, PASS_LEAK), "reports: {reports:#?}");
    assert!(!has_pass(&reports, PASS_REUSE), "reports: {reports:#?}");
}

#[test]
fn mutant_leak_persistent_start_never_drained() {
    let reports = run_comm(2, |comm| {
        if comm.rank() == 0 {
            let ps = comm.send_init(1, 60);
            ps.start(&[9.0; 4]);
        }
        comm.barrier();
    });
    assert!(has_pass(&reports, PASS_LEAK), "reports: {reports:#?}");
    // One in-flight start is legal pipelining — never a reuse report.
    assert!(!has_pass(&reports, PASS_REUSE), "reports: {reports:#?}");
}

// ------------------------------------------------------- negatives

#[test]
fn shipped_configs_are_clean_under_sanitizer() {
    // Spot checks of the false-positive gate (`mpix-verify --san` sweeps
    // the full matrix): threaded, multi-rank, every mode.
    for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
        let d = run_solver(KernelKind::Acoustic, 4, mode, 2, 2, None);
        let findings: Vec<&Diagnostic> = d
            .iter()
            .filter(|d| d.pass.starts_with("mpix-san/"))
            .collect();
        assert!(
            findings.is_empty(),
            "false positives in {mode:?}: {findings:#?}"
        );
    }
}

#[test]
fn sparse_combine_is_clean_under_sanitizer() {
    // Shared receivers reach their primary in one persistent message per
    // (secondary → primary) pair at the end of the run; the sanitizer
    // must see matched, ordered traffic. The centred source and the first
    // receiver sit where all four ranks of a 2x2 split meet (Fig. 3
    // point C); the rest cross the rank split.
    let spec = ModelSpec::new(&[40, 40]).with_nbl(4);
    let prop = Propagator::build(KernelKind::Acoustic, spec.clone(), 4);
    let nt = 4i64;
    let h = spec.spacing;
    let mut receivers = vec![spec.center_coords()];
    receivers.extend((0..12).map(|i| vec![(20.0 + 0.6 * i as f64) * h, 10.3 * h]));
    for ranks in [2, 4] {
        let pref = &prop;
        let rec = &receivers;
        let init = move |ws: &mut Workspace| {
            pref.init(ws);
            pref.add_ricker_source(ws, 18.0, nt as usize);
            ws.add_receivers(
                pref.main_field(),
                SparsePoints::new(rec.clone(), vec![h, h]),
            );
        };
        let opts = prop
            .apply_options(nt)
            .with_ranks(ranks)
            .with_verify(false)
            .with_sanitize(true);
        let applied = prop
            .op
            .run(&opts, init, |ws| ws.take_samples(ws.sparse.len() - 1));
        let findings: Vec<&Diagnostic> = applied
            .summary
            .diagnostics
            .iter()
            .filter(|d| d.pass.starts_with("mpix-san/"))
            .collect();
        assert!(findings.is_empty(), "{ranks} ranks: {findings:#?}");
        // The combine ran: exactly one rank recorded every sample.
        for t in 0..nt as usize {
            for p in 0..receivers.len() {
                let recorded = applied.results.iter().filter(|s| !s[t][p].is_nan()).count();
                assert_eq!(recorded, 1, "{ranks} ranks: step {t} receiver {p}");
            }
        }
    }
}

#[test]
fn legal_single_restart_pipelining_not_flagged() {
    // One outstanding restart per channel is exactly how the full-mode
    // overlap pipeline behaves — must stay silent.
    let reports = run_comm(2, |comm| {
        if comm.rank() == 0 {
            let ps = comm.send_init(1, 103);
            ps.start(&[1.0; 4]);
            ps.start(&[2.0; 4]); // backlog 1: legal pipelining
        }
        comm.barrier();
        if comm.rank() == 1 {
            let pr = comm.recv_init(0, 103);
            pr.wait_with(|_| ());
            pr.wait_with(|_| ());
        }
        comm.barrier();
    });
    assert!(reports.is_empty(), "reports: {reports:#?}");
}

// ------------------------------------------------------ poison protocol

#[test]
fn poisoned_run_flushes_pending_reports_and_skips_leak_check() {
    let san = Arc::new(San::new(2));
    let san_c = san.clone();
    let result = std::panic::catch_unwind(move || {
        Universe::run_with_san(2, Some(san_c), |comm| {
            if comm.rank() == 0 {
                let ps = comm.send_init(1, 104);
                for _ in 0..3 {
                    ps.start(&[1.0; 4]); // pending reuse report
                }
                panic!("sanitizer poison test");
            }
            // Rank 1 blocks on traffic that never comes; the poison
            // protocol unwinds it when rank 0 dies.
            comm.recv(0, 999);
        });
    });
    let err = result.expect_err("rank panic must propagate");
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("sanitizer poison test"), "payload: {msg:?}");
    // The reuse report survived the unwind; the abandoned in-flight
    // traffic is NOT misreported as a leak on a poisoned run.
    let reports = san.snapshot_reports();
    assert!(has_pass(&reports, PASS_REUSE), "reports: {reports:#?}");
    assert!(!has_pass(&reports, PASS_LEAK), "reports: {reports:#?}");
    assert!(san.is_poisoned());
}
