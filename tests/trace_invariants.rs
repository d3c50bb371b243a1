//! Invariants of the per-rank observability layer, checked against real
//! multi-rank runs: per-step halo message counts must match Table I's
//! `messages_per_exchange`, the section timers must reflect each mode's
//! structure (basic blocks in `halo.wait`, full splits off a
//! `remainder` region), and the JSON exports must round-trip.

use mpix::prelude::*;
use mpix::trace::{Section, TraceReport};

/// 3-D heat diffusion on a 9³ grid — 3³ points per rank on a [3,3,3]
/// topology, so exactly one rank (the interior one) has all 26
/// neighbours of Table I.
fn heat_op() -> Operator {
    let mut ctx = Context::new();
    let grid = Grid::new(&[9, 9, 9], &[1.0, 1.0, 1.0]);
    let u = ctx.add_time_function("u", &grid, 2, 1);
    let eq = Eq::new(u.dt(), u.laplace());
    let st = eq.solve_for(&u.forward(), &ctx).unwrap();
    Operator::build(ctx, grid, vec![st]).unwrap()
}

fn traced_reports(op: &Operator, mode: HaloMode, nt: i64) -> (Vec<TraceReport>, PerfSummary) {
    let opts = ApplyOptions::default()
        .with_nt(nt)
        .with_dt(0.05)
        .with_mode(mode)
        .with_ranks(27)
        .with_topology(&[3, 3, 3])
        .with_trace(TraceLevel::Full)
        .with_label("heat-9cubed");
    let applied = op.run(
        &opts,
        |ws| {
            ws.field_data_mut("u", 0)
                .fill_global_slice(&[2..7, 2..7, 2..7], 1.0);
        },
        |ws| ws.last_stats.clone().unwrap().trace.unwrap(),
    );
    (applied.results, applied.summary)
}

#[test]
fn interior_rank_message_counts_match_table1() {
    let op = heat_op();
    let nt = 3i64;
    for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
        let (reports, summary) = traced_reports(&op, mode, nt);
        assert_eq!(reports.len(), 27);
        // One exchange per timestep (a single halo'd field), so the
        // interior rank sends exactly messages_per_exchange per step.
        let per_rank_sends: Vec<usize> = reports
            .iter()
            .map(|r| r.sends_matching(|_| true).len())
            .collect();
        let expect = mode.messages_per_exchange(3) * nt as usize;
        let max = *per_rank_sends.iter().max().unwrap();
        assert_eq!(max, expect, "{mode:?}: interior rank sends");
        assert_eq!(
            per_rank_sends.iter().filter(|&&c| c == max).count(),
            1,
            "{mode:?}: exactly one interior rank on a [3,3,3] topology"
        );
        // A corner rank has 3 (basic) / 7 (diag, full) neighbours.
        let corner = match mode {
            HaloMode::Basic => 3,
            _ => 7,
        };
        assert_eq!(
            *per_rank_sends.iter().min().unwrap(),
            corner * nt as usize,
            "{mode:?}: corner rank sends"
        );
        // The summary's histogram counts every sent message cluster-wide.
        assert_eq!(
            summary.histogram.total(),
            per_rank_sends.iter().sum::<usize>() as u64,
            "{mode:?}: histogram total"
        );
    }
}

#[test]
fn section_timers_reflect_mode_structure() {
    let op = heat_op();
    let nt = 3i64;

    // Basic: synchronous exchange — every rank pays a nonzero halo.wait,
    // and there is no CORE/REMAINDER split.
    let (basic, _) = traced_reports(&op, HaloMode::Basic, nt);
    for r in &basic {
        assert!(
            r.section_secs(Section::HaloWait) > 0.0,
            "rank {}: basic mode must block in halo.wait",
            r.rank
        );
        assert_eq!(
            r.section_count(Section::Remainder),
            0,
            "rank {}: basic mode has no remainder region",
            r.rank
        );
        assert!(r.section_secs(Section::Compute) > 0.0);
        // Per-step breakdowns recorded at TraceLevel::Full.
        assert_eq!(r.steps.len(), nt as usize, "rank {}", r.rank);
    }

    // Full: communication overlaps the CORE loop, so every rank runs a
    // REMAINDER region and the wait span shrinks to what the overlap
    // could not hide (still bounded by the rank's total halo time).
    let (full, _) = traced_reports(&op, HaloMode::Full, nt);
    for r in &full {
        assert!(
            r.section_count(Section::Remainder) > 0,
            "rank {}: full mode must execute a remainder region",
            r.rank
        );
        assert!(r.halo_secs() >= r.section_secs(Section::HaloWait));
    }
}

#[test]
fn trace_json_round_trips_through_real_runs() {
    let op = heat_op();
    let (reports, summary) = traced_reports(&op, HaloMode::Diagonal, 2);
    for r in &reports {
        let back = TraceReport::from_json(&r.to_json()).unwrap();
        assert_eq!(&back, r);
    }
    let back = PerfSummary::from_json(&summary.to_json()).unwrap();
    assert_eq!(back, summary);
    // And the parsed JSON text round-trips too (what `tables perf` emits).
    let text = summary.to_json().to_string();
    let reparsed = mpix::trace::Value::parse(&text).unwrap();
    assert_eq!(PerfSummary::from_json(&reparsed).unwrap(), summary);
}

#[test]
fn disabled_trace_reports_nothing() {
    let op = heat_op();
    let opts = ApplyOptions::default()
        .with_nt(1)
        .with_dt(0.05)
        .with_ranks(8);
    let applied = op.run(&opts, |_| {}, |ws| ws.last_stats.clone().unwrap().trace);
    assert!(applied.results.iter().all(Option::is_none));
    // Wall-clock totals are still real even with tracing off.
    assert!(applied.summary.total_secs > 0.0);
    assert_eq!(applied.summary.per_rank.len(), 8);
    assert_eq!(applied.summary.halo_wait_fraction, 0.0);
}

/// The summary names the backend that executed the run: `jit` by
/// default wherever the JIT can run, `bytecode` when asked for (and by
/// default elsewhere), in the struct, the table and the JSON.
#[test]
fn summary_names_the_backend_that_ran() {
    let op = heat_op();
    let base = ApplyOptions::default().with_nt(1).with_dt(0.05);
    let have_jit = mpix::available_backends().contains(&Backend::Jit);
    let default = if have_jit { "jit" } else { "bytecode" };
    for (opts, want) in [
        (base.clone(), default),
        (base.clone().with_backend(Backend::Bytecode), "bytecode"),
    ] {
        let summary = op.run(&opts, |_| {}, |_| ()).summary;
        assert_eq!(summary.backend, want);
        assert!(summary.table().contains(&format!("backend={want}")));
        let json = summary.to_json();
        assert_eq!(json.get("backend").and_then(|v| v.as_str()), Some(want));
    }
}
