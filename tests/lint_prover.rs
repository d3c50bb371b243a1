//! Integration tests for the `mpix-analysis::lint` family:
//!
//! * the parametric-in-P schedule prover must agree with the concrete
//!   rank-by-rank matcher at sampled rank counts — the prover's verdict
//!   is "clean for every P", so at any sampled P the concrete schedules
//!   must also be clean AND structurally equal (steps, message counts)
//!   to the symbolic schedule of each rank's position class;
//! * `verify_operator` output is deterministic: stably sorted, deduped,
//!   identical across runs;
//! * `MPIX_LINT`-style per-code levels gate what verification reports.

use mpix::analysis::comm_schedule::{collect_schedules, match_schedule, ScheduleCtx};
use mpix::analysis::lint::parametric::{build_all_schedules, class_of, prove_parametric};
use mpix::analysis::lint::LintConfig;
use mpix::analysis::AnalysisConfig;
use mpix::comm::dims_create;
use mpix::prelude::*;
use mpix::trace::Severity;

const SAMPLED_P: [usize; 7] = [2, 3, 5, 8, 32, 128, 512];

#[test]
fn prover_agrees_with_concrete_matcher_at_sampled_p() {
    // 64×64 global, radius-2 exchange: even the 32×16 grid dims_create
    // picks for P=512 keeps 2 points per rank per dim (= radius), the
    // cone the prover assumes and `verify_operator` pre-checks.
    let global = vec![64usize, 64];
    let (halo, radius) = (2usize, 2usize);
    for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
        // The symbolic side: every 2-D position class proves clean.
        assert!(
            prove_parametric(mode, 2, "test / ").is_empty(),
            "{mode:?} must prove clean parametrically"
        );
        let schedules = build_all_schedules(mode, 2);
        for p in SAMPLED_P {
            let dims = dims_create(p, 2);
            let plans = collect_schedules(&global, &dims, halo, mode, radius);
            let sctx = ScheduleCtx {
                global: global.clone(),
                dims: dims.clone(),
                halo,
                radius,
            };
            let diags = match_schedule(&plans, &sctx, &format!("{mode:?} P={p}"));
            assert!(
                diags.is_empty(),
                "concrete matcher disagrees with prover at {mode:?} P={p}: {diags:?}"
            );
            // Counter-assertion: each rank's concrete schedule has the
            // same shape as the symbolic schedule of its position class.
            for plan in &plans {
                let class = class_of(&dims, plan.rank);
                let sym = schedules
                    .get(&class)
                    .unwrap_or_else(|| panic!("class {class:?} not modeled ({mode:?} P={p})"));
                assert_eq!(
                    plan.steps.len(),
                    sym.steps.len(),
                    "step count: rank {} class {class:?} {mode:?} P={p}",
                    plan.rank
                );
                for (s, (con, sym_step)) in plan.steps.iter().zip(&sym.steps).enumerate() {
                    assert_eq!(
                        con.len(),
                        sym_step.len(),
                        "message count: rank {} class {class:?} step {s} {mode:?} P={p}",
                        plan.rank
                    );
                }
            }
        }
    }
}

/// An acoustic-style operator plus one registered-but-unused field, so
/// the lint pass has a deterministic finding (`MPX005`) to report.
fn operator_with_unused_field() -> Operator {
    let mut ctx = Context::new();
    let grid = Grid::new(&[24, 24], &[1.0, 1.0]);
    let u = ctx.add_time_function("u", &grid, 4, 2);
    let m = ctx.add_function("m", &grid, 4);
    let _phi = ctx.add_function("phi", &grid, 4);
    let pde = m.center() * u.dt2() - u.laplace();
    let st = mpix::symbolic::solve(&pde, &u.forward(), &ctx).unwrap();
    Operator::build(ctx, grid, vec![st]).unwrap()
}

/// A small sweep so the determinism tests stay fast in debug builds.
fn quick_cfg() -> AnalysisConfig {
    AnalysisConfig {
        modes: vec![HaloMode::Basic, HaloMode::Diagonal],
        ranks: vec![1, 2],
        threads: vec![],
        backends: vec![],
        check_fused_semantics: true,
        lint: Some(LintConfig::new()),
    }
}

#[test]
fn verify_output_is_sorted_deduped_and_stable() {
    let op = operator_with_unused_field();
    let cfg = quick_cfg();
    let r1 = op.verify(&cfg);
    let r2 = op.verify(&cfg);
    assert_eq!(r1.diagnostics, r2.diagnostics, "verify output not stable");
    assert!(
        r1.diagnostics
            .iter()
            .any(|d| d.code.as_deref() == Some("MPX005")),
        "expected the unused-field finding: {:?}",
        r1.diagnostics
    );
    // Sorted by the stable key, with no adjacent duplicates.
    let key = |d: &mpix::trace::Diagnostic| {
        (
            d.code.clone(),
            d.pass.clone(),
            d.location.clone(),
            d.severity,
            d.explanation.clone(),
        )
    };
    for w in r1.diagnostics.windows(2) {
        assert!(key(&w[0]) <= key(&w[1]), "not sorted: {w:?}");
        assert!(w[0] != w[1], "duplicate diagnostic survived: {:?}", w[0]);
    }
}

#[test]
fn lint_levels_gate_verification_reports() {
    let op = operator_with_unused_field();

    // Default: MPX005 is a warning; the report is clean of errors.
    let report = op.verify(&quick_cfg());
    let mpx005: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code.as_deref() == Some("MPX005"))
        .collect();
    assert_eq!(mpx005.len(), 1);
    assert_eq!(mpx005[0].severity, Severity::Warning);

    // `unused-field=allow` (MPIX_LINT syntax) suppresses it entirely.
    let mut cfg = quick_cfg();
    cfg.lint = Some(LintConfig::parse("unused-field=allow"));
    let report = op.verify(&cfg);
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.code.as_deref() == Some("MPX005")),
        "allow level must drop the finding"
    );

    // `MPX005=deny` escalates it to an error.
    let mut cfg = quick_cfg();
    cfg.lint = Some(LintConfig::parse("MPX005=deny"));
    let report = op.verify(&cfg);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code.as_deref() == Some("MPX005") && d.severity == Severity::Error));

    // `lint: None` skips the lint pass altogether.
    let mut cfg = quick_cfg();
    cfg.lint = None;
    let report = op.verify(&cfg);
    assert!(
        !report.diagnostics.iter().any(|d| d.pass == "lint"),
        "lint pass must be skippable"
    );
}
