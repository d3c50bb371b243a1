//! Integration: the verify gate's schedule checks, each proven once per
//! distinct input, checked against the per-key loops they replaced, kept
//! here as a test-only oracle.
//!
//! `verify_operator` proves each `(mode, nd)` parametric schedule once
//! and collects and matches each `(halo, radius)` concrete schedule once
//! per topology, then copies each verdict behind every exchange key's
//! location. The oracle proves and matches every key separately, as the
//! gate did before, through the public `prove_parametric`,
//! `collect_schedules` and `match_schedule`. Both must return equal
//! diagnostics for every shipped solver, in every mode and at every
//! rank count, and on mutated plans whose keys have different radii.

use std::collections::BTreeSet;

use mpix::analysis::comm_schedule::{
    collect_schedules, exchange_keys, match_schedule, ScheduleCtx,
};
use mpix::analysis::lint::parametric::{lint_schedules, prove_parametric};
use mpix::analysis::lint::LintFinding;
use mpix::analysis::{verify_operator, AnalysisConfig};
use mpix::comm::dims_create;
use mpix::ir::halo::HaloPlan;
use mpix::prelude::*;
use mpix::solvers::{acoustic, elastic, tti, viscoelastic, ModelSpec};
use mpix::symbolic::FieldId;
use mpix::trace::{Diagnostic, Severity};

/// The gate's schedule checks as they were before each proof was shared
/// across exchange keys.
mod oracle {
    use super::*;

    fn buf_name(ctx: &Context, f: FieldId, toff: i32) -> String {
        format!("{}[t{toff:+}]", ctx.field(f).name)
    }

    /// The parametric prover, once per exchange key per mode.
    pub fn lint_schedules(ctx: &Context, plan: &HaloPlan, modes: &[HaloMode]) -> Vec<LintFinding> {
        let mut out = Vec::new();
        for (f, toff, radius) in exchange_keys(plan) {
            if radius == 0 {
                continue;
            }
            let nd = ctx.field(f).ndim();
            for &mode in modes {
                let prefix = format!("{} / {mode:?} (all P) / ", buf_name(ctx, f, toff));
                out.extend(prove_parametric(mode, nd, &prefix));
            }
        }
        out
    }

    /// The concrete matcher, once per exchange key per mode × topology.
    fn comm_schedules(
        ctx: &Context,
        grid: &Grid,
        plan: &HaloPlan,
        cfg: &AnalysisConfig,
    ) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let nd = grid.shape.len();
        for &mode in &cfg.modes {
            for &p in &cfg.ranks {
                if p < 2 {
                    continue;
                }
                let dims = dims_create(p, nd);
                for (f, toff, radius) in exchange_keys(plan) {
                    if radius == 0 {
                        continue;
                    }
                    let halo = ctx.field(f).halo() as usize;
                    let location = format!(
                        "{} / {:?} on {} ranks {:?}",
                        buf_name(ctx, f, toff),
                        mode,
                        p,
                        dims
                    );
                    if grid.shape.iter().zip(&dims).any(|(&n, &d)| n / d < radius) {
                        diags.push(Diagnostic::error(
                            "comm-schedule",
                            location,
                            format!(
                                "decomposition too fine: some rank owns fewer than radius \
                                 {radius} points per dimension, so exchange boxes would read \
                                 unexchanged halo"
                            ),
                        ));
                        continue;
                    }
                    let plans = collect_schedules(&grid.shape, &dims, halo, mode, radius);
                    let sctx = ScheduleCtx {
                        global: grid.shape.clone(),
                        dims: dims.clone(),
                        halo,
                        radius,
                    };
                    diags.extend(match_schedule(&plans, &sctx, &location));
                }
            }
        }
        diags
    }

    /// `verify_operator` with its schedule checks done per key. Every
    /// other pass is independent of the modes, so it comes from
    /// `verify_operator` itself with no modes configured.
    pub fn verify_operator(
        ctx: &Context,
        grid: &Grid,
        clusters: &[mpix::ir::cluster::Cluster],
        plan: &HaloPlan,
        cfg: &AnalysisConfig,
    ) -> Vec<Diagnostic> {
        let mut no_modes = cfg.clone();
        no_modes.modes.clear();
        let mut diags = super::verify_operator(ctx, grid, clusters, plan, &no_modes).diagnostics;
        if let Some(lc) = &cfg.lint {
            diags.extend(lc.apply(lint_schedules(ctx, plan, &cfg.modes)));
        }
        diags.extend(comm_schedules(ctx, grid, plan, cfg));
        diags.sort_by(|a, b| {
            (&a.code, &a.pass, &a.location, a.severity, &a.explanation).cmp(&(
                &b.code,
                &b.pass,
                &b.location,
                b.severity,
                &b.explanation,
            ))
        });
        diags.dedup();
        diags
    }
}

type Equations = fn(&ModelSpec, u32) -> (Context, Grid, Vec<Eq>);

fn findings(f: &[LintFinding]) -> Vec<(&str, &str, &str)> {
    f.iter()
        .map(|x| (x.code, x.location.as_str(), x.explanation.as_str()))
        .collect()
}

/// The gate and the oracle agree on one operator's artifacts; the
/// prover's findings also keep the oracle's order, which `mpix-lint`
/// prints as it is.
fn agrees(what: &str, op: &Operator, grid: &Grid, plan: &HaloPlan, cfg: &AnalysisConfig) {
    let got = verify_operator(op.ctx(), grid, op.clusters(), plan, cfg).diagnostics;
    let want = oracle::verify_operator(op.ctx(), grid, op.clusters(), plan, cfg);
    assert_eq!(
        got, want,
        "{what}: the gate differs from the per-key oracle"
    );
    let got = lint_schedules(op.ctx(), plan, &cfg.modes);
    let want = oracle::lint_schedules(op.ctx(), plan, &cfg.modes);
    assert_eq!(findings(&got), findings(&want), "{what}: prover findings");
}

/// The gate configuration of one run. The backend equivalence pass is
/// independent of the schedule checks, so the cheaper bytecode backend
/// stands for both.
fn run_config(mode: HaloMode, ranks: usize) -> AnalysisConfig {
    AnalysisConfig::for_run(mode, ranks, 1, 0, Backend::Bytecode)
}

fn matches_oracle(name: &str, equations: Equations) {
    let spec = ModelSpec::new(&[12, 12, 12]).with_nbl(2);
    for so in [4, 8] {
        let (ctx, grid, eqs) = equations(&spec, so);
        let op = Operator::build(ctx, grid, eqs).unwrap();
        for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
            for ranks in [1, 2, 4] {
                let what = format!("{name} SDO {so} {mode:?} on {ranks} ranks");
                agrees(
                    &what,
                    &op,
                    op.grid(),
                    op.halo_plan(),
                    &run_config(mode, ranks),
                );
            }
        }
    }
}

#[test]
fn acoustic_gate_matches_per_key_oracle() {
    matches_oracle("acoustic", acoustic::equations);
}

#[test]
fn elastic_gate_matches_per_key_oracle() {
    matches_oracle("elastic", elastic::equations);
}

#[test]
fn tti_gate_matches_per_key_oracle() {
    matches_oracle("tti", tti::equations);
}

#[test]
fn viscoelastic_gate_matches_per_key_oracle() {
    matches_oracle("viscoelastic", viscoelastic::equations);
}

/// Shrink every exchange of the buffers in `shrunk` to radius 1.
fn shrink(plan: &HaloPlan, shrunk: &BTreeSet<(FieldId, i32)>) -> HaloPlan {
    let mut plan = plan.clone();
    for x in plan
        .hoisted
        .iter_mut()
        .chain(plan.per_cluster.iter_mut().flatten())
    {
        if shrunk.contains(&(x.field, x.time_offset)) {
            x.radius = vec![1; x.radius.len()];
        }
    }
    plan
}

/// One key's radius shrunk below its stencil's: the gate must report the
/// missing halo coverage, and match its now-distinct `(halo, radius)`
/// schedule as the oracle does.
#[test]
fn shrunk_key_radius_matches_oracle_and_breaks_coverage() {
    let (ctx, grid, eqs) = elastic::equations(&ModelSpec::new(&[12, 12, 12]).with_nbl(2), 8);
    let op = Operator::build(ctx, grid, eqs).unwrap();
    let (f, toff, radius) = exchange_keys(op.halo_plan())[0];
    assert!(
        radius > 1,
        "the first elastic SDO 8 key exchanges radius {radius}"
    );
    let plan = shrink(op.halo_plan(), &BTreeSet::from([(f, toff)]));
    for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
        let cfg = run_config(mode, 4);
        agrees(&format!("shrunk {mode:?}"), &op, op.grid(), &plan, &cfg);
        let report = verify_operator(op.ctx(), op.grid(), op.clusters(), &plan, &cfg);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.pass == "halo-coverage" && d.severity == Severity::Error),
            "{report}"
        );
    }
}

/// Half the keys shrunk to radius 1, on a grid whose ranks own 3 points
/// along the split dimension: the "decomposition too fine" errors must
/// name exactly the radius-4 buffers, and the radius-1 buffers still go
/// through the matcher.
#[test]
fn too_fine_grid_names_exactly_the_wide_buffers() {
    let (ctx, grid, eqs) = tti::equations(&ModelSpec::new(&[12, 12, 12]).with_nbl(2), 8);
    let op = Operator::build(ctx, grid, eqs).unwrap();
    let keys = exchange_keys(op.halo_plan());
    assert!(keys.len() >= 2 && keys.iter().all(|k| k.2 == 4), "{keys:?}");
    let narrow: BTreeSet<(FieldId, i32)> =
        keys.iter().step_by(2).map(|&(f, t, _)| (f, t)).collect();
    let plan = shrink(op.halo_plan(), &narrow);
    // 16 points over 5 ranks: 3 per rank, fewer than 4, at least 1.
    let ranks = 5;
    assert_eq!(op.grid().shape[0], 16);
    assert_eq!(dims_create(ranks, 3), vec![5, 1, 1]);
    let wide: BTreeSet<String> = keys
        .iter()
        .filter(|&&(f, t, _)| !narrow.contains(&(f, t)))
        .map(|&(f, t, _)| format!("{}[t{t:+}]", op.ctx().field(f).name))
        .collect();
    for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
        let cfg = run_config(mode, ranks);
        agrees(&format!("too fine {mode:?}"), &op, op.grid(), &plan, &cfg);
        let report = verify_operator(op.ctx(), op.grid(), op.clusters(), &plan, &cfg);
        let named: BTreeSet<String> = report
            .diagnostics
            .iter()
            .filter(|d| d.explanation.starts_with("decomposition too fine"))
            .map(|d| {
                let buf = d.location.split(" / ").next().unwrap().to_string();
                assert_eq!(
                    d.location,
                    format!("{buf} / {mode:?} on {ranks} ranks [5, 1, 1]")
                );
                buf
            })
            .collect();
        assert_eq!(named, wide, "{report}");
    }
}
