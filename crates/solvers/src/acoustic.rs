//! Isotropic acoustic wave propagator (paper §IV-B.1, Appendix A.1).
//!
//! `m·∂²u/∂t² − ∇²u + damp·∂u/∂t = source` — a single scalar PDE whose
//! discretization is the classic star ("Jacobi") stencil. Memory-bound,
//! low operational intensity; working set of 5 arrays (3 time buffers of
//! `u` + `m` + `damp`), matching the paper's field count.

use mpix_core::{Operator, Workspace};
use mpix_symbolic::{Context, Eq, Grid};

use crate::model::ModelSpec;

/// Build the acoustic operator at spatial order `so`.
pub fn operator(spec: &ModelSpec, so: u32) -> Operator {
    let (ctx, grid, eqs) = equations(spec, so);
    Operator::build(ctx, grid, eqs).expect("acoustic operator builds")
}

/// The acoustic update equations at spatial order `so`, before
/// compilation: what [`operator`] builds.
pub fn equations(spec: &ModelSpec, so: u32) -> (Context, Grid, Vec<Eq>) {
    let grid = spec.grid();
    let mut ctx = Context::new();
    let u = ctx.add_time_function("u", &grid, so, 2);
    let m = ctx.add_function("m", &grid, so);
    let damp = ctx.add_function("damp", &grid, so);
    // m u_tt - ∇²u + damp u_t = 0
    let pde = m.center() * u.dt2() - u.laplace() + damp.center() * u.dt();
    let stencil = mpix_symbolic::solve(&pde, &u.forward(), &ctx).expect("linear in u.forward");
    (ctx, grid, vec![stencil])
}

/// Seed model parameters (`m`, `damp`) on a rank's workspace.
pub fn init_workspace(spec: &ModelSpec, ws: &mut Workspace) {
    spec.fill_constant(ws, "m", spec.m());
    spec.fill_damping(ws, "damp");
}

/// Initial value ranges the precision certificate assumes: the
/// wavefield within ±[`crate::fp_profile::WAVE_AMP`], materials exactly
/// as [`init_workspace`] writes them.
pub fn fp_ranges(spec: &ModelSpec) -> Vec<(&'static str, f64, f64)> {
    let w = crate::fp_profile::WAVE_AMP;
    let (mlo, mhi) = crate::fp_profile::around(spec.m());
    let (dlo, dhi) = crate::fp_profile::damp_range(spec);
    vec![("u", -w, w), ("m", mlo, mhi), ("damp", dlo, dhi)]
}

/// The wavefield updated by this propagator.
pub const MAIN_FIELD: &str = "u";

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_core::ApplyOptions;
    use mpix_dmp::HaloMode;

    #[test]
    fn working_set_matches_paper_five_fields() {
        let spec = ModelSpec::new(&[8, 8, 8]).with_nbl(0);
        let op = operator(&spec, 8);
        // Streams: u[t], u[t-1], m, damp read; u[t+1] written -> 5.
        assert_eq!(op.op_counts().working_set(), 5);
    }

    #[test]
    fn single_halo_exchange_per_step() {
        let spec = ModelSpec::new(&[8, 8, 8]).with_nbl(0);
        let op = operator(&spec, 8);
        assert_eq!(op.halo_plan().exchanges_per_step(), 1);
        assert_eq!(op.halo_plan().per_cluster[0][0].radius, vec![4, 4, 4]);
    }

    #[test]
    fn point_source_propagates_spherically_distributed() {
        let spec = ModelSpec::new(&[12, 12, 12]).with_nbl(2);
        let op = operator(&spec, 4);
        let dt = spec.stable_dt(0.4);
        let opts = ApplyOptions::default().with_nt(8).with_dt(dt);
        let c = spec.padded_shape()[0] / 2;
        let spec2 = spec.clone();
        let out = op.run(
            &opts.with_ranks(8),
            move |ws| {
                init_workspace(&spec2, ws);
                ws.field_data_mut("u", 0).set_global(&[c, c, c], 1.0);
                ws.field_data_mut("u", -1).set_global(&[c, c, c], 1.0);
            },
            |ws| ws.gather("u"),
        );
        let g = &out.results[0];
        assert!(g.iter().all(|v| v.is_finite()));
        let n = spec.padded_shape()[0];
        // Symmetry: the field must be mirror-symmetric around the center.
        let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
        let a = g[idx(c - 3, c, c)];
        let b = g[idx(c + 3, c, c)];
        let d = g[idx(c, c - 3, c)];
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        assert!((a - d).abs() < 1e-5, "{a} vs {d}");
        assert!(a.abs() > 0.0, "wave has not reached radius 3");
    }

    #[test]
    fn material_fills_match_the_profile_on_every_rank() {
        let spec = ModelSpec::new(&[10, 9, 8]).with_nbl(2);
        let op = operator(&spec, 4);
        let opts = ApplyOptions::default().with_dt(spec.stable_dt(0.4));
        let s2 = spec.clone();
        let out = op.run(
            &opts.with_ranks(4),
            move |ws| init_workspace(&s2, ws),
            |ws| (ws.gather("damp"), ws.gather("m")),
        );
        let (damp, m) = &out.results[0];
        let shape = spec.padded_shape();
        let mut i = 0;
        for x in 0..shape[0] {
            for y in 0..shape[1] {
                for z in 0..shape[2] {
                    let want = spec.damping_at(&[x, y, z]) as f32;
                    assert_eq!(damp[i].to_bits(), want.to_bits(), "damp at {x},{y},{z}");
                    assert_eq!(m[i], spec.m() as f32);
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn serial_vs_distributed_equivalence_3d() {
        let spec = ModelSpec::new(&[10, 9, 8]).with_nbl(2);
        let op = operator(&spec, 4);
        let dt = spec.stable_dt(0.4);
        let opts = ApplyOptions::default().with_nt(5).with_dt(dt);
        let c = spec.padded_shape()[0] / 2;
        let s2 = spec.clone();
        let init = move |ws: &mut Workspace| {
            init_workspace(&s2, ws);
            ws.field_data_mut("u", 0).set_global(&[c, c, c], 1.0);
        };
        let serial = op.run(&opts, &init, |ws| ws.gather("u")).results.remove(0);
        for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
            let opts = opts.clone().with_mode(mode).with_ranks(8);
            let out = op.run(&opts, &init, |ws| ws.gather("u"));
            for (a, b) in out.results[0].iter().zip(&serial) {
                assert!(
                    (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                    "{mode:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn damping_layer_absorbs_energy() {
        // Same domain, sponge on vs off: after the wave has reached the
        // boundary layer, total |u| must be lower with the sponge.
        let run = |with_damp: bool| -> f32 {
            let spec = ModelSpec::new(&[10, 10]).with_nbl(6);
            let op = operator(&spec, 4);
            let dt = spec.stable_dt(0.4);
            let c = spec.padded_shape()[0] / 2;
            let s2 = spec.clone();
            let opts = ApplyOptions::default().with_nt(60).with_dt(dt);
            let g = op
                .run(
                    &opts,
                    move |ws| {
                        init_workspace(&s2, ws);
                        if !with_damp {
                            s2.fill_constant(ws, "damp", 0.0);
                        }
                        ws.field_data_mut("u", 0).set_global(&[c, c], 1.0);
                        ws.field_data_mut("u", -1).set_global(&[c, c], 1.0);
                    },
                    |ws| ws.gather("u"),
                )
                .results
                .remove(0);
            g.iter().map(|v| v.abs()).sum()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < 0.9 * without,
            "damping layer must absorb: {with} !< {without}"
        );
    }
}
