//! Isotropic elastic propagator (paper §IV-B.3, Appendix A.3).
//!
//! Virieux's velocity–stress formulation on a staggered grid: a coupled
//! vector (`v`) / symmetric-tensor (`τ`) system, first-order in time
//! (one history buffer per field, unlike the acoustic kernels' two).
//! Working set of 22 arrays in 3-D: 9 wavefield components × 2 buffers
//! + λ, μ, 1/ρ and the damping mask — matching the paper's field count.
//!
//! ```text
//! ∂v/∂t = (1/ρ) ∇·τ                                   (velocity update)
//! ∂τ/∂t = λ tr(∇v_fwd) I + μ (∇v_fwd + ∇v_fwdᵀ)       (stress update)
//! ```
//!
//! The stress update reads the *freshly computed* velocities, so the
//! compiler splits the system into two clusters with a halo exchange of
//! `v[t+1]` in between — the coupling the paper highlights for its
//! communication volume.

use mpix_core::{Operator, Workspace};
use mpix_symbolic::context::{averaged_at, deriv_of};
use mpix_symbolic::{Context, Eq, FieldHandle, Grid, Stagger};

use crate::model::ModelSpec;

use Stagger::{Half, Node};

/// Names of the nine wavefield components.
pub const V_FIELDS: [&str; 3] = ["vx", "vy", "vz"];
pub const T_FIELDS: [&str; 6] = ["txx", "tyy", "tzz", "txy", "txz", "tyz"];

/// Build the elastic operator at spatial order `so` (3-D only).
pub fn operator(spec: &ModelSpec, so: u32) -> Operator {
    let (ctx, grid, eqs) = equations(spec, so);
    Operator::build(ctx, grid, eqs).expect("elastic operator builds")
}

/// The elastic update equations at spatial order `so`, before
/// compilation: what [`operator`] builds.
pub fn equations(spec: &ModelSpec, so: u32) -> (Context, Grid, Vec<Eq>) {
    assert_eq!(spec.shape.len(), 3, "elastic kernel is 3-D");
    let grid = spec.grid();
    let mut ctx = Context::new();
    // Velocities staggered along their own axis.
    let vx = ctx.add_staggered_time_function("vx", &grid, so, 1, &[Half, Node, Node]);
    let vy = ctx.add_staggered_time_function("vy", &grid, so, 1, &[Node, Half, Node]);
    let vz = ctx.add_staggered_time_function("vz", &grid, so, 1, &[Node, Node, Half]);
    // Diagonal stresses at nodes; shear stresses on edge midpoints.
    let txx = ctx.add_time_function("txx", &grid, so, 1);
    let tyy = ctx.add_time_function("tyy", &grid, so, 1);
    let tzz = ctx.add_time_function("tzz", &grid, so, 1);
    let txy = ctx.add_staggered_time_function("txy", &grid, so, 1, &[Half, Half, Node]);
    let txz = ctx.add_staggered_time_function("txz", &grid, so, 1, &[Half, Node, Half]);
    let tyz = ctx.add_staggered_time_function("tyz", &grid, so, 1, &[Node, Half, Half]);
    let b = ctx.add_function("b", &grid, so); // buoyancy 1/ρ
    let lam = ctx.add_function("lam", &grid, so);
    let mu = ctx.add_function("mu", &grid, so);
    let damp = ctx.add_function("damp", &grid, so);

    let d = |f: &FieldHandle, dim: usize| deriv_of(f.center(), dim, 1, so);
    let d_fwd = |f: &FieldHandle, dim: usize| deriv_of(f.forward(), dim, 1, so);
    // Node-centred material parameters are averaged onto each staggered
    // evaluation lattice (the classic staggered-grid treatment).
    let stag = |f: &FieldHandle| ctx.field(f.id()).stagger.clone();

    // Velocity updates (cluster 1): v_i += dt * b * Σ_j ∂_j τ_ij − damp v_i.
    let eq_vx = Eq::new(
        vx.dt(),
        averaged_at(&b, &stag(&vx)) * (d(&txx, 0) + d(&txy, 1) + d(&txz, 2))
            - averaged_at(&damp, &stag(&vx)) * vx.center(),
    );
    let eq_vy = Eq::new(
        vy.dt(),
        averaged_at(&b, &stag(&vy)) * (d(&txy, 0) + d(&tyy, 1) + d(&tyz, 2))
            - averaged_at(&damp, &stag(&vy)) * vy.center(),
    );
    let eq_vz = Eq::new(
        vz.dt(),
        averaged_at(&b, &stag(&vz)) * (d(&txz, 0) + d(&tyz, 1) + d(&tzz, 2))
            - averaged_at(&damp, &stag(&vz)) * vz.center(),
    );

    // Stress updates (cluster 2) read the fresh velocities v[t+1].
    let div_v = d_fwd(&vx, 0) + d_fwd(&vy, 1) + d_fwd(&vz, 2);
    let lam_e = lam.center();
    let mu_e = mu.center();
    let eq_txx = Eq::new(
        txx.dt(),
        lam_e.clone() * div_v.clone() + 2.0 * mu_e.clone() * d_fwd(&vx, 0),
    );
    let eq_tyy = Eq::new(
        tyy.dt(),
        lam_e.clone() * div_v.clone() + 2.0 * mu_e.clone() * d_fwd(&vy, 1),
    );
    let eq_tzz = Eq::new(
        tzz.dt(),
        lam_e.clone() * div_v.clone() + 2.0 * mu_e.clone() * d_fwd(&vz, 2),
    );
    let eq_txy = Eq::new(
        txy.dt(),
        averaged_at(&mu, &stag(&txy)) * (d_fwd(&vx, 1) + d_fwd(&vy, 0)),
    );
    let eq_txz = Eq::new(
        txz.dt(),
        averaged_at(&mu, &stag(&txz)) * (d_fwd(&vx, 2) + d_fwd(&vz, 0)),
    );
    let eq_tyz = Eq::new(
        tyz.dt(),
        averaged_at(&mu, &stag(&tyz)) * (d_fwd(&vy, 2) + d_fwd(&vz, 1)),
    );
    let _ = mu_e;

    let eqs: Vec<Eq> = [
        (eq_vx, vx.forward()),
        (eq_vy, vy.forward()),
        (eq_vz, vz.forward()),
        (eq_txx, txx.forward()),
        (eq_tyy, tyy.forward()),
        (eq_tzz, tzz.forward()),
        (eq_txy, txy.forward()),
        (eq_txz, txz.forward()),
        (eq_tyz, tyz.forward()),
    ]
    .into_iter()
    .map(|(eq, fwd)| eq.solve_for(&fwd, &ctx).expect("explicit update"))
    .collect();

    (ctx, grid, eqs)
}

/// Seed Lamé parameters, buoyancy and damping.
pub fn init_workspace(spec: &ModelSpec, ws: &mut Workspace) {
    let rho = spec.rho;
    let mu = rho * spec.vs * spec.vs;
    let lam = rho * spec.vp * spec.vp - 2.0 * mu;
    spec.fill_constant(ws, "b", 1.0 / rho);
    spec.fill_constant(ws, "lam", lam);
    spec.fill_constant(ws, "mu", mu);
    spec.fill_damping(ws, "damp");
}

/// Initial value ranges the precision certificate assumes.
pub fn fp_ranges(spec: &ModelSpec) -> Vec<(&'static str, f64, f64)> {
    let w = crate::fp_profile::WAVE_AMP;
    let a = crate::fp_profile::around;
    let rho = spec.rho;
    let mu = rho * spec.vs * spec.vs;
    let lam = rho * spec.vp * spec.vp - 2.0 * mu;
    let (dlo, dhi) = crate::fp_profile::damp_range(spec);
    let mut out: Vec<(&'static str, f64, f64)> =
        ["vx", "vy", "vz", "txx", "tyy", "tzz", "txy", "txz", "tyz"]
            .iter()
            .map(|&n| (n, -w, w))
            .collect();
    for (n, v) in [("b", 1.0 / rho), ("lam", lam), ("mu", mu)] {
        let (lo, hi) = a(v);
        out.push((n, lo, hi));
    }
    out.push(("damp", dlo, dhi));
    out
}

pub const MAIN_FIELD: &str = "txx";

/// A shared source initializer: a stress "explosion" at the centre.
pub fn seed_pressure_source(spec: &ModelSpec, ws: &mut Workspace, amp: f32) {
    let c: Vec<usize> = spec.padded_shape().iter().map(|&s| s / 2).collect();
    for f in ["txx", "tyy", "tzz"] {
        ws.field_data_mut(f, 0).set_global(&c, amp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_core::ApplyOptions;
    use mpix_dmp::HaloMode;

    fn small_spec() -> ModelSpec {
        ModelSpec::new(&[8, 8, 8]).with_nbl(2)
    }

    fn stable_dt(spec: &ModelSpec) -> f64 {
        0.3 * spec.spacing / (spec.vp * 3.0f64.sqrt())
    }

    #[test]
    fn working_set_matches_paper_22_fields() {
        let op = operator(&small_spec(), 4);
        // 9 components x (t and t+1) + b + lam + mu + damp = 22 streams.
        assert_eq!(op.op_counts().working_set(), 22);
    }

    #[test]
    fn two_clusters_with_fresh_velocity_exchange() {
        let op = operator(&small_spec(), 4);
        assert_eq!(op.clusters().len(), 2, "velocity + stress clusters");
        // Cluster 0 exchanges stresses at t; cluster 1 exchanges fresh
        // velocities at t+1.
        let c1: Vec<i32> = op.halo_plan().per_cluster[1]
            .iter()
            .map(|x| x.time_offset)
            .collect();
        assert!(c1.iter().all(|&t| t == 1), "{c1:?}");
        assert_eq!(c1.len(), 3, "three velocity components exchanged");
        assert_eq!(op.halo_plan().per_cluster[0].len(), 6, "six stresses");
    }

    #[test]
    fn explosion_source_stays_finite_and_symmetric() {
        let spec = small_spec();
        let op = operator(&spec, 4);
        let s2 = spec.clone();
        let opts = ApplyOptions::default().with_nt(6).with_dt(stable_dt(&spec));
        let g = op
            .run(
                &opts,
                move |ws| {
                    init_workspace(&s2, ws);
                    seed_pressure_source(&s2, ws, 1.0);
                },
                |ws| ws.gather("txx"),
            )
            .results
            .remove(0);
        assert!(g.iter().all(|v| v.is_finite()));
        let n = spec.padded_shape()[0];
        let c = n / 2;
        let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
        // x/y mirror symmetry of the P-wave in txx.
        let a = g[idx(c - 2, c, c)];
        let b = g[idx(c + 2, c, c)];
        // Staggered grids are mirror-symmetric only up to the half-cell
        // shift; allow a small relative tolerance on top of f32 noise.
        assert!((a - b).abs() <= 2e-4 * a.abs().max(1e-6), "{a} vs {b}");
        assert!(g.iter().map(|v| v.abs()).sum::<f32>() > 1.0);
    }

    #[test]
    fn serial_vs_distributed_equivalence() {
        let spec = small_spec();
        let op = operator(&spec, 4);
        let s2 = spec.clone();
        let opts = ApplyOptions::default().with_nt(4).with_dt(stable_dt(&spec));
        let init = move |ws: &mut Workspace| {
            init_workspace(&s2, ws);
            seed_pressure_source(&s2, ws, 1.0);
        };
        let serial = op
            .run(&opts, &init, |ws| (ws.gather("txx"), ws.gather("vx")))
            .results
            .remove(0);
        for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
            let out = op
                .run(&opts.clone().with_mode(mode).with_ranks(8), &init, |ws| {
                    (ws.gather("txx"), ws.gather("vx"))
                })
                .results;
            for (a, b) in out[0].0.iter().zip(&serial.0) {
                assert!(
                    (a - b).abs() <= 2e-5 * b.abs().max(1.0),
                    "{mode:?} txx: {a} vs {b}"
                );
            }
            for (a, b) in out[0].1.iter().zip(&serial.1) {
                assert!(
                    (a - b).abs() <= 2e-5 * b.abs().max(1.0),
                    "{mode:?} vx: {a} vs {b}"
                );
            }
        }
    }
}
