//! Visco-elastic propagator (paper §IV-B.4, Appendix A.4; Robertsson et
//! al. 1994, single relaxation mode).
//!
//! Extends the elastic velocity–stress system with six memory variables
//! `r_ij`, giving the largest working set of the four kernels (34 arrays
//! in this formulation vs. the paper's 36 — the paper also grids the two
//! relaxation-time ratios, which we fold into scalars) and 15 update
//! stencils per step. Staggering matches the elastic kernel.
//!
//! Update order per time step (three clusters):
//! 1. velocities from old stresses,
//! 2. memory variables from fresh velocities and old memory,
//! 3. stresses from fresh velocities and fresh memory variables.

use mpix_core::{Operator, Workspace};
use mpix_symbolic::context::{averaged_at, deriv_of};
use mpix_symbolic::{Context, Eq, Expr, FieldHandle, Grid, Stagger};

use crate::model::ModelSpec;

use Stagger::{Half, Node};

/// Relaxation parameters of Equation 4 / Table II.
#[derive(Clone, Copy, Debug)]
pub struct Relaxation {
    /// P-wave strain relaxation time ratio `τεp/τσ`.
    pub t_ep_ratio: f64,
    /// S-wave strain relaxation time ratio `τεs/τσ`.
    pub t_es_ratio: f64,
    /// Stress relaxation time `τσ`.
    pub t_s: f64,
}

impl Default for Relaxation {
    fn default() -> Self {
        Relaxation {
            t_ep_ratio: 1.14,
            t_es_ratio: 1.17,
            t_s: 0.6,
        }
    }
}

/// Build the viscoelastic operator at spatial order `so` (3-D only).
pub fn operator(spec: &ModelSpec, so: u32) -> Operator {
    let (ctx, grid, eqs) = equations(spec, so);
    Operator::build(ctx, grid, eqs).expect("viscoelastic operator builds")
}

/// The viscoelastic update equations at spatial order `so`, before
/// compilation: what [`operator`] builds.
pub fn equations(spec: &ModelSpec, so: u32) -> (Context, Grid, Vec<Eq>) {
    assert_eq!(spec.shape.len(), 3, "viscoelastic kernel is 3-D");
    let grid = spec.grid();
    let mut ctx = Context::new();
    let vx = ctx.add_staggered_time_function("vx", &grid, so, 1, &[Half, Node, Node]);
    let vy = ctx.add_staggered_time_function("vy", &grid, so, 1, &[Node, Half, Node]);
    let vz = ctx.add_staggered_time_function("vz", &grid, so, 1, &[Node, Node, Half]);
    let txx = ctx.add_time_function("txx", &grid, so, 1);
    let tyy = ctx.add_time_function("tyy", &grid, so, 1);
    let tzz = ctx.add_time_function("tzz", &grid, so, 1);
    let txy = ctx.add_staggered_time_function("txy", &grid, so, 1, &[Half, Half, Node]);
    let txz = ctx.add_staggered_time_function("txz", &grid, so, 1, &[Half, Node, Half]);
    let tyz = ctx.add_staggered_time_function("tyz", &grid, so, 1, &[Node, Half, Half]);
    let rxx = ctx.add_time_function("rxx", &grid, so, 1);
    let ryy = ctx.add_time_function("ryy", &grid, so, 1);
    let rzz = ctx.add_time_function("rzz", &grid, so, 1);
    let rxy = ctx.add_staggered_time_function("rxy", &grid, so, 1, &[Half, Half, Node]);
    let rxz = ctx.add_staggered_time_function("rxz", &grid, so, 1, &[Half, Node, Half]);
    let ryz = ctx.add_staggered_time_function("ryz", &grid, so, 1, &[Node, Half, Half]);
    let b = ctx.add_function("b", &grid, so);
    let pi = ctx.add_function("pi", &grid, so); // relaxation modulus π (≈ λ+2μ)
    let mu = ctx.add_function("mu", &grid, so); // relaxation modulus μ
    let damp = ctx.add_function("damp", &grid, so);

    // Relaxation ratios as runtime scalar symbols.
    let tep = Expr::sym("t_ep"); // τεp/τσ
    let tes = Expr::sym("t_es"); // τεs/τσ
    let its = Expr::sym("inv_t_s"); // 1/τσ

    let d_fwd = |f: &FieldHandle, dim: usize| deriv_of(f.forward(), dim, 1, so);
    let stag = |f: &FieldHandle| ctx.field(f.id()).stagger.clone();

    // Cluster 1: velocities (Eq. 4a) with sponge damping; node-centred
    // parameters averaged onto each staggered lattice.
    let eq_vx = Eq::new(
        vx.dt(),
        averaged_at(&b, &stag(&vx))
            * (deriv_of(txx.center(), 0, 1, so)
                + deriv_of(txy.center(), 1, 1, so)
                + deriv_of(txz.center(), 2, 1, so))
            - averaged_at(&damp, &stag(&vx)) * vx.center(),
    );
    let eq_vy = Eq::new(
        vy.dt(),
        averaged_at(&b, &stag(&vy))
            * (deriv_of(txy.center(), 0, 1, so)
                + deriv_of(tyy.center(), 1, 1, so)
                + deriv_of(tyz.center(), 2, 1, so))
            - averaged_at(&damp, &stag(&vy)) * vy.center(),
    );
    let eq_vz = Eq::new(
        vz.dt(),
        averaged_at(&b, &stag(&vz))
            * (deriv_of(txz.center(), 0, 1, so)
                + deriv_of(tyz.center(), 1, 1, so)
                + deriv_of(tzz.center(), 2, 1, so))
            - averaged_at(&damp, &stag(&vz)) * vz.center(),
    );

    let div_v = d_fwd(&vx, 0) + d_fwd(&vy, 1) + d_fwd(&vz, 2);

    // Cluster 2: memory variables (Eq. 4d/4e) from fresh velocities.
    // ṙ_ii = -(1/τσ)(r_ii + (π τεp/τσ - 2μ τεs/τσ) ∂k vk + 2μ τεs/τσ ∂i vi)
    let diag_r = |r: &FieldHandle, v: &FieldHandle, dim: usize| -> Eq {
        Eq::new(
            r.dt(),
            Expr::Const(-1.0)
                * its.clone()
                * (r.center()
                    + (pi.center() * tep.clone() - 2.0 * mu.center() * tes.clone())
                        * div_v.clone()
                    + 2.0 * mu.center() * tes.clone() * d_fwd(v, dim)),
        )
    };
    // ṙ_ij = -(1/τσ)(r_ij + μ τεs/τσ (∂i vj + ∂j vi))
    let shear_r = |r: &FieldHandle, va: &FieldHandle, da: usize, vb: &FieldHandle, db: usize| {
        Eq::new(
            r.dt(),
            Expr::Const(-1.0)
                * its.clone()
                * (r.center()
                    + averaged_at(&mu, &stag(r)) * tes.clone() * (d_fwd(va, da) + d_fwd(vb, db))),
        )
    };
    let eq_rxx = diag_r(&rxx, &vx, 0);
    let eq_ryy = diag_r(&ryy, &vy, 1);
    let eq_rzz = diag_r(&rzz, &vz, 2);
    let eq_rxy = shear_r(&rxy, &vx, 1, &vy, 0);
    let eq_rxz = shear_r(&rxz, &vx, 2, &vz, 0);
    let eq_ryz = shear_r(&ryz, &vy, 2, &vz, 1);

    // Cluster 3: stresses (Eq. 4b/4c) from fresh velocities and memory.
    // σ̇_ii = π τεp/τσ ∂k vk + 2μ τεs/τσ (∂i vi - ∂k vk) + r_ii(t+1)
    let diag_t = |t: &FieldHandle, v: &FieldHandle, dim: usize, r: &FieldHandle| -> Eq {
        Eq::new(
            t.dt(),
            pi.center() * tep.clone() * div_v.clone()
                + 2.0 * mu.center() * tes.clone() * (d_fwd(v, dim) - div_v.clone())
                + r.forward()
                - damp.center() * t.center(),
        )
    };
    let shear_t = |t: &FieldHandle,
                   va: &FieldHandle,
                   da: usize,
                   vb: &FieldHandle,
                   db: usize,
                   r: &FieldHandle| {
        Eq::new(
            t.dt(),
            averaged_at(&mu, &stag(t)) * tes.clone() * (d_fwd(va, da) + d_fwd(vb, db))
                + r.forward()
                - averaged_at(&damp, &stag(t)) * t.center(),
        )
    };
    let eq_txx = diag_t(&txx, &vx, 0, &rxx);
    let eq_tyy = diag_t(&tyy, &vy, 1, &ryy);
    let eq_tzz = diag_t(&tzz, &vz, 2, &rzz);
    let eq_txy = shear_t(&txy, &vx, 1, &vy, 0, &rxy);
    let eq_txz = shear_t(&txz, &vx, 2, &vz, 0, &rxz);
    let eq_tyz = shear_t(&tyz, &vy, 2, &vz, 1, &ryz);

    let pairs: Vec<(Eq, Expr)> = vec![
        (eq_vx, vx.forward()),
        (eq_vy, vy.forward()),
        (eq_vz, vz.forward()),
        (eq_rxx, rxx.forward()),
        (eq_ryy, ryy.forward()),
        (eq_rzz, rzz.forward()),
        (eq_rxy, rxy.forward()),
        (eq_rxz, rxz.forward()),
        (eq_ryz, ryz.forward()),
        (eq_txx, txx.forward()),
        (eq_tyy, tyy.forward()),
        (eq_tzz, tzz.forward()),
        (eq_txy, txy.forward()),
        (eq_txz, txz.forward()),
        (eq_tyz, tyz.forward()),
    ];
    let eqs: Vec<Eq> = pairs
        .into_iter()
        .map(|(eq, fwd)| eq.solve_for(&fwd, &ctx).expect("explicit update"))
        .collect();
    (ctx, grid, eqs)
}

/// Seed moduli, buoyancy, damping; relaxation ratios go in as scalars via
/// [`apply_scalars`].
pub fn init_workspace(spec: &ModelSpec, ws: &mut Workspace) {
    let rho = spec.rho;
    let mu = rho * spec.vs * spec.vs;
    let pi = rho * spec.vp * spec.vp;
    spec.fill_constant(ws, "b", 1.0 / rho);
    spec.fill_constant(ws, "pi", pi);
    spec.fill_constant(ws, "mu", mu);
    spec.fill_damping(ws, "damp");
}

/// The runtime scalars the operator expects.
pub fn apply_scalars(rel: &Relaxation) -> Vec<(String, f32)> {
    vec![
        ("t_ep".to_string(), rel.t_ep_ratio as f32),
        ("t_es".to_string(), rel.t_es_ratio as f32),
        ("inv_t_s".to_string(), (1.0 / rel.t_s) as f32),
    ]
}

/// Initial value ranges the precision certificate assumes.
pub fn fp_ranges(spec: &ModelSpec) -> Vec<(&'static str, f64, f64)> {
    let w = crate::fp_profile::WAVE_AMP;
    let a = crate::fp_profile::around;
    let rho = spec.rho;
    let mu = rho * spec.vs * spec.vs;
    let pi = rho * spec.vp * spec.vp;
    let (dlo, dhi) = crate::fp_profile::damp_range(spec);
    let mut out: Vec<(&'static str, f64, f64)> = [
        "vx", "vy", "vz", "txx", "tyy", "tzz", "txy", "txz", "tyz", "rxx", "ryy", "rzz", "rxy",
        "rxz", "ryz",
    ]
    .iter()
    .map(|&n| (n, -w, w))
    .collect();
    for (n, v) in [("b", 1.0 / rho), ("pi", pi), ("mu", mu)] {
        let (lo, hi) = a(v);
        out.push((n, lo, hi));
    }
    out.push(("damp", dlo, dhi));
    out
}

pub const MAIN_FIELD: &str = "txx";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::seed_pressure_source;
    use mpix_core::ApplyOptions;
    use mpix_dmp::HaloMode;

    fn small_spec() -> ModelSpec {
        ModelSpec::new(&[8, 8, 8]).with_nbl(2)
    }

    fn opts(spec: &ModelSpec, nt: i64) -> ApplyOptions {
        let dt = 0.3 * spec.spacing / (spec.vp * 3.0f64.sqrt());
        let rel = Relaxation::default();
        let mut o = ApplyOptions::default().with_nt(nt).with_dt(dt);
        for (k, v) in apply_scalars(&rel) {
            o = o.with_scalar(&k, v);
        }
        o
    }

    #[test]
    fn fifteen_stencils_two_clusters() {
        let op = operator(&small_spec(), 4);
        // Paper: "requiring a total of 15 stencils to update the fields".
        let stores: usize = op
            .clusters()
            .iter()
            .map(|c| {
                c.stmts
                    .iter()
                    .filter(|s| matches!(s, mpix_ir::cluster::Stmt::Store { .. }))
                    .count()
            })
            .sum();
        assert_eq!(stores, 15);
        // Velocities first; the r and τ updates fuse into one nest (τ
        // reads r[t+1] at the same point, which is scalarizable).
        assert_eq!(op.clusters().len(), 2, "v cluster + fused r/τ cluster");
        // Exchanges: 6 stresses before cluster 0, 3 fresh velocities
        // before cluster 1.
        assert_eq!(op.halo_plan().per_cluster[0].len(), 6);
        assert_eq!(op.halo_plan().per_cluster[1].len(), 3);
    }

    #[test]
    fn working_set_is_largest_of_all_kernels() {
        let spec = small_spec();
        let visco = operator(&spec, 4).op_counts().working_set();
        let elastic = crate::elastic::operator(&spec, 4).op_counts().working_set();
        let acoustic = crate::acoustic::operator(&spec, 4)
            .op_counts()
            .working_set();
        assert!(visco > elastic && elastic > acoustic);
        // 15 wavefields x 2 buffers + b, pi, mu, damp = 34 streams.
        assert_eq!(visco, 34);
    }

    /// Run the viscoelastic kernel with a caller-chosen `1/τσ`.
    fn run_with_its(spec: &ModelSpec, nt: i64, inv_t_s: f32) -> Vec<f32> {
        let op = operator(spec, 4);
        let rel = Relaxation::default();
        let s2 = spec.clone();
        let o = ApplyOptions::default()
            .with_nt(nt)
            .with_dt(0.3 * spec.spacing / (spec.vp * 3.0f64.sqrt()))
            .with_scalar("t_ep", rel.t_ep_ratio as f32)
            .with_scalar("t_es", rel.t_es_ratio as f32)
            .with_scalar("inv_t_s", inv_t_s);
        op.run(
            &o,
            move |ws| {
                init_workspace(&s2, ws);
                seed_pressure_source(&s2, ws, 1.0);
            },
            |ws| ws.gather("txx"),
        )
        .results
        .remove(0)
    }

    #[test]
    fn frozen_memory_variables_reduce_to_elastic() {
        // With 1/τσ = 0 the memory variables stay zero, and the system is
        // exactly elastic with effective moduli λ' = π·tεp − 2μ·tεs and
        // μ' = μ·tεs. Cross-check against the elastic kernel.
        let spec = small_spec();
        let rel = Relaxation::default();
        let visco = run_with_its(&spec, 5, 0.0);

        let eo = crate::elastic::operator(&spec, 4);
        let s3 = spec.clone();
        let o = ApplyOptions::default()
            .with_nt(5)
            .with_dt(0.3 * spec.spacing / (spec.vp * 3.0f64.sqrt()));
        let elastic = eo
            .run(
                &o,
                move |ws| {
                    let rho = s3.rho;
                    let mu_v = rho * s3.vs * s3.vs;
                    let pi_v = rho * s3.vp * s3.vp;
                    s3.fill_constant(ws, "b", 1.0 / rho);
                    s3.fill_constant(
                        ws,
                        "lam",
                        pi_v * rel.t_ep_ratio - 2.0 * mu_v * rel.t_es_ratio,
                    );
                    s3.fill_constant(ws, "mu", mu_v * rel.t_es_ratio);
                    s3.fill_damping(ws, "damp");
                    seed_pressure_source(&s3, ws, 1.0);
                },
                |ws| ws.gather("txx"),
            )
            .results
            .remove(0);
        for (a, b) in visco.iter().zip(&elastic) {
            assert!(
                (a - b).abs() <= 1e-4 * b.abs().max(1.0),
                "frozen visco != matched elastic: {a} vs {b}"
            );
        }
    }

    #[test]
    fn memory_variables_relax_the_stress() {
        // Same moduli, relaxation on vs off: the memory variables must
        // dissipate stress amplitude over time.
        let spec = small_spec();
        let nt = 30;
        let relaxed = run_with_its(&spec, nt, (1.0 / 0.6) as f32);
        let frozen = run_with_its(&spec, nt, 0.0);
        assert!(relaxed.iter().all(|v| v.is_finite()));
        let sum = |g: &Vec<f32>| g.iter().map(|v| v.abs() as f64).sum::<f64>();
        assert!(
            sum(&relaxed) < sum(&frozen),
            "viscoelastic must attenuate: {} !< {}",
            sum(&relaxed),
            sum(&frozen)
        );
    }

    #[test]
    fn serial_vs_distributed_equivalence() {
        let spec = small_spec();
        let op = operator(&spec, 4);
        let s2 = spec.clone();
        let o = opts(&spec, 3);
        let init = move |ws: &mut Workspace| {
            init_workspace(&s2, ws);
            seed_pressure_source(&s2, ws, 1.0);
        };
        let serial = op.run(&o, &init, |ws| ws.gather("txx")).results.remove(0);
        for mode in [HaloMode::Basic, HaloMode::Diagonal] {
            let out = op
                .run(&o.clone().with_mode(mode).with_ranks(8), &init, |ws| {
                    ws.gather("txx")
                })
                .results;
            for (a, b) in out[0].iter().zip(&serial) {
                assert!(
                    (a - b).abs() <= 2e-5 * b.abs().max(1.0),
                    "{mode:?}: {a} vs {b}"
                );
            }
        }
    }
}
