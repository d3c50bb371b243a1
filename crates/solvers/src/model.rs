//! Physical model setup: velocity models, the absorbing-boundary damping
//! layer, and stable time steps.
//!
//! The paper's problem setup (§IV-C) surrounds each domain with a
//! 40-point absorbing boundary condition (ABC) layer; we mirror that
//! with a configurable `nbl` and the standard quadratic damping profile.

use std::ops::Range;

use mpix_core::Workspace;
use mpix_dmp::regions::for_each_index;
use mpix_symbolic::Grid;

/// A model specification: interior shape, boundary layer, velocities.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Interior (physical) shape, per dimension.
    pub shape: Vec<usize>,
    /// Absorbing boundary layer width (points per side).
    pub nbl: usize,
    /// P-wave velocity (km/s) — constant background.
    pub vp: f64,
    /// S-wave velocity (km/s) for elastic models.
    pub vs: f64,
    /// Density (g/cm³).
    pub rho: f64,
    /// Grid spacing (km per point).
    pub spacing: f64,
}

impl ModelSpec {
    pub fn new(shape: &[usize]) -> ModelSpec {
        ModelSpec {
            shape: shape.to_vec(),
            nbl: 4,
            vp: 1.5,
            vs: 0.75,
            rho: 1.0,
            spacing: 0.01,
        }
    }

    pub fn with_nbl(mut self, nbl: usize) -> Self {
        self.nbl = nbl;
        self
    }
    pub fn with_vp(mut self, vp: f64) -> Self {
        self.vp = vp;
        self
    }

    /// The padded computational shape (interior + 2·nbl per side), as in
    /// the paper: "domains 80 points bigger per side".
    pub fn padded_shape(&self) -> Vec<usize> {
        self.shape.iter().map(|&s| s + 2 * self.nbl).collect()
    }

    /// The computational grid over the padded domain.
    pub fn grid(&self) -> Grid {
        let shape = self.padded_shape();
        let extent: Vec<f64> = shape
            .iter()
            .map(|&s| (s - 1) as f64 * self.spacing)
            .collect();
        Grid::new(&shape, &extent)
    }

    /// Squared slowness `m = 1/vp²`.
    pub fn m(&self) -> f64 {
        1.0 / (self.vp * self.vp)
    }

    /// A stable time step via the CFL condition for 2nd-order-in-time
    /// explicit schemes: `dt = cfl · h / (vp · √ndim)`.
    pub fn stable_dt(&self, cfl: f64) -> f64 {
        cfl * self.spacing / (self.vp * (self.shape.len() as f64).sqrt())
    }

    /// Damping value at padded global index `idx` (quadratic ramp inside
    /// the boundary layer, zero in the interior).
    pub fn damping_at(&self, idx: &[usize]) -> f64 {
        idx.iter()
            .enumerate()
            .fold(0.0, |d: f64, (dim, &i)| d.max(self.layer_damping(dim, i)))
    }

    /// The quadratic ramp along one dimension at padded index `i`: the
    /// damping a point gets from that dimension's layers alone.
    /// [`damping_at`](Self::damping_at) is the largest over dimensions.
    fn layer_damping(&self, dim: usize, i: usize) -> f64 {
        if self.nbl == 0 {
            return 0.0;
        }
        let n = self.shape[dim] + 2 * self.nbl;
        let lo = self.nbl as f64;
        let hi = (n - 1 - self.nbl) as f64;
        let x = i as f64;
        let dist = if x < lo {
            lo - x
        } else if x > hi {
            x - hi
        } else {
            0.0
        };
        let r = dist / self.nbl as f64;
        self.damp_coeff() * r * r
    }

    /// Peak damping coefficient: tuned so the layer absorbs without
    /// destabilizing the explicit update.
    fn damp_coeff(&self) -> f64 {
        // ~ log(1/R) * 3 vp / (2 L), the classic sponge estimate.
        let l = (self.nbl.max(1)) as f64 * self.spacing;
        3.0 * self.vp * (1000.0f64).ln() / (2.0 * l)
    }

    /// Fill a named `Function` field with a constant over the padded
    /// domain.
    pub fn fill_constant(&self, ws: &mut Workspace, name: &str, value: f64) {
        let shape = self.padded_shape();
        let ranges: Vec<std::ops::Range<usize>> = shape.iter().map(|&s| 0..s).collect();
        ws.field_data_mut(name, 0)
            .fill_global_slice(&ranges, value as f32);
    }

    /// Fill the damping field from the ABC profile over this rank's
    /// owned region, one contiguous inner row at a time. Each
    /// dimension's quadratic ramp is tabulated once over the owned range
    /// and a point takes the largest of its entries, so every value is
    /// bitwise [`damping_at`](Self::damping_at) (`f64::max` is exact) at
    /// a fraction of the per-point work.
    pub fn fill_damping(&self, ws: &mut Workspace, name: &str) {
        let arr = ws.field_data_mut(name, 0);
        let nd = arr.padded_shape().len();
        let halo = arr.halo();
        let strides = arr.strides().to_vec();
        let owned: Vec<Range<usize>> = (0..nd)
            .map(|d| arr.decomp().owned_range(d, arr.coords()[d]))
            .collect();
        let ramps: Vec<Vec<f64>> = owned
            .iter()
            .enumerate()
            .map(|(d, r)| r.clone().map(|i| self.layer_damping(d, i)).collect())
            .collect();
        let data = arr.raw_mut();
        for_each_index(&owned[..nd - 1].to_vec(), |outer| {
            let mut row = halo * strides[nd - 1];
            let mut across: f64 = 0.0;
            for d in 0..nd - 1 {
                let k = outer[d] - owned[d].start;
                row += (k + halo) * strides[d];
                across = across.max(ramps[d][k]);
            }
            let row = &mut data[row..row + ramps[nd - 1].len()];
            for (v, &along) in row.iter_mut().zip(&ramps[nd - 1]) {
                *v = across.max(along) as f32;
            }
        });
    }

    /// Physical coordinates of the padded-domain centre (source
    /// placement).
    pub fn center_coords(&self) -> Vec<f64> {
        self.padded_shape()
            .iter()
            .map(|&s| (s - 1) as f64 * self.spacing / 2.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_shape_adds_layers_both_sides() {
        let m = ModelSpec::new(&[16, 16, 16]).with_nbl(4);
        assert_eq!(m.padded_shape(), vec![24, 24, 24]);
    }

    #[test]
    fn damping_zero_in_interior_positive_in_layer() {
        let m = ModelSpec::new(&[16, 16]).with_nbl(4);
        assert_eq!(m.damping_at(&[12, 12]), 0.0);
        assert!(m.damping_at(&[0, 12]) > 0.0);
        assert!(m.damping_at(&[0, 0]) >= m.damping_at(&[2, 12]));
        // Monotone toward the edge.
        assert!(m.damping_at(&[0, 12]) > m.damping_at(&[1, 12]));
    }

    #[test]
    fn stable_dt_scales_with_velocity() {
        let slow = ModelSpec::new(&[8, 8]).with_vp(1.0);
        let fast = ModelSpec::new(&[8, 8]).with_vp(4.0);
        assert!(slow.stable_dt(0.4) > fast.stable_dt(0.4));
    }

    /// `fill_damping` writes `damping_at` bit for bit: every shipped
    /// solver's `damp` field, gathered, on 1, 2 and 4 ranks, with and
    /// without a boundary layer.
    #[test]
    fn filled_damping_is_bitwise_the_point_profile() {
        use crate::{KernelKind, Propagator};
        for kind in KernelKind::all() {
            for nbl in [0usize, 4] {
                let spec = ModelSpec::new(&[7, 6, 5]).with_nbl(nbl);
                let prop = Propagator::build(kind, spec.clone(), 4);
                for ranks in [1usize, 2, 4] {
                    let opts = prop.apply_options(1).with_ranks(ranks);
                    let out = prop
                        .op
                        .run(&opts, |ws| prop.init(ws), |ws| ws.gather("damp"));
                    let got = &out.results[0];
                    let global: Vec<Range<usize>> =
                        spec.padded_shape().iter().map(|&n| 0..n).collect();
                    let mut k = 0;
                    for_each_index(&global, |idx| {
                        let want = spec.damping_at(idx) as f32;
                        assert_eq!(
                            got[k].to_bits(),
                            want.to_bits(),
                            "{kind:?} nbl {nbl} ranks {ranks} at {idx:?}"
                        );
                        k += 1;
                    });
                    assert_eq!(k, got.len());
                }
            }
        }
    }

    #[test]
    fn no_boundary_layer_means_no_damping() {
        let m = ModelSpec::new(&[8, 8]).with_nbl(0);
        assert_eq!(m.damping_at(&[0, 0]), 0.0);
        assert_eq!(m.padded_shape(), vec![8, 8]);
    }
}
