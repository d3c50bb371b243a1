//! Sparse, off-the-grid points (paper §III c, Fig. 3): seismic sources
//! and receivers that do not align with the computational grid.
//!
//! Each point has physical coordinates; its multilinear interpolation
//! support spans up to `2^nd` grid nodes. A point is *replicated* onto
//! every rank whose owned sub-domain intersects that support — points at
//! shared boundaries belong to all involved ranks (Fig. 3: point C is
//! shared by four ranks, A by one). Injection writes each grid node on
//! exactly its owning rank, so replicated execution never double-writes;
//! interpolation sums per-rank partial contributions and combines them on
//! the point's primary owner.
//!
//! [`SparsePoints`] holds the geometry; [`SparsePlan`] precomputes it
//! once per rank and array layout, so the per-step work is a loop over
//! offsets and the cross-rank combine happens once per run.

use std::ops::Range;

use mpix_comm::{CartComm, Comm, Tag};

use crate::array::DistArray;
use crate::decomp::Decomposition;

/// A set of sparse points with physical coordinates.
#[derive(Clone, Debug)]
pub struct SparsePoints {
    /// Physical coordinates, one `Vec<f64>` (length = ndim) per point.
    pub coords: Vec<Vec<f64>>,
    /// Grid spacing per dimension (physical units per grid step).
    pub spacing: Vec<f64>,
}

/// The grid-node support of one point: base node index and interpolation
/// weights for the surrounding `2^nd` nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Support {
    /// Lowest-corner global grid index of the interpolation cell.
    pub base: Vec<usize>,
    /// Fractional position inside the cell, per dimension, in `[0, 1)`.
    pub frac: Vec<f64>,
}

impl SparsePoints {
    pub fn new(coords: Vec<Vec<f64>>, spacing: Vec<f64>) -> SparsePoints {
        for c in &coords {
            assert_eq!(c.len(), spacing.len(), "coordinate dimensionality mismatch");
        }
        SparsePoints { coords, spacing }
    }

    pub fn len(&self) -> usize {
        self.coords.len()
    }
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
    pub fn ndim(&self) -> usize {
        self.spacing.len()
    }

    /// Interpolation support of point `p`, clamped into the global grid.
    pub fn support(&self, p: usize, global_shape: &[usize]) -> Support {
        let nd = self.ndim();
        let mut base = Vec::with_capacity(nd);
        let mut frac = Vec::with_capacity(nd);
        for d in 0..nd {
            let x = self.coords[p][d] / self.spacing[d];
            let mut b = x.floor() as i64;
            let max_base = global_shape[d] as i64 - 2;
            b = b.clamp(0, max_base.max(0));
            base.push(b as usize);
            frac.push((x - b as f64).clamp(0.0, 1.0));
        }
        Support { base, frac }
    }

    /// The ranks (as Cartesian coordinate boxes) whose ownership
    /// intersects point `p`'s support — the replication set of Fig. 3.
    pub fn owner_coords(&self, p: usize, decomp: &Decomposition) -> Vec<Vec<usize>> {
        let sup = self.support(p, decomp.global_shape());
        let nd = self.ndim();
        // Per-dim process-column ranges covering [base, base+1].
        let col_ranges: Vec<std::ops::Range<usize>> = (0..nd)
            .map(|d| {
                let lo = sup.base[d];
                let hi = (sup.base[d] + 2).min(decomp.global_shape()[d]);
                decomp.owners_of_range(d, &(lo..hi))
            })
            .collect();
        let mut out = Vec::new();
        let mut idx: Vec<usize> = col_ranges.iter().map(|r| r.start).collect();
        loop {
            out.push(idx.clone());
            let mut d = nd;
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < col_ranges[d].end {
                    break;
                }
                idx[d] = col_ranges[d].start;
            }
        }
    }

    /// Multilinear corner weights of point `p`: `(corner offsets, weight)`
    /// for each of the `2^nd` surrounding nodes.
    pub fn corner_weights(&self, p: usize, global_shape: &[usize]) -> Vec<(Vec<usize>, f64)> {
        let sup = self.support(p, global_shape);
        let nd = self.ndim();
        let mut out = Vec::with_capacity(1 << nd);
        for corner in 0..(1usize << nd) {
            let mut idx = Vec::with_capacity(nd);
            let mut w = 1.0f64;
            for d in 0..nd {
                let hi = (corner >> d) & 1 == 1;
                let node = sup.base[d] + usize::from(hi);
                if node >= global_shape[d] {
                    w = 0.0;
                }
                idx.push(node.min(global_shape[d] - 1));
                w *= if hi { sup.frac[d] } else { 1.0 - sup.frac[d] };
            }
            if w != 0.0 {
                out.push((idx, w));
            }
        }
        out
    }
}

/// How a held point's receiver partial reaches its sample.
#[derive(Clone, Copy, Debug)]
enum Role {
    /// The only owner: its partial is the sample.
    Sole,
    /// First of several owners: keeps its `f64` partial in accumulator
    /// slot `slot` and folds the secondaries' partials into it.
    Primary { slot: usize },
    /// A later owner: buffers its `f32` partial in slot `slot` of the
    /// message to the primary behind send link `link`.
    Secondary { link: usize, slot: usize },
}

/// One point this rank holds.
#[derive(Clone, Debug)]
struct Held {
    point: usize,
    /// This point's owned corners, as a range of `offsets`/`weights`.
    corners: Range<usize>,
    role: Role,
}

/// The once-per-run message to one primary peer: `width` partials per
/// step, in point order.
#[derive(Clone, Debug)]
struct SendLink {
    rank: usize,
    width: usize,
    buf: Vec<f32>,
}

/// The once-per-run message from one secondary peer: per step, the
/// accumulator slots its partials fold into, in point order.
#[derive(Clone, Debug)]
struct RecvLink {
    rank: usize,
    slots: Vec<usize>,
}

/// Sparse points precomputed for one rank of one decomposition, over one
/// padded array layout (every time buffer of a field shares it) — what
/// [`crate::HaloPlan`] is to halos. Holds, for each point this rank
/// owns a share of, the padded-linear offsets and weights of its owned
/// corners and its role in the receiver combine (sole owner, primary or
/// secondary), plus one link per peer rank it combines with.
///
/// Injection and sampling then cost one loop over offsets per step.
/// Receiver partials of shared points cross ranks once per run, not once
/// per step: each secondary buffers its `f32` partials and sends one
/// message per primary peer at the end of the run, holding `nt × k`
/// values; the primary folds them in owner order, which is ascending
/// rank order because ranks are row-major in their coordinates.
#[derive(Clone, Debug)]
pub struct SparsePlan {
    npoints: usize,
    /// Length of the padded layout the offsets index.
    layout_len: usize,
    held: Vec<Held>,
    offsets: Vec<usize>,
    weights: Vec<f64>,
    /// One link per primary peer.
    sends: Vec<SendLink>,
    /// Secondary peers, ascending rank (owner order).
    recvs: Vec<RecvLink>,
    /// Steps of the current run.
    nt: usize,
    /// Primary partials of the current run, `nt × nprimary`, step-major.
    acc: Vec<f64>,
    nprimary: usize,
}

impl SparsePlan {
    /// Precompute `points` for the rank that owns `layout`.
    pub fn build(points: &SparsePoints, layout: &DistArray) -> SparsePlan {
        let decomp = layout.decomp();
        let dims = decomp.dims();
        let me = layout.coords();
        let mut plan = SparsePlan {
            npoints: points.len(),
            layout_len: layout.raw().len(),
            held: Vec::new(),
            offsets: Vec::new(),
            weights: Vec::new(),
            sends: Vec::new(),
            recvs: Vec::new(),
            nt: 0,
            acc: Vec::new(),
            nprimary: 0,
        };
        for p in 0..points.len() {
            let owners = points.owner_coords(p, decomp);
            if !owners.iter().any(|c| c == me) {
                continue;
            }
            let c0 = plan.offsets.len();
            for (node, w) in points.corner_weights(p, decomp.global_shape()) {
                if let Some(off) = layout.global_offset(&node) {
                    plan.offsets.push(off);
                    plan.weights.push(w);
                }
            }
            // Owner order is ascending coordinates, hence ascending rank.
            let ranks: Vec<usize> = owners.iter().map(|c| CartComm::rank_of(dims, c)).collect();
            let role = if owners.len() == 1 {
                Role::Sole
            } else if owners[0] == me {
                let slot = plan.nprimary;
                plan.nprimary += 1;
                for &r in &ranks[1..] {
                    match plan.recvs.iter_mut().find(|l| l.rank == r) {
                        Some(l) => l.slots.push(slot),
                        None => plan.recvs.push(RecvLink {
                            rank: r,
                            slots: vec![slot],
                        }),
                    }
                }
                Role::Primary { slot }
            } else {
                let link = match plan.sends.iter().position(|l| l.rank == ranks[0]) {
                    Some(i) => i,
                    None => {
                        plan.sends.push(SendLink {
                            rank: ranks[0],
                            width: 0,
                            buf: Vec::new(),
                        });
                        plan.sends.len() - 1
                    }
                };
                let slot = plan.sends[link].width;
                plan.sends[link].width += 1;
                Role::Secondary { link, slot }
            };
            plan.held.push(Held {
                point: p,
                corners: c0..plan.offsets.len(),
                role,
            });
        }
        plan.recvs.sort_by_key(|l| l.rank);
        plan
    }

    /// Number of points (held or not).
    pub fn len(&self) -> usize {
        self.npoints
    }
    pub fn is_empty(&self) -> bool {
        self.npoints == 0
    }

    /// Add `value(p) * weight` into every owned corner of every held
    /// point `p`, in point order. Each node is written only by its
    /// owner, so running this on every rank injects each node once.
    pub fn inject(&self, raw: &mut [f32], mut value: impl FnMut(usize) -> f64) {
        debug_assert_eq!(
            raw.len(),
            self.layout_len,
            "array layout differs from the plan's"
        );
        for h in &self.held {
            let v = value(h.point);
            for c in h.corners.clone() {
                raw[self.offsets[c]] += (v * self.weights[c]) as f32;
            }
        }
    }

    /// Size the per-run partial buffers for a run of `nt` steps.
    pub fn begin_run(&mut self, nt: usize) {
        self.nt = nt;
        self.acc.clear();
        self.acc.resize(nt * self.nprimary, 0.0);
        for l in &mut self.sends {
            l.buf.clear();
            l.buf.resize(nt * l.width, 0.0);
        }
    }

    /// Sample step `k` of the run from `raw`: sole owners write their
    /// sample into `row` at once; shared points keep their partial until
    /// [`combine`](Self::combine).
    pub fn sample(&mut self, raw: &[f32], k: usize, row: &mut [f32]) {
        debug_assert_eq!(
            raw.len(),
            self.layout_len,
            "array layout differs from the plan's"
        );
        debug_assert!(k < self.nt, "step {k} outside the run of {} steps", self.nt);
        for h in &self.held {
            let partial: f64 = h
                .corners
                .clone()
                .map(|c| raw[self.offsets[c]] as f64 * self.weights[c])
                .sum();
            match h.role {
                Role::Sole => row[h.point] = partial as f32,
                Role::Primary { slot } => self.acc[k * self.nprimary + slot] = partial,
                Role::Secondary { link, slot } => {
                    let l = &mut self.sends[link];
                    l.buf[k * l.width + slot] = partial as f32;
                }
            }
        }
    }

    /// End of run: every secondary sends its buffered partials to each
    /// primary peer in one message under `tag`; every primary folds them
    /// in owner order and writes its samples into `rows` (the run's
    /// `nt` rows). Collective over the ranks sharing points.
    pub fn combine(&mut self, comm: &Comm, tag: Tag, rows: &mut [Vec<f32>]) {
        assert_eq!(rows.len(), self.nt, "one sample row per step of the run");
        for l in &self.sends {
            comm.send_init(l.rank, tag).start(&l.buf);
        }
        let (nt, np) = (self.nt, self.nprimary);
        for l in &self.recvs {
            let acc = &mut self.acc;
            comm.recv_init(l.rank, tag).wait_with(|vals| {
                let w = l.slots.len();
                assert_eq!(
                    vals.len(),
                    nt * w,
                    "sparse partials from rank {}: run lengths differ",
                    l.rank
                );
                for k in 0..nt {
                    for (j, &slot) in l.slots.iter().enumerate() {
                        acc[k * np + slot] += vals[k * w + j] as f64;
                    }
                }
            });
        }
        for h in &self.held {
            if let Role::Primary { slot } = h.role {
                for (k, row) in rows.iter_mut().enumerate() {
                    row[h.point] = self.acc[k * np + slot] as f32;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn decomp() -> Decomposition {
        // 8x8 grid over a 2x2 process grid: ownership boundary at index 4.
        Decomposition::new(&[8, 8], &[2, 2])
    }

    fn points(coords: Vec<Vec<f64>>) -> SparsePoints {
        SparsePoints::new(coords, vec![1.0, 1.0])
    }

    #[test]
    fn interior_point_has_single_owner() {
        // Fig. 3 point A: interior of rank (0,0).
        let sp = points(vec![vec![1.4, 1.6]]);
        let owners = sp.owner_coords(0, &decomp());
        assert_eq!(owners, vec![vec![0, 0]]);
    }

    #[test]
    fn boundary_point_shared_by_two_ranks() {
        // Fig. 3 points B/D: support [3,4] crosses the column boundary.
        let sp = points(vec![vec![3.5, 1.0]]);
        let owners = sp.owner_coords(0, &decomp());
        assert_eq!(owners, vec![vec![0, 0], vec![1, 0]]);
    }

    #[test]
    fn corner_point_shared_by_four_ranks() {
        // Fig. 3 point C: both dims cross -> all four ranks.
        let sp = points(vec![vec![3.5, 3.5]]);
        let owners = sp.owner_coords(0, &decomp());
        assert_eq!(owners.len(), 4);
        // The first owner is the primary that combines partials.
        assert_eq!(owners[0], vec![0, 0]);
    }

    #[test]
    fn corner_weights_partition_unity() {
        let sp = points(vec![vec![2.3, 5.7]]);
        let w = sp.corner_weights(0, &[8, 8]);
        let total: f64 = w.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn on_node_point_has_unit_weight() {
        let sp = points(vec![vec![3.0, 5.0]]);
        let w = sp.corner_weights(0, &[8, 8]);
        // frac = 0: only the base corner has nonzero weight.
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].0, vec![3, 5]);
        assert!((w[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_outside_grid_clamps() {
        let sp = points(vec![vec![-0.5, 9.5]]);
        let sup = sp.support(0, &[8, 8]);
        assert_eq!(sup.base, vec![0, 6]);
    }

    #[test]
    fn inject_writes_each_node_once_across_replicas() {
        let dc = Arc::new(decomp());
        let sp = points(vec![vec![3.5, 3.5]]); // shared by 4 ranks
                                               // Every rank injects through its own plan; the shards must sum to
                                               // the injected value (weights partition unity).
        let mut total = 0.0f64;
        for ci in 0..2 {
            for cj in 0..2 {
                let mut arr = DistArray::new(Arc::clone(&dc), &[ci, cj], 2);
                SparsePlan::build(&sp, &arr).inject(arr.raw_mut(), |_| 10.0);
                total += arr.raw().iter().map(|&v| v as f64).sum::<f64>();
            }
        }
        assert!((total - 10.0).abs() < 1e-5, "total {total}");
    }

    /// Sample `nt` steps of `f(i, j) = i + 10 j + step` at the four-rank
    /// corner point and combine once.
    fn sample_corner_point(comm: Comm, nt: usize) -> (Vec<Vec<f32>>, mpix_comm::CommStats) {
        let dc = Arc::new(decomp());
        let cart = CartComm::new(comm, &[2, 2]);
        let coords = CartComm::coords_of(&[2, 2], cart.rank()).to_vec();
        let mut arr = DistArray::new(Arc::clone(&dc), &coords, 2);
        let mut plan = SparsePlan::build(&points(vec![vec![3.5, 3.5]]), &arr);
        let mut rows = Vec::new();
        let mut stats = cart.comm().stats();
        for run in 0..2 {
            cart.comm().barrier();
            let before = cart.comm().stats();
            plan.begin_run(nt);
            let mut run_rows = vec![vec![f32::NAN; 1]; nt];
            for (k, row) in run_rows.iter_mut().enumerate() {
                for i in 0..8 {
                    for j in 0..8 {
                        arr.set_global(&[i, j], (i + 10 * j + k) as f32);
                    }
                }
                plan.sample(arr.raw(), k, row);
            }
            plan.combine(cart.comm(), 100, &mut run_rows);
            cart.comm().barrier();
            let after = cart.comm().stats();
            if run == 1 {
                stats.bufs_allocated = after.bufs_allocated - before.bufs_allocated;
                stats.msgs_sent = after.msgs_sent - before.msgs_sent;
            }
            rows.extend(run_rows);
        }
        (rows, stats)
    }

    #[test]
    fn interpolate_across_ranks_matches_serial() {
        use mpix_comm::Universe;
        let got = Universe::run(4, |comm| sample_corner_point(comm, 3));
        // Exactly one rank (primary owner, rank 0) records the value.
        for (rank, (rows, _)) in got.iter().enumerate() {
            for (k, row) in rows.iter().enumerate() {
                let want = 3.5 + 35.0 + (k % 3) as f32;
                if rank == 0 {
                    assert!((row[0] - want).abs() < 1e-4, "{} vs {want}", row[0]);
                } else {
                    assert!(row[0].is_nan(), "secondary recorded a sample");
                }
            }
        }
    }

    #[test]
    fn warm_combine_sends_one_message_per_secondary_and_allocates_nothing() {
        use mpix_comm::Universe;
        let got = Universe::run(4, |comm| sample_corner_point(comm, 5));
        for (rank, (_, stats)) in got.iter().enumerate() {
            // Barriers send no messages; each secondary sends one per run.
            let want = u64::from(rank != 0);
            assert_eq!(stats.msgs_sent, want, "rank {rank}: messages per run");
            assert_eq!(stats.bufs_allocated, 0, "rank {rank}: warm run allocated");
        }
    }
}
