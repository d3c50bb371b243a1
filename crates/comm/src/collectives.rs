//! Binomial-tree collectives.
//!
//! The paper's generated code leans on `MPI_Allreduce` (adjoint source
//! terms, norms) and `MPI_Bcast`/`MPI_Gatherv` (model distribution and
//! result assembly). Every collective here runs the latency-optimal
//! binomial (recursive-doubling) tree: `ceil(log2 P)` rounds of one
//! message each, reduce towards the root and, for allreduce, broadcast
//! back down the same tree. There is no per-call algorithm choice: the
//! bandwidth-optimal ring and the shallower k-ary trees that MPI
//! libraries switch to at scale pay off only when ranks transfer in
//! parallel, and these ranks are threads sharing a few cores (DESIGN.md
//! §3.3.2 has the measurements).
//!
//! Children are combined in a fixed order, so results are deterministic
//! run to run; payloads whose reduction is exact (integer-valued floats)
//! match a serial reduction bitwise.

use crate::comm::{Comm, Tag, RESERVED_TAG_BASE};

/// Reduction operators for [`Comm::allreduce_f64`] /
/// [`Comm::allreduce_f32`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    fn apply_f32(self, a: f32, b: f32) -> f32 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

// Collective tag block (all ≥ RESERVED_TAG_BASE, disjoint from user
// tags). Up and down phases get distinct tags so back-to-back
// collectives on the same communicator cannot cross-match even when a
// fast rank races ahead a call.
const TAG_UP: Tag = RESERVED_TAG_BASE + 1;
const TAG_DOWN: Tag = RESERVED_TAG_BASE + 2;
const TAG_GATHER: Tag = RESERVED_TAG_BASE + 3;
const TAG_BCAST: Tag = RESERVED_TAG_BASE + 4;
const TAG_UP32: Tag = RESERVED_TAG_BASE + 5;
const TAG_DOWN32: Tag = RESERVED_TAG_BASE + 6;

impl Comm {
    /// All-reduce a single `f64` with the given associative op (O(log P)
    /// rounds: reduce to rank 0, broadcast back).
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        let size = self.size;
        let vr = self.rank; // tree rooted at rank 0
        let mut acc = value;
        // Reduce up the tree: each node absorbs its children (vr + mask
        // for every mask below its lowest set bit), then reports to its
        // parent (vr - lowest set bit).
        let mut mask = 1usize;
        while mask < size {
            if vr & mask != 0 {
                self.send(vr - mask, TAG_UP, &acc.to_le_bytes());
                break;
            }
            let child = vr + mask;
            if child < size {
                let v = f64::from_le_bytes(self.recv(child, TAG_UP).try_into().unwrap());
                acc = op.apply(acc, v);
            }
            mask <<= 1;
        }
        // Broadcast the result down the same tree.
        if vr != 0 {
            acc = f64::from_le_bytes(self.recv(vr - mask, TAG_DOWN).try_into().unwrap());
        } else {
            while mask < size {
                mask <<= 1;
            }
        }
        let mut m = mask >> 1;
        while m > 0 {
            if vr + m < size {
                self.send(vr + m, TAG_DOWN, &acc.to_le_bytes());
            }
            m >>= 1;
        }
        acc
    }

    /// Element-wise all-reduce of an `f32` vector (all ranks pass
    /// equal-length slices; all receive the reduced vector) over the
    /// same tree as [`allreduce_f64`](Self::allreduce_f64).
    pub fn allreduce_f32(&self, data: &[f32], op: ReduceOp) -> Vec<f32> {
        let size = self.size;
        let vr = self.rank;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        while mask < size {
            if vr & mask != 0 {
                self.send_f32(vr - mask, TAG_UP32, &acc);
                break;
            }
            let child = vr + mask;
            if child < size {
                let v = self.recv_f32(child, TAG_UP32);
                assert_eq!(acc.len(), v.len(), "allreduce payload lengths must match");
                for (a, b) in acc.iter_mut().zip(&v) {
                    *a = op.apply_f32(*a, *b);
                }
            }
            mask <<= 1;
        }
        if vr != 0 {
            acc = self.recv_f32(vr - mask, TAG_DOWN32);
        } else {
            while mask < size {
                mask <<= 1;
            }
        }
        let mut m = mask >> 1;
        while m > 0 {
            if vr + m < size {
                self.send_f32(vr + m, TAG_DOWN32, &acc);
            }
            m >>= 1;
        }
        acc
    }

    /// Broadcast a `f32` buffer from `root` to everyone; returns the
    /// data on all ranks (O(log P) rounds).
    pub fn bcast_f32(&self, root: usize, data: &[f32]) -> Vec<f32> {
        let size = self.size;
        let vr = (self.rank + size - root) % size;
        let buf: Vec<f32>;
        let mut mask = 1usize;
        if vr == 0 {
            buf = data.to_vec();
            while mask < size {
                mask <<= 1;
            }
        } else {
            // Receive from the parent (clear our lowest set bit).
            while vr & mask == 0 {
                mask <<= 1;
            }
            let parent = (vr - mask + root) % size;
            buf = self.recv_f32(parent, TAG_BCAST);
        }
        let mut m = mask >> 1;
        while m > 0 {
            if vr + m < size {
                self.send_f32((vr + m + root) % size, TAG_BCAST, &buf);
            }
            m >>= 1;
        }
        buf
    }

    /// Gather variable-length `f32` buffers on `root` over a binomial
    /// tree; other ranks get `None`. Subtree contributions travel as one
    /// merged message per tree edge (O(log P) rounds).
    pub fn gather_f32(&self, root: usize, data: &[f32]) -> Option<Vec<Vec<f32>>> {
        let size = self.size;
        let vr = (self.rank + size - root) % size;
        // (original rank, values) contributions accumulated from our
        // subtree; serialized as [count, (rank, len, values…)…].
        let mut parts: Vec<(usize, Vec<f32>)> = vec![(self.rank, data.to_vec())];
        let mut mask = 1usize;
        while mask < size {
            if vr & mask != 0 {
                let parent = (vr - mask + root) % size;
                let payload_len: usize = 1 + parts.iter().map(|(_, v)| 2 + v.len()).sum::<usize>();
                let mut buf = Vec::with_capacity(payload_len);
                buf.push(parts.len() as f32);
                for (r, vals) in &parts {
                    buf.push(*r as f32);
                    buf.push(vals.len() as f32);
                    buf.extend_from_slice(vals);
                }
                self.send_f32(parent, TAG_GATHER, &buf);
                break;
            }
            let child = vr + mask;
            if child < size {
                let buf = self.recv_f32((child + root) % size, TAG_GATHER);
                let n = buf[0] as usize;
                let mut i = 1;
                for _ in 0..n {
                    let r = buf[i] as usize;
                    let len = buf[i + 1] as usize;
                    i += 2;
                    parts.push((r, buf[i..i + len].to_vec()));
                    i += len;
                }
            }
            mask <<= 1;
        }
        if self.rank == root {
            let mut out = vec![Vec::new(); size];
            for (r, vals) in parts {
                out[r] = vals;
            }
            Some(out)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn allreduce_sum_min_max() {
        let out = Universe::run(5, |c| {
            let v = c.rank() as f64 + 1.0;
            (
                c.allreduce_f64(v, ReduceOp::Sum),
                c.allreduce_f64(v, ReduceOp::Min),
                c.allreduce_f64(v, ReduceOp::Max),
            )
        });
        for (s, mn, mx) in out {
            assert_eq!(s, 15.0);
            assert_eq!(mn, 1.0);
            assert_eq!(mx, 5.0);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Universe::run(4, |c| c.gather_f32(0, &[c.rank() as f32; 2]));
        assert!(out[1].is_none());
        let g = out[0].as_ref().unwrap();
        for (r, buf) in g.iter().enumerate() {
            assert_eq!(buf, &vec![r as f32; 2]);
        }
    }

    #[test]
    fn gather_supports_nonzero_root_and_uneven_lengths() {
        let out = Universe::run(5, |c| {
            let data: Vec<f32> = (0..c.rank()).map(|i| i as f32).collect();
            c.gather_f32(3, &data)
        });
        for (r, o) in out.iter().enumerate() {
            if r == 3 {
                let g = o.as_ref().unwrap();
                for (src, buf) in g.iter().enumerate() {
                    let want: Vec<f32> = (0..src).map(|i| i as f32).collect();
                    assert_eq!(buf, &want, "root view of rank {src}");
                }
            } else {
                assert!(o.is_none());
            }
        }
    }

    #[test]
    fn bcast_reaches_everyone() {
        let out = Universe::run(3, |c| c.bcast_f32(1, &[9.0, 8.0]));
        for v in out {
            assert_eq!(v, vec![9.0, 8.0]);
        }
    }
}
