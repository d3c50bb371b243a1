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

use crate::comm::{send_pooled_with, Comm, Tag, RESERVED_TAG_BASE};

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
    /// data on all ranks (O(log P) rounds). `root` returns `data` itself,
    /// so the only copies are the wire copies towards its children. Other
    /// ranks' `data` is ignored (pass an empty `Vec`).
    pub fn bcast_f32(&self, root: usize, data: Vec<f32>) -> Vec<f32> {
        let size = self.size;
        let vr = (self.rank + size - root) % size;
        let buf: Vec<f32>;
        let mut mask = 1usize;
        if vr == 0 {
            buf = data;
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

    /// Gather on `root` the `len` floats each other rank writes with
    /// `fill` straight into its outgoing wire buffer (the analogue of
    /// [`PersistentSend::start_with`](crate::PersistentSend::start_with)):
    /// `root` gets one `Vec` per rank, its own entry empty (`root` never
    /// calls `fill`; it already holds its part); other ranks get `None`.
    /// Subtree contributions travel as one merged message per edge of a
    /// binomial tree (O(log P) rounds). A message carries its parts'
    /// values back to back followed by a trailer `[(rank, len)…, count]`
    /// (bit-cast `u32`s), so the first part of each message arriving at
    /// `root` is that message's buffer truncated, not a copy: on two
    /// ranks the payload is copied once, into the wire.
    pub fn gather_f32(
        &self,
        root: usize,
        len: usize,
        fill: impl FnOnce(&mut Vec<f32>),
    ) -> Option<Vec<Vec<f32>>> {
        let size = self.size;
        let vr = (self.rank + size - root) % size;
        // Messages received from our subtree, each with its parts.
        let mut msgs: Vec<GatherMsg> = Vec::new();
        let mut mask = 1usize;
        while mask < size {
            if vr & mask != 0 {
                let parent = (vr - mask + root) % size;
                self.forward_gather(parent, len, fill, &msgs);
                return None;
            }
            let child = vr + mask;
            if child < size {
                let mut msg = self.recv_f32((child + root) % size, TAG_GATHER);
                let parts = split_trailer(&mut msg);
                msgs.push((msg, parts));
            }
            mask <<= 1;
        }
        let mut out = vec![Vec::new(); size];
        let mut copied = 0usize;
        for (mut msg, parts) in msgs {
            let mut at = parts[0].1;
            for &(r, n) in &parts[1..] {
                out[r] = msg[at..at + n].to_vec();
                copied += n;
                at += n;
            }
            msg.truncate(parts[0].1);
            out[parts[0].0] = msg;
        }
        if copied > 0 {
            self.world.stats[self.rank].lock().unwrap().bytes_copied += 4 * copied as u64;
        }
        Some(out)
    }

    /// Send our `len`-float part (written by `fill`) and every part our
    /// subtree sent us to `parent` as one message, packed straight into
    /// the wire buffer.
    fn forward_gather(
        &self,
        parent: usize,
        len: usize,
        fill: impl FnOnce(&mut Vec<f32>),
        msgs: &[GatherMsg],
    ) {
        let mut parts = vec![(self.rank, len)];
        parts.extend(msgs.iter().flat_map(|(_, p)| p.iter().copied()));
        let values: usize = parts.iter().map(|&(_, n)| n).sum();
        let total = values + 2 * parts.len() + 1;
        send_pooled_with(
            &self.world,
            self.rank,
            parent,
            TAG_GATHER,
            None,
            total,
            |buf| {
                fill(buf);
                assert_eq!(buf.len(), len, "gather fill wrote a different length");
                for (msg, p) in msgs {
                    let n: usize = p.iter().map(|&(_, n)| n).sum();
                    buf.extend_from_slice(&msg[..n]);
                }
                for &(r, n) in &parts {
                    buf.push(word(r));
                    buf.push(word(n));
                }
                buf.push(word(parts.len()));
            },
        );
    }
}

/// A received gather message: its parts' values back to back, and each
/// part's `(rank, len)`.
type GatherMsg = (Vec<f32>, Vec<(usize, usize)>);

/// A count carried in an `f32` message, bit-cast so every `u32` is exact.
fn word(n: usize) -> f32 {
    f32::from_bits(u32::try_from(n).expect("gather count exceeds u32"))
}

/// Strip a gather message's trailer: its `(rank, len)` parts, in the
/// order their values sit at the front of `msg`.
fn split_trailer(msg: &mut Vec<f32>) -> Vec<(usize, usize)> {
    let count = msg.pop().expect("empty gather message").to_bits() as usize;
    let at = msg.len() - 2 * count;
    let parts = msg[at..]
        .chunks(2)
        .map(|w| (w[0].to_bits() as usize, w[1].to_bits() as usize))
        .collect();
    msg.truncate(at);
    parts
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

    /// Packed gathers over every tree shape up to 7 ranks, each rank
    /// sending a different length (0 included), to every root: the root
    /// gets each rank's values, its own entry empty, and no other rank
    /// gets anything.
    #[test]
    fn packed_gather_over_every_tree_shape() {
        for p in 1..=7usize {
            for root in 0..p {
                let out = Universe::run(p, |c| {
                    let me = c.rank();
                    let vals: Vec<f32> = (0..me * 3).map(|i| (me * 100 + i) as f32).collect();
                    c.gather_f32(root, vals.len(), |buf| buf.extend_from_slice(&vals))
                });
                for (r, got) in out.into_iter().enumerate() {
                    if r != root {
                        assert!(got.is_none(), "p={p} root={root} rank {r}");
                        continue;
                    }
                    let got = got.expect("root gathers");
                    for (q, part) in got.iter().enumerate() {
                        let want: Vec<f32> = if q == root {
                            Vec::new()
                        } else {
                            (0..q * 3).map(|i| (q * 100 + i) as f32).collect()
                        };
                        assert_eq!(part, &want, "p={p} root={root} part {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Universe::run(4, |c| {
            let me = [c.rank() as f32; 2];
            c.gather_f32(0, 2, |buf| buf.extend_from_slice(&me))
        });
        assert!(out[1].is_none());
        let g = out[0].as_ref().unwrap();
        assert!(g[0].is_empty(), "the root's own part stays with it");
        for (r, buf) in g.iter().enumerate().skip(1) {
            assert_eq!(buf, &vec![r as f32; 2]);
        }
    }

    #[test]
    fn gather_supports_nonzero_root_and_uneven_lengths() {
        let out = Universe::run(5, |c| {
            let data: Vec<f32> = (0..c.rank()).map(|i| i as f32).collect();
            c.gather_f32(3, data.len(), |buf| buf.extend_from_slice(&data))
        });
        for (r, o) in out.iter().enumerate() {
            if r == 3 {
                let g = o.as_ref().unwrap();
                for (src, buf) in g.iter().enumerate() {
                    let n = if src == 3 { 0 } else { src };
                    let want: Vec<f32> = (0..n).map(|i| i as f32).collect();
                    assert_eq!(buf, &want, "root view of rank {src}");
                }
            } else {
                assert!(o.is_none());
            }
        }
    }

    #[test]
    fn bcast_reaches_everyone() {
        let out = Universe::run(3, |c| {
            c.bcast_f32(
                1,
                if c.rank() == 1 {
                    vec![9.0, 8.0]
                } else {
                    Vec::new()
                },
            )
        });
        for v in out {
            assert_eq!(v, vec![9.0, 8.0]);
        }
    }
}
