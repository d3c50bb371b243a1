//! Stress and ordering tests for the message substrate: many ranks, many
//! tags, interleaved nonblocking traffic, collectives under contention.

use mpix_comm::{CartComm, ReduceOp, Universe};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn message_storm_all_to_all_is_delivered_exactly_once() {
    // Every rank sends `per_pair` messages to every other rank with
    // payloads encoding (src, seq); receivers verify count and order.
    let n = 6;
    let per_pair = 25;
    Universe::run(n, |c| {
        let me = c.rank();
        for dst in 0..n {
            if dst == me {
                continue;
            }
            for seq in 0..per_pair {
                c.isend_f32(dst, 7, &[me as f32, seq as f32]);
            }
        }
        for src in 0..n {
            if src == me {
                continue;
            }
            for seq in 0..per_pair {
                let msg = c.recv_f32(src, 7);
                assert_eq!(msg[0] as usize, src);
                assert_eq!(msg[1] as usize, seq, "order violated from {src}");
            }
        }
    });
}

#[test]
fn interleaved_tags_do_not_cross_match() {
    Universe::run(4, |c| {
        let me = c.rank();
        let peer = me ^ 1; // pairs (0,1), (2,3)
                           // Send on 8 tags in a scrambled order.
        let order = [5u32, 2, 7, 0, 3, 6, 1, 4];
        for &t in &order {
            c.send_f32(peer, t, &[t as f32 * 10.0 + me as f32]);
        }
        // Receive in ascending tag order.
        for t in 0..8u32 {
            let v = c.recv_f32(peer, t);
            assert_eq!(v[0], t as f32 * 10.0 + peer as f32);
        }
    });
}

#[test]
fn pending_irecvs_complete_in_any_poll_order() {
    Universe::run(2, |c| {
        if c.rank() == 0 {
            for t in 0..16u32 {
                c.send_f32(1, t, &[t as f32]);
            }
        } else {
            let mut reqs: Vec<_> = (0..16u32).map(|t| c.irecv(0, t)).collect();
            // Poll in reverse until all complete.
            let mut done = [false; 16];
            let mut spins = 0u64;
            while done.iter().any(|d| !d) {
                for (i, r) in reqs.iter_mut().enumerate().rev() {
                    if !done[i] {
                        if let Some(data) = r.try_take() {
                            let v = mpix_comm::comm::bytes_to_f32(&data);
                            assert_eq!(v[0], i as f32);
                            done[i] = true;
                        }
                    }
                }
                spins += 1;
                assert!(spins < 10_000_000);
            }
        }
    });
}

#[test]
fn collectives_interleave_with_p2p() {
    let out = Universe::run(5, |c| {
        let me = c.rank();
        // P2P ring traffic around a reduction.
        let right = (me + 1) % 5;
        let left = (me + 4) % 5;
        c.isend_f32(right, 99, &[me as f32]);
        let sum = c.allreduce_f64(me as f64, ReduceOp::Sum);
        let got = c.recv_f32(left, 99);
        c.barrier();
        (sum, got[0] as usize)
    });
    for (r, (sum, from)) in out.iter().enumerate() {
        assert_eq!(*sum, 10.0);
        assert_eq!(*from, (r + 4) % 5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn prop_random_traffic_conserves_payload_sum(seed in 0u64..1000) {
        // Random sends between random pairs; total payload received must
        // equal total sent (per receiver bookkeeping via gather).
        let n = 4usize;
        let plan: Vec<(usize, usize, f32)> = {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..40)
                .map(|_| {
                    let s = rng.gen_range(0..n);
                    let mut d = rng.gen_range(0..n - 1);
                    if d >= s { d += 1; }
                    (s, d, rng.gen_range(-8i32..8) as f32)
                })
                .collect()
        };
        let plan_ref = &plan;
        let sums = Universe::run(n, move |c| {
            let me = c.rank();
            for (i, &(s, d, v)) in plan_ref.iter().enumerate() {
                if s == me {
                    c.isend_f32(d, i as u32, &[v]);
                }
            }
            let mut acc = 0.0f32;
            for (i, &(_, d, _)) in plan_ref.iter().enumerate() {
                if d == me {
                    let src = plan_ref[i].0;
                    acc += c.recv_f32(src, i as u32)[0];
                }
            }
            acc
        });
        let total_sent: f32 = plan.iter().map(|&(_, _, v)| v).sum();
        let total_recv: f32 = sums.iter().sum();
        prop_assert_eq!(total_sent, total_recv);
    }
}

#[test]
fn many_small_messages_keep_fifo_order_per_src_tag() {
    // The bucketed mailbox must preserve MPI's non-overtaking guarantee:
    // for a fixed (source, tag), messages arrive in send order — even
    // under a storm of tiny messages from many sources on many tags.
    let n = 5;
    let tags = 7u32;
    let per_stream = 200;
    Universe::run(n, |c| {
        let me = c.rank();
        for seq in 0..per_stream {
            for dst in 0..n {
                if dst == me {
                    continue;
                }
                for t in 0..tags {
                    c.isend_f32(dst, t, &[me as f32, t as f32, seq as f32]);
                }
            }
        }
        // Drain streams in a scrambled (src, tag) order; each stream must
        // still be internally FIFO.
        for t in (0..tags).rev() {
            for src in 0..n {
                if src == me {
                    continue;
                }
                for seq in 0..per_stream {
                    let v = c.recv_f32(src, t);
                    assert_eq!(v, vec![src as f32, t as f32, seq as f32]);
                }
            }
        }
    });
}

/// Tree collectives must match the old serial-through-rank-0 results.
/// Integer-valued payloads make the sum exact regardless of the
/// reduction tree's association order.
#[test]
fn tree_collectives_match_serial_reference() {
    for p in [2usize, 3, 5, 8] {
        let out = Universe::run(p, |c| {
            let me = c.rank();
            let v = (me * 3 + 1) as f64;
            let sum = c.allreduce_f64(v, ReduceOp::Sum);
            let min = c.allreduce_f64(v, ReduceOp::Min);
            let max = c.allreduce_f64(v, ReduceOp::Max);
            let bc = c.bcast_f32(p - 1, &[me as f32 + 0.5]);
            let data: Vec<f32> = (0..me + 1).map(|i| (me * 10 + i) as f32).collect();
            let gathered = c.gather_f32(0, &data);
            (sum, min, max, bc, gathered)
        });
        // Serial references.
        let want_sum: f64 = (0..p).map(|r| (r * 3 + 1) as f64).sum();
        for (r, (sum, min, max, bc, gathered)) in out.iter().enumerate() {
            assert_eq!(*sum, want_sum, "P={p} rank {r} sum");
            assert_eq!(*min, 1.0, "P={p} rank {r} min");
            assert_eq!(*max, ((p - 1) * 3 + 1) as f64, "P={p} rank {r} max");
            assert_eq!(bc, &vec![(p - 1) as f32 + 0.5], "P={p} rank {r} bcast");
            if r == 0 {
                let g = gathered.as_ref().expect("root gets gather result");
                assert_eq!(g.len(), p);
                for (src, buf) in g.iter().enumerate() {
                    let want: Vec<f32> = (0..src + 1).map(|i| (src * 10 + i) as f32).collect();
                    assert_eq!(buf, &want, "P={p} gather from {src}");
                }
            } else {
                assert!(gathered.is_none(), "P={p} rank {r} must not get gather");
            }
        }
    }
}

/// The tree collectives at rank counts well past the toy sizes above
/// (16 = power of two, 33 = odd, 64 = deep tree) must match values
/// computed locally from the same integer-valued payloads, bitwise:
/// integer sums are exact in every association order.
#[test]
fn tree_collectives_match_local_reference_at_scale() {
    for p in [16usize, 33, 64] {
        let root = p / 2; // non-zero root exercises the rotation
        let scalar = |r: usize| (r * 3 + 1) as f64;
        let vector = |r: usize| -> Vec<f32> { (0..200).map(|i| ((r + i) % 17) as f32).collect() };
        let out = Universe::run(p, |c| {
            let me = c.rank();
            (
                c.allreduce_f64(scalar(me), ReduceOp::Sum),
                c.allreduce_f64(scalar(me), ReduceOp::Min),
                c.allreduce_f32(&vector(me), ReduceOp::Sum),
                c.allreduce_f32(&vector(me), ReduceOp::Max),
                c.bcast_f32(root, &[me as f32; 3]),
            )
        });
        let want_sum: f64 = (0..p).map(scalar).sum();
        let want_vec_sum: Vec<f32> = (0..200)
            .map(|i| (0..p).map(|r| vector(r)[i]).sum())
            .collect();
        let want_vec_max: Vec<f32> = (0..200)
            .map(|i| (0..p).map(|r| vector(r)[i]).fold(f32::MIN, f32::max))
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (r, (sum, min, vec_sum, vec_max, bc)) in out.iter().enumerate() {
            assert_eq!(sum.to_bits(), want_sum.to_bits(), "P={p} rank {r} f64 sum");
            assert_eq!(min.to_bits(), 1f64.to_bits(), "P={p} rank {r} f64 min");
            assert_eq!(bits(vec_sum), bits(&want_vec_sum), "P={p} rank {r} f32 sum");
            assert_eq!(bits(vec_max), bits(&want_vec_max), "P={p} rank {r} f32 max");
            assert_eq!(bits(bc), bits(&[root as f32; 3]), "P={p} rank {r} bcast");
        }
    }
}

/// Many senders × many tags into one receiver draining with the
/// `MPI_Waitany`-style arrival loop: the sharded mailbox must preserve
/// FIFO per (src, tag) even though the streams land on different shards
/// and the drain order is arrival-driven.
#[test]
fn sharded_mailbox_preserves_fifo_under_waitany_drain() {
    let n = 9; // 8 senders, 1 receiver
    let tags = 11u32;
    let per_stream = 40;
    Universe::run(n, |c| {
        let me = c.rank();
        if me == 0 {
            // One persistent request per (src, tag) stream, like a halo
            // plan's receive side.
            let recvs: Vec<_> = (1..n)
                .flat_map(|src| (0..tags).map(move |t| (src, t)))
                .map(|(src, t)| (src, t, c.recv_init(src, t)))
                .collect();
            let mut next_seq = vec![0usize; n * tags as usize];
            let total = (n - 1) * tags as usize * per_stream;
            let mut completed = 0usize;
            while completed < total {
                let seq = recvs[0].2.arrival_seq();
                let mut progressed = false;
                for (src, t, r) in &recvs {
                    let stream = src * tags as usize + *t as usize;
                    // Drain everything pending on this stream.
                    while r
                        .try_with(|payload| {
                            assert_eq!(payload[0] as usize, *src, "src stamp");
                            assert_eq!(payload[1], *t as f32, "tag stamp");
                            assert_eq!(
                                payload[2] as usize, next_seq[stream],
                                "FIFO violated on (src={src}, tag={t})"
                            );
                        })
                        .is_some()
                    {
                        next_seq[stream] += 1;
                        completed += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    recvs[0].2.wait_any_arrival(seq);
                }
            }
        } else {
            let sends: Vec<_> = (0..tags).map(|t| c.send_init(0, t)).collect();
            for seq in 0..per_stream {
                for (t, s) in sends.iter().enumerate() {
                    s.start(&[me as f32, t as f32, seq as f32]);
                }
            }
        }
    });
}

#[test]
fn cart_comm_survives_repeated_exchanges() {
    // Long-running loop mixing face and diagonal neighbours.
    Universe::run(8, |c| {
        let cart = CartComm::new(c, &[2, 2, 2]);
        for step in 0..50u32 {
            for (_, peer) in cart.all_neighbors() {
                cart.comm().isend_f32(peer, step % 8, &[step as f32]);
            }
            for (_, peer) in cart.all_neighbors() {
                let v = cart.comm().recv_f32(peer, step % 8);
                assert_eq!(v[0], step as f32);
            }
        }
    });
}
