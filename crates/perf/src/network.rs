//! Alpha–beta communication cost model with per-mode message structure
//! (§III h / Table I).

use crate::machine::MachineSpec;
use crate::profile::KernelProfile;
use crate::scaling::Mode;

/// Breakdown of one rank's per-step communication cost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommBreakdown {
    /// Messages sent per step.
    pub messages: usize,
    /// Bytes sent per step.
    pub bytes: f64,
    /// Modeled wall-clock time of the exchange (s).
    pub time: f64,
}

/// Halo bytes crossing one face perpendicular to `d`, for one buffer.
fn face_bytes(local: &[usize], d: usize, radius: usize, extended: bool) -> f64 {
    let mut area = 1.0f64;
    for (e, &n) in local.iter().enumerate() {
        if e == d {
            continue;
        }
        // basic mode packs halo-extended slabs for already-exchanged dims.
        let span = if extended && e < d { n + 2 * radius } else { n };
        area *= span as f64;
    }
    area * radius as f64 * 4.0
}

/// Communication cost of one time step for a rank with `local` owned
/// points, given the exchange mode. Boundary ranks send fewer messages;
/// we model the interior rank (the critical path).
pub fn comm_time_per_step(
    profile: &KernelProfile,
    machine: &MachineSpec,
    units: usize,
    local: &[usize],
    mode: Mode,
) -> CommBreakdown {
    if units * machine.ranks_per_unit <= 1 {
        return CommBreakdown::default();
    }
    let nd = local.len();
    let alpha = machine.net_alpha;
    let oh = machine.net_msg_overhead;
    let r = profile.radius;
    let nb = profile.exchanged_buffers as f64;
    // Neighbours inside the same unit exchange through shared memory (or
    // NVLink); only the remainder crosses the network. With 8 ranks per
    // node in a 2x2x2 block, about half of a rank's faces stay local.
    let shmem_beta = machine.mem_bw / machine.ranks_per_unit as f64 / 2.0;
    let intra_frac = if units == 1 {
        1.0
    } else if machine.ranks_per_unit > 1 {
        0.5
    } else {
        0.0
    };
    let net_beta = machine.effective_beta(units);
    // Effective per-byte cost mixing local and network links.
    let per_byte = (1.0 - intra_frac) / net_beta + intra_frac / shmem_beta;
    // Runtime (C-land) buffer allocation for basic mode: malloc + OS
    // zeroing + pack + free every call is several memory passes over the
    // packed bytes (Table I's "buffer allocation" column;
    // diagonal/full preallocate in Python-land).
    let alloc_per_byte = 3.0 / machine.rank_bw();
    // Packing into and unpacking out of message buffers is one memory
    // pass over the halo bytes on each side (threaded, but still
    // traffic) — paid by every mode.
    let pack_per_byte = 2.0 / machine.rank_bw();
    // Per-destination handshake/rendezvous overhead. It grows with the
    // job size (connection state, matching, congestion on the dragonfly)
    // and is paid once per neighbour, not per buffer — concurrent
    // messages to one peer pipeline.
    let ranks = (units * machine.ranks_per_unit) as f64;
    let oh_dest = oh * (1.0 + ranks / 128.0).min(10.0);
    // Each cluster-level exchange position pays the latency/handshake
    // terms separately (e.g. elastic: stress exchange, then fresh
    // velocities between the two loop nests).
    let phases = profile.exchange_phases.max(1) as f64;

    match mode {
        Mode::Basic => {
            // nd sequential rounds; both directions of a round overlap on
            // a full-duplex link, so a round costs one latency plus the
            // slab transfer, but per-message overheads serialize at the
            // sender.
            // All buffers' messages for one dimension go out together
            // (one round, 2 destinations); rounds are sequential and each
            // pays a blocking-handshake latency (Sync, multi-step in
            // Table I), plus the C-land allocation passes.
            let mut time = 0.0;
            let mut bytes = 0.0;
            let mut messages = 0usize;
            for d in 0..nd {
                let fb = face_bytes(local, d, r, true) * nb;
                bytes += 2.0 * fb;
                messages += (2.0 * nb) as usize;
                time += phases * (2.0 * alpha + 2.0 * oh_dest)
                    + 2.0 * fb * (per_byte + alloc_per_byte + pack_per_byte);
            }
            CommBreakdown {
                messages,
                bytes,
                time,
            }
        }
        Mode::Diagonal | Mode::Full => {
            // Single-step: 3^d - 1 messages per buffer, all posted at
            // once. Faces carry almost all the bytes; edges/corners are
            // radius^2/radius^3-sized.
            let mut bytes = 0.0;
            for d in 0..nd {
                bytes += 2.0 * face_bytes(local, d, r, false);
            }
            // Edge strips (2-D: corners; 3-D: 12 edges + 8 corners).
            if nd == 3 {
                for d in 0..nd {
                    bytes += 4.0 * (local[d] as f64) * (r * r) as f64 * 4.0;
                }
                bytes += 8.0 * (r * r * r) as f64 * 4.0;
            } else if nd == 2 {
                bytes += 4.0 * (r * r) as f64 * 4.0;
            }
            let msgs_per_buf = 3usize.pow(nd as u32) - 1;
            let messages = (msgs_per_buf as f64 * nb) as usize;
            // All buffers' messages go out in one shot: one latency, one
            // handshake per *destination* (messages to a peer pipeline),
            // then the bandwidth term (buffers preallocated: no
            // allocation pass).
            let time = phases * (alpha + msgs_per_buf as f64 * oh_dest)
                + bytes * nb * (per_byte + pack_per_byte);
            CommBreakdown {
                messages,
                bytes: bytes * nb,
                time,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::archer2_node;

    fn prof() -> KernelProfile {
        KernelProfile::synthetic_memory_bound()
    }

    #[test]
    fn single_rank_costs_nothing() {
        let cb = comm_time_per_step(&prof(), &archer2_node(), 1, &[64, 64, 64], Mode::Basic);
        // 1 unit * 8 ranks > 1, so basic DOES cost; but one rank total:
        let mut m = archer2_node();
        m.ranks_per_unit = 1;
        let cb1 = comm_time_per_step(&prof(), &m, 1, &[64, 64, 64], Mode::Basic);
        assert_eq!(cb1, CommBreakdown::default());
        assert!(cb.time > 0.0);
    }

    #[test]
    fn message_counts_match_table1() {
        let m = archer2_node();
        let b = comm_time_per_step(&prof(), &m, 4, &[64, 64, 64], Mode::Basic);
        let d = comm_time_per_step(&prof(), &m, 4, &[64, 64, 64], Mode::Diagonal);
        assert_eq!(b.messages, 6);
        assert_eq!(d.messages, 26);
    }

    #[test]
    fn byte_volumes_nearly_equal_across_modes() {
        // basic's halo-extended slabs carry the same edge/corner data
        // diagonal routes as separate small messages: total volume is
        // nearly identical, the difference is batching and latency.
        let m = archer2_node();
        let local = [64usize, 64, 64];
        let b = comm_time_per_step(&prof(), &m, 4, &local, Mode::Basic);
        let d = comm_time_per_step(&prof(), &m, 4, &local, Mode::Diagonal);
        let ratio = d.bytes / b.bytes;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn basic_beats_diagonal_for_tiny_messages() {
        // At extreme strong scale messages are tiny; diagonal's 26
        // injection overheads dominate its single-latency advantage.
        let m = archer2_node();
        let local = [8usize, 8, 8];
        let b = comm_time_per_step(&prof(), &m, 128, &local, Mode::Basic);
        let d = comm_time_per_step(&prof(), &m, 128, &local, Mode::Diagonal);
        assert!(b.time < d.time, "{} !< {}", b.time, d.time);
    }

    #[test]
    fn diagonal_beats_basic_for_large_messages() {
        let m = archer2_node();
        let local = [512usize, 512, 512];
        let b = comm_time_per_step(&prof(), &m, 4, &local, Mode::Basic);
        let d = comm_time_per_step(&prof(), &m, 4, &local, Mode::Diagonal);
        assert!(d.time < b.time, "{} !< {}", d.time, b.time);
    }

    #[test]
    fn bytes_scale_with_radius() {
        let m = archer2_node();
        let mut p4 = prof();
        p4.radius = 2;
        let mut p16 = prof();
        p16.radius = 8;
        let a = comm_time_per_step(&p4, &m, 4, &[64, 64, 64], Mode::Diagonal);
        let b = comm_time_per_step(&p16, &m, 4, &[64, 64, 64], Mode::Diagonal);
        assert!(b.bytes > 3.0 * a.bytes);
    }
}
