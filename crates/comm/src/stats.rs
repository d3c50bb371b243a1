//! Per-rank communication statistics.
//!
//! The performance model (`mpix-perf`) consumes these counters to relate
//! observed message counts/volumes to the analytic cost model; tests use
//! them to assert the paper's Table I message counts (6 vs 26 in 3-D) and
//! the zero-allocation steady-state contract of the persistent halo plans
//! (via [`CommStats::bufs_allocated`]).

use std::collections::BTreeMap;

use mpix_trace::MsgRecord;

/// Internal mutable counters (one per rank, behind a lock).
#[derive(Default, Debug, Clone)]
pub(crate) struct StatsInner {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_received: u64,
    pub bytes_received: u64,
    /// Heap buffers the comm layer had to allocate (or grow) because the
    /// shared pool could not serve the request: envelope buffers on the
    /// send side, conversion/ownership buffers on the receive side. The
    /// persistent-plan halo path must keep this flat in steady state.
    pub bufs_allocated: u64,
    /// Payload bytes physically copied by the comm layer (the "wire"
    /// copy into the envelope on send, plus the unpack out of it on
    /// persistent receives).
    pub bytes_copied: u64,
    /// Messages sent per destination, indexed by rank (0 = no traffic).
    /// A flat vector so the hot send path pays an index bump, not a map
    /// lookup; the public snapshot converts to a sparse map.
    pub per_peer_msgs: Vec<u64>,
    /// Times a blocking receive (or waitany) actually parked on a
    /// condvar after exhausting its yield budget. Parks are the futex
    /// round-trips the waiter-gated wake optimization exists to avoid,
    /// so parks-per-exchange is the ranks-sweep bench's contention
    /// column.
    pub recv_parks: u64,
    /// Collective calls per `"{op}/{algo}"` key (e.g.
    /// `"allreduce_f32/ring"`), recording which algorithm the
    /// size/rank-count selection actually ran.
    pub collectives: BTreeMap<String, u64>,
    /// When set, every send/receive appends a [`MsgRecord`] to `msg_log`.
    /// Off by default so the counters stay cheap.
    pub log_messages: bool,
    pub msg_log: Vec<MsgRecord>,
}

impl StatsInner {
    /// Count one message sent to `dest`.
    #[inline]
    pub(crate) fn bump_peer(&mut self, dest: usize) {
        if self.per_peer_msgs.len() <= dest {
            self.per_peer_msgs.resize(dest + 1, 0);
        }
        self.per_peer_msgs[dest] += 1;
    }

    pub(crate) fn snapshot(&self, rank: usize) -> CommStats {
        CommStats {
            rank,
            msgs_sent: self.msgs_sent,
            bytes_sent: self.bytes_sent,
            msgs_received: self.msgs_received,
            bytes_received: self.bytes_received,
            bufs_allocated: self.bufs_allocated,
            bytes_copied: self.bytes_copied,
            per_peer_msgs: self
                .per_peer_msgs
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(d, &c)| (d, c))
                .collect(),
            recv_parks: self.recv_parks,
            collective_algos: self.collectives.clone(),
        }
    }
}

/// An immutable snapshot of one rank's traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommStats {
    pub rank: usize,
    /// Messages this rank sent.
    pub msgs_sent: u64,
    /// Payload bytes this rank sent.
    pub bytes_sent: u64,
    /// Messages this rank received.
    pub msgs_received: u64,
    /// Payload bytes this rank received.
    pub bytes_received: u64,
    /// Comm-layer heap buffer allocations attributed to this rank (see
    /// `StatsInner::bufs_allocated`). Zero growth across steady-state
    /// halo exchanges is the persistent-plan contract.
    pub bufs_allocated: u64,
    /// Payload bytes physically copied by the comm layer on behalf of
    /// this rank (wire copy on send + completion copy on typed receive).
    pub bytes_copied: u64,
    /// Messages sent per destination rank.
    pub per_peer_msgs: BTreeMap<usize, u64>,
    /// Times a blocking receive parked on a condvar (futex round-trips
    /// after the yield budget ran out) — the contention signal of the
    /// ranks-sweep benchmark.
    pub recv_parks: u64,
    /// Collective calls per `"{op}/{algo}"` key, exposing which
    /// algorithm (binomial / k-ary / ring) each collective selected so
    /// `mpix-perf` can attribute collective cost.
    pub collective_algos: BTreeMap<String, u64>,
}

impl CommStats {
    /// Number of distinct peers this rank sent to.
    pub fn peer_count(&self) -> usize {
        self.per_peer_msgs.len()
    }
}
