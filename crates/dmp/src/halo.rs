//! The three computation/communication patterns (paper §III h, Table I,
//! Fig. 5), run by one [`HaloExchanger`].
//!
//! | mode     | communication          | batches     | #msgs (3-D) |
//! |----------|------------------------|-------------|-------------|
//! | basic    | sync, no overlap       | multi-step  | 6           |
//! | diagonal | sync, no overlap       | single-step | 26          |
//! | full     | async, overlap         | single-step | 26          |
//!
//! *basic* exchanges faces one dimension at a time; including the halo of
//! previously-exchanged dimensions in each pack region propagates corner
//! data without explicit diagonal messages (the classic multi-step
//! trick). *diagonal* posts all `3^d - 1` exchanges in one step. *full*
//! posts the same single step but drains it later: the caller computes
//! the CORE region while messages fly, may poke the progress engine
//! (`MPI_Test` analogue), and finishes before computing the remainder
//! (Listing 8).
//!
//! So the modes differ in two things only: the geometry of the
//! [`HaloPlan`] and when its single step is drained. A [`HaloExchanger`]
//! holds the mode, the plan and the receives still in flight.
//! [`exchange`](HaloExchanger::exchange) posts each step and drains it at
//! once; [`begin`](HaloExchanger::begin),
//! [`progress`](HaloExchanger::progress) and
//! [`finish`](HaloExchanger::finish) split a single-step exchange around
//! computation. The plan — peers, tags, send/recv boxes and persistent
//! request pairs (`MPI_Send_init`/`MPI_Recv_init` analogue) — is computed
//! once per (field, mode, radius) and reused every timestep. Sends pack
//! straight into pooled wire buffers and receives unpack straight out of
//! the envelope, so every mode preallocates: steady-state exchanges
//! perform zero heap allocations, asserted by counter-based tests via
//! `CommStats::bufs_allocated`.

use std::sync::Arc;

use mpix_comm::{CartComm, PersistentRecv, PersistentSend, Tag};
use mpix_san::San;
use mpix_trace::{Section, Tracer};

use crate::array::DistArray;
use crate::regions::{box_len, BoxNd};

/// The sanitizer's coarse key for a halo box: `[(lo, hi); nd]`.
/// (`mpix-san` cannot depend on this crate's `BoxNd` without a cycle.)
fn san_box_key(b: &BoxNd) -> Vec<(usize, usize)> {
    b.iter().map(|r| (r.start, r.end)).collect()
}

/// Which exchange pattern to use; parsed from strings like the
/// `DEVITO_MPI` environment values in the paper's job scripts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum HaloMode {
    #[default]
    Basic,
    Diagonal,
    Full,
}

impl HaloMode {
    pub fn parse(s: &str) -> Option<HaloMode> {
        match s.to_ascii_lowercase().as_str() {
            "basic" | "1" => Some(HaloMode::Basic),
            "diag" | "diagonal" | "diag2" => Some(HaloMode::Diagonal),
            "full" | "overlap" => Some(HaloMode::Full),
            _ => None,
        }
    }

    /// Number of messages an interior rank sends per exchange in `nd`
    /// dimensions (Table I's #messages column).
    pub fn messages_per_exchange(self, nd: usize) -> usize {
        match self {
            HaloMode::Basic => 2 * nd,
            HaloMode::Diagonal | HaloMode::Full => 3usize.pow(nd as u32) - 1,
        }
    }

    /// Whether communication overlaps computation (Table I).
    pub fn overlaps_computation(self) -> bool {
        matches!(self, HaloMode::Full)
    }
}

// ---------------------------------------------------------------------------
// the plan
// ---------------------------------------------------------------------------

/// Encode a displacement as a dense code in `0..3^nd`.
fn code_of(disp: &[i32]) -> usize {
    disp.iter()
        .fold(0usize, |acc, &d| acc * 3 + (d + 1) as usize)
}

/// The owned-side box to *send* toward displacement `disp`.
fn diag_send_box(arr: &DistArray, disp: &[i32], radius: usize) -> BoxNd {
    let halo = arr.halo();
    disp.iter()
        .enumerate()
        .map(|(d, &s)| {
            let n = arr.local_shape()[d];
            match s {
                -1 => halo..halo + radius,
                1 => halo + n - radius..halo + n,
                _ => halo..halo + n,
            }
        })
        .collect()
}

/// The halo box to *receive* from the neighbour at displacement `disp`.
fn diag_recv_box(arr: &DistArray, disp: &[i32], radius: usize) -> BoxNd {
    let halo = arr.halo();
    disp.iter()
        .enumerate()
        .map(|(d, &s)| {
            let n = arr.local_shape()[d];
            match s {
                -1 => halo - radius..halo,
                1 => halo + n..halo + n + radius,
                _ => halo..halo + n,
            }
        })
        .collect()
}

/// One precomputed message pair of a plan: where to pack from, who to
/// talk to, and the persistent requests to do it with.
struct PlanEntry {
    send: PersistentSend,
    recv: PersistentRecv,
    send_box: BoxNd,
    recv_box: BoxNd,
    send_tag: Tag,
    recv_tag: Tag,
}

impl PlanEntry {
    fn new(
        cart: &CartComm,
        peer: usize,
        send_tag: Tag,
        recv_tag: Tag,
        send_box: BoxNd,
        recv_box: BoxNd,
    ) -> PlanEntry {
        PlanEntry {
            send: cart.comm().send_init(peer, send_tag),
            recv: cart.comm().recv_init(peer, recv_tag),
            send_box,
            recv_box,
            send_tag,
            recv_tag,
        }
    }
}

/// A persistent halo-exchange plan for one (field, mode, radius): every
/// per-call decision of the legacy path — neighbor lookup, tag
/// derivation, box computation, buffer allocation — hoisted to build
/// time. *basic* plans have one step per dimension (corner propagation);
/// *diagonal*/*full* plans have a single step with all `3^nd - 1`
/// neighbours. A [`HaloExchanger`] builds it on first exchange and
/// rebuilds it only if the array shape, radius, or tag base changes.
pub struct HaloPlan {
    mode: HaloMode,
    radius: usize,
    tag_base: Tag,
    halo: usize,
    local_shape: Vec<usize>,
    steps: Vec<Vec<PlanEntry>>,
    /// Happens-before sanitizer of the owning world, captured at build
    /// so exchange/unpack events carry the rank without re-threading the
    /// communicator through every call.
    san: Option<Arc<San>>,
    rank: usize,
}

impl HaloPlan {
    /// Precompute the full exchange plan for `mode` at `radius`.
    pub fn build(
        cart: &CartComm,
        arr: &DistArray,
        mode: HaloMode,
        radius: usize,
        tag_base: Tag,
    ) -> HaloPlan {
        let nd = arr.local_shape().len();
        let halo = arr.halo();
        assert!(radius <= halo, "radius {radius} exceeds halo {halo}");
        let mut steps: Vec<Vec<PlanEntry>> = Vec::new();
        match mode {
            HaloMode::Basic => {
                for d in 0..nd {
                    // Extent per dimension: already-exchanged dims include
                    // their halo (corner propagation); later dims owned-only.
                    let extent = |e: usize| -> std::ops::Range<usize> {
                        let n = arr.local_shape()[e];
                        if e < d {
                            halo - radius..halo + n + radius
                        } else {
                            halo..halo + n
                        }
                    };
                    let n_d = arr.local_shape()[d];
                    let mut entries = Vec::with_capacity(2);
                    for side in [-1i32, 1] {
                        let mut dvec = vec![0i32; nd];
                        dvec[d] = side;
                        let Some(peer) = cart.neighbor(&dvec) else {
                            continue;
                        };
                        // Tags encode the *receiver's* side so they match.
                        let recv_tag = tag_base + (d as Tag) * 2 + u32::from(side > 0);
                        let send_tag = tag_base + (d as Tag) * 2 + u32::from(side < 0);
                        let boxes = |own: bool| -> BoxNd {
                            (0..nd)
                                .map(|e| {
                                    if e != d {
                                        extent(e)
                                    } else if own {
                                        // Owned strip facing `side`.
                                        if side < 0 {
                                            halo..halo + radius
                                        } else {
                                            halo + n_d - radius..halo + n_d
                                        }
                                    } else {
                                        // Halo strip on `side`.
                                        if side < 0 {
                                            halo - radius..halo
                                        } else {
                                            halo + n_d..halo + n_d + radius
                                        }
                                    }
                                })
                                .collect()
                        };
                        entries.push(PlanEntry::new(
                            cart,
                            peer,
                            send_tag,
                            recv_tag,
                            boxes(true),
                            boxes(false),
                        ));
                    }
                    steps.push(entries);
                }
            }
            HaloMode::Diagonal | HaloMode::Full => {
                let mut entries = Vec::new();
                for (disp, peer) in cart.all_neighbors() {
                    // Tag with the *receiver's* incoming displacement
                    // (= -disp) on the send side.
                    let inv: Vec<i32> = disp.iter().map(|x| -x).collect();
                    entries.push(PlanEntry::new(
                        cart,
                        peer,
                        tag_base + code_of(&inv) as Tag,
                        tag_base + code_of(&disp) as Tag,
                        diag_send_box(arr, &disp, radius),
                        diag_recv_box(arr, &disp, radius),
                    ));
                }
                steps.push(entries);
            }
        }
        // Prime this rank's envelope pool with its share of wire
        // buffers, so even the first exchange's sends (and every one
        // after) find pooled storage. Two exchanges deep: buffers return
        // to the *sender's* pool only when the receiver pops them, and a
        // rank that races one exchange ahead of a slow peer can have up
        // to two exchanges of envelopes in flight at once.
        let total: usize = steps.iter().map(|s| s.len()).sum();
        let max_len = steps
            .iter()
            .flatten()
            .map(|e| box_len(&e.send_box))
            .max()
            .unwrap_or(0);
        if total > 0 {
            cart.comm().reserve_msg_buffers(2 * total, max_len);
        }
        HaloPlan {
            mode,
            radius,
            tag_base,
            halo,
            local_shape: arr.local_shape().to_vec(),
            steps,
            san: cart.comm().san().cloned(),
            rank: cart.rank(),
        }
    }

    /// Open a new sanitizer epoch for `arr`: an exchange (with at least
    /// one message) is beginning. Interior ranks of a larger topology
    /// always have messages; a 1-rank world has none and stays
    /// untracked — there is nothing an exchange could deliver.
    fn san_begin(&self, arr: &DistArray) {
        if let Some(s) = &self.san {
            if self.num_messages() > 0 {
                s.exchange_begin(self.rank, arr.shadow_id());
            }
        }
    }

    /// Whether this plan is still valid for `(arr, radius, tag_base)`.
    fn matches(&self, arr: &DistArray, radius: usize, tag_base: Tag) -> bool {
        self.radius == radius
            && self.tag_base == tag_base
            && self.halo == arr.halo()
            && self.local_shape == arr.local_shape()
    }

    /// The mode this plan was built for.
    pub fn mode(&self) -> HaloMode {
        self.mode
    }

    /// Number of sequential steps (nd for *basic*, 1 for *diag*/*full*).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total messages this rank sends per exchange.
    pub fn num_messages(&self) -> usize {
        self.steps.iter().map(|s| s.len()).sum()
    }

    /// The `(peer, send_tag, recv_tag, send_box, recv_box)` rows of one
    /// step — exposed so tests can check plan boxes/tags against an
    /// independently computed reference.
    pub fn step_view(&self, step: usize) -> Vec<(usize, Tag, Tag, BoxNd, BoxNd)> {
        self.steps[step]
            .iter()
            .map(|e| {
                (
                    e.send.dest(),
                    e.send_tag,
                    e.recv_tag,
                    e.send_box.clone(),
                    e.recv_box.clone(),
                )
            })
            .collect()
    }

    /// Pack and send every entry of `step` in plan order, and reset
    /// `in_flight` to all of the step's receives.
    fn post(&self, step: usize, arr: &DistArray, in_flight: &mut Vec<usize>, tracer: &mut Tracer) {
        for e in &self.steps[step] {
            let sp = tracer.begin(Section::HaloSend);
            e.send.start_with(box_len(&e.send_box), |buf| {
                let spp = tracer.begin(Section::HaloPack);
                arr.pack_box(&e.send_box, buf);
                tracer.end(spp);
            });
            tracer.end(sp);
        }
        in_flight.clear();
        in_flight.extend(0..self.steps[step].len());
    }

    /// Complete the `in_flight` receives of `step` that have arrived,
    /// unpacking each into `arr` and dropping it from the list. With
    /// `block`, repeat until the list is empty, parking only when a
    /// whole poll completed nothing (the `MPI_Waitany` pattern: drain in
    /// arrival order); without, poll once (the `MPI_Test` calls of the
    /// paper's progress thread).
    fn drain(
        &self,
        step: usize,
        in_flight: &mut Vec<usize>,
        arr: &mut DistArray,
        tracer: &mut Tracer,
        block: bool,
    ) {
        let san = self.san.as_deref();
        let rank = self.rank;
        let arr_id = arr.shadow_id();
        let entries = &self.steps[step];
        while let Some(&first) = in_flight.first() {
            let seq = entries[first].recv.arrival_seq();
            let before = in_flight.len();
            in_flight.retain(|&i| {
                let recv_box = &entries[i].recv_box;
                entries[i]
                    .recv
                    .try_with(|data| {
                        let spu = tracer.begin(Section::HaloUnpack);
                        debug_assert_eq!(data.len(), box_len(recv_box));
                        arr.unpack_box(recv_box, data);
                        if let Some(s) = san {
                            s.unpack(rank, arr_id, &san_box_key(recv_box));
                        }
                        tracer.end(spu);
                    })
                    .is_none()
            });
            if !block {
                break;
            }
            if in_flight.len() == before {
                let sp = tracer.begin(Section::HaloWait);
                entries[first].recv.wait_any_arrival(seq);
                tracer.end(sp);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// the exchanger
// ---------------------------------------------------------------------------

/// The plan cached in `slot`, (re)built if missing or stale for `(arr,
/// radius, tag_base)`, with the sanitizer epoch of the exchange about to
/// be posted opened.
fn open_plan<'a>(
    slot: &'a mut Option<HaloPlan>,
    mode: HaloMode,
    cart: &CartComm,
    arr: &DistArray,
    radius: usize,
    tag_base: Tag,
) -> &'a HaloPlan {
    slot.take_if(|p| !p.matches(arr, radius, tag_base));
    let plan = slot.get_or_insert_with(|| HaloPlan::build(cart, arr, mode, radius, tag_base));
    plan.san_begin(arr);
    plan
}

/// The halo exchanger of one field buffer, for every mode: the mode, its
/// lazily (re)built [`HaloPlan`] and the receives still in flight.
/// Every operation attributes pack/send/wait/unpack wall time to the
/// `tracer` it is given; callers that do not trace pass
/// `&mut Tracer::off()`.
pub struct HaloExchanger {
    mode: HaloMode,
    plan: Option<HaloPlan>,
    /// Plan-entry indices of the posted step whose receives have not
    /// completed. Reset by every post and never shrunk, so steady-state
    /// exchanges allocate nothing.
    in_flight: Vec<usize>,
}

impl HaloExchanger {
    pub fn new(mode: HaloMode) -> HaloExchanger {
        HaloExchanger {
            mode,
            plan: None,
            in_flight: Vec::new(),
        }
    }

    /// Number of receives posted by [`begin`](Self::begin) that have not
    /// completed yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Update the halo of `arr` with width `radius` from all neighbours:
    /// post each step of the plan, then drain it. `tag_base` namespaces
    /// messages when several fields exchange in the same step.
    pub fn exchange(
        &mut self,
        cart: &CartComm,
        arr: &mut DistArray,
        radius: usize,
        tag_base: Tag,
        tracer: &mut Tracer,
    ) {
        let plan = open_plan(&mut self.plan, self.mode, cart, arr, radius, tag_base);
        for step in 0..plan.num_steps() {
            plan.post(step, arr, &mut self.in_flight, tracer);
            plan.drain(step, &mut self.in_flight, arr, tracer, true);
        }
    }

    /// Post the single step and return at once, so the caller can
    /// compute CORE while messages are in flight (`halo_update()` in
    /// Listing 8). Receives still in flight from an earlier `begin` are
    /// forgotten. Panics on a *basic* exchanger, whose multi-step plan
    /// cannot be split around computation.
    pub fn begin(
        &mut self,
        cart: &CartComm,
        arr: &DistArray,
        radius: usize,
        tag_base: Tag,
        tracer: &mut Tracer,
    ) {
        assert!(
            self.mode != HaloMode::Basic,
            "HaloExchanger::begin: the basic pattern exchanges one dimension \
             per step and cannot overlap computation; use `exchange`, or the \
             diagonal or full pattern"
        );
        open_plan(&mut self.plan, self.mode, cart, arr, radius, tag_base).post(
            0,
            arr,
            &mut self.in_flight,
            tracer,
        );
    }

    /// Complete and unpack the receives that have arrived, without
    /// waiting (the sacrificed-thread `MPI_Test` calls of the paper).
    /// Returns the number still in flight.
    pub fn progress(&mut self, arr: &mut DistArray, tracer: &mut Tracer) -> usize {
        self.drain(arr, tracer, false);
        self.in_flight.len()
    }

    /// Wait for every receive still in flight and unpack it
    /// (`halo_wait()` in Listing 8). A no-op when nothing is in flight.
    /// In overlap mode the wait section shrinks as messages arrive
    /// during the CORE computation — exactly the effect the paper's
    /// *full* pattern exists to create.
    pub fn finish(&mut self, arr: &mut DistArray, tracer: &mut Tracer) {
        self.drain(arr, tracer, true);
    }

    fn drain(&mut self, arr: &mut DistArray, tracer: &mut Tracer, block: bool) {
        if let Some(plan) = &self.plan {
            plan.drain(0, &mut self.in_flight, arr, tracer, block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Decomposition;
    use crate::regions::{for_each_index, Region};
    use mpix_comm::Universe;
    use mpix_trace::MsgDir;
    use std::sync::Arc;

    /// Build a per-rank array whose owned points hold their global linear
    /// index, run one exchange, and check the FULL region against the
    /// global function (zeros beyond the physical boundary).
    fn check_mode(mode: HaloMode, global: &[usize], dims: &[usize], radius: usize) {
        let nranks: usize = dims.iter().product();
        let global = global.to_vec();
        let dims = dims.to_vec();
        Universe::run(nranks, |comm| {
            let cart = CartComm::new(comm, &dims);
            let dc = Arc::new(Decomposition::new(&global, &dims));
            let coords = cart.coords().to_vec();
            let mut arr = DistArray::new(Arc::clone(&dc), &coords, radius.max(2));
            let nd = global.len();
            // Owned points = global linear index + 1 (so 0 marks "outside").
            let starts: Vec<usize> = (0..nd)
                .map(|d| dc.owned_range(d, coords[d]).start)
                .collect();
            let local_box: Vec<std::ops::Range<usize>> =
                arr.local_shape().iter().map(|&n| 0..n).collect();
            let mut writes = Vec::new();
            for_each_index(&local_box, |idx| {
                let mut lin = 0usize;
                for d in 0..nd {
                    lin = lin * global[d] + starts[d] + idx[d];
                }
                writes.push((idx.to_vec(), (lin + 1) as f32));
            });
            for (idx, v) in writes {
                arr.set_local(&idx, v);
            }

            HaloExchanger::new(mode).exchange(&cart, &mut arr, radius, 0, &mut Tracer::off());

            // Validate FULL region.
            let halo = arr.halo();
            let full = arr.region(Region::Full, radius);
            let mut errors = Vec::new();
            for_each_index(&full, |pidx| {
                // Global index of this padded point.
                let mut g = Vec::with_capacity(nd);
                let mut inside = true;
                for d in 0..nd {
                    let gi = pidx[d] as i64 - halo as i64 + starts[d] as i64;
                    if gi < 0 || gi >= global[d] as i64 {
                        inside = false;
                    }
                    g.push(gi);
                }
                let want = if inside {
                    let mut lin = 0usize;
                    for d in 0..nd {
                        lin = lin * global[d] + g[d] as usize;
                    }
                    (lin + 1) as f32
                } else {
                    0.0
                };
                let got = arr.get_padded(pidx);
                if got != want {
                    errors.push(format!(
                        "coords {coords:?} p {pidx:?}: got {got} want {want}"
                    ));
                }
            });
            assert!(errors.is_empty(), "{mode:?}: {}", errors.join("; "));
        });
    }

    #[test]
    fn basic_2d_is_correct_including_corners() {
        check_mode(HaloMode::Basic, &[8, 8], &[2, 2], 2);
    }

    #[test]
    fn diagonal_2d_is_correct() {
        check_mode(HaloMode::Diagonal, &[8, 8], &[2, 2], 2);
    }

    #[test]
    fn full_2d_is_correct() {
        check_mode(HaloMode::Full, &[8, 8], &[2, 2], 2);
    }

    #[test]
    fn basic_3d_is_correct() {
        check_mode(HaloMode::Basic, &[6, 6, 6], &[2, 2, 2], 1);
    }

    #[test]
    fn diagonal_3d_is_correct() {
        check_mode(HaloMode::Diagonal, &[6, 6, 6], &[2, 2, 2], 1);
    }

    #[test]
    fn full_3d_is_correct() {
        check_mode(HaloMode::Full, &[6, 6, 6], &[2, 2, 2], 1);
    }

    #[test]
    fn uneven_decomposition_exchanges_correctly() {
        check_mode(HaloMode::Basic, &[11, 7], &[3, 2], 2);
        check_mode(HaloMode::Diagonal, &[11, 7], &[3, 2], 2);
        check_mode(HaloMode::Full, &[11, 7], &[3, 2], 2);
    }

    #[test]
    fn wide_radius_exchange() {
        // SDO 8 -> radius 4, the paper's standard setup.
        check_mode(HaloMode::Basic, &[16, 16], &[2, 2], 4);
        check_mode(HaloMode::Diagonal, &[16, 16], &[2, 2], 4);
    }

    #[test]
    fn repeated_exchanges_reuse_the_plan() {
        // Timestep-loop shape: the same exchanger runs many exchanges;
        // values must stay correct and the plan must not be rebuilt
        // (same geometry -> same plan object semantics, asserted via the
        // zero-allocation steady state in `steady_state_is_allocation_free`).
        Universe::run(4, |comm| {
            let cart = CartComm::new(comm, &[2, 2]);
            let dc = Arc::new(Decomposition::new(&[8, 8], &[2, 2]));
            let coords = cart.coords().to_vec();
            let mut arr = DistArray::new(dc, &coords, 2);
            let mut ex = HaloExchanger::new(HaloMode::Diagonal);
            for step in 0..10 {
                arr.fill_global_slice(&[0..8, 0..8], step as f32);
                ex.exchange(&cart, &mut arr, 2, 0, &mut Tracer::off());
                let halo = arr.halo();
                // Any interior halo point must carry this step's value.
                if coords == [0, 0] {
                    assert_eq!(arr.get_padded(&[halo + 4, halo]), step as f32);
                }
            }
        });
    }

    /// The Table I contract, now honest for all three modes: after the
    /// plan is built (first exchange), steady-state exchanges perform
    /// zero heap allocations in the comm layer.
    #[test]
    fn steady_state_is_allocation_free_in_all_modes() {
        for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
            Universe::run(8, move |comm| {
                let cart = CartComm::new(comm, &[2, 2, 2]);
                let dc = Arc::new(Decomposition::new(&[8, 8, 8], &[2, 2, 2]));
                let coords = cart.coords().to_vec();
                let mut arr = DistArray::new(dc, &coords, 2);
                arr.fill_global_slice(&[0..8, 0..8, 0..8], 1.0);
                let mut ex = HaloExchanger::new(mode);
                // Warm-up: builds the plan, primes the envelope pool.
                for _ in 0..3 {
                    ex.exchange(&cart, &mut arr, 2, 0, &mut Tracer::off());
                }
                cart.comm().barrier();
                cart.comm().reset_stats();
                for _ in 0..5 {
                    ex.exchange(&cart, &mut arr, 2, 0, &mut Tracer::off());
                }
                cart.comm().barrier();
                let stats = cart.comm().stats();
                assert_eq!(
                    stats.bufs_allocated, 0,
                    "{mode:?}: steady-state exchange allocated buffers"
                );
                assert!(stats.msgs_sent > 0, "{mode:?}: exchange sent nothing");
            });
        }
    }

    #[test]
    fn message_counts_match_table1() {
        // 3x3x3 ranks: the center rank is interior.
        let out = Universe::run(27, |comm| {
            let cart = CartComm::new(comm, &[3, 3, 3]);
            let dc = Arc::new(Decomposition::new(&[9, 9, 9], &[3, 3, 3]));
            let coords = cart.coords().to_vec();
            let mut arr = DistArray::new(dc, &coords, 2);
            cart.comm().reset_stats();
            HaloExchanger::new(HaloMode::Basic).exchange(&cart, &mut arr, 1, 0, &mut Tracer::off());
            let basic_msgs = cart.comm().stats().msgs_sent;
            cart.comm().barrier();
            cart.comm().reset_stats();
            HaloExchanger::new(HaloMode::Diagonal).exchange(
                &cart,
                &mut arr,
                1,
                0,
                &mut Tracer::off(),
            );
            let diag_msgs = cart.comm().stats().msgs_sent;
            (coords, basic_msgs, diag_msgs)
        });
        for (coords, basic, diag) in out {
            if coords == vec![1, 1, 1] {
                assert_eq!(basic, 6, "Table I: basic sends 6 messages in 3D");
                assert_eq!(diag, 26, "Table I: diagonal sends 26 messages in 3D");
            }
        }
    }

    #[test]
    fn full_overlap_progress_drains_messages() {
        Universe::run(4, |comm| {
            let cart = CartComm::new(comm, &[2, 2]);
            let dc = Arc::new(Decomposition::new(&[8, 8], &[2, 2]));
            let coords = cart.coords().to_vec();
            let mut arr = DistArray::new(dc, &coords, 2);
            arr.fill_global_slice(&[0..8, 0..8], 1.0);
            let mut ex = HaloExchanger::new(HaloMode::Full);
            let mut tracer = Tracer::off();
            ex.begin(&cart, &arr, 2, 0, &mut tracer);
            assert!(ex.in_flight() > 0);
            // Poll until drained (all sends are eager, so this
            // terminates). Yield between polls so peers get the core on
            // a loaded host; a real hang still fails at the world's
            // receive timeout.
            let deadline = std::time::Instant::now() + cart.comm().tuning().recv_timeout;
            while ex.progress(&mut arr, &mut tracer) > 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "progress never drained"
                );
                std::thread::yield_now();
            }
            ex.finish(&mut arr, &mut tracer);
            // Interior halo entries must now be 1.
            let halo = arr.halo();
            let (ci, cj) = (coords[0], coords[1]);
            if ci == 0 {
                // right halo along dim 0 came from rank (1, cj)
                assert_eq!(arr.get_padded(&[halo + 4, halo]), 1.0);
            }
            let _ = cj;
        });
    }

    /// Fill every owned point of `arr` with its rank-distinct value, so
    /// a halo point's value names the rank and position it came from.
    fn fill_distinct(arr: &mut DistArray, rank: usize) {
        let local_box: Vec<std::ops::Range<usize>> =
            arr.local_shape().iter().map(|&n| 0..n).collect();
        let mut writes = Vec::new();
        let mut k = 0usize;
        for_each_index(&local_box, |idx| {
            k += 1;
            writes.push((idx.to_vec(), (rank * 10_000 + k) as f32));
        });
        for (idx, v) in writes {
            arr.set_local(&idx, v);
        }
    }

    /// One rank's sent messages as `(dest, tag, bytes)`, in posting order.
    type SentLog = Vec<(usize, u32, usize)>;

    /// One exchange on 2×2×2 ranks, synchronous or split into
    /// `begin`→`finish`: every rank's sent-message log and padded array
    /// bits.
    fn exchange_log(mode: HaloMode, split: bool) -> Vec<(SentLog, Vec<u32>)> {
        Universe::run(8, move |comm| {
            let cart = CartComm::new(comm, &[2, 2, 2]);
            let dc = Arc::new(Decomposition::new(&[8, 8, 8], &[2, 2, 2]));
            let coords = cart.coords().to_vec();
            let mut arr = DistArray::new(dc, &coords, 2);
            fill_distinct(&mut arr, cart.rank());
            let mut ex = HaloExchanger::new(mode);
            let mut tracer = Tracer::off();
            cart.comm().set_msg_log(true);
            if split {
                ex.begin(&cart, &arr, 2, 64, &mut tracer);
                ex.finish(&mut arr, &mut tracer);
            } else {
                ex.exchange(&cart, &mut arr, 2, 64, &mut tracer);
            }
            cart.comm().set_msg_log(false);
            let sent = cart
                .comm()
                .take_msg_log()
                .into_iter()
                .filter(|m| m.dir == MsgDir::Sent)
                .map(|m| (m.peer, m.tag, m.bytes))
                .collect();
            (sent, arr.raw().iter().map(|v| v.to_bits()).collect())
        })
    }

    #[test]
    fn sync_and_split_exchanges_post_the_same_messages() {
        for mode in [HaloMode::Diagonal, HaloMode::Full] {
            let sync = exchange_log(mode, false);
            let split = exchange_log(mode, true);
            for (rank, (a, b)) in sync.iter().zip(&split).enumerate() {
                assert_eq!(a.0.len(), 7, "{mode:?} rank {rank}: 2x2x2 has 7 neighbours");
                assert_eq!(a.0, b.0, "{mode:?} rank {rank}: message logs differ");
                assert!(a.1 == b.1, "{mode:?} rank {rank}: arrays differ");
            }
        }
    }

    #[test]
    #[should_panic(expected = "basic pattern")]
    fn begin_on_basic_panics_naming_the_mode() {
        Universe::run(1, |comm| {
            let cart = CartComm::new(comm, &[1, 1]);
            let dc = Arc::new(Decomposition::new(&[4, 4], &[1, 1]));
            let arr = DistArray::new(dc, &[0, 0], 2);
            HaloExchanger::new(HaloMode::Basic).begin(&cart, &arr, 2, 0, &mut Tracer::off());
        });
    }

    #[test]
    fn finish_with_nothing_in_flight_is_a_noop() {
        Universe::run(4, |comm| {
            let cart = CartComm::new(comm, &[2, 2]);
            let dc = Arc::new(Decomposition::new(&[8, 8], &[2, 2]));
            let coords = cart.coords().to_vec();
            let mut arr = DistArray::new(dc, &coords, 2);
            fill_distinct(&mut arr, cart.rank());
            let before = arr.raw().to_vec();
            let mut ex = HaloExchanger::new(HaloMode::Full);
            let mut tracer = Tracer::off();
            // Never begun: no plan, nothing to wait for.
            ex.finish(&mut arr, &mut tracer);
            assert_eq!(ex.progress(&mut arr, &mut tracer), 0);
            assert!(arr.raw() == &before[..]);
            assert_eq!(cart.comm().stats().msgs_sent, 0);
            // Drained: a second finish neither blocks nor touches `arr`.
            ex.begin(&cart, &arr, 2, 0, &mut tracer);
            ex.finish(&mut arr, &mut tracer);
            let drained = arr.raw().to_vec();
            ex.finish(&mut arr, &mut tracer);
            assert_eq!(ex.in_flight(), 0);
            assert!(arr.raw() == &drained[..]);
        });
    }

    #[test]
    fn mode_parsing_matches_job_script_names() {
        assert_eq!(HaloMode::parse("diag2"), Some(HaloMode::Diagonal));
        assert_eq!(HaloMode::parse("basic"), Some(HaloMode::Basic));
        assert_eq!(HaloMode::parse("FULL"), Some(HaloMode::Full));
        assert_eq!(HaloMode::parse("nope"), None);
    }

    #[test]
    fn table1_characteristics() {
        assert_eq!(HaloMode::Basic.messages_per_exchange(3), 6);
        assert_eq!(HaloMode::Diagonal.messages_per_exchange(3), 26);
        assert_eq!(HaloMode::Full.messages_per_exchange(3), 26);
        assert_eq!(HaloMode::Basic.messages_per_exchange(2), 4);
        assert_eq!(HaloMode::Diagonal.messages_per_exchange(2), 8);
        assert!(HaloMode::Full.overlaps_computation());
        assert!(!HaloMode::Diagonal.overlaps_computation());
    }

    #[test]
    fn single_rank_exchange_is_noop() {
        Universe::run(1, |comm| {
            let cart = CartComm::new(comm, &[1, 1]);
            let dc = Arc::new(Decomposition::new(&[4, 4], &[1, 1]));
            let mut arr = DistArray::new(dc, &[0, 0], 2);
            arr.fill_global_slice(&[0..4, 0..4], 3.0);
            for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
                HaloExchanger::new(mode).exchange(&cart, &mut arr, 2, 0, &mut Tracer::off());
            }
            assert_eq!(cart.comm().stats().msgs_sent, 0);
        });
    }
}
