//! Pass 2: comm-schedule deadlock / tag-collision detection.
//!
//! Rather than re-deriving what the runtime *should* post, this pass
//! builds the **real** per-rank [`mpix_dmp::HaloPlan`]s on a P-rank
//! Cartesian topology (via [`mpix_comm::Universe`], which is fully
//! re-entrant) and then symbolically matches the collected schedules:
//!
//! * **step alignment** — every rank builds the same number of steps
//!   (the *basic* mode synchronizes per dimension: a rank waiting in a
//!   step its peer never enters is a deadlock);
//! * **send/recv matching** — within each step, every send `(src → dst,
//!   tag)` has exactly one posted receive `(dst ← src, tag)` of the same
//!   message length, and no receive goes unsatisfied (an orphan on
//!   either side blocks forever under synchronous semantics);
//! * **tag uniqueness** — per rank and step, send `(dst, tag)` and recv
//!   `(src, tag)` pairs are unique, so messages cannot cross-match;
//! * **geometry** — receive boxes stay inside the radius-`r` halo
//!   annulus, never touch the owned region, and no halo cell is received
//!   twice across the whole exchange;
//! * **coverage** — every globally-valid halo cell within radius `r` of
//!   the owned box is received by exactly one message (non-periodic
//!   boundaries: cells outside the global domain are exempt);
//! * **provenance** — each step only sends cells that are owned or were
//!   received in an *earlier* step (the proof obligation behind *basic*
//!   mode's corner propagation; sends and receives of the same step are
//!   concurrent, so same-step data cannot be forwarded).
//!
//! The matcher ([`match_schedule`]) is a pure function over collected
//! [`RankPlan`] rows, so the mutation corpus can corrupt a schedule
//! without spinning up ranks.
//!
//! A separate check ([`check_tag_windows`]) proves the executor's
//! per-buffer tag windows (`mpix_codegen::halo_tag_base`) are mutually
//! disjoint, wide enough for the mode's densest tag layout (`3^nd`
//! codes), and clear of the sparse tag window
//! (`mpix_codegen::sparse_tag`), which in turn ends below the
//! collectives' tags.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mpix_codegen::executor::SPARSE_TAG_BASE;
use mpix_codegen::halo_tag_base;
use mpix_comm::comm::RESERVED_TAG_BASE;
use mpix_comm::{CartComm, Tag, Universe};
use mpix_dmp::halo::HaloMode;
use mpix_dmp::regions::{box_len, for_each_index, BoxNd};
use mpix_dmp::{Decomposition, DistArray, HaloPlan};
use mpix_ir::halo::HaloPlan as IrHaloPlan;
use mpix_symbolic::{Context, FieldId};
use mpix_trace::Diagnostic;

use crate::buf_name;

const PASS: &str = "comm-schedule";

/// One message pair of a rank's schedule, as exposed by
/// `HaloPlan::step_view`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanRow {
    pub peer: usize,
    pub send_tag: Tag,
    pub recv_tag: Tag,
    pub send_box: BoxNd,
    pub recv_box: BoxNd,
}

/// The full schedule one rank builds for one `(mode, radius)` exchange.
#[derive(Clone, Debug)]
pub struct RankPlan {
    pub rank: usize,
    pub steps: Vec<Vec<PlanRow>>,
}

/// The topology/geometry a schedule was built for.
#[derive(Clone, Debug)]
pub struct ScheduleCtx {
    pub global: Vec<usize>,
    pub dims: Vec<usize>,
    pub halo: usize,
    pub radius: usize,
}

/// Distinct `(field, time offset, max radius)` exchange keys of a
/// compiler halo plan — hoisted and per-cluster alike. The runtime
/// exchanges one buffer at the max radius over dimensions, so that is
/// what the schedule checks use.
pub fn exchange_keys(plan: &IrHaloPlan) -> Vec<(FieldId, i32, usize)> {
    let mut keys: BTreeMap<(u32, i32), usize> = BTreeMap::new();
    for x in plan.hoisted.iter().chain(plan.per_cluster.iter().flatten()) {
        let r = x.radius.iter().copied().max().unwrap_or(0);
        let e = keys.entry((x.field.0, x.time_offset)).or_insert(0);
        *e = (*e).max(r);
    }
    keys.into_iter()
        .map(|((f, t), r)| (FieldId(f), t, r))
        .collect()
}

/// Prove the per-buffer tag windows are collision-free.
///
/// The executor gives each `(field, time offset)` buffer the 64-tag
/// window starting at [`halo_tag_base`], and each of a workspace's
/// `nsparse` sparse ops one tag from `SPARSE_TAG_BASE`
/// (`RESERVED_TAG_BASE / 2`) up. Four obligations: distinct buffers get
/// distinct windows; the densest mode layout (`3^nd` diagonal codes,
/// `2*nd` basic face tags) fits inside 64 tags; no window reaches the
/// sparse window; and the sparse window ends at or below the
/// collectives' `RESERVED_TAG_BASE`.
pub fn check_tag_windows(
    ctx: &Context,
    keys: &[(FieldId, i32, usize)],
    nd: usize,
    nsparse: usize,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let sparse_end = u64::from(SPARSE_TAG_BASE) + nsparse as u64;
    if sparse_end > u64::from(RESERVED_TAG_BASE) {
        diags.push(Diagnostic::error(
            PASS,
            "sparse ops".to_string(),
            format!(
                "sparse tag window {SPARSE_TAG_BASE}..{sparse_end} for {nsparse} sparse ops \
                 overlaps the collective tags starting at {RESERVED_TAG_BASE}: a receiver \
                 combine would cross-match collective traffic"
            ),
        ));
    }
    let width = (2 * nd).max(3usize.pow(nd as u32)) as u32;
    let mut bases: BTreeMap<u32, (FieldId, i32)> = BTreeMap::new();
    for &(f, toff, _) in keys {
        let base = halo_tag_base(f.0, toff);
        let loc = buf_name(ctx, f, toff);
        if width > 64 {
            diags.push(Diagnostic::error(
                PASS,
                loc.clone(),
                format!(
                    "tag window of 64 cannot hold the {width} tags a {nd}-dimensional \
                     diagonal exchange uses: messages from different buffers would \
                     cross-match"
                ),
            ));
        }
        if base + 64 > SPARSE_TAG_BASE {
            diags.push(Diagnostic::error(
                PASS,
                loc.clone(),
                format!(
                    "tag window {base}..{} overlaps the sparse tag window starting at \
                     {SPARSE_TAG_BASE}",
                    base + 64,
                ),
            ));
        }
        if let Some(&(g, gtoff)) = bases.get(&base) {
            diags.push(Diagnostic::error(
                PASS,
                loc,
                format!(
                    "tag base {base} collides with {}: concurrent exchanges of the two \
                     buffers would cross-match messages",
                    buf_name(ctx, g, gtoff)
                ),
            ));
        } else {
            bases.insert(base, (f, toff));
        }
    }
    diags
}

/// Build the real runtime `HaloPlan` on every rank of a
/// `global`/`dims` topology and collect each rank's schedule.
pub fn collect_schedules(
    global: &[usize],
    dims: &[usize],
    halo: usize,
    mode: HaloMode,
    radius: usize,
) -> Vec<RankPlan> {
    let p: usize = dims.iter().product();
    let decomp = Arc::new(Decomposition::new(global, dims));
    Universe::run(p, |comm| {
        let cart = CartComm::new(comm, dims);
        let rank = cart.rank();
        let coords: Vec<usize> = cart.coords().to_vec();
        let arr = DistArray::new(Arc::clone(&decomp), &coords, halo);
        let plan = HaloPlan::build(&cart, &arr, mode, radius, 0);
        let steps = (0..plan.num_steps())
            .map(|s| {
                plan.step_view(s)
                    .into_iter()
                    .map(|(peer, send_tag, recv_tag, send_box, recv_box)| PlanRow {
                        peer,
                        send_tag,
                        recv_tag,
                        send_box,
                        recv_box,
                    })
                    .collect()
            })
            .collect();
        RankPlan { rank, steps }
    })
}

fn cell_key(idx: &[usize], padded: &[usize]) -> usize {
    let mut k = 0;
    for (i, p) in idx.iter().zip(padded) {
        k = k * p + i;
    }
    k
}

fn fmt_cell(idx: &[usize]) -> String {
    format!("{idx:?}")
}

/// Symbolically match collected schedules: prove deadlock-freedom,
/// unique matching, exact halo coverage, and send provenance.
pub fn match_schedule(plans: &[RankPlan], sctx: &ScheduleCtx, location: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let nd = sctx.global.len();
    let nranks: usize = sctx.dims.iter().product();
    let decomp = Decomposition::new(&sctx.global, &sctx.dims);
    let loc = |detail: String| format!("{location} / {detail}");

    if plans.len() != nranks {
        diags.push(Diagnostic::error(
            PASS,
            location.to_string(),
            format!(
                "{} rank schedules for a {nranks}-rank topology",
                plans.len()
            ),
        ));
        return diags;
    }
    let nsteps = plans.iter().map(|p| p.steps.len()).max().unwrap_or(0);
    if plans.iter().any(|p| p.steps.len() != nsteps) {
        diags.push(Diagnostic::error(
            PASS,
            location.to_string(),
            "ranks disagree on the number of exchange steps: a rank waiting in a step \
             its peer never enters deadlocks"
                .to_string(),
        ));
        return diags;
    }

    // --- message matching, step by step -------------------------------
    for step in 0..nsteps {
        // (src, dst, tag) -> message lengths, from both directions.
        let mut sends: BTreeMap<(usize, usize, Tag), Vec<usize>> = BTreeMap::new();
        let mut recvs: BTreeMap<(usize, usize, Tag), Vec<usize>> = BTreeMap::new();
        for p in plans {
            let mut seen_send: BTreeSet<(usize, Tag)> = BTreeSet::new();
            let mut seen_recv: BTreeSet<(usize, Tag)> = BTreeSet::new();
            for row in &p.steps[step] {
                if row.peer >= nranks {
                    diags.push(Diagnostic::error(
                        PASS,
                        loc(format!("rank {} step {step}", p.rank)),
                        format!(
                            "peer {} does not exist on a {nranks}-rank topology",
                            row.peer
                        ),
                    ));
                    continue;
                }
                if !seen_send.insert((row.peer, row.send_tag)) {
                    diags.push(Diagnostic::error(
                        PASS,
                        loc(format!("rank {} step {step}", p.rank)),
                        format!(
                            "duplicate send (dst {}, tag {}): the receiver cannot tell \
                             the messages apart",
                            row.peer, row.send_tag
                        ),
                    ));
                }
                if !seen_recv.insert((row.peer, row.recv_tag)) {
                    diags.push(Diagnostic::error(
                        PASS,
                        loc(format!("rank {} step {step}", p.rank)),
                        format!(
                            "duplicate receive (src {}, tag {}): matching is ambiguous",
                            row.peer, row.recv_tag
                        ),
                    ));
                }
                sends
                    .entry((p.rank, row.peer, row.send_tag))
                    .or_default()
                    .push(box_len(&row.send_box));
                recvs
                    .entry((row.peer, p.rank, row.recv_tag))
                    .or_default()
                    .push(box_len(&row.recv_box));
            }
        }
        for (&(src, dst, tag), slens) in &sends {
            match recvs.get(&(src, dst, tag)) {
                None => diags.push(Diagnostic::error(
                    PASS,
                    loc(format!("step {step}")),
                    format!(
                        "send {src} -> {dst} (tag {tag}) has no matching posted receive: \
                         the send blocks forever (deadlock)"
                    ),
                )),
                Some(rlens) => {
                    if slens.len() != rlens.len() {
                        diags.push(Diagnostic::error(
                            PASS,
                            loc(format!("step {step}")),
                            format!(
                                "{} send(s) but {} receive(s) for {src} -> {dst} (tag {tag})",
                                slens.len(),
                                rlens.len()
                            ),
                        ));
                    } else if slens != rlens {
                        diags.push(Diagnostic::error(
                            PASS,
                            loc(format!("step {step}")),
                            format!(
                                "message length mismatch for {src} -> {dst} (tag {tag}): \
                                 sender packs {slens:?} values, receiver expects {rlens:?}"
                            ),
                        ));
                    }
                }
            }
        }
        for &(src, dst, tag) in recvs.keys() {
            if !sends.contains_key(&(src, dst, tag)) {
                diags.push(Diagnostic::error(
                    PASS,
                    loc(format!("step {step}")),
                    format!(
                        "receive posted on rank {dst} from {src} (tag {tag}) is never \
                         sent: the receive waits forever (deadlock)"
                    ),
                ));
            }
        }
    }

    // --- per-rank geometry: window, disjointness, provenance, coverage -
    for p in plans {
        let coords = CartComm::coords_of(&sctx.dims, p.rank);
        let local = decomp.local_shape(&coords);
        let padded: Vec<usize> = local.iter().map(|&n| n + 2 * sctx.halo).collect();
        let owned: BoxNd = local.iter().map(|&n| sctx.halo..sctx.halo + n).collect();
        // The halo annulus reachable at this radius.
        let window: BoxNd = local
            .iter()
            .map(|&n| sctx.halo - sctx.radius..sctx.halo + n + sctx.radius)
            .collect();
        let globally_valid = |idx: &[usize]| -> bool {
            idx.iter().enumerate().all(|(d, &i)| {
                let g = decomp.owned_range(d, coords[d]).start as i64 + i as i64 - sctx.halo as i64;
                g >= 0 && (g as usize) < sctx.global[d]
            })
        };
        let in_box = |idx: &[usize], b: &BoxNd| idx.iter().zip(b).all(|(&i, r)| r.contains(&i));

        let mut received: BTreeSet<usize> = BTreeSet::new();
        for (step, rows) in p.steps.iter().enumerate() {
            let mut step_recv: Vec<usize> = Vec::new();
            for (ri, row) in rows.iter().enumerate() {
                let rloc = loc(format!("rank {} step {step} msg {ri}", p.rank));
                if row.recv_box.len() != nd
                    || row.send_box.len() != nd
                    || row.recv_box.iter().zip(&padded).any(|(r, &pd)| r.end > pd)
                    || row.send_box.iter().zip(&padded).any(|(r, &pd)| r.end > pd)
                {
                    diags.push(Diagnostic::error(
                        PASS,
                        rloc,
                        format!(
                            "message boxes leave the padded allocation {padded:?}: \
                             send {:?}, recv {:?}",
                            row.send_box, row.recv_box
                        ),
                    ));
                    continue;
                }
                let mut flagged_owned = false;
                let mut flagged_window = false;
                for_each_index(&row.recv_box, |idx| {
                    if !flagged_owned && in_box(idx, &owned) {
                        diags.push(Diagnostic::error(
                            PASS,
                            rloc.clone(),
                            format!(
                                "receive box {:?} overwrites owned cell {}: remote data \
                                 clobbers this rank's computation",
                                row.recv_box,
                                fmt_cell(idx)
                            ),
                        ));
                        flagged_owned = true;
                    }
                    if !flagged_window && !in_box(idx, &window) {
                        diags.push(Diagnostic::error(
                            PASS,
                            rloc.clone(),
                            format!(
                                "receive box {:?} reaches cell {} outside the radius-{} \
                                 halo annulus",
                                row.recv_box,
                                fmt_cell(idx),
                                sctx.radius
                            ),
                        ));
                        flagged_window = true;
                    }
                    step_recv.push(cell_key(idx, &padded));
                });
                // Provenance: sent cells must be owned or already received
                // in an earlier step (same-step receives are concurrent).
                let mut flagged_prov = false;
                for_each_index(&row.send_box, |idx| {
                    if flagged_prov || in_box(idx, &owned) || !globally_valid(idx) {
                        return;
                    }
                    if !received.contains(&cell_key(idx, &padded)) {
                        diags.push(Diagnostic::error(
                            PASS,
                            rloc.clone(),
                            format!(
                                "send box {:?} forwards halo cell {} that was neither \
                                 owned nor received in an earlier step: corner \
                                 propagation would transmit garbage",
                                row.send_box,
                                fmt_cell(idx)
                            ),
                        ));
                        flagged_prov = true;
                    }
                });
            }
            let mut flagged_dup = false;
            for k in step_recv {
                if !received.insert(k) && !flagged_dup {
                    diags.push(Diagnostic::error(
                        PASS,
                        loc(format!("rank {} step {step}", p.rank)),
                        "a halo cell is received by two different messages: whichever \
                         unpacks last wins, making the result timing-dependent"
                            .to_string(),
                    ));
                    flagged_dup = true;
                }
            }
        }

        // Coverage: every globally-valid annulus cell must be received.
        let mut missing = 0usize;
        let mut example = None;
        for_each_index(&window, |idx| {
            if in_box(idx, &owned) || !globally_valid(idx) {
                return;
            }
            if !received.contains(&cell_key(idx, &padded)) {
                missing += 1;
                if example.is_none() {
                    example = Some(fmt_cell(idx));
                }
            }
        });
        if missing > 0 {
            diags.push(Diagnostic::error(
                PASS,
                loc(format!("rank {}", p.rank)),
                format!(
                    "{missing} halo cell(s) within radius {} are never received \
                     (first: {}): the stencil reads stale or uninitialized data at \
                     rank boundaries",
                    sctx.radius,
                    example.unwrap_or_default()
                ),
            ));
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_codegen::executor::MAX_SPARSE_OPS;

    fn ctx2(global: [usize; 2], dims: [usize; 2], halo: usize, radius: usize) -> ScheduleCtx {
        ScheduleCtx {
            global: global.to_vec(),
            dims: dims.to_vec(),
            halo,
            radius,
        }
    }

    #[test]
    fn all_modes_match_on_2x2() {
        for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
            let sctx = ctx2([16, 16], [2, 2], 2, 2);
            let plans = collect_schedules(&sctx.global, &sctx.dims, 2, mode, 2);
            let diags = match_schedule(&plans, &sctx, &format!("{mode:?}"));
            assert!(diags.is_empty(), "{mode:?}: {diags:?}");
        }
    }

    #[test]
    fn basic_matches_on_1d_and_4x1() {
        let sctx = ctx2([32, 8], [4, 1], 1, 1);
        let plans = collect_schedules(&sctx.global, &sctx.dims, 1, HaloMode::Basic, 1);
        assert!(match_schedule(&plans, &sctx, "t").is_empty());
    }

    #[test]
    fn deleted_row_is_deadlock() {
        let sctx = ctx2([16, 16], [2, 2], 2, 2);
        let mut plans = collect_schedules(&sctx.global, &sctx.dims, 2, HaloMode::Diagonal, 2);
        plans[0].steps[0].pop();
        let diags = match_schedule(&plans, &sctx, "t");
        assert!(
            diags.iter().any(|d| d.explanation.contains("deadlock")),
            "{diags:?}"
        );
    }

    /// `verify_operator` matches each `(halo, radius)` schedule once
    /// with an empty location and prepends each buffer's location to the
    /// findings; that must equal matching under the buffer's location.
    #[test]
    fn findings_under_a_location_are_the_prefixed_empty_location_findings() {
        let sctx = ctx2([16, 16], [2, 2], 2, 2);
        let clean = collect_schedules(&sctx.global, &sctx.dims, 2, HaloMode::Diagonal, 2);
        let mut deleted = clean.clone();
        deleted[0].steps[0].pop();
        let mut retagged = clean.clone();
        retagged[1].steps[0][0].recv_tag += 1000;
        let mut shrunk = clean.clone();
        let r = shrunk[0].steps[0][0].recv_box[1].clone();
        shrunk[0].steps[0][0].recv_box[1] = r.start..r.end - 1;
        for plans in [deleted, retagged, shrunk, clean[..3].to_vec()] {
            let location = "u[t+0] / Diagonal on 4 ranks [2, 2]";
            let direct = match_schedule(&plans, &sctx, location);
            let prefixed: Vec<Diagnostic> = match_schedule(&plans, &sctx, "")
                .into_iter()
                .map(|d| Diagnostic {
                    location: format!("{location}{}", d.location),
                    ..d
                })
                .collect();
            assert!(!direct.is_empty());
            assert_eq!(direct, prefixed);
        }
    }

    #[test]
    fn corrupted_tag_is_detected() {
        let sctx = ctx2([16, 16], [2, 2], 2, 2);
        let mut plans = collect_schedules(&sctx.global, &sctx.dims, 2, HaloMode::Diagonal, 2);
        plans[1].steps[0][0].recv_tag += 1000;
        let diags = match_schedule(&plans, &sctx, "t");
        assert!(!diags.is_empty());
    }

    #[test]
    fn shrunk_recv_box_breaks_coverage_and_length() {
        let sctx = ctx2([16, 16], [2, 2], 2, 2);
        let mut plans = collect_schedules(&sctx.global, &sctx.dims, 2, HaloMode::Diagonal, 2);
        let row = &mut plans[0].steps[0][0];
        let r = row.recv_box[1].clone();
        row.recv_box[1] = r.start..r.end - 1;
        let diags = match_schedule(&plans, &sctx, "t");
        assert!(
            diags
                .iter()
                .any(|d| d.explanation.contains("length mismatch"))
                && diags
                    .iter()
                    .any(|d| d.explanation.contains("never received")),
            "{diags:?}"
        );
    }

    #[test]
    fn recv_box_into_owned_region_is_flagged() {
        let sctx = ctx2([16, 16], [2, 2], 2, 2);
        let mut plans = collect_schedules(&sctx.global, &sctx.dims, 2, HaloMode::Diagonal, 2);
        // Shift a halo-side receive box into the owned interior.
        let row = &mut plans[0].steps[0][0];
        row.recv_box = vec![4..6, 4..6];
        let diags = match_schedule(&plans, &sctx, "t");
        assert!(
            diags.iter().any(|d| d.explanation.contains("owned cell")),
            "{diags:?}"
        );
    }

    #[test]
    fn tag_windows_are_disjoint_and_collisions_detected() {
        let mut ctx = Context::new();
        let g = mpix_symbolic::Grid::new(&[16, 16], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 4, 2);
        let v = ctx.add_time_function("v", &g, 4, 2);
        let clean = vec![(u.id(), 0i32, 2usize), (v.id(), 1, 2)];
        assert!(check_tag_windows(&ctx, &clean, 2, MAX_SPARSE_OPS).is_empty());
        // Same field, time offsets 8 apart: rem_euclid folds them onto the
        // same window — exactly the collision the check must flag.
        let colliding = vec![(u.id(), 0, 2), (u.id(), 8, 2)];
        let diags = check_tag_windows(&ctx, &colliding, 2, 1);
        assert!(
            diags.iter().any(|d| d.explanation.contains("collides")),
            "{diags:?}"
        );
    }

    #[test]
    fn sparse_window_ends_below_the_collective_tags() {
        let ctx = Context::new();
        assert!(check_tag_windows(&ctx, &[], 3, MAX_SPARSE_OPS).is_empty());
        let diags = check_tag_windows(&ctx, &[], 3, MAX_SPARSE_OPS + 1);
        assert!(
            diags
                .iter()
                .any(|d| d.explanation.contains("overlaps the collective tags")),
            "{diags:?}"
        );
        assert_eq!(
            mpix_codegen::sparse_tag(MAX_SPARSE_OPS - 1),
            RESERVED_TAG_BASE - 1
        );
    }
}
