//! The parametric-in-P communication-schedule prover (`MPX010`–`MPX014`).
//!
//! The concrete matcher ([`crate::comm_schedule`]) spins up a real
//! topology and checks the actual plans at *sampled* rank counts. This
//! module proves the same obligations **symbolically over every rank
//! count** `dims_create` can produce, by two observations about the
//! plan construction in `mpix_dmp::halo`:
//!
//! 1. A rank's schedule depends on its coordinates only through a
//!    per-dimension *position class*: [`PosClass::Solo`] (the dimension
//!    is undivided), [`PosClass::Lo`] (first of ≥ 2), [`PosClass::Mid`]
//!    (both neighbours), [`PosClass::Hi`] (last of ≥ 2). `4^nd` classes
//!    cover every rank of every topology.
//! 2. Every box bound the plan computes is an affine expression
//!    `c0 + c_h·halo + c_r·radius + c_l·n` ([`Aff`]) in the symbolic
//!    halo width, exchange radius and local extent. Comparisons are
//!    decided over the cone `halo ≥ radius ≥ 1, n ≥ radius` — the
//!    region [`crate::verify_operator`]'s "decomposition too fine"
//!    pre-check already enforces — so a discharged obligation holds for
//!    every P, not just the sampled ones.
//!
//! The proof obligations mirror the concrete matcher: unique
//! `(peer, tag)` pairs per step, every send paired with exactly one
//! matching receive in every *compatible* neighbour class (`MPX011`),
//! receive boxes tiling the globally-valid halo annulus exactly once
//! (`MPX012`), and staged sends forwarding only cells received in an
//! earlier step — the *basic* mode's corner-propagation provenance
//! (`MPX013`). Tag demands beyond the reserved 64-tag window are
//! `MPX010`; topologies the model does not cover degrade to `MPX014`
//! (the sampled-P concrete checks still run).
//!
//! `tests/lint_prover.rs` counter-asserts the prover against the
//! concrete matcher at P ∈ {2, 3, 5, 8, 32, 128, 512}: both clean, for
//! every mode.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::{LazyLock, Mutex, PoisonError};

use mpix_comm::CartComm;
use mpix_dmp::halo::HaloMode;
use mpix_ir::halo::HaloPlan;
use mpix_symbolic::Context;

use super::LintFinding;

/// Dimensionality ceiling of the class model. Above it the prover
/// reports `MPX014` instead of guessing (3-D is the paper's outermost
/// case; diagonal tag layouts overflow the tag window at 4-D anyway).
pub const MAX_PROVED_ND: usize = 3;

/// The executor reserves a 64-tag window per `(field, time offset)`
/// buffer (see [`crate::comm_schedule::check_tag_windows`]).
const TAG_WINDOW: u32 = 64;

/// A rank's position along one topology dimension — all the plan
/// construction ever observes about its coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PosClass {
    /// `dims[d] == 1`: no neighbours in this dimension.
    Solo,
    /// Coordinate 0 of ≥ 2: a high neighbour only.
    Lo,
    /// Interior: both neighbours.
    Mid,
    /// Last coordinate of ≥ 2: a low neighbour only.
    Hi,
}

impl PosClass {
    fn has_neighbor(self, side: i32) -> bool {
        match side.signum() {
            -1 => matches!(self, PosClass::Mid | PosClass::Hi),
            1 => matches!(self, PosClass::Lo | PosClass::Mid),
            _ => true,
        }
    }
}

/// Position classes of `rank` on the topology `dims` — the bridge the
/// prover↔matcher agreement tests walk across.
pub fn class_of(dims: &[usize], rank: usize) -> Vec<PosClass> {
    let coords = CartComm::coords_of(dims, rank);
    dims.iter()
        .zip(&coords)
        .map(|(&p, &c)| {
            if p == 1 {
                PosClass::Solo
            } else if c == 0 {
                PosClass::Lo
            } else if c == p - 1 {
                PosClass::Hi
            } else {
                PosClass::Mid
            }
        })
        .collect()
}

/// An affine index bound `c0 + h·halo + r·radius + l·n`, where `n` is
/// the local owned extent of the dimension the bound indexes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aff {
    pub c0: i64,
    pub h: i64,
    pub r: i64,
    pub l: i64,
}

impl Aff {
    pub const fn new(c0: i64, h: i64, r: i64, l: i64) -> Aff {
        Aff { c0, h, r, l }
    }

    pub fn minus(self, o: Aff) -> Aff {
        Aff::new(self.c0 - o.c0, self.h - o.h, self.r - o.r, self.l - o.l)
    }

    /// Is the expression ≥ 0 everywhere on the cone
    /// `halo ≥ radius ≥ 1, n ≥ radius`? Substituting
    /// `halo = radius + h'`, `n = radius + l'` (`h', l' ≥ 0`) gives
    /// `c0 + s·radius + h·h' + l·l'` with `s = h + r + l`, whose infimum
    /// over the cone is finite iff `h, l, s ≥ 0` and then equals
    /// `c0 + s` (at `radius = 1`). Sound *and* complete for affine
    /// forms, so equality/ordering verdicts transfer to every P.
    pub fn nonneg(self) -> bool {
        let s = self.h + self.r + self.l;
        self.h >= 0 && self.l >= 0 && s >= 0 && self.c0 + s >= 0
    }
}

impl fmt::Display for Aff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (c, name) in [(self.h, "halo"), (self.l, "n"), (self.r, "radius")] {
            if c == 0 {
                continue;
            }
            match (first, c) {
                (true, 1) => write!(f, "{name}")?,
                (true, -1) => write!(f, "-{name}")?,
                (true, c) => write!(f, "{c}*{name}")?,
                (false, 1) => write!(f, " + {name}")?,
                (false, -1) => write!(f, " - {name}")?,
                (false, c) if c > 0 => write!(f, " + {c}*{name}")?,
                (false, c) => write!(f, " - {}*{name}", -c)?,
            }
            first = false;
        }
        if self.c0 != 0 || first {
            if first {
                write!(f, "{}", self.c0)?;
            } else if self.c0 > 0 {
                write!(f, " + {}", self.c0)?;
            } else {
                write!(f, " - {}", -self.c0)?;
            }
        }
        Ok(())
    }
}

/// `a ≤ b` everywhere on the cone.
fn cone_le(a: Aff, b: Aff) -> bool {
    b.minus(a).nonneg()
}

// The four boundaries partitioning one padded dimension's exchange-
// reachable part into Lo = [halo-r, halo), Own = [halo, halo+n),
// Hi = [halo+n, halo+n+r).
const B_LO: Aff = Aff::new(0, 1, -1, 0); // halo - radius
const B_OWN_LO: Aff = Aff::new(0, 1, 0, 0); // halo
const B_OWN_HI: Aff = Aff::new(0, 1, 0, 1); // halo + n
const B_HI: Aff = Aff::new(0, 1, 1, 1); // halo + n + radius

/// One atomic segment of a padded dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Seg {
    Lo,
    Own,
    Hi,
}

impl Seg {
    /// Do the segment's cells map to valid global indices for a rank of
    /// this class? A low-halo segment is in-domain exactly when a low
    /// neighbour exists (that neighbour owns ≥ radius points under the
    /// cone assumption `n ≥ radius`), symmetrically for the high side.
    fn globally_valid(self, class: PosClass) -> bool {
        match self {
            Seg::Own => true,
            Seg::Lo => class.has_neighbor(-1),
            Seg::Hi => class.has_neighbor(1),
        }
    }
}

/// Decompose one box dimension `[lo, hi)` into atomic segments.
/// `allow_sub_own`: a strict sub-range of the owned segment counts as
/// `Own` (send boxes pack owned strips); receive boxes must align
/// exactly to segment boundaries or they cannot tile the annulus.
fn classify_range(lo: Aff, hi: Aff, allow_sub_own: bool) -> Result<Vec<Seg>, String> {
    if allow_sub_own && cone_le(B_OWN_LO, lo) && cone_le(hi, B_OWN_HI) && cone_le(lo, hi) {
        return Ok(vec![Seg::Own]);
    }
    let bounds = [B_LO, B_OWN_LO, B_OWN_HI, B_HI];
    let segs = [Seg::Lo, Seg::Own, Seg::Hi];
    let li = bounds
        .iter()
        .position(|b| *b == lo)
        .ok_or_else(|| format!("bound {lo} is not a halo-annulus segment boundary"))?;
    let hi_i = bounds
        .iter()
        .position(|b| *b == hi)
        .ok_or_else(|| format!("bound {hi} is not a halo-annulus segment boundary"))?;
    if li >= hi_i {
        return Err(format!("range [{lo}, {hi}) is empty or reversed"));
    }
    Ok(segs[li..hi_i].to_vec())
}

/// Cartesian product of per-dimension segment lists.
fn sigma_product(per_dim: &[Vec<Seg>]) -> Vec<Vec<Seg>> {
    let mut out: Vec<Vec<Seg>> = vec![Vec::new()];
    for opts in per_dim {
        out = out
            .iter()
            .flat_map(|prefix| {
                opts.iter().map(move |&s| {
                    let mut v = prefix.clone();
                    v.push(s);
                    v
                })
            })
            .collect();
    }
    out
}

/// One symbolic message pair: like a `PlanEntry` of `mpix_dmp::halo`,
/// but with the peer identified by displacement and every bound an
/// [`Aff`]. Tags are offsets from the per-buffer tag base.
#[derive(Clone, Debug)]
pub struct SymEntry {
    pub disp: Vec<i32>,
    pub send_tag: u32,
    pub recv_tag: u32,
    pub send_box: Vec<(Aff, Aff)>,
    pub recv_box: Vec<(Aff, Aff)>,
}

/// The symbolic schedule of one position class: what `HaloPlan::build`
/// produces for *every* rank of that class, on *every* topology.
#[derive(Clone, Debug)]
pub struct SymSchedule {
    pub class: Vec<PosClass>,
    pub steps: Vec<Vec<SymEntry>>,
}

fn code_of(disp: &[i32]) -> usize {
    disp.iter()
        .fold(0usize, |acc, &d| acc * 3 + (d + 1) as usize)
}

/// Mirror of `HaloPlan::build` over a position class instead of a
/// concrete rank. Any divergence between this model and the real
/// constructor is caught by the prover↔matcher agreement tests.
pub fn build_symbolic_schedule(mode: HaloMode, class: &[PosClass]) -> SymSchedule {
    let nd = class.len();
    let own_lo_strip = (B_OWN_LO, Aff::new(0, 1, 1, 0)); // [halo, halo+r)
    let own_hi_strip = (Aff::new(0, 1, -1, 1), B_OWN_HI); // [halo+n-r, halo+n)
    let mut steps: Vec<Vec<SymEntry>> = Vec::new();
    match mode {
        HaloMode::Basic => {
            for d in 0..nd {
                let mut entries = Vec::new();
                for side in [-1i32, 1] {
                    if !class[d].has_neighbor(side) {
                        continue;
                    }
                    let mut disp = vec![0i32; nd];
                    disp[d] = side;
                    // Already-exchanged dims carry their halo along
                    // (corner propagation); later dims stay owned-only.
                    let extent = |e: usize| {
                        if e < d {
                            (B_LO, B_HI)
                        } else {
                            (B_OWN_LO, B_OWN_HI)
                        }
                    };
                    let send_box = (0..nd)
                        .map(|e| {
                            if e != d {
                                extent(e)
                            } else if side < 0 {
                                own_lo_strip
                            } else {
                                own_hi_strip
                            }
                        })
                        .collect();
                    let recv_box = (0..nd)
                        .map(|e| {
                            if e != d {
                                extent(e)
                            } else if side < 0 {
                                (B_LO, B_OWN_LO)
                            } else {
                                (B_OWN_HI, B_HI)
                            }
                        })
                        .collect();
                    entries.push(SymEntry {
                        disp,
                        send_tag: (d as u32) * 2 + u32::from(side < 0),
                        recv_tag: (d as u32) * 2 + u32::from(side > 0),
                        send_box,
                        recv_box,
                    });
                }
                steps.push(entries);
            }
        }
        HaloMode::Diagonal | HaloMode::Full => {
            let mut entries = Vec::new();
            for code in 0..3usize.pow(nd as u32) {
                let mut disp = vec![0i32; nd];
                let mut c = code;
                for d in (0..nd).rev() {
                    disp[d] = (c % 3) as i32 - 1;
                    c /= 3;
                }
                if disp.iter().all(|&x| x == 0) {
                    continue;
                }
                if !disp
                    .iter()
                    .zip(class)
                    .all(|(&s, cl)| s == 0 || cl.has_neighbor(s))
                {
                    continue;
                }
                let inv: Vec<i32> = disp.iter().map(|x| -x).collect();
                let send_box = disp
                    .iter()
                    .map(|&s| match s {
                        -1 => own_lo_strip,
                        1 => own_hi_strip,
                        _ => (B_OWN_LO, B_OWN_HI),
                    })
                    .collect();
                let recv_box = disp
                    .iter()
                    .map(|&s| match s {
                        -1 => (B_LO, B_OWN_LO),
                        1 => (B_OWN_HI, B_HI),
                        _ => (B_OWN_LO, B_OWN_HI),
                    })
                    .collect();
                entries.push(SymEntry {
                    send_tag: code_of(&inv) as u32,
                    recv_tag: code_of(&disp) as u32,
                    disp,
                    send_box,
                    recv_box,
                });
            }
            steps.push(entries);
        }
    }
    SymSchedule {
        class: class.to_vec(),
        steps,
    }
}

/// All `4^nd` class schedules for one mode.
pub fn build_all_schedules(mode: HaloMode, nd: usize) -> BTreeMap<Vec<PosClass>, SymSchedule> {
    let opts = [PosClass::Solo, PosClass::Lo, PosClass::Mid, PosClass::Hi];
    let mut out = BTreeMap::new();
    for idx in 0..4usize.pow(nd as u32) {
        let mut class = Vec::with_capacity(nd);
        let mut c = idx;
        for _ in 0..nd {
            class.push(opts[c % 4]);
            c /= 4;
        }
        out.insert(class.clone(), build_symbolic_schedule(mode, &class));
    }
    out
}

/// Position classes a neighbour at `disp` can have, given mine. In the
/// displaced dimensions only the existence of *me* is known about the
/// peer (it has a neighbour on the facing side), leaving two possible
/// classes; pairing must hold for all of them.
fn compat_classes(class: &[PosClass], disp: &[i32]) -> Vec<Vec<PosClass>> {
    let per_dim: Vec<Vec<PosClass>> = class
        .iter()
        .zip(disp)
        .map(|(&c, &s)| match s.signum() {
            0 => vec![c],
            -1 => vec![PosClass::Lo, PosClass::Mid],
            _ => vec![PosClass::Mid, PosClass::Hi],
        })
        .collect();
    let mut out: Vec<Vec<PosClass>> = vec![Vec::new()];
    for opts in &per_dim {
        out = out
            .iter()
            .flat_map(|prefix| {
                opts.iter().map(move |&c| {
                    let mut v = prefix.clone();
                    v.push(c);
                    v
                })
            })
            .collect();
    }
    out
}

fn fmt_class(class: &[PosClass]) -> String {
    format!("{class:?}")
}

/// Symbolic per-dimension message length, with the cross-rank soundness
/// rule: in a displaced dimension the two ranks' local extents differ
/// in general, so a length depending on `n` there can never be proven
/// equal. Returns `(length, depends_on_n)`.
fn dim_len(b: &(Aff, Aff)) -> (Aff, bool) {
    let len = b.1.minus(b.0);
    (len, len.l != 0)
}

/// Verify every class schedule against every compatible peer: the
/// deadlock-freedom (`MPX011`), exactly-once annulus coverage
/// (`MPX012`) and staged-provenance (`MPX013`) obligations, quantified
/// over all P.
pub fn check_symbolic_schedules(
    schedules: &BTreeMap<Vec<PosClass>, SymSchedule>,
    loc_prefix: &str,
) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for (class, sched) in schedules {
        let nd = class.len();
        let cloc = |detail: &str| format!("{loc_prefix}class {} {detail}", fmt_class(class));

        // -- pairing: each entry against all compatible peer classes --
        for (t, entries) in sched.steps.iter().enumerate() {
            let mut seen_send: BTreeSet<(Vec<i32>, u32)> = BTreeSet::new();
            let mut seen_recv: BTreeSet<(Vec<i32>, u32)> = BTreeSet::new();
            for e in entries {
                if !seen_send.insert((e.disp.clone(), e.send_tag)) {
                    out.push(LintFinding::new(
                        "MPX011",
                        cloc(&format!("step {t} disp {:?}", e.disp)),
                        format!(
                            "duplicate send (peer disp {:?}, tag +{}): the receiver \
                             cannot tell the messages apart on any topology",
                            e.disp, e.send_tag
                        ),
                    ));
                }
                if !seen_recv.insert((e.disp.clone(), e.recv_tag)) {
                    out.push(LintFinding::new(
                        "MPX011",
                        cloc(&format!("step {t} disp {:?}", e.disp)),
                        format!(
                            "duplicate receive (peer disp {:?}, tag +{}): matching is \
                             ambiguous on any topology",
                            e.disp, e.recv_tag
                        ),
                    ));
                }
                let inv: Vec<i32> = e.disp.iter().map(|x| -x).collect();
                for pc in compat_classes(class, &e.disp) {
                    let Some(peer) = schedules.get(&pc) else {
                        continue;
                    };
                    let pes: Vec<&SymEntry> = peer
                        .steps
                        .get(t)
                        .map(|s| s.iter().filter(|pe| pe.disp == inv).collect())
                        .unwrap_or_default();
                    if pes.len() != 1 {
                        out.push(LintFinding::new(
                            "MPX011",
                            cloc(&format!("step {t} disp {:?}", e.disp)),
                            format!(
                                "peer class {} posts {} entries toward {inv:?} at step \
                                 {t}, expected exactly 1: a send or receive goes \
                                 unmatched (deadlock) for every P containing this pair",
                                fmt_class(&pc),
                                pes.len()
                            ),
                        ));
                        continue;
                    }
                    let pe = pes[0];
                    if pe.send_tag != e.recv_tag {
                        out.push(LintFinding::new(
                            "MPX011",
                            cloc(&format!("step {t} disp {:?}", e.disp)),
                            format!(
                                "receive expects tag +{} but peer class {} sends tag \
                                 +{}: the receive waits forever",
                                e.recv_tag,
                                fmt_class(&pc),
                                pe.send_tag
                            ),
                        ));
                    }
                    if pe.recv_tag != e.send_tag {
                        out.push(LintFinding::new(
                            "MPX011",
                            cloc(&format!("step {t} disp {:?}", e.disp)),
                            format!(
                                "send uses tag +{} but peer class {} posts its receive \
                                 at tag +{}: the send blocks forever",
                                e.send_tag,
                                fmt_class(&pc),
                                pe.recv_tag
                            ),
                        ));
                    }
                    for d in 0..nd {
                        let (rlen, rl_n) = dim_len(&e.recv_box[d]);
                        let (slen, sl_n) = dim_len(&pe.send_box[d]);
                        let cross_rank = e.disp[d] != 0 && (rl_n || sl_n);
                        if cross_rank || rlen != slen {
                            out.push(LintFinding::new(
                                "MPX011",
                                cloc(&format!("step {t} disp {:?}", e.disp)),
                                format!(
                                    "message length mismatch in dim {d}: receive \
                                     expects {rlen}, peer class {} packs {slen}{}",
                                    fmt_class(&pc),
                                    if cross_rank {
                                        " (and the extent n differs across the \
                                         displaced ranks)"
                                    } else {
                                        ""
                                    }
                                ),
                            ));
                        }
                    }
                }
            }
        }

        // -- coverage / exactly-once / provenance over segment vectors --
        let mut received_count: BTreeMap<Vec<Seg>, usize> = BTreeMap::new();
        let mut received_before: BTreeSet<Vec<Seg>> = BTreeSet::new();
        for (t, entries) in sched.steps.iter().enumerate() {
            let mut this_step: Vec<Vec<Seg>> = Vec::new();
            for e in entries {
                // Provenance first: step-t sends pack before step-t
                // receives land, so only strictly earlier receives count.
                let send_segs: Result<Vec<Vec<Seg>>, String> = e
                    .send_box
                    .iter()
                    .map(|&(lo, hi)| classify_range(lo, hi, true))
                    .collect();
                match send_segs {
                    Err(why) => out.push(LintFinding::new(
                        "MPX013",
                        cloc(&format!("step {t} disp {:?}", e.disp)),
                        format!("cannot prove send provenance: {why}"),
                    )),
                    Ok(per_dim) => {
                        for sigma in sigma_product(&per_dim) {
                            let has_halo = sigma.iter().any(|&s| s != Seg::Own);
                            let valid = sigma
                                .iter()
                                .zip(class.iter())
                                .all(|(&s, &c)| s.globally_valid(c));
                            if has_halo && valid && !received_before.contains(&sigma) {
                                out.push(LintFinding::new(
                                    "MPX013",
                                    cloc(&format!("step {t} disp {:?}", e.disp)),
                                    format!(
                                        "send forwards halo segment {sigma:?} that was \
                                         neither owned nor received in an earlier \
                                         step: corner propagation transmits garbage \
                                         on every P containing this class"
                                    ),
                                ));
                            }
                        }
                    }
                }
                let recv_segs: Result<Vec<Vec<Seg>>, String> = e
                    .recv_box
                    .iter()
                    .map(|&(lo, hi)| classify_range(lo, hi, false))
                    .collect();
                match recv_segs {
                    Err(why) => out.push(LintFinding::new(
                        "MPX012",
                        cloc(&format!("step {t} disp {:?}", e.disp)),
                        format!("receive box does not tile the halo annulus: {why}"),
                    )),
                    Ok(per_dim) => {
                        if per_dim.iter().all(|segs| segs.contains(&Seg::Own)) {
                            out.push(LintFinding::new(
                                "MPX012",
                                cloc(&format!("step {t} disp {:?}", e.disp)),
                                "receive box overlaps the owned region: remote data \
                                 would clobber this rank's computation"
                                    .to_string(),
                            ));
                        }
                        this_step.extend(sigma_product(&per_dim));
                    }
                }
            }
            for sigma in this_step {
                *received_count.entry(sigma.clone()).or_insert(0) += 1;
                received_before.insert(sigma);
            }
        }
        for (sigma, count) in &received_count {
            if *count > 1 {
                out.push(LintFinding::new(
                    "MPX012",
                    cloc(&format!("segment {sigma:?}")),
                    format!(
                        "halo segment is received by {count} messages: whichever \
                         unpacks last wins, making the result timing-dependent"
                    ),
                ));
            }
        }
        // Every globally-valid annulus segment must be received.
        let per_dim: Vec<Vec<Seg>> = class
            .iter()
            .map(|&c| {
                let mut opts = vec![Seg::Own];
                if Seg::Lo.globally_valid(c) {
                    opts.push(Seg::Lo);
                }
                if Seg::Hi.globally_valid(c) {
                    opts.push(Seg::Hi);
                }
                opts
            })
            .collect();
        for sigma in sigma_product(&per_dim) {
            if sigma.iter().all(|&s| s == Seg::Own) {
                continue;
            }
            if !received_count.contains_key(&sigma) {
                out.push(LintFinding::new(
                    "MPX012",
                    cloc(&format!("segment {sigma:?}")),
                    "globally-valid halo segment is never received: the stencil reads \
                     stale data at rank boundaries on every P containing this class"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// Prove one `(mode, nd)` communication schedule for every P, or report
/// why it cannot be proven.
pub fn prove_parametric(mode: HaloMode, nd: usize, loc_prefix: &str) -> Vec<LintFinding> {
    let mut out = Vec::new();
    // The tag-width obligation is closed-form, so it is decidable even
    // above the class model's dimensionality ceiling.
    let needed = mode.messages_per_exchange(nd).max(2 * nd) as u32 + 1;
    if needed > TAG_WINDOW {
        out.push(LintFinding::new(
            "MPX010",
            format!("{loc_prefix}{mode:?} tags"),
            format!(
                "a {nd}-dimensional {mode:?} schedule uses {needed} tag offsets but \
                 the per-buffer window holds only {TAG_WINDOW}: messages from \
                 different buffers would cross-match"
            ),
        ));
    }
    if nd > MAX_PROVED_ND {
        out.push(LintFinding::new(
            "MPX014",
            format!("{loc_prefix}{nd}-dimensional topology"),
            format!(
                "the parametric prover models at most {MAX_PROVED_ND} dimensions: \
                 schedules are checked only at the sampled rank counts"
            ),
        ));
        return out;
    }
    let schedules = build_all_schedules(mode, nd);
    out.extend(check_symbolic_schedules(&schedules, loc_prefix));
    out
}

/// `(mode, nd)` proofs, each under an empty location prefix.
type Proofs = HashMap<(HaloMode, usize), Vec<LintFinding>>;

/// Every proof this process has made: a proof depends on nothing but
/// its `(mode, nd)`, so each is made once (nine for 1-D to 3-D).
static PROOFS: LazyLock<Mutex<Proofs>> = LazyLock::new(Default::default);

/// Top-level entry: prove every exchange key of the plan, per mode.
///
/// The proof depends only on `(mode, nd)`, not on the buffer, so each
/// distinct pair is proven once per process and every key
/// gets a copy of its findings behind its own prefix. Every
/// [`prove_parametric`] location starts with its prefix, so the output
/// is the same, in the same order, as proving each key separately.
pub fn lint_schedules(ctx: &Context, plan: &HaloPlan, modes: &[HaloMode]) -> Vec<LintFinding> {
    let mut proofs = PROOFS.lock().unwrap_or_else(PoisonError::into_inner);
    let mut out = Vec::new();
    for (f, toff, radius) in crate::comm_schedule::exchange_keys(plan) {
        if radius == 0 {
            continue;
        }
        let nd = ctx.field(f).ndim();
        for &mode in modes {
            let prefix = format!("{} / {mode:?} (all P) / ", crate::buf_name(ctx, f, toff));
            let proof = proofs
                .entry((mode, nd))
                .or_insert_with(|| prove_parametric(mode, nd, ""));
            out.extend(proof.iter().map(|x| LintFinding {
                location: format!("{prefix}{}", x.location),
                ..x.clone()
            }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(f: &[LintFinding]) -> Vec<&str> {
        f.iter().map(|x| x.code).collect()
    }

    #[test]
    fn aff_cone_ordering() {
        // n - radius >= 0 on the cone (the too-fine pre-check boundary).
        assert!(Aff::new(0, 0, -1, 1).nonneg());
        // halo - radius >= 0, radius - 1 >= 0.
        assert!(Aff::new(0, 1, -1, 0).nonneg());
        assert!(Aff::new(-1, 0, 1, 0).nonneg());
        // radius - n can be negative (n unbounded).
        assert!(!Aff::new(0, 0, 1, -1).nonneg());
        // -1 alone is negative.
        assert!(!Aff::new(-1, 0, 0, 0).nonneg());
    }

    #[test]
    fn range_classification() {
        assert_eq!(
            classify_range(B_LO, B_HI, false).unwrap(),
            vec![Seg::Lo, Seg::Own, Seg::Hi]
        );
        assert_eq!(
            classify_range(B_LO, B_OWN_LO, false).unwrap(),
            vec![Seg::Lo]
        );
        // Owned strip [halo, halo+r): sub-own for sends only.
        let strip_hi = Aff::new(0, 1, 1, 0);
        assert_eq!(
            classify_range(B_OWN_LO, strip_hi, true).unwrap(),
            vec![Seg::Own]
        );
        assert!(classify_range(B_OWN_LO, strip_hi, false).is_err());
        assert!(classify_range(B_OWN_LO, B_LO, false).is_err());
    }

    #[test]
    fn all_modes_prove_clean_up_to_3d() {
        for nd in 1..=3 {
            for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
                let f = prove_parametric(mode, nd, "");
                assert!(f.is_empty(), "{mode:?} {nd}d: {f:?}");
            }
        }
    }

    #[test]
    fn four_dimensions_degrade_to_mpx014() {
        // 4-D diagonal also needs 81 tags — past the 64-tag window.
        let f = prove_parametric(HaloMode::Diagonal, 4, "");
        assert_eq!(codes(&f), vec!["MPX010", "MPX014"]);
        let f = prove_parametric(HaloMode::Basic, 4, "");
        assert_eq!(codes(&f), vec!["MPX014"]);
    }

    #[test]
    fn mutated_recv_tag_is_mpx011() {
        let mut schedules = build_all_schedules(HaloMode::Diagonal, 2);
        let interior = vec![PosClass::Mid, PosClass::Mid];
        schedules.get_mut(&interior).unwrap().steps[0][0].recv_tag += 1;
        let f = check_symbolic_schedules(&schedules, "");
        assert!(codes(&f).contains(&"MPX011"), "{f:?}");
    }

    #[test]
    fn dropped_entry_is_a_coverage_gap() {
        let mut schedules = build_all_schedules(HaloMode::Diagonal, 2);
        let interior = vec![PosClass::Mid, PosClass::Mid];
        schedules.get_mut(&interior).unwrap().steps[0].remove(0);
        let f = check_symbolic_schedules(&schedules, "");
        assert!(codes(&f).contains(&"MPX012"), "{f:?}");
        assert!(codes(&f).contains(&"MPX011"), "{f:?}"); // peers' sends unmatched
    }

    #[test]
    fn reordered_basic_steps_break_provenance() {
        // Swap the d=0 and d=1 steps of every class consistently: pairing
        // and coverage stay intact, but step 0 now forwards dim-0 halo
        // that is only received in step 1 — exactly MPX013.
        let mut schedules = build_all_schedules(HaloMode::Basic, 2);
        for s in schedules.values_mut() {
            s.steps.swap(0, 1);
        }
        let f = check_symbolic_schedules(&schedules, "");
        assert!(codes(&f).contains(&"MPX013"), "{f:?}");
        assert!(!codes(&f).contains(&"MPX011"), "{f:?}");
        assert!(!codes(&f).contains(&"MPX012"), "{f:?}");
    }

    #[test]
    fn double_receive_is_mpx012() {
        let mut schedules = build_all_schedules(HaloMode::Diagonal, 2);
        let interior = vec![PosClass::Mid, PosClass::Mid];
        let sched = schedules.get_mut(&interior).unwrap();
        let dup = sched.steps[0][0].clone();
        sched.steps[0].push(dup);
        let f = check_symbolic_schedules(&schedules, "");
        assert!(
            f.iter()
                .any(|x| x.code == "MPX012" && x.explanation.contains("received by 2")),
            "{f:?}"
        );
    }

    #[test]
    fn class_of_matches_coordinates() {
        assert_eq!(class_of(&[3, 2], 0), vec![PosClass::Lo, PosClass::Lo]);
        // dims [3, 2]: rank 3 has coords [1, 1].
        assert_eq!(class_of(&[3, 2], 3), vec![PosClass::Mid, PosClass::Hi]);
        assert_eq!(class_of(&[1, 4], 0), vec![PosClass::Solo, PosClass::Lo]);
        assert_eq!(class_of(&[1, 4], 2), vec![PosClass::Solo, PosClass::Mid]);
    }

    #[test]
    fn interior_message_counts_match_table1() {
        let basic3 = build_symbolic_schedule(
            HaloMode::Basic,
            &[PosClass::Mid, PosClass::Mid, PosClass::Mid],
        );
        assert_eq!(basic3.steps.iter().map(Vec::len).sum::<usize>(), 6);
        let diag3 = build_symbolic_schedule(
            HaloMode::Diagonal,
            &[PosClass::Mid, PosClass::Mid, PosClass::Mid],
        );
        assert_eq!(diag3.steps[0].len(), 26);
    }
}
