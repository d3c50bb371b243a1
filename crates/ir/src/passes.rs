//! Compiler passes: flop-reducing transformations at the Cluster level
//! and HaloSpot lowering at the IET level (paper §II, §III g/h).

use std::collections::HashMap;

use crate::cluster::{Cluster, Stmt};
use crate::iet::{Node, RegionKind};
use crate::iexpr::IExpr;

// ---------------------------------------------------------------------------
// Cluster-level: parameter extraction + CSE
// ---------------------------------------------------------------------------

/// Extract loop-invariant sub-expressions into parameters (`r0 = 1/dt`,
/// `r1 = 1/(h_x*h_x)`, … — loop-invariant code motion) and repeated
/// grid-varying sub-expressions into per-point temporaries (`tmp0 =
/// -2*u[t0][x+2][y+2]` — CSE), as in Listing 11.
///
/// `next_param` numbers parameters globally across clusters.
pub fn cse_cluster(cl: &mut Cluster, next_param: &mut usize) {
    extract_params(cl, next_param);
    extract_temps(cl);
}

fn extract_params(cl: &mut Cluster, next_param: &mut usize) {
    // Collect maximal grid-invariant, non-trivial subtrees.
    let mut defs: Vec<IExpr> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let params_base = *next_param;
    for s in &mut cl.stmts {
        let v = s.value().clone();
        let rewritten = hoist_invariant(&v, &mut defs, &mut index, params_base);
        *s.value_mut() = rewritten;
    }
    for (i, def) in defs.into_iter().enumerate() {
        cl.params.push((params_base + i, def));
    }
    *next_param = params_base + cl.params.len();
}

/// Replace maximal invariant subtrees with `Param` references.
fn hoist_invariant(
    e: &IExpr,
    defs: &mut Vec<IExpr>,
    index: &mut HashMap<String, usize>,
    base: usize,
) -> IExpr {
    if e.is_grid_invariant() && worth_hoisting(e) {
        let key = format!("{e}");
        let id = *index.entry(key).or_insert_with(|| {
            defs.push(e.clone());
            base + defs.len() - 1
        });
        return IExpr::Param(id);
    }
    match e {
        IExpr::Add(xs) => IExpr::Add(
            xs.iter()
                .map(|x| hoist_invariant(x, defs, index, base))
                .collect(),
        ),
        IExpr::Mul(xs) => {
            // Group the invariant factors of a mixed product, so
            // `c * (1/h_x^2) * load` hoists `c/h_x^2` as one parameter.
            let (inv, var): (Vec<&IExpr>, Vec<&IExpr>) =
                xs.iter().partition(|x| x.is_grid_invariant());
            let mut out: Vec<IExpr> = Vec::with_capacity(xs.len());
            if inv.len() >= 2 || (inv.len() == 1 && worth_hoisting(inv[0])) {
                let packed = if inv.len() == 1 {
                    inv[0].clone()
                } else {
                    IExpr::Mul(inv.into_iter().cloned().collect())
                };
                out.push(hoist_invariant(&packed, defs, index, base));
            } else {
                out.extend(inv.into_iter().cloned());
            }
            for v in var {
                out.push(hoist_invariant(v, defs, index, base));
            }
            if out.len() == 1 {
                out.pop().unwrap()
            } else {
                IExpr::Mul(out)
            }
        }
        IExpr::Pow(b, e2) => IExpr::Pow(Box::new(hoist_invariant(b, defs, index, base)), *e2),
        IExpr::Func(fx, b) => IExpr::Func(*fx, Box::new(hoist_invariant(b, defs, index, base))),
        other => other.clone(),
    }
}

/// Hoist only if it saves work at run time: divisions (negative powers),
/// powers, or compound expressions.
fn worth_hoisting(e: &IExpr) -> bool {
    matches!(
        e,
        IExpr::Pow(_, _) | IExpr::Add(_) | IExpr::Mul(_) | IExpr::Func(_, _)
    )
}

fn extract_temps(cl: &mut Cluster) {
    // Count non-trivial grid-varying subtrees across all stores.
    let mut counts: HashMap<String, (IExpr, usize)> = HashMap::new();
    for s in &cl.stmts {
        count_subtrees(s.value(), &mut counts);
    }
    // Temps are hoisted to the top of the point body, so a candidate must
    // not load a buffer this cluster writes (the load would then observe
    // the pre-store value).
    let written: Vec<(mpix_symbolic::FieldId, i32)> = cl.writes();
    let reads_written = |e: &IExpr| {
        let mut hit = false;
        e.visit_loads(&mut |a| {
            if written.contains(&(a.field, a.time_offset)) {
                hit = true;
            }
        });
        hit
    };
    // Candidates: seen >= 2 times, contain at least one load, size >= 2.
    let mut cands: Vec<(String, IExpr)> = counts
        .into_iter()
        .filter(|(_, (e, n))| {
            *n >= 2 && !e.is_grid_invariant() && e.size() >= 2 && !reads_written(e)
        })
        .map(|(k, (e, _))| (k, e))
        .collect();
    // Deterministic order; smaller subtrees first so bigger candidates
    // can reference the temps of smaller ones: a contained subtree is
    // strictly smaller, so by the time a candidate is substituted every
    // candidate inside it has already been replaced — in the statements
    // AND in this candidate's own definition, which is rewritten in
    // lockstep so its key keeps matching the statements.
    cands.sort_by_key(|(k, e)| (e.size(), k.clone()));
    if cands.is_empty() {
        return;
    }
    let mut cands: Vec<IExpr> = cands.into_iter().map(|(_, e)| e).collect();
    let temp_base = cl.num_temps;
    let mut lets: Vec<Stmt> = Vec::new();
    for i in 0..cands.len() {
        let temp = temp_base + i;
        let (head, tail) = cands.split_at_mut(i + 1);
        let key = format!("{}", head[i]);
        let subst = |x: &IExpr| {
            if format!("{x}") == key {
                Some(IExpr::Temp(temp))
            } else {
                None
            }
        };
        for s in &mut cl.stmts {
            let v = s.value().rewrite(&subst);
            *s.value_mut() = v;
        }
        for later in tail.iter_mut() {
            *later = later.rewrite(&subst);
        }
        lets.push(Stmt::Let {
            temp,
            value: head[i].clone(),
        });
    }
    // Dead-let elimination: a candidate whose occurrences all sat inside
    // other candidates can end up with zero remaining reads; emitting it
    // would compute a per-point value nobody consumes (MPX008). Liveness
    // flows backward — later lets may read earlier temps, never the
    // reverse — then survivors are renumbered densely.
    let mut live = vec![false; lets.len()];
    let mark = |e: &IExpr, live: &mut Vec<bool>| {
        e.visit_temps(&mut |t| {
            if t >= temp_base {
                live[t - temp_base] = true;
            }
        })
    };
    for s in &cl.stmts {
        mark(s.value(), &mut live);
    }
    for i in (0..lets.len()).rev() {
        if live[i] {
            let v = lets[i].value().clone();
            mark(&v, &mut live);
        }
    }
    let mut remap: HashMap<usize, usize> = HashMap::new();
    let mut kept: Vec<Stmt> = Vec::new();
    for (i, l) in lets.into_iter().enumerate() {
        if live[i] {
            remap.insert(temp_base + i, temp_base + remap.len());
            kept.push(l);
        }
    }
    let renumber = |x: &IExpr| match x {
        IExpr::Temp(t) => remap.get(t).map(|&n| IExpr::Temp(n)),
        _ => None,
    };
    for s in kept.iter_mut().chain(cl.stmts.iter_mut()) {
        let v = s.value().rewrite(&renumber);
        *s.value_mut() = v;
    }
    cl.num_temps = temp_base + kept.len();
    // Prepend lets (their definitions contain no temps of later lets by
    // the sort order above).
    kept.append(&mut cl.stmts);
    cl.stmts = kept;
}

fn count_subtrees(e: &IExpr, counts: &mut HashMap<String, (IExpr, usize)>) {
    match e {
        IExpr::Add(xs) | IExpr::Mul(xs) => {
            for x in xs {
                count_subtrees(x, counts);
            }
        }
        IExpr::Pow(b, _) => count_subtrees(b, counts),
        IExpr::Func(_, b) => count_subtrees(b, counts),
        _ => {}
    }
    if !e.is_grid_invariant() && e.size() >= 2 {
        let key = format!("{e}");
        counts
            .entry(key)
            .and_modify(|(_, n)| *n += 1)
            .or_insert((e.clone(), 1));
    }
}

// ---------------------------------------------------------------------------
// IET-level: HaloSpot lowering per MPI mode
// ---------------------------------------------------------------------------

/// Lower `HaloSpot` nodes to exchange calls (§III g/h). The patterns
/// lower alike except for overlap:
///
/// * **without overlap** (*basic*, *diagonal*) — `HaloUpdate`
///   (synchronous) followed by the spot's body unchanged (Listing 6 /
///   Listing 7);
/// * **with overlap** (*full*) — `HaloUpdate[async]`, the body's loop
///   nest restricted to CORE, `HaloWait`, then the same nest over
///   REMAINDER (Listing 8). Spots with no enclosed loop (hoisted pre-loop
///   exchanges) lower synchronously either way.
pub fn lower_halo_spots(iet: Node, overlap: bool) -> Node {
    iet.map_children(&|n| match n {
        Node::HaloSpot { exchanges, body } => {
            if exchanges.is_empty() {
                return body;
            }
            let has_loop = body.iter().any(|b| matches!(b, Node::SpaceLoop { .. }));
            if !(overlap && has_loop) {
                let mut out = vec![Node::HaloUpdate {
                    exchanges,
                    is_async: false,
                }];
                out.extend(body);
                return out;
            }
            let mut out = vec![Node::HaloUpdate {
                exchanges: exchanges.clone(),
                is_async: true,
            }];
            // CORE copies of each loop.
            for b in &body {
                if let Node::SpaceLoop {
                    cluster,
                    block,
                    parallel,
                    ..
                } = b
                {
                    out.push(Node::SpaceLoop {
                        cluster: cluster.clone(),
                        region: RegionKind::Core,
                        block: *block,
                        parallel: *parallel,
                    });
                }
            }
            out.push(Node::HaloWait {
                exchanges: exchanges.clone(),
            });
            for b in body {
                if let Node::SpaceLoop {
                    cluster,
                    block,
                    parallel,
                    ..
                } = b
                {
                    out.push(Node::SpaceLoop {
                        cluster,
                        region: RegionKind::Remainder,
                        block,
                        parallel,
                    });
                } else {
                    out.push(b);
                }
            }
            vec![Node::Section {
                name: "overlap".into(),
                body: out,
            }]
        }
        other => vec![other],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::clusterize;
    use crate::halo::detect_halo_exchanges;
    use crate::iet::build_iet;
    use crate::lowering::lower_equations;
    use mpix_symbolic::{Context, Eq, Grid};

    fn diffusion_clusters() -> (Vec<Cluster>, Context) {
        let mut ctx = Context::new();
        let g = Grid::new(&[8, 8], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 2, 1);
        let eq = Eq::new(u.dt(), u.laplace());
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        (clusterize(&lower_equations(&[st], &ctx).unwrap()), ctx)
    }

    #[test]
    fn params_are_extracted_for_spacing_terms() {
        let (mut cls, _ctx) = diffusion_clusters();
        let mut next = 0;
        cse_cluster(&mut cls[0], &mut next);
        // Listing 11: r0 = 1/dt-like and 1/h^2-like parameters appear.
        assert!(!cls[0].params.is_empty(), "no parameters extracted");
        // All parameter definitions are grid-invariant.
        for (_, def) in &cls[0].params {
            assert!(def.is_grid_invariant());
        }
        // Statement values no longer contain raw spacing symbols inside
        // products with loads (they reference Params instead).
        let mut found_param = false;
        for s in &cls[0].stmts {
            let mut walk = |e: &IExpr| {
                if matches!(e, IExpr::Param(_)) {
                    found_param = true;
                }
            };
            fn visit(e: &IExpr, f: &mut impl FnMut(&IExpr)) {
                f(e);
                match e {
                    IExpr::Add(xs) | IExpr::Mul(xs) => xs.iter().for_each(|x| visit(x, f)),
                    IExpr::Pow(b, _) => visit(b, f),
                    _ => {}
                }
            }
            visit(s.value(), &mut walk);
        }
        assert!(found_param);
    }

    #[test]
    fn repeated_subtrees_become_temps() {
        use crate::iexpr::IdxAccess;
        use mpix_symbolic::FieldId;
        // Build a cluster with a deliberately repeated compound subtree.
        let load = IExpr::Load(IdxAccess {
            field: FieldId(0),
            time_offset: 0,
            deltas: vec![0, 0],
        });
        let rep = IExpr::Mul(vec![IExpr::Const(-2.0), load.clone()]);
        let mut cl = Cluster {
            stmts: vec![Stmt::Store {
                target: IdxAccess {
                    field: FieldId(0),
                    time_offset: 1,
                    deltas: vec![0, 0],
                },
                value: IExpr::Add(vec![
                    rep.clone(),
                    IExpr::Mul(vec![IExpr::Sym("a".into()), rep]),
                ]),
            }],
            params: vec![],
            num_temps: 0,
        };
        let mut next = 0;
        cse_cluster(&mut cl, &mut next);
        assert!(
            cl.num_temps >= 1,
            "expected a temp for the repeated subtree"
        );
        assert!(matches!(cl.stmts[0], Stmt::Let { .. }));
    }

    #[test]
    fn basic_lowering_emits_sync_update() {
        let (cls, ctx) = diffusion_clusters();
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = build_iet(cls, &plan, "Kernel", 0, true);
        let low = lower_halo_spots(iet, false);
        assert_eq!(low.count(&|n| matches!(n, Node::HaloSpot { .. })), 0);
        assert_eq!(
            low.count(&|n| matches!(
                n,
                Node::HaloUpdate {
                    is_async: false,
                    ..
                }
            )),
            1
        );
        assert_eq!(low.count(&|n| matches!(n, Node::HaloWait { .. })), 0);
    }

    #[test]
    fn full_lowering_splits_core_and_remainder() {
        let (cls, ctx) = diffusion_clusters();
        let plan = detect_halo_exchanges(&cls, &ctx);
        let iet = build_iet(cls, &plan, "Kernel", 0, true);
        let low = lower_halo_spots(iet, true);
        assert_eq!(
            low.count(&|n| matches!(n, Node::HaloUpdate { is_async: true, .. })),
            1
        );
        assert_eq!(low.count(&|n| matches!(n, Node::HaloWait { .. })), 1);
        assert_eq!(
            low.count(&|n| matches!(
                n,
                Node::SpaceLoop {
                    region: RegionKind::Core,
                    ..
                }
            )),
            1
        );
        assert_eq!(
            low.count(&|n| matches!(
                n,
                Node::SpaceLoop {
                    region: RegionKind::Remainder,
                    ..
                }
            )),
            1
        );
        // Order inside the overlap section: update, core, wait, remainder.
        fn find_section(n: &Node) -> Option<&Vec<Node>> {
            match n {
                Node::Section { name, body } if name == "overlap" => Some(body),
                Node::Callable { body, .. } | Node::TimeLoop { body } => {
                    body.iter().find_map(find_section)
                }
                _ => None,
            }
        }
        let body = find_section(&low).expect("overlap section");
        assert!(matches!(body[0], Node::HaloUpdate { is_async: true, .. }));
        assert!(matches!(
            body[1],
            Node::SpaceLoop {
                region: RegionKind::Core,
                ..
            }
        ));
        assert!(matches!(body[2], Node::HaloWait { .. }));
        assert!(matches!(
            body[3],
            Node::SpaceLoop {
                region: RegionKind::Remainder,
                ..
            }
        ));
    }

    #[test]
    fn empty_halospot_dissolves() {
        let iet = Node::Callable {
            name: "k".into(),
            params: vec![],
            body: vec![Node::HaloSpot {
                exchanges: vec![],
                body: vec![],
            }],
        };
        let low = lower_halo_spots(iet, false);
        assert_eq!(low.count(&|n| matches!(n, Node::HaloUpdate { .. })), 0);
    }
}
