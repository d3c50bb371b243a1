//! Compiler passes: flop-reducing transformations at the Cluster level
//! and HaloSpot lowering at the IET level (paper §II, §III g/h).

use std::collections::HashMap;

use mpix_symbolic::UnaryFn;

use crate::cluster::{Cluster, Stmt};
use crate::iet::{Node, RegionKind};
use crate::iexpr::{IExpr, IdxAccess};

// ---------------------------------------------------------------------------
// Cluster-level: parameter extraction + CSE
// ---------------------------------------------------------------------------

/// Extract loop-invariant sub-expressions into parameters (`r0 = 1/dt`,
/// `r1 = 1/(h_x*h_x)`, … — loop-invariant code motion) and repeated
/// grid-varying sub-expressions into per-point temporaries (`tmp0 =
/// -2*u[t0][x+2][y+2]` — CSE), as in Listing 11.
///
/// Both passes work on value numbers (a hash-cons table): two subtrees
/// share a parameter or a temporary exactly when they are structurally
/// equal, constants compared bit for bit.
///
/// `next_param` numbers parameters globally across clusters.
pub fn cse_cluster(cl: &mut Cluster, next_param: &mut usize) {
    extract_params(cl, next_param);
    extract_temps(cl);
}

/// The variant of an expression node with its children replaced by their
/// value numbers — the hash-cons key.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Shape {
    /// Keyed by `f64::to_bits`: `0.1234561` and `0.1234564` (or `0.0`
    /// and `-0.0`) are different values.
    Const(u64),
    Sym(String),
    Load(IdxAccess),
    Temp(usize),
    Param(usize),
    Add(Vec<usize>),
    Mul(Vec<usize>),
    Pow(usize, i32),
    Func(UnaryFn, usize),
}

/// One value number: its shape plus the facts CSE asks of every node,
/// each computed once.
struct Value {
    shape: Shape,
    /// Node count of the subtree ([`IExpr`] nodes).
    size: usize,
    /// Only `Const`/`Sym`/`Param` leaves: loop-invariant.
    invariant: bool,
    /// Occurrences numbered through [`ValueTable::number`], nested ones
    /// included.
    uses: usize,
}

/// Bottom-up value numbering of expression trees (a hash-cons table):
/// structurally equal subtrees get the same id, so counting and
/// matching subtrees is a table lookup instead of a printed-string
/// comparison.
#[derive(Default)]
struct ValueTable {
    ids: HashMap<Shape, usize>,
    values: Vec<Value>,
}

impl ValueTable {
    /// Value number of `e`, counting one use of it and of every subtree.
    fn number(&mut self, e: &IExpr) -> usize {
        let shape = match e {
            IExpr::Const(c) => Shape::Const(c.to_bits()),
            IExpr::Sym(s) => Shape::Sym(s.clone()),
            IExpr::Load(a) => Shape::Load(a.clone()),
            IExpr::Temp(t) => Shape::Temp(*t),
            IExpr::Param(p) => Shape::Param(*p),
            IExpr::Add(xs) => Shape::Add(xs.iter().map(|x| self.number(x)).collect()),
            IExpr::Mul(xs) => Shape::Mul(xs.iter().map(|x| self.number(x)).collect()),
            IExpr::Pow(b, k) => Shape::Pow(self.number(b), *k),
            IExpr::Func(f, b) => Shape::Func(*f, self.number(b)),
        };
        let id = self.intern(shape);
        self.values[id].uses += 1;
        id
    }

    /// Value number of `shape`, whose children are already numbered.
    fn intern(&mut self, shape: Shape) -> usize {
        if let Some(&id) = self.ids.get(&shape) {
            return id;
        }
        let (size, invariant) = match &shape {
            Shape::Const(_) | Shape::Sym(_) | Shape::Param(_) => (1, true),
            Shape::Load(_) | Shape::Temp(_) => (1, false),
            Shape::Add(xs) | Shape::Mul(xs) => xs.iter().fold((1, true), |(n, inv), &x| {
                (n + self.values[x].size, inv && self.values[x].invariant)
            }),
            Shape::Pow(b, _) | Shape::Func(_, b) => {
                (1 + self.values[*b].size, self.values[*b].invariant)
            }
        };
        let id = self.values.len();
        self.ids.insert(shape.clone(), id);
        self.values.push(Value {
            shape,
            size,
            invariant,
            uses: 0,
        });
        id
    }

    /// The expression numbered `id`, with every outermost subtree whose
    /// id `subst` maps replaced by that expression.
    fn rebuild(&self, id: usize, subst: &impl Fn(usize) -> Option<IExpr>) -> IExpr {
        subst(id).unwrap_or_else(|| self.expand(id, subst))
    }

    /// Like [`rebuild`](Self::rebuild), but `id` itself is never
    /// replaced — only its proper subtrees.
    fn expand(&self, id: usize, subst: &impl Fn(usize) -> Option<IExpr>) -> IExpr {
        let kids = |xs: &[usize]| xs.iter().map(|&x| self.rebuild(x, subst)).collect();
        match &self.values[id].shape {
            Shape::Const(bits) => IExpr::Const(f64::from_bits(*bits)),
            Shape::Sym(s) => IExpr::Sym(s.clone()),
            Shape::Load(a) => IExpr::Load(a.clone()),
            Shape::Temp(t) => IExpr::Temp(*t),
            Shape::Param(p) => IExpr::Param(*p),
            Shape::Add(xs) => IExpr::Add(kids(xs)),
            Shape::Mul(xs) => IExpr::Mul(kids(xs)),
            Shape::Pow(b, k) => IExpr::Pow(Box::new(self.rebuild(*b, subst)), *k),
            Shape::Func(f, b) => IExpr::Func(*f, Box::new(self.rebuild(*b, subst))),
        }
    }

    /// The expression numbered `id`, unchanged.
    fn expr(&self, id: usize) -> IExpr {
        self.expand(id, &|_| None)
    }

    /// Hoist only if it saves work at run time: divisions (negative
    /// powers), powers, or compound expressions.
    fn worth_hoisting(&self, id: usize) -> bool {
        matches!(
            self.values[id].shape,
            Shape::Pow(..) | Shape::Add(_) | Shape::Mul(_) | Shape::Func(..)
        )
    }
}

/// Parameters of one cluster: the value number of each definition and
/// the parameter index given to it.
struct Params {
    base: usize,
    defs: Vec<usize>,
    index: HashMap<usize, usize>,
}

impl Params {
    fn of(&mut self, id: usize) -> usize {
        if let Some(&p) = self.index.get(&id) {
            return p;
        }
        let p = self.base + self.defs.len();
        self.defs.push(id);
        self.index.insert(id, p);
        p
    }
}

fn extract_params(cl: &mut Cluster, next_param: &mut usize) {
    // Collect maximal grid-invariant, non-trivial subtrees.
    let mut vt = ValueTable::default();
    let mut params = Params {
        base: *next_param,
        defs: Vec::new(),
        index: HashMap::new(),
    };
    for s in &mut cl.stmts {
        let root = vt.number(s.value());
        *s.value_mut() = hoist_invariant(&mut vt, root, &mut params);
    }
    for (i, &def) in params.defs.iter().enumerate() {
        cl.params.push((params.base + i, vt.expr(def)));
    }
    *next_param = params.base + cl.params.len();
}

/// Replace maximal invariant subtrees with `Param` references.
fn hoist_invariant(vt: &mut ValueTable, id: usize, params: &mut Params) -> IExpr {
    if vt.values[id].invariant && vt.worth_hoisting(id) {
        return IExpr::Param(params.of(id));
    }
    match vt.values[id].shape.clone() {
        Shape::Add(xs) => IExpr::Add(
            xs.into_iter()
                .map(|x| hoist_invariant(vt, x, params))
                .collect(),
        ),
        Shape::Mul(xs) => {
            // Group the invariant factors of a mixed product, so
            // `c * (1/h_x^2) * load` hoists `c/h_x^2` as one parameter.
            let (inv, var): (Vec<usize>, Vec<usize>) =
                xs.into_iter().partition(|&x| vt.values[x].invariant);
            let mut out: Vec<IExpr> = Vec::with_capacity(inv.len() + var.len());
            if inv.len() >= 2 || (inv.len() == 1 && vt.worth_hoisting(inv[0])) {
                let packed = if inv.len() == 1 {
                    inv[0]
                } else {
                    vt.intern(Shape::Mul(inv))
                };
                out.push(hoist_invariant(vt, packed, params));
            } else {
                out.extend(inv.into_iter().map(|x| vt.expr(x)));
            }
            for v in var {
                out.push(hoist_invariant(vt, v, params));
            }
            if out.len() == 1 {
                out.pop().unwrap()
            } else {
                IExpr::Mul(out)
            }
        }
        Shape::Pow(b, k) => IExpr::Pow(Box::new(hoist_invariant(vt, b, params)), k),
        Shape::Func(f, b) => IExpr::Func(f, Box::new(hoist_invariant(vt, b, params))),
        _ => vt.expr(id),
    }
}

fn extract_temps(cl: &mut Cluster) {
    // Count non-trivial grid-varying subtrees across all stores.
    let mut vt = ValueTable::default();
    let roots: Vec<usize> = cl.stmts.iter().map(|s| vt.number(s.value())).collect();
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
    // Deterministic order — size, then printed form, then first
    // occurrence; smaller subtrees first so bigger candidates can
    // reference the temps of smaller ones (a contained subtree is
    // strictly smaller, so it always has the earlier temp).
    let mut cands: Vec<(usize, String, usize)> = vt
        .values
        .iter()
        .enumerate()
        .filter(|(_, v)| v.uses >= 2 && !v.invariant && v.size >= 2)
        .filter_map(|(id, v)| {
            let e = vt.expr(id);
            (!reads_written(&e)).then(|| (v.size, format!("{e}"), id))
        })
        .collect();
    cands.sort_unstable();
    if cands.is_empty() {
        return;
    }
    let temp_base = cl.num_temps;
    let mut temp_of: Vec<Option<usize>> = vec![None; vt.values.len()];
    for (i, &(_, _, id)) in cands.iter().enumerate() {
        temp_of[id] = Some(temp_base + i);
    }
    // Each statement and each candidate definition is rebuilt once, its
    // outermost candidate subtrees replaced by their temps.
    let subst = |id: usize| temp_of[id].map(IExpr::Temp);
    let lets: Vec<Stmt> = cands
        .iter()
        .enumerate()
        .map(|(i, &(_, _, id))| Stmt::Let {
            temp: temp_base + i,
            value: vt.expand(id, &subst),
        })
        .collect();
    for (s, &root) in cl.stmts.iter_mut().zip(&roots) {
        *s.value_mut() = vt.rebuild(root, &subst);
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

    fn load(field: u32) -> IExpr {
        IExpr::Load(IdxAccess {
            field: mpix_symbolic::FieldId(field),
            time_offset: 0,
            deltas: vec![0, 0],
        })
    }

    /// A cluster storing `value` to a field no load reads.
    fn store(value: IExpr) -> Cluster {
        Cluster {
            stmts: vec![Stmt::Store {
                target: IdxAccess {
                    field: mpix_symbolic::FieldId(9),
                    time_offset: 1,
                    deltas: vec![0, 0],
                },
                value,
            }],
            params: vec![],
            num_temps: 0,
        }
    }

    // The three collision tests below pin cases a printed-string key
    // merges: constants equal to 6 decimals, and products that print
    // alike but group differently.

    #[test]
    fn constants_equal_to_six_decimals_stay_two_params() {
        let c = |v: f64| IExpr::Mul(vec![IExpr::Const(v), IExpr::Sym("dt".into()), load(0)]);
        let mut cl = store(IExpr::Add(vec![c(0.1234561), c(0.1234564)]));
        cse_cluster(&mut cl, &mut 0);
        let defs: Vec<&IExpr> = cl.params.iter().map(|(_, d)| d).collect();
        let dt = |v: f64| IExpr::Mul(vec![IExpr::Const(v), IExpr::Sym("dt".into())]);
        assert_eq!(defs, [&dt(0.1234561), &dt(0.1234564)]);
    }

    #[test]
    fn constants_equal_to_six_decimals_stay_two_temps() {
        let a = IExpr::Mul(vec![IExpr::Const(0.1234561), load(0)]);
        let b = IExpr::Mul(vec![IExpr::Const(0.1234564), load(0)]);
        let scaled = |s: &str, e: &IExpr| IExpr::Mul(vec![IExpr::Sym(s.into()), e.clone()]);
        let mut cl = store(IExpr::Add(vec![
            a.clone(),
            scaled("p", &a),
            b.clone(),
            scaled("q", &b),
        ]));
        cse_cluster(&mut cl, &mut 0);
        assert_eq!(cl.num_temps, 2);
        let lets: Vec<&IExpr> = cl.stmts[..2].iter().map(Stmt::value).collect();
        assert_eq!(lets, [&a, &b]);
        assert_eq!(
            *cl.stmts[2].value(),
            IExpr::Add(vec![
                IExpr::Temp(0),
                scaled("p", &IExpr::Temp(0)),
                IExpr::Temp(1),
                scaled("q", &IExpr::Temp(1)),
            ])
        );
    }

    #[test]
    fn differently_grouped_products_are_not_merged() {
        let left = IExpr::Mul(vec![load(0), IExpr::Mul(vec![load(1), load(2)])]);
        let right = IExpr::Mul(vec![IExpr::Mul(vec![load(0), load(1)]), load(2)]);
        assert_eq!(format!("{left}"), format!("{right}"));
        let value = IExpr::Add(vec![left, right]);
        let mut cl = store(value.clone());
        cse_cluster(&mut cl, &mut 0);
        assert_eq!(cl.num_temps, 0);
        assert_eq!(*cl.stmts[0].value(), value);
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
