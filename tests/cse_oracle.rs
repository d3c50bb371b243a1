//! Integration: the value-numbered CSE (`mpix::ir::passes::cse_cluster`)
//! checked against the string-keyed pass it replaced, kept here as a
//! test-only oracle. For every shipped solver at SDO 2–16 the post-CSE
//! clusters must be equal, and the serve cache key (`content_key`) the
//! same in every mode on every runtime backend.
//!
//! The oracle keys subtrees by their printed form, which shows
//! non-integer constants to 6 decimals and nested products without
//! parentheses; no shipped operator has two subtrees that print alike
//! but differ, so on them the two passes must agree exactly.

use std::hash::{Hash, Hasher};

use mpix::codegen::{bytecode_listing, cgen::emit_c};
use mpix::ir::cluster::{clusterize, Cluster};
use mpix::ir::halo::detect_halo_exchanges;
use mpix::ir::iet::build_iet;
use mpix::ir::lowering::lower_equations;
use mpix::ir::passes::{cse_cluster, lower_halo_spots};
use mpix::prelude::*;
use mpix::solvers::{acoustic, elastic, tti, viscoelastic, ModelSpec};

/// The string-keyed parameter extraction and CSE, as they were before
/// value numbering.
mod oracle {
    use std::collections::HashMap;

    use mpix::ir::cluster::{Cluster, Stmt};
    use mpix::ir::iexpr::IExpr;

    pub fn cse_cluster(cl: &mut Cluster, next_param: &mut usize) {
        extract_params(cl, next_param);
        extract_temps(cl);
    }

    fn size(e: &IExpr) -> usize {
        match e {
            IExpr::Add(xs) | IExpr::Mul(xs) => 1 + xs.iter().map(size).sum::<usize>(),
            IExpr::Pow(b, _) | IExpr::Func(_, b) => 1 + size(b),
            _ => 1,
        }
    }

    fn extract_params(cl: &mut Cluster, next_param: &mut usize) {
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

    fn worth_hoisting(e: &IExpr) -> bool {
        matches!(
            e,
            IExpr::Pow(_, _) | IExpr::Add(_) | IExpr::Mul(_) | IExpr::Func(_, _)
        )
    }

    fn extract_temps(cl: &mut Cluster) {
        let mut counts: HashMap<String, (IExpr, usize)> = HashMap::new();
        for s in &cl.stmts {
            count_subtrees(s.value(), &mut counts);
        }
        let written: Vec<(mpix::symbolic::FieldId, i32)> = cl.writes();
        let reads_written = |e: &IExpr| {
            let mut hit = false;
            e.visit_loads(&mut |a| {
                if written.contains(&(a.field, a.time_offset)) {
                    hit = true;
                }
            });
            hit
        };
        let mut cands: Vec<(String, IExpr)> = counts
            .into_iter()
            .filter(|(_, (e, n))| {
                *n >= 2 && !e.is_grid_invariant() && size(e) >= 2 && !reads_written(e)
            })
            .map(|(k, (e, _))| (k, e))
            .collect();
        cands.sort_by_key(|(k, e)| (size(e), k.clone()));
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
        if !e.is_grid_invariant() && size(e) >= 2 {
            let key = format!("{e}");
            counts
                .entry(key)
                .and_modify(|(_, n)| *n += 1)
                .or_insert((e.clone(), 1));
        }
    }
}

type Equations = fn(&ModelSpec, u32) -> (Context, Grid, Vec<Eq>);

/// Pre-CSE clusters of one operator, as `Operator::build` clusterizes it.
fn clusters(ctx: &Context, eqs: &[Eq]) -> Vec<Cluster> {
    clusterize(&lower_equations(eqs, ctx).unwrap())
}

fn run_cse(mut cls: Vec<Cluster>, cse: fn(&mut Cluster, &mut usize)) -> Vec<Cluster> {
    let mut next_param = 0;
    for cl in &mut cls {
        cse(cl, &mut next_param);
    }
    cls
}

/// `Operator::content_key` computed from explicit post-CSE clusters: the
/// same lowering and the same hashed emissions. `ctx` must be the
/// operator's own (`op.ctx()`, with its stencil-reach halos): the C
/// emission indexes every access through the allocated halo.
fn content_key(cls: &[Cluster], ctx: &Context, opts: &ApplyOptions) -> u64 {
    let plan = detect_halo_exchanges(cls, ctx);
    let iet = build_iet(cls.to_vec(), &plan, "Kernel", 0, true);
    let lowered = lower_halo_spots(iet, opts.mode.overlaps_computation());
    let mut h = std::collections::hash_map::DefaultHasher::new();
    emit_c(&lowered, ctx).hash(&mut h);
    bytecode_listing(&lowered).hash(&mut h);
    opts.backend.to_string().hash(&mut h);
    h.finish()
}

fn matches_oracle(name: &str, equations: Equations) {
    let spec = ModelSpec::new(&[12, 12, 12]).with_nbl(2);
    for so in (2..=16).step_by(2) {
        let (ctx, grid, eqs) = equations(&spec, so);
        let pre = clusters(&ctx, &eqs);
        let new = run_cse(pre.clone(), cse_cluster);
        let old = run_cse(pre, oracle::cse_cluster);
        assert_eq!(
            format!("{new:?}"),
            format!("{old:?}"),
            "{name} SDO {so}: post-CSE clusters differ from the oracle"
        );
        let op = Operator::build(ctx, grid, eqs).unwrap();
        assert_eq!(format!("{:?}", op.clusters()), format!("{new:?}"));
        for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
            for backend in [Backend::Bytecode, Backend::Jit] {
                let opts = ApplyOptions::default()
                    .with_mode(mode)
                    .with_backend(backend);
                let key = op.content_key(&opts);
                assert_eq!(key, content_key(&new, op.ctx(), &opts), "{name} SDO {so}");
                assert_eq!(
                    key,
                    content_key(&old, op.ctx(), &opts),
                    "{name} SDO {so} {mode:?} {backend}: content_key differs from the oracle's"
                );
            }
        }
    }
}

#[test]
fn acoustic_matches_string_keyed_oracle() {
    matches_oracle("acoustic", acoustic::equations);
}

#[test]
fn elastic_matches_string_keyed_oracle() {
    matches_oracle("elastic", elastic::equations);
}

#[test]
fn tti_matches_string_keyed_oracle() {
    matches_oracle("tti", tti::equations);
}

#[test]
fn viscoelastic_matches_string_keyed_oracle() {
    matches_oracle("viscoelastic", viscoelastic::equations);
}
