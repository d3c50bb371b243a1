//! Indexed expressions: the post-lowering expression form.
//!
//! After discretization and index alignment, every field access is a
//! concrete array access: a field, a relative time-buffer offset, and an
//! integer index delta per dimension. This is the form the paper's
//! generated C operates on (`u[t0][x + 2][y + 2]`), before the `+ halo`
//! alignment shift which the backends apply when emitting/executing.

use std::fmt;

use mpix_symbolic::{Context, FieldId, UnaryFn};

/// A concrete array access.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct IdxAccess {
    pub field: FieldId,
    /// Relative time-buffer offset (`+1` = the buffer being written).
    pub time_offset: i32,
    /// Array-index delta per spatial dimension.
    pub deltas: Vec<i32>,
}

impl IdxAccess {
    /// Largest absolute delta along `d` — the stencil radius
    /// contribution of this access.
    pub fn radius(&self, d: usize) -> usize {
        self.deltas[d].unsigned_abs() as usize
    }
}

/// An indexed expression: like [`mpix_symbolic::Expr`] but with concrete
/// accesses, per-point temporaries and precomputed parameters.
#[derive(Clone, PartialEq, Debug)]
pub enum IExpr {
    Const(f64),
    /// A named runtime scalar (`dt`, `h_x`, …).
    Sym(String),
    /// A field load.
    Load(IdxAccess),
    /// A per-point temporary introduced by CSE (`r3` in Listing 11).
    Temp(usize),
    /// A loop-invariant precomputed parameter (`r0`, `r1` in Listing 11).
    Param(usize),
    Add(Vec<IExpr>),
    Mul(Vec<IExpr>),
    Pow(Box<IExpr>, i32),
    /// A pointwise elementary function (`sqrt`, `sin`, …).
    Func(UnaryFn, Box<IExpr>),
}

impl IExpr {
    /// Convert a fully lowered symbolic expression, mapping each access's
    /// half-step offsets to array-index deltas relative to the given
    /// evaluation lattice.
    pub fn from_symbolic(
        e: &mpix_symbolic::Expr,
        ctx: &Context,
        eval_stagger: &[mpix_symbolic::Stagger],
    ) -> IExpr {
        use mpix_symbolic::Expr as E;
        match e {
            E::Const(c) => IExpr::Const(*c),
            E::Sym(s) => IExpr::Sym(s.name().to_string()),
            E::Acc(a) => IExpr::Load(IdxAccess {
                field: a.field,
                time_offset: a.time_offset,
                deltas: mpix_symbolic::eq::access_index_deltas(a, ctx, eval_stagger),
            }),
            E::Add(xs) => IExpr::Add(
                xs.iter()
                    .map(|x| IExpr::from_symbolic(x, ctx, eval_stagger))
                    .collect(),
            ),
            E::Mul(xs) => IExpr::Mul(
                xs.iter()
                    .map(|x| IExpr::from_symbolic(x, ctx, eval_stagger))
                    .collect(),
            ),
            E::Pow(b, e2) => IExpr::Pow(Box::new(IExpr::from_symbolic(b, ctx, eval_stagger)), *e2),
            E::Func(fx, b) => {
                IExpr::Func(*fx, Box::new(IExpr::from_symbolic(b, ctx, eval_stagger)))
            }
            E::Deriv { .. } => panic!("cannot index an underived expression"),
        }
    }

    /// Visit every load in the expression.
    pub fn visit_loads(&self, f: &mut impl FnMut(&IdxAccess)) {
        self.visit(&mut |e| {
            if let IExpr::Load(a) = e {
                f(a)
            }
        });
    }

    /// Pre-order walk over every node of the expression tree. The
    /// generic traversal the dataflow lints (`mpix-analysis::lint`) and
    /// ad-hoc passes build on, so each analysis does not re-implement
    /// the recursion over the node shapes.
    pub fn visit(&self, f: &mut impl FnMut(&IExpr)) {
        f(self);
        match self {
            IExpr::Add(xs) | IExpr::Mul(xs) => xs.iter().for_each(|x| x.visit(f)),
            IExpr::Pow(b, _) => b.visit(f),
            IExpr::Func(_, b) => b.visit(f),
            _ => {}
        }
    }

    /// Visit every per-point temporary index read by the expression.
    pub fn visit_temps(&self, f: &mut impl FnMut(usize)) {
        self.visit(&mut |e| {
            if let IExpr::Temp(i) = e {
                f(*i)
            }
        });
    }

    /// Does the expression contain only `Const`/`Sym`/`Param` leaves
    /// (i.e. is loop-invariant)?
    pub fn is_grid_invariant(&self) -> bool {
        match self {
            IExpr::Const(_) | IExpr::Sym(_) | IExpr::Param(_) => true,
            IExpr::Load(_) | IExpr::Temp(_) => false,
            IExpr::Add(xs) | IExpr::Mul(xs) => xs.iter().all(|x| x.is_grid_invariant()),
            IExpr::Pow(b, _) => b.is_grid_invariant(),
            IExpr::Func(_, b) => b.is_grid_invariant(),
        }
    }

    /// Rewrite sub-expressions bottom-up through `f`.
    pub fn rewrite(&self, f: &impl Fn(&IExpr) -> Option<IExpr>) -> IExpr {
        let walked = match self {
            IExpr::Add(xs) => IExpr::Add(xs.iter().map(|x| x.rewrite(f)).collect()),
            IExpr::Mul(xs) => IExpr::Mul(xs.iter().map(|x| x.rewrite(f)).collect()),
            IExpr::Pow(b, e) => IExpr::Pow(Box::new(b.rewrite(f)), *e),
            IExpr::Func(fx, b) => IExpr::Func(*fx, Box::new(b.rewrite(f))),
            other => other.clone(),
        };
        f(&walked).unwrap_or(walked)
    }
}

impl fmt::Display for IExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IExpr::Const(c) => {
                if *c == c.trunc() && c.abs() < 1e15 {
                    write!(f, "{}", *c as i64)
                } else {
                    write!(f, "{c:.6}")
                }
            }
            IExpr::Sym(s) => write!(f, "{s}"),
            IExpr::Temp(i) => write!(f, "tmp{i}"),
            IExpr::Param(i) => write!(f, "r{i}"),
            IExpr::Load(a) => {
                write!(f, "F{}[t{:+}", a.field.0, a.time_offset)?;
                for d in &a.deltas {
                    write!(f, ",{d:+}")?;
                }
                write!(f, "]")
            }
            IExpr::Add(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            IExpr::Mul(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "*")?;
                    }
                    write!(f, "{x}")?;
                }
                Ok(())
            }
            IExpr::Pow(b, e) => write!(f, "({b})^{e}"),
            IExpr::Func(fx, b) => write!(f, "{}({b})", fx.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_symbolic::{Context, Grid, Stagger};

    #[test]
    fn from_symbolic_maps_offsets_to_deltas() {
        let mut ctx = Context::new();
        let g = Grid::new(&[8, 8], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 2, 2);
        let e = u.at(0, &[-1, 2]);
        let ie = IExpr::from_symbolic(&e, &ctx, &[Stagger::Node, Stagger::Node]);
        match ie {
            IExpr::Load(a) => {
                assert_eq!(a.deltas, vec![-1, 2]);
                assert_eq!(a.time_offset, 0);
                assert_eq!(a.radius(1), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn grid_invariance() {
        let e = IExpr::Mul(vec![IExpr::Sym("dt".into()), IExpr::Const(2.0)]);
        assert!(e.is_grid_invariant());
        let l = IExpr::Load(IdxAccess {
            field: mpix_symbolic::FieldId(0),
            time_offset: 0,
            deltas: vec![0],
        });
        assert!(!l.is_grid_invariant());
        assert!(!IExpr::Add(vec![e, l]).is_grid_invariant());
    }

    #[test]
    fn rewrite_replaces_subtrees() {
        let e = IExpr::Add(vec![IExpr::Sym("a".into()), IExpr::Sym("b".into())]);
        let r = e.rewrite(&|x| match x {
            IExpr::Sym(s) if s == "a" => Some(IExpr::Const(1.0)),
            _ => None,
        });
        assert_eq!(
            r,
            IExpr::Add(vec![IExpr::Const(1.0), IExpr::Sym("b".into())])
        );
    }
}
