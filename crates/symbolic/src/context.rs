//! Field registry: the analogue of Devito's `Function` / `TimeFunction`.
//!
//! A [`Context`] owns the metadata for every grid function appearing in a
//! set of equations. [`FieldHandle`]s are the user-facing objects offering
//! the symbolic accessors of the paper's Listing 1 (`u.dt`, `u.laplace`,
//! `u.forward`, …).

use crate::expr::{Access, DerivDim, Expr};
use crate::grid::Grid;
use crate::simplify::simplify;

/// Identifier of a field within its [`Context`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FieldId(pub u32);

/// Whether a field carries time buffers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FieldKind {
    /// Time-invariant grid data (model parameters, damping masks, …).
    Function,
    /// Time-varying data with `time_order + 1` rotating buffers.
    TimeFunction,
}

/// Per-dimension staggering of a field's sample positions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Stagger {
    /// Samples at integer grid nodes.
    #[default]
    Node,
    /// Samples at half-step positions (`x + 1/2`).
    Half,
}

impl Stagger {
    /// Offset of the sample position in half steps (0 or 1).
    pub fn halves(self) -> i32 {
        match self {
            Stagger::Node => 0,
            Stagger::Half => 1,
        }
    }
}

/// Metadata describing one grid function.
#[derive(Clone, Debug)]
pub struct Field {
    pub id: FieldId,
    pub name: String,
    pub kind: FieldKind,
    /// Global grid shape this field is defined on (the `data` region).
    pub shape: Vec<usize>,
    /// Spatial discretization order: the accuracy of the field's
    /// derivatives, and the allocated halo width until
    /// [`Context::set_halo`] narrows it.
    pub space_order: u32,
    /// Temporal discretization order; `time_order + 1` buffers are kept.
    /// Zero for [`FieldKind::Function`].
    pub time_order: u32,
    /// Per-dimension staggering.
    pub stagger: Vec<Stagger>,
    /// Allocated halo width per side (see [`Field::halo`]).
    halo: u32,
}

impl Field {
    /// Number of rotating time buffers this field needs.
    pub fn time_buffers(&self) -> usize {
        match self.kind {
            FieldKind::Function => 1,
            FieldKind::TimeFunction => self.time_order as usize + 1,
        }
    }

    /// Allocated halo width per side, in every dimension. A freshly
    /// registered field defaults to its space order, as in Devito (the
    /// paper: "assuming u has an SDO of 2, it has, by default, a halo of
    /// size 2"). `Operator::build` narrows every field of the operator's
    /// own context to its stencil reach: the largest radius at which any
    /// cluster reads it (`space_order / 2` for the shipped wavefields, 0
    /// or 1 for most material fields).
    pub fn halo(&self) -> u32 {
        self.halo
    }

    /// Number of spatial dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }
}

/// Registry of fields participating in a set of equations.
#[derive(Clone, Debug, Default)]
pub struct Context {
    fields: Vec<Field>,
}

impl Context {
    pub fn new() -> Context {
        Context::default()
    }

    /// Register a time-invariant `Function` (model parameter).
    pub fn add_function(&mut self, name: &str, grid: &Grid, space_order: u32) -> FieldHandle {
        self.add_field(name, grid, space_order, 0, FieldKind::Function, None)
    }

    /// Register a `TimeFunction` with `time_order + 1` rotating buffers.
    pub fn add_time_function(
        &mut self,
        name: &str,
        grid: &Grid,
        space_order: u32,
        time_order: u32,
    ) -> FieldHandle {
        assert!(time_order >= 1, "time functions need time_order >= 1");
        self.add_field(
            name,
            grid,
            space_order,
            time_order,
            FieldKind::TimeFunction,
            None,
        )
    }

    /// Register a staggered `TimeFunction` (elastic/viscoelastic grids).
    pub fn add_staggered_time_function(
        &mut self,
        name: &str,
        grid: &Grid,
        space_order: u32,
        time_order: u32,
        stagger: &[Stagger],
    ) -> FieldHandle {
        assert_eq!(stagger.len(), grid.ndim());
        self.add_field(
            name,
            grid,
            space_order,
            time_order,
            FieldKind::TimeFunction,
            Some(stagger.to_vec()),
        )
    }

    fn add_field(
        &mut self,
        name: &str,
        grid: &Grid,
        space_order: u32,
        time_order: u32,
        kind: FieldKind,
        stagger: Option<Vec<Stagger>>,
    ) -> FieldHandle {
        assert!(
            space_order >= 2 && space_order % 2 == 0,
            "space order must be even, >= 2"
        );
        assert!(
            self.fields.iter().all(|f| f.name != name),
            "duplicate field name {name:?}"
        );
        let id = FieldId(self.fields.len() as u32);
        let field = Field {
            id,
            name: name.to_string(),
            kind,
            shape: grid.shape.clone(),
            space_order,
            time_order,
            stagger: stagger.unwrap_or_else(|| vec![Stagger::Node; grid.ndim()]),
            halo: space_order,
        };
        self.fields.push(field.clone());
        FieldHandle { meta: field }
    }

    /// Look up a field by id.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.0 as usize]
    }

    /// Set a field's allocated halo width per side (see [`Field::halo`]).
    pub fn set_halo(&mut self, id: FieldId, halo: u32) {
        self.fields[id.0 as usize].halo = halo;
    }

    /// Look up a field by name.
    pub fn field_by_name(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// All registered fields.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Handle for an already-registered field.
    pub fn handle(&self, id: FieldId) -> FieldHandle {
        FieldHandle {
            meta: self.fields[id.0 as usize].clone(),
        }
    }
}

/// User-facing handle providing the symbolic accessors of the DSL.
#[derive(Clone, Debug)]
pub struct FieldHandle {
    meta: Field,
}

impl FieldHandle {
    pub fn id(&self) -> FieldId {
        self.meta.id
    }
    pub fn name(&self) -> &str {
        &self.meta.name
    }
    pub fn meta(&self) -> &Field {
        &self.meta
    }
    pub fn ndim(&self) -> usize {
        self.meta.ndim()
    }
    pub fn space_order(&self) -> u32 {
        self.meta.space_order
    }

    /// Access at time offset `t_off` and spatial offsets (in *full* grid
    /// steps) `offsets`.
    pub fn at(&self, t_off: i32, offsets: &[i32]) -> Expr {
        assert_eq!(offsets.len(), self.meta.ndim());
        Expr::Acc(Access {
            field: self.meta.id,
            time_offset: t_off,
            offsets_h: offsets.iter().map(|&o| 2 * o).collect(),
        })
    }

    /// Access at time offset `t_off` with spatial offsets given directly
    /// in half steps.
    pub fn at_halves(&self, t_off: i32, offsets_h: &[i32]) -> Expr {
        assert_eq!(offsets_h.len(), self.meta.ndim());
        Expr::Acc(Access {
            field: self.meta.id,
            time_offset: t_off,
            offsets_h: offsets_h.to_vec(),
        })
    }

    /// The field at the current time step and evaluation point: `u`.
    pub fn center(&self) -> Expr {
        self.at(0, &vec![0; self.meta.ndim()])
    }

    /// `u.forward` — the field at `t + 1`.
    pub fn forward(&self) -> Expr {
        self.at(1, &vec![0; self.meta.ndim()])
    }

    /// `u.backward` — the field at `t - 1`.
    pub fn backward(&self) -> Expr {
        self.at(-1, &vec![0; self.meta.ndim()])
    }

    /// `u.dt` — first time derivative (forward difference on lowering).
    pub fn dt(&self) -> Expr {
        self.assert_time("dt");
        Expr::Deriv {
            expr: Box::new(self.center()),
            dim: DerivDim::Time,
            order: 1,
            accuracy: self.meta.time_order,
        }
    }

    /// `u.dt2` — second time derivative (central difference on lowering).
    pub fn dt2(&self) -> Expr {
        self.assert_time("dt2");
        assert!(
            self.meta.time_order >= 2,
            "dt2 requires time_order >= 2 on field {:?}",
            self.meta.name
        );
        Expr::Deriv {
            expr: Box::new(self.center()),
            dim: DerivDim::Time,
            order: 2,
            accuracy: self.meta.time_order,
        }
    }

    /// First spatial derivative along dimension `d` at the field's
    /// spatial order.
    pub fn dx(&self, d: usize) -> Expr {
        self.deriv(d, 1)
    }

    /// Second spatial derivative along dimension `d`.
    pub fn dx2(&self, d: usize) -> Expr {
        self.deriv(d, 2)
    }

    /// Spatial derivative of arbitrary order along dimension `d`.
    pub fn deriv(&self, d: usize, order: u32) -> Expr {
        assert!(d < self.meta.ndim(), "dimension {d} out of range");
        Expr::Deriv {
            expr: Box::new(self.center()),
            dim: DerivDim::Space(d),
            order,
            accuracy: self.meta.space_order,
        }
    }

    /// `u.laplace` — sum of second derivatives over all spatial dims.
    pub fn laplace(&self) -> Expr {
        let terms: Vec<Expr> = (0..self.meta.ndim()).map(|d| self.dx2(d)).collect();
        simplify(&Expr::Add(terms))
    }

    fn assert_time(&self, what: &str) {
        assert!(
            self.meta.kind == FieldKind::TimeFunction,
            "{what} on non-time function {:?}",
            self.meta.name
        );
    }
}

/// Sample a field at a *different* lattice by averaging the two bracketing
/// samples along every dimension where the field's staggering disagrees
/// with the target lattice — the standard staggered-grid treatment of
/// material parameters (e.g. buoyancy `1/ρ` averaged onto the `v_x`
/// half-lattice, shear modulus averaged onto edge midpoints).
pub fn averaged_at(f: &FieldHandle, target: &[Stagger]) -> Expr {
    let meta = f.meta();
    assert_eq!(target.len(), meta.ndim());
    let diff: Vec<usize> = (0..meta.ndim())
        .filter(|&d| meta.stagger[d] != target[d])
        .collect();
    if diff.is_empty() {
        return f.center();
    }
    let k = diff.len();
    let mut terms = Vec::with_capacity(1 << k);
    for mask in 0..(1usize << k) {
        let mut off = vec![0i32; meta.ndim()];
        for (bit, &d) in diff.iter().enumerate() {
            // The bracketing samples sit half a step either side of the
            // target position: offset ±1 in half-steps.
            off[d] = if (mask >> bit) & 1 == 1 { 1 } else { -1 };
        }
        terms.push(f.at_halves(0, &off));
    }
    simplify(&Expr::Mul(vec![
        Expr::Const(1.0 / (1 << k) as f64),
        Expr::Add(terms),
    ]))
}

/// Free-standing derivative of an arbitrary expression (for e.g. the TTI
/// rotated Laplacian, which differentiates products of fields).
pub fn deriv_of(expr: Expr, d: usize, order: u32, accuracy: u32) -> Expr {
    Expr::Deriv {
        expr: Box::new(expr),
        dim: DerivDim::Space(d),
        order,
        accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2() -> Grid {
        Grid::new(&[4, 4], &[2.0, 2.0])
    }

    #[test]
    fn time_buffers_follow_time_order() {
        let mut ctx = Context::new();
        let g = grid2();
        let u = ctx.add_time_function("u", &g, 2, 2);
        assert_eq!(ctx.field(u.id()).time_buffers(), 3);
        let v = ctx.add_time_function("v", &g, 2, 1);
        assert_eq!(ctx.field(v.id()).time_buffers(), 2);
        let m = ctx.add_function("m", &g, 2);
        assert_eq!(ctx.field(m.id()).time_buffers(), 1);
    }

    #[test]
    #[should_panic]
    fn duplicate_names_rejected() {
        let mut ctx = Context::new();
        let g = grid2();
        ctx.add_function("m", &g, 2);
        ctx.add_function("m", &g, 2);
    }

    #[test]
    #[should_panic]
    fn odd_space_order_rejected() {
        let mut ctx = Context::new();
        ctx.add_function("m", &grid2(), 3);
    }

    #[test]
    fn forward_backward_accessors() {
        let mut ctx = Context::new();
        let u = ctx.add_time_function("u", &grid2(), 2, 2);
        match u.forward() {
            Expr::Acc(a) => assert_eq!(a.time_offset, 1),
            _ => panic!(),
        }
        match u.backward() {
            Expr::Acc(a) => assert_eq!(a.time_offset, -1),
            _ => panic!(),
        }
    }

    #[test]
    fn laplace_has_one_term_per_dim() {
        let mut ctx = Context::new();
        let g = Grid::new(&[4, 4, 4], &[1.0, 1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 2, 2);
        match u.laplace() {
            Expr::Add(ts) => assert_eq!(ts.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic]
    fn dt2_requires_second_order_time() {
        let mut ctx = Context::new();
        let u = ctx.add_time_function("u", &grid2(), 2, 1);
        u.dt2();
    }

    #[test]
    fn staggered_fields_record_position() {
        let mut ctx = Context::new();
        let g = Grid::new(&[4, 4], &[1.0, 1.0]);
        let vx = ctx.add_staggered_time_function("vx", &g, 4, 1, &[Stagger::Half, Stagger::Node]);
        assert_eq!(ctx.field(vx.id()).stagger[0], Stagger::Half);
        assert_eq!(ctx.field(vx.id()).stagger[1], Stagger::Node);
    }

    #[test]
    fn halo_defaults_to_space_order() {
        // The pre-build default matches the paper §III d: SDO 2 -> halo
        // of size 2. `Operator::build` narrows it to the stencil reach.
        let mut ctx = Context::new();
        let u = ctx.add_time_function("u", &grid2(), 2, 1);
        assert_eq!(ctx.field(u.id()).halo(), 2);
        ctx.set_halo(u.id(), 1);
        assert_eq!(ctx.field(u.id()).halo(), 1);
        assert_eq!(ctx.field(u.id()).space_order, 2);
    }
}
