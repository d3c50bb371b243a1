//! Per-rank runtime state: field buffers, sparse operations, topology.

use std::sync::Arc;

use mpix_codegen::executor::{ExecStats, FieldState, SparseOp};
use mpix_comm::CartComm;
use mpix_dmp::{Decomposition, DistArray, SparsePlan, SparsePoints};
use mpix_symbolic::{Context, FieldId, Grid};

/// Everything one rank needs to run an operator: the Cartesian
/// communicator, distributed field buffers, and sparse (source/receiver)
/// operations.
pub struct Workspace {
    pub cart: CartComm,
    pub decomp: Arc<Decomposition>,
    pub fields: Vec<FieldState>,
    pub sparse: Vec<SparseOp>,
    /// Field names, aligned with `fields` (for name-based access).
    names: Vec<String>,
    /// Time-buffer counts, aligned with `fields`.
    nbuffers: Vec<usize>,
    /// Stats of the last `apply` on this workspace.
    pub last_stats: Option<ExecStats>,
    /// The time index after the last `apply` (for final-buffer lookup).
    pub final_t: i64,
}

impl Workspace {
    /// Allocate zeroed buffers for every field in the context, using the
    /// communicator's Cartesian topology for decomposition.
    pub fn new(ctx: &Context, grid: &Grid, cart: CartComm) -> Workspace {
        let decomp = Arc::new(Decomposition::new(&grid.shape, cart.dims()));
        let coords = cart.coords().to_vec();
        let mut fields = Vec::with_capacity(ctx.fields().len());
        let mut names = Vec::with_capacity(ctx.fields().len());
        let mut nbuffers = Vec::with_capacity(ctx.fields().len());
        for f in ctx.fields() {
            fields.push(FieldState::new(
                f.id,
                f.time_buffers(),
                Arc::clone(&decomp),
                &coords,
                f.halo() as usize,
            ));
            names.push(f.name.clone());
            nbuffers.push(f.time_buffers());
        }
        Workspace {
            cart,
            decomp,
            fields,
            sparse: Vec::new(),
            names,
            nbuffers,
            last_stats: None,
            final_t: 0,
        }
    }

    /// Bytes held by every field buffer on this rank, halos included.
    pub fn bytes(&self) -> usize {
        self.fields
            .iter()
            .flat_map(|f| &f.buffers)
            .map(|b| std::mem::size_of_val(b.raw()))
            .sum()
    }

    fn field_index(&self, name: &str) -> usize {
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unknown field {name:?}"))
    }

    /// Id of a field by name.
    pub fn field_id(&self, name: &str) -> FieldId {
        self.fields[self.field_index(name)].field
    }

    /// Mutable access to a named field's buffer holding time level
    /// `time` (absolute step index; use 0 to seed initial conditions,
    /// -1 for the "previous" level of second-order-in-time fields).
    pub fn field_data_mut(&mut self, name: &str, time: i64) -> &mut DistArray {
        let i = self.field_index(name);
        let nb = self.nbuffers[i] as i64;
        let b = ((time % nb + nb) % nb) as usize;
        &mut self.fields[i].buffers[b]
    }

    /// Immutable access at a time level.
    pub fn field_data(&self, name: &str, time: i64) -> &DistArray {
        let i = self.field_index(name);
        let nb = self.nbuffers[i] as i64;
        let b = ((time % nb + nb) % nb) as usize;
        &self.fields[i].buffers[b]
    }

    /// The buffer holding the *final* state after the last `apply`
    /// (`u.data` in Devito terms).
    pub fn field_final(&self, name: &str) -> &DistArray {
        self.field_data(name, self.final_t)
    }

    /// Gather a field's final global array onto every rank.
    pub fn gather(&self, name: &str) -> Vec<f32> {
        self.field_final(name).gather_global(self.cart.comm())
    }

    /// Gather a field at an explicit time level.
    pub fn gather_at(&self, name: &str, time: i64) -> Vec<f32> {
        self.field_data(name, time).gather_global(self.cart.comm())
    }

    /// Precompute `points` against a field's layout on this rank (every
    /// time buffer of a field shares it).
    fn plan(&self, field: FieldId, points: &SparsePoints) -> SparsePlan {
        SparsePlan::build(points, &self.fields[field.0 as usize].buffers[0])
    }

    /// Register a source injection executed after each time step: adds
    /// `signal[t] * scale[p]` into `field`'s `t+1` buffer around every
    /// point.
    pub fn add_injection(
        &mut self,
        field_name: &str,
        points: SparsePoints,
        signal: Vec<f32>,
        scale: Vec<f32>,
    ) {
        let field = self.field_id(field_name);
        let plan = self.plan(field, &points);
        self.sparse.push(SparseOp::Inject {
            field,
            time_offset: 1,
            plan,
            signal,
            scale,
        });
    }

    /// Register a per-point-trace injection (the adjoint-source pattern):
    /// point `p` injects `traces[p][t] * scale[p]` at step `t`.
    pub fn add_injection_traces(
        &mut self,
        field_name: &str,
        points: SparsePoints,
        traces: Vec<Vec<f32>>,
        scale: Vec<f32>,
    ) {
        assert_eq!(traces.len(), points.len(), "one trace per point");
        let field = self.field_id(field_name);
        let plan = self.plan(field, &points);
        self.sparse.push(SparseOp::InjectTraces {
            field,
            time_offset: 1,
            plan,
            traces,
            scale,
        });
    }

    /// Register receivers sampled after each time step from `field`'s
    /// freshly-written `t+1` buffer. Results are readable afterwards via
    /// [`Workspace::take_samples`].
    pub fn add_receivers(&mut self, field_name: &str, points: SparsePoints) -> usize {
        let field = self.field_id(field_name);
        let plan = self.plan(field, &points);
        self.sparse.push(SparseOp::Sample {
            field,
            time_offset: 1,
            plan,
            samples: Vec::new(),
        });
        self.sparse.len() - 1
    }

    /// Extract recorded receiver samples (`samples[t][p]`, NaN on ranks
    /// that are not point `p`'s primary owner).
    pub fn take_samples(&mut self, handle: usize) -> Vec<Vec<f32>> {
        match &mut self.sparse[handle] {
            SparseOp::Sample { samples, .. } => std::mem::take(samples),
            _ => panic!("handle {handle} is not a receiver"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_comm::Universe;

    fn ctx_and_grid() -> (Context, Grid) {
        let mut ctx = Context::new();
        let grid = Grid::new(&[8, 8], &[1.0, 1.0]);
        ctx.add_time_function("u", &grid, 2, 2);
        ctx.add_function("m", &grid, 2);
        (ctx, grid)
    }

    #[test]
    fn workspace_allocates_all_fields() {
        let (ctx, grid) = ctx_and_grid();
        Universe::run(4, |comm| {
            let cart = CartComm::new(comm, &[2, 2]);
            let ws = Workspace::new(&ctx, &grid, cart);
            assert_eq!(ws.fields.len(), 2);
            assert_eq!(ws.fields[0].buffers.len(), 3); // time_order 2
            assert_eq!(ws.fields[1].buffers.len(), 1); // Function
            assert_eq!(ws.field_data("u", 0).local_shape(), &[4, 4]);
            // u: 3 buffers of (4 + 2·2)², m: 1 buffer of (4 + 2·2)².
            assert_eq!(ws.bytes(), 4 * 64 * 4);
        });
    }

    #[test]
    fn time_level_maps_to_rotating_buffer() {
        let (ctx, grid) = ctx_and_grid();
        Universe::run(1, |comm| {
            let cart = CartComm::new(comm, &[1, 1]);
            let mut ws = Workspace::new(&ctx, &grid, cart);
            ws.field_data_mut("u", 0).set_global(&[0, 0], 5.0);
            // Level 3 is the same buffer as level 0 (3 buffers).
            assert_eq!(ws.field_data("u", 3).get_global(&[0, 0]), Some(5.0));
            assert_eq!(ws.field_data("u", 1).get_global(&[0, 0]), Some(0.0));
            // Negative levels wrap.
            assert_eq!(ws.field_data("u", -3).get_global(&[0, 0]), Some(5.0));
        });
    }

    #[test]
    #[should_panic(expected = "unknown field")]
    fn unknown_field_panics() {
        let (ctx, grid) = ctx_and_grid();
        Universe::run(1, |comm| {
            let cart = CartComm::new(comm, &[1, 1]);
            let ws = Workspace::new(&ctx, &grid, cart);
            let _ = ws.field_data("nope", 0);
        });
    }
}
