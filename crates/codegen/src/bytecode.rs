//! Bytecode compilation of cluster statements.
//!
//! Each cluster body (per-point `Let`s and `Store`s) compiles to a flat
//! stack program. Field accesses become `(stream slot, offset index)`
//! pairs; the offset table is resolved to concrete linear deltas once per
//! kernel launch, when the rank-local strides are known. This plays the
//! role of the paper's JIT-compiled C kernel body.

use mpix_symbolic::{FieldId, UnaryFn};

use crate::arith;

use mpix_ir::cluster::{Cluster, Stmt};
use mpix_ir::iexpr::IExpr;

/// Source of a fused multiplier coefficient: any point-invariant (and
/// therefore lane-invariant) push. Per-point temporaries never appear
/// here — they vary across a vector strip.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CoeffSrc {
    /// Constant-pool slot.
    Const(u32),
    /// Runtime-scalar slot.
    Scalar(u32),
    /// Precomputed-parameter slot.
    Param(u32),
}

impl CoeffSrc {
    /// Resolve the coefficient value.
    #[inline]
    pub fn value(self, consts: &[f32], scalars: &[f32], params: &[f32]) -> f32 {
        match self {
            CoeffSrc::Const(i) => consts[i as usize],
            CoeffSrc::Scalar(i) => scalars[i as usize],
            CoeffSrc::Param(i) => params[i as usize],
        }
    }
}

/// One bytecode instruction. The machine is a straightforward f32 stack
/// machine; temporaries and parameters live in side tables.
///
/// The last three opcodes are *superinstructions* introduced by
/// [`fuse_cluster`]: they never come out of [`compile_cluster`] directly
/// but collapse the dominant `Load/Mul/Add` chains of star stencils into
/// single dispatches. All fused arithmetic is evaluated mul-then-add
/// with two roundings (no FMA contraction), so a fused program is
/// bitwise-identical to its unfused original on every execution path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Push a constant from the pool.
    Const(u32),
    /// Push a runtime scalar (dt, h_x, …) by slot.
    Scalar(u32),
    /// Push a precomputed parameter by slot.
    Param(u32),
    /// Push a per-point temporary.
    Temp(u32),
    /// Pop into a per-point temporary.
    SetTemp(u32),
    /// Push `field_stream[base + offset_table[idx]]`.
    Load { stream: u32, off: u32 },
    /// Pop into `field_stream[base]` (stores are always at the point).
    Store { stream: u32 },
    /// Pop 2, push sum.
    Add,
    /// Pop 2, push product.
    Mul,
    /// Pop 1, push `x^n` (n may be negative).
    Pow(i32),
    /// Pop 1, push `f(x)` for an elementary function.
    Call(UnaryFn),
    /// Fused `Mul` + `Add`: pop `y`, `x`; `top += x * y`.
    MulAdd,
    /// Fused stencil-tap read: push `coeff * stream[base + off]`.
    LoadMul {
        coeff: CoeffSrc,
        stream: u32,
        off: u32,
    },
    /// Fused stencil-tap accumulate: `top += coeff * stream[base + off]`.
    LoadMulAdd {
        coeff: CoeffSrc,
        stream: u32,
        off: u32,
    },
}

impl Op {
    /// Net stack effect of executing this op.
    pub fn stack_effect(self) -> i32 {
        match self {
            Op::Const(_)
            | Op::Scalar(_)
            | Op::Param(_)
            | Op::Temp(_)
            | Op::Load { .. }
            | Op::LoadMul { .. } => 1,
            Op::SetTemp(_) | Op::Store { .. } | Op::Add | Op::Mul => -1,
            Op::Pow(_) | Op::Call(_) | Op::LoadMulAdd { .. } => 0,
            Op::MulAdd => -2,
        }
    }

    /// Stack values this op reads before pushing its result (fused and
    /// binary ops read operands below their net effect).
    pub fn operands(self) -> i32 {
        match self {
            Op::MulAdd => 3,
            Op::Add | Op::Mul => 2,
            Op::SetTemp(_) | Op::Store { .. } | Op::Pow(_) | Op::Call(_) => 1,
            Op::LoadMulAdd { .. } => 1,
            _ => 0,
        }
    }

    /// Floating-point operations this op performs per point (`Pow` is
    /// costed like the `powi` lowering: one op for the fast cases).
    pub fn flops(self) -> usize {
        match self {
            Op::Add | Op::Mul | Op::LoadMul { .. } | Op::Pow(_) | Op::Call(_) => 1,
            Op::MulAdd | Op::LoadMulAdd { .. } => 2,
            _ => 0,
        }
    }

    /// The coefficient source when this op is a point-invariant push.
    pub fn as_coeff(self) -> Option<CoeffSrc> {
        match self {
            Op::Const(i) => Some(CoeffSrc::Const(i)),
            Op::Scalar(i) => Some(CoeffSrc::Scalar(i)),
            Op::Param(i) => Some(CoeffSrc::Param(i)),
            _ => None,
        }
    }

    /// Temp slot this op reads, if any.
    pub fn temp_read(self) -> Option<u32> {
        match self {
            Op::Temp(i) => Some(i),
            _ => None,
        }
    }

    /// Temp slot this op writes, if any.
    pub fn temp_written(self) -> Option<u32> {
        match self {
            Op::SetTemp(i) => Some(i),
            _ => None,
        }
    }

    /// Stream slot this op loads from (fused taps included), if any.
    pub fn stream_read(self) -> Option<u32> {
        self.load().map(|(stream, _)| stream)
    }

    /// `(stream slot, offset-table entry)` of this op's load (fused
    /// taps included), if any.
    pub fn load(self) -> Option<(u32, u32)> {
        match self {
            Op::Load { stream, off }
            | Op::LoadMul { stream, off, .. }
            | Op::LoadMulAdd { stream, off, .. } => Some((stream, off)),
            _ => None,
        }
    }

    /// Stream slot this op stores to, if any.
    pub fn stream_written(self) -> Option<u32> {
        match self {
            Op::Store { stream } => Some(stream),
            _ => None,
        }
    }

    /// Fused coefficient this op carries, if any.
    pub fn coeff(self) -> Option<CoeffSrc> {
        match self {
            Op::LoadMul { coeff, .. } | Op::LoadMulAdd { coeff, .. } => Some(coeff),
            _ => None,
        }
    }

    /// Is this op one of the superinstructions introduced by
    /// [`fuse_cluster`]? Fusion metadata for the error analysis: a fused
    /// op's rounding behaviour is declared by [`Op::rounding_events`],
    /// not inferred from the unfused pair it replaced.
    pub fn is_fused(self) -> bool {
        matches!(
            self,
            Op::MulAdd | Op::LoadMul { .. } | Op::LoadMulAdd { .. }
        )
    }

    /// Number of rounded f32 results this op materializes per point
    /// under `model` — the table the static floating-point error
    /// analysis (`mpix-analysis::fp`) consumes instead of hard-coding
    /// per-op knowledge.
    ///
    /// Every interpreter and JIT backend evaluates the fused mul+add
    /// pairs as two separately rounded operations ([`RoundingModel::EXECUTED`]),
    /// which is what keeps fused programs bitwise-identical to their
    /// unfused originals. A hypothetical FMA-contracting backend
    /// ([`RoundingModel::FMA_CONTRACTED`]) would round the fused pair
    /// once; the analysis models that distinctly, which is why the
    /// count is declared here rather than assumed. Every event also
    /// carries the kernel arithmetic's flush to zero ([`crate::arith`]):
    /// a tiny result becomes zero, an absolute error below 2⁻¹²⁶ that
    /// the analysis adds per event.
    pub fn rounding_events(self, model: RoundingModel) -> usize {
        match self {
            Op::Add | Op::Mul | Op::Call(_) | Op::LoadMul { .. } => 1,
            // Mirrors the `powi` lowering: v*v, 1/v and 1/(v*v) round
            // once per multiply/divide; the generic case is bounded by
            // the |n|-long multiply chain.
            Op::Pow(n) => match n {
                0 | 1 => 0,
                2 | -1 => 1,
                -2 => 2,
                n => n.unsigned_abs() as usize,
            },
            Op::MulAdd | Op::LoadMulAdd { .. } => {
                if model.fma_contraction {
                    1
                } else {
                    2
                }
            }
            _ => 0,
        }
    }
}

/// How fused mul+add superinstructions round, declared per backend
/// family and consumed by [`Op::rounding_events`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundingModel {
    /// `true`: fused pairs round once (hardware FMA). `false`: mul and
    /// add each round (the semantics every shipped backend implements).
    pub fma_contraction: bool,
}

impl RoundingModel {
    /// What actually runs: mul-then-add with two roundings.
    pub const EXECUTED: RoundingModel = RoundingModel {
        fma_contraction: false,
    };
    /// A single-rounding FMA backend (none shipped; modeled distinctly
    /// so precision certificates stay honest if one lands).
    pub const FMA_CONTRACTED: RoundingModel = RoundingModel {
        fma_contraction: true,
    };
}

/// A compiled cluster body.
#[derive(Clone, Debug)]
pub struct CompiledCluster {
    pub ops: Vec<Op>,
    pub consts: Vec<f32>,
    /// Runtime scalar names, indexed by `Op::Scalar` slot.
    pub scalars: Vec<String>,
    /// Streams: distinct `(field, time offset)` arrays touched.
    pub streams: Vec<(FieldId, i32)>,
    /// Which streams are written.
    pub written: Vec<bool>,
    /// Offset table: `(stream slot, index deltas)` per `Op::Load` entry.
    pub offsets: Vec<(u32, Vec<i32>)>,
    pub num_temps: usize,
    /// Maximum stack depth needed.
    pub max_stack: usize,
}

impl CompiledCluster {
    pub fn stream_slot(&self, field: FieldId, toff: i32) -> Option<usize> {
        self.streams
            .iter()
            .position(|&(f, t)| (f, t) == (field, toff))
    }

    /// Floating-point operations per evaluated point (counting fused ops
    /// at their full arithmetic weight, so fusion never changes it).
    pub fn flop_count(&self) -> usize {
        self.ops.iter().map(|op| op.flops()).sum()
    }

    /// Walk the program with the static operand and stack-effect
    /// tables: returns the maximum depth reached, or the index of the op
    /// that pops an empty stack (`ops.len()` when the program exits
    /// unbalanced) and a description.
    pub fn stack_walk(&self) -> Result<usize, (usize, String)> {
        let mut depth = 0i32;
        let mut max = 0i32;
        for (i, op) in self.ops.iter().enumerate() {
            let reads = op.operands();
            if depth < reads {
                return Err((
                    i,
                    format!("stack underflow: {op:?} needs {reads} operand(s), depth is {depth}"),
                ));
            }
            depth += op.stack_effect();
            max = max.max(depth);
        }
        if depth != 0 {
            return Err((
                self.ops.len(),
                format!("unbalanced stack: program exits at depth {depth}, not 0"),
            ));
        }
        Ok(max as usize)
    }

    /// Which ops push a value that may be subnormal — straight from
    /// memory or a pool (`Load`, `Const`, `Scalar`, `Param`, or a `Temp`
    /// holding such a value) — that arithmetic then consumes. The
    /// interpreter applies the DAZ read of [`crate::arith`] at those
    /// pushes, so every arithmetic op sees flushed operands; a value a
    /// move consumes (`Store`, `SetTemp`, `Pow(1)` on its way to one)
    /// keeps its bits.
    pub fn daz_pushes(&self) -> Vec<bool> {
        let mut daz = vec![false; self.ops.len()];
        // Per stack value and per temp: the op that pushed the raw value
        // it holds, `None` once it is an arithmetic result.
        let mut stack: Vec<Option<usize>> = Vec::with_capacity(self.max_stack);
        let mut temps: Vec<Option<Option<usize>>> = vec![None; self.num_temps];
        for (i, &op) in self.ops.iter().enumerate() {
            let operands = match op {
                Op::MulAdd => 3,
                Op::Add | Op::Mul => 2,
                Op::Pow(1) => 0,
                Op::Pow(_) | Op::Call(_) | Op::LoadMulAdd { .. } => 1,
                _ => 0,
            };
            for _ in 0..operands {
                if let Some(Some(j)) = stack.pop() {
                    daz[j] = true;
                }
            }
            match op {
                Op::Const(_) | Op::Scalar(_) | Op::Param(_) | Op::Load { .. } => {
                    stack.push(Some(i))
                }
                // A temp not yet set at this point is treated as raw.
                Op::Temp(k) => stack.push(match temps[k as usize] {
                    Some(None) => None,
                    _ => Some(i),
                }),
                Op::SetTemp(k) => temps[k as usize] = stack.pop(),
                Op::Store { .. } => {
                    stack.pop();
                }
                Op::Pow(1) => {}
                _ => stack.push(None),
            }
        }
        daz
    }

    /// Visit every op in program order with its index and the stack depth
    /// *before* the op executes. The iteration hook the bytecode lints
    /// (`mpix-analysis::lint`) walk the program with, so they track
    /// def-use state without re-implementing the stack model.
    pub fn visit_ops(&self, mut f: impl FnMut(usize, Op, i32)) {
        let mut depth = 0i32;
        for (i, &op) in self.ops.iter().enumerate() {
            f(i, op, depth);
            depth += op.stack_effect();
        }
    }
}

// ---------------------------------------------------------------------------
// Superinstruction fusion (peephole, post-compilation)
// ---------------------------------------------------------------------------

/// Peephole-fuse a compiled program: constant folding, then collapsing
/// `coeff/Load/Mul[/Add]` stencil-tap chains and `Mul/Add` pairs into
/// the fused opcodes. Streams, offsets, `written`, temps and scalars are
/// untouched; `max_stack` is recomputed (it can only shrink). The fused
/// program computes bit-for-bit the same values as the original: fused
/// ops still round the multiply and the add separately.
pub fn fuse_cluster(mut cc: CompiledCluster) -> CompiledCluster {
    fold_constants(&mut cc);
    let mut out: Vec<Op> = Vec::with_capacity(cc.ops.len());
    let ops = &cc.ops;
    // Running stack depth at the current peephole position: a trailing
    // `Add` may only be folded into the superinstruction when an
    // accumulator value is already on the stack beneath the tap.
    let mut depth = 0i32;
    let mut i = 0;
    while i < ops.len() {
        // coeff, Load, Mul [, Add]  — and the commuted Load, coeff, Mul.
        let tap = match (ops.get(i), ops.get(i + 1), ops.get(i + 2)) {
            (Some(&c), Some(&Op::Load { stream, off }), Some(Op::Mul)) => {
                c.as_coeff().map(|coeff| (coeff, stream, off))
            }
            (Some(&Op::Load { stream, off }), Some(&c), Some(Op::Mul)) => {
                c.as_coeff().map(|coeff| (coeff, stream, off))
            }
            _ => None,
        };
        if let Some((coeff, stream, off)) = tap {
            let op = if ops.get(i + 3) == Some(&Op::Add) && depth >= 1 {
                i += 4;
                Op::LoadMulAdd { coeff, stream, off }
            } else {
                i += 3;
                Op::LoadMul { coeff, stream, off }
            };
            depth += op.stack_effect();
            out.push(op);
            continue;
        }
        if ops[i] == Op::Mul && ops.get(i + 1) == Some(&Op::Add) && depth >= 3 {
            depth += Op::MulAdd.stack_effect();
            out.push(Op::MulAdd);
            i += 2;
            continue;
        }
        depth += ops[i].stack_effect();
        out.push(ops[i]);
        i += 1;
    }
    cc.ops = out;
    cc.max_stack = cc
        .stack_walk()
        .expect("fusion broke the stack discipline")
        .max(1);
    cc
}

/// Fold constant subexpressions in the flat program: any `Const Const
/// Add/Mul`, `Const Pow`, or `Const Call` collapses to one `Const`,
/// computed in the kernel arithmetic the unfolded ops would run in.
/// Iterates to a fixpoint so nested constant chains fold completely.
///
/// Public so the verification passes (`mpix-analysis`) can establish the
/// post-folding baseline that `fuse_cluster` must preserve: folding may
/// legitimately drop flops, but fusion on top of it must not.
pub fn fold_constants(cc: &mut CompiledCluster) {
    loop {
        let mut changed = false;
        let mut out: Vec<Op> = Vec::with_capacity(cc.ops.len());
        let mut i = 0;
        while i < cc.ops.len() {
            let folded = match (cc.ops.get(i), cc.ops.get(i + 1), cc.ops.get(i + 2)) {
                (Some(&Op::Const(a)), Some(&Op::Const(b)), Some(Op::Add)) => {
                    Some((arith::add(cc.consts[a as usize], cc.consts[b as usize]), 3))
                }
                (Some(&Op::Const(a)), Some(&Op::Const(b)), Some(Op::Mul)) => {
                    Some((arith::mul(cc.consts[a as usize], cc.consts[b as usize]), 3))
                }
                (Some(&Op::Const(a)), Some(&Op::Pow(n)), _) => {
                    Some((arith::powi(cc.consts[a as usize], n), 2))
                }
                (Some(&Op::Const(a)), Some(&Op::Call(fx)), _) => {
                    Some((arith::call(fx, cc.consts[a as usize]), 2))
                }
                _ => None,
            };
            if let Some((v, w)) = folded {
                out.push(Op::Const(intern_const(&mut cc.consts, v)));
                i += w;
                changed = true;
            } else {
                out.push(cc.ops[i]);
                i += 1;
            }
        }
        cc.ops = out;
        if !changed {
            return;
        }
    }
}

fn intern_const(consts: &mut Vec<f32>, v: f32) -> u32 {
    if let Some(i) = consts.iter().position(|c| c.to_bits() == v.to_bits()) {
        return i as u32;
    }
    consts.push(v);
    (consts.len() - 1) as u32
}

struct Compiler {
    ops: Vec<Op>,
    consts: Vec<f32>,
    scalars: Vec<String>,
    streams: Vec<(FieldId, i32)>,
    written: Vec<bool>,
    offsets: Vec<(u32, Vec<i32>)>,
    depth: usize,
    max_depth: usize,
}

impl Compiler {
    fn push_depth(&mut self) {
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
    }
    fn pop_depth(&mut self, n: usize) {
        self.depth -= n;
    }

    fn const_slot(&mut self, v: f64) -> u32 {
        let v = v as f32;
        if let Some(i) = self.consts.iter().position(|&c| c == v) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn scalar_slot(&mut self, name: &str) -> u32 {
        if let Some(i) = self.scalars.iter().position(|s| s == name) {
            return i as u32;
        }
        self.scalars.push(name.to_string());
        (self.scalars.len() - 1) as u32
    }

    fn stream_slot(&mut self, field: FieldId, toff: i32) -> u32 {
        if let Some(i) = self
            .streams
            .iter()
            .position(|&(f, t)| (f, t) == (field, toff))
        {
            return i as u32;
        }
        self.streams.push((field, toff));
        self.written.push(false);
        (self.streams.len() - 1) as u32
    }

    fn offset_slot(&mut self, stream: u32, deltas: &[i32]) -> u32 {
        if let Some(i) = self
            .offsets
            .iter()
            .position(|(s, d)| *s == stream && d == deltas)
        {
            return i as u32;
        }
        self.offsets.push((stream, deltas.to_vec()));
        (self.offsets.len() - 1) as u32
    }

    fn emit_expr(&mut self, e: &IExpr) {
        match e {
            IExpr::Const(c) => {
                let s = self.const_slot(*c);
                self.ops.push(Op::Const(s));
                self.push_depth();
            }
            IExpr::Sym(name) => {
                let s = self.scalar_slot(name);
                self.ops.push(Op::Scalar(s));
                self.push_depth();
            }
            IExpr::Param(i) => {
                self.ops.push(Op::Param(*i as u32));
                self.push_depth();
            }
            IExpr::Temp(i) => {
                self.ops.push(Op::Temp(*i as u32));
                self.push_depth();
            }
            IExpr::Load(a) => {
                let stream = self.stream_slot(a.field, a.time_offset);
                let off = self.offset_slot(stream, &a.deltas);
                self.ops.push(Op::Load { stream, off });
                self.push_depth();
            }
            IExpr::Add(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    self.emit_expr(x);
                    if i > 0 {
                        self.ops.push(Op::Add);
                        self.pop_depth(1);
                    }
                }
            }
            IExpr::Mul(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    self.emit_expr(x);
                    if i > 0 {
                        self.ops.push(Op::Mul);
                        self.pop_depth(1);
                    }
                }
            }
            IExpr::Pow(b, e2) => {
                self.emit_expr(b);
                self.ops.push(Op::Pow(*e2));
            }
            IExpr::Func(fx, b) => {
                self.emit_expr(b);
                self.ops.push(Op::Call(*fx));
            }
        }
    }
}

/// Compile a cluster body into bytecode.
pub fn compile_cluster(cl: &Cluster) -> CompiledCluster {
    let mut c = Compiler {
        ops: Vec::new(),
        consts: Vec::new(),
        scalars: Vec::new(),
        streams: Vec::new(),
        written: Vec::new(),
        offsets: Vec::new(),
        depth: 0,
        max_depth: 0,
    };
    for s in &cl.stmts {
        match s {
            Stmt::Let { temp, value } => {
                c.emit_expr(value);
                c.ops.push(Op::SetTemp(*temp as u32));
                c.pop_depth(1);
            }
            Stmt::Store { target, value } => {
                assert!(
                    target.deltas.iter().all(|&d| d == 0),
                    "stores must be at the evaluation point"
                );
                c.emit_expr(value);
                let stream = c.stream_slot(target.field, target.time_offset);
                c.written[stream as usize] = true;
                c.ops.push(Op::Store { stream });
                c.pop_depth(1);
            }
        }
    }
    assert_eq!(c.depth, 0, "unbalanced stack in compiled cluster");
    CompiledCluster {
        ops: c.ops,
        consts: c.consts,
        scalars: c.scalars,
        streams: c.streams,
        written: c.written,
        offsets: c.offsets,
        num_temps: cl.num_temps,
        max_stack: c.max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BytecodeKernel, ClusterKernel, Launch, Stream};
    use mpix_dmp::regions::BoxNd;
    use mpix_ir::iexpr::IdxAccess as IA;

    /// Run `cc` through the scalar oracle at point `at` of 1-D buffers
    /// (stride 1, no halo); `bufs[s]` is stream `s`'s buffer.
    fn exec_1d_point(cc: &CompiledCluster, bufs: &mut [Vec<f32>], at: usize) {
        let n = cc.streams.len();
        let resolved: Vec<isize> = cc.offsets.iter().map(|(_, d)| d[0] as isize).collect();
        let launch = Launch {
            cc,
            strides: &vec![vec![1]; n],
            halos: &vec![0; n],
            resolved: &resolved,
            scalars: &[],
            params: &[],
            block: 0,
        };
        let mut streams: Vec<Stream<'_>> = (bufs.iter_mut().zip(&cc.written))
            .map(|(b, &w)| Stream::whole(b, w))
            .collect();
        let bx: BoxNd = std::iter::once(at..at + 1).collect();
        BytecodeKernel::scalar_oracle(cc).exec_box(&launch, &bx, &mut streams);
    }

    fn store(field: u32, value: IExpr) -> Stmt {
        Stmt::Store {
            target: IA {
                field: FieldId(field),
                time_offset: 1,
                deltas: vec![0],
            },
            value,
        }
    }

    fn load(field: u32, toff: i32, dx: i32) -> IExpr {
        IExpr::Load(IA {
            field: FieldId(field),
            time_offset: toff,
            deltas: vec![dx],
        })
    }

    #[test]
    fn compile_and_eval_simple_stencil() {
        // u[t+1] = 0.5*(u[t,x-1] + u[t,x+1])
        let cl = Cluster {
            stmts: vec![store(
                0,
                IExpr::Mul(vec![
                    IExpr::Const(0.5),
                    IExpr::Add(vec![load(0, 0, -1), load(0, 0, 1)]),
                ]),
            )],
            params: vec![],
            num_temps: 0,
        };
        let cc = compile_cluster(&cl);
        assert_eq!(cc.streams.len(), 2); // (f0,t0) read, (f0,t1) written
        assert!(cc.max_stack <= 3);

        // 1-D buffers of length 8, point at index 3.
        let read_slot = cc.stream_slot(FieldId(0), 0).unwrap();
        let write_slot = cc.stream_slot(FieldId(0), 1).unwrap();
        let mut bufs = vec![vec![0.0f32; 8]; 2];
        bufs[read_slot][2] = 2.0;
        bufs[read_slot][4] = 4.0;
        exec_1d_point(&cc, &mut bufs, 3);
        assert_eq!(bufs[write_slot][3], 3.0);
    }

    #[test]
    fn temps_flow_between_statements() {
        // tmp0 = 2*u[t]; u[t+1] = tmp0 + tmp0
        let cl = Cluster {
            stmts: vec![
                Stmt::Let {
                    temp: 0,
                    value: IExpr::Mul(vec![IExpr::Const(2.0), load(0, 0, 0)]),
                },
                store(0, IExpr::Add(vec![IExpr::Temp(0), IExpr::Temp(0)])),
            ],
            params: vec![],
            num_temps: 1,
        };
        let cc = compile_cluster(&cl);
        let rs = cc.stream_slot(FieldId(0), 0).unwrap();
        let mut bufs = vec![vec![0.0f32; 4]; 2];
        bufs[rs] = vec![3.0; 4];
        exec_1d_point(&cc, &mut bufs, 1);
        // 2·3 flows through tmp0 into both operands of the store.
        assert_eq!(bufs[1 - rs][1], 12.0);
    }

    #[test]
    fn scalars_and_consts_dedup() {
        let cl = Cluster {
            stmts: vec![store(
                0,
                IExpr::Add(vec![
                    IExpr::Mul(vec![IExpr::Sym("dt".into()), IExpr::Const(2.0)]),
                    IExpr::Mul(vec![IExpr::Sym("dt".into()), IExpr::Const(2.0)]),
                ]),
            )],
            params: vec![],
            num_temps: 0,
        };
        let cc = compile_cluster(&cl);
        assert_eq!(cc.scalars, vec!["dt".to_string()]);
        assert_eq!(cc.consts, vec![2.0]);
    }

    /// A 1-D SDO-2 star stencil: u[t+1] = c0*u[t,x-1] + c1*u[t,x] + c0*u[t,x+1].
    fn star_cluster() -> Cluster {
        Cluster {
            stmts: vec![store(
                0,
                IExpr::Add(vec![
                    IExpr::Mul(vec![IExpr::Const(0.25), load(0, 0, -1)]),
                    IExpr::Mul(vec![IExpr::Const(0.5), load(0, 0, 0)]),
                    IExpr::Mul(vec![IExpr::Const(0.25), load(0, 0, 1)]),
                ]),
            )],
            params: vec![],
            num_temps: 0,
        }
    }

    fn eval_1d(cc: &CompiledCluster, src: &[f32], at: usize) -> f32 {
        let rs = cc.stream_slot(FieldId(0), 0).unwrap();
        let mut bufs = vec![vec![0.0f32; src.len()]; 2];
        bufs[rs] = src.to_vec();
        exec_1d_point(cc, &mut bufs, at);
        bufs[1 - rs][at]
    }

    #[test]
    fn fusion_collapses_star_stencil_to_superinstructions() {
        let cc = compile_cluster(&star_cluster());
        let fused = fuse_cluster(cc.clone());
        // First tap becomes LoadMul, the remaining two LoadMulAdd, plus
        // the final Store: four dispatches instead of eleven.
        assert!(
            fused.ops.len() < cc.ops.len(),
            "no fusion happened: {:?}",
            fused.ops
        );
        assert_eq!(
            fused.ops.len(),
            4,
            "expected LoadMul + 2×LoadMulAdd + Store, got {:?}",
            fused.ops
        );
        assert!(matches!(fused.ops[0], Op::LoadMul { .. }));
        assert!(matches!(fused.ops[1], Op::LoadMulAdd { .. }));
        assert!(matches!(fused.ops[2], Op::LoadMulAdd { .. }));
        assert!(matches!(fused.ops[3], Op::Store { .. }));
    }

    #[test]
    fn fusion_preserves_metadata_and_stack_accounting() {
        let cc = compile_cluster(&star_cluster());
        let fused = fuse_cluster(cc.clone());
        assert_eq!(fused.streams, cc.streams);
        assert_eq!(fused.written, cc.written);
        assert_eq!(fused.offsets, cc.offsets);
        assert_eq!(fused.scalars, cc.scalars);
        assert_eq!(fused.num_temps, cc.num_temps);
        // Stack accounting: the static walk agrees with the recorded
        // max_stack and fusion only shrinks the peak.
        assert_eq!(fused.stack_walk().unwrap().max(1), fused.max_stack);
        assert!(fused.max_stack <= cc.max_stack);
        // Flop accounting: fused ops are costed at full weight, so the
        // GFLOP/s numerator is unchanged by fusion.
        assert_eq!(fused.flop_count(), cc.flop_count());
    }

    #[test]
    fn fused_program_is_bitwise_equal_to_unfused() {
        let cc = compile_cluster(&star_cluster());
        let fused = fuse_cluster(cc.clone());
        let src: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        for at in 1..15 {
            let a = eval_1d(&cc, &src, at);
            let b = eval_1d(&fused, &src, at);
            assert_eq!(a.to_bits(), b.to_bits(), "point {at}: {a} vs {b}");
        }
    }

    #[test]
    fn rounding_table_distinguishes_fused_semantics() {
        // Fusion must conserve rounding events under the executed
        // model (that is what makes it bitwise-invariant), while the
        // contracted model rounds each fused pair once — strictly
        // fewer events wherever a superinstruction landed.
        let cc = compile_cluster(&star_cluster());
        let fused = fuse_cluster(cc.clone());
        let events = |cc: &CompiledCluster, m: RoundingModel| -> usize {
            cc.ops.iter().map(|op| op.rounding_events(m)).sum()
        };
        assert_eq!(
            events(&cc, RoundingModel::EXECUTED),
            events(&fused, RoundingModel::EXECUTED)
        );
        assert!(fused.ops.iter().any(|op| op.is_fused()));
        assert!(
            events(&fused, RoundingModel::FMA_CONTRACTED) < events(&fused, RoundingModel::EXECUTED)
        );
        // Unfused ops are unaffected by the contraction flag.
        assert_eq!(
            Op::Add.rounding_events(RoundingModel::FMA_CONTRACTED),
            Op::Add.rounding_events(RoundingModel::EXECUTED)
        );
    }

    #[test]
    fn muladd_fuses_temp_products() {
        // tmp0 = u[t]; u[t+1] = u[t,x+1] + tmp0*tmp0 (Mul of two temps
        // cannot become a LoadMul — it must fuse to MulAdd).
        let cl = Cluster {
            stmts: vec![
                Stmt::Let {
                    temp: 0,
                    value: load(0, 0, 0),
                },
                store(
                    0,
                    IExpr::Add(vec![
                        load(0, 0, 1),
                        IExpr::Mul(vec![IExpr::Temp(0), IExpr::Temp(0)]),
                    ]),
                ),
            ],
            params: vec![],
            num_temps: 1,
        };
        let fused = fuse_cluster(compile_cluster(&cl));
        assert!(
            fused.ops.contains(&Op::MulAdd),
            "expected MulAdd in {:?}",
            fused.ops
        );
        let src: Vec<f32> = (0..8).map(|i| i as f32 + 0.5).collect();
        assert_eq!(eval_1d(&fused, &src, 3), src[4] + src[3] * src[3]);
    }

    #[test]
    fn constant_folding_collapses_const_chains() {
        // u[t+1] = (2*3) * u[t] — simplify would normally fold this, but
        // the bytecode pass must handle it anyway.
        let cl = Cluster {
            stmts: vec![store(
                0,
                IExpr::Mul(vec![IExpr::Const(2.0), IExpr::Const(3.0), load(0, 0, 0)]),
            )],
            params: vec![],
            num_temps: 0,
        };
        let fused = fuse_cluster(compile_cluster(&cl));
        // [Const 2, Const 3, Mul, Load, Mul, Store] folds to a single
        // LoadMul(6.0) + Store.
        assert_eq!(fused.ops.len(), 2, "{:?}", fused.ops);
        let src = vec![1.5f32; 4];
        assert_eq!(eval_1d(&fused, &src, 1), 9.0);
    }

    #[test]
    fn loadmuladd_not_fused_on_empty_stack() {
        // u[t+1] = c*u[t] (no accumulator beneath): the trailing Add in
        // a sibling expression must not be swallowed when depth is 0.
        let cl = Cluster {
            stmts: vec![store(
                0,
                IExpr::Add(vec![
                    IExpr::Mul(vec![IExpr::Const(0.5), load(0, 0, -1)]),
                    load(0, 0, 1),
                ]),
            )],
            params: vec![],
            num_temps: 0,
        };
        let cc = compile_cluster(&cl);
        let fused = fuse_cluster(cc.clone());
        fused.stack_walk().unwrap();
        let src: Vec<f32> = (0..8).map(|i| i as f32).collect();
        for at in 1..7 {
            assert_eq!(
                eval_1d(&cc, &src, at).to_bits(),
                eval_1d(&fused, &src, at).to_bits()
            );
        }
    }

    #[test]
    #[should_panic]
    fn offset_store_rejected() {
        let cl = Cluster {
            stmts: vec![Stmt::Store {
                target: IA {
                    field: FieldId(0),
                    time_offset: 1,
                    deltas: vec![1],
                },
                value: IExpr::Const(0.0),
            }],
            params: vec![],
            num_temps: 0,
        };
        compile_cluster(&cl);
    }
}
