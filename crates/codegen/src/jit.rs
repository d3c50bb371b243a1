//! Native JIT backend: compiles cluster bytecode to x86-64 AVX machine
//! code through the vendored `cranelift` crate.
//!
//! The generated function mirrors the strip interpreter exactly — an
//! 8-lane vector loop plus a scalar tail, evaluating the same ops in
//! the same order with the same mul-then-add rounding (no FMA) under the
//! same flush-to-zero arithmetic ([`crate::arith`]: the hardware's
//! MXCSR FTZ|DAZ mode here, its emulation in the interpreter) — so its
//! results are bitwise identical to the bytecode oracle on every input.
//! That is a *structural* property: each bytecode op maps to a fixed
//! AVX sequence whose lane arithmetic is the IEEE operation the
//! interpreter performs. The `mpix-analysis` backend-equivalence pass
//! and `tests/backend_equivalence.rs` check it end to end.
//!
//! ## Code shape
//!
//! One function per `(cluster, resolved offsets)` pair — offsets are
//! per-geometry, so a multi-rank run compiles one variant per distinct
//! local shape (cached). The function executes one contiguous inner
//! row of `n` points:
//!
//! ```text
//! rdi = &RowArgs { streams: *const *mut f32, n: u64,
//!                  bank: *const f32, temps: *mut f32,
//!                  saved_csr: u64, kernel_csr: u64 }
//!
//! prologue: saved_csr = MXCSR; MXCSR = saved_csr | FTZ | DAZ
//!           rsi=streams rdx=n r8=bank r9=temps
//!           r10/r11 = two hottest stream pointers
//!           ymm15 = bank[0] (1.0, when Pow ops need it)
//!           rcx = 0
//! vec:      while rcx+8 <= n: 8-wide body, rcx += 8
//! tail:     while rcx < n: scalar body (ss ops), rcx += 1
//!           MXCSR = saved_csr; vzeroupper; ret
//! ```
//!
//! The *bank* is `[1.0, consts…, scalars…, params…]` — every
//! point-invariant value at a compile-time-known offset, loaded with
//! `vbroadcastss`. Stack slots live in `ymm0..=ymm11` (the deepest
//! observed solver stack is 9), `ymm12` is scratch, temporaries are
//! memory-resident 8-lane slots at `temps + 32*t`.
//!
//! Clusters the JIT cannot prove it supports (elementary-function
//! calls, exotic `Pow` exponents, stack deeper than the register file)
//! fall back to the bytecode interpreter per cluster; the threaded
//! (slab) path additionally requires that no load targets a written
//! stream with a nonzero offset, since such reads could escape the
//! worker's slab. Fallbacks preserve results exactly — the interpreter
//! *is* the reference semantics.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cranelift::{Asm, Cc, CompiledModule, JitContext, Reg, Ymm};
use mpix_dmp::regions::BoxNd;
use mpix_ir::iet::Node;
use mpix_symbolic::Context;

use crate::arith;
use crate::backend::{Backend, BytecodeKernel, ClusterKernel, Launch, Lowering};
use crate::bytecode::{CoeffSrc, CompiledCluster, Op};

/// Process-wide count of native modules actually encoded and finalized
/// (cache misses in [`JitKernel::module_for`]). Repeated runs of a
/// cached operator must leave this flat — the per-run-recompile
/// regression test watches it.
static JIT_MODULES_BUILT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many native modules this process has encoded so far.
pub fn jit_modules_built() -> u64 {
    JIT_MODULES_BUILT.load(std::sync::atomic::Ordering::Relaxed)
}

/// Deepest expression stack the register allocator maps to `ymm0..=11`.
const MAX_JIT_STACK: usize = 12;
/// Scratch vector register (fused-op intermediate, coefficient splat).
const SCRATCH: Ymm = Ymm(12);
/// Broadcast 1.0, loaded in the prologue when `Pow` ops need it.
const ONE: Ymm = Ymm(15);

/// Arguments for one generated row call. Field order is baked into the
/// generated prologue — keep in sync with `codegen_row_fn`.
#[repr(C)]
struct RowArgs {
    streams: *const *mut f32,
    n: u64,
    bank: *const f32,
    temps: *mut f32,
    /// Scratch for the MXCSR switch: the prologue stores the caller's
    /// MXCSR in the low half of `saved_csr` and the kernel's (caller's
    /// | FTZ | DAZ) in `kernel_csr`; the epilogue reloads `saved_csr`.
    saved_csr: u64,
    kernel_csr: u64,
}

/// What the structural analysis of a cluster decided.
struct JitPlan {
    /// Every op has a native lowering and the stack fits the registers.
    supported: bool,
    /// `Pow` ops present → prologue must load `ymm15 = 1.0`.
    needs_one: bool,
    /// No load targets a written stream at a nonzero offset, so slab
    /// pointers cannot be escaped by reads — the threaded path may JIT.
    mixed_safe: bool,
    /// Stream slots for the two hottest (most-referenced) streams,
    /// pinned to `r10`/`r11`.
    hot: [Option<usize>; 2],
}

impl JitPlan {
    fn analyze(cc: &CompiledCluster) -> JitPlan {
        let mut supported = cc.max_stack <= MAX_JIT_STACK;
        let mut needs_one = false;
        let mut mixed_safe = true;
        let mut refs = vec![0usize; cc.streams.len()];
        for op in &cc.ops {
            match *op {
                Op::Call(_) => supported = false,
                Op::Pow(n) => {
                    if !matches!(n, -2..=2) {
                        supported = false;
                    }
                    needs_one = true;
                }
                Op::Load { stream, off }
                | Op::LoadMul { stream, off, .. }
                | Op::LoadMulAdd { stream, off, .. } => {
                    refs[stream as usize] += 1;
                    if cc.written[stream as usize]
                        && cc.offsets[off as usize].1.iter().any(|&d| d != 0)
                    {
                        mixed_safe = false;
                    }
                }
                Op::Store { stream } => refs[stream as usize] += 1,
                _ => {}
            }
        }
        let mut order: Vec<usize> = (0..refs.len()).collect();
        order.sort_by_key(|&s| std::cmp::Reverse(refs[s]));
        let hot = [order.first().copied(), order.get(1).copied()];
        JitPlan {
            supported,
            needs_one,
            mixed_safe,
            hot,
        }
    }
}

/// The JIT lowering: one per `create_lowering(Backend::Jit)` call.
pub struct JitLowering {
    ctx: JitContext,
}

impl JitLowering {
    pub fn new() -> JitLowering {
        JitLowering {
            ctx: JitContext::new(),
        }
    }
}

impl Default for JitLowering {
    fn default() -> Self {
        JitLowering::new()
    }
}

impl Lowering for JitLowering {
    fn backend(&self) -> Backend {
        Backend::Jit
    }

    fn emit(&self, iet: &Node, _ctx: &Context) -> String {
        let mut compiled = Vec::new();
        crate::executor::collect_compiled(iet, &mut compiled);
        let mut out = String::new();
        for (i, cc) in compiled.iter().enumerate() {
            let plan = JitPlan::analyze(cc);
            out.push_str(&format!(
                "; cluster {i}: {} ops, {} streams, max stack {} -> {}\n",
                cc.ops.len(),
                cc.streams.len(),
                cc.max_stack,
                if plan.supported {
                    "native avx (8-wide + scalar tail)"
                } else {
                    "bytecode fallback"
                },
            ));
        }
        out
    }

    fn compile(&self, cc: &CompiledCluster) -> Box<dyn ClusterKernel> {
        Box::new(JitKernel {
            ctx: self.ctx,
            plan: JitPlan::analyze(cc),
            modules: Mutex::new(HashMap::new()),
            fallback: BytecodeKernel::new(cc),
        })
    }
}

/// A JIT-compiled cluster. Machine code is generated lazily per
/// geometry (the resolved linear offsets are the key — a simulated
/// multi-rank universe shares one kernel across ranks whose local
/// shapes may differ).
pub struct JitKernel {
    ctx: JitContext,
    plan: JitPlan,
    modules: Mutex<HashMap<Vec<isize>, Option<Arc<CompiledModule>>>>,
    fallback: BytecodeKernel,
}

impl JitKernel {
    /// Fetch or build the native module for this geometry. `None` when
    /// the cluster (or this geometry's displacements) cannot be JITted.
    fn module_for(&self, cc: &CompiledCluster, resolved: &[isize]) -> Option<Arc<CompiledModule>> {
        if !self.plan.supported {
            return None;
        }
        let mut cache = self.modules.lock().unwrap();
        if let Some(hit) = cache.get(resolved) {
            return hit.clone();
        }
        let built = codegen_row_fn(cc, resolved, &self.plan)
            .and_then(|asm| self.ctx.finalize(asm).ok().map(Arc::new));
        if built.is_some() {
            JIT_MODULES_BUILT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        cache.insert(resolved.to_vec(), built.clone());
        built
    }
}

impl ClusterKernel for JitKernel {
    fn cached_modules(&self) -> usize {
        self.modules
            .lock()
            .unwrap()
            .values()
            .filter(|m| m.is_some())
            .count()
    }

    fn exec_box(&self, l: &Launch<'_>, bx: &BoxNd, buffers: &mut [&mut [f32]]) {
        match self.module_for(l.cc, l.resolved) {
            Some(module) => {
                let origins: Vec<*mut f32> = buffers.iter_mut().map(|b| b.as_mut_ptr()).collect();
                run_box(&module, l, bx, &origins);
            }
            None => self.fallback.exec_box(l, bx, buffers),
        }
    }

    fn exec_box_mixed(
        &self,
        l: &Launch<'_>,
        bx: &BoxNd,
        reads: &mut [Option<&[f32]>],
        writes: &mut [Option<(&mut [f32], usize)>],
    ) {
        if !self.plan.mixed_safe {
            return self.fallback.exec_box_mixed(l, bx, reads, writes);
        }
        match self.module_for(l.cc, l.resolved) {
            Some(module) => {
                // Per-stream origin pointers in full-array linear index
                // space: a write slab starting at linear offset `off`
                // rebases to `slab_ptr - off`. The generated code only
                // dereferences in-slab indices (stores hit the current
                // point; `mixed_safe` rules out escaping loads), and
                // read bindings are never written through.
                let origins: Vec<*mut f32> = (0..l.cc.streams.len())
                    .map(|s| match (&reads[s], &mut writes[s]) {
                        (Some(r), _) => r.as_ptr() as *mut f32,
                        (None, Some((w, off))) => w.as_mut_ptr().wrapping_sub(*off),
                        (None, None) => unreachable!("unbound stream"),
                    })
                    .collect();
                run_box(&module, l, bx, &origins);
            }
            None => self.fallback.exec_box_mixed(l, bx, reads, writes),
        }
    }
}

// ---------------------------------------------------------------------------
// Row driver
// ---------------------------------------------------------------------------

/// Drive the generated row function over every inner row of `bx`,
/// reproducing the interpreter's tiling and odometer exactly.
fn run_box(module: &CompiledModule, l: &Launch<'_>, bx: &BoxNd, origins: &[*mut f32]) {
    let nd = bx.len();
    if bx.iter().any(|r| r.is_empty()) {
        return;
    }
    let cc = l.cc;
    // Bank: [1.0, consts…, scalars…, params…] — offsets baked into the
    // generated vbroadcastss instructions.
    let mut bank = Vec::with_capacity(1 + cc.consts.len() + l.scalars.len() + l.params.len());
    bank.push(1.0f32);
    bank.extend_from_slice(&cc.consts);
    bank.extend_from_slice(l.scalars);
    bank.extend_from_slice(l.params);
    // 8-lane memory slots for temporaries (the scalar tail uses lane 0).
    let mut temps = vec![0.0f32; cc.num_temps * 8];

    let nstreams = cc.streams.len();
    let mut streams = vec![std::ptr::null_mut::<f32>(); nstreams];
    for tile in crate::executor::tiles(bx, l.block) {
        if tile.iter().any(|r| r.is_empty()) {
            continue;
        }
        let inner = tile[nd - 1].clone();
        let n = inner.len() as u64;
        let mut outer: Vec<usize> = tile[..nd - 1].iter().map(|r| r.start).collect();
        loop {
            for s in 0..nstreams {
                let mut base = 0usize;
                for d in 0..nd - 1 {
                    base += (outer[d] + l.halos[s]) * l.strides[s][d];
                }
                base += (inner.start + l.halos[s]) * l.strides[s][nd - 1];
                streams[s] = origins[s].wrapping_add(base);
            }
            let mut args = RowArgs {
                streams: streams.as_ptr(),
                n,
                bank: bank.as_ptr(),
                temps: temps.as_mut_ptr(),
                saved_csr: 0,
                kernel_csr: 0,
            };
            // SAFETY: the generated function implements the
            // `extern "C" fn(*mut u8)` row ABI; every address it forms
            // is `stream[s] + (i + resolved[off]) * 4` for `i < n`,
            // in-bounds by the same argument as the interpreter's
            // (verified by mpix-analysis' check_bounds pass, W = 8
            // covering the strip loads).
            unsafe { module.call(&mut args as *mut RowArgs as *mut u8) };
            if nd == 1 {
                break;
            }
            let mut d = nd - 1;
            let mut done = false;
            loop {
                if d == 0 {
                    done = true;
                    break;
                }
                d -= 1;
                outer[d] += 1;
                if outer[d] < tile[d].end {
                    break;
                }
                outer[d] = tile[d].start;
            }
            if done {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// Generate the row function for one `(cluster, resolved)` pair, or
/// `None` if a displacement overflows the disp32 addressing we emit.
fn codegen_row_fn(cc: &CompiledCluster, resolved: &[isize], plan: &JitPlan) -> Option<Asm> {
    // Every load's byte displacement must fit rel32 addressing.
    for &r in resolved {
        i32::try_from(r.checked_mul(4)?).ok()?;
    }
    let mut a = Asm::new();
    // Prologue — must match the `RowArgs` field order. First switch to
    // the kernel arithmetic (FTZ|DAZ, see `crate::arith`); `rdi` stays
    // live to the epilogue, which restores the caller's MXCSR.
    a.stmxcsr(Reg::Rdi, 32); // saved_csr
    a.mov_r_m(Reg::Rax, Reg::Rdi, 32);
    a.or_r_imm(Reg::Rax, arith::MXCSR_FTZ_DAZ as i32);
    a.mov_m_r(Reg::Rdi, 40, Reg::Rax); // kernel_csr
    a.ldmxcsr(Reg::Rdi, 40);
    a.mov_r_m(Reg::Rsi, Reg::Rdi, 0); // streams
    a.mov_r_m(Reg::Rdx, Reg::Rdi, 8); // n
    a.mov_r_m(Reg::R8, Reg::Rdi, 16); // bank
    a.mov_r_m(Reg::R9, Reg::Rdi, 24); // temps
    if let Some(s) = plan.hot[0] {
        a.mov_r_m(Reg::R10, Reg::Rsi, (s * 8) as i32);
    }
    if let Some(s) = plan.hot[1] {
        a.mov_r_m(Reg::R11, Reg::Rsi, (s * 8) as i32);
    }
    if plan.needs_one {
        a.vbroadcastss(ONE, Reg::R8, 0);
    }
    a.xor_r(Reg::Rcx);

    let vec_top = a.new_label();
    let tail = a.new_label();
    let done = a.new_label();

    a.bind(vec_top);
    a.lea(Reg::Rax, Reg::Rcx, 8);
    a.cmp_r_r(Reg::Rax, Reg::Rdx);
    a.jcc(Cc::A, tail);
    emit_body(&mut a, cc, resolved, plan, true);
    a.add_r_imm(Reg::Rcx, 8);
    a.jmp(vec_top);

    a.bind(tail);
    a.cmp_r_r(Reg::Rcx, Reg::Rdx);
    a.jcc(Cc::Ae, done);
    emit_body(&mut a, cc, resolved, plan, false);
    a.inc_r(Reg::Rcx);
    a.jmp(tail);

    a.bind(done);
    a.ldmxcsr(Reg::Rdi, 32);
    a.vzeroupper();
    a.ret();
    Some(a)
}

/// Bank byte offset of a coefficient source (`1.0` sits at slot 0).
fn bank_off(cc: &CompiledCluster, src: CoeffSrc) -> i32 {
    let slot = match src {
        CoeffSrc::Const(i) => 1 + i as usize,
        CoeffSrc::Scalar(i) => 1 + cc.consts.len() + i as usize,
        CoeffSrc::Param(i) => 1 + cc.consts.len() + cc.scalars.len() + i as usize,
    };
    (slot * 4) as i32
}

/// Emit the cluster body once, either 8-wide (`wide`) or scalar. The
/// two bodies use the same register plan; the scalar one swaps packed
/// ops for their `ss` forms and broadcasts for lane-0 loads, so the
/// tail computes exactly what the interpreter's scalar remainder does.
fn emit_body(a: &mut Asm, cc: &CompiledCluster, resolved: &[isize], plan: &JitPlan, wide: bool) {
    // Splat (or scalar-load) a bank value into `dst`.
    fn bank_load(a: &mut Asm, wide: bool, dst: Ymm, off: i32) {
        if wide {
            a.vbroadcastss(dst, Reg::R8, off);
        } else {
            a.vmovss_load(dst, Reg::R8, None, off);
        }
    }

    // Resolve the pointer register for a stream: pinned hot register or
    // a reload through the streams array into rax.
    let stream_ptr = |a: &mut Asm, s: usize| -> Reg {
        if plan.hot[0] == Some(s) {
            Reg::R10
        } else if plan.hot[1] == Some(s) {
            Reg::R11
        } else {
            a.mov_r_m(Reg::Rax, Reg::Rsi, (s * 8) as i32);
            Reg::Rax
        }
    };

    let disp = |off: u32| -> i32 { (resolved[off as usize] * 4) as i32 };

    let mut sp = 0usize;
    for op in &cc.ops {
        match *op {
            Op::Const(i) => {
                bank_load(a, wide, Ymm(sp as u8), bank_off(cc, CoeffSrc::Const(i)));
                sp += 1;
            }
            Op::Scalar(i) => {
                bank_load(a, wide, Ymm(sp as u8), bank_off(cc, CoeffSrc::Scalar(i)));
                sp += 1;
            }
            Op::Param(i) => {
                bank_load(a, wide, Ymm(sp as u8), bank_off(cc, CoeffSrc::Param(i)));
                sp += 1;
            }
            Op::Temp(i) => {
                let off = (i as usize * 32) as i32;
                if wide {
                    a.vmovups_load(Ymm(sp as u8), Reg::R9, None, off);
                } else {
                    a.vmovss_load(Ymm(sp as u8), Reg::R9, None, off);
                }
                sp += 1;
            }
            Op::SetTemp(i) => {
                sp -= 1;
                let off = (i as usize * 32) as i32;
                if wide {
                    a.vmovups_store(Reg::R9, None, off, Ymm(sp as u8));
                } else {
                    a.vmovss_store(Reg::R9, None, off, Ymm(sp as u8));
                }
            }
            Op::Load { stream, off } => {
                let p = stream_ptr(a, stream as usize);
                if wide {
                    a.vmovups_load(Ymm(sp as u8), p, Some(Reg::Rcx), disp(off));
                } else {
                    a.vmovss_load(Ymm(sp as u8), p, Some(Reg::Rcx), disp(off));
                }
                sp += 1;
            }
            Op::Store { stream } => {
                sp -= 1;
                let p = stream_ptr(a, stream as usize);
                if wide {
                    a.vmovups_store(p, Some(Reg::Rcx), 0, Ymm(sp as u8));
                } else {
                    a.vmovss_store(p, Some(Reg::Rcx), 0, Ymm(sp as u8));
                }
            }
            Op::Add => {
                sp -= 1;
                let (d, s) = (Ymm((sp - 1) as u8), Ymm(sp as u8));
                if wide {
                    a.vaddps_rr(d, d, s);
                } else {
                    a.vaddss_rr(d, d, s);
                }
            }
            Op::Mul => {
                sp -= 1;
                let (d, s) = (Ymm((sp - 1) as u8), Ymm(sp as u8));
                if wide {
                    a.vmulps_rr(d, d, s);
                } else {
                    a.vmulss_rr(d, d, s);
                }
            }
            Op::Pow(n) => {
                let t = Ymm((sp - 1) as u8);
                match n {
                    1 => {}
                    0 => a.vmovups_rr(t, ONE),
                    2 => {
                        if wide {
                            a.vmulps_rr(t, t, t);
                        } else {
                            a.vmulss_rr(t, t, t);
                        }
                    }
                    -1 => {
                        if wide {
                            a.vdivps_rr(t, ONE, t);
                        } else {
                            a.vdivss_rr(t, ONE, t);
                        }
                    }
                    -2 => {
                        if wide {
                            a.vmulps_rr(t, t, t);
                            a.vdivps_rr(t, ONE, t);
                        } else {
                            a.vmulss_rr(t, t, t);
                            a.vdivss_rr(t, ONE, t);
                        }
                    }
                    other => unreachable!("unsupported Pow({other}) reached codegen"),
                }
            }
            Op::Call(_) => unreachable!("Call reached codegen"),
            Op::MulAdd => {
                // top3 += top2 * top1, two roundings like the oracle.
                sp -= 2;
                let (d, x, y) = (Ymm((sp - 1) as u8), Ymm(sp as u8), Ymm((sp + 1) as u8));
                if wide {
                    a.vmulps_rr(SCRATCH, x, y);
                    a.vaddps_rr(d, d, SCRATCH);
                } else {
                    a.vmulss_rr(SCRATCH, x, y);
                    a.vaddss_rr(d, d, SCRATCH);
                }
            }
            Op::LoadMul { coeff, stream, off } => {
                bank_load(a, wide, SCRATCH, bank_off(cc, coeff));
                let p = stream_ptr(a, stream as usize);
                if wide {
                    a.vmulps_rm(Ymm(sp as u8), SCRATCH, p, Some(Reg::Rcx), disp(off));
                } else {
                    a.vmulss_rm(Ymm(sp as u8), SCRATCH, p, Some(Reg::Rcx), disp(off));
                }
                sp += 1;
            }
            Op::LoadMulAdd { coeff, stream, off } => {
                bank_load(a, wide, SCRATCH, bank_off(cc, coeff));
                let p = stream_ptr(a, stream as usize);
                let d = Ymm((sp - 1) as u8);
                if wide {
                    a.vmulps_rm(SCRATCH, SCRATCH, p, Some(Reg::Rcx), disp(off));
                    a.vaddps_rr(d, d, SCRATCH);
                } else {
                    a.vmulss_rm(SCRATCH, SCRATCH, p, Some(Reg::Rcx), disp(off));
                    a.vaddss_rr(d, d, SCRATCH);
                }
            }
        }
    }
    debug_assert_eq!(sp, 0, "unbalanced stack in generated body");
}
