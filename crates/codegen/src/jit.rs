//! Native JIT backend: compiles cluster bytecode to x86-64 AVX machine
//! code through the vendored `cranelift` crate.
//!
//! The generated function mirrors the strip interpreter exactly — 8-lane
//! vector strips plus one masked partial strip per row tail, evaluating
//! the same ops in the same order with the same mul-then-add rounding
//! (no FMA) under the same
//! flush-to-zero arithmetic ([`crate::arith`]: the hardware's MXCSR
//! FTZ|DAZ mode here, its emulation in the interpreter) — so its results
//! are bitwise identical to the bytecode oracle on every input. That is
//! a *structural* property: each bytecode op maps to a fixed AVX
//! sequence whose lane arithmetic is the IEEE operation the interpreter
//! performs, and every point is evaluated independently of the strip it
//! falls in. The `mpix-analysis` backend-equivalence pass and
//! `tests/backend_equivalence.rs` check it end to end.
//!
//! ## Code shape
//!
//! One function per `(cluster, resolved offsets)` pair — offsets are
//! per-geometry, so a multi-rank run compiles one variant per distinct
//! local shape (cached). One call runs one box (a loop-blocking tile):
//! the function walks the box's innermost dimension and the two outside
//! it (*rows* and *planes*) itself, so the Rust driver (`run_box`) only
//! iterates the dimensions beyond those, i.e. for boxes of four or more
//! dimensions.
//!
//! ```text
//! rdi = &BoxArgs { ptrs: *mut *mut f32, n: u64, bank: *const f32,
//!                  temps: *mut f32, row_step: *const isize,
//!                  plane_step: *const isize, rows: u64, planes: u64,
//!                  saved_csr: u64, kernel_csr: u64, tail_mask: [i32; 8] }
//!
//! prologue: push rbx, rbp (+ r12..r15 when they pin streams)
//!           saved_csr = MXCSR; MXCSR = saved_csr | FTZ | DAZ
//!           rsi=ptrs rdx=n r8=bank r9=temps rbp=planes
//!           r10..r15 = the hottest streams' first-row pointers
//!           ymm15 = 1.0 (when Pow ops need it)
//!           pinned ymm = the most-used bank values, broadcast once
//! plane:    rbx = rows
//! row:      rcx = 0
//!           while rcx+8U <= n: U interleaved 8-wide strips, rcx += 8U
//!           while rcx+8  <= n: one 8-wide strip,            rcx += 8
//!           if    rcx    <  n: one partial strip (mask = tail_mask)
//!           every stream pointer += row_step[s]; --rbx → row
//!           every stream pointer += plane_step[s]; --rbp → plane
//! epilogue: MXCSR = saved_csr; vzeroupper; pop; ret
//! ```
//!
//! The pointer steps are bytes, passed at run time, so a module depends
//! only on the resolved offsets and is shared by every box of its
//! geometry. `plane_step` is the plane stride less the `rows` row steps
//! the row loop already applied. Streams not pinned to a register are
//! re-read from (and advanced in) the `ptrs` array.
//!
//! The *bank* is `[1.0, consts…, scalars…, params…]` — every
//! point-invariant value at a compile-time-known offset.
//!
//! **Partial strip.** A row's last `n % 8` points run the 8-lane body
//! once more with every stream load and store a `vmaskmovps` under
//! `tail_mask` (built once per call from `n % 8`): masked-off lanes load
//! zeros, compute on them, are never stored and never fault. A fused
//! tap's memory operand becomes a masked load and a register multiply
//! with the operands in the same order. Temporaries stay whole-strip
//! moves of the call's own scratch memory.
//!
//! **Register plan.** A strip's stack slots live in consecutive ymm
//! registers from `ymm0` (the deepest shipped solver stack is 6; the
//! JIT accepts up to 12). Counting down from `ymm15` come
//! `1.0` (only when `Pow` needs it), the product scratch, the splat
//! scratch and, when strips do not interleave, the partial strip's lane
//! mask (otherwise it borrows strip 1's first register, which the
//! one-strip tail leaves free). The registers left
//! between hold the bank values used most often — constant, scalar and
//! parameter pushes and the coefficients of fused `LoadMul*` taps — each
//! broadcast once per call. A push of a pinned value costs nothing: the
//! stack slot aliases the pinned register until an op overwrites it.
//! Every other bank value is broadcast at each use.
//!
//! **Interleaving.** The wide loop evaluates `U` independent 8-lane
//! strips op by op (strip `k` owns stack registers `k·stack ..`,
//! addresses `+ 32k` bytes and temporary slots `temps + 32·(t·U + k)`),
//! so the strips share each coefficient broadcast and stream-pointer
//! reload, and their dependency chains overlap. `U` is a property of
//! the cluster, not a knob: the most strips (up to [`MAX_STRIPS`]) whose
//! stack registers fit the file with both scratches and `1.0`. Points
//! are still visited in row order and each is computed by the same ops,
//! so interleaving cannot change a bit.
//!
//! **FP mode.** MXCSR switches once per call, in the prologue, and is
//! restored in the epilogue — as in the paper's generated operators.
//!
//! Clusters the JIT cannot prove it supports fall back to the bytecode
//! interpreter per cluster, and [`ClusterRoute`] says which and why
//! ([`Fallback`]): elementary-function calls, exotic `Pow` exponents, a
//! stack deeper than the register file. A cluster runs on the same
//! backend whether its box is whole or one worker's dim-0 slab: each
//! stream's origin is its binding's pointer less the binding's linear
//! start offset (0 unsplit). Fallbacks preserve results exactly — the
//! interpreter *is* the reference semantics.

use std::collections::HashMap;
use std::mem::offset_of;
use std::sync::{Arc, Mutex};

use cranelift::{Asm, Cc, CompiledModule, JitContext, Reg, Ymm};
use mpix_dmp::regions::BoxNd;

use crate::arith;
use crate::backend::{Backend, BytecodeKernel, ClusterKernel, Launch, Stream};
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

/// Size of the AVX register file.
const NUM_YMM: usize = 16;
/// Deepest expression stack one strip may map to registers.
const MAX_JIT_STACK: usize = 12;
/// Most 8-lane strips one wide-loop iteration interleaves.
pub const MAX_STRIPS: usize = 2;
/// Registers pinning the hottest streams' row pointers, hottest first.
const HOT: [Reg; 6] = [Reg::R10, Reg::R11, Reg::R12, Reg::R13, Reg::R14, Reg::R15];

/// Arguments for one generated box call. The generated code addresses
/// the fields through `offset_of!`.
#[repr(C)]
struct BoxArgs {
    /// Per-stream pointer to the box's first point, advanced in place
    /// for streams not pinned to a register.
    ptrs: *mut *mut f32,
    /// Innermost extent (points per row).
    n: u64,
    bank: *const f32,
    temps: *mut f32,
    /// Per-stream byte step from one row to the next.
    row_step: *const isize,
    /// Per-stream byte step from the end of a plane's last row to the
    /// next plane's first.
    plane_step: *const isize,
    rows: u64,
    planes: u64,
    /// Scratch for the MXCSR switch: the prologue stores the caller's
    /// MXCSR in the low half of `saved_csr` and the kernel's (caller's
    /// | FTZ | DAZ) in `kernel_csr`; the epilogue reloads `saved_csr`.
    saved_csr: u64,
    kernel_csr: u64,
    /// Lane mask of each row's partial strip: all ones on its first
    /// `n % 8` lanes, zero on the rest.
    tail_mask: [i32; 8],
}

/// `BoxArgs` field offset as an addressing displacement.
macro_rules! arg {
    ($field:ident) => {
        offset_of!(BoxArgs, $field) as i32
    };
}

/// Why the JIT hands a cluster to the bytecode interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fallback {
    /// An elementary-function `Call` op has no native lowering.
    Call,
    /// A `Pow` exponent outside `-2..=2`.
    Pow(i32),
    /// The expression stack is deeper than the 12 registers one strip
    /// may use.
    Stack(usize),
}

/// Which backend actually executes one compiled cluster, whole boxes
/// and slabs alike. Under [`Backend::Bytecode`] it is the interpreter
/// and `fallback` is `None`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterRoute {
    /// Runs the cluster's boxes.
    pub backend: Backend,
    /// Why the JIT handed the cluster to the interpreter.
    pub fallback: Option<Fallback>,
}

impl ClusterRoute {
    /// The route of `cc` compiled for `backend`.
    pub fn of(backend: Backend, cc: &CompiledCluster) -> ClusterRoute {
        let fallback = match backend {
            Backend::Bytecode => None,
            Backend::Jit => JitPlan::analyze(cc).fallback,
        };
        ClusterRoute {
            backend: if fallback.is_some() {
                Backend::Bytecode
            } else {
                backend
            },
            fallback,
        }
    }
}

/// What the structural analysis of a cluster decided: whether it can be
/// JITted, and the register plan of the generated code.
struct JitPlan {
    /// Why the cluster runs on the interpreter; `None` = native.
    fallback: Option<Fallback>,
    /// Registers per strip (the cluster's maximum stack depth).
    stack: usize,
    /// 8-lane strips per wide-loop iteration.
    strips: usize,
    /// Stream slots pinned to the [`HOT`] registers, hottest first.
    hot: Vec<usize>,
    /// Broadcast 1.0, when `Pow` ops need it.
    one: Option<Ymm>,
    /// Product scratch (fused multiply-adds, `LoadMulAdd` taps).
    prod: Ymm,
    /// Splat scratch for unpinned coefficients.
    splat: Ymm,
    /// The partial strip's lane mask: strip 1's first stack register,
    /// which the one-strip tail leaves free, or one more register from
    /// the top when strips do not interleave.
    mask: Ymm,
    /// `(bank byte offset, register)` of the pinned bank values.
    pins: Vec<(i32, Ymm)>,
}

impl JitPlan {
    fn analyze(cc: &CompiledCluster) -> JitPlan {
        let mut fallback = (cc.max_stack > MAX_JIT_STACK).then_some(Fallback::Stack(cc.max_stack));
        let mut needs_one = false;
        let mut refs = vec![0usize; cc.streams.len()];
        // Bank uses per byte offset, with first appearance as tiebreak.
        let mut uses: Vec<(i32, usize)> = Vec::new();
        let mut use_bank = |off: i32| match uses.iter_mut().find(|(o, _)| *o == off) {
            Some((_, n)) => *n += 1,
            None => uses.push((off, 1)),
        };
        for op in &cc.ops {
            if let Some(src) = bank_src(op) {
                use_bank(bank_off(cc, src));
            }
            if let Some(s) = op.stream_read().or(op.stream_written()) {
                refs[s as usize] += 1;
            }
            match *op {
                Op::Call(_) => {
                    fallback.get_or_insert(Fallback::Call);
                }
                Op::Pow(n) => {
                    if !matches!(n, -2..=2) {
                        fallback.get_or_insert(Fallback::Pow(n));
                    }
                    needs_one = true;
                }
                _ => {}
            }
        }
        let mut order: Vec<usize> = (0..refs.len()).collect();
        order.sort_by_key(|&s| std::cmp::Reverse(refs[s]));
        order.truncate(HOT.len());

        // Registers from the top: 1.0, the product and splat scratches,
        // then the tail's lane mask when no second strip lends it one.
        let stack = cc.max_stack.max(1);
        let reserved = |strips: usize| usize::from(needs_one) + 2 + usize::from(strips == 1);
        let strips = (1..=MAX_STRIPS)
            .rev()
            .find(|&u| u * stack + reserved(u) <= NUM_YMM)
            .unwrap_or(1);
        let mut top = NUM_YMM;
        let mut take = || {
            top -= 1;
            Ymm(top as u8)
        };
        let one = needs_one.then(&mut take);
        let prod = take();
        let splat = take();
        let mask = if strips > 1 { Ymm(stack as u8) } else { take() };
        // The registers between the strips' stack slots and the
        // scratches pin the most-used bank values.
        uses.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let free = (strips * stack..top).map(|r| Ymm(r as u8));
        let pins = uses.iter().map(|&(off, _)| off).zip(free).collect();
        JitPlan {
            fallback,
            stack,
            strips,
            hot: order,
            one,
            prod,
            splat,
            mask,
            pins,
        }
    }

    /// The register pinning stream `s`'s row pointer, if any.
    fn hot_reg(&self, s: usize) -> Option<Reg> {
        self.hot.iter().position(|&h| h == s).map(|i| HOT[i])
    }

    /// The register pinning the bank value at byte offset `off`, if any.
    fn pinned(&self, off: i32) -> Option<Ymm> {
        self.pins.iter().find(|&&(o, _)| o == off).map(|&(_, r)| r)
    }
}

/// One geometry's native module, with each stream's [`Reach`].
struct Native {
    module: CompiledModule,
    reach: Vec<Reach>,
}

/// How far one stream's accesses reach from the current point: the
/// least and greatest linear delta of its loads and stores (a store is
/// at delta 0), and whether the cluster stores to it. An untouched
/// stream has `least > most`.
#[derive(Clone, Copy)]
struct Reach {
    least: isize,
    most: isize,
    stored: bool,
}

/// Each stream's reach under `resolved`.
fn reach(cc: &CompiledCluster, resolved: &[isize]) -> Vec<Reach> {
    let untouched = Reach {
        least: isize::MAX,
        most: isize::MIN,
        stored: false,
    };
    let mut reach = vec![untouched; cc.streams.len()];
    for op in &cc.ops {
        let (s, delta) = match (op.load(), op.stream_written()) {
            (Some((s, off)), _) => (s, resolved[off as usize]),
            (None, Some(s)) => (s, 0),
            (None, None) => continue,
        };
        let r = &mut reach[s as usize];
        r.least = r.least.min(delta);
        r.most = r.most.max(delta);
        r.stored |= op.stream_written().is_some();
    }
    reach
}

/// A JIT-compiled cluster. Machine code is generated lazily per
/// geometry (the resolved linear offsets are the key — a simulated
/// multi-rank universe shares one kernel across ranks whose local
/// shapes may differ).
pub struct JitKernel {
    ctx: JitContext,
    plan: JitPlan,
    modules: Mutex<HashMap<Vec<isize>, Option<Arc<Native>>>>,
    fallback: BytecodeKernel,
}

impl JitKernel {
    /// Analyze `cc` for native support; machine code is encoded on
    /// first use per geometry. The caller has checked that `ctx`'s
    /// target can run it.
    pub(crate) fn new(ctx: JitContext, cc: &CompiledCluster) -> JitKernel {
        JitKernel {
            ctx,
            plan: JitPlan::analyze(cc),
            modules: Mutex::new(HashMap::new()),
            fallback: BytecodeKernel::new(cc),
        }
    }

    /// Fetch or build the native module for this geometry. `None` when
    /// the cluster (or this geometry's displacements) cannot be JITted.
    fn module_for(&self, cc: &CompiledCluster, resolved: &[isize]) -> Option<Arc<Native>> {
        if self.plan.fallback.is_some() {
            return None;
        }
        let mut cache = self.modules.lock().unwrap();
        if let Some(hit) = cache.get(resolved) {
            return hit.clone();
        }
        let built = codegen_box_fn(cc, resolved, &self.plan)
            .and_then(|asm| self.ctx.finalize(asm).ok())
            .map(|module| {
                let reach = reach(cc, resolved);
                Arc::new(Native { module, reach })
            });
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

    fn exec_box(&self, l: &Launch<'_>, bx: &BoxNd, streams: &mut [Stream<'_>]) {
        match self.module_for(l.cc, l.resolved) {
            Some(native) => {
                assert_in_bounds(l, bx, streams, &native.reach);
                // Per-stream origins in full-buffer linear index space:
                // a written slab starting at linear `off` rebases to
                // `slab − off`. Read bindings are never written through.
                let origins: Vec<*mut f32> = streams
                    .iter_mut()
                    .map(|s| match s {
                        Stream::Read(r) => r.as_ptr() as *mut f32,
                        Stream::Write { slab, off } => slab.as_mut_ptr().wrapping_sub(*off),
                    })
                    .collect();
                run_box(&native.module, &self.plan, l, bx, &origins);
            }
            None => self.fallback.exec_box(l, bx, streams),
        }
    }
}

/// Panic unless every element the launch's loads and stores touch over
/// `bx` lies inside its stream's binding, and every stream it stores to
/// is bound for writing, as the interpreter's slicing checks point by
/// point. Linear indices grow with every coordinate, so the box's first
/// and last points, moved by each stream's reach, bound its accesses.
fn assert_in_bounds(l: &Launch<'_>, bx: &BoxNd, streams: &[Stream<'_>], reach: &[Reach]) {
    if bx.iter().any(|r| r.is_empty()) {
        return;
    }
    for (s, (stream, r)) in streams.iter().zip(reach).enumerate() {
        if r.least > r.most {
            continue;
        }
        let linear = |corner: fn(&std::ops::Range<usize>) -> usize| -> isize {
            let at = bx.iter().zip(&l.strides[s]);
            at.map(|(r, &stride)| (corner(r) + l.halos[s]) * stride)
                .sum::<usize>() as isize
        };
        let (lo, len) = match stream {
            Stream::Read(_) if r.stored => panic!("stream {s} is stored to but bound read-only"),
            Stream::Read(data) => (0, data.len()),
            Stream::Write { slab, off } => (*off, slab.len()),
        };
        let (a, b) = (
            linear(|r| r.start) + r.least,
            linear(|r| r.end - 1) + r.most,
        );
        assert!(
            a >= lo as isize && b < (lo + len) as isize,
            "stream {s}: linear indices {a}..={b} leave its binding {lo}..{}",
            lo + len
        );
    }
}

// ---------------------------------------------------------------------------
// Box driver
// ---------------------------------------------------------------------------

/// Run the generated box function over every tile of `bx`, one call per
/// tile and per index of the dimensions beyond the three it walks
/// itself, reproducing the interpreter's tiling and row order exactly.
fn run_box(
    module: &CompiledModule,
    plan: &JitPlan,
    l: &Launch<'_>,
    bx: &BoxNd,
    origins: &[*mut f32],
) {
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
    // 8-lane memory slots for temporaries, one per interleaved strip
    // (the partial strip uses strip 0's).
    let mut temps = vec![0.0f32; cc.num_temps * 8 * plan.strips];

    // The generated code walks rows (dimension nd-2) and planes (nd-3);
    // a box with fewer dimensions has one of each, with no step.
    let (row_d, plane_d) = (nd.checked_sub(2), nd.checked_sub(3));
    let odometer = nd.saturating_sub(3);
    let nstreams = cc.streams.len();
    let byte_step = |s: usize, d: Option<usize>| d.map_or(0, |d| (l.strides[s][d] * 4) as isize);
    let row_step: Vec<isize> = (0..nstreams).map(|s| byte_step(s, row_d)).collect();
    let mut plane_step = vec![0isize; nstreams];
    let mut ptrs = vec![std::ptr::null_mut::<f32>(); nstreams];
    for tile in crate::executor::tiles(bx, l.block) {
        if tile.iter().any(|r| r.is_empty()) {
            continue;
        }
        let extent = |d: Option<usize>| d.map_or(1, |d| tile[d].len());
        let (rows, planes) = (extent(row_d), extent(plane_d));
        let n = tile[nd - 1].len();
        let tail_mask = std::array::from_fn(|l| -i32::from(l < n % 8));
        for s in 0..nstreams {
            plane_step[s] = byte_step(s, plane_d) - rows as isize * row_step[s];
        }
        let mut start: Vec<usize> = tile.iter().map(|r| r.start).collect();
        'call: loop {
            for s in 0..nstreams {
                let base: usize = (0..nd)
                    .map(|d| (start[d] + l.halos[s]) * l.strides[s][d])
                    .sum();
                ptrs[s] = origins[s].wrapping_add(base);
            }
            let mut args = BoxArgs {
                ptrs: ptrs.as_mut_ptr(),
                n: n as u64,
                bank: bank.as_ptr(),
                temps: temps.as_mut_ptr(),
                row_step: row_step.as_ptr(),
                plane_step: plane_step.as_ptr(),
                rows: rows as u64,
                planes: planes as u64,
                saved_csr: 0,
                kernel_csr: 0,
                tail_mask,
            };
            // SAFETY: the generated function implements the
            // `extern "C" fn(*mut u8)` box ABI; every stream element it
            // touches is `row pointer + (i + resolved[off]) * 4` for
            // `i < n` on one of the tile's rows, inside the stream's
            // binding (`assert_in_bounds`, checked by the caller). The
            // partial strip's masked-off lanes are never accessed.
            unsafe { module.call(&mut args as *mut BoxArgs as *mut u8) };
            // Odometer over the dimensions outside the native loops.
            let mut d = odometer;
            loop {
                if d == 0 {
                    break 'call;
                }
                d -= 1;
                start[d] += 1;
                if start[d] < tile[d].end {
                    continue 'call;
                }
                start[d] = tile[d].start;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// Generate the box function for one `(cluster, resolved)` pair, or
/// `None` if a displacement overflows the disp32 addressing we emit.
fn codegen_box_fn(cc: &CompiledCluster, resolved: &[isize], plan: &JitPlan) -> Option<Asm> {
    // Every load's byte displacement, in every strip, must fit disp32.
    let span = 32 * (plan.strips as isize - 1);
    for &r in resolved {
        i32::try_from(r.checked_mul(4)?.checked_add(span)?).ok()?;
    }
    // Callee-saved registers we use: the two loop counters and the
    // stream pins beyond r10/r11.
    let saved: Vec<Reg> = [Reg::Rbx, Reg::Rbp]
        .into_iter()
        .chain(HOT[..plan.hot.len()].iter().copied().skip(2))
        .collect();
    let mut a = Asm::new();
    for &r in &saved {
        a.push_r(r);
    }
    // Switch to the kernel arithmetic (FTZ|DAZ, see `crate::arith`)
    // once per call; `rdi` stays live to the epilogue, which restores
    // the caller's MXCSR.
    a.stmxcsr(Reg::Rdi, arg!(saved_csr));
    a.mov_r_m(Reg::Rax, Reg::Rdi, arg!(saved_csr));
    a.or_r_imm(Reg::Rax, arith::MXCSR_FTZ_DAZ as i32);
    a.mov_m_r(Reg::Rdi, arg!(kernel_csr), Reg::Rax);
    a.ldmxcsr(Reg::Rdi, arg!(kernel_csr));
    a.mov_r_m(Reg::Rsi, Reg::Rdi, arg!(ptrs));
    a.mov_r_m(Reg::Rdx, Reg::Rdi, arg!(n));
    a.mov_r_m(Reg::R8, Reg::Rdi, arg!(bank));
    a.mov_r_m(Reg::R9, Reg::Rdi, arg!(temps));
    a.mov_r_m(Reg::Rbp, Reg::Rdi, arg!(planes));
    for (i, &s) in plan.hot.iter().enumerate() {
        a.mov_r_m(HOT[i], Reg::Rsi, (s * 8) as i32);
    }
    if let Some(one) = plan.one {
        a.vbroadcastss(one, Reg::R8, 0);
    }
    for &(off, r) in &plan.pins {
        a.vbroadcastss(r, Reg::R8, off);
    }

    let plane_top = a.new_label();
    let row_top = a.new_label();
    let row_end = a.new_label();
    a.bind(plane_top);
    a.mov_r_m(Reg::Rbx, Reg::Rdi, arg!(rows));
    a.bind(row_top);
    a.xor_r(Reg::Rcx);
    // The U-strip loop, then (when U > 1) the 1-strip loop for what is
    // left of whole strips.
    let mut widths = vec![plan.strips];
    if plan.strips > 1 {
        widths.push(1);
    }
    for u in widths {
        let top = a.new_label();
        let next = a.new_label();
        a.bind(top);
        a.lea(Reg::Rax, Reg::Rcx, 8 * u as i32);
        a.cmp_r_r(Reg::Rax, Reg::Rdx);
        a.jcc(Cc::A, next);
        emit_body(&mut a, cc, resolved, plan, u, None);
        a.add_r_imm(Reg::Rcx, 8 * u as i32);
        a.jmp(top);
        a.bind(next);
    }
    // The row's last `n % 8` points: one strip under the lane mask.
    a.cmp_r_r(Reg::Rcx, Reg::Rdx);
    a.jcc(Cc::Ae, row_end);
    a.vmovups_load(plan.mask, Reg::Rdi, None, arg!(tail_mask));
    emit_body(&mut a, cc, resolved, plan, 1, Some(plan.mask));

    a.bind(row_end);
    emit_advance(&mut a, cc, plan, arg!(row_step));
    a.dec_r(Reg::Rbx);
    a.jcc(Cc::Ne, row_top);
    emit_advance(&mut a, cc, plan, arg!(plane_step));
    a.dec_r(Reg::Rbp);
    a.jcc(Cc::Ne, plane_top);

    a.ldmxcsr(Reg::Rdi, arg!(saved_csr));
    a.vzeroupper();
    for &r in saved.iter().rev() {
        a.pop_r(r);
    }
    a.ret();
    Some(a)
}

/// Advance every stream pointer by its entry in the byte-step array at
/// `BoxArgs` offset `steps` (clobbers `rax` and `rcx`).
fn emit_advance(a: &mut Asm, cc: &CompiledCluster, plan: &JitPlan, steps: i32) {
    a.mov_r_m(Reg::Rax, Reg::Rdi, steps);
    for s in 0..cc.streams.len() {
        let at = (s * 8) as i32;
        match plan.hot_reg(s) {
            Some(r) => a.add_r_m(r, Reg::Rax, at),
            None => {
                a.mov_r_m(Reg::Rcx, Reg::Rsi, at);
                a.add_r_m(Reg::Rcx, Reg::Rax, at);
                a.mov_m_r(Reg::Rsi, at, Reg::Rcx);
            }
        }
    }
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

/// The bank value an op reads, if any: a point-invariant push or a
/// fused tap's coefficient.
fn bank_src(op: &Op) -> Option<CoeffSrc> {
    match *op {
        Op::Const(i) => Some(CoeffSrc::Const(i)),
        Op::Scalar(i) => Some(CoeffSrc::Scalar(i)),
        Op::Param(i) => Some(CoeffSrc::Param(i)),
        Op::LoadMul { coeff, .. } | Op::LoadMulAdd { coeff, .. } => Some(coeff),
        _ => None,
    }
}

/// Stream accesses of one body: whole 8-lane strips, or (under `mask`)
/// the partial strip's live lanes. Masked-off lanes load zeros, are
/// never stored and never fault.
struct Lanes<'a> {
    a: &'a mut Asm,
    mask: Option<Ymm>,
}

impl Lanes<'_> {
    fn load(&mut self, dst: Ymm, base: Reg, disp: i32) {
        match self.mask {
            Some(m) => self.a.vmaskmovps_load(dst, m, base, Some(Reg::Rcx), disp),
            None => self.a.vmovups_load(dst, base, Some(Reg::Rcx), disp),
        }
    }

    fn store(&mut self, base: Reg, disp: i32, src: Ymm) {
        match self.mask {
            Some(m) => self.a.vmaskmovps_store(base, Some(Reg::Rcx), disp, m, src),
            None => self.a.vmovups_store(base, Some(Reg::Rcx), disp, src),
        }
    }

    /// `d ← c · strip`: a memory operand, or under the mask a masked
    /// load into `d` (never `c`) and a register multiply.
    fn mul_m(&mut self, d: Ymm, c: Ymm, base: Reg, disp: i32) {
        match self.mask {
            Some(_) => {
                self.load(d, base, disp);
                self.a.vmulps_rr(d, c, d);
            }
            None => self.a.vmulps_rm(d, c, base, Some(Reg::Rcx), disp),
        }
    }
}

/// Emit the cluster body once over `u` interleaved 8-lane strips, or
/// once as the row's partial strip when `mask` is set (`u` = 1). Every
/// op is emitted for strip 0, 1, … in turn; strip `k`'s stack slot `j`
/// is `ymm(k·stack + j)` unless a push aliased the slot to a pinned bank
/// register. The partial strip runs the same ops on every lane and only
/// its stream accesses are masked, so its live lanes compute exactly
/// what a full strip computes for them.
fn emit_body(
    a: &mut Asm,
    cc: &CompiledCluster,
    resolved: &[isize],
    plan: &JitPlan,
    u: usize,
    mask: Option<Ymm>,
) {
    let mut e = Lanes { a, mask };
    let slot = |k: usize, j: usize| Ymm((k * plan.stack + j) as u8);
    // Where stack slot `j` lives when a push left it in a pinned register.
    let mut alias: Vec<Option<Ymm>> = vec![None; plan.stack];
    let src = |alias: &[Option<Ymm>], k: usize, j: usize| alias[j].unwrap_or(slot(k, j));
    let disp = |off: u32, k: usize| (resolved[off as usize] * 4) as i32 + 32 * k as i32;
    let temp = |t: u32, k: usize| (32 * (t as usize * plan.strips + k)) as i32;
    // The pointer register for a stream: pinned, or reloaded into rax.
    let stream_ptr = |a: &mut Asm, s: u32| -> Reg {
        plan.hot_reg(s as usize).unwrap_or_else(|| {
            a.mov_r_m(Reg::Rax, Reg::Rsi, (s * 8) as i32);
            Reg::Rax
        })
    };
    let one = || plan.one.expect("Pow without the 1.0 register");

    let mut sp = 0usize;
    for op in &cc.ops {
        match *op {
            Op::Const(_) | Op::Scalar(_) | Op::Param(_) => {
                let off = bank_off(cc, bank_src(op).unwrap());
                alias[sp] = plan.pinned(off);
                if alias[sp].is_none() {
                    e.a.vbroadcastss(slot(0, sp), Reg::R8, off);
                    for k in 1..u {
                        e.a.vmovups_rr(slot(k, sp), slot(0, sp));
                    }
                }
                sp += 1;
            }
            Op::Temp(t) => {
                alias[sp] = None;
                for k in 0..u {
                    e.a.vmovups_load(slot(k, sp), Reg::R9, None, temp(t, k));
                }
                sp += 1;
            }
            Op::SetTemp(t) => {
                sp -= 1;
                for k in 0..u {
                    e.a.vmovups_store(Reg::R9, None, temp(t, k), src(&alias, k, sp));
                }
            }
            Op::Load { stream, off } => {
                let p = stream_ptr(e.a, stream);
                alias[sp] = None;
                for k in 0..u {
                    e.load(slot(k, sp), p, disp(off, k));
                }
                sp += 1;
            }
            Op::Store { stream } => {
                sp -= 1;
                let p = stream_ptr(e.a, stream);
                for k in 0..u {
                    e.store(p, 32 * k as i32, src(&alias, k, sp));
                }
            }
            Op::Add | Op::Mul => {
                sp -= 1;
                for k in 0..u {
                    let (x, y) = (src(&alias, k, sp - 1), src(&alias, k, sp));
                    if *op == Op::Add {
                        e.a.vaddps_rr(slot(k, sp - 1), x, y);
                    } else {
                        e.a.vmulps_rr(slot(k, sp - 1), x, y);
                    }
                }
                alias[sp - 1] = None;
            }
            Op::Pow(1) => {}
            Op::Pow(n) => {
                let j = sp - 1;
                for k in 0..u {
                    let (t, x) = (slot(k, j), src(&alias, k, j));
                    match n {
                        0 => e.a.vmovups_rr(t, one()),
                        2 => e.a.vmulps_rr(t, x, x),
                        -1 => e.a.vdivps_rr(t, one(), x),
                        -2 => {
                            e.a.vmulps_rr(t, x, x);
                            e.a.vdivps_rr(t, one(), t);
                        }
                        other => unreachable!("unsupported Pow({other}) reached codegen"),
                    }
                }
                alias[j] = None;
            }
            Op::Call(_) => unreachable!("Call reached codegen"),
            Op::MulAdd => {
                // top3 += top2 * top1, two roundings like the oracle.
                sp -= 2;
                for k in 0..u {
                    let (x, y) = (src(&alias, k, sp), src(&alias, k, sp + 1));
                    e.a.vmulps_rr(plan.prod, x, y);
                    e.a.vaddps_rr(slot(k, sp - 1), src(&alias, k, sp - 1), plan.prod);
                }
                alias[sp - 1] = None;
            }
            Op::LoadMul { coeff, stream, off } => {
                let c = coeff_reg(e.a, cc, plan, coeff);
                let p = stream_ptr(e.a, stream);
                alias[sp] = None;
                for k in 0..u {
                    e.mul_m(slot(k, sp), c, p, disp(off, k));
                }
                sp += 1;
            }
            Op::LoadMulAdd { coeff, stream, off } => {
                let c = coeff_reg(e.a, cc, plan, coeff);
                let p = stream_ptr(e.a, stream);
                for k in 0..u {
                    e.mul_m(plan.prod, c, p, disp(off, k));
                    e.a.vaddps_rr(slot(k, sp - 1), src(&alias, k, sp - 1), plan.prod);
                }
                alias[sp - 1] = None;
            }
        }
    }
    debug_assert_eq!(sp, 0, "unbalanced stack in generated body");
}

/// The register holding a fused tap's coefficient: its pinned register,
/// or the splat scratch after one broadcast shared by all strips.
fn coeff_reg(a: &mut Asm, cc: &CompiledCluster, plan: &JitPlan, coeff: CoeffSrc) -> Ymm {
    let off = bank_off(cc, coeff);
    plan.pinned(off).unwrap_or_else(|| {
        a.vbroadcastss(plan.splat, Reg::R8, off);
        plan.splat
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `out = coeff · a[x + dx]` plus `extra` ops before the store: one
    /// read stream (0) and one written (1), both 1-D.
    fn cluster(extra: &[Op], max_stack: usize, load_written: bool) -> CompiledCluster {
        let stream = u32::from(load_written);
        let mut ops = vec![Op::LoadMul {
            coeff: CoeffSrc::Const(0),
            stream,
            off: 0,
        }];
        ops.extend_from_slice(extra);
        ops.push(Op::Store { stream: 1 });
        CompiledCluster {
            ops,
            consts: vec![0.5],
            scalars: Vec::new(),
            streams: vec![
                (mpix_symbolic::FieldId(0), 0),
                (mpix_symbolic::FieldId(1), 0),
            ],
            written: vec![false, true],
            offsets: vec![(stream, vec![1])],
            num_temps: 0,
            max_stack,
        }
    }

    #[test]
    fn routes_record_why_the_jit_falls_back() {
        let route = |cc: &CompiledCluster| ClusterRoute::of(Backend::Jit, cc);
        let native = route(&cluster(&[Op::Pow(-2)], 1, false));
        assert_eq!((native.backend, native.fallback), (Backend::Jit, None));
        // Reading the written stream off the point runs natively too:
        // split boxes bind slabs the generated code rebases.
        let r = route(&cluster(&[], 1, true));
        assert_eq!((r.backend, r.fallback), (Backend::Jit, None));
        let cases = [
            (
                cluster(&[Op::Call(mpix_symbolic::UnaryFn::Sqrt)], 1, false),
                Fallback::Call,
            ),
            (cluster(&[Op::Pow(3)], 1, false), Fallback::Pow(3)),
            (
                cluster(&[], MAX_JIT_STACK + 1, false),
                Fallback::Stack(MAX_JIT_STACK + 1),
            ),
        ];
        for (cc, why) in cases {
            let r = route(&cc);
            assert_eq!((r.backend, r.fallback), (Backend::Bytecode, Some(why)));
        }
        // The interpreter backend has nothing to fall back from.
        let r = ClusterRoute::of(Backend::Bytecode, &cluster(&[Op::Pow(3)], 1, false));
        assert_eq!((r.backend, r.fallback), (Backend::Bytecode, None));
    }

    /// Bounds of `out = 0.5 · a[x + 1]` over `x ∈ 0..4`, no halo, with
    /// `a` bound to `a_len` points and `out` to a slab over `out`
    /// (bound read-only when `out_read`).
    fn bounds(a_len: usize, out: std::ops::Range<usize>, out_read: bool) {
        let cc = cluster(&[], 1, false);
        let strides = [vec![1], vec![1]];
        let l = Launch {
            cc: &cc,
            strides: &strides,
            halos: &[0, 0],
            resolved: &[1],
            scalars: &[],
            params: &[],
            block: 0,
        };
        let (a, mut slab) = (vec![0.0; a_len], vec![0.0; out.len()]);
        let written = if out_read {
            Stream::Read(&slab)
        } else {
            Stream::Write {
                slab: &mut slab,
                off: out.start,
            }
        };
        let streams = [Stream::Read(&a), written];
        let bx = std::iter::once(0..4).collect();
        assert_in_bounds(&l, &bx, &streams, &reach(&cc, l.resolved));
    }

    #[test]
    fn bindings_covering_the_box_pass_the_bounds_check() {
        bounds(5, 0..4, false);
        bounds(5, 0..9, false);
    }

    #[test]
    #[should_panic(expected = "stream 0: linear indices 1..=4 leave its binding 0..4")]
    fn a_load_past_its_binding_panics() {
        bounds(4, 0..4, false);
    }

    #[test]
    #[should_panic(expected = "stream 1: linear indices 0..=3 leave its binding 1..4")]
    fn a_store_outside_its_slab_panics() {
        bounds(5, 1..4, false);
    }

    #[test]
    #[should_panic(expected = "stream 1 is stored to but bound read-only")]
    fn a_stored_stream_bound_read_only_panics() {
        bounds(5, 0..4, true);
    }

    #[test]
    fn strips_follow_the_register_budget() {
        // Shallow stack: two strips, the rest of the file pins bank values.
        let plan = JitPlan::analyze(&cluster(&[Op::Pow(-2)], 4, false));
        assert_eq!(plan.strips, 2);
        assert_eq!(plan.one, Some(Ymm(15)));
        assert_ne!(plan.prod, plan.splat);
        assert_eq!(plan.pins, vec![(4, Ymm(8))]);
        // The partial strip's mask borrows strip 1's first register.
        assert_eq!(plan.mask, Ymm(4));
        // Deep stack: one strip; the mask takes the last free register.
        let plan = JitPlan::analyze(&cluster(&[], MAX_JIT_STACK, false));
        assert_eq!(plan.strips, 1);
        assert_eq!(
            (plan.prod, plan.splat, plan.mask),
            (Ymm(15), Ymm(14), Ymm(13))
        );
        assert_eq!(plan.pins, vec![(4, Ymm(MAX_JIT_STACK as u8))]);
    }
}
