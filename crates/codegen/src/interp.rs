//! The bytecode interpreter: each compiled cluster translated once, when
//! its kernel is compiled, into a register program, then executed over
//! strips of [`LANES`] contiguous innermost-loop points.
//!
//! The translation is the runtime analogue of the generated C's
//! `#pragma omp simd` loop body. Stack slots, temporaries and the
//! launch-invariant pushes (constants, scalars, parameters) all become
//! registers of one file of `[f32; W]` lane registers, so `Temp`,
//! `SetTemp` and constant pushes cost nothing per strip: a pushed temp
//! or constant is read where it lives, and a value a `SetTemp` pops is
//! written straight into the temp's register by the instruction that
//! computes it. What is left are the loads, the stores and the
//! arithmetic, each a fixed-trip-count loop over `W` lanes that LLVM
//! autovectorizes. The engine is generic over the strip width `W` but
//! runs at two only: `LANES` for every kernel launch, and `W = 1` for
//! the scalar oracle
//! ([`BytecodeKernel::scalar_oracle`](crate::backend::BytecodeKernel::scalar_oracle)).
//!
//! A row's last `n % LANES` points, and every row shorter than a strip,
//! run as one *partial* strip: the same instructions over all `LANES`
//! lanes, storing only the live ones. Its loads read a whole strip
//! where the binding has room (the dead lanes compute on neighbouring
//! values) and copy just the live values where it does not, so it
//! touches nothing outside the binding and each live lane computes
//! what a full strip would.
//!
//! Lane arithmetic is the kernel arithmetic of [`crate::arith`]
//! (FTZ/DAZ, mul-then-add with two roundings, no reassociation), so
//! results are bitwise equal at every width and to the JIT. DAZ is
//! applied where the stack program pushed a raw value (a load, a
//! constant or a temp holding one) that arithmetic consumes
//! ([`CompiledCluster::daz_pushes`]); arithmetic results are already
//! flushed.

use mpix_dmp::regions::BoxNd;
use mpix_symbolic::UnaryFn;

use crate::arith;
use crate::backend::{Launch, Stream};
use crate::bytecode::{CoeffSrc, CompiledCluster, Op};
use crate::executor::tiles;

/// The interpreter's strip width. A property of the engine, not a run
/// option: over the shipped kernels 16 lanes were never the slowest of
/// {1, 8, 16, 32}, while 32 lanes fall back to single points on rows
/// narrower than a strip and one lane runs 5–10× slower (DESIGN §3.2).
pub const LANES: usize = 16;

/// One register-program instruction. Register operands index the
/// kernel's register file; `stream`/`off` are the compiled cluster's
/// stream slots and offset-table entries, `k` a fused coefficient slot.
#[derive(Clone, Copy, Debug)]
enum Ins {
    /// `dst ← load`, with the DAZ read when arithmetic consumes it.
    Load {
        dst: u32,
        stream: u32,
        off: u32,
        daz: bool,
    },
    Store {
        src: u32,
        stream: u32,
    },
    /// `dst ← src` with the DAZ read: a raw temp read by arithmetic.
    Flush {
        dst: u32,
        src: u32,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    Add {
        dst: u32,
        a: u32,
        b: u32,
    },
    Mul {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `dst ← acc + x·y`.
    MulAdd {
        dst: u32,
        acc: u32,
        x: u32,
        y: u32,
    },
    Pow {
        dst: u32,
        src: u32,
        n: i32,
    },
    Call {
        dst: u32,
        src: u32,
        f: UnaryFn,
    },
    /// `dst ← c_k · load`.
    LoadMul {
        dst: u32,
        k: u32,
        stream: u32,
        off: u32,
    },
    /// `dst ← acc + c_k · load`.
    LoadMulAdd {
        dst: u32,
        acc: u32,
        k: u32,
        stream: u32,
        off: u32,
    },
}

/// A compiled cluster translated for the interpreter. Built once per
/// kernel by [`Program::new`]; everything that depends on a launch's
/// values is resolved per launch by [`Program::coeffs`].
pub(crate) struct Program {
    ins: Vec<Ins>,
    /// Size of the register file.
    nregs: usize,
    /// Launch-invariant registers: `(register, source, DAZ-read)`.
    consts: Vec<(u32, CoeffSrc, bool)>,
    /// Coefficient source of each fused slot `k`.
    coeffs: Vec<CoeffSrc>,
}

/// One value on the simulated stack: the register holding it and, when
/// an instruction wrote it into the stack slot's own register, that
/// instruction (a `SetTemp` may then retarget it to the temp).
#[derive(Clone, Copy)]
struct Entry {
    reg: u32,
    producer: Option<usize>,
}

impl Ins {
    /// The register this instruction writes, if any.
    fn dst_mut(&mut self) -> Option<&mut u32> {
        match self {
            Ins::Store { .. } => None,
            Ins::Load { dst, .. }
            | Ins::Flush { dst, .. }
            | Ins::Copy { dst, .. }
            | Ins::Add { dst, .. }
            | Ins::Mul { dst, .. }
            | Ins::MulAdd { dst, .. }
            | Ins::Pow { dst, .. }
            | Ins::Call { dst, .. }
            | Ins::LoadMul { dst, .. }
            | Ins::LoadMulAdd { dst, .. } => Some(dst),
        }
    }

    fn dst(mut self) -> Option<u32> {
        self.dst_mut().copied()
    }

    /// Every register this instruction reads or writes.
    fn regs(self) -> impl Iterator<Item = u32> {
        let (a, b, c, d) = match self {
            Ins::Load { dst, .. } | Ins::LoadMul { dst, .. } => (Some(dst), None, None, None),
            Ins::Store { src, .. } => (Some(src), None, None, None),
            Ins::Flush { dst, src }
            | Ins::Copy { dst, src }
            | Ins::Pow { dst, src, .. }
            | Ins::Call { dst, src, .. } => (Some(dst), Some(src), None, None),
            Ins::LoadMulAdd { dst, acc, .. } => (Some(dst), Some(acc), None, None),
            Ins::Add { dst, a, b } | Ins::Mul { dst, a, b } => (Some(dst), Some(a), Some(b), None),
            Ins::MulAdd { dst, acc, x, y } => (Some(dst), Some(acc), Some(x), Some(y)),
        };
        [a, b, c, d].into_iter().flatten()
    }
}

impl Program {
    /// Translate `cc`. Registers: the launch-invariant ones first, then
    /// one per temp, then one per stack slot. Each instruction writes
    /// the register of the stack slot its result occupies, except that
    /// a value a `SetTemp` pops is written to the temp directly when no
    /// instruction in between touches the temp.
    pub(crate) fn new(cc: &CompiledCluster) -> Program {
        let daz = cc.daz_pushes();
        let mut consts: Vec<(u32, CoeffSrc, bool)> = Vec::new();
        for (i, op) in cc.ops.iter().enumerate() {
            if let Some(src) = op.as_coeff() {
                if !consts.iter().any(|&(_, s, d)| (s, d) == (src, daz[i])) {
                    consts.push((consts.len() as u32, src, daz[i]));
                }
            }
        }
        let temp0 = consts.len();
        let slot0 = temp0 + cc.num_temps;
        let nregs = slot0 + cc.max_stack.max(1);
        let slot = |depth: usize| (slot0 + depth) as u32;
        let temp = |k: u32| (temp0 + k as usize) as u32;

        // One fused-coefficient slot per distinct source.
        fn slot_of(coeffs: &mut Vec<CoeffSrc>, key: CoeffSrc) -> u32 {
            match coeffs.iter().position(|&c| c == key) {
                Some(k) => k as u32,
                None => {
                    coeffs.push(key);
                    coeffs.len() as u32 - 1
                }
            }
        }
        let mut ins: Vec<Ins> = Vec::with_capacity(cc.ops.len());
        let mut coeffs = Vec::new();
        // Index of the last instruction touching each register.
        let mut touched: Vec<Option<usize>> = vec![None; nregs];
        let mut stack: Vec<Entry> = Vec::with_capacity(cc.max_stack);
        fn emit(ins: &mut Vec<Ins>, touched: &mut [Option<usize>], i: Ins) -> Entry {
            for r in i.regs() {
                touched[r as usize] = Some(ins.len());
            }
            ins.push(i);
            Entry {
                reg: i.dst().unwrap_or(u32::MAX),
                producer: Some(ins.len() - 1),
            }
        }
        for (i, &op) in cc.ops.iter().enumerate() {
            let top = slot(stack.len());
            match op {
                Op::Const(_) | Op::Scalar(_) | Op::Param(_) => {
                    let key = (op.as_coeff().expect("a lane-invariant push"), daz[i]);
                    let reg = consts.iter().find(|&&(_, s, d)| (s, d) == key);
                    let reg = reg.expect("every push has its register").0;
                    stack.push(Entry {
                        reg,
                        producer: None,
                    });
                }
                Op::Temp(k) if daz[i] => {
                    let src = temp(k);
                    stack.push(emit(&mut ins, &mut touched, Ins::Flush { dst: top, src }));
                }
                Op::Temp(k) => stack.push(Entry {
                    reg: temp(k),
                    producer: None,
                }),
                Op::SetTemp(k) => {
                    let e = stack.pop().expect("balanced program");
                    let t = temp(k);
                    // Stack values still reading the temp's old value
                    // move to their own slots first.
                    for d in 0..stack.len() {
                        if stack[d].reg == t {
                            let c = Ins::Copy {
                                dst: slot(d),
                                src: t,
                            };
                            stack[d] = emit(&mut ins, &mut touched, c);
                        }
                    }
                    match e.producer {
                        Some(j) if touched[t as usize].is_none_or(|last| last <= j) => {
                            *ins[j]
                                .dst_mut()
                                .expect("a stack value's producer writes it") = t;
                            touched[t as usize] = Some(j);
                        }
                        _ if e.reg == t => {}
                        _ => {
                            emit(&mut ins, &mut touched, Ins::Copy { dst: t, src: e.reg });
                        }
                    }
                }
                Op::Load { stream, off } => {
                    let l = Ins::Load {
                        dst: top,
                        stream,
                        off,
                        daz: daz[i],
                    };
                    stack.push(emit(&mut ins, &mut touched, l));
                }
                Op::Store { stream } => {
                    let src = stack.pop().expect("balanced program").reg;
                    emit(&mut ins, &mut touched, Ins::Store { src, stream });
                }
                Op::Pow(1) => {}
                Op::Pow(_) | Op::Call(_) => {
                    let src = stack.pop().expect("balanced program").reg;
                    let dst = slot(stack.len());
                    let u = match op {
                        Op::Pow(n) => Ins::Pow { dst, src, n },
                        Op::Call(f) => Ins::Call { dst, src, f },
                        _ => unreachable!(),
                    };
                    stack.push(emit(&mut ins, &mut touched, u));
                }
                Op::Add | Op::Mul => {
                    let b = stack.pop().expect("balanced program").reg;
                    let a = stack.pop().expect("balanced program").reg;
                    let dst = slot(stack.len());
                    let bin = match op {
                        Op::Add => Ins::Add { dst, a, b },
                        _ => Ins::Mul { dst, a, b },
                    };
                    stack.push(emit(&mut ins, &mut touched, bin));
                }
                Op::MulAdd => {
                    let y = stack.pop().expect("balanced program").reg;
                    let x = stack.pop().expect("balanced program").reg;
                    let acc = stack.pop().expect("balanced program").reg;
                    let dst = slot(stack.len());
                    let ma = Ins::MulAdd { dst, acc, x, y };
                    stack.push(emit(&mut ins, &mut touched, ma));
                }
                Op::LoadMul { coeff, stream, off } => {
                    let k = slot_of(&mut coeffs, coeff);
                    let lm = Ins::LoadMul {
                        dst: top,
                        k,
                        stream,
                        off,
                    };
                    stack.push(emit(&mut ins, &mut touched, lm));
                }
                Op::LoadMulAdd { coeff, stream, off } => {
                    let acc = stack.pop().expect("balanced program").reg;
                    let k = slot_of(&mut coeffs, coeff);
                    let lma = Ins::LoadMulAdd {
                        dst: slot(stack.len()),
                        acc,
                        k,
                        stream,
                        off,
                    };
                    stack.push(emit(&mut ins, &mut touched, lma));
                }
            }
        }
        Program {
            ins,
            nregs,
            consts,
            coeffs,
        }
    }

    /// Each fused coefficient's value for one launch, prepared for the
    /// lane loops ([`arith::Coeff`]).
    fn coeffs(&self, l: &Launch<'_>) -> Vec<arith::Coeff> {
        self.coeffs
            .iter()
            .map(|&src| arith::Coeff::new(src.value(&l.cc.consts, l.scalars, l.params)))
            .collect()
    }

    /// A register file for one box: every register zero except the
    /// launch-invariant ones.
    fn registers<const W: usize>(&self, l: &Launch<'_>) -> Vec<[f32; W]> {
        let mut regs = vec![[0.0f32; W]; self.nregs];
        for &(r, src, daz) in &self.consts {
            let v = src.value(&l.cc.consts, l.scalars, l.params);
            regs[r as usize] = [if daz { arith::flush(v) } else { v }; W];
        }
        regs
    }
}

// The strip engine indexes each binding from its own start: a row's
// base subtracts the binding's linear start offset once, so the
// per-load accessors below do no arithmetic.
impl Stream<'_> {
    /// The binding's linear start offset in its stream's padded buffer.
    fn off(&self) -> usize {
        match self {
            Stream::Read(_) => 0,
            Stream::Write { off, .. } => *off,
        }
    }

    /// The strip of `W` values from index `idx` of the binding. A
    /// partial strip (`Some(live)`) needs only its live values in the
    /// binding: it reads a whole strip where the binding has room, and
    /// otherwise copies the live values into `buf` (dead lanes zero).
    #[inline(always)]
    fn strip<'s, const W: usize>(
        &'s self,
        idx: usize,
        partial: Option<usize>,
        buf: &'s mut [f32; W],
    ) -> &'s [f32] {
        let data: &[f32] = match self {
            Stream::Read(r) => r,
            Stream::Write { slab, .. } => slab,
        };
        match partial {
            Some(live) if data.len() < idx + W => {
                buf[..live].copy_from_slice(&data[idx..idx + live]);
                buf
            }
            _ => &data[idx..idx + W],
        }
    }

    /// Mutable run of `w` values from index `idx` of the binding
    /// (stores only target written streams).
    #[inline(always)]
    fn run_mut(&mut self, idx: usize, w: usize) -> &mut [f32] {
        match self {
            Stream::Write { slab, .. } => &mut slab[idx..idx + w],
            Stream::Read(_) => unreachable!("store to a read-only stream"),
        }
    }
}

/// Execute `prog` over every point of `bx` (owned-local coordinates)
/// in strips of `W`, tile by tile: the bytecode backend's entry point.
pub(crate) fn exec_box<const W: usize>(
    prog: &Program,
    l: &Launch<'_>,
    bx: &BoxNd,
    streams: &mut [Stream<'_>],
) {
    let coeffs = prog.coeffs(l);
    for tile in tiles(bx, l.block) {
        exec_strips_box::<W>(prog, l, &coeffs, &tile, streams);
    }
}

/// `[f(0), …, f(W − 1)]`.
#[inline(always)]
fn lanes<const W: usize>(f: impl Fn(usize) -> f32) -> [f32; W] {
    let mut r = [0.0f32; W];
    for l in 0..W {
        r[l] = f(l);
    }
    r
}

/// Execute the program once over `W` contiguous innermost points, or
/// as a row's partial strip (`PARTIAL`) over its first `live` points.
/// `bases[s]` is lane 0's index in stream `s`'s binding; lanes `l`
/// live at `bases[s] + l` (innermost stride is 1 for every stream).
/// A partial strip computes every lane, on whatever its loads hand the
/// dead lanes, and stores only the live ones. Out of line: inlining
/// both forms into the row loop cost full strips 3–7% (bytecode, 1 rank).
#[inline(never)]
fn eval_strip<const W: usize, const PARTIAL: bool>(
    ins: &[Ins],
    coeffs: &[arith::Coeff],
    streams: &mut [Stream<'_>],
    bases: &[usize],
    resolved: &[isize],
    regs: &mut [[f32; W]],
    live: usize,
) {
    let at = |s: u32, off: u32| (bases[s as usize] as isize + resolved[off as usize]) as usize;
    let (partial, mut buf) = (PARTIAL.then_some(live), [0.0f32; W]);
    for &i in ins {
        match i {
            Ins::Load {
                dst,
                stream,
                off,
                daz,
            } => {
                let src = streams[stream as usize].strip(at(stream, off), partial, &mut buf);
                regs[dst as usize] = if daz {
                    lanes(|l| arith::flush(src[l]))
                } else {
                    lanes(|l| src[l])
                };
            }
            Ins::Store { src, stream } => {
                let (s, w) = (stream as usize, if PARTIAL { live } else { W });
                streams[s]
                    .run_mut(bases[s], w)
                    .copy_from_slice(&regs[src as usize][..w]);
            }
            Ins::Flush { dst, src } => {
                let v = regs[src as usize];
                regs[dst as usize] = lanes(|l| arith::flush(v[l]));
            }
            Ins::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
            Ins::Add { dst, a, b } => {
                let (x, y) = (regs[a as usize], regs[b as usize]);
                regs[dst as usize] = lanes(|l| arith::add_flushed(x[l], y[l]));
            }
            Ins::Mul { dst, a, b } => {
                let (x, y) = (regs[a as usize], regs[b as usize]);
                regs[dst as usize] = lanes(|l| arith::mul_flushed(x[l], y[l]));
            }
            Ins::MulAdd { dst, acc, x, y } => {
                let (a, x, y) = (regs[acc as usize], regs[x as usize], regs[y as usize]);
                regs[dst as usize] =
                    lanes(|l| arith::add_flushed(a[l], arith::mul_flushed(x[l], y[l])));
            }
            Ins::Pow { dst, src, n } => {
                let v = regs[src as usize];
                regs[dst as usize] = lanes(|l| arith::powi(v[l], n));
            }
            Ins::Call { dst, src, f } => {
                let v = regs[src as usize];
                regs[dst as usize] = lanes(|l| arith::call(f, v[l]));
            }
            Ins::LoadMul {
                dst,
                k,
                stream,
                off,
            } => {
                let src = streams[stream as usize].strip(at(stream, off), partial, &mut buf);
                let c = coeffs[k as usize];
                regs[dst as usize] = lanes(|l| c.times(src[l]));
            }
            Ins::LoadMulAdd {
                dst,
                acc: a,
                k,
                stream,
                off,
            } => {
                let src = streams[stream as usize].strip(at(stream, off), partial, &mut buf);
                let (c, a) = (coeffs[k as usize], regs[a as usize]);
                regs[dst as usize] = lanes(|l| arith::add_flushed(a[l], c.times(src[l])));
            }
        }
    }
}

/// Strip-execute a whole box: odometer over the outer dims, strips of
/// `W` along the contiguous innermost dim. A row's last `n % W` points
/// (all of a row shorter than a strip) run as one partial strip.
#[inline(always)]
fn exec_strips_box<const W: usize>(
    prog: &Program,
    l: &Launch<'_>,
    coeffs: &[arith::Coeff],
    bx: &BoxNd,
    streams: &mut [Stream<'_>],
) {
    let nd = bx.len();
    if bx.iter().any(|r| r.is_empty()) {
        return;
    }
    let (strides, halos, resolved) = (l.strides, l.halos, l.resolved);
    let nstreams = l.cc.streams.len();
    let inner = bx[nd - 1].clone();
    let mut outer: Vec<usize> = bx[..nd - 1].iter().map(|r| r.start).collect();
    let mut bases = vec![0usize; nstreams];
    let offs: Vec<usize> = streams.iter().map(Stream::off).collect();
    let mut regs = prog.registers::<W>(l);
    loop {
        for s in 0..nstreams {
            let mut base = 0usize;
            for d in 0..nd - 1 {
                base += (outer[d] + halos[s]) * strides[s][d];
            }
            base += (inner.start + halos[s]) * strides[s][nd - 1];
            bases[s] = base - offs[s];
        }
        let n = inner.len();
        for _ in 0..n / W {
            eval_strip::<W, false>(&prog.ins, coeffs, streams, &bases, resolved, &mut regs, W);
            for b in bases.iter_mut() {
                *b += W;
            }
        }
        let live = n % W;
        if live > 0 {
            eval_strip::<W, true>(
                &prog.ins, coeffs, streams, &bases, resolved, &mut regs, live,
            );
        }
        // Odometer over outer dims.
        if nd == 1 {
            return;
        }
        let mut d = nd - 1;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            outer[d] += 1;
            if outer[d] < bx[d].end {
                break;
            }
            outer[d] = bx[d].start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_symbolic::FieldId;

    fn launch<'a>(cc: &'a CompiledCluster, strides: &'a [Vec<usize>]) -> Launch<'a> {
        Launch {
            cc,
            strides,
            halos: &[0, 0],
            resolved: &[0, 1],
            scalars: &[],
            params: &[],
            block: 0,
        }
    }

    #[test]
    fn temp_set_again_while_pushed_keeps_the_pushed_value() {
        // out = tmp0 + tmp0 where the first read precedes tmp0's second
        // SetTemp: the pushed value must be the first one.
        let one = CoeffSrc::Const(0);
        let cc = CompiledCluster {
            ops: vec![
                Op::LoadMul {
                    coeff: one,
                    stream: 0,
                    off: 0,
                },
                Op::SetTemp(0),
                Op::Temp(0),
                Op::LoadMul {
                    coeff: one,
                    stream: 0,
                    off: 1,
                },
                Op::SetTemp(0),
                Op::Temp(0),
                Op::Add,
                Op::Store { stream: 1 },
            ],
            consts: vec![1.0],
            scalars: vec![],
            streams: vec![(FieldId(0), 0), (FieldId(1), 1)],
            written: vec![false, true],
            offsets: vec![(0, vec![0]), (0, vec![1])],
            num_temps: 1,
            max_stack: 2,
        };
        let (x, mut out) = ([1.5f32, 2.25], [0.0f32]);
        let strides = [vec![1], vec![1]];
        let bx: BoxNd = std::iter::once(0..1).collect();
        exec_box::<1>(
            &Program::new(&cc),
            &launch(&cc, &strides),
            &bx,
            &mut [Stream::Read(&x), Stream::whole(&mut out, true)],
        );
        assert_eq!(out[0], 3.75);
    }

    #[test]
    fn programs_that_read_what_they_store_never_rerun_a_point() {
        // u += 1 in place: a point evaluated twice would gain 2.
        let cc = CompiledCluster {
            ops: vec![
                Op::Load { stream: 0, off: 0 },
                Op::Const(0),
                Op::Add,
                Op::Store { stream: 0 },
            ],
            consts: vec![1.0],
            scalars: vec![],
            streams: vec![(FieldId(0), 1)],
            written: vec![true],
            offsets: vec![(0, vec![0])],
            num_temps: 0,
            max_stack: 2,
        };
        let prog = Program::new(&cc);
        let n = LANES + 3;
        let (strides, bx): (_, BoxNd) = ([vec![1]], std::iter::once(0..n).collect());
        let l = launch(&cc, &strides);
        let mut u: Vec<f32> = (0..n).map(|i| i as f32).collect();
        exec_box::<LANES>(&prog, &l, &bx, &mut [Stream::whole(&mut u, true)]);
        assert!(
            u.iter().enumerate().all(|(i, &v)| v == i as f32 + 1.0),
            "{u:?}"
        );
    }

    /// Run `cc` at strip width `W` over a `2 × n` box of streams padded
    /// by one halo cell on every side; returns the final buffers.
    fn run_rows<const W: usize>(cc: &CompiledCluster, n: usize) -> Vec<Vec<f32>> {
        let (rows, halo) = (2, 1);
        let stride = vec![n + 2 * halo, 1];
        let len = (rows + 2 * halo) * stride[0];
        let strides = vec![stride.clone(); cc.streams.len()];
        let resolved: Vec<isize> = cc
            .offsets
            .iter()
            .map(|(_, d)| d[0] as isize * stride[0] as isize + d[1] as isize)
            .collect();
        let l = Launch {
            cc,
            strides: &strides,
            halos: &vec![halo; cc.streams.len()],
            resolved: &resolved,
            scalars: &[],
            params: &[],
            block: 0,
        };
        let mut bufs: Vec<Vec<f32>> = (0..cc.streams.len())
            .map(|s| {
                (0..len)
                    .map(|i| ((i * 31 + s * 17 + 7) % 97) as f32 * 0.0625 - 3.0)
                    .collect()
            })
            .collect();
        let mut streams: Vec<Stream<'_>> = (bufs.iter_mut().zip(&cc.written))
            .map(|(b, &w)| Stream::whole(b, w))
            .collect();
        let bx: BoxNd = vec![0..rows, 0..n];
        exec_box::<W>(&Program::new(cc), &l, &bx, &mut streams);
        bufs
    }

    #[test]
    fn lanes_match_the_scalar_engine_at_every_inner_extent() {
        // out = (x[-1]/2 + x/4 - x[+1]/8) · x: its partial strips read
        // whole strips inside the padded rows.
        let stencil = CompiledCluster {
            ops: vec![
                Op::LoadMul {
                    coeff: CoeffSrc::Const(0),
                    stream: 0,
                    off: 0,
                },
                Op::LoadMulAdd {
                    coeff: CoeffSrc::Const(1),
                    stream: 0,
                    off: 1,
                },
                Op::LoadMulAdd {
                    coeff: CoeffSrc::Const(2),
                    stream: 0,
                    off: 2,
                },
                Op::Load { stream: 0, off: 1 },
                Op::Mul,
                Op::Store { stream: 1 },
            ],
            consts: vec![0.5, 0.25, -0.125],
            scalars: vec![],
            streams: vec![(FieldId(0), 0), (FieldId(1), 1)],
            written: vec![false, true],
            offsets: vec![(0, vec![0, -1]), (0, vec![0, 0]), (0, vec![0, 1])],
            num_temps: 0,
            max_stack: 2,
        };
        // u = u·3/4 + 1 in place: loads what it stores, so the dead
        // lanes of a partial strip must never be stored.
        let in_place = CompiledCluster {
            ops: vec![
                Op::Load { stream: 0, off: 0 },
                Op::Const(0),
                Op::Mul,
                Op::Const(1),
                Op::Add,
                Op::Store { stream: 0 },
            ],
            consts: vec![0.75, 1.0],
            scalars: vec![],
            streams: vec![(FieldId(0), 1)],
            written: vec![true],
            offsets: vec![(0, vec![0, 0])],
            num_temps: 0,
            max_stack: 2,
        };
        // Rows shorter than a strip, exact strips, and every tail length
        // after one, two and three full strips.
        for n in 1..=3 * LANES + 1 {
            for (name, cc) in [("stencil", &stencil), ("in-place", &in_place)] {
                let (lanes, scalar) = (run_rows::<LANES>(cc, n), run_rows::<1>(cc, n));
                for (s, (a, b)) in lanes.iter().zip(&scalar).enumerate() {
                    let same = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "{name}, inner extent {n}, stream {s}");
                }
            }
        }
    }
}
