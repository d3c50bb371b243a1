//! # cranelift (local stand-in)
//!
//! The build environment has no registry access, so — following the
//! workspace's vendored-crate idiom (`rand`, `proptest`, `criterion`) —
//! this crate provides exactly the JIT surface `mpix-codegen` needs in
//! place of the real `cranelift`/`cranelift-jit` crates: a host target
//! probe, W^X executable-memory management, and an x86-64 assembler
//! with AVX (VEX-encoded) vector instructions and label fixups.
//!
//! The module layout mirrors a Cranelift-style backend (`types`,
//! `build`/[`asm`], [`memory`], and a [`JitContext`]/[`CompiledModule`]
//! pair) so a future swap to the real crates is a drop-in:
//!
//! * [`TargetInfo`] — host architecture/feature probe; JIT is gated on
//!   `x86_64-linux` with AVX.
//! * [`asm::Asm`] — instruction builder: GP moves/arithmetic, rel32
//!   branches with labels, and the 256-bit AVX ops a finite-difference
//!   kernel body needs (`vmovups`, masked `vmaskmovps`, `vbroadcastss`,
//!   `vaddps`/`vmulps`/`vdivps`), plus
//!   `stmxcsr`/`ldmxcsr` to switch the rounding/flush mode.
//! * [`memory::ExecMem`] — `mmap`(RW) → copy → `mprotect`(RX) via raw
//!   syscalls (no libc dependency), unmapped on drop.
//! * [`CompiledModule`] — a finalized function: owns its executable
//!   mapping and exposes the entry pointer.
//!
//! Safety model: the assembler produces bytes, the module makes them
//! executable; *calling* the entry point is `unsafe` and the caller is
//! responsible for the generated code's correctness. `mpix-codegen`
//! discharges that obligation with the `mpix-analysis` bounds proofs and
//! the bytecode-oracle equivalence gate.

pub mod asm;
pub mod memory;

pub use asm::{Asm, Cc, Reg, Ymm};
pub use memory::{ExecMem, MemError};

/// Host target description — the stand-in for Cranelift's ISA builder.
#[derive(Clone, Copy, Debug)]
pub struct TargetInfo {
    pub arch: &'static str,
    pub os: &'static str,
    /// 256-bit AVX available at runtime (required by the vector bodies).
    pub has_avx: bool,
}

impl TargetInfo {
    /// Probe the host.
    pub fn host() -> TargetInfo {
        TargetInfo {
            arch: std::env::consts::ARCH,
            os: std::env::consts::OS,
            has_avx: detect_avx(),
        }
    }

    /// Whether this host can run the generated code at all: x86-64
    /// Linux with AVX. Everything else must stay on the interpreter.
    pub fn supports_jit(&self) -> bool {
        self.arch == "x86_64" && self.os == "linux" && self.has_avx
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_avx() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx() -> bool {
    false
}

/// Compilation context — checks target support once and finalizes
/// assembled functions into executable modules.
#[derive(Clone, Copy, Debug)]
pub struct JitContext {
    target: TargetInfo,
}

/// Why a function could not be finalized into native code.
#[derive(Clone, Debug)]
pub enum JitError {
    /// Host is not x86-64 Linux with AVX.
    Unsupported(TargetInfo),
    /// Executable-memory syscall failed.
    Mem(MemError),
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::Unsupported(t) => write!(
                f,
                "jit unsupported on {}-{} (avx: {})",
                t.arch, t.os, t.has_avx
            ),
            JitError::Mem(e) => write!(f, "executable memory: {e}"),
        }
    }
}

impl JitContext {
    /// Create a context for the host target.
    pub fn new() -> JitContext {
        JitContext {
            target: TargetInfo::host(),
        }
    }

    pub fn target(&self) -> TargetInfo {
        self.target
    }

    /// Finalize an assembled function into an executable module.
    pub fn finalize(&self, asm: Asm) -> Result<CompiledModule, JitError> {
        if !self.target.supports_jit() {
            return Err(JitError::Unsupported(self.target));
        }
        let code = asm.finish();
        let mem = ExecMem::new(&code).map_err(JitError::Mem)?;
        Ok(CompiledModule { mem })
    }
}

impl Default for JitContext {
    fn default() -> Self {
        JitContext::new()
    }
}

/// A finalized native function: owns its RX mapping for its lifetime.
pub struct CompiledModule {
    mem: ExecMem,
}

impl CompiledModule {
    /// Entry point of the compiled function.
    pub fn entry_ptr(&self) -> *const u8 {
        self.mem.ptr()
    }

    /// Code size in bytes (diagnostics).
    pub fn code_len(&self) -> usize {
        self.mem.len()
    }

    /// Call as `extern "C" fn(*mut u8)` with one pointer argument.
    ///
    /// # Safety
    /// The generated code must implement exactly that ABI and only
    /// access memory reachable (and valid) through `arg`.
    pub unsafe fn call(&self, arg: *mut u8) {
        let f: unsafe extern "C" fn(*mut u8) = std::mem::transmute(self.entry_ptr());
        f(arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[-1; live] ++ [0; 8 - live]`: the lane mask of a strip's first
    /// `live` lanes.
    fn lane_mask(live: usize) -> [i32; 8] {
        std::array::from_fn(|l| if l < live { -1 } else { 0 })
    }

    /// JIT `out[i] = a[i] + 2.0 * b[i]` over n floats (8-wide strips +
    /// one masked strip for the tail) and check it end to end — the
    /// whole stack in one test: assembler, W^X memory, ABI, AVX
    /// encodings, label fixups. Points past `n` keep their values.
    #[test]
    fn jit_axpy_roundtrip() {
        let ctx = JitContext::new();
        if !ctx.target().supports_jit() {
            return; // nothing to test on non-x86-64 hosts
        }
        // args layout: [out: *mut f32, a: *const f32, b: *const f32,
        //               n: u64, k: *const f32, mask: [i32; 8]]
        let mut a = Asm::new();
        use asm::Reg::*;
        a.mov_r_m(R8, Rdi, 0); // out
        a.mov_r_m(R9, Rdi, 8); // a
        a.mov_r_m(R10, Rdi, 16); // b
        a.mov_r_m(Rdx, Rdi, 24); // n
        a.mov_r_m(R11, Rdi, 32); // k
        a.vbroadcastss(Ymm(1), R11, 0); // ymm1 = splat k
        a.xor_r(Rcx);
        let vec_top = a.new_label();
        let tail = a.new_label();
        let done = a.new_label();
        a.bind(vec_top);
        a.lea(Rax, Rcx, 8);
        a.cmp_r_r(Rax, Rdx);
        a.jcc(Cc::A, tail);
        a.vmovups_load(Ymm(0), R10, Some(Rcx), 0); // b[i..]
        a.vmulps_rr(Ymm(0), Ymm(1), Ymm(0)); // k*b
        a.vaddps_rm(Ymm(0), Ymm(0), R9, Some(Rcx), 0); // + a[i..]
        a.vmovups_store(R8, Some(Rcx), 0, Ymm(0));
        a.add_r_imm(Rcx, 8);
        a.jmp(vec_top);
        a.bind(tail);
        a.cmp_r_r(Rcx, Rdx);
        a.jcc(Cc::Ae, done);
        a.vmovups_load(Ymm(2), Rdi, None, 40); // the tail's lane mask
        a.vmaskmovps_load(Ymm(0), Ymm(2), R10, Some(Rcx), 0);
        a.vmulps_rr(Ymm(0), Ymm(1), Ymm(0));
        a.vmaskmovps_load(Ymm(3), Ymm(2), R9, Some(Rcx), 0);
        a.vaddps_rr(Ymm(0), Ymm(0), Ymm(3));
        a.vmaskmovps_store(R8, Some(Rcx), 0, Ymm(2), Ymm(0));
        a.bind(done);
        a.vzeroupper();
        a.ret();

        let m = ctx.finalize(a).expect("finalize");
        let n = 13usize; // one full strip + 5-point tail
        let av: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let bv: Vec<f32> = (0..n).map(|i| (i as f32) - 3.0).collect();
        let mut out = vec![-1.0f32; 16];
        let k = 2.0f32;
        #[repr(C)]
        struct Args {
            out: *mut f32,
            a: *const f32,
            b: *const f32,
            n: u64,
            k: *const f32,
            mask: [i32; 8],
        }
        let mut args = Args {
            out: out.as_mut_ptr(),
            a: av.as_ptr(),
            b: bv.as_ptr(),
            n: n as u64,
            k: &k,
            mask: lane_mask(n % 8),
        };
        unsafe { m.call(&mut args as *mut Args as *mut u8) };
        for (i, &got) in out.iter().enumerate() {
            let want = if i < n { av[i] + k * bv[i] } else { -1.0 };
            assert_eq!(got.to_bits(), want.to_bits(), "i={i}");
        }
    }

    /// A two-level loop in one call: rows of `n` points inside a padded
    /// 2-D array, `out[r][i] = a[r][i] + k`. The row counter lives in a
    /// callee-saved register (push/pop), the row pointers advance by a
    /// byte step read from memory (`add r64, [m]`) and the loop closes on
    /// `dec` + `jnz` — the shape of the kernel JIT's box functions.
    #[test]
    fn jit_row_loop_roundtrip() {
        let ctx = JitContext::new();
        if !ctx.target().supports_jit() {
            return;
        }
        // args layout: [out: *mut f32, a: *const f32, n: u64, rows: u64,
        //               step: i64 (bytes), k: *const f32, mask: [i32; 8]]
        let mut a = Asm::new();
        use asm::Reg::*;
        a.push_r(Rbx);
        a.push_r(R12);
        a.mov_r_m(R8, Rdi, 0); // out row
        a.mov_r_m(R12, Rdi, 8); // a row
        a.mov_r_m(Rdx, Rdi, 16); // n
        a.mov_r_m(Rbx, Rdi, 24); // rows
        a.mov_r_m(R11, Rdi, 40); // k
        a.vbroadcastss(Ymm(1), R11, 0);
        let row_top = a.new_label();
        let vec_top = a.new_label();
        let tail = a.new_label();
        let row_end = a.new_label();
        a.bind(row_top);
        a.xor_r(Rcx);
        a.bind(vec_top);
        a.lea(Rax, Rcx, 8);
        a.cmp_r_r(Rax, Rdx);
        a.jcc(Cc::A, tail);
        a.vaddps_rm(Ymm(0), Ymm(1), R12, Some(Rcx), 0);
        a.vmovups_store(R8, Some(Rcx), 0, Ymm(0));
        a.add_r_imm(Rcx, 8);
        a.jmp(vec_top);
        a.bind(tail);
        a.cmp_r_r(Rcx, Rdx);
        a.jcc(Cc::Ae, row_end);
        a.vmovups_load(Ymm(2), Rdi, None, 48);
        a.vmaskmovps_load(Ymm(0), Ymm(2), R12, Some(Rcx), 0);
        a.vaddps_rr(Ymm(0), Ymm(1), Ymm(0));
        a.vmaskmovps_store(R8, Some(Rcx), 0, Ymm(2), Ymm(0));
        a.bind(row_end);
        a.add_r_m(R8, Rdi, 32);
        a.add_r_m(R12, Rdi, 32);
        a.dec_r(Rbx);
        a.jcc(Cc::Ne, row_top);
        a.vzeroupper();
        a.pop_r(R12);
        a.pop_r(Rbx);
        a.ret();

        let m = ctx.finalize(a).expect("finalize");
        // 4 rows of 11 points (one strip + a 3-point tail) in rows of 16.
        let (rows, n, pitch) = (4usize, 11usize, 16usize);
        let av: Vec<f32> = (0..rows * pitch).map(|i| i as f32 * 0.25).collect();
        let mut out = vec![-1.0f32; rows * pitch];
        let k = 3.5f32;
        #[repr(C)]
        struct Args {
            out: *mut f32,
            a: *const f32,
            n: u64,
            rows: u64,
            step: i64,
            k: *const f32,
            mask: [i32; 8],
        }
        let mut args = Args {
            out: out.as_mut_ptr(),
            a: av.as_ptr(),
            n: n as u64,
            rows: rows as u64,
            step: (pitch * 4) as i64,
            k: &k,
            mask: lane_mask(n % 8),
        };
        unsafe { m.call(&mut args as *mut Args as *mut u8) };
        for r in 0..rows {
            for i in 0..pitch {
                let j = r * pitch + i;
                // Padding columns stay untouched.
                let want = if i < n { av[j] + k } else { -1.0 };
                assert_eq!(out[j].to_bits(), want.to_bits(), "row {r} col {i}");
            }
        }
    }

    #[test]
    fn div_matches_ieee() {
        let ctx = JitContext::new();
        if !ctx.target().supports_jit() {
            return;
        }
        // out[..8] = 1.0 / x[..8]  — args: [out, x, one]
        let mut a = Asm::new();
        use asm::Reg::*;
        a.mov_r_m(R8, Rdi, 0);
        a.mov_r_m(R9, Rdi, 8);
        a.mov_r_m(R10, Rdi, 16);
        a.vmovups_load(Ymm(0), R9, None, 0);
        a.vbroadcastss(Ymm(1), R10, 0);
        a.vdivps_rr(Ymm(0), Ymm(1), Ymm(0)); // 1.0 / x
        a.vmovups_store(R8, None, 0, Ymm(0));
        a.vzeroupper();
        a.ret();
        let m = ctx.finalize(a).unwrap();
        let x = [3.0f32, 0.1, -7.25, 1e-20, 0.0, -0.0, 1e30, f32::INFINITY];
        let mut out = [0.0f32; 8];
        let one = 1.0f32;
        let mut args = [
            out.as_mut_ptr() as usize,
            x.as_ptr() as usize,
            &one as *const f32 as usize,
        ];
        unsafe { m.call(args.as_mut_ptr() as *mut u8) };
        for (o, x) in out.iter().zip(x) {
            assert_eq!(o.to_bits(), (1.0f32 / x).to_bits(), "x={x}");
        }
    }
}
