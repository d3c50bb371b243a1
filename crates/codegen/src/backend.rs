//! The runtime-backend seam: the two ways to execute a compiled
//! cluster — the bytecode interpreter and the native JIT — behind one
//! kernel interface, [`ClusterKernel`], built by [`compile_kernel`].
//!
//! The split of responsibilities is deliberate: the *executor* owns
//! everything that is backend-independent (time loop, halo exchanges,
//! region boxes, loop blocking, slab threading, sanitizer hooks), while
//! a backend owns only the innermost question — how to evaluate one
//! compiled cluster over one box, through its one entry point
//! [`ClusterKernel::exec_box`]. That keeps the backends interchangeable
//! at the box boundary, which is exactly the boundary the equivalence
//! gate in `mpix-analysis` verifies.
//!
//! C is not a runtime backend: the paper-style C source is an emission
//! format (`cgen::emit_c`, `Operator::c_code_for`) that nothing here
//! compiles.

use std::fmt;
use std::str::FromStr;

use mpix_dmp::regions::BoxNd;
use mpix_ir::iet::Node;

use crate::bytecode::CompiledCluster;
use crate::executor;
use crate::interp::{self, Program, LANES};
use crate::jit::JitKernel;

/// A runtime backend for compiled clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The portable stack-bytecode interpreter with lane-vectorized
    /// strips (runs everywhere; the default where the JIT cannot run).
    Bytecode,
    /// Native x86-64 AVX code generated at runtime through the vendored
    /// `cranelift` crate (the default where [`available_backends`] lists
    /// it). Clusters the JIT cannot prove it supports fall back to the
    /// bytecode interpreter per cluster, so selecting this backend never
    /// changes results — only speed.
    Jit,
}

/// Every backend name [`Backend::from_str`] accepts, in display form.
pub const BACKEND_NAMES: [&str; 2] = ["bytecode", "jit"];

/// All backends constructible on this host. `jit` is present only where
/// the generated code can actually run (x86-64 Linux with AVX).
pub fn available_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Bytecode];
    if cranelift::TargetInfo::host().supports_jit() {
        v.push(Backend::Jit);
    }
    v
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Bytecode => "bytecode",
            Backend::Jit => "jit",
        })
    }
}

impl FromStr for Backend {
    type Err = BackendError;

    fn from_str(s: &str) -> Result<Backend, BackendError> {
        match s.to_ascii_lowercase().as_str() {
            "bytecode" => Ok(Backend::Bytecode),
            "jit" => Ok(Backend::Jit),
            _ => Err(BackendError::Unknown {
                name: s.to_string(),
            }),
        }
    }
}

/// Why a backend name or request could not be satisfied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The name does not match any registered backend.
    Unknown { name: String },
    /// The backend exists but cannot run on this host.
    Unsupported { backend: Backend, reason: String },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unknown { name } => {
                write!(f, "unknown backend {name:?}")?;
                if name.eq_ignore_ascii_case("c") {
                    f.write_str(
                        " (C is an emission format, reachable through \
                         Operator::c_code_for, not a runtime backend)",
                    )?;
                }
                write!(f, ": available backends are {}", BACKEND_NAMES.join(", "))
            }
            BackendError::Unsupported { backend, reason } => write!(
                f,
                "backend {backend} is not usable on this host ({reason}); \
                 available backends are {}",
                available_backends()
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

impl std::error::Error for BackendError {}

/// Everything a kernel launch needs that the executor resolved for the
/// current space loop: the compiled body plus per-stream geometry and
/// runtime values. Bundled so the [`ClusterKernel`] call surface stays
/// stable as backends evolve.
pub struct Launch<'a> {
    pub cc: &'a CompiledCluster,
    /// Per-stream padded strides.
    pub strides: &'a [Vec<usize>],
    /// Per-stream halo widths.
    pub halos: &'a [usize],
    /// Offset-table entries resolved to linear deltas for this geometry.
    pub resolved: &'a [isize],
    /// Runtime scalar values, in `cc.scalars` order.
    pub scalars: &'a [f32],
    /// Precomputed parameter values.
    pub params: &'a [f32],
    /// Loop-blocking tile edge (0 = off).
    pub block: usize,
}

/// One stream's binding for a kernel call. Either way the kernel
/// indexes the stream in its full padded buffer's linear index space.
pub enum Stream<'a> {
    /// A stream the cluster only reads: its whole padded buffer, shared
    /// by every worker of a split box.
    Read(&'a [f32]),
    /// A written stream: `slab` holds linear indices `off ..
    /// off + slab.len()` of its padded buffer. That is the whole buffer
    /// at `off = 0` when the box runs unsplit, and one worker's dim-0
    /// rows ([`slab_chunks`](crate::executor::slab_chunks)) when it is
    /// split.
    Write { slab: &'a mut [f32], off: usize },
}

impl<'a> Stream<'a> {
    /// Bind a stream's whole padded buffer: written at offset 0, or
    /// read.
    pub fn whole(buf: &'a mut [f32], written: bool) -> Stream<'a> {
        if written {
            Stream::Write { slab: buf, off: 0 }
        } else {
            Stream::Read(buf)
        }
    }
}

/// One compiled cluster, executable over region boxes. Implementations
/// must be bitwise-deterministic: the same launch over the same box
/// must produce results identical to the scalar oracle
/// ([`BytecodeKernel::scalar_oracle`], verified by
/// `mpix-analysis`' backend equivalence pass and
/// `tests/backend_equivalence.rs`).
pub trait ClusterKernel: Send + Sync {
    /// Execute over `bx` (owned-local coordinates); `streams[s]` binds
    /// stream `s`. The executor calls this once per unsplit box and
    /// once per worker of a split one, with the worker's rows in
    /// `bx[0]`.
    fn exec_box(&self, launch: &Launch<'_>, bx: &BoxNd, streams: &mut [Stream<'_>]);

    /// How many natively-compiled per-geometry modules this kernel holds
    /// in its cache. `0` for interpreter kernels, which compile nothing
    /// at run time. `tests/serve_load.rs` uses this to prove repeated
    /// runs reuse modules instead of re-encoding machine code.
    fn cached_modules(&self) -> usize {
        0
    }
}

/// Compile one cluster into an executable kernel for `backend`.
///
/// Errors with the available-backend listing when the backend cannot
/// run on this host (`jit` without x86-64 Linux AVX); parse errors from
/// [`Backend::from_str`] carry the same actionable listing.
pub fn compile_kernel(
    backend: Backend,
    cc: &CompiledCluster,
) -> Result<Box<dyn ClusterKernel>, BackendError> {
    match backend {
        Backend::Bytecode => Ok(Box::new(BytecodeKernel::new(cc))),
        Backend::Jit => {
            let ctx = cranelift::JitContext::new();
            let target = ctx.target();
            if !target.supports_jit() {
                return Err(BackendError::Unsupported {
                    backend: Backend::Jit,
                    reason: format!(
                        "requires x86_64-linux with AVX, host is {}-{} (avx: {})",
                        target.arch, target.os, target.has_avx
                    ),
                });
            }
            Ok(Box::new(JitKernel::new(ctx, cc)))
        }
    }
}

/// Interpreter kernel: the cluster's register program (`interp`),
/// translated once here and run by the strip engine in strips of `W`
/// lanes — [`LANES`] for every run, 1 for the scalar oracle.
pub struct BytecodeKernel<const W: usize = LANES>(Program);

impl BytecodeKernel {
    pub fn new(cc: &CompiledCluster) -> BytecodeKernel {
        BytecodeKernel(Program::new(cc))
    }
}

impl BytecodeKernel<1> {
    /// The scalar oracle: the interpreter one point at a time, in loop
    /// order. Every backend and the interpreter's own strips are checked
    /// bitwise against it (`mpix-analysis`' backend pass and the
    /// equivalence tests, through
    /// [`OperatorExec::scalar_oracle`](crate::OperatorExec::scalar_oracle)).
    /// No run option selects it.
    pub fn scalar_oracle(cc: &CompiledCluster) -> BytecodeKernel<1> {
        BytecodeKernel(Program::new(cc))
    }
}

impl<const W: usize> ClusterKernel for BytecodeKernel<W> {
    fn exec_box(&self, l: &Launch<'_>, bx: &BoxNd, streams: &mut [Stream<'_>]) {
        interp::exec_box::<W>(&self.0, l, bx, streams);
    }
}

/// Disassembly of every compiled space-loop body in the IET (post-fusion
/// bytecode, one block per cluster). `Operator::content_key` hashes it.
pub fn bytecode_listing(iet: &Node) -> String {
    let (_, compiled) = executor::RunPlan::new(iet);
    let mut out = String::new();
    for (i, cc) in compiled.iter().enumerate() {
        out.push_str(&format!(
            "; cluster {i}: {} ops, {} streams, {} temps, max stack {}\n",
            cc.ops.len(),
            cc.streams.len(),
            cc.num_temps,
            cc.max_stack
        ));
        for op in &cc.ops {
            out.push_str(&format!("  {op:?}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Bytecode, Backend::Jit] {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        // Case-insensitive.
        assert_eq!("JIT".parse::<Backend>().unwrap(), Backend::Jit);
    }

    #[test]
    fn unknown_backend_error_lists_available() {
        let err = "llvm".parse::<Backend>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("llvm"), "{msg}");
        for name in BACKEND_NAMES {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
        // C is an emission format: asking to run it points at the
        // emitter and lists the runtime backends.
        for c in ["c", "C"] {
            let msg = c.parse::<Backend>().unwrap_err().to_string();
            assert!(msg.contains("emission format"), "{msg}");
            assert!(msg.contains("Operator::c_code_for"), "{msg}");
            assert!(
                msg.ends_with("available backends are bytecode, jit"),
                "{msg}"
            );
        }
    }

    #[test]
    fn bytecode_is_always_available() {
        assert!(available_backends().contains(&Backend::Bytecode));
    }
}
