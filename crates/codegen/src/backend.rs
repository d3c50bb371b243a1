//! The multi-backend lowering seam: every execution strategy for a
//! compiled cluster — C emission, the bytecode interpreter, the native
//! JIT — is a [`Lowering`] registered as a peer behind one factory,
//! [`create_lowering`].
//!
//! The split of responsibilities is deliberate: the *executor* owns
//! everything that is backend-independent (time loop, halo exchanges,
//! region boxes, loop blocking, slab threading, sanitizer hooks), while
//! a backend owns only the innermost question — how to evaluate one
//! compiled cluster over one box. That keeps the three backends
//! interchangeable at the box boundary, which is exactly the boundary
//! the equivalence gate in `mpix-analysis` verifies.

use std::fmt;
use std::str::FromStr;

use mpix_dmp::regions::BoxNd;
use mpix_ir::iet::Node;
use mpix_symbolic::Context;

use crate::bytecode::CompiledCluster;
use crate::executor;
use crate::interp::{self, Program};
use crate::jit::JitLowering;

/// An execution/emission backend for compiled clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Emit C source in the paper's generated style (`cgen`). Execution
    /// delegates to the bytecode interpreter: this environment has no
    /// system C compiler, so the C backend is an *emission* peer whose
    /// runtime behaviour must match the interpreter by construction.
    C,
    /// The portable stack-bytecode interpreter with lane-vectorized
    /// strips (the default; runs everywhere).
    Bytecode,
    /// Native x86-64 AVX code generated at runtime through the vendored
    /// `cranelift` crate. Clusters the JIT cannot prove it supports fall
    /// back to the bytecode interpreter per cluster, so selecting this
    /// backend never changes results — only speed.
    Jit,
}

/// Every backend name [`create_lowering`] resolves, in display form.
pub const BACKEND_NAMES: [&str; 3] = ["c", "bytecode", "jit"];

/// All backends constructible on this host. `jit` is present only where
/// the generated code can actually run (x86-64 Linux with AVX).
pub fn available_backends() -> Vec<Backend> {
    let mut v = vec![Backend::C, Backend::Bytecode];
    if cranelift::TargetInfo::host().supports_jit() {
        v.push(Backend::Jit);
    }
    v
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::C => "c",
            Backend::Bytecode => "bytecode",
            Backend::Jit => "jit",
        })
    }
}

impl FromStr for Backend {
    type Err = BackendError;

    fn from_str(s: &str) -> Result<Backend, BackendError> {
        match s.to_ascii_lowercase().as_str() {
            "c" => Ok(Backend::C),
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
            BackendError::Unknown { name } => write!(
                f,
                "unknown backend {name:?}: available backends are {}",
                BACKEND_NAMES.join(", ")
            ),
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
    /// Interpreter strip width (0/1 = scalar). The JIT ignores this —
    /// its lane count is fixed by the instruction set.
    pub vw: usize,
}

/// One compiled cluster, executable over region boxes. Implementations
/// must be bitwise-deterministic: the same launch over the same box
/// must produce results identical to the bytecode oracle (verified by
/// `mpix-analysis`' backend equivalence pass and
/// `tests/backend_equivalence.rs`).
pub trait ClusterKernel: Send + Sync {
    /// Execute over `bx` with whole-buffer bindings (single-threaded
    /// path; `buffers[s]` is stream `s`'s full padded buffer).
    fn exec_box(&self, launch: &Launch<'_>, bx: &BoxNd, buffers: &mut [&mut [f32]]);

    /// How many natively-compiled per-geometry modules this kernel holds
    /// in its cache. `0` for interpreter kernels, which compile nothing
    /// at run time. `tests/serve_load.rs` uses this to prove repeated
    /// runs reuse modules instead of re-encoding machine code.
    fn cached_modules(&self) -> usize {
        0
    }

    /// Execute over `bx` with split bindings (threaded path): shared
    /// read slices and per-worker write slabs carrying their linear
    /// start offset, as produced by the executor's slab partitioner.
    fn exec_box_mixed(
        &self,
        launch: &Launch<'_>,
        bx: &BoxNd,
        reads: &mut [Option<&[f32]>],
        writes: &mut [Option<(&mut [f32], usize)>],
    );
}

/// A code-generation backend: emits human-readable output for a lowered
/// IET and compiles cluster bodies into executable [`ClusterKernel`]s.
pub trait Lowering: Send + Sync {
    /// Which backend this is.
    fn backend(&self) -> Backend;

    /// Emit this backend's source/listing form of the lowered IET (C
    /// source for [`Backend::C`], a bytecode listing otherwise).
    fn emit(&self, iet: &Node, ctx: &Context) -> String;

    /// Compile one cluster into an executable kernel.
    fn compile(&self, cc: &CompiledCluster) -> Box<dyn ClusterKernel>;
}

/// Resolve a backend to its [`Lowering`] implementation.
///
/// Errors with the available-backend list when the request cannot be
/// satisfied on this host (e.g. `jit` without AVX); parse errors from
/// [`Backend::from_str`] carry the same actionable listing.
pub fn create_lowering(backend: Backend) -> Result<Box<dyn Lowering>, BackendError> {
    match backend {
        Backend::C => Ok(Box::new(CLowering)),
        Backend::Bytecode => Ok(Box::new(BytecodeLowering)),
        Backend::Jit => {
            let target = cranelift::TargetInfo::host();
            if !target.supports_jit() {
                return Err(BackendError::Unsupported {
                    backend: Backend::Jit,
                    reason: format!(
                        "requires x86_64-linux with AVX, host is {}-{} (avx: {})",
                        target.arch, target.os, target.has_avx
                    ),
                });
            }
            Ok(Box::new(JitLowering::new()))
        }
    }
}

// ---------------------------------------------------------------------------
// Bytecode backend
// ---------------------------------------------------------------------------

/// The interpreter backend: stateless, since the launch already carries
/// the compiled body; `compile` exists so the factory surface is uniform
/// across backends.
pub struct BytecodeLowering;

/// Interpreter kernel: the cluster's register program ([`interp`]),
/// translated once here and run by the strip engine.
pub struct BytecodeKernel(Program);

impl BytecodeKernel {
    pub fn new(cc: &CompiledCluster) -> BytecodeKernel {
        BytecodeKernel(Program::new(cc))
    }
}

impl Lowering for BytecodeLowering {
    fn backend(&self) -> Backend {
        Backend::Bytecode
    }

    fn emit(&self, iet: &Node, _ctx: &Context) -> String {
        bytecode_listing(iet)
    }

    fn compile(&self, cc: &CompiledCluster) -> Box<dyn ClusterKernel> {
        Box::new(BytecodeKernel::new(cc))
    }
}

impl ClusterKernel for BytecodeKernel {
    fn exec_box(&self, l: &Launch<'_>, bx: &BoxNd, buffers: &mut [&mut [f32]]) {
        interp::exec_box(&self.0, l, bx, buffers);
    }

    fn exec_box_mixed(
        &self,
        l: &Launch<'_>,
        bx: &BoxNd,
        reads: &mut [Option<&[f32]>],
        writes: &mut [Option<(&mut [f32], usize)>],
    ) {
        interp::exec_box_mixed(&self.0, l, bx, reads, writes);
    }
}

/// Disassembly of every compiled space-loop body in the IET.
fn bytecode_listing(iet: &Node) -> String {
    let mut compiled = Vec::new();
    executor::collect_compiled(iet, &mut compiled);
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

// ---------------------------------------------------------------------------
// C backend
// ---------------------------------------------------------------------------

/// The C-emission backend. `emit` produces the paper-style C source
/// (`cgen::emit_c`); `compile` returns the interpreter kernel, because
/// this environment has no system C compiler to close the loop — the
/// emitted C and the interpreter implement the same compiled clusters,
/// which is what the golden tests in `tests/codegen_golden.rs` pin.
pub struct CLowering;

impl Lowering for CLowering {
    fn backend(&self) -> Backend {
        Backend::C
    }

    fn emit(&self, iet: &Node, ctx: &Context) -> String {
        crate::cgen::emit_c(iet, ctx)
    }

    fn compile(&self, cc: &CompiledCluster) -> Box<dyn ClusterKernel> {
        Box::new(BytecodeKernel::new(cc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::C, Backend::Bytecode, Backend::Jit] {
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
    }

    #[test]
    fn factory_resolves_every_available_backend() {
        for b in available_backends() {
            let lowering = create_lowering(b).unwrap();
            assert_eq!(lowering.backend(), b);
        }
    }

    #[test]
    fn bytecode_is_always_available() {
        assert!(available_backends().contains(&Backend::Bytecode));
    }
}
