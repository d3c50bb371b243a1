//! # mpix-codegen
//!
//! Code generation backends for the lowered IET:
//!
//! * [`cgen`] — a C emitter reproducing the style of the paper's
//!   generated code (Appendix B, Listing 11): precomputed parameters,
//!   the rotating-buffer time loop, OpenMP SIMD pragmas on the vector
//!   dimension, and halo-exchange call sites. Used for inspection and
//!   golden tests; the paper's JIT C compilation step is replaced by the
//!   executable backend below (see DESIGN.md).
//! * [`bytecode`] — compiles cluster statements into a compact
//!   register/stack program with precomputed array-offset tables — the
//!   portable default backend and the semantic oracle the other
//!   backends are verified against.
//! * [`jit`] — lowers the same compiled clusters to native x86-64 AVX
//!   machine code at runtime (the paper's JIT compilation step made
//!   real), bitwise-equivalent to the bytecode engine by construction.
//! * [`arith`] — the FTZ/DAZ kernel arithmetic every backend
//!   implements (hardware mode in the JIT, emulated in the
//!   interpreter).
//! * `interp` — the bytecode interpreter: each compiled cluster
//!   translated into a register program run over lane strips.
//! * [`executor`] — runs the lowered IET on a rank: rotating time
//!   buffers, loop-blocked (and optionally multi-threaded — the "X" in
//!   MPI-X) space loops over DOMAIN/CORE/REMAINDER regions, and the
//!   three halo-exchange patterns from `mpix-dmp`.
//! * [`backend`] — the seam tying them together: the
//!   [`ClusterKernel`] launch surface and [`compile_kernel`], which
//!   builds a cluster's kernel for one of the two runtime backends
//!   (`bytecode`, `jit`).
//! * [`options`] — [`ApplyOptions`], the run knobs the executor borrows.

// Numerical kernels index several arrays with one loop variable; the
// clippy suggestion (iterators + zip) hurts clarity in stencil code.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod arith;
pub mod backend;
pub mod bytecode;
pub mod cgen;
pub mod executor;
mod interp;
pub mod jit;
pub mod options;

pub use backend::{
    available_backends, bytecode_listing, compile_kernel, Backend, BackendError, ClusterKernel,
    Launch, BACKEND_NAMES,
};
pub use bytecode::{compile_cluster, fold_constants, fuse_cluster, CompiledCluster, Op};
pub use cgen::emit_c;
pub use executor::{exec_compiles, halo_tag_base, sparse_tag, FieldState, OperatorExec, SparseOp};
pub use jit::jit_modules_built;
pub use options::ApplyOptions;
