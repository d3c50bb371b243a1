//! # mpix — Automated MPI-X code generation for scalable finite-difference solvers
//!
//! A Rust reproduction of *"Automated MPI-X code generation for scalable
//! finite-difference solvers"* (Bisbas et al., IPDPS 2025): a symbolic
//! finite-difference DSL and compiler that automatically generates
//! distributed-memory-parallel stencil code — halo-exchange detection,
//! three computation/communication patterns (basic / diagonal / full
//! overlap), distributed arrays, sparse sources/receivers — plus the four
//! seismic wave propagators and the scaling evaluation of the paper.
//!
//! This facade re-exports the workspace crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`symbolic`] | expressions, FD weights, grids, fields, equations |
//! | [`comm`] | the simulated MPI substrate (ranks as threads) |
//! | [`dmp`] | decomposition, distributed arrays, halo patterns, sparse points |
//! | [`ir`] | Cluster IR, halo detection, schedule tree, IET + passes |
//! | [`codegen`] | C emitter, bytecode interpreter and native JIT runtime backends, executor, `ApplyOptions` |
//! | [`core`] | the user-facing `Operator` |
//! | [`solvers`] | acoustic / TTI / elastic / viscoelastic propagators |
//! | [`perf`] | machine + network model, strong/weak scaling generators |
//! | [`trace`] | per-rank section timers, message logs, `PerfSummary` |
//! | [`analysis`] | compiler self-verification passes (`mpix-verify`) |
//!
//! Start with `examples/quickstart.rs` — the paper's Listing 1 end to end.

pub use mpix_analysis as analysis;
pub use mpix_codegen as codegen;
pub use mpix_comm as comm;
pub use mpix_core as core;
pub use mpix_dmp as dmp;
pub use mpix_ir as ir;
pub use mpix_perf as perf;
pub use mpix_solvers as solvers;
pub use mpix_symbolic as symbolic;
pub use mpix_trace as trace;

pub use mpix_core::prelude;

// The everyday vocabulary, importable straight off the facade:
// `use mpix::{Operator, ApplyOptions, TraceLevel, ...}`.
pub use mpix_core::{
    available_backends, Applied, ApplyOptions, Backend, Operator, PerfSummary, TraceLevel,
    Workspace,
};
pub use mpix_dmp::HaloMode;
