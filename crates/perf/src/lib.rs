//! # mpix-perf
//!
//! The cluster performance model that regenerates the paper's evaluation
//! (§IV) at 1–128 nodes/GPUs — the substitution for Archer2 and Tursa
//! documented in `DESIGN.md`.
//!
//! The model is analytic but *driven by the real compiler*: every kernel
//! characteristic it consumes (flops/point, memory streams, exchange
//! radius, per-step exchange plan, cluster count) comes from the
//! compiled operators via [`KernelProfile`]. Four per-kernel single-node
//! efficiency factors are calibrated against the paper's own single-node
//! rooflines (Fig. 7) — see `EXPERIMENTS.md`; everything else (strong /
//! weak scaling curves, which exchange mode wins where, CPU-vs-GPU
//! factors) *emerges* from:
//!
//! * a roofline compute model ([`machine`], [`roofline`]),
//! * an alpha–beta (Hockney) network model with per-message CPU overhead
//!   and per-mode message structure ([`network`]): *basic* = `ndim`
//!   sequential rounds of 2 face messages with halo-extended slabs,
//!   *diagonal* = one round of `3^d − 1` messages, *full* = the diagonal
//!   exchange overlapped with CORE compute plus a strided-access penalty
//!   on the REMAINDER points,
//! * the NVLink/InfiniBand hierarchy for multi-GPU runs ([`machine`]).

// Numerical kernels index several arrays with one loop variable; the
// clippy suggestion (iterators + zip) hurts clarity in stencil code.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod admission;
pub mod machine;
pub mod network;
pub mod profile;
pub mod roofline;
pub mod scaling;

pub use admission::{price_job, JobCost};
pub use machine::{archer2_node, tursa_a100, MachineSpec};
pub use network::{comm_time_per_step, CommBreakdown};
pub use profile::KernelProfile;
pub use roofline::{single_unit_gpts, RooflinePoint};
pub use scaling::{strong_scaling, weak_scaling, Mode, ScalePoint};
