//! # mpix-dmp
//!
//! Distributed-memory parallelism substrate: everything the generated
//! code needs to run a finite-difference stencil across ranks.
//!
//! This crate implements §III of the paper:
//!
//! * [`decomp`] — Cartesian domain decomposition (default balanced
//!   factorization or user `topology=(…)`, Fig. 2) and the
//!   global-to-local index conversion routines behind the "logically
//!   centralized, physically distributed" data abstraction.
//! * [`regions`] — the data-region aliases of Fig. 4 (`CORE`, `OWNED`,
//!   `DOMAIN`, `HALO`, `FULL`) and the disjoint remainder decomposition
//!   used by the *full* overlap pattern.
//! * [`mod@array`] — [`DistArray`], the distributed NumPy-array analogue:
//!   rank-local storage with allocated halo, global slicing reads/writes
//!   (Listings 2–3), and gather for user inspection.
//! * [`halo`] — the three computation/communication patterns of Table I:
//!   **basic** (multi-step synchronous face exchanges), **diagonal**
//!   (single-step, 26 messages in 3-D) and **full** (asynchronous
//!   single-step with computation/communication overlap and
//!   `MPI_Test`-style progress). One [`HaloExchanger`] runs all three on
//!   a persistent [`HaloPlan`] — peers, tags, boxes and buffers
//!   precomputed once per (field, mode, radius) — so steady-state
//!   exchanges allocate nothing.
//! * [`sparse`] — off-the-grid sparse points (sources/receivers):
//!   ownership assignment with replication at shared boundaries (Fig. 3),
//!   and the per-rank [`SparsePlan`] that runs multilinear injection and
//!   interpolation over precomputed offsets, combining shared receiver
//!   partials once per run.

// Numerical kernels index several arrays with one loop variable; the
// clippy suggestion (iterators + zip) hurts clarity in stencil code.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod array;
pub mod decomp;
pub mod halo;
pub mod regions;
pub mod sparse;

pub use array::DistArray;
pub use decomp::Decomposition;
pub use halo::{HaloExchanger, HaloMode, HaloPlan};
pub use regions::{remainder_boxes, BoxNd, Region};
pub use sparse::{SparsePlan, SparsePoints};
