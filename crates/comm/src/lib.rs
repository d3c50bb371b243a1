//! # mpix-comm
//!
//! An in-process message-passing substrate with MPI semantics.
//!
//! The paper's system generates MPI calls into C code and runs them with
//! Cray MPICH on a cluster. This crate is the substitution documented in
//! `DESIGN.md`: ranks are OS threads inside one process, and the API
//! mirrors the MPI subset the generated code needs:
//!
//! * blocking point-to-point with tag matching ([`Comm::send`],
//!   [`Comm::recv`]),
//! * non-blocking operations returning request objects
//!   ([`Comm::isend`], [`Comm::irecv`], [`RecvRequest::test`],
//!   [`RecvRequest::wait`]) — exactly what the *full* (overlap) pattern
//!   needs to progress communication during computation,
//! * collectives ([`Comm::barrier`], [`Comm::allreduce_f64`],
//!   [`Comm::allreduce_f32`], [`Comm::gather_f32`], [`Comm::bcast_f32`]),
//!   all over binomial trees,
//! * Cartesian topologies ([`CartComm`], [`dims_create`]) including the
//!   26-neighbour (3-D) shifts that the *diagonal* pattern uses,
//! * per-rank traffic statistics ([`CommStats`]) consumed by the
//!   performance model.
//!
//! Message delivery is *eager*: `send`/`isend` copy into the destination
//! mailbox immediately and complete. Receives match `(source, tag)` pairs
//! in arrival order, as MPI does for a fixed source/tag. Matching is
//! O(1): each mailbox keeps one FIFO queue per `(source, tag)` pair,
//! spread over 16 independently locked shards.
//!
//! Two additions serve the zero-copy halo plans (`mpix-dmp`):
//!
//! * typed `f32` payloads travel natively (no byte round-trip) through a
//!   shared buffer pool, and
//! * persistent requests ([`Comm::recv_init`] / [`Comm::send_init`], the
//!   `MPI_Recv_init`/`MPI_Send_init` analogue) complete into caller-owned
//!   preallocated buffers, so steady-state exchanges allocate nothing —
//!   a contract the [`CommStats::bufs_allocated`] counter makes testable.
//!
//! A rank panic *poisons* the world: peers blocked in `barrier`/`recv`
//! unwind promptly and [`Universe::run`] re-raises the original payload.
//! A receive that waits longer than the world's timeout
//! (`MPIX_RECV_TIMEOUT_MS`, default 60 s) panics as a deadlock. That
//! timeout is the substrate's only setting.
//!
//! ## Example
//!
//! ```
//! use mpix_comm::Universe;
//!
//! let sums = Universe::run(4, |comm| {
//!     // Ring: everyone sends its rank to the right, receives from the left.
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send_f32(right, 7, &[comm.rank() as f32]);
//!     let got = comm.recv_f32(left, 7);
//!     got[0] as usize
//! });
//! assert_eq!(sums, vec![3, 0, 1, 2]);
//! ```

// Numerical kernels index several arrays with one loop variable; the
// clippy suggestion (iterators + zip) hurts clarity in stencil code.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod cart;
pub mod collectives;
pub mod comm;
pub mod stats;
pub mod universe;

pub use cart::{dims_create, CartComm};
pub use collectives::ReduceOp;
pub use comm::{Comm, PersistentRecv, PersistentSend, RecvRequest, SendRequest, Tag};
pub use stats::CommStats;
pub use universe::Universe;
