//! `offload` — the paper's core contribution: software MPI offloading.
//!
//! > *"We address all these challenges by dedicating a processor thread in
//! > each MPI rank to which all MPI communication operations are offloaded.
//! > The remaining threads, used by the application, may issue MPI calls in
//! > any manner — serialized, funneled, or concurrently. These are routed
//! > to the MPI offload thread via a lock-free command queue."*
//! > — Vaidyanathan et al., SC '15, §1
//!
//! The crate has two faces over one design:
//!
//! * **Real data structures + real threads** ([`queue`], [`lane`],
//!   [`pool`], [`live`]): per-application-thread SPSC submission lanes
//!   (with a Vyukov MPMC ring as overflow and as the comparison baseline),
//!   the generation-tagged request pool with done flags, the shared
//!   adaptive spin→yield→park wait policy ([`backoff`]), and a real
//!   dedicated offload thread per rank over the wire backend's message
//!   layer (in-process loopback worlds via [`offload_world`]). This is the
//!   artifact itself — stress-tested with actual concurrent threads.
//! * **The calibrated simulation model** ([`sim`]): the identical main
//!   loop as a discrete-event task, charging per-operation costs from a
//!   [`simnet::MachineProfile`], so the paper's cluster-scale experiments
//!   (up to 1152 nodes) can be reproduced deterministically. Queue/pool
//!   cost parameters can be calibrated from the real implementations via
//!   the criterion benches in `crates/bench`.
//!
//! Key properties delivered (and asserted by tests):
//!
//! 1. **Constant, size-independent posting cost** for nonblocking calls —
//!    one pool allocation plus one queue push (paper Fig 4).
//! 2. **Asynchronous progress**: the offload thread sweeps in-flight
//!    requests with `MPI_Test*` whenever its queue is empty, so rendezvous
//!    handshakes and nonblocking collectives progress during application
//!    compute (paper §3.2, Fig 2/3).
//! 3. **Scalable `MPI_THREAD_MULTIPLE`**: application threads synchronize
//!    only on the lock-free queue/pool; MPI itself runs single-threaded
//!    with zero internal locking (paper §3.3, Fig 6).
//! 4. **No head-of-line blocking**: blocking operations are converted to
//!    their nonblocking equivalents inside the offload thread.

pub mod backoff;
pub mod lane;
pub mod live;
pub mod pool;
pub mod queue;
pub mod sim;

pub use backoff::{BackoffMetrics, WaitPolicy, WakeSignal};
pub use lane::{LaneMetrics, LaneSet, SpscRing};
pub use live::{
    offload_rank, offload_rank_configured, offload_world, offload_world_configured,
    offload_world_sized, CollKind, Command, CommandPath, Completion, OffloadHandle, OffloadRank,
};
pub use pool::{Handle, RequestPool};
// Collective element types/operators appear in this crate's public API
// (`CollKind`, `OffloadHandle::allreduce`); re-export them so
// transport-level consumers need no direct `mpisim` dependency.
pub use mpisim::types::{Dtype, ReduceOp};
pub use queue::MpmcQueue;
pub use sim::{OffReq, SimColl, SimOffload};
