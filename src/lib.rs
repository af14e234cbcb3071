//! # mpi-offload-repro
//!
//! A reproduction of **"Improving concurrency and asynchrony in
//! multithreaded MPI applications using software offloading"**
//! (Vaidyanathan, Hammond, Kalamkar, Balaji, Pamnany, Das, Joó, Park —
//! SC '15).
//!
//! This umbrella crate re-exports the workspace's public API. The pieces:
//!
//! * [`offload`] — **the paper's contribution**: the lock-free bounded MPMC
//!   command queue, the generation-tagged request pool with done flags, and
//!   the dedicated offload thread — implemented both for real OS threads
//!   ([`offload::offload_world`]) and as a calibrated discrete-event model
//!   ([`offload::SimOffload`]).
//! * [`mpisim`] — a simulated MPI library (eager/rendezvous protocols,
//!   matching, nonblocking collectives, thread-level lock model) whose
//!   progress engine advances **only when polled**, reproducing the
//!   asynchronous-progress problem the paper solves.
//! * [`approaches`] — baseline / iprobe / comm-self / core-spec / offload
//!   behind the uniform [`approaches::Comm`] trait, so applications run
//!   unmodified under every strategy (the paper's `LD_PRELOAD` property).
//! * [`qcd`], [`fft1d`], [`cnn`] — the three applications of §5, with real
//!   validated kernels and cluster-scale performance drivers.
//! * [`destime`], [`simnet`], [`team`], [`rtmpi`], [`numeric`],
//!   [`harness`] — substrates: deterministic virtual-time executor,
//!   network model, OpenMP-like teams, live transport trait and matching,
//!   numerics, and benchmark infrastructure.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ## Quick start (live mode, real threads)
//!
//! ```
//! use std::sync::Arc;
//!
//! // Two ranks, each with a dedicated offload thread over an in-process
//! // wire loopback world.
//! let ranks = offload::offload_world(2);
//! let h0 = ranks[0].handle();
//! let h1 = ranks[1].handle();
//! let t = std::thread::spawn(move || {
//!     let (_, data) = h1.recv(Some(0), Some(7));
//!     data.to_vec()
//! });
//! h0.send(1, 7, Arc::from(vec![1, 2, 3]));
//! assert_eq!(t.join().unwrap(), vec![1, 2, 3]);
//! for r in ranks {
//!     r.finalize();
//! }
//! ```
//!
//! ## Quick start (simulation mode, virtual time)
//!
//! ```
//! use approaches::{run_approach, Approach, Comm};
//! use mpisim::Bytes;
//!
//! let (outs, elapsed_virtual_ns) = run_approach(
//!     2,
//!     simnet::MachineProfile::xeon(),
//!     Approach::Offload,
//!     false,
//!     |comm| async move {
//!         let peer = 1 - comm.rank();
//!         let rx = comm.irecv(Some(peer), Some(1)).await;
//!         let tx = comm.isend(peer, 1, Bytes::synthetic(1 << 20)).await;
//!         comm.env().advance(5_000_000).await; // 5 ms of "compute"
//!         comm.waitall(&[rx, tx]).await;
//!         comm.env().now()
//!     },
//! );
//! assert_eq!(outs.len(), 2);
//! assert!(elapsed_virtual_ns > 5_000_000);
//! ```

pub use approaches;
pub use cnn;
pub use destime;
pub use fft1d;
pub use harness;
pub use mpisim;
pub use numeric;
pub use offload;
pub use qcd;
pub use rtmpi;
pub use simnet;
pub use team;
