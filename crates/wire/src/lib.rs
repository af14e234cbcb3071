//! `wire` — ranks as OS processes over real sockets.
//!
//! This is the substrate on which the paper's asynchronous-progress problem
//! actually exists, and the one implementation of [`rtmpi::Transport`].
//! Every rank is a separate process connected over Unix-domain sockets
//! (TCP via `WIRE_TCP=1`), messages travel as length-prefixed frames, and
//! large transfers use a real rendezvous handshake (RTS → CTS → DATA)
//! whose state machine advances **only** when someone calls
//! [`rtmpi::Transport::progress`] on the engine. The baseline
//! approach polls only inside `MPI_Wait` — so a rendezvous genuinely stalls
//! until the application waits — while the offload thread's service loop
//! polls continuously and demonstrably completes the handshake during
//! application compute (counted by `wire.rndv_handshake_async` vs
//! `wire.rndv_handshake_at_wait`).
//!
//! Module map:
//! * [`proto`] — the frame header and its encoding (24-byte LE prefix).
//! * [`fabric`] — [`FrameFabric`]: the frame-delivery seam under the
//!   engine. [`SocketFabric`] is the production poll loop; `check::proto`
//!   substitutes an in-memory fabric to model-check delivery order,
//!   duplication and peer death (DESIGN.md §15).
//! * [`engine`] — [`WireComm`]: the nonblocking per-rank progress engine
//!   (unexpected-message queue, MPI FIFO matching via [`rtmpi::MatchQueue`],
//!   eager/rendezvous protocol, peer-death detection), generic over the
//!   fabric.
//! * [`nbcrun`] — re-exports of the live collective executor
//!   (`mpisim::nbc::NbcRun`) under its historical path.
//! * [`shm`] — the shared-memory data plane (`WIRE_SHM=1`): per-pair
//!   memfd segments passed over the UDS handshake, SPSC rings running the
//!   model-checked `shmring` protocol, zero syscalls and zero per-message
//!   allocation on the eager path (DESIGN.md §16).
//! * [`regpool`] — the registered staging-buffer pool all transports
//!   lease inbound frame bodies from (lease/recycle, never blocks).
//! * [`relay`] — the k-ary stats relay tree: ranks ship snapshots to
//!   their tree parent, parents merge in-flight, the launcher sees O(k)
//!   connections instead of O(N) (DESIGN.md §17).
//! * [`bootstrap`] — process worlds from `WIRE_RANK`/`WIRE_SIZE`/`WIRE_DIR`
//!   env (rank-0 mesh exchange), packed multi-rank worlds
//!   ([`from_env_packed`]), and in-process loopback worlds for tests.
//! * [`launcher`] — what the `offload-run` binary does: spawn `-n` ranks,
//!   wire the env, babysit (stderr prefixing, timeout kill, per-rank exit
//!   reporting), reap.
//!
//! Configuration (environment):
//! * `WIRE_EAGER_MAX` — eager/rendezvous crossover in bytes (default 4096).
//! * `WIRE_TIMEOUT_MS` — per-operation pending timeout (default 30000).
//! * `WIRE_TCP=1` — TCP over loopback instead of Unix-domain sockets.
//! * `WIRE_SHM=1` — shared-memory data plane between peers (UDS meshes
//!   only; degrades per-pair to the socket path when unavailable).
//!   `WIRE_SHM_SLOTS` / `WIRE_SHM_SLOT_BYTES` tune the ring geometry.
//! * `WIRE_STATS_SOCK` / `WIRE_STATS_INTERVAL_MS` / `WIRE_STALL_MS` — the
//!   observability plane: where to ship periodic `Stats` frames, how
//!   often, and the progress-stall watchdog window (see [`stats`]).
//! * `WIRE_RELAY_ARITY` — route snapshots through the k-ary relay tree
//!   instead of the star (see [`relay`]); `WIRE_PACK` — how many ranks
//!   this process hosts as multiplexed event loops (`--packed`).

pub mod bootstrap;
pub mod engine;
pub mod fabric;
#[cfg(feature = "model-faults")]
pub mod faults;
pub mod launcher;
pub mod nbcrun;
pub mod proto;
pub mod regpool;
pub mod relay;
pub mod shm;
pub mod stats;

pub use bootstrap::{from_env, from_env_packed, loopback, loopback_configured};
pub use engine::{WireComm, WireConfig, WireReq};
pub use fabric::{FrameFabric, LinkPoll, SocketFabric};

/// Environment variable naming this process's rank (set by `offload-run`).
pub const ENV_RANK: &str = "WIRE_RANK";
/// Environment variable naming the world size.
pub const ENV_SIZE: &str = "WIRE_SIZE";
/// Environment variable naming the bootstrap directory (sockets live here).
pub const ENV_DIR: &str = "WIRE_DIR";
/// Eager/rendezvous crossover override, in bytes.
pub const ENV_EAGER_MAX: &str = "WIRE_EAGER_MAX";
/// Per-operation pending timeout override, in milliseconds.
pub const ENV_TIMEOUT_MS: &str = "WIRE_TIMEOUT_MS";
/// Set to `1` to use TCP over 127.0.0.1 instead of Unix-domain sockets.
pub const ENV_TCP: &str = "WIRE_TCP";
/// Set to `1` to negotiate the shared-memory data plane per peer pair
/// (UDS meshes only; every failure degrades gracefully to the socket).
pub const ENV_SHM: &str = "WIRE_SHM";
/// Ring slot count override (power of two; default 128).
pub const ENV_SHM_SLOTS: &str = "WIRE_SHM_SLOTS";
/// Ring slot payload size override, in bytes (default 16384).
pub const ENV_SHM_SLOT_BYTES: &str = "WIRE_SHM_SLOT_BYTES";
/// Set to `1` to force the shm handshake down its fallback path (tests).
pub const ENV_SHM_FORCE_FALLBACK: &str = "WIRE_SHM_FORCE_FALLBACK";
/// Path of the launcher's stats-collector Unix socket; when set, the
/// engine ships periodic `Stats` frames (serialized `obs::Snapshot`s) and
/// stall events there.
pub const ENV_STATS_SOCK: &str = "WIRE_STATS_SOCK";
/// Stats emission interval in milliseconds (default 200 when the socket
/// is configured).
pub const ENV_STATS_INTERVAL_MS: &str = "WIRE_STATS_INTERVAL_MS";
/// Progress-stall watchdog window in milliseconds; unset leaves the
/// watchdog disarmed.
pub const ENV_STALL_MS: &str = "WIRE_STALL_MS";
/// Relay-tree arity: when set (with the stats socket), ranks ship their
/// snapshots through the k-ary relay tree ([`relay`]) instead of dialing
/// the launcher directly.
pub const ENV_RELAY_ARITY: &str = "WIRE_RELAY_ARITY";
/// Packed multiplexing: how many consecutive ranks (starting at
/// `WIRE_RANK`) this one process hosts as event loops
/// ([`from_env_packed`]); unset/1 means the classic one-rank process.
pub const ENV_PACK: &str = "WIRE_PACK";

/// Is this process running under `offload-run` (i.e. as a wire rank)?
pub fn is_wire_process() -> bool {
    std::env::var(ENV_RANK).is_ok()
}
