//! The live-transport abstraction: what the offload thread (and the live
//! approach layer) needs from a message-passing substrate.
//!
//! The implementation is `wire::WireComm` (crates/wire): ranks over real
//! sockets (or shm rings, or in-process loopback socket pairs), with an
//! eager/rendezvous protocol whose pending state machines advance
//! **only** when [`Transport::progress`] is called. This is the substrate
//! on which the paper's asynchronous-progress problem actually exists:
//! whoever owns the transport and polls it is the progress actor.
//!
//! All methods take `&mut self`: a transport is owned by exactly one
//! thread at a time (the offload thread, or the application thread under
//! the baseline approaches behind a lock). Requests are small cloneable
//! ids; completion values are taken out exactly once via
//! [`Transport::try_take`].

use std::sync::Arc;
use std::time::Duration;

use crate::{Status, Tag};

/// Why a transport operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer process/rank died (EOF or connection reset on its socket)
    /// while this operation still depended on it.
    PeerLost { peer: usize },
    /// The operation stayed pending past the transport's configured
    /// timeout — the backstop when a peer hangs without dying.
    Timeout { waited_ms: u64 },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerLost { peer } => write!(f, "PeerLost: rank {peer} is gone"),
            TransportError::Timeout { waited_ms } => {
                write!(f, "Timeout: operation pending after {waited_ms} ms")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// What a completed operation resolved to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// A send's payload is owned by the transport (or delivered); the
    /// application buffer is reusable.
    Sent,
    /// A receive matched and delivered.
    Received(Status, Arc<[u8]>),
}

/// A live message-passing substrate (see module docs).
pub trait Transport: Send + 'static {
    /// Request handle: a small id, cloneable and inert — all state lives
    /// in the transport.
    type Req: Clone + Send + 'static;

    fn rank(&self) -> usize;
    fn size(&self) -> usize;

    /// Nonblocking send of `data` to `dst`.
    fn isend(&mut self, dst: usize, tag: Tag, data: Arc<[u8]>) -> Self::Req;

    /// Nonblocking receive; `None` filters are wildcards.
    fn irecv(&mut self, src: Option<usize>, tag: Option<Tag>) -> Self::Req;

    /// Drive pending protocol state (flush outboxes, read sockets, run
    /// rendezvous handshakes). Returns `true` when anything advanced.
    fn progress(&mut self) -> bool;

    /// Take the outcome if complete; `None` while pending. Each request
    /// yields its outcome exactly once.
    fn try_take(&mut self, req: &Self::Req) -> Option<Result<OpOutcome, TransportError>>;

    /// Drop all transport-side state for an abandoned request (e.g. one
    /// that timed out at the offload layer). Completion may never come.
    fn cancel(&mut self, req: &Self::Req);

    /// Per-operation pending timeout. The polling owner converts
    /// operations pending longer than this into [`TransportError::Timeout`]
    /// completions.
    fn op_timeout(&self) -> Duration;

    /// Hint from the owner that it is (or no longer is) inside an
    /// application-initiated MPI call (a blocking wait, or a post that may
    /// consume buffered protocol messages) — progress made now is
    /// synchronous, on the application's clock. The wire backend's
    /// rendezvous counters attribute handshakes by it.
    fn set_in_wait(&mut self, in_wait: bool);

    /// Is a matching message buffered (unexpected) right now?
    fn iprobe(&mut self, src: Option<usize>, tag: Option<Tag>) -> Option<Status>;

    /// The transport's metrics registry (the wire backend's protocol
    /// counters). Cloneable: snapshot it from any thread while the
    /// transport itself is owned elsewhere.
    fn obs_registry(&self) -> obs::Registry;
}
