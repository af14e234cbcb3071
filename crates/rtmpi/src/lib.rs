//! `rtmpi` — what every live message layer shares: the [`Transport`]
//! trait the offload thread and the live approach layer drive, MPI-style
//! matching ([`MatchQueue`]), message tags with their reserved internal
//! ranges, and receive [`Status`].
//!
//! The one implementation is `wire::WireComm` (crates/wire): ranks over
//! real sockets or shm rings, with an eager/rendezvous protocol that
//! advances only when its owner polls it. In-process worlds are wire
//! loopback worlds (`wire::loopback`), so tests and examples run the same
//! protocol the multi-process launcher ships.

#[cfg(feature = "model-faults")]
pub mod faults;
pub mod matchq;
pub mod transport;

pub use matchq::MatchQueue;
pub use transport::{OpOutcome, Transport, TransportError};

/// Message tag.
pub type Tag = u32;

/// Tags at or above this value are reserved for internal protocol traffic
/// (collective round schedules, barrier tokens). Application sends must
/// stay below it, and — crucially — wildcard (`ANY_TAG`) receives never
/// match reserved tags, so an application `ANY_TAG` recv can never steal a
/// collective round or barrier token mid-flight. This is *the* shared
/// constant: `mpisim`, the offload engine, and `approaches::live` all
/// derive their reserved ranges from here.
pub const TAG_RESERVED_BASE: Tag = 0x7000_0000;

/// Reserved sub-range used by the offload thread's collective schedules
/// (`offload::live`): `[TAG_COLL_BASE, TAG_COLL_BASE + TAG_COLL_SPAN)`.
pub const TAG_COLL_BASE: Tag = TAG_RESERVED_BASE;

/// Reserved sub-range used by direct-mode (application-thread) collective
/// schedules in `approaches::live`:
/// `[TAG_DIRECT_COLL_BASE, TAG_DIRECT_COLL_BASE + TAG_COLL_SPAN)`.
pub const TAG_DIRECT_COLL_BASE: Tag = TAG_RESERVED_BASE + TAG_COLL_SPAN;

/// Width of each reserved collective sub-range; per-collective tags are
/// `base + (seq % TAG_COLL_SPAN)`.
pub const TAG_COLL_SPAN: Tag = 0x1000_0000;

/// Completion status of a receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    pub source: usize,
    pub tag: Tag,
    pub len: usize,
}
