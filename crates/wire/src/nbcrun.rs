//! The live nonblocking-collective executor under its historical path.
//!
//! [`NbcRun`] lives in [`mpisim::nbc`], next to the round generators it
//! runs; it is the one executor behind every live collective (the offload
//! thread, the direct modes of `approaches::live`, the `wire-victim`
//! fixture and `check::proto`). These re-exports keep the
//! `wire::nbcrun::{NbcRun, Coll}` path working for the standalone
//! benchmark package, which imports it.

pub use mpisim::nbc::{CollKind as Coll, NbcRun};
pub use mpisim::types::{Dtype, ReduceOp};
