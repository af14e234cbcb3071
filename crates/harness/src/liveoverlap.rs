//! §4.1 compute–communication overlap over a *real* transport (the wire
//! socket backend, one process per rank or an in-process loopback world),
//! comparing the live strategies of [`approaches::live`].
//!
//! Same methodology as the DES panel in [`crate::micro`]: each rank posts
//! irecv + isend to its partner, measures post and wait times without
//! compute (step 1), then repeats with compute equal to the measured
//! communication time inserted between post and wait (step 2). Overlap =
//! wait₁ − wait₂, as a fraction of the communication time.
//!
//! On top of the timing, the wire backend's protocol counters say *why*:
//! `wire.rndv_handshake_at_wait` counts rendezvous handshakes that could
//! only complete once the application blocked in wait (the baseline
//! pathology), `wire.rndv_handshake_async` counts handshakes completed by
//! an asynchronous progress actor during application compute (what the
//! offload thread buys).

use std::sync::Arc;
use std::time::{Duration, Instant};

use approaches::live::{LiveApproach, LiveComm};
use rtmpi::Transport;

use crate::table::Table;

/// One strategy's row of the live overlap panel.
#[derive(Clone, Debug)]
pub struct LiveOverlapRow {
    pub approach: LiveApproach,
    pub bytes: usize,
    /// Mean communication time (post + wait, no compute).
    pub comm_ns: u64,
    pub post_ns: u64,
    /// Mean wait time with compute inserted.
    pub wait_ns: u64,
    /// `100 · (wait₁ − wait₂) / comm`.
    pub overlap_pct: f64,
    /// Rendezvous handshakes this rank completed only at wait.
    pub rndv_at_wait: u64,
    /// Rendezvous handshakes completed asynchronously (during compute).
    pub rndv_async: u64,
    /// Transport progress polls over the run (whoever made them).
    pub progress_polls: u64,
}

/// Spin for `dur`, interleaving [`LiveComm::progress_hint`] every ~5 µs —
/// the cadence an iprobe-instrumented compute loop would manage. The
/// yield after each chunk stands in for the paper's dedicated progress
/// core: on an undersubscribed machine it is what lets the offload
/// thread (a different thread, same box) run *during* compute at all,
/// without the application itself touching MPI. Shared with the NBC
/// overlap panel ([`crate::nbcoverlap`]).
pub fn compute_with_hints<T: Transport>(comm: &mut LiveComm<T>, dur: Duration) {
    let end = Instant::now() + dur;
    while Instant::now() < end {
        let chunk = Instant::now() + Duration::from_micros(5);
        while Instant::now() < chunk {
            std::hint::spin_loop();
        }
        comm.progress_hint();
        std::thread::yield_now();
    }
}

/// Run the §4.1 overlap measurement for one strategy over an owned
/// transport, exchanging `size`-byte payloads with `peer` (every
/// participating rank must call this with matching arguments). Returns
/// the measured row and the reclaimed transport so the caller can run
/// the next strategy over the same mesh.
pub fn live_overlap<T: Transport>(
    approach: LiveApproach,
    transport: T,
    peer: usize,
    size: usize,
    iters: usize,
) -> (LiveOverlapRow, T) {
    let mut comm = LiveComm::start(approach, transport);
    let payload: Arc<[u8]> = Arc::from(vec![0x5au8; size]);
    let before = comm.obs().1.snapshot();

    // Warmup: protocol caches, offload thread spin-up.
    exchange(&mut comm, peer, &payload);
    comm.barrier().expect("warmup barrier");

    let (mut post_acc, mut wait1_acc, mut comm_acc, mut wait2_acc) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..iters {
        // Step 1: no compute.
        let t0 = Instant::now();
        let rx = comm.irecv(Some(peer), Some(1));
        let tx = comm.isend(peer, 1, payload.clone());
        let t1 = Instant::now();
        comm.wait(rx).expect("recv (no compute)");
        comm.wait(tx).expect("send (no compute)");
        let t2 = Instant::now();
        post_acc += (t1 - t0).as_nanos() as u64;
        wait1_acc += (t2 - t1).as_nanos() as u64;
        comm_acc += (t2 - t0).as_nanos() as u64;
        // Step 2: compute for the measured communication time.
        let rx = comm.irecv(Some(peer), Some(1));
        let tx = comm.isend(peer, 1, payload.clone());
        compute_with_hints(&mut comm, t2 - t0);
        let t3 = Instant::now();
        comm.wait(rx).expect("recv (compute)");
        comm.wait(tx).expect("send (compute)");
        wait2_acc += t3.elapsed().as_nanos() as u64;
        comm.barrier().expect("resync barrier");
    }

    let during = comm.obs().1.snapshot().diff(&before);
    let n = iters as u64;
    let (comm_ns, wait1, wait2) = (comm_acc / n, wait1_acc / n, wait2_acc / n);
    let row = LiveOverlapRow {
        approach,
        bytes: size,
        comm_ns,
        post_ns: post_acc / n,
        wait_ns: wait2,
        overlap_pct: 100.0 * wait1.saturating_sub(wait2) as f64 / comm_ns.max(1) as f64,
        rndv_at_wait: during.counter("wire.rndv_handshake_at_wait"),
        rndv_async: during.counter("wire.rndv_handshake_async"),
        progress_polls: during.counter("wire.progress_polls"),
    };
    (row, comm.finalize())
}

/// Render panel rows as a report table.
pub fn live_overlap_table(rows: &[LiveOverlapRow]) -> Table {
    let mut t = Table::new(vec![
        "approach",
        "bytes",
        "comm µs",
        "wait µs",
        "overlap %",
        "rndv@wait",
        "rndv async",
        "polls",
    ]);
    for r in rows {
        t.row(vec![
            r.approach.name().to_string(),
            r.bytes.to_string(),
            format!("{:.1}", r.comm_ns as f64 / 1000.0),
            format!("{:.1}", r.wait_ns as f64 / 1000.0),
            format!("{:.1}", r.overlap_pct),
            r.rndv_at_wait.to_string(),
            r.rndv_async.to_string(),
            r.progress_polls.to_string(),
        ]);
    }
    t
}

fn exchange<T: Transport>(comm: &mut LiveComm<T>, peer: usize, payload: &Arc<[u8]>) {
    let rx = comm.irecv(Some(peer), Some(1));
    let tx = comm.isend(peer, 1, payload.clone());
    comm.wait(rx).expect("warmup recv");
    comm.wait(tx).expect("warmup send");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance-criteria direction, in-process over a wire loopback
    /// pair: baseline completes its rendezvous handshakes only at wait,
    /// offload completes them asynchronously during compute. (Timing
    /// assertions are left to the real multi-process panel — counters are
    /// deterministic, wall-clock under test load is not.)
    #[cfg(feature = "obs-enabled")]
    #[test]
    fn handshake_counters_point_the_right_way() {
        let run = |approach: LiveApproach| {
            let world = wire::loopback(2);
            let handles: Vec<_> = world
                .into_iter()
                .map(|t| {
                    std::thread::spawn(move || {
                        let peer = 1 - t.rank();
                        let (row, _t) = live_overlap(approach, t, peer, 64 * 1024, 2);
                        row
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect::<Vec<_>>()
        };

        let base: u64 = run(LiveApproach::Baseline)
            .iter()
            .map(|r| r.rndv_async)
            .sum();
        assert_eq!(base, 0, "baseline must not progress during compute");

        let off = run(LiveApproach::Offload);
        let at_wait: u64 = off.iter().map(|r| r.rndv_at_wait).sum();
        let async_: u64 = off.iter().map(|r| r.rndv_async).sum();
        assert_eq!(at_wait, 0, "offload never completes handshakes at wait");
        assert!(async_ > 0, "offload completes handshakes asynchronously");
    }
}
