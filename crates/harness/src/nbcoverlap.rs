//! Fig 3/5-style nonblocking-collective overlap over a *real* transport:
//! the [`approaches::live`] strategies issuing NBC round schedules
//! through [`LiveComm::icollective`] / [`LiveComm::coll_wait`].
//!
//! Same two-step methodology as [`crate::liveoverlap`], lifted from
//! point-to-point to collectives: each rank measures the collective's
//! post+wait time with nothing in between (step 1), then re-issues it
//! with application compute inserted between post and wait (step 2).
//! Overlap = wait₁ − wait₂ as a fraction of the no-compute collective
//! time. The compute callback is the *application's own* kernel (Dslash,
//! local FFT stages, a CNN forward pass) — the panels measure what the
//! paper measures: real math hiding real collective rounds.
//!
//! Attribution comes from the wire engine's handshake counters, extended
//! to collective rounds: every round send in the reserved tag space bumps
//! `wire.coll_tx` (a deterministic protocol fact for a fixed schedule),
//! and each rendezvous round handshake lands in
//! `wire.rndv_handshake_at_wait` or `_async` depending on who progressed
//! it. `wire.protocol_errors` must stay zero throughout.

use std::time::Instant;

use approaches::live::{LiveApproach, LiveComm};
use offload::CollKind;
use rtmpi::Transport;

use crate::benchjson::{Direction, PanelSnapshot};
use crate::table::Table;

/// One strategy's row of the NBC overlap panel.
#[derive(Clone, Debug)]
pub struct NbcOverlapRow {
    pub approach: LiveApproach,
    /// Per-rank collective payload bytes.
    pub bytes: usize,
    /// Mean collective time (post + wait, no compute).
    pub comm_ns: u64,
    pub post_ns: u64,
    /// Mean wait time with compute inserted.
    pub wait_ns: u64,
    /// `100 · (wait₁ − wait₂) / comm`.
    pub overlap_pct: f64,
    /// Rendezvous handshakes (rounds included) completed only at wait.
    pub rndv_at_wait: u64,
    /// Rendezvous handshakes completed asynchronously (during compute).
    pub rndv_async: u64,
    /// Round sends issued in the reserved collective tag space.
    pub coll_tx: u64,
    /// Stray/duplicate/unowned frames observed — must stay 0.
    pub protocol_errors: u64,
}

/// Run the NBC overlap measurement for one strategy over an owned
/// transport. `kind` builds the collective to issue (called once per
/// issue — the payload is consumed), `compute` runs the application
/// kernel for roughly the given duration (it should call
/// [`LiveComm::progress_hint`] periodically — [`compute_with_hints`]
/// spins if there is no real kernel), and `verify` checks each result
/// buffer. Every participating rank must call this with a matching
/// `kind` sequence. Returns the row and the reclaimed transport.
pub fn nbc_overlap_live<T: Transport>(
    approach: LiveApproach,
    transport: T,
    bytes: usize,
    iters: usize,
    mut kind: impl FnMut() -> CollKind,
    mut compute: impl FnMut(&mut LiveComm<T>, std::time::Duration),
    mut verify: impl FnMut(&[u8]),
) -> (NbcOverlapRow, T) {
    let mut comm = LiveComm::start(approach, transport);
    let before = comm.obs().1.snapshot();

    // Warmup: protocol caches, offload thread spin-up, one full schedule.
    let req = comm.icollective(kind());
    verify(&comm.coll_wait(req).expect("warmup collective"));
    comm.barrier().expect("warmup barrier");

    let (mut post_acc, mut wait1_acc, mut comm_acc, mut wait2_acc) = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..iters {
        // Step 1: post + wait back to back.
        let t0 = Instant::now();
        let req = comm.icollective(kind());
        let t1 = Instant::now();
        let out = comm.coll_wait(req).expect("collective (no compute)");
        let t2 = Instant::now();
        verify(&out);
        post_acc += (t1 - t0).as_nanos() as u64;
        wait1_acc += (t2 - t1).as_nanos() as u64;
        comm_acc += (t2 - t0).as_nanos() as u64;
        // Step 2: application compute for the measured collective time.
        let req = comm.icollective(kind());
        compute(&mut comm, t2 - t0);
        let t3 = Instant::now();
        let out = comm.coll_wait(req).expect("collective (compute)");
        wait2_acc += t3.elapsed().as_nanos() as u64;
        verify(&out);
        comm.barrier().expect("resync barrier");
    }

    let during = comm.obs().1.snapshot().diff(&before);
    let n = iters as u64;
    let (comm_ns, wait1, wait2) = (comm_acc / n, wait1_acc / n, wait2_acc / n);
    let row = NbcOverlapRow {
        approach,
        bytes,
        comm_ns,
        post_ns: post_acc / n,
        wait_ns: wait2,
        overlap_pct: 100.0 * wait1.saturating_sub(wait2) as f64 / comm_ns.max(1) as f64,
        rndv_at_wait: during.counter("wire.rndv_handshake_at_wait"),
        rndv_async: during.counter("wire.rndv_handshake_async"),
        coll_tx: during.counter("wire.coll_tx"),
        protocol_errors: during.counter("wire.protocol_errors"),
    };
    (row, comm.finalize())
}

/// Render panel rows as a report table.
pub fn nbc_overlap_table(rows: &[NbcOverlapRow]) -> Table {
    let mut t = Table::new(vec![
        "approach",
        "bytes",
        "comm µs",
        "wait µs",
        "overlap %",
        "rndv@wait",
        "rndv async",
        "coll tx",
        "proto errs",
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
            r.coll_tx.to_string(),
            r.protocol_errors.to_string(),
        ]);
    }
    t
}

/// Build the perf-trajectory snapshot for an NBC panel from repeated
/// measurements (`rows_by_repeat[k]` = all approaches' rows of repeat
/// `k`). Wall-clock overlap and wait are `info` — the box decides those.
/// The protocol counters gate:
///
/// * `rndv_at_wait.offload` (lower): the offload thread must keep
///   completing round handshakes asynchronously — deterministically 0.
/// * `rndv_async.baseline` (lower): the baseline gaining async progress
///   would mean the modelled pathology broke — deterministically 0.
/// * `coll_tx.<approach>` (lower): round sends of a fixed schedule are a
///   deterministic protocol fact; growth means the schedule regressed.
/// * `protocol_errors.<approach>` (lower): always 0.
pub fn nbc_overlap_snapshot(
    panel: impl Into<String>,
    title: impl Into<String>,
    rows_by_repeat: &[Vec<NbcOverlapRow>],
) -> PanelSnapshot {
    let mut snap = PanelSnapshot::new(panel, title);
    let approaches: Vec<LiveApproach> = rows_by_repeat
        .first()
        .map(|rows| rows.iter().map(|r| r.approach).collect())
        .unwrap_or_default();
    let samples = |f: &dyn Fn(&NbcOverlapRow) -> f64, a: LiveApproach| -> Vec<f64> {
        rows_by_repeat
            .iter()
            .filter_map(|rows| rows.iter().find(|r| r.approach == a))
            .map(f)
            .collect()
    };
    for a in approaches {
        let name = a.name();
        snap.push_series(
            format!("overlap_pct.{name}"),
            "%",
            Direction::Info,
            samples(&|r| r.overlap_pct, a),
        );
        snap.push_series(
            format!("wait_us.{name}"),
            "us",
            Direction::Info,
            samples(&|r| r.wait_ns as f64 / 1e3, a),
        );
        let (at_wait_dir, async_dir) = match a {
            LiveApproach::Offload => (Direction::Lower, Direction::Higher),
            LiveApproach::Baseline => (Direction::Info, Direction::Lower),
            LiveApproach::Iprobe => (Direction::Info, Direction::Info),
        };
        snap.push_series(
            format!("rndv_at_wait.{name}"),
            "count",
            at_wait_dir,
            samples(&|r| r.rndv_at_wait as f64, a),
        );
        snap.push_series(
            format!("rndv_async.{name}"),
            "count",
            async_dir,
            samples(&|r| r.rndv_async as f64, a),
        );
        snap.push_series(
            format!("coll_tx.{name}"),
            "count",
            Direction::Lower,
            samples(&|r| r.coll_tx as f64, a),
        );
        snap.push_series(
            format!("protocol_errors.{name}"),
            "count",
            Direction::Lower,
            samples(&|r| r.protocol_errors as f64, a),
        );
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "obs-enabled")]
    use crate::liveoverlap::compute_with_hints;
    #[cfg(feature = "obs-enabled")]
    use mpisim::types::{Dtype, ReduceOp};

    /// The acceptance direction over an in-process wire loopback world:
    /// allreduce rounds progressed by the offload thread complete their
    /// handshakes asynchronously; the baseline never does. Counters only
    /// — wall-clock under test load is not assertable.
    #[cfg(feature = "obs-enabled")]
    #[test]
    fn collective_handshake_counters_point_the_right_way() {
        let lanes = 4 * 1024; // 32 KiB: rendezvous rounds at default crossover
        let run = |approach: LiveApproach| {
            let world = wire::loopback(2);
            let handles: Vec<_> = world
                .into_iter()
                .map(|t| {
                    std::thread::spawn(move || {
                        let r = t.rank();
                        let mine: Vec<f64> = (0..lanes).map(|i| (i + r) as f64).collect();
                        let bytes = lanes * 8;
                        let (row, _t) = nbc_overlap_live(
                            approach,
                            t,
                            bytes,
                            2,
                            || CollKind::Allreduce {
                                dtype: Dtype::F64,
                                op: ReduceOp::Sum,
                                data: mine.iter().flat_map(|x| x.to_le_bytes()).collect(),
                            },
                            compute_with_hints,
                            |out| {
                                let first = f64::from_le_bytes(out[..8].try_into().expect("lane"));
                                assert_eq!(first, 1.0, "0 + 1 across the pair");
                            },
                        );
                        row
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect::<Vec<_>>()
        };

        let base = run(LiveApproach::Baseline);
        assert_eq!(
            base.iter().map(|r| r.rndv_async).sum::<u64>(),
            0,
            "baseline must not progress rounds during compute"
        );
        assert!(
            base.iter().map(|r| r.coll_tx).sum::<u64>() > 0,
            "rounds went through the reserved tag space"
        );
        assert_eq!(base.iter().map(|r| r.protocol_errors).sum::<u64>(), 0);

        let off = run(LiveApproach::Offload);
        assert_eq!(
            off.iter().map(|r| r.rndv_at_wait).sum::<u64>(),
            0,
            "offload never completes round handshakes at wait"
        );
        assert!(
            off.iter().map(|r| r.rndv_async).sum::<u64>() > 0,
            "offload completes round handshakes asynchronously"
        );
        assert_eq!(off.iter().map(|r| r.protocol_errors).sum::<u64>(), 0);
    }

    #[test]
    fn snapshot_series_carry_gate_directions() {
        let row = |approach, coll_tx| NbcOverlapRow {
            approach,
            bytes: 1024,
            comm_ns: 1000,
            post_ns: 10,
            wait_ns: 100,
            overlap_pct: 50.0,
            rndv_at_wait: 0,
            rndv_async: 4,
            coll_tx,
            protocol_errors: 0,
        };
        let repeats = vec![
            vec![
                row(LiveApproach::Baseline, 6),
                row(LiveApproach::Offload, 6),
            ],
            vec![
                row(LiveApproach::Baseline, 6),
                row(LiveApproach::Offload, 6),
            ],
        ];
        let snap = nbc_overlap_snapshot("test_nbc", "test", &repeats);
        let series = |name: &str| {
            snap.series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("series {name}"))
        };
        assert_eq!(series("rndv_at_wait.offload").direction, Direction::Lower);
        assert_eq!(series("rndv_async.baseline").direction, Direction::Lower);
        assert_eq!(series("coll_tx.offload").direction, Direction::Lower);
        assert_eq!(series("coll_tx.offload").noise, 0.0, "deterministic");
        assert_eq!(series("overlap_pct.baseline").direction, Direction::Info);
        assert_eq!(
            series("protocol_errors.baseline").direction,
            Direction::Lower
        );
        assert_eq!(series("rndv_at_wait.offload").samples, vec![0.0, 0.0]);
    }
}
