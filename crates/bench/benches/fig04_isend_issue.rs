//! Figure 4 — time spent issuing a nonblocking `MPI_Isend` (modified OSU
//! ping-pong) versus message size: the baseline's eager-copy cost rises to
//! the 128 KB rendezvous threshold then drops; comm-self adds the
//! THREAD_MULTIPLE penalty; offload is flat at the command-queue cost.
//!
//! A second, live panel probes the *scaling* axis of the same question:
//! many application threads issue concurrently through the real offload
//! thread over a wire loopback world, comparing the sharded per-thread
//! lanes against a single shared MPMC ring — and the obs columns
//! (queue-full retries, the service loop's idle yields, park/wake counts)
//! show the mechanism, not just the rate. Its wall-clock series are `info`.

use approaches::Approach;
use bench::{benchjson, emit, size_label, sizes_pow2, us, Direction, PanelSnapshot};
use harness::{isend_issue_cost, live_isend_issue_rate, Table};
use offload::CommandPath;
use simnet::MachineProfile;

/// Sizes snapshotted for the perf-trajectory gate (eager / pre-rendezvous
/// / rendezvous regimes of the issue-cost curve).
const SNAP_SIZES: [usize; 3] = [64, 64 * 1024, 2 << 20];

fn main() {
    let approaches = [Approach::Baseline, Approach::CommSelf, Approach::Offload];
    let mut snap = PanelSnapshot::new(
        "fig04_isend_issue",
        "Fig 4 — MPI_Isend issue time + live shared-vs-lanes issue rate",
    );
    let mut t = Table::new(vec!["size", "baseline us", "comm-self us", "offload us"]);
    for &size in &sizes_pow2(64, 2 << 20) {
        let mut cells = vec![size_label(size)];
        for &a in &approaches {
            let ns = isend_issue_cost(MachineProfile::xeon(), a, size, 5);
            cells.push(us(ns));
            if SNAP_SIZES.contains(&size) {
                // Deterministic DES cost: repeats agree exactly, so the
                // noise band is 0 and any drift gates.
                let samples: Vec<f64> = (0..bench::bench_repeats())
                    .map(|_| isend_issue_cost(MachineProfile::xeon(), a, size, 5) as f64 / 1e3)
                    .collect();
                snap.push_series(
                    format!("issue_us.{}.{}", a.name(), size_label(size)),
                    "us",
                    Direction::Lower,
                    samples,
                );
            }
        }
        t.row(cells);
    }
    emit(
        "fig04_isend_issue",
        "Fig 4 — MPI_Isend issue time (OSU ping-pong, Endeavor Xeon model)",
        &t,
    );

    // Live panel: real threads against the real offload thread, shared
    // MPMC command ring vs per-thread submission lanes. Quick (gate) mode
    // trims the sweep: wall-clock throughput on a loaded CI box is
    // recorded as `info`, so the trimmed shape loses nothing the gate
    // would use.
    let (msgs, thread_sweep): (usize, &[usize]) = if bench::quick_mode() {
        (500, &[1, 2])
    } else {
        (2000, &[1, 2, 4, 8])
    };
    let mut lt = Table::new(vec![
        "app threads",
        "shared Kops/s",
        "lanes Kops/s",
        "lanes/shared",
        "shared push_full",
        "lanes push_full",
        "shared idle_yields",
        "lanes idle_yields",
        "lanes parks",
        "lanes wakes",
    ]);
    for &threads in thread_sweep {
        // One sample per repeat and series, so the committed noise band is
        // the measured spread; the table shows the last repeat's counters.
        let mut shared_kops = Vec::new();
        let mut lanes_kops = Vec::new();
        let mut ratio = Vec::new();
        let mut last = None;
        for _ in 0..bench::bench_repeats() {
            let shared = live_isend_issue_rate(threads, msgs, CommandPath::SharedQueue);
            let lanes = live_isend_issue_rate(threads, msgs, CommandPath::Lanes);
            shared_kops.push(shared.issues_per_sec / 1e3);
            lanes_kops.push(lanes.issues_per_sec / 1e3);
            ratio.push(lanes.issues_per_sec / shared.issues_per_sec);
            last = Some((shared, lanes));
        }
        let (shared, lanes) = last.expect("bench_repeats() >= 1");
        snap.push_series(
            format!("issue_rate_kops.shared.t{threads}"),
            "Kops/s",
            Direction::Info,
            shared_kops,
        );
        snap.push_series(
            format!("issue_rate_kops.lanes.t{threads}"),
            "Kops/s",
            Direction::Info,
            lanes_kops,
        );
        snap.push_series(
            format!("lanes_vs_shared.t{threads}"),
            "ratio",
            Direction::Info,
            ratio,
        );
        lt.row(vec![
            threads.to_string(),
            format!("{:.1}", shared.issues_per_sec / 1e3),
            format!("{:.1}", lanes.issues_per_sec / 1e3),
            format!("{:.2}", lanes.issues_per_sec / shared.issues_per_sec),
            shared.snapshot.counter("queue.push_full").to_string(),
            lanes.snapshot.counter("lanes.push_full").to_string(),
            shared.snapshot.counter("offload.idle_yields").to_string(),
            lanes.snapshot.counter("offload.idle_yields").to_string(),
            lanes.snapshot.counter("offload.parks").to_string(),
            lanes.snapshot.counter("offload.wakes").to_string(),
        ]);
    }
    emit(
        "fig04_isend_issue_live",
        "Fig 4 (live panel) — isend issue throughput, shared MPMC ring vs per-thread lanes",
        &lt,
    );
    benchjson::emit_snapshot(&snap);
}
