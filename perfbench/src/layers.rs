//! Per-layer metrics derived from obs-registry diffs, the benchmark's
//! own call timings and the tracer, shared by the workloads.

use std::time::Instant;

use obs::Snapshot;
use rtmpi::Transport;
use wire::WireComm;

use crate::common::{Approach, Tally, APPROACHES};
use crate::measure::{
    counter, gauge_hwm, hist_p50, ns_since, ratio, Gated, Metrics, ObsTally, Samples,
};
use crate::trace::{Layer, Tracer, LAYERS};

/// Timings and counts of one kind of live solve (untraced or traced),
/// shared by both live workloads.
#[derive(Default)]
pub struct LiveStats {
    /// Per-solve time, by approach (`Approach::index`).
    pub solve_ns: [Gated; 2],
    /// Per-step time outside compute (post + wait), by approach.
    pub exposed_ns: [Gated; 2],
    /// The current round's host-speed scale (see `common::schedule`).
    pub scale: f64,
    pub isend_ns: Samples,
    pub irecv_ns: Samples,
    pub coll_start_ns: Samples,
    /// Offloaded issue to the first `test()` that saw it done.
    pub op_latency_ns: Samples,
    pub test_calls: u64,
    /// Rank 0's own transport calls while it runs on the main thread.
    pub wire_isend_ns: Samples,
    pub wire_irecv_ns: Samples,
    /// Every `progress` call the main thread makes, rank 0's and the
    /// peer's, and how many of them advanced anything.
    pub progress_ns: Samples,
    pub progress_useful: u64,
    pub counts: LiveCounts,
}

impl LiveStats {
    /// One timed `progress` call on `comm`.
    pub fn progress(&mut self, comm: &mut WireComm, tr: &mut Tracer, req: u64) -> bool {
        let t = Instant::now();
        let adv = tr.leaf(Layer::Wire, "progress", req, || comm.progress());
        self.progress_ns.push(ns_since(t));
        self.progress_useful += u64::from(adv);
        adv
    }

    /// Every offloaded issue call: isends, irecvs and collective starts.
    pub fn issue_ns(&self) -> Samples {
        let mut all = self.isend_ns.clone();
        all.extend(&self.irecv_ns);
        all.extend(&self.coll_start_ns);
        all
    }
}

/// Each approach's median solve time (end-to-end, gated) and median
/// exposed step time (per-layer), both at the reference host speed, and
/// the calibration kernel's median. Returns report lines with the times
/// as measured and the calibration kernel's own timing.
pub fn e2e_times(
    e2e: &mut Metrics,
    layer: &mut Metrics,
    solve_ns: &[Gated; 2],
    exposed_ns: &[Gated; 2],
    cal_ns: &Samples,
) -> Vec<String> {
    layer.insert("host.calibration_us", cal_ns.median() / 1e3);
    let mut lines = vec![crate::line_timing("calibration_us", "us", cal_ns, 1e3)];
    for a in APPROACHES {
        let (solve, exposed) = match a {
            Approach::Offload => ("solve_s.offload", "exposed_us.offload"),
            Approach::Baseline => ("solve_s.baseline", "exposed_us.baseline"),
        };
        let (s, e) = (&solve_ns[a.index()], &exposed_ns[a.index()]);
        e2e.insert(solve, s.at_ref.median() / 1e9);
        layer.insert(exposed, e.at_ref.median() / 1e3);
        lines.push(format!(
            "{solve} as measured = {:.6} s, {exposed} as measured = {:.3} us",
            s.raw.median() / 1e9,
            e.raw.median() / 1e3
        ));
    }
    lines
}

/// The report line for the set-up times as measured.
pub fn setup_line(setup: &Gated) -> String {
    format!(
        "setup_s as measured = {:.6} s (median of n={} set-ups)",
        setup.raw.median() / 1e9,
        setup.raw.len()
    )
}

/// The offload, wire and obs per-layer metrics of a live workload's
/// untraced solves.
pub fn live_metrics(
    m: &mut Metrics,
    s: &LiveStats,
    shm_fallback: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    m.insert("offload.isend_ns.p50", s.isend_ns.median());
    m.insert("offload.irecv_ns.p50", s.irecv_ns.median());
    m.insert("offload.coll_start_ns.p50", s.coll_start_ns.median());
    m.insert("offload.issue_ns.p99", s.issue_ns().quantile(0.99));
    m.insert("offload.op_latency_us.p50", s.op_latency_ns.median() / 1e3);
    m.insert(
        "offload.op_latency_us.p99",
        s.op_latency_ns.quantile(0.99) / 1e3,
    );
    m.insert(
        "offload.test_calls_per_op",
        ratio(s.test_calls as f64, s.counts.offload_ops as f64),
    );
    m.insert("wire.isend_ns.p50", s.wire_isend_ns.median());
    m.insert("wire.irecv_ns.p50", s.wire_irecv_ns.median());
    m.insert("wire.progress_ns.p50", s.progress_ns.median());
    m.insert("wire.progress_ns.p99", s.progress_ns.quantile(0.99));
    m.insert(
        "wire.useful_progress_ratio",
        ratio(s.progress_useful as f64, s.progress_ns.len() as f64),
    );
    offload_counts(m, &s.counts)?;
    wire_counts(m, &s.counts, shm_fallback, tally)?;
    obs_costs(m, &s.counts);
    Ok(())
}

/// Registry diffs and work counts of the live passes of one kind.
#[derive(Default)]
pub struct LiveCounts {
    /// Rank 0's offload registry (queue, pool, service loop).
    pub off: ObsTally,
    /// Rank 0's transport registry.
    pub r0: ObsTally,
    /// The peer's transport registry.
    pub peer: ObsTally,
    /// Write-family syscalls over the passes.
    pub write_syscalls: u64,
    /// Set when `/proc/self/io` was unreadable for some pass.
    pub syscalls_unknown: bool,
    pub payload_bytes: u64,
    pub offload_ops: u64,
    pub colls: u64,
    pub threads_max: u64,
}

impl LiveCounts {
    /// Fold one pass's transport diffs and syscall delta.
    pub fn fold(
        &mut self,
        r0a: &Snapshot,
        r0b: &Snapshot,
        pa: &Snapshot,
        pb: &Snapshot,
        syscalls: Option<(u64, u64)>,
    ) {
        self.r0.fold(r0a, r0b);
        self.peer.fold(pa, pb);
        match syscalls {
            Some((a, b)) => self.write_syscalls += b - a,
            None => self.syscalls_unknown = true,
        }
    }
}

/// Offload service-loop, pool and lane counters per offloaded op.
fn offload_counts(m: &mut Metrics, c: &LiveCounts) -> Result<(), String> {
    let s = &c.off.sum;
    let ops = c.offload_ops as f64;
    let per_op = |name: &str| counter(s, name).map(|v| ratio(v as f64, ops));
    m.insert(
        "offload.service_iters_per_op",
        per_op("offload.service_iters")?,
    );
    m.insert(
        "offload.progress_polls_per_op",
        per_op("offload.progress_polls")?,
    );
    m.insert("offload.parks_per_kop", per_op("offload.parks")? * 1e3);
    m.insert("offload.wakes_per_kop", per_op("offload.wakes")? * 1e3);
    m.insert(
        "offload.drained_per_wakeup.p50",
        hist_p50(s, "offload.drained_per_wakeup")?,
    );
    m.insert("pool.occupancy_hwm", gauge_hwm(s, "pool.occupancy")? as f64);
    m.insert("lanes.push_full", counter(s, "lanes.push_full")? as f64);
    Ok(())
}

/// Wire-engine, fabric, regpool and shm-ring counters, both ranks
/// together except where rank 0 alone is the subject. Protocol errors
/// and lost peers count as failed operations.
fn wire_counts(
    m: &mut Metrics,
    c: &LiveCounts,
    shm_fallback: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let both = c.r0.sum.merged(&c.peer.sum);
    let get = |name: &str| counter(&both, name).map(|v| v as f64);
    // Messages as the engines count them: eager sends plus rendezvous
    // sends (collective rounds included).
    let msgs = get("wire.eager_tx")? + get("wire.rndv_tx")?;
    m.insert("wire.frames_per_msg", ratio(get("wire.frames_tx")?, msgs));
    m.insert(
        "wire.bytes_per_payload_byte",
        ratio(get("wire.bytes_tx")?, c.payload_bytes as f64),
    );
    let syscalls = if c.syscalls_unknown {
        0.0
    } else {
        c.write_syscalls as f64
    };
    m.insert(
        "wire.frames_per_writev",
        ratio(get("wire.writev_frames")?, syscalls),
    );
    m.insert(
        "wire.eager_alloc_per_msg",
        ratio(get("wire.eager_alloc")?, get("wire.eager_tx")?),
    );
    let asy = counter(&c.r0.sum, "wire.rndv_handshake_async")? as f64;
    let at_wait = counter(&c.r0.sum, "wire.rndv_handshake_at_wait")? as f64;
    m.insert("wire.rndv_async_ratio", ratio(asy, asy + at_wait));
    m.insert(
        "wire.regpool.heap_alloc_per_rndv",
        ratio(get("wire.regpool.heap_alloc")?, get("wire.rndv_tx")?),
    );
    let errors = get("wire.protocol_errors")?;
    let lost = get("wire.peer_lost")?;
    for (name, v) in [("wire.protocol_errors", errors), ("wire.peer_lost", lost)] {
        m.insert(name, v);
        if v > 0.0 {
            tally.fail(format!("{name} = {v}"));
        }
    }
    m.insert(
        "wire.shm_frames_per_msg",
        ratio(get("wire.shm_frames")?, msgs),
    );
    m.insert(
        "wire.shm_doorbell_per_msg",
        ratio(get("wire.shm_doorbell")?, msgs),
    );
    m.insert("wire.shm_fallback", shm_fallback as f64);
    m.insert(
        "wire.coll_tx_per_coll",
        ratio(get("wire.coll_tx")?, c.colls as f64),
    );
    Ok(())
}

/// The cost of observing: snapshot and merge time, encoded size.
fn obs_costs(m: &mut Metrics, c: &LiveCounts) {
    let mut snap = Samples::default();
    let mut merge = Samples::default();
    let mut bytes = Samples::default();
    for t in [&c.off, &c.r0, &c.peer] {
        snap.extend(&t.snapshot_ns);
        merge.extend(&t.merge_ns);
        bytes.extend(&t.snapshot_bytes);
    }
    m.insert("obs.snapshot_us", snap.median() / 1e3);
    m.insert("obs.snapshot_bytes", bytes.median());
    m.insert("obs.merge_us", merge.median() / 1e3);
}

/// Tracer-derived metrics. `untraced`/`traced` are the per-approach solve
/// times of the untraced and traced solves, compared at the reference
/// host speed; `traced_wall_ns` is the wall time the traced solves took.
pub fn trace_metrics(
    m: &mut Metrics,
    tr: &Tracer,
    untraced: &[Gated; 2],
    traced: &[Gated; 2],
    traced_wall_ns: u64,
    threads_max: u64,
) {
    let sum = |s: &[Gated; 2]| s.iter().map(|g| g.at_ref.median()).sum::<f64>();
    let (untraced_s, traced_s) = (sum(untraced), sum(traced));
    let overhead = if traced_s > 0.0 {
        (traced_s - untraced_s) / untraced_s * 100.0
    } else {
        0.0
    };
    m.insert("trace.overhead_pct", overhead);
    m.insert(
        "trace.span_cover_pct",
        ratio(tr.covered_ns() as f64, traced_wall_ns as f64) * 100.0,
    );
    let own = tr.self_ns();
    let total: u64 = own.iter().sum();
    for ((_, _, key), ns) in LAYERS.iter().zip(own) {
        m.insert(key, ratio(ns as f64, total as f64) * 100.0);
    }
    m.insert("threads.max", threads_max as f64);
}

/// Stage reconciliation of a traced pass: the stages of every step share
/// their boundary clock reads, so they must tile the step; an uncovered
/// remainder above the timer floor is time the trace cannot account for
/// and fails the run. Returns the report line.
pub fn reconcile(tr: &Tracer, tally: &mut Tally) -> String {
    let residual = tr.max_residual_ns() as f64;
    if residual > crate::clock() {
        tally.fail(format!(
            "step stages leave {residual} ns unaccounted (clock_ns {:.1})",
            crate::clock()
        ));
    }
    format!(
        "trace.reconcile_max_residual_ns = {residual} ns (clock_ns = {:.1})",
        crate::clock()
    )
}

/// Write the traced pass's retained spans to `TRACE_DIR/<workload>.json`.
pub fn write_trace(tr: &Tracer, workload: &str) -> Result<(), String> {
    let path = std::path::Path::new(crate::TRACE_DIR).join(format!("{workload}.json"));
    tr.write_chrome(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Fill the per-layer metrics of layers this workload does not run with
/// 0. Only whole layers may be declared idle: a metric of a running
/// layer that the workload forgot stays missing and fails the run.
pub fn idle(m: &mut Metrics, prefixes: &[&str]) {
    for (name, _) in crate::PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            m.entry(name).or_insert(0.0);
        }
    }
}
