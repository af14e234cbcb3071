//! `eager_msgrate`: a closed loop with one client over the shm data
//! plane. Each window rank 0 posts 32 irecvs and 32 isends to the peer
//! and the peer mirrors them; payloads are seeded log-uniform over
//! 8 B–4 KiB, so every message is eager. Rank 0 runs either behind the
//! offload thread or directly on the main thread.

use std::sync::Arc;
use std::time::{Duration, Instant};

use numeric::SplitMix64;
use offload::{Handle, OffloadHandle};
use rtmpi::{OpOutcome, Transport};
use wire::{WireComm, WireConfig, WireReq};

use crate::common::{
    completion_outcome, hash64, schedule, seeded_bytes, verify_payload, Approach, Tally, OP_TIMEOUT,
};
use crate::layers::{self, LiveCounts, LiveStats as Stats};
use crate::measure::{ns_since, threads, write_syscalls, Calibrator, Gated, Metrics, Samples};
use crate::trace::{Layer, Tracer};

/// Messages each side posts per window, per direction.
const WINDOW: usize = 32;
/// Distinct seeded payloads per direction, cycled through by the windows.
const POOL: usize = 512;
/// Windows per solve (one `solve_s` sample).
const BATCH: usize = 128;
const WARMUP_WINDOWS: usize = 64;
const SETUPS: usize = 5;
const MIN_EAGER: usize = 8;
const MAX_EAGER: usize = 4096;

struct Payloads {
    data: Vec<Arc<[u8]>>,
    hash: Vec<u64>,
}

/// `n` payloads with log-uniform sizes over `MIN_EAGER..=MAX_EAGER`.
fn payloads(rng: &mut SplitMix64, n: usize) -> Payloads {
    let (lo, hi) = ((MIN_EAGER as f64).ln(), (MAX_EAGER as f64).ln());
    let data: Vec<Arc<[u8]>> = (0..n)
        .map(|_| {
            let len = (lo + rng.next_f64() * (hi - lo)).exp().round() as usize;
            Arc::from(seeded_bytes(rng, len.clamp(MIN_EAGER, MAX_EAGER)))
        })
        .collect();
    let hash = data.iter().map(|d| hash64(d)).collect();
    Payloads { data, hash }
}

/// What one side expects from a posted operation.
#[derive(Clone, Copy)]
enum Want {
    Sent,
    /// A receive of tag `tag` carrying payload `k` of the sender's pool.
    Recv {
        tag: u32,
        k: usize,
    },
}

/// A completed operation awaiting verification: outcome, expectation,
/// and the rank whose payload pool it is checked against.
type Done = (Result<OpOutcome, String>, Want, usize);

struct Eager {
    r0: Option<WireComm>,
    peer: WireComm,
    r0_reg: obs::Registry,
    peer_reg: obs::Registry,
    out0: Payloads,
    out1: Payloads,
    next: usize,
    window: u64,
    /// Payload bytes moved so far, both directions.
    payload_bytes: u64,
}

fn check_outcome(
    out: Result<OpOutcome, String>,
    want: Want,
    src: usize,
    pool: &Payloads,
) -> Result<(), String> {
    match (out, want) {
        (Ok(OpOutcome::Sent), Want::Sent) => Ok(()),
        (Ok(OpOutcome::Received(st, data)), Want::Recv { tag, k }) => {
            if st.source != src || st.tag != tag {
                return Err(format!(
                    "received ({}, {}) for ({src}, {tag})",
                    st.source, st.tag
                ));
            }
            verify_payload(&data, pool.data[k].len(), pool.hash[k])
        }
        (Err(e), _) => Err(e),
        (Ok(_), _) => Err("operation completed as the wrong kind".into()),
    }
}

impl Eager {
    fn build(seed: u64) -> Self {
        let cfg = WireConfig {
            shm: true,
            timeout: OP_TIMEOUT,
            ..WireConfig::default()
        };
        let mut world = wire::loopback_configured(2, cfg);
        let peer = world.pop().expect("rank 1");
        let r0 = world.pop().expect("rank 0");
        let mut rng = SplitMix64::new(seed);
        let out0 = payloads(&mut rng, POOL);
        let out1 = payloads(&mut rng, POOL);
        Eager {
            r0_reg: r0.obs().clone(),
            peer_reg: peer.obs().clone(),
            r0: Some(r0),
            peer,
            out0,
            out1,
            next: 0,
            window: 0,
            payload_bytes: 0,
        }
    }

    /// Bootstrap (socketpair + shm segment), payload generation,
    /// offload-thread spawn and warm-up, repeated `SETUPS` times, each at
    /// its own host-speed scale; returns the last world and the set-up
    /// times.
    fn setup(seed: u64, tally: &mut Tally) -> Result<(Self, Gated), String> {
        let mut cal = Calibrator::new()?;
        let mut times = Gated::default();
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            let scale = cal.scale(Duration::ZERO, &mut Samples::default())?;
            let t = Instant::now();
            let mut e = Eager::build(seed);
            let mut st = Stats::default();
            let mut tr = Tracer::new(false);
            e.run_windows(Approach::Offload, WARMUP_WINDOWS, &mut tr, &mut st, tally)?;
            e.run_windows(Approach::Baseline, WARMUP_WINDOWS, &mut tr, &mut st, tally)?;
            times.push(ns_since(t), scale);
            last = Some(e);
        }
        let e = last.expect("at least one set-up");
        let fallback = crate::measure::counter(&e.r0_reg.snapshot(), "wire.shm_fallback")?;
        if fallback != 0 {
            tally.fail(format!(
                "shm data plane fell back to the socket ({fallback})"
            ));
        }
        Ok((e, times))
    }

    fn peer_post(&mut self, base: usize, tr: &mut Tracer, w: u64) -> Vec<(WireReq, Want)> {
        let mut ops = Vec::with_capacity(2 * WINDOW);
        tr.open(Layer::Wire, "peer_post", w);
        for i in 0..WINDOW {
            let k = (base + i) % POOL;
            self.payload_bytes += (self.out0.data[k].len() + self.out1.data[k].len()) as u64;
        }
        for i in 0..WINDOW {
            let tag = i as u32;
            let r = self.peer.irecv(Some(0), Some(tag));
            ops.push((
                r,
                Want::Recv {
                    tag,
                    k: (base + i) % POOL,
                },
            ));
        }
        for i in 0..WINDOW {
            let k = (base + i) % POOL;
            let r = self.peer.isend(0, i as u32, self.out1.data[k].clone());
            ops.push((r, Want::Sent));
        }
        tr.close();
        ops
    }

    /// Progress `comm` once (timed) and set aside whatever completed;
    /// outcomes are verified after the window's timed stages.
    #[allow(clippy::too_many_arguments)]
    fn pump(
        comm: &mut WireComm,
        ops: &mut Vec<(WireReq, Want)>,
        src: usize,
        done: &mut Vec<Done>,
        tr: &mut Tracer,
        st: &mut Stats,
        w: u64,
    ) {
        st.progress(comm, tr, w);
        tr.open(Layer::Wire, "try_take_sweep", w);
        ops.retain(|(r, want)| match comm.try_take(r) {
            Some(out) => {
                done.push((out.map_err(|e| e.to_string()), *want, src));
                false
            }
            None => true,
        });
        tr.close();
    }

    /// Fail and cancel whatever is still pending on `comm`.
    fn abandon(comm: &mut WireComm, ops: &mut Vec<(WireReq, Want)>, tally: &mut Tally) {
        for (r, _) in ops.drain(..) {
            comm.cancel(&r);
            tally.fail(format!("op pending past {OP_TIMEOUT:?}"));
        }
    }

    /// The untimed last stage of a window: verify every outcome.
    fn check(&self, done: Vec<Done>, tr: &mut Tracer, tally: &mut Tally, w: u64) {
        tr.stage("check", w);
        for (out, want, src) in done {
            let pool = if src == 0 { &self.out0 } else { &self.out1 };
            tally.check(tr.leaf(Layer::Check, "verify", w, || {
                check_outcome(out, want, src, pool)
            }));
        }
        tr.end_stages();
        tr.end_step(true);
    }

    /// One window with rank 0 behind the offload thread; returns the
    /// window's post + wait time.
    fn window_offload(
        &mut self,
        h: &OffloadHandle,
        tr: &mut Tracer,
        st: &mut Stats,
        tally: &mut Tally,
    ) -> Result<u64, String> {
        let w = self.window;
        let base = self.next;
        self.window += 1;
        self.next = (self.next + WINDOW) % POOL;
        let t0 = Instant::now();
        tr.begin_stages("window", "post", w);
        let mut mine: Vec<(Handle, Instant, Want)> = Vec::with_capacity(2 * WINDOW);
        for i in 0..WINDOW {
            let tag = i as u32;
            let t = Instant::now();
            let x = tr.leaf(Layer::Offload, "irecv", w, || h.irecv(Some(1), Some(tag)));
            st.irecv_ns.push(ns_since(t));
            mine.push((
                x,
                t,
                Want::Recv {
                    tag,
                    k: (base + i) % POOL,
                },
            ));
        }
        for i in 0..WINDOW {
            let data = self.out0.data[(base + i) % POOL].clone();
            let t = Instant::now();
            let x = tr.leaf(Layer::Offload, "isend", w, || h.isend(1, i as u32, data));
            st.isend_ns.push(ns_since(t));
            mine.push((x, t, Want::Sent));
        }
        let mut theirs = self.peer_post(base, tr, w);
        tr.stage("wait", w);
        let mut done = Vec::with_capacity(4 * WINDOW);
        while !(mine.is_empty() && theirs.is_empty()) {
            Self::pump(&mut self.peer, &mut theirs, 0, &mut done, tr, st, w);
            tr.open(Layer::Offload, "test_sweep", w);
            mine.retain(|&(x, issued, want)| {
                st.test_calls += 1;
                if !h.test(x) {
                    return true;
                }
                st.op_latency_ns.push(ns_since(issued));
                done.push((completion_outcome(h.wait(x)), want, 1));
                false
            });
            tr.close();
            let waited = t0.elapsed();
            if waited > OP_TIMEOUT {
                Self::abandon(&mut self.peer, &mut theirs, tally);
            }
            if waited > 3 * OP_TIMEOUT {
                return Err("offload operations never completed".into());
            }
        }
        let ns = ns_since(t0);
        self.check(done, tr, tally, w);
        Ok(ns)
    }

    /// One window with rank 0 driven on the main thread; returns the
    /// window's post + wait time.
    fn window_direct(&mut self, tr: &mut Tracer, st: &mut Stats, tally: &mut Tally) -> u64 {
        let w = self.window;
        let base = self.next;
        self.window += 1;
        self.next = (self.next + WINDOW) % POOL;
        let r0 = self.r0.as_mut().expect("rank 0 on the main thread");
        let t0 = Instant::now();
        tr.begin_stages("window", "post", w);
        let mut mine: Vec<(WireReq, Want)> = Vec::with_capacity(2 * WINDOW);
        for i in 0..WINDOW {
            let tag = i as u32;
            let t = Instant::now();
            let r = tr.leaf(Layer::Wire, "irecv", w, || r0.irecv(Some(1), Some(tag)));
            st.wire_irecv_ns.push(ns_since(t));
            mine.push((
                r,
                Want::Recv {
                    tag,
                    k: (base + i) % POOL,
                },
            ));
        }
        for i in 0..WINDOW {
            let data = self.out0.data[(base + i) % POOL].clone();
            let t = Instant::now();
            let r = tr.leaf(Layer::Wire, "isend", w, || r0.isend(1, i as u32, data));
            st.wire_isend_ns.push(ns_since(t));
            mine.push((r, Want::Sent));
        }
        let mut theirs = self.peer_post(base, tr, w);
        tr.stage("wait", w);
        let mut done = Vec::with_capacity(4 * WINDOW);
        let r0 = self.r0.as_mut().expect("rank 0 on the main thread");
        while !(mine.is_empty() && theirs.is_empty()) {
            Self::pump(r0, &mut mine, 1, &mut done, tr, st, w);
            Self::pump(&mut self.peer, &mut theirs, 0, &mut done, tr, st, w);
            if t0.elapsed() > OP_TIMEOUT {
                Self::abandon(r0, &mut mine, tally);
                Self::abandon(&mut self.peer, &mut theirs, tally);
            }
        }
        let ns = ns_since(t0);
        self.check(done, tr, tally, w);
        ns
    }

    fn run_windows(
        &mut self,
        a: Approach,
        n: usize,
        tr: &mut Tracer,
        st: &mut Stats,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let idx = a.index();
        let bytes0 = self.payload_bytes;
        let snaps = |s: &mut Self, c: &mut LiveCounts| {
            (
                c.r0.snap(&s.r0_reg),
                c.peer.snap(&s.peer_reg),
                write_syscalls(),
            )
        };
        match a {
            Approach::Offload => {
                let rank = offload::offload_rank(self.r0.take().expect("rank 0 transport"));
                let h = rank.handle();
                st.counts.threads_max = st.counts.threads_max.max(threads()?);
                let off0 = st.counts.off.snap(h.obs());
                let (r0a, pa, sys_a) = snaps(self, &mut st.counts);
                let mut solve = 0;
                for _ in 0..n {
                    let ns = self.window_offload(&h, tr, st, tally)?;
                    st.exposed_ns[idx].push(ns, st.scale);
                    solve += ns;
                }
                st.solve_ns[idx].push(solve, st.scale);
                let off1 = st.counts.off.snap(h.obs());
                let (r0b, pb, sys_b) = snaps(self, &mut st.counts);
                st.counts.off.fold(&off0, &off1);
                st.counts.fold(&r0a, &r0b, &pa, &pb, sys_a.zip(sys_b));
                st.counts.offload_ops += (2 * WINDOW * n) as u64;
                self.r0 = Some(rank.finalize_reclaim());
            }
            Approach::Baseline => {
                st.counts.threads_max = st.counts.threads_max.max(threads()?);
                let (r0a, pa, sys_a) = snaps(self, &mut st.counts);
                let mut solve = 0;
                for _ in 0..n {
                    let ns = self.window_direct(tr, st, tally);
                    st.exposed_ns[idx].push(ns, st.scale);
                    solve += ns;
                }
                st.solve_ns[idx].push(solve, st.scale);
                let (r0b, pb, sys_b) = snaps(self, &mut st.counts);
                st.counts.fold(&r0a, &r0b, &pa, &pb, sys_a.zip(sys_b));
            }
        }
        st.counts.payload_bytes += self.payload_bytes - bytes0;
        Ok(())
    }
}

/// Run the workload: set-up, then alternating solves for `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<crate::Outcome, String> {
    let mut tally = Tally::default();
    let (mut e, setup) = Eager::setup(seed, &mut tally)?;
    let mut stats = [Stats::default(), Stats::default()];
    let mut tr = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let mut traced_wall = 0u64;
    let ran = schedule(seconds, trace, 3, [1, 1], |a, traced, scale| {
        let (st, t) = if traced {
            (&mut stats[1], &mut tr)
        } else {
            (&mut stats[0], &mut quiet)
        };
        st.scale = scale;
        let t0 = Instant::now();
        e.run_windows(a, BATCH, t, st, &mut tally)?;
        if traced {
            traced_wall += ns_since(t0);
        }
        Ok(())
    })?;
    let [u, t] = &stats;
    let mut e2e = Metrics::new();
    let mut layer = Metrics::new();
    e2e.insert("setup_s", setup.at_ref.median() / 1e9);
    e2e.insert("peak_rss_mb", ran.peak_rss_mb);
    let cal_lines = layers::e2e_times(
        &mut e2e,
        &mut layer,
        &u.solve_ns,
        &u.exposed_ns,
        &ran.cal_ns,
    );
    let msgs_per_solve = (2 * WINDOW * BATCH) as f64;
    let mut lines = vec![
        crate::line_rate("msg_rate.offload", msgs_per_solve, &u.solve_ns[0].raw),
        crate::line_rate("msg_rate.direct", msgs_per_solve, &u.solve_ns[1].raw),
        crate::line_timing("issue_ns", "ns", &u.issue_ns(), 1.0),
        crate::line_timing("window_us.offload", "us", &u.exposed_ns[0].raw, 1e3),
        crate::line_timing("window_us.direct", "us", &u.exposed_ns[1].raw, 1e3),
    ];
    lines.extend(cal_lines);
    lines.push(layers::setup_line(&setup));
    let shm_fallback = crate::measure::counter(&e.r0_reg.snapshot(), "wire.shm_fallback")?;
    layers::live_metrics(&mut layer, u, shm_fallback, &mut tally)?;
    layers::trace_metrics(
        &mut layer,
        &tr,
        &u.solve_ns,
        &t.solve_ns,
        traced_wall,
        u.counts.threads_max.max(t.counts.threads_max),
    );
    layers::idle(&mut layer, &["coll.", "qcd.", "des."]);
    if trace {
        lines.push(layers::reconcile(&tr, &mut tally));
        layers::write_trace(&tr, "eager_msgrate")?;
    }
    Ok(crate::Outcome {
        e2e,
        layer,
        lines,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_seeded_and_eager() {
        let a = payloads(&mut SplitMix64::new(3), 64);
        let b = payloads(&mut SplitMix64::new(3), 64);
        assert_eq!(a.hash, b.hash);
        assert!(a
            .data
            .iter()
            .all(|d| (MIN_EAGER..=MAX_EAGER).contains(&d.len())));
        let c = payloads(&mut SplitMix64::new(4), 64);
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn corrupted_expectation_raises_failures_in_a_live_window() {
        let mut tally = Tally::default();
        let mut e = Eager::build(11);
        let mut st = Stats::default();
        let mut tr = Tracer::new(false);
        e.run_windows(Approach::Baseline, 2, &mut tr, &mut st, &mut tally)
            .unwrap();
        e.run_windows(Approach::Offload, 2, &mut tr, &mut st, &mut tally)
            .unwrap();
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        assert_eq!(tally.attempted, 4 * 4 * WINDOW as u64);
        // Perturb the hash rank 0 expects for the next window's first
        // message from the peer: that one receive must fail, per approach.
        for a in [Approach::Baseline, Approach::Offload] {
            let k = e.next;
            e.out1.hash[k] ^= 1;
            let before = tally.failed;
            e.run_windows(a, 1, &mut tr, &mut st, &mut tally).unwrap();
            assert_eq!(tally.failed, before + 1, "{a:?}");
            e.out1.hash[k] ^= 1;
        }
    }
}
