//! `qcd_halo_cg`: a CG-shaped loop over the Unix socket. The peer is
//! both ±t neighbours. Each iteration posts 2 face irecvs and 2 face
//! isends of rendezvous size, starts a 2048-lane f64 allreduce (the
//! `qcd::live_driver` shape), runs `K_DSLASH` Wilson-Dslash applications
//! on a seeded lattice while the main thread pumps the peer between
//! them, then waits.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpisim::types::{Dtype, ReduceOp};
use numeric::SplitMix64;
use offload::{CollKind, Completion, Handle, OffloadHandle};
use qcd::live_driver::{check_sums, lane_dots, DIMS};
use qcd::{dslash, FermionField, GaugeField};
use rtmpi::{OpOutcome, Transport};
use wire::nbcrun::{Coll, NbcRun};
use wire::{WireComm, WireConfig, WireReq};

use crate::common::{
    completion_outcome, hash64, schedule, verify_payload, Approach, Tally, APPROACHES, OP_TIMEOUT,
};
use crate::layers::{self, LiveStats};
use crate::measure::{
    ns_since, ratio, threads, write_syscalls, Calibrator, Gated, Metrics, Samples,
};
use crate::trace::{Layer, Tracer};

/// Dslash applications per iteration (the compute block).
const K_DSLASH: usize = 12;
/// The compute lattice: small enough that the peer is pumped about every
/// 100 µs, so rendezvous rounds can finish inside the compute block.
const COMPUTE_DIMS: [usize; 4] = [4, 4, 4, 4];
/// Iterations per solve (one `solve_s` sample).
const ITERS: usize = 16;
const WARMUP_ITERS: usize = 16;
const SETUPS: usize = 5;
/// Solo Dslash calls timed at set-up for the inflation baseline.
const CALIBRATION_CALLS: usize = 32;
/// Face tags: the low (t = 0) face travels down, the high face up.
const TAGS: [u32; 2] = [1, 2];

/// One rank's seeded field and what it sends.
struct Side {
    faces: [Arc<[u8]>; 2],
    hashes: [u64; 2],
    lanes: Vec<u8>,
}

fn face_bytes(psi: &FermionField<f64>, t: usize) -> Vec<u8> {
    let per_slice = DIMS[0] * DIMS[1] * DIMS[2];
    let mut out = Vec::with_capacity(per_slice * 24 * 8);
    for s in &psi.data[t * per_slice..(t + 1) * per_slice] {
        for spin in &s.s {
            for c in spin {
                out.extend_from_slice(&c.re.to_le_bytes());
                out.extend_from_slice(&c.im.to_le_bytes());
            }
        }
    }
    out
}

impl Side {
    fn new(rng: &mut SplitMix64) -> Self {
        let psi = FermionField::random(DIMS, rng);
        let faces = [0, DIMS[3] - 1].map(|t| Arc::<[u8]>::from(face_bytes(&psi, t)));
        let hashes = [hash64(&faces[0]), hash64(&faces[1])];
        let lanes = lane_dots(&psi)
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        Side {
            faces,
            hashes,
            lanes,
        }
    }

    fn lanes_f64(&self) -> Vec<f64> {
        self.lanes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte lane")))
            .collect()
    }
}

/// Check an allreduce result with `qcd::live_driver::check_sums`, which
/// panics on a mismatch; the panic becomes a failed operation.
fn check_allreduce(out: &[u8], expected: &[f64]) -> Result<(), String> {
    std::panic::catch_unwind(|| check_sums(out, expected)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "allreduce mismatch".into())
    })
}

/// The shared live timings plus the compute block and the allreduce
/// latency, by approach.
#[derive(Default)]
struct Stats {
    live: LiveStats,
    compute_ns: [Samples; 2],
    coll_ns: [Samples; 2],
}

/// A collective schedule driven on the main thread, kept after it
/// finishes so its result can be verified outside the timed stages.
struct Running {
    run: Option<NbcRun<WireComm>>,
    finished: bool,
}

impl Running {
    fn new(run: NbcRun<WireComm>) -> Self {
        Running {
            run: Some(run),
            finished: false,
        }
    }

    fn is_running(&self) -> bool {
        self.run.is_some() && !self.finished
    }

    /// Advance the schedule; `true` on the poll that finishes it. A
    /// failed schedule is counted and dropped.
    fn poll(
        &mut self,
        comm: &mut WireComm,
        tr: &mut Tracer,
        tally: &mut Tally,
        it: u64,
        what: &str,
    ) -> bool {
        if !self.is_running() {
            return false;
        }
        let run = self.run.as_mut().expect("running schedule");
        match tr.leaf(Layer::Nbc, "poll", it, || run.poll(comm)) {
            Ok(done) => {
                self.finished = done;
                done
            }
            Err(e) => {
                tally.fail(format!("{what}: {e}"));
                self.abandon(comm, tally);
                false
            }
        }
    }

    /// Cancel an unfinished schedule; a timed-out one counts as failed.
    fn abandon(&mut self, comm: &mut WireComm, tally: &mut Tally) {
        if self.is_running() {
            if let Some(run) = self.run.take() {
                run.abort(comm);
                tally.fail(format!("allreduce pending past {OP_TIMEOUT:?}"));
            }
        }
    }

    /// The result of a schedule that finished.
    fn result(&self) -> Option<&[u8]> {
        self.run
            .as_ref()
            .filter(|_| self.finished)
            .map(|r| r.result())
    }
}

/// The peer's share of one iteration; `done` holds its completed face
/// operations until the check stage.
struct PeerIter {
    p2p: Vec<(WireReq, Option<usize>)>,
    nbc: Running,
    done: Vec<(Result<OpOutcome, String>, Option<usize>)>,
}

struct Halo {
    r0: Option<WireComm>,
    peer: WireComm,
    r0_reg: obs::Registry,
    peer_reg: obs::Registry,
    gauge: GaugeField<f64>,
    /// The field Dslash is applied to.
    chi: FermionField<f64>,
    me: Side,
    them: Side,
    expected: Vec<f64>,
    /// Collective sequence number, mirrored from rank 0's executor (an
    /// offload rank starts counting at 0 when it spawns).
    coll_seq: u32,
    solo_dslash_ns: f64,
    iter: u64,
}

fn coll_tag(seq: u32) -> u32 {
    rtmpi::TAG_COLL_BASE + (seq % rtmpi::TAG_COLL_SPAN)
}

fn allreduce(data: Vec<u8>) -> Coll {
    Coll::Allreduce {
        dtype: Dtype::F64,
        op: ReduceOp::Sum,
        data,
    }
}

/// Check a received face: `k` indexes the sender's faces by tag.
fn check_face(out: Result<OpOutcome, String>, k: Option<usize>, from: &Side) -> Result<(), String> {
    match (out, k) {
        (Ok(OpOutcome::Sent), None) => Ok(()),
        (Ok(OpOutcome::Received(_, data)), Some(k)) => {
            verify_payload(&data, from.faces[k].len(), from.hashes[k])
        }
        (Err(e), _) => Err(e),
        _ => Err("face operation completed as the wrong kind".into()),
    }
}

impl Halo {
    fn build(seed: u64) -> Self {
        let cfg = WireConfig {
            timeout: OP_TIMEOUT,
            ..WireConfig::default()
        };
        let mut world = wire::loopback_configured(2, cfg);
        let peer = world.pop().expect("rank 1");
        let r0 = world.pop().expect("rank 0");
        let mut rng = SplitMix64::new(seed);
        let gauge = GaugeField::random(COMPUTE_DIMS, &mut rng);
        let chi = FermionField::random(COMPUTE_DIMS, &mut rng);
        let me = Side::new(&mut rng);
        let them = Side::new(&mut rng);
        let expected = me
            .lanes_f64()
            .iter()
            .zip(them.lanes_f64())
            .map(|(a, b)| a + b)
            .collect();
        let mut solo = Samples::default();
        for _ in 0..CALIBRATION_CALLS {
            let t = Instant::now();
            std::hint::black_box(dslash(&gauge, &chi));
            solo.push(ns_since(t));
        }
        Halo {
            r0_reg: r0.obs().clone(),
            peer_reg: peer.obs().clone(),
            r0: Some(r0),
            peer,
            gauge,
            chi,
            me,
            them,
            expected,
            coll_seq: 0,
            solo_dslash_ns: solo.median(),
            iter: 0,
        }
    }

    /// Bootstrap, field init, Dslash calibration and warm-up under both
    /// approaches, repeated `SETUPS` times, each at its own host-speed
    /// scale; returns the last world and the set-up times.
    fn setup(seed: u64, tally: &mut Tally) -> Result<(Self, Gated), String> {
        let mut cal = Calibrator::new()?;
        let mut times = Gated::default();
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            let scale = cal.scale(Duration::ZERO, &mut Samples::default())?;
            let t = Instant::now();
            let mut h = Halo::build(seed);
            let mut st = Stats::default();
            let mut tr = Tracer::new(false);
            h.run_iters(Approach::Offload, WARMUP_ITERS, &mut tr, &mut st, tally)?;
            h.run_iters(Approach::Baseline, WARMUP_ITERS, &mut tr, &mut st, tally)?;
            times.push(ns_since(t), scale);
            last = Some(h);
        }
        Ok((last.expect("at least one set-up"), times))
    }

    fn peer_post(&mut self, tr: &mut Tracer, it: u64) -> PeerIter {
        tr.open(Layer::Wire, "peer_post", it);
        let mut p2p = Vec::with_capacity(4);
        for (k, &tag) in TAGS.iter().enumerate() {
            p2p.push((self.peer.irecv(Some(0), Some(tag)), Some(k)));
        }
        for (k, &tag) in TAGS.iter().enumerate() {
            p2p.push((self.peer.isend(0, tag, self.them.faces[k].clone()), None));
        }
        tr.close();
        let tag = coll_tag(self.coll_seq);
        let coll = allreduce(self.them.lanes.clone());
        let peer = &mut self.peer;
        let nbc = tr.leaf(Layer::Nbc, "peer_start", it, || {
            NbcRun::start(peer, tag, coll)
        });
        PeerIter {
            p2p,
            nbc: Running::new(nbc),
            done: Vec::with_capacity(4),
        }
    }

    /// Pump the peer as a node with perfect progress would run: progress,
    /// advance its schedule, take completions, and progress once more
    /// when something arrived, so responses leave at once.
    fn pump_peer(
        &mut self,
        p: &mut PeerIter,
        tr: &mut Tracer,
        st: &mut Stats,
        tally: &mut Tally,
        it: u64,
    ) {
        let peer = &mut self.peer;
        let adv = st.live.progress(peer, tr, it);
        p.nbc.poll(peer, tr, tally, it, "peer allreduce");
        tr.open(Layer::Wire, "try_take_sweep", it);
        p.p2p.retain(|(r, k)| match peer.try_take(r) {
            Some(out) => {
                p.done.push((out.map_err(|e| e.to_string()), *k));
                false
            }
            None => true,
        });
        tr.close();
        if adv {
            st.live.progress(peer, tr, it);
        }
    }

    fn peer_done(p: &PeerIter) -> bool {
        p.p2p.is_empty() && !p.nbc.is_running()
    }

    /// Abandon the peer's side of an iteration that outlived the timeout.
    fn abandon_peer(&mut self, p: &mut PeerIter, tally: &mut Tally) {
        for (r, _) in p.p2p.drain(..) {
            self.peer.cancel(&r);
            tally.fail(format!("peer face pending past {OP_TIMEOUT:?}"));
        }
        p.nbc.abandon(&mut self.peer, tally);
    }

    /// The untimed last stage of an iteration: verify the peer's faces
    /// and allreduce result, plus rank 0's `mine`.
    fn check(
        &self,
        p: PeerIter,
        mine: Vec<(Result<OpOutcome, String>, Option<usize>)>,
        tr: &mut Tracer,
        tally: &mut Tally,
        it: u64,
    ) {
        tr.stage("check", it);
        for (out, k) in p.done {
            tally.check(tr.leaf(Layer::Check, "face", it, || check_face(out, k, &self.me)));
        }
        for (out, k) in mine {
            tally.check(tr.leaf(Layer::Check, "face", it, || check_face(out, k, &self.them)));
        }
        if let Some(out) = p.nbc.result() {
            tally.check(tr.leaf(Layer::Check, "allreduce", it, || {
                check_allreduce(out, &self.expected)
            }));
        }
    }

    /// One offloaded iteration; returns (exposed, compute) ns.
    fn iter_offload(
        &mut self,
        h: &OffloadHandle,
        tr: &mut Tracer,
        st: &mut Stats,
        tally: &mut Tally,
    ) -> Result<(u64, u64), String> {
        let it = self.iter;
        self.iter += 1;
        let t0 = Instant::now();
        tr.begin_stages("iter", "post", it);
        // (handle, issued, first seen done, face index for receives)
        let mut mine: Vec<(Handle, Instant, Option<u64>, Option<usize>)> = Vec::with_capacity(5);
        for (k, &tag) in TAGS.iter().enumerate() {
            let t = Instant::now();
            let x = tr.leaf(Layer::Offload, "irecv", it, || h.irecv(Some(1), Some(tag)));
            st.live.irecv_ns.push(ns_since(t));
            mine.push((x, t, None, Some(k)));
        }
        for (k, &tag) in TAGS.iter().enumerate() {
            let data = self.me.faces[k].clone();
            let t = Instant::now();
            let x = tr.leaf(Layer::Offload, "isend", it, || h.isend(1, tag, data));
            st.live.isend_ns.push(ns_since(t));
            mine.push((x, t, None, None));
        }
        let lanes = self.me.lanes.clone();
        let t_coll = Instant::now();
        let coll = tr.leaf(Layer::Offload, "start_collective", it, || {
            h.start_collective(CollKind::Allreduce {
                dtype: Dtype::F64,
                op: ReduceOp::Sum,
                data: lanes,
            })
        });
        st.live.coll_start_ns.push(ns_since(t_coll));
        // The collective is tracked last in `mine`, without a face index.
        mine.push((coll, t_coll, None, None));
        self.coll_seq = self.coll_seq.wrapping_add(1);
        let mut p = self.peer_post(tr, it);
        let t1 = Instant::now();
        tr.stage("compute", it);
        let test_all = |mine: &mut Vec<(Handle, Instant, Option<u64>, Option<usize>)>,
                        tr: &mut Tracer,
                        st: &mut Stats| {
            tr.open(Layer::Offload, "test_sweep", it);
            for (x, issued, seen, _) in mine.iter_mut() {
                if seen.is_none() {
                    st.live.test_calls += 1;
                    if h.test(*x) {
                        *seen = Some(ns_since(*issued));
                    }
                }
            }
            tr.close();
        };
        for _ in 0..K_DSLASH {
            tr.leaf(Layer::Qcd, "dslash", it, || {
                std::hint::black_box(dslash(&self.gauge, &self.chi));
            });
            self.pump_peer(&mut p, tr, st, tally, it);
            test_all(&mut mine, tr, st);
        }
        let t2 = Instant::now();
        tr.stage("wait", it);
        while !(mine.iter().all(|m| m.2.is_some()) && Self::peer_done(&p)) {
            if !Self::peer_done(&p) {
                self.pump_peer(&mut p, tr, st, tally, it);
            }
            test_all(&mut mine, tr, st);
            let waited = t0.elapsed();
            if waited > OP_TIMEOUT {
                self.abandon_peer(&mut p, tally);
            }
            if waited > 3 * OP_TIMEOUT {
                return Err("offloaded halo operations never completed".into());
            }
        }
        let t3 = Instant::now();
        let coll_ns = mine.last().and_then(|m| m.2).expect("collective seen done");
        st.coll_ns[0].push(coll_ns);
        let mut faces = Vec::with_capacity(4);
        let mut coll_out = None;
        for (i, (x, _, seen, k)) in mine.into_iter().enumerate() {
            st.live.op_latency_ns.push(seen.expect("all seen done"));
            match (i, h.wait(x)) {
                (4, c) => coll_out = Some(c),
                (_, c) => faces.push((completion_outcome(c), k)),
            }
        }
        self.check(p, faces, tr, tally, it);
        let res = match coll_out {
            Some(Completion::Collective(out)) => tr.leaf(Layer::Check, "allreduce", it, || {
                check_allreduce(&out, &self.expected)
            }),
            Some(Completion::Failed(e)) => Err(format!("allreduce: {e}")),
            _ => Err("allreduce completed as the wrong kind".into()),
        };
        tally.check(res);
        tr.end_stages();
        tr.end_step(true);
        let compute = (t2 - t1).as_nanos() as u64;
        Ok(((t3 - t0).as_nanos() as u64 - compute, compute))
    }

    /// One baseline iteration: rank 0 progresses only inside its wait.
    fn iter_baseline(&mut self, tr: &mut Tracer, st: &mut Stats, tally: &mut Tally) -> (u64, u64) {
        let it = self.iter;
        self.iter += 1;
        let mut r0 = self.r0.take().expect("rank 0 on the main thread");
        let t0 = Instant::now();
        tr.begin_stages("iter", "post", it);
        r0.set_in_wait(true);
        let mut mine: Vec<(WireReq, Option<usize>)> = Vec::with_capacity(4);
        for (k, &tag) in TAGS.iter().enumerate() {
            let t = Instant::now();
            let r = tr.leaf(Layer::Wire, "irecv", it, || r0.irecv(Some(1), Some(tag)));
            st.live.wire_irecv_ns.push(ns_since(t));
            mine.push((r, Some(k)));
        }
        for (k, &tag) in TAGS.iter().enumerate() {
            let data = self.me.faces[k].clone();
            let t = Instant::now();
            let r = tr.leaf(Layer::Wire, "isend", it, || r0.isend(1, tag, data));
            st.live.wire_isend_ns.push(ns_since(t));
            mine.push((r, None));
        }
        self.coll_seq = self.coll_seq.wrapping_add(1);
        let tag = coll_tag(self.coll_seq);
        let t_coll = Instant::now();
        let coll = allreduce(self.me.lanes.clone());
        let mut nbc = Running::new(tr.leaf(Layer::Nbc, "start", it, || {
            NbcRun::start(&mut r0, tag, coll)
        }));
        r0.set_in_wait(false);
        let mut p = self.peer_post(tr, it);
        let t1 = Instant::now();
        tr.stage("compute", it);
        for _ in 0..K_DSLASH {
            tr.leaf(Layer::Qcd, "dslash", it, || {
                std::hint::black_box(dslash(&self.gauge, &self.chi));
            });
            self.pump_peer(&mut p, tr, st, tally, it);
        }
        let t2 = Instant::now();
        tr.stage("wait", it);
        r0.set_in_wait(true);
        let mut done = Vec::with_capacity(4);
        while !(mine.is_empty() && !nbc.is_running() && Self::peer_done(&p)) {
            st.live.progress(&mut r0, tr, it);
            if nbc.poll(&mut r0, tr, tally, it, "allreduce") {
                st.coll_ns[1].push(ns_since(t_coll));
            }
            tr.open(Layer::Wire, "try_take_sweep", it);
            mine.retain(|(r, k)| match r0.try_take(r) {
                Some(out) => {
                    done.push((out.map_err(|e| e.to_string()), *k));
                    false
                }
                None => true,
            });
            tr.close();
            if !Self::peer_done(&p) {
                self.pump_peer(&mut p, tr, st, tally, it);
            }
            if t0.elapsed() > OP_TIMEOUT {
                for (r, _) in mine.drain(..) {
                    r0.cancel(&r);
                    tally.fail(format!("face pending past {OP_TIMEOUT:?}"));
                }
                nbc.abandon(&mut r0, tally);
                self.abandon_peer(&mut p, tally);
            }
        }
        r0.set_in_wait(false);
        let t3 = Instant::now();
        self.r0 = Some(r0);
        self.check(p, done, tr, tally, it);
        if let Some(out) = nbc.result() {
            tally.check(tr.leaf(Layer::Check, "allreduce", it, || {
                check_allreduce(out, &self.expected)
            }));
        }
        tr.end_stages();
        tr.end_step(true);
        let compute = (t2 - t1).as_nanos() as u64;
        ((t3 - t0).as_nanos() as u64 - compute, compute)
    }

    fn run_iters(
        &mut self,
        a: Approach,
        n: usize,
        tr: &mut Tracer,
        st: &mut Stats,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let idx = a.index();
        let r0a = st.live.counts.r0.snap(&self.r0_reg);
        let pa = st.live.counts.peer.snap(&self.peer_reg);
        let sys_a = write_syscalls();
        let mut solve = 0;
        let mut record = |st: &mut Stats, (exposed, compute): (u64, u64)| {
            st.live.exposed_ns[idx].push(exposed, st.live.scale);
            st.compute_ns[idx].push(compute);
            solve += exposed + compute;
        };
        match a {
            Approach::Offload => {
                let rank = offload::offload_rank(self.r0.take().expect("rank 0 transport"));
                self.coll_seq = 0;
                let h = rank.handle();
                st.live.counts.threads_max = st.live.counts.threads_max.max(threads()?);
                let off0 = st.live.counts.off.snap(h.obs());
                for _ in 0..n {
                    let r = self.iter_offload(&h, tr, st, tally)?;
                    record(st, r);
                }
                let off1 = st.live.counts.off.snap(h.obs());
                st.live.counts.off.fold(&off0, &off1);
                st.live.counts.offload_ops += (5 * n) as u64;
                self.r0 = Some(rank.finalize_reclaim());
            }
            Approach::Baseline => {
                st.live.counts.threads_max = st.live.counts.threads_max.max(threads()?);
                for _ in 0..n {
                    let r = self.iter_baseline(tr, st, tally);
                    record(st, r);
                }
            }
        }
        st.live.solve_ns[idx].push(solve, st.live.scale);
        let r0b = st.live.counts.r0.snap(&self.r0_reg);
        let pb = st.live.counts.peer.snap(&self.peer_reg);
        st.live
            .counts
            .fold(&r0a, &r0b, &pa, &pb, sys_a.zip(write_syscalls()));
        st.live.counts.colls += n as u64;
        // Faces both ways plus each rank's allreduce contribution.
        let per_iter =
            2 * (self.me.faces[0].len() + self.me.faces[1].len()) + 2 * self.me.lanes.len();
        st.live.counts.payload_bytes += (per_iter * n) as u64;
        Ok(())
    }
}

/// Run the workload: set-up, then alternating solves for `seconds`.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<crate::Outcome, String> {
    let mut tally = Tally::default();
    let (mut h, setup) = Halo::setup(seed, &mut tally)?;
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
        st.live.scale = scale;
        let t0 = Instant::now();
        h.run_iters(a, ITERS, t, st, &mut tally)?;
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
        &u.live.solve_ns,
        &u.live.exposed_ns,
        &ran.cal_ns,
    );
    let mut lines = cal_lines;
    lines.push(layers::setup_line(&setup));
    let dslash_budget = K_DSLASH as f64 * h.solo_dslash_ns;
    for a in APPROACHES {
        let i = a.index();
        let (name, coll, inflation) = match a {
            Approach::Offload => (
                "offload",
                "coll.allreduce_us.p50.offload",
                "qcd.compute_inflation.offload",
            ),
            Approach::Baseline => (
                "baseline",
                "coll.allreduce_us.p50.baseline",
                "qcd.compute_inflation.baseline",
            ),
        };
        layer.insert(coll, u.coll_ns[i].median() / 1e3);
        layer.insert(inflation, ratio(u.compute_ns[i].median(), dslash_budget));
        lines.push(format!(
            "qcd.solve_s.{name} = {:.6} s for {ITERS} iterations (median of n={} solves)",
            u.live.solve_ns[i].raw.median() / 1e9,
            u.live.solve_ns[i].raw.len()
        ));
        lines.push(crate::line_timing(
            &format!("qcd.exposed_us.{name}"),
            "us",
            &u.live.exposed_ns[i].raw,
            1e3,
        ));
        lines.push(crate::line_timing(
            &format!("qcd.compute_us.{name}"),
            "us",
            &u.compute_ns[i],
            1e3,
        ));
    }
    lines.push(crate::line_timing(
        "issue_ns",
        "ns",
        &u.live.issue_ns(),
        1.0,
    ));
    layer.insert("qcd.dslash_us.p50", h.solo_dslash_ns / 1e3);
    let sites = COMPUTE_DIMS.iter().product::<usize>() as f64;
    let flops = qcd::lattice::DSLASH_FLOPS_PER_SITE * sites;
    layer.insert("qcd.dslash_gflops", ratio(flops, h.solo_dslash_ns));
    layers::live_metrics(&mut layer, &u.live, 0, &mut tally)?;
    layers::trace_metrics(
        &mut layer,
        &tr,
        &u.live.solve_ns,
        &t.live.solve_ns,
        traced_wall,
        u.live.counts.threads_max.max(t.live.counts.threads_max),
    );
    layers::idle(&mut layer, &["des."]);
    if trace {
        lines.push(layers::reconcile(&tr, &mut tally));
        layers::write_trace(&tr, "qcd_halo_cg")?;
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
    fn faces_are_rendezvous_sized_and_lanes_match_live_driver() {
        let side = Side::new(&mut SplitMix64::new(5));
        assert!(side.faces.iter().all(|f| f.len() > 4096));
        assert_eq!(side.lanes.len(), qcd::live_driver::LANES * 8);
    }

    #[test]
    fn perturbed_allreduce_expectation_raises_failures() {
        let mut tally = Tally::default();
        let mut h = Halo::build(9);
        let mut st = Stats::default();
        let mut tr = Tracer::new(false);
        for a in [Approach::Baseline, Approach::Offload] {
            h.run_iters(a, 2, &mut tr, &mut st, &mut tally).unwrap();
        }
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        // Ten checks per iteration: four face ops and the allreduce per rank.
        assert_eq!(tally.attempted, 2 * 2 * 10);
        h.expected[17] *= 1.0 + 1e-6;
        for a in [Approach::Baseline, Approach::Offload] {
            let before = tally.failed;
            h.run_iters(a, 1, &mut tr, &mut st, &mut tally).unwrap();
            assert_eq!(tally.failed, before + 2, "{a:?}: both ranks' sums fail");
        }
    }

    #[test]
    fn corrupted_face_hash_raises_failures() {
        let mut tally = Tally::default();
        let mut h = Halo::build(10);
        let mut st = Stats::default();
        let mut tr = Tracer::new(false);
        h.them.hashes[1] ^= 4;
        h.run_iters(Approach::Offload, 1, &mut tr, &mut st, &mut tally)
            .unwrap();
        assert_eq!(tally.failed, 1, "rank 0's receive of the peer's high face");
    }
}
