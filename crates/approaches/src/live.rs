//! Live counterparts of the approach matrix: the same baseline / iprobe /
//! offload comparison, but over a real [`rtmpi::Transport`] (the
//! `crates/wire` socket backend, in-process loopback or one process per
//! rank) instead of the discrete-event simulator.
//!
//! The application-visible surface is deliberately the one the paper's
//! unmodified apps use — isend / irecv / wait / barrier — and the three
//! strategies differ *only* in who drives transport progress, and when:
//!
//! * [`LiveApproach::Baseline`]: nobody polls until the application blocks
//!   in [`LiveComm::wait`] — over the wire backend an incoming rendezvous
//!   RTS therefore sits unanswered until the wait, the behaviour the paper
//!   attacks.
//! * [`LiveApproach::Iprobe`]: the application sprinkles
//!   [`LiveComm::progress_hint`] into its compute loop (the MPI_Iprobe
//!   workaround) — progress happens, but on the application's clock and
//!   the application's core.
//! * [`LiveApproach::Offload`]: commands go to the dedicated offload
//!   thread (`offload::OffloadRank`), whose service loop polls the
//!   transport continuously — rendezvous handshakes complete during
//!   application compute without the application doing anything.
//!
//! Blocking waits honour the transport's op timeout and surface peer
//! death as [`TransportError`] instead of hanging — the launcher-level
//! robustness story depends on this.
//!
//! **Collectives.** All three strategies expose the full `Comm` collective
//! surface (barrier, bcast, reduce, allreduce incl. Rabenseifner,
//! allgather, alltoall, gather, scatter) as nonblocking schedules:
//! [`LiveComm::icollective`] posts the first round and returns a
//! [`LiveCollReq`]; [`LiveComm::coll_wait`] drives it to completion. Every
//! strategy runs the same executor, [`mpisim::nbc::NbcRun`]: the direct
//! modes keep their runs here on the application thread, the offload
//! thread keeps its own and interleaves them with point-to-point traffic,
//! and `check::proto` model-checks that very type. Rounds travel in the
//! reserved tag space ([`rtmpi::TAG_DIRECT_COLL_BASE`] for direct mode,
//! [`rtmpi::TAG_COLL_BASE`] for the offload thread), which wildcard
//! receives can never match — an app `ANY_TAG` recv posted mid-barrier
//! stays pending until real app traffic arrives. Who makes the rounds
//! progress is exactly the strategy split: baseline only inside
//! `coll_wait` (in-wait attribution), iprobe also on `progress_hint`, and
//! offload continuously on the dedicated thread (async attribution).

use std::sync::Arc;
use std::time::Instant;

use mpisim::nbc::NbcRun;
use mpisim::types::{Dtype, ReduceOp};
use offload::{Completion, OffloadHandle, OffloadRank};
use rtmpi::{OpOutcome, Status, Transport, TransportError};

// The collective surface of [`LiveComm`] speaks `CollKind`; re-export it
// so application drivers need no direct `offload` dependency.
pub use offload::CollKind;

/// The three strategies with live (real-transport) implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveApproach {
    Baseline,
    Iprobe,
    Offload,
}

impl LiveApproach {
    pub const ALL: [LiveApproach; 3] = [
        LiveApproach::Baseline,
        LiveApproach::Iprobe,
        LiveApproach::Offload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            LiveApproach::Baseline => "baseline",
            LiveApproach::Iprobe => "iprobe",
            LiveApproach::Offload => "offload",
        }
    }
}

/// One rank's communication object (see module docs).
/// What a completed wait yields: `None` for a finished send, the status
/// and payload for a finished receive.
pub type WaitOutcome = Option<(Status, Arc<[u8]>)>;

pub struct LiveComm<T: Transport> {
    inner: Inner<T>,
    rank: usize,
    size: usize,
    /// In-flight direct-mode collective schedules (slot-indexed by
    /// [`LiveCollReq::Direct`]); always empty in offload mode. A schedule
    /// that failed while a progress hint advanced it is replaced by its
    /// error, which the wait then surfaces.
    direct_nbcs: Vec<Option<Result<NbcRun<T>, TransportError>>>,
    /// Collective sequence number — every rank issues collectives in the
    /// same program order (the MPI ordering rule), so equal sequence
    /// numbers name the same collective instance across ranks and the
    /// derived round tag agrees without negotiation.
    coll_seq: u32,
}

enum Inner<T: Transport> {
    /// Baseline / iprobe: the application thread owns the transport.
    Direct { t: T, probe_on_hint: bool },
    /// Offload: the dedicated thread owns it; we hold the command handle.
    Offload {
        world: OffloadRank<T>,
        handle: OffloadHandle,
    },
}

/// Request handle for [`LiveComm`] operations.
pub enum LiveReq<T: Transport> {
    Direct(T::Req),
    Offload(offload::Handle),
}

/// Request handle for an in-flight [`LiveComm`] collective.
pub enum LiveCollReq {
    /// Index into the direct-mode schedule slots.
    Direct(usize),
    /// The offload thread's pool handle.
    Offload(offload::Handle),
}

impl<T: Transport> LiveComm<T> {
    /// Wrap an owned transport in the chosen strategy.
    pub fn start(approach: LiveApproach, t: T) -> Self {
        let (rank, size) = (t.rank(), t.size());
        let inner = match approach {
            LiveApproach::Baseline => Inner::Direct {
                t,
                probe_on_hint: false,
            },
            LiveApproach::Iprobe => Inner::Direct {
                t,
                probe_on_hint: true,
            },
            LiveApproach::Offload => {
                let world = offload::offload_rank(t);
                let handle = world.handle();
                Inner::Offload { world, handle }
            }
        };
        LiveComm {
            inner,
            rank,
            size,
            direct_nbcs: Vec::new(),
            coll_seq: 0,
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Nonblocking send.
    pub fn isend(&mut self, dst: usize, tag: u32, data: Arc<[u8]>) -> LiveReq<T> {
        match &mut self.inner {
            Inner::Direct { t, .. } => LiveReq::Direct(t.isend(dst, tag, data)),
            Inner::Offload { handle, .. } => LiveReq::Offload(handle.isend(dst, tag, data)),
        }
    }

    /// Nonblocking receive (`None` filters are wildcards).
    pub fn irecv(&mut self, src: Option<usize>, tag: Option<u32>) -> LiveReq<T> {
        match &mut self.inner {
            Inner::Direct { t, .. } => {
                // A post is an application-initiated MPI call: a buffered
                // RTS accepted right here is synchronous progress, not the
                // work of an async actor — mark it so the transport's
                // handshake attribution stays honest.
                t.set_in_wait(true);
                let r = t.irecv(src, tag);
                t.set_in_wait(false);
                LiveReq::Direct(r)
            }
            Inner::Offload { handle, .. } => LiveReq::Offload(handle.irecv(src, tag)),
        }
    }

    /// Give the library a chance to progress, from application compute.
    /// Baseline: deliberately a no-op (that is the baseline's flaw).
    /// Iprobe: polls the transport once and advances any in-flight
    /// collective schedules — rounds complete on the application's clock.
    /// Offload: a no-op — the offload thread is already polling.
    pub fn progress_hint(&mut self) {
        if let Inner::Direct {
            t,
            probe_on_hint: true,
        } = &mut self.inner
        {
            t.progress();
            for slot in &mut self.direct_nbcs {
                let failed = match slot {
                    Some(Ok(run)) => run.poll(t).err(),
                    _ => None,
                };
                if let Some(e) = failed {
                    if let Some(Ok(run)) = slot.replace(Err(e)) {
                        run.abort(t);
                    }
                }
            }
        }
    }

    /// Blocking wait; `Ok(None)` for sends, `Ok(Some(..))` for receives.
    /// Honours the transport's op timeout; surfaces peer death.
    pub fn wait(&mut self, req: LiveReq<T>) -> Result<WaitOutcome, TransportError> {
        match (&mut self.inner, req) {
            (Inner::Direct { t, .. }, LiveReq::Direct(r)) => {
                // The baseline's defining moment: progress happens *here*,
                // because the application finally blocked.
                t.set_in_wait(true);
                let limit = t.op_timeout();
                let deadline = Instant::now() + limit;
                let out = loop {
                    if let Some(out) = t.try_take(&r) {
                        break out;
                    }
                    let advanced = t.progress();
                    if let Some(out) = t.try_take(&r) {
                        break out;
                    }
                    if Instant::now() >= deadline {
                        t.cancel(&r);
                        break Err(TransportError::Timeout {
                            waited_ms: limit.as_millis() as u64,
                        });
                    }
                    // Completion needs the peer to act; give it the core
                    // instead of burning our whole quantum re-polling an
                    // unchanged transport (ruinous on oversubscribed
                    // machines, where the peer can't run until we yield).
                    if !advanced {
                        std::thread::yield_now();
                    }
                };
                t.set_in_wait(false);
                match out {
                    Ok(OpOutcome::Sent) => Ok(None),
                    Ok(OpOutcome::Received(st, d)) => Ok(Some((st, d))),
                    Err(e) => Err(e),
                }
            }
            (Inner::Offload { handle, .. }, LiveReq::Offload(h)) => match handle.wait_result(h)? {
                Completion::Sent => Ok(None),
                Completion::Received(st, d) => Ok(Some((st, d))),
                Completion::Collective(_) => unreachable!("p2p wait got a collective"),
                Completion::Failed(e) => Err(e),
            },
            _ => panic!("request handed to a different LiveComm"),
        }
    }

    /// Blocking send.
    pub fn send(&mut self, dst: usize, tag: u32, data: Arc<[u8]>) -> Result<(), TransportError> {
        let r = self.isend(dst, tag, data);
        self.wait(r).map(|_| ())
    }

    /// Blocking receive.
    pub fn recv(
        &mut self,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> Result<(Status, Arc<[u8]>), TransportError> {
        let r = self.irecv(src, tag);
        Ok(self.wait(r)?.expect("receive yields payload"))
    }

    /// Begin a nonblocking collective (the `MPI_Ibarrier`/`MPI_Iallreduce`
    /// family). Every rank must issue its collectives in the same order
    /// with matching arguments. A malformed kind ([`CollKind::check`])
    /// panics here, on the caller's thread and before it takes a sequence
    /// number, so the rank's later collectives still agree with its
    /// peers'. Direct modes start an [`NbcRun`] and post round 0 here (an
    /// application-initiated MPI call, so handshake attribution marks it
    /// in-wait); offload mode hands the kind to the dedicated thread.
    pub fn icollective(&mut self, kind: CollKind) -> LiveCollReq {
        match &mut self.inner {
            Inner::Direct { t, .. } => {
                kind.check(self.size, self.rank);
                self.coll_seq = self.coll_seq.wrapping_add(1);
                let tag = rtmpi::TAG_DIRECT_COLL_BASE + (self.coll_seq % rtmpi::TAG_COLL_SPAN);
                t.set_in_wait(true);
                let run = NbcRun::start(t, tag, kind);
                t.set_in_wait(false);
                let idx = match self.direct_nbcs.iter().position(Option::is_none) {
                    Some(i) => i,
                    None => {
                        self.direct_nbcs.push(None);
                        self.direct_nbcs.len() - 1
                    }
                };
                self.direct_nbcs[idx] = Some(Ok(run));
                LiveCollReq::Direct(idx)
            }
            Inner::Offload { handle, .. } => LiveCollReq::Offload(handle.start_collective(kind)),
        }
    }

    /// Complete a collective started with [`icollective`], returning its
    /// result buffer (empty for barrier). Honours the transport's op
    /// timeout; surfaces peer death mid-schedule as an error, with the
    /// schedule's remaining operations cancelled.
    ///
    /// [`icollective`]: LiveComm::icollective
    pub fn coll_wait(&mut self, req: LiveCollReq) -> Result<Vec<u8>, TransportError> {
        match (&mut self.inner, req) {
            (Inner::Direct { t, .. }, LiveCollReq::Direct(idx)) => {
                let mut run = self.direct_nbcs[idx]
                    .take()
                    .expect("collective waited at most once")?;
                t.set_in_wait(true);
                let limit = t.op_timeout();
                let deadline = Instant::now() + limit;
                let res = loop {
                    match run.poll(t) {
                        Ok(true) => break Ok(()),
                        Ok(false) => {}
                        Err(e) => break Err(e),
                    }
                    if Instant::now() >= deadline {
                        break Err(TransportError::Timeout {
                            waited_ms: limit.as_millis() as u64,
                        });
                    }
                    if !t.progress() {
                        std::thread::yield_now();
                    }
                };
                t.set_in_wait(false);
                match res {
                    Ok(()) => Ok(run.into_result()),
                    Err(e) => {
                        run.abort(t);
                        Err(e)
                    }
                }
            }
            (Inner::Offload { handle, .. }, LiveCollReq::Offload(h)) => {
                match handle.wait_result(h)? {
                    Completion::Collective(out) => Ok(out.to_vec()),
                    other => panic!("collective completed as {other:?}"),
                }
            }
            _ => panic!("collective request handed to a different LiveComm"),
        }
    }

    fn collective(&mut self, kind: CollKind) -> Result<Vec<u8>, TransportError> {
        let req = self.icollective(kind);
        self.coll_wait(req)
    }

    /// Barrier — a dissemination schedule ([`mpisim::nbc::barrier_rounds`])
    /// in the reserved tag space. Safe to reuse back-to-back: each
    /// instance gets a fresh sequence tag, and per-(source, tag) FIFO
    /// keeps any same-tag reuse ordered.
    pub fn barrier(&mut self) -> Result<(), TransportError> {
        self.collective(CollKind::Barrier).map(|_| ())
    }

    /// Blocking allreduce over raw `dtype` lanes.
    pub fn allreduce(
        &mut self,
        dtype: Dtype,
        op: ReduceOp,
        data: Vec<u8>,
    ) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Allreduce { dtype, op, data })
    }

    /// Blocking f64 sum allreduce.
    pub fn allreduce_f64_sum(&mut self, mine: &[f64]) -> Result<Vec<f64>, TransportError> {
        let bytes: Vec<u8> = mine.iter().flat_map(|x| x.to_le_bytes()).collect();
        let out = self.allreduce(Dtype::F64, ReduceOp::Sum, bytes)?;
        Ok(out
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte lane")))
            .collect())
    }

    /// Blocking reduce to `root` (result meaningful on the root only).
    pub fn reduce(
        &mut self,
        root: usize,
        dtype: Dtype,
        op: ReduceOp,
        data: Vec<u8>,
    ) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Reduce {
            root,
            dtype,
            op,
            data,
        })
    }

    /// Blocking broadcast from `root` (payload on root only).
    pub fn bcast(&mut self, root: usize, payload: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Bcast { root, payload })
    }

    /// Blocking allgather of equal contributions.
    pub fn allgather(&mut self, mine: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Allgather { mine })
    }

    /// Blocking personalized all-to-all of `block`-byte blocks.
    pub fn alltoall(&mut self, input: Vec<u8>, block: usize) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Alltoall { input, block })
    }

    /// Blocking gather of equal blocks to `root`.
    pub fn gather(&mut self, root: usize, mine: Vec<u8>) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Gather { root, mine })
    }

    /// Blocking scatter of `block`-byte blocks from `root`.
    pub fn scatter(
        &mut self,
        root: usize,
        input: Vec<u8>,
        block: usize,
    ) -> Result<Vec<u8>, TransportError> {
        self.collective(CollKind::Scatter { root, input, block })
    }

    /// The per-strategy metrics registries: (command-path registry if the
    /// strategy has an offload thread, transport registry).
    pub fn obs(&self) -> (Option<obs::Registry>, obs::Registry) {
        match &self.inner {
            Inner::Direct { t, .. } => (None, t.obs_registry()),
            Inner::Offload { handle, .. } => {
                (Some(handle.obs().clone()), handle.transport_obs().clone())
            }
        }
    }

    /// Tear down the strategy and hand the transport back, so one process
    /// can run several approaches sequentially over the same mesh. Every
    /// collective must have been waited first — an abandoned schedule
    /// would leave posted receives on the reclaimed transport.
    pub fn finalize(self) -> T {
        debug_assert!(
            self.direct_nbcs.iter().all(Option::is_none),
            "finalize with an unwaited collective in flight"
        );
        match self.inner {
            Inner::Direct { t, .. } => t,
            Inner::Offload { world, .. } => world.finalize_reclaim(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring exchange + barrier under one strategy; returns the reclaimed
    /// transport for the next strategy.
    fn ring_round<T: Transport>(approach: LiveApproach, t: T, payload_len: usize) -> T {
        let mut comm = LiveComm::start(approach, t);
        let (r, n) = (comm.rank(), comm.size());
        let payload: Arc<[u8]> = (0..payload_len).map(|i| (i as u8) ^ (r as u8)).collect();
        let s = comm.isend((r + 1) % n, 9, payload);
        let rx = comm.irecv(Some((r + n - 1) % n), Some(9));
        // A compute phase that hints (a no-op except under iprobe).
        for _ in 0..64 {
            comm.progress_hint();
            std::thread::yield_now();
        }
        let (st, data) = comm.wait(rx).expect("recv ok").expect("payload");
        assert_eq!(st.source, (r + n - 1) % n);
        assert_eq!(data.len(), payload_len);
        let left = (r + n - 1) % n;
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(b, (i as u8) ^ (left as u8));
        }
        comm.wait(s).expect("send ok");
        comm.barrier().expect("barrier ok");
        comm.finalize()
    }

    fn all_approaches_sequentially<T, F>(make: F, payload_len: usize)
    where
        T: Transport,
        F: Fn() -> Vec<T>,
    {
        let world = make();
        let handles: Vec<_> = world
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let mut t = t;
                    // All three strategies back-to-back over the same
                    // transport: finalize must leave it reusable.
                    for a in LiveApproach::ALL {
                        t = ring_round(a, t, payload_len);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread ok");
        }
    }

    #[test]
    fn approaches_over_wire_loopback_four_ranks() {
        all_approaches_sequentially(|| wire::loopback(4), 1024);
    }

    /// The full collective surface under one strategy; every result is
    /// exactly checkable. Returns the reclaimed transport.
    fn collective_round<T: Transport>(approach: LiveApproach, t: T) -> T {
        let mut comm = LiveComm::start(approach, t);
        let (r, n) = (comm.rank(), comm.size());

        // Small allreduce (recursive doubling / reduce+bcast path).
        let sum = comm.allreduce_f64_sum(&[r as f64, 1.0]).expect("allreduce");
        let total: f64 = (0..n).map(|x| x as f64).sum();
        assert_eq!(sum, vec![total, n as f64]);

        // Large allreduce: Rabenseifner on power-of-two worlds.
        let lanes = 4096; // 32 KiB of f64
        let mine: Vec<f64> = (0..lanes).map(|l| (r + l) as f64).collect();
        let big = comm.allreduce_f64_sum(&mine).expect("rsag allreduce");
        for (l, &v) in big.iter().enumerate() {
            let expect: f64 = (0..n).map(|x| (x + l) as f64).sum();
            assert_eq!(v, expect, "lane {l}");
        }

        // Bcast from a non-zero root.
        let root = n - 1;
        let payload = if r == root {
            vec![9u8, 8, 7]
        } else {
            Vec::new()
        };
        assert_eq!(comm.bcast(root, payload).expect("bcast"), vec![9, 8, 7]);

        // Reduce to root 0 (meaningful there only).
        let mine: Vec<u8> = [r as f64].iter().flat_map(|x| x.to_le_bytes()).collect();
        let red = comm
            .reduce(0, Dtype::F64, ReduceOp::Sum, mine)
            .expect("reduce");
        if r == 0 {
            assert_eq!(f64::from_le_bytes(red[..8].try_into().unwrap()), total);
        }

        // Allgather + alltoall + gather + scatter with rank-tagged blocks.
        let g = comm.allgather(vec![r as u8; 2]).expect("allgather");
        let expect: Vec<u8> = (0..n).flat_map(|x| [x as u8; 2]).collect();
        assert_eq!(g, expect);

        let input: Vec<u8> = (0..n).map(|d| (r * n + d) as u8).collect();
        let a2a = comm.alltoall(input, 1).expect("alltoall");
        let expect: Vec<u8> = (0..n).map(|s| (s * n + r) as u8).collect();
        assert_eq!(a2a, expect);

        let gat = comm.gather(1, vec![r as u8]).expect("gather");
        if r == 1 {
            assert_eq!(gat, (0..n).map(|x| x as u8).collect::<Vec<_>>());
        }

        let input = if r == 0 {
            (0..n as u8).map(|i| 100 + i).collect()
        } else {
            Vec::new()
        };
        let sc = comm.scatter(0, input, 1).expect("scatter");
        assert_eq!(sc, vec![100 + r as u8]);

        comm.barrier().expect("barrier");
        comm.finalize()
    }

    fn collectives_under_all_approaches<T, F>(make: F)
    where
        T: Transport,
        F: Fn() -> Vec<T>,
    {
        let world = make();
        let handles: Vec<_> = world
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let mut t = t;
                    for a in LiveApproach::ALL {
                        t = collective_round(a, t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread ok");
        }
    }

    #[test]
    fn collectives_over_wire_loopback() {
        collectives_under_all_approaches(|| wire::loopback(4));
    }

    /// Collectives on a non-power-of-two world take the reduce+bcast
    /// allreduce fallback and the general binomial trees.
    #[test]
    fn collectives_over_three_ranks() {
        collectives_under_all_approaches(|| wire::loopback(3));
    }

    /// Nonblocking collective with compute between post and wait — the
    /// fig-3/5 shape — under every strategy, overlapping two schedules.
    #[test]
    fn icollective_overlaps_with_compute_and_pipelines() {
        let world = wire::loopback(2);
        let handles: Vec<_> = world
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let mut t = t;
                    for a in LiveApproach::ALL {
                        let mut comm = LiveComm::start(a, t);
                        let r = comm.rank();
                        let h1 = comm.icollective(CollKind::Allreduce {
                            dtype: Dtype::F64,
                            op: ReduceOp::Sum,
                            data: (r as f64).to_le_bytes().to_vec(),
                        });
                        let h2 = comm.icollective(CollKind::Allgather {
                            mine: vec![r as u8],
                        });
                        for _ in 0..64 {
                            comm.progress_hint();
                            std::thread::yield_now();
                        }
                        let sum = comm.coll_wait(h1).expect("allreduce");
                        assert_eq!(f64::from_le_bytes(sum[..8].try_into().unwrap()), 1.0);
                        assert_eq!(comm.coll_wait(h2).expect("allgather"), vec![0, 1]);
                        t = comm.finalize();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread ok");
        }
    }

    /// A malformed kind panics on the caller under every strategy (under
    /// offload, before it reaches the offload thread) and before it takes
    /// a sequence number: the rank's next collective still matches its
    /// peers'.
    #[test]
    fn malformed_collective_panics_on_the_caller() {
        let handles: Vec<_> = wire::loopback(2)
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let mut t = t;
                    for a in LiveApproach::ALL {
                        let mut comm = LiveComm::start(a, t);
                        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            comm.icollective(CollKind::Alltoall {
                                input: vec![0; 3],
                                block: 2,
                            })
                        }));
                        let Err(msg) = bad else {
                            panic!("{}: malformed alltoall accepted", a.name());
                        };
                        let msg = msg.downcast_ref::<String>().expect("formatted panic");
                        assert!(msg.contains("alltoall input"), "{}: {msg}", a.name());
                        let sum = comm.allreduce_f64_sum(&[1.0]).expect("allreduce");
                        assert_eq!(sum, vec![2.0], "{}", a.name());
                        t = comm.finalize();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread ok");
        }
    }

    /// The wildcard tag-leak regression (ISSUE 7): an `ANY_SOURCE`/`ANY_TAG`
    /// receive posted *before* a barrier must not steal barrier tokens or
    /// collective rounds — it completes with the app message sent after
    /// the barrier, under every strategy and at 2 and 4 ranks.
    fn wildcard_recv_survives_barrier<T: Transport>(world: Vec<T>) {
        let n = world.len();
        let handles: Vec<_> = world
            .into_iter()
            .map(|t| {
                std::thread::spawn(move || {
                    let mut t = t;
                    for a in LiveApproach::ALL {
                        let mut comm = LiveComm::start(a, t);
                        let r = comm.rank();
                        // Rank 0 posts the wildcard recv first...
                        let rx = (r == 0).then(|| comm.irecv(None, None));
                        // ...then everyone runs collectives whose rounds all
                        // travel through rank 0's matching queue.
                        comm.barrier().expect("barrier");
                        let g = comm.allgather(vec![r as u8]).expect("allgather");
                        assert_eq!(g, (0..n as u8).collect::<Vec<_>>());
                        comm.barrier().expect("barrier 2");
                        // Only now does the app message appear.
                        if r == 1 {
                            comm.send(0, 42, Arc::from(vec![0xEE])).expect("send");
                        }
                        if let Some(rx) = rx {
                            let (st, data) = comm.wait(rx).expect("recv ok").expect("payload");
                            assert_eq!(st.source, 1, "wildcard matched internal traffic");
                            assert_eq!(st.tag, 42, "wildcard stole a reserved tag");
                            assert_eq!(data.to_vec(), vec![0xEE]);
                        }
                        comm.barrier().expect("exit barrier");
                        t = comm.finalize();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("rank thread ok");
        }
    }

    #[test]
    fn wildcard_recv_during_barrier_wire_loopback() {
        wildcard_recv_survives_barrier(wire::loopback(2));
        wildcard_recv_survives_barrier(wire::loopback(4));
    }

    #[test]
    fn approaches_over_wire_loopback_eager() {
        all_approaches_sequentially(|| wire::loopback(3), 512);
    }

    #[test]
    fn approaches_over_wire_loopback_rendezvous() {
        // Above the default eager crossover: the full RTS→CTS→DATA path
        // under every strategy.
        all_approaches_sequentially(|| wire::loopback(2), 64 * 1024);
    }

    /// The attribution story the harness panel relies on: under baseline
    /// the wire backend completes rendezvous handshakes at-wait; under
    /// offload it completes them asynchronously.
    #[test]
    #[cfg(feature = "obs-enabled")]
    fn wire_handshake_attribution_differs_by_approach() {
        for (approach, at_wait_expected) in [
            (LiveApproach::Baseline, true),
            (LiveApproach::Offload, false),
        ] {
            let world = wire::loopback(2);
            let handles: Vec<_> = world
                .into_iter()
                .map(|t| {
                    std::thread::spawn(move || {
                        let mut comm = LiveComm::start(approach, t);
                        let (r, n) = (comm.rank(), comm.size());
                        let big: Arc<[u8]> = Arc::from(vec![7u8; 64 * 1024]);
                        let s = comm.isend((r + 1) % n, 3, big);
                        let rx = comm.irecv(Some((r + 1) % n), Some(3));
                        if approach == LiveApproach::Offload {
                            // Give the offload thread time to run the
                            // handshake while the app "computes".
                            std::thread::sleep(std::time::Duration::from_millis(100));
                        }
                        comm.wait(rx).expect("recv ok");
                        comm.wait(s).expect("send ok");
                        let snap = comm.obs().1.snapshot();
                        (
                            snap.counter("wire.rndv_handshake_at_wait"),
                            snap.counter("wire.rndv_handshake_async"),
                        )
                    })
                })
                .collect();
            let (mut at_wait, mut async_) = (0, 0);
            for h in handles {
                let (w, a) = h.join().expect("rank thread ok");
                at_wait += w;
                async_ += a;
            }
            assert_eq!(at_wait + async_, 2, "one handshake per rank");
            if at_wait_expected {
                assert_eq!(async_, 0, "baseline never progresses outside wait");
            } else {
                assert_eq!(at_wait, 0, "offload never blocks the app in wait");
            }
        }
    }
}
