//! Property tests of the wire engine's matching over in-process loopback
//! worlds: arbitrary tagged scripts are delivered completely and in
//! per-tag order, and `iprobe` agrees with the receive that follows it.
//! Payload lengths straddle a small eager limit, so both the eager path
//! and the RTS → CTS → DATA rendezvous path are covered. Each rank is
//! owned and polled by its own thread, as under the offload thread.

use proptest::prelude::*;
use rtmpi::{OpOutcome, Status, Transport};
use std::sync::Arc;
use std::thread;
use wire::{loopback_configured, WireComm, WireConfig, WireReq};

/// Eager/rendezvous crossover for these worlds; lengths are drawn up to
/// three times it.
const EAGER_MAX: usize = 64;

fn pair() -> (WireComm, WireComm) {
    let cfg = WireConfig {
        eager_max: EAGER_MAX,
        ..WireConfig::default()
    };
    let mut world = loopback_configured(2, cfg).into_iter();
    (world.next().expect("rank 0"), world.next().expect("rank 1"))
}

/// Poll `comm` until `req` completes.
fn wait(comm: &mut WireComm, req: &WireReq) -> OpOutcome {
    loop {
        comm.progress();
        if let Some(out) = comm.try_take(req) {
            return out.expect("transport op failed");
        }
        thread::yield_now();
    }
}

fn received(out: OpOutcome) -> (Status, Arc<[u8]>) {
    match out {
        OpOutcome::Received(st, data) => (st, data),
        OpOutcome::Sent => panic!("receive resolved as a send"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rank 0 sends an arbitrary tagged script; rank 1 drains it tag by
    /// tag. Every message arrives exactly once, whole, and in send order
    /// within its tag.
    #[test]
    fn tagged_script_is_delivered_in_per_tag_order(
        tags in prop::collection::vec(0u32..4, 1..40),
        lens in prop::collection::vec(2usize..3 * EAGER_MAX, 1..8),
    ) {
        let (mut tx, mut rx) = pair();
        let script: Vec<(u32, usize)> = tags
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, lens[i % lens.len()]))
            .collect();
        let sends = script.clone();
        let sender = thread::spawn(move || {
            let reqs: Vec<WireReq> = sends
                .iter()
                .enumerate()
                .map(|(i, &(t, len))| {
                    let mut payload = vec![i as u8; len];
                    payload[1] = t as u8;
                    tx.isend(1, t, Arc::from(payload))
                })
                .collect();
            for req in &reqs {
                assert_eq!(wait(&mut tx, req), OpOutcome::Sent);
            }
            tx
        });
        let mut per_tag: Vec<Vec<u8>> = vec![Vec::new(); 4];
        for t in 0..4u32 {
            let n = script.iter().filter(|&&(x, _)| x == t).count();
            for _ in 0..n {
                let req = rx.irecv(Some(0), Some(t));
                let (st, data) = received(wait(&mut rx, &req));
                prop_assert_eq!(st.tag, t);
                prop_assert_eq!(st.len, data.len());
                let i = data[0] as usize;
                prop_assert_eq!(data.len(), script[i].1);
                prop_assert_eq!(data[1], t as u8);
                prop_assert!(data[2..].iter().all(|&b| b == data[0]));
                per_tag[t as usize].push(data[0]);
            }
        }
        sender.join().expect("sender");
        for (t, seq) in per_tag.iter().enumerate() {
            prop_assert!(
                seq.windows(2).all(|w| w[0] < w[1]),
                "tag {t} out of order: {seq:?}"
            );
        }
        let total: usize = per_tag.iter().map(Vec::len).sum();
        prop_assert_eq!(total, tags.len());
    }

    /// Probe never lies: once a message is visible, `iprobe` reports its
    /// source, tag and full length (a rendezvous RTS carries the length
    /// before the data moves), and the receive that follows consumes
    /// exactly it.
    #[test]
    fn probe_agrees_with_recv(len in 0usize..3 * EAGER_MAX, tag in 0u32..100) {
        let (mut tx, mut rx) = pair();
        let sender = thread::spawn(move || {
            let req = tx.isend(1, tag, Arc::from(vec![7u8; len]));
            assert_eq!(wait(&mut tx, &req), OpOutcome::Sent);
            tx
        });
        let st = loop {
            rx.progress();
            if let Some(st) = rx.iprobe(Some(0), None) {
                break st;
            }
            thread::yield_now();
        };
        prop_assert_eq!(st.source, 0);
        prop_assert_eq!(st.tag, tag);
        prop_assert_eq!(st.len, len);
        prop_assert_eq!(rx.iprobe(Some(0), Some(tag)), Some(st));
        let req = rx.irecv(Some(0), Some(tag));
        let (st2, data) = received(wait(&mut rx, &req));
        prop_assert_eq!(st2, st);
        prop_assert!(data.len() == len && data.iter().all(|&b| b == 7));
        prop_assert!(rx.iprobe(Some(0), None).is_none());
        sender.join().expect("sender");
    }
}
