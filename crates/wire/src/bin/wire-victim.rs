//! Test fixture for `offload-run`: a tiny wire rank program with two
//! modes, selected by `WIRE_VICTIM_MODE`.
//!
//! * `ok` (default): ring exchange — every rank sends a rendezvous-sized
//!   payload to its right neighbour and receives from its left, verifies
//!   it, prints `rank N ok`, exits 0.
//! * `kill`: rank 1 flushes a rendezvous RTS towards rank 0 and then
//!   SIGKILLs itself mid-handshake. Rank 0 must observe `PeerLost` within
//!   the configured timeout (prints `peer lost detected: rank 1`, exits
//!   0); if it would hang or sees anything else it exits 1. This is the
//!   robustness case: an abrupt peer death fails dependent operations
//!   loudly instead of wedging the job.
//! * `kill-allreduce`: the `kill` scenario lifted to the collective path.
//!   Every rank but 1 enters an allreduce (driven round-by-round through
//!   `mpisim::nbc::NbcRun` over the wire transport) whose schedule needs rank 1;
//!   rank 1 bootstraps, lingers until its peers are mid-schedule, and
//!   SIGKILLs itself without ever joining. Survivors must see `PeerLost`
//!   surface on the collective itself (prints `peer lost detected in
//!   allreduce: rank 1`, exits 0) — never a hang or a panic.
//! * `stall`: every rank but 0 posts a receive rank 0 will never answer
//!   and polls progress long enough for the stall watchdog (armed by the
//!   launcher via `WIRE_STALL_MS`) to fire, then cancels and exits 0 —
//!   the job succeeds but the launcher must flag the ranks as stragglers
//!   with their last snapshot attached.

use std::sync::Arc;
use std::time::Instant;

use rtmpi::{OpOutcome, Transport, TransportError};

fn main() {
    let mut comm = match wire::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wire-victim: bootstrap failed: {e}");
            std::process::exit(2);
        }
    };
    let mode = std::env::var("WIRE_VICTIM_MODE").unwrap_or_else(|_| "ok".into());
    match mode.as_str() {
        "kill" => kill_mode(&mut comm),
        "kill-allreduce" => kill_allreduce_mode(&mut comm),
        "stall" => stall_mode(&mut comm),
        // Exercise the launcher's timeout kill: bootstrap, then wedge.
        "hang" => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
        _ => ok_mode(&mut comm),
    }
}

/// Drive progress until the request resolves or the transport's own
/// timeout passes.
fn wait_op(comm: &mut wire::WireComm, req: &wire::WireReq) -> Result<OpOutcome, TransportError> {
    let limit = comm.op_timeout().expect("wire has a timeout");
    let deadline = Instant::now() + limit;
    loop {
        comm.progress();
        if let Some(out) = comm.try_take(req) {
            return out;
        }
        if Instant::now() >= deadline {
            return Err(TransportError::Timeout {
                waited_ms: limit.as_millis() as u64,
            });
        }
        std::thread::yield_now();
    }
}

fn ok_mode(comm: &mut wire::WireComm) {
    let (r, n) = (comm.rank(), comm.size());
    let len = comm.eager_max() * 4 + 1; // force the rendezvous path
    let payload: Vec<u8> = (0..len).map(|i| (i as u8) ^ (r as u8)).collect();
    let s = comm.isend((r + 1) % n, 1, Arc::from(payload));
    let rx = comm.irecv(Some((r + n - 1) % n), Some(1));
    let got = match wait_op(comm, &rx) {
        Ok(OpOutcome::Received(st, d)) => {
            assert_eq!(st.len, len);
            d
        }
        other => {
            eprintln!("rank {r}: recv failed: {other:?}");
            std::process::exit(1);
        }
    };
    let left = (r + n - 1) % n;
    for (i, &b) in got.iter().enumerate() {
        assert_eq!(b, (i as u8) ^ (left as u8), "payload corrupted at {i}");
    }
    match wait_op(comm, &s) {
        Ok(OpOutcome::Sent) => {}
        other => {
            eprintln!("rank {r}: send failed: {other:?}");
            std::process::exit(1);
        }
    }
    println!("rank {r} ok");
}

fn kill_mode(comm: &mut wire::WireComm) {
    let r = comm.rank();
    assert!(comm.size() >= 2, "kill mode needs at least 2 ranks");
    match r {
        1 => {
            // Start a rendezvous, flush the RTS, then die abruptly.
            let _s = comm.isend(0, 7, Arc::from(vec![0xabu8; 1 << 20]));
            for _ in 0..50 {
                comm.progress();
            }
            let me = std::process::id();
            let _ = std::process::Command::new("sh")
                .arg("-c")
                .arg(format!("kill -9 {me}"))
                .status();
            // If the shell was unavailable, die abruptly anyway.
            std::process::abort();
        }
        0 => {
            // Let the victim die first so the RTS (if it arrived at all)
            // can never complete.
            std::thread::sleep(std::time::Duration::from_millis(300));
            let rx = comm.irecv(Some(1), Some(7));
            match wait_op(comm, &rx) {
                Err(TransportError::PeerLost { peer }) => {
                    println!("peer lost detected: rank {peer}");
                }
                other => {
                    eprintln!("rank 0: expected PeerLost, got {other:?}");
                    std::process::exit(1);
                }
            }
        }
        _ => {} // bystander ranks just exit
    }
}

fn kill_allreduce_mode(comm: &mut wire::WireComm) {
    use mpisim::nbc::{CollKind, NbcRun};
    use mpisim::types::{Dtype, ReduceOp};
    let r = comm.rank();
    assert!(comm.size() >= 2, "kill-allreduce needs at least 2 ranks");
    if r == 1 {
        // Let the survivors get well inside the schedule (their first
        // round posts a rendezvous towards us that can never advance),
        // then die abruptly without ever joining the collective.
        std::thread::sleep(std::time::Duration::from_millis(300));
        let me = std::process::id();
        let _ = std::process::Command::new("sh")
            .arg("-c")
            .arg(format!("kill -9 {me}"))
            .status();
        std::process::abort();
    }
    // Rendezvous-sized lanes: every round is a real RTS/CTS/DATA exchange.
    let lanes: Vec<u8> = (0..4096u64)
        .flat_map(|i| (i as f64).to_le_bytes())
        .collect();
    let mut run = NbcRun::start(
        comm,
        rtmpi::TAG_COLL_BASE,
        CollKind::Allreduce {
            dtype: Dtype::F64,
            op: ReduceOp::Sum,
            data: lanes,
        },
    );
    let limit = comm.op_timeout().expect("wire has a timeout");
    let deadline = Instant::now() + limit;
    loop {
        comm.progress();
        match run.poll(comm) {
            Ok(false) => {}
            Ok(true) => {
                eprintln!("rank {r}: allreduce completed without rank 1?");
                std::process::exit(1);
            }
            Err(TransportError::PeerLost { peer }) => {
                println!("peer lost detected in allreduce: rank {peer}");
                run.abort(comm);
                return;
            }
            Err(other) => {
                eprintln!("rank {r}: expected PeerLost from allreduce, got {other:?}");
                std::process::exit(1);
            }
        }
        if Instant::now() >= deadline {
            eprintln!("rank {r}: allreduce hung waiting for PeerLost");
            std::process::exit(1);
        }
        std::thread::yield_now();
    }
}

fn stall_mode(comm: &mut wire::WireComm) {
    let r = comm.rank();
    let poll_for = std::time::Duration::from_millis(600);
    if r == 0 {
        // Stay connected (no EOF for the others) but never send, so their
        // receives genuinely cannot advance; outlive their poll window.
        std::thread::sleep(poll_for + std::time::Duration::from_millis(300));
        return;
    }
    let rx = comm.irecv(Some(0), Some(42));
    let deadline = Instant::now() + poll_for;
    while Instant::now() < deadline {
        comm.progress();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    comm.cancel(&rx);
    println!("rank {r} stalled on purpose");
}
