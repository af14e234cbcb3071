//! Quickstart: the offload infrastructure on **real OS threads**.
//!
//! Spawns a 4-rank in-process world (a wire loopback mesh running the real
//! eager/rendezvous protocol), each rank with its dedicated offload thread
//! servicing the lock-free command queue, and demonstrates the paper's key
//! properties:
//!
//! 1. nonblocking calls return a request handle immediately (constant-cost
//!    posting — one pool slot + one queue push);
//! 2. `MPI_Test` is a single done-flag check;
//! 3. blocking collectives execute as nonblocking schedules inside the
//!    offload thread;
//! 4. multiple application threads of one rank issue MPI calls
//!    concurrently with no MPI-level locking (`MPI_THREAD_MULTIPLE` for
//!    free).
//!
//! Run: `cargo run --release --example quickstart`

use offload::{offload_world, Completion};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

fn main() {
    const RANKS: usize = 4;
    println!("== offload quickstart: {RANKS} ranks, one offload thread each ==\n");
    let ranks = offload_world(RANKS);
    let handles: Vec<_> = ranks.iter().map(|r| r.handle()).collect();

    // --- 1. ring exchange with nonblocking calls -------------------------
    let workers: Vec<_> = handles
        .iter()
        .cloned()
        .map(|h| {
            thread::spawn(move || {
                let me = h.rank();
                let right = (me + 1) % h.size();
                let left = (me + h.size() - 1) % h.size();
                let rx = h.irecv(Some(left), Some(1));
                // Built outside the timed region: only the isend is timed.
                let payload: Arc<[u8]> = Arc::from(vec![me as u8; 1 << 20]);
                let t0 = Instant::now();
                let tx = h.isend(right, 1, payload);
                let post = t0.elapsed();
                // The 1 MiB isend returned without copying or blocking:
                let sent = h.wait(tx);
                assert!(matches!(sent, Completion::Sent));
                let (st, data) = match h.wait(rx) {
                    Completion::Received(st, d) => (st, d),
                    other => panic!("unexpected completion {other:?}"),
                };
                assert_eq!(st.source, left);
                assert!(data.iter().all(|&b| b == left as u8));
                (me, post)
            })
        })
        .collect();
    for w in workers {
        let (me, post) = w.join().expect("worker");
        println!("rank {me}: 1 MiB isend posted in {post:?} (size-independent)");
    }

    // --- 2. offloaded collectives ----------------------------------------
    let workers: Vec<_> = handles
        .iter()
        .cloned()
        .map(|h| {
            thread::spawn(move || {
                let sum = h.allreduce_f64_sum(&[h.rank() as f64, 1.0]);
                h.barrier();
                let gathered = h.allgather(vec![h.rank() as u8]);
                (h.rank(), sum, gathered)
            })
        })
        .collect();
    for w in workers {
        let (me, sum, gathered) = w.join().expect("worker");
        assert_eq!(sum, vec![6.0, 4.0]); // 0+1+2+3, 4×1
        assert_eq!(gathered, vec![0, 1, 2, 3]);
        if me == 0 {
            println!("\nallreduce(ranks) = {sum:?}, allgather = {gathered:?}");
        }
    }

    // --- 3. THREAD_MULTIPLE: many app threads, one rank -------------------
    let h0 = handles[0].clone();
    let h1 = handles[1].clone();
    let senders: Vec<_> = (0..4u32)
        .map(|t| {
            let h = h0.clone();
            thread::spawn(move || {
                for i in 0..100 {
                    h.send(1, t, Arc::from(vec![(i % 256) as u8]));
                }
            })
        })
        .collect();
    let recv_thread = thread::spawn(move || {
        let mut n = 0;
        for _ in 0..400 {
            let _ = h1.recv(Some(0), None);
            n += 1;
        }
        n
    });
    for s in senders {
        s.join().expect("sender");
    }
    let got = recv_thread.join().expect("receiver");
    println!(
        "\n4 concurrent app threads sent 400 messages through one offload thread: received {got}"
    );

    for r in ranks {
        r.finalize();
    }
    println!("\nall offload threads drained and joined — done.");
}
