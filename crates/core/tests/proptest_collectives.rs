//! Property test of the live offload collectives: for arbitrary world
//! sizes, payload shapes and roots, `allreduce_f64_sum` and `bcast` issued
//! through `offload_world` handles compute the exact result on every rank.

use proptest::prelude::*;
use std::thread;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn collectives_hold_for_arbitrary_shapes(p in 2usize..6, lanes in 1usize..6, root_sel in any::<u8>()) {
        let root = root_sel as usize % p;
        let ranks = offload::offload_world(p);
        let workers: Vec<_> = ranks
            .iter()
            .map(|r| {
                let h = r.handle();
                thread::spawn(move || {
                    let me = h.rank();
                    let mine: Vec<f64> = (0..lanes).map(|l| (me * 10 + l) as f64).collect();
                    let sum = h.allreduce_f64_sum(&mine);
                    let payload = if me == root { vec![root as u8; 3] } else { Vec::new() };
                    (sum, h.bcast(root, payload))
                })
            })
            .collect();
        let outs: Vec<_> = workers.into_iter().map(|w| w.join().expect("rank")).collect();
        for r in ranks {
            r.finalize();
        }
        for (sum, bc) in outs {
            prop_assert_eq!(sum.len(), lanes);
            for (l, &v) in sum.iter().enumerate() {
                let expect: f64 = (0..p).map(|r| (r * 10 + l) as f64).sum();
                prop_assert!((v - expect).abs() < 1e-9);
            }
            prop_assert_eq!(bc, vec![root as u8; 3]);
        }
    }
}
