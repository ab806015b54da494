//! Property tests for the discrete-event kernel: dispatch order, clock
//! monotonicity, and RNG stream independence.

use cwc_sim::{Distributions, RngStreams, Simulation};
use cwc_types::Micros;
use proptest::prelude::*;

proptest! {
    #[test]
    fn dispatch_order_is_total_and_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut sim = Simulation::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(Micros(t), i);
        }
        let mut fired: Vec<(Micros, usize)> = Vec::new();
        sim.run(|s, id| fired.push((s.now(), id)));
        prop_assert_eq!(fired.len(), times.len());
        // Clock is monotone and, at equal times, FIFO by schedule order.
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at equal times");
            }
        }
        // Every event fires exactly at its scheduled time.
        for (at, id) in fired {
            prop_assert_eq!(at, Micros(times[id]));
        }
    }

    #[test]
    fn run_until_partitions_the_event_set(
        times in proptest::collection::vec(1u64..1_000, 1..100),
        split in 1u64..1_000,
    ) {
        let mut sim = Simulation::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(Micros(t), i);
        }
        let mut early = Vec::new();
        sim.run_until(Micros(split), |_, id| early.push(id));
        let mut late = Vec::new();
        sim.run(|_, id| late.push(id));
        prop_assert_eq!(early.len() + late.len(), times.len());
        for id in early {
            prop_assert!(times[id] <= split);
        }
        for id in late {
            prop_assert!(times[id] > split);
        }
    }

    #[test]
    fn rng_streams_reproduce_and_differ(seed in any::<u64>(), a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        let streams = RngStreams::new(seed);
        let xs: Vec<u64> = (0..4).map(|_| 0).scan(streams.stream(&a), |r, _| Some(r.next_u64())).collect();
        let ys: Vec<u64> = (0..4).map(|_| 0).scan(streams.stream(&a), |r, _| Some(r.next_u64())).collect();
        prop_assert_eq!(&xs, &ys, "same label must reproduce");
        if a != b {
            let zs: Vec<u64> = (0..4).map(|_| 0).scan(streams.stream(&b), |r, _| Some(r.next_u64())).collect();
            prop_assert_ne!(xs, zs, "different labels must differ");
        }
    }
}
