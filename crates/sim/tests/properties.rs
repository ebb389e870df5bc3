//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use tempriv_sim::queue::EventQueue;
use tempriv_sim::rng::{splitmix64, RngFactory};
use tempriv_sim::stats::{MseAccumulator, OnlineStats, TimeWeighted};
use tempriv_sim::time::{SimDuration, SimTime};

proptest! {
    /// Popping always yields events in non-decreasing time order, with
    /// insertion order breaking ties, no matter the push sequence.
    #[test]
    fn queue_pops_in_total_order(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ticks(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t > lt || (t == lt && idx > lidx),
                    "order violated: ({lt:?},{lidx}) then ({t:?},{idx})");
            }
            last = Some((t, idx));
        }
    }

    /// The packed `(ticks << 64) | seq` heap key orders instants at the
    /// far end of the clock exactly like small ones: times mixing
    /// `0..1000` with `u64::MAX - 2^16..=u64::MAX` still pop in
    /// `(time, insertion)` order.
    #[test]
    fn queue_pops_in_total_order_at_extreme_times(
        times in prop::collection::vec(
            prop_oneof![0u64..1_000, (0u64..(1 << 16) + 1).prop_map(|d| u64::MAX - d)],
            1..200,
        ),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ticks(t), i);
        }
        let mut expect: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expect.sort_unstable();
        let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, i)| (t.ticks(), i))
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// Cancel removes exactly the requested events: the survivors pop,
    /// the cancelled never do, and counts add up.
    #[test]
    fn queue_cancellation_is_exact(
        times in prop::collection::vec(0u64..1_000, 1..150),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..150),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(SimTime::from_ticks(t), i))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for (id, &kill) in ids.iter().zip(&cancel_mask) {
            if kill {
                prop_assert!(q.cancel(*id));
                cancelled.insert(*id);
            }
        }
        prop_assert_eq!(q.len(), times.len() - cancelled.len());
        let mut popped = 0usize;
        while q.pop_with_id().is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, times.len() - cancelled.len());
    }

    /// SimTime arithmetic is associative/consistent within u64 range.
    #[test]
    fn time_arithmetic_round_trips(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40) {
        let t = SimTime::from_ticks(a);
        let d = SimDuration::from_ticks(b);
        let later = t + d;
        prop_assert_eq!(later - t, d);
        prop_assert_eq!(later - d, t);
        prop_assert!(later >= t);
        prop_assert_eq!(later.checked_duration_since(t), Some(d));
    }

    /// Welford merge is order-independent and matches the naive moments.
    #[test]
    fn welford_matches_naive(
        xs in prop::collection::vec(-1e6f64..1e6, 1..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.record(x);
        }
        for &x in &xs[split..] {
            b.record(x);
        }
        a.merge(&b);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((whole.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((a.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((whole.population_variance() - var).abs() < 1e-4 * (1.0 + var));
        prop_assert!((a.population_variance() - var).abs() < 1e-4 * (1.0 + var));
    }

    /// MSE decomposes as bias^2 + variance for any error sequence.
    #[test]
    fn mse_bias_variance_decomposition(errs in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut acc = MseAccumulator::new();
        for &e in &errs {
            acc.record_error(e);
        }
        let decomposed = acc.bias().powi(2) + acc.error_variance();
        prop_assert!((acc.mse() - decomposed).abs() < 1e-6 * (1.0 + acc.mse()));
    }

    /// Time-weighted average always lies within [min, max] of the values.
    #[test]
    fn time_weighted_average_is_bounded(
        steps in prop::collection::vec((1u64..1_000, -100f64..100.0), 1..50),
    ) {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut now = SimTime::ZERO;
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for &(dt, v) in &steps {
            now += SimDuration::from_ticks(dt);
            tw.update(now, v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let end = now + SimDuration::from_ticks(1);
        let avg = tw.average(end);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {avg} not in [{lo}, {hi}]");
    }

    /// Identical (seed, stream) pairs agree; different streams diverge
    /// within a few draws (statistically certain at this scale).
    #[test]
    fn rng_streams_deterministic(seed in any::<u64>(), stream in 0u64..1_000) {
        use rand::RngCore;
        let f = RngFactory::new(seed);
        let a: Vec<u64> = { let mut r = f.stream(stream); (0..4).map(|_| r.next_u64()).collect() };
        let b: Vec<u64> = { let mut r = f.stream(stream); (0..4).map(|_| r.next_u64()).collect() };
        prop_assert_eq!(&a, &b);
        let c: Vec<u64> = {
            let mut r = f.stream(stream.wrapping_add(1));
            (0..4).map(|_| r.next_u64()).collect()
        };
        prop_assert_ne!(a, c);
    }

    /// splitmix64 behaves injectively on small dense ranges (no collisions
    /// among consecutive inputs — a weak but useful sanity property).
    #[test]
    fn splitmix_no_small_range_collisions(base in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            prop_assert!(seen.insert(splitmix64(base.wrapping_add(i))));
        }
    }

    /// The slab-indexed queue agrees with a naive sort-based reference
    /// model under arbitrary interleavings of push, cancel, pop, and
    /// pending-ness queries: identical pop sequences, identical cancel
    /// return values, identical lengths at every step.
    #[test]
    fn queue_matches_reference_model(
        ops in prop::collection::vec((0u8..8, 0u64..400), 1..250),
    ) {
        // Reference: slot i holds Some(time) while the i-th pushed event
        // is still pending; pop takes the minimum (time, slot) pair.
        fn model_pop(model: &mut [Option<SimTime>]) -> Option<(SimTime, usize)> {
            let best = model
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.map(|t| (t, i)))
                .min()?;
            model[best.1] = None;
            Some(best)
        }

        let mut q = EventQueue::new();
        let mut pushed = Vec::new();
        let mut model: Vec<Option<SimTime>> = Vec::new();
        for &(op, x) in &ops {
            match op {
                0..=3 => {
                    let t = SimTime::from_ticks(x);
                    pushed.push(q.push(t, model.len()));
                    model.push(Some(t));
                }
                4 | 5 if !pushed.is_empty() => {
                    let i = (x as usize) % pushed.len();
                    prop_assert_eq!(q.cancel(pushed[i]), model[i].is_some());
                    model[i] = None;
                }
                6 if !pushed.is_empty() => {
                    let i = (x as usize) % pushed.len();
                    prop_assert_eq!(q.is_pending(pushed[i]), model[i].is_some());
                }
                _ => {
                    prop_assert_eq!(q.pop(), model_pop(&mut model));
                }
            }
            prop_assert_eq!(q.len(), model.iter().flatten().count());
        }
        // Drain: the remaining pop sequence must match the reference.
        loop {
            let got = q.pop();
            prop_assert_eq!(got, model_pop(&mut model));
            if got.is_none() {
                break;
            }
        }
    }
}
