//! Host-speed reference. CPU time excludes steal but not the slowdown a
//! shared host imposes while its other tenants load the same cores and
//! caches: on the 2-vCPU box this benchmark was built on, the CPU time of
//! identical field runs moved by 10 to 23% (quartile spread) between
//! 30-second windows, and cache-resident and memory-bound work moved
//! together. A fixed kernel timed beside the workload moves with them,
//! so the gated timing is the workload's CPU time scaled by the kernel's
//! nominal time over its time measured around the same chunk of work.
//!
//! The kernel is a dependent-load walk around one random cycle of 2048
//! cache lines (128 KiB, resident in L2). It is part of the benchmark,
//! not of the program, so no change to the program moves it — except a
//! change that leaves threads busy between operations, which would slow
//! it; `reference_ms` prints beside the metric so that shows.

use crate::cpu::thread_cpu_s;

/// Cache lines in the cycle.
const LINES: usize = 2048;
/// `u32` slots per 64-byte cache line.
const STRIDE: usize = 16;
/// Loads per sample.
const STEPS: usize = 400_000;
/// Samples per measurement; their median is the measurement.
const SAMPLES: usize = 3;

/// Milliseconds of thread CPU one measurement took on the machine the
/// benchmark was calibrated on (see `perfbench/README.md`); normalised
/// times are CPU times at this speed.
pub const NOMINAL_MS: f64 = 2.5;

/// The reference kernel and its table.
pub struct Reference {
    next: Vec<u32>,
}

impl Reference {
    /// Builds the cycle (Sattolo's algorithm, fixed seed: the same table
    /// in every run).
    #[must_use]
    pub fn new() -> Reference {
        let mut order: Vec<usize> = (0..LINES).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..LINES).rev() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = usize::try_from(x >> 33).expect("31-bit value fits usize") % i;
            order.swap(i, j);
        }
        // Sattolo's shuffle leaves `order` one cycle: line i links to order[i].
        let mut next = vec![0u32; LINES * STRIDE];
        for (line, &to) in order.iter().enumerate() {
            next[line * STRIDE] = u32::try_from(to * STRIDE).expect("table index fits u32");
        }
        Reference { next }
    }

    /// Thread-CPU milliseconds of one walk of [`STEPS`] loads (median of
    /// [`SAMPLES`]).
    #[must_use]
    pub fn measure_ms(&self) -> f64 {
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let t = thread_cpu_s();
                let mut at = 0u32;
                for _ in 0..STEPS {
                    at = self.next[at as usize];
                }
                std::hint::black_box(at);
                (thread_cpu_s() - t) * 1e3
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[SAMPLES / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_visits_every_line_once_per_cycle() {
        let r = Reference::new();
        let mut seen = vec![false; LINES];
        let mut at = 0usize;
        for _ in 0..LINES {
            assert!(!seen[at / STRIDE], "line {} revisited early", at / STRIDE);
            seen[at / STRIDE] = true;
            at = r.next[at] as usize;
        }
        assert_eq!(at, 0, "the walk returns to its start after {LINES} loads");
    }

    #[test]
    fn measurement_is_positive_and_finite() {
        let ms = Reference::new().measure_ms();
        assert!(ms.is_finite() && ms > 0.0, "{ms}");
    }
}
