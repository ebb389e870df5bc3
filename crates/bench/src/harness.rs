//! Interleaved timing harness for `perf_baseline`'s overhead and scale
//! benches.
//!
//! Both benches time several instrumentation modes over the same
//! deterministic workload. Three disciplines keep the numbers honest,
//! and they live here so neither bench can drift its own copy:
//!
//! * **Interleaving** — within each repeat the modes run back-to-back,
//!   so ambient machine load skews all of them equally instead of
//!   biasing whichever mode ran during a busy stretch.
//! * **Best-of-N** — a mode's reported time per point is its minimum
//!   over `repeats`, the standard guard against scheduler noise.
//! * **Paired ratios** — an overhead ratio is the median, over every
//!   (point, repeat), of the two modes' times from that same repeat, so
//!   a busy stretch or one lucky repeat moves a few pairs rather than a
//!   whole mode's minimum.

use std::time::Instant;

use serde::Serialize;

/// Wall-clock seconds for one invocation of `f`.
pub fn time_once<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Times `modes` interleaved over `repeats` rounds and returns every
/// sample, `secs[mode][repeat]`.
pub fn time_interleaved(repeats: u32, modes: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    let mut secs = vec![Vec::with_capacity(repeats as usize); modes.len()];
    for _ in 0..repeats {
        for (secs, mode) in secs.iter_mut().zip(modes.iter_mut()) {
            secs.push(time_once(&mut **mode));
        }
    }
    secs
}

/// The best (minimum) of a mode's samples.
#[must_use]
pub fn min_of(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One instrumentation mode's timings across a sweep, as
/// `BENCH_overhead.json` serializes them.
#[derive(Debug, Serialize)]
pub struct ModeTiming {
    /// Mode name, e.g. `probes_off`, `metrics`, `tracing`.
    pub mode: String,
    /// Best-of-repeats seconds per sweep point, in point order.
    pub point_secs: Vec<f64>,
    /// Sum of the per-point times.
    pub total_secs: f64,
    /// Every sample, `repeat_secs[point][repeat]` — what
    /// [`ModeTiming::paired_ratio`] pairs.
    pub repeat_secs: Vec<Vec<f64>>,
}

impl ModeTiming {
    /// Assembles one mode's timing row from its samples
    /// (`repeat_secs[point][repeat]`) and logs its total to stderr.
    #[must_use]
    pub fn new(name: &str, repeat_secs: Vec<Vec<f64>>) -> ModeTiming {
        let point_secs: Vec<f64> = repeat_secs.iter().map(|secs| min_of(secs)).collect();
        let total_secs: f64 = point_secs.iter().sum();
        eprintln!(
            "[perf] {name}: {total_secs:.3}s over {} points",
            point_secs.len()
        );
        ModeTiming {
            mode: name.to_string(),
            point_secs,
            total_secs,
            repeat_secs,
        }
    }

    /// Median over every (point, repeat) of `self / base` — both modes
    /// timed in the same interleaved repeat.
    #[must_use]
    pub fn paired_ratio(&self, base: &ModeTiming) -> f64 {
        let mut ratios: Vec<f64> = self
            .repeat_secs
            .iter()
            .flatten()
            .zip(base.repeat_secs.iter().flatten())
            .map(|(a, b)| a / b)
            .collect();
        ratios.sort_by(f64::total_cmp);
        match ratios.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => ratios[n / 2],
            n => (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0,
        }
    }
}

/// One probe's cost relative to the shared `probes_off` and `metrics`
/// baselines — a `probes` row of `BENCH_overhead.json`.
#[derive(Debug, Serialize)]
pub struct OverheadSummary {
    /// Mode name of the probe, e.g. `audited`.
    pub probe: String,
    /// Paired ratio `probe / probes_off`.
    pub over_probes_off: f64,
    /// Paired ratio `probe / metrics` — the probe's increment.
    pub over_metrics: f64,
    /// Probe overhead in percent: `(over_metrics - 1) * 100`, the figure
    /// `tempriv report --bench` gates.
    pub overhead_pct: f64,
}

impl OverheadSummary {
    /// Derives the paired ratios from the three mode timings.
    #[must_use]
    pub fn from_modes(
        probes_off: &ModeTiming,
        metrics: &ModeTiming,
        instrumented: &ModeTiming,
    ) -> OverheadSummary {
        let over_metrics = instrumented.paired_ratio(metrics);
        OverheadSummary {
            probe: instrumented.mode.clone(),
            over_probes_off: instrumented.paired_ratio(probes_off),
            over_metrics,
            overhead_pct: (over_metrics - 1.0) * 100.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_interleaved_samples_every_mode_each_repeat() {
        let mut slow_calls = 0u32;
        let mut fast_calls = 0u32;
        let secs = time_interleaved(
            3,
            &mut [
                &mut || {
                    slow_calls += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                },
                &mut || fast_calls += 1,
            ],
        );
        assert_eq!(slow_calls, 3);
        assert_eq!(fast_calls, 3);
        assert_eq!(secs.len(), 2);
        assert!(secs.iter().all(|mode| mode.len() == 3));
        let best: Vec<f64> = secs.iter().map(|mode| min_of(mode)).collect();
        assert!(best[0] >= 0.002, "slow mode at least its sleep: {best:?}");
        assert!(best[1] < best[0], "fast mode beats slow mode: {best:?}");
    }

    #[test]
    fn overhead_summary_ratios_are_consistent() {
        let t = |name: &str, secs: f64| ModeTiming::new(name, vec![vec![secs]]);
        let s = OverheadSummary::from_modes(&t("off", 1.0), &t("metrics", 1.25), &t("x", 1.5));
        assert_eq!(s.probe, "x");
        assert!((s.over_probes_off - 1.5).abs() < 1e-12);
        assert!((s.over_metrics - 1.2).abs() < 1e-12);
        assert!((s.overhead_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn paired_ratio_is_the_median_of_same_repeat_ratios() {
        // At the first point the baseline had one lucky repeat (0.40)
        // while the probe ran slow in it; at the second the probe hit one
        // busy repeat (0.9). The median of same-repeat ratios ignores
        // both, where the ratio of best-of-repeats totals reads
        // 0.936 / 0.8 = 1.17.
        let base = ModeTiming::new("metrics", vec![vec![0.5, 0.40, 0.5], vec![0.4, 0.4, 0.4]]);
        let probe = ModeTiming::new(
            "audited",
            vec![vec![0.52, 0.52, 0.52], vec![0.416, 0.416, 0.9]],
        );
        assert!((probe.paired_ratio(&base) - 1.04).abs() < 1e-12);
        assert!((probe.total_secs / base.total_secs - 1.17).abs() < 1e-12);
        let odd = ModeTiming::new("odd", vec![vec![1.0, 3.0, 2.0]]);
        let one = ModeTiming::new("one", vec![vec![1.0, 1.0, 1.0]]);
        assert!((odd.paired_ratio(&one) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mode_timing_totals_its_points() {
        let m = ModeTiming::new("probes_off", vec![vec![0.3, 0.25], vec![0.5, 0.6]]);
        assert_eq!(m.mode, "probes_off");
        assert_eq!(m.point_secs, vec![0.25, 0.5]);
        assert!((m.total_secs - 0.75).abs() < 1e-12);
    }
}
