//! Order statistics for benchmark samples.
//!
//! Every timing is reported as a median with quartiles and a sample
//! count, never as a best-of-N. A tail percentile is quoted only when at
//! least [`TAIL_MIN_BEYOND`] samples lie beyond it, so 999 latencies can
//! give p90 but not p99.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// quoted.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Median, quartiles and the highest resolvable tail of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the highest tail with enough samples
    /// beyond it; `None` when even p90 is unresolved.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none. NaNs sort last.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = TAILS
            .iter()
            .find(|&&p| resolvable(sorted.len(), p))
            .map(|&p| (p, quantile(&sorted, p / 100.0)));
        Some(Summary {
            n: sorted.len(),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            tail,
        })
    }

    /// The value at percentile `p` if it is resolvable for this count.
    #[must_use]
    pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
        if !resolvable(samples.len(), p) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(quantile(&sorted, p / 100.0))
    }

    /// One-line rendering: `median [q1, q3] n=… pXX=…`.
    #[must_use]
    pub fn render(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={} {unit}", sig(v)),
            None => " tail=unresolved".to_string(),
        };
        format!(
            "{} {unit} [q1 {}, q3 {}] n={}{tail}",
            sig(self.median),
            sig(self.q1),
            sig(self.q3),
            self.n
        )
    }
}

/// `v` with five significant digits, in plain or exponent notation.
#[must_use]
pub fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    if v.abs() < 1e-3 || v.abs() >= 1e7 {
        return format!("{v:.4e}");
    }
    let digits = (4 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.digits$}")
}

/// Whether percentile `p` (0–100) of `n` samples has at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond it. The median needs one
/// sample.
#[must_use]
pub fn resolvable(n: usize, p: f64) -> bool {
    if p <= 50.0 {
        return n >= 1;
    }
    // Samples beyond the p-th percentile: n·(1 − p/100), computed in
    // integer thousandths so 1000 samples give exactly 10 beyond p99.
    let beyond_milli = n as u128 * (100_000 - (p * 1000.0).round() as u128);
    beyond_milli >= TAIL_MIN_BEYOND as u128 * 100_000
}

/// Linear-interpolation quantile of sorted data (`q` in 0–1), the
/// inclusive method of Python's `statistics.quantiles`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!resolvable(999, 99.0));
        assert!(resolvable(1000, 99.0));
        assert!(!resolvable(99, 90.0));
        assert!(resolvable(100, 90.0));
        assert!(!resolvable(9_999, 99.9));
        assert!(resolvable(10_000, 99.9));
    }

    #[test]
    fn summary_picks_the_highest_resolvable_tail() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.n, 999);
        assert_eq!(s.median, 500.0);
        assert_eq!(s.tail.map(|t| t.0), Some(95.0));
        assert_eq!(Summary::percentile(&samples, 99.0), None);

        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.tail.map(|t| t.0), Some(99.0));
    }

    #[test]
    fn small_sets_leave_the_tail_unresolved() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 2.0, 2.5));
        assert_eq!(s.tail, None);
        assert!(s.render("ms").contains("tail=unresolved"));
        assert_eq!(sig(0.000_051_23), "5.1230e-5");
        assert_eq!(sig(1.75), "1.7500");
        assert_eq!(sig(2_136.077), "2136.1");
        assert_eq!(Summary::of(&[]), None);
    }
}
