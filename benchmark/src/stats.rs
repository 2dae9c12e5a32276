//! Order statistics over the benchmark's samples.
//!
//! A timing is reported as a median and the highest percentile that still
//! has at least [`MIN_BEYOND`] samples beyond it; the sample count is
//! printed beside every percentile so a reader can check that rule.

/// Samples that must lie beyond a percentile before it is reported as
/// resolved (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Sorts `values` ascending. NaNs never occur (all samples are measured
/// durations or counts), so the total order is safe.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q·n` samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (sorts in place). The mean of the two middle
/// samples for an even count, so a per-repetition median over an even
/// number of repetitions is not biased low.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    sort(values);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The value a quarter of the way in from the best of `values` (sorts in
/// place): the third best of ten repetitions, the second best of five.
///
/// Interference from the host only ever slows a repetition down, in
/// episodes of seconds, so the repetitions least touched by it are the
/// best ones. The quartile, rather than the single best, also ignores
/// the odd repetition that lands in a rare fast scheduling mode.
pub fn quiet_quartile(values: &mut [f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "quartile of no samples");
    sort(values);
    let k = (values.len() - 1) / 4;
    if lower_is_better {
        values[k]
    } else {
        values[values.len() - 1 - k]
    }
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond rank `q`.
pub fn resolves(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank && n - rank >= MIN_BEYOND
}

/// `(max − min) / median` of `values`: the spread the repetitions of one
/// process show among themselves.
pub fn rel_spread(values: &mut [f64]) -> f64 {
    let m = median(values);
    let lo = values.first().copied().unwrap_or(0.0);
    let hi = values.last().copied().unwrap_or(0.0);
    if m > 0.0 {
        (hi - lo) / m
    } else {
        0.0
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over per-tenant rates: 1 when
/// all are equal, `1/n` when one tenant has everything.
pub fn jain_index(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|r| r * r).sum();
    if sq > 0.0 {
        sum * sum / (rates.len() as f64 * sq)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // A rank that is not a whole number rounds up.
        let w = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&w, 0.5), 2.0);
        assert_eq!(percentile(&w, 0.34), 2.0);
        assert_eq!(percentile(&w, 0.33), 1.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond.
        assert!(resolves(100, 0.9));
        assert!(!resolves(99, 0.9));
        // p99 needs a thousand.
        assert!(resolves(1000, 0.99));
        assert!(!resolves(999, 0.99));
        // The median needs twenty.
        assert!(resolves(20, 0.5));
        assert!(!resolves(19, 0.5));
    }

    #[test]
    fn quiet_quartile_is_a_quarter_in_from_the_best() {
        let mut ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quiet_quartile(&mut ten, true), 3.0);
        assert_eq!(quiet_quartile(&mut ten, false), 8.0);
        assert_eq!(quiet_quartile(&mut [5.0, 1.0, 4.0, 2.0, 3.0], true), 2.0);
        assert_eq!(quiet_quartile(&mut [5.0, 1.0, 4.0, 2.0, 3.0], false), 4.0);
        // Too few repetitions for a quarter: the best one.
        assert_eq!(quiet_quartile(&mut [2.0, 1.0, 3.0], true), 1.0);
        assert_eq!(quiet_quartile(&mut [7.0], false), 7.0);
    }

    #[test]
    fn spread_and_fairness() {
        assert_eq!(rel_spread(&mut [10.0, 12.0, 11.0]), 2.0 / 11.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
        assert_eq!(jain_index(&[8.0, 0.0, 0.0, 0.0]), 0.25);
    }
}
