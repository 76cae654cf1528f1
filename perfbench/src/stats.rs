//! Sample statistics: medians, nearest-rank percentiles, quiet latencies
//! and the tail rule.

/// Percentiles the tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// A tail percentile is reported only with at least this many samples
/// beyond it, so it never rests on a handful of outliers.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest rank (1-based) of percentile `p` among `n` samples, in exact
/// integer arithmetic on tenths of a percent.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile
/// of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank `p`-th percentile of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest [`TAIL_LADDER`] percentile with at least [`TAIL_BEYOND`]
/// of `n` samples beyond it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_BEYOND)
}

/// Quantile `q` (0..=1) of `sorted` (ascending), interpolated linearly
/// between the nearest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, frac) = (at.floor() as usize, at.fract());
    match sorted.get(lo + 1) {
        Some(hi) => sorted[lo] + frac * (hi - sorted[lo]),
        None => sorted[lo],
    }
}

/// Fastest of `xs` (`+inf` for an empty slice).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Quiet latency of every op of a cycle: the fastest of its repetitions.
/// `samples` holds whole cycles of `cycle` ops, op `i` repeating the work
/// of op `i - cycle`, plus possibly a partial cycle. Empty when no cycle
/// is complete.
///
/// The host this benchmark was built on slows everything by up to 2.5×
/// for stretches of one second to minutes, and a run may spend none, most
/// or all of its time in such stretches. They only ever add time, so the
/// fastest of an op's repetitions, spread over the whole run, reads the
/// op's own cost as long as the run saw the host quiet at all; a median,
/// or even the lower quintile, reads the host's state instead.
pub fn quiet(samples: &[f64], cycle: usize) -> Vec<f64> {
    if cycle == 0 || samples.len() < cycle {
        return Vec::new();
    }
    (0..cycle)
        .map(|op| {
            fastest(
                &samples
                    .iter()
                    .skip(op)
                    .step_by(cycle)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// A tail latency with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples beyond it.
    pub beyond: usize,
}

/// The highest [`TAIL_LADDER`] percentile of `samples` with at least
/// [`TAIL_BEYOND`] samples beyond it, or `None` when there are too few.
/// The benchmark takes it over the quiet latencies of one cycle, whose
/// size is fixed per workload, so a faster build never reports a higher
/// percentile.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let p = tail_percentile(samples.len())?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: p,
        value: percentile(&sorted, p),
        beyond: beyond(samples.len(), p),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentile() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 99.9), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 95.0), 5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Exactly ten beyond qualifies; nine does not.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(80.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(2000), Some(99.5));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(330), Some(95.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..5000 {
            let p = tail_percentile(n).expect("n >= 20 has a tail");
            assert!(beyond(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            // No higher rung of the ladder would still qualify.
            for &higher in TAIL_LADDER.iter().filter(|&&q| q > p) {
                assert!(beyond(n, higher) < TAIL_BEYOND, "n={n} {higher} skipped");
            }
        }
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 1.0), 6.0);
        assert_eq!(quantile(&sorted, 0.5), 3.5);
        assert!((quantile(&sorted, 0.1) - 1.5).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), f64::INFINITY);
    }

    #[test]
    fn quiet_latency_is_the_fastest_repetition_of_each_op() {
        // Two ops per cycle, six cycles; op 0 costs 1 and op 1 costs 10,
        // and cycles 2 to 4 ran on a host three times slower.
        let slow = |c: usize| if (2..5).contains(&c) { 3.0 } else { 1.0 };
        let samples: Vec<f64> = (0..12).map(|i| slow(i / 2) * [1.0, 10.0][i % 2]).collect();
        assert_eq!(quiet(&samples, 2), [1.0, 10.0]);
        // A trailing partial cycle counts; no complete cycle gives nothing.
        assert_eq!(quiet(&samples[..11], 2).len(), 2);
        assert!(quiet(&samples[..1], 2).is_empty());
        assert!(quiet(&samples, 0).is_empty());
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&samples).expect("a hundred samples");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        assert!(tail(&samples[..19]).is_none());
        assert_eq!(tail(&samples[..20]).expect("twenty").percentile, 50.0);
    }
}
