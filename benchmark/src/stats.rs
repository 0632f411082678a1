//! Percentiles with their sample counts.

/// A percentile is only quoted without a warning when at least this many
/// samples lie beyond it (above its rank).
pub const MIN_BEYOND: usize = 10;

/// One nearest-rank percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile value (0 for an empty sample set).
    pub value: f64,
    /// Number of samples it was taken from.
    pub n: usize,
    /// Samples ranked strictly above the one reported.
    pub beyond: usize,
}

impl Pct {
    /// True when enough samples lie beyond the rank for the value to mean
    /// what its name says (a p95 of 40 samples is one of the two largest).
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile: the smallest sample such that at least
/// `q` (0 < q ≤ 1) of all samples are ≤ it. No interpolation, so the value
/// is always one that was measured.
pub fn percentile(samples: &[u64], q: f64) -> Pct {
    let n = samples.len();
    if n == 0 {
        return Pct {
            value: 0.0,
            n: 0,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct {
        value: sorted[rank - 1] as f64,
        n,
        beyond: n - rank,
    }
}

/// The median (nearest-rank p50).
pub fn median(samples: &[u64]) -> Pct {
    percentile(samples, 0.5)
}

/// The best value of `stat` over consecutive windows of `len` items in
/// `0..n` (a trailing partial window is left out; `None` values skipped).
///
/// Why the best window and not the whole run: on a shared host other
/// tenants only ever add time, in bursts that last seconds. The quietest
/// window of a run is the closest the run gets to what the code itself
/// costs, and a burst that covers part of a run moves it far less than it
/// moves a whole-run median (see the README's repeatability table).
pub fn best_window(
    n: usize,
    len: usize,
    lower_is_better: bool,
    stat: impl Fn(std::ops::Range<usize>) -> Option<f64>,
) -> Option<f64> {
    let len = len.clamp(1, n.max(1));
    (0..n / len)
        .filter_map(|w| stat(w * len..(w + 1) * len))
        .reduce(|a, b| if (b < a) == lower_is_better { b } else { a })
}

/// Quartiles `(q1, median, q3)` as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so `loopbench compare` judges spread exactly as the acceptance driver
/// does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let s: Vec<u64> = (1..=10).rev().collect(); // unsorted input
        assert_eq!(percentile(&s, 0.5).value, 5.0);
        assert_eq!(percentile(&s, 0.9).value, 9.0);
        assert_eq!(percentile(&s, 0.91).value, 10.0);
        assert_eq!(percentile(&s, 1.0).value, 10.0);
        assert_eq!(percentile(&[7], 0.5).value, 7.0);
        // odd count: the middle sample, not an average
        assert_eq!(median(&[3, 1, 2]).value, 2.0);
        // even count: the lower middle, as nearest-rank defines it
        assert_eq!(median(&[4, 1, 3, 2]).value, 2.0);
    }

    #[test]
    fn empty_set_reports_zero_samples() {
        let p = percentile(&[], 0.95);
        assert_eq!((p.value, p.n, p.beyond), (0.0, 0, 0));
        assert!(!p.resolved());
    }

    #[test]
    fn guard_counts_samples_beyond_the_rank() {
        let s: Vec<u64> = (0..200).collect();
        let p95 = percentile(&s, 0.95);
        assert_eq!((p95.n, p95.beyond), (200, 10));
        assert!(p95.resolved(), "200 samples leave exactly 10 beyond p95");
        let s: Vec<u64> = (0..199).collect();
        let p95 = percentile(&s, 0.95);
        assert_eq!(p95.beyond, 9);
        assert!(!p95.resolved(), "199 samples leave only 9 beyond p95");
        // a median needs 20 samples to leave 10 beyond its rank
        assert!(median(&(0..20).collect::<Vec<u64>>()).resolved());
        assert!(!median(&(0..19).collect::<Vec<u64>>()).resolved());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn best_window_takes_the_quietest_whole_window() {
        let ticks = [5u64, 5, 9, 9, 4, 4, 1];
        let mean = |r: std::ops::Range<usize>| {
            Some(ticks[r.clone()].iter().sum::<u64>() as f64 / r.len() as f64)
        };
        // windows [5,5] [9,9] [4,4]; the trailing 1 is in no window
        assert_eq!(best_window(ticks.len(), 2, true, mean), Some(4.0));
        assert_eq!(best_window(ticks.len(), 2, false, mean), Some(9.0));
        // a window longer than the run is the whole run
        assert_eq!(best_window(ticks.len(), 99, true, mean), Some(37.0 / 7.0));
        // windows without a value are skipped
        let sparse = |r: std::ops::Range<usize>| (r.start == 2).then_some(7.0);
        assert_eq!(best_window(ticks.len(), 2, true, sparse), Some(7.0));
        assert_eq!(best_window(0, 2, true, mean), None);
    }
}
