//! Summary statistics for the benchmark's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spreads this program reports are
//! the ones a reader recomputes from its raw samples.

/// Sorted copy of `xs` (NaN-free input; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, or `None` for no samples.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's exclusive method; one sample
/// gives that sample for both.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld == 0 {
        return None;
    }
    if ld == 1 {
        return Some((v[0], v[0]));
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of the samples.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// A tail figure: the highest listed percentile that still has at least
/// [`MIN_BEYOND`] samples beyond it, with that count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 90.0.
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Samples a reported tail percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const TAIL_PCTS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile in {50, 75, 90, 95, 99, 99.9} with at least
/// [`MIN_BEYOND`] samples beyond its rank; `None` below 20 samples.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    TAIL_PCTS.iter().find_map(|&pct| {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank);
        (rank >= 1 && beyond >= MIN_BEYOND).then(|| Tail {
            pct,
            value: percentile(xs, pct).expect("non-empty: rank >= 1"),
            beyond,
        })
    })
}

/// Geometric mean of `1 + e` minus 1 over relative errors `e`.
#[must_use]
pub fn geomean_err(errs: &[f64]) -> Option<f64> {
    if errs.is_empty() {
        return None;
    }
    let s: f64 = errs.iter().map(|e| (1.0 + e).ln()).sum();
    Some((s / errs.len() as f64).exp() - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert!(close(q1, 1.5) && close(q3, 4.5), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 19 samples: p50 rank 10 leaves 9 beyond — no tail.
        assert_eq!(tail(&xs(19)), None);
        // 20 samples: p50 leaves exactly 10.
        let t = tail(&xs(20)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        // 40 samples: p75 rank 30 leaves 10; p90 would leave 4.
        let t = tail(&xs(40)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
        // 100 samples: p90 leaves 10, p95 leaves 5.
        let t = tail(&xs(100)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 leaves 10.
        let t = tail(&xs(1000)).unwrap();
        assert_eq!((t.pct, t.beyond), (99.0, 10));
    }

    #[test]
    fn geomean_err_of_equal_errors_is_that_error() {
        assert!(close(geomean_err(&[0.1, 0.1, 0.1]).unwrap(), 0.1));
        assert_eq!(geomean_err(&[]), None);
        assert!(close(geomean_err(&[0.0, 0.0]).unwrap(), 0.0));
    }
}
