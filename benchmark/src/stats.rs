//! Order statistics shared by the run, the trace and `compare`.

/// The nearest-rank percentile `p` (in `(0, 1]`) of `sorted`: the
/// smallest sample with at least a `p` share of the samples at or below
/// it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank(sorted.len(), p)?;
    Some(sorted[rank])
}

/// Samples strictly after the nearest-rank position of `p` — the count a
/// percentile must have beyond it before it says anything about the tail.
pub fn beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |rank| n - 1 - rank)
}

/// Whether `n` samples support percentile `p`: at least ten samples lie
/// beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads read the same here as in any script
/// that checks them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the bounds in `BENCHMARK.json` are checked against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 of 1000 samples is the 990th; 10 lie beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        // p90 needs 100 samples, p99 needs 1000.
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert_eq!(beyond(0, 0.5), 0);
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 4.5)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread() {
        let v = ramp(10);
        let spread = relative_iqr(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }
}
