//! Order statistics used by every report (nearest-rank percentiles
//! come from `bench::percentile`).

/// The percentile a tail metric may claim from `n` samples: `wanted`,
/// or the highest percentile that still leaves at least ten samples
/// beyond it when `n` is too small for `wanted`. `None` when even that
/// is impossible (`n <= 10`).
pub fn tail_percentile(n: usize, wanted: f64) -> Option<f64> {
    if n <= 10 {
        return None;
    }
    // Samples beyond the nearest-rank percentile p: n - ceil(p n / 100).
    let highest = 100.0 * (n - 10) as f64 / n as f64;
    Some(wanted.min(highest))
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample set");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method),
/// so spreads computed here and by `spread.py` agree. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        // Python clamps the index to 1..=len-1 first and then lets the
        // weight extrapolate, so small samples match it exactly.
        let j = ((i + 1) * m / 4).clamp(1, v.len() - 1);
        let delta = ((i + 1) * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        // 100 samples support p90 at most: ranks 91..=100 lie beyond.
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(10, 99.0), None);
        for n in [11usize, 57, 100, 999, 1000, 4321] {
            let p = tail_percentile(n, 99.0).unwrap();
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n={n} p={p} leaves {}", n - rank);
        }
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }
}
