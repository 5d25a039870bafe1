//! Order statistics over latency samples and over repeated runs.

/// The `p`-quantile (`0 < p <= 1`) of `sorted` by nearest rank; 0 for an
/// empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample in place (timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// The median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method) — the rule the driver applies to
/// ten runs. Fewer than two values have no spread: both quartiles equal the
/// value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }
}
