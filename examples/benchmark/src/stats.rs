//! Order statistics the benchmark reports: nearest-rank percentiles of raw samples,
//! the median over equal-time windows, and the quartile spread the repeatability
//! criterion is stated in.

/// Median of `values` (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of raw samples: the smallest sample with at least `p` of the
/// samples at or below it. 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, over `windows` equal-time windows of `[0, span_us)`, of each window's
/// `p`-percentile. `samples` are `(time_us, value)`; empty windows are left out, so a
/// scheduler stall spoils the windows it lands in instead of the whole-run percentile.
pub fn window_median(samples: &[(f64, f64)], span_us: f64, windows: usize, p: f64) -> f64 {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows.max(1)];
    let last = buckets.len() - 1;
    for &(at_us, value) in samples {
        let index = if span_us > 0.0 {
            ((at_us / span_us) * buckets.len() as f64).floor().max(0.0) as usize
        } else {
            0
        };
        buckets[index.min(last)].push(value);
    }
    let per_window: Vec<f64> = buckets
        .iter()
        .filter(|bucket| !bucket.is_empty())
        .map(|bucket| percentile(bucket, p))
        .collect();
    median(&per_window)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method: position `(n + 1) * q`, linear interpolation, clamped).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the repeatability
/// criterion bounds. 0 for a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid.abs()
}

/// Known-vector checks for the helpers above (`--smoke` runs them).
pub fn self_check() -> Result<(), String> {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let expect = |what: &str, got: f64, want: f64| {
        if (got - want).abs() < 1e-9 {
            Ok(())
        } else {
            Err(format!("{what}: got {got}, want {want}"))
        }
    };
    expect("median odd", median(&[3.0, 1.0, 2.0]), 2.0)?;
    expect("median even", median(&ten), 5.5)?;
    expect("p50 of 1..=10", percentile(&ten, 0.5), 5.0)?;
    expect("p90 of 1..=10", percentile(&ten, 0.9), 9.0)?;
    expect("p100 of 1..=10", percentile(&ten, 1.0), 10.0)?;
    expect("percentile of nothing", percentile(&[], 0.5), 0.0)?;
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let (q1, q3) = quartiles(&ten);
    expect("q1 of 1..=10", q1, 2.75)?;
    expect("q3 of 1..=10", q3, 8.25)?;
    expect("spread of 1..=10", spread(&ten), 1.0)?;
    // Two windows; a 1000 µs outlier spoils only the second window's p100.
    let samples = [(0.0, 10.0), (1.0, 20.0), (5.0, 30.0), (9.0, 1000.0)];
    expect("window p50", window_median(&samples, 10.0, 2, 0.5), 20.0)?;
    expect("window p100", window_median(&samples, 10.0, 2, 1.0), 510.0)?;
    // Three windows, one outlier: the median of windows ignores it.
    let stalled = [(0.0, 10.0), (4.0, 12.0), (8.0, 1000.0)];
    expect("stall window", window_median(&stalled, 9.0, 3, 0.9), 12.0)?;
    Ok(())
}
