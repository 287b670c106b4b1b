//! Order statistics over samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank rule; `NaN` when
/// `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median; the mean of the two middle samples for an even count.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of the middle half of the samples (the quarter below the
/// first quartile and the quarter above the third dropped); `NaN` when
/// `xs` is empty.
///
/// Unlike the median it moves smoothly when samples fall into two
/// modes, as reads of a few milliseconds do on a shared host: the median
/// of such samples jumps between the modes from run to run.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    mean(&v[lo..hi])
}

/// The arithmetic mean; `NaN` when `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.95), 95.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]), 3.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }
}
