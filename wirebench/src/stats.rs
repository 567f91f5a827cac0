//! Order statistics over measured samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between the two nearest ranks (`(n - 1) * q`). Sorts in place; `0.0`
/// for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = (samples.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Median of `samples` (see [`quantile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median of values rounded to whole units (such as the integer µs of an
/// `EXPLAIN` reply), interpolated within the rounding interval of the
/// median value: with `below` samples under the median value `v` and
/// `ties` equal to it, the median is `v - 0.5 + (n/2 - below) / ties`.
/// Unlike [`median`], it moves when the share of samples on either side
/// of `v` moves, not only when `v` itself changes. Sorts in place; `0.0`
/// for an empty slice.
pub fn median_rounded(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = median(samples).round();
    let below = samples.iter().filter(|&&x| x < v).count() as f64;
    let ties = samples.iter().filter(|&&x| x == v).count() as f64;
    if ties == 0.0 {
        return median(samples);
    }
    v - 0.5 + (samples.len() as f64 / 2.0 - below) / ties
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or `0.0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        // (n-1)*0.99 = 2.97 → 3 + 0.97 * (4 - 3).
        assert!((quantile(&mut v, 0.99) - 3.97).abs() < 1e-12);
    }

    #[test]
    fn odd_length_median_is_the_middle_sample() {
        let mut v = vec![9.0, 1.0, 5.0];
        assert_eq!(median(&mut v), 5.0);
    }

    #[test]
    fn rounded_medians_interpolate_within_the_tie() {
        // Half the samples at 3, a quarter each side: the middle of [2.5, 3.5).
        let mut v = vec![2.0, 3.0, 3.0, 4.0];
        assert_eq!(median_rounded(&mut v), 3.0);
        // More mass above the tie pushes the estimate up within it.
        let mut v = vec![3.0, 3.0, 4.0, 4.0, 4.0, 5.0];
        assert!((median_rounded(&mut v) - (3.5 + (3.0 - 2.0) / 3.0)).abs() < 1e-12);
        // All equal: the interval's midpoint, the value itself.
        let mut v = vec![7.0; 5];
        assert_eq!(median_rounded(&mut v), 7.0);
        // A median between two values falls back to interpolation.
        let mut v = vec![1.0, 2.0];
        assert_eq!(median_rounded(&mut v), 1.5);
        assert_eq!(median_rounded(&mut []), 0.0);
    }

    #[test]
    fn empty_inputs_read_zero() {
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut v = vec![7.0];
        assert_eq!(quantile(&mut v, 0.01), 7.0);
        assert_eq!(quantile(&mut v, 0.99), 7.0);
    }
}
