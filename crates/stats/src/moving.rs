//! Moving averages for daily-rate series.
//!
//! Figure 1 plots a moving average of the daily Gflops rate and of the
//! utilization; Figure 4 plots a moving average of 16-node job rates by job
//! id. The paper does not state a window, so the window is a parameter.

/// Trailing moving average: element `i` averages `series[i+1-w ..= i]`,
/// using however many elements exist for the first `w - 1` positions.
///
/// This matches how an operations dashboard reports "the average so far"
/// and is what we use for the utilization trace in Figure 1.
pub fn trailing_moving_average(series: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(series.len());
    let mut acc = 0.0;
    for i in 0..series.len() {
        acc += series[i];
        if i >= window {
            acc -= series[i - window];
        }
        let n = (i + 1).min(window);
        out.push(acc / n as f64);
    }
    out
}

/// Centered moving average with half-window `half`: element `i` averages
/// `series[i-half ..= i+half]` clipped to the series bounds.
///
/// Used for the smoothed daily-rate overlay in Figure 1, where the curve
/// visibly tracks the middle of the daily scatter.
pub fn centered_moving_average(series: &[f64], half: usize) -> Vec<f64> {
    let n = series.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let sum: f64 = series[lo..hi].iter().sum();
        out.push(sum / (hi - lo) as f64);
    }
    out
}

/// Least-squares slope of `series` against its index, used to assert the
/// paper's "no obvious trend toward increased performance" findings.
pub fn linear_trend_slope(series: &[f64]) -> f64 {
    let n = series.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = series.iter().sum::<f64>() / nf;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in series.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
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
    fn trailing_constant_series() {
        let s = vec![3.0; 10];
        assert_eq!(trailing_moving_average(&s, 4), s);
    }

    #[test]
    fn trailing_partial_prefix() {
        let s = [1.0, 2.0, 3.0, 4.0];
        let m = trailing_moving_average(&s, 3);
        assert_eq!(m[0], 1.0);
        assert_eq!(m[1], 1.5);
        assert_eq!(m[2], 2.0);
        assert_eq!(m[3], 3.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn trailing_zero_window_panics() {
        trailing_moving_average(&[1.0], 0);
    }

    #[test]
    fn centered_window_clips_at_edges() {
        let s = [0.0, 10.0, 20.0];
        let m = centered_moving_average(&s, 1);
        assert_eq!(m[0], 5.0); // [0,10]
        assert_eq!(m[1], 10.0); // [0,10,20]
        assert_eq!(m[2], 15.0); // [10,20]
    }

    #[test]
    fn centered_zero_half_is_identity() {
        let s = [1.0, 4.0, 9.0];
        assert_eq!(centered_moving_average(&s, 0), s.to_vec());
    }

    #[test]
    fn slope_of_linear_series() {
        let s: Vec<f64> = (0..50).map(|i| 2.5 * i as f64 + 7.0).collect();
        assert!((linear_trend_slope(&s) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn slope_of_flat_series_is_zero() {
        let s = vec![4.0; 20];
        assert!(linear_trend_slope(&s).abs() < 1e-12);
        assert_eq!(linear_trend_slope(&[1.0]), 0.0);
    }

    #[test]
    fn moving_average_preserves_length() {
        let s: Vec<f64> = (0..17).map(|i| i as f64).collect();
        assert_eq!(trailing_moving_average(&s, 5).len(), s.len());
        assert_eq!(centered_moving_average(&s, 5).len(), s.len());
    }
}
