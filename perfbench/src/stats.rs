//! Order statistics for timing samples.
//!
//! Every timing the benchmark prints carries its sample count, its
//! median, and the highest percentile that still has at least ten
//! samples beyond it (so a tail figure is never read off two points).

/// Percentiles considered for the tail figure, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Series up to this long are also printed sample by sample, in order.
const LIST_MAX: usize = 16;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the definition the benchmark's
/// spread is judged by. `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps exact products such as 90% of 100 from rounding up.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    Some(v[rank(p, v.len()) - 1])
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, with its value; `None` below twenty samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n >= 1 && n - rank(p, n) >= TAIL_MIN_BEYOND)
        .and_then(|&p| percentile(values, p).map(|v| (p, v)))
}

/// One line describing a timing series: count, median, quartiles, tail.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let med = median(values).map_or("n/a".to_string(), |m| format!("{m:.6}"));
    let quart = quartiles(values).map_or(String::new(), |(q1, q3)| {
        format!(" (q1 {q1:.6}, q3 {q3:.6})")
    });
    let tail = tail(values).map_or_else(
        || "no percentile with 10 samples beyond".to_string(),
        |(p, v)| format!("p{p} {v:.6}"),
    );
    let listed = if values.len() <= LIST_MAX {
        let v: Vec<String> = values.iter().map(|x| format!("{x:.4}")).collect();
        format!(" [{}]", v.join(" "))
    } else {
        String::new()
    };
    format!(
        "{name:<34} n={:<4} median {med}{quart} {unit}, {tail}{listed}",
        values.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.9), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }
}
