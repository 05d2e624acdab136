//! Order statistics used to summarise repeated measurements.

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method);
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2)
}

/// Percentile levels a timing may be reported at, in permille.
const LEVELS_PERMILLE: [u32; 6] = [500, 750, 900, 950, 990, 999];

/// The highest level of `LEVELS_PERMILLE` that leaves at least ten of
/// `n` samples beyond it, or `None` when even the median does not.
pub fn tail_level_permille(n: usize) -> Option<u32> {
    LEVELS_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| n as u64 * u64::from(1000 - p) >= 10_000)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
