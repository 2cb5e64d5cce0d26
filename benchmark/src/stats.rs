//! Order statistics for host timings.

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method) — the rule the benchmark
/// contract's spread check uses. Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median; 0 with fewer than
/// two values (no spread can be told from one run).
pub fn spread(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs()
}

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The tail of a timing distribution by the percentile rule: the highest
/// of p95 / p90 / p75 that leaves at least [`TAIL_SAMPLES`] samples
/// beyond it, else the median (`pct` = 50). `n` is always reported with
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: u32,
    pub value: f64,
    pub n: usize,
}

pub fn tail(v: &[f64]) -> Tail {
    let n = v.len();
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    for pct in [95u32, 90, 75] {
        // Samples strictly beyond the percentile's rank.
        let rank = (n * pct as usize).div_ceil(100);
        if rank >= 1 && n - rank >= TAIL_SAMPLES {
            return Tail {
                pct,
                value: s[rank - 1],
                n,
            };
        }
    }
    Tail {
        pct: 50,
        value: median(v),
        n,
    }
}

/// FNV-1a over the bit patterns of `v`: the sample digest. Printed as
/// information (a deliberate draw-order re-strike moves it), never gated.
pub fn digest(v: &[f64]) -> u64 {
    fnv1a(FNV_OFFSET, v.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`.
pub fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Samples that are not finite and strictly positive — each one is a
/// failed op.
pub fn count_bad(v: &[f64]) -> u64 {
    v.iter().filter(|x| !(x.is_finite() && **x > 0.0)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    /// `statistics.quantiles(range(1, 11), n=4)` is `[2.75, 5.5, 8.25]`.
    #[test]
    fn quartiles_match_python_exclusive() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) → [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    /// p95 is only reported with ≥ 10 samples beyond it (n ≥ 200), and n
    /// always comes with it; below that the rule steps down.
    #[test]
    fn tail_follows_the_percentile_rule() {
        let v = |n: usize| (1..=n).map(|k| k as f64).collect::<Vec<_>>();
        let t = tail(&v(200));
        assert_eq!((t.pct, t.value, t.n), (95, 190.0, 200));
        assert_eq!(tail(&v(199)).pct, 90);
        assert_eq!(tail(&v(100)).pct, 90);
        assert_eq!(tail(&v(99)).pct, 75);
        assert_eq!(tail(&v(40)).pct, 75);
        let t = tail(&v(39));
        assert_eq!((t.pct, t.value, t.n), (50, 20.0, 39));
        assert_eq!(tail(&v(3)).pct, 50);
    }

    #[test]
    fn corrupted_sample_counts_as_failed() {
        assert_eq!(count_bad(&[1.0, 2.0]), 0);
        assert_eq!(count_bad(&[1.0, f64::NAN, 0.0, -1.0, f64::INFINITY]), 4);
    }

    #[test]
    fn digest_sees_every_bit() {
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
    }
}
