//! Order statistics and the output digest.

/// FNV-1a over `bytes`. The benchmark keeps its own copy on purpose: the
/// output checker must not change when the program's copies are merged.
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
#[must_use]
pub(crate) fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The first and third quartiles by Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
#[must_use]
pub(crate) fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        len => {
            let at = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
#[must_use]
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
