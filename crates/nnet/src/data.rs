//! Dataset utilities: standardization, pooling, shuffled splits, and
//! k-fold cross validation (the paper evaluates website fingerprinting
//! with 10-fold CV).

use rand::seq::SliceRandom;
use rand::Rng;

/// Average-pools a 1-D series down to `target_len` buckets (the trace
/// compression applied before feeding SegCnt traces to the LSTM).
///
/// ```
/// let pooled = nnet::average_pool(&[1.0, 3.0, 5.0, 7.0], 2);
/// assert_eq!(pooled, vec![2.0, 6.0]);
/// ```
#[must_use]
pub fn average_pool(series: &[f64], target_len: usize) -> Vec<f64> {
    if series.is_empty() || target_len == 0 {
        return Vec::new();
    }
    let n = series.len();
    let target = target_len.min(n);
    (0..target)
        .map(|b| {
            let lo = b * n / target;
            let hi = ((b + 1) * n / target).max(lo + 1);
            series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Standardizes a series to zero mean, unit variance (no-op std when the
/// series is constant).
#[must_use]
pub fn standardize(series: &[f64]) -> Vec<f64> {
    if series.is_empty() {
        return Vec::new();
    }
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    let var = series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / series.len() as f64;
    let std = var.sqrt().max(1e-12);
    series.iter().map(|x| (x - mean) / std).collect()
}

/// Converts an `f64` series into per-timestep single-feature `f32`
/// vectors for the sequence models.
#[must_use]
pub fn to_features(series: &[f64]) -> Vec<Vec<f32>> {
    series.iter().map(|&x| vec![x as f32]).collect()
}

/// Yields `(train_indices, test_indices)` for `k`-fold cross validation
/// over `n` items, after a seeded shuffle.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds `n`.
#[must_use]
pub fn k_fold_indices<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k > 0 && k <= n, "k must be in 1..=n");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    (0..k)
        .map(|fold| {
            let lo = fold * n / k;
            let hi = (fold + 1) * n / k;
            let test: Vec<usize> = idx[lo..hi].to_vec();
            let train: Vec<usize> = idx[..lo].iter().chain(&idx[hi..]).copied().collect();
            (train, test)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pooling_preserves_mean() {
        let series: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let pooled = average_pool(&series, 100);
        assert_eq!(pooled.len(), 100);
        let orig_mean = series.iter().sum::<f64>() / 1000.0;
        let pool_mean = pooled.iter().sum::<f64>() / 100.0;
        assert!((orig_mean - pool_mean).abs() < 1.0);
    }

    #[test]
    fn pooling_short_series() {
        assert_eq!(average_pool(&[1.0, 2.0], 10), vec![1.0, 2.0]);
        assert!(average_pool(&[], 5).is_empty());
        assert!(average_pool(&[1.0], 0).is_empty());
    }

    #[test]
    fn standardize_moments() {
        let s = standardize(&[1.0, 2.0, 3.0, 4.0]);
        let mean = s.iter().sum::<f64>() / 4.0;
        let var = s.iter().map(|x| x * x).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
        // Constant series does not blow up.
        let c = standardize(&[5.0; 4]);
        assert!(c.iter().all(|x| x.abs() < 1e-6));
    }

    #[test]
    fn k_fold_partitions_everything() {
        let mut rng = SmallRng::seed_from_u64(1);
        let folds = k_fold_indices(103, 10, &mut rng);
        assert_eq!(folds.len(), 10);
        let mut all_test: Vec<usize> = folds.iter().flat_map(|(_, t)| t.clone()).collect();
        all_test.sort_unstable();
        assert_eq!(all_test, (0..103).collect::<Vec<_>>());
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 103);
            assert!(test.iter().all(|i| !train.contains(i)));
        }
    }

    #[test]
    fn to_features_shape() {
        let f = to_features(&[1.0, 2.0]);
        assert_eq!(f, vec![vec![1.0f32], vec![2.0f32]]);
    }
}
