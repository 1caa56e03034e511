//! Property-based determinism tests for the parallel experiment engine:
//! the worker count must be architecturally invisible in the results.

use exec::{derive_seed, parallel_map, parallel_trial_chunks};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Results are bit-identical at 1, 2, 4, and 8 workers and any chunk
    /// size for any task count and experiment seed.
    #[test]
    fn thread_count_is_invisible(
        tasks in 1usize..40,
        seed in 0u64..1_000_000,
        chunk in 1usize..9,
    ) {
        let run = |threads: usize, chunk: usize| {
            parallel_trial_chunks(seed, tasks, threads, chunk, |start, seeds| {
                seeds
                    .iter()
                    .enumerate()
                    .map(|(k, &task_seed)| {
                        // Per-task work whose result depends only on the
                        // derived seed and the task index — never on
                        // scheduling.
                        let i = start + k;
                        let mut acc = task_seed ^ (i as u64);
                        for _ in 0..=(i % 7) {
                            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                        }
                        acc
                    })
                    .collect()
            })
        };
        let reference = run(1, 1);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(&run(threads, chunk), &reference);
        }
    }

    /// Derived per-task seeds never collide within an experiment.
    #[test]
    fn derived_seeds_are_distinct(seed in 0u64..1_000_000, n in 2usize..200) {
        let mut seeds: Vec<u64> = (0..n as u64).map(|i| derive_seed(seed, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), n);
    }

    /// `parallel_map` returns results in task order at any worker count.
    #[test]
    fn map_preserves_order(tasks in 1usize..50, threads in 1usize..9) {
        let out = parallel_map(tasks, threads, |i| i * i);
        let expected: Vec<usize> = (0..tasks).map(|i| i * i).collect();
        prop_assert_eq!(out, expected);
    }
}
