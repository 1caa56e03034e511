//! `segscope-bench` — shared reporting helpers for the per-table /
//! per-figure reproduction harnesses in `benches/`.
//!
//! Each bench target regenerates one table or figure of the paper's
//! evaluation and prints it in a paper-comparable layout. Absolute
//! numbers come from the simulator, so only the *shape* (orderings,
//! ratios, crossovers) is expected to match the paper; the expected
//! paper values are printed alongside for easy comparison.
//!
//! Set `SEGSCOPE_BENCH_FULL=1` to run the larger (slower) experiment
//! scales.
//!
//! The four performance benches (`bench_hotpath`, `bench_parallel`,
//! `bench_campaign`, `bench_serve`) each fill one [`BenchRecord`] from
//! the measurement modules below and write it as `BENCH_<bench>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hotpath;
pub mod parallel;
pub mod record;
pub mod serving;
pub mod sweep;

pub use record::BenchRecord;

use segscope_attacks::kaslr::{k_sweep_distributions, ProbeMethod};
use std::fmt::Write as _;

/// FNV-1a offset basis: the digest of the empty input and the seed of
/// every [`fnv1a_fold`] chain.
pub use obs::FNV1A_BASIS;

/// Folds `value`'s little-endian bytes into an order-sensitive FNV-1a
/// hash; start a chain from [`FNV1A_BASIS`]. The bench reports compare
/// two code paths' streams by folding both this way.
#[must_use]
pub fn fnv1a_fold(hash: u64, value: u64) -> u64 {
    obs::fnv1a_extend(hash, &value.to_le_bytes())
}

/// FNV-1a digest of a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    obs::fnv1a_extend(FNV1A_BASIS, bytes)
}

/// Whether the harness should run at full scale
/// (`SEGSCOPE_BENCH_FULL=1`).
#[must_use]
pub fn full_scale() -> bool {
    std::env::var("SEGSCOPE_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// Prints a boxed section header.
pub fn header(title: &str) {
    let line = "=".repeat(title.len() + 4);
    println!("\n{line}\n| {title} |\n{line}");
}

/// Formats a `mean ± std` cell.
#[must_use]
pub fn pm(mean: f64, std: f64) -> String {
    format!("{mean:.1} ± {std:.1}")
}

/// Formats a percentage cell.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Renders a fixed-width text table row: `widths[i]` is the column width.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        let _ = write!(line, "{cell:>width$}  ");
    }
    println!("{}", line.trim_end());
}

/// Renders an ASCII histogram of `values` over `bins` equal-width bins,
/// each bar scaled to at most `width` characters, annotated with bin
/// ranges.
pub fn ascii_histogram(values: &[f64], bins: usize, width: usize) {
    if values.is_empty() || bins == 0 {
        println!("(no data)");
        return;
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let mut counts = vec![0usize; bins];
    for &v in values {
        let bin = (((v - min) / span) * bins as f64) as usize;
        counts[bin.min(bins - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    for (i, &count) in counts.iter().enumerate() {
        let lo = min + span * i as f64 / bins as f64;
        let hi = min + span * (i + 1) as f64 / bins as f64;
        let bar = "#".repeat(count * width / peak);
        println!("{lo:>14.1} .. {hi:>14.1} |{bar:<width$}| {count}");
    }
}

/// Prints a one-line summary (n, mean, std, min, max) of a sample set.
pub fn summary(label: &str, values: &[f64]) {
    let stats: irq::dist::RunningStats = values.iter().copied().collect();
    println!(
        "{label}: n={} mean={:.1} std={:.1} min={:.1} max={:.1}",
        stats.count(),
        stats.mean(),
        stats.sample_std(),
        stats.min(),
        stats.max()
    );
}

/// Figs. 10–11: sweeps the probe repetition count `K` over `ks`,
/// printing the median SegCnt of mapped vs unmapped kernel addresses
/// probed by `method` at each `K`, then both distributions at the
/// largest `K`, and asserts that the gap grows with `K`. `shape` names
/// the paper claim printed on success.
///
/// # Panics
///
/// Panics if `ks` is empty, the probe fails, or the gap does not grow.
pub fn kaslr_k_sweep(title: &str, method: ProbeMethod, ks: &[usize], seed: u64, shape: &str) {
    header(title);
    let rounds = if full_scale() { 60 } else { 20 };
    println!("rounds per point: {rounds}\n");
    let widths = [8, 16, 16, 14];
    print_row(
        &[
            "K".into(),
            "mapped (med)".into(),
            "unmapped (med)".into(),
            "gap".into(),
        ],
        &widths,
    );
    let mut gaps = Vec::new();
    for &k in ks {
        let (mapped, unmapped) =
            k_sweep_distributions(method, k, rounds, seed).expect("probe works");
        let gap = median(&unmapped) - median(&mapped);
        print_row(
            &[
                k.to_string(),
                format!("{:.0}", median(&mapped)),
                format!("{:.0}", median(&unmapped)),
                format!("{gap:.0}"),
            ],
            &widths,
        );
        gaps.push(gap);
        if k == *ks.last().expect("nonempty") {
            println!("\nK = {k} distributions (ticks):");
            println!("mapped:");
            ascii_histogram(&mapped, 8, 40);
            println!("unmapped:");
            ascii_histogram(&unmapped, 8, 40);
        }
    }
    assert!(
        gaps.last().expect("nonempty") > gaps.first().expect("nonempty"),
        "the gap must grow with K: {gaps:?}"
    );
    println!("\nshape check PASSED: {shape}.");
}

/// The upper median of `xs`.
fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    s[s.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pm(1.234, 0.56), "1.2 ± 0.6");
        assert_eq!(pct(0.924), "92.4%");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), FNV1A_BASIS);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let v = 0x0123_4567_89ab_cdefu64;
        assert_eq!(fnv1a_fold(FNV1A_BASIS, v), fnv1a(&v.to_le_bytes()));
    }

    #[test]
    fn histogram_handles_edge_cases() {
        ascii_histogram(&[], 4, 10);
        ascii_histogram(&[1.0], 4, 10);
        ascii_histogram(&[1.0, 2.0, 2.0, 3.0], 2, 10);
    }
}
