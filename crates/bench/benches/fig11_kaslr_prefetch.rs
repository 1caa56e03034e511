//! Fig. 11 — the impact of `K` on SegCnt when probing a mapped vs
//! unmapped kernel address via *prefetch* (no faults).
//!
//! Paper shape: same as Fig. 10 — a proper `K` separates the
//! distributions; prefetch needs larger K than direct access because the
//! per-probe gap is smaller, but it avoids the SIGSEGV round trip
//! entirely.

use segscope_attacks::kaslr::ProbeMethod;

fn main() {
    let ks: &[usize] = if segscope_bench::full_scale() {
        &[1, 10, 100, 1000]
    } else {
        &[1, 16, 64, 256]
    };
    segscope_bench::kaslr_k_sweep(
        "Fig. 11: SegCnt vs K, prefetch probing",
        ProbeMethod::Prefetch,
        ks,
        0xF16C,
        "a proper K separates mapped from unmapped (paper Fig. 11)",
    );
}
