//! Fig. 10 — the impact of `K` on SegCnt when *directly accessing* a
//! mapped vs unmapped kernel address (segment faults absorbed by a user
//! handler).
//!
//! Paper shape: at K = 1 the distributions overlap; at K = 1000 the
//! repeated accesses amplify the per-probe timing gap far past the
//! SegScope timer's noise floor, so the distributions separate cleanly.

use segscope_attacks::kaslr::ProbeMethod;

fn main() {
    let ks: &[usize] = if segscope_bench::full_scale() {
        &[1, 10, 100, 1000]
    } else {
        &[1, 10, 100, 400]
    };
    segscope_bench::kaslr_k_sweep(
        "Fig. 10: SegCnt vs K, direct-access probing",
        ProbeMethod::Access,
        ks,
        0xF16B,
        "gap amplifies with K (paper Fig. 10)",
    );
}
