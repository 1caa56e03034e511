//! Lane `sigmoid` for the LSTM gate step.
//!
//! [`sigmoid8`] computes `1/(1 + expf(-x))` eight elements at a time,
//! bit-identical to that scalar form over the host libm (glibc 2.36 on
//! x86-64-v3, whose `expf` resolves to `__expf_fma`). The `expf` is a
//! port of that function's core path: `x·N/ln2 = k + r` rounded through
//! `SHIFT`, `2^(k/N)` from a 32-entry table, and a cubic in `r` for
//! `2^(r/N)`, all in `f64`. GCC contracts all five multiply-adds of the
//! core path into FMAs in that build, so the port fuses the same five
//! with `f64::mul_add`; fusing fewer, or none (glibc's generic `expf`),
//! gives different bits on a few inputs. The build targets x86-64-v3
//! (`.cargo/config.toml`), where `mul_add` is one `vfmadd`.
//!
//! `expf`'s special cases (`|x| ≥ 88`, infinities, NaN) are not ported:
//! a chunk holding any such argument is recomputed by the scalar libm
//! form instead, which keeps its overflow, underflow and NaN bits exact.
//! The tests compare against the scalar form bit for bit, exhaustively
//! over all 2^32 inputs in the ignored
//! `lane_sigmoid_matches_libm_on_every_bit_pattern`.

use crate::tanh::LANES;

/// `2^(i/32)` as `f64` bits, less `i << 47` (so that adding `k << 47`
/// for `k ≡ i (mod 32)` scales it by `2^(k div 32)`): glibc's
/// `__exp2f_data.tab`.
const TAB: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// `N/ln2` with `N = 32`.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2^52`: adding it rounds `|z| < 2^51` to an integer, whose
/// value the sum's low mantissa bits then hold.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic's coefficients, scaled by `1/N³`, `1/N²` and `1/N`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `88.0f32`: `expf` leaves its core path at `|x| ≥ 88` and for NaN.
const EDGE: u32 = 0x42b0_0000;

/// The scalar form [`sigmoid8`] reproduces, over libm's `expf`.
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Replaces each element of `xs` with its sigmoid, bit-identical to
/// [`sigmoid`] on the host libm for every input, NaNs included.
pub(crate) fn sigmoid8(xs: &mut [f32; LANES]) {
    let mut e = [0.0f32; LANES];
    let mut edge = false;
    for (e, &x) in e.iter_mut().zip(xs.iter()) {
        edge |= x.to_bits() & 0x7fff_ffff >= EDGE;
        *e = expf(-x);
    }
    if edge {
        xs.iter_mut().for_each(|x| *x = sigmoid(*x));
    } else {
        for (x, e) in xs.iter_mut().zip(e) {
            *x = 1.0 / (1.0 + e);
        }
    }
}

/// `__expf_fma`'s core path, exact for `|x| < 88`; any bits elsewhere.
#[inline(always)]
fn expf(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r * r, y);
    (y * s) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs [`sigmoid8`] over `bits` and returns the first input whose
    /// output differs from [`sigmoid`] by bit pattern, with both outputs.
    fn first_mismatch(bits: impl Iterator<Item = u32>) -> Option<(u32, u32, u32)> {
        let mut block = [0u32; LANES];
        let mut n = 0;
        let check = |block: &[u32]| {
            let mut xs = [0.0f32; LANES];
            for (x, &b) in xs.iter_mut().zip(block) {
                *x = f32::from_bits(b);
            }
            sigmoid8(&mut xs);
            block.iter().zip(xs).find_map(|(&b, got)| {
                let want = sigmoid(f32::from_bits(b)).to_bits();
                (got.to_bits() != want).then_some((b, got.to_bits(), want))
            })
        };
        for b in bits {
            block[n] = b;
            n += 1;
            if n == LANES {
                if let Some(m) = check(&block) {
                    return Some(m);
                }
                n = 0;
            }
        }
        check(&block[..n])
    }

    fn assert_matches(bits: impl Iterator<Item = u32>) {
        if let Some((b, got, want)) = first_mismatch(bits) {
            panic!(
                "sigmoid({:e}) [{b:#010x}]: lane {got:#010x}, libm {want:#010x}",
                f32::from_bits(b)
            );
        }
    }

    /// The port is only as fast as the build's FMA: without the
    /// x86-64-v3 target (say, an environment `RUSTFLAGS` that overrides
    /// `.cargo/config.toml`), `mul_add` becomes a libm call per use.
    /// A run-time assert, so such a build fails this one test instead
    /// of failing to compile the others.
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn build_targets_fma_and_avx2() {
        assert!(cfg!(target_feature = "fma"), "built without FMA");
        assert!(cfg!(target_feature = "avx2"), "built without AVX2");
    }

    /// The `expf` port itself equals libm on every 1021st input below 88
    /// in magnitude, both signs, and on the two inputs where glibc's FMA
    /// and generic `expf` differ.
    #[test]
    fn lane_expf_matches_libm_below_88() {
        let bits = (0..EDGE).step_by(1021).map(f32::from_bits);
        for x in bits.flat_map(|x| [x, -x]).chain([32.564_632, -63.099_46]) {
            assert_eq!(expf(x).to_bits(), x.exp().to_bits(), "expf({x:e})");
        }
    }

    /// Every 4099th bit pattern, counted from each end of the range.
    #[test]
    fn lane_sigmoid_matches_libm_on_a_strided_sweep() {
        assert_matches((0..=u32::MAX).step_by(4099));
        assert_matches((0..=u32::MAX).rev().step_by(4099));
    }

    /// ±4096 ULPs around ±88, where a chunk falls back to libm, in
    /// chunks that lie on one side of the edge and in chunks that mix
    /// both sides.
    #[test]
    fn lane_sigmoid_matches_libm_around_the_edge() {
        for sign in [0, 0x8000_0000] {
            assert_matches((EDGE - 4096..EDGE + 4096).map(|b| b | sign));
            assert_matches((EDGE - 4093..EDGE + 4099).map(|b| b | sign));
        }
    }

    /// ±0, ±inf, NaNs of both signs and both kinds, and subnormals.
    #[test]
    fn lane_sigmoid_matches_libm_on_special_values() {
        let specials = [0u32, 0x7f80_0000, 0x7fc0_0000, 0x7f80_0001, 0x7fff_ffff]
            .into_iter()
            .chain((0..=0x007f_ffff).step_by(977))
            .chain([1, 0x007f_ffff, 0x0080_0000]);
        assert_matches(specials.flat_map(|b| [b, b | 0x8000_0000]));
    }

    /// The exhaustive proof: all 2^32 bit patterns, NaNs included, on two
    /// threads. About a minute in release; CI runs it there.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn lane_sigmoid_matches_libm_on_every_bit_pattern() {
        let halves = std::thread::scope(|s| {
            let lo = s.spawn(|| first_mismatch(0..=0x7fff_ffff));
            let hi = s.spawn(|| first_mismatch(0x8000_0000..=u32::MAX));
            [lo.join().unwrap(), hi.join().unwrap()]
        });
        assert_eq!(halves, [None, None], "(input, lane, libm) bits");
    }
}
