//! Branch-free lane `tanh` for the LSTM gate step.
//!
//! [`tanh8`] computes, for every `f32` input, the same bits as the host
//! libm's `tanhf` (glibc 2.36 on x86-64, the fdlibm single-precision
//! `tanhf` over `expm1f`), eight elements at a time. Each element runs
//! every path of the reference and picks its result with selects, so
//! the compiler turns the body into SIMD compares and masks instead of
//! the data-dependent branches libm takes per call.
//!
//! Only `+ − × ÷` and integer adds to exponent bits appear, in the
//! reference's operation order (`a - b` for the reference's `a + (-b)`
//! is the same IEEE operation). Nothing else is assumed: the tests
//! compare against `f32::tanh` bit for bit, exhaustively over all 2^32
//! inputs in the ignored `lane_tanh_matches_libm_on_every_bit_pattern`.

/// Elements per [`tanh8`] call.
pub(crate) const LANES: usize = 8;

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `tanhf`'s `tiny`: `1 - TINY` rounds to 1, with the inexact flag.
const TINY: f32 = 1.0e-30;
/// `1.5 · 2^23`: adding it rounds any `|v| < 2^22` to an integer, whose
/// value the sum's low mantissa bits then hold.
const ROUND: f32 = 12_582_912.0;

/// Replaces each element of `xs` with its `tanh`, bit-identical to
/// `f32::tanh` on the host libm for every input, NaNs included.
pub(crate) fn tanh8(xs: &mut [f32; LANES]) {
    for x in xs.iter_mut() {
        *x = tanh(*x);
    }
}

/// `tanhf`: `±0` and `|x| < 2^-55` give `x·(1 + x)`; `|x| < 1` gives
/// `-t/(t + 2)` with `t = expm1f(-2|x|)`; `1 ≤ |x| < 22` gives
/// `1 - 2/(t + 2)` with `t = expm1f(2|x|)`; `|x| ≥ 22` and `±inf` give
/// `±(1 - TINY)`; NaN gives the quieted NaN (`1/x ± 1` in the reference,
/// the same bits as `x + x`). The sign is restored from `x`'s sign bit.
#[inline(always)]
fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // expm1's argument is `-2|x|` below 1 and `2|x|` above (`|x|·-2` and
    // `|x| + |x|` in the reference; both exact, so only the sign differs).
    let small = mask(ix < 0x3f80_0000);
    let t = expm1(ax + ax, small);
    // One division for both branches: `-t/(t + 2)` or `2/(t + 2)`.
    let num = select(small, -t, 2.0);
    let q = num / (t + 2.0);
    let z = select(small, q, 1.0 - q);
    let z = select(mask(ix >= 0x41b0_0000), 1.0 - TINY, z);
    let z = f32::from_bits(z.to_bits() ^ (jx & 0x8000_0000));
    let z = select(mask(ix < 0x2400_0000), (1.0 + x) * x, z);
    select(mask(ix > 0x7f80_0000), x + x, z)
}

/// All ones where `c` holds, else zero.
#[inline(always)]
fn mask(c: bool) -> u32 {
    0u32.wrapping_sub(u32::from(c))
}

/// `a` where `mask` is all ones, `b` where it is zero, by bit operations
/// (a branch-free blend).
#[inline(always)]
fn select(mask: u32, a: f32, b: f32) -> f32 {
    f32::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// `expm1f(a)` for `|a| = aa` and `a`'s sign bit set where `neg` is all
/// ones, on the arguments [`tanh`] passes it: `[2, 44)` and
/// `[-2, -2^-54]`. There the reduction `k` is `0` below `0.5 ln2`, `-1`
/// up to `1.5 ln2` and `trunc(a/ln2 ± 0.5)` beyond, so it takes the
/// values `-3..=0` and `3..=63`; the reference's `k == 1` tail and its
/// `|a| ≥ 27 ln2` negative and overflow exits are never reached.
#[inline(always)]
fn expm1(aa: f32, neg: u32) -> f32 {
    let ha = aa.to_bits();
    let sign = neg & 0x8000_0000;
    let a = f32::from_bits(ha | sign);
    // `(int)(invln2·a ± 0.5)`: `|v|` is `invln2·|a| + 0.5` (the
    // reference's operations, mirrored), floored by rounding through
    // ROUND and stepping down where that rounded up.
    let w = INVLN2 * aa + 0.5;
    let r = (w + ROUND) - ROUND;
    let m = r - select(mask(r > w), 1.0, 0.0);
    let m = select(mask(ha < 0x3f85_1592), 1.0, m);
    let m = f32::from_bits(m.to_bits() & !mask(ha <= 0x3eb1_7218));
    let kf = f32::from_bits(m.to_bits() | sign);
    let k = (kf + ROUND).to_bits().wrapping_sub(ROUND.to_bits()) as i32;
    // `k = ±1` reduces by `a ∓ ln2_hi` and `±ln2_lo` in the reference:
    // the same operations as the general form at `kf = ±1`; at `k = 0`
    // this leaves `x = a`.
    let hi = a - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let near = x - (x * e - hxs);
    let e = (x * (e - c) - c) - hxs;
    let half = 0.5 * (x - e) - 0.5;
    // `y · 2^k` by adding `k` to `y`'s exponent bits.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23));
    // `2^-k`; `1 - 2^-k` is exact and has the reference's bit pattern
    // `0x3f800000 - (0x1000000 >> k)`.
    let p = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32) << 23);
    let far = scale(1.0 - (e - x)) - 1.0;
    let low = scale((1.0 - p) - (e - x));
    let mid = scale((x - (e + p)) + 1.0);
    let above = select(mask(k < 23), low, select(mask(k > 56), far, mid));
    let below = select(mask(k == 0), near, select(mask(k == -1), half, far));
    select(mask(ha < 0x3300_0000), a, select(neg, below, above))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs [`tanh8`] over `bits` and returns the first input whose output
    /// differs from `f32::tanh` by bit pattern, with both outputs.
    fn first_mismatch(bits: impl Iterator<Item = u32>) -> Option<(u32, u32, u32)> {
        let mut block = [0u32; LANES];
        let mut n = 0;
        let check = |block: &[u32]| {
            let mut xs = [0.0f32; LANES];
            for (x, &b) in xs.iter_mut().zip(block) {
                *x = f32::from_bits(b);
            }
            tanh8(&mut xs);
            block.iter().zip(xs).find_map(|(&b, got)| {
                let want = f32::from_bits(b).tanh().to_bits();
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
                "tanh({:e}) [{b:#010x}]: lane {got:#010x}, libm {want:#010x}",
                f32::from_bits(b)
            );
        }
    }

    /// Every 4099th bit pattern, counted from each end of the range: two
    /// sweeps of about a million inputs each, over every sign, exponent
    /// and branch.
    #[test]
    fn lane_tanh_matches_libm_on_a_strided_sweep() {
        assert_matches((0..=u32::MAX).step_by(4099));
        assert_matches((0..=u32::MAX).rev().step_by(4099));
    }

    /// ±64 ULPs around each threshold of `tanhf` and of `expm1f` mapped
    /// back to `x`, for both signs.
    #[test]
    fn lane_tanh_matches_libm_around_every_branch_threshold() {
        // `tanhf` on `|x|`: 2^-55, 1, 22 and the top finite value.
        let tanh_edges = [0x2400_0000u32, 0x3f80_0000, 0x41b0_0000, 0x7f7f_ffff];
        // `expm1f` on `|a| = 2|x|`: 2^-25, 0.5 ln2, 1.5 ln2 and the
        // points `(m - 1/2) ln2` where `trunc(a/ln2 ± 0.5)` steps, which
        // include the `k = 23` and `k = 57` tail switches.
        let mut a_edges: Vec<f32> = vec![
            f32::from_bits(0x3300_0000),
            f32::from_bits(0x3eb1_7218),
            f32::from_bits(0x3f85_1592),
        ];
        a_edges.extend((2..=64).map(|m| (m as f32 - 0.5) * std::f32::consts::LN_2));
        let edges = tanh_edges
            .into_iter()
            .chain(a_edges.into_iter().map(|a| (a / 2.0).to_bits()));
        for edge in edges {
            for sign in [0, 0x8000_0000] {
                let lo = edge.saturating_sub(64);
                let hi = (edge + 64).min(0x7f7f_ffff);
                assert_matches((lo..=hi).map(|b| b | sign));
            }
        }
    }

    /// ±0, ±inf, NaNs of both signs and both kinds, and subnormals.
    #[test]
    fn lane_tanh_matches_libm_on_special_values() {
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
    fn lane_tanh_matches_libm_on_every_bit_pattern() {
        let halves = std::thread::scope(|s| {
            let lo = s.spawn(|| first_mismatch(0..=0x7fff_ffff));
            let hi = s.spawn(|| first_mismatch(0x8000_0000..=u32::MAX));
            [lo.join().unwrap(), hi.join().unwrap()]
        });
        assert_eq!(halves, [None, None], "(input, lane, libm) bits");
    }
}
