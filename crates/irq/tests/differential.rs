//! Differential conformance: the cached-head [`InterruptFabric`]
//! against the uncached linear-scan [`NaiveFabric`] oracle, driven
//! by generated operation sequences (same style as the
//! `crates/conformance` op generator).
//!
//! Both fabrics consume identically seeded RNGs. After every op the
//! cached head must equal the oracle's fresh scan, delivered
//! events must be bit-identical, and — the property that catches hidden
//! maintenance draws — both RNG streams must end at the same position.

use irq::time::Ps;
use irq::{FaultLog, FaultPlan, FaultedPop, InterruptFabric, InterruptKind, NaiveFabric};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const INJECT_KINDS: [InterruptKind; 4] = [
    InterruptKind::Network,
    InterruptKind::Gpu,
    InterruptKind::Keyboard,
    InterruptKind::Other,
];

/// One step of the interleaving, decoded from an opcode stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Pop,
    PopWithFaults,
    Inject { delta: Ps, kind: InterruptKind },
    SetEnabled { src: usize, enabled: bool },
    SetTimerHz { hz: f64 },
}

/// Number of sources the paired fabrics are built with (timer + three
/// Poisson devices).
const SOURCES: usize = 4;

/// Decodes raw opcodes into ops, drawing parameters from a dedicated
/// generator rng (so parameter choice never touches the fabric streams).
fn decode_ops(codes: &[u8], seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    codes
        .iter()
        .map(|code| match code % 8 {
            // Pops dominate so sequences actually advance time.
            0..=2 => Op::Pop,
            3 | 4 => Op::PopWithFaults,
            5 => Op::Inject {
                delta: Ps::from_us(rng.gen_range(0u64..2_000)),
                kind: INJECT_KINDS[rng.gen_range(0..INJECT_KINDS.len())],
            },
            6 => Op::SetEnabled {
                src: rng.gen_range(0..SOURCES),
                enabled: rng.gen::<bool>(),
            },
            _ => Op::SetTimerHz {
                hz: [250.0, 1000.0, 4000.0][rng.gen_range(0usize..3)],
            },
        })
        .collect()
}

/// Applies `ops` to a cached-head fabric and a naive-scan oracle in
/// lockstep, asserting identical deliveries, identical cached-vs-scanned
/// heads, identical fault logs, and identical final RNG positions.
fn assert_differential(ops: &[Op], seed: u64) {
    let mut fab_rng = SmallRng::seed_from_u64(seed ^ 0xD1FF_5EED);
    let mut nai_rng = SmallRng::seed_from_u64(seed ^ 0xD1FF_5EED);
    let mut fab = InterruptFabric::new();
    let mut nai = NaiveFabric::new();
    let mut fab_ids = vec![fab.add_periodic_timer(1000.0, Ps::from_ns(500), &mut fab_rng)];
    let mut nai_ids = vec![nai.add_periodic_timer(1000.0, Ps::from_ns(500), &mut nai_rng)];
    for (kind, rate) in [
        (InterruptKind::PerfMon, 80.0),
        (InterruptKind::Resched, 200.0),
        (InterruptKind::Network, 500.0),
    ] {
        fab_ids.push(fab.add_poisson(kind, rate, &mut fab_rng));
        nai_ids.push(nai.add_poisson(kind, rate, &mut nai_rng));
    }
    let plan = FaultPlan {
        drop_prob: 0.25,
        duplicate_prob: 0.25,
        duplicate_delay: Ps::from_us(7),
        ..FaultPlan::none()
    };
    let mut fab_log = FaultLog::default();
    let mut nai_log = FaultLog::default();
    let mut now = Ps::ZERO;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Pop => {
                let a = fab.pop(&mut fab_rng);
                let b = nai.pop(&mut nai_rng);
                assert_eq!(a, b, "pop diverged at step {step}");
                if let Some(ev) = a {
                    now = now.max(ev.at);
                }
            }
            Op::PopWithFaults => {
                let a = fab.pop_with_faults(&plan, &mut fab_log, &mut fab_rng);
                let b = nai.pop_with_faults(&plan, &mut nai_log, &mut nai_rng);
                assert_eq!(a, b, "pop_with_faults diverged at step {step}");
                if let Some(FaultedPop::Delivered(ev) | FaultedPop::Dropped(ev)) = a {
                    now = now.max(ev.at);
                }
            }
            Op::Inject { delta, kind } => {
                let at = now.checked_add(delta).unwrap_or(Ps::MAX);
                fab.inject(at, kind);
                nai.inject(at, kind);
            }
            Op::SetEnabled { src, enabled } => {
                fab.set_enabled(fab_ids[src], enabled, now, &mut fab_rng);
                nai.set_enabled(nai_ids[src], enabled, now, &mut nai_rng);
            }
            Op::SetTimerHz { hz } => {
                fab.set_timer_hz(fab_ids[0], hz, now, &mut fab_rng);
                nai.set_timer_hz(nai_ids[0], hz, now, &mut nai_rng);
            }
        }
        assert_eq!(
            fab.peek_next(),
            nai.peek_next(),
            "cached head diverged from the scan after step {step} ({op:?})"
        );
        assert_eq!(
            fab.injected_backlog(),
            nai.injected_backlog(),
            "injected backlog diverged after step {step}"
        );
    }
    assert_eq!(fab_log, nai_log, "fault logs diverged");
    assert_eq!(
        fab_rng.gen::<u64>(),
        nai_rng.gen::<u64>(),
        "RNG streams ended at different positions"
    );
}

/// Conformance-generator style: long fixed-seed opcode streams across
/// many seeds, so CI covers deep interleavings deterministically.
#[test]
fn generated_sequences_match_oracle() {
    for seed in 0..40u64 {
        let mut gen_rng = SmallRng::seed_from_u64(0xCA1E_0000 + seed);
        let codes: Vec<u8> = (0..300).map(|_| gen_rng.gen::<u8>()).collect();
        let ops = decode_ops(&codes, 0xDEC0_0000 + seed);
        assert_differential(&ops, seed);
    }
}

/// Same-instant injections interleaved with pops: exercises the
/// kind-ordered tie-break inside the injected heap and the cached-head
/// displacement rule.
#[test]
fn simultaneous_injection_storm_matches_oracle() {
    for seed in 0..10u64 {
        let mut ops = Vec::new();
        for i in 0..60usize {
            ops.push(Op::Inject {
                delta: Ps::from_us((i % 5) as u64 * 100),
                kind: INJECT_KINDS[i % INJECT_KINDS.len()],
            });
            ops.push(Op::Inject {
                delta: Ps::from_us((i % 5) as u64 * 100),
                kind: INJECT_KINDS[(i + 2) % INJECT_KINDS.len()],
            });
            ops.push(Op::Pop);
        }
        assert_differential(&ops, 0xF10D + seed);
    }
}

proptest! {
    /// Random interleavings of inject / pop / set_enabled / set_timer_hz
    /// / pop_with_faults keep the cached-head fabric and the naive oracle in
    /// lockstep: identical deliveries and identical RNG positions.
    #[test]
    fn random_interleavings_match_oracle(
        codes in prop::collection::vec(0u8..=255, 1..150),
        seed in 0u64..100_000,
    ) {
        let ops = decode_ops(&codes, seed.wrapping_mul(0x9E37_79B9));
        assert_differential(&ops, seed);
    }
}
