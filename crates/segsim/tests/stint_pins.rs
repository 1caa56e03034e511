//! Pins of the kernel stint on the paths no golden trace reaches.
//!
//! Every golden and end-to-end workload runs with defense `none`, and no
//! trace golden exercises padding exits, AEX classification, coalescing
//! or a co-resident GS reload. This table test drives a traced machine
//! through every combination of defense × fault plan × co-resident and
//! pins three numbers per case:
//!
//! * the order-sensitive digest of the full trace (`obs::digest_events`),
//! * an FNV-1a of the serialized [`Machine::snapshot`] (clock, RNG
//!   position, fabric, counters, ground truth),
//! * the ground-truth record count.
//!
//! A refactor of the interrupt and padding paths must leave every pin
//! unchanged. On a mismatch the test prints the whole table as computed,
//! so a deliberate behaviour change can be re-pinned in one paste.

use irq::time::Ps;
use irq::{FaultPlan, InterruptKind};
use segsim::{CoResident, Defense, Machine, MachineConfig};
use x86seg::{DescriptorTables, Selector};

/// `(case, trace digest, snapshot FNV, ground-truth records)`, one row
/// per case as the failure message prints it.
#[rustfmt::skip]
const PINS: [(&str, u64, u64, usize); 18] = [
    ("none/none/alone", 0xbd6289ab4feb8e46, 0x69996a3adadd8a47, 73),
    ("none/none/co", 0xaf93460927232d6d, 0xc8925b213b7c5696, 86),
    ("none/delivery/alone", 0x80bfdd47808c5d97, 0x937af6a381a079e0, 99),
    ("none/delivery/co", 0x2708ccd9157dca31, 0xe8726b72a8e51b1a, 88),
    ("none/timing/alone", 0x97a4d0c562c695c9, 0xe4adaeb6a3862aef, 79),
    ("none/timing/co", 0xf2b9eec0d661a8e8, 0x683aa2c7d394eabc, 86),
    ("quanshield/none/alone", 0x709c33b15b704cce, 0xa1c04fae133e1bcf, 73),
    ("quanshield/none/co", 0x1e1c3aa1ec748b5e, 0x6d579f2ea7e12215, 86),
    ("quanshield/delivery/alone", 0xbf9abe006cff939b, 0xfa50cb81a6a626f2, 86),
    ("quanshield/delivery/co", 0x2f8c80057b89ac32, 0xe7c286901fc41c59, 91),
    ("quanshield/timing/alone", 0xc9b789164321898d, 0xdf7fee2cd0347d55, 79),
    ("quanshield/timing/co", 0x15ea83e09d7bd659, 0x6d04d904039f1ce9, 86),
    ("padding/none/alone", 0xbffafc6a00db0300, 0x6becbef2c726eb4a, 93),
    ("padding/none/co", 0xf39350465d2ddf70, 0x1d97630641b66dda, 119),
    ("padding/delivery/alone", 0x1b5bc8f903da230b, 0x4d120a7f7e65e309, 105),
    ("padding/delivery/co", 0x31f363de8547f35c, 0x3532ee1839fa80bb, 125),
    ("padding/timing/alone", 0x406e0f673336681d, 0xff4f2cce1d19b4e7, 105),
    ("padding/timing/co", 0xfc9d38a6557180b7, 0xb0cb2fa603acd605, 119),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs one case and returns its `(trace digest, snapshot FNV, records)`.
fn run_case(
    defense: Defense,
    plan: Option<FaultPlan>,
    co_resident: bool,
    seed: u64,
) -> (u64, u64, usize) {
    let mut cfg = MachineConfig::default().with_defense(defense);
    if let Some(plan) = plan {
        cfg = cfg.with_fault_plan(plan);
    }
    let mut m = Machine::new(cfg, seed);
    m.install_trace_sink(obs::TraceSink::with_capacity(1 << 16));
    if co_resident {
        m.set_co_resident(Some(CoResident {
            gs_reload: Some(DescriptorTables::user_data_selector()),
            gs_reload_prob: 0.5,
            ..CoResident::browser()
        }));
    }
    // Device bursts: a second interrupt inside the first one's handler
    // cascades; a third 400 µs later merges only under a coalescing
    // window.
    m.inject_interrupts((0..30u64).flat_map(|k| {
        let at = Ps::from_us(3_100 * k + 700);
        [
            (at, InterruptKind::Network),
            (at + Ps::from_ns(200), InterruptKind::Keyboard),
            (at + Ps::from_us(400), InterruptKind::Gpu),
        ]
    }));
    if matches!(defense, Defense::QuanShield) {
        assert!(m.enter_enclave());
    }
    for round in 0..24u16 {
        // The analytic integrator: a marker, then a bounded span.
        m.wrgs(Selector::from_bits(1 + round % 3)).unwrap();
        let deadline = m.now() + Ps::from_us(2_500);
        let _ = m.run_user_until(deadline);
        // The observed selector feeds the workload, so a co-resident GS
        // reload (a valid selector the scrub keeps) moves every pin.
        let gs = m.rdgs();
        m.spin(1_000 + u64::from(gs.bits()));
        // The op integrator: a spin long enough to cross deliveries.
        m.spin(3_000_000);
        // Many short ops, so SMT bursts (drawn per op) start and end.
        for _ in 0..40 {
            m.spin(20_000);
        }
        if round % 6 == 5 {
            let _ = m.run_user_until(Ps::MAX);
        }
    }
    if plan.is_some_and(|p| p.coalesce_window > Ps::ZERO) {
        assert!(m.fault_log().coalesced > 0, "the storm must coalesce");
    }
    if plan.is_some_and(|p| p.smt_burst_prob > 0.0) {
        assert!(m.fault_log().bursts > 0, "the storm must burst");
    }
    let sink = m.take_trace_sink().expect("sink installed");
    assert_eq!(sink.dropped(), 0, "the ring must hold the whole trace");
    let digest = obs::digest_events(&sink.events());
    let snapshot = serde_json::to_string(&m.snapshot()).expect("snapshot serializes");
    (digest, fnv1a(snapshot.as_bytes()), m.ground_truth().len())
}

#[test]
fn kernel_stint_paths_are_pinned() {
    let defenses = [
        ("none", Defense::None),
        ("quanshield", Defense::QuanShield),
        ("padding", Defense::default_padding()),
    ];
    let plans = [
        ("none", None),
        ("delivery", Some(FaultPlan::delivery_storm())),
        ("timing", Some(FaultPlan::timing_storm())),
    ];
    let mut actual = Vec::new();
    for (d, (dname, defense)) in defenses.iter().enumerate() {
        for (p, (pname, plan)) in plans.iter().enumerate() {
            for co in [false, true] {
                let seed = 0x5717 + (d * 6 + p * 2 + usize::from(co)) as u64;
                let (digest, snap, records) = run_case(*defense, *plan, co, seed);
                let name = format!("{dname}/{pname}/{}", if co { "co" } else { "alone" });
                actual.push((name, digest, snap, records));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, digest, snap, records)| {
            format!("    (\"{name}\", {digest:#018x}, {snap:#018x}, {records}),\n")
        })
        .collect();
    let matches = actual.len() == PINS.len()
        && actual
            .iter()
            .zip(PINS.iter())
            .all(|(a, p)| a.0 == p.0 && a.1 == p.1 && a.2 == p.2 && a.3 == p.3);
    assert!(matches, "kernel stint pins moved; computed table:\n{table}");
}
