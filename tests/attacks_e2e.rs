//! End-to-end case-study integration tests (reduced scales of the
//! paper's Section IV experiments).

use segscope_repro::attacks::kaslr::{
    KaslrConfig, KaslrError, KaslrResult, KaslrScenario, KaslrScenarioConfig, ProbeMethod,
};
use segscope_repro::attacks::spectral::{
    SpectralConfig, SpectralMode, SpectralScenario, SpectralScenarioConfig,
};
use segscope_repro::attacks::spectre::{SpectreConfig, SpectreScenario, SpectreScenarioConfig};
use segscope_repro::attacks::website::{collect_trace, Browser, Setting, WebsiteFpConfig};
use segscope_repro::scenario::Scenario;
use segscope_repro::segsim::MachineConfig;

/// One KASLR break of `attack` on `machine` at `seed`.
fn break_kaslr(
    machine: MachineConfig,
    attack: KaslrConfig,
    seed: u64,
) -> Result<KaslrResult, KaslrError> {
    KaslrScenario.run_one(&KaslrScenarioConfig { machine, attack }, seed)
}

/// Paper C2: SegScope filtering cuts Spectral's interrupt-induced error
/// rate by well over an order of magnitude.
#[test]
fn spectral_error_reduction_holds() {
    let (attack, bits) = (SpectralConfig::paper_default(), 20_000);
    let run_attack =
        |mode| SpectralScenario.run_one(&SpectralScenarioConfig { attack, mode, bits }, 0xE2E1);
    let original = run_attack(SpectralMode::Original);
    let enhanced = run_attack(SpectralMode::Enhanced);
    assert!(
        original.error_rate > 0.001,
        "original error {}",
        original.error_rate
    );
    assert!(
        enhanced.error_rate * 10.0 < original.error_rate,
        "reduction too weak: {} -> {}",
        original.error_rate,
        enhanced.error_rate
    );
}

/// Paper C3: KASLR falls to the SegScope timer in ~10–20 simulated
/// seconds at C = 5 — with `CR4.TSD` set, so no architectural timer was
/// available.
#[test]
fn kaslr_breaks_under_timer_constraints() {
    let config = KaslrConfig {
        c: 5,
        ..KaslrConfig::paper_default()
    };
    let machine = MachineConfig::xiaomi_air13().with_cr4_tsd(true);
    let result = break_kaslr(machine, config, 0xE2E2).expect("segscope timer works");
    assert!(result.top_n_hit(5), "secret not in top-5");
    assert!(
        result.elapsed_s < 60.0,
        "attack should take tens of seconds, took {:.1}",
        result.elapsed_s
    );
}

/// Both probing methods work (paper Figs. 10 and 11 — access and
/// prefetch).
#[test]
fn both_kaslr_methods_work() {
    for method in [ProbeMethod::Access, ProbeMethod::Prefetch] {
        let config = KaslrConfig {
            method,
            c: 5,
            slots: 128,
            ..KaslrConfig::paper_default()
        };
        let result = break_kaslr(MachineConfig::lenovo_yangtian(), config, 0xE2E3).expect("works");
        assert!(result.top_n_hit(5), "{method:?}: secret missed");
    }
}

/// Paper Section IV-F: a short secret leaks through Spectre + F+R with
/// the SegScope timer, majority-correct.
#[test]
fn spectre_leaks_bytes() {
    let (attack, secret) = (SpectreConfig::quick(), "OK".to_owned());
    let result = SpectreScenario.run_one(&SpectreScenarioConfig { attack, secret }, 0xE2E4);
    let result = result.expect("leak runs");
    assert!(
        result.success_rate >= 0.5,
        "success {}",
        result.success_rate
    );
}

/// Website traces are reproducible per (site, seed) and distinct across
/// sites — the property the classifier depends on.
#[test]
fn website_traces_are_deterministic_and_site_specific() {
    let config = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
    let a1 = collect_trace(&config, 3, 42);
    let a2 = collect_trace(&config, 3, 42);
    assert_eq!(a1, a2, "same site + seed => identical trace");
    let b = collect_trace(&config, 4, 42);
    assert_ne!(a1, b, "different sites => different traces");
}

/// Tor and Chrome produce measurably different traces for the same site
/// (the defense degrades but does not erase the signal — paper
/// Table IV).
#[test]
fn tor_changes_the_signal_without_erasing_it() {
    let chrome_cfg = WebsiteFpConfig::quick(Browser::Chrome, Setting::DifferentCores);
    let tor_cfg = WebsiteFpConfig::quick(Browser::Tor, Setting::DifferentCores);
    let chrome = collect_trace(&chrome_cfg, 5, 99);
    let tor = collect_trace(&tor_cfg, 5, 99);
    assert_ne!(chrome, tor);
    // Both traces still carry activity (non-constant SegCnt).
    let spread = |xs: &[f64]| {
        let mn = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let mx = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        mx - mn
    };
    assert!(spread(&chrome) > 0.0);
    assert!(spread(&tor) > 0.0);
}
