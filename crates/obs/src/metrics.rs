//! Counter / phase-scope registry.
//!
//! Everything here is keyed by `&'static str`-style names stored as
//! `String`s in `BTreeMap`s, so iteration order — and therefore the
//! exporter's output — is deterministic. Phase durations are measured
//! in **simulated** picoseconds supplied by the caller; the registry
//! never consults a clock of its own.

use std::collections::BTreeMap;

/// Aggregate timing of one named phase (calibration, probing,
/// classification, …) across all its scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Times the phase ran.
    pub calls: u64,
    /// Total simulated time inside the phase, ps.
    pub total_ps: u64,
}

/// The registry: named counters and phase stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    phases: BTreeMap<String, PhaseStats>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            counters: BTreeMap::new(),
            phases: BTreeMap::new(),
        }
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn incr(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Current value of counter `name` (zero if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one completed scope of phase `name` spanning
    /// `[start_ps, end_ps]` in simulated time. `end_ps < start_ps` is
    /// treated as a zero-length scope rather than a panic, so malformed
    /// spans can't poison a run.
    pub fn phase(&mut self, name: &str, start_ps: u64, end_ps: u64) {
        let entry = self.phases.entry(name.to_owned()).or_insert(PhaseStats {
            calls: 0,
            total_ps: 0,
        });
        entry.calls += 1;
        entry.total_ps += end_ps.saturating_sub(start_ps);
    }

    /// Stats for phase `name`, if it ever ran.
    #[must_use]
    pub fn phase_stats(&self, name: &str) -> Option<PhaseStats> {
        self.phases.get(name).copied()
    }

    /// All counters, name-ordered.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All phases, name-ordered.
    #[must_use]
    pub fn phases(&self) -> &BTreeMap<String, PhaseStats> {
        &self.phases
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.phases.is_empty()
    }

    /// Folds `other` into this registry (counters add, phases merge
    /// element-wise).
    pub fn merge(&mut self, other: &Metrics) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, stats) in &other.phases {
            let entry = self.phases.entry(name.clone()).or_insert(PhaseStats {
                calls: 0,
                total_ps: 0,
            });
            entry.calls += stats.calls;
            entry.total_ps += stats.total_ps;
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_phases_accumulate() {
        let mut m = Metrics::new();
        m.incr("probe.samples", 3);
        m.incr("probe.samples", 2);
        assert_eq!(m.counter("probe.samples"), 5);
        assert_eq!(m.counter("missing"), 0);
        m.phase("calibrate", 100, 400);
        m.phase("calibrate", 1000, 1600);
        let stats = m.phase_stats("calibrate").unwrap();
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.total_ps, 900);
        // Inverted span counts as zero length, not a panic.
        m.phase("calibrate", 50, 10);
        assert_eq!(m.phase_stats("calibrate").unwrap().total_ps, 900);
    }

    #[test]
    fn merge_folds_every_family() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.incr("c", 1);
        b.incr("c", 2);
        b.incr("only_b", 4);
        a.phase("p", 0, 10);
        b.phase("p", 0, 30);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 4);
        let p = a.phase_stats("p").unwrap();
        assert_eq!(p.calls, 2);
        assert_eq!(p.total_ps, 40);
    }
}
