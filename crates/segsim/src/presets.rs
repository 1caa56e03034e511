//! Named lookup of the Table I machine presets.
//!
//! Every entry point that selects a machine by name — the `segscope`
//! CLI's `--machine` flag, scenario params, examples — resolves through
//! [`by_name`], so the preset list exists in exactly one place.

use crate::config::MachineConfig;

/// The canonical preset names, in Table I row order.
pub const NAMES: [&str; 6] = [
    "xiaomi_air13",
    "lenovo_yangtian",
    "lenovo_savior",
    "honor_magicbook",
    "amazon_t2_large",
    "amazon_c5_large",
];

/// Resolves a Table I preset by its canonical snake_case name.
///
/// Returns `None` for unknown names; [`NAMES`] lists the accepted set.
#[must_use]
pub fn by_name(name: &str) -> Option<MachineConfig> {
    match name {
        "xiaomi_air13" => Some(MachineConfig::xiaomi_air13()),
        "lenovo_yangtian" => Some(MachineConfig::lenovo_yangtian()),
        "lenovo_savior" => Some(MachineConfig::lenovo_savior()),
        "honor_magicbook" => Some(MachineConfig::honor_magicbook()),
        "amazon_t2_large" => Some(MachineConfig::amazon_t2_large()),
        "amazon_c5_large" => Some(MachineConfig::amazon_c5_large()),
        _ => None,
    }
}

/// All presets paired with their canonical names, in Table I row order.
#[must_use]
pub fn all() -> Vec<(&'static str, MachineConfig)> {
    NAMES
        .iter()
        .map(|&n| (n, by_name(n).expect("NAMES entries resolve")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_matches_table1() {
        let table1 = MachineConfig::table1();
        assert_eq!(NAMES.len(), table1.len());
        for (named, row) in all().iter().map(|(_, m)| m).zip(table1.iter()) {
            assert_eq!(named, row);
        }
    }

    #[test]
    fn every_preset_validates() {
        for (name, machine) in all() {
            assert_eq!(machine.validate(), Ok(()), "{name}");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("cray_1").is_none());
        assert!(by_name("").is_none());
        assert!(
            by_name("Xiaomi_Air13").is_none(),
            "lookup is case-sensitive"
        );
    }
}
