//! The declarative campaign grid: what to sweep, and its expansion
//! into a flat, stably-indexed cell list.
//!
//! A [`CampaignSpec`] names five axes — scenarios, machine presets,
//! fault-plan variants, countermeasure ([`Defense`]) variants, and a
//! replicate (seed) range — plus the campaign seed every cell seed
//! derives from. [`CampaignSpec::expand`] multiplies the axes out into
//! [`CampaignCell`]s in a fixed nesting order (scenario, outermost →
//! preset → fault → defense → replicate, innermost), so a cell's flat
//! index — and therefore its derived experiment seed
//! `exec::derive_seed(campaign_seed, index)` — depends only on the spec,
//! never on how the cells are later sharded or scheduled.
//!
//! Backwards compatibility: the defense axis deserializes permissively —
//! a spec JSON without a `defenses` key parses as the single-entry
//! `[none]` axis, which keeps every pre-defense cell index, seed, and
//! derived result unchanged.

use scenario::Registry;
use segsim::{Defense, FaultPlan};
use serde::{Deserialize, Serialize, Value};

use crate::CampaignError;

/// One entry of the scenario axis: a registry name plus an optional
/// params override (`None` = the scenario's defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSel {
    /// Registry name of the scenario (`segscope list --names`).
    pub scenario: String,
    /// Params override; `None` uses the scenario's default config.
    pub params: Option<Value>,
}

impl ScenarioSel {
    /// Selects `scenario` with its default params.
    #[must_use]
    pub fn named(scenario: &str) -> Self {
        ScenarioSel {
            scenario: scenario.to_owned(),
            params: None,
        }
    }
}

/// One entry of the fault axis: a label plus the fault plan it installs
/// (`None` = the unfaulted baseline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultVariant {
    /// Label used in cell keys and the report matrix.
    pub name: String,
    /// The run-level fault-plan override; `None` leaves the scenario's
    /// own wiring in place.
    pub plan: Option<FaultPlan>,
}

impl FaultVariant {
    /// The unfaulted baseline variant.
    #[must_use]
    pub fn none() -> Self {
        FaultVariant {
            name: "none".to_owned(),
            plan: None,
        }
    }
}

/// One entry of the defense axis: a label plus the countermeasure it
/// configures on every cell machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseVariant {
    /// Label used in cell keys and the report matrix.
    pub name: String,
    /// The countermeasure installed on the cell's machine config.
    pub defense: Defense,
}

impl DefenseVariant {
    /// The undefended baseline variant.
    #[must_use]
    pub fn none() -> Self {
        DefenseVariant {
            name: "none".to_owned(),
            defense: Defense::None,
        }
    }

    /// The QuanShield self-destruct variant.
    #[must_use]
    pub fn quanshield() -> Self {
        DefenseVariant {
            name: "quanshield".to_owned(),
            defense: Defense::QuanShield,
        }
    }

    /// The deterministic-padding variant (default grid).
    #[must_use]
    pub fn padding() -> Self {
        DefenseVariant {
            name: "padding".to_owned(),
            defense: Defense::default_padding(),
        }
    }

    /// The canonical three-variant defense axis (none / quanshield /
    /// padding) the attack × defense matrix sweeps.
    #[must_use]
    pub fn all() -> Vec<Self> {
        vec![
            DefenseVariant::none(),
            DefenseVariant::quanshield(),
            DefenseVariant::padding(),
        ]
    }
}

/// A declarative parameter grid: scenario set × machine preset ×
/// fault-plan grid × defense grid × replicate (seed) range.
///
/// Serde-loadable (the `segscope campaign` CLI reads it as JSON);
/// every field except `defenses` is required in the serialized form
/// (`defenses` defaults to the single-entry `[none]` axis so
/// pre-defense specs keep their exact cell geometry), and `segscope
/// campaign spec` emits a complete template to start from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignSpec {
    /// Human label of the campaign (report header).
    pub name: String,
    /// The campaign seed every cell's experiment seed derives from via
    /// `exec::derive_seed(seed, cell_index)`.
    pub seed: u64,
    /// Scenario axis, in sweep order.
    pub scenarios: Vec<ScenarioSel>,
    /// Machine-preset axis (Table I names, `segsim::presets::NAMES`).
    pub presets: Vec<String>,
    /// Fault-plan axis.
    pub faults: Vec<FaultVariant>,
    /// Defense (countermeasure) axis. Deserializes to `[none]` when the
    /// spec JSON has no `defenses` key.
    pub defenses: Vec<DefenseVariant>,
    /// Replicate axis: how many independently-seeded repetitions of
    /// every (scenario, preset, fault, defense) combination to run
    /// (≥ 1).
    pub replicates: u64,
    /// Per-cell trial-count override (`None` = each scenario's default;
    /// structured scenarios ignore it either way).
    pub trials: Option<usize>,
}

// Hand-written so a pre-defense spec (no `defenses` key) still parses:
// the vendored serde derive would demand every field. All other fields
// stay required, exactly as the derive would have them.
impl Deserialize for CampaignSpec {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let map = value.as_map()?;
        let field = |name: &str| serde::get_field(map, name);
        Ok(CampaignSpec {
            name: Deserialize::from_value(field("name")?)?,
            seed: Deserialize::from_value(field("seed")?)?,
            scenarios: Deserialize::from_value(field("scenarios")?)?,
            presets: Deserialize::from_value(field("presets")?)?,
            faults: Deserialize::from_value(field("faults")?)?,
            defenses: match map.iter().find(|(k, _)| k == "defenses") {
                Some((_, v)) => Deserialize::from_value(v)?,
                None => vec![DefenseVariant::none()],
            },
            replicates: Deserialize::from_value(field("replicates")?)?,
            trials: Deserialize::from_value(field("trials")?)?,
        })
    }
}

impl CampaignSpec {
    /// The paper's full cross-vendor evaluation grid: all eleven
    /// registered scenarios × all six Table I vendor presets × the
    /// three canonical fault regimes (none / delivery storm / timing
    /// storm), undefended, one replicate each.
    #[must_use]
    pub fn full_grid(seed: u64) -> Self {
        CampaignSpec {
            name: "full-grid".to_owned(),
            seed,
            scenarios: [
                "website",
                "circl",
                "dnnsteal",
                "spectral",
                "kaslr",
                "spectre",
                "keystroke",
                "covert",
                "procfp",
                "aexcount",
                "heckler",
            ]
            .iter()
            .map(|n| ScenarioSel::named(n))
            .collect(),
            presets: segsim::presets::NAMES
                .iter()
                .map(|&n| n.to_owned())
                .collect(),
            faults: vec![
                FaultVariant::none(),
                FaultVariant {
                    name: "delivery_storm".to_owned(),
                    plan: Some(FaultPlan::delivery_storm()),
                },
                FaultVariant {
                    name: "timing_storm".to_owned(),
                    plan: Some(FaultPlan::timing_storm()),
                },
            ],
            defenses: vec![DefenseVariant::none()],
            replicates: 1,
            trials: None,
        }
    }

    /// The attack × defense matrix: the enclave-sensitive scenarios
    /// (aexcount, heckler, keystroke) × the unfaulted baseline × the
    /// full defense axis (none / quanshield / padding).
    #[must_use]
    pub fn defense_matrix(seed: u64) -> Self {
        CampaignSpec {
            name: "defense-matrix".to_owned(),
            seed,
            scenarios: ["aexcount", "heckler", "keystroke"]
                .iter()
                .map(|n| ScenarioSel::named(n))
                .collect(),
            presets: vec!["xiaomi_air13".to_owned()],
            faults: vec![FaultVariant::none()],
            defenses: DefenseVariant::all(),
            replicates: 1,
            trials: None,
        }
    }

    /// Total number of cells the grid expands to.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.scenarios.len()
            * self.presets.len()
            * self.faults.len()
            * self.defenses.len()
            * (self.replicates.max(1) as usize)
    }

    /// Serializes the spec to JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("campaign specs are serializable")
    }

    /// Parses a spec from JSON.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Parse`] with the underlying message.
    pub fn from_json(json: &str) -> Result<Self, CampaignError> {
        serde_json::from_str(json).map_err(|e| CampaignError::Parse(e.to_string()))
    }

    /// An order-sensitive FNV-1a digest of the canonical (re-serialized)
    /// spec JSON: the resume-safety fingerprint a
    /// [`CampaignManifest`](crate::CampaignManifest) carries so a
    /// manifest cut for one grid can never be resumed under another.
    #[must_use]
    pub fn digest(&self) -> u64 {
        obs::fnv1a_extend(obs::FNV1A_BASIS, self.to_json().as_bytes())
    }

    /// Expands the grid into its flat cell list, validating every axis
    /// entry against `registry` and the preset table up front — so a
    /// long sweep cannot die on a typo after hours of work.
    ///
    /// Nesting order is fixed (scenario → preset → fault → defense →
    /// replicate) and cell `index` is the flat position, so indices and
    /// derived seeds are a pure function of the spec. A single-entry
    /// `[none]` defense axis reproduces the pre-defense flat indices
    /// (and seeds) exactly.
    ///
    /// # Errors
    ///
    /// [`CampaignError::EmptyAxis`] on an empty axis,
    /// [`CampaignError::Trials`] on a trial count above
    /// [`scenario::MAX_TRIALS`], [`CampaignError::UnknownScenario`] / `UnknownPreset` on a name
    /// that does not resolve, [`CampaignError::FaultPlan`] when a fault
    /// variant's plan fails [`FaultPlan::validate`], and
    /// [`CampaignError::Params`] when a params override (with the
    /// preset's machine and the variant's defense injected) does not
    /// deserialize into the scenario's config, or sets `machine` itself,
    /// which the preset axis would silently replace.
    pub fn expand(&self, registry: &Registry) -> Result<Vec<CampaignCell>, CampaignError> {
        for (axis, empty) in [
            ("scenarios", self.scenarios.is_empty()),
            ("presets", self.presets.is_empty()),
            ("faults", self.faults.is_empty()),
            ("defenses", self.defenses.is_empty()),
        ] {
            if empty {
                return Err(CampaignError::EmptyAxis(axis));
            }
        }
        if let Some(trials) = self.trials.filter(|&t| t > scenario::MAX_TRIALS) {
            return Err(CampaignError::Trials(trials));
        }
        for fault in &self.faults {
            if let Some(plan) = fault.plan {
                plan.validate()
                    .map_err(|message| CampaignError::FaultPlan {
                        fault: fault.name.clone(),
                        message,
                    })?;
            }
        }
        let mut cells = Vec::with_capacity(self.cell_count());
        for sel in &self.scenarios {
            let entry = registry
                .get(&sel.scenario)
                .map_err(|_| CampaignError::UnknownScenario(sel.scenario.clone()))?;
            for preset in &self.presets {
                let base = match &sel.params {
                    Some(p) => p.clone(),
                    None => entry.default_params(),
                };
                // Resolve and validate one params value per defense
                // variant up front (faults and replicates reuse them).
                let mut defended: Vec<(&DefenseVariant, Value)> =
                    Vec::with_capacity(self.defenses.len());
                for variant in &self.defenses {
                    let mut params = base.clone();
                    inject_machine(&mut params, preset)?;
                    inject_defense(&mut params, &variant.defense);
                    entry
                        .check_params(&params)
                        .map_err(|e| CampaignError::Params {
                            scenario: sel.scenario.clone(),
                            message: e.to_string(),
                        })?;
                    defended.push((variant, params));
                }
                // After the params' own check, so an out-of-range field is
                // named first.
                if let Some(Value::Map(fields)) = &sel.params {
                    if fields.iter().any(|(k, _)| k == "machine") {
                        return Err(CampaignError::Params {
                            scenario: sel.scenario.clone(),
                            message: "params set `machine`, which the `presets` axis sets for \
                                      every cell; remove it and pick machines with `presets`"
                                .to_owned(),
                        });
                    }
                }
                for fault in &self.faults {
                    for (variant, params) in &defended {
                        for replicate in 0..self.replicates.max(1) {
                            let index = cells.len();
                            cells.push(CampaignCell {
                                index,
                                scenario: sel.scenario.clone(),
                                preset: preset.clone(),
                                fault: fault.name.clone(),
                                defense: variant.name.clone(),
                                replicate,
                                seed: exec::derive_seed(self.seed, index as u64),
                                trials: self.trials,
                                params: params.clone(),
                                fault_plan: fault.plan,
                            });
                        }
                    }
                }
            }
        }
        debug_assert_eq!(cells.len(), self.cell_count());
        Ok(cells)
    }
}

/// One cell of the expanded grid: a fully resolved `(scenario, preset,
/// fault, defense, replicate)` coordinate with its derived experiment
/// seed and ready-to-run params.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Flat index in the expansion order (the manifest/checkpoint key).
    pub index: usize,
    /// Scenario registry name.
    pub scenario: String,
    /// Machine preset name.
    pub preset: String,
    /// Fault-variant label.
    pub fault: String,
    /// Defense-variant label.
    pub defense: String,
    /// Replicate number within the coordinate (`0..replicates`).
    pub replicate: u64,
    /// The cell's experiment seed,
    /// `exec::derive_seed(campaign_seed, index)`.
    pub seed: u64,
    /// Per-cell trial-count override.
    pub trials: Option<usize>,
    /// Resolved scenario params with the preset's machine injected.
    pub params: Value,
    /// The run-level fault-plan override this cell installs.
    pub fault_plan: Option<FaultPlan>,
}

/// Replaces (or inserts) the top-level `machine` key of `params` with
/// the named Table I preset's serialized [`segsim::MachineConfig`].
///
/// Scenarios whose config has no `machine` field ignore unknown keys,
/// so for them the preset axis degenerates to identical repeats — the
/// grid stays regular either way.
///
/// # Errors
///
/// [`CampaignError::UnknownPreset`] when no preset has `preset`'s name,
/// and [`CampaignError::Parse`] when `params` is not a JSON object.
pub fn inject_machine(params: &mut Value, preset: &str) -> Result<(), CampaignError> {
    let config = segsim::presets::by_name(preset)
        .ok_or_else(|| CampaignError::UnknownPreset(preset.to_owned()))?;
    let Value::Map(entries) = params else {
        return Err(CampaignError::Parse(
            "scenario params are not a JSON object".to_owned(),
        ));
    };
    let machine = config.to_value();
    match entries.iter_mut().find(|(k, _)| k == "machine") {
        Some((_, slot)) => *slot = machine,
        None => entries.push(("machine".to_owned(), machine)),
    }
    Ok(())
}

/// Sets the `defense` field of `params`' top-level `machine` map to the
/// serialized [`Defense`].
///
/// A no-op when `params` has no `machine` object (scenarios without a
/// machine field ignore the defense axis the same way they ignore the
/// preset axis — the grid stays regular, the variants degenerate to
/// repeats).
pub fn inject_defense(params: &mut Value, defense: &Defense) {
    let Value::Map(entries) = params else {
        return;
    };
    let Some((_, Value::Map(machine))) = entries.iter_mut().find(|(k, _)| k == "machine") else {
        return;
    };
    let value = defense.to_value();
    match machine.iter_mut().find(|(k, _)| k == "defense") {
        Some((_, slot)) => *slot = value,
        None => machine.push(("defense".to_owned(), value)),
    }
}
