//! String-keyed control-policy registry.
//!
//! Experiment binaries select policies by name (`--policies
//! drowsy-dc,sleepscale`) instead of hardcoding an enum, so new
//! [`ControlPolicy`] impls become sweepable by adding one registry entry
//! — no control-loop or binary changes. The standard registry carries the
//! paper's four algorithms plus the SleepScale-style policy:
//!
//! | name        | label      | policy |
//! |-------------|------------|--------|
//! | `drowsy-dc` | Drowsy-DC  | idleness-aware consolidation + S3 |
//! | `neat-s3`   | Neat+S3    | OpenStack Neat + S3 |
//! | `neat`      | Neat       | OpenStack Neat, always-on |
//! | `oasis`     | Oasis      | hybrid consolidation via parking |
//! | `sleepscale`| SleepScale | joint speed scaling + sleep states |
//! | `sla-aware` | SLA-aware  | Drowsy-DC + QoS-driven suspend veto (needs [`DcConfig::qos_stream`]) |
//! | `tournament-adaptive` | Tournament-adaptive | per-host delegate picked from the trace class ([`dds_placement::adaptive`]) |

use crate::datacenter::DcConfig;
use dds_placement::policy::ControlPolicy;
use dds_placement::{
    AdaptiveConfig, AdaptivePolicy, DrowsyPolicy, NeatPolicy, OasisConfig, OasisPolicy,
    SlaAwarePolicy, SleepScalePolicy,
};
use dds_sim_core::HostId;

/// One registered policy: metadata plus a factory closing over nothing
/// (plain `fn`, so entries are `Copy`/`Send`/`Sync` for the sweep runner).
#[derive(Clone, Copy)]
pub struct PolicyEntry {
    /// Registry key (stable, kebab-case).
    pub name: &'static str,
    /// Display label the policy will report.
    pub label: &'static str,
    /// True when the scenario must provision an always-on consolidation
    /// host for the policy (Oasis-style parking).
    pub needs_consolidation_host: bool,
    build: fn(&DcConfig, Option<HostId>) -> Box<dyn ControlPolicy>,
}

impl PolicyEntry {
    /// Creates a registry entry from its metadata and factory.
    pub fn new(
        name: &'static str,
        label: &'static str,
        needs_consolidation_host: bool,
        build: fn(&DcConfig, Option<HostId>) -> Box<dyn ControlPolicy>,
    ) -> Self {
        PolicyEntry {
            name,
            label,
            needs_consolidation_host,
            build,
        }
    }

    /// Builds the policy from a datacenter configuration.
    /// `consolidation_host` is required when
    /// [`needs_consolidation_host`](Self::needs_consolidation_host) is set.
    pub fn build(
        &self,
        cfg: &DcConfig,
        consolidation_host: Option<HostId>,
    ) -> Box<dyn ControlPolicy> {
        (self.build)(cfg, consolidation_host)
    }
}

impl std::fmt::Debug for PolicyEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyEntry")
            .field("name", &self.name)
            .field("label", &self.label)
            .field("needs_consolidation_host", &self.needs_consolidation_host)
            .finish()
    }
}

/// The string-keyed policy registry.
#[derive(Debug, Clone)]
pub struct PolicyRegistry {
    entries: Vec<PolicyEntry>,
}

impl PolicyRegistry {
    /// The standard lineup: the paper's four algorithms plus SleepScale.
    pub fn standard() -> Self {
        PolicyRegistry {
            entries: vec![
                PolicyEntry {
                    name: "drowsy-dc",
                    label: "Drowsy-DC",
                    needs_consolidation_host: false,
                    build: |cfg, _| Box::new(DrowsyPolicy::new(cfg.drowsy.clone())),
                },
                PolicyEntry {
                    name: "neat-s3",
                    label: "Neat+S3",
                    needs_consolidation_host: false,
                    build: |cfg, _| Box::new(NeatPolicy::suspending(cfg.neat.clone())),
                },
                PolicyEntry {
                    name: "neat",
                    label: "Neat",
                    needs_consolidation_host: false,
                    build: |cfg, _| Box::new(NeatPolicy::always_on(cfg.neat.clone())),
                },
                PolicyEntry {
                    name: "oasis",
                    label: "Oasis",
                    needs_consolidation_host: true,
                    build: |cfg, ch| {
                        let ch = ch.expect("Oasis needs a consolidation host");
                        Box::new(OasisPolicy::new(
                            OasisConfig {
                                consolidation_hosts: vec![ch],
                                park_fraction: cfg.oasis_park_fraction,
                                // Parking is not instantaneous in Oasis: the
                                // working set is trickled out and short idle
                                // gaps are not worth the round trip. Two idle
                                // hours at our resolution.
                                park_after_idle_hours: 2,
                            },
                            cfg.neat.clone(),
                        ))
                    },
                },
                PolicyEntry {
                    name: "sleepscale",
                    label: "SleepScale",
                    needs_consolidation_host: false,
                    build: |cfg, _| Box::new(SleepScalePolicy::new(cfg.sleepscale.clone())),
                },
                PolicyEntry {
                    name: "sla-aware",
                    label: "SLA-aware",
                    needs_consolidation_host: false,
                    build: |cfg, _| Box::new(SlaAwarePolicy::new(cfg.drowsy.clone())),
                },
                PolicyEntry {
                    name: "tournament-adaptive",
                    label: "Tournament-adaptive",
                    needs_consolidation_host: false,
                    build: |cfg, _| {
                        Box::new(AdaptivePolicy::new(AdaptiveConfig {
                            drowsy: cfg.drowsy.clone(),
                            ..AdaptiveConfig::paper_default()
                        }))
                    },
                },
            ],
        }
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[PolicyEntry] {
        &self.entries
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&PolicyEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Registers a custom entry, replacing any existing entry of the same
    /// name. Pass the registry to
    /// [`run_cluster_policy_with`](crate::cluster::run_cluster_policy_with)
    /// or [`run_sweep_with`](crate::sweep::run_sweep_with) to run the
    /// custom policy.
    pub fn register(&mut self, entry: PolicyEntry) {
        self.entries.retain(|e| e.name != entry.name);
        self.entries.push(entry);
    }

    /// Registers a custom entry, erroring instead of silently shadowing
    /// when the name is taken. Experiment harnesses that compose
    /// registries from several sources use this to surface collisions.
    pub fn try_register(&mut self, entry: PolicyEntry) -> Result<(), RegistryError> {
        if self.get(entry.name).is_some() {
            return Err(RegistryError::DuplicateName(entry.name));
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Resolves a list of names to entries, erroring on the first
    /// unknown one (with the registered names in the message, as the
    /// panic path in `run_cluster_policy_with` does).
    pub fn resolve<'a>(
        &'a self,
        names: &[impl AsRef<str>],
    ) -> Result<Vec<&'a PolicyEntry>, RegistryError> {
        names
            .iter()
            .map(|n| {
                let n = n.as_ref();
                self.get(n)
                    .ok_or_else(|| RegistryError::UnknownName(n.to_string()))
            })
            .collect()
    }

    /// Builds a policy by name. `None` for unknown names.
    pub fn build(
        &self,
        name: &str,
        cfg: &DcConfig,
        consolidation_host: Option<HostId>,
    ) -> Option<Box<dyn ControlPolicy>> {
        self.get(name).map(|e| e.build(cfg, consolidation_host))
    }
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

/// Errors from the fallible registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// [`PolicyRegistry::try_register`] found the name already taken.
    DuplicateName(&'static str),
    /// [`PolicyRegistry::resolve`] met a name with no entry.
    UnknownName(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::DuplicateName(name) => {
                write!(f, "policy {name:?} is already registered")
            }
            RegistryError::UnknownName(name) => {
                write!(f, "unknown policy '{name}'")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_carries_the_paper_lineup_plus_sleepscale() {
        let reg = PolicyRegistry::standard();
        assert_eq!(
            reg.names(),
            vec![
                "drowsy-dc",
                "neat-s3",
                "neat",
                "oasis",
                "sleepscale",
                "sla-aware",
                "tournament-adaptive"
            ]
        );
        let cfg = DcConfig::paper_default();
        for entry in reg.entries() {
            assert_eq!(
                entry.needs_consolidation_host,
                entry.name == "oasis",
                "only Oasis needs a consolidation host"
            );
            let ch = entry.needs_consolidation_host.then_some(HostId(0));
            let policy = entry.build(&cfg, ch);
            assert_eq!(policy.label(), entry.label);
        }
        assert!(reg.get("nonsense").is_none());
        assert!(reg.build("nonsense", &cfg, None).is_none());
    }

    #[test]
    fn custom_entries_can_be_registered_and_shadow_by_name() {
        let mut reg = PolicyRegistry::standard();
        reg.register(PolicyEntry {
            name: "neat",
            label: "Neat (custom)",
            needs_consolidation_host: false,
            build: |cfg, _| Box::new(dds_placement::NeatPolicy::always_on(cfg.neat.clone())),
        });
        assert_eq!(
            reg.get("neat").expect("still present").label,
            "Neat (custom)"
        );
        assert_eq!(reg.entries().len(), 7, "replaced, not duplicated");
    }

    #[test]
    fn try_register_rejects_duplicates_and_admits_fresh_names() {
        let mut reg = PolicyRegistry::standard();
        let n = reg.entries().len();
        let clash = PolicyEntry::new("drowsy-dc", "Impostor", false, |cfg, _| {
            Box::new(DrowsyPolicy::new(cfg.drowsy.clone()))
        });
        let err = reg.try_register(clash).unwrap_err();
        assert_eq!(err, RegistryError::DuplicateName("drowsy-dc"));
        assert!(format!("{err}").contains("already registered"));
        assert_eq!(reg.entries().len(), n, "rejected entry is not added");
        assert_eq!(
            reg.get("drowsy-dc").unwrap().label,
            "Drowsy-DC",
            "original entry untouched"
        );
        let fresh = PolicyEntry::new("drowsy-dc-v2", "Drowsy-DC v2", false, |cfg, _| {
            Box::new(DrowsyPolicy::new(cfg.drowsy.clone()))
        });
        reg.try_register(fresh).expect("fresh name registers");
        assert_eq!(reg.entries().len(), n + 1);
        assert!(reg.get("drowsy-dc-v2").is_some());
    }

    #[test]
    fn resolve_surfaces_the_first_unknown_name() {
        let reg = PolicyRegistry::standard();
        let ok = reg.resolve(&["drowsy-dc", "sla-aware"]).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[1].name, "sla-aware");
        let err = reg
            .resolve(&["drowsy-dc", "drowsy-dcc", "neat"])
            .unwrap_err();
        assert_eq!(err, RegistryError::UnknownName("drowsy-dcc".to_string()));
        assert!(format!("{err}").contains("unknown policy"));
        let empty: [&str; 0] = [];
        assert!(reg.resolve(&empty).unwrap().is_empty());
    }

    #[test]
    fn tournament_adaptive_builds_with_the_run_drowsy_config() {
        let reg = PolicyRegistry::standard();
        let cfg = DcConfig::paper_default();
        let policy = reg.build("tournament-adaptive", &cfg, None).unwrap();
        assert_eq!(policy.label(), "Tournament-adaptive");
        assert!(policy.uses_idleness_scores());
        assert!(
            policy.uses_trace_classes(),
            "the meta-policy asks the controller for per-VM classes"
        );
    }

    #[test]
    #[should_panic(expected = "Oasis needs a consolidation host")]
    fn oasis_without_consolidation_host_panics() {
        let reg = PolicyRegistry::standard();
        let _ = reg.build("oasis", &DcConfig::paper_default(), None);
    }
}
