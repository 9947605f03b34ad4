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
    AdaptivePolicy, DrowsyPolicy, NeatPolicy, OasisPolicy, SlaAwarePolicy, SleepScalePolicy,
};
use dds_sim_core::HostId;

/// One registered policy: metadata plus a factory closing over nothing
/// (plain `fn`, so entries are `Copy`/`Send`/`Sync` for the sweep runner).
/// The display label is the built policy's own
/// ([`ControlPolicy::label`]).
#[derive(Clone, Copy)]
pub struct PolicyEntry {
    /// Registry key (stable, kebab-case).
    pub name: &'static str,
    /// True when the scenario must provision an always-on consolidation
    /// host for the policy (Oasis-style parking).
    pub needs_consolidation_host: bool,
    build: fn(&DcConfig, Option<HostId>) -> Box<dyn ControlPolicy>,
}

impl PolicyEntry {
    /// Creates a registry entry from its metadata and factory.
    pub fn new(
        name: &'static str,
        needs_consolidation_host: bool,
        build: fn(&DcConfig, Option<HostId>) -> Box<dyn ControlPolicy>,
    ) -> Self {
        PolicyEntry {
            name,
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
                    needs_consolidation_host: false,
                    build: |cfg, _| Box::new(DrowsyPolicy::new(cfg.drowsy.clone())),
                },
                PolicyEntry {
                    name: "neat-s3",
                    needs_consolidation_host: false,
                    build: |_, _| Box::new(NeatPolicy::suspending()),
                },
                PolicyEntry {
                    name: "neat",
                    needs_consolidation_host: false,
                    build: |_, _| Box::new(NeatPolicy::always_on()),
                },
                PolicyEntry {
                    name: "oasis",
                    needs_consolidation_host: true,
                    build: |_, ch| {
                        Box::new(OasisPolicy::new(
                            ch.expect("Oasis needs a consolidation host"),
                        ))
                    },
                },
                PolicyEntry {
                    name: "sleepscale",
                    needs_consolidation_host: false,
                    build: |cfg, _| Box::new(SleepScalePolicy::new(cfg.sleepscale.clone())),
                },
                PolicyEntry {
                    name: "sla-aware",
                    needs_consolidation_host: false,
                    build: |cfg, _| Box::new(SlaAwarePolicy::new(cfg.drowsy.clone())),
                },
                PolicyEntry {
                    name: "tournament-adaptive",
                    needs_consolidation_host: false,
                    build: |cfg, _| Box::new(AdaptivePolicy::new(cfg.drowsy.clone())),
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

/// Error from [`PolicyRegistry::resolve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// [`PolicyRegistry::resolve`] met a name with no entry.
    UnknownName(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
        let mut labels = Vec::new();
        for entry in reg.entries() {
            assert_eq!(
                entry.needs_consolidation_host,
                entry.name == "oasis",
                "only Oasis needs a consolidation host"
            );
            let ch = entry.needs_consolidation_host.then_some(HostId(0));
            labels.push(entry.build(&cfg, ch).label());
        }
        assert_eq!(
            labels,
            vec![
                "Drowsy-DC",
                "Neat+S3",
                "Neat",
                "Oasis",
                "SleepScale",
                "SLA-aware",
                "Tournament-adaptive"
            ]
        );
        assert!(reg.get("nonsense").is_none());
        assert!(reg.build("nonsense", &cfg, None).is_none());
    }

    #[test]
    fn custom_entries_can_be_registered_and_shadow_by_name() {
        let mut reg = PolicyRegistry::standard();
        reg.register(PolicyEntry {
            name: "neat",
            needs_consolidation_host: false,
            build: |_, _| Box::new(NeatPolicy::suspending()),
        });
        let cfg = DcConfig::paper_default();
        assert!(
            reg.build("neat", &cfg, None)
                .expect("still present")
                .suspends(),
            "the custom entry replaced the always-on one"
        );
        assert_eq!(reg.entries().len(), 7, "replaced, not duplicated");
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
