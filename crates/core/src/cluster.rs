//! The §VI.B simulation scenario: a CloudSim-style cluster sweep.
//!
//! The paper's second evaluation simulates Drowsy-DC "with real VM traces
//! using \[the\] CloudSim simulator. LLMU VM traces are provided by Google
//! traces while LLMI VM traces come from the commercial production DC"
//! and reports improvements over Neat of up to 81–82 % and an average of
//! 81 % over Oasis, growing with the fraction of LLMI VMs. (The page
//! carrying the figure is missing from the available scan; the sweep
//! below reconstructs the experiment from the surrounding text: energy
//! per algorithm as a function of the LLMI share.)

use crate::datacenter::{Datacenter, DcConfig, DcEngine, DcOutcome, EngineConfig};

use crate::spec::{HostSpec, VmMemberSpec, VmSpec, WorkloadKind};
use dds_sim_core::{HostId, SimRng, VmId};
use dds_traces::{nutanix_trace, TracePattern};

/// Specification of one cluster simulation point.
///
/// Two population regimes share this type:
///
/// * **LLMI mix** (the §VI.B default): `fleet` and `members` are empty;
///   `hosts` uniform cloud servers carry `vms` VMs whose LLMI share is
///   `llmi_fraction` — the paper's sweep variable.
/// * **Explicit** (the scenario layer): `fleet` lists heterogeneous host
///   specs (per-class power models, suspend latencies, capacities) and
///   `members` lists workload groups; `hosts`/`vms` mirror their sizes
///   and `llmi_fraction` is ignored. Build with [`ClusterSpec::explicit`].
///
/// Either way, the point runs through the same
/// [`run_cluster_policy_with`] path and fans out over
/// [`run_sweep`](crate::sweep::run_sweep) untouched, driven by the
/// [`EngineConfig`] in `engine` (legacy by default; scenarios may opt in
/// to high fidelity).
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of pool hosts.
    pub hosts: usize,
    /// Number of VMs.
    pub vms: usize,
    /// Fraction of the VMs that are LLMI (the sweep variable). Ignored
    /// when `members` is non-empty.
    pub llmi_fraction: f64,
    /// Days simulated.
    pub days: u64,
    /// Datacenter configuration.
    pub config: DcConfig,
    /// Explicit heterogeneous host fleet; empty = `hosts` uniform cloud
    /// servers (the historical behaviour).
    pub fleet: Vec<HostSpec>,
    /// Explicit VM population by workload group; empty = the LLMI/LLMU
    /// mix drawn from `llmi_fraction` (the historical behaviour).
    pub members: Vec<VmMemberSpec>,
    /// Engine fidelity this point runs under.
    pub engine: EngineConfig,
}

impl ClusterSpec {
    /// A 40-host / 160-VM cluster over two weeks — large enough for the
    /// consolidation dynamics, small enough to sweep.
    pub fn paper_default(llmi_fraction: f64) -> Self {
        let mut config = DcConfig::paper_default();
        config.track_colocation = false;
        config.track_sla = false;
        // Large clusters need not relocate every hour; every 2 hours
        // keeps migration churn realistic.
        config.relocation_period_hours = 2;
        ClusterSpec {
            hosts: 40,
            vms: 160,
            llmi_fraction: llmi_fraction.clamp(0.0, 1.0),
            days: 14,
            config,
            fleet: Vec::new(),
            members: Vec::new(),
            engine: EngineConfig::Legacy,
        }
    }

    /// A cluster point with an explicit fleet and VM population (the
    /// scenario layer). Host ids are re-assigned densely in `fleet`
    /// order; `hosts`/`vms` are derived from the inputs.
    pub fn explicit(
        fleet: Vec<HostSpec>,
        members: Vec<VmMemberSpec>,
        days: u64,
        config: DcConfig,
    ) -> Self {
        let fleet: Vec<HostSpec> = fleet
            .into_iter()
            .enumerate()
            .map(|(i, mut h)| {
                h.id = HostId(i as u32);
                h
            })
            .collect();
        ClusterSpec {
            hosts: fleet.len(),
            vms: members.iter().map(|m| m.count).sum(),
            llmi_fraction: 0.0,
            days,
            config,
            fleet,
            members,
            engine: EngineConfig::Legacy,
        }
    }

    /// Builds the VM population. With explicit `members`, each workload
    /// group expands to its seeded per-VM traces; otherwise
    /// `llmi_fraction` of the VMs cycle through the five production-trace
    /// personalities (plus timer-driven backup VMs for variety) and the
    /// rest are Google-trace-like LLMU VMs.
    pub fn vm_specs(&self, seed: u64) -> Vec<VmSpec> {
        let hours = (self.days * 24) as usize;
        let rng = SimRng::new(seed);
        if !self.members.is_empty() {
            let mut specs = Vec::with_capacity(self.vms);
            for member in &self.members {
                specs.extend(member.expand(specs.len(), hours, &rng));
            }
            debug_assert_eq!(specs.len(), self.vms, "vms mirrors the member counts");
            return specs;
        }
        let llmi_count = (self.vms as f64 * self.llmi_fraction).round() as usize;
        let mut specs = Vec::with_capacity(self.vms);
        for i in 0..self.vms {
            let id = VmId(i as u32);
            let name = format!("vm{i}");
            let spec = if i < llmi_count {
                // LLMI: rotate through production-trace personalities;
                // every 8th is a timer-driven nightly backup.
                if i % 8 == 7 {
                    let mut r = rng.stream_indexed("backup", i as u64);
                    let trace = TracePattern::DailyBackup {
                        hour: (i % 6) as u8,
                        duration_hours: 1,
                        intensity: 0.8,
                    }
                    .generate(hours, &mut r);
                    VmSpec {
                        id,
                        name,
                        vcpus: 2.0,
                        ram_mb: 6_144,
                        trace,
                        kind: WorkloadKind::TimerDriven,
                    }
                } else {
                    let personality = 1 + (i % 5);
                    let r = rng.stream_indexed("llmi", i as u64);
                    let trace = nutanix_trace(personality, hours, &r);
                    VmSpec {
                        id,
                        name,
                        vcpus: 2.0,
                        ram_mb: 6_144,
                        trace,
                        kind: WorkloadKind::Interactive,
                    }
                }
            } else {
                // LLMU: Google-trace-like always-active VMs.
                let mut r = rng.stream_indexed("llmu", i as u64);
                let trace = TracePattern::Llmu {
                    mean: 0.55,
                    std_dev: 0.2,
                    idle_chance: 0.01,
                }
                .generate(hours, &mut r);
                VmSpec {
                    id,
                    name,
                    vcpus: 2.0,
                    ram_mb: 6_144,
                    trace,
                    kind: WorkloadKind::Interactive,
                }
            };
            specs.push(spec);
        }
        specs
    }

    /// Builds the host pool — the explicit `fleet` when set, uniform
    /// cloud servers otherwise (plus one consolidation host appended for
    /// Oasis runs).
    pub fn host_specs(&self, with_consolidation_host: bool) -> Vec<HostSpec> {
        let mut hosts: Vec<HostSpec> = if self.fleet.is_empty() {
            (0..self.hosts)
                .map(|i| HostSpec::cloud_server(HostId(i as u32), format!("h{i}")))
                .collect()
        } else {
            debug_assert_eq!(self.fleet.len(), self.hosts, "hosts mirrors the fleet");
            self.fleet.clone()
        };
        if with_consolidation_host {
            hosts.push(HostSpec::cloud_server(
                HostId(self.hosts as u32),
                "oasis-consolidation",
            ));
        }
        hosts
    }

    /// Initial placement: round-robin across hosts (interleaving LLMI and
    /// LLMU VMs so pattern-aware placement has work to do). Explicit
    /// fleets honour per-host `max_vms` and RAM caps — a full host is
    /// skipped and the VM continues round the ring.
    ///
    /// Panics when an explicit fleet cannot seat the population at all
    /// (the scenario validator reports this with a line number first).
    pub fn initial_placement(&self, vm_count: usize) -> Vec<HostId> {
        if self.fleet.is_empty() {
            return (0..vm_count)
                .map(|i| HostId((i % self.hosts) as u32))
                .collect();
        }
        // Seat by flavor only (RAM + slot caps) — trace content is
        // irrelevant to the initial placement, so no generation here.
        // A fleet without explicit members carries the LLMI-mix
        // population, which is uniformly the 2-vCPU / 6 GiB flavor.
        let ram_needs: Vec<u64> = if self.members.is_empty() {
            vec![6_144; vm_count]
        } else {
            self.members
                .iter()
                .flat_map(|m| std::iter::repeat_n(m.ram_mb, m.count))
                .collect()
        };
        debug_assert_eq!(ram_needs.len(), vm_count, "placement covers the population");
        let mut resident = vec![0usize; self.fleet.len()];
        let mut ram_free: Vec<u64> = self.fleet.iter().map(|h| h.ram_mb).collect();
        let mut placement = Vec::with_capacity(vm_count);
        let mut next = 0usize;
        for (i, &ram) in ram_needs.iter().enumerate() {
            let seat = (0..self.fleet.len())
                .map(|k| (next + k) % self.fleet.len())
                .find(|&h| {
                    let cap_ok = self.fleet[h].max_vms == 0 || resident[h] < self.fleet[h].max_vms;
                    cap_ok && ram_free[h] >= ram
                })
                .unwrap_or_else(|| {
                    panic!(
                        "fleet cannot seat VM {i} ({ram} MiB): all {} hosts full",
                        self.fleet.len()
                    )
                });
            resident[seat] += 1;
            ram_free[seat] -= ram;
            placement.push(HostId(seat as u32));
            next = (seat + 1) % self.fleet.len();
        }
        placement
    }
}

/// Outcome of one cluster simulation point.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// The sweep variable.
    pub llmi_fraction: f64,
    /// Raw datacenter outcome.
    pub dc: DcOutcome,
}

impl ClusterOutcome {
    /// Total energy in kWh.
    pub fn energy_kwh(&self) -> f64 {
        self.dc.energy_kwh
    }

    /// Global suspension fraction.
    pub fn suspension(&self) -> f64 {
        self.dc.global_suspended_fraction
    }
}

/// Runs one cluster point under a standard-registry policy selected by
/// name (see [`PolicyRegistry`](crate::registry::PolicyRegistry)). Use
/// [`run_cluster_policy_with`] to resolve names against a registry that
/// carries custom entries.
pub fn run_cluster_policy(spec: &ClusterSpec, policy_name: &str, seed: u64) -> ClusterOutcome {
    run_cluster_policy_with(
        &crate::registry::PolicyRegistry::standard(),
        spec,
        policy_name,
        seed,
    )
}

/// Runs one cluster point under a policy resolved by name in `registry`.
/// When the policy needs an always-on consolidation host (Oasis-style
/// parking), one extra cloud server is appended to the pool, as the
/// paper's comparison does.
///
/// Panics on unknown policy names, listing the registered ones.
pub fn run_cluster_policy_with(
    registry: &crate::registry::PolicyRegistry,
    spec: &ClusterSpec,
    policy_name: &str,
    seed: u64,
) -> ClusterOutcome {
    let entry = registry.get(policy_name).unwrap_or_else(|| {
        panic!(
            "unknown policy '{policy_name}' (registered: {})",
            registry.names().join(", ")
        )
    });
    let hosts = spec.host_specs(entry.needs_consolidation_host);
    let vms = spec.vm_specs(seed);
    let placement = spec.initial_placement(vms.len());
    let consolidation = entry
        .needs_consolidation_host
        .then_some(HostId(spec.hosts as u32));
    let policy = entry.build(&spec.config, consolidation);
    let mut dc = Datacenter::with_policy(spec.config.clone(), policy, hosts, vms, placement, seed);
    // Drive through the engine at the spec's fidelity; the legacy
    // default is exactly `Datacenter::run`.
    DcEngine::new(&mut dc, spec.engine).run_hours(spec.days * 24);
    ClusterOutcome {
        llmi_fraction: spec.llmi_fraction,
        dc: dc.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(llmi: f64) -> ClusterSpec {
        let mut spec = ClusterSpec::paper_default(llmi);
        spec.hosts = 8;
        spec.vms = 32;
        spec.days = 5;
        spec
    }

    #[test]
    fn population_respects_llmi_fraction() {
        let spec = small_spec(0.5);
        let vms = spec.vm_specs(1);
        let llmi = vms.iter().filter(|v| v.trace.duty_cycle() < 0.5).count();
        assert_eq!(vms.len(), 32);
        assert!((15..=17).contains(&llmi), "llmi count {llmi}");
    }

    #[test]
    fn all_llmu_cluster_offers_no_suspension_wins() {
        // With no LLMI VMs, Drowsy-DC has nothing to exploit: energy gap
        // to Neat+S3 must be small.
        let spec = small_spec(0.0);
        let drowsy = run_cluster_policy(&spec, "drowsy-dc", 3);
        let neat = run_cluster_policy(&spec, "neat-s3", 3);
        let gap = (neat.energy_kwh() - drowsy.energy_kwh()).abs() / neat.energy_kwh();
        assert!(gap < 0.15, "gap {gap}");
    }

    #[test]
    fn llmi_heavy_cluster_rewards_drowsy() {
        let spec = small_spec(0.9);
        let drowsy = run_cluster_policy(&spec, "drowsy-dc", 3);
        let neat_off = run_cluster_policy(&spec, "neat", 3);
        assert!(
            drowsy.energy_kwh() < neat_off.energy_kwh() * 0.7,
            "drowsy {} vs neat-off {}",
            drowsy.energy_kwh(),
            neat_off.energy_kwh()
        );
        assert!(
            drowsy.suspension() > 0.3,
            "suspension {}",
            drowsy.suspension()
        );
    }

    #[test]
    fn improvement_grows_with_llmi_fraction() {
        // The shape behind §VI.B: Drowsy-DC's edge over Neat+S3 grows
        // with the LLMI share.
        let run = |llmi: f64| {
            let spec = small_spec(llmi);
            let d = run_cluster_policy(&spec, "drowsy-dc", 5).energy_kwh();
            let n = run_cluster_policy(&spec, "neat-s3", 5).energy_kwh();
            (n - d) / n
        };
        let low = run(0.2);
        let high = run(0.9);
        assert!(
            high > low - 0.02,
            "improvement must grow with LLMI share: low {low}, high {high}"
        );
    }

    #[test]
    fn explicit_population_expands_members_and_respects_capacity() {
        use crate::spec::VmMemberSpec;
        use dds_traces::{TracePattern, VmWorkload};
        let fleet = vec![
            HostSpec::cloud_server(HostId(9), "big"), // ids are re-assigned
            HostSpec::testbed_machine(HostId(9), "small"), // max 2 VMs
        ];
        let members = vec![
            VmMemberSpec {
                name_prefix: "office".into(),
                count: 5,
                vcpus: 2.0,
                ram_mb: 6_144,
                workload: VmWorkload::Pattern(TracePattern::catalog_diurnal_office()),
                kind: WorkloadKind::Interactive,
            },
            VmMemberSpec {
                name_prefix: "batch".into(),
                count: 2,
                vcpus: 2.0,
                ram_mb: 4_096,
                workload: VmWorkload::Pattern(TracePattern::catalog_batch_queue()),
                kind: WorkloadKind::TimerDriven,
            },
        ];
        let spec = ClusterSpec::explicit(fleet, members, 2, DcConfig::paper_default());
        assert_eq!(spec.hosts, 2);
        assert_eq!(spec.vms, 7);
        assert_eq!(spec.fleet[0].id, HostId(0));
        assert_eq!(spec.fleet[1].id, HostId(1));
        let vms = spec.vm_specs(3);
        assert_eq!(vms.len(), 7);
        assert_eq!(vms[0].name, "office0");
        assert_eq!(vms[5].name, "batch0");
        assert_eq!(vms[6].ram_mb, 4_096);
        assert!(vms.iter().all(|v| v.trace.hours() == 48));
        // Placement honours the testbed machine's 2-VM cap.
        let placement = spec.initial_placement(vms.len());
        let on_small = placement.iter().filter(|&&h| h == HostId(1)).count();
        assert!(on_small <= 2, "small host seats {on_small} VMs");
        assert_eq!(placement.len(), 7);
        // End to end through the policy runner.
        let out = run_cluster_policy(&spec, "drowsy-dc", 3);
        assert!(out.energy_kwh() > 0.0);
    }

    #[test]
    fn per_class_power_models_change_energy() {
        use dds_power::HostPowerModel;
        let mk = |power: Option<HostPowerModel>| {
            let mut spec = small_spec(0.5);
            spec.fleet = (0..spec.hosts)
                .map(|i| {
                    let h = HostSpec::cloud_server(HostId(i as u32), format!("h{i}"));
                    match &power {
                        Some(p) => h.with_power(p.clone()),
                        None => h,
                    }
                })
                .collect();
            spec
        };
        let stock = run_cluster_policy(&mk(None), "neat", 3).energy_kwh();
        let mut cheap = HostPowerModel::paper_default();
        cheap.idle_watts = 25.0;
        cheap.peak_watts = 60.0;
        let eco = run_cluster_policy(&mk(Some(cheap)), "neat", 3).energy_kwh();
        assert!(
            eco < stock * 0.75,
            "per-class model must bite: eco {eco} vs stock {stock}"
        );
        // An explicit fleet with no overrides reproduces the uniform
        // fleet bit-for-bit (same specs, same traces, same placement).
        let uniform = run_cluster_policy(&small_spec(0.5), "neat", 3).energy_kwh();
        assert_eq!(stock.to_bits(), uniform.to_bits());
    }

    #[test]
    fn oasis_runs_and_sits_between_baselines() {
        let spec = small_spec(0.8);
        let oasis = run_cluster_policy(&spec, "oasis", 3);
        let neat_off = run_cluster_policy(&spec, "neat", 3);
        assert!(
            oasis.energy_kwh() < neat_off.energy_kwh(),
            "oasis {} vs always-on {}",
            oasis.energy_kwh(),
            neat_off.energy_kwh()
        );
    }
}
