//! The §VI.A testbed scenario.
//!
//! "We built an OpenStack cluster composed of six HP machines (noted
//! P1–P6) […] P1 hosts both the waking module and all the OpenStack
//! controllers. OpenStack uses P2–P5 as the resource pool. The cluster
//! hosts 8 VMs (6 GB memory and 2 vCPUs each, maximum 2 VMs per machine)
//! set up as follows: 2 LLMU VMs (noted V1 and V2) and 6 LLMI VMs (noted
//! V3–V8). Each VM runs an application from CloudSuite: Media Streaming
//! for LLMU VMs and Web Search for LLMI VMs. P6 hosts all CloudSuite
//! client simulators. Web Search client simulators are configured to
//! generate the traces of 5 VMs we monitored during seven days in
//! Nutanix's private production DC, with V3 and V4 receiving the exact
//! same workload."
//!
//! Only the four pool machines (P2–P5) are simulated — P1 and P6 host
//! management and clients in the paper and contribute constant power that
//! every algorithm pays identically.

use crate::datacenter::{Datacenter, DcConfig, DcOutcome};
use crate::registry::PolicyRegistry;
use crate::spec::{HostSpec, VmSpec, WorkloadKind};
use dds_sim_core::{HostId, SimRng, VmId};
use dds_traces::{nutanix_trace, TracePattern, VmTrace};

/// Specification of the testbed experiment.
#[derive(Debug, Clone)]
pub struct TestbedSpec {
    /// Days of workload (paper: 7).
    pub days: u64,
    /// Datacenter configuration.
    pub config: DcConfig,
    /// Initial placement of V1..V8 onto P2..P5 (pool host indices 0..4).
    ///
    /// The paper's layout: the LLMU VMs "initially placed on distinct
    /// machines" (V2 on P2), LLMI VMs filling the remaining slots.
    pub initial_placement: [usize; 8],
}

impl TestbedSpec {
    /// The paper's setup: traces extended over `days` days, LLMU VMs on
    /// distinct machines, matched LLMI pairs split across hosts so the
    /// placement algorithm has work to do.
    pub fn paper_default() -> Self {
        TestbedSpec {
            days: 7,
            config: DcConfig::paper_default(),
            // P2:{V2,V3} P3:{V1,V5} P4:{V4,V6} P5:{V7,V8}
            // (indices: host of V1..V8)
            initial_placement: [1, 0, 0, 2, 1, 2, 3, 3],
        }
    }

    /// Builds the eight VM specs (traces seeded from `seed`).
    pub fn vm_specs(&self, seed: u64) -> Vec<VmSpec> {
        let hours = (self.days * 24) as usize;
        let rng = SimRng::new(seed);
        let mut llmu_rng_1 = rng.stream_indexed("llmu", 1);
        let mut llmu_rng_2 = rng.stream_indexed("llmu", 2);
        // V1, V2: LLMU media-streaming VMs (always active).
        let v1_trace = TracePattern::paper_llmu().generate(hours, &mut llmu_rng_1);
        let v2_trace = TracePattern::paper_llmu().generate(hours, &mut llmu_rng_2);
        // V3..V8: LLMI web-search VMs driven by the five production
        // traces; V3 and V4 receive the exact same workload (trace 3).
        let t3 = nutanix_trace(3, hours, &rng);
        let traces: Vec<VmTrace> = vec![
            v1_trace,
            v2_trace,
            t3.clone(),
            t3,
            nutanix_trace(1, hours, &rng),
            nutanix_trace(2, hours, &rng),
            nutanix_trace(4, hours, &rng),
            nutanix_trace(5, hours, &rng),
        ];
        traces
            .into_iter()
            .enumerate()
            .map(|(i, trace)| {
                VmSpec::testbed_flavor(
                    VmId(i as u32),
                    format!("V{}", i + 1),
                    trace,
                    WorkloadKind::Interactive,
                )
            })
            .collect()
    }

    /// Builds the four pool host specs (named P2–P5 as in the paper).
    pub fn host_specs(&self) -> Vec<HostSpec> {
        (0..4)
            .map(|i| HostSpec::testbed_machine(HostId(i), format!("P{}", i + 2)))
            .collect()
    }
}

/// Outcome of a testbed run, with paper-aligned accessors.
#[derive(Debug, Clone)]
pub struct TestbedOutcome {
    /// The raw datacenter outcome.
    pub dc: DcOutcome,
    /// Host display names (P2–P5).
    pub host_names: Vec<String>,
    /// VM display names (V1–V8).
    pub vm_names: Vec<String>,
}

impl TestbedOutcome {
    /// Fraction of time spent suspended per pool host (Table I row).
    pub fn suspension_row(&self) -> Vec<f64> {
        self.dc.suspended_fraction.iter().map(|(_, f)| *f).collect()
    }

    /// Global suspension fraction (Table I "Global" column).
    pub fn global_suspension_fraction(&self) -> f64 {
        self.dc.global_suspended_fraction
    }

    /// Total energy in kWh (§VI.A.3).
    pub fn total_energy_kwh(&self) -> f64 {
        self.dc.energy_kwh
    }

    /// Colocation percentage of two VMs (Fig. 2 cell), zero-based ids.
    pub fn colocation_pct(&self, a: usize, b: usize) -> f64 {
        self.dc.colocation[a][b] * 100.0
    }

    /// Migrations per VM (Fig. 2 last column).
    pub fn migration_counts(&self) -> Vec<u32> {
        self.dc.migrations.iter().map(|(_, n)| *n).collect()
    }
}

/// Runs the testbed scenario under the standard-registry policy named
/// `policy` (e.g. `"drowsy-dc"`; see
/// [`PolicyRegistry`]). The testbed has
/// no consolidation host, so Oasis cannot run on it.
///
/// Panics on unknown policy names, listing the registered ones.
pub fn run_testbed(spec: &TestbedSpec, policy: &str, seed: u64) -> TestbedOutcome {
    let registry = PolicyRegistry::standard();
    let built = registry
        .build(policy, &spec.config, None)
        .unwrap_or_else(|| {
            panic!(
                "unknown policy '{policy}' (registered: {})",
                registry.names().join(", ")
            )
        });
    let vms = spec.vm_specs(seed);
    let hosts = spec.host_specs();
    let placement: Vec<HostId> = spec
        .initial_placement
        .iter()
        .map(|&i| HostId(i as u32))
        .collect();
    let mut dc = Datacenter::with_policy(
        spec.config.clone(),
        built,
        hosts.clone(),
        vms.clone(),
        placement,
        seed,
    );
    dc.run(spec.days * 24);
    TestbedOutcome {
        dc: dc.finish(),
        host_names: hosts.iter().map(|h| h.name.clone()).collect(),
        vm_names: vms.iter().map(|v| v.name.clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> TestbedSpec {
        let mut spec = TestbedSpec::paper_default();
        spec.days = 7;
        spec
    }

    #[test]
    fn drowsy_identifies_llmu_pair() {
        // Fig. 2: "Drowsy-DC accurately identified that V1 and V2 are
        // LLMU VMs, thus they were packed on the same machine for the
        // majority of the experiment."
        let out = run_testbed(&quick_spec(), "drowsy-dc", 42);
        assert!(
            out.colocation_pct(0, 1) > 50.0,
            "V1/V2 colocated {}%",
            out.colocation_pct(0, 1)
        );
    }

    #[test]
    fn drowsy_colocates_same_workload_vms() {
        // Fig. 2: V3 and V4 (exact same workload) "shared the same
        // machine for a significant duration".
        let out = run_testbed(&quick_spec(), "drowsy-dc", 42);
        assert!(
            out.colocation_pct(2, 3) > 50.0,
            "V3/V4 colocated {}%",
            out.colocation_pct(2, 3)
        );
    }

    #[test]
    fn migration_counts_stay_low() {
        // Fig. 2 last column: max 3 migrations per VM over the week.
        let out = run_testbed(&quick_spec(), "drowsy-dc", 42);
        for (name, &n) in out.vm_names.iter().zip(out.migration_counts().iter()) {
            assert!(n <= 6, "{name} migrated {n} times");
        }
    }

    #[test]
    fn drowsy_suspends_more_than_neat() {
        // Table I: Drowsy-DC global 66 % vs Neat 49 %.
        let drowsy = run_testbed(&quick_spec(), "drowsy-dc", 42);
        let neat = run_testbed(&quick_spec(), "neat-s3", 42);
        assert!(
            drowsy.global_suspension_fraction() > neat.global_suspension_fraction(),
            "drowsy {} vs neat {}",
            drowsy.global_suspension_fraction(),
            neat.global_suspension_fraction()
        );
    }

    #[test]
    fn energy_ordering_matches_paper() {
        // §VI.A.3: Drowsy-DC 18 kWh < Neat+S3 24 kWh < Neat 40 kWh.
        let drowsy = run_testbed(&quick_spec(), "drowsy-dc", 42);
        let neat_s3 = run_testbed(&quick_spec(), "neat-s3", 42);
        let neat = run_testbed(&quick_spec(), "neat", 42);
        let (d, s, n) = (
            drowsy.total_energy_kwh(),
            neat_s3.total_energy_kwh(),
            neat.total_energy_kwh(),
        );
        assert!(d < s, "Drowsy {d} kWh ≥ Neat+S3 {s} kWh");
        assert!(s < n, "Neat+S3 {s} kWh ≥ Neat {n} kWh");
        // Drowsy-DC saves around half against no-suspension Neat.
        assert!(d / n < 0.65, "savings only {:.0}%", (1.0 - d / n) * 100.0);
    }

    #[test]
    fn llmu_host_sleeps_least_and_llmi_hosts_sleep_most() {
        // Table I: "P2 is the machine which eventually hosted the two
        // LLMU VMs […] so it was never suspended", while the LLMI hosts
        // reached 79–94 %. Because the LLMU pair converges onto its final
        // host only after a day or two of learning, that host still shows
        // a little early-run sleep; the shape to check is a wide spread:
        // one near-awake host and at least one deeply sleeping host.
        let out = run_testbed(&quick_spec(), "drowsy-dc", 42);
        let row = out.suspension_row();
        let min = row.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = row.iter().cloned().fold(0.0f64, f64::max);
        assert!(min < 0.30, "LLMU host mostly awake: {row:?}");
        assert!(max > 0.60, "matched LLMI host sleeps deeply: {row:?}");
    }

    #[test]
    fn sla_holds_with_suspension() {
        // §VI.A.3: >99 % of requests within 200 ms; wake-triggering
        // requests bounded by the resume latency.
        let mut spec = quick_spec();
        spec.config.stream_qos();
        let out = run_testbed(&spec, "drowsy-dc", 42);
        let qos = out.dc.qos.expect("the run streamed QoS");
        assert!(qos.total > 0);
        assert!(qos.sla_attainment() > 0.99, "SLA {}", qos.sla_attainment());
        if qos.wake_hits > 0 {
            assert!(qos.worst_wake_ms <= 1700);
        }
    }

    #[test]
    fn deterministic_outcomes() {
        let a = run_testbed(&quick_spec(), "drowsy-dc", 7);
        let b = run_testbed(&quick_spec(), "drowsy-dc", 7);
        assert_eq!(a.total_energy_kwh(), b.total_energy_kwh());
        assert_eq!(a.migration_counts(), b.migration_counts());
    }
}
