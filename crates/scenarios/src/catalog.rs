//! The built-in scenario catalog.
//!
//! Eleven ready-to-run scenarios covering the workload classes the paper
//! motivates (office diurnality, flash crowds, batch queues,
//! weekend-heavy leisure, the synthetic Nutanix production mix), the
//! fleet shapes it cannot exercise on a uniform testbed (heterogeneous
//! performance/efficiency classes, slow-wake machines) and the
//! request-level SLA evaluation (`sla-web-front`). Each entry is
//! stored as scenario *text* — the same format users write — and parsed
//! on access, so the catalog doubles as living documentation of the
//! format and as the round-trip corpus of the parser tests.

use crate::scenario::Scenario;

/// A named catalog entry: the scenario text as shipped.
#[derive(Debug, Clone, Copy)]
pub struct CatalogEntry {
    /// The scenario's name (matches its `name =` key).
    pub name: &'static str,
    /// The scenario text.
    pub text: &'static str,
}

/// The built-in catalog, in presentation order.
pub const CATALOG: &[CatalogEntry] = &[
    CatalogEntry {
        name: "office-park",
        text: "\
[scenario]
name = office-park
summary = Diurnal office VMs with an always-on core on a uniform commodity fleet
days = 7
seed = 42
policies = drowsy-dc, neat-s3, neat

[fleet.commodity]
count = 16
cores = 16
ram-mb = 32768

[workload.office]
pattern = diurnal-office
count = 48
vcpus = 2
ram-mb = 6144

[workload.core-services]
pattern = llmu
count = 12
vcpus = 2
ram-mb = 6144
mean = 0.6
",
    },
    CatalogEntry {
        name: "flash-crowd-front",
        text: "\
[scenario]
name = flash-crowd-front
summary = Spiky flash-crowd frontends over a faint base load; packet-wake stress
days = 7
seed = 42
policies = drowsy-dc, neat-s3, sleepscale

[fleet.edge]
count = 12
cores = 16
ram-mb = 32768

[workload.flash]
pattern = flash-crowd
count = 36
vcpus = 2
ram-mb = 4096
crowds-per-week = 2

[workload.steady]
pattern = llmu
count = 8
vcpus = 2
ram-mb = 6144
",
    },
    CatalogEntry {
        name: "batch-farm",
        text: "\
[scenario]
name = batch-farm
summary = Nightly batch-queue workers (timer wakes) beside an always-on service tier
days = 7
seed = 42
policies = drowsy-dc, neat-s3

[fleet.farm]
count = 10
cores = 16
ram-mb = 32768

[workload.nightly]
pattern = batch-queue
count = 24
vcpus = 2
ram-mb = 6144
kind = timer
drain-hour = 1
mean-jobs = 4

[workload.frontend]
pattern = llmu
count = 8
vcpus = 2
ram-mb = 6144
",
    },
    CatalogEntry {
        name: "weekend-surge",
        text: "\
[scenario]
name = weekend-surge
summary = Weekend-heavy leisure VMs opposite office VMs; the anti-correlated colocation win
days = 14
seed = 42
policies = drowsy-dc, neat-s3, oasis

[fleet.shared]
count = 12
cores = 16
ram-mb = 32768

[workload.leisure]
pattern = weekend-heavy
count = 28
vcpus = 2
ram-mb = 6144

[workload.office]
pattern = diurnal-office
count = 16
vcpus = 2
ram-mb = 6144
",
    },
    CatalogEntry {
        name: "mixed-production",
        text: "\
[scenario]
name = mixed-production
summary = The five Nutanix personalities plus LLMU ballast and nightly backups (the paper's mix at fleet scale)
days = 14
seed = 42
policies = drowsy-dc, neat-s3, neat, oasis

[fleet.prod]
count = 14
cores = 16
ram-mb = 32768

[workload.trace1]
pattern = nutanix
personality = 1
count = 7
vcpus = 2
ram-mb = 6144

[workload.trace2]
pattern = nutanix
personality = 2
count = 7
vcpus = 2
ram-mb = 6144

[workload.trace3]
pattern = nutanix
personality = 3
count = 7
vcpus = 2
ram-mb = 6144

[workload.trace4]
pattern = nutanix
personality = 4
count = 7
vcpus = 2
ram-mb = 6144

[workload.trace5]
pattern = nutanix
personality = 5
count = 7
vcpus = 2
ram-mb = 6144

[workload.ballast]
pattern = llmu
count = 10
vcpus = 2
ram-mb = 6144

[workload.backups]
pattern = daily-backup
count = 5
vcpus = 2
ram-mb = 6144
kind = timer
hour = 2
",
    },
    CatalogEntry {
        name: "green-hetero",
        text: "\
[scenario]
name = green-hetero
summary = Heterogeneous fleet: hungry performance hosts beside low-power efficiency hosts with their own suspend latencies
days = 7
seed = 42
policies = drowsy-dc, neat-s3, sleepscale

[fleet.perf]
count = 6
cores = 24
ram-mb = 49152
idle-watts = 80
peak-watts = 200
suspended-watts = 8
transition-watts = 200

[fleet.eco]
count = 10
cores = 8
ram-mb = 16384
idle-watts = 18
peak-watts = 45
suspended-watts = 2
off-watts = 0.5
transition-watts = 45
suspend-latency-ms = 2000
resume-quick-ms = 1200
resume-normal-ms = 2200

[workload.office]
pattern = diurnal-office
count = 30
vcpus = 2
ram-mb = 6144

[workload.steady]
pattern = llmu
count = 10
vcpus = 2
ram-mb = 6144

[workload.bursts]
pattern = random-bursts
count = 12
vcpus = 1
ram-mb = 4096
duty = 0.1
",
    },
    CatalogEntry {
        name: "slow-wake-fleet",
        text: "\
[scenario]
name = slow-wake-fleet
summary = Machines with 2.5 s resumes and 8 s suspends; does suspension still pay?
days = 7
seed = 42
policies = drowsy-dc, neat-s3, neat

[fleet.sluggish]
count = 10
cores = 16
ram-mb = 32768
suspend-latency-ms = 8000
resume-quick-ms = 2500
resume-normal-ms = 4000

[workload.enterprise]
pattern = business-hours
count = 24
vcpus = 2
ram-mb = 6144

[workload.flash]
pattern = flash-crowd
count = 8
vcpus = 2
ram-mb = 4096
",
    },
    CatalogEntry {
        name: "nightly-window",
        text: "\
[scenario]
name = nightly-window
summary = Business-hours VMs plus 2 a.m. backups; anticipated timer wakes every night
days = 7
seed = 42
relocation-hours = 1
policies = drowsy-dc, neat-s3

[fleet.office]
count = 8
cores = 16
ram-mb = 32768

[workload.daytime]
pattern = business-hours
count = 20
vcpus = 2
ram-mb = 6144

[workload.backups]
pattern = daily-backup
count = 8
vcpus = 2
ram-mb = 6144
kind = timer
hour = 2
",
    },
    CatalogEntry {
        name: "sla-web-front",
        text: "\
[scenario]
name = sla-web-front
summary = Bursty web frontends with a request-level SLA; the power-vs-tail-latency Pareto
days = 7
seed = 42
policies = drowsy-dc, sla-aware, neat-s3, neat

[qos]
peak-rps = 0.1
mean-service-ms = 60
std-service-ms = 30
sla-ms = 200
wake = quick

[fleet.front]
count = 12
cores = 16
ram-mb = 16384

[workload.search]
pattern = random-bursts
count = 24
vcpus = 2
ram-mb = 6144
duty = 0.1
intensity = 0.6
",
    },
    CatalogEntry {
        name: "idle-fleet",
        text: "\
[scenario]
name = idle-fleet
summary = Always-idle control: suspension should approach its ceiling under any suspending policy
days = 3
seed = 42
policies = drowsy-dc, neat

[fleet.quiet]
count = 6
cores = 16
ram-mb = 32768

[workload.parked]
pattern = always-idle
count = 12
vcpus = 2
ram-mb = 6144
",
    },
    CatalogEntry {
        name: "hifi-flash",
        text: "\
[scenario]
name = hifi-flash
summary = Flash crowds under the high-fidelity engine: true-latency wakes and heartbeats
days = 5
seed = 42
mode = high-fidelity
policies = drowsy-dc, sleepscale

[fleet.edge]
count = 8
cores = 16
ram-mb = 32768

[workload.flash]
pattern = flash-crowd
count = 20
vcpus = 2
ram-mb = 6144

[workload.backups]
pattern = daily-backup
count = 4
vcpus = 2
ram-mb = 6144
kind = timer
",
    },
];

/// Parses the whole catalog. Every entry is pinned parseable by the test
/// suite, so this does not fail at runtime.
pub fn catalog() -> Vec<Scenario> {
    CATALOG
        .iter()
        .map(|e| {
            Scenario::parse(e.text)
                .unwrap_or_else(|err| panic!("built-in scenario '{}' is invalid: {err}", e.name))
        })
        .collect()
}

/// Looks a built-in scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    CATALOG.iter().find(|e| e.name == name).map(|e| {
        Scenario::parse(e.text)
            .unwrap_or_else(|err| panic!("built-in scenario '{}' is invalid: {err}", e.name))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_at_least_eight_valid_scenarios() {
        let all = catalog();
        assert!(all.len() >= 8, "catalog holds {} scenarios", all.len());
        for (entry, scenario) in CATALOG.iter().zip(&all) {
            assert_eq!(entry.name, scenario.name, "entry name matches its text");
            assert!(!scenario.summary.is_empty(), "{}: summary", scenario.name);
            assert!(scenario.host_count() > 0 && scenario.vm_count() > 0);
        }
        // Names are unique.
        let mut names: Vec<&str> = CATALOG.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len());
    }

    #[test]
    fn catalog_round_trips_through_render() {
        for s in catalog() {
            let back = Scenario::parse(&s.render())
                .unwrap_or_else(|e| panic!("{}: re-parse failed: {e}", s.name));
            assert_eq!(s, back, "{} round-trips", s.name);
        }
    }

    #[test]
    fn catalog_covers_the_new_generators_and_fleet_features() {
        let all = catalog();
        let pattern_used = |label: &str| {
            all.iter().any(|s| {
                s.workloads
                    .iter()
                    .any(|g| g.workload.label().starts_with(label))
            })
        };
        assert!(pattern_used("diurnal-office"));
        assert!(pattern_used("flash-crowd"));
        assert!(pattern_used("batch-queue"));
        assert!(pattern_used("weekend-heavy"));
        assert!(pattern_used("nutanix-"));
        assert!(
            all.iter().any(|s| s.fleet.len() > 1),
            "a heterogeneous fleet exists"
        );
        assert!(
            all.iter()
                .any(|s| s.fleet.iter().any(|c| c.power.is_some())),
            "a per-class power model exists"
        );
        assert!(
            all.iter()
                .any(|s| s.mode == dds_core::datacenter::EngineConfig::HighFidelity),
            "a high-fidelity scenario exists"
        );
        let sla = find("sla-web-front").expect("the SLA scenario ships");
        let qos = sla.qos.as_ref().expect("it carries a [qos] section");
        assert_eq!(qos.profile.sla.as_millis(), 200, "the paper's threshold");
        assert_eq!(qos.wake_key(), "quick");
        assert!(find("office-park").is_some());
        assert!(find("no-such-scenario").is_none());
    }
}
