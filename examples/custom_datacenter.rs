//! Evaluate Drowsy-DC on *your* fleet mix.
//!
//! ```text
//! cargo run --release --example custom_datacenter
//! ```
//!
//! Scenario: an operator runs a small private cloud — some web services
//! that never sleep, nightly backup appliances, and a pile of seasonal
//! enterprise VMs — and wants to know what Drowsy-DC would save before
//! deploying it. This example builds that datacenter from scratch with
//! the public API and compares three of the paper's policies, each named
//! through the policy registry.

use drowsy_dc::sim::{HostId, SimRng, VmId};
use drowsy_dc::system::cluster::run_cluster_policy;
use drowsy_dc::system::datacenter::{Datacenter, DcConfig};
use drowsy_dc::system::registry::PolicyRegistry;
use drowsy_dc::system::spec::{HostSpec, VmSpec, WorkloadKind};
use drowsy_dc::traces::TracePattern;

fn main() {
    let days = 10u64;
    let hours = (days * 24) as usize;
    let rng = SimRng::new(2024);

    // ---- the fleet: 6 hosts, 18 VMs with a realistic mix.
    let hosts: Vec<HostSpec> = (0..6)
        .map(|i| HostSpec::cloud_server(HostId(i), format!("rack1-node{i}")))
        .collect();

    let mut vms = Vec::new();
    let mut add = |name: &str, pattern: TracePattern, kind: WorkloadKind| {
        let id = VmId(vms.len() as u32);
        let mut r = rng.stream_indexed("vm", id.0 as u64);
        let trace = pattern.generate(hours, &mut r);
        vms.push(VmSpec {
            id,
            name: name.to_string(),
            vcpus: 2.0,
            ram_mb: 6_144,
            trace,
            kind,
        });
    };
    // Three always-on web frontends.
    for i in 0..3 {
        add(
            &format!("web{i}"),
            TracePattern::Llmu {
                mean: 0.6,
                std_dev: 0.15,
                idle_chance: 0.0,
            },
            WorkloadKind::Interactive,
        );
    }
    // Three nightly backup appliances (timer-driven: anticipated wakes).
    for i in 0..3 {
        add(
            &format!("backup{i}"),
            TracePattern::DailyBackup {
                hour: 1 + i as u8,
                duration_hours: 1,
                intensity: 0.9,
            },
            WorkloadKind::TimerDriven,
        );
    }
    // Twelve business-hours enterprise VMs (the LLMI bulk).
    for i in 0..12 {
        add(
            &format!("erp{i}"),
            TracePattern::BusinessHours {
                start_hour: 8 + (i % 2) as u8,
                end_hour: 17,
                intensity: 0.4,
                jitter: 0.25,
            },
            WorkloadKind::Interactive,
        );
    }

    // Round-robin initial placement — deliberately pattern-oblivious.
    let placement: Vec<HostId> = (0..vms.len()).map(|i| HostId((i % 6) as u32)).collect();

    println!("custom fleet: 6 hosts, {} VMs, {days} days\n", vms.len());
    println!(
        "{:<12} {:>10} {:>12} {:>11}",
        "algorithm", "energy", "suspended", "migrations"
    );
    let registry = PolicyRegistry::standard();
    for name in ["drowsy-dc", "neat-s3", "neat"] {
        let mut cfg = DcConfig::paper_default();
        cfg.track_sla = false;
        // This fleet mixes phase-shifted patterns (nightly backups vs
        // business hours). Aggregating the idleness score over the next
        // 6 hours instead of the paper's next-hour IP keeps the grouping
        // stable — ~3x fewer migrations for the same energy.
        cfg.ip_horizon_hours = 6;
        let policy = registry.build(name, &cfg, None).expect("registered policy");
        let mut dc = Datacenter::with_policy(
            cfg,
            policy,
            hosts.clone(),
            vms.clone(),
            placement.clone(),
            9,
        );
        dc.run(days * 24);
        let out = dc.finish();
        println!(
            "{:<12} {:>8.1} kWh {:>11.1}% {:>11}",
            out.policy,
            out.energy_kwh,
            out.global_suspended_fraction * 100.0,
            out.total_migrations(),
        );
    }

    // The same question at fleet scale, via the ready-made cluster sweep.
    println!("\nfleet-scale estimate (ClusterSpec, 75 % LLMI):");
    let spec = drowsy_dc::system::cluster::ClusterSpec::paper_default(0.75);
    let drowsy = run_cluster_policy(&spec, "drowsy-dc", 9);
    let neat = run_cluster_policy(&spec, "neat", 9);
    println!(
        "  {} hosts / {} VMs / {} days: Drowsy-DC {:.0} kWh vs always-on {:.0} kWh ({:.0}% saved)",
        spec.hosts,
        spec.vms,
        spec.days,
        drowsy.energy_kwh(),
        neat.energy_kwh(),
        (1.0 - drowsy.energy_kwh() / neat.energy_kwh()) * 100.0
    );
}
