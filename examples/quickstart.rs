//! Quickstart: run the paper's testbed scenario end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the §VI.A testbed (4 pool hosts, 8 VMs: 2 always-busy LLMU + 6
//! mostly-idle LLMI), runs a week under three power-management policies
//! and prints the headline comparison: energy, suspension time and SLA.

use drowsy_dc::prelude::*;

fn main() {
    // The scenario exactly as the paper configures it: 7 days of
    // workload, hourly consolidation, quick resume enabled.
    let spec = TestbedSpec::paper_default();

    println!(
        "Drowsy-DC quickstart — {} days on the paper's testbed\n",
        spec.days
    );
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10}",
        "algorithm", "energy", "suspended", "SLA<200ms", "wake hits"
    );
    // Policies are named by their policy-registry keys.
    for policy in ["drowsy-dc", "neat-s3", "neat"] {
        let outcome = run_testbed(&spec, policy, 42);
        println!(
            "{:<12} {:>8.1} kWh {:>11.1}% {:>11.2}% {:>10}",
            outcome.dc.policy,
            outcome.total_energy_kwh(),
            outcome.global_suspension_fraction() * 100.0,
            outcome.dc.sla.within_sla() * 100.0,
            outcome.dc.sla.wake_hits,
        );
    }

    println!("\nWhat to look for (paper §VI.A):");
    println!(" * Drowsy-DC uses roughly half the energy of always-on Neat (18 vs 40 kWh);");
    println!(" * it also beats Neat *with* suspension by grouping matching idleness");
    println!("   patterns (24 kWh in the paper);");
    println!(" * the SLA holds: >99 % of requests within 200 ms, wake-triggering");
    println!("   requests pay only the ~0.8 s quick resume.");
}
