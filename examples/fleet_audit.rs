//! Audit a fleet's monitoring data before deploying Drowsy-DC.
//!
//! ```text
//! cargo run --release --example fleet_audit
//! ```
//!
//! Drowsy-DC only profits from long-lived mostly-idle (LLMI) VMs, and the
//! §VI.B evaluation shows savings scale with their share. Before touching
//! the control plane, an operator can answer "how much of my fleet is
//! LLMI, and how predictable is it?" from activity traces alone. This
//! example classifies a mixed fleet (the paper's §I taxonomy), measures
//! each VM's periodicity, probes how predictable the best candidate is
//! for a trained idleness model and estimates the achievable savings
//! bracket.

use drowsy_dc::idleness::{evaluate_model_on_trace, IdlenessModel};
use drowsy_dc::sim::SimRng;
use drowsy_dc::traces::{
    classify, llmi_fraction, nutanix_trace, periodicity, TracePattern, VmTrace,
};

fn main() {
    let rng = SimRng::new(31);
    let months = 3;
    let hours = months * 30 * 24;

    // A mixed fleet, as monitoring would hand it to us.
    let mut fleet: Vec<VmTrace> = Vec::new();
    for i in 1..=5 {
        fleet.push(nutanix_trace(i, hours, &rng));
    }
    fleet.push(TracePattern::paper_llmu().generate(hours, &mut rng.stream("web-a")));
    fleet.push(TracePattern::paper_llmu().generate(hours, &mut rng.stream("web-b")));
    fleet.push(TracePattern::paper_daily_backup().generate(hours, &mut rng.stream("bk")));
    fleet.push(
        TracePattern::Slmu {
            lifetime_hours: 72,
            intensity: 0.95,
        }
        .generate(hours, &mut rng.stream("batch")),
    );

    println!(
        "fleet audit — {} VMs, {} months of hourly activity\n",
        fleet.len(),
        months
    );
    println!(
        "{:<16} {:>8} {:>7} {:>7} {:>7}  class",
        "vm", "duty %", "ac(24)", "ac(168)", "period?"
    );
    for trace in &fleet {
        let class = classify(trace);
        let p = periodicity(trace);
        println!(
            "{:<16} {:>8.1} {:>7.2} {:>7.2} {:>7}  {:?}",
            trace.label,
            trace.duty_cycle() * 100.0,
            p.daily,
            p.weekly,
            if p.is_periodic { "yes" } else { "no" },
            class,
        );
    }

    let share = llmi_fraction(&fleet);
    println!("\nLLMI share: {:.0} %", share * 100.0);
    println!("rule of thumb from the §VI.B sweep (see EXPERIMENTS.md):");
    let estimate = match (share * 100.0) as u32 {
        0..=10 => "≈10 % energy savings vs an always-on fleet",
        11..=40 => "≈15–30 % savings vs always-on",
        41..=70 => "≈30–45 % savings vs always-on",
        _ => "≈45–75 % savings vs always-on",
    };
    println!("  → {estimate}");

    // Predictability check on the most promising VM: train an IM on its
    // trace, exactly what the per-host model builder would do.
    let candidate = &fleet[0];
    let mut model = IdlenessModel::with_defaults();
    let windows = evaluate_model_on_trace(&mut model, candidate, hours as u64, 14 * 24);
    let late_f = windows.last().map(|w| w.f_measure()).unwrap_or(0.0);
    println!(
        "\npredictability probe ({}): late-window F-measure {:.1} %",
        candidate.label,
        late_f * 100.0
    );
}
