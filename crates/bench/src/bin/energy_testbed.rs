//! §VI.A.3 — total energy and SLA on the testbed.
//!
//! Paper: "Drowsy-DC reduced the total energy consumption by about 55 %,
//! 18 kWh instead of 40 kWh when consolidating using Neat, with host
//! suspension disabled. Evaluation with Neat and enabled suspension shows
//! a consumption of 24 kWh, which means that Drowsy-DC's consolidation
//! algorithm saved 27 % of energy compared with simply implementing the
//! S3 power state." SLA: ">99 % of the web search requests were serviced
//! within 200 ms"; wake-triggering requests ≈1500 ms stock, 800 ms with
//! quick resume. The SLA columns come from the streamed QoS report, at
//! the testbed's own request rate, so the energy does not depend on it.

use dds_bench::{pct1, ExpOptions};
use dds_core::testbed::{run_testbed, TestbedOutcome, TestbedSpec};
use dds_power::WakeSpeed;
use dds_sim_core::qos::QosReport;
use dds_sim_core::stats::TextTable;

fn main() {
    let opts = ExpOptions::from_args(env!("CARGO_BIN_NAME"), &[]);
    let mut spec = TestbedSpec::paper_default();
    if opts.quick {
        spec.days = 3;
    }
    spec.config.stream_qos();

    let mut table = TextTable::new(vec![
        "Algorithm",
        "kWh",
        "vs Neat",
        "global susp %",
        "SLA<200ms %",
        "wake hits",
        "worst wake ms",
    ]);
    let results: Vec<_> = ["drowsy-dc", "neat-s3", "neat"]
        .into_iter()
        .map(|policy| run_testbed(&spec, policy, opts.seed))
        .collect();
    let neat_kwh = results[2].total_energy_kwh();
    for out in &results {
        let qos = qos_of(out);
        table.row(vec![
            out.dc.policy.clone(),
            format!("{:.1}", out.total_energy_kwh()),
            format!("{:+.0}%", (out.total_energy_kwh() / neat_kwh - 1.0) * 100.0),
            pct1(out.global_suspension_fraction()),
            pct1(qos.sla_attainment()),
            format!("{}", qos.wake_hits),
            format!("{}", qos.worst_wake_ms),
        ]);
    }
    println!(
        "§VI.A.3 — testbed energy and SLA ({} days, quick resume)\n",
        spec.days
    );
    println!("{}", table.render());
    opts.write_csv("energy_testbed.csv", &table.to_csv());
    println!("paper: Drowsy-DC 18 kWh (−55 %), Neat+S3 24 kWh (−40 %), Neat 40 kWh\n");

    // Quick-resume ablation: stock resume path raises the wake-hit tail
    // from ~0.8 s toward ~1.5 s (the paper's §VI.A.3 observation).
    let mut stock = spec.clone();
    stock.config.wake_speed = WakeSpeed::Normal;
    let quick = run_testbed(&spec, "drowsy-dc", opts.seed);
    let slow = run_testbed(&stock, "drowsy-dc", opts.seed);
    println!(
        "wake-hit latency: quick resume worst {} ms, stock resume worst {} ms",
        qos_of(&quick).worst_wake_ms,
        qos_of(&slow).worst_wake_ms
    );
    println!("paper: ≈800 ms with quick resume, up to ≈1500 ms stock");
}

/// The QoS report a testbed run streamed.
fn qos_of(out: &TestbedOutcome) -> &QosReport {
    out.dc.qos.as_ref().expect("the testbed run streams QoS")
}
