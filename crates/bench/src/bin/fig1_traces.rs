//! Fig. 1 — "Examples of real workloads we used."
//!
//! Prints the five synthetic Nutanix-like traces over the paper's 6-day
//! window (hourly activity, percent) and writes the full series to CSV.
//! The paper's plot shows the VM3/VM4 workload and the VM6 workload in
//! the 0–25 % activity band with daily structure; check the same shape
//! here.

use dds_bench::{pct1, ExpOptions};
use dds_sim_core::SimRng;
use dds_traces::nutanix::nutanix_all;

fn main() {
    let opts = ExpOptions::from_args(env!("CARGO_BIN_NAME"), &[]);
    let days = if opts.quick { 2 } else { 6 };
    let hours = days * 24;
    let rng = SimRng::new(opts.seed);
    let traces = nutanix_all(hours, &rng);

    println!("Fig. 1 — example production-like workloads ({days} days, hourly activity %)");
    println!("paper: LLMI traces peak in the 0–25 % band with daily/weekly periodicity\n");

    let mut csv = String::from("hour");
    for t in &traces {
        csv.push_str(&format!(",{}", t.label));
    }
    csv.push('\n');
    for h in 0..hours {
        csv.push_str(&format!("{h}"));
        for t in &traces {
            csv.push_str(&format!(",{:.4}", t.level_at_hour(h as u64)));
        }
        csv.push('\n');
    }
    opts.write_csv("fig1_traces.csv", &csv);

    // Terminal sparkline per trace (one char per hour, day-separated).
    for t in &traces {
        println!(
            "{:>13}  duty {:>5}%  mean-active {:>5}%",
            t.label,
            pct1(t.duty_cycle()),
            pct1(t.mean_active_level()),
        );
        let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
        let mut line = String::from("              |");
        for h in 0..hours {
            let level = t.level_at_hour(h as u64);
            let g = glyphs[((level / 0.25) * (glyphs.len() - 1) as f64)
                .clamp(0.0, glyphs.len() as f64 - 1.0) as usize];
            line.push(g);
            if (h + 1) % 24 == 0 {
                line.push('|');
            }
        }
        println!("{line}");
    }
    println!("\n(…each column is one hour; '|' separates days; density ∝ activity)");
}
