//! Fig. 2 — "Colocation percentage of each VM" + per-VM migration counts.
//!
//! Runs the §VI.A testbed scenario under Drowsy-DC and prints the 8×8
//! colocation-percentage matrix in the paper's format. Expectations from
//! the paper: V1/V2 (the LLMU pair, black cells) colocated for the
//! majority of the run; V3/V4 (identical workloads, dark gray cells)
//! sharing a machine for a significant duration after at most one
//! migration; a low migration count overall (a migrated VM reaches a
//! stable state).

use dds_bench::ExpOptions;
use dds_core::testbed::{run_testbed, TestbedSpec};
use dds_sim_core::stats::TextTable;

fn main() {
    let opts = ExpOptions::from_args(env!("CARGO_BIN_NAME"), &[]);
    let mut spec = TestbedSpec::paper_default();
    if opts.quick {
        spec.days = 3;
    }
    let out = run_testbed(&spec, "drowsy-dc", opts.seed);

    println!(
        "Fig. 2 — colocation percentage of each VM (Drowsy-DC, {} days)\n",
        spec.days
    );
    let mut header: Vec<String> = vec!["".into()];
    header.extend(out.vm_names.iter().cloned());
    header.push("#mig".into());
    let mut table = TextTable::new(header);
    let migs = out.migration_counts();
    #[allow(clippy::needless_range_loop)] // i indexes names, matrix and counts
    for i in 0..8 {
        let mut row: Vec<String> = vec![out.vm_names[i].clone()];
        for j in 0..8 {
            row.push(format!("{:.0}", out.colocation_pct(i, j)));
        }
        row.push(format!("{}", migs[i]));
        table.row(row);
    }
    println!("{}", table.render());
    opts.write_csv("fig2_colocation.csv", &table.to_csv());

    println!("paper reference (7 days):");
    println!("  V1–V2 colocation 85 %, V3–V4 76 %, max 3 migrations per VM");
    println!(
        "measured: V1–V2 {:.0} %, V3–V4 {:.0} %, max {} migrations per VM",
        out.colocation_pct(0, 1),
        out.colocation_pct(2, 3),
        migs.iter().max().unwrap()
    );
}
