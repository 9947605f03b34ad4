//! Fleet churn: SLMU batch jobs arriving and departing.
//!
//! The paper's intro motivates all three VM classes; §VI evaluates a
//! static population, but a real DC also sees short-lived mostly-used
//! (SLMU) jobs arriving continuously ("e.g. MapReduce tasks"). This
//! experiment drives Poisson job arrivals through the Nova-style
//! admission path onto a Drowsy-DC-managed LLMI fleet and checks that
//! (a) batch jobs land on awake hosts when possible, (b) the sleeping
//! fraction degrades gracefully with the arrival rate, and (c) the
//! idleness machinery keeps working under churn.

use dds_bench::{pct1, ExpOptions};
use dds_core::datacenter::{Datacenter, DcConfig};
use dds_core::registry::PolicyRegistry;
use dds_core::spec::{HostSpec, VmSpec, WorkloadKind};
use dds_sim_core::stats::TextTable;
use dds_sim_core::{HostId, SimRng, VmId};
use dds_traces::{nutanix_trace, VmTrace};

fn main() {
    let opts = ExpOptions::from_args();
    let days = if opts.quick { 4 } else { 10 };
    let hosts_n = 8usize;
    let base_vms = 16usize;

    println!("SLMU churn on a Drowsy-DC fleet ({hosts_n} hosts, {base_vms} resident LLMI VMs, {days} days)\n");
    let mut table = TextTable::new(vec![
        "jobs/day",
        "admitted",
        "rejected",
        "kWh",
        "suspended %",
        "migrations",
    ]);
    let mut csv = String::from("jobs_per_day,admitted,rejected,kwh,suspended,migrations\n");

    for &jobs_per_day in &[0u64, 4, 12, 24] {
        let rng = SimRng::new(opts.seed);
        let hosts: Vec<HostSpec> = (0..hosts_n)
            .map(|i| HostSpec::cloud_server(HostId(i as u32), format!("h{i}")))
            .collect();
        let vms: Vec<VmSpec> = (0..base_vms)
            .map(|i| {
                let personality = 1 + (i % 5);
                let r = rng.stream_indexed("llmi", i as u64);
                VmSpec {
                    id: VmId(i as u32),
                    name: format!("llmi{i}"),
                    vcpus: 2.0,
                    ram_mb: 6_144,
                    trace: nutanix_trace(personality, (days * 24) as usize, &r),
                    kind: WorkloadKind::Interactive,
                }
            })
            .collect();
        let placement: Vec<HostId> = (0..base_vms)
            .map(|i| HostId((i % hosts_n) as u32))
            .collect();
        let mut cfg = DcConfig::paper_default();
        cfg.track_sla = false;
        cfg.track_colocation = false;
        let policy = PolicyRegistry::standard()
            .build("drowsy-dc", &cfg, None)
            .expect("drowsy-dc is registered");
        let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms, placement, opts.seed);

        // Hour-by-hour: admit Poisson batch arrivals; retire finished jobs.
        let mut arrivals_rng = rng.stream("arrivals");
        let mut running: Vec<(VmId, u64)> = Vec::new(); // (id, end hour)
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        for hour in 0..days * 24 {
            // Retire jobs that completed.
            for &(id, end) in &running {
                if end == hour {
                    dc.remove_vm(id);
                }
            }
            running.retain(|&(_, end)| end != hour);
            // New arrivals this hour.
            let n = arrivals_rng.poisson(jobs_per_day as f64 / 24.0);
            for _ in 0..n {
                let lifetime = 2 + arrivals_rng.below(6); // 2–7 h of work
                let spec = VmSpec {
                    id: VmId(0), // assigned by admit_vm
                    name: format!("job-h{hour}"),
                    vcpus: 2.0,
                    ram_mb: 4_096,
                    trace: shifted_burst(hour, lifetime, days * 24),
                    kind: WorkloadKind::Batch,
                };
                match dc.admit_vm(spec) {
                    Ok(_) => {
                        admitted += 1;
                        let id = VmId((dc.debug_placement().len() - 1) as u32);
                        running.push((id, hour + lifetime));
                    }
                    Err(_) => rejected += 1,
                }
            }
            dc.run(1);
        }
        let out = dc.finish();
        table.row(vec![
            jobs_per_day.to_string(),
            admitted.to_string(),
            rejected.to_string(),
            format!("{:.1}", out.energy_kwh),
            pct1(out.global_suspended_fraction),
            out.total_migrations().to_string(),
        ]);
        csv.push_str(&format!(
            "{jobs_per_day},{admitted},{rejected},{:.3},{:.4},{}\n",
            out.energy_kwh,
            out.global_suspended_fraction,
            out.total_migrations()
        ));
    }
    println!("{}", table.render());
    opts.write_csv("churn.csv", &csv);
    println!("expected shape: suspension decays gracefully as batch jobs arrive;");
    println!("admissions succeed while RAM lasts; the LLMI machinery keeps running.");
}

/// A batch job trace: full activity from `start` for `lifetime` hours.
fn shifted_burst(start: u64, lifetime: u64, horizon: u64) -> VmTrace {
    let mut levels = vec![0.0; horizon as usize];
    for h in start..(start + lifetime).min(horizon) {
        levels[h as usize] = 0.95;
    }
    VmTrace::new("slmu-burst", levels)
}
