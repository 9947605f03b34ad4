//! The scenario-catalog runner.
//!
//! Lists and runs declarative scenarios (`dds-scenarios`): named fleet +
//! workload mix + engine fidelity + policy set, swept in parallel through
//! `dds_core::sweep::run_sweep`.
//!
//! ```text
//! scenarios --list                 # the built-in catalog
//! scenarios office-park            # run one (or more) catalog entries
//! scenarios --all --quick          # every catalog entry, days capped at 2
//! scenarios --file my.scenario     # run a scenario file of your own
//! scenarios --show office-park     # print a catalog entry's text
//! ```
//!
//! Shared flags: `--seed N` (override the scenario's seed), `--threads N`
//! (0 = auto), `--hosts N` (rescale the fleet and workload mix to N
//! machines), `--policies a,b,c` (replace every scenario's policy
//! lineup), `--out DIR`, `--json` (emit `BENCH_scenarios.json`),
//! `--telemetry[=DIR]` (emit the logical/timing telemetry artifacts),
//! `--quick` (cap simulated days at 2 for smoke runs). A malformed
//! scenario file fails with a line-numbered error and a non-zero exit.

use dds_bench::{pct1, usage_error, ExpOptions, Flag, JsonObject};
use dds_scenarios::{catalog, find, run_scenario, Scenario, CATALOG};
use dds_sim_core::stats::TextTable;
use std::process::ExitCode;

fn print_list() {
    println!("built-in scenario catalog ({} entries)\n", CATALOG.len());
    let mut table = TextTable::new(vec![
        "name", "days", "hosts", "vms", "mode", "policies", "summary",
    ]);
    for s in catalog() {
        table.row(vec![
            s.name.clone(),
            s.days.to_string(),
            s.host_count().to_string(),
            s.vm_count().to_string(),
            s.mode.label().to_string(),
            s.policies.join(","),
            s.summary.clone(),
        ]);
    }
    println!("{}", table.render());
    println!("run one with: scenarios <name> [--json]  (full format: --show <name>)");
}

fn run_one(scenario: &Scenario, opts: &ExpOptions, seed: Option<u64>) -> (String, Vec<JsonObject>) {
    let mut days_note = String::new();
    let mut scenario = scenario.clone();
    opts.select_policies(&mut scenario);
    if opts.quick && scenario.days > 2 {
        scenario.days = 2;
        days_note = " (quick: days capped at 2)".to_string();
    }
    if let Some(hosts) = opts.hosts {
        scenario.scale_to_hosts(hosts);
        days_note.push_str(&format!(" (--hosts: scaled to {hosts})"));
    }
    println!(
        "scenario '{}': {} hosts, {} VMs, {} days, {} mode{days_note}\n  {}",
        scenario.name,
        scenario.host_count(),
        scenario.vm_count(),
        scenario.days,
        scenario.mode.label(),
        scenario.summary,
    );
    let outcomes = run_scenario(&scenario, seed, opts.threads);
    let mut table = TextTable::new(vec![
        "policy",
        "energy kWh",
        "suspended %",
        "migrations",
        "within SLA %",
    ]);
    let mut csv = String::from("policy,energy_kwh,suspended_fraction,migrations,within_sla\n");
    let mut rows = Vec::new();
    for out in &outcomes {
        let energy = out.outcome.energy_kwh();
        let susp = out.outcome.suspension();
        let migrations = out.outcome.dc.total_migrations();
        // The streamed QoS report's SLA attainment; a scenario without a
        // `[qos]` section streams none and leaves the column empty (JSON
        // `null`).
        let sla = out.outcome.dc.qos.as_ref().map(|q| q.sla_attainment());
        table.row(vec![
            out.label.clone(),
            format!("{energy:.2}"),
            pct1(susp),
            migrations.to_string(),
            sla.map_or(String::new(), pct1),
        ]);
        csv.push_str(&format!(
            "{},{energy:.6},{susp:.6},{migrations},{}\n",
            out.policy,
            sla.map_or(String::new(), |s| format!("{s:.6}"))
        ));
        rows.push(
            JsonObject::new()
                .str("policy", &out.policy)
                .str("label", &out.label)
                .num("energy_kwh", energy)
                .num("suspended_fraction", susp)
                .int("migrations", migrations as u64)
                .num("within_sla", sla.unwrap_or(f64::NAN)),
        );
    }
    println!("{}", table.render());
    opts.write_csv(&format!("scenario_{}.csv", scenario.name), &csv);
    (scenario.name.clone(), rows)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let honours = [
        Flag::Policies,
        Flag::Threads,
        Flag::Hosts,
        Flag::Json,
        Flag::Telemetry,
    ];
    let (opts, rest) = ExpOptions::parse(env!("CARGO_BIN_NAME"), &honours, &args)
        .unwrap_or_else(|e| usage_error(&e));
    let seed_override = args.iter().any(|a| a == "--seed").then_some(opts.seed);

    let mut list = false;
    let mut all = false;
    let mut show: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--list" => list = true,
            "--all" => all = true,
            "--show" => {
                i += 1;
                match rest.get(i) {
                    Some(name) => show.push(name.clone()),
                    None => {
                        eprintln!("error: --show needs a scenario name");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--file" => {
                i += 1;
                match rest.get(i) {
                    Some(path) => files.push(path.clone()),
                    None => {
                        eprintln!("error: --file needs a path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            flag if flag.starts_with("--") => {
                eprintln!(
                    "error: unknown flag {flag} (expected --list, --all, --show NAME, \
                     --file PATH, a scenario name, or the shared experiment flags)"
                );
                return ExitCode::FAILURE;
            }
            name => names.push(name.to_string()),
        }
        i += 1;
    }

    if list || (!all && show.is_empty() && files.is_empty() && names.is_empty()) {
        print_list();
        return ExitCode::SUCCESS;
    }
    for name in &show {
        match CATALOG.iter().find(|e| e.name == name.as_str()) {
            Some(entry) => print!("{}", entry.text),
            None => {
                eprintln!("error: no catalog scenario named '{name}' (see --list)");
                return ExitCode::FAILURE;
            }
        }
    }
    if !show.is_empty() && names.is_empty() && files.is_empty() && !all {
        return ExitCode::SUCCESS;
    }

    // Resolve everything to run: catalog names, --all, external files.
    let mut scenarios: Vec<Scenario> = Vec::new();
    if all {
        scenarios.extend(catalog());
    }
    for name in &names {
        match find(name) {
            Some(s) => scenarios.push(s),
            None => {
                eprintln!("error: no catalog scenario named '{name}' (see --list)");
                return ExitCode::FAILURE;
            }
        }
    }
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match Scenario::parse(&text) {
            Ok(s) => scenarios.push(s),
            Err(e) => {
                // The acceptance contract: malformed scenario files fail
                // with a line-numbered message and a non-zero exit.
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut ran = Vec::new();
    for (k, scenario) in scenarios.iter().enumerate() {
        if k > 0 {
            println!();
        }
        ran.push(run_one(scenario, &opts, seed_override));
    }
    let scenario_objects: Vec<JsonObject> = ran
        .iter()
        .map(|(name, rows)| JsonObject::new().str("name", name).array("policies", rows))
        .collect();
    opts.write_bench_json(
        "scenarios",
        &opts
            .bench_json("scenarios")
            .int("scenario_count", scenario_objects.len() as u64)
            .array("scenarios", &scenario_objects),
    );
    opts.write_telemetry("scenarios", None, None);
    ExitCode::SUCCESS
}
