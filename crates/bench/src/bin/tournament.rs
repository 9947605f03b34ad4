//! The policy tournament: every catalog scenario × every registered
//! policy × both wake paths × seed replicates, reduced to a per-family
//! energy-at-SLA leaderboard.
//!
//! ```text
//! tournament                   # full catalog, 3 seed replicates
//! tournament --quick --json    # CI grid: days ≤ 2, 2 seeds, artifacts
//! tournament --seeds 5         # more replicates (tighter CIs)
//! tournament --threads 1       # serial; byte-identical to pooled runs
//! ```
//!
//! Output: one table per wake variant (rows grouped by scenario
//! family, ranked by mean energy among SLA-qualified policies), a
//! timing-free `tournament.csv` that serial and pooled runs reproduce
//! byte for byte (the `tournament-smoke` CI job diffs them), and — with
//! `--json` — `BENCH_tournament.json` for trend tracking.
//!
//! Shared flags: `--seed N` (base seed; replicates use N, N+1, …),
//! `--policies a,b,c` (default: the whole registry, including the
//! `tournament-adaptive` meta-policy), `--out DIR`, `--threads N`,
//! `--telemetry[=DIR]` (logical/timing telemetry artifacts).

use dds_bench::tournament::{
    build_grid, leaderboard, render_csv, run_grid, LeaderboardRow, WAKE_VARIANTS,
};
use dds_bench::{pct1, usage_error, ExpOptions, Flag, JsonObject};
use dds_core::registry::PolicyRegistry;
use dds_scenarios::{catalog, Scenario};
use dds_sim_core::stats::TextTable;
use std::process::ExitCode;

fn fmt_ms(q: Option<f64>) -> String {
    match q {
        Some(ms) => format!("{ms:.0}"),
        None => "-".to_string(),
    }
}

fn table_row(r: &LeaderboardRow) -> Vec<String> {
    vec![
        r.family.key().to_string(),
        r.rank.to_string(),
        r.label.clone(),
        if r.qualified { "yes" } else { "NO" }.to_string(),
        format!("{:.2} ±{:.2}", r.energy.mean, r.energy.half_width),
        format!("{:.3}", r.qos.attainment() * 100.0),
        fmt_ms(r.qos.p999()),
        r.qos.wake_violations.to_string(),
        r.migrations.to_string(),
        r.wakes.to_string(),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let honours = [Flag::Policies, Flag::Threads, Flag::Json, Flag::Telemetry];
    let (opts, rest) = ExpOptions::parse(env!("CARGO_BIN_NAME"), &honours, &args)
        .unwrap_or_else(|e| usage_error(&e));

    let mut seeds_n: usize = if opts.quick { 2 } else { 3 };
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--seeds" => {
                i += 1;
                match rest.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => seeds_n = n,
                    _ => {
                        eprintln!("error: --seeds needs a positive count");
                        return ExitCode::FAILURE;
                    }
                }
            }
            flag => {
                eprintln!("error: unknown flag {flag} (expected --seeds N or the shared flags)");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let registry = PolicyRegistry::standard();
    let policies: Vec<String> = match &opts.policies {
        Some(list) => list.clone(),
        None => registry.names().iter().map(|s| s.to_string()).collect(),
    };
    let seeds: Vec<u64> = (0..seeds_n as u64).map(|i| opts.seed + i).collect();

    let mut scenarios: Vec<Scenario> = catalog();
    if opts.quick {
        for s in &mut scenarios {
            s.days = s.days.min(2);
        }
        println!("(quick: days capped at 2, {seeds_n} seed replicates)");
    }
    let grid = build_grid(&scenarios, &policies, &seeds);
    println!(
        "tournament: {} scenarios × {} wake paths × {} policies × {} seeds = {} cells \
         (threads = {}, 0 = auto)",
        scenarios.len(),
        WAKE_VARIANTS.len(),
        policies.len(),
        seeds.len(),
        grid.cells.len(),
        opts.threads,
    );

    let cells = run_grid(&registry, &grid, opts.threads);
    let rows = leaderboard(&cells);

    for variant in &WAKE_VARIANTS {
        println!(
            "\nwake = {} (expected wake-triggering latency ≈ {} ms + service)",
            variant.key,
            variant.resume.as_millis()
        );
        let mut table = TextTable::new(vec![
            "family",
            "rank",
            "policy",
            "SLA ok",
            "energy kWh (95% CI)",
            "within SLA %",
            "p99.9 ms",
            "wake viol",
            "migrations",
            "wakes",
        ]);
        for r in rows.iter().filter(|r| r.wake == variant.key) {
            table.row(table_row(r));
        }
        println!("{}", table.render());
    }

    // Per-bracket winners, one line each — the headline.
    println!("bracket winners (rank 1 by energy among SLA-qualified policies):");
    for r in rows.iter().filter(|r| r.rank == 1) {
        println!(
            "  {:>10} / {:<5} -> {} ({:.2} kWh, {} % within SLA)",
            r.family.key(),
            r.wake,
            r.label,
            r.energy.mean,
            pct1(r.qos.attainment()),
        );
    }

    opts.write_csv("tournament.csv", &render_csv(&rows));
    let artifact = opts
        .bench_json("tournament")
        .int("scenarios", scenarios.len() as u64)
        .int("seeds", seeds.len() as u64)
        .array(
            "policies",
            &policies
                .iter()
                .map(|p| JsonObject::new().str("name", p))
                .collect::<Vec<_>>(),
        )
        .array("leaderboard", &dds_bench::tournament::json_rows(&rows));
    opts.write_bench_json("tournament", &artifact);
    opts.write_telemetry("tournament", None, None);
    ExitCode::SUCCESS
}
