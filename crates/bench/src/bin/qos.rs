//! The request-level QoS experiment: the paper's SLA claim next to the
//! energy numbers.
//!
//! Runs the `sla-web-front` scenario (or `--file`/another catalog name)
//! under **both** resume paths — Drowsy-DC's ≈800 ms quick resume and the
//! ≈1500 ms stock kernel — and streams the `[qos]` request workload
//! inline with every policy's run (`DcConfig::qos_stream`), so the
//! closed-loop `sla-aware` policy sees its feedback signal. The table shows
//! the §VI.A story end to end: an always-awake fleet meets "more than
//! 99 % of requests within 200 ms" at more than 3× the energy, while the
//! drowsy policies keep the SLA and expose the wake-latency tail at
//! p99.9 (≈ the resume latency + service).
//!
//! ```text
//! qos                        # the sla-web-front scenario, quick + stock
//! qos --quick --json         # CI-sized run, BENCH_qos.json artifact
//! qos --scenario <name>      # another catalog entry (needs a [qos] section)
//! qos --file my.scenario     # your own scenario file
//! ```
//!
//! Shared flags: `--seed N`, `--threads N` (0 = auto; reports are
//! bit-identical for any value — the `qos-smoke` CI job diffs serial vs
//! parallel runs), `--hosts N` (rescale the scenario fleet),
//! `--policies a,b,c`, `--out DIR`, `--json`, `--telemetry[=DIR]`.

use dds_bench::{pct1, usage_error, ExpOptions, Flag, JsonObject};
use dds_power::WakeSpeed;
use dds_scenarios::{find, run_scenario_qos, QosSpec, Scenario};
use dds_sim_core::qos::QosReport;
use dds_sim_core::stats::TextTable;
use dds_sim_core::SimDuration;
use std::process::ExitCode;

/// One wake-path variant of the experiment.
struct Variant {
    key: &'static str,
    wake: WakeSpeed,
    resume: SimDuration,
}

const VARIANTS: [Variant; 2] = [
    Variant {
        key: "quick",
        wake: WakeSpeed::Quick,
        resume: SimDuration::from_millis(800),
    },
    Variant {
        key: "stock",
        wake: WakeSpeed::Normal,
        resume: SimDuration::from_millis(1500),
    },
];

fn fmt_ms(q: Option<f64>) -> String {
    match q {
        Some(ms) => format!("{ms:.0}"),
        None => "-".to_string(),
    }
}

fn report_row(label: &str, energy: f64, susp: f64, qos: &QosReport) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{energy:.2}"),
        pct1(susp),
        qos.total.to_string(),
        format!("{:.3}", qos.sla_attainment() * 100.0),
        fmt_ms(qos.p50()),
        fmt_ms(qos.p99()),
        fmt_ms(qos.p999()),
        qos.wake_violations.to_string(),
        qos.queue_violations.to_string(),
        qos.worst_wake_ms.to_string(),
    ]
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

    let mut scenario_name = "sla-web-front".to_string();
    let mut file: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--scenario" => {
                i += 1;
                match rest.get(i) {
                    Some(name) => scenario_name = name.clone(),
                    None => usage_error("--scenario needs a catalog name"),
                }
            }
            "--file" => {
                i += 1;
                match rest.get(i) {
                    Some(path) => file = Some(path.clone()),
                    None => usage_error("--file needs a path"),
                }
            }
            flag => usage_error(&format!(
                "unknown flag {flag} (expected --scenario NAME, --file PATH \
                 or the shared experiment flags)"
            )),
        }
        i += 1;
    }

    let mut scenario: Scenario = match &file {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Scenario::parse(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => match find(&scenario_name) {
            Some(s) => s,
            None => {
                eprintln!("error: no catalog scenario named '{scenario_name}'");
                return ExitCode::FAILURE;
            }
        },
    };
    opts.select_policies(&mut scenario);
    if opts.quick && scenario.days > 2 {
        scenario.days = 2;
        println!("(quick: days capped at 2)");
    }
    if let Some(hosts) = opts.hosts {
        scenario.scale_to_hosts(hosts);
        println!("(--hosts: fleet rescaled to {hosts} machines)");
    }
    let base_qos = scenario.qos.clone();
    println!(
        "scenario '{}': {} hosts, {} VMs, {} days, SLA {} ms\n  {}",
        scenario.name,
        scenario.host_count(),
        scenario.vm_count(),
        scenario.days,
        base_qos
            .as_ref()
            .map(|q| q.profile.sla.as_millis())
            .unwrap_or(200),
        scenario.summary,
    );

    let mut csv = String::from(
        "wake,policy,energy_kwh,suspended_fraction,requests,within_sla,\
         p50_ms,p99_ms,p999_ms,wake_violations,queue_violations,worst_wake_ms\n",
    );
    let mut variant_objects = Vec::new();
    for variant in &VARIANTS {
        // Re-aim the scenario's request workload at this resume path; a
        // scenario without [qos] gets the matching web-search profile.
        let profile = base_qos
            .as_ref()
            .map(|q| q.profile.clone())
            .unwrap_or_else(dds_traces::RequestProfile::web_search_quick_resume);
        scenario.qos = Some(QosSpec {
            profile: dds_traces::RequestProfile {
                resume_latency: variant.resume,
                ..profile
            },
            wake: variant.wake,
        });
        println!(
            "\nwake = {} (expected wake-triggering latency ≈ {} ms + service)",
            variant.key,
            variant.resume.as_millis()
        );
        let results = run_scenario_qos(&scenario, Some(opts.seed), opts.threads);
        let mut table = TextTable::new(vec![
            "policy",
            "energy kWh",
            "susp %",
            "requests",
            "within SLA %",
            "p50 ms",
            "p99 ms",
            "p99.9 ms",
            "wake viol",
            "queue viol",
            "worst wake ms",
        ]);
        let mut rows = Vec::new();
        for (out, qos) in &results {
            let energy = out.outcome.energy_kwh();
            let susp = out.outcome.suspension();
            table.row(report_row(&out.label, energy, susp, qos));
            csv.push_str(&format!(
                "{},{},{energy:.6},{susp:.6},{},{:.6},{},{},{},{},{},{}\n",
                variant.key,
                out.policy,
                qos.total,
                qos.sla_attainment(),
                fmt_ms(qos.p50()),
                fmt_ms(qos.p99()),
                fmt_ms(qos.p999()),
                qos.wake_violations,
                qos.queue_violations,
                qos.worst_wake_ms,
            ));
            rows.push(
                JsonObject::new()
                    .str("policy", &out.policy)
                    .str("label", &out.label)
                    .num("energy_kwh", energy)
                    .num("suspended_fraction", susp)
                    .int("requests", qos.total)
                    .num("within_sla", qos.sla_attainment())
                    .num("p50_ms", qos.p50().unwrap_or(0.0))
                    .num("p99_ms", qos.p99().unwrap_or(0.0))
                    .num("p999_ms", qos.p999().unwrap_or(0.0))
                    .int("wake_hits", qos.wake_hits)
                    .int("wake_violations", qos.wake_violations)
                    .int("queue_violations", qos.queue_violations)
                    .int("worst_wake_ms", qos.worst_wake_ms)
                    .int("unserved", qos.unserved),
            );
        }
        println!("{}", table.render());
        variant_objects.push(
            JsonObject::new()
                .str("wake", variant.key)
                .int("expected_resume_ms", variant.resume.as_millis())
                .array("policies", &rows),
        );
    }
    println!(
        "reading: the always-awake baseline meets the paper's SLA (>99 % of \
         requests within the threshold) at the full energy bill; drowsy \
         policies keep the SLA and surface the resume latency at p99.9."
    );
    let artifact = opts
        .bench_json("qos")
        .str("scenario", &scenario.name)
        .int("days", scenario.days)
        .array("variants", &variant_objects);
    opts.write_csv("qos.csv", &csv);
    opts.write_bench_json("qos", &artifact);
    opts.write_telemetry("qos", None, None);
    ExitCode::SUCCESS
}
