//! `perfbench`: the Drowsy-DC end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Repeats one workload (set-up, epoch loop, outcome) for `--seconds` of
//! wall-clock, checks every repetition's simulated outputs, and prints a
//! human-readable report followed by one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! README.md describes the workloads and metrics.

mod pace;
mod probe;
mod side;
mod workloads;

use std::panic::{self, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use workloads::{Rep, SimOutcome, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// A second seed, kept out of tuning, for re-checking a claim.
const HOLDOUT_SEED: u64 = 7;
/// Whatever `--seconds` asks for, a run stops starting repetitions
/// after this long.
const HARD_CAP: Duration = Duration::from_secs(120);

/// End-to-end metrics, as `BENCHMARK.json` lists them: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("host_hours_per_s", "host-h/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("energy_kwh", "kWh"),
    ("suspended_fraction", "ratio"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them: (name, unit).
const PER_LAYER: [(&str, &str); 57] = [
    ("scenarios.compile_ms", "ms"),
    ("traces.generate_ms", "ms"),
    ("traces.arrivals_ms", "ms"),
    ("core.build_ms", "ms"),
    ("dc.epochs", "count"),
    ("dc.epoch_ms_p50", "ms"),
    ("dc.epoch_ms_p90", "ms"),
    ("dc.consolidate_ms", "ms"),
    ("dc.advance_hosts_ms", "ms"),
    ("dc.qos_fold_ms", "ms"),
    ("dc.unspanned_ms", "ms"),
    ("dc.admissions", "count"),
    ("dc.admission_rejects", "count"),
    ("dc.unspanned_ms_per_admission", "ms"),
    ("idleness.observe_ns_per_vm_hour", "ns"),
    ("idleness.score_ns_per_vm_hour", "ns"),
    ("placement.samples", "count"),
    ("placement.snapshot_ms", "ms"),
    ("placement.index_ms", "ms"),
    ("placement.plan_ms", "ms"),
    ("placement.migrations_per_host_day", "count/host-day"),
    ("hostos.suspends", "count"),
    ("hostos.suspend_vetoes", "count"),
    ("net.wakes_traffic", "count"),
    ("net.wakes_timer", "count"),
    ("net.wakes_scheduled", "count"),
    ("net.wakes_management", "count"),
    ("net.management_wake_ratio", "ratio"),
    ("power.resume_ms_mean", "sim-ms"),
    ("qos.requests", "count"),
    ("qos.requests_per_s", "req/s"),
    ("qos.fold_ns_per_request", "ns"),
    ("qos.wake_violations", "count"),
    ("qos.queue_violations", "count"),
    ("qos.unserved", "count"),
    ("qos.sla_miss_ratio", "ratio"),
    ("qos.p999_ms", "sim-ms"),
    ("fleet.churn_ms", "ms"),
    ("fleet.placement_ms", "ms"),
    ("fleet.advance_ms", "ms"),
    ("fleet.merge_ms", "ms"),
    ("fleet.qos_fold_ms", "ms"),
    ("fleet.reject_ratio", "ratio"),
    ("fleet.suspends", "count"),
    ("fleet.resumes", "count"),
    ("fleet.shards", "count"),
    ("pool.busy_ms", "ms"),
    ("pool.utilization", "ratio"),
    ("telemetry.trace_overhead_ratio", "ratio"),
    ("loop.wall_ms", "ms"),
    ("loop.unattributed_ms", "ms"),
    ("stress.claimed_share", "ratio"),
    ("stress.consolidate_share", "ratio"),
    ("stress.qos_fold_share", "ratio"),
    ("stress.unspanned_share", "ratio"),
    ("stress.fleet_advance_share", "ratio"),
    ("reps.traced", "count"),
];

const USAGE: &str = "usage: perfbench --workload <paper-consolidation|qos-web|churn-hifi|\
fleet-hyperscale|all> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad number '{v}'"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(1..=HARD_CAP.as_secs()).contains(&args.seconds) {
        return Err(format!("--seconds must be 1..={}", HARD_CAP.as_secs()));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            eprintln!("default seed {DEFAULT_SEED}; hold-out seed {HOLDOUT_SEED}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let set = measure(workload, &args);
    let metrics = if args.trace {
        report_layers(workload, &set)
    } else {
        report_end_to_end(workload, &set)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        set.failed == 0 && !set.reps.is_empty(),
        set.attempted,
        set.failed,
        metrics
            .iter()
            .map(|(name, unit, value)| format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(*value)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::SUCCESS
}

/// `--workload all`: each workload in its own process, so the global
/// recorders and the RSS high-water mark stay per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repetitions of one run.
struct RunSet {
    attempted: u64,
    failed: u64,
    reps: Vec<Rep>,
    wall: Duration,
}

/// Repeats the workload for about `--seconds`: one warm-up repetition,
/// which is checked but not timed, then at least three timed ones (four
/// in a traced run, which alternates untraced and traced repetitions so
/// the overhead ratio compares neighbours). A repetition that panics,
/// fails an output check or simulates anything different from the
/// warm-up counts as failed.
fn measure(w: Workload, args: &Args) -> RunSet {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let min_timed = if args.trace { 4 } else { 3 };
    let mut set = RunSet {
        attempted: 0,
        failed: 0,
        reps: Vec::new(),
        wall: Duration::ZERO,
    };
    let mut reference: Option<SimOutcome> = None;
    loop {
        let k = set.attempted;
        let traced = args.trace && k > 0 && k.is_multiple_of(2);
        set.attempted += 1;
        let t = Instant::now();
        match panic::catch_unwind(AssertUnwindSafe(|| workloads::run(w, args.seed, traced))) {
            Ok(Ok(rep)) => match &reference {
                None => reference = Some(rep.sim),
                Some(first) if first.fingerprint() != rep.sim.fingerprint() => {
                    set.failed += 1;
                    eprintln!(
                        "repetition {k}: simulated {:?}, the warm-up {first:?}",
                        rep.sim
                    );
                }
                Some(_) => set.reps.push(rep),
            },
            Ok(Err(why)) => {
                set.failed += 1;
                eprintln!("repetition {k}: output check failed: {why}");
            }
            Err(_) => {
                set.failed += 1;
                eprintln!("repetition {k}: panicked");
            }
        }
        // Stop where the run ends nearest the budget: once the next
        // repetition would overrun it by more than half its length.
        let elapsed = start.elapsed();
        let done = set.attempted > min_timed && elapsed + t.elapsed() / 2 >= budget;
        if done || elapsed >= HARD_CAP {
            break;
        }
    }
    set.wall = start.elapsed();
    set
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// The `q`-quantile of `xs` by linear interpolation (0 when empty).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn header(w: Workload, set: &RunSet, args_trace: bool) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {}{}: {} repetitions (1 warm-up, {} timed, {} failed) in {:.1} s \
         on {cpus} CPU(s)",
        w.name(),
        if args_trace { " (traced)" } else { "" },
        set.attempted,
        set.reps.len(),
        set.failed,
        set.wall.as_secs_f64()
    );
}

/// Prints every end-to-end metric the workload has and returns the ones
/// `BENCHMARK.json` gates on.
fn report_end_to_end(w: Workload, set: &RunSet) -> Vec<(&'static str, &'static str, f64)> {
    header(w, set, false);
    let n = set.reps.len();
    let rates: Vec<f64> = set.reps.iter().map(Rep::host_hours_per_s).collect();
    let setups: Vec<f64> = set.reps.iter().map(Rep::setup_s).collect();
    let Some(first) = set.reps.first().map(|r| &r.sim) else {
        return END_TO_END.iter().map(|&(m, u)| (m, u, 0.0)).collect();
    };
    let values = [
        median(&rates),
        median(&setups),
        probe::peak_rss_mb(),
        first.energy_kwh,
        first.suspended_fraction,
    ];
    let spread = |xs: &[f64]| {
        format!(
            "median of {n}, min {:.4} max {:.4}",
            quantile(xs, 0.0),
            quantile(xs, 1.0)
        )
    };
    let notes = [
        spread(&rates),
        spread(&setups),
        "VmHWM of this process".to_string(),
        "simulated".to_string(),
        "simulated".to_string(),
    ];
    for (((name, unit), value), note) in END_TO_END.iter().zip(values).zip(&notes) {
        println!("  {name:<20} {value:>14.6} {unit:<9} {note}");
    }
    if let Some(q) = &first.qos {
        let rps: Vec<f64> = set
            .reps
            .iter()
            .map(|r| r.host_hours_per_s() * q.requests as f64 / r.sim.host_hours)
            .collect();
        println!(
            "  {:<20} {:>14.1} {:<9} {}",
            "requests_per_s",
            median(&rps),
            "req/s",
            spread(&rps)
        );
        println!(
            "  {:<20} {:>14.6} {:<9} simulated",
            "sla_miss_ratio",
            q.sla_miss_ratio(),
            "ratio"
        );
        println!(
            "  {:<20} {:>14.1} {:<9} simulated",
            "p999_ms", q.p999_ms, "sim-ms"
        );
    }
    let speeds: Vec<f64> = set.reps.iter().map(|r| r.speed).collect();
    let wall_rates: Vec<f64> = set
        .reps
        .iter()
        .map(|r| r.sim.host_hours / (r.loop_ns as f64 / 1e9))
        .collect();
    println!(
        "  times are in reference seconds: machine speed {:.3} ({}); \
         uncalibrated {:.1} host-h per wall second",
        median(&speeds),
        spread(&speeds),
        median(&wall_rates)
    );
    print_fingerprint(first);
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect()
}

fn print_fingerprint(sim: &SimOutcome) {
    let q = sim.qos.clone().unwrap_or_default();
    println!(
        "  fingerprint {:016x}: energy bits {:016x}, {} suspends, {} migrations, \
         {}/{} admitted/rejected, {} requests ({} under SLA, {} wake, {} queue, \
         {} unserved), digest {:016x}",
        sim.fingerprint(),
        sim.energy_kwh.to_bits(),
        sim.suspends,
        sim.migrations,
        sim.admissions.0,
        sim.admissions.1,
        q.requests,
        q.under_sla,
        q.wake_violations,
        q.queue_violations,
        q.unserved,
        sim.digest
    );
}

/// Prints and returns every per-layer metric of a traced run.
fn report_layers(w: Workload, set: &RunSet) -> Vec<(&'static str, &'static str, f64)> {
    header(w, set, true);
    let traced: Vec<&Rep> = set.reps.iter().filter(|r| r.layers.is_some()).collect();
    let untraced: Vec<f64> = set
        .reps
        .iter()
        .filter(|r| r.layers.is_none())
        .map(|r| r.loop_ns as f64)
        .collect();
    let traced_loop: Vec<f64> = traced.iter().map(|r| r.loop_ns as f64).collect();
    let setup_ms = |f: fn(&workloads::Setup) -> u128| {
        median(
            &set.reps
                .iter()
                .map(|r| f(&r.setup) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let epochs: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.layers.as_ref().map_or(&[][..], |l| &l.epoch_ms[..]))
        .copied()
        .collect();
    let layer = |name: &str| {
        median(
            &traced
                .iter()
                .filter_map(|r| r.layers.as_ref()?.values.get(name).copied())
                .collect::<Vec<_>>(),
        )
    };
    let loop_ms = layer("loop.wall_ms");
    let share = |name: &str| {
        if loop_ms > 0.0 {
            layer(name) / loop_ms
        } else {
            0.0
        }
    };
    let is_dc = w != Workload::FleetHyperscale;
    let out: Vec<(&'static str, &'static str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "scenarios.compile_ms" => setup_ms(|s| s.compile_ns),
                "traces.generate_ms" => setup_ms(|s| s.generate_ns),
                "traces.arrivals_ms" => setup_ms(|s| s.arrivals_ns),
                "core.build_ms" => setup_ms(|s| s.build_ns),
                "dc.epochs" if is_dc => epochs.len() as f64,
                "dc.epoch_ms_p50" if is_dc => quantile(&epochs, 0.5),
                "dc.epoch_ms_p90" if is_dc => quantile(&epochs, 0.9),
                "telemetry.trace_overhead_ratio" => median(&traced_loop) / median(&untraced) - 1.0,
                "stress.claimed_share" => share(w.claimed_layer()),
                "stress.consolidate_share" => share("dc.consolidate_ms"),
                "stress.qos_fold_share" => share("dc.qos_fold_ms"),
                "stress.unspanned_share" => share("dc.unspanned_ms"),
                "stress.fleet_advance_share" => share("fleet.advance_ms"),
                "reps.traced" => traced.len() as f64,
                _ => layer(name),
            };
            (name, unit, finite(value))
        })
        .collect();
    for (name, unit, value) in &out {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    let claimed = w.claimed_layer();
    let claimed_share = share(claimed);
    let others = [
        "dc.consolidate_ms",
        "dc.qos_fold_ms",
        "dc.unspanned_ms",
        "fleet.advance_ms",
    ]
    .iter()
    .filter(|&&m| m != claimed)
    .map(|&m| share(m))
    .fold(0.0, f64::max);
    println!(
        "  stress check: {claimed} is {:.1} % of the epoch loop, the largest other \
         claimed layer {:.1} % -> {}",
        100.0 * claimed_share,
        100.0 * others,
        if claimed_share > others {
            "dominant"
        } else {
            "NOT dominant"
        }
    );
    if let Some(first) = set.reps.first() {
        print_fingerprint(&first.sim);
    }
    out
}
