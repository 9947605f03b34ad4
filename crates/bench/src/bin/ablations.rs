//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Grace time** (§IV) — oscillation cycles with/without.
//! 2. **Weight learning** (§III-C) — IM quality with learned vs frozen
//!    uniform weights on a weekly-structured workload.
//! 3. **Opportunistic 7σ pass** (§III-D) — testbed energy with and
//!    without the purely IP-based consolidation step.
//! 4. **Quick resume** (§V) — wake-hit latency with the optimized vs
//!    stock resume path.
//! 5. **SleepScale speed scaling** — cluster energy with and without the
//!    DVFS-style frequency ladder (sleep-state selection held fixed).
//! 6. **SleepScale deep sleep (S5)** — cluster energy with and without
//!    sleep-state selection (frequency ladder held fixed).

use dds_bench::{pct1, ExpOptions};
use dds_core::cluster::{run_cluster_policy, ClusterSpec};
use dds_core::testbed::{run_testbed, TestbedSpec};
use dds_hostos::{Blacklist, ProcState, ProcessTable, SuspendConfig, SuspendModule, TimerWheel};
use dds_idleness::{evaluate_model_on_trace, ConfusionMatrix, IdlenessModel, ImConfig};
use dds_power::WakeSpeed;
use dds_sim_core::stats::TextTable;
use dds_sim_core::{SimRng, SimTime};
use dds_traces::TracePattern;

fn main() {
    let opts = ExpOptions::from_args(env!("CARGO_BIN_NAME"), &[]);
    let mut table = TextTable::new(vec!["ablation", "with", "without", "metric"]);

    // --- 1. grace time.
    let cycles = |grace: bool| -> u64 {
        let mut module = if grace {
            SuspendModule::with_defaults()
        } else {
            SuspendModule::new(SuspendConfig::without_grace())
        };
        let bl = Blacklist::standard();
        let timers = TimerWheel::new();
        let mut procs = ProcessTable::new();
        let pid = procs.spawn("qemu-v0", ProcState::Sleeping { wake: None });
        let mut count = 0;
        let mut suspended = false;
        for cycle in 0..60u64 {
            let base = cycle * 60; // 60 s ping interval
            procs.set_state(pid, ProcState::Running);
            if suspended {
                count += 1;
                suspended = false;
                module.on_resume(SimTime::from_secs(base), 0.0);
            }
            procs.set_state(pid, ProcState::Sleeping { wake: None });
            for check in 1..12u64 {
                if !suspended
                    && module
                        .decide(
                            SimTime::from_secs(base + 2 + check * 5),
                            &procs,
                            &bl,
                            &timers,
                        )
                        .is_suspend()
                {
                    suspended = true;
                }
            }
        }
        count
    };
    table.row(vec![
        "grace time (osc. cycles/h, 60 s pings)".to_string(),
        cycles(true).to_string(),
        cycles(false).to_string(),
        "suspend/resume cycles (lower better)".to_string(),
    ]);

    // --- 2. weight learning.
    let years = if opts.quick { 1 } else { 3 };
    let hours = years * 365 * 24;
    let f_measure = |learning: bool| -> f64 {
        let trace = TracePattern::paper_comic_strips().generate(hours, &mut SimRng::new(opts.seed));
        let mut cfg = ImConfig::paper_default();
        if !learning {
            cfg.learning_rate = 0.0;
        }
        let mut model = IdlenessModel::new(cfg);
        let windows = evaluate_model_on_trace(&mut model, &trace, hours as u64, 14 * 24);
        let tail_from = windows.len() - windows.len() / 3 - 1;
        let mut m = ConfusionMatrix::new();
        for w in &windows[tail_from..] {
            m.merge(&w.matrix);
        }
        m.f_measure()
    };
    table.row(vec![
        "weight learning (comic strips)".to_string(),
        pct1(f_measure(true)),
        pct1(f_measure(false)),
        "late F-measure % (higher better)".to_string(),
    ]);

    // --- 3. opportunistic pass.
    let mut spec = TestbedSpec::paper_default();
    if opts.quick {
        spec.days = 3;
    }
    let with_pass = run_testbed(&spec, "drowsy-dc", opts.seed);
    let mut spec_no = spec.clone();
    spec_no.config.drowsy.max_opportunistic_moves = 0;
    let without_pass = run_testbed(&spec_no, "drowsy-dc", opts.seed);
    table.row(vec![
        "opportunistic 7-sigma pass (testbed)".to_string(),
        format!("{:.1} kWh", with_pass.total_energy_kwh()),
        format!("{:.1} kWh", without_pass.total_energy_kwh()),
        "energy (lower better)".to_string(),
    ]);

    // --- 4. quick resume: the worst wake hit the streamed QoS saw, at
    // the testbed's own request rate.
    let mut spec_sla = spec.clone();
    spec_sla.config.stream_qos();
    let mut spec_slow = spec_sla.clone();
    spec_slow.config.wake_speed = WakeSpeed::Normal;
    let worst_wake_ms = |spec: &TestbedSpec| {
        let out = run_testbed(spec, "drowsy-dc", opts.seed);
        out.dc.qos.expect("the run streams QoS").worst_wake_ms
    };
    table.row(vec![
        "quick resume (wake-hit worst case)".to_string(),
        format!("{} ms", worst_wake_ms(&spec_sla)),
        format!("{} ms", worst_wake_ms(&spec_slow)),
        "latency (lower better)".to_string(),
    ]);

    // --- 5 & 6. SleepScale's two levers, each ablated in isolation on
    // the §VI.B cluster scenario (mixed LLMI/LLMU population).
    let mut cspec = ClusterSpec::paper_default(0.5);
    cspec.hosts = 8;
    cspec.vms = 32;
    cspec.days = if opts.quick { 3 } else { 7 };
    let sleepscale_kwh = |speed_scaling: bool, deep_sleep: bool| -> f64 {
        let mut spec = cspec.clone();
        spec.config.sleepscale.speed_scaling = speed_scaling;
        spec.config.sleepscale.deep_sleep = deep_sleep;
        run_cluster_policy(&spec, "sleepscale", opts.seed).energy_kwh()
    };
    let both_levers = sleepscale_kwh(true, true);
    table.row(vec![
        "sleepscale speed scaling (cluster)".to_string(),
        format!("{both_levers:.1} kWh"),
        format!("{:.1} kWh", sleepscale_kwh(false, true)),
        "energy (lower better)".to_string(),
    ]);
    table.row(vec![
        "sleepscale deep sleep S5 (cluster)".to_string(),
        format!("{both_levers:.1} kWh"),
        format!("{:.1} kWh", sleepscale_kwh(true, false)),
        "energy (lower better)".to_string(),
    ]);

    println!("Ablations of Drowsy-DC design choices\n");
    println!("{}", table.render());
    opts.write_csv("ablations.csv", &table.to_csv());
}
