//! §VII — scalability of the placement algorithm.
//!
//! "[Drowsy-DC's] algorithm is more general because it is not limited to
//! checking pairs of VMs, and is more scalable (Drowsy-DC's complexity is
//! O(n), compared to O(n²) for the other system, with n the number of
//! VMs)."
//!
//! This binary times one full planning round of the Drowsy-DC planner
//! against the pairwise VM-multiplexing baseline at growing VM counts and
//! fits the growth exponents (log–log slope between consecutive sizes).
//! The synthetic state keeps every host in the normal band (VM demands of
//! 1.4–2.4 cores, four VMs per 16-core host), so it has no overloaded
//! host and no drain candidate: the fitted exponent covers IP-aware VM
//! selection and placement, not the underload drain. The whole control
//! loop's curve, drain included, is the "Linear control epoch" table in
//! DESIGN.md §6.
//!
//! A second section times the §VI.B sweep *runner*: the same point grid
//! executed serially and fanned out over all cores
//! (`dds_core::sweep::run_sweep`), reporting the wall-clock speedup —
//! the sweep is embarrassingly parallel, so it should approach the core
//! count on idle machines.
//!
//! A third section sweeps the **hyperscale fleet engine**
//! (`dds_core::fleet`) on its production path — persistent worker pool,
//! macro-stepping, capacity-index placement: fleet size (1k → 100k
//! hosts, 10 VMs per host up to 1M) × shard count, reporting host-hours
//! simulated per wall-second. The binary asserts in-process that every
//! shard count reproduces the 1-shard digest bit-for-bit (exit non-zero
//! on divergence). `fleet_outcomes.csv` carries only the deterministic
//! columns, so CI byte-diffs `--threads 1` vs `--threads N` runs.
//!
//! Flags (the shared set; anything else exits with status 2): `--quick`,
//! `--seed N`, `--threads N` (shard counts to sweep; 0 = auto),
//! `--hosts N` (single fleet size instead of the sweep), `--out DIR`,
//! `--json`, `--telemetry[=DIR]` (logical/timing telemetry artifacts
//! plus a flight-recorder dump), `--trace-epochs N` (flight-recorder
//! depth; on a shard-digest divergence the bin names the first
//! divergent epoch and dumps both rings).

use dds_bench::{ExpOptions, Flag, JsonObject};
use dds_core::cluster::ClusterSpec;
use dds_core::fleet::{FleetConfig, FleetOutcome, FleetSim};
use dds_core::sweep::{auto_threads, llmi_grid, run_sweep};
use dds_placement::{
    ClusterState, DrowsyConfig, DrowsyPlanner, HistoryBook, HostState, MultiplexPlanner, VmState,
};
use dds_sim_core::stats::TextTable;
use dds_sim_core::{HostId, SimRng, VmId};
use dds_telemetry::FlightRecorder;
use std::time::Instant;

fn build_state(n_vms: usize, rng: &mut SimRng) -> (ClusterState, HistoryBook) {
    let vms_per_host = 4;
    let n_hosts = n_vms.div_ceil(vms_per_host);
    let mut hosts = Vec::with_capacity(n_hosts);
    let mut hist = HistoryBook::new(24);
    for h in 0..n_hosts {
        let mut vms = Vec::new();
        for k in 0..vms_per_host {
            let i = h * vms_per_host + k;
            if i >= n_vms {
                break;
            }
            let id = VmId(i as u32);
            vms.push(VmState {
                id,
                vcpus: 2.0,
                ram_mb: 4_096,
                cpu_demand: rng.uniform(1.4, 2.4), // hosts in the normal band:
                // neither under- nor overloaded, so the planner cost is
                // the algorithm-specific layer (§VII's comparison)
                ip_score: rng.uniform(-0.02, 0.02),
            });
            for _ in 0..24 {
                hist.push(id, rng.uniform(0.0, 2.0));
            }
        }
        hosts.push(HostState {
            id: HostId(h as u32),
            cpu_capacity: 16.0,
            ram_capacity: 65_536,
            max_vms: 0,
            vms,
        });
    }
    (ClusterState::new(hosts), hist)
}

fn main() {
    let opts = ExpOptions::from_args(
        env!("CARGO_BIN_NAME"),
        &[
            Flag::Policies,
            Flag::Threads,
            Flag::Hosts,
            Flag::Json,
            Flag::Telemetry,
            Flag::TraceEpochs,
        ],
    );
    let sizes: &[usize] = if opts.quick {
        &[64, 256]
    } else {
        &[64, 128, 256, 512, 1024, 2048]
    };
    let drowsy = DrowsyPlanner::new(DrowsyConfig::paper_default());
    let multiplex = MultiplexPlanner::new(0.5);
    let mut rng = SimRng::new(opts.seed);

    println!("§VII — placement scalability (one planning round)\n");
    let mut table = TextTable::new(vec!["VMs", "Drowsy-DC ms", "Multiplex ms", "ratio"]);
    let mut csv = String::from("n,drowsy_ms,multiplex_ms\n");
    let mut prev: Option<(usize, f64, f64)> = None;
    let mut slopes = Vec::new();
    let mut json_points = Vec::new();
    for &n in sizes {
        let (state, hist) = build_state(n, &mut rng);
        let reps = if n <= 256 { 20 } else { 5 };

        let t0 = Instant::now();
        for _ in 0..reps {
            let plan = drowsy.plan(&state);
            std::hint::black_box(&plan);
        }
        let drowsy_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

        let t0 = Instant::now();
        for _ in 0..reps {
            let plan = multiplex.plan(&state, &hist);
            std::hint::black_box(&plan);
        }
        let mult_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

        table.row(vec![
            n.to_string(),
            format!("{drowsy_ms:.3}"),
            format!("{mult_ms:.3}"),
            format!("{:.1}x", mult_ms / drowsy_ms.max(1e-9)),
        ]);
        csv.push_str(&format!("{n},{drowsy_ms:.4},{mult_ms:.4}\n"));
        json_points.push(
            JsonObject::new()
                .int("n", n as u64)
                .num("drowsy_ms", drowsy_ms)
                .num("multiplex_ms", mult_ms),
        );
        if let Some((pn, pd, pm)) = prev {
            let k = (n as f64 / pn as f64).ln();
            slopes.push(((drowsy_ms / pd).ln() / k, (mult_ms / pm).ln() / k));
        }
        prev = Some((n, drowsy_ms, mult_ms));
    }
    println!("{}", table.render());
    opts.write_csv("scalability.csv", &csv);
    let mut drowsy_exp = f64::NAN;
    let mut mult_exp = f64::NAN;
    if !slopes.is_empty() {
        let (ds, ms): (Vec<f64>, Vec<f64>) = slopes.into_iter().unzip();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        drowsy_exp = avg(&ds);
        mult_exp = avg(&ms);
        println!(
            "fitted growth exponents: Drowsy-DC ≈ n^{drowsy_exp:.2}, Multiplex ≈ n^{mult_exp:.2}"
        );
        println!("paper claim: O(n) vs O(n²)");
    }

    // --- sweep-runner thread scaling.
    let policies = opts.policies_or(&["drowsy-dc", "neat-s3", "sleepscale"]);
    let mk_spec = |llmi: f64| {
        let mut spec = ClusterSpec::paper_default(llmi);
        spec.hosts = 8;
        spec.vms = 32;
        spec.days = if opts.quick { 2 } else { 5 };
        spec
    };
    let points = llmi_grid(&policies, &[0.25, 0.75], mk_spec, opts.seed);
    let cores = auto_threads(points.len());
    println!(
        "\nsweep-runner scaling ({} points, {} worker(s) available)\n",
        points.len(),
        cores
    );
    let t0 = Instant::now();
    let serial = run_sweep(&points, 1);
    let serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = run_sweep(&points, 0);
    let parallel_s = t0.elapsed().as_secs_f64();
    // Fan-out must never change results — spot-check before reporting.
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.outcome.energy_kwh().to_bits(),
            b.outcome.energy_kwh().to_bits(),
            "parallel sweep diverged from serial"
        );
    }
    let mut sweep_table = TextTable::new(vec!["runner", "wall-clock s", "speedup"]);
    sweep_table.row(vec![
        "serial".to_string(),
        format!("{serial_s:.2}"),
        "1.0x".to_string(),
    ]);
    sweep_table.row(vec![
        format!("{cores} thread(s)"),
        format!("{parallel_s:.2}"),
        format!("{:.1}x", serial_s / parallel_s.max(1e-9)),
    ]);
    println!("{}", sweep_table.render());
    println!("(bit-identical outcomes in both modes; speedup tracks available cores)");

    // --- hyperscale fleet engine: fleet size × shard count.
    let fleet_sizes: Vec<usize> = match opts.hosts {
        Some(n) => vec![n],
        None if opts.quick => vec![1_000, 4_000],
        None => vec![1_000, 10_000, 100_000],
    };
    let horizon: u64 = if opts.quick { 24 } else { 168 };
    let max_shards = if opts.threads == 0 {
        auto_threads(usize::MAX)
    } else {
        opts.threads
    };
    let mut shard_counts = vec![1];
    if max_shards > 1 {
        shard_counts.push(max_shards);
    }
    println!("\nhyperscale fleet engine ({horizon} h horizon, shard counts {shard_counts:?})\n");
    // Flight-recorder depth: explicit `--trace-epochs`, or a default
    // window when `--telemetry` asks for the artifacts.
    let trace_epochs = if opts.trace_epochs > 0 {
        opts.trace_epochs
    } else if opts.telemetry {
        64
    } else {
        0
    };
    let fleet_cfg = |hosts: usize, shards: usize| FleetConfig {
        seed: opts.seed,
        shards,
        churn_per_epoch: (hosts / 32).max(8),
        trace_epochs,
        ..FleetConfig::new(hosts, (hosts * 10).min(1_000_000), horizon)
    };
    let mut fleet_table = TextTable::new(vec![
        "hosts",
        "VMs",
        "shards",
        "churn ms",
        "advance ms",
        "control ms",
        "host-hours/s",
        "digest",
    ]);
    let mut fleet_csv = String::from(
        "hosts,vms,horizon_hours,live_vms,placements,rejections,departures,\
         suspends,resumes,active_host_hours,drowsy_host_hours,energy_kwh,digest\n",
    );
    let mut fleet_points = Vec::new();
    let mut shard_identity = true;
    // Baseline (1-shard) telemetry: logical snapshots (grid-invariant,
    // so the artifact byte-diffs across `--threads` values), the last
    // size's span breakdown, and its flight recorder.
    let mut fleet_logical: Vec<JsonObject> = Vec::new();
    let mut fleet_spans: Option<JsonObject> = None;
    let mut fleet_recorder: Option<FlightRecorder> = None;
    for &hosts in &fleet_sizes {
        let mut baseline: Option<(FleetOutcome, FlightRecorder)> = None;
        for &shards in &shard_counts {
            let mut sim = FleetSim::new(fleet_cfg(hosts, shards));
            sim.run_horizon();
            let out = sim.outcome();
            let recorder = sim.recorder().clone();
            let wall_s = out.epoch_ms() / 1e3;
            fleet_table.row(vec![
                hosts.to_string(),
                out.vms_target.to_string(),
                out.shards.to_string(),
                format!("{:.1}", out.churn_ms),
                format!("{:.1}", out.advance_ms),
                format!("{:.1}", out.control_ms),
                format!("{:.0}", out.host_hours() as f64 / wall_s.max(1e-9)),
                format!("{:016x}", out.digest),
            ]);
            fleet_points.push(
                JsonObject::new()
                    .int("hosts", hosts as u64)
                    .int("vms", out.vms_target as u64)
                    .int("shards", out.shards as u64)
                    .num("churn_ms", out.churn_ms)
                    .num("advance_ms", out.advance_ms)
                    .num("control_ms", out.control_ms)
                    .num(
                        "host_hours_per_sec",
                        out.host_hours() as f64 / wall_s.max(1e-9),
                    )
                    .str("digest", &format!("{:016x}", out.digest)),
            );
            match &baseline {
                None => {
                    // Only the (deterministic) 1-shard rows feed the CSV,
                    // so `--threads 1` and `--threads N` runs byte-diff.
                    fleet_csv.push_str(&format!(
                        "{hosts},{},{horizon},{},{},{},{},{},{},{},{},{:.6},{:016x}\n",
                        out.vms_target,
                        out.live_vms,
                        out.placements,
                        out.rejections,
                        out.departures,
                        out.suspends,
                        out.resumes,
                        out.active_host_hours,
                        out.drowsy_host_hours,
                        out.energy_kwh,
                        out.digest,
                    ));
                    // Baseline telemetry: counters are grid-invariant
                    // sums, so these snapshots byte-diff across runs.
                    fleet_logical.push(
                        JsonObject::new()
                            .int("hosts", hosts as u64)
                            .object("metrics", &sim.logical_telemetry()),
                    );
                    fleet_spans = Some(sim.spans().to_json());
                    fleet_recorder = Some(recorder.clone());
                    baseline = Some((out, recorder));
                }
                Some((one, base_rec)) => {
                    let same = one.digest == out.digest
                        && one.energy_kwh.to_bits() == out.energy_kwh.to_bits();
                    shard_identity &= same;
                    if !same {
                        eprintln!(
                            "ERROR: {hosts}-host fleet diverged at {} shards \
                             ({:016x} vs {:016x})",
                            out.shards, one.digest, out.digest
                        );
                        // Localize: the flight recorders name the first
                        // epoch whose merged transition digest differs,
                        // and both rings are dumped for inspection.
                        if base_rec.enabled() {
                            match base_rec.first_divergence(&recorder) {
                                Some(epoch) => {
                                    eprintln!("flight recorder: first divergent epoch {epoch}")
                                }
                                None => eprintln!(
                                    "flight recorder: no divergence in the recorded \
                                     window (deepen --trace-epochs)"
                                ),
                            }
                            let dir = opts.telemetry_dir();
                            for (rec, name) in [
                                (base_rec, format!("flight_recorder_{hosts}h_1s.jsonl")),
                                (
                                    &recorder,
                                    format!("flight_recorder_{hosts}h_{shards}s.jsonl"),
                                ),
                            ] {
                                let path = dir.join(name);
                                match rec.dump(&path) {
                                    Ok(()) => eprintln!("[dumped {}]", path.display()),
                                    Err(e) => {
                                        eprintln!("cannot dump {}: {e}", path.display())
                                    }
                                }
                            }
                        } else {
                            eprintln!(
                                "flight recorder disabled — rerun with --trace-epochs N \
                                 to localize the divergent epoch"
                            );
                        }
                    }
                }
            }
        }
    }
    println!("{}", fleet_table.render());
    opts.write_csv("fleet_outcomes.csv", &fleet_csv);

    // Per-phase time breakdown of the last baseline fleet run: wall-clock
    // and share of churn / placement / advance / merge / QoS fold.
    let phase_breakdown = fleet_spans.clone().unwrap_or_default();
    opts.write_bench_json(
        "scalability",
        &opts
            .bench_json("scalability")
            .object("phase_breakdown", &phase_breakdown)
            .array("planner_points", &json_points)
            .num("drowsy_exponent", drowsy_exp)
            .num("multiplex_exponent", mult_exp)
            .num("sweep_serial_s", serial_s)
            .num("sweep_parallel_s", parallel_s)
            .num("sweep_speedup", serial_s / parallel_s.max(1e-9))
            .int("sweep_workers", cores as u64)
            .array("fleet_points", &fleet_points)
            .bool("fleet_shard_identity", shard_identity),
    );
    if opts.telemetry {
        let extra_logical = JsonObject::new().array("fleet", &fleet_logical);
        let extra_timing = JsonObject::new().object("fleet_spans", &phase_breakdown);
        opts.write_telemetry("scalability", Some(&extra_logical), Some(&extra_timing));
        if let Some(rec) = &fleet_recorder {
            if rec.enabled() {
                let path = opts.flight_recorder_path();
                match rec.dump(&path) {
                    Ok(()) => println!("[wrote {}]", path.display()),
                    Err(e) => eprintln!("cannot dump {}: {e}", path.display()),
                }
            }
        }
    }
    if !shard_identity {
        std::process::exit(1);
    }
}
