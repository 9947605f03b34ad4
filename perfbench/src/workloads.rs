//! The four workloads: how each is set up from its seed, driven through
//! the production code paths, checked and (when traced) attributed.

use std::collections::BTreeMap;
use std::time::Instant;

use dds_core::cluster::ClusterSpec;
use dds_core::datacenter::{Datacenter, DcEngine, DcOutcome, QosStreamConfig};
use dds_core::fleet::{FleetConfig, FleetQosConfig, FleetSim};
use dds_core::registry::PolicyRegistry;
use dds_core::spec::{VmSpec, WorkloadKind};
use dds_sim_core::qos::QosReport;
use dds_sim_core::{SimDuration, SimRng, SimTime, VmId, WorkerPool};
use dds_traces::{poisson_arrivals, slmu_burst_trace, RequestProfile};

use crate::pace::Pace;
use crate::probe;
use crate::side::{SideReplay, SideTotals};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `mixed-production` under `drowsy-dc` at ~1200 hosts, legacy engine,
    /// no QoS: the paper's control loop (consolidation-bound).
    PaperConsolidation,
    /// `sla-web-front` at 48 hosts with the web-search request stream,
    /// `drowsy-dc` and `sla-aware`: the streaming QoS fold.
    QosWeb,
    /// `hifi-flash` at 200 hosts on the high-fidelity engine with Poisson
    /// SLMU arrivals and departures: the admission path.
    ChurnHifi,
    /// `FleetSim` at 100k hosts / 1M VMs on the worker pool: the SoA fleet.
    FleetHyperscale,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperConsolidation,
        Workload::QosWeb,
        Workload::ChurnHifi,
        Workload::FleetHyperscale,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperConsolidation => "paper-consolidation",
            Workload::QosWeb => "qos-web",
            Workload::ChurnHifi => "churn-hifi",
            Workload::FleetHyperscale => "fleet-hyperscale",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The per-layer metric that should dominate this workload's epoch
    /// loop: the layer it was chosen to stress.
    pub fn claimed_layer(self) -> &'static str {
        match self {
            Workload::PaperConsolidation => "dc.consolidate_ms",
            Workload::QosWeb => "dc.qos_fold_ms",
            Workload::ChurnHifi => "dc.unspanned_ms",
            Workload::FleetHyperscale => "fleet.advance_ms",
        }
    }
}

// Workload sizes. Each repetition is one complete run of the workload.
const PAPER_HOSTS: usize = 1200;
const PAPER_DAYS: u64 = 2;
const QOS_HOSTS: usize = 48;
const QOS_DAYS: u64 = 2;
const QOS_POLICIES: [&str; 2] = ["drowsy-dc", "sla-aware"];
const CHURN_HOSTS: usize = 200;
const CHURN_DAYS: u64 = 2;
const CHURN_JOBS_PER_DAY: f64 = 2000.0;
const CHURN_MEAN_LIFETIME_H: u64 = 6;
const FLEET_HOSTS: usize = 100_000;
const FLEET_VMS: usize = 1_000_000;
const FLEET_HOURS: u64 = 168;

/// Wall-clock of the set-up phases of one repetition, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Catalog lookup, resizing and `to_cluster_spec`.
    pub compile_ns: u128,
    /// `ClusterSpec::vm_specs`: the VM trace generation.
    pub generate_ns: u128,
    /// `poisson_arrivals`, job specs and `schedule_arrival`.
    pub arrivals_ns: u128,
    /// Host specs, initial placement, policy and `Datacenter`/`FleetSim`
    /// construction.
    pub build_ns: u128,
}

impl Setup {
    /// Total set-up time in seconds.
    pub fn total_s(&self) -> f64 {
        (self.compile_ns + self.generate_ns + self.arrivals_ns + self.build_ns) as f64 / 1e9
    }
}

/// The request-level QoS outcome of a repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QosSummary {
    /// Requests served (the histogram's population).
    pub requests: u64,
    /// Requests within the SLA.
    pub under_sla: u64,
    /// SLA violations charged to host wakes.
    pub wake_violations: u64,
    /// SLA violations charged to queueing on an awake host.
    pub queue_violations: u64,
    /// Requests never served within the run.
    pub unserved: u64,
    /// Request latency at p99.9, simulated ms.
    pub p999_ms: f64,
}

impl QosSummary {
    fn absorb(&mut self, r: &QosReport) {
        self.requests += r.total;
        self.under_sla += r.under_sla;
        self.wake_violations += r.wake_violations;
        self.queue_violations += r.queue_violations;
        self.unserved += r.unserved;
    }

    /// (requests over SLA + unserved) ÷ (requests + unserved).
    pub fn sla_miss_ratio(&self) -> f64 {
        let missed = self.requests - self.under_sla + self.unserved;
        ratio(missed as f64, (self.requests + self.unserved) as f64)
    }
}

/// The simulated outcome of one repetition. Deterministic for a seed:
/// every repetition of a run must reproduce it exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Simulated host-hours (the throughput numerator).
    pub host_hours: f64,
    /// Simulated fleet energy, kWh.
    pub energy_kwh: f64,
    /// Host-hour-weighted low-power fraction (Table I "Global").
    pub suspended_fraction: f64,
    /// Host suspend transitions.
    pub suspends: u64,
    /// VM migrations applied.
    pub migrations: u64,
    /// VM arrivals admitted / rejected.
    pub admissions: (u64, u64),
    /// Request-level QoS, on QoS workloads.
    pub qos: Option<QosSummary>,
    /// `FleetOutcome::digest` (fleet workload), else 0.
    pub digest: u64,
}

impl SimOutcome {
    /// FNV-1a over every field, floats by their bits.
    pub fn fingerprint(&self) -> u64 {
        let q = self.qos.clone().unwrap_or_default();
        let words = [
            self.host_hours.to_bits(),
            self.energy_kwh.to_bits(),
            self.suspended_fraction.to_bits(),
            self.suspends,
            self.migrations,
            self.admissions.0,
            self.admissions.1,
            q.requests,
            q.under_sla,
            q.wake_violations,
            q.queue_violations,
            q.unserved,
            q.p999_ms.to_bits(),
            self.digest,
        ];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// One completed repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Set-up phase timings.
    pub setup: Setup,
    /// Wall-clock of the epoch loop (through outcome assembly), ns.
    pub loop_ns: u128,
    /// Reference seconds per wall second during the loop (see `pace`).
    pub speed: f64,
    /// What was simulated.
    pub sim: SimOutcome,
    /// Per-layer metrics, on traced repetitions.
    pub layers: Option<Layers>,
}

impl Rep {
    /// Simulated host-hours per reference second of the epoch loop.
    pub fn host_hours_per_s(&self) -> f64 {
        self.sim.host_hours / (self.loop_ns as f64 / 1e9 * self.speed)
    }

    /// Set-up time in reference seconds.
    pub fn setup_s(&self) -> f64 {
        self.setup.total_s() * self.speed
    }
}

/// Per-layer metrics of a traced repetition, plus its per-epoch wall
/// samples (ms).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Metric name → value.
    pub values: BTreeMap<&'static str, f64>,
    /// Wall-clock of each `run_hours(1)` epoch, ms.
    pub epoch_ms: Vec<f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs one repetition of `w`. `traced` adds per-epoch timing, recorder
/// deltas and side replays. Returns an error when an output check fails.
pub fn run(w: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    match w {
        Workload::FleetHyperscale => run_fleet(seed, traced),
        _ => run_datacenters(w, seed, traced),
    }
}

/// A VM arrival scheduled on the engine before the first epoch.
struct Job {
    at: SimTime,
    spec: VmSpec,
    lifetime: SimDuration,
}

/// The compiled scenario of a `Datacenter` workload and the policies it
/// runs, one after the other on this thread.
fn compile(w: Workload) -> (ClusterSpec, Vec<&'static str>) {
    let (name, hosts, days, policies): (_, _, _, Vec<&'static str>) = match w {
        Workload::PaperConsolidation => (
            "mixed-production",
            PAPER_HOSTS,
            PAPER_DAYS,
            vec!["drowsy-dc"],
        ),
        Workload::QosWeb => ("sla-web-front", QOS_HOSTS, QOS_DAYS, QOS_POLICIES.to_vec()),
        Workload::ChurnHifi => ("hifi-flash", CHURN_HOSTS, CHURN_DAYS, vec!["drowsy-dc"]),
        Workload::FleetHyperscale => unreachable!("the fleet workload runs no Datacenter"),
    };
    let mut scenario = dds_scenarios::find(name).expect("catalog scenario exists");
    scenario.days = days;
    scenario.scale_to_hosts(hosts);
    let mut spec = scenario.to_cluster_spec();
    if w == Workload::QosWeb {
        // The tournament's cell configuration at the web-search request
        // rate (the scenario's [qos] section already selects the quick
        // wake), streamed serially on this thread.
        let profile = RequestProfile::web_search_quick_resume();
        spec.config.sla = profile.sla;
        spec.config.request_peak_rps = profile.peak_rps;
        spec.config.request_service = SimDuration::from_millis(profile.mean_service_ms as u64);
        spec.config.track_power_timeline = false;
        spec.config.qos_stream = Some(QosStreamConfig::serial(profile));
    }
    (spec, policies)
}

/// The SLMU job stream of `churn-hifi`: Poisson arrivals with exponential
/// lifetimes, each a flat-out burst trace.
fn slmu_jobs(seed: u64, days: u64) -> Vec<Job> {
    let mut rng = SimRng::new(seed).stream("perfbench-arrivals");
    poisson_arrivals(
        SimTime::EPOCH,
        SimDuration::from_days(days),
        CHURN_JOBS_PER_DAY,
        Some(SimDuration::from_hours(CHURN_MEAN_LIFETIME_H)),
        &mut rng,
    )
    .into_iter()
    .map(|ev| {
        let lifetime = ev.lifetime.expect("the job stream has finite lifetimes");
        Job {
            at: ev.at,
            spec: VmSpec {
                id: VmId(0), // assigned on admission
                name: "slmu".to_string(),
                vcpus: 2.0,
                ram_mb: 4_096,
                trace: slmu_burst_trace("slmu", lifetime),
                kind: WorkloadKind::Batch,
            },
            lifetime,
        }
    })
    .collect()
}

fn run_datacenters(w: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let mut setup = Setup::default();
    let t = Instant::now();
    let (spec, policies) = compile(w);
    setup.compile_ns = t.elapsed().as_nanos();
    let hours = spec.days * 24;
    let registry = PolicyRegistry::standard();

    let mut loop_ns = 0u128;
    let mut sim = SimOutcome {
        host_hours: 0.0,
        energy_kwh: 0.0,
        suspended_fraction: 0.0,
        suspends: 0,
        migrations: 0,
        admissions: (0, 0),
        qos: (w == Workload::QosWeb).then(QosSummary::default),
        digest: 0,
    };
    let mut latencies = dds_sim_core::stats::LatencyHistogram::new();
    let mut layers = traced.then(Layers::default);
    let mut side_totals = SideTotals::default();
    let before = traced.then(probe::snapshot);
    let mut suspended_host_hours = 0.0;
    let mut pace = Pace::new();

    for (k, policy) in policies.iter().enumerate() {
        let t = Instant::now();
        let vms = spec.vm_specs(seed);
        setup.generate_ns += t.elapsed().as_nanos();
        let initial_vms = vms.len();
        // Side replays cover the first policy of a static population.
        let mut side = (traced && k == 0 && w != Workload::ChurnHifi).then(|| {
            SideReplay::new(
                policy,
                &spec.config,
                spec.host_specs(false),
                vms.clone(),
                seed,
            )
        });

        let t = Instant::now();
        let hosts = spec.host_specs(false);
        let placement = spec.initial_placement(vms.len());
        let built = registry
            .build(policy, &spec.config, None)
            .ok_or_else(|| format!("policy {policy} is not registered"))?;
        let mut dc =
            Datacenter::with_policy(spec.config.clone(), built, hosts, vms, placement, seed);
        setup.build_ns += t.elapsed().as_nanos();

        let t = Instant::now();
        let jobs = if w == Workload::ChurnHifi {
            slmu_jobs(seed, spec.days)
        } else {
            Vec::new()
        };
        let scheduled = jobs.len() as u64;
        let mut engine = DcEngine::new(&mut dc, spec.engine);
        for job in jobs {
            engine.schedule_arrival(job.at, job.spec, Some(job.lifetime));
        }
        setup.arrivals_ns += t.elapsed().as_nanos();

        // The epoch loop: one control period per `run_hours(1)`. The
        // calibration sample and the side replays stay outside the timed
        // epochs.
        for h in 0..hours {
            if let Some(side) = side.as_mut() {
                side.before_epoch(h, engine.dc());
            }
            pace.sample();
            let t = Instant::now();
            engine.run_hours(1);
            let dt = t.elapsed().as_nanos();
            loop_ns += dt;
            if let Some(layers) = layers.as_mut() {
                layers.epoch_ms.push(dt as f64 / 1e6);
            }
            if let Some(side) = side.as_mut() {
                side.after_epoch(h, engine.dc());
            }
        }
        let (admitted, rejected) = engine.arrival_stats();
        drop(engine);
        let live = dc.live_vm_count();
        let slots = dc.vm_slot_count();
        let t = Instant::now();
        let out = dc.finish();
        loop_ns += t.elapsed().as_nanos();

        check_dc(&spec, &out, hours)?;
        if w == Workload::ChurnHifi {
            if admitted + rejected != scheduled {
                return Err(format!(
                    "{admitted} admitted + {rejected} rejected != {scheduled} arrivals"
                ));
            }
            if admitted == 0 || slots != initial_vms + admitted as usize || live > slots {
                return Err(format!(
                    "VM conservation: {initial_vms} initial + {admitted} admitted, \
                     {slots} slots, {live} live"
                ));
            }
        }
        let host_hours = (spec.hosts as u64 * hours) as f64;
        sim.host_hours += host_hours;
        sim.energy_kwh += out.energy_kwh;
        suspended_host_hours += out.global_suspended_fraction * host_hours;
        sim.suspends += out.suspend_cycles.iter().map(|&(_, n)| n).sum::<u64>();
        sim.migrations += u64::from(out.total_migrations());
        sim.admissions.0 += admitted;
        sim.admissions.1 += rejected;
        if let Some(q) = sim.qos.as_mut() {
            let report = out.qos.as_ref().ok_or("a QoS run returned no QoS report")?;
            check_qos(report)?;
            q.absorb(report);
            latencies.merge(&report.latencies);
        }
        if let Some(side) = side {
            side_totals = side.totals;
        }
    }
    sim.suspended_fraction = suspended_host_hours / sim.host_hours;
    if let Some(q) = sim.qos.as_mut() {
        q.p999_ms = latencies.quantile(0.999).unwrap_or(0.0);
    }

    if let (Some(layers), Some(before)) = (layers.as_mut(), before) {
        let delta = before.delta_to(&probe::snapshot());
        dc_layers(&sim, &delta, &side_totals, loop_ns, layers);
    }
    Ok(Rep {
        setup,
        loop_ns,
        speed: pace.speed(),
        sim,
        layers,
    })
}

/// Output checks every `Datacenter` run must pass.
fn check_dc(spec: &ClusterSpec, out: &DcOutcome, hours: u64) -> Result<(), String> {
    if out.hours != hours {
        return Err(format!("simulated {} hours, expected {hours}", out.hours));
    }
    // Energy lies between every host suspended and every host at its
    // highest draw for the whole run.
    let models = spec
        .fleet
        .iter()
        .map(|h| h.power.as_ref().unwrap_or(&spec.config.power));
    let (mut low_kwh, mut high_kwh) = (0.0, 0.0);
    for m in models {
        low_kwh += m.suspended_watts * hours as f64 / 1000.0;
        high_kwh += m.peak_watts.max(m.transition_watts) * hours as f64 / 1000.0;
    }
    if !(out.energy_kwh >= low_kwh * (1.0 - 1e-9) && out.energy_kwh <= high_kwh) {
        return Err(format!(
            "energy {} kWh outside [{low_kwh}, {high_kwh}]",
            out.energy_kwh
        ));
    }
    if !(out.global_suspended_fraction > 0.0 && out.global_suspended_fraction < 1.0) {
        return Err(format!(
            "suspended fraction {} outside (0, 1)",
            out.global_suspended_fraction
        ));
    }
    Ok(())
}

/// The `QosReport` invariants: every served request is within the SLA
/// or charged to exactly one violation cause, and the histogram holds
/// every served request.
fn check_qos(r: &QosReport) -> Result<(), String> {
    if r.under_sla + r.wake_violations + r.queue_violations != r.total {
        return Err(format!(
            "QoS counters: {} under SLA + {} wake + {} queue != {} total",
            r.under_sla, r.wake_violations, r.queue_violations, r.total
        ));
    }
    if r.latencies.count() != r.total {
        return Err(format!(
            "QoS histogram holds {} samples for {} requests",
            r.latencies.count(),
            r.total
        ));
    }
    if r.total == 0 {
        return Err("a QoS workload served no requests".to_string());
    }
    Ok(())
}

/// Fills the per-layer metrics of a traced `Datacenter` repetition.
fn dc_layers(
    sim: &SimOutcome,
    d: &probe::Delta,
    side: &SideTotals,
    loop_ns: u128,
    layers: &mut Layers,
) {
    let v = &mut layers.values;
    let loop_ms = loop_ns as f64 / 1e6;
    let mut spanned = 0.0;
    for (i, (_, metric)) in probe::DC_SPANS.iter().enumerate() {
        v.insert(metric, d.span_ms[i]);
        spanned += d.span_ms[i];
    }
    let unspanned = (loop_ms - spanned).max(0.0);
    v.insert("dc.unspanned_ms", unspanned);
    v.insert("loop.unattributed_ms", unspanned);
    v.insert("dc.admissions", sim.admissions.0 as f64);
    v.insert("dc.admission_rejects", sim.admissions.1 as f64);
    v.insert(
        "dc.unspanned_ms_per_admission",
        ratio(unspanned, sim.admissions.0 as f64),
    );
    for (_, metric) in probe::DC_COUNTERS {
        if metric != "dc.migrations" {
            v.insert(metric, d.counter(metric) as f64);
        }
    }
    let wakes: u64 = [
        "net.wakes_traffic",
        "net.wakes_timer",
        "net.wakes_scheduled",
        "net.wakes_management",
    ]
    .iter()
    .map(|m| d.counter(m))
    .sum();
    v.insert(
        "net.management_wake_ratio",
        ratio(d.counter("net.wakes_management") as f64, wakes as f64),
    );
    v.insert("power.resume_ms_mean", ratio(d.resume.1, d.resume.0 as f64));
    let host_days = sim.host_hours / 24.0;
    v.insert(
        "placement.migrations_per_host_day",
        ratio(d.counter("dc.migrations") as f64, host_days),
    );
    let plans = side.plans as f64;
    v.insert("placement.samples", plans);
    v.insert(
        "placement.snapshot_ms",
        ratio(side.snapshot_ns as f64 / 1e6, plans),
    );
    v.insert(
        "placement.index_ms",
        ratio(side.index_ns as f64 / 1e6, plans),
    );
    v.insert("placement.plan_ms", ratio(side.plan_ns as f64 / 1e6, plans));
    let vm_hours = side.vm_hours as f64;
    v.insert(
        "idleness.observe_ns_per_vm_hour",
        ratio(side.observe_ns as f64, vm_hours),
    );
    v.insert(
        "idleness.score_ns_per_vm_hour",
        ratio(side.score_ns as f64, vm_hours),
    );
    if let Some(q) = &sim.qos {
        let fold_ms = v["dc.qos_fold_ms"];
        qos_layers(q, fold_ms, loop_ms, v);
    }
    pool_layers(d.pool_busy_ns, loop_ns, v);
    v.insert("loop.wall_ms", loop_ms);
}

fn qos_layers(q: &QosSummary, fold_ms: f64, loop_ms: f64, v: &mut BTreeMap<&'static str, f64>) {
    v.insert("qos.requests", q.requests as f64);
    v.insert(
        "qos.requests_per_s",
        ratio(q.requests as f64, loop_ms / 1e3),
    );
    v.insert(
        "qos.fold_ns_per_request",
        ratio(fold_ms * 1e6, q.requests as f64),
    );
    v.insert("qos.wake_violations", q.wake_violations as f64);
    v.insert("qos.queue_violations", q.queue_violations as f64);
    v.insert("qos.unserved", q.unserved as f64);
    v.insert("qos.sla_miss_ratio", q.sla_miss_ratio());
    v.insert("qos.p999_ms", q.p999_ms);
}

fn pool_layers(busy_ns: u64, loop_ns: u128, v: &mut BTreeMap<&'static str, f64>) {
    let workers = WorkerPool::global().workers() as f64;
    v.insert("pool.busy_ms", busy_ns as f64 / 1e6);
    v.insert(
        "pool.utilization",
        ratio(busy_ns as f64, loop_ns as f64 * workers),
    );
}

fn run_fleet(seed: u64, traced: bool) -> Result<Rep, String> {
    let mut setup = Setup::default();
    let t = Instant::now();
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = FleetConfig {
        shards,
        seed,
        qos: Some(FleetQosConfig::paper_default()),
        ..FleetConfig::new(FLEET_HOSTS, FLEET_VMS, FLEET_HOURS)
    };
    setup.compile_ns = t.elapsed().as_nanos();
    let t = Instant::now();
    let mut fleet = FleetSim::new(cfg);
    setup.build_ns = t.elapsed().as_nanos();

    let before = traced.then(probe::snapshot);
    let mut layers = traced.then(Layers::default);
    let mut pace = Pace::new();
    let mut loop_ns = 0u128;
    for h in 0..FLEET_HOURS {
        pace.sample();
        let t = Instant::now();
        fleet.step_hour(h);
        let dt = t.elapsed().as_nanos();
        loop_ns += dt;
        if let Some(layers) = layers.as_mut() {
            layers.epoch_ms.push(dt as f64 / 1e6);
        }
    }
    let t = Instant::now();
    let out = fleet.outcome();
    loop_ns += t.elapsed().as_nanos();

    let host_hours = out.host_hours();
    if out.active_host_hours + out.drowsy_host_hours != host_hours {
        return Err(format!(
            "{} active + {} drowsy host-hours != {host_hours}",
            out.active_host_hours, out.drowsy_host_hours
        ));
    }
    if out.placements - out.departures != out.live_vms as u64 {
        return Err(format!(
            "VM conservation: {} placed - {} departed != {} live",
            out.placements, out.departures, out.live_vms
        ));
    }
    if out.energy_kwh.is_nan() || out.energy_kwh <= 0.0 || out.drowsy_host_hours == 0 {
        return Err(format!(
            "implausible fleet: {} kWh, {} drowsy host-hours",
            out.energy_kwh, out.drowsy_host_hours
        ));
    }
    let report = out.qos.as_ref().ok_or("the fleet ran without QoS")?;
    check_qos(report)?;
    let mut qos = QosSummary {
        p999_ms: report.p999().unwrap_or(0.0),
        ..QosSummary::default()
    };
    qos.absorb(report);
    let sim = SimOutcome {
        host_hours: host_hours as f64,
        energy_kwh: out.energy_kwh,
        suspended_fraction: out.drowsy_host_hours as f64 / host_hours as f64,
        suspends: out.suspends,
        migrations: 0,
        admissions: (out.placements, out.rejections),
        qos: Some(qos),
        digest: out.digest,
    };

    if let (Some(layers), Some(before)) = (layers.as_mut(), before) {
        let d = before.delta_to(&probe::snapshot());
        let v = &mut layers.values;
        let spans = fleet.spans();
        let mut spanned = 0.0;
        for (span, metric) in [
            ("fleet.churn", "fleet.churn_ms"),
            ("fleet.placement", "fleet.placement_ms"),
            ("fleet.advance", "fleet.advance_ms"),
            ("fleet.merge", "fleet.merge_ms"),
            ("fleet.qos_fold", "fleet.qos_fold_ms"),
        ] {
            let ms = spans.ns(span) as f64 / 1e6;
            spanned += ms;
            v.insert(metric, ms);
        }
        let loop_ms = loop_ns as f64 / 1e6;
        v.insert("loop.wall_ms", loop_ms);
        v.insert("loop.unattributed_ms", (loop_ms - spanned).max(0.0));
        v.insert(
            "fleet.reject_ratio",
            ratio(
                out.rejections as f64,
                (out.placements + out.rejections) as f64,
            ),
        );
        v.insert("fleet.suspends", out.suspends as f64);
        v.insert("fleet.resumes", out.resumes as f64);
        v.insert("fleet.shards", out.shards as f64);
        let fold_ms = v["fleet.qos_fold_ms"];
        qos_layers(sim.qos.as_ref().expect("fleet QoS"), fold_ms, loop_ms, v);
        pool_layers(d.pool_busy_ns, loop_ns, v);
    }
    Ok(Rep {
        setup,
        loop_ns,
        speed: pace.speed(),
        sim,
        layers,
    })
}
