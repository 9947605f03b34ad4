//! The streaming QoS pipeline: request-level SLA accounting computed
//! *inline* with the run, one control epoch at a time — the only
//! request-level QoS evaluator.
//!
//! At the end of each control epoch it draws that hour's Poisson
//! arrivals per interactive VM (interval-batched, through
//! [`RequestStream`]), routes them to the VM's current host, starts each
//! once that host's latest resume has ended, and folds the
//! results into a per-epoch [`QosWindow`], on every idle core (see
//! *Parallel fold* below). The window is handed to the
//! control policy at the top of the next epoch
//! ([`ControlPolicy::observe_qos`]) — the closed-loop signal seam — and
//! its report accumulates into the run-wide [`QosReport`] surfaced on
//! [`DcOutcome::qos`].
//!
//! ## Semantics and the oracle
//!
//! Each interactive VM runs the paper's open-loop client: Poisson
//! arrivals whose hourly rate follows the activity trace, drawn from the
//! VM's per-hour stream ([`dds_traces::hour_request_rng`]), and one FCFS
//! server per vCPU. These are the requests the physics already saw: the
//! first of them is the one that woke a parked host (`simulate_host_hour`
//! starts a traffic wake at the earliest first arrival among the host's
//! active interactive residents). So no request arrives before its host's
//! resume began, and each starts at `max(arrival, end of the host's
//! latest resume)`: at once on an awake host, at the end of the resume
//! in flight otherwise (`dds_sim_core::qos::fcfs_serve`). The tests of
//! this module pin the pipeline **bit for bit** — exact counters,
//! histogram buckets, worst wake latency — against an event-per-request
//! oracle that walks a fully recorded twin of the run
//! ([`DcConfig::track_power_timeline`]: power timelines and the placement
//! log) with the sequential `RequestGenerator` client.
//!
//! **Why the current host and its latest resume suffice.** A VM changes
//! host only at the top of an hour (consolidation moves and admissions
//! both place at `SimTime::from_hours(hour)`), before that hour's fold,
//! so at the fold the VM's host is its host for every arrival of the
//! hour. A VM active in hour `h` (level at or above the idleness noise
//! gate — the same gate the request stream uses) keeps its host awake
//! from that host's latest resume to the end of `h`, and every wake a
//! request of hour `h` meets ends by then (a traffic wake is clamped to
//! finish within its hour, a timer or management wake starts at the hour
//! boundary, and a lead-fired scheduled wake finishes at a boundary no
//! request of the previous hour waits on). Oasis parks working sets on
//! its always-on consolidation host. `serve_hour` checks these facts in
//! debug builds. Departed VMs stop their client when they are deleted.
//!
//! ## Parallel fold
//!
//! Each epoch cuts the VM slots into contiguous ranges of about equal
//! expected requests, at most one per executor of the global
//! [`WorkerPool`] (its workers plus the thread running the datacenter).
//! Every range serves its VMs in slot order into its own [`QosWindow`]
//! with its own request buffer, on whichever executor claims it, and the
//! windows merge in range order ([`QosWindow::merge`]). A VM's client
//! state belongs to exactly one range, its requests come from its own
//! per-hour stream and every window counter is exact integer state, so
//! the merged window is the one a serial walk records, bit for bit, on
//! any number of workers. A 1-CPU process (a pool of 0 workers) folds one
//! range inline; a fold nested in a sweep or tournament cell uses the
//! workers that are idle and drains the rest of its batch itself.
//!
//! ## Memory
//!
//! Nothing whole-run is retained: per live VM the state is its FCFS
//! server pool (each hour's RNG is derived afresh), dropped when the VM
//! departs; per range, one buffer of the current VM-hour's arrivals as
//! `u32` millisecond offsets (each service time is drawn as its request
//! is served). No timeline is recorded unless the run asked for
//! [`DcConfig::track_power_timeline`]. That is what lets the pipeline
//! ride along at fleet scale where materializing timelines and placement
//! logs cannot.

use super::*;
use dds_sim_core::qos::{fcfs_serve, QosReport, QosWindow};
use dds_sim_core::WorkerPool;
use dds_traces::{hour_request_rng, RequestProfile, RequestStream};

/// Configuration of the streaming QoS pipeline (see the module-level
/// documentation above).
/// Attach it to [`DcConfig::qos_stream`] to compute request-level QoS
/// inline with the run. The profile's `peak_rps` is also the rate the
/// run's traffic wakes follow.
///
/// The activity noise gate is the run's own
/// [`ImConfig::noise_threshold`](dds_idleness::ImConfig) — requests flow
/// exactly in the hours that keep a host awake, the invariant the
/// per-epoch evaluation rests on.
///
/// ```
/// use dds_core::cluster::{run_cluster_policy, ClusterSpec};
/// use dds_core::datacenter::QosStreamConfig;
/// use dds_traces::RequestProfile;
///
/// let mut spec = ClusterSpec::paper_default(0.75);
/// spec.hosts = 2;
/// spec.vms = 6;
/// spec.days = 1;
/// let profile = RequestProfile {
///     peak_rps: 1.0,
///     ..RequestProfile::web_search_quick_resume()
/// };
/// spec.config.qos_stream = Some(QosStreamConfig::serial(profile));
/// let outcome = run_cluster_policy(&spec, "drowsy-dc", 42);
/// let qos = outcome.dc.qos.as_ref().expect("the run streamed QoS");
/// assert!(outcome.energy_kwh() > 0.0);
/// assert!(qos.sla_attainment() <= 1.0);
/// println!(
///     "within SLA: {:.2} %, p99.9: {:?} ms",
///     qos.sla_attainment() * 100.0,
///     qos.p999()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct QosStreamConfig {
    /// The request workload attached to every interactive VM.
    pub profile: RequestProfile,
}

impl QosStreamConfig {
    /// Streams `profile`. The name is historical: each epoch's fold runs
    /// on the thread that runs the datacenter plus whichever workers of
    /// the global [`WorkerPool`] are idle, and its report is the same
    /// bits on any number of them.
    pub fn serial(profile: RequestProfile) -> Self {
        QosStreamConfig { profile }
    }
}

/// Live state of the streaming pipeline: per-VM server pools, the reused
/// per-range request buffers, the pending epoch window and the run-wide
/// report.
pub(super) struct QosStream {
    /// The run's master seed, from which each VM-hour's requests derive.
    seed: u64,
    /// Activity gate (the run's `ImConfig::noise_threshold`).
    noise: f64,
    /// The request workload every buffer draws.
    profile: RequestProfile,
    /// Each VM's FCFS server pool, indexed by `VmId` (`servers[vm][i]` =
    /// the instant server `i` frees up): sized to the VM's vCPUs on first
    /// use, persisted across epochs and dropped when the VM departs.
    servers: Vec<Vec<SimTime>>,
    /// Each slot's weight this epoch: its activity level if it is an
    /// active interactive VM, 0 otherwise (reused across epochs).
    weights: Vec<f64>,
    /// One request buffer per range, reused across epochs.
    buffers: Vec<RequestStream>,
    /// The most recently completed epoch's window, delivered to the
    /// policy at the top of the next epoch.
    pub(super) pending: Option<QosWindow>,
    /// Run-wide accumulation of every epoch window.
    report: QosReport,
    /// The pool a test folds on instead of the global one.
    #[cfg(test)]
    pool: Option<std::sync::Arc<WorkerPool>>,
}

/// What every range of one epoch's fold reads.
struct EpochFold<'a> {
    hour: u64,
    seed: u64,
    sla_ms: u64,
    hosts: &'a [HostSim],
}

impl QosStream {
    pub(super) fn new(cfg: QosStreamConfig, seed: u64, noise: f64) -> Self {
        QosStream {
            seed,
            noise,
            servers: Vec::new(),
            weights: Vec::new(),
            buffers: Vec::new(),
            report: QosReport::new(cfg.profile.sla.as_millis()),
            profile: cfg.profile,
            pending: None,
            #[cfg(test)]
            pool: None,
        }
    }

    /// Drops a departed VM's server pool: its client stopped at deletion,
    /// so the pool can never be read again.
    pub(super) fn on_departure(&mut self, vm: VmId) {
        if let Some(servers) = self.servers.get_mut(vm.index()) {
            *servers = Vec::new();
        }
    }

    /// The run-wide report accumulated so far.
    pub(super) fn into_report(self) -> QosReport {
        self.report
    }

    /// Processes control epoch `hour`: draws and serves every interactive
    /// VM's requests for that hour on its current host, producing the
    /// epoch's [`QosWindow`] (left in `pending`) and folding it into the
    /// run report.
    ///
    /// The VM slots are cut into contiguous ranges of about equal
    /// expected requests ([`range_ends`]), at most one per executor of
    /// the pool (its workers plus this thread). Each range serves its
    /// VMs in slot order into its own window with its own request
    /// buffer; the windows merge in range order. Clients are independent
    /// and every window counter is exact integer state, so the merged
    /// window is the serial one bit for bit.
    pub(super) fn process_epoch(&mut self, hour: u64, hosts: &[HostSim], vms: &[VmSim]) {
        #[cfg(test)]
        let test_pool = self.pool.clone();
        #[cfg(test)]
        let pool = match &test_pool {
            Some(pool) => pool,
            None => WorkerPool::global(),
        };
        #[cfg(not(test))]
        let pool = WorkerPool::global();

        if self.servers.len() < vms.len() {
            self.servers.resize_with(vms.len(), Vec::new);
        }
        self.weights.clear();
        self.weights.extend(vms.iter().map(|vm| {
            if vm.spec.kind != WorkloadKind::Interactive || vm.departed {
                return 0.0;
            }
            let level = vm.spec.trace.level_at_hour(hour);
            if level < self.noise {
                0.0
            } else {
                level
            }
        }));
        let ends = range_ends(&self.weights, pool.workers() + 1);
        let profile = &self.profile;
        if self.buffers.len() < ends.len() {
            self.buffers
                .resize_with(ends.len(), || RequestStream::new(profile.clone()));
        }
        let epoch = &EpochFold {
            hour,
            seed: self.seed,
            sla_ms: self.report.sla_ms,
            hosts,
        };
        let mut servers = &mut self.servers[..vms.len()];
        let mut start = 0;
        let mut tasks = Vec::with_capacity(ends.len());
        for (&end, requests) in ends.iter().zip(&mut self.buffers) {
            let (range, rest) = std::mem::take(&mut servers).split_at_mut(end - start);
            servers = rest;
            let vms = &vms[start..end];
            let weights = &self.weights[start..end];
            tasks.push(move || fold_range(epoch, vms, weights, range, requests));
            start = end;
        }
        let mut windows = pool.run_ordered(0, tasks).into_iter();
        let mut window = windows.next().expect("the cut yields at least one range");
        for piece in windows {
            window.merge(&piece);
        }
        self.report.merge(&window.report);
        self.pending = Some(window);
    }
}

/// Cuts slots `0..weights.len()` into at most `executors` contiguous,
/// non-empty ranges of about equal total weight and returns the ranges'
/// ends in ascending order; the last end is `weights.len()`. A cut falls
/// after the slot whose running weight passes the next multiple of
/// `total / executors`. Without weight, or with one executor, the answer
/// is one range.
fn range_ends(weights: &[f64], executors: usize) -> Vec<usize> {
    let n = weights.len();
    let total: f64 = weights.iter().sum();
    let mut ends = Vec::with_capacity(executors.max(1));
    if executors > 1 && total > 0.0 {
        let share = total / executors as f64;
        let (mut acc, mut passed) = (0.0, 0usize);
        for (i, &w) in weights.iter().enumerate().take(n.saturating_sub(1)) {
            acc += w;
            let shares = (acc / share) as usize;
            if shares > passed {
                passed = shares;
                ends.push(i + 1);
                if ends.len() + 1 == executors {
                    break;
                }
            }
        }
    }
    ends.push(n);
    ends
}

/// Serves one range's requests of the epoch (`vms` with their `weights`
/// and `servers`) in slot order into a fresh window, drawing them through
/// `requests`.
fn fold_range(
    epoch: &EpochFold<'_>,
    vms: &[VmSim],
    weights: &[f64],
    servers: &mut [Vec<SimTime>],
    requests: &mut RequestStream,
) -> QosWindow {
    let mut window = QosWindow::new(epoch.hour, epoch.sla_ms);
    for ((vm, &level), servers) in vms.iter().zip(weights).zip(servers) {
        if level > 0.0 {
            let mut rng = hour_request_rng(epoch.seed, vm.spec.id.index() as u64, epoch.hour);
            let hour_requests = requests.hour(&mut rng, epoch.hour, level);
            let host = &epoch.hosts[vm.host.index()];
            serve_hour(vm, host, epoch.hour, hour_requests, servers, &mut window);
        }
    }
    window
}

/// Serves active VM `vm`'s `requests` of `hour` (arrival and service
/// pairs) on its FCFS `servers` into `window`. Every request goes to the
/// VM's current `host` and starts no earlier than the end of that host's
/// latest resume.
fn serve_hour(
    vm: &VmSim,
    host: &HostSim,
    hour: u64,
    requests: impl Iterator<Item = (SimTime, SimDuration)>,
    servers: &mut Vec<SimTime>,
    window: &mut QosWindow,
) {
    if servers.is_empty() {
        servers.resize((vm.spec.vcpus.round() as usize).max(1), SimTime::EPOCH);
    }
    let hid = vm.host;
    let (resumed, operational) = host.last_resume;
    debug_assert_eq!(
        host.power.state(),
        PowerState::Active,
        "host {hid} of an active VM is not awake at the fold of hour {hour}"
    );
    debug_assert!(
        operational <= SimTime::from_hours(hour + 1),
        "a request of hour {hour} waits on a wake of host {hid} ending at {operational}"
    );
    for (arrival, service) in requests {
        debug_assert!(
            arrival >= resumed,
            "a request of hour {hour} reached host {hid} at {arrival} before its resume began"
        );
        let ready = arrival.max(operational);
        let (latency_ms, wake_hit) = fcfs_serve(servers, arrival, service, ready);
        window.record(hid.index() as u32, latency_ms, wake_hit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_traces::{RequestGenerator, TracePattern, VmTrace};
    use std::sync::Arc;

    /// Binary-search residency lookup: the host `moves` (one VM's
    /// placement log, time-ordered) assigns the VM at instant `t`.
    fn host_at(moves: &[(SimTime, HostId)], t: SimTime) -> Option<HostId> {
        let i = moves.partition_point(|&(at, _)| at <= t);
        i.checked_sub(1).map(|i| moves[i].1)
    }

    /// The oracle for one VM of a fully recorded run: each active hour's
    /// requests drawn event per request by the sequential
    /// `RequestGenerator` on that hour's stream, routed through the
    /// placement log and served from the recorded timeline's operational
    /// instant, into a fresh report. Everything it touches is derived
    /// from `(seed, vm, hour)` and the recorded run, so the result is a
    /// pure function.
    fn replay_vm_reference(
        vm: &VmSpec,
        moves: &[(SimTime, HostId)],
        timelines: &[PowerTimeline],
        profile: &RequestProfile,
        noise: f64,
        seed: u64,
        hours: u64,
    ) -> QosReport {
        let mut report = QosReport::new(profile.sla.as_millis());
        if vm.kind != WorkloadKind::Interactive {
            // Timer-driven VMs are woken ahead of time (no request
            // latency); batch VMs have no request stream.
            return report;
        }
        let mut free = vec![SimTime::EPOCH; (vm.vcpus.round() as usize).max(1)];
        for hour in 0..hours {
            if vm.trace.level_at_hour(hour) < noise {
                continue;
            }
            let rng = hour_request_rng(seed, vm.id.index() as u64, hour);
            let mut generator = RequestGenerator::new(vm.trace.clone(), profile.clone(), rng);
            for arrival in generator.arrivals_in_hour(hour) {
                let service = generator.sample_service();
                let Some(host) = host_at(moves, arrival) else {
                    report.unserved += 1;
                    continue;
                };
                let Some(operational) = timelines[host.index()].operational_from(arrival) else {
                    // Parked through the end of the recorded run.
                    report.unserved += 1;
                    continue;
                };
                let (latency_ms, wake_hit) = fcfs_serve(&mut free, arrival, service, operational);
                report.record(latency_ms, wake_hit);
            }
        }
        report
    }

    /// The oracle for a whole recorded run: one report per VM, merged in
    /// VM order. `out` must carry timelines and the placement log.
    fn replay_reference(vms: &[VmSpec], out: &DcOutcome, profile: &RequestProfile) -> QosReport {
        assert!(!out.timelines.is_empty(), "the oracle needs a recorded run");
        let noise = DcConfig::paper_default().im.noise_threshold;
        let mut report = QosReport::new(profile.sla.as_millis());
        for vm in vms {
            let moves: Vec<(SimTime, HostId)> = out
                .placements
                .iter()
                .filter(|rec| rec.vm == vm.id)
                .map(|rec| (rec.at, rec.host))
                .collect();
            let vm_report =
                replay_vm_reference(vm, &moves, &out.timelines, profile, noise, 7, out.hours);
            report.merge(&vm_report);
        }
        report
    }

    fn bursty(hours: usize, seed: u64) -> VmTrace {
        TracePattern::RandomBursts {
            duty: 0.2,
            intensity: 0.6,
        }
        .generate(hours, &mut SimRng::new(seed))
    }

    /// A fleet of testbed machines: its hosts, its VMs and each VM's
    /// initial host.
    struct Layout {
        hosts: Vec<HostSpec>,
        vms: Vec<VmSpec>,
        placement: Vec<HostId>,
    }

    impl Layout {
        /// `machines` testbed machines hosting one VM per `(trace, kind)`,
        /// dealt round-robin over the first `seated` machines.
        fn testbed(machines: u32, seated: u32, vms: Vec<(VmTrace, WorkloadKind)>) -> Self {
            Layout {
                hosts: (0..machines)
                    .map(|i| HostSpec::testbed_machine(HostId(i), format!("P{i}")))
                    .collect(),
                placement: (0..vms.len() as u32).map(|i| HostId(i % seated)).collect(),
                vms: vms
                    .into_iter()
                    .enumerate()
                    .map(|(i, (t, kind))| {
                        VmSpec::testbed_flavor(VmId(i as u32), format!("V{i}"), t, kind)
                    })
                    .collect(),
            }
        }

        /// Two machines hosting one interactive VM per trace, alternately.
        fn two_machines(traces: Vec<VmTrace>) -> Self {
            let vms = traces.into_iter().map(|t| (t, WorkloadKind::Interactive));
            Self::testbed(2, 2, vms.collect())
        }

        /// Five bursty interactive VMs and three daily backups filling
        /// four machines, beside a free fifth: hosts park, and wake for
        /// requests, for timers and for migrations, and Oasis parks
        /// working sets on the fifth.
        fn wake_paths(hours: usize) -> Self {
            let mut vms: Vec<_> = (1..=5)
                .map(|seed| (bursty(hours, seed), WorkloadKind::Interactive))
                .collect();
            vms.extend([2u8, 9, 17].map(|hour| {
                let backup = TracePattern::DailyBackup {
                    hour,
                    duration_hours: 1,
                    intensity: 0.9,
                };
                let trace = backup.generate(hours, &mut SimRng::new(u64::from(hour)));
                (trace, WorkloadKind::TimerDriven)
            }));
            Self::testbed(5, 4, vms)
        }
    }

    /// A finished run: its outcome and wake log.
    struct SmallRun {
        out: DcOutcome,
        wakes: Vec<WakeRecord>,
    }

    /// Runs `layout` under `policy` on an `engine` for `hours`, seed 7,
    /// folding QoS on `pool` when one is given and on the global pool
    /// otherwise. Oasis parks working sets on the layout's last machine.
    fn run_small(
        policy: &str,
        layout: &Layout,
        hours: u64,
        engine: EngineConfig,
        tweak: impl FnOnce(&mut DcConfig),
        pool: Option<Arc<WorkerPool>>,
    ) -> SmallRun {
        let mut cfg = DcConfig::paper_default();
        tweak(&mut cfg);
        let last = HostId::from_index(layout.hosts.len() - 1);
        let policy = crate::registry::PolicyRegistry::standard()
            .build(policy, &cfg, Some(last))
            .expect("registered policy");
        let (hosts, vms) = (layout.hosts.clone(), layout.vms.clone());
        let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms, layout.placement.clone(), 7);
        if let Some(q) = dc.qos.as_mut() {
            q.pool = pool;
        }
        DcEngine::new(&mut dc, engine).run_hours(hours);
        let wakes = dc.wake_log().to_vec();
        SmallRun {
            out: dc.finish(),
            wakes,
        }
    }

    /// The run streaming `profile`'s QoS, folded on `pool` when one is
    /// given.
    fn streamed(
        policy: &str,
        layout: &Layout,
        hours: u64,
        engine: EngineConfig,
        pool: Option<Arc<WorkerPool>>,
    ) -> (SmallRun, QosReport) {
        let mut run = run_small(
            policy,
            layout,
            hours,
            engine,
            |cfg| {
                cfg.qos_stream = Some(QosStreamConfig::serial(
                    RequestProfile::web_search_quick_resume(),
                ));
            },
            pool,
        );
        let qos = run.out.qos.take().expect("streaming run surfaces a report");
        (run, qos)
    }

    /// The fully recorded twin of [`streamed`]: no QoS, timelines and the
    /// placement log retained, requests at the profile's rate.
    fn recorded(
        policy: &str,
        layout: &Layout,
        hours: u64,
        engine: EngineConfig,
        profile: &RequestProfile,
    ) -> SmallRun {
        run_small(
            policy,
            layout,
            hours,
            engine,
            |cfg| {
                cfg.track_power_timeline = true;
                cfg.request_peak_rps = profile.peak_rps;
            },
            None,
        )
    }

    #[test]
    fn always_on_fleet_sees_no_wake_hits() {
        let layout = Layout::two_machines(vec![bursty(48, 1), bursty(48, 2)]);
        let (_, report) = streamed("neat", &layout, 48, EngineConfig::Legacy, None);
        assert!(report.total > 1000, "requests flowed: {}", report.total);
        assert_eq!(report.wake_hits, 0, "always-on hosts never park");
        assert_eq!(report.wake_violations, 0);
        assert_eq!(report.unserved, 0);
        assert!(
            report.sla_attainment() > 0.99,
            "awake fleet meets the paper's SLA: {}",
            report.sla_attainment()
        );
    }

    #[test]
    fn drowsy_fleet_charges_wakes_at_the_resume_latency() {
        let layout = Layout::two_machines(vec![bursty(96, 1), bursty(96, 2)]);
        let (run, report) = streamed("drowsy-dc", &layout, 96, EngineConfig::Legacy, None);
        assert!(
            run.out.global_suspended_fraction > 0.0,
            "the run parks hosts"
        );
        assert!(report.wake_hits > 0, "parked hosts produce wake hits");
        // The worst wake-hit latency is at least the quick-resume
        // latency (the trigger pays the full resume + service) and
        // bounded by resume + the FCFS drain behind it.
        assert!(
            report.worst_wake_ms >= 800,
            "trigger pays the resume: {}",
            report.worst_wake_ms
        );
        assert!(report.wake_violations > 0, "wake latencies breach 200 ms");
    }

    #[test]
    fn streaming_matches_the_per_request_oracle() {
        // The interval-batched streaming pipeline (current hosts, latest
        // resumes, batched draws) reports exactly what the
        // event-per-request oracle computes from a fully recorded run
        // — exact counters, histogram buckets and worst wake latency —
        // and runs the recorded twin's physics. On two machines for a
        // parking and a non-parking policy; then, under both fidelities,
        // on a fleet whose requests meet traffic, timer, scheduled and
        // management wakes, S3 and S5 resumes and Oasis working sets
        // parked on the consolidation host.
        let profile = RequestProfile::web_search_quick_resume();
        let (legacy, hifi) = (EngineConfig::Legacy, EngineConfig::HighFidelity);
        let two = Layout::two_machines(vec![bursty(96, 1), bursty(96, 2), bursty(96, 3)]);
        let fleet = Layout::wake_paths(96);
        let mut cases = vec![(&two, "drowsy-dc", legacy), (&two, "neat", legacy)];
        for engine in [legacy, hifi] {
            for policy in ["drowsy-dc", "neat-s3", "oasis", "sleepscale"] {
                cases.push((&fleet, policy, engine));
            }
        }
        let mut paths = Vec::new();
        for (layout, policy, engine) in cases {
            let at = format!("{policy}, {}, {} VMs", engine.label(), layout.vms.len());
            let twin = recorded(policy, layout, 96, engine, &profile);
            let oracle = replay_reference(&layout.vms, &twin.out, &profile);
            assert!(oracle.total > 0, "{at}");
            if policy != "neat" {
                assert!(oracle.wake_hits > 0, "{at}: requests wait on wakes");
            }
            // The oracle is a pure function of the recorded run.
            assert_eq!(replay_reference(&layout.vms, &twin.out, &profile), oracle);
            let (run, streamed) = streamed(policy, layout, 96, engine, None);
            assert_eq!(streamed, oracle, "{at}");
            assert_eq!(run.wakes, twin.wakes, "{at}");
            assert_eq!(
                run.out.energy_kwh.to_bits(),
                twin.out.energy_kwh.to_bits(),
                "{at}"
            );
            paths.extend(run.wakes.iter().map(|w| (w.cause, w.from_off)));
            if policy == "oasis" {
                let parked = twin.out.placements.iter().filter(|p| p.host == HostId(4));
                assert!(parked.count() > 1, "{at}: working sets park on host 4");
            }
        }
        for path in [
            (WakeCause::Traffic, false),
            (WakeCause::Traffic, true),
            (WakeCause::Timer, false),
            (WakeCause::Scheduled, false),
            (WakeCause::Management, false),
        ] {
            assert!(paths.contains(&path), "no {path:?} wake");
        }
    }

    #[test]
    fn streaming_run_is_bit_identical_to_its_recorded_twin() {
        // A run evaluating QoS inline (no timelines, no placement log) is
        // the same run as its fully recorded twin at the same request
        // rate: identical physics and wakes, nothing whole-run retained,
        // and exactly the report the oracle computes from the twin's
        // recording.
        let profile = RequestProfile::web_search_quick_resume();
        for policy in ["drowsy-dc", "neat"] {
            let hours = 96;
            let traces = vec![bursty(96, 1), bursty(96, 2), bursty(96, 3), bursty(96, 4)];
            let layout = Layout::two_machines(traces);
            let twin = recorded(policy, &layout, hours, EngineConfig::Legacy, &profile);
            let (run, streamed) = streamed(policy, &layout, hours, EngineConfig::Legacy, None);
            // Streaming must not perturb the run's physics…
            assert_eq!(
                run.out.energy_kwh.to_bits(),
                twin.out.energy_kwh.to_bits(),
                "{policy}: the ride-along pipeline leaves the simulation untouched"
            );
            assert_eq!(
                run.out.global_suspended_fraction.to_bits(),
                twin.out.global_suspended_fraction.to_bits(),
                "{policy}"
            );
            assert_eq!(run.out.hours, twin.out.hours);
            assert_eq!(run.wakes, twin.wakes, "{policy}: the same wakes");
            if policy == "drowsy-dc" {
                assert!(
                    run.wakes.iter().any(|w| w.cause == WakeCause::Traffic),
                    "requests wake parked hosts"
                );
            }
            // …retains nothing whole-run…
            assert!(run.out.timelines.is_empty(), "no timeline recorded");
            assert!(run.out.placements.is_empty(), "no placement log");
            assert!(
                !twin.out.timelines.is_empty(),
                "the twin keeps its timelines"
            );
            // …and reports exactly what the twin's recording yields.
            assert_eq!(
                streamed,
                replay_reference(&layout.vms, &twin.out, &profile),
                "{policy}"
            );
        }
    }

    #[test]
    fn any_pool_folds_the_same_run() {
        // The epoch fold cuts the VMs into one range per executor: a pool
        // of 0 workers folds one range inline, pools of 1 and 3 fold 2
        // and up to 4 ranges beside this thread. The merged windows make
        // the same report, and the run the same wakes and energy, all
        // equal to the per-request oracle.
        let profile = RequestProfile::web_search_quick_resume();
        for policy in ["drowsy-dc", "neat"] {
            let hours = 96;
            let traces = vec![bursty(96, 1), bursty(96, 2), bursty(96, 3), bursty(96, 4)];
            let layout = Layout::two_machines(traces);
            let twin = recorded(policy, &layout, hours, EngineConfig::Legacy, &profile);
            let oracle = replay_reference(&layout.vms, &twin.out, &profile);
            for workers in [0, 1, 3] {
                let pool = Arc::new(WorkerPool::new(workers));
                let legacy = EngineConfig::Legacy;
                let (run, report) = streamed(policy, &layout, hours, legacy, Some(pool));
                assert_eq!(report, oracle, "{policy}, {workers} workers");
                assert_eq!(run.wakes, twin.wakes, "{policy}, {workers} workers");
                assert_eq!(
                    run.out.energy_kwh.to_bits(),
                    twin.out.energy_kwh.to_bits(),
                    "{policy}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn departed_clients_hold_no_state() {
        // Interactive jobs arrive, serve requests and depart beside four
        // long-lived VMs. A departed VM's server pool is dropped at
        // deletion, and the report is the one the fold produced when
        // departed clients kept their state.
        let hosts: Vec<HostSpec> = (0..4)
            .map(|i| HostSpec::testbed_machine(HostId(i), format!("P{i}")))
            .collect();
        let vms: Vec<VmSpec> = (0..4)
            .map(|i| {
                VmSpec::testbed_flavor(
                    VmId(i),
                    format!("V{i}"),
                    bursty(96, u64::from(i) + 1),
                    WorkloadKind::Interactive,
                )
            })
            .collect();
        let placement = (0..4).map(HostId).collect();
        let mut cfg = DcConfig::paper_default();
        cfg.qos_stream = Some(QosStreamConfig::serial(
            RequestProfile::web_search_quick_resume(),
        ));
        let policy = crate::registry::PolicyRegistry::standard()
            .build("drowsy-dc", &cfg, None)
            .expect("registered policy");
        let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms, placement, 7);
        let mut rng = SimRng::new(7).stream("qos-churn");
        let jobs = dds_traces::poisson_arrivals(
            SimTime::EPOCH,
            SimDuration::from_hours(96),
            8.0,
            Some(SimDuration::from_hours(6)),
            &mut rng,
        );
        let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
        for (k, job) in jobs.into_iter().enumerate() {
            let spec = VmSpec::testbed_flavor(
                VmId(0),
                "job",
                bursty(96, 100 + k as u64),
                WorkloadKind::Interactive,
            );
            engine.schedule_arrival(job.at, spec, job.lifetime);
        }
        engine.run_hours(96);
        let (admitted, _) = engine.arrival_stats();
        drop(engine);
        let q = dc.qos.as_ref().expect("the run streams QoS");
        let departed: Vec<usize> = (0..dc.vms.len()).filter(|&i| dc.vms[i].departed).collect();
        assert!(
            admitted > 10 && departed.len() > 10,
            "{admitted} admitted, {departed:?}"
        );
        for &i in &departed {
            let servers = &q.servers[i];
            assert!(servers.is_empty(), "departed VM {i} keeps {servers:?}");
        }
        let report = dc.finish().qos.expect("the run streams QoS");
        assert!(report.wake_hits > 0, "the churned fleet parks and wakes");
        // Captured while departed clients still kept their moves and
        // servers.
        assert_eq!(
            (
                report.total,
                report.under_sla,
                report.wake_hits,
                report.wake_violations,
                report.queue_violations,
                report.worst_wake_ms,
                report.unserved,
                report.latencies.quantile(0.999),
            ),
            (4_622_099, 4_613_366, 734, 731, 8_002, 935, 0, Some(219.0)),
        );
    }

    proptest::proptest! {
        /// The range cutter ascends, covers every slot exactly once and
        /// never cuts more ranges than executors, whatever the weights.
        #[test]
        fn range_ends_partition_the_slots(
            slots in proptest::collection::vec((0u8..3, 0.0f64..1.0), 0..64),
            executors in 1usize..=8,
        ) {
            // Weightless slots, activity levels and outsized weights.
            let weights: Vec<f64> = slots
                .iter()
                .map(|&(kind, w)| [0.0, w, w * 1e6][usize::from(kind)])
                .collect();
            let ends = range_ends(&weights, executors);
            proptest::prop_assert!(!ends.is_empty() && ends.len() <= executors, "{ends:?}");
            proptest::prop_assert_eq!(ends.last().copied(), Some(weights.len()));
            let mut start = 0;
            for &end in &ends {
                proptest::prop_assert!(
                    end > start || (weights.is_empty() && end == 0),
                    "{ends:?} is not a strictly ascending cover of 0..{}",
                    weights.len()
                );
                start = end;
            }
        }
    }
}
