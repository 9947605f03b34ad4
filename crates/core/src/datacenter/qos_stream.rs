//! The streaming QoS pipeline: request-level SLA accounting computed
//! *inline* with the run, one control epoch at a time — the only
//! request-level QoS evaluator.
//!
//! At the end of each control epoch it draws that hour's Poisson
//! arrivals per interactive VM (interval-batched, through
//! [`RequestStream`]), routes them with the VM's *current* residency,
//! serves them against the power timeline recorded so far, and folds the
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
//! resume began, and each is served from the timeline's
//! [`operational_from`](PowerTimeline::operational_from) its arrival: at
//! once on an awake host, at the end of the resume in flight otherwise
//! (`dds_sim_core::qos::fcfs_serve`). The tests of this module pin the
//! pipeline **bit for bit** — exact counters, histogram buckets, worst
//! wake latency — against an event-per-request oracle that walks a fully
//! recorded twin of the run ([`DcConfig::track_power_timeline`]) with
//! the sequential `RequestGenerator` client and binary-search lookups.
//!
//! **Trim safety.** A VM active in hour `h` (level at or above the
//! idleness noise gate — the same gate the request stream uses) forces
//! its host awake *within* hour `h`, and every wake a request of hour `h`
//! meets ends by the end of hour `h` (a traffic wake is clamped to finish
//! within its hour, a timer wake starts at the hour boundary, and a
//! lead-fired scheduled wake finishes at a boundary no request of the
//! previous hour waits on). So every power-state lookup of the epoch
//! resolves inside already-recorded history, and no arrival of a later
//! epoch can need an interval that ended before the epoch boundary. That
//! is what makes per-epoch evaluation exact and lets the run trim each
//! timeline every epoch; `serve_hour` checks the bound in debug builds.
//! Departed VMs stop their client when they are deleted.
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
//! Nothing whole-run is retained: per live VM the state is the FCFS
//! server pool and a compacted residency of at most a few moves (each
//! hour's RNG is derived afresh), dropped when the VM departs; per range,
//! one buffer of the current VM-hour's arrivals as `u32` millisecond
//! offsets (each service time is drawn as its request is served); per
//! host, the timeline is trimmed each epoch to the intervals that can
//! still matter (unless the run also asked for
//! [`DcConfig::track_power_timeline`], in which case full retention is
//! the point). That is what lets the pipeline ride along at fleet scale
//! where materializing timelines and placement logs cannot.

use super::*;
use dds_power::TimelineCursor;
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

/// One VM's client state, persisted across epochs and dropped when the VM
/// departs.
#[derive(Default)]
struct VmClient {
    /// FCFS server pool (`free[i]` = instant server `i` frees up); sized
    /// to the VM's vCPUs on first use.
    free: Vec<SimTime>,
    /// Residency: `(at, host)` moves in time order, compacted after every
    /// epoch to the spans that can still matter.
    moves: Vec<(SimTime, HostId)>,
}

/// Live state of the streaming pipeline: per-VM clients, the reused
/// per-range request buffers, the pending epoch window and the run-wide
/// report.
pub(super) struct QosStream {
    /// The run's master seed, from which each VM-hour's requests derive.
    seed: u64,
    /// Activity gate (the run's `ImConfig::noise_threshold`).
    noise: f64,
    /// The request workload every buffer draws.
    profile: RequestProfile,
    /// Per-VM clients, indexed by `VmId`.
    clients: Vec<VmClient>,
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
    /// Each host's recorded timeline, by host index.
    timelines: &'a [Option<&'a PowerTimeline>],
}

impl QosStream {
    pub(super) fn new(cfg: QosStreamConfig, seed: u64, noise: f64, vms: &[VmSim]) -> Self {
        let mut stream = QosStream {
            seed,
            noise,
            clients: Vec::new(),
            weights: Vec::new(),
            buffers: Vec::new(),
            report: QosReport::new(cfg.profile.sla.as_millis()),
            profile: cfg.profile,
            pending: None,
            #[cfg(test)]
            pool: None,
        };
        for vm in vms {
            stream.on_placement(vm.spec.id, SimTime::EPOCH, vm.host);
        }
        stream
    }

    /// Grows the client column through slot `i`.
    fn ensure_slot(&mut self, i: usize) {
        if self.clients.len() <= i {
            self.clients.resize_with(i + 1, VmClient::default);
        }
    }

    /// Records a placement assignment (initial placement, admission,
    /// migration, swap, park/unpark) into the VM's residency.
    pub(super) fn on_placement(&mut self, vm: VmId, at: SimTime, host: HostId) {
        self.ensure_slot(vm.index());
        self.clients[vm.index()].moves.push((at, host));
    }

    /// Drops a departed VM's client: its client stopped at deletion, so
    /// its server pool and residency can never be read again.
    pub(super) fn on_departure(&mut self, vm: VmId) {
        if let Some(client) = self.clients.get_mut(vm.index()) {
            *client = VmClient::default();
        }
    }

    /// The run-wide report accumulated so far.
    pub(super) fn into_report(self) -> QosReport {
        self.report
    }

    /// Processes control epoch `hour`: draws and serves every interactive
    /// VM's requests for that hour against the recorded timelines,
    /// producing the epoch's [`QosWindow`] (left in `pending`) and folding
    /// it into the run report.
    ///
    /// The VM slots are cut into contiguous ranges of about equal
    /// expected requests ([`range_ends`]), at most one per executor of
    /// the pool (its workers plus this thread). Each range serves its
    /// VMs in slot order into its own window with its own request buffer
    /// and compacts its clients' residencies; the windows merge in range
    /// order. Clients are independent and every window counter is exact
    /// integer state, so the merged window is the serial one bit for bit.
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

        if let Some(last) = vms.len().checked_sub(1) {
            self.ensure_slot(last);
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
        let timelines: Vec<Option<&PowerTimeline>> =
            hosts.iter().map(|h| h.meter.timeline()).collect();
        let epoch = EpochFold {
            hour,
            seed: self.seed,
            sla_ms: self.report.sla_ms,
            timelines: &timelines,
        };
        let epoch = &epoch;
        let mut clients = &mut self.clients[..vms.len()];
        let mut start = 0;
        let mut tasks = Vec::with_capacity(ends.len());
        for (&end, requests) in ends.iter().zip(&mut self.buffers) {
            let (range, rest) = std::mem::take(&mut clients).split_at_mut(end - start);
            clients = rest;
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
/// and `clients`) in slot order into a fresh window, drawing them through
/// `requests`, then compacts the range's residencies: each live client
/// keeps its last move at or before the epoch boundary (it covers every
/// future arrival until the next move). Departed slots hold no client
/// state and are skipped.
fn fold_range(
    epoch: &EpochFold<'_>,
    vms: &[VmSim],
    weights: &[f64],
    clients: &mut [VmClient],
    requests: &mut RequestStream,
) -> QosWindow {
    let mut window = QosWindow::new(epoch.hour, epoch.sla_ms);
    let hour_end = SimTime::from_hours(epoch.hour + 1);
    for ((vm, &level), client) in vms.iter().zip(weights).zip(clients) {
        if vm.departed {
            continue;
        }
        if level > 0.0 {
            let mut rng = hour_request_rng(epoch.seed, vm.spec.id.index() as u64, epoch.hour);
            let hour_requests = requests.hour(&mut rng, epoch.hour, level);
            client.serve_hour(vm, epoch.hour, hour_requests, epoch.timelines, &mut window);
        }
        let m = &mut client.moves;
        let cut = m
            .partition_point(|&(at, _)| at <= hour_end)
            .saturating_sub(1);
        if cut > 0 {
            m.drain(..cut);
        }
    }
    window
}

impl VmClient {
    /// Serves this VM's `requests` of `hour` (arrival and service pairs,
    /// each pair taken whether or not its request is served) into
    /// `window`.
    fn serve_hour(
        &mut self,
        vm: &VmSim,
        hour: u64,
        requests: impl Iterator<Item = (SimTime, SimDuration)>,
        timelines: &[Option<&PowerTimeline>],
        window: &mut QosWindow,
    ) {
        if self.free.is_empty() {
            self.free
                .resize((vm.spec.vcpus.round() as usize).max(1), SimTime::EPOCH);
        }
        // Arrivals are monotone within the hour: residency resolves with
        // a forward walk, power state with a fresh timeline cursor.
        let mut mv = 0usize;
        let mut tl_cursor = TimelineCursor::new();
        let hour_end = SimTime::from_hours(hour + 1);
        for (arrival, service) in requests {
            while mv < self.moves.len() && self.moves[mv].0 <= arrival {
                mv += 1;
            }
            let Some(&(_, host)) = mv.checked_sub(1).map(|i| &self.moves[i]) else {
                window.record_unserved();
                continue;
            };
            let Some(timeline) = timelines[host.index()] else {
                window.record_unserved();
                continue;
            };
            debug_assert!(
                !matches!(
                    tl_cursor.state_at(timeline, arrival),
                    Some(PowerState::Suspended | PowerState::Off)
                ),
                "a request of hour {hour} reached host {host} at {arrival} before its resume began"
            );
            let Some(operational) = tl_cursor.operational_from(timeline, arrival) else {
                // An active VM keeps its host awake within the hour, so
                // this only fires for requests of VMs idle-gated
                // differently than the host model — flagged, not
                // silently dropped.
                window.record_unserved();
                continue;
            };
            debug_assert!(
                operational <= hour_end,
                "a request of hour {hour} waits on a wake ending at {operational}"
            );
            let (latency_ms, wake_hit) = fcfs_serve(&mut self.free, arrival, service, operational);
            window.record(host.index() as u32, latency_ms, wake_hit);
        }
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
    /// `RequestGenerator` on that hour's stream, served from the recorded
    /// timeline's operational instant through uncursored lookups, into a
    /// fresh report. Everything it touches is derived from `(seed, vm,
    /// hour)` and the recorded run, so the result is a pure function.
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

    /// A finished run: its VMs, outcome and wake log.
    struct SmallRun {
        vms: Vec<VmSpec>,
        out: DcOutcome,
        wakes: Vec<WakeRecord>,
    }

    /// Runs two testbed machines hosting one interactive VM per trace
    /// (alternating placement) for `hours`, seed 7, folding QoS on `pool`
    /// when one is given and on the global pool otherwise.
    fn run_small(
        policy: &str,
        traces: Vec<VmTrace>,
        hours: u64,
        tweak: impl FnOnce(&mut DcConfig),
        pool: Option<Arc<WorkerPool>>,
    ) -> SmallRun {
        let hosts = vec![
            HostSpec::testbed_machine(HostId(0), "P0"),
            HostSpec::testbed_machine(HostId(1), "P1"),
        ];
        let vms: Vec<VmSpec> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                VmSpec::testbed_flavor(
                    VmId(i as u32),
                    format!("V{i}"),
                    t,
                    WorkloadKind::Interactive,
                )
            })
            .collect();
        let placement: Vec<HostId> = (0..vms.len()).map(|i| HostId((i % 2) as u32)).collect();
        let mut cfg = DcConfig::paper_default();
        tweak(&mut cfg);
        let policy = crate::registry::PolicyRegistry::standard()
            .build(policy, &cfg, None)
            .expect("registered policy");
        let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms.clone(), placement, 7);
        if let Some(q) = dc.qos.as_mut() {
            q.pool = pool;
        }
        dc.run(hours);
        let wakes = dc.wake_log().to_vec();
        SmallRun {
            vms,
            out: dc.finish(),
            wakes,
        }
    }

    /// The run streaming `profile`'s QoS, folded on `pool` when one is
    /// given.
    fn streamed(
        policy: &str,
        traces: Vec<VmTrace>,
        hours: u64,
        pool: Option<Arc<WorkerPool>>,
    ) -> (SmallRun, QosReport) {
        let mut run = run_small(
            policy,
            traces,
            hours,
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
        traces: Vec<VmTrace>,
        hours: u64,
        profile: &RequestProfile,
    ) -> SmallRun {
        run_small(
            policy,
            traces,
            hours,
            |cfg| {
                cfg.track_power_timeline = true;
                cfg.request_peak_rps = profile.peak_rps;
            },
            None,
        )
    }

    #[test]
    fn always_on_fleet_sees_no_wake_hits() {
        let (_, report) = streamed("neat", vec![bursty(48, 1), bursty(48, 2)], 48, None);
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
        let (run, report) = streamed("drowsy-dc", vec![bursty(96, 1), bursty(96, 2)], 96, None);
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
        // The interval-batched streaming pipeline (compacted residencies,
        // cursored timeline lookups, batched draws) reports exactly what
        // the event-per-request oracle computes from a fully recorded run
        // — exact counters, histogram buckets and worst wake latency — for
        // a parking and a non-parking policy.
        let profile = RequestProfile::web_search_quick_resume();
        for policy in ["drowsy-dc", "neat"] {
            let hours = 96;
            let traces = vec![bursty(96, 1), bursty(96, 2), bursty(96, 3)];
            let twin = recorded(policy, traces.clone(), hours, &profile);
            let oracle = replay_reference(&twin.vms, &twin.out, &profile);
            assert!(oracle.total > 0);
            if policy == "drowsy-dc" {
                assert!(oracle.wake_hits > 0, "the oracle run exercises wakes");
            }
            // The oracle is a pure function of the recorded run.
            assert_eq!(replay_reference(&twin.vms, &twin.out, &profile), oracle);
            let (_, streamed) = streamed(policy, traces, hours, None);
            assert_eq!(streamed, oracle, "{policy}");
        }
    }

    #[test]
    fn streaming_run_is_bit_identical_to_its_recorded_twin() {
        // A run evaluating QoS inline (trimmed timelines, no placement
        // log) is the same run as its fully recorded twin at the same
        // request rate: identical physics and wakes, nothing whole-run
        // retained, and exactly the report the oracle computes from the
        // twin's recording.
        let profile = RequestProfile::web_search_quick_resume();
        for policy in ["drowsy-dc", "neat"] {
            let hours = 96;
            let traces = vec![bursty(96, 1), bursty(96, 2), bursty(96, 3), bursty(96, 4)];
            let twin = recorded(policy, traces.clone(), hours, &profile);
            let (run, streamed) = streamed(policy, traces, hours, None);
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
            assert!(run.out.timelines.is_empty(), "no timeline retention");
            assert!(run.out.placements.is_empty(), "no placement log");
            assert!(
                !twin.out.timelines.is_empty(),
                "the twin keeps its timelines"
            );
            // …and reports exactly what the twin's recording yields.
            assert_eq!(
                streamed,
                replay_reference(&twin.vms, &twin.out, &profile),
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
            let twin = recorded(policy, traces.clone(), hours, &profile);
            let oracle = replay_reference(&twin.vms, &twin.out, &profile);
            for workers in [0, 1, 3] {
                let pool = Arc::new(WorkerPool::new(workers));
                let (run, report) = streamed(policy, traces.clone(), hours, Some(pool));
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
        // long-lived VMs. A departed VM's client is dropped at deletion
        // and skipped by the compaction, and the report is the one the
        // fold produced when departed clients kept their state.
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
            let client = &q.clients[i];
            assert!(
                client.moves.is_empty() && client.free.is_empty(),
                "departed VM {i} keeps {} moves and {} servers",
                client.moves.len(),
                client.free.len()
            );
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
