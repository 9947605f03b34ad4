//! The streaming QoS pipeline: request-level SLA accounting computed
//! *inline* with the run, one control epoch at a time — the only
//! request-level QoS evaluator.
//!
//! At the end of each control epoch it draws that hour's Poisson
//! arrivals per interactive VM (interval-batched, through
//! [`RequestStream`]), routes them with the VM's *current* residency,
//! serves them against the power timeline recorded so far, and folds the
//! results into a per-epoch [`QosWindow`]. The window is handed to the
//! control policy at the top of the next epoch
//! ([`ControlPolicy::observe_qos`]) — the closed-loop signal seam — and
//! its report accumulates into the run-wide [`QosReport`] surfaced on
//! [`DcOutcome::qos`].
//!
//! ## Semantics and the oracle
//!
//! Each interactive VM runs the paper's open-loop client: per-VM
//! `stream_indexed("qos-requests", vm)` RNG streams, Poisson arrivals
//! whose hourly rate follows the activity trace, one FCFS server per
//! vCPU, and a wake-triggering request paying exactly the resume latency
//! recorded in its host's timeline (`dds_sim_core::qos::{fcfs_serve,
//! power_ready_at}`). The tests of this module pin the pipeline **bit for
//! bit** — exact counters, histogram buckets, worst wake latency —
//! against an event-per-request oracle that walks a fully recorded twin
//! of the run ([`DcConfig::track_power_timeline`]) with the sequential
//! `RequestGenerator` client and binary-search lookups.
//!
//! **Trim safety.** A VM active in hour `h` (level at or above the
//! idleness noise gate — the same gate the request stream uses) forces
//! its host awake *within* hour `h`, so every power-state lookup of the
//! epoch resolves inside already-recorded history, and no arrival of a
//! later epoch can need an interval that ended before the epoch
//! boundary. That is what makes per-epoch evaluation exact and lets the
//! run trim each timeline every epoch. Departed VMs stop their client
//! when they are deleted.
//!
//! **No wake episode spans an epoch.** The same invariant bounds every
//! wake a request of hour `h` meets: its host is operational again by
//! the end of hour `h` (a traffic wake is clamped to finish within its
//! hour, a timer wake starts at the hour boundary, and a lead-fired
//! scheduled wake finishes at a boundary no request of the previous hour
//! waits on). A request of hour `h` that finds its host not operational
//! therefore meets a wake ending in `(h, h + 1]`, so an episode can never
//! be shared with a request of a later hour, and each epoch starts its
//! VMs' episodes afresh. `serve_hour` checks the bound in debug builds;
//! the oracle below keeps one episode per VM for the whole run.
//!
//! ## Memory
//!
//! Nothing whole-run is retained: per VM the state is one RNG, the FCFS
//! server pool and a compacted residency of at
//! most a few moves; per host, the timeline is trimmed each epoch to the
//! intervals that can still matter (unless the run also asked for
//! [`DcConfig::track_power_timeline`], in which case full retention is
//! the point). That is what lets the pipeline ride along at fleet scale
//! where materializing timelines and placement logs cannot.

use super::*;
use dds_power::TimelineCursor;
use dds_sim_core::qos::{fcfs_serve, power_ready_at, QosReport, QosWindow};
use dds_traces::{RequestProfile, RequestStream};

/// Configuration of the streaming QoS pipeline (see the module-level
/// documentation above).
/// Attach it to [`DcConfig::qos_stream`] to compute request-level QoS
/// inline with the run.
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
    /// Streams `profile`. The pipeline runs on the thread that runs the
    /// datacenter; sweeps parallelize across runs, not inside one.
    pub fn serial(profile: RequestProfile) -> Self {
        QosStreamConfig { profile }
    }
}

/// One VM's client state, persisted across epochs.
struct VmClient {
    /// The VM's request RNG stream (`stream_indexed("qos-requests", vm)`).
    rng: SimRng,
    /// FCFS server pool (`free[i]` = instant server `i` frees up); sized
    /// to the VM's vCPUs on first use.
    free: Vec<SimTime>,
    /// Residency: `(at, host)` moves in time order, compacted after every
    /// epoch to the spans that can still matter.
    moves: Vec<(SimTime, HostId)>,
}

/// Live state of the streaming pipeline: per-VM clients, the reused
/// request buffers, the pending epoch window and the run-wide report.
pub(super) struct QosStream {
    seed: u64,
    /// Activity gate (the run's `ImConfig::noise_threshold`).
    noise: f64,
    /// Per-VM clients, indexed by `VmId`.
    clients: Vec<VmClient>,
    /// One hour of one VM's arrivals and service times, reused.
    requests: RequestStream,
    /// The most recently completed epoch's window, delivered to the
    /// policy at the top of the next epoch.
    pub(super) pending: Option<QosWindow>,
    /// Run-wide accumulation of every epoch window.
    report: QosReport,
}

impl QosStream {
    pub(super) fn new(cfg: QosStreamConfig, seed: u64, noise: f64, vms: &[VmSim]) -> Self {
        let mut stream = QosStream {
            seed,
            noise,
            clients: Vec::new(),
            report: QosReport::new(cfg.profile.sla.as_millis()),
            requests: RequestStream::new(cfg.profile),
            pending: None,
        };
        for vm in vms {
            stream.on_placement(vm.spec.id, SimTime::EPOCH, vm.host);
        }
        stream
    }

    /// Grows the client column through slot `i`, deriving each new VM's
    /// request RNG stream.
    fn ensure_slot(&mut self, i: usize) {
        while self.clients.len() <= i {
            let idx = self.clients.len() as u64;
            self.clients.push(VmClient {
                rng: SimRng::new(self.seed).stream_indexed("qos-requests", idx),
                free: Vec::new(),
                moves: Vec::new(),
            });
        }
    }

    /// Records a placement assignment (initial placement, admission,
    /// migration, swap, park/unpark) into the VM's residency.
    pub(super) fn on_placement(&mut self, vm: VmId, at: SimTime, host: HostId) {
        self.ensure_slot(vm.index());
        self.clients[vm.index()].moves.push((at, host));
    }

    /// The run-wide report accumulated so far.
    pub(super) fn into_report(self) -> QosReport {
        self.report
    }

    /// Processes control epoch `hour`: draws and serves every interactive
    /// VM's requests for that hour against the recorded timelines, in VM
    /// order, producing the epoch's [`QosWindow`] (left in `pending`) and
    /// folding it into the run report.
    pub(super) fn process_epoch(&mut self, hour: u64, hosts: &[HostSim], vms: &[VmSim]) {
        let mut window = QosWindow::new(hour, self.report.sla_ms);
        if let Some(last) = vms.len().checked_sub(1) {
            self.ensure_slot(last);
        }
        let timelines: Vec<Option<&PowerTimeline>> =
            hosts.iter().map(|h| h.meter.timeline()).collect();
        for (vm, client) in vms.iter().zip(&mut self.clients) {
            client.serve_hour(
                vm,
                hour,
                self.noise,
                &timelines,
                &mut self.requests,
                &mut window,
            );
        }
        self.report.merge(&window.report);
        self.pending = Some(window);
        // Compact residencies: keep the last move at or before the epoch
        // boundary (it covers every future arrival until the next move).
        let hour_end = SimTime::from_hours(hour + 1);
        for client in &mut self.clients {
            let m = &mut client.moves;
            let cut = m
                .partition_point(|&(at, _)| at <= hour_end)
                .saturating_sub(1);
            if cut > 0 {
                m.drain(..cut);
            }
        }
    }
}

impl VmClient {
    /// Draws and serves this VM's requests for `hour` into `window`.
    fn serve_hour(
        &mut self,
        vm: &VmSim,
        hour: u64,
        noise: f64,
        timelines: &[Option<&PowerTimeline>],
        requests: &mut RequestStream,
        window: &mut QosWindow,
    ) {
        if vm.spec.kind != WorkloadKind::Interactive || vm.departed {
            return;
        }
        let level = vm.spec.trace.level_at_hour(hour);
        if level < noise {
            return;
        }
        if self.free.is_empty() {
            self.free
                .resize((vm.spec.vcpus.round() as usize).max(1), SimTime::EPOCH);
        }
        let (arrivals, services) = requests.fill_hour_with(&mut self.rng, hour, level);
        // Arrivals are monotone within the hour: residency resolves with
        // a forward walk, power state with a fresh timeline cursor.
        let mut mv = 0usize;
        let mut tl_cursor = TimelineCursor::new();
        // The hour's wake episode (see `power_ready_at`); none outlives
        // the hour (module docs).
        let mut episode = None;
        let hour_end = SimTime::from_hours(hour + 1);
        for (&arrival, &service) in arrivals.iter().zip(services) {
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
            let span = (operational != arrival)
                .then(|| tl_cursor.resume_window_after(timeline, arrival))
                .flatten();
            let power_ready = power_ready_at(operational, arrival, span, &mut episode);
            let (latency_ms, wake_hit) = fcfs_serve(&mut self.free, arrival, service, power_ready);
            window.record(host.index() as u32, latency_ms, wake_hit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_traces::{RequestGenerator, TracePattern, VmTrace};

    /// Binary-search residency lookup: the host `moves` (one VM's
    /// placement log, time-ordered) assigns the VM at instant `t`.
    fn host_at(moves: &[(SimTime, HostId)], t: SimTime) -> Option<HostId> {
        let i = moves.partition_point(|&(at, _)| at <= t);
        i.checked_sub(1).map(|i| moves[i].1)
    }

    /// The oracle for one VM of a fully recorded run: its request stream
    /// event per request through the sequential `RequestGenerator`,
    /// uncursored timeline lookups, a fresh report. Everything it touches
    /// is derived from `(seed, vm index)` and the recorded run, so the
    /// result is a pure function.
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
        let rng = SimRng::new(seed).stream_indexed("qos-requests", vm.id.index() as u64);
        let mut generator = RequestGenerator::new(vm.trace.clone(), profile.clone(), rng);
        let mut free = vec![SimTime::EPOCH; (vm.vcpus.round() as usize).max(1)];
        let mut episode: Option<(SimTime, SimTime)> = None;
        for hour in 0..hours {
            if vm.trace.level_at_hour(hour) < noise {
                continue;
            }
            for arrival in generator.arrivals_in_hour(hour) {
                let service = generator.sample_service();
                let Some(host) = host_at(moves, arrival) else {
                    report.unserved += 1;
                    continue;
                };
                let timeline = &timelines[host.index()];
                let Some(operational) = timeline.operational_from(arrival) else {
                    // Parked through the end of the recorded run.
                    report.unserved += 1;
                    continue;
                };
                let window = (operational != arrival)
                    .then(|| timeline.resume_window_after(arrival))
                    .flatten();
                let power_ready = power_ready_at(operational, arrival, window, &mut episode);
                let (latency_ms, wake_hit) = fcfs_serve(&mut free, arrival, service, power_ready);
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

    /// Runs two testbed machines hosting one interactive VM per trace
    /// (alternating placement) for `hours`, seed 7.
    fn run_small(
        policy: &str,
        traces: Vec<VmTrace>,
        hours: u64,
        tweak: impl FnOnce(&mut DcConfig),
    ) -> (Vec<VmSpec>, DcOutcome) {
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
        dc.run(hours);
        (vms, dc.finish())
    }

    fn streamed(policy: &str, traces: Vec<VmTrace>, hours: u64) -> (DcOutcome, QosReport) {
        let (_, mut out) = run_small(policy, traces, hours, |cfg| {
            cfg.qos_stream = Some(QosStreamConfig::serial(
                RequestProfile::web_search_quick_resume(),
            ));
        });
        let qos = out.qos.take().expect("streaming run surfaces a report");
        (out, qos)
    }

    #[test]
    fn always_on_fleet_sees_no_wake_hits() {
        let (_, report) = streamed("neat", vec![bursty(48, 1), bursty(48, 2)], 48);
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
        let (out, report) = streamed("drowsy-dc", vec![bursty(96, 1), bursty(96, 2)], 96);
        assert!(out.global_suspended_fraction > 0.0, "the run parks hosts");
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
            let (vms, recorded) = run_small(policy, traces.clone(), hours, |cfg| {
                cfg.track_power_timeline = true;
            });
            let oracle = replay_reference(&vms, &recorded, &profile);
            assert!(oracle.total > 0);
            if policy == "drowsy-dc" {
                assert!(oracle.wake_hits > 0, "the oracle run exercises wakes");
            }
            // The oracle is a pure function of the recorded run.
            assert_eq!(replay_reference(&vms, &recorded, &profile), oracle);
            let (_, streamed) = streamed(policy, traces, hours);
            assert_eq!(streamed, oracle, "{policy}");
        }
    }

    #[test]
    fn streaming_run_is_bit_identical_to_its_recorded_twin() {
        // A run evaluating QoS inline (trimmed timelines, no placement
        // log) is the same run as its fully recorded twin: identical
        // physics, nothing whole-run retained, and exactly the report the
        // oracle computes from the twin's recording.
        let profile = RequestProfile::web_search_quick_resume();
        for policy in ["drowsy-dc", "neat"] {
            let hours = 96;
            let traces = vec![bursty(96, 1), bursty(96, 2), bursty(96, 3), bursty(96, 4)];
            let (vms, recorded) = run_small(policy, traces.clone(), hours, |cfg| {
                cfg.track_power_timeline = true;
            });
            let (out, streamed) = streamed(policy, traces, hours);
            // Streaming must not perturb the run's physics…
            assert_eq!(
                out.energy_kwh.to_bits(),
                recorded.energy_kwh.to_bits(),
                "{policy}: the ride-along pipeline leaves the simulation untouched"
            );
            assert_eq!(
                out.global_suspended_fraction.to_bits(),
                recorded.global_suspended_fraction.to_bits(),
                "{policy}"
            );
            assert_eq!(out.hours, recorded.hours);
            // …retains nothing whole-run…
            assert!(out.timelines.is_empty(), "no timeline retention");
            assert!(out.placements.is_empty(), "no placement log");
            assert!(
                !recorded.timelines.is_empty(),
                "the twin keeps its timelines"
            );
            // …and reports exactly what the twin's recording yields.
            assert_eq!(
                streamed,
                replay_reference(&vms, &recorded, &profile),
                "{policy}"
            );
        }
    }
}
