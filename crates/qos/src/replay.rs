//! The request-level replay: per-VM Poisson request streams served
//! against the power-state timeline of a finished run.
//!
//! ## Model
//!
//! The replay is **open-loop and post-hoc**: the datacenter run decides
//! power states (and records them as [`PowerTimeline`]s plus a placement
//! log); the replay then drives each interactive VM's request stream —
//! Poisson arrivals whose hourly rate follows the VM's activity trace,
//! exactly the client the paper's testbed runs — through that timeline:
//!
//! * Requests are routed to the host the VM occupied at the arrival
//!   instant (the placement log covers migrations, swaps and parking).
//! * A request arriving while the host is **operational** starts service
//!   as soon as one of the VM's `vcpus` FCFS servers is free.
//! * A request arriving while the host is **parked (S3/S5)** is the wake
//!   trigger of that sleep episode if it is the VM's first: it pays
//!   exactly the resume latency recorded in the timeline (≈1500 ms stock,
//!   ≈800 ms quick resume — §VI.A.3), then its service time. Later
//!   arrivals of the episode queue behind the wake (and each other).
//! * A request arriving during the **resume window** waits for the
//!   resume to complete.
//!
//! Wake attribution is per VM: colocated VMs replaying in parallel each
//! charge their own first request of an episode the full resume, which is
//! conservative (never hides a wake) and keeps every VM's replay
//! independent — the property that lets the replay fan out over threads
//! with bit-identical merged reports (all [`QosReport`] state is exact
//! integer accumulation; see `dds_sim_core::stats::LatencyHistogram`).
//!
//! ## Throughput
//!
//! [`replay`] is interval-batched: whole hours of arrivals *and* service
//! times are drawn in one [`RequestStream`] batch (no per-request
//! allocation), placement and power-state lookups go through monotone
//! cursors ([`TimelineCursor`], the residency cursor) so each is O(1)
//! amortized, and the pool fan-out hands each worker a *chunk* of VMs
//! sharing one report and one stream buffer instead of allocating a
//! histogram per VM. The original event-per-request walk survives as a
//! test oracle the batched path is pinned bit-identical to.
//!
//! Deliberately out of scope: DVFS service stretching (SleepScale's
//! downclocking is charged in energy, not replayed here) and request
//! feedback into power decisions — that loop is closed by the *streaming*
//! pipeline inside `dds-core` (`QosStreamConfig`), which shares this
//! module's semantics and RNG streams and is therefore bit-identical to
//! this replay wherever both run.

use crate::report::QosReport;
use dds_core::cluster::{ClusterOutcome, ClusterSpec};
use dds_core::datacenter::{DcOutcome, PlacementRecord};
use dds_core::registry::PolicyRegistry;
use dds_core::spec::{VmSpec, WorkloadKind};
use dds_power::{PowerTimeline, TimelineCursor};
use dds_sim_core::{SimRng, SimTime, WorkerPool};
use dds_traces::{RequestProfile, RequestStream};

/// Configuration of a QoS replay.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// The request workload attached to every interactive VM.
    pub profile: RequestProfile,
    /// Activity noise threshold: hours below it are idle (no requests),
    /// matching the datacenter's own activity gating.
    pub noise: f64,
}

impl QosConfig {
    /// The paper's SLA setup on the quick-resume testbed.
    pub fn paper_default() -> Self {
        QosConfig {
            profile: RequestProfile::web_search_quick_resume(),
            noise: 0.005,
        }
    }
}

impl Default for QosConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The placement history of one VM: `(from, host)` assignment spans in
/// time order, precomputed once per replay from the placement log.
#[derive(Debug, Clone, Default)]
struct VmResidency {
    moves: Vec<(SimTime, dds_sim_core::HostId)>,
}

impl VmResidency {
    /// Plain binary-search lookup (the oracle's; the replay uses
    /// [`ResidencyCursor`]).
    #[cfg(test)]
    fn host_at(&self, t: SimTime) -> Option<dds_sim_core::HostId> {
        let i = self.moves.partition_point(|&(at, _)| at <= t);
        i.checked_sub(1).map(|i| self.moves[i].1)
    }
}

/// Monotone cursor over one [`VmResidency`]: remembers the last span hit
/// and walks forward, so a time-ordered request stream resolves hosts in
/// O(1) amortized. Backward jumps fall back to binary search (always
/// correct, like [`TimelineCursor`]).
#[derive(Debug, Clone, Copy, Default)]
struct ResidencyCursor {
    /// `partition_point` of the last queried instant.
    idx: usize,
}

impl ResidencyCursor {
    fn host_at(&mut self, res: &VmResidency, t: SimTime) -> Option<dds_sim_core::HostId> {
        if self.idx > 0 && res.moves[self.idx - 1].0 > t {
            self.idx = res.moves.partition_point(|&(at, _)| at <= t);
        } else {
            while self.idx < res.moves.len() && res.moves[self.idx].0 <= t {
                self.idx += 1;
            }
        }
        self.idx.checked_sub(1).map(|i| res.moves[i].1)
    }
}

/// Groups the placement log by VM over `slots` dense VM ids. Records of
/// VMs beyond `slots` (e.g. mid-run admissions whose specs the caller
/// did not pass) are ignored — the replay covers exactly the provided
/// population.
fn residencies(placements: &[PlacementRecord], slots: usize) -> Vec<VmResidency> {
    let mut per_vm = vec![VmResidency::default(); slots];
    for rec in placements {
        if let Some(vm) = per_vm.get_mut(rec.vm.index()) {
            vm.moves.push((rec.at, rec.host));
        }
    }
    per_vm
}

/// The FCFS service step and the wake-episode resolution are shared with
/// the streaming engine (`dds-core`) via `dds_sim_core::qos` — one
/// implementation, so the two pipelines agree to the bit by construction.
use dds_sim_core::qos::{fcfs_serve, power_ready_at};

/// Serves one request into `report` (see [`fcfs_serve`]).
#[inline]
fn serve_request(
    report: &mut QosReport,
    free: &mut [SimTime],
    arrival: SimTime,
    service: dds_sim_core::SimDuration,
    power_ready: SimTime,
) {
    let (latency_ms, wake_hit) = fcfs_serve(free, arrival, service, power_ready);
    report.record(latency_ms, wake_hit);
}

/// Replays one VM interval-batched into a shared chunk `report`: whole
/// hours of arrivals and services come out of `stream` in one batch, and
/// placement/power lookups ride monotone cursors. Bit-identical to the
/// event-per-request oracle in the tests — same RNG draw order (all
/// gaps, then all service times, per hour), same FCFS arithmetic, same
/// record order.
#[allow(clippy::too_many_arguments)]
fn replay_vm_batched(
    vm: &VmSpec,
    residency: &VmResidency,
    timelines: &[PowerTimeline],
    cfg: &QosConfig,
    seed: u64,
    hours: u64,
    stream: &mut RequestStream,
    free: &mut Vec<SimTime>,
    report: &mut QosReport,
) {
    if vm.kind != WorkloadKind::Interactive {
        return;
    }
    stream.reset(SimRng::new(seed).stream_indexed("qos-requests", vm.id.index() as u64));
    let servers = (vm.vcpus.round() as usize).max(1);
    free.clear();
    free.resize(servers, SimTime::EPOCH);
    let mut episode: Option<(SimTime, SimTime)> = None;
    let mut res_cursor = ResidencyCursor::default();
    let mut tl_cursor = TimelineCursor::new();

    for hour in 0..hours {
        let level = vm.trace.level_at_hour(hour);
        if level < cfg.noise {
            continue;
        }
        stream.fill_hour(hour, level);
        let (arrivals, services) = stream.emit_rest();
        for (&arrival, &service) in arrivals.iter().zip(services) {
            let Some(host) = res_cursor.host_at(residency, arrival) else {
                report.unserved += 1;
                continue;
            };
            // One cursor serves every host this VM visits: arrivals are
            // monotone, and the cursor's backward fallback makes a host
            // switch at worst one binary search.
            let timeline = &timelines[host.index()];
            let Some(operational) = tl_cursor.operational_from(timeline, arrival) else {
                report.unserved += 1;
                continue;
            };
            let window = (operational != arrival)
                .then(|| tl_cursor.resume_window_after(timeline, arrival))
                .flatten();
            let power_ready = power_ready_at(operational, arrival, window, &mut episode);
            serve_request(report, free, arrival, service, power_ready);
        }
    }
}

fn worker_count(threads: usize, n: usize) -> usize {
    if threads == 0 {
        dds_core::sweep::auto_threads(n)
    } else {
        threads.min(n.max(1))
    }
}

/// Replays every VM of a finished run and returns the merged
/// [`QosReport`], interval-batched. `outcome` must carry
/// power timelines and a placement log (run with
/// `DcConfig::track_power_timeline = true`); `vms` is the run's VM
/// population (same specs, same order). Fans VM *chunks* out over
/// `threads` workers of the persistent [`WorkerPool`] (0 = one per
/// available core); each chunk accumulates into a single report with
/// reused stream/server buffers, and chunk shards merge in order — the
/// report is bit-identical for any thread count.
pub fn replay(
    vms: &[VmSpec],
    outcome: &DcOutcome,
    cfg: &QosConfig,
    seed: u64,
    threads: usize,
) -> QosReport {
    assert!(
        !outcome.timelines.is_empty() || vms.is_empty(),
        "QoS replay needs power timelines: run with DcConfig::track_power_timeline = true"
    );
    let residency = residencies(&outcome.placements, vms.len());
    let n = vms.len();
    let workers = worker_count(threads, n);
    // A few chunks per worker keeps the pool busy when VM costs are
    // skewed, while still amortizing buffer reuse across many VMs.
    let chunk = n.div_ceil((workers * 4).max(1)).max(1);
    let residency = &residency;
    let sla_ms = cfg.profile.sla.as_millis();
    let shards = WorkerPool::global().run_ordered(
        workers,
        (0..n)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(n);
                move || {
                    let mut report = QosReport::new(sla_ms);
                    let mut stream = RequestStream::new(cfg.profile.clone(), SimRng::new(0));
                    let mut free = Vec::new();
                    for i in start..end {
                        replay_vm_batched(
                            &vms[i],
                            &residency[i],
                            &outcome.timelines,
                            cfg,
                            seed,
                            outcome.hours,
                            &mut stream,
                            &mut free,
                            &mut report,
                        );
                    }
                    report
                }
            })
            .collect(),
    );
    let mut report = QosReport::new(sla_ms);
    for shard in &shards {
        report.merge(shard);
    }
    report
}

/// Runs one cluster point with timeline tracking forced on and replays
/// its request streams: the one-call power **and** QoS evaluation.
/// Returns the energy outcome and the merged QoS report.
///
/// The policy name resolves in the standard [`PolicyRegistry`]; the
/// replay's noise gate comes from the spec's idleness-model threshold.
/// The run's resume path follows the profile: a stock-resume profile
/// (`resume_latency` at or above the host model's normal resume) runs
/// the fleet at `WakeSpeed::Normal`, so the recorded wake windows match
/// the latency the profile advertises.
pub fn run_cluster_qos(
    spec: &ClusterSpec,
    policy: &str,
    seed: u64,
    profile: &RequestProfile,
    threads: usize,
) -> (ClusterOutcome, QosReport) {
    let mut spec = spec.clone();
    spec.config.track_power_timeline = true;
    spec.config.sla = profile.sla;
    // Keep the simulation's own first-packet wake model at the replayed
    // client's rate, so packet-wake offsets are consistent.
    spec.config.request_peak_rps = profile.peak_rps;
    spec.config.request_service =
        dds_sim_core::SimDuration::from_millis(profile.mean_service_ms as u64);
    spec.config.wake_speed = if profile.resume_latency >= spec.config.power.timings.resume_normal {
        dds_power::WakeSpeed::Normal
    } else {
        dds_power::WakeSpeed::Quick
    };
    let registry = PolicyRegistry::standard();
    let outcome = dds_core::cluster::run_cluster_policy_with(&registry, &spec, policy, seed);
    let cfg = QosConfig {
        profile: profile.clone(),
        noise: spec.config.im.noise_threshold,
    };
    let vms = spec.vm_specs(seed);
    let report = replay(&vms, &outcome.dc, &cfg, seed, threads);
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::datacenter::{Algorithm, Datacenter, DcConfig};
    use dds_core::spec::HostSpec;
    use dds_sim_core::{HostId, VmId};
    use dds_traces::{RequestGenerator, TracePattern, VmTrace};

    /// The oracle for one VM: its request stream event per request,
    /// uncursored lookups, a fresh report. Everything it touches is
    /// derived from `(seed, vm index)` and the run's recorded state, so
    /// the result is a pure function.
    fn replay_vm_reference(
        vm: &VmSpec,
        residency: &VmResidency,
        timelines: &[PowerTimeline],
        cfg: &QosConfig,
        seed: u64,
        hours: u64,
    ) -> QosReport {
        let sla_ms = cfg.profile.sla.as_millis();
        let mut report = QosReport::new(sla_ms);
        if vm.kind != WorkloadKind::Interactive {
            // Timer-driven VMs are woken ahead of time (no request
            // latency); batch VMs have no request stream.
            return report;
        }
        let rng = SimRng::new(seed).stream_indexed("qos-requests", vm.id.index() as u64);
        let mut generator = RequestGenerator::new(vm.trace.clone(), cfg.profile.clone(), rng);
        // One FCFS server per vCPU: earliest-free wins, ties by slot index.
        let servers = (vm.vcpus.round() as usize).max(1);
        let mut free = vec![SimTime::EPOCH; servers];
        // The sleep episode (keyed by its operational end) this VM last
        // woke, and the instant its trigger-started resume completes.
        let mut episode: Option<(SimTime, SimTime)> = None;

        for hour in 0..hours {
            if vm.trace.level_at_hour(hour) < cfg.noise {
                continue;
            }
            for arrival in generator.arrivals_in_hour(hour) {
                let service = generator.sample_service();
                let Some(host) = residency.host_at(arrival) else {
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
                serve_request(&mut report, &mut free, arrival, service, power_ready);
            }
        }
        report
    }

    /// The oracle for a whole run: one pool task and one report per VM,
    /// merged in VM order. Same semantics as [`replay`], no batching.
    fn replay_per_request(
        vms: &[VmSpec],
        outcome: &DcOutcome,
        cfg: &QosConfig,
        seed: u64,
        threads: usize,
    ) -> QosReport {
        let residency = residencies(&outcome.placements, vms.len());
        let residency = &residency;
        let shards = WorkerPool::global().run_ordered(
            worker_count(threads, vms.len()),
            (0..vms.len())
                .map(|i| {
                    move || {
                        replay_vm_reference(
                            &vms[i],
                            &residency[i],
                            &outcome.timelines,
                            cfg,
                            seed,
                            outcome.hours,
                        )
                    }
                })
                .collect(),
        );
        let mut report = QosReport::new(cfg.profile.sla.as_millis());
        for shard in &shards {
            report.merge(shard);
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

    fn run_small_with(
        algorithm: Algorithm,
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
        let mut dc = Datacenter::new(cfg, algorithm, hosts, vms.clone(), placement, None, 7);
        dc.run(hours);
        (vms, dc.finish())
    }

    fn run_small(
        algorithm: Algorithm,
        traces: Vec<VmTrace>,
        hours: u64,
    ) -> (Vec<VmSpec>, DcOutcome) {
        run_small_with(algorithm, traces, hours, |cfg| {
            cfg.track_power_timeline = true
        })
    }

    #[test]
    fn always_on_fleet_sees_no_wake_hits() {
        let hours = 48;
        let (vms, out) = run_small(
            Algorithm::NeatNoSuspend,
            vec![bursty(48, 1), bursty(48, 2)],
            hours,
        );
        let cfg = QosConfig::paper_default();
        let report = replay(&vms, &out, &cfg, 7, 1);
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
        let hours = 96;
        let (vms, out) = run_small(
            Algorithm::DrowsyDc,
            vec![bursty(96, 1), bursty(96, 2)],
            hours,
        );
        assert!(
            out.timelines
                .iter()
                .any(|tl| !tl.time_in(|s| s.is_low_power()).is_zero()),
            "the run parks hosts"
        );
        let cfg = QosConfig::paper_default();
        let report = replay(&vms, &out, &cfg, 7, 1);
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
    fn replay_is_bit_identical_across_thread_counts() {
        let hours = 72;
        let (vms, out) = run_small(
            Algorithm::DrowsyDc,
            vec![bursty(72, 1), bursty(72, 2), bursty(72, 3), bursty(72, 4)],
            hours,
        );
        let cfg = QosConfig::paper_default();
        let serial = replay(&vms, &out, &cfg, 7, 1);
        let parallel = replay(&vms, &out, &cfg, 7, 4);
        let auto = replay(&vms, &out, &cfg, 7, 0);
        assert_eq!(serial, parallel, "1-vs-N thread reports are identical");
        assert_eq!(serial, auto);
        assert!(serial.total > 0);
    }

    #[test]
    fn batched_replay_matches_the_per_request_reference() {
        // The acceptance criterion: the interval-batched pipeline is
        // bit-identical to the event-per-request reference — histogram
        // buckets, exact counters, worst-case latencies — for both a
        // parking and a non-parking run, at any thread count.
        for algorithm in [Algorithm::DrowsyDc, Algorithm::NeatNoSuspend] {
            let hours = 96;
            let (vms, out) = run_small(
                algorithm,
                vec![bursty(96, 1), bursty(96, 2), bursty(96, 3)],
                hours,
            );
            let cfg = QosConfig::paper_default();
            let reference = replay_per_request(&vms, &out, &cfg, 7, 1);
            for threads in [1, 2, 4, 0] {
                let batched = replay(&vms, &out, &cfg, 7, threads);
                assert_eq!(batched, reference, "threads = {threads}");
            }
            assert_eq!(replay_per_request(&vms, &out, &cfg, 7, 3), reference);
            assert!(reference.total > 0);
        }
    }

    #[test]
    fn streaming_report_is_bit_identical_to_the_post_hoc_replay() {
        // The tentpole acceptance criterion: a run evaluating QoS *inline*
        // (DcConfig::qos_stream, trimmed timelines, no placement log)
        // produces exactly the report the post-hoc replay computes from a
        // fully-recorded twin of the same run — exact counters, histogram
        // buckets and worst-case latencies — at any worker-thread count on
        // the streaming side.
        use dds_core::datacenter::QosStreamConfig;
        for algorithm in [Algorithm::DrowsyDc, Algorithm::NeatNoSuspend] {
            let hours = 96;
            let traces = vec![bursty(96, 1), bursty(96, 2), bursty(96, 3), bursty(96, 4)];
            let (vms, out) = run_small(algorithm, traces.clone(), hours);
            let cfg = QosConfig::paper_default();
            let posthoc = replay(&vms, &out, &cfg, 7, 0);
            assert!(posthoc.total > 0);
            for threads in [1usize, 3, 0] {
                let (_, streamed) = run_small_with(algorithm, traces.clone(), hours, |c| {
                    c.qos_stream = Some(QosStreamConfig {
                        profile: cfg.profile.clone(),
                        threads,
                    });
                });
                // Streaming must not perturb the run's physics…
                assert_eq!(
                    streamed.energy_kwh.to_bits(),
                    out.energy_kwh.to_bits(),
                    "the ride-along pipeline leaves the simulation untouched"
                );
                // …retains nothing whole-run…
                assert!(streamed.timelines.is_empty(), "no timeline retention");
                assert!(streamed.placements.is_empty(), "no placement log");
                // …and reports exactly what the replay would.
                let qos = streamed.qos.expect("streaming run surfaces a report");
                assert_eq!(qos, posthoc, "{algorithm:?}, threads = {threads}");
            }
        }
    }

    #[test]
    fn run_cluster_qos_wires_tracking_and_replay_together() {
        let mut spec = ClusterSpec::paper_default(0.75);
        spec.hosts = 4;
        spec.vms = 12;
        spec.days = 2;
        let profile = RequestProfile {
            peak_rps: 1.0,
            ..RequestProfile::web_search_quick_resume()
        };
        let (outcome, report) = run_cluster_qos(&spec, "drowsy-dc", 11, &profile, 0);
        assert!(outcome.energy_kwh() > 0.0);
        assert_eq!(outcome.dc.timelines.len(), 4);
        assert!(report.total > 0, "LLMI mix produces interactive requests");
        // Determinism end to end.
        let (_, again) = run_cluster_qos(&spec, "drowsy-dc", 11, &profile, 2);
        assert_eq!(report, again);
        // A stock-resume profile flips the run onto the slow wake path:
        // every resume window recorded in the timelines is the ≈1500 ms
        // stock latency (Drowsy-DC parks in S3 only), where the quick
        // profile's run resumed in ≈800 ms.
        let resume_spans = |outcome: &ClusterOutcome| -> Vec<u64> {
            outcome
                .dc
                .timelines
                .iter()
                .flat_map(|tl| tl.intervals())
                .filter(|iv| iv.state == dds_power::PowerState::Resuming)
                .map(|iv| iv.duration().as_millis())
                .collect()
        };
        let quick_spans = resume_spans(&outcome);
        assert!(!quick_spans.is_empty(), "the run woke hosts");
        assert!(quick_spans.iter().all(|&ms| ms == 800), "{quick_spans:?}");
        let stock = RequestProfile {
            peak_rps: 1.0,
            ..RequestProfile::web_search()
        };
        let (stock_outcome, _) = run_cluster_qos(&spec, "drowsy-dc", 11, &stock, 0);
        let stock_spans = resume_spans(&stock_outcome);
        assert!(!stock_spans.is_empty(), "the stock run woke hosts");
        assert!(stock_spans.iter().all(|&ms| ms == 1500), "{stock_spans:?}");
    }
}
