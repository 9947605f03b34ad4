//! The datacenter model: hosts, VMs, power, suspension, waking and the
//! hourly control loop, driven by the discrete-event engine.
//!
//! Control runs in one-hour periods (the idleness model's resolution)
//! scheduled as events on [`DcEngine`], the only driver —
//! [`Datacenter::run`] is a one-line wrapper over it in
//! [`EngineConfig::Legacy`] — with sub-hour timing where it matters:
//! suspend decisions (idle-detection delay + grace time), suspend/resume
//! transitions (seconds), wake-on-packet offsets and migration transfers.
//! [`EngineConfig::HighFidelity`] additionally fires scheduled S3/S5
//! wakes, heartbeats and VM arrivals/departures as events at true
//! `SimTime` instants between epochs.
//!
//! ## Architecture
//!
//! The control loop itself is algorithm-agnostic; everything
//! algorithm-specific is dispatched through the [`ControlPolicy`] trait
//! from `dds-placement`; policies are named only through the
//! [`PolicyRegistry`](crate::registry::PolicyRegistry) and handed to
//! [`Datacenter::with_policy`]. The module splits as:
//!
//! * [`mod@self`] — configuration, construction, VM lifecycle (admission,
//!   departure) and the run/finish entry points;
//! * `control` — the hourly control loop: scoring, relocation rounds,
//!   process refresh and the cluster snapshots planners consume;
//! * `wake` — the suspend/wake path: per-host hour simulation, resume
//!   handling and management wakes;
//! * `engine` — the event-driven driver ([`DcEngine`]): epochs, arrival/
//!   departure events, true-latency scheduled wakes, heartbeats;
//! * `accounting` — outcome assembly;
//! * `qos_stream` — request-level QoS, streamed inline with the run.
//!
//! ## Modelling choices (also catalogued in DESIGN.md)
//!
//! * A host must be awake for the whole part of an hour in which any
//!   resident VM is active; suspension is only possible in fully idle
//!   hours. This is conservative for Drowsy-DC (activity inside an hour
//!   is not compacted) and matches how the paper's suspending module
//!   behaves under its grace time at hourly activity granularity.
//! * Timer-driven VMs register their next activity in the host's timer
//!   wheel; the suspending module forwards the earliest valid timer as
//!   the waking date, and the waking module resumes the host *ahead of
//!   time*, so scheduled activity pays no latency (§VI.A.3's backup
//!   experiment). An interactive VM's first request of the hour wakes
//!   its parked host (§V: the switch holds the packet while the waking
//!   module sends the WoL): the resume starts at that request's arrival,
//!   and the request waits for it. Arrivals come from per-(VM, hour)
//!   streams ([`dds_traces::hour_request_rng`]), so the wake path and
//!   the QoS stream see the same requests.
//! * A swap (needed on fully packed clusters) is charged as two live
//!   migrations.

mod accounting;
mod control;
mod engine;
mod qos_stream;
mod telemetry;
#[cfg(test)]
mod tests;
mod wake;

pub use engine::{DcEngine, DcEvent, EngineConfig};
use qos_stream::QosStream;
pub use qos_stream::QosStreamConfig;
pub use telemetry::dc_spans;

use crate::spec::{HostSpec, VmSpec, WorkloadKind};
use dds_hostos::{
    Blacklist, Decision, Pid, ProcState, ProcessTable, SuspendConfig, SuspendModule, TimerId,
    TimerWheel,
};
use dds_idleness::{IdlenessModel, ImConfig};
use dds_net::{HostMac, VmIp, WakingCluster, WakingConfig};
use dds_placement::policy::{ControlPolicy, PlanningView, SleepDepth};
use dds_placement::{ClusterState, DrowsyConfig, HostState, SleepScaleConfig, VmState};
use dds_power::{
    DcEnergyAccount, EnergyMeter, HostPowerModel, PowerState, PowerStateMachine, PowerTimeline,
    WakeSpeed,
};
use dds_sim_core::time::CalendarStamp;
use dds_sim_core::{HostId, RackId, SimDuration, SimRng, SimTime, VmId};
use dds_traces::RequestProfile;
use std::collections::HashSet;

/// Error admitting a new VM into the datacenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Every host was discarded by the filters (no capacity).
    NoHostFits,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::NoHostFits => write!(f, "no host passes the placement filters"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Datacenter configuration.
#[derive(Debug, Clone)]
pub struct DcConfig {
    /// Host power model.
    pub power: HostPowerModel,
    /// Resume speed (Drowsy-DC ships the quick-resume path).
    pub wake_speed: WakeSpeed,
    /// Idleness-model configuration.
    pub im: ImConfig,
    /// Hours between consolidation rounds (1 = the paper's periodic
    /// full-relocation evaluation mode).
    pub relocation_period_hours: u64,
    /// Drowsy planner configuration.
    pub drowsy: DrowsyConfig,
    /// SleepScale policy configuration (used when the `sleepscale`
    /// registry policy is selected).
    pub sleepscale: SleepScaleConfig,
    /// Peak request rate of an interactive VM at activity 1.0, in
    /// requests per second, for a run that does not stream QoS; a QoS run
    /// takes the rate from its [`QosStreamConfig::profile`]. The rate
    /// places the traffic wakes: a parked host wakes at its residents'
    /// first request of the hour.
    pub request_peak_rps: f64,
    /// Mean request service time. Unread: the QoS stream samples service
    /// from its profile. Kept because the benchmark harness
    /// (`perfbench/src/workloads.rs`) writes it.
    pub request_service: SimDuration,
    /// The response-time SLA threshold. Unread: the QoS stream judges
    /// against its profile's SLA. Kept, like
    /// [`request_service`](Self::request_service), because the benchmark
    /// harness writes it.
    pub sla: SimDuration,
    /// Record the VM×VM colocation matrix (Fig. 2). Off, the matrix is
    /// never allocated and [`DcOutcome::colocation`] stays empty.
    pub track_colocation: bool,
    /// Retain per-host [`PowerTimeline`]s and the VM placement log for
    /// the whole run, surfaced on [`DcOutcome::timelines`] and
    /// [`DcOutcome::placements`] — the recorded history the streaming QoS
    /// pipeline's per-request oracle is checked against. Off by default:
    /// no production path needs the full history.
    pub track_power_timeline: bool,
    /// Compute request-level QoS *inline* with the run (the streaming
    /// pipeline; see [`QosStreamConfig`]): per-epoch [`QosWindow`]s
    /// delivered to the policy, the run-wide report on
    /// [`DcOutcome::qos`] — without retaining timelines or placement
    /// logs. `None` (the default) costs nothing.
    ///
    /// [`QosWindow`]: dds_sim_core::qos::QosWindow
    pub qos_stream: Option<QosStreamConfig>,
}

impl DcConfig {
    /// The testbed configuration of §VI.A.
    pub fn paper_default() -> Self {
        DcConfig {
            power: HostPowerModel::paper_default(),
            wake_speed: WakeSpeed::Quick,
            im: ImConfig::paper_default(),
            relocation_period_hours: 1,
            drowsy: DrowsyConfig::paper_default(),
            sleepscale: SleepScaleConfig::paper_default(),
            request_peak_rps: 2.0,
            request_service: SimDuration::from_millis(60),
            sla: SimDuration::from_millis(200),
            track_colocation: true,
            track_power_timeline: false,
            qos_stream: None,
        }
    }

    /// Streams request-level QoS ([`DcConfig::qos_stream`]) with the
    /// paper's web-search client at this configuration's own
    /// [`request_peak_rps`](Self::request_peak_rps). A QoS run takes its
    /// arrival rate from the profile, so at the configured rate every
    /// wake, and the energy, equal the run without QoS.
    pub fn stream_qos(&mut self) {
        self.qos_stream = Some(QosStreamConfig::serial(RequestProfile {
            peak_rps: self.request_peak_rps,
            ..RequestProfile::web_search_quick_resume()
        }));
    }
}

pub(crate) struct HostSim {
    spec: HostSpec,
    power: PowerStateMachine,
    meter: EnergyMeter,
    procs: ProcessTable,
    timers: TimerWheel,
    suspend: SuspendModule,
    /// Hosts that must not suspend (policy-designated always-on hosts —
    /// Oasis consolidation servers; every host under a non-suspending
    /// policy).
    always_on: bool,
    /// Management operations (migrations) pin the host awake until here.
    forced_awake_until: SimTime,
}

pub(crate) struct VmSim {
    spec: VmSpec,
    im: IdlenessModel,
    host: HostId,
    pid: Pid,
    timer: Option<(TimerId, SimTime)>,
    migrations: u32,
    /// Hour index of the last migration (for the cooldown), or None.
    last_migration_hour: Option<u64>,
    /// Oasis: working set parked on a consolidation host.
    parked: bool,
    /// The VM has been destroyed (SLMU completion, tenant deletion); its
    /// slot is kept so ids stay dense, but it no longer exists anywhere.
    departed: bool,
    /// Oasis: host the VM faults back to.
    origin: HostId,
}

/// Outcome of a datacenter run.
#[derive(Debug, Clone)]
pub struct DcOutcome {
    /// Display label of the policy that produced this outcome (e.g.
    /// `"Drowsy-DC"`, `"SleepScale"`).
    pub policy: String,
    /// Hours simulated.
    pub hours: u64,
    /// Per-host low-power-time fraction (Table I rows; S3 and S5 both
    /// count — the paper's four policies only ever reach S3).
    pub suspended_fraction: Vec<(HostId, f64)>,
    /// Global low-power fraction (Table I "Global").
    pub global_suspended_fraction: f64,
    /// Total energy in kWh (§VI.A.3).
    pub energy_kwh: f64,
    /// Per-VM migration counts (Fig. 2 last column).
    pub migrations: Vec<(VmId, u32)>,
    /// Colocation fraction matrix, `coloc[i][j]` = fraction of hours VMs
    /// i and j shared a host (Fig. 2), under
    /// [`DcConfig::track_colocation`]; empty otherwise.
    pub colocation: Vec<Vec<f64>>,
    /// Suspend cycles per host (oscillation diagnostics).
    pub suspend_cycles: Vec<(HostId, u64)>,
    /// Per-host power-state timelines (indexed by host), recorded under
    /// [`DcConfig::track_power_timeline`]; empty otherwise. The full
    /// history of when each host could actually serve.
    pub timelines: Vec<PowerTimeline>,
    /// The VM placement log (see [`PlacementRecord`]), recorded under
    /// [`DcConfig::track_power_timeline`]; empty otherwise.
    pub placements: Vec<PlacementRecord>,
    /// The run-wide streaming QoS report, when the run streamed QoS
    /// ([`DcConfig::qos_stream`]); `None` otherwise. Pinned bit for bit
    /// to a per-request oracle over the recorded twin of the run (see
    /// the tests of `dds_core::datacenter::qos_stream`).
    pub qos: Option<dds_sim_core::qos::QosReport>,
}

impl DcOutcome {
    /// Total migrations across all VMs.
    pub fn total_migrations(&self) -> u32 {
        self.migrations.iter().map(|(_, n)| n).sum()
    }
}

/// One VM placement assignment, as recorded by the placement log (under
/// [`DcConfig::track_power_timeline`]): from `at` on, the VM runs on
/// `host` — until its next record or the end of the run. Initial
/// placement, admissions, migrations, swaps and Oasis park/unpark moves
/// all append records, so the log is a complete residency history: the
/// host each VM occupied at any instant of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementRecord {
    /// The placed VM.
    pub vm: VmId,
    /// Instant the assignment took effect.
    pub at: SimTime,
    /// Destination host.
    pub host: HostId,
}

/// What triggered a host resume — the diagnostic axis the wake log was
/// missing: a fleet drowning in *traffic* wakes has a prediction
/// problem (the waking date came too late), one drowning in
/// *management* wakes has a consolidation problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeCause {
    /// A request arrived for a parked host (WoL packet wake): the resume
    /// starts at the arrival of the hour's first request, which waits the
    /// full resume latency.
    Traffic,
    /// An anticipated timer wake: a timer-driven resident became active
    /// exactly when the idleness model predicted, served warm.
    Timer,
    /// The waking module's lead-adjusted schedule fired (event-engine
    /// pre-wakes ahead of the predicted waking date).
    Scheduled,
    /// A management operation (migration, admission, consolidation
    /// move) needed the host operational.
    Management,
}

impl WakeCause {
    /// Stable lowercase label (telemetry and log rendering).
    pub fn label(&self) -> &'static str {
        match self {
            WakeCause::Traffic => "traffic",
            WakeCause::Timer => "timer",
            WakeCause::Scheduled => "scheduled",
            WakeCause::Management => "management",
        }
    }
}

/// One host resume, as recorded by the wake log: when the wake began
/// (WoL received / wake condition hit), when the host was operational
/// again, which simulated hour it happened in and what triggered it.
/// Fuels the sub-hour wake-latency accounting tests and diagnostics;
/// recording costs one small struct per resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeRecord {
    /// The resumed host.
    pub host: HostId,
    /// Instant the resume began.
    pub started: SimTime,
    /// Instant the host was operational again.
    pub operational: SimTime,
    /// True when resuming from S5 soft-off (stock latency) rather than S3.
    pub from_off: bool,
    /// Simulated hour (control epoch) the resume began in.
    pub epoch: u64,
    /// What triggered the resume.
    pub cause: WakeCause,
}

/// The simulated datacenter.
pub struct Datacenter {
    cfg: DcConfig,
    policy: Box<dyn ControlPolicy>,
    hosts: Vec<HostSim>,
    vms: Vec<VmSim>,
    /// Each host's resident VM indexes, ascending — the VMs with
    /// `host == h && !departed`, parked working sets included. Kept in
    /// step at construction, `apply_move`, `admit_vm` and `remove_vm`,
    /// so per-host walks cost the host's residents, not every VM.
    residents: Vec<Vec<usize>>,
    waking: WakingCluster,
    blacklist: Blacklist,
    /// The run's master seed: request arrivals derive from it per
    /// (VM, hour) ([`dds_traces::hour_request_rng`]).
    seed: u64,
    /// The planning RNG, handed to [`ControlPolicy::plan`] (its
    /// determinism contract); nothing else draws from it.
    rng: SimRng,
    hour: u64,
    /// Live (non-departed) VMs, maintained on admission/departure so
    /// `live_vm_count` is O(1) instead of a scan.
    live_vms: usize,
    /// Hours each VM pair shared a host, under `track_colocation` only
    /// (never allocated otherwise).
    coloc_hours: Vec<Vec<u64>>,
    wake_log: Vec<WakeRecord>,
    /// Placement log (under `track_power_timeline`): every assignment a
    /// VM ever received, in time order.
    placements: Vec<PlacementRecord>,
    /// The streaming QoS pipeline (under `qos_stream`): per-epoch
    /// request accounting, the policy's closed-loop signal.
    qos: Option<QosStream>,
    /// Fidelity of the engine driving this datacenter. Under
    /// [`EngineConfig::HighFidelity`] parked (S3/S5) hosts' meters stay
    /// untouched at control-period boundaries so a mid-hour resume
    /// integrates the parked span over its true variable-length interval.
    /// [`EngineConfig::Legacy`] must keep metering per hour — splitting a
    /// constant-state span changes f64 rounding, and the golden
    /// policy-equivalence suite pins those bits.
    engine: EngineConfig,
}

const RACK: RackId = RackId(0);

impl Datacenter {
    /// Builds a datacenter with the given hosts, VMs and initial
    /// placement (`placement[i]` = host of VM i; must respect capacity),
    /// managed by an arbitrary [`ControlPolicy`].
    pub fn with_policy(
        cfg: DcConfig,
        policy: Box<dyn ControlPolicy>,
        host_specs: Vec<HostSpec>,
        vm_specs: Vec<VmSpec>,
        placement: Vec<HostId>,
        seed: u64,
    ) -> Self {
        assert_eq!(vm_specs.len(), placement.len(), "placement covers every VM");
        let start = SimTime::EPOCH;
        let blacklist = Blacklist::standard();
        // Every host runs the paper's suspending module (§IV: 5 s–2 min
        // IP-adaptive grace); no policy reshapes it.
        let suspend_cfg = SuspendConfig::paper_default();
        let mut hosts: Vec<HostSim> = host_specs
            .into_iter()
            .map(|spec| {
                let mut procs = ProcessTable::new();
                procs.spawn("monitord", ProcState::Running);
                // Heterogeneous fleets override the fleet-wide power model
                // (and its suspend/resume latencies) per host class.
                let model = spec.power.clone().unwrap_or_else(|| cfg.power.clone());
                let mut meter = EnergyMeter::new(model, start);
                // The streaming QoS pipeline reads the timeline too — but
                // trims it every epoch unless full retention was asked for.
                if cfg.track_power_timeline || cfg.qos_stream.is_some() {
                    meter.enable_timeline();
                }
                HostSim {
                    spec,
                    power: PowerStateMachine::new(start),
                    meter,
                    procs,
                    timers: TimerWheel::new(),
                    suspend: SuspendModule::new(suspend_cfg.clone()),
                    always_on: !policy.suspends(),
                    forced_awake_until: start,
                }
            })
            .collect();
        for h in policy.always_on_hosts() {
            hosts[h.index()].always_on = true;
        }
        let vms: Vec<VmSim> = vm_specs
            .into_iter()
            .zip(placement.iter())
            .map(|(spec, &host)| {
                let pid = hosts[host.index()].procs.spawn_vm_process(
                    format!("qemu-{}", spec.name),
                    ProcState::Sleeping { wake: None },
                    Some(spec.id),
                );
                VmSim {
                    spec,
                    im: IdlenessModel::new(cfg.im.clone()),
                    host,
                    pid,
                    timer: None,
                    migrations: 0,
                    last_migration_hour: None,
                    parked: false,
                    departed: false,
                    origin: host,
                }
            })
            .collect();
        let mut residents = vec![Vec::new(); hosts.len()];
        for (i, host) in placement.iter().enumerate() {
            residents[host.index()].push(i);
        }
        let placements = if cfg.track_power_timeline {
            vms.iter()
                .map(|v| PlacementRecord {
                    vm: v.spec.id,
                    at: start,
                    host: v.host,
                })
                .collect()
        } else {
            Vec::new()
        };
        let qos = cfg
            .qos_stream
            .clone()
            .map(|qcfg| QosStream::new(qcfg, seed, cfg.im.noise_threshold, &vms));
        let n = vms.len();
        Datacenter {
            policy,
            qos,
            waking: WakingCluster::new(1, WakingConfig::paper_default(), start),
            blacklist,
            seed,
            rng: SimRng::new(seed),
            hour: 0,
            live_vms: n,
            coloc_hours: if cfg.track_colocation {
                vec![vec![0; n]; n]
            } else {
                Vec::new()
            },
            wake_log: Vec::new(),
            placements,
            engine: EngineConfig::Legacy,
            cfg,
            hosts,
            vms,
            residents,
        }
    }

    /// Records a placement assignment into the placement log (under
    /// `track_power_timeline`) and the streaming QoS pipeline's residency
    /// (under `qos_stream`) — one seam, so the recorded history and the
    /// streaming routing cannot disagree.
    pub(crate) fn record_placement(&mut self, vm: VmId, at: SimTime, host: HostId) {
        if self.cfg.track_power_timeline {
            self.placements.push(PlacementRecord { vm, at, host });
        }
        if let Some(q) = self.qos.as_mut() {
            q.on_placement(vm, at, host);
        }
    }

    /// Drops VM index `vm` from `host`'s resident list.
    fn unlist_resident(&mut self, host: usize, vm: usize) {
        let list = &mut self.residents[host];
        let pos = list
            .binary_search(&vm)
            .expect("residency invariant: a live VM is listed on its host");
        list.remove(pos);
    }

    /// Inserts VM index `vm` into `host`'s resident list, keeping it
    /// ascending.
    fn list_resident(&mut self, host: usize, vm: usize) {
        let list = &mut self.residents[host];
        let pos = list
            .binary_search(&vm)
            .expect_err("residency invariant: a VM is listed on one host");
        list.insert(pos, vm);
    }

    /// The VMs whose processes run on `host` this hour: its residents
    /// minus parked working sets, in VM order.
    pub(super) fn active_residents(&self, host: HostId) -> impl Iterator<Item = usize> + '_ {
        self.residents[host.index()]
            .iter()
            .copied()
            .filter(|&i| !self.vms[i].parked)
    }

    /// The current hour index.
    pub fn hour(&self) -> u64 {
        self.hour
    }

    /// Current VM → host assignment (diagnostics).
    pub fn debug_placement(&self) -> Vec<(VmId, HostId)> {
        self.vms.iter().map(|v| (v.spec.id, v.host)).collect()
    }

    /// Admits a new VM through the Nova-style filter scheduler (§III-D(a)):
    /// filters discard unsuitable hosts, then weighers rank the rest —
    /// Drowsy-DC adds its IP-proximity weigher so the newcomer lands on
    /// the host whose idleness pattern best matches its (still
    /// undetermined) score. Returns the chosen host.
    ///
    /// The spec's `id` is overwritten with the next dense id.
    pub fn admit_vm(&mut self, mut spec: VmSpec) -> Result<HostId, AdmitError> {
        let h = self.hour;
        spec.id = VmId(self.vms.len() as u32);
        let levels: Vec<f64> = self
            .vms
            .iter()
            .map(|v| {
                if v.departed {
                    0.0
                } else {
                    v.spec.trace.level_at_hour(h)
                }
            })
            .collect();
        let stamp = CalendarStamp::from_hour_index(h);
        let scores: Vec<f64> = if self.policy.uses_idleness_scores() {
            self.vms.iter().map(|v| v.im.raw_score(stamp)).collect()
        } else {
            vec![0.0; self.vms.len()]
        };
        let state = self.cluster_state(&levels, &scores);
        let candidate = VmState {
            id: spec.id,
            vcpus: spec.vcpus,
            ram_mb: spec.ram_mb,
            cpu_demand: spec.trace.level_at_hour(h) * spec.vcpus,
            ip_score: 0.0, // fresh model: undetermined
        };
        let dest = self
            .policy
            .admission_scheduler()
            .select(&state, &candidate)
            .ok_or(AdmitError::NoHostFits)?;
        // A sleeping destination must be woken to receive the VM.
        let now = SimTime::from_hours(h);
        let ready = self.wake_for_management(dest, now);
        self.hosts[dest.index()].forced_awake_until =
            self.hosts[dest.index()].forced_awake_until.max(ready);
        let pid = self.hosts[dest.index()].procs.spawn_vm_process(
            format!("qemu-{}", spec.name),
            ProcState::Sleeping { wake: None },
            Some(spec.id),
        );
        self.vms.push(VmSim {
            im: IdlenessModel::new(self.cfg.im.clone()),
            host: dest,
            pid,
            timer: None,
            migrations: 0,
            last_migration_hour: None,
            parked: false,
            departed: false,
            origin: dest,
            spec,
        });
        self.live_vms += 1;
        let id = self.vms.last().expect("just pushed").spec.id;
        // The newest VM has the largest index: pushing keeps the list
        // ascending.
        self.residents[dest.index()].push(id.index());
        self.record_placement(id, now, dest);
        if self.cfg.track_colocation {
            let n = self.vms.len();
            for row in &mut self.coloc_hours {
                row.resize(n, 0);
            }
            self.coloc_hours.push(vec![0; n]);
        }
        Ok(dest)
    }

    /// Destroys a VM (SLMU completion, tenant deletion). Its host slot,
    /// process and timers are released immediately; the id remains
    /// allocated (dense ids) but inert. Returns false for unknown or
    /// already-departed VMs.
    pub fn remove_vm(&mut self, vm: VmId) -> bool {
        let Some(v) = self.vms.get_mut(vm.index()) else {
            return false;
        };
        if v.departed {
            return false;
        }
        v.departed = true;
        self.live_vms -= 1;
        let host = v.host.index();
        let pid = v.pid;
        let timer = v.timer.take();
        self.unlist_resident(host, vm.index());
        self.hosts[host].procs.kill(pid);
        if let Some((tid, _)) = timer {
            self.hosts[host].timers.cancel(tid);
        }
        true
    }

    /// Number of live (non-departed) VMs — O(1), maintained on
    /// admission/departure.
    pub fn live_vm_count(&self) -> usize {
        debug_assert_eq!(
            self.live_vms,
            self.vms.iter().filter(|v| !v.departed).count(),
            "live-VM counter out of sync with departure flags"
        );
        self.live_vms
    }

    /// Total VM slots allocated so far (departed VMs keep their dense id).
    pub fn vm_slot_count(&self) -> usize {
        self.vms.len()
    }

    /// Every host resume performed so far, in order (wake-latency
    /// accounting; see [`WakeRecord`]).
    pub fn wake_log(&self) -> &[WakeRecord] {
        &self.wake_log
    }

    /// Fault injection: kills the rack's waking module. The heart-beat
    /// monitor replaces it from its mirror at the next control period, so
    /// drowsy-host state (including scheduled waking dates) survives —
    /// the §V fault-tolerance property, exercised in vivo.
    pub fn inject_waking_failure(&mut self) {
        self.fail_waking_module();
        let now = SimTime::from_hours(self.hour);
        let replaced = self.waking.monitor(now);
        debug_assert_eq!(replaced.len(), 1);
    }

    /// Fault injection without the immediate recovery of
    /// [`Datacenter::inject_waking_failure`]: marks the rack's waking
    /// module defective and leaves detection to the heartbeat monitor —
    /// under [`EngineConfig::HighFidelity`] that is the next
    /// [`DcEvent::Heartbeat`], so failover happens at sub-epoch latency.
    pub fn fail_waking_module(&mut self) {
        self.waking.inject_failure(RACK);
    }

    /// One heartbeat round (event engine): every alive waking module
    /// beats, then the monitor replaces failed/silent ones from their
    /// mirrors. Returns the number of failovers performed this round.
    pub fn heartbeat_and_monitor(&mut self, now: SimTime) -> usize {
        self.waking.heartbeat_all(now);
        self.waking.monitor(now).len()
    }

    /// Number of waking-module failovers performed so far.
    pub fn waking_failovers(&self) -> u64 {
        self.waking.failovers()
    }

    /// Earliest lead-adjusted scheduled-wake instant across the waking
    /// cluster (the engine's "scheduled wake due" event time).
    pub(crate) fn next_scheduled_wake(&self) -> Option<SimTime> {
        self.waking.next_fire_time()
    }

    /// Runs `hours` control periods.
    ///
    /// A one-line wrapper over the event engine: it schedules one
    /// [`DcEvent::ControlEpoch`] per hour on a [`DcEngine`] in
    /// [`EngineConfig::Legacy`] (the golden policy-equivalence suite pins
    /// its bits). Build a [`DcEngine`] directly for sub-hour fidelity:
    /// true-latency scheduled wakes, heartbeat-driven failover, mid-hour
    /// VM arrivals/departures.
    pub fn run(&mut self, hours: u64) {
        DcEngine::new(self, EngineConfig::Legacy).run_hours(hours);
    }
}
