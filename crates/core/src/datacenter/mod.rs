//! The datacenter model: hosts, VMs, power, suspension, waking and the
//! hourly control loop, driven by the discrete-event engine.
//!
//! Control runs in one-hour periods (the idleness model's resolution)
//! scheduled as events on [`DcEngine`], the only driver —
//! [`Datacenter::run`] is a one-line wrapper over it in
//! [`EngineConfig::Legacy`] — with sub-hour timing where it matters:
//! suspend decisions (idle-detection delay + grace time), suspend/resume
//! transitions (seconds), wake-on-packet offsets and migration transfers.
//! Both fidelities fire scheduled VM arrivals/departures and
//! waking-module failures as events at true `SimTime` instants between
//! epochs (an admitted VM is placed at the next hour boundary);
//! [`EngineConfig::HighFidelity`] additionally fires scheduled S3/S5
//! wakes that way.
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
//! * `control` — the hourly control loop: scoring, relocation rounds and
//!   the cluster snapshots planners consume;
//! * `wake` — the suspend/wake path: per-host hour simulation, suspend
//!   decisions, resume handling and management wakes;
//! * `engine` — the event-driven driver ([`DcEngine`]): epochs, arrival/
//!   departure events, true-latency scheduled wakes, waking-module
//!   failover;
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
//! * Idleness is read from the activity traces: a host is idle in an
//!   hour when none of its unparked residents is active, which is what
//!   the suspending module's process check would find. A suspending
//!   host's waking date is the earliest next active hour among its
//!   timer-driven residents (their hrtimers); the suspending module
//!   forwards it and the waking module resumes the host *ahead of
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

pub use engine::{DcEngine, EngineConfig};
use qos_stream::QosStream;
pub use qos_stream::QosStreamConfig;
pub use telemetry::dc_spans;

use crate::spec::{HostSpec, VmSpec, WorkloadKind};
use dds_hostos::{Decision, SuspendConfig, SuspendModule};
use dds_idleness::{IdlenessModel, ImConfig};
use dds_net::{HostMac, WakingCluster};
use dds_placement::policy::{ControlPolicy, PlanningView, SleepDepth};
use dds_placement::{
    ClusterState, DrowsyConfig, HostState, HostSummary, SleepScaleConfig, VmState,
};
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
    /// Record per-host [`PowerTimeline`]s and the VM placement log for
    /// the whole run, surfaced on [`DcOutcome::timelines`] and
    /// [`DcOutcome::placements`] — the recorded history the streaming QoS
    /// pipeline's per-request oracle is checked against. Off by default;
    /// off, no meter records a timeline, since no production path reads
    /// one (the QoS stream included).
    pub track_power_timeline: bool,
    /// Compute request-level QoS *inline* with the run (the streaming
    /// pipeline; see [`QosStreamConfig`]): per-epoch [`QosWindow`]s
    /// delivered to the policy, the run-wide report on
    /// [`DcOutcome::qos`] — without recording timelines or placement
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
    suspend: SuspendModule,
    /// Hosts that must not suspend (policy-designated always-on hosts —
    /// Oasis consolidation servers; every host under a non-suspending
    /// policy).
    always_on: bool,
    /// Management operations (migrations) pin the host awake until here.
    forced_awake_until: SimTime,
    /// Start and end of the host's latest resume, `(EPOCH, EPOCH)` before
    /// its first: a request the QoS fold routes here starts no earlier
    /// than the end.
    last_resume: (SimTime, SimTime),
}

pub(crate) struct VmSim {
    spec: VmSpec,
    /// Boxed so a slot stays small: the model is 2.4 KB, and a slot
    /// vector of inline models grows by doubling, in reallocations that
    /// reach 12 MB beside a few thousand arrivals (DESIGN §6).
    im: Box<IdlenessModel>,
    host: HostId,
    migrations: u32,
    /// Hour index of the last migration (for the cooldown), or None.
    last_migration_hour: Option<u64>,
    /// Oasis: working set parked on a consolidation host.
    parked: bool,
    /// The VM has been destroyed (SLMU completion, tenant deletion); its
    /// slot is kept so ids stay dense, but it no longer exists anywhere.
    departed: bool,
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
    /// The hour cache: each VM slot's activity level and IP score in the
    /// current hour (`hour`), 0.0 for a departed slot. A score is the
    /// paper's eq. 1 under a policy that reads the models, 0.0 otherwise.
    /// Construction fills hour 0 and `step_hour`'s closing pass the next
    /// hour, as the models learn; `admit_vm` appends the newcomer's and
    /// `remove_vm` zeroes a departed slot's. The buffers are reused from
    /// hour to hour.
    levels: Vec<f64>,
    ip_scores: Vec<f64>,
    /// Each host's admission summary, `None` once its residents or the
    /// hour's scores changed; `admit_vm` rebuilds only the missing ones.
    summaries: Vec<Option<HostSummary>>,
    waking: WakingCluster,
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
        // Every host runs the paper's suspending module (§IV: 5 s–2 min
        // IP-adaptive grace); no policy reshapes it.
        let suspend_cfg = SuspendConfig::paper_default();
        let mut hosts: Vec<HostSim> = host_specs
            .into_iter()
            .map(|spec| {
                // Heterogeneous fleets override the fleet-wide power model
                // (and its suspend/resume latencies) per host class.
                let model = spec.power.clone().unwrap_or_else(|| cfg.power.clone());
                let mut meter = EnergyMeter::new(model, start);
                if cfg.track_power_timeline {
                    meter.enable_timeline();
                }
                HostSim {
                    spec,
                    power: PowerStateMachine::new(start),
                    meter,
                    suspend: SuspendModule::new(suspend_cfg.clone()),
                    always_on: !policy.suspends(),
                    forced_awake_until: start,
                    last_resume: (start, start),
                }
            })
            .collect();
        for h in policy.always_on_hosts() {
            hosts[h.index()].always_on = true;
        }
        let vms: Vec<VmSim> = vm_specs
            .into_iter()
            .zip(placement.iter())
            .map(|(spec, &host)| VmSim {
                spec,
                im: Box::new(IdlenessModel::new(cfg.im.clone())),
                host,
                migrations: 0,
                last_migration_hour: None,
                parked: false,
                departed: false,
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
            .map(|qcfg| QosStream::new(qcfg, seed, cfg.im.noise_threshold));
        let n = vms.len();
        let host_count = hosts.len();
        let mut dc = Datacenter {
            policy,
            qos,
            waking: WakingCluster::new(1, start),
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
            levels: vec![0.0; n],
            ip_scores: vec![0.0; n],
            summaries: vec![None; host_count],
        };
        dc.fill_hour_cache();
        dc
    }

    /// Records into the placement log (under `track_power_timeline`)
    /// that `vm` runs on `host` from the current hour's start: every
    /// placement after the initial one, admissions included, takes effect
    /// at the top of the hour it is simulated in.
    pub(crate) fn record_placement(&mut self, vm: VmId, host: HostId) {
        if self.cfg.track_power_timeline {
            let at = SimTime::from_hours(self.hour);
            self.placements.push(PlacementRecord { vm, at, host });
        }
    }

    /// Drops VM index `vm` from `host`'s resident list, and the host's
    /// summary with it.
    fn unlist_resident(&mut self, host: usize, vm: usize) {
        let list = &mut self.residents[host];
        let pos = list
            .binary_search(&vm)
            .expect("residency invariant: a live VM is listed on its host");
        list.remove(pos);
        self.summaries[host] = None;
    }

    /// Inserts VM index `vm` into `host`'s resident list, keeping it
    /// ascending, and drops the host's summary.
    fn list_resident(&mut self, host: usize, vm: usize) {
        let list = &mut self.residents[host];
        let pos = list
            .binary_search(&vm)
            .expect_err("residency invariant: a VM is listed on one host");
        list.insert(pos, vm);
        self.summaries[host] = None;
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
    /// The scheduler reads one cached [`HostSummary`] per host. A summary
    /// is rebuilt from the host's resident list and the hour's cached IP
    /// scores only after its residents or the scores changed, so an
    /// arrival costs O(hosts) plus the residents of the hosts touched
    /// since the last one, whatever the number of departed slots.
    ///
    /// The VM is placed at the start of the hour the datacenter simulates
    /// next ([`hour`](Self::hour)): an arrival between epochs takes effect
    /// at the next hour boundary. The spec's `id` is overwritten with the
    /// next dense id.
    pub fn admit_vm(&mut self, mut spec: VmSpec) -> Result<HostId, AdmitError> {
        let h = self.hour;
        spec.id = VmId(self.vms.len() as u32);
        let (vms, scores) = (&self.vms, &self.ip_scores);
        let summaries = self
            .summaries
            .iter_mut()
            .zip(&self.hosts)
            .zip(&self.residents)
            .map(|((summary, host), list)| {
                *summary.get_or_insert_with(|| {
                    let residents = list.iter().map(|&i| {
                        let vm = &vms[i].spec;
                        (vm.vcpus, vm.ram_mb, scores[i])
                    });
                    let caps = &host.spec;
                    HostSummary::new(
                        caps.id,
                        caps.cpu_cores,
                        caps.ram_mb,
                        caps.max_vms,
                        residents,
                    )
                })
            });
        let level = spec.trace.level_at_hour(h);
        let candidate = VmState {
            id: spec.id,
            vcpus: spec.vcpus,
            ram_mb: spec.ram_mb,
            cpu_demand: level * spec.vcpus,
            ip_score: 0.0, // fresh model: undetermined
        };
        let dest = self
            .policy
            .admission_scheduler()
            .select(summaries, &candidate)
            .ok_or(AdmitError::NoHostFits)?;
        // A sleeping destination must be woken to receive the VM.
        let now = SimTime::from_hours(h);
        let ready = self.wake_for_management(dest, now);
        self.hosts[dest.index()].forced_awake_until =
            self.hosts[dest.index()].forced_awake_until.max(ready);
        let im = Box::new(IdlenessModel::new(self.cfg.im.clone()));
        let score = if self.policy.uses_idleness_scores() {
            im.raw_score(CalendarStamp::from_hour_index(h))
        } else {
            0.0
        };
        self.levels.push(level);
        self.ip_scores.push(score);
        self.vms.push(VmSim {
            im,
            host: dest,
            migrations: 0,
            last_migration_hour: None,
            parked: false,
            departed: false,
            spec,
        });
        self.live_vms += 1;
        let id = self.vms.last().expect("just pushed").spec.id;
        // The newest VM has the largest index: pushing keeps the list
        // ascending.
        self.residents[dest.index()].push(id.index());
        self.summaries[dest.index()] = None;
        self.record_placement(id, dest);
        if self.cfg.track_colocation {
            let n = self.vms.len();
            for row in &mut self.coloc_hours {
                row.resize(n, 0);
            }
            self.coloc_hours.push(vec![0; n]);
        }
        Ok(dest)
    }

    /// Destroys a VM (SLMU completion, tenant deletion). Its host slot is
    /// released immediately; the id remains allocated (dense ids) but
    /// inert. Returns false for unknown or already-departed VMs.
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
        self.unlist_resident(host, vm.index());
        self.levels[vm.index()] = 0.0;
        self.ip_scores[vm.index()] = 0.0;
        if let Some(q) = self.qos.as_mut() {
            q.on_departure(vm);
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

    /// Number of waking-module failovers performed so far.
    pub fn waking_failovers(&self) -> u64 {
        self.waking.failovers()
    }

    /// Runs `hours` control periods.
    ///
    /// A one-line wrapper over the event engine: it runs one control
    /// epoch per hour on a [`DcEngine`] in [`EngineConfig::Legacy`] (the
    /// golden policy-equivalence suite pins its bits). Build a
    /// [`DcEngine`] directly to schedule mid-hour VM arrivals,
    /// departures and waking-module failures, or for sub-hour fidelity:
    /// true-latency scheduled wakes.
    pub fn run(&mut self, hours: u64) {
        DcEngine::new(self, EngineConfig::Legacy).run_hours(hours);
    }
}
