//! The event-driven datacenter engine.
//!
//! [`DcEngine`] puts the datacenter on `dds_sim_core`'s discrete-event
//! substrate: hourly control epochs, VM arrivals/departures, scheduled
//! S3/S5 wake firings and waking-module heartbeats are [`DcEvent`]s
//! popped from an [`EventQueue`] in time order (same-instant events fire
//! in scheduling order — the queue's FIFO tie-break), instead of
//! everything being folded into a fixed one-hour tick.
//!
//! ## Two fidelity regimes
//!
//! * **Legacy** ([`EngineConfig::Legacy`], the default and what
//!   [`Datacenter::run`] uses): the only recurring event is
//!   [`DcEvent::ControlEpoch`], fired on each hour boundary, with
//!   scheduled wakes polled at those boundaries — the golden
//!   policy-equivalence suite pins this mode bit-identically
//!   (`f64::to_bits`) for the paper's four policies.
//! * **High-fidelity** ([`EngineConfig::HighFidelity`]): opt-in sub-hour
//!   dynamics. Scheduled waking dates fire as events at their true
//!   lead-adjusted instants (`date − WAKE_LEAD`), so a parked host is
//!   operational *at* its waking date instead of starting its resume at
//!   the next hour boundary; parked-host energy integrates over
//!   variable-length intervals (suspend instant → wake instant) rather
//!   than per-hour buckets; and the waking cluster's heart-beat/monitor
//!   loop runs every heartbeat timeout
//!   ([`WakingCluster::heartbeat_timeout`], 5 s), so a killed module
//!   fails over within seconds instead of at the next control period.
//!
//! ## Determinism
//!
//! Everything the engine does is a deterministic function of the
//! `(scenario, policy, seed)` triple: event times are exact integers
//! (`SimTime` milliseconds), same-instant ordering is the scheduling
//! order, and all randomness stays inside the `Datacenter`'s seeded RNG
//! streams. Epoch events are scheduled one-at-a-time (each epoch
//! schedules its successor), so interleaved arrivals/departures/wakes
//! observe exactly the state an online controller would.

use super::*;
use dds_sim_core::{EventQueue, EventToken};

/// An event driving the datacenter simulation.
#[derive(Debug, Clone)]
pub enum DcEvent {
    /// One hourly control period: scoring, consolidation, per-host hour
    /// simulation, model updates.
    ControlEpoch,
    /// A VM arrives and requests admission through the filter scheduler.
    /// With a finite `lifetime`, a matching [`DcEvent::VmDeparture`] is
    /// scheduled on successful admission.
    VmArrival {
        /// The VM to admit (its id is overwritten with the next dense id).
        spec: Box<VmSpec>,
        /// Time until departure, measured from admission (`None` = stays).
        lifetime: Option<SimDuration>,
    },
    /// A VM departs (tenant deletion / batch completion).
    VmDeparture(VmId),
    /// A scheduled waking date is due (lead-adjusted): fire the WoL and
    /// resume the host at its true latency. High-fidelity mode only.
    ScheduledWake,
    /// Heart-beat round: alive waking modules beat, the monitor replaces
    /// dead ones. High-fidelity mode only.
    Heartbeat,
    /// Fault injection: the rack's waking module dies silently; the next
    /// heartbeat round discovers and replaces it.
    WakingFailure,
}

/// Fidelity of a [`DcEngine`] (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineConfig {
    /// Control epochs only: scheduled wakes are polled at control-period
    /// boundaries, parked hosts are metered per hour, and no heartbeat
    /// events run (waking-module failures recover only through
    /// [`Datacenter::inject_waking_failure`]).
    #[default]
    Legacy,
    /// Full sub-hour fidelity: scheduled waking dates fire as events at
    /// their true lead-adjusted instants, parked-host energy integrates
    /// over variable-length intervals, and heartbeat rounds run every
    /// [`WakingCluster::heartbeat_timeout`], so failover latency is at
    /// most one timeout.
    HighFidelity,
}

impl EngineConfig {
    /// Stable label: the scenario format's `mode` value.
    pub fn label(self) -> &'static str {
        match self {
            EngineConfig::Legacy => "legacy",
            EngineConfig::HighFidelity => "high-fidelity",
        }
    }
}

/// The event-driven driver around a [`Datacenter`] — its only driver
/// ([`Datacenter::run`] wraps one at [`EngineConfig::Legacy`]).
///
/// The engine borrows the datacenter: state lives in [`Datacenter`], the
/// engine owns only the clock, the event queue and its bookkeeping, so
/// the same datacenter can be driven in slices and finished with
/// [`Datacenter::finish`] once the engine is dropped. Events scheduled in
/// the past fire at the engine's clock: overdue work runs at the earliest
/// legal instant instead of rewinding time.
///
/// ```
/// use dds_core::datacenter::{Datacenter, DcConfig, DcEngine, EngineConfig};
/// use dds_core::registry::PolicyRegistry;
/// # use dds_core::spec::{HostSpec, VmSpec, WorkloadKind};
/// # use dds_sim_core::{HostId, VmId};
/// # use dds_traces::VmTrace;
/// # let hosts = vec![HostSpec::testbed_machine(HostId(0), "P0")];
/// # let vms = vec![VmSpec::testbed_flavor(VmId(0), "V0", VmTrace::idle("i", 24), WorkloadKind::Interactive)];
/// let cfg = DcConfig::paper_default();
/// let policy = PolicyRegistry::standard().build("drowsy-dc", &cfg, None).unwrap();
/// let mut dc = Datacenter::with_policy(cfg, policy, hosts, vms, vec![HostId(0)], 42);
/// let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
/// engine.run_hours(24);
/// drop(engine);
/// let outcome = dc.finish();
/// assert_eq!(outcome.hours, 24);
/// ```
pub struct DcEngine<'a> {
    dc: &'a mut Datacenter,
    queue: EventQueue<DcEvent>,
    /// The clock: the instant of the event being handled, and the
    /// horizon once [`run_hours`](Self::run_hours) returns.
    now: SimTime,
    cfg: EngineConfig,
    /// Token of the outstanding [`DcEvent::ScheduledWake`], cancelled and
    /// re-scheduled whenever the waking schedule changes.
    wake_token: Option<EventToken>,
    heartbeat_running: bool,
    admitted: u64,
    rejected: u64,
}

impl<'a> DcEngine<'a> {
    /// Wraps `dc` in an engine starting at the datacenter's current hour.
    pub fn new(dc: &'a mut Datacenter, cfg: EngineConfig) -> Self {
        DcEngine {
            queue: EventQueue::new(),
            now: SimTime::from_hours(dc.hour()),
            cfg,
            wake_token: None,
            heartbeat_running: false,
            admitted: 0,
            rejected: 0,
            dc,
        }
    }

    /// Read access to the driven datacenter.
    pub fn dc(&self) -> &Datacenter {
        self.dc
    }

    /// The engine's current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// VMs admitted / rejected through [`DcEvent::VmArrival`] so far.
    pub fn arrival_stats(&self) -> (u64, u64) {
        (self.admitted, self.rejected)
    }

    /// Schedules `event` at `at`, clamped to the engine's clock.
    fn schedule_at(&mut self, at: SimTime, event: DcEvent) -> EventToken {
        self.queue.schedule(at.max(self.now), event)
    }

    /// Schedules a VM arrival at `at` (sub-hour instants welcome). With a
    /// finite `lifetime`, the departure is scheduled automatically on
    /// admission.
    pub fn schedule_arrival(&mut self, at: SimTime, spec: VmSpec, lifetime: Option<SimDuration>) {
        self.schedule_at(
            at,
            DcEvent::VmArrival {
                spec: Box::new(spec),
                lifetime,
            },
        );
    }

    /// Schedules a VM departure at `at`.
    pub fn schedule_departure(&mut self, at: SimTime, vm: VmId) {
        self.schedule_at(at, DcEvent::VmDeparture(vm));
    }

    /// Schedules a silent waking-module failure at `at`.
    pub fn schedule_waking_failure(&mut self, at: SimTime) {
        self.schedule_at(at, DcEvent::WakingFailure);
    }

    /// Runs `hours` control periods (plus every sub-hour event falling in
    /// the window, the horizon included), leaving events beyond the
    /// horizon pending so the next call resumes seamlessly.
    pub fn run_hours(&mut self, hours: u64) {
        if hours == 0 {
            // The window includes its horizon, so scheduling the first
            // epoch and running to the same instant would simulate one
            // hour; zero hours must stay a no-op.
            return;
        }
        self.dc.engine = self.cfg;
        let start_hour = self.dc.hour();
        let end_hour = start_hour + hours;
        self.schedule_at(SimTime::from_hours(start_hour), DcEvent::ControlEpoch);
        if self.cfg == EngineConfig::HighFidelity {
            if !self.heartbeat_running {
                let period = self.dc.waking.heartbeat_timeout();
                self.schedule_at(self.now + period, DcEvent::Heartbeat);
                self.heartbeat_running = true;
            }
            self.resync_scheduled_wake();
        }
        let horizon = SimTime::from_hours(end_hour);
        while let Some(ev) = self.queue.pop_until(horizon) {
            self.now = ev.time;
            self.handle(ev.event, end_hour);
        }
        self.now = horizon;
    }

    /// Cancels the outstanding scheduled-wake event and re-schedules it at
    /// the waking cluster's next lead-adjusted firing time — the
    /// cancel/reschedule churn the stable event queue is built for. An
    /// already-due wake fires at the clock rather than in the past.
    fn resync_scheduled_wake(&mut self) {
        if let Some(token) = self.wake_token.take() {
            self.queue.cancel(token);
        }
        if let Some(at) = self.dc.next_scheduled_wake() {
            self.wake_token = Some(self.schedule_at(at, DcEvent::ScheduledWake));
        }
    }

    /// Handles one event at the engine's clock, in a window ending at
    /// `end_hour`.
    fn handle(&mut self, event: DcEvent, end_hour: u64) {
        let now = self.now;
        match event {
            DcEvent::ControlEpoch => {
                self.dc.step_hour();
                if self.dc.hour() < end_hour {
                    self.schedule_at(SimTime::from_hours(self.dc.hour()), DcEvent::ControlEpoch);
                }
                if self.cfg == EngineConfig::HighFidelity {
                    // Suspensions decided this epoch registered new waking
                    // dates; fired/packet-raced wakes removed old ones.
                    self.resync_scheduled_wake();
                }
            }
            DcEvent::VmArrival { spec, lifetime } => {
                let id = VmId(self.dc.vm_slot_count() as u32);
                match self.dc.admit_vm(*spec) {
                    Ok(_) => {
                        self.admitted += 1;
                        if let Some(lifetime) = lifetime {
                            self.schedule_at(now + lifetime, DcEvent::VmDeparture(id));
                        }
                    }
                    Err(AdmitError::NoHostFits) => self.rejected += 1,
                }
            }
            DcEvent::VmDeparture(id) => {
                self.dc.remove_vm(id);
            }
            DcEvent::ScheduledWake => {
                self.wake_token = None;
                self.dc.fire_scheduled_wakes(now);
                self.resync_scheduled_wake();
            }
            DcEvent::Heartbeat => {
                // Only high-fidelity runs schedule heartbeats.
                if self.dc.heartbeat_and_monitor(now) > 0 {
                    // A restored module's schedule (including overdue dates
                    // silenced while it was dead) must be re-armed.
                    self.resync_scheduled_wake();
                }
                let period = self.dc.waking.heartbeat_timeout();
                self.schedule_at(now + period, DcEvent::Heartbeat);
            }
            DcEvent::WakingFailure => {
                self.dc.fail_waking_module();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{HostSpec, VmSpec, WorkloadKind};
    use dds_traces::VmTrace;

    fn small_dc(traces: Vec<(VmTrace, WorkloadKind)>, seed: u64) -> Datacenter {
        let hosts = vec![
            HostSpec::testbed_machine(HostId(0), "P0"),
            HostSpec::testbed_machine(HostId(1), "P1"),
        ];
        let vms: Vec<VmSpec> = traces
            .into_iter()
            .enumerate()
            .map(|(i, (trace, kind))| {
                VmSpec::testbed_flavor(VmId(i as u32), format!("V{i}"), trace, kind)
            })
            .collect();
        let placement: Vec<HostId> = (0..vms.len()).map(|i| HostId((i % 2) as u32)).collect();
        let cfg = DcConfig::paper_default();
        let policy = crate::registry::PolicyRegistry::standard()
            .build("drowsy-dc", &cfg, None)
            .expect("registered policy");
        Datacenter::with_policy(cfg, policy, hosts, vms, placement, seed)
    }

    fn idle(hours: usize) -> (VmTrace, WorkloadKind) {
        (VmTrace::idle("idle", hours), WorkloadKind::Interactive)
    }

    #[test]
    fn legacy_engine_replays_the_tick_loop_bit_identically() {
        let mut ticked = small_dc(vec![idle(48), idle(48)], 7);
        for _ in 0..48 {
            ticked.step_hour();
        }
        let mut evented = small_dc(vec![idle(48), idle(48)], 7);
        DcEngine::new(&mut evented, EngineConfig::Legacy).run_hours(48);
        let a = ticked.finish();
        let b = evented.finish();
        assert_eq!(a.energy_kwh.to_bits(), b.energy_kwh.to_bits());
        assert_eq!(
            a.global_suspended_fraction.to_bits(),
            b.global_suspended_fraction.to_bits()
        );
        assert_eq!(a.hours, b.hours);
    }

    #[test]
    fn zero_hours_is_a_no_op() {
        // A run's window includes its horizon; run(0)/run_hours(0) must
        // not sneak in one simulated hour.
        let mut dc = small_dc(vec![idle(24)], 2);
        dc.run(0);
        assert_eq!(dc.hour(), 0);
        DcEngine::new(&mut dc, EngineConfig::HighFidelity).run_hours(0);
        assert_eq!(dc.hour(), 0);
        let out = dc.finish();
        assert_eq!(out.hours, 0);
        assert_eq!(out.energy_kwh, 0.0);
    }

    #[test]
    fn run_hours_can_be_sliced() {
        let mut whole = small_dc(vec![idle(24), idle(24)], 3);
        whole.run(24);
        let whole = whole.finish();
        let mut sliced = small_dc(vec![idle(24), idle(24)], 3);
        let mut engine = DcEngine::new(&mut sliced, EngineConfig::Legacy);
        engine.run_hours(10);
        engine.run_hours(14);
        assert_eq!(engine.now(), SimTime::from_hours(24));
        drop(engine);
        let sliced = sliced.finish();
        assert_eq!(whole.energy_kwh.to_bits(), sliced.energy_kwh.to_bits());
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        // An arrival scheduled in the past is admitted at the engine's
        // clock, so its lifetime runs from there: a 2 h job requested for
        // hour 3 after a 10 h run lives from hour 10 to hour 12.
        let mut dc = small_dc(vec![idle(24)], 4);
        let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
        engine.run_hours(10);
        let spec = VmSpec::testbed_flavor(
            VmId(0),
            "late",
            VmTrace::new("burst", vec![1.0; 24]),
            WorkloadKind::Batch,
        );
        engine.schedule_arrival(
            SimTime::from_hours(3),
            spec,
            Some(SimDuration::from_hours(2)),
        );
        engine.run_hours(1);
        assert_eq!(engine.arrival_stats(), (1, 0), "admitted and counted");
        assert_eq!(engine.now(), SimTime::from_hours(11));
        assert_eq!(engine.dc().live_vm_count(), 2, "alive past hour 5");
        engine.run_hours(1);
        assert_eq!(engine.dc().live_vm_count(), 1, "departed at hour 12");
    }

    #[test]
    fn mid_hour_arrival_and_departure_events_apply() {
        let mut dc = small_dc(vec![idle(72)], 5);
        let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
        let spec = VmSpec::testbed_flavor(
            VmId(0),
            "job",
            VmTrace::new("burst", vec![1.0; 12]),
            WorkloadKind::Batch,
        );
        // Arrives 10 h 17 min in, lives ~5 h.
        let at = SimTime::from_hours(10) + SimDuration::from_minutes(17);
        engine.schedule_arrival(at, spec, Some(SimDuration::from_hours(5)));
        engine.run_hours(12);
        assert_eq!(engine.arrival_stats(), (1, 0));
        assert_eq!(engine.dc().live_vm_count(), 2, "job admitted and alive");
        engine.run_hours(12);
        assert_eq!(engine.dc().live_vm_count(), 1, "job departed on schedule");
        drop(engine);
        let out = dc.finish();
        assert_eq!(out.hours, 24);
        assert!(out.energy_kwh > 0.0);
    }

    #[test]
    fn rejected_arrivals_are_counted() {
        // Both 2-slot hosts full: a fifth VM cannot be placed.
        let busy = (
            VmTrace::new("busy", vec![0.5; 24]),
            WorkloadKind::Interactive,
        );
        let mut dc = small_dc(vec![busy.clone(), busy.clone(), busy.clone(), busy], 1);
        let mut engine = DcEngine::new(&mut dc, EngineConfig::Legacy);
        let spec = VmSpec::testbed_flavor(
            VmId(0),
            "overflow",
            VmTrace::idle("x", 24),
            WorkloadKind::Interactive,
        );
        engine.schedule_arrival(SimTime::from_hours(2), spec, None);
        engine.run_hours(6);
        assert_eq!(engine.arrival_stats(), (0, 1));
    }
}
