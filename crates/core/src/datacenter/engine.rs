//! The event-driven datacenter engine.
//!
//! [`DcEngine`] puts the datacenter on `dds_sim_core`'s discrete-event
//! substrate: hourly control epochs, VM arrivals/departures, scheduled
//! S3/S5 wake firings and waking-module failures are events popped from
//! an [`EventQueue`] in time order (same-instant events fire in
//! scheduling order — the queue's FIFO tie-break), instead of everything
//! being folded into a fixed one-hour tick.
//!
//! ## Two fidelity regimes
//!
//! * **Legacy** ([`EngineConfig::Legacy`], the default and what
//!   [`Datacenter::run`] uses): the only recurring event is the control
//!   epoch, fired on each hour boundary, with scheduled wakes polled at
//!   those boundaries — the golden policy-equivalence suite pins this
//!   mode bit-identically (`f64::to_bits`) for the paper's four policies.
//! * **High-fidelity** ([`EngineConfig::HighFidelity`]): opt-in sub-hour
//!   dynamics. Scheduled waking dates fire as events at their true
//!   lead-adjusted instants (`date − WAKE_LEAD`), so a parked host is
//!   operational *at* its waking date instead of starting its resume at
//!   the next hour boundary; and parked-host energy integrates over
//!   variable-length intervals (suspend instant → wake instant) rather
//!   than per-hour buckets.
//!
//! Under both, a waking-module failure is noticed by the heartbeat round
//! that follows it: the first multiple of
//! [`WakingCluster::heartbeat_timeout`] (5 s) at or after the failure.
//! Nothing else beats, since no other round can find a dead module.
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
use dds_sim_core::EventQueue;

/// An event driving the datacenter simulation, queued only through
/// [`DcEngine`]'s `schedule_*` methods and its own handlers.
#[derive(Debug, Clone)]
enum DcEvent {
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
    /// resume the host at its true latency. High-fidelity mode only; a
    /// wake that fires at any instant but the engine's `armed` one was
    /// superseded and does nothing.
    ScheduledWake,
    /// The heartbeat round after a failure: alive waking modules beat,
    /// and the monitor replaces dead ones from their mirrors.
    Heartbeat,
    /// Fault injection: the rack's waking module dies silently; the next
    /// heartbeat round discovers and replaces it.
    WakingFailure,
}

/// Fidelity of a [`DcEngine`] (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineConfig {
    /// Control epochs only: scheduled wakes are polled at control-period
    /// boundaries, and parked hosts are metered per hour.
    #[default]
    Legacy,
    /// Full sub-hour fidelity: scheduled waking dates fire as events at
    /// their true lead-adjusted instants, and parked-host energy
    /// integrates over variable-length intervals.
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
    /// Instant of the live [`DcEvent::ScheduledWake`]: the waking
    /// cluster's next firing time, clamped to the clock, as of the last
    /// re-sync. Wakes queued for other instants are stale.
    armed: Option<SimTime>,
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
            armed: None,
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

    /// VMs admitted / rejected through scheduled arrivals so far.
    pub fn arrival_stats(&self) -> (u64, u64) {
        (self.admitted, self.rejected)
    }

    /// Schedules `event` at `at`, clamped to the engine's clock.
    fn schedule_at(&mut self, at: SimTime, event: DcEvent) {
        self.queue.schedule(at.max(self.now), event);
    }

    /// Schedules a VM arrival at `at`. The arrival is handled at `at`,
    /// but [`Datacenter::admit_vm`] places the VM at the next hour
    /// boundary, where it first runs. With a finite `lifetime`, the
    /// departure is scheduled on admission, `lifetime` after `at`.
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

    /// Schedules a silent waking-module failure at `at`. The heartbeat
    /// round at the first multiple of
    /// [`WakingCluster::heartbeat_timeout`] at or after it replaces the
    /// module from its mirror, under either fidelity.
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
            self.resync_scheduled_wake();
        }
        let horizon = SimTime::from_hours(end_hour);
        while let Some(ev) = self.queue.pop_until(horizon) {
            self.now = ev.time;
            self.handle(ev.event, end_hour);
        }
        self.now = horizon;
    }

    /// Arms a [`DcEvent::ScheduledWake`] at the waking cluster's next
    /// lead-adjusted firing time, clamped to the clock so an overdue wake
    /// fires now, unless one is already armed there. A wake armed earlier
    /// for another instant stays queued but is superseded.
    fn resync_scheduled_wake(&mut self) {
        let next = self.dc.waking.next_fire_time().map(|at| at.max(self.now));
        if next != self.armed {
            if let Some(at) = next {
                self.queue.schedule(at, DcEvent::ScheduledWake);
            }
            self.armed = next;
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
                if self.armed == Some(now) {
                    self.armed = None;
                    self.dc.fire_scheduled_wakes(now);
                    self.resync_scheduled_wake();
                }
            }
            DcEvent::Heartbeat => {
                self.dc.waking.heartbeat_all(now);
                let restored = !self.dc.waking.monitor(now).is_empty();
                if restored && self.cfg == EngineConfig::HighFidelity {
                    // A restored module's schedule (including overdue dates
                    // silenced while it was dead) must be re-armed.
                    self.resync_scheduled_wake();
                }
            }
            DcEvent::WakingFailure => {
                self.dc.waking.inject_failure(RACK);
                let period = self.dc.waking.heartbeat_timeout().as_millis();
                let round = now.as_millis().div_ceil(period) * period;
                self.queue
                    .schedule(SimTime::from_millis(round), DcEvent::Heartbeat);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{HostSpec, VmSpec, WorkloadKind};
    use dds_traces::{TracePattern, VmTrace};

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

    #[test]
    fn a_failure_free_run_leaves_nothing_queued() {
        // Idle VMs park their hosts with no waking date: no wake is armed,
        // and no heartbeat round runs without a failure.
        let mut dc = small_dc(vec![idle(24), idle(24)], 6);
        let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
        engine.run_hours(24);
        assert_eq!(engine.queue.len(), 0);
    }

    #[test]
    fn legacy_failures_fail_over_at_the_next_round() {
        let mut dc = small_dc(vec![idle(24)], 6);
        let mut engine = DcEngine::new(&mut dc, EngineConfig::Legacy);
        engine.schedule_waking_failure(SimTime::from_hours(3) + SimDuration::from_millis(2_300));
        engine.run_hours(6);
        assert_eq!(engine.dc().waking_failovers(), 1);
        assert!(engine.dc().waking.is_alive(RACK));
    }

    #[test]
    fn superseded_wakes_do_not_pile_up() {
        // Hour-long slices re-sync the wake at every slice start and every
        // epoch. A wake whose instant did not move is not queued again,
        // and a superseded one is dropped once its instant passes.
        let backups = [1u8, 5, 9, 13].map(|hour| {
            let trace = TracePattern::DailyBackup {
                hour,
                duration_hours: 1,
                intensity: 0.9,
            }
            .generate(240, &mut SimRng::new(u64::from(hour)));
            (trace, WorkloadKind::TimerDriven)
        });
        let mut dc = small_dc(backups.to_vec(), 9);
        let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
        let mut peak = 0;
        for _ in 0..240 {
            engine.run_hours(1);
            peak = peak.max(engine.queue.len());
        }
        assert!(peak <= 4, "{peak} events queued");
        drop(engine);
        assert!(dc
            .wake_log()
            .iter()
            .any(|w| w.cause == WakeCause::Scheduled));
    }

    #[test]
    fn a_restored_waking_module_rearms_its_overdue_dates() {
        // The host parks in hour 0 with a 2:00 waking date (its timer VM
        // runs in hour 2) and loses that VM at 1:30. The module dies at
        // 1:59:55.5 and misses the 1:59:58.5 wake; the hour-2 epoch polls
        // a dead module. Only the failover round at 2:00 re-arms the
        // overdue date: without it, no wake fires at all.
        let mut levels = vec![0.0; 24];
        levels[2] = 1.0;
        let vm = VmSpec::testbed_flavor(
            VmId(0),
            "timer",
            VmTrace::new("hour-2", levels),
            WorkloadKind::TimerDriven,
        );
        let cfg = DcConfig::paper_default();
        let policy = crate::registry::PolicyRegistry::standard()
            .build("neat-s3", &cfg, None)
            .expect("registered policy");
        let host = HostSpec::testbed_machine(HostId(0), "P0");
        let mut dc = Datacenter::with_policy(cfg, policy, vec![host], vec![vm], vec![HostId(0)], 1);
        let mut engine = DcEngine::new(&mut dc, EngineConfig::HighFidelity);
        let one = SimTime::from_hours(1);
        engine.schedule_departure(one + SimDuration::from_minutes(30), VmId(0));
        engine.schedule_waking_failure(
            one + SimDuration::from_minutes(59) + SimDuration::from_millis(55_500),
        );
        engine.run_hours(3);
        drop(engine);
        assert_eq!(dc.waking_failovers(), 1);
        let wakes: Vec<_> = dc.wake_log().iter().map(|w| (w.cause, w.started)).collect();
        assert_eq!(wakes, [(WakeCause::Scheduled, SimTime::from_hours(2))]);
    }
}
