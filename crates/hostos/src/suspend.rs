//! The suspending module (§IV of the paper).
//!
//! Monitors its host's idleness and takes the decision of suspending it.
//! The decision pipeline, in order:
//!
//! 1. **grace time** — after every resume the host is unsuspendable for a
//!    while "whatever its activity level", to prevent suspend/resume
//!    oscillation. The grace time grows exponentially from 5 s (host very
//!    likely idle, IP → 1) to 2 min (host likely active, IP → 0).
//! 2. **idleness check** — no non-blacklisted process may want the CPU,
//!    and no non-blacklisted process may be blocked on I/O (the disk-read
//!    false positive).
//! 3. **waking date** — the earliest valid hrtimer, communicated to the
//!    waking module so the host can be woken *ahead of* scheduled work.

use crate::process::{Blacklist, Pid, ProcessTable};
use crate::timer::TimerWheel;
use dds_sim_core::{SimDuration, SimTime};

/// Configuration of the suspending module.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspendConfig {
    /// Grace time when the host is confidently idle (paper: 5 s).
    pub grace_min: SimDuration,
    /// Grace time when the host is confidently active (paper: 2 min).
    pub grace_max: SimDuration,
    /// Ablation switch: disable the grace mechanism entirely.
    pub grace_enabled: bool,
}

impl SuspendConfig {
    /// The paper's configuration: grace ∈ [5 s, 2 min].
    pub fn paper_default() -> Self {
        SuspendConfig {
            grace_min: SimDuration::from_secs(5),
            grace_max: SimDuration::from_minutes(2),
            grace_enabled: true,
        }
    }

    /// Paper configuration with grace disabled (for the Fig. 3 oscillation
    /// ablation).
    pub fn without_grace() -> Self {
        SuspendConfig {
            grace_enabled: false,
            ..Self::paper_default()
        }
    }
}

impl Default for SuspendConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Result of the host idleness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdlenessCheck {
    /// Non-blacklisted processes wanting CPU.
    pub active: Vec<Pid>,
    /// Non-blacklisted processes blocked on I/O.
    pub io_blocked: Vec<Pid>,
}

/// Why the suspending module kept the host awake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StayAwakeReason {
    /// Non-blacklisted processes want CPU.
    ActiveProcesses(usize),
    /// Processes are blocked on I/O (false-positive guard).
    IoBlocked(usize),
    /// The post-resume grace period is still running.
    GraceActive {
        /// When the grace period ends.
        until: SimTime,
    },
}

/// Outcome of a suspend evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Suspend now. `waking_date` is the earliest valid timer expiry to
    /// hand to the waking module (`None`: sleep until an external request).
    Suspend {
        /// Scheduled waking date derived from the hrtimer walk.
        waking_date: Option<SimTime>,
    },
    /// Keep the host awake.
    StayAwake(StayAwakeReason),
}

impl Decision {
    /// True for the `Suspend` variant.
    pub fn is_suspend(&self) -> bool {
        matches!(self, Decision::Suspend { .. })
    }

    /// For event-driven callers: the earliest instant at which
    /// re-evaluating this decision can change the outcome. `Some(t)` when
    /// the host was kept awake by a *timed* condition (the grace period —
    /// retry once it expires); `None` when the decision either suspended
    /// the host or depends on process state, which only changes through
    /// external events (activity, I/O completion), not the passage of time.
    pub fn retry_at(&self) -> Option<SimTime> {
        match self {
            Decision::StayAwake(StayAwakeReason::GraceActive { until }) => Some(*until),
            _ => None,
        }
    }
}

/// The per-host suspending module.
#[derive(Debug, Clone)]
pub struct SuspendModule {
    config: SuspendConfig,
    grace_until: Option<SimTime>,
    suspends_decided: u64,
}

impl SuspendModule {
    /// Creates a module with the given configuration.
    pub fn new(config: SuspendConfig) -> Self {
        SuspendModule {
            config,
            grace_until: None,
            suspends_decided: 0,
        }
    }

    /// Creates a module with the paper's configuration.
    pub fn with_defaults() -> Self {
        Self::new(SuspendConfig::paper_default())
    }

    /// The module's configuration.
    pub fn config(&self) -> &SuspendConfig {
        &self.config
    }

    /// Number of suspend decisions taken so far.
    pub fn suspends_decided(&self) -> u64 {
        self.suspends_decided
    }

    /// The grace time for a host idleness probability `ip ∈ [0, 1]`:
    /// exponential interpolation `g(ip) = g_min · (g_max/g_min)^(1−ip)`,
    /// i.e. 5 s at IP = 1 and 2 min at IP = 0 — "exponentially increasing
    /// as the IP decreases in order to be conservative with the quality of
    /// service of undetermined and active VMs".
    pub fn grace_time(&self, ip: f64) -> SimDuration {
        if !self.config.grace_enabled {
            return SimDuration::ZERO;
        }
        let ip = ip.clamp(0.0, 1.0);
        let gmin = self.config.grace_min.as_secs_f64().max(1e-3);
        let gmax = self.config.grace_max.as_secs_f64().max(gmin);
        let secs = gmin * (gmax / gmin).powf(1.0 - ip);
        SimDuration::from_secs_f64(secs)
    }

    /// Notifies the module that its host just resumed; starts the grace
    /// period computed from the host's current idleness probability.
    pub fn on_resume(&mut self, now: SimTime, host_ip: f64) {
        if self.config.grace_enabled {
            self.grace_until = Some(now + self.grace_time(host_ip));
        }
    }

    /// When the current grace period ends, if one is running.
    pub fn grace_deadline(&self) -> Option<SimTime> {
        self.grace_until
    }

    /// Runs the §IV idleness check against the process table.
    pub fn check_idleness(&self, table: &ProcessTable, blacklist: &Blacklist) -> IdlenessCheck {
        IdlenessCheck {
            active: table
                .active_non_blacklisted(blacklist)
                .map(|p| p.pid)
                .collect(),
            io_blocked: table.blocked_on_io(blacklist).map(|p| p.pid).collect(),
        }
    }

    /// Full suspend evaluation at instant `now`.
    pub fn decide(
        &mut self,
        now: SimTime,
        table: &ProcessTable,
        blacklist: &Blacklist,
        timers: &TimerWheel,
    ) -> Decision {
        if let Some(until) = self.grace_until {
            if now < until {
                return Decision::StayAwake(StayAwakeReason::GraceActive { until });
            }
            self.grace_until = None;
        }
        let check = self.check_idleness(table, blacklist);
        if !check.active.is_empty() {
            return Decision::StayAwake(StayAwakeReason::ActiveProcesses(check.active.len()));
        }
        if !check.io_blocked.is_empty() {
            return Decision::StayAwake(StayAwakeReason::IoBlocked(check.io_blocked.len()));
        }
        let waking_date = timers
            .earliest_valid(table, blacklist)
            .map(|e| e.expires)
            // A timer already due means imminent work: schedule the wake
            // for "now" rather than the past.
            .map(|d| d.max(now));
        self.suspends_decided += 1;
        Decision::Suspend { waking_date }
    }
}

impl Default for SuspendModule {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcState;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn idle_host() -> (ProcessTable, Blacklist, TimerWheel) {
        let mut table = ProcessTable::new();
        table.spawn("qemu-v0", ProcState::Sleeping { wake: None });
        table.spawn("monitord", ProcState::Running); // blacklisted noise
        (table, Blacklist::standard(), TimerWheel::new())
    }

    #[test]
    fn grace_time_endpoints_match_paper() {
        let m = SuspendModule::with_defaults();
        assert_eq!(m.grace_time(1.0), SimDuration::from_secs(5));
        assert_eq!(m.grace_time(0.0), SimDuration::from_minutes(2));
    }

    #[test]
    fn grace_time_monotone_decreasing_in_ip() {
        let m = SuspendModule::with_defaults();
        let mut last = SimDuration::from_days(1);
        for step in 0..=10 {
            let ip = step as f64 / 10.0;
            let g = m.grace_time(ip);
            assert!(g <= last, "grace must shrink as IP grows");
            assert!(g >= m.config().grace_min);
            assert!(g <= m.config().grace_max);
            last = g;
        }
    }

    #[test]
    fn grace_disabled_is_zero() {
        let m = SuspendModule::new(SuspendConfig::without_grace());
        assert_eq!(m.grace_time(0.0), SimDuration::ZERO);
        assert_eq!(m.grace_time(1.0), SimDuration::ZERO);
    }

    #[test]
    fn idle_host_suspends_with_no_timer() {
        let (table, bl, timers) = idle_host();
        let mut m = SuspendModule::with_defaults();
        let d = m.decide(t(100), &table, &bl, &timers);
        assert_eq!(d, Decision::Suspend { waking_date: None });
        assert_eq!(m.suspends_decided(), 1);
    }

    #[test]
    fn active_process_blocks_suspend() {
        let (mut table, bl, timers) = idle_host();
        table.spawn("qemu-v1", ProcState::Runnable);
        let mut m = SuspendModule::with_defaults();
        match m.decide(t(0), &table, &bl, &timers) {
            Decision::StayAwake(StayAwakeReason::ActiveProcesses(n)) => assert_eq!(n, 1),
            other => panic!("unexpected decision {other:?}"),
        }
    }

    #[test]
    fn io_blocked_process_blocks_suspend() {
        let (mut table, bl, timers) = idle_host();
        table.spawn("qemu-v1", ProcState::BlockedIo);
        let mut m = SuspendModule::with_defaults();
        match m.decide(t(0), &table, &bl, &timers) {
            Decision::StayAwake(StayAwakeReason::IoBlocked(n)) => assert_eq!(n, 1),
            other => panic!("unexpected decision {other:?}"),
        }
    }

    #[test]
    fn waking_date_comes_from_filtered_timer_walk() {
        let (table, bl, mut timers) = idle_host();
        let vm_pid = table.processes()[0].pid;
        let wd_pid = table.processes()[1].pid; // monitord, blacklisted
        timers.register(t(50), wd_pid, "monitor-tick");
        timers.register(t(500), vm_pid, "vm-backup-cron");
        let mut m = SuspendModule::with_defaults();
        let d = m.decide(t(10), &table, &bl, &timers);
        assert_eq!(
            d,
            Decision::Suspend {
                waking_date: Some(t(500))
            }
        );
    }

    #[test]
    fn overdue_timer_clamps_waking_date_to_now() {
        let (table, bl, mut timers) = idle_host();
        let vm_pid = table.processes()[0].pid;
        timers.register(t(5), vm_pid, "past-due");
        let mut m = SuspendModule::with_defaults();
        let d = m.decide(t(100), &table, &bl, &timers);
        assert_eq!(
            d,
            Decision::Suspend {
                waking_date: Some(t(100))
            }
        );
    }

    #[test]
    fn retry_at_reflects_timed_conditions_only() {
        let (mut table, bl, timers) = idle_host();
        let mut m = SuspendModule::with_defaults();
        m.on_resume(t(1000), 0.0); // 2 min grace
        let graced = m.decide(t(1010), &table, &bl, &timers);
        assert_eq!(
            graced.retry_at(),
            Some(t(1000) + SimDuration::from_minutes(2)),
            "grace is a timed condition: retry at its deadline"
        );
        let suspended = m.decide(t(2000), &table, &bl, &timers);
        assert_eq!(suspended.retry_at(), None, "suspend needs no retry");
        table.spawn("qemu-busy", ProcState::Runnable);
        let busy = m.decide(t(3000), &table, &bl, &timers);
        assert_eq!(
            busy.retry_at(),
            None,
            "process state is event-, not time-driven"
        );
    }

    #[test]
    fn grace_period_blocks_then_expires() {
        let (table, bl, timers) = idle_host();
        let mut m = SuspendModule::with_defaults();
        m.on_resume(t(1000), 0.0); // IP 0 → 2 min grace
        match m.decide(t(1010), &table, &bl, &timers) {
            Decision::StayAwake(StayAwakeReason::GraceActive { until }) => {
                assert_eq!(until, t(1000) + SimDuration::from_minutes(2));
            }
            other => panic!("unexpected decision {other:?}"),
        }
        // After the grace deadline the host may sleep.
        let d = m.decide(t(1000 + 121), &table, &bl, &timers);
        assert!(d.is_suspend());
        assert_eq!(m.grace_deadline(), None, "grace consumed");
    }

    #[test]
    fn high_ip_short_grace() {
        let (table, bl, timers) = idle_host();
        let mut m = SuspendModule::with_defaults();
        m.on_resume(t(0), 1.0); // confident idle → 5 s grace
        assert!(!m.decide(t(3), &table, &bl, &timers).is_suspend());
        assert!(m.decide(t(6), &table, &bl, &timers).is_suspend());
    }

    #[test]
    fn oscillation_prevention_scenario() {
        // A host pinged by short activity every 60 s. With grace at IP=0
        // (2 min) the module never suspends between pings; without grace
        // it suspends after every ping — the oscillation the paper's
        // mechanism exists to avoid (evaluated at scale in Fig. 3).
        let bl = Blacklist::standard();
        let timers = TimerWheel::new();
        let run = |mut module: SuspendModule| -> u64 {
            let mut table = ProcessTable::new();
            let pid = table.spawn("qemu-v0", ProcState::Sleeping { wake: None });
            let mut suspends = 0;
            for cycle in 0..10u64 {
                let base = cycle * 60;
                // Ping: 2 s of activity; the host must resume for it.
                table.set_state(pid, ProcState::Running);
                assert!(!module.decide(t(base), &table, &bl, &timers).is_suspend());
                table.set_state(pid, ProcState::Sleeping { wake: None });
                module.on_resume(t(base + 2), 0.0); // resumed for the ping
                                                    // Idle checks every 10 s until the next ping.
                for check in 1..6u64 {
                    if module
                        .decide(t(base + 2 + check * 10), &table, &bl, &timers)
                        .is_suspend()
                    {
                        suspends += 1;
                        break;
                    }
                }
            }
            suspends
        };
        let with_grace = run(SuspendModule::with_defaults());
        let without_grace = run(SuspendModule::new(SuspendConfig::without_grace()));
        assert_eq!(with_grace, 0, "grace absorbs 60 s ping cycles");
        assert_eq!(without_grace, 10, "no grace → suspend every cycle");
    }

    proptest! {
        #[test]
        fn grace_time_bounded(ip in -1.0f64..2.0) {
            let m = SuspendModule::with_defaults();
            let g = m.grace_time(ip);
            prop_assert!(g >= m.config().grace_min);
            prop_assert!(g <= m.config().grace_max);
        }
    }
}
