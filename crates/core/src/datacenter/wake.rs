//! The suspend/wake path: per-host hour simulation, resume handling and
//! management wakes.

use super::telemetry::DcMetrics;
use super::*;
use dds_traces::{hour_arrivals, hour_request_rng};

/// Delay before the suspending module notices a fully idle host: its
/// periodic check interval (DESIGN §3 item 1). The earliest a host can
/// begin to suspend is this far into an idle hour.
const IDLE_DETECT_DELAY: SimDuration = SimDuration::from_secs(30);

impl Datacenter {
    pub(super) fn mac(&self, host: HostId) -> HostMac {
        HostMac::of(host)
    }

    /// Peak request rate of an interactive VM: the streamed QoS
    /// profile's, else [`DcConfig::request_peak_rps`].
    fn request_peak_rps(&self) -> f64 {
        self.cfg
            .qos_stream
            .as_ref()
            .map_or(self.cfg.request_peak_rps, |q| q.profile.peak_rps)
    }

    /// VM index `vm`'s first request of the current hour at activity
    /// `level`, if one arrives within the hour: the head of the stream
    /// the QoS pipeline serves in full.
    fn first_request(&self, vm: usize, level: f64) -> Option<SimTime> {
        let mut rng = hour_request_rng(self.seed, vm as u64, self.hour);
        let mut arrivals = hour_arrivals(&mut rng, self.hour, self.request_peak_rps() * level);
        arrivals.next()
    }

    /// Wakes a host for a management operation at `now` (no-op if awake).
    /// Returns the instant the host is operational.
    pub(super) fn wake_for_management(&mut self, host: HostId, now: SimTime) -> SimTime {
        let state = self.hosts[host.index()].power.state();
        match state {
            PowerState::Active => now.max(self.hosts[host.index()].meter.cursor()),
            PowerState::Suspended | PowerState::Off => {
                self.resume_host(host, now, WakeCause::Management)
            }
            _ => now,
        }
    }

    /// Resumes a host parked in S3 or S5 starting at `at`; returns
    /// completion. S5 always pays the stock (slow) resume path — the
    /// quick-resume work targets suspend-to-RAM.
    pub(super) fn resume_host(&mut self, host: HostId, at: SimTime, cause: WakeCause) -> SimTime {
        let from_off = self.hosts[host.index()].power.state() == PowerState::Off;
        let timings = self.hosts[host.index()].meter.model().timings;
        let latency = if from_off {
            timings.resume_normal
        } else {
            timings.resume_latency(self.cfg.wake_speed)
        };
        let ip_prob = self.host_ip_probability(host);
        let mac = self.mac(host);
        let h = &mut self.hosts[host.index()];
        let at = at.max(h.meter.cursor());
        h.meter.advance(at, h.power.state(), 0.0);
        let done = h
            .power
            .begin_resume(at, latency)
            .expect("resume_host invariant: only parked (S3/S5) hosts are resumed");
        h.meter.advance(done, PowerState::Resuming, 0.0);
        h.power
            .complete_transition(done)
            .expect("resume_host invariant: a begun resume always completes at its deadline");
        h.suspend.on_resume(done, ip_prob);
        self.waking.on_host_resumed(RACK, mac);
        self.wake_log.push(WakeRecord {
            host,
            started: at,
            operational: done,
            from_off,
            epoch: self.hour,
            cause,
        });
        let dcm = DcMetrics::get();
        match cause {
            WakeCause::Traffic => dcm.traffic_wakes.inc(),
            WakeCause::Timer => dcm.timer_wakes.inc(),
            WakeCause::Scheduled => dcm.scheduled_wakes.inc(),
            WakeCause::Management => dcm.management_wakes.inc(),
        }
        dcm.wake_resume_ms
            .record(done.saturating_since(at).as_millis());
        done
    }

    /// Event-engine path: fires every scheduled wake due at `now` (the
    /// waking modules' lead-adjusted schedules) and resumes the commanded
    /// hosts immediately — at their true latency, instead of waiting for
    /// the next control-period poll. Returns the number of hosts resumed.
    pub(super) fn fire_scheduled_wakes(&mut self, now: SimTime) -> usize {
        let commands = self.waking.poll_schedules(now);
        let mut resumed = 0;
        for cmd in commands {
            let host = cmd.mac.host();
            if self.hosts[host.index()].power.state().is_low_power() {
                self.resume_host(host, now, WakeCause::Scheduled);
                resumed += 1;
            }
        }
        resumed
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn simulate_host_hour(
        &mut self,
        hid: HostId,
        levels: &[f64],
        noise: f64,
        hour_start: SimTime,
        hour_end: SimTime,
        anticipated: &HashSet<HostId>,
    ) {
        let resident: Vec<usize> = self.active_residents(hid).collect();
        let active = resident.iter().any(|&i| levels[i] >= noise);
        let demand: f64 = resident
            .iter()
            .map(|&i| levels[i] * self.vms[i].spec.vcpus)
            .sum();
        let util = demand / self.hosts[hid.index()].spec.cpu_cores.max(1e-9);
        // Speed scaling: the policy picks the hour's clock. Dynamic power
        // scales with f² (voltage tracks frequency); f = 1 leaves the
        // legacy arithmetic untouched. Request service does not stretch
        // by 1/f (DESIGN §3).
        let freq = self.policy.active_frequency(hid, util).clamp(1e-3, 1.0);
        let metered_util = if freq < 1.0 { util * freq * freq } else { util };
        let state = self.hosts[hid.index()].power.state();

        if active {
            if state.is_low_power() {
                // Wake path: anticipated (timer) wakes complete at the
                // hour start; traffic wakes start at the hour's first
                // request.
                let anticipated_wake = anticipated.contains(&hid)
                    || resident.iter().any(|&i| {
                        self.vms[i].spec.kind == WorkloadKind::TimerDriven && levels[i] >= noise
                    });
                let mut interactive = resident
                    .iter()
                    .filter(|&&i| {
                        self.vms[i].spec.kind == WorkloadKind::Interactive && levels[i] >= noise
                    })
                    .peekable();
                let wake_at = if anticipated_wake || interactive.peek().is_none() {
                    hour_start
                } else {
                    // The earliest first request among the active
                    // interactive residents wakes the host (§V: the switch
                    // holds it while the waking module sends the WoL), so
                    // no request reaches the host before its resume began.
                    // The wake is clamped so the resume (1.5 s from S5,
                    // configured speed from S3) completes within the hour,
                    // which also covers an hour whose first gap overruns it.
                    let first = interactive
                        .filter_map(|&i| self.first_request(i, levels[i]))
                        .min()
                        .unwrap_or(hour_end);
                    let timings = self.hosts[hid.index()].meter.model().timings;
                    let resume = if state == PowerState::Off {
                        timings.resume_normal
                    } else {
                        timings.resume_latency(self.cfg.wake_speed)
                    };
                    let headroom = resume.max(SimDuration::from_secs(1));
                    first.min(hour_end - headroom)
                };
                let cause = if anticipated_wake {
                    WakeCause::Timer
                } else {
                    WakeCause::Traffic
                };
                let done = self.resume_host(hid, wake_at, cause);
                debug_assert!(done <= hour_end);
            }
            let h = &mut self.hosts[hid.index()];
            h.meter.advance(hour_end, PowerState::Active, metered_util);
        } else {
            // Fully idle hour.
            if state.is_low_power() {
                // Event mode defers this advance: a scheduled wake may
                // fire mid-hour, and the parked span must then integrate
                // over its true variable-length interval.
                if self.engine == EngineConfig::Legacy {
                    let h = &mut self.hosts[hid.index()];
                    h.meter.advance(hour_end, state, 0.0);
                }
                return;
            }
            if self.hosts[hid.index()].always_on {
                let h = &mut self.hosts[hid.index()];
                h.meter.advance(hour_end, PowerState::Active, metered_util);
                return;
            }
            // Policy veto (ControlPolicy::allow_suspend): a host currently
            // absorbing wake-induced SLA violations is held powered this
            // hour — the closed-loop consumer of the streaming QoS signal.
            if !self.policy.allow_suspend(hid) {
                DcMetrics::get().suspend_vetoes.inc();
                let h = &mut self.hosts[hid.index()];
                h.meter.advance(hour_end, PowerState::Active, metered_util);
                return;
            }
            // Candidate suspend instant: idle detection + management pin.
            let mut t = (hour_start + IDLE_DETECT_DELAY)
                .max(self.hosts[hid.index()].forced_awake_until)
                .max(self.hosts[hid.index()].meter.cursor());
            let suspend_latency = self.hosts[hid.index()]
                .meter
                .model()
                .timings
                .suspend_latency;
            let ip_prob = self.host_ip_probability(hid);
            loop {
                if t + suspend_latency >= hour_end {
                    // Not enough idle time left: stay awake.
                    let h = &mut self.hosts[hid.index()];
                    h.meter.advance(hour_end, PowerState::Active, metered_util);
                    return;
                }
                let host = &mut self.hosts[hid.index()];
                let decision = host
                    .suspend
                    .decide(t, &host.procs, &self.blacklist, &host.timers);
                match decision {
                    Decision::Suspend { waking_date } => {
                        // Sleep-state selection: the policy may deepen the
                        // default S3 to S5 for long predicted idle periods.
                        let depth = self.policy.idle_sleep_depth(hid, ip_prob, waking_date, t);
                        host.meter.advance(t, PowerState::Active, metered_util);
                        let defer = self.engine == EngineConfig::HighFidelity;
                        match depth {
                            SleepDepth::Suspend => {
                                let done = host.power.begin_suspend(t, suspend_latency).expect(
                                    "suspend invariant: the host was Active when decide() passed",
                                );
                                host.meter.advance(done, PowerState::Suspending, 0.0);
                                host.power.complete_transition(done).expect(
                                    "suspend invariant: a begun suspend completes at its deadline",
                                );
                                if !defer {
                                    host.meter.advance(hour_end, PowerState::Suspended, 0.0);
                                }
                            }
                            SleepDepth::Off => {
                                // S5 soft-off: instantaneous at this model's
                                // granularity; the NIC stays up for WoL.
                                host.power.power_off(t).expect(
                                    "suspend invariant: the host was Active when decide() passed",
                                );
                                if !defer {
                                    host.meter.advance(hour_end, PowerState::Off, 0.0);
                                }
                            }
                        }
                        host.meter.record_suspend_cycle();
                        DcMetrics::get().suspends.inc();
                        // Register with the waking module.
                        let vms: Vec<(VmIp, VmId)> = self
                            .active_residents(hid)
                            .map(|i| (VmIp::of(self.vms[i].spec.id), self.vms[i].spec.id))
                            .collect();
                        let mac = HostMac::of(hid);
                        self.waking.register_suspension(RACK, mac, vms, waking_date);
                        return;
                    }
                    Decision::StayAwake(_) => match decision.retry_at() {
                        // A timed condition (grace): re-evaluate at its
                        // deadline (never more often than once a second).
                        Some(until) => {
                            t = until.max(t + SimDuration::from_secs(1));
                        }
                        // Blocked by process state (e.g. monitoring noise
                        // beyond the blacklist): stay awake this hour.
                        None => {
                            let h = &mut self.hosts[hid.index()];
                            h.meter.advance(hour_end, PowerState::Active, metered_util);
                            return;
                        }
                    },
                }
            }
        }
    }
}
