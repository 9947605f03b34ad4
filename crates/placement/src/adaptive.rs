//! The tournament's adaptive meta-policy: per-host strategy selection
//! from the observed trace class.
//!
//! The catalog-scale tournament (`dds-bench`'s `tournament` bin) ranks
//! every fixed policy per scenario *family* — and the brackets show a
//! split personality: SleepScale's joint DVFS + S5 selection wins most
//! energy brackets, Drowsy-DC's IP-aware planner packs with fewer wake
//! violations, and the SLA-aware suspend veto is the only policy that
//! shrinks the wake-violation tail on bursty fleets. This policy closes
//! the loop from experiment back to policy: each host is classified
//! from its residents' *learned* idleness models ([`ImClass`], carried
//! on the [`PlanningView`]), and the per-class winner from a baked-in
//! leaderboard table ([`CLASS_WINNERS`]) decides how that host clocks,
//! sleeps and whether QoS violations veto its suspends.
//!
//! Planning (which VM goes where) stays Drowsy-DC throughout —
//! consolidation is a fleet-global decision and the IP-aware planner is
//! the substrate every delegate shares; what varies per host is the
//! *frequency, sleep-state and veto* behaviour:
//!
//! | host class      | delegate     | behaviour on this host |
//! |-----------------|--------------|------------------------|
//! | `Undetermined`  | `sleepscale` | DVFS + standard S5 gates (the fleet-wide tournament winner is the prior) |
//! | `Idle`          | `sleepscale` | DVFS + *sharpened* S5 gates — the model is confident |
//! | `Steady`        | `sleepscale` | DVFS (the joint policy wins every energy bracket; S5 rarely fires on a steady host anyway) |
//! | `DailyPeriodic` | `sleepscale` | DVFS + *sharpened* S5 gates across the scheduled gaps |
//! | `Bursty`        | `sla-aware`  | wake-violation suspend veto, nominal clock |
//!
//! Two refinements beyond a naive per-class dispatch:
//!
//! * **Empty hosts inherit the fleet-majority class.** The hosts a
//!   consolidating controller actually parks are exactly the ones with
//!   no residents — a per-resident vote would leave them forever
//!   `Undetermined`. A drained host is about to sleep on behalf of the
//!   whole fleet, so it sleeps the way the fleet's dominant class
//!   warrants.
//! * **Classification sharpens the S5 gates.** SleepScale's generic
//!   gates (4 h scheduled gap, 0.85 idle probability) hedge against
//!   unknown workloads; once a host's residents are *classified* idle
//!   or daily-periodic, the learned model vouches for the idle period
//!   and the gates drop to [`AdaptiveConfig::confident_min_gap`] /
//!   [`AdaptiveConfig::confident_min_ip`]. That is the edge no fixed
//!   policy has: SleepScale cannot tell a confident night from a lull.
//!
//! Host classes refresh at every planning pass, so a host's behaviour
//! tracks what actually lives on it as consolidation moves VMs around.

use crate::policy::{ControlPlan, ControlPolicy, DrowsyPolicy, PlanningView, SleepDepth};
use crate::{DrowsyConfig, FilterScheduler};
use dds_idleness::ImClass;
use dds_sim_core::qos::QosWindow;
use dds_sim_core::{HostId, SimDuration, SimRng, SimTime};

/// The baked-in per-class winner table (see the [module docs](self)):
/// which fixed policy's host behaviour each trace class delegates to.
/// Names are `dds_core::registry` keys, pinned by the tournament's
/// golden leaderboard test.
pub const CLASS_WINNERS: &[(ImClass, &str)] = &[
    (ImClass::Undetermined, "sleepscale"),
    (ImClass::Idle, "sleepscale"),
    (ImClass::Steady, "sleepscale"),
    (ImClass::DailyPeriodic, "sleepscale"),
    (ImClass::Bursty, "sla-aware"),
];

/// The winning delegate for a trace class, per [`CLASS_WINNERS`].
pub fn class_winner(class: ImClass) -> &'static str {
    CLASS_WINNERS
        .iter()
        .find(|&&(c, _)| c == class)
        .map(|&(_, name)| name)
        .unwrap_or("drowsy-dc")
}

/// Per-host behaviour delegates (the distinct right-hand sides of
/// [`CLASS_WINNERS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delegate {
    /// Plain Drowsy-DC: S3, nominal clock, no veto.
    Drowsy,
    /// SleepScale-style behaviour: DVFS plus S5 on long scheduled gaps
    /// or high idle confidence.
    SleepScale,
    /// SLA-aware suspend veto: wake-violating hosts stay powered.
    SlaAware,
}

fn delegate_of(class: ImClass) -> Delegate {
    match class_winner(class) {
        "sleepscale" => Delegate::SleepScale,
        "sla-aware" => Delegate::SlaAware,
        _ => Delegate::Drowsy,
    }
}

/// Configuration of the adaptive meta-policy: the Drowsy substrate plus
/// the delegate knobs (SleepScale's ladder and S5 gates, the sharpened
/// gates classification unlocks, SLA-aware's hold window).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Drowsy-DC planning substrate configuration.
    pub drowsy: DrowsyConfig,
    /// Lowest selectable frequency step on sleepscale-delegated hosts
    /// (fraction of nominal).
    pub freq_floor: f64,
    /// Granularity of the discrete frequency ladder.
    pub freq_step: f64,
    /// Utilization the chosen frequency aims to run the host at.
    pub target_utilization: f64,
    /// Minimum gap to a scheduled waking date before S5 is chosen on an
    /// *unclassified* (Undetermined-majority) host.
    pub deep_sleep_min_gap: SimDuration,
    /// Minimum idleness probability before an unscheduled idle
    /// unclassified host goes to S5.
    pub deep_sleep_min_ip: f64,
    /// The sharpened scheduled-gap gate on hosts whose residents are
    /// *classified* `Idle` or `DailyPeriodic`.
    pub confident_min_gap: SimDuration,
    /// The sharpened idle-probability gate on classified hosts.
    pub confident_min_ip: f64,
    /// Epochs a wake-violating sla-aware-delegated host stays
    /// unparkable.
    pub hold_epochs: u64,
}

impl AdaptiveConfig {
    /// Defaults: paper-default Drowsy substrate, SleepScale's ladder and
    /// S5 gates (0.6–1.0 clock, 4 h gap, 0.85 IP), sharpened gates of
    /// 2 h / 0.70 on classified hosts, SLA-aware's 6-epoch hold.
    pub fn paper_default() -> Self {
        AdaptiveConfig {
            drowsy: DrowsyConfig::paper_default(),
            freq_floor: 0.6,
            freq_step: 0.1,
            target_utilization: 0.8,
            deep_sleep_min_gap: SimDuration::from_hours(4),
            deep_sleep_min_ip: 0.85,
            confident_min_gap: SimDuration::from_hours(2),
            confident_min_ip: 0.70,
            hold_epochs: crate::sla_aware::DEFAULT_HOLD_EPOCHS,
        }
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The adaptive meta-policy. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    inner: DrowsyPolicy,
    config: AdaptiveConfig,
    /// Majority class per host, indexed by [`HostId::index`]; refreshed
    /// from the view's classes at every planning pass. Empty hosts
    /// carry the fleet-majority class (see the [module docs](self)).
    host_class: Vec<ImClass>,
    /// Sparse `(host index, first epoch it may park again)`, sorted by
    /// host — the SLA-aware veto bookkeeping. All hosts are tracked;
    /// the veto only *applies* on sla-aware-delegated hosts.
    defer_until: Vec<(u32, u64)>,
    /// Most recent epoch observed (hour index + 1), as in
    /// [`crate::sla_aware::SlaAwarePolicy`].
    next_epoch: u64,
}

impl AdaptivePolicy {
    /// Creates the policy.
    pub fn new(config: AdaptiveConfig) -> Self {
        AdaptivePolicy {
            inner: DrowsyPolicy::new(config.drowsy.clone()),
            config,
            host_class: Vec::new(),
            defer_until: Vec::new(),
            next_epoch: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// The class currently cached for `host` (Undetermined before the
    /// first planning pass sees it).
    fn class(&self, host: HostId) -> ImClass {
        self.host_class
            .get(host.index())
            .copied()
            .unwrap_or(ImClass::Undetermined)
    }

    /// The behaviour delegate currently cached for `host`.
    fn delegate(&self, host: HostId) -> Delegate {
        delegate_of(self.class(host))
    }

    /// Majority class over `counts`-style slots, ties to the class
    /// listed first in [`ImClass::ALL`] (deterministic).
    fn majority(counts: &[usize; ImClass::ALL.len()]) -> ImClass {
        let mut best = 0;
        for (i, &n) in counts.iter().enumerate() {
            if n > counts[best] {
                best = i;
            }
        }
        ImClass::ALL[best]
    }

    fn slot(class: ImClass) -> usize {
        ImClass::ALL.iter().position(|&c| c == class).unwrap_or(0)
    }

    /// Refreshes the per-host class cache from a planning snapshot:
    /// occupied hosts take their residents' majority class, drained
    /// hosts take the fleet-wide majority (they sleep on the fleet's
    /// behalf), hosts that left the snapshot keep their last class.
    fn refresh_classes(&mut self, view: &PlanningView<'_>) {
        let mut fleet = [0usize; ImClass::ALL.len()];
        for &class in view.classes {
            fleet[Self::slot(class)] += 1;
        }
        let fleet_majority = Self::majority(&fleet);

        let max_index = view
            .state
            .hosts
            .iter()
            .map(|h| h.id.index() + 1)
            .max()
            .unwrap_or(0);
        if self.host_class.len() < max_index {
            self.host_class.resize(max_index, ImClass::Undetermined);
        }
        for h in &view.state.hosts {
            let mut counts = [0usize; ImClass::ALL.len()];
            for vm in &h.vms {
                counts[Self::slot(view.class_of(vm.id))] += 1;
            }
            self.host_class[h.id.index()] = if counts.iter().all(|&n| n == 0) {
                fleet_majority
            } else {
                Self::majority(&counts)
            };
        }
    }

    /// The frequency step for a sleepscale-delegated host at
    /// `utilization`: the lowest P-state of the ladder that still serves
    /// the load at the target utilization (see
    /// [`crate::SleepScalePolicy::frequency_for`] — same quantization).
    fn frequency_for(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let step = self.config.freq_step.max(1e-3);
        let wanted = (u / self.config.target_utilization.max(1e-3)).max(u);
        let quantized = (wanted / step).ceil() * step;
        quantized.clamp(self.config.freq_floor, 1.0)
    }
}

impl ControlPolicy for AdaptivePolicy {
    fn label(&self) -> &'static str {
        "Tournament-adaptive"
    }

    fn uses_idleness_scores(&self) -> bool {
        true
    }

    /// Signals the controller to compute per-VM [`ImClass`]es into the
    /// planning view.
    fn uses_trace_classes(&self) -> bool {
        true
    }

    fn admission_scheduler(&self) -> FilterScheduler {
        self.inner.admission_scheduler()
    }

    fn plan(&mut self, round: usize, view: &PlanningView<'_>, rng: &mut SimRng) -> ControlPlan {
        self.refresh_classes(view);
        self.inner.plan(round, view, rng)
    }

    fn idle_sleep_depth(
        &self,
        host: HostId,
        ip_probability: f64,
        waking_date: Option<SimTime>,
        now: SimTime,
    ) -> SleepDepth {
        let class = self.class(host);
        if delegate_of(class) != Delegate::SleepScale {
            return SleepDepth::Suspend;
        }
        // Classified hosts sleep on the sharpened gates; the
        // Undetermined prior keeps SleepScale's hedged ones.
        let confident = matches!(class, ImClass::Idle | ImClass::DailyPeriodic);
        let (min_gap, min_ip) = if confident {
            (self.config.confident_min_gap, self.config.confident_min_ip)
        } else {
            (
                self.config.deep_sleep_min_gap,
                self.config.deep_sleep_min_ip,
            )
        };
        match waking_date {
            // A scheduled wake is anticipated either way, so S5 needs
            // only a gap long enough to amortize the slow resume.
            Some(date) => {
                if date.saturating_since(now) >= min_gap {
                    SleepDepth::Off
                } else {
                    SleepDepth::Suspend
                }
            }
            // An unscheduled wake pays the full resume latency: demand
            // confidence in a long idle period before deepening.
            None => {
                if ip_probability >= min_ip {
                    SleepDepth::Off
                } else {
                    SleepDepth::Suspend
                }
            }
        }
    }

    fn active_frequency(&self, host: HostId, utilization: f64) -> f64 {
        if self.delegate(host) == Delegate::SleepScale {
            self.frequency_for(utilization)
        } else {
            1.0
        }
    }

    fn observe_qos(&mut self, window: &QosWindow) {
        // SLA-aware bookkeeping over *all* hosts: a host may be
        // re-delegated to sla-aware at the next planning pass, and its
        // offence record must already be there.
        self.next_epoch = self.next_epoch.max(window.epoch + 1);
        for host in window.hosts() {
            if host.wake_violations == 0 {
                continue;
            }
            let until = window.epoch + 1 + self.config.hold_epochs;
            match self
                .defer_until
                .binary_search_by_key(&host.host, |&(h, _)| h)
            {
                Ok(i) => self.defer_until[i].1 = self.defer_until[i].1.max(until),
                Err(i) => self.defer_until.insert(i, (host.host, until)),
            }
        }
        let now = self.next_epoch;
        self.defer_until.retain(|&(_, until)| until > now);
    }

    fn allow_suspend(&self, host: HostId) -> bool {
        if self.delegate(host) != Delegate::SlaAware {
            return true;
        }
        match self
            .defer_until
            .binary_search_by_key(&(host.index() as u32), |&(h, _)| h)
        {
            Ok(i) => self.defer_until[i].1 <= self.next_epoch,
            Err(_) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::testkit::{host, vm};
    use crate::types::ClusterState;

    /// Three hosts, two VMs each; per-VM classes chosen per test.
    fn state() -> ClusterState {
        ClusterState::new(vec![
            host(0, 0, vec![vm(0, 0.2, 0.0), vm(1, 0.3, 0.1)]),
            host(1, 0, vec![vm(2, 0.1, 0.0), vm(3, 0.0, 0.2)]),
            host(2, 0, vec![vm(4, 0.0, 0.4), vm(5, 0.0, 0.4)]),
        ])
    }

    /// Like [`state`], with host 2 drained (no residents).
    fn state_with_empty_host() -> ClusterState {
        ClusterState::new(vec![
            host(0, 0, vec![vm(0, 0.2, 0.0), vm(1, 0.3, 0.1)]),
            host(1, 0, vec![vm(2, 0.1, 0.0), vm(3, 0.0, 0.2)]),
            host(2, 0, vec![]),
        ])
    }

    fn planned_on(s: &ClusterState, classes: &[ImClass]) -> AdaptivePolicy {
        let view = PlanningView::new(s, classes);
        let mut p = AdaptivePolicy::new(AdaptiveConfig::paper_default());
        p.plan(0, &view, &mut SimRng::new(1));
        p
    }

    fn planned(classes: &[ImClass]) -> AdaptivePolicy {
        planned_on(&state(), classes)
    }

    #[test]
    fn winner_table_covers_every_class() {
        for class in ImClass::ALL {
            let winner = class_winner(class);
            assert!(
                ["drowsy-dc", "sleepscale", "sla-aware"].contains(&winner),
                "{class:?} → {winner}"
            );
        }
        assert_eq!(class_winner(ImClass::Undetermined), "sleepscale");
        assert_eq!(class_winner(ImClass::DailyPeriodic), "sleepscale");
        assert_eq!(class_winner(ImClass::Bursty), "sla-aware");
        assert_eq!(class_winner(ImClass::Steady), "sleepscale");
    }

    #[test]
    fn plans_exactly_like_drowsy() {
        let s = state();
        let view = PlanningView::new(&s, &[ImClass::Bursty; 6]);
        let mut adaptive = AdaptivePolicy::new(AdaptiveConfig::paper_default());
        let mut drowsy = DrowsyPolicy::new(DrowsyConfig::paper_default());
        assert_eq!(
            adaptive.plan(0, &view, &mut SimRng::new(9)),
            drowsy.plan(0, &view, &mut SimRng::new(9)),
            "planning is the shared Drowsy substrate; only clock/sleep/veto adapt"
        );
        assert!(adaptive.uses_idleness_scores());
        assert!(adaptive.uses_trace_classes());
        assert_eq!(adaptive.label(), "Tournament-adaptive");
    }

    #[test]
    fn classified_hosts_get_sharper_s5_gates_than_the_prior() {
        // Host 0: DailyPeriodic ×2 → sleepscale, *sharpened* gates.
        // Host 1: Undetermined ×2 → sleepscale prior, hedged gates.
        // Host 2: Bursty ×2 → sla-aware, S3 whatever the signals say.
        let p = planned(&[
            ImClass::DailyPeriodic,
            ImClass::DailyPeriodic,
            ImClass::Undetermined,
            ImClass::Undetermined,
            ImClass::Bursty,
            ImClass::Bursty,
        ]);
        let now = SimTime::from_hours(10);
        // A 3 h scheduled gap: above the 2 h confident gate, below the
        // 4 h hedged one — only the classified host deepens.
        let gap3 = Some(SimTime::from_hours(13));
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 0.5, gap3, now),
            SleepDepth::Off
        );
        assert_eq!(
            p.idle_sleep_depth(HostId(1), 0.5, gap3, now),
            SleepDepth::Suspend
        );
        // Both sleepscale hosts deepen on a long gap; the sla-aware host
        // never.
        let far = Some(SimTime::from_hours(20));
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 0.5, far, now),
            SleepDepth::Off
        );
        assert_eq!(
            p.idle_sleep_depth(HostId(1), 0.5, far, now),
            SleepDepth::Off
        );
        assert_eq!(
            p.idle_sleep_depth(HostId(2), 1.0, far, now),
            SleepDepth::Suspend
        );
        // Unscheduled: IP 0.75 clears only the sharpened 0.70 gate.
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 0.75, None, now),
            SleepDepth::Off
        );
        assert_eq!(
            p.idle_sleep_depth(HostId(1), 0.75, None, now),
            SleepDepth::Suspend
        );
        assert_eq!(
            p.idle_sleep_depth(HostId(1), 0.9, None, now),
            SleepDepth::Off
        );
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 0.5, None, now),
            SleepDepth::Suspend
        );
    }

    #[test]
    fn dvfs_runs_only_on_sleepscale_delegated_hosts() {
        let p = planned(&[
            ImClass::DailyPeriodic,
            ImClass::DailyPeriodic,
            ImClass::Steady,
            ImClass::Steady,
            ImClass::Bursty,
            ImClass::Bursty,
        ]);
        // Sleepscale hosts (DailyPeriodic and Steady alike): floor at
        // idle, ladder in between, nominal at saturation — the same
        // quantization as SleepScalePolicy.
        assert!((p.active_frequency(HostId(0), 0.0) - 0.6).abs() < 1e-12);
        assert!((p.active_frequency(HostId(0), 0.55) - 0.7).abs() < 1e-12);
        assert!((p.active_frequency(HostId(0), 0.95) - 1.0).abs() < 1e-12);
        assert!((p.active_frequency(HostId(1), 0.1) - 0.6).abs() < 1e-12);
        // The Bursty (sla-aware) host: nominal clock.
        assert_eq!(p.active_frequency(HostId(2), 0.1), 1.0);
    }

    #[test]
    fn drained_hosts_inherit_the_fleet_majority_class() {
        // Fleet majority is DailyPeriodic (3 of 4 placed VMs + 1 Bursty);
        // host 2 has no residents and must sleep like the fleet, with
        // the sharpened gates — not sit in the Undetermined prior.
        let s = state_with_empty_host();
        let p = planned_on(
            &s,
            &[
                ImClass::DailyPeriodic,
                ImClass::DailyPeriodic,
                ImClass::DailyPeriodic,
                ImClass::Bursty,
            ],
        );
        let now = SimTime::from_hours(0);
        let gap3 = Some(SimTime::from_hours(3));
        assert_eq!(
            p.idle_sleep_depth(HostId(2), 0.5, gap3, now),
            SleepDepth::Off
        );
        // In a bursty-majority fleet the drained host is sla-aware
        // delegated instead: no S5, veto applies.
        let p = planned_on(&s, &[ImClass::Bursty; 4]);
        assert_eq!(
            p.idle_sleep_depth(HostId(2), 0.95, None, now),
            SleepDepth::Suspend
        );
        let mut w = QosWindow::new(5, 200);
        w.record(2, 900, true);
        p.clone().observe_qos(&w); // compiles the path; veto tested below
    }

    #[test]
    fn veto_applies_only_on_bursty_hosts() {
        let mut p = planned(&[
            ImClass::DailyPeriodic,
            ImClass::DailyPeriodic,
            ImClass::Steady,
            ImClass::Steady,
            ImClass::Bursty,
            ImClass::Bursty,
        ]);
        let mut w = QosWindow::new(5, 200);
        for h in 0..3 {
            w.record(h, 900, true); // wake-charged violation on every host
        }
        p.observe_qos(&w);
        assert!(p.allow_suspend(HostId(0)), "periodic host: no veto");
        assert!(p.allow_suspend(HostId(1)), "steady host: no veto");
        assert!(!p.allow_suspend(HostId(2)), "bursty host is held");
        // Hold expires after hold_epochs quiet epochs, as in sla-aware.
        for epoch in 6..(6 + AdaptiveConfig::paper_default().hold_epochs) {
            assert!(!p.allow_suspend(HostId(2)));
            p.observe_qos(&QosWindow::new(epoch, 200));
        }
        assert!(p.allow_suspend(HostId(2)), "hold expired");
    }

    #[test]
    fn majority_vote_is_deterministic_and_unseen_hosts_use_the_prior() {
        // Host 0 mixes Bursty + DailyPeriodic (1–1 tie): the tie breaks
        // to the class listed first in ImClass::ALL — DailyPeriodic
        // precedes Bursty — so the host is sleepscale-delegated with the
        // sharpened gates; host 1 (Undetermined) hedges.
        let p = planned(&[
            ImClass::Bursty,
            ImClass::DailyPeriodic,
            ImClass::Undetermined,
            ImClass::Undetermined,
            ImClass::Undetermined,
            ImClass::Undetermined,
        ]);
        let now = SimTime::from_hours(0);
        let gap3 = Some(SimTime::from_hours(3));
        assert_eq!(
            p.idle_sleep_depth(HostId(0), 0.5, gap3, now),
            SleepDepth::Off
        );
        assert_eq!(
            p.idle_sleep_depth(HostId(1), 0.5, gap3, now),
            SleepDepth::Suspend
        );

        // A host no planning pass has seen: Undetermined prior —
        // sleepscale with hedged gates, no veto.
        let far = Some(SimTime::from_hours(10));
        assert_eq!(
            p.idle_sleep_depth(HostId(99), 0.5, far, now),
            SleepDepth::Off
        );
        assert_eq!(
            p.idle_sleep_depth(HostId(99), 0.5, gap3, now),
            SleepDepth::Suspend
        );
        assert!(p.allow_suspend(HostId(99)));
    }
}
