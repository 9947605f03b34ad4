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
//! on the [`PlanningView`]), and the class's winner in the tournament
//! leaderboard decides how that host clocks, sleeps and whether QoS
//! violations veto its suspends.
//!
//! Planning (which VM goes where) stays Drowsy-DC throughout —
//! consolidation is a fleet-global decision and the IP-aware planner is
//! the substrate every delegate shares; what varies per host is the
//! *frequency, sleep-state and veto* behaviour, which the policy takes
//! from one of two delegate policies it owns:
//!
//! | host class      | delegate     | behaviour on this host |
//! |-----------------|--------------|------------------------|
//! | `Undetermined`  | [`SleepScalePolicy`] | DVFS + the hedged S5 gate (the fleet-wide tournament winner is the prior) |
//! | `Idle`          | [`SleepScalePolicy`] | DVFS + the *confident* S5 gate — the model vouches for the idle period |
//! | `Steady`        | [`SleepScalePolicy`] | DVFS + the hedged S5 gate (the joint policy wins every energy bracket; S5 rarely fires on a steady host anyway) |
//! | `DailyPeriodic` | [`SleepScalePolicy`] | DVFS + the *confident* S5 gate across the scheduled gaps |
//! | `Bursty`        | [`SlaAwarePolicy`]   | wake-violation suspend veto, nominal clock, S3 |
//!
//! Two refinements beyond a naive per-class dispatch:
//!
//! * **Empty hosts inherit the fleet-majority class.** The hosts a
//!   consolidating controller actually parks are exactly the ones with
//!   no residents — a per-resident vote would leave them forever
//!   `Undetermined`. A drained host is about to sleep on behalf of the
//!   whole fleet, so it sleeps the way the fleet's dominant class
//!   warrants.
//! * **Classification sharpens the S5 gate.** SleepScale's
//!   [`S5Gate::HEDGED`] (4 h scheduled gap, 0.85 idle probability)
//!   hedges against unknown workloads; once a host's residents are
//!   *classified* idle or daily-periodic, the learned model vouches for
//!   the idle period and the host sleeps behind [`S5Gate::CONFIDENT`]
//!   (2 h, 0.70). That is the edge no fixed policy has: SleepScale
//!   cannot tell a confident night from a lull.
//!
//! Host classes refresh at every planning pass, so a host's behaviour
//! tracks what actually lives on it as consolidation moves VMs around.

use crate::policy::{ControlPlan, ControlPolicy, PlanningView, SleepDepth};
use crate::sleepscale::{S5Gate, SleepScaleConfig, SleepScalePolicy};
use crate::{DrowsyConfig, FilterScheduler, SlaAwarePolicy};
use dds_idleness::ImClass;
use dds_sim_core::qos::QosWindow;
use dds_sim_core::{HostId, SimRng, SimTime};

/// The adaptive meta-policy. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    /// Plans every host (Drowsy-DC) and keeps the wake-violation hold
    /// for all of them: a host may turn Bursty at the next planning
    /// pass, and its offence record must already be there.
    sla_aware: SlaAwarePolicy,
    /// Clocks and sleeps every non-Bursty host.
    sleepscale: SleepScalePolicy,
    /// Majority class per host, indexed by [`HostId::index`]; refreshed
    /// from the view's classes at every planning pass. Empty hosts
    /// carry the fleet-majority class (see the [module docs](self)).
    host_class: Vec<ImClass>,
}

impl AdaptivePolicy {
    /// Creates the policy over a Drowsy-DC planning substrate.
    pub fn new(drowsy: DrowsyConfig) -> Self {
        AdaptivePolicy {
            sla_aware: SlaAwarePolicy::new(drowsy),
            sleepscale: SleepScalePolicy::new(SleepScaleConfig::paper_default()),
            host_class: Vec::new(),
        }
    }

    /// The class currently cached for `host` (Undetermined before the
    /// first planning pass sees it).
    fn class(&self, host: HostId) -> ImClass {
        self.host_class
            .get(host.index())
            .copied()
            .unwrap_or(ImClass::Undetermined)
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
        self.sla_aware.admission_scheduler()
    }

    fn plan(&mut self, round: usize, view: &PlanningView<'_>, rng: &mut SimRng) -> ControlPlan {
        self.refresh_classes(view);
        self.sla_aware.plan(round, view, rng)
    }

    fn idle_sleep_depth(
        &self,
        host: HostId,
        ip_probability: f64,
        waking_date: Option<SimTime>,
        now: SimTime,
    ) -> SleepDepth {
        match self.class(host) {
            ImClass::Bursty => {
                self.sla_aware
                    .idle_sleep_depth(host, ip_probability, waking_date, now)
            }
            ImClass::Idle | ImClass::DailyPeriodic => {
                S5Gate::CONFIDENT.depth(ip_probability, waking_date, now)
            }
            ImClass::Undetermined | ImClass::Steady => {
                self.sleepscale
                    .idle_sleep_depth(host, ip_probability, waking_date, now)
            }
        }
    }

    fn active_frequency(&self, host: HostId, utilization: f64) -> f64 {
        match self.class(host) {
            ImClass::Bursty => self.sla_aware.active_frequency(host, utilization),
            _ => self.sleepscale.active_frequency(host, utilization),
        }
    }

    fn observe_qos(&mut self, window: &QosWindow) {
        self.sla_aware.observe_qos(window);
    }

    fn allow_suspend(&self, host: HostId) -> bool {
        match self.class(host) {
            ImClass::Bursty => self.sla_aware.allow_suspend(host),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DrowsyPolicy;
    use crate::types::testkit::{host, vm};
    use crate::types::ClusterState;
    use dds_sim_core::SimDuration;
    use proptest::prelude::*;

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
        let mut p = AdaptivePolicy::new(DrowsyConfig::paper_default());
        p.plan(0, &view, &mut SimRng::new(1));
        p
    }

    fn planned(classes: &[ImClass]) -> AdaptivePolicy {
        planned_on(&state(), classes)
    }

    /// The confident S5 gate, stated independently of the policy: S5 on
    /// a scheduled gap of at least 2 h, or, with no timer, on an
    /// idleness probability of at least 0.70.
    fn confident_gate(ip: f64, waking: Option<SimTime>, now: SimTime) -> SleepDepth {
        let deep = match waking {
            Some(date) => date.saturating_since(now) >= SimDuration::from_hours(2),
            None => ip >= 0.70,
        };
        if deep {
            SleepDepth::Off
        } else {
            SleepDepth::Suspend
        }
    }

    proptest! {
        /// Every host class behaves bit for bit like the fixed policy it
        /// delegates to: Undetermined and Steady hosts like SleepScale,
        /// Idle and DailyPeriodic hosts like SleepScale's ladder on the
        /// confident S5 gate, and Bursty hosts like SLA-aware's wake hold
        /// at every epoch (at nominal clock, in S3).
        #[test]
        fn each_class_behaves_exactly_like_its_delegate(
            host_classes in proptest::collection::vec(0usize..5, 4),
            probes in proptest::collection::vec(
                (-0.2f64..1.2, 0.0f64..1.0, 0u8..2, 0u64..360),
                1..16,
            ),
            windows in proptest::collection::vec(
                (0u64..3, proptest::collection::vec((0u32..4, 100u64..400), 0..6)),
                1..16,
            ),
        ) {
            let classes: Vec<ImClass> = host_classes
                .iter()
                .flat_map(|&c| [ImClass::ALL[c]; 2])
                .collect();
            let state = ClusterState::new(
                (0..4)
                    .map(|h| host(h, 0, vec![vm(2 * h, 0.1, 0.0), vm(2 * h + 1, 0.1, 0.0)]))
                    .collect(),
            );
            let mut adaptive = planned_on(&state, &classes);
            let sleepscale = SleepScalePolicy::new(SleepScaleConfig::paper_default());
            let mut sla = SlaAwarePolicy::new(DrowsyConfig::paper_default());

            let now = SimTime::from_hours(10);
            for &(u, ip, timer, gap_min) in &probes {
                let waking = (timer == 1).then(|| now + SimDuration::from_minutes(gap_min));
                for (h, &c) in host_classes.iter().enumerate() {
                    let id = HostId(h as u32);
                    let f = adaptive.active_frequency(id, u);
                    let depth = adaptive.idle_sleep_depth(id, ip, waking, now);
                    match ImClass::ALL[c] {
                        ImClass::Undetermined | ImClass::Steady => {
                            prop_assert_eq!(f.to_bits(), sleepscale.active_frequency(id, u).to_bits());
                            prop_assert_eq!(depth, sleepscale.idle_sleep_depth(id, ip, waking, now));
                        }
                        ImClass::Idle | ImClass::DailyPeriodic => {
                            prop_assert_eq!(f.to_bits(), sleepscale.active_frequency(id, u).to_bits());
                            prop_assert_eq!(depth, confident_gate(ip, waking, now));
                        }
                        ImClass::Bursty => {
                            prop_assert_eq!(f.to_bits(), 1.0f64.to_bits());
                            prop_assert_eq!(depth, SleepDepth::Suspend);
                        }
                    }
                }
            }

            let mut epoch = 0;
            for (step, records) in &windows {
                epoch += step;
                let mut w = QosWindow::new(epoch, 200);
                for &(h, latency_ms) in records {
                    w.record(h, latency_ms, true);
                }
                adaptive.observe_qos(&w);
                sla.observe_qos(&w);
                for (h, &c) in host_classes.iter().enumerate() {
                    let id = HostId(h as u32);
                    let expected = ImClass::ALL[c] != ImClass::Bursty || sla.allow_suspend(id);
                    prop_assert_eq!(adaptive.allow_suspend(id), expected, "epoch {}", epoch);
                }
            }
        }
    }

    #[test]
    fn plans_exactly_like_drowsy() {
        let s = state();
        let view = PlanningView::new(&s, &[ImClass::Bursty; 6]);
        let mut adaptive = AdaptivePolicy::new(DrowsyConfig::paper_default());
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
        // Hold expires after HOLD_EPOCHS quiet epochs, as in sla-aware.
        for epoch in 6..6 + crate::sla_aware::HOLD_EPOCHS {
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
