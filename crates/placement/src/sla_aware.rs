//! An SLA-aware wrapper policy: Drowsy-DC consolidation plus a
//! wake-violation suspend veto driven by the streaming QoS signal.
//!
//! The first concrete consumer of the closed-loop seam
//! ([`ControlPolicy::observe_qos`] / [`ControlPolicy::allow_suspend`]):
//! the policy plans exactly like [`DrowsyPolicy`], but watches each
//! epoch's [`QosWindow`] for hosts whose wakes breached the SLA and holds
//! those hosts out of S3 for the next few epochs. A host that keeps
//! getting woken by user requests stops oscillating through
//! suspend/resume cycles — trading a little idle energy for the wake-tail
//! violations those cycles were charging, the same QoS-conditioned
//! power management SleepScale argues for (PAPERS.md).
//!
//! On a run that does not stream QoS (no `DcConfig::qos_stream`) no
//! window ever arrives, no host is ever deferred, and the policy
//! degenerates to plain Drowsy-DC — bit-identically.

use crate::policy::{ControlPlan, ControlPolicy, DrowsyPolicy, PlanningView};
use crate::{DrowsyConfig, FilterScheduler};
use dds_sim_core::qos::QosWindow;
use dds_sim_core::{HostId, SimRng};

/// How many epochs a host stays unparkable after absorbing a
/// wake-induced SLA violation.
pub const HOLD_EPOCHS: u64 = 6;

/// Drowsy-DC consolidation with a QoS-driven suspend veto (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct SlaAwarePolicy {
    inner: DrowsyPolicy,
    /// Sparse `(host index, first epoch it may park again)`, sorted by
    /// host. Stale entries are swept as epochs advance.
    defer_until: Vec<(u32, u64)>,
    /// The most recent epoch observed (hour index + 1, so a veto issued
    /// from the window of epoch `e` covers epochs `e+1 ..= e+hold`).
    next_epoch: u64,
}

impl SlaAwarePolicy {
    /// Creates the policy around Drowsy-DC planning.
    pub fn new(config: DrowsyConfig) -> Self {
        SlaAwarePolicy {
            inner: DrowsyPolicy::new(config),
            defer_until: Vec::new(),
            next_epoch: 0,
        }
    }
}

impl ControlPolicy for SlaAwarePolicy {
    fn label(&self) -> &'static str {
        "SLA-aware"
    }

    fn uses_idleness_scores(&self) -> bool {
        true
    }

    fn admission_scheduler(&self) -> FilterScheduler {
        self.inner.admission_scheduler()
    }

    fn plan(&mut self, round: usize, view: &PlanningView<'_>, rng: &mut SimRng) -> ControlPlan {
        self.inner.plan(round, view, rng)
    }

    fn observe_qos(&mut self, window: &QosWindow) {
        self.next_epoch = self.next_epoch.max(window.epoch + 1);
        for host in window.hosts() {
            if host.wake_violations == 0 {
                continue;
            }
            let until = window.epoch + 1 + HOLD_EPOCHS;
            match self
                .defer_until
                .binary_search_by_key(&host.host, |&(h, _)| h)
            {
                Ok(i) => self.defer_until[i].1 = self.defer_until[i].1.max(until),
                Err(i) => self.defer_until.insert(i, (host.host, until)),
            }
        }
        // Sweep expired entries so the list tracks live offenders only.
        let now = self.next_epoch;
        self.defer_until.retain(|&(_, until)| until > now);
    }

    fn allow_suspend(&self, host: HostId) -> bool {
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
    use dds_sim_core::qos::QosWindow;

    fn window(epoch: u64, violations: &[(u32, u64)]) -> QosWindow {
        let mut w = QosWindow::new(epoch, 200);
        for &(host, n) in violations {
            for _ in 0..n {
                w.record(host, 900, true); // wake-charged violation
            }
            w.record(host, 50, true); // wake hit within SLA: no veto alone
        }
        w
    }

    #[test]
    fn violating_hosts_are_held_out_of_s3_for_the_hold_window() {
        let mut p = SlaAwarePolicy::new(DrowsyConfig::paper_default());
        assert!(
            p.allow_suspend(HostId(4)),
            "no signal yet: everything parks"
        );
        p.observe_qos(&window(10, &[(4, 2)]));
        assert!(!p.allow_suspend(HostId(4)), "offender is held");
        assert!(p.allow_suspend(HostId(5)), "bystanders park freely");
        // Quiet epochs pass: the hold covers epochs 11 ..= 10 + HOLD_EPOCHS.
        for epoch in 11..11 + HOLD_EPOCHS {
            assert!(!p.allow_suspend(HostId(4)), "epoch {epoch} still held");
            p.observe_qos(&QosWindow::new(epoch, 200));
        }
        assert!(p.allow_suspend(HostId(4)), "hold expired");
    }

    #[test]
    fn wake_hits_within_sla_do_not_veto() {
        let mut p = SlaAwarePolicy::new(DrowsyConfig::paper_default());
        let mut w = QosWindow::new(0, 200);
        w.record(2, 150, true); // woke, but met the SLA
        p.observe_qos(&w);
        assert!(p.allow_suspend(HostId(2)), "no violation, no veto");
    }

    #[test]
    fn veto_flips_exactly_at_the_epoch_boundary() {
        // A violation in epoch e holds epochs e+1 ..= e+hold, inclusive
        // on both ends: held through the window's last epoch, parkable
        // from the first epoch after it — no off-by-one either way.
        let e = 10;
        let mut p = SlaAwarePolicy::new(DrowsyConfig::paper_default());
        p.observe_qos(&window(e, &[(7, 1)]));
        // next_epoch = e+1: first epoch of the hold window.
        assert!(!p.allow_suspend(HostId(7)), "held at the boundary e+1");
        for epoch in e + 1..e + HOLD_EPOCHS {
            p.observe_qos(&QosWindow::new(epoch, 200));
        }
        // next_epoch = e+hold: last epoch of the window.
        assert!(!p.allow_suspend(HostId(7)), "held through e+hold");
        p.observe_qos(&QosWindow::new(e + HOLD_EPOCHS, 200));
        // next_epoch = e+hold+1: the boundary flips.
        assert!(p.allow_suspend(HostId(7)), "parkable at e+hold+1 exactly");
    }

    #[test]
    fn repeated_violations_extend_the_hold() {
        let mut p = SlaAwarePolicy::new(DrowsyConfig::paper_default());
        p.observe_qos(&window(0, &[(1, 1)]));
        p.observe_qos(&window(1, &[(1, 1)])); // re-offends: hold renews
        for epoch in 2..=HOLD_EPOCHS {
            p.observe_qos(&QosWindow::new(epoch, 200));
        }
        // The first offence alone would release the host here.
        assert!(!p.allow_suspend(HostId(1)), "renewed hold still active");
        p.observe_qos(&QosWindow::new(HOLD_EPOCHS + 1, 200));
        assert!(p.allow_suspend(HostId(1)));
    }

    #[test]
    fn plans_exactly_like_drowsy() {
        use crate::types::testkit::{host, vm};
        use crate::types::ClusterState;
        let state = ClusterState::new(vec![
            host(0, 0, vec![vm(0, 0.2, 0.0), vm(1, 0.3, 0.1)]),
            host(1, 0, vec![vm(2, 0.1, 0.0)]),
            host(2, 0, vec![]),
        ]);
        let view = PlanningView::new(&state, &[]);
        let mut sla = SlaAwarePolicy::new(DrowsyConfig::paper_default());
        let mut drowsy = DrowsyPolicy::new(DrowsyConfig::paper_default());
        assert_eq!(
            sla.plan(0, &view, &mut SimRng::new(9)),
            drowsy.plan(0, &view, &mut SimRng::new(9)),
            "planning is untouched: the veto is the only behavioural delta"
        );
        assert_eq!(sla.label(), "SLA-aware");
        assert!(sla.uses_idleness_scores());
        assert!(sla.suspends());
    }
}
