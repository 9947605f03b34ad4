//! Running scenarios through the parallel sweep machinery.

use crate::scenario::{QosSpec, Scenario};
use dds_core::registry::PolicyRegistry;
use dds_core::sweep::{run_sweep_with, SweepOutcome};
use dds_power::WakeSpeed;
use dds_sim_core::qos::QosReport;
use dds_traces::RequestProfile;

/// Runs a scenario's full policy sweep against the standard registry,
/// fanning out over `threads` workers (0 = one per available core).
/// Outcomes come back in policy order; results are bit-identical for any
/// thread count (`dds_core::sweep` pins this).
///
/// `seed` overrides the scenario's own seed when `Some` (the `--seed`
/// flag of the `scenarios` binary).
pub fn run_scenario(scenario: &Scenario, seed: Option<u64>, threads: usize) -> Vec<SweepOutcome> {
    run_scenario_with(&PolicyRegistry::standard(), scenario, seed, threads)
}

/// Like [`run_scenario`], with policy names resolved in a custom
/// registry — the composition seam: register an experimental policy,
/// name it in a scenario file, sweep it.
pub fn run_scenario_with(
    registry: &PolicyRegistry,
    scenario: &Scenario,
    seed: Option<u64>,
    threads: usize,
) -> Vec<SweepOutcome> {
    run_sweep_with(registry, &scenario.sweep_points(seed), threads)
}

/// Runs a scenario's policy sweep **with request-level QoS**: each
/// policy's outcome comes back paired with the [`QosReport`] its run
/// streamed for the scenario's `[qos]` request workload. A scenario
/// without a `[qos]` section gets the paper's quick-resume web-search
/// profile. Reports are bit-identical for any `threads` value, like the
/// sweep itself.
pub fn run_scenario_qos(
    scenario: &Scenario,
    seed: Option<u64>,
    threads: usize,
) -> Vec<(SweepOutcome, QosReport)> {
    run_scenario_qos_with(&PolicyRegistry::standard(), scenario, seed, threads)
}

/// Like [`run_scenario_qos`], with policy names resolved in a custom
/// registry.
pub fn run_scenario_qos_with(
    registry: &PolicyRegistry,
    scenario: &Scenario,
    seed: Option<u64>,
    threads: usize,
) -> Vec<(SweepOutcome, QosReport)> {
    let mut scenario = scenario.clone();
    scenario.qos.get_or_insert_with(|| QosSpec {
        profile: RequestProfile::web_search_quick_resume(),
        wake: WakeSpeed::Quick,
    });
    run_scenario_with(registry, &scenario, seed, threads)
        .into_iter()
        .map(|mut out| {
            let report = out
                .outcome
                .dc
                .qos
                .take()
                .expect("a [qos] scenario streams a QoS report");
            (out, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        let mut s = crate::catalog::find("idle-fleet").expect("catalog entry");
        s.days = 1;
        s
    }

    #[test]
    fn scenario_sweep_runs_each_policy_once() {
        let s = tiny();
        let out = run_scenario(&s, None, 0);
        assert_eq!(out.len(), s.policies.len());
        assert_eq!(out[0].policy, "drowsy-dc");
        assert_eq!(out[1].policy, "neat");
        // The always-idle control: the suspending policy parks nearly the
        // whole fleet, the always-on baseline parks nothing.
        assert!(
            out[0].outcome.suspension() > 0.8,
            "{}",
            out[0].outcome.suspension()
        );
        assert_eq!(out[1].outcome.suspension(), 0.0);
        assert!(out[0].outcome.energy_kwh() < out[1].outcome.energy_kwh());
    }

    fn sla_front() -> Scenario {
        let mut s = crate::catalog::find("sla-web-front").expect("catalog entry");
        s.days = 2;
        s
    }

    #[test]
    fn sla_aware_trades_energy_for_fewer_wake_violations() {
        let s = sla_front();
        let rows = run_scenario_qos(&s, None, 0);
        let find = |name: &str| {
            rows.iter()
                .find(|(o, _)| o.policy == name)
                .expect("policy row")
        };
        let (drowsy, drowsy_qos) = find("drowsy-dc");
        let (sla, sla_qos) = find("sla-aware");
        let (neat, _) = find("neat");
        assert!(
            sla_qos.wake_violations < drowsy_qos.wake_violations,
            "the veto absorbs repeat wakes: {} vs {}",
            sla_qos.wake_violations,
            drowsy_qos.wake_violations
        );
        assert!(
            sla.outcome.energy_kwh() > drowsy.outcome.energy_kwh(),
            "held-awake hours cost energy: {} vs {}",
            sla.outcome.energy_kwh(),
            drowsy.outcome.energy_kwh()
        );
        assert!(
            sla.outcome.energy_kwh() < neat.outcome.energy_kwh(),
            "still far below always-on: {} vs {}",
            sla.outcome.energy_kwh(),
            neat.outcome.energy_kwh()
        );
    }

    #[test]
    fn seed_override_changes_the_run_seed_only() {
        let s = tiny();
        let a = run_scenario(&s, Some(1), 1);
        let b = run_scenario(&s, Some(1), 1);
        assert_eq!(
            a[0].outcome.energy_kwh().to_bits(),
            b[0].outcome.energy_kwh().to_bits(),
            "same seed replays"
        );
    }
}
