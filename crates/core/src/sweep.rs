//! Parallel sweep runner for the §VI.B evaluation.
//!
//! A sweep is a list of independent simulation points (policy ×
//! LLMI-fraction × seed). Each point is a full [`Datacenter`] run — CPU
//! bound, zero shared state — so the runner fans the points out over the
//! persistent process-wide [`WorkerPool`] (workers spawned once, parked
//! between sweeps) and returns the outcomes **in input order**,
//! regardless of which worker finished first. Determinism is preserved:
//! every point derives all randomness from its own seed, so
//! `run_sweep(points, 1)` and `run_sweep(points, N)` are bit-identical.
//!
//! ## Example
//!
//! Sweep two policies over one (tiny) cluster point and fan out over all
//! cores — outcomes come back in input order, so `points[i]` and
//! `outcomes[i]` always describe the same run:
//!
//! ```
//! use dds_core::cluster::ClusterSpec;
//! use dds_core::sweep::{run_sweep, SweepPoint};
//!
//! let mut spec = ClusterSpec::paper_default(0.5);
//! spec.hosts = 2;
//! spec.vms = 4;
//! spec.days = 1;
//! let points: Vec<SweepPoint> = ["drowsy-dc", "neat"]
//!     .iter()
//!     .map(|p| SweepPoint { policy: p.to_string(), spec: spec.clone(), seed: 7 })
//!     .collect();
//!
//! let outcomes = run_sweep(&points, 0); // 0 = one worker per core
//! assert_eq!(outcomes.len(), 2);
//! assert_eq!(outcomes[0].label, "Drowsy-DC");
//! assert!(outcomes[1].outcome.energy_kwh() > 0.0);
//! ```
//!
//! [`Datacenter`]: crate::datacenter::Datacenter

use crate::cluster::{run_cluster_policy_with, ClusterOutcome, ClusterSpec};
use crate::registry::PolicyRegistry;
use dds_sim_core::WorkerPool;

/// One simulation point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Policy-registry name (see [`PolicyRegistry`]).
    pub policy: String,
    /// Cluster scenario (carries the LLMI fraction and the DcConfig).
    pub spec: ClusterSpec,
    /// Seed driving every random stream of this point.
    pub seed: u64,
}

/// Outcome of one sweep point, tagged with its origin.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The policy-registry name of the point.
    pub policy: String,
    /// Display label of the policy.
    pub label: String,
    /// The simulation outcome.
    pub outcome: ClusterOutcome,
}

/// Number of workers `run_sweep` uses for `threads = 0` (auto): the
/// machine's available parallelism, capped by the number of points.
pub fn auto_threads(points: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(points.max(1))
}

/// Runs every point against the standard registry, fanning out over
/// `threads` workers (0 = one per available core), and returns outcomes
/// in the same order as `points`. Use [`run_sweep_with`] to sweep custom
/// registry entries.
pub fn run_sweep(points: &[SweepPoint], threads: usize) -> Vec<SweepOutcome> {
    run_sweep_with(&PolicyRegistry::standard(), points, threads)
}

/// Runs every point with policy names resolved in `registry`, fanning
/// out over `threads` workers of the persistent [`WorkerPool`] (0 = one
/// per available core), and returns outcomes in the same order as
/// `points`.
///
/// Panics on unknown policy names (like
/// [`run_cluster_policy`](crate::cluster::run_cluster_policy)); a panic
/// in any worker propagates out of the submitting call.
pub fn run_sweep_with(
    registry: &PolicyRegistry,
    points: &[SweepPoint],
    threads: usize,
) -> Vec<SweepOutcome> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = if threads == 0 {
        auto_threads(n)
    } else {
        threads.min(n)
    };
    let tasks: Vec<_> = points
        .iter()
        .map(|point| {
            move || {
                let label = registry
                    .get(&point.policy)
                    .unwrap_or_else(|| {
                        panic!(
                            "unknown policy '{}' (registered: {})",
                            point.policy,
                            registry.names().join(", ")
                        )
                    })
                    .label
                    .to_string();
                let outcome =
                    run_cluster_policy_with(registry, &point.spec, &point.policy, point.seed);
                SweepOutcome {
                    policy: point.policy.clone(),
                    label,
                    outcome,
                }
            }
        })
        .collect();
    WorkerPool::global().run_ordered(workers, tasks)
}

/// Builds the full §VI.B point grid: `policies × llmi_fractions`, one
/// spec per fraction from `mk_spec`, all driven by `seed`. Points are
/// ordered fraction-major (all policies of fraction 0 first), matching
/// the table layout of the sweep binary.
pub fn llmi_grid(
    policies: &[String],
    fractions: &[f64],
    mk_spec: impl Fn(f64) -> ClusterSpec,
    seed: u64,
) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(policies.len() * fractions.len());
    for &llmi in fractions {
        let spec = mk_spec(llmi);
        for policy in policies {
            points.push(SweepPoint {
                policy: policy.clone(),
                spec: spec.clone(),
                seed,
            });
        }
    }
    points
}

/// Expands a point list into seed replicates: each input point is
/// repeated once per seed, point-major (all seeds of point 0 first), so
/// `out[i * seeds.len() + j]` is point `i` under `seeds[j]`. The points'
/// own seeds are overridden. Replicate grids feed confidence intervals
/// (the tournament's per-family leaderboard); point-major order keeps a
/// point's replicates adjacent for chunked reduction.
pub fn seed_replicates(points: &[SweepPoint], seeds: &[u64]) -> Vec<SweepPoint> {
    let mut out = Vec::with_capacity(points.len() * seeds.len());
    for point in points {
        for &seed in seeds {
            let mut p = point.clone();
            p.seed = seed;
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(llmi: f64) -> ClusterSpec {
        let mut spec = ClusterSpec::paper_default(llmi);
        spec.hosts = 4;
        spec.vms = 12;
        spec.days = 2;
        spec
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        let policies: Vec<String> = ["drowsy-dc", "neat-s3", "sleepscale"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let points = llmi_grid(&policies, &[0.0, 0.75], small_spec, 11);
        let serial = run_sweep(&points, 1);
        let parallel = run_sweep(&points, 4);
        assert_eq!(serial.len(), points.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.policy, points[i].policy, "input order preserved");
            assert_eq!(
                a.outcome.energy_kwh().to_bits(),
                b.outcome.energy_kwh().to_bits(),
                "point {i} must not depend on scheduling"
            );
            assert_eq!(
                a.outcome.suspension().to_bits(),
                b.outcome.suspension().to_bits()
            );
        }
    }

    #[test]
    fn grid_is_fraction_major_and_complete() {
        let policies: Vec<String> = vec!["neat".into(), "oasis".into()];
        let points = llmi_grid(&policies, &[0.25, 0.5], small_spec, 1);
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].policy, "neat");
        assert_eq!(points[1].policy, "oasis");
        assert!((points[0].spec.llmi_fraction - 0.25).abs() < 1e-12);
        assert!((points[3].spec.llmi_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn seed_replicates_expand_point_major() {
        let policies: Vec<String> = vec!["neat".into(), "drowsy-dc".into()];
        let base = llmi_grid(&policies, &[0.5], small_spec, 999);
        let expanded = seed_replicates(&base, &[1, 2, 3]);
        assert_eq!(expanded.len(), 6);
        // Point-major: neat × {1,2,3}, then drowsy-dc × {1,2,3}.
        let got: Vec<(&str, u64)> = expanded
            .iter()
            .map(|p| (p.policy.as_str(), p.seed))
            .collect();
        assert_eq!(
            got,
            vec![
                ("neat", 1),
                ("neat", 2),
                ("neat", 3),
                ("drowsy-dc", 1),
                ("drowsy-dc", 2),
                ("drowsy-dc", 3),
            ]
        );
        assert!(seed_replicates(&base, &[]).is_empty());
        assert!(seed_replicates(&[], &[1, 2]).is_empty());
    }

    #[test]
    fn empty_sweep_is_fine() {
        assert!(run_sweep(&[], 0).is_empty());
        assert!(auto_threads(0) >= 1);
    }

    #[test]
    fn sweep_labels_come_from_the_registry() {
        let points = llmi_grid(&["sleepscale".to_string()], &[0.5], small_spec, 3);
        let out = run_sweep(&points, 0);
        assert_eq!(out[0].label, "SleepScale");
        assert!(out[0].outcome.energy_kwh() > 0.0);
    }

    #[test]
    fn custom_registered_policies_are_sweepable() {
        // The whole point of the registry: add an entry, sweep it — no
        // control-loop or runner changes.
        use crate::registry::{PolicyEntry, PolicyRegistry};
        let mut registry = PolicyRegistry::standard();
        registry.register(PolicyEntry::new(
            "neat-s3-tuned",
            "Neat+S3 (tuned)",
            false,
            |_, _| {
                Box::new(dds_placement::NeatPolicy::suspending(
                    dds_placement::NeatConfig::paper_default(),
                ))
            },
        ));
        let points = llmi_grid(&["neat-s3-tuned".to_string()], &[0.5], small_spec, 3);
        let out = run_sweep_with(&registry, &points, 2);
        assert_eq!(out[0].label, "Neat+S3 (tuned)");
        // Same construction as the stock entry → same run, resolved
        // through the custom registry in both the runner and the workers.
        let stock = crate::cluster::run_cluster_policy_with(
            &registry,
            &points[0].spec,
            "neat-s3",
            points[0].seed,
        );
        assert_eq!(
            out[0].outcome.energy_kwh().to_bits(),
            stock.energy_kwh().to_bits()
        );
    }
}
