//! The policy tournament: every catalog scenario × every registered
//! policy × both wake paths × seed replicates, reduced to a per-family
//! leaderboard.
//!
//! The grid is flat — one [`SweepPoint`] per cell — and fans out over
//! the persistent `WorkerPool` through
//! [`run_sweep_with`], so the whole
//! tournament inherits the sweep's contract: outcomes come back in
//! input order and are **bit-identical for any thread count**. Every
//! cell runs the streaming QoS pipeline (constant memory, no recorded
//! timelines), so a full catalog tournament costs no more per cell than
//! the `qos` experiment.
//!
//! Reduction happens at the [`ScenarioFamily`] level: per-seed energy
//! totals across a family's scenarios feed an exact-arithmetic
//! [`Estimate`] (mean ± 95 % CI over seed replicates), while the QoS
//! counters merge as exact integers ([`QosAggregate`]). Before any
//! reduction the cells are **canonically sorted** by
//! (family, wake, policy, seed, scenario), so the leaderboard is a pure
//! function of the cell *set* — submission order cannot leak into a
//! single bit of the output. `tests/integration_tournament.rs` pins
//! both properties.
//!
//! Ranking is *energy-at-SLA*: policies meeting [`SLA_QUALIFY`]
//! attainment rank first, cheapest mean energy wins; the rest rank
//! below by attainment. That is the paper's claim shape — you only get
//! to brag about kWh if the requests came back in time.

use dds_core::datacenter::QosStreamConfig;
use dds_core::registry::PolicyRegistry;
use dds_core::sweep::{run_sweep_with, seed_replicates, SweepPoint};
use dds_power::WakeSpeed;
use dds_scenarios::{Scenario, ScenarioFamily};
use dds_sim_core::qos::QosReport;
use dds_sim_core::stats::LatencyHistogram;
use dds_sim_core::SimDuration;
use dds_traces::RequestProfile;

/// One wake-path variant of the tournament (mirrors the `qos`
/// experiment's quick-vs-stock axis).
#[derive(Debug, Clone, Copy)]
pub struct WakeVariant {
    /// Stable key (CSV column, leaderboard row).
    pub key: &'static str,
    /// The power-model wake path.
    pub wake: WakeSpeed,
    /// The resume latency the request client charges wake-hit requests.
    pub resume: SimDuration,
}

/// Both resume paths: Drowsy-DC's ≈800 ms quick resume and the ≈1500 ms
/// stock kernel.
pub const WAKE_VARIANTS: [WakeVariant; 2] = [
    WakeVariant {
        key: "quick",
        wake: WakeSpeed::Quick,
        resume: SimDuration::from_millis(800),
    },
    WakeVariant {
        key: "stock",
        wake: WakeSpeed::Normal,
        resume: SimDuration::from_millis(1500),
    },
];

/// SLA attainment a policy must reach to compete on energy (the paper's
/// "more than 99 % of requests within the threshold").
pub const SLA_QUALIFY: f64 = 0.99;

/// The coordinates of one tournament cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    /// Scenario name (catalog entry).
    pub scenario: String,
    /// The scenario's derived family — the leaderboard's row space.
    pub family: ScenarioFamily,
    /// Wake-variant key (`"quick"` / `"stock"`).
    pub wake: &'static str,
    /// Policy-registry name.
    pub policy: String,
    /// Replicate seed.
    pub seed: u64,
}

/// The full cell grid plus the sweep points that realize it,
/// index-aligned: `points[i]` runs `cells[i]`.
#[derive(Debug, Clone)]
pub struct TournamentGrid {
    /// Cell coordinates, in build order.
    pub cells: Vec<CellKey>,
    /// The sweep points, one per cell.
    pub points: Vec<SweepPoint>,
}

/// Builds the tournament grid: for every scenario, both wake variants,
/// every policy, every seed — scenario-major, then wake, policy, seed
/// (the order [`seed_replicates`] produces). Each cell is configured
/// for streaming QoS against the scenario's own request profile (or the
/// paper's web-search profile when the scenario has no `[qos]`
/// section), re-aimed at the variant's resume latency exactly like the
/// `qos` experiment.
pub fn build_grid(scenarios: &[Scenario], policies: &[String], seeds: &[u64]) -> TournamentGrid {
    let mut cells = Vec::new();
    let mut base_points = Vec::new();
    for scenario in scenarios {
        let family = scenario.family();
        let base_profile = scenario
            .qos
            .as_ref()
            .map(|q| q.profile.clone())
            .unwrap_or_else(RequestProfile::web_search_quick_resume);
        let base_spec = scenario.to_cluster_spec();
        for variant in &WAKE_VARIANTS {
            let profile = RequestProfile {
                resume_latency: variant.resume,
                ..base_profile.clone()
            };
            let mut spec = base_spec.clone();
            spec.config.wake_speed = variant.wake;
            spec.config.qos_stream = Some(QosStreamConfig::serial(profile));
            for policy in policies {
                base_points.push(SweepPoint {
                    policy: policy.clone(),
                    spec: spec.clone(),
                    seed: 0, // overridden by seed_replicates below
                });
                for &seed in seeds {
                    cells.push(CellKey {
                        scenario: scenario.name.clone(),
                        family,
                        wake: variant.key,
                        policy: policy.clone(),
                        seed,
                    });
                }
            }
        }
    }
    let points = seed_replicates(&base_points, seeds);
    debug_assert_eq!(points.len(), cells.len());
    TournamentGrid { cells, points }
}

/// One finished cell: the coordinates plus everything the leaderboard
/// reduces over.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Where this result came from.
    pub key: CellKey,
    /// Display label of the policy.
    pub label: String,
    /// Fleet energy over the run, kWh.
    pub energy_kwh: f64,
    /// VM migrations executed.
    pub migrations: u64,
    /// Host suspend/resume cycles (wake count).
    pub wakes: u64,
    /// The streaming QoS report of the run.
    pub qos: QosReport,
}

/// Runs the grid over `threads` workers (0 = auto) and pairs each cell
/// with its outcome. Input-ordered and bit-identical for any thread
/// count, like the sweep underneath.
pub fn run_grid(
    registry: &PolicyRegistry,
    grid: &TournamentGrid,
    threads: usize,
) -> Vec<CellResult> {
    let outcomes = run_sweep_with(registry, &grid.points, threads);
    grid.cells
        .iter()
        .cloned()
        .zip(outcomes)
        .map(|(key, mut out)| {
            let qos = out
                .outcome
                .dc
                .qos
                .take()
                .expect("streaming points carry a QoS report");
            let wakes = out.outcome.dc.suspend_cycles.iter().map(|&(_, n)| n).sum();
            CellResult {
                key,
                label: out.label,
                energy_kwh: out.outcome.energy_kwh(),
                migrations: u64::from(out.outcome.dc.total_migrations()),
                wakes,
                qos,
            }
        })
        .collect()
}

/// Mean ± half-width of a 95 % confidence interval over seed
/// replicates, with the exact sample range.
///
/// A single replicate is a **point estimate**: `half_width` is 0 and
/// the interval collapses onto the mean. (The naïve `n − 1` divisor
/// would make it `NaN`, which then poisons every downstream comparison
/// — the divisor is gated on `n ≥ 2`, and
/// `tests/integration_tournament.rs` pins the degenerate case.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// 1.96 · s/√n for n ≥ 2; exactly 0.0 for a single sample.
    pub half_width: f64,
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Estimate {
    /// Reduces `samples` (at least one) in the order given — callers
    /// pass canonically ordered samples, so the floating-point sums are
    /// reproducible to the bit.
    pub fn from_samples(samples: &[f64]) -> Estimate {
        assert!(!samples.is_empty(), "an estimate needs at least one sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let (mut min, mut max) = (samples[0], samples[0]);
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
        }
        let half_width = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64;
            1.96 * (var / n as f64).sqrt()
        };
        Estimate {
            mean,
            half_width,
            n,
            min,
            max,
        }
    }
}

/// Exact-integer QoS counters merged across a family's scenarios and
/// seeds. Deliberately *not* a [`QosReport`]: scenarios may judge
/// different SLA thresholds, so per-request verdicts are taken from
/// each cell's own report and only the counts (and the log-bucketed
/// latency histogram) are folded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosAggregate {
    /// Total requests across the group.
    pub requests: u64,
    /// Requests within their own scenario's SLA.
    pub within_sla: u64,
    /// SLA violations charged to host wakes.
    pub wake_violations: u64,
    /// SLA violations charged to queueing/service.
    pub queue_violations: u64,
    /// Merged end-to-end latency histogram (ms).
    pub latencies: LatencyHistogram,
}

impl QosAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        QosAggregate {
            requests: 0,
            within_sla: 0,
            wake_violations: 0,
            queue_violations: 0,
            latencies: LatencyHistogram::new(),
        }
    }

    /// Folds one cell's report in (exact, associative, commutative).
    pub fn absorb(&mut self, qos: &QosReport) {
        self.requests += qos.total;
        self.within_sla += qos.under_sla;
        self.wake_violations += qos.wake_violations;
        self.queue_violations += qos.queue_violations;
        self.latencies.merge(&qos.latencies);
    }

    /// Fraction of requests within the SLA (1.0 when no requests).
    pub fn attainment(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.within_sla as f64 / self.requests as f64
        }
    }

    /// 99.9th-percentile latency in ms (`None` when empty).
    pub fn p999(&self) -> Option<f64> {
        self.latencies.quantile(0.999)
    }
}

impl Default for QosAggregate {
    fn default() -> Self {
        Self::new()
    }
}

/// One leaderboard row: a policy's aggregate showing inside one
/// (family, wake) bracket.
#[derive(Debug, Clone)]
pub struct LeaderboardRow {
    /// The scenario family of the bracket.
    pub family: ScenarioFamily,
    /// Wake-variant key of the bracket.
    pub wake: &'static str,
    /// 1-based rank inside the bracket (qualified policies first).
    pub rank: usize,
    /// Policy-registry name.
    pub policy: String,
    /// Display label.
    pub label: String,
    /// Whether the policy met [`SLA_QUALIFY`] attainment.
    pub qualified: bool,
    /// Per-seed family energy totals, kWh (mean ± CI over seeds).
    pub energy: Estimate,
    /// Merged QoS counters across the family's scenarios and seeds.
    pub qos: QosAggregate,
    /// Total migrations across the group.
    pub migrations: u64,
    /// Total suspend/resume cycles across the group.
    pub wakes: u64,
}

fn family_slot(f: ScenarioFamily) -> usize {
    ScenarioFamily::ALL
        .iter()
        .position(|&x| x == f)
        .expect("every family is in ALL")
}

/// Reduces finished cells to the leaderboard. **Order-free**: the cells
/// are canonically sorted by (family, wake, policy, seed, scenario)
/// before any floating-point arithmetic, so any permutation of `cells`
/// produces a bit-identical leaderboard.
///
/// Per (family, wake, policy): each seed's energy sample is the sum of
/// that seed's cell energies over the family's scenarios (in scenario
/// order); QoS counters fold exactly. Per (family, wake) bracket,
/// policies meeting [`SLA_QUALIFY`] rank first by mean energy
/// ascending; the rest follow by attainment descending. Ties break on
/// the policy name — total order, no unstable comparisons.
pub fn leaderboard(cells: &[CellResult]) -> Vec<LeaderboardRow> {
    let mut refs: Vec<&CellResult> = cells.iter().collect();
    refs.sort_by(|a, b| {
        (
            family_slot(a.key.family),
            a.key.wake,
            &a.key.policy,
            a.key.seed,
            &a.key.scenario,
        )
            .cmp(&(
                family_slot(b.key.family),
                b.key.wake,
                &b.key.policy,
                b.key.seed,
                &b.key.scenario,
            ))
    });

    // Fold contiguous (family, wake, policy) groups.
    struct Group {
        family: ScenarioFamily,
        wake: &'static str,
        policy: String,
        label: String,
        // (seed, energy sum) in ascending seed order.
        energy_by_seed: Vec<(u64, f64)>,
        qos: QosAggregate,
        migrations: u64,
        wakes: u64,
    }
    let mut groups: Vec<Group> = Vec::new();
    for cell in refs {
        let fresh = groups.last().is_none_or(|g| {
            g.family != cell.key.family || g.wake != cell.key.wake || g.policy != cell.key.policy
        });
        if fresh {
            groups.push(Group {
                family: cell.key.family,
                wake: cell.key.wake,
                policy: cell.key.policy.clone(),
                label: cell.label.clone(),
                energy_by_seed: Vec::new(),
                qos: QosAggregate::new(),
                migrations: 0,
                wakes: 0,
            });
        }
        let g = groups.last_mut().expect("pushed above");
        match g.energy_by_seed.last_mut() {
            Some((seed, sum)) if *seed == cell.key.seed => *sum += cell.energy_kwh,
            _ => g.energy_by_seed.push((cell.key.seed, cell.energy_kwh)),
        }
        g.qos.absorb(&cell.qos);
        g.migrations += cell.migrations;
        g.wakes += cell.wakes;
    }

    // Rank inside each (family, wake) bracket.
    let mut rows = Vec::with_capacity(groups.len());
    let mut i = 0;
    while i < groups.len() {
        let mut j = i;
        while j < groups.len()
            && groups[j].family == groups[i].family
            && groups[j].wake == groups[i].wake
        {
            j += 1;
        }
        let mut bracket: Vec<(Estimate, &Group)> = groups[i..j]
            .iter()
            .map(|g| {
                let samples: Vec<f64> = g.energy_by_seed.iter().map(|&(_, e)| e).collect();
                (Estimate::from_samples(&samples), g)
            })
            .collect();
        bracket.sort_by(|(ea, ga), (eb, gb)| {
            let qa = ga.qos.attainment() >= SLA_QUALIFY;
            let qb = gb.qos.attainment() >= SLA_QUALIFY;
            qb.cmp(&qa) // qualified first
                .then_with(|| {
                    if qa && qb {
                        ea.mean.total_cmp(&eb.mean)
                    } else {
                        gb.qos.attainment().total_cmp(&ga.qos.attainment())
                    }
                })
                .then_with(|| ga.policy.cmp(&gb.policy))
        });
        for (rank0, (energy, g)) in bracket.into_iter().enumerate() {
            rows.push(LeaderboardRow {
                family: g.family,
                wake: g.wake,
                rank: rank0 + 1,
                policy: g.policy.clone(),
                label: g.label.clone(),
                qualified: g.qos.attainment() >= SLA_QUALIFY,
                energy,
                qos: g.qos.clone(),
                migrations: g.migrations,
                wakes: g.wakes,
            });
        }
        i = j;
    }
    rows
}

/// Renders the leaderboard as a timing-free CSV — every field is a pure
/// function of the simulation outcomes, so serial and pooled runs (and
/// any cell submission order) produce **byte-identical** files. The
/// `tournament-smoke` CI job diffs them.
pub fn render_csv(rows: &[LeaderboardRow]) -> String {
    let mut csv = String::from(
        "family,wake,rank,policy,qualified,energy_kwh,energy_ci,energy_min,energy_max,\
         attainment,requests,p999_ms,wake_violations,queue_violations,migrations,wakes,seeds\n",
    );
    for r in rows {
        let p999 = match r.qos.p999() {
            Some(ms) => format!("{ms:.1}"),
            None => "-".to_string(),
        };
        csv.push_str(&format!(
            "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{},{},{},{}\n",
            r.family,
            r.wake,
            r.rank,
            r.policy,
            r.qualified,
            r.energy.mean,
            r.energy.half_width,
            r.energy.min,
            r.energy.max,
            r.qos.attainment(),
            r.qos.requests,
            p999,
            r.qos.wake_violations,
            r.qos.queue_violations,
            r.migrations,
            r.wakes,
            r.energy.n,
        ));
    }
    csv
}

/// The leaderboard as `BENCH_tournament.json` row objects.
pub fn json_rows(rows: &[LeaderboardRow]) -> Vec<crate::JsonObject> {
    rows.iter()
        .map(|r| {
            crate::JsonObject::new()
                .str("family", r.family.key())
                .str("wake", r.wake)
                .int("rank", r.rank as u64)
                .str("policy", &r.policy)
                .str("label", &r.label)
                .bool("qualified", r.qualified)
                .num("energy_kwh", r.energy.mean)
                .num("energy_ci", r.energy.half_width)
                .num("energy_min", r.energy.min)
                .num("energy_max", r.energy.max)
                .num("attainment", r.qos.attainment())
                .int("requests", r.qos.requests)
                .num("p999_ms", r.qos.p999().unwrap_or(0.0))
                .int("wake_violations", r.qos.wake_violations)
                .int("queue_violations", r.qos.queue_violations)
                .int("migrations", r.migrations)
                .int("wakes", r.wakes)
                .int("seeds", r.energy.n as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn cell(
        scenario: &str,
        family: ScenarioFamily,
        wake: &'static str,
        policy: &str,
        seed: u64,
        energy: f64,
        total: u64,
        under: u64,
    ) -> CellResult {
        let mut qos = QosReport::new(200);
        // All-good then all-violating keeps the counters simple.
        qos.record_n(10, under);
        for _ in 0..(total - under) {
            qos.record(900, true);
        }
        CellResult {
            key: CellKey {
                scenario: scenario.to_string(),
                family,
                wake,
                policy: policy.to_string(),
                seed,
            },
            label: policy.to_uppercase(),
            energy_kwh: energy,
            migrations: 3,
            wakes: 5,
            qos,
        }
    }

    #[test]
    fn single_sample_estimate_is_a_point_not_nan() {
        let e = Estimate::from_samples(&[7.25]);
        assert_eq!(e.mean, 7.25);
        assert_eq!(e.half_width, 0.0, "no NaN from the n-1 divisor");
        assert_eq!((e.min, e.max, e.n), (7.25, 7.25, 1));
        assert!(e.half_width.is_finite());
    }

    #[test]
    fn multi_sample_estimate_matches_hand_math() {
        let e = Estimate::from_samples(&[1.0, 2.0, 3.0]);
        assert!((e.mean - 2.0).abs() < 1e-12);
        // s = 1, so half-width = 1.96/sqrt(3).
        assert!((e.half_width - 1.96 / 3f64.sqrt()).abs() < 1e-12);
        assert_eq!((e.min, e.max, e.n), (1.0, 3.0, 3));
    }

    #[test]
    fn leaderboard_is_invariant_under_cell_order() {
        let mut cells = vec![
            cell(
                "a",
                ScenarioFamily::Diurnal,
                "quick",
                "p1",
                1,
                10.0,
                100,
                100,
            ),
            cell(
                "b",
                ScenarioFamily::Diurnal,
                "quick",
                "p1",
                1,
                5.0,
                100,
                100,
            ),
            cell(
                "a",
                ScenarioFamily::Diurnal,
                "quick",
                "p1",
                2,
                11.0,
                100,
                100,
            ),
            cell(
                "b",
                ScenarioFamily::Diurnal,
                "quick",
                "p1",
                2,
                6.0,
                100,
                100,
            ),
            cell("a", ScenarioFamily::Diurnal, "quick", "p2", 1, 8.0, 100, 90),
            cell("b", ScenarioFamily::Diurnal, "quick", "p2", 1, 4.0, 100, 90),
            cell("a", ScenarioFamily::Diurnal, "quick", "p2", 2, 9.0, 100, 90),
            cell("b", ScenarioFamily::Diurnal, "quick", "p2", 2, 5.0, 100, 90),
        ];
        let forward = leaderboard(&cells);
        cells.reverse();
        cells.swap(0, 3);
        let shuffled = leaderboard(&cells);
        assert_eq!(forward.len(), shuffled.len());
        for (a, b) in forward.iter().zip(&shuffled) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.energy.mean.to_bits(), b.energy.mean.to_bits());
            assert_eq!(a.energy.half_width.to_bits(), b.energy.half_width.to_bits());
            assert_eq!(a.qos, b.qos);
        }
        assert_eq!(render_csv(&forward), render_csv(&shuffled));
    }

    #[test]
    fn qualified_policies_outrank_cheaper_violators() {
        // p2 is cheaper (mean 13 vs 16) but misses the 99 % bar (90 %);
        // p1 qualifies and must take rank 1.
        let cells = vec![
            cell(
                "a",
                ScenarioFamily::Bursty,
                "stock",
                "p1",
                1,
                16.0,
                1000,
                995,
            ),
            cell(
                "a",
                ScenarioFamily::Bursty,
                "stock",
                "p2",
                1,
                13.0,
                1000,
                900,
            ),
        ];
        let rows = leaderboard(&cells);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].policy.as_str(), rows[0].rank), ("p1", 1));
        assert!(rows[0].qualified);
        assert_eq!((rows[1].policy.as_str(), rows[1].rank), ("p2", 2));
        assert!(!rows[1].qualified);
        // Single seed: point estimate, never NaN.
        assert_eq!(rows[0].energy.half_width, 0.0);
    }

    #[test]
    fn per_seed_energy_sums_across_the_familys_scenarios() {
        let cells = vec![
            cell("a", ScenarioFamily::Batch, "quick", "p1", 1, 2.0, 10, 10),
            cell("b", ScenarioFamily::Batch, "quick", "p1", 1, 3.0, 10, 10),
            cell("a", ScenarioFamily::Batch, "quick", "p1", 2, 4.0, 10, 10),
            cell("b", ScenarioFamily::Batch, "quick", "p1", 2, 5.0, 10, 10),
        ];
        let rows = leaderboard(&cells);
        assert_eq!(rows.len(), 1);
        let e = rows[0].energy;
        assert_eq!(e.n, 2, "two seeds, two samples");
        assert!((e.mean - 7.0).abs() < 1e-12, "samples are 5 and 9");
        assert_eq!((e.min, e.max), (5.0, 9.0));
        assert_eq!(rows[0].qos.requests, 40);
        assert_eq!(rows[0].migrations, 12);
        assert_eq!(rows[0].wakes, 20);
    }

    #[test]
    fn grid_covers_the_cross_product_in_point_major_order() {
        let mut s = dds_scenarios::find("idle-fleet").expect("catalog entry");
        s.days = 1;
        let policies = vec!["drowsy-dc".to_string(), "neat".to_string()];
        let grid = build_grid(&[s], &policies, &[1, 2, 3]);
        assert_eq!(grid.cells.len(), 2 * 2 * 3, "wakes × policies × seeds");
        assert_eq!(grid.points.len(), grid.cells.len());
        for (cell, point) in grid.cells.iter().zip(&grid.points) {
            assert_eq!(cell.policy, point.policy);
            assert_eq!(cell.seed, point.seed);
            assert!(point.spec.config.qos_stream.is_some(), "streaming QoS on");
            assert!(!point.spec.config.track_power_timeline);
        }
        assert_eq!(grid.cells[0].wake, "quick");
        assert_eq!(grid.cells[0].seed, 1);
        assert_eq!(grid.cells[1].seed, 2);
        let quick = &grid.points[0].spec.config;
        let stock = &grid.points[6].spec.config;
        assert_eq!(quick.wake_speed, WakeSpeed::Quick);
        assert_eq!(stock.wake_speed, WakeSpeed::Normal);
    }

    #[test]
    fn csv_header_and_shape_are_stable() {
        let cells = vec![cell(
            "a",
            ScenarioFamily::Idle,
            "quick",
            "p1",
            1,
            1.0,
            10,
            10,
        )];
        let csv = render_csv(&leaderboard(&cells));
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert!(header.starts_with("family,wake,rank,policy,qualified,energy_kwh"));
        let row = lines.next().expect("one row");
        assert!(
            row.starts_with("idle,quick,1,p1,true,1.000000,0.000000,"),
            "{row}"
        );
        assert_eq!(header.split(',').count(), row.split(',').count());
    }
}
