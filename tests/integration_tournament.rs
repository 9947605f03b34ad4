//! End-to-end tests of the policy tournament (`dds_bench::tournament`):
//! the bit-exactness harness (serial vs pooled, submission-order
//! invariance), the degenerate single-seed confidence interval, and the
//! golden `--quick` leaderboard for three scenario families.
//!
//! The golden values are pinned to the bit (`f64::to_bits` on energy):
//! the tournament's contract is that the leaderboard is a pure function
//! of the cell *set*, so any change to the simulator, a policy, or the
//! reduction order shows up here as an exact diff, not a tolerance
//! failure.

use dds_bench::tournament::{build_grid, leaderboard, render_csv, run_grid, CellResult};
use dds_core::registry::PolicyRegistry;
use dds_scenarios::Scenario;
use proptest::prelude::*;
use std::sync::OnceLock;

fn scenario(name: &str, days: u64) -> Scenario {
    let mut s = dds_scenarios::find(name).expect("catalog entry ships");
    s.days = days;
    s
}

/// A CI-sized grid spanning two families (Idle, Bursty): 2 scenarios ×
/// 2 wake paths × 3 policies × 1 seed = 12 cells.
fn small_grid() -> (PolicyRegistry, dds_bench::tournament::TournamentGrid) {
    let registry = PolicyRegistry::standard();
    let policies: Vec<String> = ["drowsy-dc", "sleepscale", "tournament-adaptive"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let grid = build_grid(
        &[scenario("idle-fleet", 1), scenario("sla-web-front", 1)],
        &policies,
        &[7],
    );
    (registry, grid)
}

/// The small grid, run serially (`threads = 1`), computed once and
/// shared by the order-invariance and degenerate-CI tests.
fn serial_cells() -> &'static Vec<CellResult> {
    static CELLS: OnceLock<Vec<CellResult>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let (registry, grid) = small_grid();
        run_grid(&registry, &grid, 1)
    })
}

#[test]
fn pooled_run_is_bit_identical_to_serial() {
    let (registry, grid) = small_grid();
    let pooled = run_grid(&registry, &grid, 4);
    let serial = serial_cells();
    assert_eq!(serial.len(), pooled.len());
    for (a, b) in serial.iter().zip(&pooled) {
        assert_eq!(a.key, b.key, "outcomes come back in input order");
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.energy_kwh.to_bits(),
            b.energy_kwh.to_bits(),
            "{}/{}/{}: energy must not depend on the thread count",
            a.key.scenario,
            a.key.wake,
            a.key.policy,
        );
        assert_eq!((a.migrations, a.wakes), (b.migrations, b.wakes));
        assert_eq!(a.qos.total, b.qos.total);
        assert_eq!(a.qos.under_sla, b.qos.under_sla);
        assert_eq!(a.qos.wake_violations, b.qos.wake_violations);
        assert_eq!(a.qos.queue_violations, b.qos.queue_violations);
    }
    // The rendered artifact — what the CI smoke job byte-diffs.
    assert_eq!(
        render_csv(&leaderboard(serial)),
        render_csv(&leaderboard(&pooled)),
        "tournament.csv must be byte-identical serial vs pooled"
    );
}

/// splitmix64-driven Fisher–Yates: a cheap, dependency-free permutation
/// so proptest can explore submission orders.
fn shuffle(cells: &mut [CellResult], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..cells.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any permutation of the finished cells reduces to a bit-identical
    /// leaderboard: same rows, same ranks, same energy bits, same CSV
    /// bytes. Submission order cannot leak into the artifact.
    #[test]
    fn leaderboard_is_invariant_under_submission_order(seed in any::<u64>()) {
        let baseline = leaderboard(serial_cells());
        let mut permuted = serial_cells().clone();
        shuffle(&mut permuted, seed);
        let rows = leaderboard(&permuted);
        prop_assert_eq!(baseline.len(), rows.len());
        for (a, b) in baseline.iter().zip(&rows) {
            prop_assert_eq!(a.family, b.family);
            prop_assert_eq!(a.wake, b.wake);
            prop_assert_eq!(a.rank, b.rank);
            prop_assert_eq!(&a.policy, &b.policy);
            prop_assert_eq!(a.energy.mean.to_bits(), b.energy.mean.to_bits());
            prop_assert_eq!(a.energy.half_width.to_bits(), b.energy.half_width.to_bits());
            prop_assert_eq!(&a.qos, &b.qos);
        }
        prop_assert_eq!(render_csv(&baseline), render_csv(&rows));
    }
}

#[test]
fn single_seed_ci_is_a_point_estimate_not_nan() {
    // One replicate per cell: the n−1 divisor must be gated, the
    // interval collapses onto the mean, and nothing downstream sees a
    // NaN (which would poison every `total_cmp` ranking).
    for row in leaderboard(serial_cells()) {
        assert_eq!(row.energy.n, 1, "{}/{}: one seed", row.family, row.policy);
        assert!(row.energy.mean.is_finite());
        assert_eq!(
            row.energy.half_width.to_bits(),
            0.0_f64.to_bits(),
            "{}/{}: point estimate, exactly zero half-width",
            row.family,
            row.policy,
        );
        assert_eq!(row.energy.min.to_bits(), row.energy.mean.to_bits());
        assert_eq!(row.energy.max.to_bits(), row.energy.mean.to_bits());
    }
}

/// The pinned `--quick` leaderboard (days capped at 2, seeds 42 and 43,
/// every registered policy) for the three single-scenario families:
/// Batch (`batch-farm`), Idle (`idle-fleet`) and Production
/// (`mixed-production`). Family reduction only ever touches the
/// family's own cells, so these rows are exactly the corresponding rows
/// of the full-catalog `tournament --quick` leaderboard.
///
/// The energy strings are shortest-round-trip decimals: parsing them
/// reproduces the exact `f64` bits the run produced.
const GOLDEN: &[(&str, &str, usize, &str, &str)] = &[
    ("batch", "quick", 1, "oasis", "15.0924190073777"),
    (
        "batch",
        "quick",
        2,
        "tournament-adaptive",
        "17.49459138217461",
    ),
    ("batch", "quick", 3, "sleepscale", "18.175010240459393"),
    ("batch", "quick", 4, "drowsy-dc", "20.136737513827313"),
    ("batch", "quick", 5, "sla-aware", "20.136737513827313"),
    ("batch", "quick", 6, "neat-s3", "20.764337976489905"),
    ("batch", "quick", 7, "neat", "27.265183771266592"),
    ("batch", "stock", 1, "oasis", "15.092524578558258"),
    (
        "batch",
        "stock",
        2,
        "tournament-adaptive",
        "17.49459138217461",
    ),
    ("batch", "stock", 3, "sleepscale", "18.175010240459393"),
    ("batch", "stock", 4, "drowsy-dc", "20.13678360714992"),
    ("batch", "stock", 5, "sla-aware", "20.13678360714992"),
    ("batch", "stock", 6, "neat-s3", "20.764344370475605"),
    ("batch", "stock", 7, "neat", "27.265183771266592"),
    ("idle", "quick", 1, "sleepscale", "0.8666375"),
    ("idle", "quick", 2, "tournament-adaptive", "0.8666375"),
    ("idle", "quick", 3, "drowsy-dc", "1.442825"),
    ("idle", "quick", 4, "neat-s3", "1.442825"),
    ("idle", "quick", 5, "sla-aware", "1.442825"),
    ("idle", "quick", 6, "oasis", "3.8442841666666667"),
    ("idle", "quick", 7, "neat", "14.4"),
    ("idle", "stock", 1, "sleepscale", "0.8666375"),
    ("idle", "stock", 2, "tournament-adaptive", "0.8666375"),
    ("idle", "stock", 3, "drowsy-dc", "1.442825"),
    ("idle", "stock", 4, "neat-s3", "1.442825"),
    ("idle", "stock", 5, "sla-aware", "1.442825"),
    ("idle", "stock", 6, "oasis", "3.844325"),
    ("idle", "stock", 7, "neat", "14.4"),
    ("production", "quick", 1, "oasis", "17.98163367130966"),
    ("production", "quick", 2, "sleepscale", "25.0549876623243"),
    (
        "production",
        "quick",
        3,
        "tournament-adaptive",
        "25.524283245195463",
    ),
    ("production", "quick", 4, "neat-s3", "27.490112504030364"),
    ("production", "quick", 5, "drowsy-dc", "27.536326803228096"),
    ("production", "quick", 6, "sla-aware", "27.536326803228096"),
    ("production", "quick", 7, "neat", "36.195003132099544"),
    ("production", "stock", 1, "oasis", "17.982288769145264"),
    ("production", "stock", 2, "sleepscale", "25.0549876623243"),
    (
        "production",
        "stock",
        3,
        "tournament-adaptive",
        "25.524303288502296",
    ),
    ("production", "stock", 4, "neat-s3", "27.49013152775269"),
    ("production", "stock", 5, "drowsy-dc", "27.536378390831775"),
    ("production", "stock", 6, "sla-aware", "27.536378390831775"),
    ("production", "stock", 7, "neat", "36.195003132099544"),
];

#[test]
fn quick_leaderboard_is_pinned_for_three_scenario_families() {
    let registry = PolicyRegistry::standard();
    let policies: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
    assert_eq!(
        policies.len(),
        7,
        "the golden table pins a 7-policy registry; re-pin it when adding a policy"
    );
    let scenarios = [
        scenario("batch-farm", 2),
        scenario("idle-fleet", 2),
        scenario("mixed-production", 2),
    ];
    let grid = build_grid(&scenarios, &policies, &[42, 43]);
    let rows = leaderboard(&run_grid(&registry, &grid, 0));
    assert_eq!(rows.len(), GOLDEN.len());
    for (row, &(family, wake, rank, policy, energy)) in rows.iter().zip(GOLDEN) {
        let want: f64 = energy.parse().expect("golden energies parse");
        assert_eq!(
            (row.family.key(), row.wake, row.rank, row.policy.as_str()),
            (family, wake, rank, policy),
            "ranking drifted from the pinned quick leaderboard"
        );
        assert!(row.qualified, "{family}/{wake}/{policy}: SLA-qualified");
        assert_eq!(
            row.energy.mean.to_bits(),
            want.to_bits(),
            "{family}/{wake}/{policy}: energy {} != pinned {energy}",
            row.energy.mean,
        );
    }
}
