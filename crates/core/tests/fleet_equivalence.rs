//! Cross-crate equivalence suite for the hyperscale fleet engine: the
//! properties `BENCH_scalability.json` pins in CI, exercised as tests
//! through the public API — shard-count invariance, index-vs-scan
//! placement identity, lazy-vs-settled stepping identity over the shard
//! grid, churn determinism across a seed grid and host-hour accounting.
//! The macro-stepping ≡ hourly-walk grids live next to the hourly oracle
//! in `fleet::engine`'s unit tests.

use dds_core::fleet::{PowerState, WorkloadClass};
use dds_core::{run_fleet, FleetConfig, FleetOutcome, FleetSim};

fn cfg(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        churn_per_epoch: 6,
        ..FleetConfig::new(40, 260, 72)
    }
}

fn same_bits(a: &FleetOutcome, b: &FleetOutcome) -> bool {
    a.digest == b.digest
        && a.energy_kwh.to_bits() == b.energy_kwh.to_bits()
        && a.live_vms == b.live_vms
        && a.placements == b.placements
        && a.rejections == b.rejections
        && a.departures == b.departures
        && a.suspends == b.suspends
        && a.resumes == b.resumes
        && a.active_host_hours == b.active_host_hours
        && a.drowsy_host_hours == b.drowsy_host_hours
}

#[test]
fn shard_count_never_changes_fleet_outcomes() {
    for seed in [1, 7, 99] {
        let one = run_fleet(FleetConfig {
            shards: 1,
            ..cfg(seed)
        });
        for shards in [2, 3, 5, 8] {
            let many = run_fleet(FleetConfig {
                shards,
                ..cfg(seed)
            });
            assert!(
                same_bits(&one, &many),
                "seed {seed}: {shards} shards diverged from 1 shard"
            );
        }
    }
}

/// Best-fit by a linear scan over the host columns: the tightest-fitting
/// awake host, else the tightest-fitting drowsy one, lowest slot on
/// ties — the rule the engine's capacity indexes answer in O(1).
fn scan_best_fit(sim: &FleetSim, need: u32) -> Option<u32> {
    let cols = sim.columns();
    let best_fit = |state: PowerState| {
        (0..cols.len() as u32)
            .filter(|&s| cols.power[s as usize] == state && cols.free_vcpus(s) >= need)
            .min_by_key(|&s| (cols.free_vcpus(s), s))
    };
    best_fit(PowerState::Active).or_else(|| best_fit(PowerState::Drowsy))
}

/// Every epoch of a churny run, one probe VM is admitted through the
/// engine's indexes; it must land exactly where the column scan says —
/// or be rejected exactly when the scan finds no host.
#[test]
fn capacity_index_and_linear_scan_place_identically() {
    let (mut awake_picks, mut drowsy_picks) = (0, 0);
    for seed in [1, 7, 99] {
        let cfg = cfg(seed);
        let horizon = cfg.horizon_hours;
        let mut sim = FleetSim::new(cfg);
        for hour in 0..horizon {
            sim.step_hour(hour);
            let need = [1, 2, 4][hour as usize % 3];
            let want = scan_best_fit(&sim, need);
            match want.map(|s| sim.columns().power[s as usize]) {
                Some(PowerState::Active) => awake_picks += 1,
                Some(PowerState::Drowsy) => drowsy_picks += 1,
                None => {}
            }
            let got = sim
                .admit_vm(WorkloadClass::Nightly, hour as u32, need)
                .map(|r| sim.arena().host[r.slot as usize]);
            assert_eq!(
                got, want,
                "seed {seed} hour {hour}: indexed placement of {need} vCPUs diverged from the scan"
            );
        }
    }
    assert!(
        awake_picks > 0 && drowsy_picks > 0,
        "both the awake and the drowsy index must answer \
         ({awake_picks} awake, {drowsy_picks} drowsy picks)"
    );
}

/// Steps `cfg` one epoch at a time, settling every host's skipped hours
/// and digesting the fleet after each epoch; returns the outcome and the
/// per-epoch digest trace.
fn run_settled(cfg: FleetConfig) -> (FleetOutcome, Vec<u64>) {
    let horizon = cfg.horizon_hours;
    let mut sim = FleetSim::new(cfg);
    let trace = (0..horizon)
        .map(|hour| {
            sim.step_hour(hour);
            sim.digest()
        })
        .collect();
    (sim.outcome(), trace)
}

/// The acceptance grid: {lazy horizon run, epoch-by-epoch with every
/// host settled after each epoch} × {1, 4, 6} shards — the inline serial
/// run and the pooled fan-out — over a seed grid and class mixes from
/// uniform to drowsy-heavy to never-idle. Every cell must reproduce the
/// single-shard horizon run bit-for-bit, and the settled runs must agree
/// on the fleet digest after every epoch.
#[test]
fn stepping_and_executor_grid_never_changes_fleet_outcomes() {
    let mixes: [[u32; 4]; 3] = [
        [1, 1, 1, 1], // uniform (the historical draw)
        [1, 4, 4, 1], // drowsy-heavy: office + nightly dominate
        [3, 0, 0, 1], // busy: always-on + bursty only
    ];
    for seed in [1, 7, 99] {
        for mix in mixes {
            let grid = |shards| FleetConfig {
                shards,
                class_mix: mix,
                ..cfg(seed)
            };
            let reference = run_fleet(grid(1));
            let (_, reference_trace) = run_settled(grid(1));
            for shards in [1, 4, 6] {
                let lazy = run_fleet(grid(shards));
                assert!(
                    same_bits(&reference, &lazy),
                    "seed {seed} mix {mix:?}: horizon run at {shards} shards \
                     diverged from the 1-shard reference"
                );
                let (settled, trace) = run_settled(grid(shards));
                assert!(
                    same_bits(&reference, &settled),
                    "seed {seed} mix {mix:?}: settled stepping at {shards} shards \
                     diverged from the 1-shard reference"
                );
                assert_eq!(
                    reference_trace, trace,
                    "seed {seed} mix {mix:?}: per-epoch digests at {shards} shards \
                     diverged from 1 shard"
                );
            }
        }
    }
}

#[test]
fn repeated_runs_are_reproducible_and_seeds_decorrelate() {
    let a = run_fleet(cfg(11));
    let b = run_fleet(cfg(11));
    assert!(same_bits(&a, &b), "same seed must replay identically");
    let c = run_fleet(cfg(12));
    assert_ne!(a.digest, c.digest, "different seeds must diverge");
}

#[test]
fn fleet_outcomes_account_for_every_host_hour() {
    let out = run_fleet(cfg(5));
    assert_eq!(
        out.active_host_hours + out.drowsy_host_hours,
        out.host_hours(),
        "every host spends every hour either active or drowsy"
    );
    assert_eq!(out.live_vms as u64, out.placements - out.departures);
    assert!(
        out.suspends >= out.resumes,
        "a resume needs a prior suspend"
    );
    assert!(out.energy_kwh > 0.0);
}
