//! Side replays that time the idleness and placement layers in
//! isolation, in lockstep with a traced `Datacenter` run.
//!
//! `Datacenter` keeps its idleness models and planning snapshots
//! private, so the traced loop re-creates them beside the run: fresh
//! [`IdlenessModel`]s fed the same activity levels make the same
//! `raw_score` and `observe_hour` calls per VM-hour as `step_hour` (and
//! so hold the same scores), and at sampled consolidation epochs the
//! planning snapshot is rebuilt from `debug_placement()`, the trace
//! levels and those scores, then indexed and planned by a fresh policy.
//! Plans are timed and discarded; the run itself is never touched.
//!
//! The replay covers a static VM population only. Migration cooldowns
//! are not visible from outside, so the rebuilt snapshot freezes no VM.

use std::time::Instant;

use dds_core::datacenter::{Datacenter, DcConfig};
use dds_core::registry::PolicyRegistry;
use dds_core::spec::{HostSpec, VmSpec};
use dds_idleness::IdlenessModel;
use dds_placement::policy::{ControlPolicy, PlanningView};
use dds_placement::{CapacityIndex, ClusterState, HistoryBook, HostHistories, HostState, VmState};
use dds_sim_core::{CalendarStamp, SimRng};

/// Every this many consolidation epochs, one is re-planned on the side.
const PLACEMENT_SAMPLE_EVERY: u64 = 4;

/// Side-replay state for one `Datacenter` run.
pub struct SideReplay {
    hosts: Vec<HostSpec>,
    vms: Vec<VmSpec>,
    models: Vec<IdlenessModel>,
    scores: Vec<f64>,
    levels: Vec<f64>,
    vm_hist: HistoryBook,
    host_hist: HostHistories,
    policy: Box<dyn ControlPolicy>,
    rng: SimRng,
    relocation_period: u64,
    consolidations: u64,
    /// Accumulated layer timings.
    pub totals: SideTotals,
}

/// What the side replays measured.
#[derive(Debug, Clone, Default)]
pub struct SideTotals {
    /// VM-hours replayed through the idleness models.
    pub vm_hours: u64,
    /// Nanoseconds in `IdlenessModel::observe_hour`.
    pub observe_ns: u128,
    /// Nanoseconds in `IdlenessModel::raw_score`.
    pub score_ns: u128,
    /// Planning rounds re-run on the side.
    pub plans: u64,
    /// Nanoseconds building `ClusterState` snapshots.
    pub snapshot_ns: u128,
    /// Nanoseconds in `CapacityIndex::from_cluster`.
    pub index_ns: u128,
    /// Nanoseconds in `ControlPolicy::plan_indexed`.
    pub plan_ns: u128,
}

impl SideReplay {
    /// A replay of `vms` on `hosts` under the registry policy `policy`.
    pub fn new(
        policy: &str,
        cfg: &DcConfig,
        hosts: Vec<HostSpec>,
        vms: Vec<VmSpec>,
        seed: u64,
    ) -> Self {
        let n = vms.len();
        SideReplay {
            models: (0..n).map(|_| IdlenessModel::new(cfg.im.clone())).collect(),
            scores: vec![0.0; n],
            levels: vec![0.0; n],
            vm_hist: HistoryBook::new(48),
            host_hist: HostHistories::new(),
            policy: PolicyRegistry::standard()
                .build(policy, cfg, None)
                .expect("side replay policy is registered"),
            rng: SimRng::new(seed).stream("perfbench-side"),
            relocation_period: cfg.relocation_period_hours.max(1),
            consolidations: 0,
            totals: SideTotals::default(),
            hosts,
            vms,
        }
    }

    /// Before epoch `h`: score every VM for the hour, as `step_hour` does
    /// first, and re-plan a sampled consolidation epoch.
    pub fn before_epoch(&mut self, h: u64, dc: &Datacenter) {
        for (level, vm) in self.levels.iter_mut().zip(&self.vms) {
            *level = vm.trace.level_at_hour(h);
        }
        let stamp = CalendarStamp::from_hour_index(h);
        let t = Instant::now();
        for (score, im) in self.scores.iter_mut().zip(&self.models) {
            *score = im.raw_score(stamp);
        }
        self.totals.score_ns += t.elapsed().as_nanos();
        if h.is_multiple_of(self.relocation_period) {
            if self.consolidations.is_multiple_of(PLACEMENT_SAMPLE_EVERY) {
                self.replan(dc);
            }
            self.consolidations += 1;
        }
    }

    /// After epoch `h`: the models observe the hour and the planners'
    /// demand histories advance, against the post-consolidation placement.
    pub fn after_epoch(&mut self, h: u64, dc: &Datacenter) {
        let stamp = CalendarStamp::from_hour_index(h);
        let t = Instant::now();
        for (im, &level) in self.models.iter_mut().zip(&self.levels) {
            im.observe_hour(stamp, level);
        }
        self.totals.observe_ns += t.elapsed().as_nanos();
        self.totals.vm_hours += self.vms.len() as u64;
        let mut demand = vec![0.0; self.hosts.len()];
        for (vm, host) in dc.debug_placement().into_iter().take(self.vms.len()) {
            let spec = &self.vms[vm.index()];
            let d = self.levels[vm.index()] * spec.vcpus;
            self.vm_hist.push(vm, d);
            demand[host.index()] += d;
        }
        for (host, d) in self.hosts.iter().zip(demand) {
            self.host_hist.push(host.id, d / host.cpu_cores.max(1e-9));
        }
    }

    fn replan(&mut self, dc: &Datacenter) {
        let t = Instant::now();
        let mut hosts: Vec<HostState> = self
            .hosts
            .iter()
            .map(|h| HostState {
                id: h.id,
                cpu_capacity: h.cpu_cores,
                ram_capacity: h.ram_mb,
                max_vms: h.max_vms,
                vms: Vec::new(),
            })
            .collect();
        for (vm, host) in dc.debug_placement().into_iter().take(self.vms.len()) {
            let spec = &self.vms[vm.index()];
            hosts[host.index()].vms.push(VmState {
                id: vm,
                vcpus: spec.vcpus,
                ram_mb: spec.ram_mb,
                cpu_demand: self.levels[vm.index()] * spec.vcpus,
                ip_score: self.scores[vm.index()],
            });
        }
        let state = ClusterState::new(hosts);
        let t_index = Instant::now();
        let index = CapacityIndex::from_cluster(&state);
        let t_plan = Instant::now();
        let plan = self.policy.plan_indexed(
            0,
            &PlanningView {
                state: &state,
                vm_hist: &self.vm_hist,
                host_hist: &self.host_hist,
                classes: &[],
            },
            &index,
            &mut self.rng,
        );
        let done = Instant::now();
        std::hint::black_box(plan);
        self.totals.snapshot_ns += (t_index - t).as_nanos();
        self.totals.index_ns += (t_plan - t_index).as_nanos();
        self.totals.plan_ns += (done - t_plan).as_nanos();
        self.totals.plans += 1;
    }
}
