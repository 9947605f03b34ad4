//! The sharded epoch loop over the struct-of-arrays fleet.
//!
//! Each simulated hour is one **epoch** with three phases:
//!
//! 1. **Churn** (main thread): departures and arrivals drawn from the one
//!    seeded RNG stream, placed best-fit through the incremental
//!    [`CapacityIndex`] pair — one index over awake hosts, one over
//!    drowsy hosts — in O(1) amortized work per decision.
//! 2. **Advance** (sharded): host slots split into contiguous ranges of
//!    disjoint `&mut` columns, fanned over the persistent
//!    [`WorkerPool`]. A host's hour depends only on its own columns and
//!    the (read-only) VM arena, so shards never race. Per-host energy
//!    accumulates into the host's own `f64` cell in hour order — fleet
//!    totals are an ordered reduce at the end, making every statistic
//!    bit-identical for any shard count.
//! 3. **Merge** (main thread, shard order): power transitions reported by
//!    each shard are applied to the capacity indexes (suspend = park in
//!    the awake index / unpark in the asleep one; wake = the reverse).
//!
//! The host model is the paper's drowsy discipline at fleet granularity:
//! an active host with zero demanded vCPUs suspends to S3 and records the
//! earliest **waking date** among its residents' timers; a drowsy host
//! resumes on traffic or when its waking date arrives, paying the
//! transition energy of a suspend/resume cycle.
//!
//! ## Quiescent-host macro-stepping
//!
//! Re-advancing every host every hour would cost
//! `O(hosts × residents)` per epoch even when the whole fleet is parked.
//! The engine instead exploits the *quiescence horizon*: after advancing
//! a host at hour *h*, it computes `next_change` — the earliest hour at
//! which the host's demanded vCPUs can change (the minimum
//! [`next_flip_hour`](super::workload::next_flip_hour) over its
//! residents, clamped by the waking date for drowsy hosts) — and does not
//! touch the host again until that hour arrives or churn places/removes
//! a resident. The skipped gap is settled lazily in closed form: `K`
//! drowsy hours become one integer add (drowsy energy is accounted as
//! `drowsy_hours × s3_w` at reporting time, so the closed form is
//! *exact*), and `K` steady active hours replay the identical per-hour
//! energy add in a tight loop, preserving the f64 accumulation grouping.
//! Per shard, due hosts are tracked in a 256-bucket calendar wheel
//! (every horizon is at most 169 hours out, so `hour % 256` addressing
//! is collision-free): O(1) pushes, one bucket drained per simulated
//! hour. Candidates for an hour are processed in ascending slot order,
//! so transition lists — and therefore the merge — are ordered exactly
//! as an hourly walk over every host would order them. That walk
//! survives as a test oracle: this module's tests pin the FNV-1a state
//! digest bit-identical to it for any shard count.

use std::time::Instant;

use dds_placement::capacity::IndexOps;
use dds_placement::CapacityIndex;
use dds_power::HostPowerModel;
use dds_sim_core::qos::QosReport;
use dds_sim_core::{SimRng, WorkerPool};
use dds_telemetry::{
    Counter, EpochRecord, FlightRecorder, JsonObject, MetricKind, MetricsRegistry, SpanRecorder,
};

use super::arena::{link, unlink, HostColumns, PowerState, VmArena, VmRef, NO_SLOT, NO_WAKE};
use super::workload::{is_active, next_active_hour, next_idle_hour, WorkloadClass};

/// Request-level QoS accounting for the fleet engine — the streaming
/// pipeline at hyperscale granularity.
///
/// The fleet model has no per-VM traces or RNG streams, so its request
/// load is **closed-form**: every active vCPU serves
/// `requests_per_vcpu_hour` requests per hour at `service_ms` each, and
/// every *traffic wake* — a drowsy host resumed by demand **before** its
/// predicted waking date (churn placed an active VM on it; date-exact
/// resumes are anticipated timer wakes, served warm) — charges its
/// triggering request `resume_ms + service_ms`. Both terms are exact
/// integer accumulation driven by state transitions the engine already
/// computes, so the report is bit-identical across shard counts, costs
/// O(transitions) per epoch, and leaves the run's physics (energy,
/// digests) untouched.
#[derive(Debug, Clone)]
pub struct FleetQosConfig {
    /// Steady request rate per demanded (active) vCPU-hour.
    pub requests_per_vcpu_hour: u64,
    /// Service time of a warm request, in milliseconds.
    pub service_ms: u64,
    /// The SLA threshold, in milliseconds.
    pub sla_ms: u64,
    /// Resume latency a traffic-wake trigger pays, in milliseconds.
    pub resume_ms: u64,
}

impl FleetQosConfig {
    /// The paper's quick-resume web-search setup: 60 ms service, 200 ms
    /// SLA, 800 ms S3 resume, and the DC profile's 0.1 peak rps scaled
    /// to one vCPU-hour (360 requests).
    pub fn paper_default() -> Self {
        FleetQosConfig {
            requests_per_vcpu_hour: 360,
            service_ms: 60,
            sla_ms: 200,
            resume_ms: 800,
        }
    }
}

/// Fleet simulation parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Host count.
    pub hosts: usize,
    /// Initial VM arrivals (some may be rejected if the fleet is full).
    pub vms: usize,
    /// Identical whole-vCPU capacity per host.
    pub vcpus_per_host: u32,
    /// Simulated hours.
    pub horizon_hours: u64,
    /// Shard count for the advance phase; `0` = one per available core.
    pub shards: usize,
    /// Master seed; all randomness flows through this one stream.
    pub seed: u64,
    /// VM departures and arrivals per epoch.
    pub churn_per_epoch: usize,
    /// Arrival weights per [`WorkloadClass`] (in `WorkloadClass::ALL`
    /// order). `[1, 1, 1, 1]` reproduces the historical uniform draw
    /// bit-for-bit; skewing towards office/nightly classes builds the
    /// drowsy-heavy fleets where macro-stepping shines.
    pub class_mix: [u32; 4],
    /// Request-level QoS ride-along; `None` (the default) runs the
    /// engine exactly as before, digest included.
    pub qos: Option<FleetQosConfig>,
    /// Flight-recorder capacity in epochs: the last `trace_epochs`
    /// epochs are retained as structured [`EpochRecord`]s (transition
    /// counts, churn deltas, per-shard and merged digests). `0` (the
    /// default) disables recording entirely — the hooks stay wired but
    /// every push is a no-op.
    pub trace_epochs: usize,
}

impl FleetConfig {
    /// A config with the defaults the scalability bench sweeps around:
    /// 16-vCPU hosts, single shard, uniform class mix.
    pub fn new(hosts: usize, vms: usize, horizon_hours: u64) -> Self {
        FleetConfig {
            hosts,
            vms,
            vcpus_per_host: 16,
            horizon_hours,
            shards: 1,
            seed: 42,
            churn_per_epoch: 32,
            class_mix: [1, 1, 1, 1],
            qos: None,
            trace_epochs: 0,
        }
    }
}

/// Everything a finished fleet run reports. All fields except the
/// wall-clock timings are bit-identical across shard counts.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Host count simulated.
    pub hosts: usize,
    /// Requested initial VM arrivals.
    pub vms_target: usize,
    /// Simulated hours.
    pub horizon_hours: u64,
    /// Shards used for the advance phase.
    pub shards: usize,
    /// VMs resident at the end.
    pub live_vms: usize,
    /// Successful placements (initial + churn arrivals).
    pub placements: u64,
    /// Arrivals rejected for lack of capacity.
    pub rejections: u64,
    /// Departures drained by churn.
    pub departures: u64,
    /// Host suspend transitions.
    pub suspends: u64,
    /// Host resume transitions.
    pub resumes: u64,
    /// Host-hours spent in S0.
    pub active_host_hours: u64,
    /// Host-hours spent in S3.
    pub drowsy_host_hours: u64,
    /// Fleet energy in kWh (ordered per-host reduce; bit-stable).
    pub energy_kwh: f64,
    /// Request-level QoS accounting, when [`FleetConfig::qos`] asked for
    /// it. Bit-identical across shard counts, like everything above.
    pub qos: Option<QosReport>,
    /// FNV-1a fingerprint of the final fleet state and counters.
    pub digest: u64,
    /// Wall-clock spent drawing and placing churn (arrivals/departures).
    pub churn_ms: f64,
    /// Wall-clock spent in the shard-ordered merge and capacity-index
    /// maintenance (the control epochs minus churn).
    pub control_ms: f64,
    /// Wall-clock spent advancing host shards.
    pub advance_ms: f64,
    /// Wall-clock spent inside placement decisions (a subset of
    /// `churn_ms` — the index query time alone).
    pub placement_ms: f64,
    /// Wall-clock spent folding the hour's QoS load into the streaming
    /// report (a subset of `control_ms`).
    pub qos_fold_ms: f64,
}

impl FleetOutcome {
    /// Total host-hours simulated — the throughput numerator.
    pub fn host_hours(&self) -> u64 {
        self.hosts as u64 * self.horizon_hours
    }

    /// Total wall-clock attributed to the epoch loop, in milliseconds.
    pub fn epoch_ms(&self) -> f64 {
        self.churn_ms + self.control_ms + self.advance_ms
    }
}

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Read-only context shared by every shard during the advance phase.
struct ShardCtx<'a> {
    hour: u64,
    vcpu_capacity: &'a [u32],
    resident_head: &'a [u32],
    vm_class: &'a [WorkloadClass],
    vm_phase: &'a [u32],
    vm_vcpus: &'a [u32],
    vm_next: &'a [u32],
    idle_w: f64,
    peak_w: f64,
    /// Energy of one suspend/resume cycle in Wh.
    cycle_wh: f64,
}

/// One shard's disjoint `&mut` window over the mutable host columns.
struct ShardView<'a> {
    base: usize,
    power: &'a mut [PowerState],
    waking_date: &'a mut [u64],
    demand: &'a mut [u32],
    active_hours: &'a mut [u64],
    drowsy_hours: &'a mut [u64],
    wakes: &'a mut [u64],
    energy_wh: &'a mut [f64],
}

/// Calendar-wheel size in hours. Every `next_change` horizon is at most
/// 169 hours out (the bursty forward-scan bound; office weekend gaps
/// are ≤ 82 h, nightly timers ≤ 24 h), so `hour % WHEEL_SLOTS`
/// addressing never collides and each simulated hour drains exactly one
/// bucket.
const WHEEL_SLOTS: usize = 256;

/// A per-shard calendar wheel: bucket `t % WHEEL_SLOTS` holds the slots
/// whose `next_change` horizon is hour `t`. Pushes are O(1); one bucket
/// is drained per simulated hour. Entries superseded by churn touches
/// go stale and are dropped at drain time (`next_change` is the truth).
struct CalendarWheel {
    buckets: Vec<Vec<u32>>,
}

impl CalendarWheel {
    fn new() -> Self {
        CalendarWheel {
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
        }
    }

    fn push(&mut self, due: u64, hour: u64, slot: u32) {
        debug_assert!(
            due > hour && due - hour < WHEEL_SLOTS as u64,
            "next_change horizon {due} out of wheel range at hour {hour}"
        );
        self.buckets[due as usize % WHEEL_SLOTS].push(slot);
    }
}

/// Per-host resident aggregate keyed by the workload classes'
/// **canonical phases**. [`is_active`] and the flip horizons are pure in
/// `(class, phase)` — office activity collapses on `phase % 3`, nightly
/// on `phase % 24`, always-on on nothing — so same-key residents are
/// indistinguishable to the power state machine, and a host's demand and
/// flip horizon reduce over a handful of groups instead of every
/// resident. Both reductions are order-free (`u32` sum, `u64` min), so
/// the group walk is bit-identical to the resident walk. Bursty phases
/// do not collapse (the activity hash keys on the full phase); hosts
/// holding bursty residents fall back to the naive walk.
#[derive(Clone, Default)]
struct HostAgg {
    /// Always-on vCPUs (active every hour, no flip constraint).
    always: u32,
    /// Bursty resident count — any nonzero forces the naive walk.
    bursty: u32,
    /// Total nightly vCPUs, gating the 24-bucket walk.
    nightly_total: u32,
    /// Office vCPUs by window shift (`phase % 3`).
    office: [u32; 3],
    /// Nightly vCPUs by firing hour (`phase % 24`).
    nightly: [u32; 24],
}

impl HostAgg {
    fn add(&mut self, class: WorkloadClass, phase: u32, vcpus: u32) {
        match class {
            WorkloadClass::AlwaysOn => self.always += vcpus,
            WorkloadClass::Office => self.office[(phase % 3) as usize] += vcpus,
            WorkloadClass::Nightly => {
                self.nightly[(phase % 24) as usize] += vcpus;
                self.nightly_total += vcpus;
            }
            WorkloadClass::Bursty => self.bursty += 1,
        }
    }

    fn sub(&mut self, class: WorkloadClass, phase: u32, vcpus: u32) {
        match class {
            WorkloadClass::AlwaysOn => self.always -= vcpus,
            WorkloadClass::Office => self.office[(phase % 3) as usize] -= vcpus,
            WorkloadClass::Nightly => {
                self.nightly[(phase % 24) as usize] -= vcpus;
                self.nightly_total -= vcpus;
            }
            WorkloadClass::Bursty => self.bursty -= 1,
        }
    }
}

/// One shard's disjoint window over the macro-stepping state: settle
/// marks, `next_change` horizons, the shard's calendar wheel, the
/// churn-touched slots that fall in its range, and the (read-only,
/// full-fleet) class-phase aggregates.
struct MacroShard<'a> {
    settled: &'a mut [u64],
    next_change: &'a mut [u64],
    wheel: &'a mut CalendarWheel,
    touched: &'a [u32],
    agg: &'a [HostAgg],
}

/// Power transitions a shard reports for the shard-ordered merge.
struct ShardOutcome {
    suspended: Vec<u32>,
    woken: Vec<u32>,
    /// Subset of `woken` resumed by demand before their waking date —
    /// the wakes the QoS ride-along charges a trigger request.
    traffic_woken: Vec<u32>,
    /// Net change this epoch in the shard's summed demanded vCPUs. An
    /// exact integer, so the fleet-wide demand sum — the QoS steady-rate
    /// numerator — reduces order-free across shards.
    demand_delta: i64,
}

impl ShardOutcome {
    fn new() -> Self {
        ShardOutcome {
            suspended: Vec::new(),
            woken: Vec::new(),
            traffic_woken: Vec::new(),
            demand_delta: 0,
        }
    }
}

/// The hourly oracle: advances every host in `view` by one hour with a
/// full resident walk. Macro-stepping must reproduce it bit-for-bit.
#[cfg(test)]
fn advance_shard(ctx: &ShardCtx<'_>, view: &mut ShardView<'_>) -> ShardOutcome {
    let mut out = ShardOutcome::new();
    for i in 0..view.power.len() {
        let slot = (view.base + i) as u32;
        // Demanded vCPUs: walk the intrusive resident list.
        let mut demand = 0u32;
        let mut cur = ctx.resident_head[slot as usize];
        while cur != NO_SLOT {
            let v = cur as usize;
            demand += super::workload::active_vcpus(
                ctx.vm_class[v],
                ctx.vm_phase[v],
                ctx.vm_vcpus[v],
                ctx.hour,
            );
            cur = ctx.vm_next[v];
        }
        out.demand_delta += demand as i64 - view.demand[i] as i64;
        view.demand[i] = demand;
        let cap = ctx.vcpu_capacity[slot as usize].max(1) as f64;
        match view.power[i] {
            PowerState::Active if demand == 0 => {
                // Suspend at the top of the hour; record the earliest
                // resident timer as the waking date. Drowsy energy is
                // `drowsy_hours × s3_w`, accounted at reporting time —
                // an exact integer accumulation, so macro-stepping can
                // settle parked stretches in closed form.
                let mut wake = NO_WAKE;
                let mut cur = ctx.resident_head[slot as usize];
                while cur != NO_SLOT {
                    let v = cur as usize;
                    wake = wake.min(next_active_hour(ctx.vm_class[v], ctx.vm_phase[v], ctx.hour));
                    cur = ctx.vm_next[v];
                }
                view.power[i] = PowerState::Drowsy;
                view.waking_date[i] = wake;
                view.drowsy_hours[i] += 1;
                out.suspended.push(slot);
            }
            PowerState::Active => {
                view.active_hours[i] += 1;
                let util = (demand as f64 / cap).min(1.0);
                view.energy_wh[i] += ctx.idle_w + (ctx.peak_w - ctx.idle_w) * util;
            }
            PowerState::Drowsy if demand > 0 || ctx.hour >= view.waking_date[i] => {
                // Resume on traffic or the waking date; charge the
                // transition cycle on top of the active hour.
                if demand > 0 && ctx.hour < view.waking_date[i] {
                    out.traffic_woken.push(slot);
                }
                view.power[i] = PowerState::Active;
                view.waking_date[i] = NO_WAKE;
                view.wakes[i] += 1;
                view.active_hours[i] += 1;
                let util = (demand as f64 / cap).min(1.0);
                view.energy_wh[i] += ctx.cycle_wh + ctx.idle_w + (ctx.peak_w - ctx.idle_w) * util;
                out.woken.push(slot);
            }
            PowerState::Drowsy => {
                view.drowsy_hours[i] += 1;
            }
        }
    }
    out
}

/// Settles host `i` (shard-local index) up to — excluding — `to_hour`:
/// replays the hours macro-stepping skipped, in closed form. Valid only
/// while the host's quiescence invariant holds (no demand change, no
/// state transition in the gap), which `next_change` guarantees.
fn settle_host(
    view: &mut ShardView<'_>,
    settled: &mut [u64],
    i: usize,
    to_hour: u64,
    idle_w: f64,
    peak_w: f64,
    cap: f64,
) {
    let from = settled[i];
    if from >= to_hour {
        return;
    }
    let gap = to_hour - from;
    match view.power[i] {
        // A parked stretch is a pure integer add: drowsy energy is
        // derived from the hour count, so this is exactly the hourly
        // walk's result.
        PowerState::Drowsy => view.drowsy_hours[i] += gap,
        PowerState::Active => {
            // A steady active stretch repeats one identical per-hour
            // energy add. Replay the adds so the f64 accumulation
            // grouping matches the hourly walk bit-for-bit (a single
            // `gap × per_hour` multiply would round differently).
            view.active_hours[i] += gap;
            let util = (view.demand[i] as f64 / cap).min(1.0);
            let per_hour = idle_w + (peak_w - idle_w) * util;
            for _ in 0..gap {
                view.energy_wh[i] += per_hour;
            }
        }
    }
    settled[i] = to_hour;
}

/// Demand and earliest flip horizon of host `slot` at `ctx.hour`, in one
/// fused pass. Hosts without bursty residents reduce over their
/// [`HostAgg`] class-phase groups (a handful of `is_active` probes
/// instead of one per resident); bursty hosts walk the resident list.
/// Either path yields exactly the per-resident sums and minima.
fn demand_and_flip(ctx: &ShardCtx<'_>, slot: u32, agg: &HostAgg) -> (u32, u64) {
    if agg.bursty > 0 {
        let mut demand = 0u32;
        let mut min_flip = NO_WAKE;
        let mut cur = ctx.resident_head[slot as usize];
        while cur != NO_SLOT {
            let v = cur as usize;
            let (class, phase) = (ctx.vm_class[v], ctx.vm_phase[v]);
            if is_active(class, phase, ctx.hour) {
                demand += ctx.vm_vcpus[v];
                min_flip = min_flip.min(next_idle_hour(class, phase, ctx.hour));
            } else {
                min_flip = min_flip.min(next_active_hour(class, phase, ctx.hour));
            }
            cur = ctx.vm_next[v];
        }
        return (demand, min_flip);
    }
    let mut demand = agg.always;
    let mut min_flip = NO_WAKE;
    for p in 0..3u32 {
        let w = agg.office[p as usize];
        if w == 0 {
            continue;
        }
        if is_active(WorkloadClass::Office, p, ctx.hour) {
            demand += w;
            min_flip = min_flip.min(next_idle_hour(WorkloadClass::Office, p, ctx.hour));
        } else {
            min_flip = min_flip.min(next_active_hour(WorkloadClass::Office, p, ctx.hour));
        }
    }
    if agg.nightly_total > 0 {
        for t in 0..24u32 {
            let w = agg.nightly[t as usize];
            if w == 0 {
                continue;
            }
            if is_active(WorkloadClass::Nightly, t, ctx.hour) {
                demand += w;
                min_flip = min_flip.min(next_idle_hour(WorkloadClass::Nightly, t, ctx.hour));
            } else {
                min_flip = min_flip.min(next_active_hour(WorkloadClass::Nightly, t, ctx.hour));
            }
        }
    }
    (demand, min_flip)
}

/// Advances host `i` (shard-local index) through hour `ctx.hour` with a
/// fused group (or resident) walk via [`demand_and_flip`], reproducing
/// the hourly walk's per-hour transitions exactly. Returns the host's
/// new `next_change` horizon.
fn advance_host_hour(
    ctx: &ShardCtx<'_>,
    view: &mut ShardView<'_>,
    i: usize,
    out: &mut ShardOutcome,
    agg: &HostAgg,
) -> u64 {
    let slot = (view.base + i) as u32;
    let (demand, min_flip) = demand_and_flip(ctx, slot, agg);
    out.demand_delta += demand as i64 - view.demand[i] as i64;
    view.demand[i] = demand;
    let cap = ctx.vcpu_capacity[slot as usize].max(1) as f64;
    match view.power[i] {
        PowerState::Active if demand == 0 => {
            // All residents idle, so every flip is a `next_active`:
            // `min_flip` IS the waking date the hourly walk records.
            view.power[i] = PowerState::Drowsy;
            view.waking_date[i] = min_flip;
            view.drowsy_hours[i] += 1;
            out.suspended.push(slot);
            min_flip
        }
        PowerState::Active => {
            view.active_hours[i] += 1;
            let util = (demand as f64 / cap).min(1.0);
            view.energy_wh[i] += ctx.idle_w + (ctx.peak_w - ctx.idle_w) * util;
            min_flip
        }
        PowerState::Drowsy if demand > 0 || ctx.hour >= view.waking_date[i] => {
            if demand > 0 && ctx.hour < view.waking_date[i] {
                out.traffic_woken.push(slot);
            }
            view.power[i] = PowerState::Active;
            view.waking_date[i] = NO_WAKE;
            view.wakes[i] += 1;
            view.active_hours[i] += 1;
            let util = (demand as f64 / cap).min(1.0);
            view.energy_wh[i] += ctx.cycle_wh + ctx.idle_w + (ctx.peak_w - ctx.idle_w) * util;
            out.woken.push(slot);
            if demand == 0 {
                // A stale-timer wake: the host sits empty-handed and
                // will suspend again next hour.
                ctx.hour + 1
            } else {
                min_flip
            }
        }
        PowerState::Drowsy => {
            view.drowsy_hours[i] += 1;
            view.waking_date[i].min(min_flip)
        }
    }
}

/// The macro-stepping advance: settle and re-advance only the hosts due
/// this hour (one drained wheel bucket) or touched by churn; everyone
/// else stays on their quiescence horizon. Candidates are processed in
/// ascending slot order so the reported transitions match the hourly
/// walk's ordering.
fn advance_shard_macro(
    ctx: &ShardCtx<'_>,
    view: &mut ShardView<'_>,
    m: MacroShard<'_>,
) -> ShardOutcome {
    let mut out = ShardOutcome::new();
    // Entries superseded by a churn touch (which clamps `next_change`
    // and reports through `touched`) are stale; duplicates from a
    // touch-then-repush cycle land in the same bucket and dedup below.
    let mut due = std::mem::take(&mut m.wheel.buckets[ctx.hour as usize % WHEEL_SLOTS]);
    due.retain(|&slot| m.next_change[slot as usize - view.base] == ctx.hour);
    due.extend_from_slice(m.touched);
    due.sort_unstable();
    due.dedup();
    for &slot in &due {
        let i = slot as usize - view.base;
        if m.next_change[i] > ctx.hour {
            // A touched host whose recomputed horizon already moved past
            // this hour (possible when churn touches it twice).
            continue;
        }
        debug_assert!(m.settled[i] <= ctx.hour, "host settled past the epoch");
        let cap = ctx.vcpu_capacity[slot as usize].max(1) as f64;
        settle_host(view, m.settled, i, ctx.hour, ctx.idle_w, ctx.peak_w, cap);
        let nc = advance_host_hour(ctx, view, i, &mut out, &m.agg[slot as usize]);
        m.settled[i] = ctx.hour + 1;
        m.next_change[i] = nc;
        if nc != NO_WAKE {
            m.wheel.push(nc, ctx.hour, slot);
        }
    }
    out
}

/// Lazily-settled per-host horizons for macro-stepping.
struct MacroState {
    /// Next hour each host still has to simulate (hours before it are
    /// fully accounted).
    settled: Vec<u64>,
    /// Earliest hour each host's demand can change; hosts are only
    /// re-advanced at this hour or on churn.
    next_change: Vec<u64>,
    /// Per-shard calendar wheel of due hosts.
    wheels: Vec<CalendarWheel>,
    /// Hosts touched by churn since the last advance (unsorted, may
    /// contain duplicates until the advance canonicalizes it).
    touched: Vec<u32>,
    /// Per-host class-phase aggregates, maintained on admit/evict.
    agg: Vec<HostAgg>,
}

impl MacroState {
    /// Every host starts due at hour 0: the first epoch advances the
    /// whole fleet. One calendar wheel per shard fixes the shard count.
    fn new(hosts: usize, shards: usize) -> Self {
        let per = hosts.div_ceil(shards).max(1);
        let wheels: Vec<CalendarWheel> = (0..shards)
            .map(|s| {
                let lo = s * per;
                let hi = ((s + 1) * per).min(hosts);
                let mut wheel = CalendarWheel::new();
                wheel.buckets[0] = (lo..hi).map(|slot| slot as u32).collect();
                wheel
            })
            .collect();
        MacroState {
            settled: vec![0; hosts],
            next_change: vec![0; hosts],
            wheels,
            touched: Vec::new(),
            agg: vec![HostAgg::default(); hosts],
        }
    }
}

/// Static handles into the sim's per-run [`MetricsRegistry`]: resolved
/// once at construction so every emission on the hot path is an atomic
/// add, never a name lookup. All handles are [`MetricKind::Logical`] —
/// their totals are order-independent sums of simulation events, so the
/// logical snapshot is byte-identical across shard counts.
struct FleetMetrics {
    placements: Counter,
    rejections: Counter,
    departures: Counter,
    suspends: Counter,
    resumes: Counter,
    traffic_wakes: Counter,
    qos_requests: Counter,
    epochs: Counter,
}

impl FleetMetrics {
    fn register(reg: &MetricsRegistry) -> Self {
        let c = |name: &str| reg.counter(name, MetricKind::Logical);
        FleetMetrics {
            placements: c("fleet.placements"),
            rejections: c("fleet.rejections"),
            departures: c("fleet.departures"),
            suspends: c("fleet.suspends"),
            resumes: c("fleet.resumes"),
            traffic_wakes: c("fleet.traffic_wakes"),
            qos_requests: c("fleet.qos_requests"),
            epochs: c("fleet.epochs"),
        }
    }
}

/// The sharded struct-of-arrays fleet simulation.
pub struct FleetSim {
    cfg: FleetConfig,
    hosts: HostColumns,
    vms: VmArena,
    live: Vec<VmRef>,
    /// Index over hosts in S0 (drowsy hosts parked).
    awake: CapacityIndex,
    /// Index over hosts in S3 (active hosts parked).
    asleep: CapacityIndex,
    rng: SimRng,
    /// Next hour to simulate (hours stepped so far).
    hour: u64,
    mac: MacroState,
    /// Test-only: advance with the hourly oracle walk instead of
    /// macro-stepping (see [`FleetSim::hourly_oracle`]).
    #[cfg(test)]
    hourly: bool,
    placements: u64,
    rejections: u64,
    departures: u64,
    suspends: u64,
    resumes: u64,
    idle_w: f64,
    peak_w: f64,
    s3_w: f64,
    cycle_wh: f64,
    /// Fleet-wide demanded vCPUs for the hour last advanced — the QoS
    /// steady-rate numerator, maintained by exact integer deltas.
    qos_demand_vcpus: u64,
    /// Run-wide streaming QoS accumulation (`cfg.qos` runs only).
    qos: Option<QosReport>,
    churn_ns: u128,
    control_ns: u128,
    advance_ns: u128,
    /// Time inside placement decisions (subset of `churn_ns`).
    placement_ns: u128,
    /// Time folding QoS load into the report (subset of `control_ns`).
    qos_fold_ns: u128,
    /// Cached state digest, invalidated on any mutation.
    digest_cache: Option<u64>,
    /// Full digest recomputations (regression-tested cache behaviour).
    digest_computes: u64,
    /// Per-run metrics registry (logical counters only on the hot path).
    metrics: MetricsRegistry,
    /// Resolved handles into `metrics`.
    fm: FleetMetrics,
    /// Bounded ring of per-epoch records; disabled at `trace_epochs: 0`.
    recorder: FlightRecorder,
    /// Per-phase wall-clock aggregation (churn, placement, advance,
    /// merge, QoS fold).
    spans: SpanRecorder,
}

impl FleetSim {
    /// Builds the fleet and admits the initial VM population.
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(
            cfg.class_mix.iter().any(|&w| w > 0),
            "class_mix needs at least one positive weight"
        );
        let model = HostPowerModel::paper_default();
        let cycle_secs =
            (model.timings.suspend_latency + model.timings.resume_normal).as_secs_f64();
        // Hosts boot active: placeable in the awake index, parked in
        // the asleep one.
        let caps = vec![cfg.vcpus_per_host; cfg.hosts];
        let awake = CapacityIndex::new(&caps);
        let mut asleep = CapacityIndex::new(&caps);
        for slot in 0..cfg.hosts {
            asleep.park(slot as u32);
        }
        let shards = if cfg.shards == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.shards
        };
        let metrics = MetricsRegistry::new();
        let fm = FleetMetrics::register(&metrics);
        let recorder = FlightRecorder::new(cfg.trace_epochs);
        let mut sim = FleetSim {
            hosts: HostColumns::new(cfg.hosts, cfg.vcpus_per_host),
            vms: VmArena::new(),
            live: Vec::with_capacity(cfg.vms),
            awake,
            asleep,
            rng: SimRng::new(cfg.seed).stream("fleet"),
            hour: 0,
            mac: MacroState::new(cfg.hosts, shards.clamp(1, cfg.hosts.max(1))),
            #[cfg(test)]
            hourly: false,
            placements: 0,
            rejections: 0,
            departures: 0,
            suspends: 0,
            resumes: 0,
            idle_w: model.idle_watts,
            peak_w: model.peak_watts,
            s3_w: model.suspended_watts,
            cycle_wh: model.transition_watts * cycle_secs / 3600.0,
            qos_demand_vcpus: 0,
            qos: None,
            churn_ns: 0,
            control_ns: 0,
            advance_ns: 0,
            placement_ns: 0,
            qos_fold_ns: 0,
            digest_cache: None,
            digest_computes: 0,
            metrics,
            fm,
            recorder,
            spans: SpanRecorder::new(),
            cfg,
        };
        sim.qos = sim.cfg.qos.as_ref().map(|q| QosReport::new(q.sla_ms));
        for _ in 0..sim.cfg.vms {
            sim.arrival();
        }
        // Every host is already due at hour 0; the initial placements
        // need no extra touch records.
        sim.mac.touched.clear();
        sim
    }

    /// A sim that advances every host every hour with a full resident
    /// walk: the oracle macro-stepping is pinned against.
    #[cfg(test)]
    fn hourly_oracle(cfg: FleetConfig) -> Self {
        let mut sim = Self::new(cfg);
        sim.hourly = true;
        sim
    }

    /// Final host columns (inspection and digests). Call
    /// [`FleetSim::sync`] first so lazily-settled counters are up to
    /// date.
    pub fn columns(&self) -> &HostColumns {
        &self.hosts
    }

    /// The VM arena (inspection).
    pub fn arena(&self) -> &VmArena {
        &self.vms
    }

    /// Successful placements so far.
    pub fn placements(&self) -> u64 {
        self.placements
    }

    /// Departures so far.
    pub fn departures(&self) -> u64 {
        self.departures
    }

    /// Rejected arrivals so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// The per-run metrics registry (logical event counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The epoch flight recorder (disabled unless
    /// [`FleetConfig::trace_epochs`] is positive).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The per-phase wall-clock span aggregation.
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// Folds the end-of-run state gauges — live VMs, demanded vCPUs,
    /// fleet digest and capacity-index operation counts — into the
    /// registry and returns the **logical** snapshot: a sorted, rendered
    /// JSON object that is byte-identical across shard counts for the
    /// same config. Idempotent (gauges are set, not added), so it can be
    /// called repeatedly.
    pub fn logical_telemetry(&mut self) -> JsonObject {
        let digest = self.digest();
        let mut ops = IndexOps::default();
        for ix in [&self.awake, &self.asleep] {
            let o = ix.ops();
            ops.admits += o.admits;
            ops.evicts += o.evicts;
            ops.parks += o.parks;
            ops.unparks += o.unparks;
            ops.queries += o.queries;
        }
        let g = |name: &str| self.metrics.gauge(name, MetricKind::Logical);
        g("fleet.live_vms").set(self.live.len() as u64);
        g("fleet.demand_vcpus").set(self.qos_demand_vcpus);
        g("fleet.digest").set(digest);
        g("fleet.index_admits").set(ops.admits);
        g("fleet.index_evicts").set(ops.evicts);
        g("fleet.index_parks").set(ops.parks);
        g("fleet.index_unparks").set(ops.unparks);
        g("fleet.index_queries").set(ops.queries);
        self.metrics.snapshot(MetricKind::Logical)
    }

    /// Places and links one VM; returns its ref, or `None` when no host
    /// fits. Exercised by churn and directly by tests.
    pub fn admit_vm(&mut self, class: WorkloadClass, phase: u32, vcpus: u32) -> Option<VmRef> {
        self.digest_cache = None;
        let tp = Instant::now();
        let host = self.place(vcpus);
        self.placement_ns += tp.elapsed().as_nanos();
        let host = host?;
        let r = self.vms.alloc(class, phase, vcpus);
        link(&mut self.hosts, &mut self.vms, host, r);
        self.awake.admit(host, vcpus);
        self.asleep.admit(host, vcpus);
        self.mac.agg[host as usize].add(class, phase, vcpus);
        self.touch(host);
        self.live.push(r);
        self.placements += 1;
        self.fm.placements.inc();
        Some(r)
    }

    /// Records a churn touch: the host must be re-evaluated at the
    /// current hour, whatever its horizon said.
    fn touch(&mut self, host: u32) {
        let h = host as usize;
        self.mac.next_change[h] = self.mac.next_change[h].min(self.hour);
        self.mac.touched.push(host);
    }

    /// Best-fit among awake hosts, falling back to best-fit among drowsy
    /// ones (tightest fit, lowest slot on ties).
    fn place(&self, need: u32) -> Option<u32> {
        self.awake
            .best_fit(need)
            .or_else(|| self.asleep.best_fit(need))
    }

    /// One arrival drawn from the churn stream, class-weighted by
    /// `class_mix` (the default uniform mix reproduces the historical
    /// draw bit-for-bit).
    fn arrival(&mut self) {
        let total: u64 = self.cfg.class_mix.iter().map(|&w| w as u64).sum();
        let mut draw = self.rng.below(total);
        let mut class = WorkloadClass::AlwaysOn;
        for (k, &w) in self.cfg.class_mix.iter().enumerate() {
            if draw < w as u64 {
                class = WorkloadClass::ALL[k];
                break;
            }
            draw -= w as u64;
        }
        let phase = self.rng.below(1 << 16) as u32;
        let vcpus = 1u32 << self.rng.below(3); // 1, 2 or 4 vCPUs
        if self.admit_vm(class, phase, vcpus).is_none() {
            self.rejections += 1;
            self.fm.rejections.inc();
        }
    }

    /// One departure drawn from the churn stream.
    fn departure(&mut self) {
        if self.live.is_empty() {
            return;
        }
        self.digest_cache = None;
        let pick = self.rng.below(self.live.len() as u64) as usize;
        let r = self.live.swap_remove(pick);
        let vcpus = self.vms.vcpus[r.slot as usize];
        let class = self.vms.class[r.slot as usize];
        let phase = self.vms.phase[r.slot as usize];
        let host = unlink(&mut self.hosts, &mut self.vms, r);
        self.vms.release(r);
        self.awake.evict(host, vcpus);
        self.asleep.evict(host, vcpus);
        self.mac.agg[host as usize].sub(class, phase, vcpus);
        self.touch(host);
        self.departures += 1;
        self.fm.departures.inc();
    }

    /// Shards used for the advance phase: [`FleetConfig::shards`]
    /// (`0` = one per available core) clamped to `1..=hosts`, fixed at
    /// construction.
    pub fn effective_shards(&self) -> usize {
        self.mac.wheels.len()
    }

    /// One epoch: churn, sharded advance, shard-ordered merge. Hours
    /// must advance contiguously from 0 (macro-stepping settles gaps
    /// against this clock).
    pub fn step_hour(&mut self, hour: u64) {
        debug_assert_eq!(
            hour, self.hour,
            "fleet hours must advance contiguously from 0"
        );
        self.digest_cache = None;
        let placements0 = self.placements;
        let rejections0 = self.rejections;
        let departures0 = self.departures;
        let place_ns0 = self.placement_ns;
        let t0 = Instant::now();
        let departures = self.cfg.churn_per_epoch.min(self.live.len());
        for _ in 0..departures {
            self.departure();
        }
        for _ in 0..self.cfg.churn_per_epoch {
            self.arrival();
        }
        let churn_dt = t0.elapsed().as_nanos();
        self.churn_ns += churn_dt;
        let place_dt = self.placement_ns - place_ns0;
        self.spans.add_ns("fleet.placement", place_dt);
        self.spans
            .add_ns("fleet.churn", churn_dt.saturating_sub(place_dt));

        let t1 = Instant::now();
        let outcomes = self.advance_hosts(hour);
        let adv_dt = t1.elapsed().as_nanos();
        self.advance_ns += adv_dt;
        self.spans.add_ns("fleet.advance", adv_dt);

        let t2 = Instant::now();
        let tracing = self.recorder.enabled();
        let mut ep = EpochRecord {
            epoch: hour,
            ..EpochRecord::default()
        };
        // When tracing, transitions are also gathered per category in
        // merge order. Shard ranges are contiguous and ascending, so the
        // concatenation per category equals the global ascending slot
        // order — the merged digest is shard-count invariant, while the
        // per-shard digests localise a divergence to one range.
        let mut all_suspended: Vec<u32> = Vec::new();
        let mut all_woken: Vec<u32> = Vec::new();
        let mut all_traffic: Vec<u32> = Vec::new();
        for out in outcomes {
            ep.suspends += out.suspended.len() as u64;
            ep.resumes += out.woken.len() as u64;
            ep.traffic_wakes += out.traffic_woken.len() as u64;
            ep.qos_demand_delta += out.demand_delta;
            self.suspends += out.suspended.len() as u64;
            self.resumes += out.woken.len() as u64;
            self.qos_demand_vcpus = (self.qos_demand_vcpus as i64 + out.demand_delta) as u64;
            if tracing {
                let mut fnv = Fnv::new();
                for &slot in &out.suspended {
                    fnv.add(slot as u64);
                }
                fnv.add(u64::MAX);
                for &slot in &out.woken {
                    fnv.add(slot as u64);
                }
                fnv.add(u64::MAX);
                for &slot in &out.traffic_woken {
                    fnv.add(slot as u64);
                }
                fnv.add(out.demand_delta as u64);
                ep.shard_digests.push(fnv.0);
                all_suspended.extend_from_slice(&out.suspended);
                all_woken.extend_from_slice(&out.woken);
                all_traffic.extend_from_slice(&out.traffic_woken);
            }
            for &slot in &out.suspended {
                self.awake.park(slot);
                self.asleep.unpark(slot);
            }
            for &slot in &out.woken {
                self.awake.unpark(slot);
                self.asleep.park(slot);
            }
            if let (Some(qcfg), Some(report)) = (&self.cfg.qos, &mut self.qos) {
                // Each traffic wake's trigger request pays the resume.
                for _ in &out.traffic_woken {
                    report.record(qcfg.resume_ms + qcfg.service_ms, true);
                }
            }
        }
        let tq = Instant::now();
        if let (Some(qcfg), Some(report)) = (&self.cfg.qos, &mut self.qos) {
            // The hour's steady load, served warm: one bulk record at the
            // demand sum the merge just settled.
            let steady = self.qos_demand_vcpus * qcfg.requests_per_vcpu_hour;
            report.record_n(qcfg.service_ms, steady);
            ep.qos_records = steady + ep.traffic_wakes;
        }
        let qos_dt = tq.elapsed().as_nanos();
        let ctl_dt = t2.elapsed().as_nanos();
        self.control_ns += ctl_dt;
        self.qos_fold_ns += qos_dt;
        self.spans.add_ns("fleet.qos_fold", qos_dt);
        self.spans
            .add_ns("fleet.merge", ctl_dt.saturating_sub(qos_dt));
        self.fm.suspends.add(ep.suspends);
        self.fm.resumes.add(ep.resumes);
        self.fm.traffic_wakes.add(ep.traffic_wakes);
        self.fm.qos_requests.add(ep.qos_records);
        self.fm.epochs.inc();
        if tracing {
            let mut fnv = Fnv::new();
            for &slot in &all_suspended {
                fnv.add(slot as u64);
            }
            fnv.add(u64::MAX);
            for &slot in &all_woken {
                fnv.add(slot as u64);
            }
            fnv.add(u64::MAX);
            for &slot in &all_traffic {
                fnv.add(slot as u64);
            }
            fnv.add(ep.qos_demand_delta as u64);
            ep.digest = fnv.0;
            ep.placements = self.placements - placements0;
            ep.rejections = self.rejections - rejections0;
            ep.departures = self.departures - departures0;
            self.recorder.push(ep);
        }
        self.hour = hour + 1;
    }

    /// Fans the host columns over the shards on the persistent pool.
    /// Submission order is shard order: the pool returns results in
    /// submission order, whichever worker ran each shard.
    fn advance_hosts(&mut self, hour: u64) -> Vec<ShardOutcome> {
        let shards = self.effective_shards();
        let hosts = self.hosts.len();
        let mac = &mut self.mac;
        mac.touched.sort_unstable();
        mac.touched.dedup();
        let ctx = ShardCtx {
            hour,
            vcpu_capacity: &self.hosts.vcpu_capacity,
            resident_head: &self.hosts.resident_head,
            vm_class: &self.vms.class,
            vm_phase: &self.vms.phase,
            vm_vcpus: &self.vms.vcpus,
            vm_next: &self.vms.next,
            idle_w: self.idle_w,
            peak_w: self.peak_w,
            cycle_wh: self.cycle_wh,
        };
        // Carve the mutable columns into disjoint contiguous windows.
        let per = hosts.div_ceil(shards).max(1);
        let mut tasks: Vec<(ShardView<'_>, MacroShard<'_>)> = Vec::with_capacity(shards);
        let mut power = self.hosts.power.as_mut_slice();
        let mut waking_date = self.hosts.waking_date.as_mut_slice();
        let mut demand = self.hosts.demand.as_mut_slice();
        let mut active_hours = self.hosts.active_hours.as_mut_slice();
        let mut drowsy_hours = self.hosts.drowsy_hours.as_mut_slice();
        let mut wakes = self.hosts.wakes.as_mut_slice();
        let mut energy_wh = self.hosts.energy_wh.as_mut_slice();
        let mut settled = mac.settled.as_mut_slice();
        let mut next_change = mac.next_change.as_mut_slice();
        let mut wheels = mac.wheels.iter_mut();
        let (agg, touched) = (mac.agg.as_slice(), mac.touched.as_slice());
        let mut base = 0;
        while !power.is_empty() {
            let k = per.min(power.len());
            let (p, rest) = power.split_at_mut(k);
            power = rest;
            let (w, rest) = waking_date.split_at_mut(k);
            waking_date = rest;
            let (d, rest) = demand.split_at_mut(k);
            demand = rest;
            let (a, rest) = active_hours.split_at_mut(k);
            active_hours = rest;
            let (s, rest) = drowsy_hours.split_at_mut(k);
            drowsy_hours = rest;
            let (wk, rest) = wakes.split_at_mut(k);
            wakes = rest;
            let (e, rest) = energy_wh.split_at_mut(k);
            energy_wh = rest;
            let (se, rest) = settled.split_at_mut(k);
            settled = rest;
            let (nc, rest) = next_change.split_at_mut(k);
            next_change = rest;
            let view = ShardView {
                base,
                power: p,
                waking_date: w,
                demand: d,
                active_hours: a,
                drowsy_hours: s,
                wakes: wk,
                energy_wh: e,
            };
            // Touched slots landing in this shard's range.
            let lo = touched.partition_point(|&t| (t as usize) < base);
            let hi = touched.partition_point(|&t| (t as usize) < base + k);
            let m = MacroShard {
                settled: se,
                next_change: nc,
                wheel: wheels.next().expect("one calendar wheel per shard"),
                touched: &touched[lo..hi],
                agg,
            };
            tasks.push((view, m));
            base += k;
        }
        #[cfg(test)]
        let hourly = self.hourly;
        let run = |(mut view, m): (ShardView<'_>, MacroShard<'_>)| {
            #[cfg(test)]
            if hourly {
                return advance_shard(&ctx, &mut view);
            }
            advance_shard_macro(&ctx, &mut view, m)
        };
        let run = &run;
        let outcomes = WorkerPool::global().run_ordered(
            tasks.len(),
            tasks.into_iter().map(|task| move || run(task)).collect(),
        );
        self.mac.touched.clear();
        outcomes
    }

    /// Settles every host's lazily-skipped hours up to the current
    /// simulation clock. A no-op when already settled; called
    /// automatically by [`FleetSim::outcome`] and [`FleetSim::digest`].
    pub fn sync(&mut self) {
        #[cfg(test)]
        if self.hourly {
            // The oracle walk settles every host every hour.
            return;
        }
        let mut view = ShardView {
            base: 0,
            power: &mut self.hosts.power,
            waking_date: &mut self.hosts.waking_date,
            demand: &mut self.hosts.demand,
            active_hours: &mut self.hosts.active_hours,
            drowsy_hours: &mut self.hosts.drowsy_hours,
            wakes: &mut self.hosts.wakes,
            energy_wh: &mut self.hosts.energy_wh,
        };
        for i in 0..self.hosts.vcpu_capacity.len() {
            let cap = self.hosts.vcpu_capacity[i].max(1) as f64;
            settle_host(
                &mut view,
                &mut self.mac.settled,
                i,
                self.hour,
                self.idle_w,
                self.peak_w,
                cap,
            );
        }
    }

    /// FNV-1a fingerprint of the fleet state: every host column plus the
    /// global counters. Bit-identical across shard counts, by
    /// construction. The digest is cached between mutations, so repeated
    /// calls (and repeated [`FleetSim::outcome`] calls) cost O(1).
    pub fn digest(&mut self) -> u64 {
        self.sync();
        if let Some(d) = self.digest_cache {
            return d;
        }
        let d = self.compute_digest();
        self.digest_computes += 1;
        self.digest_cache = Some(d);
        d
    }

    /// The uncached O(hosts) digest pass.
    fn compute_digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        for i in 0..self.hosts.len() {
            fnv.add(self.hosts.power[i] as u64);
            fnv.add(self.hosts.vcpu_used[i] as u64);
            fnv.add(self.hosts.waking_date[i]);
            fnv.add(self.hosts.demand[i] as u64);
            fnv.add(self.hosts.resident_count[i] as u64);
            fnv.add(self.hosts.active_hours[i]);
            fnv.add(self.hosts.drowsy_hours[i]);
            fnv.add(self.hosts.wakes[i]);
            fnv.add(self.hosts.energy_wh[i].to_bits());
        }
        fnv.add(self.placements);
        fnv.add(self.rejections);
        fnv.add(self.departures);
        fnv.add(self.suspends);
        fnv.add(self.resumes);
        fnv.add(self.live.len() as u64);
        fnv.0
    }

    /// Steps every remaining hour up to the configured horizon. Use
    /// this instead of [`FleetSim::run`] when the sim must stay alive
    /// afterwards (to read the recorder, metrics or spans).
    pub fn run_horizon(&mut self) {
        for hour in self.hour..self.cfg.horizon_hours {
            self.step_hour(hour);
        }
    }

    /// Runs the full horizon and reports.
    pub fn run(mut self) -> FleetOutcome {
        self.run_horizon();
        self.outcome()
    }

    /// The outcome for the state so far (ordered reduces over columns).
    pub fn outcome(&mut self) -> FleetOutcome {
        self.sync();
        let mut energy_wh = 0.0;
        let mut active = 0u64;
        let mut drowsy = 0u64;
        for i in 0..self.hosts.len() {
            energy_wh += self.hosts.energy_wh[i] + self.hosts.drowsy_hours[i] as f64 * self.s3_w;
            active += self.hosts.active_hours[i];
            drowsy += self.hosts.drowsy_hours[i];
        }
        FleetOutcome {
            hosts: self.cfg.hosts,
            vms_target: self.cfg.vms,
            horizon_hours: self.cfg.horizon_hours,
            shards: self.effective_shards(),
            live_vms: self.live.len(),
            placements: self.placements,
            rejections: self.rejections,
            departures: self.departures,
            suspends: self.suspends,
            resumes: self.resumes,
            active_host_hours: active,
            drowsy_host_hours: drowsy,
            energy_kwh: energy_wh / 1000.0,
            qos: self.qos.clone(),
            digest: self.digest(),
            churn_ms: self.churn_ns as f64 / 1e6,
            control_ms: self.control_ns as f64 / 1e6,
            advance_ms: self.advance_ns as f64 / 1e6,
            placement_ms: self.placement_ns as f64 / 1e6,
            qos_fold_ms: self.qos_fold_ns as f64 / 1e6,
        }
    }
}

/// Builds and runs a fleet in one call.
pub fn run_fleet(cfg: FleetConfig) -> FleetOutcome {
    FleetSim::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> FleetConfig {
        FleetConfig {
            churn_per_epoch: 8,
            seed: 7,
            ..FleetConfig::new(48, 300, 96)
        }
    }

    fn assert_same_bits(a: &FleetOutcome, b: &FleetOutcome) {
        assert_eq!(a.digest, b.digest, "state digests diverge");
        assert_eq!(a.energy_kwh.to_bits(), b.energy_kwh.to_bits());
        assert_eq!(a.live_vms, b.live_vms);
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.rejections, b.rejections);
        assert_eq!(a.departures, b.departures);
        assert_eq!(a.suspends, b.suspends);
        assert_eq!(a.resumes, b.resumes);
        assert_eq!(a.active_host_hours, b.active_host_hours);
        assert_eq!(a.drowsy_host_hours, b.drowsy_host_hours);
    }

    #[test]
    fn one_and_many_shards_are_bit_identical() {
        let one = run_fleet(FleetConfig {
            shards: 1,
            ..base_cfg()
        });
        for shards in [2, 4, 7] {
            let many = run_fleet(FleetConfig {
                shards,
                ..base_cfg()
            });
            assert_same_bits(&one, &many);
        }
        // Auto shard count too.
        let auto = run_fleet(FleetConfig {
            shards: 0,
            ..base_cfg()
        });
        assert_same_bits(&one, &auto);
        assert!(one.suspends > 0, "fleet should exercise drowsy transitions");
        assert!(one.resumes > 0);
    }

    /// Runs `cfg` to its horizon through the hourly oracle walk.
    fn run_hourly(cfg: FleetConfig) -> FleetOutcome {
        FleetSim::hourly_oracle(cfg).run()
    }

    /// A fleet constructor: [`FleetSim::new`] or the hourly oracle.
    type Build = fn(FleetConfig) -> FleetSim;

    /// Constructors of the two stepping disciplines, for grids over both.
    const STEPPINGS: [(&str, Build); 2] = [
        ("hourly", FleetSim::hourly_oracle),
        ("macro", FleetSim::new),
    ];

    /// The small fleet the macro-vs-hourly grids sweep around.
    fn grid_cfg(seed: u64) -> FleetConfig {
        FleetConfig {
            seed,
            churn_per_epoch: 6,
            ..FleetConfig::new(40, 260, 72)
        }
    }

    /// The acceptance grid: hourly and macro stepping at {1, 4, 6}
    /// shards — the inline serial run and the pooled fan-out — over a
    /// seed grid and class mixes from uniform to drowsy-heavy to
    /// never-idle. Every cell must reproduce the single-shard hourly
    /// oracle bit-for-bit.
    #[test]
    fn stepping_and_executor_grid_is_bit_identical() {
        let mixes: [[u32; 4]; 3] = [
            [1, 1, 1, 1], // uniform (the historical draw)
            [1, 4, 4, 1], // drowsy-heavy: office + nightly dominate
            [3, 0, 0, 1], // busy: always-on + bursty only
        ];
        for seed in [1, 7, 99] {
            for mix in mixes {
                let cfg = || FleetConfig {
                    class_mix: mix,
                    ..grid_cfg(seed)
                };
                let reference = run_hourly(FleetConfig { shards: 1, ..cfg() });
                for (name, build) in STEPPINGS {
                    for shards in [1, 4, 6] {
                        let other = build(FleetConfig { shards, ..cfg() }).run();
                        assert_eq!(
                            reference.digest, other.digest,
                            "seed {seed} mix {mix:?}: {name}/{shards} shards diverged"
                        );
                        assert_same_bits(&reference, &other);
                    }
                }
            }
        }
    }

    /// Macro-stepping under heavy churn: high churn rates maximize the
    /// touched-host slow path and the interleaving of lazy settling with
    /// eager placement bookkeeping — the hardest regime for the horizon
    /// invariant.
    #[test]
    fn macro_stepping_survives_heavy_churn_bit_identically() {
        for churn in [0, 1, 40, 120] {
            let cfg = || FleetConfig {
                churn_per_epoch: churn,
                shards: 3,
                ..grid_cfg(13)
            };
            let hourly = run_hourly(cfg());
            let macro_ = run_fleet(cfg());
            assert_eq!(hourly.digest, macro_.digest, "churn {churn}");
            assert_same_bits(&hourly, &macro_);
        }
    }

    /// The capacity indexes against a column scan on a churny run: after
    /// every epoch the awake index parks exactly the drowsy hosts and the
    /// asleep index exactly the active ones, both track every host's free
    /// vCPUs, and `place` picks what a best-fit-awake-else-drowsy scan
    /// over the columns picks.
    #[test]
    fn indexed_and_scan_placement_are_bit_identical() {
        let cfg = FleetConfig {
            churn_per_epoch: 40,
            ..base_cfg()
        };
        let horizon = cfg.horizon_hours;
        let mut sim = FleetSim::new(cfg);
        let scan = |sim: &FleetSim, need: u32| {
            let cols = sim.columns();
            let best_fit = |state: PowerState| {
                (0..cols.len() as u32)
                    .filter(|&s| cols.power[s as usize] == state && cols.free_vcpus(s) >= need)
                    .min_by_key(|&s| (cols.free_vcpus(s), s))
            };
            best_fit(PowerState::Active).or_else(|| best_fit(PowerState::Drowsy))
        };
        let (mut awake_picks, mut drowsy_picks) = (0, 0);
        for hour in 0..horizon {
            sim.step_hour(hour);
            let cols = sim.columns();
            for slot in 0..cols.len() as u32 {
                let drowsy = cols.power[slot as usize] == PowerState::Drowsy;
                assert_eq!(sim.awake.is_parked(slot), drowsy, "hour {hour} slot {slot}");
                assert_eq!(
                    sim.asleep.is_parked(slot),
                    !drowsy,
                    "hour {hour} slot {slot}"
                );
                assert_eq!(sim.awake.free_of(slot), cols.free_vcpus(slot));
                assert_eq!(sim.asleep.free_of(slot), cols.free_vcpus(slot));
            }
            for need in [1, 2, 4] {
                let pick = sim.place(need);
                assert_eq!(pick, scan(&sim, need), "hour {hour}, need {need}");
                match pick.map(|s| cols.power[s as usize]) {
                    Some(PowerState::Active) => awake_picks += 1,
                    Some(PowerState::Drowsy) => drowsy_picks += 1,
                    None => {}
                }
            }
        }
        assert!(awake_picks > 0 && drowsy_picks > 0, "both indexes answer");
    }

    #[test]
    fn population_is_conserved_through_churn() {
        let mut sim = FleetSim::new(base_cfg());
        for hour in 0..50 {
            sim.step_hour(hour);
        }
        assert_eq!(sim.live.len() as u64, sim.placements() - sim.departures());
        let residents: u32 = sim.columns().resident_count.iter().sum();
        assert_eq!(residents as usize, sim.live.len());
        let used: u32 = sim.columns().vcpu_used.iter().sum();
        let reserved: u32 = sim
            .live
            .iter()
            .map(|r| sim.arena().vcpus[r.slot as usize])
            .sum();
        assert_eq!(used, reserved);
        for &r in &sim.live {
            assert!(sim.arena().is_live(r));
        }
        for slot in 0..sim.columns().len() as u32 {
            assert!(
                sim.columns().vcpu_used[slot as usize]
                    <= sim.columns().vcpu_capacity[slot as usize]
            );
        }
    }

    #[test]
    fn drowsy_hosts_wake_on_their_waking_dates() {
        // Four empty hosts, no churn; one nightly VM lands on host 0.
        let mut sim = FleetSim::new(FleetConfig {
            churn_per_epoch: 0,
            ..FleetConfig::new(4, 0, 0)
        });
        let r = sim.admit_vm(WorkloadClass::Nightly, 5, 2).expect("fits");
        assert_eq!(sim.arena().host[r.slot as usize], 0);
        for hour in 0..48 {
            sim.step_hour(hour);
        }
        sim.sync();
        // Energy: host 0 paid two wake cycles on top of its S3 + active
        // hours; empty hosts paid pure S3.
        // Per-host energy: the irregular (active + transition)
        // accumulation plus the exactly-counted drowsy hours.
        let energy_wh = |slot: usize| {
            sim.hosts.energy_wh[slot] + sim.hosts.drowsy_hours[slot] as f64 * sim.s3_w
        };
        let model = HostPowerModel::paper_default();
        assert!((energy_wh(1) - 48.0 * model.suspended_watts).abs() < 1e-9);
        assert!(energy_wh(0) > energy_wh(1));
        let cols = sim.columns();
        // Host 0: suspended at hour 0 with waking date 5, woke at hours 5
        // and 29, suspended again after each nightly burst.
        assert_eq!(cols.wakes[0], 2);
        assert_eq!(cols.active_hours[0], 2);
        assert_eq!(cols.drowsy_hours[0], 46);
        assert_eq!(cols.power[0], PowerState::Drowsy);
        // Empty hosts suspended immediately and never woke.
        for h in 1..4 {
            assert_eq!(cols.wakes[h], 0);
            assert_eq!(cols.drowsy_hours[h], 48);
            assert_eq!(cols.waking_date[h], NO_WAKE);
        }
    }

    #[test]
    fn full_fleet_rejects_overflow_arrivals() {
        let sim = FleetSim::new(FleetConfig {
            vcpus_per_host: 4,
            churn_per_epoch: 0,
            ..FleetConfig::new(1, 10, 0)
        });
        assert_eq!(sim.placements() + sim.rejections(), 10);
        assert!(sim.rejections() > 0, "a 4-vCPU fleet cannot take 10 VMs");
        assert!(sim.columns().vcpu_used[0] <= 4);
    }

    #[test]
    fn effective_shards_clamps_to_fleet_size() {
        let cfg = |hosts, shards| FleetConfig {
            shards,
            churn_per_epoch: 0,
            ..FleetConfig::new(hosts, 0, 0)
        };
        // Degenerate fleets still report one (serial) shard and step
        // without panicking.
        for shards in [0, 5] {
            let mut empty = FleetSim::new(cfg(0, shards));
            assert_eq!(empty.effective_shards(), 1);
            for hour in 0..3 {
                empty.step_hour(hour);
            }
            assert_eq!(empty.outcome().live_vms, 0);
        }
        let mut single = FleetSim::new(cfg(1, 0));
        assert_eq!(single.effective_shards(), 1);
        for hour in 0..3 {
            single.step_hour(hour);
        }
        assert_eq!(single.outcome().drowsy_host_hours, 3);
        // More shards than hosts clamps down; fewer passes through.
        assert_eq!(FleetSim::new(cfg(2, 5)).effective_shards(), 2);
        assert_eq!(FleetSim::new(cfg(12, 3)).effective_shards(), 3);
        assert!(FleetSim::new(cfg(12, 0)).effective_shards() >= 1);
    }

    #[test]
    fn digest_is_cached_between_mutations() {
        let mut sim = FleetSim::new(base_cfg());
        for hour in 0..10 {
            sim.step_hour(hour);
        }
        let d1 = sim.digest();
        let computes = sim.digest_computes;
        // Repeated digests and outcomes reuse the cache...
        assert_eq!(sim.digest(), d1);
        let o1 = sim.outcome();
        let o2 = sim.outcome();
        assert_eq!(o1.digest, d1);
        assert_eq!(o2.digest, d1);
        assert_eq!(sim.digest_computes, computes, "cached digest recomputed");
        // ...and still match a from-scratch pass over the columns.
        assert_eq!(sim.compute_digest(), d1);
        // Any mutation invalidates: another epoch...
        sim.step_hour(10);
        let d2 = sim.digest();
        assert_eq!(sim.digest_computes, computes + 1);
        // ...or direct churn.
        sim.admit_vm(WorkloadClass::AlwaysOn, 0, 1).expect("fits");
        let d3 = sim.digest();
        assert_ne!(d2, d3, "admitting a VM must change the digest");
        assert_eq!(sim.digest_computes, computes + 2);
        assert_eq!(sim.compute_digest(), d3);
    }

    #[test]
    fn fleet_qos_is_exact_and_invariant_across_the_engine_grid() {
        let qos_cfg = || FleetConfig {
            qos: Some(FleetQosConfig::paper_default()),
            ..base_cfg()
        };
        let reference = run_hourly(FleetConfig {
            shards: 1,
            ..qos_cfg()
        });
        let report = reference.qos.as_ref().expect("qos runs carry a report");
        assert!(report.total > 0, "the fleet serves steady load");
        assert!(
            report.wake_hits > 0,
            "churn places active VMs on drowsy hosts"
        );
        assert_eq!(
            report.wake_violations, report.wake_hits,
            "every 860 ms traffic wake breaches the 200 ms SLA"
        );
        assert_eq!(report.worst_wake_ms, 800 + 60);
        assert!(report.wake_hits <= reference.resumes, "subset of resumes");
        // The ride-along leaves the physics untouched: same digest as the
        // qos-less run.
        let plain = run_hourly(FleetConfig {
            shards: 1,
            ..base_cfg()
        });
        assert_eq!(reference.digest, plain.digest);
        assert!(plain.qos.is_none());
        // And the report is bit-identical across the whole engine grid.
        for (name, build) in STEPPINGS {
            for shards in [1, 3, 7] {
                let other = build(FleetConfig {
                    shards,
                    ..qos_cfg()
                })
                .run();
                assert_same_bits(&reference, &other);
                assert_eq!(
                    other.qos.as_ref().expect("report"),
                    report,
                    "{name}/{shards}"
                );
            }
        }
    }

    #[test]
    fn skewed_class_mix_builds_a_drowsy_heavy_fleet() {
        // All-nightly arrivals: hosts sleep ~23 hours a day.
        let nightly = run_fleet(FleetConfig {
            class_mix: [0, 0, 1, 0],
            ..base_cfg()
        });
        assert!(nightly.drowsy_host_hours > 3 * nightly.active_host_hours);
        // The skewed mix still reproduces the hourly oracle.
        let hourly = run_hourly(FleetConfig {
            class_mix: [0, 0, 1, 0],
            ..base_cfg()
        });
        assert_same_bits(&nightly, &hourly);
        // An always-on fleet keeps every occupied host awake; only the
        // handful of hosts best-fit never fills can park.
        let busy = run_fleet(FleetConfig {
            class_mix: [1, 0, 0, 0],
            ..base_cfg()
        });
        assert!(busy.active_host_hours > 5 * busy.drowsy_host_hours);
    }

    /// The acceptance bar: the rendered **logical** telemetry artifact
    /// is byte-identical across `{1,4} shards × {hourly,macro}`
    /// stepping — counters are order-independent event sums, so the
    /// execution grid cannot leak into them.
    #[test]
    fn logical_telemetry_is_byte_identical_across_the_grid() {
        let mut reference: Option<String> = None;
        for shards in [1usize, 4] {
            for (name, build) in STEPPINGS {
                let mut sim = build(FleetConfig {
                    shards,
                    qos: Some(FleetQosConfig::paper_default()),
                    ..base_cfg()
                });
                sim.run_horizon();
                let rendered = sim.logical_telemetry().render();
                match &reference {
                    None => reference = Some(rendered),
                    Some(want) => assert_eq!(
                        want, &rendered,
                        "logical telemetry diverged at shards={shards} stepping={name}"
                    ),
                }
            }
        }
        let snapshot = reference.expect("grid produced at least one snapshot");
        assert!(snapshot.contains("\"fleet.placements\""));
        assert!(snapshot.contains("\"fleet.digest\""));
    }

    /// The metric counters agree with the engine's own tallies, and the
    /// span recorder saw every phase of every epoch.
    #[test]
    fn metrics_and_spans_track_the_run() {
        let mut sim = FleetSim::new(base_cfg());
        sim.run_horizon();
        let out = sim.outcome();
        let reg = sim.metrics();
        let get = |name: &str| reg.counter(name, MetricKind::Logical).get();
        assert_eq!(get("fleet.placements"), out.placements);
        assert_eq!(get("fleet.rejections"), out.rejections);
        assert_eq!(get("fleet.departures"), out.departures);
        assert_eq!(get("fleet.suspends"), out.suspends);
        assert_eq!(get("fleet.resumes"), out.resumes);
        assert_eq!(get("fleet.epochs"), out.horizon_hours);
        for phase in [
            "fleet.churn",
            "fleet.placement",
            "fleet.advance",
            "fleet.merge",
            "fleet.qos_fold",
        ] {
            let calls = sim
                .spans()
                .totals()
                .into_iter()
                .find(|(name, _, _)| name == phase)
                .map(|(_, calls, _)| calls)
                .unwrap_or(0);
            assert_eq!(calls, out.horizon_hours, "span {phase} missed epochs");
        }
    }

    /// Flight-recorder ride-along: per-epoch merged digests are
    /// invariant across the shard grid (per-shard digests are not —
    /// they localise, the merged digest compares), the ring holds the
    /// last `trace_epochs` epochs, and `first_divergence` is `None` for
    /// identical runs.
    #[test]
    fn flight_recorder_merged_digests_are_shard_invariant() {
        let trace = 32usize;
        let mut recs: Vec<FlightRecorder> = Vec::new();
        for (shards, build) in [
            (1usize, FleetSim::new as Build),
            (4, FleetSim::new),
            (4, FleetSim::hourly_oracle),
        ] {
            let mut sim = build(FleetConfig {
                shards,
                trace_epochs: trace,
                ..base_cfg()
            });
            sim.run_horizon();
            assert_eq!(sim.recorder().len(), trace);
            recs.push(sim.recorder().clone());
        }
        let one = recs[0].records();
        let four = recs[1].records();
        assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.digest, b.digest, "merged digest diverged at {}", a.epoch);
            assert_eq!(a.shard_digests.len(), 1);
            assert_eq!(b.shard_digests.len(), 4);
        }
        assert_eq!(recs[0].first_divergence(&recs[1]), None);
        assert_eq!(recs[1].first_divergence(&recs[2]), None);
        // Tampering with one record names the divergent epoch.
        let forged = FlightRecorder::new(trace);
        for mut r in recs[1].records() {
            if r.epoch == one[5].epoch {
                r.digest ^= 1;
            }
            forged.push(r);
        }
        assert_eq!(recs[0].first_divergence(&forged), Some(one[5].epoch));
    }

    /// A disabled recorder (the default) stays empty for free.
    #[test]
    fn recorder_is_disabled_by_default() {
        let mut sim = FleetSim::new(base_cfg());
        sim.run_horizon();
        assert!(!sim.recorder().enabled());
        assert!(sim.recorder().is_empty());
    }
}
