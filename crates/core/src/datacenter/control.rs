//! The hourly control loop: activity scoring, policy-driven relocation
//! rounds and the cluster snapshots planners consume.

use super::*;

/// Hours a VM stays frozen after a migration (DESIGN §3 item 5). The
/// opportunistic pass may not move it again sooner, which stops
/// hour-chasing churn on phase-shifted workloads; overload relief
/// ignores the freeze.
const MIGRATION_COOLDOWN_HOURS: u64 = 8;

/// Live-migration bandwidth in Gbit/s: the transfer time charged per
/// migrated MiB of RAM (DESIGN §3 item 4).
const MIGRATION_BANDWIDTH_GBPS: f64 = 10.0;

impl Datacenter {
    /// The host's idleness probability for the current hour — the mean of
    /// its residents' model probabilities, `(s + 1) / 2` of each cached
    /// score, when the policy consumes idleness models, the neutral 0.5
    /// otherwise.
    pub(super) fn host_ip_probability(&self, host: HostId) -> f64 {
        if !self.policy.uses_idleness_scores() {
            return 0.5; // no idleness models → neutral grace
        }
        let count = self.active_residents(host).count();
        if count == 0 {
            return 1.0; // empty host: confidently idle
        }
        self.active_residents(host)
            .map(|i| (self.ip_scores[i] + 1.0) / 2.0)
            .sum::<f64>()
            / count as f64
    }

    /// Fills the hour cache for the current hour: each live slot's
    /// activity level and, under a policy that reads the models, its IP
    /// score (eq. 1). Every host summary goes stale with the scores.
    pub(super) fn fill_hour_cache(&mut self) {
        let h = self.hour;
        let stamp = CalendarStamp::from_hour_index(h);
        let scored = self.policy.uses_idleness_scores();
        for (i, vm) in self.vms.iter().enumerate().filter(|(_, vm)| !vm.departed) {
            self.levels[i] = vm.spec.trace.level_at_hour(h);
            if scored {
                self.ip_scores[i] = vm.im.raw_score(stamp);
            }
        }
        self.summaries.fill(None);
    }

    /// Builds the placement view for the planners from the resident
    /// lists and the hour cache.
    pub(super) fn cluster_state(&self) -> ClusterState {
        let hosts: Vec<HostState> = self
            .hosts
            .iter()
            .zip(&self.residents)
            .map(|(h, list)| HostState {
                id: h.spec.id,
                cpu_capacity: h.spec.cpu_cores,
                ram_capacity: h.spec.ram_mb,
                max_vms: h.spec.max_vms,
                vms: list
                    .iter()
                    .map(|&i| {
                        let vm = &self.vms[i].spec;
                        VmState {
                            id: vm.id,
                            vcpus: vm.vcpus,
                            ram_mb: vm.ram_mb,
                            cpu_demand: self.levels[i] * vm.vcpus,
                            ip_score: self.ip_scores[i],
                        }
                    })
                    .collect(),
            })
            .collect();
        let mut state = ClusterState::new(hosts);
        for &i in self.residents.iter().flatten() {
            if let Some(last) = self.vms[i].last_migration_hour {
                if self.hour.saturating_sub(last) < MIGRATION_COOLDOWN_HOURS {
                    state.freeze(self.vms[i].spec.id);
                }
            }
        }
        state
    }

    /// Duration of one live migration of `ram_mb` MiB.
    pub(super) fn migration_time(&self, ram_mb: u64) -> SimDuration {
        let bits = ram_mb as f64 * 1024.0 * 1024.0 * 8.0;
        let secs = bits / (MIGRATION_BANDWIDTH_GBPS * 1e9);
        SimDuration::from_secs_f64(secs)
    }

    /// Moves a VM between hosts at the current hour's start (already
    /// validated by the planner). Charges wake + transfer on both ends.
    pub(super) fn apply_move(&mut self, vm_id: VmId, to: HostId) {
        let from = self.vms[vm_id.index()].host;
        if from == to {
            return;
        }
        let now = SimTime::from_hours(self.hour);
        let t0 = self.wake_for_management(from, now);
        let t1 = self.wake_for_management(to, now);
        let ready = t0.max(t1);
        let transfer = self.migration_time(self.vms[vm_id.index()].spec.ram_mb);
        let done = ready + transfer;
        self.hosts[from.index()].forced_awake_until =
            self.hosts[from.index()].forced_awake_until.max(done);
        self.hosts[to.index()].forced_awake_until =
            self.hosts[to.index()].forced_awake_until.max(done);
        self.vms[vm_id.index()].host = to;
        self.unlist_resident(from.index(), vm_id.index());
        self.list_resident(to.index(), vm_id.index());
        self.vms[vm_id.index()].migrations += 1;
        self.vms[vm_id.index()].last_migration_hour = Some(self.hour);
        telemetry::DcMetrics::get().migrations.inc();
        self.record_placement(vm_id, to);
    }

    /// One control period. Driven only by [`DcEngine`]'s control
    /// epochs; outside this module, step with [`Datacenter::run`].
    pub(super) fn step_hour(&mut self) {
        let h = self.hour;
        let stamp = CalendarStamp::from_hour_index(h);
        let hour_start = SimTime::from_hours(h);
        let hour_end = SimTime::from_hours(h + 1);
        let noise = self.cfg.im.noise_threshold;

        // --- closed-loop QoS: last epoch's window reaches the policy
        // before it plans (ControlPolicy::observe_qos).
        if let Some(window) = self.qos.as_mut().and_then(|q| q.pending.take()) {
            self.policy.observe_qos(&window);
            telemetry::DcMetrics::get().qos_windows.inc();
        }

        // --- consolidation round, on the hour cache's levels and scores.
        if h.is_multiple_of(self.cfg.relocation_period_hours) {
            let _span = telemetry::dc_spans().span("dc.consolidate");
            self.consolidate();
        }

        // --- scheduled wakes due now (waking module fires ahead of time).
        let anticipated: HashSet<HostId> = {
            let _span = telemetry::dc_spans().span("dc.refresh");
            self.waking
                .poll_schedules(hour_start)
                .into_iter()
                .map(|cmd| cmd.mac.host())
                .collect()
        };

        // --- per-host hour simulation.
        {
            let _span = telemetry::dc_spans().span("dc.advance_hosts");
            for hid in 0..self.hosts.len() {
                self.simulate_host_hour(
                    HostId::from_index(hid),
                    noise,
                    hour_start,
                    hour_end,
                    &anticipated,
                );
            }
        }

        // --- streaming QoS: serve this hour's requests on each VM's
        // current host, after that host's latest resume (every active
        // VM's host is awake from it to the hour's end).
        if let Some(q) = self.qos.as_mut() {
            let _span = telemetry::dc_spans().span("dc.qos_fold");
            q.process_epoch(h, &self.hosts, &self.vms);
        }

        let _span = telemetry::dc_spans().span("dc.im_update");
        // --- colocation bookkeeping: every pair sharing a host (parked
        // working sets count on the host holding them).
        if self.cfg.track_colocation {
            for list in &self.residents {
                for (a, &i) in list.iter().enumerate() {
                    self.coloc_hours[i][i] += 1;
                    for &j in &list[a + 1..] {
                        self.coloc_hours[i][j] += 1;
                        self.coloc_hours[j][i] += 1;
                    }
                }
            }
        }

        // --- model updates, every live VM in one batch, for a policy that
        // reads the models (scores, grace probabilities or classes); then
        // the hour cache moves on to the next hour.
        if self.policy.uses_idleness_scores() || self.policy.uses_trace_classes() {
            IdlenessModel::observe_batch(
                stamp,
                self.vms
                    .iter_mut()
                    .zip(&self.levels)
                    .filter(|(vm, _)| !vm.departed)
                    .map(|(vm, &level)| (&mut *vm.im, level)),
            );
        }
        self.hour += 1;
        self.fill_hour_cache();
    }

    /// Runs the policy's relocation rounds, re-snapshotting the cluster
    /// between rounds (Oasis's parking pass must observe the state after
    /// its packing pass), and applies each round's orders in plan order:
    /// migrations, swaps, unparks, parks, all at the hour's start.
    fn consolidate(&mut self) {
        // Per-VM behaviour classes for class-aware policies (the
        // adaptive meta-policy); indexed by VmId, stable across rounds
        // (models only learn between control periods).
        let classes: Vec<dds_idleness::ImClass> = if self.policy.uses_trace_classes() {
            self.vms.iter().map(|v| v.im.classify()).collect()
        } else {
            Vec::new()
        };
        for round in 0..self.policy.plan_rounds() {
            let state = self.cluster_state();
            let plan = self
                .policy
                .plan(round, &PlanningView::new(&state, &classes), &mut self.rng);
            for m in &plan.consolidation.migrations {
                self.apply_move(m.vm, m.to);
            }
            for s in &plan.consolidation.swaps {
                self.apply_move(s.vm_a, s.host_b);
                self.apply_move(s.vm_b, s.host_a);
            }
            // Unpark first (frees consolidation capacity), then park.
            for m in &plan.unpark {
                self.apply_move(m.vm, m.to);
                self.vms[m.vm.index()].parked = false;
            }
            for m in &plan.park {
                self.apply_move(m.vm, m.to);
                self.vms[m.vm.index()].parked = true;
            }
        }
    }
}
