//! The hourly control loop: activity scoring, policy-driven relocation
//! rounds, process/timer refresh and the cluster snapshots planners
//! consume.

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
    /// its residents' model probabilities when the policy consumes
    /// idleness models, the neutral 0.5 otherwise.
    pub(super) fn host_ip_probability(&self, host: HostId) -> f64 {
        if !self.policy.uses_idleness_scores() {
            return 0.5; // no idleness models → neutral grace
        }
        let stamp = CalendarStamp::from_hour_index(self.hour);
        let count = self.active_residents(host).count();
        if count == 0 {
            return 1.0; // empty host: confidently idle
        }
        self.active_residents(host)
            .map(|i| self.vms[i].im.probability(stamp))
            .sum::<f64>()
            / count as f64
    }

    /// Builds the placement view for the planners.
    pub(super) fn cluster_state(&self, levels: &[f64], scores: &[f64]) -> ClusterState {
        let mut hosts: Vec<HostState> = self
            .hosts
            .iter()
            .map(|h| HostState {
                id: h.spec.id,
                cpu_capacity: h.spec.cpu_cores,
                ram_capacity: h.spec.ram_mb,
                max_vms: h.spec.max_vms,
                vms: Vec::new(),
            })
            .collect();
        for vm in self.vms.iter().filter(|v| !v.departed) {
            hosts[vm.host.index()].vms.push(VmState {
                id: vm.spec.id,
                vcpus: vm.spec.vcpus,
                ram_mb: vm.spec.ram_mb,
                cpu_demand: levels[vm.spec.id.index()] * vm.spec.vcpus,
                ip_score: scores[vm.spec.id.index()],
            });
        }
        let mut state = ClusterState::new(hosts);
        for vm in &self.vms {
            if let Some(last) = vm.last_migration_hour {
                if self.hour.saturating_sub(last) < MIGRATION_COOLDOWN_HOURS {
                    state.freeze(vm.spec.id);
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

    /// Moves a VM between hosts at `now` (already validated by the
    /// planner). Charges wake + transfer on both ends.
    pub(super) fn apply_move(&mut self, vm_id: VmId, to: HostId, now: SimTime) {
        let from = self.vms[vm_id.index()].host;
        if from == to {
            return;
        }
        let t0 = self.wake_for_management(from, now);
        let t1 = self.wake_for_management(to, now);
        let ready = t0.max(t1);
        let transfer = self.migration_time(self.vms[vm_id.index()].spec.ram_mb);
        let done = ready + transfer;
        self.hosts[from.index()].forced_awake_until =
            self.hosts[from.index()].forced_awake_until.max(done);
        self.hosts[to.index()].forced_awake_until =
            self.hosts[to.index()].forced_awake_until.max(done);
        // Move the VM process and any pending timer.
        let pid = self.vms[vm_id.index()].pid;
        let state = self.hosts[from.index()]
            .procs
            .get(pid)
            .map(|p| p.state)
            .unwrap_or(ProcState::Sleeping { wake: None });
        self.hosts[from.index()].procs.kill(pid);
        let new_pid = self.hosts[to.index()].procs.spawn_vm_process(
            format!("qemu-{}", self.vms[vm_id.index()].spec.name),
            state,
            Some(vm_id),
        );
        if let Some((tid, expires)) = self.vms[vm_id.index()].timer.take() {
            self.hosts[from.index()].timers.cancel(tid);
            let new_tid = self.hosts[to.index()].timers.register(
                expires,
                new_pid,
                format!("wake-{}", self.vms[vm_id.index()].spec.name),
            );
            self.vms[vm_id.index()].timer = Some((new_tid, expires));
        }
        self.vms[vm_id.index()].pid = new_pid;
        self.vms[vm_id.index()].host = to;
        self.unlist_resident(from.index(), vm_id.index());
        self.list_resident(to.index(), vm_id.index());
        self.vms[vm_id.index()].migrations += 1;
        self.vms[vm_id.index()].last_migration_hour = Some(self.hour);
        telemetry::DcMetrics::get().migrations.inc();
        self.record_placement(vm_id, now, to);
    }

    /// One control period. Driven only by [`DcEngine`]'s
    /// [`DcEvent::ControlEpoch`]; outside this module, step with
    /// [`Datacenter::run`].
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

        // --- activity levels and idleness scores for this hour.
        let score_span = telemetry::dc_spans().span("dc.score");
        let levels: Vec<f64> = self
            .vms
            .iter()
            .map(|v| {
                if v.departed {
                    0.0
                } else {
                    v.spec.trace.level_at_hour(h)
                }
            })
            .collect();
        // The paper's next-hour IP score.
        let scores: Vec<f64> = if self.policy.uses_idleness_scores() {
            self.vms.iter().map(|v| v.im.raw_score(stamp)).collect()
        } else {
            vec![0.0; self.vms.len()]
        };
        drop(score_span);

        // --- consolidation round.
        if h.is_multiple_of(self.cfg.relocation_period_hours) {
            let _span = telemetry::dc_spans().span("dc.consolidate");
            self.consolidate(&levels, &scores, hour_start);
        }

        // --- process states & timers reflect this hour's activity, and
        // scheduled wakes due now (waking module fires ahead of time).
        let anticipated: HashSet<HostId> = {
            let _span = telemetry::dc_spans().span("dc.refresh");
            self.refresh_processes(&levels, noise, h);
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
                    &levels,
                    noise,
                    hour_start,
                    hour_end,
                    &anticipated,
                );
            }
        }

        let im_span = telemetry::dc_spans().span("dc.im_update");
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

        // --- model updates.
        for (i, vm) in self.vms.iter_mut().enumerate() {
            if !vm.departed {
                vm.im.observe_hour(stamp, levels[i]);
            }
        }
        drop(im_span);

        // --- streaming QoS: serve this hour's requests against the
        // timelines recorded so far (every active VM's host woke within
        // the hour, so each lookup resolves in recorded history), then
        // drop the intervals no future arrival can need.
        if let Some(q) = self.qos.as_mut() {
            let _span = telemetry::dc_spans().span("dc.qos_fold");
            q.process_epoch(h, &self.hosts, &self.vms);
            if !self.cfg.track_power_timeline {
                for host in &mut self.hosts {
                    if let Some(tl) = host.meter.timeline_mut() {
                        tl.trim_before(hour_end);
                    }
                }
            }
        }
        self.hour += 1;
    }

    /// Runs the policy's relocation rounds, re-snapshotting the cluster
    /// between rounds (Oasis's parking pass must observe the state after
    /// its packing pass), and applies each round's orders in plan order:
    /// migrations, swaps, unparks, parks.
    fn consolidate(&mut self, levels: &[f64], scores: &[f64], now: SimTime) {
        // Per-VM behaviour classes for class-aware policies (the
        // adaptive meta-policy); indexed by VmId, stable across rounds
        // (models only learn between control periods).
        let classes: Vec<dds_idleness::ImClass> = if self.policy.uses_trace_classes() {
            self.vms.iter().map(|v| v.im.classify()).collect()
        } else {
            Vec::new()
        };
        for round in 0..self.policy.plan_rounds() {
            let state = self.cluster_state(levels, scores);
            let plan = self
                .policy
                .plan(round, &PlanningView::new(&state, &classes), &mut self.rng);
            for m in &plan.consolidation.migrations {
                self.apply_move(m.vm, m.to, now);
            }
            for s in &plan.consolidation.swaps {
                self.apply_move(s.vm_a, s.host_b, now);
                self.apply_move(s.vm_b, s.host_a, now);
            }
            // Unpark first (frees consolidation capacity), then park.
            for m in &plan.unpark {
                self.apply_move(m.vm, m.to, now);
                self.vms[m.vm.index()].parked = false;
            }
            for m in &plan.park {
                self.vms[m.vm.index()].origin = self.vms[m.vm.index()].host;
                self.apply_move(m.vm, m.to, now);
                self.vms[m.vm.index()].parked = true;
            }
        }
    }

    /// Next hour (strictly after `h`) with activity, within one year.
    pub(super) fn next_active_hour(trace: &dds_traces::VmTrace, h: u64, noise: f64) -> Option<u64> {
        (h + 1..h + 1 + 8760).find(|&t| trace.level_at_hour(t) >= noise)
    }

    #[allow(clippy::needless_range_loop)] // indexes vms, levels and hosts together
    pub(super) fn refresh_processes(&mut self, levels: &[f64], noise: f64, h: u64) {
        for i in 0..self.vms.len() {
            if self.vms[i].departed {
                continue;
            }
            let active = levels[i] >= noise && !self.vms[i].parked;
            let host = self.vms[i].host.index();
            let pid = self.vms[i].pid;
            let state = if active {
                ProcState::Running
            } else {
                ProcState::Sleeping { wake: None }
            };
            self.hosts[host].procs.set_state(pid, state);
            // Timer-driven VMs expose their next activity as an hrtimer.
            if self.vms[i].spec.kind == WorkloadKind::TimerDriven && !active {
                let next = Self::next_active_hour(&self.vms[i].spec.trace, h, noise)
                    .map(SimTime::from_hours);
                match (self.vms[i].timer, next) {
                    (Some((tid, cur)), Some(want)) if cur != want => {
                        self.hosts[host].timers.cancel(tid);
                        let tid = self.hosts[host].timers.register(
                            want,
                            pid,
                            format!("wake-{}", self.vms[i].spec.name),
                        );
                        self.vms[i].timer = Some((tid, want));
                    }
                    (None, Some(want)) => {
                        let tid = self.hosts[host].timers.register(
                            want,
                            pid,
                            format!("wake-{}", self.vms[i].spec.name),
                        );
                        self.vms[i].timer = Some((tid, want));
                    }
                    _ => {}
                }
            } else if let Some((tid, _)) = self.vms[i].timer.take() {
                self.hosts[host].timers.cancel(tid);
            }
        }
    }
}
