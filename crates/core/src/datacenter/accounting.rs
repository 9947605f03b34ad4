//! Request/SLA accounting and outcome assembly.

use super::*;

impl Datacenter {
    /// Records non-wake request latencies for active interactive VMs.
    /// `service_stretch` multiplies service times (1.0 at nominal clock;
    /// policies that downclock a host pay `1/f` here).
    pub(super) fn record_service_requests(
        &mut self,
        resident: &[usize],
        levels: &[f64],
        noise: f64,
        service_stretch: f64,
    ) {
        for &i in resident {
            if self.vms[i].spec.kind != WorkloadKind::Interactive || levels[i] < noise {
                continue;
            }
            let rate = self.cfg.request_peak_rps * levels[i];
            let expected = rate * 3600.0;
            let count = self.rng.poisson(expected);
            let mean = self.cfg.request_service.as_millis() as f64 * service_stretch;
            // Sample a bounded number of service times; account the rest
            // at the mean (they are far below the SLA either way).
            let samples = count.min(64);
            let mut over = 0u64;
            for _ in 0..samples {
                let ms = self.rng.normal(mean, mean / 2.0).clamp(1.0, mean * 6.0);
                if ms > self.cfg.sla.as_millis() as f64 {
                    over += 1;
                }
                self.service_ms_sum += ms;
                self.service_ms_count += 1;
            }
            if samples > 0 {
                // Scale the sampled over-SLA ratio to the full count.
                over = ((over as f64 / samples as f64) * count as f64).round() as u64;
            }
            self.sla.total += count;
            self.sla.over_sla += over;
        }
    }

    /// Finishes the run (flushes meters) and produces the outcome.
    pub fn finish(mut self) -> DcOutcome {
        let end = SimTime::from_hours(self.hour);
        let mut timelines = Vec::new();
        for h in &mut self.hosts {
            let state = h.power.state();
            h.meter.advance(end, state, 0.0);
            // A streaming-only run keeps a trimmed working window, not a
            // replayable history: the outcome carries timelines only when
            // full retention was asked for.
            if let Some(tl) = h.meter.take_timeline() {
                if self.cfg.track_power_timeline {
                    timelines.push(tl);
                }
            }
        }
        let mut account = DcEnergyAccount::new();
        let mut suspended_fraction = Vec::new();
        let mut suspend_cycles = Vec::new();
        for h in &self.hosts {
            account.add_host(&h.meter);
            suspended_fraction.push((h.spec.id, h.meter.low_power_fraction()));
            suspend_cycles.push((h.spec.id, h.meter.suspend_cycles()));
        }
        // `coloc_hours` is empty unless colocation is tracked.
        let hours = self.hour.max(1) as f64;
        let colocation = self
            .coloc_hours
            .iter()
            .map(|row| row.iter().map(|&c| c as f64 / hours).collect())
            .collect();
        let mut sla = self.sla.clone();
        sla.mean_service_ms = if self.service_ms_count > 0 {
            self.service_ms_sum / self.service_ms_count as f64
        } else {
            0.0
        };
        DcOutcome {
            policy: self.policy.label().to_string(),
            hours: self.hour,
            suspended_fraction,
            global_suspended_fraction: account.global_suspended_fraction(),
            energy_kwh: account.kwh(),
            migrations: self.vms.iter().map(|v| (v.spec.id, v.migrations)).collect(),
            colocation,
            sla,
            suspend_cycles,
            timelines,
            placements: self.placements,
            qos: self.qos.take().map(QosStream::into_report),
        }
    }
}
