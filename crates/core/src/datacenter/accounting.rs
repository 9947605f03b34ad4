//! Outcome assembly.

use super::*;

impl Datacenter {
    /// Finishes the run (flushes meters) and produces the outcome.
    pub fn finish(mut self) -> DcOutcome {
        let end = SimTime::from_hours(self.hour);
        let mut timelines = Vec::new();
        for h in &mut self.hosts {
            let state = h.power.state();
            h.meter.advance(end, state, 0.0);
            // Recorded only under `track_power_timeline`.
            timelines.extend(h.meter.take_timeline());
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
        DcOutcome {
            policy: self.policy.label().to_string(),
            hours: self.hour,
            suspended_fraction,
            global_suspended_fraction: account.global_suspended_fraction(),
            energy_kwh: account.kwh(),
            migrations: self.vms.iter().map(|v| (v.spec.id, v.migrations)).collect(),
            colocation,
            suspend_cycles,
            timelines,
            placements: self.placements,
            qos: self.qos.take().map(QosStream::into_report),
        }
    }
}
