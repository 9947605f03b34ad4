//! Request-level QoS accumulators: the run-wide [`QosReport`] and the
//! per-epoch [`QosWindow`].
//!
//! Both types are built from the same discipline as every other parallel
//! accumulator in the workspace (the fleet digest, the sweep outcomes):
//! **exact integer state only**, so merging shards is associative and
//! commutative — folding per-VM, per-epoch or per-shard pieces in any
//! order produces bit-identical results for any thread or shard count.
//!
//! [`QosReport`] aggregates a whole run (the paper's "more than 99 % of
//! the web search requests were serviced within 200 ms" claim is read off
//! it). [`QosWindow`] is one control epoch's worth of the same counters
//! plus a sparse per-host wake attribution, cheap enough to hand to a
//! `ControlPolicy`-style observer every epoch — the closed-loop signal
//! seam: a policy can see *which* hosts are absorbing wake-induced
//! violations while the run is still going and steer its parking
//! decisions accordingly.

use crate::stats::LatencyHistogram;
use crate::{SimDuration, SimTime};

/// Aggregated request-level QoS of one run: a latency histogram plus the
/// exact SLA counters the paper reports against ("more than 99 % of the
/// web search requests were serviced within 200 ms").
///
/// Every field is an exact integer accumulator (or the log-bucketed
/// [`LatencyHistogram`], itself pure `u64` state), so
/// [`QosReport::merge`] is associative and commutative: folding per-VM
/// shards in any order — one worker thread or sixteen — produces a
/// bit-identical report. The `integration_qos` suite and the `qos-smoke`
/// CI job pin this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosReport {
    /// End-to-end request latencies (arrival → service completion), ms.
    pub latencies: LatencyHistogram,
    /// Total requests served.
    pub total: u64,
    /// Requests within the SLA threshold.
    pub under_sla: u64,
    /// Requests that waited on a host wake (arrived while their host was
    /// parked or mid-resume).
    pub wake_hits: u64,
    /// SLA violations charged to host wakes (the request waited on a
    /// resume).
    pub wake_violations: u64,
    /// SLA violations charged to queueing/service on an awake host.
    pub queue_violations: u64,
    /// Worst latency paid by a wake-hit request, ms (0 when none).
    pub worst_wake_ms: u64,
    /// Requests that could not be served within a recorded timeline
    /// (host parked through the end of the run), as the per-request
    /// oracle counts them. Excluded from the latency histogram; the
    /// streaming fold serves every request, so its reports hold 0.
    pub unserved: u64,
    /// The SLA threshold the counters were judged against, ms.
    pub sla_ms: u64,
}

impl QosReport {
    /// Creates an empty report judging against `sla_ms`.
    pub fn new(sla_ms: u64) -> Self {
        QosReport {
            latencies: LatencyHistogram::new(),
            total: 0,
            under_sla: 0,
            wake_hits: 0,
            wake_violations: 0,
            queue_violations: 0,
            worst_wake_ms: 0,
            unserved: 0,
            sla_ms,
        }
    }

    /// Records one served request.
    pub fn record(&mut self, latency_ms: u64, wake_hit: bool) {
        self.latencies.record(latency_ms);
        self.total += 1;
        if latency_ms <= self.sla_ms {
            self.under_sla += 1;
        } else if wake_hit {
            self.wake_violations += 1;
        } else {
            self.queue_violations += 1;
        }
        if wake_hit {
            self.wake_hits += 1;
            self.worst_wake_ms = self.worst_wake_ms.max(latency_ms);
        }
    }

    /// Records `n` identical non-wake requests in one O(1) bump
    /// (equivalent to `n` calls of [`QosReport::record`] with `wake_hit =
    /// false`). The fleet's streaming QoS uses this to charge a whole
    /// epoch of steady, awake-host requests without walking them.
    pub fn record_n(&mut self, latency_ms: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.latencies.record_n(latency_ms, n);
        self.total += n;
        if latency_ms <= self.sla_ms {
            self.under_sla += n;
        } else {
            self.queue_violations += n;
        }
    }

    /// Fraction of requests within the SLA (1.0 when no requests — an
    /// idle run violates nothing).
    pub fn sla_attainment(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.under_sla as f64 / self.total as f64
        }
    }

    /// Total SLA violations.
    pub fn violations(&self) -> u64 {
        self.total - self.under_sla
    }

    /// Median latency in ms (`None` when empty).
    pub fn p50(&self) -> Option<f64> {
        self.latencies.quantile(0.50)
    }

    /// 99th-percentile latency in ms — the paper's SLA percentile.
    pub fn p99(&self) -> Option<f64> {
        self.latencies.quantile(0.99)
    }

    /// 99.9th-percentile latency in ms — where the wake tail lives.
    pub fn p999(&self) -> Option<f64> {
        self.latencies.quantile(0.999)
    }

    /// Merges another shard into this one. Exact, associative and
    /// commutative; panics if the shards judged different SLAs.
    pub fn merge(&mut self, other: &QosReport) {
        assert_eq!(
            self.sla_ms, other.sla_ms,
            "merging QoS shards judged against different SLAs"
        );
        self.latencies.merge(&other.latencies);
        self.total += other.total;
        self.under_sla += other.under_sla;
        self.wake_hits += other.wake_hits;
        self.wake_violations += other.wake_violations;
        self.queue_violations += other.queue_violations;
        self.worst_wake_ms = self.worst_wake_ms.max(other.worst_wake_ms);
        self.unserved += other.unserved;
    }
}

/// Per-host wake attribution inside a [`QosWindow`]: how many requests on
/// this host waited on a wake this epoch, and how many of those breached
/// the SLA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostWakeQos {
    /// Dense host index (`HostId::index()` of the host the requests were
    /// routed to).
    pub host: u32,
    /// Requests that waited on a resume on this host.
    pub wake_hits: u64,
    /// Of those, SLA violations.
    pub wake_violations: u64,
}

/// One control epoch's QoS signal: the epoch's [`QosReport`] plus a
/// sparse per-host wake attribution, sorted by host index. Like the
/// report, all state is exact integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosWindow {
    /// The epoch (hour index) the window covers.
    pub epoch: u64,
    /// The epoch's aggregated QoS counters.
    pub report: QosReport,
    /// Sparse per-host wake attribution, sorted by `host`. Hosts without
    /// wake hits this epoch do not appear.
    hosts: Vec<HostWakeQos>,
}

impl QosWindow {
    /// Creates an empty window for `epoch`, judging against `sla_ms`.
    pub fn new(epoch: u64, sla_ms: u64) -> Self {
        QosWindow {
            epoch,
            report: QosReport::new(sla_ms),
            hosts: Vec::new(),
        }
    }

    /// Records one served request routed to `host`.
    pub fn record(&mut self, host: u32, latency_ms: u64, wake_hit: bool) {
        self.report.record(latency_ms, wake_hit);
        if !wake_hit {
            return;
        }
        let violation = u64::from(latency_ms > self.report.sla_ms);
        match self.hosts.binary_search_by_key(&host, |h| h.host) {
            Ok(i) => {
                self.hosts[i].wake_hits += 1;
                self.hosts[i].wake_violations += violation;
            }
            Err(i) => self.hosts.insert(
                i,
                HostWakeQos {
                    host,
                    wake_hits: 1,
                    wake_violations: violation,
                },
            ),
        }
    }

    /// The per-host wake attribution, sorted by host index.
    pub fn hosts(&self) -> &[HostWakeQos] {
        &self.hosts
    }

    /// True when the epoch saw no requests at all.
    pub fn is_empty(&self) -> bool {
        self.report.total == 0 && self.report.unserved == 0
    }

    /// Merges another piece of the same epoch into this one: the reports
    /// merge exactly ([`QosReport::merge`]) and the per-host attributions
    /// add up host by host, so merging the windows of disjoint request
    /// sets gives the window that recorded them all. Panics if the
    /// windows cover different epochs or judged different SLAs.
    pub fn merge(&mut self, other: &QosWindow) {
        assert_eq!(
            self.epoch, other.epoch,
            "merging QoS windows of different epochs"
        );
        self.report.merge(&other.report);
        for h in &other.hosts {
            match self.hosts.binary_search_by_key(&h.host, |x| x.host) {
                Ok(i) => {
                    self.hosts[i].wake_hits += h.wake_hits;
                    self.hosts[i].wake_violations += h.wake_violations;
                }
                Err(i) => self.hosts.insert(i, *h),
            }
        }
    }
}

/// The FCFS service step of the streaming QoS pipeline (`dds-core`)
/// and its per-request test oracle: given the instant the host is
/// operational (`power_ready`: the arrival itself on an awake host, the
/// end of the resume in flight otherwise) and the VM's per-vCPU server
/// pool (`free[i]` = instant server `i` frees up), starts the request on
/// the earliest-free server (ties by slot index) and returns its
/// end-to-end latency in ms plus whether it waited on a wake.
#[inline]
pub fn fcfs_serve(
    free: &mut [SimTime],
    arrival: SimTime,
    service: SimDuration,
    power_ready: SimTime,
) -> (u64, bool) {
    let slot = (0..free.len())
        .min_by_key(|&i| free[i])
        .expect("at least one server");
    let start = power_ready.max(free[slot]);
    let done = start + service;
    free[slot] = done;
    let latency_ms = done.saturating_since(arrival).as_millis();
    (latency_ms, power_ready > arrival)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_partition_the_requests() {
        let mut r = QosReport::new(200);
        r.record(50, false);
        r.record(150, true); // wake-hit but still within SLA
        r.record(900, true); // wake-charged violation
        r.record(250, false); // queue-charged violation
        assert_eq!(r.total, 4);
        assert_eq!(r.under_sla, 2);
        assert_eq!(r.violations(), 2);
        assert_eq!(r.wake_violations, 1);
        assert_eq!(r.queue_violations, 1);
        assert_eq!(r.wake_hits, 2);
        assert_eq!(r.worst_wake_ms, 900);
        assert!((r.sla_attainment() - 0.5).abs() < 1e-12);
        // Histogram quantiles report the containing bucket's upper bound
        // (here one bucket width above the exact 150 ms sample).
        let p50 = r.p50().expect("non-empty");
        assert!((150.0..152.0).contains(&p50), "{p50}");
    }

    #[test]
    fn empty_report_is_benign() {
        let r = QosReport::new(200);
        assert_eq!(r.sla_attainment(), 1.0);
        assert_eq!(r.violations(), 0);
        assert_eq!(r.p99(), None);
    }

    #[test]
    fn merge_equals_sequential_build() {
        let reqs = [(50u64, false), (900, true), (120, false), (300, false)];
        let mut whole = QosReport::new(200);
        let mut a = QosReport::new(200);
        let mut b = QosReport::new(200);
        for (i, &(ms, wake)) in reqs.iter().enumerate() {
            whole.record(ms, wake);
            if i % 2 == 0 {
                a.record(ms, wake);
            } else {
                b.record(ms, wake);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ab.total, ba.total);
        assert_eq!(ab.under_sla, ba.under_sla);
        assert_eq!(ab.p999(), ba.p999());
    }

    #[test]
    fn record_n_equals_n_single_records() {
        let mut bulk = QosReport::new(200);
        bulk.record_n(60, 5);
        bulk.record_n(250, 2);
        bulk.record_n(60, 0); // no-op
        let mut seq = QosReport::new(200);
        for _ in 0..5 {
            seq.record(60, false);
        }
        for _ in 0..2 {
            seq.record(250, false);
        }
        assert_eq!(bulk, seq);
        assert_eq!(bulk.queue_violations, 2);
    }

    #[test]
    #[should_panic(expected = "different SLAs")]
    fn merging_mismatched_slas_panics() {
        let mut a = QosReport::new(200);
        a.merge(&QosReport::new(100));
    }

    #[test]
    fn window_attributes_wakes_to_hosts() {
        let mut w = QosWindow::new(3, 200);
        w.record(7, 50, false); // fast request: no attribution
        w.record(7, 900, true); // wake violation on host 7
        w.record(2, 150, true); // wake hit within SLA on host 2
        w.record(7, 1200, true); // second wake violation on host 7
        w.report.unserved += 1;
        assert_eq!(w.epoch, 3);
        assert_eq!(w.report.total, 4);
        assert_eq!(w.report.unserved, 1);
        assert!(!w.is_empty());
        assert_eq!(
            w.hosts(),
            &[
                HostWakeQos {
                    host: 2,
                    wake_hits: 1,
                    wake_violations: 0
                },
                HostWakeQos {
                    host: 7,
                    wake_hits: 2,
                    wake_violations: 2
                },
            ]
        );
    }

    #[test]
    fn empty_window_is_empty() {
        let w = QosWindow::new(0, 200);
        assert!(w.is_empty());
        assert!(w.hosts().is_empty());
    }

    #[test]
    #[should_panic(expected = "different epochs")]
    fn merging_windows_of_different_epochs_panics() {
        let mut a = QosWindow::new(3, 200);
        a.merge(&QosWindow::new(4, 200));
    }

    use proptest::prelude::*;

    proptest! {
        /// Windows recorded over consecutive pieces of a request sequence
        /// and merged in order equal one window that recorded the whole
        /// sequence request by request: report and host attribution.
        #[test]
        fn windows_merged_in_order_equal_one_recorded_window(
            reqs in proptest::collection::vec(
                (0u32..6, 0u64..3_000, any::<bool>(), any::<bool>()),
                0..200,
            ),
            cuts in proptest::collection::vec(0usize..200, 0..6),
        ) {
            let record = |w: &mut QosWindow, &(host, ms, wake, served): &(u32, u64, bool, bool)| {
                if served {
                    w.record(host, ms, wake);
                } else {
                    w.report.unserved += 1;
                }
            };
            let mut whole = QosWindow::new(9, 200);
            for r in &reqs {
                record(&mut whole, r);
            }
            let mut ends: Vec<usize> = cuts.iter().map(|&c| c.min(reqs.len())).collect();
            ends.push(reqs.len());
            ends.sort_unstable();
            let mut merged = QosWindow::new(9, 200);
            let mut start = 0;
            for end in ends {
                let mut piece = QosWindow::new(9, 200);
                for r in &reqs[start..end] {
                    record(&mut piece, r);
                }
                merged.merge(&piece);
                start = end;
            }
            prop_assert_eq!(&merged.report, &whole.report);
            prop_assert_eq!(merged.hosts(), whole.hosts());
            prop_assert_eq!(merged, whole);
        }
    }
}
