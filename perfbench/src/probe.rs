//! Per-repetition deltas of the process-global recorders.
//!
//! `Datacenter` emits into process-global counters and spans
//! (`MetricsRegistry::global()`, `dc_spans()`), so a repetition's own
//! numbers are the difference between a snapshot taken before it and
//! one taken after. The worker pool's busy time is read the same way.

use dds_core::datacenter::dc_spans;
use dds_sim_core::WorkerPool;
use dds_telemetry::{MetricKind, MetricsRegistry};

/// The `Datacenter` spans read by the benchmark (span name, metric name).
pub const DC_SPANS: [(&str, &str); 3] = [
    ("dc.consolidate", "dc.consolidate_ms"),
    ("dc.advance_hosts", "dc.advance_hosts_ms"),
    ("dc.qos_fold", "dc.qos_fold_ms"),
];

/// The global logical counters read by the benchmark (counter name,
/// metric name under the layer that owns the event).
pub const DC_COUNTERS: [(&str, &str); 7] = [
    ("dc.suspends", "hostos.suspends"),
    ("dc.suspend_vetoes", "hostos.suspend_vetoes"),
    ("dc.wakes_traffic", "net.wakes_traffic"),
    ("dc.wakes_timer", "net.wakes_timer"),
    ("dc.wakes_scheduled", "net.wakes_scheduled"),
    ("dc.wakes_management", "net.wakes_management"),
    ("dc.migrations", "dc.migrations"),
];

/// One reading of every global recorder the benchmark uses.
#[derive(Debug, Clone)]
pub struct Snapshot {
    span_ns: [u128; DC_SPANS.len()],
    counters: [u64; DC_COUNTERS.len()],
    /// Simulated resume latencies: (samples, sum in ms).
    resume: (u64, f64),
    pool_busy_ns: u64,
}

/// The difference between two [`Snapshot`]s.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Span wall-clock in ms, in [`DC_SPANS`] order.
    pub span_ms: [f64; DC_SPANS.len()],
    /// Counter increments, in [`DC_COUNTERS`] order.
    pub counters: [u64; DC_COUNTERS.len()],
    /// Resume samples and their summed simulated latency (ms).
    pub resume: (u64, f64),
    /// Busy nanoseconds summed over the pool's workers.
    pub pool_busy_ns: u64,
}

impl Delta {
    /// The increment of the counter published as `metric`.
    pub fn counter(&self, metric: &str) -> u64 {
        DC_COUNTERS
            .iter()
            .position(|(_, m)| *m == metric)
            .map(|i| self.counters[i])
            .expect("metric names a probed counter")
    }
}

/// Reads every recorder now.
pub fn snapshot() -> Snapshot {
    let spans = dc_spans();
    let reg = MetricsRegistry::global();
    let hist = reg
        .histogram("dc.wake_resume_ms", MetricKind::Logical)
        .snapshot();
    Snapshot {
        span_ns: DC_SPANS.map(|(span, _)| spans.ns(span)),
        counters: DC_COUNTERS.map(|(name, _)| reg.counter(name, MetricKind::Logical).get()),
        resume: (hist.count(), hist.mean() * hist.count() as f64),
        pool_busy_ns: WorkerPool::global().busy_ns().iter().sum(),
    }
}

impl Snapshot {
    /// What happened between `self` and the later snapshot `after`.
    pub fn delta_to(&self, after: &Snapshot) -> Delta {
        let mut d = Delta::default();
        for i in 0..DC_SPANS.len() {
            d.span_ms[i] = (after.span_ns[i] - self.span_ns[i]) as f64 / 1e6;
        }
        for i in 0..DC_COUNTERS.len() {
            d.counters[i] = after.counters[i] - self.counters[i];
        }
        d.resume = (
            after.resume.0 - self.resume.0,
            after.resume.1 - self.resume.1,
        );
        d.pool_busy_ns = after.pool_busy_ns - self.pool_busy_ns;
        d
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or 0
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
