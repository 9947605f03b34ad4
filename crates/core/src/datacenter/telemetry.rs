//! Datacenter-side emission into the process-global metrics registry.
//!
//! The [`Datacenter`](super::Datacenter) is built through many paths
//! (testbed, cluster, sweep, scenarios) that cannot all thread a
//! registry handle, so its emission targets
//! [`MetricsRegistry::global`]. Handles are resolved once into a
//! process-wide static — every emission on the simulation path is an
//! atomic add, never a name lookup.
//!
//! Every metric here is [`MetricKind::Logical`]: the counted events and
//! the recorded latencies are *simulated* quantities, fully determined
//! by the scenario and seed, so the global logical snapshot is
//! byte-identical no matter how runs are scheduled over worker threads.

use std::sync::OnceLock;

use dds_telemetry::{Counter, Histogram, MetricKind, MetricsRegistry, SpanRecorder};

/// The process-wide control-plane span recorder: wall-clock per control
/// period of five disjoint phases — `dc.consolidate`, `dc.refresh`,
/// `dc.advance_hosts`, `dc.qos_fold` and `dc.im_update` (colocation,
/// model learning and the next hour's levels and IP scores) —
/// aggregated across every [`Datacenter`](super::Datacenter) in the
/// process.
/// Timing only — dump it next to, never into, the logical snapshot.
pub fn dc_spans() -> &'static SpanRecorder {
    static SPANS: OnceLock<SpanRecorder> = OnceLock::new();
    SPANS.get_or_init(SpanRecorder::new)
}

/// Static handles for the datacenter's logical event stream.
pub(super) struct DcMetrics {
    /// Host resumes by [`WakeCause`](super::WakeCause).
    pub traffic_wakes: Counter,
    pub timer_wakes: Counter,
    pub scheduled_wakes: Counter,
    pub management_wakes: Counter,
    /// Host suspend transitions (S3 and S5).
    pub suspends: Counter,
    /// Idle hours where `ControlPolicy::allow_suspend` held a host up.
    pub suspend_vetoes: Counter,
    /// Consolidation moves applied.
    pub migrations: Counter,
    /// Streaming-QoS epoch windows folded and delivered to the policy.
    pub qos_windows: Counter,
    /// Resume latency in simulated milliseconds (logical: the values
    /// come from the power model, not the wall clock).
    pub wake_resume_ms: Histogram,
}

impl DcMetrics {
    /// The process-wide handle set, registered on first use.
    pub(super) fn get() -> &'static DcMetrics {
        static HANDLES: OnceLock<DcMetrics> = OnceLock::new();
        HANDLES.get_or_init(|| {
            let reg = MetricsRegistry::global();
            let c = |name: &str| reg.counter(name, MetricKind::Logical);
            DcMetrics {
                traffic_wakes: c("dc.wakes_traffic"),
                timer_wakes: c("dc.wakes_timer"),
                scheduled_wakes: c("dc.wakes_scheduled"),
                management_wakes: c("dc.wakes_management"),
                suspends: c("dc.suspends"),
                suspend_vetoes: c("dc.suspend_vetoes"),
                migrations: c("dc.migrations"),
                qos_windows: c("dc.qos_windows"),
                wake_resume_ms: reg.histogram("dc.wake_resume_ms", MetricKind::Logical),
            }
        })
    }
}
