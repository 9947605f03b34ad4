//! The typed scenario model: validation, conversion to [`ClusterSpec`],
//! and canonical rendering.
//!
//! A scenario is a named, self-contained description of one experiment:
//! a heterogeneous **fleet** (host classes with per-class power models
//! and suspend/resume latencies), a **workload mix** (groups of VMs over
//! [`VmWorkload`] trace sources), the **engine fidelity** and the
//! **policy set** to sweep. [`Scenario::parse`] turns scenario text into
//! this model with line-numbered errors; [`Scenario::to_cluster_spec`]
//! compiles it onto the existing cluster/sweep machinery, so every
//! scenario fans out through
//! [`run_sweep`](dds_core::sweep::run_sweep) untouched.

use crate::format::{RawDoc, RawEntry, RawSection, ScenarioError};
use dds_core::cluster::ClusterSpec;
use dds_core::datacenter::{DcConfig, EngineConfig, QosStreamConfig};
use dds_core::registry::PolicyRegistry;
use dds_core::spec::{HostSpec, VmMemberSpec, WorkloadKind};
use dds_core::sweep::SweepPoint;
use dds_power::{HostPowerModel, WakeSpeed};
use dds_sim_core::{HostId, SimDuration};
use dds_traces::nutanix::PERSONALITIES;
use dds_traces::{RequestProfile, TracePattern, VmWorkload};

/// One host class of a scenario fleet: `count` identical machines.
#[derive(Debug, Clone, PartialEq)]
pub struct HostClass {
    /// Class name (the `[fleet.<name>]` suffix).
    pub name: String,
    /// Machines in the class.
    pub count: usize,
    /// Physical cores per machine.
    pub cores: f64,
    /// RAM per machine in MiB.
    pub ram_mb: u64,
    /// Maximum resident VMs (0 = unlimited).
    pub max_vms: usize,
    /// Per-class power model (draw figures + suspend/resume latencies);
    /// `None` uses the fleet-wide `DcConfig::power`.
    pub power: Option<HostPowerModel>,
}

/// One workload group of a scenario: `count` VMs sharing a flavor and a
/// trace source.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadGroup {
    /// Group name (the `[workload.<name>]` suffix).
    pub name: String,
    /// VMs in the group.
    pub count: usize,
    /// Virtual CPUs per VM.
    pub vcpus: f64,
    /// RAM per VM in MiB.
    pub ram_mb: u64,
    /// Wake path of the group's VMs.
    pub kind: WorkloadKind,
    /// Trace source.
    pub workload: VmWorkload,
}

/// The optional `[qos]` section: a request-level workload attached to
/// the scenario's interactive VMs. Its presence turns the streaming QoS
/// pipeline on for every run of the scenario
/// ([`DcConfig::qos_stream`]), so energy results come back with a
/// [`QosReport`](dds_sim_core::qos::QosReport) beside them — and
/// closed-loop policies observe each epoch's window.
#[derive(Debug, Clone, PartialEq)]
pub struct QosSpec {
    /// The client profile replayed against every interactive VM.
    pub profile: RequestProfile,
    /// Resume path the fleet runs (`wake = quick | stock`): Drowsy-DC's
    /// ≈800 ms quick resume or the ≈1500 ms stock kernel path. Sets the
    /// run's `DcConfig::wake_speed` and the profile's expected
    /// `resume_latency`.
    pub wake: WakeSpeed,
}

impl QosSpec {
    /// The key of this wake speed in scenario files.
    pub fn wake_key(&self) -> &'static str {
        match self.wake {
            WakeSpeed::Quick => "quick",
            WakeSpeed::Normal => "stock",
        }
    }
}

/// A complete, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (kebab-case identifier).
    pub name: String,
    /// One-line description for `--list`.
    pub summary: String,
    /// Days simulated.
    pub days: u64,
    /// Default seed of the scenario's random streams.
    pub seed: u64,
    /// Engine fidelity (the `mode` key).
    pub mode: EngineConfig,
    /// Hours between consolidation rounds.
    pub relocation_hours: u64,
    /// Policy-registry names swept by the scenario.
    pub policies: Vec<String>,
    /// The heterogeneous fleet.
    pub fleet: Vec<HostClass>,
    /// The workload mix.
    pub workloads: Vec<WorkloadGroup>,
    /// Request-level QoS workload (`[qos]` section), when present.
    pub qos: Option<QosSpec>,
}

// ---------------------------------------------------------------------
// Size limits (DESIGN.md §9). Parsing replays the initial placement
// host by host, so an unbounded count would allocate without limit.

/// Most hosts a scenario's fleet may hold, summed over its classes.
const MAX_HOSTS: usize = 100_000;
/// Most VMs a scenario may place, summed over its workload groups.
const MAX_VMS: usize = 1_000_000;
/// Longest run a scenario may ask for: ten years.
const MAX_DAYS: u64 = 3_650;

/// Checks the running total of the sections' `count`s against `max`,
/// failing at the `count` line that carries it past.
fn check_population<'a>(
    sections: impl Iterator<Item = &'a RawSection>,
    counts: impl Iterator<Item = usize>,
    max: usize,
    what: &str,
) -> Result<(), ScenarioError> {
    let mut total = 0usize;
    for (s, count) in sections.zip(counts) {
        total = total.saturating_add(count);
        if total > max {
            let line = s.get("count").map_or(s.line, |e| e.line);
            return Err(ScenarioError::at(
                line,
                format!("'count' brings the scenario past {max} {what}"),
            ));
        }
    }
    Ok(())
}

/// Sums `size × count` over the sections with checked arithmetic,
/// failing at the section whose term overflows.
fn checked_total<'a>(
    sections: impl Iterator<Item = &'a RawSection>,
    terms: impl Iterator<Item = (u64, usize)>,
    what: &str,
) -> Result<u64, ScenarioError> {
    let mut total = 0u64;
    for (s, (size, count)) in sections.zip(terms) {
        total = size
            .checked_mul(count as u64)
            .and_then(|t| total.checked_add(t))
            .ok_or_else(|| ScenarioError::at(s.line, format!("total {what} overflows")))?;
    }
    Ok(total)
}

// ---------------------------------------------------------------------
// Typed accessors over the raw format.

fn req<'a>(s: &'a RawSection, key: &str) -> Result<&'a RawEntry, ScenarioError> {
    s.get(key).ok_or_else(|| {
        ScenarioError::at(
            s.line,
            format!("section '[{}]' is missing required key '{key}'", s.header()),
        )
    })
}

fn u64_of(e: &RawEntry) -> Result<u64, ScenarioError> {
    e.value.parse().map_err(|_| {
        ScenarioError::at(
            e.line,
            format!(
                "'{}' must be a non-negative integer, got '{}'",
                e.key, e.value
            ),
        )
    })
}

fn usize_of(e: &RawEntry) -> Result<usize, ScenarioError> {
    u64_of(e).map(|v| v as usize)
}

fn f64_of(e: &RawEntry) -> Result<f64, ScenarioError> {
    let v: f64 = e.value.parse().map_err(|_| {
        ScenarioError::at(
            e.line,
            format!("'{}' must be a number, got '{}'", e.key, e.value),
        )
    })?;
    if !v.is_finite() {
        return Err(ScenarioError::at(
            e.line,
            format!("'{}' must be finite, got '{}'", e.key, e.value),
        ));
    }
    Ok(v)
}

fn hour_of(e: &RawEntry) -> Result<u8, ScenarioError> {
    let v = u64_of(e)?;
    if v > 23 {
        return Err(ScenarioError::at(
            e.line,
            format!("'{}' must be an hour of day (0–23), got {v}", e.key),
        ));
    }
    Ok(v as u8)
}

fn fraction_of(e: &RawEntry) -> Result<f64, ScenarioError> {
    let v = f64_of(e)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(ScenarioError::at(
            e.line,
            format!("'{}' must be in [0, 1], got {v}", e.key),
        ));
    }
    Ok(v)
}

fn positive_usize(e: &RawEntry) -> Result<usize, ScenarioError> {
    let v = usize_of(e)?;
    if v == 0 {
        return Err(ScenarioError::at(
            e.line,
            format!("'{}' must be positive", e.key),
        ));
    }
    Ok(v)
}

fn opt<T>(
    s: &RawSection,
    key: &str,
    default: T,
    parse: impl Fn(&RawEntry) -> Result<T, ScenarioError>,
) -> Result<T, ScenarioError> {
    match s.get(key) {
        Some(e) => parse(e),
        None => Ok(default),
    }
}

fn check_keys(s: &RawSection, allowed: &[&str]) -> Result<(), ScenarioError> {
    for e in &s.entries {
        if !allowed.contains(&e.key.as_str()) {
            return Err(ScenarioError::at(
                e.line,
                format!(
                    "unknown key '{}' in section '[{}]' (allowed: {})",
                    e.key,
                    s.header(),
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Pattern dispatch.

const COMMON_WORKLOAD_KEYS: &[&str] = &["pattern", "count", "vcpus", "ram-mb", "kind"];

/// Keys each pattern accepts beyond the common ones.
fn pattern_keys(pattern: &str) -> Option<&'static [&'static str]> {
    Some(match pattern {
        "daily-backup" => &["hour", "duration-hours", "intensity"],
        "comic-strips" => &["hour", "intensity"],
        "seasonal-results" => &["month", "day-of-month", "hours", "intensity"],
        "business-hours" => &["start-hour", "end-hour", "intensity", "jitter"],
        "llmu" => &["mean", "std-dev", "idle-chance"],
        "slmu" => &["lifetime-hours", "intensity"],
        "random-bursts" => &["duty", "intensity"],
        "diurnal-office" => &["start-hour", "end-hour", "peak", "weekend-level"],
        "flash-crowd" => &["base", "crowds-per-week", "crowd-hours", "crowd-intensity"],
        "batch-queue" => &["drain-hour", "mean-jobs", "intensity"],
        "weekend-heavy" => &["weekend-peak", "weekday-evening"],
        "always-idle" => &[],
        "nutanix" => &["personality"],
        _ => return None,
    })
}

fn build_workload(s: &RawSection) -> Result<VmWorkload, ScenarioError> {
    let pattern_entry = req(s, "pattern")?;
    let pattern = pattern_entry.value.as_str();
    let Some(extra_keys) = pattern_keys(pattern) else {
        return Err(ScenarioError::at(
            pattern_entry.line,
            format!(
                "unknown pattern '{pattern}' (known: daily-backup, comic-strips, \
                 seasonal-results, business-hours, llmu, slmu, random-bursts, \
                 diurnal-office, flash-crowd, batch-queue, weekend-heavy, \
                 always-idle, nutanix)"
            ),
        ));
    };
    let allowed: Vec<&str> = COMMON_WORKLOAD_KEYS
        .iter()
        .chain(extra_keys.iter())
        .copied()
        .collect();
    check_keys(s, &allowed)?;

    let w = match pattern {
        "daily-backup" => VmWorkload::Pattern(TracePattern::DailyBackup {
            hour: opt(s, "hour", 2, hour_of)?,
            duration_hours: opt(s, "duration-hours", 1, |e| {
                let v = u64_of(e)?;
                if !(1..=24).contains(&v) {
                    return Err(ScenarioError::at(
                        e.line,
                        format!("'duration-hours' must be 1–24, got {v}"),
                    ));
                }
                Ok(v as u8)
            })?,
            intensity: opt(s, "intensity", 0.9, fraction_of)?,
        }),
        "comic-strips" => VmWorkload::Pattern(TracePattern::ComicStrips {
            hour: opt(s, "hour", 8, hour_of)?,
            intensity: opt(s, "intensity", 0.7, fraction_of)?,
        }),
        "seasonal-results" => VmWorkload::Pattern(TracePattern::SeasonalResults {
            month: opt(s, "month", 6, |e| {
                let v = u64_of(e)?;
                if v > 11 {
                    return Err(ScenarioError::at(
                        e.line,
                        format!("'month' must be 0–11, got {v}"),
                    ));
                }
                Ok(v as u8)
            })?,
            day_of_month: opt(s, "day-of-month", 19, |e| {
                let v = u64_of(e)?;
                if v > 30 {
                    return Err(ScenarioError::at(
                        e.line,
                        format!("'day-of-month' must be 0–30, got {v}"),
                    ));
                }
                Ok(v as u8)
            })?,
            hours: opt(s, "hours", vec![14, 15], |e| {
                e.value
                    .split(',')
                    .map(|part| {
                        let h: u64 = part.trim().parse().map_err(|_| {
                            ScenarioError::at(
                                e.line,
                                format!("'hours' must be a comma list of hours, got '{}'", e.value),
                            )
                        })?;
                        if h > 23 {
                            return Err(ScenarioError::at(
                                e.line,
                                format!("'hours' entries must be 0–23, got {h}"),
                            ));
                        }
                        Ok(h as u8)
                    })
                    .collect()
            })?,
            intensity: opt(s, "intensity", 1.0, fraction_of)?,
        }),
        "business-hours" => VmWorkload::Pattern(TracePattern::BusinessHours {
            start_hour: opt(s, "start-hour", 9, hour_of)?,
            end_hour: opt(s, "end-hour", 17, hour_of)?,
            intensity: opt(s, "intensity", 0.5, fraction_of)?,
            jitter: opt(s, "jitter", 0.2, fraction_of)?,
        }),
        "llmu" => VmWorkload::Pattern(TracePattern::Llmu {
            mean: opt(s, "mean", 0.55, fraction_of)?,
            std_dev: opt(s, "std-dev", 0.2, fraction_of)?,
            idle_chance: opt(s, "idle-chance", 0.01, fraction_of)?,
        }),
        "slmu" => VmWorkload::Pattern(TracePattern::Slmu {
            lifetime_hours: opt(s, "lifetime-hours", 12, positive_usize)?,
            intensity: opt(s, "intensity", 0.9, fraction_of)?,
        }),
        "random-bursts" => VmWorkload::Pattern(TracePattern::RandomBursts {
            duty: opt(s, "duty", 0.15, fraction_of)?,
            intensity: opt(s, "intensity", 0.6, fraction_of)?,
        }),
        "diurnal-office" => VmWorkload::Pattern(TracePattern::DiurnalOffice {
            start_hour: opt(s, "start-hour", 8, hour_of)?,
            end_hour: opt(s, "end-hour", 18, hour_of)?,
            peak: opt(s, "peak", 0.7, fraction_of)?,
            weekend_level: opt(s, "weekend-level", 0.05, fraction_of)?,
        }),
        "flash-crowd" => VmWorkload::Pattern(TracePattern::FlashCrowd {
            base: opt(s, "base", 0.04, fraction_of)?,
            crowds_per_week: opt(s, "crowds-per-week", 2.0, |e| {
                let v = f64_of(e)?;
                if v < 0.0 {
                    return Err(ScenarioError::at(
                        e.line,
                        "'crowds-per-week' must be non-negative".to_string(),
                    ));
                }
                Ok(v)
            })?,
            crowd_hours: opt(s, "crowd-hours", 3, |e| {
                let v = u64_of(e)?;
                if !(1..=48).contains(&v) {
                    return Err(ScenarioError::at(
                        e.line,
                        format!("'crowd-hours' must be 1–48, got {v}"),
                    ));
                }
                Ok(v as u8)
            })?,
            crowd_intensity: opt(s, "crowd-intensity", 0.95, fraction_of)?,
        }),
        "batch-queue" => VmWorkload::Pattern(TracePattern::BatchQueue {
            drain_hour: opt(s, "drain-hour", 1, hour_of)?,
            mean_jobs: opt(s, "mean-jobs", 4.0, |e| {
                let v = f64_of(e)?;
                if !(0.0..=16.0).contains(&v) {
                    return Err(ScenarioError::at(
                        e.line,
                        format!("'mean-jobs' must be in [0, 16], got {v}"),
                    ));
                }
                Ok(v)
            })?,
            intensity: opt(s, "intensity", 0.9, fraction_of)?,
        }),
        "weekend-heavy" => VmWorkload::Pattern(TracePattern::WeekendHeavy {
            weekend_peak: opt(s, "weekend-peak", 0.8, fraction_of)?,
            weekday_evening: opt(s, "weekday-evening", 0.35, fraction_of)?,
        }),
        "always-idle" => VmWorkload::Pattern(TracePattern::AlwaysIdle),
        "nutanix" => {
            let e = req(s, "personality")?;
            let personality = usize_of(e)?;
            if !(1..=PERSONALITIES).contains(&personality) {
                return Err(ScenarioError::at(
                    e.line,
                    format!("'personality' must be 1–{PERSONALITIES}, got {personality}"),
                ));
            }
            VmWorkload::Nutanix { personality }
        }
        _ => unreachable!("pattern_keys gated the name"),
    };
    Ok(w)
}

// ---------------------------------------------------------------------
// Section builders.

const SCENARIO_KEYS: &[&str] = &[
    "name",
    "summary",
    "days",
    "seed",
    "mode",
    "relocation-hours",
    "policies",
];

const FLEET_KEYS: &[&str] = &[
    "count",
    "cores",
    "ram-mb",
    "max-vms",
    "idle-watts",
    "peak-watts",
    "suspended-watts",
    "off-watts",
    "transition-watts",
    "suspend-latency-ms",
    "resume-quick-ms",
    "resume-normal-ms",
];

const QOS_KEYS: &[&str] = &[
    "peak-rps",
    "mean-service-ms",
    "std-service-ms",
    "sla-ms",
    "wake",
];

fn build_qos(s: &RawSection) -> Result<QosSpec, ScenarioError> {
    check_keys(s, QOS_KEYS)?;
    let wake = opt(s, "wake", WakeSpeed::Quick, |e| match e.value.as_str() {
        "quick" => Ok(WakeSpeed::Quick),
        "stock" => Ok(WakeSpeed::Normal),
        other => Err(ScenarioError::at(
            e.line,
            format!("'wake' must be quick or stock, got '{other}'"),
        )),
    })?;
    let base = match wake {
        WakeSpeed::Quick => RequestProfile::web_search_quick_resume(),
        WakeSpeed::Normal => RequestProfile::web_search(),
    };
    let positive_ms = |e: &RawEntry| {
        let v = f64_of(e)?;
        if v <= 0.0 {
            return Err(ScenarioError::at(
                e.line,
                format!("'{}' must be positive", e.key),
            ));
        }
        Ok(v)
    };
    let profile = RequestProfile {
        peak_rps: opt(s, "peak-rps", base.peak_rps, positive_ms)?,
        mean_service_ms: opt(s, "mean-service-ms", base.mean_service_ms, positive_ms)?,
        std_service_ms: opt(s, "std-service-ms", base.std_service_ms, |e| {
            let v = f64_of(e)?;
            if v < 0.0 {
                return Err(ScenarioError::at(
                    e.line,
                    "'std-service-ms' must be non-negative".to_string(),
                ));
            }
            Ok(v)
        })?,
        sla: opt(s, "sla-ms", base.sla, |e| {
            let v = u64_of(e)?;
            if v == 0 {
                return Err(ScenarioError::at(e.line, "'sla-ms' must be positive"));
            }
            Ok(SimDuration::from_millis(v))
        })?,
        resume_latency: base.resume_latency,
    };
    Ok(QosSpec { profile, wake })
}

const POWER_KEYS: &[&str] = &[
    "idle-watts",
    "peak-watts",
    "suspended-watts",
    "off-watts",
    "transition-watts",
    "suspend-latency-ms",
    "resume-quick-ms",
    "resume-normal-ms",
];

fn build_host_class(s: &RawSection) -> Result<HostClass, ScenarioError> {
    check_keys(s, FLEET_KEYS)?;
    if s.name.is_empty() {
        return Err(ScenarioError::at(
            s.line,
            "fleet sections need a class name: '[fleet.<class>]'",
        ));
    }
    let power = if s
        .entries
        .iter()
        .any(|e| POWER_KEYS.contains(&e.key.as_str()))
    {
        let mut m = HostPowerModel::paper_default();
        let watts = |e: &RawEntry| {
            let v = f64_of(e)?;
            if v < 0.0 {
                return Err(ScenarioError::at(
                    e.line,
                    format!("'{}' must be non-negative", e.key),
                ));
            }
            Ok(v)
        };
        m.idle_watts = opt(s, "idle-watts", m.idle_watts, watts)?;
        m.peak_watts = opt(s, "peak-watts", m.peak_watts, watts)?;
        m.suspended_watts = opt(s, "suspended-watts", m.suspended_watts, watts)?;
        m.off_watts = opt(s, "off-watts", m.off_watts, watts)?;
        m.transition_watts = opt(s, "transition-watts", m.transition_watts, watts)?;
        let millis = |e: &RawEntry| u64_of(e).map(SimDuration::from_millis);
        m.timings.suspend_latency =
            opt(s, "suspend-latency-ms", m.timings.suspend_latency, millis)?;
        m.timings.resume_quick = opt(s, "resume-quick-ms", m.timings.resume_quick, millis)?;
        m.timings.resume_normal = opt(s, "resume-normal-ms", m.timings.resume_normal, millis)?;
        Some(m)
    } else {
        None
    };
    Ok(HostClass {
        name: s.name.clone(),
        count: positive_usize(req(s, "count")?)?,
        cores: {
            let e = req(s, "cores")?;
            let v = f64_of(e)?;
            if v <= 0.0 {
                return Err(ScenarioError::at(e.line, "'cores' must be positive"));
            }
            v
        },
        ram_mb: {
            let e = req(s, "ram-mb")?;
            let v = u64_of(e)?;
            if v == 0 {
                return Err(ScenarioError::at(e.line, "'ram-mb' must be positive"));
            }
            v
        },
        max_vms: opt(s, "max-vms", 0, usize_of)?,
        power,
    })
}

fn build_workload_group(s: &RawSection) -> Result<WorkloadGroup, ScenarioError> {
    if s.name.is_empty() {
        return Err(ScenarioError::at(
            s.line,
            "workload sections need a group name: '[workload.<group>]'",
        ));
    }
    let workload = build_workload(s)?;
    let kind = opt(s, "kind", WorkloadKind::Interactive, |e| {
        match e.value.as_str() {
            "interactive" => Ok(WorkloadKind::Interactive),
            "timer" => Ok(WorkloadKind::TimerDriven),
            "batch" => Ok(WorkloadKind::Batch),
            other => Err(ScenarioError::at(
                e.line,
                format!("'kind' must be interactive, timer or batch, got '{other}'"),
            )),
        }
    })?;
    Ok(WorkloadGroup {
        name: s.name.clone(),
        count: positive_usize(req(s, "count")?)?,
        vcpus: {
            let e = req(s, "vcpus")?;
            let v = f64_of(e)?;
            if v <= 0.0 {
                return Err(ScenarioError::at(e.line, "'vcpus' must be positive"));
            }
            v
        },
        ram_mb: {
            let e = req(s, "ram-mb")?;
            let v = u64_of(e)?;
            if v == 0 {
                return Err(ScenarioError::at(e.line, "'ram-mb' must be positive"));
            }
            v
        },
        kind,
        workload,
    })
}

impl Scenario {
    /// Parses and validates scenario text, resolving policy names against
    /// the standard [`PolicyRegistry`]. All errors carry the 1-based line
    /// of the offending entry.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        Self::parse_with_policies(text, &PolicyRegistry::standard().names())
    }

    /// Like [`Scenario::parse`], but validates policy names against a
    /// custom list (e.g. a registry carrying experimental entries).
    pub fn parse_with_policies(
        text: &str,
        known_policies: &[&str],
    ) -> Result<Scenario, ScenarioError> {
        let doc = RawDoc::parse(text)?;
        for s in &doc.sections {
            if !matches!(s.kind.as_str(), "scenario" | "fleet" | "workload" | "qos") {
                return Err(ScenarioError::at(
                    s.line,
                    format!(
                        "unknown section '[{}]' (expected [scenario], [fleet.<class>], \
                         [workload.<group>] or [qos])",
                        s.header()
                    ),
                ));
            }
            // '[scenario.<x>]' / '[qos.<x>]' would otherwise be silently
            // ignored ways to misspell the head sections; the raw layer
            // already rejects duplicates of the bare forms.
            if matches!(s.kind.as_str(), "scenario" | "qos") && !s.name.is_empty() {
                return Err(ScenarioError::at(
                    s.line,
                    format!(
                        "the [{}] section takes no name (got '[{}]')",
                        s.kind,
                        s.header()
                    ),
                ));
            }
        }
        let Some(head) = doc.sections_of("scenario").next() else {
            return Err(ScenarioError::at(0, "missing the [scenario] section"));
        };
        check_keys(head, SCENARIO_KEYS)?;
        let name_entry = req(head, "name")?;
        let name = name_entry.value.clone();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            return Err(ScenarioError::at(
                name_entry.line,
                format!("'name' must be kebab-case ([a-z0-9-]+), got '{name}'"),
            ));
        }
        let days = {
            let e = req(head, "days")?;
            let v = u64_of(e)?;
            if v == 0 || v > MAX_DAYS {
                return Err(ScenarioError::at(
                    e.line,
                    format!("'days' must be between 1 and {MAX_DAYS}, got {v}"),
                ));
            }
            v
        };
        let mode = opt(head, "mode", EngineConfig::Legacy, |e| {
            match e.value.as_str() {
                "legacy" => Ok(EngineConfig::Legacy),
                "high-fidelity" => Ok(EngineConfig::HighFidelity),
                other => Err(ScenarioError::at(
                    e.line,
                    format!("'mode' must be legacy or high-fidelity, got '{other}'"),
                )),
            }
        })?;
        let relocation_hours = opt(head, "relocation-hours", 2, |e| {
            let v = u64_of(e)?;
            if v == 0 {
                return Err(ScenarioError::at(
                    e.line,
                    "'relocation-hours' must be positive",
                ));
            }
            Ok(v)
        })?;
        let policies_entry = req(head, "policies")?;
        let policies: Vec<String> = policies_entry
            .value
            .split(',')
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect();
        if policies.is_empty() {
            return Err(ScenarioError::at(
                policies_entry.line,
                "'policies' must list at least one policy",
            ));
        }
        for p in &policies {
            if !known_policies.contains(&p.as_str()) {
                return Err(ScenarioError::at(
                    policies_entry.line,
                    format!(
                        "unknown policy '{p}' (registered: {})",
                        known_policies.join(", ")
                    ),
                ));
            }
        }

        let fleet: Vec<HostClass> = doc
            .sections_of("fleet")
            .map(build_host_class)
            .collect::<Result<_, _>>()?;
        if fleet.is_empty() {
            return Err(ScenarioError::at(
                head.line,
                "scenario needs at least one [fleet.<class>] section",
            ));
        }
        let counts = fleet.iter().map(|c| c.count);
        check_population(doc.sections_of("fleet"), counts, MAX_HOSTS, "hosts")?;
        let qos = doc.sections_of("qos").next().map(build_qos).transpose()?;
        let workloads: Vec<WorkloadGroup> = doc
            .sections_of("workload")
            .map(build_workload_group)
            .collect::<Result<_, _>>()?;
        if workloads.is_empty() {
            return Err(ScenarioError::at(
                head.line,
                "scenario needs at least one [workload.<group>] section",
            ));
        }
        let counts = workloads.iter().map(|g| g.count);
        check_population(doc.sections_of("workload"), counts, MAX_VMS, "VMs")?;

        // Fleet-level capacity sanity: the population must seat at all.
        let total_ram = checked_total(
            doc.sections_of("fleet"),
            fleet.iter().map(|c| (c.ram_mb, c.count)),
            "fleet RAM",
        )?;
        let need_ram = checked_total(
            doc.sections_of("workload"),
            workloads.iter().map(|g| (g.ram_mb, g.count)),
            "workload RAM",
        )?;
        if need_ram > total_ram {
            return Err(ScenarioError::at(
                head.line,
                format!(
                    "workloads need {need_ram} MiB of RAM but the fleet only has {total_ram} MiB"
                ),
            ));
        }
        if fleet.iter().all(|c| c.max_vms > 0) {
            let slots = checked_total(
                doc.sections_of("fleet"),
                fleet.iter().map(|c| (c.max_vms as u64, c.count)),
                "VM slots",
            )?;
            let vms: usize = workloads.iter().map(|g| g.count).sum();
            if vms as u64 > slots {
                return Err(ScenarioError::at(
                    head.line,
                    format!("workloads place {vms} VMs but the fleet caps out at {slots} slots"),
                ));
            }
        }
        // Per-host seating: replay the runtime's capacity-aware
        // round-robin (ClusterSpec::initial_placement), so a scenario
        // that parses is guaranteed to place without panicking. Report
        // the failure at the offending workload section's line.
        {
            let mut resident: Vec<usize> = Vec::new();
            let mut ram_free: Vec<u64> = Vec::new();
            let mut host_cap: Vec<usize> = Vec::new();
            for class in &fleet {
                for _ in 0..class.count {
                    resident.push(0);
                    ram_free.push(class.ram_mb);
                    host_cap.push(class.max_vms);
                }
            }
            let mut next = 0usize;
            let group_lines: Vec<usize> = doc.sections_of("workload").map(|s| s.line).collect();
            for (g, group) in workloads.iter().enumerate() {
                for _ in 0..group.count {
                    let seat = (0..ram_free.len())
                        .map(|k| (next + k) % ram_free.len())
                        .find(|&h| {
                            (host_cap[h] == 0 || resident[h] < host_cap[h])
                                && ram_free[h] >= group.ram_mb
                        });
                    let Some(seat) = seat else {
                        return Err(ScenarioError::at(
                            group_lines[g],
                            format!(
                                "group '{}' cannot be seated: no host has room for another \
                                 {} MiB VM (check per-class ram-mb/max-vms)",
                                group.name, group.ram_mb
                            ),
                        ));
                    };
                    resident[seat] += 1;
                    ram_free[seat] -= group.ram_mb;
                    next = (seat + 1) % ram_free.len();
                }
            }
        }

        Ok(Scenario {
            name,
            summary: opt(head, "summary", String::new(), |e| Ok(e.value.clone()))?,
            days,
            seed: opt(head, "seed", 42, u64_of)?,
            mode,
            relocation_hours,
            policies,
            fleet,
            workloads,
            qos,
        })
    }

    /// Total machines across all host classes.
    pub fn host_count(&self) -> usize {
        self.fleet.iter().map(|c| c.count).sum()
    }

    /// Total VMs across all workload groups.
    pub fn vm_count(&self) -> usize {
        self.workloads.iter().map(|g| g.count).sum()
    }

    /// Rescales the scenario to roughly `hosts` machines, keeping the
    /// class and workload *mix* (the shared `--hosts` fleet-size knob).
    /// Host-class counts round up and workload counts round down against
    /// the same factor, so a feasible scenario stays feasible; every
    /// non-empty class and group keeps at least one member.
    pub fn scale_to_hosts(&mut self, hosts: usize) {
        let current = self.host_count();
        if current == 0 || hosts == 0 || hosts == current {
            return;
        }
        for class in &mut self.fleet {
            class.count = (class.count * hosts).div_ceil(current).max(1);
        }
        for group in &mut self.workloads {
            group.count = (group.count * hosts / current).max(1);
        }
    }

    /// Compiles the scenario onto the cluster machinery: the fleet
    /// expands into per-host [`HostSpec`]s (class power models attached),
    /// the workload mix into [`VmMemberSpec`] groups, and the engine
    /// fidelity into the spec's [`EngineConfig`].
    pub fn to_cluster_spec(&self) -> ClusterSpec {
        let mut config = DcConfig::paper_default();
        config.track_colocation = false; // O(vms²·hours); scenarios are fleet-scale
        config.relocation_period_hours = self.relocation_hours;
        if let Some(qos) = &self.qos {
            // Stream the [qos] client inline with every run; its requests
            // are the ones that wake parked hosts, and the wake path
            // follows the section.
            config.qos_stream = Some(QosStreamConfig::serial(qos.profile.clone()));
            config.wake_speed = qos.wake;
        }
        let fleet: Vec<HostSpec> = self
            .fleet
            .iter()
            .flat_map(|class| {
                (0..class.count).map(move |k| HostSpec {
                    id: HostId(0), // re-assigned densely by ClusterSpec::explicit
                    name: format!("{}-{k}", class.name),
                    cpu_cores: class.cores,
                    ram_mb: class.ram_mb,
                    max_vms: class.max_vms,
                    power: class.power.clone(),
                })
            })
            .collect();
        let members: Vec<VmMemberSpec> = self
            .workloads
            .iter()
            .map(|g| VmMemberSpec {
                name_prefix: format!("{}-", g.name),
                count: g.count,
                vcpus: g.vcpus,
                ram_mb: g.ram_mb,
                workload: g.workload.clone(),
                kind: g.kind,
            })
            .collect();
        let mut spec = ClusterSpec::explicit(fleet, members, self.days, config);
        spec.engine = self.mode;
        spec
    }

    /// The scenario's sweep grid: one point per policy, all driven by
    /// `seed` (the scenario's own seed when `None`). Feed the result to
    /// [`run_sweep`](dds_core::sweep::run_sweep) — or use
    /// [`run_scenario`](crate::run_scenario).
    pub fn sweep_points(&self, seed: Option<u64>) -> Vec<SweepPoint> {
        let spec = self.to_cluster_spec();
        let seed = seed.unwrap_or(self.seed);
        self.policies
            .iter()
            .map(|policy| SweepPoint {
                policy: policy.clone(),
                spec: spec.clone(),
                seed,
            })
            .collect()
    }

    /// Renders the scenario back to canonical scenario text.
    /// `parse(render(s)) == s` for every valid scenario (the round-trip
    /// the catalog tests pin).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("[scenario]\n");
        out.push_str(&format!("name = {}\n", self.name));
        out.push_str(&format!("summary = {}\n", self.summary));
        out.push_str(&format!("days = {}\n", self.days));
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("mode = {}\n", self.mode.label()));
        out.push_str(&format!("relocation-hours = {}\n", self.relocation_hours));
        out.push_str(&format!("policies = {}\n", self.policies.join(", ")));
        if let Some(qos) = &self.qos {
            out.push_str("\n[qos]\n");
            out.push_str(&format!("peak-rps = {}\n", qos.profile.peak_rps));
            out.push_str(&format!(
                "mean-service-ms = {}\n",
                qos.profile.mean_service_ms
            ));
            out.push_str(&format!(
                "std-service-ms = {}\n",
                qos.profile.std_service_ms
            ));
            out.push_str(&format!("sla-ms = {}\n", qos.profile.sla.as_millis()));
            out.push_str(&format!("wake = {}\n", qos.wake_key()));
        }
        for class in &self.fleet {
            out.push_str(&format!("\n[fleet.{}]\n", class.name));
            out.push_str(&format!("count = {}\n", class.count));
            out.push_str(&format!("cores = {}\n", class.cores));
            out.push_str(&format!("ram-mb = {}\n", class.ram_mb));
            out.push_str(&format!("max-vms = {}\n", class.max_vms));
            if let Some(m) = &class.power {
                out.push_str(&format!("idle-watts = {}\n", m.idle_watts));
                out.push_str(&format!("peak-watts = {}\n", m.peak_watts));
                out.push_str(&format!("suspended-watts = {}\n", m.suspended_watts));
                out.push_str(&format!("off-watts = {}\n", m.off_watts));
                out.push_str(&format!("transition-watts = {}\n", m.transition_watts));
                out.push_str(&format!(
                    "suspend-latency-ms = {}\n",
                    m.timings.suspend_latency.as_millis()
                ));
                out.push_str(&format!(
                    "resume-quick-ms = {}\n",
                    m.timings.resume_quick.as_millis()
                ));
                out.push_str(&format!(
                    "resume-normal-ms = {}\n",
                    m.timings.resume_normal.as_millis()
                ));
            }
        }
        for g in &self.workloads {
            out.push_str(&format!("\n[workload.{}]\n", g.name));
            out.push_str(&format!("pattern = {}\n", render_pattern_name(&g.workload)));
            out.push_str(&format!("count = {}\n", g.count));
            out.push_str(&format!("vcpus = {}\n", g.vcpus));
            out.push_str(&format!("ram-mb = {}\n", g.ram_mb));
            let kind = match g.kind {
                WorkloadKind::Interactive => "interactive",
                WorkloadKind::TimerDriven => "timer",
                WorkloadKind::Batch => "batch",
            };
            out.push_str(&format!("kind = {kind}\n"));
            render_pattern_params(&g.workload, &mut out);
        }
        out
    }
}

fn render_pattern_name(w: &VmWorkload) -> &'static str {
    match w {
        VmWorkload::Nutanix { .. } => "nutanix",
        VmWorkload::Pattern(p) => match p {
            TracePattern::DailyBackup { .. } => "daily-backup",
            TracePattern::ComicStrips { .. } => "comic-strips",
            TracePattern::SeasonalResults { .. } => "seasonal-results",
            TracePattern::BusinessHours { .. } => "business-hours",
            TracePattern::Llmu { .. } => "llmu",
            TracePattern::Slmu { .. } => "slmu",
            TracePattern::RandomBursts { .. } => "random-bursts",
            TracePattern::DiurnalOffice { .. } => "diurnal-office",
            TracePattern::FlashCrowd { .. } => "flash-crowd",
            TracePattern::BatchQueue { .. } => "batch-queue",
            TracePattern::WeekendHeavy { .. } => "weekend-heavy",
            TracePattern::AlwaysIdle => "always-idle",
        },
    }
}

fn render_pattern_params(w: &VmWorkload, out: &mut String) {
    let mut kv = |k: &str, v: String| out.push_str(&format!("{k} = {v}\n"));
    match w {
        VmWorkload::Nutanix { personality } => kv("personality", personality.to_string()),
        VmWorkload::Pattern(p) => match *p {
            TracePattern::DailyBackup {
                hour,
                duration_hours,
                intensity,
            } => {
                kv("hour", hour.to_string());
                kv("duration-hours", duration_hours.to_string());
                kv("intensity", intensity.to_string());
            }
            TracePattern::ComicStrips { hour, intensity } => {
                kv("hour", hour.to_string());
                kv("intensity", intensity.to_string());
            }
            TracePattern::SeasonalResults {
                month,
                day_of_month,
                ref hours,
                intensity,
            } => {
                kv("month", month.to_string());
                kv("day-of-month", day_of_month.to_string());
                let hours: Vec<String> = hours.iter().map(|h| h.to_string()).collect();
                kv("hours", hours.join(", "));
                kv("intensity", intensity.to_string());
            }
            TracePattern::BusinessHours {
                start_hour,
                end_hour,
                intensity,
                jitter,
            } => {
                kv("start-hour", start_hour.to_string());
                kv("end-hour", end_hour.to_string());
                kv("intensity", intensity.to_string());
                kv("jitter", jitter.to_string());
            }
            TracePattern::Llmu {
                mean,
                std_dev,
                idle_chance,
            } => {
                kv("mean", mean.to_string());
                kv("std-dev", std_dev.to_string());
                kv("idle-chance", idle_chance.to_string());
            }
            TracePattern::Slmu {
                lifetime_hours,
                intensity,
            } => {
                kv("lifetime-hours", lifetime_hours.to_string());
                kv("intensity", intensity.to_string());
            }
            TracePattern::RandomBursts { duty, intensity } => {
                kv("duty", duty.to_string());
                kv("intensity", intensity.to_string());
            }
            TracePattern::DiurnalOffice {
                start_hour,
                end_hour,
                peak,
                weekend_level,
            } => {
                kv("start-hour", start_hour.to_string());
                kv("end-hour", end_hour.to_string());
                kv("peak", peak.to_string());
                kv("weekend-level", weekend_level.to_string());
            }
            TracePattern::FlashCrowd {
                base,
                crowds_per_week,
                crowd_hours,
                crowd_intensity,
            } => {
                kv("base", base.to_string());
                kv("crowds-per-week", crowds_per_week.to_string());
                kv("crowd-hours", crowd_hours.to_string());
                kv("crowd-intensity", crowd_intensity.to_string());
            }
            TracePattern::BatchQueue {
                drain_hour,
                mean_jobs,
                intensity,
            } => {
                kv("drain-hour", drain_hour.to_string());
                kv("mean-jobs", mean_jobs.to_string());
                kv("intensity", intensity.to_string());
            }
            TracePattern::WeekendHeavy {
                weekend_peak,
                weekday_evening,
            } => {
                kv("weekend-peak", weekend_peak.to_string());
                kv("weekday-evening", weekday_evening.to_string());
            }
            TracePattern::AlwaysIdle => {}
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
[scenario]
name = minimal
summary = smallest valid scenario
days = 1
policies = drowsy-dc

[fleet.box]
count = 2
cores = 8
ram-mb = 16384

[workload.idle]
pattern = always-idle
count = 2
vcpus = 2
ram-mb = 6144
";

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(s.name, "minimal");
        assert_eq!(s.seed, 42, "default seed");
        assert_eq!(s.mode, EngineConfig::Legacy);
        assert_eq!(s.relocation_hours, 2);
        assert_eq!(s.host_count(), 2);
        assert_eq!(s.vm_count(), 2);
        assert_eq!(s.workloads[0].kind, WorkloadKind::Interactive);
        assert!(
            s.fleet[0].power.is_none(),
            "no overrides → fleet-wide model"
        );
    }

    #[test]
    fn scale_to_hosts_keeps_the_mix_and_feasibility() {
        let mut s = Scenario::parse(MINIMAL).unwrap();
        s.scale_to_hosts(7);
        assert_eq!(s.host_count(), 7);
        assert_eq!(s.vm_count(), 7, "workloads scale with the fleet");
        // Capacity grew at least as fast as demand: still feasible.
        let ram: u64 = s.fleet.iter().map(|c| c.ram_mb * c.count as u64).sum();
        let need: u64 = s.workloads.iter().map(|g| g.ram_mb * g.count as u64).sum();
        assert!(need <= ram);
        // Scaling down keeps every class and group populated.
        s.scale_to_hosts(1);
        assert_eq!(s.host_count(), 1);
        assert_eq!(s.vm_count(), 1);
        // No-op cases leave the scenario untouched.
        let before = s.host_count();
        s.scale_to_hosts(0);
        s.scale_to_hosts(before);
        assert_eq!(s.host_count(), before);
    }

    #[test]
    fn cluster_spec_compilation_carries_everything_over() {
        let mut s = Scenario::parse(MINIMAL).unwrap();
        s.mode = EngineConfig::HighFidelity;
        let spec = s.to_cluster_spec();
        assert_eq!(spec.hosts, 2);
        assert_eq!(spec.vms, 2);
        assert_eq!(spec.days, 1);
        assert_eq!(spec.engine, EngineConfig::HighFidelity);
        assert_eq!(spec.config.relocation_period_hours, 2);
        assert_eq!(spec.fleet[1].name, "box-1");
        assert_eq!(spec.members[0].name_prefix, "idle-");
        let points = s.sweep_points(None);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].policy, "drowsy-dc");
        assert_eq!(points[0].seed, 42);
        assert_eq!(s.sweep_points(Some(7))[0].seed, 7);
    }

    #[test]
    fn per_class_power_overrides_build_a_model() {
        let text = MINIMAL.replace(
            "ram-mb = 16384\n",
            "ram-mb = 16384\nidle-watts = 20\nresume-quick-ms = 400\n",
        );
        let s = Scenario::parse(&text).unwrap();
        let m = s.fleet[0].power.as_ref().expect("override present");
        assert_eq!(m.idle_watts, 20.0);
        assert_eq!(m.peak_watts, 120.0, "unset keys keep paper defaults");
        assert_eq!(m.timings.resume_quick, SimDuration::from_millis(400));
        let spec = s.to_cluster_spec();
        assert_eq!(spec.fleet[0].power.as_ref().unwrap().idle_watts, 20.0);
    }

    fn expect_err(text: &str, line: usize, needle: &str) {
        let err = Scenario::parse(text).unwrap_err();
        assert_eq!(err.line, line, "wrong line for {needle:?}: {err}");
        assert!(err.message.contains(needle), "{err}");
    }

    #[test]
    fn semantic_errors_carry_the_offending_line() {
        // Unknown policy: line of the `policies` entry (5).
        expect_err(
            &MINIMAL.replace("policies = drowsy-dc", "policies = warp-drive"),
            5,
            "unknown policy 'warp-drive'",
        );
        // Zero count: line of the `count` entry in the fleet section (8).
        expect_err(
            &MINIMAL.replace("count = 2\ncores", "count = 0\ncores"),
            8,
            "must be positive",
        );
        // Unknown key: its own line (inserted after line 9, so line 10).
        expect_err(
            &MINIMAL.replace("cores = 8\n", "cores = 8\nwarp = 9\n"),
            10,
            "unknown key 'warp'",
        );
        // Unknown pattern: the `pattern` entry's line (13).
        expect_err(
            &MINIMAL.replace("pattern = always-idle", "pattern = coffee-break"),
            13,
            "unknown pattern 'coffee-break'",
        );
        // Bad number: its own line.
        expect_err(
            &MINIMAL.replace("days = 1", "days = soon"),
            4,
            "non-negative integer",
        );
        // Missing required key: the section header's line.
        expect_err(
            &MINIMAL.replace("count = 2\ncores", "cores"),
            7,
            "missing required key 'count'",
        );
        // Capacity overflow: reported at the [scenario] header.
        expect_err(
            &MINIMAL.replace("ram-mb = 6144", "ram-mb = 65536"),
            1,
            "only has",
        );
        // Pattern-specific validation.
        expect_err(
            &MINIMAL.replace(
                "pattern = always-idle",
                "pattern = nutanix\npersonality = 9",
            ),
            14,
            "'personality' must be 1–5",
        );
        // Out-of-range episode lengths are rejected, not clamped.
        expect_err(
            &MINIMAL.replace(
                "pattern = always-idle",
                "pattern = flash-crowd\ncrowd-hours = 200",
            ),
            14,
            "'crowd-hours' must be 1–48",
        );
        expect_err(
            &MINIMAL.replace(
                "pattern = always-idle",
                "pattern = daily-backup\nduration-hours = 100",
            ),
            14,
            "'duration-hours' must be 1–24",
        );
        // A named scenario section is a misspelling, not data.
        expect_err(
            &MINIMAL.replace(
                "[workload.idle]",
                "[scenario.typo]\ndays = 99\n[workload.idle]",
            ),
            12,
            "takes no name",
        );
    }

    #[test]
    fn per_host_infeasible_population_is_rejected_at_parse_time() {
        // Aggregate RAM fits (2 × 8192 ≥ 16384) but no single host can
        // seat the 16 GiB VM — must fail at parse with the workload
        // group's line, not panic later in initial_placement.
        let text = MINIMAL
            .replace(
                "count = 2\ncores = 8\nram-mb = 16384",
                "count = 2\ncores = 8\nram-mb = 8192",
            )
            .replace(
                "count = 2\nvcpus = 2\nram-mb = 6144",
                "count = 1\nvcpus = 2\nram-mb = 16384",
            );
        let err = Scenario::parse(&text).unwrap_err();
        assert_eq!(err.line, 12, "workload section line: {err}");
        assert!(err.message.contains("cannot be seated"), "{err}");
        // The same population on one big host seats fine.
        let ok = MINIMAL.replace(
            "count = 2\nvcpus = 2\nram-mb = 6144",
            "count = 2\nvcpus = 2\nram-mb = 8192",
        );
        Scenario::parse(&ok).expect("seatable population parses");
    }

    #[test]
    fn oversized_populations_and_horizons_are_rejected_at_their_line() {
        // Unbounded, four billion hosts make the seating replay abort on
        // a 2 GiB allocation (and `ram-mb × count` overflow in debug).
        expect_err(
            &MINIMAL.replace("count = 2\ncores", "count = 4000000000\ncores"),
            8,
            "past 100000 hosts",
        );
        // The limit is on the total: two classes that each fit can
        // overflow it together, reported at the second class's count.
        let two_classes = MINIMAL.replace(
            "[workload.idle]",
            "[fleet.more]\ncount = 99999\ncores = 8\nram-mb = 16384\n\n[workload.idle]",
        );
        expect_err(&two_classes, 13, "past 100000 hosts");
        expect_err(
            &MINIMAL.replace("count = 2\nvcpus", "count = 1000001\nvcpus"),
            14,
            "past 1000000 VMs",
        );
        expect_err(
            &MINIMAL.replace("days = 1", "days = 3651"),
            4,
            "'days' must be between 1 and 3650",
        );
        // Sizes whose products overflow u64 fail at their section.
        expect_err(
            &MINIMAL.replace("ram-mb = 16384", "ram-mb = 18446744073709551615"),
            7,
            "total fleet RAM overflows",
        );
        expect_err(
            &MINIMAL.replace(
                "ram-mb = 16384",
                "ram-mb = 16384\nmax-vms = 18446744073709551615",
            ),
            7,
            "total VM slots overflows",
        );
    }

    /// Values that stress the typed layer: zero, overflow edges,
    /// negatives, non-finite floats and the size limits' neighbours.
    const EXTREMES: &[&str] = &[
        "0",
        "1",
        "-1",
        "3651",
        "100001",
        "1000001",
        "4000000000",
        "18446744073709551615",
        "18446744073709551616",
        "1e308",
        "-1e308",
        "1e-320",
        "NaN",
        "inf",
        "0.5",
        "",
    ];

    /// Applies `noise` to `text`: its first two bytes put an [`EXTREMES`]
    /// value in place of one `key = value` line's value; every further
    /// four bytes replace, insert or delete one byte.
    fn mutate(text: &str, noise: &[u8]) -> String {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        if let [pick, value, ..] = noise {
            let entries: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].contains(" = "))
                .collect();
            let i = entries[*pick as usize % entries.len()];
            let key = lines[i].split(" = ").next().unwrap_or("").to_string();
            lines[i] = format!("{key} = {}", EXTREMES[*value as usize % EXTREMES.len()]);
        }
        let mut bytes = (lines.join("\n") + "\n").into_bytes();
        for edit in noise.get(2..).unwrap_or(&[]).chunks_exact(4) {
            let pos = (edit[1] as usize * 256 + edit[2] as usize) % (bytes.len() + 1);
            match edit[0] % 3 {
                0 if pos < bytes.len() => bytes[pos] = edit[3],
                1 => bytes.insert(pos, edit[3]),
                _ if pos < bytes.len() => {
                    bytes.remove(pos);
                }
                _ => {}
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]

        /// The parser never panics on an edited catalog text: it either
        /// accepts a scenario that round-trips through `render`, or
        /// rejects it at line 0 or at a line of the input.
        #[test]
        fn edited_catalog_texts_parse_or_fail_at_an_input_line(
            entry in 0usize..crate::catalog::CATALOG.len(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..26),
        ) {
            let text = mutate(crate::catalog::CATALOG[entry].text, &noise);
            match Scenario::parse(&text) {
                Ok(s) => {
                    let back = Scenario::parse(&s.render());
                    proptest::prop_assert_eq!(back, Ok(s));
                }
                Err(e) => proptest::prop_assert!(
                    e.line <= text.lines().count(),
                    "{e} is past the input's last line"
                ),
            }
        }
    }

    #[test]
    fn qos_section_parses_with_defaults_and_overrides() {
        let s = Scenario::parse(MINIMAL).unwrap();
        assert!(s.qos.is_none(), "no [qos] section → no request workload");
        let spec = s.to_cluster_spec();
        assert!(spec.config.qos_stream.is_none());

        let text = MINIMAL.replace(
            "[fleet.box]",
            "[qos]\npeak-rps = 2.5\nsla-ms = 150\nwake = stock\n\n[fleet.box]",
        );
        let s = Scenario::parse(&text).unwrap();
        let qos = s.qos.as_ref().expect("section parsed");
        assert_eq!(qos.profile.peak_rps, 2.5);
        assert_eq!(qos.profile.sla, SimDuration::from_millis(150));
        assert_eq!(qos.profile.mean_service_ms, 60.0, "unset keys default");
        assert_eq!(qos.wake, WakeSpeed::Normal);
        assert_eq!(
            qos.profile.resume_latency,
            SimDuration::from_millis(1500),
            "stock wake pairs with the stock resume expectation"
        );
        // Compilation streams the section's client and carries the wake
        // path; nothing records a whole-run history.
        let spec = s.to_cluster_spec();
        let stream = spec.config.qos_stream.as_ref().expect("QoS streams");
        assert_eq!(stream.profile, qos.profile);
        assert!(!spec.config.track_power_timeline);
        assert_eq!(spec.config.wake_speed, WakeSpeed::Normal);
    }

    #[test]
    fn bad_qos_keys_are_rejected_with_their_line() {
        // Unknown key inside [qos]: its own line (the section header
        // lands on line 7 of MINIMAL, the key on line 8).
        let with_qos =
            |body: &str| MINIMAL.replace("\n[fleet.box]", &format!("\n[qos]\n{body}\n[fleet.box]"));
        expect_err(&with_qos("latency-budget = 9\n"), 8, "unknown key");
        expect_err(
            &with_qos("wake = warp\n"),
            8,
            "'wake' must be quick or stock",
        );
        expect_err(
            &with_qos("peak-rps = 0\n"),
            8,
            "'peak-rps' must be positive",
        );
        expect_err(&with_qos("sla-ms = 0\n"), 8, "'sla-ms' must be positive");
        expect_err(
            &with_qos("std-service-ms = -1\n"),
            8,
            "'std-service-ms' must be non-negative",
        );
        // A named [qos.x] section is a misspelling.
        expect_err(
            &with_qos("").replace("[qos]", "[qos.web]"),
            7,
            "takes no name",
        );
    }

    #[test]
    fn render_round_trips() {
        let text = MINIMAL
            .replace(
                "ram-mb = 16384\n",
                "ram-mb = 16384\nsuspended-watts = 2.5\n",
            )
            .replace("[fleet.box]", "[qos]\npeak-rps = 3\n\n[fleet.box]");
        let s = Scenario::parse(&text).unwrap();
        let rendered = s.render();
        let back = Scenario::parse(&rendered).unwrap();
        assert_eq!(s, back, "parse(render(s)) == s");
        // And rendering is a fixed point.
        assert_eq!(rendered, back.render());
    }
}
