//! The epoch flight recorder: a bounded ring buffer of structured
//! per-epoch records, dumpable as JSONL.
//!
//! When a shard digest diverges or a run panics, the question is always
//! *which epoch went wrong* — the recorder answers it. Each simulated
//! epoch pushes one [`EpochRecord`] (power-state transition counts, wake
//! and suspend decisions with vetoes, placement stats, a QoS summary and
//! the per-shard FNV digests); the ring keeps the last `capacity`
//! epochs. [`FlightRecorder::first_divergence`] compares two recorders
//! epoch by epoch and names the first epoch whose merged digests differ,
//! turning a "bit-identity failed" CI message into a diffable trace.
//!
//! A recorder with capacity 0 is disabled: `push` is a cheap no-op, so
//! the hooks can stay wired unconditionally and `--trace-epochs N`
//! merely sets the capacity.

use crate::json::JsonObject;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One epoch's structured trace row. Every field is a logical
/// (simulation-domain) quantity, so two equal-seed runs produce equal
/// records whatever the execution grid.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EpochRecord {
    /// Epoch (simulated hour) index.
    pub epoch: u64,
    /// Hosts that entered a low-power state this epoch.
    pub suspends: u64,
    /// Hosts that left a low-power state this epoch (all causes).
    pub resumes: u64,
    /// Resumes triggered by first-packet traffic arrival.
    pub traffic_wakes: u64,
    /// Resumes triggered by an anticipated-wake timer.
    pub timer_wakes: u64,
    /// Resumes pre-fired by the waking module's schedule (heartbeat path).
    pub scheduled_wakes: u64,
    /// Resumes forced by management (admission, migration).
    pub management_wakes: u64,
    /// Suspend decisions vetoed by the control policy.
    pub suspend_vetoes: u64,
    /// VM placements admitted this epoch.
    pub placements: u64,
    /// VM placements rejected (no capacity).
    pub rejections: u64,
    /// VMs departed this epoch.
    pub departures: u64,
    /// VM migrations applied this epoch.
    pub migrations: u64,
    /// QoS latency records folded this epoch.
    pub qos_records: u64,
    /// Net vCPU demand delta observed this epoch.
    pub qos_demand_delta: i64,
    /// Per-shard FNV digests of this epoch's transitions (one per shard;
    /// shard-count dependent, for divergence localization).
    pub shard_digests: Vec<u64>,
    /// Merged epoch digest over the transitions in merge order —
    /// invariant across shard counts and executors.
    pub digest: u64,
}

impl EpochRecord {
    /// Renders the record as one flat JSON object (one JSONL row).
    pub fn to_json(&self) -> JsonObject {
        let shards = self
            .shard_digests
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>()
            .join(",");
        JsonObject::new()
            .int("epoch", self.epoch)
            .int("suspends", self.suspends)
            .int("resumes", self.resumes)
            .int("traffic_wakes", self.traffic_wakes)
            .int("timer_wakes", self.timer_wakes)
            .int("scheduled_wakes", self.scheduled_wakes)
            .int("management_wakes", self.management_wakes)
            .int("suspend_vetoes", self.suspend_vetoes)
            .int("placements", self.placements)
            .int("rejections", self.rejections)
            .int("departures", self.departures)
            .int("migrations", self.migrations)
            .int("qos_records", self.qos_records)
            .num("qos_demand_delta", self.qos_demand_delta as f64)
            .str("shard_digests", &shards)
            .str("digest", &format!("{:016x}", self.digest))
    }
}

#[derive(Debug, Default)]
struct Ring {
    cap: usize,
    records: VecDeque<EpochRecord>,
    /// Epochs evicted by the ring bound (reported in dumps so a
    /// truncated trace is never mistaken for a complete one).
    dropped: u64,
}

/// A bounded ring buffer of [`EpochRecord`]s. Cloning shares the ring,
/// so the simulation pushes while the harness holds a handle for
/// dumping.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Arc<Mutex<Ring>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` epochs (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(Ring {
                cap: capacity,
                records: VecDeque::with_capacity(capacity.min(4096)),
                dropped: 0,
            })),
        }
    }

    /// A disabled recorder: `push` is a no-op.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// True when the recorder keeps records.
    pub fn enabled(&self) -> bool {
        self.capacity() > 0
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().cap
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Pushes one epoch record, evicting the oldest at capacity. No-op
    /// when disabled.
    pub fn push(&self, record: EpochRecord) {
        let mut ring = self.inner.lock().unwrap();
        if ring.cap == 0 {
            return;
        }
        if ring.records.len() == ring.cap {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        ring.records.push_back(record);
    }

    /// A copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<EpochRecord> {
        self.inner.lock().unwrap().records.iter().cloned().collect()
    }

    /// Renders the retained records as JSONL, one epoch per line, oldest
    /// first.
    pub fn to_jsonl(&self) -> String {
        let ring = self.inner.lock().unwrap();
        let mut out = String::new();
        for r in &ring.records {
            let _ = writeln!(out, "{}", r.to_json().render_flat());
        }
        if ring.dropped > 0 {
            let _ = writeln!(
                out,
                "{}",
                JsonObject::new()
                    .str("note", "ring truncated")
                    .int("dropped_epochs", ring.dropped)
                    .render_flat()
            );
        }
        out
    }

    /// Writes the JSONL dump to `path`, creating parent directories.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_jsonl())
    }

    /// The first epoch present in both recorders whose merged digests
    /// differ — the answer to "where did bit-identity break?". `None`
    /// when every shared epoch agrees.
    pub fn first_divergence(&self, other: &FlightRecorder) -> Option<u64> {
        let a = self.records();
        let b = other.records();
        let digest_of = |recs: &[EpochRecord], epoch: u64| {
            recs.iter().find(|r| r.epoch == epoch).map(|r| r.digest)
        };
        let mut epochs: Vec<u64> = a.iter().map(|r| r.epoch).collect();
        epochs.sort_unstable();
        for epoch in epochs {
            if let (Some(da), Some(db)) = (digest_of(&a, epoch), digest_of(&b, epoch)) {
                if da != db {
                    return Some(epoch);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: u64, digest: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            digest,
            suspends: epoch % 3,
            resumes: epoch % 2,
            shard_digests: vec![digest ^ 1, digest ^ 2],
            ..Default::default()
        }
    }

    #[test]
    fn ring_wraps_and_reports_drops() {
        let fr = FlightRecorder::new(3);
        for e in 0..7 {
            fr.push(rec(e, 100 + e));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 4);
        let epochs: Vec<u64> = fr.records().iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![4, 5, 6], "oldest epochs evicted first");
        let jsonl = fr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4, "3 records + truncation note");
        assert!(jsonl.contains("\"dropped_epochs\":4"), "{jsonl}");
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let fr = FlightRecorder::disabled();
        fr.push(rec(1, 1));
        assert!(!fr.enabled());
        assert!(fr.is_empty());
        assert_eq!(fr.to_jsonl(), "");
    }

    #[test]
    fn first_divergence_names_the_first_bad_epoch() {
        let a = FlightRecorder::new(16);
        let b = FlightRecorder::new(16);
        for e in 0..10 {
            a.push(rec(e, 1000 + e));
            // b agrees through epoch 5, diverges at 6.
            b.push(rec(e, if e < 6 { 1000 + e } else { 9999 + e }));
        }
        assert_eq!(a.first_divergence(&b), Some(6));
        assert_eq!(b.first_divergence(&a), Some(6));
        let c = FlightRecorder::new(16);
        for e in 0..10 {
            c.push(rec(e, 1000 + e));
        }
        assert_eq!(a.first_divergence(&c), None);
    }

    #[test]
    fn divergence_ignores_epochs_missing_from_either_ring() {
        // A shorter ring (later window) still localizes within overlap.
        let a = FlightRecorder::new(16);
        let b = FlightRecorder::new(4);
        for e in 0..10 {
            a.push(rec(e, e));
            b.push(rec(e, if e == 8 { 77 } else { e }));
        }
        assert_eq!(a.first_divergence(&b), Some(8));
    }

    #[test]
    fn jsonl_row_schema_is_flat_and_hex_digested() {
        let fr = FlightRecorder::new(2);
        fr.push(rec(3, 0xabcd));
        let line = fr.to_jsonl();
        assert!(line.starts_with("{\"epoch\":3,"), "{line}");
        assert!(line.contains("\"digest\":\"000000000000abcd\""), "{line}");
        assert!(line.contains("\"shard_digests\":\""), "{line}");
        assert_eq!(line.lines().count(), 1);
    }

    #[test]
    fn dump_writes_the_file() {
        let dir = std::env::temp_dir().join(format!("dds-telemetry-fr-{}", std::process::id()));
        let path = dir.join("flight.jsonl");
        let fr = FlightRecorder::new(2);
        fr.push(rec(0, 5));
        fr.dump(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, fr.to_jsonl());
        let _ = std::fs::remove_dir_all(dir);
    }
}
