//! Process table and run states.
//!
//! §IV: "In a naive way, a system is idle if none of its processes is in
//! the running state. However, there are false negatives and false
//! positives." False negatives — processes that run but should not keep
//! the host awake (monitoring agents, kernel watchdogs) — are removed with
//! a blacklist. False positives — processes that are *not* running but
//! whose service is not idle — include processes blocked waiting for
//! resources (disk reads): a host with I/O-blocked processes must not be
//! suspended.

use dds_sim_core::{SimTime, VmId};
use std::collections::HashSet;
use std::fmt;

/// Process identifier within one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Run state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// On a CPU right now.
    Running,
    /// On the run queue, waiting for a CPU.
    Runnable,
    /// Blocked waiting for I/O (disk, network). §IV: "a process may be
    /// blocked waiting for resources, such as a disk read: in this case,
    /// the drowsy server should not be suspended."
    BlockedIo,
    /// Sleeping; if the process armed a timer, `wake` holds its expiry
    /// (the kernel knows this through the hrtimer tree).
    Sleeping {
        /// Expiry of the timer that will wake the process, if any.
        wake: Option<SimTime>,
    },
    /// Terminated (kept briefly for bookkeeping).
    Exited,
}

impl ProcState {
    /// True for states that demand CPU now or imminently.
    pub fn wants_cpu(&self) -> bool {
        matches!(self, ProcState::Running | ProcState::Runnable)
    }
}

/// One process on the simulated host.
#[derive(Debug, Clone)]
pub struct Process {
    /// Host-local identifier.
    pub pid: Pid,
    /// Executable name, used by the blacklist.
    pub name: String,
    /// Current run state.
    pub state: ProcState,
    /// The VM this process embodies, when it is a `qemu`-style VM process.
    pub vm: Option<VmId>,
}

/// Names whose processes never keep the host awake (the paper's
/// black-listing system for false negatives).
#[derive(Debug, Clone, Default)]
pub struct Blacklist {
    names: HashSet<String>,
}

impl Blacklist {
    /// An empty blacklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// The defaults the paper mentions: "monitoring solutions running on
    /// the drowsy server, or kernel-related background services such as
    /// watchdogs".
    pub fn standard() -> Self {
        let mut b = Self::new();
        for name in [
            "monitord",
            "collectd",
            "node_exporter",
            "watchdog",
            "kworker",
            "ksoftirqd",
            "rcu_sched",
            "heartbeat-agent",
            "drowsy-suspendd",
        ] {
            b.add(name);
        }
        b
    }

    /// Adds a process name to the blacklist.
    pub fn add(&mut self, name: impl Into<String>) {
        self.names.insert(name.into());
    }

    /// Removes a name; returns whether it was present.
    pub fn remove(&mut self, name: &str) -> bool {
        self.names.remove(name)
    }

    /// True when processes with this name are ignored by idleness checks.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }

    /// Number of blacklisted names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no names are blacklisted.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The host's process table.
#[derive(Debug, Clone, Default)]
pub struct ProcessTable {
    procs: Vec<Process>,
    next_pid: u32,
}

impl ProcessTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawns a process, returning its pid.
    pub fn spawn(&mut self, name: impl Into<String>, state: ProcState) -> Pid {
        self.spawn_vm_process(name, state, None)
    }

    /// Spawns a process embodying a VM.
    pub fn spawn_vm_process(
        &mut self,
        name: impl Into<String>,
        state: ProcState,
        vm: Option<VmId>,
    ) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.push(Process {
            pid,
            name: name.into(),
            state,
            vm,
        });
        pid
    }

    /// Looks a process up by pid.
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.procs.iter().find(|p| p.pid == pid)
    }

    /// Updates a process's state; returns false for unknown pids.
    pub fn set_state(&mut self, pid: Pid, state: ProcState) -> bool {
        if let Some(p) = self.procs.iter_mut().find(|p| p.pid == pid) {
            p.state = state;
            true
        } else {
            false
        }
    }

    /// All live processes.
    pub fn processes(&self) -> &[Process] {
        &self.procs
    }

    /// Number of processes in the table.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True when no processes exist.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Processes that want CPU and are **not** blacklisted — the
    /// paper's corrected "is the host idle?" numerator.
    pub fn active_non_blacklisted<'a>(
        &'a self,
        blacklist: &'a Blacklist,
    ) -> impl Iterator<Item = &'a Process> + 'a {
        self.procs
            .iter()
            .filter(move |p| p.state.wants_cpu() && !blacklist.contains(&p.name))
    }

    /// Non-blacklisted processes blocked on I/O (false-positive guard).
    pub fn blocked_on_io<'a>(
        &'a self,
        blacklist: &'a Blacklist,
    ) -> impl Iterator<Item = &'a Process> + 'a {
        self.procs
            .iter()
            .filter(move |p| p.state == ProcState::BlockedIo && !blacklist.contains(&p.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_assigns_unique_pids() {
        let mut t = ProcessTable::new();
        let a = t.spawn("a", ProcState::Running);
        let b = t.spawn("b", ProcState::Runnable);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap().name, "a");
    }

    #[test]
    fn set_state_updates_known_pids_only() {
        let mut t = ProcessTable::new();
        let a = t.spawn("a", ProcState::Running);
        assert!(t.set_state(a, ProcState::BlockedIo));
        assert_eq!(t.get(a).unwrap().state, ProcState::BlockedIo);
        assert!(!t.set_state(Pid(99), ProcState::Running));
    }

    #[test]
    fn blacklist_filters_active_processes() {
        let mut t = ProcessTable::new();
        t.spawn("monitord", ProcState::Running);
        t.spawn("qemu-vm0", ProcState::Runnable);
        t.spawn("idle-thing", ProcState::Sleeping { wake: None });
        let bl = Blacklist::standard();
        let active: Vec<_> = t.active_non_blacklisted(&bl).collect();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].name, "qemu-vm0");
    }

    #[test]
    fn blocked_io_detection_respects_blacklist() {
        let mut t = ProcessTable::new();
        t.spawn("qemu-vm0", ProcState::BlockedIo);
        t.spawn("kworker", ProcState::BlockedIo);
        let bl = Blacklist::standard();
        let blocked: Vec<_> = t.blocked_on_io(&bl).collect();
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].name, "qemu-vm0");
    }

    #[test]
    fn blacklist_add_remove() {
        let mut bl = Blacklist::new();
        assert!(bl.is_empty());
        bl.add("x");
        assert!(bl.contains("x"));
        assert!(bl.remove("x"));
        assert!(!bl.remove("x"));
        assert!(!bl.contains("x"));
        assert!(Blacklist::standard().len() >= 5);
    }

    #[test]
    fn vm_process_lookup() {
        let mut t = ProcessTable::new();
        t.spawn("init", ProcState::Sleeping { wake: None });
        let vm = VmId(3);
        let pid = t.spawn_vm_process("qemu-v3", ProcState::Runnable, Some(vm));
        assert_eq!(t.get(pid).unwrap().vm, Some(vm));
        assert!(t.set_state(pid, ProcState::Sleeping { wake: None }));
        assert!(!t.get(pid).unwrap().state.wants_cpu());
    }

    #[test]
    fn wants_cpu_predicate() {
        assert!(ProcState::Running.wants_cpu());
        assert!(ProcState::Runnable.wants_cpu());
        assert!(!ProcState::BlockedIo.wants_cpu());
        assert!(!ProcState::Sleeping { wake: None }.wants_cpu());
        assert!(!ProcState::Exited.wants_cpu());
    }
}
