//! Network addressing for the simulated rack.
//!
//! The waking module's packet analyzer works with "a hashmap, mapping VMs
//! IP addresses to the MAC addresses of the drowsy servers that host
//! them". We model both address kinds as opaque newtypes with canonical
//! derivations from the simulation ids, so tests can construct them
//! without a DHCP/ARP simulation.

use dds_sim_core::{HostId, VmId};
use std::fmt;

/// A VM's virtual IP address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmIp(pub u32);

/// The canonical addresses hold an id in their low 24 bits.
const ID_BITS: u32 = 0x00FF_FFFF;

impl VmIp {
    /// Canonical address assignment: VM *n* gets 10.a.b.c, its id in the
    /// low 24 bits (10.0.0.0/8).
    ///
    /// # Panics
    ///
    /// If the id does not fit in 24 bits, rather than alias a lower one.
    pub fn of(vm: VmId) -> VmIp {
        assert!(vm.0 <= ID_BITS, "{vm} does not fit a 10.0.0.0/8 address");
        VmIp(0x0A00_0000 | vm.0)
    }

    /// The VM this canonical address belongs to.
    pub fn vm(self) -> VmId {
        VmId(self.0 & ID_BITS)
    }
}

impl fmt::Display for VmIp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// A host NIC's MAC address (the Wake-on-LAN target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostMac(pub u64);

impl HostMac {
    /// Canonical MAC assignment for host *n* (locally-administered
    /// 02:50:56 prefix, host index in the low 24 bits).
    ///
    /// # Panics
    ///
    /// If the index does not fit in 24 bits, rather than alias a lower
    /// one.
    pub fn of(host: HostId) -> HostMac {
        assert!(host.0 <= ID_BITS, "{host} does not fit a 24-bit MAC suffix");
        HostMac(0x0250_5600_0000 | u64::from(host.0))
    }

    /// The host this canonical MAC belongs to.
    pub fn host(self) -> HostId {
        HostId((self.0 & u64::from(ID_BITS)) as u32)
    }
}

impl fmt::Display for HostMac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[2], b[3], b[4], b[5], b[6], b[7]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_ip_roundtrip() {
        for i in [0u32, 1, 255, 4095, 65_535, 65_536, (1 << 24) - 1] {
            let vm = VmId(i);
            assert_eq!(VmIp::of(vm).vm(), vm);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn vm_ip_rejects_ids_past_24_bits() {
        VmIp::of(VmId(1 << 24));
    }

    #[test]
    fn host_mac_roundtrip() {
        for i in [0u32, 7, 1000, 65_536, (1 << 24) - 1] {
            let host = HostId(i);
            assert_eq!(HostMac::of(host).host(), host);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn host_mac_rejects_indexes_past_24_bits() {
        HostMac::of(HostId(1 << 24));
    }

    #[test]
    fn displays_look_like_addresses() {
        assert_eq!(format!("{}", VmIp::of(VmId(3))), "10.0.0.3");
        assert_eq!(format!("{}", VmIp::of(VmId(260))), "10.0.1.4");
        assert_eq!(format!("{}", VmIp::of(VmId(65_536))), "10.1.0.0");
        let mac = format!("{}", HostMac::of(HostId(2)));
        assert_eq!(mac, "02:50:56:00:00:02");
    }

    #[test]
    fn distinct_vms_distinct_ips() {
        assert_ne!(VmIp::of(VmId(1)), VmIp::of(VmId(2)));
        assert_ne!(VmIp::of(VmId(0)), VmIp::of(VmId(65_536)));
        assert_ne!(HostMac::of(HostId(1)), HostMac::of(HostId(2)));
    }
}
