//! Request brokers: cross-host data transfer with conversion.
//!
//! §4.5: "Request brokers on each participating host take care of data
//! management, efficient data transfer and conversion between different
//! platforms. … Between heterogeneous hardware platform\[s\] data type
//! conversion is done by the request brokers which is thus invisible for
//! the application modules." A [`RequestBroker`] moves a
//! [`crate::data::DataObject`] from one host's shared data
//! space to another's, charging the netsim link for the bytes and a
//! per-byte conversion cost when the platforms' byte orders differ.

use crate::data::{DataObject, SharedDataSpace};
use netsim::{Link, SimTime, VClock};
use std::collections::HashMap;

/// Platform descriptor — what the brokers convert between. The paper's
/// hosts mixed big-endian SGI/Cray machines with little-endian PCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostArch {
    /// Little-endian (PCs, the steering laptops).
    Little,
    /// Big-endian (the Onyx/T3E machines of 2003).
    Big,
}

/// A host participating in the session.
pub struct Host {
    /// Host name.
    pub name: String,
    /// Platform byte order.
    pub arch: HostArch,
    /// The host's shared data space.
    pub sds: SharedDataSpace,
    /// The host's virtual clock.
    pub clock: VClock,
}

impl Host {
    /// A host with an empty SDS at time zero.
    pub fn new(name: &str, arch: HostArch) -> Host {
        Host {
            name: name.to_string(),
            arch,
            sds: SharedDataSpace::new(),
            clock: VClock::new(),
        }
    }
}

/// Transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Objects moved between hosts.
    pub transfers: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Objects that needed platform conversion.
    pub conversions: u64,
}

/// The broker fabric: hosts plus the links between them.
#[derive(Default)]
pub struct RequestBroker {
    hosts: Vec<Host>,
    /// links[(from, to)] shapes transfers in that direction.
    links: HashMap<(usize, usize), Link>,
    /// Conversion throughput in bytes/second (byte-swap speed).
    pub convert_bps: u64,
    stats: TransferStats,
}

impl RequestBroker {
    /// Empty fabric.
    pub fn new() -> Self {
        RequestBroker {
            hosts: Vec::new(),
            links: HashMap::new(),
            convert_bps: 500_000_000, // 500 MB/s byte-swap
            stats: TransferStats::default(),
        }
    }

    /// Add a host; returns its index.
    pub fn add_host(&mut self, name: &str, arch: HostArch) -> usize {
        self.hosts.push(Host::new(name, arch));
        self.hosts.len() - 1
    }

    /// Connect two hosts symmetrically.
    pub fn connect(&mut self, a: usize, b: usize, link: Link) {
        self.links.insert((a, b), link.clone());
        self.links.insert((b, a), link);
    }

    /// Host accessor.
    pub fn host(&self, idx: usize) -> &Host {
        &self.hosts[idx]
    }

    /// Mutable host accessor.
    pub fn host_mut(&mut self, idx: usize) -> &mut Host {
        &mut self.hosts[idx]
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }

    /// Move (copy) object `name` from host `from` to host `to`. Returns
    /// the arrival time at `to`, or `None` if the object is missing.
    /// Same-host "transfers" are free (shared memory, §4.5).
    pub fn transfer(&mut self, name: &str, from: usize, to: usize) -> Option<SimTime> {
        let obj: DataObject = {
            let src = &self.hosts[from];
            (*src.sds.get(name)?).clone()
        };
        if from == to {
            return Some(self.hosts[from].clock.now());
        }
        let bytes = obj.byte_size();
        self.stats.transfers += 1;
        self.stats.bytes += bytes as u64;
        let departure = self.hosts[from].clock.now();
        let mut link = self
            .links
            .get(&(from, to))
            .cloned()
            .unwrap_or_else(Link::loopback);
        let mut arrival = link
            .deliver(departure, bytes)
            .unwrap_or_else(|| link.nominal_arrival(departure, bytes));
        // platform conversion on the receiving broker
        if self.hosts[from].arch != self.hosts[to].arch {
            self.stats.conversions += 1;
            let convert = SimTime::from_nanos(
                (bytes as u128 * 1_000_000_000 / self.convert_bps as u128) as u64,
            );
            arrival += convert;
        }
        let dst = &mut self.hosts[to];
        dst.clock.merge(arrival);
        let renamed = DataObject {
            name: obj.name.clone(),
            payload: obj.payload,
            attributes: obj.attributes,
        };
        dst.sds.put(renamed);
        Some(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Payload;
    use viz::Field3;

    fn fabric() -> RequestBroker {
        let mut rb = RequestBroker::new();
        let onyx = rb.add_host("bezier.man.ac.uk", HostArch::Big);
        let pc = rb.add_host("laptop", HostArch::Little);
        rb.connect(
            onyx,
            pc,
            Link::builder().latency_ms(5).bandwidth_mbit(155).build(),
        );
        rb
    }

    #[test]
    fn transfer_copies_object_and_charges_link() {
        let mut rb = fabric();
        let field = DataObject::new("phi", Payload::Field(Field3::zeros(16, 16, 16)));
        let name = field.name.clone();
        rb.host_mut(0).sds.put(field);
        let arrival = rb.transfer(&name, 0, 1).unwrap();
        assert!(arrival >= SimTime::from_millis(5));
        assert!(rb.host(1).sds.get(&name).is_some());
        // source keeps its copy
        assert!(rb.host(0).sds.get(&name).is_some());
        assert_eq!(rb.stats().transfers, 1);
        assert_eq!(rb.stats().bytes, 16 * 16 * 16 * 4);
    }

    #[test]
    fn cross_arch_transfer_pays_conversion() {
        let mut rb = RequestBroker::new();
        let a = rb.add_host("be", HostArch::Big);
        let b = rb.add_host("le", HostArch::Little);
        let c = rb.add_host("be2", HostArch::Big);
        rb.connect(a, b, Link::loopback());
        rb.connect(a, c, Link::loopback());
        let obj = DataObject::new("x", Payload::Field(Field3::zeros(32, 32, 32)));
        let name = obj.name.clone();
        rb.host_mut(a).sds.put(obj);
        let t_conv = rb.transfer(&name, a, b).unwrap();
        let t_same = rb.transfer(&name, a, c).unwrap();
        assert!(
            t_conv > t_same,
            "conversion must cost time: {t_conv} vs {t_same}"
        );
        assert_eq!(rb.stats().conversions, 1);
    }

    #[test]
    fn same_host_transfer_is_free() {
        let mut rb = fabric();
        let obj = DataObject::new("x", Payload::Scalar(1.0));
        let name = obj.name.clone();
        rb.host_mut(0).sds.put(obj);
        let t = rb.transfer(&name, 0, 0).unwrap();
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(rb.stats().transfers, 0);
    }

    #[test]
    fn missing_object_is_none() {
        let mut rb = fabric();
        assert!(rb.transfer("ghost_999", 0, 1).is_none());
    }

    #[test]
    fn receiver_clock_advances_with_transfer() {
        let mut rb = fabric();
        let obj = DataObject::new("x", Payload::Field(Field3::zeros(64, 64, 64)));
        let name = obj.name.clone();
        rb.host_mut(0).sds.put(obj);
        rb.transfer(&name, 0, 1);
        // 1 MiB over 155 Mbit ≈ 54 ms + 5 ms latency
        assert!(rb.host(1).clock.now() > SimTime::from_millis(40));
    }
}
