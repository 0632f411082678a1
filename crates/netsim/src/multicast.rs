//! Multicast groups and unicast bridges.
//!
//! Access Grid venues distribute audio/video over IP multicast; the paper
//! notes (§4.6) that VR sites are "often behind firewalls which do not
//! support multicast and sometimes even do NAT", so HLRS added
//! *unicast/multicast bridges* and point-to-point sessions to their venue
//! server. [`MulticastGroup`] models a group address with per-member links;
//! [`Bridge`] models the relay that re-unicasts group traffic to NAT'd
//! members at the cost of an extra hop and duplicated upstream bytes.

use crate::link::Link;
use crate::model::SiteId;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// Delivery record for one member of a multicast send.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Receiving site.
    pub to: SiteId,
    /// Arrival time, or `None` if the (unreliable, UDP-like) packet was lost.
    pub arrival: Option<SimTime>,
    /// True if this member was reached via a unicast bridge.
    pub bridged: bool,
}

/// A multicast group: members reachable natively plus members behind
/// bridges.
pub struct MulticastGroup {
    /// Members with native multicast; each has its own link from any sender
    /// (we approximate the multicast tree by the sender→member unicast path,
    /// which is exact for the star-shaped venues the paper used).
    native: BTreeMap<SiteId, Link>,
    /// NAT'd members reached through a bridge site.
    bridged: BTreeMap<SiteId, Bridge>,
    /// Total bytes offered to the group (sender-side, once per send).
    pub bytes_sent: u64,
    /// Total bytes carried over unicast legs (once per bridged member).
    pub bytes_unicast: u64,
}

/// A unicast/multicast bridge: traffic to the member is relayed through the
/// bridge host over two unicast legs.
pub struct Bridge {
    /// Link from any group sender to the bridge host.
    pub uplink: Link,
    /// Link from the bridge host to the NAT'd member.
    pub downlink: Link,
    /// Per-packet relay processing cost at the bridge.
    pub relay_cost: SimTime,
}

impl Bridge {
    /// Build a bridge from explicit links.
    pub fn new(uplink: Link, downlink: Link) -> Self {
        Bridge {
            uplink,
            downlink,
            relay_cost: SimTime::from_micros(200),
        }
    }
}

impl Default for MulticastGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl MulticastGroup {
    /// Empty group.
    pub fn new() -> Self {
        MulticastGroup {
            native: BTreeMap::new(),
            bridged: BTreeMap::new(),
            bytes_sent: 0,
            bytes_unicast: 0,
        }
    }

    /// Join a member with native multicast connectivity over `link`.
    pub fn join_native(&mut self, site: SiteId, link: Link) {
        self.bridged.remove(&site);
        self.native.insert(site, link);
    }

    /// Join a NAT'd member via `bridge`.
    pub fn join_bridged(&mut self, site: SiteId, bridge: Bridge) {
        self.native.remove(&site);
        self.bridged.insert(site, bridge);
    }

    /// Remove a member.
    pub fn leave(&mut self, site: SiteId) {
        self.native.remove(&site);
        self.bridged.remove(&site);
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.native.len() + self.bridged.len()
    }

    /// True if the group has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Send one datagram of `size` bytes at `departure` to every member
    /// (excluding `from` itself). Multicast semantics: the sender pays the
    /// payload **once** regardless of member count; bridged members add a
    /// unicast copy each. Returns per-member deliveries sorted by site id.
    pub fn send(&mut self, from: SiteId, departure: SimTime, size: usize) -> Vec<Delivery> {
        self.bytes_sent += size as u64;
        let mut out = Vec::with_capacity(self.len());
        for (&site, link) in self.native.iter_mut() {
            if site == from {
                continue;
            }
            // UDP-like: losses drop the packet (no retransmit)
            let arrival = link.deliver(departure, size);
            out.push(Delivery {
                to: site,
                arrival,
                bridged: false,
            });
        }
        for (&site, bridge) in self.bridged.iter_mut() {
            if site == from {
                continue;
            }
            self.bytes_unicast += size as u64;
            let arrival = bridge
                .uplink
                .deliver(departure, size)
                .and_then(|at_bridge| bridge.downlink.deliver(at_bridge + bridge.relay_cost, size));
            out.push(Delivery {
                to: site,
                arrival,
                bridged: true,
            });
        }
        out.sort_by_key(|d| d.to);
        out
    }

    /// The spread (max − min arrival) of a delivery set, ignoring losses.
    /// This is the "frame divergence between sites" metric of §4.2.
    pub fn skew(deliveries: &[Delivery]) -> SimTime {
        let times: Vec<SimTime> = deliveries.iter().filter_map(|d| d.arrival).collect();
        match (times.iter().min(), times.iter().max()) {
            (Some(&lo), Some(&hi)) => hi - lo,
            _ => SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;

    fn sites(n: usize) -> Vec<SiteId> {
        (0..n).map(SiteId).collect()
    }

    #[test]
    fn sender_pays_once_for_native_members() {
        let mut g = MulticastGroup::new();
        for s in sites(8) {
            g.join_native(s, Link::loopback());
        }
        g.send(SiteId(0), SimTime::ZERO, 1000);
        assert_eq!(g.bytes_sent, 1000);
        assert_eq!(g.bytes_unicast, 0);
    }

    #[test]
    fn bridged_members_cost_extra_unicast() {
        let mut g = MulticastGroup::new();
        g.join_native(SiteId(1), Link::loopback());
        g.join_bridged(SiteId(2), Bridge::new(Link::loopback(), Link::loopback()));
        g.join_bridged(SiteId(3), Bridge::new(Link::loopback(), Link::loopback()));
        g.send(SiteId(0), SimTime::ZERO, 500);
        assert_eq!(g.bytes_sent, 500);
        assert_eq!(g.bytes_unicast, 1000);
    }

    #[test]
    fn sender_not_delivered_to_itself() {
        let mut g = MulticastGroup::new();
        for s in sites(3) {
            g.join_native(s, Link::loopback());
        }
        let d = g.send(SiteId(1), SimTime::ZERO, 10);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|x| x.to != SiteId(1)));
    }

    #[test]
    fn bridge_adds_hop_latency() {
        let leg = Link::builder()
            .latency_ms(10)
            .bandwidth_bps(u64::MAX)
            .build();
        let mut g = MulticastGroup::new();
        g.join_native(SiteId(1), leg.clone());
        let mut b = Bridge::new(leg.clone(), leg.clone());
        b.relay_cost = SimTime::from_millis(1);
        g.join_bridged(SiteId(2), b);
        let d = g.send(SiteId(0), SimTime::ZERO, 0);
        let native = d.iter().find(|x| x.to == SiteId(1)).unwrap();
        let bridged = d.iter().find(|x| x.to == SiteId(2)).unwrap();
        assert_eq!(native.arrival, Some(SimTime::from_millis(10)));
        assert_eq!(bridged.arrival, Some(SimTime::from_millis(21)));
        assert!(bridged.bridged && !native.bridged);
    }

    #[test]
    fn skew_measures_arrival_spread() {
        let d = vec![
            Delivery {
                to: SiteId(1),
                arrival: Some(SimTime::from_millis(5)),
                bridged: false,
            },
            Delivery {
                to: SiteId(2),
                arrival: Some(SimTime::from_millis(12)),
                bridged: false,
            },
            Delivery {
                to: SiteId(3),
                arrival: None,
                bridged: false,
            },
        ];
        assert_eq!(MulticastGroup::skew(&d), SimTime::from_millis(7));
    }

    #[test]
    fn rejoining_switches_mode() {
        let mut g = MulticastGroup::new();
        g.join_native(SiteId(1), Link::loopback());
        g.join_bridged(SiteId(1), Bridge::new(Link::loopback(), Link::loopback()));
        assert_eq!(g.len(), 1);
        let d = g.send(SiteId(0), SimTime::ZERO, 1);
        assert!(d[0].bridged);
    }

    #[test]
    fn udp_losses_drop_packets() {
        let lossy = Link::builder().loss_ppm(1_000_000).build();
        let mut g = MulticastGroup::new();
        g.join_native(SiteId(1), lossy);
        let d = g.send(SiteId(0), SimTime::ZERO, 100);
        assert_eq!(d[0].arrival, None);
    }
}
