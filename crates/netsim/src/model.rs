//! Named-site topology model.
//!
//! The paper's demonstrations span a fixed cast of sites: Manchester (AG
//! node + Bezier, the visualization Onyx), London/UCL (Dirac, the compute
//! Onyx), Jülich (PEPC + VISIT), Stuttgart (COVISE/HLRS), and the Phoenix
//! show floor. [`NetModel`] holds such a cast with a directed link for every
//! ordered pair and hands out per-pair [`Link`] clones.

use crate::link::Link;
use crate::time::SimTime;
use std::collections::HashMap;

/// Opaque site handle (index into the model's site table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub usize);

/// A topology of named sites with directed links.
#[derive(Debug, Default)]
pub struct NetModel {
    names: Vec<String>,
    by_name: HashMap<String, SiteId>,
    /// links[(a,b)] = link used for messages a→b.
    links: HashMap<(SiteId, SiteId), Link>,
}

impl NetModel {
    /// Empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a site; returns its id. Adding an existing name returns the
    /// existing id.
    pub fn add_site(&mut self, name: &str) -> SiteId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = SiteId(self.names.len());
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no sites registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Site name.
    pub fn name(&self, id: SiteId) -> &str {
        &self.names[id.0]
    }

    /// Lookup a site by name.
    pub fn site(&self, name: &str) -> Option<SiteId> {
        self.by_name.get(name).copied()
    }

    /// All site ids.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.names.len()).map(SiteId)
    }

    /// Install a directed link `a → b`.
    pub fn connect(&mut self, a: SiteId, b: SiteId, link: Link) {
        self.links.insert((a, b), link);
    }

    /// Install the same link parameters in both directions.
    pub fn connect_sym(&mut self, a: SiteId, b: SiteId, link: Link) {
        self.links.insert((a, b), link.clone());
        self.links.insert((b, a), link);
    }

    /// Fetch a fresh (sequence-zero) link clone for `a → b`. Messages from a
    /// site to itself, and pairs without an explicit link, use loopback.
    pub fn link(&self, a: SiteId, b: SiteId) -> Link {
        if a == b {
            return Link::loopback();
        }
        self.links
            .get(&(a, b))
            .cloned()
            .unwrap_or_else(Link::loopback)
    }

    /// Nominal round-trip time for a small message between two sites.
    pub fn rtt(&self, a: SiteId, b: SiteId) -> SimTime {
        let fwd = self.link(a, b).nominal_arrival(SimTime::ZERO, 64);
        let back = self.link(b, a).nominal_arrival(SimTime::ZERO, 64);
        fwd + back
    }

    /// The topology used throughout the paper's demonstrations:
    /// Manchester, London (UCL), Sheffield (e-Science All-Hands floor),
    /// Jülich, Stuttgart, Phoenix (SC'03 show floor).
    ///
    /// Link classes: UK national (Janet), continental (G-WiN class),
    /// transatlantic for anything ↔ Phoenix.
    pub fn sc2003() -> (NetModel, HashMap<String, SiteId>) {
        let mut m = NetModel::new();
        let names = [
            "manchester",
            "london",
            "sheffield",
            "juelich",
            "stuttgart",
            "phoenix",
        ];
        let ids: Vec<SiteId> = names.iter().map(|n| m.add_site(n)).collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in ids.iter().skip(i + 1) {
                let an = names[a.0];
                let bn = names[b.0];
                let link = if an == "phoenix" || bn == "phoenix" {
                    Link::transatlantic()
                } else if matches!(an, "juelich" | "stuttgart")
                    != matches!(bn, "juelich" | "stuttgart")
                {
                    // UK ↔ continent: combine Janet + GEANT-ish hop
                    Link::builder().latency_ms(18).bandwidth_mbit(155).build()
                } else if matches!(an, "juelich" | "stuttgart") {
                    Link::gwin()
                } else {
                    Link::uk_janet()
                };
                m.connect_sym(a, b, link);
            }
        }
        let map = names
            .iter()
            .map(|n| (n.to_string(), m.site(n).unwrap()))
            .collect();
        (m, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_site_is_idempotent() {
        let mut m = NetModel::new();
        let a = m.add_site("x");
        let a2 = m.add_site("x");
        assert_eq!(a, a2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn self_link_is_loopback() {
        let mut m = NetModel::new();
        let a = m.add_site("a");
        assert_eq!(m.link(a, a).latency, SimTime::ZERO);
    }

    #[test]
    fn missing_link_falls_back() {
        let mut m = NetModel::new();
        let a = m.add_site("a");
        let b = m.add_site("b");
        assert_eq!(m.link(a, b).latency, SimTime::ZERO);
    }

    #[test]
    fn sc2003_topology_is_complete_and_sane() {
        let (m, ids) = NetModel::sc2003();
        assert_eq!(m.len(), 6);
        let man = ids["manchester"];
        let lon = ids["london"];
        let phx = ids["phoenix"];
        let jue = ids["juelich"];
        // UK pair faster than UK↔continent, which is faster than transatlantic
        assert!(m.rtt(man, lon) < m.rtt(man, jue));
        assert!(m.rtt(man, jue) < m.rtt(man, phx));
        // symmetric by construction
        assert_eq!(m.rtt(man, phx), m.rtt(phx, man));
    }

    #[test]
    fn directed_links_can_differ() {
        let mut m = NetModel::new();
        let a = m.add_site("a");
        let b = m.add_site("b");
        m.connect(a, b, Link::builder().latency_ms(1).build());
        m.connect(b, a, Link::builder().latency_ms(9).build());
        assert_eq!(m.link(a, b).latency, SimTime::from_millis(1));
        assert_eq!(m.link(b, a).latency, SimTime::from_millis(9));
    }
}
