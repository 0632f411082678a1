//! The VISIT–UNICORE steering extension: proxy-server and proxy-client.
//!
//! §3.3 is the paper's central technical contribution: UNICORE's protocol
//! is transactional ("separate transactions that do not require a stateful
//! connection"), VISIT's is connection-oriented with the simulation as
//! client. The bridge: "we have designed and implemented a
//! connection-oriented protocol on top of the UNICORE protocol. The
//! simulation-end of that connection is formed by VISIT proxy-servers which
//! are separate processes running on each target system. The other end …
//! is located at the UNICORE client, implemented as a client-plugin and
//! acting as a VISIT proxy-client. By polling the target system for new
//! data, that plugin is able to emulate the server capabilities that are
//! required for the VISIT connection."
//!
//! Collaboration (also §3.3): "For the VISIT-UNICORE extension this
//! \[vbroker\] functionality has been moved into the VISIT proxy-server
//! running on the UNICORE target system. This has the advantage that all
//! users participating in the collaboration have to authenticate to the
//! UNICORE system." Hence [`VisitProxyServer`] keeps a broadcast log that
//! *every* attached session reads, while steering parameters are accepted
//! from the *master* session only.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;
use visit::link::{FrameLink, LinkError};
use visit::value::VisitValue;
use visit::wire::{Frame, MsgKind};
use visit::{MasterToken, Password};

/// Identifies one attached proxy-client (steering plugin) session.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct ProxySessionId(pub u64);

/// Counters for the proxy pair experiment (EV3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProxyStats {
    /// Data frames logged from the simulation.
    pub sim_frames: u64,
    /// Frames handed to polling sessions (fan-out).
    pub frames_delivered: u64,
    /// Steering parameters accepted from the master.
    pub params_accepted: u64,
    /// Steering parameters rejected (non-master senders).
    pub params_rejected: u64,
    /// Requests from the simulation answered from the param queue.
    pub requests_served: u64,
    /// Requests answered NoData.
    pub requests_empty: u64,
}

/// The proxy-server: runs "on the target system" beside the TSI, speaks
/// VISIT to the simulation and exposes poll-transactions to plugins.
pub struct VisitProxyServer<L: FrameLink> {
    /// Steering service name (published via the job's AJO).
    pub service: String,
    sim: L,
    password: Password,
    challenge: u64,
    authed: bool,
    /// Broadcast history of raw Data frames.
    log: Vec<Vec<u8>>,
    /// Session cursors into `log`, with the certificate subject that
    /// attached each session: only that subject may act on it.
    sessions: BTreeMap<ProxySessionId, (usize, String)>,
    token: MasterToken<ProxySessionId>,
    /// Queued steering parameter frames (raw Reply frames) per tag.
    params: HashMap<u32, VecDeque<Vec<u8>>>,
    next_session: u64,
    stats: ProxyStats,
}

impl<L: FrameLink> VisitProxyServer<L> {
    /// Wrap the server end of the simulation's link. The `challenge` is the
    /// per-job token UNICORE issued at submission (this is what upgrades
    /// VISIT's clear-text password into gateway-backed auth).
    pub fn new(service: &str, sim: L, password: Password, challenge: u64) -> Self {
        VisitProxyServer {
            service: service.to_string(),
            sim,
            password,
            challenge,
            authed: false,
            log: Vec::new(),
            sessions: BTreeMap::new(),
            token: MasterToken::default(),
            params: HashMap::new(),
            next_session: 1,
            stats: ProxyStats::default(),
        }
    }

    /// Handle at most one frame from the simulation, waiting up to `poll`.
    /// Returns `Ok(false)` when the simulation said Bye.
    pub fn pump(&mut self, poll: Duration) -> Result<bool, LinkError> {
        let raw = match self.sim.recv_timeout(poll) {
            Ok(r) => r,
            Err(LinkError::Timeout) => return Ok(true),
            Err(e) => return Err(e),
        };
        let frame = Frame::decode(&raw).ok_or(LinkError::Io("bad frame".into()))?;
        match frame.kind {
            MsgKind::Hello => {
                let ok = matches!(&frame.value, Some(VisitValue::Bytes(t)) if self.password.verify(t, self.challenge));
                let reply = if ok {
                    self.authed = true;
                    MsgKind::HelloAck
                } else {
                    MsgKind::HelloReject
                };
                self.sim.send(&Frame::bare(reply, 0).encode())?;
                Ok(true)
            }
            MsgKind::Data if self.authed => {
                self.stats.sim_frames += 1;
                self.log.push(raw);
                Ok(true)
            }
            MsgKind::Request if self.authed => {
                let tag = frame.tag;
                match self.params.get_mut(&tag).and_then(|q| q.pop_front()) {
                    Some(reply) => {
                        self.stats.requests_served += 1;
                        self.sim.send(&reply)?;
                    }
                    None => {
                        self.stats.requests_empty += 1;
                        self.sim.send(&Frame::bare(MsgKind::NoData, tag).encode())?;
                    }
                }
                Ok(true)
            }
            MsgKind::Bye => Ok(false),
            // unauthenticated data/requests are dropped silently
            _ => Ok(true),
        }
    }

    /// Attach a steering plugin session for `owner`, the subject the
    /// gateway authenticated; the first session becomes master.
    pub fn attach(&mut self, owner: &str) -> ProxySessionId {
        let id = ProxySessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(id, (0, owner.to_string()));
        self.token.arrive(id);
        id
    }

    /// `owner` detaches its session `id`; mastership passes to the lowest
    /// remaining id, the longest present. `false`, and nothing changes,
    /// unless `owner` attached `id`.
    pub fn detach(&mut self, owner: &str, id: ProxySessionId) -> bool {
        if self.cursor(id, owner).is_none() {
            return false;
        }
        self.sessions.remove(&id);
        self.token.depart(id, self.sessions.keys().copied());
        true
    }

    /// Current master session.
    pub fn master(&self) -> Option<ProxySessionId> {
        self.token.holder()
    }

    /// The cursor of `session`, if `owner` attached it.
    fn cursor(&self, session: ProxySessionId, owner: &str) -> Option<usize> {
        let (cursor, attached_by) = self.sessions.get(&session)?;
        (attached_by == owner).then_some(*cursor)
    }

    /// `owner` moves the master role from its session `from` to `to`
    /// ([`MasterToken::pass`]); `None` if `owner` did not attach `from`.
    pub fn pass_master(
        &mut self,
        owner: &str,
        from: ProxySessionId,
        to: ProxySessionId,
    ) -> Option<bool> {
        self.cursor(from, owner)?;
        let present = self.sessions.contains_key(&to);
        Some(self.token.pass(from, to, present))
    }

    /// One poll transaction from a plugin: deliver queued steering `params`
    /// (accepted only from the master) and return all log entries the
    /// session has not seen yet; `None` unless `owner` attached `session`.
    /// This single call is the "emulation by polling" of §3.3.
    pub fn exchange(
        &mut self,
        session: ProxySessionId,
        owner: &str,
        incoming: Vec<Vec<u8>>,
    ) -> Option<Vec<Vec<u8>>> {
        let cursor = self.cursor(session, owner)?;
        let is_master = self.token.holder() == Some(session);
        for p in incoming {
            if !is_master {
                self.stats.params_rejected += 1;
                continue;
            }
            if let Some(frame) = Frame::decode(&p) {
                if frame.kind == MsgKind::Reply {
                    self.stats.params_accepted += 1;
                    self.params.entry(frame.tag).or_default().push_back(p);
                }
            }
        }
        let fresh: Vec<Vec<u8>> = self.log[cursor..].to_vec();
        self.stats.frames_delivered += fresh.len() as u64;
        let end = self.log.len();
        self.sessions.entry(session).and_modify(|s| s.0 = end);
        Some(fresh)
    }

    /// Counters so far.
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    /// Drop log entries already delivered to every session (memory bound
    /// for long-running jobs).
    pub fn compact(&mut self) {
        let min = self
            .sessions
            .values()
            .map(|s| s.0)
            .min()
            .unwrap_or(self.log.len());
        if min > 0 {
            self.log.drain(..min);
            for (c, _) in self.sessions.values_mut() {
                *c -= min;
            }
        }
    }
}

/// The client-plugin end: maintains the latest data per tag for local
/// visualization tools and queues steering parameters for the next poll.
/// Transport-agnostic: `poll_with` takes the exchange function so the same
/// plugin runs over a direct call, a gateway transaction, or a network hop.
pub struct VisitProxyClient {
    /// This plugin's session at the proxy-server.
    pub session: ProxySessionId,
    latest: HashMap<u32, VisitValue>,
    pending: Vec<Vec<u8>>,
    /// Data frames received over the lifetime of the plugin.
    pub frames_received: u64,
}

impl VisitProxyClient {
    /// Plugin bound to an attached session id.
    pub fn new(session: ProxySessionId) -> Self {
        VisitProxyClient {
            session,
            latest: HashMap::new(),
            pending: Vec::new(),
            frames_received: 0,
        }
    }

    /// Queue a steering parameter for the simulation (sent on next poll).
    pub fn queue_param(&mut self, tag: u32, value: VisitValue) {
        let frame = Frame::with_value(MsgKind::Reply, tag, visit::Endianness::native(), value);
        self.pending.push(frame.encode());
    }

    /// Perform one poll: ship pending params, ingest returned data frames.
    /// Returns the number of fresh frames ingested.
    pub fn poll_with(
        &mut self,
        exchange: impl FnOnce(ProxySessionId, Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>>,
    ) -> usize {
        let params = std::mem::take(&mut self.pending);
        let Some(fresh) = exchange(self.session, params) else {
            return 0;
        };
        let mut n = 0;
        for raw in fresh {
            if let Some(frame) = Frame::decode(&raw) {
                if frame.kind == MsgKind::Data {
                    if let Some(v) = frame.value {
                        self.latest.insert(frame.tag, v);
                        n += 1;
                    }
                }
            }
        }
        self.frames_received += n as u64;
        n
    }

    /// Latest sample per tag (what the local AVS/Express module renders).
    pub fn latest(&self, tag: u32) -> Option<&VisitValue> {
        self.latest.get(&tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use visit::client::SteeringClient;
    use visit::link::MemLink;

    const TAG_DATA: u32 = 1;
    const TAG_PARAM: u32 = 2;

    fn rig() -> (SteeringClient<MemLink>, VisitProxyServer<MemLink>) {
        let (sim_side, proxy_side) = MemLink::pair();
        let pw = Password::Keyed("job-secret".into());
        let challenge = crate::cert::digest(b"job-17");
        let mut proxy = VisitProxyServer::new("demo-steer", proxy_side, pw.clone(), challenge);
        let t = thread::spawn(move || {
            // pump until the Hello is answered
            for _ in 0..10 {
                proxy.pump(Duration::from_millis(50)).unwrap();
                if proxy.authed {
                    break;
                }
            }
            proxy
        });
        let client =
            SteeringClient::connect(sim_side, &pw, challenge, Duration::from_secs(1)).unwrap();
        (client, t.join().unwrap())
    }

    #[test]
    fn simulation_authenticates_through_job_challenge() {
        let (_c, proxy) = rig();
        assert!(proxy.authed);
    }

    #[test]
    fn wrong_challenge_rejected() {
        let (sim_side, proxy_side) = MemLink::pair();
        let pw = Password::Keyed("s".into());
        let mut proxy = VisitProxyServer::new("x", proxy_side, pw.clone(), 1);
        let t = thread::spawn(move || {
            proxy.pump(Duration::from_millis(200)).unwrap();
            proxy
        });
        // client uses challenge 2 — token won't verify
        let r = SteeringClient::connect(sim_side, &pw, 2, Duration::from_secs(1));
        assert!(r.is_err());
        assert!(!t.join().unwrap().authed);
    }

    #[test]
    fn data_flows_sim_to_plugin_via_polling() {
        let (mut c, mut proxy) = rig();
        c.send(TAG_DATA, VisitValue::F32(vec![1.0, 2.0, 3.0]))
            .unwrap();
        c.send(TAG_DATA, VisitValue::F32(vec![4.0])).unwrap();
        proxy.pump(Duration::from_millis(100)).unwrap();
        proxy.pump(Duration::from_millis(100)).unwrap();
        let s = proxy.attach("u");
        let mut plugin = VisitProxyClient::new(s);
        let n = plugin.poll_with(|sess, p| proxy.exchange(sess, "u", p));
        assert_eq!(n, 2);
        assert_eq!(plugin.latest(TAG_DATA), Some(&VisitValue::F32(vec![4.0])));
        // second poll: nothing new
        assert_eq!(plugin.poll_with(|sess, p| proxy.exchange(sess, "u", p)), 0);
    }

    #[test]
    fn steering_param_reaches_simulation() {
        let (c, mut proxy) = rig();
        let s = proxy.attach("u");
        let mut plugin = VisitProxyClient::new(s);
        plugin.queue_param(TAG_PARAM, VisitValue::F64(vec![0.07]));
        plugin.poll_with(|sess, p| proxy.exchange(sess, "u", p));
        // simulation requests; pump serves from param queue
        let sim = thread::spawn(move || {
            let mut c = c;
            let got = c.request(TAG_PARAM).unwrap();
            assert_eq!(got, Some(VisitValue::F64(vec![0.07])));
            c
        });
        // pump until request served
        for _ in 0..20 {
            proxy.pump(Duration::from_millis(20)).unwrap();
            if proxy.stats().requests_served == 1 {
                break;
            }
        }
        sim.join().unwrap();
        assert_eq!(proxy.stats().params_accepted, 1);
    }

    #[test]
    fn non_master_params_rejected() {
        let (_c, mut proxy) = rig();
        let master = proxy.attach("u");
        let passive = proxy.attach("u");
        assert_eq!(proxy.master(), Some(master));
        let mut plugin = VisitProxyClient::new(passive);
        plugin.queue_param(TAG_PARAM, VisitValue::F64(vec![9.9]));
        plugin.poll_with(|sess, p| proxy.exchange(sess, "u", p));
        assert_eq!(proxy.stats().params_rejected, 1);
        assert_eq!(proxy.stats().params_accepted, 0);
    }

    #[test]
    fn every_session_sees_every_frame() {
        let (mut c, mut proxy) = rig();
        let s1 = proxy.attach("u");
        let s2 = proxy.attach("u");
        c.send(TAG_DATA, VisitValue::I32(vec![5])).unwrap();
        proxy.pump(Duration::from_millis(100)).unwrap();
        let mut p1 = VisitProxyClient::new(s1);
        let mut p2 = VisitProxyClient::new(s2);
        assert_eq!(p1.poll_with(|s, p| proxy.exchange(s, "u", p)), 1);
        assert_eq!(p2.poll_with(|s, p| proxy.exchange(s, "u", p)), 1);
        assert_eq!(p1.latest(TAG_DATA), p2.latest(TAG_DATA));
    }

    #[test]
    fn master_passes_on_detach_and_explicitly() {
        let (_c, mut proxy) = rig();
        let a = proxy.attach("u");
        let b = proxy.attach("u");
        assert!(!proxy.detach("v", a), "not v's session");
        assert_eq!(proxy.master(), Some(a));
        assert!(proxy.detach("u", a));
        assert_eq!(proxy.master(), Some(b));
        let c2 = proxy.attach("u");
        assert_eq!(proxy.pass_master("u", b, c2), Some(true));
        assert_eq!(proxy.master(), Some(c2));
        assert_eq!(proxy.pass_master("u", c2, ProxySessionId(999)), Some(false));
        assert_eq!(proxy.pass_master("v", c2, b), None, "not v's session");
    }

    #[test]
    fn compact_bounds_log_growth() {
        let (mut c, mut proxy) = rig();
        let s = proxy.attach("u");
        for i in 0..10 {
            c.send(TAG_DATA, VisitValue::I32(vec![i])).unwrap();
        }
        for _ in 0..10 {
            proxy.pump(Duration::from_millis(50)).unwrap();
        }
        assert_eq!(proxy.log.len(), 10);
        let mut plugin = VisitProxyClient::new(s);
        plugin.poll_with(|sess, p| proxy.exchange(sess, "u", p));
        proxy.compact();
        assert_eq!(proxy.log.len(), 0);
        // new data still delivered after compaction
        c.send(TAG_DATA, VisitValue::I32(vec![99])).unwrap();
        proxy.pump(Duration::from_millis(50)).unwrap();
        assert_eq!(plugin.poll_with(|sess, p| proxy.exchange(sess, "u", p)), 1);
        assert_eq!(plugin.latest(TAG_DATA), Some(&VisitValue::I32(vec![99])));
    }

    #[test]
    fn unknown_session_exchange_fails() {
        let (_c, mut proxy) = rig();
        assert!(proxy.exchange(ProxySessionId(404), "u", vec![]).is_none());
        let s = proxy.attach("u");
        assert!(proxy.exchange(s, "v", vec![]).is_none(), "not v's session");
    }
}
