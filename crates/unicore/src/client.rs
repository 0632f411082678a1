//! The user-side UNICORE client.
//!
//! §3.1: the client provides "functions to construct, submit and control
//! the execution of computational jobs" with "single sign-on with strong
//! authentication": the user holds one certificate and every request to any
//! gateway is signed with it. The steering plugin of §3.3 lives here too:
//! [`UnicoreClient::proxy_attach`] / [`UnicoreClient::proxy_poll`] drive a
//! [`crate::proxy::VisitProxyClient`] through gateway
//! transactions.

use crate::ajo::Ajo;
use crate::cert::{Certificate, PrivateKey, SignedRequest};
use crate::gateway::{Gateway, GatewayError, GatewayMsg, GatewayReply};
use crate::njs::{JobId, JobStatus};
use crate::proxy::{ProxySessionId, VisitProxyClient};

/// Client-side failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The gateway refused the request.
    Denied(GatewayError),
    /// The gateway replied with something unexpected for this request.
    Protocol,
}

/// A user with a certificate, talking to gateways.
pub struct UnicoreClient {
    /// The user's certificate (single sign-on identity).
    pub cert: Certificate,
    key: PrivateKey,
}

impl UnicoreClient {
    /// A client for the given identity.
    pub fn new(cert: Certificate, key: PrivateKey) -> Self {
        UnicoreClient { cert, key }
    }

    /// The identity string gateways see.
    pub fn subject(&self) -> &str {
        &self.cert.subject
    }

    fn send(&self, gw: &mut Gateway, msg: GatewayMsg) -> GatewayReply {
        gw.transact(&SignedRequest::new(self.cert.clone(), &self.key, msg))
    }

    /// Submit an AJO.
    pub fn consign(&self, gw: &mut Gateway, ajo: Ajo) -> Result<JobId, ClientError> {
        match self.send(gw, GatewayMsg::Consign(ajo)) {
            GatewayReply::Accepted(id) => Ok(id),
            GatewayReply::Denied(e) => Err(ClientError::Denied(e)),
            _ => Err(ClientError::Protocol),
        }
    }

    /// Tick a Vsite's queue (synchronous target-system model).
    pub fn run_queued(&self, gw: &mut Gateway, vsite: &str) -> Result<usize, ClientError> {
        match self.send(
            gw,
            GatewayMsg::RunQueued {
                vsite: vsite.into(),
            },
        ) {
            GatewayReply::Ran(n) => Ok(n),
            GatewayReply::Denied(e) => Err(ClientError::Denied(e)),
            _ => Err(ClientError::Protocol),
        }
    }

    /// Poll a job's status.
    pub fn status(
        &self,
        gw: &mut Gateway,
        vsite: &str,
        job: JobId,
    ) -> Result<JobStatus, ClientError> {
        match self.send(
            gw,
            GatewayMsg::Status {
                vsite: vsite.into(),
                job: job.0,
            },
        ) {
            GatewayReply::Status(s) => Ok(s),
            GatewayReply::Denied(e) => Err(ClientError::Denied(e)),
            _ => Err(ClientError::Protocol),
        }
    }

    /// Fetch spooled outcome files.
    pub fn fetch(
        &self,
        gw: &mut Gateway,
        vsite: &str,
        job: JobId,
    ) -> Result<Vec<(String, Vec<u8>)>, ClientError> {
        match self.send(
            gw,
            GatewayMsg::Fetch {
                vsite: vsite.into(),
                job: job.0,
            },
        ) {
            GatewayReply::Outcome(files) => Ok(files),
            GatewayReply::Denied(e) => Err(ClientError::Denied(e)),
            _ => Err(ClientError::Protocol),
        }
    }

    /// Attach to a job's steering proxy, returning a plugin bound to the
    /// new session.
    // detlint::allow(R9, "README crate table, crates/unicore row: VISIT proxy integration")
    pub fn proxy_attach(
        &self,
        gw: &mut Gateway,
        vsite: &str,
        service: &str,
    ) -> Result<VisitProxyClient, ClientError> {
        match self.send(
            gw,
            GatewayMsg::ProxyAttach {
                vsite: vsite.into(),
                service: service.into(),
            },
        ) {
            GatewayReply::ProxySession(id) => Ok(VisitProxyClient::new(id)),
            GatewayReply::Denied(e) => Err(ClientError::Denied(e)),
            _ => Err(ClientError::Protocol),
        }
    }

    /// One steering poll for an attached plugin: ships its queued params,
    /// ingests fresh frames. Returns the number of new data frames.
    // detlint::allow(R9, "README crate table, crates/unicore row: VISIT proxy integration")
    pub fn proxy_poll(
        &self,
        gw: &mut Gateway,
        vsite: &str,
        service: &str,
        plugin: &mut VisitProxyClient,
    ) -> Result<usize, ClientError> {
        let mut denied = None;
        let n = plugin.poll_with(|session, params| {
            match self.send(
                gw,
                GatewayMsg::ProxyExchange {
                    vsite: vsite.into(),
                    service: service.into(),
                    session,
                    params,
                },
            ) {
                GatewayReply::ProxyFrames(frames) => Some(frames),
                GatewayReply::Denied(e) => {
                    denied = Some(e);
                    None
                }
                _ => None,
            }
        });
        match denied {
            Some(e) => Err(ClientError::Denied(e)),
            None => Ok(n),
        }
    }

    /// Move the steering master role from this user's attached `plugin`
    /// to another session.
    // detlint::allow(R9, "README crate table, crates/unicore row: VISIT proxy integration")
    pub fn proxy_pass_master(
        &self,
        gw: &mut Gateway,
        vsite: &str,
        service: &str,
        plugin: &VisitProxyClient,
        to: ProxySessionId,
    ) -> Result<bool, ClientError> {
        match self.send(
            gw,
            GatewayMsg::ProxyPassMaster {
                vsite: vsite.into(),
                service: service.into(),
                from: plugin.session,
                to,
            },
        ) {
            GatewayReply::MasterPassed(ok) => Ok(ok),
            GatewayReply::Denied(e) => Err(ClientError::Denied(e)),
            _ => Err(ClientError::Protocol),
        }
    }

    /// Detach this user's attached `plugin` from the steering session; if
    /// it held the master role, the longest-present session takes it.
    // detlint::allow(R9, "README crate table, crates/unicore row: VISIT proxy integration")
    pub fn proxy_detach(
        &self,
        gw: &mut Gateway,
        vsite: &str,
        service: &str,
        plugin: &VisitProxyClient,
    ) -> Result<(), ClientError> {
        match self.send(
            gw,
            GatewayMsg::ProxyDetach {
                vsite: vsite.into(),
                service: service.into(),
                session: plugin.session,
            },
        ) {
            GatewayReply::ProxyDetached => Ok(()),
            GatewayReply::Denied(e) => Err(ClientError::Denied(e)),
            _ => Err(ClientError::Protocol),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ajo::Task;
    use crate::cert::{CertAuthority, TrustStore};
    use crate::njs::Njs;
    use crate::tsi::Tsi;

    fn rig() -> (UnicoreClient, Gateway) {
        let ca = CertAuthority::new("CA", 1);
        let mut trust = TrustStore::new();
        trust.trust(&ca);
        let (cert, key) = ca.issue("CN=porter");
        let mut gw = Gateway::new("gw", trust);
        gw.add_vsite(Njs::new("csar", Tsi::with_builtins()));
        (UnicoreClient::new(cert, key), gw)
    }

    fn job() -> Ajo {
        let mut ajo = Ajo::new("j", "csar");
        let w = ajo.add_task(
            Task::Execute {
                command: "write".into(),
                args: vec!["result.txt".into(), "ok".into()],
            },
            &[],
        );
        ajo.add_task(
            Task::StageOut {
                path: "result.txt".into(),
            },
            &[w],
        );
        ajo
    }

    #[test]
    fn submit_run_fetch_happy_path() {
        let (client, mut gw) = rig();
        let id = client.consign(&mut gw, job()).unwrap();
        assert_eq!(
            client.status(&mut gw, "csar", id).unwrap(),
            JobStatus::Queued
        );
        assert_eq!(client.run_queued(&mut gw, "csar").unwrap(), 1);
        assert_eq!(client.status(&mut gw, "csar", id).unwrap(), JobStatus::Done);
        let files = client.fetch(&mut gw, "csar", id).unwrap();
        assert_eq!(files, vec![("result.txt".to_string(), b"ok".to_vec())]);
    }

    #[test]
    fn status_of_unknown_job_denied() {
        let (client, mut gw) = rig();
        let r = client.status(&mut gw, "csar", JobId(777));
        assert_eq!(r, Err(ClientError::Denied(GatewayError::UnknownJob)));
    }

    #[test]
    fn collaborators_steer_through_the_gateway_proxy() {
        use crate::proxy::VisitProxyServer;
        use std::time::Duration;
        use visit::link::{FrameLink, MemLink};
        use visit::{Endianness, Frame, MsgKind, Password, VisitValue};
        const DATA: u32 = 1;
        const PARAM: u32 = 2;
        // two collaborators holding certificates from one trusted CA
        let ca = CertAuthority::new("CA", 1);
        let mut trust = TrustStore::new();
        trust.trust(&ca);
        let (porter, pkey) = ca.issue("CN=porter");
        let (woessner, wkey) = ca.issue("CN=woessner");
        let (alice, bob) = (
            UnicoreClient::new(porter, pkey),
            UnicoreClient::new(woessner, wkey),
        );
        let mut gw = Gateway::new("gw", trust);
        gw.add_vsite(Njs::new("csar", Tsi::with_builtins()));
        // the simulation's VISIT link ends in a proxy behind the gateway
        let (mut sim, proxy_end) = MemLink::pair();
        let pw = Password::Keyed("job-secret".into());
        let challenge = gw.challenge("csar", "lbm");
        let proxy_end: Box<dyn FrameLink> = Box::new(proxy_end);
        let proxy = VisitProxyServer::new("lbm", proxy_end, pw.clone(), challenge);
        gw.register_proxy("csar", proxy);
        // one frame from the simulation, handled by the proxy in place
        let pump = |gw: &mut Gateway| {
            let proxy = gw.proxy_mut("csar", "lbm").unwrap();
            assert!(proxy.pump(Duration::from_secs(1)).unwrap());
        };
        let send = |sim: &mut MemLink, kind, tag, value: Option<VisitValue>| {
            let frame = match value {
                Some(v) => Frame::with_value(kind, tag, Endianness::native(), v),
                None => Frame::bare(kind, tag),
            };
            sim.send(&frame.encode()).unwrap();
        };
        let recv = |sim: &mut MemLink| {
            let frame = Frame::decode(&sim.recv_timeout(Duration::from_secs(1)).unwrap());
            frame.map(|f| (f.kind, f.value)).unwrap()
        };
        // it authenticates with the per-job challenge and publishes a sample
        let token = VisitValue::Bytes(pw.client_token(challenge));
        send(&mut sim, MsgKind::Hello, 0, Some(token));
        pump(&mut gw);
        assert_eq!(recv(&mut sim), (MsgKind::HelloAck, None));
        send(
            &mut sim,
            MsgKind::Data,
            DATA,
            Some(VisitValue::F64(vec![0.5])),
        );
        pump(&mut gw);
        // two collaborators attach with signed requests; the first is master
        let mut a = alice.proxy_attach(&mut gw, "csar", "lbm").unwrap();
        let mut b = bob.proxy_attach(&mut gw, "csar", "lbm").unwrap();
        // both polls see the broadcast
        assert_eq!(alice.proxy_poll(&mut gw, "csar", "lbm", &mut a), Ok(1));
        assert_eq!(bob.proxy_poll(&mut gw, "csar", "lbm", &mut b), Ok(1));
        let sample = Some(&VisitValue::F64(vec![0.5]));
        assert_eq!((a.latest(DATA), b.latest(DATA)), (sample, sample));
        // the simulation asks for its parameter after each round of polls
        let mut request = |gw: &mut Gateway| {
            send(&mut sim, MsgKind::Request, PARAM, None);
            pump(gw);
            recv(&mut sim)
        };
        let steer = |who: &UnicoreClient, plugin: &mut VisitProxyClient, gw: &mut Gateway, v| {
            plugin.queue_param(PARAM, VisitValue::F64(vec![v]));
            assert_eq!(who.proxy_poll(gw, "csar", "lbm", plugin), Ok(0));
        };
        // only the master's parameter reaches the simulation
        steer(&bob, &mut b, &mut gw, 0.75);
        steer(&alice, &mut a, &mut gw, 0.25);
        let steered = (MsgKind::Reply, Some(VisitValue::F64(vec![0.25])));
        assert_eq!(request(&mut gw), steered);
        assert_eq!(request(&mut gw), (MsgKind::NoData, None));
        // a session answers only to the subject that attached it: bob can
        // neither take the token himself nor act on alice's session
        assert_eq!(
            bob.proxy_pass_master(&mut gw, "csar", "lbm", &b, b.session),
            Ok(false)
        );
        let mut stolen = VisitProxyClient::new(a.session);
        let denied = ClientError::Denied(GatewayError::UnknownSession);
        assert_eq!(
            bob.proxy_pass_master(&mut gw, "csar", "lbm", &stolen, b.session),
            Err(denied.clone())
        );
        stolen.queue_param(PARAM, VisitValue::F64(vec![0.6]));
        assert_eq!(
            bob.proxy_poll(&mut gw, "csar", "lbm", &mut stolen),
            Err(denied)
        );
        // alice still steers
        steer(&alice, &mut a, &mut gw, 0.3);
        let steered = (MsgKind::Reply, Some(VisitValue::F64(vec![0.3])));
        assert_eq!(request(&mut gw), steered);
        // passing the master role moves the right to steer
        assert_eq!(
            alice.proxy_pass_master(&mut gw, "csar", "lbm", &a, b.session),
            Ok(true)
        );
        steer(&alice, &mut a, &mut gw, 0.1);
        steer(&bob, &mut b, &mut gw, 0.9);
        let steered = (MsgKind::Reply, Some(VisitValue::F64(vec![0.9])));
        assert_eq!(request(&mut gw), steered);
        assert_eq!(request(&mut gw), (MsgKind::NoData, None));
        let stats = gw.proxy_mut("csar", "lbm").unwrap().stats();
        assert_eq!((stats.params_accepted, stats.params_rejected), (3, 2));
        assert_eq!(gw.stats().proxy_exchanges, 8);
    }

    #[test]
    fn a_departing_master_hands_the_token_on_through_the_gateway() {
        use crate::proxy::VisitProxyServer;
        use visit::link::{FrameLink, MemLink};
        use visit::Password;
        let ca = CertAuthority::new("CA", 1);
        let mut trust = TrustStore::new();
        trust.trust(&ca);
        let [alice, bob, carol] = ["CN=porter", "CN=woessner", "CN=brooke"].map(|subject| {
            let (cert, key) = ca.issue(subject);
            UnicoreClient::new(cert, key)
        });
        let mut gw = Gateway::new("gw", trust);
        gw.add_vsite(Njs::new("csar", Tsi::with_builtins()));
        let pw = Password::Keyed("job-secret".into());
        let challenge = gw.challenge("csar", "lbm");
        let proxy_end: Box<dyn FrameLink> = Box::new(MemLink::pair().1);
        gw.register_proxy(
            "csar",
            VisitProxyServer::new("lbm", proxy_end, pw, challenge),
        );
        let master = |gw: &mut Gateway| gw.proxy_mut("csar", "lbm").unwrap().master();
        let a = alice.proxy_attach(&mut gw, "csar", "lbm").unwrap();
        let b = bob.proxy_attach(&mut gw, "csar", "lbm").unwrap();
        let c = carol.proxy_attach(&mut gw, "csar", "lbm").unwrap();
        assert_eq!(master(&mut gw), Some(a.session));
        // bob cannot detach alice's session: the token stays with alice
        let denied = ClientError::Denied(GatewayError::UnknownSession);
        assert_eq!(
            bob.proxy_detach(&mut gw, "csar", "lbm", &a),
            Err(denied.clone())
        );
        assert_eq!(master(&mut gw), Some(a.session));
        // alice leaves: bob, present longer than carol, takes the token
        assert_eq!(alice.proxy_detach(&mut gw, "csar", "lbm", &a), Ok(()));
        assert_eq!(master(&mut gw), Some(b.session));
        // alice's session is gone, for alice too
        assert_eq!(
            alice.proxy_detach(&mut gw, "csar", "lbm", &a),
            Err(denied.clone())
        );
        let mut gone = VisitProxyClient::new(a.session);
        assert_eq!(
            alice.proxy_poll(&mut gw, "csar", "lbm", &mut gone),
            Err(denied)
        );
        // a non-holder leaving moves nothing
        assert_eq!(carol.proxy_detach(&mut gw, "csar", "lbm", &c), Ok(()));
        assert_eq!(master(&mut gw), Some(b.session));
    }

    #[test]
    fn proxy_attach_to_missing_service_denied() {
        let (client, mut gw) = rig();
        let r = client.proxy_attach(&mut gw, "csar", "no-service");
        assert!(matches!(
            r,
            Err(ClientError::Denied(GatewayError::UnknownService(_)))
        ));
    }
}
