//! The UNICORE Gateway: authenticated single-port entry.
//!
//! §3.1: gateways act "as point-of-entry into the protected domains of the
//! HPC centres", and UNICORE's firewall-friendliness comes from "handling
//! of all communication over a single fixed TCP server-port". We model that
//! by funnelling *every* operation — job consignment, status polls, outcome
//! fetches, and the VISIT proxy transactions of §3.3 — through one
//! [`Gateway::transact`] entry point taking a [`SignedRequest`] and
//! returning a [`GatewayReply`]. §2.2: "the application could traverse
//! firewalls since the UNICORE architecture places security Gateways at the
//! firewall boundary."

use crate::ajo::Ajo;
use crate::cert::{digest, SignedRequest, TrustStore};
use crate::njs::{JobId, JobStatus, Njs};
use crate::proxy::{ProxySessionId, VisitProxyServer};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use visit::link::FrameLink;

/// All operations that can cross the gateway's single port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GatewayMsg {
    /// Submit an AJO to its Vsite.
    Consign(Ajo),
    /// Drive queued jobs at a Vsite (operator tick; the real NJS runs its
    /// batch queue asynchronously — our target system is synchronous).
    RunQueued {
        /// Vsite to tick.
        vsite: String,
    },
    /// Query job status.
    Status {
        /// Vsite owning the job.
        vsite: String,
        /// The job.
        job: u64,
    },
    /// Fetch spooled outcome files of a finished job.
    Fetch {
        /// Vsite owning the job.
        vsite: String,
        /// The job.
        job: u64,
    },
    /// Attach a steering session to a job's VISIT proxy (§3.3: every
    /// collaborator authenticates to UNICORE — this is where).
    ProxyAttach {
        /// Vsite hosting the proxy.
        vsite: String,
        /// Steering service name.
        service: String,
    },
    /// One steering poll transaction: deliver params, collect fresh frames.
    ProxyExchange {
        /// Vsite hosting the proxy.
        vsite: String,
        /// Steering service name.
        service: String,
        /// The caller's session.
        session: ProxySessionId,
        /// Raw steering parameter frames (accepted from the master only).
        params: Vec<Vec<u8>>,
    },
    /// Move the master role from the caller's session to another one.
    ProxyPassMaster {
        /// Vsite hosting the proxy.
        vsite: String,
        /// Steering service name.
        service: String,
        /// The caller's session (it must hold the master role).
        from: ProxySessionId,
        /// Session to promote.
        to: ProxySessionId,
    },
    /// Detach the caller's session; a master's token passes to the
    /// longest-present session left.
    ProxyDetach {
        /// Vsite hosting the proxy.
        vsite: String,
        /// Steering service name.
        service: String,
        /// The caller's session.
        session: ProxySessionId,
    },
}

/// Replies from the gateway.
#[derive(Debug, Clone, PartialEq)]
pub enum GatewayReply {
    /// Job accepted with this id.
    Accepted(JobId),
    /// Number of queued jobs run.
    Ran(usize),
    /// Current job status.
    Status(JobStatus),
    /// Spooled outcome files.
    Outcome(Vec<(String, Vec<u8>)>),
    /// New proxy session (plus the per-job challenge the simulation side
    /// authenticated with).
    ProxySession(ProxySessionId),
    /// Fresh data frames from a proxy exchange.
    ProxyFrames(Vec<Vec<u8>>),
    /// Master role moved (or not).
    MasterPassed(bool),
    /// Proxy session detached.
    ProxyDetached,
    /// Request refused.
    Denied(GatewayError),
}

/// Refusal reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// Certificate/signature failed verification.
    AuthFailed,
    /// No such Vsite behind this gateway.
    UnknownVsite(String),
    /// No such job / not the owner.
    UnknownJob,
    /// No such steering service.
    UnknownService(String),
    /// The AJO failed validation.
    BadAjo,
    /// No such proxy session / not the caller's.
    UnknownSession,
}

/// Gateway traffic counters (experiment EU1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GatewayStats {
    /// Transactions processed (= connections on the single port).
    pub transactions: u64,
    /// Transactions rejected at authentication.
    pub auth_rejected: u64,
    /// Proxy exchanges served.
    pub proxy_exchanges: u64,
}

/// The gateway plus the protected domain behind it (its Vsites and any
/// live VISIT proxies).
pub struct Gateway {
    /// Gateway name (e.g. `"fzj-gateway"`).
    pub name: String,
    trust: TrustStore,
    vsites: BTreeMap<String, Njs>,
    proxies: HashMap<(String, String), VisitProxyServer<Box<dyn FrameLink>>>,
    stats: GatewayStats,
}

impl Gateway {
    /// A gateway trusting the given store.
    pub fn new(name: &str, trust: TrustStore) -> Self {
        Gateway {
            name: name.to_string(),
            trust,
            vsites: BTreeMap::new(),
            proxies: HashMap::new(),
            stats: GatewayStats::default(),
        }
    }

    /// Put a Vsite (NJS + target system) behind this gateway.
    pub fn add_vsite(&mut self, njs: Njs) {
        self.vsites.insert(njs.vsite.clone(), njs);
    }

    /// Register a live VISIT proxy for `(vsite, service)`. Called by the
    /// session orchestration when a job with a `StartVisitProxy` task
    /// starts (the TSI records the service name; the simulation's link is
    /// handed in here).
    // detlint::allow(R9, "README crate table, crates/unicore row: VISIT proxy integration")
    pub fn register_proxy(&mut self, vsite: &str, proxy: VisitProxyServer<Box<dyn FrameLink>>) {
        self.proxies
            .insert((vsite.to_string(), proxy.service.clone()), proxy);
    }

    /// Access a registered proxy (to pump its simulation link), as the
    /// proxy tests drive it.
    #[cfg(test)]
    pub(crate) fn proxy_mut(
        &mut self,
        vsite: &str,
        service: &str,
    ) -> Option<&mut VisitProxyServer<Box<dyn FrameLink>>> {
        self.proxies
            .get_mut(&(vsite.to_string(), service.to_string()))
    }

    /// The per-job challenge for a service behind this gateway: both the
    /// simulation (via its job environment) and the gateway derive it from
    /// the same job token.
    pub fn challenge(&self, vsite: &str, service: &str) -> u64 {
        digest(format!("{}/{}/{}", self.name, vsite, service).as_bytes())
    }

    /// Counters so far.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// The single entry point: verify the signed request, dispatch.
    pub fn transact(&mut self, req: &SignedRequest<GatewayMsg>) -> GatewayReply {
        self.stats.transactions += 1;
        if !req.verify(&self.trust) {
            self.stats.auth_rejected += 1;
            return GatewayReply::Denied(GatewayError::AuthFailed);
        }
        let owner = req.cert.subject.clone();
        match &req.payload {
            GatewayMsg::Consign(ajo) => {
                let Some(njs) = self.vsites.get_mut(&ajo.vsite) else {
                    return GatewayReply::Denied(GatewayError::UnknownVsite(ajo.vsite.clone()));
                };
                match njs.consign(ajo.clone(), &owner) {
                    Ok(id) => GatewayReply::Accepted(id),
                    Err(_) => GatewayReply::Denied(GatewayError::BadAjo),
                }
            }
            GatewayMsg::RunQueued { vsite } => {
                let Some(njs) = self.vsites.get_mut(vsite) else {
                    return GatewayReply::Denied(GatewayError::UnknownVsite(vsite.clone()));
                };
                GatewayReply::Ran(njs.run_all_queued())
            }
            GatewayMsg::Status { vsite, job } => {
                let Some(njs) = self.vsites.get(vsite) else {
                    return GatewayReply::Denied(GatewayError::UnknownVsite(vsite.clone()));
                };
                match njs.status(JobId(*job), &owner) {
                    Some(s) => GatewayReply::Status(s.clone()),
                    None => GatewayReply::Denied(GatewayError::UnknownJob),
                }
            }
            GatewayMsg::Fetch { vsite, job } => {
                let Some(njs) = self.vsites.get(vsite) else {
                    return GatewayReply::Denied(GatewayError::UnknownVsite(vsite.clone()));
                };
                match njs.fetch(JobId(*job), &owner) {
                    Some(outcome) => {
                        // spooled is a BTreeMap: path-sorted already
                        let files: Vec<(String, Vec<u8>)> = outcome
                            .spooled
                            .iter()
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect();
                        GatewayReply::Outcome(files)
                    }
                    None => GatewayReply::Denied(GatewayError::UnknownJob),
                }
            }
            GatewayMsg::ProxyAttach { vsite, service } => {
                let key = (vsite.clone(), service.clone());
                match self.proxies.get_mut(&key) {
                    Some(p) => GatewayReply::ProxySession(p.attach(&owner)),
                    None => GatewayReply::Denied(GatewayError::UnknownService(service.clone())),
                }
            }
            GatewayMsg::ProxyExchange {
                vsite,
                service,
                session,
                params,
            } => {
                self.stats.proxy_exchanges += 1;
                let key = (vsite.clone(), service.clone());
                match self.proxies.get_mut(&key) {
                    Some(p) => match p.exchange(*session, &owner, params.clone()) {
                        Some(frames) => GatewayReply::ProxyFrames(frames),
                        None => GatewayReply::Denied(GatewayError::UnknownSession),
                    },
                    None => GatewayReply::Denied(GatewayError::UnknownService(service.clone())),
                }
            }
            GatewayMsg::ProxyPassMaster {
                vsite,
                service,
                from,
                to,
            } => {
                let key = (vsite.clone(), service.clone());
                match self.proxies.get_mut(&key) {
                    Some(p) => match p.pass_master(&owner, *from, *to) {
                        Some(moved) => GatewayReply::MasterPassed(moved),
                        None => GatewayReply::Denied(GatewayError::UnknownSession),
                    },
                    None => GatewayReply::Denied(GatewayError::UnknownService(service.clone())),
                }
            }
            GatewayMsg::ProxyDetach {
                vsite,
                service,
                session,
            } => {
                let key = (vsite.clone(), service.clone());
                match self
                    .proxies
                    .get_mut(&key)
                    .map(|p| p.detach(&owner, *session))
                {
                    Some(true) => GatewayReply::ProxyDetached,
                    Some(false) => GatewayReply::Denied(GatewayError::UnknownSession),
                    None => GatewayReply::Denied(GatewayError::UnknownService(service.clone())),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ajo::Task;
    use crate::cert::CertAuthority;
    use crate::tsi::Tsi;

    fn rig() -> (Gateway, crate::cert::Certificate, crate::cert::PrivateKey) {
        let ca = CertAuthority::new("UK-eScience-CA", 1);
        let mut trust = TrustStore::new();
        trust.trust(&ca);
        let (cert, key) = ca.issue("CN=brooke");
        let mut gw = Gateway::new("man-gateway", trust);
        gw.add_vsite(Njs::new("csar", Tsi::with_builtins()));
        (gw, cert, key)
    }

    fn good_ajo() -> Ajo {
        let mut ajo = Ajo::new("writer", "csar");
        let w = ajo.add_task(
            Task::Execute {
                command: "write".into(),
                args: vec!["out".into(), "data".into()],
            },
            &[],
        );
        ajo.add_task(Task::StageOut { path: "out".into() }, &[w]);
        ajo
    }

    #[test]
    fn full_job_path_through_single_port() {
        let (mut gw, cert, key) = rig();
        let consign = SignedRequest::new(cert.clone(), &key, GatewayMsg::Consign(good_ajo()));
        let GatewayReply::Accepted(id) = gw.transact(&consign) else {
            panic!("consign refused");
        };
        let run = SignedRequest::new(
            cert.clone(),
            &key,
            GatewayMsg::RunQueued {
                vsite: "csar".into(),
            },
        );
        assert_eq!(gw.transact(&run), GatewayReply::Ran(1));
        let status = SignedRequest::new(
            cert.clone(),
            &key,
            GatewayMsg::Status {
                vsite: "csar".into(),
                job: id.0,
            },
        );
        assert_eq!(gw.transact(&status), GatewayReply::Status(JobStatus::Done));
        let fetch = SignedRequest::new(
            cert,
            &key,
            GatewayMsg::Fetch {
                vsite: "csar".into(),
                job: id.0,
            },
        );
        let GatewayReply::Outcome(files) = gw.transact(&fetch) else {
            panic!("fetch refused");
        };
        assert_eq!(files, vec![("out".to_string(), b"data".to_vec())]);
        assert_eq!(gw.stats().transactions, 4);
    }

    #[test]
    fn untrusted_cert_rejected_at_the_port() {
        let (mut gw, _cert, _key) = rig();
        let rogue = CertAuthority::new("Rogue", 9);
        let (rcert, rkey) = rogue.issue("CN=mallory");
        let req = SignedRequest::new(rcert, &rkey, GatewayMsg::Consign(good_ajo()));
        assert_eq!(
            gw.transact(&req),
            GatewayReply::Denied(GatewayError::AuthFailed)
        );
        assert_eq!(gw.stats().auth_rejected, 1);
    }

    #[test]
    fn cross_user_job_access_denied() {
        let ca = CertAuthority::new("CA", 1);
        let mut trust = TrustStore::new();
        trust.trust(&ca);
        let (alice, akey) = ca.issue("CN=alice");
        let (eve, ekey) = ca.issue("CN=eve");
        let mut gw = Gateway::new("gw", trust);
        gw.add_vsite(Njs::new("v", Tsi::with_builtins()));
        let mut ajo = good_ajo();
        ajo.vsite = "v".into();
        let GatewayReply::Accepted(id) =
            gw.transact(&SignedRequest::new(alice, &akey, GatewayMsg::Consign(ajo)))
        else {
            panic!()
        };
        // eve is authenticated but not the owner
        let probe = SignedRequest::new(
            eve,
            &ekey,
            GatewayMsg::Status {
                vsite: "v".into(),
                job: id.0,
            },
        );
        assert_eq!(
            gw.transact(&probe),
            GatewayReply::Denied(GatewayError::UnknownJob)
        );
    }

    #[test]
    fn unknown_vsite_and_service_denied() {
        let (mut gw, cert, key) = rig();
        let mut ajo = good_ajo();
        ajo.vsite = "nowhere".into();
        assert_eq!(
            gw.transact(&SignedRequest::new(
                cert.clone(),
                &key,
                GatewayMsg::Consign(ajo)
            )),
            GatewayReply::Denied(GatewayError::UnknownVsite("nowhere".into()))
        );
        assert_eq!(
            gw.transact(&SignedRequest::new(
                cert,
                &key,
                GatewayMsg::ProxyAttach {
                    vsite: "csar".into(),
                    service: "ghost".into()
                },
            )),
            GatewayReply::Denied(GatewayError::UnknownService("ghost".into()))
        );
    }

    #[test]
    fn challenge_is_deterministic_per_service() {
        let (gw, _, _) = rig();
        assert_eq!(gw.challenge("csar", "s"), gw.challenge("csar", "s"));
        assert_ne!(gw.challenge("csar", "s"), gw.challenge("csar", "t"));
    }
}
