//! The multi-client TCP steering server.
//!
//! This is the "steering client … integrated into the collaborative
//! environment" path made concrete: one process owns the
//! [`SteeringSession`]; any number of client processes connect over TCP
//! (loopback in the examples, but the protocol is location-transparent),
//! join with a name, and steer subject to the master-token rules.
//!
//! The wire is the bus's VISIT steering envelope
//! ([`gridsteer_bus::visit`]) over the length-prefixed [`TcpLink`]
//! framing: a join, a command batch, a read and a master-token pass are
//! each one [`Request`] answered by one [`Reply`], and a batch travels in
//! exactly the frames an in-process
//! [`VisitEndpoint`](gridsteer_bus::VisitEndpoint) ships — client-native
//! byte order, converted by the receiver (§3.2). The server is a broker:
//! it accepts a connection, attaches it to the session on its join, pumps
//! its requests into the session and detaches it when it goes. Name
//! assignment and the master-token rules are the session's. A batch is
//! applied atomically under one session lock, so its reply carries the
//! outcome; a batch number the connection has already used is refused,
//! and a frame that does not parse drops its sender with the reason.

use crate::params::ParamValue;
use crate::session::SteeringSession;
use gridsteer_bus::visit::{RecvError, Reply, Request, VisitWire};
use gridsteer_bus::{SteerCommand, SteerError};
use parking_lot::Mutex;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use visit::link::{LinkError, TcpLink};

/// How long a reply, or the rest of a request already begun, may take.
const PATIENCE: Duration = Duration::from_secs(2);
/// How long an idle connection waits before it checks for a stop.
const IDLE: Duration = Duration::from_millis(100);

/// The server: owns the listener and the per-client threads.
pub struct CollabServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    session: Arc<Mutex<SteeringSession>>,
}

impl CollabServer {
    /// Start serving `session` on an ephemeral loopback port.
    pub fn start(session: Arc<Mutex<SteeringSession>>) -> std::io::Result<CollabServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let accept_session = session.clone();
        // detlint::allow(R3, "TCP accept loop: blocking io concurrency, never compute — results are serialized through the session lock")
        let accept_thread = std::thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let sess = accept_session.clone();
                        let stop = accept_stop.clone();
                        // detlint::allow(R3, "one io worker per client socket; all state mutation goes through the shared SteeringSession")
                        workers.push(std::thread::spawn(move || {
                            let _ = serve_client(stream, sess, stop);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(CollabServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            session,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared session (e.g. for the simulation loop to broadcast
    /// samples and read steered parameters).
    pub fn session(&self) -> Arc<Mutex<SteeringSession>> {
        self.session.clone()
    }

    /// Stop accepting and wind down client threads.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CollabServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection's standing with the session.
#[derive(Default)]
struct Attachment {
    /// The name the session assigned at this connection's join.
    name: Option<String>,
    /// Highest batch number this connection has sent.
    last_batch: u64,
}

/// One client connection's server-side loop: pump requests into the
/// session until the peer goes, a frame does not parse, or the server
/// stops; then detach.
fn serve_client(
    stream: TcpStream,
    session: Arc<Mutex<SteeringSession>>,
    stop: Arc<AtomicBool>,
) -> Result<(), String> {
    let link = TcpLink::new(stream).map_err(|e| e.to_string())?;
    let mut wire = VisitWire::steering(link, PATIENCE);
    let mut attachment = Attachment::default();
    let result = loop {
        if stop.load(Ordering::Relaxed) {
            break Ok(());
        }
        let request = match wire.recv_request(IDLE) {
            Ok(Some(request)) => request,
            Ok(None) => continue,
            Err(RecvError::Refused(why)) => {
                if wire.send_reply(&Reply::Refused(why)).is_err() {
                    break Ok(());
                }
                continue;
            }
            Err(RecvError::Malformed(e)) => break Err(e),
        };
        let reply = attachment.answer(request, &session);
        if wire.send_reply(&reply).is_err() {
            break Ok(());
        }
    };
    // departure: leave the session (auto-promotes a new master)
    if let Some(name) = attachment.name {
        session.lock().leave_by_name(&name);
    }
    result
}

impl Attachment {
    /// The session's answer to one request from this connection.
    fn answer(&mut self, request: Request, session: &Mutex<SteeringSession>) -> Reply {
        // a second join would leave the first name in the session when
        // this connection drops, master token and all
        if let (Request::Join(_), Some(name)) = (&request, &self.name) {
            return Reply::Refused(format!("already joined as {name}"));
        }
        let mut s = session.lock();
        let me = self.name.as_deref().and_then(|name| s.index_of(name));
        let outcome = match request {
            Request::Join(base) => {
                let idx = s.join_unique(&base);
                let master = s.master() == Some(idx);
                let name = s.participant(idx).expect("just joined").name.clone();
                self.name = Some(name.clone());
                Ok(Reply::Welcome { name, master })
            }
            Request::Batch { commands, .. } if commands.is_empty() => {
                Err(SteerError::EmptyBatch.to_string())
            }
            Request::Batch { seq, .. } if seq <= self.last_batch => {
                Err(format!("stale batch seq {seq}"))
            }
            Request::Batch { seq, commands } => {
                self.last_batch = seq;
                match me {
                    Some(idx) => s.steer_batch(idx, &commands).map(|n| Reply::Done(n as u64)),
                    None => Err("not joined".into()),
                }
            }
            Request::Get(name) => match s.params.get_value(&name) {
                Some(value) => Ok(Reply::Value(value)),
                None => Err(format!("unknown parameter: {name}")),
            },
            Request::Pass(target) => match (me, s.index_of(&target)) {
                (Some(from), Some(to)) if s.pass_master(from, to) => Ok(Reply::Done(0)),
                _ => Err("pass refused".into()),
            },
        };
        outcome.unwrap_or_else(Reply::Refused)
    }
}

/// Client-side handle speaking the protocol.
pub struct ClientHandle {
    wire: VisitWire<TcpLink>,
    /// Server-assigned unique name.
    pub name: String,
    /// True if this client held the master token at join time.
    pub joined_as_master: bool,
    /// Monotone sequence number stamped on outgoing batches.
    next_batch_seq: u64,
}

impl ClientHandle {
    /// Connect and join with the requested name.
    pub fn connect(addr: &str, name: &str) -> Result<ClientHandle, LinkError> {
        let link = TcpLink::connect(addr, PATIENCE)?;
        let mut wire = VisitWire::steering(link, PATIENCE);
        match wire.call(&Request::Join(name.to_string())) {
            Ok(Reply::Welcome { name, master }) => Ok(ClientHandle {
                wire,
                name,
                joined_as_master: master,
                next_batch_seq: 0,
            }),
            Ok(other) => Err(LinkError::Io(format!("bad welcome: {other:?}"))),
            Err(e) => Err(LinkError::Io(e)),
        }
    }

    /// Send `request` and read its reply; `Err` carries the server's
    /// refusal or what went wrong on the wire.
    fn call(&mut self, request: &Request) -> Result<Reply, String> {
        match self.wire.call(request)? {
            Reply::Refused(why) => Err(why),
            reply => Ok(reply),
        }
    }

    /// Steer a parameter with a typed value: a one-command batch. `Err`
    /// carries the server's refusal reason.
    pub fn set_value(&mut self, param: &str, value: &ParamValue) -> Result<(), String> {
        self.set_batch(&[SteerCommand::new(param, value.clone())])
            .map(|_| ())
    }

    /// Steer an f64 parameter (shim over [`ClientHandle::set_value`]).
    pub fn set(&mut self, param: &str, value: f64) -> Result<(), String> {
        self.set_value(param, &ParamValue::F64(value))
    }

    /// Send a sequence-numbered command batch, applied atomically by the
    /// server (all-or-nothing). Returns the number of commands applied.
    pub fn set_batch(&mut self, commands: &[SteerCommand]) -> Result<usize, String> {
        if commands.is_empty() {
            return Err(SteerError::EmptyBatch.to_string());
        }
        self.next_batch_seq += 1;
        let seq = self.next_batch_seq;
        let commands = commands.to_vec();
        match self.call(&Request::Batch { seq, commands })? {
            Reply::Done(n) => usize::try_from(n).map_err(|e| e.to_string()),
            _ => Err("protocol error".into()),
        }
    }

    /// Read a parameter's typed value.
    pub fn get_value(&mut self, param: &str) -> Result<ParamValue, String> {
        match self.call(&Request::Get(param.to_string()))? {
            Reply::Value(value) => Ok(value),
            _ => Err("protocol error".into()),
        }
    }

    /// Read a parameter as f64 (shim; errors on non-numeric values).
    pub fn get(&mut self, param: &str) -> Result<f64, String> {
        self.get_value(param)?
            .as_f64()
            .ok_or_else(|| format!("{param}: non-numeric value"))
    }

    /// Pass the master token to another named client.
    pub fn pass_master(&mut self, to: &str) -> Result<(), String> {
        match self.call(&Request::Pass(to.to_string()))? {
            Reply::Done(_) => Ok(()),
            _ => Err("protocol error".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ParamRegistry, ParamSpec};
    use visit::link::FrameLink;
    use visit::{Frame, LoopLink, VisitValue};

    fn server() -> CollabServer {
        let mut reg = ParamRegistry::new();
        reg.declare(ParamSpec::f64("miscibility", 0.0, 1.0, 1.0));
        reg.declare(ParamSpec::text("tracer", "none"));
        CollabServer::start(Arc::new(Mutex::new(SteeringSession::new(reg)))).unwrap()
    }

    #[test]
    fn typed_values_and_batches_over_tcp() {
        let srv = server();
        let addr = srv.addr().to_string();
        let mut a = ClientHandle::connect(&addr, "alice").unwrap();
        // typed single set: a string parameter over the wire
        a.set_value("tracer", &ParamValue::Str("dye".into()))
            .unwrap();
        assert_eq!(
            a.get_value("tracer").unwrap(),
            ParamValue::Str("dye".into())
        );
        assert!(a.get("tracer").is_err(), "no f64 view of a string");
        // an atomic batch: second command out of bounds poisons the first
        let bad = a.set_batch(&[
            SteerCommand::f64("miscibility", 0.25),
            SteerCommand::f64("miscibility", 9.0),
        ]);
        assert!(bad.unwrap_err().contains("outside"));
        assert_eq!(a.get("miscibility").unwrap(), 1.0, "nothing applied");
        // a clean batch applies whole
        let n = a
            .set_batch(&[
                SteerCommand::f64("miscibility", 0.25),
                SteerCommand::new("tracer", ParamValue::Str("smoke".into())),
            ])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(a.get("miscibility").unwrap(), 0.25);
        // a batch beyond the envelope's item limit is refused client-side,
        // and the connection survives
        let huge: Vec<SteerCommand> = (0..=u16::MAX as usize + 1)
            .map(|_| SteerCommand::f64("miscibility", 0.5))
            .collect();
        assert!(a.set_batch(&huge).unwrap_err().contains("wire limit"));
        assert_eq!(a.get("miscibility").unwrap(), 0.25);
        // empty batches are refused like the bus's EmptyBatch
        assert_eq!(a.set_batch(&[]).unwrap_err(), "empty batch");
    }

    #[test]
    fn two_clients_master_rules_enforced_over_tcp() {
        let srv = server();
        let addr = srv.addr().to_string();
        let mut a = ClientHandle::connect(&addr, "brooke").unwrap();
        let mut b = ClientHandle::connect(&addr, "woessner").unwrap();
        assert!(a.joined_as_master);
        assert!(!b.joined_as_master);
        // master steers, viewer refused
        a.set("miscibility", 0.3).unwrap();
        assert_eq!(b.set("miscibility", 0.9).unwrap_err(), "not the master");
        assert_eq!(b.get("miscibility").unwrap(), 0.3);
        // hand over and steer from the new master
        a.pass_master(&b.name).unwrap();
        b.set("miscibility", 0.7).unwrap();
        assert_eq!(a.get("miscibility").unwrap(), 0.7);
        assert!(a.set("miscibility", 0.1).is_err());
    }

    #[test]
    fn duplicate_names_get_disambiguated() {
        let srv = server();
        let addr = srv.addr().to_string();
        let a = ClientHandle::connect(&addr, "node").unwrap();
        let b = ClientHandle::connect(&addr, "node").unwrap();
        assert_eq!(a.name, "node");
        assert_eq!(b.name, "node-1");
    }

    #[test]
    fn unknown_parameter_and_bounds_errors_propagate() {
        let srv = server();
        let addr = srv.addr().to_string();
        let mut a = ClientHandle::connect(&addr, "x").unwrap();
        assert!(a.get("ghost").is_err());
        assert!(a.set("miscibility", 4.0).unwrap_err().contains("outside"));
    }

    #[test]
    fn oversize_strings_are_refused_client_side_and_the_connection_survives() {
        let srv = server();
        let addr = srv.addr().to_string();
        let mut a = ClientHandle::connect(&addr, "alice").unwrap();
        let _b = ClientHandle::connect(&addr, "bob").unwrap();
        let long = "n".repeat(usize::from(u16::MAX) + 1);
        let refusal = "parameter name of 65536 bytes exceeds wire limit 65535";
        assert_eq!(
            a.set_value(&long, &ParamValue::F64(0.5)),
            Err(refusal.into())
        );
        assert_eq!(a.get("miscibility"), Ok(1.0));
        assert_eq!(a.get_value(&long), Err(refusal.into()));
        assert_eq!(a.get("miscibility"), Ok(1.0));
        assert_eq!(a.pass_master(&long), Err(refusal.into()));
        assert_eq!(a.get("miscibility"), Ok(1.0));
        assert!(ClientHandle::connect(&addr, &long).is_err());
        // the longest name that fits comes back whole in the refusal: a
        // VISIT text frame counts its bytes in a u32, so nothing is cut
        let fits = "n".to_string() + &"é".repeat(usize::from(u16::MAX) / 2);
        let reply = a.get_value(&fits).unwrap_err();
        assert_eq!(reply, format!("unknown parameter: {fits}"));
        assert_eq!(a.get("miscibility"), Ok(1.0));
    }

    #[test]
    fn master_disconnect_promotes_survivor() {
        let srv = server();
        let addr = srv.addr().to_string();
        let a = ClientHandle::connect(&addr, "first").unwrap();
        let mut b = ClientHandle::connect(&addr, "second").unwrap();
        assert!(b.set("miscibility", 0.5).is_err());
        drop(a); // master walks away
        promoted_within_deadline(&mut b, "survivor never promoted");
    }

    /// Steer from `b` until the server lets it, failing with `why` after 2 s.
    fn promoted_within_deadline(b: &mut ClientHandle, why: &str) {
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while b.set("miscibility", 0.5).is_err() {
            assert!(std::time::Instant::now() < deadline, "{why}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// A raw peer that joins first as "raw", so it holds the master token.
    fn raw_master(addr: &str) -> VisitWire<TcpLink> {
        let link = TcpLink::connect(addr, PATIENCE).unwrap();
        let mut raw = VisitWire::steering(link, PATIENCE);
        let welcome = raw.call(&Request::Join("raw".into()));
        let master = Reply::Welcome {
            name: "raw".into(),
            master: true,
        };
        assert_eq!(welcome, Ok(master), "the raw peer is master");
        raw
    }

    /// The frames `send` puts on a wire, each as its bytes.
    fn frames(send: impl FnOnce(&mut VisitWire<LoopLink>)) -> Vec<Vec<u8>> {
        let mut wire = VisitWire::steering(LoopLink::default(), PATIENCE);
        send(&mut wire);
        std::iter::from_fn(|| wire.link_mut().recv_timeout(Duration::ZERO).ok()).collect()
    }

    #[test]
    fn an_empty_frame_drops_its_sender_and_promotes_the_survivor() {
        let srv = server();
        let addr = srv.addr().to_string();
        let mut raw = raw_master(&addr);
        let mut b = ClientHandle::connect(&addr, "survivor").unwrap();
        assert!(b.set("miscibility", 0.5).is_err());
        // a zero-length frame; the raw link itself stays open, so only
        // the frame can end the raw peer's membership
        raw.link_mut().send(&[]).unwrap();
        let why = "the sender of an empty frame kept the master token";
        promoted_within_deadline(&mut b, why);
        drop(raw);
    }

    #[test]
    fn a_second_hello_is_refused_and_the_first_name_leaves_on_disconnect() {
        let srv = server();
        let addr = srv.addr().to_string();
        let mut raw = raw_master(&addr);
        let mut b = ClientHandle::connect(&addr, "survivor").unwrap();
        // the same connection says hello again: refused, session unchanged
        let reply = raw.call(&Request::Join("raw".into()));
        assert_eq!(reply, Ok(Reply::Refused("already joined as raw".into())));
        assert_eq!(srv.session().lock().len(), 2);
        assert!(b.set("miscibility", 0.5).is_err());
        // the master walks away; its one name leaves and the token moves
        drop(raw);
        let why = "a second hello left the first name holding the master token";
        promoted_within_deadline(&mut b, why);
    }

    #[test]
    fn a_stale_or_empty_batch_is_refused_and_the_connection_survives() {
        let srv = server();
        let mut raw = raw_master(&srv.addr().to_string());
        let batch = |seq| Request::Batch {
            seq,
            commands: vec![SteerCommand::f64("miscibility", 0.5)],
        };
        let refused = |why: &str| Ok(Reply::Refused(why.into()));
        assert_eq!(raw.call(&batch(2)), Ok(Reply::Done(1)));
        assert_eq!(raw.call(&batch(2)), refused("stale batch seq 2"));
        assert_eq!(raw.call(&batch(1)), refused("stale batch seq 1"));
        let empty = Request::Batch {
            seq: 3,
            commands: Vec::new(),
        };
        assert_eq!(raw.call(&empty), refused("empty batch"));
        assert_eq!(raw.call(&batch(3)), Ok(Reply::Done(1)));
    }

    #[test]
    fn a_negative_batch_number_is_refused_and_does_not_lock_its_sender_out() {
        let srv = server();
        let mut raw = raw_master(&srv.addr().to_string());
        let commands = vec![SteerCommand::f64("miscibility", 0.5)];
        let batch = Request::Batch { seq: 1, commands };
        // the batch's own frames, its begin frame's number rewritten to -1
        let mut sent = frames(|w| w.send_request(&batch).unwrap());
        let mut begin = Frame::decode(&sent[0]).unwrap();
        begin.value = Some(VisitValue::I64(vec![1, -1]));
        sent[0] = begin.encode();
        for frame in &sent {
            raw.link_mut().send(frame).unwrap();
        }
        let why = "malformed envelope: batch number -1";
        let refusal = frames(|w| w.send_reply(&Reply::Refused(why.into())).unwrap());
        assert_eq!(
            raw.link_mut().recv_timeout(PATIENCE),
            Ok(refusal[0].clone())
        );
        // read as u64::MAX, -1 would have made every later batch stale
        assert_eq!(raw.call(&batch), Ok(Reply::Done(1)));
        let value = srv.session().lock().params.get_value("miscibility");
        assert_eq!(value, Some(ParamValue::F64(0.5)));
    }

    #[global_allocator]
    static ALLOC: gridsteer_testkit::CountingAlloc = gridsteer_testkit::CountingAlloc;

    #[test]
    fn a_batch_count_is_bounded_by_the_bytes_behind_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut raw = TcpLink::connect(&addr, PATIENCE).unwrap();
        // a batch whose begin frame announces the envelope's limit of 256
        // commands, with only the end frame behind it
        let sent = frames(|w| {
            let commands = vec![SteerCommand::f64("miscibility", 0.5)];
            w.send_request(&Request::Batch { seq: 1, commands })
                .unwrap()
        });
        let mut begin = Frame::decode(&sent[0]).unwrap();
        begin.value = Some(VisitValue::I64(vec![256, 1]));
        let (begin, end) = (begin.encode(), sent.last().unwrap());
        raw.send(&begin).unwrap();
        raw.send(end).unwrap();
        // served on this thread, so the counters see its allocations
        let (stream, _) = listener.accept().unwrap();
        let session = Arc::new(Mutex::new(SteeringSession::new(ParamRegistry::new())));
        let stop = Arc::new(AtomicBool::new(false));
        let (got, usage) = gridsteer_testkit::measure(|| serve_client(stream, session, stop));
        assert_eq!(got, Err("expected name frame".into()));
        let bytes = begin.len() + end.len();
        assert!(
            usage.largest <= bytes * size_of::<SteerCommand>(),
            "{} bytes requested for {bytes} bytes of frames",
            usage.largest,
        );
    }

    #[test]
    fn decoder_sweep_over_the_server_frames() {
        // every frame of a batch, a join and a refusal
        let sent = frames(|w| {
            let commands = vec![
                SteerCommand::f64("miscibility", 0.25),
                SteerCommand::new("tracer", ParamValue::Str("dye".into())),
            ];
            w.send_request(&Request::Batch { seq: 7, commands })
                .unwrap();
            w.send_request(&Request::Join("brooke".into())).unwrap();
            w.send_reply(&Reply::Refused("not the master".into()))
                .unwrap();
        });
        assert_eq!(sent.len(), 8);
        let read = |b: &[u8]| Frame::decode(b).map(|f| (f, b.len())).ok_or("malformed");
        for frame in &sent {
            let refused = gridsteer_testkit::sweep_decoder(frame, read, Frame::encode);
            assert!(refused >= frame.len(), "every strict prefix is refused");
        }
    }

    /// A one-connection server that answers each frame it receives with
    /// the next of `replies`, byte for byte.
    fn scripted_server(replies: Vec<Vec<u8>>) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut link = TcpLink::new(stream).unwrap();
            for reply in replies {
                if link.recv_timeout(PATIENCE).is_err() {
                    return;
                }
                let _ = link.send(&reply);
            }
        });
        (addr, server)
    }

    #[test]
    fn empty_or_short_replies_are_errors_not_panics() {
        let welcome = |master| {
            let name = "c".to_string();
            let reply = Reply::Welcome { name, master };
            frames(|w| w.send_reply(&reply).unwrap()).remove(0)
        };
        let refusal = frames(|w| w.send_reply(&Reply::Refused("no".into())).unwrap());
        let short = welcome(true)[..visit::wire::HEADER_LEN].to_vec();
        for bad in [vec![], short, refusal[0].clone()] {
            let (addr, server) = scripted_server(vec![bad]);
            assert!(ClientHandle::connect(&addr, "c").is_err());
            server.join().unwrap();
        }
        let (addr, server) = scripted_server(vec![welcome(true), vec![], vec![], vec![], vec![]]);
        let mut c = ClientHandle::connect(&addr, "c").unwrap();
        assert_eq!((c.name.as_str(), c.joined_as_master), ("c", true));
        assert!(c.set("miscibility", 0.5).is_err());
        assert!(c
            .set_batch(&[SteerCommand::f64("miscibility", 0.5)])
            .is_err());
        assert!(c.get_value("miscibility").is_err());
        assert!(c.pass_master("other").is_err());
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn many_concurrent_clients() {
        let srv = server();
        let addr = srv.addr().to_string();
        let _master = ClientHandle::connect(&addr, "master").unwrap();
        let mut handles = Vec::new();
        for i in 0..8 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = ClientHandle::connect(&addr, &format!("viewer{i}")).unwrap();
                // all viewers read; none may steer
                assert!(c.get("miscibility").is_ok());
                assert!(c.set("miscibility", 0.1).is_err());
                c // keep the connection alive past the assertions
            }));
        }
        let clients: Vec<ClientHandle> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(srv.session().lock().len(), 9);
        drop(clients);
    }
}
