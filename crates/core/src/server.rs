//! The multi-client TCP steering server.
//!
//! This is the "steering client … integrated into the collaborative
//! environment" path made concrete: one process owns the
//! [`SteeringSession`]; any number of client processes connect over TCP
//! (loopback in the examples, but the protocol is location-transparent),
//! join with a name, and steer subject to the master-token rules. The
//! wire format is a tiny hand-rolled binary protocol over the
//! length-prefixed [`visit::TcpLink`] framing. Values travel in
//! the bus's tagged typed encoding ([`ParamValue::encode_bytes`]), and
//! `OP_BATCH` carries a sequence-numbered command batch applied
//! atomically under one session lock (stale sequence numbers are
//! refused), so TCP clients speak the same typed, batched surface as the
//! in-process `gridsteer_bus` endpoints. The server keeps its own op
//! stream rather than being a bus endpoint over [`visit::TcpLink`] because
//! hello/welcome and pass-master are session operations the bus envelope
//! (a command batch staged for the next commit) has no frame for.

use crate::params::ParamValue;
use crate::session::SteeringSession;
use bytes::{Buf, BufMut, BytesMut};
use gridsteer_bus::{SteerCommand, SteerError};
use parking_lot::Mutex;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use visit::link::{FrameLink, LinkError, TcpLink};

/// Protocol ops.
const OP_HELLO: u8 = 4;
const OP_SET: u8 = 1;
const OP_GET: u8 = 2;
const OP_PASS: u8 = 3;
const OP_OK: u8 = 6;
const OP_ERR: u8 = 7;
const OP_VALUE: u8 = 8;
const OP_WELCOME: u8 = 9;
const OP_BATCH: u8 = 10;

/// Write a `u16`-length-prefixed string, refusing one the prefix cannot
/// hold before any of it is written.
fn put_str(buf: &mut BytesMut, s: &str) -> Result<(), String> {
    let len = u16::try_from(s.len()).map_err(|_| {
        let (len, max) = (s.len(), usize::from(u16::MAX));
        SteerError::NameTooLong { len, max }.to_string()
    })?;
    buf.put_u16_le(len);
    buf.put_slice(s.as_bytes());
    Ok(())
}

/// A server reply's text: whatever [`put_str`] would refuse is cut at the
/// last char boundary the prefix can hold (an error text may quote a
/// client's 65,535-byte name back at it).
fn put_text(buf: &mut BytesMut, s: &str) {
    let mut end = s.len().min(usize::from(u16::MAX));
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    put_str(buf, &s[..end]).expect("cut to fit the prefix");
}

fn get_str(buf: &mut &[u8]) -> Option<String> {
    if buf.len() < 2 {
        return None;
    }
    let len = buf.get_u16_le() as usize;
    if buf.len() < len {
        return None;
    }
    let s = String::from_utf8(buf[..len].to_vec()).ok()?;
    buf.advance(len);
    Some(s)
}

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

/// One client connection's server-side loop.
fn serve_client(
    stream: TcpStream,
    session: Arc<Mutex<SteeringSession>>,
    stop: Arc<AtomicBool>,
) -> Result<(), LinkError> {
    let mut link = TcpLink::new(stream).map_err(|e| LinkError::Io(e.to_string()))?;
    let mut my_name: Option<String> = None;
    // highest batch sequence number seen on this connection
    let mut last_batch_seq: u64 = 0;
    let result = loop {
        if stop.load(Ordering::Relaxed) {
            break Ok(());
        }
        let frame = match link.recv_timeout(Duration::from_millis(100)) {
            Ok(f) => f,
            Err(LinkError::Timeout) => continue,
            Err(e) => break Err(e),
        };
        // the length prefix is the peer's: a zero-length frame carries no
        // op and drops the connection like any other malformed frame
        let Some((&op, mut body)) = frame.split_first() else {
            break Err(LinkError::Io("empty frame".into()));
        };
        let mut reply = BytesMut::new();
        match op {
            OP_HELLO => {
                let Some(base) = get_str(&mut body) else {
                    break Err(LinkError::Io("bad hello".into()));
                };
                let mut s = session.lock();
                // names must be unique: disambiguate with a counter
                let mut name = base.clone();
                let mut k = 1;
                while s.index_of(&name).is_some() {
                    name = format!("{base}-{k}");
                    k += 1;
                }
                let idx = s.join(&name);
                let is_master = s.master() == Some(idx);
                my_name = Some(name.clone());
                reply.put_u8(OP_WELCOME);
                reply.put_u8(u8::from(is_master));
                put_text(&mut reply, &name);
            }
            OP_SET => {
                let (Some(name), Some(value)) =
                    (get_str(&mut body), ParamValue::decode_bytes(&mut body))
                else {
                    break Err(LinkError::Io("bad set".into()));
                };
                if !body.is_empty() {
                    break Err(LinkError::Io("bad set trailer".into()));
                }
                let who = my_name.clone().unwrap_or_default();
                let mut s = session.lock();
                let r = match s.index_of(&who) {
                    Some(idx) => s.steer_value(idx, &name, &value).map(|_| ()),
                    None => Err("not joined".into()),
                };
                match r {
                    Ok(()) => reply.put_u8(OP_OK),
                    Err(e) => {
                        reply.put_u8(OP_ERR);
                        put_text(&mut reply, &e);
                    }
                }
            }
            OP_BATCH => {
                // u64 client sequence + u16 count + (name, value)*
                if body.len() < 10 {
                    break Err(LinkError::Io("bad batch header".into()));
                }
                let seq = body.get_u64_le();
                let count = body.get_u16_le() as usize;
                let mut commands = Vec::with_capacity(count);
                let mut ok = true;
                for _ in 0..count {
                    match SteerCommand::decode_bytes(&mut body) {
                        Some(cmd) => commands.push(cmd),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok || !body.is_empty() {
                    break Err(LinkError::Io("bad batch".into()));
                }
                if count == 0 {
                    // match the bus's EmptyBatch semantics
                    reply.put_u8(OP_ERR);
                    put_text(&mut reply, "empty batch");
                } else if seq <= last_batch_seq {
                    reply.put_u8(OP_ERR);
                    put_text(&mut reply, &format!("stale batch seq {seq}"));
                } else {
                    last_batch_seq = seq;
                    let who = my_name.clone().unwrap_or_default();
                    let mut s = session.lock();
                    let r = match s.index_of(&who) {
                        Some(idx) => s.steer_batch(idx, &commands),
                        None => Err("not joined".into()),
                    };
                    match r {
                        Ok(n) => {
                            reply.put_u8(OP_OK);
                            reply.put_u16_le(n as u16);
                        }
                        Err(e) => {
                            reply.put_u8(OP_ERR);
                            put_text(&mut reply, &e);
                        }
                    }
                }
            }
            OP_GET => {
                let Some(name) = get_str(&mut body) else {
                    break Err(LinkError::Io("bad get".into()));
                };
                let s = session.lock();
                match s.params.get_value(&name) {
                    Some(v) => {
                        reply.put_u8(OP_VALUE);
                        v.encode_bytes(&mut reply);
                    }
                    None => {
                        reply.put_u8(OP_ERR);
                        put_text(&mut reply, &format!("unknown parameter: {name}"));
                    }
                }
            }
            OP_PASS => {
                let Some(target) = get_str(&mut body) else {
                    break Err(LinkError::Io("bad pass".into()));
                };
                let who = my_name.clone().unwrap_or_default();
                let mut s = session.lock();
                let ok = match (s.index_of(&who), s.index_of(&target)) {
                    (Some(from), Some(to)) => s.pass_master(from, to),
                    _ => false,
                };
                if ok {
                    reply.put_u8(OP_OK);
                } else {
                    reply.put_u8(OP_ERR);
                    put_text(&mut reply, "pass refused");
                }
            }
            _ => break Err(LinkError::Io("unknown op".into())),
        }
        if link.send(&reply).is_err() {
            break Ok(());
        }
    };
    // departure: remove from the session (auto-promotes a new master)
    if let Some(name) = my_name {
        let mut s = session.lock();
        if let Some(idx) = s.index_of(&name) {
            s.leave(idx);
        }
    }
    result
}

/// Client-side handle speaking the protocol.
pub struct ClientHandle {
    link: TcpLink,
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
        let mut req = BytesMut::new();
        req.put_u8(OP_HELLO);
        put_str(&mut req, name).map_err(LinkError::Io)?;
        let mut link = TcpLink::connect(addr, Duration::from_secs(2))?;
        link.send(&req)?;
        let reply = link.recv_timeout(Duration::from_secs(2))?;
        // the length prefix is the server's: an empty or short welcome is
        // an error, never a read past the end
        let Some((&OP_WELCOME, [master, body @ ..])) = reply.split_first() else {
            return Err(LinkError::Io("bad welcome".into()));
        };
        let is_master = *master != 0;
        let assigned = get_str(&mut { body }).ok_or(LinkError::Io("bad welcome name".into()))?;
        Ok(ClientHandle {
            link,
            name: assigned,
            joined_as_master: is_master,
            next_batch_seq: 0,
        })
    }

    fn roundtrip(&mut self, req: BytesMut) -> Result<Vec<u8>, LinkError> {
        self.link.send(&req)?;
        self.link.recv_timeout(Duration::from_secs(2))
    }

    /// Steer a parameter with a typed value. `Err` carries the server's
    /// refusal reason.
    pub fn set_value(&mut self, param: &str, value: &ParamValue) -> Result<(), String> {
        let mut req = BytesMut::new();
        req.put_u8(OP_SET);
        put_str(&mut req, param)?;
        value.encode_bytes(&mut req);
        let reply = self.roundtrip(req).map_err(|e| format!("{e:?}"))?;
        match reply.split_first() {
            Some((&OP_OK, _)) => Ok(()),
            Some((&OP_ERR, mut body)) => Err(get_str(&mut body).unwrap_or_default()),
            _ => Err("protocol error".into()),
        }
    }

    /// Steer an f64 parameter (shim over [`ClientHandle::set_value`]).
    pub fn set(&mut self, param: &str, value: f64) -> Result<(), String> {
        self.set_value(param, &ParamValue::F64(value))
    }

    /// Send a sequence-numbered command batch, applied atomically by the
    /// server (all-or-nothing). Returns the number of commands applied.
    pub fn set_batch(&mut self, commands: &[SteerCommand]) -> Result<usize, String> {
        if commands.is_empty() {
            return Err("empty batch".into());
        }
        let count = u16::try_from(commands.len())
            .map_err(|_| format!("batch of {} exceeds wire limit 65535", commands.len()))?;
        self.next_batch_seq += 1;
        let mut req = BytesMut::new();
        req.put_u8(OP_BATCH);
        req.put_u64_le(self.next_batch_seq);
        req.put_u16_le(count);
        for cmd in commands {
            cmd.encode_bytes(&mut req).map_err(|e| e.to_string())?;
        }
        let reply = self.roundtrip(req).map_err(|e| format!("{e:?}"))?;
        match reply.split_first() {
            Some((&OP_OK, &[lo, hi])) => Ok(usize::from(u16::from_le_bytes([lo, hi]))),
            Some((&OP_ERR, mut body)) => Err(get_str(&mut body).unwrap_or_default()),
            _ => Err("protocol error".into()),
        }
    }

    /// Read a parameter's typed value.
    pub fn get_value(&mut self, param: &str) -> Result<ParamValue, String> {
        let mut req = BytesMut::new();
        req.put_u8(OP_GET);
        put_str(&mut req, param)?;
        let reply = self.roundtrip(req).map_err(|e| format!("{e:?}"))?;
        match reply.split_first() {
            Some((&OP_VALUE, mut body)) => {
                ParamValue::decode_bytes(&mut body).ok_or("bad value".into())
            }
            Some((&OP_ERR, mut body)) => Err(get_str(&mut body).unwrap_or_default()),
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
        let mut req = BytesMut::new();
        req.put_u8(OP_PASS);
        put_str(&mut req, to)?;
        let reply = self.roundtrip(req).map_err(|e| format!("{e:?}"))?;
        match reply.split_first() {
            Some((&OP_OK, _)) => Ok(()),
            Some((&OP_ERR, mut body)) => Err(get_str(&mut body).unwrap_or_default()),
            _ => Err("protocol error".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ParamRegistry, ParamSpec};

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
        // a batch beyond the u16 wire count is refused client-side, and
        // the connection survives
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
        // the server's error text quotes the longest name that fits after
        // a 19-byte prefix: cut below the limit at a char boundary, not
        // wrapped to 18 bytes
        let fits = "n".to_string() + &"é".repeat(usize::from(u16::MAX) / 2);
        let reply = a.get_value(&fits).unwrap_err();
        assert!(reply.starts_with("unknown parameter: néé"));
        assert_eq!(reply.len(), usize::from(u16::MAX) - 1);
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
                 // wait for the server to notice the disconnect
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            if b.set("miscibility", 0.5).is_ok() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "survivor never promoted"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn an_empty_frame_drops_its_sender_and_promotes_the_survivor() {
        let srv = server();
        let addr = srv.addr().to_string();
        // a raw peer joins first, so it holds the master token
        let mut raw = TcpLink::connect(&addr, Duration::from_secs(2)).unwrap();
        let mut hello = BytesMut::new();
        hello.put_u8(OP_HELLO);
        put_str(&mut hello, "raw").unwrap();
        raw.send(&hello).unwrap();
        let welcome = raw.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(welcome[..2], [OP_WELCOME, 1], "the raw peer is master");
        let mut b = ClientHandle::connect(&addr, "survivor").unwrap();
        assert!(b.set("miscibility", 0.5).is_err());
        // a zero-length frame; the raw link itself stays open, so only
        // the frame can end the raw peer's membership
        raw.send(&[]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while b.set("miscibility", 0.5).is_err() {
            assert!(
                std::time::Instant::now() < deadline,
                "the sender of an empty frame kept the master token"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(raw);
    }

    /// A one-connection server that answers each request with the next of
    /// `replies`, byte for byte.
    fn scripted_server(replies: Vec<Vec<u8>>) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut link = TcpLink::new(stream).unwrap();
            for reply in replies {
                if link.recv_timeout(Duration::from_secs(2)).is_err() {
                    return;
                }
                let _ = link.send(&reply);
            }
        });
        (addr, server)
    }

    #[test]
    fn empty_or_short_replies_are_errors_not_panics() {
        for welcome in [vec![], vec![OP_WELCOME]] {
            let (addr, server) = scripted_server(vec![welcome]);
            assert!(ClientHandle::connect(&addr, "c").is_err());
            server.join().unwrap();
        }
        let welcome = vec![OP_WELCOME, 1, 1, 0, b'c'];
        let (addr, server) = scripted_server(vec![welcome, vec![], vec![], vec![], vec![]]);
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
