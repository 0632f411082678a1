//! Transport selection: one enum, two factories — the same five
//! middlewares carry steering in ([`Transport::attach`]) and monitored
//! output back out ([`Transport::attach_monitor`]).

use crate::covise::{self, CoviseEndpoint, CoviseMonitor};
use crate::endpoint::SteerEndpoint;
use crate::hub::SteerHub;
use crate::loopback::{self, LoopbackEndpoint, LoopbackMonitor};
use crate::monitor::MonitorEndpoint;
use crate::ogsa::{self, OgsaEndpoint, OgsaMonitor};
use crate::unicore::{self, UnicoreEndpoint, UnicoreMonitor};
use crate::visit::{self, VisitEndpoint, VisitMonitor};

/// Which middleware carries a participant's steering traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// In-process staging (tests, local tools).
    #[default]
    Loopback,
    /// VISIT wire frames over a frame link (§3.2).
    Visit,
    /// OGSA grid-service invocations (§2.3, Figure 2).
    Ogsa,
    /// COVISE module parameters (§4.5).
    Covise,
    /// UNICORE job consignment (§2.2, §3.1).
    Unicore,
}

impl Transport {
    /// Every transport, in display order.
    pub const ALL: [Transport; 5] = [
        Transport::Loopback,
        Transport::Visit,
        Transport::Ogsa,
        Transport::Covise,
        Transport::Unicore,
    ];

    /// Stable lowercase label (attach lines, reports).
    pub fn label(self) -> &'static str {
        match self {
            Transport::Loopback => loopback::LABEL,
            Transport::Visit => visit::LABEL,
            Transport::Ogsa => ogsa::LABEL,
            Transport::Covise => covise::LABEL,
            Transport::Unicore => unicore::LABEL,
        }
    }

    /// Attach an endpoint of this transport to `hub` for `origin`.
    pub fn attach(self, hub: &SteerHub, origin: &str) -> Box<dyn SteerEndpoint> {
        match self {
            Transport::Loopback => Box::new(LoopbackEndpoint::attach(hub, origin)),
            Transport::Visit => Box::new(VisitEndpoint::attach(hub, origin)),
            Transport::Ogsa => Box::new(OgsaEndpoint::attach(hub, origin)),
            Transport::Covise => Box::new(CoviseEndpoint::attach(hub, origin)),
            Transport::Unicore => Box::new(UnicoreEndpoint::attach(hub, origin)),
        }
    }

    /// Build a monitor (data-plane) endpoint of this transport for a
    /// subscriber named `origin` — hand it to
    /// [`MonitorHub::attach_endpoint`](crate::MonitorHub::attach_endpoint).
    pub fn attach_monitor(self, origin: &str) -> Box<dyn MonitorEndpoint> {
        match self {
            Transport::Loopback => Box::new(LoopbackMonitor::new()),
            Transport::Visit => Box::new(VisitMonitor::new()),
            Transport::Ogsa => Box::new(OgsaMonitor::new(origin)),
            Transport::Covise => Box::new(CoviseMonitor::new()),
            Transport::Unicore => Box::new(UnicoreMonitor::new(origin)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{SteerCommand, SteerError};
    use crate::endpoint::Capabilities;
    use crate::monitor::endpoint::deliver_all;
    use crate::monitor::{
        FrameBytesCell, FrameChunk, MonitorCaps, MonitorError, MonitorFrame, MonitorKind,
        MonitorPayload,
    };
    use crate::spec::ParamSpec;
    use crate::value::{ParamKind, ParamValue};

    /// The interop contract: the same f64 steer staged over every
    /// transport produces the same committed value.
    #[test]
    fn every_transport_is_observationally_equivalent() {
        for t in Transport::ALL {
            let hub = SteerHub::new(vec![ParamSpec::f64("miscibility", 0.0, 1.0, 1.0)]);
            let mut ep = t.attach(&hub, "alice");
            assert_eq!(ep.transport(), t.label());
            ep.set_batch(vec![SteerCommand::f64("miscibility", 0.125)])
                .unwrap();
            let out = hub.commit();
            assert_eq!(out.applied, 1, "{}", t.label());
            assert_eq!(
                hub.get("miscibility"),
                Some(ParamValue::F64(0.125)),
                "{}",
                t.label()
            );
        }
    }

    /// The outbound interop contract: the same published frames reach a
    /// subscriber identically over every transport that can carry them.
    #[test]
    fn every_monitor_transport_is_observationally_equivalent() {
        use crate::monitor::MonitorHub;
        let reference = {
            let hub = MonitorHub::new();
            hub.attach_endpoint(
                "v",
                Transport::Loopback.attach_monitor("v"),
                &MonitorCaps::full("viewer", 64),
            );
            hub.publish_batch(
                3,
                vec![
                    MonitorPayload::grid2("phi", 2, 2, vec![0.5, 1.5, -0.5, 2.0]),
                    MonitorPayload::grid3("rho", 1, 1, 2, vec![9.0, 8.0]),
                ],
            );
            hub.recv("v")
        };
        for t in Transport::ALL {
            let hub = MonitorHub::new();
            hub.attach_endpoint("v", t.attach_monitor("v"), &MonitorCaps::full("viewer", 64));
            hub.publish_batch(
                3,
                vec![
                    MonitorPayload::grid2("phi", 2, 2, vec![0.5, 1.5, -0.5, 2.0]),
                    MonitorPayload::grid3("rho", 1, 1, 2, vec![9.0, 8.0]),
                ],
            );
            assert_eq!(hub.recv("v"), reference, "{}", t.label());
            assert_eq!(hub.stats_of("v").unwrap().delivered, 2, "{}", t.label());
        }
    }

    // ---- the adapter conformance suite -------------------------------
    //
    // What every middleware module owes the two endpoint traits, checked
    // once over `Transport::ALL` and both planes instead of once per
    // adapter. A transport-specific property (byte order, one job per
    // batch, SDS reclaim, service faults, COVISE's narrowed kind sets)
    // stays with that middleware's own tests.

    /// A session declaring one parameter of every kind.
    fn every_kind_hub() -> SteerHub {
        SteerHub::new(vec![
            ParamSpec::f64("miscibility", 0.0, 1.0, 1.0),
            ParamSpec::i64("ranks", 1, 64, 4),
            ParamSpec::flag("paused", false),
            ParamSpec::vec3("beam_dir", -1.0, 1.0, [1.0, 0.0, 0.0]),
            ParamSpec::text("site", "london"),
        ])
    }

    /// One command per kind (awkward values: a vec3 that only survives
    /// a text hop with shortest-round-trip formatting, non-ASCII text).
    fn every_kind_commands() -> Vec<SteerCommand> {
        vec![
            SteerCommand::f64("miscibility", 0.123456789),
            SteerCommand::new("ranks", ParamValue::I64(33)),
            SteerCommand::new("paused", ParamValue::Bool(true)),
            SteerCommand::new("beam_dir", ParamValue::Vec3([0.1, -0.9, 1e-12])),
            SteerCommand::new("site", ParamValue::Str("jülich".into())),
        ]
    }

    /// One frame per kind, sequence numbers ascending.
    fn every_kind_frames() -> Vec<MonitorFrame<'static>> {
        let payloads = vec![
            MonitorPayload::scalar("demix", 0.123456789),
            MonitorPayload::vec3("centroid", [0.5, -1.5, 2.25]),
            MonitorPayload::grid2("phi_mid", 2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            MonitorPayload::grid3("phi", 2, 1, 2, vec![0.25, 0.5, 0.75, 1.0]),
            MonitorPayload::frame("viz", false, 1024, vec![9, 8, 7]),
        ];
        (1..)
            .zip(payloads)
            .map(|(seq, payload)| MonitorFrame {
                seq,
                step: 4,
                payload,
            })
            .collect()
    }

    #[test]
    fn conformance_negotiate_narrows_kinds_and_batch_size() {
        for t in Transport::ALL {
            // steering: a client without `bool` and with room for two
            let hub = every_kind_hub();
            let mut ep = t.attach(&hub, "alice");
            let mut client = Capabilities::full("client", 2);
            client.kinds.remove(&ParamKind::Bool);
            let n = ep.negotiate(&client);
            assert_eq!(n.transport, t.label());
            assert!(!n.kinds.contains(&ParamKind::Bool), "{}", t.label());
            assert!(n.kinds.contains(&ParamKind::F64), "{}", t.label());
            assert_eq!(n.max_batch, 2, "{}", t.label());
            assert!(n.subscribe, "{}", t.label());
            let err = ep.set_batch(vec![SteerCommand::new("paused", ParamValue::Bool(true))]);
            assert!(
                matches!(err, Err(SteerError::UnsupportedKind { .. })),
                "{}",
                t.label()
            );
            let err = ep.set_batch(vec![SteerCommand::f64("miscibility", 0.5); 3]);
            assert_eq!(
                err,
                Err(SteerError::TooLarge { len: 3, max: 2 }),
                "{}",
                t.label()
            );
            assert_eq!(
                ep.set_batch(Vec::new()),
                Err(SteerError::EmptyBatch),
                "{}",
                t.label()
            );
            assert_eq!(
                hub.pending(),
                0,
                "{}: a refused batch stages nothing",
                t.label()
            );

            // monitoring: a viewer without `grid2` and with room for two
            let mut ep = t.attach_monitor("v");
            let mut viewer = MonitorCaps::full("viewer", 2).every(3);
            viewer.kinds.remove(&MonitorKind::Grid2);
            let n = ep.negotiate(&viewer);
            assert_eq!(n.transport, t.label());
            assert!(!n.kinds.contains(&MonitorKind::Grid2), "{}", t.label());
            assert!(n.kinds.contains(&MonitorKind::Grid3), "{}", t.label());
            assert_eq!((n.max_batch, n.deliver_every), (2, 3), "{}", t.label());
            let frames = every_kind_frames();
            let grid2 = deliver_all(ep.as_mut(), &frames[2..3]);
            assert!(
                matches!(grid2, Err(MonitorError::UnsupportedKind { .. })),
                "{}",
                t.label()
            );
            let grid3 = [frames[3].clone(), frames[3].clone(), frames[3].clone()];
            assert_eq!(
                deliver_all(ep.as_mut(), &grid3),
                Err(MonitorError::TooLarge { len: 3, max: 2 }),
                "{}",
                t.label()
            );
            assert_eq!(deliver_all(ep.as_mut(), &[]), Err(MonitorError::EmptyBatch));
            assert!(
                ep.recv().is_empty(),
                "{}: a refused delivery lands nothing",
                t.label()
            );
        }
    }

    #[test]
    fn conformance_describe_and_get_mirror_the_hub() {
        for t in Transport::ALL {
            let hub = every_kind_hub();
            let ep = t.attach(&hub, "alice");
            let specs = ep.describe();
            assert_eq!(specs, hub.describe(), "{}", t.label());
            let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                ["beam_dir", "miscibility", "paused", "ranks", "site"]
            );
            for spec in &specs {
                assert_eq!(
                    ep.get(&spec.name),
                    Some(spec.initial.clone()),
                    "{}",
                    t.label()
                );
            }
            assert_eq!(ep.get("ghost"), None, "{}", t.label());
        }
    }

    #[test]
    fn conformance_batch_round_trips_and_lands_in_order() {
        for t in Transport::ALL {
            // steering: everything the transport carries, as one staging
            // unit, applied in the order it was sent
            let hub = every_kind_hub();
            let mut ep = t.attach(&hub, "alice");
            let carried = ep.negotiate(&Capabilities::full("client", 64)).kinds;
            let mut batch: Vec<SteerCommand> = every_kind_commands()
                .into_iter()
                .filter(|c| carried.contains(&c.value.kind()))
                .collect();
            batch.push(SteerCommand::f64("miscibility", 0.75)); // last write wins
            let sub = ep.subscribe();
            let seq = ep.set_batch(batch.clone()).unwrap();
            assert_eq!(
                hub.pending(),
                1,
                "{}: one batch, one staging unit",
                t.label()
            );
            let out = hub.commit();
            assert_eq!(out.applied, batch.len() as u64, "{}", t.label());
            assert_eq!(
                hub.get("miscibility"),
                Some(ParamValue::F64(0.75)),
                "{}",
                t.label()
            );
            assert_eq!(ep.get("ranks"), Some(ParamValue::I64(33)), "{}", t.label());
            let notices = sub.drain();
            assert_eq!(notices.len(), batch.len(), "{}", t.label());
            for (notice, cmd) in notices.iter().zip(&batch) {
                assert_eq!(
                    (notice.batch, notice.origin),
                    (seq, "alice"),
                    "{}",
                    t.label()
                );
                assert_eq!(notice.param, cmd.param, "{}", t.label());
                assert_eq!(notice.outcome, Ok(&cmd.value), "{}", t.label());
            }

            // monitoring: everything the transport carries, as a whole
            // chunk and as a non-contiguous selection of the same publish
            let mut ep = t.attach_monitor("v");
            let carried = ep.negotiate(&MonitorCaps::full("viewer", 64)).kinds;
            let frames: Vec<MonitorFrame> = every_kind_frames()
                .into_iter()
                .filter(|f| carried.contains(&f.payload.kind()))
                .collect();
            assert_eq!(
                deliver_all(ep.as_mut(), &frames),
                Ok(frames.len()),
                "{}",
                t.label()
            );
            assert_eq!(ep.recv(), frames, "{}", t.label());
            assert!(ep.recv().is_empty(), "{}: recv drains", t.label());
            let cache = vec![FrameBytesCell::new(); frames.len()];
            let picks = [frames.len() - 1, 0];
            let chunk = FrameChunk::new(&frames, &cache, &picks);
            assert_eq!(ep.deliver(&chunk), Ok(2), "{}", t.label());
            assert_eq!(
                ep.recv(),
                [frames[picks[0]].clone(), frames[0].clone()],
                "{}: a selection arrives in pick order",
                t.label()
            );
        }
    }

    #[test]
    fn conformance_refused_commit_notifies_the_subscriber() {
        for t in Transport::ALL {
            let hub = every_kind_hub();
            let mut ep = t.attach(&hub, "alice");
            let sub = ep.subscribe();
            ep.set_batch(vec![SteerCommand::f64("miscibility", 7.0)])
                .unwrap();
            let out = hub.commit();
            assert_eq!((out.applied, out.refused), (0, 1), "{}", t.label());
            let refused = sub.drain();
            assert_eq!(refused.len(), 1, "{}", t.label());
            assert!(refused.iter().all(|n| n.outcome.is_err()), "{}", t.label());
            assert_eq!(
                hub.get("miscibility"),
                Some(ParamValue::F64(1.0)),
                "{}",
                t.label()
            );
        }
    }

    /// A name the wire's `u16` length field cannot hold is refused whole
    /// and typed before any transport frames it — over UNICORE the wrapped
    /// length used to corrupt `steer.cmd` and take the valid command down
    /// with it, while the other four staged both.
    #[test]
    fn conformance_overlong_param_name_is_refused_before_the_wire() {
        let long = "x".repeat(70_000);
        for t in Transport::ALL {
            let hub = every_kind_hub();
            let mut ep = t.attach(&hub, "alice");
            let err = ep.set_batch(vec![
                SteerCommand::f64(&long, 0.5),
                SteerCommand::f64("miscibility", 0.25),
            ]);
            assert_eq!(
                err,
                Err(SteerError::NameTooLong {
                    len: 70_000,
                    max: 65_535
                }),
                "{}",
                t.label()
            );
            assert_eq!(hub.pending(), 0, "{}: nothing staged", t.label());
            // the refusal left the endpoint usable
            ep.set_batch(vec![SteerCommand::f64("miscibility", 0.25)])
                .unwrap();
            assert_eq!(hub.commit().applied, 1, "{}", t.label());
        }
    }

    #[test]
    fn conformance_close_drops_undrained_frames() {
        for t in Transport::ALL {
            let mut ep = t.attach_monitor("v");
            let grids = &every_kind_frames()[2..4];
            assert_eq!(deliver_all(ep.as_mut(), grids), Ok(2), "{}", t.label());
            ep.close();
            assert!(ep.recv().is_empty(), "{}", t.label());
        }
    }

    /// One session, several transports at once — the paper's interop
    /// claim in miniature: staging order decides, not transport identity.
    #[test]
    fn mixed_transports_share_one_session() {
        let hub = SteerHub::new(vec![ParamSpec::f64("x", 0.0, 10.0, 0.0)]);
        let mut eps: Vec<_> = Transport::ALL
            .iter()
            .enumerate()
            .map(|(i, t)| t.attach(&hub, &format!("client{i}")))
            .collect();
        for (i, ep) in eps.iter_mut().enumerate() {
            ep.set_batch(vec![SteerCommand::f64("x", i as f64)])
                .unwrap();
        }
        assert_eq!(hub.pending(), 5);
        let out = hub.commit();
        assert_eq!(out.applied, 5);
        // the last-staged endpoint (unicore) wins
        assert_eq!(hub.get("x"), Some(ParamValue::F64(4.0)));
    }
}
