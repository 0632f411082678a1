//! The in-process loopback — the reference middleware, both planes.
//!
//! No wire, no codec: steering batches stage directly into the hub, and
//! delivered monitor frames land directly in the viewer-side inbox. Every
//! other middleware module must be observationally equivalent to this one
//! (same staged commands for the same requested batch, same received
//! frames for the same delivered chunk); the conformance suite in
//! [`transport`](crate::transport) and the proptests in this crate pin
//! that equivalence.

use crate::command::{SteerCommand, SteerError};
use crate::endpoint::{check_batch, steer_endpoint_common, Capabilities, SteerEndpoint};
use crate::hub::SteerHub;
use crate::monitor::endpoint::{
    check_delivery, monitor_endpoint_common, FrameChunk, MonitorCaps, MonitorEndpoint, MonitorError,
};
use crate::monitor::frame::MonitorFrame;

/// The transport label on both planes.
pub const LABEL: &str = "loopback";

/// Direct in-process attachment to a [`SteerHub`].
pub struct LoopbackEndpoint {
    hub: SteerHub,
    origin: String,
    caps: Capabilities,
}

impl LoopbackEndpoint {
    /// Attach to a hub as `origin`.
    pub fn attach(hub: &SteerHub, origin: &str) -> LoopbackEndpoint {
        LoopbackEndpoint {
            hub: hub.clone(),
            origin: origin.to_string(),
            caps: Capabilities::full(LABEL, 1024),
        }
    }
}

impl SteerEndpoint for LoopbackEndpoint {
    steer_endpoint_common!(hub_get);

    fn set_batch(&mut self, commands: Vec<SteerCommand>) -> Result<u64, SteerError> {
        check_batch(&self.caps, &commands)?;
        self.hub.stage(&self.origin, LABEL, commands)
    }
}

/// Direct in-process frame delivery.
pub struct LoopbackMonitor {
    caps: MonitorCaps,
    inbox: Vec<MonitorFrame<'static>>,
}

impl LoopbackMonitor {
    /// A fresh loopback endpoint.
    pub fn new() -> LoopbackMonitor {
        LoopbackMonitor {
            caps: MonitorCaps::full(LABEL, 1024),
            inbox: Vec::new(),
        }
    }
}

impl Default for LoopbackMonitor {
    fn default() -> Self {
        LoopbackMonitor::new()
    }
}

impl MonitorEndpoint for LoopbackMonitor {
    monitor_endpoint_common!(inbox);

    fn deliver(&mut self, chunk: &FrameChunk<'_>) -> Result<usize, MonitorError> {
        check_delivery(&self.caps, chunk)?;
        self.inbox
            .extend(chunk.iter().map(|f| f.clone().into_owned()));
        Ok(chunk.len())
    }

    fn close(&mut self) {
        // the reference honours the same contract as the real wires: a
        // departed viewer's undrained frames go with it
        self.inbox.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ParamSpec;
    use crate::value::{ParamKind, ParamValue};

    fn hub() -> SteerHub {
        SteerHub::new(vec![
            ParamSpec::f64("miscibility", 0.0, 1.0, 1.0),
            ParamSpec::text("label", "start"),
        ])
    }

    #[test]
    fn stage_commit_subscribe_roundtrip() {
        let h = hub();
        let mut ep = LoopbackEndpoint::attach(&h, "alice");
        let sub = ep.subscribe();
        ep.set_batch(vec![
            SteerCommand::f64("miscibility", 0.2),
            SteerCommand::new("label", ParamValue::Str("demix".into())),
        ])
        .unwrap();
        h.commit();
        assert_eq!(ep.get("miscibility"), Some(ParamValue::F64(0.2)));
        assert_eq!(ep.get("label"), Some(ParamValue::Str("demix".into())));
        assert_eq!(sub.drain().len(), 2);
    }

    #[test]
    fn negotiation_narrows_accepted_kinds() {
        let h = hub();
        let mut ep = LoopbackEndpoint::attach(&h, "alice");
        let mut client = Capabilities::full("client", 8);
        client.kinds.remove(&ParamKind::Str);
        let negotiated = ep.negotiate(&client);
        assert!(!negotiated.kinds.contains(&ParamKind::Str));
        assert_eq!((negotiated.transport, negotiated.max_batch), (LABEL, 8));
        let err = ep
            .set_batch(vec![SteerCommand::new(
                "label",
                ParamValue::Str("x".into()),
            )])
            .unwrap_err();
        assert!(matches!(err, SteerError::UnsupportedKind { .. }));
        assert_eq!(h.pending(), 0);
    }

    #[test]
    fn describe_mirrors_hub_specs() {
        let h = hub();
        let ep = LoopbackEndpoint::attach(&h, "a");
        let specs = ep.describe();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "label"); // BTreeMap name order
        assert_eq!(specs[1].name, "miscibility");
    }

    #[test]
    fn refused_commit_notifies_subscriber() {
        let h = hub();
        let mut ep = LoopbackEndpoint::attach(&h, "a");
        let sub = ep.subscribe();
        ep.set_batch(vec![SteerCommand::f64("miscibility", 7.0)])
            .unwrap();
        h.commit();
        assert!(sub.drain().iter().next().unwrap().outcome.is_err());
    }
}
