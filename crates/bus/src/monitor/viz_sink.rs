//! The vizserver → monitor-hub bridge.
//!
//! §2.4's remote-rendering path ("only compressed bitmaps need to be sent
//! to the participating sites") runs over the typed data plane through
//! [`HubFrameSink`]: a [`viz::VizServerSession`] encodes each frame
//! *once* through its broadcast codec and publishes it as a
//! [`MonitorPayload::Frame`], and the [`MonitorHub`] owns fan-out — every
//! subscriber gets the frame over its own middleware, with the hub's
//! capability filtering and decimation applying to rendered frames exactly
//! as they do to field slices and scalar series. Late joiners are handled
//! end to end: a new hub subscriber raises the keyframe request the sink
//! relays to the session's codec.

use crate::monitor::frame::MonitorPayload;
use crate::monitor::hub::MonitorHub;
use viz::{EncodedFrame, FrameSink};

/// A [`FrameSink`] publishing encoded frames into a [`MonitorHub`].
pub struct HubFrameSink<'a> {
    hub: &'a MonitorHub,
    /// Channel name the frames are published under.
    channel: &'a str,
    /// Simulation step stamped onto published frames.
    step: u64,
}

impl<'a> HubFrameSink<'a> {
    /// A sink publishing to `hub` under `channel`, stamping `step`.
    pub fn new(hub: &'a MonitorHub, channel: &'a str, step: u64) -> HubFrameSink<'a> {
        HubFrameSink { hub, channel, step }
    }
}

impl FrameSink for HubFrameSink<'_> {
    fn wants_keyframe(&self) -> bool {
        self.hub.take_keyframe_request(self.channel)
    }

    fn publish_frame(&mut self, frame: &EncodedFrame) {
        self.hub.publish(
            self.step,
            MonitorPayload::frame(
                self.channel,
                frame.keyframe,
                frame.raw_size as u32,
                frame.payload.clone(),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackMonitor;
    use crate::monitor::endpoint::MonitorCaps;
    use crate::monitor::frame::MonitorKind;
    use crate::visit::VisitMonitor;
    use viz::{Camera, DeltaRleCodec, TriMesh, Vec3, VizServerSession};

    /// Render the session's scene once and publish it into `hub` under
    /// `viz`, stamped `step`.
    fn render(
        session: &mut VizServerSession,
        meshes: &[(&TriMesh, [u8; 4])],
        hub: &MonitorHub,
        step: u64,
    ) -> EncodedFrame {
        session.render_to_sink(meshes, &mut HubFrameSink::new(hub, "viz", step))
    }

    /// A camera looking at the unit cube.
    fn demo_camera() -> Camera {
        Camera::look_at(Vec3::new(2.5, 2.0, -3.0), Vec3::new(0.5, 0.5, 0.5))
    }

    /// One triangle of the unit cube's front face.
    fn triangle() -> TriMesh {
        let mut m = TriMesh::new();
        let v = Vec3::new;
        m.push_tri(v(0., 0., 0.), v(0., 1., 0.), v(1., 1., 0.), v(0., 0., -1.));
        m
    }

    #[test]
    fn rendered_frames_reach_subscribers_and_late_joiners_get_keyframes() {
        let hub = MonitorHub::new();
        hub.attach_endpoint(
            "early",
            Box::new(LoopbackMonitor::new()),
            &MonitorCaps::full("viewer", 64),
        );
        let mut session = VizServerSession::new(48, 48, demo_camera());
        let cube = triangle();
        render(&mut session, &[(&cube, [200, 50, 50, 255])], &hub, 1);
        render(&mut session, &[(&cube, [200, 50, 50, 255])], &hub, 2);
        // a late joiner attaches mid-stream over a *different* middleware
        hub.attach_endpoint(
            "late",
            Box::new(VisitMonitor::new()),
            &MonitorCaps::full("viewer", 64),
        );
        render(&mut session, &[(&cube, [200, 50, 50, 255])], &hub, 3);
        let early = hub.recv("early");
        assert_eq!(early.len(), 3);
        let late = hub.recv("late");
        assert_eq!(late.len(), 1);
        match &late[0].payload {
            MonitorPayload::Frame { keyframe, .. } => {
                assert!(keyframe, "late joiner's first frame must be a keyframe")
            }
            other => panic!("expected frame payload, got {other:?}"),
        }
        assert_eq!(late[0].step, 3);
    }

    #[test]
    fn hub_published_frames_decode_to_the_rendered_image() {
        let hub = MonitorHub::new();
        hub.attach_endpoint(
            "v",
            Box::new(LoopbackMonitor::new()),
            &MonitorCaps::full("viewer", 64),
        );
        let mut session = VizServerSession::new(32, 32, demo_camera());
        let cube = triangle();
        let published = render(&mut session, &[(&cube, [90, 90, 220, 255])], &hub, 1);
        let got = hub.recv("v");
        assert_eq!(got.len(), 1);
        let MonitorPayload::Frame {
            keyframe,
            raw_size,
            data,
            ..
        } = &got[0].payload
        else {
            panic!("expected frame payload");
        };
        let wire = EncodedFrame {
            keyframe: *keyframe,
            payload: data.to_vec(),
            raw_size: *raw_size as usize,
        };
        let mut dec = DeltaRleCodec::new();
        let img = dec.decode(&wire, 32, 32).expect("decodes");
        let mut dec2 = DeltaRleCodec::new();
        assert_eq!(img, dec2.decode(&published, 32, 32).unwrap());
    }

    #[test]
    fn frame_kind_is_filtered_for_grid_only_subscribers() {
        let hub = MonitorHub::new();
        let mut caps = MonitorCaps::full("viewer", 64);
        caps.kinds.retain(|k| *k == MonitorKind::Grid3);
        hub.attach_endpoint("grids", Box::new(LoopbackMonitor::new()), &caps);
        let mut session = VizServerSession::new(16, 16, demo_camera());
        render(&mut session, &[], &hub, 1);
        assert!(hub.recv("grids").is_empty());
        assert_eq!(hub.stats_of("grids").unwrap().filtered, 1);
    }
}
