//! VizServer-style shared remote-rendering sessions.
//!
//! §2.4: "VizServer allows the output of the graphics pipes from an Onyx
//! visual supercomputer to be accessed remotely … which allows multiple
//! users to share the same login session on a remote machine", with only
//! compressed bitmaps crossing the network. [`VizServerSession`] models
//! exactly that: one render host, N attached viewers, shared control of
//! the camera ("Participating sites able to run OpenGL VizServer will be
//! able to share control of the visualization"), and each frame encoded
//! once into a [`FrameSink`] that owns fan-out to the viewers.

use crate::camera::Camera;
use crate::codec::{DeltaRleCodec, EncodedFrame};
use crate::framebuffer::Framebuffer;
use crate::mesh::TriMesh;
use crate::raster::Rasterizer;
use std::collections::BTreeSet;

/// Identifies an attached viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewerId(pub u32);

/// Where a render session publishes its encoded output: an external data
/// plane (the `gridsteer_bus` monitor hub implements this) that owns
/// fan-out, capability filtering, and delivery accounting.
pub trait FrameSink {
    /// True if the next frame must be a keyframe (e.g. a subscriber
    /// joined downstream and has no codec history).
    fn wants_keyframe(&self) -> bool {
        false
    }

    /// Accept one encoded frame.
    fn publish_frame(&mut self, frame: &EncodedFrame);
}

/// A trivial sink collecting frames into a vector (tests, local tools).
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The frames published so far, in order.
    pub frames: Vec<EncodedFrame>,
}

impl FrameSink for CollectSink {
    fn publish_frame(&mut self, frame: &EncodedFrame) {
        self.frames.push(frame.clone());
    }
}

/// Per-session traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Frames rendered.
    pub frames: u64,
    /// Encoded bytes handed to the sink.
    pub bytes_shipped: u64,
    /// Total uncompressed bytes those frames represent.
    pub bytes_raw: u64,
    /// Camera-control messages received.
    pub control_msgs: u64,
}

/// A shared remote-render session.
pub struct VizServerSession {
    width: usize,
    height: usize,
    camera: Camera,
    /// Which viewer currently holds camera control (VizServer collaborative
    /// mode shares one login session; one participant drives at a time).
    controller: Option<ViewerId>,
    viewers: BTreeSet<ViewerId>,
    /// One encode per frame regardless of downstream fan-out.
    broadcast: DeltaRleCodec,
    next_id: u32,
    stats: SessionStats,
}

impl VizServerSession {
    /// Open a session rendering at the given resolution.
    pub fn new(width: usize, height: usize, camera: Camera) -> Self {
        VizServerSession {
            width,
            height,
            camera,
            controller: None,
            viewers: BTreeSet::new(),
            broadcast: DeltaRleCodec::new(),
            next_id: 0,
            stats: SessionStats::default(),
        }
    }

    /// Attach a viewer; the first viewer gets camera control.
    pub fn attach(&mut self) -> ViewerId {
        let id = ViewerId(self.next_id);
        self.next_id += 1;
        self.viewers.insert(id);
        if self.controller.is_none() {
            self.controller = Some(id);
        }
        id
    }

    /// Detach a viewer; control passes to the lowest remaining id.
    pub fn detach(&mut self, id: ViewerId) {
        self.viewers.remove(&id);
        if self.controller == Some(id) {
            self.controller = self.viewers.first().copied();
        }
    }

    /// Current camera controller.
    pub fn controller(&self) -> Option<ViewerId> {
        self.controller
    }

    /// A viewer requests a camera change; only the controller may steer.
    /// Returns `true` if applied.
    pub fn control(&mut self, from: ViewerId, camera: Camera) -> bool {
        self.stats.control_msgs += 1;
        if self.controller == Some(from) {
            self.camera = camera;
            true
        } else {
            false
        }
    }

    /// Orbit request from a viewer (convenience wrapper over [`control`]).
    ///
    /// [`control`]: VizServerSession::control
    pub fn orbit(&mut self, from: ViewerId, yaw: f32) -> bool {
        let mut cam = self.camera;
        cam.orbit(yaw);
        self.control(from, cam)
    }

    /// Current camera.
    pub fn camera(&self) -> Camera {
        self.camera
    }

    /// Render `meshes` server-side and publish one encoded frame to an
    /// external sink — the data-plane path: the sink (e.g. a monitor hub)
    /// owns fan-out and per-subscriber state, so the session encodes each
    /// frame exactly once however many viewers are downstream.
    // detlint::allow(R9, "README crate table, crates/viz row: §2.4 VizServer; the bus's HubFrameSink tests drive it")
    pub fn render_to_sink(
        &mut self,
        meshes: &[(&TriMesh, [u8; 4])],
        sink: &mut dyn FrameSink,
    ) -> EncodedFrame {
        let mut r = Rasterizer::new(self.width, self.height);
        r.clear([10, 10, 30, 255]);
        for (mesh, color) in meshes {
            r.draw_mesh(&self.camera, mesh, *color);
        }
        let fb = r.into_framebuffer();
        self.ship_frame_to(&fb, sink)
    }

    /// Encode an externally-rendered framebuffer once and publish it to
    /// the sink. Emits a keyframe whenever the sink asks for one (a
    /// downstream subscriber with no history).
    pub fn ship_frame_to(&mut self, fb: &Framebuffer, sink: &mut dyn FrameSink) -> EncodedFrame {
        if sink.wants_keyframe() {
            self.broadcast.reset();
        }
        let frame = self.broadcast.encode(fb);
        self.stats.frames += 1;
        self.stats.bytes_shipped += frame.wire_size() as u64;
        self.stats.bytes_raw += frame.raw_size as u64;
        sink.publish_frame(&frame);
        frame
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Frame resolution.
    pub fn resolution(&self) -> (usize, usize) {
        (self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vec3;

    /// A camera looking at the unit cube.
    fn demo_camera() -> Camera {
        Camera::look_at(Vec3::new(2.5, 2.0, -3.0), Vec3::new(0.5, 0.5, 0.5))
    }

    #[test]
    fn first_viewer_controls() {
        let mut s = VizServerSession::new(32, 32, demo_camera());
        let a = s.attach();
        let b = s.attach();
        assert_eq!(s.controller(), Some(a));
        assert!(s.orbit(a, 0.1));
        assert!(!s.orbit(b, 0.1), "non-controller must be refused");
    }

    #[test]
    fn control_passes_on_detach() {
        let mut s = VizServerSession::new(32, 32, demo_camera());
        let a = s.attach();
        let b = s.attach();
        s.detach(a);
        assert_eq!(s.controller(), Some(b));
        s.detach(b);
        assert_eq!(s.controller(), None);
    }

    #[test]
    fn all_viewers_receive_identical_images() {
        // one frame per render however many viewers are attached: the
        // sink fans that one encoding out, so every viewer decodes it
        let mut s = VizServerSession::new(48, 48, demo_camera());
        let _a = s.attach();
        let _b = s.attach();
        let cube = TriMesh::unit_cube();
        let mut sink = CollectSink::default();
        let frame = s.render_to_sink(&[(&cube, [200, 50, 50, 255])], &mut sink);
        assert_eq!(sink.frames, [frame]);
        assert_eq!(
            s.stats().bytes_raw,
            48 * 48 * 4,
            "encoded once, not per viewer"
        );
    }

    #[test]
    fn late_joiner_gets_keyframe() {
        /// A sink whose downstream viewer has no codec history until a
        /// frame reaches it.
        struct Joins {
            joined: bool,
        }
        impl FrameSink for Joins {
            fn wants_keyframe(&self) -> bool {
                self.joined
            }
            fn publish_frame(&mut self, _: &EncodedFrame) {
                self.joined = false;
            }
        }
        let mut s = VizServerSession::new(32, 32, demo_camera());
        let _a = s.attach();
        let cube = TriMesh::unit_cube();
        let scene = [(&cube, [255; 4])];
        let mut sink = Joins { joined: false };
        assert!(s.render_to_sink(&scene, &mut sink).keyframe);
        assert!(!s.render_to_sink(&scene, &mut sink).keyframe);
        let _b = s.attach();
        sink.joined = true;
        assert!(
            s.render_to_sink(&scene, &mut sink).keyframe,
            "late joiner's first frame must be a keyframe"
        );
        assert!(
            !s.render_to_sink(&scene, &mut sink).keyframe,
            "and only its first"
        );
    }

    #[test]
    fn static_scene_traffic_collapses_after_first_frame() {
        let mut s = VizServerSession::new(64, 64, demo_camera());
        let _a = s.attach();
        let cube = TriMesh::unit_cube();
        let mut sink = CollectSink::default();
        let first = s.render_to_sink(&[(&cube, [200, 50, 50, 255])], &mut sink);
        let second = s.render_to_sink(&[(&cube, [200, 50, 50, 255])], &mut sink);
        assert!(second.wire_size() < first.wire_size() / 10);
    }

    #[test]
    fn sink_path_encodes_once_and_honours_keyframe_requests() {
        struct KeyframeOnce {
            asked: bool,
            frames: Vec<EncodedFrame>,
        }
        impl FrameSink for KeyframeOnce {
            fn wants_keyframe(&self) -> bool {
                self.asked
            }
            fn publish_frame(&mut self, frame: &EncodedFrame) {
                self.frames.push(frame.clone());
            }
        }
        let mut s = VizServerSession::new(48, 48, demo_camera());
        let cube = TriMesh::unit_cube();
        let mut sink = KeyframeOnce {
            asked: false,
            frames: Vec::new(),
        };
        let first = s.render_to_sink(&[(&cube, [200, 50, 50, 255])], &mut sink);
        assert!(first.keyframe, "no history ⇒ keyframe");
        let second = s.render_to_sink(&[(&cube, [200, 50, 50, 255])], &mut sink);
        assert!(!second.keyframe, "static scene ⇒ delta");
        assert!(second.wire_size() < first.wire_size() / 10);
        sink.asked = true; // a late joiner appeared downstream
        let third = s.render_to_sink(&[(&cube, [200, 50, 50, 255])], &mut sink);
        assert!(third.keyframe, "sink demanded a keyframe");
        assert_eq!(sink.frames.len(), 3);
        assert_eq!(s.stats().frames, 3);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = VizServerSession::new(16, 16, demo_camera());
        let a = s.attach();
        let _ = s.attach();
        let cube = TriMesh::unit_cube();
        let frame = s.render_to_sink(&[(&cube, [255; 4])], &mut CollectSink::default());
        s.orbit(a, 0.3);
        let st = s.stats();
        assert_eq!(st.frames, 1);
        assert_eq!(st.control_msgs, 1);
        assert_eq!(st.bytes_raw, 16 * 16 * 4);
        assert_eq!(st.bytes_shipped, frame.wire_size() as u64);
    }
}
