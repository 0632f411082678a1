//! Collaborative sessions: parameter-sync vs pixel-stream.
//!
//! §4.5: "In a collaborative session all partners see the same screen
//! representations at the same time on their local workstation. The
//! results of the visualization as well as user interactions are displayed
//! in a synchronized way at each site." And §4.3: "such scene update rates
//! are only possible if the generation of the new content is done locally
//! and only synchronisation information such as the parameter set for the
//! cutting plane determination is exchanged."
//!
//! [`CollabSession`] holds one mirrored pipeline per site and implements
//! both synchronization strategies:
//!
//! * [`SyncMode::ParamSync`] — COVISE's way: ship the changed parameter
//!   (tens of bytes), every site recomputes locally. Traffic is
//!   independent of scene size (§4.6: "the collaboration speed does not
//!   degrade with the volume of displayed geometric data").
//! * [`SyncMode::PixelStream`] — the vnc/VizServer way: the master
//!   recomputes and ships compressed framebuffers. Traffic scales with
//!   image (and, via compression, scene) content.
//!
//! Every change reports bytes, per-site arrival skew, and a consistency
//! check — the measurements of experiments E43/EC1/F4.

use crate::broker::{HostArch, RequestBroker};
use crate::controller::{Controller, ExecError, ModuleId};
use netsim::{Link, SimTime, VClock};
use viz::codec::DeltaRleCodec;
use viz::Framebuffer;

/// How the session keeps sites consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Ship parameters; every site recomputes (COVISE).
    ParamSync,
    /// Ship rendered frames from the master (vnc/VizServer).
    PixelStream,
}

/// Outcome of one synchronized parameter change.
#[derive(Debug, Clone)]
pub struct SyncReport {
    /// Mode used.
    pub mode: SyncMode,
    /// Bytes the master sent (total over all remote sites).
    pub bytes_sent: u64,
    /// Virtual arrival time of the update at each remote site.
    pub arrivals: Vec<SimTime>,
    /// max − min arrival (the §4.2/§4.3 divergence bound — should stay
    /// within a frame).
    pub skew: SimTime,
    /// True if every site's final image equals the master's.
    pub consistent: bool,
}

/// Size of one parameter-sync message on the wire (module id + key hash +
/// value + framing).
pub const PARAM_MSG_BYTES: usize = 32;

struct Site {
    controller: Controller,
    broker: RequestBroker,
    clock: VClock,
    /// Link from the master to this site.
    from_master: Link,
    /// Decoder state for PixelStream mode.
    decoder: DeltaRleCodec,
    /// Last displayed frame.
    display: Option<Framebuffer>,
}

/// A collaborative session of mirrored pipelines.
pub struct CollabSession {
    sites: Vec<Site>,
    /// Index of the master site.
    pub master: usize,
    /// Sync strategy.
    pub mode: SyncMode,
    /// Renderer module id (same in every mirrored pipeline).
    render_id: ModuleId,
    /// Encoder state for PixelStream mode (master side).
    encoder: DeltaRleCodec,
}

impl CollabSession {
    /// Build a session of `site_names.len()` sites. `build` constructs the
    /// identical single-host pipeline for each site and returns the
    /// renderer's module id; `link_to(i)` gives the master→site link.
    pub fn new(
        site_names: &[&str],
        mode: SyncMode,
        mut build: impl FnMut(&mut Controller, usize) -> ModuleId,
        mut link_to: impl FnMut(usize) -> Link,
    ) -> CollabSession {
        let mut sites = Vec::new();
        let mut render_id = ModuleId(0);
        for (i, name) in site_names.iter().enumerate() {
            let mut broker = RequestBroker::new();
            let host = broker.add_host(name, HostArch::Little);
            let mut controller = Controller::new();
            render_id = build(&mut controller, host);
            sites.push(Site {
                controller,
                broker,
                clock: VClock::new(),
                from_master: link_to(i),
                decoder: DeltaRleCodec::new(),
                display: None,
            });
        }
        CollabSession {
            sites,
            master: 0,
            mode,
            render_id,
            encoder: DeltaRleCodec::new(),
        }
    }

    /// Move the master role ("collaborating partners … need to be able to
    /// change roles", §4.3).
    pub fn pass_master(&mut self, to: usize) -> bool {
        if to < self.sites.len() {
            self.master = to;
            // pixel-stream history is master-specific
            self.encoder.reset();
            for s in &mut self.sites {
                s.decoder.reset();
            }
            true
        } else {
            false
        }
    }

    /// The last frame displayed at a site.
    pub fn display(&self, site: usize) -> Option<&Framebuffer> {
        self.sites[site].display.as_ref()
    }

    /// Execute every site's pipeline once (initial content without any
    /// parameter change).
    pub fn warm_up(&mut self) -> Result<(), ExecError> {
        let render_id = self.render_id;
        for s in &mut self.sites {
            s.controller.execute(&mut s.broker)?;
            s.display = s.controller.image(&s.broker, render_id);
        }
        Ok(())
    }

    /// The master changes `(module, key) = value`; the session synchronizes
    /// every site according to the mode and reports the cost.
    pub fn change_param(
        &mut self,
        module: ModuleId,
        key: &str,
        value: f64,
    ) -> Result<SyncReport, ExecError> {
        match self.mode {
            SyncMode::ParamSync => self.change_param_sync(module, key, value),
            SyncMode::PixelStream => self.change_pixel_stream(module, key, value),
        }
    }

    fn change_param_sync(
        &mut self,
        module: ModuleId,
        key: &str,
        value: f64,
    ) -> Result<SyncReport, ExecError> {
        let render_id = self.render_id;
        let master = self.master;
        // master applies + recomputes
        {
            let m = &mut self.sites[master];
            m.controller.set_param(module, key, value);
            m.controller.execute(&mut m.broker)?;
            m.display = m.controller.image(&m.broker, render_id);
        }
        let depart = self.sites[master].clock.now();
        let mut arrivals = Vec::new();
        let mut bytes = 0u64;
        for i in 0..self.sites.len() {
            if i == master {
                continue;
            }
            let s = &mut self.sites[i];
            let arrival = s
                .from_master
                .deliver(depart, PARAM_MSG_BYTES)
                .unwrap_or_else(|| s.from_master.nominal_arrival(depart, PARAM_MSG_BYTES));
            bytes += PARAM_MSG_BYTES as u64;
            s.clock.merge(arrival);
            // remote site applies the tiny sync message and recomputes
            s.controller.set_param(module, key, value);
            s.controller.execute(&mut s.broker)?;
            s.display = s.controller.image(&s.broker, render_id);
            arrivals.push(arrival);
        }
        Ok(self.finish_report(SyncMode::ParamSync, bytes, arrivals))
    }

    fn change_pixel_stream(
        &mut self,
        module: ModuleId,
        key: &str,
        value: f64,
    ) -> Result<SyncReport, ExecError> {
        let render_id = self.render_id;
        let master = self.master;
        let frame = {
            let m = &mut self.sites[master];
            m.controller.set_param(module, key, value);
            m.controller.execute(&mut m.broker)?;
            let img = m
                .controller
                .image(&m.broker, render_id)
                .ok_or(ExecError::TransferFailed(render_id))?;
            m.display = Some(img.clone());
            img
        };
        let encoded = self.encoder.encode(&frame);
        let depart = self.sites[master].clock.now();
        let (w, h) = (frame.width(), frame.height());
        let mut arrivals = Vec::new();
        let mut bytes = 0u64;
        for i in 0..self.sites.len() {
            if i == master {
                continue;
            }
            let s = &mut self.sites[i];
            let size = encoded.wire_size();
            let arrival = s
                .from_master
                .deliver(depart, size)
                .unwrap_or_else(|| s.from_master.nominal_arrival(depart, size));
            bytes += size as u64;
            s.clock.merge(arrival);
            s.display = s.decoder.decode(&encoded, w, h);
            arrivals.push(arrival);
        }
        Ok(self.finish_report(SyncMode::PixelStream, bytes, arrivals))
    }

    fn finish_report(&self, mode: SyncMode, bytes_sent: u64, arrivals: Vec<SimTime>) -> SyncReport {
        let skew = match (arrivals.iter().min(), arrivals.iter().max()) {
            (Some(&lo), Some(&hi)) => hi - lo,
            _ => SimTime::ZERO,
        };
        let master_img = self.sites[self.master].display.as_ref();
        let consistent = self.sites.iter().all(|s| match (&s.display, master_img) {
            (Some(a), Some(b)) => a == b,
            (None, None) => true,
            _ => false,
        });
        SyncReport {
            mode,
            bytes_sent,
            arrivals,
            skew,
            consistent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{IsoSurface, ReadField, Renderer};
    use viz::Field3;

    fn sphere_field(n: usize, r: f32) -> Field3 {
        let c = (n as f32 - 1.0) / 2.0;
        Field3::from_fn(n, n, n, |x, y, z| {
            r - ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt()
        })
    }

    fn build_pipeline(ctl: &mut Controller, host: usize) -> ModuleId {
        let read = ctl.add_module(host, Box::new(ReadField::new(sphere_field(12, 4.0))));
        let iso = ctl.add_module(host, Box::new(IsoSurface::new()));
        let render = ctl.add_module(host, Box::new(Renderer::new(48)));
        ctl.connect(read, "field", iso, "field").unwrap();
        ctl.connect(iso, "mesh", render, "mesh").unwrap();
        render
    }

    /// Module id of the IsoSurface in the standard 3-module pipeline.
    const ISO: ModuleId = ModuleId(1);

    fn session(n: usize, mode: SyncMode) -> CollabSession {
        let names: Vec<String> = (0..n).map(|i| format!("site{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut s = CollabSession::new(&name_refs, mode, build_pipeline, |_| {
            Link::builder().latency_ms(10).bandwidth_mbit(100).build()
        });
        s.warm_up().unwrap();
        s
    }

    #[test]
    fn param_sync_keeps_sites_consistent() {
        let mut s = session(4, SyncMode::ParamSync);
        let r = s.change_param(ISO, "isovalue", 1.5).unwrap();
        assert!(r.consistent, "sites diverged under param-sync");
        assert_eq!(r.arrivals.len(), 3);
    }

    #[test]
    fn pixel_stream_keeps_sites_consistent() {
        let mut s = session(3, SyncMode::PixelStream);
        let r = s.change_param(ISO, "isovalue", 1.5).unwrap();
        assert!(r.consistent, "sites diverged under pixel-stream");
    }

    #[test]
    fn param_sync_bytes_independent_of_scene() {
        let mut s = session(3, SyncMode::ParamSync);
        let r1 = s.change_param(ISO, "isovalue", 0.5).unwrap();
        let r2 = s.change_param(ISO, "isovalue", -2.0).unwrap();
        // always exactly one 32-byte message per remote site
        assert_eq!(r1.bytes_sent, 2 * PARAM_MSG_BYTES as u64);
        assert_eq!(r2.bytes_sent, r1.bytes_sent);
    }

    #[test]
    fn pixel_stream_ships_more_bytes_than_param_sync() {
        let mut ps = session(3, SyncMode::ParamSync);
        let mut px = session(3, SyncMode::PixelStream);
        let a = ps.change_param(ISO, "isovalue", 1.0).unwrap();
        let b = px.change_param(ISO, "isovalue", 1.0).unwrap();
        assert!(
            b.bytes_sent > a.bytes_sent * 4,
            "pixel {} vs param {}",
            b.bytes_sent,
            a.bytes_sent
        );
    }

    #[test]
    fn skew_bounded_by_link_jitter() {
        let names = ["a", "b", "c", "d"];
        let mut s = CollabSession::new(&names, SyncMode::ParamSync, build_pipeline, |i| {
            Link::builder()
                .latency_ms(5 + 5 * i as u64) // heterogeneous sites
                .build()
        });
        s.warm_up().unwrap();
        let r = s.change_param(ISO, "isovalue", 0.7).unwrap();
        // arrivals spread over the latency spread: 10..15ms after depart
        assert!(r.skew >= SimTime::from_millis(9));
        assert!(r.skew <= SimTime::from_millis(12));
    }

    #[test]
    fn master_handoff_still_consistent() {
        let mut s = session(3, SyncMode::PixelStream);
        s.change_param(ISO, "isovalue", 1.0).unwrap();
        assert!(s.pass_master(2));
        let r = s.change_param(ISO, "isovalue", 2.0).unwrap();
        assert!(r.consistent, "handoff broke consistency");
        assert!(!s.pass_master(99));
    }

    #[test]
    fn displays_update_on_change() {
        let mut s = session(2, SyncMode::ParamSync);
        let before = s.display(1).unwrap().clone();
        s.change_param(ISO, "isovalue", 3.0).unwrap();
        let after = s.display(1).unwrap();
        assert!(before.diff_fraction(after) > 0.0);
    }
}
