//! The COVISE middleware, both planes: commands travel as module-parameter
//! changes, frames as shared data objects that fire the viewer's module
//! network.
//!
//! This is the transport where capability negotiation does real work, in
//! both directions.
//!
//! **Steering.** COVISE modules expose scalar `f64` parameters (§4.5's
//! map-editor surface), so the steering capability set carries
//! `f64`/`i64`/`bool` (all representable as module parameters) and
//! *excludes* `vec3` and `str` — a client that negotiates first discovers
//! this and routes such commands over another endpoint of the same
//! session. The commands themselves pass through a genuine
//! [`covise::Module`] implementation ([`SteerParamsModule`]), which re-types
//! each scalar against the hub's declared spec before staging — the COVISE
//! side never invents a kind the session didn't declare.
//!
//! **Monitoring.** COVISE's data plane is object-based — "scientific data
//! is handled as data objects … they represent grids on which dependent
//! data is defined" (§4.5) — so the monitor capability set carries only
//! [`MonitorKind::Grid2`] and [`MonitorKind::Grid3`] (the shapes a COVISE
//! module network consumes) and *excludes* scalars, vectors, and encoded
//! framebuffer frames. A hub that negotiates first discovers this and
//! never offers such frames to a COVISE viewer — they are counted as
//! filtered, exactly like a scalar steer was re-routed in the inbound
//! direction. Delivered grids become genuine [`covise::DataObject`]s
//! ([`Payload::Slice`] for 2-D, [`Payload::Field`] for 3-D) placed in a
//! real [`SharedDataSpace`]; the viewer side reads them back zero-copy
//! and reconstructs the typed frames. Floats are never re-derived, so
//! NaN-filled grids survive the object hop bit-exactly.
//!
//! Crucially, each *delivery event* also does what COVISE actually does
//! when new data lands: the viewer's module pipeline (a [`ReadField`] fed
//! the freshest grid, wired into a [`CutPlane`]) executes once through
//! the real [`Controller`] — §4.3's post-processing loop. That per-event
//! pipeline firing is why batched delivery wins on this transport: one
//! scene refresh per step-boundary batch instead of one per sample.

use crate::command::{SteerCommand, SteerError};
use crate::endpoint::{check_batch, steer_endpoint_common, Capabilities, SteerEndpoint};
use crate::hub::SteerHub;
use crate::monitor::endpoint::{
    check_delivery, monitor_endpoint_common, FrameChunk, MonitorCaps, MonitorEndpoint, MonitorError,
};
use crate::monitor::frame::{MonitorFrame, MonitorKind, MonitorPayload};
use crate::value::{ParamKind, ParamValue};
use covise::broker::HostArch;
use covise::{
    Controller, CutPlane, DataObject, Module, ModuleId, Payload, ReadField, RequestBroker,
    SharedDataSpace,
};
use std::sync::Arc;
use viz::Field3;

/// The transport label on both planes.
pub const LABEL: &str = "covise";

/// The parameter-sink module: every accepted `set_param` becomes one
/// staged typed command.
pub struct SteerParamsModule {
    hub: SteerHub,
    staged: Vec<SteerCommand>,
}

impl SteerParamsModule {
    pub(crate) fn new(hub: &SteerHub) -> SteerParamsModule {
        SteerParamsModule {
            hub: hub.clone(),
            staged: Vec::new(),
        }
    }

    /// Re-type a scalar module parameter against the declared spec (one
    /// rule, shared with the f64 shims: [`ParamValue::from_scalar`]).
    fn retype(&self, key: &str, value: f64) -> Option<ParamValue> {
        let spec = self.hub.registry().spec(key)?;
        ParamValue::from_scalar(spec.kind, value)
    }
}

impl Module for SteerParamsModule {
    fn name(&self) -> &str {
        "SteerParams"
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[]
    }

    fn outputs(&self) -> &'static [&'static str] {
        &[]
    }

    fn set_param(&mut self, key: &str, value: f64) -> bool {
        match self.retype(key, value) {
            Some(v) => {
                self.staged.push(SteerCommand::new(key, v));
                true
            }
            None => false,
        }
    }

    fn param(&self, key: &str) -> Option<f64> {
        self.hub.get(key).and_then(|v| v.as_f64())
    }

    fn execute(&mut self, _inputs: &[Arc<DataObject>]) -> Result<Vec<DataObject>, String> {
        // a pure parameter sink: no ports, nothing to produce
        Ok(Vec::new())
    }
}

/// Steering through a COVISE module network.
pub struct CoviseEndpoint {
    hub: SteerHub,
    origin: String,
    caps: Capabilities,
    module: SteerParamsModule,
}

impl CoviseEndpoint {
    /// Attach to a hub as `origin`.
    pub fn attach(hub: &SteerHub, origin: &str) -> CoviseEndpoint {
        let mut caps = Capabilities::full(LABEL, 32);
        caps.kinds.remove(&ParamKind::Vec3);
        caps.kinds.remove(&ParamKind::Str);
        CoviseEndpoint {
            hub: hub.clone(),
            origin: origin.to_string(),
            caps,
            module: SteerParamsModule::new(hub),
        }
    }
}

impl SteerEndpoint for CoviseEndpoint {
    steer_endpoint_common!(hub_get);

    fn set_batch(&mut self, commands: Vec<SteerCommand>) -> Result<u64, SteerError> {
        check_batch(&self.caps, &commands)?;
        for cmd in &commands {
            let scalar = cmd
                .value
                .as_f64()
                .ok_or_else(|| SteerError::UnsupportedKind {
                    param: cmd.param.clone(),
                    kind: cmd.value.kind().name(),
                })?;
            if !Module::set_param(&mut self.module, &cmd.param, scalar) {
                // atomic batch: the module refused one change, so none of
                // the batch may stage
                self.module.staged.clear();
                return Err(SteerError::Transport(format!(
                    "covise module refused {}={scalar}",
                    cmd.param
                )));
            }
        }
        let staged = std::mem::take(&mut self.module.staged);
        self.hub.stage(&self.origin, LABEL, staged)
    }
}

/// Monitoring through a COVISE shared data space + module network.
pub struct CoviseMonitor {
    caps: MonitorCaps,
    pub(crate) sds: SharedDataSpace,
    /// Zero-copy handles to the delivered objects, in delivery order
    /// (the SDS itself keys by its system-wide unique names, which carry
    /// no ordering guarantee).
    pending: Vec<Arc<DataObject>>,
    /// The viewer pipeline, refreshed once per delivery event.
    broker: RequestBroker,
    controller: Controller,
    read_field: ModuleId,
    executions: u64,
}

impl CoviseMonitor {
    /// A fresh endpoint over its own shared data space, with a
    /// ReadField → CutPlane viewer pipeline on one host.
    pub fn new() -> CoviseMonitor {
        let mut caps = MonitorCaps::full(LABEL, 32);
        caps.kinds
            .retain(|k| matches!(k, MonitorKind::Grid2 | MonitorKind::Grid3));
        let mut broker = RequestBroker::new();
        let host = broker.add_host("viewer", HostArch::Little);
        let mut controller = Controller::new();
        let read_field =
            controller.add_module(host, Box::new(ReadField::new(Field3::zeros(2, 2, 2))));
        let cut = controller.add_module(host, Box::new(CutPlane::new()));
        controller
            .connect(read_field, "field", cut, "field")
            .expect("static pipeline wires");
        CoviseMonitor {
            caps,
            sds: SharedDataSpace::new(),
            pending: Vec::new(),
            broker,
            controller,
            read_field,
            executions: 0,
        }
    }

    /// Module-network executions so far (one per delivery event).
    pub fn pipeline_executions(&self) -> u64 {
        self.executions
    }

    /// Convert one admissible frame into an attributed data object. The
    /// 2-D height rides as an attribute so even degenerate shapes
    /// (`nx == 0`) reconstruct exactly — the loopback-equivalence
    /// contract admits no silently-dropped frames.
    fn to_object(frame: &MonitorFrame) -> Option<DataObject> {
        let name = frame.payload.name();
        let obj = match &frame.payload {
            MonitorPayload::Grid2 { nx, ny, data, .. } => {
                let slice = Payload::Slice {
                    values: data.to_vec(),
                    width: *nx as usize,
                };
                DataObject::new(name, slice).with_attr("ny", &ny.to_string())
            }
            MonitorPayload::Grid3 {
                nx, ny, nz, data, ..
            } => {
                let dims = (*nx as usize, *ny as usize, *nz as usize);
                let field = Field3::from_vec(dims.0, dims.1, dims.2, data.to_vec());
                DataObject::new(name, Payload::Field(field))
            }
            _ => return None,
        };
        Some(
            obj.with_attr("channel", name)
                .with_attr("seq", &frame.seq.to_string())
                .with_attr("step", &frame.step.to_string()),
        )
    }

    /// Reconstruct the typed frame from an SDS object.
    fn from_object(obj: &DataObject) -> Option<MonitorFrame<'static>> {
        let channel = obj.attributes.get("channel")?;
        let seq = obj.attributes.get("seq")?.parse().ok()?;
        let step = obj.attributes.get("step")?.parse().ok()?;
        let payload = match &obj.payload {
            Payload::Slice { values, width } => {
                let nx = u32::try_from(*width).ok()?;
                let ny: u32 = obj.attributes.get("ny")?.parse().ok()?;
                if values.len() != nx as usize * ny as usize {
                    return None;
                }
                MonitorPayload::Grid2 {
                    name: channel.clone().into(),
                    nx,
                    ny,
                    data: values.clone().into(),
                }
            }
            Payload::Field(field) => {
                let (nx, ny, nz) = field.dims();
                MonitorPayload::Grid3 {
                    name: channel.clone().into(),
                    nx: nx as u32,
                    ny: ny as u32,
                    nz: nz as u32,
                    data: field.data().to_vec().into(),
                }
            }
            _ => return None,
        };
        Some(MonitorFrame { seq, step, payload })
    }

    /// The freshest delivered grid as a pipeline-feedable field (`None`
    /// for degenerate empty grids — nothing to render).
    fn as_field(frame: &MonitorFrame) -> Option<Field3> {
        let (nx, ny, nz, data) = match &frame.payload {
            MonitorPayload::Grid2 { nx, ny, data, .. } => (*nx, *ny, 1, data),
            MonitorPayload::Grid3 {
                nx, ny, nz, data, ..
            } => (*nx, *ny, *nz, data),
            _ => return None,
        };
        (!data.is_empty())
            .then(|| Field3::from_vec(nx as usize, ny as usize, nz as usize, data.to_vec()))
    }
}

impl Default for CoviseMonitor {
    fn default() -> Self {
        CoviseMonitor::new()
    }
}

impl MonitorEndpoint for CoviseMonitor {
    monitor_endpoint_common!();

    fn deliver(&mut self, chunk: &FrameChunk<'_>) -> Result<usize, MonitorError> {
        check_delivery(&self.caps, chunk)?;
        // the freshest grid is copied out for the pipeline before the
        // objects are built: the two orders behave alike, but loopbench's
        // ckpt_recover peak RSS follows the order of these grid-sized
        // allocations (CHANGES.md, PR 14)
        let freshest = chunk.iter().last().and_then(Self::as_field);
        for frame in chunk.iter() {
            let obj = Self::to_object(frame).ok_or_else(|| MonitorError::UnsupportedKind {
                channel: frame.payload.name().to_string(),
                kind: frame.payload.kind().name(),
            })?;
            self.pending.push(self.sds.put(obj));
        }
        // the §4.3 loop: new data arrived, so the viewer's module network
        // refreshes the scene — once per delivery event, however many
        // objects the event carried (this is what batching amortizes)
        if let Some(field) = freshest {
            self.controller
                .module_mut(self.read_field)
                .feed_field(field);
        }
        self.controller
            .execute(&mut self.broker)
            .map_err(|e| MonitorError::Transport(format!("pipeline refresh failed: {e:?}")))?;
        self.executions += 1;
        Ok(chunk.len())
    }

    fn recv(&mut self) -> Vec<MonitorFrame<'static>> {
        let mut out = Vec::with_capacity(self.pending.len());
        out.extend(self.pending.iter().filter_map(|obj| Self::from_object(obj)));
        // every delivered object was consumed: end of its SDS lifetime
        self.pending.clear();
        self.sds = SharedDataSpace::new();
        out
    }

    fn close(&mut self) {
        // reclaim the shared data space: objects delivered to a departed
        // viewer must not outlive it, drained or not
        self.pending.clear();
        self.sds = SharedDataSpace::new();
    }
}
