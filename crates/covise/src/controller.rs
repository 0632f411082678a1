//! The central controller.
//!
//! §4.5: "Session management for adding new hosts and synchronizing the
//! tasks in the module network is done in a central controller which has
//! the only knowledge about the whole application topology." The
//! [`Controller`] owns the module network (modules placed on broker
//! hosts, port-to-port connections), fires modules in dependency order,
//! routes cross-host objects through the [`RequestBroker`], and reports
//! transfer bytes and virtual finish time per execution — the measurements
//! behind experiments E42/E43.

use crate::broker::RequestBroker;
use crate::data::{DataObject, Payload};
use crate::module::Module;
use netsim::SimTime;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a module within a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub usize);

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The port graph has a cycle.
    Cycle,
    /// An input port has no incoming connection.
    UnconnectedInput(ModuleId, &'static str),
    /// A module faulted.
    ModuleFailed(ModuleId, String),
    /// A cross-host transfer failed.
    TransferFailed(ModuleId),
    /// Bad module id or port name in a connection.
    BadConnection,
}

/// One port-to-port connection.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Wire {
    from: ModuleId,
    out_port: usize,
    to: ModuleId,
    in_port: usize,
}

/// Per-execution report.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Bytes moved between hosts.
    pub bytes_transferred: u64,
    /// Latest virtual arrival time across all hosts after execution.
    pub virtual_finish: SimTime,
}

struct Placement {
    host: usize,
    module: Box<dyn Module>,
    /// Names of the outputs of the last firing, by port index.
    last_outputs: Vec<String>,
}

/// The module-network controller.
pub struct Controller {
    modules: Vec<Placement>,
    wires: Vec<Wire>,
}

impl Default for Controller {
    fn default() -> Self {
        Self::new()
    }
}

impl Controller {
    /// Empty network.
    pub fn new() -> Self {
        Controller {
            modules: Vec::new(),
            wires: Vec::new(),
        }
    }

    /// Place a module on a broker host; returns its id.
    pub fn add_module(&mut self, host: usize, module: Box<dyn Module>) -> ModuleId {
        self.modules.push(Placement {
            host,
            module,
            last_outputs: Vec::new(),
        });
        ModuleId(self.modules.len() - 1)
    }

    /// Connect `from.out_port` to `to.in_port` (port names).
    pub fn connect(
        &mut self,
        from: ModuleId,
        out_port: &str,
        to: ModuleId,
        in_port: &str,
    ) -> Result<(), ExecError> {
        let op = self
            .modules
            .get(from.0)
            .and_then(|p| p.module.outputs().iter().position(|&n| n == out_port))
            .ok_or(ExecError::BadConnection)?;
        let ip = self
            .modules
            .get(to.0)
            .and_then(|p| p.module.inputs().iter().position(|&n| n == in_port))
            .ok_or(ExecError::BadConnection)?;
        self.wires.push(Wire {
            from,
            out_port: op,
            to,
            in_port: ip,
        });
        Ok(())
    }

    /// Set a module parameter (the steering path of §4.3). Returns `false`
    /// if the module does not know the parameter.
    pub fn set_param(&mut self, id: ModuleId, key: &str, value: f64) -> bool {
        self.modules
            .get_mut(id.0)
            .map(|p| p.module.set_param(key, value))
            .unwrap_or(false)
    }

    /// Read a module parameter.
    pub fn param(&self, id: ModuleId, key: &str) -> Option<f64> {
        self.modules.get(id.0).and_then(|p| p.module.param(key))
    }

    /// Direct access to a module (e.g. to feed a new field into ReadField).
    pub fn module_mut(&mut self, id: ModuleId) -> &mut dyn Module {
        &mut *self.modules[id.0].module
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True if the network has no modules.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Dependency-ordered firing sequence (Kahn; ready modules fire in id
    /// order for determinism).
    fn firing_order(&self) -> Result<Vec<ModuleId>, ExecError> {
        let n = self.modules.len();
        let mut indeg = vec![0usize; n];
        let mut dependents: HashMap<usize, Vec<usize>> = HashMap::new();
        for w in &self.wires {
            indeg[w.to.0] += 1;
            dependents.entry(w.from.0).or_default().push(w.to.0);
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        ready.sort_unstable();
        let mut order = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::from(ready);
        while let Some(i) = queue.pop_front() {
            order.push(ModuleId(i));
            if let Some(deps) = dependents.get(&i) {
                let mut newly: Vec<usize> = Vec::new();
                for &d in deps {
                    indeg[d] -= 1;
                    if indeg[d] == 0 {
                        newly.push(d);
                    }
                }
                newly.sort_unstable();
                queue.extend(newly);
            }
        }
        if order.len() != n {
            return Err(ExecError::Cycle);
        }
        Ok(order)
    }

    /// Execute the whole network: fire every module in dependency order,
    /// routing cross-host inputs through the broker.
    pub fn execute(&mut self, broker: &mut RequestBroker) -> Result<ExecReport, ExecError> {
        let order = self.firing_order()?;
        let mut report = ExecReport::default();
        let bytes0 = broker.stats().bytes;
        for id in order {
            // gather inputs
            let n_inputs = self.modules[id.0].module.inputs().len();
            let my_host = self.modules[id.0].host;
            let mut inputs: Vec<Option<Arc<DataObject>>> = vec![None; n_inputs];
            let incoming: Vec<Wire> = self.wires.iter().filter(|w| w.to == id).cloned().collect();
            for w in &incoming {
                let src = &self.modules[w.from.0];
                let obj_name = src
                    .last_outputs
                    .get(w.out_port)
                    .cloned()
                    .ok_or(ExecError::TransferFailed(id))?;
                let src_host = src.host;
                if src_host != my_host {
                    broker
                        .transfer(&obj_name, src_host, my_host)
                        .ok_or(ExecError::TransferFailed(id))?;
                }
                let obj = broker
                    .host(my_host)
                    .sds
                    .get(&obj_name)
                    .ok_or(ExecError::TransferFailed(id))?;
                inputs[w.in_port] = Some(obj);
            }
            let gathered: Vec<Arc<DataObject>> = inputs
                .into_iter()
                .enumerate()
                .map(|(port, o)| {
                    o.ok_or(ExecError::UnconnectedInput(
                        id,
                        self.modules[id.0].module.inputs()[port],
                    ))
                })
                .collect::<Result<_, _>>()?;
            // fire
            let outputs = self.modules[id.0]
                .module
                .execute(&gathered)
                .map_err(|e| ExecError::ModuleFailed(id, e))?;
            // publish outputs into this host's SDS
            let mut names = Vec::with_capacity(outputs.len());
            for o in outputs {
                names.push(o.name.clone());
                broker.host_mut(my_host).sds.put(o);
            }
            self.modules[id.0].last_outputs = names;
        }
        report.bytes_transferred = broker.stats().bytes - bytes0;
        report.virtual_finish = (0..broker.host_count())
            .map(|h| broker.host(h).clock.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        Ok(report)
    }

    /// Fetch the object produced on `(module, port)` in the last
    /// execution, from that module's host.
    pub fn output(
        &self,
        broker: &RequestBroker,
        id: ModuleId,
        port: &str,
    ) -> Option<Arc<DataObject>> {
        let p = self.modules.get(id.0)?;
        let idx = p.module.outputs().iter().position(|&n| n == port)?;
        let name = p.last_outputs.get(idx)?;
        broker.host(p.host).sds.get(name)
    }

    /// Convenience: the image produced by a Renderer module.
    pub fn image(&self, broker: &RequestBroker, id: ModuleId) -> Option<viz::Framebuffer> {
        match &self.output(broker, id, "image")?.payload {
            Payload::Image(fb) => Some(fb.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::HostArch;
    use crate::module::{CutPlane, IsoSurface, ReadField, Renderer};
    use netsim::Link;
    use viz::Field3;

    fn sphere_field(n: usize, r: f32) -> Field3 {
        let c = (n as f32 - 1.0) / 2.0;
        Field3::from_fn(n, n, n, |x, y, z| {
            r - ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt()
        })
    }

    /// The paper's Figure-1 pipeline split across two hosts: simulation
    /// host produces the field, visualization host isosurfaces + renders.
    fn two_host_pipeline() -> (Controller, RequestBroker, ModuleId, ModuleId) {
        let mut rb = RequestBroker::new();
        let compute = rb.add_host("dirac.ucl", HostArch::Big);
        let vis = rb.add_host("bezier.man", HostArch::Big);
        rb.connect(compute, vis, Link::uk_janet());
        let mut ctl = Controller::new();
        let read = ctl.add_module(compute, Box::new(ReadField::new(sphere_field(16, 5.0))));
        let iso = ctl.add_module(vis, Box::new(IsoSurface::new()));
        let render = ctl.add_module(vis, Box::new(Renderer::new(64)));
        ctl.connect(read, "field", iso, "field").unwrap();
        ctl.connect(iso, "mesh", render, "mesh").unwrap();
        (ctl, rb, read, render)
    }

    #[test]
    fn pipeline_executes_end_to_end() {
        let (mut ctl, mut rb, _read, render) = two_host_pipeline();
        let report = ctl.execute(&mut rb).unwrap();
        assert!(report.bytes_transferred >= 16 * 16 * 16 * 4);
        assert!(report.virtual_finish > SimTime::from_millis(5));
        let img = ctl.image(&rb, render).unwrap();
        assert_eq!(img.width(), 64);
    }

    #[test]
    fn param_change_changes_output() {
        let (mut ctl, mut rb, _read, render) = two_host_pipeline();
        ctl.execute(&mut rb).unwrap();
        let img_a = ctl.image(&rb, render).unwrap();
        assert!(ctl.set_param(render, "yaw", 1.0));
        ctl.execute(&mut rb).unwrap();
        let img_b = ctl.image(&rb, render).unwrap();
        assert!(img_a.diff_fraction(&img_b) > 0.0);
    }

    #[test]
    fn cycle_detected() {
        let mut rb = RequestBroker::new();
        let h = rb.add_host("x", HostArch::Little);
        let mut ctl = Controller::new();
        let a = ctl.add_module(h, Box::new(IsoSurface::new()));
        let b = ctl.add_module(h, Box::new(Renderer::new(32)));
        // nonsense wiring creating a cycle via port positions
        ctl.wires.push(Wire {
            from: a,
            out_port: 0,
            to: b,
            in_port: 0,
        });
        ctl.wires.push(Wire {
            from: b,
            out_port: 0,
            to: a,
            in_port: 0,
        });
        assert_eq!(ctl.execute(&mut rb).unwrap_err(), ExecError::Cycle);
    }

    #[test]
    fn unconnected_input_detected() {
        let mut rb = RequestBroker::new();
        let h = rb.add_host("x", HostArch::Little);
        let mut ctl = Controller::new();
        let iso = ctl.add_module(h, Box::new(IsoSurface::new()));
        let err = ctl.execute(&mut rb).unwrap_err();
        assert_eq!(err, ExecError::UnconnectedInput(iso, "field"));
    }

    #[test]
    fn bad_connection_rejected() {
        let mut rb = RequestBroker::new();
        let h = rb.add_host("x", HostArch::Little);
        let mut ctl = Controller::new();
        let read = ctl.add_module(h, Box::new(ReadField::new(Field3::zeros(4, 4, 4))));
        let iso = ctl.add_module(h, Box::new(IsoSurface::new()));
        assert_eq!(
            ctl.connect(read, "nonexistent", iso, "field"),
            Err(ExecError::BadConnection)
        );
        assert_eq!(
            ctl.connect(read, "field", iso, "nonexistent"),
            Err(ExecError::BadConnection)
        );
    }

    #[test]
    fn single_host_pipeline_transfers_nothing() {
        let mut rb = RequestBroker::new();
        let h = rb.add_host("solo", HostArch::Little);
        let mut ctl = Controller::new();
        let read = ctl.add_module(h, Box::new(ReadField::new(sphere_field(12, 4.0))));
        let iso = ctl.add_module(h, Box::new(IsoSurface::new()));
        ctl.connect(read, "field", iso, "field").unwrap();
        let report = ctl.execute(&mut rb).unwrap();
        assert_eq!(report.bytes_transferred, 0);
    }

    #[test]
    fn cutplane_in_network() {
        let mut rb = RequestBroker::new();
        let h = rb.add_host("solo", HostArch::Little);
        let mut ctl = Controller::new();
        let f = Field3::from_fn(8, 8, 8, |_, _, z| z as f32);
        let read = ctl.add_module(h, Box::new(ReadField::new(f)));
        let cut = ctl.add_module(h, Box::new(CutPlane::new()));
        ctl.connect(read, "field", cut, "field").unwrap();
        ctl.set_param(cut, "z_fraction", 1.0);
        ctl.execute(&mut rb).unwrap();
        let out = ctl.output(&rb, cut, "slice").unwrap();
        let Payload::Slice { values, .. } = &out.payload else {
            panic!()
        };
        assert!(values.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn repeated_execution_updates_with_new_samples() {
        let (mut ctl, mut rb, read, render) = two_host_pipeline();
        ctl.execute(&mut rb).unwrap();
        let img_a = ctl.image(&rb, render).unwrap();
        // new sample from the simulation: bigger sphere
        let rf = ctl.module_mut(read);
        // downcast via trait object dance: rebuild instead
        let _ = rf;
        let mut ctl2 = Controller::new();
        let mut rb2 = RequestBroker::new();
        let compute = rb2.add_host("c", HostArch::Big);
        let vis = rb2.add_host("v", HostArch::Big);
        rb2.connect(compute, vis, Link::uk_janet());
        let read2 = ctl2.add_module(compute, Box::new(ReadField::new(sphere_field(16, 2.0))));
        let iso2 = ctl2.add_module(vis, Box::new(IsoSurface::new()));
        let render2 = ctl2.add_module(vis, Box::new(Renderer::new(64)));
        ctl2.connect(read2, "field", iso2, "field").unwrap();
        ctl2.connect(iso2, "mesh", render2, "mesh").unwrap();
        ctl2.execute(&mut rb2).unwrap();
        let img_b = ctl2.image(&rb2, render2).unwrap();
        assert!(img_a.diff_fraction(&img_b) > 0.0);
    }
}
