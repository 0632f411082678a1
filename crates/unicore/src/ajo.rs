//! Abstract Job Objects.
//!
//! §2.2: "The workflows being instantiated are known in UNICORE as Abstract
//! Job Objects (AJOs) and are sent via ssl as serialised Java objects."
//! An [`Ajo`] is a named task DAG destined for one Vsite; tasks cover
//! execution, file staging, cross-Vsite transfer, and — for the steering
//! extension — starting a VISIT proxy next to the job. The NJS *incarnates*
//! the abstract tasks into target-system scripts (see [`crate::njs`]).
//!
//! # Wire layout
//!
//! [`Ajo::to_bytes`] / [`Ajo::read_from`] are the consignment hop's object
//! stream: binary, length-prefixed, every integer little-endian. `len` and
//! `count` are `u32`; `text` is `len` + that many UTF-8 bytes.
//!
//! | field    | encoding                                                  |
//! |----------|-----------------------------------------------------------|
//! | magic    | `b"AJO"`                                                  |
//! | version  | `u8`, [`WIRE_VERSION`]                                    |
//! | name     | text                                                      |
//! | vsite    | text                                                      |
//! | tasks    | count, then per task:                                     |
//! | · id     | `u32`                                                     |
//! | · after  | count + that many `u32` ids                               |
//! | · tag    | `u8`: 0 `Execute`, 1 `StageIn`, 2 `StageOut`, 3 `TransferToVsite`, 4 `StartVisitProxy` |
//! | · body   | `Execute`: command text, args count + texts · `StageIn`: path text, data `len` + bytes · `StageOut`: path text · `TransferToVsite`: path text, vsite text · `StartVisitProxy`: service text |
//!
//! Nothing follows the last task. The decoder checks every length and
//! count against the bytes that remain *before* allocating for it, so a
//! hostile header costs nothing; what it returns is structurally an
//! [`Ajo`], whose DAG [`Ajo::topo_order`] still has to accept.

use serde::{Deserialize, Serialize};

/// One abstract task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Task {
    /// Run a registered application on the target system.
    Execute {
        /// Application name looked up in the TSI's application registry.
        command: String,
        /// Arguments.
        args: Vec<String>,
    },
    /// Materialize a file in the job's working directory before execution.
    StageIn {
        /// Path within the job directory.
        path: String,
        /// File contents.
        data: Vec<u8>,
    },
    /// Spool a produced file back to the client after execution.
    StageOut {
        /// Path within the job directory.
        path: String,
    },
    /// Transfer a produced file to another Vsite's job directory — the
    /// "grid middleware is responsible for the transfer of data between
    /// components" of the RealityGrid scenario (§2.1), e.g. samples moving
    /// from the compute Vsite to the visualization Vsite.
    TransferToVsite {
        /// Source path in this job's directory.
        path: String,
        /// Destination Vsite name.
        vsite: String,
    },
    /// Start a VISIT proxy-server next to the job (the steering extension,
    /// §3.3). `service` names the steering endpoint.
    StartVisitProxy {
        /// Steering service name published to the client plugin.
        service: String,
    },
}

/// A task plus its DAG position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AjoTask {
    /// Task id, unique within the AJO.
    pub id: u32,
    /// The abstract task.
    pub task: Task,
    /// Ids of tasks that must complete first.
    pub after: Vec<u32>,
}

/// Validation errors for an AJO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AjoError {
    /// Two tasks share an id.
    DuplicateId(u32),
    /// A dependency references a missing id.
    UnknownDependency { task: u32, missing: u32 },
    /// The dependency graph has a cycle.
    Cycle,
    /// The AJO has no tasks.
    Empty,
    /// The bytes are not an AJO encoding: what was wrong with them.
    Malformed(&'static str),
    /// A text, file or list too long for the encoding's `u32` length fields.
    Oversize,
}

/// An Abstract Job Object: a named task DAG for one Vsite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ajo {
    /// Human-readable job name.
    pub name: String,
    /// Destination virtual site.
    pub vsite: String,
    /// Task DAG.
    pub tasks: Vec<AjoTask>,
}

impl Ajo {
    /// New empty AJO for a Vsite.
    pub fn new(name: &str, vsite: &str) -> Self {
        Ajo {
            name: name.to_string(),
            vsite: vsite.to_string(),
            tasks: Vec::new(),
        }
    }

    /// Append a task depending on `after`, returning its id.
    pub fn add_task(&mut self, task: Task, after: &[u32]) -> u32 {
        let id = self.tasks.iter().map(|t| t.id + 1).max().unwrap_or(0);
        self.tasks.push(AjoTask {
            id,
            task,
            after: after.to_vec(),
        });
        id
    }

    /// Validate and produce a topological execution order (stable: ready
    /// tasks run in id order, so incarnation is deterministic).
    pub fn topo_order(&self) -> Result<Vec<u32>, AjoError> {
        if self.tasks.is_empty() {
            return Err(AjoError::Empty);
        }
        let id = |at: u32| self.tasks[at as usize].id;
        // task positions in id order (stable, so equal ids stay in task
        // order); a task's rank in it is its index everywhere below
        let mut by_id: Vec<u32> = (0..self.tasks.len() as u32).collect();
        by_id.sort_by_key(|&at| id(at));
        // the first repeat in task order is the earliest second member of
        // a run of equal ids
        let repeat = by_id.windows(2).filter(|w| id(w[0]) == id(w[1]));
        if let Some(at) = repeat.map(|w| w[1]).min() {
            return Err(AjoError::DuplicateId(id(at)));
        }
        let rank = |task: u32| by_id.binary_search_by_key(&task, |&at| id(at)).ok();
        // (dependency, dependent) by rank, in task order then `after`
        // order; the stable sort below keeps that order per dependency
        let mut indegree = vec![0u32; by_id.len()];
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for t in &self.tasks {
            let to = rank(t.id).expect("every task has a rank") as u32;
            for &d in &t.after {
                let from = rank(d).ok_or(AjoError::UnknownDependency {
                    task: t.id,
                    missing: d,
                })?;
                indegree[to as usize] += 1;
                edges.push((from as u32, to));
            }
        }
        edges.sort_by_key(|&(from, _)| from);
        // Kahn's algorithm over one queue of ranks: it starts with the
        // ready tasks in id order, and each run of newly ready ones is
        // sorted as it is appended
        let mut queue: Vec<u32> = (0..by_id.len() as u32)
            .filter(|&r| indegree[r as usize] == 0)
            .collect();
        let mut head = 0;
        while let Some(&r) = queue.get(head) {
            head += 1;
            let newly = queue.len();
            let first = edges.partition_point(|&(from, _)| from < r);
            for &(_, to) in edges[first..].iter().take_while(|&&(from, _)| from == r) {
                indegree[to as usize] -= 1;
                if indegree[to as usize] == 0 {
                    queue.push(to);
                }
            }
            queue[newly..].sort_unstable();
        }
        if queue.len() != self.tasks.len() {
            return Err(AjoError::Cycle);
        }
        // the queue holds every rank in run order: name them
        queue.iter_mut().for_each(|r| *r = id(by_id[*r as usize]));
        Ok(queue)
    }

    /// Task lookup by id.
    pub fn task(&self, id: u32) -> Option<&AjoTask> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Serialize for consignment (the "serialised Java objects" analog;
    /// layout in the module docs).
    pub fn to_bytes(&self) -> Result<Vec<u8>, AjoError> {
        let mut out = Vec::new();
        self.write_into(&mut out)?;
        Ok(out)
    }

    /// [`to_bytes`](Ajo::to_bytes) into `out`, replacing what it held, so
    /// a consigner reuses one buffer job after job. The output is reserved
    /// once, from the sizes the fields already know.
    pub fn write_into(&self, out: &mut Vec<u8>) -> Result<(), AjoError> {
        let tasks: usize = self
            .tasks
            .iter()
            .map(|t| 4 + 4 + 4 * t.after.len() + t.task.wire_len())
            .sum();
        let size =
            MAGIC.len() + 1 + field_len(self.name.len()) + field_len(self.vsite.len()) + 4 + tasks;
        out.clear();
        out.reserve(size);
        out.extend_from_slice(MAGIC);
        out.push(WIRE_VERSION);
        put_bytes(out, self.name.as_bytes())?;
        put_bytes(out, self.vsite.as_bytes())?;
        put_len(out, self.tasks.len())?;
        for t in &self.tasks {
            out.extend_from_slice(&t.id.to_le_bytes());
            put_len(out, t.after.len())?;
            for dep in &t.after {
                out.extend_from_slice(&dep.to_le_bytes());
            }
            t.task.encode(out)?;
        }
        debug_assert_eq!(out.len(), size);
        Ok(())
    }

    /// Deserialize into this AJO, strictly: truncation, trailing bytes, a
    /// foreign magic or version, an unknown task tag, non-UTF-8 text and
    /// any length or count the remaining bytes cannot hold are all
    /// [`AjoError::Malformed`], found before anything is allocated for
    /// them. The DAG is not validated here — see [`Ajo::topo_order`].
    /// Reuses the texts, files and lists it holds wherever a decoded task
    /// is of the kind already in its place — a consignee reading one job
    /// shape over and over allocates nothing once warm. After a refusal
    /// the contents are unspecified.
    pub fn read_from(&mut self, data: &[u8]) -> Result<(), AjoError> {
        let mut r = Reader { buf: data };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(AjoError::Malformed("bad magic"));
        }
        if r.u8()? != WIRE_VERSION {
            return Err(AjoError::Malformed("unsupported version"));
        }
        r.text_into(&mut self.name)?;
        r.text_into(&mut self.vsite)?;
        let placeholder = || AjoTask {
            id: 0,
            task: Task::StageOut {
                path: String::new(),
            },
            after: Vec::new(),
        };
        r.list_into(MIN_TASK_BYTES, &mut self.tasks, placeholder, |r, t| {
            t.id = r.u32()?;
            r.list_into(
                4,
                &mut t.after,
                || 0,
                |r, dep| {
                    *dep = r.u32()?;
                    Ok(())
                },
            )?;
            t.task.read_from(r)
        })?;
        if !r.buf.is_empty() {
            return Err(AjoError::Malformed("trailing bytes"));
        }
        Ok(())
    }

    /// The standard steered-simulation job shape the AJO and NJS tests
    /// consign — stage in a config, start a VISIT proxy, run the
    /// simulation, spool results.
    #[cfg(test)]
    pub(crate) fn steered_simulation(
        name: &str,
        vsite: &str,
        command: &str,
        args: &[&str],
        config: &[u8],
    ) -> Ajo {
        let mut ajo = Ajo::new(name, vsite);
        let stage = ajo.add_task(
            Task::StageIn {
                path: "input.cfg".into(),
                data: config.to_vec(),
            },
            &[],
        );
        let proxy = ajo.add_task(
            Task::StartVisitProxy {
                service: format!("{name}-steer"),
            },
            &[],
        );
        let run = ajo.add_task(
            Task::Execute {
                command: command.to_string(),
                args: args.iter().map(|s| s.to_string()).collect(),
            },
            &[stage, proxy],
        );
        ajo.add_task(
            Task::StageOut {
                path: "output.dat".into(),
            },
            &[run],
        );
        ajo
    }
}

/// Version byte of the wire encoding (see the module's layout table).
pub const WIRE_VERSION: u8 = 1;

const MAGIC: &[u8; 3] = b"AJO";

const TAG_EXECUTE: u8 = 0;
const TAG_STAGE_IN: u8 = 1;
const TAG_STAGE_OUT: u8 = 2;
const TAG_TRANSFER: u8 = 3;
const TAG_VISIT_PROXY: u8 = 4;

/// Smallest encoded task: id, empty `after`, tag, one empty text.
const MIN_TASK_BYTES: usize = 4 + 4 + 1 + 4;

fn put_len(out: &mut Vec<u8>, len: usize) -> Result<(), AjoError> {
    let len = u32::try_from(len).map_err(|_| AjoError::Oversize)?;
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> Result<(), AjoError> {
    put_len(out, bytes.len())?;
    out.extend_from_slice(bytes);
    Ok(())
}

/// Encoded size of a text or byte field of `len` bytes.
fn field_len(len: usize) -> usize {
    4 + len
}

impl Task {
    /// Encoded size of the tag and body.
    fn wire_len(&self) -> usize {
        1 + match self {
            Task::Execute { command, args } => {
                let args: usize = args.iter().map(|a| field_len(a.len())).sum();
                field_len(command.len()) + 4 + args
            }
            Task::StageIn { path, data } => field_len(path.len()) + field_len(data.len()),
            Task::StageOut { path } => field_len(path.len()),
            Task::TransferToVsite { path, vsite } => field_len(path.len()) + field_len(vsite.len()),
            Task::StartVisitProxy { service } => field_len(service.len()),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) -> Result<(), AjoError> {
        out.push(self.tag());
        match self {
            Task::Execute { command, args } => {
                put_bytes(out, command.as_bytes())?;
                put_len(out, args.len())?;
                for arg in args {
                    put_bytes(out, arg.as_bytes())?;
                }
            }
            Task::StageIn { path, data } => {
                put_bytes(out, path.as_bytes())?;
                put_bytes(out, data)?;
            }
            Task::StageOut { path } => put_bytes(out, path.as_bytes())?,
            Task::TransferToVsite { path, vsite } => {
                put_bytes(out, path.as_bytes())?;
                put_bytes(out, vsite.as_bytes())?;
            }
            Task::StartVisitProxy { service } => put_bytes(out, service.as_bytes())?,
        }
        Ok(())
    }

    /// The wire tag of this task's kind.
    fn tag(&self) -> u8 {
        match self {
            Task::Execute { .. } => TAG_EXECUTE,
            Task::StageIn { .. } => TAG_STAGE_IN,
            Task::StageOut { .. } => TAG_STAGE_OUT,
            Task::TransferToVsite { .. } => TAG_TRANSFER,
            Task::StartVisitProxy { .. } => TAG_VISIT_PROXY,
        }
    }

    /// An empty task of the kind `tag` names.
    fn empty(tag: u8) -> Result<Task, AjoError> {
        Ok(match tag {
            TAG_EXECUTE => Task::Execute {
                command: String::new(),
                args: Vec::new(),
            },
            TAG_STAGE_IN => Task::StageIn {
                path: String::new(),
                data: Vec::new(),
            },
            TAG_STAGE_OUT => Task::StageOut {
                path: String::new(),
            },
            TAG_TRANSFER => Task::TransferToVsite {
                path: String::new(),
                vsite: String::new(),
            },
            TAG_VISIT_PROXY => Task::StartVisitProxy {
                service: String::new(),
            },
            _ => return Err(AjoError::Malformed("unknown task tag")),
        })
    }

    /// Decode one task into `self`, keeping its buffers when the tag
    /// names the kind it already is.
    fn read_from(&mut self, r: &mut Reader<'_>) -> Result<(), AjoError> {
        let tag = r.u8()?;
        if self.tag() != tag {
            *self = Task::empty(tag)?;
        }
        match self {
            Task::Execute { command, args } => {
                r.text_into(command)?;
                // an argument is at least its own length field
                r.list_into(4, args, String::new, Reader::text_into)
            }
            Task::StageIn { path, data } => {
                r.text_into(path)?;
                let bytes = r.bytes()?;
                data.clear();
                data.extend_from_slice(bytes);
                Ok(())
            }
            Task::StageOut { path } => r.text_into(path),
            Task::TransferToVsite { path, vsite } => {
                r.text_into(path)?;
                r.text_into(vsite)
            }
            Task::StartVisitProxy { service } => r.text_into(service),
        }
    }
}

/// A bounds-checked cursor over an encoded AJO.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], AjoError> {
        if self.buf.len() < n {
            return Err(AjoError::Malformed("truncated"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, AjoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, AjoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A count of items each at least `min_item` bytes long, refused when
    /// the bytes that remain cannot hold that many.
    fn count(&mut self, min_item: usize) -> Result<usize, AjoError> {
        let count = self.u32()? as usize;
        if count > self.buf.len() / min_item {
            return Err(AjoError::Malformed("count exceeds the bytes remaining"));
        }
        Ok(count)
    }

    /// A counted list read into `items`, replacing what it held: each
    /// item is read in place by `item`, into the element already at its
    /// index when there is one (`fresh` makes the rest). Reserved only
    /// once the count is known to fit.
    fn list_into<T>(
        &mut self,
        min_item: usize,
        items: &mut Vec<T>,
        fresh: impl Fn() -> T,
        item: impl Fn(&mut Self, &mut T) -> Result<(), AjoError>,
    ) -> Result<(), AjoError> {
        let count = self.count(min_item)?;
        items.truncate(count);
        items.reserve_exact(count - items.len());
        for i in 0..count {
            if i == items.len() {
                items.push(fresh());
            }
            item(self, &mut items[i])?;
        }
        Ok(())
    }

    /// A length-prefixed byte field, borrowed.
    fn bytes(&mut self) -> Result<&'a [u8], AjoError> {
        let len = self.count(1)?;
        self.take(len)
    }

    /// A text field, replacing what `out` held.
    fn text_into(&mut self, out: &mut String) -> Result<(), AjoError> {
        let text = std::str::from_utf8(self.bytes()?)
            .map_err(|_| AjoError::Malformed("text is not UTF-8"))?;
        out.clear();
        out.push_str(text);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsteer_testkit::{measure, CountingAlloc};
    use proptest::prelude::*;

    /// A fresh AJO read from `data`.
    fn from_bytes(data: &[u8]) -> Result<Ajo, AjoError> {
        let mut ajo = Ajo::new("", "");
        ajo.read_from(data)?;
        Ok(ajo)
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn linear_chain_orders_correctly() {
        let mut ajo = Ajo::new("j", "vsite");
        let a = ajo.add_task(
            Task::StageIn {
                path: "f".into(),
                data: vec![],
            },
            &[],
        );
        let b = ajo.add_task(
            Task::Execute {
                command: "sim".into(),
                args: vec![],
            },
            &[a],
        );
        let c = ajo.add_task(Task::StageOut { path: "o".into() }, &[b]);
        assert_eq!(ajo.topo_order().unwrap(), vec![a, b, c]);
    }

    #[test]
    fn diamond_orders_deterministically() {
        let mut ajo = Ajo::new("j", "v");
        let root = ajo.add_task(
            Task::StageIn {
                path: "f".into(),
                data: vec![],
            },
            &[],
        );
        let l = ajo.add_task(
            Task::Execute {
                command: "a".into(),
                args: vec![],
            },
            &[root],
        );
        let r = ajo.add_task(
            Task::Execute {
                command: "b".into(),
                args: vec![],
            },
            &[root],
        );
        let sink = ajo.add_task(Task::StageOut { path: "o".into() }, &[l, r]);
        let order = ajo.topo_order().unwrap();
        assert_eq!(order, vec![root, l, r, sink]);
    }

    #[test]
    fn cycle_detected() {
        let mut ajo = Ajo::new("j", "v");
        ajo.tasks.push(AjoTask {
            id: 0,
            task: Task::StageOut { path: "x".into() },
            after: vec![1],
        });
        ajo.tasks.push(AjoTask {
            id: 1,
            task: Task::StageOut { path: "y".into() },
            after: vec![0],
        });
        assert_eq!(ajo.topo_order(), Err(AjoError::Cycle));
    }

    #[test]
    fn unknown_dependency_detected() {
        let mut ajo = Ajo::new("j", "v");
        ajo.tasks.push(AjoTask {
            id: 0,
            task: Task::StageOut { path: "x".into() },
            after: vec![9],
        });
        assert_eq!(
            ajo.topo_order(),
            Err(AjoError::UnknownDependency {
                task: 0,
                missing: 9
            })
        );
    }

    #[test]
    fn duplicate_id_detected() {
        let mut ajo = Ajo::new("j", "v");
        for _ in 0..2 {
            ajo.tasks.push(AjoTask {
                id: 3,
                task: Task::StageOut { path: "x".into() },
                after: vec![],
            });
        }
        assert_eq!(ajo.topo_order(), Err(AjoError::DuplicateId(3)));
    }

    #[test]
    fn empty_ajo_rejected() {
        assert_eq!(Ajo::new("j", "v").topo_order(), Err(AjoError::Empty));
    }

    #[test]
    fn serialization_roundtrip() {
        let ajo = Ajo::steered_simulation(
            "lbm-run",
            "manchester-csar",
            "lbm",
            &["--nx", "64"],
            b"misc=0.05",
        );
        let back = from_bytes(&ajo.to_bytes().unwrap()).unwrap();
        assert_eq!(back, ajo);
    }

    /// Arbitrary AJOs: all five task variants, texts from empty through
    /// ASCII to any scalar value, staged files of 0, a few and 64 K bytes,
    /// dependency lists that are often empty. Structure only — the codec
    /// carries DAGs `topo_order` would refuse just as faithfully.
    struct AnyAjo;

    fn any_text(rng: &mut TestRng) -> String {
        let len = (0usize..6).generate(rng);
        (0..len)
            .filter_map(|_| match (0u8..3).generate(rng) {
                0 => Some(char::from((b' '..=b'~').generate(rng))),
                _ => char::from_u32((0u32..0x11_0000).generate(rng)),
            })
            .collect()
    }

    fn any_task(rng: &mut TestRng) -> Task {
        match (0u8..5).generate(rng) {
            0 => Task::Execute {
                command: any_text(rng),
                args: (0..(0usize..4).generate(rng))
                    .map(|_| any_text(rng))
                    .collect(),
            },
            1 => Task::StageIn {
                path: any_text(rng),
                data: {
                    let len = [0, 5, 64 * 1024][(0usize..3).generate(rng)];
                    collection::vec(any::<u8>(), len).generate(rng)
                },
            },
            2 => Task::StageOut {
                path: any_text(rng),
            },
            3 => Task::TransferToVsite {
                path: any_text(rng),
                vsite: any_text(rng),
            },
            _ => Task::StartVisitProxy {
                service: any_text(rng),
            },
        }
    }

    impl Strategy for AnyAjo {
        type Value = Ajo;

        fn generate(&self, rng: &mut TestRng) -> Ajo {
            Ajo {
                name: any_text(rng),
                vsite: any_text(rng),
                tasks: (0..(0usize..6).generate(rng))
                    .map(|_| AjoTask {
                        id: any::<u32>().generate(rng),
                        task: any_task(rng),
                        after: collection::vec(any::<u32>(), 0..3).generate(rng),
                    })
                    .collect(),
            }
        }
    }

    /// DAG shapes over ids and dependencies drawn from 0..8, so repeated
    /// ids, unknown dependencies, cycles and valid DAGs all turn up.
    struct AnyDag;

    impl Strategy for AnyDag {
        type Value = Ajo;

        fn generate(&self, rng: &mut TestRng) -> Ajo {
            let mut ajo = Ajo::new("dag", "v");
            ajo.tasks = (0..(0usize..8).generate(rng))
                .map(|_| AjoTask {
                    id: (0u32..8).generate(rng),
                    task: Task::StageOut { path: "f".into() },
                    after: collection::vec(0u32..8, 0..3).generate(rng),
                })
                .collect();
            ajo
        }
    }

    /// Kahn's algorithm spelled out over hash sets and ordered maps: the
    /// reference `topo_order` must match, refusal for refusal and position
    /// for position.
    fn reference_order(ajo: &Ajo) -> Result<Vec<u32>, AjoError> {
        use std::collections::{BTreeMap, HashSet, VecDeque};
        if ajo.tasks.is_empty() {
            return Err(AjoError::Empty);
        }
        let mut seen = HashSet::new();
        for t in &ajo.tasks {
            if !seen.insert(t.id) {
                return Err(AjoError::DuplicateId(t.id));
            }
        }
        let mut indegree: BTreeMap<u32, usize> = BTreeMap::new();
        let mut dependents: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for t in &ajo.tasks {
            indegree.entry(t.id).or_insert(0);
            for &d in &t.after {
                if !seen.contains(&d) {
                    return Err(AjoError::UnknownDependency {
                        task: t.id,
                        missing: d,
                    });
                }
                *indegree.entry(t.id).or_insert(0) += 1;
                dependents.entry(d).or_default().push(t.id);
            }
        }
        let mut ready: VecDeque<u32> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut order = Vec::new();
        while let Some(id) = ready.pop_front() {
            order.push(id);
            let mut newly = Vec::new();
            for d in dependents.get(&id).into_iter().flatten() {
                let e = indegree.get_mut(d).unwrap();
                *e -= 1;
                if *e == 0 {
                    newly.push(*d);
                }
            }
            newly.sort_unstable();
            ready.extend(newly);
        }
        if order.len() != ajo.tasks.len() {
            return Err(AjoError::Cycle);
        }
        Ok(order)
    }

    proptest! {
        #[test]
        fn wire_roundtrip_is_exact_for_arbitrary_ajos(ajo in AnyAjo) {
            let wire = ajo.to_bytes().unwrap();
            prop_assert_eq!(from_bytes(&wire), Ok(ajo));
        }

        /// An AJO read into one that held another is the AJO read afresh:
        /// nothing of the old one survives in the buffers reused.
        #[test]
        fn reading_into_a_used_ajo_is_reading_it_afresh(ajo in AnyAjo, used in AnyAjo) {
            let mut into = used;
            into.read_from(&ajo.to_bytes().unwrap()).unwrap();
            prop_assert_eq!(into, ajo);
        }

        #[test]
        fn topo_order_matches_the_reference(ajo in AnyDag) {
            prop_assert_eq!(ajo.topo_order(), reference_order(&ajo));
        }
    }

    /// One AJO with every task variant, a non-ASCII name, an empty text,
    /// an empty file, empty and non-empty `after` and `args`.
    fn kitchen_sink() -> Ajo {
        let mut ajo = Ajo::new("Jülich-流体", "");
        let stage = ajo.add_task(
            Task::StageIn {
                path: "in.cfg".into(),
                data: vec![0, 0xff, 7],
            },
            &[],
        );
        let empty = ajo.add_task(
            Task::StageIn {
                path: "empty".into(),
                data: vec![],
            },
            &[],
        );
        let proxy = ajo.add_task(
            Task::StartVisitProxy {
                service: "steer".into(),
            },
            &[],
        );
        let run = ajo.add_task(
            Task::Execute {
                command: "lbm".into(),
                args: vec!["--nx".into(), "64".into()],
            },
            &[stage, empty, proxy],
        );
        ajo.add_task(
            Task::Execute {
                command: "sync".into(),
                args: vec![],
            },
            &[run],
        );
        ajo.add_task(
            Task::TransferToVsite {
                path: "out.dat".into(),
                vsite: "viz-vsite".into(),
            },
            &[run],
        );
        ajo.add_task(
            Task::StageOut {
                path: "out.dat".into(),
            },
            &[run],
        );
        ajo
    }

    #[test]
    fn every_strict_prefix_is_an_error() {
        let wire = kitchen_sink().to_bytes().unwrap();
        for cut in 0..wire.len() {
            let got = from_bytes(&wire[..cut]);
            assert!(
                matches!(got, Err(AjoError::Malformed(_))),
                "cut={cut}: {got:?}"
            );
        }
    }

    #[test]
    fn a_flipped_byte_is_an_error_or_the_ajo_those_bytes_encode() {
        let wire = kitchen_sink().to_bytes().unwrap();
        for at in 0..wire.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut hit = wire.clone();
                hit[at] ^= mask;
                match from_bytes(&hit) {
                    // the encoding is canonical: whatever decodes, encodes back
                    Ok(ajo) => assert_eq!(ajo.to_bytes().unwrap(), hit, "at={at} mask={mask:#x}"),
                    Err(e) => assert!(matches!(e, AjoError::Malformed(_)), "at={at}: {e:?}"),
                }
            }
        }
    }

    #[test]
    fn each_malformation_is_named() {
        let wire = Ajo::steered_simulation("j", "v", "lbm", &["-x"], b"cfg")
            .to_bytes()
            .unwrap();
        let with = |at: usize, b: u8| {
            let mut hit = wire.clone();
            hit[at] = b;
            from_bytes(&hit)
        };
        let malformed = |why| Err(AjoError::Malformed(why));
        assert_eq!(with(0, b'B'), malformed("bad magic"));
        assert_eq!(with(3, WIRE_VERSION + 1), malformed("unsupported version"));
        // name "j" sits at 8; its first task's tag follows the two texts,
        // the task count, an id and an empty `after`
        assert_eq!(with(8, 0xff), malformed("text is not UTF-8"));
        assert_eq!(with(14 + 4 + 4 + 4, 5), malformed("unknown task tag"));
        let mut longer = wire.clone();
        longer.push(0);
        assert_eq!(from_bytes(&longer), malformed("trailing bytes"));
        assert_eq!(from_bytes(&[]), malformed("truncated"));
    }

    #[test]
    fn a_length_or_count_of_u32_max_is_refused_before_allocating() {
        let wire = Ajo::steered_simulation("j", "v", "lbm", &["-x"], b"cfg")
            .to_bytes()
            .unwrap();
        // every aligned-or-not 4-byte window: the length and count fields
        // of all five shapes (text, file, tasks, after, args) are among them
        // an honest count reserves in-memory items for wire items: the
        // widest ratio is a task's, and no request may exceed it
        let ratio = std::mem::size_of::<AjoTask>().div_ceil(MIN_TASK_BYTES);
        let mut refused = 0;
        for at in 0..wire.len() - 3 {
            let mut hit = wire.clone();
            hit[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let (got, usage) = measure(|| from_bytes(&hit));
            assert!(
                usage.largest <= ratio * hit.len(),
                "at={at}: {} bytes requested",
                usage.largest
            );
            if got == Err(AjoError::Malformed("count exceeds the bytes remaining")) {
                refused += 1;
            }
        }
        assert!(refused >= 5, "only {refused} windows hit a length field");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_length_past_u32_is_refused_not_wrapped() {
        let mut out = Vec::new();
        assert_eq!(put_len(&mut out, u32::MAX as usize), Ok(()));
        assert_eq!(
            put_len(&mut out, u32::MAX as usize + 1),
            Err(AjoError::Oversize)
        );
        assert_eq!(out, u32::MAX.to_le_bytes());
    }

    #[test]
    fn steered_simulation_shape() {
        let ajo = Ajo::steered_simulation("j", "v", "pepc", &[], b"");
        let order = ajo.topo_order().unwrap();
        // execute must come after both stage-in and proxy start
        let pos = |id: u32| order.iter().position(|&x| x == id).unwrap();
        let exec_id = ajo
            .tasks
            .iter()
            .find(|t| matches!(t.task, Task::Execute { .. }))
            .unwrap()
            .id;
        for t in &ajo.tasks {
            if matches!(t.task, Task::StageIn { .. } | Task::StartVisitProxy { .. }) {
                assert!(pos(t.id) < pos(exec_id));
            }
        }
    }
}
