//! The UNICORE middleware, both planes: batches and frames travel as
//! Abstract Job Objects.
//!
//! UNICORE has no connection-oriented channel in either direction —
//! everything is a consigned job (§2.2: AJOs "sent via ssl as serialised
//! Java objects"). Each steering batch and each monitor delivery
//! therefore becomes a two-task AJO: stage in a file carrying the
//! binary-encoded items (`steer.cmd`, or `monitor-<n>.dat` materialized at
//! the consumer's polling site), then an execute task (`steer-apply` /
//! `monitor-publish`) depending on it. That is why batching matters most
//! on this transport: one job per batch instead of one job per command or
//! sample.
//!
//! What one consignment validates, on both planes, before anything
//! reaches the hub or the viewer's inbox:
//!
//! 1. the AJO crosses the hop in its binary object-stream form
//!    ([`Ajo::to_bytes`] → [`Ajo::from_bytes`]): magic, version, every
//!    length and count against the bytes behind it, UTF-8 texts, known
//!    task tags, nothing trailing;
//! 2. the consigned DAG is a DAG ([`Ajo::topo_order`]: non-empty, unique
//!    ids, known dependencies, acyclic) and is walked in that order;
//! 3. the staged file is the one named, and decodes through the bounded
//!    reader ([`SteerCommand::read`] / [`MonitorFrame::read`]) into
//!    exactly the counted items with no byte left over — a count the file
//!    cannot hold fails without reserving for it, and the transport error
//!    is the reader's reason (the field that failed; the file, when its
//!    bytes ran out).
//!
//! The hop costs about what it carries: ≈ 10 µs for a 17 KB monitor
//! delivery (`deliver_unicore_16c` in `baselines/BENCH_monitor.json`).

use crate::command::{SteerCommand, SteerError};
use crate::endpoint::{check_batch, steer_endpoint_common, Capabilities, SteerEndpoint};
use crate::hub::SteerHub;
use crate::monitor::endpoint::{
    check_delivery, monitor_endpoint_common, FrameChunk, MonitorCaps, MonitorEndpoint, MonitorError,
};
use crate::monitor::frame::MonitorFrame;
use bytes::{BufMut, BytesMut};
use gridsteer_ckpt::{CkptError, SectionReader};
use unicore::{Ajo, Task};

/// The transport label on both planes.
pub const LABEL: &str = "unicore";

/// Open a staged-file payload for `count` items: the `u16` count the
/// items' own length-delimited encodings follow. `None` when the count
/// does not fit the field — refused, never wrapped.
pub(crate) fn begin_payload(count: usize) -> Option<BytesMut> {
    let mut buf = BytesMut::new();
    buf.put_u16_le(u16::try_from(count).ok()?);
    Some(buf)
}

/// Decode the staged file `file`, reading each counted item with `item`
/// and refusing trailing bytes; a truncation names `file`.
pub(crate) fn decode_payload<T>(
    file: &str,
    bytes: &[u8],
    item: impl Fn(&mut SectionReader<'_>) -> Result<T, CkptError>,
) -> Result<Vec<T>, CkptError> {
    let mut r = SectionReader::new(bytes, file);
    let items = crate::ckpt::get_counted(&mut r, item)?;
    r.expect_end()?;
    Ok(items)
}

/// The job shape of one plane.
struct Plane {
    /// Prefix of the AJO name (`<job>-<origin>`).
    job: &'static str,
    /// Destination Vsite name.
    vsite: &'static str,
    /// The execute task that depends on the staged file.
    command: &'static str,
}

const STEER: Plane = Plane {
    job: "steer",
    vsite: "compute-vsite",
    command: "steer-apply",
};

const MONITOR: Plane = Plane {
    job: "monitor",
    vsite: "viewer-vsite",
    command: "monitor-publish",
};

/// One consignment: build the two-task AJO around an already-encoded
/// `payload` staged as `file`, run the hop (serialize, ship, deserialize,
/// validate the DAG), and decode the staged file on the target side,
/// reading each item with `item`.
fn consign<T>(
    plane: &Plane,
    origin: &str,
    file: &str,
    payload: Vec<u8>,
    item: impl Fn(&mut SectionReader<'_>) -> Result<T, CkptError>,
) -> Result<Vec<T>, String> {
    let mut ajo = Ajo::new(&format!("{}-{origin}", plane.job), plane.vsite);
    let stage = ajo.add_task(
        Task::StageIn {
            path: file.into(),
            data: payload,
        },
        &[],
    );
    ajo.add_task(
        Task::Execute {
            command: plane.command.into(),
            args: vec![origin.to_string()],
        },
        &[stage],
    );
    let consigned = ajo
        .to_bytes()
        .and_then(|wire| Ajo::from_bytes(&wire))
        .map_err(|e| format!("AJO serialization hop failed: {e:?}"))?;
    let order = consigned
        .topo_order()
        .map_err(|e| format!("invalid {} AJO: {e:?}", plane.job))?;
    // target side: run the DAG in order, decoding the staged file
    let mut decoded = None;
    for id in order {
        if let Some(Task::StageIn { path, data }) = consigned.task(id).map(|t| &t.task) {
            if path == file {
                decoded = Some(decode_payload(file, data, &item));
            }
        }
    }
    let decoded = decoded.ok_or_else(|| format!("{file} not staged"))?;
    decoded.map_err(|e| e.to_string())
}

/// Steering through UNICORE job consignment.
pub struct UnicoreEndpoint {
    hub: SteerHub,
    origin: String,
    caps: Capabilities,
    jobs_consigned: u64,
}

impl UnicoreEndpoint {
    /// Attach to a hub as `origin`, consigning to a default Vsite.
    pub fn attach(hub: &SteerHub, origin: &str) -> UnicoreEndpoint {
        UnicoreEndpoint {
            hub: hub.clone(),
            origin: origin.to_string(),
            caps: Capabilities::full(LABEL, 64),
            jobs_consigned: 0,
        }
    }

    /// Jobs consigned so far (one per batch).
    pub fn jobs_consigned(&self) -> u64 {
        self.jobs_consigned
    }
}

impl SteerEndpoint for UnicoreEndpoint {
    steer_endpoint_common!(hub_get);

    fn set_batch(&mut self, commands: Vec<SteerCommand>) -> Result<u64, SteerError> {
        check_batch(&self.caps, &commands)?;
        let mut payload = begin_payload(commands.len()).ok_or(SteerError::TooLarge {
            len: commands.len(),
            max: u16::MAX as usize,
        })?;
        for cmd in &commands {
            cmd.encode_bytes(&mut payload)?;
        }
        let decoded = consign(
            &STEER,
            &self.origin,
            "steer.cmd",
            payload.to_vec(),
            SteerCommand::read,
        )
        .map_err(SteerError::Transport)?;
        self.jobs_consigned += 1;
        self.hub.stage(&self.origin, LABEL, decoded)
    }
}

/// Monitoring through UNICORE job consignment.
pub struct UnicoreMonitor {
    caps: MonitorCaps,
    origin: String,
    jobs_consigned: u64,
    inbox: Vec<MonitorFrame<'static>>,
}

impl UnicoreMonitor {
    /// A fresh endpoint consigning from `origin` to a default Vsite.
    pub fn new(origin: &str) -> UnicoreMonitor {
        UnicoreMonitor {
            caps: MonitorCaps::full(LABEL, 64),
            origin: origin.to_string(),
            jobs_consigned: 0,
            inbox: Vec::new(),
        }
    }

    /// Jobs consigned so far (one per delivery batch).
    pub fn jobs_consigned(&self) -> u64 {
        self.jobs_consigned
    }
}

impl MonitorEndpoint for UnicoreMonitor {
    monitor_endpoint_common!(inbox);

    fn deliver(&mut self, chunk: &FrameChunk<'_>) -> Result<usize, MonitorError> {
        check_delivery(&self.caps, chunk)?;
        let mut payload = begin_payload(chunk.len()).ok_or(MonitorError::TooLarge {
            len: chunk.len(),
            max: u16::MAX as usize,
        })?;
        // the staged file is filled from the publish-wide shared encode
        // cache: each frame is serialized once per publish, not once per
        // subscriber
        for i in 0..chunk.len() {
            payload.put_slice(&chunk.frame_bytes(i)?);
        }
        // the consumer polls the staged file out of the validated DAG
        let decoded = consign(
            &MONITOR,
            &self.origin,
            &format!("monitor-{}.dat", self.jobs_consigned),
            payload.to_vec(),
            |r| MonitorFrame::read(r).map(MonitorFrame::into_owned),
        )
        .map_err(MonitorError::Transport)?;
        self.jobs_consigned += 1;
        let n = decoded.len();
        self.inbox.extend(decoded);
        Ok(n)
    }

    fn close(&mut self) {
        // UNICORE is job-per-batch: nothing in flight to tear down, but
        // staged frames the consumer never polled are dropped with it
        self.inbox.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsteer_testkit::{measure, CountingAlloc};

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// A staged file whose count claims far more items than its bytes can
    /// hold is refused without reserving for the claim.
    fn lying_count_reserves_nothing<T>(
        item: impl Fn(&mut SectionReader<'_>) -> Result<T, CkptError>,
    ) {
        for junk in [&[][..], &[0xff; 3][..]] {
            let mut file = u16::MAX.to_le_bytes().to_vec();
            file.extend_from_slice(junk);
            // an unnamed file: the error's context allocates nothing
            let (got, usage) = measure(|| decode_payload("", &file, &item).map(|_| ()));
            assert!(matches!(got, Err(CkptError::Truncated { .. })));
            assert!(
                usage.largest <= junk.len() * std::mem::size_of::<T>(),
                "{} bytes requested for a {}-byte file",
                usage.largest,
                file.len()
            );
        }
    }

    #[test]
    fn steer_payload_count_is_bounded_by_the_bytes_behind_it() {
        lying_count_reserves_nothing(SteerCommand::read);
    }

    #[test]
    fn monitor_payload_count_is_bounded_by_the_bytes_behind_it() {
        lying_count_reserves_nothing(|r| MonitorFrame::read(r).map(MonitorFrame::into_owned));
    }

    #[test]
    fn a_malformed_staged_file_names_what_failed() {
        let consign = |payload: &[u8]| {
            consign(
                &STEER,
                "o",
                "steer.cmd",
                payload.to_vec(),
                SteerCommand::read,
            )
            .unwrap_err()
        };
        // one command named "a" whose value kind byte is 9
        assert_eq!(
            consign(&[1, 0, 1, 0, b'a', 9]),
            "corrupt bytes at value kind byte 9"
        );
        // the same command, its f64 cut to three bytes
        assert_eq!(
            consign(&[1, 0, 1, 0, b'a', 1, 0, 0, 0]),
            "truncated at steer.cmd: need 8 bytes, have 3"
        );
        assert_eq!(
            consign(&[0, 0, 7]),
            "trailing bytes after the last field: 1"
        );
    }
}
