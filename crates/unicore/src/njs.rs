//! Network Job Supervisor: job store + incarnation.
//!
//! §2.2: "They are received by a Network Job Supervisor … and the AJOs are
//! translated into Perl scripts for a target machine. This process is known
//! as incarnation in the UNICORE model; it allows the details of the
//! scripts used to run the workflow to be hidden from the application.
//! This is a very important part of the process of abstraction necessary
//! for the creation of Grid services."
//!
//! [`Njs::incarnate`] is that translation: an [`Ajo`] in, an
//! [`IncarnatedScript`] (ordered [`ScriptLine`]s) out. The NJS also owns
//! the per-Vsite job store: statuses, outcomes, spooled files.

use crate::ajo::{Ajo, AjoError, Task};
use crate::tsi::{ScriptLine, Tsi, TsiOutcome};
use std::collections::BTreeMap;

/// Identifies a job within one NJS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Lifecycle of a consigned job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, not yet run.
    Queued,
    /// Currently executing on the TSI.
    Running,
    /// Completed successfully; outcome available.
    Done,
    /// Failed (with the first error from the log).
    Failed(String),
}

/// The incarnated form of an AJO — the "Perl script" analog. Kept as data
/// so tests and the experiment harness can inspect exactly what the
/// abstraction layer produced.
#[derive(Debug, Clone, PartialEq)]
pub struct IncarnatedScript {
    /// The job this script realizes.
    pub job_name: String,
    /// Ordered script lines.
    pub lines: Vec<ScriptLine>,
}

/// A record in the NJS job store.
struct JobRecord {
    ajo: Ajo,
    owner: String,
    status: JobStatus,
    outcome: Option<TsiOutcome>,
}

/// The Network Job Supervisor for one Vsite.
pub struct Njs {
    /// Vsite name this NJS fronts.
    pub vsite: String,
    tsi: Tsi,
    jobs: BTreeMap<JobId, JobRecord>,
    next_id: u64,
}

impl Njs {
    /// An NJS driving the given target system.
    pub fn new(vsite: &str, tsi: Tsi) -> Self {
        Njs {
            vsite: vsite.to_string(),
            tsi,
            jobs: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Translate an AJO into a target-system script (incarnation).
    pub fn incarnate(&self, ajo: &Ajo) -> Result<IncarnatedScript, AjoError> {
        let order = ajo.topo_order()?;
        let mut lines = Vec::with_capacity(order.len());
        for id in order {
            let t = ajo.task(id).expect("topo order yields known ids");
            lines.push(match &t.task {
                Task::StageIn { path, data } => ScriptLine::CopyIn {
                    path: path.clone(),
                    data: data.clone(),
                },
                Task::Execute { command, args } => ScriptLine::Run {
                    command: command.clone(),
                    args: args.clone(),
                },
                Task::StageOut { path } => ScriptLine::SpoolOut { path: path.clone() },
                Task::TransferToVsite { path, vsite } => ScriptLine::Export {
                    path: path.clone(),
                    vsite: vsite.clone(),
                },
                Task::StartVisitProxy { service } => ScriptLine::LaunchProxy {
                    service: service.clone(),
                },
            });
        }
        Ok(IncarnatedScript {
            job_name: ajo.name.clone(),
            lines,
        })
    }

    /// Accept a job into the store (status `Queued`).
    pub fn consign(&mut self, ajo: Ajo, owner: &str) -> Result<JobId, AjoError> {
        ajo.topo_order()?; // validate up-front; reject broken DAGs at consign time
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.insert(
            id,
            JobRecord {
                ajo,
                owner: owner.to_string(),
                status: JobStatus::Queued,
                outcome: None,
            },
        );
        Ok(id)
    }

    /// Run one queued job to completion on the TSI. (The real NJS submits
    /// to a batch queue; our target system is synchronous.)
    pub fn run_job(&mut self, id: JobId) -> Option<&JobStatus> {
        // Incarnate first (immutable borrow), then mutate the record.
        let script = {
            let rec = self.jobs.get(&id)?;
            if rec.status != JobStatus::Queued {
                return Some(&self.jobs.get(&id).unwrap().status);
            }
            self.incarnate(&rec.ajo).ok()?
        };
        {
            let rec = self.jobs.get_mut(&id)?;
            rec.status = JobStatus::Running;
        }
        let outcome = self.tsi.run(&script.lines);
        let rec = self.jobs.get_mut(&id)?;
        rec.status = if outcome.success {
            JobStatus::Done
        } else {
            let err = outcome
                .log
                .iter()
                .find(|l| {
                    l.contains("FAILED") || l.contains("not installed") || l.contains("missing")
                })
                .cloned()
                .unwrap_or_else(|| "unknown failure".into());
            JobStatus::Failed(err)
        };
        rec.outcome = Some(outcome);
        Some(&rec.status)
    }

    /// Run every queued job (submission-order). Returns how many ran.
    pub fn run_all_queued(&mut self) -> usize {
        let ids: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, r)| r.status == JobStatus::Queued)
            .map(|(&id, _)| id)
            .collect();
        let n = ids.len();
        for id in ids {
            self.run_job(id);
        }
        n
    }

    /// Job status (authorization: only the owner may query).
    pub fn status(&self, id: JobId, owner: &str) -> Option<&JobStatus> {
        let rec = self.jobs.get(&id)?;
        (rec.owner == owner).then_some(&rec.status)
    }

    /// Fetch the outcome of a finished job (owner only).
    pub fn fetch(&self, id: JobId, owner: &str) -> Option<&TsiOutcome> {
        let rec = self.jobs.get(&id)?;
        if rec.owner != owner {
            return None;
        }
        rec.outcome.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ajo::Ajo;

    fn simple_ajo() -> Ajo {
        Ajo::steered_simulation("demo", "v", "echo", &["running"], b"cfg")
    }

    #[test]
    fn incarnation_preserves_order_and_hides_tasks() {
        let njs = Njs::new("v", Tsi::with_builtins());
        let ajo = simple_ajo();
        let script = njs.incarnate(&ajo).unwrap();
        assert_eq!(script.lines.len(), ajo.tasks.len());
        // CopyIn and LaunchProxy both precede Run
        let run_pos = script
            .lines
            .iter()
            .position(|l| matches!(l, ScriptLine::Run { .. }))
            .unwrap();
        assert!(script.lines[..run_pos]
            .iter()
            .any(|l| matches!(l, ScriptLine::CopyIn { .. })));
        assert!(script.lines[..run_pos]
            .iter()
            .any(|l| matches!(l, ScriptLine::LaunchProxy { .. })));
    }

    #[test]
    fn job_lifecycle_queued_to_failed_on_missing_output() {
        // steered_simulation spools output.dat which `echo` never creates
        let mut njs = Njs::new("v", Tsi::with_builtins());
        let id = njs.consign(simple_ajo(), "alice").unwrap();
        assert_eq!(njs.status(id, "alice"), Some(&JobStatus::Queued));
        njs.run_job(id);
        assert!(matches!(
            njs.status(id, "alice"),
            Some(JobStatus::Failed(_))
        ));
    }

    #[test]
    fn job_succeeds_when_app_produces_output() {
        let mut njs = Njs::new("v", Tsi::with_builtins());
        let mut ajo = Ajo::new("writer", "v");
        let w = ajo.add_task(
            Task::Execute {
                command: "write".into(),
                args: vec!["output.dat".into(), "42".into()],
            },
            &[],
        );
        ajo.add_task(
            Task::StageOut {
                path: "output.dat".into(),
            },
            &[w],
        );
        let id = njs.consign(ajo, "alice").unwrap();
        njs.run_job(id);
        assert_eq!(njs.status(id, "alice"), Some(&JobStatus::Done));
        let outcome = njs.fetch(id, "alice").unwrap();
        assert_eq!(outcome.spooled["output.dat"], b"42");
    }

    #[test]
    fn non_owner_cannot_query_or_fetch() {
        let mut njs = Njs::new("v", Tsi::with_builtins());
        let id = njs.consign(simple_ajo(), "alice").unwrap();
        assert!(njs.status(id, "eve").is_none());
        njs.run_job(id);
        assert!(njs.fetch(id, "eve").is_none());
    }

    #[test]
    fn broken_dag_rejected_at_consign() {
        let mut njs = Njs::new("v", Tsi::with_builtins());
        let mut ajo = Ajo::new("bad", "v");
        ajo.tasks.push(crate::ajo::AjoTask {
            id: 0,
            task: Task::StageOut { path: "x".into() },
            after: vec![0],
        });
        assert!(njs.consign(ajo, "alice").is_err());
        assert!(njs.jobs.is_empty());
    }

    #[test]
    fn rerunning_finished_job_is_noop() {
        let mut njs = Njs::new("v", Tsi::with_builtins());
        let id = njs.consign(simple_ajo(), "alice").unwrap();
        njs.run_job(id);
        let first = njs.status(id, "alice").cloned();
        njs.run_job(id);
        assert_eq!(njs.status(id, "alice").cloned(), first);
    }

    #[test]
    fn run_all_queued_runs_everything() {
        let mut njs = Njs::new("v", Tsi::with_builtins());
        for _ in 0..3 {
            njs.consign(simple_ajo(), "alice").unwrap();
        }
        assert_eq!(njs.run_all_queued(), 3);
        assert_eq!(njs.run_all_queued(), 0);
    }
}
