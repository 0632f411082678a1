//! Target System Interface.
//!
//! §3.1: "On these systems a Target System Interface (TSI), which is
//! available as a Java application or a set of Perl scripts, performs the
//! communication with the NJS." The real TSI turns incarnated scripts into
//! batch-system submissions; ours executes them against a sandboxed
//! in-process "target system": a per-job in-memory working directory and a
//! registry of *applications* (Rust closures standing in for the installed
//! simulation binaries — PEPC, the LB code, etc.).
//!
//! §3.1 also notes the steering extension touches only this tier: "the only
//! component of the UNICORE system that needs to be modified for this
//! extension is the TSI" — accordingly, the `LaunchProxy` script line is
//! handled here (by recording the proxy endpoint for the
//! [`crate::proxy::VisitProxyServer`] to pick up).

use std::collections::BTreeMap;
use std::sync::Arc;

/// A job's in-memory working directory.
pub type JobDir = BTreeMap<String, Vec<u8>>;

/// An installed application: `(args, working dir) → stdout or error`.
pub type AppFn = Arc<dyn Fn(&[String], &mut JobDir) -> Result<String, String> + Send + Sync>;

/// One line of an incarnated script (the Perl-script analog; see
/// [`crate::njs::IncarnatedScript`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptLine {
    /// Write a staged-in file into the job directory.
    CopyIn {
        /// Destination path.
        path: String,
        /// Contents.
        data: Vec<u8>,
    },
    /// Run an installed application.
    Run {
        /// Application name.
        command: String,
        /// Arguments.
        args: Vec<String>,
    },
    /// Mark a file for spooling back to the client.
    SpoolOut {
        /// Path to spool.
        path: String,
    },
    /// Queue a file for transfer to another Vsite.
    Export {
        /// Source path.
        path: String,
        /// Destination Vsite.
        vsite: String,
    },
    /// Record a VISIT proxy endpoint for this job.
    LaunchProxy {
        /// Steering service name.
        service: String,
    },
}

/// Result of running one incarnated script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TsiOutcome {
    /// True if every line succeeded.
    pub success: bool,
    /// Spooled output files (path → contents).
    pub spooled: BTreeMap<String, Vec<u8>>,
    /// Files queued for cross-Vsite transfer (path, destination, contents).
    pub exports: Vec<(String, String, Vec<u8>)>,
    /// VISIT proxy services launched.
    pub proxies: Vec<String>,
    /// Per-line log (stdout or error text).
    pub log: Vec<String>,
}

/// The sandboxed target system.
#[derive(Default)]
pub struct Tsi {
    apps: BTreeMap<String, AppFn>,
}

impl Tsi {
    /// Empty target system (no applications installed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install an application under `name`.
    pub fn install_app(&mut self, name: &str, f: AppFn) {
        self.apps.insert(name.to_string(), f);
    }

    /// A target system with the standard built-ins installed:
    /// `echo` (joins args into stdout) and `write` (args: path, text —
    /// creates a file). Used by tests and examples.
    pub fn with_builtins() -> Self {
        let mut t = Tsi::new();
        t.install_app("echo", Arc::new(|args, _dir| Ok(args.join(" "))));
        t.install_app(
            "write",
            Arc::new(|args, dir| {
                if args.len() != 2 {
                    return Err("write needs 2 args".into());
                }
                dir.insert(args[0].clone(), args[1].clone().into_bytes());
                Ok(String::new())
            }),
        );
        t
    }

    /// Execute a script in a fresh job directory. Execution stops at the
    /// first failing line (matching batch-script semantics under `set -e`).
    pub fn run(&self, lines: &[ScriptLine]) -> TsiOutcome {
        let mut dir: JobDir = BTreeMap::new();
        let mut out = TsiOutcome {
            success: true,
            ..Default::default()
        };
        for line in lines {
            match line {
                ScriptLine::CopyIn { path, data } => {
                    dir.insert(path.clone(), data.clone());
                    out.log
                        .push(format!("copyin {path} ({} bytes)", data.len()));
                }
                ScriptLine::Run { command, args } => match self.apps.get(command) {
                    Some(app) => match app(args, &mut dir) {
                        Ok(stdout) => out.log.push(format!("run {command}: {stdout}")),
                        Err(e) => {
                            out.log.push(format!("run {command}: FAILED: {e}"));
                            out.success = false;
                            break;
                        }
                    },
                    None => {
                        out.log.push(format!("run {command}: not installed"));
                        out.success = false;
                        break;
                    }
                },
                ScriptLine::SpoolOut { path } => match dir.get(path) {
                    Some(data) => {
                        out.spooled.insert(path.clone(), data.clone());
                        out.log.push(format!("spool {path}"));
                    }
                    None => {
                        out.log.push(format!("spool {path}: missing"));
                        out.success = false;
                        break;
                    }
                },
                ScriptLine::Export { path, vsite } => match dir.get(path) {
                    Some(data) => {
                        out.exports
                            .push((path.clone(), vsite.clone(), data.clone()));
                        out.log.push(format!("export {path} -> {vsite}"));
                    }
                    None => {
                        out.log.push(format!("export {path}: missing"));
                        out.success = false;
                        break;
                    }
                },
                ScriptLine::LaunchProxy { service } => {
                    out.proxies.push(service.clone());
                    out.log.push(format!("visit-proxy {service} up"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copyin_then_spool_roundtrips() {
        let tsi = Tsi::with_builtins();
        let out = tsi.run(&[
            ScriptLine::CopyIn {
                path: "input.cfg".into(),
                data: b"misc=0.06".to_vec(),
            },
            ScriptLine::SpoolOut {
                path: "input.cfg".into(),
            },
        ]);
        assert!(out.success);
        assert_eq!(out.spooled["input.cfg"], b"misc=0.06");
    }

    #[test]
    fn app_writes_file_visible_to_spool() {
        let tsi = Tsi::with_builtins();
        let out = tsi.run(&[
            ScriptLine::Run {
                command: "write".into(),
                args: vec!["output.dat".into(), "result".into()],
            },
            ScriptLine::SpoolOut {
                path: "output.dat".into(),
            },
        ]);
        assert!(out.success);
        assert_eq!(out.spooled["output.dat"], b"result");
    }

    #[test]
    fn unknown_command_fails_and_stops() {
        let tsi = Tsi::with_builtins();
        let out = tsi.run(&[
            ScriptLine::Run {
                command: "no-such-binary".into(),
                args: vec![],
            },
            ScriptLine::SpoolOut {
                path: "never".into(),
            },
        ]);
        assert!(!out.success);
        assert!(out.spooled.is_empty());
        assert_eq!(out.log.len(), 1);
    }

    #[test]
    fn app_error_propagates() {
        let mut tsi = Tsi::new();
        tsi.install_app("bad", Arc::new(|_, _| Err("segfault".into())));
        let out = tsi.run(&[ScriptLine::Run {
            command: "bad".into(),
            args: vec![],
        }]);
        assert!(!out.success);
        assert!(out.log[0].contains("segfault"));
    }

    #[test]
    fn missing_spool_fails() {
        let tsi = Tsi::with_builtins();
        let out = tsi.run(&[ScriptLine::SpoolOut {
            path: "ghost".into(),
        }]);
        assert!(!out.success);
    }

    #[test]
    fn export_records_destination() {
        let tsi = Tsi::with_builtins();
        let out = tsi.run(&[
            ScriptLine::CopyIn {
                path: "sample.raw".into(),
                data: vec![1, 2, 3],
            },
            ScriptLine::Export {
                path: "sample.raw".into(),
                vsite: "manchester-viz".into(),
            },
        ]);
        assert!(out.success);
        assert_eq!(
            out.exports,
            vec![("sample.raw".into(), "manchester-viz".into(), vec![1, 2, 3])]
        );
    }

    #[test]
    fn launch_proxy_recorded() {
        let tsi = Tsi::with_builtins();
        let out = tsi.run(&[ScriptLine::LaunchProxy {
            service: "pepc-steer".into(),
        }]);
        assert!(out.success);
        assert_eq!(out.proxies, vec!["pepc-steer".to_string()]);
    }

    #[test]
    fn builtin_echo_logs_stdout() {
        let tsi = Tsi::with_builtins();
        let out = tsi.run(&[ScriptLine::Run {
            command: "echo".into(),
            args: vec!["hello".into(), "grid".into()],
        }]);
        assert!(out.log[0].contains("hello grid"));
    }
}
