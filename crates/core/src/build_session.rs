//! The one build session every client of the IRM runs (DESIGN §6j).
//!
//! The in-process `smlsc build` and the daemon's
//! [`Resident`](crate::resident::Resident) both [`open`](BuildSession::open)
//! a bin dir, [`build`](BuildSession::build) and render the report, then
//! [`finish`](BuildSession::finish) it: persist, then append the ledger
//! record.  With the one [`exit_code`] mapping and the one
//! [`explain_lines`] rendering, a build prints the same lines and exits
//! with the same code whichever path ran it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use smlsc_ids::Symbol;
use smlsc_store::Store;
use smlsc_trace::{Collector, RebuildDecision};

use crate::irm::{BuildReport, FailurePolicy, Irm, Project, Strategy, UnitOutcome};
use crate::ledger::{Ledger, LedgerRecord};
use crate::CoreError;

/// Exit code: the build succeeded.
pub const EXIT_OK: i32 = 0;
/// Exit code: the user's source is wrong.
pub const EXIT_COMPILE: i32 = 1;
/// Exit code: the compiler itself broke (a caught panic).
pub const EXIT_INTERNAL: i32 = 3;
/// Exit code: a store or filesystem IO failure.
pub const EXIT_IO: i32 = 4;

/// The exit code class of a finished build, or of the error that stopped
/// it before a report: internal errors dominate, then IO, then plain
/// compile failures.
pub fn exit_code(result: Result<&BuildReport, &CoreError>) -> i32 {
    let failures: Vec<&CoreError> = match result {
        Ok(report) if report.succeeded() => return EXIT_OK,
        Ok(report) => report.failed.iter().map(|(_, e)| e).collect(),
        Err(e) => vec![e],
    };
    if failures.iter().any(|e| e.is_internal()) {
        EXIT_INTERNAL
    } else if failures.iter().any(|e| e.is_io()) {
        EXIT_IO
    } else {
        EXIT_COMPILE
    }
}

/// The `--explain` lines: why each unit was recompiled or reused.
pub fn explain_lines(decisions: &[(Symbol, RebuildDecision)]) -> Vec<String> {
    decisions
        .iter()
        .map(|(unit, decision)| format!("  {unit}: {decision}"))
        .collect()
}

/// A manager opened over one bin directory.
pub struct BuildSession {
    /// The manager, with the bin directory's stamps and bins loaded.
    pub irm: Irm,
    /// One warning per corrupt bin found at open, until a report takes
    /// them.
    pub notes: Vec<String>,
    bin_dir: PathBuf,
}

/// One build's report, rendered.
pub struct Built {
    /// The build's report.
    pub report: BuildReport,
    /// The exit code class of the build.
    pub exit_code: i32,
    /// Lines for stderr: the open's notes, then warnings, failures and
    /// skips.
    pub notes: Vec<String>,
    /// The one-line summary (`built N unit(s) [...]: ...`).
    pub summary: String,
}

impl BuildSession {
    /// Opens `bin_dir`: `store`, and the pack with its stamp and graph
    /// sections.  `paranoid` is set first, so the load verifies every
    /// body.  A missing or corrupt cache only costs recompiles.
    pub fn open(
        bin_dir: &Path,
        strategy: Strategy,
        paranoid: bool,
        store: Option<Arc<Store>>,
    ) -> BuildSession {
        let mut irm = Irm::new(strategy);
        irm.set_paranoid(paranoid);
        if let Some(store) = store {
            irm.set_store(store);
        }
        // `load_bins` reports every failure in `corrupt` and never errs.
        let outcome = irm.load_bins(bin_dir).unwrap_or_default();
        let notes = outcome
            .corrupt
            .iter()
            .map(|(path, e)| format!("warning: ignoring corrupt bin {}: {e}", path.display()))
            .collect();
        BuildSession {
            irm,
            notes,
            bin_dir: bin_dir.to_path_buf(),
        }
    }

    /// Builds `project` with up to `jobs` workers under `policy` and
    /// renders the report; [`Self::finish`] persists it.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] of [`Irm::build_with`]; `notes` then stay.
    pub fn build(
        &mut self,
        project: &Project,
        jobs: usize,
        policy: FailurePolicy,
    ) -> Result<Built, CoreError> {
        let report = self.irm.build_with(project, jobs, policy)?;
        let mut notes = std::mem::take(&mut self.notes);
        notes.extend(
            report
                .warnings
                .iter()
                .map(|(unit, w)| format!("{unit}: {w}")),
        );
        // `CoreError`'s Display already names the unit.
        notes.extend(report.failed.iter().map(|(_, e)| format!("error: {e}")));
        for (unit, outcome) in &report.outcomes {
            if let UnitOutcome::Skipped { blocked_on } = outcome {
                let imports: Vec<String> = blocked_on.iter().map(|u| format!("`{u}`")).collect();
                notes.push(format!(
                    "skipped `{unit}`: blocked on failed import(s) {}",
                    imports.join(", ")
                ));
            }
        }
        let mut summary = format!(
            "built {} unit(s) [{}]: {} recompiled, {} reused",
            report.order.len(),
            report.strategy,
            report.recompiled.len(),
            report.reused.len()
        );
        if self.irm.store().is_some() {
            summary += &format!(", {} from store", report.store_hits.len());
        }
        if !report.succeeded() {
            let (failed, skipped) = (report.failed.len(), report.skipped.len());
            summary += &format!(", {failed} failed, {skipped} skipped");
        }
        Ok(Built {
            exit_code: exit_code(Ok(&report)),
            report,
            notes,
            summary,
        })
    }

    /// Persists `built` — bins, stamps and graph in one pack save — then
    /// appends its ledger record (tagged when the daemon built it),
    /// timed from `started` to the end of the persist.  Neither step
    /// fails the build: errors come back as warnings.
    pub fn finish(
        &mut self,
        built: &Built,
        collector: &Collector,
        jobs: usize,
        started: Instant,
        daemon: bool,
    ) -> (LedgerRecord, Vec<String>) {
        let mut warnings = Vec::new();
        if let Err(e) = self.irm.save_bins(&self.bin_dir) {
            warnings.push(format!("warning: could not persist bins: {e}"));
        }
        let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut record =
            LedgerRecord::from_build(&built.report, collector, jobs, wall_us, built.exit_code);
        record.daemon = u64::from(daemon);
        if let Err(e) = Ledger::for_bin_dir(&self.bin_dir).append(&record) {
            warnings.push(format!("warning: could not append to build ledger: {e}"));
        }
        (record, warnings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_failing_with(errors: Vec<CoreError>) -> BuildReport {
        BuildReport {
            failed: errors
                .into_iter()
                .map(|e| (Symbol::intern("u"), e))
                .collect(),
            ..BuildReport::default()
        }
    }

    #[test]
    fn exit_code_maps_every_class() {
        let compile = || CoreError::UnknownUnit(Symbol::intern("u"));
        let io = || CoreError::Io("disk full".into());
        let internal = || CoreError::Internal {
            unit: Symbol::intern("u"),
            message: "boom".into(),
        };
        // The documented codes: 0 ok, 1 compile, 3 internal, 4 IO.
        assert_eq!(exit_code(Ok(&BuildReport::default())), 0);
        assert_eq!(exit_code(Err(&compile())), 1);
        assert_eq!(exit_code(Err(&io())), 4);
        assert_eq!(exit_code(Err(&internal())), 3);
        // A report's class is its worst failure's: internal, then IO,
        // then compile.
        let report = report_failing_with(vec![compile()]);
        assert_eq!(exit_code(Ok(&report)), 1);
        let report = report_failing_with(vec![compile(), io()]);
        assert_eq!(exit_code(Ok(&report)), 4);
        let report = report_failing_with(vec![io(), internal(), compile()]);
        assert_eq!(exit_code(Ok(&report)), 3);
    }
}
