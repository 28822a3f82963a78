//! The correctness oracle, independent of the build under test: values
//! computed from the edit script, and export pids from a from-scratch
//! build of the final sources.

use std::collections::HashMap;

use smlsc::core::irm::{FailurePolicy, Irm, Project, Strategy};
use smlsc::dynamics::Value;
use smlsc::ids::Symbol;
use smlsc::workload::module_name;

use crate::e2e::JOBS;
use crate::script::Repo;

/// Checks made and the mismatches found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The `unit -> export pid` lines `smlsc run` prints.
pub fn run_pids(stdout: &str) -> HashMap<String, String> {
    stdout
        .lines()
        .filter_map(|l| l.split_once(": export pid "))
        .map(|(u, p)| (u.to_string(), p.trim().to_string()))
        .collect()
}

/// `(tag, sumDeps)` from a unit's export record.  By the elaborator's
/// layout rule (values, then structures, then functors) the unit record
/// holds structure `M<i>` in slot 0, and the structure, ascribed to its
/// signature, holds `mk`, `get`, `tag`, `sumDeps` in slots 0-3.
fn exported(values: &Value) -> Option<(i64, Option<i64>)> {
    let Value::Record(unit) = values else {
        return None;
    };
    let Value::Record(fields) = unit.first()? else {
        return None;
    };
    let Value::Int(tag) = fields.get(2)? else {
        return None;
    };
    let sum = match fields.get(3) {
        Some(Value::Int(s)) => Some(*s),
        _ => None,
    };
    Some((*tag, sum))
}

/// Links and executes the project's warm incremental state in-process,
/// then compares it with the script arithmetic, with a from-scratch
/// build of the same sources, and with the pids `smlsc run` printed.
pub fn check(repo: &Repo, cli_pids: &HashMap<String, String>) -> Verdict {
    let mut v = Verdict::default();
    let project = match Project::from_dir(&repo.dir) {
        Ok(p) => p,
        Err(e) => {
            v.check(false, || format!("oracle scan: {e}"));
            return v;
        }
    };
    let names: Vec<String> = (0..repo.units()).map(module_name).collect();

    let mut irm = Irm::new(Strategy::Cutoff);
    irm.load_stamps(&repo.bin_dir().join("stamps.json"));
    if let Err(e) = irm.load_bins(&repo.bin_dir()) {
        v.check(false, || format!("oracle load_bins: {e}"));
    }
    let incremental: HashMap<&str, String> = match irm.execute_with_jobs(&project, JOBS) {
        Ok((report, env)) => {
            v.check(report.recompiled.is_empty(), || {
                format!(
                    "warm state was stale: {} unit(s) recompiled on link",
                    report.recompiled.len()
                )
            });
            let mut wrong = Vec::new();
            let mut pids = HashMap::new();
            for (i, name) in names.iter().enumerate() {
                let Some(linked) = env.get(Symbol::intern(name)) else {
                    wrong.push(format!("{name}: not linked"));
                    continue;
                };
                let want = repo.expected_values(i);
                match exported(&linked.values) {
                    Some(got) if got == want => {}
                    got => wrong.push(format!("{name}: (tag, sumDeps) {got:?}, expected {want:?}")),
                }
                pids.insert(name.as_str(), linked.export_pid.to_string());
            }
            v.check(wrong.is_empty(), || {
                format!(
                    "{} unit(s) computed wrong values, e.g. {}",
                    wrong.len(),
                    wrong[0]
                )
            });
            pids
        }
        Err(e) => {
            v.check(false, || format!("oracle execute: {e}"));
            HashMap::new()
        }
    };
    drop(irm);

    let mut scratch = Irm::new(Strategy::Cutoff);
    match scratch.build_with(&project, JOBS, FailurePolicy::FailFast) {
        Ok(_) => {
            let differ = names
                .iter()
                .filter(|n| {
                    let fresh = scratch.bin_meta(n).map(|m| m.export_pid.to_string());
                    fresh.as_deref() != incremental.get(n.as_str()).map(String::as_str)
                })
                .count();
            v.check(differ == 0, || {
                format!("{differ} export pid(s) differ from a from-scratch build")
            });
        }
        Err(e) => v.check(false, || format!("from-scratch build: {e}")),
    }
    let differ = names
        .iter()
        .filter(|n| cli_pids.get(n.as_str()) != incremental.get(n.as_str()))
        .count();
    v.check(differ == 0, || {
        format!("{differ} export pid(s) printed by `smlsc run` differ from the linked state")
    });
    v
}
