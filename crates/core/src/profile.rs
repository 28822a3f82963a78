//! The critical-path profiler: per-unit phase attribution over recorded
//! spans, plus the import-DAG critical path.
//!
//! A [`trace::Collector`] retains every span a build emitted; this
//! module folds them back into *per-unit* rows — which phase of which
//! unit the time went to, on which worker — and combines them with the
//! resolved import graph ([`crate::irm::Irm::import_graph`]) to find the
//! chains that bound the build's wall clock.  `smlsc profile` renders
//! the result; the length-critical path (in units) is computed over the
//! same edges the wavefront scheduler dispatches, so it always agrees
//! with the `irm.critical_path` counter.

use std::collections::HashMap;

use smlsc_ids::Symbol;
use smlsc_trace::names;
use smlsc_trace::sink::CollectedSpan;

use crate::irm::BuildReport;

/// Per-phase totals for one unit, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Dependency analysis (`irm.analyze`).
    pub analyze_us: u64,
    /// Lexing + parsing (`compile.parse`).
    pub parse_us: u64,
    /// Elaboration (`compile.elaborate`).
    pub elaborate_us: u64,
    /// Interface hashing (`compile.hash`).
    pub hash_us: u64,
    /// Export-environment pickling (`compile.dehydrate`).
    pub dehydrate_us: u64,
    /// Unpickling cached exports (`irm.rehydrate`).
    pub rehydrate_us: u64,
}

impl PhaseBreakdown {
    /// Sum of all attributed phases.
    pub fn total_us(&self) -> u64 {
        self.analyze_us
            + self.parse_us
            + self.elaborate_us
            + self.hash_us
            + self.dehydrate_us
            + self.rehydrate_us
    }
}

/// One unit's reconstructed profile.
#[derive(Debug, Clone)]
pub struct UnitProfile {
    /// The unit.
    pub unit: String,
    /// Wall time attributed to the unit: its `irm.task` span when the
    /// build was parallel, else the sum of its phase spans.
    pub wall_us: u64,
    /// Wall time not explained by any known phase (scheduling, rebuild
    /// decision, store probes).
    pub self_us: u64,
    /// The per-phase split.
    pub phases: PhaseBreakdown,
    /// The worker (dense thread tag) that ran the unit's task, when the
    /// build was parallel.
    pub worker: Option<u64>,
}

/// A whole build's profile, reconstructed from spans + the import DAG.
#[derive(Debug, Clone)]
pub struct BuildProfile {
    /// Per-unit rows, sorted by wall time descending.
    pub units: Vec<UnitProfile>,
    /// Whole-build wall clock (the `irm.build` span), microseconds.
    pub wall_us: u64,
    /// Longest import chain in units — the same number the wavefront
    /// scheduler publishes as the `irm.critical_path` counter.
    pub critical_path: usize,
    /// The heaviest chain by attributed time, root first.
    pub critical_chain: Vec<String>,
    /// Total attributed time along [`Self::critical_chain`].
    pub critical_chain_us: u64,
    /// Units whose compile was avoided (reused + cutoff + store hits).
    pub avoided_units: u64,
    /// Mean cost of one compile this build, if anything compiled.
    pub mean_compile_us: Option<u64>,
    /// Estimated wall time the caches saved vs recompiling every
    /// avoided unit (`avoided × mean compile cost`); `None` when no
    /// per-compile cost estimate is available.
    pub saved_us: Option<u64>,
}

impl BuildProfile {
    /// Reconstructs a profile from a build's retained spans, the
    /// resolved import graph (topological order, as returned by
    /// [`crate::irm::Irm::import_graph`]), and the build report.
    ///
    /// `mean_compile_us_hint` supplies a per-compile cost estimate for
    /// builds that compiled nothing (e.g. the median of ledger history);
    /// it is ignored when this build measured its own compiles.
    pub fn compute(
        spans: &[CollectedSpan],
        graph: &[(Symbol, Vec<Symbol>)],
        report: &BuildReport,
        mean_compile_us_hint: Option<u64>,
    ) -> BuildProfile {
        let mut phases: HashMap<String, PhaseBreakdown> = HashMap::new();
        let mut tasks: HashMap<String, (u64, u64)> = HashMap::new();
        let mut wall_us = 0u64;
        for s in spans {
            if s.name == names::SPAN_BUILD {
                wall_us = wall_us.max(s.dur_us);
                continue;
            }
            let Some(unit) = s.fields.iter().find(|(k, _)| k == "unit").map(|(_, v)| v) else {
                continue;
            };
            if s.name == names::SPAN_TASK {
                let e = tasks.entry(unit.clone()).or_insert((0, s.tid));
                e.0 += s.dur_us;
                e.1 = s.tid;
                continue;
            }
            let p = phases.entry(unit.clone()).or_default();
            match s.name {
                names::SPAN_ANALYZE => p.analyze_us += s.dur_us,
                names::SPAN_PARSE => p.parse_us += s.dur_us,
                names::SPAN_ELABORATE => p.elaborate_us += s.dur_us,
                names::SPAN_HASH => p.hash_us += s.dur_us,
                names::SPAN_DEHYDRATE => p.dehydrate_us += s.dur_us,
                names::SPAN_REHYDRATE => p.rehydrate_us += s.dur_us,
                _ => {}
            }
        }

        // Per-unit rows in graph order (every planned unit gets one,
        // even if it spent no measurable time).
        let mut units: Vec<UnitProfile> = graph
            .iter()
            .map(|(unit, _)| {
                let name = unit.as_str().to_string();
                let p = phases.get(&name).copied().unwrap_or_default();
                let task = tasks.get(&name);
                let wall = task.map(|(d, _)| *d).unwrap_or(0).max(p.total_us());
                UnitProfile {
                    self_us: wall.saturating_sub(p.total_us()),
                    wall_us: wall,
                    worker: task.map(|(_, tid)| *tid),
                    phases: p,
                    unit: name,
                }
            })
            .collect();
        let attributed: HashMap<&str, u64> =
            units.iter().map(|u| (u.unit.as_str(), u.wall_us)).collect();

        // Critical paths over the DAG.  `graph` is topological, so every
        // import's entry is finished before its dependents read it.
        // `len` counts units (matching `irm.critical_path`); `cost` is
        // the time-weighted variant rendered as the critical chain.
        let index: HashMap<Symbol, usize> = graph
            .iter()
            .enumerate()
            .map(|(i, (u, _))| (*u, i))
            .collect();
        let n = graph.len();
        let mut len = vec![1usize; n];
        let mut cost = vec![0u64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        for (i, (unit, imports)) in graph.iter().enumerate() {
            cost[i] = attributed.get(unit.as_str()).copied().unwrap_or(0);
            for dep in imports {
                let d = index[dep];
                len[i] = len[i].max(len[d] + 1);
                if cost[d] > pred[i].map(|p| cost[p]).unwrap_or(0) {
                    pred[i] = Some(d);
                }
            }
            if let Some(p) = pred[i] {
                cost[i] += cost[p];
            }
        }
        let critical_path = len.iter().copied().max().unwrap_or(0);
        let mut critical_chain = Vec::new();
        let mut critical_chain_us = 0;
        if let Some(mut at) = (0..n).max_by_key(|&i| cost[i]) {
            critical_chain_us = cost[at];
            loop {
                critical_chain.push(graph[at].0.as_str().to_string());
                match pred[at] {
                    Some(p) => at = p,
                    None => break,
                }
            }
            critical_chain.reverse();
        }

        // What the caches saved: every avoided compile would have cost
        // about one mean compile.  A build that compiled something
        // measures its own mean; otherwise the caller's hint (history).
        let compiled = report.recompiled.len() as u64;
        let avoided = (report.reused + report.store_hits.len()) as u64;
        let measured_mean =
            (compiled > 0).then(|| report.timings.total().as_micros() as u64 / compiled);
        let mean_compile_us = measured_mean.or(mean_compile_us_hint);
        let saved_us = mean_compile_us.map(|m| m * avoided);

        units.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then(a.unit.cmp(&b.unit)));
        BuildProfile {
            units,
            wall_us,
            critical_path,
            critical_chain,
            critical_chain_us,
            avoided_units: avoided,
            mean_compile_us,
            saved_us,
        }
    }

    /// Renders the profile as the human-readable report `smlsc profile`
    /// prints: top-`k` slowest units with their phase breakdown, the
    /// critical path/chain, and the estimated cache savings.
    pub fn render(&self, k: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} unit(s), wall {}, critical path {} unit(s)",
            self.units.len(),
            fmt_us(self.wall_us),
            self.critical_path
        );
        let shown = self.units.iter().filter(|u| u.wall_us > 0).take(k);
        let _ = writeln!(
            out,
            "  {:<18} {:>9} {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8}  {:>6}",
            "unit", "wall", "self", "analyze", "parse", "elab", "hash", "pickle", "worker"
        );
        for u in shown {
            let _ = writeln!(
                out,
                "  {:<18} {:>9} {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8}  {:>6}",
                u.unit,
                fmt_us(u.wall_us),
                fmt_us(u.self_us),
                fmt_us(u.phases.analyze_us),
                fmt_us(u.phases.parse_us),
                fmt_us(u.phases.elaborate_us),
                fmt_us(u.phases.hash_us),
                fmt_us(u.phases.dehydrate_us + u.phases.rehydrate_us),
                u.worker
                    .map(|w| w.to_string())
                    .unwrap_or_else(|| "-".into())
            );
        }
        if !self.critical_chain.is_empty() && self.critical_chain_us > 0 {
            let _ = writeln!(
                out,
                "  critical chain ({}): {}",
                fmt_us(self.critical_chain_us),
                self.critical_chain.join(" -> ")
            );
        }
        match (self.saved_us, self.mean_compile_us) {
            (Some(saved), Some(mean)) if self.avoided_units > 0 => {
                let paranoid = self.wall_us + saved;
                let pct = if paranoid > 0 {
                    100.0 * saved as f64 / paranoid as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  avoided {} compile(s) (~{} each): est. {} saved, {:.1}% of a rebuild-everything build",
                    self.avoided_units,
                    fmt_us(mean),
                    fmt_us(saved),
                    pct
                );
            }
            _ if self.avoided_units > 0 => {
                let _ = writeln!(
                    out,
                    "  avoided {} compile(s) (no per-compile cost measured yet)",
                    self.avoided_units
                );
            }
            _ => {}
        }
        out
    }
}

/// Microseconds, human-formatted (µs under 1 ms, else ms).
fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else {
        format!("{:.2}ms", us as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irm::{Irm, Project, Strategy};
    use smlsc_trace as trace;

    fn chain_project() -> Project {
        let mut p = Project::new();
        p.add("a", "structure A = struct val x = 1 end");
        p.add("b", "structure B = struct val y = A.x + 1 end");
        p.add("c", "structure C = struct val z = B.y + 1 end");
        p
    }

    #[test]
    fn profile_attributes_phases_and_critical_path() {
        // One scheduler at every width: single-worker (jobs 1) and
        // threaded builds profile alike.
        for jobs in [1, 4] {
            let p = chain_project();
            let collector = trace::Collector::new();
            collector.install();
            let mut irm = Irm::new(Strategy::Cutoff);
            let report = irm.build_with_jobs(&p, jobs).unwrap();
            trace::uninstall();
            let graph = irm.import_graph(&p).unwrap();
            let spans = collector.spans();
            let profile = BuildProfile::compute(&spans, &graph, &report, None);

            assert_eq!(profile.units.len(), 3, "jobs {jobs}");
            assert_eq!(profile.critical_path, 3, "jobs {jobs}: a -> b -> c");
            assert_eq!(
                profile.critical_path as u64,
                collector.counter(names::CRITICAL_PATH),
                "jobs {jobs}: profile must agree with the scheduler's counter"
            );
            // Every compiled unit has attributed parse + elaborate time
            // and a worker tag from its task span.
            for u in &profile.units {
                assert!(u.wall_us > 0, "jobs {jobs}: {u:?}");
                assert!(
                    u.phases.parse_us > 0 || u.phases.elaborate_us > 0,
                    "jobs {jobs}: {u:?}"
                );
                assert!(u.worker.is_some(), "jobs {jobs}: {u:?}");
                assert_eq!(u.self_us, u.wall_us - u.phases.total_us());
            }
            assert_eq!(profile.critical_chain, vec!["a", "b", "c"], "jobs {jobs}");
            let rendered = profile.render(10);
            assert!(rendered.contains("critical path 3 unit(s)"), "{rendered}");
            assert!(rendered.contains("critical chain"), "{rendered}");
            if jobs == 1 {
                // One worker: every task runs on the thread that opened
                // the build span.
                let caller = spans
                    .iter()
                    .find(|s| s.name == names::SPAN_BUILD)
                    .expect("build span")
                    .tid;
                let tasks: Vec<_> = spans
                    .iter()
                    .filter(|s| s.name == names::SPAN_TASK)
                    .collect();
                assert_eq!(tasks.len(), 3);
                assert!(tasks.iter().all(|s| s.tid == caller), "{tasks:?}");
            }
        }
    }

    #[test]
    fn warm_build_profile_estimates_savings_from_hint() {
        let p = chain_project();
        let mut irm = Irm::new(Strategy::Cutoff);
        irm.build(&p).unwrap();
        // Warm build: everything reused, nothing compiled.
        let collector = trace::Collector::new();
        collector.install();
        let report = irm.build(&p).unwrap();
        trace::uninstall();
        let graph = irm.import_graph(&p).unwrap();
        assert_eq!(report.recompiled.len(), 0);
        let profile = BuildProfile::compute(&collector.spans(), &graph, &report, Some(500));
        assert_eq!(profile.avoided_units, 3);
        assert_eq!(profile.saved_us, Some(1500));
        let none = BuildProfile::compute(&collector.spans(), &graph, &report, None);
        assert_eq!(none.saved_us, None);
        assert!(none.render(5).contains("no per-compile cost"), "render");
    }
}
