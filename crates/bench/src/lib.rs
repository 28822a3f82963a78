//! Shared machinery for the `smlsc` benchmark harness.
//!
//! The [`paper_tables`](../src/bin/paper_tables.rs) binary regenerates
//! every quantitative claim of the paper (experiments E1–E6 in
//! `EXPERIMENTS.md`); the criterion suite in `benches/micro.rs` covers the
//! micro costs (digesting, hashing, pickling, compiling).

pub mod gate;

use std::time::{Duration, Instant};

use smlsc_core::irm::{Irm, Strategy};
use smlsc_core::trace;
use smlsc_workload::{EditKind, Topology, Workload, WorkloadSpec};

/// A generated workload together with the knobs used to build it.
pub fn workload(topology: Topology, funs: usize, relay: bool) -> Workload {
    Workload::new(WorkloadSpec {
        topology,
        funs_per_module: funs,
        reexport_dep_types: relay,
    })
}

/// The standard "paper-scale" library workload: ~200 units; `funs`
/// controls total lines (the paper's corpus was ≈65,000 lines across
/// ≈200 units).
pub fn paper_scale(funs: usize) -> Workload {
    workload(
        Topology::Library {
            lib: 30,
            clients: 170,
            seed: 1994,
        },
        funs,
        false,
    )
}

/// Times one full build of a fresh manager over `w`.
pub fn time_full_build(
    w: &Workload,
    strategy: Strategy,
) -> (Irm, smlsc_core::BuildReport, Duration) {
    let mut irm = Irm::new(strategy);
    let t0 = Instant::now();
    let report = irm.build(w.project()).expect("workload builds");
    let total = t0.elapsed();
    (irm, report, total)
}

/// Like [`time_full_build`], but with a telemetry [`trace::Collector`]
/// installed for the duration of the build, so callers can report real
/// per-phase duration histograms instead of just aggregate sums.
pub fn time_full_build_with_telemetry(
    w: &Workload,
    strategy: Strategy,
) -> (Irm, smlsc_core::BuildReport, Duration, trace::Collector) {
    let collector = trace::Collector::new();
    collector.install();
    let mut irm = Irm::new(strategy);
    let t0 = Instant::now();
    let report = irm.build(w.project()).expect("workload builds");
    let total = t0.elapsed();
    trace::uninstall();
    (irm, report, total, collector)
}

/// One formatted row of a per-phase histogram table: `count`, quantiles
/// and max in µs, or `None` when the phase never ran.
pub fn histogram_row(collector: &trace::Collector, name: &str) -> Option<String> {
    let h = collector.histogram(name)?;
    Some(format!(
        "{:<20} {:>7} {:>9} {:>9} {:>9} {:>9}",
        name,
        h.count(),
        h.quantile_us(0.50),
        h.quantile_us(0.90),
        h.quantile_us(0.99),
        h.max_us()
    ))
}

/// Units recompiled after applying `kind` at `victim` under `strategy`.
pub fn recompiles_after_edit(
    topology: Topology,
    funs: usize,
    relay: bool,
    kind: EditKind,
    strategy: Strategy,
) -> (usize, usize) {
    let mut w = workload(topology, funs, relay);
    let victim = w.most_depended_on();
    let mut irm = Irm::new(strategy);
    irm.build(w.project()).expect("initial build");
    w.edit(victim, kind);
    let report = irm.build(w.project()).expect("incremental build");
    (report.recompiled.len(), w.module_count())
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Percent of `part` in `whole`.
pub fn pct(part: Duration, whole: Duration) -> String {
    if whole.is_zero() {
        return "-".into();
    }
    format!("{:.1}%", 100.0 * part.as_secs_f64() / whole.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_has_about_200_units() {
        let w = paper_scale(2);
        assert_eq!(w.module_count(), 200);
    }

    #[test]
    fn recompiles_helper_matches_expectations() {
        let (n, total) = recompiles_after_edit(
            Topology::Chain { n: 10 },
            2,
            false,
            EditKind::BodyOnly,
            Strategy::Cutoff,
        );
        assert_eq!((n, total), (1, 10));
        let (n, _) = recompiles_after_edit(
            Topology::Chain { n: 10 },
            2,
            false,
            EditKind::BodyOnly,
            Strategy::Classical,
        );
        assert_eq!(n, 10);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.00");
        assert_eq!(pct(Duration::from_secs(1), Duration::from_secs(4)), "25.0%");
        assert_eq!(pct(Duration::from_secs(1), Duration::ZERO), "-");
    }
}
