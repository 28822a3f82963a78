//! The CI perf-regression gate: compares a fresh `BENCH_monorepo.json`
//! document against the committed baseline with explicit tolerances,
//! and checks the build ledger's warm-build smoke invariant.
//!
//! Rows are matched by `(units, jobs, mode)`.  A baseline row the fresh
//! run did not measure is skipped, so a `--smoke` fresh run (N = 5,000
//! only) gates against the full committed table.  A fresh row or metric
//! the baseline lacks fails: a re-keyed table, or a baseline that was
//! never regenerated, must not pass having checked nothing.
//! Tolerances are a multiplicative factor plus an absolute slack, so
//! microsecond-scale rows are not gated to CI timer noise.

use std::fmt;

use serde::Value;

/// How much slower a fresh measurement may be before it is a
/// regression: `fresh <= baseline * factor + slack_ms`.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Multiplicative allowance (2.0 = may take twice as long).
    pub factor: f64,
    /// Absolute allowance in milliseconds, absorbing scheduler noise on
    /// sub-millisecond rows.
    pub slack_ms: f64,
}

impl Default for Tolerance {
    /// CI defaults: generous enough for shared-runner noise, tight
    /// enough to catch a real algorithmic regression.
    fn default() -> Tolerance {
        Tolerance {
            factor: 2.0,
            slack_ms: 200.0,
        }
    }
}

impl Tolerance {
    /// The limit a fresh measurement must stay under for `baseline_ms`.
    pub fn limit_ms(&self, baseline_ms: f64) -> f64 {
        baseline_ms * self.factor + self.slack_ms
    }
}

/// One regression: a row that measured over its limit.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Which row (bench kind + matching key + metric name).
    pub what: String,
    /// The committed baseline measurement, ms.
    pub baseline_ms: f64,
    /// The fresh measurement, ms.
    pub fresh_ms: f64,
    /// The limit the fresh measurement broke, ms.
    pub limit_ms: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2}ms -> {:.2}ms (limit {:.2}ms)",
            self.what, self.baseline_ms, self.fresh_ms, self.limit_ms
        )
    }
}

/// The gate's verdict over one baseline/fresh pair.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Metrics compared.
    pub checked: usize,
    /// Baseline rows and metrics the fresh run did not measure —
    /// reported, never failed.
    pub skipped: usize,
    /// Fresh rows and metrics with no baseline counterpart — each one a
    /// failure.
    pub unmatched: Vec<String>,
    /// Rows that broke their limit.
    pub regressions: Vec<Regression>,
}

impl GateOutcome {
    /// True when something was checked, every fresh measurement had a
    /// baseline, and nothing regressed.
    pub fn passed(&self) -> bool {
        self.checked > 0 && self.unmatched.is_empty() && self.regressions.is_empty()
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

fn field_num(v: &Value, key: &str) -> Option<f64> {
    get(v, key).and_then(num)
}

fn rows(doc: &Value) -> &[Value] {
    match get(doc, "rows") {
        Some(Value::Seq(items)) => items,
        _ => &[],
    }
}

/// The metrics a row may carry; each mode measures a subset.
const METRICS: [&str; 4] = ["cold_ms", "noop_ms", "event_noop_ms", "leaf_edit_ms"];

/// A row's identity: (units, jobs, mode).
type Key = (u64, u64, String);

fn key(row: &Value) -> Option<Key> {
    Some((
        field_num(row, "units")? as u64,
        field_num(row, "jobs")? as u64,
        get(row, "mode").and_then(text)?.to_string(),
    ))
}

/// Compares a fresh `monorepo` document against its baseline.
///
/// # Errors
///
/// A message when either document is not a `monorepo` document (a
/// malformed document must fail CI loudly, not pass silently).
pub fn compare(baseline: &Value, fresh: &Value, tol: &Tolerance) -> Result<GateOutcome, String> {
    for (doc, which) in [(baseline, "baseline"), (fresh, "fresh output")] {
        match get(doc, "bench").and_then(text) {
            Some("monorepo") => {}
            Some(other) => return Err(format!("{which} is `{other}`, not a monorepo document")),
            None => return Err(format!("{which} has no \"bench\" field")),
        }
    }
    let mut outcome = GateOutcome::default();
    let base_rows = rows(baseline);
    let fresh_keys: Vec<Option<Key>> = rows(fresh).iter().map(key).collect();
    outcome.skipped += base_rows
        .iter()
        .filter(|b| !fresh_keys.contains(&key(b)))
        .count();
    for (frow, fkey) in rows(fresh).iter().zip(&fresh_keys) {
        let Some(k @ (units, jobs, mode)) = fkey else {
            outcome
                .unmatched
                .push("monorepo: a fresh row has no (units, jobs, mode) key".into());
            continue;
        };
        let Some(brow) = base_rows.iter().find(|b| key(b).as_ref() == Some(k)) else {
            outcome.unmatched.push(format!(
                "monorepo units={units} jobs={jobs} mode={mode}: no baseline row"
            ));
            continue;
        };
        for metric in METRICS {
            let what = format!("monorepo units={units} jobs={jobs} mode={mode} {metric}");
            match (field_num(brow, metric), field_num(frow, metric)) {
                (Some(base), Some(fresh)) => {
                    outcome.checked += 1;
                    let limit = tol.limit_ms(base);
                    if fresh > limit {
                        outcome.regressions.push(Regression {
                            what,
                            baseline_ms: base,
                            fresh_ms: fresh,
                            limit_ms: limit,
                        });
                    }
                }
                (Some(_), None) => outcome.skipped += 1,
                (None, Some(_)) => outcome.unmatched.push(format!("{what}: no baseline")),
                (None, None) => {}
            }
        }
    }
    check_scaling(rows(fresh), &mut outcome);
    Ok(outcome)
}

/// How much faster than linear growth the warm no-op may fall short:
/// doubling the unit count may cost at most 2.5x the time (growing
/// 10x may cost at most 12.5x).  A superlinear warm path — the
/// classic O(n^2) accident — blows through this on the first doubling.
const SCALING_HEADROOM: f64 = 1.25;
/// Absolute slack for the scaling check: sub-10ms rows are dominated
/// by scheduler noise, not algorithmic growth.
const SCALING_SLACK_MS: f64 = 10.0;

/// The within-document scaling gate: for every pair of adjacent unit
/// counts in one `(jobs, mode)` series, the no-op time must grow at
/// most ~linearly in the unit count.  Unlike the row-matched baseline
/// comparison this self-check needs no committed history — a fresh
/// superlinear curve fails even against an equally bad baseline.
fn check_scaling(rows: &[Value], outcome: &mut GateOutcome) {
    let mut points: Vec<(u64, String, u64, f64)> = rows
        .iter()
        .filter_map(|r| {
            let (units, jobs, mode) = key(r)?;
            Some((jobs, mode, units, field_num(r, "noop_ms")?))
        })
        .collect();
    points.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    for pair in points.windows(2) {
        let (jobs, mode, units_lo, noop_lo) = &pair[0];
        let (jobs_hi, mode_hi, units_hi, noop_hi) = &pair[1];
        if (jobs, mode) != (jobs_hi, mode_hi) || *units_lo == 0 || units_hi <= units_lo {
            continue;
        }
        outcome.checked += 1;
        let ratio = *units_hi as f64 / *units_lo as f64;
        let limit = noop_lo * ratio * SCALING_HEADROOM + SCALING_SLACK_MS;
        if *noop_hi > limit {
            outcome.regressions.push(Regression {
                what: format!(
                    "monorepo scaling jobs={jobs} mode={mode} noop_ms {units_lo}->{units_hi} units \
                     ({ratio:.1}x units may cost at most {:.1}x time)",
                    ratio * SCALING_HEADROOM
                ),
                baseline_ms: *noop_lo,
                fresh_ms: *noop_hi,
                limit_ms: limit,
            });
        }
    }
}

/// CI's warm-build ledger smoke: the newest record in `builds.jsonl`
/// must be a clean zero-compile build (the project was just built, so a
/// second build must hit every cache).
///
/// # Errors
///
/// A message when the ledger is empty or its newest record compiled
/// anything or exited non-zero.
pub fn check_warm_ledger(ledger_path: &std::path::Path) -> Result<(), String> {
    // Streamed, not collected: the gate needs one record's worth of
    // memory no matter how long the build history is.
    let last = smlsc_core::Ledger::new(ledger_path)
        .stream()
        .last()
        .ok_or_else(|| format!("{}: no ledger records", ledger_path.display()))?;
    if last.compiled != 0 {
        return Err(format!(
            "{}: newest build compiled {} unit(s); a warm build must compile 0",
            ledger_path.display(),
            last.compiled
        ));
    }
    if last.exit_code != 0 {
        return Err(format!(
            "{}: newest build exited {}",
            ledger_path.display(),
            last.exit_code
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::parse_value(s.as_bytes()).expect("fixture parses")
    }

    /// A smoke-shaped document: one row per mode at 5,000 units, each
    /// mode's metrics `scale(mode)` times a base value.
    fn doc_by_mode(scale: impl Fn(&str) -> f64) -> Value {
        let m = |mode: &str, ms: f64| ms * scale(mode);
        parse(&format!(
            r#"{{"bench":"monorepo","runs_per_point":3,"smoke":true,"host_parallelism":2,"underpowered_host":false,"rows":[
                {{"units":5000,"jobs":1,"mode":"stamped","cold_ms":{},"noop_ms":{},"leaf_edit_ms":{}}},
                {{"units":5000,"jobs":2,"mode":"paranoid","noop_ms":{},"leaf_edit_ms":{}}},
                {{"units":5000,"jobs":2,"mode":"daemon","noop_ms":{},"event_noop_ms":{},"leaf_edit_ms":{}}},
                {{"units":5000,"jobs":2,"mode":"store","cold_ms":{}}}]}}"#,
            m("stamped", 1000.0),
            m("stamped", 40.0),
            m("stamped", 50.0),
            m("paranoid", 100.0),
            m("paranoid", 110.0),
            m("daemon", 0.5),
            m("daemon", 15.0),
            m("daemon", 20.0),
            m("store", 400.0),
        ))
    }

    fn doc(scale: f64) -> Value {
        doc_by_mode(|_| scale)
    }

    /// `doc(1.0)` with one mode's row slowed down 2x.
    fn one_mode_slow(slow: &str) -> Value {
        doc_by_mode(|mode| if mode == slow { 2.0 } else { 1.0 })
    }

    fn strict() -> Tolerance {
        Tolerance {
            factor: 1.5,
            slack_ms: 0.0,
        }
    }

    #[test]
    fn identical_output_passes() {
        let outcome = compare(&doc(1.0), &doc(1.0), &Tolerance::default()).unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(outcome.checked, 9);
        assert_eq!(outcome.skipped, 0);
    }

    #[test]
    fn synthetic_2x_slowdown_fails_every_metric() {
        // The acceptance fixture: a 2x slowdown against a strict-factor
        // tolerance must be a regression on every matched metric.
        let outcome = compare(&doc(1.0), &doc(2.0), &strict()).unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions.len(), 9);
        let msg = outcome.regressions[0].to_string();
        assert!(
            msg.contains("monorepo units=5000 jobs=1 mode=stamped"),
            "{msg}"
        );
        assert!(msg.contains("limit"), "{msg}");
        // Drop the slack and 2.0x sits exactly at the limit (not over),
        // so it passes.
        let exactly = Tolerance {
            factor: 2.0,
            slack_ms: 0.0,
        };
        assert!(compare(&doc(1.0), &doc(2.0), &exactly).unwrap().passed());
    }

    #[test]
    fn synthetic_2x_slowdown_fails_a_daemon_row() {
        let outcome = compare(&doc(1.0), &one_mode_slow("daemon"), &strict()).unwrap();
        assert!(!outcome.passed());
        let what: Vec<&str> = outcome
            .regressions
            .iter()
            .map(|r| r.what.as_str())
            .collect();
        assert_eq!(
            what,
            [
                "monorepo units=5000 jobs=2 mode=daemon noop_ms",
                "monorepo units=5000 jobs=2 mode=daemon event_noop_ms",
                "monorepo units=5000 jobs=2 mode=daemon leaf_edit_ms",
            ]
        );
    }

    #[test]
    fn synthetic_2x_slowdown_fails_a_store_row() {
        let outcome = compare(&doc(1.0), &one_mode_slow("store"), &strict()).unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions.len(), 1, "{:?}", outcome.regressions);
        assert_eq!(
            outcome.regressions[0].what,
            "monorepo units=5000 jobs=2 mode=store cold_ms"
        );
    }

    #[test]
    fn smoke_rows_are_skipped_but_unmatched_fresh_rows_fail() {
        // A full baseline against a smoke run: the baseline's 50k row
        // was not measured, and is skipped.
        let full = parse(
            r#"{"bench":"monorepo","rows":[
                {"units":5000,"jobs":1,"mode":"stamped","cold_ms":1000.0,"noop_ms":40.0,"leaf_edit_ms":50.0},
                {"units":50000,"jobs":1,"mode":"stamped","cold_ms":9000.0,"noop_ms":400.0,"leaf_edit_ms":500.0}]}"#,
        );
        let smoke = parse(
            r#"{"bench":"monorepo","rows":[
                {"units":5000,"jobs":1,"mode":"stamped","cold_ms":1000.0,"noop_ms":40.0,"leaf_edit_ms":50.0}]}"#,
        );
        let outcome = compare(&full, &smoke, &Tolerance::default()).unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!((outcome.checked, outcome.skipped), (3, 1));

        // The other way round, the fresh 50k row has no baseline: fail.
        let outcome = compare(&smoke, &full, &Tolerance::default()).unwrap();
        assert!(!outcome.passed());
        assert_eq!(
            outcome.unmatched,
            ["monorepo units=50000 jobs=1 mode=stamped: no baseline row"]
        );

        // So does a fresh metric its baseline row lacks.
        let more = parse(
            r#"{"bench":"monorepo","rows":[
                {"units":5000,"jobs":1,"mode":"stamped","cold_ms":1000.0,"noop_ms":40.0,"leaf_edit_ms":50.0,"event_noop_ms":1.0}]}"#,
        );
        let outcome = compare(&smoke, &more, &Tolerance::default()).unwrap();
        assert_eq!(
            outcome.unmatched,
            ["monorepo units=5000 jobs=1 mode=stamped event_noop_ms: no baseline"]
        );
    }

    #[test]
    fn a_rekeyed_table_checking_nothing_fails() {
        // Rows keyed the old way, by (units, jobs) alone: nothing
        // matches, and a comparison that checked 0 metrics fails.
        let old = parse(
            r#"{"bench":"monorepo","rows":[
                {"units":5000,"jobs":4,"cold_ms":754.0,"noop_ms":43.0,"leaf_edit_ms":77.0}]}"#,
        );
        let outcome = compare(&old, &old, &Tolerance::default()).unwrap();
        assert_eq!(outcome.checked, 0);
        assert!(!outcome.passed());
        let empty = parse(r#"{"bench":"monorepo","rows":[]}"#);
        assert!(!compare(&empty, &empty, &Tolerance::default())
            .unwrap()
            .passed());
    }

    #[test]
    fn superlinear_noop_fails_the_scaling_gate_per_series() {
        // 10x the units costing 45x the time is the superlinear warm
        // path this gate exists to catch — even when the committed
        // baseline shows the same bad curve (row-matched comparison
        // alone would pass it).
        let bad = parse(
            r#"{"bench":"monorepo","rows":[
                {"units":5000,"jobs":2,"mode":"paranoid","noop_ms":52.0,"leaf_edit_ms":60.0},
                {"units":50000,"jobs":2,"mode":"paranoid","noop_ms":2356.0,"leaf_edit_ms":2400.0}]}"#,
        );
        let outcome = compare(&bad, &bad, &Tolerance::default()).unwrap();
        assert_eq!(outcome.regressions.len(), 1, "{:?}", outcome.regressions);
        let msg = outcome.regressions[0].to_string();
        assert!(
            msg.contains("monorepo scaling jobs=2 mode=paranoid"),
            "{msg}"
        );
        assert!(msg.contains("5000->50000"), "{msg}");

        // A near-linear curve passes: 10x units, 10x time.
        let good = parse(
            r#"{"bench":"monorepo","rows":[
                {"units":5000,"jobs":2,"mode":"stamped","cold_ms":1000.0,"noop_ms":20.0,"leaf_edit_ms":30.0},
                {"units":50000,"jobs":2,"mode":"stamped","cold_ms":11000.0,"noop_ms":205.0,"leaf_edit_ms":300.0}]}"#,
        );
        assert!(compare(&good, &good, &Tolerance::default())
            .unwrap()
            .passed());

        // Rows of different series, by jobs or by mode, are never
        // compared to each other.
        let cross = parse(
            r#"{"bench":"monorepo","rows":[
                {"units":5000,"jobs":1,"mode":"stamped","cold_ms":1000.0,"noop_ms":10.0,"leaf_edit_ms":30.0},
                {"units":5000,"jobs":2,"mode":"daemon","noop_ms":0.2,"event_noop_ms":5.0,"leaf_edit_ms":9.0},
                {"units":50000,"jobs":2,"mode":"stamped","cold_ms":11000.0,"noop_ms":9999.0,"leaf_edit_ms":300.0},
                {"units":50000,"jobs":1,"mode":"paranoid","noop_ms":9999.0,"leaf_edit_ms":300.0}]}"#,
        );
        assert!(compare(&cross, &cross, &Tolerance::default())
            .unwrap()
            .passed());
    }

    #[test]
    fn other_kinds_and_garbage_are_errors() {
        let base = doc(1.0);
        let other = parse(r#"{"bench":"mystery","rows":[]}"#);
        assert!(compare(&base, &other, &Tolerance::default()).is_err());
        assert!(compare(&other, &other, &Tolerance::default()).is_err());
        let junk = parse(r#"{"rows":[]}"#);
        assert!(compare(&junk, &base, &Tolerance::default()).is_err());
        assert!(compare(&base, &junk, &Tolerance::default()).is_err());
    }

    #[test]
    fn warm_ledger_check() {
        let dir = std::env::temp_dir().join(format!("smlsc-gate-ledger-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("builds.jsonl");
        assert!(check_warm_ledger(&path).is_err(), "empty ledger fails");
        // A cold record then a warm record: the gate looks at the newest.
        let cold = r#"{"version":1,"build_id":1,"timestamp_ms":1,"strategy":"cutoff","jobs":4,"host_parallelism":4,"wall_us":1000,"parse_us":1,"elaborate_us":1,"hash_us":1,"dehydrate_us":1,"rehydrate_us":1,"compiled":3,"reused":0,"cutoff":0,"store_hits":0,"skipped":0,"failed":0,"stamp_hits":0,"stamp_misses":3,"store_misses":0,"deps_cache_hits":0,"deps_cache_misses":3,"source_reads":3,"critical_path":3,"exit_code":0}"#;
        let warm = cold.replace(r#""compiled":3"#, r#""compiled":0"#);
        std::fs::write(&path, format!("{cold}\n")).unwrap();
        assert!(check_warm_ledger(&path).is_err(), "cold newest fails");
        std::fs::write(&path, format!("{cold}\n{warm}\n")).unwrap();
        check_warm_ledger(&path).expect("warm newest passes");
        let failed = warm.replace(r#""exit_code":0"#, r#""exit_code":1"#);
        std::fs::write(&path, format!("{cold}\n{failed}\n")).unwrap();
        assert!(check_warm_ledger(&path).is_err(), "non-zero exit fails");
        std::fs::remove_dir_all(&dir).ok();
    }
}
