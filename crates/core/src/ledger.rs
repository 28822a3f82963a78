//! The persistent build ledger: one JSON record per build, appended to
//! `builds.jsonl` next to `bins.pack`.
//!
//! PR 1 made a build observable *while it runs*; the ledger makes the
//! observations survive the process.  Every build — cold, warm, failed —
//! appends one versioned record (strategy, worker count, wall time,
//! per-phase durations, decision tallies, cache hit counters, critical
//! path, exit status), so hit-rate drift and wall-time regressions are
//! queryable across builds (`smlsc history`) and gateable in CI.
//!
//! Crash safety follows the store journal's discipline:
//!
//! * **Append-only, one line per record.**  Each append is a single
//!   `O_APPEND` write, so concurrent builds interleave whole lines, not
//!   bytes, on POSIX filesystems.
//! * **Torn-tail tolerant.**  A crash (or injected `ledger.append=torn`
//!   fault) can leave a truncated last line.  Readers skip any line that
//!   does not parse as a current-version record — the valid prefix is
//!   kept, the tail discarded — and the next append first terminates an
//!   unterminated tail so the new record never concatenates onto it.
//! * **Bounded rotation.**  When the file exceeds its byte cap, it is
//!   compacted to the newest records via tmp + rename, so the ledger is
//!   O(recent builds), never O(project lifetime).
//! * **Best-effort.**  A build is never failed by its own flight
//!   recorder: callers downgrade append errors to warnings.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use serde::{Deserialize, Serialize};
use smlsc_faults as faults;
use smlsc_store::fsutil;
use smlsc_trace::{self as trace, names};

use crate::irm::BuildReport;
use crate::CoreError;

/// Version of the ledger record format; readers skip other versions.
pub const LEDGER_VERSION: u32 = 1;

/// The ledger file name, next to `bins.pack`.
pub const LEDGER_FILE: &str = "builds.jsonl";

/// Default byte cap before rotation compacts the file.
const DEFAULT_MAX_BYTES: u64 = 512 * 1024;

/// Records kept by a rotation (newest first in age, oldest dropped).
const DEFAULT_KEEP_RECORDS: usize = 512;

/// One build's flight-recorder entry.  All durations are microseconds;
/// all tallies are unit counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LedgerRecord {
    /// Record-format version ([`LEDGER_VERSION`]).
    pub version: u32,
    /// Best-effort unique id (wall clock ⊕ pid).
    pub build_id: u64,
    /// Unix timestamp of the build, milliseconds.
    pub timestamp_ms: u64,
    /// The recompilation strategy (`cutoff`, `timestamp`, `classical`).
    pub strategy: String,
    /// Worker count the build ran with.
    pub jobs: u64,
    /// The host's available CPU parallelism at build time.
    pub host_parallelism: u64,
    /// Whole-build wall clock.
    pub wall_us: u64,
    /// Parse phase total across compiled units.
    pub parse_us: u64,
    /// Elaboration phase total.
    pub elaborate_us: u64,
    /// Interface-hash phase total.
    pub hash_us: u64,
    /// Dehydrate (pickle) phase total.
    pub dehydrate_us: u64,
    /// Rehydrate (unpickle) total.
    pub rehydrate_us: u64,
    /// Units compiled fresh.
    pub compiled: u64,
    /// Units reused untouched.
    pub reused: u64,
    /// Cutoff hits (dependency rebuilt, export pid unchanged).
    pub cutoff: u64,
    /// Recompile verdicts satisfied by the shared artifact store.
    pub store_hits: u64,
    /// Units skipped behind a failed import (keep-going builds).
    pub skipped: u64,
    /// Units whose compile failed.
    pub failed: u64,
    /// Stamp-cache hits (source neither read nor digested).
    pub stamp_hits: u64,
    /// Stamp-cache misses.
    pub stamp_misses: u64,
    /// Artifact-store misses.
    pub store_misses: u64,
    /// Dependency-analysis cache hits.
    pub deps_cache_hits: u64,
    /// Dependency-analysis cache misses.
    pub deps_cache_misses: u64,
    /// Source files actually read from disk.
    pub source_reads: u64,
    /// Longest scheduled import chain, in units (0 when nothing was
    /// scheduled, e.g. a no-op build).
    pub critical_path: u64,
    /// The process exit code the build mapped to (0 ok, 1 compile,
    /// 3 internal, 4 store/IO).
    pub exit_code: u32,
    /// 1 when the build was served by the resident daemon, 0 for an
    /// in-process CLI build.  Absent in pre-daemon ledgers (read as 0).
    pub daemon: u64,
}

// Deserialization is hand-written, not derived, so `daemon` can default
// when absent: the vendored serde derive hard-errors on missing fields,
// and a derived impl would silently drop every record written before
// the field existed from `smlsc history`, rotation, and the CI gate.
impl<'de> Deserialize<'de> for LedgerRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v.as_map("LedgerRecord")?;
        let field = |key: &str| serde::Value::map_get(m, key);
        let num = |key: &str| -> Result<u64, serde::Error> { u64::from_value(field(key)?) };
        Ok(LedgerRecord {
            version: u32::from_value(field("version")?)?,
            build_id: num("build_id")?,
            timestamp_ms: num("timestamp_ms")?,
            strategy: String::from_value(field("strategy")?)?,
            jobs: num("jobs")?,
            host_parallelism: num("host_parallelism")?,
            wall_us: num("wall_us")?,
            parse_us: num("parse_us")?,
            elaborate_us: num("elaborate_us")?,
            hash_us: num("hash_us")?,
            dehydrate_us: num("dehydrate_us")?,
            rehydrate_us: num("rehydrate_us")?,
            compiled: num("compiled")?,
            reused: num("reused")?,
            cutoff: num("cutoff")?,
            store_hits: num("store_hits")?,
            skipped: num("skipped")?,
            failed: num("failed")?,
            stamp_hits: num("stamp_hits")?,
            stamp_misses: num("stamp_misses")?,
            store_misses: num("store_misses")?,
            deps_cache_hits: num("deps_cache_hits")?,
            deps_cache_misses: num("deps_cache_misses")?,
            source_reads: num("source_reads")?,
            critical_path: num("critical_path")?,
            exit_code: u32::from_value(field("exit_code")?)?,
            daemon: match field("daemon") {
                Ok(v) => u64::from_value(v)?,
                Err(_) => 0,
            },
        })
    }
}

impl LedgerRecord {
    /// Builds a record from a finished build: decision tallies from the
    /// report, cache hit counters and the critical path from the
    /// collector, identity and timing from the caller.
    pub fn from_build(
        report: &BuildReport,
        collector: &trace::Collector,
        jobs: usize,
        wall_us: u64,
        exit_code: i32,
    ) -> LedgerRecord {
        let now_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let cutoff = report
            .decisions
            .iter()
            .filter(|(_, d)| d.kind() == "cutoff")
            .count() as u64;
        LedgerRecord {
            version: LEDGER_VERSION,
            build_id: now_ms
                .wrapping_mul(0x1_0000)
                .wrapping_add(u64::from(std::process::id() & 0xFFFF)),
            timestamp_ms: now_ms,
            strategy: report.strategy.to_string(),
            jobs: jobs as u64,
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            wall_us,
            parse_us: us(report.timings.parse),
            elaborate_us: us(report.timings.elaborate),
            hash_us: us(report.timings.hash),
            dehydrate_us: us(report.timings.dehydrate),
            rehydrate_us: us(report.rehydrate),
            compiled: report.recompiled.len() as u64,
            reused: report.reused.len() as u64,
            cutoff,
            store_hits: report.store_hits.len() as u64,
            skipped: report.skipped.len() as u64,
            failed: report.failed.len() as u64,
            stamp_hits: collector.counter(names::STAMP_HITS),
            stamp_misses: collector.counter(names::STAMP_MISSES),
            store_misses: collector.counter(names::STORE_MISSES),
            deps_cache_hits: collector.counter(names::DEPS_CACHE_HITS),
            deps_cache_misses: collector.counter(names::DEPS_CACHE_MISSES),
            source_reads: collector.counter(names::SOURCE_READS),
            critical_path: collector.counter(names::CRITICAL_PATH),
            exit_code: u32::try_from(exit_code).unwrap_or(u32::MAX),
            daemon: 0,
        }
    }

    /// The same record tagged as daemon-served (see the `daemon` field).
    #[must_use]
    pub fn tagged_daemon(mut self) -> LedgerRecord {
        self.daemon = 1;
        self
    }
}

fn us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// What [`Ledger::audit`] found: the doctor's view of one ledger file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerAudit {
    /// Raw newline-terminated lines in the file.
    pub lines: usize,
    /// Lines that parse as current-version records.
    pub valid: usize,
    /// True when the file ends mid-line (crash during an append).
    pub torn_tail: bool,
}

impl LedgerAudit {
    /// True when every line is a valid record and the tail is whole.
    pub fn is_healthy(&self) -> bool {
        self.lines == self.valid && !self.torn_tail
    }
}

/// Handle on one `builds.jsonl` file.
#[derive(Debug, Clone)]
pub struct Ledger {
    path: PathBuf,
    max_bytes: u64,
    keep_records: usize,
}

impl Ledger {
    /// The ledger at an explicit path.
    pub fn new(path: impl Into<PathBuf>) -> Ledger {
        Ledger {
            path: path.into(),
            max_bytes: DEFAULT_MAX_BYTES,
            keep_records: DEFAULT_KEEP_RECORDS,
        }
    }

    /// The ledger for a project's bin directory
    /// (`<bin_dir>/builds.jsonl`, next to `bins.pack`).
    pub fn for_bin_dir(bin_dir: &Path) -> Ledger {
        Ledger::new(bin_dir.join(LEDGER_FILE))
    }

    /// Overrides the rotation caps (tests).
    #[must_use]
    pub fn with_caps(mut self, max_bytes: u64, keep_records: usize) -> Ledger {
        self.max_bytes = max_bytes;
        self.keep_records = keep_records;
        self
    }

    /// The underlying file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a single `O_APPEND` line write that heals
    /// a torn tail first ([`fsutil::append_line`]), so a previous
    /// crash's garbage never swallows this record.  Rotates afterwards
    /// if the file outgrew its cap.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures (or an injected
    /// `ledger.append=io` fault).  Callers should treat this as a
    /// warning: the ledger never fails a build.
    pub fn append(&self, record: &LedgerRecord) -> Result<(), CoreError> {
        let json = serde_json::to_string(record).expect("ledger record serializes");
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| CoreError::Io(format!("{}: {e}", dir.display())))?;
        }
        fsutil::append_line(&self.path, &json, Some(faults::points::LEDGER_APPEND))
            .map_err(|e| CoreError::Io(format!("{}: {e}", self.path.display())))?;
        trace::counter(names::LEDGER_APPENDS, 1);
        self.rotate_if_needed()
    }

    /// Lazily streams every parseable current-version record, oldest
    /// first, one buffered line at a time — memory stays O(1 record)
    /// however long the history is, so `smlsc history`/`profile` and the
    /// CI ledger gate never materialize the whole file.  Malformed lines
    /// (torn tails, other versions, foreign garbage) are skipped, never
    /// an error — a missing file is simply an empty stream.
    pub fn stream(&self) -> impl Iterator<Item = LedgerRecord> {
        use std::io::BufRead;
        let lines = std::fs::File::open(&self.path)
            .ok()
            .map(|f| std::io::BufReader::new(f).lines());
        lines.into_iter().flatten().filter_map(|line| {
            let line = line.ok()?;
            let r = serde_json::from_str::<LedgerRecord>(&line).ok()?;
            (r.version == LEDGER_VERSION).then_some(r)
        })
    }

    /// All records of [`Self::stream`], collected.  Prefer `stream` when
    /// a running aggregate is enough.
    pub fn read(&self) -> Vec<LedgerRecord> {
        self.stream().collect()
    }

    /// Size of the ledger file in bytes (0 when missing).
    pub fn size_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }

    /// Compacts to the newest [`Self::keep_records`] records when the
    /// file exceeds its byte cap, atomically and durably
    /// ([`fsutil::commit_atomic`], fault point `ledger.rotate`)
    /// so readers never observe a half-rotated ledger.
    fn rotate_if_needed(&self) -> Result<(), CoreError> {
        if self.size_bytes() <= self.max_bytes {
            return Ok(());
        }
        let records = self.read();
        let keep = records.len().saturating_sub(self.keep_records);
        self.rewrite(&records[keep..])?;
        trace::counter(names::LEDGER_ROTATIONS, 1);
        Ok(())
    }

    /// Replaces the file with exactly `records` through one atomic,
    /// durable commit at the `ledger.rotate` fault point.
    fn rewrite(&self, records: &[LedgerRecord]) -> Result<(), CoreError> {
        let mut out = String::new();
        for r in records {
            out.push_str(&serde_json::to_string(r).expect("ledger record serializes"));
            out.push('\n');
        }
        fsutil::commit_atomic(
            &self.path,
            out.as_bytes(),
            Some(faults::points::LEDGER_ROTATE),
        )
        .map_err(|e| CoreError::Io(format!("{}: {e}", self.path.display())))
    }

    /// Audits the file for the doctor: raw line count, parseable
    /// current-version records, and whether the tail is torn (a
    /// previous crash's unterminated last line).
    pub fn audit(&self) -> LedgerAudit {
        use std::io::BufRead;
        let mut lines = 0usize;
        let mut valid = 0usize;
        if let Ok(f) = std::fs::File::open(&self.path) {
            for line in std::io::BufReader::new(f).lines() {
                let Ok(line) = line else { break };
                lines += 1;
                if serde_json::from_str::<LedgerRecord>(&line)
                    .is_ok_and(|r| r.version == LEDGER_VERSION)
                {
                    valid += 1;
                }
            }
        }
        LedgerAudit {
            lines,
            valid,
            torn_tail: fsutil::tail_is_torn(&self.path),
        }
    }

    /// Rewrites the file keeping only parseable current-version records
    /// (atomic + durable): the doctor's repair for torn tails and
    /// foreign garbage.  Returns how many lines were dropped.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures.
    pub fn compact_valid(&self) -> Result<usize, CoreError> {
        let audit = self.audit();
        let dropped = audit.lines.saturating_sub(audit.valid);
        if dropped == 0 && !audit.torn_tail {
            return Ok(0);
        }
        self.rewrite(&self.read())?;
        Ok(dropped.max(1))
    }
}

/// The full machine-readable build report for `--report-json`: one JSON
/// object holding the build's ledger [`LedgerRecord`], every per-unit
/// rebuild decision, and the collector's counters and per-phase
/// histograms.
pub fn build_report_json(
    record: &LedgerRecord,
    report: &BuildReport,
    collector: &trace::Collector,
) -> String {
    let mut out = String::from("{\"record\":");
    out.push_str(&serde_json::to_string(record).expect("ledger record serializes"));
    out.push_str(",\"decisions\":[");
    for (i, (unit, decision)) in report.decisions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"unit\":");
        out.push_str(&serde_json::to_string(&unit.to_string()).expect("unit name serializes"));
        out.push_str(",\"decision\":");
        out.push_str(&decision.to_json());
        out.push('}');
    }
    out.push_str("],\"stats\":");
    out.push_str(&collector.stats_json());
    out.push('}');
    out
}

/// The `q`-quantile (0.0 ≤ q ≤ 1.0, nearest-rank) of a slice of
/// samples; 0 when empty.  Shared by `smlsc history` and tests.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, wall_us: u64) -> LedgerRecord {
        LedgerRecord {
            version: LEDGER_VERSION,
            build_id: id,
            timestamp_ms: 1000 + id,
            strategy: "cutoff".into(),
            jobs: 4,
            host_parallelism: 8,
            wall_us,
            parse_us: 10,
            elaborate_us: 20,
            hash_us: 3,
            dehydrate_us: 4,
            rehydrate_us: 5,
            compiled: 2,
            reused: 1,
            cutoff: 1,
            store_hits: 0,
            skipped: 0,
            failed: 0,
            stamp_hits: 3,
            stamp_misses: 0,
            store_misses: 0,
            deps_cache_hits: 3,
            deps_cache_misses: 0,
            source_reads: 0,
            critical_path: 2,
            exit_code: 0,
            daemon: 0,
        }
    }

    fn tmp_ledger(tag: &str) -> Ledger {
        let dir = std::env::temp_dir().join(format!(
            "smlsc-ledger-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        Ledger::new(dir.join(LEDGER_FILE))
    }

    fn cleanup(l: &Ledger) {
        std::fs::remove_dir_all(l.path().parent().unwrap()).ok();
    }

    #[test]
    fn append_and_read_round_trip() {
        let l = tmp_ledger("roundtrip");
        l.append(&record(1, 100)).unwrap();
        l.append(&record(2, 200)).unwrap();
        let back = l.read();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].build_id, 1);
        assert_eq!(back[1].wall_us, 200);
        cleanup(&l);
    }

    #[test]
    fn torn_tail_is_skipped_and_healed() {
        use std::io::Write;
        let l = tmp_ledger("torn");
        l.append(&record(1, 100)).unwrap();
        // Simulate a crash mid-append: half a record, no newline.
        let half = serde_json::to_string(&record(2, 200)).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(l.path())
            .unwrap();
        f.write_all(&half.as_bytes()[..half.len() / 2]).unwrap();
        drop(f);
        assert_eq!(l.read().len(), 1, "torn tail must be discarded");
        // The next append terminates the torn tail; nothing is lost.
        l.append(&record(3, 300)).unwrap();
        let back = l.read();
        assert_eq!(
            back.iter().map(|r| r.build_id).collect::<Vec<_>>(),
            vec![1, 3]
        );
        cleanup(&l);
    }

    #[test]
    fn pre_daemon_records_parse_with_daemon_defaulted() {
        let l = tmp_ledger("predaemon");
        // A record as serialized before the `daemon` field existed.
        let json = serde_json::to_string(&record(7, 70)).unwrap();
        let stripped = json.replace(",\"daemon\":0", "");
        assert_ne!(json, stripped, "the field must actually be stripped");
        std::fs::create_dir_all(l.path().parent().unwrap()).unwrap();
        std::fs::write(l.path(), format!("{stripped}\n")).unwrap();
        let back = l.read();
        assert_eq!(back.len(), 1, "pre-daemon ledgers keep parsing");
        assert_eq!(back[0].daemon, 0);
        assert_eq!(back[0].build_id, 7);
        // And a daemon-tagged record round-trips with the tag intact.
        l.append(&record(8, 80).tagged_daemon()).unwrap();
        let back = l.read();
        assert_eq!(back[1].daemon, 1);
        cleanup(&l);
    }

    #[test]
    fn stream_is_incremental_and_matches_read() {
        let l = tmp_ledger("stream");
        for i in 0..5 {
            l.append(&record(i, i * 10)).unwrap();
        }
        let mut it = l.stream();
        assert_eq!(it.next().unwrap().build_id, 0, "oldest first");
        assert_eq!(it.count(), 4, "remaining records stream on demand");
        assert_eq!(l.stream().last().unwrap().build_id, 4);
        assert_eq!(l.read().len(), 5, "read is stream, collected");
        cleanup(&l);
    }

    #[test]
    fn missing_and_garbage_files_degrade_gracefully() {
        let l = Ledger::new("/nonexistent/builds.jsonl");
        assert!(l.read().is_empty());
        let l = tmp_ledger("garbage");
        std::fs::create_dir_all(l.path().parent().unwrap()).unwrap();
        std::fs::write(l.path(), b"not json\n{\"version\":999}\n").unwrap();
        assert!(l.read().is_empty(), "foreign lines and versions skipped");
        l.append(&record(1, 1)).unwrap();
        assert_eq!(l.read().len(), 1);
        cleanup(&l);
    }

    #[test]
    fn rotation_keeps_the_newest_records() {
        let l = tmp_ledger("rotate").with_caps(2048, 4);
        for i in 0..32 {
            l.append(&record(i, i * 10)).unwrap();
        }
        let back = l.read();
        assert!(
            back.len() <= 8,
            "rotation bounds the file, got {}",
            back.len()
        );
        assert!(l.size_bytes() <= 4096);
        assert_eq!(back.last().unwrap().build_id, 31, "newest record survives");
        let ids: Vec<u64> = back.iter().map(|r| r.build_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "order preserved");
        cleanup(&l);
    }

    #[test]
    fn injected_torn_append_leaves_a_recoverable_ledger() {
        let l = tmp_ledger("fault-torn");
        l.append(&record(1, 100)).unwrap();
        {
            let _guard = smlsc_faults::install_scoped(smlsc_faults::FaultPlan::default().with(
                smlsc_faults::FaultRule::new(
                    smlsc_faults::points::LEDGER_APPEND,
                    smlsc_faults::FaultKind::Torn,
                ),
            ));
            l.append(&record(2, 200)).unwrap();
        }
        assert_eq!(l.read().len(), 1, "valid prefix kept, torn tail discarded");
        l.append(&record(3, 300)).unwrap();
        assert_eq!(
            l.read().iter().map(|r| r.build_id).collect::<Vec<_>>(),
            vec![1, 3]
        );
        cleanup(&l);
    }

    #[test]
    fn audit_and_compact_repair_a_mangled_ledger() {
        use std::io::Write;
        let l = tmp_ledger("audit");
        l.append(&record(1, 100)).unwrap();
        l.append(&record(2, 200)).unwrap();
        assert!(l.audit().is_healthy());
        assert_eq!(l.compact_valid().unwrap(), 0, "healthy file untouched");
        // Mangle: a garbage line plus a torn (unterminated) tail.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(l.path())
            .unwrap();
        f.write_all(b"not a record\n{\"version\":1,\"trunc")
            .unwrap();
        drop(f);
        let audit = l.audit();
        assert!(!audit.is_healthy());
        assert!(audit.torn_tail);
        assert_eq!(audit.lines - audit.valid, 2);
        assert!(l.compact_valid().unwrap() >= 2);
        let healed = l.audit();
        assert!(healed.is_healthy(), "{healed:?}");
        assert_eq!(
            l.read().iter().map(|r| r.build_id).collect::<Vec<_>>(),
            vec![1, 2]
        );
        cleanup(&l);
    }

    #[test]
    fn injected_io_append_is_an_error() {
        let l = tmp_ledger("fault-io");
        let _guard = smlsc_faults::install_scoped(smlsc_faults::FaultPlan::default().with(
            smlsc_faults::FaultRule::new(
                smlsc_faults::points::LEDGER_APPEND,
                smlsc_faults::FaultKind::Io,
            ),
        ));
        let err = l.append(&record(1, 1)).unwrap_err();
        assert!(err.is_io(), "{err}");
        assert!(l.read().is_empty());
        cleanup(&l);
    }

    #[test]
    fn report_json_is_valid_and_complete() {
        use crate::irm::{Irm, Project, Strategy};
        let mut p = Project::new();
        p.add("a", "structure A = struct val x = 1 end");
        p.add("b", "structure B = struct val y = A.x end");
        let collector = trace::Collector::new();
        collector.install();
        let mut irm = Irm::new(Strategy::Cutoff);
        let report = irm.build(&p).unwrap();
        trace::uninstall();
        let rec = LedgerRecord::from_build(&report, &collector, 1, 42, 0);
        let json = build_report_json(&rec, &report, &collector);
        let value = serde_json::parse_value(json.as_bytes()).expect("well-formed JSON");
        let serde::Value::Map(pairs) = value else {
            panic!("top level must be an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["record", "decisions", "stats"]);
        let decisions = pairs.iter().find(|(k, _)| k == "decisions").unwrap();
        let serde::Value::Seq(items) = &decisions.1 else {
            panic!("decisions must be an array");
        };
        assert_eq!(items.len(), 2, "one decision per unit");
    }

    #[test]
    fn quantiles() {
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.5), 7);
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), 50);
        assert_eq!(quantile(&xs, 0.95), 95);
        assert_eq!(quantile(&xs, 1.0), 100);
    }
}
