//! Opening a build session over a source directory: the stat-only scan
//! ([`Project::from_dir`]) and the pack load it overlaps with
//! ([`BuildSession::open_dir`]).
//!
//! The scan stats each entry relative to the directory and follows
//! `.sml` symlinks; the overlapped open must hand back exactly what the
//! scan and the load give one after the other, at any width.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, SystemTime};

use smlsc_core::irm::{Project, Strategy};
use smlsc_core::{trace, BuildSession, FailurePolicy};

static NEXT: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smlsc-open-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Each file's name, mtime and size, in project order.
fn files(p: &Project) -> Vec<(String, u64, u64)> {
    p.files()
        .iter()
        .map(|f| (f.name.as_str().to_string(), f.mtime, f.size()))
        .collect()
}

fn mtime_ns(path: &Path) -> u64 {
    let modified = std::fs::metadata(path).unwrap().modified().unwrap();
    modified
        .duration_since(SystemTime::UNIX_EPOCH)
        .unwrap()
        .as_nanos() as u64
}

#[test]
fn scan_follows_sml_links_and_skips_other_entries() {
    let root = temp_dir("scan");
    let (src, outside) = (root.join("src"), root.join("outside"));
    std::fs::create_dir_all(&src).unwrap();
    std::fs::create_dir_all(&outside).unwrap();
    std::fs::write(src.join("a.sml"), "structure A = struct end").unwrap();
    // The link's target lives outside the scanned directory and is
    // older and larger than the link itself.
    let target = outside.join("lib.txt");
    std::fs::write(&target, "structure B = struct val x = 1 end").unwrap();
    let old = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
    File::options()
        .write(true)
        .open(&target)
        .unwrap()
        .set_modified(old)
        .unwrap();
    std::os::unix::fs::symlink(&target, src.join("b.sml")).unwrap();
    // Not sources: other extensions, a directory, a link to a non-source.
    std::fs::write(src.join("notes.txt"), "x").unwrap();
    std::fs::write(src.join("c.sml.bak"), "x").unwrap();
    std::fs::create_dir_all(src.join("sub")).unwrap();
    std::os::unix::fs::symlink(&target, src.join("lib.txt")).unwrap();

    let p = Project::from_dir(&src).unwrap();
    let a = src.join("a.sml");
    assert_eq!(
        files(&p),
        [
            ("a".to_string(), mtime_ns(&a), 24),
            ("b".to_string(), mtime_ns(&target), 34),
        ]
    );
    assert_eq!(mtime_ns(&target), 1_000_000_000 * 1_000_000_000);

    // A dangling link is an error naming it, as a failed stat always was.
    std::os::unix::fs::symlink(root.join("missing.sml"), src.join("d.sml")).unwrap();
    let e = Project::from_dir(&src).unwrap_err().to_string();
    assert!(e.contains("d.sml"), "{e}");
    std::fs::remove_dir_all(&root).ok();
}

/// The session's stamps as bytes: records are encoded sorted by unit.
fn stamp_bytes(session: &BuildSession) -> Option<Vec<u8>> {
    session.irm.stamps().encode_section(true, 0)
}

fn bins(session: &BuildSession, p: &Project) -> Vec<String> {
    p.files()
        .iter()
        .map(|f| format!("{:?}", session.irm.bin_meta(f.name.as_str())))
        .collect()
}

#[test]
fn overlapped_open_matches_the_scan_and_the_load_in_sequence() {
    let root = temp_dir("overlap");
    let (src, bin) = (root.join("src"), root.join("bins"));
    std::fs::create_dir_all(&src).unwrap();
    let write = |name: &str, text: &str| std::fs::write(src.join(format!("{name}.sml")), text);
    write("base", "structure Base = struct val n = 10 end").unwrap();
    write("mid", "structure Mid = struct val v = Base.n + 1 end").unwrap();
    write("top", "structure Top = struct val t = Mid.v * 2 end").unwrap();
    // Dated back, so no stat is racy against the save.
    let old = SystemTime::now() - Duration::from_secs(60);
    for name in ["base", "mid", "top"] {
        let f = File::options()
            .write(true)
            .open(src.join(format!("{name}.sml")))
            .unwrap();
        f.set_modified(old).unwrap();
    }
    {
        let (mut session, project) =
            BuildSession::open_dir(&src, &bin, Strategy::Cutoff, false, None, 1).unwrap();
        let collector = trace::Collector::new();
        let built = session.build(&project, 1, FailurePolicy::FailFast).unwrap();
        session.finish(&built, &collector, 1, std::time::Instant::now(), false);
    }

    let sequential = Project::from_dir(&src).unwrap();
    let loaded = BuildSession::open(&bin, Strategy::Cutoff, false, None);
    assert_eq!(loaded.irm.bin_count(), 3);
    assert_eq!(loaded.irm.stamps().len(), 3);
    for jobs in [1, 2] {
        let collector = trace::Collector::new();
        collector.install();
        let (session, project) =
            BuildSession::open_dir(&src, &bin, Strategy::Cutoff, false, None, jobs).unwrap();
        trace::uninstall();
        assert_eq!(files(&project), files(&sequential), "jobs {jobs}");
        assert_eq!(bins(&session, &project), bins(&loaded, &sequential));
        assert_eq!(stamp_bytes(&session), stamp_bytes(&loaded), "jobs {jobs}");
        assert!(session.notes.is_empty(), "{:?}", session.notes);
        // The open's span holds the scan and the load, whichever
        // worker ran them.
        let spans = collector.spans();
        let span = |name: &str| {
            let found: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
            assert_eq!(found.len(), 1, "jobs {jobs}: one `{name}` span");
            (found[0].ts_us, found[0].ts_us + found[0].dur_us)
        };
        let open = span(trace::names::SPAN_SESSION_OPEN);
        for inner in [trace::names::SPAN_SCAN, trace::names::SPAN_LOAD_BINS] {
            let (start, end) = span(inner);
            assert!(
                open.0 <= start && end <= open.1,
                "jobs {jobs}: `{inner}` inside the open"
            );
        }
    }

    // A directory that cannot be scanned fails the open, as the scan did.
    let e = BuildSession::open_dir(&root.join("gone"), &bin, Strategy::Cutoff, false, None, 2)
        .err()
        .expect("an unreadable source directory is an error");
    assert!(e.to_string().contains("gone"), "{e}");
    std::fs::remove_dir_all(&root).ok();
}
