//! The daemon's event-driven invalidation over the socket: every edit
//! written before a request is built (the drain is a barrier), and
//! adds, removals and renames seen through events build exactly what
//! an in-process build of the same sources builds.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_daemon::{client, Request, Response, ServerConfig, ServerHandle};
use smlsc_trace::names;

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-devents-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("src")).unwrap();
    dir
}

fn write(dir: &Path, unit: &str, text: &str) -> PathBuf {
    let path = dir.join("src").join(format!("{unit}.sml"));
    std::fs::write(&path, text).unwrap();
    path
}

fn serve(dir: &Path) -> ServerHandle {
    let mut config = ServerConfig::new(dir.join("src"), dir.join("bins"));
    config.jobs = 2;
    ServerHandle::spawn(config).unwrap()
}

fn build(server: &ServerHandle) -> Response {
    let mut request = Request::build(false);
    request.explain = true;
    let response = client::request(server.socket_path(), &request).unwrap();
    assert!(response.ok, "{}", response.error);
    assert_eq!(response.exit_code, 0, "{}", response.summary);
    response
}

fn status(server: &ServerHandle) -> String {
    client::request(server.socket_path(), &Request::simple("status"))
        .unwrap()
        .status_json
}

#[test]
fn every_edit_written_before_a_request_is_built() {
    let dir = temp("barrier");
    let leaf = write(&dir, "a", "structure A = struct val x = 0 end");
    write(&dir, "b", "structure B = struct val y = A.x + 1 end");
    let server = serve(&dir);
    build(&server);
    let mut last_mtime: Option<SystemTime> = None;
    for i in 1..=200 {
        // Alternating values of one size; every third rewrite also
        // takes back the previous mtime, so stat alone cannot tell it
        // from the last build's bytes.
        write(
            &dir,
            "a",
            &format!("structure A = struct val x = {} end", i % 2),
        );
        if let Some(mtime) = last_mtime.filter(|_| i % 3 == 0) {
            std::fs::File::options()
                .write(true)
                .open(&leaf)
                .unwrap()
                .set_modified(mtime)
                .unwrap();
        }
        last_mtime = Some(std::fs::metadata(&leaf).unwrap().modified().unwrap());
        let response = build(&server);
        assert!(!response.cached, "iteration {i}");
        assert!(
            response.summary.ends_with(": 1 recompiled, 1 reused"),
            "iteration {i}: {}",
            response.summary
        );
    }
    let status = status(&server);
    assert!(status.contains(r#""daemon.watch_rescans":0"#), "{status}");
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Build order and `(unit, export pid)` pairs of a fresh in-process
/// build of `dir/src`.
fn clean_build(dir: &Path) -> (Vec<String>, Vec<(String, String)>) {
    let mut irm = Irm::new(Strategy::Cutoff);
    let report = irm
        .build(&Project::from_dir(&dir.join("src")).unwrap())
        .unwrap();
    let order: Vec<String> = report.order.iter().map(|u| u.to_string()).collect();
    let pids = export_pids(&irm, &order);
    (order, pids)
}

fn export_pids(irm: &Irm, units: &[String]) -> Vec<(String, String)> {
    units
        .iter()
        .map(|u| (u.clone(), irm.bin_meta(u).unwrap().export_pid.to_string()))
        .collect()
}

/// The daemon's build order (from its explain lines) and the export
/// pids of the bins it saved.
fn served_build(dir: &Path, response: &Response) -> (Vec<String>, Vec<(String, String)>) {
    let order: Vec<String> = response
        .explain
        .iter()
        .map(|line| line.trim().split(':').next().unwrap().to_string())
        .collect();
    let mut saved = Irm::new(Strategy::Cutoff);
    saved.load_bins(&dir.join("bins")).unwrap();
    let pids = export_pids(&saved, &order);
    (order, pids)
}

#[test]
fn adds_removals_and_renames_build_what_an_in_process_build_builds() {
    let dir = temp("entries");
    write(&dir, "a", "structure A = struct fun f x = x + 1 end");
    write(&dir, "b", "structure B = struct val y = A.f 41 end");
    let server = serve(&dir);
    build(&server);
    let src = dir.join("src");
    let steps: [(&str, &dyn Fn()); 4] = [
        ("add", &|| {
            write(&dir, "c", "structure C = struct val z = B.y * 2 end");
        }),
        ("rename", &|| {
            std::fs::rename(src.join("c.sml"), src.join("d.sml")).unwrap();
        }),
        ("save by rename", &|| {
            let tmp = src.join("a.sml.tmp");
            std::fs::write(&tmp, "structure A = struct fun f x = x + 2 end").unwrap();
            std::fs::rename(&tmp, src.join("a.sml")).unwrap();
        }),
        ("remove", &|| {
            std::fs::remove_file(src.join("d.sml")).unwrap();
        }),
    ];
    for (what, step) in steps {
        step();
        let response = build(&server);
        assert!(!response.cached, "{what}");
        assert_eq!(served_build(&dir, &response), clean_build(&dir), "{what}");
    }
    let status = status(&server);
    assert!(status.contains(r#""daemon.watch_rescans":0"#), "{status}");
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_names_every_daemon_counter_and_the_watch_mode() {
    let dir = temp("status");
    write(&dir, "a", "structure A = struct val x = 1 end");
    let server = serve(&dir);
    build(&server);
    let status = status(&server);
    for name in [
        names::DAEMON_REQUESTS,
        names::DAEMON_WATCH_EVENTS,
        names::DAEMON_INVALIDATIONS,
        names::DAEMON_WATCH_RESCANS,
    ] {
        assert!(status.contains(&format!("\"{name}\":")), "{name}: {status}");
    }
    assert!(status.contains(r#""watch":"inotify""#), "{status}");
    assert!(status.contains(r#""watch_healthy":true"#), "{status}");
    server.stop().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
