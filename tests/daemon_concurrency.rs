//! N concurrent daemon clients against one in-process server: builds
//! must serialize (the bin and stamp caches are single-writer), every
//! report must be a consistent snapshot, and no client may ever see
//! interleaved socket frames (alongside `store_concurrency.rs`, which
//! stresses the artifact store the same way).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use smlsc_daemon::{client, Request, ServerConfig, ServerHandle};

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-dconc-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const UNITS: usize = 12;

/// A diamond-ish DAG: one base, a fan of mids, one top importing all.
fn write_project(dir: &Path) {
    std::fs::write(
        dir.join("base.sml"),
        "structure Base = struct val n = 10 end",
    )
    .unwrap();
    let mut top = String::from("structure Top = struct val s = Base.n");
    for i in 0..UNITS - 2 {
        std::fs::write(
            dir.join(format!("mid_{i:02}.sml")),
            format!("structure Mid_{i:02} = struct val v = Base.n + {i} end"),
        )
        .unwrap();
        top.push_str(&format!(" + Mid_{i:02}.v"));
    }
    top.push_str(" end");
    std::fs::write(dir.join("top.sml"), top).unwrap();
}

/// Deterministic "seeded randomness": a splitmix64 stream per client.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn concurrent_clients_get_serialized_builds_and_consistent_snapshots() {
    let root = temp("stress");
    let src = root.join("src");
    std::fs::create_dir_all(&src).unwrap();
    write_project(&src);
    let bin_dir = root.join("bins");
    let mut config = ServerConfig::new(&src, &bin_dir);
    config.jobs = 2;
    let server = ServerHandle::spawn(config).unwrap();
    let socket = server.socket_path().to_path_buf();

    // Prime one build so `stats` requests always have a snapshot.
    let primed = client::request(&socket, &Request::build(true)).unwrap();
    assert!(primed.ok, "{}", primed.error);

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 12;
    let per_client: Vec<Vec<smlsc_daemon::Response>> = std::thread::scope(|scope| {
        // An editor racing the clients: body-only rewrites of one mid,
        // saved by rename as editors do (a build never reads half a
        // file), so builds drain events while other requests queue
        // behind them.
        let editor_src = src.clone();
        scope.spawn(move || {
            for k in 0..6 {
                std::thread::sleep(Duration::from_millis(15));
                let tmp = editor_src.join("mid_00.sml.tmp");
                std::fs::write(
                    &tmp,
                    format!("structure Mid_00 = struct val v = Base.n + {k} end"),
                )
                .unwrap();
                std::fs::rename(&tmp, editor_src.join("mid_00.sml")).unwrap();
            }
        });
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let socket = socket.clone();
                scope.spawn(move || {
                    let mut rng = Rng(1994 + c as u64);
                    let mut responses = Vec::new();
                    for _ in 0..REQUESTS {
                        // A seeded mix of request kinds, so builds
                        // overlap with stats and status reads.
                        let request = match rng.next() % 4 {
                            0 => Request::build(true),
                            1 => Request::build(false),
                            2 => Request::simple("status"),
                            _ => Request::simple("stats"),
                        };
                        // `recv` parses a whole frame: an interleaved or
                        // torn frame fails here, not silently.
                        let response = client::request(&socket, &request)
                            .expect("daemon answers every client");
                        responses.push(response);
                    }
                    responses
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Snapshot consistency: every build response with the same sequence
    // number must carry the identical report, no matter which client
    // received it or what was in flight at the time.  A cached reply is
    // that build rendered as a no-op, so it is keyed apart (a `stats`
    // reply carries the build itself, as an uncached one does).
    let mut by_seq: HashMap<(u64, bool), (String, i32)> = HashMap::new();
    let mut builds = 0;
    for response in per_client.iter().flatten() {
        assert!(response.ok, "request refused: {}", response.error);
        if response.summary.is_empty() {
            continue; // status responses carry no report
        }
        builds += 1;
        assert_eq!(response.exit_code, 0, "{}", response.summary);
        assert!(
            response
                .summary
                .starts_with(&format!("built {UNITS} unit(s)")),
            "{}",
            response.summary
        );
        let entry = (response.summary.clone(), response.exit_code);
        if let Some(seen) = by_seq.insert((response.seq, response.cached), entry.clone()) {
            assert_eq!(seen, entry, "two reports for build #{}", response.seq);
        }
    }
    assert!(builds > 0, "the seeded mix must include builds");

    // The single-writer invariant, as observed by the server itself:
    // however many clients raced, at most one build ever executed.
    let status = client::request(&socket, &Request::simple("status")).unwrap();
    assert!(
        status.status_json.contains("\"building_high_water\":1"),
        "builds must serialize: {}",
        status.status_json
    );
    server.stop().unwrap();
    assert!(!socket.exists(), "stop removes the socket");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_second_daemon_for_the_same_project_is_refused() {
    let root = temp("second");
    let src = root.join("src");
    std::fs::create_dir_all(&src).unwrap();
    write_project(&src);
    let bin_dir = root.join("bins");
    let server = ServerHandle::spawn(ServerConfig::new(&src, &bin_dir)).unwrap();
    let err = ServerHandle::spawn(ServerConfig::new(&src, &bin_dir)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    server.stop().unwrap();
    // With the first daemon gone, the project is free again.
    let server = ServerHandle::spawn(ServerConfig::new(&src, &bin_dir)).unwrap();
    server.stop().unwrap();
    std::fs::remove_dir_all(&root).ok();
}
