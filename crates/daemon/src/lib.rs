//! `smlsc-daemon`: the resident build server (DESIGN §6j).
//!
//! A cold `smlsc build` on a warm 50k-unit tree spends its time on
//! process startup and cache loading, not on rebuild decisions.  The
//! daemon pays those costs once: a [`Resident`] session — stamps, deps
//! cache, the lazily indexed `bins.pack` — stays hot in one long-lived
//! process, every build drains an inotify watch on the project
//! directory and re-stats only the files it names, and CLI clients get
//! build, stats and status answers over a per-project Unix-domain
//! socket.  After each build that ran, bin bodies are released, and
//! freed heap is trimmed once the daemon is idle, so the daemon's memory
//! stays flat.
//!
//! The crate splits along the obvious seams:
//!
//! * [`protocol`] — versioned handshake plus length-prefixed JSON
//!   frames ([`Hello`]/[`HelloAck`], [`Request`]/[`Response`]);
//! * [`watcher`] — the inotify [`Watch`] each build drains, with its
//!   rescan fallback, and the daemon-lifetime [`DaemonCounters`];
//! * [`server`] — one daemon per project (the pid lockfile of
//!   `smlsc_store::fsutil`, taken over from a dead owner), socket
//!   lifecycle and request dispatch ([`run`] for the real daemon,
//!   [`ServerHandle`] for in-process tests/benches);
//! * [`client`] — connect/handshake/request; every failure is the
//!   CLI's cue to fall back to an in-process build;
//! * [`signal`] — SIGTERM/SIGINT flag for the graceful-shutdown path
//!   (drain in-flight builds, release socket and lockfile).
//!
//! [`Resident`]: smlsc_core::resident::Resident

// `deny`, not `forbid`: the sanctioned exceptions are the libc
// bindings — signal(2) in [`signal`], inotify(7) in [`watcher`] and
// malloc_trim(3) in [`server`] — each scoped under its own `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod signal;
pub mod watcher;

pub use client::{alive, connect, Client};
pub use protocol::{
    lock_path, socket_path, Hello, HelloAck, Request, Response, MAGIC, PROTOCOL_VERSION,
};
pub use server::{run, ServerConfig, ServerHandle};
pub use watcher::{DaemonCounters, Watch};
