//! The daemon server: socket lifecycle, handshake, request dispatch.
//!
//! One [`Resident`] session per server; any number of concurrent
//! clients.  Each accepted connection gets its own handler thread, so
//! a slow client never blocks another's frames; the resident session's
//! internal lock serializes the actual build runs (the bin and stamp
//! caches are single-writer) while overlapped `status`/`stats` reads
//! are served from snapshot-consistent state.
//!
//! Every build drains the session's inotify [`Watch`] first; after a
//! build that ran (not a cached reply) the server hands freed heap back
//! to the kernel, so the daemon's resident set stays flat however many
//! builds it serves.
//!
//! Shutdown: a `stop` request (or [`ServerHandle::stop`]) flips the
//! shutdown flag and self-connects once to wake the blocking accept;
//! the server then drains in-flight connections, removes the socket,
//! and releases the lockfile.

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smlsc_core::build_session::{exit_code, explain_lines};
use smlsc_core::irm::{FailurePolicy, Strategy};
use smlsc_core::resident::Resident;
use smlsc_core::store::fsutil::{self, LockGuard, Stale};
use smlsc_faults::points;
use smlsc_trace::names;

use crate::client;
use crate::protocol::{self, Hello, HelloAck, Request, Response, PROTOCOL_VERSION};
use crate::watcher::{DaemonCounters, Watch};

/// How to run a daemon over one project.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The source directory to watch and build.
    pub dir: PathBuf,
    /// The bin directory: bins, stamps, ledger, socket, lockfile.
    pub bin_dir: PathBuf,
    /// Rebuild strategy for served builds.
    pub strategy: Strategy,
    /// Default worker count for requests that leave `jobs` at 0.
    pub jobs: usize,
    /// Shut down after this long without a served request (and no
    /// in-flight connection).  `None` means serve forever.
    pub idle_timeout: Option<Duration>,
}

impl ServerConfig {
    /// A default configuration over `dir` with bins in `bin_dir`.
    pub fn new(dir: impl Into<PathBuf>, bin_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            dir: dir.into(),
            bin_dir: bin_dir.into(),
            strategy: Strategy::Cutoff,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            idle_timeout: None,
        }
    }
}

/// Runs a daemon to completion (until a `stop` request): acquires the
/// project lock, opens the resident session, binds the socket, serves.
///
/// # Errors
///
/// `AddrInUse` when a live daemon already owns the project; any IO or
/// [`smlsc_core::CoreError`] failure opening the session or socket.
pub fn run(config: ServerConfig) -> std::io::Result<()> {
    // The real daemon entrypoint hooks SIGTERM/SIGINT so `kill <pid>`
    // takes the same orderly shutdown as a `stop` request (handlers are
    // process-global, so the in-process ServerHandle never installs
    // them).
    crate::signal::install();
    Server::bind(config)?.serve()
}

/// How long a shutting-down server waits for in-flight connections
/// (including a running build) to finish before exiting anyway.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(30);

struct Server {
    config: ServerConfig,
    listener: UnixListener,
    socket: PathBuf,
    lock: LockGuard,
    resident: Arc<Resident>,
    counters: Arc<DaemonCounters>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    fn bind(config: ServerConfig) -> std::io::Result<Server> {
        // One daemon per project: a live owner refuses us, a dead one
        // is taken over.
        let lock_path = protocol::lock_path(&config.bin_dir);
        let lock = fsutil::acquire(
            &lock_path,
            Stale::OwnerDead,
            Duration::ZERO,
            points::DAEMON_LOCK,
        )
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::TimedOut => std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!(
                    "daemon already running (pid {})",
                    fsutil::owner(&lock_path).map_or("?".into(), |p| p.to_string())
                ),
            ),
            _ => e,
        })?;
        // We hold the lock, so any existing socket file is a leftover.
        // Removed before the session opens: a starter waiting for "our
        // lock and a socket" must not take the leftover for ours.
        let socket = protocol::socket_path(&config.bin_dir);
        std::fs::remove_file(&socket).ok();
        // Armed before the session scans the directory, so no edit
        // falls between the scan and the first event.
        let counters = Arc::new(DaemonCounters::default());
        let watch = Watch::arm(&config.dir, Arc::clone(&counters));
        let resident = Resident::open(&config.dir, &config.bin_dir, config.strategy, None)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        resident.set_feed(Box::new(watch));
        let listener = UnixListener::bind(&socket)?;
        Ok(Server {
            config,
            listener,
            socket,
            lock,
            resident: Arc::new(resident),
            counters,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    fn serve(self) -> std::io::Result<()> {
        let active = Arc::new(AtomicUsize::new(0));
        let last_activity = Arc::new(Mutex::new(Instant::now()));
        let trim = Arc::new(AtomicBool::new(false));
        let supervisor = spawn_supervisor(
            Arc::clone(&self.resident),
            Arc::clone(&self.shutdown),
            Arc::clone(&active),
            Arc::clone(&last_activity),
            Arc::clone(&trim),
            self.socket.clone(),
            self.config.idle_timeout,
        );
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            if matches!(
                smlsc_faults::check(points::DAEMON_ACCEPT, "conn"),
                Some(smlsc_faults::FaultKind::Io | smlsc_faults::FaultKind::Torn)
            ) {
                // Injected fault: drop the connection before any frame;
                // the client's handshake fails and it falls back to an
                // in-process build.
                drop(stream);
                continue;
            }
            let ctx = HandlerCtx {
                resident: Arc::clone(&self.resident),
                counters: Arc::clone(&self.counters),
                shutdown: Arc::clone(&self.shutdown),
                trim: Arc::clone(&trim),
                socket: self.socket.clone(),
                default_jobs: self.config.jobs,
            };
            // Count the connection before the thread exists, so the
            // drain below can never miss one that was accepted but not
            // yet running.
            *last_activity.lock().expect("activity lock") = Instant::now();
            active.fetch_add(1, Ordering::SeqCst);
            let done = ConnectionDone {
                active: Arc::clone(&active),
                last_activity: Arc::clone(&last_activity),
            };
            if std::thread::Builder::new()
                .name("smlsc-daemon-conn".to_string())
                .spawn(move || {
                    let _done = done;
                    handle_connection(stream, &ctx);
                })
                .is_err()
            {
                active.fetch_sub(1, Ordering::SeqCst);
            }
        }
        supervisor.join().ok();
        // Graceful drain: an in-flight build finishes and its client
        // gets a real response before the socket disappears.
        let deadline = Instant::now() + SHUTDOWN_DRAIN;
        while active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        std::fs::remove_file(&self.socket).ok();
        drop(self.lock);
        Ok(())
    }
}

/// Decrements the active-connection count (and stamps activity) when a
/// handler thread finishes, however it exits.
struct ConnectionDone {
    active: Arc<AtomicUsize>,
    last_activity: Arc<Mutex<Instant>>,
}

impl Drop for ConnectionDone {
    fn drop(&mut self) {
        *self.last_activity.lock().expect("activity lock") = Instant::now();
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How often the supervisor looks; also how long the daemon must have
/// been idle before it trims the heap.
const SUPERVISOR_POLL: Duration = Duration::from_millis(100);

/// The supervisor thread: polls for a termination signal and for idle
/// expiry, and wakes the blocking accept when either fires.  Once no
/// request has run for a poll period, it also frees the bodies a build
/// released ([`Resident::drop_released`]) and trims the heap (`trim` is
/// set when a build ran), so neither holds up a reply or a request
/// that follows a build closely; a build that comes first frees them
/// itself.
fn spawn_supervisor(
    resident: Arc<Resident>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    last_activity: Arc<Mutex<Instant>>,
    trim: Arc<AtomicBool>,
    socket: PathBuf,
    idle_timeout: Option<Duration>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("smlsc-daemon-supervisor".to_string())
        .spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(SUPERVISOR_POLL);
                let signalled = crate::signal::requested();
                let idle_for = |limit| {
                    active.load(Ordering::SeqCst) == 0
                        && last_activity.lock().expect("activity lock").elapsed() >= limit
                };
                if idle_for(SUPERVISOR_POLL) && trim.swap(false, Ordering::SeqCst) {
                    resident.drop_released();
                    trim_heap();
                }
                let idle = idle_timeout.is_some_and(idle_for);
                if signalled || idle {
                    shutdown.store(true, Ordering::SeqCst);
                    // Wake the blocking accept so the loop observes it.
                    UnixStream::connect(&socket).ok();
                }
            }
        })
        .expect("spawn supervisor thread")
}

struct HandlerCtx {
    resident: Arc<Resident>,
    counters: Arc<DaemonCounters>,
    shutdown: Arc<AtomicBool>,
    /// Set when a build ran; the supervisor trims the heap once idle.
    trim: Arc<AtomicBool>,
    socket: PathBuf,
    default_jobs: usize,
}

fn handle_connection(mut stream: UnixStream, ctx: &HandlerCtx) {
    // Handshake: refuse (with a parseable ack) rather than misparse.
    let hello: Hello = match protocol::recv(&mut stream) {
        Ok(h) => h,
        Err(_) => return,
    };
    let ok = hello.magic == protocol::MAGIC && hello.version == PROTOCOL_VERSION;
    let ack = HelloAck {
        ok,
        version: PROTOCOL_VERSION,
        pid: u64::from(std::process::id()),
    };
    if protocol::send(&mut stream, &ack).is_err() || !ok {
        return;
    }
    let request: Request = match protocol::recv(&mut stream) {
        Ok(r) => r,
        Err(_) => return,
    };
    ctx.counters.requests.fetch_add(1, Ordering::SeqCst);
    let response = dispatch(&request, ctx);
    protocol::send(&mut stream, &response).ok();
    stream.flush().ok();
    match request.kind.as_str() {
        "stop" => initiate_shutdown(ctx),
        // A build that ran (not a cached reply) released its working
        // set: the supervisor frees it and hands the heap back once the
        // daemon is idle.
        "build" if !response.cached => ctx.trim.store(true, Ordering::SeqCst),
        _ => {}
    }
}

fn dispatch(request: &Request, ctx: &HandlerCtx) -> Response {
    match request.kind.as_str() {
        "build" => build(request, ctx),
        "stats" => match ctx.resident.last() {
            Some(snap) => {
                let mut r = Response::new();
                r.seq = snap.seq;
                r.stats_json = snap.stats_json.clone();
                r.summary = snap.summary.clone();
                r.exit_code = snap.exit_code;
                r
            }
            None => Response::refuse("no builds served yet"),
        },
        "status" => {
            let mut r = Response::new();
            r.status_json = status_json(ctx);
            r
        }
        "stop" => Response::new(),
        other => Response::refuse(format!("unknown request kind `{other}`")),
    }
}

fn build(request: &Request, ctx: &HandlerCtx) -> Response {
    let jobs = match usize::try_from(request.jobs) {
        Ok(0) | Err(_) => ctx.default_jobs,
        Ok(n) => n,
    };
    let policy = if request.keep_going {
        FailurePolicy::KeepGoing
    } else {
        FailurePolicy::FailFast
    };
    // Every build drains the watch first (`fresh` is moot).
    match ctx.resident.build(jobs, policy) {
        Ok((snap, cached)) => {
            let mut r = Response::new();
            r.exit_code = snap.exit_code;
            r.cached = cached;
            r.seq = snap.seq;
            r.summary = snap.summary.clone();
            r.notes = snap.notes.clone();
            if request.explain {
                r.explain = explain_lines(snap.all_decisions());
            }
            r.stats_json = snap.stats_json.clone();
            r
        }
        Err(e) => {
            let mut r = Response::refuse(e.to_string());
            r.exit_code = exit_code(Err(&e));
            r
        }
    }
}

fn status_json(ctx: &HandlerCtx) -> String {
    let builds = ctx.resident.last().map_or(0, |s| s.seq);
    let counters = &ctx.counters;
    // The watch mode and health, plus the generation pair: a last-build
    // generation equal to the session generation means the served
    // snapshot is current.  In `rescan` mode (or after a lost drain)
    // builds stat-scan the directory for themselves.
    let armed = counters.watch_armed.load(Ordering::SeqCst);
    format!(
        "{{\"pid\":{},\"protocol\":{},\"units\":{},\"builds\":{},\"building_high_water\":{},\"watch\":\"{}\",\"watch_healthy\":{},\"watch_errors\":{},\"generation\":{},\"last_build_generation\":{},\"{}\":{},\"{}\":{},\"{}\":{},\"{}\":{}}}",
        std::process::id(),
        PROTOCOL_VERSION,
        ctx.resident.unit_count(),
        builds,
        ctx.resident.building_high_water(),
        if armed { "inotify" } else { "rescan" },
        armed && !counters.watch_degraded.load(Ordering::SeqCst),
        counters.watch_errors.load(Ordering::SeqCst),
        ctx.resident.generation(),
        ctx.resident.last().map_or(0, |s| s.generation()),
        names::DAEMON_REQUESTS,
        counters.requests.load(Ordering::SeqCst),
        names::DAEMON_WATCH_EVENTS,
        counters.watch_events.load(Ordering::SeqCst),
        names::DAEMON_INVALIDATIONS,
        ctx.resident.invalidations(),
        names::DAEMON_WATCH_RESCANS,
        ctx.resident.rescans(),
    )
}

/// Hands the heap a build freed back to the kernel.  A build's thread
/// and its workers free into several glibc arenas, which glibc keeps
/// mapped; without this the daemon's resident set grows with every
/// build even though its live data does not.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[allow(unsafe_code)]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases
        // memory the allocator already holds free.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn initiate_shutdown(ctx: &HandlerCtx) {
    ctx.shutdown.store(true, Ordering::SeqCst);
    // Wake the blocking accept so the loop observes the flag.
    UnixStream::connect(&ctx.socket).ok();
}

/// An in-process daemon for tests and benches: same lock, socket and
/// serve loop as [`run`], on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    socket: PathBuf,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// Binds and starts serving; returns once the socket is ready (so
    /// a client can connect immediately).
    ///
    /// # Errors
    ///
    /// Same as [`run`]'s bind phase.
    pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let socket = server.socket.clone();
        let thread = std::thread::Builder::new()
            .name("smlsc-daemon-serve".to_string())
            .spawn(move || server.serve())?;
        Ok(ServerHandle {
            socket,
            thread: Some(thread),
        })
    }

    /// The socket clients should connect to.
    pub fn socket_path(&self) -> &Path {
        &self.socket
    }

    /// Requests a clean stop and joins the serve loop.
    ///
    /// # Errors
    ///
    /// Socket errors reaching the daemon (it may already be gone — the
    /// serve thread is still joined).
    pub fn stop(mut self) -> std::io::Result<()> {
        let result = client::request(&self.socket, &Request::simple("stop")).map(|_| ());
        if let Some(thread) = self.thread.take() {
            thread.join().ok();
        }
        result
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            // Best effort: ask the daemon to stop, then join.
            client::request(&self.socket, &Request::simple("stop")).ok();
            thread.join().ok();
        }
    }
}
