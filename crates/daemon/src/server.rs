//! The daemon server: socket lifecycle, handshake, request dispatch.
//!
//! One [`Resident`] session per server; any number of concurrent
//! clients.  Each accepted connection gets its own handler thread, so
//! a slow client never blocks another's frames; the resident session's
//! internal lock serializes the actual build runs (the bin and stamp
//! caches are single-writer) while overlapped `status`/`stats` reads
//! are served from snapshot-consistent state.
//!
//! Shutdown: a `stop` request (or [`ServerHandle::stop`]) flips the
//! shutdown flag and self-connects once to wake the blocking accept;
//! the server then joins its watcher, removes the socket, and releases
//! the lockfile.

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smlsc_core::build_session::{exit_code, explain_lines, EXIT_IO};
use smlsc_core::irm::{FailurePolicy, Strategy};
use smlsc_core::resident::Resident;
use smlsc_core::store::fsutil::{self, LockGuard, Stale};
use smlsc_faults::points;
use smlsc_trace::names;

use crate::client;
use crate::protocol::{self, Hello, HelloAck, Request, Response, PROTOCOL_VERSION};
use crate::watcher::{self, DaemonCounters};

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
    /// Watcher poll interval.
    pub watch_interval: Duration,
    /// Default per-request build deadline (a request may pass its own
    /// via `timeout_ms`).  At the deadline the client gets a typed
    /// timeout reply; the build runs on inside the daemon.
    pub request_deadline: Duration,
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
            watch_interval: Duration::from_millis(150),
            request_deadline: Duration::from_secs(600),
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
        let resident = Resident::open(&config.dir, &config.bin_dir, config.strategy, None)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let socket = protocol::socket_path(&config.bin_dir);
        // We hold the lock, so any existing socket file is a leftover.
        std::fs::remove_file(&socket).ok();
        let listener = UnixListener::bind(&socket)?;
        Ok(Server {
            config,
            listener,
            socket,
            lock,
            resident: Arc::new(resident),
            counters: Arc::new(DaemonCounters::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    fn serve(self) -> std::io::Result<()> {
        let watcher = watcher::spawn(
            Arc::clone(&self.resident),
            Arc::clone(&self.counters),
            Arc::clone(&self.shutdown),
            self.config.watch_interval,
        );
        let active = Arc::new(AtomicUsize::new(0));
        let last_activity = Arc::new(Mutex::new(Instant::now()));
        let supervisor = spawn_supervisor(
            Arc::clone(&self.shutdown),
            Arc::clone(&active),
            Arc::clone(&last_activity),
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
                socket: self.socket.clone(),
                default_jobs: self.config.jobs,
                deadline: self.config.request_deadline,
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
        watcher.join().ok();
        // Graceful drain: an in-flight build finishes and its client
        // gets a real response (or the typed deadline reply) before the
        // socket disappears.
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

/// The supervisor thread: polls for a termination signal and for idle
/// expiry, and wakes the blocking accept when either fires.
fn spawn_supervisor(
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    last_activity: Arc<Mutex<Instant>>,
    socket: PathBuf,
    idle_timeout: Option<Duration>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("smlsc-daemon-supervisor".to_string())
        .spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                let signalled = crate::signal::requested();
                let idle = idle_timeout.is_some_and(|limit| {
                    active.load(Ordering::SeqCst) == 0
                        && last_activity.lock().expect("activity lock").elapsed() >= limit
                });
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
    socket: PathBuf,
    default_jobs: usize,
    deadline: Duration,
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
    if request.kind == "stop" {
        initiate_shutdown(ctx);
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
    // A degraded watcher (its last sweep failed) cannot vouch for the
    // in-memory project, so the build re-stats the sources itself — a
    // full stat-rescan fallback, never a silently stale answer.
    let fresh = request.fresh
        || ctx
            .counters
            .watch_degraded
            .load(std::sync::atomic::Ordering::SeqCst);
    let deadline = if request.timeout_ms > 0 {
        Duration::from_millis(request.timeout_ms)
    } else {
        ctx.deadline
    };
    // The build runs on its own thread so this handler can answer the
    // client at the deadline; a timed-out build continues to completion
    // (the resident lock serializes it against later requests) and its
    // snapshot serves the next build instantly.
    let resident = Arc::clone(&ctx.resident);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name("smlsc-daemon-build".to_string())
        .spawn(move || {
            tx.send(resident.build(jobs, policy, fresh)).ok();
        })
        .ok();
    let result = match rx.recv_timeout(deadline) {
        Ok(result) => result,
        Err(_) => {
            let mut r = Response::refuse(format!(
                "build exceeded its {}ms deadline (still running in the daemon)",
                deadline.as_millis()
            ));
            r.timed_out = true;
            r.exit_code = EXIT_IO;
            return r;
        }
    };
    match result {
        Ok((snap, cached)) => {
            let mut r = Response::new();
            r.exit_code = snap.exit_code;
            r.cached = cached;
            r.seq = snap.seq;
            r.summary = snap.summary.clone();
            r.notes = snap.notes.clone();
            if request.explain {
                r.explain = explain_lines(&snap.decisions);
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
    // Watcher health plus the generation pair: a last-build generation
    // equal to the session generation means the served snapshot is
    // current; a degraded watcher means builds re-stat for themselves.
    format!(
        "{{\"pid\":{},\"protocol\":{},\"units\":{},\"builds\":{},\"building_high_water\":{},\"watch_healthy\":{},\"watch_errors\":{},\"generation\":{},\"last_build_generation\":{},\"{}\":{},\"{}\":{},\"{}\":{}}}",
        std::process::id(),
        PROTOCOL_VERSION,
        ctx.resident.unit_count(),
        builds,
        ctx.resident.building_high_water(),
        !ctx.counters.watch_degraded.load(Ordering::SeqCst),
        ctx.counters.watch_errors.load(Ordering::SeqCst),
        ctx.resident.generation(),
        ctx.resident.last().map_or(0, |s| s.generation()),
        names::DAEMON_REQUESTS,
        ctx.counters.requests.load(Ordering::SeqCst),
        names::DAEMON_WATCH_EVENTS,
        ctx.counters.watch_events.load(Ordering::SeqCst),
        names::DAEMON_INVALIDATIONS,
        ctx.counters.invalidations.load(Ordering::SeqCst),
    )
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
