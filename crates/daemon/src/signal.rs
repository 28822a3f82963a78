//! SIGTERM/SIGINT hook for graceful daemon shutdown.
//!
//! `kill <pid>` (systemd stop, a closing terminal, a supervisor) must
//! release the socket and lockfile instead of leaving stale debris for
//! the next `acquire` (or `smlsc doctor`) to clean up.  The handler is
//! the async-signal-safe minimum — one atomic store — and the server's
//! supervisor thread polls [`requested`] to run the same orderly
//! shutdown a `stop` request takes: drain in-flight connections,
//! remove the socket, release the lock.
//!
//! The registration itself is a direct `signal(2)` binding, since no
//! signal-handling dependency is vendored.  Handlers are process-global, so only the real daemon
//! entrypoint ([`crate::run`]) installs them — never the in-process
//! [`crate::ServerHandle`] used by tests and benches.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler; polled by the server's supervisor thread.
static REQUESTED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    REQUESTED.store(true, Ordering::SeqCst);
}

#[allow(unsafe_code)]
mod sys {
    extern "C" {
        /// `signal(2)` from libc, which every Rust binary already links.
        pub fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
}

/// Installs the termination handlers (idempotent).  Process-global:
/// call only from a process that *is* the daemon.
pub fn install() {
    #[allow(unsafe_code)]
    // SAFETY: `on_signal` only performs an atomic store, which is
    // async-signal-safe; `signal` itself has no memory-safety
    // preconditions.
    unsafe {
        sys::signal(SIGINT, on_signal);
        sys::signal(SIGTERM, on_signal);
    }
}

/// Has a termination signal arrived since [`install`]?
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}
