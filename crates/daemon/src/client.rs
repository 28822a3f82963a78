//! The daemon client: connect, handshake, one request, one response.
//!
//! Every failure — no socket, refused connection, version-mismatch
//! handshake, a daemon killed mid-request — surfaces as a plain
//! `io::Error`, and the CLI's contract is that *any* client error
//! means "fall back to an in-process build".  The daemon is a latency
//! optimization, never a correctness dependency.

use std::io::{Error, ErrorKind};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use crate::protocol::{self, Hello, HelloAck, Request, Response, PROTOCOL_VERSION};

/// Generous per-read ceiling: a first warm build over a huge project
/// may take a while, but a daemon that goes silent for this long is
/// treated as dead and the client falls back.
const READ_TIMEOUT: Duration = Duration::from_secs(600);

/// A handshaken connection to a daemon.
#[derive(Debug)]
pub struct Client {
    stream: UnixStream,
    /// The daemon's pid, from the handshake ack.
    pub daemon_pid: u64,
}

/// Connects to the daemon socket and completes the version handshake.
///
/// # Errors
///
/// Connection errors verbatim; `ConnectionRefused` when the daemon
/// rejects the handshake (protocol mismatch).
pub fn connect(socket: &Path) -> std::io::Result<Client> {
    let mut stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    protocol::send(&mut stream, &Hello::current())?;
    let ack: HelloAck = protocol::recv(&mut stream)?;
    if !ack.ok || ack.version != PROTOCOL_VERSION {
        return Err(Error::new(
            ErrorKind::ConnectionRefused,
            format!(
                "daemon speaks protocol {} (client speaks {})",
                ack.version, PROTOCOL_VERSION
            ),
        ));
    }
    Ok(Client {
        stream,
        daemon_pid: ack.pid,
    })
}

impl Client {
    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// Socket errors verbatim — including `UnexpectedEof` when the
    /// daemon dies mid-request.
    pub fn request(mut self, request: &Request) -> std::io::Result<Response> {
        protocol::send(&mut self.stream, request)?;
        protocol::recv(&mut self.stream)
    }
}

/// Connect + handshake + one request, in one call.
///
/// # Errors
///
/// Any error from [`connect`] or [`Client::request`], its message
/// prefixed with the step that failed: `connect` (including the
/// handshake), `send` or `reply`.
pub fn request(socket: &Path, request: &Request) -> std::io::Result<Response> {
    let mut client = connect(socket).map_err(at_step("connect"))?;
    protocol::send(&mut client.stream, request).map_err(at_step("send"))?;
    protocol::recv(&mut client.stream).map_err(at_step("reply"))
}

/// Prefixes an error's message with the request step that failed.
fn at_step(step: &'static str) -> impl Fn(Error) -> Error {
    move |e| Error::new(e.kind(), format!("{step}: {e}"))
}

/// Is a daemon answering on this socket right now?  (A full handshake,
/// not just a file-exists check — a stale socket file says no.)
pub fn alive(socket: &Path) -> bool {
    socket.exists() && connect(socket).is_ok()
}
