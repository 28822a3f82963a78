//! The daemon's wire protocol: length-prefixed JSON frames over a
//! per-project Unix-domain socket.
//!
//! Every connection starts with a versioned handshake ([`Hello`] →
//! [`HelloAck`]); a version or magic mismatch is answered with
//! `ok: false` and the connection closed, so an old client against a
//! new daemon degrades to the in-process fallback instead of
//! misparsing frames.  After the handshake, the client sends one
//! [`Request`] and reads one [`Response`].
//!
//! Frames are a little-endian `u32` byte length followed by that many
//! bytes of JSON.  One frame is written with a single `write_all`, and
//! the server gives each connection its own handler thread, so
//! concurrent clients can never observe interleaved frame bytes.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};
pub use smlsc_core::build_session::{lock_path, socket_path, LOCK_FILE, SOCKET_FILE};

/// Version of the wire protocol; bumped on any incompatible change.
/// v3 dropped the per-request build deadline fields.
pub const PROTOCOL_VERSION: u32 = 3;
/// Handshake magic — catches a non-smlsc peer before any parsing.
pub const MAGIC: &str = "smlsc-daemon";
/// Upper bound on a single frame; a length prefix beyond this is
/// treated as a corrupt stream, not an allocation request.
pub const MAX_FRAME: u32 = 64 << 20;

/// Client's opening frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// Must equal [`MAGIC`].
    pub magic: String,
    /// Must equal [`PROTOCOL_VERSION`].
    pub version: u32,
}

impl Hello {
    /// A handshake for the current protocol version.
    pub fn current() -> Hello {
        Hello {
            magic: MAGIC.to_string(),
            version: PROTOCOL_VERSION,
        }
    }
}

/// Server's handshake reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloAck {
    /// Whether the handshake was accepted; when `false` the server
    /// closes the connection after this frame.
    pub ok: bool,
    /// The server's protocol version.
    pub version: u32,
    /// The daemon's pid (matches the lockfile).
    pub pid: u64,
}

/// One client request.  `kind` selects the operation; the remaining
/// fields only matter to `build`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// `"build"`, `"stats"`, `"status"`, or `"stop"`.
    pub kind: String,
    /// Build: ignored.  Every build drains the daemon's file watch (or
    /// rescans) before deciding; the field stays so the wire format,
    /// and with it the protocol version, is unchanged.
    pub fresh: bool,
    /// Build: worker count; `0` means the daemon's default.
    pub jobs: u64,
    /// Build: keep going past failures.
    pub keep_going: bool,
    /// Build: include per-unit rebuild decisions in the response.
    pub explain: bool,
}

impl Request {
    /// A build request with daemon-default jobs.
    pub fn build(fresh: bool) -> Request {
        Request {
            kind: "build".to_string(),
            fresh,
            jobs: 0,
            keep_going: false,
            explain: false,
        }
    }

    /// A non-build request of `kind`.
    pub fn simple(kind: &str) -> Request {
        Request {
            kind: kind.to_string(),
            fresh: false,
            jobs: 0,
            keep_going: false,
            explain: false,
        }
    }
}

/// One server response; which fields are meaningful depends on the
/// request kind, and `ok: false` carries the reason in `error`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request was served.
    pub ok: bool,
    /// Why not, when `ok` is false.
    pub error: String,
    /// Build: the CLI exit code the build maps to.
    pub exit_code: i32,
    /// Build: served from the no-change snapshot without running the
    /// analysis ladder.
    pub cached: bool,
    /// Build/stats: the snapshot's sequence number within the daemon.
    pub seq: u64,
    /// Build: the one-line summary the CLI prints.
    pub summary: String,
    /// Build: stderr diagnostics (warnings, failures, skips).
    pub notes: Vec<String>,
    /// Build: `--explain` lines (when requested).
    pub explain: Vec<String>,
    /// Build/stats: the build's full telemetry JSON.
    pub stats_json: String,
    /// Status: the daemon's own state and counters as JSON.
    pub status_json: String,
}

impl Response {
    /// An empty all-defaults response to fill in.
    pub fn new() -> Response {
        Response {
            ok: true,
            error: String::new(),
            exit_code: 0,
            cached: false,
            seq: 0,
            summary: String::new(),
            notes: Vec::new(),
            explain: Vec::new(),
            stats_json: String::new(),
            status_json: String::new(),
        }
    }

    /// A refusal carrying `error`.
    pub fn refuse(error: impl Into<String>) -> Response {
        let mut r = Response::new();
        r.ok = false;
        r.error = error.into();
        r
    }
}

impl Default for Response {
    fn default() -> Response {
        Response::new()
    }
}

/// Writes one length-prefixed frame with a single `write_all`.
///
/// # Errors
///
/// Any socket write error; oversized payloads are `InvalidData`.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME")
        })?;
    // One buffer, one write: a frame is never split across syscalls at
    // this layer, so a reader sees length and body together.
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    stream.write_all(&buf)?;
    stream.flush()
}

/// The first read of a frame body; later reads double what arrived.
pub const READ_CHUNK: usize = 8 << 10;

/// Reads one length-prefixed frame.
///
/// The body is read in growing chunks — one [`READ_CHUNK`], then as much
/// as has arrived — so memory follows the bytes the peer sends, never
/// the length it declares: a bare prefix costs one chunk.
///
/// # Errors
///
/// `UnexpectedEof` on a closed peer; `InvalidData` on an oversized
/// length prefix.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let len = len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let start = payload.len();
        payload.resize(start + (len - start).min(start.max(READ_CHUNK)), 0);
        stream.read_exact(&mut payload[start..])?;
    }
    Ok(payload)
}

/// Serializes `msg` and writes it as one frame.
///
/// # Errors
///
/// Socket errors from [`write_frame`].
pub fn send<T: Serialize>(stream: &mut impl Write, msg: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(stream, json.as_bytes())
}

/// Reads one frame and deserializes it as `T`.
///
/// # Errors
///
/// Socket errors from [`read_frame`]; `InvalidData` on malformed JSON.
pub fn recv<T: for<'de> Deserialize<'de>>(stream: &mut impl Read) -> std::io::Result<T> {
    let payload = read_frame(stream)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err(), "eof after the last frame");
        // A body of several chunks, and one cut short.
        let big: Vec<u8> = (0..5 * READ_CHUNK + 7).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &big).unwrap();
        assert_eq!(read_frame(&mut std::io::Cursor::new(&buf)).unwrap(), big);
        buf.pop();
        let err = read_frame(&mut std::io::Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = std::io::Cursor::new(buf);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn messages_round_trip() {
        let mut buf = Vec::new();
        send(&mut buf, &Hello::current()).unwrap();
        let mut req = Request::build(true);
        req.jobs = 4;
        req.explain = true;
        send(&mut buf, &req).unwrap();
        let mut resp = Response::new();
        resp.summary = "built 2 unit(s)".to_string();
        resp.notes = vec!["warning: x".to_string()];
        send(&mut buf, &resp).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(recv::<Hello>(&mut r).unwrap(), Hello::current());
        assert_eq!(recv::<Request>(&mut r).unwrap(), req);
        assert_eq!(recv::<Response>(&mut r).unwrap(), resp);
    }
}
