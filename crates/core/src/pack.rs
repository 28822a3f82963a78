//! The indexed bin archive: one append-only `bins.pack` holding every
//! bin, the analysis records and the import graph.
//!
//! Layout (all integers little-endian; every offset is absolute):
//!
//! ```text
//! +--------------------+  offset 0
//! | magic  "SMLSPAK3"  |  8 bytes
//! | version            |  1 byte  (PACK_VERSION)
//! +====================+  offset 9: segment 0 (the first segment)
//! | segment length     |  u64, 0 until patched in just before the fsync
//! | body, body, ...    |  each body is one BinFile::to_bytes() blob
//! | index (binary)     |  this segment's units, then its sections
//! | footer (40 bytes)  |  index_offset u64 | index_len u64 |
//! |                    |  index_digest u128 | magic "SMLSPKI1"
//! +====================+  segment 1, 2, ...: appended, same shape
//! ```
//!
//! The index is the `pickle::wire` little-endian format, not JSON:
//!
//! ```text
//! u32 nstrings; nstrings × (u32 len | bytes)     -- interned name table
//! u32 nedges;   nedges   × (u32 name_ix | u128 pid)
//! u32 nentries; nentries × entry                 -- 84 bytes each, fixed
//!   entry = u32 name_ix | u128 source_pid | u128 export_pid | u64 mtime
//!         | u64 offset | u64 len | u128 digest
//!         | u32 edges_start | u32 edges_count
//! then, to the end of the index, at most one section of each kind:
//!   u8 kind | u32 len | len bytes
//!   kind 1 = stamps ([`crate::stamps`]: the analysis records changed
//!            since the previous segment, with this save's instant)
//!   kind 2 = graph  ([`crate::depgraph`]: the whole import DAG, only
//!            when it changed)
//! ```
//!
//! Sections sit under the index digest, so a flipped byte in one fails
//! its segment like a flipped index byte.  An index that ends after its
//! entries (a pack written before sections existed) has no sections:
//! its stamps miss once and its graph is derived once.
//!
//! [`PackReader::open`] walks the segments from the head, reading only
//! each one's length word, footer and index — never a body — and stops
//! at the first segment that fails validation (a length running past
//! the end of the file, a bad footer, an index digest mismatch, a
//! malformed section).  It serves the valid prefix, later segments
//! winning by unit name (bins and stamps) or whole (the graph),
//! and reports the bytes after it as the torn tail.  A file with no
//! valid first segment is corrupt as a whole.
//! Every rebuild decision runs off index metadata alone; bodies are
//! read lock-free, digest verified, and parsed lazily on first use
//! (rehydration, linking), so a torn body quarantines exactly one unit,
//! exactly when it is actually needed.
//!
//! A file with any other magic or version byte — including the
//! `SMLSPAK2` single-index packs and the JSON-index version-1 packs of
//! earlier releases — is rejected as corrupt: its units recompile and
//! the next save overwrites it.
//!
//! A save writes one segment, in one of two ways ([`PackWriter::open`]):
//!
//! * **Append** — when the save only adds or replaces bins, this
//!   process loaded or last wrote the file ([`PackTail`]: its device,
//!   inode, length and mtime are unchanged), and the appended segments,
//!   this one included and its sections counted, stay within 1/32 of
//!   the first segment.  The segment is assembled in memory, written at
//!   the valid end (cutting off any torn tail first), its length
//!   patched in, and fsynced.  A crash before the patch leaves a torn
//!   tail that the next open ignores and the next append cuts off; no
//!   rename is needed.
//! * **Full rewrite** — otherwise (cold build, a removed unit, someone
//!   else's file, the growth bound reached): a fresh one-segment file,
//!   carrying every bin, the record of each binned unit and the graph,
//!   streamed through a bounded buffer into the shared [`AtomicFile`]
//!   (a unique staging file, fsync, `rename(2)`, fsync of the parent
//!   directory), so a crash mid-save leaves the previous pack intact.  It also deletes
//!   the `stamps.json` and `deps.pack` files of earlier releases.
//!
//! The 1/32 bound is a constant, so `bins.pack` is never more than
//! about 3% larger than a fresh rewrite of the same state, and a big
//! change (a hub interface edit recompiling a thousand importers)
//! compacts instead of appending.
//!
//! Every writer — append, rewrite, `doctor --fix` — holds
//! `bins.pack.lock` ([`lock`]: the shared `fsutil::acquire`, broken
//! when its owner is dead), so two builds on one project serialise
//! their saves and the last writer wins whole.  The lock file's mtime
//! is the save instant a stamp section records ([`PackWriter::saved_at`]).
//!
//! Saves check the `pack.save` fault point: a rewrite at stages
//! `begin`, `staged`, `renamed`; an append at `begin`, `mid` (half the
//! segment written), `staged` (segment fsynced).  A `torn` fault keeps
//! half of the bytes: a torn rewrite is rejected whole, a torn append
//! leaves a torn tail.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use smlsc_faults::{self as faults, points, FaultKind};
use smlsc_ids::{Digest128, Pid, Symbol};
use smlsc_pickle::wire::{Reader, Writer};
use smlsc_store::fsutil::{self, AtomicFile, LockGuard, Stale};
use smlsc_trace::{self as trace, names};

use crate::depgraph::DepGraph;
use crate::stamps::{self, StampCache, StampSection};
use crate::unit::{BinMeta, ImportEdge};
use crate::CoreError;

/// The archive's file name inside a bin directory.
pub const PACK_FILE: &str = "bins.pack";

/// Version byte after the leading magic; anything else rejects the
/// pack (the units then just recompile).
pub const PACK_VERSION: u8 = 6;

const PACK_MAGIC: &[u8; 8] = b"SMLSPAK3";
const FOOTER_MAGIC: &[u8; 8] = b"SMLSPKI1";
/// index_offset (8) + index_len (8) + index_digest (16) + magic (8).
const FOOTER_LEN: u64 = 40;
/// magic (8) + version (1).
const HEADER_LEN: u64 = 9;
/// A segment's leading length word.
const SEGMENT_HEADER_LEN: u64 = 8;
/// Appended segments together stay within 1/`GROWTH_DIVISOR` of the
/// first segment; past that a save rewrites the pack in full.
const GROWTH_DIVISOR: u64 = 32;
/// Write buffer of a full rewrite: a handful of `write(2)` calls for a
/// 20k-unit pack, never the whole pack in memory.
const WRITE_BUFFER: usize = 1 << 20;
/// How long a writer waits for a live holder of `bins.pack.lock` (a
/// concurrent build's save).
const LOCK_WAIT: Duration = Duration::from_secs(60);
/// A section's kind byte and length word.
const SECTION_HEADER_LEN: u64 = 5;
/// Width of one index entry.
const ENTRY_LEN: usize = 84;
/// Section kind: the stamp records of this save.
const SECTION_STAMPS: u8 = 1;
/// Section kind: the import graph.
const SECTION_GRAPH: u8 = 2;
/// The separate stamp and graph files of earlier releases, deleted by a
/// full rewrite.
const LEGACY_FILES: [&str; 2] = ["stamps.json", "deps.pack"];

/// One unit's slot in a segment index: the full decision metadata plus
/// the location and digest of its serialized body, encoded with the
/// fixed-width wire layout above.
#[derive(Debug, Clone)]
pub struct PackEntry {
    /// The unit's name.
    pub name: Symbol,
    /// Digest of the source the unit was compiled from.
    pub source_pid: Pid,
    /// Imports in slot order.
    pub imports: Vec<ImportEdge>,
    /// The exported interface's intrinsic pid.
    pub export_pid: Pid,
    /// Virtual mtime of the bin (timestamp strategy).
    pub mtime: u64,
    /// Byte offset of the body within the pack.
    pub offset: u64,
    /// Byte length of the body.
    pub len: u64,
    /// Digest of the body bytes; verified before the body is parsed.
    pub digest: Pid,
}

impl PackEntry {
    /// The entry's decision metadata.
    pub fn meta(&self) -> BinMeta {
        BinMeta {
            name: self.name,
            source_pid: self.source_pid,
            imports: self.imports.clone(),
            export_pid: self.export_pid,
            mtime: self.mtime,
        }
    }

    /// [`Self::meta`], moving the import list instead of copying it.
    pub fn into_meta(self) -> BinMeta {
        BinMeta {
            name: self.name,
            source_pid: self.source_pid,
            imports: self.imports,
            export_pid: self.export_pid,
            mtime: self.mtime,
        }
    }
}

/// An upper bound on the bytes one unit adds to a segment: its body,
/// its index entry, and its name and import edges as if no string were
/// shared.  Summed over a save's bins, plus its [`section_len`]s, it is
/// what [`PackTail::fits`] is asked before an append.
pub fn entry_len_bound(meta: &BinMeta, body_len: usize) -> u64 {
    let string = |s: Symbol| 4 + s.as_str().len() as u64;
    let edges: u64 = meta.imports.iter().map(|i| 20 + string(i.unit)).sum();
    body_len as u64 + ENTRY_LEN as u64 + string(meta.name) + edges
}

/// The bytes a section of `len` payload bytes adds to a segment; summed
/// with the [`entry_len_bound`]s for [`PackTail::fits`].
pub fn section_len(len: usize) -> u64 {
    SECTION_HEADER_LEN + len as u64
}

/// The name table at the front of the index and of a stamp section:
/// each distinct name written once (`u32 n; n × (u32 len | bytes)`), in
/// first-appearance order, and referred to by its `u32` position.
#[derive(Debug, Default)]
pub(crate) struct NameTable {
    names: Vec<Symbol>,
    ids: std::collections::HashMap<Symbol, u32>,
}

impl NameTable {
    /// The id of `name`, adding it on first appearance.
    pub(crate) fn id(&mut self, name: Symbol) -> u32 {
        *self.ids.entry(name).or_insert_with(|| {
            self.names.push(name);
            (self.names.len() - 1) as u32
        })
    }

    /// Writes the table.
    pub(crate) fn write(&self, w: &mut Writer) {
        w.u32(self.names.len() as u32);
        for s in &self.names {
            w.str(s.as_str());
        }
    }
}

/// Encodes the binary index: name table, flat edge table, fixed-width
/// entry table.
fn encode_index(entries: &[PackEntry]) -> Vec<u8> {
    let mut table = NameTable::default();
    // First-appearance order: entry names, then their import names.
    let mut edges: Vec<(u32, Pid)> = Vec::new();
    let mut slots: Vec<(u32, u32, u32)> = Vec::with_capacity(entries.len());
    for e in entries {
        let name_ix = table.id(e.name);
        let start = edges.len() as u32;
        for i in &e.imports {
            edges.push((table.id(i.unit), i.pid));
        }
        slots.push((name_ix, start, e.imports.len() as u32));
    }
    let mut w = Writer::new();
    table.write(&mut w);
    w.u32(edges.len() as u32);
    for (ix, pid) in &edges {
        w.u32(*ix);
        w.u128(pid.as_raw());
    }
    w.u32(entries.len() as u32);
    for (e, (name_ix, start, count)) in entries.iter().zip(&slots) {
        w.u32(*name_ix);
        w.u128(e.source_pid.as_raw());
        w.u128(e.export_pid.as_raw());
        w.u64(e.mtime);
        w.u64(e.offset);
        w.u64(e.len);
        w.u128(e.digest.as_raw());
        w.u32(*start);
        w.u32(*count);
    }
    w.into_bytes()
}

/// The stamp and graph sections of one segment, decoded.
#[derive(Debug, Default)]
struct Sections {
    stamps: Option<StampSection>,
    graph: Option<DepGraph>,
}

/// Decodes the binary index and the sections after it.  Symbols intern
/// straight from the buffer; nothing else allocates beyond the decoded
/// entries and sections themselves.
fn decode_index(bytes: &[u8]) -> Result<(Vec<PackEntry>, Sections), String> {
    let mut r = Reader::new(bytes);
    let err = |e: smlsc_pickle::PickleError| e.to_string();
    // Every string takes its 4-byte length, an edge a name index and a
    // pid, an entry `ENTRY_LEN` bytes.
    let nstrings = r.count(4).map_err(err)?;
    let mut strings = Vec::with_capacity(nstrings);
    for _ in 0..nstrings {
        strings.push(Symbol::intern(r.str_ref().map_err(err)?));
    }
    let nedges = r.count(4 + 16).map_err(err)?;
    let mut edges = Vec::with_capacity(nedges);
    for _ in 0..nedges {
        let ix = r.u32().map_err(err)? as usize;
        let pid = Pid::from_raw(r.u128().map_err(err)?);
        let unit = *strings
            .get(ix)
            .ok_or_else(|| format!("edge name index {ix} out of range"))?;
        edges.push(ImportEdge { unit, pid });
    }
    let nentries = r.count(ENTRY_LEN).map_err(err)?;
    let mut entries = Vec::with_capacity(nentries);
    for _ in 0..nentries {
        let name_ix = r.u32().map_err(err)? as usize;
        let source_pid = Pid::from_raw(r.u128().map_err(err)?);
        let export_pid = Pid::from_raw(r.u128().map_err(err)?);
        let mtime = r.u64().map_err(err)?;
        let offset = r.u64().map_err(err)?;
        let len = r.u64().map_err(err)?;
        let digest = Pid::from_raw(r.u128().map_err(err)?);
        let edges_start = r.u32().map_err(err)? as usize;
        let edges_count = r.u32().map_err(err)? as usize;
        let name = *strings
            .get(name_ix)
            .ok_or_else(|| format!("entry name index {name_ix} out of range"))?;
        let end = edges_start
            .checked_add(edges_count)
            .filter(|&end| end <= edges.len())
            .ok_or_else(|| format!("entry `{name}` edge range out of bounds"))?;
        entries.push(PackEntry {
            name,
            source_pid,
            imports: edges[edges_start..end].to_vec(),
            export_pid,
            mtime,
            offset,
            len,
            digest,
        });
    }
    let mut sections = Sections::default();
    while !r.at_end() {
        let kind = r.u8().map_err(err)?;
        let body = r.bytes_ref().map_err(err)?;
        match kind {
            SECTION_STAMPS if sections.stamps.is_none() => {
                sections.stamps = Some(stamps::decode_section(body)?);
            }
            SECTION_GRAPH if sections.graph.is_none() => {
                sections.graph = Some(DepGraph::decode(body)?);
            }
            _ => return Err(format!("unexpected section kind {kind}")),
        }
    }
    Ok((entries, sections))
}

/// Positioned read without seeking — lock-free body slicing.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ))
            }
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Positioned write: segments land at the pack's valid end, and a
/// segment's length word is patched in after its bytes.
#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(windows)]
fn write_all_at(file: &File, mut buf: &[u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_write(buf, offset) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                buf = &buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Which file a [`PackTail`] describes: another writer's rename changes
/// the inode, its append the length and mtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileId {
    dev: u64,
    ino: u64,
    len: u64,
    mtime: Option<SystemTime>,
}

impl FileId {
    fn of(meta: &std::fs::Metadata) -> FileId {
        #[cfg(unix)]
        let (dev, ino) = {
            use std::os::unix::fs::MetadataExt;
            (meta.dev(), meta.ino())
        };
        #[cfg(not(unix))]
        let (dev, ino) = (0, 0);
        FileId {
            dev,
            ino,
            len: meta.len(),
            mtime: meta.modified().ok(),
        }
    }
}

/// Where the next append may go: the identity and valid extent of a
/// pack this process opened or last wrote.  [`PackWriter::open`]
/// appends only while the file on disk still is exactly this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackTail {
    file: FileId,
    /// Length of the first segment (0 when the file holds no valid
    /// segment to append after, e.g. after a torn rewrite).
    first_len: u64,
    /// End of the last valid segment: where an append writes.
    valid_end: u64,
}

impl PackTail {
    /// Whether appending a segment whose units and sections add
    /// `entries_len` bytes (the sum of their [`entry_len_bound`]s and
    /// [`section_len`]s) keeps every appended segment, this one
    /// included, within 1/32 of the first segment.
    pub fn fits(&self, entries_len: u64) -> bool {
        let appended = self.valid_end - HEADER_LEN - self.first_len;
        let segment = SEGMENT_HEADER_LEN + 12 + entries_len + FOOTER_LEN;
        appended + segment <= self.first_len / GROWTH_DIVISOR
    }

    /// End of the last valid segment.
    pub fn valid_end(&self) -> u64 {
        self.valid_end
    }
}

/// The lock every writer of the pack at `dest` holds: `bins.pack.lock`
/// beside it.
pub fn lock_path(dest: &Path) -> PathBuf {
    dest.with_extension("pack.lock")
}

/// Takes `bins.pack.lock` for `dest`, breaking it when its recorded
/// owner is dead and waiting for a live one.
///
/// # Errors
///
/// [`CoreError::Io`] when a live holder outlasts the wait or the lock
/// file cannot be created.
pub fn lock(dest: &Path) -> Result<LockGuard, CoreError> {
    fsutil::acquire(
        &lock_path(dest),
        Stale::OwnerDead,
        LOCK_WAIT,
        points::PACK_LOCK,
    )
    .map_err(io_err(dest))
}

/// Cuts a torn tail off the pack at `path`, under the pack lock (a
/// no-op when the file ends on a valid segment or is absent).
///
/// # Errors
///
/// [`CoreError::CorruptBin`] when the pack has no valid segment at
/// all; [`CoreError::Io`] on filesystem failures.
pub fn truncate_torn_tail(path: &Path) -> Result<(), CoreError> {
    let _lock = lock(path)?;
    match PackReader::open(path)? {
        Some(reader) if reader.torn_tail() > 0 => {
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(io_err(path))?;
            file.set_len(reader.tail.valid_end)
                .and_then(|()| file.sync_all())
                .map_err(io_err(path))
        }
        _ => Ok(()),
    }
}

/// An open pack: the merged index of its valid segments plus a shared
/// handle for body reads.
///
/// Every read is a positioned read (`pread`) and every index and body
/// is digest-verified, so a concurrent writer cutting a torn tail off
/// in place makes a read fail, never fault.
#[derive(Debug)]
pub struct PackReader {
    path: PathBuf,
    bodies: Arc<PackBodies>,
    entries: Vec<PackEntry>,
    stamps: StampCache,
    graph: Option<DepGraph>,
    tail: PackTail,
}

impl PackReader {
    /// Opens `path`, reading and validating only the header and each
    /// segment's length word, footer and index (never a body).
    /// Returns `Ok(None)` when the file does not exist.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptBin`] when the header or the first segment
    /// is malformed — the whole pack is then unusable (callers fall
    /// back to recompiling), but this is the only failure mode that is
    /// not per-unit.  A bad *later* segment is a torn tail instead
    /// ([`PackReader::torn_tail`]).
    pub fn open(path: &Path) -> Result<Option<PackReader>, CoreError> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CoreError::Io(format!("{}: {e}", path.display()))),
        };
        let meta = file
            .metadata()
            .map_err(|e| CoreError::Io(format!("{}: {e}", path.display())))?;
        let corrupt = |m: String| CoreError::CorruptBin(format!("{}: {m}", path.display()));
        let total = meta.len();
        if total < HEADER_LEN + SEGMENT_HEADER_LEN + FOOTER_LEN {
            return Err(corrupt(format!("truncated ({total} bytes)")));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        read_exact_at(&file, &mut header, 0).map_err(|e| corrupt(e.to_string()))?;
        if &header[..8] != PACK_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        if header[8] != PACK_VERSION {
            return Err(corrupt(format!(
                "unsupported pack version {} (expected {PACK_VERSION})",
                header[8]
            )));
        }
        let mut entries = Vec::new();
        let mut later = Vec::new();
        let mut stamps = StampCache::new();
        let mut graph = None;
        let mut first_len = 0;
        let mut end = HEADER_LEN;
        while end < total {
            let (seg_end, seg, sections) = match read_segment(&file, end, total) {
                Ok(seg) => seg,
                Err(m) if end == HEADER_LEN => return Err(corrupt(m)),
                Err(_) => break,
            };
            if end == HEADER_LEN {
                first_len = seg_end - end;
                entries = seg;
            } else {
                later.extend(seg);
            }
            if let Some(section) = sections.stamps {
                stamps.merge_section(section);
            }
            if sections.graph.is_some() {
                graph = sections.graph;
            }
            end = seg_end;
        }
        if !later.is_empty() {
            // Later segments win by name, replacing in place; callers
            // see one sorted list.
            let mut newest: std::collections::HashMap<Symbol, PackEntry> =
                later.into_iter().map(|e| (e.name, e)).collect();
            for e in &mut entries {
                if let Some(n) = newest.remove(&e.name) {
                    *e = n;
                }
            }
            if !newest.is_empty() {
                entries.extend(newest.into_values());
                entries.sort_by_cached_key(|e| e.name.as_str());
            }
        }
        Ok(Some(PackReader {
            path: path.to_path_buf(),
            bodies: Arc::new(PackBodies { file }),
            entries,
            stamps,
            graph,
            tail: PackTail {
                file: FileId::of(&meta),
                first_len,
                valid_end: end,
            },
        }))
    }

    /// The pack's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The merged index of every valid segment, sorted by name.
    pub fn entries(&self) -> &[PackEntry] {
        &self.entries
    }

    /// The stamp cache merged from every valid segment's stamp section.
    pub fn stamps(&self) -> &StampCache {
        &self.stamps
    }

    /// The import graph of the last valid segment that carries one.
    pub fn graph(&self) -> Option<&DepGraph> {
        self.graph.as_ref()
    }

    /// Moves the merged index, the stamp cache and the graph out of the
    /// reader, leaving them empty.
    pub fn take_state(&mut self) -> (Vec<PackEntry>, StampCache, Option<DepGraph>) {
        (
            std::mem::take(&mut self.entries),
            std::mem::take(&mut self.stamps),
            self.graph.take(),
        )
    }

    /// Where an append to this file would go (see [`PackWriter::open`]).
    pub fn tail(&self) -> &PackTail {
        &self.tail
    }

    /// Bytes after the last valid segment: the remains of an
    /// interrupted append, ignored here and cut off by the next one.
    pub fn torn_tail(&self) -> u64 {
        self.tail.file.len - self.tail.valid_end
    }

    /// The reader's body handle, shared by every lazy body it serves.
    pub(crate) fn bodies(&self) -> &Arc<PackBodies> {
        &self.bodies
    }

    /// Reads and digest-verifies one body slice; see
    /// [`PackBodies::read_body`].
    ///
    /// # Errors
    ///
    /// A description of the IO failure or digest mismatch.
    pub fn read_body(&self, offset: u64, len: u64, digest: Pid) -> Result<Vec<u8>, String> {
        self.bodies.read_body(offset, len, digest)
    }
}

/// Read access to the bodies of one pack file, with no index: a
/// [`PackReader`] opens one, and every save ([`Sealed::bodies`]) opens
/// one for reads of what it just wrote.  The handle keeps its file open, so its offsets stay valid
/// after a later rewrite renames a new pack over the path.
#[derive(Debug)]
pub struct PackBodies {
    file: File,
}

impl PackBodies {
    /// Reads and digest-verifies one body slice with a positioned read —
    /// no seek, no lock, safe to call from many workers at once.  The
    /// `Err` string names the failure; callers wrap it in
    /// [`CoreError::BinBodyCorrupt`].
    ///
    /// # Errors
    ///
    /// A description of the IO failure or digest mismatch.
    pub fn read_body(&self, offset: u64, len: u64, digest: Pid) -> Result<Vec<u8>, String> {
        let mut buf = vec![0u8; usize::try_from(len).map_err(|_| "body too large".to_string())?];
        read_exact_at(&self.file, &mut buf, offset).map_err(|e| e.to_string())?;
        trace::counter(names::BIN_BYTES_READ, len);
        let got = Pid::of_bytes(&buf);
        if got != digest {
            return Err(format!("body digest mismatch (want {digest}, got {got})"));
        }
        Ok(buf)
    }
}

/// Validates the segment starting at `start` of a `total`-byte pack and
/// decodes its index and sections.  Returns the segment's end, entries and sections, or why it is
/// invalid.
fn read_segment(
    file: &File,
    start: u64,
    total: u64,
) -> Result<(u64, Vec<PackEntry>, Sections), String> {
    let at = |what: &str| format!("segment at {start}: {what}");
    let mut word = [0u8; SEGMENT_HEADER_LEN as usize];
    read_exact_at(file, &mut word, start).map_err(|e| at(&e.to_string()))?;
    let len = u64::from_le_bytes(word);
    let end = start
        .checked_add(len)
        .filter(|&end| len >= SEGMENT_HEADER_LEN + FOOTER_LEN && end <= total)
        .ok_or_else(|| at(&format!("length {len} out of range ({total} bytes)")))?;
    // Footer fields: [0..8) offset, [8..16) len, [16..32) digest,
    // [32..40) magic.
    let mut footer = [0u8; FOOTER_LEN as usize];
    read_exact_at(file, &mut footer, end - FOOTER_LEN).map_err(|e| at(&e.to_string()))?;
    if &footer[32..40] != FOOTER_MAGIC {
        return Err(at("bad footer magic"));
    }
    let index_offset = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
    let index_len = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
    let index_digest = Pid::from_raw(u128::from_le_bytes(
        footer[16..32].try_into().expect("16 bytes"),
    ));
    if index_offset < start + SEGMENT_HEADER_LEN
        || index_offset
            .checked_add(index_len)
            .is_none_or(|index_end| index_end != end - FOOTER_LEN)
    {
        return Err(at("index bounds out of range"));
    }
    let mut index_bytes = vec![0u8; usize::try_from(index_len).map_err(|_| at("index too large"))?];
    read_exact_at(file, &mut index_bytes, index_offset).map_err(|e| at(&e.to_string()))?;
    trace::counter(
        names::BIN_BYTES_READ,
        SEGMENT_HEADER_LEN + FOOTER_LEN + index_len,
    );
    if Pid::of_bytes(&index_bytes) != index_digest {
        return Err(at("index digest mismatch"));
    }
    let (entries, sections) =
        decode_index(&index_bytes).map_err(|e| at(&format!("index parse: {e}")))?;
    for e in &entries {
        if e.offset < start + SEGMENT_HEADER_LEN
            || e.offset
                .checked_add(e.len)
                .is_none_or(|body_end| body_end > index_offset)
        {
            return Err(at(&format!("entry `{}` bounds out of range", e.name)));
        }
    }
    Ok((end, entries, sections))
}

/// Where a [`PackWriter`]'s segment goes.
#[derive(Debug)]
enum Sink {
    /// A full rewrite: a fresh one-segment file streamed, through a
    /// bounded buffer, into a staging file.
    Rewrite(BufWriter<AtomicFile>),
    /// An append: the segment is assembled in memory (the growth bound
    /// keeps it small) and written at the valid end by `finish`.
    Append {
        file: File,
        segment: Vec<u8>,
        torn: bool,
    },
}

/// A finished save: where the next append may go, and the bodies the
/// saved segment holds.
#[derive(Debug)]
pub struct Sealed {
    /// Where the next append may go.
    pub tail: PackTail,
    /// The segment's index entries, in the order the bodies were added.
    pub entries: Vec<PackEntry>,
    /// Positioned reads of the file the segment went to.
    pub bodies: Arc<PackBodies>,
}

/// An in-progress save of one segment, holding `bins.pack.lock` until
/// it is finished or dropped: bodies added one at a time, then the
/// index, sections and footer sealed and made durable by
/// [`PackWriter::finish_with`].  Dropping an unfinished writer leaves
/// the previous pack untouched.
#[derive(Debug)]
pub struct PackWriter {
    dest: PathBuf,
    sink: Sink,
    /// Offset of this segment's length word.
    start: u64,
    /// Offset of the next body.
    cursor: u64,
    /// The first segment's length, when appending after it.
    first_len: u64,
    entries: Vec<PackEntry>,
    saved_at: u64,
    _lock: LockGuard,
}

impl PackWriter {
    /// Starts a full rewrite of `dest`; see [`PackWriter::open`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures.
    pub fn create(dest: &Path) -> Result<PackWriter, CoreError> {
        PackWriter::open(dest, None)
    }

    /// Takes the pack lock and starts a save of `dest`: an appended
    /// segment when `tail` is given and `dest` still is the file it
    /// describes, a full rewrite into a staging file otherwise.  Either
    /// way this is the `begin` stage of the `pack.save` fault point.
    /// Callers must append only when the units they add fit
    /// ([`PackTail::fits`]) and no unit left the pack.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures.
    pub fn open(dest: &Path, tail: Option<&PackTail>) -> Result<PackWriter, CoreError> {
        let lock = lock(dest)?;
        // The lock file was just created: its mtime is this save's
        // instant on the filesystem's own clock, the one source mtimes
        // come from.
        let saved_at = std::fs::metadata(lock_path(dest))
            .and_then(|m| m.modified())
            .unwrap_or_else(|_| SystemTime::now());
        let saved_at = saved_at
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        if let Some(tail) = tail.filter(|t| t.first_len > 0) {
            // A pack that is gone or cannot be reopened is rewritten;
            // the rewrite reports its own errors.
            if let Ok(file) = OpenOptions::new().read(true).write(true).open(dest) {
                let meta = file.metadata().map_err(io_err(dest))?;
                if FileId::of(&meta) == tail.file {
                    let name = dest.file_name().unwrap_or_default().to_string_lossy();
                    let fault = fsutil::check_stage(Some(points::PACK_SAVE), "begin", &name);
                    if fault == Some(FaultKind::Io) {
                        return Err(io_err(dest)(faults::io_error(points::PACK_SAVE, &name)));
                    }
                    return Ok(PackWriter {
                        dest: dest.to_path_buf(),
                        sink: Sink::Append {
                            file,
                            segment: 0u64.to_le_bytes().to_vec(),
                            torn: fault == Some(FaultKind::Torn),
                        },
                        start: tail.valid_end,
                        cursor: tail.valid_end + SEGMENT_HEADER_LEN,
                        first_len: tail.first_len,
                        entries: Vec::new(),
                        saved_at,
                        _lock: lock,
                    });
                }
            }
        }
        let file = AtomicFile::create(fsutil::unique_tmp(dest), dest, Some(points::PACK_SAVE))
            .map_err(io_err(dest))?;
        let mut out = BufWriter::with_capacity(WRITE_BUFFER, file);
        out.write_all(PACK_MAGIC)
            .and_then(|()| out.write_all(&[PACK_VERSION]))
            .and_then(|()| out.write_all(&0u64.to_le_bytes()))
            .map_err(io_err(dest))?;
        Ok(PackWriter {
            dest: dest.to_path_buf(),
            sink: Sink::Rewrite(out),
            start: HEADER_LEN,
            cursor: HEADER_LEN + SEGMENT_HEADER_LEN,
            first_len: 0,
            entries: Vec::new(),
            saved_at,
            _lock: lock,
        })
    }

    /// True when this save appends a segment (only the changed bins
    /// go in); false for a full rewrite (every bin goes in).
    pub fn appends(&self) -> bool {
        matches!(self.sink, Sink::Append { .. })
    }

    /// This save's instant, in nanoseconds since the epoch: the mtime of
    /// the lock file it holds.  A stamp section records it, and entries
    /// stamped at or after it are racy on load.
    pub fn saved_at(&self) -> u64 {
        self.saved_at
    }

    /// Adds one unit's body and records its index entry.  `digest`
    /// must be the digest of the *intended* bytes — fault-injection
    /// callers deliberately pass mangled `body` bytes with the true
    /// digest, simulating a torn non-atomic write that the lazy
    /// verification must catch later.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures.
    pub fn add(&mut self, meta: &BinMeta, body: &[u8], digest: Pid) -> Result<(), CoreError> {
        match &mut self.sink {
            Sink::Rewrite(out) => out.write_all(body).map_err(io_err(&self.dest))?,
            Sink::Append { segment, .. } => segment.extend_from_slice(body),
        }
        self.entries.push(PackEntry {
            name: meta.name,
            source_pid: meta.source_pid,
            imports: meta.imports.clone(),
            export_pid: meta.export_pid,
            mtime: meta.mtime,
            offset: self.cursor,
            len: body.len() as u64,
            digest,
        });
        self.cursor += body.len() as u64;
        Ok(())
    }

    /// Seals the segment — index, the given stamp and graph sections,
    /// footer, then its length word — and makes it durable: a rewrite
    /// commits its staging file into place and deletes the separate
    /// stamp and graph files of earlier releases; an append cuts off any
    /// torn tail, writes the segment at the valid end and fsyncs.
    /// Returns where the next append may go and what this save wrote.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures or an injected `io`
    /// fault; the previous pack is then intact (a staging file is
    /// removed, a partial append truncated away).
    pub fn finish_with(
        self,
        stamps: Option<&[u8]>,
        graph: Option<&[u8]>,
    ) -> Result<Sealed, CoreError> {
        let PackWriter {
            dest,
            sink,
            start,
            cursor,
            first_len,
            entries,
            _lock,
            ..
        } = self;
        let io = io_err(&dest);
        // The index, its sections and the footer go out piece by piece
        // under one streamed digest: at a full rewrite the stamp section
        // alone is megabytes, and is never copied.
        let index = encode_index(&entries);
        let sections: Vec<(u8, &[u8])> = [(SECTION_STAMPS, stamps), (SECTION_GRAPH, graph)]
            .into_iter()
            .filter_map(|(kind, section)| Some((kind, section?)))
            .collect();
        let headers: Vec<[u8; SECTION_HEADER_LEN as usize]> = sections
            .iter()
            .map(|&(kind, bytes)| {
                let mut h = [kind; SECTION_HEADER_LEN as usize];
                h[1..].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
                h
            })
            .collect();
        let mut pieces: Vec<&[u8]> = vec![&index];
        for (h, &(_, bytes)) in headers.iter().zip(&sections) {
            pieces.extend([h.as_slice(), bytes]);
        }
        let index_len: usize = pieces.iter().map(|p| p.len()).sum();
        trace::counter(names::BIN_BYTES_WRITTEN, (index_len - index.len()) as u64);
        let mut digest = Digest128::new();
        for p in &pieces {
            digest.write_bytes(p);
        }
        let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
        footer.extend_from_slice(&cursor.to_le_bytes());
        footer.extend_from_slice(&(index_len as u64).to_le_bytes());
        footer.extend_from_slice(&digest.finish().to_le_bytes());
        footer.extend_from_slice(FOOTER_MAGIC);
        pieces.push(&footer);
        let len = cursor + (index_len as u64 + FOOTER_LEN) - start;
        match sink {
            Sink::Rewrite(mut out) => {
                for p in &pieces {
                    out.write_all(p).map_err(&io)?;
                }
                let file = out.into_inner().map_err(|e| io(e.into_error()))?;
                write_all_at(file.as_file(), &len.to_le_bytes(), start).map_err(&io)?;
                file.commit().map_err(&io)?;
                for old in LEGACY_FILES {
                    std::fs::remove_file(dest.with_file_name(old)).ok();
                }
                // Opened under the lock, so it is the file just
                // committed, whoever renames a pack over it later.
                let file = File::open(&dest).map_err(&io)?;
                let meta = file.metadata().map_err(&io)?;
                // A torn commit (fault injection) leaves no segment to
                // append after.
                let whole = meta.len() == start + len;
                Ok(Sealed {
                    tail: PackTail {
                        file: FileId::of(&meta),
                        first_len: if whole { len } else { 0 },
                        valid_end: if whole { start + len } else { HEADER_LEN },
                    },
                    entries,
                    bodies: Arc::new(PackBodies { file }),
                })
            }
            Sink::Append {
                file,
                mut segment,
                torn,
            } => {
                for p in &pieces {
                    segment.extend_from_slice(p);
                }
                let name = dest.file_name().unwrap_or_default().to_string_lossy();
                let stage = |stage| match fsutil::check_stage(Some(points::PACK_SAVE), stage, &name)
                {
                    Some(FaultKind::Io) => Err(faults::io_error(points::PACK_SAVE, &name)),
                    _ => Ok(()),
                };
                let write = || -> std::io::Result<()> {
                    file.set_len(start)?;
                    let (head, rest) = segment.split_at(segment.len() / 2);
                    write_all_at(&file, head, start)?;
                    stage("mid")?;
                    write_all_at(&file, rest, start + head.len() as u64)?;
                    write_all_at(&file, &len.to_le_bytes(), start)?;
                    if torn {
                        file.set_len(start + len / 2)?;
                    }
                    file.sync_all()?;
                    stage("staged")
                };
                if let Err(e) = write() {
                    file.set_len(start).and_then(|()| file.sync_all()).ok();
                    return Err(io(e));
                }
                let meta = file.metadata().map_err(&io)?;
                Ok(Sealed {
                    tail: PackTail {
                        file: FileId::of(&meta),
                        first_len,
                        valid_end: if torn { start } else { start + len },
                    },
                    entries,
                    bodies: Arc::new(PackBodies { file }),
                })
            }
        }
    }
}

fn io_err(dest: &Path) -> impl Fn(std::io::Error) -> CoreError + '_ {
    move |e| CoreError::Io(format!("{}: {e}", dest.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{BinFile, CompiledUnit};
    use smlsc_dynamics::ir::Ir;

    fn bin(name: &str, mtime: u64) -> BinFile {
        BinFile {
            unit: CompiledUnit {
                name: Symbol::intern(name),
                source_pid: Pid::of_bytes(name.as_bytes()),
                imports: vec![ImportEdge {
                    unit: Symbol::intern("dep"),
                    pid: Pid::of_bytes(b"dep-exports"),
                }],
                export_pid: Pid::of_bytes(b"exports"),
                env_pickle: vec![7; 64],
                code: Ir::Int(1),
            },
            mtime,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "smlsc-pack-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_two(dir: &Path) -> PathBuf {
        let path = dir.join(PACK_FILE);
        let mut w = PackWriter::create(&path).unwrap();
        for (name, mtime) in [("a", 10), ("b", 20)] {
            let b = bin(name, mtime);
            let bytes = b.to_bytes();
            w.add(&b.meta(), &bytes, Pid::of_bytes(&bytes)).unwrap();
        }
        w.finish_with(None, None).unwrap();
        path
    }

    /// A bin for `name` whose mtime, body length and body bytes all
    /// vary with `version`.
    fn versioned(name: &str, version: u64) -> BinFile {
        let mut b = bin(name, version);
        b.unit.env_pickle = vec![version as u8; 16 + (version % 97) as usize];
        b
    }

    /// Writes `bins` as one segment: appended after the tail the
    /// pack's reader reports when `append` is set, a full rewrite
    /// otherwise.
    fn save<'a>(
        path: &Path,
        append: bool,
        bins: impl IntoIterator<Item = &'a BinFile>,
    ) -> PackTail {
        let tail = append.then(|| PackReader::open(path).unwrap().unwrap().tail().clone());
        let mut w = PackWriter::open(path, tail.as_ref()).unwrap();
        assert_eq!(w.appends(), append);
        for b in bins {
            let bytes = b.to_bytes();
            w.add(&b.meta(), &bytes, Pid::of_bytes(&bytes)).unwrap();
        }
        w.finish_with(None, None).unwrap().tail
    }

    /// What a reader serves: per unit (in entry order) its metadata,
    /// body digest and verified body bytes.
    fn contents(r: &PackReader) -> Vec<(String, Pid, Vec<u8>)> {
        r.entries()
            .iter()
            .map(|e| {
                let body = r.read_body(e.offset, e.len, e.digest).unwrap();
                (format!("{:?}", e.meta()), e.digest, body)
            })
            .collect()
    }

    /// A small seeded generator (xorshift64) for the append tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    fn units(n: usize) -> std::collections::BTreeMap<String, BinFile> {
        (0..n)
            .map(|i| {
                let name = format!("u{i:03}");
                let b = versioned(&name, 0);
                (name, b)
            })
            .collect()
    }

    #[test]
    fn seeded_appends_read_back_like_a_full_rewrite() {
        for seed in [1u64, 7, 1994] {
            let dir = tmp_dir(&format!("appends-{seed}"));
            let path = dir.join(PACK_FILE);
            let mut rng = Rng(seed);
            let mut model = units(20);
            save(&path, false, model.values());
            for round in 1..=12 {
                // Replace a few units, sometimes one twice, and now and
                // then add a new one (u020..u023).
                let mut segment = Vec::new();
                for _ in 0..=rng.below(3) {
                    let name = format!("u{:03}", rng.below(24));
                    let b = versioned(&name, round * 10 + rng.below(10));
                    model.insert(name, b.clone());
                    segment.push(b);
                }
                save(&path, true, &segment);
            }
            let fresh = dir.join("fresh.pack");
            save(&fresh, false, model.values());
            let want = contents(&PackReader::open(&fresh).unwrap().unwrap());
            assert_eq!(want.len(), model.len());
            let r = PackReader::open(&path).unwrap().unwrap();
            assert_eq!(r.torn_tail(), 0);
            assert_eq!(contents(&r), want, "seed {seed}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn torn_last_segment_is_ignored_and_cut_off_by_the_next_append() {
        let dir = tmp_dir("torntail");
        let path = dir.join(PACK_FILE);
        // Two tears: the segment cut in half (a torn write), and the
        // whole segment with its length word never patched in (a crash
        // just before the patch).
        for tear in ["half", "unpatched"] {
            save(&path, false, &[versioned("a", 1), versioned("b", 1)]);
            let clean = PackReader::open(&path).unwrap().unwrap();
            let (want, valid_end) = (contents(&clean), clean.tail().valid_end());
            drop(clean);
            // Three units torn, so the one-unit append after it is
            // shorter than the tail it must cut off.
            save(
                &path,
                true,
                &[versioned("a", 2), versioned("b", 2), versioned("c", 2)],
            );
            let len = std::fs::metadata(&path).unwrap().len();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            if tear == "half" {
                f.set_len(valid_end + (len - valid_end) / 2).unwrap();
            } else {
                write_all_at(&f, &0u64.to_le_bytes(), valid_end).unwrap();
            }
            drop(f);
            let torn = std::fs::metadata(&path).unwrap().len() - valid_end;
            let r = PackReader::open(&path).unwrap().unwrap();
            assert_eq!(contents(&r), want, "{tear}: the valid prefix is served");
            assert_eq!(r.torn_tail(), torn, "{tear}");
            assert_eq!(r.tail().valid_end(), valid_end, "{tear}");
            let tail = save(&path, true, &[versioned("b", 3)]);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                tail.valid_end(),
                "{tear}: the append cut the torn tail off"
            );
            let r = PackReader::open(&path).unwrap().unwrap();
            assert_eq!(r.torn_tail(), 0, "{tear}");
            let mtimes: Vec<u64> = r.entries().iter().map(|e| e.mtime).collect();
            assert_eq!(mtimes, [1, 3], "{tear}: a from the prefix, b appended");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_stay_within_a_thirty_second_of_the_first_segment() {
        let dir = tmp_dir("growth");
        let path = dir.join(PACK_FILE);
        let mut model = units(256);
        save(&path, false, model.values());
        let mut rng = Rng(32);
        let (mut appends, mut rewrites) = (0, 0);
        for round in 1..=200 {
            let name = format!("u{:03}", rng.below(256));
            let b = versioned(&name, round);
            model.insert(name, b.clone());
            let tail = PackReader::open(&path).unwrap().unwrap().tail().clone();
            if tail.fits(entry_len_bound(&b.meta(), b.to_bytes().len())) {
                save(&path, true, [&b]);
                appends += 1;
            } else {
                save(&path, false, model.values());
                rewrites += 1;
            }
            let first = PackReader::open(&path).unwrap().unwrap().tail().first_len;
            let len = std::fs::metadata(&path).unwrap().len();
            assert!(
                len - HEADER_LEN <= first + first / GROWTH_DIVISOR,
                "round {round}"
            );
        }
        assert!(
            appends > rewrites && rewrites > 1,
            "{appends} appends, {rewrites} rewrites"
        );
        let fresh = dir.join("fresh.pack");
        save(&fresh, false, model.values());
        let want = contents(&PackReader::open(&fresh).unwrap().unwrap());
        assert_eq!(contents(&PackReader::open(&path).unwrap().unwrap()), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record of a one-byte file for `unit` at `mtime`.
    fn stamp(unit: &str, mtime: u64) -> stamps::StampEntry {
        stamps::StampEntry {
            stat: Some((mtime, 1)),
            analysis: std::sync::Arc::new(stamps::Analysis::new(
                Pid::of_bytes(unit.as_bytes()),
                vec![],
                vec![Symbol::intern(unit)],
            )),
        }
    }

    /// Saves one segment carrying `bins`, `stamps` (unsaved entries on
    /// an append, every entry on a rewrite) and `graph`.
    fn save_state(
        path: &Path,
        append: bool,
        bins: &[BinFile],
        stamps: &StampCache,
        graph: Option<&DepGraph>,
    ) {
        let tail = append.then(|| PackReader::open(path).unwrap().unwrap().tail().clone());
        let mut w = PackWriter::open(path, tail.as_ref()).unwrap();
        assert_eq!(w.appends(), append);
        for b in bins {
            let bytes = b.to_bytes();
            w.add(&b.meta(), &bytes, Pid::of_bytes(&bytes)).unwrap();
        }
        let stamps = stamps.encode_section(!append, w.saved_at());
        let graph = graph.map(DepGraph::encode);
        w.finish_with(stamps.as_deref(), graph.as_deref()).unwrap();
    }

    fn graph_of(names: &[&str]) -> DepGraph {
        let order: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        let pids = names.iter().map(|n| Pid::of_bytes(n.as_bytes())).collect();
        let imports = (0..names.len()).map(|i| (0..i).collect()).collect();
        DepGraph::new(order, pids, imports)
    }

    fn stamp_mtimes(r: &PackReader, units: &[&str]) -> Vec<Option<u64>> {
        units
            .iter()
            .map(|unit| (1..=3).find(|&m| r.stamps().lookup(Symbol::intern(unit), m, 1).is_some()))
            .collect()
    }

    #[test]
    fn stamp_and_graph_sections_merge_across_segments() {
        let dir = tmp_dir("sections");
        let path = dir.join(PACK_FILE);
        let old = graph_of(&["a", "b"]);
        let new = graph_of(&["a", "b", "c"]);
        let mut cache = StampCache::new();
        cache.record(Symbol::intern("a"), stamp("a", 1));
        cache.record(Symbol::intern("b"), stamp("b", 1));
        save_state(&path, false, &[versioned("a", 1)], &cache, Some(&old));
        cache.mark_saved();
        // A stamp-only segment (a `touch`): one record, no bins, no graph.
        cache.record(Symbol::intern("b"), stamp("b", 2));
        save_state(&path, true, &[], &cache, None);
        cache.mark_saved();
        // A graph-only segment.
        save_state(&path, true, &[], &cache, Some(&new));
        let units = ["a", "b"];
        let r = PackReader::open(&path).unwrap().unwrap();
        assert_eq!(r.torn_tail(), 0);
        assert_eq!(
            stamp_mtimes(&r, &units),
            [Some(1), Some(2)],
            "later stamps win"
        );
        assert_eq!(
            r.graph().unwrap().order(),
            new.order(),
            "the last graph wins"
        );
        assert_eq!(r.entries().len(), 1);

        // A flipped byte in the last segment's graph section fails that
        // segment alone: its bytes become a torn tail, and the reader
        // serves the earlier graph and every earlier stamp.
        let len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(len - FOOTER_LEN - 3) as usize] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let r = PackReader::open(&path).unwrap().unwrap();
        assert!(r.torn_tail() > 0);
        assert_eq!(r.graph().unwrap().order(), old.order());
        assert_eq!(stamp_mtimes(&r, &units), [Some(1), Some(2)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_pack_without_sections_reads_as_no_stamps_and_no_graph() {
        let dir = tmp_dir("nosections");
        let path = write_two(&dir);
        let r = PackReader::open(&path).unwrap().unwrap();
        assert!(r.stamps().is_empty());
        assert!(r.graph().is_none());
        assert_eq!(r.entries().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_full_rewrite_deletes_the_files_of_earlier_releases() {
        let dir = tmp_dir("legacy");
        for old in LEGACY_FILES {
            std::fs::write(dir.join(old), b"old").unwrap();
        }
        write_two(&dir);
        for old in LEGACY_FILES {
            assert!(!dir.join(old).exists(), "{old}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_leaves_the_pack_as_it_was() {
        use smlsc_faults::{install_scoped, FaultPlan, FaultRule};
        let dir = tmp_dir("failedappend");
        let path = write_two(&dir);
        let want = contents(&PackReader::open(&path).unwrap().unwrap());
        let len = std::fs::metadata(&path).unwrap().len();
        for stage in ["begin", "mid", "staged"] {
            let _f = install_scoped(
                FaultPlan::default()
                    .with(FaultRule::new(points::PACK_SAVE, FaultKind::Io).filtered(stage)),
            );
            let tail = PackReader::open(&path).unwrap().unwrap().tail().clone();
            let result = PackWriter::open(&path, Some(&tail)).and_then(|mut w| {
                let b = versioned("a", 9);
                let bytes = b.to_bytes();
                w.add(&b.meta(), &bytes, Pid::of_bytes(&bytes))?;
                w.finish_with(None, None)
            });
            assert!(result.is_err(), "{stage}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), len, "{stage}");
            assert_eq!(
                contents(&PackReader::open(&path).unwrap().unwrap()),
                want,
                "{stage}"
            );
        }
        assert!(!lock_path(&path).exists(), "the lock is released");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn smlspak2_packs_are_rejected() {
        let dir = tmp_dir("v2");
        let path = write_two(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"SMLSPAK2");
        bytes[8] = 2;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(PackReader::open(&path), Err(CoreError::CorruptBin(m)) if m.contains("bad magic"))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_trip_index_and_bodies() {
        let dir = tmp_dir("roundtrip");
        let path = write_two(&dir);
        let r = PackReader::open(&path).unwrap().unwrap();
        assert_eq!(r.entries().len(), 2);
        for e in r.entries() {
            let body = r.read_body(e.offset, e.len, e.digest).unwrap();
            let back = BinFile::from_bytes(&body).unwrap();
            assert_eq!(back.unit.name, e.name);
            assert_eq!(back.mtime, e.mtime);
            assert_eq!(back.unit.export_pid, e.export_pid);
            assert_eq!(back.unit.imports, e.imports);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absent_pack_is_none() {
        let dir = tmp_dir("absent");
        assert!(PackReader::open(&dir.join(PACK_FILE)).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_json_index_magic_is_rejected() {
        let dir = tmp_dir("oldmagic");
        let path = write_two(&dir);
        // A version-1 header (magic ending in `1`: the JSON-index
        // format of earlier releases) is no longer readable: the whole
        // pack is corrupt, its units recompile, and the next save
        // overwrites it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] = b'1';
        bytes[8] = 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            PackReader::open(&path),
            Err(CoreError::CorruptBin(m)) if m.contains("bad magic")
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_encoding_round_trips_shared_names() {
        let a = bin("a", 10);
        let entries = vec![
            PackEntry {
                name: a.unit.name,
                source_pid: a.unit.source_pid,
                imports: a.unit.imports.clone(),
                export_pid: a.unit.export_pid,
                mtime: 10,
                offset: HEADER_LEN,
                len: 64,
                digest: Pid::of_bytes(b"body-a"),
            },
            PackEntry {
                // "dep" also appears as an import of `a`: the string
                // table must share it.
                name: Symbol::intern("dep"),
                source_pid: Pid::of_bytes(b"dep-src"),
                imports: Vec::new(),
                export_pid: Pid::of_bytes(b"dep-exports"),
                mtime: 20,
                offset: HEADER_LEN + 64,
                len: 32,
                digest: Pid::of_bytes(b"body-dep"),
            },
        ];
        let bytes = encode_index(&entries);
        let (back, _) = decode_index(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        for (e, b) in entries.iter().zip(&back) {
            assert_eq!(e.name, b.name);
            assert_eq!(e.source_pid, b.source_pid);
            assert_eq!(e.imports, b.imports);
            assert_eq!(e.export_pid, b.export_pid);
            assert_eq!(e.mtime, b.mtime);
            assert_eq!(e.offset, b.offset);
            assert_eq!(e.len, b.len);
            assert_eq!(e.digest, b.digest);
        }
        // Three distinct strings: a, dep (shared), and nothing else.
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 2, "string table must dedupe `dep`");
    }

    /// Golden bytes for the binary index encoder, mirroring the
    /// `Digest128` golden tests: a failure here means "you changed the
    /// on-disk index layout", not "update the constants" — bump
    /// `PACK_VERSION` instead.
    #[test]
    fn golden_index_bytes_are_stable() {
        let entries = vec![PackEntry {
            name: Symbol::intern("M0"),
            source_pid: Pid::from_raw(0x1111),
            imports: vec![ImportEdge {
                unit: Symbol::intern("M1"),
                pid: Pid::from_raw(0x2222),
            }],
            export_pid: Pid::from_raw(0x3333),
            mtime: 7,
            offset: 9,
            len: 5,
            digest: Pid::from_raw(0x4444),
        }];
        let got = encode_index(&entries);
        let want: Vec<u8> = {
            let mut w = Vec::new();
            w.extend_from_slice(&2u32.to_le_bytes()); // 2 strings
            w.extend_from_slice(&2u32.to_le_bytes());
            w.extend_from_slice(b"M0");
            w.extend_from_slice(&2u32.to_le_bytes());
            w.extend_from_slice(b"M1");
            w.extend_from_slice(&1u32.to_le_bytes()); // 1 edge
            w.extend_from_slice(&1u32.to_le_bytes()); // -> "M1"
            w.extend_from_slice(&0x2222u128.to_le_bytes());
            w.extend_from_slice(&1u32.to_le_bytes()); // 1 entry
            w.extend_from_slice(&0u32.to_le_bytes()); // name "M0"
            w.extend_from_slice(&0x1111u128.to_le_bytes());
            w.extend_from_slice(&0x3333u128.to_le_bytes());
            w.extend_from_slice(&7u64.to_le_bytes());
            w.extend_from_slice(&9u64.to_le_bytes());
            w.extend_from_slice(&5u64.to_le_bytes());
            w.extend_from_slice(&0x4444u128.to_le_bytes());
            w.extend_from_slice(&0u32.to_le_bytes()); // edges_start
            w.extend_from_slice(&1u32.to_le_bytes()); // edges_count
            w
        };
        assert_eq!(got, want, "binary index layout changed");
        // Entry table width is part of the format: 84 bytes per entry.
        let strings_len = 4 + (4 + 2) + (4 + 2);
        let edges_len = 4 + (4 + 16);
        assert_eq!(got.len(), strings_len + edges_len + 4 + 84);
    }

    #[test]
    fn golden_empty_index_bytes_are_stable() {
        assert_eq!(encode_index(&[]), vec![0u8; 12], "empty index layout");
    }

    #[test]
    fn torn_body_fails_verification_but_index_loads() {
        let dir = tmp_dir("tornbody");
        let path = write_two(&dir);
        // Flip a byte inside the first body: the index (at the tail)
        // still verifies, only that body's digest check fails.
        let mut bytes = std::fs::read(&path).unwrap();
        let r = PackReader::open(&path).unwrap().unwrap();
        let e0 = r.entries()[0].clone();
        let e1 = r.entries()[1].clone();
        drop(r);
        bytes[e0.offset as usize + 4] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let r = PackReader::open(&path).unwrap().unwrap();
        assert!(r.read_body(e0.offset, e0.len, e0.digest).is_err());
        assert!(r.read_body(e1.offset, e1.len, e1.digest).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_footer_or_index_rejects_whole_pack() {
        let dir = tmp_dir("tornindex");
        let path = write_two(&dir);
        let good = std::fs::read(&path).unwrap();
        let mangled = |at: usize, byte: u8| {
            let mut bytes = good.clone();
            bytes[at] = byte;
            bytes
        };
        let index_byte = good.len() - FOOTER_LEN as usize - 5;
        for bytes in [
            good[..good.len() - 10].to_vec(), // truncated into the footer
            mangled(index_byte, good[index_byte] ^ 0xff), // flipped index byte
            mangled(0, b'X'),                 // wrong leading magic
            mangled(8, PACK_VERSION + 1),     // wrong version byte
        ] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                PackReader::open(&path),
                Err(CoreError::CorruptBin(_))
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_temp_files_survive() {
        let dir = tmp_dir("tmpfiles");
        write_two(&dir);
        // An aborted writer cleans up too, its lock included.
        let w = PackWriter::create(&dir.join("other.pack")).unwrap();
        assert!(lock_path(&dir.join("other.pack")).exists());
        drop(w);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, vec![PACK_FILE.to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
