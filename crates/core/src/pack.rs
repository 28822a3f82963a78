//! The indexed bin archive: one `bins.pack` instead of N `*.bin` reads.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +--------------------+  offset 0
//! | magic  "SMLSPAK2"  |  8 bytes
//! | version            |  1 byte  (PACK_VERSION)
//! +--------------------+  offset 9
//! | body 0             |  each body is one BinFile::to_bytes() blob
//! | body 1             |
//! | ...                |
//! +--------------------+  index_offset
//! | index (binary)     |  string table + flat import-edge table +
//! |                    |  fixed-width entry table (see below)
//! +--------------------+  index_offset + index_len
//! | footer (40 bytes)  |  index_offset u64 | index_len u64 |
//! |                    |  index_digest u128 | magic "SMLSPKI1"
//! +--------------------+  EOF
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
//! ```
//!
//! `load_bins` reads only the footer and index — two small positioned
//! reads no matter how many units the project has — and every rebuild
//! decision runs off index metadata alone; symbols are interned straight
//! from the index buffer.  Bodies are `pread` out lock-free, digest
//! verified, and parsed lazily on first use (rehydration, linking); a
//! torn body therefore quarantines exactly one unit, exactly when it is
//! actually needed.
//!
//! A file with any other magic or version byte — including the
//! JSON-index version-1 packs of earlier releases — is rejected as
//! corrupt: its units recompile and the next save overwrites it.
//!
//! Writers stage a temp file (pid- and sequence-unique, see
//! [`crate::fsutil::unique_tmp`]), fsync, `rename(2)` into place, and
//! fsync the parent directory, so a crash mid-save leaves the previous
//! pack intact and a completed save survives power loss.  The seal is
//! instrumented with the `pack.save` fault point (stages `begin`,
//! `staged`, `renamed`) for the crash-recovery harness.

use std::io::Write;
use std::path::{Path, PathBuf};

use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::wire::{Reader, Writer};
use smlsc_trace::{self as trace, names};

use crate::unit::{BinMeta, ImportEdge};
use crate::CoreError;

/// The archive's file name inside a bin directory.
pub const PACK_FILE: &str = "bins.pack";

/// Version byte after the leading magic; anything else rejects the
/// pack (the units then just recompile).
pub const PACK_VERSION: u8 = 2;

const PACK_MAGIC: &[u8; 8] = b"SMLSPAK2";
const FOOTER_MAGIC: &[u8; 8] = b"SMLSPKI1";
/// index_offset (8) + index_len (8) + index_digest (16) + magic (8).
const FOOTER_LEN: u64 = 40;
/// magic (8) + version (1).
const HEADER_LEN: u64 = 9;

/// One unit's slot in the footer index: the full decision metadata plus
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
}

/// Encodes the binary index: string table, flat edge table,
/// fixed-width entry table.
fn encode_index(entries: &[PackEntry]) -> Vec<u8> {
    let mut strings: Vec<Symbol> = Vec::new();
    let mut string_ix: std::collections::HashMap<Symbol, u32> = std::collections::HashMap::new();
    let mut intern = |s: Symbol| -> u32 {
        *string_ix.entry(s).or_insert_with(|| {
            strings.push(s);
            (strings.len() - 1) as u32
        })
    };
    // First-appearance order: entry names, then their import names.
    let mut edges: Vec<(u32, Pid)> = Vec::new();
    let mut slots: Vec<(u32, u32, u32)> = Vec::with_capacity(entries.len());
    for e in entries {
        let name_ix = intern(e.name);
        let start = edges.len() as u32;
        for i in &e.imports {
            edges.push((intern(i.unit), i.pid));
        }
        slots.push((name_ix, start, e.imports.len() as u32));
    }
    let mut w = Writer::new();
    w.u32(strings.len() as u32);
    for s in &strings {
        w.str(s.as_str());
    }
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

/// Decodes the binary index.  Symbols intern straight from the
/// buffer; nothing else allocates beyond the entry vector itself.
fn decode_index(bytes: &[u8]) -> Result<Vec<PackEntry>, String> {
    let mut r = Reader::new(bytes);
    let err = |e: smlsc_pickle::PickleError| e.to_string();
    let nstrings = r.u32().map_err(err)? as usize;
    let mut strings = Vec::with_capacity(nstrings);
    for _ in 0..nstrings {
        strings.push(Symbol::intern(r.str_ref().map_err(err)?));
    }
    let nedges = r.u32().map_err(err)? as usize;
    let mut edges = Vec::with_capacity(nedges);
    for _ in 0..nedges {
        let ix = r.u32().map_err(err)? as usize;
        let pid = Pid::from_raw(r.u128().map_err(err)?);
        let unit = *strings
            .get(ix)
            .ok_or_else(|| format!("edge name index {ix} out of range"))?;
        edges.push(ImportEdge { unit, pid });
    }
    let nentries = r.u32().map_err(err)? as usize;
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
    if !r.at_end() {
        return Err("trailing bytes after entry table".into());
    }
    Ok(entries)
}

/// Positioned read without seeking — lock-free body slicing.
#[cfg(unix)]
fn read_exact_at(file: &std::fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &std::fs::File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
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

/// An open pack: the parsed index plus a shared handle for body reads.
///
/// When the platform supports it the whole file is memory-mapped
/// read-only ([`smlsc_mmap::Mapping`]): the index decodes straight out
/// of the page cache with no heap copy of the raw bytes, and body
/// slices are borrowed from the map instead of `pread`.  Every byte is
/// still digest-verified exactly as on the fallback path, so torn and
/// corrupt packs quarantine identically either way (`SMLSC_NO_MMAP=1`
/// forces the fallback to prove it).
#[derive(Debug)]
pub struct PackReader {
    path: PathBuf,
    file: std::fs::File,
    map: Option<smlsc_mmap::Mapping>,
    entries: Vec<PackEntry>,
}

impl PackReader {
    /// Opens `path`, reading and validating only the header, footer and
    /// index (never a body).  Returns `Ok(None)` when the file does not
    /// exist.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptBin`] when the header, footer, index digest,
    /// or any entry's bounds are malformed — the whole pack is then
    /// unusable (callers fall back to recompiling), but this is the only
    /// failure mode that is not per-unit.
    pub fn open(path: &Path) -> Result<Option<PackReader>, CoreError> {
        let file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CoreError::Io(format!("{}: {e}", path.display()))),
        };
        let total = file
            .metadata()
            .map_err(|e| CoreError::Io(format!("{}: {e}", path.display())))?
            .len();
        let corrupt = |m: String| CoreError::CorruptBin(format!("{}: {m}", path.display()));
        if total < HEADER_LEN + FOOTER_LEN {
            return Err(corrupt(format!("truncated ({total} bytes)")));
        }
        let map = smlsc_mmap::Mapping::map(&file, total);
        let mut header = [0u8; HEADER_LEN as usize];
        let mut footer = [0u8; FOOTER_LEN as usize];
        if let Some(m) = &map {
            header.copy_from_slice(&m.bytes()[..HEADER_LEN as usize]);
            footer.copy_from_slice(&m.bytes()[(total - FOOTER_LEN) as usize..]);
        } else {
            read_exact_at(&file, &mut header, 0).map_err(|e| corrupt(e.to_string()))?;
            read_exact_at(&file, &mut footer, total - FOOTER_LEN)
                .map_err(|e| corrupt(e.to_string()))?;
        }
        if &header[..8] != PACK_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        if header[8] != PACK_VERSION {
            return Err(corrupt(format!(
                "unsupported pack version {} (expected {PACK_VERSION})",
                header[8]
            )));
        }
        // Footer fields: [0..8) offset, [8..16) len, [16..32) digest,
        // [32..40) magic.
        if &footer[32..40] != FOOTER_MAGIC {
            return Err(corrupt("bad footer magic".into()));
        }
        let index_offset = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
        let index_len = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
        let index_digest = Pid::from_raw(u128::from_le_bytes(
            footer[16..32].try_into().expect("16 bytes"),
        ));
        if index_offset < HEADER_LEN
            || index_offset
                .checked_add(index_len)
                .is_none_or(|end| end != total - FOOTER_LEN)
        {
            return Err(corrupt("index bounds out of range".into()));
        }
        // Mapped: the index is decoded in place, page-cache-resident,
        // with no heap copy of the raw bytes.  Fallback: one positioned
        // read into a scratch vector.
        let mut scratch;
        let index_bytes: &[u8] = if let Some(m) = &map {
            &m.bytes()[index_offset as usize..(index_offset + index_len) as usize]
        } else {
            scratch = vec![
                0u8;
                usize::try_from(index_len)
                    .map_err(|_| { corrupt("index too large".into()) })?
            ];
            read_exact_at(&file, &mut scratch, index_offset).map_err(|e| corrupt(e.to_string()))?;
            &scratch
        };
        trace::counter(names::BIN_BYTES_READ, HEADER_LEN + FOOTER_LEN + index_len);
        if Pid::of_bytes(index_bytes) != index_digest {
            return Err(corrupt("index digest mismatch".into()));
        }
        let entries =
            decode_index(index_bytes).map_err(|e| corrupt(format!("index parse: {e}")))?;
        for e in &entries {
            if e.offset < HEADER_LEN
                || e.offset
                    .checked_add(e.len)
                    .is_none_or(|end| end > index_offset)
            {
                return Err(corrupt(format!("entry `{}` bounds out of range", e.name)));
            }
        }
        Ok(Some(PackReader {
            path: path.to_path_buf(),
            file,
            map,
            entries,
        }))
    }

    /// The pack's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The parsed index.
    pub fn entries(&self) -> &[PackEntry] {
        &self.entries
    }

    /// Reads and digest-verifies one body slice with a positioned read —
    /// no seek, no lock, safe to call from many workers at once.  The
    /// `Err` string names the failure; callers wrap it in
    /// [`CoreError::BinBodyCorrupt`].
    ///
    /// # Errors
    ///
    /// A description of the IO failure or digest mismatch.
    pub fn read_body(&self, offset: u64, len: u64, digest: Pid) -> Result<Vec<u8>, String> {
        let buf = if let Some(m) = &self.map {
            let start = usize::try_from(offset).map_err(|_| "body too large".to_string())?;
            let n = usize::try_from(len).map_err(|_| "body too large".to_string())?;
            // Bounds were validated against the index at open time, but
            // re-check against the map so a logic slip can never read
            // out of the mapping.
            let end = start
                .checked_add(n)
                .filter(|&end| end <= m.len())
                .ok_or_else(|| "body out of mapped range".to_string())?;
            m.bytes()[start..end].to_vec()
        } else {
            let mut buf =
                vec![0u8; usize::try_from(len).map_err(|_| "body too large".to_string())?];
            read_exact_at(&self.file, &mut buf, offset).map_err(|e| e.to_string())?;
            buf
        };
        trace::counter(names::BIN_BYTES_READ, len);
        let got = Pid::of_bytes(&buf);
        if got != digest {
            return Err(format!("body digest mismatch (want {digest}, got {got})"));
        }
        Ok(buf)
    }
}

/// An in-progress pack write: bodies appended one at a time, then the
/// index and footer sealed by [`PackWriter::finish`].  Dropping an
/// unfinished writer removes its temp file.
#[derive(Debug)]
pub struct PackWriter {
    tmp: PathBuf,
    dest: PathBuf,
    file: Option<std::fs::File>,
    cursor: u64,
    entries: Vec<PackEntry>,
}

impl PackWriter {
    /// Starts a pack write destined for `dest`, staging to a sibling
    /// temp file.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures.
    pub fn create(dest: &Path) -> Result<PackWriter, CoreError> {
        let tmp = crate::fsutil::unique_tmp(dest);
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| CoreError::Io(format!("{}: {e}", tmp.display())))?;
        file.write_all(PACK_MAGIC)
            .and_then(|()| file.write_all(&[PACK_VERSION]))
            .map_err(|e| CoreError::Io(format!("{}: {e}", tmp.display())))?;
        Ok(PackWriter {
            tmp,
            dest: dest.to_path_buf(),
            file: Some(file),
            cursor: HEADER_LEN,
            entries: Vec::new(),
        })
    }

    /// Appends one unit's body and records its index entry.  `digest`
    /// must be the digest of the *intended* bytes — fault-injection
    /// callers deliberately pass mangled `body` bytes with the true
    /// digest, simulating a torn non-atomic write that the lazy
    /// verification must catch later.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures.
    pub fn add(&mut self, meta: &BinMeta, body: &[u8], digest: Pid) -> Result<(), CoreError> {
        let file = self.file.as_mut().expect("writer not finished");
        file.write_all(body)
            .map_err(|e| CoreError::Io(format!("{}: {e}", self.tmp.display())))?;
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

    /// Seals the pack: writes the index and footer, fsyncs, and renames
    /// into place.  Returns the total bytes written.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures (the temp file is
    /// removed; the previous pack, if any, is untouched).
    pub fn finish(mut self) -> Result<u64, CoreError> {
        use smlsc_faults::{self as faults, points, FaultKind};
        let name = self
            .dest
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let fail = |msg: String, tmp: &mut PathBuf, file: Option<std::fs::File>| {
            drop(file);
            std::fs::remove_file(&*tmp).ok();
            tmp.clear(); // Drop must not re-remove
            CoreError::Io(msg)
        };
        // A crash here leaves a body-only tmp file: litter, never
        // visible at the destination.
        if let Some(FaultKind::Io) = faults::check(points::PACK_SAVE, &format!("begin {name}")) {
            let file = self.file.take();
            return Err(fail(
                faults::io_error(points::PACK_SAVE, &name).to_string(),
                &mut self.tmp,
                file,
            ));
        }
        let mut file = self.file.take().expect("writer not finished");
        let index = encode_index(&self.entries);
        let index_digest = Pid::of_bytes(&index);
        let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
        footer.extend_from_slice(&self.cursor.to_le_bytes());
        footer.extend_from_slice(&(index.len() as u64).to_le_bytes());
        footer.extend_from_slice(&index_digest.as_raw().to_le_bytes());
        footer.extend_from_slice(FOOTER_MAGIC);
        let total = self.cursor + index.len() as u64 + FOOTER_LEN;
        let sealed = file
            .write_all(&index)
            .and_then(|()| file.write_all(&footer))
            .and_then(|()| file.sync_all());
        if let Err(e) = sealed {
            let msg = format!("{}: {e}", self.tmp.display());
            return Err(fail(msg, &mut self.tmp, Some(file)));
        }
        drop(file);
        // A crash here leaves a *complete* tmp pack, never renamed.
        if let Some(FaultKind::Io) = faults::check(points::PACK_SAVE, &format!("staged {name}")) {
            return Err(fail(
                faults::io_error(points::PACK_SAVE, &name).to_string(),
                &mut self.tmp,
                None,
            ));
        }
        if let Err(e) = std::fs::rename(&self.tmp, &self.dest) {
            let msg = format!("{}: {e}", self.dest.display());
            return Err(fail(msg, &mut self.tmp, None));
        }
        // A crash here dies after the rename but before the parent
        // directory fsync makes it durable.
        faults::check(points::PACK_SAVE, &format!("renamed {name}"));
        if let Some(dir) = self.dest.parent() {
            crate::fsutil::fsync_dir(dir)
                .map_err(|e| CoreError::Io(format!("{}: {e}", dir.display())))?;
        }
        self.tmp.clear();
        Ok(total)
    }
}

impl Drop for PackWriter {
    fn drop(&mut self) {
        if !self.tmp.as_os_str().is_empty() && self.file.is_some() {
            self.file = None;
            std::fs::remove_file(&self.tmp).ok();
        }
    }
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
        w.finish().unwrap();
        path
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
        let back = decode_index(&bytes).unwrap();
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
        // Truncate into the footer.
        std::fs::write(&path, &good[..good.len() - 10]).unwrap();
        assert!(matches!(
            PackReader::open(&path),
            Err(CoreError::CorruptBin(_))
        ));
        // Flip a byte inside the binary index.
        let mut bytes = good.clone();
        let idx = bytes.len() - FOOTER_LEN as usize - 5;
        bytes[idx] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            PackReader::open(&path),
            Err(CoreError::CorruptBin(_))
        ));
        // Wrong leading magic.
        let mut bytes = good.clone();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            PackReader::open(&path),
            Err(CoreError::CorruptBin(_))
        ));
        // Wrong version byte.
        let mut bytes = good;
        bytes[8] = PACK_VERSION + 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            PackReader::open(&path),
            Err(CoreError::CorruptBin(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_temp_files_survive() {
        let dir = tmp_dir("tmpfiles");
        write_two(&dir);
        // An aborted writer cleans up too.
        let w = PackWriter::create(&dir.join("other.pack")).unwrap();
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
