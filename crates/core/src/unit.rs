//! Compiled units and bin files (§3, §4).
//!
//! A [`CompiledUnit`] is the paper's
//! `Unit = statenv × code × imports × exports`: the dehydrated static
//! environment, the serialized code object, the list of import pids, and
//! the export pid.  [`BinFile`] is its on-disk form.

use smlsc_dynamics::ir::Ir;
use smlsc_ids::{Digest128, Pid, Symbol};

use crate::CoreError;

/// One import edge: the imported unit's name and the export pid it had
/// when this unit was compiled.  The linker refuses to run against
/// anything else (type-safe linkage, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportEdge {
    /// The imported unit.
    pub unit: Symbol,
    /// Its export pid at compile time.
    pub pid: Pid,
}

/// A compiled compilation unit.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    /// The unit's name (source file stem).
    pub name: Symbol,
    /// Digest of the source text this unit was compiled from.
    pub source_pid: Pid,
    /// Imports in slot order (slot `i` feeds `Ir::Import(i)`).
    pub imports: Vec<ImportEdge>,
    /// The intrinsic pid of the exported static environment.
    pub export_pid: Pid,
    /// The dehydrated exported static environment.
    pub env_pickle: Vec<u8>,
    /// The code object.
    pub code: Ir,
}

/// A bin file: a compiled unit plus bookkeeping for the recompilation
/// strategies.
#[derive(Debug, Clone)]
pub struct BinFile {
    /// The compiled unit.
    pub unit: CompiledUnit,
    /// Virtual modification time of the bin (for the timestamp baseline).
    pub mtime: u64,
}

/// The decision-relevant metadata of a bin file: everything the
/// recompilation strategies ([`decide_unit`](crate::irm)) and the store
/// cache key need, without the pickle body or code object.  This is what
/// the `bins.pack` footer index carries per unit, so a warm build makes
/// every rebuild decision without parsing a single pickle.
#[derive(Debug, Clone)]
pub struct BinMeta {
    /// The unit's name.
    pub name: Symbol,
    /// Digest of the source text the unit was compiled from.
    pub source_pid: Pid,
    /// Imports in slot order.
    pub imports: Vec<ImportEdge>,
    /// The intrinsic pid of the exported static environment.
    pub export_pid: Pid,
    /// Virtual modification time of the bin.
    pub mtime: u64,
}

const BIN_MAGIC: &[u8; 8] = b"SMLCBIN3";

/// Version of the bin-file container format (mirrored by the trailing
/// digit of the magic).  Artifact-store cache keys fold this in, so
/// bumping it when [`BinFile`]'s serialization changes invalidates
/// every shared-store entry instead of misreading it.
pub const BIN_FORMAT_VERSION: u32 = 3;

impl BinFile {
    /// The bin's decision-relevant metadata (no pickle, no code).
    pub fn meta(&self) -> BinMeta {
        BinMeta {
            name: self.unit.name,
            source_pid: self.unit.source_pid,
            imports: self.unit.imports.clone(),
            export_pid: self.unit.export_pid,
            mtime: self.mtime,
        }
    }

    /// Serializes the bin file; see [`BinFile::seal`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.seal().0
    }

    /// Serializes the bin file and digests it in one pass, returning
    /// the bytes and the digest of all of them (a `bins.pack` body's
    /// digest).
    ///
    /// The container is the `pickle::wire` little-endian format end to
    /// end: metadata fields, the raw static-environment pickle bytes
    /// (already the custom byte format of `smlsc-pickle`), then the code
    /// object via [`crate::ircodec`], sealed by a 16-byte self-digest of
    /// the magic and payload (a bit flip anywhere is detected even for
    /// bytes that no archive index covers, such as store objects).  The
    /// digest of the whole bytes continues the seal's digest over the
    /// seal itself, so no byte is digested twice.  No JSON anywhere on
    /// the warm path.
    pub fn seal(&self) -> (Vec<u8>, Pid) {
        let mut out = Vec::with_capacity(self.unit.env_pickle.len() + 256);
        out.extend_from_slice(BIN_MAGIC);
        let mut w = smlsc_pickle::wire::Writer::append_to(out);
        w.str(self.unit.name.as_str());
        w.u128(self.unit.source_pid.as_raw());
        w.u128(self.unit.export_pid.as_raw());
        w.u64(self.mtime);
        w.u32(self.unit.imports.len() as u32);
        for i in &self.unit.imports {
            w.str(i.unit.as_str());
            w.u128(i.pid.as_raw());
        }
        w.bytes(&self.unit.env_pickle);
        crate::ircodec::write_ir(&mut w, &self.unit.code);
        let mut out = w.into_bytes();
        let mut d = Digest128::new();
        d.write_bytes(&out);
        let seal = d.finish();
        out.extend_from_slice(&seal.to_le_bytes());
        d.write_u128(seal);
        (out, d.finish_pid())
    }

    /// Deserializes a bin file, checking its self-digest first.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptBin`] when the magic, self-digest, or payload
    /// is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<BinFile, CoreError> {
        let (payload, digest) = Self::unseal(bytes)?;
        if Pid::of_bytes(&bytes[..bytes.len() - 16]) != digest {
            return Err(CoreError::CorruptBin("bin self-digest mismatch".into()));
        }
        Self::decode_payload(payload)
    }

    /// Deserializes a bin file whose every byte a digest has just
    /// verified — a `bins.pack` body checked against its index entry —
    /// or that [`BinFile::seal`] wrote in this process, so the
    /// self-digest would only repeat that check.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptBin`] when the magic or payload is malformed.
    pub(crate) fn from_verified_bytes(bytes: &[u8]) -> Result<BinFile, CoreError> {
        Self::decode_payload(Self::unseal(bytes)?.0)
    }

    /// Splits a bin file into its payload and its self-digest.
    fn unseal(bytes: &[u8]) -> Result<(&[u8], Pid), CoreError> {
        let sealed = bytes
            .strip_prefix(BIN_MAGIC.as_slice())
            .ok_or_else(|| CoreError::CorruptBin("bad magic".into()))?;
        if sealed.len() < 16 {
            return Err(CoreError::CorruptBin("truncated bin file".into()));
        }
        let (payload, tail) = sealed.split_at(sealed.len() - 16);
        let digest = Pid::from_raw(u128::from_le_bytes(tail.try_into().expect("16 bytes")));
        Ok((payload, digest))
    }

    /// Decodes a bin payload: metadata, environment pickle, code.
    fn decode_payload(payload: &[u8]) -> Result<BinFile, CoreError> {
        let corrupt = |e: smlsc_pickle::PickleError| CoreError::CorruptBin(e.to_string());
        let mut r = smlsc_pickle::wire::Reader::new(payload);
        let name = Symbol::intern(r.str_ref().map_err(corrupt)?);
        let source_pid = Pid::from_raw(r.u128().map_err(corrupt)?);
        let export_pid = Pid::from_raw(r.u128().map_err(corrupt)?);
        let mtime = r.u64().map_err(corrupt)?;
        // Each import is a name (its 4-byte length at least) and a pid.
        let nimports = r.count(4 + 16).map_err(corrupt)?;
        let mut imports = Vec::with_capacity(nimports);
        for _ in 0..nimports {
            let unit = Symbol::intern(r.str_ref().map_err(corrupt)?);
            let pid = Pid::from_raw(r.u128().map_err(corrupt)?);
            imports.push(ImportEdge { unit, pid });
        }
        let env_pickle = r.bytes().map_err(corrupt)?;
        let code = crate::ircodec::read_ir(&mut r).map_err(corrupt)?;
        if !r.at_end() {
            return Err(CoreError::CorruptBin("trailing bytes in bin file".into()));
        }
        Ok(BinFile {
            unit: CompiledUnit {
                name,
                source_pid,
                imports,
                export_pid,
                env_pickle,
                code,
            },
            mtime,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_file_round_trip() {
        let bin = BinFile {
            unit: CompiledUnit {
                name: Symbol::intern("a"),
                source_pid: Pid::of_bytes(b"src"),
                imports: vec![ImportEdge {
                    unit: Symbol::intern("b"),
                    pid: Pid::of_bytes(b"b-exports"),
                }],
                export_pid: Pid::of_bytes(b"a-exports"),
                env_pickle: vec![1, 2, 3],
                code: Ir::Int(7),
            },
            mtime: 42,
        };
        let (bytes, digest) = bin.seal();
        assert_eq!(
            digest,
            Pid::of_bytes(&bytes),
            "one pass gives the body digest"
        );
        let back = BinFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.mtime, 42);
        assert_eq!(back.unit.name, Symbol::intern("a"));
        assert_eq!(back.unit.imports, bin.unit.imports);
        assert_eq!(back.unit.env_pickle, vec![1, 2, 3]);
        assert_eq!(back.unit.code, Ir::Int(7));
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            BinFile::from_bytes(b"NOTABIN!{}"),
            Err(CoreError::CorruptBin(_))
        ));
        // The JSON container of earlier releases (magic ending in `1`)
        // is not read either, nor the payload-only seal of `2`.
        let mut old = BIN_MAGIC.to_vec();
        old[7] = b'1';
        old.extend_from_slice(br#"{"unit":{},"mtime":0}"#);
        assert!(matches!(
            BinFile::from_bytes(&old),
            Err(CoreError::CorruptBin(m)) if m == "bad magic"
        ));
        old[7] = b'2';
        assert!(matches!(
            BinFile::from_bytes(&old),
            Err(CoreError::CorruptBin(m)) if m == "bad magic"
        ));
    }
}
