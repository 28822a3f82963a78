//! Minimal read-only memory mapping for the pack readers.
//!
//! `smlsc-core` forbids `unsafe`, so the two `mmap(2)` calls the warm
//! path needs live in this leaf crate behind a safe API.  A [`Mapping`]
//! is an immutable, page-cache-resident view of a file: opening a
//! 100k-unit `bins.pack` touches no heap for the raw index bytes, and a
//! second cold process reading the same pack hits the page cache
//! instead of issuing read syscalls.
//!
//! Mapping is strictly an optimization with a mandatory fallback:
//! [`Mapping::map`] returns `None` on unsupported platforms, for empty
//! files, or when the syscall fails.  Callers must treat `None` as
//! "read the file the ordinary way" — never as an error.
//!
//! Safety argument for the `&[u8]` view: packs are published with
//! tmp + fsync + `rename(2)` (`smlsc_store::fsutil::AtomicFile`), never
//! truncated or rewritten in place, so the mapped inode's length is
//! stable for the mapping's lifetime; `MAP_PRIVATE` additionally keeps
//! any concurrent replacement (a new inode renamed over the path) from
//! changing the bytes this process already mapped.

#![warn(missing_docs)]

/// A read-only memory mapping of an entire file.
#[derive(Debug)]
pub struct Mapping {
    #[cfg(all(unix, target_pointer_width = "64"))]
    addr: *mut core::ffi::c_void,
    len: usize,
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use core::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    // std already links libc on every unix target; declaring the two
    // symbols we need avoids depending on the `libc` crate.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl Mapping {
    /// Maps the whole of `file` (which must be `len` bytes long)
    /// read-only.  `None` when mapping is unavailable or fails for any
    /// reason — including zero-length files — so callers always keep a
    /// read/`pread` fallback.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn map(file: &std::fs::File, len: u64) -> Option<Mapping> {
        use std::os::unix::io::AsRawFd;
        let len = usize::try_from(len).ok()?;
        if len == 0 {
            return None;
        }
        let addr = unsafe {
            sys::mmap(
                core::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if addr as isize == -1 || addr.is_null() {
            return None;
        }
        Some(Mapping { addr, len })
    }

    /// Fallback for platforms without the mapping path.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    pub fn map(_file: &std::fs::File, _len: u64) -> Option<Mapping> {
        None
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        #[cfg(all(unix, target_pointer_width = "64"))]
        // SAFETY: `addr` is a live PROT_READ, MAP_PRIVATE mapping of
        // `len` bytes (checked against MAP_FAILED at creation), unmapped
        // only by Drop; the file behind it is rename-published and never
        // truncated in place, so every byte stays readable.
        unsafe {
            core::slice::from_raw_parts(self.addr as *const u8, self.len)
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        // Unreachable: `map` never constructs a Mapping here.
        &[]
    }

    /// The mapping's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mapping is empty (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `addr`/`len` describe exactly the mapping created in
        // `map`; after this the struct is gone, so no dangling view.
        unsafe {
            sys::munmap(self.addr, self.len);
        }
    }
}

// SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime,
// so sharing the view across threads is no different from sharing any
// `&[u8]`.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for Mapping {}
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for Mapping {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "smlsc-mmap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    #[cfg(all(unix, target_pointer_width = "64"))]
    fn maps_whole_file_read_only() {
        let path = tmp("roundtrip");
        std::fs::write(&path, b"hello, mapping").unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let len = f.metadata().unwrap().len();
        let m = Mapping::map(&f, len).expect("mmap works on 64-bit unix");
        assert_eq!(m.bytes(), b"hello, mapping");
        assert_eq!(m.len(), 14);
        assert!(!m.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg(all(unix, target_pointer_width = "64"))]
    fn empty_files_fall_back() {
        let path = tmp("empty");
        std::fs::write(&path, b"").unwrap();
        let f = std::fs::File::open(&path).unwrap();
        assert!(Mapping::map(&f, 0).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg(all(unix, target_pointer_width = "64"))]
    fn mapping_survives_a_rename_replacement() {
        // The publish discipline: writers rename a new inode over the
        // path.  An existing mapping must keep seeing the old bytes.
        let path = tmp("rename");
        std::fs::write(&path, b"old-bytes").unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let m = Mapping::map(&f, 9).unwrap();
        let staged = tmp("rename-staged");
        std::fs::write(&staged, b"new-bytes").unwrap();
        std::fs::rename(&staged, &path).unwrap();
        assert_eq!(m.bytes(), b"old-bytes");
        std::fs::remove_file(&path).ok();
    }
}
