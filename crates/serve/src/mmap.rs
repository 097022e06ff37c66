//! A minimal read-only `mmap(2)` shim for mapped artifact loads.
//!
//! The zero-copy serving form only needs a `&[u8]` over the artifact file;
//! on 64-bit Unix targets that buffer can be the page cache itself.  This
//! module binds `mmap`/`munmap` directly (no crates — the workspace is
//! offline), wraps the mapping in an RAII [`Mapping`], and exposes
//! [`FileBuf`], which maps where it can and falls back to a heap read
//! everywhere else (non-Unix targets, 32-bit `off_t` ABIs, empty files,
//! or a failing `mmap` call), so callers never branch on platform.
//!
//! Mapped buffers alias the file: a process that rewrites artifacts in
//! place could make a live mapping observe torn bytes (or fault on
//! truncation).  Replace artifact files atomically — write a temp file and
//! `rename(2)` it over the old name — and existing mappings keep serving
//! the old inode untouched while [`ModelRegistry::refresh`] picks the new
//! one up.
//!
//! [`ModelRegistry::refresh`]: crate::ModelRegistry::refresh

use std::fmt;
use std::io;
use std::path::Path;

/// Targets where the raw shim is known ABI-correct: Unix with a 64-bit
/// `off_t` matching the `i64` in the binding below.
#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// An RAII read-only private mapping of a whole file.
    pub(crate) struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is read-only and never remapped after
    // construction; the raw pointer is only ever dereferenced through
    // `as_slice`, which shares `&[u8]` exactly like any heap buffer.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `file` read-only in full.  Empty files cannot back a
        /// mapping (`mmap` rejects zero lengths); callers fall back to a
        /// heap read.
        pub(crate) fn map(file: &File) -> io::Result<Mapping> {
            let len = usize::try_from(file.metadata()?.len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large"))?;
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "empty file cannot back a mapping",
                ));
            }
            // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping over a valid fd;
            // the result is checked for MAP_FAILED before use.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mapping { ptr, len })
        }

        /// The mapped bytes.  The mapping is page-aligned and never moves.
        pub(crate) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until `Drop` unmaps it.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region this struct mapped.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// A whole file's bytes: memory-mapped where the platform shim exists, a
/// heap buffer everywhere else.  Either way, [`FileBuf::as_slice`] is the
/// stable view the validators and zero-copy model views work over.
pub(crate) enum FileBuf {
    /// The page cache itself (64-bit Unix only).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(sys::Mapping),
    /// Read-to-heap fallback.
    Heap(Vec<u8>),
}

impl FileBuf {
    /// Opens `path`, preferring a read-only mapping and falling back to a
    /// heap read when mapping is unavailable or fails (the I/O error, if
    /// any, is the heap read's).
    pub(crate) fn open(path: &Path) -> io::Result<FileBuf> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            if let Ok(file) = std::fs::File::open(path) {
                if let Ok(mapping) = sys::Mapping::map(&file) {
                    return Ok(FileBuf::Mapped(mapping));
                }
            }
        }
        Ok(FileBuf::Heap(std::fs::read(path)?))
    }

    /// The file bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            FileBuf::Mapped(mapping) => mapping.as_slice(),
            FileBuf::Heap(bytes) => bytes,
        }
    }

    /// True when the bytes are served straight from a mapping.
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            FileBuf::Mapped(_) => true,
            FileBuf::Heap(_) => false,
        }
    }
}

impl fmt::Debug for FileBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            FileBuf::Mapped(mapping) => {
                write!(f, "FileBuf::Mapped({} bytes)", mapping.as_slice().len())
            }
            FileBuf::Heap(bytes) => write!(f, "FileBuf::Heap({} bytes)", bytes.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_maps_or_reads_and_sees_the_file_bytes() {
        let path = std::env::temp_dir().join("palmed-serve-mmap-test.bin");
        let content: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &content).unwrap();
        let buf = FileBuf::open(&path).unwrap();
        assert_eq!(buf.as_slice(), &content[..]);
        if cfg!(all(unix, target_pointer_width = "64")) {
            assert!(buf.is_mapped(), "64-bit unix loads should take the mmap path");
        }
        std::fs::remove_file(&path).ok();
        // The mapping outlives the directory entry (the inode is pinned).
        assert_eq!(buf.as_slice(), &content[..]);
    }

    #[test]
    fn empty_files_fall_back_to_the_heap() {
        let path = std::env::temp_dir().join("palmed-serve-mmap-empty.bin");
        std::fs::write(&path, b"").unwrap();
        let buf = FileBuf::open(&path).unwrap();
        assert!(!buf.is_mapped());
        assert!(buf.as_slice().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_files_error() {
        assert!(FileBuf::open(&std::env::temp_dir().join("palmed-serve-no-such-file")).is_err());
    }
}
