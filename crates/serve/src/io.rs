//! The registry's file-access seam: every stat, read and mapped open the
//! [`ModelRegistry`](crate::ModelRegistry) performs goes through an
//! [`ArtifactIo`], so the whole refresh/backoff/quarantine state machine can
//! be driven against a *simulated* filesystem with scripted faults — short
//! reads, transient errors, torn mid-write snapshots, mtime flapping — as
//! deterministically as a unit test.
//!
//! Production code never notices the seam: [`RealIo`] (the default) forwards
//! to `std::fs` and the `mmap(2)` shim exactly as the registry previously
//! did inline.  The fault-injecting counterpart lives with the fuzzer
//! (`palmed-fuzz`'s `FaultyIo`), which scripts whole refresh-loop schedules
//! against this trait and asserts the registry's serving invariants after
//! every step.

use std::fmt;
use std::io;
use std::path::Path;
use std::time::SystemTime;

use crate::mmap::FileBuf;

/// The file metadata the registry's staleness tracking compares: what
/// `stat(2)` observes, reduced to the two fields change detection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    /// Modification time, when the backend reports one.
    pub mtime: Option<SystemTime>,
    /// File length in bytes.
    pub len: u64,
}

/// A whole file's bytes as handed to the mapped load path: mapped when
/// the backend provides a mapping, heap-owned otherwise.  The public face
/// of the crate-private `FileBuf`, so [`ArtifactIo`] implementations
/// outside this crate (fault injectors, future network fetchers) can
/// produce one.
pub struct IoBuf {
    inner: FileBuf,
}

impl IoBuf {
    /// Wraps an owned byte buffer — what every backend without a mapping
    /// (including fault injectors) returns.  The registry treats a heap
    /// `IoBuf` exactly like a failed-mmap fallback.
    pub fn heap(bytes: Vec<u8>) -> IoBuf {
        IoBuf { inner: FileBuf::Heap(bytes) }
    }

    pub(crate) fn from_filebuf(inner: FileBuf) -> IoBuf {
        IoBuf { inner }
    }

    pub(crate) fn into_inner(self) -> FileBuf {
        self.inner
    }

    /// The file bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.inner.as_slice()
    }

    /// True when the bytes are served straight from a file mapping.
    pub fn is_mapped(&self) -> bool {
        self.inner.is_mapped()
    }
}

impl fmt::Debug for IoBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// File access as the registry consumes it.  Three operations cover every
/// touch the refresh loop makes: metadata polls ([`ArtifactIo::stat`]),
/// whole-file reads ([`ArtifactIo::read`]), and mapped opens for the
/// `mmap(2)`-backed load mode ([`ArtifactIo::open_buf`]).
///
/// Implementations must be usable from several threads (`Send + Sync`): the
/// registry is shared as `Arc<ModelRegistry>` and refresh may run on any of
/// them.
pub trait ArtifactIo: fmt::Debug + Send + Sync {
    /// Stats `path` — the staleness probe.  Errors mean "could not observe"
    /// (vanished file, permission fault); the registry treats them as
    /// staleness and surfaces them through the reload that follows.
    fn stat(&self, path: &Path) -> io::Result<FileMeta>;

    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Opens the whole file at `path` as an [`IoBuf`], mapping it when the
    /// backend can and falling back to a heap read otherwise.  A backend
    /// with no mapping support simply returns [`IoBuf::heap`] of
    /// [`ArtifactIo::read`] — the registry's mapped load mode degrades to
    /// the heap path transparently, exactly like a failing `mmap(2)`.
    fn open_buf(&self, path: &Path) -> io::Result<IoBuf> {
        self.read(path).map(IoBuf::heap)
    }
}

/// The production [`ArtifactIo`]: `std::fs` stats and reads, plus the
/// `mmap(2)` shim (with its built-in heap fallback) for mapped opens.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl ArtifactIo for RealIo {
    fn stat(&self, path: &Path) -> io::Result<FileMeta> {
        let meta = std::fs::metadata(path)?;
        Ok(FileMeta { mtime: meta.modified().ok(), len: meta.len() })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn open_buf(&self, path: &Path) -> io::Result<IoBuf> {
        FileBuf::open(path).map(IoBuf::from_filebuf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_io_stats_reads_and_opens_like_std_fs() {
        let path = std::env::temp_dir().join("palmed-serve-io-real.bin");
        std::fs::write(&path, b"io seam bytes").unwrap();
        let meta = RealIo.stat(&path).unwrap();
        assert_eq!(meta.len, 13);
        assert!(meta.mtime.is_some());
        assert_eq!(RealIo.read(&path).unwrap(), b"io seam bytes");
        let buf = RealIo.open_buf(&path).unwrap();
        assert_eq!(buf.as_slice(), b"io seam bytes");
        std::fs::remove_file(&path).ok();
        assert!(RealIo.stat(&path).is_err());
        assert!(RealIo.read(&path).is_err());
    }

    #[test]
    fn heap_iobuf_is_never_mapped() {
        let buf = IoBuf::heap(vec![1, 2, 3]);
        assert!(!buf.is_mapped());
        assert_eq!(buf.as_slice(), &[1, 2, 3]);
        assert!(format!("{buf:?}").contains("Heap"));
    }

    #[test]
    fn default_open_buf_falls_back_to_read() {
        /// A backend with no mapping support: only `stat`/`read` provided.
        #[derive(Debug)]
        struct ReadOnly;
        impl ArtifactIo for ReadOnly {
            fn stat(&self, _: &Path) -> io::Result<FileMeta> {
                Ok(FileMeta { mtime: None, len: 2 })
            }
            fn read(&self, _: &Path) -> io::Result<Vec<u8>> {
                Ok(vec![9, 9])
            }
        }
        let buf = ReadOnly.open_buf(Path::new("ignored")).unwrap();
        assert!(!buf.is_mapped());
        assert_eq!(buf.as_slice(), &[9, 9]);
    }
}
