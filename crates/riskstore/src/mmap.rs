//! Raw `mmap(2)` bindings for the reader's column region.
//!
//! The build environment vendors no `libc`/`memmap2` crates, so the two
//! syscalls the reader needs are declared here directly.  Everything
//! unsafe about mapping files lives in this module; the safety *contract*
//! the rest of the crate relies on (append-only committed bytes, bounds
//! and alignment validated before any slice is handed out) is documented
//! on [`MapExtent`] and enforced by its API.
//!
//! Platform support: shared read-only maps are implemented for Linux and
//! macOS little-endian hosts.  Elsewhere [`MapExtent::map`] returns
//! `Unsupported` and the reader falls back to its heap-loaded region —
//! the on-disk format is little-endian, so a big-endian host must copy
//! and byte-swap anyway.

use std::fs::File;
use std::io;

/// Whether this build can serve [`MapExtent`]s at all.
pub(crate) const fn supported() -> bool {
    cfg!(all(
        unix,
        target_endian = "little",
        any(target_os = "linux", target_os = "macos")
    ))
}

#[cfg(all(
    unix,
    target_endian = "little",
    any(target_os = "linux", target_os = "macos")
))]
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
        fn sysconf(name: i32) -> i64;
    }

    const PROT_READ: i32 = 1;
    const MAP_SHARED: i32 = 0x01;
    #[cfg(target_os = "linux")]
    const SC_PAGESIZE: i32 = 30;
    #[cfg(target_os = "macos")]
    const SC_PAGESIZE: i32 = 29;

    /// The system page size (cached; mmap offsets must be multiples of it).
    pub fn page_size() -> u64 {
        static PAGE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        *PAGE.get_or_init(|| {
            // SAFETY: sysconf takes an integer selector and returns -1 on
            // error; it touches no caller memory.
            let raw = unsafe { sysconf(SC_PAGESIZE) };
            if raw > 0 {
                raw as u64
            } else {
                4096
            }
        })
    }

    /// An owned read-only shared mapping of a file range.
    #[derive(Debug)]
    pub struct RawMap {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is read-only (PROT_READ) and owned; it can be
    // read from any thread, and unmapping happens exactly once on drop.
    unsafe impl Send for RawMap {}
    // SAFETY: `&RawMap` only hands out `&[u8]` views of read-only
    // (PROT_READ) pages, which any number of threads may read at once.
    unsafe impl Sync for RawMap {}

    impl RawMap {
        /// Maps `len` bytes of `file` starting at the page-aligned
        /// `offset` as a read-only shared mapping.
        pub fn map(file: &File, offset: u64, len: usize) -> io::Result<RawMap> {
            debug_assert_eq!(offset % page_size(), 0, "mmap offset must be page-aligned");
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cannot map zero bytes",
                ));
            }
            // SAFETY: fd is a valid open file descriptor for the lifetime
            // of this call (mmap keeps the mapping alive past close), the
            // offset is page-aligned, and we request a fresh read-only
            // shared mapping at a kernel-chosen address.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    offset as i64,
                )
            };
            if ptr as usize == usize::MAX {
                return Err(io::Error::last_os_error());
            }
            Ok(RawMap {
                ptr: ptr.cast::<u8>(),
                len,
            })
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live mapping we own; the mapping
            // is read-only and stays valid until drop.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        /// Mapped length in bytes.
        pub fn len(&self) -> usize {
            self.len
        }
    }

    impl Drop for RawMap {
        fn drop(&mut self) {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once.
            unsafe {
                munmap(self.ptr.cast(), self.len);
            }
        }
    }
}

#[cfg(not(all(
    unix,
    target_endian = "little",
    any(target_os = "linux", target_os = "macos")
)))]
mod sys {
    use std::fs::File;
    use std::io;

    pub fn page_size() -> u64 {
        4096
    }

    /// Stub on platforms without shared-map support; never constructed.
    #[derive(Debug)]
    pub struct RawMap {}

    impl RawMap {
        pub fn map(_file: &File, _offset: u64, _len: usize) -> io::Result<RawMap> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "mmap-backed store regions are not supported on this platform",
            ))
        }

        pub fn as_slice(&self) -> &[u8] {
            &[]
        }

        pub fn len(&self) -> usize {
            0
        }
    }
}

/// One read-only shared mapping covering a file byte range, addressed by
/// *absolute file offsets*.
///
/// ## Safety contract (why handing out `&[u8]` from a shared map is sound)
///
/// A `MapExtent` only ever covers bytes inside the *committed* prefix of a
/// store file, and the commit protocol (crate docs) guarantees committed
/// bytes are append-only: a well-behaved writer never rewrites or
/// truncates them, so the bytes behind the mapping are stable for the
/// extent's lifetime and a `&[u8]` view is as immutable as a heap buffer.
/// The two ways an external process can violate that contract are:
///
/// * **Replacement** (new inode at the same path): invisible to a live
///   mapping — the old inode stays alive until unmapped, so existing
///   slices keep serving the old committed bytes.  Refresh detects the
///   divergence through the header/footer fingerprint and reloads.
/// * **In-place truncation or rewrite** (same inode): truncation below a
///   mapped offset makes later page faults deliver `SIGBUS`; a rewrite
///   silently changes bytes under the map.  Neither can be fully guarded
///   against from userspace, but both are detectable at refresh time —
///   the reader probes the committed length (header + file size) before
///   trusting or extending any mapping and surfaces a typed
///   [`StoreError`](crate::StoreError) instead of faulting wherever the
///   violation is visible in metadata.  CRC verification at map time
///   faults every page in while the bounds just probed still hold.
pub(crate) struct MapExtent {
    map: sys::RawMap,
    /// Absolute file offset of the first mapped byte (page-aligned).
    file_start: u64,
}

impl std::fmt::Debug for MapExtent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapExtent")
            .field("file_start", &self.file_start)
            .field("len", &self.map.len())
            .finish()
    }
}

impl MapExtent {
    /// Maps the file range `[start, end)` (absolute offsets), widening
    /// the start down to a page boundary as `mmap` requires.  The caller
    /// must have validated `end <= file length`.
    pub fn map(file: &File, start: u64, end: u64) -> io::Result<MapExtent> {
        let page = sys::page_size();
        let file_start = start - (start % page);
        let len = usize::try_from(end - file_start)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "map range too large"))?;
        Ok(MapExtent {
            map: sys::RawMap::map(file, file_start, len)?,
            file_start,
        })
    }

    /// The mapped bytes at absolute file offsets `[offset, offset + len)`,
    /// or `None` when the range falls outside this extent.
    pub fn slice(&self, offset: u64, len: usize) -> Option<&[u8]> {
        let start = usize::try_from(offset.checked_sub(self.file_start)?).ok()?;
        let end = start.checked_add(len)?;
        self.map.as_slice().get(start..end)
    }

    /// Mapped length in bytes (address space, not necessarily resident).
    pub fn len(&self) -> usize {
        self.map.len()
    }
}
