//! Backing stores for out-of-core array files.
//!
//! The runtime reads and writes *runs* of `f64` elements at element
//! offsets. Two stores are provided:
//!
//! * [`FileStore`] — a real file on disk (what PASSION would use).
//! * [`MemStore`] — an in-memory byte vector with identical semantics,
//!   for fast deterministic tests and for simulation-mode executions
//!   that never touch data at all.

use crate::profile::AccessRecord;
use crate::trace::MeasuredIo;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// Size of one stored element in bytes (double precision, as in the
/// paper's experiments).
pub const ELEM_BYTES: u64 = 8;

/// A store of `f64` elements addressed by element offset.
pub trait Store {
    /// Number of elements the store holds.
    fn len(&self) -> u64;

    /// `true` if the store holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads `buf.len()` elements starting at element `offset`.
    ///
    /// # Errors
    /// Fails on I/O errors or out-of-range reads.
    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()>;

    /// Writes `buf.len()` elements starting at element `offset`.
    ///
    /// # Errors
    /// Fails on I/O errors or out-of-range writes.
    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()>;

    /// Zeroes any measurement this store collects (no-op for plain
    /// stores; [`TracingStore`](crate::trace::TracingStore) resets its
    /// trace). Wrappers forward to their inner store.
    fn reset_metrics(&mut self) {}

    /// Measured I/O collected so far, when this store (or a wrapped
    /// one) is instrumented.
    fn metrics(&self) -> Option<MeasuredIo> {
        None
    }

    /// The full `(offset, len, read/write)` call trace, when this
    /// store (or a wrapped one) is a
    /// [`ProfilingStore`](crate::profile::ProfilingStore). Wrappers
    /// forward to their inner store.
    fn access_log(&self) -> Option<Vec<AccessRecord>> {
        None
    }
}

impl<S: Store + ?Sized> Store for Box<S> {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        (**self).read_run(offset, buf)
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        (**self).write_run(offset, buf)
    }

    fn reset_metrics(&mut self) {
        (**self).reset_metrics();
    }

    fn metrics(&self) -> Option<MeasuredIo> {
        (**self).metrics()
    }

    fn access_log(&self) -> Option<Vec<AccessRecord>> {
        (**self).access_log()
    }
}

/// In-memory store.
#[derive(Debug, Clone)]
pub struct MemStore {
    data: Vec<f64>,
}

impl MemStore {
    /// Zero-filled store of `len` elements.
    #[must_use]
    pub fn new(len: u64) -> Self {
        MemStore {
            data: vec![0.0; usize::try_from(len).expect("store too large for memory")],
        }
    }

    /// Direct view of the contents (tests).
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

impl Store for MemStore {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        let start = usize::try_from(offset).map_err(|_| range_err())?;
        let end = start.checked_add(buf.len()).ok_or_else(range_err)?;
        let src = self.data.get(start..end).ok_or_else(range_err)?;
        buf.copy_from_slice(src);
        Ok(())
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        let start = usize::try_from(offset).map_err(|_| range_err())?;
        let end = start.checked_add(buf.len()).ok_or_else(range_err)?;
        let dst = self.data.get_mut(start..end).ok_or_else(range_err)?;
        dst.copy_from_slice(buf);
        Ok(())
    }
}

pub(crate) fn range_err() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, "run out of store range")
}

/// A real file store; elements are little-endian `f64`s.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    len: u64,
}

impl FileStore {
    /// Creates (truncating) a file sized for `len` elements.
    ///
    /// # Errors
    /// `InvalidInput` when `len` elements do not fit a `u64` byte
    /// length (nothing is created then); otherwise propagates
    /// filesystem errors.
    pub fn create(path: &Path, len: u64) -> io::Result<Self> {
        let bytes = len.checked_mul(ELEM_BYTES).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{len} elements overflow a u64 byte length"),
            )
        })?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(bytes)?;
        Ok(FileStore { file, len })
    }

    /// Opens an existing file; its size must be a multiple of 8.
    ///
    /// # Errors
    /// Propagates filesystem errors; fails on odd-sized files.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let bytes = file.metadata()?.len();
        if bytes % ELEM_BYTES != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file size not a multiple of the element size",
            ));
        }
        Ok(FileStore {
            file,
            len: bytes / ELEM_BYTES,
        })
    }

    /// The byte offset of element `offset`, if `len` elements from
    /// there lie inside the store.
    fn byte_offset(&self, offset: u64, len: usize) -> io::Result<u64> {
        match offset.checked_add(len as u64) {
            Some(end) if end <= self.len => Ok(offset * ELEM_BYTES),
            _ => Err(range_err()),
        }
    }
}

/// Views `values` as the bytes they occupy in memory, which on a
/// little-endian host is the file format. The workspace's only
/// `unsafe`.
#[cfg(target_endian = "little")]
#[allow(unsafe_code)]
mod le_bytes {
    pub(super) fn view(values: &[f64]) -> &[u8] {
        // SAFETY: the pointer and the byte length (`size_of_val`) are
        // those of `values`, so the view covers exactly its memory and
        // borrows it for the same lifetime; `f64` has no padding, so
        // every byte is initialized; `u8` has alignment 1.
        unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), size_of_val(values)) }
    }

    pub(super) fn view_mut(values: &mut [f64]) -> &mut [u8] {
        // SAFETY: as in `view`, with the exclusive borrow carried over;
        // and every bit pattern is a valid `f64`, so whatever is
        // written through the view leaves `values` valid.
        unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), size_of_val(values)) }
    }
}

impl Store for FileStore {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        let at = self.byte_offset(offset, buf.len())?;
        #[cfg(target_endian = "little")]
        self.file.read_exact_at(le_bytes::view_mut(buf), at)?;
        #[cfg(target_endian = "big")]
        {
            let mut bytes = vec![0u8; size_of_val(buf)];
            self.file.read_exact_at(&mut bytes, at)?;
            for (v, chunk) in buf.iter_mut().zip(bytes.chunks_exact(8)) {
                *v = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
        }
        Ok(())
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        let at = self.byte_offset(offset, buf.len())?;
        #[cfg(target_endian = "little")]
        self.file.write_all_at(le_bytes::view(buf), at)?;
        #[cfg(target_endian = "big")]
        {
            let bytes: Vec<u8> = buf.iter().flat_map(|v| v.to_le_bytes()).collect();
            self.file.write_all_at(&bytes, at)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_roundtrip() {
        let mut s = MemStore::new(10);
        s.write_run(2, &[1.0, 2.0, 3.0]).expect("write");
        let mut buf = [0.0; 5];
        s.read_run(0, &mut buf).expect("read");
        assert_eq!(buf, [0.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn memstore_bounds_checked() {
        let mut s = MemStore::new(4);
        assert!(s.write_run(3, &[1.0, 2.0]).is_err());
        let mut buf = [0.0; 2];
        assert!(s.read_run(3, &mut buf).is_err());
        assert!(s.read_run(2, &mut buf).is_ok());
    }

    #[test]
    fn filestore_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ooc-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("arr.dat");
        {
            let mut s = FileStore::create(&path, 16).expect("create");
            assert_eq!(s.len(), 16);
            s.write_run(5, &[3.25, -1.5]).expect("write");
            let mut buf = [0.0; 3];
            s.read_run(4, &mut buf).expect("read");
            assert_eq!(buf, [0.0, 3.25, -1.5]);
        }
        {
            let s = FileStore::open(&path).expect("open");
            assert_eq!(s.len(), 16);
            let mut buf = [0.0; 2];
            s.read_run(5, &mut buf).expect("read");
            assert_eq!(buf, [3.25, -1.5]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filestore_preserves_every_bit_pattern() {
        // NaN payloads, signed zero, subnormals and infinities cross
        // the byte view unchanged, and land in the file little-endian.
        let dir = crate::testing::TempDir::new("ooc-store-bits").expect("tmp");
        let path = dir.path().join("arr.dat");
        let bits = [
            0x7FF8_0000_0000_0001u64,
            0xFFF0_DEAD_BEEF_CAFE,
            0x7FF0_0000_0000_0001,
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x7FF0_0000_0000_0000,
            0x0102_0304_0506_0708,
        ];
        let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let mut s = FileStore::create(&path, 9).expect("create");
        s.write_run(1, &vals).expect("write");
        let mut back = vec![0.0; vals.len()];
        s.read_run(1, &mut back).expect("read");
        let back_bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(back_bits, bits);
        let raw = std::fs::read(&path).expect("raw");
        let expect: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        assert_eq!(&raw[8..64], &expect[..]);
    }

    #[test]
    fn filestore_bounds_checked() {
        let dir = std::env::temp_dir().join(format!("ooc-store-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("arr.dat");
        let mut s = FileStore::create(&path, 4).expect("create");
        assert!(s.write_run(3, &[1.0, 2.0]).is_err());
        // An offset whose end wraps around u64 is out of range too.
        assert!(s.write_run(u64::MAX, &[1.0, 2.0]).is_err());
        assert!(s.read_run(u64::MAX - 1, &mut [0.0; 4]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filestore_refuses_a_length_whose_byte_size_overflows() {
        let dir = crate::testing::TempDir::new("ooc-store-overflow").expect("tmp");
        let path = dir.path().join("arr.dat");
        // 2^61 + 4 elements are 2^64 + 32 bytes: wrapped, a 32-byte
        // file on which element 2^61 would alias element 0.
        for len in [u64::MAX / ELEM_BYTES + 1, (1 << 61) + 4] {
            let err = FileStore::create(&path, len).expect_err("byte length overflows");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "len {len}");
        }
        let mut s = FileStore::create(&path, 4).expect("small length");
        s.write_run(3, &[7.0]).expect("write");
        let mut buf = [0.0; 4];
        s.read_run(0, &mut buf).expect("read");
        assert_eq!(buf, [0.0, 0.0, 0.0, 7.0]);
    }
}
