//! Test plumbing for the instrumented store layer: self-cleaning
//! temporary directories and a [`Backend`] selector that builds
//! equivalent in-memory or on-disk stores, so differential tests can
//! run the same program against both and compare measured I/O. The
//! stores are `Send`, so the sync, pipelined and parallel executors
//! all take the same [`Backend::open`].

use crate::store::{FileStore, MemStore, Store};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique temporary directory removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `$TMPDIR/<prefix>-<pid>-<n>`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn new(prefix: &str) -> io::Result<Self> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Which concrete [`Store`] a test run should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// [`MemStore`]: fast, deterministic.
    Mem,
    /// [`FileStore`]: real files under a test directory.
    File,
}

impl Backend {
    /// Both backends, for exhaustive differential sweeps.
    pub const ALL: [Backend; 2] = [Backend::Mem, Backend::File];

    /// Short name for test diagnostics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Backend::Mem => "mem",
            Backend::File => "file",
        }
    }

    /// Builds a zeroed store of `len` elements. File-backed stores
    /// live at `dir/<name>.dat`. The trait object is `Send`, so the
    /// store can also cross into pipeline worker threads (behind a
    /// [`SharedStore`](crate::shared::SharedStore)).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open(self, dir: &Path, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        match self {
            Backend::Mem => Ok(Box::new(MemStore::new(len))),
            Backend::File => Ok(Box::new(FileStore::create(
                &dir.join(format!("{name}.dat")),
                len,
            )?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TracingStore;

    #[test]
    fn tempdir_is_unique_and_cleaned() {
        let p1;
        {
            let d1 = TempDir::new("ooc-testing").expect("mk");
            let d2 = TempDir::new("ooc-testing").expect("mk");
            assert_ne!(d1.path(), d2.path());
            assert!(d1.path().is_dir());
            p1 = d1.path().to_path_buf();
        }
        assert!(!p1.exists(), "dropped TempDir is removed");
    }

    #[test]
    fn backends_are_equivalent_and_traceable() {
        let dir = TempDir::new("ooc-backend").expect("mk");
        for backend in Backend::ALL {
            let mut store = TracingStore::new(backend.open(dir.path(), "arr", 16).expect("open"));
            assert_eq!(store.len(), 16);
            store.write_run(3, &[1.5, 2.5]).expect("write");
            let mut buf = [0.0; 2];
            store.read_run(3, &mut buf).expect("read");
            assert_eq!(buf, [1.5, 2.5], "{} backend roundtrip", backend.label());
            let m = store.metrics().expect("traced");
            assert_eq!(m.write_calls, 1);
            assert_eq!(m.read_calls, 1);
        }
    }
}
