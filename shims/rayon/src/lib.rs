//! A minimal, dependency-free stand-in for the `rayon` crate.
//!
//! The build environment has no crates.io access; this shim keeps the
//! `par_iter()` call sites compiling by handing back ordinary
//! sequential iterators. Parallel speedup is forfeited, correctness is
//! identical (rayon's semantics guarantee the same results as the
//! sequential execution).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The `rayon::prelude` re-exports.
pub mod prelude {
    /// `par_iter()` over `&self`, sequential fallback.
    pub trait IntoParallelRefIterator<'data> {
        /// The iterator type.
        type Iter: Iterator<Item = Self::Item>;
        /// The item type.
        type Item: 'data;

        /// A "parallel" (here: sequential) iterator over references.
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, T: 'data + Sync> IntoParallelRefIterator<'data> for [T] {
        type Iter = std::slice::Iter<'data, T>;
        type Item = &'data T;

        fn par_iter(&'data self) -> Self::Iter {
            self.iter()
        }
    }

    impl<'data, T: 'data + Sync> IntoParallelRefIterator<'data> for Vec<T> {
        type Iter = std::slice::Iter<'data, T>;
        type Item = &'data T;

        fn par_iter(&'data self) -> Self::Iter {
            self.iter()
        }
    }

    /// `into_par_iter()`, sequential fallback.
    pub trait IntoParallelIterator {
        /// The iterator type.
        type Iter: Iterator<Item = Self::Item>;
        /// The item type.
        type Item;

        /// A "parallel" (here: sequential) owning iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Iter = std::vec::IntoIter<T>;
        type Item = T;

        fn into_par_iter(self) -> Self::Iter {
            self.into_iter()
        }
    }
}
