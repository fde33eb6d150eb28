//! Intra-rank shared-memory parallelism.
//!
//! The machinery lives in [`pfmm_tree::par`] so the setup pipeline
//! (sort/tree/lists) and the evaluation phases share one implementation;
//! this module re-exports it under the historical `pfmm_core::par` path.

pub use pfmm_tree::par::*;

use std::marker::PhantomData;
use std::ops::Range;

/// A slice that concurrent workers write at disjoint indices, for the
/// schedules whose disjointness a split borrow cannot express (the V-list
/// spectra scatter, the near field's edge-colored pairs). Callers state
/// why their writes are disjoint in a SAFETY comment.
pub(crate) struct Disjoint<'a, T> {
    ptr: *mut T,
    len: usize,
    _out: PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr`/`len` describe a `[T]` exclusively borrowed for `'a`
// (held by `_out`), so no one else touches it while a `Disjoint` lives;
// `T` is plain `Copy` data, and every access is an `unsafe fn` whose
// callers guarantee that concurrent writers use disjoint indices.
unsafe impl<T: Copy + Send> Send for Disjoint<'_, T> {}
unsafe impl<T: Copy + Send> Sync for Disjoint<'_, T> {}

impl<'a, T: Copy> Disjoint<'a, T> {
    pub(crate) fn new(out: &'a mut [T]) -> Disjoint<'a, T> {
        Disjoint {
            ptr: out.as_mut_ptr(),
            len: out.len(),
            _out: PhantomData,
        }
    }

    /// # Safety
    /// No other thread may access index `i` while this runs.
    #[inline]
    pub(crate) unsafe fn write(&self, i: usize, v: T) {
        assert!(i < self.len);
        self.ptr.add(i).write(v);
    }

    /// # Safety
    /// No other thread may access an element of `r` while the returned
    /// slice lives.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice(&self, r: Range<usize>) -> &mut [T] {
        assert!(r.start <= r.end && r.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.end - r.start)
    }
}
