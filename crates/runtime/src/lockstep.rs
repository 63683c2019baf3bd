//! Several per-item slices split at the same item boundaries, for
//! [`ThreadPool::parallel_for_lockstep`](crate::ThreadPool::parallel_for_lockstep).
//! The trait is sealed: only the layouts below implement it, so safe code
//! cannot build a bundle whose parts overlap.

use std::marker::PhantomData;
use std::ops::Range;

/// A mutable slice of `width` consecutive elements per item (an
/// `n × width` buffer). Width 0 holds no element for any item.
pub struct Rows<'a, T> {
    data: &'a mut [T],
    width: usize,
}

impl<'a, T> Rows<'a, T> {
    pub fn new(data: &'a mut [T], width: usize) -> Rows<'a, T> {
        Rows { data, width }
    }
}

/// Per-item mutable slices — a [`Rows`] or a tuple of two to five — that
/// a pool cuts at the same item range for each lane, which receives
/// `Part`: the same slices, cut.
pub trait Lockstep: sealed::Split {}

impl<P: sealed::Split> Lockstep for P {}

pub(crate) mod sealed {
    // The sealed-trait pattern: public, but unnameable outside the crate.
    #![allow(unreachable_pub)]

    use super::*;

    pub trait Split {
        type Part;
        type Raw: Copy + Send + Sync;
        /// True when every slice holds exactly `items` items.
        fn fits(&self, items: usize) -> bool;
        fn into_raw(self) -> Self::Raw;
        /// # Safety
        /// `raw` comes from `into_raw` on a bundle that fits at least
        /// `range.end` items and is still borrowed, and no other live
        /// part covers an item of `range`.
        unsafe fn part(raw: Self::Raw, range: Range<usize>) -> Self::Part;
    }

    /// A slice's base pointer and its elements per item.
    pub struct RawRows<'a, T>(*mut T, usize, PhantomData<&'a mut [T]>);

    impl<T> Clone for RawRows<'_, T> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<T> Copy for RawRows<'_, T> {}

    // SAFETY: lanes only turn a `RawRows` into disjoint `&mut [T]` parts,
    // which moves each element to at most one thread: `T: Send` suffices.
    unsafe impl<T: Send> Send for RawRows<'_, T> {}
    unsafe impl<T: Send> Sync for RawRows<'_, T> {}

    impl<'a, T: Send> Split for Rows<'a, T> {
        type Part = &'a mut [T];
        type Raw = RawRows<'a, T>;

        fn fits(&self, items: usize) -> bool {
            Some(self.data.len()) == items.checked_mul(self.width)
        }

        fn into_raw(self) -> Self::Raw {
            RawRows(self.data.as_mut_ptr(), self.width, PhantomData)
        }

        unsafe fn part(RawRows(ptr, width, _): Self::Raw, range: Range<usize>) -> Self::Part {
            // SAFETY: the caller guarantees `range` lies within the
            // slice's items and no other live part covers it.
            unsafe {
                std::slice::from_raw_parts_mut(ptr.add(range.start * width), range.len() * width)
            }
        }
    }

    macro_rules! split_tuple {
        ($($p:ident $i:tt),+) => {
            impl<$($p: Split),+> Split for ($($p,)+) {
                type Part = ($($p::Part,)+);
                type Raw = ($($p::Raw,)+);

                fn fits(&self, items: usize) -> bool {
                    $(self.$i.fits(items))&&+
                }

                fn into_raw(self) -> Self::Raw {
                    ($(self.$i.into_raw(),)+)
                }

                unsafe fn part(raw: Self::Raw, range: Range<usize>) -> Self::Part {
                    // SAFETY: forwarded; every slice is cut at `range`.
                    unsafe { ($($p::part(raw.$i, range.clone()),)+) }
                }
            }
        };
    }

    split_tuple!(A 0, B 1);
    split_tuple!(A 0, B 1, C 2);
    split_tuple!(A 0, B 1, C 2, D 3);
    split_tuple!(A 0, B 1, C 2, D 3, E 4);
}
