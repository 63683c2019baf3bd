//! Per-lane scratch storage for pool tasks.
//!
//! A pool task often needs mutable scratch (a `Workspace`, a staging
//! buffer) that would be a data race if shared and an allocation if
//! created per dispatch. [`LaneSlots`] pre-builds one value per lane;
//! inside a task each lane borrows *its own* slot through a shared
//! reference. Exclusivity is enforced at runtime with an atomic flag, so
//! the API stays safe even if a caller hands the wrong lane index: the
//! second borrower panics instead of aliasing.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

struct Slot<T> {
    busy: AtomicBool,
    value: UnsafeCell<T>,
}

/// One scratch value per pool lane, borrowable from `&self` inside tasks.
pub struct LaneSlots<T> {
    slots: Vec<Slot<T>>,
}

// SAFETY: a `&LaneSlots<T>` only hands out `&mut T` through `borrow`,
// which takes the `busy` flag with a compare-exchange first — at most one
// live guard per slot, so sending the shared reference across lanes moves
// each `T` to at most one thread at a time (hence `T: Send`, not `Sync`).
unsafe impl<T: Send> Sync for LaneSlots<T> {}

impl<T> LaneSlots<T> {
    /// Build `lanes` slots, initializing slot `i` with `init(i)`.
    pub fn new(lanes: usize, mut init: impl FnMut(usize) -> T) -> Self {
        LaneSlots {
            slots: (0..lanes)
                .map(|i| Slot {
                    busy: AtomicBool::new(false),
                    value: UnsafeCell::new(init(i)),
                })
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Exclusively borrow lane `lane`'s slot. Allocation-free.
    ///
    /// # Panics
    /// If `lane` is out of range or the slot is already borrowed.
    pub fn borrow(&self, lane: usize) -> LaneGuard<'_, T> {
        let slot = &self.slots[lane];
        assert!(
            slot.busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            "LaneSlots: lane {lane} is already borrowed"
        );
        LaneGuard { slot }
    }
}

/// Exclusive borrow of one lane's slot; released on drop.
pub struct LaneGuard<'a, T> {
    slot: &'a Slot<T>,
}

impl<T> Deref for LaneGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the busy flag guarantees this guard is the only live
        // accessor of the slot.
        unsafe { &*self.slot.value.get() }
    }
}

impl<T> DerefMut for LaneGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above — exclusive by the busy flag.
        unsafe { &mut *self.slot.value.get() }
    }
}

impl<T> Drop for LaneGuard<'_, T> {
    fn drop(&mut self) {
        self.slot.busy.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_lane_gets_its_own_value() {
        let slots = LaneSlots::new(3, |i| i * 10);
        {
            let a = slots.borrow(0);
            let b = slots.borrow(2);
            assert_eq!((*a, *b), (0, 20));
        }
        let values: Vec<usize> = (0..3).map(|i| *slots.borrow(i)).collect();
        assert_eq!(values, vec![0, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn double_borrow_panics() {
        let slots = LaneSlots::new(2, |_| 0u32);
        let _a = slots.borrow(1);
        let _b = slots.borrow(1);
    }

    #[test]
    fn borrow_is_released_on_drop() {
        let slots = LaneSlots::new(1, |_| String::from("scratch"));
        {
            let mut g = slots.borrow(0);
            g.push_str("-used");
        }
        assert_eq!(&*slots.borrow(0), "scratch-used");
    }
}
