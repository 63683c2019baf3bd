//! Torture tests for the pool's failure modes: panicking tasks,
//! oversubscription, nesting, and reuse after a panic. These pin the
//! "panic hygiene" half of the runtime contract — a misbehaving task may
//! fail its caller, but it must never deadlock the pool, poison it for
//! the next dispatch, or skip work silently.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use osa_runtime::{LaneSlots, ThreadPool};

/// A panic on a worker lane reaches the caller as a panic (not a hang),
/// and the pool keeps working afterwards — no poisoned mutex, no stuck
/// epoch counter.
#[test]
fn worker_panic_propagates_and_pool_survives() {
    let pool = ThreadPool::new(4);
    for round in 0..3 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(64, |_, range| {
                // Index 40 lands on a worker lane (not lane 0) for 4 lanes.
                if range.contains(&40) {
                    panic!("injected failure, round {round}");
                }
            });
        }));
        let msg = *result
            .expect_err("worker panic must propagate")
            .downcast::<String>()
            .expect("panic payload");
        assert!(
            msg.contains("pool worker(s) panicked"),
            "unexpected payload: {msg}"
        );
    }
    // The pool is still fully functional after three failed epochs.
    let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
    pool.parallel_for(hits.len(), |_, range| {
        for i in range {
            hits[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

/// A panic on the caller's own lane (lane 0) propagates with the original
/// payload, after the workers have drained.
#[test]
fn caller_lane_panic_keeps_original_payload() {
    let pool = ThreadPool::new(3);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.parallel_for(30, |lane, _| {
            if lane == 0 {
                panic!("lane zero says no");
            }
        });
    }));
    let msg = *result.expect_err("must panic").downcast::<&str>().unwrap();
    assert_eq!(msg, "lane zero says no");
    pool.parallel_for(8, |_, _| {}); // still usable
}

/// Heavy oversubscription (many more workers than this container's
/// cores) must neither deadlock nor change results.
#[test]
fn oversubscribed_pool_matches_inline_results() {
    let inline = ThreadPool::new(1);
    let wide = ThreadPool::new(32);
    // Per-chunk partial sums written in parallel, folded serially.
    let sum = |pool: &ThreadPool| {
        let (n, chunk) = (10_000usize, 97usize);
        let mut partials = vec![0.0f32; n.div_ceil(chunk)];
        pool.parallel_for_slice(&mut partials, 1, |_, first, slots| {
            for (c, slot) in (first..).zip(slots) {
                let hi = ((c + 1) * chunk).min(n);
                *slot = (c * chunk..hi).map(|i| (i as f32).sqrt()).sum();
            }
        });
        partials.iter().fold(0.0f32, |a, &b| a + b)
    };
    assert_eq!(sum(&inline).to_bits(), sum(&wide).to_bits());
}

/// Several threads dispatching on one shared pool at once (the test
/// harness does this with the global pool) must each see every index of
/// their own epoch exactly once, and never hang.
#[test]
fn concurrent_dispatchers_share_a_pool_safely() {
    let pool = ThreadPool::new(4);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let pool = &pool;
            s.spawn(move || {
                for round in 0..500usize {
                    let mut out = vec![0usize; 37 + t];
                    pool.parallel_for_slice(&mut out, 1, |_, first, chunk| {
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v += first + i + 1;
                        }
                    });
                    for (i, &v) in out.iter().enumerate() {
                        assert_eq!(v, i + 1, "thread {t}, round {round}, index {i}");
                    }
                }
            });
        }
    });
}

/// `parallel_for` from inside a pool task runs inline on the current
/// lane: same results, no deadlock on the dispatch lock.
#[test]
fn nested_parallel_for_degrades_to_inline() {
    let pool = ThreadPool::new(4);
    let outer_hits = AtomicUsize::new(0);
    let inner_hits = AtomicUsize::new(0);
    pool.parallel_for(8, |_, outer| {
        outer_hits.fetch_add(outer.len(), Ordering::Relaxed);
        // Nested dispatch on the same pool: must run inline as lane 0
        // over the full inner range.
        pool.parallel_for(5, |lane, inner| {
            assert_eq!(lane, 0, "nested dispatch must be inline");
            assert_eq!(inner, 0..5, "nested dispatch must not be chunked");
            inner_hits.fetch_add(inner.len(), Ordering::Relaxed);
        });
    });
    assert_eq!(outer_hits.load(Ordering::Relaxed), 8);
    // One full inner pass per outer chunk; 8 outer items over 4 lanes
    // can be chunked 4 ways at most, but every chunk runs the inner loop
    // once, so the count is 5 × (number of non-empty outer chunks).
    let inner = inner_hits.load(Ordering::Relaxed);
    assert!(
        inner.is_multiple_of(5) && (5..=40).contains(&inner),
        "inner={inner}"
    );
}

/// Per-lane scratch slots hand every lane its own buffer with no
/// cross-lane aliasing, and release cleanly after a panicked epoch.
#[test]
fn lane_slots_survive_task_panics() {
    let pool = ThreadPool::new(4);
    let slots = LaneSlots::new(4, |_| Vec::<usize>::new());
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.parallel_for(16, |lane, range| {
            let mut scratch = slots.borrow(lane);
            scratch.extend(range.clone());
            if range.contains(&7) {
                panic!("mid-epoch failure");
            }
        });
    }));
    assert!(result.is_err());
    // Guards were dropped during unwinding: every slot is borrowable
    // again and together they still cover each visited index at most once.
    let mut seen = [0u8; 16];
    for lane in 0..4 {
        for &i in slots.borrow(lane).iter() {
            seen[i] += 1;
        }
    }
    assert!(seen.iter().all(|&c| c <= 1));
}
