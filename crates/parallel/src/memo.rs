//! A bounded, least-recently-used memo whose builds run outside its lock.
//!
//! [`Memo`] maps keys to values built on first request. Its lock is held
//! only to find or insert a key's cell; the build runs outside it, in the
//! cell's [`OnceLock::get_or_init`], so distinct keys build in parallel
//! while a second caller of a key that is being built waits for that
//! build instead of repeating it.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// One memoized key: its value is empty until the first build finishes.
struct Slot<K, V> {
    key: K,
    value: OnceLock<V>,
}

/// A memo of at most `CAPACITY` built values, least recently used evicted
/// first.
///
/// * [`Memo::get_or_build`] returns the memoized value of a key, or runs
///   the caller's build and memoizes its result. A hit moves the key to
///   the most-recently-used end; when the memo is full, a new key evicts
///   the least recently used one.
/// * Concurrent callers of one key share one build: the first runs it,
///   the rest wait for its value.
/// * A build that panics leaves no entry behind, and the next caller of
///   that key builds afresh. A poisoned lock degrades every later call
///   to an unmemoized build.
/// * The memo is a cache, not a value: a clone starts empty, any two
///   memos compare equal, and `Debug` elides the entries. A struct that
///   holds one keeps its derived `Clone`, `PartialEq` and `Debug`.
///
/// Lookups compare keys with `==` in a linear scan, which beats hashing
/// at the tens of entries a memo holds. The bound is the only limit on
/// memory: the memo keeps `CAPACITY` keys and values, whatever they
/// weigh.
///
/// # Example
///
/// ```
/// use datatrans_parallel::Memo;
///
/// let memo: Memo<u32, u64, 2> = Memo::default();
/// assert_eq!(memo.get_or_build(3, |&k| u64::from(k) * 10), 30);
/// // A hit returns the memoized value; the build does not run.
/// assert_eq!(memo.get_or_build(3, |_| unreachable!()), 30);
/// ```
pub struct Memo<K, V, const CAPACITY: usize> {
    /// Resident slots, least recently used first.
    slots: Mutex<VecDeque<Arc<Slot<K, V>>>>,
}

impl<K: PartialEq, V: Clone, const CAPACITY: usize> Memo<K, V, CAPACITY> {
    /// The value memoized under `key`, or `build(&key)`, memoized for the
    /// next caller.
    ///
    /// `build` runs on the calling thread, at most once per call. It must
    /// be a pure function of the key: a caller that finds the key resident
    /// gets the value an earlier caller's build returned.
    ///
    /// # Panics
    ///
    /// Whatever `build` panics with; the key is then not memoized.
    pub fn get_or_build<F: FnOnce(&K) -> V>(&self, key: K, build: F) -> V {
        let slot = {
            let Ok(mut slots) = self.slots.lock() else {
                return build(&key);
            };
            let slot = match slots.iter().position(|slot| slot.key == key) {
                Some(i) => slots.remove(i).expect("position is in range"),
                None => {
                    if slots.len() == CAPACITY {
                        slots.pop_front();
                    }
                    Arc::new(Slot {
                        key,
                        value: OnceLock::new(),
                    })
                }
            };
            slots.push_back(Arc::clone(&slot));
            slot
        };
        let _unfilled = Unfilled {
            memo: self,
            slot: &slot,
        };
        slot.value.get_or_init(|| build(&slot.key)).clone()
    }

    /// Forgets every memoized value.
    pub fn clear(&mut self) {
        *self = Memo::default();
    }
}

/// Takes a slot out of the memo if it is still empty when the call that
/// built it returns, which happens only when the build panicked.
struct Unfilled<'a, K, V, const CAPACITY: usize> {
    memo: &'a Memo<K, V, CAPACITY>,
    slot: &'a Arc<Slot<K, V>>,
}

impl<K, V, const CAPACITY: usize> Drop for Unfilled<'_, K, V, CAPACITY> {
    fn drop(&mut self) {
        if self.slot.value.get().is_none() {
            if let Ok(mut slots) = self.memo.slots.lock() {
                slots.retain(|slot| !Arc::ptr_eq(slot, self.slot));
            }
        }
    }
}

impl<K, V, const CAPACITY: usize> Default for Memo<K, V, CAPACITY> {
    fn default() -> Self {
        const { assert!(CAPACITY > 0, "a memo holds at least one entry") };
        Memo {
            slots: Mutex::new(VecDeque::new()),
        }
    }
}

impl<K, V, const CAPACITY: usize> Clone for Memo<K, V, CAPACITY> {
    fn clone(&self) -> Self {
        Memo::default()
    }
}

impl<K, V, const CAPACITY: usize> PartialEq for Memo<K, V, CAPACITY> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<K, V, const CAPACITY: usize> fmt::Debug for Memo<K, V, CAPACITY> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo")
            .field("capacity", &CAPACITY)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// The resident keys, least recently used first.
    fn keys<const N: usize>(memo: &Memo<u32, Arc<u32>, N>) -> Vec<u32> {
        let slots = memo.slots.lock().unwrap();
        slots.iter().map(|slot| slot.key).collect()
    }

    #[test]
    fn hits_return_the_memoized_value() {
        let memo: Memo<u32, Arc<u32>, 4> = Memo::default();
        let first = memo.get_or_build(7, |&k| Arc::new(k));
        let again = memo.get_or_build(7, |_| panic!("rebuilt a resident key"));
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn evicts_the_least_recently_used_key_at_the_bound() {
        let memo: Memo<u32, Arc<u32>, 3> = Memo::default();
        for k in [1, 2, 3] {
            memo.get_or_build(k, |&k| Arc::new(k));
        }
        assert_eq!(keys(&memo), [1, 2, 3]);
        // A hit moves its key to the back, so 2 is now the oldest.
        let one = memo.get_or_build(1, |_| panic!("1 is resident"));
        assert_eq!(keys(&memo), [2, 3, 1]);
        memo.get_or_build(4, |&k| Arc::new(k));
        assert_eq!(keys(&memo), [3, 1, 4], "full memo evicts the LRU key");
        assert!(Arc::ptr_eq(&one, &memo.get_or_build(1, |&k| Arc::new(k))));
        let builds = AtomicUsize::new(0);
        memo.get_or_build(2, |&k| {
            builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(k)
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "evicted key rebuilds");
        assert_eq!(keys(&memo), [4, 1, 2]);
        for k in 10..20 {
            memo.get_or_build(k, |&k| Arc::new(k));
            assert_eq!(memo.slots.lock().unwrap().len(), 3, "bound holds");
        }
    }

    #[test]
    fn concurrent_callers_of_one_key_share_one_build() {
        let memo: Memo<u32, Arc<u32>, 4> = Memo::default();
        let builds = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        let got: Vec<Arc<u32>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        memo.get_or_build(5, |&k| {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Holds the build open so the others are
                            // likely to arrive while it runs; one build
                            // is the answer in every interleaving.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Arc::new(k)
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert!(got.iter().all(|v| Arc::ptr_eq(v, &got[0])));
    }

    #[test]
    fn a_panicking_build_leaves_no_entry_and_the_next_caller_builds() {
        let memo: Memo<u32, Arc<u32>, 4> = Memo::default();
        memo.get_or_build(1, |&k| Arc::new(k));
        let boom = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_build(2, |_| panic!("build failed"));
        }));
        assert!(boom.is_err());
        assert_eq!(keys(&memo), [1], "the panicked key left no entry");
        let rebuilt = memo.get_or_build(2, |&k| Arc::new(k * 10));
        assert_eq!(*rebuilt, 20);
        assert_eq!(keys(&memo), [1, 2]);
    }

    #[test]
    fn a_poisoned_lock_degrades_to_unmemoized_builds() {
        let memo: Memo<u32, Arc<u32>, 4> = Memo::default();
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = memo.slots.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(poisoned.is_err());
        let builds = AtomicUsize::new(0);
        for _ in 0..2 {
            let v = memo.get_or_build(3, |&k| {
                builds.fetch_add(1, Ordering::Relaxed);
                Arc::new(k)
            });
            assert_eq!(*v, 3);
        }
        assert_eq!(builds.load(Ordering::Relaxed), 2, "nothing memoized");
        let mut memo = memo;
        memo.clear();
        memo.get_or_build(3, |&k| Arc::new(k));
        assert_eq!(keys(&memo), [3], "clear restores memoization");
    }

    #[test]
    fn a_clone_starts_empty_and_equality_ignores_entries() {
        let mut memo: Memo<u32, Arc<u32>, 4> = Memo::default();
        memo.get_or_build(1, |&k| Arc::new(k));
        let copy = memo.clone();
        assert!(keys(&copy).is_empty());
        assert!(copy == memo);
        assert_eq!(format!("{memo:?}"), "Memo { capacity: 4, .. }");
        memo.clear();
        assert!(keys(&memo).is_empty());
    }
}
