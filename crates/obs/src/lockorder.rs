//! Runtime lock-order witness: the dynamic half of lint rule TM-L006.
//!
//! The static rule in `crates/lint` proves that *source text* acquires
//! the workspace's locks in ascending declared rank; this module proves
//! the same thing about *executions*. Every lock the serve and classify
//! hot paths touch is wrapped in a [`TrackedMutex`] / [`TrackedRwLock`]
//! keyed by a [`LockId`] from [`REGISTRY`] — the same ids and ranks the
//! lint registry declares (`crates/lint/src/registry.rs`; a sync test
//! pins the two tables equal). Each acquisition pushes onto a
//! thread-local held-lock stack and panics if any held lock has an equal
//! or higher rank, so the chaos, serve-chaos, and crash gates exercise
//! the declared order under real concurrency instead of trusting the
//! static approximation.
//!
//! Cost and gating: the witness is a thread-local `Vec` push/pop plus one
//! relaxed counter bump per acquisition — nothing shared, no extra
//! synchronization. It defaults on under `debug_assertions` and off in
//! release; release-mode gates opt in with [`set_enabled`] and assert
//! [`checks`] advanced so a silently-disabled witness cannot pass.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

/// One registered lock: a stable name shared with the lint registry and
/// a rank; locks must be acquired in strictly ascending rank order.
#[derive(Debug)]
pub struct LockId {
    /// Registry id (`serve.model`), identical to the lint table's.
    pub name: &'static str,
    /// Declared order: a thread holding rank R may only acquire > R.
    pub rank: u32,
}

/// Serve model slot (`RwLock<Arc<ServingModel>>`).
pub static SERVE_MODEL: LockId = LockId { name: "serve.model", rank: 10 };
/// Serve free classify permits (`Mutex<usize>`, waited on by a `Condvar`).
pub static SERVE_PERMITS: LockId = LockId { name: "serve.permits", rank: 20 };
/// Serve last-rejected-reload reason (`Mutex<String>`).
pub static SERVE_RELOAD_ERROR: LockId = LockId { name: "serve.reload_error", rank: 30 };
/// Core classify scratch pool (`Mutex<Vec<ClassifyScratch>>`).
pub static CORE_SCRATCH: LockId = LockId { name: "core.scratch", rank: 40 };
/// Obs counter map (`RwLock<BTreeMap<..>>`, untracked at runtime).
pub static OBS_COUNTERS: LockId = LockId { name: "obs.counters", rank: 50 };
/// Obs gauge map (`RwLock<BTreeMap<..>>`, untracked at runtime).
pub static OBS_GAUGES: LockId = LockId { name: "obs.gauges", rank: 51 };
/// Obs histogram map (`RwLock<BTreeMap<..>>`, untracked at runtime).
pub static OBS_HISTOGRAMS: LockId = LockId { name: "obs.histograms", rank: 52 };
/// Obs span aggregates (`Mutex<BTreeMap<..>>`, untracked at runtime).
pub static OBS_SPAN_STATS: LockId = LockId { name: "obs.span_stats", rank: 60 };
/// Obs trace-timeline event buffer (`Mutex<Buffer>`).
pub static OBS_TIMELINE: LockId = LockId { name: "obs.timeline", rank: 70 };

/// Every declared lock, ascending by rank. Mirrors (and is pinned
/// against) `LOCK_ORDER` in `crates/lint/src/registry.rs`. The metric
/// maps and span aggregates are declared for the static rule but left
/// untracked at runtime: they sit on the relaxed-atomic record path,
/// where even a thread-local push per acquisition is measurable.
pub static REGISTRY: [&LockId; 9] = [
    &SERVE_MODEL,
    &SERVE_PERMITS,
    &SERVE_RELOAD_ERROR,
    &CORE_SCRATCH,
    &OBS_COUNTERS,
    &OBS_GAUGES,
    &OBS_HISTOGRAMS,
    &OBS_SPAN_STATS,
    &OBS_TIMELINE,
];

static ENABLED: AtomicBool = AtomicBool::new(cfg!(debug_assertions));
static CHECKS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// Turn the witness on or off (process-wide). Defaults on under
/// `debug_assertions`; release-mode gates call `set_enabled(true)`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether acquisitions are currently being checked.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Total acquisitions checked since process start. Gates assert this
/// advanced so "the witness saw nothing" cannot be mistaken for "the
/// witness found nothing".
pub fn checks() -> u64 {
    CHECKS.load(Ordering::Relaxed)
}

fn acquire(id: &'static LockId) {
    if !is_enabled() {
        return;
    }
    CHECKS.fetch_add(1, Ordering::Relaxed);
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        // The stack is ascending by construction, so the top is the max.
        if let Some(&(rank, name)) = held.last() {
            assert!(
                rank < id.rank,
                "lock-order inversion: acquiring `{}` (rank {}) while holding `{}` (rank {}); \
                 the declared order (crates/lint/src/registry.rs) requires strictly ascending \
                 ranks",
                id.name,
                id.rank,
                name,
                rank
            );
        }
        held.push((id.rank, id.name));
    });
}

fn release(id: &'static LockId) {
    // Runs even when disabled so toggling mid-hold cannot leak an entry.
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(at) = held.iter().rposition(|&(_, name)| name == id.name) {
            held.remove(at);
        }
    });
}

/// A [`parking_lot::Mutex`] whose acquisitions are order-checked against
/// the witness stack.
pub struct TrackedMutex<T> {
    id: &'static LockId,
    inner: parking_lot::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// New unlocked mutex registered as `id`.
    pub const fn new(id: &'static LockId, value: T) -> Self {
        TrackedMutex { id, inner: parking_lot::Mutex::new(value) }
    }

    /// Acquire, recording the hold on the witness stack. The order check
    /// runs *before* blocking: a would-deadlock acquisition panics with
    /// the inversion instead of hanging the gate.
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        acquire(self.id);
        TrackedMutexGuard { inner: self.inner.lock(), held: Held(self.id) }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("id", &self.id.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard of a [`TrackedMutex`]; releases the witness entry on drop.
pub struct TrackedMutexGuard<'a, T> {
    inner: parking_lot::MutexGuard<'a, T>,
    held: Held,
}

/// The witness entry of one held [`TrackedMutex`], released on drop.
struct Held(&'static LockId);

impl Drop for Held {
    fn drop(&mut self) {
        release(self.0);
    }
}

impl<T> TrackedMutexGuard<'_, T> {
    /// Block on `condvar` while `blocked` holds, for at most `timeout`,
    /// with the lock released while parked (the vendored `parking_lot`
    /// guard is std's, so a std `Condvar` drives it). Returns the
    /// reacquired guard and whether the timeout passed with `blocked`
    /// still true. The witness entry stays pushed throughout: a parked
    /// thread acquires nothing.
    pub fn wait_timeout_while(
        self,
        condvar: &Condvar,
        timeout: Duration,
        blocked: impl FnMut(&mut T) -> bool,
    ) -> (Self, bool) {
        let TrackedMutexGuard { inner, held } = self;
        let (inner, waited) = condvar
            .wait_timeout_while(inner, timeout, blocked)
            .unwrap_or_else(PoisonError::into_inner);
        (TrackedMutexGuard { inner, held }, waited.timed_out())
    }
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A [`parking_lot::RwLock`] whose acquisitions (shared and exclusive)
/// are order-checked against the witness stack.
pub struct TrackedRwLock<T> {
    id: &'static LockId,
    inner: parking_lot::RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// New unlocked lock registered as `id`.
    pub const fn new(id: &'static LockId, value: T) -> Self {
        TrackedRwLock { id, inner: parking_lot::RwLock::new(value) }
    }

    /// Acquire shared, recording the hold on the witness stack.
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        acquire(self.id);
        TrackedReadGuard { id: self.id, inner: self.inner.read() }
    }

    /// Acquire exclusive, recording the hold on the witness stack.
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        acquire(self.id);
        TrackedWriteGuard { id: self.id, inner: self.inner.write() }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("id", &self.id.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared-read guard of a [`TrackedRwLock`].
pub struct TrackedReadGuard<'a, T> {
    id: &'static LockId,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        release(self.id);
    }
}

/// Exclusive-write guard of a [`TrackedRwLock`].
pub struct TrackedWriteGuard<'a, T> {
    id: &'static LockId,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a witness body on a fresh thread (so its held-lock stack
    /// starts empty) with the witness forced on.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) -> std::thread::Result<()> {
        std::thread::spawn(move || {
            set_enabled(true);
            f();
        })
        .join()
    }

    #[test]
    fn registry_is_strictly_ascending_and_unique() {
        for pair in REGISTRY.windows(2) {
            assert!(pair[0].rank < pair[1].rank, "{} vs {}", pair[0].name, pair[1].name);
        }
        let mut names: Vec<_> = REGISTRY.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    /// Every body that depends on the process-wide ENABLED flag runs
    /// here, in sequence: as separate tests, the one that turns the
    /// witness off raced the ones that need it on.
    #[test]
    fn witness_checks_order_only_while_enabled() {
        ascending_acquisition_is_clean();
        inversion_panics_with_both_ids();
        release_unwinds_so_sequential_holds_are_clean();
        disabled_witness_checks_nothing();
    }

    fn ascending_acquisition_is_clean() {
        on_fresh_thread(|| {
            let before = checks();
            let low = TrackedMutex::new(&SERVE_PERMITS, 1u32);
            let high = TrackedMutex::new(&CORE_SCRATCH, 2u32);
            let a = low.lock();
            let b = high.lock();
            assert_eq!(*a + *b, 3);
            drop(b);
            drop(a);
            assert!(checks() >= before + 2, "witness counted both acquisitions");
        })
        .expect("ascending order must not panic");
    }

    fn inversion_panics_with_both_ids() {
        let result = on_fresh_thread(|| {
            let low = TrackedRwLock::new(&SERVE_MODEL, ());
            let high = TrackedMutex::new(&OBS_TIMELINE, ());
            let held = high.lock();
            let _inverted = low.read(); // rank 10 under rank 70: inversion
            drop(held);
        });
        let panic = result.expect_err("inversion must panic");
        let text = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(text.contains("serve.model") && text.contains("obs.timeline"), "{text}");
    }

    fn release_unwinds_so_sequential_holds_are_clean() {
        on_fresh_thread(|| {
            let high = TrackedMutex::new(&OBS_TIMELINE, ());
            let low = TrackedMutex::new(&SERVE_PERMITS, ());
            drop(high.lock()); // rank 70 acquired and fully released...
            drop(low.lock()); // ...so rank 20 afterwards is not nested
        })
        .expect("sequential acquisition must not panic");
    }

    fn disabled_witness_checks_nothing() {
        std::thread::spawn(|| {
            set_enabled(false);
            let before = checks();
            let high = TrackedMutex::new(&OBS_TIMELINE, ());
            let low = TrackedMutex::new(&SERVE_PERMITS, ());
            let a = high.lock();
            let _b = low.lock(); // inverted, but the witness is off
            drop(a);
            assert_eq!(checks(), before);
            set_enabled(cfg!(debug_assertions));
        })
        .join()
        .expect("disabled witness must not panic");
    }
}
