//! Deterministic parallel execution for the NORA workspace.
//!
//! The workspace is hermetic (no external crates), so this module provides
//! the small parallel toolkit the simulator needs: a persistent worker pool
//! built on `std::thread`, plus ordered map/for-each helpers that distribute
//! independent work items across workers.
//!
//! # Determinism contract
//!
//! Every helper in this crate guarantees **bit-identical results at any
//! thread count**, provided the per-item closures are themselves independent
//! (no shared mutable state beyond what the helper hands out):
//!
//! * Results are merged **in item-index order**, never in completion order.
//! * Each item is executed exactly once, by exactly one thread.
//! * `NORA_THREADS=1` (or a single-CPU machine) collapses to a plain serial
//!   loop over the items in index order — the exact legacy code path.
//!
//! Floating-point reduction order is therefore the *caller's* job: a caller
//! that folds results must fold the returned index-ordered `Vec`, not
//! accumulate inside the parallel closures.
//!
//! # Thread-count resolution
//!
//! [`max_threads`] resolves, in priority order: a [`with_threads`] override
//! on the current thread (used by tests and sweep drivers), the
//! `NORA_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. Inside a parallel section the
//! count is pinned to 1 so nested calls run serially instead of deadlocking
//! or oversubscribing the pool.
//!
//! # Example
//!
//! ```
//! let squares = nora_parallel::map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Same result regardless of the thread count:
//! let serial = nora_parallel::with_threads(1, || nora_parallel::map_indexed(8, |i| i * i));
//! assert_eq!(serial, squares);
//! ```

mod iter;
mod pool;

pub use iter::{for_each_chunk_mut, for_each_index, map_indexed, map_slice_mut, map_vec};
pub use pool::run_on;

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Per-thread override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of logical CPUs visible to the process (at least 1).
///
/// Cached after the first query: `available_parallelism` consults cgroup
/// quota files on Linux, which costs microseconds per call — enough to
/// dominate a small GEMV when every `matmul`/`map_slice_mut` re-resolves
/// the thread count on its hot path.
pub fn available() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// `NORA_THREADS`/[`available`] resolution, cached for the process lifetime.
/// The environment variable is a launch-time knob (tests use the race-free
/// [`with_threads`] override instead of mutating it), so reading it once is
/// sound — and keeps the per-call cost of [`max_threads`] to two
/// thread-local reads.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("NORA_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(available),
        Err(_) => available(),
    })
}

/// The thread count parallel helpers will use on this thread.
///
/// Resolution order: 1 inside an active parallel section (nested work runs
/// serially), then a [`with_threads`] override, then the `NORA_THREADS`
/// environment variable, then [`available`]. A zero or unparsable
/// `NORA_THREADS` falls back to [`available`].
pub fn max_threads() -> usize {
    if pool::in_parallel_section() {
        return 1;
    }
    if let Some(n) = OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    default_threads()
}

/// Total per-call work (in rough flop units) below which fanning out across
/// the pool costs more than it saves.
///
/// Bench-backed: at `NORA_THREADS=4` the latch handshake plus cross-core
/// cache traffic added ~35% to an 8-row 512×512 tile forward with 16-fold
/// read averaging (3.60ms at 1 thread → 4.97ms, measured before this
/// cutoff existed), whose per-dispatch work sits well under this line,
/// while the serving-round fan-outs (hundreds of thousands of flops per
/// slot) amortize it easily. The same cutoff already governs
/// `Matrix::try_matmul`'s row-chunk dispatch.
pub const MIN_PARALLEL_WORK: u64 = 1 << 20;

/// Picks the participant count for a fan-out of `items` tasks costing
/// roughly `work_per_item` flops each: 1 (serial, the exact legacy loop)
/// when the total work is below [`MIN_PARALLEL_WORK`], otherwise
/// [`max_threads`] capped at the item count.
///
/// Call sites gate their dispatch with this so tiny fan-outs — a 1×64
/// decode row over a 2-tile grid — skip the pool handshake entirely;
/// results are bit-identical either way under the determinism contract.
pub fn threads_for_work(items: usize, work_per_item: u64) -> usize {
    if (items as u64).saturating_mul(work_per_item) < MIN_PARALLEL_WORK {
        1
    } else {
        max_threads().min(items.max(1))
    }
}

/// Runs `f` with the thread count pinned to `n` on the current thread.
///
/// This is the race-free alternative to mutating `NORA_THREADS` from inside
/// a test: the override is thread-local, so concurrently running tests do
/// not observe each other's setting. Nested calls stack (the innermost
/// override wins); the previous value is restored even if `f` panics.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_is_positive() {
        assert!(available() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = max_threads();
        let inner = with_threads(3, max_threads);
        assert_eq!(inner, 3);
        assert_eq!(max_threads(), outer);
        // Zero is clamped to 1.
        assert_eq!(with_threads(0, max_threads), 1);
        // Nested overrides stack.
        let nested = with_threads(5, || with_threads(2, max_threads));
        assert_eq!(nested, 2);
    }

    #[test]
    fn threads_for_work_gates_on_total_work() {
        with_threads(8, || {
            // Tiny fan-out: a 16-tile grid of 64×64 decode rows (≈65k flops
            // total) must run serial.
            assert_eq!(threads_for_work(16, 64 * 64), 1);
            // Heavy fan-out amortizes the pool handshake.
            assert_eq!(threads_for_work(8, 1 << 20), 8);
            // Participants never exceed the item count.
            assert_eq!(threads_for_work(2, 1 << 20), 2);
            // Zero items degrade gracefully.
            assert_eq!(threads_for_work(0, u64::MAX), 1);
        });
    }

    #[test]
    fn override_survives_panic() {
        let before = max_threads();
        let r = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(max_threads(), before);
    }
}
