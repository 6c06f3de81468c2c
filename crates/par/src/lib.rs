//! Deterministic parallel execution helpers.
//!
//! The hot paths of the S3 pipeline around replay — pairwise event mining,
//! k-means, the gap statistic's reference fits and the figure sweeps — are
//! embarrassingly parallel, but the repository
//! guarantees **bit-for-bit reproducibility**: for a fixed seed, every
//! experiment binary must write byte-identical CSVs regardless of thread
//! count. This crate provides the only two primitives those paths need,
//! built on [`std::thread::scope`] (zero dependencies), with determinism as
//! a structural property rather than a convention:
//!
//! * [`par_map`] — order-preserving map: the output vector is ordered by
//!   input index, no matter which worker computed which element;
//! * [`par_chunk_fold`] — fold over **fixed-size** chunks, merged in chunk
//!   order. Chunk boundaries depend only on `chunk_size`, never on the
//!   thread count, so floating-point reductions associate identically at
//!   `threads = 1` and `threads = 64`.
//!
//! # Scheduling
//!
//! Both helpers share one scheduler, guided self-scheduling. The items (or
//! chunks) are cut into blocks that shrink along the index range: each
//! block takes `1/(2·threads)` of the items after it, at least one. Worker
//! `w` first runs block `w`, then claims the next unrun block from a shared
//! atomic cursor until none is left; the calling thread is worker 0. A
//! worker stuck on expensive items therefore holds few of them, and the
//! others drain the cheap tail. Which worker ran a block never matters:
//! results are placed by block index, so the output is the sequential
//! map's at every thread count.
//!
//! At `threads <= 1` both helpers run sequentially on the caller's thread
//! (no spawn); callers therefore need no separate sequential code path.
//!
//! # Thread-count resolution
//!
//! [`resolve_threads`] maps an optional request (CLI flag, config field) to
//! an effective count: an explicit `Some(n)` wins, otherwise the
//! `S3_THREADS` environment variable, otherwise
//! [`std::thread::available_parallelism`]. `0` means "auto" everywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mailbox;

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use s3_obs::{Desc, Stability, Unit};

// Execution-layer metrics (documented in docs/METRICS.md). Call counts are
// thread-invariant (every thread count performs the same calls); the
// worker-spawn total is a function of the thread count and is therefore
// volatile — it must never appear in stable snapshots.
static MAP_CALLS: Desc = Desc {
    name: "par.map_calls",
    help: "par_map invocations",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static FOLD_CALLS: Desc = Desc {
    name: "par.fold_calls",
    help: "par_chunk_fold invocations",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static WORKERS_SPAWNED: Desc = Desc {
    name: "par.workers_spawned",
    help: "Worker threads spawned (0 for inline sequential runs)",
    unit: Unit::Count,
    stability: Stability::Volatile,
};

/// Environment variable overriding the default thread count.
pub const THREADS_ENV: &str = "S3_THREADS";

/// Hard cap on worker threads, a guard against absurd requests.
pub const MAX_THREADS: usize = 256;

/// The machine's available parallelism (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves an optional thread-count request to an effective count:
/// `request` (if `Some` and non-zero), else `S3_THREADS` (if set, parseable
/// and non-zero), else [`available_threads`]. The result is clamped to
/// `1..=`[`MAX_THREADS`].
pub fn resolve_threads(request: Option<usize>) -> usize {
    let requested = match request {
        Some(n) if n > 0 => n,
        _ => std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(available_threads),
    };
    requested.clamp(1, MAX_THREADS)
}

/// Order-preserving parallel map: `out[i] = f(i, &items[i])`.
///
/// Workers claim blocks of items as described in the [crate docs](crate),
/// and the results are placed by index. The output is byte-identical to the
/// sequential map for any `threads`, provided `f` is a pure function of
/// `(index, item)`.
///
/// `threads <= 1` (or fewer than two items) runs inline without spawning.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    s3_obs::global().counter(&MAP_CALLS).inc();
    run_guided(items.len(), threads, |i| f(i, &items[i]))
}

/// Deterministic parallel fold: splits `items` into chunks of exactly
/// `chunk_size` (the last may be shorter), folds each chunk sequentially
/// with `fold`, and merges the per-chunk accumulators **in chunk order**
/// with `merge`.
///
/// Because chunk boundaries depend only on `chunk_size`, the association
/// order of `merge` — and hence any floating-point rounding — is identical
/// for every thread count, including 1. Returns `init()` for empty input.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn par_chunk_fold<T, A, F, G, M>(
    items: &[T],
    threads: usize,
    chunk_size: usize,
    init: G,
    fold: F,
    mut merge: M,
) -> A
where
    T: Sync,
    A: Send,
    G: Fn() -> A + Sync,
    F: Fn(A, usize, &T) -> A + Sync,
    M: FnMut(A, A) -> A,
{
    assert!(chunk_size > 0, "par_chunk_fold needs a positive chunk size");
    s3_obs::global().counter(&FOLD_CALLS).inc();
    if items.is_empty() {
        return init();
    }
    let fold_chunk = |chunk_index: usize, chunk: &[T]| {
        let base = chunk_index * chunk_size;
        let mut acc = init();
        for (offset, item) in chunk.iter().enumerate() {
            acc = fold(acc, base + offset, item);
        }
        acc
    };
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    let partials = run_guided(chunks.len(), threads, |ci| fold_chunk(ci, chunks[ci]));
    let mut iter = partials.into_iter();
    let first = iter.next().expect("non-empty input has a first chunk");
    iter.fold(first, &mut merge)
}

/// Runs `job(i)` for every `i` in `0..len` on up to `threads` workers and
/// returns the results in index order (see the [crate docs](crate) for the
/// schedule). Runs inline when fewer than two workers would be used.
fn run_guided<R, F>(len: usize, threads: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.clamp(1, MAX_THREADS).min(len);
    if threads <= 1 {
        return (0..len).map(job).collect();
    }
    let blocks = guided_blocks(len, threads);
    let workers = threads.min(blocks.len());
    // The cursor only hands out block indices, so `Relaxed` suffices: the
    // results travel back through `join`, which orders them.
    let cursor = AtomicUsize::new(workers);
    let work = |first: usize| {
        let mut done = Vec::new();
        let mut block = first;
        while block < blocks.len() {
            done.push((block, blocks[block].clone().map(&job).collect::<Vec<R>>()));
            block = cursor.fetch_add(1, Ordering::Relaxed);
        }
        done
    };
    // The calling thread is worker 0; only the others are spawned.
    s3_obs::global()
        .counter(&WORKERS_SPAWNED)
        .add(workers as u64 - 1);
    let finished: Vec<Vec<(usize, Vec<R>)>> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (1..workers)
            .map(|first| scope.spawn(move || work(first)))
            .collect();
        let mut finished = vec![work(0)];
        finished.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("s3-par worker panicked")),
        );
        finished
    });
    let mut slots: Vec<Option<Vec<R>>> = (0..blocks.len()).map(|_| None).collect();
    for (block, results) in finished.into_iter().flatten() {
        slots[block] = Some(results);
    }
    slots
        .into_iter()
        .flat_map(|results| results.expect("every block ran once"))
        .collect()
}

/// Cuts `0..len` into the blocks of guided self-scheduling: each block takes
/// `1/(2·threads)` of the indices not yet covered, rounded up, so blocks
/// shrink toward the end. The cut depends only on `len` and `threads`.
fn guided_blocks(len: usize, threads: usize) -> Vec<Range<usize>> {
    let mut blocks = Vec::new();
    let mut start = 0;
    while start < len {
        let size = (len - start).div_ceil(2 * threads);
        blocks.push(start..start + size);
        start += size;
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_explicit_request() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(100_000)), MAX_THREADS);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
    }

    #[test]
    fn guided_blocks_tile_exactly() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 8, 33] {
                let blocks = guided_blocks(len, threads);
                let mut expected_start = 0;
                for (i, b) in blocks.iter().enumerate() {
                    assert_eq!(b.start, expected_start);
                    assert!(!b.is_empty());
                    // Blocks never grow along the range.
                    if i > 0 {
                        assert!(b.len() <= blocks[i - 1].len());
                    }
                    expected_start = b.end;
                }
                assert_eq!(expected_start, len);
                // Every worker gets a first block of its own.
                assert!(blocks.len() >= threads.min(len));
            }
        }
    }

    #[test]
    fn par_map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1_000).collect();
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 2 + i as u64)
            .collect();
        for threads in [1, 2, 3, 7, 8, 64] {
            let got = par_map(&items, threads, |i, &x| x * 2 + i as u64);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_small_inputs() {
        assert_eq!(par_map::<u8, u8, _>(&[], 8, |_, &x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[5u8], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn chunk_fold_float_sum_is_thread_count_invariant() {
        // Adversarial magnitudes: naive reassociation visibly changes the
        // result, so equality across thread counts is a real check.
        let items: Vec<f64> = (0..10_000)
            .map(|i| {
                if i % 3 == 0 {
                    1e16
                } else {
                    1.0 + i as f64 * 1e-7
                }
            })
            .collect();
        let reference = par_chunk_fold(
            &items,
            1,
            256,
            || 0.0f64,
            |acc, _, &x| acc + x,
            |a, b| a + b,
        );
        for threads in [2, 3, 4, 8, 61] {
            let got = par_chunk_fold(
                &items,
                threads,
                256,
                || 0.0f64,
                |acc, _, &x| acc + x,
                |a, b| a + b,
            );
            assert_eq!(got.to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn chunk_fold_passes_global_indices() {
        let items = vec![10u64; 100];
        let sum_of_indices = par_chunk_fold(
            &items,
            4,
            7,
            || 0u64,
            |acc, i, _| acc + i as u64,
            |a, b| a + b,
        );
        assert_eq!(sum_of_indices, (0..100).sum::<u64>());
    }

    #[test]
    fn chunk_fold_empty_input_returns_init() {
        let out = par_chunk_fold::<u8, _, _, _, _>(&[], 4, 16, || 41, |acc, _, _| acc, |a, _| a);
        assert_eq!(out, 41);
    }

    #[test]
    #[should_panic(expected = "positive chunk size")]
    fn chunk_fold_rejects_zero_chunk() {
        let _ = par_chunk_fold(&[1], 2, 0, || 0, |a, _, _| a, |a, _| a);
    }

    #[test]
    fn par_map_uses_multiple_threads_when_asked() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(&items, 4, |_, &x| {
            seen.lock().unwrap().insert(std::thread::current().id());
            x
        });
        assert!(seen.lock().unwrap().len() > 1, "expected work on >1 thread");
    }
}
