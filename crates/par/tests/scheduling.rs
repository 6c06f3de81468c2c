//! Guided self-scheduling under skewed work.
//!
//! Workers claim blocks of items at run time, so which worker runs which
//! item varies from run to run. These tests pin what must not vary: the
//! output (always the sequential map's) and the stable call counters (one
//! per call, at every thread count), and they check that an expensive item
//! no longer holds up a fixed share of the input.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use s3_obs::MetricValue;
use s3_par::{par_chunk_fold, par_map};

/// The `par.*` counters are process-global; tests reading their deltas
/// must not interleave.
static COUNTERS: Mutex<()> = Mutex::new(());

/// Items per skewed input.
const N: usize = 400;

fn calls() -> [u64; 2] {
    let snapshot = s3_obs::global().snapshot();
    ["par.map_calls", "par.fold_calls"].map(|name| match snapshot.get(name).map(|m| &m.value) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    })
}

/// Work whose cost grows sharply toward the end of the input, like the
/// gap statistic's large-k fits: the last fifth costs 50× the rest.
fn skewed(i: usize, x: &u64) -> u64 {
    let rounds = if i * 5 >= 4 * N { 5_000 } else { 100 };
    let mut h = *x ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for _ in 0..rounds {
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    h
}

#[test]
fn skewed_map_equals_the_sequential_map_at_every_thread_count() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let items: Vec<u64> = (0..N as u64).map(|i| i * 31 + 7).collect();
    let expected: Vec<u64> = items
        .iter()
        .enumerate()
        .map(|(i, x)| skewed(i, x))
        .collect();
    for threads in 1..=8 {
        let before = calls();
        let got = par_map(&items, threads, skewed);
        let after = calls();
        assert_eq!(got, expected, "threads={threads}");
        assert_eq!([after[0] - before[0], after[1] - before[1]], [1, 0]);
    }
}

#[test]
fn skewed_fold_equals_the_sequential_fold_at_every_thread_count() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // Mixed magnitudes: any reassociation of the float sum shows.
    let items: Vec<u64> = (0..N as u64).collect();
    let term = |i: usize, x: &u64| {
        let scale = if i.is_multiple_of(3) { 1e16 } else { 1.0 };
        scale + (skewed(i, x) % 1_000) as f64 * 1e-3
    };
    let sequential = items
        .chunks(16)
        .enumerate()
        .map(|(ci, chunk)| {
            chunk
                .iter()
                .enumerate()
                .fold(0.0, |acc, (o, x)| acc + term(ci * 16 + o, x))
        })
        .reduce(|a, b| a + b)
        .unwrap();
    for threads in 1..=8 {
        let before = calls();
        let got = par_chunk_fold(
            &items,
            threads,
            16,
            || 0.0f64,
            |acc, i, x| acc + term(i, x),
            |a, b| a + b,
        );
        let after = calls();
        assert_eq!(got.to_bits(), sequential.to_bits(), "threads={threads}");
        assert_eq!([after[0] - before[0], after[1] - before[1]], [0, 1]);
    }
}

/// Item 0 blocks until other workers have finished more than half of the
/// input. With a fixed split into contiguous halves its worker would own
/// half the items and the wait could never end; with self-scheduling the
/// other worker drains everything outside item 0's block.
#[test]
fn a_stalled_worker_does_not_hold_half_the_input() {
    let items: Vec<u32> = (0..1_000).collect();
    let done = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs(20);
    let released = par_map(&items, 2, |i, _| {
        if i == 0 {
            while done.load(Ordering::SeqCst) <= items.len() / 2 {
                if Instant::now() > deadline {
                    return false;
                }
                std::thread::yield_now();
            }
        } else {
            done.fetch_add(1, Ordering::SeqCst);
        }
        true
    });
    assert!(released[0], "other workers never got past half the input");
}
