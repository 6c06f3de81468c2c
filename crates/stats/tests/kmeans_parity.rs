//! Parity of the bounded flat-layout Lloyd kernel with the plain one.
//!
//! The oracle below is the k-means implementation the kernel replaced:
//! `Vec<Vec<f64>>` points, a full argmin for every point on every
//! iteration, a separate update loop and restarts run one after another.
//! The library must agree with it to the bit — centroids, assignments,
//! inertia — and publish the same `stats.kmeans.*` metric deltas, at every
//! thread count. A pinned `GapResult`, recorded before the kernel changed,
//! guards the gap statistic end to end.

use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use s3_obs::MetricValue;
use s3_stats::gap::{gap_statistic, GapConfig};
use s3_stats::kmeans::{fit, KMeansConfig, KMeansResult};

/// The `stats.kmeans.*` metrics are process-global; tests reading their
/// deltas must not interleave.
static METRICS: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------- oracle

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_dist(p, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

fn oracle_seed(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let first = rng.random_range(0..points.len());
    centroids.push(points[first].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            rng.random_range(0..points.len())
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.push(points[idx].clone());
        let newest = centroids.last().expect("just pushed");
        for (i, p) in points.iter().enumerate() {
            let d = sq_dist(p, newest);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

/// What one oracle restart published: iterations, final movement in
/// nanos, converged.
type RunMetrics = (u64, u64, bool);

fn oracle_lloyd(
    points: &[Vec<f64>],
    mut centroids: Vec<Vec<f64>>,
    dim: usize,
    config: &KMeansConfig,
) -> (KMeansResult, RunMetrics) {
    let k = centroids.len();
    let mut assignments = vec![0usize; points.len()];
    let mut iterations = 0u64;
    let mut converged = false;
    let mut last_movement = 0.0f64;
    for _ in 0..config.max_iters {
        iterations += 1;
        for (i, p) in points.iter().enumerate() {
            assignments[i] = nearest(p, &centroids).0;
        }
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                let far = points
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        sq_dist(a, &centroids[assignments[0]])
                            .partial_cmp(&sq_dist(b, &centroids[assignments[0]]))
                            .expect("finite")
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty points");
                movement += sq_dist(&centroids[c], &points[far]).sqrt();
                centroids[c] = points[far].clone();
                continue;
            }
            let mut new_c = sums[c].clone();
            for x in &mut new_c {
                *x /= counts[c] as f64;
            }
            movement += sq_dist(&centroids[c], &new_c).sqrt();
            centroids[c] = new_c;
        }
        last_movement = movement;
        if movement <= config.tol {
            converged = true;
            break;
        }
    }
    let nanos = (last_movement * 1e9).round().min(u64::MAX as f64).max(0.0) as u64;
    let mut inertia = 0.0;
    for (i, p) in points.iter().enumerate() {
        let (best, best_d) = nearest(p, &centroids);
        assignments[i] = best;
        inertia += best_d;
    }
    (
        KMeansResult {
            centroids,
            assignments,
            inertia,
        },
        (iterations, nanos, converged),
    )
}

fn oracle_fit(
    points: &[Vec<f64>],
    k: usize,
    config: &KMeansConfig,
    seed: u64,
) -> (KMeansResult, Vec<RunMetrics>) {
    let dim = points[0].len();
    let mut best: Option<KMeansResult> = None;
    let mut runs = Vec::new();
    for restart in 0..config.restarts {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(restart as u64 * 0x9E37_79B9));
        let seeds = oracle_seed(points, k, &mut rng);
        let (result, metrics) = oracle_lloyd(points, seeds, dim, config);
        runs.push(metrics);
        let better = match &best {
            None => true,
            Some(b) => result.inertia < b.inertia,
        };
        if better {
            best = Some(result);
        }
    }
    (best.expect("restarts >= 1"), runs)
}

// --------------------------------------------------------------- metrics

const ITERATION_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
const MOVEMENT_BOUNDS: [u64; 5] = [1, 1_000, 1_000_000, 1_000_000_000, 1_000_000_000_000];

/// The parity-relevant `stats.kmeans.*` state: fits, converged and
/// max-iterations counters, then `(count, sum, per-bucket counts)` of the
/// iteration and final-movement histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KMeansMetrics {
    counters: [u64; 3],
    iterations: (u64, u64, Vec<u64>),
    movement: (u64, u64, Vec<u64>),
}

fn histogram(snapshot: &s3_obs::Snapshot, name: &str, buckets: usize) -> (u64, u64, Vec<u64>) {
    match snapshot.get(name).map(|m| &m.value) {
        Some(MetricValue::Histogram {
            count,
            sum,
            buckets: b,
        }) => (*count, *sum, b.iter().map(|b| b.count).collect()),
        _ => (0, 0, vec![0; buckets + 1]),
    }
}

fn counter(snapshot: &s3_obs::Snapshot, name: &str) -> u64 {
    match snapshot.get(name).map(|m| &m.value) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    }
}

fn published() -> (KMeansMetrics, u64) {
    let snapshot = s3_obs::global().snapshot();
    let metrics = KMeansMetrics {
        counters: ["fits", "converged", "max_iters_reached"]
            .map(|name| counter(&snapshot, &format!("stats.kmeans.{name}"))),
        iterations: histogram(&snapshot, "stats.kmeans.iterations", ITERATION_BOUNDS.len()),
        movement: histogram(
            &snapshot,
            "stats.kmeans.final_movement_nanos",
            MOVEMENT_BOUNDS.len(),
        ),
    };
    (metrics, counter(&snapshot, "stats.kmeans.bound_skips"))
}

fn histogram_delta(
    before: &(u64, u64, Vec<u64>),
    after: &(u64, u64, Vec<u64>),
) -> (u64, u64, Vec<u64>) {
    (
        after.0 - before.0,
        after.1.wrapping_sub(before.1),
        after.2.iter().zip(&before.2).map(|(a, b)| a - b).collect(),
    )
}

fn metrics_delta(before: &KMeansMetrics, after: &KMeansMetrics) -> KMeansMetrics {
    KMeansMetrics {
        counters: [0, 1, 2].map(|i| after.counters[i] - before.counters[i]),
        iterations: histogram_delta(&before.iterations, &after.iterations),
        movement: histogram_delta(&before.movement, &after.movement),
    }
}

fn expected_histogram(values: impl Iterator<Item = u64>, bounds: &[u64]) -> (u64, u64, Vec<u64>) {
    let mut out = (0, 0u64, vec![0; bounds.len() + 1]);
    for v in values {
        out.0 += 1;
        out.1 = out.1.wrapping_add(v);
        out.2[bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())] += 1;
    }
    out
}

fn oracle_metrics(runs: &[RunMetrics]) -> KMeansMetrics {
    let converged = runs.iter().filter(|r| r.2).count() as u64;
    KMeansMetrics {
        counters: [1, converged, runs.len() as u64 - converged],
        iterations: expected_histogram(runs.iter().map(|r| r.0), &ITERATION_BOUNDS),
        movement: expected_histogram(runs.iter().map(|r| r.1), &MOVEMENT_BOUNDS),
    }
}

/// A bit-exact, comparable image of a fit.
fn bits(r: &KMeansResult) -> (Vec<Vec<u64>>, Vec<usize>, u64) {
    (
        r.centroids
            .iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect(),
        r.assignments.clone(),
        r.inertia.to_bits(),
    )
}

// ------------------------------------------------------------- generator

const DIMS: [usize; 4] = [1, 2, 6, 14];
const MAX_POINTS: usize = 48;

/// How the points of a case are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Generic real coordinates.
    Spread,
    /// A small integer lattice: many exactly tied distances.
    Lattice,
    /// Copies of at most three distinct points: k-means++ seeds coincide
    /// and empty clusters must be reseeded.
    Duplicates,
    /// Two groups mirrored about a plane with 1e-12 jitter: centroids and
    /// distances tie to within far less than the bound margin.
    NearTie,
}

#[derive(Debug, Clone)]
struct Case {
    layout: Layout,
    points: Vec<Vec<f64>>,
    k: usize,
    config: KMeansConfig,
    seed: u64,
}

fn arbitrary_case() -> impl Strategy<Value = Case> {
    (
        (
            0usize..DIMS.len(),
            1usize..=MAX_POINTS,
            0usize..4,
            0usize..64,
        ),
        prop::collection::vec(-1_000i32..1_000, MAX_POINTS * 14),
        (1usize..5, 0usize..40, 0usize..3, 0u64..1_000_000, 0usize..3),
    )
        .prop_map(
            |((dim_choice, n, layout, k_choice), raw, (restarts, max_iters, tol, seed, t))| {
                let dim = DIMS[dim_choice];
                let layout = [
                    Layout::Spread,
                    Layout::Lattice,
                    Layout::Duplicates,
                    Layout::NearTie,
                ][layout];
                let value = |i: usize, d: usize| raw[i * dim + d] as f64;
                let pool = 1 + k_choice % 3;
                let points: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        (0..dim)
                            .map(|d| match layout {
                                Layout::Spread => value(i, d) / 7.0,
                                Layout::Lattice => value(i, d).rem_euclid(3.0),
                                Layout::Duplicates => value(i % pool, d) / 3.0,
                                Layout::NearTie => {
                                    let side = if i % 2 == 0 { 1.0 } else { -1.0 };
                                    let offset = if d == 0 { side } else { 0.5 };
                                    offset + value(i, d) * 1e-15
                                }
                            })
                            .collect()
                    })
                    .collect();
                // k = n in one case out of eight, else 1..=min(n, 10).
                let k = if k_choice % 8 == 0 {
                    n
                } else {
                    1 + k_choice % n.min(10)
                };
                Case {
                    layout,
                    points,
                    k,
                    config: KMeansConfig {
                        max_iters,
                        tol: [0.0, 1e-9, 1e-3][tol],
                        restarts,
                        threads: [1, 2, 8][t],
                    },
                    seed,
                }
            },
        )
}

const CASES: u32 = 256;

/// The generator reaches the cases the parity property relies on: every
/// dimension, every layout, `k = n`, empty-cluster reseeds and runs cut
/// off at `max_iters`.
#[test]
fn generator_covers_the_edge_cases() {
    let mut dims = [0u32; DIMS.len()];
    let mut layouts = [0u32; 4];
    let (mut k_is_n, mut reseeds, mut cut_off) = (0u32, 0u32, 0u32);
    for case in 0..CASES {
        let mut rng = proptest::test_runner::TestRng::for_case("coverage", case);
        let c = Strategy::generate(&arbitrary_case(), &mut rng);
        dims[DIMS.iter().position(|&d| d == c.points[0].len()).unwrap()] += 1;
        layouts[c.layout as usize] += 1;
        k_is_n += u32::from(c.k == c.points.len() && c.k > 1);
        let distinct: std::collections::BTreeSet<Vec<u64>> = c
            .points
            .iter()
            .map(|p| p.iter().map(|x| x.to_bits()).collect())
            .collect();
        reseeds += u32::from(distinct.len() < c.k && c.config.max_iters > 0);
        let (_, runs) = oracle_fit(&c.points, c.k, &c.config, c.seed);
        cut_off += u32::from(runs.iter().any(|r| !r.2));
    }
    assert!(dims.iter().all(|&n| n >= CASES / 8), "dims {dims:?}");
    assert!(
        layouts.iter().all(|&n| n >= CASES / 8),
        "layouts {layouts:?}"
    );
    assert!(
        k_is_n >= CASES / 32 && reseeds >= CASES / 32 && cut_off >= CASES / 32,
        "k = n {k_is_n}, reseeds {reseeds}, cut off {cut_off}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn kernel_matches_the_plain_lloyd_oracle(case in arbitrary_case()) {
        let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
        let (expected, runs) = oracle_fit(&case.points, case.k, &case.config, case.seed);

        let (before, skips_before) = published();
        let got = fit(&case.points, case.k, &case.config, case.seed).unwrap();
        let (after, skips_after) = published();

        prop_assert_eq!(bits(&got), bits(&expected), "{:?}", case);
        prop_assert_eq!(metrics_delta(&before, &after), oracle_metrics(&runs), "{:?}", case);
        // Each restart makes `iterations + 1` assignment passes over n points.
        let passes: u64 = runs.iter().map(|r| r.0 + 1).sum();
        prop_assert!(skips_after - skips_before <= passes * case.points.len() as u64);
    }
}

/// Small fits on an 8×8 integer lattice: a point lands exactly on the
/// midpoint of two centroids in about one case in 150, which is where a
/// skip test without its strict margin would keep the wrong centroid.
fn lattice_case() -> impl Strategy<Value = (Vec<Vec<f64>>, usize, u64)> {
    (
        prop::collection::vec((0u32..8, 0u32..8), 3..=8),
        (1usize..=2, 2usize..=3, 0u64..1_000),
    )
        .prop_map(|(raw, (dim, k, seed))| {
            let points = raw
                .iter()
                .map(|&(x, y)| [f64::from(x), f64::from(y)][..dim].to_vec())
                .collect();
            (points, k, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_048))]

    #[test]
    fn exact_ties_on_small_lattices_match_the_oracle(case in lattice_case()) {
        let (points, k, seed) = case;
        let config = KMeansConfig {
            restarts: 1,
            max_iters: 10,
            tol: 0.0,
            threads: 1,
        };
        let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
        let (expected, _) = oracle_fit(&points, k, &config, seed);
        let got = fit(&points, k, &config, seed).unwrap();
        prop_assert_eq!(bits(&got), bits(&expected), "{:?} k={} seed={}", points, k, seed);
    }
}

/// Two fits where a bound meets its limit: exactly (a 1-D midpoint) and
/// only up to rounding (a 2-D lattice). Both must take the full argmin.
#[test]
fn pinned_ties_take_the_full_argmin() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let config = KMeansConfig {
        restarts: 1,
        max_iters: 10,
        tol: 0.0,
        threads: 1,
    };
    let exact: Vec<Vec<f64>> = vec![vec![7.0], vec![3.0], vec![1.0]];
    let rounded: Vec<Vec<f64>> = [[3.0, 7.0], [3.0, 0.0], [1.0, 2.0], [6.0, 3.0], [2.0, 1.0]]
        .iter()
        .map(|p| p.to_vec())
        .collect();
    for (points, k, seed) in [(exact, 2, 270), (rounded, 3, 259)] {
        let (expected, _) = oracle_fit(&points, k, &config, seed);
        let got = fit(&points, k, &config, seed).unwrap();
        assert_eq!(bits(&got), bits(&expected), "{points:?}");
    }
}

/// On separated clusters most point-iterations skip the full argmin, and
/// the counter says so.
#[test]
fn bounds_skip_most_assignments_on_separated_clusters() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let points = golden_points();
    let config = KMeansConfig {
        restarts: 1,
        ..KMeansConfig::default()
    };
    let (_, runs) = oracle_fit(&points, 4, &config, 3);
    let (_, before) = published();
    fit(&points, 4, &config, 3).unwrap();
    let (_, after) = published();
    let passes = (runs[0].0 + 1) * points.len() as u64;
    assert!(
        (after - before) * 2 > passes,
        "{} of {passes} skipped",
        after - before
    );
}

// ---------------------------------------------------------------- golden

/// 160 six-dimensional application mixes around four centres (simplex
/// vectors, like the paper's user profiles), from a fixed LCG.
fn golden_points() -> Vec<Vec<f64>> {
    let mut state: u64 = 0x005E_ED0F_601D;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let centres = [
        [0.6, 0.1, 0.1, 0.1, 0.05, 0.05],
        [0.1, 0.6, 0.1, 0.05, 0.1, 0.05],
        [0.05, 0.1, 0.1, 0.6, 0.1, 0.05],
        [0.2, 0.2, 0.2, 0.2, 0.1, 0.1],
    ];
    (0..160)
        .map(|i| {
            let c = &centres[i % centres.len()];
            let raw: Vec<f64> = c
                .iter()
                .map(|&x| (x + 0.15 * (next() - 0.5)).max(0.0))
                .collect();
            let total: f64 = raw.iter().sum();
            raw.iter().map(|x| x / total).collect()
        })
        .collect()
}

/// `(k, gap, s, log_w, mean_ref_log_w)` bits of the golden run, recorded
/// with the plain Lloyd kernel.
const GOLDEN: [(usize, u64, u64, u64, u64); 7] = [
    (
        1,
        0x3fb58abf49e6bfa0,
        0x3fb37615db1f7d35,
        0x4009a8d267cf8a2a,
        0x400a5528621ec027,
    ),
    (
        2,
        0x3fc78f788faeceb0,
        0x3fa8ea1359afa1c7,
        0x4005525a579d9349,
        0x4006cb51e0988034,
    ),
    (
        3,
        0x3fe55d01d9867440,
        0x3fa61b65b353f131,
        0x3ffc9e6a0a0511fe,
        0x4003a6757b64260f,
    ),
    (
        4,
        0x3ff85c6334ce0c5a,
        0x3fa87c3604466abb,
        0x3fe4370fb93028ed,
        0x40013bf588b31068,
    ),
    (
        5,
        0x3ff87653464d0638,
        0x3fa71d816871effc,
        0x3fe007fa2fc1e38c,
        0x40003d282f16fbff,
    ),
    (
        6,
        0x3ff7f18d31848a5b,
        0x3fa2fcecfca9e18f,
        0x3fda55461f88f984,
        0x3ffe86deb966c8bc,
    ),
    (
        7,
        0x3ff7f9ecf91937ec,
        0x3fa4a163cd46ed29,
        0x3fd449501266068c,
        0x3ffd0c40fdb2b98f,
    ),
];

#[test]
fn gap_result_matches_the_pinned_golden_at_every_thread_count() {
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let points = golden_points();
    for threads in [1, 2, 8] {
        let config = GapConfig {
            reference_sets: 6,
            kmeans: KMeansConfig {
                threads,
                ..KMeansConfig::default()
            },
            threads,
            ..GapConfig::default()
        };
        let result = gap_statistic(&points, 7, &config, 2013).unwrap();
        assert_eq!(result.chosen_k, 4, "threads={threads}");
        let got: Vec<_> = result
            .points
            .iter()
            .map(|p| {
                (
                    p.k,
                    p.gap.to_bits(),
                    p.s.to_bits(),
                    p.log_w.to_bits(),
                    p.mean_ref_log_w.to_bits(),
                )
            })
            .collect();
        assert_eq!(got, GOLDEN.to_vec(), "threads={threads}");
    }
}
