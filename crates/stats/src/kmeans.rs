//! k-means clustering (k-means++ seeding, Lloyd iterations).
//!
//! The paper clusters per-user application profiles (6-dim simplex vectors)
//! into `k = 4` groups (Fig. 8); `k` itself is chosen by the gap statistic in
//! [`crate::gap`]. The implementation is dimension-generic so the gap
//! statistic can feed uniform reference data through the same code path.
//!
//! # The Lloyd kernel
//!
//! Points and centroids live in flat row-major `f64` rows. One pass per
//! iteration assigns every point and accumulates the centroid sums in point
//! order. Hamerly bounds let most points skip the full argmin: each point
//! keeps an upper bound `u` on the distance to its centroid `a` and a lower
//! bound `l` on the distance to every other centroid, and `s[a]` is half
//! the distance from `a` to its nearest other centroid. A point keeps its
//! centroid without the argmin only when
//!
//! ```text
//! u·(1 + ε) < max(s[a], l)·(1 − ε),   ε = 1e-9
//! ```
//!
//! If that fails, `u` is tightened to the exact distance and the test is
//! tried once more. The margin ε is a million times wider than the
//! rounding error of a squared distance (about 1e-15 relative), so a point
//! that skips would have won the argmin by a gap no rounding can close,
//! and a tie never skips. Assignments, the order of the centroid sums,
//! iteration counts, movement and inertia are therefore bit-identical to a
//! plain Lloyd loop that runs the full argmin for every point. An
//! empty-cluster reseed resets all bounds.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use s3_obs::{Desc, HistogramDesc, Stability, Unit};

use crate::StatsError;

// Clustering metrics (documented in docs/METRICS.md). All values are pure
// functions of the input and seed: iteration counts and bound skips come
// from the sequential Lloyd loop of each restart, and the final movement is
// quantized to integer nanos so histogram sums stay exact.
static FITS: Desc = Desc {
    name: "stats.kmeans.fits",
    help: "k-means fits performed (each with its configured restarts)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static CONVERGED: Desc = Desc {
    name: "stats.kmeans.converged",
    help: "Lloyd runs that met the movement tolerance before max_iters",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static MAX_ITERS_REACHED: Desc = Desc {
    name: "stats.kmeans.max_iters_reached",
    help: "Lloyd runs that stopped at the iteration cap without converging",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ITERATIONS: HistogramDesc = HistogramDesc {
    name: "stats.kmeans.iterations",
    help: "Lloyd iterations per restart",
    unit: Unit::Count,
    stability: Stability::Stable,
    bounds: &[1, 2, 4, 8, 16, 32, 64, 128],
};
static FINAL_MOVEMENT_NANOS: HistogramDesc = HistogramDesc {
    name: "stats.kmeans.final_movement_nanos",
    help: "Total centroid movement (L2) of the last Lloyd iteration, in 1e-9 units",
    unit: Unit::Nanos,
    stability: Stability::Stable,
    bounds: &[1, 1_000, 1_000_000, 1_000_000_000, 1_000_000_000_000],
};
static BOUND_SKIPS: Desc = Desc {
    name: "stats.kmeans.bound_skips",
    help: "Point assignments proved by the Hamerly bounds without the full argmin",
    unit: Unit::Count,
    stability: Stability::Stable,
};

/// Relative margin ε of the Hamerly skip test (see the module docs).
const BOUND_MARGIN: f64 = 1e-9;

/// Tuning knobs for [`fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on total centroid movement (L2).
    pub tol: f64,
    /// Number of independent restarts; the best inertia wins.
    pub restarts: usize,
    /// Worker threads running the restarts side by side (`<= 1` is
    /// sequential). Each restart is a pure function of its own derived seed
    /// and the winner is picked in restart order, so the fit is identical
    /// for every thread count.
    pub threads: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            max_iters: 100,
            tol: 1e-9,
            restarts: 4,
            threads: 1,
        }
    }
}

/// Result of a k-means fit.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// `k` centroids, each of the input dimension.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster assignment per input point, values in `0..k`.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Points per cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn validate(points: &[Vec<f64>], k: usize) -> Result<usize, StatsError> {
    if points.is_empty() {
        return Err(StatsError::EmptyInput { what: "kmeans" });
    }
    if k == 0 {
        return Err(StatsError::BadParameter {
            what: "kmeans",
            detail: "k must be positive".to_string(),
        });
    }
    if points.len() < k {
        return Err(StatsError::TooFewPoints {
            points: points.len(),
            k,
        });
    }
    let dim = points[0].len();
    if dim == 0 {
        return Err(StatsError::BadParameter {
            what: "kmeans",
            detail: "points must have positive dimension".to_string(),
        });
    }
    for (index, p) in points.iter().enumerate() {
        if p.len() != dim {
            return Err(StatsError::BadParameter {
                what: "kmeans",
                detail: format!("point {index} has dimension {} (expected {dim})", p.len()),
            });
        }
        if p.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::InvalidSample {
                what: "kmeans",
                index,
            });
        }
    }
    Ok(dim)
}

/// k-means++ seeding over flat rows: the first centroid is uniform, later
/// ones are sampled proportional to squared distance to the nearest
/// already-chosen centroid. Returns the `k` centroids as flat rows.
fn seed_plus_plus(points: &[f64], dim: usize, k: usize, rng: &mut StdRng) -> Vec<f64> {
    let n = points.len() / dim;
    let row = |i: usize| &points[i * dim..(i + 1) * dim];
    let mut centroids: Vec<f64> = Vec::with_capacity(k * dim);
    centroids.extend_from_slice(row(rng.random_range(0..n)));
    let mut d2: Vec<f64> = points
        .chunks_exact(dim)
        .map(|p| sq_dist(p, &centroids))
        .collect();
    for _ in 1..k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.random_range(0..n)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        let newest = row(idx);
        centroids.extend_from_slice(newest);
        for (p, best) in points.chunks_exact(dim).zip(d2.iter_mut()) {
            let d = sq_dist(p, newest);
            if d < *best {
                *best = d;
            }
        }
    }
    centroids
}

/// Per-point Hamerly state: the assigned centroid, an upper bound on the
/// distance to it and a lower bound on the distance to every other
/// centroid. `fresh` marks the bounds as unknown, which forces a full
/// argmin for every point on the next pass.
struct Bounds {
    assignments: Vec<usize>,
    upper: Vec<f64>,
    lower: Vec<f64>,
    fresh: bool,
}

impl Bounds {
    fn new(n: usize) -> Bounds {
        Bounds {
            assignments: vec![0; n],
            upper: vec![f64::INFINITY; n],
            lower: vec![0.0; n],
            fresh: true,
        }
    }

    /// Widens the bounds by the centroid moves of one update step: each
    /// upper bound grows by its own centroid's move, each lower bound
    /// shrinks by the largest move among the other centroids.
    fn shift(&mut self, moves: &[f64]) {
        let (mut top, mut top_index, mut runner_up) = (0.0f64, usize::MAX, 0.0f64);
        for (c, &m) in moves.iter().enumerate() {
            if m > top {
                runner_up = top;
                top = m;
                top_index = c;
            } else if m > runner_up {
                runner_up = m;
            }
        }
        for ((&a, upper), lower) in self
            .assignments
            .iter()
            .zip(&mut self.upper)
            .zip(&mut self.lower)
        {
            *upper += moves[a];
            *lower -= if a == top_index { runner_up } else { top };
        }
    }
}

/// One assignment pass over flat rows: assigns every point to its nearest
/// centroid (first index on ties, as a plain argmin) and accumulates the
/// per-cluster coordinate sums and counts in point order. Returns the
/// number of points whose bounds proved the assignment without the full
/// argmin.
fn assign_pass(
    points: &[f64],
    centroids: &[f64],
    dim: usize,
    bounds: &mut Bounds,
    sums: &mut [f64],
    counts: &mut [usize],
) -> u64 {
    let k = counts.len();
    // Half the distance from each centroid to its nearest other centroid.
    let mut half_gap = vec![f64::INFINITY; k];
    for a in 0..k {
        for b in a + 1..k {
            let h = 0.5
                * sq_dist(
                    &centroids[a * dim..(a + 1) * dim],
                    &centroids[b * dim..(b + 1) * dim],
                )
                .sqrt();
            half_gap[a] = half_gap[a].min(h);
            half_gap[b] = half_gap[b].min(h);
        }
    }
    sums.fill(0.0);
    counts.fill(0);
    let mut skips = 0u64;
    for (i, p) in points.chunks_exact(dim).enumerate() {
        let mut a = bounds.assignments[i];
        let mut kept = false;
        if !bounds.fresh {
            let limit = half_gap[a].max(bounds.lower[i]) * (1.0 - BOUND_MARGIN);
            kept = bounds.upper[i] * (1.0 + BOUND_MARGIN) < limit;
            if !kept {
                // Tighten the upper bound to the exact distance and retry.
                bounds.upper[i] = sq_dist(p, &centroids[a * dim..(a + 1) * dim]).sqrt();
                kept = bounds.upper[i] * (1.0 + BOUND_MARGIN) < limit;
            }
        }
        if kept {
            skips += 1;
        } else {
            let (mut best_d, mut second_d) = (f64::INFINITY, f64::INFINITY);
            a = 0;
            for (c, centroid) in centroids.chunks_exact(dim).enumerate() {
                let d = sq_dist(p, centroid);
                if d < best_d {
                    second_d = best_d;
                    best_d = d;
                    a = c;
                } else if d < second_d {
                    second_d = d;
                }
            }
            bounds.assignments[i] = a;
            bounds.upper[i] = best_d.sqrt();
            bounds.lower[i] = second_d.sqrt();
        }
        counts[a] += 1;
        for (s, &x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(p) {
            *s += x;
        }
    }
    bounds.fresh = false;
    skips
}

/// Lloyd iterations from the seeded `centroids` (flat rows) to convergence
/// or `max_iters`, followed by a final assignment against the last
/// centroids.
fn lloyd(
    points: &[f64],
    mut centroids: Vec<f64>,
    dim: usize,
    config: &KMeansConfig,
) -> KMeansResult {
    let n = points.len() / dim;
    let k = centroids.len() / dim;
    let mut bounds = Bounds::new(n);
    let mut sums = vec![0.0; k * dim];
    let mut counts = vec![0usize; k];
    let mut moves = vec![0.0; k];
    let mut next = vec![0.0; dim];
    let mut skips = 0u64;
    let mut iterations = 0u64;
    let mut converged = false;
    let mut last_movement = 0.0f64;
    for _ in 0..config.max_iters {
        iterations += 1;
        skips += assign_pass(points, &centroids, dim, &mut bounds, &mut sums, &mut counts);
        // Update step, centroid by centroid in index order.
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at the point farthest from the
                // current centroid of point 0's cluster (the last such point
                // on ties) to keep exactly k clusters alive. A jump that
                // far voids most bounds anyway, so they all start over.
                let anchor = bounds.assignments[0] * dim;
                let anchor = &centroids[anchor..anchor + dim];
                let mut far = 0;
                let mut far_d = f64::NEG_INFINITY;
                for (i, p) in points.chunks_exact(dim).enumerate() {
                    let d = sq_dist(p, anchor);
                    if d >= far_d {
                        far = i;
                        far_d = d;
                    }
                }
                next.copy_from_slice(&points[far * dim..(far + 1) * dim]);
                bounds.fresh = true;
            } else {
                for (x, &s) in next.iter_mut().zip(&sums[c * dim..(c + 1) * dim]) {
                    *x = s / counts[c] as f64;
                }
            }
            let centroid = &mut centroids[c * dim..(c + 1) * dim];
            moves[c] = sq_dist(centroid, &next).sqrt();
            movement += moves[c];
            centroid.copy_from_slice(&next);
        }
        if !bounds.fresh {
            bounds.shift(&moves);
        }
        last_movement = movement;
        if movement <= config.tol {
            converged = true;
            break;
        }
    }
    // Final assignment against the last centroids; the inertia sums the
    // squared distances in point order.
    skips += assign_pass(points, &centroids, dim, &mut bounds, &mut sums, &mut counts);
    let inertia = points
        .chunks_exact(dim)
        .zip(&bounds.assignments)
        .map(|(p, &a)| sq_dist(p, &centroids[a * dim..(a + 1) * dim]))
        .sum();
    let registry = s3_obs::global();
    registry.histogram(&ITERATIONS).observe(iterations);
    registry
        .histogram(&FINAL_MOVEMENT_NANOS)
        .observe((last_movement * 1e9).round().min(u64::MAX as f64).max(0.0) as u64);
    registry
        .counter(if converged {
            &CONVERGED
        } else {
            &MAX_ITERS_REACHED
        })
        .inc();
    registry.counter(&BOUND_SKIPS).add(skips);
    KMeansResult {
        centroids: centroids.chunks_exact(dim).map(<[f64]>::to_vec).collect(),
        assignments: bounds.assignments,
        inertia,
    }
}

/// Fits k-means with `config.restarts` k-means++ restarts and returns the
/// run with the lowest inertia (the first such restart on ties).
/// Deterministic for a fixed `seed`, at every `config.threads`.
///
/// # Errors
///
/// [`StatsError::EmptyInput`] / [`StatsError::TooFewPoints`] /
/// [`StatsError::BadParameter`] / [`StatsError::InvalidSample`] on malformed
/// input, as described on each variant.
///
/// # Example
/// ```
/// # use s3_stats::kmeans::{fit, KMeansConfig};
/// let pts = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
///     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
/// ];
/// let fit = fit(&pts, 2, &KMeansConfig::default(), 7)?;
/// assert_eq!(fit.k(), 2);
/// assert_eq!(fit.assignments[0], fit.assignments[1]);
/// assert_ne!(fit.assignments[0], fit.assignments[3]);
/// # Ok::<(), s3_stats::StatsError>(())
/// ```
pub fn fit(
    points: &[Vec<f64>],
    k: usize,
    config: &KMeansConfig,
    seed: u64,
) -> Result<KMeansResult, StatsError> {
    let dim = validate(points, k)?;
    if config.restarts == 0 {
        return Err(StatsError::BadParameter {
            what: "kmeans",
            detail: "restarts must be positive".to_string(),
        });
    }
    s3_obs::global().counter(&FITS).inc();
    let flat: Vec<f64> = points.concat();
    let restarts: Vec<u64> = (0..config.restarts as u64).collect();
    let runs = s3_par::par_map(&restarts, config.threads, |_, &restart| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(restart * 0x9E37_79B9));
        let seeds = seed_plus_plus(&flat, dim, k, &mut rng);
        lloyd(&flat, seeds, dim, config)
    });
    // Lowest inertia wins; the strict `<` keeps the first restart on ties.
    let best = runs
        .into_iter()
        .reduce(|best, run| {
            if run.inertia < best.inertia {
                run
            } else {
                best
            }
        })
        .expect("restarts >= 1");
    Ok(best)
}

/// Within-cluster dispersion `W_k = Σ_clusters ½·(pairwise squared dists)/n_r`
/// as used by the gap statistic. Computed equivalently as
/// `Σ_points ‖x − centroid‖²` (identical for Euclidean distance).
pub fn within_dispersion(points: &[Vec<f64>], result: &KMeansResult) -> f64 {
    let mut w = 0.0;
    for (p, &a) in points.iter().zip(&result.assignments) {
        w += sq_dist(p, &result.centroids[a]);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            let j = i as f64 * 0.01;
            pts.push(vec![j, -j]);
            pts.push(vec![10.0 + j, 10.0 - j]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let fit = fit(&pts, 2, &KMeansConfig::default(), 42).unwrap();
        let a0 = fit.assignments[0];
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(fit.assignments[i], a0);
        }
        for i in (1..pts.len()).step_by(2) {
            assert_ne!(fit.assignments[i], a0);
        }
        let sizes = fit.cluster_sizes();
        assert_eq!(sizes, vec![20, 20]);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let pts = two_blobs();
        let a = fit(&pts, 3, &KMeansConfig::default(), 5).unwrap();
        let b = fit(&pts, 3, &KMeansConfig::default(), 5).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![vec![1.0], vec![2.0], vec![3.0]];
        let fit = fit(&pts, 3, &KMeansConfig::default(), 1).unwrap();
        assert!(fit.inertia < 1e-18);
        let mut sorted = fit.cluster_sizes();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 1]);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let fit = fit(&pts, 1, &KMeansConfig::default(), 9).unwrap();
        assert!((fit.centroids[0][0] - 1.0).abs() < 1e-12);
        assert!((fit.centroids[0][1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            fit(&[], 2, &KMeansConfig::default(), 0),
            Err(StatsError::EmptyInput { .. })
        ));
        let pts = vec![vec![1.0]];
        assert!(matches!(
            fit(&pts, 2, &KMeansConfig::default(), 0),
            Err(StatsError::TooFewPoints { points: 1, k: 2 })
        ));
        assert!(matches!(
            fit(&pts, 0, &KMeansConfig::default(), 0),
            Err(StatsError::BadParameter { .. })
        ));
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(matches!(
            fit(&ragged, 1, &KMeansConfig::default(), 0),
            Err(StatsError::BadParameter { .. })
        ));
        let nan = vec![vec![f64::NAN]];
        assert!(matches!(
            fit(&nan, 1, &KMeansConfig::default(), 0),
            Err(StatsError::InvalidSample { .. })
        ));
    }

    #[test]
    fn duplicate_points_still_produce_k_clusters() {
        let pts = vec![vec![1.0, 1.0]; 10];
        let fit = fit(&pts, 3, &KMeansConfig::default(), 3).unwrap();
        assert_eq!(fit.k(), 3);
        assert!(fit.inertia < 1e-18);
    }

    #[test]
    fn within_dispersion_matches_inertia() {
        let pts = two_blobs();
        let result = fit(&pts, 2, &KMeansConfig::default(), 11).unwrap();
        let w = within_dispersion(&pts, &result);
        assert!((w - result.inertia).abs() < 1e-9);
    }

    #[test]
    fn more_clusters_never_increase_inertia() {
        let pts = two_blobs();
        let mut last = f64::INFINITY;
        for k in 1..=5 {
            let result = fit(&pts, k, &KMeansConfig::default(), 17).unwrap();
            assert!(
                result.inertia <= last + 1e-9,
                "inertia rose at k={k}: {} -> {}",
                last,
                result.inertia
            );
            last = result.inertia;
        }
    }
}
