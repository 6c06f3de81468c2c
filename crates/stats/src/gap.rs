//! The gap statistic of Tibshirani, Walther & Hastie (2001) for choosing the
//! number of clusters `k` — the method the paper uses to arrive at `k = 4`
//! user types (Section III-D2, Fig. 7).
//!
//! ```text
//! Gap(k) = (1/B) Σ_b log(W_kb) − log(W_k)
//! ```
//!
//! where `W_k` is the within-cluster dispersion of the data clustered into
//! `k` groups and `W_kb` the dispersion of the `b`-th reference data set
//! drawn uniformly over the bounding box of the data. The chosen `k` is the
//! smallest one with `Gap(k) ≥ Gap(k+1) − s_{k+1}` where
//! `s_k = sd_k · √(1 + 1/B)`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use s3_obs::{Desc, HistogramDesc, Stability, Unit};

use crate::kmeans::{self, KMeansConfig};

// Gap-statistic metrics (documented in docs/METRICS.md).
static RUNS: Desc = Desc {
    name: "stats.gap.runs",
    help: "Gap-statistic evaluations performed",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static FITS: Desc = Desc {
    name: "stats.gap.fits",
    help: "k-means fits fanned out by gap runs (k_max * (B + 1) per run)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static CHOSEN_K: HistogramDesc = HistogramDesc {
    name: "stats.gap.chosen_k",
    help: "Cluster count selected by the Tibshirani rule",
    unit: Unit::Count,
    stability: Stability::Stable,
    bounds: &[1, 2, 3, 4, 6, 8, 12, 16],
};
use crate::linalg::{covariance, symmetric_eigen};
use crate::StatsError;

/// How the null-reference data sets are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceMethod {
    /// Uniform over the axis-aligned bounding box of the data
    /// (Tibshirani's method (a)).
    BoundingBox,
    /// Uniform over a box aligned with the data's principal components
    /// (Tibshirani's method (b)) — more robust for elongated clusters,
    /// like application profiles living on a simplex.
    PcaAligned,
}

/// Configuration for a [`gap_statistic`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct GapConfig {
    /// Number of reference data sets `B`.
    pub reference_sets: usize,
    /// Null-reference generation method.
    pub reference_method: ReferenceMethod,
    /// k-means settings shared by data and reference fits.
    pub kmeans: KMeansConfig,
    /// Worker threads fanning out the `k_max · (B + 1)` independent k-means
    /// fits (`<= 1` is sequential). Each fit has its own derived seed, so
    /// the curve is identical for every thread count.
    pub threads: usize,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            reference_sets: 10,
            reference_method: ReferenceMethod::PcaAligned,
            kmeans: KMeansConfig::default(),
            threads: 1,
        }
    }
}

/// Gap value and dispersion diagnostics for one `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct GapPoint {
    /// Number of clusters.
    pub k: usize,
    /// `Gap(k)`.
    pub gap: f64,
    /// `s_k = sd_k √(1+1/B)` — the correction term of the selection rule.
    pub s: f64,
    /// `log(W_k)` of the real data.
    pub log_w: f64,
    /// Mean `log(W_kb)` over the reference sets.
    pub mean_ref_log_w: f64,
}

/// Full gap-statistic curve over `k = 1 ..= k_max` plus the selected `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct GapResult {
    /// One entry per evaluated `k`, ascending.
    pub points: Vec<GapPoint>,
    /// The smallest `k` with `Gap(k) ≥ Gap(k+1) − s_{k+1}`, falling back to
    /// the `k` with the maximum gap when the rule never fires.
    pub chosen_k: usize,
}

fn bounding_box(points: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
    let dim = points[0].len();
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for p in points {
        for d in 0..dim {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    (lo, hi)
}

fn uniform_reference(n: usize, lo: &[f64], hi: &[f64], rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            lo.iter()
                .zip(hi)
                .map(|(&l, &h)| if h > l { rng.random_range(l..h) } else { l })
                .collect()
        })
        .collect()
}

/// The principal-component frame of a point set: `(mean, axes)` with axes
/// as unit-vector rows, plus the data's projected bounds along each axis.
struct PcaFrame {
    mean: Vec<f64>,
    axes: Vec<Vec<f64>>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

fn pca_frame(points: &[Vec<f64>]) -> Result<PcaFrame, StatsError> {
    let d = points[0].len();
    let (cov, mean) = covariance(points)?;
    let eigen = symmetric_eigen(&cov, d)?;
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for p in points {
        for (axis, (l, h)) in eigen.vectors.iter().zip(lo.iter_mut().zip(hi.iter_mut())) {
            let proj: f64 = axis
                .iter()
                .zip(p.iter().zip(&mean))
                .map(|(a, (x, m))| a * (x - m))
                .sum();
            *l = l.min(proj);
            *h = h.max(proj);
        }
    }
    Ok(PcaFrame {
        mean,
        axes: eigen.vectors,
        lo,
        hi,
    })
}

fn pca_reference(n: usize, frame: &PcaFrame, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let d = frame.mean.len();
    (0..n)
        .map(|_| {
            let coords: Vec<f64> = frame
                .lo
                .iter()
                .zip(&frame.hi)
                .map(|(&l, &h)| if h > l { rng.random_range(l..h) } else { l })
                .collect();
            let mut point = frame.mean.clone();
            for (axis, &c) in frame.axes.iter().zip(&coords) {
                for (x, &a) in point.iter_mut().zip(axis).take(d) {
                    *x += c * a;
                }
            }
            point
        })
        .collect()
}

fn log_dispersion(
    points: &[Vec<f64>],
    k: usize,
    config: &KMeansConfig,
    seed: u64,
) -> Result<f64, StatsError> {
    // The fit's inertia is `W_k` itself: the same squared distances summed
    // in the same point order as `kmeans::within_dispersion`.
    let w = kmeans::fit(points, k, config, seed)?.inertia;
    // Guard against log(0) for degenerate perfectly-tight clusterings.
    Ok(w.max(1e-300).ln())
}

/// Computes the gap statistic for `k = 1 ..= k_max` and applies the
/// Tibshirani selection rule. Deterministic for a fixed `seed`.
///
/// # Errors
///
/// Propagates k-means validation errors, and returns
/// [`StatsError::BadParameter`] when `k_max` is zero or larger than the
/// number of points, or when `reference_sets` is zero.
///
/// # Example
/// ```
/// # use s3_stats::gap::{gap_statistic, GapConfig};
/// // Two tight, well-separated blobs → the rule should pick k = 2.
/// let mut pts = Vec::new();
/// for i in 0..30 {
///     let j = (i % 10) as f64 * 1e-3;
///     pts.push(vec![j, j]);
///     pts.push(vec![4.0 + j, 4.0 - j]);
/// }
/// let result = gap_statistic(&pts, 4, &GapConfig::default(), 123)?;
/// assert_eq!(result.chosen_k, 2);
/// # Ok::<(), s3_stats::StatsError>(())
/// ```
pub fn gap_statistic(
    points: &[Vec<f64>],
    k_max: usize,
    config: &GapConfig,
    seed: u64,
) -> Result<GapResult, StatsError> {
    if points.is_empty() {
        return Err(StatsError::EmptyInput { what: "gap" });
    }
    if k_max == 0 || k_max > points.len() {
        return Err(StatsError::BadParameter {
            what: "gap",
            detail: format!("k_max {k_max} must be in 1..={}", points.len()),
        });
    }
    if config.reference_sets == 0 {
        return Err(StatsError::BadParameter {
            what: "gap",
            detail: "reference_sets must be positive".to_string(),
        });
    }
    let registry = s3_obs::global();
    registry.counter(&RUNS).inc();
    let b = config.reference_sets;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    // Draw the reference sets once and reuse them across k, as Tibshirani
    // prescribes (reduces Monte-Carlo noise between adjacent k).
    let references: Vec<Vec<Vec<f64>>> = match config.reference_method {
        ReferenceMethod::BoundingBox => {
            let (lo, hi) = bounding_box(points);
            (0..b)
                .map(|_| uniform_reference(points.len(), &lo, &hi, &mut rng))
                .collect()
        }
        ReferenceMethod::PcaAligned => {
            let frame = pca_frame(points)?;
            (0..b)
                .map(|_| pca_reference(points.len(), &frame, &mut rng))
                .collect()
        }
    };

    // Every (k, data-or-reference) fit is independent with its own derived
    // seed; fan them all out at once and reassemble per k in task order, so
    // the mean/sd sums associate exactly as the sequential loops did.
    let mut tasks: Vec<(usize, Option<usize>)> = Vec::with_capacity(k_max * (b + 1));
    for k in 1..=k_max {
        tasks.push((k, None));
        for bi in 0..b {
            tasks.push((k, Some(bi)));
        }
    }
    registry.counter(&FITS).add(tasks.len() as u64);
    let logs: Vec<Result<f64, StatsError>> =
        s3_par::par_map(&tasks, config.threads, |_, &(k, bi)| match bi {
            None => log_dispersion(points, k, &config.kmeans, seed.wrapping_add(k as u64)),
            Some(bi) => log_dispersion(
                &references[bi],
                k,
                &config.kmeans,
                seed.wrapping_add((k * 1_000 + bi) as u64),
            ),
        });
    let mut logs = logs.into_iter();

    let mut out = Vec::with_capacity(k_max);
    for k in 1..=k_max {
        let log_w = logs.next().expect("one data fit per k")?;
        let mut ref_logs = Vec::with_capacity(b);
        for _ in 0..b {
            ref_logs.push(logs.next().expect("b reference fits per k")?);
        }
        let mean = ref_logs.iter().sum::<f64>() / b as f64;
        let sd = (ref_logs
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / b as f64)
            .sqrt();
        out.push(GapPoint {
            k,
            gap: mean - log_w,
            s: sd * (1.0 + 1.0 / b as f64).sqrt(),
            log_w,
            mean_ref_log_w: mean,
        });
    }

    let mut chosen_k = 0;
    for i in 0..out.len() - 1 {
        if out[i].gap >= out[i + 1].gap - out[i + 1].s {
            chosen_k = out[i].k;
            break;
        }
    }
    if chosen_k == 0 {
        chosen_k = out
            .iter()
            .max_by(|a, b| a.gap.partial_cmp(&b.gap).expect("finite gaps"))
            .map(|p| p.k)
            .expect("non-empty");
    }
    registry.histogram(&CHOSEN_K).observe(chosen_k as u64);
    Ok(GapResult {
        points: out,
        chosen_k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f64, f64)], per_blob: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per_blob {
                pts.push(vec![
                    cx + rng.random_range(-spread..spread),
                    cy + rng.random_range(-spread..spread),
                ]);
            }
        }
        pts
    }

    #[test]
    fn picks_three_for_three_blobs() {
        let pts = blobs(&[(0.0, 0.0), (6.0, 0.0), (3.0, 6.0)], 25, 0.25, 7);
        let result = gap_statistic(&pts, 6, &GapConfig::default(), 99).unwrap();
        assert_eq!(result.chosen_k, 3, "points: {:?}", result.points);
    }

    #[test]
    fn picks_four_for_four_blobs() {
        let pts = blobs(
            &[(0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0)],
            25,
            0.3,
            21,
        );
        let result = gap_statistic(&pts, 8, &GapConfig::default(), 4).unwrap();
        assert_eq!(result.chosen_k, 4);
    }

    #[test]
    fn curve_covers_requested_range() {
        let pts = blobs(&[(0.0, 0.0), (5.0, 5.0)], 15, 0.2, 3);
        let result = gap_statistic(&pts, 5, &GapConfig::default(), 5).unwrap();
        let ks: Vec<usize> = result.points.iter().map(|p| p.k).collect();
        assert_eq!(ks, vec![1, 2, 3, 4, 5]);
        for p in &result.points {
            assert!(p.gap.is_finite());
            assert!(p.s >= 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let pts = blobs(&[(0.0, 0.0), (5.0, 5.0)], 10, 0.2, 3);
        let a = gap_statistic(&pts, 4, &GapConfig::default(), 8).unwrap();
        let b = gap_statistic(&pts, 4, &GapConfig::default(), 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validation_errors() {
        assert!(gap_statistic(&[], 3, &GapConfig::default(), 0).is_err());
        let pts = vec![vec![0.0], vec![1.0]];
        assert!(gap_statistic(&pts, 0, &GapConfig::default(), 0).is_err());
        assert!(gap_statistic(&pts, 3, &GapConfig::default(), 0).is_err());
        let bad = GapConfig {
            reference_sets: 0,
            ..GapConfig::default()
        };
        assert!(gap_statistic(&pts, 2, &bad, 0).is_err());
    }

    #[test]
    fn uniform_data_prefers_small_k() {
        // Structureless data: the rule should fire at k = 1 (uniform data
        // has no cluster structure to gain from).
        let mut rng = StdRng::seed_from_u64(40);
        let pts: Vec<Vec<f64>> = (0..120)
            .map(|_| vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)])
            .collect();
        let result = gap_statistic(&pts, 5, &GapConfig::default(), 12).unwrap();
        assert!(result.chosen_k <= 2, "chose {}", result.chosen_k);
    }
}
