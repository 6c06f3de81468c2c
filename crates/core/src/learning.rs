//! The learning stage: from a historical trace to a [`SocialModel`].
//!
//! Mirrors Sections III-D and IV of the paper:
//!
//! * encounters and co-leavings are mined per pair and aggregated into
//!   `P(L(u,v) | E(u,v))`;
//! * user profiles over the look-back window are clustered with k-means,
//!   `k` chosen by the gap statistic (the paper finds `k = 4`);
//! * the type matrix `T(typeᵢ, typeⱼ)` is the mean co-leave probability
//!   between users of the two types (Table I);
//! * the social relation index is
//!   `δ(u,v) = P(L|E)(u,v) + α·T(type_u, type_v)`.

use std::collections::HashMap;

use s3_obs::{Desc, HistogramDesc, Stability, Unit};
use s3_stats::gap::{gap_statistic, GapConfig};
use s3_stats::kmeans::{self, KMeansConfig};
use s3_trace::events::{
    coleave_given_encounter, extract_coleavings_par, extract_encounters_par, PairTable, UserPair,
};
use s3_trace::TraceStore;
use s3_types::{AppMix, BitsPerSec, UserId};

use crate::profile::{all_window_profiles, demand_estimates, median_demand};
use crate::S3Config;

// Learning-stage metrics (documented in docs/METRICS.md). Model-size
// metrics are counters (totals across all learns), not gauges: sweep
// binaries learn many models concurrently, and a last-write-wins gauge
// would make the snapshot depend on worker scheduling.
static LEARNS: Desc = Desc {
    name: "core.model.learns",
    help: "Social models learned from a trace window",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static KNOWN_PAIRS: Desc = Desc {
    name: "core.model.known_pairs",
    help: "User pairs with a learned P(co-leave | encounter), summed over all learned models",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static TYPES: Desc = Desc {
    name: "core.model.types",
    help: "User types (clusters), summed over all learned models",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static LEARN_MICROS: HistogramDesc = HistogramDesc {
    name: "core.model.learn_micros",
    help: "Wall-clock duration of each SocialModel::learn call",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000],
};

// Per-stage spans of one learn: pair mining with P(L|E), profiles with
// clustering, and the type matrix.
static PAIRS_MICROS: HistogramDesc = HistogramDesc {
    name: "core.learn.pairs_micros",
    help: "Per SocialModel::learn call: mining encounters and co-leavings into the P(L|E) table",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
};
static CLUSTER_MICROS: HistogramDesc = HistogramDesc {
    name: "core.learn.cluster_micros",
    help: "Per SocialModel::learn call: window profiles, gap statistic and k-means",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
};
static TYPE_MATRIX_MICROS: HistogramDesc = HistogramDesc {
    name: "core.learn.type_matrix_micros",
    help: "Per SocialModel::learn call: estimating the type matrix from the P(L|E) table",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
};

/// The empirical co-leave probability matrix between user types — the
/// paper's Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeMatrix {
    k: usize,
    values: Vec<f64>,
}

impl TypeMatrix {
    /// An all-zero `k × k` matrix.
    pub fn zeros(k: usize) -> Self {
        TypeMatrix {
            k,
            values: vec![0.0; k * k],
        }
    }

    /// Number of types.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `T(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.k && j < self.k, "type index out of range");
        self.values[i * self.k + j]
    }

    fn set(&mut self, i: usize, j: usize, v: f64) {
        self.values[i * self.k + j] = v;
        self.values[j * self.k + i] = v;
    }

    /// Mean of the diagonal entries (the same-type co-leave probability).
    pub fn diagonal_mean(&self) -> f64 {
        if self.k == 0 {
            return 0.0;
        }
        (0..self.k).map(|i| self.get(i, i)).sum::<f64>() / self.k as f64
    }

    /// Mean of the off-diagonal entries.
    pub fn off_diagonal_mean(&self) -> f64 {
        if self.k < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for i in 0..self.k {
            for j in 0..self.k {
                if i != j {
                    total += self.get(i, j);
                    count += 1;
                }
            }
        }
        total / count as f64
    }
}

/// Everything S³ learned from history. Query with [`SocialModel::delta`].
#[derive(Debug, Clone)]
pub struct SocialModel {
    /// `P(L|E)` per pair (pairs that encountered at least once), sorted
    /// by pair.
    pair_probability: PairTable<f64>,
    /// Cluster assignment per user.
    user_type: HashMap<UserId, usize>,
    /// The type matrix.
    type_matrix: TypeMatrix,
    /// Cluster centroids in realm space (for inspection / Fig. 8).
    centroids: Vec<AppMix>,
    /// Per-user demand estimates `w(u)`.
    demand: HashMap<UserId, BitsPerSec>,
    /// Fallback demand for unseen users.
    fallback_demand: BitsPerSec,
    /// The α used by `delta`.
    alpha: f64,
    /// Whether the producer judged the model under-trained (see
    /// [`SocialModel::is_stale`]).
    stale: bool,
}

impl SocialModel {
    /// Assembles a model from already-computed parts — the back door used
    /// by the incremental learner ([`crate::online::IncrementalLearner`]),
    /// which maintains the statistics itself across days. `stale` marks a
    /// model whose ingested history is shorter than the configured
    /// look-back window.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        pair_probability: PairTable<f64>,
        user_type: HashMap<UserId, usize>,
        type_matrix: TypeMatrix,
        centroids: Vec<AppMix>,
        demand: HashMap<UserId, BitsPerSec>,
        fallback_demand: BitsPerSec,
        alpha: f64,
        stale: bool,
    ) -> SocialModel {
        SocialModel {
            pair_probability,
            user_type,
            type_matrix,
            centroids,
            demand,
            fallback_demand,
            alpha,
            stale,
        }
    }

    /// Estimates the type matrix from assignments and pair probabilities —
    /// exposed within the crate for the incremental learner.
    pub(crate) fn type_matrix_from(
        k: usize,
        user_type: &HashMap<UserId, usize>,
        pair_probability: &PairTable<f64>,
    ) -> TypeMatrix {
        Self::estimate_type_matrix(k, user_type, pair_probability)
    }

    /// Learns the model from `store` under `config`. `seed` drives the
    /// clustering; identical inputs give identical models.
    ///
    /// Degenerate inputs degrade gracefully: an empty store yields a model
    /// whose `delta` is identically zero (S³ then behaves like LLF).
    pub fn learn(store: &TraceStore, config: &S3Config, seed: u64) -> SocialModel {
        config.validate();
        let registry = s3_obs::global();
        let _span = registry.timer(&LEARN_MICROS);
        let threads = config.effective_threads();
        let pair_probability = {
            let _span = registry.timer(&PAIRS_MICROS);
            let encounters = extract_encounters_par(store, config.encounter_min_overlap, threads);
            let coleavings = extract_coleavings_par(store, config.coleave_window, threads);
            coleave_given_encounter(&encounters, &coleavings)
        };

        let last_day = store.day_range().map(|(_, last)| last).unwrap_or(0);
        let (user_type, centroids) = {
            let _span = registry.timer(&CLUSTER_MICROS);
            let profiles = all_window_profiles(store, last_day, config.lookback_days);
            Self::cluster_users(store, &profiles, last_day, config, seed)
        };
        let k = centroids.len();
        let type_matrix = {
            let _span = registry.timer(&TYPE_MATRIX_MICROS);
            Self::estimate_type_matrix(k, &user_type, &pair_probability)
        };

        let demand = demand_estimates(store, config.demand_ewma);
        let fallback_demand = median_demand(&demand);

        registry.counter(&LEARNS).inc();
        registry
            .counter(&KNOWN_PAIRS)
            .add(pair_probability.len() as u64);
        registry.counter(&TYPES).add(k as u64);

        SocialModel {
            pair_probability,
            user_type,
            type_matrix,
            centroids,
            demand,
            fallback_demand,
            alpha: config.alpha,
            // Batch learning sees whatever history the caller chose to
            // train on; only the incremental path tracks ingested days
            // against the look-back window.
            stale: false,
        }
    }

    fn cluster_users(
        store: &TraceStore,
        profiles: &HashMap<UserId, AppMix>,
        last_day: u64,
        config: &S3Config,
        seed: u64,
    ) -> (HashMap<UserId, usize>, Vec<AppMix>) {
        let mut users: Vec<UserId> = profiles.keys().copied().collect();
        users.sort_unstable();
        let points: Vec<Vec<f64>> = if config.temporal_features {
            // Future-work variant: application shares ⊕ hour-of-day shares.
            let features: Vec<(UserId, Vec<f64>)> = users
                .iter()
                .filter_map(|&u| {
                    crate::profile::combined_features(store, u, last_day, config.lookback_days)
                        .map(|f| (u, f))
                })
                .collect();
            users = features.iter().map(|&(u, _)| u).collect();
            features.into_iter().map(|(_, f)| f).collect()
        } else {
            users
                .iter()
                .map(|u| profiles[u].shares().to_vec())
                .collect()
        };
        if points.len() < 2 {
            return (HashMap::new(), Vec::new());
        }
        let threads = config.effective_threads();
        let k = match config.fixed_k {
            Some(k) => k.min(points.len()),
            None => {
                let k_max = config.k_max.min(points.len());
                // The gap statistic fans its independent fits across the
                // workers; its inner k-means runs stay sequential so the
                // pool is not oversubscribed.
                let gap_config = GapConfig {
                    threads,
                    ..GapConfig::default()
                };
                match gap_statistic(&points, k_max, &gap_config, seed) {
                    Ok(result) => result.chosen_k,
                    Err(_) => return (HashMap::new(), Vec::new()),
                }
            }
        };
        let kmeans_config = KMeansConfig {
            threads,
            ..KMeansConfig::default()
        };
        let Ok(fit) = kmeans::fit(&points, k, &kmeans_config, seed) else {
            return (HashMap::new(), Vec::new());
        };
        let assignments: HashMap<UserId, usize> = users
            .iter()
            .zip(&fit.assignments)
            .map(|(&u, &a)| (u, a))
            .collect();
        // With temporal features the centroid has 14 dimensions; the
        // reported AppMix keeps the application block (zip truncates) and
        // renormalizes it.
        let centroids: Vec<AppMix> = fit
            .centroids
            .iter()
            .map(|c| {
                let mut arr = [0.0; s3_types::APP_CATEGORY_COUNT];
                for (slot, &x) in arr.iter_mut().zip(c) {
                    *slot = x.max(0.0);
                }
                AppMix::from_volumes(arr).unwrap_or_default()
            })
            .collect();
        (assignments, centroids)
    }

    fn estimate_type_matrix(
        k: usize,
        user_type: &HashMap<UserId, usize>,
        pair_probability: &PairTable<f64>,
    ) -> TypeMatrix {
        let mut matrix = TypeMatrix::zeros(k);
        if k == 0 {
            return matrix;
        }
        // The cell sums are exact: each probability (in [0, 1]) becomes a
        // 2⁶⁴-scaled integer, truncated, and integer addition does not
        // depend on order, so no source order of the pairs can change a
        // bit. The truncation loses less than 2⁻⁶⁴ per pair.
        const ONE: f64 = 18_446_744_073_709_551_616.0; // 2⁶⁴
        let mut sums = vec![0u128; k * k];
        let mut counts = vec![0u32; k * k];
        for &(pair, p) in pair_probability.iter() {
            let (Some(&ti), Some(&tj)) = (user_type.get(&pair.0), user_type.get(&pair.1)) else {
                continue;
            };
            let fixed = (p * ONE) as u128;
            sums[ti * k + tj] += fixed;
            counts[ti * k + tj] += 1;
            if ti != tj {
                sums[tj * k + ti] += fixed;
                counts[tj * k + ti] += 1;
            }
        }
        for i in 0..k {
            for j in i..k {
                let idx = i * k + j;
                if counts[idx] > 0 {
                    matrix.set(i, j, sums[idx] as f64 / ONE / counts[idx] as f64);
                }
            }
        }
        matrix
    }

    /// The full learned pair-probability table, sorted by pair — the input
    /// the compiled data plane freezes into CSR form
    /// ([`crate::CompiledModel`]).
    pub fn pair_probabilities(&self) -> &PairTable<f64> {
        &self.pair_probability
    }

    /// The full user → type assignment map.
    pub fn user_types(&self) -> &HashMap<UserId, usize> {
        &self.user_type
    }

    /// The full user → demand-estimate map.
    pub fn demands(&self) -> &HashMap<UserId, BitsPerSec> {
        &self.demand
    }

    /// The population-median fallback demand for unseen users.
    pub(crate) fn fallback_demand(&self) -> BitsPerSec {
        self.fallback_demand
    }

    /// The social relation index
    /// `δ(u,v) = P(L(u,v)|E(u,v)) + α·T(type_u, type_v)`.
    ///
    /// Unknown pairs contribute only the type term; users without a type
    /// contribute only the pair term; both unknown → 0 (no relation).
    pub fn delta(&self, u: UserId, v: UserId) -> f64 {
        let Some(pair) = UserPair::new(u, v) else {
            return 0.0;
        };
        let pair_term = self.pair_probability.get(&pair).unwrap_or(0.0);
        let type_term = match (self.user_type.get(&u), self.user_type.get(&v)) {
            (Some(&ti), Some(&tj)) => self.type_matrix.get(ti, tj),
            _ => 0.0,
        };
        pair_term + self.alpha * type_term
    }

    /// The learned type of `user`, if any.
    pub fn user_type(&self, user: UserId) -> Option<usize> {
        self.user_type.get(&user).copied()
    }

    /// Number of learned types (0 when clustering was impossible).
    pub fn type_count(&self) -> usize {
        self.type_matrix.k()
    }

    /// The learned type matrix (Table I).
    pub fn type_matrix(&self) -> &TypeMatrix {
        &self.type_matrix
    }

    /// Cluster centroids in realm space (Fig. 8).
    pub fn centroids(&self) -> &[AppMix] {
        &self.centroids
    }

    /// Number of pairs with a learned `P(L|E)`.
    pub fn known_pairs(&self) -> usize {
        self.pair_probability.len()
    }

    /// The demand estimate `w(user)`, falling back to the population
    /// median for unseen users.
    pub fn estimated_demand(&self, user: UserId) -> BitsPerSec {
        self.demand
            .get(&user)
            .copied()
            .unwrap_or(self.fallback_demand)
    }

    /// The α this model applies in [`SocialModel::delta`].
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether the producer marked the model under-trained: the
    /// incremental learner sets this when it has ingested fewer days than
    /// the configured look-back window. A stale model scores pairs from a
    /// partial history, which can systematically mis-rank cliques — the
    /// selector falls back to LLF instead of trusting it
    /// (see [`crate::S3Selector`]).
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// True when the model cannot distinguish any user pair: no pair has a
    /// learned `P(L|E)`, so the pair term is zero everywhere — and the type
    /// matrix, being estimated from those very pair probabilities, is
    /// all-zero too. `delta` is identically zero and social scoring would
    /// silently degenerate; the selector short-circuits to LLF.
    pub fn is_trivial(&self) -> bool {
        self.pair_probability.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_trace::SessionRecord;
    use s3_types::{ApId, AppCategory, Bytes, ControllerId, Timestamp};

    /// Builds a store where users 1,2 co-leave repeatedly (same AP) and
    /// user 3 is unrelated, with distinct app mixes.
    fn social_store() -> TraceStore {
        let mut records = Vec::new();
        let mk = |user: u32, ap: u32, start: u64, end: u64, cat: AppCategory| {
            let mut volume_by_app = [Bytes::ZERO; 6];
            volume_by_app[cat.index()] = Bytes::megabytes(10);
            SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(ap),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(start),
                disconnect: Timestamp::from_secs(end),
                volume_by_app,
            }
        };
        for day in 0..10u64 {
            let base = day * 86_400 + 10 * 3_600;
            // Users 1 and 2: two hours together, leave within a minute.
            records.push(mk(1, 0, base, base + 7_200, AppCategory::P2p));
            records.push(mk(2, 0, base + 60, base + 7_230, AppCategory::P2p));
            // User 3: present on another AP, leaves hours later.
            records.push(mk(3, 1, base, base + 20_000, AppCategory::Email));
            // User 4: shares AP 0 with 1 and 2 but leaves much later.
            records.push(mk(4, 0, base, base + 15_000, AppCategory::WebBrowsing));
        }
        TraceStore::new(records)
    }

    fn config() -> S3Config {
        S3Config {
            fixed_k: Some(2),
            ..S3Config::default()
        }
    }

    #[test]
    fn coleaving_pair_has_high_delta() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        let d12 = model.delta(UserId::new(1), UserId::new(2));
        let d14 = model.delta(UserId::new(1), UserId::new(4));
        assert!(d12 > 0.9, "repeat co-leavers should be near 1, got {d12}");
        assert!(d12 > d14, "co-leavers must outrank co-locators");
    }

    #[test]
    fn delta_is_symmetric() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        for (a, b) in [(1u32, 2u32), (1, 3), (2, 4)] {
            let ab = model.delta(UserId::new(a), UserId::new(b));
            let ba = model.delta(UserId::new(b), UserId::new(a));
            assert!((ab - ba).abs() < 1e-12);
        }
    }

    #[test]
    fn delta_of_self_is_zero() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        assert_eq!(model.delta(UserId::new(1), UserId::new(1)), 0.0);
    }

    #[test]
    fn unknown_users_fall_back_to_zero() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        assert_eq!(model.delta(UserId::new(100), UserId::new(101)), 0.0);
    }

    #[test]
    fn empty_store_gives_trivial_model() {
        let model = SocialModel::learn(&TraceStore::new(vec![]), &config(), 1);
        assert_eq!(model.type_count(), 0);
        assert_eq!(model.known_pairs(), 0);
        assert_eq!(model.delta(UserId::new(1), UserId::new(2)), 0.0);
        assert_eq!(model.estimated_demand(UserId::new(1)), BitsPerSec::ZERO);
        assert!(model.is_trivial());
    }

    #[test]
    fn batch_learning_never_marks_stale() {
        // Staleness is a property of the incremental path's ingested-days
        // counter; a batch model trained on a short window is simply what
        // the caller asked for.
        let model = SocialModel::learn(&social_store(), &config(), 1);
        assert!(!model.is_stale());
        assert!(!model.is_trivial());
        let empty = SocialModel::learn(&TraceStore::new(vec![]), &config(), 1);
        assert!(!empty.is_stale());
    }

    #[test]
    fn clustering_separates_profiles() {
        // Six P2P-dominant users and six e-mail-dominant users with solo
        // sessions: unambiguous two-cluster structure.
        let mk = |user: u32, ap: u32, day: u64, cat: AppCategory| {
            let mut volume_by_app = [Bytes::ZERO; 6];
            volume_by_app[cat.index()] = Bytes::megabytes(10);
            let base = day * 86_400 + 10 * 3_600 + user as u64 * 3_600;
            SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(ap),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(base),
                disconnect: Timestamp::from_secs(base + 1_800),
                volume_by_app,
            }
        };
        let mut records = Vec::new();
        for day in 0..3u64 {
            for u in 0..6u32 {
                records.push(mk(u, u % 3, day, AppCategory::P2p));
                records.push(mk(u + 6, 3 + u % 3, day, AppCategory::Email));
            }
        }
        let model = SocialModel::learn(&TraceStore::new(records), &config(), 3);
        let t0 = model.user_type(UserId::new(0)).unwrap();
        let t6 = model.user_type(UserId::new(6)).unwrap();
        assert_ne!(t0, t6, "P2P and e-mail users must be in different clusters");
        for u in 0..6u32 {
            assert_eq!(model.user_type(UserId::new(u)), Some(t0));
            assert_eq!(model.user_type(UserId::new(u + 6)), Some(t6));
        }
        assert_eq!(model.centroids().len(), 2);
    }

    #[test]
    fn demand_estimates_are_positive_for_active_users() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        assert!(model.estimated_demand(UserId::new(1)).as_f64() > 0.0);
        // Unseen user gets the median fallback, also positive here.
        assert!(model.estimated_demand(UserId::new(999)).as_f64() > 0.0);
    }

    #[test]
    fn type_matrix_shape_and_symmetry() {
        let model = SocialModel::learn(&social_store(), &config(), 1);
        let m = model.type_matrix();
        assert_eq!(m.k(), 2);
        for i in 0..2 {
            for j in 0..2 {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
                assert!(m.get(i, j) >= 0.0 && m.get(i, j) <= 1.0);
            }
        }
    }

    #[test]
    fn learning_is_deterministic() {
        let a = SocialModel::learn(&social_store(), &config(), 9);
        let b = SocialModel::learn(&social_store(), &config(), 9);
        assert_eq!(
            a.delta(UserId::new(1), UserId::new(2)),
            b.delta(UserId::new(1), UserId::new(2))
        );
        assert_eq!(a.type_count(), b.type_count());
    }

    #[test]
    fn temporal_features_separate_cotemporal_users() {
        // Four users, all pure web-browsing: two morning people, two night
        // people. Application-only clustering cannot split them; temporal
        // features can.
        let mk = |user: u32, day: u64, hour: u64| {
            let start = day * 86_400 + hour * 3_600;
            let mut volume_by_app = [Bytes::ZERO; 6];
            volume_by_app[AppCategory::WebBrowsing.index()] = Bytes::megabytes(10);
            SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(user % 2),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(start),
                disconnect: Timestamp::from_secs(start + 1_800),
                volume_by_app,
            }
        };
        let mut records = Vec::new();
        for day in 0..5 {
            records.push(mk(1, day, 9));
            records.push(mk(2, day, 9));
            records.push(mk(3, day, 22));
            records.push(mk(4, day, 22));
        }
        let store = TraceStore::new(records);
        let temporal_config = S3Config {
            fixed_k: Some(2),
            temporal_features: true,
            ..S3Config::default()
        };
        let model = SocialModel::learn(&store, &temporal_config, 3);
        let t1 = model.user_type(UserId::new(1)).unwrap();
        let t2 = model.user_type(UserId::new(2)).unwrap();
        let t3 = model.user_type(UserId::new(3)).unwrap();
        let t4 = model.user_type(UserId::new(4)).unwrap();
        assert_eq!(t1, t2, "morning pair together");
        assert_eq!(t3, t4, "night pair together");
        assert_ne!(t1, t3, "temporal features must split the day shifts");
    }

    #[test]
    fn type_matrix_is_independent_of_map_order() {
        // Many pairs per type cell with values of mixed magnitude, so a
        // different summation order would show in the last bits; tables
        // collected in opposite orders must give the same matrix.
        let pairs: Vec<(UserPair, f64)> = (0..40u32)
            .flat_map(|a| ((a + 1)..40).map(move |b| (a, b)))
            .map(|(a, b)| {
                let x = f64::from(a * 7_919 + b * 104_729) * 0.618_033_988_749_895;
                let p = (x - x.floor()) * 10f64.powi(-(((a + b) % 9) as i32));
                (UserPair::new(UserId::new(a), UserId::new(b)).unwrap(), p)
            })
            .collect();
        let user_type: HashMap<UserId, usize> = (0..40u32)
            .map(|u| (UserId::new(u), (u % 3) as usize))
            .collect();
        let forward: PairTable<f64> = pairs.iter().copied().collect();
        let backward: PairTable<f64> = pairs.iter().rev().copied().collect();
        let a = SocialModel::type_matrix_from(3, &user_type, &forward);
        let b = SocialModel::type_matrix_from(3, &user_type, &backward);
        let bits = |m: &TypeMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn type_matrix_helpers() {
        let mut m = TypeMatrix::zeros(3);
        m.set(0, 0, 0.6);
        m.set(1, 1, 0.5);
        m.set(2, 2, 0.7);
        m.set(0, 1, 0.2);
        m.set(0, 2, 0.1);
        m.set(1, 2, 0.3);
        assert!((m.diagonal_mean() - 0.6).abs() < 1e-12);
        assert!((m.off_diagonal_mean() - 0.2).abs() < 1e-12);
        assert!(m.diagonal_mean() > m.off_diagonal_mean());
        assert_eq!(TypeMatrix::zeros(0).diagonal_mean(), 0.0);
        assert_eq!(TypeMatrix::zeros(1).off_diagonal_mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "type index out of range")]
    fn type_matrix_bounds() {
        TypeMatrix::zeros(2).get(2, 0);
    }
}
