//! Encounter and co-leaving event mining (Section III-D1).
//!
//! * An **encounter** is a pair of users holding sessions on the same AP
//!   whose presence intervals overlap for at least a dwell threshold.
//! * A **co-leaving** is a pair of users leaving the same AP within a short
//!   extraction window (the paper studies windows from 1 to 30 minutes and
//!   settles on 5 minutes for S³).
//!
//! Both extractors return per-pair counts; aggregating multiple common
//! events per pair is the paper's noise-suppression step against "fake"
//! social relationships.
//!
//! Per-pair results are [`PairTable`]s: sorted, duplicate-free vectors. The
//! per-AP scans emit one canonical pair key per event; one sort of the
//! concatenated keys and a run-length count turn them into counts. No
//! table depends on hashing, and every consumer walks the pairs in order.

use std::collections::HashMap;

use s3_obs::{Desc, HistogramDesc, Stability, Unit};
use s3_types::{ApId, TimeDelta, UserId};

use crate::{SessionRecord, TraceStore};

// Event-mining metrics (documented in docs/METRICS.md). Per-shard tallies
// are accumulated locally inside each worker closure and added to the
// counter once per AP group; each group is scanned by exactly one worker,
// so totals are identical for every thread count.
static SESSIONS_SHARDED: Desc = Desc {
    name: "trace.events.sessions_sharded",
    help: "Session records distributed into per-AP shards for event mining",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static AP_SHARDS: Desc = Desc {
    name: "trace.events.ap_shards",
    help: "Per-AP shards built for event mining scans",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ENCOUNTER_PAIRS_SCANNED: Desc = Desc {
    name: "trace.events.encounter_pairs_scanned",
    help: "Session pairs examined by the encounter extractor",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ENCOUNTERS_FOUND: Desc = Desc {
    name: "trace.events.encounters_found",
    help: "Encounter events found (overlap at least the dwell threshold)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static COLEAVING_PAIRS_SCANNED: Desc = Desc {
    name: "trace.events.coleaving_pairs_scanned",
    help: "Departure pairs examined by the co-leaving extractor",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static COLEAVINGS_FOUND: Desc = Desc {
    name: "trace.events.coleavings_found",
    help: "Co-leaving events found (departures within the extraction window)",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static LEAVINGS_SCANNED: Desc = Desc {
    name: "trace.events.leavings_scanned",
    help: "Departures examined by the per-user leaving-statistics scan",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static MINE_MICROS: HistogramDesc = HistogramDesc {
    name: "trace.events.mine_micros",
    help: "Wall-clock duration of each event-mining pass",
    unit: Unit::Micros,
    stability: Stability::Volatile,
    bounds: &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
};

/// Projects every record with `project`, groups the projections per AP by
/// one sort of `(ap, projection)` and runs `scan` on each AP's group over
/// `threads` workers, in [`ApId`] order. Each group is sorted, and the
/// group list depends only on the store, so the results are the same for
/// every thread count — every extractor below starts from this shape.
fn scan_ap_groups<T, R, P, S>(store: &TraceStore, threads: usize, project: P, scan: S) -> Vec<R>
where
    T: Ord + Sync,
    R: Send,
    P: Fn(&SessionRecord) -> T,
    S: Fn(&[(ApId, T)]) -> R + Sync,
{
    let mut entries: Vec<(ApId, T)> = store.records().iter().map(|r| (r.ap, project(r))).collect();
    entries.sort_unstable();
    let groups: Vec<&[(ApId, T)]> = entries.chunk_by(|a, b| a.0 == b.0).collect();
    let registry = s3_obs::global();
    registry.counter(&AP_SHARDS).add(groups.len() as u64);
    registry
        .counter(&SESSIONS_SHARDED)
        .add(entries.len() as u64);
    s3_par::par_map(&groups, threads, |_, group| scan(group))
}

/// An unordered user pair, stored canonically (smaller id first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserPair(pub UserId, pub UserId);

impl UserPair {
    /// Builds the canonical pair; `None` when `a == b` (no self-pairs).
    pub fn new(a: UserId, b: UserId) -> Option<UserPair> {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => Some(UserPair(a, b)),
            std::cmp::Ordering::Greater => Some(UserPair(b, a)),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// True when `user` is one of the two members.
    pub fn contains(&self, user: UserId) -> bool {
        self.0 == user || self.1 == user
    }

    /// The pair as one `u64`, first member in the high half: keys order
    /// exactly as pairs do.
    fn key(self) -> u64 {
        (u64::from(self.0.raw()) << 32) | u64::from(self.1.raw())
    }

    fn from_key(key: u64) -> UserPair {
        UserPair(UserId::new((key >> 32) as u32), UserId::new(key as u32))
    }
}

/// Per-pair values sorted by [`UserPair`], one entry per pair.
///
/// The miners return [`PairCounts`]; [`coleave_given_encounter`] joins two
/// of them into the `P(L|E)` table the learner keeps. A lookup is a binary
/// search and iteration runs in pair order, so nothing read from a table
/// depends on hashing.
#[derive(Debug, Clone, PartialEq)]
pub struct PairTable<V> {
    entries: Vec<(UserPair, V)>,
}

/// Per-pair event counts.
pub type PairCounts = PairTable<u32>;

impl<V> Default for PairTable<V> {
    fn default() -> Self {
        PairTable {
            entries: Vec::new(),
        }
    }
}

impl<V: Copy> PairTable<V> {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no pair.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value of `pair`, by binary search.
    pub fn get(&self, pair: &UserPair) -> Option<V> {
        self.entries
            .binary_search_by(|(p, _)| p.cmp(pair))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// True when `pair` has an entry.
    pub fn contains_key(&self, pair: &UserPair) -> bool {
        self.get(pair).is_some()
    }

    /// The entries, strictly increasing by pair.
    pub fn entries(&self) -> &[(UserPair, V)] {
        &self.entries
    }

    /// Iterates the entries in pair order.
    pub fn iter(&self) -> std::slice::Iter<'_, (UserPair, V)> {
        self.entries.iter()
    }
}

/// Collects entries in any order.
///
/// # Panics
///
/// Panics when a pair occurs twice.
impl<V> FromIterator<(UserPair, V)> for PairTable<V> {
    fn from_iter<I: IntoIterator<Item = (UserPair, V)>>(iter: I) -> Self {
        let mut entries: Vec<(UserPair, V)> = iter.into_iter().collect();
        entries.sort_unstable_by_key(|&(pair, _)| pair);
        assert!(
            entries.windows(2).all(|w| w[0].0 != w[1].0),
            "a pair table holds each pair once"
        );
        PairTable { entries }
    }
}

impl PairCounts {
    /// Sorts canonical pair keys and counts each run. A run longer than
    /// `u32::MAX` saturates instead of wrapping, so a pathological trace —
    /// billions of events on one pair — cannot wrap in release or panic
    /// in debug.
    fn count_keys(mut keys: Vec<u64>) -> PairCounts {
        keys.sort_unstable();
        let mut entries = Vec::with_capacity(keys.chunk_by(|a, b| a == b).count());
        entries.extend(keys.chunk_by(|a, b| a == b).map(|run| {
            let count = u32::try_from(run.len()).unwrap_or(u32::MAX);
            (UserPair::from_key(run[0]), count)
        }));
        PairTable { entries }
    }

    /// The pairwise sum of two count tables, by one sorted merge with
    /// saturating adds. Saturating addition is commutative and associative,
    /// so a running total does not depend on the order of its parts.
    pub fn merge_saturating(&self, other: &PairCounts) -> PairCounts {
        let (a, b) = (&self.entries, &other.entries);
        let mut entries = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    entries.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    entries.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    entries.push((a[i].0, a[i].1.saturating_add(b[j].1)));
                    i += 1;
                    j += 1;
                }
            }
        }
        entries.extend_from_slice(&a[i..]);
        entries.extend_from_slice(&b[j..]);
        PairTable { entries }
    }
}

/// Per-pair encounter counts over the whole store.
///
/// Two sessions on the same AP encounter when their overlap lasts at least
/// `min_overlap`. Multiple overlapping session pairs of the same user pair
/// each count (they are distinct common events).
///
/// Presence intervals are **half-open** `[connect, disconnect)`: sessions
/// that merely touch (`b.connect == a.disconnect`) share no instant and
/// never encounter, even at `min_overlap == 0`.
pub fn extract_encounters(store: &TraceStore, min_overlap: TimeDelta) -> PairCounts {
    extract_encounters_par(store, min_overlap, 1)
}

/// [`extract_encounters`] with the per-AP scans sharded over `threads`
/// workers. Each AP's pair scan is independent and the keys are sorted
/// before counting, so the counts are the same for any thread count.
pub fn extract_encounters_par(
    store: &TraceStore,
    min_overlap: TimeDelta,
    threads: usize,
) -> PairCounts {
    let registry = s3_obs::global();
    let _span = registry.timer(&MINE_MICROS);
    let scanned = registry.counter(&ENCOUNTER_PAIRS_SCANNED);
    let found = registry.counter(&ENCOUNTERS_FOUND);
    // Session lists per AP are small relative to the whole trace, keeping
    // the per-AP near-quadratic pair scan cheap.
    let shards = scan_ap_groups(
        store,
        threads,
        |r| (r.connect, r.disconnect, r.user),
        |sessions| {
            let mut keys = Vec::new();
            let mut pairs_scanned = 0u64;
            for (i, &(_, (a_start, a_end, a_user))) in sessions.iter().enumerate() {
                for &(_, (b_start, b_end, b_user)) in &sessions[i + 1..] {
                    if b_start >= a_end {
                        break; // sorted by start; no later session can overlap
                    }
                    pairs_scanned += 1;
                    let overlap_start = a_start.max(b_start);
                    let overlap_end = a_end.min(b_end);
                    if overlap_end.saturating_sub(overlap_start) >= min_overlap {
                        if let Some(pair) = UserPair::new(a_user, b_user) {
                            keys.push(pair.key());
                        }
                    }
                }
            }
            scanned.add(pairs_scanned);
            found.add(keys.len() as u64);
            keys
        },
    );
    PairCounts::count_keys(shards.concat())
}

/// Per-pair co-leaving counts: both users disconnect from the same AP
/// within `window` of each other.
pub fn extract_coleavings(store: &TraceStore, window: TimeDelta) -> PairCounts {
    extract_coleavings_par(store, window, 1)
}

/// [`extract_coleavings`] with the per-AP scans sharded over `threads`
/// workers.
pub fn extract_coleavings_par(store: &TraceStore, window: TimeDelta, threads: usize) -> PairCounts {
    let registry = s3_obs::global();
    let _span = registry.timer(&MINE_MICROS);
    let scanned = registry.counter(&COLEAVING_PAIRS_SCANNED);
    let found = registry.counter(&COLEAVINGS_FOUND);
    let shards = scan_ap_groups(
        store,
        threads,
        |r| (r.disconnect, r.user),
        |departures| {
            let mut keys = Vec::new();
            let mut pairs_scanned = 0u64;
            for (i, &(_, (t_a, user_a))) in departures.iter().enumerate() {
                for &(_, (t_b, user_b)) in &departures[i + 1..] {
                    if t_b.saturating_sub(t_a) > window {
                        break;
                    }
                    pairs_scanned += 1;
                    if let Some(pair) = UserPair::new(user_a, user_b) {
                        keys.push(pair.key());
                    }
                }
            }
            scanned.add(pairs_scanned);
            found.add(keys.len() as u64);
            keys
        },
    );
    PairCounts::count_keys(shards.concat())
}

/// Per-user leaving statistics for Fig. 5: how many of a user's leavings
/// were co-leavings (another user left the same AP within `window`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LeavingStats {
    /// Total departures of the user.
    pub total: u32,
    /// Departures shared with at least one other user.
    pub co_leavings: u32,
}

impl LeavingStats {
    /// Fraction of leavings that were co-leavings (0 for users who never
    /// left — they contribute nothing to the CDF).
    pub fn co_leaving_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.co_leavings as f64 / self.total as f64
        }
    }
}

/// Computes [`LeavingStats`] for every user in the store.
pub fn leaving_stats(store: &TraceStore, window: TimeDelta) -> HashMap<UserId, LeavingStats> {
    leaving_stats_par(store, window, 1)
}

/// [`leaving_stats`] with the per-AP scans sharded over `threads` workers.
/// Per-user totals merge by `u32` addition, so the result is independent of
/// the thread count.
pub fn leaving_stats_par(
    store: &TraceStore,
    window: TimeDelta,
    threads: usize,
) -> HashMap<UserId, LeavingStats> {
    let registry = s3_obs::global();
    let _span = registry.timer(&MINE_MICROS);
    let leavings = registry.counter(&LEAVINGS_SCANNED);
    let shards = scan_ap_groups(
        store,
        threads,
        |r| (r.disconnect, r.user),
        |departures| {
            leavings.add(departures.len() as u64);
            let mut stats: HashMap<UserId, LeavingStats> = HashMap::new();
            for (i, &(_, (t, user))) in departures.iter().enumerate() {
                let entry = stats.entry(user).or_default();
                entry.total = entry.total.saturating_add(1);
                // Shared with anyone within the window on either side?
                let mut shared = false;
                for &(_, (t2, user2)) in departures[i + 1..].iter() {
                    if t2.saturating_sub(t) > window {
                        break;
                    }
                    if user2 != user {
                        shared = true;
                        break;
                    }
                }
                if !shared {
                    for &(_, (t2, user2)) in departures[..i].iter().rev() {
                        if t.saturating_sub(t2) > window {
                            break;
                        }
                        if user2 != user {
                            shared = true;
                            break;
                        }
                    }
                }
                if shared {
                    entry.co_leavings = entry.co_leavings.saturating_add(1);
                }
            }
            stats
        },
    );
    let mut iter = shards.into_iter();
    let mut out = iter.next().unwrap_or_default();
    for shard in iter {
        for (user, s) in shard {
            let entry = out.entry(user).or_default();
            entry.total = entry.total.saturating_add(s.total);
            entry.co_leavings = entry.co_leavings.saturating_add(s.co_leavings);
        }
    }
    out
}

/// The conditional probability table `P(co-leave | encounter)` per pair —
/// the first term of the paper's social relation index δ. Pairs that never
/// encountered are absent (the δ formula falls back to the type matrix).
pub fn coleave_given_encounter(encounters: &PairCounts, coleavings: &PairCounts) -> PairTable<f64> {
    let mut coleft = coleavings.entries.iter().peekable();
    let mut entries = Vec::with_capacity(encounters.len());
    for &(pair, enc) in &encounters.entries {
        if enc == 0 {
            continue;
        }
        // A merge-join: both tables are sorted by pair.
        while coleft.next_if(|(p, _)| *p < pair).is_some() {}
        let co = coleft.next_if(|(p, _)| *p == pair).map_or(0, |&(_, c)| c);
        // A pair can in principle co-leave more often than it "encounters"
        // (short joint visits below the dwell threshold); clamp to 1.
        entries.push((pair, (co as f64 / enc as f64).min(1.0)));
    }
    PairTable { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::concentrated_volumes;
    use crate::SessionRecord;
    use s3_types::{ApId, AppCategory, Bytes, ControllerId, Timestamp};

    fn rec(user: u32, ap: u32, connect: u64, disconnect: u64) -> SessionRecord {
        SessionRecord {
            user: UserId::new(user),
            ap: ApId::new(ap),
            controller: ControllerId::new(0),
            connect: Timestamp::from_secs(connect),
            disconnect: Timestamp::from_secs(disconnect),
            volume_by_app: concentrated_volumes(AppCategory::Im, Bytes::new(1000)),
        }
    }

    #[test]
    fn user_pair_canonical() {
        let p = UserPair::new(UserId::new(5), UserId::new(2)).unwrap();
        assert_eq!(p, UserPair(UserId::new(2), UserId::new(5)));
        assert!(p.contains(UserId::new(5)));
        assert!(!p.contains(UserId::new(3)));
        assert!(UserPair::new(UserId::new(1), UserId::new(1)).is_none());
    }

    #[test]
    fn encounters_require_overlap_threshold() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 1000),
            rec(2, 0, 500, 2000), // 500 s overlap with user 1
            rec(3, 0, 990, 3000), // 10 s overlap with user 1
        ]);
        let enc = extract_encounters(&store, TimeDelta::secs(300));
        let p12 = UserPair::new(UserId::new(1), UserId::new(2)).unwrap();
        let p13 = UserPair::new(UserId::new(1), UserId::new(3)).unwrap();
        let p23 = UserPair::new(UserId::new(2), UserId::new(3)).unwrap();
        assert_eq!(enc.get(&p12), Some(1));
        assert_eq!(enc.get(&p13), None, "10s overlap is below threshold");
        assert_eq!(enc.get(&p23), Some(1), "1010s overlap counts");
    }

    #[test]
    fn touching_sessions_never_encounter_even_at_zero_overlap() {
        // Presence intervals are half-open [connect, disconnect): a session
        // starting exactly when another ends shares no instant with it.
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(2, 0, 1000, 2000)]);
        let enc = extract_encounters(&store, TimeDelta::secs(0));
        assert!(enc.is_empty(), "touching intervals must not encounter");
        // One shared second does count at min_overlap == 0.
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(2, 0, 999, 2000)]);
        let enc = extract_encounters(&store, TimeDelta::secs(0));
        let p = UserPair::new(UserId::new(1), UserId::new(2)).unwrap();
        assert_eq!(enc.get(&p), Some(1));
    }

    #[test]
    fn pair_counts_saturate_instead_of_wrapping() {
        let p = UserPair::new(UserId::new(1), UserId::new(2)).unwrap();
        let a: PairCounts = [(p, u32::MAX - 1)].into_iter().collect();
        let b: PairCounts = [(p, 5)].into_iter().collect();
        assert_eq!(
            a.merge_saturating(&b).get(&p),
            Some(u32::MAX),
            "merge must clamp, not wrap"
        );
        assert_eq!(b.merge_saturating(&a).get(&p), Some(u32::MAX));
    }

    #[test]
    fn key_counting_and_merging_keep_pair_order() {
        let pair = |a: u32, b: u32| UserPair::new(UserId::new(a), UserId::new(b)).unwrap();
        let keys = [
            pair(3, 9),
            pair(1, u32::MAX),
            pair(3, 9),
            pair(0, 7),
            pair(3, 9),
        ];
        let counts = PairCounts::count_keys(keys.iter().map(|p| p.key()).collect());
        let expected = [(pair(0, 7), 1), (pair(1, u32::MAX), 1), (pair(3, 9), 3)];
        assert_eq!(counts.entries(), &expected[..]);
        let other: PairCounts = [(pair(2, 4), 2), (pair(3, 9), 1)].into_iter().collect();
        let merged = counts.merge_saturating(&other);
        let expected = [
            (pair(0, 7), 1),
            (pair(1, u32::MAX), 1),
            (pair(2, 4), 2),
            (pair(3, 9), 4),
        ];
        assert_eq!(merged.entries(), &expected[..]);
        assert_eq!(merged, other.merge_saturating(&counts));
        assert_eq!(PairCounts::default().merge_saturating(&other), other);
    }

    #[test]
    #[should_panic(expected = "each pair once")]
    fn pair_table_rejects_duplicate_pairs() {
        let p = UserPair::new(UserId::new(1), UserId::new(2)).unwrap();
        let _: PairCounts = [(p, 1), (p, 2)].into_iter().collect();
    }

    #[test]
    fn encounters_on_different_aps_do_not_count() {
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(2, 1, 0, 1000)]);
        let enc = extract_encounters(&store, TimeDelta::secs(60));
        assert!(enc.is_empty());
    }

    #[test]
    fn repeated_encounters_accumulate() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 1000),
            rec(2, 0, 0, 1000),
            rec(1, 0, 5000, 6000),
            rec(2, 0, 5000, 6000),
        ]);
        let enc = extract_encounters(&store, TimeDelta::secs(60));
        let p = UserPair::new(UserId::new(1), UserId::new(2)).unwrap();
        assert_eq!(enc.get(&p), Some(2));
    }

    #[test]
    fn coleavings_respect_window() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 1000),
            rec(2, 0, 0, 1100), // 100 s after user 1
            rec(3, 0, 0, 2000), // 1000 s after user 1
        ]);
        let co = extract_coleavings(&store, TimeDelta::secs(300));
        let p12 = UserPair::new(UserId::new(1), UserId::new(2)).unwrap();
        let p13 = UserPair::new(UserId::new(1), UserId::new(3)).unwrap();
        let p23 = UserPair::new(UserId::new(2), UserId::new(3)).unwrap();
        assert_eq!(co.get(&p12), Some(1));
        assert_eq!(co.get(&p13), None);
        assert_eq!(co.get(&p23), None, "900s apart exceeds window");
    }

    #[test]
    fn coleavings_on_same_ap_only() {
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(2, 1, 0, 1000)]);
        let co = extract_coleavings(&store, TimeDelta::minutes(5));
        assert!(co.is_empty());
    }

    #[test]
    fn same_user_twice_is_not_a_pair() {
        // One user with two sessions ending together on the same AP.
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(1, 0, 100, 1010)]);
        let co = extract_coleavings(&store, TimeDelta::minutes(5));
        assert!(co.is_empty());
        let enc = extract_encounters(&store, TimeDelta::secs(60));
        assert!(enc.is_empty());
    }

    #[test]
    fn leaving_stats_fraction() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 1000),
            rec(2, 0, 0, 1050),    // co-leave with 1
            rec(1, 0, 5000, 9000), // solo leave for 1
        ]);
        let stats = leaving_stats(&store, TimeDelta::secs(300));
        let s1 = stats[&UserId::new(1)];
        assert_eq!(s1.total, 2);
        assert_eq!(s1.co_leavings, 1);
        assert!((s1.co_leaving_fraction() - 0.5).abs() < 1e-12);
        let s2 = stats[&UserId::new(2)];
        assert_eq!(s2.total, 1);
        assert_eq!(s2.co_leavings, 1);
        assert_eq!(LeavingStats::default().co_leaving_fraction(), 0.0);
    }

    #[test]
    fn leaving_stats_look_backwards_too() {
        // User 2 leaves *after* user 1: both must see the shared event.
        let store = TraceStore::new(vec![rec(1, 0, 0, 1000), rec(2, 0, 0, 1200)]);
        let stats = leaving_stats(&store, TimeDelta::secs(300));
        assert_eq!(stats[&UserId::new(1)].co_leavings, 1);
        assert_eq!(stats[&UserId::new(2)].co_leavings, 1);
    }

    #[test]
    fn conditional_probability_table() {
        let p12 = UserPair::new(UserId::new(1), UserId::new(2)).unwrap();
        let p13 = UserPair::new(UserId::new(1), UserId::new(3)).unwrap();
        let p14 = UserPair::new(UserId::new(1), UserId::new(4)).unwrap();
        let enc: PairCounts = [(p12, 4), (p13, 2)].into_iter().collect();
        // p14 co-leaves but never encountered.
        let co: PairCounts = [(p12, 2), (p14, 3)].into_iter().collect();
        let table = coleave_given_encounter(&enc, &co);
        assert!((table.get(&p12).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(table.get(&p13), Some(0.0));
        assert!(!table.contains_key(&p14));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn conditional_probability_clamps_to_one() {
        let p = UserPair::new(UserId::new(1), UserId::new(2)).unwrap();
        let enc: PairCounts = [(p, 1)].into_iter().collect();
        let co: PairCounts = [(p, 5)].into_iter().collect();
        let table = coleave_given_encounter(&enc, &co);
        assert_eq!(table.get(&p), Some(1.0));
    }
}
