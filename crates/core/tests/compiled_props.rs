//! Property tests pinning the compiled data plane to the hashed one.
//!
//! The whole point of [`CompiledModel`] is that it is a pure
//! representation change: over models learned from *arbitrary* traces —
//! including empty ones, single-user ones, and traces touching ids at the
//! very top of the `u32` range — every `delta` and `estimated_demand`
//! must be **bit-equal** (`f64::to_bits`) to the hashed [`SocialModel`],
//! for known, unknown, self, and overflow-id query pairs alike. Anything
//! weaker would let the byte-identical-CSV contract rot silently.

use proptest::prelude::*;

use s3_core::compiled::NO_USER;
use s3_core::{CompiledModel, IncrementalLearner, S3Config, S3Selector, SocialModel};
use s3_trace::{concentrated_volumes, SessionRecord, TraceStore};
use s3_types::{ApId, AppCategory, Bytes, ControllerId, Timestamp, UserId};

/// Raw user-id pool: a dense block plus ids at the top of the `u32` range,
/// so interning and CSR construction see overflow-adjacent ids.
fn user_id_strategy() -> impl Strategy<Value = u32> {
    // Values 24..30 fold onto u32::MAX - 0..=5 (the vendored proptest has
    // no `prop_oneof`; an explicit fold keeps the same id mix).
    (0u32..30).prop_map(|x| if x < 24 { x } else { u32::MAX - (x - 24) })
}

fn records_strategy() -> impl Strategy<Value = Vec<SessionRecord>> {
    prop::collection::vec(
        (
            user_id_strategy(),
            0u32..4,       // ap
            0u64..4,       // day
            0u64..7_200,   // connect offset within the day
            60u64..10_000, // duration
            0usize..6,     // dominant app realm
        ),
        0..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(user, ap, day, offset, duration, realm)| {
                let connect = day * 86_400 + 28_800 + offset;
                let mut volume_by_app = [Bytes::ZERO; 6];
                volume_by_app[realm] = Bytes::megabytes(5);
                SessionRecord {
                    user: UserId::new(user),
                    ap: ApId::new(ap),
                    controller: ControllerId::new(0),
                    connect: Timestamp::from_secs(connect),
                    disconnect: Timestamp::from_secs(connect + duration),
                    volume_by_app,
                }
            })
            .collect()
    })
}

fn config() -> S3Config {
    S3Config {
        fixed_k: Some(2),
        ..S3Config::default()
    }
}

/// Query ids: every id the trace touched, plus unknowns, plus the extremes.
fn query_ids(records: &[SessionRecord]) -> Vec<UserId> {
    let mut ids: Vec<u32> = records.iter().map(|r| r.user.raw()).collect();
    ids.extend([0, 999, 1_000_000, u32::MAX - 1, u32::MAX]);
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(UserId::new).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_bit_equals_hashed_model(records in records_strategy(), seed in 0u64..8) {
        let model = SocialModel::learn(&TraceStore::new(records.clone()), &config(), seed);
        let compiled = CompiledModel::compile(&model);
        let ids = query_ids(&records);
        for &u in &ids {
            for &v in &ids {
                // Includes self pairs (u == v) and unknown/overflow ids.
                prop_assert_eq!(
                    compiled.delta(u, v).to_bits(),
                    model.delta(u, v).to_bits(),
                    "delta({}, {}) diverged", u, v
                );
            }
        }
    }

    #[test]
    fn demand_bit_equals_hashed_model(records in records_strategy(), seed in 0u64..8) {
        let model = SocialModel::learn(&TraceStore::new(records.clone()), &config(), seed);
        let compiled = CompiledModel::compile(&model);
        for &u in &query_ids(&records) {
            prop_assert_eq!(
                compiled.estimated_demand(u).as_f64().to_bits(),
                model.estimated_demand(u).as_f64().to_bits(),
                "estimated_demand({}) diverged", u
            );
        }
    }

    #[test]
    fn slot_cost_bit_equals_member_order_sum(
        records in records_strategy(),
        members in prop::collection::vec(
            // 24..29 folds onto the unknown-id block 900..905.
            (0u32..29).prop_map(|x| if x < 24 { x } else { 900 + (x - 24) }),
            0..10,
        ),
        seed in 0u64..4,
    ) {
        let model = SocialModel::learn(&TraceStore::new(records.clone()), &config(), seed);
        let compiled = CompiledModel::compile(&model);
        let member_ids: Vec<UserId> = members.into_iter().map(UserId::new).collect();
        let mut dense = Vec::new();
        compiled.extend_dense(member_ids.iter().copied(), &mut dense);
        for &u in &query_ids(&records) {
            let hashed: f64 = member_ids.iter().map(|&w| model.delta(u, w)).sum();
            let fast = compiled.slot_cost(compiled.dense_or_unknown(u), &dense);
            prop_assert_eq!(fast.to_bits(), hashed.to_bits(), "slot cost for {}", u);
        }
    }

    #[test]
    fn scattered_cost_tables_bit_equal_per_cell_queries(
        records in records_strategy(),
        cliques in prop::collection::vec(prop::collection::vec(0u32..32, 1..6), 1..4),
        rows in prop::collection::vec(prop::collection::vec(0u32..32, 0..8), 1..5),
        seed in 0u64..4,
    ) {
        let model = SocialModel::learn(&TraceStore::new(records.clone()), &config(), seed);
        let compiled = CompiledModel::compile(&model);
        let ids = query_ids(&records);
        // Indices past the query list fold onto NO_USER, so sentinel
        // arrivals and residents appear in cliques and rows alike.
        let dense = |x: u32| {
            ids.get(x as usize).map_or(NO_USER, |&u| compiled.dense_or_unknown(u))
        };
        let members: Vec<Vec<u32>> = rows
            .iter()
            .map(|row| row.iter().map(|&x| dense(x)).collect())
            .collect();
        // One scatter row across several cliques: it must come back zeroed.
        let mut row = Vec::new();
        let (mut slot_entry, mut pair) = (Vec::new(), Vec::new());
        for clique in &cliques {
            let clique: Vec<u32> = clique.iter().map(|&x| dense(x)).collect();
            compiled.fill_cost_tables(&clique, &members, &mut row, &mut slot_entry, &mut pair);
            let (c, m) = (clique.len(), members.len());
            prop_assert_eq!(slot_entry.len(), c * m);
            prop_assert_eq!(pair.len(), c * c);
            for (i, &u) in clique.iter().enumerate() {
                for (s, slot) in members.iter().enumerate() {
                    prop_assert_eq!(
                        slot_entry[i * m + s].to_bits(),
                        compiled.slot_cost(u, slot).to_bits(),
                        "slot cost of member {} on slot {}", i, s
                    );
                }
                for (j, &v) in clique.iter().enumerate() {
                    prop_assert_eq!(
                        pair[i * c + j].to_bits(),
                        compiled.delta_dense(u, v).to_bits(),
                        "pair ({}, {})", i, j
                    );
                }
            }
            prop_assert!(row.iter().all(|&x| x.to_bits() == 0), "scatter row not cleared");
        }
    }

    #[test]
    fn dense_id_agrees_with_binary_search(records in records_strategy(), seed in 0u64..4) {
        let model = SocialModel::learn(&TraceStore::new(records.clone()), &config(), seed);
        let compiled = CompiledModel::compile(&model);
        check_dense_ids(&compiled, &query_ids(&records));
    }

    #[test]
    fn compiled_size_metrics_match_model(records in records_strategy(), seed in 0u64..4) {
        let model = SocialModel::learn(&TraceStore::new(records), &config(), seed);
        let compiled = CompiledModel::compile(&model);
        prop_assert_eq!(compiled.csr_entries(), model.known_pairs() * 2);
        prop_assert_eq!(compiled.alpha().to_bits(), model.alpha().to_bits());
        prop_assert_eq!(compiled.is_trivial(), model.is_trivial());
        prop_assert_eq!(compiled.is_stale(), model.is_stale());
        prop_assert_eq!(compiled.type_count(), model.type_count());
    }
}

/// Compiling a trivial (empty) model preserves the degradation flags, and
/// the selector built over it still engages the LLF fallback — compilation
/// must never "launder" an unusable model into a trusted one.
#[test]
fn trivial_model_survives_compilation_and_keeps_llf_fallback() {
    let model = SocialModel::learn(&TraceStore::new(vec![]), &config(), 0);
    assert!(model.is_trivial());
    let compiled = CompiledModel::compile(&model);
    assert!(compiled.is_trivial());
    assert!(!compiled.is_stale());
    assert_eq!(compiled.user_count(), 0);
    assert_eq!(compiled.csr_entries(), 0);
    let selector = S3Selector::new(model, config());
    assert!(
        selector.is_degraded(),
        "trivial model must fall back to LLF"
    );
    assert!(selector.compiled_model().is_trivial());
}

/// Same for a stale model from the incremental learner: one ingested day
/// against the default 15-day look-back.
#[test]
fn stale_model_survives_compilation_and_keeps_llf_fallback() {
    let mut records = Vec::new();
    for user in 1..=3u32 {
        let mut volume_by_app = [Bytes::ZERO; 6];
        volume_by_app[0] = Bytes::megabytes(20);
        records.push(SessionRecord {
            user: UserId::new(user),
            ap: ApId::new(0),
            controller: ControllerId::new(0),
            connect: Timestamp::from_secs(30_000 + user as u64),
            disconnect: Timestamp::from_secs(37_200 + user as u64 * 10),
            volume_by_app,
        });
    }
    let config = S3Config {
        fixed_k: Some(1),
        ..S3Config::default()
    };
    let mut learner = IncrementalLearner::new(config.clone(), 2);
    learner.ingest_day(&TraceStore::new(records), 0);
    let model = learner.build_model();
    assert!(model.is_stale());
    assert!(!model.is_trivial());
    let compiled = CompiledModel::compile(&model);
    assert!(compiled.is_stale());
    assert!(!compiled.is_trivial());
    let selector = S3Selector::new(model, config);
    assert!(selector.is_degraded(), "stale model must fall back to LLF");
}

/// `dense_id` must return exactly what a binary search over the sorted
/// intern table returns, for interned, gap, beyond-range and top-of-range
/// ids alike.
fn check_dense_ids(compiled: &CompiledModel, extra: &[UserId]) {
    let interned = compiled.interned_ids();
    let mut probes: Vec<u32> = (0..64).collect();
    probes.extend((0..8).map(|d| u32::MAX - d));
    probes.extend(interned.iter().flat_map(|&raw| [raw, raw.wrapping_add(1)]));
    probes.extend(extra.iter().map(|u| u.raw()));
    for raw in probes {
        let expected = interned.binary_search(&raw).ok().map(|i| i as u32);
        assert_eq!(
            compiled.dense_id(UserId::new(raw)),
            expected,
            "dense id of {raw} (direct index: {})",
            compiled.has_direct_index()
        );
    }
}

fn model_over(users: &[u32]) -> CompiledModel {
    let records: Vec<SessionRecord> = users
        .iter()
        .enumerate()
        .map(|(i, &user)| {
            let connect = 30_000 + i as u64 * 60;
            let mut volume_by_app = [Bytes::ZERO; 6];
            volume_by_app[i % 6] = Bytes::megabytes(5);
            SessionRecord {
                user: UserId::new(user),
                ap: ApId::new(0),
                controller: ControllerId::new(0),
                connect: Timestamp::from_secs(connect),
                disconnect: Timestamp::from_secs(connect + 3_600),
                volume_by_app,
            }
        })
        .collect();
    let model = SocialModel::learn(&TraceStore::new(records), &config(), 1);
    CompiledModel::compile(&model)
}

/// Both lookup modes, chosen by the id layout: dense raw ids get the raw →
/// dense table, sparse ones (a gap, or ids near `u32::MAX`) keep the
/// binary search, and the two answer identically.
#[test]
fn dense_id_table_and_search_modes_agree() {
    let dense: Vec<u32> = (0..40).collect();
    let holes: Vec<u32> = (0..40).filter(|x| x % 3 != 1).collect();
    let sparse = [0u32, 7, 1_000_000];
    let top = [1u32, 2, u32::MAX - 2, u32::MAX - 1];
    for (users, direct) in [
        (&dense[..], true),
        (&holes[..], true),
        (&sparse[..], false),
        (&top[..], false),
    ] {
        let compiled = model_over(users);
        assert_eq!(compiled.user_count(), users.len(), "users {users:?}");
        assert_eq!(compiled.has_direct_index(), direct, "users {users:?}");
        check_dense_ids(&compiled, &[]);
    }
}

// ------------------------------------------------------------- CSR parity

/// The CSR of a compiled model, as plain vectors with `P(L|E)` as bits.
#[derive(Debug, PartialEq)]
struct Csr {
    users: Vec<u32>,
    row_start: Vec<u32>,
    neighbors: Vec<u32>,
    pair_prob: Vec<u64>,
}

/// The sort-based CSR construction `CompiledModel::compile` used before
/// the counting fill, kept as the oracle: intern every user the model
/// knows in sorted order, emit both directions of every pair, sort the
/// entries by `(row, col)` and cut rows at the prefix sums.
fn oracle_csr(model: &SocialModel) -> Csr {
    let pairs = model.pair_probabilities();
    let mut users: Vec<u32> = Vec::new();
    users.extend(model.user_types().keys().map(|u| u.raw()));
    users.extend(model.demands().keys().map(|u| u.raw()));
    for &(pair, _) in pairs.iter() {
        users.push(pair.0.raw());
        users.push(pair.1.raw());
    }
    users.sort_unstable();
    users.dedup();
    let n = users.len();
    let dense = |raw: u32| -> u32 { users.binary_search(&raw).expect("collected") as u32 };
    let mut entries: Vec<(u32, u32, f64)> = Vec::with_capacity(pairs.len() * 2);
    for &(pair, p) in pairs.iter() {
        let (a, b) = (dense(pair.0.raw()), dense(pair.1.raw()));
        entries.push((a, b, p));
        entries.push((b, a, p));
    }
    entries.sort_unstable_by_key(|x| (x.0, x.1));
    let mut row_start = vec![0u32; n + 1];
    for &(row, _, _) in &entries {
        row_start[row as usize + 1] += 1;
    }
    for i in 0..n {
        row_start[i + 1] += row_start[i];
    }
    Csr {
        users,
        row_start,
        neighbors: entries.iter().map(|e| e.1).collect(),
        pair_prob: entries.iter().map(|e| e.2.to_bits()).collect(),
    }
}

fn compiled_csr(compiled: &CompiledModel) -> Csr {
    let mut csr = Csr {
        users: compiled.interned_ids().to_vec(),
        row_start: vec![0],
        neighbors: Vec::new(),
        pair_prob: Vec::new(),
    };
    for i in 0..compiled.user_count() as u32 {
        for (j, p) in compiled.neighbors_of(i) {
            csr.neighbors.push(j);
            csr.pair_prob.push(p.to_bits());
        }
        csr.row_start.push(csr.neighbors.len() as u32);
    }
    csr
}

fn assert_csr_parity(model: &SocialModel) -> CompiledModel {
    let compiled = CompiledModel::compile(model);
    assert_eq!(compiled_csr(&compiled), oracle_csr(model));
    compiled
}

/// Raw ids in three layouts: dense (the raw → dense table), spread out by
/// a factor of 1,000 (binary search), and the default pool with ids near
/// `u32::MAX`.
fn laid_out(records: Vec<SessionRecord>, layout: u32) -> Vec<SessionRecord> {
    records
        .into_iter()
        .map(|mut r| {
            let raw = r.user.raw();
            r.user = UserId::new(match layout {
                0 => raw % 24,
                1 => (raw % 24) * 1_000 + 17,
                _ => raw,
            });
            r
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn counting_fill_matches_the_sorted_csr(
        records in records_strategy(),
        layout in 0u32..3,
        seed in 0u64..4,
    ) {
        let records = laid_out(records, layout);
        let model = SocialModel::learn(&TraceStore::new(records.clone()), &config(), seed);
        let compiled = assert_csr_parity(&model);
        check_dense_ids(&compiled, &query_ids(&records));

        // The same through the incremental learner, one ingest per day.
        let mut learner = IncrementalLearner::new(config(), seed);
        for day in 0..4u64 {
            let today: Vec<SessionRecord> =
                records.iter().filter(|r| r.connect.day() == day).cloned().collect();
            learner.ingest_day(&TraceStore::new(today), day);
        }
        assert_csr_parity(&learner.build_model());
    }
}

/// Pinned shapes: empty and one-pair models, typed users without any
/// pair, and each id layout with its lookup mode.
#[test]
fn counting_fill_matches_the_sorted_csr_on_pinned_models() {
    let empty = SocialModel::learn(&TraceStore::new(vec![]), &config(), 0);
    assert_eq!(assert_csr_parity(&empty).user_count(), 0);

    let session = |user: u32, ap: u32, connect: u64| SessionRecord {
        user: UserId::new(user),
        ap: ApId::new(ap),
        controller: ControllerId::new(0),
        connect: Timestamp::from_secs(connect),
        disconnect: Timestamp::from_secs(connect + 3_600),
        volume_by_app: concentrated_volumes(AppCategory::Im, Bytes::megabytes(5)),
    };
    // One pair among typed loners on their own APs.
    let records = vec![
        session(3, 0, 30_000),
        session(9, 0, 30_060),
        session(1, 1, 30_000),
        session(5, 2, 30_000),
        session(7, 3, 30_000),
    ];
    let model = SocialModel::learn(&TraceStore::new(records), &config(), 1);
    assert_eq!(model.known_pairs(), 1);
    assert!(model.user_type(UserId::new(5)).is_some());
    let compiled = assert_csr_parity(&model);
    let loner = compiled.dense_id(UserId::new(5)).unwrap();
    assert_eq!(compiled.neighbors_of(loner).count(), 0);

    let dense: Vec<u32> = (0..30).collect();
    let sparse: Vec<u32> = (0..30).map(|x| x * 100_000).collect();
    let top: Vec<u32> = (0..30).map(|x| u32::MAX - x * 3).collect();
    for (users, direct) in [(&dense, true), (&sparse, false), (&top, false)] {
        // Everyone on one AP with staggered arrivals: many pairs, and every
        // row mixes smaller and larger neighbours.
        let records: Vec<SessionRecord> = users
            .iter()
            .enumerate()
            .map(|(i, &u)| session(u, 0, 30_000 + i as u64 * 97))
            .collect();
        let model = SocialModel::learn(&TraceStore::new(records), &config(), 2);
        assert!(model.known_pairs() > 100);
        let compiled = assert_csr_parity(&model);
        assert_eq!(compiled.has_direct_index(), direct);
    }
}
