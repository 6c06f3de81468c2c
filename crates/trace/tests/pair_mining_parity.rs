//! Parity of the sorted pair-table miners with a naive oracle.
//!
//! The oracle counts encounters and co-leavings by testing every pair of
//! sessions on the same AP, in any order, into `HashMap`s, and derives
//! `P(L|E)` from them. The miners must agree with it on every count, on
//! every `P(L|E)` bit, on the table order and on every `trace.events.*`
//! counter delta, at 1, 2 and 8 threads. Generated stores include
//! touching half-open intervals, same-user pairs, `min_overlap = 0`, APs
//! with a single session and user ids near `u32::MAX`.

use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

use proptest::prelude::*;

use s3_obs::MetricValue;
use s3_trace::events::{
    coleave_given_encounter, extract_coleavings_par, extract_encounters_par, PairCounts, PairTable,
    UserPair,
};
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{ApId, Bytes, ControllerId, TimeDelta, Timestamp, UserId};

/// The event counters are process-global; a test reading their deltas
/// must not overlap another test's mining.
static METRICS: Mutex<()> = Mutex::new(());

const THREADS: [usize; 3] = [1, 2, 8];

// ------------------------------------------------------------- oracle

#[derive(Debug, Default, PartialEq, Eq)]
struct Counters {
    sessions_sharded: u64,
    ap_shards: u64,
    encounter_pairs_scanned: u64,
    encounters_found: u64,
    coleaving_pairs_scanned: u64,
    coleavings_found: u64,
}

struct Oracle {
    encounters: HashMap<UserPair, u32>,
    coleavings: HashMap<UserPair, u32>,
    /// Counter deltas of one encounter pass plus one co-leaving pass.
    counters: Counters,
}

fn oracle(records: &[SessionRecord], min_overlap: TimeDelta, window: TimeDelta) -> Oracle {
    let mut encounters = HashMap::new();
    let mut coleavings = HashMap::new();
    let mut counters = Counters::default();
    let aps: BTreeSet<ApId> = records.iter().map(|r| r.ap).collect();
    // Both passes shard the whole store.
    counters.sessions_sharded = 2 * records.len() as u64;
    counters.ap_shards = 2 * aps.len() as u64;
    for (i, a) in records.iter().enumerate() {
        for b in &records[i + 1..] {
            if a.ap != b.ap {
                continue;
            }
            let pair = UserPair::new(a.user, b.user);
            // Half-open presence intervals: the pair is scanned when they
            // share an instant, and encounters when they share enough.
            let start = a.connect.max(b.connect);
            let end = a.disconnect.min(b.disconnect);
            if start < end {
                counters.encounter_pairs_scanned += 1;
                if end.saturating_sub(start) >= min_overlap {
                    if let Some(pair) = pair {
                        *encounters.entry(pair).or_insert(0) += 1;
                        counters.encounters_found += 1;
                    }
                }
            }
            let gap = a
                .disconnect
                .saturating_sub(b.disconnect)
                .max(b.disconnect.saturating_sub(a.disconnect));
            if gap <= window {
                counters.coleaving_pairs_scanned += 1;
                if let Some(pair) = pair {
                    *coleavings.entry(pair).or_insert(0) += 1;
                    counters.coleavings_found += 1;
                }
            }
        }
    }
    Oracle {
        encounters,
        coleavings,
        counters,
    }
}

// ------------------------------------------------------------- harness

fn counter(name: &str) -> u64 {
    s3_obs::global()
        .snapshot()
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(v) => v,
            _ => panic!("{name} is not a counter"),
        })
        .unwrap_or(0)
}

fn read_counters() -> Counters {
    Counters {
        sessions_sharded: counter("trace.events.sessions_sharded"),
        ap_shards: counter("trace.events.ap_shards"),
        encounter_pairs_scanned: counter("trace.events.encounter_pairs_scanned"),
        encounters_found: counter("trace.events.encounters_found"),
        coleaving_pairs_scanned: counter("trace.events.coleaving_pairs_scanned"),
        coleavings_found: counter("trace.events.coleavings_found"),
    }
}

fn delta(after: &Counters, before: &Counters) -> Counters {
    Counters {
        sessions_sharded: after.sessions_sharded - before.sessions_sharded,
        ap_shards: after.ap_shards - before.ap_shards,
        encounter_pairs_scanned: after.encounter_pairs_scanned - before.encounter_pairs_scanned,
        encounters_found: after.encounters_found - before.encounters_found,
        coleaving_pairs_scanned: after.coleaving_pairs_scanned - before.coleaving_pairs_scanned,
        coleavings_found: after.coleavings_found - before.coleavings_found,
    }
}

/// The table's entries must be strictly increasing and equal the map.
fn assert_table_eq<V: Copy + PartialEq + std::fmt::Debug>(
    table: &PairTable<V>,
    map: &HashMap<UserPair, V>,
    what: &str,
) {
    let entries = table.entries();
    assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "{what}: entries must be strictly increasing by pair"
    );
    let mut expected: Vec<(UserPair, V)> = map.iter().map(|(&p, &v)| (p, v)).collect();
    expected.sort_unstable_by_key(|&(p, _)| p);
    assert_eq!(entries, &expected[..], "{what}");
}

/// Mines `records` at every thread count and checks counts, `P(L|E)` bits
/// and counter deltas against the oracle.
fn check(records: Vec<SessionRecord>, min_overlap: TimeDelta, window: TimeDelta) {
    let want = oracle(&records, min_overlap, window);
    let mut probability: HashMap<UserPair, u64> = HashMap::new();
    for (&pair, &enc) in &want.encounters {
        let co = want.coleavings.get(&pair).copied().unwrap_or(0);
        probability.insert(pair, (co as f64 / enc as f64).min(1.0).to_bits());
    }
    let store = TraceStore::new(records);
    let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    for threads in THREADS {
        let before = read_counters();
        let encounters = extract_encounters_par(&store, min_overlap, threads);
        let coleavings = extract_coleavings_par(&store, window, threads);
        let after = read_counters();
        assert_eq!(
            delta(&after, &before),
            want.counters,
            "counter deltas at {threads} threads"
        );
        assert_table_eq(&encounters, &want.encounters, "encounters");
        assert_table_eq(&coleavings, &want.coleavings, "co-leavings");
        let table = coleave_given_encounter(&encounters, &coleavings);
        let bits: PairTable<u64> = table.iter().map(|&(p, v)| (p, v.to_bits())).collect();
        assert_table_eq(&bits, &probability, "P(L|E) bits");
    }
}

fn rec(user: u32, ap: u32, connect: u64, disconnect: u64) -> SessionRecord {
    SessionRecord {
        user: UserId::new(user),
        ap: ApId::new(ap),
        controller: ControllerId::new(0),
        connect: Timestamp::from_secs(connect),
        disconnect: Timestamp::from_secs(disconnect),
        volume_by_app: [Bytes::ZERO; 6],
    }
}

/// User ids from a small pool at both ends of the `u32` range.
fn user_id() -> impl Strategy<Value = u32> {
    (0u32..13).prop_map(|i| if i < 8 { i } else { u32::MAX - (i - 8) })
}

/// Seconds in `0..1000`, zero about a fifth of the time.
fn seconds() -> impl Strategy<Value = TimeDelta> {
    (0u64..1_000).prop_map(|s| TimeDelta::secs(if s < 200 { 0 } else { s }))
}

/// Positive-length sessions on a grid of 100 s, so touching intervals
/// (`b.connect == a.disconnect`) and equal departures are common; AP 9
/// receives at most one session.
fn records() -> impl Strategy<Value = Vec<SessionRecord>> {
    let session = (user_id(), 0u32..3, 0u64..40, 1u64..12)
        .prop_map(|(user, ap, slot, len)| rec(user, ap, slot * 100, (slot + len) * 100));
    (
        prop::collection::vec(session, 0..60),
        (0u32..2, user_id(), 0u64..40),
    )
        .prop_map(|(mut records, (lone, user, slot))| {
            if lone == 1 {
                records.push(rec(user, 9, slot * 100, slot * 100 + 50));
            }
            records
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn miners_match_the_naive_oracle(
        records in records(),
        overlap in seconds(),
        window in seconds(),
    ) {
        check(records, overlap, window);
    }
}

#[test]
fn pinned_edge_cases_match_the_oracle() {
    let top = u32::MAX;
    let records = vec![
        // Touching half-open intervals never encounter, even at 0.
        rec(1, 0, 0, 1_000),
        rec(2, 0, 1_000, 2_000),
        // One shared second does.
        rec(3, 0, 999, 1_500),
        // The same user twice on one AP is never a pair.
        rec(1, 0, 100, 1_000),
        // Ids at the top of the range, as first and second members.
        rec(top, 0, 0, 1_000),
        rec(top - 1, 0, 500, 1_000),
        rec(0, 0, 10, 990),
        // An AP with a single session.
        rec(4, 7, 0, 5_000),
    ];
    for overlap in [0, 1, 500] {
        for window in [0, 10, 300] {
            check(
                records.clone(),
                TimeDelta::secs(overlap),
                TimeDelta::secs(window),
            );
        }
    }
    let top_pair = UserPair::new(UserId::new(top), UserId::new(top - 1)).unwrap();
    let encounters = {
        let _guard = METRICS.lock().unwrap_or_else(|e| e.into_inner());
        extract_encounters_par(&TraceStore::new(records), TimeDelta::secs(0), 2)
    };
    assert_eq!(encounters.get(&top_pair), Some(1));
    let touching = UserPair::new(UserId::new(1), UserId::new(2)).unwrap();
    assert_eq!(encounters.get(&touching), None);
}

#[test]
fn empty_and_lone_stores_mine_nothing() {
    check(Vec::new(), TimeDelta::secs(0), TimeDelta::secs(0));
    check(
        vec![rec(5, 0, 0, 10)],
        TimeDelta::secs(0),
        TimeDelta::secs(60),
    );
    let empty = PairCounts::default();
    assert!(coleave_given_encounter(&empty, &empty).is_empty());
}
