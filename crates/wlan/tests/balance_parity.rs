//! Parity of the balance accumulator with a naive per-window oracle.
//!
//! Every balance number is read off `StreamingBalance`'s per-(controller,
//! AP, bin) volume table. The oracle recomputes each `(controller, bin)`
//! window independently — `TraceStore::ap_volumes_in` followed by
//! `normalized_balance_index` — and the accumulator must agree to the bit:
//! samples, published `wlan.metrics.*` counters, means and per-AP volumes
//! alike.

use std::sync::Mutex;

use proptest::prelude::*;

use s3_obs::MetricValue;
use s3_stats::balance::normalized_balance_index;
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{
    ApId, AppCategory, Bytes, ControllerId, TimeDelta, Timestamp, UserId, SECS_PER_DAY,
};
use s3_wlan::metrics::{
    balance_samples, mean_active_balance_filtered, BalanceSample, StreamingBalance,
};

/// The `wlan.metrics.*` counters are process-global; tests reading their
/// deltas must not interleave.
static COUNTERS: Mutex<()> = Mutex::new(());

/// Bin widths, including ones that do not divide a day (7 and 97 minutes)
/// and one longer than a day.
const BIN_MINUTES: [u64; 6] = [7, 10, 60, 97, 360, 1_500];

/// Record sets over 3 controllers and 5 APs drawn independently, so domains
/// with a single AP and APs seen under two controllers both occur; connects
/// fall on days 2–4 and durations mix zero, midnight-crossing, many-bin and
/// ordinary sessions.
fn arbitrary_records() -> impl Strategy<Value = Vec<SessionRecord>> {
    prop::collection::vec(
        (
            (0u32..20, 0u32..5, 0u32..3),
            (2u64..5, 0u64..SECS_PER_DAY, 0u32..6, 0u64..10_000),
            (0u64..2_000, 0usize..6),
        ),
        0..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(
                |((user, ap, controller), (day, second, kind, span), (mb, category))| {
                    let connect = day * SECS_PER_DAY + second;
                    let duration = match kind {
                        0 => 0,                                    // zero duration
                        1 => SECS_PER_DAY - second + span % 3_600, // crosses midnight
                        2 => span * 20,                            // many bins, up to ~2.3 days
                        _ => 1 + span % 7_200,                     // an ordinary session
                    };
                    let mut volume_by_app = [Bytes::ZERO; 6];
                    volume_by_app[AppCategory::from_index(category).unwrap().index()] =
                        Bytes::megabytes(mb);
                    volume_by_app[AppCategory::WebBrowsing.index()] += Bytes::new(span);
                    SessionRecord {
                        user: UserId::new(user),
                        ap: ApId::new(ap),
                        controller: ControllerId::new(controller),
                        connect: Timestamp::from_secs(connect),
                        disconnect: Timestamp::from_secs(connect + duration),
                        volume_by_app,
                    }
                },
            )
            .collect()
    })
}

/// The naive oracle: one independent `ap_volumes_in` scan per `(controller,
/// bin)` window over the store's whole day range.
fn oracle_windows(
    store: &TraceStore,
    bin: TimeDelta,
) -> Vec<(ControllerId, Timestamp, Vec<Bytes>)> {
    let Some((first_day, last_day)) = store.day_range() else {
        return Vec::new();
    };
    let end = Timestamp::from_secs((last_day + 1) * SECS_PER_DAY);
    let mut out = Vec::new();
    for controller in store.controllers() {
        let mut t = Timestamp::from_secs(first_day * SECS_PER_DAY);
        while t < end {
            let volumes = store.ap_volumes_in(controller, t, t + bin);
            out.push((controller, t, volumes.into_iter().map(|(_, v)| v).collect()));
            t += bin;
        }
    }
    out
}

fn oracle_samples(store: &TraceStore, bin: TimeDelta) -> Vec<BalanceSample> {
    oracle_windows(store, bin)
        .into_iter()
        .filter(|(_, _, volumes)| volumes.len() >= 2)
        .map(|(controller, start, volumes)| {
            let loads: Vec<f64> = volumes.iter().map(|v| v.as_f64()).collect();
            BalanceSample {
                controller,
                start,
                value: normalized_balance_index(&loads).unwrap(),
                active: loads.iter().sum::<f64>() > 0.0,
            }
        })
        .collect()
}

fn oracle_mean(samples: &[BalanceSample], hour_filter: impl Fn(u64) -> bool) -> Option<f64> {
    let active: Vec<f64> = samples
        .iter()
        .filter(|s| s.active && hour_filter(s.start.hour_of_day()))
        .map(|s| s.value)
        .collect();
    (!active.is_empty()).then(|| active.iter().sum::<f64>() / active.len() as f64)
}

/// A bit-exact, comparable image of a sample.
fn bits(s: &BalanceSample) -> (ControllerId, Timestamp, u64, bool) {
    (s.controller, s.start, s.value.to_bits(), s.active)
}

/// `(balance_samples, active_bins, idle_bins)` as currently published.
fn counters() -> [u64; 3] {
    let snapshot = s3_obs::global().snapshot();
    ["balance_samples", "active_bins", "idle_bins"].map(|name| {
        match snapshot
            .get(&format!("wlan.metrics.{name}"))
            .map(|m| &m.value)
        {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    })
}

fn delta(before: [u64; 3], after: [u64; 3]) -> [u64; 3] {
    [0, 1, 2].map(|i| after[i] - before[i])
}

fn oracle_counters(samples: &[BalanceSample]) -> [u64; 3] {
    let active = samples.iter().filter(|s| s.active).count() as u64;
    [samples.len() as u64, active, samples.len() as u64 - active]
}

const CASES: u32 = 128;

/// The generator reaches every edge case the parity properties rely on.
#[test]
fn generator_covers_the_edge_cases() {
    // [zero duration, crosses midnight, spans 3+ bins of 1 h, single-AP
    // domain, AP under two controllers]
    let mut seen = [0u32; 5];
    for case in 0..CASES {
        let mut rng = proptest::test_runner::TestRng::for_case("coverage", case);
        let records = Strategy::generate(&arbitrary_records(), &mut rng);
        let store = TraceStore::new(records.clone());
        let hits = [
            records.iter().any(|r| r.duration().is_zero()),
            records.iter().any(|r| r.disconnect.day() > r.connect.day()),
            records.iter().any(|r| r.duration().as_secs() > 3 * 3_600),
            store
                .controllers()
                .iter()
                .any(|&c| store.aps_of(c).len() == 1),
            store.controllers().iter().any(|&c| {
                store
                    .aps_of(c)
                    .iter()
                    .any(|ap| records.iter().any(|r| r.ap == *ap && r.controller != c))
            }),
        ];
        for (count, hit) in seen.iter_mut().zip(hits) {
            *count += u32::from(hit);
        }
    }
    assert!(seen.iter().all(|&n| n >= CASES / 8), "coverage {seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn store_path_matches_the_per_window_oracle(
        records in arbitrary_records(),
        bin_choice in 0usize..BIN_MINUTES.len(),
    ) {
        let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let bin = TimeDelta::minutes(BIN_MINUTES[bin_choice]);
        let store = TraceStore::new(records);
        let expected = oracle_samples(&store, bin);

        let before = counters();
        let samples = balance_samples(&store, bin);
        let after = counters();
        prop_assert_eq!(
            samples.iter().map(bits).collect::<Vec<_>>(),
            expected.iter().map(bits).collect::<Vec<_>>()
        );
        prop_assert_eq!(delta(before, after), oracle_counters(&expected));

        // The filtered mean reads the same samples, publishing once more.
        let daytime = |h: u64| h >= 8;
        let mean = mean_active_balance_filtered(&store, bin, daytime);
        prop_assert_eq!(
            mean.map(f64::to_bits),
            oracle_mean(&expected, daytime).map(f64::to_bits)
        );
        prop_assert_eq!(delta(after, counters()), oracle_counters(&expected));

        // Every per-AP volume, single-AP domains included.
        let mut windows = Vec::new();
        StreamingBalance::of_store(&store, bin)
            .for_each_bin(|c, t, volumes| windows.push((c, t, volumes.to_vec())));
        prop_assert_eq!(windows, oracle_windows(&store, bin));
    }

    #[test]
    fn record_by_record_feeding_matches_whole_store_feeding(
        records in arbitrary_records(),
        bin_choice in 0usize..BIN_MINUTES.len(),
    ) {
        let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let bin = TimeDelta::minutes(BIN_MINUTES[bin_choice]);
        let store = TraceStore::new(records.clone());
        let hours = |h: u64| !h.is_multiple_of(3);

        let before = counters();
        let stored = mean_active_balance_filtered(&store, bin, hours);
        let mid = counters();

        // Feed in another order: by connect day, latest connect first
        // within each day — only the first record's day fixes the grid.
        let mut stream = records;
        stream.sort_by_key(|r| (r.connect.day(), std::cmp::Reverse(r.connect)));
        let mut streaming = StreamingBalance::new(bin);
        for r in &stream {
            streaming.observe(r);
        }
        let streamed = streaming.finish(hours);
        prop_assert_eq!(streamed.map(f64::to_bits), stored.map(f64::to_bits));
        prop_assert_eq!(delta(mid, counters()), delta(before, mid));
    }
}
