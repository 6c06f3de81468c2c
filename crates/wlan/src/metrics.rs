//! Balance-index metrics over logged sessions.
//!
//! Every evaluation number in the paper is a function of the normalized
//! balance index computed over per-AP loads inside a controller domain,
//! sampled per time bin. These helpers turn a [`TraceStore`] into those
//! series.

use std::collections::BTreeMap;

use s3_obs::{Desc, Stability, Unit};
use s3_stats::balance::{normalized_balance_index, user_count_balance_index};
use s3_trace::{SessionRecord, TraceStore};
use s3_types::{ApId, Bytes, ControllerId, TimeDelta, Timestamp};

// Balance-sampling metrics (documented in docs/METRICS.md). Recorded in
// exactly one place — [`StreamingBalance::samples`] — so the aggregate
// helpers below, which all read the samples once, never double-count a bin.
static BALANCE_SAMPLES: Desc = Desc {
    name: "wlan.metrics.balance_samples",
    help: "(controller, bin) balance-index samples computed",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static ACTIVE_BINS: Desc = Desc {
    name: "wlan.metrics.active_bins",
    help: "Balance samples whose bin carried traffic",
    unit: Unit::Count,
    stability: Stability::Stable,
};
static IDLE_BINS: Desc = Desc {
    name: "wlan.metrics.idle_bins",
    help: "Balance samples over idle bins (report index 1, filtered from CDFs)",
    unit: Unit::Count,
    stability: Stability::Stable,
};

/// One balance-index sample: a controller domain over one time bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceSample {
    /// The controller domain.
    pub controller: ControllerId,
    /// Bin start.
    pub start: Timestamp,
    /// Normalized balance index of per-AP traffic in the bin.
    pub value: f64,
    /// True when the bin carried any traffic (idle bins report index 1 and
    /// are usually filtered out of CDFs).
    pub active: bool,
}

/// Computes the normalized traffic balance index for every `(controller,
/// bin)` pair across the store's whole day range, streaming the store's
/// records once through a [`StreamingBalance`].
///
/// # Panics
///
/// Panics if `bin` is zero.
pub fn balance_samples(store: &TraceStore, bin: TimeDelta) -> Vec<BalanceSample> {
    StreamingBalance::of_store(store, bin).samples()
}

/// Traffic balance-index time series for a single controller.
///
/// # Panics
///
/// Panics if `bin` is zero.
pub fn balance_series(
    store: &TraceStore,
    controller: ControllerId,
    from: Timestamp,
    to: Timestamp,
    bin: TimeDelta,
) -> Vec<(Timestamp, f64)> {
    assert!(!bin.is_zero(), "bin width must be positive");
    let mut out = Vec::new();
    let mut t = from;
    while t < to {
        let volumes = store.ap_volumes_in(controller, t, t + bin);
        if volumes.len() >= 2 {
            let loads: Vec<f64> = volumes.iter().map(|&(_, v)| v.as_f64()).collect();
            out.push((t, normalized_balance_index(&loads).expect("finite loads")));
        }
        t += bin;
    }
    out
}

/// User-count balance-index time series (Fig. 4's second panel): the index
/// over the number of users associated per AP, sampled at bin starts.
///
/// # Panics
///
/// Panics if `bin` is zero.
pub fn user_balance_series(
    store: &TraceStore,
    controller: ControllerId,
    from: Timestamp,
    to: Timestamp,
    bin: TimeDelta,
) -> Vec<(Timestamp, f64)> {
    assert!(!bin.is_zero(), "bin width must be positive");
    let mut out = Vec::new();
    let mut t = from;
    while t < to {
        let counts = store.ap_user_counts_at(controller, t);
        if counts.len() >= 2 {
            let values: Vec<u32> = counts.iter().map(|&(_, c)| c).collect();
            out.push((t, user_count_balance_index(&values).expect("finite counts")));
        }
        t += bin;
    }
    out
}

/// Mean normalized balance index over all active `(controller, bin)` pairs
/// — the headline scalar compared between S³ and LLF. Returns `None` when
/// no bin was active.
pub fn mean_active_balance(store: &TraceStore, bin: TimeDelta) -> Option<f64> {
    mean_active_balance_filtered(store, bin, |_| true)
}

/// Like [`mean_active_balance`] but restricted to bins whose start hour
/// satisfies `hour_filter` (peak hours, leave-peak hours, …).
pub fn mean_active_balance_filtered<F>(
    store: &TraceStore,
    bin: TimeDelta,
    hour_filter: F,
) -> Option<f64>
where
    F: Fn(u64) -> bool,
{
    StreamingBalance::of_store(store, bin).finish(hour_filter)
}

/// The balance data plane: served volume per `(controller, AP, bin)`,
/// filled one record at a time. Every balance number in this module —
/// store-backed or streamed (`s3wlan replay --stream`, which never
/// materializes a [`TraceStore`]) — is read off this one table.
///
/// Each observed record adds its integer [`SessionRecord::volume_within`]
/// bytes to just the bins it overlaps. Integer sums do not depend on the
/// order records arrive in, and the read-out walks controllers, bins and
/// APs in ascending order, so the samples, the `wlan.metrics.*` counters
/// and every mean are the same bits however the records were fed.
///
/// The bin grid starts at the midnight of the first observed record's day
/// and runs through the last day any record touches. Records must
/// therefore never connect before that first record's day (the engine
/// emits in nondecreasing connect order, and a store is connect-sorted).
///
/// Memory is `O(controllers × APs × bins)`: one dense bin row per
/// `(controller, AP)` pair, independent of the record count.
#[derive(Debug)]
pub struct StreamingBalance {
    bin: TimeDelta,
    /// Grid origin in seconds: the first record's midnight.
    origin: Option<u64>,
    last_day: u64,
    /// Served volume per bin, one row per `(controller, AP)` ever observed
    /// (so idle APs still count in their domain).
    rows: BTreeMap<(ControllerId, ApId), Vec<Bytes>>,
}

impl StreamingBalance {
    /// Creates an accumulator over `bin`-wide windows aligned to the first
    /// record's midnight.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: TimeDelta) -> Self {
        assert!(!bin.is_zero(), "bin width must be positive");
        StreamingBalance {
            bin,
            origin: None,
            last_day: 0,
            rows: BTreeMap::new(),
        }
    }

    /// An accumulator over every record of `store`.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn of_store(store: &TraceStore, bin: TimeDelta) -> Self {
        let mut grid = StreamingBalance::new(bin);
        for r in store.records() {
            grid.observe(r);
        }
        grid
    }

    /// Folds one record into the per-bin volume table.
    ///
    /// # Panics
    ///
    /// Panics if `record` connects before the first observed record's day.
    pub fn observe(&mut self, record: &SessionRecord) {
        let origin = *self
            .origin
            .get_or_insert(record.connect.day() * s3_types::SECS_PER_DAY);
        assert!(
            record.connect.as_secs() >= origin,
            "records must be observed in nondecreasing connect order"
        );
        self.last_day = self.last_day.max(record.disconnect.day());
        let row = self.rows.entry((record.controller, record.ap)).or_default();
        if record.duration().is_zero() {
            return; // attributes zero volume to every bin
        }
        let width = self.bin.as_secs();
        let first = (record.connect.as_secs() - origin) / width;
        let last = (record.disconnect.as_secs() - 1 - origin) / width;
        if row.len() <= last as usize {
            row.resize(last as usize + 1, Bytes::ZERO);
        }
        for b in first..=last {
            let from = Timestamp::from_secs(origin + b * width);
            row[b as usize] += record.volume_within(from, from + self.bin);
        }
    }

    /// Calls `f(controller, bin start, volumes)` for every bin of every
    /// controller domain — controllers ascending, then bins ascending —
    /// with the domain's per-AP volumes in ascending AP order (idle APs
    /// report zero).
    pub fn for_each_bin<F>(&self, mut f: F)
    where
        F: FnMut(ControllerId, Timestamp, &[Bytes]),
    {
        let Some(origin) = self.origin else {
            return;
        };
        let width = self.bin.as_secs();
        let bins = ((self.last_day + 1) * s3_types::SECS_PER_DAY - origin).div_ceil(width);
        let rows: Vec<(&(ControllerId, ApId), &Vec<Bytes>)> = self.rows.iter().collect();
        let mut volumes = Vec::new();
        for domain in rows.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            let controller = domain[0].0 .0;
            for b in 0..bins {
                volumes.clear();
                volumes.extend(
                    domain
                        .iter()
                        .map(|(_, row)| row.get(b as usize).copied().unwrap_or(Bytes::ZERO)),
                );
                f(
                    controller,
                    Timestamp::from_secs(origin + b * width),
                    &volumes,
                );
            }
        }
    }

    /// The normalized traffic balance index of every `(controller, bin)`
    /// whose domain has at least two APs, controller-major and bin-minor,
    /// publishing the `wlan.metrics.*` sample counters. Counters are the
    /// one side effect, recorded here only, so callers never double-count a
    /// bin; nothing publishes before the first record.
    pub fn samples(&self) -> Vec<BalanceSample> {
        let mut out = Vec::new();
        let mut loads = Vec::new();
        self.for_each_bin(|controller, start, volumes| {
            if volumes.len() < 2 {
                return;
            }
            loads.clear();
            loads.extend(volumes.iter().map(|v| v.as_f64()));
            let total: f64 = loads.iter().sum();
            let value = normalized_balance_index(&loads).expect("loads are finite");
            out.push(BalanceSample {
                controller,
                start,
                value,
                active: total > 0.0,
            });
        });
        if self.origin.is_some() {
            let registry = s3_obs::global();
            registry.counter(&BALANCE_SAMPLES).add(out.len() as u64);
            let active = out.iter().filter(|s| s.active).count() as u64;
            registry.counter(&ACTIVE_BINS).add(active);
            registry.counter(&IDLE_BINS).add(out.len() as u64 - active);
        }
        out
    }

    /// Publishes the sample counters (see [`StreamingBalance::samples`])
    /// and returns the mean index over active bins whose start hour passes
    /// `hour_filter`, or `None` when no such bin exists.
    pub fn finish<F>(self, hour_filter: F) -> Option<f64>
    where
        F: Fn(u64) -> bool,
    {
        let active: Vec<f64> = self
            .samples()
            .iter()
            .filter(|s| s.active && hour_filter(s.start.hour_of_day()))
            .map(|s| s.value)
            .collect();
        (!active.is_empty()).then(|| active.iter().sum::<f64>() / active.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_trace::SessionRecord;
    use s3_types::{AppCategory, UserId};

    fn rec(user: u32, ap: u32, ctl: u32, connect: u64, disconnect: u64, mb: u64) -> SessionRecord {
        let mut volume_by_app = [Bytes::ZERO; 6];
        volume_by_app[AppCategory::Video.index()] = Bytes::megabytes(mb);
        SessionRecord {
            user: UserId::new(user),
            ap: ApId::new(ap),
            controller: ControllerId::new(ctl),
            connect: Timestamp::from_secs(connect),
            disconnect: Timestamp::from_secs(disconnect),
            volume_by_app,
        }
    }

    #[test]
    fn perfectly_balanced_bins_score_one() {
        let store = TraceStore::new(vec![rec(1, 0, 0, 0, 3_600, 10), rec(2, 1, 0, 0, 3_600, 10)]);
        let series = balance_series(
            &store,
            ControllerId::new(0),
            Timestamp::ZERO,
            Timestamp::from_secs(3_600),
            TimeDelta::minutes(10),
        );
        assert_eq!(series.len(), 6);
        assert!(series.iter().all(|&(_, v)| (v - 1.0).abs() < 1e-9));
    }

    #[test]
    fn concentrated_bins_score_zero() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 0, 3_600, 10),
            rec(2, 1, 0, 4_000, 4_001, 1), // makes AP 1 known to the domain
        ]);
        let series = balance_series(
            &store,
            ControllerId::new(0),
            Timestamp::ZERO,
            Timestamp::from_secs(3_600),
            TimeDelta::hours(1),
        );
        assert_eq!(series.len(), 1);
        assert!(series[0].1.abs() < 1e-9, "all load on one of two APs");
    }

    #[test]
    fn samples_flag_idle_bins() {
        let _counters = counters_lock();
        let store = TraceStore::new(vec![rec(1, 0, 0, 0, 600, 10), rec(2, 1, 0, 0, 600, 10)]);
        let samples = balance_samples(&store, TimeDelta::hours(6));
        assert_eq!(samples.len(), 4, "four 6h bins in day 0");
        assert!(samples[0].active);
        assert!(!samples[1].active);
        assert_eq!(samples[1].value, 1.0, "idle bins report balanced");
    }

    #[test]
    fn single_ap_domains_are_skipped() {
        let _counters = counters_lock();
        let store = TraceStore::new(vec![rec(1, 0, 0, 0, 600, 10)]);
        assert!(balance_samples(&store, TimeDelta::hours(1)).is_empty());
        assert_eq!(mean_active_balance(&store, TimeDelta::hours(1)), None);
    }

    #[test]
    fn user_series_counts_heads_not_bytes() {
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 0, 3_600, 1_000), // heavy user
            rec(2, 1, 0, 0, 3_600, 1),     // light user
        ]);
        let series = user_balance_series(
            &store,
            ControllerId::new(0),
            Timestamp::ZERO,
            Timestamp::from_secs(3_600),
            TimeDelta::hours(1),
        );
        assert_eq!(series.len(), 1);
        assert!((series[0].1 - 1.0).abs() < 1e-9, "one user each: balanced");
    }

    #[test]
    fn filtered_mean_restricts_hours() {
        let _counters = counters_lock();
        // Balanced traffic at 10:00, unbalanced at 03:00.
        let store = TraceStore::new(vec![
            rec(1, 0, 0, 10 * 3_600, 10 * 3_600 + 600, 10),
            rec(2, 1, 0, 10 * 3_600, 10 * 3_600 + 600, 10),
            rec(3, 0, 0, 3 * 3_600, 3 * 3_600 + 600, 10),
        ]);
        let peak = mean_active_balance_filtered(&store, TimeDelta::hours(1), |h| h == 10).unwrap();
        let night = mean_active_balance_filtered(&store, TimeDelta::hours(1), |h| h == 3).unwrap();
        assert!((peak - 1.0).abs() < 1e-9);
        assert!(night.abs() < 1e-9);
        assert!(mean_active_balance_filtered(&store, TimeDelta::hours(1), |h| h == 20).is_none());
        let overall = mean_active_balance(&store, TimeDelta::hours(1)).unwrap();
        assert!((overall - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_store_yields_no_samples() {
        let store = TraceStore::new(vec![]);
        assert!(balance_samples(&store, TimeDelta::hours(1)).is_empty());
    }

    /// Serializes the tests that publish the process-global sample
    /// counters, so delta assertions never see another test's samples.
    fn counters_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Reads the three sample counters (for delta assertions).
    fn sample_counters() -> (u64, u64, u64) {
        let registry = s3_obs::global();
        (
            registry.counter(&BALANCE_SAMPLES).get(),
            registry.counter(&ACTIVE_BINS).get(),
            registry.counter(&IDLE_BINS).get(),
        )
    }

    /// Per-window `(controller, bin start, index bits, active)` samples
    /// computed the naive way: one [`TraceStore::ap_volumes_in`] scan per
    /// `(controller, bin)` over the store's whole day range.
    fn oracle_samples(store: &TraceStore, bin: TimeDelta) -> Vec<(ControllerId, u64, u64, bool)> {
        let Some((first_day, last_day)) = store.day_range() else {
            return Vec::new();
        };
        let start = Timestamp::from_secs(first_day * s3_types::SECS_PER_DAY);
        let end = Timestamp::from_secs((last_day + 1) * s3_types::SECS_PER_DAY);
        let mut out = Vec::new();
        for controller in store.controllers() {
            let mut t = start;
            while t < end {
                let volumes = store.ap_volumes_in(controller, t, t + bin);
                if volumes.len() >= 2 {
                    let loads: Vec<f64> = volumes.iter().map(|&(_, v)| v.as_f64()).collect();
                    let value = normalized_balance_index(&loads).expect("finite loads");
                    let active = loads.iter().sum::<f64>() > 0.0;
                    out.push((controller, t.as_secs(), value.to_bits(), active));
                }
                t += bin;
            }
        }
        out
    }

    #[test]
    fn streaming_balance_matches_the_store_backed_path_exactly() {
        let _counters = counters_lock();
        use crate::selector::LeastLoadedFirst;
        use crate::{SimConfig, SimEngine, Topology};
        use s3_trace::generator::{CampusConfig, CampusGenerator};

        // A realistic multi-controller log: a generated campus replayed
        // under LLF (records come out sorted by connect — the order the
        // streaming engine emits).
        let campus = CampusGenerator::new(CampusConfig::tiny(), 9).generate();
        let topology = Topology::from_campus(&campus.config);
        let engine = SimEngine::new(topology, SimConfig::default());
        let records = engine
            .run(&campus.demands, &mut LeastLoadedFirst::new())
            .records;
        assert!(!records.is_empty());

        let bin = TimeDelta::minutes(10);
        let daytime = |h: u64| h >= 8;

        // Every sample equals the independent per-window scan, bit for bit.
        let store = TraceStore::new(records.clone());
        let samples: Vec<(ControllerId, u64, u64, bool)> = StreamingBalance::of_store(&store, bin)
            .samples()
            .iter()
            .map(|s| (s.controller, s.start.as_secs(), s.value.to_bits(), s.active))
            .collect();
        assert_eq!(samples, oracle_samples(&store, bin));
        assert!(samples.iter().any(|s| s.3), "the log must have active bins");

        let before = sample_counters();
        let store_mean = mean_active_balance_filtered(&store, bin, daytime);
        let mid = sample_counters();

        let mut streaming = StreamingBalance::new(bin);
        for r in &records {
            streaming.observe(r);
        }
        let stream_mean = streaming.finish(daytime);
        let after = sample_counters();

        // Bit-exact mean and identical counter deltas.
        assert_eq!(store_mean, stream_mean);
        assert!(store_mean.is_some());
        let store_delta = (mid.0 - before.0, mid.1 - before.1, mid.2 - before.2);
        let stream_delta = (after.0 - mid.0, after.1 - mid.1, after.2 - mid.2);
        assert_eq!(store_delta, stream_delta);
        assert!(store_delta.0 > 0, "the log must produce samples");
    }

    #[test]
    fn streaming_balance_handles_edge_records_like_the_store() {
        let _counters = counters_lock();
        // Zero-duration sessions, sessions spanning many bins, idle gaps
        // and a single-AP controller (skipped by both paths).
        let records = vec![
            rec(1, 0, 0, 0, 600, 6),
            rec(2, 1, 0, 0, 0, 5), // zero duration: volume lands nowhere
            rec(3, 1, 0, 300, 7_200, 12),
            rec(4, 9, 3, 400, 500, 4), // controller 3 has one AP: no samples
            rec(5, 0, 0, 86_000, 86_500, 2), // crosses midnight into day 1
        ];
        let bin = TimeDelta::minutes(10);
        let store = TraceStore::new(records.clone());
        let store_mean = mean_active_balance_filtered(&store, bin, |_| true);
        let mut streaming = StreamingBalance::new(bin);
        for r in &records {
            streaming.observe(r);
        }
        let samples: Vec<(ControllerId, u64, u64, bool)> = streaming
            .samples()
            .iter()
            .map(|s| (s.controller, s.start.as_secs(), s.value.to_bits(), s.active))
            .collect();
        assert_eq!(samples, oracle_samples(&store, bin));
        assert_eq!(streaming.finish(|_| true), store_mean);
    }

    #[test]
    fn streaming_balance_on_an_empty_stream_is_none() {
        assert!(StreamingBalance::new(TimeDelta::minutes(10))
            .finish(|_| true)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "nondecreasing connect order")]
    fn streaming_balance_rejects_out_of_order_records() {
        let mut streaming = StreamingBalance::new(TimeDelta::minutes(10));
        streaming.observe(&rec(1, 0, 0, 86_400, 86_500, 1));
        streaming.observe(&rec(2, 1, 0, 100, 200, 1));
    }
}
