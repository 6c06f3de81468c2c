//! Stopwatches and recorders wrapped around the program's public traits
//! and calls. Nothing here reaches inside a layer: every number is taken
//! at a public boundary (`ApSelector`, `DemandSource`, `RecordSink`) or
//! read from the `s3_obs::global()` snapshot the program already publishes.

use std::hint::black_box;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use s3_obs::{MetricValue, Snapshot};
use s3_trace::csv::{self, CsvError};
use s3_trace::{SessionDemand, SessionRecord};
use s3_wlan::engine::{DemandSource, RecordSink, TraceEvent, TraceSink};
use s3_wlan::metrics::StreamingBalance;
use s3_wlan::selector::{ArrivalUser, SelectionContext};
use s3_wlan::{ApSelector, ApView, DecisionMeta, Topology};

/// Seconds of a duration, as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `f`, returning its result and its wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs(start.elapsed()))
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Reference-kernel runs per sampling point.
const PACE_SAMPLES: usize = 3;

/// The reference kernel's wall time at which normalized times equal wall
/// seconds: about its median on the 2-CPU host the baseline ran on.
pub const NOMINAL_REFERENCE_S: f64 = 0.008;

/// The host's pace over one run: wall times of a fixed reference kernel
/// sampled between the run's stages, every few seconds. On a shared host the speed of every
/// stage drifts together by tens of percent over minutes; scaling each
/// time by `NOMINAL_REFERENCE_S / reference_s()` removes that common factor
/// while leaving any change in the program's own work visible.
#[derive(Debug, Default)]
pub struct Pace {
    threads: usize,
    samples: Vec<f64>,
}

impl Pace {
    /// A pace sampler running the kernel on `threads` threads at once, as
    /// the pipeline's parallel stages use them.
    pub fn new(threads: usize) -> Self {
        Pace {
            threads,
            samples: Vec::new(),
        }
    }

    /// Times the reference kernel a few times now, returning the seconds
    /// this took (for callers to take out of an enclosing wall clock).
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..PACE_SAMPLES {
            let threads = self.threads;
            let ((), took) = timed(|| {
                std::thread::scope(|s| {
                    for salt in 0..threads as u64 {
                        s.spawn(move || black_box(reference_kernel(salt)));
                    }
                });
            });
            self.samples.push(took);
        }
        secs(start.elapsed())
    }

    /// Median wall time of the reference kernel over the run so far.
    pub fn reference_s(&self) -> f64 {
        median(self.samples.iter().copied())
    }

    /// `raw` seconds scaled to the nominal pace.
    pub fn seconds(&self, raw: f64) -> f64 {
        raw * NOMINAL_REFERENCE_S / self.reference_s()
    }

    /// `raw` events per second scaled to the nominal pace.
    pub fn per_second(&self, raw: f64) -> f64 {
        raw * self.reference_s() / NOMINAL_REFERENCE_S
    }
}

/// Fixed work independent of the program under test: fill, sort and index
/// a megabyte of pseudo-random keys (the memory-bound mix of the pipeline).
fn reference_kernel(salt: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15 ^ salt;
    let keys: Vec<u64> = (0..1 << 17)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut sorted = keys;
    sorted.sort_unstable();
    let mut index = std::collections::BTreeMap::new();
    for (i, k) in sorted.iter().step_by(4).enumerate() {
        index.insert(k % 100_003, i);
    }
    sorted[sorted.len() / 2] ^ index.len() as u64
}

/// Per-call timing shared by a [`TimedSelector`] and its reader. The
/// engine owns boxed selectors while a sharded replay runs, so the
/// numbers live behind an `Arc` the benchmark keeps.
#[derive(Debug, Default)]
pub struct Clock {
    busy_ns: AtomicU64,
    calls: AtomicU64,
    samples_ns: Mutex<Vec<u64>>,
}

impl Clock {
    /// A fresh clock, ready to be shared with a selector.
    pub fn shared() -> Arc<Clock> {
        Arc::new(Clock::default())
    }

    fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.samples_ns
            .lock()
            .expect("clock samples poisoned by a panicking selector")
            .push(ns);
    }

    /// Total seconds spent inside the timed calls.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Number of timed calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Per-call durations in nanoseconds, ascending.
    pub fn sorted_samples(&self) -> Vec<u64> {
        let mut v = self
            .samples_ns
            .lock()
            .expect("clock samples poisoned by a panicking selector")
            .clone();
        v.sort_unstable();
        v
    }
}

/// An [`ApSelector`] that times every `select_batch` call of the policy it
/// wraps: the wait of an arriving batch of users for its APs.
pub struct TimedSelector<S> {
    inner: S,
    clock: Arc<Clock>,
}

impl<S: ApSelector> TimedSelector<S> {
    /// Wraps `inner`, recording into `clock`.
    pub fn new(inner: S, clock: &Arc<Clock>) -> Self {
        TimedSelector {
            inner,
            clock: Arc::clone(clock),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ApSelector> ApSelector for TimedSelector<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn last_batch_meta(&self) -> Option<&[DecisionMeta]> {
        self.inner.last_batch_meta()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> usize {
        self.inner.select(ctx)
    }

    fn select_batch(&mut self, users: &[ArrivalUser], candidates: &[ApView<'_>]) -> Vec<usize> {
        let start = Instant::now();
        let picks = self.inner.select_batch(users, candidates);
        self.clock.record(start.elapsed());
        picks
    }
}

/// FNV-1a over bytes written to it: the session-record digest. Rows are
/// hashed in the session CSV format, so a digest names exactly the file
/// `s3wlan replay` would write for the same records.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Adds one session record as its CSV row.
    pub fn record(&mut self, r: &SessionRecord) {
        csv::write_session_row(&mut *self, r).expect("hashing never fails");
    }

    /// Digest of `records` in canonical `(connect, user, ap)` order — the
    /// order every engine entry point emits.
    pub fn of_records(records: &[SessionRecord]) -> u64 {
        let mut sorted: Vec<&SessionRecord> = records.iter().collect();
        sorted.sort_by_key(|r| (r.connect, r.user, r.ap));
        let mut d = Digest::default();
        for r in sorted {
            d.record(r);
        }
        d.value()
    }
}

impl Write for Digest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A [`DemandSource`] that times every `next_demand` call of the source
/// it wraps and drops demands arriving before `first_day` (the training
/// prefix of a compare workload's file), counting every row it read.
pub struct TimedSource<S> {
    inner: S,
    first_day: u64,
    busy: Duration,
    rows: u64,
}

impl<S: DemandSource> TimedSource<S> {
    /// Wraps `inner`, yielding only demands of day `first_day` onwards.
    pub fn new(inner: S, first_day: u64) -> Self {
        TimedSource {
            inner,
            first_day,
            busy: Duration::ZERO,
            rows: 0,
        }
    }

    /// Seconds spent inside `next_demand`.
    pub fn busy_s(&self) -> f64 {
        secs(self.busy)
    }

    /// Rows read, including dropped ones.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

impl<S: DemandSource> DemandSource for TimedSource<S> {
    fn next_demand(&mut self) -> Result<Option<SessionDemand>, CsvError> {
        let start = Instant::now();
        let next = loop {
            match self.inner.next_demand() {
                Ok(Some(d)) => {
                    self.rows += 1;
                    if d.arrive.day() >= self.first_day {
                        break Ok(Some(d));
                    }
                }
                other => break other,
            }
        };
        self.busy += start.elapsed();
        next
    }
}

/// The streamed replay's [`RecordSink`]: folds each record into the
/// streaming balance accumulator and formats it as a session-CSV row (into
/// the digest instead of a file, so disk speed stays out of the numbers).
/// Also counts records whose AP is outside their controller domain.
pub struct BalanceSink<'t> {
    topology: &'t Topology,
    balance: StreamingBalance,
    digest: Digest,
    busy: Duration,
    records: u64,
    misplaced: u64,
}

impl<'t> BalanceSink<'t> {
    /// A sink accumulating balance over the report bins.
    pub fn new(topology: &'t Topology) -> Self {
        BalanceSink {
            topology,
            balance: StreamingBalance::new(crate::REPORT_BIN),
            digest: Digest::default(),
            busy: Duration::ZERO,
            records: 0,
            misplaced: 0,
        }
    }

    /// Closes the accumulator: the mean balance over bins passing
    /// `hours`, with the sink's totals.
    pub fn finish(self, hours: impl Fn(u64) -> bool) -> SinkReport {
        let start = Instant::now();
        let balance = self.balance.finish(hours);
        SinkReport {
            balance,
            busy_s: secs(self.busy + start.elapsed()),
            records: self.records,
            misplaced: self.misplaced,
            digest: self.digest.value(),
        }
    }
}

/// What a [`BalanceSink`] saw over one replay.
#[derive(Debug, Clone, Copy)]
pub struct SinkReport {
    /// Mean daytime balance index (`None` without an active bin).
    pub balance: Option<f64>,
    /// Seconds spent inside `emit` and the closing balance pass.
    pub busy_s: f64,
    /// Records emitted.
    pub records: u64,
    /// Records placed on an AP outside their controller domain.
    pub misplaced: u64,
    /// Digest of the emitted record stream.
    pub digest: u64,
}

impl RecordSink for BalanceSink<'_> {
    fn emit(&mut self, record: SessionRecord) -> io::Result<()> {
        let start = Instant::now();
        if self
            .topology
            .ap(record.ap)
            .is_none_or(|info| info.controller != record.controller)
        {
            self.misplaced += 1;
        }
        self.balance.observe(&record);
        self.digest.record(&record);
        self.records += 1;
        self.busy += start.elapsed();
        Ok(())
    }
}

/// A [`RecordSink`] that writes the `s3-dtrace/1` decision log through a
/// [`TraceSink`] and keeps the session records the trace sink discards, so
/// a traced replay can be compared with the plain one.
pub struct TracedSink<W: Write> {
    trace: TraceSink<W>,
    records: Vec<SessionRecord>,
}

impl<W: Write> TracedSink<W> {
    /// Wraps a trace sink.
    pub fn new(trace: TraceSink<W>) -> Self {
        TracedSink {
            trace,
            records: Vec::new(),
        }
    }

    /// The kept records and the trace sink, for finishing.
    pub fn into_parts(self) -> (Vec<SessionRecord>, TraceSink<W>) {
        (self.records, self.trace)
    }
}

impl<W: Write> RecordSink for TracedSink<W> {
    fn emit(&mut self, record: SessionRecord) -> io::Result<()> {
        self.records.push(record.clone());
        self.trace.emit(record)
    }

    fn observe(&mut self, event: &TraceEvent<'_>) -> io::Result<()> {
        self.trace.observe(event)
    }
}

/// Difference between two `s3_obs` snapshots: what one stretch of the
/// benchmark added to the program's own counters.
#[derive(Debug)]
pub struct ObsDelta {
    before: Snapshot,
    after: Snapshot,
}

impl ObsDelta {
    /// Captures the registry now; call [`ObsDelta::close`] after the work.
    pub fn open() -> Self {
        let before = s3_obs::global().snapshot();
        ObsDelta {
            after: before.clone(),
            before,
        }
    }

    /// Captures the registry again, ending the stretch.
    pub fn close(mut self) -> Self {
        self.after = s3_obs::global().snapshot();
        self
    }

    fn read(snapshot: &Snapshot, name: &str) -> (f64, f64) {
        match snapshot.get(name).map(|m| &m.value) {
            Some(MetricValue::Counter(n)) => (*n as f64, 0.0),
            Some(MetricValue::Gauge(g)) => (*g, 0.0),
            Some(MetricValue::Histogram { count, sum, .. }) => (*sum as f64, *count as f64),
            None => (0.0, 0.0),
        }
    }

    /// Added total of a counter, or added sum of a histogram.
    pub fn total(&self, name: &str) -> f64 {
        Self::read(&self.after, name).0 - Self::read(&self.before, name).0
    }

    /// Added observation count of a histogram.
    pub fn count(&self, name: &str) -> f64 {
        Self::read(&self.after, name).1 - Self::read(&self.before, name).1
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}
