//! The streamed flow (`city-stream`): the `s3wlan replay --stream` pipeline
//! under LLF, with demands pulled off the CSV and records pushed into a
//! streaming balance accumulator, sharded over the host's CPUs. The same
//! streamed replay re-runs a compare workload's LLF evaluation in its
//! traced run.

use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use s3_trace::generator::CampusConfig;
use s3_trace::ingest::{DemandReader, IngestMode};
use s3_wlan::engine::StreamSource;
use s3_wlan::selector::LeastLoadedFirst;
use s3_wlan::{ApSelector, SimConfig, SimEngine, Topology};

use crate::check::{Entry, Ledger};
use crate::probe::{
    median, peak_rss_mib, secs, timed, BalanceSink, Clock, ObsDelta, Pace, SinkReport,
    TimedSelector, TimedSource,
};
use crate::{
    daytime, host_cpus, repeat, threads, Checks, Options, Outcome, Setup, Values, Workload,
};

/// End-to-end metrics of a plain streamed run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pipeline_s", "s"),
    ("llf_replay_demands_per_s", "1/s"),
    ("llf_balance", "index"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of a traced streamed run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host_cpus", "count"),
    ("host.reference_s", "s"),
    ("failed_frac", "ratio"),
    ("pipeline.traced_s", "s"),
    ("pipeline.tracing_overhead_s", "s"),
    ("pipeline.unattributed_s", "s"),
    ("trace.generate_s", "s"),
    ("trace.csv_write_s", "s"),
    ("trace.scan_s", "s"),
    ("stream.replay_s", "s"),
    ("stream.demands_per_s", "1/s"),
    ("stream.ingest_s", "s"),
    ("stream.rows", "count"),
    ("stream.ingest_mb_per_s", "MB/s"),
    ("stream.select_s", "s"),
    ("stream.sink_s", "s"),
    ("wlan.shard.merge_s", "s"),
    ("wlan.shard.barrier_wait_s", "s"),
    ("wlan.shard.select_s", "s"),
    ("wlan.shard.chunks", "count"),
    ("wlan.engine.events_processed", "count"),
    ("wlan.engine.batches", "count"),
];

/// One streamed LLF replay, as the probes saw it.
#[derive(Debug)]
pub(crate) struct StreamRun {
    /// Wall clock of the replay, closing balance pass included.
    replay_s: f64,
    /// Seconds inside `next_demand` (CSV parse), and rows read.
    ingest_s: f64,
    /// Rows read, including a skipped training prefix.
    rows: u64,
    /// Size of the CSV, bytes.
    bytes: u64,
    /// Seconds inside LLF `select_batch`, summed over shards.
    select_s: f64,
    /// The sink's view of the run.
    pub(crate) sink: SinkReport,
    /// Rejections plus migrations.
    pub(crate) disruptions: usize,
    /// The program's counters over the replay.
    obs: ObsDelta,
}

impl StreamRun {
    /// Records the replay's per-layer metrics.
    pub(crate) fn report(&self, v: &mut Values) {
        v.set("stream.replay_s", self.replay_s);
        v.set(
            "stream.demands_per_s",
            self.sink.records as f64 / self.replay_s,
        );
        v.set("stream.ingest_s", self.ingest_s);
        v.set("stream.rows", self.rows as f64);
        v.set(
            "stream.ingest_mb_per_s",
            self.bytes as f64 / 1e6 / self.ingest_s,
        );
        v.set("stream.select_s", self.select_s);
        v.set("stream.sink_s", self.sink.busy_s);
        v.set(
            "wlan.shard.merge_s",
            self.obs.total("wlan.shard.merge_micros") / 1e6,
        );
        v.set(
            "wlan.shard.barrier_wait_s",
            self.obs.total("wlan.shard.barrier_wait_micros") / 1e6,
        );
        v.set(
            "wlan.shard.select_s",
            self.obs.total("wlan.shard.select_micros") / 1e6,
        );
        v.set("wlan.shard.chunks", self.obs.total("wlan.shard.chunks"));
    }
}

/// Replays the demands of `csv` from day `first_day` on under LLF through
/// `SimEngine::run_sharded_streamed` with `shards` shards.
///
/// # Errors
///
/// I/O, CSV or engine failures.
pub(crate) fn replay(
    engine: &SimEngine,
    csv: &Path,
    first_day: u64,
    shards: usize,
) -> io::Result<StreamRun> {
    let bytes = std::fs::metadata(csv)?.len();
    let start = Instant::now();
    let reader = DemandReader::new(BufReader::new(File::open(csv)?), IngestMode::Strict)
        .map_err(io::Error::other)?;
    let mut source = TimedSource::new(StreamSource::new(reader), first_day);
    let clocks: Vec<Arc<Clock>> = (0..shards).map(|_| Clock::shared()).collect();
    let mut selectors: Vec<Box<dyn ApSelector + Send>> = clocks
        .iter()
        .map(|c| {
            Box::new(TimedSelector::new(LeastLoadedFirst::new(), c)) as Box<dyn ApSelector + Send>
        })
        .collect();
    let mut sink = BalanceSink::new(engine.topology());
    let obs = ObsDelta::open();
    let totals = engine
        .run_sharded_streamed(&mut source, &mut selectors, &mut sink)
        .map_err(io::Error::other)?;
    let obs = obs.close();
    let sink = sink.finish(daytime);
    Ok(StreamRun {
        replay_s: secs(start.elapsed()),
        ingest_s: source.busy_s(),
        rows: source.rows(),
        bytes,
        select_s: clocks.iter().map(|c| c.busy_s()).sum(),
        sink,
        disruptions: totals.rejected + totals.migrations,
        obs,
    })
}

/// The extent scan `replay --stream` makes before replaying: demand count
/// and building count, enforcing the `(arrive, user)` order.
fn scan(csv: &Path) -> io::Result<(u64, usize)> {
    let reader = DemandReader::new(BufReader::new(File::open(csv)?), IngestMode::Strict)
        .map_err(io::Error::other)?
        .without_publish();
    let (mut count, mut buildings, mut last) = (0u64, 0usize, None);
    for row in reader {
        let d = row.map_err(io::Error::other)?;
        let key = (d.arrive, d.user);
        if last.is_some_and(|prev| key < prev) {
            return Err(io::Error::other(format!(
                "{} is not sorted by (arrive, user)",
                csv.display()
            )));
        }
        last = Some(key);
        count += 1;
        buildings = buildings.max(d.building.index() + 1);
    }
    Ok((count, buildings))
}

/// Runs a streamed workload.
///
/// # Errors
///
/// I/O, CSV or engine failures.
pub(crate) fn run(
    workload: &Workload,
    setup: &Setup,
    pace: &mut Pace,
    opts: &Options,
) -> io::Result<Outcome> {
    let shards = threads();
    let (mut last, mut peak_rss) = (None, None);
    let seconds = if opts.trace { 0.0 } else { opts.seconds };
    let passes = repeat(seconds, || {
        last = None;
        let start = Instant::now();
        let (scanned, scan_s) = timed(|| scan(&setup.csv));
        let (count, buildings) = scanned?;
        let topology = Topology::from_campus(&CampusConfig {
            buildings,
            aps_per_building: workload.campus.aps_per_building,
            ..CampusConfig::campus()
        });
        let engine = SimEngine::new(topology, SimConfig::default());
        let run = replay(&engine, &setup.csv, 0, shards)?;
        let pipeline_s = secs(start.elapsed());
        last = Some((count, run));
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }
        pace.sample();
        Ok(((pipeline_s, scan_s), pipeline_s))
    })?;
    let (count, run) = last.expect("repeat runs at least one pass");
    let raw_pipeline_s = median(passes.iter().map(|p| p.0));
    let pipeline_s = pace.seconds(raw_pipeline_s);

    let mut checks = Checks::default();
    checks.add(
        run.sink.misplaced + run.disruptions as u64,
        "streamed LLF misplacements",
    );
    checks.expect(run.sink.records == count, "one session record per demand");
    let mut ledger = Ledger::load(&opts.workdir.join("ledger.tsv"))?;
    checks.expect(
        ledger.llf_agrees(&workload.key(), opts.seed, run.sink.digest),
        "LLF session digest matches the recorded one",
    );
    let balance = run
        .sink
        .balance
        .ok_or_else(|| io::Error::other("no active bins"))?;

    let mut v = Values::default();
    v.set("pipeline_s", pipeline_s);
    v.set(
        "llf_replay_demands_per_s",
        pace.per_second(count as f64 / run.replay_s),
    );
    v.set("llf_balance", balance);
    v.set("setup_s", pace.seconds(setup.setup_s));
    v.set("peak_rss_mib", peak_rss.expect("set by the first pass"));
    v.set("failed_frac", checks.failed() as f64 / count as f64);
    if opts.trace {
        let scan_s = median(passes.iter().map(|p| p.1));
        v.set("host_cpus", host_cpus() as f64);
        v.set("host.reference_s", pace.reference_s());
        v.set("pipeline.traced_s", raw_pipeline_s);
        let plain = ledger.plain_pipeline_s(&workload.key(), opts.seed);
        v.set(
            "pipeline.tracing_overhead_s",
            plain.map_or(0.0, |p| pipeline_s - p),
        );
        v.set(
            "pipeline.unattributed_s",
            raw_pipeline_s - scan_s - run.replay_s,
        );
        v.set("trace.generate_s", setup.generate_s);
        v.set("trace.csv_write_s", setup.write_s);
        v.set("trace.scan_s", scan_s);
        run.report(&mut v);
        v.set(
            "wlan.engine.events_processed",
            run.obs.total("wlan.engine.events_processed"),
        );
        v.set("wlan.engine.batches", run.obs.total("wlan.engine.batches"));
    }
    ledger.append(Entry {
        workload: workload.key(),
        seed: opts.seed,
        traced: opts.trace,
        pipeline_s,
        llf: run.sink.digest,
        s3: None,
    })?;
    Ok(Outcome {
        attempted: count,
        failed: checks.failed(),
        metrics: v.select(if opts.trace { PER_LAYER } else { END_TO_END }),
    })
}
