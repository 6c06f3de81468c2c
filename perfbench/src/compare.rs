//! The compare flow (`paper-3wk`, `district-day`): the `s3wlan compare`
//! pipeline from the demand CSV to both balance indices, timed stage by
//! stage, then — in a traced run — the learning components timed on their
//! own, the S³ decision log recorded and checked, and the LLF evaluation
//! replayed again off the CSV through the streamed, sharded engine.

use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufReader};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use s3_core::profile::{all_window_profiles, demand_estimates};
use s3_core::{S3Config, S3Selector, SocialModel};
use s3_stats::gap::{gap_statistic, GapConfig};
use s3_stats::kmeans::{self, KMeansConfig};
use s3_trace::decision_log::config_hash;
use s3_trace::events::{coleave_given_encounter, extract_coleavings_par, extract_encounters_par};
use s3_trace::generator::CampusConfig;
use s3_trace::{csv, SessionDemand, TraceStore};
use s3_types::UserId;
use s3_wlan::engine::{check_log, trace_header, SliceSource, TraceSink};
use s3_wlan::metrics::mean_active_balance_filtered;
use s3_wlan::selector::LeastLoadedFirst;
use s3_wlan::{SimConfig, SimEngine, Topology};

use crate::check::{misplaced, Entry, Ledger};
use crate::probe::{
    median, peak_rss_mib, quantile, secs, timed, Clock, Digest, ObsDelta, Pace, TimedSelector,
    TracedSink,
};
use crate::{
    daytime, host_cpus, repeat, same_balance, stream, threads, Checks, Options, Outcome, Setup,
    Values, Workload, REPORT_BIN,
};

/// End-to-end metrics of a plain compare run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pipeline_s", "s"),
    ("train_s", "s"),
    ("s3_replay_demands_per_s", "1/s"),
    ("select_p99_us", "us"),
    ("s3_balance", "index"),
    ("llf_balance", "index"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of a traced compare run. The first two are end-to-end
/// in kind but too short-lived to repeat within a bound on a shared host:
/// one LLF replay and the median S³ batch each take a blink, so a change in
/// the host's speed regime moves them by a third between runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("llf_replay_demands_per_s", "1/s"),
    ("select_p50_us", "us"),
    ("host_cpus", "count"),
    ("host.reference_s", "s"),
    ("failed_frac", "ratio"),
    ("pipeline.traced_s", "s"),
    ("pipeline.tracing_overhead_s", "s"),
    ("pipeline.unattributed_s", "s"),
    ("trace.generate_s", "s"),
    ("trace.csv_write_s", "s"),
    ("trace.ingest.busy_s", "s"),
    ("trace.ingest.rows", "count"),
    ("trace.ingest.mb_per_s", "MB/s"),
    ("wlan.engine.history_s", "s"),
    ("core.learn.busy_s", "s"),
    ("core.learn.self_s", "s"),
    ("trace.events.mine_s", "s"),
    ("trace.events.encounter_pairs_scanned", "count"),
    ("trace.events.encounters_found", "count"),
    ("trace.events.coleavings_found", "count"),
    ("core.profile.busy_s", "s"),
    ("stats.gap.busy_s", "s"),
    ("stats.gap.fits", "count"),
    ("stats.gap.chosen_k", "count"),
    ("stats.kmeans.busy_s", "s"),
    ("stats.kmeans.iterations_sum", "count"),
    ("core.compile.busy_s", "s"),
    ("core.model.csr_edges", "count"),
    ("core.model.types", "count"),
    ("core.select.busy_s", "s"),
    ("core.select.calls", "count"),
    ("core.select.p999_us", "us"),
    ("core.batch.candidates_enumerated", "count"),
    ("core.batch.cliques_assigned", "count"),
    ("core.batch.candidates_per_clique", "ratio"),
    ("core.batch.capacity_rejections", "count"),
    ("core.cost.delta_evals", "count"),
    ("core.s3_output_variants", "count"),
    ("wlan.engine.s3_self_s", "s"),
    ("wlan.engine.llf_self_s", "s"),
    ("wlan.engine.llf_select_s", "s"),
    ("wlan.engine.events_processed", "count"),
    ("wlan.engine.batches", "count"),
    ("wlan.metrics.balance_llf_s", "s"),
    ("wlan.metrics.balance_s3_s", "s"),
    ("wlan.metrics.balance_samples", "count"),
    ("wlan.trace.records", "count"),
    ("wlan.trace.check_violations", "count"),
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
];

/// Extra LLF evaluation replays after each pass, outside its window: one
/// LLF replay takes a fraction of a second, too short for one timing to be
/// steady on a shared host, so the reported throughput is the median over
/// these and the passes' own replays.
const EXTRA_LLF_REPLAYS: usize = 4;

/// Stage timings of one pipeline pass, seconds unless named otherwise.
#[derive(Debug, Clone)]
struct Pass {
    pipeline_s: f64,
    ingest_s: f64,
    rows: usize,
    history_s: f64,
    learn_s: f64,
    compile_s: f64,
    train_s: f64,
    llf_replay_s: f64,
    /// The extra LLF replays made after the pass.
    llf_extra_s: Vec<f64>,
    llf_select_s: f64,
    s3_replay_s: f64,
    s3_select_s: f64,
    balance_llf_s: f64,
    balance_s3_s: f64,
    llf_balance: f64,
    s3_balance: f64,
}

/// What the last pass leaves for the checks and the traced probes.
struct Kept {
    engine: SimEngine,
    eval: Vec<SessionDemand>,
    /// The training log and the learned model, kept for the probes of a
    /// traced run only: `s3wlan compare` frees the log after learning.
    trained: Option<(TraceStore, SocialModel)>,
    llf_log: TraceStore,
    s3_log: TraceStore,
    /// Rejections plus migrations over both evaluation replays.
    disruptions: usize,
}

/// The topology `s3wlan` builds for a demand file: as many buildings as
/// the demands name, `aps_per_building` APs each.
pub fn topology_for(demands: &[SessionDemand], aps_per_building: usize) -> Topology {
    let buildings = demands
        .iter()
        .map(|d| d.building.index() + 1)
        .max()
        .unwrap_or(1);
    Topology::from_campus(&CampusConfig {
        buildings,
        aps_per_building,
        ..CampusConfig::campus()
    })
}

/// One pass of the compare pipeline, as `s3wlan compare` runs it, with
/// `pace` sampled between stages. S³
/// selection always goes through `s3_clock` (its per-batch latency is an
/// end-to-end metric); LLF selection is timed only when `traced`.
#[allow(clippy::too_many_arguments)]
fn pipeline(
    csv_path: &Path,
    aps_per_building: usize,
    train_days: u64,
    config: &S3Config,
    seed: u64,
    traced: bool,
    s3_clock: &Arc<Clock>,
    pace: &mut Pace,
) -> io::Result<(Pass, Kept)> {
    let start = Instant::now();
    // Pace samples between stages; their time is taken out of the walls.
    let mut paused = 0.0;
    let (demands, ingest_s) = timed(|| -> io::Result<Vec<SessionDemand>> {
        let file = File::open(csv_path)?;
        let mut demands = csv::read_demands(BufReader::new(file)).map_err(io::Error::other)?;
        demands.sort_by_key(|d| (d.arrive, d.user));
        Ok(demands)
    });
    let demands = demands?;
    let engine = SimEngine::new(
        topology_for(&demands, aps_per_building),
        SimConfig::default(),
    );
    paused += pace.sample();

    let train_start = Instant::now();
    let paused_before_train = paused;
    let history: Vec<SessionDemand> = demands
        .iter()
        .filter(|d| d.arrive.day() < train_days)
        .cloned()
        .collect();
    let (history_log, history_s) =
        timed(|| TraceStore::new(engine.run(&history, &mut LeastLoadedFirst::new()).records));
    paused += pace.sample();
    let (model, learn_s) = timed(|| SocialModel::learn(&history_log, config, seed));
    let history_log = traced.then_some(history_log);
    paused += pace.sample();
    let (s3, compile_s) = timed(|| S3Selector::new(model, config.clone()));
    let train_s = secs(train_start.elapsed()) - (paused - paused_before_train);
    paused += pace.sample();

    let eval: Vec<SessionDemand> = demands
        .iter()
        .filter(|d| d.arrive.day() >= train_days)
        .cloned()
        .collect();
    let llf_clock = Clock::shared();
    let (llf, llf_replay_s) = if traced {
        timed(|| {
            engine.run(
                &eval,
                &mut TimedSelector::new(LeastLoadedFirst::new(), &llf_clock),
            )
        })
    } else {
        timed(|| engine.run(&eval, &mut LeastLoadedFirst::new()))
    };
    paused += pace.sample();
    let mut s3 = TimedSelector::new(s3, s3_clock);
    let select_before = s3_clock.busy_s();
    let (s3_result, s3_replay_s) = timed(|| engine.run(&eval, &mut s3));
    paused += pace.sample();
    let s3_select_s = s3_clock.busy_s() - select_before;
    let disruptions = llf.rejected + llf.migrations + s3_result.rejected + s3_result.migrations;

    let balance = |records| {
        let log = TraceStore::new(records);
        let b = mean_active_balance_filtered(&log, REPORT_BIN, daytime);
        (log, b)
    };
    let ((llf_log, llf_balance), balance_llf_s) = timed(|| balance(llf.records));
    paused += pace.sample();
    let ((s3_log, s3_balance), balance_s3_s) = timed(|| balance(s3_result.records));
    let pipeline_s = secs(start.elapsed()) - paused;
    pace.sample();
    let (Some(llf_balance), Some(s3_balance)) = (llf_balance, s3_balance) else {
        return Err(io::Error::other("no active evaluation bins"));
    };

    let pass = Pass {
        pipeline_s,
        ingest_s,
        rows: demands.len(),
        history_s,
        learn_s,
        compile_s,
        train_s,
        llf_replay_s,
        llf_extra_s: (0..EXTRA_LLF_REPLAYS)
            .map(|_| timed(|| engine.run(&eval, &mut LeastLoadedFirst::new())).1)
            .collect(),
        llf_select_s: llf_clock.busy_s(),
        s3_replay_s,
        s3_select_s,
        balance_llf_s,
        balance_s3_s,
        llf_balance,
        s3_balance,
    };
    let kept = Kept {
        engine,
        eval,
        trained: history_log.map(|log| (log, s3.inner().model().clone())),
        llf_log,
        s3_log,
        disruptions,
    };
    Ok((pass, kept))
}

/// Runs a compare workload.
///
/// # Errors
///
/// I/O or CSV failures.
pub(crate) fn run(
    workload: &Workload,
    train_days: u64,
    fixed_k: Option<usize>,
    setup: &Setup,
    pace: &mut Pace,
    opts: &Options,
) -> io::Result<Outcome> {
    let threads = threads();
    let config = S3Config {
        threads,
        fixed_k,
        ..S3Config::default()
    };
    let aps = workload.campus.aps_per_building;
    let s3_clock = Clock::shared();
    let (mut kept, mut peak_rss) = (None, None);
    let obs = ObsDelta::open();
    // A traced run makes one pass: its probes take the rest of the time.
    let seconds = if opts.trace { 0.0 } else { opts.seconds };
    let passes = repeat(seconds, || {
        kept = None;
        let (pass, k) = pipeline(
            &setup.csv, aps, train_days, &config, opts.seed, opts.trace, &s3_clock, pace,
        )?;
        kept = Some(k);
        // Later passes only add allocator fragmentation to the peak.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }
        let took = pass.pipeline_s;
        Ok((pass, took))
    })?;
    let obs = obs.close();
    let kept = kept.expect("repeat runs at least one pass");
    let med = |f: fn(&Pass) -> f64| median(passes.iter().map(f));
    let eval_len = kept.eval.len() as f64;
    let samples = s3_clock.sorted_samples();

    let mut checks = Checks::default();
    let topology = kept.engine.topology();
    checks.add(
        misplaced(topology, &kept.eval, kept.llf_log.records()),
        "LLF demands not placed exactly once",
    );
    checks.add(
        misplaced(topology, &kept.eval, kept.s3_log.records()),
        "S3 demands not placed exactly once",
    );
    checks.add(
        kept.disruptions as u64,
        "evaluation rejections or migrations",
    );
    checks.add(
        obs.total("wlan.engine.rejected") as u64,
        "wlan.engine.rejected",
    );
    let last = passes.last().expect("at least one pass");
    checks.expect(
        last.s3_balance > last.llf_balance,
        "S3 balance above LLF balance",
    );
    let llf_digest = Digest::of_records(kept.llf_log.records());
    let s3_digest = Digest::of_records(kept.s3_log.records());
    let mut ledger = Ledger::load(&opts.workdir.join("ledger.tsv"))?;
    checks.expect(
        ledger.llf_agrees(&workload.key(), opts.seed, llf_digest),
        "LLF session digest matches the recorded one",
    );
    let variants = ledger.s3_variants(&workload.key(), opts.seed, s3_digest);
    let mut attempted = 2 * kept.eval.len() as u64;

    // End-to-end times are scaled to the host's nominal pace; per-layer
    // times stay raw, so a traced pass's stages add up to its wall clock.
    let pipeline_s = pace.seconds(med(|p| p.pipeline_s));
    let mut v = Values::default();
    v.set("pipeline_s", pipeline_s);
    v.set("train_s", pace.seconds(med(|p| p.train_s)));
    v.set(
        "s3_replay_demands_per_s",
        pace.per_second(eval_len / med(|p| p.s3_replay_s)),
    );
    let llf_replay_s = median(
        passes
            .iter()
            .flat_map(|p| p.llf_extra_s.iter().copied().chain([p.llf_replay_s])),
    );
    v.set(
        "llf_replay_demands_per_s",
        pace.per_second(eval_len / llf_replay_s),
    );
    v.set(
        "select_p50_us",
        pace.seconds(quantile(&samples, 0.50) as f64 / 1e3),
    );
    v.set(
        "select_p99_us",
        pace.seconds(quantile(&samples, 0.99) as f64 / 1e3),
    );
    v.set("s3_balance", med(|p| p.s3_balance));
    v.set("llf_balance", med(|p| p.llf_balance));
    v.set("setup_s", pace.seconds(setup.setup_s));
    v.set("peak_rss_mib", peak_rss.expect("set by the first pass"));

    if opts.trace {
        let per_pass = passes.len() as f64;
        v.set("host_cpus", host_cpus() as f64);
        v.set("host.reference_s", pace.reference_s());
        v.set("pipeline.traced_s", med(|p| p.pipeline_s));
        let plain = ledger.plain_pipeline_s(&workload.key(), opts.seed);
        v.set(
            "pipeline.tracing_overhead_s",
            plain.map_or(0.0, |p| pipeline_s - p),
        );
        v.set(
            "pipeline.unattributed_s",
            med(|p| {
                p.pipeline_s
                    - p.ingest_s
                    - p.history_s
                    - p.learn_s
                    - p.compile_s
                    - p.llf_replay_s
                    - p.s3_replay_s
                    - p.balance_llf_s
                    - p.balance_s3_s
            }),
        );
        v.set("trace.generate_s", setup.generate_s);
        v.set("trace.csv_write_s", setup.write_s);
        v.set("trace.ingest.busy_s", med(|p| p.ingest_s));
        v.set("trace.ingest.rows", last.rows as f64);
        let mb = std::fs::metadata(&setup.csv)?.len() as f64 / 1e6;
        v.set("trace.ingest.mb_per_s", mb / med(|p| p.ingest_s));
        v.set("wlan.engine.history_s", med(|p| p.history_s));
        v.set("core.learn.busy_s", med(|p| p.learn_s));
        v.set("core.compile.busy_s", med(|p| p.compile_s));
        v.set("core.select.busy_s", med(|p| p.s3_select_s));
        v.set("core.select.calls", s3_clock.calls() as f64 / per_pass);
        v.set(
            "core.select.p999_us",
            quantile(&samples, 0.999) as f64 / 1e3,
        );
        v.set(
            "wlan.engine.s3_self_s",
            med(|p| p.s3_replay_s - p.s3_select_s),
        );
        v.set(
            "wlan.engine.llf_self_s",
            med(|p| p.llf_replay_s - p.llf_select_s),
        );
        v.set("wlan.engine.llf_select_s", med(|p| p.llf_select_s));
        v.set("wlan.metrics.balance_llf_s", med(|p| p.balance_llf_s));
        v.set("wlan.metrics.balance_s3_s", med(|p| p.balance_s3_s));
        v.set("core.s3_output_variants", variants as f64);
        // Program counters over the passes, per pass.
        for name in [
            "trace.events.encounter_pairs_scanned",
            "trace.events.encounters_found",
            "trace.events.coleavings_found",
            "stats.gap.fits",
            "core.model.csr_edges",
            "core.model.types",
            "core.batch.candidates_enumerated",
            "core.batch.cliques_assigned",
            "core.batch.capacity_rejections",
            "core.cost.delta_evals",
            "wlan.engine.events_processed",
            "wlan.engine.batches",
            "wlan.metrics.balance_samples",
        ] {
            v.set(name, obs.total(name) / per_pass);
        }
        v.set(
            "stats.kmeans.iterations_sum",
            obs.total("stats.kmeans.iterations") / per_pass,
        );
        let gap_runs = obs.count("stats.gap.chosen_k");
        v.set(
            "stats.gap.chosen_k",
            if gap_runs > 0.0 {
                obs.total("stats.gap.chosen_k") / gap_runs
            } else {
                0.0
            },
        );
        let cliques = obs.total("core.batch.cliques_assigned");
        v.set(
            "core.batch.candidates_per_clique",
            if cliques > 0.0 {
                obs.total("core.batch.candidates_enumerated") / cliques
            } else {
                0.0
            },
        );

        learning_components(&kept, &config, opts.seed, &mut v)?;
        let learn_parts = [
            "trace.events.mine_s",
            "core.profile.busy_s",
            "stats.gap.busy_s",
            "stats.kmeans.busy_s",
        ];
        v.set(
            "core.learn.self_s",
            med(|p| p.learn_s) - learn_parts.iter().map(|n| v.get(n)).sum::<f64>(),
        );

        attempted += decision_log(
            &kept,
            &config,
            train_days,
            aps,
            opts.seed,
            s3_digest,
            &mut checks,
            &mut v,
        )?;

        let streamed = stream::replay(&kept.engine, &setup.csv, train_days, threads)?;
        attempted += kept.eval.len() as u64;
        checks.add(
            streamed.sink.misplaced + streamed.disruptions as u64,
            "streamed LLF misplacements",
        );
        checks.expect(
            streamed.sink.records == kept.eval.len() as u64,
            "streamed LLF record count",
        );
        checks.expect(
            streamed.sink.digest == llf_digest,
            "streamed LLF digest equals the in-memory one",
        );
        checks.expect(
            streamed
                .sink
                .balance
                .is_some_and(|b| same_balance(b, last.llf_balance)),
            "streamed LLF balance equals the store-backed one",
        );
        streamed.report(&mut v);
    }

    v.set("failed_frac", checks.failed() as f64 / attempted as f64);
    ledger.append(Entry {
        workload: workload.key(),
        seed: opts.seed,
        traced: opts.trace,
        pipeline_s,
        llf: llf_digest,
        s3: Some(s3_digest),
    })?;
    Ok(Outcome {
        attempted,
        failed: checks.failed(),
        metrics: v.select(if opts.trace { PER_LAYER } else { END_TO_END }),
    })
}

/// Times the stages of `SocialModel::learn` on their own, on the same
/// history and settings the pipeline's learn call saw.
fn learning_components(
    kept: &Kept,
    config: &S3Config,
    seed: u64,
    v: &mut Values,
) -> io::Result<()> {
    let (log, _) = kept.trained.as_ref().expect("kept by a traced pass");
    let threads = config.effective_threads();
    let ((), mine_s) = timed(|| {
        let encounters = extract_encounters_par(log, config.encounter_min_overlap, threads);
        let coleavings = extract_coleavings_par(log, config.coleave_window, threads);
        black_box(coleave_given_encounter(&encounters, &coleavings));
    });
    let last_day = log.day_range().map_or(0, |(_, last)| last);
    let (profiles, profile_s) = timed(|| {
        let profiles = all_window_profiles(log, last_day, config.lookback_days);
        black_box(demand_estimates(log, config.demand_ewma));
        profiles
    });
    let mut users: Vec<UserId> = profiles.keys().copied().collect();
    users.sort_unstable();
    let points: Vec<Vec<f64>> = users
        .iter()
        .map(|u| profiles[u].shares().to_vec())
        .collect();
    let (k, gap_s) = match config.fixed_k {
        Some(k) => (k.min(points.len()), 0.0),
        None => {
            let gap = GapConfig {
                threads,
                ..GapConfig::default()
            };
            let (result, gap_s) =
                timed(|| gap_statistic(&points, config.k_max.min(points.len()), &gap, seed));
            (result.map_err(io::Error::other)?.chosen_k, gap_s)
        }
    };
    let kmeans_config = KMeansConfig {
        threads,
        ..KMeansConfig::default()
    };
    let (fit, kmeans_s) = timed(|| kmeans::fit(&points, k, &kmeans_config, seed));
    fit.map_err(io::Error::other)?;
    v.set("trace.events.mine_s", mine_s);
    v.set("core.profile.busy_s", profile_s);
    v.set("stats.gap.busy_s", gap_s);
    v.set("stats.kmeans.busy_s", kmeans_s);
    Ok(())
}

/// Replays the evaluation days under a fresh S³ selector on the learned
/// model through `SimEngine::run_traced`, writing the `s3-dtrace/1` log in
/// memory, and checks the log with `check_log`. The traced replay must
/// place every session exactly as the plain one did. Returns the demands
/// attempted.
#[allow(clippy::too_many_arguments)]
fn decision_log(
    kept: &Kept,
    config: &S3Config,
    train_days: u64,
    aps_per_building: usize,
    seed: u64,
    s3_digest: u64,
    checks: &mut Checks,
    v: &mut Values,
) -> io::Result<u64> {
    let canonical = format!(
        "policy=s3;seed={seed};train-days={train_days};rebalance=0;\
         aps-per-building={aps_per_building};demands={}",
        kept.eval.len()
    );
    let header = trace_header(
        kept.engine.topology(),
        seed,
        config.threads as u64,
        1,
        "s3",
        config_hash(&canonical),
    );
    let mut sink = TracedSink::new(TraceSink::new(Vec::new(), &header)?);
    let (_, model) = kept.trained.as_ref().expect("kept by a traced pass");
    let mut selector = S3Selector::new(model.clone(), config.clone());
    kept.engine
        .run_traced(&mut SliceSource::new(&kept.eval), &mut selector, &mut sink)
        .map_err(io::Error::other)?;
    let (records, trace) = sink.into_parts();
    let written = trace.records_written();
    let log = trace.finish()?;
    let report = check_log(&log[..]).map_err(io::Error::other)?;
    checks.add(
        report.violations.len() as u64,
        "s3-dtrace/1 invariant violations",
    );
    checks.expect(
        Digest::of_records(&records) == s3_digest,
        "traced S3 replay equals the plain one",
    );
    v.set("wlan.trace.records", written as f64);
    v.set(
        "wlan.trace.check_violations",
        report.violations.len() as f64,
    );
    Ok(kept.eval.len() as u64)
}
