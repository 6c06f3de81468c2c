//! The S³ pipeline benchmark: one command per workload that generates a
//! trace from a seed, drives the pipeline through the public functions of
//! `s3-trace`, `s3-stats`, `s3-core` and `s3-wlan`, checks the outputs and
//! reports every metric by name and unit. See `README.md` in this
//! directory for the workloads and the layer map.

#![forbid(unsafe_code)]

pub mod check;
pub mod compare;
pub mod probe;
pub mod stream;

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use s3_trace::csv;
use s3_trace::generator::{CampusConfig, CampusGenerator};
use s3_types::TimeDelta;

use crate::probe::{median, timed, Pace};

/// The balance-index bin and hour filter of every `s3wlan` report.
pub(crate) const REPORT_BIN: TimeDelta = TimeDelta::minutes(10);

/// Bins starting at 08:00 or later count as daytime.
pub(crate) fn daytime(hour: u64) -> bool {
    hour >= 8
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Upper limit on worker threads and shards, whatever the host offers.
const MAX_THREADS: usize = 2;

/// How a workload drives the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Flow {
    /// The `s3wlan compare` flow: train S³ on the first `train_days` days
    /// replayed under LLF, then replay the remaining days under LLF and S³.
    Compare {
        /// Days of history S³ trains on.
        train_days: u64,
        /// Pinned number of user types; `None` runs the gap statistic.
        fixed_k: Option<usize>,
    },
    /// The `s3wlan replay --stream` flow under LLF, sharded.
    Stream,
}

/// One benchmark workload: a generated campus and the flow run over it.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: String,
    /// Trace generator settings.
    pub campus: CampusConfig,
    /// The pipeline driven over the trace.
    pub flow: Flow,
}

impl Workload {
    /// A workload over a generated campus of the given shape.
    pub fn new(
        name: &str,
        (users, buildings, aps_per_building, days): (usize, usize, usize, u64),
        flow: Flow,
    ) -> Workload {
        Workload {
            name: name.to_string(),
            campus: CampusConfig {
                users,
                buildings,
                aps_per_building,
                days,
                ..CampusConfig::campus()
            },
            flow,
        }
    }

    /// The workload's name and trace shape: the key under which the run
    /// ledger and the recorded digests file its runs, so a workload whose
    /// shape changes starts a fresh record.
    pub fn key(&self) -> String {
        let c = &self.campus;
        format!(
            "{}:{}x{}x{}x{}",
            self.name, c.users, c.buildings, c.aps_per_building, c.days
        )
    }

    /// The named benchmark workload.
    ///
    /// `paper-3wk` and `district-day` are the workloads of `BENCHMARK.json`.
    /// Their passes take 2–3 s, so a run holds a dozen passes and samples
    /// the host's pace densely; at full population size one pass takes
    /// about 20 s and two passes per run left a 15–25 % run-to-run spread.
    /// The `-full` variants and `city-stream` run by hand.
    pub fn named(name: &str) -> Option<Workload> {
        let paper = Flow::Compare {
            train_days: 15,
            fixed_k: None,
        };
        let district = Flow::Compare {
            train_days: 1,
            fixed_k: Some(4),
        };
        Some(match name {
            // The paper's protocol: 15 training days (the look-back plateau
            // of Fig 6), one evaluation week, k by gap statistic; a third of
            // the SJTU population on 120 APs ...
            "paper-3wk" => Workload::new(name, (4_000, 12, 10, 22), paper),
            // ... and the SJTU-sized campus itself: 12,374 users, 330 APs.
            "paper-3wk-full" => Workload::new(name, (12_374, 22, 15, 22), paper),
            // A dense district retrained daily with the paper's k pinned:
            // quadratic per-AP mining and wide arrival batches, gap bypassed.
            "district-day" => Workload::new(name, (25_000, 16, 16, 2), district),
            "district-day-full" => Workload::new(name, (100_000, 64, 16, 2), district),
            // A city streamed off disk under LLF: ingest, engine and shard
            // pipeline only.
            "city-stream" => Workload::new(name, (1_000_000, 1_250, 8, 1), Flow::Stream),
            _ => return None,
        })
    }
}

/// Run settings from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: the same seed generates the same trace.
    pub seed: u64,
    /// The pipeline repeats until this many seconds have been measured
    /// (at least once).
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end metrics of a plain one.
    pub trace: bool,
    /// Directory for the generated trace and the run ledger.
    pub workdir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit token.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result line of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Demands attempted (placements the checks cover).
    pub attempted: u64,
    /// Misplaced demands plus failed output checks.
    pub failed: u64,
    /// The reported metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Named values collected by a flow, checked against a declared metric
/// list when the outcome is built.
#[derive(Debug, Default)]
pub(crate) struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The last value recorded under `name` (0 when none was).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// The metrics of `spec` (`(name, unit)` pairs) in order.
    ///
    /// # Panics
    ///
    /// When a declared metric was not recorded, or a recorded value is
    /// not finite — both bugs in a flow.
    pub fn select(&self, spec: &[(&'static str, &'static str)]) -> Vec<Metric> {
        spec.iter()
            .map(|&(name, unit)| {
                let value = self
                    .0
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not recorded"))
                    .1;
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                Metric { name, unit, value }
            })
            .collect()
    }
}

/// What the set-up phase left behind.
#[derive(Debug)]
pub(crate) struct Setup {
    /// The demand CSV.
    pub csv: PathBuf,
    /// Median wall seconds of generation plus CSV write.
    pub setup_s: f64,
    /// Median seconds of trace generation alone.
    pub generate_s: f64,
    /// Median seconds of the CSV write alone.
    pub write_s: f64,
}

/// Worker threads and shards for this host: `nproc`, at most
/// [`MAX_THREADS`].
pub(crate) fn threads() -> usize {
    host_cpus().min(MAX_THREADS)
}

/// CPUs available to this process.
pub(crate) fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Generates the workload's trace and writes it as a demand CSV,
/// [`SETUP_REPS`] times, timing each.
///
/// # Errors
///
/// When the CSV cannot be written.
pub(crate) fn setup(
    workload: &Workload,
    seed: u64,
    workdir: &Path,
    pace: &mut Pace,
) -> io::Result<Setup> {
    let csv_path = workdir.join(format!("{}-{seed}.csv", workload.name));
    let (mut total, mut generate, mut write) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (campus, gen_s) =
            timed(|| CampusGenerator::new(workload.campus.clone(), seed).generate_par(threads()));
        let (written, write_s) = timed(|| -> io::Result<()> {
            let mut out = BufWriter::new(File::create(&csv_path)?);
            csv::write_demands(&mut out, &campus.demands)?;
            out.flush()
        });
        written?;
        pace.sample();
        total.push(gen_s + write_s);
        generate.push(gen_s);
        write.push(write_s);
    }
    Ok(Setup {
        csv: csv_path,
        setup_s: median(total),
        generate_s: median(generate),
        write_s: median(write),
    })
}

/// Runs `workload`: set-up, the measured pipeline, the output checks and,
/// when traced, the per-layer probes.
///
/// # Errors
///
/// I/O or CSV failures; the generated inputs never cause one.
pub fn run(workload: &Workload, opts: &Options) -> io::Result<Outcome> {
    std::fs::create_dir_all(&opts.workdir)?;
    let mut pace = Pace::new(threads());
    let setup = setup(workload, opts.seed, &opts.workdir, &mut pace)?;
    let outcome = match &workload.flow {
        Flow::Compare {
            train_days,
            fixed_k,
        } => compare::run(workload, *train_days, *fixed_k, &setup, &mut pace, opts),
        Flow::Stream => stream::run(workload, &setup, &mut pace, opts),
    };
    std::fs::remove_file(&setup.csv)?;
    outcome
}

/// Repeats `pass` until its passes have taken `seconds` (at least once).
pub(crate) fn repeat<T>(
    seconds: f64,
    mut pass: impl FnMut() -> io::Result<(T, f64)>,
) -> io::Result<Vec<T>> {
    let mut out = Vec::new();
    let mut spent = 0.0;
    while out.is_empty() || spent < seconds {
        let (value, took) = pass()?;
        out.push(value);
        spent += took;
    }
    Ok(out)
}

/// Relative difference below which two balance indices count as equal:
/// the store and streaming paths sum the same terms in different orders.
pub(crate) const BALANCE_TOLERANCE: f64 = 1e-9;

/// Whether two balance indices agree within [`BALANCE_TOLERANCE`].
pub(crate) fn same_balance(a: f64, b: f64) -> bool {
    (a - b).abs() <= BALANCE_TOLERANCE * a.abs().max(b.abs())
}

/// Tally of failed output checks; each failure is also named on stderr.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    failed: u64,
}

impl Checks {
    /// Counts one failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: &str) {
        if !ok {
            self.add(1, what);
        }
    }

    /// Counts `n` failures (misplaced demands and the like).
    pub fn add(&mut self, n: u64, what: &str) {
        if n > 0 {
            eprintln!("check failed: {what} ({n})");
            self.failed += n;
        }
    }

    /// Failures so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}
