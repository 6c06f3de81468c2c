//! Output checks: exactly-once placement, and the run ledger that compares
//! session digests across runs of one checkout.

use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use s3_trace::{SessionDemand, SessionRecord};
use s3_wlan::Topology;

/// Demands not placed exactly once by `records`, plus records that match
/// no demand, plus placements on an AP outside the demand's building.
///
/// A record matches a demand when user, interval and per-realm volumes
/// agree. Zero means every demand became exactly one session on one of
/// its building's APs.
pub fn misplaced(topology: &Topology, demands: &[SessionDemand], records: &[SessionRecord]) -> u64 {
    let mut want: Vec<_> = demands
        .iter()
        .map(|d| ((d.user, d.arrive, d.depart, d.volume_by_app), d.building))
        .collect();
    let mut got: Vec<_> = records
        .iter()
        .map(|r| ((r.user, r.connect, r.disconnect, r.volume_by_app), r.ap))
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    let (mut i, mut j, mut bad) = (0, 0, 0u64);
    while i < want.len() && j < got.len() {
        match want[i].0.cmp(&got[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if !topology.aps_of_building(want[i].1).contains(&got[j].1) {
                    bad += 1;
                }
                i += 1;
                j += 1;
                continue;
            }
        }
        bad += 1;
    }
    bad + (want.len() - i + got.len() - j) as u64
}

/// LLF session digests recorded for the gated workloads and seeds 1–30, as
/// `workload-key seed digest` lines. LLF is deterministic, so a run whose
/// digest differs from its entry has changed the program's output.
const RECORDED_LLF: &str = include_str!("../llf_digests.tsv");

/// One run as the ledger remembers it.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Workload key ([`crate::Workload::key`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub traced: bool,
    /// The run's pipeline wall clock, seconds.
    pub pipeline_s: f64,
    /// Digest of the LLF evaluation sessions.
    pub llf: u64,
    /// Digest of the S³ evaluation sessions, for workloads that run S³.
    pub s3: Option<u64>,
}

impl Entry {
    fn to_line(&self) -> String {
        let s3 = self
            .s3
            .map_or_else(|| "-".to_string(), |d| format!("{d:016x}"));
        format!(
            "{}\t{}\t{}\t{}\t{:016x}\t{s3}\n",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.pipeline_s,
            self.llf
        )
    }

    fn parse(line: &str) -> Option<Entry> {
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, seed, traced, pipeline_s, llf, s3] = f[..] else {
            return None;
        };
        Some(Entry {
            workload: workload.to_string(),
            seed: seed.parse().ok()?,
            traced: traced == "1",
            pipeline_s: pipeline_s.parse().ok()?,
            llf: u64::from_str_radix(llf, 16).ok()?,
            s3: match s3 {
                "-" => None,
                hex => Some(u64::from_str_radix(hex, 16).ok()?),
            },
        })
    }
}

/// Every earlier run of this checkout, kept as a tab-separated file in the
/// benchmark's work directory.
#[derive(Debug)]
pub struct Ledger {
    path: PathBuf,
    entries: Vec<Entry>,
}

impl Ledger {
    /// Loads the ledger at `path`; a missing file is an empty ledger and
    /// unreadable lines are ignored.
    ///
    /// # Errors
    ///
    /// When the file exists but cannot be read.
    pub fn load(path: &Path) -> io::Result<Ledger> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        Ok(Ledger {
            path: path.to_path_buf(),
            entries: text.lines().filter_map(Entry::parse).collect(),
        })
    }

    fn same_run<'a>(&'a self, workload: &'a str, seed: u64) -> impl Iterator<Item = &'a Entry> {
        self.entries
            .iter()
            .filter(move |e| e.workload == workload && e.seed == seed)
    }

    /// Whether `digest` agrees with the recorded LLF digest of `workload`
    /// and `seed` and with every earlier run of them in this checkout.
    pub fn llf_agrees(&self, workload: &str, seed: u64, digest: u64) -> bool {
        let recorded = RECORDED_LLF.lines().find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f[..] {
                [w, s, d] if w == workload && s.parse() == Ok(seed) => {
                    u64::from_str_radix(d, 16).ok()
                }
                _ => None,
            }
        });
        recorded.is_none_or(|d| d == digest)
            && self.same_run(workload, seed).all(|e| e.llf == digest)
    }

    /// Distinct S³ digests over the earlier runs of `workload` and `seed`
    /// and this one: above 1 when S³ output differs between processes.
    pub fn s3_variants(&self, workload: &str, seed: u64, digest: u64) -> usize {
        let mut seen: BTreeSet<u64> = self.same_run(workload, seed).filter_map(|e| e.s3).collect();
        seen.insert(digest);
        seen.len()
    }

    /// Median pipeline time of the untraced runs of `workload` with
    /// `seed`, or of any seed when none ran with it.
    pub fn plain_pipeline_s(&self, workload: &str, seed: u64) -> Option<f64> {
        let plain = |e: &&Entry| e.workload == workload && !e.traced;
        let same: Vec<f64> = self
            .entries
            .iter()
            .filter(plain)
            .filter(|e| e.seed == seed)
            .map(|e| e.pipeline_s)
            .collect();
        let pool = if same.is_empty() {
            self.entries
                .iter()
                .filter(plain)
                .map(|e| e.pipeline_s)
                .collect()
        } else {
            same
        };
        (!pool.is_empty()).then(|| crate::probe::median(pool))
    }

    /// Appends `entry` to the file.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn append(&mut self, entry: Entry) -> io::Result<()> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(entry.to_line().as_bytes())?;
        file.flush()?;
        self.entries.push(entry);
        Ok(())
    }
}
