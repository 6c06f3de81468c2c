//! Self-tests of the benchmark: every workload shape reports every metric
//! it declares, the declared lists match `BENCHMARK.json`, and the output
//! checks can fail.

use std::path::PathBuf;

use s3_perfbench::check::{misplaced, Entry, Ledger};
use s3_perfbench::probe::Digest;
use s3_perfbench::{compare, run, stream, Flow, Options, Workload};
use s3_trace::generator::CampusGenerator;
use s3_types::ApId;
use s3_wlan::selector::LeastLoadedFirst;
use s3_wlan::{SimConfig, SimEngine, Topology};

fn workdir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_compare() -> Workload {
    Workload::new(
        "tiny-compare",
        (300, 2, 4, 8),
        Flow::Compare {
            train_days: 6,
            fixed_k: None,
        },
    )
}

fn assert_reports(workload: &Workload, spec: &[(&str, &str)], trace: bool, dir: &str) {
    let opts = Options {
        seed: 5,
        seconds: 0.0,
        trace,
        workdir: workdir(dir),
    };
    let outcome = run(workload, &opts).expect("tiny run succeeds");
    assert!(
        outcome.correct(),
        "{} failed {} checks",
        workload.name,
        outcome.failed
    );
    assert!(outcome.attempted > 0);
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, spec);
    let line = outcome.to_json();
    for (name, unit) in spec {
        let field = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&field)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let unit_field = format!("\"unit\": \"{unit}\"}}");
        assert!(line[at..].contains(&unit_field), "{name} lacks unit {unit}");
    }
}

#[test]
fn compare_shape_reports_every_metric_with_its_unit() {
    let w = tiny_compare();
    assert_reports(&w, compare::END_TO_END, false, "compare-plain");
    assert_reports(&w, compare::PER_LAYER, true, "compare-traced");
}

#[test]
fn stream_shape_reports_every_metric_with_its_unit() {
    let w = Workload::new("tiny-stream", (500, 3, 4, 1), Flow::Stream);
    assert_reports(&w, stream::END_TO_END, false, "stream-plain");
    assert_reports(&w, stream::PER_LAYER, true, "stream-traced");
}

/// The string values of `"key": "…"` fields in `text`, in order.
fn fields(text: &str, key: &str) -> Vec<String> {
    let tag = format!("\"{key}\": \"");
    text.split(&tag)
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_the_compare_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let section = |from: &str, to: Option<&str>| -> &str {
        let start = text.find(from).unwrap_or_else(|| panic!("{from} missing"));
        let end = to.map_or(text.len(), |to| {
            text.find(to).unwrap_or_else(|| panic!("{to} missing"))
        });
        &text[start..end]
    };
    for (from, to, declared) in [
        ("\"end_to_end\"", Some("\"per_layer\""), compare::END_TO_END),
        ("\"per_layer\"", None, compare::PER_LAYER),
    ] {
        let part = section(from, to);
        let names: Vec<&str> = declared.iter().map(|m| m.0).collect();
        let units: Vec<&str> = declared.iter().map(|m| m.1).collect();
        assert_eq!(fields(part, "name"), names, "{from} names");
        assert_eq!(fields(part, "unit"), units, "{from} units");
    }
    for name in fields(section("\"workloads\"", Some("\"end_to_end\"")), "name") {
        let workload = Workload::named(&name).unwrap_or_else(|| panic!("unknown workload {name}"));
        assert!(
            matches!(workload.flow, Flow::Compare { .. }),
            "{name} reports the compare metrics"
        );
    }
}

#[test]
fn output_checks_fail_on_a_dropped_or_moved_record() {
    let campus = CampusGenerator::new(tiny_compare().campus, 3).generate();
    let topology = Topology::from_campus(&campus.config);
    let engine = SimEngine::new(topology.clone(), SimConfig::default());
    let records = engine
        .run(&campus.demands, &mut LeastLoadedFirst::new())
        .records;
    assert_eq!(misplaced(&topology, &campus.demands, &records), 0);

    let mut dropped = records.clone();
    dropped.remove(records.len() / 2);
    assert_eq!(misplaced(&topology, &campus.demands, &dropped), 1);

    let mut duplicated = records.clone();
    duplicated.push(records[0].clone());
    assert_eq!(misplaced(&topology, &campus.demands, &duplicated), 1);

    // Onto another building's AP: a placement the engine may never make.
    let mut moved = records.clone();
    let home = topology
        .ap(moved[0].ap)
        .expect("placed on a known AP")
        .building;
    let away = topology
        .aps()
        .iter()
        .find(|a| a.building != home)
        .expect("two buildings");
    moved[0].ap = away.id;
    assert_eq!(misplaced(&topology, &campus.demands, &moved), 1);

    // Onto a sibling AP of the same building: a valid placement, but not
    // the one LLF made, so the session digest no longer matches the
    // ledger's record of this workload and seed.
    let mut sibling = records.clone();
    let aps = topology.aps_of_building(home);
    let other: ApId = *aps
        .iter()
        .find(|&&a| a != sibling[0].ap)
        .expect("several APs");
    sibling[0].ap = other;
    assert_eq!(misplaced(&topology, &campus.demands, &sibling), 0);
    let dir = workdir("ledger");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut ledger = Ledger::load(&dir.join("ledger.tsv")).expect("empty ledger");
    let digest = Digest::of_records(&records);
    assert!(ledger.llf_agrees("tiny", 3, digest));
    ledger
        .append(Entry {
            workload: "tiny".into(),
            seed: 3,
            traced: false,
            pipeline_s: 1.0,
            llf: digest,
            s3: Some(1),
        })
        .expect("ledger append");
    let reloaded = Ledger::load(&dir.join("ledger.tsv")).expect("ledger reload");
    assert!(reloaded.llf_agrees("tiny", 3, digest));
    assert!(!reloaded.llf_agrees("tiny", 3, Digest::of_records(&sibling)));
    assert!(!reloaded.llf_agrees("tiny", 3, Digest::of_records(&dropped)));
    assert_eq!(reloaded.s3_variants("tiny", 3, 1), 1);
    assert_eq!(reloaded.s3_variants("tiny", 3, 2), 2);
}
