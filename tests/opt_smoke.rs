//! Optimizer smoke over every bundled design (the CI `opt-smoke` job).
//!
//! Every design in the §10 example set must pass the equivalence gate,
//! and the pipeline must actually earn its keep: a strict gate-count or
//! depth reduction on a wide majority of the designs, and no regression
//! against the committed `BENCH_opt.json` baseline on any of them.

use zeus::{design_digest, enumerate_faults, examples, netlist_from_text, netlist_to_text};
use zeus::{metrics, optimize, FaultListOptions, OptConfig, Verification, Zeus};

/// (example name, top, args) — the same table the packed-equivalence and
/// fault-injection suites use.
const TOPS: &[(&str, &str, &[i64])] = &[
    ("adders", "rippleCarry4", &[]),
    ("adders", "rippleCarry", &[4]),
    ("mux", "muxtop", &[]),
    ("blackjack", "blackjack", &[]),
    ("trees", "tree", &[8]),
    ("trees", "rtree", &[8]),
    ("trees", "htree", &[16]),
    ("patternmatch", "patternmatch", &[3]),
    ("routing", "routingnetwork", &[8]),
    ("ram", "ram", &[8, 4, 3]),
    ("chessboard", "chessboard", &[4]),
    ("am2901", "am2901", &[]),
    ("stack", "systolicstack", &[4, 4]),
    ("queue", "systolicqueue", &[4, 4]),
    ("counter", "counter", &[6]),
    ("dictionary", "dictionary", &[4, 4]),
    ("sorter", "sorter", &[4, 4]),
    ("recognizer", "recab", &[]),
    ("semantics", "semc", &[]),
];

fn source(name: &str) -> &'static str {
    examples::ALL
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, s, _)| *s)
        .unwrap_or_else(|| panic!("no example {name}"))
}

fn design(name: &str, top: &str, targs: &[i64]) -> zeus::Design {
    Zeus::parse(source(name))
        .unwrap()
        .elaborate(top, targs)
        .unwrap()
}

/// Every bundled design optimizes, passes its equivalence gate, keeps
/// its port interface, and a wide majority improves strictly.
#[test]
fn every_bundled_design_passes_the_equivalence_gate() {
    let mut improved = 0usize;
    for &(name, top, targs) in TOPS {
        let d = design(name, top, targs);
        let out = optimize(&d, &OptConfig::default())
            .unwrap_or_else(|e| panic!("{name}/{top}: optimizer refused: {e}"));
        let r = &out.report;
        assert!(
            !matches!(r.verification, Verification::Unchanged) || r.total_rewrites() == 0,
            "{name}/{top}: a changed netlist must be verified"
        );
        assert_eq!(
            d.ports.len(),
            out.design.ports.len(),
            "{name}/{top}: port interface must survive"
        );
        assert!(
            r.after.gates <= r.before.gates && r.after.depth <= r.before.depth,
            "{name}/{top}: optimization must never make the design worse \
             ({:?} -> {:?})",
            r.before,
            r.after
        );
        if r.after.gates < r.before.gates || r.after.depth < r.before.depth {
            improved += 1;
        }
        println!(
            "{name}/{top}: gates {} -> {}, depth {} -> {}, nets {} -> {}, \
             {} rewrites in {} iterations, verified {}",
            r.before.gates,
            r.after.gates,
            r.before.depth,
            r.after.depth,
            r.before.nets,
            r.after.nets,
            r.total_rewrites(),
            r.iterations,
            r.verification,
        );
    }
    assert!(
        improved >= 10,
        "the pipeline must strictly reduce gates or depth on at least 10 of \
         {} bundled designs, got {improved}",
        TOPS.len()
    );
}

/// The optimized design re-simulates: its `zeus netlist v1` text reads
/// back through the validator, its digest differs from the original, and its collapsed fault
/// universe is no larger than the original's.
#[test]
fn optimized_designs_are_usable_downstream() {
    for &(name, top, targs) in TOPS.iter().take(6) {
        let d = design(name, top, targs);
        let out = optimize(&d, &OptConfig::default()).unwrap();
        assert_ne!(
            design_digest(&d),
            design_digest(&out.design),
            "{name}/{top}: digests must differ"
        );
        let text = netlist_to_text(&out.design);
        let back = netlist_from_text(&text)
            .unwrap_or_else(|e| panic!("{name}/{top}: round-trip failed: {e}"));
        assert_eq!(design_digest(&back), design_digest(&out.design));

        let faults_before = enumerate_faults(&d, &FaultListOptions::default())
            .faults
            .len();
        let faults_after = enumerate_faults(&out.design, &FaultListOptions::default())
            .faults
            .len();
        assert!(
            faults_after <= faults_before,
            "{name}/{top}: fault universe grew: {faults_before} -> {faults_after}"
        );
    }
}

/// The pipeline is idempotent on every bundled design: a second run
/// reaches a fixed point immediately and reproduces the serialized
/// netlist byte for byte.
#[test]
fn pipeline_is_idempotent_on_every_bundled_design() {
    for &(name, top, targs) in TOPS {
        let d = design(name, top, targs);
        let once = optimize(&d, &OptConfig::default()).unwrap();
        let twice = optimize(&once.design, &OptConfig::default()).unwrap();
        assert_eq!(
            twice.report.total_rewrites(),
            0,
            "{name}/{top}: second run must be a fixed point: {:?}",
            twice.report
        );
        assert_eq!(
            netlist_to_text(&once.design),
            netlist_to_text(&twice.design),
            "{name}/{top}: second run must serialize byte-identically"
        );
    }
}

/// The report's measurements match independent recomputation.
#[test]
fn report_metrics_match_recomputation() {
    let d = design("am2901", "am2901", &[]);
    let out = optimize(&d, &OptConfig::default()).unwrap();
    assert_eq!(out.report.before, metrics(&d));
    assert_eq!(out.report.after, metrics(&out.design));
}

/// The pipeline never regresses against the committed `BENCH_opt.json`
/// baseline: for every bundled design, today's post-optimization gate
/// count and depth are at most what the baseline recorded. Regenerate
/// the baseline (see `crates/bench/benches/opt_pipeline.rs`) when a new
/// pass legitimately shifts the numbers.
#[test]
fn no_regression_against_committed_baseline() {
    use zeus_cli::proto::Json;

    let baseline = Json::parse(include_str!("../BENCH_opt.json"))
        .unwrap_or_else(|e| panic!("BENCH_opt.json is not valid JSON: {e}"));
    let designs = baseline
        .get("designs")
        .expect("BENCH_opt.json must have a designs table");

    for &(name, top, targs) in TOPS {
        let key = format!("{name}/{top}{targs:?}");
        let entry = designs
            .get(&key)
            .unwrap_or_else(|| panic!("baseline is missing {key}; regenerate BENCH_opt.json"));
        let after_of = |metric: &str| -> u64 {
            match entry.get(metric) {
                Some(Json::Arr(pair)) if pair.len() == 2 => pair[1]
                    .as_u64()
                    .unwrap_or_else(|| panic!("{key}.{metric}[1] not a number")),
                other => panic!("{key}.{metric} malformed: {other:?}"),
            }
        };

        let d = design(name, top, targs);
        let out = optimize(&d, &OptConfig::default()).unwrap();
        assert!(
            (out.report.after.gates as u64) <= after_of("gates"),
            "{key}: gate count regressed past the baseline ({} > {})",
            out.report.after.gates,
            after_of("gates")
        );
        assert!(
            (out.report.after.depth as u64) <= after_of("depth"),
            "{key}: depth regressed past the baseline ({} > {})",
            out.report.after.depth,
            after_of("depth")
        );
    }
}
