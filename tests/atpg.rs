//! End-to-end ATPG acceptance over the §10 example designs.
//!
//! The contract under test: `run_atpg` produces a compact vector set
//! whose *graded* coverage is exactly reproduced by replaying the set
//! through a fault campaign; undetected faults are either proven
//! redundant (verified here by exhaustive simulation) or reported
//! aborted; and the whole pipeline is byte-reproducible from the seed.

use zeus::{
    enumerate_faults, examples, run_atpg, run_campaign, AtpgConfig, AtpgMode, CampaignConfig,
    Design, Engine, FaultListOptions, Outcome, Value, VectorSet, Zeus,
};

/// The bundled pure-combinational designs (no registers, no RANDOM, no
/// RSET): these take the structural harvest → PODEM → compaction path.
const COMBINATIONAL: &[(&str, &str, &[i64])] = &[
    ("adders", "rippleCarry4", &[]),
    ("mux", "muxtop", &[]),
    ("trees", "tree", &[4]),
    ("routing", "routingnetwork", &[2]),
    ("chessboard", "chessboard", &[2]),
    ("sorter", "sorter", &[4, 2]),
];

fn source(name: &str) -> &'static str {
    examples::ALL
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, src, _)| *src)
        .unwrap()
}

fn design(name: &str, top: &str, args: &[i64]) -> Design {
    Zeus::parse(source(name))
        .unwrap()
        .elaborate(top, args)
        .unwrap()
}

#[test]
fn ripple_carry_reaches_95_percent_coverage() {
    let d = design("adders", "rippleCarry4", &[]);
    let report = run_atpg(&d, &AtpgConfig::default()).unwrap();
    assert_eq!(report.mode, AtpgMode::Combinational);
    assert!(
        report.coverage() >= 0.95,
        "rippleCarry4 coverage {:.4} < 0.95\n{}",
        report.coverage(),
        report.to_text()
    );
    assert!(report.aborted.is_empty(), "{}", report.to_text());
}

#[test]
fn every_combinational_design_resolves_its_fault_universe() {
    for &(name, top, args) in COMBINATIONAL {
        let d = design(name, top, args);
        let report = run_atpg(&d, &AtpgConfig::default()).unwrap();
        assert_eq!(report.mode, AtpgMode::Combinational, "{top}");
        assert!(report.aborted.is_empty(), "{top}: {}", report.to_text());
        // Every fault is either detected by the emitted set or proven
        // untestable: detected + redundant covers ≥ 85% of the
        // universe (the paper designs contain genuinely redundant
        // logic — constant nets, masked mux legs — so raw coverage
        // alone is not a meaningful floor).
        let total = report.grade.results.len();
        let resolved = report.grade.detected() + report.redundant.len();
        assert!(
            resolved as f64 >= 0.85 * total as f64,
            "{top}: resolved {resolved}/{total}\n{}",
            report.to_text()
        );
        assert!(
            report.testable_coverage() >= 0.95,
            "{top}: testable {:.4}\n{}",
            report.testable_coverage(),
            report.to_text()
        );
    }
}

/// Every input vector of a combinational design, as an explicit set.
fn exhaustive_set(d: &Design) -> VectorSet {
    let widths: Vec<usize> = d.inputs().map(|p| p.width()).collect();
    let bits: usize = widths.iter().sum();
    assert!(bits <= 12, "design too wide for exhaustive check");
    let mut set = VectorSet::new(d, 0);
    for v in 0..(1u64 << bits) {
        let mut k = 0;
        let mut vec = Vec::with_capacity(widths.len());
        for &w in &widths {
            vec.push(
                (0..w)
                    .map(|b| {
                        if v >> (k + b) & 1 == 1 {
                            Value::One
                        } else {
                            Value::Zero
                        }
                    })
                    .collect(),
            );
            k += w;
        }
        set.push(vec);
    }
    set
}

#[test]
fn redundancy_proofs_agree_with_exhaustive_simulation() {
    // The strongest check available: for every small combinational
    // design, simulate *all* input vectors against every fault. A fault
    // is exhaustively undetectable iff PODEM classified it redundant —
    // in both directions, so neither an unsound proof nor a missed
    // test can hide.
    for &(name, top, args) in &[
        ("mux", "muxtop", &[] as &[i64]),
        ("chessboard", "chessboard", &[2]),
        ("sorter", "sorter", &[4, 2]),
    ] {
        let d = design(name, top, args);
        let report = run_atpg(&d, &AtpgConfig::default()).unwrap();
        assert!(report.aborted.is_empty(), "{top}: {}", report.to_text());

        let list = enumerate_faults(&d, &FaultListOptions::default());
        let cfg = CampaignConfig::replay(Engine::Graph, exhaustive_set(&d));
        let grade = run_campaign(&d, &list, &cfg).unwrap();
        let claimed: Vec<_> = report.redundant.iter().map(|(_, f)| *f).collect();
        for r in &grade.results {
            let untestable = !matches!(r.outcome, Outcome::Detected { .. });
            let proven = claimed.contains(&r.fault);
            assert_eq!(
                untestable, proven,
                "{top} {} {}: exhaustively-undetectable={untestable}, proven-redundant={proven}",
                r.site_name, r.fault.kind
            );
        }
    }
}

#[test]
fn same_seed_runs_emit_identical_bytes() {
    for &(name, top, args) in COMBINATIONAL {
        let d = design(name, top, args);
        let cfg = AtpgConfig {
            seed: 0xA7B6,
            ..AtpgConfig::default()
        };
        let a = run_atpg(&d, &cfg).unwrap();
        let b = run_atpg(&d, &cfg).unwrap();
        assert_eq!(a.vectors.to_text(), b.vectors.to_text(), "{top}");
        assert_eq!(a.to_json(), b.to_json(), "{top}");
        assert_eq!(a.to_text(), b.to_text(), "{top}");
    }
}

#[test]
fn replaying_the_emitted_file_reproduces_the_grade() {
    for &(name, top, args) in COMBINATIONAL {
        let d = design(name, top, args);
        let report = run_atpg(&d, &AtpgConfig::default()).unwrap();
        // Round-trip through the on-disk format, exactly what `zeusc
        // fault --vectors-file` does.
        let set = VectorSet::parse(&report.vectors.to_text()).unwrap();
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let grade = run_campaign(&d, &list, &CampaignConfig::replay(Engine::Graph, set)).unwrap();
        assert_eq!(grade.to_json(), report.grade.to_json(), "{top}");
        assert_eq!(grade.to_text(), report.grade.to_text(), "{top}");
    }
}

#[test]
fn sequential_designs_take_the_sequence_path_with_replay_equality() {
    for &(name, top, args) in &[
        ("patternmatch", "patternmatch", &[3i64] as &[i64]),
        ("counter", "counter", &[4]),
    ] {
        let d = design(name, top, args);
        let report = run_atpg(&d, &AtpgConfig::default()).unwrap();
        assert_eq!(report.mode, AtpgMode::Sequence, "{top}");
        assert!(
            report.coverage() > 0.5,
            "{top}: coverage {:.4}\n{}",
            report.coverage(),
            report.to_text()
        );
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let grade = run_campaign(
            &d,
            &list,
            &CampaignConfig::replay(Engine::Graph, report.vectors.clone()),
        )
        .unwrap();
        assert_eq!(grade.to_json(), report.grade.to_json(), "{top}");
    }
}

#[test]
fn compaction_never_loses_coverage() {
    // The pre-compaction set is the harvest + PODEM output; rebuild it
    // by rerunning with compaction implicitly disabled via max_vectors
    // comparison: instead, check the emitted (compacted) set grades at
    // least as high as a plain random campaign with the same seed and
    // a *larger* budget.
    for &(name, top, args) in COMBINATIONAL {
        let d = design(name, top, args);
        let report = run_atpg(&d, &AtpgConfig::default()).unwrap();
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let random = run_campaign(&d, &list, &CampaignConfig::new(Engine::Graph, 256, 1)).unwrap();
        assert!(
            report.grade.detected() >= random.detected(),
            "{top}: compacted set detects {} < random-256 {}",
            report.grade.detected(),
            random.detected()
        );
        assert!(
            report.vectors.len() <= 256,
            "{top}: {} vectors",
            report.vectors.len()
        );
    }
}

// -------------------------------------------------------------------
// Cancellation: Ctrl-C mid-generation reports partially, never panics.
// -------------------------------------------------------------------

#[test]
fn preraised_cancel_flag_yields_a_partial_report() {
    use std::sync::atomic::{AtomicBool, Ordering};
    static CANCEL: AtomicBool = AtomicBool::new(false);
    CANCEL.store(true, Ordering::Relaxed);

    let d = design("adders", "rippleCarry4", &[]);
    let mut cfg = AtpgConfig::default();
    cfg.limits.cancel = Some(&CANCEL);
    let report = run_atpg(&d, &cfg).unwrap();
    assert!(report.partial, "cancel flag ignored");
    let text = report.to_text();
    assert!(text.contains("PARTIAL"), "{text}");
    assert!(text.contains("compaction: skipped (interrupted)"), "{text}");
    assert!(report.to_json().contains("\"partial\":true"));

    // Whatever was generated before the interrupt is still a valid,
    // graded vector set: replaying it reproduces the graded coverage.
    let set = report.vectors.clone();
    let replay = run_campaign(
        &d,
        &enumerate_faults(&d, &FaultListOptions::default()),
        &CampaignConfig::replay(Engine::Graph, set),
    )
    .unwrap();
    assert_eq!(
        replay.detected(),
        report.grade.detected(),
        "partial set does not replay to its own grade"
    );

    CANCEL.store(false, Ordering::Relaxed);
}

#[test]
fn uncancelled_runs_never_report_partial() {
    let d = design("mux", "muxtop", &[]);
    let report = run_atpg(&d, &AtpgConfig::default()).unwrap();
    assert!(!report.partial);
    assert!(!report.to_text().contains("PARTIAL"));
    assert!(!report.to_json().contains("partial"));
}
