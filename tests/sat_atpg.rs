//! End-to-end acceptance for the SAT-assisted ATPG path (`zeus-sat` +
//! `zeus-atpg` glue).
//!
//! The contracts under test: enabling SAT on the §10 sequential
//! designs strictly improves on the prefix fallback (targeted
//! time-frame tests and sound lockstep redundancy promotion); every
//! SAT detectability verdict agrees with exhaustive 2ⁿ enumeration on
//! small combinational designs (bundled and fuzz-generated); every
//! satisfying model decodes to vectors the scalar simulator replays
//! to a real divergence; DIMACS audit files round-trip to identical
//! clause sets; the reparser never panics on hostile input; and the
//! whole pipeline stays byte-reproducible from the seed.

use proptest::prelude::*;
use zeus::{
    decode_model, encode_detection, enumerate_faults, examples, run_atpg, run_campaign, AtpgConfig,
    AtpgStrategy, CampaignConfig, Design, EncodeOptions, Engine, FaultListOptions, Limits, Outcome,
    SatOutcome, Simulator, Solver, Value, VectorSet, Zeus,
};

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

/// The bundled sequential designs named by the acceptance criteria.
const SEQUENTIAL: &[(&str, &str, &[i64])] = &[
    ("counter", "counter", &[4]),
    ("queue", "systolicqueue", &[4, 4]),
    ("blackjack", "blackjack", &[]),
];

#[test]
fn sat_strictly_beats_the_prefix_fallback_on_sequential_designs() {
    for &(name, top, args) in SEQUENTIAL {
        let d = design(name, top, args);
        let plain = run_atpg(&d, &AtpgConfig::default()).unwrap();
        let sat_cfg = AtpgConfig {
            sat: true,
            ..AtpgConfig::default()
        };
        let sat = run_atpg(&d, &sat_cfg).unwrap();

        assert_eq!(plain.strategy, AtpgStrategy::Prefix, "{top}");
        assert_eq!(sat.strategy, AtpgStrategy::Timeframe, "{top}");
        let ss = sat.sat.expect("sat stats present");
        assert!(ss.solves > 0, "{top}: no solves recorded");

        // The SAT path must never lose a detection the prefix had…
        assert!(
            sat.grade.detected() >= plain.grade.detected(),
            "{top}: sat detects {} < prefix {}",
            sat.grade.detected(),
            plain.grade.detected()
        );
        // …and must strictly improve resolution: targeted time-frame
        // vectors widen raw detection, lockstep proofs retire
        // untestable faults, so testable coverage strictly rises on
        // every one of these designs.
        assert!(
            sat.testable_coverage() > plain.testable_coverage(),
            "{top}: testable {:.4} not > prefix {:.4}\n{}",
            sat.testable_coverage(),
            plain.testable_coverage(),
            sat.to_text()
        );

        // A promoted fault is a *claim of untestability*: it must be
        // one the emitted set indeed never detects.
        for (site, fault) in &sat.redundant {
            let r = sat
                .grade
                .results
                .iter()
                .find(|r| r.fault == *fault)
                .unwrap_or_else(|| panic!("{top}: promoted fault {site} not in grade"));
            assert!(
                !matches!(r.outcome, Outcome::Detected { .. }),
                "{top}: fault {site} promoted to redundant yet detected"
            );
        }
    }
}

#[test]
fn lockstep_promotions_survive_a_much_longer_random_campaign() {
    // Empirical backstop for the lockstep soundness proof: a fault
    // promoted to redundant must stay undetected under a random
    // campaign four times longer than anything ATPG ran.
    for &(name, top, args) in &[
        ("counter", "counter", &[4i64] as &[i64]),
        ("queue", "systolicqueue", &[4, 4]),
    ] {
        let d = design(name, top, args);
        let cfg = AtpgConfig {
            sat: true,
            ..AtpgConfig::default()
        };
        let report = run_atpg(&d, &cfg).unwrap();
        assert!(
            !report.redundant.is_empty(),
            "{top}: expected lockstep promotions"
        );
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let long = run_campaign(&d, &list, &CampaignConfig::new(Engine::Graph, 1024, 99)).unwrap();
        for (site, fault) in &report.redundant {
            let r = long.results.iter().find(|r| r.fault == *fault).unwrap();
            assert!(
                !matches!(r.outcome, Outcome::Detected { .. }),
                "{top}: lockstep-redundant fault {site} detected by a 1024-vector campaign"
            );
        }
    }
}

/// A lockstep proof adds no vector, so the faults it promotes must not
/// depend on when the vector cap fills: every fault of the SAT pass
/// gets its proof, however small `max_vectors` is.
#[test]
fn lockstep_promotions_do_not_depend_on_the_vector_cap() {
    let d = design("counter", "counter", &[4]);
    let promoted = |max_vectors: usize| {
        let cfg = AtpgConfig {
            sat: true,
            seed: 5,
            max_vectors,
            ..AtpgConfig::default()
        };
        let report = run_atpg(&d, &cfg).unwrap();
        let promoted = report.sat.expect("sat stats present").promoted_redundant;
        (promoted, report.redundant)
    };
    let uncapped = promoted(256);
    assert!(uncapped.0 > 0, "expected lockstep promotions");
    for cap in [2, 8] {
        assert_eq!(promoted(cap), uncapped, "max_vectors {cap}");
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

/// Replays one decoded single-frame model on a fresh golden/faulty
/// pair; true when an OUT port's boolean view diverges.
fn model_detects(d: &Design, fault: zeus::Fault, flat: &[Value]) -> bool {
    let mut golden = Simulator::new(d.clone()).unwrap();
    let mut faulty = Simulator::new(d.clone()).unwrap();
    faulty.inject(fault).unwrap();
    let mut k = 0;
    for port in d.inputs() {
        let w = port.width();
        let name = port.name.clone();
        golden.set_port(&name, &flat[k..k + w]).unwrap();
        faulty.set_port(&name, &flat[k..k + w]).unwrap();
        k += w;
    }
    golden.step();
    faulty.step();
    d.outputs()
        .any(|p| golden.port(&p.name) != faulty.port(&p.name))
}

#[test]
fn sat_verdicts_agree_with_exhaustive_enumeration_on_bundled_designs() {
    // For every stuck-at fault of every ≤12-input bundled design:
    // UNSAT ⟺ no input vector detects the fault (ground truth from a
    // full 2ⁿ replay campaign), and every Sat model must decode to a
    // vector the simulator confirms.
    for &(name, top, args) in &[
        ("mux", "muxtop", &[] as &[i64]),
        ("chessboard", "chessboard", &[2]),
        ("sorter", "sorter", &[4, 2]),
    ] {
        let d = design(name, top, args);
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let truth = run_campaign(
            &d,
            &list,
            &CampaignConfig::replay(Engine::Graph, exhaustive_set(&d)),
        )
        .unwrap();
        for r in &truth.results {
            let mut gov = Limits::new().governor();
            let det = encode_detection(&d, r.fault, &EncodeOptions::default(), &mut gov)
                .unwrap_or_else(|e| panic!("{top}: encode failed: {e:?}"));
            match Solver::from_cnf(&det.cnf).solve(0, &mut gov) {
                SatOutcome::Unsat => assert!(
                    !matches!(r.outcome, Outcome::Detected { .. }),
                    "{top} {}: SAT says undetectable, exhaustive campaign detected it",
                    r.site_name
                ),
                SatOutcome::Sat(model) => {
                    assert!(
                        matches!(r.outcome, Outcome::Detected { .. }),
                        "{top} {}: SAT found a vector, exhaustive campaign says undetectable",
                        r.site_name
                    );
                    let frames = decode_model(&det, &model);
                    assert!(
                        model_detects(&d, r.fault, &frames[0]),
                        "{top} {}: SAT model does not replay to a detection",
                        r.site_name
                    );
                }
                SatOutcome::Unknown => panic!("{top}: unbudgeted solve returned unknown"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fuzz-generated combinational designs: SAT detectability agrees
    /// with 2ⁿ enumeration and every model replays, for every
    /// stuck-at fault of every eligible case.
    #[test]
    fn fuzzed_designs_cross_check_sat_against_enumeration(seed in any::<u32>()) {
        let mut checked = 0usize;
        for case in 0..24u64 {
            let g = zeus_fuzz::generate(seed as u64, case, zeus_fuzz::DEFAULT_SIZE);
            let text = zeus_syntax::print_program(&g.program);
            let Ok(z) = Zeus::parse(&text) else { continue };
            let Ok(d) = z.elaborate(&g.top, &[]) else { continue };
            let width: usize = d.inputs().map(|p| p.width()).sum();
            if d.netlist.registers().next().is_some()
                || d.rset.is_some()
                || d.netlist.nodes.iter().any(|n| matches!(n.op, zeus::NodeOp::Random))
                || width == 0
                || width > 10
            {
                continue;
            }
            let list = enumerate_faults(&d, &FaultListOptions::default());
            let truth = run_campaign(
                &d,
                &list,
                &CampaignConfig::replay(Engine::Graph, exhaustive_set(&d)),
            )
            .unwrap();
            for r in truth.results.iter().take(16) {
                let mut gov = Limits::new().governor();
                let Ok(det) = encode_detection(&d, r.fault, &EncodeOptions::default(), &mut gov)
                else {
                    continue;
                };
                match Solver::from_cnf(&det.cnf).solve(0, &mut gov) {
                    SatOutcome::Unsat => prop_assert!(
                        !matches!(r.outcome, Outcome::Detected { .. }),
                        "case {case} {}: UNSAT but exhaustively detectable", r.site_name
                    ),
                    SatOutcome::Sat(model) => {
                        prop_assert!(
                            matches!(r.outcome, Outcome::Detected { .. }),
                            "case {case} {}: Sat but exhaustively undetectable", r.site_name
                        );
                        let frames = decode_model(&det, &model);
                        prop_assert!(
                            model_detects(&d, r.fault, &frames[0]),
                            "case {case} {}: model does not replay", r.site_name
                        );
                    }
                    SatOutcome::Unknown => prop_assert!(false, "unbudgeted solve unknown"),
                }
                checked += 1;
            }
            if checked >= 64 {
                break;
            }
        }
        // The generator must supply eligible material; a silent no-op
        // pass would hollow the property out.
        prop_assert!(checked > 0, "no eligible fuzz case produced");
    }

    /// Same seed + same config ⇒ byte-identical report, with the SAT
    /// engine (lockstep proofs, time-frame solves) in the loop.
    #[test]
    fn same_seed_sat_reports_are_byte_identical(seed in any::<u64>()) {
        let d = design("counter", "counter", &[4]);
        let cfg = AtpgConfig {
            seed,
            sat: true,
            ..AtpgConfig::default()
        };
        let a = run_atpg(&d, &cfg).unwrap();
        let b = run_atpg(&d, &cfg).unwrap();
        prop_assert_eq!(a.vectors.to_text(), b.vectors.to_text());
        prop_assert_eq!(a.to_json(), b.to_json());
        prop_assert_eq!(a.to_text(), b.to_text());
    }

    /// The DIMACS reparser never panics and always reports Z701 on
    /// malformed input.
    #[test]
    fn hostile_dimacs_input_errors_cleanly(text in ".{0,200}") {
        match zeus::Cnf::parse_dimacs(&text) {
            Ok(cnf) => {
                // Whatever parsed must round-trip to the same clauses.
                let again = zeus::Cnf::parse_dimacs(&cnf.to_dimacs(&[])).unwrap();
                prop_assert_eq!(cnf.clauses, again.clauses);
            }
            Err(e) => prop_assert_eq!(
                e.code,
                Some(zeus_syntax::diag::codes::SAT_FORMAT)
            ),
        }
    }
}

#[test]
fn emit_cnf_audit_files_reparse_to_identical_clause_sets() {
    // counter(4) promotes its reset-leg faults via lockstep proofs, so
    // emit_cnf must render one auditable DIMACS text per claim; each
    // must reparse, and re-emitting the parse must reproduce the exact
    // clause set (emit → reparse → identical).
    let d = design("counter", "counter", &[4]);
    let cfg = AtpgConfig {
        sat: true,
        emit_cnf: true,
        ..AtpgConfig::default()
    };
    let report = run_atpg(&d, &cfg).unwrap();
    let ss = report.sat.expect("sat stats present");
    assert!(ss.promoted_redundant > 0, "{}", report.to_text());
    assert_eq!(ss.cnf_files, report.redundant.len());
    assert_eq!(report.cnf_audits.len(), ss.cnf_files);
    for (i, text) in report.cnf_audits.iter().enumerate() {
        let cnf = zeus::Cnf::parse_dimacs(text).expect("audit text reparses");
        let again = zeus::Cnf::parse_dimacs(&cnf.to_dimacs(&[])).expect("re-emit reparses");
        assert_eq!(cnf.num_vars, again.num_vars, "audit {i}");
        assert_eq!(cnf.clauses, again.clauses, "audit {i}");
    }
}
