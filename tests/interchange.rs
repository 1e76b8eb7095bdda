//! Interchange round-trip guarantees over every bundled design.
//!
//! The `zeus netlist v1` text format claims strict byte stability:
//! `export → import → export` is byte-identical. The Yosys-JSON bridge
//! claims a fixpoint after one normalization round (the first export
//! decomposes n-ary gates into cell chains; from then on the mapping
//! is 1:1). Both claims are checked here on all bundled §10 designs —
//! the same table the packed-equivalence and fault suites use — plus
//! the vendored `benchmarks/` corpus. The CI `interchange-smoke` job
//! runs exactly this suite before driving the corpus through the
//! pipeline with the real binary.

use zeus::{
    examples, import_design, netlist_to_text, validated_digest, yosys_from_json, yosys_to_json,
    Limits, Simulator, Value, Zeus,
};

/// (example name, top, args) — same table as `packed_equiv.rs`.
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

fn design_for(name: &str, top: &str, targs: &[i64]) -> zeus::Design {
    Zeus::parse(source(name))
        .unwrap()
        .elaborate(top, targs)
        .unwrap()
}

#[test]
fn text_round_trip_is_byte_identical_on_every_bundled_design() {
    for &(name, top, targs) in TOPS {
        let d = design_for(name, top, targs);
        let t1 = netlist_to_text(&d);
        let d2 = import_design(&t1, &Limits::default())
            .unwrap_or_else(|e| panic!("{name}/{top}: reimport failed: {e}"));
        assert_eq!(
            validated_digest(&d2),
            validated_digest(&d),
            "{name}/{top}: digest drift through text"
        );
        assert_eq!(
            netlist_to_text(&d2),
            t1,
            "{name}/{top}: text round trip not byte-identical"
        );
    }
}

#[test]
fn yosys_round_trip_reaches_a_byte_stable_fixpoint_on_every_bundled_design() {
    for &(name, top, targs) in TOPS {
        let d = design_for(name, top, targs);
        let j1 = match yosys_to_json(&d) {
            Ok(j) => j,
            // RANDOM designs have no cell mapping — a Z-coded refusal
            // is the documented behavior, not a round-trip failure.
            Err(e) => {
                assert!(e.code.is_some(), "{name}/{top}: code-less export error");
                continue;
            }
        };
        let d2 = yosys_from_json(&j1)
            .unwrap_or_else(|e| panic!("{name}/{top}: yosys reimport failed: {e}"));
        let j2 = yosys_to_json(&d2)
            .unwrap_or_else(|e| panic!("{name}/{top}: second export failed: {e}"));
        let d3 = yosys_from_json(&j2)
            .unwrap_or_else(|e| panic!("{name}/{top}: second reimport failed: {e}"));
        let j3 =
            yosys_to_json(&d3).unwrap_or_else(|e| panic!("{name}/{top}: third export failed: {e}"));
        assert_eq!(j2, j3, "{name}/{top}: yosys form did not reach a fixpoint");
    }
}

#[test]
fn vendored_corpus_imports_and_simulates() {
    for file in ["c17.znl", "c432.znl"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("benchmarks")
            .join(file);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("benchmarks/{file}: {e}"));
        let d = import_design(&text, &Limits::default())
            .unwrap_or_else(|e| panic!("benchmarks/{file}: import failed: {e}"));
        assert_eq!(
            netlist_to_text(&d),
            text,
            "benchmarks/{file}: not byte-stable"
        );
        let mut sim = Simulator::new(d.clone()).unwrap();
        for port in d
            .ports
            .iter()
            .filter(|p| p.mode == zeus_syntax::ast::Mode::In)
        {
            sim.set_port_bit(&port.name, Value::One).unwrap();
        }
        sim.step();
        for port in d
            .ports
            .iter()
            .filter(|p| p.mode == zeus_syntax::ast::Mode::Out)
        {
            let bits = sim.port(&port.name);
            assert!(
                bits.iter().all(|v| matches!(v, Value::Zero | Value::One)),
                "benchmarks/{file}: output {} not binary on all-ones input: {bits:?}",
                port.name
            );
        }
    }
}

/// c17 truth check on all-ones inputs: N10 = NAND(1,1) = 0 and
/// N16 = NAND(1, NAND(1,1)) = 1, so N22 = NAND(N10,N16) = 1 while
/// N23 = NAND(N16,N19) = NAND(1,1) = 0.
#[test]
fn c17_computes_its_nand_semantics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("benchmarks")
        .join("c17.znl");
    let text = std::fs::read_to_string(path).unwrap();
    let d = import_design(&text, &Limits::default()).unwrap();
    let mut sim = Simulator::new(d).unwrap();
    for p in ["N1", "N2", "N3", "N6", "N7"] {
        sim.set_port_bit(p, Value::One).unwrap();
    }
    sim.step();
    assert_eq!(sim.port("N22"), vec![Value::One]);
    assert_eq!(sim.port("N23"), vec![Value::Zero]);
}
