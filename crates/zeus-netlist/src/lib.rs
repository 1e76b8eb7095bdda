//! The public **`zeus netlist v1`** interchange: the one door for
//! designs as bytes.
//!
//! This crate alone knows how a [`Design`] becomes bytes and back. Its
//! writers are [`netlist_to_text`] and [`yosys_to_json`]; its readers
//! are [`netlist_from_text`], [`netlist_from_text_limited`] and the
//! [`yosys`] pair. Every reader returns a design that has passed
//! **the structural validator** ([`validate_design`]): driver
//! uniqueness, port/net width agreement, REG-broken acyclicity,
//! group-constraint compatibility, and the net and node budgets of
//! [`Limits`]. Downstream phases (sim, fault, ATPG, opt) therefore keep
//! their "the elaborator produced this" indexing assumptions.
//!
//! The text codec is private; the **Yosys-JSON bridge** ([`yosys`])
//! imports and exports the `$and`/`$or`/`$xor`/`$not`/`$mux`/`$dff`
//! cell subset with constant drivers and multi-bit ports.
//!
//! Every failure is a `Z6xx` diagnostic ([`zeus_syntax::diag::codes`]):
//!
//! | code | meaning |
//! |------|---------|
//! | Z601 | not the interchange format (malformed framing/JSON) |
//! | Z602 | version skew (recognizably ours, another version) |
//! | Z603 | structural violation |
//! | Z604 | combinational cycle / incompatible group constraint |
//! | Z605 | digest mismatch |
//! | Z606 | operation outside the interchange subset |
//! | Z607 | a [`Limits`] budget exceeded |
//!
//! No input, however hostile, may panic: truncations, splices, forged
//! digests, alias cycles, and claimed-size bombs all come back as
//! `Err`.

mod codec;
pub mod corpus;
pub mod validate;
pub mod yosys;

use zeus_elab::{design_digest, Design, Limits};
use zeus_syntax::diag::Diagnostic;

pub use validate::validate_design;
pub use yosys::{yosys_from_json, yosys_from_json_limited, yosys_to_json};

/// The versioned first line of a `zeus netlist v1` text file.
pub const TEXT_MAGIC: &str = "zeus netlist v1";

/// What an interchange payload looks like, by cheap sniffing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetlistFormat {
    /// `zeus netlist v1` text. A bare `zeus-design` payload sniffs as
    /// text too, so that the reader refuses it (`Z601`) instead of a
    /// `.zeus` parser misreading it.
    Text,
    /// A Yosys-JSON document.
    YosysJson,
    /// Neither — not an interchange payload.
    Unknown,
}

/// Sniffs the interchange format of `text` without parsing it. Version
/// skew still sniffs as [`NetlistFormat::Text`] — the parser is what
/// reports `Z602`.
pub fn detect_format(text: &str) -> NetlistFormat {
    let head = text.trim_start();
    if head.starts_with("zeus netlist v") || head.starts_with("zeus-design v") {
        NetlistFormat::Text
    } else if head.starts_with('{') {
        NetlistFormat::YosysJson
    } else {
        NetlistFormat::Unknown
    }
}

/// Serializes a design to `zeus netlist v1` text. Deterministic: equal
/// designs produce byte-identical text, and the design digest is
/// embedded (and re-verified on import).
pub fn netlist_to_text(design: &Design) -> String {
    codec::encode(design)
}

/// Parses `zeus netlist v1` text under [`Limits::default`].
///
/// # Errors
///
/// See [`netlist_from_text_limited`].
pub fn netlist_from_text(text: &str) -> Result<Design, Diagnostic> {
    netlist_from_text_limited(text, &Limits::default())
}

/// Parses `zeus netlist v1` text under an explicit budget. The returned
/// design has passed digest verification and the full structural
/// validator.
///
/// # Errors
///
/// `Z601`/`Z602` for framing and version problems (a bare `zeus-design`
/// payload without the `zeus netlist v1` header is a `Z601`),
/// `Z603`–`Z607` per the crate-level table.
pub fn netlist_from_text_limited(text: &str, limits: &Limits) -> Result<Design, Diagnostic> {
    let design = codec::decode(text)?;
    validate_design(&design, limits)?;
    Ok(design)
}

/// The digest of a validated design, hex-encoded: the identity
/// `zeusc import` prints. Compute it only *after* validation (a design
/// that fails the validator has no identity).
pub fn validated_digest(design: &Design) -> String {
    format!("{:016x}", design_digest(design))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_elab::elaborate;
    use zeus_syntax::diag::codes;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    fn half_adder() -> Design {
        design(
            "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
             BEGIN s := XOR(a,b); cout := AND(a,b) END;",
            "halfadder",
        )
    }

    fn toggler() -> Design {
        design(
            "TYPE tog = COMPONENT (IN en: boolean; OUT q: boolean) IS
             SIGNAL r: REG;
             BEGIN r.in := XOR(r.out, en); q := r.out END;",
            "tog",
        )
    }

    #[test]
    fn text_round_trip_is_byte_identical() {
        for d in [half_adder(), toggler()] {
            let t1 = netlist_to_text(&d);
            let back = netlist_from_text(&t1).unwrap();
            let t2 = netlist_to_text(&back);
            assert_eq!(t1, t2);
            assert_eq!(validated_digest(&d), validated_digest(&back));
        }
    }

    #[test]
    fn version_skew_is_z602() {
        let mut t = netlist_to_text(&half_adder());
        t = t.replacen("zeus netlist v1", "zeus netlist v9", 1);
        let err = netlist_from_text(&t).unwrap_err();
        assert_eq!(err.code, Some(codes::NETLIST_VERSION));
    }

    #[test]
    fn bare_payload_is_z601() {
        // The payload without its `zeus netlist v1` line, as `zeusc opt
        // --emit` once wrote it, in this and the previous version.
        let t = netlist_to_text(&half_adder());
        let bare = t.strip_prefix("zeus netlist v1\n").unwrap();
        for payload in [bare.to_string(), bare.replacen("v2", "v1", 1)] {
            assert_eq!(detect_format(&payload), NetlistFormat::Text);
            let err = netlist_from_text(&payload).unwrap_err();
            assert_eq!(err.code, Some(codes::NETLIST_FORMAT), "{err}");
            assert!(err.message.contains("'zeus netlist v1' header"), "{err}");
        }
    }

    #[test]
    fn garbage_is_z601() {
        for bad in ["", "\n", "ELF\x7f\n\n", "zeus netlist", "{\"modules\":{}}"] {
            let err = netlist_from_text(bad).unwrap_err();
            assert_eq!(err.code, Some(codes::NETLIST_FORMAT), "input {bad:?}");
        }
    }

    #[test]
    fn forged_digest_is_z605() {
        let t = netlist_to_text(&half_adder());
        let forged: String = t
            .lines()
            .map(|l| {
                if l.starts_with("digest ") {
                    "digest 0000000000000000".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = netlist_from_text(&forged).unwrap_err();
        assert_eq!(err.code, Some(codes::NETLIST_DIGEST));
    }

    #[test]
    fn truncations_never_panic() {
        let t = netlist_to_text(&toggler());
        for cut in 0..t.len() {
            if !t.is_char_boundary(cut) {
                continue;
            }
            match netlist_from_text(&t[..cut]) {
                Ok(_) => {} // e.g. only the final newline was cut
                Err(d) => assert!(d.code.is_some(), "uncoded error at cut {cut}"),
            }
        }
    }

    #[test]
    fn budget_applies_to_text_import() {
        let t = netlist_to_text(&half_adder());
        let tight = Limits {
            max_nets: 1,
            ..Limits::default()
        };
        let err = netlist_from_text_limited(&t, &tight).unwrap_err();
        assert_eq!(err.code, Some(codes::NETLIST_LIMIT));
    }

    #[test]
    fn yosys_round_trip_reaches_a_byte_stable_fixpoint() {
        for d in [half_adder(), toggler()] {
            let j1 = yosys_to_json(&d).unwrap();
            let j2 = yosys_to_json(&yosys_from_json(&j1).unwrap()).unwrap();
            let j3 = yosys_to_json(&yosys_from_json(&j2).unwrap()).unwrap();
            assert_eq!(j2, j3, "yosys export not stable after one normalization");
        }
    }

    #[test]
    fn yosys_round_trip_preserves_combinational_semantics() {
        use zeus_sema::Value;
        use zeus_sim::Simulator;
        let d = half_adder();
        let back = yosys_from_json(&yosys_to_json(&d).unwrap()).unwrap();
        for a in [Value::Zero, Value::One] {
            for b in [Value::Zero, Value::One] {
                let probe = |design: &Design| -> (Vec<Value>, Vec<Value>) {
                    let mut sim = Simulator::new(design.clone()).unwrap();
                    sim.set_port_bit("a", a).unwrap();
                    sim.set_port_bit("b", b).unwrap();
                    sim.step();
                    (sim.port("s"), sim.port("cout"))
                };
                assert_eq!(probe(&d), probe(&back), "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn yosys_rejects_unknown_cell_with_z606() {
        let j = r#"{"modules":{"m":{"ports":{"a":{"direction":"input","bits":[2]},
            "y":{"direction":"output","bits":[3]}},
            "cells":{"g":{"type":"$lut","connections":{"A":[2],"Y":[3]}}}}}}"#;
        let err = yosys_from_json(j).unwrap_err();
        assert_eq!(err.code, Some(codes::NETLIST_UNKNOWN_OP));
    }

    #[test]
    fn yosys_rejects_combinational_cycle_with_z604() {
        let j = r#"{"modules":{"m":{"ports":{"y":{"direction":"output","bits":[2]}},
            "cells":{"g":{"type":"$not","connections":{"A":[2],"Y":[2]}}}}}}"#;
        let err = yosys_from_json(j).unwrap_err();
        assert_eq!(err.code, Some(codes::NETLIST_CYCLE));
    }

    #[test]
    fn yosys_rejects_dangling_net_with_z603() {
        let j = r#"{"modules":{"m":{"ports":{"y":{"direction":"output","bits":[2]}},
            "cells":{"g":{"type":"$not","connections":{"A":[3],"Y":[2]}}}}}}"#;
        let err = yosys_from_json(j).unwrap_err();
        assert_eq!(err.code, Some(codes::NETLIST_STRUCTURE));
        assert!(err.message.contains("dangling"), "{}", err.message);
    }

    #[test]
    fn yosys_rejects_cell_driving_input_port_with_z603() {
        let j = r#"{"modules":{"m":{"ports":{"a":{"direction":"input","bits":[2]},
            "b":{"direction":"input","bits":[3]}},
            "cells":{"g":{"type":"$not","connections":{"A":[3],"Y":[2]}}}}}}"#;
        let err = yosys_from_json(j).unwrap_err();
        assert_eq!(err.code, Some(codes::NETLIST_STRUCTURE));
    }

    #[test]
    fn yosys_true_mux_imports_and_keeps_mux_semantics() {
        use zeus_sema::Value;
        // y = s ? b : a — a real 2-way mux, the shape Zeus itself never
        // exports (its If is a guarded contribution with A="z").
        let j = r#"{"modules":{"m":{"ports":{
            "a":{"direction":"input","bits":[2]},
            "b":{"direction":"input","bits":[3]},
            "s":{"direction":"input","bits":[4]},
            "y":{"direction":"output","bits":[5]}},
            "cells":{"g":{"type":"$mux","connections":{"A":[2],"B":[3],"S":[4],"Y":[5]}}}}}}"#;
        let d = yosys_from_json(j).unwrap();
        for s in [Value::Zero, Value::One] {
            for (a, b) in [(Value::Zero, Value::One), (Value::One, Value::Zero)] {
                let mut sim = zeus_sim::Simulator::new(d.clone()).unwrap();
                sim.set_port_bit("a", a).unwrap();
                sim.set_port_bit("b", b).unwrap();
                sim.set_port_bit("s", s).unwrap();
                sim.step();
                let want = if s == Value::One { b } else { a };
                assert_eq!(sim.port("y"), vec![want], "s={s:?} a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn sequential_yosys_round_trip_keeps_the_register() {
        let d = toggler();
        let j = yosys_to_json(&d).unwrap();
        let back = yosys_from_json(&j).unwrap();
        assert_eq!(
            back.netlist.registers().count(),
            d.netlist.registers().count()
        );
        assert!(back.clk.is_some(), "imported $dff must establish the clock");
    }
}
