//! # zeus
//!
//! A complete implementation of **Zeus**, the hardware description
//! language for VLSI of Lieberherr & Knudsen (1983): parser, static
//! checks, elaborator, the §8 semantics-graph simulator, the §6 layout
//! engine and a switch-level baseline, behind one facade.
//!
//! The pipeline is: [`Zeus::parse`] (lex + parse + the §3/§3.2 name and
//! declaration-order checks) → [`Zeus::elaborate`] (type instantiation,
//! replication, conditional generation, §4.7 static rules, netlist) →
//! [`Simulator`] / [`floorplan`] / [`SwitchSim`].
//!
//! ## Quickstart
//!
//! ```
//! use zeus::{Zeus, Value};
//!
//! # fn main() -> Result<(), zeus::Diagnostics> {
//! let z = Zeus::parse(
//!     "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
//!      BEGIN s := XOR(a,b); cout := AND(a,b) END;",
//! )?;
//! let mut sim = z.simulator("halfadder", &[])?;
//! sim.set_port_bit("a", Value::One).map_err(zeus::Diagnostics::from)?;
//! sim.set_port_bit("b", Value::One).map_err(zeus::Diagnostics::from)?;
//! sim.step();
//! assert_eq!(sim.port("cout"), vec![Value::One]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use zeus_atpg::{
    run_atpg, AtpgConfig, AtpgReport, AtpgStats, Mode as AtpgMode, SatStats,
    Strategy as AtpgStrategy,
};
pub use zeus_elab::{
    design_digest, design_from_text, design_to_text, to_dot, write_durable, Design, Direction,
    Fault, FaultKind, InstanceNode, Json, LayoutItem, Limits, Net, NetId, Netlist, Node, NodeId,
    NodeOp, Orientation, Port, Shape, StableHasher,
};
pub use zeus_fault::{
    campaign_digest, enumerate_faults, read_header, run_campaign, run_campaign_packed,
    run_campaign_packed_with, run_campaign_with, CampaignConfig, CheckpointHeader,
    CheckpointOptions, CoverageReport, Engine, FaultList, FaultListOptions, FaultResult, Outcome,
    PartialReason, UndetectedReason,
};
pub use zeus_layout::{floorplan, floorplan_of, Floorplan, PlacedPin, PlacedRect};
pub use zeus_netlist::{
    detect_format, import_limits, netlist_from_text, netlist_from_text_limited, netlist_to_text,
    validate_design, validated_digest, yosys_from_json, yosys_from_json_limited, yosys_to_json,
    NetlistFormat, TEXT_MAGIC as NETLIST_TEXT_MAGIC,
};
pub use zeus_opt::{
    metrics, optimize, Metrics, OptConfig, OptReport, Optimized, PassStats, Verification,
};
pub use zeus_sat::{
    decode_model, encode_detection, encode_lockstep, Cnf, Detector, EncodeError, EncodeOptions,
    Lit, SatOutcome, Solver, Var,
};
pub use zeus_sema::{BasicKind, ConstEnv, ConstVal, Resolution, Value};
pub use zeus_sim::{
    check_equivalent, check_equivalent_with, run_differential, Conflict, CounterExample,
    CycleReport, Divergence, EventSimulator, PackedConflict, PackedCycleReport, PackedSim,
    PackedWord, Recorder, Simulator, VectorSet, VectorStream, LANES,
};
pub use zeus_switch::{SwitchSim, Synth};
pub use zeus_syntax::{
    catch_panic, codes, Code, Diagnostic, Diagnostics, Program, SourceMap, Span,
};

/// Runs `f` behind a panic firewall: any residual panic (a bug — the
/// library aims to be panic-free on all release paths) is downgraded to a
/// `Z999` internal-error diagnostic instead of unwinding into the caller.
///
/// All [`Zeus`] entry points and [`compile`] route through this, so
/// embedders (REPLs, servers, fuzzers) never have to `catch_unwind`
/// themselves.
fn firewall<T>(f: impl FnOnce() -> Result<T, Diagnostics>) -> Result<T, Diagnostics> {
    match zeus_syntax::catch_panic(f) {
        Ok(r) => r,
        Err(d) => Err(Diagnostics::from(d)),
    }
}

/// Imports an untrusted interchange payload (format sniffed: `zeus
/// netlist v1` text or Yosys-JSON) behind the panic firewall. The
/// result has passed the full structural validator; compute its
/// identity with [`validated_digest`] afterwards.
///
/// # Errors
///
/// A `Z6xx` diagnostic for any malformed, version-skewed, structurally
/// invalid or over-budget input; `Z999` if an import path panics (a
/// bug, but never an unwind into the caller).
pub fn import_design(text: &str, limits: &Limits) -> Result<Design, Diagnostic> {
    match zeus_syntax::catch_panic(|| match detect_format(text) {
        NetlistFormat::Text => netlist_from_text_limited(text, limits),
        NetlistFormat::YosysJson => yosys_from_json_limited(text, limits),
        NetlistFormat::Unknown => Err(Diagnostic::error(
            Span::dummy(),
            "unrecognized netlist payload: expected 'zeus netlist v1' text or Yosys-JSON"
                .to_string(),
        )
        .with_code(codes::NETLIST_FORMAT)),
    }) {
        Ok(r) => r,
        Err(d) => Err(d),
    }
}

/// Exports a design to the requested interchange format behind the
/// panic firewall.
///
/// # Errors
///
/// `Z606` when the design uses an operation the Yosys cell subset
/// cannot express; `Z999` on a caught panic.
pub fn export_design(design: &Design, format: NetlistFormat) -> Result<String, Diagnostic> {
    match zeus_syntax::catch_panic(|| match format {
        NetlistFormat::YosysJson => yosys_to_json(design),
        _ => Ok(netlist_to_text(design)),
    }) {
        Ok(r) => r,
        Err(d) => Err(d),
    }
}

/// A parsed and checked Zeus program, ready for elaboration.
#[derive(Debug, Clone)]
pub struct Zeus {
    program: Program,
    source: String,
}

impl Zeus {
    /// Parses and checks a Zeus program.
    ///
    /// # Errors
    ///
    /// Returns all lexical, syntactic, and well-formedness diagnostics
    /// (declaration order, name resolution, `USES` visibility).
    pub fn parse(src: &str) -> Result<Zeus, Diagnostics> {
        firewall(|| {
            let program = zeus_syntax::parse_program(src)?;
            zeus_sema::check_program(&program)?;
            Ok(Zeus {
                program,
                source: src.to_string(),
            })
        })
    }

    /// The parsed AST.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// A source map for rendering diagnostics against the source.
    pub fn source_map(&self) -> SourceMap {
        SourceMap::new(&self.source)
    }

    /// Pretty-prints the program back to canonical Zeus text.
    pub fn to_canonical_text(&self) -> String {
        zeus_syntax::print_program(&self.program)
    }

    /// Elaborates component type `top` with numeric parameters `args`.
    ///
    /// # Errors
    ///
    /// Returns the §4.7 static-rule, cycle-legality and termination
    /// diagnostics.
    pub fn elaborate(&self, top: &str, args: &[i64]) -> Result<Design, Diagnostics> {
        firewall(|| zeus_elab::elaborate(&self.program, top, args))
    }

    /// [`Zeus::elaborate`] under an explicit resource budget.
    ///
    /// # Errors
    ///
    /// See [`Zeus::elaborate`]; additionally `Z9xx` resource-limit
    /// diagnostics when a budget in `limits` is exceeded.
    pub fn elaborate_limited(
        &self,
        top: &str,
        args: &[i64],
        limits: &Limits,
    ) -> Result<Design, Diagnostics> {
        firewall(|| zeus_elab::elaborate_with(&self.program, top, args, limits))
    }

    /// Elaborates the design instantiated by a top-level `SIGNAL`.
    ///
    /// # Errors
    ///
    /// See [`Zeus::elaborate`].
    pub fn elaborate_signal(&self, name: &str) -> Result<Design, Diagnostics> {
        firewall(|| zeus_elab::elaborate_signal(&self.program, name))
    }

    /// [`Zeus::elaborate_signal`] under an explicit resource budget.
    ///
    /// # Errors
    ///
    /// See [`Zeus::elaborate_limited`].
    pub fn elaborate_signal_limited(
        &self,
        name: &str,
        limits: &Limits,
    ) -> Result<Design, Diagnostics> {
        firewall(|| zeus_elab::elaborate_signal_with(&self.program, name, limits))
    }

    /// Builds a [`Simulator`] for `top`.
    ///
    /// # Errors
    ///
    /// See [`Zeus::elaborate`].
    pub fn simulator(&self, top: &str, args: &[i64]) -> Result<Simulator, Diagnostics> {
        self.simulator_limited(top, args, &Limits::default())
    }

    /// Builds a [`Simulator`] whose elaboration and budgeted stepping
    /// (`try_step`/`try_run`) obey `limits`.
    ///
    /// # Errors
    ///
    /// See [`Zeus::elaborate_limited`].
    pub fn simulator_limited(
        &self,
        top: &str,
        args: &[i64],
        limits: &Limits,
    ) -> Result<Simulator, Diagnostics> {
        let design = self.elaborate_limited(top, args, limits)?;
        firewall(|| Simulator::with_limits(design, limits).map_err(Diagnostics::from))
    }

    /// Builds an [`EventSimulator`] for `top`.
    ///
    /// # Errors
    ///
    /// See [`Zeus::elaborate`].
    pub fn event_simulator(&self, top: &str, args: &[i64]) -> Result<EventSimulator, Diagnostics> {
        self.event_simulator_limited(top, args, &Limits::default())
    }

    /// Builds an [`EventSimulator`] whose elaboration and budgeted
    /// stepping obey `limits`.
    ///
    /// # Errors
    ///
    /// See [`Zeus::elaborate_limited`].
    pub fn event_simulator_limited(
        &self,
        top: &str,
        args: &[i64],
        limits: &Limits,
    ) -> Result<EventSimulator, Diagnostics> {
        let design = self.elaborate_limited(top, args, limits)?;
        firewall(|| EventSimulator::with_limits(design, limits).map_err(Diagnostics::from))
    }

    /// Builds a switch-level simulator (the Bryant-style baseline) for
    /// `top`.
    ///
    /// # Errors
    ///
    /// See [`Zeus::elaborate`].
    pub fn switch_simulator(&self, top: &str, args: &[i64]) -> Result<SwitchSim, Diagnostics> {
        self.switch_simulator_limited(top, args, &Limits::default())
    }

    /// Builds a switch-level simulator whose elaboration and budgeted
    /// stepping obey `limits`.
    ///
    /// # Errors
    ///
    /// See [`Zeus::elaborate_limited`].
    pub fn switch_simulator_limited(
        &self,
        top: &str,
        args: &[i64],
        limits: &Limits,
    ) -> Result<SwitchSim, Diagnostics> {
        let design = self.elaborate_limited(top, args, limits)?;
        firewall(|| Ok(SwitchSim::with_limits(&design, limits)))
    }

    /// Computes the floorplan of `top`.
    ///
    /// # Errors
    ///
    /// See [`Zeus::elaborate`].
    pub fn floorplan(&self, top: &str, args: &[i64]) -> Result<Floorplan, Diagnostics> {
        let design = self.elaborate(top, args)?;
        firewall(|| Ok(zeus_layout::floorplan(&design)))
    }
}

/// One-shot convenience: parse, check and elaborate.
///
/// # Errors
///
/// See [`Zeus::parse`] and [`Zeus::elaborate`].
pub fn compile(src: &str, top: &str, args: &[i64]) -> Result<Design, Diagnostics> {
    Zeus::parse(src)?.elaborate(top, args)
}

/// [`compile`] under an explicit resource budget.
///
/// # Errors
///
/// See [`compile`]; additionally `Z9xx` resource-limit diagnostics when a
/// budget in `limits` is exceeded.
pub fn compile_limited(
    src: &str,
    top: &str,
    args: &[i64],
    limits: &Limits,
) -> Result<Design, Diagnostics> {
    Zeus::parse(src)?.elaborate_limited(top, args, limits)
}

/// The example programs of the paper (§10 and §4.2), as Zeus source text.
///
/// Each constant is a complete program; the helper functions parse and
/// check them (they are also exercised by the integration tests and
/// benchmarks, which reproduce the paper's figures from them).
pub mod examples {
    use super::{Diagnostics, Zeus};

    /// Half adder, full adder, `rippleCarry4` and `rippleCarry(length)`
    /// (§3.2 Fig. 3.2.2 and §10 "Adders" / Fig. Adder).
    pub const ADDERS: &str = include_str!("../../../zeus-programs/adders.zeus");

    /// The `mux4` function component (§3.2).
    pub const MUX: &str = include_str!("../../../zeus-programs/mux.zeus");

    /// The Blackjack finite state machine (§10), with `plus`, `minus`,
    /// `ge`, `lt` defined in Zeus.
    pub const BLACKJACK: &str = include_str!("../../../zeus-programs/blackjack.zeus");

    /// Binary trees: iterative `tree(n)`, recursive `rtree(n)` with
    /// layout, and the H-tree `htree(n)` (§10 "Binary Trees").
    pub const TREES: &str = include_str!("../../../zeus-programs/trees.zeus");

    /// The systolic pattern matcher `patternmatch(length)` (§10).
    pub const PATTERNMATCH: &str = include_str!("../../../zeus-programs/patternmatch.zeus");

    /// The recursive routing network (§4.2, from HISDL).
    pub const ROUTING: &str = include_str!("../../../zeus-programs/routing.zeus");

    /// A RAM from `REG` and `NUM` (§5.1).
    pub const RAM: &str = include_str!("../../../zeus-programs/ram.zeus");

    /// The chessboard built by `virtual` replacement (§6.4).
    pub const CHESSBOARD: &str = include_str!("../../../zeus-programs/chessboard.zeus");

    /// The AM2901 4-bit microprocessor slice (named in the abstract's
    /// list of tested examples).
    pub const AM2901: &str = include_str!("../../../zeus-programs/am2901.zeus");

    /// A systolic stack (abstract's example list; after Guibas & Liang).
    pub const STACK: &str = include_str!("../../../zeus-programs/stack.zeus");

    /// A systolic queue (completing the Guibas & Liang trio).
    pub const QUEUE: &str = include_str!("../../../zeus-programs/queue.zeus");

    /// A systolic counter with redundant digits (the trio's third piece).
    pub const COUNTER: &str = include_str!("../../../zeus-programs/counter.zeus");

    /// A dictionary machine (abstract's example list; after Ottmann,
    /// Rosenberg & Stockmeyer).
    pub const DICTIONARY: &str = include_str!("../../../zeus-programs/dictionary.zeus");

    /// An odd-even transposition sorting network (§9 invites describing
    /// published circuits; after Thompson's sorting-complexity paper).
    pub const SORTER: &str = include_str!("../../../zeus-programs/sorter.zeus");

    /// A regular-language recognizer from programmable building blocks
    /// (§9 invitation; after Foster/Kung and Floyd/Ullman).
    pub const RECOGNIZER: &str = include_str!("../../../zeus-programs/recognizer.zeus");

    /// The semantics example component of §8 (evaluation-order figure).
    pub const SEMANTICS_C: &str = "TYPE semc = COMPONENT (IN a,b,c,x,y,rin: boolean; \
         OUT rout: boolean; out: multiplex) IS \
         SIGNAL r: REG; \
         BEGIN \
           IF x THEN out := AND(a,b) END; \
           IF y THEN out := c END; \
           r(rin,rout) \
         END;";

    /// Every example with its name and suggested top component.
    pub const ALL: &[(&str, &str, &str)] = &[
        ("adders", ADDERS, "rippleCarry4"),
        ("mux", MUX, "muxtop"),
        ("blackjack", BLACKJACK, "blackjack"),
        ("trees", TREES, "tree"),
        ("patternmatch", PATTERNMATCH, "patternmatch"),
        ("routing", ROUTING, "routingnetwork"),
        ("ram", RAM, "ram1k"),
        ("chessboard", CHESSBOARD, "chessboard"),
        ("am2901", AM2901, "am2901"),
        ("stack", STACK, "systolicstack"),
        ("queue", QUEUE, "systolicqueue"),
        ("counter", COUNTER, "counter"),
        ("dictionary", DICTIONARY, "dictionary"),
        ("sorter", SORTER, "sorter"),
        ("recognizer", RECOGNIZER, "recab"),
        ("semantics", SEMANTICS_C, "semc"),
    ];

    /// Parses and checks one of the bundled example programs.
    ///
    /// # Errors
    ///
    /// Never fails for the bundled sources unless the library itself is
    /// broken; the error type is kept for uniformity.
    pub fn load(src: &str) -> Result<Zeus, Diagnostics> {
        Zeus::parse(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_examples_parse_and_check() {
        for (name, src, _) in examples::ALL {
            if let Err(e) = Zeus::parse(src) {
                panic!("example '{name}' failed to parse/check:\n{e}");
            }
        }
    }

    #[test]
    fn canonical_text_round_trips() {
        for (name, src, _) in examples::ALL {
            let z = Zeus::parse(src).expect(name);
            let text = z.to_canonical_text();
            let z2 = Zeus::parse(&text)
                .unwrap_or_else(|e| panic!("canonical text of '{name}' re-parses:\n{text}\n{e}"));
            assert_eq!(
                z2.to_canonical_text(),
                text,
                "printer fixpoint for '{name}'"
            );
        }
    }

    #[test]
    fn compile_one_shot() {
        let d = compile(examples::ADDERS, "rippleCarry4", &[]).expect("compile");
        assert_eq!(d.ports.len(), 5);
    }

    #[test]
    fn firewall_downgrades_panics_to_internal_diagnostics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let err = firewall::<()>(|| panic!("boom {}", 42)).expect_err("panic is caught");
        std::panic::set_hook(prev);
        let text = err.to_string();
        assert!(text.contains("Z999"), "{text}");
        assert!(text.contains("boom 42"), "{text}");
    }

    #[test]
    fn limited_elaboration_reports_resource_codes() {
        let z = Zeus::parse(examples::ADDERS).expect("parse");
        let limits = Limits {
            max_instances: 1,
            ..Limits::default()
        };
        let err = z
            .elaborate_limited("rippleCarry4", &[], &limits)
            .expect_err("instance budget trips");
        assert!(err.to_string().contains("Z901"), "{err}");
        let err = z
            .elaborate_limited("rippleCarry4", &[], &Limits::default().with_fuel(2))
            .expect_err("fuel budget trips");
        assert!(err.to_string().contains("Z904"), "{err}");
    }

    #[test]
    fn diagnostics_render_with_line_numbers() {
        let err = Zeus::parse("TYPE t = COMPONENT (IN a: boolean) IS\nBEGIN s := bogus END;")
            .expect_err("unknown signal");
        let text = err.to_string();
        assert!(text.contains("bogus"), "{text}");
    }
}
