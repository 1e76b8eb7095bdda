//! zeus-sat: a budgeted in-tree CDCL SAT solver plus a CNF encoding of
//! stuck-at fault detection for Zeus netlists.
//!
//! The Zeus paper already frames the compiler's hardest problem as SAT
//! (the multiplex single-assignment check is NP-complete via a SAT
//! reduction, §C3); this crate makes the reduction a first-class tool.
//! Three layers, bottom up:
//!
//! - [`cnf`]: literals, clause lists, and DIMACS interchange
//!   ([`Cnf::to_dimacs`] / [`Cnf::parse_dimacs`], `Z701` on malformed
//!   input) so every redundancy claim can be audited by an external
//!   solver.
//! - [`solver`]: CDCL — two-watched literals, VSIDS-style decisions
//!   with deterministic tie-breaks, first-UIP learning, Luby restarts,
//!   phase saving — running under the workspace [`Governor`] budget, so
//!   a solve can stall out ([`SatOutcome::Unknown`]) but never hang.
//! - [`encode`]: time-frame-expanded, dual-rail encoding of "some 0/1
//!   input sequence makes a good and a faulty copy of the design differ
//!   on an output port's boolean view" — a literal transliteration of
//!   the scalar simulator's evaluation sweep over the four-valued
//!   domain, validated exhaustively against it in this crate's tests.
//!
//! `zeus-atpg` drives all three: SAT-confirming PODEM redundancy
//! verdicts, decoding models into vectors for PODEM-aborted faults, and
//! generating targeted sequential tests instead of the campaign-prefix
//! fallback.
//!
//! [`Governor`]: zeus_elab::Governor

pub mod cnf;
pub mod encode;
pub mod solver;

pub use cnf::{Cnf, Lit, Var};
pub use encode::{
    decode_model, encode_detection, encode_lockstep, sample_model, Detector, EncodeError,
    EncodeOptions, Lockstep, LockstepCnf,
};
pub use solver::{SatOutcome, Solver};

#[cfg(test)]
mod encoder_tests {
    use super::*;
    use zeus_elab::{elaborate, Design, Fault, Limits, NetId};
    use zeus_sema::Value;
    use zeus_sim::Simulator;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    fn input_width(d: &Design) -> usize {
        d.inputs().map(|p| p.nets.len()).sum()
    }

    fn set_inputs(sim: &mut Simulator, d: &Design, bits: &[Value]) {
        let mut k = 0;
        for port in d.inputs() {
            let w = port.nets.len();
            let name = port.name.clone();
            sim.set_port(&name, &bits[k..k + w]).unwrap();
            k += w;
        }
    }

    fn outputs_diverge(d: &Design, a: &Simulator, b: &Simulator) -> bool {
        d.outputs().any(|p| a.port(&p.name) != b.port(&p.name))
    }

    /// Ground truth: does any 0/1 sequence of `frames` vectors detect
    /// the fault, starting both copies from power-on state?
    fn brute_force_detects(d: &Design, fault: Fault, frames: u32) -> Option<Vec<Vec<Value>>> {
        let nbits = input_width(d) * frames as usize;
        assert!(nbits <= 12, "brute force capped at 2^12");
        for pattern in 0..(1u64 << nbits) {
            let mut golden = Simulator::new(d.clone()).unwrap();
            let mut faulty = Simulator::new(d.clone()).unwrap();
            faulty.inject(fault).unwrap();
            let mut seq = Vec::new();
            let mut detected = false;
            for f in 0..frames as usize {
                let bits: Vec<Value> = (0..input_width(d))
                    .map(|i| Value::from_bool((pattern >> (f * input_width(d) + i)) & 1 == 1))
                    .collect();
                set_inputs(&mut golden, d, &bits);
                set_inputs(&mut faulty, d, &bits);
                golden.step();
                faulty.step();
                seq.push(bits);
                if outputs_diverge(d, &golden, &faulty) {
                    detected = true;
                    break;
                }
            }
            if detected {
                return Some(seq);
            }
        }
        None
    }

    /// SAT answer for the same question, via the encoder; a model is
    /// replay-verified on the scalar simulator before being accepted.
    fn sat_detects(d: &Design, fault: Fault, frames: u32) -> Option<Vec<Vec<Value>>> {
        let mut gov = Limits::new().governor();
        let opts = EncodeOptions {
            frames,
            init_good: None,
            init_faulty: None,
        };
        let det = match encode_detection(d, fault, &opts, &mut gov) {
            Ok(det) => det,
            Err(e) => panic!("encode failed: {e:?}"),
        };
        match Solver::from_cnf(&det.cnf).solve(0, &mut gov) {
            SatOutcome::Unsat => None,
            SatOutcome::Unknown => panic!("unbudgeted solve returned unknown"),
            SatOutcome::Sat(model) => {
                assert!(det.cnf.eval(&model), "model must satisfy the formula");
                let seq = decode_model(&det, &model);
                // Replay guarantee: the decoded sequence must actually
                // diverge on the simulator within `frames` cycles.
                let mut golden = Simulator::new(d.clone()).unwrap();
                let mut faulty = Simulator::new(d.clone()).unwrap();
                faulty.inject(fault).unwrap();
                let mut detected = false;
                for bits in &seq {
                    set_inputs(&mut golden, d, bits);
                    set_inputs(&mut faulty, d, bits);
                    golden.step();
                    faulty.step();
                    if outputs_diverge(d, &golden, &faulty) {
                        detected = true;
                        break;
                    }
                }
                assert!(detected, "SAT model did not replay to a detection");
                Some(seq)
            }
        }
    }

    /// For every stuck-at fault on every net: SAT and 2^n enumeration
    /// must agree on detectability, and every SAT model must replay.
    fn cross_check(src: &str, top: &str, frames: u32) {
        let d = design(src, top);
        for net in 0..d.netlist.nets.len() {
            for fault in [
                Fault::stuck_at_0(NetId(net as u32)),
                Fault::stuck_at_1(NetId(net as u32)),
            ] {
                let brute = brute_force_detects(&d, fault, frames);
                let sat = sat_detects(&d, fault, frames);
                assert_eq!(
                    brute.is_some(),
                    sat.is_some(),
                    "{top}: disagreement on net {net} fault {:?} over {frames} frame(s): \
                     brute={brute:?} sat={sat:?}",
                    fault.kind,
                );
            }
        }
    }

    #[test]
    fn full_adder_matches_exhaustive_simulation() {
        cross_check(
            "TYPE fulladder = COMPONENT \
             (IN a,b,cin: boolean; OUT sum,cout: boolean) IS \
             BEGIN sum := XOR(XOR(a,b),cin); \
             cout := OR(AND(a,b), AND(cin, XOR(a,b))) END;",
            "fulladder",
            1,
        );
    }

    #[test]
    fn redundant_tautology_matches_exhaustive_simulation() {
        // OR(a, NOT a) is constant 1: several faults are undetectable
        // and must come back UNSAT, not Sat-with-a-bogus-model.
        cross_check(
            "TYPE taut = COMPONENT (IN a,b: boolean; OUT q: boolean) IS \
             BEGIN q := AND(OR(a, NOT a), b) END;",
            "taut",
            1,
        );
    }

    #[test]
    fn multiplex_drivers_and_noinfl_match_exhaustive_simulation() {
        // Exercises the resolution encoding: two IF switches drive one
        // multiplex net (conflict → UNDEF, both open → NOINFL).
        cross_check(
            "TYPE muxnet = COMPONENT (IN a,b,d: boolean; OUT q: boolean) IS \
             SIGNAL h: multiplex; \
             BEGIN IF a THEN h := d END; IF b THEN h := NOT d END; q := h END;",
            "muxnet",
            1,
        );
    }

    #[test]
    fn equal_and_constants_match_exhaustive_simulation() {
        cross_check(
            "CONST pattern = (1,0); \
             TYPE cmp = COMPONENT (IN a: ARRAY[1..2] OF boolean; OUT s: boolean) IS \
             USES pattern; \
             BEGIN s := EQUAL(a, pattern) END;",
            "cmp",
            1,
        );
    }

    #[test]
    fn nand_nor_rail_swaps_match_exhaustive_simulation() {
        cross_check(
            "TYPE gates = COMPONENT (IN a,b: boolean; OUT x,y: boolean) IS \
             BEGIN x := NAND(a,b); y := NOR(a,b) END;",
            "gates",
            1,
        );
    }

    #[test]
    fn sequential_time_frames_match_exhaustive_simulation() {
        // A toggle-ish register loop: one frame cannot see most faults
        // (the register powers on UNDEF), more frames can. Checked for
        // k = 1, 2, 3 against exhaustive sequence enumeration.
        let src = "TYPE delay = COMPONENT (IN d: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; BEGIN r.in := XOR(d, r.out); q := r.out END;";
        for frames in 1..=3 {
            cross_check(src, "delay", frames);
        }
    }

    #[test]
    fn lockstep_unsat_implies_no_bounded_sequence_detects() {
        // The lockstep proof quantifies over every register state and
        // every input (RSET included), so UNSAT must imply that no
        // concrete sequence of any bounded length detects the fault —
        // checked here against exhaustive 3-frame enumeration. The
        // design mixes genuinely redundant sites (the constant reset
        // leg) with detectable ones, so both branches are exercised.
        let src = "TYPE seq = COMPONENT (IN d: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; \
             BEGIN IF RSET THEN r.in := 0 ELSE r.in := XOR(d, r.out) END; \
             q := r.out END;";
        let d = design(src, "seq");
        let (mut proven, mut open) = (0, 0);
        for net in 0..d.netlist.nets.len() {
            for fault in [
                Fault::stuck_at_0(NetId(net as u32)),
                Fault::stuck_at_1(NetId(net as u32)),
            ] {
                let mut gov = Limits::new().governor();
                let cnf = encode_lockstep(&d, fault, &mut gov).expect("encodable");
                match Solver::from_cnf(&cnf).solve(0, &mut gov) {
                    SatOutcome::Unsat => {
                        proven += 1;
                        assert!(
                            brute_force_detects(&d, fault, 3).is_none(),
                            "net {net} {:?}: lockstep-redundant yet a sequence detects it",
                            fault.kind
                        );
                    }
                    SatOutcome::Sat(_) => open += 1,
                    SatOutcome::Unknown => panic!("unbudgeted solve returned unknown"),
                }
            }
        }
        assert!(proven > 0, "no fault was proven lockstep-redundant");
        assert!(
            open > 0,
            "every fault proven redundant — clamp not applied?"
        );
    }

    #[test]
    fn more_frames_never_lose_a_detection() {
        // Detection under k frames implies detection under k+1 (the
        // extra tail frame is free), so SAT results must be monotone.
        let src = "TYPE hold = COMPONENT (IN en,d: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; BEGIN IF en THEN r.in := d END; q := r.out END;";
        let d = design(src, "hold");
        for net in 0..d.netlist.nets.len() {
            let fault = Fault::stuck_at_1(NetId(net as u32));
            let mut prev = false;
            for frames in 1..=3 {
                let now = sat_detects(&d, fault, frames).is_some();
                assert!(
                    now || !prev,
                    "net {net}: detected at {} frames but not {frames}",
                    frames - 1
                );
                prev = now;
            }
        }
    }
}
