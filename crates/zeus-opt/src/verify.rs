//! The equivalence gate: the optimizer refuses to emit a rewritten
//! netlist it cannot verify against the original.
//!
//! Both tiers run the packed miter of [`zeus_sim`]'s equivalence module.
//! Combinational designs with at most 16 IN-port bits are checked
//! *exhaustively* — every boolean (0/1) input vector, via
//! [`zeus_sim::check_equivalent_with`]. UNDEF inputs are not enumerated.
//! Everything else (registers, or more input bits) runs the *packed
//! random lockstep* of [`zeus_sim::check_lockstep`]: 4 rounds of 64
//! cycles, 64 lanes each, from a common RSET pulse, comparing every
//! OUT-port bit after every cycle. Lockstep is a falsifier, not a proof —
//! the pass pipeline's per-rewrite soundness arguments carry the
//! correctness burden; the gate is the independent check that refuses to
//! ship when they are ever wrong.

use zeus_elab::Design;
use zeus_sema::Value;
use zeus_sim::{check_equivalent_with, check_lockstep, LANES};
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

use crate::OptConfig;

/// Combinational designs with at most this many IN-port bits are
/// verified exhaustively; everything else runs the lockstep.
const MAX_EXHAUSTIVE_BITS: u32 = 16;
/// Lockstep trials, each from a fresh reset (registers re-start
/// undefined, so distinct trials explore distinct converging runs).
const LOCKSTEP_ROUNDS: u32 = 4;
/// Clock cycles simulated per lockstep trial.
const LOCKSTEP_CYCLES: u32 = 64;

/// How a rewritten design was verified against its original.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verification {
    /// The pipeline changed nothing: the netlists are identical, no
    /// check was needed.
    Unchanged,
    /// Exhaustive enumeration of all `vectors` = 2^bits boolean input
    /// vectors (combinational designs within the input-bit budget).
    Exhaustive {
        /// Number of input vectors simulated on both designs.
        vectors: u64,
    },
    /// Packed pseudo-random lockstep simulation.
    Lockstep {
        /// Independent trials, each from a fresh RSET pulse.
        rounds: u32,
        /// Clock cycles per trial.
        cycles: u32,
        /// Stimulus lanes per cycle (64 per packed word).
        lanes: u32,
    },
}

impl std::fmt::Display for Verification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verification::Unchanged => write!(f, "unchanged (no check needed)"),
            Verification::Exhaustive { vectors } => {
                write!(f, "exhaustive ({vectors} input vectors)")
            }
            Verification::Lockstep {
                rounds,
                cycles,
                lanes,
            } => write!(
                f,
                "lockstep ({rounds} rounds x {cycles} cycles x {lanes} lanes)"
            ),
        }
    }
}

/// Verifies that `opt` is observably equivalent to `orig` at the ports,
/// choosing the strongest affordable check.
///
/// # Errors
///
/// A divergence returns a `Z999` internal diagnostic (an optimizer bug —
/// the rewritten netlist must not be used); resource-limit diagnostics
/// from either tier propagate unchanged.
pub(crate) fn verify_equivalent(
    orig: &Design,
    opt: &Design,
    cfg: &OptConfig,
) -> Result<Verification, Diagnostic> {
    let refuse = |what: String| {
        Diagnostic::internal(
            Span::dummy(),
            format!("optimizer produced a non-equivalent netlist: {what}"),
        )
    };
    let bits: u32 = orig.inputs().map(|p| p.width() as u32).sum();
    if orig.netlist.registers().count() == 0 && bits <= MAX_EXHAUSTIVE_BITS {
        let mut limits = cfg.limits.clone();
        limits.max_input_bits = MAX_EXHAUSTIVE_BITS;
        match check_equivalent_with(orig, opt, &limits)? {
            None => Ok(Verification::Exhaustive { vectors: 1 << bits }),
            Some(ce) => Err(refuse(ce.to_string())),
        }
    } else {
        let (rounds, cycles) = (LOCKSTEP_ROUNDS, LOCKSTEP_CYCLES);
        match check_lockstep(orig, opt, cfg.seed, rounds, cycles, &cfg.limits)? {
            None => Ok(Verification::Lockstep {
                rounds,
                cycles,
                lanes: LANES as u32,
            }),
            Some(d) => {
                let bits = |v: &[Value]| -> String { v.iter().map(Value::to_string).collect() };
                let (a, b) = (bits(&d.got.0), bits(&d.got.1));
                Err(refuse(format!(
                    "output '{}' diverges in lockstep round {}, cycle {}, lane {}: \
                     original={a}, optimized={b}",
                    d.port, d.round, d.cycle, d.lane
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    #[test]
    fn gate_refuses_a_non_equivalent_combinational_rewrite() {
        let a = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
             BEGIN s := AND(a,b) END;",
            "t",
        );
        let b = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
             BEGIN s := OR(a,b) END;",
            "t",
        );
        let err = verify_equivalent(&a, &b, &OptConfig::default())
            .expect_err("AND vs OR must be refused");
        assert!(err.message.contains("non-equivalent"), "{}", err.message);
    }

    #[test]
    fn gate_refuses_a_non_equivalent_sequential_rewrite() {
        let a = design(
            "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
             SIGNAL r: REG; BEGIN r(a, s) END;",
            "t",
        );
        let b = design(
            "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
             SIGNAL r: REG; SIGNAL n: boolean; \
             BEGIN n := NOT(a); r(n, s) END;",
            "t",
        );
        let err = verify_equivalent(&a, &b, &OptConfig::default())
            .expect_err("inverted register feed must be refused");
        assert!(err.message.contains("diverges"), "{}", err.message);
    }

    #[test]
    fn gate_accepts_an_identical_sequential_pair() {
        let src = "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
                   SIGNAL r: REG; BEGIN r(a, s) END;";
        let a = design(src, "t");
        let b = design(src, "t");
        let v = verify_equivalent(&a, &b, &OptConfig::default()).unwrap();
        assert!(matches!(v, Verification::Lockstep { .. }));
    }
}
