//! Exhaustive combinational equivalence checking.
//!
//! The paper asserts equivalences between formulations ("is equivalent to
//! (if length = 4)" for the two ripple-carry adders; the iterative and
//! recursive binary trees). This module mechanizes such claims for
//! combinational designs by exhausting the input space.

use crate::vectors::VectorStream;
use crate::Simulator;
use zeus_elab::{Design, Limits};
use zeus_sema::value::Value;
use zeus_syntax::diag::{codes, Diagnostic};
use zeus_syntax::span::Span;

/// A disproof of equivalence: the input assignment and the first output
/// port on which the designs disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// `(port name, forced bits LSB-first)` for every IN port.
    pub inputs: Vec<(String, Vec<Value>)>,
    /// The output port that differs.
    pub port: String,
    /// The two observed values (design a, design b).
    pub got: (Vec<Value>, Vec<Value>),
}

impl std::fmt::Display for CounterExample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "designs differ on '{}' for", self.port)?;
        for (name, bits) in &self.inputs {
            write!(f, " {name}=")?;
            for b in bits {
                write!(f, "{b}")?;
            }
        }
        write!(f, ": ")?;
        for b in &self.got.0 {
            write!(f, "{b}")?;
        }
        write!(f, " vs ")?;
        for b in &self.got.1 {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// Checks two combinational designs for exhaustive input/output
/// equivalence. The designs must have identically named and sized IN and
/// OUT ports.
///
/// Returns `Ok(None)` when equivalent, `Ok(Some(ce))` with a counter
/// example otherwise.
///
/// # Errors
///
/// Returns a diagnostic when the interfaces differ, a design contains
/// registers (sequential equivalence is out of scope), or the total
/// input width exceeds `max_input_bits` (default cap callers should pass:
/// 20 → about a million vectors).
pub fn check_equivalent(
    a: &Design,
    b: &Design,
    max_input_bits: u32,
) -> Result<Option<CounterExample>, Diagnostic> {
    let limits = Limits {
        max_input_bits,
        ..Limits::default()
    };
    check_equivalent_with(a, b, &limits)
}

/// Like [`check_equivalent`], but governed by a full [`Limits`] budget:
/// the input cap comes from `limits.max_input_bits` (violations are tagged
/// `Z909`), and each simulated input vector charges fuel and checks the
/// deadline, so a large exhaustive sweep can be cancelled mid-flight.
///
/// # Errors
///
/// See [`check_equivalent`]; additionally `Z904`/`Z905` when the fuel or
/// deadline budget runs out during the sweep.
pub fn check_equivalent_with(
    a: &Design,
    b: &Design,
    limits: &Limits,
) -> Result<Option<CounterExample>, Diagnostic> {
    let max_input_bits = limits.max_input_bits;
    let err = |msg: String| Diagnostic::error(Span::dummy(), msg);
    if a.netlist.registers().count() != 0 || b.netlist.registers().count() != 0 {
        return Err(err(
            "equivalence checking is combinational only (designs contain registers)".into(),
        ));
    }
    let ins_a: Vec<_> = a.inputs().collect();
    let ins_b: Vec<_> = b.inputs().collect();
    let outs_a: Vec<_> = a.outputs().collect();
    let outs_b: Vec<_> = b.outputs().collect();
    if ins_a.len() != ins_b.len() || outs_a.len() != outs_b.len() {
        return Err(err("designs have different port counts".into()));
    }
    for (pa, pb) in ins_a.iter().zip(&ins_b).chain(outs_a.iter().zip(&outs_b)) {
        if pa.name != pb.name || pa.width() != pb.width() {
            return Err(err(format!(
                "port mismatch: {}[{}] vs {}[{}]",
                pa.name,
                pa.width(),
                pb.name,
                pb.width()
            )));
        }
    }
    let total_bits: usize = ins_a.iter().map(|p| p.width()).sum();
    if total_bits as u32 > max_input_bits {
        return Err(err(format!(
            "{total_bits} input bits exceed the exhaustive cap of {max_input_bits}"
        ))
        .with_code(codes::LIMIT_INPUT_BITS));
    }
    let in_names: Vec<(String, usize)> =
        ins_a.iter().map(|p| (p.name.clone(), p.width())).collect();
    let out_names: Vec<String> = outs_a.iter().map(|p| p.name.clone()).collect();

    let mut sa = Simulator::new(a.clone()).map_err(|e| err(e.to_string()))?;
    let mut sb = Simulator::new(b.clone()).map_err(|e| err(e.to_string()))?;
    let mut gov = limits.governor();
    for vector in 0u64..(1u64 << total_bits) {
        gov.charge(1, Span::dummy())?;
        let mut offset = 0usize;
        let mut assignment = Vec::with_capacity(in_names.len());
        for (name, width) in &in_names {
            let bits: Vec<Value> = (0..*width)
                .map(|i| Value::from_bool((vector >> (offset + i)) & 1 == 1))
                .collect();
            sa.set_port(name, &bits).map_err(|e| err(e.to_string()))?;
            sb.set_port(name, &bits).map_err(|e| err(e.to_string()))?;
            assignment.push((name.clone(), bits));
            offset += width;
        }
        sa.step();
        sb.step();
        for name in &out_names {
            let (va, vb) = (sa.port(name), sb.port(name));
            if va != vb {
                return Ok(Some(CounterExample {
                    inputs: assignment,
                    port: name.clone(),
                    got: (va, vb),
                }));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str, args: &[i64]) -> Design {
        elaborate(&parse_program(src).unwrap(), top, args).unwrap()
    }

    const ADDERS: &str = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := XOR(a,b); cout := AND(a,b) END; \
         sum2 = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := AND(OR(a,b), NAND(a,b)); cout := AND(a,b) END; \
         broken = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := OR(a,b); cout := AND(a,b) END;";

    #[test]
    fn equivalent_formulations_verify() {
        let a = design(ADDERS, "halfadder", &[]);
        let b = design(ADDERS, "sum2", &[]);
        assert_eq!(check_equivalent(&a, &b, 20).unwrap(), None);
    }

    #[test]
    fn inequivalence_yields_counterexample() {
        let a = design(ADDERS, "halfadder", &[]);
        let b = design(ADDERS, "broken", &[]);
        let ce = check_equivalent(&a, &b, 20).unwrap().expect("differs");
        assert_eq!(ce.port, "s");
        // OR differs from XOR exactly on a=b=1.
        assert!(ce.inputs.iter().all(|(_, bits)| bits == &vec![Value::One]));
        assert!(!ce.to_string().is_empty());
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let a = design(ADDERS, "halfadder", &[]);
        let b = design(
            "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS BEGIN s := a END;",
            "t",
            &[],
        );
        assert!(check_equivalent(&a, &b, 20).is_err());
    }

    #[test]
    fn sequential_designs_are_rejected() {
        let a = design(
            "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
             SIGNAL r: REG; BEGIN r(a, s) END;",
            "t",
            &[],
        );
        assert!(check_equivalent(&a, &a, 20).is_err());
    }

    #[test]
    fn input_cap_is_enforced() {
        let a = design(
            "TYPE t = COMPONENT (IN a: ARRAY[1..30] OF boolean; OUT s: boolean) IS \
             BEGIN s := a[1] END;",
            "t",
            &[],
        );
        assert!(check_equivalent(&a, &a, 20).is_err());
    }
}

/// The first observed disagreement between two simulators driven with the
/// same input stream: which cycle, which OUT port, under which inputs.
///
/// This is the sequential analogue of [`CounterExample`]; fault campaigns
/// use it to pin a fault's detection cycle and observation point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based cycle (of the differential run) in which the outputs
    /// first differed.
    pub cycle: u64,
    /// The output port that differs.
    pub port: String,
    /// `(port name, forced bits LSB-first)` driven in that cycle.
    pub inputs: Vec<(String, Vec<Value>)>,
    /// The two observed values (simulator a, simulator b).
    pub got: (Vec<Value>, Vec<Value>),
}

/// Runs two simulators in lock-step on the same [`VectorStream`] for up
/// to `cycles` cycles, comparing every OUT port of `sa`'s design after
/// each cycle. Returns the first [`Divergence`], or `None` when the pair
/// agreed throughout.
///
/// Both simulators advance via [`Simulator::try_step`], so each one's
/// [`Limits`] budget is honored — a hyperactive faulty circuit runs out
/// of fuel instead of hanging the campaign.
///
/// # Errors
///
/// Propagates budget diagnostics (`Z904`/`Z905`/`Z908`) and port-shape
/// mismatches between the stream and the designs.
pub fn run_differential(
    sa: &mut Simulator,
    sb: &mut Simulator,
    stream: &mut VectorStream,
    cycles: u32,
) -> Result<Option<Divergence>, Diagnostic> {
    let err = |msg: String| Diagnostic::error(Span::dummy(), msg);
    let out_names: Vec<String> = sa.design().outputs().map(|p| p.name.clone()).collect();
    for cycle in 0..cycles {
        let assignment = stream.next_vector();
        for (name, bits) in &assignment {
            sa.set_port(name, bits).map_err(|e| err(e.to_string()))?;
            sb.set_port(name, bits).map_err(|e| err(e.to_string()))?;
        }
        sa.try_step()?;
        sb.try_step()?;
        for name in &out_names {
            let (va, vb) = (sa.port(name), sb.port(name));
            if va != vb {
                return Ok(Some(Divergence {
                    cycle: cycle as u64,
                    port: name.clone(),
                    inputs: assignment,
                    got: (va, vb),
                }));
            }
        }
    }
    Ok(None)
}
