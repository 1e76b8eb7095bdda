//! Equivalence checking: the one place where two simulators are compared.
//!
//! The paper asserts equivalences between formulations ("is equivalent to
//! (if length = 4)" for the two ripple-carry adders; the iterative and
//! recursive binary trees). A packed miter checks such claims: two
//! [`PackedSim`]s on the same 64 stimulus lanes, fed every input vector
//! ([`check_equivalent`]) or seeded random lanes ([`check_lockstep`]).
//! [`run_differential`] runs one design against its faulty twin.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packed::{PackedSim, PackedWord};
use crate::vectors::VectorStream;
use crate::Simulator;
use std::iter::zip;
use zeus_elab::{Design, Limits, NetId, NodeOp, Port};
use zeus_sema::value::Value;
use zeus_syntax::diag::{codes, Diagnostic};
use zeus_syntax::span::Span;

/// The widest input space enumerated whatever the cap: its 2^63 vectors
/// still count in a `u64`.
const MAX_ENUMERABLE_BITS: u32 = 63;

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

/// The first disagreement [`check_lockstep`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockstepDivergence {
    /// Zero-based trial.
    pub round: u32,
    /// Zero-based cycle of the trial, after its reset cycle.
    pub cycle: u32,
    /// The stimulus lane.
    pub lane: usize,
    /// The output port that differs.
    pub port: String,
    /// The port's bits in that lane, boolean view (design a, design b).
    pub got: (Vec<Value>, Vec<Value>),
}

/// The ports of two designs, paired by position: each bit as its net in
/// either design (the two number their nets independently).
struct Miter {
    /// Every IN bit, in port order and LSB-first.
    ins: Vec<(NetId, NetId)>,
    /// Every OUT port's name and bits.
    outs: Vec<(String, Vec<(NetId, NetId)>)>,
}

impl Miter {
    /// Pairs the ports of `a` and `b`, which must agree in count, names
    /// and widths. Designs with RANDOM nodes are refused: the packed
    /// engine draws one RANDOM bit per step for all lanes, in node order.
    fn new(a: &Design, b: &Design) -> Result<Miter, Diagnostic> {
        let err = |msg: String| Diagnostic::error(Span::dummy(), msg);
        let random = |d: &Design| d.netlist.nodes.iter().any(|n| n.op == NodeOp::Random);
        if random(a) || random(b) {
            return Err(err(
                "equivalence checking needs deterministic designs (designs contain RANDOM)".into(),
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
        let nets = |(pa, pb): (&&Port, &&Port)| zip(pa.nets.clone(), pb.nets.clone());
        let outs = outs_a.iter().zip(&outs_b);
        Ok(Miter {
            ins: ins_a.iter().zip(&ins_b).flat_map(nets).collect(),
            outs: outs
                .map(|pair| (pair.0.name.clone(), nets(pair).collect()))
                .collect(),
        })
    }

    /// Forces the `k`-th IN bit (port order, LSB-first) of both sides to
    /// `word(k)` and steps both. Returns the lowest lane of `live` where
    /// an OUT bit differs, with the first such OUT port's name.
    fn step(
        &self,
        a: &mut PackedSim,
        b: &mut PackedSim,
        live: u64,
        mut word: impl FnMut(usize) -> PackedWord,
    ) -> Result<Option<(usize, &str)>, Diagnostic> {
        for (k, &(na, nb)) in self.ins.iter().enumerate() {
            let w = word(k);
            a.force(na, w);
            b.force(nb, w);
        }
        a.try_step()?;
        b.try_step()?;
        let diff = |bits: &[(NetId, NetId)]| -> u64 {
            let differ = |&(na, nb): &(NetId, NetId)| {
                a.value(na).to_boolean().diff(b.value(nb).to_boolean())
            };
            bits.iter().map(differ).fold(0, |m, d| m | d) & live
        };
        let masks: Vec<u64> = self.outs.iter().map(|(_, bits)| diff(bits)).collect();
        // The lowest differing lane, as a one-bit mask (0 when none).
        let any = masks.iter().fold(0, |m, d| m | d);
        let lowest = any & any.wrapping_neg();
        let port = masks.iter().position(|m| (m & lowest) != 0);
        Ok(port.map(|p| (lowest.trailing_zeros() as usize, self.outs[p].0.as_str())))
    }
}

/// A packed word whose lanes hold the bits of `w`.
fn boolean_word(w: u64) -> PackedWord {
    PackedWord { lo: !w, hi: w }
}

/// Checks two combinational designs for exhaustive input/output
/// equivalence. The designs must have identically named and sized IN and
/// OUT ports.
///
/// Returns `Ok(None)` when equivalent, `Ok(Some(ce))` with a counter
/// example otherwise: the lowest differing input vector (the IN bits,
/// LSB-first in port order, read as one number), and the first OUT port
/// that differs on it.
///
/// # Errors
///
/// Returns a diagnostic when the interfaces differ, a design contains
/// registers (sequential equivalence is out of scope) or RANDOM nodes, or
/// the total input width exceeds `max_input_bits` (default cap callers
/// should pass: 20 → about a million vectors) or 63.
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
/// `Z909`), each simulated input vector charges one unit of fuel, and the
/// deadline is checked every 64 vectors, so a large exhaustive sweep can
/// be cancelled mid-flight.
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
    let err = |msg: String| Diagnostic::error(Span::dummy(), msg);
    if a.netlist.registers().count() != 0 || b.netlist.registers().count() != 0 {
        return Err(err(
            "equivalence checking is combinational only (designs contain registers)".into(),
        ));
    }
    let miter = Miter::new(a, b)?;
    let total_bits = miter.ins.len();
    let cap = limits.max_input_bits.min(MAX_ENUMERABLE_BITS);
    if total_bits > cap as usize {
        return Err(err(format!(
            "{total_bits} input bits exceed the exhaustive cap of {cap}"
        ))
        .with_code(codes::LIMIT_INPUT_BITS));
    }

    // The simulators run unbudgeted; the sweep bills the caller's
    // governor per vector instead.
    let mut sa = PackedSim::new(a.clone())?;
    let mut sb = PackedSim::new(b.clone())?;
    let mut gov = limits.governor();
    let count = 1u64 << total_bits;
    for base in (0..count).step_by(64) {
        // Lane l holds vector base + l, whose bit k drives the k-th IN
        // bit: below bit 6 that is bit k of l, runs of 2^k zeros then
        // 2^k ones (0xAAAA.., 0xCCCC.., 0xF0F0..); above it bit k of base.
        // Lanes past `count` are not live.
        let live = !0 >> 64u64.saturating_sub(count - base);
        let hit = miter.step(&mut sa, &mut sb, live, |k| match k {
            0..6 => boolean_word((!0 / ((1 << (1 << k)) + 1)) << (1 << k)),
            _ if (base >> k) & 1 == 1 => PackedWord::ONE,
            _ => PackedWord::ZERO,
        })?;
        // Bill every vector up to the first divergence, as a sweep of one
        // vector per step would.
        let billed = hit.map_or(u64::from(live.count_ones()), |(lane, _)| lane as u64 + 1);
        gov.charge(billed, Span::dummy())?;
        gov.check_deadline(Span::dummy())?;
        if let Some((lane, port)) = hit {
            let vector = base + lane as u64;
            let (mut inputs, mut k) = (Vec::new(), 0);
            for p in a.inputs() {
                let values = (k..k + p.width()).map(|k| Value::from_bool((vector >> k) & 1 == 1));
                inputs.push((p.name.clone(), values.collect()));
                k += p.width();
            }
            return Ok(Some(CounterExample {
                inputs,
                port: port.to_string(),
                got: (sa.port_lane(port, lane), sb.port_lane(port, lane)),
            }));
        }
    }
    Ok(None)
}

/// Compares two designs on seeded random stimulus, a falsifier: `rounds`
/// trials on fresh simulators under `limits`, each a common reset cycle
/// (RSET high, inputs 0) and then `cycles` cycles, comparing every OUT
/// bit. Each cycle draws one `u64` (64 lanes) per IN bit, in port order
/// and LSB-first, from one `StdRng` seeded with `seed`.
///
/// # Errors
///
/// Interface mismatches and RANDOM nodes as for [`check_equivalent`];
/// budget diagnostics (`Z904`/`Z905`/`Z908`) from either simulator.
pub fn check_lockstep(
    a: &Design,
    b: &Design,
    seed: u64,
    rounds: u32,
    cycles: u32,
    limits: &Limits,
) -> Result<Option<LockstepDivergence>, Diagnostic> {
    let miter = Miter::new(a, b)?;
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..rounds {
        let mut sa = PackedSim::with_limits(a.clone(), limits)?;
        let mut sb = PackedSim::with_limits(b.clone(), limits)?;
        sa.set_rset(true);
        sb.set_rset(true);
        miter.step(&mut sa, &mut sb, 0, |_| PackedWord::ZERO)?;
        sa.set_rset(false);
        sb.set_rset(false);
        for cycle in 0..cycles {
            let words = |_| boolean_word(rng.gen());
            if let Some((lane, port)) = miter.step(&mut sa, &mut sb, !0, words)? {
                return Ok(Some(LockstepDivergence {
                    round,
                    cycle,
                    lane,
                    port: port.to_string(),
                    got: (sa.port_lane(port, lane), sb.port_lane(port, lane)),
                }));
            }
        }
    }
    Ok(None)
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
    fn fuel_is_billed_per_vector_up_to_the_counterexample() {
        // XOR and AND first differ on vector 1 (a=1, b=0) of 4: two units
        // reach it, one does not.
        let src =
            "TYPE f = COMPONENT (IN a,b: boolean; OUT s: boolean) IS BEGIN s := XOR(a,b) END; \
                   g = COMPONENT (IN a,b: boolean; OUT s: boolean) IS BEGIN s := AND(a,b) END;";
        let (a, b) = (design(src, "f", &[]), design(src, "g", &[]));
        let ce = check_equivalent_with(&a, &b, &Limits::default().with_fuel(2)).unwrap();
        assert_eq!(ce.map(|ce| ce.port), Some("s".to_string()));
        let err = check_equivalent_with(&a, &b, &Limits::default().with_fuel(1)).unwrap_err();
        assert_eq!(err.code, Some(codes::LIMIT_FUEL));
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
    fn random_designs_are_rejected() {
        // Operand order decides which node draws first, so the two
        // formulations need not see the same RANDOM bits.
        let src = "TYPE f = COMPONENT (IN a: boolean; OUT s: boolean) IS \
                   BEGIN s := AND(a, RANDOM()) END; \
                   g = COMPONENT (IN a: boolean; OUT s: boolean) IS \
                   BEGIN s := AND(RANDOM(), a) END;";
        let (f, g) = (design(src, "f", &[]), design(src, "g", &[]));
        let err = check_equivalent(&f, &g, 20).expect_err("RANDOM is refused");
        assert!(err.message.contains("RANDOM"), "{}", err.message);
        let err = check_lockstep(&f, &g, 1, 1, 4, &Limits::default()).expect_err("refused");
        assert!(err.message.contains("RANDOM"), "{}", err.message);
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

    #[test]
    fn sixty_four_input_bits_are_refused_whatever_the_cap() {
        // The two differ whenever a[1]=0 and a[64]=1; enumerating 2^64
        // vectors is out of reach, so the answer is Z909, never
        // "equivalent".
        let src = "TYPE f = COMPONENT (IN a: ARRAY[1..64] OF boolean; OUT s: boolean) IS \
                   BEGIN s := a[64] END; \
                   g = COMPONENT (IN a: ARRAY[1..64] OF boolean; OUT s: boolean) IS \
                   BEGIN s := AND(a[1], a[64]) END;";
        let (f, g) = (design(src, "f", &[]), design(src, "g", &[]));
        for cap in [64, u32::MAX] {
            let err = check_equivalent(&f, &g, cap).expect_err("past 63 bits");
            assert_eq!(err.code, Some(codes::LIMIT_INPUT_BITS), "{}", err.message);
        }
    }

    #[test]
    fn the_first_divergence_is_the_lowest_lane_then_the_first_port() {
        // `s` differs whenever a=1, `t` when a=1 and b=0; `s` is declared
        // first.
        let src = "TYPE f = COMPONENT (IN a,b: boolean; OUT s,t: boolean) IS \
                   BEGIN s := a; t := OR(a,b) END; \
                   g = COMPONENT (IN a,b: boolean; OUT s,t: boolean) IS \
                   BEGIN s := 0; t := b END;";
        let (f, g) = (design(src, "f", &[]), design(src, "g", &[]));
        let ce = check_equivalent(&f, &g, 20).unwrap().expect("differs");
        assert_eq!(ce.to_string(), "designs differ on 's' for a=1 b=0: 1 vs 0");
        let d = check_lockstep(&f, &g, 7, 4, 64, &Limits::default())
            .unwrap()
            .expect("differs");
        assert_eq!((d.round, d.cycle, d.port.as_str()), (0, 0, "s"));
        assert_eq!(d.got, (vec![Value::One], vec![Value::Zero]));
        // The first draw is the word of `a`: its lowest set bit.
        let a: u64 = StdRng::seed_from_u64(7).gen();
        assert_eq!(d.lane, a.trailing_zeros() as usize);
        assert_eq!(
            check_lockstep(&f, &f, 7, 4, 64, &Limits::default()),
            Ok(None)
        );
    }

    /// The scalar 2^n enumeration the packed miter replaced, kept as its
    /// reference: one vector per step, in vector-number order.
    fn scalar_reference(a: &Design, b: &Design) -> Option<CounterExample> {
        let ins: Vec<(String, usize)> = a.inputs().map(|p| (p.name.clone(), p.width())).collect();
        let outs: Vec<String> = a.outputs().map(|p| p.name.clone()).collect();
        let total_bits: usize = ins.iter().map(|(_, w)| w).sum();
        let mut sa = Simulator::new(a.clone()).unwrap();
        let mut sb = Simulator::new(b.clone()).unwrap();
        for vector in 0u64..(1u64 << total_bits) {
            let mut offset = 0usize;
            let mut assignment = Vec::with_capacity(ins.len());
            for (name, width) in &ins {
                let bits: Vec<Value> = (0..*width)
                    .map(|i| Value::from_bool((vector >> (offset + i)) & 1 == 1))
                    .collect();
                sa.set_port(name, &bits).unwrap();
                sb.set_port(name, &bits).unwrap();
                assignment.push((name.clone(), bits));
                offset += width;
            }
            sa.step();
            sb.step();
            for name in &outs {
                let (va, vb) = (sa.port(name), sb.port(name));
                if va != vb {
                    return Some(CounterExample {
                        inputs: assignment,
                        port: name.clone(),
                        got: (va, vb),
                    });
                }
            }
        }
        None
    }

    /// The bundled designs: `(program, top, args)`, the table of
    /// `tests/packed_equiv.rs` minus the inline semantics example, which
    /// has a register.
    const BUNDLED: &[(&str, &str, &[i64])] = &[
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
    ];

    fn bundled(program: &str, top: &str, args: &[i64]) -> Design {
        let path = format!(
            "{}/../../zeus-programs/{program}.zeus",
            env!("CARGO_MANIFEST_DIR")
        );
        design(&std::fs::read_to_string(path).unwrap(), top, args)
    }

    /// Up to `n` seeded single-gate mutants of `d`: each swaps one AND
    /// and OR, or turns one NOT into a buffer.
    fn mutants(d: &Design, seed: u64, n: usize) -> Vec<Design> {
        let mut sites: Vec<usize> = (0..d.netlist.nodes.len())
            .filter(|&i| {
                matches!(
                    d.netlist.nodes[i].op,
                    NodeOp::And | NodeOp::Or | NodeOp::Not
                )
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        while out.len() < n && !sites.is_empty() {
            let i = sites.swap_remove(rng.gen_range(0..sites.len()));
            let mut m = d.clone();
            let node = &mut m.netlist.nodes[i];
            node.op = match node.op {
                NodeOp::And => NodeOp::Or,
                NodeOp::Or => NodeOp::And,
                _ => NodeOp::Buf,
            };
            out.push(m);
        }
        out
    }

    #[test]
    fn packed_miter_matches_the_scalar_reference() {
        let mut checked = Vec::new();
        let mut differing = 0;
        for (seed, &(program, top, args)) in BUNDLED.iter().enumerate() {
            let d = bundled(program, top, args);
            let bits: usize = d.inputs().map(|p| p.width()).sum();
            let deterministic = d.netlist.nodes.iter().all(|n| n.op != NodeOp::Random);
            if d.netlist.registers().count() != 0 || !deterministic || bits > 16 {
                continue;
            }
            assert_eq!(check_equivalent(&d, &d, 16), Ok(None), "{top}");
            assert_eq!(scalar_reference(&d, &d), None, "{top}");
            for m in mutants(&d, seed as u64, 6) {
                let packed = check_equivalent(&d, &m, 16).unwrap();
                assert_eq!(packed, scalar_reference(&d, &m), "{top}");
                differing += usize::from(packed.is_some());
            }
            checked.push(top);
        }
        let expected = [
            "rippleCarry4",
            "rippleCarry",
            "muxtop",
            "tree",
            "rtree",
            "htree",
            "chessboard",
            "sorter",
        ];
        assert_eq!(
            checked, expected,
            "the combinational designs within 16 bits"
        );
        assert!(differing > 0, "no mutant differed");
    }
}
