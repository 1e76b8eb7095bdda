//! Deterministic benchmark circuits for the interchange pipeline.
//!
//! Two gate-level designs in the spirit of the ISCAS-85 suite
//! (Brglez & Fujiwara, ISCAS 1985):
//!
//! * [`c17`] — the classic six-NAND toy benchmark, reproduced exactly:
//!   inputs N1 N2 N3 N6 N7, outputs N22 N23, with the original
//!   net numbering preserved in the debug names.
//! * [`c432_like`] — a c432-*class* circuit: 36 single-bit inputs,
//!   7 outputs and ~170 two/three-input gates arranged in ranks, grown
//!   by a fixed-seed xorshift generator so the netlist is identical on
//!   every build. It is **not** the ISCAS c432 interrupt controller
//!   (whose netlist carries distribution restrictions) but matches its
//!   interface scale, which is what the import/sim/fault/ATPG/opt
//!   pipeline tests need.
//!
//! The vendored files under `benchmarks/` are the `zeus netlist v1`
//! text of exactly these constructions; a test asserts they stay
//! byte-identical to the generator so the corpus cannot drift.

use std::collections::HashMap;

use zeus_elab::design::{Design, InstanceNode, Port};
use zeus_elab::netlist::{NetId, Netlist, NodeOp};
use zeus_elab::shape::Shape;
use zeus_sema::BasicKind;
use zeus_syntax::ast::Mode;
use zeus_syntax::diag::Diagnostics;
use zeus_syntax::Span;

fn input_port(name: &str, net: NetId) -> Port {
    Port {
        name: name.to_string(),
        mode: Mode::In,
        shape: Shape::boolean(),
        nets: vec![net],
    }
}

fn output_port(name: &str, net: NetId) -> Port {
    Port {
        name: name.to_string(),
        mode: Mode::Out,
        shape: Shape::boolean(),
        nets: vec![net],
    }
}

fn seal(top: &str, nl: Netlist, ports: Vec<Port>) -> Design {
    let mut netlist = nl;
    netlist
        .finish()
        .unwrap_or_else(|e: Diagnostics| panic!("corpus netlist must be acyclic: {e}"));
    let names: HashMap<String, NetId> = ports.iter().map(|p| (p.name.clone(), p.nets[0])).collect();
    Design {
        netlist,
        top_type: top.to_string(),
        ports,
        instances: InstanceNode {
            type_name: top.to_string(),
            ..InstanceNode::default()
        },
        warnings: Diagnostics::new(),
        clk: None,
        rset: None,
        names,
        optimized: false,
    }
}

/// The ISCAS-85 c17 benchmark: five inputs, two outputs, six NANDs.
pub fn c17() -> Design {
    let mut nl = Netlist::new();
    let mut net = |name: &str| nl.add_net(BasicKind::Boolean, name, Span::dummy());
    let n1 = net("N1");
    let n2 = net("N2");
    let n3 = net("N3");
    let n6 = net("N6");
    let n7 = net("N7");
    let n10 = net("N10");
    let n11 = net("N11");
    let n16 = net("N16");
    let n19 = net("N19");
    let n22 = net("N22");
    let n23 = net("N23");
    let nand = |nl: &mut Netlist, a: NetId, b: NetId, out: NetId| {
        nl.add_node(NodeOp::Nand, vec![a, b], out, None, Span::dummy());
    };
    nand(&mut nl, n1, n3, n10);
    nand(&mut nl, n3, n6, n11);
    nand(&mut nl, n2, n11, n16);
    nand(&mut nl, n11, n7, n19);
    nand(&mut nl, n10, n16, n22);
    nand(&mut nl, n16, n19, n23);
    let ports = vec![
        input_port("N1", n1),
        input_port("N2", n2),
        input_port("N3", n3),
        input_port("N6", n6),
        input_port("N7", n7),
        output_port("N22", n22),
        output_port("N23", n23),
    ];
    seal("c17", nl, ports)
}

/// Fixed-seed xorshift64*: cheap, dependency-free, and stable forever.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A c432-class circuit: 36 inputs, 7 outputs, ~170 gates in ranks.
pub fn c432_like() -> Design {
    const INPUTS: usize = 36;
    const OUTPUTS: usize = 7;
    const RANKS: [usize; 6] = [48, 40, 32, 24, 16, 10];

    let mut nl = Netlist::new();
    let mut rng = Rng(0x1983_0432_85C4_32B5);
    let mut pool: Vec<NetId> = Vec::new();
    let mut ports = Vec::new();
    for i in 0..INPUTS {
        let name = format!("I{i}");
        let id = nl.add_net(BasicKind::Boolean, &name, Span::dummy());
        ports.push(input_port(&name, id));
        pool.push(id);
    }

    // Ranks of gates; each gate reads from the previous rank (mostly)
    // or anywhere earlier, so the network is acyclic by construction
    // and every rank mixes the whole cone below it.
    let mut gate = 0usize;
    let mut rank_lo = 0usize;
    for (r, &width) in RANKS.iter().enumerate() {
        let rank_hi = pool.len();
        let mut next: Vec<NetId> = Vec::new();
        for _ in 0..width {
            let out = nl.add_net(BasicKind::Boolean, format!("G{r}_{gate}"), Span::dummy());
            gate += 1;
            let pick = |rng: &mut Rng| {
                // 3:1 bias toward the rank immediately below.
                if rng.below(4) < 3 && rank_hi > rank_lo {
                    pool[rank_lo + rng.below(rank_hi - rank_lo)]
                } else {
                    pool[rng.below(rank_hi)]
                }
            };
            let (op, arity) = match rng.below(10) {
                0..=2 => (NodeOp::Nand, 2 + rng.below(2)),
                3..=5 => (NodeOp::Nor, 2),
                6 => (NodeOp::And, 2 + rng.below(2)),
                7 => (NodeOp::Or, 2),
                8 => (NodeOp::Xor, 2),
                _ => (NodeOp::Not, 1),
            };
            let inputs: Vec<NetId> = (0..arity).map(|_| pick(&mut rng)).collect();
            nl.add_node(op, inputs, out, None, Span::dummy());
            next.push(out);
        }
        rank_lo = rank_hi;
        pool.extend(next);
    }

    // Outputs: NAND pairs over the final rank, ISCAS-style inverting
    // output stage.
    let final_lo = pool.len() - RANKS[RANKS.len() - 1];
    for o in 0..OUTPUTS {
        let name = format!("O{o}");
        let out = nl.add_net(BasicKind::Boolean, &name, Span::dummy());
        let a = pool[final_lo + (2 * o) % RANKS[RANKS.len() - 1]];
        let b = pool[final_lo + (2 * o + 1) % RANKS[RANKS.len() - 1]];
        nl.add_node(NodeOp::Nand, vec![a, b], out, None, Span::dummy());
        ports.push(output_port(&name, out));
    }
    seal("c432like", nl, ports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{netlist_from_text, netlist_to_text, validate_design};
    use zeus_elab::Limits;

    #[test]
    fn c17_is_the_classic_six_nand_circuit() {
        let d = c17();
        assert_eq!(d.ports.iter().filter(|p| p.mode == Mode::In).count(), 5);
        assert_eq!(d.ports.iter().filter(|p| p.mode == Mode::Out).count(), 2);
        assert_eq!(d.netlist.nodes.len(), 6);
        assert!(d.netlist.nodes.iter().all(|n| matches!(n.op, NodeOp::Nand)));
        validate_design(&d, &Limits::default()).expect("c17 validates");
    }

    #[test]
    fn c432_like_matches_the_interface_scale() {
        let d = c432_like();
        assert_eq!(d.ports.iter().filter(|p| p.mode == Mode::In).count(), 36);
        assert_eq!(d.ports.iter().filter(|p| p.mode == Mode::Out).count(), 7);
        assert!(
            d.netlist.nodes.len() >= 160,
            "want >=160 gates, have {}",
            d.netlist.nodes.len()
        );
        validate_design(&d, &Limits::default()).expect("c432-like validates");
    }

    #[test]
    fn corpus_designs_round_trip_byte_identically() {
        for d in [c17(), c432_like()] {
            let t1 = netlist_to_text(&d);
            let d2 = netlist_from_text(&t1).expect("corpus text re-imports");
            assert_eq!(netlist_to_text(&d2), t1);
        }
    }

    fn vendored_path(file: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../benchmarks")
            .join(file)
    }

    /// The vendored corpus is exactly the generator's output — no drift.
    #[test]
    fn vendored_corpus_matches_generator() {
        for (file, d) in [("c17.znl", c17()), ("c432.znl", c432_like())] {
            let want = netlist_to_text(&d);
            let got = std::fs::read_to_string(vendored_path(file))
                .unwrap_or_else(|e| panic!("benchmarks/{file} unreadable: {e}"));
            assert_eq!(
                got, want,
                "benchmarks/{file} differs from the generator; \
                 re-run `cargo test -p zeus-netlist regenerate -- --ignored`"
            );
        }
    }

    /// Not a test: rewrites the vendored files from the generator.
    #[test]
    #[ignore = "writes benchmarks/; run explicitly to regenerate"]
    fn regenerate_vendored_corpus() {
        std::fs::create_dir_all(vendored_path("")).unwrap();
        for (file, d) in [("c17.znl", c17()), ("c432.znl", c432_like())] {
            std::fs::write(vendored_path(file), netlist_to_text(&d)).unwrap();
        }
    }
}
