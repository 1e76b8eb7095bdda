//! Fault-list enumeration and structural collapsing.
//!
//! The fault universe of a design is the set of canonical nets of its
//! semantics graph — every physically distinct signal, whether a port,
//! an internal wire or a register output. Exhaustively simulating both
//! stuck-at polarities on every site is wasteful: classic structural
//! collapsing (fanout-free equivalence) identifies faults that are
//! provably indistinguishable at the gate boundary, e.g. stuck-at-0 on
//! any AND input is equivalent to stuck-at-0 on its output. We collapse
//! with a union-find over `(net, polarity)` pairs, conservatively
//! restricted to single-driver, fanout-free, non-port connections.
//!
//! # Ordering contract
//!
//! The fault list is the *identity* of a campaign: checkpoint digests
//! hash it fault-by-fault, packed campaigns chunk it into 64-lane
//! words, and ATPG credits vectors against fault indices. All of that
//! is only sound because [`enumerate_faults`] is deterministic:
//!
//! * sites are the **canonical** nets (post-alias [`find_ref`]) of every
//!   node pin and port bit, gathered in ascending [`NetId`] order;
//! * collapsing picks the **lowest `(net, polarity)` key** of each
//!   equivalence class as representative, so representatives do not
//!   depend on union order;
//! * bridge pairs are normalized `(min, max)` and ascending; transient
//!   sites follow the netlist's register order;
//! * the final list is `sort()`ed by [`Fault`]'s derived `Ord` (site,
//!   then kind) and `dedup()`ed.
//!
//! Consequently two calls on equal designs — including a design
//! re-elaborated from the same source — return identical `faults`
//! vectors, with no dependence on hash-map iteration order or platform.
//! The property test `collapsed_list_is_reproducible` exercises this
//! across randomly grown designs.
//!
//! [`find_ref`]: zeus_elab::Netlist::find_ref
//! [`NetId`]: zeus_elab::NetId

use std::collections::BTreeSet;
use zeus_elab::{Design, Fault, NetId, NodeOp};

/// What to enumerate beyond the collapsed stuck-at set, which every
/// list holds.
#[derive(Debug, Clone, Default)]
pub struct FaultListOptions {
    /// Also enumerate bridging faults between adjacent gate inputs.
    pub bridges: bool,
    /// Also enumerate one transient flip per register output, striking
    /// in the given cycle.
    pub transients: Option<u64>,
}

/// The enumerated and collapsed fault universe of a design.
#[derive(Debug, Clone)]
pub struct FaultList {
    /// The faults to simulate, in deterministic (sorted) order.
    pub faults: Vec<Fault>,
    /// Faults enumerated before collapsing.
    pub total_enumerated: usize,
    /// Faults removed as structurally equivalent to a representative.
    pub collapsed: usize,
}

/// Enumerates the fault universe of `design` under `opts`: stuck-at-0
/// and stuck-at-1 on every site, structurally collapsed, plus the
/// bridges and transients `opts` asks for.
///
/// Sites are the canonical nets referenced by any node or port, in
/// ascending net order, so the list is deterministic for a given design
/// (see the module-level *Ordering contract*): equal designs — even
/// re-elaborated from the same source — yield identical, sorted,
/// duplicate-free fault vectors.
pub fn enumerate_faults(design: &Design, opts: &FaultListOptions) -> FaultList {
    let nl = &design.netlist;
    let mut sites: BTreeSet<NetId> = BTreeSet::new();
    for node in &nl.nodes {
        sites.insert(nl.find_ref(node.output));
        for &i in &node.inputs {
            sites.insert(nl.find_ref(i));
        }
    }
    for p in &design.ports {
        for &n in &p.nets {
            sites.insert(nl.find_ref(n));
        }
    }

    let mut faults = collapse_stuck_at(design, &sites);
    let mut total = 2 * sites.len();
    let collapsed = total - faults.len();

    if opts.bridges {
        let mut pairs: BTreeSet<(NetId, NetId)> = BTreeSet::new();
        for node in &nl.nodes {
            if node.op.is_sequential() {
                continue;
            }
            for w in node.inputs.windows(2) {
                let a = nl.find_ref(w[0]);
                let b = nl.find_ref(w[1]);
                if a != b {
                    pairs.insert((a.min(b), a.max(b)));
                }
            }
        }
        total += pairs.len();
        faults.extend(pairs.into_iter().map(|(a, b)| Fault::bridge(a, b)));
    }

    if let Some(cycle) = opts.transients {
        for r in nl.registers() {
            let out = nl.find_ref(nl.nodes[r.index()].output);
            faults.push(Fault::transient_flip(out, cycle));
            total += 1;
        }
    }

    faults.sort();
    faults.dedup();
    FaultList {
        faults,
        total_enumerated: total,
        collapsed,
    }
}

/// Fanout-free stuck-at collapsing. Returns the representative faults
/// (lowest `(net, polarity)` key of each equivalence class), sorted.
///
/// Equivalences applied, for a gate with single-driver output `o` whose
/// input `a` has combinational fanout 1 and is not a port net:
///
/// * `BUF`:  `a/0 ≡ o/0`, `a/1 ≡ o/1`
/// * `NOT`:  `a/0 ≡ o/1`, `a/1 ≡ o/0`
/// * `AND`:  `aᵢ/0 ≡ o/0` — `NAND`: `aᵢ/0 ≡ o/1`
/// * `OR`:   `aᵢ/1 ≡ o/1` — `NOR`:  `aᵢ/1 ≡ o/0`
///
/// XOR, EQUAL and IF inputs are never collapsed (no controlling value),
/// and port nets are kept so port observability survives collapsing.
fn collapse_stuck_at(design: &Design, sites: &BTreeSet<NetId>) -> Vec<Fault> {
    let nl = &design.netlist;
    let fanout = nl.fanout();
    let drivers = nl.drivers_by_net();
    let port_nets: BTreeSet<NetId> = design
        .ports
        .iter()
        .flat_map(|p| p.nets.iter().map(|&n| nl.find_ref(n)))
        .collect();

    // Union-find over (net, polarity) keys.
    let mut parent: Vec<usize> = (0..2 * nl.net_count()).collect();
    fn find(parent: &mut [usize], mut k: usize) -> usize {
        while parent[k] != k {
            parent[k] = parent[parent[k]];
            k = parent[k];
        }
        k
    }
    let union = |parent: &mut [usize], a: usize, b: usize| {
        let ra = find(parent, a);
        let rb = find(parent, b);
        // The lower key becomes the representative, so classes are
        // rooted at the earliest (net, polarity) they contain.
        if ra < rb {
            parent[rb] = ra;
        } else {
            parent[ra] = rb;
        }
    };
    let key = |n: NetId, polarity: usize| 2 * n.index() + polarity;

    for node in &nl.nodes {
        let out = nl.find_ref(node.output);
        if drivers[out.index()].len() != 1 {
            continue;
        }
        // (input polarity, output polarity) pairs that are equivalent.
        let rules: &[(usize, usize)] = match node.op {
            NodeOp::Buf => &[(0, 0), (1, 1)],
            NodeOp::Not => &[(0, 1), (1, 0)],
            NodeOp::And => &[(0, 0)],
            NodeOp::Nand => &[(0, 1)],
            NodeOp::Or => &[(1, 1)],
            NodeOp::Nor => &[(1, 0)],
            _ => continue,
        };
        for &inp in &node.inputs {
            let a = nl.find_ref(inp);
            if fanout[a.index()] != 1 || port_nets.contains(&a) || a == out {
                continue;
            }
            for &(ip, op) in rules {
                union(&mut parent, key(a, ip), key(out, op));
            }
        }
    }

    let mut out = Vec::new();
    for &s in sites {
        for polarity in 0..2 {
            let k = key(s, polarity);
            if find(&mut parent, k) == k {
                out.push(if polarity == 0 {
                    Fault::stuck_at_0(s)
                } else {
                    Fault::stuck_at_1(s)
                });
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    #[test]
    fn enumeration_is_deterministic_and_sorted() {
        let d = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT q: boolean) IS \
             BEGIN q := AND(a,b) END;",
            "t",
        );
        let l1 = enumerate_faults(&d, &FaultListOptions::default());
        let l2 = enumerate_faults(&d, &FaultListOptions::default());
        assert_eq!(l1.faults, l2.faults);
        let mut sorted = l1.faults.clone();
        sorted.sort();
        assert_eq!(l1.faults, sorted);
        assert!(!l1.faults.is_empty());
    }

    #[test]
    fn collapsing_removes_fanout_free_equivalents() {
        // q := AND(a, b) through an internal inverter chain: the chain
        // nets' faults collapse into their roots.
        let d = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT q: boolean) IS \
             BEGIN q := NOT NOT AND(a,b) END;",
            "t",
        );
        let l = enumerate_faults(&d, &FaultListOptions::default());
        assert!(l.collapsed > 0);
        assert_eq!(l.faults.len() + l.collapsed, l.total_enumerated);
    }

    #[test]
    fn ports_are_never_collapsed_away() {
        let d = design(
            "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS \
             BEGIN q := NOT a END;",
            "t",
        );
        let l = enumerate_faults(&d, &FaultListOptions::default());
        let a = d.netlist.find_ref(d.names["t.a"]);
        assert!(l.faults.contains(&Fault::stuck_at_0(a)));
        assert!(l.faults.contains(&Fault::stuck_at_1(a)));
    }

    #[test]
    fn bridges_and_transients_are_opt_in() {
        let d = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; BEGIN r(AND(a,b), q) END;",
            "t",
        );
        let base = enumerate_faults(&d, &FaultListOptions::default());
        assert!(base.faults.iter().all(|f| matches!(
            f.kind,
            zeus_elab::FaultKind::StuckAt0 | zeus_elab::FaultKind::StuckAt1
        )));
        let extended = enumerate_faults(
            &d,
            &FaultListOptions {
                bridges: true,
                transients: Some(3),
            },
        );
        assert!(extended
            .faults
            .iter()
            .any(|f| matches!(f.kind, zeus_elab::FaultKind::BridgeWith(_))));
        assert!(extended
            .faults
            .iter()
            .any(|f| matches!(f.kind, zeus_elab::FaultKind::TransientFlip { cycle: 3 })));
    }

    /// Renders a small random combinational+sequential design from a
    /// generated shape: `gates[i]` picks the operator combining the two
    /// "previous" signals of a growing chain seeded by the inputs.
    fn grown_source(inputs: usize, gates: &[u8], with_reg: bool) -> String {
        let names: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
        let mut decls = Vec::new();
        let mut stmts = Vec::new();
        if with_reg {
            decls.push("SIGNAL r: REG".to_string());
        }
        let mut exprs: Vec<String> = names.clone();
        for (n, g) in gates.iter().enumerate() {
            let a = exprs[exprs.len() - 1].clone();
            let b = exprs[exprs.len().saturating_sub(2)].clone();
            let e = match g % 6 {
                0 => format!("AND({a},{b})"),
                1 => format!("OR({a},{b})"),
                2 => format!("NAND({a},{b})"),
                3 => format!("NOR({a},{b})"),
                4 => format!("XOR({a},{b})"),
                _ => format!("NOT {a}"),
            };
            let name = format!("g{n}");
            decls.push(format!("SIGNAL {name}: boolean"));
            stmts.push(format!("{name} := {e}"));
            exprs.push(name);
        }
        let last = exprs.last().unwrap().clone();
        if with_reg {
            stmts.push(format!("r({last}, q)"));
        } else {
            stmts.push(format!("q := {last}"));
        }
        let mut src = String::from("TYPE t = COMPONENT (IN ");
        src.push_str(&names.join(","));
        src.push_str(": boolean; OUT q: boolean) IS ");
        for d in &decls {
            src.push_str(d);
            src.push_str("; ");
        }
        src.push_str("BEGIN ");
        src.push_str(&stmts.join("; "));
        src.push_str(" END;");
        src
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The module's ordering contract: the same source, elaborated
        /// twice, enumerates byte-identical fault lists (with
        /// bridges/transients or not), sorted and duplicate-free.
        #[test]
        fn collapsed_list_is_reproducible(
            inputs in 1usize..4,
            gates in proptest::collection::vec(any::<u8>(), 1..8),
            with_reg in any::<bool>(),
            bridges in any::<bool>(),
        ) {
            let src = grown_source(inputs, &gates, with_reg);
            let opts = FaultListOptions {
                bridges,
                transients: if with_reg { Some(2) } else { None },
            };
            let d1 = design(&src, "t");
            let d2 = design(&src, "t");
            let l1 = enumerate_faults(&d1, &opts);
            let l2 = enumerate_faults(&d2, &opts);
            assert_eq!(l1.faults, l2.faults, "shape: {src}");
            assert_eq!(l1.total_enumerated, l2.total_enumerated);
            assert_eq!(l1.collapsed, l2.collapsed);
            let mut sorted = l1.faults.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(l1.faults, sorted, "list must be sorted + deduped");
        }
    }
}
