//! The validator every read design passes before it is returned to a
//! caller.
//!
//! The elaborator only ever produces well-formed designs, and the rest
//! of the pipeline (simulators, fault campaigns, ATPG, the optimizer)
//! indexes into the netlist tables on that assumption. A design read
//! from bytes carries no such guarantee, so this module re-establishes
//! it in two steps. [`check_tables`] proves the raw tables consistent:
//! references in range, alias and group forests rooted, node arities
//! right; the text reader runs it before anything walks the design.
//! [`validate_design`] then checks the *semantic* invariants — driver
//! uniqueness, port/net width agreement, the REG-broken acyclicity rule
//! of §1, group-constraint compatibility — and the net and node budgets
//! of [`Limits`] that keep a malicious file from ballooning into an OOM
//! once downstream phases allocate per-net state.
//!
//! Every failure is a `Z6xx` diagnostic (see
//! [`zeus_syntax::diag::codes`]); the validator never panics.

use std::collections::HashMap;

use zeus_elab::netlist::NodeOp;
use zeus_elab::{Design, Limits, NetId, Shape};
use zeus_sema::BasicKind;
use zeus_syntax::diag::{codes, Diagnostic};
use zeus_syntax::span::Span;

use crate::codec::op_tag;

fn structure(msg: String) -> Diagnostic {
    Diagnostic::error(Span::dummy(), msg).with_code(codes::NETLIST_STRUCTURE)
}

fn over_limit(msg: String) -> Diagnostic {
    Diagnostic::error(Span::dummy(), msg).with_code(codes::NETLIST_LIMIT)
}

/// Verifies that a parent-pointer forest (`alias` classes, instance
/// groups) is well-formed: every parent index is in range and following
/// parents always terminates at a self-root. Runs in O(n) via tricolor
/// marking, so a hostile million-entry chain costs one pass, not n².
fn check_forest(parents: &[u32], what: &str, sentinel: Option<u32>) -> Result<(), Diagnostic> {
    let n = parents.len();
    // 0 = unvisited, 1 = on the current path, 2 = proven rooted.
    let mut state = vec![0u8; n];
    let mut path = Vec::new();
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        let mut i = start;
        loop {
            let raw = parents[i];
            state[i] = 1;
            path.push(i);
            // A root: the sentinel marker (group forests use u32::MAX
            // for "no parent") or a self-pointer (alias forests).
            if Some(raw) == sentinel {
                break;
            }
            let p = raw as usize;
            if p >= n {
                return Err(structure(format!(
                    "{what} parent {p} of entry {i} is out of range (have {n})"
                )));
            }
            if p == i || state[p] == 2 {
                break;
            }
            if state[p] == 1 {
                return Err(structure(format!(
                    "{what} parent chain of entry {start} loops through entry {p}"
                )));
            }
            i = p;
        }
        for j in path.drain(..) {
            state[j] = 2;
        }
    }
    Ok(())
}

/// Checks a read design's raw tables for mutual consistency before any
/// code walks them: net and group references in range, alias and group
/// forests rooted, node arities matching what the evaluators index.
/// Everything here protects a later phase (the digest walk included)
/// from an out-of-bounds panic or an endless parent walk on hostile
/// input.
///
/// # Errors
///
/// `Z603` naming the first inconsistency.
pub(crate) fn check_tables(design: &Design) -> Result<(), Diagnostic> {
    let nl = &design.netlist;
    let nnets = nl.nets.len();
    let ngroups = nl.group_parents.len();
    let err = |m: String| Err(structure(m));
    // The label is built only for the message: this runs once per net
    // reference of the file.
    let check_net = |n: NetId, what: &dyn Fn() -> String| -> Result<(), Diagnostic> {
        if n.index() >= nnets {
            return Err(structure(format!(
                "{} references net {} but only {nnets} nets are declared",
                what(),
                n.index()
            )));
        }
        Ok(())
    };
    check_forest(nl.alias_raw(), "alias", None)?;
    check_forest(&nl.group_parents, "group", Some(u32::MAX))?;
    for (i, node) in nl.nodes.iter().enumerate() {
        check_net(node.output, &|| format!("node {i} output"))?;
        for inp in &node.inputs {
            check_net(*inp, &|| format!("node {i} input"))?;
        }
        if let Some(g) = node.group {
            if (g as usize) >= ngroups {
                return err(format!(
                    "node {i} group {g} is out of range (have {ngroups} groups)"
                ));
            }
        }
        let arity = node.inputs.len();
        let want: Option<usize> = match &node.op {
            NodeOp::Not | NodeOp::Buf | NodeOp::Reg => Some(1),
            NodeOp::If => Some(2),
            NodeOp::Const(_) | NodeOp::Random => Some(0),
            NodeOp::Equal { width } => match width.checked_mul(2) {
                Some(w) => Some(w),
                None => return err(format!("node {i} equality width overflows")),
            },
            NodeOp::And | NodeOp::Or | NodeOp::Nand | NodeOp::Nor | NodeOp::Xor => {
                if arity == 0 {
                    return err(format!("node {i} ({}) has no inputs", op_tag(&node.op)));
                }
                None
            }
        };
        if let Some(w) = want {
            if arity != w {
                return err(format!(
                    "node {i} ({}) has {arity} inputs, expected {w}",
                    op_tag(&node.op)
                ));
            }
        }
    }
    for c in &nl.group_constraints {
        if (c.before as usize) >= ngroups || (c.after as usize) >= ngroups {
            return err(format!(
                "group constraint {}→{} is out of range (have {ngroups} groups)",
                c.before, c.after
            ));
        }
    }
    for p in &design.ports {
        for n in &p.nets {
            check_net(*n, &|| format!("port '{}'", p.name))?;
        }
    }
    // The lowest dangling name, so that the message does not follow
    // the map's iteration order from run to run.
    let dangling = design.names.iter().filter(|(_, n)| n.index() >= nnets);
    if let Some((name, n)) = dangling.min() {
        check_net(*n, &|| format!("name '{name}'"))?;
    }
    if let Some(c) = design.clk {
        check_net(c, &|| "clk".to_string())?;
    }
    if let Some(r) = design.rset {
        check_net(r, &|| "rset".to_string())?;
    }
    Ok(())
}

/// [`Shape::bit_len`] with overflow checking: a hostile shape can claim
/// array bounds whose product overflows, which must surface as a
/// width-disagreement error rather than an arithmetic panic.
fn checked_bit_len(shape: &Shape) -> Option<usize> {
    match shape {
        Shape::Basic(_) => Some(1),
        Shape::Virtual => Some(0),
        Shape::Array { lo, hi, elem } => {
            let len = if hi >= lo {
                usize::try_from(hi.checked_sub(*lo)?.checked_add(1)?).ok()?
            } else {
                0
            };
            len.checked_mul(checked_bit_len(elem)?)
        }
        Shape::Record(r) => {
            let mut total = 0usize;
            for f in &r.fields {
                total = total.checked_add(checked_bit_len(&f.shape)?)?;
            }
            Some(total)
        }
    }
}

/// Validates the semantic invariants of a design whose tables are
/// consistent (an elaborated one, or one [`check_tables`] passed)
/// against the net and node budgets of `limits`.
///
/// # Errors
///
/// - `Z603` — structural violation: unfinished netlist, non-canonical
///   node wiring, more than one unconditional driver on a boolean net
///   (guarded `If` contributions and multiplex nets are the sanctioned
///   multi-driver cases), or a port whose shape width disagrees with
///   its net list.
/// - `Z604` — a combinational cycle not broken by a register, or an
///   incompatible SEQUENTIAL/PARALLEL group constraint.
/// - `Z607` — a [`Limits`] budget exceeded (`max_nets`, `max_nodes`).
pub fn validate_design(design: &Design, limits: &Limits) -> Result<(), Diagnostic> {
    let nl = &design.netlist;

    // Budgets first: everything after this allocates per-net/per-node
    // state, so the budget check is what keeps a hostile file cheap.
    if nl.nets.len() > limits.max_nets {
        return Err(over_limit(format!(
            "imported design has {} nets, over the budget of {}",
            nl.nets.len(),
            limits.max_nets
        )));
    }
    if nl.nodes.len() > limits.max_nodes {
        return Err(over_limit(format!(
            "imported design has {} nodes, over the budget of {}",
            nl.nodes.len(),
            limits.max_nodes
        )));
    }

    if !nl.is_finished() {
        return Err(structure(
            "netlist is not finished (canonicalize before validating)".to_string(),
        ));
    }

    // Canonical wiring: the simulators index per-net state by the ids a
    // node carries, and fault-site enumeration by alias representatives;
    // those must agree.
    for (i, node) in nl.nodes.iter().enumerate() {
        if nl.find_ref(node.output) != node.output {
            return Err(structure(format!(
                "node {i} output is not an alias representative"
            )));
        }
        for inp in &node.inputs {
            if nl.find_ref(*inp) != *inp {
                return Err(structure(format!(
                    "node {i} input is not an alias representative"
                )));
            }
        }
    }

    // Driver uniqueness: a boolean net has exactly one unconditional
    // source. The sanctioned multi-driver cases are multiplex nets and
    // guarded `If` contributions (§4.7/§8 — the runtime resolves "at
    // most one active assignment" over them), so a boolean net may
    // collect several drivers only when *every* one is an `If` node.
    let mut drivers: HashMap<u32, (u32, u32)> = HashMap::new();
    for node in &nl.nodes {
        let e = drivers.entry(node.output.0).or_insert((0, 0));
        e.0 += 1;
        if !matches!(node.op, NodeOp::If) {
            e.1 += 1;
        }
    }
    for (net, (total, non_if)) in &drivers {
        let id = NetId(*net);
        if *total > 1 && *non_if > 0 && nl.nets[id.index()].kind == BasicKind::Boolean {
            return Err(structure(format!(
                "boolean net '{}' has {total} drivers; only multiplex nets \
                 or guarded IF contributions may collect multiple drivers",
                nl.nets[id.index()].name
            )));
        }
    }

    // Port/net width agreement: every downstream consumer zips a port's
    // shape against its net list bit for bit.
    for p in &design.ports {
        let want = checked_bit_len(&p.shape);
        if want != Some(p.nets.len()) {
            return Err(structure(format!(
                "port '{}' has {} nets but its shape spans {} bits",
                p.name,
                p.nets.len(),
                want.map(|w| w.to_string())
                    .unwrap_or("overflowing".to_string())
            )));
        }
    }

    // The §1 rule: combinational feedback must lead through registers.
    if let Err(d) = nl.topo_order() {
        return Err(Diagnostic::error(
            Span::dummy(),
            format!("imported design rejected: {}", d.message),
        )
        .with_code(codes::NETLIST_CYCLE));
    }
    // SEQUENTIAL/PARALLEL annotations must be satisfiable (§4.5).
    if let Err(d) = nl.check_group_compatibility() {
        return Err(Diagnostic::error(
            Span::dummy(),
            format!("imported design rejected: {}", d.message),
        )
        .with_code(codes::NETLIST_CYCLE));
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{netlist_from_text, netlist_to_text};
    use zeus_elab::{elaborate, Netlist};
    use zeus_syntax::diag::Code;
    use zeus_syntax::parse_program;

    fn half_adder() -> Design {
        let program = parse_program(
            "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
             BEGIN s := XOR(a,b); cout := AND(a,b) END;",
        )
        .unwrap();
        elaborate(&program, "halfadder", &[]).unwrap()
    }

    /// `d` with its netlist reassembled from raw parts, after `edit` had
    /// its way with the alias vector and the finished flag.
    fn reassembled(d: &Design, edit: impl FnOnce(&mut Vec<u32>, &mut bool)) -> Design {
        let nl = &d.netlist;
        let mut alias = nl.alias_raw().to_vec();
        let mut finished = nl.is_finished();
        edit(&mut alias, &mut finished);
        Design {
            netlist: Netlist::from_raw_parts(
                nl.nets.clone(),
                nl.nodes.clone(),
                nl.group_constraints.clone(),
                nl.group_parents.clone(),
                alias,
                finished,
            ),
            ..d.clone()
        }
    }

    /// Asserts that `d` is refused with `code`, in memory and as text.
    /// The text embeds the digest of `d` itself, so the reader's digest
    /// check passes and only the validator stands in the way.
    fn refused(d: &Design, code: Code) -> Diagnostic {
        let err = validate_design(d, &Limits::default()).unwrap_err();
        assert_eq!(err.code, Some(code), "{}", err.message);
        let read = netlist_from_text(&netlist_to_text(d)).unwrap_err();
        assert_eq!(read.code, Some(code), "{}", read.message);
        assert_eq!(read.message, err.message);
        err
    }

    #[test]
    fn elaborated_design_validates() {
        validate_design(&half_adder(), &Limits::default()).unwrap();
    }

    #[test]
    fn budgets_reject_with_z607() {
        let d = half_adder();
        for tight in [
            Limits {
                max_nets: 1,
                ..Limits::default()
            },
            Limits {
                max_nodes: 1,
                ..Limits::default()
            },
        ] {
            let err = validate_design(&d, &tight).unwrap_err();
            assert_eq!(err.code, Some(codes::NETLIST_LIMIT));
        }
        // `max_input_bits` caps exhaustive equivalence (Z909), not what
        // a design may be read with.
        let narrow = Limits {
            max_input_bits: 1,
            ..Limits::default()
        };
        validate_design(&d, &narrow).unwrap();
    }

    #[test]
    fn unfinished_netlist_rejects_with_z603() {
        let d = reassembled(&half_adder(), |_, finished| *finished = false);
        let err = refused(&d, codes::NETLIST_STRUCTURE);
        assert!(err.message.contains("not finished"), "{}", err.message);
    }

    #[test]
    fn non_canonical_node_output_rejects_with_z603() {
        let d = half_adder();
        // Alias the first node's output onto one of its inputs: the node
        // now drives a net that is no longer its class representative.
        let node = &d.netlist.nodes[0];
        let (out, into) = (node.output.index(), node.inputs[0].0);
        let d = reassembled(&d, |alias, _| alias[out] = into);
        let err = refused(&d, codes::NETLIST_STRUCTURE);
        assert!(
            err.message.contains("alias representative"),
            "{}",
            err.message
        );
    }

    #[test]
    fn double_driven_boolean_net_rejects_with_z603() {
        let mut d = half_adder();
        // Duplicate the first node: its (boolean) output now has two
        // drivers.
        let node = d.netlist.nodes[0].clone();
        d.netlist.nodes.push(node);
        refused(&d, codes::NETLIST_STRUCTURE);
    }

    #[test]
    fn port_width_disagreement_rejects_with_z603() {
        // One port wider than its shape, and one narrower.
        let mut wider = half_adder();
        let extra = wider.ports[1].nets[0];
        wider.ports[0].nets.push(extra);
        let mut narrower = half_adder();
        narrower.ports[0].nets.pop();
        for d in [wider, narrower] {
            let err = refused(&d, codes::NETLIST_STRUCTURE);
            assert!(err.message.contains("port"), "{}", err.message);
        }
    }

    #[test]
    fn dangling_names_report_the_lowest_one() {
        let mut d = half_adder();
        let n = d.netlist.nets.len() as u32;
        for (i, name) in ["zz", "mm", "aa"].into_iter().enumerate() {
            d.names.insert(name.to_string(), NetId(n + i as u32));
        }
        let text = netlist_to_text(&d);
        // Each read builds its own map, in its own iteration order.
        for _ in 0..8 {
            let err = netlist_from_text(&text).unwrap_err();
            assert_eq!(err.code, Some(codes::NETLIST_STRUCTURE));
            assert!(
                err.message.starts_with("name 'aa' references net"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn combinational_cycle_rejects_with_z604() {
        let mut d = half_adder();
        // Feed the XOR's output back as its own input.
        let out = d.netlist.nodes[0].output;
        d.netlist.nodes[0].inputs[0] = out;
        refused(&d, codes::NETLIST_CYCLE);
    }
}
