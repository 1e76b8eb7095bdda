//! PODEM-style structural test generation over the semantics graph.
//!
//! For a stuck-at fault that random harvest left undetected, this module
//! searches the primary-input space for a detecting vector: a classic
//! PODEM loop (objective → backtrace → imply → backtrack, Goel 1981)
//! adapted to Zeus's four-valued domain. The implication engine is an
//! abstract interpretation of [`Simulator::eval_cycle`]: every net
//! carries the *set* of values it can still take — one set for the good
//! circuit, one for the faulty circuit (the fault site clamped to its
//! stuck value) — and node transfer functions mirror the §8 gate rules
//! exactly, including NOINFL-as-UNDEF boolean conversion, the IF
//! contribution rule, and the single-active-assignment conflict
//! resolution.
//!
//! Soundness of the three verdicts:
//!
//! * **Test found** — only claimed when some OUT bit's good and faulty
//!   sets are distinct singletons under the boolean view, i.e. every
//!   completion of the partial assignment detects. (Generated vectors
//!   are additionally re-verified by real fault simulation during
//!   compaction and final grading.)
//! * **Redundant** — only claimed when the whole input space was
//!   excluded by sound pruning: a branch is cut only when *no* pair of
//!   reachable good/faulty output values can differ, and with every
//!   input assigned the sets are exact singletons, so an exhausted
//!   search proves no detecting vector exists.
//! * **Aborted** — the backtrack or fuel budget ran out first; nothing
//!   is claimed about the fault.
//!
//! [`Simulator::eval_cycle`]: zeus_sim::Simulator

use std::collections::HashMap;
use zeus_elab::{Design, Fault, FaultKind, Governor, NetId, NodeId, NodeOp};
use zeus_sema::value::Value;
use zeus_syntax::span::Span;

/// Possible-value set over {0, 1, UNDEF, NOINFL}, one bit per value.
type Set = u8;
const Z0: Set = 1;
const Z1: Set = 2;
const UU: Set = 4;
const NN: Set = 8;

fn singleton(v: Value) -> Set {
    match v {
        Value::Zero => Z0,
        Value::One => Z1,
        Value::Undef => UU,
        Value::NoInfl => NN,
    }
}

/// The §8 multiplex→boolean conversion on sets: NOINFL reads as UNDEF.
fn boolview(s: Set) -> Set {
    if s & NN != 0 {
        (s & !NN) | UU
    } else {
        s
    }
}

/// True when some reachable pair of (good, faulty) boolean-view values
/// differs — i.e. detection is still *possible*.
fn can_differ(g: Set, f: Set) -> bool {
    let (g, f) = (boolview(g), boolview(f));
    if g == 0 || f == 0 {
        return false;
    }
    !(g == f && g.count_ones() == 1)
}

/// True when *every* reachable pair differs: both sets are singletons
/// with different boolean views.
fn certain_differ(g: Set, f: Set) -> bool {
    let (g, f) = (boolview(g), boolview(f));
    g.count_ones() == 1 && f.count_ones() == 1 && g != f
}

fn not_set(s: Set) -> Set {
    let s = boolview(s);
    let mut o = 0;
    if s & Z0 != 0 {
        o |= Z1;
    }
    if s & Z1 != 0 {
        o |= Z0;
    }
    if s & UU != 0 {
        o |= UU;
    }
    o
}

/// n-ary AND on boolean-view sets: 0 iff some input can be 0, 1 iff all
/// can be 1, U iff all can avoid 0 with at least one U.
fn and_set(ins: &[Set]) -> Set {
    let mut out = 0;
    if ins.iter().any(|&s| boolview(s) & Z0 != 0) {
        out |= Z0;
    }
    if ins.iter().all(|&s| boolview(s) & Z1 != 0) {
        out |= Z1;
    }
    if ins.iter().all(|&s| boolview(s) & (Z1 | UU) != 0)
        && ins.iter().any(|&s| boolview(s) & UU != 0)
    {
        out |= UU;
    }
    out
}

fn or_set(ins: &[Set]) -> Set {
    let mut out = 0;
    if ins.iter().any(|&s| boolview(s) & Z1 != 0) {
        out |= Z1;
    }
    if ins.iter().all(|&s| boolview(s) & Z0 != 0) {
        out |= Z0;
    }
    if ins.iter().all(|&s| boolview(s) & (Z0 | UU) != 0)
        && ins.iter().any(|&s| boolview(s) & UU != 0)
    {
        out |= UU;
    }
    out
}

/// n-ary XOR: defined parities reachable by choosing defined values,
/// plus U whenever any input can be undefined.
fn xor_set(ins: &[Set]) -> Set {
    let mut out = 0;
    if ins.iter().any(|&s| boolview(s) & UU != 0) {
        out |= UU;
    }
    // Parity reachability over defined choices: bit0 = even, bit1 = odd.
    let mut par = 1u8;
    for &s in ins {
        let s = boolview(s);
        let mut next = 0u8;
        if s & Z0 != 0 {
            next |= par;
        }
        if s & Z1 != 0 {
            next |= ((par & 1) << 1) | ((par & 2) >> 1);
        }
        par = next;
    }
    if par & 1 != 0 {
        out |= Z0;
    }
    if par & 2 != 0 {
        out |= Z1;
    }
    out
}

/// Pairwise EQUAL reduction (§10 usage): 0 iff some pair can be defined
/// and unequal, 1 iff all pairs can be defined equal, U iff every pair
/// can avoid being defined-unequal with some pair undefined.
fn equal_set(a: &[Set], b: &[Set]) -> Set {
    let mut out = 0;
    let pair = |x: Set, y: Set| {
        let (x, y) = (boolview(x), boolview(y));
        let du = (x & Z0 != 0 && y & Z1 != 0) || (x & Z1 != 0 && y & Z0 != 0);
        let de = (x & Z0 != 0 && y & Z0 != 0) || (x & Z1 != 0 && y & Z1 != 0);
        let un = x & UU != 0 || y & UU != 0;
        (du, de, un)
    };
    let states = || a.iter().zip(b).map(|(&x, &y)| pair(x, y));
    if states().any(|(du, _, _)| du) {
        out |= Z0;
    }
    if states().all(|(_, de, _)| de) {
        out |= Z1;
    }
    if states().all(|(_, de, un)| de || un) && states().any(|(_, _, un)| un) {
        out |= UU;
    }
    out
}

/// IF contribution (§8): NOINFL when the condition is 0, the data value
/// when it is 1, UNDEF when it is UNDEF or NOINFL. Operates on the *raw*
/// condition set — a 0 condition is distinct from a NOINFL one.
fn if_set(cond: Set, data: Set) -> Set {
    let mut out = 0;
    if cond & Z0 != 0 {
        out |= NN;
    }
    if cond & Z1 != 0 {
        out |= data;
    }
    if cond & (UU | NN) != 0 {
        out |= UU;
    }
    out
}

/// Resolves a net's possible values from its contributions, mirroring
/// the simulator's drive rule: NOINFL contributions are inactive, one
/// active contribution wins, two or more active is a conflict (UNDEF),
/// none leaves the net NOINFL.
fn resolve(contribs: &[Set]) -> Set {
    if contribs.is_empty() {
        return NN;
    }
    let mut out = 0;
    if contribs.iter().all(|&s| s & NN != 0) {
        out |= NN;
    }
    for v in [Z0, Z1, UU] {
        for (i, &s) in contribs.iter().enumerate() {
            if s & v != 0
                && contribs
                    .iter()
                    .enumerate()
                    .all(|(j, &t)| j == i || t & NN != 0)
            {
                out |= v;
                break;
            }
        }
    }
    // A conflict (two simultaneously active contributions) yields UNDEF.
    if contribs
        .iter()
        .filter(|&&s| s & (Z0 | Z1 | UU) != 0)
        .count()
        >= 2
    {
        out |= UU;
    }
    out
}

/// The verdict of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PodemOutcome {
    /// A detecting vector: per-port input bits (LSB-first, stream port
    /// order), unconstrained bits filled with 0.
    Test(Vec<Vec<Value>>),
    /// The search space was exhausted with sound pruning only: no input
    /// vector can detect the fault — it is untestable.
    Redundant,
    /// The backtrack or fuel budget ran out before a verdict.
    Aborted,
}

/// The PODEM engine for one design (reused across faults).
pub(crate) struct Podem<'a> {
    design: &'a Design,
    order: Vec<NodeId>,
    /// Primary-input bit nets in `VectorStream` order (port declaration
    /// order, LSB-first), with the owning port's width boundaries.
    pi_nets: Vec<NetId>,
    port_widths: Vec<usize>,
    /// net index → position in `pi_nets`.
    pi_of: HashMap<usize, usize>,
    out_nets: Vec<NetId>,
    drivers: Vec<Vec<NodeId>>,
    /// Output nets of the Reg and Random nodes, in node order.
    sources: Vec<usize>,
    /// The sets of the last implication pass, and its scratch.
    sets: Implied,
}

/// What [`Podem::imply`] computes, kept between passes so that a pass
/// allocates nothing.
struct Implied {
    /// Good and faulty possible-value set per net.
    g: Vec<Set>,
    f: Vec<Set>,
    /// Whether a net's set is resolved yet in this pass.
    g_done: Vec<bool>,
    f_done: Vec<bool>,
    /// Contribution lists per net, good and faulty.
    gc: Vec<Vec<Set>>,
    fc: Vec<Vec<Set>>,
    /// The input sets of the node being evaluated.
    gi: Vec<Set>,
    fi: Vec<Set>,
}

impl Implied {
    fn new(nets: usize) -> Implied {
        Implied {
            g: vec![0; nets],
            f: vec![0; nets],
            g_done: vec![false; nets],
            f_done: vec![false; nets],
            gc: vec![Vec::new(); nets],
            fc: vec![Vec::new(); nets],
            gi: Vec::new(),
            fi: Vec::new(),
        }
    }
}

/// A net's possible values, resolved from its contributions on first
/// read in a pass and clamped when it is the fault site.
fn net_of(
    sets: &mut [Set],
    done: &mut [bool],
    contribs: &[Vec<Set>],
    clamp: Option<(usize, Set)>,
    i: usize,
) -> Set {
    if !done[i] {
        let mut s = resolve(&contribs[i]);
        if let Some((site, sv)) = clamp {
            if site == i {
                s = sv;
            }
        }
        sets[i] = s;
        done[i] = true;
    }
    sets[i]
}

impl<'a> Podem<'a> {
    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Propagates a combinational-loop diagnostic from the topo sort.
    pub(crate) fn new(design: &'a Design) -> Result<Podem<'a>, zeus_syntax::diag::Diagnostic> {
        let order = design.netlist.topo_order()?;
        let mut pi_nets = Vec::new();
        let mut port_widths = Vec::new();
        for p in design.inputs() {
            port_widths.push(p.nets.len());
            pi_nets.extend(p.nets.iter().copied());
        }
        let pi_of = pi_nets
            .iter()
            .enumerate()
            .map(|(i, n)| (n.index(), i))
            .collect();
        let out_nets = design
            .outputs()
            .flat_map(|p| p.nets.iter().copied())
            .collect();
        let sources = design
            .netlist
            .nodes
            .iter()
            .filter(|n| matches!(n.op, NodeOp::Reg | NodeOp::Random))
            .map(|n| n.output.index())
            .collect();
        Ok(Podem {
            design,
            order,
            pi_nets,
            port_widths,
            pi_of,
            out_nets,
            drivers: design.netlist.drivers_by_net(),
            sources,
            sets: Implied::new(design.netlist.net_count()),
        })
    }

    /// Work units charged to the governor per implication pass.
    pub(crate) fn imply_cost(&self) -> u64 {
        self.order.len() as u64 + 1
    }

    /// One implication pass: computes the good and faulty possible-value
    /// sets of every net under the partial PI assignment into
    /// `self.sets.g` and `self.sets.f`.
    fn imply(&mut self, assign: &[Option<Value>], site: usize, sv: Value) {
        let nl = &self.design.netlist;
        let s = &mut self.sets;
        for c in s.gc.iter_mut().chain(s.fc.iter_mut()) {
            c.clear();
        }
        s.g_done.fill(false);
        s.f_done.fill(false);
        // PI forces are contributions like any other drive; an
        // unassigned PI ranges over the {0,1} a vector stream can apply.
        for (i, &net) in self.pi_nets.iter().enumerate() {
            let v = match assign[i] {
                Some(v) => singleton(v),
                None => Z0 | Z1,
            };
            s.gc[net.index()].push(v);
            s.fc[net.index()].push(v);
        }
        // Sequential/Random sources never appear in combinational mode,
        // but stay sound if they do: their outputs can be anything
        // active.
        for &net in &self.sources {
            s.gc[net].push(Z0 | Z1 | UU);
            s.fc[net].push(Z0 | Z1 | UU);
        }

        let clamp = Some((site, singleton(sv)));
        for &nid in &self.order {
            let node = &nl.nodes[nid.index()];
            s.gi.clear();
            s.fi.clear();
            for p in &node.inputs {
                s.gi.push(net_of(&mut s.g, &mut s.g_done, &s.gc, None, p.index()));
                s.fi.push(net_of(&mut s.f, &mut s.f_done, &s.fc, clamp, p.index()));
            }
            let (gi, fi) = (&s.gi, &s.fi);
            let (gv, fv) = match &node.op {
                NodeOp::And => (and_set(gi), and_set(fi)),
                NodeOp::Or => (or_set(gi), or_set(fi)),
                NodeOp::Nand => (not_set(and_set(gi)), not_set(and_set(fi))),
                NodeOp::Nor => (not_set(or_set(gi)), not_set(or_set(fi))),
                NodeOp::Xor => (xor_set(gi), xor_set(fi)),
                NodeOp::Not => (not_set(gi[0]), not_set(fi[0])),
                NodeOp::Equal { width } => {
                    let (ga, gb) = gi.split_at(*width);
                    let (fa, fb) = fi.split_at(*width);
                    (equal_set(ga, gb), equal_set(fa, fb))
                }
                NodeOp::Buf => (gi[0], fi[0]),
                NodeOp::If => (if_set(gi[0], gi[1]), if_set(fi[0], fi[1])),
                NodeOp::Const(v) => (singleton(*v), singleton(*v)),
                NodeOp::Random | NodeOp::Reg => continue,
            };
            s.gc[node.output.index()].push(gv);
            s.fc[node.output.index()].push(fv);
        }
        // Finalize every net that was never read (outputs, the site).
        for i in 0..s.g.len() {
            net_of(&mut s.g, &mut s.g_done, &s.gc, None, i);
            net_of(&mut s.f, &mut s.f_done, &s.fc, clamp, i);
        }
    }

    /// Backtrace: walks from `net` toward an unassigned PI, complementing
    /// the wanted value through inverting gates. Purely heuristic — any
    /// returned choice keeps the search correct.
    fn backtrace(
        &self,
        net: NetId,
        want: Value,
        assign: &[Option<Value>],
        visited: &mut Vec<bool>,
    ) -> Option<(usize, Value)> {
        let i = net.index();
        if visited[i] {
            return None;
        }
        visited[i] = true;
        if let Some(&pi) = self.pi_of.get(&i) {
            return if assign[pi].is_none() {
                Some((pi, want))
            } else {
                None
            };
        }
        for &d in &self.drivers[i] {
            let node = &self.design.netlist.nodes[d.index()];
            let next = match node.op {
                NodeOp::Not | NodeOp::Nand | NodeOp::Nor => want.not(),
                _ => want,
            };
            // Descending into an inverting gate with UNDEF wanted keeps
            // UNDEF; from defined values `not()` flips them.
            let next = if next.is_defined() { next } else { Value::Zero };
            for &inp in &node.inputs {
                if let Some(hit) = self.backtrace(inp, next, assign, visited) {
                    return Some(hit);
                }
            }
        }
        None
    }

    /// Renders a full input vector from a partial assignment, filling
    /// unconstrained bits with 0 (deterministic).
    fn vector(&self, assign: &[Option<Value>]) -> Vec<Vec<Value>> {
        let mut out = Vec::with_capacity(self.port_widths.len());
        let mut k = 0;
        for &w in &self.port_widths {
            out.push(
                (0..w)
                    .map(|b| assign[k + b].unwrap_or(Value::Zero))
                    .collect(),
            );
            k += w;
        }
        out
    }

    /// Runs the PODEM search for one stuck-at fault.
    ///
    /// `backtrack_limit` bounds the number of decision flips; every
    /// implication pass charges [`Podem::imply_cost`] units of fuel to
    /// `gov`. Budget exhaustion of either kind yields
    /// [`PodemOutcome::Aborted`].
    pub(crate) fn generate(
        &mut self,
        fault: Fault,
        backtrack_limit: u64,
        gov: &mut Governor,
    ) -> PodemOutcome {
        let sv = match fault.kind {
            FaultKind::StuckAt0 => Value::Zero,
            FaultKind::StuckAt1 => Value::One,
            // Only stuck-at faults take the structural phase.
            _ => return PodemOutcome::Aborted,
        };
        let site = self.design.netlist.find_ref(fault.site);
        let sv_set = singleton(sv);
        let mut assign: Vec<Option<Value>> = vec![None; self.pi_nets.len()];
        // (pi, value, flipped_already)
        let mut stack: Vec<(usize, Value, bool)> = Vec::new();
        let mut backtracks = 0u64;
        let mut imprecise = false;
        let cost = self.imply_cost();

        loop {
            if gov.charge(cost, Span::dummy()).is_err() {
                return PodemOutcome::Aborted;
            }
            self.imply(&assign, site.index(), sv);
            let (g, f) = (&self.sets.g, &self.sets.f);

            let detected = self
                .out_nets
                .iter()
                .any(|o| certain_differ(g[o.index()], f[o.index()]));
            let excitable = can_differ(g[site.index()], sv_set);
            let observable = self
                .out_nets
                .iter()
                .any(|o| can_differ(g[o.index()], f[o.index()]));

            let step = if detected {
                return PodemOutcome::Test(self.vector(&assign));
            } else if !excitable || !observable {
                Step::Backtrack
            } else {
                // Objective: excite the site, then drive a difference to
                // an output whose good/faulty pair is still undecided.
                let objective = if !certain_differ(g[site.index()], sv_set) {
                    Some((site, sv.not()))
                } else {
                    self.out_nets
                        .iter()
                        .find(|o| {
                            can_differ(g[o.index()], f[o.index()])
                                && !certain_differ(g[o.index()], f[o.index()])
                        })
                        .map(|&o| (o, Value::One))
                };
                let choice = objective
                    .and_then(|(net, want)| {
                        let mut visited = vec![false; self.design.netlist.net_count()];
                        self.backtrace(net, want, &assign, &mut visited)
                    })
                    .or_else(|| {
                        assign
                            .iter()
                            .position(|a| a.is_none())
                            .map(|pi| (pi, Value::Zero))
                    });
                match choice {
                    Some((pi, v)) => Step::Assign(pi, v),
                    None => {
                        // Fully assigned yet undecided: the abstraction
                        // lost precision; never claim redundancy from
                        // this subtree. (Unreachable for pure {0,1}
                        // assignments — sets are singletons at leaves.)
                        imprecise = true;
                        Step::Backtrack
                    }
                }
            };

            match step {
                Step::Assign(pi, v) => {
                    assign[pi] = Some(v);
                    stack.push((pi, v, false));
                }
                Step::Backtrack => loop {
                    match stack.pop() {
                        None => {
                            return if imprecise {
                                PodemOutcome::Aborted
                            } else {
                                PodemOutcome::Redundant
                            };
                        }
                        Some((pi, _, true)) => {
                            assign[pi] = None;
                        }
                        Some((pi, v, false)) => {
                            backtracks += 1;
                            if backtracks > backtrack_limit {
                                return PodemOutcome::Aborted;
                            }
                            let flipped = v.not();
                            assign[pi] = Some(flipped);
                            stack.push((pi, flipped, true));
                            break;
                        }
                    }
                },
            }
        }
    }
}

enum Step {
    Assign(usize, Value),
    Backtrack,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_algebra_matches_scalar_gates() {
        use zeus_sema::value as sv;
        let all = [Value::Zero, Value::One, Value::Undef, Value::NoInfl];
        // Enumerate every pair of singleton inputs and check the set
        // transfer functions agree with the scalar semantics.
        for &a in &all {
            for &b in &all {
                let ins = [singleton(a), singleton(b)];
                assert_eq!(and_set(&ins), singleton(sv::and([a, b])), "and {a} {b}");
                assert_eq!(or_set(&ins), singleton(sv::or([a, b])), "or {a} {b}");
                assert_eq!(
                    not_set(and_set(&ins)),
                    singleton(sv::nand([a, b])),
                    "nand {a} {b}"
                );
                assert_eq!(
                    not_set(or_set(&ins)),
                    singleton(sv::nor([a, b])),
                    "nor {a} {b}"
                );
                assert_eq!(xor_set(&ins), singleton(sv::xor([a, b])), "xor {a} {b}");
                assert_eq!(
                    equal_set(&[singleton(a)], &[singleton(b)]),
                    singleton(sv::equal(&[a], &[b])),
                    "equal {a} {b}"
                );
            }
            assert_eq!(not_set(singleton(a)), singleton(a.not()), "not {a}");
        }
    }

    #[test]
    fn if_set_matches_scalar_rule() {
        let all = [Value::Zero, Value::One, Value::Undef, Value::NoInfl];
        for &c in &all {
            for &d in &all {
                let scalar = match c {
                    Value::Zero => NN,
                    Value::One => singleton(d),
                    _ => UU,
                };
                assert_eq!(if_set(singleton(c), singleton(d)), scalar, "if {c} {d}");
            }
        }
    }

    #[test]
    fn resolution_matches_conflict_rule() {
        // No contribution → NOINFL; one active wins; two active → UNDEF.
        assert_eq!(resolve(&[]), NN);
        assert_eq!(resolve(&[singleton(Value::One)]), Z1);
        assert_eq!(resolve(&[singleton(Value::One), NN]), Z1);
        assert_eq!(
            resolve(&[singleton(Value::One), singleton(Value::Zero)]),
            UU
        );
        assert_eq!(resolve(&[NN, NN]), NN);
        // A contribution that can be either active or NOINFL yields both
        // outcomes joined with the other side.
        assert_eq!(resolve(&[Z1 | NN, Z0 | NN]), Z0 | Z1 | UU | NN);
    }

    #[test]
    fn set_ops_are_monotone_supersets_of_singletons() {
        // {0,1} AND {1} must contain AND(0,1) and AND(1,1).
        let s = and_set(&[Z0 | Z1, Z1]);
        assert!(s & Z0 != 0 && s & Z1 != 0);
        let s = xor_set(&[Z0 | Z1, Z0 | Z1]);
        assert!(s & Z0 != 0 && s & Z1 != 0);
        assert_eq!(s & UU, 0);
    }

    /// The implication pass as it was before it kept its buffers in
    /// [`Podem`], verbatim: the reference the in-place pass must match.
    struct Reference<'a> {
        design: &'a Design,
        order: Vec<NodeId>,
        pi_nets: Vec<NetId>,
        contribs: Vec<Vec<Set>>,
    }

    impl Reference<'_> {
        fn imply(
            &mut self,
            assign: &[Option<Value>],
            site: usize,
            sv: Value,
        ) -> (Vec<Set>, Vec<Set>) {
            let nl = &self.design.netlist;
            let n = nl.net_count();
            for c in &mut self.contribs {
                c.clear();
            }
            // PI forces are contributions like any other drive; an
            // unassigned PI ranges over the {0,1} a vector stream can apply.
            for (i, &net) in self.pi_nets.iter().enumerate() {
                self.contribs[net.index()].push(match assign[i] {
                    Some(v) => singleton(v),
                    None => Z0 | Z1,
                });
            }
            // Sequential/Random sources never appear in combinational mode,
            // but stay sound if they do: their outputs can be anything
            // active.
            for node in &nl.nodes {
                if matches!(node.op, NodeOp::Reg | NodeOp::Random) {
                    self.contribs[node.output.index()].push(Z0 | Z1 | UU);
                }
            }

            let mut g: Vec<Set> = vec![0; n];
            let mut f: Vec<Set> = vec![0; n];
            let mut g_done = vec![false; n];
            let mut f_done = vec![false; n];
            // Good-circuit contributions accumulate in `contribs`; faulty
            // ones in a parallel scratch seeded identically.
            let mut fcontribs: Vec<Vec<Set>> = self.contribs.clone();

            fn net_of(
                sets: &mut [Set],
                done: &mut [bool],
                contribs: &[Vec<Set>],
                clamp: Option<(usize, Set)>,
                i: usize,
            ) -> Set {
                if !done[i] {
                    let mut s = resolve(&contribs[i]);
                    if let Some((site, sv)) = clamp {
                        if site == i {
                            s = sv;
                        }
                    }
                    sets[i] = s;
                    done[i] = true;
                }
                sets[i]
            }

            let clamp = Some((site, singleton(sv)));
            for k in 0..self.order.len() {
                let node = &nl.nodes[self.order[k].index()];
                let gi: Vec<Set> = node
                    .inputs
                    .iter()
                    .map(|p| net_of(&mut g, &mut g_done, &self.contribs, None, p.index()))
                    .collect();
                let fi: Vec<Set> = node
                    .inputs
                    .iter()
                    .map(|p| net_of(&mut f, &mut f_done, &fcontribs, clamp, p.index()))
                    .collect();
                let (gv, fv) = match &node.op {
                    NodeOp::And => (and_set(&gi), and_set(&fi)),
                    NodeOp::Or => (or_set(&gi), or_set(&fi)),
                    NodeOp::Nand => (not_set(and_set(&gi)), not_set(and_set(&fi))),
                    NodeOp::Nor => (not_set(or_set(&gi)), not_set(or_set(&fi))),
                    NodeOp::Xor => (xor_set(&gi), xor_set(&fi)),
                    NodeOp::Not => (not_set(gi[0]), not_set(fi[0])),
                    NodeOp::Equal { width } => {
                        let (ga, gb) = gi.split_at(*width);
                        let (fa, fb) = fi.split_at(*width);
                        (equal_set(ga, gb), equal_set(fa, fb))
                    }
                    NodeOp::Buf => (gi[0], fi[0]),
                    NodeOp::If => (if_set(gi[0], gi[1]), if_set(fi[0], fi[1])),
                    NodeOp::Const(v) => (singleton(*v), singleton(*v)),
                    NodeOp::Random | NodeOp::Reg => continue,
                };
                self.contribs[node.output.index()].push(gv);
                fcontribs[node.output.index()].push(fv);
            }
            // Finalize every net that was never read (outputs, the site).
            for i in 0..n {
                net_of(&mut g, &mut g_done, &self.contribs, None, i);
                net_of(&mut f, &mut f_done, &fcontribs, clamp, i);
            }
            (g, f)
        }
    }

    #[test]
    fn implication_matches_the_reference_pass() {
        use zeus_elab::elaborate;
        use zeus_syntax::parse_program;

        const C17: &str = "TYPE c17 = COMPONENT \
             (IN n1,n2,n3,n6,n7: boolean; OUT n22,n23: boolean) IS \
             SIGNAL n10,n11,n16,n19: boolean; \
             BEGIN n10 := NAND(n1,n3); n11 := NAND(n3,n6); \
             n16 := NAND(n2,n11); n19 := NAND(n11,n7); \
             n22 := NAND(n10,n16); n23 := NAND(n16,n19) END;";
        let program = |file: &str| {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../zeus-programs");
            std::fs::read_to_string(format!("{dir}/{file}")).unwrap()
        };
        let designs = [
            (program("adders.zeus"), "rippleCarry4", &[][..]),
            (program("mux.zeus"), "muxtop", &[]),
            (program("sorter.zeus"), "sorter", &[2, 5]),
            (C17.to_string(), "c17", &[]),
        ];
        // SplitMix64: a fixed seed gives fixed partial assignments.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for (src, top, args) in designs {
            let d = elaborate(&parse_program(&src).unwrap(), top, args).unwrap();
            let mut podem = Podem::new(&d).unwrap();
            let mut reference = Reference {
                design: &d,
                order: podem.order.clone(),
                pi_nets: podem.pi_nets.clone(),
                contribs: vec![Vec::new(); d.netlist.net_count()],
            };
            for net in 0..d.netlist.net_count() {
                let site = d.netlist.find_ref(NetId(net as u32)).index();
                for sv in [Value::Zero, Value::One] {
                    for _ in 0..3 {
                        let assign: Vec<Option<Value>> = (0..podem.pi_nets.len())
                            .map(|_| match next() % 3 {
                                0 => None,
                                1 => Some(Value::Zero),
                                _ => Some(Value::One),
                            })
                            .collect();
                        podem.imply(&assign, site, sv);
                        let want = reference.imply(&assign, site, sv);
                        assert!(
                            (&podem.sets.g, &podem.sets.f) == (&want.0, &want.1),
                            "{top}: net {net} stuck at {sv}, assignment {assign:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn differ_predicates() {
        assert!(certain_differ(Z0, Z1));
        assert!(!certain_differ(Z0 | Z1, Z1));
        assert!(can_differ(Z0 | Z1, Z1));
        assert!(!can_differ(Z1, Z1));
        // NOINFL vs UNDEF agree under the boolean view.
        assert!(!can_differ(NN, UU));
    }
}
