//! The rewrite passes of the optimizer.
//!
//! Every pass operates on a [`Rewriter`] — a mutable working copy of a
//! *finished* netlist (all node references canonical) — and returns how
//! many rewrites it applied. Passes only ever apply rewrites that are
//! exact in the four-valued domain: a rewritten node must contribute the
//! same raw value (including NOINFL-vs-UNDEF distinctions) to its output
//! net on every cycle, for every input assignment, or the rewrite must be
//! provably unobservable at the ports. The soundness arguments live next
//! to each rewrite; the per-value laws they rest on are enumerated
//! exhaustively in the unit tests below, and the whole pipeline is
//! additionally equivalence-checked end to end by [`crate::verify`].
//!
//! Nets are never renumbered here; dead nets are swept by the final
//! compaction in [`crate::optimize`].
//!
//! The topology passes ([`cse`], [`buf_elim`], [`dead_sweep`]) build
//! their driver and reader indices at most once per call and keep them
//! current as they rewrite, so a call costs about O(nodes + inputs),
//! never rewrites × nodes. The unit tests check each against a
//! reference that rescans the whole netlist instead.

use std::cmp::Reverse;
use std::collections::hash_map::RandomState;
use std::collections::BinaryHeap;
use std::hash::BuildHasher;
use std::ops::Range;
use zeus_elab::netlist::combinational_order;
use zeus_elab::{Design, NetId, Node, NodeOp};
use zeus_sema::value::{self, Value};

/// Cap on the input arity a chain collapse may produce, so a
/// pathological (fuzz-generated) chain cannot degenerate into one
/// enormous node.
const MAX_COLLAPSED_ARITY: usize = 256;

/// A mutable working copy of a design's node array plus the immutable
/// facts rewrites consult.
pub(crate) struct Rewriter {
    /// Working copy of the nodes (indices stable; dead ones flagged).
    pub nodes: Vec<Node>,
    /// Liveness per node index.
    pub alive: Vec<bool>,
    /// Per net index: true when the net belongs to the alias class of a
    /// top-level port, CLK or RSET — nets the outside world may force or
    /// observe. Rewrites that change *which net a reader reads* or *who
    /// drives a net* must skip protected nets; rewrites that keep a
    /// node's contribution bit-identical are safe everywhere.
    pub protected: Vec<bool>,
    net_count: usize,
}

impl Rewriter {
    /// Builds the working copy. `design.netlist` must be finished.
    pub(crate) fn new(design: &Design) -> Rewriter {
        let nl = &design.netlist;
        let mut protected = vec![false; nl.net_count()];
        for p in &design.ports {
            for &n in &p.nets {
                protected[nl.find_ref(n).index()] = true;
            }
        }
        if let Some(c) = design.clk {
            protected[nl.find_ref(c).index()] = true;
        }
        if let Some(r) = design.rset {
            protected[nl.find_ref(r).index()] = true;
        }
        Rewriter {
            nodes: nl.nodes.clone(),
            alive: vec![true; nl.nodes.len()],
            protected,
            net_count: nl.net_count(),
        }
    }

    /// Number of alive nodes.
    pub(crate) fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Occurrence count of each net across all alive nodes' inputs
    /// (sequential readers included — a register's data input is a read).
    fn reader_occurrences(&self) -> Vec<u32> {
        let mut occ = vec![0u32; self.net_count];
        for (i, n) in self.nodes.iter().enumerate() {
            if !self.alive[i] {
                continue;
            }
            for inp in &n.inputs {
                occ[inp.index()] += 1;
            }
        }
        occ
    }

    /// Alive driver nodes per net.
    fn drivers(&self) -> Vec<Vec<usize>> {
        let mut d = vec![Vec::new(); self.net_count];
        for (i, n) in self.nodes.iter().enumerate() {
            if self.alive[i] {
                d[n.output.index()].push(i);
            }
        }
        d
    }

    /// Alive reader nodes per net (a node may be listed more than once).
    /// The passes that rewire inputs keep it current with
    /// [`rewire_readers`]; a node that dies stays listed, so users skip
    /// dead entries. Every alive entry of a net's list reads that net.
    fn readers(&self) -> Vec<Vec<usize>> {
        let mut r = vec![Vec::new(); self.net_count];
        for (i, n) in self.nodes.iter().enumerate() {
            if self.alive[i] {
                for inp in &n.inputs {
                    r[inp.index()].push(i);
                }
            }
        }
        r
    }

    /// A topological order of the alive combinational nodes of the
    /// working copy. The copy stays acyclic (its input is finished, and
    /// no rewrite adds a combinational edge); were it not, folding
    /// nothing is the safe answer.
    fn topo(&self) -> Vec<usize> {
        combinational_order(&self.nodes, self.net_count, |i| self.alive[i], &[]).unwrap_or_default()
    }
}

/// Rewires every alive reader of net `from` to read `to` instead and
/// moves it onto `to`'s list in `readers`. Returns the number of input
/// occurrences moved.
fn rewire_readers(rw: &mut Rewriter, readers: &mut [Vec<usize>], from: NetId, to: NetId) -> u32 {
    let mut moved = 0;
    for r in std::mem::take(&mut readers[from.index()]) {
        if !rw.alive[r] {
            continue;
        }
        let mut k = 0;
        for inp in &mut rw.nodes[r].inputs {
            if *inp == from {
                *inp = to;
                k += 1;
            }
        }
        // A node listed twice was rewired at its first entry.
        if k > 0 {
            moved += k;
            readers[to.index()].push(r);
        }
    }
    moved
}

/// Evaluates one combinational operation on fully known input values,
/// with exactly the functions the simulator fires (§8).
fn eval_op(op: &NodeOp, vals: &[Value]) -> Value {
    match op {
        NodeOp::And => value::and(vals.iter().copied()),
        NodeOp::Or => value::or(vals.iter().copied()),
        NodeOp::Nand => value::nand(vals.iter().copied()),
        NodeOp::Nor => value::nor(vals.iter().copied()),
        NodeOp::Xor => value::xor(vals.iter().copied()),
        NodeOp::Not => vals[0].not(),
        NodeOp::Equal { width } => {
            let (a, b) = vals.split_at(*width);
            value::equal(a, b)
        }
        NodeOp::Buf => vals[0],
        NodeOp::If => match vals[0].to_boolean() {
            Value::Zero => Value::NoInfl,
            Value::One => vals[1],
            _ => Value::Undef,
        },
        NodeOp::Const(v) => *v,
        // Unreachable in practice: callers never ask for these.
        NodeOp::Random | NodeOp::Reg => Value::Undef,
    }
}

/// Resolves the static value of net `i`, memoized in `net_static`.
///
/// A net is statically known only when it is unforceable from outside
/// (not a port/CLK/RSET class) and every alive driver's contribution is
/// known with at most one of them active. A net with two or more
/// statically active drivers is a runtime conflict the optimizer
/// deliberately leaves unknown — `zeusc sim` keeps reporting it.
fn resolve_net(
    i: usize,
    protected: &[bool],
    drivers: &[Vec<usize>],
    contribution: &[Option<Value>],
    net_static: &mut [Option<Value>],
    net_done: &mut [bool],
) {
    if net_done[i] {
        return;
    }
    net_done[i] = true;
    if protected[i] {
        return; // forceable from outside: unknown
    }
    let mut active: Option<Value> = None;
    for &d in &drivers[i] {
        match contribution[d] {
            None => return, // unknown driver
            Some(Value::NoInfl) => {}
            Some(v) => {
                if active.is_some() {
                    return; // static conflict: leave to the runtime check
                }
                active = Some(v);
            }
        }
    }
    net_static[i] = Some(active.unwrap_or(Value::NoInfl));
}

/// Constant folding through the four-valued domain.
///
/// Statically known net values are propagated in topological order (see
/// [`resolve_net`] for when a net is known). Rewrites — all
/// contribution-exact, so protected output nets are fine:
///
/// * all inputs known → the node becomes `Const(v)` (or dies when `v` is
///   NOINFL — a contribution of NOINFL is no contribution at all),
/// * dominance: AND/NAND with a known-0 input, OR/NOR with a known-1
///   input, EQUAL with a known defined-unequal pair fold regardless of
///   the remaining inputs,
/// * neutral elements: known-1 inputs of AND/NAND and known-0 inputs of
///   OR/NOR/XOR are dropped; known-1 XOR inputs cancel pairwise; known
///   defined-equal EQUAL pairs are dropped (the width shrinks),
/// * `IF` with a known condition: 0 → the switch dies, 1 → `Buf(data)`
///   (raw-value exact), UNDEF/NOINFL → `Const(UNDEF)` (§8).
pub(crate) fn const_fold(rw: &mut Rewriter) -> usize {
    let order = rw.topo();
    let drivers = rw.drivers();

    // Analysis: per-node static contribution, per-net static value.
    let mut contribution: Vec<Option<Value>> = vec![None; rw.nodes.len()];
    let mut net_static: Vec<Option<Value>> = vec![None; rw.net_count];
    let mut net_done: Vec<bool> = vec![false; rw.net_count];
    for &ni in &order {
        let node = &rw.nodes[ni];
        contribution[ni] = match &node.op {
            NodeOp::Const(v) => Some(*v),
            NodeOp::Random | NodeOp::Reg => None,
            op => {
                let mut vals = Vec::with_capacity(node.inputs.len());
                let mut all = true;
                for inp in &node.inputs {
                    resolve_net(
                        inp.index(),
                        &rw.protected,
                        &drivers,
                        &contribution,
                        &mut net_static,
                        &mut net_done,
                    );
                    match net_static[inp.index()] {
                        Some(v) => vals.push(v),
                        None => {
                            all = false;
                            break;
                        }
                    }
                }
                if all {
                    Some(eval_op(op, &vals))
                } else {
                    None
                }
            }
        };
    }

    // Rewrites. `stat` only consults nets resolved above; an unresolved
    // net (read by no combinational node in topo order) is unknown here.
    let stat = |n: NetId| net_static[n.index()];
    let nodes = &mut rw.nodes;
    let alive = &mut rw.alive;
    let mut changes = 0usize;
    for ni in 0..nodes.len() {
        if !alive[ni] {
            continue;
        }
        if matches!(
            nodes[ni].op,
            NodeOp::Const(_) | NodeOp::Random | NodeOp::Reg
        ) {
            continue;
        }
        // Full fold: the node's contribution is the same every cycle.
        if let Some(v) = contribution[ni] {
            if v == Value::NoInfl {
                // Never drives: removing it is invisible even to the
                // conflict check.
                alive[ni] = false;
            } else {
                nodes[ni].op = NodeOp::Const(v);
                nodes[ni].inputs.clear();
            }
            changes += 1;
            continue;
        }
        let node = &mut nodes[ni];
        match node.op.clone() {
            NodeOp::And | NodeOp::Nand => {
                let is_and = node.op == NodeOp::And;
                if node.inputs.iter().any(|&i| stat(i) == Some(Value::Zero)) {
                    // 0 dominates the AND fold whatever the rest holds.
                    node.op = NodeOp::Const(if is_and { Value::Zero } else { Value::One });
                    node.inputs.clear();
                    changes += 1;
                } else {
                    // 1 is the neutral element of the AND fold.
                    let before = node.inputs.len();
                    node.inputs.retain(|&i| stat(i) != Some(Value::One));
                    if node.inputs.is_empty() && before > 0 {
                        node.op = NodeOp::Const(if is_and { Value::One } else { Value::Zero });
                        changes += 1;
                    } else if node.inputs.len() < before {
                        changes += 1;
                    }
                }
            }
            NodeOp::Or | NodeOp::Nor => {
                let is_or = node.op == NodeOp::Or;
                if node.inputs.iter().any(|&i| stat(i) == Some(Value::One)) {
                    node.op = NodeOp::Const(if is_or { Value::One } else { Value::Zero });
                    node.inputs.clear();
                    changes += 1;
                } else {
                    let before = node.inputs.len();
                    node.inputs.retain(|&i| stat(i) != Some(Value::Zero));
                    if node.inputs.is_empty() && before > 0 {
                        node.op = NodeOp::Const(if is_or { Value::Zero } else { Value::One });
                        changes += 1;
                    } else if node.inputs.len() < before {
                        changes += 1;
                    }
                }
            }
            NodeOp::Xor => {
                // 0 is neutral; two known 1s cancel. A lone known 1 must
                // stay (XOR(1, x) is NOT(x), a different node).
                let before = node.inputs.len();
                node.inputs.retain(|&i| stat(i) != Some(Value::Zero));
                let ones: Vec<usize> = node
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &i)| stat(i) == Some(Value::One))
                    .map(|(k, _)| k)
                    .collect();
                let cancel = ones.len() - (ones.len() % 2);
                for &k in ones[..cancel].iter().rev() {
                    node.inputs.remove(k);
                }
                if node.inputs.is_empty() && before > 0 {
                    node.op = NodeOp::Const(Value::Zero);
                    changes += 1;
                } else if node.inputs.len() < before {
                    changes += 1;
                }
            }
            NodeOp::If => match stat(node.inputs[0]) {
                Some(Value::Zero) => {
                    // The switch is never closed: it never drives.
                    alive[ni] = false;
                    changes += 1;
                }
                Some(Value::One) => {
                    // Always closed: passes the data value through raw.
                    node.op = NodeOp::Buf;
                    node.inputs.remove(0);
                    changes += 1;
                }
                Some(Value::Undef) | Some(Value::NoInfl) => {
                    // An undefined condition yields UNDEF (§8).
                    node.op = NodeOp::Const(Value::Undef);
                    node.inputs.clear();
                    changes += 1;
                }
                None => {}
            },
            NodeOp::Equal { width } => {
                let defined = |v: Value| v.to_boolean().is_defined();
                let mut dominated = false;
                let mut keep: Vec<usize> = Vec::with_capacity(width);
                for k in 0..width {
                    match (stat(node.inputs[k]), stat(node.inputs[width + k])) {
                        (Some(a), Some(b)) if defined(a) && defined(b) => {
                            if a.to_boolean() != b.to_boolean() {
                                dominated = true; // defined unequal pair forces 0
                                break;
                            }
                            // Defined equal pair: contributes nothing; drop.
                        }
                        _ => keep.push(k),
                    }
                }
                if dominated {
                    node.op = NodeOp::Const(Value::Zero);
                    node.inputs.clear();
                    changes += 1;
                } else if keep.len() < width {
                    if keep.is_empty() {
                        node.op = NodeOp::Const(Value::One);
                        node.inputs.clear();
                    } else {
                        let mut inputs = Vec::with_capacity(keep.len() * 2);
                        inputs.extend(keep.iter().map(|&k| node.inputs[k]));
                        inputs.extend(keep.iter().map(|&k| node.inputs[width + k]));
                        node.op = NodeOp::Equal { width: keep.len() };
                        node.inputs = inputs;
                    }
                    changes += 1;
                }
            }
            _ => {}
        }
    }
    changes
}

/// Chain/tree collapse: `AND(AND(a,b),c)` → `AND(a,b,c)` (likewise OR and
/// XOR), which removes one gate *and* one logic level per application —
/// an iterated OR chain of depth n collapses to a single n-ary gate of
/// depth 1.
///
/// Soundness: the folds are associative in the four-valued domain
/// (dominant element, neutral element and UNDEF-absorption all compose;
/// enumerated in the tests). The inner gate's output net must be
/// unprotected, driven only by the inner gate, and read exactly once (by
/// the outer gate) so that splicing removes its one and only observation.
pub(crate) fn chain_collapse(rw: &mut Rewriter) -> usize {
    let mut occ = rw.reader_occurrences();
    let drivers = rw.drivers();
    // The unique alive driver of each net, if any.
    let mut unique_driver: Vec<Option<usize>> = drivers
        .iter()
        .map(|d| if d.len() == 1 { Some(d[0]) } else { None })
        .collect();

    let mut changes = 0usize;
    for ni in 0..rw.nodes.len() {
        if !rw.alive[ni] {
            continue;
        }
        let op = rw.nodes[ni].op.clone();
        if !matches!(op, NodeOp::And | NodeOp::Or | NodeOp::Xor) {
            continue;
        }
        let mut k = 0;
        while k < rw.nodes[ni].inputs.len() {
            let m = rw.nodes[ni].inputs[k];
            let mi = m.index();
            let splice = (!rw.protected[mi] && occ[mi] == 1)
                .then(|| unique_driver[mi])
                .flatten()
                .filter(|&d| d != ni && rw.alive[d] && rw.nodes[d].op == op)
                .filter(|&d| {
                    rw.nodes[ni].inputs.len() - 1 + rw.nodes[d].inputs.len() <= MAX_COLLAPSED_ARITY
                });
            match splice {
                Some(d) => {
                    let inner = rw.nodes[d].inputs.clone();
                    rw.nodes[ni].inputs.splice(k..k + 1, inner);
                    rw.alive[d] = false;
                    occ[mi] -= 1;
                    unique_driver[mi] = None;
                    changes += 1;
                    // Re-examine position k: the spliced-in inputs may
                    // head further chains.
                }
                None => k += 1,
            }
        }
    }
    changes
}

/// The operation part of a node's structural-hashing key.
fn op_key(op: &NodeOp) -> (u64, u64) {
    match op {
        NodeOp::And => (0, 0),
        NodeOp::Or => (1, 0),
        NodeOp::Nand => (2, 0),
        NodeOp::Nor => (3, 0),
        NodeOp::Xor => (4, 0),
        NodeOp::Not => (5, 0),
        NodeOp::Equal { width } => (6, *width as u64),
        NodeOp::Buf => (7, 0),
        NodeOp::If => (8, 0),
        NodeOp::Const(Value::Zero) => (9, 0),
        NodeOp::Const(Value::One) => (9, 1),
        NodeOp::Const(Value::Undef) => (9, 2),
        NodeOp::Const(Value::NoInfl) => (9, 3),
        NodeOp::Random => (10, 0),
        NodeOp::Reg => (11, 0),
    }
}

/// Structural hashing / common-subexpression merging: two alive nodes
/// with the same operation and the same input list (sorted for the
/// commutative folds) compute the same value every cycle, so every reader
/// of the later node's output is rewired to the earlier one's and the
/// later node dies.
///
/// Both output nets must be unprotected and single-driver: the merge
/// relies on `net value ≡ node contribution`, which only holds for an
/// unforced, singly-driven net. RANDOM nodes never merge (two RANDOM
/// sources draw distinct streams); registers do (same data net → same
/// latched trajectory from the shared UNDEF reset).
pub(crate) fn cse(rw: &mut Rewriter) -> usize {
    // A merge kills the sole driver of its own net and no other driver,
    // so every other net keeps the driver count taken here.
    let mut drivers = vec![0u32; rw.net_count];
    for (n, _) in rw.nodes.iter().zip(&rw.alive).filter(|(_, &a)| a) {
        drivers[n.output.index()] += 1;
    }
    // Built at the first merge: most calls merge nothing.
    let mut readers = None;

    let mut seen = KeyTable::with_capacity(rw.nodes.len());
    let mut key: Vec<u64> = Vec::new();
    let mut changes = 0usize;
    for ni in 0..rw.nodes.len() {
        if !rw.alive[ni] || rw.nodes[ni].op == NodeOp::Random {
            continue;
        }
        let out = rw.nodes[ni].output;
        if rw.protected[out.index()] || drivers[out.index()] != 1 {
            continue;
        }
        let (tag, param) = op_key(&rw.nodes[ni].op);
        key.clear();
        key.extend([tag, param]);
        key.extend(rw.nodes[ni].inputs.iter().map(|n| u64::from(n.0)));
        if matches!(
            rw.nodes[ni].op,
            NodeOp::And | NodeOp::Or | NodeOp::Nand | NodeOp::Nor | NodeOp::Xor
        ) {
            key[2..].sort_unstable();
        }
        if let Some(canon) = seen.get_or_insert(&key, ni) {
            let keep = rw.nodes[canon].output;
            let readers = readers.get_or_insert_with(|| rw.readers());
            rewire_readers(rw, readers, out, keep);
            rw.alive[ni] = false;
            changes += 1;
        }
    }
    changes
}

/// The canonical node of each structural key [`cse`] has met: an
/// open-addressed table over keys stored end to end in one arena. It is
/// only ever looked up, never iterated, so its layout cannot reach a
/// rewrite.
struct KeyTable {
    /// Per slot: 0 when empty, else 1 + an index into `entries`.
    slots: Vec<u32>,
    /// Per key: its hash, its range in `arena`, and its node.
    entries: Vec<(u64, Range<usize>, usize)>,
    arena: Vec<u64>,
    /// Randomly seeded, as `HashMap`'s is: a design read from a file
    /// must not be able to pick keys that collide.
    hasher: RandomState,
}

impl KeyTable {
    /// A table for up to `n` keys, at most half full.
    fn with_capacity(n: usize) -> KeyTable {
        KeyTable {
            slots: vec![0; (2 * n).next_power_of_two().max(2)],
            entries: Vec::with_capacity(n),
            arena: Vec::new(),
            hasher: RandomState::new(),
        }
    }

    /// The node filed under `key`, or `None` after filing `node` there.
    fn get_or_insert(&mut self, key: &[u64], node: usize) -> Option<usize> {
        let hash = self.hasher.hash_one(key);
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while let Some(e) = self.slots[slot].checked_sub(1) {
            let (h, range, canon) = &self.entries[e as usize];
            if *h == hash && self.arena[range.clone()] == *key {
                return Some(*canon);
            }
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = self.entries.len() as u32 + 1;
        let start = self.arena.len();
        self.arena.extend_from_slice(key);
        self.entries.push((hash, start..self.arena.len(), node));
        None
    }
}

/// Copy propagation, in both directions:
///
/// * *reader rewire* — a `Buf` whose output net is unprotected and
///   driven only by the Buf is a pure alias of its input net: every
///   reader is rewired to read the input directly and the Buf dies. (A
///   Buf passes the raw resolved value through, including NOINFL and
///   conflict UNDEFs, so readers observe exactly what they observed
///   before.)
/// * *driver retarget* — a `Buf` whose *input* net is unprotected,
///   single-driven and read by nobody else carries exactly its driver's
///   contribution; that driver's output is retargeted onto the Buf's
///   output net and the Buf dies. This is the rewrite that absorbs the
///   `Buf` an `s := expr` port assignment elaborates to: the Buf's
///   output may be a protected port net, because the net's resolved
///   value (and active-driver count) is preserved bit for bit. No
///   combinational cycle can appear: any path from the Buf's output back
///   into the driver's cone would have been a cycle through the Buf
///   already.
///
/// The rewrites apply in a fixed order: always to the lowest-index Buf
/// that qualifies at that moment, as a rescan from index 0 after every
/// rewrite would pick. A min-heap of candidate Bufs stands in for the
/// rescan; a popped Buf that does not qualify leaves it. Only one
/// rewrite can make a Buf newly qualify: a reader rewire (`out` → `src`)
/// that leaves `src` with a single reader, which a retarget may now
/// absorb, so that reader is queued again. The readers moved onto `src`
/// keep their outputs, and a retarget leaves every driver count as it
/// was and gives the driver the dead Buf's output, on which that Buf
/// did not qualify for a rewire either.
pub(crate) fn buf_elim(rw: &mut Rewriter) -> usize {
    let mut drivers = rw.drivers();
    let mut occ = rw.reader_occurrences();
    // Built at the first reader rewire.
    let mut readers = None;
    let mut queue: BinaryHeap<Reverse<usize>> = (0..rw.nodes.len())
        .filter(|&i| rw.nodes[i].op == NodeOp::Buf)
        .map(Reverse)
        .collect();
    let mut changes = 0usize;
    while let Some(Reverse(ni)) = queue.pop() {
        if !rw.alive[ni] || rw.nodes[ni].op != NodeOp::Buf {
            continue;
        }
        let out = rw.nodes[ni].output;
        let src = rw.nodes[ni].inputs[0];
        if !rw.protected[out.index()] && drivers[out.index()].len() == 1 {
            // Reader rewire. (A Buf reading its own output sits on a
            // combinational loop and has no other reader to rewire.)
            let readers = readers.get_or_insert_with(|| rw.readers());
            if src != out {
                let moved = rewire_readers(rw, readers, out, src);
                occ[out.index()] -= moved;
                occ[src.index()] += moved;
            }
            rw.alive[ni] = false;
            occ[src.index()] -= 1;
            drivers[out.index()].clear();
            if occ[src.index()] == 1 {
                let list = &mut readers[src.index()];
                list.retain(|&r| rw.alive[r]);
                queue.push(Reverse(list[0]));
            }
            changes += 1;
        } else if !rw.protected[src.index()]
            && occ[src.index()] == 1
            && drivers[src.index()].len() == 1
        {
            // Driver retarget.
            let d = drivers[src.index()][0];
            if d != ni {
                rw.nodes[d].output = out;
                rw.alive[ni] = false;
                occ[src.index()] = 0;
                drivers[src.index()].clear();
                drivers[out.index()].retain(|&x| x != ni);
                drivers[out.index()].push(d);
                changes += 1;
            }
        }
    }
    changes
}

/// Dead-logic sweep: a node whose output net is unprotected and read by
/// nobody contributes to nothing observable — it dies, which may strand
/// its upstream cone in turn. A work list of such nodes runs the sweep to
/// its fixed point; the order of deaths does not change which nodes die.
pub(crate) fn dead_sweep(rw: &mut Rewriter) -> usize {
    let mut occ = rw.reader_occurrences();
    let mut work: Vec<usize> = (0..rw.nodes.len())
        .filter(|&i| rw.alive[i])
        .filter(|&i| {
            let out = rw.nodes[i].output.index();
            !rw.protected[out] && occ[out] == 0
        })
        .collect();
    if work.is_empty() {
        return 0;
    }
    let drivers = rw.drivers();
    let mut changes = 0usize;
    // A net's count reaches 0 at most once, so no node is listed twice.
    while let Some(ni) = work.pop() {
        rw.alive[ni] = false;
        changes += 1;
        for inp in &rw.nodes[ni].inputs {
            let n = inp.index();
            occ[n] -= 1;
            if occ[n] == 0 && !rw.protected[n] {
                work.extend(drivers[n].iter().filter(|&&d| rw.alive[d]));
            }
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use zeus_syntax::span::Span;

    const ALL: [Value; 4] = [Value::Zero, Value::One, Value::Undef, Value::NoInfl];

    /// Reference for [`cse`]: each merge walks every node to rewire the
    /// merged net's readers.
    fn cse_walk(rw: &mut Rewriter) -> usize {
        // Driver counts only shrink as merged nodes die, and a dead node's
        // output net is never revisited, so the snapshot stays conservative
        // for the whole sweep.
        let drivers = rw.drivers();
        let single = |n: NetId| drivers[n.index()].len() == 1;

        let mut seen: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        let mut changes = 0usize;
        for ni in 0..rw.nodes.len() {
            if !rw.alive[ni] || rw.nodes[ni].op == NodeOp::Random {
                continue;
            }
            let out = rw.nodes[ni].output;
            if rw.protected[out.index()] || !single(out) {
                continue;
            }
            let (tag, param) = op_key(&rw.nodes[ni].op);
            let mut key: Vec<u64> = vec![tag, param];
            let mut ins: Vec<u64> = rw.nodes[ni].inputs.iter().map(|n| u64::from(n.0)).collect();
            if matches!(
                rw.nodes[ni].op,
                NodeOp::And | NodeOp::Or | NodeOp::Nand | NodeOp::Nor | NodeOp::Xor
            ) {
                ins.sort_unstable();
            }
            key.extend(ins);
            match seen.get(&key).copied() {
                Some(canon) => {
                    let keep = rw.nodes[canon].output;
                    for (oi, other) in rw.nodes.iter_mut().enumerate() {
                        if !rw.alive[oi] {
                            continue;
                        }
                        for inp in &mut other.inputs {
                            if *inp == out {
                                *inp = keep;
                            }
                        }
                    }
                    rw.alive[ni] = false;
                    changes += 1;
                }
                None => {
                    seen.insert(key, ni);
                }
            }
        }
        changes
    }

    /// Reference for [`buf_elim`]: rebuilds the driver and reader
    /// indices and rescans from index 0 after every rewrite.
    fn buf_elim_restart(rw: &mut Rewriter) -> usize {
        let mut changes = 0usize;
        'restart: loop {
            let drivers = rw.drivers();
            let occ = rw.reader_occurrences();
            for ni in 0..rw.nodes.len() {
                if !rw.alive[ni] || rw.nodes[ni].op != NodeOp::Buf {
                    continue;
                }
                let out = rw.nodes[ni].output;
                let src = rw.nodes[ni].inputs[0];
                if !rw.protected[out.index()] && drivers[out.index()].len() == 1 {
                    // Reader rewire.
                    for (oi, other) in rw.nodes.iter_mut().enumerate() {
                        if !rw.alive[oi] || oi == ni {
                            continue;
                        }
                        for inp in &mut other.inputs {
                            if *inp == out {
                                *inp = src;
                            }
                        }
                    }
                    rw.alive[ni] = false;
                    changes += 1;
                    continue 'restart;
                }
                if !rw.protected[src.index()]
                    && occ[src.index()] == 1
                    && drivers[src.index()].len() == 1
                {
                    // Driver retarget.
                    let d = drivers[src.index()][0];
                    if d != ni {
                        rw.nodes[d].output = out;
                        rw.alive[ni] = false;
                        changes += 1;
                        continue 'restart;
                    }
                }
            }
            return changes;
        }
    }

    /// Reference for [`dead_sweep`]: rescans every node once per round.
    fn dead_sweep_rounds(rw: &mut Rewriter) -> usize {
        let mut changes = 0usize;
        loop {
            let occ = rw.reader_occurrences();
            let mut round = 0usize;
            for ni in 0..rw.nodes.len() {
                if !rw.alive[ni] {
                    continue;
                }
                let out = rw.nodes[ni].output;
                if !rw.protected[out.index()] && occ[out.index()] == 0 {
                    rw.alive[ni] = false;
                    round += 1;
                }
            }
            if round == 0 {
                return changes;
            }
            changes += round;
        }
    }

    /// A small deterministic generator (SplitMix64) for random netlists.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (`n > 0`).
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// True with probability `pct`%.
        fn pct(&mut self, pct: usize) -> bool {
            self.below(100) < pct
        }
    }

    /// A random finished netlist as rewriter state. Nets are numbered in
    /// data-flow order: a combinational node reads only nets below its
    /// output, so the graph is acyclic, while a register may read any
    /// net, its own output included (registers on loops). Half the
    /// nodes are Bufs, most reading the net just below their output, so
    /// Buf chains are long; some nodes repeat an earlier node's
    /// operation and inputs (duplicates); some nets get two drivers or
    /// are protected. The node array is then kept in data-flow order,
    /// reversed (Buf chains against the data flow) or shuffled, and a
    /// few nodes start dead, as an earlier pass would leave them.
    fn random_rewriter(seed: u64) -> Rewriter {
        let mut g = Gen(seed);
        let net_count = 6 + g.below(60);
        let inputs = 1 + g.below(4);
        let protected: Vec<bool> = (0..net_count)
            .map(|n| g.pct(if n < inputs { 50 } else { 12 }))
            .collect();
        let net = |n: usize| NetId(n as u32);
        let mut nodes: Vec<Node> = Vec::new();
        let node = |op: NodeOp, inputs: Vec<NetId>, output: usize| Node {
            op,
            inputs,
            output: net(output),
            group: None,
            span: Span::dummy(),
        };
        for o in inputs..net_count {
            let drivers = if g.pct(10) { 2 } else { 1 };
            for _ in 0..drivers {
                let below = |g: &mut Gen| net(g.below(o));
                let n = match g.below(20) {
                    0..=9 => {
                        let src = if g.pct(60) { net(o - 1) } else { below(&mut g) };
                        node(NodeOp::Buf, vec![src], o)
                    }
                    10 | 11 if !nodes.is_empty() => {
                        // The twin's inputs lie below its output, so
                        // below this one.
                        let twin = &nodes[g.below(nodes.len())];
                        node(twin.op.clone(), twin.inputs.clone(), o)
                    }
                    12 => node(NodeOp::Reg, vec![net(g.below(net_count))], o),
                    13 => node(NodeOp::Const(ALL[g.below(4)]), vec![], o),
                    14 => node(NodeOp::Not, vec![below(&mut g)], o),
                    15 => node(NodeOp::If, vec![below(&mut g), below(&mut g)], o),
                    _ => {
                        let ops = [NodeOp::And, NodeOp::Or, NodeOp::Xor, NodeOp::Nand];
                        let arity = 1 + g.below(3);
                        let ins = (0..arity).map(|_| below(&mut g)).collect();
                        node(ops[g.below(ops.len())].clone(), ins, o)
                    }
                };
                nodes.push(n);
            }
        }
        match g.below(3) {
            0 => {}
            1 => nodes.reverse(),
            _ => {
                for i in (1..nodes.len()).rev() {
                    nodes.swap(i, g.below(i + 1));
                }
            }
        }
        let alive = (0..nodes.len()).map(|_| !g.pct(5)).collect();
        Rewriter {
            nodes,
            alive,
            protected,
            net_count,
        }
    }

    /// The rewriter state a pass leaves, for comparison: each node's
    /// operation, inputs, output and liveness.
    type State = Vec<(NodeOp, Vec<NetId>, NetId, bool)>;

    fn state(rw: &Rewriter) -> State {
        let node = |(n, &alive): (&Node, &bool)| (n.op.clone(), n.inputs.clone(), n.output, alive);
        rw.nodes.iter().zip(&rw.alive).map(node).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The indexed passes apply exactly the rewrites of their
        /// rescanning references, in the same order: through a whole
        /// pipeline run, each leaves the same nodes, liveness and
        /// rewrite count.
        #[test]
        fn indexed_passes_match_their_rescanning_references(seed in any::<u64>()) {
            let mut fast = random_rewriter(seed);
            let mut slow = random_rewriter(seed);
            type Pass = fn(&mut Rewriter) -> usize;
            let pairs: [(&str, Pass, Pass); 3] = [
                ("cse", cse, cse_walk),
                ("buf-elim", buf_elim, buf_elim_restart),
                ("dead-sweep", dead_sweep, dead_sweep_rounds),
            ];
            for round in 0..8 {
                let mut total = const_fold(&mut fast) + chain_collapse(&mut fast);
                const_fold(&mut slow);
                chain_collapse(&mut slow);
                for (name, pass, reference) in pairs {
                    let got = pass(&mut fast);
                    let want = reference(&mut slow);
                    prop_assert_eq!(got, want, "{} rewrites, round {}, seed {:#x}", name, round, seed);
                    prop_assert!(state(&fast) == state(&slow), "{} state, round {}, seed {:#x}", name, round, seed);
                    total += got;
                }
                if total == 0 {
                    break;
                }
            }
        }
    }

    /// The neutral-element laws the partial folds rely on, enumerated
    /// over the whole domain.
    #[test]
    fn neutral_elements_are_exact() {
        for &x in &ALL {
            for &y in &ALL {
                assert_eq!(value::and([Value::One, x, y]), value::and([x, y]));
                assert_eq!(value::or([Value::Zero, x, y]), value::or([x, y]));
                assert_eq!(value::xor([Value::Zero, x, y]), value::xor([x, y]));
                assert_eq!(value::nand([Value::One, x, y]), value::nand([x, y]));
                assert_eq!(value::nor([Value::Zero, x, y]), value::nor([x, y]));
                // Two XOR 1s cancel.
                assert_eq!(
                    value::xor([Value::One, Value::One, x, y]),
                    value::xor([x, y])
                );
            }
        }
    }

    /// The dominance laws: a known 0 (AND) / 1 (OR) decides the fold no
    /// matter what the other inputs hold.
    #[test]
    fn dominance_is_exact() {
        for &x in &ALL {
            for &y in &ALL {
                assert_eq!(value::and([Value::Zero, x, y]), Value::Zero);
                assert_eq!(value::or([Value::One, x, y]), Value::One);
                assert_eq!(value::nand([Value::Zero, x, y]), Value::One);
                assert_eq!(value::nor([Value::One, x, y]), Value::Zero);
            }
        }
    }

    /// Associativity of the chain collapse: folding a sub-fold's result
    /// into the outer fold equals one flat fold, for AND/OR/XOR over
    /// every combination of three values.
    #[test]
    fn chain_splice_is_exact() {
        for &a in &ALL {
            for &b in &ALL {
                for &c in &ALL {
                    assert_eq!(value::and([value::and([a, b]), c]), value::and([a, b, c]));
                    assert_eq!(value::or([value::or([a, b]), c]), value::or([a, b, c]));
                    assert_eq!(value::xor([value::xor([a, b]), c]), value::xor([a, b, c]));
                }
            }
        }
    }

    /// EQUAL pair laws: a defined unequal pair forces 0; a defined equal
    /// pair can be dropped without changing the reduction.
    #[test]
    fn equal_pair_laws_are_exact() {
        for &x in &ALL {
            for &y in &ALL {
                assert_eq!(
                    value::equal(&[Value::Zero, x], &[Value::One, y]),
                    Value::Zero
                );
                assert_eq!(
                    value::equal(&[Value::One, x], &[Value::One, y]),
                    value::equal(&[x], &[y])
                );
                assert_eq!(
                    value::equal(&[Value::Zero, x], &[Value::Zero, y]),
                    value::equal(&[x], &[y])
                );
            }
        }
    }

    /// The IF condition folds match the simulator's switch semantics.
    #[test]
    fn if_condition_folds_are_exact() {
        for &d in &ALL {
            assert_eq!(eval_op(&NodeOp::If, &[Value::Zero, d]), Value::NoInfl);
            assert_eq!(
                eval_op(&NodeOp::If, &[Value::One, d]),
                d,
                "raw pass-through"
            );
            assert_eq!(eval_op(&NodeOp::If, &[Value::Undef, d]), Value::Undef);
            assert_eq!(eval_op(&NodeOp::If, &[Value::NoInfl, d]), Value::Undef);
        }
    }
}
