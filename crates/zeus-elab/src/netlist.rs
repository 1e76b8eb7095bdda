//! The flat netlist produced by elaboration.
//!
//! This is the machine form of the paper's *semantics graph* (§8): one net
//! per basic signal, one node per predefined component instance, `IF`
//! switch or register, with directed edges implied by node inputs/outputs.
//! Aliasing (`==`) is a union-find over nets; [`Netlist::finish`]
//! canonicalizes all references to class representatives and verifies that
//! the graph is acyclic once registers are removed ("the predefined
//! component REG ... acts as a cycle breaker").

use std::collections::HashMap;
use std::fmt;
use zeus_sema::rules::BasicKind;
use zeus_sema::value::Value;
use zeus_syntax::diag::{Diagnostic, Diagnostics};
use zeus_syntax::span::Span;

/// Identifies a net (one basic signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl NetId {
    /// The index into [`Netlist::nets`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a node of the semantics graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index into [`Netlist::nodes`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Per-net information.
#[derive(Debug, Clone)]
pub struct Net {
    /// boolean or multiplex. After `finish`, an alias class containing any
    /// multiplex member is multiplex.
    pub kind: BasicKind,
    /// Hierarchical debug name of the first signal bit mapped to this net.
    pub name: String,
    /// Source location of the declaration.
    pub span: Span,
}

/// The operation a node performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeOp {
    /// n-ary AND (1 bit).
    And,
    /// n-ary OR (1 bit).
    Or,
    /// n-ary NAND (1 bit).
    Nand,
    /// n-ary NOR (1 bit).
    Nor,
    /// n-ary XOR (1 bit).
    Xor,
    /// NOT (1 bit).
    Not,
    /// Vector equality reduced to one bit: inputs are `a₀..a_{w-1}` then
    /// `b₀..b_{w-1}`.
    Equal {
        /// Operand width in bits.
        width: usize,
    },
    /// Unconditional copy: the single input drives the output net.
    Buf,
    /// Conditional switch (`IF b THEN x := e END`): inputs `[cond, data]`.
    /// Contributes NOINFL when the condition is 0, UNDEF when the
    /// condition is NOINFL or UNDEF, and the data value when it is 1 (§8).
    If,
    /// A constant source.
    Const(Value),
    /// The predefined RANDOM bistable source: a fresh pseudo-random
    /// boolean each cycle (deterministic from the simulator seed).
    Random,
    /// The predefined register REG: input `d`, output is the value of `d`
    /// in the previous clock cycle. Sequential — breaks cycles.
    Reg,
}

impl NodeOp {
    /// Whether the node is sequential (its output does not depend on its
    /// inputs within a cycle).
    pub fn is_sequential(&self) -> bool {
        matches!(self, NodeOp::Reg)
    }
}

/// A node of the semantics graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operation.
    pub op: NodeOp,
    /// Input nets in operand order.
    pub inputs: Vec<NetId>,
    /// The net this node contributes to.
    pub output: NetId,
    /// The SEQUENTIAL/PARALLEL statement group this node belongs to, if
    /// the user annotated one (§4.5).
    pub group: Option<u32>,
    /// Source location of the originating statement.
    pub span: Span,
}

/// A user-specified ordering constraint between statement groups: every
/// node of `before` must be evaluable before every node of `after`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupConstraint {
    /// The earlier group.
    pub before: u32,
    /// The later group.
    pub after: u32,
}

/// The flat design graph.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// All nets (indexed by [`NetId`]). After [`Netlist::finish`], ids in
    /// nodes refer to class representatives only.
    pub nets: Vec<Net>,
    /// All nodes.
    pub nodes: Vec<Node>,
    /// SEQUENTIAL ordering constraints for the §4.5 compatibility check.
    pub group_constraints: Vec<GroupConstraint>,
    /// Parent group of each group (groups nest: a statement inside an
    /// inner SEQUENTIAL also belongs to the enclosing group). Indexed by
    /// group id; `u32::MAX` means no parent.
    pub group_parents: Vec<u32>,
    /// Union-find parents (by net index).
    alias: Vec<u32>,
    finished: bool,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Creates a net.
    pub fn add_net(&mut self, kind: BasicKind, name: impl Into<String>, span: Span) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            kind,
            name: name.into(),
            span,
        });
        self.alias.push(id.0);
        id
    }

    /// Creates a node and returns its id.
    pub fn add_node(
        &mut self,
        op: NodeOp,
        inputs: Vec<NetId>,
        output: NetId,
        group: Option<u32>,
        span: Span,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op,
            inputs,
            output,
            group,
            span,
        });
        id
    }

    /// Finds the alias-class representative of a net (path-compressing).
    pub fn find(&mut self, n: NetId) -> NetId {
        let mut root = n.0;
        while self.alias[root as usize] != root {
            root = self.alias[root as usize];
        }
        // Path compression.
        let mut cur = n.0;
        while self.alias[cur as usize] != root {
            let next = self.alias[cur as usize];
            self.alias[cur as usize] = root;
            cur = next;
        }
        NetId(root)
    }

    /// Non-compressing find for shared references.
    pub fn find_ref(&self, n: NetId) -> NetId {
        let mut root = n.0;
        while self.alias[root as usize] != root {
            root = self.alias[root as usize];
        }
        NetId(root)
    }

    /// Aliases two nets (`==`): afterwards they are one signal with two
    /// names. Returns the representative.
    pub fn union(&mut self, a: NetId, b: NetId) -> NetId {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Keep the lower id as representative for determinism.
            let (keep, merge) = if ra.0 < rb.0 { (ra, rb) } else { (rb, ra) };
            self.alias[merge.0 as usize] = keep.0;
            // The class is multiplex if any member is.
            if self.nets[merge.index()].kind == BasicKind::Multiplex {
                self.nets[keep.index()].kind = BasicKind::Multiplex;
            }
            keep
        } else {
            ra
        }
    }

    /// True once [`Netlist::finish`] has run.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The raw union-find parent vector, for the `zeus netlist v1` writer
    /// and the optimizer's net-compaction rebuild.
    pub fn alias_raw(&self) -> &[u32] {
        &self.alias
    }

    /// Reassembles a netlist from raw parts (the `zeus netlist v1` reader
    /// and the `zeus-opt` net-compaction rebuild). Nothing is checked
    /// here: zeus-netlist's validator proves a read netlist consistent
    /// before anything walks it, and the optimizer's equivalence gate
    /// checks a rebuilt one end to end.
    pub fn from_raw_parts(
        nets: Vec<Net>,
        nodes: Vec<Node>,
        group_constraints: Vec<GroupConstraint>,
        group_parents: Vec<u32>,
        alias: Vec<u32>,
        finished: bool,
    ) -> Netlist {
        Netlist {
            nets,
            nodes,
            group_constraints,
            group_parents,
            alias,
            finished,
        }
    }

    /// Canonicalizes all node references to alias representatives and
    /// checks that the combinational graph (registers removed) is acyclic.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming nets on a combinational loop, per the
    /// rule "we disallow feedback loops which do not lead through
    /// registers" (§1).
    pub fn finish(&mut self) -> Result<(), Diagnostics> {
        for i in 0..self.nodes.len() {
            let inputs: Vec<NetId> = self.nodes[i].inputs.clone();
            let mapped: Vec<NetId> = inputs.into_iter().map(|n| self.find(n)).collect();
            self.nodes[i].inputs = mapped;
            let out = self.nodes[i].output;
            self.nodes[i].output = self.find(out);
        }
        self.finished = true;
        match self.topo_order() {
            Ok(_) => Ok(()),
            Err(d) => Err(d.into()),
        }
    }

    /// All nodes driving (contributing to) each net, indexed by net.
    pub fn drivers_by_net(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nets.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            out[n.output.index()].push(NodeId(i as u32));
        }
        out
    }

    /// All nodes reading each net, indexed by net.
    pub fn readers_by_net(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nets.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if n.op.is_sequential() {
                continue;
            }
            for inp in &n.inputs {
                out[inp.index()].push(NodeId(i as u32));
            }
        }
        out
    }

    /// A topological order of the *combinational* nodes. Registers are
    /// excluded: a `Reg` is evaluated at cycle end, so combinationally
    /// only its output matters, and that is a source.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if a combinational cycle exists.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, Diagnostic> {
        match combinational_order(&self.nodes, self.nets.len(), |_| true, []) {
            Ok(order) => Ok(order.into_iter().map(|i| NodeId(i as u32)).collect()),
            Err(witness) => {
                let net = &self.nets[self.nodes[witness].output.index()];
                Err(Diagnostic::error(
                    net.span,
                    format!(
                        "combinational feedback loop through signal '{}': \
                         loops must lead through registers (§1)",
                        net.name
                    ),
                ))
            }
        }
    }

    /// Checks the SEQUENTIAL/PARALLEL annotations (§4.5): the constraints
    /// must be *compatible* with the dataflow order, i.e. adding them as
    /// edges must keep the graph acyclic.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the first incompatible constraint.
    pub fn check_group_compatibility(&self) -> Result<(), Diagnostic> {
        if self.group_constraints.is_empty() {
            return Ok(());
        }
        let mut by_group: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(g) = node.group {
                if !node.op.is_sequential() {
                    // A node belongs to its group and all enclosing groups.
                    let mut g = g;
                    loop {
                        by_group.entry(g).or_default().push(i);
                        match self.group_parents.get(g as usize) {
                            Some(&p) if p != u32::MAX => g = p,
                            _ => break,
                        }
                    }
                }
            }
        }
        let group_edges = self
            .group_constraints
            .iter()
            .filter_map(|c| Some((by_group.get(&c.before)?, by_group.get(&c.after)?)))
            .flat_map(|(before, after)| {
                before
                    .iter()
                    .flat_map(move |&a| after.iter().map(move |&b| (a, b)))
            });
        match combinational_order(&self.nodes, self.nets.len(), |_| true, group_edges) {
            Ok(_) => Ok(()),
            Err(witness) => Err(Diagnostic::error(
                self.nodes[witness].span,
                "SEQUENTIAL annotation is incompatible with the dataflow order of the \
                 semantics graph (§4.5)",
            )),
        }
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// True when `n` is the representative of its alias class (after
    /// [`Netlist::finish`] all node references point at representatives).
    pub fn is_representative(&self, n: NetId) -> bool {
        self.find_ref(n) == n
    }

    /// Iterates over the canonical nets: the alias-class representatives,
    /// in ascending id order. These are the fault sites of the design —
    /// every physically distinct signal appears exactly once.
    pub fn representatives(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32)
            .map(NetId)
            .filter(|&n| self.is_representative(n))
    }

    /// Combinational fanout per net: how many non-sequential nodes read
    /// each net, indexed by net. Register data inputs are excluded, like
    /// in [`Netlist::readers_by_net`].
    pub fn fanout(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.nets.len()];
        for n in &self.nodes {
            if n.op.is_sequential() {
                continue;
            }
            for inp in &n.inputs {
                out[inp.index()] += 1;
            }
        }
        out
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over the ids of all register nodes.
    pub fn registers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.op == NodeOp::Reg)
            .map(|(i, _)| NodeId(i as u32))
    }
}

/// Kahn's algorithm over the combinational nodes of `nodes` for which
/// `live` holds: node A precedes node B when A drives an input of B, and
/// each `(a, b)` of `extra` adds one more such edge. Edges are built in
/// node-index order and the FIFO queue is seeded in ascending order, so
/// equal inputs give equal orders; the simulators' RANDOM draws follow
/// them.
///
/// # Errors
///
/// The index of the first live combinational node left on or behind a
/// cycle.
pub fn combinational_order(
    nodes: &[Node],
    net_count: usize,
    live: impl Fn(usize) -> bool,
    extra: impl IntoIterator<Item = (usize, usize)>,
) -> Result<Vec<usize>, usize> {
    let n = nodes.len();
    let mut drivers: Vec<Vec<usize>> = vec![Vec::new(); net_count];
    for (i, node) in nodes.iter().enumerate() {
        if live(i) {
            drivers[node.output.index()].push(i);
        }
    }
    let comb = |i: usize| live(i) && !nodes[i].op.is_sequential();
    let mut indegree = vec![0usize; n];
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (bi, b) in nodes.iter().enumerate() {
        if !comb(bi) {
            continue;
        }
        for inp in &b.inputs {
            for &a in &drivers[inp.index()] {
                if nodes[a].op.is_sequential() {
                    continue;
                }
                edges[a].push(bi);
                indegree[bi] += 1;
            }
        }
    }
    for (a, b) in extra {
        edges[a].push(b);
        indegree[b] += 1;
    }
    // The queue is the order: every node enters it once, when its last
    // predecessor has been placed.
    let mut order: Vec<usize> = (0..n).filter(|&i| comb(i) && indegree[i] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let x = order[head];
        head += 1;
        for &m in &edges[x] {
            indegree[m] -= 1;
            if indegree[m] == 0 {
                order.push(m);
            }
        }
    }
    match (0..n).find(|&i| comb(i) && indegree[i] > 0) {
        Some(witness) => Err(witness),
        None => Ok(order),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bnet(nl: &mut Netlist, name: &str) -> NetId {
        nl.add_net(BasicKind::Boolean, name, Span::dummy())
    }

    #[test]
    fn union_find_basics() {
        let mut nl = Netlist::new();
        let a = bnet(&mut nl, "a");
        let b = bnet(&mut nl, "b");
        let c = bnet(&mut nl, "c");
        assert_eq!(nl.find(a), a);
        nl.union(a, b);
        assert_eq!(nl.find(a), nl.find(b));
        nl.union(b, c);
        assert_eq!(nl.find(c), nl.find(a));
        // Representative is the smallest id.
        assert_eq!(nl.find(c), a);
    }

    #[test]
    fn union_promotes_kind_to_multiplex() {
        let mut nl = Netlist::new();
        let a = bnet(&mut nl, "a");
        let m = nl.add_net(BasicKind::Multiplex, "m", Span::dummy());
        let r = nl.union(a, m);
        assert_eq!(nl.nets[r.index()].kind, BasicKind::Multiplex);
    }

    #[test]
    fn finish_remaps_node_refs() {
        let mut nl = Netlist::new();
        let a = bnet(&mut nl, "a");
        let b = bnet(&mut nl, "b");
        let c = bnet(&mut nl, "c");
        nl.add_node(NodeOp::Not, vec![b], c, None, Span::dummy());
        nl.union(a, b);
        nl.finish().expect("acyclic");
        assert_eq!(nl.nodes[0].inputs[0], a);
    }

    #[test]
    fn cycle_detection() {
        let mut nl = Netlist::new();
        let a = bnet(&mut nl, "a");
        let b = bnet(&mut nl, "b");
        nl.add_node(NodeOp::Not, vec![a], b, None, Span::dummy());
        nl.add_node(NodeOp::Not, vec![b], a, None, Span::dummy());
        let err = nl.finish().expect_err("cycle");
        assert!(err.to_string().contains("combinational feedback loop"));
    }

    #[test]
    fn reg_breaks_cycles() {
        let mut nl = Netlist::new();
        let a = bnet(&mut nl, "a");
        let b = bnet(&mut nl, "b");
        nl.add_node(NodeOp::Not, vec![a], b, None, Span::dummy());
        nl.add_node(NodeOp::Reg, vec![b], a, None, Span::dummy());
        nl.finish().expect("register loop is legal");
    }

    #[test]
    fn topo_order_is_causal() {
        let mut nl = Netlist::new();
        let a = bnet(&mut nl, "a");
        let b = bnet(&mut nl, "b");
        let c = bnet(&mut nl, "c");
        let d = bnet(&mut nl, "d");
        let n1 = nl.add_node(NodeOp::Not, vec![a], b, None, Span::dummy());
        let n2 = nl.add_node(NodeOp::And, vec![b, a], c, None, Span::dummy());
        let n3 = nl.add_node(NodeOp::Or, vec![c, b], d, None, Span::dummy());
        nl.finish().unwrap();
        let order = nl.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(n1) < pos(n2));
        assert!(pos(n2) < pos(n3));
    }

    #[test]
    fn group_compatibility() {
        let mut nl = Netlist::new();
        let a = bnet(&mut nl, "a");
        let b = bnet(&mut nl, "b");
        let c = bnet(&mut nl, "c");
        // b := NOT a (group 0); c := NOT b (group 1)
        nl.add_node(NodeOp::Not, vec![a], b, Some(0), Span::dummy());
        nl.add_node(NodeOp::Not, vec![b], c, Some(1), Span::dummy());
        nl.finish().unwrap();
        nl.group_constraints.push(GroupConstraint {
            before: 0,
            after: 1,
        });
        assert!(nl.check_group_compatibility().is_ok());
        // Reversed constraint contradicts dataflow.
        nl.group_constraints.clear();
        nl.group_constraints.push(GroupConstraint {
            before: 1,
            after: 0,
        });
        assert!(nl.check_group_compatibility().is_err());
    }

    #[test]
    fn drivers_and_readers_index() {
        let mut nl = Netlist::new();
        let a = bnet(&mut nl, "a");
        let b = bnet(&mut nl, "b");
        let n = nl.add_node(NodeOp::Buf, vec![a], b, None, Span::dummy());
        let d = nl.drivers_by_net();
        assert_eq!(d[b.index()], vec![n]);
        assert!(d[a.index()].is_empty());
        let r = nl.readers_by_net();
        assert_eq!(r[a.index()], vec![n]);
    }
}

/// Renders the semantics graph in Graphviz dot format: one box per node,
/// edges along nets, registers drawn double-edged (they break cycles).
/// Useful for inspecting small designs (`zeusc graph ...`).
pub fn to_dot(nl: &Netlist) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("digraph zeus {\n  rankdir=LR;\n  node [fontname=monospace];\n");
    for (i, node) in nl.nodes.iter().enumerate() {
        let label = match &node.op {
            NodeOp::Const(v) => format!("const {v}"),
            NodeOp::Equal { width } => format!("EQUAL[{width}]"),
            other => format!("{other:?}"),
        };
        let shape = if node.op.is_sequential() {
            "doubleoctagon"
        } else if matches!(node.op, NodeOp::If) {
            "diamond"
        } else {
            "box"
        };
        let _ = writeln!(out, "  g{i} [label=\"{label}\", shape={shape}];");
    }
    // Net ownership: drivers -> readers, labeled with the net name.
    let drivers = nl.drivers_by_net();
    for (bi, node) in nl.nodes.iter().enumerate() {
        for inp in &node.inputs {
            for a in &drivers[inp.index()] {
                let name = &nl.nets[inp.index()].name;
                let _ = writeln!(
                    out,
                    "  g{} -> g{bi} [label=\"{}\"];",
                    a.index(),
                    name.replace('"', "'")
                );
            }
        }
        // Nets with no driving node are sources (primary inputs).
        if drivers[node.output.index()].len() == 1 && node.inputs.is_empty() {
            continue;
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let mut nl = Netlist::new();
        let a = nl.add_net(zeus_sema::rules::BasicKind::Boolean, "a", Span::dummy());
        let b = nl.add_net(zeus_sema::rules::BasicKind::Boolean, "b", Span::dummy());
        let c = nl.add_net(zeus_sema::rules::BasicKind::Boolean, "c", Span::dummy());
        nl.add_node(NodeOp::Not, vec![a], b, None, Span::dummy());
        nl.add_node(NodeOp::Reg, vec![b], c, None, Span::dummy());
        let dot = to_dot(&nl);
        assert!(dot.starts_with("digraph zeus {"));
        assert!(dot.contains("Not"));
        assert!(dot.contains("doubleoctagon"), "registers stand out");
        assert!(dot.contains("g0 -> g1"));
        assert!(dot.ends_with("}\n"));
    }
}
