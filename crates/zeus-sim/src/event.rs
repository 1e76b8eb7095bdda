//! Event-driven (selective-trace) simulation variant.
//!
//! The reference [`crate::Simulator`] sweeps every node each cycle. For
//! designs where little changes between cycles, an event-driven simulator
//! only re-evaluates the fan-out of changed nets. The paper situates Zeus
//! simulation as "a well understood subject" (§9, citing Breuer/Friedman);
//! this module provides the classic selective-trace algorithm so the
//! benchmark harness can compare both (ablation for claim C1 in
//! `DESIGN.md`).
//!
//! Semantics are identical: the same firing rules, resolution and latch
//! behavior; only the evaluation strategy differs. The runtime
//! single-assignment check requires observing *all* contributions of a
//! net, so nets keep per-driver contribution slots here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use zeus_elab::{find_port, Design, Limits, NetId, NodeId, NodeOp, StepBudget};
use zeus_sema::value::{self, Value};
use zeus_syntax::diag::Diagnostic;

use crate::sim::{Conflict, CycleReport};

type EventHeap = std::collections::BinaryHeap<std::cmp::Reverse<(u32, u32)>>;

/// Event-driven simulator with per-cycle selective trace.
#[derive(Debug, Clone)]
pub struct EventSimulator {
    design: Design,
    /// Per net: indices into `contribs` of its drivers.
    net_drivers: Vec<Vec<u32>>,
    /// Per net: consuming node ids.
    readers: Vec<Vec<NodeId>>,
    /// Contribution slot per node (node i drives slot i).
    contribs: Vec<Value>,
    /// Resolved value per net.
    values: Vec<Value>,
    /// Per-node "queued" marker for the current wave.
    queued: Vec<bool>,
    /// Topological rank of each node, for ordered event processing.
    rank: Vec<u32>,
    regs: Vec<(NodeId, Value)>,
    forced: HashMap<NetId, Value>,
    /// Nets whose drivers changed this cycle (candidates for the runtime
    /// single-assignment check, performed after the wave settles).
    dirty: Vec<bool>,
    dirty_list: Vec<NetId>,
    cycle: u64,
    rng: StdRng,
    conflicts_total: u64,
    /// Nodes evaluated in the last cycle (the selective-trace metric).
    pub evals_last_cycle: u64,
    budget: StepBudget,
}

impl EventSimulator {
    /// Builds an event-driven simulator for a finished design.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the netlist has a combinational cycle.
    pub fn new(design: Design) -> Result<EventSimulator, Diagnostic> {
        EventSimulator::with_limits(design, &Limits::default())
    }

    /// Like [`EventSimulator::new`], but with an explicit resource budget.
    ///
    /// The budget is consumed by [`EventSimulator::try_step`] and
    /// [`EventSimulator::try_run`]; the infallible [`EventSimulator::step`]
    /// ignores it.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the netlist has a combinational cycle.
    pub fn with_limits(design: Design, limits: &Limits) -> Result<EventSimulator, Diagnostic> {
        let order = design.netlist.topo_order()?;
        let mut rank = vec![0u32; design.netlist.node_count()];
        for (i, n) in order.iter().enumerate() {
            rank[n.index()] = i as u32;
        }
        let nets = design.netlist.net_count();
        let nodes = design.netlist.node_count();
        let mut net_drivers: Vec<Vec<u32>> = vec![Vec::new(); nets];
        let mut readers: Vec<Vec<NodeId>> = vec![Vec::new(); nets];
        for (i, node) in design.netlist.nodes.iter().enumerate() {
            net_drivers[node.output.index()].push(i as u32);
            if node.op != NodeOp::Reg {
                for inp in &node.inputs {
                    readers[inp.index()].push(NodeId(i as u32));
                }
            }
        }
        let regs = design
            .netlist
            .registers()
            .map(|id| (id, Value::Undef))
            .collect();
        let mut sim = EventSimulator {
            design,
            net_drivers,
            readers,
            contribs: vec![Value::NoInfl; nodes],
            values: vec![Value::NoInfl; nets],
            queued: vec![false; nodes],
            dirty: vec![false; nets],
            dirty_list: Vec::new(),
            rank,
            regs,
            forced: HashMap::new(),
            cycle: 0,
            rng: StdRng::seed_from_u64(0x2E05_1983),
            conflicts_total: 0,
            evals_last_cycle: 0,
            budget: StepBudget::new(limits),
        };
        if let Some(clk) = sim.design.clk {
            sim.forced.insert(clk, Value::One);
        }
        if let Some(rset) = sim.design.rset {
            sim.forced.insert(rset, Value::Zero);
        }
        Ok(sim)
    }

    /// The design under simulation.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Forces a net (holds until changed).
    pub fn force(&mut self, net: NetId, v: Value) {
        self.forced.insert(net, v);
    }

    /// Sets a whole port, like [`crate::Simulator::set_port`].
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the port is unknown or widths mismatch.
    pub fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic> {
        let (_, port) = find_port(&self.design.ports, name)?;
        port.check_width(bits.len())?;
        for (&net, &v) in port.nets.iter().zip(bits) {
            self.forced.insert(net, v);
        }
        Ok(())
    }

    /// Sets a port from a number (LSB-first).
    ///
    /// # Errors
    ///
    /// See [`EventSimulator::set_port`]; also errors when the value does
    /// not fit.
    pub fn set_port_num(&mut self, name: &str, v: u64) -> Result<(), Diagnostic> {
        let bits = find_port(&self.design.ports, name)?.1.encode(v)?;
        self.set_port(name, &bits)
    }

    /// Drives RSET.
    pub fn set_rset(&mut self, v: bool) {
        if let Some(r) = self.design.rset {
            self.forced.insert(r, Value::from_bool(v));
        }
    }

    /// Reads a port (boolean view).
    pub fn port(&self, name: &str) -> Vec<Value> {
        match self.design.port(name) {
            Some(p) => p
                .nets
                .iter()
                .map(|&n| {
                    let rep = self.design.netlist.find_ref(n);
                    self.values[rep.index()].to_boolean()
                })
                .collect(),
            None => Vec::new(),
        }
    }

    /// Reads a port as a number.
    pub fn port_num(&self, name: &str) -> Option<i64> {
        let bits = self.port(name);
        if bits.is_empty() {
            None
        } else {
            zeus_sema::num(&bits)
        }
    }

    /// Total conflicts so far.
    pub fn conflicts_total(&self) -> u64 {
        self.conflicts_total
    }

    fn resolve_net(&self, net: usize, forced: Option<Value>) -> (Value, u32) {
        let mut res = value::Resolution::empty();
        if let Some(v) = forced {
            res = res.drive(v);
        }
        for &d in &self.net_drivers[net] {
            res = res.drive(self.contribs[d as usize]);
        }
        (res.value, res.active)
    }

    fn touch_net(&mut self, heap: &mut EventHeap, net: NetId) {
        let i = net.index();
        let forced = self.forced.get(&net).copied();
        let (v, _active) = self.resolve_net(i, forced);
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.dirty_list.push(net);
        }
        if self.values[i] != v {
            self.values[i] = v;
            for k in 0..self.readers[i].len() {
                let r = self.readers[i][k];
                if !self.queued[r.index()] {
                    self.queued[r.index()] = true;
                    heap.push(std::cmp::Reverse((self.rank[r.index()], r.0)));
                }
            }
        }
    }

    /// Simulates one clock cycle with selective trace: only nodes in the
    /// fan-out of changed nets re-evaluate.
    pub fn step(&mut self) -> CycleReport {
        self.evals_last_cycle = 0;
        // Seed changes: forced nets and register outputs.
        let mut heap: EventHeap = std::collections::BinaryHeap::new();

        // Register outputs become their stored values.
        for i in 0..self.regs.len() {
            let (node, v) = self.regs[i];
            let out = self.design.netlist.nodes[node.index()].output;
            self.contribs[node.index()] = v;
            self.touch_net(&mut heap, out);
        }
        // Forced nets.
        let forced_nets: Vec<NetId> = self.forced.keys().copied().collect();
        for net in forced_nets {
            self.touch_net(&mut heap, net);
        }
        // Constants and RANDOM sources fire every cycle.
        for i in 0..self.design.netlist.node_count() {
            match self.design.netlist.nodes[i].op {
                NodeOp::Const(v) if self.contribs[i] != v => {
                    self.contribs[i] = v;
                    let out = self.design.netlist.nodes[i].output;
                    self.touch_net(&mut heap, out);
                }
                NodeOp::Random => {
                    let v = Value::from_bool(self.rng.gen());
                    self.contribs[i] = v;
                    let out = self.design.netlist.nodes[i].output;
                    self.touch_net(&mut heap, out);
                }
                _ => {}
            }
        }

        // Selective trace in rank order.
        while let Some(std::cmp::Reverse((_, id))) = heap.pop() {
            let node_id = NodeId(id);
            self.queued[node_id.index()] = false;
            self.evals_last_cycle += 1;
            let node = &self.design.netlist.nodes[node_id.index()];
            let v = match &node.op {
                NodeOp::And => value::and(node.inputs.iter().map(|&n| self.values[n.index()])),
                NodeOp::Or => value::or(node.inputs.iter().map(|&n| self.values[n.index()])),
                NodeOp::Nand => value::nand(node.inputs.iter().map(|&n| self.values[n.index()])),
                NodeOp::Nor => value::nor(node.inputs.iter().map(|&n| self.values[n.index()])),
                NodeOp::Xor => value::xor(node.inputs.iter().map(|&n| self.values[n.index()])),
                NodeOp::Not => self.values[node.inputs[0].index()].not(),
                NodeOp::Equal { width } => {
                    let (a, b) = node.inputs.split_at(*width);
                    let av: Vec<Value> = a.iter().map(|&n| self.values[n.index()]).collect();
                    let bv: Vec<Value> = b.iter().map(|&n| self.values[n.index()]).collect();
                    value::equal(&av, &bv)
                }
                NodeOp::Buf => self.values[node.inputs[0].index()],
                NodeOp::If => match self.values[node.inputs[0].index()] {
                    Value::Zero => Value::NoInfl,
                    Value::One => self.values[node.inputs[1].index()],
                    _ => Value::Undef,
                },
                NodeOp::Const(_) | NodeOp::Random | NodeOp::Reg => continue,
            };
            let out = node.output;
            if self.contribs[node_id.index()] != v {
                self.contribs[node_id.index()] = v;
                self.touch_net(&mut heap, out);
            }
        }

        // Latch registers.
        for i in 0..self.regs.len() {
            let (node, _) = self.regs[i];
            let inp = self.design.netlist.nodes[node.index()].inputs[0];
            let v = self.values[inp.index()];
            if v != Value::NoInfl {
                self.regs[i].1 = v;
            }
        }

        // Runtime single-assignment check on the nets whose drivers
        // changed, after the wave has settled (transient states during
        // propagation are not violations). This is edge-triggered: a
        // conflict is reported in the cycle it arises.
        let mut conflicts = Vec::new();
        let dirty = std::mem::take(&mut self.dirty_list);
        for net in dirty {
            self.dirty[net.index()] = false;
            let forced = self.forced.get(&net).copied();
            let (_, active) = self.resolve_net(net.index(), forced);
            if active > 1 {
                conflicts.push(Conflict {
                    cycle: self.cycle,
                    net,
                    name: self.design.netlist.nets[net.index()].name.clone(),
                    active,
                });
            }
        }
        self.conflicts_total += conflicts.len() as u64;
        let report = CycleReport {
            cycle: self.cycle,
            conflicts,
        };
        self.cycle += 1;
        report
    }

    /// Like [`EventSimulator::step`], but charged against the configured
    /// resource budget.
    ///
    /// # Errors
    ///
    /// Returns a `Z908` diagnostic once the step budget is exhausted, `Z904`
    /// when the fuel budget runs out (fuel is charged per node evaluation,
    /// so a busy design burns fuel faster than an idle one), or `Z905` past
    /// the deadline.
    pub fn try_step(&mut self) -> Result<CycleReport, Diagnostic> {
        self.budget.begin_cycle()?;
        let report = self.step();
        self.budget.charge_work(self.evals_last_cycle)?;
        Ok(report)
    }

    /// Runs `n` cycles under the resource budget.
    ///
    /// # Errors
    ///
    /// See [`EventSimulator::try_step`].
    pub fn try_run(&mut self, n: usize) -> Result<CycleReport, Diagnostic> {
        let mut last = CycleReport::default();
        for _ in 0..n {
            last = self.try_step()?;
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        let p = parse_program(src).expect("parse");
        elaborate(&p, top, &[]).expect("elaborate")
    }

    const FULLADDER: &str = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := XOR(a,b); cout := AND(a,b) END; \
         fulladder = COMPONENT (IN a,b,cin: boolean; OUT cout,s: boolean) IS \
         SIGNAL h1,h2:halfadder; \
         BEGIN h1(a,b,*,h2.a); h2(h1.s,cin,*,s); cout := OR(h1.cout,h2.cout) END;";

    #[test]
    fn matches_levelized_simulator_exhaustively() {
        let d = design(FULLADDER, "fulladder");
        let mut ev = EventSimulator::new(d.clone()).unwrap();
        let mut lv = Simulator::new(d).unwrap();
        for a in 0..2u64 {
            for b in 0..2u64 {
                for c in 0..2u64 {
                    ev.set_port_num("a", a).unwrap();
                    ev.set_port_num("b", b).unwrap();
                    ev.set_port_num("cin", c).unwrap();
                    lv.set_port_num("a", a).unwrap();
                    lv.set_port_num("b", b).unwrap();
                    lv.set_port_num("cin", c).unwrap();
                    ev.step();
                    lv.step();
                    assert_eq!(ev.port("s"), lv.port("s"), "a={a} b={b} c={c}");
                    assert_eq!(ev.port("cout"), lv.port("cout"));
                }
            }
        }
    }

    #[test]
    fn selective_trace_saves_evaluations() {
        let d = design(FULLADDER, "fulladder");
        let mut ev = EventSimulator::new(d).unwrap();
        ev.set_port_num("a", 1).unwrap();
        ev.set_port_num("b", 1).unwrap();
        ev.set_port_num("cin", 0).unwrap();
        ev.step();
        let first = ev.evals_last_cycle;
        // No input change: nothing should re-evaluate.
        ev.step();
        assert_eq!(ev.evals_last_cycle, 0, "quiescent cycle must be free");
        assert!(first > 0);
    }

    #[test]
    fn registers_and_conflicts_match_reference() {
        let src = "TYPE t = COMPONENT (IN a,b: boolean; OUT q: boolean) IS \
             SIGNAL h: multiplex; r: REG; \
             BEGIN IF a THEN h := 1 END; IF b THEN h := 0 END; \
             r(h, q) END;";
        let d = design(src, "t");
        let mut ev = EventSimulator::new(d.clone()).unwrap();
        let mut lv = Simulator::new(d).unwrap();
        for (a, b) in [(1u64, 0u64), (0, 1), (1, 1), (0, 0), (1, 0)] {
            ev.set_port_num("a", a).unwrap();
            ev.set_port_num("b", b).unwrap();
            lv.set_port_num("a", a).unwrap();
            lv.set_port_num("b", b).unwrap();
            let re = ev.step();
            let rl = lv.step();
            assert_eq!(re.conflicts.len(), rl.conflicts.len(), "a={a} b={b}");
            assert_eq!(ev.port("q"), lv.port("q"));
        }
        assert_eq!(ev.conflicts_total(), lv.conflicts_total());
    }
}
