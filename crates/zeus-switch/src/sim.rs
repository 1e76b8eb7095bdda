//! Switch-level simulation by relaxation (after Bryant, 1981).
//!
//! Node values are computed from supply reachability through conducting
//! transistors: a node definitely connected to VDD and not possibly to
//! GND is 1 (and symmetrically); a node possibly connected to both is X;
//! an isolated node retains its charge. Because transistor gates are
//! themselves nodes, the computation iterates to a fixpoint.
//!
//! Registers sit at the behavioral boundary (see `DESIGN.md`): their
//! stored value is presented as a forced node each cycle and re-latched
//! after the network settles.

use crate::network::{Conduction, TransKind, SV};
use crate::synth::{synthesize, Synth};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use zeus_elab::{find_port, Design, Fault, FaultKind, Limits, NetId, Port, StepBudget};
use zeus_sema::Value;
use zeus_syntax::diag::{codes, Diagnostic};
use zeus_syntax::span::Span;

/// A switch-level simulator for an elaborated Zeus design.
#[derive(Debug, Clone)]
pub struct SwitchSim {
    synth: Synth,
    rset: Option<crate::network::SNode>,
    /// The design's ports, and the switch nodes of each port's bits.
    ports: Vec<Port>,
    port_nodes: Vec<Vec<crate::network::SNode>>,
    state: Vec<SV>,
    forced: HashMap<crate::network::SNode, SV>,
    reg_state: Vec<SV>,
    /// Adjacency: per node, (transistor index) list.
    adj: Vec<Vec<u32>>,
    cycle: u64,
    rng: StdRng,
    /// Relaxation iterations used in the last cycle.
    pub iterations_last_cycle: u32,
    /// Power-to-ground shorts observed in the last cycle (the hazard
    /// Zeus's type rules are designed to prevent).
    pub shorts_last_cycle: u32,
    /// True when the last cycle hit the relaxation cap without converging
    /// (non-forced nodes were X-filled). [`SwitchSim::try_step`] turns
    /// this into a `Z310` diagnostic.
    pub oscillated_last_cycle: bool,
    relax_cap: Option<u32>,
    budget: StepBudget,
    faults: Vec<Fault>,
    /// Fault clamps merged into every cycle's forced map (stuck-at sites
    /// and the always-high gates of bridge transistors).
    fault_stuck: HashMap<crate::network::SNode, SV>,
    /// `(node, cycle)` single-event upsets applied after relaxation.
    fault_flips: Vec<(crate::network::SNode, u64)>,
    /// Network size at construction, for [`SwitchSim::clear_faults`].
    base_nodes: usize,
    base_trans: usize,
}

impl SwitchSim {
    /// Synthesizes and wraps a design.
    pub fn new(design: &Design) -> SwitchSim {
        SwitchSim::with_limits(design, &Limits::default())
    }

    /// Like [`SwitchSim::new`], but with an explicit resource budget.
    ///
    /// `limits.relax_iter_cap` overrides the default per-cycle relaxation
    /// cap of `2 * nodes + 16` sweeps; the step/fuel/deadline budgets are
    /// consumed by [`SwitchSim::try_step`].
    pub fn with_limits(design: &Design, limits: &Limits) -> SwitchSim {
        let synth = synthesize(design);
        let port_nodes = design
            .ports
            .iter()
            .map(|p| {
                p.nets
                    .iter()
                    .map(|n| synth.net_map[&design.netlist.find_ref(*n)])
                    .collect()
            })
            .collect();
        let n = synth.network.node_count();
        let base_trans = synth.network.transistor_count();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, t) in synth.network.transistors().iter().enumerate() {
            adj[t.a.index()].push(i as u32);
            adj[t.b.index()].push(i as u32);
        }
        let regs = synth.regs.len();
        let rset = design
            .rset
            .map(|n| synth.net_map[&design.netlist.find_ref(n)]);
        SwitchSim {
            synth,
            rset,
            ports: design.ports.clone(),
            port_nodes,
            state: vec![SV::X; n],
            forced: HashMap::new(),
            reg_state: vec![SV::X; regs],
            adj,
            cycle: 0,
            rng: StdRng::seed_from_u64(0x2E05_1983),
            iterations_last_cycle: 0,
            shorts_last_cycle: 0,
            oscillated_last_cycle: false,
            relax_cap: limits.relax_iter_cap,
            budget: StepBudget::new(limits),
            faults: Vec::new(),
            fault_stuck: HashMap::new(),
            fault_flips: Vec::new(),
            base_nodes: n,
            base_trans,
        }
    }

    /// Reseeds the RANDOM-node generator (for reproducible campaigns).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// The switch-level node synthesized for a (canonical) elaborated
    /// net, if the net survived synthesis.
    pub fn node_for_net(&self, net: NetId) -> Option<crate::network::SNode> {
        self.synth.net_map.get(&net).copied()
    }

    /// Injects a fault, mapped onto the switch-level network: stuck-at
    /// faults become permanently forced nodes, a bridge becomes an
    /// appended always-conducting N-transistor between the two nets, and
    /// a transient flip inverts the settled node value in its one cycle.
    /// An oscillation provoked by a fault is reported through
    /// [`SwitchSim::try_step`]'s `Z310` (the campaign layer maps that to
    /// Hyperactive) — never a panic.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the site (or bridge peer) has no
    /// switch-level node — sites must be canonical net ids.
    pub fn inject(&mut self, fault: Fault) -> Result<(), Diagnostic> {
        let err = |n: NetId| {
            Diagnostic::error(
                Span::dummy(),
                format!("fault site {n} has no switch-level node (not a canonical net?)"),
            )
        };
        let site = self
            .node_for_net(fault.site)
            .ok_or_else(|| err(fault.site))?;
        match fault.kind {
            FaultKind::StuckAt0 => {
                self.fault_stuck.insert(site, SV::Zero);
            }
            FaultKind::StuckAt1 => {
                self.fault_stuck.insert(site, SV::One);
            }
            FaultKind::TransientFlip { cycle } => {
                self.fault_flips.push((site, cycle));
            }
            FaultKind::BridgeWith(other) => {
                let peer = self.node_for_net(other).ok_or_else(|| err(other))?;
                if peer != site {
                    let gate = self
                        .synth
                        .network
                        .add_node(format!("FAULT#{}.bridge-gate", self.faults.len()));
                    self.state.push(SV::One);
                    self.adj.push(Vec::new());
                    let ti = self.synth.network.transistor_count() as u32;
                    self.synth
                        .network
                        .add_transistor(TransKind::N, gate, site, peer);
                    self.adj[site.index()].push(ti);
                    self.adj[peer.index()].push(ti);
                    self.fault_stuck.insert(gate, SV::One);
                }
            }
        }
        self.faults.push(fault);
        Ok(())
    }

    /// Removes all injected faults, restoring the network to its
    /// synthesized shape (bridge transistors and their gate nodes are
    /// dropped).
    pub fn clear_faults(&mut self) {
        self.faults.clear();
        self.fault_stuck.clear();
        self.fault_flips.clear();
        self.synth.network.truncate_transistors(self.base_trans);
        self.synth.network.truncate_nodes(self.base_nodes);
        self.state.truncate(self.base_nodes);
        self.adj.truncate(self.base_nodes);
        for list in &mut self.adj {
            list.retain(|&ti| (ti as usize) < self.base_trans);
        }
    }

    /// The currently injected faults, in injection order.
    pub fn injected_faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of transistors in the synthesized network.
    pub fn transistor_count(&self) -> usize {
        self.synth.network.transistor_count()
    }

    /// Number of switch-level nodes.
    pub fn node_count(&self) -> usize {
        self.synth.network.node_count()
    }

    /// Forces a whole port.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for unknown ports or width mismatches.
    pub fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic> {
        let (i, port) = find_port(&self.ports, name)?;
        port.check_width(bits.len())?;
        for (&node, &v) in self.port_nodes[i].iter().zip(bits) {
            self.forced.insert(node, SV::from_value(v));
        }
        Ok(())
    }

    /// Forces a port from a number, LSB-first.
    ///
    /// # Errors
    ///
    /// See [`SwitchSim::set_port`]; also errors when the value does not
    /// fit.
    pub fn set_port_num(&mut self, name: &str, v: u64) -> Result<(), Diagnostic> {
        let bits = find_port(&self.ports, name)?.1.encode(v)?;
        self.set_port(name, &bits)
    }

    /// Drives the predefined RSET signal (when the design uses it).
    pub fn set_rset(&mut self, v: bool) {
        if let Some(r) = self.rset {
            self.forced.insert(r, SV::from_value(Value::from_bool(v)));
        }
    }

    /// Reads a port as Zeus values.
    pub fn port(&self, name: &str) -> Vec<Value> {
        match find_port(&self.ports, name) {
            Ok((i, _)) => self.port_nodes[i]
                .iter()
                .map(|n| self.state[n.index()].to_value())
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Reads a port as a number; `None` when any bit is X.
    pub fn port_num(&self, name: &str) -> Option<i64> {
        let bits = self.port(name);
        if bits.is_empty() {
            None
        } else {
            zeus_sema::num(&bits)
        }
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Simulates one clock cycle: forces sources, relaxes the network to
    /// a fixpoint, then latches the registers.
    pub fn step(&mut self) {
        // Sources for this cycle.
        let mut forced = self.forced.clone();
        if let Some(v) = self.synth.network.vdd_node() {
            forced.insert(v, SV::One);
        }
        if let Some(g) = self.synth.network.gnd_node() {
            forced.insert(g, SV::Zero);
        }
        for &(node, v) in &self.synth.consts {
            forced.insert(node, SV::from_value(v));
        }
        for i in 0..self.synth.randoms.len() {
            let v = SV::from_value(Value::from_bool(self.rng.gen()));
            forced.insert(self.synth.randoms[i], v);
        }
        for (i, &(_, out)) in self.synth.regs.iter().enumerate() {
            forced.insert(out, self.reg_state[i]);
        }
        // Fault clamps last: a physical defect overrides any testbench
        // or internal drive of the same node.
        for (&node, &v) in &self.fault_stuck {
            forced.insert(node, v);
        }
        for (&node, &v) in &forced {
            self.state[node.index()] = v;
        }

        // Relax to a fixpoint.
        let n = self.synth.network.node_count();
        let limit = self.relax_cap.unwrap_or((2 * n + 16) as u32);
        let mut iters = 0u32;
        self.shorts_last_cycle = 0;
        self.oscillated_last_cycle = false;
        loop {
            iters += 1;
            let (next, shorts) = self.relax_once(&forced);
            let changed = next != self.state;
            self.state = next;
            if !changed {
                self.shorts_last_cycle = shorts;
                break;
            }
            if iters >= limit {
                // Oscillation: non-converging nodes are unknown.
                self.oscillated_last_cycle = true;
                for (i, v) in self.state.iter_mut().enumerate() {
                    if !forced.contains_key(&crate::network::SNode(i as u32)) {
                        *v = SV::X;
                    }
                }
                break;
            }
        }
        self.iterations_last_cycle = iters;

        // Single-event upsets strike after the network settles (a late
        // glitch): the node's value inverts for this cycle only, and a
        // downstream register latches the corrupted value below.
        for &(node, cycle) in &self.fault_flips {
            if cycle == self.cycle {
                self.state[node.index()] = match self.state[node.index()] {
                    SV::Zero => SV::One,
                    SV::One => SV::Zero,
                    SV::X => SV::X,
                };
            }
        }

        // Latch registers from their data inputs.
        for i in 0..self.synth.regs.len() {
            let (d, _) = self.synth.regs[i];
            self.reg_state[i] = self.state[d.index()];
        }
        self.cycle += 1;
    }

    /// Like [`SwitchSim::step`], but charged against the configured
    /// resource budget, and with non-convergence reported as an error
    /// instead of silent X-filling.
    ///
    /// # Errors
    ///
    /// Returns a `Z908` diagnostic once the step budget is exhausted,
    /// `Z904`/`Z905` when fuel or deadline run out (fuel is charged per
    /// relaxation sweep), or `Z310` when the network oscillated this
    /// cycle (its state is left X-filled, as after [`SwitchSim::step`]).
    pub fn try_step(&mut self) -> Result<(), Diagnostic> {
        self.budget.begin_cycle()?;
        self.step();
        self.budget.charge_work(self.iterations_last_cycle as u64)?;
        if self.oscillated_last_cycle {
            return Err(Diagnostic::error(
                Span::dummy(),
                format!(
                    "switch-level relaxation did not converge within {} sweeps \
                     (oscillating network); non-forced nodes were set to X",
                    self.iterations_last_cycle
                ),
            )
            .with_code(codes::OSCILLATION));
        }
        Ok(())
    }

    /// Runs `n` cycles under the resource budget.
    ///
    /// # Errors
    ///
    /// See [`SwitchSim::try_step`].
    pub fn try_run(&mut self, n: usize) -> Result<(), Diagnostic> {
        for _ in 0..n {
            self.try_step()?;
        }
        Ok(())
    }

    /// One relaxation sweep: recomputes every node value from supply /
    /// input reachability under the current gate values.
    fn relax_once(&self, forced: &HashMap<crate::network::SNode, SV>) -> (Vec<SV>, u32) {
        let n = self.synth.network.node_count();
        // Reachability flags: def1, def0, pos1, pos0.
        let mut def1 = vec![false; n];
        let mut def0 = vec![false; n];
        let mut pos1 = vec![false; n];
        let mut pos0 = vec![false; n];

        let conduction: Vec<Conduction> = self
            .synth
            .network
            .transistors()
            .iter()
            .map(|t| t.conduction(self.state[t.gate.index()]))
            .collect();

        let bfs = |flags: &mut Vec<bool>, sources: Vec<usize>, definite: bool| {
            let mut queue = sources;
            for &s in &queue {
                flags[s] = true;
            }
            let mut head = 0;
            // The queue only ever contains sources and non-forced nodes,
            // so forced interior nodes are flagged but never expanded —
            // they clamp the value and do not conduct a foreign level
            // through.
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &ti in &self.adj[u] {
                    let t = &self.synth.network.transistors()[ti as usize];
                    let ok = match conduction[ti as usize] {
                        Conduction::Closed => true,
                        Conduction::Maybe => !definite,
                        Conduction::Open => false,
                    };
                    if !ok {
                        continue;
                    }
                    let v = if t.a.index() == u { t.b } else { t.a };
                    if !flags[v.index()] {
                        flags[v.index()] = true;
                        // Stop at forced nodes: they clamp the value.
                        if !forced.contains_key(&v) {
                            queue.push(v.index());
                        }
                    }
                }
            }
        };

        let src = |want1: bool, include_x: bool| -> Vec<usize> {
            forced
                .iter()
                .filter(|(_, &v)| {
                    (want1 && v == SV::One)
                        || (!want1 && v == SV::Zero)
                        || (include_x && v == SV::X)
                })
                .map(|(n, _)| n.index())
                .collect()
        };

        bfs(&mut def1, src(true, false), true);
        bfs(&mut def0, src(false, false), true);
        bfs(&mut pos1, src(true, true), false);
        bfs(&mut pos0, src(false, true), false);

        let mut shorts = 0u32;
        let mut next = vec![SV::X; n];
        for i in 0..n {
            let node = crate::network::SNode(i as u32);
            if let Some(&v) = forced.get(&node) {
                next[i] = v;
                continue;
            }
            next[i] = if def1[i] && def0[i] {
                shorts += 1;
                SV::X
            } else if def1[i] && !pos0[i] {
                SV::One
            } else if def0[i] && !pos1[i] {
                SV::Zero
            } else if pos1[i] || pos0[i] {
                SV::X
            } else {
                // Isolated: charge retention.
                self.state[i]
            };
        }
        (next, shorts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_elab::elaborate;
    use zeus_sim::Simulator;
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
    fn fulladder_matches_zeus_simulator() {
        let d = design(FULLADDER, "fulladder");
        let mut sw = SwitchSim::new(&d);
        let mut zs = Simulator::new(d).unwrap();
        for a in 0..2u64 {
            for b in 0..2u64 {
                for c in 0..2u64 {
                    sw.set_port_num("a", a).unwrap();
                    sw.set_port_num("b", b).unwrap();
                    sw.set_port_num("cin", c).unwrap();
                    zs.set_port_num("a", a).unwrap();
                    zs.set_port_num("b", b).unwrap();
                    zs.set_port_num("cin", c).unwrap();
                    sw.step();
                    zs.step();
                    assert_eq!(sw.port("s"), zs.port("s"), "a={a} b={b} c={c}");
                    assert_eq!(sw.port("cout"), zs.port("cout"));
                }
            }
        }
    }

    #[test]
    fn inverter_chain_settles() {
        let d = design(
            "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS \
             BEGIN q := NOT NOT NOT a END;",
            "t",
        );
        let mut sw = SwitchSim::new(&d);
        sw.set_port_num("a", 1).unwrap();
        sw.step();
        assert_eq!(sw.port_num("q"), Some(0));
        sw.set_port_num("a", 0).unwrap();
        sw.step();
        assert_eq!(sw.port_num("q"), Some(1));
    }

    #[test]
    fn register_boundary_behaves() {
        let d = design(
            "TYPE t = COMPONENT (IN d: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; BEGIN r(d, q) END;",
            "t",
        );
        let mut sw = SwitchSim::new(&d);
        sw.set_port_num("d", 1).unwrap();
        sw.step();
        sw.set_port_num("d", 0).unwrap();
        sw.step();
        assert_eq!(sw.port_num("q"), Some(1));
        sw.step();
        assert_eq!(sw.port_num("q"), Some(0));
    }

    #[test]
    fn x_inputs_stay_unknown() {
        let d = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT q: boolean) IS \
             BEGIN q := AND(a,b) END;",
            "t",
        );
        let mut sw = SwitchSim::new(&d);
        sw.set_port("a", &[Value::Undef]).unwrap();
        sw.set_port("b", &[Value::One]).unwrap();
        sw.step();
        assert_eq!(sw.port("q"), vec![Value::Undef]);
        // AND dominance also holds at switch level: a=X, b=0 gives 0.
        sw.set_port("b", &[Value::Zero]).unwrap();
        sw.step();
        assert_eq!(sw.port("q"), vec![Value::Zero]);
    }

    #[test]
    fn conflicting_drivers_give_x() {
        // The "burning transistors" circuit: two closed switches driving
        // 1 and 0 onto the same multiplex wire.
        let d = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT q: boolean) IS \
             SIGNAL h: multiplex; \
             BEGIN IF a THEN h := 1 END; IF b THEN h := 0 END; q := h END;",
            "t",
        );
        let mut sw = SwitchSim::new(&d);
        sw.set_port_num("a", 1).unwrap();
        sw.set_port_num("b", 1).unwrap();
        sw.step();
        assert_eq!(sw.port("q"), vec![Value::Undef]);
        sw.set_port_num("b", 0).unwrap();
        sw.step();
        assert_eq!(sw.port("q"), vec![Value::One]);
    }

    #[test]
    fn charge_retention_on_open_switch() {
        let d = design(
            "TYPE t = COMPONENT (IN a,dd: boolean; OUT q: boolean) IS \
             SIGNAL h: multiplex; \
             BEGIN IF a THEN h := dd END; q := h END;",
            "t",
        );
        let mut sw = SwitchSim::new(&d);
        sw.set_port_num("a", 1).unwrap();
        sw.set_port_num("dd", 1).unwrap();
        sw.step();
        assert_eq!(sw.port("q"), vec![Value::One]);
        // Open the switch: the wire keeps its charge at switch level
        // (dynamic storage) — a behavior Zeus abstracts as NOINFL.
        sw.set_port_num("a", 0).unwrap();
        sw.step();
        assert_eq!(sw.port("q"), vec![Value::One]);
    }

    fn canon(d: &Design, name: &str) -> zeus_elab::NetId {
        d.netlist.find_ref(d.names[name])
    }

    #[test]
    fn stuck_at_fault_forces_the_node() {
        let d = design(FULLADDER, "fulladder");
        let mut sw = SwitchSim::new(&d);
        sw.inject(Fault::stuck_at_1(canon(&d, "fulladder.cout")))
            .unwrap();
        sw.set_port_num("a", 0).unwrap();
        sw.set_port_num("b", 0).unwrap();
        sw.set_port_num("cin", 0).unwrap();
        sw.step();
        assert_eq!(sw.port("cout"), vec![Value::One]);
        assert_eq!(sw.port("s"), vec![Value::Zero]);
        sw.clear_faults();
        sw.step();
        assert_eq!(sw.port("cout"), vec![Value::Zero]);
    }

    #[test]
    fn bridge_fault_appends_transistor_and_clears() {
        let d = design(FULLADDER, "fulladder");
        let mut sw = SwitchSim::new(&d);
        let nodes = sw.node_count();
        let trans = sw.transistor_count();
        sw.inject(Fault::bridge(
            canon(&d, "fulladder.s"),
            canon(&d, "fulladder.cout"),
        ))
        .unwrap();
        assert_eq!(sw.node_count(), nodes + 1, "one bridge gate node");
        assert_eq!(sw.transistor_count(), trans + 1);
        // a=1, b=0, cin=0: naturally s=1, cout=0. Bridged, both see
        // 1-and-0 paths and go X.
        sw.set_port_num("a", 1).unwrap();
        sw.set_port_num("b", 0).unwrap();
        sw.set_port_num("cin", 0).unwrap();
        sw.step();
        assert_eq!(sw.port("s"), vec![Value::Undef]);
        assert_eq!(sw.port("cout"), vec![Value::Undef]);
        sw.clear_faults();
        assert_eq!(sw.node_count(), nodes);
        assert_eq!(sw.transistor_count(), trans);
        sw.step();
        assert_eq!(sw.port("s"), vec![Value::One]);
        assert_eq!(sw.port("cout"), vec![Value::Zero]);
    }

    #[test]
    fn transient_flip_upsets_one_cycle() {
        let d = design(
            "TYPE t = COMPONENT (IN d: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; BEGIN r(d, q) END;",
            "t",
        );
        let mut sw = SwitchSim::new(&d);
        // Flip the register's output (== port q) in cycle 1: the upset
        // is a late glitch on the settled value, visible that cycle only.
        sw.inject(Fault::transient_flip(canon(&d, "t.q"), 1))
            .unwrap();
        sw.set_port_num("d", 1).unwrap();
        sw.step(); // cycle 0: latches 1
        sw.step(); // cycle 1: q presents 1, then the SEU inverts it
        assert_eq!(sw.port_num("q"), Some(0));
        sw.step(); // cycle 2: defect gone
        assert_eq!(sw.port_num("q"), Some(1), "defect gone after one cycle");
    }

    #[test]
    fn inject_rejects_unknown_site() {
        let d = design(FULLADDER, "fulladder");
        let mut sw = SwitchSim::new(&d);
        assert!(sw
            .inject(Fault::stuck_at_0(zeus_elab::NetId(60000)))
            .is_err());
        assert!(sw.injected_faults().is_empty());
    }
}
