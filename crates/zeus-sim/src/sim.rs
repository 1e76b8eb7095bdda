//! The Zeus simulator (§8).
//!
//! The semantics of Zeus are defined by a simulator over the semantics
//! graph: signal values propagate by firing rules over the four-valued
//! domain; registers latch at the end of each clock cycle; and at runtime
//! "at most one (0,1,UNDEF)-assignment" may be active per signal — the
//! check that "safeguards against burning transistors".
//!
//! This implementation evaluates the combinational nodes once per cycle
//! in a topological order (computed once), which realizes the firing
//! rules deterministically: "there are many ways of propagating the
//! signals sequentially; however all will lead to the same result".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use zeus_elab::{find_port, Design, Fault, FaultKind, Governor, Limits, NetId, NodeId, NodeOp};
use zeus_sema::value::{self, Value};
use zeus_syntax::diag::{codes, Diagnostic};
use zeus_syntax::span::Span;

/// Shared budget bookkeeping for the budgeted (`try_*`) stepping APIs of
/// both simulators: a step counter against `Limits::max_steps` plus the
/// fuel/deadline governor.
#[derive(Debug, Clone)]
pub(crate) struct StepBudget {
    max_steps: Option<u64>,
    steps: u64,
    gov: Governor,
}

impl StepBudget {
    pub(crate) fn new(limits: &Limits) -> StepBudget {
        StepBudget {
            max_steps: limits.max_steps,
            steps: 0,
            gov: limits.governor(),
        }
    }

    /// Pre-cycle check: step budget and deadline.
    pub(crate) fn begin_cycle(&mut self) -> Result<(), Diagnostic> {
        if let Some(max) = self.max_steps {
            if self.steps >= max {
                return Err(Diagnostic::error(
                    Span::dummy(),
                    format!(
                        "simulation step budget exhausted (limit {max} cycles); raise \
                         the step limit to continue"
                    ),
                )
                .with_code(codes::LIMIT_STEPS));
            }
        }
        self.steps += 1;
        self.gov.check_deadline(Span::dummy())
    }

    /// Post-cycle accounting: one fuel unit per node evaluation.
    pub(crate) fn charge_work(&mut self, evals: u64) -> Result<(), Diagnostic> {
        self.gov.charge(evals + 1, Span::dummy())
    }
}

/// A runtime violation of the single-active-assignment rule (§8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The clock cycle in which the conflict occurred.
    pub cycle: u64,
    /// The conflicting net.
    pub net: NetId,
    /// Its hierarchical name.
    pub name: String,
    /// How many active assignments were simultaneously live.
    pub active: u32,
}

/// Result of simulating one clock cycle.
#[derive(Debug, Clone, Default)]
pub struct CycleReport {
    /// The cycle number just completed (starting at 0).
    pub cycle: u64,
    /// Runtime single-assignment violations detected this cycle.
    pub conflicts: Vec<Conflict>,
}

impl CycleReport {
    /// True when no runtime check fired.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// The reference Zeus simulator: full levelized evaluation per cycle.
#[derive(Debug, Clone)]
pub struct Simulator {
    design: Design,
    order: Vec<NodeId>,
    /// Resolved value per net this cycle.
    values: Vec<Value>,
    /// Active-driver count per net (saturates at 2).
    active: Vec<u8>,
    /// Stored value per register node (dense, indexed by position in
    /// `regs`).
    regs: Vec<(NodeId, Value)>,
    /// Externally forced nets (primary inputs, CLK, RSET).
    forced: HashMap<NetId, Value>,
    cycle: u64,
    rng: StdRng,
    check_conflicts: bool,
    conflicts_total: u64,
    budget: StepBudget,
    /// Injected faults (canonicalized), in injection order.
    faults: Vec<Fault>,
    /// Stuck-at clamp per net index.
    stuck: HashMap<usize, Value>,
    /// Transient-flip cycle per net index.
    flips: HashMap<usize, u64>,
    /// Injected bridges as canonical net-index pairs.
    bridges: Vec<(usize, usize)>,
    /// Resolved bridge value per bridged net index (this cycle).
    bridge_clamp: HashMap<usize, Value>,
    /// Natural (pre-clamp) value per bridged net index (this cycle).
    bridge_natural: HashMap<usize, Value>,
    /// Evaluation sweeps used by the last cycle (1 unless bridges forced
    /// a fixpoint iteration).
    sweeps_last_cycle: u32,
    /// True when the last cycle's bridge resolution failed to converge.
    fault_unstable: bool,
    /// First cycle in which bridge resolution failed to converge.
    first_unstable_cycle: Option<u64>,
}

impl Simulator {
    /// Builds a simulator for a finished design with unlimited budgets.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the design's netlist has a combinational
    /// cycle (cannot happen for designs produced by `zeus-elab`).
    pub fn new(design: Design) -> Result<Simulator, Diagnostic> {
        Simulator::with_limits(design, &Limits::default())
    }

    /// [`Simulator::new`] with explicit resource limits; the budgets are
    /// enforced by [`Simulator::try_step`] / [`Simulator::try_run`].
    ///
    /// # Errors
    ///
    /// See [`Simulator::new`].
    pub fn with_limits(design: Design, limits: &Limits) -> Result<Simulator, Diagnostic> {
        let order = design.netlist.topo_order()?;
        let regs = design
            .netlist
            .registers()
            .map(|id| (id, Value::Undef))
            .collect();
        let n = design.netlist.net_count();
        let mut sim = Simulator {
            design,
            order,
            values: vec![Value::NoInfl; n],
            active: vec![0; n],
            regs,
            forced: HashMap::new(),
            cycle: 0,
            rng: StdRng::seed_from_u64(0x2E05_1983),
            check_conflicts: true,
            conflicts_total: 0,
            budget: StepBudget::new(limits),
            faults: Vec::new(),
            stuck: HashMap::new(),
            flips: HashMap::new(),
            bridges: Vec::new(),
            bridge_clamp: HashMap::new(),
            bridge_natural: HashMap::new(),
            sweeps_last_cycle: 1,
            fault_unstable: false,
            first_unstable_cycle: None,
        };
        // The clock reads 1 and reset 0 unless the testbench drives them.
        if let Some(clk) = sim.design.clk {
            sim.forced.insert(clk, Value::One);
        }
        if let Some(rset) = sim.design.rset {
            sim.forced.insert(rset, Value::Zero);
        }
        Ok(sim)
    }

    /// The elaborated design being simulated.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Reseeds the RANDOM source (deterministic by default).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Enables or disables the runtime single-assignment check — the
    /// paper argues the check is needed because the static question is
    /// NP-complete (§4.7); disabling it is only for measuring its cost.
    pub fn set_conflict_checking(&mut self, on: bool) {
        self.check_conflicts = on;
    }

    /// Forces a net to a value (holds until changed).
    pub fn force(&mut self, net: NetId, v: Value) {
        self.forced.insert(net, v);
    }

    /// Stops forcing a net.
    pub fn release(&mut self, net: NetId) {
        self.forced.remove(&net);
    }

    /// The nets currently forced (testbench drives, CLK, RSET), sorted by
    /// id so callers — the fault engine in particular — can enumerate and
    /// restore them deterministically.
    pub fn forced_nets(&self) -> Vec<NetId> {
        let mut nets: Vec<NetId> = self.forced.keys().copied().collect();
        nets.sort();
        nets
    }

    /// Injects a physical fault (see [`Fault`]). The site (and bridge
    /// peer) may be any alias of the net; it is canonicalized here.
    ///
    /// Unlike [`Simulator::force`], an injected fault *clamps* the net: it
    /// overrides whatever the design drives without counting as an extra
    /// active driver, and it survives [`Simulator::reset_state`] — a
    /// defect does not heal when the circuit is reset.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the site (or bridge peer) is not a net of
    /// this design.
    pub fn inject(&mut self, fault: Fault) -> Result<(), Diagnostic> {
        let n = self.design.netlist.net_count();
        let canon = |net: NetId| -> Result<NetId, Diagnostic> {
            if net.index() >= n {
                return Err(Diagnostic::error(
                    Span::dummy(),
                    format!("fault site {net} is not a net of this design ({n} nets)"),
                ));
            }
            Ok(self.design.netlist.find_ref(net))
        };
        let site = canon(fault.site)?;
        let kind = match fault.kind {
            FaultKind::BridgeWith(other) => FaultKind::BridgeWith(canon(other)?),
            k => k,
        };
        match kind {
            FaultKind::StuckAt0 => {
                self.stuck.insert(site.index(), Value::Zero);
            }
            FaultKind::StuckAt1 => {
                self.stuck.insert(site.index(), Value::One);
            }
            FaultKind::TransientFlip { cycle } => {
                self.flips.insert(site.index(), cycle);
            }
            FaultKind::BridgeWith(other) => {
                if other != site {
                    self.bridges.push((site.index(), other.index()));
                    self.bridge_natural.insert(site.index(), Value::NoInfl);
                    self.bridge_natural.insert(other.index(), Value::NoInfl);
                }
            }
        }
        self.faults.push(Fault { site, kind });
        Ok(())
    }

    /// Removes all injected faults (the repaired-circuit view).
    pub fn clear_faults(&mut self) {
        self.faults.clear();
        self.stuck.clear();
        self.flips.clear();
        self.bridges.clear();
        self.bridge_clamp.clear();
        self.bridge_natural.clear();
        self.fault_unstable = false;
        self.first_unstable_cycle = None;
    }

    /// The currently injected faults (canonicalized), in injection order.
    pub fn injected_faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the last cycle's bridge-fault resolution oscillated
    /// instead of converging (the affected nets were left UNDEF). The
    /// fault engine classifies such faults as Hyperactive.
    pub fn fault_unstable_last_cycle(&self) -> bool {
        self.fault_unstable
    }

    /// The first cycle in which an injected bridge failed to settle, if
    /// any did since construction or [`Simulator::reset_state`].
    pub fn first_unstable_cycle(&self) -> Option<u64> {
        self.first_unstable_cycle
    }

    /// How many full evaluation sweeps the last cycle needed (1 unless
    /// injected bridges forced fixpoint re-sweeps). This is the number
    /// [`Simulator::try_step`] bills fuel by; the packed engine exposes
    /// its per-lane counterpart for equivalence checks.
    pub fn sweeps_last_cycle(&self) -> u32 {
        self.sweeps_last_cycle
    }

    /// Drives the predefined RSET signal.
    pub fn set_rset(&mut self, v: bool) {
        if let Some(r) = self.design.rset {
            self.forced.insert(r, Value::from_bool(v));
        }
    }

    /// Drives the predefined CLK signal's sampled value.
    pub fn set_clk(&mut self, v: bool) {
        if let Some(c) = self.design.clk {
            self.forced.insert(c, Value::from_bool(v));
        }
    }

    /// Sets a whole port (bit 1 first — LSB-first for numeric ports).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the port does not exist or the width does
    /// not match.
    pub fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic> {
        let (_, port) = find_port(&self.design.ports, name)?;
        port.check_width(bits.len())?;
        for (&net, &v) in port.nets.iter().zip(bits) {
            self.forced.insert(net, v);
        }
        Ok(())
    }

    /// Sets a single-bit port.
    ///
    /// # Errors
    ///
    /// See [`Simulator::set_port`].
    pub fn set_port_bit(&mut self, name: &str, v: Value) -> Result<(), Diagnostic> {
        self.set_port(name, &[v])
    }

    /// Sets a port from an unsigned number (LSB at bit 1, like `BIN`).
    ///
    /// # Errors
    ///
    /// See [`Simulator::set_port`]; also errors when the value does not
    /// fit.
    pub fn set_port_num(&mut self, name: &str, v: u64) -> Result<(), Diagnostic> {
        let bits = find_port(&self.design.ports, name)?.1.encode(v)?;
        self.set_port(name, &bits)
    }

    /// Reads a port's current resolved values (boolean view: NOINFL reads
    /// as UNDEF, matching the implicit conversion of §4.1).
    pub fn port(&self, name: &str) -> Vec<Value> {
        match self.design.port(name) {
            Some(p) => p.nets.iter().map(|&n| self.value(n).to_boolean()).collect(),
            None => Vec::new(),
        }
    }

    /// Reads a port as a number; `None` if any bit is undefined.
    pub fn port_num(&self, name: &str) -> Option<i64> {
        let bits = self.port(name);
        if bits.is_empty() {
            return None;
        }
        zeus_sema::num(&bits)
    }

    /// Raw resolved value of a net in the current cycle.
    pub fn value(&self, net: NetId) -> Value {
        let rep = self.design.netlist.find_ref(net);
        self.values[rep.index()]
    }

    /// Resolved value of a named signal bit (boolean view).
    pub fn value_by_name(&self, name: &str) -> Option<Value> {
        self.design
            .names
            .get(name)
            .map(|&n| self.value(n).to_boolean())
    }

    /// The *stored* value of the register whose output bit has the given
    /// hierarchical name (e.g. `blackjack.state[1].out`). Unlike
    /// [`Simulator::value_by_name`], this reflects the value latched at
    /// the end of the last cycle, i.e. what the register will present in
    /// the next cycle.
    pub fn register_by_name(&self, name: &str) -> Option<Value> {
        let target = self.design.names.get(name)?;
        let target = self.design.netlist.find_ref(*target);
        self.regs.iter().find_map(|&(node, v)| {
            let out = self.design.netlist.nodes[node.index()].output;
            (out == target).then_some(v)
        })
    }

    /// The stored value of every register, in `netlist.registers()`
    /// order — a snapshot of what each register will present next cycle.
    /// Time-frame-expanded ATPG captures these mid-replay to seed the
    /// unrolled frames with the circuit's concrete reachable state.
    pub fn register_states(&self) -> Vec<(NodeId, Value)> {
        self.regs.clone()
    }

    /// Number of cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total conflicts across all cycles.
    pub fn conflicts_total(&self) -> u64 {
        self.conflicts_total
    }

    /// Resets all registers to UNDEF, the cycle counter to 0, and clears
    /// every outstanding [`Simulator::force`] (restoring the default CLK/
    /// RSET drives), so a reset simulator behaves exactly like a freshly
    /// built one. Injected faults are *not* cleared — a physical defect
    /// survives a circuit reset; use [`Simulator::clear_faults`] for that.
    pub fn reset_state(&mut self) {
        for (_, v) in &mut self.regs {
            *v = Value::Undef;
        }
        self.cycle = 0;
        self.conflicts_total = 0;
        self.forced.clear();
        if let Some(clk) = self.design.clk {
            self.forced.insert(clk, Value::One);
        }
        if let Some(rset) = self.design.rset {
            self.forced.insert(rset, Value::Zero);
        }
        self.bridge_clamp.clear();
        self.bridge_natural.clear();
        self.fault_unstable = false;
        self.first_unstable_cycle = None;
    }

    /// Simulates one clock cycle: evaluates every node in a generalized
    /// topological order, resolves all nets, latches the registers, and
    /// reports runtime violations.
    ///
    /// With injected faults the evaluation additionally clamps faulted
    /// nets; bridge faults are resolved to a fixpoint (re-sweeping until
    /// the bridged pair settles), and a non-converging bridge leaves its
    /// nets UNDEF with [`Simulator::fault_unstable_last_cycle`] set.
    pub fn step(&mut self) -> CycleReport {
        if self.faults.is_empty() {
            self.sweeps_last_cycle = 1;
            self.eval_cycle(false);
        } else {
            self.eval_cycle_faulty();
        }

        // Latch registers: "If 'in' is not changed during a clock cycle,
        // it keeps its value" (§5.1).
        for i in 0..self.regs.len() {
            let (node, _) = self.regs[i];
            let inp = self.design.netlist.nodes[node.index()].inputs[0];
            let v = self.values[inp.index()];
            if v != Value::NoInfl {
                self.regs[i].1 = v;
            }
        }

        // Collect runtime violations.
        let mut conflicts = Vec::new();
        if self.check_conflicts {
            for (i, &a) in self.active.iter().enumerate() {
                if a > 1 {
                    conflicts.push(Conflict {
                        cycle: self.cycle,
                        net: NetId(i as u32),
                        name: self.design.netlist.nets[i].name.clone(),
                        active: a as u32,
                    });
                }
            }
            self.conflicts_total += conflicts.len() as u64;
        }
        let report = CycleReport {
            cycle: self.cycle,
            conflicts,
        };
        self.cycle += 1;
        report
    }

    /// One full evaluation sweep: clears net state, drives the sources
    /// (forced nets and register outputs), then evaluates the
    /// combinational nodes in topological order. With `faulty` set, every
    /// drive is filtered through the fault clamps.
    fn eval_cycle(&mut self, faulty: bool) {
        self.values.fill(Value::NoInfl);
        self.active.fill(0);
        if faulty {
            // Clamps apply even to nets nothing drives this cycle.
            for (&i, &v) in &self.stuck {
                self.values[i] = v;
            }
            for (&i, &v) in &self.bridge_clamp {
                self.values[i] = v;
            }
            // Flips of never-driven nets are no-ops (NOINFL has no charge
            // to upset), so only the natural records need resetting here.
            for k in self.bridge_natural.values_mut() {
                *k = Value::NoInfl;
            }
        }

        // Sources: forced inputs and register outputs.
        let forced: Vec<(NetId, Value)> = self.forced.iter().map(|(&n, &v)| (n, v)).collect();
        for (net, v) in forced {
            self.drive(net, v, faulty);
        }
        for i in 0..self.regs.len() {
            let (node, v) = self.regs[i];
            let out = self.design.netlist.nodes[node.index()].output;
            self.drive(out, v, faulty);
        }

        // Combinational sweep in topological order.
        for i in 0..self.order.len() {
            let node_id = self.order[i];
            let node = &self.design.netlist.nodes[node_id.index()];
            let out = node.output;
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
                NodeOp::If => {
                    let cond = self.values[node.inputs[0].index()];
                    match cond {
                        Value::Zero => Value::NoInfl,
                        Value::One => self.values[node.inputs[1].index()],
                        // "If b=NOINFL then s has value UNDEF" (§8); an
                        // undefined condition is undefined too.
                        _ => Value::Undef,
                    }
                }
                NodeOp::Const(v) => *v,
                NodeOp::Random => Value::from_bool(self.rng.gen()),
                NodeOp::Reg => continue,
            };
            self.drive(out, v, faulty);
        }
    }

    /// Evaluation under injected faults: sweeps until every bridged pair
    /// settles on a common resolved value, restoring the RNG before each
    /// re-sweep so RANDOM streams stay identical to a fault-free run. A
    /// bridge that refuses to settle within `2*bridges+2` sweeps is
    /// declared unstable: its nets are X-filled (UNDEF) and
    /// [`Simulator::fault_unstable_last_cycle`] is raised instead of
    /// aborting — the campaign layer classifies the fault as Hyperactive.
    fn eval_cycle_faulty(&mut self) {
        let rng_start = self.rng.clone();
        self.fault_unstable = false;
        self.bridge_clamp.clear();
        let cap = 2 * self.bridges.len() as u32 + 2;
        let mut sweeps: u32 = 0;
        loop {
            self.rng = rng_start.clone();
            self.eval_cycle(true);
            sweeps += 1;
            if self.bridges.is_empty() {
                break;
            }
            let mut stable = true;
            let bridges = self.bridges.clone();
            for (a, b) in bridges {
                let na = *self.bridge_natural.get(&a).unwrap_or(&Value::NoInfl);
                let nb = *self.bridge_natural.get(&b).unwrap_or(&Value::NoInfl);
                let resolved = resolve_bridge(na, nb);
                for i in [a, b] {
                    if self.values[i] != resolved {
                        stable = false;
                    }
                    if resolved == Value::NoInfl {
                        self.bridge_clamp.remove(&i);
                    } else {
                        self.bridge_clamp.insert(i, resolved);
                    }
                }
            }
            if stable {
                break;
            }
            if sweeps >= cap {
                // Oscillating bridge: X-fill both ends and do one final
                // sweep so downstream logic sees the UNDEF.
                self.fault_unstable = true;
                if self.first_unstable_cycle.is_none() {
                    self.first_unstable_cycle = Some(self.cycle);
                }
                let bridges = self.bridges.clone();
                for (a, b) in bridges {
                    self.bridge_clamp.insert(a, Value::Undef);
                    self.bridge_clamp.insert(b, Value::Undef);
                }
                self.rng = rng_start.clone();
                self.eval_cycle(true);
                sweeps += 1;
                break;
            }
        }
        self.sweeps_last_cycle = sweeps;
    }

    /// Budget-checked [`Simulator::step`]: enforces the step budget, fuel
    /// and deadline of the [`Limits`] the simulator was built with.
    ///
    /// # Errors
    ///
    /// `Z908` when the step budget is exhausted, `Z904`/`Z905` for fuel
    /// and deadline.
    pub fn try_step(&mut self) -> Result<CycleReport, Diagnostic> {
        self.budget.begin_cycle()?;
        self.budget.charge_work(self.order.len() as u64)?;
        let report = self.step();
        // Bridge fixpoint re-sweeps are real work: bill them after the
        // fact so an oscillation-prone fault drains fuel instead of
        // stretching the budget.
        if self.sweeps_last_cycle > 1 {
            self.budget
                .charge_work((self.sweeps_last_cycle as u64 - 1) * self.order.len() as u64)?;
        }
        Ok(report)
    }

    /// Runs `n` cycles under the resource budget, returning the last
    /// report.
    ///
    /// # Errors
    ///
    /// See [`Simulator::try_step`].
    pub fn try_run(&mut self, n: usize) -> Result<CycleReport, Diagnostic> {
        let mut last = CycleReport::default();
        for _ in 0..n {
            last = self.try_step()?;
        }
        Ok(last)
    }

    #[inline]
    fn drive(&mut self, net: NetId, v: Value, faulty: bool) {
        if v == Value::NoInfl {
            return;
        }
        let i = net.index();
        if self.check_conflicts {
            let a = self.active[i].saturating_add(1);
            self.active[i] = a;
            self.values[i] = if a > 1 { Value::Undef } else { v };
        } else {
            self.values[i] = v;
        }
        if faulty {
            self.apply_fault_clamp(i);
        }
    }

    /// Re-applies the fault clamps to net `i` after a natural drive.
    /// Stuck faults win outright; a transient flip inverts the natural
    /// value in its one cycle; bridges record the natural value (for the
    /// fixpoint in [`Simulator::eval_cycle_faulty`]) and then present the
    /// currently resolved bridge value.
    #[cold]
    fn apply_fault_clamp(&mut self, i: usize) {
        if let Some(&v) = self.stuck.get(&i) {
            self.values[i] = v;
        } else if let Some(&c) = self.flips.get(&i) {
            if c == self.cycle {
                self.values[i] = self.values[i].not();
            }
        }
        if let Some(nat) = self.bridge_natural.get_mut(&i) {
            *nat = self.values[i];
            if let Some(&c) = self.bridge_clamp.get(&i) {
                self.values[i] = c;
            }
        }
    }

    /// The node evaluation order (one possible firing sequence, §8),
    /// rendered as the driven net names.
    pub fn firing_order(&self) -> Vec<String> {
        self.order
            .iter()
            .map(|&n| {
                let node = &self.design.netlist.nodes[n.index()];
                self.design.netlist.nets[node.output.index()].name.clone()
            })
            .collect()
    }
}

/// Resolution of one bridged pair from the nets' natural values: agreeing
/// values win, a NOINFL side defers to the driven side, and disagreement
/// is UNDEF (an analog intermediate voltage).
fn resolve_bridge(a: Value, b: Value) -> Value {
    if a == b {
        a
    } else if a == Value::NoInfl {
        b
    } else if b == Value::NoInfl {
        a
    } else {
        Value::Undef
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn sim(src: &str, top: &str, args: &[i64]) -> Simulator {
        let p = parse_program(src).expect("parse");
        let d = elaborate(&p, top, args).expect("elaborate");
        Simulator::new(d).expect("simulator")
    }

    const HALFADDER: &str = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := XOR(a,b); cout := AND(a,b) END;";

    #[test]
    fn halfadder_truth_table() {
        let mut s = sim(HALFADDER, "halfadder", &[]);
        for (a, b, sum, carry) in [
            (false, false, Value::Zero, Value::Zero),
            (false, true, Value::One, Value::Zero),
            (true, false, Value::One, Value::Zero),
            (true, true, Value::Zero, Value::One),
        ] {
            s.set_port_bit("a", Value::from_bool(a)).unwrap();
            s.set_port_bit("b", Value::from_bool(b)).unwrap();
            let r = s.step();
            assert!(r.is_clean());
            assert_eq!(s.port("s"), vec![sum], "a={a} b={b}");
            assert_eq!(s.port("cout"), vec![carry]);
        }
    }

    #[test]
    fn undef_inputs_propagate() {
        let mut s = sim(HALFADDER, "halfadder", &[]);
        // AND with one 0 input is 0 even if the other is undefined (§8).
        s.set_port_bit("a", Value::Zero).unwrap();
        s.set_port_bit("b", Value::Undef).unwrap();
        s.step();
        assert_eq!(s.port("cout"), vec![Value::Zero]);
        assert_eq!(s.port("s"), vec![Value::Undef]);
    }

    #[test]
    fn unset_inputs_read_undef() {
        let mut s = sim(HALFADDER, "halfadder", &[]);
        s.step();
        assert_eq!(s.port("s"), vec![Value::Undef]);
    }

    #[test]
    fn register_delays_one_cycle() {
        let mut s = sim(
            "TYPE t = COMPONENT (IN d: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; \
             BEGIN r(d, q) END;",
            "t",
            &[],
        );
        s.set_port_bit("d", Value::One).unwrap();
        s.step();
        // q is the value of d in the *previous* cycle: UNDEF at cycle 0...
        // after the first step the register has latched 1.
        s.set_port_bit("d", Value::Zero).unwrap();
        s.step();
        assert_eq!(s.port("q"), vec![Value::One]);
        s.step();
        assert_eq!(s.port("q"), vec![Value::Zero]);
    }

    #[test]
    fn register_keeps_value_when_input_inactive() {
        let mut s = sim(
            "TYPE t = COMPONENT (IN d, en: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; \
             BEGIN IF en THEN r.in := d END; q := r.out END;",
            "t",
            &[],
        );
        s.set_port_bit("d", Value::One).unwrap();
        s.set_port_bit("en", Value::One).unwrap();
        s.step();
        s.set_port_bit("en", Value::Zero).unwrap();
        s.set_port_bit("d", Value::Zero).unwrap();
        for _ in 0..3 {
            s.step();
            assert_eq!(s.port("q"), vec![Value::One], "register must hold");
        }
    }

    #[test]
    fn toggle_through_register() {
        let mut s = sim(
            "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; \
             BEGIN IF RSET THEN r.in := 0 ELSE r.in := NOT r.out END; q := r.out END;",
            "t",
            &[],
        );
        s.set_rset(true);
        s.step();
        s.set_rset(false);
        let mut seen = Vec::new();
        for _ in 0..4 {
            s.step();
            seen.push(s.port("q")[0]);
        }
        assert_eq!(seen, vec![Value::Zero, Value::One, Value::Zero, Value::One]);
    }

    #[test]
    fn conflict_detected_and_reported() {
        let mut s = sim(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT q: boolean) IS \
             SIGNAL h: multiplex; \
             BEGIN IF a THEN h := 1 END; IF b THEN h := 0 END; q := h END;",
            "t",
            &[],
        );
        s.set_port_bit("a", Value::One).unwrap();
        s.set_port_bit("b", Value::One).unwrap();
        let r = s.step();
        assert_eq!(r.conflicts.len(), 1);
        assert_eq!(s.port("q"), vec![Value::Undef]);
        // With only one switch closed the value goes through.
        s.set_port_bit("b", Value::Zero).unwrap();
        let r = s.step();
        assert!(r.is_clean());
        assert_eq!(s.port("q"), vec![Value::One]);
    }

    #[test]
    fn unchecked_mode_skips_conflicts() {
        let mut s = sim(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT q: boolean) IS \
             SIGNAL h: multiplex; \
             BEGIN IF a THEN h := 1 END; IF b THEN h := 0 END; q := h END;",
            "t",
            &[],
        );
        s.set_conflict_checking(false);
        s.set_port_bit("a", Value::One).unwrap();
        s.set_port_bit("b", Value::One).unwrap();
        let r = s.step();
        assert!(r.is_clean());
        assert_eq!(s.conflicts_total(), 0);
    }

    #[test]
    fn switch_open_gives_noinfl_then_undef_boolean_view() {
        let mut s = sim(
            "TYPE t = COMPONENT (IN a,d: boolean; OUT q: boolean) IS \
             SIGNAL h: multiplex; \
             BEGIN IF a THEN h := d END; q := h END;",
            "t",
            &[],
        );
        s.set_port_bit("a", Value::Zero).unwrap();
        s.set_port_bit("d", Value::One).unwrap();
        s.step();
        // h is NOINFL; the boolean view of q reads UNDEF.
        assert_eq!(s.port("q"), vec![Value::Undef]);
    }

    #[test]
    fn undef_condition_gives_undef() {
        let mut s = sim(
            "TYPE t = COMPONENT (IN a,d: boolean; OUT q: boolean) IS \
             SIGNAL h: multiplex; \
             BEGIN IF a THEN h := d END; q := h END;",
            "t",
            &[],
        );
        s.set_port_bit("a", Value::Undef).unwrap();
        s.set_port_bit("d", Value::One).unwrap();
        s.step();
        assert_eq!(s.port("q"), vec![Value::Undef]);
    }

    #[test]
    fn port_num_round_trip() {
        let mut s = sim(
            "TYPE t = COMPONENT (IN a: ARRAY[1..5] OF boolean; \
                                 OUT q: ARRAY[1..5] OF boolean) IS \
             BEGIN q := a END;",
            "t",
            &[],
        );
        for v in [0u64, 1, 10, 22, 31] {
            s.set_port_num("a", v).unwrap();
            s.step();
            assert_eq!(s.port_num("q"), Some(v as i64));
        }
        assert!(s.set_port_num("a", 32).is_err());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let src = "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS \
             BEGIN q := RANDOM() END;";
        let mut s1 = sim(src, "t", &[]);
        let mut s2 = sim(src, "t", &[]);
        let a: Vec<Value> = (0..16)
            .map(|_| {
                s1.step();
                s1.port("q")[0]
            })
            .collect();
        let b: Vec<Value> = (0..16)
            .map(|_| {
                s2.step();
                s2.port("q")[0]
            })
            .collect();
        assert_eq!(a, b);
        let mut s3 = sim(src, "t", &[]);
        s3.reseed(42);
        let c: Vec<Value> = (0..16)
            .map(|_| {
                s3.step();
                s3.port("q")[0]
            })
            .collect();
        assert_ne!(a, c, "different seed should give a different stream");
    }

    #[test]
    fn value_by_name_reads_internals() {
        let mut s = sim(HALFADDER, "halfadder", &[]);
        s.set_port_bit("a", Value::One).unwrap();
        s.set_port_bit("b", Value::One).unwrap();
        s.step();
        assert_eq!(s.value_by_name("halfadder.cout"), Some(Value::One));
        assert_eq!(s.value_by_name("nope"), None);
    }

    #[test]
    fn firing_order_is_consistent() {
        let s = sim(FULLADDER_SRC, "fulladder", &[]);
        let order = s.firing_order();
        // The OR that produces cout must fire after both half adders'
        // AND gates.
        let cout_pos = order.iter().rposition(|n| n.contains("cout")).unwrap();
        assert!(cout_pos > 0);
    }

    const FULLADDER_SRC: &str =
        "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := XOR(a,b); cout := AND(a,b) END; \
         fulladder = COMPONENT (IN a,b,cin: boolean; OUT cout,s: boolean) IS \
         SIGNAL h1,h2:halfadder; \
         BEGIN h1(a,b,*,h2.a); h2(h1.s,cin,*,s); cout := OR(h1.cout,h2.cout) END;";

    #[test]
    fn fulladder_exhaustive() {
        let mut s = sim(FULLADDER_SRC, "fulladder", &[]);
        for a in 0..2u8 {
            for b in 0..2u8 {
                for c in 0..2u8 {
                    s.set_port_bit("a", Value::from_bool(a == 1)).unwrap();
                    s.set_port_bit("b", Value::from_bool(b == 1)).unwrap();
                    s.set_port_bit("cin", Value::from_bool(c == 1)).unwrap();
                    let r = s.step();
                    assert!(r.is_clean());
                    let total = a + b + c;
                    assert_eq!(s.port("s"), vec![Value::from_bool(total % 2 == 1)]);
                    assert_eq!(s.port("cout"), vec![Value::from_bool(total >= 2)]);
                }
            }
        }
    }

    #[test]
    fn stuck_at_fault_overrides_logic() {
        let mut s = sim(HALFADDER, "halfadder", &[]);
        let cout = *s.design().names.get("halfadder.cout").unwrap();
        s.inject(zeus_elab::Fault::stuck_at_1(cout)).unwrap();
        s.set_port_bit("a", Value::Zero).unwrap();
        s.set_port_bit("b", Value::Zero).unwrap();
        s.step();
        assert_eq!(s.port("cout"), vec![Value::One], "SA1 beats AND(0,0)");
        // XOR output is untouched.
        assert_eq!(s.port("s"), vec![Value::Zero]);
    }

    #[test]
    fn faults_survive_reset_but_forces_do_not() {
        let mut s = sim(HALFADDER, "halfadder", &[]);
        let cout = *s.design().names.get("halfadder.cout").unwrap();
        s.inject(zeus_elab::Fault::stuck_at_1(cout)).unwrap();
        s.set_port_bit("a", Value::One).unwrap();
        assert!(!s.forced_nets().is_empty());
        s.reset_state();
        assert!(
            s.forced_nets().is_empty(),
            "reset_state must clear testbench forces"
        );
        assert_eq!(s.injected_faults().len(), 1, "faults survive reset");
        s.set_port_bit("a", Value::Zero).unwrap();
        s.set_port_bit("b", Value::Zero).unwrap();
        s.step();
        assert_eq!(s.port("cout"), vec![Value::One]);
        s.clear_faults();
        s.step();
        assert_eq!(s.port("cout"), vec![Value::Zero]);
    }

    #[test]
    fn transient_flip_hits_exactly_one_cycle() {
        let mut s = sim(HALFADDER, "halfadder", &[]);
        let sum = *s.design().names.get("halfadder.s").unwrap();
        s.inject(zeus_elab::Fault::transient_flip(sum, 1)).unwrap();
        s.set_port_bit("a", Value::One).unwrap();
        s.set_port_bit("b", Value::Zero).unwrap();
        s.step();
        assert_eq!(s.port("s"), vec![Value::One], "cycle 0: no flip yet");
        s.step();
        assert_eq!(s.port("s"), vec![Value::Zero], "cycle 1: SEU inverts");
        s.step();
        assert_eq!(s.port("s"), vec![Value::One], "cycle 2: defect gone");
    }

    #[test]
    fn bridge_fault_resolves_disagreement_to_undef() {
        let mut s = sim(HALFADDER, "halfadder", &[]);
        let cout = *s.design().names.get("halfadder.cout").unwrap();
        let sum = *s.design().names.get("halfadder.s").unwrap();
        s.inject(zeus_elab::Fault::bridge(cout, sum)).unwrap();
        // a=1 b=0: naturally s=1, cout=0 — they disagree, both go UNDEF.
        s.set_port_bit("a", Value::One).unwrap();
        s.set_port_bit("b", Value::Zero).unwrap();
        s.step();
        assert_eq!(s.port("s"), vec![Value::Undef]);
        assert_eq!(s.port("cout"), vec![Value::Undef]);
        assert!(!s.fault_unstable_last_cycle());
        // a=1 b=1: naturally s=0, cout=1 — still UNDEF.
        s.set_port_bit("b", Value::One).unwrap();
        s.step();
        assert_eq!(s.port("s"), vec![Value::Undef]);
        // a=0 b=0: both naturally 0 — the bridge agrees, values stay 0.
        s.set_port_bit("a", Value::Zero).unwrap();
        s.set_port_bit("b", Value::Zero).unwrap();
        s.step();
        assert_eq!(s.port("s"), vec![Value::Zero]);
        assert_eq!(s.port("cout"), vec![Value::Zero]);
    }

    #[test]
    fn inject_rejects_out_of_range_site() {
        let mut s = sim(HALFADDER, "halfadder", &[]);
        assert!(s.inject(zeus_elab::Fault::stuck_at_0(NetId(9999))).is_err());
        assert!(s
            .inject(zeus_elab::Fault::bridge(NetId(0), NetId(9999)))
            .is_err());
        assert!(s.injected_faults().is_empty());
    }

    #[test]
    fn random_stream_unchanged_by_bridge_resweeps() {
        // A design with a RANDOM node plus a bridge elsewhere: the
        // re-sweeping fixpoint must not advance the RNG differently from
        // a fault-free run of the same seed.
        let src = "TYPE t = COMPONENT (IN a,b: boolean; OUT q,r: boolean) IS \
             BEGIN q := RANDOM(); r := AND(a,b) END;";
        let mut golden = sim(src, "t", &[]);
        golden.reseed(7);
        let mut faulty = sim(src, "t", &[]);
        faulty.reseed(7);
        let a = *faulty.design().names.get("t.a").unwrap();
        let r = *faulty.design().names.get("t.r").unwrap();
        faulty.inject(zeus_elab::Fault::bridge(a, r)).unwrap();
        for cyc in 0..16u64 {
            let bit = cyc % 3 == 0;
            golden.set_port_bit("a", Value::from_bool(bit)).unwrap();
            golden.set_port_bit("b", Value::from_bool(!bit)).unwrap();
            faulty.set_port_bit("a", Value::from_bool(bit)).unwrap();
            faulty.set_port_bit("b", Value::from_bool(!bit)).unwrap();
            golden.step();
            faulty.step();
            assert_eq!(golden.port("q"), faulty.port("q"), "cycle {cyc}");
        }
    }
}
