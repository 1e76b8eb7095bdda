//! Bit-parallel packed simulation: 64 patterns per net in two `u64`
//! bit-planes.
//!
//! Classic parallel-pattern simulation packs many independent evaluations
//! of the same netlist into machine words so the levelized sweep costs
//! word-wide boolean operations instead of one branchy match per value.
//! The four-valued domain {0, 1, UNDEF, NOINFL} of §8 needs two bits per
//! lane; [`PackedWord`] stores 64 lanes as the pair
//!
//! * `lo` — "this lane can be 0",
//! * `hi` — "this lane can be 1",
//!
//! so `NOINFL = (0,0)`, `0 = (1,0)`, `1 = (0,1)`, `UNDEF = (1,1)`. Under
//! this encoding the §8 dominance rules become plain AND/OR folds over
//! the planes (see [`PackedWord::and_fold`] etc.), which the test module
//! proves equivalent to the scalar [`zeus_sema::value`] truth tables for
//! every node kind.
//!
//! [`PackedSim`] mirrors [`crate::Simulator`] lane-for-lane: the same
//! topological sweep, the same single-active-assignment rule (a per-net
//! driven-once/driven-twice mask pair instead of a counter), the same
//! per-lane fault clamps, and the same bridge fixpoint — so any one lane
//! of a packed run is bit-identical to a scalar run with the same seed.
//! RANDOM nodes draw one bit per cycle and broadcast it to all lanes,
//! matching a scalar campaign where every fault's simulator is reseeded
//! with the same seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use zeus_elab::{Design, Fault, FaultKind, Limits, NetId, NodeId, NodeOp};
use zeus_sema::value::Value;
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

use crate::sim::StepBudget;

/// The number of independent patterns per packed word.
pub const LANES: usize = 64;

/// 64 lanes of the four-valued domain as two bit-planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedWord {
    /// Plane "the lane can be 0".
    pub lo: u64,
    /// Plane "the lane can be 1".
    pub hi: u64,
}

impl PackedWord {
    /// All lanes NOINFL (the undriven state).
    pub const NOINFL: PackedWord = PackedWord { lo: 0, hi: 0 };
    /// All lanes UNDEF.
    pub const UNDEF: PackedWord = PackedWord { lo: !0, hi: !0 };
    /// All lanes 0.
    pub const ZERO: PackedWord = PackedWord { lo: !0, hi: 0 };
    /// All lanes 1.
    pub const ONE: PackedWord = PackedWord { lo: 0, hi: !0 };

    /// Every lane set to `v`.
    pub fn splat(v: Value) -> PackedWord {
        match v {
            Value::Zero => PackedWord::ZERO,
            Value::One => PackedWord::ONE,
            Value::Undef => PackedWord::UNDEF,
            Value::NoInfl => PackedWord::NOINFL,
        }
    }

    /// The value in one lane.
    pub fn get(self, lane: usize) -> Value {
        match ((self.lo >> lane) & 1, (self.hi >> lane) & 1) {
            (0, 0) => Value::NoInfl,
            (1, 0) => Value::Zero,
            (0, 1) => Value::One,
            _ => Value::Undef,
        }
    }

    /// Sets one lane to `v`.
    pub fn set(&mut self, lane: usize, v: Value) {
        let bit = 1u64 << lane;
        self.lo &= !bit;
        self.hi &= !bit;
        match v {
            Value::Zero => self.lo |= bit,
            Value::One => self.hi |= bit,
            Value::Undef => {
                self.lo |= bit;
                self.hi |= bit;
            }
            Value::NoInfl => {}
        }
    }

    /// Mask of lanes that are *active* (not NOINFL).
    pub fn active(self) -> u64 {
        self.lo | self.hi
    }

    /// Mask of lanes that are defined (exactly 0 or 1).
    pub fn defined(self) -> u64 {
        self.lo ^ self.hi
    }

    /// The boolean view (§4.1): NOINFL lanes read as UNDEF.
    pub fn to_boolean(self) -> PackedWord {
        let z = !(self.lo | self.hi);
        PackedWord {
            lo: self.lo | z,
            hi: self.hi | z,
        }
    }

    /// Lane-wise NOT: defined lanes flip, UNDEF/NOINFL lanes give UNDEF
    /// (the scalar [`Value::not`] table). Swapping the planes of the
    /// boolean view realizes exactly that.
    // Not `std::ops::Not`: this is the four-valued logical NOT, not a
    // bitwise complement of the planes, and the name mirrors
    // `Value::not` on the scalar side.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> PackedWord {
        let b = self.to_boolean();
        PackedWord { lo: b.hi, hi: b.lo }
    }

    /// Takes lanes in `mask` from `self`, the rest from `other`.
    pub fn select(self, mask: u64, other: PackedWord) -> PackedWord {
        PackedWord {
            lo: (self.lo & mask) | (other.lo & !mask),
            hi: (self.hi & mask) | (other.hi & !mask),
        }
    }

    /// Mask of lanes where `self` and `other` hold different values.
    pub fn diff(self, other: PackedWord) -> u64 {
        (self.lo ^ other.lo) | (self.hi ^ other.hi)
    }

    /// n-ary AND over boolean views (§8 dominance: 0 as soon as any lane
    /// input is 0, 1 iff all are 1, UNDEF otherwise; empty fold is 1).
    pub fn and_fold(inputs: impl IntoIterator<Item = PackedWord>) -> PackedWord {
        let mut acc = PackedWord::ONE;
        for w in inputs {
            let b = w.to_boolean();
            acc.lo |= b.lo;
            acc.hi &= b.hi;
        }
        acc
    }

    /// n-ary OR over boolean views (1 dominates; empty fold is 0).
    pub fn or_fold(inputs: impl IntoIterator<Item = PackedWord>) -> PackedWord {
        let mut acc = PackedWord::ZERO;
        for w in inputs {
            let b = w.to_boolean();
            acc.lo &= b.lo;
            acc.hi |= b.hi;
        }
        acc
    }

    /// n-ary NAND.
    pub fn nand_fold(inputs: impl IntoIterator<Item = PackedWord>) -> PackedWord {
        PackedWord::and_fold(inputs).not()
    }

    /// n-ary NOR.
    pub fn nor_fold(inputs: impl IntoIterator<Item = PackedWord>) -> PackedWord {
        PackedWord::or_fold(inputs).not()
    }

    /// n-ary XOR: strict — every input lane must be defined; empty fold
    /// is 0.
    pub fn xor_fold(inputs: impl IntoIterator<Item = PackedWord>) -> PackedWord {
        let mut all_defined = !0u64;
        let mut parity = 0u64;
        for w in inputs {
            let b = w.to_boolean();
            all_defined &= b.defined();
            parity ^= b.hi;
        }
        PackedWord {
            lo: (!parity & all_defined) | !all_defined,
            hi: (parity & all_defined) | !all_defined,
        }
    }

    /// Pairwise EQUAL of two equal-length bit vectors reduced to one
    /// lane-wise bit: a defined unequal pair dominates to 0, all pairs
    /// defined-equal gives 1, UNDEF otherwise (empty width gives 1).
    pub fn equal_reduce(a: &[PackedWord], b: &[PackedWord]) -> PackedWord {
        debug_assert_eq!(a.len(), b.len());
        let mut zero = 0u64;
        let mut all_eq = !0u64;
        for (&x, &y) in a.iter().zip(b) {
            let (x, y) = (x.to_boolean(), y.to_boolean());
            let dd = x.defined() & y.defined();
            let neq = x.hi ^ y.hi;
            zero |= dd & neq;
            all_eq &= dd & !neq;
        }
        PackedWord {
            lo: zero | !all_eq,
            hi: !zero,
        }
    }

    /// The IF (controlled switch) of §8 on the *raw* condition: a 0
    /// condition gives NOINFL, a 1 condition passes `data` through raw,
    /// an UNDEF or NOINFL condition gives UNDEF.
    pub fn if_select(cond: PackedWord, data: PackedWord) -> PackedWord {
        let zero = cond.lo & !cond.hi;
        let one = cond.hi & !cond.lo;
        let other = !(zero | one);
        PackedWord {
            lo: (data.lo & one) | other,
            hi: (data.hi & one) | other,
        }
    }

    /// Lane-wise bridge resolution (the scalar `resolve_bridge`):
    /// agreeing lanes win, a NOINFL side defers to the driven side,
    /// disagreement is UNDEF. Under the two-plane encoding all three
    /// cases collapse to ORing the planes: equal lanes are unchanged, a
    /// NOINFL side contributes no bits, and any two *distinct* active
    /// values necessarily cover both planes, which reads back as UNDEF.
    pub fn resolve_bridge(a: PackedWord, b: PackedWord) -> PackedWord {
        PackedWord {
            lo: a.lo | b.lo,
            hi: a.hi | b.hi,
        }
    }
}

/// A runtime single-active-assignment violation, per lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedConflict {
    /// The clock cycle in which the conflict occurred.
    pub cycle: u64,
    /// The conflicting net.
    pub net: NetId,
    /// Its hierarchical name.
    pub name: String,
    /// Mask of lanes in which the net was driven more than once.
    pub lanes: u64,
}

/// Result of simulating one packed clock cycle.
#[derive(Debug, Clone, Default)]
pub struct PackedCycleReport {
    /// The cycle number just completed (starting at 0).
    pub cycle: u64,
    /// Per-net conflict masks for this cycle.
    pub conflicts: Vec<PackedConflict>,
}

impl PackedCycleReport {
    /// True when no runtime check fired in any lane.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// The packed 64-lane Zeus simulator: the levelized sweep of
/// [`crate::Simulator`] evaluated word-wide, with per-lane fault
/// injection for parallel-fault campaigns.
#[derive(Debug, Clone)]
pub struct PackedSim {
    design: Design,
    order: Vec<NodeId>,
    values: Vec<PackedWord>,
    /// Lanes driven at least once this cycle, per net.
    once: Vec<u64>,
    /// Lanes driven more than once this cycle (conflicts), per net.
    multi: Vec<u64>,
    regs: Vec<(NodeId, PackedWord)>,
    forced: HashMap<NetId, PackedWord>,
    cycle: u64,
    rng: StdRng,
    check_conflicts: bool,
    budget: StepBudget,
    /// Injected faults with their lane masks, in injection order.
    faults: Vec<(Fault, u64)>,
    /// Stuck-at-0 lanes per net index.
    stuck0: HashMap<usize, u64>,
    /// Stuck-at-1 lanes per net index.
    stuck1: HashMap<usize, u64>,
    /// Transient flips per net index: `(cycle, lanes)` entries.
    flips: HashMap<usize, Vec<(u64, u64)>>,
    /// Lanes flipping in the cycle being evaluated, per net index.
    flip_now: HashMap<usize, u64>,
    /// Injected bridges as `(a, b, lanes)` canonical net-index pairs.
    bridges: Vec<(usize, usize, u64)>,
    /// Presented bridge value per bridged net index: `(lanes, value)`.
    bridge_clamp: HashMap<usize, (u64, PackedWord)>,
    /// Natural (pre-clamp) value per bridged net index:
    /// `(bridged lanes, value)`.
    bridge_natural: HashMap<usize, (u64, PackedWord)>,
    /// Evaluation sweeps each lane needed in the last cycle (1 unless a
    /// bridge in that lane forced a fixpoint iteration). This is the
    /// per-lane analogue of the scalar `sweeps_last_cycle`, used for
    /// exact per-pattern fuel accounting.
    lane_sweeps: [u32; LANES],
    /// Lanes whose bridge resolution failed to converge last cycle.
    unstable_last_cycle: u64,
    /// Lanes whose bridge resolution ever failed to converge.
    ever_unstable: u64,
}

impl PackedSim {
    /// Builds a packed simulator with unlimited budgets.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the design's netlist has a combinational
    /// cycle (cannot happen for designs produced by `zeus-elab`).
    pub fn new(design: Design) -> Result<PackedSim, Diagnostic> {
        PackedSim::with_limits(design, &Limits::default())
    }

    /// [`PackedSim::new`] with explicit resource limits, enforced by
    /// [`PackedSim::try_step`]. Fuel is billed per pattern-*word*, i.e.
    /// one unit per node evaluation sweep regardless of how many of the
    /// 64 lanes are in use — the same rate as one scalar simulator.
    ///
    /// # Errors
    ///
    /// See [`PackedSim::new`].
    pub fn with_limits(design: Design, limits: &Limits) -> Result<PackedSim, Diagnostic> {
        let order = design.netlist.topo_order()?;
        let regs = design
            .netlist
            .registers()
            .map(|id| (id, PackedWord::UNDEF))
            .collect();
        let n = design.netlist.net_count();
        let mut sim = PackedSim {
            design,
            order,
            values: vec![PackedWord::NOINFL; n],
            once: vec![0; n],
            multi: vec![0; n],
            regs,
            forced: HashMap::new(),
            cycle: 0,
            rng: StdRng::seed_from_u64(0x2E05_1983),
            check_conflicts: true,
            budget: StepBudget::new(limits),
            faults: Vec::new(),
            stuck0: HashMap::new(),
            stuck1: HashMap::new(),
            flips: HashMap::new(),
            flip_now: HashMap::new(),
            bridges: Vec::new(),
            bridge_clamp: HashMap::new(),
            bridge_natural: HashMap::new(),
            lane_sweeps: [1; LANES],
            unstable_last_cycle: 0,
            ever_unstable: 0,
        };
        if let Some(clk) = sim.design.clk {
            sim.forced.insert(clk, PackedWord::ONE);
        }
        if let Some(rset) = sim.design.rset {
            sim.forced.insert(rset, PackedWord::ZERO);
        }
        Ok(sim)
    }

    /// The elaborated design being simulated.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The number of combinational node evaluations per sweep (the unit
    /// the scalar simulator charges fuel in).
    pub fn order_len(&self) -> usize {
        self.order.len()
    }

    /// Reseeds the RANDOM source. One bit is drawn per RANDOM node per
    /// sweep and broadcast to all lanes, so each lane sees the same
    /// stream a scalar [`crate::Simulator`] with this seed sees.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Enables or disables the runtime single-assignment check.
    pub fn set_conflict_checking(&mut self, on: bool) {
        self.check_conflicts = on;
    }

    /// Forces a net to a packed word (holds until changed).
    pub fn force(&mut self, net: NetId, w: PackedWord) {
        self.forced.insert(net, w);
    }

    /// Stops forcing a net.
    pub fn release(&mut self, net: NetId) {
        self.forced.remove(&net);
    }

    /// Drives the predefined RSET signal in every lane.
    pub fn set_rset(&mut self, v: bool) {
        if let Some(r) = self.design.rset {
            self.forced
                .insert(r, PackedWord::splat(Value::from_bool(v)));
        }
    }

    /// Drives the predefined CLK signal in every lane.
    pub fn set_clk(&mut self, v: bool) {
        if let Some(c) = self.design.clk {
            self.forced
                .insert(c, PackedWord::splat(Value::from_bool(v)));
        }
    }

    /// Sets a whole port in every lane (bit 1 first, LSB-first).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the port does not exist or the width does
    /// not match.
    pub fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic> {
        let port = self
            .design
            .port(name)
            .ok_or_else(|| Diagnostic::error(Span::dummy(), format!("no port named '{name}'")))?;
        if port.nets.len() != bits.len() {
            return Err(Diagnostic::error(
                Span::dummy(),
                format!(
                    "port '{name}' has {} bits but {} values were given",
                    port.nets.len(),
                    bits.len()
                ),
            ));
        }
        let nets = port.nets.clone();
        for (net, &v) in nets.into_iter().zip(bits) {
            self.forced.insert(net, PackedWord::splat(v));
        }
        Ok(())
    }

    /// Sets a port from an unsigned number in every lane (LSB at bit 1).
    ///
    /// # Errors
    ///
    /// See [`PackedSim::set_port`]; also errors when the value does not
    /// fit.
    pub fn set_port_num(&mut self, name: &str, v: u64) -> Result<(), Diagnostic> {
        let width = self
            .design
            .port(name)
            .ok_or_else(|| Diagnostic::error(Span::dummy(), format!("no port named '{name}'")))?
            .nets
            .len();
        if width < 64 && v >= (1u64 << width) {
            return Err(Diagnostic::error(
                Span::dummy(),
                format!("value {v} does not fit in the {width}-bit port '{name}'"),
            ));
        }
        let bits: Vec<Value> = (0..width)
            .map(|i| Value::from_bool((v >> i) & 1 == 1))
            .collect();
        self.set_port(name, &bits)
    }

    /// Reads one lane of a port (boolean view, like
    /// [`crate::Simulator::port`]).
    pub fn port_lane(&self, name: &str, lane: usize) -> Vec<Value> {
        match self.design.port(name) {
            Some(p) => p
                .nets
                .iter()
                .map(|&n| self.value(n).get(lane).to_boolean())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Raw resolved packed value of a net in the current cycle.
    pub fn value(&self, net: NetId) -> PackedWord {
        let rep = self.design.netlist.find_ref(net);
        self.values[rep.index()]
    }

    /// Raw resolved value of a net in one lane.
    pub fn value_lane(&self, net: NetId, lane: usize) -> Value {
        self.value(net).get(lane)
    }

    /// Number of cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Evaluation sweeps each lane needed in the last cycle.
    pub fn lane_sweeps(&self) -> &[u32; LANES] {
        &self.lane_sweeps
    }

    /// Mask of lanes whose bridge resolution oscillated last cycle.
    pub fn unstable_last_cycle(&self) -> u64 {
        self.unstable_last_cycle
    }

    /// Mask of lanes whose bridge resolution ever oscillated since
    /// construction or [`PackedSim::reset_state`] (the per-lane analogue
    /// of [`crate::Simulator::first_unstable_cycle`]`.is_some()`).
    pub fn ever_unstable(&self) -> u64 {
        self.ever_unstable
    }

    /// Injects a fault into every lane.
    ///
    /// # Errors
    ///
    /// See [`PackedSim::inject_lanes`].
    pub fn inject(&mut self, fault: Fault) -> Result<(), Diagnostic> {
        self.inject_lanes(fault, !0)
    }

    /// Injects a fault into the lanes of `lanes` only — the key operation
    /// of a parallel-fault campaign: 64 *different* faulty circuits share
    /// one packed sweep, one fault per lane. Like the scalar simulator,
    /// sites are canonicalized and clamps override the natural drive
    /// without counting as extra active drivers; faults survive
    /// [`PackedSim::reset_state`].
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the site (or bridge peer) is not a net
    /// of this design.
    pub fn inject_lanes(&mut self, fault: Fault, lanes: u64) -> Result<(), Diagnostic> {
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
                // A later stuck-at on the same lane wins, like the scalar
                // HashMap insert.
                if let Some(m) = self.stuck1.get_mut(&site.index()) {
                    *m &= !lanes;
                }
                *self.stuck0.entry(site.index()).or_insert(0) |= lanes;
            }
            FaultKind::StuckAt1 => {
                if let Some(m) = self.stuck0.get_mut(&site.index()) {
                    *m &= !lanes;
                }
                *self.stuck1.entry(site.index()).or_insert(0) |= lanes;
            }
            FaultKind::TransientFlip { cycle } => {
                let entries = self.flips.entry(site.index()).or_default();
                for (_, m) in entries.iter_mut() {
                    *m &= !lanes;
                }
                entries.push((cycle, lanes));
            }
            FaultKind::BridgeWith(other) => {
                if other != site {
                    self.bridges.push((site.index(), other.index(), lanes));
                    for i in [site.index(), other.index()] {
                        let e = self
                            .bridge_natural
                            .entry(i)
                            .or_insert((0, PackedWord::NOINFL));
                        e.0 |= lanes;
                    }
                }
            }
        }
        self.faults.push((Fault { site, kind }, lanes));
        Ok(())
    }

    /// Removes all injected faults from all lanes.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
        self.stuck0.clear();
        self.stuck1.clear();
        self.flips.clear();
        self.flip_now.clear();
        self.bridges.clear();
        self.bridge_clamp.clear();
        self.bridge_natural.clear();
        self.unstable_last_cycle = 0;
        self.ever_unstable = 0;
    }

    /// The injected faults with their lane masks, in injection order.
    pub fn injected_faults(&self) -> &[(Fault, u64)] {
        &self.faults
    }

    /// Resets registers to UNDEF in every lane, the cycle counter to 0,
    /// and clears every outstanding force (restoring the default CLK/RSET
    /// drives). Injected faults are *not* cleared, matching
    /// [`crate::Simulator::reset_state`].
    pub fn reset_state(&mut self) {
        for (_, w) in &mut self.regs {
            *w = PackedWord::UNDEF;
        }
        self.cycle = 0;
        self.forced.clear();
        if let Some(clk) = self.design.clk {
            self.forced.insert(clk, PackedWord::ONE);
        }
        if let Some(rset) = self.design.rset {
            self.forced.insert(rset, PackedWord::ZERO);
        }
        self.bridge_clamp.clear();
        for (_, nat) in self.bridge_natural.values_mut() {
            *nat = PackedWord::NOINFL;
        }
        self.unstable_last_cycle = 0;
        self.ever_unstable = 0;
    }

    /// Simulates one packed clock cycle: one levelized sweep for all 64
    /// lanes (with the bridge fixpoint re-sweeping lanes that need it),
    /// then latches registers lane-wise and reports conflicts.
    pub fn step(&mut self) -> PackedCycleReport {
        self.flip_now.clear();
        for (&i, entries) in &self.flips {
            let mut m = 0u64;
            for &(c, lanes) in entries {
                if c == self.cycle {
                    m |= lanes;
                }
            }
            if m != 0 {
                self.flip_now.insert(i, m);
            }
        }

        if self.faults.is_empty() {
            self.lane_sweeps = [1; LANES];
            self.unstable_last_cycle = 0;
            self.eval_cycle(false);
        } else {
            self.eval_cycle_faulty();
        }

        // Latch registers lane-wise: a lane keeps its stored value when
        // its input lane is NOINFL (§5.1).
        for i in 0..self.regs.len() {
            let (node, _) = self.regs[i];
            let inp = self.design.netlist.nodes[node.index()].inputs[0];
            let v = self.values[inp.index()];
            let m = v.active();
            let r = &mut self.regs[i].1;
            *r = v.select(m, *r);
        }

        let mut conflicts = Vec::new();
        if self.check_conflicts {
            for (i, &m) in self.multi.iter().enumerate() {
                if m != 0 {
                    conflicts.push(PackedConflict {
                        cycle: self.cycle,
                        net: NetId(i as u32),
                        name: self.design.netlist.nets[i].name.clone(),
                        lanes: m,
                    });
                }
            }
        }
        let report = PackedCycleReport {
            cycle: self.cycle,
            conflicts,
        };
        self.cycle += 1;
        report
    }

    /// Budget-checked [`PackedSim::step`]: bills the [`Limits`] fuel per
    /// pattern-word — `order_len` units per sweep, exactly what one
    /// scalar [`crate::Simulator::try_step`] would bill for the same
    /// cycle, never 64×. Re-sweeps are billed at the *maximum* lane sweep
    /// count, since the word re-evaluates all lanes together.
    ///
    /// # Errors
    ///
    /// `Z908` when the step budget is exhausted, `Z904`/`Z905` for fuel
    /// and deadline.
    pub fn try_step(&mut self) -> Result<PackedCycleReport, Diagnostic> {
        self.budget.begin_cycle()?;
        self.budget.charge_work(self.order.len() as u64)?;
        let report = self.step();
        let max_sweeps = *self.lane_sweeps.iter().max().unwrap_or(&1);
        if max_sweeps > 1 {
            self.budget
                .charge_work((max_sweeps as u64 - 1) * self.order.len() as u64)?;
        }
        Ok(report)
    }

    /// One full packed evaluation sweep (the word-wide analogue of the
    /// scalar `eval_cycle`).
    fn eval_cycle(&mut self, faulty: bool) {
        self.values.fill(PackedWord::NOINFL);
        self.once.fill(0);
        self.multi.fill(0);
        if faulty {
            // Clamps apply even to nets nothing drives this cycle.
            for (&i, &m) in &self.stuck0 {
                self.values[i] = PackedWord::ZERO.select(m, self.values[i]);
            }
            for (&i, &m) in &self.stuck1 {
                self.values[i] = PackedWord::ONE.select(m, self.values[i]);
            }
            for (&i, &(m, v)) in &self.bridge_clamp {
                self.values[i] = v.select(m, self.values[i]);
            }
            for (_, nat) in self.bridge_natural.values_mut() {
                *nat = PackedWord::NOINFL;
            }
        }

        let forced: Vec<(NetId, PackedWord)> = self.forced.iter().map(|(&n, &v)| (n, v)).collect();
        for (net, v) in forced {
            self.drive(net, v, faulty);
        }
        for i in 0..self.regs.len() {
            let (node, v) = self.regs[i];
            let out = self.design.netlist.nodes[node.index()].output;
            self.drive(out, v, faulty);
        }

        for i in 0..self.order.len() {
            let node_id = self.order[i];
            let node = &self.design.netlist.nodes[node_id.index()];
            let out = node.output;
            let v = match &node.op {
                NodeOp::And => {
                    PackedWord::and_fold(node.inputs.iter().map(|&n| self.values[n.index()]))
                }
                NodeOp::Or => {
                    PackedWord::or_fold(node.inputs.iter().map(|&n| self.values[n.index()]))
                }
                NodeOp::Nand => {
                    PackedWord::nand_fold(node.inputs.iter().map(|&n| self.values[n.index()]))
                }
                NodeOp::Nor => {
                    PackedWord::nor_fold(node.inputs.iter().map(|&n| self.values[n.index()]))
                }
                NodeOp::Xor => {
                    PackedWord::xor_fold(node.inputs.iter().map(|&n| self.values[n.index()]))
                }
                NodeOp::Not => self.values[node.inputs[0].index()].not(),
                NodeOp::Equal { width } => {
                    let (a, b) = node.inputs.split_at(*width);
                    let av: Vec<PackedWord> = a.iter().map(|&n| self.values[n.index()]).collect();
                    let bv: Vec<PackedWord> = b.iter().map(|&n| self.values[n.index()]).collect();
                    PackedWord::equal_reduce(&av, &bv)
                }
                NodeOp::Buf => self.values[node.inputs[0].index()],
                NodeOp::If => PackedWord::if_select(
                    self.values[node.inputs[0].index()],
                    self.values[node.inputs[1].index()],
                ),
                NodeOp::Const(v) => PackedWord::splat(*v),
                NodeOp::Random => PackedWord::splat(Value::from_bool(self.rng.gen())),
                NodeOp::Reg => continue,
            };
            self.drive(out, v, faulty);
        }
    }

    /// Packed evaluation under injected faults: the bridge fixpoint of
    /// the scalar `eval_cycle_faulty`, tracked *per lane*. Each lane has
    /// its own sweep cap (`2 * bridges-in-lane + 2`); a lane that settles
    /// stops counting while unsettled lanes keep iterating, and a lane
    /// that hits its cap is X-filled and given exactly one more sweep —
    /// so `lane_sweeps[l]` equals the scalar `sweeps_last_cycle` of a
    /// one-fault simulator running lane `l` alone.
    fn eval_cycle_faulty(&mut self) {
        let rng_start = self.rng.clone();
        self.unstable_last_cycle = 0;
        self.bridge_clamp.clear();

        let mut cap = [2u32; LANES];
        let mut bridge_lanes = 0u64;
        for &(_, _, lanes) in &self.bridges {
            bridge_lanes |= lanes;
            for (l, c) in cap.iter_mut().enumerate() {
                if (lanes >> l) & 1 == 1 {
                    *c += 2;
                }
            }
        }

        let mut settled = [1u32; LANES];
        let mut pending = bridge_lanes;
        let mut sweeps: u32 = 0;
        loop {
            self.rng = rng_start.clone();
            self.eval_cycle(true);
            sweeps += 1;
            if self.bridges.is_empty() {
                break;
            }

            // Stability check and clamp update, bridge by bridge (the
            // same pass structure as the scalar loop, lane-masked).
            let mut unstable = 0u64;
            let bridges = self.bridges.clone();
            for (a, b, lanes) in bridges {
                let na = self.natural_of(a, lanes);
                let nb = self.natural_of(b, lanes);
                let res = PackedWord::resolve_bridge(na, nb);
                for i in [a, b] {
                    unstable |= lanes & self.values[i].diff(res);
                    let e = self
                        .bridge_clamp
                        .entry(i)
                        .or_insert((0, PackedWord::NOINFL));
                    e.0 = (e.0 & !lanes) | (res.active() & lanes);
                    e.1 = res.select(lanes, e.1);
                }
            }

            let newly = pending & !unstable;
            for (l, s) in settled.iter_mut().enumerate() {
                if (newly >> l) & 1 == 1 {
                    *s = sweeps;
                }
            }
            pending &= unstable;
            if pending == 0 {
                break;
            }

            // Lanes over their cap oscillate: X-fill their bridge ends
            // and give them one final sweep.
            let mut overdue = 0u64;
            for (l, &c) in cap.iter().enumerate() {
                if (pending >> l) & 1 == 1 && sweeps >= c {
                    overdue |= 1 << l;
                }
            }
            if overdue != 0 {
                self.unstable_last_cycle |= overdue;
                self.ever_unstable |= overdue;
                let bridges = self.bridges.clone();
                for (a, b, lanes) in bridges {
                    let x = lanes & overdue;
                    if x == 0 {
                        continue;
                    }
                    for i in [a, b] {
                        let e = self
                            .bridge_clamp
                            .entry(i)
                            .or_insert((0, PackedWord::NOINFL));
                        e.0 |= x;
                        e.1.lo |= x;
                        e.1.hi |= x;
                    }
                }
                pending &= !overdue;
                for (l, s) in settled.iter_mut().enumerate() {
                    if (overdue >> l) & 1 == 1 {
                        *s = sweeps + 1;
                    }
                }
                if pending == 0 {
                    // The dedicated final sweep for the X-filled lanes
                    // (already counted into their `settled` stamps).
                    self.rng = rng_start.clone();
                    self.eval_cycle(true);
                    break;
                }
                // Other lanes are still iterating: the next loop sweep
                // doubles as the final sweep for the X-filled lanes.
            }
        }
        self.lane_sweeps = settled;
    }

    /// The recorded natural value of a bridged net, restricted to the
    /// given lanes (unrecorded lanes read NOINFL, like the scalar
    /// `bridge_natural` default).
    fn natural_of(&self, i: usize, lanes: u64) -> PackedWord {
        match self.bridge_natural.get(&i) {
            Some(&(_, nat)) => PackedWord {
                lo: nat.lo & lanes,
                hi: nat.hi & lanes,
            },
            None => PackedWord::NOINFL,
        }
    }

    /// Lane-masked drive of one net (the word-wide analogue of the
    /// scalar `drive`): inactive lanes do not count as drivers, a second
    /// active drive in a lane makes that lane UNDEF for the rest of the
    /// cycle, and fault clamps re-apply after every active drive.
    fn drive(&mut self, net: NetId, v: PackedWord, faulty: bool) {
        let m = v.active();
        if m == 0 {
            return;
        }
        let i = net.index();
        let w = &mut self.values[i];
        if self.check_conflicts {
            let dup = self.once[i] & m;
            self.multi[i] |= dup;
            self.once[i] |= m;
            *w = v.select(m, *w);
            w.lo |= self.multi[i];
            w.hi |= self.multi[i];
        } else {
            *w = v.select(m, *w);
        }
        if faulty {
            self.apply_fault_clamp(i, m);
        }
    }

    /// Re-applies the fault clamps to net `i` on the lanes of `m` (the
    /// lanes this drive was active in). Mirrors the scalar
    /// `apply_fault_clamp`: stuck wins outright, a transient flip inverts
    /// the resolved value in its cycle, bridges record the natural value
    /// and present the currently resolved bridge value.
    fn apply_fault_clamp(&mut self, i: usize, m: u64) {
        let s0 = self.stuck0.get(&i).copied().unwrap_or(0);
        let s1 = self.stuck1.get(&i).copied().unwrap_or(0);
        let s = s0 | s1;
        let w = &mut self.values[i];
        if s != 0 {
            w.lo = (w.lo & !s) | s0;
            w.hi = (w.hi & !s) | s1;
        }
        let f = self.flip_now.get(&i).copied().unwrap_or(0) & m & !s;
        if f != 0 {
            let n = w.not();
            *w = n.select(f, *w);
        }
        // Single lookup: reading the resolved value before taking the
        // mutable borrow keeps the natural-value update self-contained
        // (no second lookup whose failure would have to panic).
        let cur = self.values[i];
        let bridged = match self.bridge_natural.get_mut(&i) {
            Some(e) => {
                let rec = e.0 & m;
                if rec != 0 {
                    e.1 = cur.select(rec, e.1);
                }
                true
            }
            None => false,
        };
        if bridged {
            if let Some(&(cm, cv)) = self.bridge_clamp.get(&i) {
                let c = cm & m;
                if c != 0 {
                    self.values[i] = cv.select(c, self.values[i]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use proptest::prelude::*;
    use zeus_elab::elaborate;
    use zeus_sema::value;
    use zeus_syntax::parse_program;

    const ALL: [Value; 4] = [Value::Zero, Value::One, Value::Undef, Value::NoInfl];

    /// A word whose lane `i` holds `vals[i % vals.len()]` — lanes
    /// enumerate a cross product when the callers stride the inputs.
    fn lanes_of(vals: &[Value]) -> PackedWord {
        let mut w = PackedWord::NOINFL;
        for l in 0..LANES {
            w.set(l, vals[l % vals.len()]);
        }
        w
    }

    /// Two words whose lanes together enumerate all 16 value pairs.
    fn all_pairs() -> (PackedWord, PackedWord, Vec<(Value, Value)>) {
        let mut a = PackedWord::NOINFL;
        let mut b = PackedWord::NOINFL;
        let mut pairs = Vec::new();
        for (l, (x, y)) in ALL
            .iter()
            .flat_map(|&x| ALL.iter().map(move |&y| (x, y)))
            .enumerate()
        {
            a.set(l, x);
            b.set(l, y);
            pairs.push((x, y));
        }
        (a, b, pairs)
    }

    #[test]
    fn splat_get_set_round_trip() {
        for &v in &ALL {
            let w = PackedWord::splat(v);
            for l in 0..LANES {
                assert_eq!(w.get(l), v);
            }
        }
        let mut w = PackedWord::NOINFL;
        for (l, &v) in ALL.iter().cycle().take(LANES).enumerate() {
            w.set(l, v);
        }
        for l in 0..LANES {
            assert_eq!(w.get(l), ALL[l % 4]);
        }
    }

    #[test]
    fn not_matches_scalar_table() {
        let w = lanes_of(&ALL);
        let n = w.not();
        for l in 0..LANES {
            assert_eq!(n.get(l), w.get(l).not(), "lane {l}");
        }
    }

    #[test]
    fn boolean_view_matches_scalar() {
        let w = lanes_of(&ALL);
        let b = w.to_boolean();
        for l in 0..LANES {
            assert_eq!(b.get(l), w.get(l).to_boolean());
        }
    }

    #[test]
    fn binary_gates_match_scalar_truth_tables() {
        let (a, b, pairs) = all_pairs();
        let and = PackedWord::and_fold([a, b]);
        let or = PackedWord::or_fold([a, b]);
        let nand = PackedWord::nand_fold([a, b]);
        let nor = PackedWord::nor_fold([a, b]);
        let xor = PackedWord::xor_fold([a, b]);
        for (l, &(x, y)) in pairs.iter().enumerate() {
            assert_eq!(and.get(l), value::and([x, y]), "AND({x},{y})");
            assert_eq!(or.get(l), value::or([x, y]), "OR({x},{y})");
            assert_eq!(nand.get(l), value::nand([x, y]), "NAND({x},{y})");
            assert_eq!(nor.get(l), value::nor([x, y]), "NOR({x},{y})");
            assert_eq!(xor.get(l), value::xor([x, y]), "XOR({x},{y})");
        }
    }

    #[test]
    fn empty_folds_have_neutral_elements() {
        assert_eq!(PackedWord::and_fold([]), PackedWord::ONE);
        assert_eq!(PackedWord::or_fold([]), PackedWord::ZERO);
        assert_eq!(PackedWord::xor_fold([]), PackedWord::ZERO);
    }

    #[test]
    fn ternary_gates_match_scalar() {
        // All 64 (x, y, z) triples, one per lane.
        let mut a = PackedWord::NOINFL;
        let mut b = PackedWord::NOINFL;
        let mut c = PackedWord::NOINFL;
        let mut triples = Vec::new();
        for (l, ((x, y), z)) in ALL
            .iter()
            .flat_map(|&x| ALL.iter().map(move |&y| (x, y)))
            .flat_map(|p| ALL.iter().map(move |&z| (p, z)))
            .enumerate()
        {
            a.set(l, x);
            b.set(l, y);
            c.set(l, z);
            triples.push((x, y, z));
        }
        let and = PackedWord::and_fold([a, b, c]);
        let or = PackedWord::or_fold([a, b, c]);
        let xor = PackedWord::xor_fold([a, b, c]);
        for (l, &(x, y, z)) in triples.iter().enumerate() {
            assert_eq!(and.get(l), value::and([x, y, z]));
            assert_eq!(or.get(l), value::or([x, y, z]));
            assert_eq!(xor.get(l), value::xor([x, y, z]));
        }
    }

    #[test]
    fn if_select_matches_scalar_semantics() {
        let (cond, data, pairs) = all_pairs();
        let out = PackedWord::if_select(cond, data);
        for (l, &(c, d)) in pairs.iter().enumerate() {
            let expect = match c {
                Value::Zero => Value::NoInfl,
                Value::One => d,
                _ => Value::Undef,
            };
            assert_eq!(out.get(l), expect, "IF({c}, {d})");
        }
    }

    #[test]
    fn bridge_resolution_matches_scalar() {
        let (a, b, pairs) = all_pairs();
        let res = PackedWord::resolve_bridge(a, b);
        for (l, &(x, y)) in pairs.iter().enumerate() {
            let expect = if x == y {
                x
            } else if x == Value::NoInfl {
                y
            } else if y == Value::NoInfl {
                x
            } else {
                Value::Undef
            };
            assert_eq!(res.get(l), expect, "resolve({x},{y})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random n-ary gate folds agree with the scalar fold lane by
        /// lane (NOINFL propagation included: inputs range over all four
        /// values).
        #[test]
        fn nary_folds_match_scalar(
            arity in 1usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let inputs: Vec<PackedWord> = (0..arity)
                .map(|_| {
                    let mut w = PackedWord::NOINFL;
                    for l in 0..LANES {
                        w.set(l, ALL[rng.gen_range(0..4usize)]);
                    }
                    w
                })
                .collect();
            let and = PackedWord::and_fold(inputs.iter().copied());
            let or = PackedWord::or_fold(inputs.iter().copied());
            let nand = PackedWord::nand_fold(inputs.iter().copied());
            let nor = PackedWord::nor_fold(inputs.iter().copied());
            let xor = PackedWord::xor_fold(inputs.iter().copied());
            for l in 0..LANES {
                let scalars: Vec<Value> = inputs.iter().map(|w| w.get(l)).collect();
                prop_assert_eq!(and.get(l), value::and(scalars.iter().copied()));
                prop_assert_eq!(or.get(l), value::or(scalars.iter().copied()));
                prop_assert_eq!(nand.get(l), value::nand(scalars.iter().copied()));
                prop_assert_eq!(nor.get(l), value::nor(scalars.iter().copied()));
                prop_assert_eq!(xor.get(l), value::xor(scalars.iter().copied()));
            }
        }

        /// EQUAL over random widths agrees with the scalar reduction.
        #[test]
        fn equal_reduce_matches_scalar(
            width in 0usize..5,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut draw = |_| {
                let mut w = PackedWord::NOINFL;
                for l in 0..LANES {
                    w.set(l, ALL[rng.gen_range(0..4usize)]);
                }
                w
            };
            let a: Vec<PackedWord> = (0..width).map(&mut draw).collect();
            let b: Vec<PackedWord> = (0..width).map(&mut draw).collect();
            let out = PackedWord::equal_reduce(&a, &b);
            for l in 0..LANES {
                let av: Vec<Value> = a.iter().map(|w| w.get(l)).collect();
                let bv: Vec<Value> = b.iter().map(|w| w.get(l)).collect();
                prop_assert_eq!(out.get(l), value::equal(&av, &bv), "lane {}", l);
            }
        }

        /// Driver resolution: merging random drive sequences through the
        /// packed conflict masks agrees with the scalar `Resolution` fold
        /// in every lane.
        #[test]
        fn packed_drive_matches_scalar_resolution(
            drivers in 1usize..5,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let contribs: Vec<PackedWord> = (0..drivers)
                .map(|_| {
                    let mut w = PackedWord::NOINFL;
                    for l in 0..LANES {
                        w.set(l, ALL[rng.gen_range(0..4usize)]);
                    }
                    w
                })
                .collect();
            // Replay the packed drive merge.
            let mut value = PackedWord::NOINFL;
            let mut once = 0u64;
            let mut multi = 0u64;
            for v in &contribs {
                let m = v.active();
                if m == 0 {
                    continue;
                }
                let dup = once & m;
                multi |= dup;
                once |= m;
                value = v.select(m, value);
                value.lo |= multi;
                value.hi |= multi;
            }
            for l in 0..LANES {
                let r = value::resolve(contribs.iter().map(|w| w.get(l)));
                prop_assert_eq!(value.get(l), r.value, "lane {}", l);
                prop_assert_eq!((multi >> l) & 1 == 1, r.conflicted(), "lane {}", l);
            }
        }
    }

    // ------------------------------------------------------------------
    // Whole-simulator equivalence on small designs
    // ------------------------------------------------------------------

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).expect("parse"), top, &[]).expect("elaborate")
    }

    const HALFADDER: &str = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := XOR(a,b); cout := AND(a,b) END;";

    #[test]
    fn packed_halfadder_matches_scalar_per_lane() {
        let d = design(HALFADDER, "halfadder");
        let mut packed = PackedSim::new(d.clone()).unwrap();
        // Lane layout: lane = a + 4*b over all 16 (a,b) value pairs.
        let (a, b, pairs) = all_pairs();
        let na = d.names["halfadder.a"];
        let nb = d.names["halfadder.b"];
        packed.force(na, a);
        packed.force(nb, b);
        packed.step();
        for (l, &(x, y)) in pairs.iter().enumerate() {
            let mut scalar = Simulator::new(d.clone()).unwrap();
            scalar.force(na, x);
            scalar.force(nb, y);
            scalar.step();
            assert_eq!(
                packed.port_lane("s", l),
                scalar.port("s"),
                "s lane {l}: a={x} b={y}"
            );
            assert_eq!(packed.port_lane("cout", l), scalar.port("cout"));
        }
    }

    #[test]
    fn packed_register_latches_per_lane() {
        let d = design(
            "TYPE t = COMPONENT (IN d, en: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; \
             BEGIN IF en THEN r.in := d END; q := r.out END;",
            "t",
        );
        let mut sim = PackedSim::new(d.clone()).unwrap();
        let nd = d.names["t.d"];
        let ne = d.names["t.en"];
        // Lane 0 latches 1, lane 1 keeps UNDEF (enable low → NOINFL in).
        let mut dw = PackedWord::NOINFL;
        dw.set(0, Value::One);
        dw.set(1, Value::One);
        let mut en = PackedWord::NOINFL;
        en.set(0, Value::One);
        en.set(1, Value::Zero);
        sim.force(nd, dw);
        sim.force(ne, en);
        sim.step();
        sim.step();
        assert_eq!(sim.port_lane("q", 0), vec![Value::One]);
        assert_eq!(sim.port_lane("q", 1), vec![Value::Undef]);
    }

    #[test]
    fn per_lane_stuck_faults_are_independent() {
        let d = design(HALFADDER, "halfadder");
        let mut sim = PackedSim::new(d.clone()).unwrap();
        let cout = d.names["halfadder.cout"];
        sim.inject_lanes(Fault::stuck_at_1(cout), 1 << 3).unwrap();
        sim.set_port("a", &[Value::Zero]).unwrap();
        sim.set_port("b", &[Value::Zero]).unwrap();
        sim.step();
        assert_eq!(sim.port_lane("cout", 3), vec![Value::One], "faulty lane");
        assert_eq!(sim.port_lane("cout", 0), vec![Value::Zero], "clean lane");
        assert_eq!(sim.port_lane("cout", 63), vec![Value::Zero]);
    }

    #[test]
    fn per_lane_transient_flip_hits_one_cycle() {
        let d = design(HALFADDER, "halfadder");
        let mut sim = PackedSim::new(d.clone()).unwrap();
        let s = d.names["halfadder.s"];
        sim.inject_lanes(Fault::transient_flip(s, 1), 1 << 7)
            .unwrap();
        sim.set_port("a", &[Value::One]).unwrap();
        sim.set_port("b", &[Value::Zero]).unwrap();
        sim.step();
        assert_eq!(sim.port_lane("s", 7), vec![Value::One], "cycle 0: no flip");
        sim.step();
        assert_eq!(sim.port_lane("s", 7), vec![Value::Zero], "cycle 1: SEU");
        assert_eq!(sim.port_lane("s", 6), vec![Value::One], "clean lane");
        sim.step();
        assert_eq!(sim.port_lane("s", 7), vec![Value::One], "cycle 2: gone");
    }

    #[test]
    fn per_lane_bridge_matches_scalar() {
        let d = design(HALFADDER, "halfadder");
        let cout = d.names["halfadder.cout"];
        let s = d.names["halfadder.s"];
        let mut packed = PackedSim::new(d.clone()).unwrap();
        packed.inject_lanes(Fault::bridge(cout, s), 1 << 5).unwrap();
        for (a, b) in [(true, false), (true, true), (false, false)] {
            let mut scalar = Simulator::new(d.clone()).unwrap();
            scalar.inject(Fault::bridge(cout, s)).unwrap();
            scalar.set_port_bit("a", Value::from_bool(a)).unwrap();
            scalar.set_port_bit("b", Value::from_bool(b)).unwrap();
            scalar.step();
            packed.set_port("a", &[Value::from_bool(a)]).unwrap();
            packed.set_port("b", &[Value::from_bool(b)]).unwrap();
            packed.step();
            assert_eq!(packed.port_lane("s", 5), scalar.port("s"), "a={a} b={b}");
            assert_eq!(packed.port_lane("cout", 5), scalar.port("cout"));
            // A clean lane sees the fault-free values.
            let mut clean = Simulator::new(d.clone()).unwrap();
            clean.set_port_bit("a", Value::from_bool(a)).unwrap();
            clean.set_port_bit("b", Value::from_bool(b)).unwrap();
            clean.step();
            assert_eq!(packed.port_lane("s", 0), clean.port("s"));
            assert_eq!(
                packed.lane_sweeps()[5],
                scalar.sweeps_last_cycle(),
                "lane 5 sweep count must match the scalar fixpoint"
            );
        }
    }

    #[test]
    fn packed_conflicts_match_scalar_lanes() {
        let d = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT q: boolean) IS \
             SIGNAL h: multiplex; \
             BEGIN IF a THEN h := 1 END; IF b THEN h := 0 END; q := h END;",
            "t",
        );
        let mut sim = PackedSim::new(d.clone()).unwrap();
        let na = d.names["t.a"];
        let nb = d.names["t.b"];
        // Lane 0: both switches closed (conflict); lane 1: only one;
        // other lanes: both open (a NOINFL condition would make the IF
        // contribute UNDEF and conflict, like the scalar engine).
        let mut a = PackedWord::ZERO;
        a.set(0, Value::One);
        a.set(1, Value::One);
        let mut b = PackedWord::ZERO;
        b.set(0, Value::One);
        sim.force(na, a);
        sim.force(nb, b);
        let r = sim.step();
        assert_eq!(r.conflicts.len(), 1);
        assert_eq!(r.conflicts[0].lanes, 1, "only lane 0 conflicts");
        assert_eq!(sim.port_lane("q", 0), vec![Value::Undef]);
        assert_eq!(sim.port_lane("q", 1), vec![Value::One]);
    }

    #[test]
    fn random_broadcast_matches_scalar_stream() {
        let d = design(
            "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS \
             BEGIN q := RANDOM() END;",
            "t",
        );
        let mut packed = PackedSim::new(d.clone()).unwrap();
        let mut scalar = Simulator::new(d).unwrap();
        packed.reseed(99);
        scalar.reseed(99);
        for cyc in 0..32 {
            packed.step();
            scalar.step();
            assert_eq!(packed.port_lane("q", 17), scalar.port("q"), "cycle {cyc}");
        }
    }

    #[test]
    fn packed_budget_bills_per_word() {
        let d = design(HALFADDER, "halfadder");
        let nodes = d.netlist.node_count() as u64;
        // Enough fuel for exactly one cycle of one word.
        let limits = Limits::default().with_fuel(nodes + 1);
        let mut sim = PackedSim::with_limits(d, &limits).unwrap();
        sim.try_step().expect("one word-cycle fits the budget");
        let err = sim.try_step().expect_err("second cycle exceeds it");
        assert!(err.is_resource_limit());
    }
}
