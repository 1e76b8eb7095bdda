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
//! topological sweep, the same single-active-assignment rule (per-net
//! driven-once/driven-twice lane masks instead of a counter), the same
//! per-lane fault clamps, and the same bridge fixpoint — so any one lane
//! of a packed run is bit-identical to a scalar run with the same seed.
//! RANDOM nodes draw one bit per cycle and broadcast it to all lanes,
//! matching a scalar campaign where every fault's simulator is reseeded
//! with the same seed.
//!
//! A simulator is split in two. The design, compiled once into a flat
//! op-coded instruction stream over `u32` net indices, is immutable and
//! shared by every clone through an `Arc`; the value planes, registers,
//! forces and fault tables are per instance. Fault tables are dense (a
//! per-net slot into a short list of faulted sites), so a faulted sweep
//! never hashes and clearing the faults costs time in the number
//! injected, not in the size of the design.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use zeus_elab::{find_port, Design, Fault, FaultKind, Limits, NetId, NodeOp, StepBudget};
use zeus_sema::value::Value;
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

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
        PackedWord::equal_pairs(a.iter().copied().zip(b.iter().copied()))
    }

    /// [`PackedWord::equal_reduce`] over the operand pairs.
    fn equal_pairs(pairs: impl IntoIterator<Item = (PackedWord, PackedWord)>) -> PackedWord {
        let mut zero = 0u64;
        let mut all_eq = !0u64;
        for (x, y) in pairs {
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

/// Marks a net with no entry in a dense slot table.
const NONE: u32 = u32::MAX;

/// The lane indices set in `mask`, ascending.
#[inline]
pub fn lanes_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// The operation of one compiled node.
#[derive(Debug, Clone, Copy)]
enum Op {
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Not,
    /// Operand width: the first `width` inputs are compared with the rest.
    Equal(u32),
    Buf,
    If,
    Const(Value),
    Random,
}

/// One combinational node: its operation, output net and the range of
/// its input nets in [`Program::args`].
#[derive(Debug, Clone, Copy)]
struct Instr {
    op: Op,
    out: u32,
    start: u32,
    end: u32,
}

/// The compiled, immutable part of a packed simulator, shared by every
/// clone: the design plus its levelized sweep as a flat instruction
/// stream over `u32` net indices.
#[derive(Debug)]
struct Program {
    design: Design,
    /// Length of the topological order, the unit fuel is billed in.
    order_len: usize,
    /// The combinational nodes in topological order.
    code: Vec<Instr>,
    /// Input net indices of every instruction, back to back.
    args: Vec<u32>,
    /// `(input net, output net)` of every register, in
    /// `netlist.registers()` order.
    regs: Vec<(u32, u32)>,
    /// Each port's nets, canonicalized, in `design.ports` order.
    ports: Vec<Vec<u32>>,
}

impl Program {
    fn compile(design: Design) -> Result<Program, Diagnostic> {
        let nl = &design.netlist;
        let order = nl.topo_order()?;
        let mut code = Vec::with_capacity(order.len());
        let mut args = Vec::new();
        for &id in &order {
            let node = &nl.nodes[id.index()];
            let op = match node.op {
                NodeOp::And => Op::And,
                NodeOp::Or => Op::Or,
                NodeOp::Nand => Op::Nand,
                NodeOp::Nor => Op::Nor,
                NodeOp::Xor => Op::Xor,
                NodeOp::Not => Op::Not,
                NodeOp::Equal { width } => Op::Equal(u32::try_from(width).unwrap_or(u32::MAX)),
                NodeOp::Buf => Op::Buf,
                NodeOp::If => Op::If,
                NodeOp::Const(v) => Op::Const(v),
                NodeOp::Random => Op::Random,
                NodeOp::Reg => continue,
            };
            let start = args.len();
            args.extend(node.inputs.iter().map(|n| n.0));
            let index = |at: usize| {
                u32::try_from(at).map_err(|_| {
                    Diagnostic::error(
                        Span::dummy(),
                        "design too large for the packed engine (over 2^32 node inputs)",
                    )
                })
            };
            code.push(Instr {
                op,
                out: node.output.0,
                start: index(start)?,
                end: index(args.len())?,
            });
        }
        let regs = nl
            .registers()
            .map(|id| {
                let node = &nl.nodes[id.index()];
                (node.inputs[0].0, node.output.0)
            })
            .collect();
        let ports = design
            .ports
            .iter()
            .map(|p| p.nets.iter().map(|&n| nl.find_ref(n).0).collect())
            .collect();
        Ok(Program {
            order_len: order.len(),
            code,
            args,
            regs,
            ports,
            design,
        })
    }
}

/// The externally forced nets: a list to sweep plus a per-net slot
/// index into it, so forcing and releasing never hash.
#[derive(Debug, Clone)]
struct Forces {
    /// Forced net indices and their words, in no particular order (each
    /// net drives itself only, so the order cannot matter).
    list: Vec<(u32, PackedWord)>,
    /// Per net: its index in `list`, or [`NONE`].
    slot: Vec<u32>,
}

impl Forces {
    fn new(nets: usize) -> Forces {
        Forces {
            list: Vec::new(),
            slot: vec![NONE; nets],
        }
    }

    fn set(&mut self, net: NetId, w: PackedWord) {
        let i = net.index();
        match self.slot[i] {
            NONE => {
                self.slot[i] = self.list.len() as u32;
                self.list.push((net.0, w));
            }
            s => self.list[s as usize].1 = w,
        }
    }

    fn remove(&mut self, net: NetId) {
        let Some(&s) = self.slot.get(net.index()) else {
            return;
        };
        if s == NONE {
            return;
        }
        self.slot[net.index()] = NONE;
        self.list.swap_remove(s as usize);
        if let Some(&(moved, _)) = self.list.get(s as usize) {
            self.slot[moved as usize] = s;
        }
    }

    fn clear(&mut self) {
        for &(net, _) in &self.list {
            self.slot[net as usize] = NONE;
        }
        self.list.clear();
    }
}

/// The fault state of one faulted net, as lane masks.
#[derive(Debug, Clone, Copy)]
struct Site {
    net: u32,
    /// Stuck-at-0 lanes.
    stuck0: u64,
    /// Stuck-at-1 lanes.
    stuck1: u64,
    /// Lanes flipping in the cycle being evaluated.
    flip_now: u64,
    /// Lanes driven at least once this sweep (an unfaulted net reads
    /// this off its value's active lanes instead).
    once: u64,
    /// Lanes in which the net is an end of a bridge.
    bridged: u64,
    /// Natural (pre-clamp) value on the bridged lanes.
    natural: PackedWord,
    /// Lanes presenting the resolved bridge value.
    clamp_lanes: u64,
    /// The presented bridge value on the `clamp_lanes`.
    clamp_val: PackedWord,
}

impl Site {
    fn new(net: u32) -> Site {
        Site {
            net,
            stuck0: 0,
            stuck1: 0,
            flip_now: 0,
            once: 0,
            bridged: 0,
            natural: PackedWord::NOINFL,
            clamp_lanes: 0,
            clamp_val: PackedWord::NOINFL,
        }
    }

    /// The clamped value of the net at the start of a sweep, before
    /// anything drives it.
    fn undriven(&self) -> PackedWord {
        let w = PackedWord::ZERO.select(self.stuck0, PackedWord::NOINFL);
        let w = PackedWord::ONE.select(self.stuck1, w);
        self.clamp_val.select(self.clamp_lanes, w)
    }

    /// Re-applies the clamps to the net's value `w` on the lanes of `m`
    /// (the lanes a drive was active in). Mirrors the scalar
    /// `apply_fault_clamp`: stuck wins outright, a transient flip inverts
    /// the resolved value in its cycle, bridges record the natural value
    /// and present the currently resolved bridge value.
    #[inline]
    fn apply(&mut self, w: &mut PackedWord, m: u64) {
        let s = self.stuck0 | self.stuck1;
        if s != 0 {
            w.lo = (w.lo & !s) | self.stuck0;
            w.hi = (w.hi & !s) | self.stuck1;
        }
        let f = self.flip_now & m & !s;
        if f != 0 {
            *w = w.not().select(f, *w);
        }
        let rec = self.bridged & m;
        if rec != 0 {
            self.natural = w.select(rec, self.natural);
        }
        let c = self.clamp_lanes & m;
        if c != 0 {
            *w = self.clamp_val.select(c, *w);
        }
    }
}

/// The injected faults, in dense per-net tables: clearing them costs
/// time in the number of faults, not of nets.
#[derive(Debug, Clone)]
struct Faults {
    /// Injected faults with their lane masks, in injection order.
    list: Vec<(Fault, u64)>,
    /// Per net: its index in `sites`, or [`NONE`].
    slot: Vec<u32>,
    sites: Vec<Site>,
    /// Transient flips as `(site, cycle, lanes)`.
    flips: Vec<(u32, u64, u64)>,
    /// Injected bridges as `(site, site, lanes)`.
    bridges: Vec<(u32, u32, u64)>,
}

impl Faults {
    fn new(nets: usize) -> Faults {
        Faults {
            list: Vec::new(),
            slot: vec![NONE; nets],
            sites: Vec::new(),
            flips: Vec::new(),
            bridges: Vec::new(),
        }
    }

    /// The site of a (canonical, in-range) net, created on first use.
    fn site(&mut self, net: NetId) -> u32 {
        let i = net.index();
        if self.slot[i] == NONE {
            self.slot[i] = self.sites.len() as u32;
            self.sites.push(Site::new(net.0));
        }
        self.slot[i]
    }

    fn clear(&mut self) {
        for s in &self.sites {
            self.slot[s.net as usize] = NONE;
        }
        self.list.clear();
        self.sites.clear();
        self.flips.clear();
        self.bridges.clear();
    }

    /// Clears every presented bridge value.
    fn release_bridges(&mut self) {
        for s in &mut self.sites {
            s.clamp_lanes = 0;
            s.clamp_val = PackedWord::NOINFL;
        }
    }
}

/// The net planes one sweep writes, borrowed apart from the rest of the
/// simulator so the shared [`Program`] can be read alongside.
struct Nets<'a> {
    values: &'a mut [PackedWord],
    multi: &'a mut [u64],
    conflicted: &'a mut Vec<u32>,
    check_conflicts: bool,
    slot: &'a [u32],
    sites: &'a mut [Site],
}

impl Nets<'_> {
    /// Lane-masked drive of one net (the word-wide analogue of the
    /// scalar `drive`): inactive lanes do not count as drivers, a second
    /// active drive in a lane makes that lane UNDEF for the rest of the
    /// cycle, and with `FAULTY` a faulted net's clamps re-apply after
    /// every active drive.
    #[inline(always)]
    fn drive<const FAULTY: bool>(&mut self, i: usize, v: PackedWord) {
        let m = v.active();
        if m == 0 {
            return;
        }
        let s = if FAULTY { self.slot[i] } else { NONE };
        // Only drives change an unfaulted net within a sweep, so its
        // active lanes are exactly the lanes driven so far; a faulted
        // net, whose clamps activate lanes too, keeps count in its site.
        let once = match s {
            NONE => self.values[i].active(),
            s => {
                let site = &mut self.sites[s as usize];
                let once = site.once;
                site.once |= m;
                once
            }
        };
        let w = &mut self.values[i];
        *w = v.select(m, *w);
        if self.check_conflicts {
            let dup = once & m;
            if dup != 0 {
                if self.multi[i] == 0 {
                    self.conflicted.push(i as u32);
                }
                self.multi[i] |= dup;
            }
            // Conflicted lanes read UNDEF. An unfaulted net's stay UNDEF
            // until driven again, which `dup` covers; a faulted net's are
            // made UNDEF again at every drive of it, even where a clamp
            // replaced the UNDEF since.
            if dup != 0 || s != NONE {
                let multi = self.multi[i];
                let w = &mut self.values[i];
                w.lo |= multi;
                w.hi |= multi;
            }
        }
        if s != NONE {
            self.sites[s as usize].apply(&mut self.values[i], m);
        }
    }
}

/// The packed 64-lane Zeus simulator: the levelized sweep of
/// [`crate::Simulator`] evaluated word-wide, with per-lane fault
/// injection for parallel-fault campaigns.
///
/// The design and its compiled sweep are shared by every clone, so
/// cloning copies only the simulation state — the net planes,
/// registers, forces and fault tables. A campaign builds one fault-free
/// simulator and clones it per word of faults.
#[derive(Debug, Clone)]
pub struct PackedSim {
    prog: Arc<Program>,
    values: Vec<PackedWord>,
    /// Lanes driven more than once this sweep (conflicts), per net.
    multi: Vec<u64>,
    /// The nets with a nonzero `multi` entry, in conflict order.
    conflicted: Vec<u32>,
    /// Stored register values, parallel to `prog.regs`.
    regs: Vec<PackedWord>,
    forces: Forces,
    cycle: u64,
    rng: StdRng,
    check_conflicts: bool,
    budget: StepBudget,
    faults: Faults,
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
        let prog = Arc::new(Program::compile(design)?);
        let n = prog.design.netlist.net_count();
        let mut sim = PackedSim {
            values: vec![PackedWord::NOINFL; n],
            multi: vec![0; n],
            conflicted: Vec::new(),
            regs: vec![PackedWord::UNDEF; prog.regs.len()],
            forces: Forces::new(n),
            cycle: 0,
            rng: StdRng::seed_from_u64(0x2E05_1983),
            check_conflicts: true,
            budget: StepBudget::new(limits),
            faults: Faults::new(n),
            lane_sweeps: [1; LANES],
            unstable_last_cycle: 0,
            ever_unstable: 0,
            prog,
        };
        sim.drive_clock_defaults();
        Ok(sim)
    }

    /// The default CLK/RSET drives: CLK high, RSET low.
    fn drive_clock_defaults(&mut self) {
        if let Some(clk) = self.prog.design.clk {
            self.forces.set(clk, PackedWord::ONE);
        }
        if let Some(rset) = self.prog.design.rset {
            self.forces.set(rset, PackedWord::ZERO);
        }
    }

    /// The elaborated design being simulated.
    pub fn design(&self) -> &Design {
        &self.prog.design
    }

    /// The number of combinational node evaluations per sweep (the unit
    /// the scalar simulator charges fuel in).
    pub fn order_len(&self) -> usize {
        self.prog.order_len
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
    ///
    /// # Panics
    ///
    /// If `net` is not a net of this design.
    pub fn force(&mut self, net: NetId, w: PackedWord) {
        self.forces.set(net, w);
    }

    /// Stops forcing a net.
    pub fn release(&mut self, net: NetId) {
        self.forces.remove(net);
    }

    /// Drives the predefined RSET signal in every lane.
    pub fn set_rset(&mut self, v: bool) {
        if let Some(r) = self.prog.design.rset {
            self.forces.set(r, PackedWord::splat(Value::from_bool(v)));
        }
    }

    /// Drives the predefined CLK signal in every lane.
    pub fn set_clk(&mut self, v: bool) {
        if let Some(c) = self.prog.design.clk {
            self.forces.set(c, PackedWord::splat(Value::from_bool(v)));
        }
    }

    /// Sets a whole port in every lane (bit 1 first, LSB-first).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the port does not exist or the width does
    /// not match.
    pub fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic> {
        let (_, port) = find_port(&self.prog.design.ports, name)?;
        port.check_width(bits.len())?;
        for (&net, &v) in port.nets.iter().zip(bits) {
            self.forces.set(net, PackedWord::splat(v));
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
        let bits = find_port(&self.prog.design.ports, name)?.1.encode(v)?;
        self.set_port(name, &bits)
    }

    /// Reads one lane of a port (boolean view, like
    /// [`crate::Simulator::port`]).
    pub fn port_lane(&self, name: &str, lane: usize) -> Vec<Value> {
        match self.prog.design.ports.iter().position(|p| p.name == name) {
            Some(p) => self.prog.ports[p]
                .iter()
                .map(|&n| self.values[n as usize].get(lane).to_boolean())
                .collect(),
            None => Vec::new(),
        }
    }

    /// Raw resolved packed value of a net in the current cycle.
    pub fn value(&self, net: NetId) -> PackedWord {
        let rep = self.prog.design.netlist.find_ref(net);
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
        let nl = &self.prog.design.netlist;
        let n = nl.net_count();
        let canon = |net: NetId| -> Result<NetId, Diagnostic> {
            if net.index() >= n {
                return Err(Diagnostic::error(
                    Span::dummy(),
                    format!("fault site {net} is not a net of this design ({n} nets)"),
                ));
            }
            Ok(nl.find_ref(net))
        };
        let site = canon(fault.site)?;
        let kind = match fault.kind {
            FaultKind::BridgeWith(other) => FaultKind::BridgeWith(canon(other)?),
            k => k,
        };
        self.insert_fault(Fault { site, kind }, lanes);
        Ok(())
    }

    /// Enters a fault whose nets are canonical into the tables of the
    /// lanes of `lanes`.
    fn insert_fault(&mut self, fault: Fault, lanes: u64) {
        let Fault { site, kind } = fault;
        let f = &mut self.faults;
        match kind {
            FaultKind::StuckAt0 => {
                // A later stuck-at on the same lane wins, like the scalar
                // HashMap insert.
                let i = f.site(site) as usize;
                let s = &mut f.sites[i];
                s.stuck1 &= !lanes;
                s.stuck0 |= lanes;
            }
            FaultKind::StuckAt1 => {
                let i = f.site(site) as usize;
                let s = &mut f.sites[i];
                s.stuck0 &= !lanes;
                s.stuck1 |= lanes;
            }
            FaultKind::TransientFlip { cycle } => {
                // So does a later flip: it replaces the lane's cycle.
                let s = f.site(site);
                for (_, _, m) in f.flips.iter_mut().filter(|e| e.0 == s) {
                    *m &= !lanes;
                }
                f.flips.push((s, cycle, lanes));
            }
            FaultKind::BridgeWith(other) => {
                if other != site {
                    let (a, b) = (f.site(site), f.site(other));
                    f.bridges.push((a, b, lanes));
                    f.sites[a as usize].bridged |= lanes;
                    f.sites[b as usize].bridged |= lanes;
                }
            }
        }
        f.list.push((fault, lanes));
    }

    /// Removes all injected faults from all lanes, in time proportional
    /// to the number injected.
    pub fn clear_faults(&mut self) {
        self.faults.clear();
        self.unstable_last_cycle = 0;
        self.ever_unstable = 0;
    }

    /// Keeps the injected faults of the lanes in `mask` only, in their
    /// injection order: every other lane runs fault-free from the next
    /// step on and forgets that it oscillated. Costs time in the number
    /// of faults injected.
    pub fn retain_lanes(&mut self, mask: u64) {
        let list = std::mem::take(&mut self.faults.list);
        self.faults.clear();
        for (fault, lanes) in list {
            if lanes & mask != 0 {
                self.insert_fault(fault, lanes & mask);
            }
        }
        self.unstable_last_cycle &= mask;
        self.ever_unstable &= mask;
    }

    /// Moves lane `from` of `src` into lane `to` of this simulator: the
    /// lane's injected faults (in their order), its register bits and
    /// its oscillation record. Lane `to` must carry no faults, and both
    /// simulators must be clones of one simulator stepped through the
    /// same cycles with the same forces, as the words of a fault
    /// campaign are: the net planes are rebuilt by every sweep and the
    /// RANDOM stream is shared, so from the next step on lane `to`
    /// computes exactly what lane `from` would have.
    pub fn adopt_lane(&mut self, src: &PackedSim, from: usize, to: usize) {
        debug_assert!(Arc::ptr_eq(&self.prog, &src.prog), "one design");
        debug_assert_eq!(self.cycle, src.cycle, "one cycle");
        let (f, t) = (1u64 << from, 1u64 << to);
        debug_assert!(self.faults.list.iter().all(|&(_, m)| m & t == 0));
        for &(fault, lanes) in &src.faults.list {
            if lanes & f != 0 {
                self.insert_fault(fault, t);
            }
        }
        for (r, s) in self.regs.iter_mut().zip(&src.regs) {
            r.set(to, s.get(from));
        }
        let carry = |dst: u64, src: u64| (dst & !t) | (((src >> from) & 1) << to);
        self.unstable_last_cycle = carry(self.unstable_last_cycle, src.unstable_last_cycle);
        self.ever_unstable = carry(self.ever_unstable, src.ever_unstable);
    }

    /// The injected faults with their lane masks, in injection order.
    pub fn injected_faults(&self) -> &[(Fault, u64)] {
        &self.faults.list
    }

    /// Resets registers to UNDEF in every lane, the cycle counter to 0,
    /// and clears every outstanding force (restoring the default CLK/RSET
    /// drives). Injected faults are *not* cleared, matching
    /// [`crate::Simulator::reset_state`].
    pub fn reset_state(&mut self) {
        self.regs.fill(PackedWord::UNDEF);
        self.cycle = 0;
        self.forces.clear();
        self.drive_clock_defaults();
        self.faults.release_bridges();
        for s in &mut self.faults.sites {
            s.natural = PackedWord::NOINFL;
        }
        self.unstable_last_cycle = 0;
        self.ever_unstable = 0;
    }

    /// Simulates one packed clock cycle: one levelized sweep for all 64
    /// lanes (with the bridge fixpoint re-sweeping lanes that need it),
    /// then latches registers lane-wise and reports conflicts.
    pub fn step(&mut self) -> PackedCycleReport {
        let f = &mut self.faults;
        for &(s, _, _) in &f.flips {
            f.sites[s as usize].flip_now = 0;
        }
        for &(s, c, lanes) in &f.flips {
            if c == self.cycle {
                f.sites[s as usize].flip_now |= lanes;
            }
        }

        if f.list.is_empty() {
            self.lane_sweeps = [1; LANES];
            self.unstable_last_cycle = 0;
            self.eval_cycle::<false>();
        } else {
            self.eval_cycle_faulty();
        }

        // Latch registers lane-wise: a lane keeps its stored value when
        // its input lane is NOINFL (§5.1).
        for (r, &(inp, _)) in self.regs.iter_mut().zip(&self.prog.regs) {
            let v = self.values[inp as usize];
            *r = v.select(v.active(), *r);
        }

        let mut conflicts = Vec::new();
        if self.check_conflicts {
            self.conflicted.sort_unstable();
            for &i in &self.conflicted {
                conflicts.push(PackedConflict {
                    cycle: self.cycle,
                    net: NetId(i),
                    name: self.prog.design.netlist.nets[i as usize].name.clone(),
                    lanes: self.multi[i as usize],
                });
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
        let order = self.prog.order_len as u64;
        self.budget.begin_cycle()?;
        self.budget.charge_work(order)?;
        let report = self.step();
        let max_sweeps = *self.lane_sweeps.iter().max().unwrap_or(&1);
        if max_sweeps > 1 {
            self.budget.charge_work((max_sweeps as u64 - 1) * order)?;
        }
        Ok(report)
    }

    /// One full packed evaluation sweep (the word-wide analogue of the
    /// scalar `eval_cycle`): clear the planes, present the fault clamps
    /// (with `FAULTY`), drive the forced nets and register outputs, then
    /// run the compiled instruction stream.
    fn eval_cycle<const FAULTY: bool>(&mut self) {
        let prog = &*self.prog;
        self.values.fill(PackedWord::NOINFL);
        for i in self.conflicted.drain(..) {
            self.multi[i as usize] = 0;
        }
        if FAULTY {
            // Clamps apply even to nets nothing drives this cycle.
            for s in &mut self.faults.sites {
                self.values[s.net as usize] = s.undriven();
                s.natural = PackedWord::NOINFL;
                s.once = 0;
            }
        }
        let mut nets = Nets {
            values: &mut self.values,
            multi: &mut self.multi,
            conflicted: &mut self.conflicted,
            check_conflicts: self.check_conflicts,
            slot: &self.faults.slot,
            sites: &mut self.faults.sites,
        };
        for &(net, w) in &self.forces.list {
            nets.drive::<FAULTY>(net as usize, w);
        }
        for (&(_, out), &w) in prog.regs.iter().zip(&self.regs) {
            nets.drive::<FAULTY>(out as usize, w);
        }

        for ins in &prog.code {
            let args = &prog.args[ins.start as usize..ins.end as usize];
            let vals = &*nets.values;
            let input = |k: usize| vals[args[k] as usize];
            let all = || args.iter().map(|&n| vals[n as usize]);
            let v = match ins.op {
                Op::And => PackedWord::and_fold(all()),
                Op::Or => PackedWord::or_fold(all()),
                Op::Nand => PackedWord::nand_fold(all()),
                Op::Nor => PackedWord::nor_fold(all()),
                Op::Xor => PackedWord::xor_fold(all()),
                Op::Not => input(0).not(),
                Op::Equal(width) => {
                    let (a, b) = args.split_at(width as usize);
                    PackedWord::equal_pairs(
                        a.iter()
                            .zip(b)
                            .map(|(&x, &y)| (vals[x as usize], vals[y as usize])),
                    )
                }
                Op::Buf => input(0),
                Op::If => PackedWord::if_select(input(0), input(1)),
                Op::Const(c) => PackedWord::splat(c),
                Op::Random => PackedWord::splat(Value::from_bool(self.rng.gen())),
            };
            nets.drive::<FAULTY>(ins.out as usize, v);
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
        self.faults.release_bridges();

        let mut cap = [2u32; LANES];
        let mut bridge_lanes = 0u64;
        for &(_, _, lanes) in &self.faults.bridges {
            bridge_lanes |= lanes;
            for l in lanes_in(lanes) {
                cap[l] += 2;
            }
        }

        let mut settled = [1u32; LANES];
        let mut pending = bridge_lanes;
        let mut sweeps: u32 = 0;
        loop {
            self.rng = rng_start.clone();
            self.eval_cycle::<true>();
            sweeps += 1;
            let Faults { sites, bridges, .. } = &mut self.faults;
            if bridges.is_empty() {
                break;
            }

            // Stability check and clamp update, bridge by bridge (the
            // same pass structure as the scalar loop, lane-masked).
            let mut unstable = 0u64;
            for &(a, b, lanes) in bridges.iter() {
                let natural = |s: u32| {
                    let nat = sites[s as usize].natural;
                    PackedWord {
                        lo: nat.lo & lanes,
                        hi: nat.hi & lanes,
                    }
                };
                let res = PackedWord::resolve_bridge(natural(a), natural(b));
                for s in [a, b] {
                    let site = &mut sites[s as usize];
                    unstable |= lanes & self.values[site.net as usize].diff(res);
                    site.clamp_lanes = (site.clamp_lanes & !lanes) | (res.active() & lanes);
                    site.clamp_val = res.select(lanes, site.clamp_val);
                }
            }

            for l in lanes_in(pending & !unstable) {
                settled[l] = sweeps;
            }
            pending &= unstable;
            if pending == 0 {
                break;
            }

            // Lanes over their cap oscillate: X-fill their bridge ends
            // and give them one final sweep.
            let overdue = lanes_in(pending)
                .filter(|&l| sweeps >= cap[l])
                .fold(0u64, |m, l| m | 1 << l);
            if overdue != 0 {
                self.unstable_last_cycle |= overdue;
                self.ever_unstable |= overdue;
                for &(a, b, lanes) in bridges.iter() {
                    let x = lanes & overdue;
                    for s in [a, b] {
                        let site = &mut sites[s as usize];
                        site.clamp_lanes |= x;
                        site.clamp_val.lo |= x;
                        site.clamp_val.hi |= x;
                    }
                }
                pending &= !overdue;
                for l in lanes_in(overdue) {
                    settled[l] = sweeps + 1;
                }
                if pending == 0 {
                    // The dedicated final sweep for the X-filled lanes
                    // (already counted into their `settled` stamps).
                    self.rng = rng_start.clone();
                    self.eval_cycle::<true>();
                    break;
                }
                // Other lanes are still iterating: the next loop sweep
                // doubles as the final sweep for the X-filled lanes.
            }
        }
        self.lane_sweeps = settled;
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

    // ------------------------------------------------------------------
    // Fault-table behaviour, lane by lane against the scalar engine
    // ------------------------------------------------------------------

    /// Gates, an internal net, a register and a multiplex net `m` that
    /// two switches drive at once when `a` and `c` are both 1, so
    /// stuck-ats, flips and bridges reach the outputs through logic,
    /// state and runtime conflicts.
    const FAULTABLE: &str = "TYPE t = COMPONENT (IN a,b,c: boolean; OUT x,y,z: boolean) IS \
         SIGNAL r: REG; h: boolean; m: multiplex; \
         BEGIN h := XOR(b,c); IF a THEN m := b END; IF c THEN m := h END; \
         x := AND(m,h); y := OR(b,c); r.in := NAND(a,m); z := XOR(r.out, h) END;";

    /// One packed simulator plus, for each lane of interest, a scalar
    /// simulator carrying exactly the faults injected into that lane.
    struct Lockstep {
        design: Design,
        packed: PackedSim,
        lanes: Vec<(usize, Simulator)>,
    }

    impl Lockstep {
        fn new(design: &Design, lanes: &[usize]) -> Lockstep {
            Lockstep {
                design: design.clone(),
                packed: PackedSim::new(design.clone()).unwrap(),
                lanes: lanes
                    .iter()
                    .map(|&l| (l, Simulator::new(design.clone()).unwrap()))
                    .collect(),
            }
        }

        fn net(&self, name: &str) -> NetId {
            self.design.names[&format!("t.{name}")]
        }

        fn inject(&mut self, fault: Fault, mask: u64) {
            self.packed.inject_lanes(fault, mask).unwrap();
            for (l, s) in &mut self.lanes {
                if (mask >> *l) & 1 == 1 {
                    s.inject(fault).unwrap();
                }
            }
        }

        fn clear_faults(&mut self) {
            self.packed.clear_faults();
            for (_, s) in &mut self.lanes {
                s.clear_faults();
            }
        }

        /// Steps every simulator on inputs `abc` and compares every port,
        /// every net's raw value, the conflicted nets and the sweep count,
        /// lane by lane.
        fn step(&mut self, abc: [bool; 3]) {
            for (port, v) in ["a", "b", "c"].into_iter().zip(abc) {
                let bit = [Value::from_bool(v)];
                self.packed.set_port(port, &bit).unwrap();
                for (_, s) in &mut self.lanes {
                    s.set_port(port, &bit).unwrap();
                }
            }
            let report = self.packed.step();
            for (l, s) in &mut self.lanes {
                assert_lane(&self.packed, &report, *l, s);
            }
        }
    }

    /// Steps `scalar` and asserts that lane `l` of `packed`, just stepped
    /// with `report`, holds what it then holds: the conflicted nets,
    /// every port, every net's raw value, the sweep count and the
    /// oscillation record.
    fn assert_lane(
        packed: &PackedSim,
        report: &PackedCycleReport,
        l: usize,
        scalar: &mut Simulator,
    ) {
        let design = packed.design();
        let cycle = report.cycle;
        let conflicts: Vec<NetId> = scalar.step().conflicts.iter().map(|c| c.net).collect();
        let lane_conflicts: Vec<NetId> = report
            .conflicts
            .iter()
            .filter(|c| (c.lanes >> l) & 1 == 1)
            .map(|c| c.net)
            .collect();
        assert_eq!(
            lane_conflicts, conflicts,
            "conflicts lane {l} cycle {cycle}"
        );
        for port in &design.ports {
            assert_eq!(
                packed.port_lane(&port.name, l),
                scalar.port(&port.name),
                "port {} lane {l} cycle {cycle}",
                port.name
            );
        }
        for i in 0..design.netlist.net_count() {
            let net = NetId(i as u32);
            assert_eq!(
                packed.value_lane(net, l),
                scalar.value(net),
                "net {} lane {l} cycle {cycle}",
                design.netlist.nets[i].name
            );
        }
        assert_eq!(
            packed.lane_sweeps()[l],
            scalar.sweeps_last_cycle(),
            "sweeps lane {l} cycle {cycle}"
        );
        assert_eq!(
            (packed.ever_unstable() >> l) & 1 == 1,
            scalar.first_unstable_cycle().is_some(),
            "oscillation record lane {l} cycle {cycle}"
        );
    }

    const INPUTS: [[bool; 3]; 8] = [
        [false, false, false],
        [true, true, false],
        [true, false, true],
        [false, true, true],
        [true, true, true],
        [true, false, false],
        [false, true, false],
        [false, false, true],
    ];

    #[test]
    fn a_later_stuck_at_on_the_same_lane_and_net_wins() {
        let d = design(FAULTABLE, "t");
        let mut ls = Lockstep::new(&d, &[0, 1, 2, 3]);
        let (x, h, m) = (ls.net("x"), ls.net("h"), ls.net("m"));
        // Lanes 1 and 2 get stuck-at-0 on x; then lanes 2 and 3 get
        // stuck-at-1 on the same net, so lane 2 holds both and the later
        // one must win. Lane 0 stays clean; h and the conflicting m
        // collect the same pair the other way round.
        ls.inject(Fault::stuck_at_0(x), 0b0110);
        ls.inject(Fault::stuck_at_1(x), 0b1100);
        for net in [h, m] {
            ls.inject(Fault::stuck_at_1(net), 0b0110);
            ls.inject(Fault::stuck_at_0(net), 0b1100);
        }
        for abc in INPUTS {
            ls.step(abc);
        }
        assert_eq!(ls.packed.value_lane(x, 2), Value::One);
        assert_eq!(ls.packed.value_lane(h, 2), Value::Zero);
    }

    #[test]
    fn a_second_flip_on_the_same_lane_replaces_the_first_ones_cycle() {
        let d = design(FAULTABLE, "t");
        let mut ls = Lockstep::new(&d, &[0, 1, 2, 3]);
        let (y, h, m) = (ls.net("y"), ls.net("h"), ls.net("m"));
        // Lanes 1 and 2 flip y in cycle 2; lanes 2 and 3 are then given a
        // flip in cycle 5 instead, so lane 2 must flip in cycle 5 only.
        // A flip on another net of lane 2 stays independent, and m is
        // flipped in a cycle where it conflicts, then in one where not.
        ls.inject(Fault::transient_flip(y, 2), 0b0110);
        ls.inject(Fault::transient_flip(y, 5), 0b1100);
        ls.inject(Fault::transient_flip(h, 3), 0b0100);
        ls.inject(Fault::transient_flip(m, 4), 0b1010);
        ls.inject(Fault::transient_flip(m, 1), 0b1000);
        for abc in INPUTS {
            ls.step(abc);
        }
    }

    #[test]
    fn cleared_sites_behave_fault_free_after_reinjection_elsewhere() {
        let d = design(FAULTABLE, "t");
        let mut ls = Lockstep::new(&d, &[0, 1, 2, 3, 4, 5]);
        let (x, y, z, h, m) = (
            ls.net("x"),
            ls.net("y"),
            ls.net("z"),
            ls.net("h"),
            ls.net("m"),
        );
        ls.inject(Fault::stuck_at_1(x), 0b0010);
        // A flip due after the clear: it must never fire.
        ls.inject(Fault::transient_flip(y, 6), 0b0100);
        ls.inject(Fault::bridge(h, z), 0b1000);
        ls.inject(Fault::bridge(m, y), 0b10_0000);
        for abc in &INPUTS[..3] {
            ls.step(*abc);
        }
        ls.clear_faults();
        ls.inject(Fault::stuck_at_0(y), 0b1_0000);
        for abc in INPUTS {
            ls.step(abc);
        }
        // The old sites now read exactly like the clean lane.
        for net in [x, y, z, h, m] {
            for l in [1, 2, 3, 5] {
                assert_eq!(ls.packed.value_lane(net, l), ls.packed.value_lane(net, 0));
            }
        }
    }

    #[test]
    fn a_faulted_clone_leaves_its_template_unchanged() {
        let d = design(FAULTABLE, "t");
        let mut template = PackedSim::new(d.clone()).unwrap();
        template.reseed(7);
        template.set_port("c", &[Value::One]).unwrap();
        template.step();
        let nets: Vec<NetId> = (0..d.netlist.net_count() as u32).map(NetId).collect();
        // Every net's word and every lane's sweep count, cycle by cycle.
        let run = |sim: &mut PackedSim, faults: &[(Fault, u64)]| {
            for &(f, m) in faults {
                sim.inject_lanes(f, m).unwrap();
            }
            let mut seen = Vec::new();
            for abc in INPUTS {
                for (port, v) in ["a", "b", "c"].into_iter().zip(abc) {
                    sim.set_port(port, &[Value::from_bool(v)]).unwrap();
                }
                sim.step();
                let words: Vec<PackedWord> = nets.iter().map(|&n| sim.value(n)).collect();
                seen.push((words, *sim.lane_sweeps()));
            }
            seen
        };
        let before = run(&mut template.clone(), &[]);
        let (x, z, h, m) = (
            d.names["t.x"],
            d.names["t.z"],
            d.names["t.h"],
            d.names["t.m"],
        );
        let mut faulted = template.clone();
        let during = run(
            &mut faulted,
            &[
                (Fault::stuck_at_0(x), 1),
                (Fault::transient_flip(h, 3), 2),
                (Fault::bridge(h, z), 4),
                (Fault::bridge(x, z), 8),
                (Fault::bridge(m, h), 16),
                (Fault::stuck_at_1(m), 32),
            ],
        );
        assert_ne!(before, during, "the faults must show in the clone");
        faulted.clear_faults();
        assert!(template.injected_faults().is_empty());
        assert_eq!(run(&mut template, &[]), before, "template's next run");
    }

    /// A campaign's repack: lanes dropped from one word and lanes moved
    /// into their place from another, mid-run, at the same cycle. Every
    /// lane still carrying a fault stays bit-identical, cycle for cycle,
    /// to a scalar simulator carrying that fault alone, with register
    /// state, a bridge and a flip due after the move carried along.
    #[test]
    fn kept_and_adopted_lanes_match_scalar_lane_by_lane() {
        let d = design(FAULTABLE, "t");
        let net = |name: &str| d.names[&format!("t.{name}")];
        let (x, y, z, h, m) = (net("x"), net("y"), net("z"), net("h"), net("m"));
        let mut template = PackedSim::new(d.clone()).unwrap();
        template.reseed(5);
        let words = [
            vec![
                Fault::stuck_at_1(x),
                Fault::transient_flip(h, 2),
                Fault::bridge(h, z),
                Fault::stuck_at_0(m),
                Fault::bridge(m, y),
            ],
            vec![
                Fault::stuck_at_1(m),
                Fault::transient_flip(m, 6),
                Fault::bridge(x, z),
                Fault::stuck_at_0(h),
                Fault::transient_flip(y, 7),
            ],
        ];
        let mut sims = [template.clone(), template.clone()];
        // (word, lane, scalar twin) of every lane carrying a fault, plus
        // the fault-free lane 63 of word 0.
        let mut twins = Vec::new();
        for (w, faults) in words.iter().enumerate() {
            for (l, &fault) in faults.iter().enumerate() {
                sims[w].inject_lanes(fault, 1 << l).unwrap();
                let mut scalar = Simulator::new(d.clone()).unwrap();
                scalar.reseed(5);
                scalar.inject(fault).unwrap();
                twins.push((w, l, scalar));
            }
        }
        let mut clean = Simulator::new(d.clone()).unwrap();
        clean.reseed(5);
        twins.push((0, 63, clean));

        for (cycle, abc) in INPUTS.iter().chain(&INPUTS).enumerate() {
            // After cycle 4 the register holds different values across
            // the lanes (0, 1 or UNDEF, as `m` is stuck or conflicted).
            if cycle == 5 {
                // Word 0 keeps lanes 0, 2 and 4; word 1's lanes 0 and 2
                // move into lanes 1 and 3, its lane 4 into lane 5.
                let keep = 0b1_0101 | 1 << 63;
                sims[0].retain_lanes(keep);
                twins.retain(|&(w, l, _)| w != 0 || (keep >> l) & 1 == 1);
                let [to, from] = &mut sims;
                for (src, dst) in [(0, 1), (2, 3), (4, 5)] {
                    to.adopt_lane(from, src, dst);
                    for twin in twins.iter_mut().filter(|t| (t.0, t.1) == (1, src)) {
                        (twin.0, twin.1) = (0, dst);
                    }
                }
                from.retain_lanes(0b0_1010);
            }
            for sim in &mut sims {
                for (port, v) in ["a", "b", "c"].into_iter().zip(*abc) {
                    sim.set_port(port, &[Value::from_bool(v)]).unwrap();
                }
            }
            let reports = sims.each_mut().map(PackedSim::step);
            for (w, l, scalar) in &mut twins {
                for (port, v) in ["a", "b", "c"].into_iter().zip(*abc) {
                    scalar.set_port(port, &[Value::from_bool(v)]).unwrap();
                }
                assert_lane(&sims[*w], &reports[*w], *l, scalar);
            }
        }
        let mut word0: Vec<usize> = twins.iter().filter(|t| t.0 == 0).map(|t| t.1).collect();
        word0.sort_unstable();
        assert_eq!(word0, [0, 1, 2, 3, 4, 5, 63], "the lanes word 0 ends with");
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
