//! CNF encoding of stuck-at fault detection over the four-valued domain.
//!
//! Each net *slot* (raw net index, exactly the scalar simulator's value
//! array) carries a **dual-rail** code `(b1, b0)` of its boolean view —
//! `0 = (0,1)`, `1 = (1,0)`, `UNDEF = (1,1)`, never `(0,0)` — plus a
//! third **n** bit that is true when the slot holds NOINFL (whose boolean
//! view is UNDEF, so `n ⟹ b1 ∧ b0`). Rails make the Kleene-style gate
//! algebra of [`zeus_sema::value`] linear: NOT is a free rail swap, AND
//! is `b1 = ∧ b1ᵢ`, `b0 = ∨ b0ᵢ`, and an UNDEF input propagates exactly
//! as the simulator propagates it.
//!
//! The encoder is a *transliteration* of `Simulator::eval_cycle`, not a
//! re-derivation of the semantics: contributions are collected per raw
//! slot in the same sweep order (forced CLK/RSET and primary inputs,
//! register outputs, then nodes in topological order), a slot with no
//! active contribution reads NOINFL, one active contribution passes
//! through, two or more resolve to UNDEF (the `check_conflicts`
//! behaviour every campaign runs with), and the faulty copy clamps the
//! canonical fault-site slot to the stuck constant. Good and faulty
//! copies share the primary-input variables; detection is an OR over
//! per-frame, per-output-bit rail differences — the same boolean-view
//! port comparison `run_differential` performs. A model therefore
//! decodes to concrete vectors the scalar simulator *must* replay to a
//! divergence, and UNSAT is a proof that no 0/1 input sequence of that
//! length can.
//!
//! The faulty copy is **restricted to the fault's fanout cone** without
//! computing one (the standard SAT-ATPG formulation, Larrabee 1992).
//! Every AND is hash-consed on its folded literal set, and OR, MUX and
//! every gate rule go through AND. The faulty copy reads the same input
//! and state literals as the good one, so each gate outside the fault
//! site's transitive fanout resolves to the good copy's literal. An
//! output or next-state rail outside the cone is then one literal in
//! both copies, its difference folds to false, and it drops out of the
//! difference clause; a fault whose cone holds no compared rail leaves
//! the empty clause. Sharing only merges equivalent definitions, so the
//! formula is equisatisfiable with the unshared one over the same
//! primary-input variables, with fewer variables and clauses.
//!
//! Sequential designs are handled by **time-frame expansion**: `frames`
//! copies of the transition relation, register state threaded between
//! them through the latch rule `state' = (d == NOINFL ? state : d)`,
//! with concrete initial states supplied by the caller (captured from a
//! replay of the already-emitted vector set).

use std::collections::HashMap;
use std::ops::Range;

use crate::cnf::{Cnf, Lit, Var};
use zeus_elab::{Design, Fault, FaultKind, Governor, Netlist, Node, NodeId, NodeOp};
use zeus_sema::Value;
use zeus_syntax::span::Span;

/// Options for [`encode_detection`].
#[derive(Debug, Clone, Default)]
pub struct EncodeOptions {
    /// Number of vector frames to unroll (≥ 1).
    pub frames: u32,
    /// Initial stored value per register (in `netlist.registers()`
    /// order) for the good copy; `None` means all-UNDEF (power-on).
    pub init_good: Option<Vec<Value>>,
    /// Same for the faulty copy.
    pub init_faulty: Option<Vec<Value>>,
}

/// A fault-detection formula plus the variable map needed to decode a
/// model back into input vectors.
#[derive(Debug, Clone)]
pub struct Detector {
    /// The CNF; satisfiable iff some 0/1 input sequence of `frames`
    /// vectors makes a boolean-view output bit differ between the good
    /// and faulty copies.
    pub cnf: Cnf,
    /// `pi_vars[frame][k]`: the variable carrying the k-th primary-input
    /// bit (flattened over `design.inputs()` in port order, LSB-first
    /// within a port) of that frame. True = 1, false = 0.
    pub pi_vars: Vec<Vec<Var>>,
    /// Frames unrolled.
    pub frames: u32,
}

/// Why a detection formula could not be built.
#[derive(Debug, Clone)]
pub enum EncodeError {
    /// The design or fault is outside the encodable fragment (RANDOM
    /// nodes, non-stuck-at faults).
    Unsupported(&'static str),
    /// The governor's fuel or deadline ran out mid-encode.
    Budget,
}

/// Decodes a SAT model into one flat bit row per frame, aligned with
/// [`Detector::pi_vars`] (every value is `Zero` or `One`).
pub fn decode_model(det: &Detector, model: &[bool]) -> Vec<Vec<Value>> {
    det.pi_vars
        .iter()
        .map(|frame| {
            frame
                .iter()
                .map(|&v| Value::from_bool(model[v as usize]))
                .collect()
        })
        .collect()
}

/// A three-lit code for one net slot: dual rails of the boolean view
/// plus the NOINFL bit. Invariant: `n ⟹ b1 ∧ b0`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Code {
    b1: Lit,
    b0: Lit,
    n: Lit,
}

/// Tseitin builder with a constant-true literal, structural folding and
/// structural hashing.
///
/// Every clause but the difference clause ([`Enc::require_any`]) is
/// added together with a fresh variable and mentions it, so that
/// variable is the largest in the clause and the clauses that share it
/// define it as a function of older variables (`[s1, s0]` of a
/// symbolic register only excludes one code, which `s0` can always
/// avoid). [`LockstepCnf::cone`] relies on this.
struct Enc<'b> {
    cnf: Cnf,
    t: Lit,
    /// Every AND defined so far: its sorted literal set → the literal
    /// that defines it. Only ever looked up, never iterated, so the
    /// variable numbering stays a function of the call sequence.
    ands: HashMap<Vec<Lit>, Lit>,
    /// The ANDs of the encoder this one extends ([`Enc::extend`]).
    base: Option<&'b HashMap<Vec<Lit>, Lit>>,
}

impl Enc<'static> {
    fn new() -> Enc<'static> {
        let mut cnf = Cnf::new();
        let t = Lit::pos(cnf.fresh());
        cnf.add(&[t]);
        Enc {
            cnf,
            t,
            ands: HashMap::new(),
            base: None,
        }
    }
}

impl<'b> Enc<'b> {
    /// An encoder that continues `base` without changing it: its
    /// variables are numbered after `base`'s, an AND `base` defines
    /// resolves to `base`'s literal, and its `cnf` holds only the
    /// clauses added after `base`'s. `base`'s clauses followed by these
    /// are the formula one encoder making all the calls would build.
    fn extend(base: &'b Enc<'_>) -> Enc<'b> {
        debug_assert!(base.base.is_none(), "one level of extension");
        Enc {
            cnf: Cnf {
                num_vars: base.cnf.num_vars,
                clauses: Vec::new(),
            },
            t: base.t,
            ands: HashMap::new(),
            base: Some(&base.ands),
        }
    }

    fn f(&self) -> Lit {
        self.t.negate()
    }

    fn code(&self, v: Value) -> Code {
        let (t, f) = (self.t, self.f());
        match v {
            Value::Zero => Code { b1: f, b0: t, n: f },
            Value::One => Code { b1: t, b0: f, n: f },
            Value::Undef => Code { b1: t, b0: t, n: f },
            Value::NoInfl => Code { b1: t, b0: t, n: t },
        }
    }

    /// A literal equivalent to the conjunction of `lits`, folding
    /// constants and duplicates. A conjunction of the same literal set
    /// as an earlier one returns that one's literal, so a gate whose
    /// inputs are the same literals in both copies is defined once.
    fn and(&mut self, lits: &[Lit]) -> Lit {
        let f = self.f();
        let mut v: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            if l == f {
                return f;
            }
            if l == self.t || v.contains(&l) {
                continue;
            }
            if v.contains(&l.negate()) {
                return f;
            }
            v.push(l);
        }
        match v.len() {
            0 => self.t,
            1 => v[0],
            _ => {
                let mut key = v.clone();
                key.sort_unstable();
                let known = self.base.and_then(|b| b.get(&key));
                if let Some(&x) = known.or_else(|| self.ands.get(&key)) {
                    return x;
                }
                let x = Lit::pos(self.cnf.fresh());
                for &l in &v {
                    self.cnf.add(&[x.negate(), l]);
                }
                let mut long: Vec<Lit> = v.iter().map(|l| l.negate()).collect();
                long.push(x);
                self.cnf.add(&long);
                self.ands.insert(key, x);
                x
            }
        }
    }

    /// A literal equivalent to the disjunction of `lits`.
    fn or(&mut self, lits: &[Lit]) -> Lit {
        let neg: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
        self.and(&neg).negate()
    }

    /// A literal equivalent to `a ≠ b`.
    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return self.f();
        }
        if a == b.negate() {
            return self.t;
        }
        if a == self.t {
            return b.negate();
        }
        if a == self.f() {
            return b;
        }
        if b == self.t {
            return a.negate();
        }
        if b == self.f() {
            return a;
        }
        let x = Lit::pos(self.cnf.fresh());
        self.cnf.add(&[x.negate(), a, b]);
        self.cnf.add(&[x.negate(), a.negate(), b.negate()]);
        self.cnf.add(&[x, a.negate(), b]);
        self.cnf.add(&[x, a, b.negate()]);
        x
    }

    /// A fresh 0/1 variable as a code (never UNDEF or NOINFL).
    fn free_bit(&mut self) -> (Code, Var) {
        let p = self.cnf.fresh();
        let code = Code {
            b1: Lit::pos(p),
            b0: Lit::neg(p),
            n: self.f(),
        };
        (code, p)
    }

    /// True when a good and a faulty code differ on a rail. The boolean
    /// view of a slot code is its rails (NOINFL reads as UNDEF =
    /// (1,1)), so two port bits differ iff a rail differs —
    /// run_differential's comparison, literally.
    fn differ(&mut self, good: Code, faulty: Code) -> Lit {
        let d1 = self.xor(good.b1, faulty.b1);
        let d0 = self.xor(good.b0, faulty.b0);
        self.or(&[d1, d0])
    }

    /// Requires some difference in `diffs`. None possible leaves the
    /// empty clause, which makes the formula UNSAT without
    /// special-casing callers.
    fn require_any(&mut self, mut diffs: Vec<Lit>) {
        let f = self.f();
        diffs.retain(|&d| d != f);
        self.cnf.add(&diffs);
    }

    /// `cond ? then : else` on single literals.
    fn mux(&mut self, cond: Lit, then: Lit, els: Lit) -> Lit {
        let a = self.and(&[cond, then]);
        let b = self.and(&[cond.negate(), els]);
        self.or(&[a, b])
    }
}

/// One frame's per-slot contribution lists and resolution cache — the
/// symbolic mirror of the simulator's `values` array.
struct FrameState {
    contribs: Vec<Vec<Code>>,
    resolved: Vec<Option<Code>>,
    /// Canonical stuck-at clamp: `(slot, code)` for the faulty copy.
    clamp: Option<(usize, Code)>,
}

impl FrameState {
    fn new(slots: usize, clamp: Option<(usize, Code)>) -> FrameState {
        FrameState {
            contribs: vec![Vec::new(); slots],
            resolved: vec![None; slots],
            clamp,
        }
    }

    fn drive(&mut self, slot: usize, code: Code) {
        debug_assert!(self.resolved[slot].is_none(), "drive after read");
        self.contribs[slot].push(code);
    }

    /// Resolves a slot exactly as the simulator's conflict-checked
    /// `drive` does: no active contribution → NOINFL, one → itself,
    /// two or more → UNDEF. The stuck clamp overrides everything.
    fn read(&mut self, e: &mut Enc, slot: usize) -> Code {
        if let Some((ci, c)) = self.clamp {
            if ci == slot {
                return c;
            }
        }
        if let Some(c) = self.resolved[slot] {
            return c;
        }
        let contribs = std::mem::take(&mut self.contribs[slot]);
        let code = match contribs.len() {
            0 => e.code(Value::NoInfl),
            1 => contribs[0],
            _ => {
                // activeᵢ = ¬nᵢ; none → NOINFL, ≥2 active → UNDEF,
                // exactly one → that contribution's rails.
                let none = {
                    let ns: Vec<Lit> = contribs.iter().map(|c| c.n).collect();
                    e.and(&ns)
                };
                let mut pairs = Vec::new();
                for i in 0..contribs.len() {
                    for j in (i + 1)..contribs.len() {
                        let p = e.and(&[contribs[i].n.negate(), contribs[j].n.negate()]);
                        pairs.push(p);
                    }
                }
                let multi = e.or(&pairs);
                let rail = |e: &mut Enc, pick: &dyn Fn(&Code) -> Lit| {
                    let mut terms = vec![none, multi];
                    for c in &contribs {
                        let t = e.and(&[c.n.negate(), pick(c)]);
                        terms.push(t);
                    }
                    e.or(&terms)
                };
                let b1 = rail(e, &|c| c.b1);
                let b0 = rail(e, &|c| c.b0);
                Code { b1, b0, n: none }
            }
        };
        self.resolved[slot] = Some(code);
        code
    }
}

/// The faulty copy's clamp: the fault site's slot (its canonical net)
/// and the value a stuck-at fault holds it at.
///
/// # Errors
///
/// [`EncodeError::Unsupported`] for a fault that is not a stuck-at.
fn stuck_clamp(nl: &Netlist, fault: Fault) -> Result<(usize, Value), EncodeError> {
    let stuck = match fault.kind {
        FaultKind::StuckAt0 => Value::Zero,
        FaultKind::StuckAt1 => Value::One,
        _ => return Err(EncodeError::Unsupported("non-stuck-at fault")),
    };
    Ok((nl.find_ref(fault.site).index(), stuck))
}

/// The prologue both encoders share: what they read off the design
/// before the first frame. Building it allocates no variable.
struct Circuit<'a> {
    design: &'a Design,
    nl: &'a Netlist,
    order: Vec<NodeId>,
    regs: Vec<NodeId>,
    /// The OUT port bits' slots, in port order.
    out_slots: Vec<usize>,
}

impl<'a> Circuit<'a> {
    /// Refuses what has no CNF image (RANDOM nodes, combinational
    /// cycles) and maps the rest.
    fn new(design: &'a Design) -> Result<Circuit<'a>, EncodeError> {
        let nl = &design.netlist;
        if nl.nodes.iter().any(|n| matches!(n.op, NodeOp::Random)) {
            return Err(EncodeError::Unsupported("RANDOM node"));
        }
        let order = nl
            .topo_order()
            .map_err(|_| EncodeError::Unsupported("combinational cycle"))?;
        let out_slots = design
            .outputs()
            .flat_map(|p| p.nets.iter().map(|&n| nl.find_ref(n).index()))
            .collect();
        Ok(Circuit {
            design,
            nl,
            order,
            regs: nl.registers().collect(),
            out_slots,
        })
    }

    /// Bills one good and one faulty frame to `gov`.
    fn charge_frame(&self, gov: &mut Governor) -> Result<(), EncodeError> {
        gov.charge(2 * (self.order.len() as u64 + 1), Span::dummy())
            .and_then(|()| gov.check_deadline(Span::dummy()))
            .map_err(|_| EncodeError::Budget)
    }

    /// The forced drives of one frame: CLK high as in every simulator
    /// step, RSET `rset`, then every primary-input bit a fresh 0/1
    /// variable (returned in port order). Later entries for the same net
    /// replace earlier ones, mirroring the simulator's one-value-per-net
    /// forced map.
    fn forced(&self, e: &mut Enc, rset: Option<Code>) -> (Vec<(usize, Code)>, Vec<Var>) {
        let mut forced: Vec<(usize, Code)> = Vec::new();
        let force = |slot: usize, code: Code, forced: &mut Vec<(usize, Code)>| {
            if let Some(entry) = forced.iter_mut().find(|(s, _)| *s == slot) {
                entry.1 = code;
            } else {
                forced.push((slot, code));
            }
        };
        if let Some(clk) = self.design.clk {
            force(clk.index(), e.code(Value::One), &mut forced);
        }
        if let (Some(net), Some(code)) = (self.design.rset, rset) {
            force(net.index(), code, &mut forced);
        }
        let mut pis = Vec::new();
        for port in self.design.inputs() {
            for &net in &port.nets {
                let (code, p) = e.free_bit();
                pis.push(p);
                force(net.index(), code, &mut forced);
            }
        }
        (forced, pis)
    }
}

/// The code `node` drives in a frame whose slots `fs` resolves (`None`
/// for a register, whose output the frame's state drives). The dual-rail
/// gate algebra, one arm per operation.
fn node_code(e: &mut Enc, fs: &mut FrameState, node: &Node) -> Option<Code> {
    let ins: Vec<usize> = node.inputs.iter().map(|n| n.index()).collect();
    let code = match &node.op {
        NodeOp::And | NodeOp::Nand => {
            let i1: Vec<Lit> = ins.iter().map(|&i| fs.read(e, i).b1).collect();
            let i0: Vec<Lit> = ins.iter().map(|&i| fs.read(e, i).b0).collect();
            let (b1, b0) = (e.and(&i1), e.or(&i0));
            let (b1, b0) = if matches!(node.op, NodeOp::Nand) {
                (b0, b1) // NOT is a rail swap
            } else {
                (b1, b0)
            };
            Code { b1, b0, n: e.f() }
        }
        NodeOp::Or | NodeOp::Nor => {
            let i1: Vec<Lit> = ins.iter().map(|&i| fs.read(e, i).b1).collect();
            let i0: Vec<Lit> = ins.iter().map(|&i| fs.read(e, i).b0).collect();
            let (b1, b0) = (e.or(&i1), e.and(&i0));
            let (b1, b0) = if matches!(node.op, NodeOp::Nor) {
                (b0, b1)
            } else {
                (b1, b0)
            };
            Code { b1, b0, n: e.f() }
        }
        NodeOp::Xor => {
            // Left fold from the neutral 0, exactly like
            // value::xor: an UNDEF operand saturates the
            // accumulator at (1,1).
            let mut acc = e.code(Value::Zero);
            for &i in &ins {
                let c = fs.read(e, i);
                let b1 = {
                    let x = e.and(&[acc.b1, c.b0]);
                    let y = e.and(&[acc.b0, c.b1]);
                    e.or(&[x, y])
                };
                let b0 = {
                    let x = e.and(&[acc.b1, c.b1]);
                    let y = e.and(&[acc.b0, c.b0]);
                    e.or(&[x, y])
                };
                acc = Code { b1, b0, n: e.f() };
            }
            acc
        }
        NodeOp::Not => {
            let c = fs.read(e, ins[0]);
            Code {
                b1: c.b0,
                b0: c.b1,
                n: e.f(),
            }
        }
        NodeOp::Equal { width } => {
            // defined-unequal pair forces 0; all pairs
            // defined-equal gives 1; otherwise UNDEF. Rails
            // never read (0,0), so "x is the defined value
            // 1" is exactly ¬b0 and "x is 0" exactly ¬b1.
            let (av, bv) = ins.split_at(*width);
            let mut du = Vec::with_capacity(*width);
            let mut de = Vec::with_capacity(*width);
            for (&ai, &bi) in av.iter().zip(bv) {
                let x = fs.read(e, ai);
                let y = fs.read(e, bi);
                let u1 = e.and(&[x.b0.negate(), y.b1.negate()]);
                let u2 = e.and(&[x.b1.negate(), y.b0.negate()]);
                du.push(e.or(&[u1, u2]));
                let q1 = e.and(&[x.b0.negate(), y.b0.negate()]);
                let q2 = e.and(&[x.b1.negate(), y.b1.negate()]);
                de.push(e.or(&[q1, q2]));
            }
            let b1 = e.or(&du).negate();
            let b0 = e.and(&de).negate();
            Code { b1, b0, n: e.f() }
        }
        NodeOp::Buf => fs.read(e, ins[0]),
        NodeOp::If => {
            // cond=0 → NOINFL, cond=1 → data (raw, NOINFL
            // included), else UNDEF. Raw 0 is exactly ¬b1,
            // raw 1 exactly ¬b0 (n ⟹ both rails set).
            let c = fs.read(e, ins[0]);
            let d = fs.read(e, ins[1]);
            let b1 = e.or(&[c.b1.negate(), c.b0, d.b1]);
            let b0 = e.or(&[c.b1.negate(), c.b0, d.b0]);
            let n = {
                let take_d = e.and(&[c.b0.negate(), d.n]);
                e.or(&[c.b1.negate(), take_d])
            };
            Code { b1, b0, n }
        }
        NodeOp::Const(v) => e.code(*v),
        NodeOp::Random => unreachable!("rejected by Circuit::new"),
        NodeOp::Reg => return None,
    };
    Some(code)
}

/// Register `ri`'s next state under the latch rule
/// `state' = (d == NOINFL ? state : d)`.
fn next_state(e: &mut Enc, fs: &mut FrameState, c: &Circuit, state: &[Code], ri: usize) -> Code {
    let d = fs.read(e, c.nl.nodes[c.regs[ri].index()].inputs[0].index());
    let s = state[ri];
    let b1 = e.mux(d.n, s.b1, d.b1);
    let b0 = e.mux(d.n, s.b0, d.b0);
    Code { b1, b0, n: e.f() }
}

/// One evaluated frame.
struct Frame {
    /// The latched next state, one code per register.
    next: Vec<Code>,
    /// The codes of the OUT slots.
    outs: Vec<Code>,
    /// Per slot, the code its reads resolved to (`None`: never read).
    resolved: Vec<Option<Code>>,
    /// Per position of the topological order, the code that node drove
    /// (`None` for a register).
    driven: Vec<Option<Code>>,
}

/// Evaluates one symbolic frame of `c`: drives `forced` slots and the
/// register outputs from `state`, sweeps the topological order with the
/// dual-rail gate algebra, and latches the next state. A faulty copy
/// passes its `clamp` (see [`stuck_clamp`]). This is the shared core of
/// [`encode_detection`] (concrete threaded state) and [`Lockstep`] (one
/// good frame over a fully symbolic shared state).
fn eval_frame(
    e: &mut Enc,
    c: &Circuit,
    forced: &[(usize, Code)],
    state: &[Code],
    clamp: Option<(usize, Value)>,
) -> Frame {
    let nl = c.nl;
    let clamp = clamp.map(|(slot, v)| (slot, e.code(v)));
    let mut fs = FrameState::new(nl.nets.len(), clamp);
    for &(slot, code) in forced {
        fs.drive(slot, code);
    }
    for (ri, &r) in c.regs.iter().enumerate() {
        fs.drive(nl.nodes[r.index()].output.index(), state[ri]);
    }
    let mut driven = Vec::with_capacity(c.order.len());
    for &nid in &c.order {
        let node = &nl.nodes[nid.index()];
        let code = node_code(e, &mut fs, node);
        if let Some(code) = code {
            fs.drive(node.output.index(), code);
        }
        driven.push(code);
    }
    let next = (0..c.regs.len())
        .map(|ri| next_state(e, &mut fs, c, state, ri))
        .collect();
    let outs = c.out_slots.iter().map(|&s| fs.read(e, s)).collect();
    Frame {
        next,
        outs,
        resolved: fs.resolved,
        driven,
    }
}

/// Builds the detection CNF for `fault` on `design` over
/// `opts.frames` unrolled vector frames.
///
/// # Errors
///
/// [`EncodeError::Unsupported`] for RANDOM nodes or non-stuck-at
/// faults; [`EncodeError::Budget`] when `gov` runs out mid-encode.
pub fn encode_detection(
    design: &Design,
    fault: Fault,
    opts: &EncodeOptions,
    gov: &mut Governor,
) -> Result<Detector, EncodeError> {
    let clamp = stuck_clamp(&design.netlist, fault)?;
    let c = Circuit::new(design)?;
    let frames = opts.frames.max(1);
    let mut e = Enc::new();

    let init = |given: &Option<Vec<Value>>, e: &Enc| -> Vec<Code> {
        match given {
            Some(vals) => vals.iter().map(|&v| e.code(v)).collect(),
            None => vec![e.code(Value::Undef); c.regs.len()],
        }
    };
    let mut state_good = init(&opts.init_good, &e);
    let mut state_faulty = init(&opts.init_faulty, &e);
    debug_assert_eq!(state_good.len(), c.regs.len());
    debug_assert_eq!(state_faulty.len(), c.regs.len());

    let mut pi_vars: Vec<Vec<Var>> = Vec::with_capacity(frames as usize);
    let mut diffs: Vec<Lit> = Vec::new();

    for _frame in 0..frames {
        c.charge_frame(gov)?;
        // RSET is low: reset pulses never appear inside a replayed
        // vector window.
        let rset = e.code(Value::Zero);
        let (forced, frame_pis) = c.forced(&mut e, Some(rset));
        pi_vars.push(frame_pis);

        let good = eval_frame(&mut e, &c, &forced, &state_good, None);
        let faulty = eval_frame(&mut e, &c, &forced, &state_faulty, Some(clamp));
        state_good = good.next;
        state_faulty = faulty.next;
        for (&g, &f) in good.outs.iter().zip(&faulty.outs) {
            diffs.push(e.differ(g, f));
        }
    }
    e.require_any(diffs);

    Ok(Detector {
        cnf: e.cnf,
        pi_vars,
        frames,
    })
}

/// Builds the single-frame **lockstep equivalence** CNF for `fault`:
/// satisfiable iff some register state in {0,1,UNDEF}ⁿ together with
/// some 0/1 primary-input assignment (RSET free when the design has
/// one) makes the good and faulty copies differ on an output rail *or*
/// a next-state rail.
///
/// UNSAT is therefore a proof of *sequential redundancy*: the faulty
/// frame function is extensionally identical to the good one on every
/// state the latch rule can produce and every input the campaign can
/// drive — reset cycles included, because RSET is left free here
/// (unlike [`encode_detection`], which pins it low inside a replayed
/// vector window). By induction the two machines stay in lockstep from
/// any common starting state, so no test sequence of any length can
/// observe the fault. A satisfying model is **not** a test — the
/// distinguishing state may be unreachable — so callers must treat Sat
/// as inconclusive, never as a detection.
///
/// # Errors
///
/// Same conditions as [`encode_detection`].
pub fn encode_lockstep(
    design: &Design,
    fault: Fault,
    gov: &mut Governor,
) -> Result<Cnf, EncodeError> {
    stuck_clamp(&design.netlist, fault)?;
    Ok(Lockstep::new(design)?.encode(fault, gov)?.to_cnf())
}

/// The part of every [`encode_lockstep`] formula over one design that
/// no fault changes, encoded once: the shared symbolic register state
/// (free rails per register, restricted to the codes the latch rule can
/// store: {0,1,UNDEF}, never (0,0), never NOINFL), RSET as a free 0/1
/// bit (so reset cycles are inside the proof obligation), the free
/// input bits and the good frame. [`Lockstep::encode`] adds a fault's
/// faulty frame, evaluating only the nodes whose inputs it changed, so
/// proving many faults of one design costs each its own cone rather
/// than the whole design.
pub struct Lockstep<'a> {
    c: Circuit<'a>,
    e: Enc<'static>,
    state: Vec<Code>,
    forced: Vec<(usize, Code)>,
    good: Frame,
    /// Per slot, the drives it takes in order, numbered as a frame makes
    /// them: the forced slots, then the register outputs, then each
    /// position of the topological order.
    drives: Vec<Vec<u32>>,
    /// Per variable of `e`, the clauses that define it (see [`Enc`]).
    defs: Vec<Range<u32>>,
}

impl<'a> Lockstep<'a> {
    /// Encodes the good half of `design`'s lockstep formulas.
    ///
    /// # Errors
    ///
    /// [`EncodeError::Unsupported`] for RANDOM nodes or combinational
    /// cycles.
    pub fn new(design: &'a Design) -> Result<Lockstep<'a>, EncodeError> {
        let c = Circuit::new(design)?;
        let mut e = Enc::new();
        let mut state = Vec::with_capacity(c.regs.len());
        for _ in &c.regs {
            let s1 = Lit::pos(e.cnf.fresh());
            let s0 = Lit::pos(e.cnf.fresh());
            e.cnf.add(&[s1, s0]);
            let n = e.f();
            state.push(Code { b1: s1, b0: s0, n });
        }
        let rset = design.rset.map(|_| e.free_bit().0);
        let (forced, _) = c.forced(&mut e, rset);
        let good = eval_frame(&mut e, &c, &forced, &state, None);

        let nl = c.nl;
        let mut drives = vec![Vec::new(); nl.nets.len()];
        let outputs = forced.iter().map(|&(slot, _)| slot).chain(
            c.regs
                .iter()
                .chain(&c.order)
                .map(|r| nl.nodes[r.index()].output.index()),
        );
        for (k, slot) in outputs.enumerate() {
            drives[slot].push(k as u32);
        }
        let mut defs = vec![0..0; e.cnf.num_vars as usize];
        for (i, clause) in (0u32..).zip(&e.cnf.clauses) {
            if let Some(v) = max_var(clause) {
                let def = &mut defs[v as usize];
                if def.start == def.end {
                    *def = i..i;
                }
                debug_assert_eq!(def.end, i, "a variable's clauses are consecutive");
                def.end = i + 1;
            }
        }
        Ok(Lockstep {
            c,
            e,
            state,
            forced,
            good,
            drives,
            defs,
        })
    }

    /// The good frame's code for drive `k` (numbered as in `drives`).
    fn good_drive(&self, k: usize) -> Code {
        let (f, r) = (self.forced.len(), self.state.len());
        if k < f {
            self.forced[k].1
        } else if k < f + r {
            self.state[k - f]
        } else {
            self.good.driven[k - f - r].expect("registers drive through the state")
        }
    }

    /// Builds `fault`'s lockstep formula on the shared good frame. The
    /// faulty frame is the good one except where the fault reaches: a
    /// node none of whose input slots changed makes exactly the calls
    /// the good frame made, each of which resolves to the good frame's
    /// literal, so it is skipped and its slot keeps the good code.
    /// Every other node is evaluated in topological order as
    /// [`eval_frame`] would, so the clauses added are those a whole
    /// faulty frame adds, in the same order.
    ///
    /// # Errors
    ///
    /// [`EncodeError::Unsupported`] for a fault that is not a stuck-at;
    /// [`EncodeError::Budget`] when `gov` runs out.
    pub fn encode(&self, fault: Fault, gov: &mut Governor) -> Result<LockstepCnf<'_>, EncodeError> {
        let (c, nl, good) = (&self.c, self.c.nl, &self.good);
        let (site, stuck) = stuck_clamp(nl, fault)?;
        c.charge_frame(gov)?;
        let mut e = Enc::extend(&self.e);
        let clamp = e.code(stuck);

        // Slots whose faulty code differs from the good one. Every other
        // slot reads as it did in the good frame.
        let mut changed = vec![false; nl.nets.len()];
        changed[site] = good.resolved[site] != Some(clamp);
        let mut fs = FrameState {
            contribs: vec![Vec::new(); nl.nets.len()],
            resolved: good.resolved.clone(),
            clamp: Some((site, clamp)),
        };
        fs.resolved[site] = None;
        let first_node = self.forced.len() + self.state.len();
        for (p, &nid) in c.order.iter().enumerate() {
            let Some(was) = good.driven[p] else {
                continue;
            };
            let node = &nl.nodes[nid.index()];
            let code = if node.inputs.iter().any(|n| changed[n.index()]) {
                node_code(&mut e, &mut fs, node).expect("not a register")
            } else {
                was
            };
            let out = node.output.index();
            if code != was && !changed[out] {
                // The slot resolves anew: its earlier drives are the
                // good frame's.
                changed[out] = true;
                fs.resolved[out] = None;
                for &k in self.drives[out]
                    .iter()
                    .take_while(|&&k| (k as usize) < first_node + p)
                {
                    let earlier = self.good_drive(k as usize);
                    fs.drive(out, earlier);
                }
            }
            if changed[out] {
                fs.drive(out, code);
            }
        }
        let next: Vec<Code> = (0..c.regs.len())
            .map(|ri| {
                let d = nl.nodes[c.regs[ri].index()].inputs[0].index();
                if changed[d] {
                    next_state(&mut e, &mut fs, c, &self.state, ri)
                } else {
                    good.next[ri]
                }
            })
            .collect();
        let outs: Vec<Code> = c
            .out_slots
            .iter()
            .zip(&good.outs)
            .map(|(&s, &was)| if changed[s] { fs.read(&mut e, s) } else { was })
            .collect();

        let mut diffs: Vec<Lit> = Vec::new();
        for (&g, &f) in good.outs.iter().zip(&outs) {
            diffs.push(e.differ(g, f));
        }
        for (&g, &f) in good.next.iter().zip(&next) {
            diffs.push(e.differ(g, f));
        }
        e.require_any(diffs);
        Ok(LockstepCnf {
            prefix: &self.e.cnf,
            defs: &self.defs,
            tail: e.cnf,
        })
    }
}

/// One fault's lockstep formula: the shared good part's clauses, then
/// the clauses the fault's cone and the difference clause add.
pub struct LockstepCnf<'l> {
    prefix: &'l Cnf,
    /// Per variable of `prefix`, the clauses that define it.
    defs: &'l [Range<u32>],
    /// The fault's clauses, the difference clause last; its `num_vars`
    /// counts the whole formula's.
    tail: Cnf,
}

/// The largest variable of `clause` (`None` when it is empty).
fn max_var(clause: &[Lit]) -> Option<Var> {
    clause.iter().map(|l| l.var()).max()
}

impl LockstepCnf<'_> {
    /// The whole formula, as one [`Cnf`].
    pub fn to_cnf(&self) -> Cnf {
        let mut clauses = self.prefix.clauses.clone();
        clauses.extend(self.tail.clauses.iter().cloned());
        Cnf {
            num_vars: self.tail.num_vars,
            clauses,
        }
    }

    /// The formula cut to what its difference clause depends on, with
    /// the variables renumbered in their order and the clauses kept in
    /// theirs: satisfiable exactly when the whole formula is, and
    /// usually a small part of it.
    ///
    /// The difference clause is kept; walking back from it, a clause is
    /// kept when its largest variable occurs in a kept clause, and then
    /// all its variables do. Every other clause has an unkept largest
    /// variable, which it defines from older ones (see [`Enc`]), so a
    /// model of the kept clauses extends to the dropped ones by setting
    /// their variables in increasing order. The model itself means
    /// nothing to a lockstep caller, which only asks whether one exists.
    pub fn cone(&self) -> Cnf {
        let n = self.tail.num_vars as usize;
        let mut needed = vec![false; n];
        // Kept clauses, newest first.
        let mut kept: Vec<&[Lit]> = Vec::new();
        let last = self.tail.clauses.len() - 1;
        let tail = self.tail.clauses.iter().enumerate().rev();
        for (i, clause) in tail {
            if i == last || max_var(clause).is_none_or(|v| needed[v as usize]) {
                kept.push(clause);
                for l in clause {
                    needed[l.var() as usize] = true;
                }
            }
        }
        for v in (0..self.defs.len()).rev() {
            if needed[v] {
                let def = self.defs[v].start as usize..self.defs[v].end as usize;
                for clause in self.prefix.clauses[def].iter().rev() {
                    kept.push(clause);
                    for l in clause {
                        needed[l.var() as usize] = true;
                    }
                }
            }
        }
        let mut renumber = vec![0; n];
        let mut cone = Cnf::new();
        for v in 0..n {
            if needed[v] {
                renumber[v] = cone.fresh();
            }
        }
        let map = |l: &Lit| {
            let v = renumber[l.var() as usize];
            if l.is_neg() {
                Lit::neg(v)
            } else {
                Lit::pos(v)
            }
        };
        cone.clauses = kept
            .iter()
            .rev()
            .map(|c| c.iter().map(map).collect())
            .collect();
        cone
    }
}

/// Rounds of [`sample_model`]: 256 assignments in all.
const SAMPLE_ROUNDS: u32 = 4;

/// Looks for a model of `cnf` among [`SAMPLE_ROUNDS`] × 64 random
/// assignments, 64 at a time, bit-parallel. A variable with no clauses of its own
/// draws a random bit; every other, in increasing order, takes the
/// value its clauses force, where they leave a choice a random one.
/// Where that is not possible, or the last clause fails, the assignment
/// is dropped. A formula whose clauses define their largest variables
/// in order ([`LockstepCnf::cone`]'s; see [`Enc`]) then yields one of
/// its models whenever some assignment of its free variables satisfies
/// the last clause. The result is checked against every clause, so a
/// returned model is one for any `cnf`; `None` proves nothing.
pub fn sample_model(cnf: &Cnf) -> Option<Vec<bool>> {
    let n = cnf.num_vars as usize;
    let (last, defs) = cnf.clauses.split_last()?;
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut random = move || {
        // splitmix64
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let lit = |val: &[u64], l: Lit| {
        let v = val[l.var() as usize];
        if l.is_neg() {
            !v
        } else {
            v
        }
    };
    let mut val = vec![0u64; n];
    for _ in 0..SAMPLE_ROUNDS {
        let mut alive = !0u64;
        // The next variable to assign, and the next clause to read.
        let (mut v, mut i) = (0, 0);
        while i < defs.len() {
            let x = max_var(&defs[i])? as usize;
            if x < v {
                return None; // not in definition order
            }
            while v < x {
                val[v] = random();
                v += 1;
            }
            // Lanes where x must be 1, and where it must be 0.
            let (mut one, mut zero) = (0u64, 0u64);
            while i < defs.len() && max_var(&defs[i]) == Some(x as Var) {
                let mut rest = 0u64;
                let mut sign = None;
                for &l in &defs[i] {
                    if l.var() as usize == x {
                        sign = Some(l.is_neg());
                    } else {
                        rest |= lit(&val, l);
                    }
                }
                match sign {
                    Some(false) => one |= !rest,
                    Some(true) => zero |= !rest,
                    None => unreachable!("x is the clause's largest variable"),
                }
                i += 1;
            }
            alive &= !(one & zero);
            val[x] = one | (random() & !zero);
            v = x + 1;
        }
        while v < n {
            val[v] = random();
            v += 1;
        }
        let hits = alive & last.iter().fold(0, |m, &l| m | lit(&val, l));
        if hits != 0 {
            let lane = hits.trailing_zeros();
            let model: Vec<bool> = val.iter().map(|w| w >> lane & 1 == 1).collect();
            if cnf.eval(&model) {
                return Some(model);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SatOutcome, Solver};
    use zeus_elab::{elaborate, Limits, NetId};
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    /// Bundled sequential designs: RSET (counter), address-decoded
    /// multi-driver buses (ram), shift structures (queue, stack) and a
    /// datapath (am2901). The last field keeps every n-th net's faults.
    const SEQUENTIAL: &[(&str, &str, &[i64], usize)] = &[
        (
            include_str!("../../../zeus-programs/counter.zeus"),
            "counter",
            &[4],
            1,
        ),
        (
            include_str!("../../../zeus-programs/ram.zeus"),
            "ram",
            &[4, 2, 2],
            1,
        ),
        (
            include_str!("../../../zeus-programs/queue.zeus"),
            "systolicqueue",
            &[2, 2],
            1,
        ),
        (
            include_str!("../../../zeus-programs/stack.zeus"),
            "systolicstack",
            &[2, 2],
            1,
        ),
        (
            include_str!("../../../zeus-programs/am2901.zeus"),
            "am2901",
            &[],
            13,
        ),
    ];

    /// Each SEQUENTIAL design with its sampled stuck-at faults.
    fn sequential() -> impl Iterator<Item = (Design, Vec<Fault>)> {
        SEQUENTIAL.iter().map(|&(src, top, args, step)| {
            let d = elaborate(&parse_program(src).unwrap(), top, args).unwrap();
            let faults = (0..d.netlist.nets.len())
                .step_by(step)
                .flat_map(|n| {
                    let site = NetId(n as u32);
                    [Fault::stuck_at_0(site), Fault::stuck_at_1(site)]
                })
                .collect();
            (d, faults)
        })
    }

    /// The lockstep formula of one encoder that evaluates the good and
    /// the faulty frame over the whole design.
    fn whole_lockstep(d: &Design, fault: Fault) -> Cnf {
        let clamp = stuck_clamp(&d.netlist, fault).unwrap();
        let c = Circuit::new(d).unwrap();
        let mut e = Enc::new();
        let mut state = Vec::new();
        for _ in &c.regs {
            let s1 = Lit::pos(e.cnf.fresh());
            let s0 = Lit::pos(e.cnf.fresh());
            e.cnf.add(&[s1, s0]);
            let n = e.f();
            state.push(Code { b1: s1, b0: s0, n });
        }
        let rset = d.rset.map(|_| e.free_bit().0);
        let (forced, _) = c.forced(&mut e, rset);
        let good = eval_frame(&mut e, &c, &forced, &state, None);
        let faulty = eval_frame(&mut e, &c, &forced, &state, Some(clamp));
        let mut diffs = Vec::new();
        for (&g, &f) in good.outs.iter().zip(&faulty.outs) {
            diffs.push(e.differ(g, f));
        }
        for (&g, &f) in good.next.iter().zip(&faulty.next) {
            diffs.push(e.differ(g, f));
        }
        e.require_any(diffs);
        e.cnf
    }

    #[test]
    fn a_shared_good_frame_builds_the_whole_formula() {
        for (d, faults) in sequential() {
            let shared = Lockstep::new(&d).unwrap();
            for fault in faults {
                let mut gov = Limits::new().governor();
                let formula = shared.encode(fault, &mut gov).unwrap().to_cnf();
                assert!(
                    formula == whole_lockstep(&d, fault),
                    "{} {fault:?}",
                    d.top_type
                );
            }
        }
    }

    #[test]
    fn the_cone_is_satisfiable_exactly_when_the_formula_is() {
        let verdict = |cnf: &Cnf| {
            let mut gov = Limits::new().governor();
            match Solver::from_cnf(cnf).solve(u64::MAX, &mut gov) {
                SatOutcome::Sat(model) => {
                    assert!(cnf.eval(&model));
                    true
                }
                SatOutcome::Unsat => false,
                SatOutcome::Unknown => unreachable!("no budget"),
            }
        };
        let (mut sat, mut unsat, mut sampled) = (0, 0, 0);
        for (d, faults) in sequential() {
            let shared = Lockstep::new(&d).unwrap();
            for fault in faults {
                let mut gov = Limits::new().governor();
                let formula = shared.encode(fault, &mut gov).unwrap();
                let (whole, cone) = (formula.to_cnf(), formula.cone());
                assert!(cone.clauses.len() <= whole.clauses.len());
                let v = verdict(&cone);
                assert_eq!(v, verdict(&whole), "{} {fault:?}", d.top_type);
                if let Some(model) = sample_model(&cone) {
                    assert!(cone.eval(&model));
                    sampled += 1;
                }
                if v {
                    sat += 1;
                } else {
                    unsat += 1;
                }
            }
        }
        assert!(sat > 0 && unsat > 0, "{sat} sat, {unsat} unsat");
        // Most satisfiable cones need no search.
        assert!(2 * sampled > sat, "{sampled} of {sat} sampled");
    }

    fn detection(d: &Design, fault: Fault) -> Cnf {
        let opts = EncodeOptions {
            frames: 1,
            ..EncodeOptions::default()
        };
        let mut gov = Limits::new().governor();
        encode_detection(d, fault, &opts, &mut gov).unwrap().cnf
    }

    fn lockstep(d: &Design, fault: Fault) -> Cnf {
        encode_lockstep(d, fault, &mut Limits::new().governor()).unwrap()
    }

    fn size(cnf: &Cnf) -> (u32, usize) {
        (cnf.num_vars, cnf.clauses.len())
    }

    /// The variables and clauses of one good frame of `d` on its own.
    fn good_copy(d: &Design) -> (u32, usize) {
        let c = Circuit::new(d).unwrap();
        let mut e = Enc::new();
        let rset = e.code(Value::Zero);
        let (forced, _) = c.forced(&mut e, Some(rset));
        eval_frame(&mut e, &c, &forced, &[], None);
        size(&e.cnf)
    }

    #[test]
    fn a_fault_that_reaches_no_output_encodes_the_empty_clause() {
        // `t` feeds nothing; the register and both gates on the output
        // path are the same literals in both copies.
        let d = design(
            "TYPE dangle = COMPONENT (IN a,b,c: boolean; OUT q: boolean) IS \
             SIGNAL t: boolean; r: REG; \
             BEGIN t := AND(a,b); r.in := XOR(c, r.out); q := AND(r.out, a) END;",
            "dangle",
        );
        let site = d.names["dangle.t"];
        for fault in [Fault::stuck_at_0(site), Fault::stuck_at_1(site)] {
            let shared = Lockstep::new(&d).unwrap();
            let mut gov = Limits::new().governor();
            let cone = shared.encode(fault, &mut gov).unwrap().cone();
            assert_eq!(cone.clauses, [vec![]], "cone of {:?}", fault.kind);
            for (name, cnf) in [
                ("detection", detection(&d, fault)),
                ("lockstep", lockstep(&d, fault)),
            ] {
                assert!(
                    cnf.clauses.iter().any(Vec::is_empty),
                    "{name} formula of {:?} lacks the empty clause",
                    fault.kind
                );
            }
        }
    }

    #[test]
    fn the_cone_a_fault_cannot_reach_is_encoded_once() {
        // Two output cones that share no gate; the fault sits in `p`'s.
        // Deepening `q`'s cone must grow the formula by what it grows
        // the good copy alone: the faulty copy shares all of it.
        let src = |depth: usize| {
            let mut q = "AND(c,d)".to_string();
            for i in 0..depth {
                q = if i % 2 == 0 {
                    format!("OR(c, {q})")
                } else {
                    format!("AND(d, {q})")
                };
            }
            format!(
                "TYPE two = COMPONENT (IN a,b,c,d: boolean; OUT p,q: boolean) IS \
                 BEGIN p := AND(a,b); q := {q} END;"
            )
        };
        let (small, large) = (design(&src(2), "two"), design(&src(8), "two"));
        let fault = |d: &Design| Fault::stuck_at_0(d.port("p").unwrap().nets[0]);
        let grow = |a: (u32, usize), b: (u32, usize)| (b.0 - a.0, b.1 - a.1);
        let good = grow(good_copy(&small), good_copy(&large));
        assert!(good.0 > 0 && good.1 > 0, "q's cone did not grow: {good:?}");
        for (name, encode) in [
            ("detection", detection as fn(&Design, Fault) -> Cnf),
            ("lockstep", lockstep),
        ] {
            let formula = grow(
                size(&encode(&small, fault(&small))),
                size(&encode(&large, fault(&large))),
            );
            assert_eq!(formula, good, "{name}: (vars, clauses) growth");
        }
    }
}
