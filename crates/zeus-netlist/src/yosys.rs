//! The Yosys-JSON bridge: import and export of the standard gate-level
//! cell subset.
//!
//! The exchanged dialect is the `yosys -o design.json` netlist schema
//! restricted to `$and` / `$or` / `$xor` / `$not` / `$mux` / `$dff`,
//! constant bit drivers (`"0"`, `"1"`, `"x"`, `"z"`) and multi-bit
//! ports, which are split to one Zeus net per bit on import.
//!
//! Mapping notes:
//!
//! - A Zeus `If` node is a *conditional contribution* (§8): it drives
//!   its value when the condition is 1 and NOINFL otherwise. It exports
//!   as a `$mux` whose `A` (else) input is the constant `"z"` bit, and a
//!   `$mux` with a real else-input imports as two `If` contributions
//!   (plus a `$not` of the select) onto a multiplex net.
//! - `Nand`/`Nor`/`Equal` and n-ary gates decompose into 2-input
//!   chains with synthesized nets; `Buf` exports as `$and(a,a)` and an
//!   `$and` whose inputs coincide imports back as `Buf`.
//! - `$dff` needs a clock: designs that never mention `CLK` get a
//!   synthesized input port named `$zeus$clk`.
//! - `Random` has no Yosys equivalent and refuses to export (`Z606`).
//!
//! Import never trusts the file: everything flows through
//! [`validate_design`] before a `Design` is returned, and every failure
//! is a `Z6xx` diagnostic.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use zeus_elab::{Design, InstanceNode, Json, Limits, NetId, Netlist, NodeOp, Port, Shape};
use zeus_sema::{BasicKind, Value};
use zeus_syntax::ast::Mode;
use zeus_syntax::diag::{codes, Diagnostic, Diagnostics};
use zeus_syntax::span::Span;

use crate::validate::validate_design;

fn format_err(msg: String) -> Diagnostic {
    Diagnostic::error(Span::dummy(), msg).with_code(codes::NETLIST_FORMAT)
}

fn structure(msg: String) -> Diagnostic {
    Diagnostic::error(Span::dummy(), msg).with_code(codes::NETLIST_STRUCTURE)
}

fn unknown_op(msg: String) -> Diagnostic {
    Diagnostic::error(Span::dummy(), msg).with_code(codes::NETLIST_UNKNOWN_OP)
}

/// One bit position in a Yosys connection: a net number or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Bit {
    Net(u64),
    Const(Value),
}

/// The largest net number a connection may name: 2^53, the bound the
/// bridge has always read exactly.
const MAX_BIT: u64 = 1 << 53;

fn parse_bit(j: &Json) -> Result<Bit, Diagnostic> {
    if let Some(n) = j.as_u64().filter(|&n| n <= MAX_BIT) {
        return Ok(Bit::Net(n));
    }
    match j.as_str() {
        Some("0") => Ok(Bit::Const(Value::Zero)),
        Some("1") => Ok(Bit::Const(Value::One)),
        Some("x") => Ok(Bit::Const(Value::Undef)),
        Some("z") => Ok(Bit::Const(Value::NoInfl)),
        _ => Err(format_err(format!(
            "bad bit {} in a connection (expected a net number or \"0\"/\"1\"/\"x\"/\"z\")",
            j.encode()
        ))),
    }
}

fn bit_value(v: Value) -> &'static str {
    match v {
        Value::Zero => "0",
        Value::One => "1",
        Value::Undef => "x",
        Value::NoInfl => "z",
    }
}

// ---------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------

struct Exporter<'a> {
    design: &'a Design,
    /// Canonical net index → Yosys bit number (numbering starts at 2,
    /// matching Yosys convention of reserving small indices).
    bits: HashMap<u32, u64>,
    /// Canonical net index → constant string, for const-driven nets.
    consts: HashMap<u32, &'static str>,
    next_bit: u64,
    cells: Vec<(String, Json)>,
}

impl<'a> Exporter<'a> {
    fn bit(&self, net: NetId) -> Json {
        let rep = self.design.netlist.find_ref(net);
        match self.consts.get(&rep.0) {
            Some(s) => Json::Str(s.to_string()),
            None => Json::Num(self.bits[&rep.0]),
        }
    }

    fn fresh(&mut self) -> Json {
        let b = self.next_bit;
        self.next_bit += 1;
        Json::Num(b)
    }

    fn cell(&mut self, name: String, ty: &str, conns: Vec<(&str, Json)>) {
        let connections = Json::Obj(
            conns
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Arr(vec![v])))
                .collect(),
        );
        self.cells.push((
            name,
            Json::Obj(vec![
                ("hide_name".to_string(), Json::Num(1)),
                ("type".to_string(), Json::Str(ty.to_string())),
                ("parameters".to_string(), Json::Obj(vec![])),
                ("attributes".to_string(), Json::Obj(vec![])),
                ("connections".to_string(), connections),
            ]),
        ));
    }

    /// Chains an n-ary associative gate into 2-input cells, returning
    /// the bit holding the final value.
    fn chain(&mut self, base: &str, ty: &str, inputs: &[Json], out: Option<Json>) -> Json {
        debug_assert!(!inputs.is_empty());
        if inputs.len() == 1 {
            // Single-input gate: emit as a pass-through and(a,a).
            let y = out.unwrap_or_else(|| self.fresh());
            self.cell(
                format!("{base}.0"),
                "$and",
                vec![
                    ("A", inputs[0].clone()),
                    ("B", inputs[0].clone()),
                    ("Y", y.clone()),
                ],
            );
            return y;
        }
        let mut acc = inputs[0].clone();
        for (k, inp) in inputs.iter().enumerate().skip(1) {
            let y = if k + 1 == inputs.len() {
                out.clone().unwrap_or_else(|| self.fresh())
            } else {
                self.fresh()
            };
            self.cell(
                format!("{base}.{}", k - 1),
                ty,
                vec![("A", acc), ("B", inp.clone()), ("Y", y.clone())],
            );
            acc = y;
        }
        acc
    }
}

/// Exports a design to Yosys-JSON text.
///
/// # Errors
///
/// `Z606` when the design uses an operation with no equivalent in the
/// gate-level cell subset (`Random`, a zero-width `Equal`, or a constant
/// contribution onto a multiply-driven net).
pub fn yosys_to_json(design: &Design) -> Result<String, Diagnostic> {
    let nl = &design.netlist;
    let mut drivers: HashMap<u32, u32> = HashMap::new();
    for node in nl.nodes.iter() {
        *drivers.entry(nl.find_ref(node.output).0).or_insert(0) += 1;
    }

    // Constant drivers become constant bits — only when the constant is
    // the net's sole source, otherwise the merge would drop a
    // contribution.
    let mut consts = HashMap::new();
    for node in nl.nodes.iter() {
        if let NodeOp::Const(v) = &node.op {
            let rep = nl.find_ref(node.output);
            if drivers.get(&rep.0) == Some(&1) {
                consts.insert(rep.0, bit_value(*v));
            } else {
                return Err(unknown_op(format!(
                    "constant contribution onto multiply-driven net '{}' has no \
                     yosys cell equivalent",
                    nl.nets[rep.index()].name
                )));
            }
        }
    }

    // A net that is read but driven by nothing — no cell, no external
    // port, not a clock/reset rail — evaluates to UNDEF; export it as
    // the constant "x" bit so the (stricter) importer on the other side
    // sees no dangling reference.
    let mut driven: BTreeSet<u32> = BTreeSet::new();
    for node in nl.nodes.iter() {
        driven.insert(nl.find_ref(node.output).0);
    }
    for p in &design.ports {
        if p.mode != Mode::Out {
            for &n in &p.nets {
                driven.insert(nl.find_ref(n).0);
            }
        }
    }
    for rail in [design.clk, design.rset].into_iter().flatten() {
        driven.insert(nl.find_ref(rail).0);
    }
    let mut read: BTreeSet<u32> = BTreeSet::new();
    for node in nl.nodes.iter() {
        for &i in &node.inputs {
            read.insert(nl.find_ref(i).0);
        }
    }
    for p in &design.ports {
        if p.mode == Mode::Out {
            for &n in &p.nets {
                read.insert(nl.find_ref(n).0);
            }
        }
    }
    for rep in read {
        if !driven.contains(&rep) && !consts.contains_key(&rep) {
            consts.insert(rep, "x");
        }
    }

    let mut bits = HashMap::new();
    let mut next_bit = 2u64;
    for rep in nl.representatives() {
        if consts.contains_key(&rep.0) {
            continue;
        }
        bits.insert(rep.0, next_bit);
        next_bit += 1;
    }

    let mut ex = Exporter {
        design,
        bits,
        consts,
        next_bit,
        cells: Vec::new(),
    };

    // A clock for the $dff cells: the design's CLK net, or a synthesized
    // input when the program never mentioned CLK.
    let has_regs = nl.registers().next().is_some();
    let clk_bit = match design.clk {
        Some(c) => Some(ex.bit(c)),
        None if has_regs => Some(ex.fresh()),
        None => None,
    };

    for (i, node) in nl.nodes.iter().enumerate() {
        let ins: Vec<Json> = node.inputs.iter().map(|&n| ex.bit(n)).collect();
        let out = ex.bit(node.output);
        let base = format!("$g{i}");
        match &node.op {
            NodeOp::And => {
                ex.chain(&base, "$and", &ins, Some(out));
            }
            NodeOp::Or => {
                ex.chain(&base, "$or", &ins, Some(out));
            }
            NodeOp::Xor => {
                ex.chain(&base, "$xor", &ins, Some(out));
            }
            NodeOp::Nand => {
                let t = ex.chain(&base, "$and", &ins, None);
                ex.cell(format!("{base}.n"), "$not", vec![("A", t), ("Y", out)]);
            }
            NodeOp::Nor => {
                let t = ex.chain(&base, "$or", &ins, None);
                ex.cell(format!("{base}.n"), "$not", vec![("A", t), ("Y", out)]);
            }
            NodeOp::Not => {
                ex.cell(base, "$not", vec![("A", ins[0].clone()), ("Y", out)]);
            }
            NodeOp::Buf => {
                ex.cell(
                    base,
                    "$and",
                    vec![("A", ins[0].clone()), ("B", ins[0].clone()), ("Y", out)],
                );
            }
            NodeOp::If => {
                ex.cell(
                    base,
                    "$mux",
                    vec![
                        ("A", Json::Str("z".to_string())),
                        ("B", ins[1].clone()),
                        ("S", ins[0].clone()),
                        ("Y", out),
                    ],
                );
            }
            NodeOp::Equal { width } => {
                let w = *width;
                if w == 0 {
                    return Err(unknown_op(
                        "zero-width equality has no yosys cell equivalent".to_string(),
                    ));
                }
                let mut xors = Vec::with_capacity(w);
                for k in 0..w {
                    let y = ex.fresh();
                    ex.cell(
                        format!("{base}.x{k}"),
                        "$xor",
                        vec![
                            ("A", ins[k].clone()),
                            ("B", ins[w + k].clone()),
                            ("Y", y.clone()),
                        ],
                    );
                    xors.push(y);
                }
                let any = ex.chain(&format!("{base}.o"), "$or", &xors, None);
                ex.cell(format!("{base}.n"), "$not", vec![("A", any), ("Y", out)]);
            }
            NodeOp::Const(_) => {} // realized as constant bits
            NodeOp::Random => {
                return Err(unknown_op(
                    "random generator node has no yosys cell equivalent".to_string(),
                ));
            }
            NodeOp::Reg => {
                ex.cell(
                    base,
                    "$dff",
                    vec![
                        ("CLK", clk_bit.clone().expect("clock synthesized above")),
                        ("D", ins[0].clone()),
                        ("Q", out),
                    ],
                );
            }
        }
    }

    let mut ports = Vec::new();
    for p in &design.ports {
        let dir = match p.mode {
            Mode::In => "input",
            Mode::Out => "output",
            Mode::InOut => "inout",
        };
        let bits: Vec<Json> = p.nets.iter().map(|&n| ex.bit(n)).collect();
        ports.push((
            p.name.clone(),
            Json::Obj(vec![
                ("direction".to_string(), Json::Str(dir.to_string())),
                ("bits".to_string(), Json::Arr(bits)),
            ]),
        ));
    }
    // The clock/reset rails are forced externally by the simulator, so
    // a module using them must expose them as inputs — unless some port
    // already covers the net (which is how a re-export of our own import
    // avoids duplicating the rail port).
    let port_covered: BTreeSet<u32> = design
        .ports
        .iter()
        .flat_map(|p| p.nets.iter().map(|&n| nl.find_ref(n).0))
        .collect();
    let mut rail_port = |name: &str, bit: Json| {
        ports.push((
            name.to_string(),
            Json::Obj(vec![
                ("direction".to_string(), Json::Str("input".to_string())),
                ("bits".to_string(), Json::Arr(vec![bit])),
            ]),
        ));
    };
    match design.clk {
        Some(c) if !port_covered.contains(&nl.find_ref(c).0) => {
            rail_port("$zeus$clk", ex.bit(c));
        }
        None => {
            if let Some(cb) = clk_bit {
                rail_port("$zeus$clk", cb);
            }
        }
        _ => {}
    }
    if let Some(r) = design.rset {
        if !port_covered.contains(&nl.find_ref(r).0) {
            rail_port("$zeus$rset", ex.bit(r));
        }
    }

    let mut netnames = Vec::new();
    let named: BTreeMap<&str, NetId> = design.names.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (name, net) in named {
        netnames.push((
            name.to_string(),
            Json::Obj(vec![
                ("hide_name".to_string(), Json::Num(0)),
                ("bits".to_string(), Json::Arr(vec![ex.bit(net)])),
            ]),
        ));
    }

    let module = Json::Obj(vec![
        (
            "attributes".to_string(),
            Json::Obj(vec![("top".to_string(), Json::Num(1))]),
        ),
        ("ports".to_string(), Json::Obj(ports)),
        ("cells".to_string(), Json::Obj(ex.cells)),
        ("netnames".to_string(), Json::Obj(netnames)),
    ]);
    let doc = Json::Obj(vec![
        ("creator".to_string(), Json::Str("zeus-netlist".to_string())),
        (
            "modules".to_string(),
            Json::Obj(vec![(design.top_type.clone(), module)]),
        ),
    ]);
    Ok(doc.encode())
}

// ---------------------------------------------------------------------
// Import
// ---------------------------------------------------------------------

struct Importer {
    nl: Netlist,
    nets: HashMap<u64, NetId>,
    consts: HashMap<Value, NetId>,
    clk: Option<NetId>,
}

impl Importer {
    fn net(&mut self, bit: Bit) -> NetId {
        match bit {
            Bit::Net(n) => self.nets[&n],
            Bit::Const(v) => match self.consts.get(&v) {
                Some(&id) => id,
                None => {
                    let id = self.nl.add_net(
                        BasicKind::Boolean,
                        format!("$const{}", bit_value(v)),
                        Span::dummy(),
                    );
                    self.nl
                        .add_node(NodeOp::Const(v), vec![], id, None, Span::dummy());
                    self.consts.insert(v, id);
                    id
                }
            },
        }
    }
}

fn conn_bits(cell: &Json, name: &str, port: &str) -> Result<Vec<Bit>, Diagnostic> {
    let bits = cell
        .get("connections")
        .and_then(|c| c.get(port))
        .and_then(|b| b.as_arr())
        .ok_or_else(|| structure(format!("cell '{name}' is missing its '{port}' connection")))?;
    bits.iter().map(parse_bit).collect()
}

/// Imports a Yosys-JSON netlist under the default import budget.
///
/// # Errors
///
/// See [`yosys_from_json_limited`].
pub fn yosys_from_json(text: &str) -> Result<Design, Diagnostic> {
    yosys_from_json_limited(text, &crate::import_limits())
}

/// Imports a Yosys-JSON netlist under an explicit budget. The result has
/// passed the full structural validator; its digest is only meaningful
/// (and only computed by callers) after this returns.
///
/// # Errors
///
/// - `Z601` — the text is not well-formed JSON, or not the Yosys schema.
/// - `Z603` — structural violation: width mismatch between a cell's
///   connections, a dangling (undriven but read) net, a cell driving an
///   input port, or several clock domains.
/// - `Z604` — a combinational cycle not broken by a `$dff`.
/// - `Z606` — a cell type outside the supported gate-level subset.
/// - `Z607` — a [`Limits`] budget exceeded.
pub fn yosys_from_json_limited(text: &str, limits: &Limits) -> Result<Design, Diagnostic> {
    let doc = Json::parse(text).map_err(|e| format_err(format!("yosys-json: {e}")))?;
    let modules = doc
        .get("modules")
        .and_then(|m| m.as_obj())
        .ok_or_else(|| format_err("yosys-json: no 'modules' object".to_string()))?;
    let (top_name, module) = match modules.len() {
        0 => return Err(format_err("yosys-json: 'modules' is empty".to_string())),
        1 => (&modules[0].0, &modules[0].1),
        _ => {
            let tops: Vec<&(String, Json)> = modules
                .iter()
                .filter(|(_, m)| {
                    m.get("attributes")
                        .and_then(|a| a.get("top"))
                        .is_some_and(|t| t.is_truthy())
                })
                .collect();
            match tops.as_slice() {
                [one] => (&one.0, &one.1),
                _ => {
                    return Err(structure(
                        "yosys-json: several modules; exactly one must carry the \
                         'top' attribute"
                            .to_string(),
                    ))
                }
            }
        }
    };

    let ports_obj = module.get("ports").and_then(|p| p.as_obj()).unwrap_or(&[]);
    let cells_obj = module.get("cells").and_then(|c| c.as_obj()).unwrap_or(&[]);
    let netnames_obj = module
        .get("netnames")
        .and_then(|n| n.as_obj())
        .unwrap_or(&[]);

    // Pass 1: every numeric bit becomes one boolean net, allocated in
    // ascending bit order so the import is independent of object order.
    let mut all_bits: BTreeSet<u64> = BTreeSet::new();
    let mut collect = |bits: &Json| -> Result<(), Diagnostic> {
        for b in bits.as_arr().unwrap_or(&[]) {
            if let Bit::Net(n) = parse_bit(b)? {
                all_bits.insert(n);
            }
        }
        Ok(())
    };
    for (_, p) in ports_obj {
        if let Some(bits) = p.get("bits") {
            collect(bits)?;
        }
    }
    for (_, c) in cells_obj {
        if let Some(conns) = c.get("connections").and_then(|c| c.as_obj()) {
            for (_, bits) in conns {
                collect(bits)?;
            }
        }
    }
    for (_, n) in netnames_obj {
        if let Some(bits) = n.get("bits") {
            collect(bits)?;
        }
    }
    if all_bits.len() > limits.max_nets {
        return Err(Diagnostic::error(
            Span::dummy(),
            format!(
                "yosys-json module has {} nets, over the budget of {}",
                all_bits.len(),
                limits.max_nets
            ),
        )
        .with_code(codes::NETLIST_LIMIT));
    }

    let mut imp = Importer {
        nl: Netlist::new(),
        nets: HashMap::new(),
        consts: HashMap::new(),
        clk: None,
    };
    for &b in &all_bits {
        let id = imp
            .nl
            .add_net(BasicKind::Boolean, format!("$n{b}"), Span::dummy());
        imp.nets.insert(b, id);
    }
    // Debug names: netnames first, then port names take precedence.
    let apply_names = |nl: &mut Netlist, nets: &HashMap<u64, NetId>, name: &str, bits: &[Bit]| {
        for (i, b) in bits.iter().enumerate() {
            if let Bit::Net(n) = b {
                let full = if bits.len() == 1 {
                    name.to_string()
                } else {
                    format!("{name}[{i}]")
                };
                nl.nets[nets[n].index()].name = full;
            }
        }
    };
    let mut names: HashMap<String, NetId> = HashMap::new();
    for (name, n) in netnames_obj {
        if let Some(bits) = n.get("bits").and_then(|b| b.as_arr()) {
            let bits: Vec<Bit> = bits.iter().map(parse_bit).collect::<Result<_, _>>()?;
            apply_names(&mut imp.nl, &imp.nets, name, &bits);
            for (i, b) in bits.iter().enumerate() {
                if let Bit::Net(num) = b {
                    let full = if bits.len() == 1 {
                        name.clone()
                    } else {
                        format!("{name}[{i}]")
                    };
                    names.insert(full, imp.nets[num]);
                }
            }
        }
    }

    // Ports.
    let mut ports = Vec::new();
    // Input-port bits: externally forced, no cell may drive them.
    let mut forced: BTreeSet<u32> = BTreeSet::new();
    // Input *or* inout bits: count as driven for the dangling-net check
    // (an inout port may be contributed to from either side).
    let mut ext_driven: BTreeSet<u32> = BTreeSet::new();
    for (name, p) in ports_obj {
        let dir = p.get("direction").and_then(|d| d.as_str());
        let mode = match dir {
            Some("input") => Mode::In,
            Some("output") => Mode::Out,
            Some("inout") => Mode::InOut,
            _ => return Err(structure(format!("port '{name}' has no valid direction"))),
        };
        let bits = p
            .get("bits")
            .and_then(|b| b.as_arr())
            .ok_or_else(|| structure(format!("port '{name}' has no bits")))?;
        let bits: Vec<Bit> = bits.iter().map(parse_bit).collect::<Result<_, _>>()?;
        apply_names(&mut imp.nl, &imp.nets, name, &bits);
        let nets: Vec<NetId> = bits.iter().map(|&b| imp.net(b)).collect();
        if mode != Mode::Out {
            for (b, n) in bits.iter().zip(&nets) {
                if matches!(b, Bit::Net(_)) {
                    ext_driven.insert(n.0);
                    if mode == Mode::In {
                        forced.insert(n.0);
                    }
                }
            }
        }
        for (i, n) in nets.iter().enumerate() {
            let full = if nets.len() == 1 {
                name.clone()
            } else {
                format!("{name}[{i}]")
            };
            names.insert(full, *n);
        }
        let shape = if nets.len() == 1 {
            Shape::boolean()
        } else {
            Shape::Array {
                lo: 0,
                hi: nets.len() as i64 - 1,
                elem: std::sync::Arc::new(Shape::boolean()),
            }
        };
        ports.push(Port {
            name: name.clone(),
            mode,
            shape,
            nets,
        });
    }

    // Cells.
    for (name, cell) in cells_obj {
        let ty = cell
            .get("type")
            .and_then(|t| t.as_str())
            .ok_or_else(|| structure(format!("cell '{name}' has no type")))?;
        let same_width = |a: &[Bit], b: &[Bit], what: &str| -> Result<(), Diagnostic> {
            if a.len() != b.len() {
                return Err(structure(format!(
                    "cell '{name}' ({ty}): {what} widths disagree ({} vs {})",
                    a.len(),
                    b.len()
                )));
            }
            Ok(())
        };
        match ty {
            "$and" | "$or" | "$xor" => {
                let a = conn_bits(cell, name, "A")?;
                let b = conn_bits(cell, name, "B")?;
                let y = conn_bits(cell, name, "Y")?;
                same_width(&a, &y, "A/Y")?;
                same_width(&b, &y, "B/Y")?;
                for k in 0..y.len() {
                    let (an, bn) = (imp.net(a[k]), imp.net(b[k]));
                    let out = imp.net(y[k]);
                    if ty == "$and" && an == bn {
                        // Our own buf encoding — restore it.
                        imp.nl
                            .add_node(NodeOp::Buf, vec![an], out, None, Span::dummy());
                        continue;
                    }
                    let op = match ty {
                        "$and" => NodeOp::And,
                        "$or" => NodeOp::Or,
                        _ => NodeOp::Xor,
                    };
                    imp.nl.add_node(op, vec![an, bn], out, None, Span::dummy());
                }
            }
            "$not" => {
                let a = conn_bits(cell, name, "A")?;
                let y = conn_bits(cell, name, "Y")?;
                same_width(&a, &y, "A/Y")?;
                for k in 0..y.len() {
                    let an = imp.net(a[k]);
                    let out = imp.net(y[k]);
                    imp.nl
                        .add_node(NodeOp::Not, vec![an], out, None, Span::dummy());
                }
            }
            "$mux" => {
                let a = conn_bits(cell, name, "A")?;
                let b = conn_bits(cell, name, "B")?;
                let s = conn_bits(cell, name, "S")?;
                let y = conn_bits(cell, name, "Y")?;
                same_width(&a, &y, "A/Y")?;
                same_width(&b, &y, "B/Y")?;
                if s.len() != 1 {
                    return Err(structure(format!(
                        "cell '{name}' ($mux): S must be one bit, got {}",
                        s.len()
                    )));
                }
                let sn = imp.net(s[0]);
                if a.iter().all(|&b| b == Bit::Const(Value::NoInfl)) {
                    // A Zeus conditional contribution round-tripping home.
                    for k in 0..y.len() {
                        let bn = imp.net(b[k]);
                        let out = imp.net(y[k]);
                        imp.nl
                            .add_node(NodeOp::If, vec![sn, bn], out, None, Span::dummy());
                    }
                } else {
                    // A true 2-way mux: two guarded contributions.
                    let inv = imp.nl.add_net(
                        BasicKind::Boolean,
                        format!("$muxinv${name}"),
                        Span::dummy(),
                    );
                    imp.nl
                        .add_node(NodeOp::Not, vec![sn], inv, None, Span::dummy());
                    for k in 0..y.len() {
                        let (an, bn) = (imp.net(a[k]), imp.net(b[k]));
                        let out = imp.net(y[k]);
                        imp.nl
                            .add_node(NodeOp::If, vec![sn, bn], out, None, Span::dummy());
                        imp.nl
                            .add_node(NodeOp::If, vec![inv, an], out, None, Span::dummy());
                    }
                }
            }
            "$dff" => {
                let clk = conn_bits(cell, name, "CLK")?;
                let d = conn_bits(cell, name, "D")?;
                let q = conn_bits(cell, name, "Q")?;
                same_width(&d, &q, "D/Q")?;
                let [Bit::Net(_)] = clk.as_slice() else {
                    return Err(structure(format!(
                        "cell '{name}' ($dff): CLK must be one non-constant bit"
                    )));
                };
                let clk_net = imp.net(clk[0]);
                match imp.clk {
                    None => imp.clk = Some(clk_net),
                    Some(c) if c == clk_net => {}
                    Some(_) => {
                        return Err(structure(format!(
                            "cell '{name}' ($dff): a second clock domain is not \
                             supported"
                        )))
                    }
                }
                for k in 0..q.len() {
                    let dn = imp.net(d[k]);
                    let out = imp.net(q[k]);
                    imp.nl
                        .add_node(NodeOp::Reg, vec![dn], out, None, Span::dummy());
                }
            }
            other => {
                return Err(unknown_op(format!(
                    "cell '{name}' has type '{other}', outside the supported \
                     $and/$or/$xor/$not/$mux/$dff subset"
                )))
            }
        }
    }

    // Driver accounting: reject cells driving input ports, flag
    // dangling (read but never driven) nets, and promote multiply-driven
    // nets to multiplex.
    let mut driver_count: HashMap<u32, u32> = HashMap::new();
    for node in &imp.nl.nodes {
        *driver_count.entry(node.output.0).or_insert(0) += 1;
    }
    for node in &imp.nl.nodes {
        if forced.contains(&node.output.0) {
            return Err(structure(format!(
                "net '{}' is an input-port bit but is also driven by a cell",
                imp.nl.nets[node.output.index()].name
            )));
        }
    }
    for (net, count) in &driver_count {
        if *count > 1 {
            imp.nl.nets[NetId(*net).index()].kind = BasicKind::Multiplex;
        }
    }
    let mut read: BTreeSet<u32> = BTreeSet::new();
    for node in &imp.nl.nodes {
        for i in &node.inputs {
            read.insert(i.0);
        }
    }
    for p in &ports {
        if p.mode == Mode::Out {
            for n in &p.nets {
                read.insert(n.0);
            }
        }
    }
    for net in read {
        if !ext_driven.contains(&net) && !driver_count.contains_key(&net) {
            return Err(structure(format!(
                "dangling net '{}': read by a cell or output port but never driven",
                imp.nl.nets[NetId(net).index()].name
            )));
        }
    }

    let mut netlist = imp.nl;
    netlist.finish().map_err(|ds: Diagnostics| {
        let msg = ds
            .iter()
            .next()
            .map(|d| d.message.clone())
            .unwrap_or_else(|| "combinational cycle".to_string());
        Diagnostic::error(Span::dummy(), format!("imported design rejected: {msg}"))
            .with_code(codes::NETLIST_CYCLE)
    })?;

    // The clock/reset rails: a `$zeus$clk`/`$zeus$rset` input port (our
    // own export convention), and for the clock also the `$dff` CLK
    // pins — which must all agree.
    let port_rail = |name: &str| -> Option<NetId> {
        ports
            .iter()
            .find(|p| p.name == name && p.mode == Mode::In && p.nets.len() == 1)
            .map(|p| p.nets[0])
    };
    let clk = match (imp.clk, port_rail("$zeus$clk")) {
        (Some(a), Some(b)) if a != b => {
            return Err(structure(
                "the $zeus$clk port and the $dff CLK pins name different nets".to_string(),
            ))
        }
        (a, b) => a.or(b),
    };
    let rset = port_rail("$zeus$rset");

    let design = Design {
        netlist,
        top_type: top_name.clone(),
        ports,
        instances: InstanceNode {
            type_name: top_name.clone(),
            ..InstanceNode::default()
        },
        warnings: Diagnostics::new(),
        clk,
        rset,
        names,
        optimized: false,
    };
    validate_design(&design, limits)?;
    Ok(design)
}
