//! The codec of `zeus netlist v1`: how a [`Design`] becomes text and
//! back.
//!
//! The format is line-oriented and human-debuggable, and it round-trips
//! every field the simulation, fault, ATPG and optimizer paths consume:
//! the netlist with its alias classes, ports with full shapes, the name
//! map, and the clock/reset nets. It is deliberately lossy in three
//! places: source spans (a read design carries dummy spans, so
//! diagnostics against the original source come only from a fresh
//! elaboration), elaboration warnings, and the instance/layout tree (only
//! the top's type name survives).
//!
//! Every file embeds the [`design_digest`] of its design; [`decode`]
//! recomputes the digest of the reconstruction and refuses a mismatch,
//! so a bit flip that still parses fails closed. The reader raises each
//! failure as its `Z6xx` diagnostic where it classifies it; the token
//! helpers return plain strings, which the line they belong to turns
//! into a `Z601`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use zeus_elab::netlist::{GroupConstraint, Net, Node, NodeOp};
use zeus_elab::{
    design_digest, BuiltinComponent, Design, FieldShape, InstanceNode, NetId, Netlist, Port,
    RecordShape, Shape,
};
use zeus_sema::rules::BasicKind;
use zeus_sema::value::Value;
use zeus_syntax::ast::Mode;
use zeus_syntax::diag::{codes, Code, Diagnostic, Diagnostics};
use zeus_syntax::span::Span;

use crate::TEXT_MAGIC;

/// The payload version line that follows [`TEXT_MAGIC`]; bump it on any
/// change to the payload. v2 added the `opt` line (the optimizer
/// provenance flag).
const PAYLOAD_MAGIC: &str = "zeus-design v2";

/// Nesting cap for [`shape_parse`]: deeper shapes in a file are rejected
/// rather than recursed into (a hostile file could otherwise overflow
/// the stack, which is not a catchable panic). Matches the elaborator's
/// default `max_type_depth`.
const MAX_SHAPE_DEPTH: usize = 64;

/// Cap on `Vec::with_capacity` preallocation from header counts: a
/// hostile header claiming `nets 99999999999` must not reserve memory
/// the body lines never justify. Parsing still accepts larger tables —
/// the vectors just grow normally past this point.
const MAX_PREALLOC: usize = 1 << 20;

/// A `Z601`: the text is not a well-formed instance of the format
/// (unknown header, truncated table, malformed token).
fn malformed(msg: impl Into<String>) -> Diagnostic {
    Diagnostic::error(Span::dummy(), msg).with_code(codes::NETLIST_FORMAT)
}

/// A header line that is not the one this toolchain speaks.
fn skew(first: &str, speaks: &str, code: Code) -> Diagnostic {
    Diagnostic::error(
        Span::dummy(),
        format!("version skew: file is '{first}', this toolchain speaks '{speaks}'"),
    )
    .with_code(code)
}

/// Escapes a name so it fits in one whitespace-separated token.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    if out.is_empty() {
        out.push_str("\\e");
    }
    out
}

/// Inverse of [`esc`].
fn unesc(s: &str) -> Result<String, String> {
    if s == "\\e" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            other => return Err(format!("bad escape \\{other:?} in name")),
        }
    }
    Ok(out)
}

fn kind_tag(k: BasicKind) -> &'static str {
    match k {
        BasicKind::Boolean => "b",
        BasicKind::Multiplex => "m",
    }
}

fn kind_parse(s: &str) -> Result<BasicKind, String> {
    match s {
        "b" => Ok(BasicKind::Boolean),
        "m" => Ok(BasicKind::Multiplex),
        _ => Err(format!("bad basic kind '{s}'")),
    }
}

/// The token a node line names its operation by.
pub(crate) fn op_tag(op: &NodeOp) -> String {
    match op {
        NodeOp::And => "and".to_string(),
        NodeOp::Or => "or".to_string(),
        NodeOp::Nand => "nand".to_string(),
        NodeOp::Nor => "nor".to_string(),
        NodeOp::Xor => "xor".to_string(),
        NodeOp::Not => "not".to_string(),
        NodeOp::Equal { width } => format!("eq{width}"),
        NodeOp::Buf => "buf".to_string(),
        NodeOp::If => "if".to_string(),
        NodeOp::Const(Value::Zero) => "c0".to_string(),
        NodeOp::Const(Value::One) => "c1".to_string(),
        NodeOp::Const(Value::Undef) => "cu".to_string(),
        NodeOp::Const(Value::NoInfl) => "cn".to_string(),
        NodeOp::Random => "random".to_string(),
        NodeOp::Reg => "reg".to_string(),
    }
}

fn op_parse(s: &str) -> Result<NodeOp, String> {
    Ok(match s {
        "and" => NodeOp::And,
        "or" => NodeOp::Or,
        "nand" => NodeOp::Nand,
        "nor" => NodeOp::Nor,
        "xor" => NodeOp::Xor,
        "not" => NodeOp::Not,
        "buf" => NodeOp::Buf,
        "if" => NodeOp::If,
        "c0" => NodeOp::Const(Value::Zero),
        "c1" => NodeOp::Const(Value::One),
        "cu" => NodeOp::Const(Value::Undef),
        "cn" => NodeOp::Const(Value::NoInfl),
        "random" => NodeOp::Random,
        "reg" => NodeOp::Reg,
        _ => {
            if let Some(w) = s.strip_prefix("eq") {
                NodeOp::Equal {
                    width: w.parse().map_err(|_| format!("bad eq width '{s}'"))?,
                }
            } else {
                return Err(format!("bad node op '{s}'"));
            }
        }
    })
}

fn mode_tag(m: Mode) -> &'static str {
    match m {
        Mode::In => "i",
        Mode::Out => "o",
        Mode::InOut => "x",
    }
}

fn mode_parse(s: &str) -> Result<Mode, String> {
    match s {
        "i" => Ok(Mode::In),
        "o" => Ok(Mode::Out),
        "x" => Ok(Mode::InOut),
        _ => Err(format!("bad mode '{s}'")),
    }
}

/// Appends the prefix encoding of a shape to `toks`.
fn shape_tokens(shape: &Shape, toks: &mut Vec<String>) {
    match shape {
        Shape::Basic(k) => toks.push(kind_tag(*k).to_string()),
        Shape::Virtual => toks.push("v".to_string()),
        Shape::Array { lo, hi, elem } => {
            toks.push("a".to_string());
            toks.push(lo.to_string());
            toks.push(hi.to_string());
            shape_tokens(elem, toks);
        }
        Shape::Record(r) => {
            toks.push("r".to_string());
            toks.push(r.type_name.as_deref().map(esc).unwrap_or("-".to_string()));
            toks.push(if r.has_body { "1" } else { "0" }.to_string());
            toks.push(match r.builtin {
                Some(BuiltinComponent::Reg) => "reg".to_string(),
                None => "-".to_string(),
            });
            toks.push(r.fields.len().to_string());
            for f in &r.fields {
                toks.push(esc(&f.name));
                toks.push(mode_tag(f.mode).to_string());
                shape_tokens(&f.shape, toks);
            }
        }
    }
}

/// Parses one shape from the token stream. `depth` bounds the recursion
/// so a hostile file cannot overflow the stack.
fn shape_parse<'a>(
    toks: &mut impl Iterator<Item = &'a str>,
    depth: usize,
) -> Result<Shape, String> {
    if depth > MAX_SHAPE_DEPTH {
        return Err(format!("shape nesting exceeds {MAX_SHAPE_DEPTH}"));
    }
    let tag = toks.next().ok_or("shape truncated")?;
    Ok(match tag {
        "b" => Shape::Basic(BasicKind::Boolean),
        "m" => Shape::Basic(BasicKind::Multiplex),
        "v" => Shape::Virtual,
        "a" => {
            let lo = next_i64(toks)?;
            let hi = next_i64(toks)?;
            Shape::Array {
                lo,
                hi,
                elem: Arc::new(shape_parse(toks, depth + 1)?),
            }
        }
        "r" => {
            let name = toks.next().ok_or("record truncated")?;
            let type_name = if name == "-" {
                None
            } else {
                Some(unesc(name)?)
            };
            let has_body = toks.next() == Some("1");
            let builtin = match toks.next().ok_or("record truncated")? {
                "reg" => Some(BuiltinComponent::Reg),
                "-" => None,
                b => return Err(format!("bad builtin '{b}'")),
            };
            let nfields = next_usize(toks)?;
            let mut fields = Vec::with_capacity(nfields.min(MAX_PREALLOC));
            for _ in 0..nfields {
                let fname = unesc(toks.next().ok_or("field truncated")?)?;
                let mode = mode_parse(toks.next().ok_or("field truncated")?)?;
                let shape = shape_parse(toks, depth + 1)?;
                fields.push(FieldShape {
                    name: fname,
                    mode,
                    shape,
                });
            }
            Shape::Record(Arc::new(RecordShape {
                type_name,
                fields,
                has_body,
                builtin,
            }))
        }
        _ => return Err(format!("bad shape tag '{tag}'")),
    })
}

fn next_i64<'a>(toks: &mut impl Iterator<Item = &'a str>) -> Result<i64, String> {
    let t = toks.next().ok_or("number expected, stream truncated")?;
    t.parse().map_err(|_| format!("bad number '{t}'"))
}

fn next_usize<'a>(toks: &mut impl Iterator<Item = &'a str>) -> Result<usize, String> {
    let t = toks.next().ok_or("number expected, stream truncated")?;
    t.parse().map_err(|_| format!("bad number '{t}'"))
}

fn next_u32<'a>(toks: &mut impl Iterator<Item = &'a str>) -> Result<u32, String> {
    let t = toks.next().ok_or("number expected, stream truncated")?;
    t.parse().map_err(|_| format!("bad number '{t}'"))
}

fn opt_net(n: Option<NetId>) -> String {
    match n {
        Some(n) => n.index().to_string(),
        None => "-".to_string(),
    }
}

fn opt_net_parse(s: &str) -> Result<Option<NetId>, String> {
    if s == "-" {
        Ok(None)
    } else {
        Ok(Some(NetId(
            s.parse().map_err(|_| format!("bad net id '{s}'"))?,
        )))
    }
}

/// Writes `design` as `zeus netlist v1` text.
pub(crate) fn encode(design: &Design) -> String {
    let nl = &design.netlist;
    let mut s = String::new();
    let _ = writeln!(s, "{TEXT_MAGIC}");
    let _ = writeln!(s, "{PAYLOAD_MAGIC}");
    let _ = writeln!(s, "digest {:016x}", design_digest(design));
    let _ = writeln!(s, "top {}", esc(&design.top_type));
    let _ = writeln!(s, "clk {}", opt_net(design.clk));
    let _ = writeln!(s, "rset {}", opt_net(design.rset));
    let _ = writeln!(s, "opt {}", if design.optimized { 1 } else { 0 });
    let _ = writeln!(s, "finished {}", if nl.is_finished() { 1 } else { 0 });
    let _ = writeln!(s, "nets {}", nl.nets.len());
    for (i, net) in nl.nets.iter().enumerate() {
        let _ = writeln!(
            s,
            "{} {} {}",
            kind_tag(net.kind),
            nl.alias_raw()[i],
            esc(&net.name)
        );
    }
    let _ = writeln!(s, "nodes {}", nl.nodes.len());
    for node in &nl.nodes {
        let group = match node.group {
            Some(g) => g.to_string(),
            None => "-".to_string(),
        };
        let _ = write!(
            s,
            "{} {} {} {}",
            op_tag(&node.op),
            group,
            node.output.index(),
            node.inputs.len()
        );
        for i in &node.inputs {
            let _ = write!(s, " {}", i.index());
        }
        s.push('\n');
    }
    let _ = writeln!(s, "constraints {}", nl.group_constraints.len());
    for c in &nl.group_constraints {
        let _ = writeln!(s, "{} {}", c.before, c.after);
    }
    let _ = write!(s, "groupparents {}", nl.group_parents.len());
    for g in &nl.group_parents {
        let _ = write!(s, " {g}");
    }
    s.push('\n');
    let _ = writeln!(s, "ports {}", design.ports.len());
    for p in &design.ports {
        let mut toks = vec![
            esc(&p.name),
            mode_tag(p.mode).to_string(),
            p.nets.len().to_string(),
        ];
        toks.extend(p.nets.iter().map(|n| n.index().to_string()));
        shape_tokens(&p.shape, &mut toks);
        let _ = writeln!(s, "{}", toks.join(" "));
    }
    // BTreeMap order: the text form is canonical for a given design.
    let names: std::collections::BTreeMap<&str, NetId> =
        design.names.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let _ = writeln!(s, "names {}", names.len());
    for (name, id) in names {
        let _ = writeln!(s, "{} {}", esc(name), id.index());
    }
    s.push_str("end\n");
    // Callers keep the text (to write, send or compare it): hand it over
    // without the slack its growth left.
    s.shrink_to_fit();
    s
}

/// Reads `zeus netlist v1` text into a design whose tables are
/// consistent ([`crate::validate::check_tables`]) and whose digest
/// matches the one the text embeds. The semantic rules are the
/// caller's to check, with [`crate::validate_design`].
///
/// # Errors
///
/// `Z601` for a missing or unknown header (a bare `zeus-design`
/// payload included) and any malformed line, `Z602` for another version
/// of either header line, `Z606` for an unknown node operation, `Z603`
/// for inconsistent tables and `Z605` for a digest mismatch.
pub(crate) fn decode(text: &str) -> Result<Design, Diagnostic> {
    let Some((first, payload)) = text.split_once('\n') else {
        return Err(malformed(format!(
            "not a zeus netlist: expected the '{TEXT_MAGIC}' header line"
        )));
    };
    let first = first.trim_end_matches('\r');
    if first != TEXT_MAGIC {
        if first.starts_with("zeus-design v") {
            return Err(malformed(format!(
                "not a zeus netlist: expected the '{TEXT_MAGIC}' header line \
                 before the bare '{first}' payload"
            )));
        }
        let code = if first.starts_with("zeus netlist v") {
            codes::NETLIST_VERSION
        } else {
            codes::NETLIST_FORMAT
        };
        return Err(skew(first, TEXT_MAGIC, code));
    }
    let mut lines = payload.lines();
    match lines.next() {
        Some(PAYLOAD_MAGIC) => {}
        Some(first) if first.starts_with("zeus-design v") => {
            return Err(skew(first, PAYLOAD_MAGIC, codes::NETLIST_VERSION))
        }
        _ => return Err(malformed(format!("not a {PAYLOAD_MAGIC} file"))),
    }
    fn field<'a>(lines: &mut std::str::Lines<'a>, key: &str) -> Result<&'a str, Diagnostic> {
        let line = lines
            .next()
            .ok_or_else(|| malformed(format!("missing '{key}' line")))?;
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| malformed(format!("expected '{key} ...', got '{line}'")))
    }
    let digest = u64::from_str_radix(field(&mut lines, "digest")?, 16)
        .map_err(|e| malformed(format!("bad digest: {e}")))?;
    let top = unesc(field(&mut lines, "top")?).map_err(malformed)?;
    let clk = opt_net_parse(field(&mut lines, "clk")?).map_err(malformed)?;
    let rset = opt_net_parse(field(&mut lines, "rset")?).map_err(malformed)?;
    let optimized = field(&mut lines, "opt")? == "1";
    let finished = field(&mut lines, "finished")? == "1";

    let nnets: usize = field(&mut lines, "nets")?
        .parse()
        .map_err(|_| malformed("bad net count"))?;
    let mut nets = Vec::with_capacity(nnets.min(MAX_PREALLOC));
    let mut alias = Vec::with_capacity(nnets.min(MAX_PREALLOC));
    for _ in 0..nnets {
        let line = lines
            .next()
            .ok_or_else(|| malformed("net table truncated"))?;
        let mut t = line.split(' ');
        let kind =
            kind_parse(t.next().ok_or_else(|| malformed("bad net line"))?).map_err(malformed)?;
        let parent = next_u32(&mut t).map_err(malformed)?;
        let name = unesc(t.next().ok_or_else(|| malformed("bad net line"))?).map_err(malformed)?;
        nets.push(Net {
            kind,
            name,
            span: Span::dummy(),
        });
        alias.push(parent);
    }

    let nnodes: usize = field(&mut lines, "nodes")?
        .parse()
        .map_err(|_| malformed("bad node count"))?;
    let mut nodes = Vec::with_capacity(nnodes.min(MAX_PREALLOC));
    for _ in 0..nnodes {
        let line = lines
            .next()
            .ok_or_else(|| malformed("node table truncated"))?;
        let mut t = line.split(' ');
        let op = op_parse(t.next().ok_or_else(|| malformed("bad node line"))?).map_err(|m| {
            Diagnostic::error(Span::dummy(), m).with_code(codes::NETLIST_UNKNOWN_OP)
        })?;
        let group = match t.next().ok_or_else(|| malformed("bad node line"))? {
            "-" => None,
            g => Some(
                g.parse::<u32>()
                    .map_err(|_| malformed(format!("bad group '{g}'")))?,
            ),
        };
        let output = NetId(next_u32(&mut t).map_err(malformed)?);
        let nin = next_usize(&mut t).map_err(malformed)?;
        let mut inputs = Vec::with_capacity(nin.min(MAX_PREALLOC));
        for _ in 0..nin {
            inputs.push(NetId(next_u32(&mut t).map_err(malformed)?));
        }
        nodes.push(Node {
            op,
            inputs,
            output,
            group,
            span: Span::dummy(),
        });
    }

    let ncons: usize = field(&mut lines, "constraints")?
        .parse()
        .map_err(|_| malformed("bad constraint count"))?;
    let mut group_constraints = Vec::with_capacity(ncons.min(MAX_PREALLOC));
    for _ in 0..ncons {
        let line = lines
            .next()
            .ok_or_else(|| malformed("constraint table truncated"))?;
        let mut t = line.split(' ');
        group_constraints.push(GroupConstraint {
            before: next_u32(&mut t).map_err(malformed)?,
            after: next_u32(&mut t).map_err(malformed)?,
        });
    }

    let gline = field(&mut lines, "groupparents")?;
    let mut t = gline.split(' ');
    let ngroups = next_usize(&mut t).map_err(malformed)?;
    let mut group_parents = Vec::with_capacity(ngroups.min(MAX_PREALLOC));
    for _ in 0..ngroups {
        group_parents.push(next_u32(&mut t).map_err(malformed)?);
    }

    let nports: usize = field(&mut lines, "ports")?
        .parse()
        .map_err(|_| malformed("bad port count"))?;
    let mut ports = Vec::with_capacity(nports.min(MAX_PREALLOC));
    for _ in 0..nports {
        let line = lines
            .next()
            .ok_or_else(|| malformed("port table truncated"))?;
        let mut t = line.split(' ');
        let name = unesc(t.next().ok_or_else(|| malformed("bad port line"))?).map_err(malformed)?;
        let mode =
            mode_parse(t.next().ok_or_else(|| malformed("bad port line"))?).map_err(malformed)?;
        let nnets = next_usize(&mut t).map_err(malformed)?;
        let mut pnets = Vec::with_capacity(nnets.min(MAX_PREALLOC));
        for _ in 0..nnets {
            pnets.push(NetId(next_u32(&mut t).map_err(malformed)?));
        }
        let shape = shape_parse(&mut t, 0).map_err(malformed)?;
        ports.push(Port {
            name,
            mode,
            shape,
            nets: pnets,
        });
    }

    let nnames: usize = field(&mut lines, "names")?
        .parse()
        .map_err(|_| malformed("bad name count"))?;
    let mut names = HashMap::with_capacity(nnames.min(MAX_PREALLOC));
    for _ in 0..nnames {
        let line = lines
            .next()
            .ok_or_else(|| malformed("name table truncated"))?;
        let mut t = line.split(' ');
        let name = unesc(t.next().ok_or_else(|| malformed("bad name line"))?).map_err(malformed)?;
        names.insert(name, NetId(next_u32(&mut t).map_err(malformed)?));
    }
    if lines.next() != Some("end") {
        return Err(malformed("missing 'end' terminator (truncated file)"));
    }

    let netlist = Netlist::from_raw_parts(
        nets,
        nodes,
        group_constraints,
        group_parents,
        alias,
        finished,
    );
    let design = Design {
        netlist,
        top_type: top.clone(),
        ports,
        instances: InstanceNode {
            type_name: top,
            ..InstanceNode::default()
        },
        warnings: Diagnostics::new(),
        clk,
        rset,
        names,
        optimized,
    };
    // The digest walk follows alias parents and indexes nets by the ids
    // the tables carry: prove them in range and rooted first.
    crate::validate::check_tables(&design)?;
    let actual = design_digest(&design);
    if actual != digest {
        return Err(Diagnostic::error(
            Span::dummy(),
            format!("design digest mismatch: stored {digest:016x}, reconstructed {actual:016x}"),
        )
        .with_code(codes::NETLIST_DIGEST));
    }
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn roundtrip(src: &str, top: &str) {
        let program = parse_program(src).expect("parse");
        let design = elaborate(&program, top, &[]).expect("elaborate");
        let text = encode(&design);
        let back = decode(&text).expect("roundtrip parse");
        assert_eq!(design_digest(&design), design_digest(&back));
        assert_eq!(design.top_type, back.top_type);
        assert_eq!(design.netlist.nets.len(), back.netlist.nets.len());
        assert_eq!(design.netlist.nodes.len(), back.netlist.nodes.len());
        assert_eq!(design.ports.len(), back.ports.len());
        for (a, b) in design.ports.iter().zip(&back.ports) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.shape, b.shape);
            assert_eq!(a.nets, b.nets);
        }
        assert_eq!(design.names, back.names);
        assert_eq!(design.clk, back.clk);
        assert_eq!(design.rset, back.rset);
        // The canonical alias classes survive (fault sites depend on them).
        for i in 0..design.netlist.nets.len() {
            let id = NetId(i as u32);
            assert_eq!(design.netlist.find_ref(id), back.netlist.find_ref(id));
        }
        // Serializing the reconstruction reproduces the text exactly.
        assert_eq!(text, encode(&back));
    }

    #[test]
    fn combinational_design_roundtrips() {
        roundtrip(
            "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
             BEGIN s := XOR(a,b); cout := AND(a,b) END;",
            "halfadder",
        );
    }

    #[test]
    fn sequential_design_roundtrips() {
        roundtrip(
            "TYPE delay = COMPONENT (IN d: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; BEGIN r(XOR(d, r.out), q) END;",
            "delay",
        );
    }

    #[test]
    fn corruption_is_detected() {
        let program = parse_program(
            "TYPE inv = COMPONENT (IN a: boolean; OUT q: boolean) IS BEGIN q := NOT(a) END;",
        )
        .unwrap();
        let design = elaborate(&program, "inv", &[]).unwrap();
        let text = encode(&design);
        // Flip a node op: the digest check must catch it.
        let bad = text.replace("not 0", "buf 0");
        if bad != text {
            let err = decode(&bad).unwrap_err();
            assert_eq!(err.code, Some(codes::NETLIST_DIGEST));
            assert!(err.message.contains("digest mismatch"), "{err}");
        }
        // Truncation is caught before the digest stage.
        let torn = &text[..text.len() / 2];
        assert!(decode(torn).is_err());
    }
}
