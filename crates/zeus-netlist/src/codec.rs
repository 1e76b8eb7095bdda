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
//!
//! Neither direction allocates per token. The writer appends every line
//! to one buffer and formats integers by hand; the reader walks the text
//! with a line cursor, borrows each token, parses numbers straight from
//! their bytes and copies a name only into the table that keeps it.

use std::borrow::Cow;
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
use zeus_syntax::diag::{codes, Diagnostic, Diagnostics};
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

/// A `Z602`: a header line of another version of this format.
fn skew(first: &str, speaks: &str) -> Diagnostic {
    Diagnostic::error(
        Span::dummy(),
        format!("version skew: file is '{first}', this toolchain speaks '{speaks}'"),
    )
    .with_code(codes::NETLIST_VERSION)
}

/// Appends `s` escaped so it fits in one whitespace-separated token. A
/// name with no backslash, space, newline or tab is appended as it is.
fn push_esc(out: &mut String, s: &str) {
    if s.is_empty() {
        out.push_str("\\e");
    } else if !s.bytes().any(|b| matches!(b, b'\\' | b' ' | b'\n' | b'\t')) {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                ' ' => out.push_str("\\s"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c => out.push(c),
            }
        }
    }
}

/// Inverse of [`push_esc`]; borrows the token unless it holds an escape.
fn unesc(s: &str) -> Result<Cow<'_, str>, String> {
    if s == "\\e" {
        return Ok(Cow::Borrowed(""));
    }
    if !s.contains('\\') {
        return Ok(Cow::Borrowed(s));
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
    Ok(Cow::Owned(out))
}

/// Appends the decimal digits of `v`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

/// Appends `v` in decimal, as `{}` would.
fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends a space, then `v` in decimal.
fn push_num(out: &mut String, v: impl Into<u64>) {
    out.push(' ');
    push_u64(out, v.into());
}

/// A string of ASCII digits as a number; `None` if it is empty, holds
/// anything else, or overflows.
fn parse_digits(digits: &str) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    let mut v = 0u64;
    for b in digits.bytes() {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(v)
}

/// What `str::parse` accepts for an unsigned integer (an optional `+`,
/// then digits), parsed from the bytes.
fn parse_unsigned<T: TryFrom<u64>>(t: &str) -> Option<T> {
    T::try_from(parse_digits(t.strip_prefix('+').unwrap_or(t))?).ok()
}

/// What `str::parse::<i64>` accepts (an optional `+` or `-`, then
/// digits), parsed from the bytes.
fn parse_i64(t: &str) -> Option<i64> {
    match t.strip_prefix('-') {
        Some(magnitude) => 0i64.checked_sub_unsigned(parse_digits(magnitude)?),
        None => parse_unsigned(t),
    }
}

/// The lines of a text as `str::lines` splits them: at each `\n`,
/// dropping a `\r` right before it; a last line needs no `\n`.
struct Lines<'a>(&'a str);

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.0.is_empty() {
            return None;
        }
        let line = match self.0.find('\n') {
            Some(i) => {
                let line = &self.0[..i];
                self.0 = &self.0[i + 1..];
                line.strip_suffix('\r').unwrap_or(line)
            }
            None => std::mem::take(&mut self.0),
        };
        Some(line)
    }
}

/// The tokens of a line as `str::split(' ')` gives them: every single
/// space separates two tokens, so empty tokens are kept.
struct Tokens<'a>(Option<&'a str>);

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Self {
        Tokens(Some(line))
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0?;
        match rest.bytes().position(|b| b == b' ') {
            Some(i) => {
                self.0 = Some(&rest[i + 1..]);
                Some(&rest[..i])
            }
            None => {
                self.0 = None;
                Some(rest)
            }
        }
    }
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
pub(crate) fn op_tag(op: &NodeOp) -> Cow<'static, str> {
    Cow::Borrowed(match op {
        NodeOp::And => "and",
        NodeOp::Or => "or",
        NodeOp::Nand => "nand",
        NodeOp::Nor => "nor",
        NodeOp::Xor => "xor",
        NodeOp::Not => "not",
        NodeOp::Equal { width } => return Cow::Owned(format!("eq{width}")),
        NodeOp::Buf => "buf",
        NodeOp::If => "if",
        NodeOp::Const(Value::Zero) => "c0",
        NodeOp::Const(Value::One) => "c1",
        NodeOp::Const(Value::Undef) => "cu",
        NodeOp::Const(Value::NoInfl) => "cn",
        NodeOp::Random => "random",
        NodeOp::Reg => "reg",
    })
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

/// Appends the prefix encoding of a shape, each token after a space.
fn push_shape(out: &mut String, shape: &Shape) {
    match shape {
        Shape::Basic(k) => {
            out.push(' ');
            out.push_str(kind_tag(*k));
        }
        Shape::Virtual => out.push_str(" v"),
        Shape::Array { lo, hi, elem } => {
            out.push_str(" a ");
            push_i64(out, *lo);
            out.push(' ');
            push_i64(out, *hi);
            push_shape(out, elem);
        }
        Shape::Record(r) => {
            out.push_str(" r ");
            match &r.type_name {
                Some(name) => push_esc(out, name),
                None => out.push('-'),
            }
            out.push_str(if r.has_body { " 1" } else { " 0" });
            out.push_str(match r.builtin {
                Some(BuiltinComponent::Reg) => " reg",
                None => " -",
            });
            push_num(out, r.fields.len() as u64);
            for f in &r.fields {
                out.push(' ');
                push_esc(out, &f.name);
                out.push(' ');
                out.push_str(mode_tag(f.mode));
                push_shape(out, &f.shape);
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
                Some(unesc(name)?.into_owned())
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
                let fname = unesc(toks.next().ok_or("field truncated")?)?.into_owned();
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
    parse_i64(t).ok_or_else(|| format!("bad number '{t}'"))
}

fn next_usize<'a>(toks: &mut impl Iterator<Item = &'a str>) -> Result<usize, String> {
    let t = toks.next().ok_or("number expected, stream truncated")?;
    parse_unsigned(t).ok_or_else(|| format!("bad number '{t}'"))
}

fn next_u32<'a>(toks: &mut impl Iterator<Item = &'a str>) -> Result<u32, String> {
    let t = toks.next().ok_or("number expected, stream truncated")?;
    parse_unsigned(t).ok_or_else(|| format!("bad number '{t}'"))
}

/// Appends a net id, or `-` for none.
fn push_opt_net(out: &mut String, n: Option<NetId>) {
    match n {
        Some(n) => push_u64(out, n.0.into()),
        None => out.push('-'),
    }
}

fn opt_net_parse(s: &str) -> Result<Option<NetId>, String> {
    if s == "-" {
        Ok(None)
    } else {
        Ok(Some(NetId(
            parse_unsigned(s).ok_or_else(|| format!("bad net id '{s}'"))?,
        )))
    }
}

/// Writes `design` as `zeus netlist v1` text.
pub(crate) fn encode(design: &Design) -> String {
    let nl = &design.netlist;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{TEXT_MAGIC}\n{PAYLOAD_MAGIC}\ndigest {:016x}",
        design_digest(design)
    );
    s.push_str("top ");
    push_esc(&mut s, &design.top_type);
    s.push_str("\nclk ");
    push_opt_net(&mut s, design.clk);
    s.push_str("\nrset ");
    push_opt_net(&mut s, design.rset);
    s.push_str(if design.optimized {
        "\nopt 1"
    } else {
        "\nopt 0"
    });
    s.push_str(if nl.is_finished() {
        "\nfinished 1"
    } else {
        "\nfinished 0"
    });
    s.push_str("\nnets");
    push_num(&mut s, nl.nets.len() as u64);
    s.push('\n');
    for (net, &parent) in nl.nets.iter().zip(nl.alias_raw()) {
        s.push_str(kind_tag(net.kind));
        push_num(&mut s, parent);
        s.push(' ');
        push_esc(&mut s, &net.name);
        s.push('\n');
    }
    s.push_str("nodes");
    push_num(&mut s, nl.nodes.len() as u64);
    s.push('\n');
    for node in &nl.nodes {
        s.push_str(&op_tag(&node.op));
        match node.group {
            Some(g) => push_num(&mut s, g),
            None => s.push_str(" -"),
        }
        push_num(&mut s, node.output.0);
        push_num(&mut s, node.inputs.len() as u64);
        for i in &node.inputs {
            push_num(&mut s, i.0);
        }
        s.push('\n');
    }
    s.push_str("constraints");
    push_num(&mut s, nl.group_constraints.len() as u64);
    s.push('\n');
    for c in &nl.group_constraints {
        push_u64(&mut s, c.before.into());
        push_num(&mut s, c.after);
        s.push('\n');
    }
    s.push_str("groupparents");
    push_num(&mut s, nl.group_parents.len() as u64);
    for &g in &nl.group_parents {
        push_num(&mut s, g);
    }
    s.push_str("\nports");
    push_num(&mut s, design.ports.len() as u64);
    s.push('\n');
    for p in &design.ports {
        push_esc(&mut s, &p.name);
        s.push(' ');
        s.push_str(mode_tag(p.mode));
        push_num(&mut s, p.nets.len() as u64);
        for n in &p.nets {
            push_num(&mut s, n.0);
        }
        push_shape(&mut s, &p.shape);
        s.push('\n');
    }
    // Sorted by name (the keys are unique): the text form is canonical
    // for a given design.
    let mut names: Vec<(&str, NetId)> =
        design.names.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    names.sort_unstable();
    s.push_str("names");
    push_num(&mut s, names.len() as u64);
    s.push('\n');
    for (name, id) in names {
        push_esc(&mut s, name);
        push_num(&mut s, id.0);
        s.push('\n');
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
/// caller's to check, with [`crate::validate_design`]. Leading
/// whitespace is skipped, as [`crate::detect_format`] skips it.
///
/// # Errors
///
/// `Z601` for a missing or unknown header (a bare `zeus-design`
/// payload included) and any malformed line, `Z602` for another version
/// of either header line, `Z606` for an unknown node operation, `Z603`
/// for inconsistent tables and `Z605` for a digest mismatch.
pub(crate) fn decode(text: &str) -> Result<Design, Diagnostic> {
    let not_ours = |more: &str| {
        malformed(format!(
            "not a zeus netlist: expected the '{TEXT_MAGIC}' header line{more}"
        ))
    };
    let Some((first, payload)) = crate::skip_leading_space(text).split_once('\n') else {
        return Err(not_ours(""));
    };
    let first = first.trim_end_matches('\r');
    if first != TEXT_MAGIC {
        if first.starts_with("zeus netlist v") {
            return Err(skew(first, TEXT_MAGIC));
        }
        if first.starts_with("zeus-design v") {
            return Err(not_ours(&format!(" before the bare '{first}' payload")));
        }
        return Err(not_ours(""));
    }
    let mut lines = Lines(payload);
    match lines.next() {
        Some(PAYLOAD_MAGIC) => {}
        Some(first) if first.starts_with("zeus-design v") => {
            return Err(skew(first, PAYLOAD_MAGIC))
        }
        _ => return Err(malformed(format!("not a {PAYLOAD_MAGIC} file"))),
    }
    fn field<'a>(lines: &mut Lines<'a>, key: &str) -> Result<&'a str, Diagnostic> {
        let line = lines
            .next()
            .ok_or_else(|| malformed(format!("missing '{key}' line")))?;
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| malformed(format!("expected '{key} ...', got '{line}'")))
    }
    /// The next line of a table, split into its tokens.
    fn row<'a>(lines: &mut Lines<'a>, table: &str) -> Result<Tokens<'a>, Diagnostic> {
        match lines.next() {
            Some(line) => Ok(Tokens::new(line)),
            None => Err(malformed(format!("{table} table truncated"))),
        }
    }
    let digest = u64::from_str_radix(field(&mut lines, "digest")?, 16)
        .map_err(|e| malformed(format!("bad digest: {e}")))?;
    let top = unesc(field(&mut lines, "top")?)
        .map_err(malformed)?
        .into_owned();
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
        let mut t = row(&mut lines, "net")?;
        let kind =
            kind_parse(t.next().ok_or_else(|| malformed("bad net line"))?).map_err(malformed)?;
        let parent = next_u32(&mut t).map_err(malformed)?;
        let name = unesc(t.next().ok_or_else(|| malformed("bad net line"))?).map_err(malformed)?;
        nets.push(Net {
            kind,
            name: name.into_owned(),
            span: Span::dummy(),
        });
        alias.push(parent);
    }

    let nnodes: usize = field(&mut lines, "nodes")?
        .parse()
        .map_err(|_| malformed("bad node count"))?;
    let mut nodes = Vec::with_capacity(nnodes.min(MAX_PREALLOC));
    for _ in 0..nnodes {
        let mut t = row(&mut lines, "node")?;
        let op = op_parse(t.next().ok_or_else(|| malformed("bad node line"))?).map_err(|m| {
            Diagnostic::error(Span::dummy(), m).with_code(codes::NETLIST_UNKNOWN_OP)
        })?;
        let group = match t.next().ok_or_else(|| malformed("bad node line"))? {
            "-" => None,
            g => Some(parse_unsigned(g).ok_or_else(|| malformed(format!("bad group '{g}'")))?),
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
        let mut t = row(&mut lines, "constraint")?;
        group_constraints.push(GroupConstraint {
            before: next_u32(&mut t).map_err(malformed)?,
            after: next_u32(&mut t).map_err(malformed)?,
        });
    }

    let mut t = Tokens::new(field(&mut lines, "groupparents")?);
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
        let mut t = row(&mut lines, "port")?;
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
            name: name.into_owned(),
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
        let mut t = row(&mut lines, "name")?;
        let name = unesc(t.next().ok_or_else(|| malformed("bad name line"))?).map_err(malformed)?;
        let id = NetId(next_u32(&mut t).map_err(malformed)?);
        names.insert(name.into_owned(), id);
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

    /// The parent's writer and reader, verbatim with the token helpers
    /// they called, kept as the references the one-buffer writer and
    /// the borrowing reader must match byte for byte and outcome for
    /// outcome.
    mod parent {
        use std::collections::HashMap;
        use std::fmt::Write as _;
        use std::sync::Arc;

        use super::super::{
            kind_parse, kind_tag, malformed, mode_parse, mode_tag, op_parse, skew, MAX_PREALLOC,
            MAX_SHAPE_DEPTH, PAYLOAD_MAGIC,
        };
        use crate::TEXT_MAGIC;
        use zeus_elab::netlist::{GroupConstraint, Net, Node, NodeOp};
        use zeus_elab::{
            design_digest, BuiltinComponent, Design, FieldShape, InstanceNode, NetId, Netlist,
            Port, RecordShape, Shape,
        };
        use zeus_sema::rules::BasicKind;
        use zeus_sema::value::Value;
        use zeus_syntax::diag::{codes, Diagnostic, Diagnostics};
        use zeus_syntax::span::Span;

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

        /// The token a node line names its operation by.
        fn op_tag(op: &NodeOp) -> String {
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
        pub(super) fn encode(design: &Design) -> String {
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
        /// caller's to check, with [`crate::validate_design`]. Leading
        /// whitespace is skipped, as [`crate::detect_format`] skips it.
        ///
        /// # Errors
        ///
        /// `Z601` for a missing or unknown header (a bare `zeus-design`
        /// payload included) and any malformed line, `Z602` for another version
        /// of either header line, `Z606` for an unknown node operation, `Z603`
        /// for inconsistent tables and `Z605` for a digest mismatch.
        pub(super) fn decode(text: &str) -> Result<Design, Diagnostic> {
            let not_ours = |more: &str| {
                malformed(format!(
                    "not a zeus netlist: expected the '{TEXT_MAGIC}' header line{more}"
                ))
            };
            let Some((first, payload)) = crate::skip_leading_space(text).split_once('\n') else {
                return Err(not_ours(""));
            };
            let first = first.trim_end_matches('\r');
            if first != TEXT_MAGIC {
                if first.starts_with("zeus netlist v") {
                    return Err(skew(first, TEXT_MAGIC));
                }
                if first.starts_with("zeus-design v") {
                    return Err(not_ours(&format!(" before the bare '{first}' payload")));
                }
                return Err(not_ours(""));
            }
            let mut lines = payload.lines();
            match lines.next() {
                Some(PAYLOAD_MAGIC) => {}
                Some(first) if first.starts_with("zeus-design v") => {
                    return Err(skew(first, PAYLOAD_MAGIC))
                }
                _ => return Err(malformed(format!("not a {PAYLOAD_MAGIC} file"))),
            }
            fn field<'a>(
                lines: &mut std::str::Lines<'a>,
                key: &str,
            ) -> Result<&'a str, Diagnostic> {
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
                let kind = kind_parse(t.next().ok_or_else(|| malformed("bad net line"))?)
                    .map_err(malformed)?;
                let parent = next_u32(&mut t).map_err(malformed)?;
                let name =
                    unesc(t.next().ok_or_else(|| malformed("bad net line"))?).map_err(malformed)?;
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
                let op =
                    op_parse(t.next().ok_or_else(|| malformed("bad node line"))?).map_err(|m| {
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
                let name = unesc(t.next().ok_or_else(|| malformed("bad port line"))?)
                    .map_err(malformed)?;
                let mode = mode_parse(t.next().ok_or_else(|| malformed("bad port line"))?)
                    .map_err(malformed)?;
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
                let name = unesc(t.next().ok_or_else(|| malformed("bad name line"))?)
                    .map_err(malformed)?;
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
                    format!(
                        "design digest mismatch: stored {digest:016x}, reconstructed {actual:016x}"
                    ),
                )
                .with_code(codes::NETLIST_DIGEST));
            }
            Ok(design)
        }
    }

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

    /// The bundled designs of the packed-equivalence suite, with their
    /// parameters.
    fn bundled_designs() -> Vec<(String, Design)> {
        const SEMC: &str = "TYPE semc = COMPONENT (IN a,b,c,x,y,rin: boolean; \
             OUT rout: boolean; out: multiplex) IS SIGNAL r: REG; \
             BEGIN IF x THEN out := AND(a,b) END; IF y THEN out := c END; \
             r(rin,rout) END;";
        let tops: &[(&str, &str, &[i64])] = &[
            (
                include_str!("../../../zeus-programs/adders.zeus"),
                "rippleCarry4",
                &[],
            ),
            (
                include_str!("../../../zeus-programs/adders.zeus"),
                "rippleCarry",
                &[4],
            ),
            (
                include_str!("../../../zeus-programs/mux.zeus"),
                "muxtop",
                &[],
            ),
            (
                include_str!("../../../zeus-programs/blackjack.zeus"),
                "blackjack",
                &[],
            ),
            (
                include_str!("../../../zeus-programs/trees.zeus"),
                "tree",
                &[8],
            ),
            (
                include_str!("../../../zeus-programs/trees.zeus"),
                "rtree",
                &[8],
            ),
            (
                include_str!("../../../zeus-programs/trees.zeus"),
                "htree",
                &[16],
            ),
            (
                include_str!("../../../zeus-programs/patternmatch.zeus"),
                "patternmatch",
                &[3],
            ),
            (
                include_str!("../../../zeus-programs/routing.zeus"),
                "routingnetwork",
                &[8],
            ),
            (
                include_str!("../../../zeus-programs/ram.zeus"),
                "ram",
                &[8, 4, 3],
            ),
            (
                include_str!("../../../zeus-programs/chessboard.zeus"),
                "chessboard",
                &[4],
            ),
            (
                include_str!("../../../zeus-programs/am2901.zeus"),
                "am2901",
                &[],
            ),
            (
                include_str!("../../../zeus-programs/stack.zeus"),
                "systolicstack",
                &[4, 4],
            ),
            (
                include_str!("../../../zeus-programs/queue.zeus"),
                "systolicqueue",
                &[4, 4],
            ),
            (
                include_str!("../../../zeus-programs/counter.zeus"),
                "counter",
                &[6],
            ),
            (
                include_str!("../../../zeus-programs/dictionary.zeus"),
                "dictionary",
                &[4, 4],
            ),
            (
                include_str!("../../../zeus-programs/sorter.zeus"),
                "sorter",
                &[4, 4],
            ),
            (
                include_str!("../../../zeus-programs/recognizer.zeus"),
                "recab",
                &[],
            ),
            (SEMC, "semc", &[]),
        ];
        tops.iter()
            .map(|(src, top, args)| {
                let program = parse_program(src).expect("parse");
                let design = elaborate(&program, top, args).expect("elaborate");
                (format!("{top} {args:?}"), design)
            })
            .collect()
    }

    /// Designs read from files: the corpus circuits and an optimizer's
    /// `opt --emit` output (`zeusc opt @adders rippleCarry 8`).
    fn read_designs() -> Vec<(&'static str, Design)> {
        [
            ("c17", include_str!("../../../benchmarks/c17.znl")),
            ("c432", include_str!("../../../benchmarks/c432.znl")),
            (
                "rippleCarry 8, optimized",
                include_str!("../tests/data/rippleCarry8-opt.znl"),
            ),
        ]
        .into_iter()
        .map(|(name, text)| {
            let design = parent::decode(text).expect("the parent reads it");
            assert_eq!(encode(&design), text, "{name} round-trips");
            (name, design)
        })
        .collect()
    }

    #[test]
    fn the_writer_matches_the_parent_byte_for_byte() {
        let mut designs = bundled_designs();
        designs.extend(read_designs().into_iter().map(|(n, d)| (n.to_string(), d)));
        assert!(designs.iter().any(|(_, d)| d.optimized));
        for (name, design) in &designs {
            assert_eq!(encode(design), parent::encode(design), "{name}");
        }
    }

    #[test]
    fn odd_names_are_escaped_as_the_parent_escapes_them() {
        let program = parse_program(
            "TYPE inv = COMPONENT (IN a: boolean; OUT q: boolean) IS BEGIN q := NOT(a) END;",
        )
        .unwrap();
        let mut design = elaborate(&program, "inv", &[]).unwrap();
        let odd = [
            "",
            "a b",
            "tab\there",
            "new\nline",
            "back\\slash",
            "\\e",
            "ünï code",
            "-",
        ];
        for (i, name) in odd.iter().enumerate() {
            design.names.insert(name.to_string(), NetId((i % 2) as u32));
        }
        design.netlist.nets[0].name = "with space\\".to_string();
        design.netlist.nets[1].name = String::new();
        design.top_type = "top level".to_string();
        let text = encode(&design);
        assert_eq!(text, parent::encode(&design));
        let back = decode(&text).expect("reads back");
        assert_eq!(back.names, design.names);
        assert_eq!(back.netlist.nets[0].name, "with space\\");
        assert_eq!(back.top_type, "top level");
    }

    #[test]
    fn numbers_parse_as_str_parse_does() {
        let tokens = [
            "",
            "0",
            "7",
            "+7",
            "-7",
            "+",
            "-",
            "++1",
            "-+1",
            "+-1",
            "--1",
            "-0",
            "007",
            " 1",
            "1 ",
            "1_0",
            "٣",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "0x1",
            "1e3",
        ];
        for t in tokens {
            assert_eq!(parse_unsigned::<u32>(t), t.parse::<u32>().ok(), "u32 {t:?}");
            assert_eq!(
                parse_unsigned::<usize>(t),
                t.parse::<usize>().ok(),
                "usize {t:?}"
            );
            assert_eq!(parse_i64(t), t.parse::<i64>().ok(), "i64 {t:?}");
        }
    }

    #[test]
    fn lines_and_tokens_split_as_str_does() {
        let texts = [
            "", "\n", "a", "a\n", "a\r\nb", "a\r", "a\r\r\n", "\r\n\r\n", "a\n\nb\n",
        ];
        for text in texts {
            let want: Vec<&str> = text.lines().collect();
            assert_eq!(Lines(text).collect::<Vec<_>>(), want, "{text:?}");
        }
        for line in ["", " ", "a", "a b", " a  b ", "a\tb"] {
            let want: Vec<&str> = line.split(' ').collect();
            assert_eq!(Tokens::new(line).collect::<Vec<_>>(), want, "{line:?}");
        }
    }

    /// The reader's outcome as a comparable value: the digest of what it
    /// read, or the code and message it refused with.
    fn outcome(read: Result<Design, Diagnostic>) -> Result<u64, String> {
        read.map(|d| design_digest(&d))
            .map_err(|e| format!("{:?}: {}", e.code, e.message))
    }

    fn same_outcome(text: &str) {
        assert_eq!(
            outcome(decode(text)),
            outcome(parent::decode(text)),
            "input {text:?}"
        );
    }

    /// The payload of the hostile-input suite: shared subterms, a
    /// register and a full-adder cone.
    fn hostile_payload() -> String {
        let program = parse_program(
            "TYPE fa = COMPONENT (IN a,b,cin,en: boolean; OUT cout,s,q: boolean) IS
             SIGNAL t1,t2,t3: boolean; SIGNAL r: REG;
             BEGIN t1 := XOR(a,b); s := XOR(t1,cin); t2 := AND(t1,cin);
                   t3 := AND(a,b); cout := OR(t2,t3);
                   r.in := XOR(r.out, en); q := r.out END;",
        )
        .unwrap();
        encode(&elaborate(&program, "fa", &[]).unwrap())
    }

    #[test]
    fn the_reader_matches_the_parent_on_every_truncation() {
        let text = hostile_payload();
        let body = text.strip_prefix("zeus netlist v1\n").unwrap();
        for cut in 0..=text.len() {
            same_outcome(&text[..cut]);
            same_outcome(&format!(
                "zeus netlist v1\n{}",
                &body[..cut.min(body.len())]
            ));
        }
        same_outcome(&text.replace('\n', "\r\n"));
        same_outcome(&format!("\r\n \t{text}"));
    }

    #[test]
    fn the_reader_matches_the_parent_on_splices_and_noise() {
        let text = hostile_payload();
        // Every splice of a line-ending or blank character at every
        // position.
        for splice in ["\r\n", " ", "\t", "\r", "\n"] {
            for at in 0..=text.len() {
                let mut mutated = text.clone();
                mutated.insert_str(at, splice);
                same_outcome(&mutated);
            }
        }
        // Printable noise over seeded spans, and spans of digits, signs
        // and escapes, which reach the number and name parsers.
        let mut seed = 0x5eed_u64;
        let mut next = |n: usize| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((seed >> 33) % n as u64) as usize
        };
        let alphabet = b"0123456789+-\\ esnt-\r\n";
        for round in 0..4000 {
            let mut bytes = text.clone().into_bytes();
            let start = next(bytes.len());
            let end = (start + 1 + next(40)).min(bytes.len());
            for b in &mut bytes[start..end] {
                *b = if round % 2 == 0 {
                    0x20 + next(0x5f) as u8
                } else {
                    alphabet[next(alphabet.len())]
                };
            }
            same_outcome(&String::from_utf8_lossy(&bytes));
        }
        // Every line deleted, and every line doubled.
        let lines: Vec<&str> = text.lines().collect();
        for i in 0..lines.len() {
            for dup in [false, true] {
                let mut mutated = lines.clone();
                if dup {
                    mutated.insert(i, lines[i]);
                } else {
                    mutated.remove(i);
                }
                same_outcome(&(mutated.join("\n") + "\n"));
            }
        }
    }

    #[test]
    fn the_reader_matches_the_parent_on_whole_designs() {
        for (name, design) in bundled_designs() {
            let text = encode(&design);
            assert_eq!(
                outcome(decode(&text)),
                outcome(parent::decode(&text)),
                "{name}"
            );
        }
        for (name, design) in read_designs() {
            let text = encode(&design);
            let back = decode(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(encode(&back), text, "{name}");
        }
    }
}
