//! The elaborator: Zeus programs → flat netlists.
//!
//! Elaboration instantiates parameterized types, unrolls `FOR` replication,
//! decides `WHEN` conditional generation at compile time, lowers connection
//! statements to assignments (§4.3), performs `==` aliasing with a
//! union-find, inlines function component calls (§8), expands `NUM`-indexed
//! accesses into generated mux/demux hardware, interprets layout blocks
//! (including `virtual` replacement, §6.4) and enforces the static type
//! rules of §4.7.
//!
//! Sub-component bodies elaborate *lazily*: "this hardware is only
//! generated if it is used in connection or assignment statements later
//! on" (§4.2) — which is also what makes the recursive types of the paper
//! terminate.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::{Rc, Weak};
use std::sync::Arc;

use crate::design::{Design, Direction, InstanceNode, LayoutItem, Orientation, Port};
use crate::limits::{Governor, Limits};
use crate::netlist::{GroupConstraint, NetId, Netlist, NodeOp};
use crate::shape::{compose_mode, BuiltinComponent, FieldShape, RecordShape, Shape};
use zeus_sema::consts::{ConstScope, ConstVal, SigVal};
use zeus_sema::rules::{self, BasicKind, Exception1, RuleVerdict};
use zeus_sema::value::Value;
use zeus_sema::{bin, eval_const_expr, eval_sig_const};
use zeus_syntax::ast;
use zeus_syntax::ast::{AssignOp, Mode};
use zeus_syntax::diag::{codes, Diagnostic, Diagnostics};
use zeus_syntax::span::Span;

/// Elaborates component type `top` of `program`, with actual numeric type
/// parameters `args`.
///
/// # Errors
///
/// Returns all diagnostics when the program violates the static rules, a
/// combinational loop exists, or elaboration does not terminate.
pub fn elaborate(program: &ast::Program, top: &str, args: &[i64]) -> Result<Design, Diagnostics> {
    elaborate_with(program, top, args, &Limits::default())
}

/// [`elaborate`] with explicit limits.
///
/// # Errors
///
/// See [`elaborate`].
pub fn elaborate_with(
    program: &ast::Program,
    top: &str,
    args: &[i64],
    opts: &Limits,
) -> Result<Design, Diagnostics> {
    let mut e = Elab::new(opts.clone());
    e.run(program, TopSpec::Type(top, args))
}

/// Elaborates the design instantiated by a top-level `SIGNAL` declaration,
/// e.g. `SIGNAL match: patternmatch(3);`.
///
/// # Errors
///
/// See [`elaborate`]; additionally errors when no such signal exists.
pub fn elaborate_signal(program: &ast::Program, signal: &str) -> Result<Design, Diagnostics> {
    elaborate_signal_with(program, signal, &Limits::default())
}

/// [`elaborate_signal`] with explicit limits.
///
/// # Errors
///
/// See [`elaborate`].
pub fn elaborate_signal_with(
    program: &ast::Program,
    signal: &str,
    opts: &Limits,
) -> Result<Design, Diagnostics> {
    let mut e = Elab::new(opts.clone());
    e.run(program, TopSpec::Signal(signal))
}

enum TopSpec<'s> {
    Type(&'s str, &'s [i64]),
    Signal(&'s str),
}

// ---------------------------------------------------------------------------
// Environments
// ---------------------------------------------------------------------------

struct Env<'a> {
    parent: Option<Rc<Env<'a>>>,
    consts: RefCell<HashMap<String, ConstVal>>,
    types: RefCell<HashMap<String, TypeClosure<'a>>>,
    signals: RefCell<HashMap<String, Rc<Slot>>>,
}

impl<'a> Env<'a> {
    fn root() -> Rc<Env<'a>> {
        Env::new(None)
    }

    fn child(parent: &Rc<Env<'a>>) -> Rc<Env<'a>> {
        Env::new(Some(Rc::clone(parent)))
    }

    fn new(parent: Option<Rc<Env<'a>>>) -> Rc<Env<'a>> {
        #[cfg(test)]
        tests::LIVE_ENVS.with(|n| n.set(n.get() + 1));
        Rc::new(Env {
            parent,
            consts: RefCell::new(HashMap::new()),
            types: RefCell::new(HashMap::new()),
            signals: RefCell::new(HashMap::new()),
        })
    }

    fn lookup_type(&self, name: &str) -> Option<TypeClosure<'a>> {
        if let Some(t) = self.types.borrow().get(name) {
            return Some(t.clone());
        }
        self.parent.as_deref().and_then(|p| p.lookup_type(name))
    }

    fn lookup_signal(&self, name: &str) -> Option<Rc<Slot>> {
        if let Some(s) = self.signals.borrow().get(name) {
            return Some(Rc::clone(s));
        }
        self.parent.as_deref().and_then(|p| p.lookup_signal(name))
    }
}

#[cfg(test)]
impl Drop for Env<'_> {
    fn drop(&mut self) {
        tests::LIVE_ENVS.with(|n| n.set(n.get() - 1));
    }
}

impl ConstScope for Env<'_> {
    fn lookup_const(&self, name: &str) -> Option<ConstVal> {
        if let Some(c) = self.consts.borrow().get(name) {
            return Some(c.clone());
        }
        self.parent.as_deref().and_then(|p| p.lookup_const(name))
    }
}

#[derive(Clone)]
struct TypeClosure<'a> {
    name: String,
    params: &'a [ast::Ident],
    ty: &'a ast::Type,
    env: Rc<Env<'a>>,
}

/// A named, flattened signal: shape plus one net per basic bit.
struct Slot {
    path: String,
    shape: Shape,
    nets: Vec<NetId>,
}

// ---------------------------------------------------------------------------
// Bindings: the elaboration-relevant twin of a Shape
// ---------------------------------------------------------------------------

enum BindTree<'a> {
    Leaf,
    Array(Rc<BindTree<'a>>),
    Record(Binding<'a>, Vec<Rc<BindTree<'a>>>),
}

#[derive(Clone)]
enum Binding<'a> {
    None,
    Builtin(BuiltinComponent),
    Comp {
        comp: &'a ast::ComponentType,
        env: Rc<Env<'a>>,
        type_name: String,
    },
}

struct Pending<'a> {
    path: String,
    parent_path: String,
    key: String,
    kind: PendKind<'a>,
    shape: Arc<RecordShape>,
    nets: Vec<NetId>,
    span: Span,
}

enum PendKind<'a> {
    Builtin(BuiltinComponent),
    Comp {
        comp: &'a ast::ComponentType,
        env: Rc<Env<'a>>,
        type_name: String,
    },
}

// ---------------------------------------------------------------------------
// Per-body context
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Formal(Mode),
    Instance(Mode),
}

#[derive(Clone, Copy)]
enum RoleCtx {
    Formal(Mode),
    Instance(Mode),
    Local,
}

struct Ctx<'a> {
    env: Rc<Env<'a>>,
    roles: HashMap<u32, Role>,
    path: String,
    guard: Option<NetId>,
    group: Option<u32>,
    result: Option<ResultSlot>,
    /// Pendings declared in this body, checked/enqueued at body end.
    pendings: Vec<Pending<'a>>,
    /// Resolved layout items of this body.
    layout: Vec<LayoutItem>,
}

struct ResultSlot {
    nets: Vec<NetId>,
}

/// One resolved reference: possibly several guarded alternatives when a
/// `NUM` dynamic index is involved.
struct SigRes {
    arms: Vec<ResArm>,
}

struct ResArm {
    guard: Option<NetId>,
    shape: Shape,
    nets: Vec<NetId>,
    path: Option<String>,
    lvalue: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RBit {
    Net { id: NetId, lvalue: bool },
    Star,
}

enum Seg {
    Bits(Vec<RBit>),
    BareStar(Span),
}

const F_READ: u8 = 1;
const F_ASSIGNED: u8 = 2;
const F_STARRED: u8 = 4;
const F_ALIASED: u8 = 8;

struct DriverRec {
    net: u32,
    cond: bool,
    span: Span,
}

// ---------------------------------------------------------------------------
// The elaborator
// ---------------------------------------------------------------------------

struct Elab<'a> {
    nl: Netlist,
    errs: Diagnostics,
    warns: Diagnostics,
    opts: Limits,
    touched: Vec<u8>,
    drivers: Vec<DriverRec>,
    dedup: HashSet<(u32, u64, u64)>,
    queue: std::collections::VecDeque<Pending<'a>>,
    /// Registered but not yet used instances; re-scanned when the queue
    /// drains, because a lazily elaborated body may touch them.
    inactive: Vec<Pending<'a>>,
    connected: HashSet<String>,
    replacements: HashMap<String, Rc<Slot>>,
    replaced_once: HashSet<String>,
    gov: Governor,
    call_depth: usize,
    instance_count: usize,
    clk: Option<NetId>,
    rset: Option<NetId>,
    /// Pins of the top component: externally driven, exempt from the
    /// never-assigned warning.
    top_pins: Vec<NetId>,
    children: HashMap<String, Vec<(String, String, String)>>, // parent → (key, path, type)
    layouts: HashMap<String, Vec<LayoutItem>>,
    names: HashMap<String, NetId>,
    /// Every environment that declares a TYPE. Its closures hold it
    /// (`TypeClosure::env`), an `Rc` cycle that dropping `Elab` breaks.
    typed_envs: Vec<Weak<Env<'a>>>,
}

impl Drop for Elab<'_> {
    fn drop(&mut self) {
        for env in self.typed_envs.iter().filter_map(Weak::upgrade) {
            env.types.borrow_mut().clear();
        }
    }
}

type R<T> = Result<T, Diagnostic>;

impl<'a> Elab<'a> {
    fn new(opts: Limits) -> Self {
        Elab {
            nl: Netlist::new(),
            errs: Diagnostics::new(),
            warns: Diagnostics::new(),
            gov: opts.governor(),
            opts,
            touched: Vec::new(),
            drivers: Vec::new(),
            dedup: HashSet::new(),
            queue: std::collections::VecDeque::new(),
            inactive: Vec::new(),
            connected: HashSet::new(),
            replacements: HashMap::new(),
            replaced_once: HashSet::new(),
            call_depth: 0,
            instance_count: 0,
            clk: None,
            rset: None,
            top_pins: Vec::new(),
            children: HashMap::new(),
            layouts: HashMap::new(),
            names: HashMap::new(),
            typed_envs: Vec::new(),
        }
    }

    /// Takes the accumulated errors, classifying untagged ones as `Z201`
    /// (so Z9xx limit codes set deeper in survive).
    fn take_errs(&mut self) -> Diagnostics {
        let mut ds = std::mem::take(&mut self.errs);
        ds.tag_default_code(codes::ELAB);
        ds
    }

    fn run(&mut self, program: &'a ast::Program, top: TopSpec<'_>) -> Result<Design, Diagnostics> {
        let root = Env::root();
        if let Err(d) = self.load_decls(&program.decls, &root, "") {
            self.errs.push(d);
            return Err(self.take_errs());
        }

        let (closure, args, top_name) = match top {
            TopSpec::Type(name, args) => match root.lookup_type(name) {
                Some(c) => (c, args.to_vec(), name.to_string()),
                None => {
                    self.errs.push(Diagnostic::error(
                        Span::dummy(),
                        format!("top component type '{name}' is not declared"),
                    ));
                    return Err(self.take_errs());
                }
            },
            TopSpec::Signal(name) => match self.find_top_signal(program, &root, name) {
                Ok(x) => x,
                Err(d) => {
                    self.errs.push(d);
                    return Err(self.take_errs());
                }
            },
        };

        let design = self.elaborate_top(closure, &args, &top_name);
        match design {
            Ok(d) if !self.errs.has_errors() => Ok(d),
            Ok(_) => Err(self.take_errs()),
            Err(d) => {
                self.errs.push(d);
                Err(self.take_errs())
            }
        }
    }

    fn find_top_signal(
        &mut self,
        program: &'a ast::Program,
        root: &Rc<Env<'a>>,
        name: &str,
    ) -> R<(TypeClosure<'a>, Vec<i64>, String)> {
        for d in &program.decls {
            if let ast::Decl::Signal(defs) = d {
                for def in defs {
                    if def.names.iter().any(|n| n.name == name) {
                        let ast::Type::Named { name: tn, args } = &def.ty else {
                            return Err(Diagnostic::error(
                                def.ty.span(),
                                "the top signal must instantiate a named component type",
                            ));
                        };
                        let closure = root.lookup_type(&tn.name).ok_or_else(|| {
                            Diagnostic::error(tn.span, format!("unknown type '{}'", tn.name))
                        })?;
                        let vals = args
                            .iter()
                            .map(|a| eval_const_expr(a, &**root))
                            .collect::<Result<Vec<_>, _>>()?;
                        return Ok((closure, vals, tn.name.clone()));
                    }
                }
            }
        }
        Err(Diagnostic::error(
            Span::dummy(),
            format!("no top-level signal '{name}' is declared"),
        ))
    }

    /// Loads one declaration list into an environment.
    fn load_decls(&mut self, decls: &'a [ast::Decl], env: &Rc<Env<'a>>, path: &str) -> R<()> {
        for d in decls {
            match d {
                ast::Decl::Const(defs) => {
                    for def in defs {
                        let v = zeus_sema::eval_constant(&def.value, &**env)?;
                        env.consts.borrow_mut().insert(def.name.name.clone(), v);
                    }
                }
                ast::Decl::Type(defs) => {
                    for def in defs {
                        if env.types.borrow().is_empty() {
                            self.typed_envs.push(Rc::downgrade(env));
                        }
                        env.types.borrow_mut().insert(
                            def.name.name.clone(),
                            TypeClosure {
                                name: def.name.name.clone(),
                                params: &def.params,
                                ty: &def.ty,
                                env: Rc::clone(env),
                            },
                        );
                    }
                }
                ast::Decl::Signal(_) => {
                    // Signal declarations are handled by the body
                    // elaborator (they need role marking and pending
                    // registration); top-level signals are only
                    // instantiated via `elaborate_signal`.
                    debug_assert!(path.is_empty(), "local signals handled in elab_body");
                }
            }
        }
        Ok(())
    }

    // -- type resolution ---------------------------------------------------

    fn resolve_type(
        &mut self,
        ty: &'a ast::Type,
        env: &Rc<Env<'a>>,
        depth: usize,
    ) -> R<(Shape, Rc<BindTree<'a>>)> {
        if depth > self.opts.max_type_depth {
            return Err(Diagnostic::error(
                ty.span(),
                "type nesting too deep (unbounded recursive type?)",
            )
            .with_code(codes::LIMIT_TYPE_DEPTH));
        }
        match ty {
            ast::Type::Array { lo, hi, elem, .. } => {
                let lo = eval_const_expr(lo, &**env)?;
                let hi = eval_const_expr(hi, &**env)?;
                let (es, eb) = self.resolve_type(elem, env, depth + 1)?;
                Ok((
                    Shape::Array {
                        lo,
                        hi,
                        elem: Arc::new(es),
                    },
                    Rc::new(BindTree::Array(eb)),
                ))
            }
            ast::Type::Component(c) => self.resolve_component(c, env, None, depth),
            ast::Type::Named { name, args } => match name.name.as_str() {
                "boolean" => {
                    self.no_args(name, args)?;
                    Ok((Shape::boolean(), Rc::new(BindTree::Leaf)))
                }
                "multiplex" => {
                    self.no_args(name, args)?;
                    Ok((Shape::multiplex(), Rc::new(BindTree::Leaf)))
                }
                "virtual" => {
                    self.no_args(name, args)?;
                    Ok((Shape::Virtual, Rc::new(BindTree::Leaf)))
                }
                "REG" => {
                    self.no_args(name, args)?;
                    Ok(reg_shape())
                }
                other => {
                    let closure = env.lookup_type(other).ok_or_else(|| {
                        Diagnostic::error(name.span, format!("unknown type '{other}'"))
                    })?;
                    if closure.params.len() != args.len() {
                        return Err(Diagnostic::error(
                            name.span,
                            format!(
                                "type '{other}' takes {} parameter(s) but {} given",
                                closure.params.len(),
                                args.len()
                            ),
                        ));
                    }
                    let vals = args
                        .iter()
                        .map(|a| eval_const_expr(a, &**env))
                        .collect::<Result<Vec<_>, _>>()?;
                    let tenv = Env::child(&closure.env);
                    for (p, v) in closure.params.iter().zip(vals) {
                        tenv.consts
                            .borrow_mut()
                            .insert(p.name.clone(), ConstVal::Num(v));
                    }
                    match closure.ty {
                        ast::Type::Component(c) => {
                            self.resolve_component(c, &tenv, Some(closure.name.clone()), depth)
                        }
                        other_ty => self.resolve_type(other_ty, &tenv, depth + 1),
                    }
                }
            },
        }
    }

    fn no_args(&self, name: &ast::Ident, args: &[ast::ConstExpr]) -> R<()> {
        if args.is_empty() {
            Ok(())
        } else {
            Err(Diagnostic::error(
                name.span,
                format!("type '{}' takes no parameters", name.name),
            ))
        }
    }

    fn resolve_component(
        &mut self,
        c: &'a ast::ComponentType,
        env: &Rc<Env<'a>>,
        type_name: Option<String>,
        depth: usize,
    ) -> R<(Shape, Rc<BindTree<'a>>)> {
        let mut fields = Vec::new();
        let mut binds = Vec::new();
        for group in &c.params {
            let (fs, fb) = self.resolve_type(&group.ty, env, depth + 1)?;
            // The basic-type restriction on formals applies to components
            // with a body; pure record types are wire bundles where the
            // paper's own `bus` example uses an INOUT boolean.
            if c.body.is_some() {
                if let Shape::Basic(kind) = fs {
                    if let RuleVerdict::Illegal(msg) = rules::formal_param_basic(group.mode, kind) {
                        return Err(Diagnostic::error(group.ty.span(), msg));
                    }
                }
            }
            for n in &group.names {
                fields.push(FieldShape {
                    name: n.name.clone(),
                    mode: group.mode,
                    shape: fs.clone(),
                });
                binds.push(Rc::clone(&fb));
            }
        }
        let has_body = c.body.is_some();
        let shape = Shape::Record(Arc::new(RecordShape {
            type_name: type_name.clone(),
            fields,
            has_body,
            builtin: None,
        }));
        let binding = if has_body {
            Binding::Comp {
                comp: c,
                env: Rc::clone(env),
                type_name: type_name.unwrap_or_else(|| "<anon>".to_string()),
            }
        } else {
            Binding::None
        };
        Ok((shape, Rc::new(BindTree::Record(binding, binds))))
    }

    // -- net & slot creation -------------------------------------------------

    fn touch(&mut self, net: NetId, flag: u8) {
        let i = net.index();
        if self.touched.len() <= i {
            self.touched.resize(i + 1, 0);
        }
        self.touched[i] |= flag;
    }

    fn is_touched(&self, net: NetId) -> bool {
        self.touched.get(net.index()).copied().unwrap_or(0) != 0
    }

    /// One unit of elaboration work: charges fuel, checks the deadline
    /// (amortized) and the netlist-size budgets. Called per instance and
    /// per statement, so unrolled `FOR` replication and runaway recursion
    /// both hit it promptly.
    fn check_budgets(&mut self, span: Span) -> R<()> {
        self.gov.charge(1, span)?;
        if self.nl.nets.len() > self.opts.max_nets {
            return Err(Diagnostic::error(
                span,
                format!(
                    "design exceeds the net budget (limit {}): recursive type \
                     instantiation does not terminate (missing WHEN guard?) or the \
                     design is larger than the configured limit",
                    self.opts.max_nets
                ),
            )
            .with_code(codes::LIMIT_NETS));
        }
        if self.nl.nodes.len() > self.opts.max_nodes {
            return Err(Diagnostic::error(
                span,
                format!(
                    "design exceeds the node budget (limit {}): the design is larger \
                     than the configured limit",
                    self.opts.max_nodes
                ),
            )
            .with_code(codes::LIMIT_NODES));
        }
        Ok(())
    }

    fn make_nets(&mut self, shape: &Shape, path: &str, span: Span) -> Vec<NetId> {
        let mut nets = Vec::with_capacity(shape.bit_len());
        shape.for_each_bit(&mut path.to_string(), &mut |name, kind| {
            let id = self.nl.add_net(kind, name, span);
            self.names.insert(name.to_string(), id);
            nets.push(id);
        });
        nets
    }

    /// Registers pending instances for every record-with-body in the slot.
    #[allow(clippy::too_many_arguments)]
    fn register_pendings(
        &mut self,
        ctx: &mut Ctx<'a>,
        shape: &Shape,
        bind: &BindTree<'a>,
        nets: &[NetId],
        path: &str,
        parent_path: &str,
        span: Span,
    ) -> R<()> {
        match (shape, bind) {
            (Shape::Array { lo, hi, elem }, BindTree::Array(eb)) => {
                let n = Shape::array_len(*lo, *hi);
                let w = elem.bit_len();
                for i in 0..n {
                    self.register_pendings(
                        ctx,
                        elem,
                        eb,
                        &nets[i * w..(i + 1) * w],
                        &format!("{path}[{}]", lo + i as i64),
                        parent_path,
                        span,
                    )?;
                }
                Ok(())
            }
            (Shape::Record(r), BindTree::Record(binding, fbinds)) => {
                let mut inner_parent = parent_path.to_string();
                if r.has_body {
                    self.instance_count += 1;
                    if self.instance_count > self.opts.max_instances {
                        return Err(Diagnostic::error(
                            span,
                            "too many component instances: recursive type instantiation \
                             does not terminate (missing WHEN guard?)",
                        )
                        .with_code(codes::LIMIT_INSTANCES));
                    }
                    let kind = match (binding, r.builtin) {
                        (_, Some(b)) => Some(PendKind::Builtin(b)),
                        (Binding::Builtin(b), _) => Some(PendKind::Builtin(*b)),
                        (
                            Binding::Comp {
                                comp,
                                env,
                                type_name,
                            },
                            _,
                        ) => Some(PendKind::Comp {
                            comp,
                            env: Rc::clone(env),
                            type_name: type_name.clone(),
                        }),
                        (Binding::None, None) => None,
                    };
                    if let Some(kind) = kind {
                        let key = path
                            .strip_prefix(&format!("{parent_path}."))
                            .unwrap_or(path)
                            .to_string();
                        ctx.pendings.push(Pending {
                            path: path.to_string(),
                            parent_path: parent_path.to_string(),
                            key,
                            kind,
                            shape: Arc::clone(r),
                            nets: nets.to_vec(),
                            span,
                        });
                    }
                    inner_parent = path.to_string();
                }
                let offsets = r.field_offsets();
                for ((f, fb), w) in r
                    .fields
                    .iter()
                    .zip(fbinds)
                    .zip(offsets.windows(2).map(|w| (w[0], w[1])))
                {
                    self.register_pendings(
                        ctx,
                        &f.shape,
                        fb,
                        &nets[w.0..w.1],
                        &format!("{path}.{}", f.name),
                        &inner_parent,
                        span,
                    )?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    // -- roles ---------------------------------------------------------------

    fn mark_roles(roles: &mut HashMap<u32, Role>, shape: &Shape, ctx: RoleCtx, nets: &[NetId]) {
        let mut idx = 0usize;
        Self::mark_roles_rec(roles, shape, ctx, nets, &mut idx);
    }

    fn mark_roles_rec(
        roles: &mut HashMap<u32, Role>,
        shape: &Shape,
        ctx: RoleCtx,
        nets: &[NetId],
        idx: &mut usize,
    ) {
        match shape {
            Shape::Basic(_) => {
                let net = nets[*idx];
                *idx += 1;
                match ctx {
                    RoleCtx::Formal(m) => {
                        roles.insert(net.0, Role::Formal(m));
                    }
                    RoleCtx::Instance(m) => {
                        roles.insert(net.0, Role::Instance(m));
                    }
                    RoleCtx::Local => {}
                }
            }
            Shape::Virtual => {}
            Shape::Array { lo, hi, elem } => {
                for _ in 0..Shape::array_len(*lo, *hi) {
                    Self::mark_roles_rec(roles, elem, ctx, nets, idx);
                }
            }
            Shape::Record(r) => {
                for f in &r.fields {
                    let child = if r.has_body {
                        // Crossing into an instantiated component: bits are
                        // now that instance's pins.
                        let inherited = match ctx {
                            RoleCtx::Formal(m) | RoleCtx::Instance(m) => m,
                            RoleCtx::Local => Mode::InOut,
                        };
                        RoleCtx::Instance(compose_mode(inherited, f.mode))
                    } else {
                        match ctx {
                            RoleCtx::Formal(m) => RoleCtx::Formal(compose_mode(m, f.mode)),
                            RoleCtx::Instance(m) => RoleCtx::Instance(compose_mode(m, f.mode)),
                            RoleCtx::Local => RoleCtx::Local,
                        }
                    };
                    Self::mark_roles_rec(roles, &f.shape, child, nets, idx);
                }
            }
        }
    }

    // -- top-level ------------------------------------------------------------

    fn elaborate_top(
        &mut self,
        closure: TypeClosure<'a>,
        args: &[i64],
        top_name: &str,
    ) -> R<Design> {
        if closure.params.len() != args.len() {
            return Err(Diagnostic::error(
                Span::dummy(),
                format!(
                    "top type '{top_name}' takes {} parameter(s) but {} given",
                    closure.params.len(),
                    args.len()
                ),
            ));
        }
        let tenv = Env::child(&closure.env);
        for (p, v) in closure.params.iter().zip(args) {
            tenv.consts
                .borrow_mut()
                .insert(p.name.clone(), ConstVal::Num(*v));
        }
        let ast::Type::Component(comp) = closure.ty else {
            return Err(Diagnostic::error(
                closure.ty.span(),
                format!("top type '{top_name}' is not a component type"),
            ));
        };
        if comp.body.is_none() {
            return Err(Diagnostic::error(
                comp.span,
                format!("top component type '{top_name}' has no body"),
            ));
        }
        let (shape, _bind) = self.resolve_component(comp, &tenv, Some(top_name.to_string()), 0)?;
        let Shape::Record(rec) = &shape else {
            return Err(Diagnostic::internal(
                comp.span,
                "component type did not resolve to a record shape",
            ));
        };
        let rec = Arc::clone(rec);
        let nets = self.make_nets(&shape, top_name, comp.span);

        // Ports from top-level fields.
        let offsets = rec.field_offsets();
        let mut ports: Vec<Port> = Vec::new();
        for (i, f) in rec.fields.iter().enumerate() {
            ports.push(Port {
                name: f.name.clone(),
                mode: f.mode,
                shape: f.shape.clone(),
                nets: nets[offsets[i]..offsets[i + 1]].to_vec(),
            });
        }
        // Touch the top pins so the body is considered fully used; they
        // are externally driven, so exempt them from driver warnings.
        for &n in &nets {
            self.touch(n, F_READ);
            self.top_pins.push(n);
        }

        let top_pending = Pending {
            path: top_name.to_string(),
            parent_path: String::new(),
            key: top_name.to_string(),
            kind: PendKind::Comp {
                comp,
                env: tenv,
                type_name: top_name.to_string(),
            },
            shape: Arc::clone(&rec),
            nets: nets.clone(),
            span: comp.span,
        };
        self.elab_instance(top_pending)?;

        // Fixpoint over lazily generated instances: hardware is only
        // generated when used (§4.2); usage can appear in bodies that
        // themselves elaborate lazily.
        loop {
            while let Some(p) = self.queue.pop_front() {
                // Closed-port rule (§4.1): at this point the parent's body
                // (and everything else that may legally reference this
                // instance's pins) has elaborated, while the instance's own
                // body has not — so the touch flags reflect exactly the
                // parent-side usage the rule is about.
                self.check_ports(&p);
                self.check_budgets(p.span)?;
                self.elab_instance(p)?;
            }
            let mut progressed = false;
            let mut still = Vec::new();
            for p in std::mem::take(&mut self.inactive) {
                if p.nets.iter().any(|&n| self.is_touched(n)) {
                    self.queue.push_back(p);
                    progressed = true;
                } else {
                    still.push(p);
                }
            }
            self.inactive = still;
            if !progressed {
                break;
            }
        }

        // Finish: canonicalize aliases, check cycles.
        if let Err(ds) = self.nl.finish() {
            for d in ds {
                self.errs.push(d);
            }
        }
        self.check_drivers();
        if let Err(d) = self.nl.check_group_compatibility() {
            self.errs.push(d);
        }

        // Canonicalize exported net references.
        for p in &mut ports {
            for n in &mut p.nets {
                *n = self.nl.find(*n);
            }
        }
        let clk = self.clk.map(|n| self.nl.find(n));
        let rset = self.rset.map(|n| self.nl.find(n));
        let mut names = std::mem::take(&mut self.names);
        for v in names.values_mut() {
            *v = self.nl.find(*v);
        }

        let instances = self.build_tree(top_name.to_string(), top_name.to_string(), top_name);

        Ok(Design {
            netlist: std::mem::take(&mut self.nl),
            top_type: top_name.to_string(),
            ports,
            instances,
            warnings: std::mem::take(&mut self.warns),
            clk,
            rset,
            names,
            optimized: false,
        })
    }

    fn build_tree(&mut self, path: String, key: String, type_name: &str) -> InstanceNode {
        let children = self
            .children
            .remove(&path)
            .unwrap_or_default()
            .into_iter()
            .map(|(k, p, t)| self.build_tree(p, k, &t))
            .collect();
        InstanceNode {
            key,
            layout: self.layouts.remove(&path).unwrap_or_default(),
            children,
            type_name: type_name.to_string(),
            path,
        }
    }

    // -- instance elaboration -------------------------------------------------

    /// Every port of a generated instance must be used, assigned or
    /// closed with '*' by its environment (§4.1).
    fn check_ports(&mut self, p: &Pending<'a>) {
        let offsets = p.shape.field_offsets();
        for (i, f) in p.shape.fields.iter().enumerate() {
            let pins = &p.nets[offsets[i]..offsets[i + 1]];
            if !pins.is_empty() && !pins.iter().any(|&n| self.is_touched(n)) {
                self.errs.push(Diagnostic::error(
                    p.span,
                    format!(
                        "port '{}' of component '{}' is neither used nor assigned; \
                         close unused ports explicitly with '*'",
                        f.name, p.path
                    ),
                ));
            }
        }
    }

    fn elab_instance(&mut self, p: Pending<'a>) -> R<()> {
        match p.kind {
            PendKind::Builtin(BuiltinComponent::Reg) => {
                // REG: out is in of the previous clock cycle.
                self.nl
                    .add_node(NodeOp::Reg, vec![p.nets[0]], p.nets[1], None, p.span);
                if !p.parent_path.is_empty() {
                    self.children
                        .entry(p.parent_path.clone())
                        .or_default()
                        .push((p.key, p.path, "REG".to_string()));
                }
                Ok(())
            }
            PendKind::Comp {
                comp,
                env,
                ref type_name,
            } => {
                if !p.parent_path.is_empty() {
                    self.children
                        .entry(p.parent_path.clone())
                        .or_default()
                        .push((p.key.clone(), p.path.clone(), type_name.clone()));
                }
                let Some(body) = comp.body.as_ref() else {
                    return Err(Diagnostic::internal(
                        p.span,
                        "pending instance has a component type without a body",
                    ));
                };
                let benv = Env::child(&env);
                let mut ctx = Ctx {
                    env: Rc::clone(&benv),
                    roles: HashMap::new(),
                    path: p.path.clone(),
                    guard: None,
                    group: None,
                    result: None,
                    pendings: Vec::new(),
                    layout: Vec::new(),
                };
                // Bind formals as slots over the pin nets; mark roles.
                let offsets = p.shape.field_offsets();
                for (i, f) in p.shape.fields.iter().enumerate() {
                    let nets = p.nets[offsets[i]..offsets[i + 1]].to_vec();
                    Self::mark_roles(&mut ctx.roles, &f.shape, RoleCtx::Formal(f.mode), &nets);
                    benv.signals.borrow_mut().insert(
                        f.name.clone(),
                        Rc::new(Slot {
                            path: format!("{}.{}", p.path, f.name),
                            shape: f.shape.clone(),
                            nets,
                        }),
                    );
                }
                self.elab_body(&mut ctx, comp, body)?;
                Ok(())
            }
        }
    }

    /// Elaborates a component body in context `ctx` (shared by lazily
    /// elaborated instances and inlined function calls).
    fn elab_body(
        &mut self,
        ctx: &mut Ctx<'a>,
        comp: &'a ast::ComponentType,
        body: &'a ast::ComponentBody,
    ) -> R<()> {
        // Local declarations.
        let env = Rc::clone(&ctx.env);
        for d in &body.decls {
            match d {
                ast::Decl::Signal(defs) => {
                    for def in defs {
                        for n in &def.names {
                            let (shape, bindt) = self.resolve_type(&def.ty, &env, 0)?;
                            let slot_path = format!("{}.{}", ctx.path, n.name);
                            let parent = ctx.path.clone();
                            let nets = self.make_nets(&shape, &slot_path, n.span);
                            Self::mark_roles(&mut ctx.roles, &shape, RoleCtx::Local, &nets);
                            self.register_pendings(
                                ctx, &shape, &bindt, &nets, &slot_path, &parent, n.span,
                            )?;
                            env.signals.borrow_mut().insert(
                                n.name.clone(),
                                Rc::new(Slot {
                                    path: slot_path,
                                    shape,
                                    nets,
                                }),
                            );
                        }
                    }
                }
                other => self.load_decls(std::slice::from_ref(other), &env, &ctx.path.clone())?,
            }
        }

        // Layout blocks: header (boundary pins) then pre-BEGIN block.
        // Replacements of virtual signals must run before statements.
        let mut items = Vec::new();
        for l in &comp.header_layout {
            if let Err(d) = self.interp_layout(ctx, l, &mut items) {
                self.errs.push(d);
            }
        }
        for l in &body.layout {
            if let Err(d) = self.interp_layout(ctx, l, &mut items) {
                self.errs.push(d);
            }
        }
        ctx.layout.extend(items);

        // Statements (order irrelevant; errors are collected per statement).
        for s in &body.stmts {
            if let Err(d) = self.elab_stmt(ctx, s) {
                self.errs.push(d);
            }
        }

        // Save layout; defer the used-instance decision to the global
        // fixpoint (a sibling's lazily elaborated body may touch pins).
        self.layouts
            .insert(ctx.path.clone(), std::mem::take(&mut ctx.layout));
        self.inactive.append(&mut ctx.pendings);
        Ok(())
    }

    // -- statements -------------------------------------------------------------

    fn elab_stmt(&mut self, ctx: &mut Ctx<'a>, s: &'a ast::Stmt) -> R<()> {
        self.check_budgets(s.span())?;
        match s {
            ast::Stmt::Empty(_) => Ok(()),
            ast::Stmt::Assign { lhs, op, rhs, span } => match op {
                AssignOp::Define => self.elab_assign(ctx, lhs, rhs, *span),
                AssignOp::Alias => self.elab_alias(ctx, lhs, rhs, *span),
            },
            ast::Stmt::Connection { target, args, span } => {
                self.elab_connection(ctx, target, args.as_ref(), *span)
            }
            ast::Stmt::If { arms, els, .. } => self.elab_if(ctx, arms, els.as_deref()),
            ast::Stmt::WhenGen {
                arms, otherwise, ..
            } => {
                for (cond, stmts) in arms {
                    if eval_const_expr(cond, &*ctx.env)? != 0 {
                        for st in stmts {
                            self.elab_stmt(ctx, st)?;
                        }
                        return Ok(());
                    }
                }
                if let Some(o) = otherwise {
                    for st in o {
                        self.elab_stmt(ctx, st)?;
                    }
                }
                Ok(())
            }
            ast::Stmt::For {
                var,
                from,
                to,
                downto,
                sequentially,
                body,
                ..
            } => {
                let a = eval_const_expr(from, &*ctx.env)?;
                let b = eval_const_expr(to, &*ctx.env)?;
                let indices: Vec<i64> = if *downto {
                    (b..=a).rev().collect()
                } else {
                    (a..=b).collect()
                };
                let outer_env = Rc::clone(&ctx.env);
                let outer_group = ctx.group;
                let mut prev_group: Option<u32> = None;
                for i in indices {
                    let ienv = Env::child(&outer_env);
                    ienv.consts
                        .borrow_mut()
                        .insert(var.name.clone(), ConstVal::Num(i));
                    ctx.env = ienv;
                    if *sequentially {
                        let g = self.alloc_group(outer_group);
                        if let Some(pg) = prev_group {
                            self.nl.group_constraints.push(GroupConstraint {
                                before: pg,
                                after: g,
                            });
                        }
                        prev_group = Some(g);
                        ctx.group = Some(g);
                    }
                    let result: R<()> = body.iter().try_for_each(|st| self.elab_stmt(ctx, st));
                    ctx.env = Rc::clone(&outer_env);
                    ctx.group = outer_group;
                    result?;
                }
                Ok(())
            }
            ast::Stmt::Sequential(body, _) => {
                let outer_group = ctx.group;
                let mut prev: Option<u32> = None;
                for st in body {
                    let g = self.alloc_group(outer_group);
                    if let Some(pg) = prev {
                        self.nl.group_constraints.push(GroupConstraint {
                            before: pg,
                            after: g,
                        });
                    }
                    prev = Some(g);
                    ctx.group = Some(g);
                    let r = self.elab_stmt(ctx, st);
                    ctx.group = outer_group;
                    r?;
                }
                Ok(())
            }
            ast::Stmt::Parallel(body, _) => {
                for st in body {
                    self.elab_stmt(ctx, st)?;
                }
                Ok(())
            }
            ast::Stmt::With { signal, body, .. } => {
                let res = self.resolve_signal(ctx, signal)?;
                let arm = self.single_arm(res, signal.span)?;
                let Shape::Record(rec) = &arm.shape else {
                    return Err(Diagnostic::error(
                        signal.span,
                        "WITH requires a signal of component (record) type",
                    ));
                };
                let Some(base_path) = &arm.path else {
                    return Err(Diagnostic::error(
                        signal.span,
                        "WITH requires a fully specified signal (§4.6)",
                    ));
                };
                let wenv = Env::child(&ctx.env);
                let offsets = rec.field_offsets();
                for (i, f) in rec.fields.iter().enumerate() {
                    wenv.signals.borrow_mut().insert(
                        f.name.clone(),
                        Rc::new(Slot {
                            path: format!("{base_path}.{}", f.name),
                            shape: f.shape.clone(),
                            nets: arm.nets[offsets[i]..offsets[i + 1]].to_vec(),
                        }),
                    );
                }
                let outer = std::mem::replace(&mut ctx.env, wenv);
                let r: R<()> = body.iter().try_for_each(|st| self.elab_stmt(ctx, st));
                ctx.env = outer;
                r
            }
            ast::Stmt::Result(e, span) => {
                let Some(result_nets) = ctx.result.as_ref().map(|r| r.nets.clone()) else {
                    return Err(Diagnostic::error(
                        *span,
                        "RESULT is only allowed in a function component type",
                    ));
                };
                let bits = self.flatten_expr(ctx, e, Some(result_nets.len()))?;
                if bits.len() != result_nets.len() {
                    return Err(Diagnostic::error(
                        *span,
                        format!(
                            "RESULT expression has {} basic signals but the result type has {}",
                            bits.len(),
                            result_nets.len()
                        ),
                    ));
                }
                for (dst, bit) in result_nets.iter().zip(bits) {
                    match bit {
                        RBit::Star => self.touch(*dst, F_STARRED),
                        RBit::Net { id, .. } => {
                            self.assign_bit(ctx, *dst, id, None, *span)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn alloc_group(&mut self, parent: Option<u32>) -> u32 {
        let g = self.nl.group_parents.len() as u32;
        self.nl.group_parents.push(parent.unwrap_or(u32::MAX));
        g
    }

    fn elab_if(
        &mut self,
        ctx: &mut Ctx<'a>,
        arms: &'a [(ast::Expr, Vec<ast::Stmt>)],
        els: Option<&'a [ast::Stmt]>,
    ) -> R<()> {
        // IF b1 THEN s1 ELSIF b2 THEN s2 ... ELSE sn END is rewritten to
        // guards b1, AND(NOT b1, b2), ..., AND(NOT b1,...,NOT bn-1) (§8).
        let mut neg_acc: Option<NetId> = None;
        for (cond, stmts) in arms {
            let cbits = self.flatten_expr(ctx, cond, Some(1))?;
            let cnet = self.expect_one_net(&cbits, cond.span())?;
            let this_guard = self.and_opt(ctx, neg_acc, cnet, cond.span());
            let saved = ctx.guard;
            ctx.guard = self.combine(ctx, saved, Some(this_guard), cond.span());
            let r: R<()> = stmts.iter().try_for_each(|st| self.elab_stmt(ctx, st));
            ctx.guard = saved;
            r?;
            let ncond = self.mk_unary(ctx, NodeOp::Not, cnet, cond.span());
            neg_acc = Some(self.and_opt(ctx, neg_acc, ncond, cond.span()));
        }
        if let Some(stmts) = els {
            let Some(g) = neg_acc else {
                return Err(Diagnostic::internal(
                    Span::dummy(),
                    "IF statement with an ELSE branch but no THEN arms",
                ));
            };
            let saved = ctx.guard;
            ctx.guard = self.combine(ctx, saved, Some(g), Span::dummy());
            let r: R<()> = stmts.iter().try_for_each(|st| self.elab_stmt(ctx, st));
            ctx.guard = saved;
            r?;
        }
        Ok(())
    }

    fn expect_one_net(&mut self, bits: &[RBit], span: Span) -> R<NetId> {
        if bits.len() != 1 {
            return Err(Diagnostic::error(
                span,
                format!("a condition must be one basic signal, found {}", bits.len()),
            ));
        }
        match bits[0] {
            RBit::Net { id, .. } => Ok(id),
            RBit::Star => Err(Diagnostic::error(span, "'*' cannot be used as a condition")),
        }
    }

    fn and_opt(&mut self, ctx: &Ctx<'a>, acc: Option<NetId>, b: NetId, span: Span) -> NetId {
        match acc {
            None => b,
            Some(a) => {
                let out = self.nl.add_net(BasicKind::Boolean, "<guard>", span);
                self.nl
                    .add_node(NodeOp::And, vec![a, b], out, ctx.group, span);
                out
            }
        }
    }

    /// Conjunction of two optional guards; `None` means "always active".
    fn combine(
        &mut self,
        ctx: &Ctx<'a>,
        a: Option<NetId>,
        b: Option<NetId>,
        span: Span,
    ) -> Option<NetId> {
        match (a, b) {
            (Some(a), Some(b)) => {
                let out = self.nl.add_net(BasicKind::Boolean, "<guard>", span);
                self.nl
                    .add_node(NodeOp::And, vec![a, b], out, ctx.group, span);
                Some(out)
            }
            (x, None) | (None, x) => x,
        }
    }

    fn mk_unary(&mut self, ctx: &Ctx<'a>, op: NodeOp, input: NetId, span: Span) -> NetId {
        let out = self.nl.add_net(BasicKind::Boolean, "<tmp>", span);
        self.nl.add_node(op, vec![input], out, ctx.group, span);
        out
    }

    fn const_net(&mut self, ctx: &Ctx<'a>, v: Value, span: Span) -> NetId {
        let kind = if v == Value::NoInfl {
            BasicKind::Multiplex
        } else {
            BasicKind::Boolean
        };
        let out = self.nl.add_net(kind, format!("<const {v}>"), span);
        self.nl
            .add_node(NodeOp::Const(v), Vec::new(), out, ctx.group, span);
        out
    }

    // -- assignments -------------------------------------------------------------

    fn elab_assign(
        &mut self,
        ctx: &mut Ctx<'a>,
        lhs: &'a ast::Signal,
        rhs: &'a ast::Expr,
        span: Span,
    ) -> R<()> {
        match lhs {
            ast::Signal::Star(_) => {
                // "* := x.b": x.b remains available; reads are marked.
                let _ = self.flatten_expr(ctx, rhs, None)?;
                Ok(())
            }
            ast::Signal::Ref(r) => {
                let res = self.resolve_signal(ctx, r)?;
                for arm in &res.arms {
                    if !arm.lvalue {
                        return Err(Diagnostic::error(
                            r.span,
                            "the left-hand side of ':=' must be a signal",
                        ));
                    }
                }
                let width = res.arms.first().map(|a| a.nets.len()).unwrap_or(0);
                let bits = self.flatten_expr(ctx, rhs, Some(width))?;
                if bits.len() != width {
                    return Err(Diagnostic::error(
                        span,
                        format!(
                            "assignment width mismatch: left side has {width} basic \
                             signals, right side has {}",
                            bits.len()
                        ),
                    ));
                }
                for arm in &res.arms {
                    for (&dst, &bit) in arm.nets.iter().zip(&bits) {
                        match bit {
                            RBit::Star => self.touch(dst, F_STARRED),
                            RBit::Net { id, .. } => {
                                self.assign_bit(ctx, dst, id, arm.guard, span)?;
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// One basic assignment `dst := src` under the current guard plus an
    /// optional extra (dynamic-index) guard — the workhorse that applies
    /// type rules (1) and the driver bookkeeping.
    fn assign_bit(
        &mut self,
        ctx: &mut Ctx<'a>,
        dst: NetId,
        src: NetId,
        extra_guard: Option<NetId>,
        span: Span,
    ) -> R<()> {
        let cur = ctx.guard;
        let guard = self.combine(ctx, cur, extra_guard, span);
        let role = ctx.roles.get(&dst.0).copied();
        match role {
            Some(Role::Formal(Mode::In)) => {
                return Err(Diagnostic::error(
                    span,
                    format!(
                        "no assignment is allowed to formal IN parameter '{}' within the \
                         defining component (§3.2)",
                        self.nl.nets[dst.index()].name
                    ),
                ));
            }
            Some(Role::Instance(Mode::Out)) => {
                return Err(Diagnostic::error(
                    span,
                    format!(
                        "no assignment is allowed to OUT parameter '{}' of an instantiated \
                         component (§3.2)",
                        self.nl.nets[dst.index()].name
                    ),
                ));
            }
            _ => {}
        }
        let exc = Exception1 {
            formal_out: role == Some(Role::Formal(Mode::Out)),
            instance_in: role == Some(Role::Instance(Mode::In)),
        };
        let dst_kind = self.nl.nets[dst.index()].kind;
        let src_kind = self.nl.nets[src.index()].kind;
        let verdict = if guard.is_none() {
            rules::unconditional_assign(dst_kind, src_kind)
        } else {
            rules::conditional_assign(dst_kind, exc)
        };
        match verdict {
            RuleVerdict::Illegal(msg) => {
                return Err(Diagnostic::error(
                    span,
                    format!(
                        "{} '{}': {msg}",
                        "illegal assignment to",
                        self.nl.nets[dst.index()].name
                    ),
                ))
            }
            RuleVerdict::Warn(msg) => self.warns.push(Diagnostic::warning(span, msg)),
            RuleVerdict::Legal => {}
        }
        // Identical repeated connections are allowed (§4.3); dedupe them.
        let key = (
            dst.0,
            guard.map(|g| g.0 as u64 + 1).unwrap_or(0),
            src.0 as u64,
        );
        if !self.dedup.insert(key) {
            return Ok(());
        }
        self.drivers.push(DriverRec {
            net: dst.0,
            cond: guard.is_some(),
            span,
        });
        match guard {
            Some(g) => {
                self.nl
                    .add_node(NodeOp::If, vec![g, src], dst, ctx.group, span);
            }
            None => {
                self.nl
                    .add_node(NodeOp::Buf, vec![src], dst, ctx.group, span);
            }
        }
        self.touch(dst, F_ASSIGNED);
        self.touch(src, F_READ);
        Ok(())
    }

    fn elab_alias(
        &mut self,
        ctx: &mut Ctx<'a>,
        lhs: &'a ast::Signal,
        rhs: &'a ast::Expr,
        span: Span,
    ) -> R<()> {
        if ctx.guard.is_some() {
            return Err(Diagnostic::error(
                span,
                "aliasing ('==') must not occur within a conditional statement (§4.1)",
            ));
        }
        let lnets: Vec<RBit> = match lhs {
            ast::Signal::Star(_) => {
                // "* == x.b" closes x.b.
                let bits = self.flatten_expr(ctx, rhs, None)?;
                for b in &bits {
                    if let RBit::Net { id, .. } = b {
                        self.touch(*id, F_STARRED);
                    }
                }
                return Ok(());
            }
            ast::Signal::Ref(r) => {
                let res = self.resolve_signal(ctx, r)?;
                let arm = self.single_arm(res, r.span)?;
                if !arm.lvalue {
                    return Err(Diagnostic::error(r.span, "'==' requires signals"));
                }
                arm.nets
                    .iter()
                    .map(|&n| RBit::Net {
                        id: n,
                        lvalue: true,
                    })
                    .collect()
            }
        };
        let rbits = self.flatten_expr(ctx, rhs, Some(lnets.len()))?;
        if rbits.len() != lnets.len() {
            return Err(Diagnostic::error(
                span,
                format!(
                    "aliasing width mismatch: left side has {} basic signals, right side has {}",
                    lnets.len(),
                    rbits.len()
                ),
            ));
        }
        for (l, r) in lnets.iter().zip(&rbits) {
            match (l, r) {
                (RBit::Net { id: a, .. }, RBit::Net { id: b, lvalue }) => {
                    if !lvalue {
                        return Err(Diagnostic::error(
                            span,
                            "'==' requires signals on both sides",
                        ));
                    }
                    self.alias_bit(ctx, *a, *b, span)?;
                }
                (RBit::Net { id, .. }, RBit::Star) | (RBit::Star, RBit::Net { id, .. }) => {
                    // "x.b == *" is an empty assignment; the port counts
                    // as closed.
                    self.touch(*id, F_STARRED);
                }
                (RBit::Star, RBit::Star) => {}
            }
        }
        Ok(())
    }

    fn alias_bit(&mut self, ctx: &mut Ctx<'a>, a: NetId, b: NetId, span: Span) -> R<()> {
        let role_a = ctx.roles.get(&a.0).copied();
        let role_b = ctx.roles.get(&b.0).copied();
        let exc = |r: Option<Role>| Exception1 {
            formal_out: r == Some(Role::Formal(Mode::Out)),
            instance_in: r == Some(Role::Instance(Mode::In)),
        };
        let ka = self.nl.nets[a.index()].kind;
        let kb = self.nl.nets[b.index()].kind;
        match rules::alias(ka, kb, exc(role_a), exc(role_b)) {
            RuleVerdict::Illegal(msg) => {
                return Err(Diagnostic::error(
                    span,
                    format!(
                        "illegal aliasing of '{}' with '{}': {msg}",
                        self.nl.nets[a.index()].name,
                        self.nl.nets[b.index()].name
                    ),
                ))
            }
            RuleVerdict::Warn(msg) => self.warns.push(Diagnostic::warning(span, msg)),
            RuleVerdict::Legal => {}
        }
        self.nl.union(a, b);
        self.touch(a, F_ALIASED);
        self.touch(b, F_ALIASED);
        Ok(())
    }

    // -- connections ------------------------------------------------------------

    fn elab_connection(
        &mut self,
        ctx: &mut Ctx<'a>,
        target: &'a ast::SignalRef,
        args: Option<&'a ast::Expr>,
        span: Span,
    ) -> R<()> {
        let res = self.resolve_signal(ctx, target)?;
        let arm = self.single_arm(res, target.span)?;
        let Some(args) = args else {
            self.warns.push(Diagnostic::warning(
                span,
                "connection statement without parameters has no effect",
            ));
            return Ok(());
        };
        // Determine the element interface and count.
        let (rec, count) =
            match &arm.shape {
                Shape::Record(r) if r.has_body => (Arc::clone(r), 1usize),
                Shape::Array { lo, hi, elem } => match &**elem {
                    Shape::Record(r) if r.has_body => (Arc::clone(r), Shape::array_len(*lo, *hi)),
                    _ => {
                        return Err(Diagnostic::error(
                            target.span,
                            "a connection statement requires an instantiated component (or an \
                         array of equal components) with a body (§4.3)",
                        ))
                    }
                },
                _ => return Err(Diagnostic::error(
                    target.span,
                    "a connection statement requires an instantiated component with a body (§4.3)",
                )),
            };
        if let Some(p) = &arm.path {
            if !self.connected.insert(p.clone()) {
                return Err(Diagnostic::error(
                    span,
                    format!(
                        "at most one connection statement is allowed for component '{p}' (§4.3)"
                    ),
                ));
            }
        }
        let offsets = rec.field_offsets();
        // field_offsets returns `fields + 1` entries, so `last` exists even
        // for an empty record (the total width, 0).
        let elem_width = *offsets.last().unwrap_or(&0);
        let total = elem_width * count;
        let bits = self.flatten_expr(ctx, args, Some(total))?;
        if bits.len() != total {
            return Err(Diagnostic::error(
                span,
                format!(
                    "connection to '{}' needs {total} basic signals but {} were supplied",
                    arm.path.as_deref().unwrap_or("<component>"),
                    bits.len()
                ),
            ));
        }
        // The i-th parameter carries `count` times as many basic signals
        // as its type (§4.3): actuals are grouped parameter-major.
        let mut actual_pos = 0usize;
        for (fi, f) in rec.fields.iter().enumerate() {
            let fw = offsets[fi + 1] - offsets[fi];
            for inst in 0..count {
                let pin_base = inst * elem_width + offsets[fi];
                for b in 0..fw {
                    let pin = arm.nets[pin_base + b];
                    let actual = bits[actual_pos];
                    actual_pos += 1;
                    self.connect_bit(ctx, f.mode, pin, actual, span)?;
                }
            }
        }
        Ok(())
    }

    fn connect_bit(
        &mut self,
        ctx: &mut Ctx<'a>,
        mode: Mode,
        pin: NetId,
        actual: RBit,
        span: Span,
    ) -> R<()> {
        match (mode, actual) {
            (_, RBit::Star) => {
                self.touch(pin, F_STARRED);
                Ok(())
            }
            (Mode::In, RBit::Net { id, .. }) => self.assign_bit(ctx, pin, id, None, span),
            (Mode::Out, RBit::Net { id, lvalue }) => {
                if !lvalue {
                    return Err(Diagnostic::error(
                        span,
                        "the actual parameter for an OUT formal must be a signal expression (§4.3)",
                    ));
                }
                self.touch(pin, F_READ);
                self.assign_bit(ctx, id, pin, None, span)
            }
            (Mode::InOut, RBit::Net { id, lvalue }) => {
                if !lvalue {
                    return Err(Diagnostic::error(
                        span,
                        "the actual parameter for an INOUT formal must be a signal (§4.3)",
                    ));
                }
                if ctx.guard.is_some() {
                    return Err(Diagnostic::error(
                        span,
                        "a connection to an INOUT parameter must not occur within an \
                         if statement (§4.3)",
                    ));
                }
                self.alias_bit(ctx, pin, id, span)
            }
        }
    }

    // -- expressions --------------------------------------------------------------

    fn flatten_expr(
        &mut self,
        ctx: &mut Ctx<'a>,
        e: &'a ast::Expr,
        expected: Option<usize>,
    ) -> R<Vec<RBit>> {
        let mut segs = Vec::new();
        self.collect_segments(ctx, e, &mut segs)?;
        let fixed: usize = segs
            .iter()
            .map(|s| match s {
                Seg::Bits(b) => b.len(),
                Seg::BareStar(_) => 0,
            })
            .sum();
        let bare_count = segs
            .iter()
            .filter(|s| matches!(s, Seg::BareStar(_)))
            .count();
        let mut per_star = 0usize;
        if bare_count > 0 {
            let Some(total) = expected else {
                return Err(Diagnostic::error(
                    e.span(),
                    "cannot determine how many signals '*' stands for here",
                ));
            };
            if total < fixed || !(total - fixed).is_multiple_of(bare_count) {
                return Err(Diagnostic::error(
                    e.span(),
                    format!(
                        "'*' cannot fill the gap: {total} signals expected, {fixed} supplied \
                         around {bare_count} '*'"
                    ),
                ));
            }
            per_star = (total - fixed) / bare_count;
        }
        let mut out = Vec::with_capacity(expected.unwrap_or(fixed));
        for s in segs {
            match s {
                Seg::Bits(b) => out.extend(b),
                Seg::BareStar(_) => out.extend(std::iter::repeat_n(RBit::Star, per_star)),
            }
        }
        Ok(out)
    }

    fn collect_segments(
        &mut self,
        ctx: &mut Ctx<'a>,
        e: &'a ast::Expr,
        segs: &mut Vec<Seg>,
    ) -> R<()> {
        match e {
            ast::Expr::Tuple(items, _) => {
                for i in items {
                    self.collect_segments(ctx, i, segs)?;
                }
                Ok(())
            }
            ast::Expr::Star { count, span } => match count {
                None => {
                    segs.push(Seg::BareStar(*span));
                    Ok(())
                }
                Some(c) => {
                    let n = eval_const_expr(c, &*ctx.env)?;
                    if n < 0 {
                        return Err(Diagnostic::error(*span, "'* : n' needs n >= 0"));
                    }
                    segs.push(Seg::Bits(vec![RBit::Star; n as usize]));
                    Ok(())
                }
            },
            ast::Expr::Const(sc) => {
                let v = eval_sig_const(sc, &*ctx.env)?;
                let bits = v
                    .flatten()
                    .into_iter()
                    .map(|val| RBit::Net {
                        id: self.const_net(ctx, val, sc.span()),
                        lvalue: false,
                    })
                    .collect();
                segs.push(Seg::Bits(bits));
                Ok(())
            }
            ast::Expr::Bin(a, b, span) => {
                let av = eval_const_expr(a, &*ctx.env)?;
                let bv = eval_const_expr(b, &*ctx.env)?;
                let sv = bin(av, bv, *span)?;
                let bits = sv
                    .flatten()
                    .into_iter()
                    .map(|val| RBit::Net {
                        id: self.const_net(ctx, val, *span),
                        lvalue: false,
                    })
                    .collect();
                segs.push(Seg::Bits(bits));
                Ok(())
            }
            ast::Expr::Not(inner, span) => {
                let bits = self.flatten_expr(ctx, inner, None)?;
                let out = bits
                    .into_iter()
                    .map(|b| match b {
                        RBit::Net { id, .. } => Ok(RBit::Net {
                            id: self.mk_unary(ctx, NodeOp::Not, id, *span),
                            lvalue: false,
                        }),
                        RBit::Star => Err(Diagnostic::error(*span, "'*' cannot be negated")),
                    })
                    .collect::<R<Vec<_>>>()?;
                segs.push(Seg::Bits(out));
                Ok(())
            }
            ast::Expr::Sig(r) => {
                let bits = self.resolve_rvalue(ctx, r)?;
                segs.push(Seg::Bits(bits));
                Ok(())
            }
            ast::Expr::Call {
                name,
                type_args,
                args,
                span,
            } => {
                let bits = self.eval_call(ctx, name, type_args, args, *span)?;
                segs.push(Seg::Bits(bits));
                Ok(())
            }
        }
    }

    fn operand_nets(&mut self, ctx: &mut Ctx<'a>, e: &'a ast::Expr) -> R<Vec<NetId>> {
        let bits = self.flatten_expr(ctx, e, None)?;
        bits.into_iter()
            .map(|b| match b {
                RBit::Net { id, .. } => Ok(id),
                RBit::Star => Err(Diagnostic::error(
                    e.span(),
                    "'*' cannot be used as an operand",
                )),
            })
            .collect()
    }

    fn eval_call(
        &mut self,
        ctx: &mut Ctx<'a>,
        name: &'a ast::Ident,
        type_args: &'a [ast::ConstExpr],
        args: &'a [ast::Expr],
        span: Span,
    ) -> R<Vec<RBit>> {
        let gate = |op: NodeOp| Some(op);
        let op = match name.name.as_str() {
            "AND" => gate(NodeOp::And),
            "OR" => gate(NodeOp::Or),
            "NAND" => gate(NodeOp::Nand),
            "NOR" => gate(NodeOp::Nor),
            "XOR" => gate(NodeOp::Xor),
            _ => None,
        };
        if let Some(op) = op {
            if args.is_empty() {
                return Err(Diagnostic::error(span, "a gate needs at least one operand"));
            }
            let operands: Vec<Vec<NetId>> = args
                .iter()
                .map(|a| self.operand_nets(ctx, a))
                .collect::<R<_>>()?;
            let m = operands[0].len();
            for (i, o) in operands.iter().enumerate() {
                if o.len() != m {
                    return Err(Diagnostic::error(
                        args[i].span(),
                        format!(
                            "all operands of {} must have the same number of basic \
                             signals ({} vs {m})",
                            name.name,
                            o.len()
                        ),
                    ));
                }
            }
            let mut out = Vec::with_capacity(m);
            for j in 0..m {
                let inputs: Vec<NetId> = operands.iter().map(|o| o[j]).collect();
                for &i in &inputs {
                    self.touch(i, F_READ);
                }
                let o = self
                    .nl
                    .add_net(BasicKind::Boolean, format!("<{}>", name.name), span);
                self.nl.add_node(op.clone(), inputs, o, ctx.group, span);
                out.push(RBit::Net {
                    id: o,
                    lvalue: false,
                });
            }
            return Ok(out);
        }
        match name.name.as_str() {
            "NOT" => {
                if args.len() != 1 {
                    return Err(Diagnostic::error(span, "NOT takes exactly one operand"));
                }
                let nets = self.operand_nets(ctx, &args[0])?;
                Ok(nets
                    .into_iter()
                    .map(|n| {
                        self.touch(n, F_READ);
                        RBit::Net {
                            id: self.mk_unary(ctx, NodeOp::Not, n, span),
                            lvalue: false,
                        }
                    })
                    .collect())
            }
            "EQUAL" => {
                if args.len() != 2 {
                    return Err(Diagnostic::error(span, "EQUAL takes exactly two operands"));
                }
                let a = self.operand_nets(ctx, &args[0])?;
                let b = self.operand_nets(ctx, &args[1])?;
                if a.len() != b.len() {
                    return Err(Diagnostic::error(
                        span,
                        format!(
                            "EQUAL operands must have the same number of basic signals \
                             ({} vs {})",
                            a.len(),
                            b.len()
                        ),
                    ));
                }
                let width = a.len();
                let mut inputs = a;
                inputs.extend(b);
                for &i in &inputs {
                    self.touch(i, F_READ);
                }
                let o = self.nl.add_net(BasicKind::Boolean, "<EQUAL>", span);
                self.nl
                    .add_node(NodeOp::Equal { width }, inputs, o, ctx.group, span);
                Ok(vec![RBit::Net {
                    id: o,
                    lvalue: false,
                }])
            }
            "RANDOM" => {
                if !args.is_empty() {
                    return Err(Diagnostic::error(span, "RANDOM takes no operands"));
                }
                let o = self.nl.add_net(BasicKind::Boolean, "<RANDOM>", span);
                self.nl
                    .add_node(NodeOp::Random, Vec::new(), o, ctx.group, span);
                Ok(vec![RBit::Net {
                    id: o,
                    lvalue: false,
                }])
            }
            other => self.eval_user_call(ctx, name, other, type_args, args, span),
        }
    }

    fn eval_user_call(
        &mut self,
        ctx: &mut Ctx<'a>,
        name: &'a ast::Ident,
        type_name: &str,
        type_args: &'a [ast::ConstExpr],
        args: &'a [ast::Expr],
        span: Span,
    ) -> R<Vec<RBit>> {
        let closure = ctx.env.lookup_type(type_name).ok_or_else(|| {
            Diagnostic::error(
                name.span,
                format!("unknown function component type '{type_name}'"),
            )
        })?;
        if self.call_depth >= self.opts.max_call_depth {
            return Err(Diagnostic::error(
                span,
                "function component recursion too deep (missing WHEN guard?)",
            )
            .with_code(codes::LIMIT_CALL_DEPTH));
        }
        if closure.params.len() != type_args.len() {
            return Err(Diagnostic::error(
                name.span,
                format!(
                    "function component '{type_name}' takes {} numeric parameter(s) but \
                     {} given",
                    closure.params.len(),
                    type_args.len()
                ),
            ));
        }
        let vals = type_args
            .iter()
            .map(|a| eval_const_expr(a, &*ctx.env))
            .collect::<Result<Vec<_>, _>>()?;
        let tenv = Env::child(&closure.env);
        for (p, v) in closure.params.iter().zip(vals) {
            tenv.consts
                .borrow_mut()
                .insert(p.name.clone(), ConstVal::Num(v));
        }
        let ast::Type::Component(comp) = closure.ty else {
            return Err(Diagnostic::error(
                name.span,
                format!("'{type_name}' is not a function component type"),
            ));
        };
        let (Some(result_ty), Some(body)) = (&comp.result, &comp.body) else {
            return Err(Diagnostic::error(
                name.span,
                format!("'{type_name}' is not a function component type (it has no RESULT type)"),
            ));
        };
        // Bind formals.
        let benv = Env::child(&tenv);
        let call_path = format!("{}.<call {type_name}>", ctx.path);
        let mut roles = HashMap::new();
        // Flatten all actual arguments together: parenthesization is not
        // significant (§4.7).
        let mut field_shapes = Vec::new();
        for g in &comp.params {
            let (fs, _fb) = self.resolve_type(&g.ty, &tenv, 0)?;
            for n in &g.names {
                field_shapes.push((n.name.clone(), g.mode, fs.clone()));
            }
        }
        let total: usize = field_shapes.iter().map(|(_, _, s)| s.bit_len()).sum();
        let mut all_bits = Vec::new();
        for a in args {
            let mut segs = Vec::new();
            self.collect_segments(ctx, a, &mut segs)?;
            for s in segs {
                match s {
                    Seg::Bits(b) => all_bits.extend(b),
                    Seg::BareStar(sp) => {
                        return Err(Diagnostic::error(
                            sp,
                            "'*' is not allowed in a function component call",
                        ))
                    }
                }
            }
        }
        if all_bits.len() != total {
            return Err(Diagnostic::error(
                span,
                format!(
                    "call of '{type_name}' needs {total} basic signals but {} were supplied",
                    all_bits.len()
                ),
            ));
        }
        let mut pos = 0usize;
        for (fname, mode, fshape) in &field_shapes {
            let w = fshape.bit_len();
            let actual = &all_bits[pos..pos + w];
            pos += w;
            let pin_nets: Vec<NetId> = match mode {
                Mode::In => {
                    // IN formals bind directly to the actual nets.
                    actual
                        .iter()
                        .map(|b| match b {
                            RBit::Net { id, .. } => {
                                self.touch(*id, F_READ);
                                Ok(*id)
                            }
                            RBit::Star => Err(Diagnostic::error(
                                span,
                                "'*' is not allowed in a function component call",
                            )),
                        })
                        .collect::<R<_>>()?
                }
                Mode::Out | Mode::InOut => {
                    let fresh = self.make_nets(fshape, &format!("{call_path}.{fname}"), span);
                    for (f, a) in fresh.iter().zip(actual) {
                        match a {
                            RBit::Net { id, lvalue: true } => {
                                if *mode == Mode::Out {
                                    self.touch(*f, F_READ);
                                    self.assign_bit(ctx, *id, *f, None, span)?;
                                } else {
                                    self.alias_bit(ctx, *f, *id, span)?;
                                }
                            }
                            _ => {
                                return Err(Diagnostic::error(
                                    span,
                                    "OUT/INOUT actuals of a function call must be signals",
                                ))
                            }
                        }
                    }
                    fresh
                }
            };
            Self::mark_roles(&mut roles, fshape, RoleCtx::Formal(*mode), &pin_nets);
            benv.signals.borrow_mut().insert(
                fname.clone(),
                Rc::new(Slot {
                    path: format!("{call_path}.{fname}"),
                    shape: fshape.clone(),
                    nets: pin_nets,
                }),
            );
        }
        // Result nets behave like formal OUT parameters (conditional
        // RESULT makes the function "of type multiplex", §3.2).
        let (result_shape, _) = self.resolve_type(result_ty, &tenv, 0)?;
        let result_nets = self.make_nets(&result_shape, &format!("{call_path}.RESULT"), span);
        Self::mark_roles(
            &mut roles,
            &result_shape,
            RoleCtx::Formal(Mode::Out),
            &result_nets,
        );

        let mut fctx = Ctx {
            env: benv,
            roles,
            path: call_path,
            guard: None,
            group: ctx.group,
            result: Some(ResultSlot {
                nets: result_nets.clone(),
            }),
            pendings: Vec::new(),
            layout: Vec::new(),
        };
        self.call_depth += 1;
        let r = self.elab_body(&mut fctx, comp, body);
        self.call_depth -= 1;
        r?;
        Ok(result_nets
            .into_iter()
            .map(|id| RBit::Net { id, lvalue: false })
            .collect())
    }

    // -- signal resolution -----------------------------------------------------

    fn single_arm(&mut self, res: SigRes, span: Span) -> R<ResArm> {
        let mut arms = res.arms;
        if arms.len() != 1 {
            return Err(Diagnostic::error(
                span,
                "a NUM-indexed signal cannot be used here",
            ));
        }
        Ok(arms.remove(0))
    }

    fn resolve_rvalue(&mut self, ctx: &mut Ctx<'a>, r: &'a ast::SignalRef) -> R<Vec<RBit>> {
        let res = self.resolve_signal(ctx, r)?;
        if res.arms.len() == 1 {
            let arm = &res.arms[0];
            for &n in &arm.nets {
                self.touch(n, F_READ);
            }
            let lv = arm.lvalue;
            return Ok(arm
                .nets
                .iter()
                .map(|&id| RBit::Net { id, lvalue: lv })
                .collect());
        }
        // Dynamic read: build a mux over the guarded alternatives.
        let width = res.arms.first().map(|a| a.nets.len()).unwrap_or(0);
        let mut out = Vec::with_capacity(width);
        for b in 0..width {
            let o = self.nl.add_net(BasicKind::Multiplex, "<num-mux>", r.span);
            for arm in &res.arms {
                let Some(g) = arm.guard else {
                    return Err(Diagnostic::internal(
                        r.span,
                        "dynamically indexed signal alternative has no guard",
                    ));
                };
                self.touch(arm.nets[b], F_READ);
                self.nl
                    .add_node(NodeOp::If, vec![g, arm.nets[b]], o, ctx.group, r.span);
            }
            out.push(RBit::Net {
                id: o,
                lvalue: false,
            });
        }
        Ok(out)
    }

    fn resolve_signal(&mut self, ctx: &mut Ctx<'a>, r: &'a ast::SignalRef) -> R<SigRes> {
        // Predefined signals.
        if r.base.name == "CLK" || r.base.name == "RSET" {
            if !r.sels.is_empty() {
                return Err(Diagnostic::error(r.span, "CLK/RSET have no substructure"));
            }
            let is_clk = r.base.name == "CLK";
            let existing = if is_clk { self.clk } else { self.rset };
            let net = match existing {
                Some(n) => n,
                None => {
                    let id = self
                        .nl
                        .add_net(BasicKind::Boolean, &r.base.name, r.base.span);
                    self.names.insert(r.base.name.clone(), id);
                    if is_clk {
                        self.clk = Some(id);
                    } else {
                        self.rset = Some(id);
                    }
                    id
                }
            };
            return Ok(SigRes {
                arms: vec![ResArm {
                    guard: None,
                    shape: Shape::boolean(),
                    nets: vec![net],
                    path: Some(r.base.name.clone()),
                    lvalue: true,
                }],
            });
        }
        if let Some(slot) = ctx.env.lookup_signal(&r.base.name) {
            let mut arms = vec![ResArm {
                guard: None,
                shape: slot.shape.clone(),
                nets: slot.nets.clone(),
                path: Some(slot.path.clone()),
                lvalue: true,
            }];
            for sel in &r.sels {
                arms = self.apply_selector(ctx, arms, sel, r.span)?;
            }
            return Ok(SigRes { arms });
        }
        // Signal constants are usable in expression positions.
        if let Some(cv) = ctx.env.lookup_const(&r.base.name) {
            let sv = match cv {
                ConstVal::Sig(sv) => sv,
                ConstVal::Num(0) => SigVal::Val(Value::Zero),
                ConstVal::Num(1) => SigVal::Val(Value::One),
                ConstVal::Num(_) => {
                    return Err(Diagnostic::error(
                        r.base.span,
                        format!(
                            "numeric constant '{}' is not a signal (only 0 and 1 are)",
                            r.base.name
                        ),
                    ))
                }
            };
            let mut cur = sv;
            for sel in &r.sels {
                match sel {
                    ast::Selector::Index(e) => {
                        let i = eval_const_expr(e, &*ctx.env)?;
                        cur = cur.index(i, e.span())?.clone();
                    }
                    _ => {
                        return Err(Diagnostic::error(
                            r.span,
                            "only [index] selection is possible on a signal constant",
                        ))
                    }
                }
            }
            let nets: Vec<NetId> = cur
                .flatten()
                .into_iter()
                .map(|v| self.const_net(ctx, v, r.span))
                .collect();
            let shape = Shape::Array {
                lo: 1,
                hi: nets.len() as i64,
                elem: Arc::new(Shape::boolean()),
            };
            return Ok(SigRes {
                arms: vec![ResArm {
                    guard: None,
                    shape,
                    nets,
                    path: None,
                    lvalue: false,
                }],
            });
        }
        Err(Diagnostic::error(
            r.base.span,
            format!("unknown signal '{}'", r.base.name),
        ))
    }

    fn apply_selector(
        &mut self,
        ctx: &mut Ctx<'a>,
        arms: Vec<ResArm>,
        sel: &'a ast::Selector,
        span: Span,
    ) -> R<Vec<ResArm>> {
        let mut out = Vec::new();
        for arm in arms {
            match sel {
                ast::Selector::Index(e) => {
                    let i = eval_const_expr(e, &*ctx.env)?;
                    out.push(self.index_arm(ctx, arm, i, e.span())?);
                }
                ast::Selector::Range(lo, hi) => {
                    let lo_v = eval_const_expr(lo, &*ctx.env)?;
                    let hi_v = eval_const_expr(hi, &*ctx.env)?;
                    let Shape::Array {
                        lo: alo,
                        hi: ahi,
                        elem,
                    } = &arm.shape
                    else {
                        return Err(Diagnostic::error(span, "range selection needs an array"));
                    };
                    if lo_v < *alo || hi_v > *ahi {
                        return Err(Diagnostic::error(
                            span,
                            format!("range [{lo_v}..{hi_v}] outside array bounds [{alo}..{ahi}]"),
                        ));
                    }
                    let w = elem.bit_len();
                    let start = ((lo_v - alo) as usize) * w;
                    let len = Shape::array_len(lo_v, hi_v) * w;
                    out.push(ResArm {
                        guard: arm.guard,
                        shape: Shape::Array {
                            lo: lo_v,
                            hi: hi_v,
                            elem: Arc::clone(elem),
                        },
                        nets: arm.nets[start..start + len].to_vec(),
                        path: None,
                        lvalue: arm.lvalue,
                    });
                }
                ast::Selector::Field(f) => {
                    out.push(self.field_arm(arm, &f.name, f.span)?);
                }
                ast::Selector::FieldRange(a, b) => {
                    let Shape::Record(rec) = &arm.shape else {
                        return Err(Diagnostic::error(
                            span,
                            "field selection needs a component (record) signal",
                        ));
                    };
                    let (ia, off_a, _) = rec.field(&a.name).ok_or_else(|| {
                        Diagnostic::error(a.span, format!("no field '{}'", a.name))
                    })?;
                    let (ib, off_b, fb) = rec.field(&b.name).ok_or_else(|| {
                        Diagnostic::error(b.span, format!("no field '{}'", b.name))
                    })?;
                    if ib < ia {
                        return Err(Diagnostic::error(
                            span,
                            format!("field range '{}..{}' is reversed", a.name, b.name),
                        ));
                    }
                    let end = off_b + fb.shape.bit_len();
                    let fields = rec.fields[ia..=ib].to_vec();
                    out.push(ResArm {
                        guard: arm.guard,
                        shape: Shape::Record(Arc::new(RecordShape {
                            type_name: None,
                            fields,
                            has_body: false,
                            builtin: None,
                        })),
                        nets: arm.nets[off_a..end].to_vec(),
                        path: None,
                        lvalue: arm.lvalue,
                    });
                }
                ast::Selector::NumIndex(addr, nspan) => {
                    let Shape::Array { lo, hi, elem } = arm.shape.clone() else {
                        return Err(Diagnostic::error(
                            *nspan,
                            "NUM indexing needs an array signal",
                        ));
                    };
                    let n = Shape::array_len(lo, hi);
                    if n > 65536 {
                        return Err(Diagnostic::error(
                            *nspan,
                            "NUM indexing over more than 65536 elements is not supported",
                        ));
                    }
                    let abits = self.resolve_rvalue(ctx, addr)?;
                    let anets: Vec<NetId> = abits
                        .iter()
                        .map(|b| match b {
                            RBit::Net { id, .. } => Ok(*id),
                            RBit::Star => Err(Diagnostic::error(*nspan, "'*' cannot address NUM")),
                        })
                        .collect::<R<_>>()?;
                    let w = anets.len();
                    if w > 32 {
                        return Err(Diagnostic::error(
                            *nspan,
                            "NUM address wider than 32 bits is not supported",
                        ));
                    }
                    let ew = elem.bit_len();
                    for i in 0..n {
                        let idx_val = lo + i as i64;
                        if idx_val < 0 || (w < 63 && idx_val >= (1i64 << w)) {
                            // Address can never take this value; the word
                            // is unreachable through NUM.
                            continue;
                        }
                        // guard_i = EQUAL(addr, BIN(idx, w))
                        let cbits: Vec<NetId> = (0..w)
                            .map(|b| {
                                let v = Value::from_bool((idx_val >> b) & 1 == 1);
                                self.const_net(ctx, v, *nspan)
                            })
                            .collect();
                        let mut inputs = anets.clone();
                        inputs.extend(cbits);
                        let g = self.nl.add_net(BasicKind::Boolean, "<num-eq>", *nspan);
                        self.nl
                            .add_node(NodeOp::Equal { width: w }, inputs, g, ctx.group, *nspan);
                        let g = match arm.guard {
                            None => g,
                            Some(outer) => {
                                let o = self.nl.add_net(BasicKind::Boolean, "<num-guard>", *nspan);
                                self.nl
                                    .add_node(NodeOp::And, vec![outer, g], o, ctx.group, *nspan);
                                o
                            }
                        };
                        out.push(ResArm {
                            guard: Some(g),
                            shape: (*elem).clone(),
                            nets: arm.nets[i * ew..(i + 1) * ew].to_vec(),
                            path: None,
                            lvalue: arm.lvalue,
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    fn index_arm(&mut self, ctx: &mut Ctx<'a>, arm: ResArm, i: i64, span: Span) -> R<ResArm> {
        match &arm.shape {
            Shape::Array { lo, hi, elem } => {
                if i < *lo || i > *hi {
                    return Err(Diagnostic::error(
                        span,
                        format!(
                            "index {i} outside array bounds [{lo}..{hi}] of '{}'",
                            arm.path.as_deref().unwrap_or("<signal>")
                        ),
                    ));
                }
                let w = elem.bit_len();
                let start = ((i - lo) as usize) * w;
                let path = arm.path.as_ref().map(|p| format!("{p}[{i}]"));
                // An element of a virtual array: resolve its replacement.
                if matches!(**elem, Shape::Virtual) {
                    let Some(p) = &path else {
                        return Err(Diagnostic::error(
                            span,
                            "virtual signal needs a direct path",
                        ));
                    };
                    return self.virtual_arm(ctx, p, arm.guard, arm.lvalue, span);
                }
                Ok(ResArm {
                    guard: arm.guard,
                    shape: (**elem).clone(),
                    nets: arm.nets[start..start + w].to_vec(),
                    path,
                    lvalue: arm.lvalue,
                })
            }
            Shape::Virtual => {
                let Some(p) = &arm.path else {
                    return Err(Diagnostic::error(
                        span,
                        "virtual signal needs a direct path",
                    ));
                };
                let rep = self.virtual_arm(ctx, p, arm.guard, arm.lvalue, span)?;
                self.index_arm(ctx, rep, i, span)
            }
            _ => Err(Diagnostic::error(
                span,
                format!(
                    "cannot index non-array signal '{}'",
                    arm.path.as_deref().unwrap_or("<signal>")
                ),
            )),
        }
    }

    fn virtual_arm(
        &mut self,
        _ctx: &mut Ctx<'a>,
        path: &str,
        guard: Option<NetId>,
        lvalue: bool,
        span: Span,
    ) -> R<ResArm> {
        let slot = self.replacements.get(path).ok_or_else(|| {
            Diagnostic::error(
                span,
                format!("virtual signal '{path}' has not been replaced (§6.4)"),
            )
        })?;
        Ok(ResArm {
            guard,
            shape: slot.shape.clone(),
            nets: slot.nets.clone(),
            path: Some(slot.path.clone()),
            lvalue,
        })
    }

    fn field_arm(&mut self, arm: ResArm, name: &str, span: Span) -> R<ResArm> {
        match &arm.shape {
            Shape::Record(rec) => {
                let (_, off, f) = rec.field(name).ok_or_else(|| {
                    Diagnostic::error(
                        span,
                        format!(
                            "component '{}' has no parameter '{name}'",
                            arm.path.as_deref().unwrap_or("<signal>")
                        ),
                    )
                })?;
                let w = f.shape.bit_len();
                Ok(ResArm {
                    guard: arm.guard,
                    shape: f.shape.clone(),
                    nets: arm.nets[off..off + w].to_vec(),
                    path: arm.path.as_ref().map(|p| format!("{p}.{name}")),
                    lvalue: arm.lvalue,
                })
            }
            // Broadcast: r.in means r[lo..hi].in (§4.1).
            Shape::Array { lo, hi, elem } => {
                let n = Shape::array_len(*lo, *hi);
                let w = elem.bit_len();
                let mut nets = Vec::new();
                let mut fshape = None;
                for i in 0..n {
                    let sub = ResArm {
                        guard: arm.guard,
                        shape: (**elem).clone(),
                        nets: arm.nets[i * w..(i + 1) * w].to_vec(),
                        path: None,
                        lvalue: arm.lvalue,
                    };
                    let sel = self.field_arm(sub, name, span)?;
                    fshape = Some(sel.shape.clone());
                    nets.extend(sel.nets);
                }
                let eshape = fshape.unwrap_or(Shape::Virtual);
                Ok(ResArm {
                    guard: arm.guard,
                    shape: Shape::Array {
                        lo: *lo,
                        hi: *hi,
                        elem: Arc::new(eshape),
                    },
                    nets,
                    path: None,
                    lvalue: arm.lvalue,
                })
            }
            _ => Err(Diagnostic::error(
                span,
                format!(
                    "cannot select field '{name}' of non-component signal '{}'",
                    arm.path.as_deref().unwrap_or("<signal>")
                ),
            )),
        }
    }

    // -- layout interpretation ---------------------------------------------------

    fn interp_layout(
        &mut self,
        ctx: &mut Ctx<'a>,
        stmt: &'a ast::LayoutStmt,
        out: &mut Vec<LayoutItem>,
    ) -> R<()> {
        match stmt {
            ast::LayoutStmt::Basic {
                orientation,
                signal,
                replace,
                span,
            } => {
                let orient = match orientation {
                    Some(o) => Orientation::from_name(&o.name).ok_or_else(|| {
                        Diagnostic::error(
                            o.span,
                            format!("'{}' is not an orientation change", o.name),
                        )
                    })?,
                    None => Orientation::Identity,
                };
                if let Some(ty) = replace {
                    // Replacement of a virtual signal (§6.4).
                    let path = self.resolve_virtual_target(ctx, signal)?;
                    if !self.replaced_once.insert(path.clone()) {
                        return Err(Diagnostic::error(
                            *span,
                            format!("virtual signal '{path}' may be replaced at most once (§6.4)"),
                        ));
                    }
                    let env = Rc::clone(&ctx.env);
                    let parent = ctx.path.clone();
                    let (shape, bindt) = self.resolve_type(ty, &env, 0)?;
                    let nets = self.make_nets(&shape, &path, *span);
                    Self::mark_roles(&mut ctx.roles, &shape, RoleCtx::Local, &nets);
                    self.register_pendings(ctx, &shape, &bindt, &nets, &path, &parent, *span)?;
                    let key = self.key_of(ctx, &path);
                    self.replacements
                        .insert(path.clone(), Rc::new(Slot { path, shape, nets }));
                    out.push(LayoutItem::Place {
                        key,
                        orientation: orient,
                    });
                } else {
                    let res = self.resolve_signal(ctx, signal)?;
                    let arm = self.single_arm(res, signal.span)?;
                    let key = match &arm.path {
                        Some(p) => self.key_of(ctx, p),
                        None => signal.base.name.clone(),
                    };
                    out.push(LayoutItem::Place {
                        key,
                        orientation: orient,
                    });
                }
                Ok(())
            }
            ast::LayoutStmt::Order {
                direction, body, ..
            } => {
                let dir = Direction::from_name(&direction.name).ok_or_else(|| {
                    Diagnostic::error(
                        direction.span,
                        format!("'{}' is not a direction of separation", direction.name),
                    )
                })?;
                let mut items = Vec::new();
                for s in body {
                    self.interp_layout(ctx, s, &mut items)?;
                }
                out.push(LayoutItem::Order {
                    direction: dir,
                    items,
                });
                Ok(())
            }
            ast::LayoutStmt::For {
                var,
                from,
                to,
                downto,
                body,
                ..
            } => {
                let a = eval_const_expr(from, &*ctx.env)?;
                let b = eval_const_expr(to, &*ctx.env)?;
                let indices: Vec<i64> = if *downto {
                    (b..=a).rev().collect()
                } else {
                    (a..=b).collect()
                };
                let outer = Rc::clone(&ctx.env);
                for i in indices {
                    let ienv = Env::child(&outer);
                    ienv.consts
                        .borrow_mut()
                        .insert(var.name.clone(), ConstVal::Num(i));
                    ctx.env = ienv;
                    let r: R<()> = body
                        .iter()
                        .try_for_each(|s| self.interp_layout(ctx, s, out));
                    ctx.env = Rc::clone(&outer);
                    r?;
                }
                Ok(())
            }
            ast::LayoutStmt::Boundary { side, body, .. } => {
                let mut pins = Vec::new();
                for s in body {
                    if let ast::LayoutStmt::Basic { signal, .. } = s {
                        pins.push(signal.base.name.clone());
                    }
                }
                out.push(LayoutItem::Boundary { side: *side, pins });
                Ok(())
            }
            ast::LayoutStmt::WhenGen {
                arms, otherwise, ..
            } => {
                for (cond, stmts) in arms {
                    if eval_const_expr(cond, &*ctx.env)? != 0 {
                        for s in stmts {
                            self.interp_layout(ctx, s, out)?;
                        }
                        return Ok(());
                    }
                }
                if let Some(o) = otherwise {
                    for s in o {
                        self.interp_layout(ctx, s, out)?;
                    }
                }
                Ok(())
            }
            ast::LayoutStmt::With { signal, body, .. } => {
                let res = self.resolve_signal(ctx, signal)?;
                let arm = self.single_arm(res, signal.span)?;
                let Shape::Record(rec) = &arm.shape else {
                    return Err(Diagnostic::error(
                        signal.span,
                        "WITH requires a signal of component type",
                    ));
                };
                let Some(base_path) = &arm.path else {
                    return Err(Diagnostic::error(
                        signal.span,
                        "WITH requires a direct signal",
                    ));
                };
                let wenv = Env::child(&ctx.env);
                let offsets = rec.field_offsets();
                for (i, f) in rec.fields.iter().enumerate() {
                    wenv.signals.borrow_mut().insert(
                        f.name.clone(),
                        Rc::new(Slot {
                            path: format!("{base_path}.{}", f.name),
                            shape: f.shape.clone(),
                            nets: arm.nets[offsets[i]..offsets[i + 1]].to_vec(),
                        }),
                    );
                }
                let outer = std::mem::replace(&mut ctx.env, wenv);
                let r: R<()> = body
                    .iter()
                    .try_for_each(|s| self.interp_layout(ctx, s, out));
                ctx.env = outer;
                r
            }
        }
    }

    fn key_of(&self, ctx: &Ctx<'a>, path: &str) -> String {
        path.strip_prefix(&format!("{}.", ctx.path))
            .unwrap_or(path)
            .to_string()
    }

    /// Resolves a replacement target like `m[i,j]` to its full path; the
    /// selected element must be `virtual`.
    fn resolve_virtual_target(&mut self, ctx: &mut Ctx<'a>, r: &'a ast::SignalRef) -> R<String> {
        let slot = ctx.env.lookup_signal(&r.base.name).ok_or_else(|| {
            Diagnostic::error(r.base.span, format!("unknown signal '{}'", r.base.name))
        })?;
        let mut shape = slot.shape.clone();
        let mut path = slot.path.clone();
        for sel in &r.sels {
            match sel {
                ast::Selector::Index(e) => {
                    let i = eval_const_expr(e, &*ctx.env)?;
                    let Shape::Array { lo, hi, elem } = &shape else {
                        return Err(Diagnostic::error(
                            e.span(),
                            "replacement target selectors must index arrays",
                        ));
                    };
                    if i < *lo || i > *hi {
                        return Err(Diagnostic::error(
                            e.span(),
                            format!("index {i} outside array bounds [{lo}..{hi}]"),
                        ));
                    }
                    path = format!("{path}[{i}]");
                    shape = (**elem).clone();
                }
                _ => {
                    return Err(Diagnostic::error(
                        r.span,
                        "replacement targets may only use [index] selectors",
                    ))
                }
            }
        }
        if !matches!(shape, Shape::Virtual) {
            return Err(Diagnostic::error(
                r.span,
                format!("'{path}' is not a virtual signal (§6.4)"),
            ));
        }
        Ok(path)
    }

    // -- final checks ------------------------------------------------------------

    fn check_drivers(&mut self) {
        #[derive(Default, Clone)]
        struct Acc {
            uncond: u32,
            cond: u32,
            span: Span,
        }
        // One tally per net, indexed by alias representative, so the
        // errors come out in ascending net order.
        let mut by_class: Vec<Acc> = vec![Acc::default(); self.nl.nets.len()];
        for rec in std::mem::take(&mut self.drivers) {
            let acc = &mut by_class[self.nl.find(NetId(rec.net)).index()];
            if rec.cond {
                acc.cond += 1;
            } else {
                acc.uncond += 1;
            }
            acc.span = rec.span;
        }
        for (net, acc) in by_class.iter().enumerate() {
            let name = &self.nl.nets[net].name;
            if acc.uncond > 1 {
                self.errs.push(Diagnostic::error(
                    acc.span,
                    format!(
                        "signal '{name}' has {} unconditional assignments; exactly one is \
                         allowed (§4.1) — this could connect power to ground",
                        acc.uncond
                    ),
                ));
            } else if acc.uncond >= 1 && acc.cond >= 1 {
                self.errs.push(Diagnostic::error(
                    acc.span,
                    format!(
                        "signal '{name}' is assigned both conditionally and unconditionally \
                         (§4.1)"
                    ),
                ));
            }
        }
        // Warn about boolean signals that are read but never driven.
        let mut driven = vec![false; self.nl.nets.len()];
        for node in &self.nl.nodes {
            driven[node.output.index()] = true;
        }
        // Externally driven: exempt.
        let mut port_net = vec![false; self.nl.nets.len()];
        for n in self.clk.into_iter().chain(self.rset) {
            port_net[self.nl.find(n).index()] = true;
        }
        for &n in &self.top_pins {
            port_net[self.nl.find(n).index()] = true;
        }
        for (i, net) in self.nl.nets.iter().enumerate() {
            let rep = self.nl.find_ref(NetId(i as u32));
            if rep.0 != i as u32 || port_net[i] {
                continue;
            }
            let read = self
                .touched
                .get(i)
                .map(|f| f & F_READ != 0)
                .unwrap_or(false);
            if read
                && !driven[i]
                && net.kind == BasicKind::Boolean
                && self
                    .touched
                    .get(i)
                    .map(|f| f & (F_ASSIGNED | F_ALIASED | F_STARRED) == 0)
                    .unwrap_or(true)
            {
                self.warns.push(Diagnostic::warning(
                    net.span,
                    format!("boolean signal '{}' is read but never assigned", net.name),
                ));
            }
        }
    }
}

fn reg_shape<'a>() -> (Shape, Rc<BindTree<'a>>) {
    let rec = RecordShape {
        type_name: Some("REG".to_string()),
        fields: vec![
            FieldShape {
                name: "in".to_string(),
                mode: Mode::In,
                shape: Shape::boolean(),
            },
            FieldShape {
                name: "out".to_string(),
                mode: Mode::Out,
                shape: Shape::boolean(),
            },
        ],
        has_body: true,
        builtin: Some(BuiltinComponent::Reg),
    };
    (
        Shape::Record(Arc::new(rec)),
        Rc::new(BindTree::Record(
            Binding::Builtin(BuiltinComponent::Reg),
            vec![Rc::new(BindTree::Leaf), Rc::new(BindTree::Leaf)],
        )),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use zeus_syntax::parse_program;

    thread_local! {
        /// Environments built and not yet freed on this thread.
        pub(super) static LIVE_ENVS: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn elaboration_frees_every_environment() {
        // A root TYPE, a component that declares its own TYPE, and an
        // instance of it: each environment that holds a TYPE closure is
        // part of a cycle unless elaboration breaks it.
        let src = "TYPE inv = COMPONENT (IN a: boolean; OUT q: boolean) IS \
             BEGIN q := NOT a END; \
             top = COMPONENT (IN a: boolean; OUT q: boolean) IS \
             TYPE buf = COMPONENT (IN a: boolean; OUT q: boolean) IS \
             BEGIN q := a END; \
             SIGNAL i: inv; b: buf; \
             BEGIN i.a := a; b.a := i.q; q := b.q END;";
        let program = parse_program(src).unwrap();
        assert_eq!(LIVE_ENVS.with(Cell::get), 0);
        elaborate(&program, "top", &[]).expect("elaborates");
        assert_eq!(LIVE_ENVS.with(Cell::get), 0, "after an Ok elaboration");
        elaborate(&program, "missing", &[]).expect_err("no such top");
        assert_eq!(LIVE_ENVS.with(Cell::get), 0, "after an Err elaboration");
        elaborate(&program, "top", &[1]).expect_err("top takes no argument");
        assert_eq!(LIVE_ENVS.with(Cell::get), 0, "after a failed instance");
    }
}
