//! # zeus-opt
//!
//! Equivalence-gated netlist optimization for Zeus designs.
//!
//! [`optimize`] runs a pass pipeline over the flat semantics graph of an
//! elaborated [`Design`] — constant folding through the four-valued
//! domain, chain/tree collapse of associative gates, structural hashing
//! (common-subexpression merging), copy propagation and dead-logic
//! sweeping — until a fixed point, then compacts the net numbering and
//! *verifies* the result against the original design before returning
//! it: exhaustive input enumeration on small combinational designs,
//! packed pseudo-random lockstep simulation elsewhere. A divergence is a
//! `Z999` internal error and no optimized netlist is emitted.
//!
//! The returned design carries `optimized = true`, which is folded into
//! [`zeus_elab::design_digest`]: an optimized design never shares a
//! digest with the elaboration it came from, so checkpoint journals of
//! optimized and unoptimized campaigns can never be spliced together.
//!
//! Designs containing RANDOM sources are returned unchanged (only
//! flagged): the simulator draws RANDOM values in topological node
//! order, so any structural rewrite would legally — but observably —
//! reshuffle the pseudo-random stream.
//!
//! ## Example
//!
//! ```
//! use zeus_syntax::parse_program;
//! use zeus_elab::elaborate;
//! use zeus_opt::{optimize, OptConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS
//!      SIGNAL x: boolean;
//!      BEGIN x := AND(a,b); s := OR(x, AND(a,b)) END;",
//! )?;
//! let design = elaborate(&program, "t", &[])?;
//! let out = optimize(&design, &OptConfig::default())?;
//! assert!(out.report.after.gates < out.report.before.gates);
//! assert!(out.design.optimized);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod passes;
mod verify;

pub use verify::Verification;

use std::collections::HashMap;
use zeus_elab::{Design, Limits, NetId, Netlist, NodeOp};
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

/// Upper bound on pipeline iterations (a safety net — the pipeline stops
/// at the first iteration that changes nothing).
const MAX_ITERATIONS: u32 = 32;

/// Tuning knobs for [`optimize`].
#[derive(Debug, Clone)]
pub struct OptConfig {
    /// Seed of the lockstep stimulus generator.
    pub seed: u64,
    /// Resource budget for the verification simulations.
    pub limits: Limits,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            seed: 0x5eed_2e05,
            limits: Limits::default(),
        }
    }
}

/// Rewrites applied by one pass across the whole pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name (stable, machine-readable).
    pub name: &'static str,
    /// Total rewrites the pass applied, summed over iterations.
    pub rewrites: usize,
}

/// Structural measurements of a design, as reported pre/post optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Semantics-graph nodes (gates, switches, registers, constants).
    pub gates: usize,
    /// Levelized combinational depth: the longest driver chain between
    /// sources (inputs, registers, constants) and sinks.
    pub depth: usize,
    /// Canonical nets — the alias-class representatives. This is the
    /// design's structural fault universe: `zeusc fault` plants faults
    /// per representative net.
    pub nets: usize,
}

/// Measures a design.
pub fn metrics(design: &Design) -> Metrics {
    let nl = &design.netlist;
    let order = nl.topo_order().unwrap_or_default();
    let drivers = nl.drivers_by_net();
    let mut level = vec![0usize; nl.node_count()];
    let mut depth = 0usize;
    for id in order {
        let node = &nl.nodes[id.index()];
        let mut l = 1usize;
        for inp in &node.inputs {
            for d in &drivers[inp.index()] {
                if !nl.nodes[d.index()].op.is_sequential() {
                    l = l.max(level[d.index()] + 1);
                }
            }
        }
        level[id.index()] = l;
        depth = depth.max(l);
    }
    Metrics {
        gates: nl.node_count(),
        depth,
        nets: nl.representatives().count(),
    }
}

/// What [`optimize`] did to a design.
#[derive(Debug, Clone)]
pub struct OptReport {
    /// Measurements of the input design.
    pub before: Metrics,
    /// Measurements of the optimized design.
    pub after: Metrics,
    /// Rewrites per pass, pipeline order.
    pub passes: Vec<PassStats>,
    /// Pipeline iterations until the fixed point.
    pub iterations: u32,
    /// True when the design contains RANDOM sources and was deliberately
    /// left untouched.
    pub skipped_random: bool,
    /// How the result was verified against the original.
    pub verification: Verification,
}

impl OptReport {
    /// Total rewrites across all passes.
    pub fn total_rewrites(&self) -> usize {
        self.passes.iter().map(|p| p.rewrites).sum()
    }
}

/// The result of [`optimize`]: the rewritten design and its report.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The verified optimized design (`optimized` flag set).
    pub design: Design,
    /// What happened.
    pub report: OptReport,
}

/// Runs the pass pipeline on `design` and verifies the result.
///
/// # Errors
///
/// * the equivalence gate found a divergence (`Z999` — the optimized
///   netlist is withheld),
/// * the verification simulations exhausted `cfg.limits` (`Z9xx`),
/// * `design` is not finished/elaborated.
pub fn optimize(design: &Design, cfg: &OptConfig) -> Result<Optimized, Diagnostic> {
    if !design.netlist.is_finished() {
        return Err(Diagnostic::error(
            Span::dummy(),
            "optimizer requires a finished (elaborated) netlist",
        ));
    }
    let before = metrics(design);

    if design.netlist.nodes.iter().any(|n| n.op == NodeOp::Random) {
        let mut out = design.clone();
        out.optimized = true;
        return Ok(Optimized {
            design: out,
            report: OptReport {
                before,
                after: before,
                passes: Vec::new(),
                iterations: 0,
                skipped_random: true,
                verification: Verification::Unchanged,
            },
        });
    }

    let mut rw = passes::Rewriter::new(design);
    let mut stats = [
        PassStats {
            name: "const-fold",
            rewrites: 0,
        },
        PassStats {
            name: "chain-collapse",
            rewrites: 0,
        },
        PassStats {
            name: "cse",
            rewrites: 0,
        },
        PassStats {
            name: "buf-elim",
            rewrites: 0,
        },
        PassStats {
            name: "dead-sweep",
            rewrites: 0,
        },
    ];
    let mut iterations = 0u32;
    while iterations < MAX_ITERATIONS {
        iterations += 1;
        let round = [
            passes::const_fold(&mut rw),
            passes::chain_collapse(&mut rw),
            passes::cse(&mut rw),
            passes::buf_elim(&mut rw),
            passes::dead_sweep(&mut rw),
        ];
        for (s, r) in stats.iter_mut().zip(round) {
            s.rewrites += r;
        }
        if round.iter().sum::<usize>() == 0 {
            break;
        }
    }

    let total: usize = stats.iter().map(|s| s.rewrites).sum();
    let out = rebuild(design, &rw)?;

    // The rebuild keeps every net exactly when nothing was rewritten and
    // nothing was compacted away; then the graphs are identical and no
    // check is needed.
    let verification = if total == 0
        && out.netlist.net_count() == design.netlist.net_count()
        && out.netlist.node_count() == design.netlist.node_count()
    {
        Verification::Unchanged
    } else {
        verify::verify_equivalent(design, &out, cfg)?
    };

    let after = metrics(&out);
    Ok(Optimized {
        design: out,
        report: OptReport {
            before,
            after,
            passes: stats.to_vec(),
            iterations,
            skipped_random: false,
            verification,
        },
    })
}

/// Rebuilds a compact, finished [`Design`] from the rewriter state:
/// surviving nodes keep their relative order; nets survive when an alive
/// node references them or they represent a port/CLK/RSET alias class;
/// the union-find becomes the identity (every alias class collapsed to
/// one net). The digest changes (net numbering, `optimized` flag), which
/// is exactly what keeps optimized checkpoints apart from unoptimized
/// ones.
fn rebuild(orig: &Design, rw: &passes::Rewriter) -> Result<Design, Diagnostic> {
    let nl = &orig.netlist;
    let mut keep = vec![false; nl.net_count()];
    for (i, node) in rw.nodes.iter().enumerate() {
        if !rw.alive[i] {
            continue;
        }
        for inp in &node.inputs {
            keep[inp.index()] = true;
        }
        keep[node.output.index()] = true;
    }
    for p in &orig.ports {
        for &n in &p.nets {
            keep[nl.find_ref(n).index()] = true;
        }
    }
    if let Some(c) = orig.clk {
        keep[nl.find_ref(c).index()] = true;
    }
    if let Some(r) = orig.rset {
        keep[nl.find_ref(r).index()] = true;
    }

    let mut remap: Vec<Option<NetId>> = vec![None; nl.net_count()];
    let mut nets = Vec::new();
    for i in 0..nl.net_count() {
        if keep[i] {
            remap[i] = Some(NetId(nets.len() as u32));
            nets.push(nl.nets[i].clone());
        }
    }
    let map = |n: NetId| -> NetId {
        remap[nl.find_ref(n).index()].expect("every referenced net class survives compaction")
    };

    let mut nodes = Vec::with_capacity(rw.alive_count());
    for (i, node) in rw.nodes.iter().enumerate() {
        if !rw.alive[i] {
            continue;
        }
        let mut node = node.clone();
        for inp in &mut node.inputs {
            *inp = map(*inp);
        }
        node.output = map(node.output);
        nodes.push(node);
    }

    let alias: Vec<u32> = (0..nets.len() as u32).collect();
    let netlist = Netlist::from_raw_parts(
        nets,
        nodes,
        nl.group_constraints.clone(),
        nl.group_parents.clone(),
        alias,
        true,
    );
    netlist.topo_order().map_err(|d| {
        Diagnostic::internal(
            Span::dummy(),
            format!("optimizer produced a cyclic netlist: {}", d.message),
        )
    })?;

    let mut ports = orig.ports.clone();
    for p in &mut ports {
        for n in &mut p.nets {
            *n = map(*n);
        }
    }
    let names: HashMap<String, NetId> = orig
        .names
        .iter()
        .filter_map(|(k, &v)| remap[nl.find_ref(v).index()].map(|n| (k.clone(), n)))
        .collect();

    Ok(Design {
        netlist,
        top_type: orig.top_type.clone(),
        ports,
        instances: orig.instances.clone(),
        warnings: orig.warnings.clone(),
        clk: orig.clk.map(map),
        rset: orig.rset.map(map),
        names,
        optimized: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    fn opt(src: &str, top: &str) -> Optimized {
        optimize(&design(src, top), &OptConfig::default()).unwrap()
    }

    #[test]
    fn cse_merges_duplicate_gates() {
        let out = opt(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
             SIGNAL x,y: boolean; \
             BEGIN x := AND(a,b); y := AND(a,b); s := OR(x,y) END;",
            "t",
        );
        assert!(out.report.after.gates < out.report.before.gates);
        // Two boolean input bits: the check simulates 2^2 vectors.
        assert_eq!(
            out.report.verification,
            Verification::Exhaustive { vectors: 4 }
        );
    }

    #[test]
    fn chain_collapse_cuts_depth() {
        // OR(OR(OR(a,b),c),d): depth 3 -> one 4-ary OR, depth 1.
        let out = opt(
            "TYPE t = COMPONENT (IN a,b,c,d: boolean; OUT s: boolean) IS \
             BEGIN s := OR(OR(OR(a,b),c),d) END;",
            "t",
        );
        assert_eq!(out.report.after.depth, 1, "{:?}", out.report);
        assert_eq!(out.report.after.gates, 1, "{:?}", out.report);
    }

    #[test]
    fn const_fold_through_the_cone() {
        // b := AND(a, 0) is constant 0; s := OR(b, c) becomes Buf-free OR(c)
        // and the whole cone folds away from the gate count.
        let out = opt(
            "TYPE t = COMPONENT (IN a,c: boolean; OUT s: boolean) IS \
             SIGNAL b: boolean; \
             BEGIN b := AND(a, 0); s := OR(b, c) END;",
            "t",
        );
        assert!(out.report.total_rewrites() > 0, "{:?}", out.report);
        assert!(out.report.after.gates < out.report.before.gates);
    }

    #[test]
    fn registers_survive_and_lockstep_verifies() {
        let out = opt(
            "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
             SIGNAL r: REG; SIGNAL x,y: boolean; \
             BEGIN x := AND(a,a); y := AND(a,a); r(OR(x,y), s) END;",
            "t",
        );
        assert!(matches!(
            out.report.verification,
            Verification::Lockstep { .. }
        ));
        assert_eq!(
            out.design.netlist.registers().count(),
            1,
            "the observable register must survive"
        );
    }

    #[test]
    fn optimized_design_has_a_distinct_digest() {
        let d = design(
            "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
             BEGIN s := AND(a,b) END;",
            "t",
        );
        let out = optimize(&d, &OptConfig::default()).unwrap();
        assert!(out.design.optimized);
        assert_ne!(
            zeus_elab::design_digest(&d),
            zeus_elab::design_digest(&out.design),
            "optimized and unoptimized digests must never collide"
        );
    }

    #[test]
    fn pipeline_is_idempotent() {
        let out = opt(
            "TYPE t = COMPONENT (IN a,b,c,d: boolean; OUT s: boolean) IS \
             SIGNAL x,y: boolean; \
             BEGIN x := AND(a,b); y := AND(a,b); \
             s := OR(OR(OR(x,y),c),d) END;",
            "t",
        );
        let again = optimize(&out.design, &OptConfig::default()).unwrap();
        assert_eq!(again.report.total_rewrites(), 0, "{:?}", again.report);
        assert_eq!(again.report.verification, Verification::Unchanged);
        assert_eq!(
            zeus_netlist::netlist_to_text(&out.design),
            zeus_netlist::netlist_to_text(&again.design),
            "a second run must be byte-identical"
        );
    }

    #[test]
    fn random_designs_are_left_alone() {
        let out = opt(
            "TYPE t = COMPONENT (OUT s: boolean) IS \
             BEGIN s := RANDOM() END;",
            "t",
        );
        assert!(out.report.skipped_random);
        assert_eq!(out.report.total_rewrites(), 0);
        assert!(out.design.optimized, "still flagged for digest separation");
    }
}
