//! SAT phase glue: detectability checks, model decoding into per-port
//! vectors, in-context replay for the sequential time-frame path, and
//! the DIMACS audit texts.
//!
//! The heavy lifting (CNF encoding, CDCL search) lives in `zeus-sat`;
//! this module adapts it to ATPG's contracts: every SAT model is
//! replay-verified on the scalar simulator (through [`run_differential`])
//! before a vector enters the set, and every redundancy verdict can be
//! rendered as DIMACS text for external audit.

use zeus_elab::{Design, Fault, Governor};
use zeus_sat::{
    decode_model, encode_detection, sample_model, Cnf, EncodeOptions, Lockstep, SatOutcome, Solver,
};
use zeus_sema::Value;
use zeus_sim::{run_differential, Simulator, VectorSet, VectorStream};
use zeus_syntax::diag::Diagnostic;

use crate::AtpgConfig;

/// The DIMACS text of an UNSAT formula, rendered only when
/// [`AtpgConfig::emit_cnf`] asks for the audit trail.
pub(crate) type Audit = Option<String>;

/// Renders the audit text of `cnf` (or nothing, unless asked for),
/// headed by comment lines naming the formula, the design and the fault.
fn audit(
    cfg: &AtpgConfig,
    cnf: impl FnOnce() -> Cnf,
    design: &Design,
    fault: Fault,
    formula: &str,
    frames: &str,
) -> Audit {
    cfg.emit_cnf.then(|| {
        cnf().to_dimacs(&[
            formula.to_string(),
            format!("top: {}", design.top_type),
            format!(
                "site: {} ({})",
                crate::report::site_label(design, fault),
                fault.kind
            ),
            format!("frames: {frames}"),
        ])
    })
}

/// Outcome of one SAT detectability check.
pub(crate) enum SatAnswer {
    /// Satisfiable: the decoded input vectors, one per frame. Not yet
    /// simulator-verified.
    Vectors(VectorSet),
    /// Proved undetectable within the encoded frames.
    Undetectable(Audit),
    /// The conflict or fuel budget ran out first (or the deadline cut
    /// the search, and the caller drops the answer).
    Unknown,
}

/// SAT-checks whether `fault` is detectable within `frames` vectors,
/// starting from the given register states (`None` = power-on UNDEF).
pub(crate) fn check(
    design: &Design,
    fault: Fault,
    frames: u32,
    init_good: Option<Vec<Value>>,
    init_faulty: Option<Vec<Value>>,
    cfg: &AtpgConfig,
    gov: &mut Governor,
) -> SatAnswer {
    let opts = EncodeOptions {
        frames,
        init_good,
        init_faulty,
    };
    let det = match encode_detection(design, fault, &opts, gov) {
        Ok(det) => det,
        Err(_) => return SatAnswer::Unknown,
    };
    let mut solver = Solver::from_cnf(&det.cnf);
    match solver.solve(cfg.sat_conflicts, gov) {
        SatOutcome::Unknown => SatAnswer::Unknown,
        SatOutcome::Unsat => SatAnswer::Undetectable(audit(
            cfg,
            || det.cnf,
            design,
            fault,
            "zeus-sat fault-detection formula (UNSAT = undetectable)",
            &frames.to_string(),
        )),
        SatOutcome::Sat(model) => {
            let mut frames = VectorSet::new(design, cfg.seed);
            for flat in decode_model(&det, &model) {
                let mut rest = &flat[..];
                let grouped = design.inputs().map(|p| {
                    let (bits, tail) = rest.split_at(p.width());
                    rest = tail;
                    bits.to_vec()
                });
                frames.push(grouped.collect());
            }
            SatAnswer::Vectors(frames)
        }
    }
}

/// Attempts the single-frame lockstep equivalence proof: UNSAT means
/// the faulty frame function equals the good one on every register
/// state and every input (reset cycles included), so the fault is
/// sequentially redundant outright — not merely unseen within a
/// bounded window. Returns the proof's audit on success; `None` when
/// the formula is satisfiable (the distinguishing state may be
/// unreachable, so that is *inconclusive*, never a detection) or the
/// budget ran out. `shared` holds the design's good frame, encoded
/// once for all its faults. Only the formula's cone is searched, and
/// only when random states and inputs ([`sample_model`]) find no model
/// of it, which would settle it as a search does; the audit is the
/// whole formula.
pub(crate) fn check_lockstep(
    shared: &Lockstep,
    design: &Design,
    fault: Fault,
    cfg: &AtpgConfig,
    gov: &mut Governor,
) -> Option<Audit> {
    let formula = shared.encode(fault, gov).ok()?;
    let cone = formula.cone();
    if sample_model(&cone).is_some() {
        return None; // satisfiable: inconclusive
    }
    match Solver::from_cnf(&cone).solve(cfg.sat_conflicts, gov) {
        SatOutcome::Unsat => Some(audit(
            cfg,
            || formula.to_cnf(),
            design,
            fault,
            "zeus-sat lockstep-equivalence formula (UNSAT = sequentially redundant)",
            "1 (shared symbolic state, free RSET)",
        )),
        SatOutcome::Sat(_) | SatOutcome::Unknown => None,
    }
}

/// Replays `set` on a fresh golden/faulty pair as a campaign's
/// `run_one_graph` does: a reset pulse when the design has RSET, then the
/// set in order. Returns `None` when the set already detects the fault,
/// otherwise the pair positioned after the last vector — their register
/// states seed the time-frame unroll, and decoded frames are verified by
/// replaying them on the same pair ([`first_divergence`]).
pub(crate) fn replay_context(
    design: &Design,
    fault: Fault,
    set: &VectorSet,
    seed: u64,
) -> Result<Option<(Simulator, Simulator)>, Diagnostic> {
    // Steps are bounded by construction (set length + unroll), and fuel
    // and wall clock are billed to the shared ATPG governor by the
    // caller, so the simulators themselves run unbudgeted.
    let mut golden = Simulator::new(design.clone())?;
    let mut faulty = Simulator::new(design.clone())?;
    faulty.inject(fault)?;
    golden.reseed(seed);
    faulty.reseed(seed);
    if design.rset.is_some() {
        golden.set_rset(true);
        faulty.set_rset(true);
        for (name, width) in set.ports() {
            let zeros = vec![Value::Zero; *width];
            golden.set_port(name, &zeros)?;
            faulty.set_port(name, &zeros)?;
        }
        golden.try_step()?;
        faulty.try_step()?;
        golden.set_rset(false);
        faulty.set_rset(false);
    }
    Ok(first_divergence(&mut golden, &mut faulty, set)?
        .is_none()
        .then_some((golden, faulty)))
}

/// Steps the pair through `set`; returns the index of the first vector
/// whose outputs diverge, if any.
pub(crate) fn first_divergence(
    golden: &mut Simulator,
    faulty: &mut Simulator,
    set: &VectorSet,
) -> Result<Option<usize>, Diagnostic> {
    let mut stream = VectorStream::replay(set);
    Ok(run_differential(golden, faulty, &mut stream, set.len() as u32)?.map(|d| d.cycle as usize))
}
