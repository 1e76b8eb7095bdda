//! SAT phase glue: budget-sliced detectability checks, model decoding
//! into per-port vectors, in-context replay for the sequential
//! time-frame path, and the DIMACS audit trail.
//!
//! The heavy lifting (CNF encoding, CDCL search) lives in `zeus-sat`;
//! this module adapts it to ATPG's contracts: every SAT model is
//! replay-verified on the scalar simulator before a vector enters the
//! set, every redundancy verdict can be exported as a DIMACS file for
//! external audit, and every solve runs under a per-fault slice of the
//! campaign budget so one hard fault cannot starve the rest.

use std::path::Path;
use std::time::{Duration, Instant};

use zeus_elab::{Design, Fault, Governor, Limits};
use zeus_sat::{
    decode_model, encode_detection, encode_lockstep, EncodeOptions, SatOutcome, Solver,
};
use zeus_sema::Value;
use zeus_sim::{Simulator, VectorSet, VectorStream};
use zeus_syntax::diag::{codes, Diagnostic};
use zeus_syntax::span::Span;

use crate::AtpgConfig;

/// Outcome of one SAT detectability check.
pub(crate) enum SatAnswer {
    /// Satisfiable: decoded input vectors, one `Vec<Vec<Value>>`
    /// (per-port bit groups) per frame. Not yet simulator-verified.
    Vectors(Vec<Vec<Vec<Value>>>),
    /// Proved undetectable within the encoded frames; carries the
    /// DIMACS text of the formula for the audit trail.
    Undetectable(String),
    /// Budget (conflicts, fuel, deadline) ran out first.
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
        SatOutcome::Unsat => {
            let comments = vec![
                format!("zeus-sat fault-detection formula (UNSAT = undetectable)"),
                format!("top: {}", design.top_type),
                format!(
                    "site: {} ({})",
                    crate::report::site_label(design, fault),
                    fault.kind
                ),
                format!("frames: {frames}"),
            ];
            SatAnswer::Undetectable(det.cnf.to_dimacs(&comments))
        }
        SatOutcome::Sat(model) => {
            let widths: Vec<usize> = design.inputs().map(|p| p.width()).collect();
            let frames = decode_model(&det, &model)
                .into_iter()
                .map(|flat| {
                    let mut grouped = Vec::with_capacity(widths.len());
                    let mut k = 0;
                    for &w in &widths {
                        grouped.push(flat[k..k + w].to_vec());
                        k += w;
                    }
                    grouped
                })
                .collect();
            SatAnswer::Vectors(frames)
        }
    }
}

/// Attempts the single-frame lockstep equivalence proof: UNSAT means
/// the faulty frame function equals the good one on every register
/// state and every input (reset cycles included), so the fault is
/// sequentially redundant outright — not merely unseen within a
/// bounded window. Returns the DIMACS audit text on success; `None`
/// when the formula is satisfiable (the distinguishing state may be
/// unreachable, so that is *inconclusive*, never a detection) or the
/// budget ran out.
pub(crate) fn check_lockstep(
    design: &Design,
    fault: Fault,
    cfg: &AtpgConfig,
    gov: &mut Governor,
) -> Option<String> {
    let cnf = encode_lockstep(design, fault, gov).ok()?;
    match Solver::from_cnf(&cnf).solve(cfg.sat_conflicts, gov) {
        SatOutcome::Unsat => {
            let comments = vec![
                "zeus-sat lockstep-equivalence formula (UNSAT = sequentially redundant)"
                    .to_string(),
                format!("top: {}", design.top_type),
                format!(
                    "site: {} ({})",
                    crate::report::site_label(design, fault),
                    fault.kind
                ),
                "frames: 1 (shared symbolic state, free RSET)".to_string(),
            ];
            Some(cnf.to_dimacs(&comments))
        }
        SatOutcome::Sat(_) | SatOutcome::Unknown => None,
    }
}

/// Writes one DIMACS audit file; `seq` numbers the claims in report
/// order.
pub(crate) fn write_cnf(dir: &Path, seq: usize, dimacs: &str) -> Result<(), Diagnostic> {
    let err = |e: std::io::Error, what: &str| {
        Diagnostic::error(Span::dummy(), format!("cannot write CNF audit {what}: {e}"))
            .with_code(codes::USAGE)
    };
    std::fs::create_dir_all(dir).map_err(|e| err(e, &dir.display().to_string()))?;
    let path = dir.join(format!("redundant-{seq:03}.cnf"));
    std::fs::write(&path, dimacs).map_err(|e| err(e, &path.display().to_string()))
}

/// Applies one per-port assignment to both simulators.
fn drive_both(
    golden: &mut Simulator,
    faulty: &mut Simulator,
    assignment: &[(String, Vec<Value>)],
) -> Result<(), Diagnostic> {
    for (name, bits) in assignment {
        golden.set_port(name, bits)?;
        faulty.set_port(name, bits)?;
    }
    Ok(())
}

/// True when any OUT port's boolean view differs — exactly the
/// campaign's `run_differential` comparison.
pub(crate) fn diverged(design: &Design, golden: &Simulator, faulty: &Simulator) -> bool {
    design
        .outputs()
        .any(|p| golden.port(&p.name) != faulty.port(&p.name))
}

/// Replays the current vector set against a fresh golden/faulty pair,
/// mirroring `run_one_graph` (reset pulse, then the set in order).
///
/// Returns `None` when the set already detects the fault in context
/// (the re-grade will classify it without SAT help), otherwise the two
/// simulators positioned right after the last vector — their register
/// states seed the time-frame unroll, and decoded frames are verified
/// by stepping these same simulators forward.
pub(crate) fn replay_context(
    design: &Design,
    fault: Fault,
    set: &VectorSet,
    seed: u64,
    limits: &Limits,
) -> Result<Option<(Simulator, Simulator)>, Diagnostic> {
    // Steps are bounded by construction (set length + unroll), and fuel
    // and wall clock are billed to the shared ATPG governor by the
    // caller, so the simulators themselves run unbudgeted.
    let mut l = limits.clone();
    l.fuel = None;
    l.deadline = None;
    l.max_steps = None;
    let mut golden = Simulator::with_limits(design.clone(), &l)?;
    let mut faulty = Simulator::with_limits(design.clone(), &l)?;
    faulty.inject(fault)?;
    golden.reseed(seed);
    faulty.reseed(seed);
    let mut stream = VectorStream::replay(set);
    if design.rset.is_some() {
        golden.set_rset(true);
        faulty.set_rset(true);
        for (name, bits) in stream.zero_vector() {
            golden.set_port(&name, &bits)?;
            faulty.set_port(&name, &bits)?;
        }
        golden.step();
        faulty.step();
        golden.set_rset(false);
        faulty.set_rset(false);
    }
    for _ in 0..set.len() {
        let assignment = stream.next_vector();
        drive_both(&mut golden, &mut faulty, &assignment)?;
        golden.step();
        faulty.step();
        if diverged(design, &golden, &faulty) {
            return Ok(None);
        }
    }
    Ok(Some((golden, faulty)))
}

/// Steps the positioned pair through decoded frames; returns the index
/// of the first diverging frame, if any.
pub(crate) fn verify_frames(
    design: &Design,
    golden: &mut Simulator,
    faulty: &mut Simulator,
    frames: &[Vec<Vec<Value>>],
) -> Result<Option<usize>, Diagnostic> {
    let names: Vec<String> = design.inputs().map(|p| p.name.clone()).collect();
    for (j, frame) in frames.iter().enumerate() {
        let assignment: Vec<(String, Vec<Value>)> =
            names.iter().cloned().zip(frame.iter().cloned()).collect();
        drive_both(golden, faulty, &assignment)?;
        golden.step();
        faulty.step();
        if diverged(design, golden, faulty) {
            return Ok(Some(j));
        }
    }
    Ok(None)
}

/// Verifies a single combinational vector on a fresh pair.
pub(crate) fn verify_single(
    design: &Design,
    fault: Fault,
    vector: &[Vec<Value>],
) -> Result<bool, Diagnostic> {
    let mut golden = Simulator::new(design.clone())?;
    let mut faulty = Simulator::new(design.clone())?;
    faulty.inject(fault)?;
    let names: Vec<String> = design.inputs().map(|p| p.name.clone()).collect();
    let assignment: Vec<(String, Vec<Value>)> =
        names.into_iter().zip(vector.iter().cloned()).collect();
    drive_both(&mut golden, &mut faulty, &assignment)?;
    golden.step();
    faulty.step();
    Ok(diverged(design, &golden, &faulty))
}

/// Allocates per-fault budget slices out of the overall campaign
/// deadline, so a single hard fault cannot consume the whole
/// `--campaign-timeout`: each fault's governor gets the remaining wall
/// budget divided by the number of faults still pending (later faults
/// inherit any unused share), plus the shared governor's remaining
/// fuel. Spent fuel is settled back to the shared governor afterwards.
pub(crate) struct Budgeter {
    start: Instant,
    /// min(limits.deadline, campaign_deadline); `None` disables slicing
    /// and every solve runs on the shared governor.
    overall: Option<Duration>,
    base: Limits,
}

impl Budgeter {
    pub(crate) fn new(cfg: &AtpgConfig) -> Budgeter {
        let overall = match (cfg.limits.deadline, cfg.campaign_deadline) {
            // Slicing only engages with an explicit campaign deadline;
            // a bare limits.deadline keeps the legacy shared-governor
            // behaviour.
            (Some(l), Some(c)) => Some(l.min(c)),
            (None, Some(c)) => Some(c),
            _ => None,
        };
        Budgeter {
            start: Instant::now(),
            overall,
            base: cfg.limits.clone(),
        }
    }

    /// Wall budget left for the whole run.
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.overall.map(|o| o.saturating_sub(self.start.elapsed()))
    }

    /// Runs one fault's search. Under a campaign deadline it gets its
    /// own governor with a fair slice (1/`pending`) of the remaining
    /// wall budget and the shared governor's leftover fuel, so one hard
    /// fault aborts alone instead of starving the rest; the fuel it
    /// burns is billed back to `shared`. Without a deadline the search
    /// runs on `shared` directly.
    pub(crate) fn solve<T>(
        &self,
        shared: &mut Governor,
        pending: usize,
        search: impl FnOnce(&mut Governor) -> T,
    ) -> T {
        if self.overall.is_none() {
            return search(shared);
        }
        let mut l = self.base.clone();
        l.fuel = shared.fuel_left();
        l.deadline = self.remaining().map(|rem| rem / pending.max(1) as u32);
        let mut fault_gov = l.governor();
        let out = search(&mut fault_gov);
        if let (Some(before), Some(after)) = (shared.fuel_left(), fault_gov.fuel_left()) {
            let _ = shared.charge(before.saturating_sub(after), Span::dummy());
        }
        out
    }
}
