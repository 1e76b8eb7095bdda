//! zeus-atpg: deterministic automatic test-pattern generation.
//!
//! Produces a *compact* vector set covering a design's collapsed
//! stuck-at fault universe (optionally bridges/transients for
//! sequential designs), in three phases:
//!
//! 1. **Packed random harvest** ([`harvest`]): 64 candidate vectors at
//!    a time through the bit-parallel [`PackedSim`], keeping only
//!    candidates that are first to detect some fault.
//! 2. **PODEM structural search** ([`podem`]): for each fault random
//!    vectors missed, a deterministic objective → backtrace → imply
//!    search over the four-valued domain; faults whose search space is
//!    exhausted are proven **redundant** (untestable), budget
//!    exhaustion leaves a fault **aborted**.
//! 3. **Reverse-order compaction** ([`compact`]): drops vectors whose
//!    detections are covered by later vectors, by exact fault
//!    simulation.
//!
//! The structural phases only run for **combinational** designs (no
//! registers, no RANDOM nodes, no RSET, stuck-at faults only). A
//! sequential design takes the **sequence** path: a packed random
//! fault campaign, with the emitted set truncated to the shortest
//! stream prefix that preserves every detection.
//!
//! With [`AtpgConfig::sat`] a fourth engine joins in, the in-tree CDCL
//! solver of `zeus-sat`: every PODEM redundancy verdict is confirmed
//! UNSAT before it is reported, SAT models for aborted faults are
//! decoded into vectors (and simulator-verified) instead of giving up,
//! and sequential faults the random prefix missed get **time-frame
//! expanded** targeted sequences — each is first tried against a
//! single-frame **lockstep equivalence** proof (shared symbolic
//! register state, free RSET; UNSAT promotes the fault to redundant
//! outright), then the circuit's concrete register state is captured
//! mid-replay and the fault is solved over 1, 2, 4,
//! … unrolled frames up to [`AtpgConfig::max_frames`]. Every SAT
//! answer that adds vectors is replayed on the scalar fault simulator
//! first; an answer that fails replay is discarded, so SAT can widen
//! coverage but never corrupt a report.
//!
//! The emitted set is finally **re-graded** by a full (packed) fault
//! campaign replaying it — the claimed coverage *is* that campaign's
//! report, so `zeusc fault --vectors-file` on the emitted file
//! reproduces the grade byte for byte.
//!
//! Determinism: same design digest + seed + limits ⇒ identical vector
//! set, identical text report, identical JSON. All randomness flows
//! from the one seed through [`VectorStream`]; all iteration orders
//! are the collapsed fault list's sorted order.
//!
//! [`PackedSim`]: zeus_sim::PackedSim
//! [`VectorStream`]: zeus_sim::VectorStream

mod compact;
mod harvest;
mod podem;
mod report;
mod sat;

pub use report::{AtpgReport, AtpgStats, SatStats};

use std::sync::atomic::{AtomicBool, Ordering};

use zeus_elab::{Design, Fault, Limits, NodeOp};
use zeus_fault::{
    enumerate_faults, run_campaign_packed, CampaignConfig, Engine, FaultKind, FaultListOptions,
    Outcome,
};
use zeus_sema::Value;
use zeus_sim::{VectorSet, VectorStream};
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

use podem::{Podem, PodemOutcome};

/// How [`run_atpg`] handled the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No state, no randomness, stuck-at universe: full harvest →
    /// PODEM → compaction pipeline with sound redundancy proofs.
    Combinational,
    /// Registers, RANDOM nodes, an RSET net, or non-stuck-at faults:
    /// random harvest via a packed campaign, emitted set truncated to
    /// the detection-preserving stream prefix.
    Sequence,
}

impl Mode {
    /// Stable lowercase tag used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Combinational => "combinational",
            Mode::Sequence => "sequence",
        }
    }
}

/// Which vector-construction strategy produced the emitted set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Combinational pipeline: harvest + PODEM (+ SAT confirm/rescue
    /// when enabled).
    Podem,
    /// Sequential fallback: the detection-preserving random stream
    /// prefix only.
    Prefix,
    /// Sequential with [`AtpgConfig::sat`]: the random prefix plus
    /// SAT time-frame-expanded targeted sequences.
    Timeframe,
}

impl Strategy {
    /// Stable lowercase tag used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Podem => "podem",
            Strategy::Prefix => "prefix",
            Strategy::Timeframe => "timeframe",
        }
    }
}

/// Knobs for one ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgConfig {
    /// Seed for the candidate vector stream (and RANDOM nodes during
    /// grading).
    pub seed: u64,
    /// Stop harvesting once this fraction of the collapsed universe is
    /// detected, in [0, 1]. PODEM also stops once the target is met.
    pub coverage_target: f64,
    /// Hard cap on emitted vectors (pre-compaction for the structural
    /// path, stream-prefix length for the sequence path).
    pub max_vectors: usize,
    /// PODEM decision-flip budget per fault; beyond it the fault is
    /// classified aborted.
    pub backtrack_limit: u64,
    /// Fuel/deadline budget for the whole generation run (grading runs
    /// under its own per-fault budget, like any campaign).
    pub limits: Limits,
    /// Which fault universe to target.
    pub fault_opts: FaultListOptions,
    /// Cooperative cancellation (Ctrl-C, daemon drain): polled between
    /// harvest rounds and PODEM faults. When it goes high, generation
    /// stops after the current fault, the vectors found so far are
    /// still graded, and the report is marked
    /// [`partial`](AtpgReport::partial).
    pub cancel: Option<&'static AtomicBool>,
    /// Enable the SAT engine: confirm every PODEM redundancy verdict
    /// UNSAT, decode models for aborted faults into (verified)
    /// vectors, and time-frame-expand sequential faults the random
    /// prefix missed.
    pub sat: bool,
    /// CDCL conflict budget per SAT solve; past it the solve returns
    /// unknown and the fault stays aborted. 0 means unlimited (bounded
    /// only by fuel/deadline).
    pub sat_conflicts: u64,
    /// Largest time-frame unroll for one sequential fault; the
    /// schedule is geometric (1, 2, 4, … up to this).
    pub max_frames: u32,
    /// Directory receiving one DIMACS file per SAT-confirmed
    /// redundancy claim, an externally checkable audit trail.
    pub emit_cnf: Option<std::path::PathBuf>,
    /// Wall-clock budget for the whole run, generation and grading
    /// combined. Each pending fault gets a fair slice of what is left,
    /// so a single hard fault cannot consume the whole budget; on
    /// expiry the run finishes with a partial report, never an error.
    pub campaign_deadline: Option<std::time::Duration>,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            seed: 1,
            coverage_target: 1.0,
            max_vectors: 256,
            backtrack_limit: 256,
            limits: Limits::default(),
            fault_opts: FaultListOptions::default(),
            cancel: None,
            sat: false,
            sat_conflicts: 20_000,
            max_frames: 8,
            emit_cnf: None,
            campaign_deadline: None,
        }
    }
}

/// True once the config's cancellation flag has been raised.
pub(crate) fn is_cancelled(cfg: &AtpgConfig) -> bool {
    cfg.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
}

/// Runs ATPG and returns the graded report.
///
/// # Errors
///
/// Propagates elaboration-level diagnostics (combinational loops),
/// simulator construction/stepping failures, and grading errors.
/// Fuel/backtrack exhaustion inside the generation phases is *not* an
/// error: affected faults are reported aborted and the run completes.
pub fn run_atpg(design: &Design, cfg: &AtpgConfig) -> Result<AtpgReport, Diagnostic> {
    let list = enumerate_faults(design, &cfg.fault_opts);
    let mode = detect_mode(design, &list);
    let mut stats = AtpgStats::default();
    // `(fault-list index, site, fault)` triples: the index restores
    // fault-list order after the SAT pass reshuffles the lists.
    let mut redundant: Vec<(usize, String, Fault)> = Vec::new();
    let mut aborted: Vec<(usize, String, Fault)> = Vec::new();
    let mut gov = cfg.limits.governor();
    let mut partial = false;
    let budget = sat::Budgeter::new(cfg);
    let mut sat_stats = cfg.sat.then(SatStats::default);
    let mut strategy = match mode {
        Mode::Combinational => Strategy::Podem,
        Mode::Sequence => Strategy::Prefix,
    };
    let mut cnf_seq = 0usize;

    let set = match mode {
        Mode::Combinational => {
            let mut set = VectorSet::new(design, cfg.seed);
            let mut detected = vec![false; list.faults.len()];
            let h = harvest::packed_harvest(design, &list, cfg, &mut set, &mut detected, &mut gov)?;
            stats.absorb(h, set.len());
            partial |= is_cancelled(cfg);

            // PODEM over what the harvest missed, in fault-list order.
            let mut podem = Podem::new(design)?;
            let total = list.faults.len();
            let mut ndet = detected.iter().filter(|&&d| d).count();
            for (fi, &fault) in list.faults.iter().enumerate() {
                if is_cancelled(cfg) {
                    partial = true;
                    break;
                }
                if budget.remaining().is_some_and(|r| r.is_zero()) {
                    partial = true;
                    break;
                }
                if detected[fi] {
                    continue;
                }
                if (ndet as f64) >= cfg.coverage_target * total as f64 {
                    break;
                }
                if set.len() >= cfg.max_vectors {
                    stats.podem_skipped += 1;
                    continue;
                }
                stats.podem_attempts += 1;
                let outcome = budget.solve(&mut gov, total - fi, |g| {
                    podem.generate(fault, cfg.backtrack_limit, g)
                });
                match outcome {
                    PodemOutcome::Test(bits) => {
                        set.push(bits);
                        detected[fi] = true;
                        ndet += 1;
                        stats.podem_vectors += 1;
                        stats.podem_detected += 1;
                    }
                    PodemOutcome::Redundant => {
                        redundant.push((fi, report::site_label(design, fault), fault));
                    }
                    PodemOutcome::Aborted => {
                        aborted.push((fi, report::site_label(design, fault), fault));
                    }
                }
            }

            // SAT pass: every redundancy claim must survive an UNSAT
            // proof, and aborted faults get one more chance as a SAT
            // model decoded into a (simulator-verified) vector.
            if cfg.sat && !partial {
                let ss = sat_stats.as_mut().expect("sat stats exist when sat is on");
                let mut claims: Vec<(bool, usize, String, Fault)> = Vec::new();
                for (fi, name, fault) in redundant.drain(..) {
                    claims.push((true, fi, name, fault));
                }
                for (fi, name, fault) in aborted.drain(..) {
                    claims.push((false, fi, name, fault));
                }
                claims.sort_by_key(|c| c.1);
                let mut pending = claims.len();
                for (was_redundant, fi, name, fault) in claims {
                    if is_cancelled(cfg) || budget.remaining().is_some_and(|r| r.is_zero()) {
                        partial = true;
                        // Out of time: the rest keep their PODEM
                        // classification, unconfirmed.
                        if was_redundant {
                            redundant.push((fi, name, fault));
                        } else {
                            aborted.push((fi, name, fault));
                        }
                        continue;
                    }
                    ss.solves += 1;
                    let answer = budget.solve(&mut gov, pending, |g| {
                        sat::check(design, fault, 1, None, None, cfg, g)
                    });
                    pending -= 1;
                    match answer {
                        sat::SatAnswer::Undetectable(dimacs) => {
                            if was_redundant {
                                ss.confirmed_redundant += 1;
                            } else {
                                ss.promoted_redundant += 1;
                            }
                            if let Some(dir) = &cfg.emit_cnf {
                                sat::write_cnf(dir, cnf_seq, &dimacs)?;
                                cnf_seq += 1;
                                ss.cnf_files += 1;
                            }
                            redundant.push((fi, name, fault));
                        }
                        sat::SatAnswer::Vectors(frames) => {
                            let vector = &frames[0];
                            if set.len() < cfg.max_vectors
                                && sat::verify_single(design, fault, vector)?
                            {
                                set.push(vector.clone());
                                ss.rescued += 1;
                                ss.vectors += 1;
                            } else {
                                // Vector budget full, or the model
                                // failed replay: no claim either way.
                                aborted.push((fi, name, fault));
                            }
                        }
                        sat::SatAnswer::Unknown => {
                            ss.unknown += 1;
                            aborted.push((fi, name, fault));
                        }
                    }
                }
                redundant.sort_by_key(|c| c.0);
                aborted.sort_by_key(|c| c.0);
            }

            if partial {
                // Interrupted: emit the uncompacted vectors found so
                // far rather than spend more wall clock minimizing
                // them.
                stats.pre_compaction = set.len();
            } else {
                let pre = set.len();
                let c = compact::reverse_compact(design, &list, &mut set, &mut gov)?;
                stats.absorb_compaction(pre, c);
            }
            set
        }
        Mode::Sequence => {
            // The harvest campaign counts vectors in a u32; a larger cap
            // saturates rather than wrapping.
            let rounds = u32::try_from(cfg.max_vectors).unwrap_or(u32::MAX);
            let mut hcfg = CampaignConfig::new(Engine::Graph, rounds, cfg.seed);
            hcfg.limits = cfg.limits.clone();
            hcfg.cancel = cfg.cancel;
            let campaign = run_campaign_packed(design, &list, &hcfg, 1)?;
            partial |= campaign.partial.is_some();
            // The shortest stream prefix preserving every detection:
            // replaying it reproduces each fault's first divergence.
            let prefix = campaign
                .results
                .iter()
                .filter_map(|r| match r.outcome {
                    Outcome::Detected { cycle, .. } => Some(cycle as usize + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let mut set = VectorSet::new(design, cfg.seed);
            let mut stream = VectorStream::new(design, cfg.seed);
            for _ in 0..prefix {
                set.push_assignment(&stream.next_vector());
            }
            stats.harvest_rounds = u64::from(rounds);
            stats.harvest_vectors = set.len();
            stats.harvest_detected = campaign.detected();

            // Time-frame expansion: each stuck-at fault the random
            // prefix missed gets a targeted sequence. The current set
            // is replayed in context (fresh golden/faulty pair, reset
            // pulse, vectors in order), the concrete register states
            // seed a k-frame unroll (k = 1, 2, 4, … ≤ max_frames), and
            // any SAT model is verified by stepping those same
            // simulators forward before its frames join the set.
            // RANDOM nodes have no CNF image, so such designs keep the
            // plain prefix.
            let has_random = design
                .netlist
                .nodes
                .iter()
                .any(|n| matches!(n.op, NodeOp::Random));
            if cfg.sat && !partial && !has_random {
                strategy = Strategy::Timeframe;
                let ss = sat_stats.as_mut().expect("sat stats exist when sat is on");
                let order = design.netlist.nodes.len() as u64 + 1;
                let mut pending = campaign
                    .results
                    .iter()
                    .filter(|r| !matches!(r.outcome, Outcome::Detected { .. }))
                    .count();
                for (fi, r) in campaign.results.iter().enumerate() {
                    if is_cancelled(cfg) || budget.remaining().is_some_and(|d| d.is_zero()) {
                        partial = true;
                        break;
                    }
                    if matches!(r.outcome, Outcome::Detected { .. }) {
                        continue;
                    }
                    let share = pending;
                    pending = pending.saturating_sub(1);
                    let fault = r.fault;
                    if !matches!(fault.kind, FaultKind::StuckAt0 | FaultKind::StuckAt1) {
                        continue;
                    }
                    // A cheap single-frame lockstep proof first: UNSAT
                    // over a fully symbolic shared register state (RSET
                    // free) means the faulty frame function equals the
                    // good one everywhere, so no sequence of any length
                    // can observe the fault — promote it to redundant
                    // and skip the unroll entirely.
                    ss.solves += 1;
                    let locked = budget.solve(&mut gov, share, |g| {
                        sat::check_lockstep(design, fault, cfg, g)
                    });
                    if let Some(dimacs) = locked {
                        if let Some(dir) = &cfg.emit_cnf {
                            sat::write_cnf(dir, cnf_seq, &dimacs)?;
                            cnf_seq += 1;
                            ss.cnf_files += 1;
                        }
                        ss.promoted_redundant += 1;
                        redundant.push((fi, r.site_name.clone(), fault));
                        continue;
                    }
                    if set.len() >= cfg.max_vectors {
                        break;
                    }
                    // Bill the in-context replay to the shared budget.
                    if gov
                        .charge((set.len() as u64 + 2) * order, Span::dummy())
                        .is_err()
                    {
                        break;
                    }
                    let Some((mut golden, mut faulty)) =
                        sat::replay_context(design, fault, &set, cfg.seed, &cfg.limits)?
                    else {
                        // The set already detects it in context; the
                        // re-grade will classify it.
                        continue;
                    };
                    let init_g: Vec<Value> =
                        golden.register_states().iter().map(|&(_, v)| v).collect();
                    let init_f: Vec<Value> =
                        faulty.register_states().iter().map(|&(_, v)| v).collect();
                    let mut frames = 1u32;
                    while frames <= cfg.max_frames && set.len() + frames as usize <= cfg.max_vectors
                    {
                        ss.solves += 1;
                        let answer = budget.solve(&mut gov, share, |g| {
                            let (init_g, init_f) = (Some(init_g.clone()), Some(init_f.clone()));
                            sat::check(design, fault, frames, init_g, init_f, cfg, g)
                        });
                        match answer {
                            sat::SatAnswer::Vectors(decoded) => {
                                match sat::verify_frames(
                                    design,
                                    &mut golden,
                                    &mut faulty,
                                    &decoded,
                                )? {
                                    Some(j) => {
                                        for frame in &decoded[..=j] {
                                            set.push(frame.clone());
                                        }
                                        ss.rescued += 1;
                                        ss.vectors += j + 1;
                                        ss.max_frames_used = ss.max_frames_used.max(frames);
                                    }
                                    None => {
                                        ss.unknown += 1;
                                        aborted.push((fi, r.site_name.clone(), fault));
                                    }
                                }
                                break;
                            }
                            sat::SatAnswer::Undetectable(_) => {
                                // Undetectable within k frames is not a
                                // redundancy proof; widen the window.
                                frames *= 2;
                            }
                            sat::SatAnswer::Unknown => {
                                ss.unknown += 1;
                                aborted.push((fi, r.site_name.clone(), fault));
                                break;
                            }
                        }
                    }
                }
            }
            set
        }
    };

    // The authoritative grade: a campaign replaying the emitted set,
    // exactly what `zeusc fault --vectors-file` will run.
    let mut gcfg = CampaignConfig::replay(Engine::Graph, set.clone());
    gcfg.limits = cfg.limits.clone();
    if cfg.campaign_deadline.is_some() {
        // Grading spends whatever wall budget generation left over.
        gcfg.campaign_deadline = budget.remaining();
    }
    let grade = run_campaign_packed(design, &list, &gcfg, 1)?;
    partial |= grade.partial.is_some();

    Ok(AtpgReport {
        top: design.top_type.clone(),
        seed: cfg.seed,
        mode,
        strategy,
        vectors: set,
        stats,
        sat: sat_stats,
        redundant: redundant.into_iter().map(|(_, n, f)| (n, f)).collect(),
        aborted: aborted.into_iter().map(|(_, n, f)| (n, f)).collect(),
        grade,
        partial,
    })
}

/// A design takes the structural path only when its semantics graph is
/// pure combinational logic and the fault universe is pure stuck-at —
/// the PODEM implication model covers exactly that fragment.
fn detect_mode(design: &Design, list: &zeus_fault::FaultList) -> Mode {
    let sequential = design
        .netlist
        .nodes
        .iter()
        .any(|n| matches!(n.op, NodeOp::Reg | NodeOp::Random));
    let stuck_only = list
        .faults
        .iter()
        .all(|f| matches!(f.kind, FaultKind::StuckAt0 | FaultKind::StuckAt1));
    if !sequential && design.rset.is_none() && stuck_only {
        Mode::Combinational
    } else {
        Mode::Sequence
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_elab::elaborate;
    use zeus_fault::run_campaign;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    const RIPPLE: &str = "TYPE fulladder = COMPONENT \
         (IN a,b,cin: boolean; OUT sum,cout: boolean) IS \
         BEGIN sum := XOR(XOR(a,b),cin); \
         cout := OR(AND(a,b), AND(cin, XOR(a,b))) END;";

    const REDUNDANT: &str = "TYPE taut = COMPONENT \
         (IN a,b: boolean; OUT q: boolean) IS \
         BEGIN q := AND(OR(a, NOT a), b) END;";

    #[test]
    fn combinational_design_reaches_full_testable_coverage() {
        let d = design(RIPPLE, "fulladder");
        let report = run_atpg(&d, &AtpgConfig::default()).expect("atpg");
        assert_eq!(report.mode, Mode::Combinational);
        assert!(report.aborted.is_empty(), "aborted: {:?}", report.aborted);
        assert!(
            (report.testable_coverage() - 1.0).abs() < 1e-9,
            "testable coverage {} < 1; report:\n{}",
            report.testable_coverage(),
            report.to_text()
        );
        assert!(report.coverage() >= 0.95, "{}", report.to_text());
    }

    #[test]
    fn tautological_net_is_proven_redundant() {
        // OR(a, NOT a) is constant 1: its stuck-at-1 fault (and the
        // stuck-at-0 faults of nets forced by it) can never be
        // observed. PODEM must prove at least one fault redundant
        // rather than abort, and grading must still reach 100% of the
        // testable universe.
        let d = design(REDUNDANT, "taut");
        let report = run_atpg(&d, &AtpgConfig::default()).expect("atpg");
        assert_eq!(report.mode, Mode::Combinational);
        assert!(
            !report.redundant.is_empty(),
            "expected redundant faults; report:\n{}",
            report.to_text()
        );
        assert!(report.aborted.is_empty(), "aborted: {:?}", report.aborted);
        assert!(
            (report.testable_coverage() - 1.0).abs() < 1e-9,
            "{}",
            report.to_text()
        );
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let d = design(RIPPLE, "fulladder");
        let cfg = AtpgConfig::default();
        let a = run_atpg(&d, &cfg).expect("atpg");
        let b = run_atpg(&d, &cfg).expect("atpg");
        assert_eq!(a.vectors.to_text(), b.vectors.to_text());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn regrading_the_emitted_set_reproduces_the_claimed_coverage() {
        let d = design(RIPPLE, "fulladder");
        let report = run_atpg(&d, &AtpgConfig::default()).expect("atpg");
        let set = zeus_sim::VectorSet::parse(&report.vectors.to_text()).expect("parse");
        let cfg = CampaignConfig::replay(Engine::Graph, set);
        let grade = run_campaign(
            &d,
            &enumerate_faults(&d, &FaultListOptions::default()),
            &cfg,
        )
        .expect("campaign");
        assert_eq!(grade.to_json(), report.grade.to_json());
    }

    #[test]
    fn sequential_design_takes_the_sequence_path() {
        let src = "TYPE delay = COMPONENT (IN d: boolean; OUT q: boolean) IS \
             SIGNAL r: REG; BEGIN r(XOR(d, r.out), q) END;";
        let d = design(src, "delay");
        let report = run_atpg(&d, &AtpgConfig::default()).expect("atpg");
        assert_eq!(report.mode, Mode::Sequence);
        assert!(report.coverage() > 0.0, "{}", report.to_text());
        // Replay equality holds on the sequence path too.
        let cfg = CampaignConfig::replay(Engine::Graph, report.vectors.clone());
        let grade = run_campaign(
            &d,
            &enumerate_faults(&d, &FaultListOptions::default()),
            &cfg,
        )
        .expect("campaign");
        assert_eq!(grade.coverage(), report.coverage());
    }

    #[test]
    fn sat_confirms_every_redundancy_verdict_deterministically() {
        let d = design(REDUNDANT, "taut");
        let cfg = AtpgConfig {
            sat: true,
            ..AtpgConfig::default()
        };
        let a = run_atpg(&d, &cfg).expect("atpg");
        assert!(!a.redundant.is_empty(), "{}", a.to_text());
        let ss = a.sat.expect("sat stats present");
        assert_eq!(
            ss.confirmed_redundant + ss.promoted_redundant,
            a.redundant.len(),
            "every reported redundancy must carry an UNSAT proof:\n{}",
            a.to_text()
        );
        assert_eq!(ss.unknown, 0, "{}", a.to_text());
        let b = run_atpg(&d, &cfg).expect("atpg");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn sat_agrees_with_podem_on_the_redundant_set() {
        let d = design(REDUNDANT, "taut");
        let plain = run_atpg(&d, &AtpgConfig::default()).expect("atpg");
        let cfg = AtpgConfig {
            sat: true,
            ..AtpgConfig::default()
        };
        let confirmed = run_atpg(&d, &cfg).expect("atpg");
        let names = |r: &AtpgReport| {
            r.redundant
                .iter()
                .map(|(n, f)| (n.clone(), f.kind.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&plain), names(&confirmed));
    }

    #[test]
    fn sat_rescues_faults_podem_aborts_on() {
        // With a zero backtrack budget PODEM aborts every fault it is
        // handed; the SAT pass must find and verify vectors for all of
        // them (the full adder has no redundant faults).
        let d = design(RIPPLE, "fulladder");
        let cfg = AtpgConfig {
            backtrack_limit: 0,
            sat: true,
            ..AtpgConfig::default()
        };
        let report = run_atpg(&d, &cfg).expect("atpg");
        let ss = report.sat.expect("sat stats present");
        assert!(report.aborted.is_empty(), "{}", report.to_text());
        assert!(
            (report.testable_coverage() - 1.0).abs() < 1e-9,
            "{}",
            report.to_text()
        );
        assert!(ss.rescued > 0 || report.stats.podem_attempts == 0);
    }

    #[test]
    fn timeframe_expansion_improves_on_the_prefix_fallback() {
        // q fires only after three consecutive 1s on d — a short random
        // prefix is unlikely to produce the sequence, while the
        // time-frame path derives it directly.
        let src = "TYPE seq3 = COMPONENT (IN d: boolean; OUT q: boolean) IS \
             SIGNAL a, b: boolean; SIGNAL r1, r2: REG; \
             BEGIN r1(d, a); r2(AND(d, a), b); q := AND(b, AND(d, a)) END;";
        let d = design(src, "seq3");
        let plain_cfg = AtpgConfig {
            max_vectors: 4,
            ..AtpgConfig::default()
        };
        let plain = run_atpg(&d, &plain_cfg).expect("atpg");
        assert_eq!(plain.strategy, Strategy::Prefix);
        let mut sat_cfg = plain_cfg.clone();
        sat_cfg.sat = true;
        let sat = run_atpg(&d, &sat_cfg).expect("atpg");
        assert_eq!(sat.strategy, Strategy::Timeframe);
        let ss = sat.sat.expect("sat stats present");
        assert!(
            sat.coverage() >= plain.coverage(),
            "sat {} < plain {}\n{}",
            sat.coverage(),
            plain.coverage(),
            sat.to_text()
        );
        assert!(
            ss.solves > 0,
            "time-frame path never solved:\n{}",
            sat.to_text()
        );
        if ss.rescued > 0 {
            assert!(
                sat.grade.detected() > plain.grade.detected(),
                "rescued {} faults but detections did not grow:\n{}",
                ss.rescued,
                sat.to_text()
            );
        }
        // Same-seed determinism holds on the time-frame path too.
        let again = run_atpg(&d, &sat_cfg).expect("atpg");
        assert_eq!(sat.to_json(), again.to_json());
    }

    #[test]
    fn emit_cnf_writes_reparseable_audit_files() {
        let dir =
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-emit-cnf");
        let _ = std::fs::remove_dir_all(&dir);
        let d = design(REDUNDANT, "taut");
        let cfg = AtpgConfig {
            sat: true,
            emit_cnf: Some(dir.clone()),
            ..AtpgConfig::default()
        };
        let report = run_atpg(&d, &cfg).expect("atpg");
        let ss = report.sat.expect("sat stats present");
        assert_eq!(ss.cnf_files, report.redundant.len());
        assert!(ss.cnf_files > 0);
        for i in 0..ss.cnf_files {
            let path = dir.join(format!("redundant-{i:03}.cnf"));
            let text = std::fs::read_to_string(&path).expect("audit file exists");
            let cnf = zeus_sat::Cnf::parse_dimacs(&text).expect("audit file reparses");
            assert_eq!(cnf.to_dimacs(&[]).lines().count(), 1 + cnf.clauses.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_deadline_yields_partial_report_not_error() {
        let d = design(RIPPLE, "fulladder");
        let cfg = AtpgConfig {
            sat: true,
            campaign_deadline: Some(std::time::Duration::ZERO),
            ..AtpgConfig::default()
        };
        let report = run_atpg(&d, &cfg).expect("deadline expiry is not an error");
        assert!(report.partial, "{}", report.to_text());
    }

    #[test]
    fn budget_exhaustion_reports_aborted_not_error() {
        let d = design(RIPPLE, "fulladder");
        let mut cfg = AtpgConfig::default();
        cfg.limits.fuel = Some(1);
        let report = run_atpg(&d, &cfg).expect("atpg completes under tiny fuel");
        // Nothing was generated, everything pending went to PODEM and
        // aborted immediately; grading still ran.
        assert!(report.vectors.is_empty());
        assert!(!report.aborted.is_empty());
        assert_eq!(report.coverage(), 0.0);
    }
}
