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
//!    detections are covered by later vectors, by one exact fault
//!    campaign over the reversed set.
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
//! are the collapsed fault list's sorted order. The wall clock
//! (`limits.deadline`) only stops a run, it never decides an answer: a
//! search the deadline may have cut is dropped with its fault, so a
//! partial report lists only verdicts the unbounded run reports too.
//!
//! [`PackedSim`]: zeus_sim::PackedSim
//! [`VectorStream`]: zeus_sim::VectorStream

mod compact;
mod harvest;
mod podem;
mod report;
mod sat;

pub use report::{AtpgReport, AtpgStats, SatStats};

use zeus_elab::{Design, Fault, Governor, Limits, NodeOp, PartialReason};
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
    /// Resource budget. Fuel is shared by the whole generation run and
    /// applies per fault in the nested campaigns (the sequence-mode
    /// harvest and the grade), as do `max_steps`; the per-fault search
    /// bounds are `backtrack_limit` and `sat_conflicts`. The `deadline`
    /// applies to the whole run, grading included: it counts from the
    /// start of [`run_atpg`], and reaching it stops the run with a
    /// [`partial`](AtpgReport::partial) report instead of classifying a
    /// fault. The `cancel` flag (Ctrl-C, a daemon's drain) stops
    /// generation between harvest rounds and faults; the vectors found
    /// are still graded.
    pub limits: Limits,
    /// Which fault universe to target.
    pub fault_opts: FaultListOptions,
    /// Enable the SAT engine: confirm every PODEM redundancy verdict
    /// UNSAT, decode models for aborted faults into (verified)
    /// vectors, and time-frame-expand sequential faults the random
    /// prefix missed.
    pub sat: bool,
    /// CDCL conflict budget per SAT solve; past it the solve returns
    /// unknown and the fault stays aborted. 0 means unlimited (bounded
    /// only by fuel, or cut by the deadline).
    pub sat_conflicts: u64,
    /// Largest time-frame unroll for one sequential fault; the
    /// schedule is geometric (1, 2, 4, … up to this).
    pub max_frames: u32,
    /// Render one DIMACS text per SAT-confirmed redundancy claim into
    /// [`AtpgReport::cnf_audits`], an externally checkable audit trail.
    /// Off, no formula is rendered.
    pub emit_cnf: bool,
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
            sat: false,
            sat_conflicts: 20_000,
            max_frames: 8,
            emit_cnf: false,
        }
    }
}

/// `DeadlineExceeded` once the run's deadline has passed. A search that
/// ends past it may have been cut short, so its answer is dropped.
fn past_deadline(gov: &Governor) -> Option<PartialReason> {
    let passed = gov.check_deadline(Span::dummy()).is_err();
    passed.then_some(PartialReason::DeadlineExceeded)
}

/// `limits` for a campaign nested in the run (the sequence-mode
/// harvest, compaction, the grade): its deadline is what is left of the
/// run's, and it keeps the run's stop flag.
pub(crate) fn nested(limits: &Limits, gov: &Governor) -> Limits {
    Limits {
        deadline: gov.time_left(),
        ..limits.clone()
    }
}

/// Runs ATPG and returns the graded report.
///
/// # Errors
///
/// Propagates elaboration-level diagnostics (combinational loops),
/// simulator construction/stepping failures, and grading errors.
/// Fuel/backtrack exhaustion inside the generation phases is *not* an
/// error: affected faults are reported aborted and the run completes.
/// Neither is the deadline: the run stops with a partial report.
pub fn run_atpg(design: &Design, cfg: &AtpgConfig) -> Result<AtpgReport, Diagnostic> {
    // The run's one governor: generation shares its fuel, and its
    // deadline is the whole run's.
    let mut gov = cfg.limits.governor();
    let list = enumerate_faults(design, &cfg.fault_opts);
    let mode = detect_mode(design, &list);
    let mut stats = AtpgStats::default();
    // `(fault-list index, site, fault)` triples: the index restores
    // fault-list order after the SAT pass reshuffles the lists.
    let mut redundant: Vec<(usize, String, Fault)> = Vec::new();
    let mut aborted: Vec<(usize, String, Fault)> = Vec::new();
    // Why the run stopped early, if it did: the first stop it saw.
    let mut stop: Option<PartialReason>;
    let mut sat_stats = cfg.sat.then(SatStats::default);
    let mut strategy = match mode {
        Mode::Combinational => Strategy::Podem,
        Mode::Sequence => Strategy::Prefix,
    };
    let mut cnf_audits: Vec<String> = Vec::new();

    let set = match mode {
        Mode::Combinational => {
            let mut set = VectorSet::new(design, cfg.seed);
            let mut detected = vec![false; list.faults.len()];
            let h = harvest::packed_harvest(design, &list, cfg, &mut set, &mut detected, &mut gov)?;
            stats.absorb(h, set.len());
            stop = gov.stop();

            // PODEM over what the harvest missed, in fault-list order.
            let mut podem = Podem::new(design)?;
            let total = list.faults.len();
            let mut ndet = detected.iter().filter(|&&d| d).count();
            for (fi, &fault) in list.faults.iter().enumerate() {
                stop = stop.or_else(|| gov.stop());
                if stop.is_some() {
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
                let outcome = podem.generate(fault, cfg.backtrack_limit, &mut gov);
                stop = past_deadline(&gov);
                if stop.is_some() {
                    break;
                }
                stats.podem_attempts += 1;
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
            // model decoded into a (simulator-verified) vector. Until it
            // has seen a claim, the claim is not final: a stopped run
            // reports none of those it did not reach.
            if cfg.sat {
                let ss = sat_stats.as_mut().expect("sat stats exist when sat is on");
                let mut claims: Vec<(bool, usize, String, Fault)> = Vec::new();
                for (fi, name, fault) in redundant.drain(..) {
                    claims.push((true, fi, name, fault));
                }
                for (fi, name, fault) in aborted.drain(..) {
                    claims.push((false, fi, name, fault));
                }
                claims.sort_by_key(|c| c.1);
                for (was_redundant, fi, name, fault) in claims {
                    stop = stop.or_else(|| gov.stop());
                    if stop.is_some() {
                        break;
                    }
                    let answer = sat::check(design, fault, 1, None, None, cfg, &mut gov);
                    stop = past_deadline(&gov);
                    if stop.is_some() {
                        break;
                    }
                    ss.solves += 1;
                    match answer {
                        sat::SatAnswer::Undetectable(audit) => {
                            if was_redundant {
                                ss.confirmed_redundant += 1;
                            } else {
                                ss.promoted_redundant += 1;
                            }
                            cnf_audits.extend(audit);
                            redundant.push((fi, name, fault));
                        }
                        sat::SatAnswer::Vectors(frames) => {
                            // The one-frame model detects the fault when
                            // its replay diverges (leaves no context).
                            if set.len() < cfg.max_vectors
                                && sat::replay_context(design, fault, &frames, cfg.seed)?.is_none()
                            {
                                set.push(frames.bits(0).to_vec());
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

            if stop.is_some() {
                // Stopped: emit the uncompacted vectors found so far
                // rather than spend more wall clock minimizing them.
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
            hcfg.limits = nested(&cfg.limits, &gov);
            let campaign = run_campaign_packed(design, &list, &hcfg, 1)?;
            stop = campaign.partial;
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
            if cfg.sat && stop.is_none() && !has_random {
                strategy = Strategy::Timeframe;
                let ss = sat_stats.as_mut().expect("sat stats exist when sat is on");
                let order = design.netlist.nodes.len() as u64 + 1;
                let shared = zeus_sat::Lockstep::new(design).ok();
                'faults: for (fi, r) in campaign.results.iter().enumerate() {
                    stop = gov.stop();
                    if stop.is_some() {
                        break;
                    }
                    let fault = r.fault;
                    if matches!(r.outcome, Outcome::Detected { .. })
                        || !matches!(fault.kind, FaultKind::StuckAt0 | FaultKind::StuckAt1)
                    {
                        continue;
                    }
                    // A cheap single-frame lockstep proof first: UNSAT
                    // over a fully symbolic shared register state (RSET
                    // free) means the faulty frame function equals the
                    // good one everywhere, so no sequence of any length
                    // can observe the fault — promote it to redundant
                    // and skip the unroll entirely.
                    let locked = shared
                        .as_ref()
                        .and_then(|l| sat::check_lockstep(l, design, fault, cfg, &mut gov));
                    stop = past_deadline(&gov);
                    if stop.is_some() {
                        break;
                    }
                    ss.solves += 1;
                    if let Some(audit) = locked {
                        cnf_audits.extend(audit);
                        ss.promoted_redundant += 1;
                        redundant.push((fi, r.site_name.clone(), fault));
                        continue;
                    }
                    // A full set takes no more vectors, but the faults
                    // after this one still get their lockstep proofs.
                    if set.len() >= cfg.max_vectors {
                        continue;
                    }
                    // Bill the in-context replay to the shared budget.
                    if gov
                        .charge((set.len() as u64 + 2) * order, Span::dummy())
                        .is_err()
                    {
                        stop = past_deadline(&gov);
                        break;
                    }
                    let Some((mut golden, mut faulty)) =
                        sat::replay_context(design, fault, &set, cfg.seed)?
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
                        let (g, f) = (Some(init_g.clone()), Some(init_f.clone()));
                        let answer = sat::check(design, fault, frames, g, f, cfg, &mut gov);
                        stop = past_deadline(&gov);
                        if stop.is_some() {
                            break 'faults;
                        }
                        ss.solves += 1;
                        match answer {
                            sat::SatAnswer::Vectors(decoded) => {
                                match sat::first_divergence(&mut golden, &mut faulty, &decoded)? {
                                    Some(j) => {
                                        for i in 0..=j {
                                            set.push(decoded.bits(i).to_vec());
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
    // exactly what `zeusc fault --vectors-file` will run. The stop flag
    // is cleared: a Ctrl-C'd run still grades the vectors it found, and
    // only the deadline cuts the grade.
    let mut gcfg = CampaignConfig::replay(Engine::Graph, set.clone());
    gcfg.limits = nested(&cfg.limits, &gov);
    gcfg.limits.cancel = None;
    let grade = run_campaign_packed(design, &list, &gcfg, 1)?;
    stop = stop.or(grade.partial);

    Ok(AtpgReport {
        top: design.top_type.clone(),
        seed: cfg.seed,
        mode,
        strategy,
        vectors: set,
        stats,
        sat: sat_stats.map(|ss| SatStats {
            cnf_files: cnf_audits.len(),
            ..ss
        }),
        redundant: redundant.into_iter().map(|(_, n, f)| (n, f)).collect(),
        aborted: aborted.into_iter().map(|(_, n, f)| (n, f)).collect(),
        grade,
        partial: stop.is_some(),
        partial_reason: stop,
        cnf_audits,
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
        let d = design(REDUNDANT, "taut");
        let cfg = AtpgConfig {
            sat: true,
            emit_cnf: true,
            ..AtpgConfig::default()
        };
        let report = run_atpg(&d, &cfg).expect("atpg");
        let ss = report.sat.expect("sat stats present");
        assert_eq!(ss.cnf_files, report.redundant.len());
        assert_eq!(report.cnf_audits.len(), ss.cnf_files);
        assert!(ss.cnf_files > 0);
        for text in &report.cnf_audits {
            let cnf = zeus_sat::Cnf::parse_dimacs(text).expect("audit text reparses");
            assert_eq!(cnf.to_dimacs(&[]).lines().count(), 1 + cnf.clauses.len());
        }
        // Without the flag no formula is rendered.
        let quiet = run_atpg(
            &d,
            &AtpgConfig {
                sat: true,
                ..AtpgConfig::default()
            },
        )
        .expect("atpg");
        assert!(quiet.cnf_audits.is_empty());
        assert_eq!(quiet.sat.expect("sat stats present").cnf_files, 0);
    }

    #[test]
    fn campaign_deadline_yields_partial_report_not_error() {
        let d = design(RIPPLE, "fulladder");
        let cfg = AtpgConfig {
            sat: true,
            limits: Limits::default().with_deadline(std::time::Duration::ZERO),
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
