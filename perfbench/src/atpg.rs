//! `atpg`: test generation. Each job is one pass of `run_atpg` (default
//! config, fixed seed) over one input per ATPG phase, so each phase
//! dominates one input and barely runs on the others.

use zeus::{
    AtpgConfig, AtpgMode, AtpgReport, CampaignConfig, Design, EncodeOptions, SatOutcome, Solver,
    VectorStream,
};

use crate::campaign::{elaborate, outcome_line, probe_sims};
use crate::common::{
    digest, latency_metrics, measure, pass_order, peak_rss_mb, repeat_setup, timed, Cfg, Outcome,
    Pace,
};
use crate::stats::median;
use crate::trace::Tracer;

struct Entry {
    label: &'static str,
    file: &'static str,
    top: &'static str,
    args: &'static [i64],
    sat: bool,
}

/// PODEM-bound (three of four targets abort), SAT-bound, grade-bound
/// and harvest-only, in that order.
const ENTRIES: &[Entry] = &[
    Entry {
        label: "sorter 2 5",
        file: "zeus-programs/sorter.zeus",
        top: "sorter",
        args: &[2, 5],
        sat: false,
    },
    Entry {
        label: "systolicstack 2 2 (sat)",
        file: "zeus-programs/stack.zeus",
        top: "systolicstack",
        args: &[2, 2],
        sat: true,
    },
    Entry {
        label: "dictionary 2 4",
        file: "zeus-programs/dictionary.zeus",
        top: "dictionary",
        args: &[2, 4],
        sat: false,
    },
    Entry {
        label: "rippleCarry 8",
        file: "zeus-programs/adders.zeus",
        top: "rippleCarry",
        args: &[8],
        sat: false,
    },
];

/// Repetitions of the probes: grading replay, SAT re-solve and the
/// per-input split.
const PROBE_REPS: usize = 5;

fn atpg_cfg(e: &Entry) -> AtpgConfig {
    AtpgConfig {
        sat: e.sat,
        ..AtpgConfig::default()
    }
}

/// What must repeat exactly from pass to pass.
#[derive(PartialEq)]
struct Sig {
    vectors: u64,
    grade: String,
    redundant: usize,
    sat_solves: Option<u64>,
}

fn sig(e: &Entry, r: &AtpgReport) -> Sig {
    Sig {
        vectors: r.vector_digest(),
        grade: outcome_line(e.label, &r.grade),
        redundant: r.redundant.len(),
        sat_solves: r.sat.as_ref().map(|s| s.solves),
    }
}

fn run_entry(e: &Entry, design: &Design, tr: &mut Tracer) -> Result<AtpgReport, String> {
    let id = tr.open("atpg.run");
    let report = zeus::run_atpg(design, &atpg_cfg(e));
    tr.close(id);
    let r = report.map_err(|d| format!("{}: {d}", e.label))?;
    let s = &r.stats;
    tr.count(id, "harvest_rounds", s.harvest_rounds);
    tr.count(id, "podem_attempts", s.podem_attempts as u64);
    tr.count(id, "aborted", r.aborted.len() as u64);
    tr.count(id, "redundant", r.redundant.len() as u64);
    tr.count(id, "compaction_removed", s.compaction_removed as u64);
    if let Some(ss) = &r.sat {
        tr.count(id, "sat_solves", ss.solves);
        tr.count(id, "sat_unknown", ss.unknown as u64);
        tr.count(id, "sat_promoted", ss.promoted_redundant as u64);
        tr.count(id, "sat_rescued", ss.rescued as u64);
    }
    Ok(r)
}

/// The exact grading call: a scalar `run_campaign` replaying the
/// emitted vectors over the same fault universe.
fn regrade(e: &Entry, design: &Design, r: &AtpgReport) -> Result<String, String> {
    let cfg = atpg_cfg(e);
    let list = zeus::enumerate_faults(design, &cfg.fault_opts);
    let mut gcfg = CampaignConfig::replay(zeus::Engine::Graph, r.vectors.clone());
    gcfg.limits = cfg.limits.clone();
    let grade =
        zeus::run_campaign(design, &list, &gcfg).map_err(|d| format!("{}: {d}", e.label))?;
    Ok(outcome_line(e.label, &grade))
}

/// Re-proves each fault the SAT phase reported redundant: the lockstep
/// encoding on sequential designs, one detection frame otherwise.
fn resolve(e: &Entry, design: &Design, r: &AtpgReport) -> Result<(), String> {
    let cfg = atpg_cfg(e);
    let mut gov = cfg.limits.governor();
    for (site, fault) in &r.redundant {
        let cnf = match r.mode {
            AtpgMode::Sequence => zeus::encode_lockstep(design, *fault, &mut gov),
            AtpgMode::Combinational => {
                let opts = EncodeOptions {
                    frames: 1,
                    init_good: None,
                    init_faulty: None,
                };
                zeus::encode_detection(design, *fault, &opts, &mut gov).map(|d| d.cnf)
            }
        }
        .map_err(|err| format!("{}: cannot encode {site}: {err:?}", e.label))?;
        match Solver::from_cnf(&cnf).solve(cfg.sat_conflicts, &mut gov) {
            SatOutcome::Unsat => {}
            other => {
                return Err(format!(
                    "{}: {site} is no longer proved redundant: {other:?}",
                    e.label
                ))
            }
        }
    }
    Ok(())
}

/// How one input's `run_atpg` time splits, measured from outside as
/// medians of [`PROBE_REPS`] calls: the grading call replayed on its
/// own; the SAT engine, as the time `run_atpg` loses with it off (SAT
/// inputs); the PODEM search, as the time it loses with a backtrack
/// limit of zero (inputs without SAT that reach PODEM). The rest is the
/// fault list, the harvest and compaction.
fn split(e: &Entry, design: &Design, r: &AtpgReport) -> Result<String, String> {
    let med = |xs: &[f64]| median(xs) * 1e3;
    let run_with = |c: AtpgConfig| {
        timed(|| zeus::run_atpg(design, &c).map_err(|d| format!("{}: {d}", e.label))).map(|t| t.0)
    };
    let podem = !e.sat && r.stats.podem_attempts > 0;
    let (mut run, mut grade, mut without) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        run.push(run_with(atpg_cfg(e))?);
        grade.push(timed(|| regrade(e, design, r))?.0);
        if e.sat {
            without.push(run_with(AtpgConfig {
                sat: false,
                ..atpg_cfg(e)
            })?);
        } else if podem {
            without.push(run_with(AtpgConfig {
                backtrack_limit: 0,
                ..atpg_cfg(e)
            })?);
        }
    }
    let (run, grade) = (med(&run), med(&grade));
    let saved = if without.is_empty() {
        0.0
    } else {
        (run - med(&without)).max(0.0)
    };
    let (sat, search) = if e.sat { (saved, 0.0) } else { (0.0, saved) };
    let pct = |ms: f64| 100.0 * ms / run;
    Ok(format!(
        "split {}: run_atpg {run:.1} ms = grade {:.0}% + SAT {:.0}% + PODEM search {:.0}% + fault list, harvest and compaction {:.0}%",
        e.label,
        pct(grade),
        pct(sat),
        pct(search),
        pct(run - grade - sat - search)
    ))
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let load = || {
        ENTRIES
            .iter()
            .map(|e| elaborate(e.file, e.top, e.args))
            .collect::<Result<Vec<_>, _>>()
    };
    let (first_setup_s, designs) = timed(load)?;
    let mut tr = Tracer::new();
    let n = ENTRIES.len();

    let mut first: Option<Vec<Sig>> = None;
    let mut reports: Vec<AtpgReport> = Vec::new();
    let m = measure(
        cfg,
        Pace::Batch,
        &mut tr,
        &mut out,
        repeat_setup(load),
        |pass, tr| {
            let mut outs: Vec<Option<AtpgReport>> = (0..n).map(|_| None).collect();
            for i in pass_order(cfg.seed, pass, n) {
                outs[i] = Some(run_entry(&ENTRIES[i], &designs[i], tr)?);
            }
            Ok(outs.into_iter().flatten().collect::<Vec<_>>())
        },
        |_, outs| {
            let sigs: Vec<Sig> = ENTRIES.iter().zip(&outs).map(|(e, r)| sig(e, r)).collect();
            let partial = outs.iter().any(|r| r.partial);
            match &first {
                None => {
                    first = Some(sigs);
                    reports = outs;
                    !partial
                }
                Some(f) => *f == sigs && !partial,
            }
        },
    )?;
    let rss = peak_rss_mb("self")?;

    // One-off checks: each report's grade equals an independent replay
    // of its vectors, and every SAT redundancy proof still holds.
    let reps = if cfg.trace { PROBE_REPS } else { 1 };
    tr.set_on(cfg.trace);
    for _ in 0..reps {
        let id = tr.open("atpg.grade");
        for ((e, d), r) in ENTRIES.iter().zip(&designs).zip(&reports) {
            let replay = regrade(e, d, r)?;
            if replay != outcome_line(e.label, &r.grade) {
                out.fail_all(format!(
                    "{}: report grade differs from the replay: {replay}",
                    e.label
                ));
            }
        }
        tr.close(id);
        let id = tr.open("sat.solve");
        for ((e, d), r) in ENTRIES.iter().zip(&designs).zip(&reports) {
            if e.sat {
                if let Err(msg) = resolve(e, d, r) {
                    out.fail_all(msg);
                }
            }
        }
        tr.close(id);
    }
    tr.set_on(false);

    let detected: usize = reports.iter().map(|r| r.grade.detected()).sum();
    let testable: usize = reports
        .iter()
        .map(|r| r.grade.total().saturating_sub(r.redundant.len()))
        .sum();
    let emitted: usize = reports.iter().map(|r| r.vectors.len()).sum();
    out.metric("setup_s", m.setup_median(first_setup_s), "s");
    latency_metrics(&m, &mut out);
    out.metric("peak_rss_mb", rss, "MB");
    let gates: usize = designs.iter().map(|d| d.netlist.node_count()).sum();
    out.metric("opt_gates", gates as f64, "gates");
    out.metric(
        "coverage_pct",
        100.0 * detected as f64 / testable.max(1) as f64,
        "%",
    );
    out.metric("test_vectors", emitted as f64, "count");
    for (e, r) in ENTRIES.iter().zip(&reports) {
        out.note(format!(
            "{}: {} vectors, {}/{} detected, {} redundant, {} aborted, digest {:016x}",
            e.label,
            r.vectors.len(),
            r.grade.detected(),
            r.grade.total(),
            r.redundant.len(),
            r.aborted.len(),
            digest(&r.vectors.to_text())
        ));
    }
    if cfg.trace {
        let streams: Vec<_> = designs
            .iter()
            .zip(&reports)
            .map(|(d, r)| (d, VectorStream::replay(&r.vectors), r.vectors.len() as u32))
            .collect();
        for _ in 0..PROBE_REPS {
            probe_sims(&mut tr, &streams)?;
        }
        for ((e, d), r) in ENTRIES.iter().zip(&designs).zip(&reports) {
            out.note(split(e, d, r)?);
        }
        crate::layers::finish(cfg, &tr, &m, &mut out)?;
    }
    Ok(out)
}
