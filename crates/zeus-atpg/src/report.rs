//! The ATPG report: the generated vector set, phase statistics, the
//! redundant-fault list, and the final re-graded coverage.
//!
//! Both renderers are deterministic: fixed key order, fixed float
//! formatting (`{:.6}` for coverages), and optional sections emitted
//! only when present — two same-seed runs produce byte-identical text
//! and JSON.

use std::fmt::Write as _;

use zeus_elab::{json, Design, Fault, PartialReason, StableHasher};
use zeus_fault::CoverageReport;
use zeus_sim::VectorSet;

use crate::compact::CompactOutcome;
use crate::harvest::HarvestOutcome;
use crate::{Mode, Strategy};

/// Per-phase counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AtpgStats {
    /// 64-candidate harvest rounds simulated.
    pub harvest_rounds: u64,
    /// Vectors the harvest kept.
    pub harvest_vectors: usize,
    /// Faults first detected during harvest.
    pub harvest_detected: usize,
    /// Faults handed to the PODEM phase.
    pub podem_attempts: usize,
    /// Vectors the PODEM phase emitted.
    pub podem_vectors: usize,
    /// Faults PODEM found a test for.
    pub podem_detected: usize,
    /// Faults PODEM left unattempted (vector budget full).
    pub podem_skipped: usize,
    /// Vector count before compaction.
    pub pre_compaction: usize,
    /// Vectors removed by reverse-order compaction.
    pub compaction_removed: usize,
    /// True when compaction was skipped (fuel exhausted).
    pub compaction_skipped: bool,
}

/// Counters for the SAT engine (present only when
/// [`AtpgConfig::sat`](crate::AtpgConfig::sat) was on).
#[derive(Debug, Clone, Copy, Default)]
pub struct SatStats {
    /// Detectability formulas solved (one per claim, one per frame
    /// window on the time-frame path).
    pub solves: u64,
    /// PODEM redundancy verdicts confirmed UNSAT.
    pub confirmed_redundant: usize,
    /// Aborted faults proven redundant (UNSAT) by the solver.
    pub promoted_redundant: usize,
    /// Faults rescued by a decoded, simulator-verified SAT model.
    pub rescued: usize,
    /// Solves that ran out of conflict or fuel budget (the fault stays
    /// aborted).
    pub unknown: usize,
    /// Vectors the SAT engine added to the set.
    pub vectors: usize,
    /// Widest time-frame unroll that produced a detection (0 when the
    /// time-frame path never fired).
    pub max_frames_used: u32,
    /// DIMACS audit texts rendered (one per SAT-backed redundancy claim
    /// when [`AtpgConfig::emit_cnf`](crate::AtpgConfig::emit_cnf) is on).
    pub cnf_files: usize,
}

impl AtpgStats {
    pub(crate) fn absorb(&mut self, h: HarvestOutcome, harvest_vectors: usize) {
        self.harvest_rounds = h.rounds;
        self.harvest_detected = h.detected;
        self.harvest_vectors = harvest_vectors;
    }

    pub(crate) fn absorb_compaction(&mut self, pre: usize, c: CompactOutcome) {
        self.pre_compaction = pre;
        self.compaction_removed = c.removed;
        self.compaction_skipped = c.skipped;
    }
}

/// The result of [`run_atpg`](crate::run_atpg).
#[derive(Debug, Clone)]
pub struct AtpgReport {
    /// The design's top type.
    pub top: String,
    /// The seed the vector stream was drawn from.
    pub seed: u64,
    /// How the design was handled.
    pub mode: Mode,
    /// Which strategy built the emitted vector set.
    pub strategy: Strategy,
    /// The generated (compacted) vector set.
    pub vectors: VectorSet,
    /// Phase counters.
    pub stats: AtpgStats,
    /// SAT-engine counters; `Some` exactly when the run had SAT
    /// enabled (so reports without `--sat` keep their old bytes).
    pub sat: Option<SatStats>,
    /// Faults proven untestable by exhaustive structural search, as
    /// `(site name, fault)` in fault-list order. They can never count
    /// toward coverage; [`AtpgReport::testable_coverage`] excludes them
    /// from the denominator.
    pub redundant: Vec<(String, Fault)>,
    /// Faults whose structural search ran out of backtrack or fuel
    /// budget, as `(site name, fault)`: neither tested nor proven
    /// untestable.
    pub aborted: Vec<(String, Fault)>,
    /// The authoritative coverage: a full fault campaign replaying the
    /// final vector set. `zeusc fault --vectors-file` on the emitted
    /// set reproduces this report byte for byte.
    pub grade: CoverageReport,
    /// True when the run stopped before it finished, cancelled (Ctrl-C,
    /// daemon drain) or at its deadline: the vector set covers only the
    /// work completed so far (uncompacted on the structural path) and
    /// is graded as far as the deadline allows; every redundant or
    /// aborted verdict listed is one the unbounded run reports too.
    pub partial: bool,
    /// What stopped a [`partial`](AtpgReport::partial) run: the first
    /// stop the run saw. `None` exactly when the run finished.
    pub partial_reason: Option<PartialReason>,
    /// With [`AtpgConfig::emit_cnf`](crate::AtpgConfig::emit_cnf), one
    /// DIMACS text per SAT-backed redundancy claim, in claim order; the
    /// caller decides where they go (`zeusc` writes
    /// `DIR/redundant-NNN.cnf`).
    pub cnf_audits: Vec<String>,
}

impl AtpgReport {
    /// Detected / total over the collapsed universe, in [0, 1]. Taken
    /// from the re-grade, so it is exactly what a replay reports.
    pub fn coverage(&self) -> f64 {
        self.grade.coverage()
    }

    /// Detected / (total − redundant): coverage of the faults a test
    /// could in principle detect.
    pub fn testable_coverage(&self) -> f64 {
        let testable = self
            .grade
            .results
            .len()
            .saturating_sub(self.redundant.len());
        if testable == 0 {
            0.0
        } else {
            self.grade.detected() as f64 / testable as f64
        }
    }

    /// How the report words what stopped a partial run (`interrupted`
    /// or `stopped at the deadline`); `None` for a finished run.
    pub fn stop_cause(&self) -> Option<&'static str> {
        self.partial_reason.map(|reason| match reason {
            PartialReason::Interrupted => "interrupted",
            PartialReason::DeadlineExceeded => "stopped at the deadline",
        })
    }

    /// FNV digest of the canonical vector-file text, for cheap
    /// byte-identity checks across runs.
    pub fn vector_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str(&self.vectors.to_text());
        h.finish()
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "atpg: {} ({} mode, seed {})",
            self.top,
            self.mode.name(),
            self.seed
        );
        let _ = writeln!(s, "  strategy: {}", self.strategy.name());
        if let Some(cause) = self.stop_cause() {
            let _ = writeln!(
                s,
                "  PARTIAL: generation {cause}; set covers work completed so far"
            );
        }
        let _ = writeln!(
            s,
            "  universe: {} faults enumerated, {} collapsed, {} targeted",
            self.grade.total_enumerated, self.grade.collapsed, self.grade.planned
        );
        let _ = writeln!(
            s,
            "  harvest: {} rounds, {} vectors kept, {} faults detected",
            self.stats.harvest_rounds, self.stats.harvest_vectors, self.stats.harvest_detected
        );
        if self.mode == Mode::Combinational {
            let _ = writeln!(
                s,
                "  podem: {} attempts, {} vectors, {} detected, {} redundant, {} aborted{}",
                self.stats.podem_attempts,
                self.stats.podem_vectors,
                self.stats.podem_detected,
                self.redundant.len(),
                self.aborted.len(),
                if self.stats.podem_skipped > 0 {
                    format!(" ({} skipped: vector budget)", self.stats.podem_skipped)
                } else {
                    String::new()
                }
            );
            if let Some(reason) = self.partial_reason {
                let _ = writeln!(s, "  compaction: skipped ({})", reason.tag());
            } else if self.stats.compaction_skipped {
                let _ = writeln!(s, "  compaction: skipped (fuel exhausted)");
            } else {
                let _ = writeln!(
                    s,
                    "  compaction: {} -> {} vectors ({} removed)",
                    self.stats.pre_compaction,
                    self.vectors.len(),
                    self.stats.compaction_removed
                );
            }
        }
        if let Some(ss) = &self.sat {
            let _ = writeln!(
                s,
                "  sat: {} solves, {} redundant confirmed, {} promoted, {} rescued, \
                 {} unknown, {} vectors added{}",
                ss.solves,
                ss.confirmed_redundant,
                ss.promoted_redundant,
                ss.rescued,
                ss.unknown,
                ss.vectors,
                if ss.max_frames_used > 0 {
                    format!(" (max {} frames)", ss.max_frames_used)
                } else {
                    String::new()
                }
            );
        }
        let _ = writeln!(
            s,
            "  vectors: {} emitted (digest {:016x})",
            self.vectors.len(),
            self.vector_digest()
        );
        if self.grade.partial.is_some() {
            let _ = writeln!(
                s,
                "  coverage: grade stopped at the deadline: {}/{} faults graded, {} detected",
                self.grade.total(),
                self.grade.planned,
                self.grade.detected()
            );
        } else {
            let _ = writeln!(
                s,
                "  coverage: {} ({}/{} detected), testable {}",
                fmt_pct(self.coverage()),
                self.grade.detected(),
                self.grade.results.len(),
                fmt_pct(self.testable_coverage())
            );
        }
        if !self.redundant.is_empty() {
            let _ = writeln!(s, "  redundant (untestable) faults:");
            for (name, fault) in &self.redundant {
                let _ = writeln!(s, "    - {} {}", name, fault.kind);
            }
        }
        if !self.aborted.is_empty() {
            let _ = writeln!(s, "  aborted faults (budget ran out):");
            for (name, fault) in &self.aborted {
                let _ = writeln!(s, "    - {} {}", name, fault.kind);
            }
        }
        s
    }

    /// Machine-readable report with a deterministic key order. The
    /// `grade` field embeds the replay campaign's own JSON report.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"tool\":\"zeus-atpg\"");
        let _ = write!(s, ",\"top\":{}", json::quote(&self.top));
        let _ = write!(s, ",\"mode\":{}", json::quote(self.mode.name()));
        let _ = write!(s, ",\"strategy\":{}", json::quote(self.strategy.name()));
        let _ = write!(s, ",\"seed\":{}", self.seed);
        if let Some(reason) = self.partial_reason {
            let _ = write!(
                s,
                ",\"partial\":true,\"partial_reason\":\"{}\"",
                reason.tag()
            );
        }
        let _ = write!(
            s,
            ",\"universe\":{{\"enumerated\":{},\"collapsed\":{},\"targeted\":{}}}",
            self.grade.total_enumerated, self.grade.collapsed, self.grade.planned
        );
        let _ = write!(
            s,
            ",\"harvest\":{{\"rounds\":{},\"vectors\":{},\"detected\":{}}}",
            self.stats.harvest_rounds, self.stats.harvest_vectors, self.stats.harvest_detected
        );
        if self.mode == Mode::Combinational {
            let _ = write!(
                s,
                ",\"podem\":{{\"attempts\":{},\"vectors\":{},\"detected\":{},\"redundant\":{},\"aborted\":{}",
                self.stats.podem_attempts,
                self.stats.podem_vectors,
                self.stats.podem_detected,
                self.redundant.len(),
                self.aborted.len()
            );
            if self.stats.podem_skipped > 0 {
                let _ = write!(s, ",\"skipped\":{}", self.stats.podem_skipped);
            }
            let _ = write!(s, "}}");
            let _ = write!(
                s,
                ",\"compaction\":{{\"before\":{},\"removed\":{}",
                self.stats.pre_compaction, self.stats.compaction_removed
            );
            if self.stats.compaction_skipped {
                let _ = write!(s, ",\"skipped\":true");
            }
            let _ = write!(s, "}}");
        }
        if let Some(ss) = &self.sat {
            let _ = write!(
                s,
                ",\"sat\":{{\"solves\":{},\"confirmed_redundant\":{},\"promoted_redundant\":{},\
                 \"rescued\":{},\"unknown\":{},\"vectors\":{},\"max_frames_used\":{},\
                 \"cnf_files\":{}}}",
                ss.solves,
                ss.confirmed_redundant,
                ss.promoted_redundant,
                ss.rescued,
                ss.unknown,
                ss.vectors,
                ss.max_frames_used,
                ss.cnf_files
            );
        }
        let _ = write!(
            s,
            ",\"vectors\":{},\"vector_digest\":\"{:016x}\"",
            self.vectors.len(),
            self.vector_digest()
        );
        let _ = write!(
            s,
            ",\"coverage\":{:.6},\"testable_coverage\":{:.6}",
            self.coverage(),
            self.testable_coverage()
        );
        let _ = write!(s, ",\"redundant\":[");
        for (i, (name, fault)) in self.redundant.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"site\":{},\"kind\":{}}}",
                json::quote(name),
                json::quote(&fault.kind.to_string())
            );
        }
        let _ = write!(s, "],\"aborted\":[");
        for (i, (name, fault)) in self.aborted.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"site\":{},\"kind\":{}}}",
                json::quote(name),
                json::quote(&fault.kind.to_string())
            );
        }
        let _ = write!(s, "],\"grade\":{}", self.grade.to_json());
        s.push('}');
        s
    }
}

/// Looks up a fault site's debug name.
pub(crate) fn site_label(design: &Design, fault: Fault) -> String {
    let site = design.netlist.find_ref(fault.site);
    design.netlist.nets[site.index()].name.clone()
}

fn fmt_pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}
