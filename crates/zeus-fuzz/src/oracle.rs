//! The differential oracles and the per-case pipeline.
//!
//! One fuzz case flows through nine checks, each of which can emit a
//! [`Finding`]:
//!
//! 1. **roundtrip** — the printed program must re-parse and re-print to
//!    the identical bytes (printer fixpoint).
//! 2. **compile** — parse/check/elaborate must accept the generated
//!    program (the generator only emits well-typed subsets); resource
//!    limits (`Z9xx`) are *skips*, not findings, and so is a campaign or
//!    ATPG run the deadline stopped.
//! 3. **scalar-vs-packed** — the levelized [`zeus::Simulator`] and the
//!    64-lane [`zeus::PackedSim`], driven with identical vectors, must
//!    agree on every port, lane for lane, every cycle.
//! 4. **graph-vs-switch** — on the comparable subset (combinational
//!    designs), the semantics-graph simulator and the Bryant-style
//!    switch-level simulator must agree on every port every cycle.
//! 5. **resume-prefix** — a fault campaign resumed from *every* prefix
//!    of its checkpoint journal must reproduce the fresh report byte
//!    for byte.
//! 6. **atpg-replay** — the coverage a [`zeus::run_atpg`] report claims
//!    must equal a fresh campaign replaying the emitted vector set
//!    (after a text round-trip of the set itself).
//! 7. **opt** — the equivalence-gated optimizer's output must lockstep
//!    the unoptimized design on the boolean view of every port, cycle
//!    for cycle, under the *scalar* engine — an independent re-check of
//!    the optimizer's own (packed/exhaustive) verification gate.
//! 8. **interchange** — the design exported as `zeus netlist v1` text
//!    must re-import to the same digest and re-export byte-identically,
//!    and a barrage of seeded byte- and line-level mutations of the
//!    text must each import as either `Ok` or a Z-coded diagnostic —
//!    never a panic (`Z999`) and never a code-less error.
//! 9. **sat** — on small combinational designs, the CDCL solver's
//!    detectable/undetectable verdict for each stuck-at fault must
//!    agree with exhaustive enumeration of every input assignment on
//!    the scalar simulator (SAT redundancy proofs are sound *and*
//!    complete on this subset).
//!
//! Every oracle body runs behind [`zeus::catch_panic`]: a panic inside
//! any engine is downgraded to a `Z999` finding with the oracle name as
//! the divergence site instead of tearing the fuzzer down.
//!
//! The **chaos** knob artificially injects one divergence per oracle
//! (flipping an observed bit, corrupting a replayed report). It exists
//! so the oracles themselves are testable: a seeded regression proves
//! each one detects the planted divergence (mutation-style self-test).

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zeus::{
    catch_panic, enumerate_faults, optimize, run_atpg, run_campaign, run_campaign_with, AtpgConfig,
    CampaignConfig, CheckpointOptions, CoverageReport, Design, Diagnostic, Engine,
    FaultListOptions, Limits, OptConfig, PackedSim, Simulator, SwitchSim, Value, VectorSet,
    VectorStream, Zeus, LANES,
};

use crate::gen::case_seed;

/// Which check produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Oracle {
    /// Printer fixpoint through the real parser.
    Roundtrip,
    /// Parse/check/elaborate acceptance.
    Compile,
    /// Scalar vs 64-lane packed simulation.
    ScalarVsPacked,
    /// Graph vs switch-level simulation (combinational subset).
    GraphVsSwitch,
    /// Campaign resume-from-every-prefix vs fresh run.
    ResumePrefix,
    /// ATPG claimed grade vs replayed campaign.
    AtpgReplay,
    /// Optimized vs unoptimized netlist, scalar lockstep.
    OptLockstep,
    /// Netlist export/import byte stability plus mutation robustness.
    Interchange,
    /// SAT detectability verdict vs exhaustive input enumeration.
    Sat,
}

impl Oracle {
    /// Stable name used in signatures, reports and replay headers.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Roundtrip => "roundtrip",
            Oracle::Compile => "compile",
            Oracle::ScalarVsPacked => "scalar-vs-packed",
            Oracle::GraphVsSwitch => "graph-vs-switch",
            Oracle::ResumePrefix => "resume-prefix",
            Oracle::AtpgReplay => "atpg-replay",
            Oracle::OptLockstep => "opt",
            Oracle::Interchange => "interchange",
            Oracle::Sat => "sat",
        }
    }

    /// Parses a stable name back (replay headers, `--chaos`).
    pub fn from_name(name: &str) -> Option<Oracle> {
        Some(match name {
            "roundtrip" => Oracle::Roundtrip,
            "compile" => Oracle::Compile,
            "scalar-vs-packed" => Oracle::ScalarVsPacked,
            "graph-vs-switch" => Oracle::GraphVsSwitch,
            "resume-prefix" => Oracle::ResumePrefix,
            "atpg-replay" => Oracle::AtpgReplay,
            "opt" => Oracle::OptLockstep,
            "interchange" => Oracle::Interchange,
            "sat" => Oracle::Sat,
            _ => return None,
        })
    }

    /// The chaos-injectable differential oracles, for self-tests.
    pub const DIFFERENTIAL: [Oracle; 7] = [
        Oracle::ScalarVsPacked,
        Oracle::GraphVsSwitch,
        Oracle::ResumePrefix,
        Oracle::AtpgReplay,
        Oracle::OptLockstep,
        Oracle::Interchange,
        Oracle::Sat,
    ];
}

/// One deduplicable failure.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The oracle that fired.
    pub oracle: Oracle,
    /// Z-code class: the diagnostic's code for compile failures, `Z999`
    /// for caught panics, `Z301` for value/report divergences, `Z001`
    /// for round-trip breaks.
    pub code: String,
    /// Divergence site, e.g. `o0@c3`, `prefix@1`, `grade`.
    pub site: String,
    /// Human-readable one-liner.
    pub detail: String,
    /// The case that first produced it (set by the driver).
    pub case: u64,
}

impl Finding {
    /// The deduplication key: Z-code + oracle + divergence site.
    pub fn signature(&self) -> String {
        format!("{}:{}:{}", self.oracle.name(), self.code, self.site)
    }
}

/// Per-case execution knobs (shared by fresh runs, minimization and
/// corpus replay, so a reproducer reruns under identical conditions).
#[derive(Debug, Clone)]
pub struct CaseConfig {
    /// Simulation cycles per differential oracle.
    pub cycles: u32,
    /// Random vectors per fault for the campaign oracle.
    pub campaign_vectors: u32,
    /// Vector cap for the ATPG oracle.
    pub atpg_max_vectors: usize,
    /// Resource budget for elaboration and simulation.
    pub limits: Limits,
    /// Inject an artificial divergence into this oracle.
    pub chaos: Option<Oracle>,
    /// Directory for scratch checkpoint journals.
    pub scratch: PathBuf,
    /// Unique tag for this case's scratch files.
    pub tag: String,
}

impl CaseConfig {
    /// Defaults used by the CLI; `tag` must be unique per live case.
    pub fn new(scratch: PathBuf, tag: String) -> CaseConfig {
        CaseConfig {
            cycles: 6,
            campaign_vectors: 8,
            atpg_max_vectors: 16,
            limits: Limits::default(),
            chaos: None,
            scratch,
            tag,
        }
    }
}

/// What one case produced.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// Ran to completion; findings may be empty.
    Findings(Vec<Finding>),
    /// Hit a resource limit (`Z9xx`), or the deadline stopped a run and
    /// no other oracle found anything — not a bug, counted separately.
    SkippedLimit(String),
}

/// Runs the whole pipeline on one program text. `vec_seed` seeds the
/// input-vector streams (derived from `(seed, case)` by the driver, but
/// kept explicit so replays are self-contained).
pub fn run_case(text: &str, top: &str, vec_seed: u64, cc: &CaseConfig) -> CaseOutcome {
    let mut findings = Vec::new();

    // 1+2: parse / fixpoint / elaborate. `Zeus::parse` runs behind the
    // facade firewall, so engine panics surface as Z999 diagnostics.
    let z = match Zeus::parse(text) {
        Ok(z) => z,
        Err(e) => {
            if e.has_resource_limit() {
                return CaseOutcome::SkippedLimit("parse".to_string());
            }
            let code = first_code(&e).unwrap_or("Z001");
            findings.push(Finding {
                oracle: Oracle::Compile,
                code: code.to_string(),
                site: "parse".to_string(),
                detail: "generated program rejected by the parser/checker".to_string(),
                case: 0,
            });
            return CaseOutcome::Findings(findings);
        }
    };
    let reprinted = z.to_canonical_text();
    if reprinted != text {
        findings.push(Finding {
            oracle: Oracle::Roundtrip,
            code: "Z001".to_string(),
            site: "printer".to_string(),
            detail: "canonical print is not a fixpoint under re-parsing".to_string(),
            case: 0,
        });
    }
    let design = match z.elaborate_limited(top, &[], &cc.limits) {
        Ok(d) => d,
        Err(e) => {
            if e.has_resource_limit() {
                return CaseOutcome::SkippedLimit("elab".to_string());
            }
            let code = first_code(&e).unwrap_or("Z201");
            findings.push(Finding {
                oracle: Oracle::Compile,
                code: code.to_string(),
                site: "elab".to_string(),
                detail: "generated program rejected by elaboration".to_string(),
                case: 0,
            });
            return CaseOutcome::Findings(findings);
        }
    };

    // 3..9: the differential oracles, each behind the panic firewall.
    let oracles: [(Oracle, OracleFn); 7] = [
        (Oracle::ScalarVsPacked, scalar_vs_packed),
        (Oracle::GraphVsSwitch, graph_vs_switch),
        (Oracle::ResumePrefix, resume_prefix),
        (Oracle::AtpgReplay, atpg_replay),
        (Oracle::OptLockstep, opt_lockstep),
        (Oracle::Interchange, netlist_interchange),
        (Oracle::Sat, sat_vs_exhaustive),
    ];
    let mut stopped = None;
    for (oracle, f) in oracles {
        match catch_panic(|| f(&design, vec_seed, cc)) {
            Ok(OracleVerdict::Agree) => {}
            Ok(OracleVerdict::Skip) => {}
            Ok(OracleVerdict::Stopped) => {
                stopped.get_or_insert(oracle);
            }
            Ok(OracleVerdict::Diverged { code, site, detail }) => findings.push(Finding {
                oracle,
                code,
                site,
                detail,
                case: 0,
            }),
            Err(d) => findings.push(Finding {
                oracle,
                code: "Z999".to_string(),
                site: "panic".to_string(),
                detail: format!("engine panicked inside the {} oracle: {d}", oracle.name()),
                case: 0,
            }),
        }
    }
    match stopped {
        Some(oracle) if findings.is_empty() => CaseOutcome::SkippedLimit(oracle.name().to_string()),
        _ => CaseOutcome::Findings(findings),
    }
}

fn first_code(e: &zeus::Diagnostics) -> Option<&'static str> {
    e.iter().find_map(|d| d.code.map(|c| c.as_str()))
}

enum OracleVerdict {
    Agree,
    /// Not applicable to this design (or a resource limit inside the
    /// oracle) — silently inconclusive.
    Skip,
    /// The deadline stopped a campaign or ATPG run: its partial report
    /// cannot be compared. The case goes on to the next oracle, and is
    /// skipped only when no oracle found anything.
    Stopped,
    Diverged {
        code: String,
        site: String,
        detail: String,
    },
}

type OracleFn = fn(&Design, u64, &CaseConfig) -> OracleVerdict;

fn render(bits: &[Value]) -> String {
    bits.iter().map(|v| v.to_string()).collect()
}

/// An engine the lockstep oracles drive: forced inputs, budgeted steps
/// and a port's values in one lane.
trait Lockstep {
    /// The lanes compared after every cycle.
    const OBSERVED: &'static [usize] = &[0];
    fn set_rset(&mut self, v: bool);
    fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic>;
    fn try_step(&mut self) -> Result<(), Diagnostic>;
    fn port(&self, name: &str, lane: usize) -> Vec<Value>;
}

impl Lockstep for Simulator {
    fn set_rset(&mut self, v: bool) {
        Simulator::set_rset(self, v);
    }
    fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic> {
        Simulator::set_port(self, name, bits)
    }
    fn try_step(&mut self) -> Result<(), Diagnostic> {
        Simulator::try_step(self).map(drop)
    }
    fn port(&self, name: &str, _lane: usize) -> Vec<Value> {
        Simulator::port(self, name)
    }
}

impl Lockstep for PackedSim {
    /// The lowest and the highest lane.
    const OBSERVED: &'static [usize] = &[0, LANES - 1];
    fn set_rset(&mut self, v: bool) {
        PackedSim::set_rset(self, v);
    }
    fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic> {
        PackedSim::set_port(self, name, bits)
    }
    fn try_step(&mut self) -> Result<(), Diagnostic> {
        PackedSim::try_step(self).map(drop)
    }
    fn port(&self, name: &str, lane: usize) -> Vec<Value> {
        self.port_lane(name, lane)
    }
}

impl Lockstep for SwitchSim {
    fn set_rset(&mut self, v: bool) {
        SwitchSim::set_rset(self, v);
    }
    fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic> {
        SwitchSim::set_port(self, name, bits)
    }
    fn try_step(&mut self) -> Result<(), Diagnostic> {
        SwitchSim::try_step(self)
    }
    fn port(&self, name: &str, _lane: usize) -> Vec<Value> {
        SwitchSim::port(self, name)
    }
}

/// How one lockstep oracle runs: its name (for the chaos hook), the
/// labels of its two sides, the seed of its vector stream, and whether
/// cycle 0 holds RSET high on the zero vector before `cycles` stream
/// vectors (else the stream starts at cycle 0).
struct LockstepRun {
    oracle: Oracle,
    sides: [&'static str; 2],
    stream_seed: u64,
    reset: bool,
}

/// Drives `a` and `b` from one seeded vector stream and, after every
/// cycle, compares their step outcomes and every port of every lane `b`
/// exposes against `a`. The chaos hook flips `b`'s first bit of the
/// first port at the first stream cycle.
fn lockstep<A: Lockstep, B: Lockstep>(
    design: &Design,
    run: &LockstepRun,
    a: &mut A,
    b: &mut B,
    cc: &CaseConfig,
) -> OracleVerdict {
    let [la, lb] = run.sides;
    let mut stream = VectorStream::new(design, run.stream_seed);
    let first = u32::from(run.reset);
    if run.reset {
        a.set_rset(true);
        b.set_rset(true);
    }
    for cycle in 0..cc.cycles + first {
        let vector = if cycle < first {
            stream.zero_vector()
        } else {
            if run.reset {
                a.set_rset(false);
                b.set_rset(false);
            }
            stream.next_vector()
        };
        for (port, bits) in &vector {
            if a.set_port(port, bits).is_err() || b.set_port(port, bits).is_err() {
                return OracleVerdict::Skip;
            }
        }
        match (a.try_step(), b.try_step()) {
            (Ok(()), Ok(())) => {}
            (Err(x), Err(y)) if x.code == y.code => return OracleVerdict::Skip,
            (x, y) => {
                let cx = x.err().and_then(|d| d.code).map(|c| c.as_str());
                let cy = y.err().and_then(|d| d.code).map(|c| c.as_str());
                return OracleVerdict::Diverged {
                    code: cx.or(cy).unwrap_or("Z301").to_string(),
                    site: format!("step@c{cycle}"),
                    detail: format!(
                        "step outcome differs at cycle {cycle}: {la} {}, {lb} {}",
                        cx.unwrap_or("ok"),
                        cy.unwrap_or("ok")
                    ),
                };
            }
        }
        for (p, port) in design.ports.iter().enumerate() {
            let want = a.port(&port.name, 0);
            let mut got: Vec<Vec<Value>> =
                B::OBSERVED.iter().map(|&l| b.port(&port.name, l)).collect();
            if cc.chaos == Some(run.oracle) && cycle == first && p == 0 {
                // Mutation self-test hook: flip the first observed bit.
                if let Some(bit) = got[0].first_mut() {
                    *bit = flip(*bit);
                }
            }
            if got.iter().any(|lane| *lane != want) {
                let shown = match B::OBSERVED {
                    [_] => render(&got[0]),
                    lanes => lanes
                        .iter()
                        .zip(&got)
                        .map(|(l, bits)| format!("lane{l} {}", render(bits)))
                        .collect::<Vec<_>>()
                        .join(" "),
                };
                return OracleVerdict::Diverged {
                    code: "Z301".to_string(),
                    site: format!("{}@c{cycle}", port.name),
                    detail: format!(
                        "port {} at cycle {cycle}: {la} {} vs {lb} {shown}",
                        port.name,
                        render(&want)
                    ),
                };
            }
        }
    }
    OracleVerdict::Agree
}

/// Oracle 3: scalar vs packed, lane for lane.
fn scalar_vs_packed(design: &Design, vec_seed: u64, cc: &CaseConfig) -> OracleVerdict {
    let Ok(mut sc) = Simulator::with_limits(design.clone(), &cc.limits) else {
        return OracleVerdict::Skip;
    };
    let Ok(mut pk) = PackedSim::with_limits(design.clone(), &cc.limits) else {
        return OracleVerdict::Skip;
    };
    let run = LockstepRun {
        oracle: Oracle::ScalarVsPacked,
        sides: ["scalar", "packed"],
        stream_seed: case_seed(vec_seed, 0, 1),
        reset: true,
    };
    lockstep(design, &run, &mut sc, &mut pk, cc)
}

fn flip(v: Value) -> Value {
    match v {
        Value::Zero => Value::One,
        _ => Value::Zero,
    }
}

/// Oracle 4: graph vs switch-level, on the comparable (combinational)
/// subset. Sequential designs are skipped: the switch-level engine
/// models charge storage differently enough that lockstep equality is
/// only contractual for combinational networks.
fn graph_vs_switch(design: &Design, vec_seed: u64, cc: &CaseConfig) -> OracleVerdict {
    if design.netlist.registers().count() > 0 {
        return OracleVerdict::Skip;
    }
    let Ok(mut gr) = Simulator::with_limits(design.clone(), &cc.limits) else {
        return OracleVerdict::Skip;
    };
    let mut sw = SwitchSim::with_limits(design, &cc.limits);
    let run = LockstepRun {
        oracle: Oracle::GraphVsSwitch,
        sides: ["graph", "switch"],
        stream_seed: case_seed(vec_seed, 0, 2),
        reset: false,
    };
    lockstep(design, &run, &mut gr, &mut sw, cc)
}

/// Oracle 5: campaign resume-from-every-prefix vs fresh run.
fn resume_prefix(design: &Design, vec_seed: u64, cc: &CaseConfig) -> OracleVerdict {
    let list = enumerate_faults(design, &FaultListOptions::default());
    if list.faults.is_empty() {
        return OracleVerdict::Skip;
    }
    let mut cfg = CampaignConfig::new(
        Engine::Graph,
        cc.campaign_vectors,
        case_seed(vec_seed, 0, 3),
    );
    cfg.limits = cc.limits.clone();
    let fresh = match complete(run_campaign(design, &list, &cfg), "campaign") {
        Ok(json) => json,
        Err(v) => return v,
    };

    let path = cc.scratch.join(format!("{}-resume.journal", cc.tag));
    let _ = std::fs::remove_file(&path);
    let journaled = match complete(
        run_campaign_with(design, &list, &cfg, Some(&CheckpointOptions::new(&path))),
        "journal",
    ) {
        Ok(json) => json,
        Err(v) => return v,
    };
    if journaled != fresh {
        let _ = std::fs::remove_file(&path);
        return OracleVerdict::Diverged {
            code: "Z301".to_string(),
            site: "journaled-vs-fresh".to_string(),
            detail: "a journaled campaign differs from an unjournaled one".to_string(),
        };
    }
    let Ok(full) = std::fs::read_to_string(&path) else {
        let _ = std::fs::remove_file(&path);
        return OracleVerdict::Skip;
    };
    let lines: Vec<&str> = full.lines().collect();
    let entries = lines.len().saturating_sub(1);
    for keep in 0..entries {
        let mut prefix: String = lines[..1 + keep].join("\n");
        prefix.push('\n');
        if std::fs::write(&path, prefix).is_err() {
            break;
        }
        let resumed = match complete(
            run_campaign_with(design, &list, &cfg, Some(&CheckpointOptions::resume(&path))),
            "resume",
        ) {
            Ok(json) => json,
            Err(v) => {
                let _ = std::fs::remove_file(&path);
                return v;
            }
        };
        let resumed = if cc.chaos == Some(Oracle::ResumePrefix) && keep == 0 {
            // Mutation self-test hook: corrupt the resumed report.
            format!("{resumed}#chaos")
        } else {
            resumed
        };
        if resumed != fresh {
            let _ = std::fs::remove_file(&path);
            return OracleVerdict::Diverged {
                code: "Z301".to_string(),
                site: format!("prefix@{keep}"),
                detail: format!(
                    "campaign resumed from a {keep}-entry journal prefix differs from a fresh run"
                ),
            };
        }
    }
    let _ = std::fs::remove_file(&path);
    OracleVerdict::Agree
}

/// Oracle 6: the grade an ATPG report claims must equal a campaign
/// replaying the emitted vector set, after a text round-trip.
fn atpg_replay(design: &Design, vec_seed: u64, cc: &CaseConfig) -> OracleVerdict {
    let cfg = AtpgConfig {
        seed: case_seed(vec_seed, 0, 4),
        max_vectors: cc.atpg_max_vectors,
        limits: cc.limits.clone(),
        ..AtpgConfig::default()
    };
    let report = match run_atpg(design, &cfg) {
        Ok(r) if r.partial => return OracleVerdict::Stopped,
        Ok(r) => r,
        Err(d) => return diag_verdict(d, "atpg"),
    };
    let set = match VectorSet::parse(&report.vectors.to_text()) {
        Ok(s) => s,
        Err(_) => {
            return OracleVerdict::Diverged {
                code: "Z301".to_string(),
                site: "vector-roundtrip".to_string(),
                detail: "emitted vector set does not re-parse".to_string(),
            }
        }
    };
    let mut gcfg = CampaignConfig::replay(Engine::Graph, set);
    gcfg.limits = cc.limits.clone();
    let list = enumerate_faults(design, &FaultListOptions::default());
    let replayed = match complete(run_campaign(design, &list, &gcfg), "replay") {
        Ok(json) => json,
        Err(v) => return v,
    };
    let replayed = if cc.chaos == Some(Oracle::AtpgReplay) {
        format!("{replayed}#chaos")
    } else {
        replayed
    };
    if replayed != report.grade.to_json() {
        return OracleVerdict::Diverged {
            code: "Z301".to_string(),
            site: "grade".to_string(),
            detail: "replaying the emitted vector set does not reproduce the claimed grade"
                .to_string(),
        };
    }
    OracleVerdict::Agree
}

/// Oracle 7: optimized vs unoptimized lockstep under the scalar engine.
///
/// `optimize` carries its own verification gate, the packed miter of
/// `zeus_sim::equiv` (exhaustive enumeration or packed random lockstep);
/// this oracle re-checks the result on the scalar engine, which the gate
/// never uses, on fuzz-generated programs the bundled designs don't
/// resemble. The compared observable is the gate's own
/// contract: the *boolean view* of every port, cycle for cycle (raw
/// NOINFL-vs-UNDEF distinctions on undriven nets are not preserved by
/// contribution-exact rewrites and are invisible to every downstream
/// engine). A gate refusal (`optimize` returning `Err`) is itself a
/// finding — the pipeline produced a netlist its verifier rejected.
fn opt_lockstep(design: &Design, vec_seed: u64, cc: &CaseConfig) -> OracleVerdict {
    let ocfg = OptConfig {
        limits: cc.limits.clone(),
        ..OptConfig::default()
    };
    let optimized = match optimize(design, &ocfg) {
        Ok(o) => o.design,
        Err(d) => return diag_verdict(d, "gate"),
    };
    let Ok(mut base) = Simulator::with_limits(design.clone(), &cc.limits) else {
        return OracleVerdict::Skip;
    };
    let Ok(mut opt) = Simulator::with_limits(optimized, &cc.limits) else {
        return OracleVerdict::Skip;
    };
    // Identical RNG streams: when the design uses RANDOM the optimizer
    // leaves the netlist untouched, so both sides draw identically.
    let rng_seed = case_seed(vec_seed, 0, 5);
    base.reseed(rng_seed);
    opt.reseed(rng_seed);
    let run = LockstepRun {
        oracle: Oracle::OptLockstep,
        sides: ["unoptimized", "optimized"],
        stream_seed: case_seed(vec_seed, 0, 6),
        reset: true,
    };
    lockstep(design, &run, &mut base, &mut opt, cc)
}

/// Oracle 8: netlist interchange. Three properties on every design the
/// pipeline produced:
///
/// * **round trip** — `netlist_to_text` → `import_design` must accept
///   its own output, reproduce the validated digest, and re-export to
///   the identical bytes;
/// * **mutation robustness** — seeded byte flips, insertions,
///   deletions, truncations, line swaps/duplications and CRLF splices
///   of the text must each come back `Ok` or as a Z-coded diagnostic,
///   never a firewalled panic (`Z999`) and never a code-less error;
/// * the importer runs under the case's own [`Limits`], so resource
///   trips inside a mutant are legitimate Z9xx outcomes, not findings.
fn netlist_interchange(design: &Design, vec_seed: u64, cc: &CaseConfig) -> OracleVerdict {
    let text = zeus::netlist_to_text(design);
    let reimported = match zeus::import_design(&text, &cc.limits) {
        Ok(d) => d,
        Err(d) => {
            if d.is_resource_limit() {
                return OracleVerdict::Skip;
            }
            return OracleVerdict::Diverged {
                code: d.code.map(|c| c.as_str()).unwrap_or("Z301").to_string(),
                site: "reimport".to_string(),
                detail: format!("exported netlist text does not re-import: {d}"),
            };
        }
    };
    if zeus::validated_digest(&reimported) != zeus::validated_digest(design) {
        return OracleVerdict::Diverged {
            code: "Z301".to_string(),
            site: "digest".to_string(),
            detail: "re-imported design does not reproduce the validated digest".to_string(),
        };
    }
    let mut second = zeus::netlist_to_text(&reimported);
    if cc.chaos == Some(Oracle::Interchange) {
        // Mutation self-test hook: corrupt the re-exported bytes.
        second.push_str("#chaos\n");
    }
    if second != text {
        return OracleVerdict::Diverged {
            code: "Z301".to_string(),
            site: "byte-stability".to_string(),
            detail: "export -> import -> export is not byte-identical".to_string(),
        };
    }

    // Mutation barrage: hostile variants of a known-good payload.
    let mut rng = StdRng::seed_from_u64(case_seed(vec_seed, 0, 7));
    let bytes = text.as_bytes();
    for round in 0..12u32 {
        let mut m = bytes.to_vec();
        match rng.gen_range(0..6u32) {
            0 => {
                // Flip one byte.
                let i = rng.gen_range(0..m.len());
                m[i] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => {
                // Delete one byte.
                let i = rng.gen_range(0..m.len());
                m.remove(i);
            }
            2 => {
                // Insert printable-ish noise.
                let i = rng.gen_range(0..=m.len());
                m.insert(i, 0x20 + rng.gen_range(0..0x5fu32) as u8);
            }
            3 => {
                // Truncate.
                m.truncate(rng.gen_range(0..m.len()));
            }
            4 => {
                // Structural: duplicate or drop one whole line.
                let mut lines: Vec<&[u8]> = text.as_bytes().split(|&b| b == b'\n').collect();
                let i = rng.gen_range(0..lines.len());
                if rng.gen_range(0..2u32) == 0 {
                    let dup = lines[i];
                    lines.insert(i, dup);
                } else {
                    lines.remove(i);
                }
                m = lines.join(&b'\n');
            }
            _ => {
                // CRLF splice at one line break.
                m = text
                    .replacen('\n', "\r\n", 1 + rng.gen_range(0..3usize))
                    .into_bytes();
            }
        }
        let mutated = String::from_utf8_lossy(&m).into_owned();
        match zeus::import_design(&mutated, &cc.limits) {
            Ok(_) => {}
            Err(d) => {
                let code = d.code.map(|c| c.as_str());
                if code.is_none() || code == Some("Z999") {
                    return OracleVerdict::Diverged {
                        code: "Z999".to_string(),
                        site: format!("mutant@{round}"),
                        detail: format!("mutated netlist text produced a non-Z-coded failure: {d}"),
                    };
                }
            }
        }
    }
    OracleVerdict::Agree
}

/// Oracle 9: the CDCL solver's detectability verdict for every
/// stuck-at fault must agree with exhaustive enumeration of all `2^n`
/// input assignments on the scalar simulator — on the subset where
/// enumeration is exact and cheap (combinational, no RANDOM, no RSET,
/// total input width ≤ 12). An UNSAT here *is* a redundancy proof, so
/// a disagreement in either direction is a soundness or completeness
/// bug in the encoder or solver.
fn sat_vs_exhaustive(design: &Design, _vec_seed: u64, cc: &CaseConfig) -> OracleVerdict {
    if design.netlist.registers().count() > 0
        || design
            .netlist
            .nodes
            .iter()
            .any(|n| matches!(n.op, zeus::NodeOp::Random))
        || design.rset.is_some()
    {
        return OracleVerdict::Skip;
    }
    let ports: Vec<(String, usize)> = design
        .inputs()
        .map(|p| (p.name.clone(), p.width()))
        .collect();
    let width: usize = ports.iter().map(|(_, w)| w).sum();
    if width == 0 || width > 12 {
        return OracleVerdict::Skip;
    }
    let list = enumerate_faults(design, &FaultListOptions::default());
    if list.faults.is_empty() {
        return OracleVerdict::Skip;
    }
    let mut golden = match Simulator::with_limits(design.clone(), &cc.limits) {
        Ok(s) => s,
        Err(_) => return OracleVerdict::Skip,
    };
    // A handful of faults keeps the case cheap; the cap is per case,
    // and the driver varies designs, so the universe is still swept.
    for (k, &fault) in list.faults.iter().take(24).enumerate() {
        let mut faulty = match Simulator::with_limits(design.clone(), &cc.limits) {
            Ok(s) => s,
            Err(_) => return OracleVerdict::Skip,
        };
        if faulty.inject(fault).is_err() {
            return OracleVerdict::Skip;
        }
        let mut brute_detects = false;
        for a in 0..(1u64 << width) {
            let mut off = 0;
            for (name, w) in &ports {
                let bits: Vec<Value> = (0..*w)
                    .map(|i| {
                        if (a >> (off + i)) & 1 == 1 {
                            Value::One
                        } else {
                            Value::Zero
                        }
                    })
                    .collect();
                off += w;
                if golden.set_port(name, &bits).is_err() || faulty.set_port(name, &bits).is_err() {
                    return OracleVerdict::Skip;
                }
            }
            if golden.try_step().is_err() || faulty.try_step().is_err() {
                return OracleVerdict::Skip;
            }
            if design
                .outputs()
                .any(|p| golden.port(&p.name) != faulty.port(&p.name))
            {
                brute_detects = true;
                break;
            }
        }
        let mut gov = cc.limits.governor();
        let opts = zeus::EncodeOptions {
            frames: 1,
            init_good: None,
            init_faulty: None,
        };
        let det = match zeus::encode_detection(design, fault, &opts, &mut gov) {
            Ok(d) => d,
            Err(_) => return OracleVerdict::Skip,
        };
        let mut solver = zeus::Solver::from_cnf(&det.cnf);
        let mut sat_detects = match solver.solve(50_000, &mut gov) {
            zeus::SatOutcome::Sat(_) => true,
            zeus::SatOutcome::Unsat => false,
            zeus::SatOutcome::Unknown => return OracleVerdict::Skip,
        };
        if cc.chaos == Some(Oracle::Sat) && k == 0 {
            // Mutation self-test hook: flip the solver's verdict.
            sat_detects = !sat_detects;
        }
        if sat_detects != brute_detects {
            return OracleVerdict::Diverged {
                code: "Z301".to_string(),
                site: format!("fault@{k}"),
                detail: format!(
                    "fault {k}: SAT says {}, exhaustive enumeration of {} assignments says {}",
                    if sat_detects {
                        "detectable"
                    } else {
                        "undetectable"
                    },
                    1u64 << width,
                    if brute_detects {
                        "detectable"
                    } else {
                        "undetectable"
                    }
                ),
            };
        }
    }
    OracleVerdict::Agree
}

/// A completed campaign's JSON report. A campaign the deadline stopped
/// is [`OracleVerdict::Stopped`]; an error is classified by
/// [`diag_verdict`].
fn complete(run: Result<CoverageReport, Diagnostic>, site: &str) -> Result<String, OracleVerdict> {
    match run {
        Ok(r) if r.partial.is_some() => Err(OracleVerdict::Stopped),
        Ok(r) => Ok(r.to_json()),
        Err(d) => Err(diag_verdict(d, site)),
    }
}

/// Classifies a diagnostic escaping a campaign/ATPG oracle: resource
/// limits are skips, anything else is a finding carrying its Z-code.
fn diag_verdict(d: zeus::Diagnostic, site: &str) -> OracleVerdict {
    if d.is_resource_limit() {
        return OracleVerdict::Skip;
    }
    OracleVerdict::Diverged {
        code: d.code.map(|c| c.as_str()).unwrap_or("Z301").to_string(),
        site: site.to_string(),
        detail: format!("unexpected diagnostic: {d}"),
    }
}
