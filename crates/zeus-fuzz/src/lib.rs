//! # zeus-fuzz
//!
//! Differential fuzzing for the Zeus toolchain.
//!
//! Zeus's reliability story is *one description, many consistent
//! interpretations*: the same elaborated design must mean the same
//! thing to the levelized graph simulator, the 64-lane packed
//! simulator, the switch-level baseline, fault campaigns and ATPG
//! replay. This crate turns that claim into an adversary:
//!
//! * [`gen`] draws seeded, fully deterministic, well-typed Zeus
//!   programs directly as [`zeus_syntax`] ASTs,
//! * [`oracle`] runs each program through the engines and cross-checks
//!   them (scalar vs packed lane-for-lane, graph vs switch-level,
//!   campaign resume-from-every-prefix vs fresh, ATPG replay-equality),
//!   downgrading any engine panic to a `Z999` finding via the existing
//!   `catch_panic` firewall,
//! * failures are deduplicated by signature (oracle + Z-code +
//!   divergence site), shrunk by the delta-debugging [`minimize`]
//!   module while re-checking the signature, and
//! * [`corpus`] renders each survivor as a standalone `.zeus`
//!   reproducer whose comment header replays the exact failing check.
//!
//! Everything is byte-deterministic for a given `(seed, budget)`:
//! worker count only changes wall-clock time, never findings, report
//! text or reproducer bytes. The *chaos* knob plants one artificial
//! divergence per oracle so the oracles themselves stay testable
//! (mutation-style self-tests live in this crate's test suite and run
//! in CI).

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod minimize;
pub mod oracle;

pub use corpus::ReplayHeader;
pub use gen::{case_seed, generate, GenProgram, DEFAULT_SIZE};
pub use minimize::{minimize, shrink_candidates};
pub use oracle::{run_case, CaseConfig, CaseOutcome, Finding, Oracle};

use std::path::PathBuf;

use zeus::Limits;
use zeus_syntax::print_program;

/// Everything a fuzz campaign needs. Construct with
/// [`FuzzConfig::new`] and override fields as needed.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed; every case derives its own streams from it.
    pub seed: u64,
    /// Number of cases to run.
    pub budget: u64,
    /// Worker threads. Only affects wall-clock time, never results.
    pub jobs: usize,
    /// Generator size class (see [`gen::DEFAULT_SIZE`]).
    pub size: u32,
    /// Simulation cycles per differential oracle.
    pub cycles: u32,
    /// Campaign vectors per fault for the resume oracle.
    pub campaign_vectors: u32,
    /// Vector cap for the ATPG oracle.
    pub atpg_max_vectors: usize,
    /// Resource budget for elaboration and simulation.
    pub limits: Limits,
    /// Plant an artificial divergence in this oracle (self-tests, CI
    /// plumbing checks). `None` for real fuzzing.
    pub chaos: Option<Oracle>,
    /// Directory for scratch checkpoint journals (created if absent).
    pub scratch: PathBuf,
    /// Predicate-evaluation budget per unique failure during
    /// minimization.
    pub max_shrink_evals: u32,
}

impl FuzzConfig {
    /// A config with the CLI defaults for `seed` and `budget`; scratch
    /// files go to `scratch`.
    pub fn new(seed: u64, budget: u64, scratch: PathBuf) -> FuzzConfig {
        FuzzConfig {
            seed,
            budget,
            jobs: 1,
            size: DEFAULT_SIZE,
            cycles: 6,
            campaign_vectors: 8,
            atpg_max_vectors: 16,
            limits: Limits::default(),
            chaos: None,
            scratch,
            max_shrink_evals: 200,
        }
    }

    fn case_config(&self, case: u64) -> CaseConfig {
        CaseConfig {
            cycles: self.cycles,
            campaign_vectors: self.campaign_vectors,
            atpg_max_vectors: self.atpg_max_vectors,
            limits: self.limits.clone(),
            chaos: self.chaos,
            scratch: self.scratch.clone(),
            tag: format!("{:x}-{case}", self.seed),
        }
    }
}

/// One deduplicated, minimized failure ready to persist.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The dedup signature (`oracle:code:site`).
    pub signature: String,
    /// The first finding that produced this signature.
    pub finding: Finding,
    /// Content-addressed reproducer file name (`zf-<hash>.zeus`).
    pub file_name: String,
    /// Full reproducer file contents (replay header + minimized
    /// program).
    pub contents: String,
    /// Size of the originally failing program text, in bytes.
    pub original_bytes: usize,
    /// Size of the minimized program text, in bytes.
    pub minimized_bytes: usize,
}

/// The outcome of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seed the campaign ran under.
    pub seed: u64,
    /// Cases requested.
    pub budget: u64,
    /// Generator size class.
    pub size: u32,
    /// Cases that ran to completion (including failing ones).
    pub completed: u64,
    /// Cases skipped on a resource limit.
    pub skipped: u64,
    /// Total findings before deduplication.
    pub raw_findings: u64,
    /// Deduplicated, minimized failures in first-seen case order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Renders the deterministic text report (no timing, no paths, no
    /// worker counts — byte-identical for identical campaigns).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("zeus-fuzz report\n");
        s.push_str(&format!("seed      : {}\n", self.seed));
        s.push_str(&format!("budget    : {}\n", self.budget));
        s.push_str(&format!("size      : {}\n", self.size));
        s.push_str(&format!("completed : {}\n", self.completed));
        s.push_str(&format!("skipped   : {}\n", self.skipped));
        s.push_str(&format!(
            "failures  : {} raw, {} unique\n",
            self.raw_findings,
            self.failures.len()
        ));
        for (i, f) in self.failures.iter().enumerate() {
            s.push_str(&format!("\n[{}] {}\n", i + 1, f.signature));
            s.push_str(&format!("    case      : {}\n", f.finding.case));
            s.push_str(&format!("    detail    : {}\n", f.finding.detail));
            s.push_str(&format!(
                "    reproducer: {} ({} -> {} bytes)\n",
                f.file_name, f.original_bytes, f.minimized_bytes
            ));
        }
        s
    }
}

/// Runs a fuzz campaign: generate, cross-check, deduplicate, minimize.
///
/// Cases are distributed over `cfg.jobs` threads by `case % jobs`;
/// results are merged back in case order and minimization runs on the
/// calling thread, so the report and every reproducer are
/// byte-identical whatever the thread count.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let _ = std::fs::create_dir_all(&cfg.scratch);
    let jobs = cfg.jobs.max(1);

    // Phase 1: run all cases, workers striped by case index.
    let mut merged: Vec<(u64, CaseOutcome)> = if jobs == 1 || cfg.budget <= 1 {
        (0..cfg.budget).map(|c| (c, run_one(cfg, c))).collect()
    } else {
        let mut chunks: Vec<Vec<(u64, CaseOutcome)>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs as u64)
                .map(|j| {
                    scope.spawn(move || {
                        (j..cfg.budget)
                            .step_by(jobs)
                            .map(|c| (c, run_one(cfg, c)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                chunks.push(h.join().expect("fuzz worker never panics"));
            }
        });
        chunks.into_iter().flatten().collect()
    };
    merged.sort_by_key(|(c, _)| *c);

    // Phase 2: count and deduplicate in case order.
    let mut completed = 0u64;
    let mut skipped = 0u64;
    let mut raw_findings = 0u64;
    let mut unique: Vec<Finding> = Vec::new();
    for (case, outcome) in merged {
        match outcome {
            CaseOutcome::SkippedLimit(_) => skipped += 1,
            CaseOutcome::Findings(findings) => {
                completed += 1;
                for mut f in findings {
                    raw_findings += 1;
                    f.case = case;
                    if !unique.iter().any(|u| u.signature() == f.signature()) {
                        unique.push(f);
                    }
                }
            }
        }
    }

    // Phase 3: minimize each unique failure and render its reproducer.
    let failures = unique
        .into_iter()
        .map(|finding| {
            let case = finding.case;
            let g = generate(cfg.seed, case, cfg.size);
            let original = print_program(&g.program);
            let vec_seed = case_seed(cfg.seed, case, 1);
            let cc = cfg.case_config(case);
            let signature = finding.signature();
            let mut keeps = |p: &zeus_syntax::Program| {
                let text = print_program(p);
                match run_case(&text, &g.top, vec_seed, &cc) {
                    CaseOutcome::Findings(fs) => fs.iter().any(|f| f.signature() == signature),
                    CaseOutcome::SkippedLimit(_) => false,
                }
            };
            let small = minimize(&g.program, cfg.max_shrink_evals, &mut keeps);
            let minimized = print_program(&small);
            let header = ReplayHeader {
                seed: cfg.seed,
                case,
                vec_seed,
                oracle: finding.oracle,
                code: finding.code.clone(),
                site: finding.site.clone(),
                top: g.top.clone(),
                cycles: cfg.cycles,
                vectors: cfg.campaign_vectors,
                atpg_max: cfg.atpg_max_vectors,
                chaos: cfg.chaos,
            };
            FuzzFailure {
                signature,
                file_name: header.file_name(),
                contents: header.render(&minimized),
                original_bytes: original.len(),
                minimized_bytes: minimized.len(),
                finding,
            }
        })
        .collect();

    FuzzReport {
        seed: cfg.seed,
        budget: cfg.budget,
        size: cfg.size,
        completed,
        skipped,
        raw_findings,
        failures,
    }
}

fn run_one(cfg: &FuzzConfig, case: u64) -> CaseOutcome {
    let g = generate(cfg.seed, case, cfg.size);
    let text = print_program(&g.program);
    run_case(
        &text,
        &g.top,
        case_seed(cfg.seed, case, 1),
        &cfg.case_config(case),
    )
}

/// The outcome of replaying one reproducer file.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The parsed replay header.
    pub header: ReplayHeader,
    /// Whether the recorded signature still reproduces.
    pub reproduced: bool,
    /// Every finding the replay produced (reproduced or not).
    pub findings: Vec<Finding>,
}

/// Replays one reproducer file (see [`corpus`] for the format).
///
/// # Errors
///
/// A human-readable message when the replay header is missing or
/// malformed. An intact header whose failure no longer reproduces is
/// *not* an error — that is the good case — so inspect
/// [`ReplayOutcome::reproduced`].
pub fn replay(text: &str, scratch: PathBuf) -> Result<ReplayOutcome, String> {
    let (header, program) = ReplayHeader::parse(text)?;
    let _ = std::fs::create_dir_all(&scratch);
    let cc = CaseConfig {
        cycles: header.cycles,
        campaign_vectors: header.vectors,
        atpg_max_vectors: header.atpg_max,
        limits: Limits::default(),
        chaos: header.chaos,
        scratch,
        tag: format!("replay-{:x}-{}", header.seed, header.case),
    };
    let outcome = run_case(&program, &header.top, header.vec_seed, &cc);
    let signature = header.signature();
    let findings = match outcome {
        CaseOutcome::Findings(fs) => fs,
        CaseOutcome::SkippedLimit(_) => Vec::new(),
    };
    let reproduced = findings.iter().any(|f| f.signature() == signature);
    Ok(ReplayOutcome {
        header,
        reproduced,
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("zeus-fuzz-test-{tag}"))
    }

    /// The engines agree on a clean seeded budget: the fuzzer's
    /// baseline smoke. A failure here is a real toolchain bug.
    #[test]
    fn clean_budget_finds_nothing() {
        let cfg = FuzzConfig::new(0x2E05_1983, 6, scratch("clean"));
        let report = run_fuzz(&cfg);
        assert_eq!(report.completed + report.skipped, 6);
        assert!(
            report.failures.is_empty(),
            "engines diverged:\n{}",
            report.render()
        );
    }

    /// A campaign the deadline stops is no finding: a zero deadline
    /// lets a small program elaborate (the governor reads the clock only
    /// every few dozen charges) but stops the resume-prefix oracle's
    /// first campaign before its first word, so the case is skipped. The
    /// stop skips only that oracle: what the printer fixpoint found
    /// before it, and a divergence planted in the interchange oracle
    /// after it, are still reported. (The lockstep oracles before it
    /// cannot plant one here: their simulators read the clock every
    /// cycle, so a zero deadline skips them.)
    #[test]
    fn a_case_whose_campaign_the_clock_stops_is_skipped() {
        let mut cc = CaseConfig::new(scratch("stopped"), "stopped".to_string());
        cc.limits.deadline = Some(std::time::Duration::ZERO);
        let text = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
                    BEGIN s := XOR(a,b); cout := AND(a,b) END;";
        let program = print_program(&zeus_syntax::parse_program(text).unwrap());
        match run_case(&program, "halfadder", 1, &cc) {
            CaseOutcome::SkippedLimit(site) => assert_eq!(site, "resume-prefix"),
            CaseOutcome::Findings(fs) => panic!("expected a skip, got findings {fs:?}"),
        }

        let found = |text: &str, cc: &CaseConfig| match run_case(text, "halfadder", 1, cc) {
            CaseOutcome::Findings(fs) => fs.iter().map(|f| f.oracle).collect::<Vec<_>>(),
            CaseOutcome::SkippedLimit(site) => panic!("the findings were dropped at {site}"),
        };
        assert_ne!(text, program, "the raw text must not be canonical");
        assert_eq!(found(text, &cc), [Oracle::Roundtrip]);
        cc.chaos = Some(Oracle::Interchange);
        assert_eq!(found(&program, &cc), [Oracle::Interchange]);
    }

    /// Mutation-style self-test: each differential oracle must detect
    /// its artificially injected divergence.
    #[test]
    fn chaos_self_test_every_differential_oracle() {
        for oracle in Oracle::DIFFERENTIAL {
            let mut cfg = FuzzConfig::new(7, 10, scratch(oracle.name()));
            cfg.chaos = Some(oracle);
            cfg.max_shrink_evals = 24;
            let report = run_fuzz(&cfg);
            assert!(
                report.failures.iter().any(|f| f.finding.oracle == oracle),
                "oracle {} missed its planted divergence:\n{}",
                oracle.name(),
                report.render()
            );
        }
    }

    /// Same findings, same report, same reproducer bytes — whatever
    /// the worker count.
    #[test]
    fn deterministic_across_runs_and_jobs() {
        let mk = |jobs: usize| {
            let mut cfg = FuzzConfig::new(21, 8, scratch(&format!("det{jobs}")));
            cfg.chaos = Some(Oracle::ScalarVsPacked);
            cfg.jobs = jobs;
            cfg.max_shrink_evals = 24;
            run_fuzz(&cfg)
        };
        let a = mk(1);
        let b = mk(3);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.failures.len(), b.failures.len());
        for (x, y) in a.failures.iter().zip(&b.failures) {
            assert_eq!(x.file_name, y.file_name);
            assert_eq!(x.contents, y.contents);
        }
    }

    /// A minimized reproducer replays to the same signature, and its
    /// minimized program is no larger than the original.
    #[test]
    fn reproducers_replay_and_shrink() {
        let mut cfg = FuzzConfig::new(13, 8, scratch("replay"));
        cfg.chaos = Some(Oracle::ScalarVsPacked);
        cfg.max_shrink_evals = 48;
        let report = run_fuzz(&cfg);
        let failure = report.failures.first().expect("chaos produces a failure");
        assert!(failure.minimized_bytes <= failure.original_bytes);
        let outcome = replay(&failure.contents, scratch("replay-rerun")).expect("header parses");
        assert!(
            outcome.reproduced,
            "reproducer lost its signature {}:\n{}",
            failure.signature, failure.contents
        );
    }
}
