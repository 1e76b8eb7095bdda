//! Crash-safe campaign properties: resuming from any checkpoint prefix
//! reproduces the uninterrupted report byte for byte, worker panics are
//! contained to one fault word, and interruption or the deadline yields
//! partial reports.

use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use zeus_elab::{elaborate, Design};
use zeus_fault::{
    enumerate_faults, run_campaign, run_campaign_packed, run_campaign_packed_with,
    run_campaign_with, CampaignConfig, CheckpointOptions, Engine, FaultListOptions, Outcome,
    PartialReason, UndetectedReason,
};
use zeus_syntax::parse_program;

/// Large enough to enumerate several 64-fault words (with bridges on).
const BIG: &str = "TYPE big = COMPONENT \
     (IN a,b,c,d,e,f,g,h: boolean; OUT p,q,r,s,t,u,v,w: boolean) IS \
     BEGIN \
       p := XOR(AND(a,b), OR(c,d)); \
       q := NAND(XOR(e,f), NOR(g,h)); \
       r := AND(XOR(a,c), OR(e,g)); \
       s := XOR(AND(b,d), NAND(f,h)); \
       t := OR(NAND(a,e), XOR(b,f)); \
       u := NOR(AND(c,g), OR(d,h)); \
       v := XOR(NOR(a,h), AND(d,e)); \
       w := NAND(OR(b,g), XOR(c,f)) \
     END;";

fn big_design() -> Design {
    elaborate(&parse_program(BIG).unwrap(), "big", &[]).unwrap()
}

fn big_list(d: &Design) -> zeus_fault::FaultList {
    enumerate_faults(
        d,
        &FaultListOptions {
            bridges: true,
            ..FaultListOptions::default()
        },
    )
}

static UNIQUE: AtomicUsize = AtomicUsize::new(0);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("zeus-fault-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{name}-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Truncates a journal file to its header plus the first `keep` entries.
fn truncate_journal(path: &PathBuf, keep: usize) -> usize {
    let text = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let entries = lines.len() - 1;
    let keep = keep.min(entries);
    let mut out: String = lines[..1 + keep].join("\n");
    out.push('\n');
    std::fs::write(path, out).unwrap();
    entries
}

/// A fresh leaked cancellation flag (CampaignConfig wants `&'static`).
fn flag(initial: bool) -> &'static AtomicBool {
    Box::leak(Box::new(AtomicBool::new(initial)))
}

#[test]
fn the_test_design_spans_multiple_words() {
    let d = big_design();
    let list = big_list(&d);
    assert!(
        list.faults.len() > zeus_sim::LANES,
        "need >1 word, got {} faults",
        list.faults.len()
    );
}

#[test]
fn scalar_checkpoint_resumes_under_packed_and_vice_versa() {
    let d = big_design();
    let list = big_list(&d);
    let cfg = CampaignConfig::new(Engine::Graph, 12, 3);
    let straight = run_campaign(&d, &list, &cfg).unwrap();

    // Scalar writes the journal, packed resumes from a prefix of it.
    let path = tmp("cross.jsonl");
    run_campaign_with(&d, &list, &cfg, Some(&CheckpointOptions::new(&path))).unwrap();
    truncate_journal(&path, 1);
    let resumed =
        run_campaign_packed_with(&d, &list, &cfg, 3, Some(&CheckpointOptions::resume(&path)))
            .unwrap();
    assert_eq!(straight.to_json(), resumed.to_json());
    assert_eq!(straight.to_text(), resumed.to_text());

    // Packed writes the journal, scalar resumes.
    let path = tmp("cross2.jsonl");
    run_campaign_packed_with(&d, &list, &cfg, 2, Some(&CheckpointOptions::new(&path))).unwrap();
    truncate_journal(&path, 1);
    let resumed =
        run_campaign_with(&d, &list, &cfg, Some(&CheckpointOptions::resume(&path))).unwrap();
    assert_eq!(straight.to_json(), resumed.to_json());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn worker_panic_is_contained_to_one_word() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep chaos panics quiet
    let d = big_design();
    let list = big_list(&d);

    // Two chaos attempts: both tries at word 1 panic, so its faults are
    // classified tool-error and the campaign still completes fully.
    let mut cfg = CampaignConfig::new(Engine::Graph, 12, 3);
    cfg.chaos_panic_word = Some(1);
    cfg.chaos_panic_attempts = 2;
    let word1 = list.faults.len().min(2 * zeus_sim::LANES) - zeus_sim::LANES;
    for report in [
        run_campaign(&d, &list, &cfg).unwrap(),
        run_campaign_packed(&d, &list, &cfg, 3).unwrap(),
    ] {
        assert_eq!(report.total(), list.faults.len(), "campaign completed");
        assert_eq!(report.tool_errors(), word1, "exactly word 1 poisoned");
        assert!(report.partial.is_none());
        assert!(report.to_json().contains("\"tool_errors\":"));
        assert!(report.to_text().contains("tool errors:"));
        for (i, r) in report.results.iter().enumerate() {
            let in_word1 = (zeus_sim::LANES..2 * zeus_sim::LANES).contains(&i);
            assert_eq!(
                matches!(r.outcome, Outcome::ToolError),
                in_word1,
                "fault {i}"
            );
        }
    }

    // One chaos attempt: the retry (on a fresh simulator) succeeds and
    // the report is byte-identical to an unpoisoned run.
    let clean = run_campaign(&d, &list, &CampaignConfig::new(Engine::Graph, 12, 3)).unwrap();
    cfg.chaos_panic_attempts = 1;
    let retried = run_campaign(&d, &list, &cfg).unwrap();
    assert_eq!(clean.to_json(), retried.to_json());
    let retried = run_campaign_packed(&d, &list, &cfg, 2).unwrap();
    assert_eq!(clean.to_json(), retried.to_json());
    std::panic::set_hook(prev);
}

#[test]
fn cancellation_yields_a_partial_report_and_resume_completes_it() {
    let d = big_design();
    let list = big_list(&d);
    let straight = run_campaign(&d, &list, &CampaignConfig::new(Engine::Graph, 12, 3)).unwrap();

    for packed in [false, true] {
        let path = tmp("cancel.jsonl");
        let mut cfg = CampaignConfig::new(Engine::Graph, 12, 3);
        cfg.limits.cancel = Some(flag(true)); // cancelled before the first word
        let opts = CheckpointOptions::new(&path);
        let partial = if packed {
            run_campaign_packed_with(&d, &list, &cfg, 2, Some(&opts)).unwrap()
        } else {
            run_campaign_with(&d, &list, &cfg, Some(&opts)).unwrap()
        };
        assert_eq!(partial.partial, Some(PartialReason::Interrupted));
        assert_eq!(partial.total(), 0);
        assert_eq!(partial.planned, list.faults.len());
        assert!(partial.to_json().contains("\"partial\":true"));
        assert!(partial
            .to_json()
            .contains("\"partial_reason\":\"interrupted\""));
        assert!(partial.to_text().contains("PARTIAL (interrupted)"));

        // Resume with the flag lowered: completes, byte-identical.
        cfg.limits.cancel = Some(flag(false));
        let opts = CheckpointOptions::resume(&path);
        let resumed = if packed {
            run_campaign_packed_with(&d, &list, &cfg, 2, Some(&opts)).unwrap()
        } else {
            run_campaign_with(&d, &list, &cfg, Some(&opts)).unwrap()
        };
        assert!(resumed.partial.is_none());
        assert_eq!(straight.to_json(), resumed.to_json());
        assert_eq!(straight.to_text(), resumed.to_text());
        let _ = std::fs::remove_file(&path);
    }
}

/// The stop flag is read in the golden trace too, not only between
/// words: a raised flag stops a campaign far longer than its test
/// before the trace records its vectors.
#[test]
fn a_raised_flag_stops_the_golden_trace() {
    let d = big_design();
    let list = big_list(&d);
    let mut cfg = CampaignConfig::new(Engine::Graph, 500_000, 3);
    cfg.limits.cancel = Some(flag(true));
    for jobs in [1, 3] {
        let started = Instant::now();
        let report = run_campaign_packed(&d, &list, &cfg, jobs).unwrap();
        let took = started.elapsed();
        assert_eq!(
            report.partial,
            Some(PartialReason::Interrupted),
            "jobs {jobs}"
        );
        assert_eq!(report.total(), 0, "jobs {jobs}");
        assert!(took < Duration::from_secs(2), "jobs {jobs}: took {took:?}");
    }
}

#[test]
fn campaign_deadline_yields_a_partial_report() {
    let d = big_design();
    let list = big_list(&d);
    let mut cfg = CampaignConfig::new(Engine::Graph, 12, 3);
    cfg.limits.deadline = Some(Duration::ZERO);
    let report = run_campaign(&d, &list, &cfg).unwrap();
    assert_eq!(report.partial, Some(PartialReason::DeadlineExceeded));
    assert!(report.to_json().contains("\"partial_reason\":\"deadline\""));
    let report = run_campaign_packed(&d, &list, &cfg, 2).unwrap();
    assert_eq!(report.partial, Some(PartialReason::DeadlineExceeded));
}

/// The deadline stops a campaign and never decides an outcome: whether
/// it lands before the first word, mid-way or never, every fault the
/// report lists carries the unbounded run's outcome, and none is
/// `budget-exhausted` (the run has no fuel or step pressure).
#[test]
fn a_deadline_only_stops_the_campaign() {
    let d = big_design();
    let list = big_list(&d);
    let cfg = CampaignConfig::new(Engine::Graph, 2000, 3);
    let started = Instant::now();
    let full = run_campaign_packed(&d, &list, &cfg, 1).unwrap();
    let took = started.elapsed();
    assert!(full.partial.is_none());
    let want: HashMap<_, _> = full.results.iter().map(|r| (r.fault, &r.outcome)).collect();

    for deadline in [Duration::ZERO, took / 8, took / 3, took / 2, took * 4] {
        for jobs in [1, 3] {
            let mut bounded = cfg.clone();
            bounded.limits.deadline = Some(deadline);
            let report = run_campaign_packed(&d, &list, &bounded, jobs).unwrap();
            let at = format!("deadline {deadline:?}, jobs {jobs}");
            match report.partial {
                None => assert_eq!(report.to_json(), full.to_json(), "{at}"),
                Some(reason) => assert_eq!(reason, PartialReason::DeadlineExceeded, "{at}"),
            }
            for r in &report.results {
                assert_ne!(
                    r.outcome,
                    Outcome::Undetected(UndetectedReason::BudgetExhausted),
                    "{at}: {}",
                    r.site_name
                );
                assert_eq!(
                    Some(&&r.outcome),
                    want.get(&r.fault),
                    "{at}: {}",
                    r.site_name
                );
            }
        }
    }
}

/// The deadline bounds the golden trace and each word, not only the gap
/// between words: a campaign far too long for its deadline stops soon
/// after it with a partial report, on every runner and engine. The
/// design's `AND` output stuck-at-0 is undetectable, so that fault's own
/// run lasts every vector.
#[test]
fn a_deadline_stops_a_long_campaign_promptly() {
    let src = "TYPE red = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
               BEGIN s := OR(a, AND(a,b)) END;";
    let d = elaborate(&parse_program(src).unwrap(), "red", &[]).unwrap();
    let list = big_list(&d);
    let deadline = Duration::from_millis(100);
    for engine in [Engine::Graph, Engine::Switch] {
        let mut cfg = CampaignConfig::new(engine, 50_000_000, 3);
        cfg.limits.deadline = Some(deadline);
        for jobs in [0, 1, 3] {
            let started = Instant::now();
            let report = if jobs == 0 {
                run_campaign(&d, &list, &cfg).unwrap()
            } else {
                run_campaign_packed(&d, &list, &cfg, jobs).unwrap()
            };
            let took = started.elapsed();
            let at = format!("{}, jobs {jobs}", engine.name());
            assert_eq!(
                report.partial,
                Some(PartialReason::DeadlineExceeded),
                "{at}"
            );
            assert!(took < deadline * 20, "{at}: took {took:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash anywhere: a journal truncated to ANY prefix of completed
    /// words resumes to a report byte-identical to the uninterrupted
    /// run, scalar and packed alike.
    #[test]
    fn resume_from_any_prefix_is_byte_identical(
        keep in 0usize..6,
        jobs in 1usize..4,
        packed in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let d = big_design();
        let list = big_list(&d);
        let cfg = CampaignConfig::new(Engine::Graph, 10, seed);
        let straight = run_campaign(&d, &list, &cfg).unwrap();

        let path = tmp("prefix.jsonl");
        let opts = CheckpointOptions::new(&path);
        if packed {
            run_campaign_packed_with(&d, &list, &cfg, jobs, Some(&opts)).unwrap();
        } else {
            run_campaign_with(&d, &list, &cfg, Some(&opts)).unwrap();
        }
        truncate_journal(&path, keep);

        let opts = CheckpointOptions::resume(&path);
        let resumed = if packed {
            run_campaign_packed_with(&d, &list, &cfg, jobs, Some(&opts)).unwrap()
        } else {
            run_campaign_with(&d, &list, &cfg, Some(&opts)).unwrap()
        };
        prop_assert_eq!(straight.to_json(), resumed.to_json());
        prop_assert_eq!(straight.to_text(), resumed.to_text());
        let _ = std::fs::remove_file(&path);
    }
}
