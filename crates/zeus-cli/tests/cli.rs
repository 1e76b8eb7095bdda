//! End-to-end tests of the `zeusc` binary.

use std::process::Command;

fn zeusc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_zeusc"))
        .args(args)
        .output()
        .expect("spawn zeusc");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn lists_examples() {
    let (ok, stdout, _) = zeusc(&["examples"]);
    assert!(ok);
    for name in ["@adders", "@blackjack", "@patternmatch", "@am2901"] {
        assert!(stdout.contains(name), "{stdout}");
    }
}

#[test]
fn checks_bundled_example() {
    let (ok, stdout, _) = zeusc(&["check", "@trees"]);
    assert!(ok);
    assert!(stdout.contains("ok"));
}

#[test]
fn elab_prints_stats() {
    let (ok, stdout, _) = zeusc(&["elab", "@adders", "rippleCarry", "8"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("registers : 0"));
    assert!(stdout.contains("port      : IN a [8 bit]"));
}

#[test]
fn layout_renders_chessboard() {
    let (ok, stdout, _) = zeusc(&["layout", "@chessboard", "chessboard", "4"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("WBWB"));
    assert!(stdout.contains("area 16"));
}

#[test]
fn synth_counts_transistors() {
    let (ok, stdout, _) = zeusc(&["synth", "@adders", "fulladder"]);
    assert!(ok);
    assert!(stdout.contains("transistors"));
}

#[test]
fn print_is_reparsable() {
    let (ok, stdout, _) = zeusc(&["print", "@mux"]);
    assert!(ok);
    assert!(zeus::Zeus::parse(&stdout).is_ok(), "{stdout}");
}

#[test]
fn unknown_example_fails_cleanly() {
    let (ok, _, stderr) = zeusc(&["check", "@nonexistent"]);
    assert!(!ok);
    assert!(stderr.contains("no bundled example"));
}

#[test]
fn elaboration_error_reports_position() {
    let dir = std::env::temp_dir().join("zeusc-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bad.zeus");
    std::fs::write(
        &file,
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS\nSIGNAL x,y: boolean;\nBEGIN x := AND(a,y); y := NOT x; s := y END;",
    )
    .unwrap();
    let (ok, _, stderr) = zeusc(&["elab", file.to_str().unwrap(), "t"]);
    assert!(!ok);
    assert!(stderr.contains("combinational feedback loop"), "{stderr}");
}

#[test]
fn equiv_confirms_the_papers_claim() {
    let (ok, stdout, _) = zeusc(&[
        "equiv",
        "@adders",
        "rippleCarry4",
        "--vs",
        "rippleCarry",
        "4",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("equivalent"));
}

#[test]
fn equiv_reports_counterexamples() {
    let dir = std::env::temp_dir().join("zeusc-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("pair.zeus");
    std::fs::write(
        &file,
        "TYPE f = COMPONENT (IN a,b: boolean; OUT s: boolean) IS BEGIN s := AND(a,b) END; \
         g = COMPONENT (IN a,b: boolean; OUT s: boolean) IS BEGIN s := OR(a,b) END;",
    )
    .unwrap();
    let (ok, _, stderr) = zeusc(&["equiv", file.to_str().unwrap(), "f", "--vs", "g"]);
    assert!(!ok);
    assert!(stderr.contains("NOT equivalent"), "{stderr}");
}

#[test]
fn equiv_refuses_random_designs() {
    // Which RANDOM node draws first follows node order, so these two
    // need not see the same random bits: no verdict either way.
    let dir = std::env::temp_dir().join("zeusc-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("random-pair.zeus");
    std::fs::write(
        &file,
        "TYPE f = COMPONENT (IN a: boolean; OUT s: boolean) IS BEGIN s := AND(a, RANDOM()) END; \
         g = COMPONENT (IN a: boolean; OUT s: boolean) IS BEGIN s := AND(RANDOM(), a) END;",
    )
    .unwrap();
    let (code, stdout, stderr) = zeusc_code(&["equiv", file.to_str().unwrap(), "f", "--vs", "g"]);
    assert_eq!(code, 2, "{stdout}{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("RANDOM"), "{stderr}");
}

#[test]
fn sim_with_forced_inputs() {
    let (ok, stdout, _) = zeusc(&[
        "sim",
        "@adders",
        "rippleCarry4",
        "--cycles",
        "1",
        "--set",
        "a=9",
        "--set",
        "b=3",
        "--set",
        "cin=0",
    ]);
    assert!(ok, "{stdout}");
    // 9 + 3 = 12 = 0b1100, LSB-first rendering "0011".
    assert!(stdout.contains("s         : 0011"), "{stdout}");
}

#[test]
fn graph_emits_dot() {
    let (ok, stdout, _) = zeusc(&["graph", "@adders", "halfadder"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph zeus {"));
    assert!(stdout.contains("Xor"));
}

#[test]
fn svg_emits_floorplan() {
    let (ok, stdout, _) = zeusc(&["svg", "@chessboard", "chessboard", "3"]);
    assert!(ok);
    assert!(stdout.starts_with("<svg"));
    assert!(stdout.contains("black"));
    assert!(stdout.contains("white"));
}

/// Like `zeusc`, but returns the raw exit code for contract tests.
fn zeusc_code(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_zeusc"))
        .args(args)
        .output()
        .expect("spawn zeusc");
    (
        out.status.code().expect("exit code (not a signal)"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn exit_code_0_on_success() {
    let (code, _, _) = zeusc_code(&["check", "@adders"]);
    assert_eq!(code, 0);
}

#[test]
fn exit_code_1_on_usage_and_io_errors() {
    let (code, _, _) = zeusc_code(&["frobnicate"]);
    assert_eq!(code, 1, "unknown command is a usage error");
    let (code, _, stderr) = zeusc_code(&["check", "/definitely/not/a/file.zeus"]);
    assert_eq!(code, 1, "{stderr}");
    let (code, _, stderr) = zeusc_code(&["elab", "@adders", "rippleCarry4", "--fuel", "lots"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("--fuel"), "{stderr}");
}

#[test]
fn exit_code_2_on_program_diagnostics() {
    let dir = std::env::temp_dir().join("zeusc-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("syntax-error.zeus");
    std::fs::write(&file, "TYPE t = COMPONENT (IN a boolean) IS BEGIN END;").unwrap();
    let (code, _, stderr) = zeusc_code(&["check", file.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("error[Z0"), "{stderr}");
}

#[test]
fn exit_code_3_when_instance_budget_trips() {
    let (code, _, stderr) = zeusc_code(&[
        "elab",
        "@routing",
        "routingnetwork",
        "8",
        "--max-instances",
        "5",
    ]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("error[Z901]"), "{stderr}");
}

#[test]
fn exit_code_3_when_net_budget_trips() {
    let (code, _, stderr) = zeusc_code(&[
        "elab",
        "@routing",
        "routingnetwork",
        "8",
        "--max-nets",
        "10",
    ]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("error[Z902]"), "{stderr}");
}

#[test]
fn exit_code_3_when_fuel_runs_out() {
    let (code, _, stderr) = zeusc_code(&[
        "sim",
        "@adders",
        "rippleCarry4",
        "--cycles",
        "4",
        "--fuel",
        "3",
    ]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("error[Z904]"), "{stderr}");
    assert!(stderr.contains("fuel"), "{stderr}");
}

#[test]
fn exit_code_3_when_deadline_passes() {
    // A zero deadline is already expired when elaboration starts; the
    // amortized deadline check must cancel the run instead of hanging.
    let (code, _, stderr) =
        zeusc_code(&["elab", "@routing", "routingnetwork", "8", "--timeout", "0"]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("error[Z905]"), "{stderr}");
}

#[test]
fn fault_campaign_exact_coverage() {
    // Pinned numbers: the CI fault-smoke job relies on this exact
    // coverage for @adders/rippleCarry4 with seed 1 and 64 vectors.
    let (code, stdout, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "--top",
        "rippleCarry4",
        "--vectors",
        "64",
        "--seed",
        "1",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stdout.contains("universe: 182 faults enumerated, 114 collapsed, 68 simulated"),
        "{stdout}"
    );
    assert!(
        stdout.contains("coverage: 68/68 detected (100.0%), 0 undetected, 0 hyperactive"),
        "{stdout}"
    );
    assert!(stdout.contains("per-fault classification:"), "{stdout}");
    assert!(stdout.contains("detected at cycle"), "{stdout}");
}

#[test]
fn fault_json_is_deterministic_across_runs() {
    let args = &[
        "fault",
        "@adders",
        "--top",
        "rippleCarry4",
        "--vectors",
        "16",
        "--seed",
        "7",
        "--json",
    ];
    let (c1, out1, _) = zeusc_code(args);
    let (c2, out2, _) = zeusc_code(args);
    assert_eq!((c1, c2), (0, 0));
    assert_eq!(out1, out2, "same seed+vectors must be byte-identical");
    assert!(out1.starts_with("{\"top\":\"rippleCarry4\""), "{out1}");
}

#[test]
fn fault_prints_seed_on_stderr_when_omitted() {
    let (code, _, stderr) =
        zeusc_code(&["fault", "@adders", "--top", "halfadder", "--vectors", "4"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("--seed"), "{stderr}");
    assert!(stderr.contains("reproduce"), "{stderr}");
}

#[test]
fn sim_prints_default_seed_on_stderr() {
    let (code, _, stderr) = zeusc_code(&["sim", "@adders", "halfadder", "--cycles", "1"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("seed"), "{stderr}");
    // With an explicit seed there is nothing to announce.
    let (code, _, stderr) = zeusc_code(&[
        "sim",
        "@adders",
        "halfadder",
        "--cycles",
        "1",
        "--seed",
        "5",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(!stderr.contains("seed"), "{stderr}");
}

#[test]
fn fault_switch_engine_runs() {
    let (code, stdout, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "--top",
        "halfadder",
        "--vectors",
        "16",
        "--seed",
        "3",
        "--engine",
        "switch",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("(switch engine"), "{stdout}");
}

#[test]
fn fault_rejects_unknown_engine() {
    let (code, _, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "--top",
        "halfadder",
        "--engine",
        "quantum",
    ]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("unknown engine"), "{stderr}");
}

#[test]
fn fault_budget_exhaustion_is_reported_not_fatal() {
    // A tiny fuel budget classifies faults as budget-exhausted but the
    // campaign itself succeeds (it is a report, not a failure).
    let (code, stdout, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "--top",
        "rippleCarry4",
        "--vectors",
        "64",
        "--seed",
        "1",
        "--fuel",
        "300",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("budget-exhausted"), "{stdout}");
}

#[test]
fn generous_limits_do_not_interfere() {
    let (code, stdout, stderr) = zeusc_code(&[
        "sim",
        "@adders",
        "rippleCarry4",
        "--cycles",
        "2",
        "--set",
        "a=1",
        "--set",
        "b=1",
        "--set",
        "cin=0",
        "--fuel",
        "1000000",
        "--timeout",
        "60000",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("cycles    : 2"), "{stdout}");
}

// ---------------------------------------------------------------------
// Flag-position and help contract
// ---------------------------------------------------------------------

#[test]
fn flags_are_accepted_in_any_position() {
    // The historical bug: `--cycles` after the file was swallowed as the
    // top component and died with error[Z201].
    let (code, out1, stderr) = zeusc_code(&[
        "sim", "@counter", "--cycles", "4", "counter", "6", "--seed", "1",
    ]);
    assert_eq!(code, 0, "{stderr}");
    let (code, out2, _) = zeusc_code(&[
        "sim", "@counter", "counter", "6", "--cycles", "4", "--seed", "1",
    ]);
    assert_eq!(code, 0);
    let (code, out3, _) = zeusc_code(&[
        "sim", "--seed", "1", "--cycles", "4", "@counter", "counter", "6",
    ]);
    assert_eq!(code, 0);
    assert_eq!(out1, out2);
    assert_eq!(out1, out3);
}

#[test]
fn flag_equals_value_form_is_accepted() {
    let (code, stdout, stderr) =
        zeusc_code(&["sim", "@adders", "halfadder", "--cycles=2", "--seed=1"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("cycles    : 2"), "{stdout}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    let (code, _, stderr) = zeusc_code(&["sim", "@adders", "halfadder", "--frobnicate"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("unknown flag '--frobnicate'"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    // Also for flags that exist on other commands only.
    let (code, _, stderr) = zeusc_code(&["elab", "@adders", "halfadder", "--vectors", "4"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("unknown flag '--vectors'"), "{stderr}");
    // And for the retired `--packed` (every campaign runs packed).
    for cmd in ["sim", "fault"] {
        let (code, _, stderr) = zeusc_code(&[cmd, "@adders", "halfadder", "--packed"]);
        assert_eq!(code, 1, "{cmd}: {stderr}");
        assert!(
            stderr.contains("unknown flag '--packed'"),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn help_exits_zero_in_all_spellings() {
    for args in [
        &["--help"][..],
        &["-h"][..],
        &["help"][..],
        &["help", "fault"][..],
        &["sim", "--help"][..],
        &["fault", "-h"][..],
    ] {
        let (code, stdout, stderr) = zeusc_code(args);
        assert_eq!(code, 0, "{args:?}: {stderr}");
        assert!(stdout.contains("zeusc"), "{args:?}: {stdout}");
    }
    let (_, stdout, _) = zeusc_code(&["help", "fault"]);
    assert!(stdout.contains("--jobs"), "{stdout}");
    let (_, stdout, _) = zeusc_code(&["help"]);
    for cmd in ["check", "sim", "fault", "equiv", "examples"] {
        assert!(stdout.contains(cmd), "{stdout}");
    }
}

#[test]
fn help_for_unknown_command_is_a_usage_error() {
    let (code, _, stderr) = zeusc_code(&["help", "frobnicate"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("unknown command"), "{stderr}");
}

// ---------------------------------------------------------------------
// One campaign path: --jobs shards either engine
// ---------------------------------------------------------------------

#[test]
fn fault_jobs_do_not_change_the_report_on_either_engine() {
    // rippleCarry4 has two fault words, so three jobs really shard.
    for (engine, vectors) in [("graph", "16"), ("switch", "4")] {
        let run = |jobs: &str| {
            let (code, stdout, stderr) = zeusc_code(&[
                "fault",
                "@adders",
                "--top",
                "rippleCarry4",
                "--engine",
                engine,
                "--vectors",
                vectors,
                "--seed",
                "7",
                "--jobs",
                jobs,
                "--json",
            ]);
            assert_eq!(code, 0, "{stderr}");
            stdout
        };
        assert_eq!(
            run("1"),
            run("3"),
            "{engine}: --jobs 1 and --jobs 3 must agree byte-for-byte"
        );
    }
}

// ---------------------------------------------------------------------
// Checkpoint, resume and interruption
// ---------------------------------------------------------------------

fn tmp_journal(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("zeusc-ckpt-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

/// Truncates a journal to its header plus the first `keep` entries,
/// simulating a run that crashed mid-campaign.
fn truncate_journal(path: &std::path::Path, keep: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1, "journal has a header and entries: {text}");
    let mut out = lines[..(1 + keep).min(lines.len())].join("\n");
    out.push('\n');
    std::fs::write(path, out).unwrap();
}

#[test]
fn fault_seed_is_echoed_into_json_report() {
    let (code, stdout, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "--top",
        "halfadder",
        "--vectors",
        "8",
        "--seed",
        "424242",
        "--json",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("\"seed\":424242"), "{stdout}");
}

#[test]
fn fault_checkpoint_resume_reproduces_the_report_byte_for_byte() {
    // rippleCarry4 enumerates 68 faults = 2 words, so a 1-entry prefix
    // really does leave work to resume.
    let base = &[
        "fault",
        "@adders",
        "--top",
        "rippleCarry4",
        "--vectors",
        "16",
        "--seed",
        "7",
        "--json",
    ];
    let (code, straight, stderr) = zeusc_code(base);
    assert_eq!(code, 0, "{stderr}");

    for jobs in [None, Some("2")] {
        let path = tmp_journal(&format!("resume-{}", jobs.unwrap_or("scalar")));
        let _ = std::fs::remove_file(&path);
        let mut args = base.to_vec();
        args.extend(["--checkpoint", path.to_str().unwrap()]);
        if let Some(j) = jobs {
            args.extend(["--jobs", j]);
        }
        let (code, full, stderr) = zeusc_code(&args);
        assert_eq!(code, 0, "{stderr}");
        assert_eq!(full, straight, "checkpointing must not change the report");

        truncate_journal(&path, 1);
        let mut args = args.clone();
        args.push("--resume");
        let (code, resumed, stderr) = zeusc_code(&args);
        assert_eq!(code, 0, "{stderr}");
        assert_eq!(resumed, straight, "resumed report must be byte-identical");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn fault_resume_recovers_seed_from_checkpoint() {
    let path = tmp_journal("seedrec");
    let _ = std::fs::remove_file(&path);
    let (code, _, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "--top",
        "rippleCarry4",
        "--vectors",
        "8",
        "--seed",
        "777",
        "--checkpoint",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    truncate_journal(&path, 0);
    // No --seed on the resume: it must come back from the header.
    let (code, stdout, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "--top",
        "rippleCarry4",
        "--vectors",
        "8",
        "--checkpoint",
        path.to_str().unwrap(),
        "--resume",
        "--json",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("recovered from checkpoint"), "{stderr}");
    assert!(stdout.contains("\"seed\":777"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_resume_requires_checkpoint_flag() {
    let (code, _, stderr) = zeusc_code(&["fault", "@adders", "--top", "halfadder", "--resume"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("--checkpoint"), "{stderr}");
}

#[test]
fn fault_resume_rejects_a_mismatched_campaign() {
    let path = tmp_journal("mismatch");
    let _ = std::fs::remove_file(&path);
    let base = [
        "fault",
        "@adders",
        "--top",
        "halfadder",
        "--vectors",
        "8",
        "--checkpoint",
        path.to_str().unwrap(),
    ];
    let (code, _, stderr) = zeusc_code(&[&base[..], &["--seed", "1"]].concat());
    assert_eq!(code, 0, "{stderr}");
    let (code, _, stderr) = zeusc_code(&[&base[..], &["--seed", "2", "--resume"]].concat());
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("different campaign"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_rejects_a_deeply_nested_journal_header() {
    let path = tmp_journal("deep");
    // The hostile zeusd request line: an argv opening a million arrays.
    let text = format!("{{\"id\":1,\"argv\":{}\n", "[".repeat(1_000_000));
    std::fs::write(&path, text).unwrap();
    let base = [
        "fault",
        "@adders",
        "rippleCarry4",
        "--checkpoint",
        path.to_str().unwrap(),
        "--resume",
    ];
    // Without --seed the header is read first, to recover the seed.
    for extra in [&[][..], &["--seed", "1"]] {
        let (code, _, stderr) = zeusc_code(&[&base[..], extra].concat());
        assert_eq!(code, 2, "{extra:?}: {stderr}");
        assert!(stderr.contains("corrupt header"), "{extra:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_rejects_a_huge_journal_header_string_quickly() {
    let path = tmp_journal("longtop");
    let header = format!(
        "{{\"zeus_fault_checkpoint\":1,\"config\":\"0000000000000000\",\"top\":\"{}\",\
         \"engine\":\"graph\",\"vectors\":8,\"seed\":1,\"faults\":68,\"words\":2}}\n",
        "t".repeat(1_000_000)
    );
    std::fs::write(&path, header).unwrap();
    let start = std::time::Instant::now();
    let (code, _, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "rippleCarry4",
        "--seed",
        "1",
        "--checkpoint",
        path.to_str().unwrap(),
        "--resume",
    ]);
    let took = start.elapsed();
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("different campaign"), "{stderr}");
    assert!(
        took < std::time::Duration::from_secs(5),
        "took {took:?} to reject"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_campaign_timeout_reports_partially_with_exit_3() {
    let (code, stdout, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "--top",
        "rippleCarry4",
        "--vectors",
        "16",
        "--seed",
        "1",
        "--campaign-timeout",
        "0",
        "--json",
    ]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stdout.contains("\"partial\":true"), "{stdout}");
    assert!(
        stdout.contains("\"partial_reason\":\"deadline\""),
        "{stdout}"
    );
    assert!(stderr.contains("--campaign-timeout"), "{stderr}");
}

/// An ATPG run its deadline stops exits 3 (exit 130 is Ctrl-C's), and
/// the report and the emitted set's PARTIAL marker name the deadline:
/// the report counts the whole fault list as targeted and says how much
/// of it the cut grade reached.
#[test]
fn atpg_stopped_at_its_deadline_exits_3() {
    let vec_path = std::env::temp_dir().join(format!(
        "zeusc-test-atpg-deadline-{}.vec",
        std::process::id()
    ));
    let (code, stdout, stderr) = zeusc_code(&[
        "atpg",
        "@adders",
        "rippleCarry4",
        "--campaign-timeout",
        "0",
        "--emit-vectors",
        vec_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 3, "{stderr}");
    assert!(
        stdout.contains("PARTIAL: generation stopped at the deadline;"),
        "{stdout}"
    );
    assert!(stdout.contains(", 68 targeted\n"), "{stdout}");
    assert!(
        stdout.contains("compaction: skipped (deadline)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("grade stopped at the deadline: 0/68 faults graded, 0 detected"),
        "{stdout}"
    );
    assert!(!stdout.contains("0/0"), "{stdout}");
    assert!(
        stderr.contains("atpg stopped at the deadline; partial vector set reported above"),
        "{stderr}"
    );
    let emitted = std::fs::read_to_string(&vec_path).unwrap();
    assert!(
        emitted.contains("# PARTIAL: generation stopped at the deadline"),
        "{emitted}"
    );
    let _ = std::fs::remove_file(&vec_path);

    // The JSON states no coverage for the cut grade either; the
    // embedded grade keeps its planned count.
    let (code, json, stderr) = zeusc_code(&[
        "atpg",
        "@adders",
        "rippleCarry4",
        "--seed",
        "5",
        "--campaign-timeout",
        "0",
        "--json",
    ]);
    assert_eq!(code, 3, "{stderr}");
    let (top, grade) = json.split_once(",\"grade\":").expect("a grade object");
    assert!(!top.contains("coverage\":"), "{json}");
    assert!(grade.contains("\"planned\":68"), "{json}");
}

/// First Ctrl-C: drain in-flight words, flush the checkpoint, report
/// partially, exit 130 — then a resume completes to the byte-identical
/// full report.
#[cfg(unix)]
#[test]
fn sigint_flushes_the_checkpoint_and_resume_completes() {
    use std::io::Read;
    use std::time::Duration;

    // The switch engine on one thread: its first fault word alone takes
    // seconds in a debug build, so the SIGINT lands mid-word and the
    // drained journal holds exactly the words finished before it.
    let base = &[
        "fault",
        "@adders",
        "--top",
        "rippleCarry4",
        "--engine",
        "switch",
        "--vectors",
        "16",
        "--jobs",
        "1",
        "--seed",
        "5",
        "--json",
    ];
    let (code, straight, stderr) = zeusc_code(base);
    assert_eq!(code, 0, "{stderr}");

    let path = tmp_journal("sigint");
    let _ = std::fs::remove_file(&path);
    let mut args = base.to_vec();
    args.extend(["--checkpoint", path.to_str().unwrap()]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_zeusc"))
        .args(&args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn zeusc");
    std::thread::sleep(Duration::from_millis(300));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status();
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let status = child.wait().unwrap();

    match status.code() {
        // The campaign outran the signal (a fast release build): nothing
        // to resume, but the report must be the complete one.
        Some(0) => assert_eq!(stdout, straight),
        Some(130) => {
            assert!(stdout.contains("\"partial\":true"), "{stdout}");
            assert!(
                stdout.contains("\"partial_reason\":\"interrupted\""),
                "{stdout}"
            );
            let journal = std::fs::read_to_string(&path).expect("checkpoint was flushed");
            assert!(
                journal.lines().count() >= 2,
                "journal holds a header and at least one completed word:\n{journal}"
            );
            let mut args = args.clone();
            args.push("--resume");
            let (code, resumed, stderr) = zeusc_code(&args);
            assert_eq!(code, 0, "{stderr}");
            assert_eq!(resumed, straight, "resume completes byte-identically");
        }
        other => panic!("unexpected exit: {other:?}\n{stdout}"),
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// atpg
// ---------------------------------------------------------------------

#[test]
fn atpg_reports_full_coverage_on_ripple_carry() {
    let (ok, stdout, _) = zeusc(&["atpg", "@adders", "rippleCarry4", "--seed", "7"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("combinational mode"), "{stdout}");
    assert!(stdout.contains("coverage: 100.00%"), "{stdout}");
}

#[test]
fn atpg_same_seed_runs_are_byte_identical() {
    let args = [
        "atpg", "@sorter", "sorter", "4", "2", "--seed", "9", "--json",
    ];
    let (ok1, a, _) = zeusc(&args);
    let (ok2, b, _) = zeusc(&args);
    assert!(ok1 && ok2);
    assert_eq!(a, b, "same-seed JSON reports must be byte-identical");
    assert!(a.contains("\"tool\":\"zeus-atpg\""), "{a}");
}

/// Every emitted file goes through one writer, which creates missing
/// parent directories.
#[test]
fn emitted_files_create_their_directories() {
    let dir = std::env::temp_dir().join(format!("zeusc-emit-dirs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = |name: &str| dir.join(name).join("deeper").join("file");
    let cases: [(&str, &[&str], &str); 3] = [
        (
            "vec",
            &[
                "atpg",
                "@adders",
                "rippleCarry4",
                "--seed",
                "5",
                "--emit-vectors",
            ],
            "zeus-vectors",
        ),
        (
            "design",
            &["opt", "@mux", "muxtop", "--emit"],
            "zeus netlist v1\n",
        ),
        (
            "netlist",
            &["export", "@mux", "muxtop", "--out"],
            "zeus netlist",
        ),
    ];
    for (name, args, magic) in cases {
        let file = path(name);
        let mut argv = args.to_vec();
        argv.push(file.to_str().unwrap());
        let (code, _, stderr) = zeusc_code(&argv);
        assert_eq!(code, 0, "{argv:?}: {stderr}");
        let text = std::fs::read_to_string(&file).expect("emitted file");
        assert!(text.starts_with(magic), "{argv:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn atpg_emitted_vectors_replay_to_the_same_grade() {
    let dir = std::env::temp_dir().join("zeusc-test");
    std::fs::create_dir_all(&dir).unwrap();
    let vec_path = dir.join("rc4-atpg.vec");
    let vec_str = vec_path.to_str().unwrap();

    let (ok, stdout, _) = zeusc(&[
        "atpg",
        "@adders",
        "rippleCarry4",
        "--seed",
        "7",
        "--json",
        "--emit-vectors",
        vec_str,
    ]);
    assert!(ok, "{stdout}");
    let grade_start = stdout.find("\"grade\":").expect("grade field") + "\"grade\":".len();
    // The grade object runs to the report's closing brace.
    let claimed = &stdout[grade_start..stdout.trim_end().len() - 1];

    // Re-grade the emitted file; the seed comes from the file header.
    let (ok, regrade, stderr) = zeusc(&[
        "fault",
        "@adders",
        "rippleCarry4",
        "--vectors-file",
        vec_str,
        "--json",
    ]);
    assert!(ok, "{regrade}");
    assert!(stderr.contains("recovered from vector file"), "{stderr}");
    assert_eq!(
        regrade.trim_end(),
        claimed,
        "replay must reproduce the grade"
    );
    let _ = std::fs::remove_file(&vec_path);
}

#[test]
fn atpg_coverage_target_failure_exits_2() {
    // Zero vectors can't cover anything: an explicit target must turn
    // that into exit 2.
    let (code, stdout, stderr) = zeusc_code(&[
        "atpg",
        "@adders",
        "rippleCarry4",
        "--seed",
        "7",
        "--max-vectors",
        "0",
        "--coverage-target",
        "95",
    ]);
    assert_eq!(code, 2, "{stdout}\n{stderr}");
    assert!(stderr.contains("below the target"), "{stderr}");
}

#[test]
fn fault_rejects_vectors_file_with_vectors() {
    let dir = std::env::temp_dir().join("zeusc-test");
    std::fs::create_dir_all(&dir).unwrap();
    let vec_path = dir.join("conflict.vec");
    std::fs::write(&vec_path, "zeus-vectors v1\n").unwrap();
    let (code, _, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "rippleCarry4",
        "--vectors-file",
        vec_path.to_str().unwrap(),
        "--vectors",
        "8",
    ]);
    assert_eq!(code, 1);
    assert!(stderr.contains("don't also pass --vectors"), "{stderr}");
    // Input files are read before any work, so an unreadable one is
    // reported first.
    let (code, _, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "rippleCarry4",
        "--vectors-file",
        "/nonexistent.vec",
        "--vectors",
        "8",
    ]);
    assert_eq!(code, 1);
    assert!(stderr.contains("cannot read /nonexistent.vec"), "{stderr}");
}

#[test]
fn fault_rejects_vector_file_for_wrong_design() {
    let dir = std::env::temp_dir().join("zeusc-test");
    std::fs::create_dir_all(&dir).unwrap();
    let vec_path = dir.join("mux-atpg.vec");
    let vec_str = vec_path.to_str().unwrap();
    let (ok, _, _) = zeusc(&[
        "atpg",
        "@mux",
        "muxtop",
        "--seed",
        "3",
        "--emit-vectors",
        vec_str,
    ]);
    assert!(ok);
    let (code, _, stderr) = zeusc_code(&[
        "fault",
        "@adders",
        "rippleCarry4",
        "--vectors-file",
        vec_str,
    ]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("Z301"), "{stderr}");
    let _ = std::fs::remove_file(&vec_path);
}

// -------------------------------------------------------------------
// Flag hygiene: zero is rejected for counts, legal for budgets.
// -------------------------------------------------------------------

#[test]
fn zero_valued_count_flags_are_usage_errors() {
    // A count of zero is always a typo: rejecting it with the usage
    // exit beats silently clamping to something the user didn't ask
    // for.
    let cases: &[&[&str]] = &[
        &["fault", "@adders", "rippleCarry4", "--vectors", "0"],
        &["sim", "@adders", "rippleCarry4", "--cycles", "0"],
        &["elab", "@adders", "rippleCarry4", "--max-instances", "0"],
        &["elab", "@adders", "rippleCarry4", "--max-nets", "0"],
        &["fault", "@adders", "rippleCarry4", "--jobs", "0"],
    ];
    for args in cases {
        let (code, _, stderr) = zeusc_code(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stderr.contains("must be at least 1"), "{args:?}: {stderr}");
    }
}

#[test]
fn count_flags_reject_values_past_u32() {
    // 2^32 would wrap to 0 and 2^32 + 1 to 1 under an `as u32` cast.
    let cases: &[&[&str]] = &[
        &[
            "fault",
            "@adders",
            "rippleCarry4",
            "--vectors",
            "4294967296",
        ],
        &[
            "atpg",
            "@counter",
            "counter",
            "4",
            "--max-frames",
            "4294967296",
        ],
        &[
            "atpg",
            "@counter",
            "counter",
            "4",
            "--max-vectors",
            "4294967297",
        ],
        &["fuzz", "--size", "4294967296"],
        &["fuzz", "--cycles", "4294967296"],
        &["fuzz", "--vectors", "4294967296"],
        &["fuzz", "--shrink-evals", "4294967296"],
    ];
    for args in cases {
        let (code, stdout, stderr) = zeusc_code(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stderr.contains("too large"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran anyway: {stdout}");
    }
    // u32::MAX itself is a legal count.
    let (code, _, stderr) = zeusc_code(&[
        "atpg",
        "@adders",
        "rippleCarry4",
        "--seed",
        "1",
        "--max-frames",
        "4294967295",
    ]);
    assert_eq!(code, 0, "{stderr}");
}

#[test]
fn zero_budget_flags_stay_legal() {
    // Budgets (time, fuel) mean "immediately exhausted" at zero, not
    // "invalid": they keep their historical exit-3 behavior.
    let (code, _, stderr) =
        zeusc_code(&["elab", "@routing", "routingnetwork", "8", "--timeout", "0"]);
    assert_eq!(code, 3, "{stderr}");
}

// -------------------------------------------------------------------
// Remote routing flags (the daemon itself is tested in zeus-daemon).
// -------------------------------------------------------------------

#[test]
fn remote_flag_requires_a_socket_value() {
    let (code, _, stderr) = zeusc_code(&["elab", "@adders", "rippleCarry4", "--remote"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("--remote"), "{stderr}");
}

#[cfg(unix)]
#[test]
fn remote_without_daemon_fails_after_retries() {
    let (code, _, stderr) = zeusc_code(&[
        "elab",
        "@adders",
        "rippleCarry4",
        "--remote",
        "/tmp/zeusc-test-no-such-daemon.sock",
    ]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("after 5 attempts"), "{stderr}");
}

#[cfg(unix)]
#[test]
fn remote_or_local_falls_back_with_a_warning() {
    let (code, stdout, stderr) = zeusc_code(&[
        "sim",
        "@adders",
        "rippleCarry4",
        "--cycles",
        "2",
        "--seed",
        "1",
        "--remote-or-local",
        "/tmp/zeusc-test-no-such-daemon.sock",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("cycles"), "{stdout}");
    assert!(stderr.contains("running locally"), "{stderr}");
}

#[test]
fn sigint_mid_atpg_emits_the_partial_vector_set() {
    use std::io::Read;
    use std::time::Duration;

    let vec_path =
        std::env::temp_dir().join(format!("zeusc-test-atpg-sigint-{}.vec", std::process::id()));
    let _ = std::fs::remove_file(&vec_path);
    let args = &[
        "atpg",
        "@adders",
        "--top",
        "rippleCarry",
        "64",
        "--seed",
        "5",
        "--emit-vectors",
        vec_path.to_str().unwrap(),
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_zeusc"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn zeusc");
    std::thread::sleep(Duration::from_millis(500));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status();
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let status = child.wait().unwrap();

    match status.code() {
        // ATPG outran the signal: a complete run, no partial marker.
        Some(0) => assert!(!stdout.contains("PARTIAL"), "{stdout}"),
        Some(130) => {
            assert!(stdout.contains("PARTIAL"), "{stdout}");
            // The vectors generated so far were still emitted, flagged
            // as incomplete but replayable.
            let emitted = std::fs::read_to_string(&vec_path).expect("partial set emitted");
            assert!(emitted.starts_with("zeus-vectors"), "{emitted}");
            assert!(emitted.contains("# PARTIAL"), "{emitted}");
        }
        other => panic!("unexpected exit: {other:?}\n{stdout}"),
    }
    let _ = std::fs::remove_file(&vec_path);
}

// ---------------------------------------------------------------------
// zeusc fuzz
// ---------------------------------------------------------------------

#[test]
fn fuzz_prints_default_seed_on_stderr() {
    let (code, _, stderr) = zeusc_code(&["fuzz", "--budget", "1"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stderr.contains("seed      : 772086147 (default; pass --seed to vary)"),
        "{stderr}"
    );
    // With an explicit seed there is nothing to announce.
    let (code, _, stderr) = zeusc_code(&["fuzz", "--budget", "1", "--seed", "5"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(!stderr.contains("seed"), "{stderr}");
}

#[test]
fn fuzz_clean_budget_exits_zero() {
    let (code, stdout, stderr) = zeusc_code(&["fuzz", "--budget", "4", "--seed", "3"]);
    assert_eq!(code, 0, "{stdout}\n{stderr}");
    assert!(stdout.contains("failures  : 0 raw, 0 unique"), "{stdout}");
}

#[test]
fn fuzz_chaos_finds_persists_and_replays() {
    let corpus = std::env::temp_dir().join("zeusc-fuzz-test-chaos");
    let _ = std::fs::remove_dir_all(&corpus);
    let corpus_s = corpus.to_str().unwrap();
    let (code, stdout, stderr) = zeusc_code(&[
        "fuzz",
        "--seed",
        "9",
        "--budget",
        "4",
        "--chaos",
        "scalar-vs-packed",
        "--shrink-evals",
        "16",
        "--corpus",
        corpus_s,
    ]);
    assert_eq!(code, 2, "{stdout}\n{stderr}");
    assert!(stdout.contains("scalar-vs-packed:Z301:"), "{stdout}");
    // The reproducer path is on stdout and the file exists.
    let line = stdout
        .lines()
        .find(|l| l.starts_with("reproducer: "))
        .expect("reproducer path on stdout");
    let path = line.trim_start_matches("reproducer: ");
    let text = std::fs::read_to_string(path).expect("reproducer written");
    assert!(text.starts_with("<* zeus-fuzz reproducer v1"), "{text}");
    // Replaying it still fails (exit 2)...
    let (code, stdout, _) = zeusc_code(&["fuzz", "--replay", path]);
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("REPRODUCED"), "{stdout}");
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn fuzz_is_byte_deterministic_across_runs_and_jobs() {
    let run = |jobs: &str, tag: &str| {
        let corpus = std::env::temp_dir().join(format!("zeusc-fuzz-test-det-{tag}"));
        let _ = std::fs::remove_dir_all(&corpus);
        let corpus_s = corpus.to_str().unwrap().to_string();
        let (code, stdout, _) = zeusc_code(&[
            "fuzz",
            "--seed",
            "11",
            "--budget",
            "6",
            "--jobs",
            jobs,
            "--chaos",
            "scalar-vs-packed",
            "--shrink-evals",
            "16",
            "--corpus",
            &corpus_s,
        ]);
        assert_eq!(code, 2, "{stdout}");
        let mut files: Vec<(String, String)> = std::fs::read_dir(&corpus)
            .expect("corpus dir")
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read_to_string(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(&corpus);
        // The report is deterministic; the corpus path is not part of it.
        let report = stdout.replace(&corpus_s, "CORPUS");
        (report, files)
    };
    let a = run("1", "a");
    let b = run("4", "b");
    assert_eq!(a.0, b.0, "report differs between --jobs 1 and --jobs 4");
    assert_eq!(a.1, b.1, "reproducers differ between --jobs 1 and --jobs 4");
}

#[test]
fn fuzz_rejects_unknown_chaos_oracle() {
    let (code, _, stderr) = zeusc_code(&["fuzz", "--budget", "1", "--chaos", "bogus"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("unknown --chaos oracle"), "{stderr}");
}

#[test]
fn import_export_round_trip_is_byte_stable() {
    let dir = std::env::temp_dir().join(format!("zeusc-test-interchange-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let znl = dir.join("mux.znl");
    let znl_s = znl.to_str().unwrap();

    let (ok, _, stderr) = zeusc(&["export", "@mux", "muxtop", "--out", znl_s]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("exported"), "{stderr}");
    let first = std::fs::read_to_string(&znl).unwrap();
    assert!(first.starts_with("zeus netlist v1\n"), "{first}");

    // Re-export what we just exported: text format is byte-stable.
    let (ok, second, stderr) = zeusc(&["export", znl_s]);
    assert!(ok, "{stderr}");
    assert_eq!(first, second, "text round trip is not byte-identical");

    // The imported netlist drives the whole pipeline.
    let (ok, stdout, _) = zeusc(&["import", znl_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("digest"), "{stdout}");
    let (ok, stdout, _) = zeusc(&["sim", znl_s, "--cycles", "1"]);
    assert!(ok, "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn import_validate_only_prints_digest_line() {
    let dir = std::env::temp_dir().join(format!("zeusc-test-valonly-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let znl = dir.join("adder.znl");
    let znl_s = znl.to_str().unwrap();
    let (ok, _, _) = zeusc(&["export", "@adders", "fulladder", "--out", znl_s]);
    assert!(ok);
    let (ok, stdout, _) = zeusc(&["import", znl_s, "--validate-only"]);
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with("valid"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn yosys_json_export_imports_back() {
    let dir = std::env::temp_dir().join(format!("zeusc-test-yosys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("mux.json");
    let json_s = json.to_str().unwrap();
    let (ok, _, stderr) = zeusc(&[
        "export",
        "@mux",
        "muxtop",
        "--format",
        "yosys-json",
        "--out",
        json_s,
    ]);
    assert!(ok, "{stderr}");
    let (ok, stdout, _) = zeusc(&["import", json_s]);
    assert!(ok, "{stdout}");
    let (ok, _, _) = zeusc(&["sim", json_s, "--cycles", "1"]);
    assert!(ok);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn import_rejects_garbage_with_z601_and_exit_2() {
    let dir = std::env::temp_dir().join(format!("zeusc-test-garbage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.znl");
    std::fs::write(&bad, "not a netlist at all\n").unwrap();
    let (code, _, stderr) = zeusc_code(&["import", bad.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("Z601"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A payload without its `zeus netlist v1` line is refused with Z601 by
/// `import` and by every netlist consumer alike; it never reaches the
/// `.zeus` parser.
#[test]
fn bare_payload_is_refused_with_z601_everywhere() {
    let dir = std::env::temp_dir().join(format!("zeusc-test-bare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (ok, text, stderr) = zeusc(&["export", "@mux", "muxtop"]);
    assert!(ok, "{stderr}");
    let bare = dir.join("bare.znl");
    let bare_s = bare.to_str().unwrap();
    std::fs::write(&bare, text.strip_prefix("zeus netlist v1\n").unwrap()).unwrap();
    for argv in [
        &["import", bare_s][..],
        &["import", bare_s, "--validate-only"],
        &["import", bare_s, "--format", "text"],
        &["sim", bare_s, "--cycles", "1"],
        &["fault", bare_s, "--vectors", "4"],
        &["opt", bare_s],
    ] {
        let (code, stdout, stderr) = zeusc_code(argv);
        assert_eq!(code, 2, "{argv:?}: {stderr}");
        assert!(stdout.is_empty(), "{argv:?}: {stdout}");
        assert!(
            stderr
                .contains("error[Z601]: not a zeus netlist: expected the 'zeus netlist v1' header"),
            "{argv:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn import_rejects_version_skew_with_z602() {
    let dir = std::env::temp_dir().join(format!("zeusc-test-skew-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.znl");
    std::fs::write(&bad, "zeus netlist v99\nwhatever\n").unwrap();
    let (code, _, stderr) = zeusc_code(&["import", bad.to_str().unwrap()]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("Z602"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_covers_import_and_export() {
    let (ok, stdout, _) = zeusc(&["help", "import"]);
    assert!(ok);
    assert!(stdout.contains("--validate-only"), "{stdout}");
    let (ok, stdout, _) = zeusc(&["help", "export"]);
    assert!(ok);
    assert!(stdout.contains("yosys-json"), "{stdout}");
}

fn benchmark(file: &str) -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../benchmarks")
        .join(file)
        .to_str()
        .unwrap()
        .to_string()
}

#[test]
fn vendored_c17_runs_the_whole_pipeline() {
    let c17 = benchmark("c17.znl");
    let (ok, stdout, _) = zeusc(&["import", &c17]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("top       : c17"), "{stdout}");

    // The vendored text is byte-stable through export.
    let (ok, reexport, _) = zeusc(&["export", &c17]);
    assert!(ok);
    assert_eq!(reexport, std::fs::read_to_string(&c17).unwrap());

    let dir = std::env::temp_dir().join(format!("zeusc-test-c17-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("c17.journal");
    let ckpt_s = ckpt.to_str().unwrap();

    let (ok, stdout, _) = zeusc(&["sim", &c17, "--cycles", "2"]);
    assert!(ok, "{stdout}");
    let (ok, fresh, _) = zeusc(&["fault", &c17, "--seed", "7", "--checkpoint", ckpt_s]);
    assert!(ok, "{fresh}");
    let (ok, resumed, _) = zeusc(&[
        "fault",
        &c17,
        "--seed",
        "7",
        "--checkpoint",
        ckpt_s,
        "--resume",
    ]);
    assert!(ok, "{resumed}");
    let grade = |s: &str| {
        s.lines()
            .find(|l| l.contains("coverage"))
            .map(str::to_string)
    };
    assert_eq!(grade(&fresh), grade(&resumed), "{fresh}\n---\n{resumed}");

    let (ok, stdout, _) = zeusc(&["atpg", &c17]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("coverage"), "{stdout}");
    let (ok, stdout, _) = zeusc(&["opt", &c17]);
    assert!(ok, "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn vendored_c432_imports_and_optimizes() {
    let c432 = benchmark("c432.znl");
    let (ok, stdout, _) = zeusc(&["import", &c432]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("nodes     : 177"), "{stdout}");
    let (ok, reexport, _) = zeusc(&["export", &c432]);
    assert!(ok);
    assert_eq!(reexport, std::fs::read_to_string(&c432).unwrap());
    let (ok, stdout, _) = zeusc(&["opt", &c432]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("verified"), "{stdout}");
}
