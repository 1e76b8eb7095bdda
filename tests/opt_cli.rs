//! CLI-level coverage for `zeusc opt` and the `--opt` threading flag,
//! including the checkpoint-splice regression: a fault campaign
//! checkpoint recorded against one side of the optimization boundary
//! must never resume onto the other side, in either direction, because
//! the optimized design's digest (and therefore the campaign digest) is
//! distinct.

use zeus_cli::run_captured;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// A scratch path that does not outlive the test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("zeus-opt-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn opt_reports_deltas_and_exits_zero() {
    let (code, out, err) = run_captured(&args(&["opt", "@adders", "rippleCarry4"]));
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("gates     : 82 -> "), "out: {out}");
    assert!(out.contains("verified  : exhaustive"), "out: {out}");
    assert!(out.contains("faults    : "), "out: {out}");
}

#[test]
fn opt_json_report_is_machine_readable() {
    let (code, out, _) = run_captured(&args(&["opt", "@mux", "muxtop", "--json", "--report"]));
    assert_eq!(code, 0);
    for key in [
        "\"before\"",
        "\"after\"",
        "\"faults_before\"",
        "\"faults_after\"",
        "\"verified\"",
        "\"passes\"",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
}

/// `--emit` writes `zeus netlist v1` text, which the importer and the
/// netlist-consuming commands read back.
#[test]
fn opt_emit_writes_a_loadable_design() {
    let path = scratch("emitted.znl");
    let file = path.to_str().unwrap();
    let (code, _, err) = run_captured(&args(&["opt", "@trees", "rtree", "8", "--emit", file]));
    assert_eq!(code, 0, "stderr: {err}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("zeus netlist v1\n"), "{text}");
    let d = zeus::netlist_from_text(&text).unwrap();
    assert!(d.optimized, "emitted design must carry the optimized flag");
    let (code, out, err) = run_captured(&args(&["import", file, "--validate-only"]));
    assert_eq!(code, 0, "stderr: {err}");
    assert_eq!(out, format!("valid     : {}\n", zeus::validated_digest(&d)));
    let (code, _, err) = run_captured(&args(&["sim", file, "--cycles", "2"]));
    assert_eq!(code, 0, "stderr: {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sim_opt_reproduces_the_unoptimized_port_trace() {
    let base = args(&[
        "sim",
        "@adders",
        "rippleCarry4",
        "--set",
        "a=11",
        "--set",
        "b=6",
        "--cycles",
        "3",
    ]);
    let mut opt = base.clone();
    opt.push("--opt".to_string());
    let (c0, out0, _) = run_captured(&base);
    let (c1, out1, err1) = run_captured(&opt);
    assert_eq!(c0, 0);
    assert_eq!(c1, 0);
    assert_eq!(out0, out1, "optimized sim must print the same report");
    assert!(err1.contains("opt       : gates"), "stderr: {err1}");
}

/// An unoptimized checkpoint must not resume an `--opt` campaign.
#[test]
fn resume_rejects_unoptimized_checkpoint_onto_optimized_run() {
    let ck = scratch("plain-to-opt.journal");
    let _ = std::fs::remove_file(&ck);
    let common = [
        "fault",
        "@adders",
        "rippleCarry4",
        "--seed",
        "11",
        "--vectors",
        "8",
        "--checkpoint",
    ];
    let mut record = args(&common);
    record.push(ck.to_str().unwrap().to_string());
    let (code, _, err) = run_captured(&record);
    assert_eq!(code, 0, "recording run failed: {err}");
    assert!(ck.exists(), "explicit checkpoint must persist");

    let mut resume = record.clone();
    resume.push("--resume".to_string());
    resume.push("--opt".to_string());
    let (code, _, err) = run_captured(&resume);
    assert_eq!(code, 2, "splice must be a diagnostics failure: {err}");
    assert!(
        err.contains("different campaign"),
        "expected a digest mismatch, got: {err}"
    );
    let _ = std::fs::remove_file(&ck);
}

/// ... and an optimized checkpoint must not resume a plain campaign
/// (the other splice order).
#[test]
fn resume_rejects_optimized_checkpoint_onto_unoptimized_run() {
    let ck = scratch("opt-to-plain.journal");
    let _ = std::fs::remove_file(&ck);
    let common = [
        "fault",
        "@adders",
        "rippleCarry4",
        "--seed",
        "11",
        "--vectors",
        "8",
        "--checkpoint",
    ];
    let mut record = args(&common);
    record.push(ck.to_str().unwrap().to_string());
    record.push("--opt".to_string());
    let (code, _, err) = run_captured(&record);
    assert_eq!(code, 0, "recording run failed: {err}");
    assert!(ck.exists(), "explicit checkpoint must persist");

    let mut resume = args(&common);
    resume.push(ck.to_str().unwrap().to_string());
    resume.push("--resume".to_string());
    let (code, _, err) = run_captured(&resume);
    assert_eq!(code, 2, "splice must be a diagnostics failure: {err}");
    assert!(
        err.contains("different campaign"),
        "expected a digest mismatch, got: {err}"
    );
    let _ = std::fs::remove_file(&ck);
}

/// The same-side resume still works with `--opt` on both runs: the
/// optimized campaign digest is stable, so a completed journal replays
/// to a byte-identical report.
#[test]
fn resume_accepts_matching_optimized_checkpoint() {
    let ck = scratch("opt-to-opt.journal");
    let _ = std::fs::remove_file(&ck);
    let mut record = args(&[
        "fault",
        "@adders",
        "rippleCarry4",
        "--seed",
        "11",
        "--vectors",
        "8",
        "--opt",
        "--checkpoint",
    ]);
    record.push(ck.to_str().unwrap().to_string());
    let (code, out_cold, err) = run_captured(&record);
    assert_eq!(code, 0, "recording run failed: {err}");

    let mut resume = record.clone();
    resume.push("--resume".to_string());
    let (code, out_resumed, err) = run_captured(&resume);
    assert_eq!(code, 0, "matching resume must succeed: {err}");
    assert_eq!(
        out_cold, out_resumed,
        "a fully-journaled resume must reproduce the report byte for byte"
    );
    let _ = std::fs::remove_file(&ck);
}
