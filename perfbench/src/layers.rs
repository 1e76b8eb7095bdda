//! The traced run's report: every per-layer metric, derived from the
//! span file alone. A layer a workload does not call reports zero.

use crate::common::{Cfg, Measured, Outcome};
use crate::stats::median;
use crate::trace::{self, Profile, Tracer, LAYERS};

/// Writes the span file, reads it back and replaces the end-to-end
/// metrics in `out` with the per-layer ones.
pub fn finish(cfg: &Cfg, tr: &Tracer, m: &Measured, out: &mut Outcome) -> Result<(), String> {
    let path = cfg.span_file()?;
    tr.write(&path)?;
    let p = Profile::from_spans(&trace::read(&path)?)?;
    out.metrics.clear();
    report(&p, m, out)?;
    out.note(format!(
        "spans: {} ({} traced jobs)",
        path.display(),
        p.jobs()
    ));
    Ok(())
}

/// Per-step time of a stepping probe, in µs: the probe's median
/// repetition divided by the steps one repetition takes.
fn per_step_us(p: &Profile, name: &str) -> f64 {
    let reps = p.probe_reps(name);
    if reps == 0 {
        return 0.0;
    }
    let steps = p.probe_count(name, "steps") as f64 / reps as f64;
    if steps == 0.0 {
        return 0.0;
    }
    p.probe_ms(name) * 1e3 / steps
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn report(p: &Profile, m: &Measured, out: &mut Outcome) -> Result<(), String> {
    let job_ms = [
        ("syntax.parse_ms", "syntax.parse"),
        ("sema.check_ms", "sema.check"),
        ("elab.elaborate_ms", "elab.elaborate"),
        ("elab.levelize_ms", "elab.levelize"),
        ("opt.optimize_ms", "opt.optimize"),
        ("netlist.export_ms", "netlist.export"),
        ("netlist.import_ms", "netlist.import"),
        ("fault.enumerate_ms", "fault.enumerate"),
        ("fault.campaign_ms", "fault.campaign"),
        ("atpg.run_ms", "atpg.run"),
        ("daemon.hit_ms", "daemon.hit"),
        ("daemon.miss_ms", "daemon.miss"),
    ];
    for (metric, span) in job_ms {
        out.metric(metric, p.job_ms(span), "ms");
    }
    let job_counts = [
        ("elab.gates", "elab.elaborate", "gates", "gates"),
        ("opt.iterations", "opt.optimize", "iterations", "count"),
        ("opt.rewrites", "opt.optimize", "rewrites", "count"),
        ("netlist.bytes", "netlist.export", "bytes", "bytes"),
        ("fault.faults", "fault.enumerate", "faults", "count"),
        ("atpg.harvest_rounds", "atpg.run", "harvest_rounds", "count"),
        ("atpg.podem_attempts", "atpg.run", "podem_attempts", "count"),
        ("atpg.aborted", "atpg.run", "aborted", "count"),
        ("atpg.redundant", "atpg.run", "redundant", "count"),
        (
            "atpg.compaction_removed",
            "atpg.run",
            "compaction_removed",
            "count",
        ),
        ("sat.solves", "atpg.run", "sat_solves", "count"),
        ("sat.unknown", "atpg.run", "sat_unknown", "count"),
        ("sat.promoted", "atpg.run", "sat_promoted", "count"),
        ("sat.rescued", "atpg.run", "sat_rescued", "count"),
    ];
    for (metric, span, key, unit) in job_counts {
        out.metric(metric, p.job_count(span, key)? as f64, unit);
    }
    let dead = p.job_count("fault.campaign", "dead_lanes")?;
    let lanes = p.job_count("fault.campaign", "lanes")?;
    out.metric("fault.dead_lane_frac", ratio(dead, lanes), "ratio");

    out.metric("sim.packed_step_us", per_step_us(p, "sim.packed"), "us");
    out.metric("sim.scalar_step_us", per_step_us(p, "sim.golden"), "us");
    out.metric("sim.golden_ms", p.probe_ms("sim.golden"), "ms");
    out.metric("atpg.grade_ms", p.probe_ms("atpg.grade"), "ms");
    out.metric("sat.solve_ms", p.probe_ms("sat.solve"), "ms");
    out.metric("daemon.recovery_ms", p.probe_ms("daemon.recovery"), "ms");
    let reps = p.probe_reps("daemon.recovery") as u64;
    out.metric(
        "daemon.entries",
        ratio(p.probe_count("daemon.recovery", "entries"), reps),
        "count",
    );
    out.metric("daemon.serve_ms", p.probe_ms("daemon.serve"), "ms");
    out.metric("cli.local_ms", p.probe_ms("cli.local"), "ms");
    let hits = p.jobs_with("daemon.hit") as u64;
    let requests = hits + p.jobs_with("daemon.miss") as u64;
    out.metric("daemon.hit_ratio", ratio(hits, requests), "ratio");

    for layer in LAYERS {
        out.metric(&format!("{layer}.self_ms"), p.self_ms(layer), "ms");
    }
    out.metric("harness.self_ms", p.self_ms("harness"), "ms");
    out.metric("harness.share_pct", p.harness_pct(), "%");

    let (traced, untraced) = (median(&m.traced_ms), median(&m.lat_ms));
    out.metric("trace.traced_p50_ms", traced, "ms");
    out.metric("trace.untraced_p50_ms", untraced, "ms");
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
    Ok(())
}

/// Every per-layer metric with its unit, in report order.
#[cfg(test)]
pub fn names() -> Vec<(String, &'static str)> {
    let mut out = Outcome::default();
    let m = Measured {
        lat_ms: vec![1.0],
        scaled_ms: vec![1.0],
        traced_ms: vec![1.0],
        setup_s: Vec::new(),
        setup_raw_s: Vec::new(),
        slowness: Vec::new(),
    };
    let empty = Profile::from_spans(&[]).expect("an empty span list is consistent");
    report(&empty, &m, &mut out).expect("an empty profile has no conflicting counts");
    out.metrics.into_iter().map(|(n, _, u)| (n, u)).collect()
}
