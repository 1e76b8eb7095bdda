//! `campaign`: packed fault simulation. Each job is one pass over the
//! designs elaborated in set-up: `enumerate_faults`, then
//! `run_campaign_packed(…, 1)`, then report rendering.

use std::fmt::Write as _;
use std::hint::black_box;

use zeus::{
    CampaignConfig, CoverageReport, Design, Diagnostic, FaultListOptions, Outcome as FaultOutcome,
    PackedSim, Simulator, Value, VectorStream,
};

use crate::common::{
    digest, latency_metrics, measure, pass_order, peak_rss_mb, repeat_setup, timed, Cfg, Outcome,
    Pace,
};
use crate::trace::Tracer;

/// One design of the pass.
struct Entry {
    label: &'static str,
    file: &'static str,
    top: &'static str,
    args: &'static [i64],
    vectors: u32,
    bridges: bool,
}

/// The first two detect nearly every fault early, so fault dropping
/// would pay on them; the last two detect about half, so only a faster
/// per-cycle kernel pays there.
const ENTRIES: &[Entry] = &[
    Entry {
        label: "rippleCarry 128",
        file: "zeus-programs/adders.zeus",
        top: "rippleCarry",
        args: &[128],
        vectors: 16,
        bridges: false,
    },
    Entry {
        label: "routingnetwork 16",
        file: "zeus-programs/routing.zeus",
        top: "routingnetwork",
        args: &[16],
        vectors: 16,
        bridges: false,
    },
    Entry {
        label: "am2901 (bridges)",
        file: "zeus-programs/am2901.zeus",
        top: "am2901",
        args: &[],
        vectors: 16,
        bridges: true,
    },
    Entry {
        label: "blackjack",
        file: "zeus-programs/blackjack.zeus",
        top: "blackjack",
        args: &[],
        vectors: 128,
        bridges: false,
    },
];

/// Campaign seed: fixed, so the expected outcomes can be kept on disk.
const CAMPAIGN_SEED: u64 = 1983;

/// Expected per-fault outcomes, written by `perfbench write-expected`
/// from the scalar `run_campaign`.
const EXPECTED: &str = "perfbench/expected/campaign.txt";

/// Repetitions of each simulator probe in a traced run.
const PROBE_REPS: usize = 5;

fn campaign_cfg(e: &Entry) -> CampaignConfig {
    CampaignConfig::new(zeus::Engine::Graph, e.vectors, CAMPAIGN_SEED)
}

fn fault_opts(e: &Entry) -> FaultListOptions {
    FaultListOptions {
        bridges: e.bridges,
        ..FaultListOptions::default()
    }
}

pub fn elaborate(file: &str, top: &str, args: &[i64]) -> Result<Design, String> {
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    zeus::compile(&src, top, args).map_err(|d| format!("{file} {top}: {d}"))
}

/// One line per design: label, faults, detected, digest of every
/// fault's outcome, detection cycle and port.
pub fn outcome_line(label: &str, report: &CoverageReport) -> String {
    let mut text = String::new();
    for r in &report.results {
        let _ = writeln!(text, "{:?} {} {:?}", r.fault, r.site_name, r.outcome);
    }
    format!(
        "{}\t{}\t{}\t{:016x}",
        label,
        report.total(),
        report.detected(),
        digest(&text)
    )
}

/// Regenerates [`EXPECTED`] with the scalar campaign runner, the
/// reference the packed runner must match.
pub fn write_expected() -> Result<(), String> {
    let mut text =
        String::from("# label\tfaults\tdetected\toutcome digest (scalar run_campaign)\n");
    for e in ENTRIES {
        let design = elaborate(e.file, e.top, e.args)?;
        let list = zeus::enumerate_faults(&design, &fault_opts(e));
        let report = zeus::run_campaign(&design, &list, &campaign_cfg(e))
            .map_err(|d| format!("{}: {d}", e.label))?;
        text.push_str(&outcome_line(e.label, &report));
        text.push('\n');
    }
    std::fs::write(EXPECTED, text).map_err(|e| format!("cannot write {EXPECTED}: {e}"))
}

fn load_expected() -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(EXPECTED).map_err(|e| format!("cannot read {EXPECTED}: {e}"))?;
    let lines: Vec<String> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    if lines.len() != ENTRIES.len() {
        return Err(format!("{EXPECTED}: expected {} designs", ENTRIES.len()));
    }
    Ok(lines)
}

/// Fault×cycle work after each fault's detection, and all of it.
fn dead_lanes(design: &Design, e: &Entry, report: &CoverageReport) -> (u64, u64) {
    let cycles = u64::from(e.vectors) + u64::from(design.rset.is_some());
    let dead = report
        .results
        .iter()
        .map(|r| match r.outcome {
            FaultOutcome::Detected { cycle, .. } => cycles.saturating_sub(cycle + 1),
            _ => 0,
        })
        .sum();
    (dead, cycles * report.results.len() as u64)
}

struct DesignOut {
    line: String,
    text_digest: u64,
    detected: usize,
    total: usize,
}

fn run_entry(e: &Entry, design: &Design, tr: &mut Tracer) -> Result<DesignOut, String> {
    let id = tr.open("fault.enumerate");
    let list = zeus::enumerate_faults(design, &fault_opts(e));
    tr.close(id);
    tr.count(id, "faults", list.faults.len() as u64);
    let id = tr.open("fault.campaign");
    let report = zeus::run_campaign_packed(design, &list, &campaign_cfg(e), 1);
    tr.close(id);
    let report = report.map_err(|d| format!("{}: {d}", e.label))?;
    let (dead, lanes) = dead_lanes(design, e, &report);
    tr.count(id, "dead_lanes", dead);
    tr.count(id, "lanes", lanes);
    let text = tr.span("fault.report", || report.to_text());
    Ok(DesignOut {
        line: outcome_line(e.label, &report),
        text_digest: digest(&text),
        detected: report.detected(),
        total: report.total(),
    })
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let load = || -> Result<_, String> {
        let designs = ENTRIES
            .iter()
            .map(|e| elaborate(e.file, e.top, e.args))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((designs, load_expected()?))
    };
    let (first_setup_s, (designs, expected)) = timed(load)?;
    let mut tr = Tracer::new();
    let n = ENTRIES.len();

    let mut first: Option<Vec<u64>> = None;
    let mut mismatched: Vec<String> = Vec::new();
    let mut totals = (0usize, 0usize);
    let m = measure(
        cfg,
        Pace::Batch,
        &mut tr,
        &mut out,
        repeat_setup(load),
        |pass, tr| {
            let mut outs: Vec<Option<DesignOut>> = (0..n).map(|_| None).collect();
            for i in pass_order(cfg.seed, pass, n) {
                outs[i] = Some(run_entry(&ENTRIES[i], &designs[i], tr)?);
            }
            Ok(outs.into_iter().flatten().collect::<Vec<_>>())
        },
        |_, outs| {
            let mut ok = true;
            for (o, want) in outs.iter().zip(&expected) {
                if &o.line != want {
                    ok = false;
                    if mismatched.len() < 5 {
                        mismatched.push(format!("got {} want {want}", o.line));
                    }
                }
            }
            let texts: Vec<u64> = outs.iter().map(|o| o.text_digest).collect();
            match &first {
                None => {
                    first = Some(texts);
                    totals = (
                        outs.iter().map(|o| o.detected).sum(),
                        outs.iter().map(|o| o.total).sum(),
                    );
                }
                Some(f) => ok &= *f == texts,
            }
            ok
        },
    )?;
    let rss = peak_rss_mb("self")?;
    for what in mismatched {
        out.note(format!(
            "fault outcomes differ from the scalar reference: {what}"
        ));
    }

    out.metric("setup_s", m.setup_median(first_setup_s), "s");
    latency_metrics(&m, &mut out);
    out.metric("peak_rss_mb", rss, "MB");
    let gates: usize = designs.iter().map(|d| d.netlist.node_count()).sum();
    out.metric("opt_gates", gates as f64, "gates");
    out.metric(
        "coverage_pct",
        100.0 * totals.0 as f64 / totals.1.max(1) as f64,
        "%",
    );
    let vectors: u32 = ENTRIES.iter().map(|e| e.vectors).sum();
    out.metric("test_vectors", f64::from(vectors), "count");
    out.note(format!("detected {} of {} faults", totals.0, totals.1));
    if cfg.trace {
        for _ in 0..PROBE_REPS {
            let streams = ENTRIES
                .iter()
                .zip(&designs)
                .map(|(e, d)| (d, VectorStream::new(d, CAMPAIGN_SEED), e.vectors))
                .collect::<Vec<_>>();
            probe_sims(&mut tr, &streams)?;
        }
        crate::layers::finish(cfg, &tr, &m, &mut out)?;
    }
    Ok(out)
}

/// The two engines' stepping interface, as the probes drive it.
trait Engine {
    fn reseed(&mut self, seed: u64);
    fn set_rset(&mut self, v: bool);
    fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic>;
    fn step(&mut self);
}

impl Engine for Simulator {
    fn reseed(&mut self, seed: u64) {
        Simulator::reseed(self, seed);
    }
    fn set_rset(&mut self, v: bool) {
        Simulator::set_rset(self, v);
    }
    fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic> {
        Simulator::set_port(self, name, bits)
    }
    fn step(&mut self) {
        black_box(Simulator::step(self));
    }
}

impl Engine for PackedSim {
    fn reseed(&mut self, seed: u64) {
        PackedSim::reseed(self, seed);
    }
    fn set_rset(&mut self, v: bool) {
        PackedSim::set_rset(self, v);
    }
    fn set_port(&mut self, name: &str, bits: &[Value]) -> Result<(), Diagnostic> {
        PackedSim::set_port(self, name, bits)
    }
    fn step(&mut self) {
        black_box(PackedSim::step(self));
    }
}

/// Steps freshly built simulators over each design's vector stream the
/// way the campaign runner records its golden trace (reset cycle first
/// when the design has RSET), inside one probe span named `name`.
fn probe<S: Engine>(
    tr: &mut Tracer,
    name: &'static str,
    mut sims: Vec<S>,
    streams: &[Stream],
) -> Result<(), String> {
    let mut steps = 0u64;
    let id = tr.open(name);
    for (sim, (design, stream, vectors)) in sims.iter_mut().zip(streams) {
        let mut stream = stream.clone();
        sim.reseed(stream.seed());
        if design.rset.is_some() {
            sim.set_rset(true);
            for (port, bits) in stream.zero_vector() {
                sim.set_port(&port, &bits).map_err(|d| d.to_string())?;
            }
            sim.step();
            sim.set_rset(false);
            steps += 1;
        }
        for _ in 0..*vectors {
            for (port, bits) in &stream.next_vector() {
                sim.set_port(port, bits).map_err(|d| d.to_string())?;
            }
            sim.step();
            steps += 1;
        }
    }
    tr.close(id);
    tr.count(id, "steps", steps);
    Ok(())
}

fn build<S>(
    streams: &[Stream],
    new: impl Fn(Design) -> Result<S, Diagnostic>,
) -> Result<Vec<S>, String> {
    streams
        .iter()
        .map(|(d, _, _)| new((*d).clone()).map_err(|e| e.to_string()))
        .collect()
}

/// A design, the stream a campaign drives it with, and its length.
pub type Stream<'a> = (&'a Design, VectorStream, u32);

/// Times `Simulator::step` (the campaign runner's golden trace) and
/// `PackedSim::step` over each design's stream, one probe span per
/// engine. Building the simulators stays outside the spans.
pub fn probe_sims(tr: &mut Tracer, streams: &[Stream]) -> Result<(), String> {
    let scalar = build(streams, Simulator::new)?;
    let packed = build(streams, PackedSim::new)?;
    tr.set_on(true);
    probe(tr, "sim.golden", scalar, streams)?;
    probe(tr, "sim.packed", packed, streams)?;
    tr.set_on(false);
    Ok(())
}
