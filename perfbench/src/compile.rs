//! `compile`: the front end, the optimizer and the interchange format,
//! with no fault simulation. Each job is one pass over the input list:
//! parse → check → elaborate → levelize → [optimize] → export → import
//! for every `.zeus` entry, import → levelize → export for the `.znl`
//! entry.

use std::hint::black_box;

use zeus::{Design, OptConfig, Simulator};

use crate::common::{
    digest, latency_metrics, measure, pass_order, peak_rss_mb, repeat_setup, timed, Cfg, Outcome,
    Pace, Rng,
};
use crate::trace::Tracer;

/// One input of the pass.
struct Entry {
    label: &'static str,
    /// Path of the program, relative to the checkout.
    file: &'static str,
    top: &'static str,
    args: &'static [i64],
    optimize: bool,
    /// Independent check of the optimized design.
    check: Check,
}

#[derive(Clone, Copy, PartialEq)]
enum Check {
    None,
    /// `rippleCarry n`: sums equal `u64` addition on seeded operands.
    Adder(u32),
    /// Combinational with at most 16 input bits: `check_equivalent`
    /// against the unoptimized design.
    Equivalent,
}

/// Elaboration and interchange span 0.5k to 22k gates; the optimizer
/// runs on the entries up to ~1.1k gates, where its super-linear cost
/// already shows.
const ENTRIES: &[Entry] = &[
    Entry {
        label: "am2901",
        file: "zeus-programs/am2901.zeus",
        top: "am2901",
        args: &[],
        optimize: false,
        check: Check::None,
    },
    Entry {
        label: "sorter 8 8",
        file: "zeus-programs/sorter.zeus",
        top: "sorter",
        args: &[8, 8],
        optimize: false,
        check: Check::None,
    },
    Entry {
        label: "routingnetwork 64",
        file: "zeus-programs/routing.zeus",
        top: "routingnetwork",
        args: &[64],
        optimize: false,
        check: Check::None,
    },
    Entry {
        label: "ram 256 16 8",
        file: "zeus-programs/ram.zeus",
        top: "ram",
        args: &[256, 16, 8],
        optimize: false,
        check: Check::None,
    },
    Entry {
        label: "rippleCarry 48",
        file: "zeus-programs/adders.zeus",
        top: "rippleCarry",
        args: &[48],
        optimize: true,
        check: Check::Adder(48),
    },
    Entry {
        label: "routingnetwork 8",
        file: "zeus-programs/routing.zeus",
        top: "routingnetwork",
        args: &[8],
        optimize: true,
        check: Check::None,
    },
    Entry {
        label: "muxtop",
        file: "zeus-programs/mux.zeus",
        top: "muxtop",
        args: &[],
        optimize: true,
        check: Check::Equivalent,
    },
    Entry {
        label: "rippleCarry4",
        file: "zeus-programs/adders.zeus",
        top: "rippleCarry4",
        args: &[],
        optimize: true,
        check: Check::Equivalent,
    },
];

/// The `.znl` input: imported, levelized and exported again.
const ZNL: &str = "benchmarks/c432.znl";

/// Seeded operand triples for each adder check.
const ADDER_VECTORS: usize = 64;

struct Inputs {
    sources: Vec<String>,
    znl: String,
    operands: Vec<(u64, u64, u64)>,
}

fn load(seed: u64) -> Result<Inputs, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let sources = ENTRIES
        .iter()
        .map(|e| read(e.file))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = Rng::new(seed, 0xadd);
    let operands = (0..ADDER_VECTORS)
        .map(|_| (rng.next_u64(), rng.next_u64(), rng.next_u64() & 1))
        .collect();
    Ok(Inputs {
        sources,
        znl: read(ZNL)?,
        operands,
    })
}

/// What one entry of one pass produced.
struct EntryOut {
    gates: usize,
    opt_gates: Option<usize>,
    text: String,
    imported: Design,
    /// Unoptimized and optimized designs, for the one-off checks.
    designs: Option<(Design, Design)>,
}

fn compile_entry(e: &Entry, src: &str, tr: &mut Tracer) -> Result<EntryOut, String> {
    let fail = |what: &str, msg: String| format!("{}: {what}: {msg}", e.label);
    let prog = tr
        .span("syntax.parse", || zeus_syntax::parse_program(src))
        .map_err(|d| fail("parse", d.to_string()))?;
    tr.span("sema.check", || zeus_sema::check_program(&prog))
        .map_err(|d| fail("check", d.to_string()))?;
    let id = tr.open("elab.elaborate");
    let design = zeus_elab::elaborate(&prog, e.top, e.args);
    tr.close(id);
    let design = design.map_err(|d| fail("elaborate", d.to_string()))?;
    let gates = design.netlist.node_count();
    tr.count(id, "gates", gates as u64);
    let order = tr
        .span("elab.levelize", || design.netlist.topo_order())
        .map_err(|d| fail("levelize", d.to_string()))?;
    black_box(order);
    let (out, designs, opt_gates) = if e.optimize {
        let id = tr.open("opt.optimize");
        let opt = zeus_opt::optimize(&design, &OptConfig::default());
        tr.close(id);
        let opt = opt.map_err(|d| fail("optimize", d.to_string()))?;
        tr.count(id, "iterations", u64::from(opt.report.iterations));
        tr.count(id, "rewrites", opt.report.total_rewrites() as u64);
        let n = opt.design.netlist.node_count();
        tr.count(id, "gates", n as u64);
        (opt.design.clone(), Some((design, opt.design)), Some(n))
    } else {
        (design, None, None)
    };
    let id = tr.open("netlist.export");
    let text = zeus::netlist_to_text(&out);
    tr.close(id);
    tr.count(id, "bytes", text.len() as u64);
    let imported = tr
        .span("netlist.import", || zeus::netlist_from_text(&text))
        .map_err(|d| fail("import", d.to_string()))?;
    Ok(EntryOut {
        gates,
        opt_gates,
        text,
        imported,
        designs,
    })
}

fn import_znl(text: &str, tr: &mut Tracer) -> Result<EntryOut, String> {
    let design = tr
        .span("netlist.import", || zeus::netlist_from_text(text))
        .map_err(|d| format!("{ZNL}: import: {d}"))?;
    let order = tr
        .span("elab.levelize", || design.netlist.topo_order())
        .map_err(|d| format!("{ZNL}: levelize: {d}"))?;
    black_box(order);
    let id = tr.open("netlist.export");
    let out = zeus::netlist_to_text(&design);
    tr.close(id);
    tr.count(id, "bytes", out.len() as u64);
    Ok(EntryOut {
        gates: design.netlist.node_count(),
        opt_gates: None,
        text: out,
        imported: design,
        designs: None,
    })
}

/// Per entry: gates, optimized gates and the export's digest. Every
/// pass must reproduce the first pass's signature exactly.
type Signature = Vec<(usize, Option<usize>, u64)>;

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (first_setup_s, inputs) = timed(|| load(cfg.seed))?;
    let mut tr = Tracer::new();
    let n = ENTRIES.len() + 1;

    let mut first: Option<Signature> = None;
    let mut kept: Vec<Option<(Design, Design)>> = Vec::new();
    let m = measure(
        cfg,
        Pace::Batch,
        &mut tr,
        &mut out,
        repeat_setup(|| load(cfg.seed)),
        |pass, tr| {
            let mut outs: Vec<Option<EntryOut>> = (0..n).map(|_| None).collect();
            for i in pass_order(cfg.seed, pass, n) {
                outs[i] = Some(if i < ENTRIES.len() {
                    compile_entry(&ENTRIES[i], &inputs.sources[i], tr)?
                } else {
                    import_znl(&inputs.znl, tr)?
                });
            }
            Ok(outs.into_iter().flatten().collect::<Vec<_>>())
        },
        |_, outs| {
            // export → import → export must be byte-identical.
            let stable = outs
                .iter()
                .all(|o| zeus::netlist_to_text(&o.imported) == o.text);
            let sig: Signature = outs
                .iter()
                .map(|o| (o.gates, o.opt_gates, digest(&o.text)))
                .collect();
            let same = match &first {
                None => {
                    first = Some(sig);
                    kept = outs.into_iter().map(|o| o.designs).collect();
                    true
                }
                Some(f) => *f == sig,
            };
            stable && same
        },
    )?;
    let rss = peak_rss_mb("self")?;
    let sig = first.ok_or("no pass completed")?;

    // One-off independent checks of the optimized outputs.
    let mut checked = 0usize;
    let mut optimized = 0usize;
    let mut vectors = 0usize;
    for (e, designs) in ENTRIES.iter().zip(&kept) {
        let Some((orig, opt)) = designs else { continue };
        optimized += 1;
        match e.check {
            Check::None => {}
            Check::Adder(bits) => {
                checked += 1;
                vectors += inputs.operands.len();
                if let Err(msg) = check_adder(opt, bits, &inputs.operands) {
                    out.fail_all(format!("{}: {msg}", e.label));
                }
            }
            Check::Equivalent => {
                checked += 1;
                let bits: usize = orig.inputs().map(|p| p.width()).sum();
                vectors += 1 << bits;
                match zeus::check_equivalent(orig, opt, 16) {
                    Ok(None) => {}
                    Ok(Some(cex)) => {
                        out.fail_all(format!("{}: optimized design differs: {cex:?}", e.label))
                    }
                    Err(d) => out.fail_all(format!("{}: equivalence check failed: {d}", e.label)),
                }
            }
        }
    }

    out.metric("setup_s", m.setup_median(first_setup_s), "s");
    latency_metrics(&m, &mut out);
    out.metric("peak_rss_mb", rss, "MB");
    let opt_gates: usize = sig.iter().filter_map(|s| s.1).sum();
    out.metric("opt_gates", opt_gates as f64, "gates");
    out.metric(
        "coverage_pct",
        100.0 * checked as f64 / optimized.max(1) as f64,
        "%",
    );
    out.metric("test_vectors", vectors as f64, "count");
    out.note(format!(
        "gates per entry {:?}, optimized {:?}",
        sig.iter().map(|s| s.0).collect::<Vec<_>>(),
        sig.iter().filter_map(|s| s.1).collect::<Vec<_>>()
    ));
    if cfg.trace {
        crate::layers::finish(cfg, &tr, &m, &mut out)?;
    }
    Ok(out)
}

fn check_adder(design: &Design, bits: u32, operands: &[(u64, u64, u64)]) -> Result<(), String> {
    let mut sim = Simulator::new(design.clone()).map_err(|d| d.to_string())?;
    let mask = (1u64 << bits) - 1;
    for &(a, b, cin) in operands {
        let (a, b) = (a & mask, b & mask);
        for (port, v) in [("a", a), ("b", b), ("cin", cin)] {
            sim.set_port_num(port, v).map_err(|d| d.to_string())?;
        }
        sim.step();
        let total = u128::from(a) + u128::from(b) + u128::from(cin);
        let want_s = (total as u64 & mask) as i64;
        let want_c = (total >> bits) as i64;
        if sim.port_num("s") != Some(want_s) || sim.port_num("cout") != Some(want_c) {
            return Err(format!(
                "{a} + {b} + {cin}: optimized adder gives the wrong sum"
            ));
        }
    }
    Ok(())
}
