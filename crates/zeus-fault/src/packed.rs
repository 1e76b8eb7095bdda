//! Bit-parallel, multi-threaded fault campaigns: the production runner.
//!
//! [`run_campaign_packed`] produces the *same* [`CoverageReport`] as the
//! scalar reference [`run_campaign`](crate::run_campaign) — byte for
//! byte, for the same design, fault list, and seed — and shards the word
//! list across `std::thread` workers through the shared word runner. On
//! the graph engine each word simulates up to 64 faulty circuits in one
//! [`PackedSim`] pass, one fault per lane; packed words model only the
//! semantics graph, so on the switch engine each word's faults run one
//! at a time on the scalar word simulator.
//!
//! Three ingredients keep the packed graph words identical to the
//! scalar path:
//!
//! 1. **A shared golden trace.** The fault-free run is the same for
//!    every fault, so it is executed once with the real scalar
//!    [`Simulator`] under the per-fault [`Limits`], and every tick's
//!    input bits and OUT bits (boolean view) are recorded flat, one
//!    [`Value`] per bit (14 bytes a tick for `rippleCarry4`), along
//!    with the classification of a budget error if the golden run
//!    itself runs out. Every word clones one fault-free [`PackedSim`]
//!    template, forces the recorded input bits onto the nets `set_port`
//!    drives, and compares each OUT port against the trace word-wide,
//!    exactly where `run_differential` would have compared against a
//!    live golden simulator.
//! 2. **One billing rule.** Each scalar faulty run has its own budget,
//!    so each lane holds its own [`StepBudget`] built from the per-fault
//!    limits and billed in [`Simulator::try_step`]'s order: begin the
//!    cycle and charge one sweep before the step, then charge the
//!    re-sweeps after it when a bridge forced more than one (the packed
//!    engine counts sweeps per lane). A fault that exhausts its budget on
//!    cycle *k* is therefore classified `BudgetExhausted` on cycle *k*,
//!    before any output compare, exactly like `classify_error`. The
//!    run's stop is no lane's budget: the golden trace asks the run's
//!    stop question every 64 ticks and ends the run on either answer
//!    (the stop flag or the deadline), while a word reads only the
//!    deadline, every 64 ticks, and is dropped once it has passed.
//! 3. **Deterministic merge.** Faults are packed into words in list
//!    order and the word runner merges finished words by index, reproducing
//!    the scalar result order no matter how many workers ran.

use crate::campaign::{
    classify_error, poll_clock, run_words, scalar_word, CampaignConfig, Engine, Outcome,
    UndetectedReason,
};
use crate::checkpoint::CheckpointOptions;
use crate::list::FaultList;
use crate::report::CoverageReport;
use std::ops::ControlFlow;
use zeus_elab::{find_port, Design, Fault, Governor, Limits, NetId, PartialReason, StepBudget};
use zeus_sema::Value;
use zeus_sim::{PackedSim, PackedWord, Simulator, LANES};
use zeus_syntax::diag::Diagnostic;

/// The recorded fault-free run, shared read-only by every word.
struct GoldenTrace {
    /// The nets `set_port` drives for each input bit, in the stream's
    /// port order (the first port of each name, as `find_port` finds it).
    in_nets: Vec<NetId>,
    /// The input bits of every tick the golden run stepped (the RSET
    /// tick first when the design uses RSET, then one per vector),
    /// `in_nets.len()` per tick.
    inputs: Vec<Value>,
    /// The OUT ports in declaration order, each with its canonical nets.
    outs: Vec<(String, Vec<NetId>)>,
    /// Every OUT bit (boolean view) of every tick the golden run
    /// stepped, in port order.
    out_bits: Vec<Value>,
    /// How many ticks the golden run stepped.
    ticks: usize,
    /// Classification to apply to lanes still alive when the golden run
    /// stopped early (its own budget ran out at tick `ticks`).
    stopped: Option<Outcome>,
}

/// Runs a fault campaign with the packed bit-parallel engine, sharded
/// over `jobs` worker threads (`jobs` 1 stays on the calling thread).
/// Produces a [`CoverageReport`] that is byte-identical (text and JSON)
/// to the scalar [`run_campaign`](crate::run_campaign) for the same
/// inputs and seed, on either engine and for any `jobs >= 1`.
///
/// # Errors
///
/// Propagates any non-budget construction or stepping error exactly
/// like the scalar campaign.
pub fn run_campaign_packed(
    design: &Design,
    list: &FaultList,
    cfg: &CampaignConfig,
    jobs: usize,
) -> Result<CoverageReport, Diagnostic> {
    run_campaign_packed_with(design, list, cfg, jobs, None)
}

/// [`run_campaign_packed`] with optional crash-safe checkpointing (see
/// [`crate::run_campaign_with`] — the journal format is shared, so a
/// scalar checkpoint resumes packed and vice versa). Completed words are
/// journaled incrementally as workers deliver them; a panic inside a
/// worker's word is retried once on a fresh simulator and then
/// classified [`Outcome::ToolError`](crate::Outcome::ToolError) without
/// killing the campaign; the stop flag and the run's deadline drain
/// in-flight words and yield a partial report.
///
/// # Errors
///
/// As [`run_campaign_packed`], plus checkpoint I/O failures and a digest
/// mismatch when resuming a journal recorded for a different campaign.
pub fn run_campaign_packed_with(
    design: &Design,
    list: &FaultList,
    cfg: &CampaignConfig,
    jobs: usize,
    checkpoint: Option<&CheckpointOptions>,
) -> Result<CoverageReport, Diagnostic> {
    match cfg.engine {
        Engine::Graph => run_words(design, list, cfg, jobs, checkpoint, |limits, clock| {
            let golden = match record_golden(design, cfg, &limits, &clock)? {
                ControlFlow::Continue(golden) => golden,
                ControlFlow::Break(reason) => return Ok(ControlFlow::Break(reason)),
            };
            // The packed simulator runs unbudgeted; each lane bills its
            // own `StepBudget` in `run_word`.
            let mut template = PackedSim::new(design.clone())?;
            template.reseed(cfg.seed);
            Ok(ControlFlow::Continue(move |faults: &[Fault]| {
                run_word(&template, faults, &limits, &golden, &clock)
            }))
        }),
        Engine::Switch => run_words(design, list, cfg, jobs, checkpoint, |limits, clock| {
            Ok(ControlFlow::Continue(scalar_word(
                design, cfg, limits, clock,
            )))
        }),
    }
}

/// Runs the fault-free simulation once under the per-fault limits and
/// records everything the faulty lanes need: the input bits of every
/// tick and the OUT bits to compare against. The trace asks the run's
/// stop question every 64 ticks and breaks with its answer: it is
/// setup, so nothing is lost.
fn record_golden(
    design: &Design,
    cfg: &CampaignConfig,
    limits: &Limits,
    clock: &Governor,
) -> Result<ControlFlow<PartialReason, GoldenTrace>, Diagnostic> {
    // Ports are read by name, as `Simulator::port` reads them.
    let outs: Vec<(String, Vec<NetId>)> = design
        .outputs()
        .map(|p| {
            let nets = &design.port(&p.name).unwrap_or(p).nets;
            let canon = nets.iter().map(|&n| design.netlist.find_ref(n));
            (p.name.clone(), canon.collect())
        })
        .collect();
    let mut golden = Simulator::with_limits(design.clone(), limits)?;
    golden.reseed(cfg.seed);
    let mut stream = cfg.stream(design);
    let mut in_nets = Vec::new();
    for (name, _) in stream.ports() {
        in_nets.extend(&find_port(&design.ports, name)?.1.nets);
    }
    // The trace grows as it records: a stop may end it long before
    // `cfg.vectors` ticks, which need not fit in memory.
    let mut trace = GoldenTrace {
        in_nets,
        inputs: Vec::new(),
        outs,
        out_bits: Vec::new(),
        ticks: 0,
        stopped: None,
    };

    let reset = design.rset.is_some();
    for tick in 0..usize::from(reset) + cfg.vectors as usize {
        if tick % 64 == 0 {
            if let Some(reason) = clock.stop() {
                return Ok(ControlFlow::Break(reason));
            }
        }
        let vector = if reset && tick == 0 {
            golden.set_rset(true);
            stream.zero_vector()
        } else {
            stream.next_vector()
        };
        for (name, bits) in &vector {
            golden.set_port(name, bits)?;
        }
        if let Err(e) = golden.try_step() {
            trace.stopped = Some(classify_error(e)?);
            break;
        }
        trace
            .inputs
            .extend(vector.iter().flat_map(|(_, bits)| bits));
        let bits = trace.outs.iter().flat_map(|(name, _)| golden.port(name));
        trace.out_bits.extend(bits);
        trace.ticks += 1;
        if reset && tick == 0 {
            golden.set_rset(false);
        }
    }
    Ok(ControlFlow::Continue(trace))
}

/// Simulates up to 64 faults — one per lane — on a clone of the
/// fault-free `template` against the golden trace, returning their
/// outcomes in lane order. Detection is word-wide: each OUT port's
/// difference mask covers every lane at once, and a newly differing
/// lane takes the first such port in declaration order. Once the run's
/// `clock` has passed its deadline the word stops with `Z905`.
fn run_word(
    template: &PackedSim,
    faults: &[Fault],
    limits: &Limits,
    golden: &GoldenTrace,
    clock: &Governor,
) -> Result<Vec<Outcome>, Diagnostic> {
    let mut sim = template.clone();
    for (lane, &fault) in faults.iter().enumerate() {
        sim.inject_lanes(fault, 1u64 << lane)?;
    }
    let order = sim.order_len() as u64;
    let reset = usize::from(sim.design().rset.is_some());
    let in_width = golden.in_nets.len();
    let out_width: usize = golden.outs.iter().map(|(_, nets)| nets.len()).sum();

    let n = faults.len();
    let mut budgets = vec![StepBudget::new(limits); n];
    let mut outcomes: Vec<Option<Outcome>> = vec![None; n];
    // Lanes still unclassified.
    let mut live = if n >= LANES { !0 } else { (1u64 << n) - 1 };
    let lanes = |mask: u64| (0..n).filter(move |&l| (mask >> l) & 1 == 1);

    for tick in 0..golden.ticks {
        if live == 0 {
            break;
        }
        poll_clock(clock, tick)?;
        if tick < reset {
            sim.set_rset(true);
        }
        let inputs = &golden.inputs[tick * in_width..(tick + 1) * in_width];
        for (&net, &v) in golden.in_nets.iter().zip(inputs) {
            sim.force(net, PackedWord::splat(v));
        }
        let mut began = 0u64;
        for l in lanes(live) {
            if budgets[l].begin_cycle().is_ok() && budgets[l].charge_work(order).is_ok() {
                began |= 1 << l;
            }
        }
        sim.step();
        let sweeps = sim.lane_sweeps();
        for l in lanes(live) {
            let billed = (began >> l) & 1 == 1
                && (sweeps[l] <= 1
                    || budgets[l]
                        .charge_work((sweeps[l] as u64 - 1) * order)
                        .is_ok());
            if !billed {
                outcomes[l] = Some(Outcome::Undetected(UndetectedReason::BudgetExhausted));
                live &= !(1 << l);
            }
        }
        if tick < reset {
            // The reset pulse, exactly like the scalar campaign: no
            // output compare on this tick.
            sim.set_rset(false);
            continue;
        }

        let cycle = (tick - reset) as u64;
        let unstable = sim.ever_unstable();
        let mut bits = golden.out_bits[tick * out_width..].iter();
        for (name, nets) in &golden.outs {
            let mut diff = 0u64;
            for (&net, &g) in nets.iter().zip(bits.by_ref()) {
                diff |= sim.value(net).to_boolean().diff(PackedWord::splat(g));
            }
            for l in lanes(diff & live) {
                // A divergence driven by a non-settling bridge is
                // hyperactivity, not clean detection.
                outcomes[l] = Some(if (unstable >> l) & 1 == 1 {
                    Outcome::Hyperactive
                } else {
                    Outcome::Detected {
                        cycle,
                        port: name.clone(),
                    }
                });
            }
            live &= !diff;
        }
    }
    // `run_differential` steps the golden side first: when it died on
    // the tick after the trace, every still-unclassified fault inherits
    // that outcome.
    if let Some(stop) = &golden.stopped {
        for l in lanes(live) {
            outcomes[l] = Some(stop.clone());
        }
    }

    let unstable = sim.ever_unstable();
    let final_outcomes = outcomes
        .into_iter()
        .enumerate()
        .map(|(l, o)| {
            o.unwrap_or(if (unstable >> l) & 1 == 1 {
                Outcome::Hyperactive
            } else {
                Outcome::Undetected(UndetectedReason::NotObserved)
            })
        })
        .collect();
    Ok(final_outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::list::{enumerate_faults, FaultListOptions};
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    fn all_opts() -> FaultListOptions {
        FaultListOptions {
            bridges: true,
            transients: Some(3),
        }
    }

    const HALFADDER: &str = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := XOR(a,b); cout := AND(a,b) END;";

    const COUNTER: &str = "TYPE cnt = COMPONENT (IN en: boolean; OUT q: boolean) IS \
         SIGNAL r: REG; \
         BEGIN IF en THEN r.in := NOT(r.out) END; \
         IF NOT(en) THEN r.in := r.out END; \
         IF RSET THEN r.in := 0 END; q := r.out END;";

    fn reports_match(src: &str, top: &str, vectors: u32, seed: u64, jobs: usize) {
        let d = design(src, top);
        let list = enumerate_faults(&d, &all_opts());
        let cfg = CampaignConfig::new(Engine::Graph, vectors, seed);
        let scalar = run_campaign(&d, &list, &cfg).unwrap();
        let packed = run_campaign_packed(&d, &list, &cfg, jobs).unwrap();
        assert_eq!(scalar.to_text(), packed.to_text(), "text report must match");
        assert_eq!(scalar.to_json(), packed.to_json(), "json report must match");
    }

    #[test]
    fn packed_campaign_matches_scalar_on_halfadder() {
        reports_match(HALFADDER, "halfadder", 32, 1, 1);
        reports_match(HALFADDER, "halfadder", 32, 1, 4);
        reports_match(HALFADDER, "halfadder", 16, 99, 2);
    }

    #[test]
    fn packed_campaign_matches_scalar_on_sequential_design() {
        reports_match(COUNTER, "cnt", 24, 7, 3);
    }

    #[test]
    fn packed_budget_exhaustion_matches_scalar() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &all_opts());
        let mut cfg = CampaignConfig::new(Engine::Graph, 64, 1);
        cfg.limits.fuel = Some(1);
        let scalar = run_campaign(&d, &list, &cfg).unwrap();
        let packed = run_campaign_packed(&d, &list, &cfg, 2).unwrap();
        assert_eq!(scalar.to_text(), packed.to_text());
        assert_eq!(scalar.to_json(), packed.to_json());
        assert!(scalar
            .results
            .iter()
            .all(|r| r.outcome == Outcome::Undetected(UndetectedReason::BudgetExhausted)));
    }

    #[test]
    fn packed_partial_budget_matches_scalar() {
        // Enough fuel or steps for a few cycles but not the whole run:
        // the classification cycle must agree with the scalar budget.
        let d = design(COUNTER, "cnt");
        let list = enumerate_faults(&d, &all_opts());
        let fuels = [None, Some(10u64), Some(40), Some(90), Some(200)];
        for (fuel, max_steps) in fuels.into_iter().flat_map(|f| {
            [None, Some(3u64), Some(10)]
                .into_iter()
                .map(move |m| (f, m))
        }) {
            let mut cfg = CampaignConfig::new(Engine::Graph, 24, 5);
            cfg.limits.fuel = fuel;
            cfg.limits.max_steps = max_steps;
            let scalar = run_campaign(&d, &list, &cfg).unwrap();
            let packed = run_campaign_packed(&d, &list, &cfg, 2).unwrap();
            assert_eq!(
                scalar.to_json(),
                packed.to_json(),
                "fuel={fuel:?} max_steps={max_steps:?} reports must match"
            );
            if max_steps == Some(3) {
                // The reset tick and two vectors: every fault the first
                // two vectors miss runs out of steps.
                assert!(packed.to_json().contains("budget-exhausted"));
            }
        }
    }

    #[test]
    fn job_count_does_not_change_the_report() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &all_opts());
        let cfg = CampaignConfig::new(Engine::Graph, 32, 42);
        let one = run_campaign_packed(&d, &list, &cfg, 1).unwrap();
        for jobs in [2, 3, 8, 64] {
            let many = run_campaign_packed(&d, &list, &cfg, jobs).unwrap();
            assert_eq!(one.to_json(), many.to_json(), "jobs={jobs}");
            assert_eq!(one.to_text(), many.to_text(), "jobs={jobs}");
        }
    }
}
