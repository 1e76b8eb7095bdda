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
//!    [`Simulator`] under the per-fault [`Limits`] and its per-tick inputs
//!    and OUT port values (boolean view) are recorded, along with the
//!    classification of a budget error if the golden run itself runs
//!    out. Every word clones one fault-free [`PackedSim`] template,
//!    replays the recorded inputs, and compares each OUT port against
//!    the trace word-wide, exactly where `run_differential` would have
//!    compared against a live golden simulator.
//! 2. **Per-lane budget emulation.** The packed simulator bills its own
//!    fuel per pattern-word, but each scalar faulty run has its *own*
//!    governor. Each lane therefore carries a [`LaneBudget`] replaying
//!    the exact scalar arithmetic — `charge(order + 1)` before the step
//!    and `charge((sweeps - 1) * order + 1)` after a multi-sweep cycle,
//!    using the packed engine's per-lane sweep counts — so a fault that
//!    exhausts its budget on cycle *k* scalar-side is classified
//!    `BudgetExhausted` on cycle *k* packed-side, before any output
//!    compare, exactly like `classify_error`. The wall-clock deadline
//!    is no lane's budget: the golden trace and every word read the
//!    run's clock every 64 ticks, and once it has passed they stop the
//!    run instead of classifying a lane.
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
use zeus_elab::{Design, Fault, Governor, Limits, NetId};
use zeus_sema::Value;
use zeus_sim::{PackedSim, PackedWord, Simulator, LANES};
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

/// The recorded fault-free run, shared read-only by every word.
struct GoldenTrace {
    /// The port assignments of every tick the golden run attempted (the
    /// RSET tick first when the design uses RSET, then one per vector).
    inputs: Vec<Vec<(String, Vec<Value>)>>,
    /// The OUT ports in declaration order, each with its canonical nets.
    outs: Vec<(String, Vec<NetId>)>,
    /// One entry per successful tick: every OUT bit (boolean view) in
    /// port order, broadcast to all lanes.
    ticks: Vec<Vec<PackedWord>>,
    /// Classification to apply to lanes still alive when the golden run
    /// stopped early (its own budget ran out at tick `ticks.len()`).
    stopped: Option<Outcome>,
}

/// Replays the scalar [`Simulator::try_step`] budget arithmetic for one
/// lane (fuel and step ceiling).
struct LaneBudget {
    steps: u64,
    max_steps: Option<u64>,
    fuel: Option<u64>,
    exhausted: bool,
}

impl LaneBudget {
    fn new(limits: &Limits) -> LaneBudget {
        LaneBudget {
            steps: 0,
            max_steps: limits.max_steps,
            fuel: limits.fuel,
            exhausted: false,
        }
    }

    /// `Governor::charge`: draining the tank mid-charge still zeroes it.
    fn charge(&mut self, amount: u64) -> bool {
        if let Some(left) = &mut self.fuel {
            if *left < amount {
                *left = 0;
                self.exhausted = true;
                return false;
            }
            *left -= amount;
        }
        true
    }

    /// The pre-step half of `try_step`: the step-count ceiling, then one
    /// sweep's worth of fuel.
    fn begin_cycle(&mut self, order: u64) -> bool {
        if self.exhausted {
            return false;
        }
        if let Some(max) = self.max_steps {
            if self.steps >= max {
                self.exhausted = true;
                return false;
            }
        }
        self.steps += 1;
        self.charge(order + 1)
    }

    /// The post-step half: re-sweeps forced by bridge fixpoints.
    fn settle(&mut self, order: u64, sweeps: u32) -> bool {
        if self.exhausted {
            return false;
        }
        if sweeps > 1 {
            return self.charge((sweeps as u64 - 1) * order + 1);
        }
        true
    }
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
/// killing the campaign; the cancellation flag and the run's deadline
/// drain in-flight words and yield a partial report.
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
            let golden = record_golden(design, cfg, &limits, &clock)?;
            // The packed simulator runs unbudgeted; each lane's budget is
            // the [`LaneBudget`] replay in `run_word`.
            let mut template = PackedSim::new(design.clone())?;
            template.reseed(cfg.seed);
            Ok(move |faults: &[Fault]| run_word(&template, faults, &limits, &golden, &clock))
        }),
        Engine::Switch => run_words(design, list, cfg, jobs, checkpoint, |limits, clock| {
            Ok(scalar_word(design, cfg, limits, clock))
        }),
    }
}

/// Runs the fault-free simulation once under the per-fault limits and
/// records everything the faulty lanes need: the inputs of every tick
/// and the OUT values to compare against. Once the run's `clock` has
/// passed its deadline the trace stops with `Z905`.
fn record_golden(
    design: &Design,
    cfg: &CampaignConfig,
    limits: &Limits,
    clock: &Governor,
) -> Result<GoldenTrace, Diagnostic> {
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
    // The trace grows as it records: the clock may stop it long before
    // `cfg.vectors` ticks, which need not fit in memory.
    let mut trace = GoldenTrace {
        inputs: Vec::new(),
        ticks: Vec::new(),
        outs,
        stopped: None,
    };

    let reset = design.rset.is_some();
    for tick in 0..usize::from(reset) + cfg.vectors as usize {
        poll_clock(clock, tick)?;
        let vector = if reset && tick == 0 {
            golden.set_rset(true);
            stream.zero_vector()
        } else {
            stream.next_vector()
        };
        for (name, bits) in &vector {
            golden.set_port(name, bits)?;
        }
        trace.inputs.push(vector);
        if let Err(e) = golden.try_step() {
            trace.stopped = Some(classify_error(e)?);
            break;
        }
        let bits = trace.outs.iter().flat_map(|(name, _)| golden.port(name));
        trace.ticks.push(bits.map(PackedWord::splat).collect());
        if reset && tick == 0 {
            golden.set_rset(false);
        }
    }
    Ok(trace)
}

/// The golden trace ran out of ticks: the stop reason is part of the
/// trace contract (recorded when the fault-free run died early). A
/// missing one is an internal invariant breach, reported as a `Z999`
/// diagnostic the driver can classify instead of panicking a worker
/// thread mid-campaign.
fn golden_stop(golden: &GoldenTrace) -> Result<Outcome, Diagnostic> {
    golden.stopped.clone().ok_or_else(|| {
        Diagnostic::internal(
            Span::dummy(),
            "packed campaign: golden trace ended without a recorded stop reason",
        )
    })
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

    let n = faults.len();
    let mut budgets: Vec<LaneBudget> = (0..n).map(|_| LaneBudget::new(limits)).collect();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; n];
    // Lanes still unclassified.
    let mut live = if n >= LANES { !0 } else { (1u64 << n) - 1 };
    let lanes = |mask: u64| (0..n).filter(move |&l| (mask >> l) & 1 == 1);

    for (tick, inputs) in golden.inputs.iter().enumerate() {
        if live == 0 {
            break;
        }
        poll_clock(clock, tick)?;
        // `run_differential` steps the golden side first: when it died
        // here, every still-unclassified fault inherits that outcome.
        let Some(gold) = golden.ticks.get(tick) else {
            let stop = golden_stop(golden)?;
            for l in lanes(live) {
                outcomes[l] = Some(stop.clone());
            }
            break;
        };
        if tick < reset {
            sim.set_rset(true);
        }
        for (name, bits) in inputs {
            sim.set_port(name, bits)?;
        }
        let mut began = 0u64;
        for l in lanes(live) {
            if budgets[l].begin_cycle(order) {
                began |= 1 << l;
            }
        }
        sim.step();
        let sweeps = sim.lane_sweeps();
        for l in lanes(live) {
            if (began >> l) & 1 == 0 || !budgets[l].settle(order, sweeps[l]) {
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
        let mut bits = gold.iter();
        for (name, nets) in &golden.outs {
            let mut diff = 0u64;
            for (&net, g) in nets.iter().zip(bits.by_ref()) {
                diff |= sim.value(net).to_boolean().diff(*g);
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
            stuck_at: true,
            bridges: true,
            transients: Some(3),
            collapse: true,
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
        // Enough fuel for a few cycles but not the whole run: the
        // classification cycle must agree with the scalar governor.
        let d = design(COUNTER, "cnt");
        let list = enumerate_faults(&d, &all_opts());
        for fuel in [10u64, 40, 90, 200] {
            let mut cfg = CampaignConfig::new(Engine::Graph, 24, 5);
            cfg.limits.fuel = Some(fuel);
            let scalar = run_campaign(&d, &list, &cfg).unwrap();
            let packed = run_campaign_packed(&d, &list, &cfg, 2).unwrap();
            assert_eq!(
                scalar.to_json(),
                packed.to_json(),
                "fuel={fuel} reports must match"
            );
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
