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
//! Four ingredients keep the packed graph words identical to the
//! scalar path and spend their sweeps on unclassified faults:
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
//!    (the stop flag or the deadline), while a window reads only the
//!    deadline, every 64 ticks, and is dropped once it has passed.
//! 3. **Deterministic merge.** Faults are packed into words in list
//!    order and the word runner merges finished words by index, reproducing
//!    the scalar result order no matter how many workers ran.
//! 4. **Repacking.** A worker steps its fault words [`WINDOW`] at a time,
//!    together, one tick at a time. A word's simulator keeps the faults
//!    of its live (unclassified) lanes only, and after any tick whose
//!    live lanes fit in fewer words, the lanes of the emptiest words
//!    move into the free lanes of the fullest ([`PackedSim::adopt_lane`])
//!    and the emptied words are dropped. A lane's outcome depends only on
//!    its own fault, the golden trace and the RANDOM stream, which every
//!    word at a tick shares; net planes are rebuilt by every sweep. So a
//!    move carries the lane's fault, register bits and oscillation
//!    record, its `StepBudget` and its home slot, and each outcome is
//!    scattered back to its home word.

use crate::campaign::{
    classify_error, poll_clock, run_words, scalar_words, CampaignConfig, Engine, Outcome,
    UndetectedReason,
};
use crate::checkpoint::CheckpointOptions;
use crate::list::FaultList;
use crate::report::CoverageReport;
use std::ops::ControlFlow;
use zeus_elab::{find_port, Design, Fault, Governor, Limits, NetId, PartialReason, StepBudget};
use zeus_sema::Value;
use zeus_sim::{lanes_in, PackedSim, PackedWord, Simulator, LANES};
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
/// journaled incrementally as workers deliver them, one write per
/// window; a panic inside a worker's word is retried once on a fresh
/// simulator and then classified
/// [`Outcome::ToolError`](crate::Outcome::ToolError) without killing the
/// campaign; the stop flag lets in-flight windows finish, the run's
/// deadline drops them, and either yields a partial report.
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
        Engine::Graph => run_words(
            design,
            list,
            cfg,
            jobs,
            checkpoint,
            WINDOW,
            |limits, clock| {
                let golden = match record_golden(design, cfg, &limits, &clock)? {
                    ControlFlow::Continue(golden) => golden,
                    ControlFlow::Break(reason) => return Ok(ControlFlow::Break(reason)),
                };
                // The packed simulator runs unbudgeted; each lane bills
                // its own `StepBudget` in `Word::step`.
                let mut template = PackedSim::new(design.clone())?;
                template.reseed(cfg.seed);
                Ok(ControlFlow::Continue(move |window: &[&[Fault]]| {
                    run_window(&template, window, &limits, &golden, &clock)
                }))
            },
        ),
        Engine::Switch => run_words(design, list, cfg, jobs, checkpoint, 1, |limits, clock| {
            Ok(ControlFlow::Continue(scalar_words(
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

/// How many home words a worker steps together. Each holds a simulator
/// for as long as it has live lanes, so a wider window costs memory.
const WINDOW: usize = 8;

/// One simulated word of a window: a simulator whose live lanes each
/// carry one unclassified fault, with that fault's budget and home.
struct Word {
    sim: PackedSim,
    /// The lanes whose fault is unclassified. The simulator carries the
    /// faults of these lanes only.
    live: u64,
    /// Per lane: its fault's home word in the window and lane in it.
    home: [(usize, usize); LANES],
    /// Per lane: its fault's own budget.
    budgets: Vec<StepBudget>,
    /// Lanes a repack moved here.
    #[cfg(test)]
    moved: u64,
}

/// Simulates a window of up to [`WINDOW`] home words of up to 64 faults
/// each — one fault per lane — on clones of the fault-free `template`
/// against the golden trace, returning each home word's outcomes in
/// lane order. The words step together, one tick at a time; after each
/// tick whose live lanes fit in fewer words, [`repack`] moves them into
/// the fullest words and drops the rest. Detection is word-wide: each
/// OUT port's difference mask covers every lane at once, and a newly
/// differing lane takes the first such port in declaration order. Once
/// the run's `clock` has passed its deadline the window stops with
/// `Z905`.
fn run_window(
    template: &PackedSim,
    window: &[&[Fault]],
    limits: &Limits,
    golden: &GoldenTrace,
    clock: &Governor,
) -> Result<Vec<Vec<Outcome>>, Diagnostic> {
    let mut outcomes: Vec<Vec<Option<Outcome>>> = window
        .iter()
        .map(|faults| vec![None; faults.len()])
        .collect();
    let mut words = Vec::with_capacity(window.len());
    for (h, faults) in window.iter().enumerate() {
        let mut sim = template.clone();
        for (lane, &fault) in faults.iter().enumerate() {
            sim.inject_lanes(fault, 1 << lane)?;
        }
        let n = faults.len();
        words.push(Word {
            sim,
            live: if n >= LANES { !0 } else { (1 << n) - 1 },
            home: std::array::from_fn(|l| (h, l)),
            budgets: vec![StepBudget::new(limits); LANES],
            #[cfg(test)]
            moved: 0,
        });
    }

    for tick in 0..golden.ticks {
        if words.is_empty() {
            break;
        }
        poll_clock(clock, tick)?;
        for word in &mut words {
            word.step(tick, golden, &mut outcomes);
        }
        repack(&mut words);
    }
    // `run_differential` steps the golden side first: when it died on
    // the tick after the trace, every still-unclassified fault inherits
    // that outcome.
    for word in &words {
        let unstable = word.sim.ever_unstable();
        for l in lanes_in(word.live) {
            let (h, i) = word.home[l];
            outcomes[h][i] = Some(match &golden.stopped {
                Some(stop) => stop.clone(),
                None if (unstable >> l) & 1 == 1 => Outcome::Hyperactive,
                None => Outcome::Undetected(UndetectedReason::NotObserved),
            });
        }
    }
    Ok(outcomes
        .into_iter()
        .map(|word| {
            let classified = word
                .into_iter()
                .map(|o| o.expect("every lane is classified"));
            classified.collect()
        })
        .collect())
}

impl Word {
    /// Steps the word through tick `tick` of the golden trace and
    /// classifies the lanes it settles into their home slots of
    /// `outcomes`; the simulator then keeps the faults of the lanes
    /// still live only.
    fn step(&mut self, tick: usize, golden: &GoldenTrace, outcomes: &mut [Vec<Option<Outcome>>]) {
        let sim = &mut self.sim;
        let order = sim.order_len() as u64;
        let reset = usize::from(sim.design().rset.is_some());
        let in_width = golden.in_nets.len();
        let out_width: usize = golden.outs.iter().map(|(_, nets)| nets.len()).sum();
        let was_live = self.live;
        let mut classify = |l: usize, outcome: Outcome| {
            let (h, i) = self.home[l];
            outcomes[h][i] = Some(outcome);
        };

        if tick < reset {
            sim.set_rset(true);
        }
        let inputs = &golden.inputs[tick * in_width..(tick + 1) * in_width];
        for (&net, &v) in golden.in_nets.iter().zip(inputs) {
            sim.force(net, PackedWord::splat(v));
        }
        let mut began = 0u64;
        for l in lanes_in(self.live) {
            let budget = &mut self.budgets[l];
            if budget.begin_cycle().is_ok() && budget.charge_work(order).is_ok() {
                began |= 1 << l;
            }
        }
        sim.step();
        #[cfg(test)]
        probe::bump(&probe::WORD_STEPS);
        let sweeps = sim.lane_sweeps();
        for l in lanes_in(self.live) {
            let billed = (began >> l) & 1 == 1
                && (sweeps[l] <= 1
                    || self.budgets[l]
                        .charge_work((sweeps[l] as u64 - 1) * order)
                        .is_ok());
            if !billed {
                #[cfg(test)]
                if (self.moved >> l) & 1 == 1 {
                    probe::bump(&probe::MOVED_EXHAUSTED);
                }
                classify(l, Outcome::Undetected(UndetectedReason::BudgetExhausted));
                self.live &= !(1 << l);
            }
        }
        if tick < reset {
            // The reset pulse, exactly like the scalar campaign: no
            // output compare on this tick.
            sim.set_rset(false);
        } else {
            let cycle = (tick - reset) as u64;
            let unstable = sim.ever_unstable();
            let mut bits = golden.out_bits[tick * out_width..].iter();
            for (name, nets) in &golden.outs {
                let mut diff = 0u64;
                for (&net, &g) in nets.iter().zip(bits.by_ref()) {
                    diff |= sim.value(net).to_boolean().diff(PackedWord::splat(g));
                }
                for l in lanes_in(diff & self.live) {
                    // A divergence driven by a non-settling bridge is
                    // hyperactivity, not clean detection.
                    classify(
                        l,
                        if (unstable >> l) & 1 == 1 {
                            Outcome::Hyperactive
                        } else {
                            Outcome::Detected {
                                cycle,
                                port: name.clone(),
                            }
                        },
                    );
                }
                self.live &= !diff;
            }
        }
        if self.live != was_live {
            sim.retain_lanes(self.live);
        }
    }

    /// Moves lane `from` of `src` into the free lane `to`: its fault,
    /// register bits and oscillation record, its budget and its home.
    fn adopt(&mut self, src: &Word, from: usize, to: usize) {
        self.sim.adopt_lane(&src.sim, from, to);
        self.live |= 1 << to;
        self.home[to] = src.home[from];
        self.budgets[to] = src.budgets[from].clone();
        #[cfg(test)]
        {
            self.moved |= 1 << to;
        }
    }
}

/// Drops the words without live lanes, and once the live lanes fit in
/// fewer words, moves the lanes of the emptiest words into the free
/// lanes of the fullest and drops the emptied ones. Every word stands at
/// the same tick, so a moved lane continues exactly where it was.
fn repack(words: &mut Vec<Word>) {
    words.retain(|w| w.live != 0);
    let live: usize = words.iter().map(|w| w.live.count_ones() as usize).sum();
    let keep = live.div_ceil(LANES);
    if keep == words.len() {
        return;
    }
    words.sort_by_key(|w| std::cmp::Reverse(w.live.count_ones()));
    let donors = words.split_off(keep);
    let mut r = 0;
    for donor in &donors {
        for from in lanes_in(donor.live) {
            while words[r].live == !0 {
                r += 1;
            }
            let to = (!words[r].live).trailing_zeros() as usize;
            words[r].adopt(donor, from, to);
        }
    }
}

/// Test-only counts of the window runner's work on this thread.
#[cfg(test)]
mod probe {
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        /// Word-steps: one `PackedSim::step` of one word.
        pub static WORD_STEPS: Cell<u64> = const { Cell::new(0) };
        /// Lanes that ran out of budget after a repack moved them.
        pub static MOVED_EXHAUSTED: Cell<u64> = const { Cell::new(0) };
    }

    pub fn bump(counter: &'static LocalKey<Cell<u64>>) {
        counter.with(|c| c.set(c.get() + 1));
    }

    /// Runs `f` and returns what it added to `counter` on this thread.
    pub fn count<T>(counter: &'static LocalKey<Cell<u64>>, f: impl FnOnce() -> T) -> (T, u64) {
        let before = counter.with(Cell::get);
        let out = f();
        (out, counter.with(Cell::get) - before)
    }
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

    const ADDERS: &str = include_str!("../../../zeus-programs/adders.zeus");
    const ROUTING: &str = include_str!("../../../zeus-programs/routing.zeus");

    /// A bank of toggle registers behind a three-input enable: a
    /// register's faults show only while all three enables are 1, so
    /// many stay live for a while, and a bridge between two enables
    /// re-sweeps on every tick they differ.
    const BANK: &str = "TYPE bank(n) = COMPONENT \
         (IN x: ARRAY[1..n] OF boolean; IN e: ARRAY[1..3] OF boolean; \
          OUT q: ARRAY[1..n] OF boolean) IS \
         SIGNAL r: ARRAY[1..n] OF REG; \
         BEGIN FOR i := 1 TO n DO \
           IF RSET THEN r[i].in := 0 ELSE r[i].in := XOR(r[i].out, x[i]) END; \
           q[i] := AND(AND(r[i].out, e[1]), AND(e[2], e[3])) \
         END END;";

    fn example(src: &str, top: &str, args: &[i64]) -> Design {
        elaborate(&parse_program(src).unwrap(), top, args).unwrap()
    }

    /// The benchmark's two early-detecting campaigns (stuck-at faults,
    /// 16 vectors, seed 1983) take 272 and 356 word-steps one word at a
    /// time, most of them over lanes already classified.
    #[test]
    fn repacking_stops_sweeping_classified_lanes() {
        for (src, top, arg, most) in [
            (ADDERS, "rippleCarry", 128, 110),
            (ROUTING, "routingnetwork", 16, 120),
        ] {
            let d = example(src, top, &[arg]);
            let list = enumerate_faults(&d, &FaultListOptions::default());
            let cfg = CampaignConfig::new(Engine::Graph, 16, 1983);
            let (_, steps) = probe::count(&probe::WORD_STEPS, || {
                run_campaign_packed(&d, &list, &cfg, 1).unwrap()
            });
            assert!(
                steps <= most,
                "{top} {arg}: {steps} word-steps, want at most {most}"
            );
        }
    }

    /// Two windows of a design with registers and RSET, with bridges and
    /// transient flips, under fuel (and step) budgets that run out after
    /// repacks have moved lanes: every moved lane carries its budget, so
    /// the reports match the scalar reference for any job count.
    #[test]
    fn moved_lanes_keep_their_budgets() {
        let d = example(BANK, "bank", &[40]);
        let list = enumerate_faults(&d, &all_opts());
        assert!(list.faults.len() > WINDOW * LANES, "two windows");
        // What one tick bills a lane without bridge re-sweeps.
        let tick = PackedSim::new(d.clone()).unwrap().order_len() as u64 + 1;
        for (fuel, max_steps) in [
            (6 * tick + tick / 2, None),
            (10 * tick + tick / 2, None),
            (8 * tick, Some(6)),
        ] {
            let mut cfg = CampaignConfig::new(Engine::Graph, 24, 5);
            cfg.limits.fuel = Some(fuel);
            cfg.limits.max_steps = max_steps;
            let scalar = run_campaign(&d, &list, &cfg).unwrap();
            let (packed, moved_out) = probe::count(&probe::MOVED_EXHAUSTED, || {
                run_campaign_packed(&d, &list, &cfg, 1).unwrap()
            });
            let at = format!("fuel={fuel} max_steps={max_steps:?}");
            assert!(moved_out > 0, "{at}: no moved lane ran out of budget");
            assert_eq!(scalar.to_text(), packed.to_text(), "{at}");
            assert_eq!(scalar.to_json(), packed.to_json(), "{at}");
            for jobs in [2, 3] {
                let packed = run_campaign_packed(&d, &list, &cfg, jobs).unwrap();
                assert_eq!(scalar.to_json(), packed.to_json(), "{at} jobs={jobs}");
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
