//! Deterministic differential fault campaigns.
//!
//! For every fault in the list, a *golden* (fault-free) and a *faulty*
//! circuit are driven with the same seeded pseudo-random vector stream
//! (after a reset pulse when the design uses RSET). The first cycle in
//! which any OUT port disagrees detects the fault; a fault whose
//! injected circuit oscillates is *hyperactive*; a fault that survives
//! the whole budget unobserved is *undetected*. Every faulty run is
//! bounded by a [`Limits`] budget, so a pathological fault exhausts its
//! budget and is classified — it never hangs or aborts the campaign.
//!
//! Campaigns execute in *words* of up to 64 faults (the packed engine's
//! lane width) on one runner, [`run_words`], which owns crash-safe
//! checkpointing ([`crate::checkpoint`]), per-word panic isolation (a
//! poisoned word is retried once on a fresh simulator and then
//! classified [`Outcome::ToolError`] instead of killing the campaign),
//! graceful interruption (a cancellation flag or campaign deadline
//! stops the run between words and yields a partial report) and
//! sharding over threads. An engine supplies only the function that
//! simulates one word. The scalar runner here, one golden/faulty pair
//! per fault, is the reference the production packed runner
//! ([`crate::run_campaign_packed`]) is checked against.

use crate::checkpoint::{CheckpointOptions, Journal};
use crate::list::FaultList;
use crate::report::CoverageReport;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use zeus_elab::{Design, Fault, Limits};
use zeus_sim::{run_differential, Simulator, VectorSet, VectorStream, LANES};
use zeus_switch::SwitchSim;
use zeus_syntax::catch_panic;
use zeus_syntax::diag::{codes, Diagnostic};

/// Which simulation engine executes the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The levelized semantics-graph simulator (`zeus-sim`), the default.
    Graph,
    /// The switch-level simulator (`zeus-switch`).
    Switch,
}

impl Engine {
    /// Stable lowercase name (used in reports and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Graph => "graph",
            Engine::Switch => "switch",
        }
    }
}

/// Campaign parameters.
///
/// Only `engine`, `vectors`, `seed` and `limits` affect per-fault
/// outcomes (and therefore the checkpoint digest); the remaining fields
/// control *how far* a run gets, not what it computes.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The engine to run on.
    pub engine: Engine,
    /// Random input vectors applied per fault (after the reset cycle).
    pub vectors: u32,
    /// Seed for the input stream and both simulators' RANDOM nodes.
    pub seed: u64,
    /// Per-fault resource budget. When `max_steps` is `None` it defaults
    /// to `vectors + 2` (the vectors plus the reset cycle and slack).
    pub limits: Limits,
    /// Wall-clock budget for the *whole campaign* (distinct from the
    /// per-fault `limits.deadline`). When it expires the run stops
    /// between words and reports partially.
    pub campaign_deadline: Option<Duration>,
    /// Cooperative cancellation flag (e.g. set from a SIGINT handler).
    /// When it reads `true` the run drains in-flight words, flushes the
    /// checkpoint, and reports partially.
    pub cancel: Option<&'static AtomicBool>,
    /// Test-only chaos: panic while simulating this word.
    pub chaos_panic_word: Option<usize>,
    /// Test-only chaos: how many attempts at `chaos_panic_word` panic
    /// before one succeeds. `1` exercises the retry path, `2` (or more)
    /// the `ToolError` classification.
    pub chaos_panic_attempts: u32,
    /// Replay this explicit vector set instead of a seeded random
    /// stream (the `zeusc fault --vectors-file` path). The set's
    /// canonical text is folded into the checkpoint digest, and `seed`
    /// still reseeds the simulators' RANDOM nodes. `vectors` should
    /// normally equal `set.len()` (a longer budget pads with all-zero
    /// vectors).
    pub vector_set: Option<VectorSet>,
}

impl CampaignConfig {
    /// A config with default limits for the given workload.
    pub fn new(engine: Engine, vectors: u32, seed: u64) -> CampaignConfig {
        CampaignConfig {
            engine,
            vectors,
            seed,
            limits: Limits::default(),
            campaign_deadline: None,
            cancel: None,
            chaos_panic_word: None,
            chaos_panic_attempts: 0,
            vector_set: None,
        }
    }

    /// A config replaying an explicit vector set: `vectors` is the set's
    /// length and the seed is recovered from the set's header.
    pub fn replay(engine: Engine, set: VectorSet) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(engine, set.len() as u32, set.seed);
        cfg.vector_set = Some(set);
        cfg
    }

    /// The input stream for one fault's differential run: a replay of
    /// the explicit set when present, a seeded random stream otherwise.
    pub(crate) fn stream(&self, design: &Design) -> VectorStream {
        match &self.vector_set {
            Some(set) => VectorStream::replay(set),
            None => VectorStream::new(design, self.seed),
        }
    }

    /// Validates the explicit vector set (when present) against the
    /// design it is about to drive.
    pub(crate) fn validate(&self, design: &Design) -> Result<(), Diagnostic> {
        match &self.vector_set {
            Some(set) => set.matches_design(design),
            None => Ok(()),
        }
    }

    pub(crate) fn effective_limits(&self) -> Limits {
        let mut l = self.limits.clone();
        if l.max_steps.is_none() {
            l.max_steps = Some(self.vectors as u64 + 2);
        }
        l
    }
}

/// Why an undetected fault went unobserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UndetectedReason {
    /// The full vector budget ran with no output difference.
    NotObserved,
    /// The per-fault resource budget (fuel, deadline or steps) ran out
    /// before the vectors did.
    BudgetExhausted,
}

/// The classification of one fault after its differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The faulty outputs diverged from the golden outputs.
    Detected {
        /// Zero-based vector cycle of first divergence (reset excluded).
        cycle: u64,
        /// The OUT port on which the divergence was observed.
        port: String,
    },
    /// No divergence was observed.
    Undetected(UndetectedReason),
    /// The fault made the circuit oscillate (a bridge that never
    /// settles, or a switch-level relaxation that hit its cap).
    Hyperactive,
    /// The simulator itself failed (panicked) while running this fault's
    /// word, twice in a row. The fault's true classification is unknown;
    /// it counts against coverage, never toward it.
    ToolError,
}

/// Stable lowercase tag for an outcome, shared by the report renderers
/// and the checkpoint journal.
pub(crate) fn outcome_tag(o: &Outcome) -> &'static str {
    match o {
        Outcome::Detected { .. } => "detected",
        Outcome::Undetected(UndetectedReason::NotObserved) => "undetected",
        Outcome::Undetected(UndetectedReason::BudgetExhausted) => "budget-exhausted",
        Outcome::Hyperactive => "hyperactive",
        Outcome::ToolError => "tool-error",
    }
}

/// Why a campaign stopped before simulating every fault word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartialReason {
    /// The cancellation flag was raised (e.g. Ctrl-C).
    Interrupted,
    /// The campaign wall-clock deadline expired.
    DeadlineExceeded,
}

impl PartialReason {
    /// Stable lowercase tag (used in reports).
    pub fn tag(self) -> &'static str {
        match self {
            PartialReason::Interrupted => "interrupted",
            PartialReason::DeadlineExceeded => "deadline",
        }
    }
}

/// One fault with its campaign outcome and debug site name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultResult {
    /// The injected fault.
    pub fault: Fault,
    /// The site's hierarchical debug name.
    pub site_name: String,
    /// The classification.
    pub outcome: Outcome,
}

/// Runs the campaign on the scalar reference engine: one golden-vs-faulty
/// differential run per fault, on the calling thread. Production callers
/// use [`run_campaign_packed`](crate::run_campaign_packed), whose report
/// is byte-identical; this runner is what tests and oracles compare it
/// against.
///
/// # Errors
///
/// Propagates non-budget simulator construction or stepping errors (a
/// budget error or oscillation inside a *faulty* run is classified, not
/// propagated).
pub fn run_campaign(
    design: &Design,
    list: &FaultList,
    cfg: &CampaignConfig,
) -> Result<CoverageReport, Diagnostic> {
    run_campaign_with(design, list, cfg, None)
}

/// [`run_campaign`] with optional crash-safe checkpointing: completed
/// 64-fault words are journaled to `checkpoint.path` after each word,
/// and with `checkpoint.resume` a valid existing journal's words are
/// skipped. A resumed run produces a report byte-identical to an
/// uninterrupted one.
///
/// # Errors
///
/// As [`run_campaign`], plus checkpoint I/O failures and a digest
/// mismatch when resuming a journal recorded for a different campaign.
pub fn run_campaign_with(
    design: &Design,
    list: &FaultList,
    cfg: &CampaignConfig,
    checkpoint: Option<&CheckpointOptions>,
) -> Result<CoverageReport, Diagnostic> {
    run_words(design, list, cfg, 1, checkpoint, |limits| {
        Ok(scalar_word(design, cfg, limits))
    })
}

/// The scalar word simulator: each fault of the word on its own
/// golden/faulty pair of `cfg.engine`'s simulator.
pub(crate) fn scalar_word<'a>(
    design: &'a Design,
    cfg: &'a CampaignConfig,
    limits: Limits,
) -> impl Fn(&[Fault]) -> Result<Vec<Outcome>, Diagnostic> + Sync + 'a {
    move |faults| {
        faults
            .iter()
            .map(|&fault| match cfg.engine {
                Engine::Graph => run_one_graph(design, fault, cfg, &limits),
                Engine::Switch => run_one_switch(design, fault, cfg, &limits),
            })
            .collect()
    }
}

/// Never spawn more workers than there are pending fault words: excess
/// workers would only sit idle on an empty queue.
fn clamp_jobs(jobs: usize, pending_words: usize) -> usize {
    jobs.max(1).min(pending_words.max(1))
}

/// The word runner behind every campaign entry point. `engine` receives
/// the effective per-fault limits (after the vector set is validated)
/// and returns the function that simulates one word of up to 64 faults,
/// yielding their outcomes in list order.
///
/// Pending words (those not already in a resumed journal) run on the
/// calling thread when `jobs` is 1, and otherwise in contiguous ranges
/// over `jobs` scoped workers that stream finished words back, so the
/// journal flushes while the campaign runs. Merging by word index makes
/// the report independent of `jobs`. A first error (or interruption)
/// makes every worker stop at its next word boundary, draining
/// in-flight work.
pub(crate) fn run_words<W>(
    design: &Design,
    list: &FaultList,
    cfg: &CampaignConfig,
    jobs: usize,
    checkpoint: Option<&CheckpointOptions>,
    engine: impl FnOnce(Limits) -> Result<W, Diagnostic>,
) -> Result<CoverageReport, Diagnostic>
where
    W: Fn(&[Fault]) -> Result<Vec<Outcome>, Diagnostic> + Sync,
{
    cfg.validate(design)?;
    let sim_word = engine(cfg.effective_limits())?;
    let (mut journal, mut done) = Journal::open(design, list, cfg, checkpoint)?;
    let words: Vec<&[Fault]> = list.faults.chunks(LANES).collect();
    let pending: Vec<usize> = (0..words.len()).filter(|w| !done.contains_key(w)).collect();
    let jobs = clamp_jobs(jobs, pending.len());
    let run = |w: usize| run_word_isolated(w, cfg, words[w].len(), || sim_word(words[w]));
    let started = Instant::now();
    let mut partial = None;

    if jobs == 1 {
        for &w in &pending {
            if let Some(reason) = interruption(cfg, started) {
                partial = Some(reason);
                break;
            }
            let outcomes = run(w)?;
            if let Some(j) = journal.as_mut() {
                j.record(w, &outcomes)?;
            }
            done.insert(w, outcomes);
        }
    } else {
        let stop = AtomicBool::new(false);
        let mut first_err: Option<Diagnostic> = None;
        let chunk = pending.len().div_ceil(jobs);
        let (tx, rx) = mpsc::channel::<(usize, Result<Vec<Outcome>, Diagnostic>)>();
        std::thread::scope(|scope| {
            for shard in pending.chunks(chunk) {
                let tx = tx.clone();
                let (run, stop) = (&run, &stop);
                scope.spawn(move || {
                    for &w in shard {
                        if stop.load(Ordering::Relaxed) || interruption(cfg, started).is_some() {
                            break;
                        }
                        let res = run(w);
                        let failed = res.is_err();
                        let _ = tx.send((w, res));
                        if failed {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (w, res) in rx {
                let recorded = res.and_then(|outcomes| {
                    if let Some(j) = journal.as_mut() {
                        j.record(w, &outcomes)?;
                    }
                    done.insert(w, outcomes);
                    Ok(())
                });
                if let Err(e) = recorded {
                    first_err.get_or_insert(e);
                    stop.store(true, Ordering::Relaxed);
                }
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        if done.len() < words.len() {
            partial = interruption(cfg, started);
            debug_assert!(partial.is_some(), "missing words without an interruption");
        }
    }

    Ok(assemble(design, list, cfg, done, partial))
}

/// Checks the cooperative stop conditions (between words).
fn interruption(cfg: &CampaignConfig, started: Instant) -> Option<PartialReason> {
    if let Some(flag) = cfg.cancel {
        if flag.load(Ordering::Relaxed) {
            return Some(PartialReason::Interrupted);
        }
    }
    if let Some(deadline) = cfg.campaign_deadline {
        if started.elapsed() > deadline {
            return Some(PartialReason::DeadlineExceeded);
        }
    }
    None
}

/// Runs one word's simulation under the panic firewall. A panic retries
/// the word once on a freshly constructed simulator (the closure
/// rebuilds all state); a second panic classifies the whole word
/// [`Outcome::ToolError`] instead of propagating. `chaos_panic_*` inject
/// deterministic panics for testing this very path.
fn run_word_isolated(
    word: usize,
    cfg: &CampaignConfig,
    lanes: usize,
    run: impl Fn() -> Result<Vec<Outcome>, Diagnostic>,
) -> Result<Vec<Outcome>, Diagnostic> {
    for attempt in 0.. {
        let chaos = cfg.chaos_panic_word == Some(word) && attempt < cfg.chaos_panic_attempts;
        match catch_panic(|| {
            if chaos {
                panic!("chaos: injected worker panic (word {word}, attempt {attempt})");
            }
            run()
        }) {
            Ok(result) => return result,
            Err(_) if attempt == 0 => continue,
            Err(_) => return Ok(vec![Outcome::ToolError; lanes]),
        }
    }
    unreachable!("the retry loop always returns")
}

/// Assembles completed words (in word order) into a report, marking it
/// partial when not every planned word completed.
fn assemble(
    design: &Design,
    list: &FaultList,
    cfg: &CampaignConfig,
    done: BTreeMap<usize, Vec<Outcome>>,
    partial: Option<PartialReason>,
) -> CoverageReport {
    let mut results = Vec::with_capacity(done.len() * LANES);
    for (w, outcomes) in done {
        let faults = &list.faults[w * LANES..(w * LANES + outcomes.len()).min(list.faults.len())];
        debug_assert_eq!(faults.len(), outcomes.len());
        for (fault, outcome) in faults.iter().zip(outcomes) {
            let site = design.netlist.find_ref(fault.site);
            results.push(FaultResult {
                fault: *fault,
                site_name: design.netlist.nets[site.index()].name.clone(),
                outcome,
            });
        }
    }
    let mut report = CoverageReport::new(design, list, cfg, results);
    report.partial = partial;
    report
}

/// Rewrites a fault's site (and bridge peer) to the canonical alias
/// representatives.
fn canonicalize(design: &Design, mut fault: Fault) -> Fault {
    fault.site = design.netlist.find_ref(fault.site);
    if let zeus_elab::FaultKind::BridgeWith(peer) = fault.kind {
        fault.kind = zeus_elab::FaultKind::BridgeWith(design.netlist.find_ref(peer));
    }
    fault
}

/// Classifies a diagnostic raised while stepping the pair: budget
/// exhaustion and oscillation classify the fault; anything else is a
/// real error.
pub(crate) fn classify_error(diag: Diagnostic) -> Result<Outcome, Diagnostic> {
    if diag.code == Some(codes::OSCILLATION) {
        Ok(Outcome::Hyperactive)
    } else if diag.is_resource_limit() {
        Ok(Outcome::Undetected(UndetectedReason::BudgetExhausted))
    } else {
        Err(diag)
    }
}

fn run_one_graph(
    design: &Design,
    fault: Fault,
    cfg: &CampaignConfig,
    limits: &Limits,
) -> Result<Outcome, Diagnostic> {
    let mut golden = Simulator::with_limits(design.clone(), limits)?;
    let mut faulty = Simulator::with_limits(design.clone(), limits)?;
    faulty.inject(fault)?;
    golden.reseed(cfg.seed);
    faulty.reseed(cfg.seed);
    let mut stream = cfg.stream(design);

    // Reset pulse (quiescent inputs) when the design uses RSET.
    if design.rset.is_some() {
        golden.set_rset(true);
        faulty.set_rset(true);
        for (name, bits) in stream.zero_vector() {
            golden.set_port(&name, &bits)?;
            faulty.set_port(&name, &bits)?;
        }
        if let Err(e) = golden.try_step() {
            return classify_error(e);
        }
        if let Err(e) = faulty.try_step() {
            return classify_error(e);
        }
        golden.set_rset(false);
        faulty.set_rset(false);
    }

    match run_differential(&mut golden, &mut faulty, &mut stream, cfg.vectors) {
        Err(e) => classify_error(e),
        Ok(Some(div)) => {
            // A divergence caused by a non-settling bridge is the
            // fault being hyperactive, not cleanly detected.
            match faulty.first_unstable_cycle() {
                Some(_) => Ok(Outcome::Hyperactive),
                None => Ok(Outcome::Detected {
                    cycle: div.cycle,
                    port: div.port,
                }),
            }
        }
        Ok(None) => {
            if faulty.first_unstable_cycle().is_some() {
                Ok(Outcome::Hyperactive)
            } else {
                Ok(Outcome::Undetected(UndetectedReason::NotObserved))
            }
        }
    }
}

fn run_one_switch(
    design: &Design,
    fault: Fault,
    cfg: &CampaignConfig,
    limits: &Limits,
) -> Result<Outcome, Diagnostic> {
    let mut golden = SwitchSim::with_limits(design, limits);
    let mut faulty = SwitchSim::with_limits(design, limits);
    // The switch engine resolves sites through the synthesis net map,
    // which is keyed by canonical nets.
    let fault = canonicalize(design, fault);
    faulty.inject(fault)?;
    golden.reseed(cfg.seed);
    faulty.reseed(cfg.seed);
    let mut stream = cfg.stream(design);
    let out_names: Vec<String> = design.outputs().map(|p| p.name.clone()).collect();

    if design.rset.is_some() {
        golden.set_rset(true);
        faulty.set_rset(true);
        for (name, bits) in stream.zero_vector() {
            golden.set_port(&name, &bits)?;
            faulty.set_port(&name, &bits)?;
        }
        if let Err(e) = golden.try_step() {
            return classify_error(e);
        }
        if let Err(e) = faulty.try_step() {
            return classify_error(e);
        }
        golden.set_rset(false);
        faulty.set_rset(false);
    }

    for cycle in 0..cfg.vectors {
        let assignment = stream.next_vector();
        for (name, bits) in &assignment {
            golden.set_port(name, bits)?;
            faulty.set_port(name, bits)?;
        }
        if let Err(e) = golden.try_step() {
            return classify_error(e);
        }
        if let Err(e) = faulty.try_step() {
            return classify_error(e);
        }
        for name in &out_names {
            if golden.port(name) != faulty.port(name) {
                return Ok(Outcome::Detected {
                    cycle: cycle as u64,
                    port: name.clone(),
                });
            }
        }
    }
    Ok(Outcome::Undetected(UndetectedReason::NotObserved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{enumerate_faults, FaultListOptions};
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    const HALFADDER: &str = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := XOR(a,b); cout := AND(a,b) END;";

    #[test]
    fn graph_campaign_detects_most_halfadder_faults() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let report = run_campaign(&d, &list, &CampaignConfig::new(Engine::Graph, 32, 1)).unwrap();
        assert_eq!(report.total(), list.faults.len());
        // 32 random vectors exhaust a 2-input truth table with
        // overwhelming probability: every stuck-at is observable.
        assert_eq!(report.detected(), report.total());
        assert!(report.coverage() > 0.99);
    }

    #[test]
    fn switch_campaign_agrees_on_combinational_design() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let graph = run_campaign(&d, &list, &CampaignConfig::new(Engine::Graph, 32, 7)).unwrap();
        let switch = run_campaign(&d, &list, &CampaignConfig::new(Engine::Switch, 32, 7)).unwrap();
        assert_eq!(graph.detected(), switch.detected());
    }

    #[test]
    fn detected_outcomes_carry_cycle_and_port() {
        let d = design(HALFADDER, "halfadder");
        let cout = d.netlist.find_ref(d.names["halfadder.cout"]);
        let list = crate::list::FaultList {
            faults: vec![Fault::stuck_at_1(cout)],
            total_enumerated: 1,
            collapsed: 0,
        };
        let report = run_campaign(&d, &list, &CampaignConfig::new(Engine::Graph, 32, 1)).unwrap();
        match &report.results[0].outcome {
            Outcome::Detected { port, .. } => assert_eq!(port, "cout"),
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_classified_not_fatal() {
        let d = design(HALFADDER, "halfadder");
        let a = d.netlist.find_ref(d.names["halfadder.a"]);
        let list = crate::list::FaultList {
            faults: vec![Fault::stuck_at_0(a)],
            total_enumerated: 1,
            collapsed: 0,
        };
        let mut cfg = CampaignConfig::new(Engine::Graph, 64, 1);
        cfg.limits.fuel = Some(1); // starve the run immediately
        let report = run_campaign(&d, &list, &cfg).unwrap();
        assert_eq!(
            report.results[0].outcome,
            Outcome::Undetected(UndetectedReason::BudgetExhausted)
        );
    }

    #[test]
    fn json_report_is_deterministic() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let cfg = CampaignConfig::new(Engine::Graph, 16, 99);
        let a = run_campaign(&d, &list, &cfg).unwrap().to_json();
        let b = run_campaign(&d, &list, &cfg).unwrap().to_json();
        assert_eq!(a, b, "same design+seed+vectors must be byte-identical");
    }

    #[test]
    fn jobs_are_clamped_to_pending_words() {
        assert_eq!(clamp_jobs(0, 5), 1, "zero jobs becomes one");
        assert_eq!(clamp_jobs(8, 3), 3, "never more workers than words");
        assert_eq!(clamp_jobs(2, 3), 2, "requested jobs kept when fewer");
        assert_eq!(clamp_jobs(8, 0), 1, "nothing pending still needs one");
    }
}
