//! Packed random harvest: the cheap first phase of ATPG.
//!
//! Draws candidate vectors from the same seeded [`VectorStream`] the
//! fault campaigns use, drives 64 of them at a time through a
//! [`PackedSim`] (one simulator step covers all 64 lanes), and fault
//! simulates every still-undetected fault against the whole word. A
//! candidate earns its place in the emitted [`VectorSet`] only when it
//! is the *first* lane (in lane order) to detect some still-uncredited
//! fault — so a typical round keeps a handful of its 64 candidates and
//! discards the rest, which is most of the compaction battle won before
//! the reverse-order pass even runs.
//!
//! Determinism: the stream is drawn exactly [`LANES`] vectors per
//! round, rounds run in sequence, faults are visited in the collapsed
//! list's sorted order, and lanes are credited in ascending order, so
//! the kept set is a pure function of (design, seed, budgets).

use zeus_elab::{Design, Governor, NetId};
use zeus_fault::FaultList;
use zeus_sim::{PackedSim, PackedWord, VectorSet, VectorStream, LANES};
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

use crate::AtpgConfig;

/// Rounds with no new detection tolerated before the harvest gives up
/// and hands the remainder to PODEM.
const DRY_LIMIT: u32 = 6;

/// Hard cap on harvest rounds, independent of the fuel budget.
const MAX_ROUNDS: u64 = 512;

/// What the harvest accomplished.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HarvestOutcome {
    /// 64-candidate rounds simulated.
    pub rounds: u64,
    /// Faults newly credited to a kept vector.
    pub detected: usize,
}

/// Runs the harvest, appending kept vectors to `set` and marking
/// detected faults in `detected` (indexed like `list.faults`).
///
/// Stops when the coverage target is met, the vector budget or round
/// budgets run out, `DRY_LIMIT` consecutive rounds found nothing, the
/// fuel governor is exhausted (graceful: the vectors kept so far
/// stand, PODEM and grading still run), or the run must stop (its stop
/// flag or its deadline).
///
/// # Errors
///
/// Propagates simulator construction or stepping failures; budget
/// exhaustion is not an error here.
pub(crate) fn packed_harvest(
    design: &Design,
    list: &FaultList,
    cfg: &AtpgConfig,
    set: &mut VectorSet,
    detected: &mut [bool],
    gov: &mut Governor,
) -> Result<HarvestOutcome, Diagnostic> {
    let mut out = HarvestOutcome::default();
    if list.faults.is_empty() || cfg.max_vectors == 0 {
        return Ok(out);
    }

    let in_nets: Vec<NetId> = design
        .inputs()
        .flat_map(|p| p.nets.iter().copied())
        .collect();
    let out_nets: Vec<NetId> = design
        .outputs()
        .flat_map(|p| p.nets.iter().copied())
        .collect();
    // A closed design has exactly one input vector (the empty one): a
    // single round evaluates it and further rounds are identical.
    let max_rounds = if in_nets.is_empty() { 1 } else { MAX_ROUNDS };

    let mut sim = PackedSim::new(design.clone())?;
    let mut stream = VectorStream::new(design, cfg.seed);
    let total = list.faults.len();
    let start = detected.iter().filter(|&&d| d).count();
    let mut ndet = start;
    let mut dry = 0u32;

    while (ndet as f64) < cfg.coverage_target * total as f64
        && set.len() < cfg.max_vectors
        && dry < DRY_LIMIT
        && out.rounds < max_rounds
        && gov.stop().is_none()
    {
        let pending = total - ndet;
        // One golden step plus one faulty step per pending fault, each
        // touching every node once per lane word.
        let cost = sim.order_len() as u64 * (pending as u64 + 1) + 1;
        if gov.charge(cost, Span::dummy()).is_err() {
            break;
        }
        out.rounds += 1;

        // Draw 64 candidates and pack them into per-input-bit words.
        let candidates: Vec<Vec<Vec<zeus_sema::value::Value>>> = (0..LANES)
            .map(|_| {
                stream
                    .next_vector()
                    .into_iter()
                    .map(|(_, bits)| bits)
                    .collect()
            })
            .collect();
        let mut words = vec![PackedWord::NOINFL; in_nets.len()];
        for (lane, cand) in candidates.iter().enumerate() {
            for (k, v) in cand.iter().flatten().enumerate() {
                words[k].set(lane, *v);
            }
        }
        for (k, &net) in in_nets.iter().enumerate() {
            sim.force(net, words[k]);
        }

        // Golden word.
        sim.clear_faults();
        sim.try_step()?;
        let gold: Vec<PackedWord> = out_nets
            .iter()
            .map(|&n| sim.value(n).to_boolean())
            .collect();

        // Fault-simulate every pending fault against all 64 lanes.
        let mut new_by_lane: Vec<Vec<usize>> = vec![Vec::new(); LANES];
        for (fi, fault) in list.faults.iter().enumerate() {
            if detected[fi] {
                continue;
            }
            sim.clear_faults();
            sim.inject(*fault)?;
            sim.try_step()?;
            let mut mask = 0u64;
            for (o, &n) in out_nets.iter().enumerate() {
                mask |= gold[o].diff(sim.value(n).to_boolean());
            }
            if mask != 0 {
                new_by_lane[mask.trailing_zeros() as usize].push(fi);
            }
        }

        // Credit lanes in ascending order: a lane is kept only if it is
        // the first detector of at least one fault.
        let before = ndet;
        for (lane, faults) in new_by_lane.iter().enumerate() {
            if faults.is_empty() || set.len() >= cfg.max_vectors {
                continue;
            }
            set.push(candidates[lane].clone());
            for &fi in faults {
                detected[fi] = true;
                ndet += 1;
            }
        }
        if ndet == before {
            dry += 1;
        } else {
            dry = 0;
        }
    }

    out.detected = ndet - start;
    Ok(out)
}
