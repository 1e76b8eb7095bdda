//! Reverse-order fault-simulation compaction.
//!
//! Vectors generated late (PODEM's targeted tests) tend to detect many
//! of the faults that earlier random vectors were originally credited
//! with. Walking the vector set *backwards* and keeping a vector only
//! when it detects some fault no later-kept vector covers is the
//! classic reverse-order compaction: exact (per-vector detection is
//! recomputed by real fault simulation, not taken from the harvest's
//! bookkeeping) and coverage-preserving for combinational designs,
//! where each vector's detections are independent of its neighbours.
//!
//! The greedy walk keeps exactly the vectors that are some fault's
//! *last* detector, and a fault's last detector is its first detection
//! in the reversed set. So compaction is one packed fault campaign
//! replaying the reversed set: every detected fault names the vector
//! that keeps it.

use zeus_elab::{Design, Governor, Limits};
use zeus_fault::{run_campaign_packed, CampaignConfig, Engine, FaultList, Outcome};
use zeus_sim::{VectorSet, LANES};
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

/// What the compaction pass did.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CompactOutcome {
    /// Vectors dropped from the set.
    pub removed: usize,
    /// True when the fuel governor ran out before the replay; the set is
    /// then left untouched.
    pub skipped: bool,
}

/// Compacts `set` in place, preserving its exact fault coverage. A
/// replay the run's deadline stops leaves the set untouched, as fuel
/// exhaustion does.
///
/// # Errors
///
/// Propagates simulator construction or stepping failures; fuel
/// exhaustion sets `skipped` instead.
pub(crate) fn reverse_compact(
    design: &Design,
    list: &FaultList,
    set: &mut VectorSet,
    gov: &mut Governor,
) -> Result<CompactOutcome, Diagnostic> {
    let mut out = CompactOutcome::default();
    let nvec = set.len();
    if nvec <= 1 || list.faults.is_empty() {
        return Ok(out);
    }

    // Fuel is billed as a golden and a faulty sweep per vector for each
    // 64-fault word.
    let cost = design.netlist.topo_order()?.len() as u64 * 2 * nvec as u64 + 1;
    for _ in 0..list.faults.len().div_ceil(LANES) {
        if gov.charge(cost, Span::dummy()).is_err() {
            out.skipped = true;
            return Ok(out);
        }
    }

    let mut reversed = VectorSet::new(design, set.seed);
    for v in (0..nvec).rev() {
        reversed.push(set.bits(v).to_vec());
    }
    let mut cfg = CampaignConfig::replay(Engine::Graph, reversed);
    cfg.limits = crate::nested(&Limits::default(), gov);
    let replay = run_campaign_packed(design, list, &cfg, 1)?;
    if replay.partial.is_some() {
        return Ok(out);
    }

    let mut keep = vec![false; nvec];
    for r in &replay.results {
        if let Outcome::Detected { cycle, .. } = r.outcome {
            keep[nvec - 1 - cycle as usize] = true;
        }
    }
    out.removed = keep.iter().filter(|&&k| !k).count();
    set.retain_indices(|i| keep[i]);
    Ok(out)
}
