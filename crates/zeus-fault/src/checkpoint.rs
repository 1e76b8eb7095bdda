//! Crash-safe campaign checkpoints: a journaled record of completed
//! fault words.
//!
//! A campaign writes one JSONL line per completed 64-fault word to a
//! journal file (read and escaped by the workspace's one JSON codec,
//! [`zeus_elab::json`]), after a header line that keys the journal to
//! the exact campaign configuration (a [`StableHasher`] digest of the
//! design structure, seed, vector count, engine, resource limits and the
//! fault list). The journal is flushed once per finished window of
//! words. Every flush rewrites the journal to a temporary file and
//! renames it over the target, so the on-disk journal is always either
//! the previous complete state or the new complete state — a crash can
//! lose at most the in-flight windows, never corrupt the finished words.
//!
//! On `--resume` the journal is validated against the digest of the
//! *current* invocation and completed words are merged back, so the
//! final report is byte-identical to an uninterrupted run. A torn final
//! line (a partial write from a crash of a non-atomic writer) is
//! tolerated and truncated on the next flush; corruption anywhere else
//! is an error, as is a digest mismatch (the checkpoint belongs to a
//! different campaign).

use crate::campaign::{outcome_tag, CampaignConfig, Outcome, UndetectedReason};
use crate::list::FaultList;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use zeus_elab::json::{self, Json};
use zeus_elab::{design_digest, Design, FaultKind, StableHasher};
use zeus_sim::LANES;
use zeus_syntax::diag::Diagnostic;
use zeus_syntax::span::Span;

/// Where to journal campaign progress, and whether to merge an existing
/// journal first.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Journal file path.
    pub path: PathBuf,
    /// Merge completed words from an existing journal at `path` (after
    /// digest validation) instead of starting over.
    pub resume: bool,
}

impl CheckpointOptions {
    /// Checkpoint to `path`, starting fresh.
    pub fn new(path: impl Into<PathBuf>) -> CheckpointOptions {
        CheckpointOptions {
            path: path.into(),
            resume: false,
        }
    }

    /// Checkpoint to `path`, resuming from it when it exists.
    pub fn resume(path: impl Into<PathBuf>) -> CheckpointOptions {
        CheckpointOptions {
            path: path.into(),
            resume: true,
        }
    }
}

/// The parsed header line of a checkpoint journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Campaign configuration digest (design + seed + vectors + engine +
    /// limits + fault list).
    pub config: u64,
    /// Top component name (informational).
    pub top: String,
    /// Engine name (informational).
    pub engine: String,
    /// Vectors per fault (informational).
    pub vectors: u32,
    /// The campaign seed. `zeusc fault --resume` reads it back so an
    /// interrupted run never needs `--seed` repeated on the command
    /// line.
    pub seed: u64,
    /// Number of faults in the simulated universe.
    pub faults: usize,
    /// Number of 64-fault words.
    pub words: usize,
}

fn err(msg: impl Into<String>) -> Diagnostic {
    Diagnostic::error(Span::dummy(), msg)
}

/// Digest of everything a campaign's per-fault outcomes (and their
/// report rendering) depend on. Execution strategy is deliberately
/// excluded: scalar and packed runs of the same config share a digest,
/// so a checkpoint written by one resumes under the other.
pub fn campaign_digest(design: &Design, list: &FaultList, cfg: &CampaignConfig) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(design_digest(design));
    h.write_str(cfg.engine.name());
    h.write_u64(u64::from(cfg.vectors));
    h.write_u64(cfg.seed);

    let limits = cfg.effective_limits();
    h.write_usize(limits.max_instances);
    h.write_usize(limits.max_call_depth);
    h.write_usize(limits.max_type_depth);
    h.write_usize(limits.max_nets);
    h.write_usize(limits.max_nodes);
    h.write_opt_u64(limits.fuel);
    h.write_opt_u64(limits.deadline.map(|d| d.as_nanos() as u64));
    h.write_opt_u64(limits.max_steps);
    h.write_opt_u64(limits.relax_iter_cap.map(u64::from));
    h.write_u64(u64::from(limits.max_input_bits));

    // An explicit vector set changes every per-fault outcome, so its
    // canonical text is part of the campaign identity. Random-stream
    // campaigns write nothing here, keeping their historical digests.
    if let Some(set) = &cfg.vector_set {
        h.write_str(&set.to_text());
    }

    h.write_usize(list.total_enumerated);
    h.write_usize(list.collapsed);
    h.write_usize(list.faults.len());
    for f in &list.faults {
        h.write_usize(f.site.index());
        match f.kind {
            FaultKind::StuckAt0 => h.write_u64(0),
            FaultKind::StuckAt1 => h.write_u64(1),
            FaultKind::BridgeWith(peer) => {
                h.write_u64(2);
                h.write_usize(peer.index());
            }
            FaultKind::TransientFlip { cycle } => {
                h.write_u64(3);
                h.write_u64(cycle);
            }
        }
    }
    h.finish()
}

/// The in-memory journal: header plus one line per completed word, in
/// completion order. Flushing rewrites the whole file atomically.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    lines: Vec<String>,
}

impl Journal {
    /// Opens (or resumes) the journal for a campaign. Returns the
    /// journal (None when checkpointing is off) and the completed words
    /// recovered from a resumed journal.
    #[allow(clippy::type_complexity)]
    pub(crate) fn open(
        design: &Design,
        list: &FaultList,
        cfg: &CampaignConfig,
        opts: Option<&CheckpointOptions>,
    ) -> Result<(Option<Journal>, BTreeMap<usize, Vec<Outcome>>), Diagnostic> {
        let Some(opts) = opts else {
            return Ok((None, BTreeMap::new()));
        };
        let digest = campaign_digest(design, list, cfg);
        let words = list.faults.len().div_ceil(LANES);
        let header = header_line(digest, design, cfg, list.faults.len(), words);
        let mut journal = Journal {
            path: opts.path.clone(),
            lines: vec![header],
        };
        let mut done = BTreeMap::new();
        if opts.resume && opts.path.exists() {
            done = load(&opts.path, digest, list.faults.len())?;
            for (&w, outcomes) in &done {
                journal.lines.push(entry_line(w, outcomes));
            }
        }
        // Flush immediately: a fresh journal materializes its header, a
        // resumed one truncates any torn trailing line on disk.
        journal.flush()?;
        Ok((Some(journal), done))
    }

    /// Appends completed words and flushes atomically: one durable
    /// write per call, however many words it brings.
    pub(crate) fn record(&mut self, finished: &[(usize, Vec<Outcome>)]) -> Result<(), Diagnostic> {
        let lines = finished
            .iter()
            .map(|(w, outcomes)| entry_line(*w, outcomes));
        self.lines.extend(lines);
        self.flush()
    }

    /// Writes the journal to `<path>.tmp`, fsyncs it, renames it over
    /// `<path>` and fsyncs the parent directory — see
    /// [`zeus_elab::write_durable`]. Without the fsyncs a power
    /// loss could persist the rename but not the data, producing an
    /// empty journal that still "exists" and defeats `--resume`.
    fn flush(&self) -> Result<(), Diagnostic> {
        let mut text = String::new();
        for line in &self.lines {
            text.push_str(line);
            text.push('\n');
        }
        zeus_elab::write_durable(&self.path, text.as_bytes()).map_err(|e| {
            err(format!(
                "cannot write checkpoint {}: {e}",
                self.path.display()
            ))
        })
    }
}

/// Reads and parses the header line of a checkpoint journal.
///
/// # Errors
///
/// When the file cannot be read or its first line is not a valid
/// checkpoint header.
pub fn read_header(path: &Path) -> Result<CheckpointHeader, Diagnostic> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read checkpoint {}: {e}", path.display())))?;
    let first = text
        .lines()
        .next()
        .ok_or_else(|| err(format!("checkpoint {} is empty", path.display())))?;
    parse_header(first).ok_or_else(|| {
        err(format!(
            "checkpoint {} has a corrupt header",
            path.display()
        ))
    })
}

/// Loads completed words from an existing journal, validating the digest
/// and every entry. A torn final line is skipped (it will be truncated
/// by the next flush); corruption elsewhere is an error.
fn load(
    path: &Path,
    expected_digest: u64,
    faults: usize,
) -> Result<BTreeMap<usize, Vec<Outcome>>, Diagnostic> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read checkpoint {}: {e}", path.display())))?;
    let mut lines: Vec<&str> = text.lines().collect();
    // A file that does not end in a newline was torn mid-append: its
    // final line never finished, regardless of whether it happens to
    // parse.
    let torn_tail = !text.is_empty() && !text.ends_with('\n');
    if lines.is_empty() {
        return Ok(BTreeMap::new());
    }
    let header = parse_header(lines[0]).ok_or_else(|| {
        err(format!(
            "checkpoint {} has a corrupt header",
            path.display()
        ))
    })?;
    if header.config != expected_digest {
        return Err(err(format!(
            "checkpoint {} was recorded for a different campaign \
             (config {:016x}, this run is {:016x}); rerun without --resume \
             to start over",
            path.display(),
            header.config,
            expected_digest
        )));
    }
    if torn_tail {
        lines.pop();
    }
    let words = faults.div_ceil(LANES);
    let mut done = BTreeMap::new();
    for (i, line) in lines.iter().enumerate().skip(1) {
        let last = i == lines.len() - 1;
        match parse_entry(line, words, faults) {
            Some((word, outcomes)) => {
                done.insert(word, outcomes);
            }
            // The final line of a crashed journal may be torn; anything
            // earlier is real corruption.
            None if last => break,
            None => {
                return Err(err(format!(
                    "checkpoint {} is corrupt at line {}",
                    path.display(),
                    i + 1
                )))
            }
        }
    }
    Ok(done)
}

// ---------------------------------------------------------------------
// Line (de)serialization
// ---------------------------------------------------------------------

fn header_line(
    digest: u64,
    design: &Design,
    cfg: &CampaignConfig,
    faults: usize,
    words: usize,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"zeus_fault_checkpoint\":1,\"config\":\"{digest:016x}\",\"top\":{},\
         \"engine\":{},\"vectors\":{},\"seed\":{},\"faults\":{faults},\"words\":{words}}}",
        json::quote(&design.top_type),
        json::quote(cfg.engine.name()),
        cfg.vectors,
        cfg.seed,
    );
    s
}

fn entry_line(word: usize, outcomes: &[Outcome]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"word\":{word},\"outcomes\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"o\":{}", json::quote(outcome_tag(o)));
        if let Outcome::Detected { cycle, port } = o {
            let _ = write!(s, ",\"cycle\":{cycle},\"port\":{}", json::quote(port));
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}

fn parse_header(line: &str) -> Option<CheckpointHeader> {
    let obj = Json::parse(line).ok()?;
    if obj.get("zeus_fault_checkpoint")?.as_u64()? != 1 {
        return None;
    }
    let config = u64::from_str_radix(obj.get("config")?.as_str()?, 16).ok()?;
    Some(CheckpointHeader {
        config,
        top: obj.get("top")?.as_str()?.to_string(),
        engine: obj.get("engine")?.as_str()?.to_string(),
        vectors: obj.get("vectors")?.as_u64()?.try_into().ok()?,
        seed: obj.get("seed")?.as_u64()?,
        faults: obj.get("faults")?.as_u64()?.try_into().ok()?,
        words: obj.get("words")?.as_u64()?.try_into().ok()?,
    })
}

fn parse_entry(line: &str, words: usize, faults: usize) -> Option<(usize, Vec<Outcome>)> {
    let obj = Json::parse(line).ok()?;
    let word: usize = obj.get("word")?.as_u64()?.try_into().ok()?;
    if word >= words {
        return None;
    }
    let expected = if word == words - 1 {
        faults - word * LANES
    } else {
        LANES
    };
    let arr = obj.get("outcomes")?.as_arr()?;
    if arr.len() != expected {
        return None;
    }
    let mut outcomes = Vec::with_capacity(arr.len());
    for item in arr {
        let o = match item.get("o")?.as_str()? {
            "detected" => Outcome::Detected {
                cycle: item.get("cycle")?.as_u64()?,
                port: item.get("port")?.as_str()?.to_string(),
            },
            "undetected" => Outcome::Undetected(UndetectedReason::NotObserved),
            "budget-exhausted" => Outcome::Undetected(UndetectedReason::BudgetExhausted),
            "hyperactive" => Outcome::Hyperactive,
            "tool-error" => Outcome::ToolError,
            _ => return None,
        };
        outcomes.push(o);
    }
    Some((word, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Engine;
    use crate::list::{enumerate_faults, FaultListOptions};
    use zeus_elab::elaborate;
    use zeus_syntax::parse_program;

    fn design(src: &str, top: &str) -> Design {
        elaborate(&parse_program(src).unwrap(), top, &[]).unwrap()
    }

    const HALFADDER: &str = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
         BEGIN s := XOR(a,b); cout := AND(a,b) END;";

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("zeus-fault-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn sample_outcomes(n: usize) -> Vec<Outcome> {
        (0..n)
            .map(|i| match i % 5 {
                0 => Outcome::Detected {
                    cycle: i as u64,
                    port: "s".to_string(),
                },
                1 => Outcome::Undetected(UndetectedReason::NotObserved),
                2 => Outcome::Undetected(UndetectedReason::BudgetExhausted),
                3 => Outcome::Hyperactive,
                _ => Outcome::ToolError,
            })
            .collect()
    }

    #[test]
    fn entry_lines_round_trip() {
        let outcomes = sample_outcomes(LANES);
        let line = entry_line(3, &outcomes);
        let (word, parsed) = parse_entry(&line, 8, 8 * LANES).unwrap();
        assert_eq!(word, 3);
        assert_eq!(parsed, outcomes);
    }

    #[test]
    fn entry_with_escaped_port_name_round_trips() {
        let outcomes = vec![Outcome::Detected {
            cycle: 1,
            port: "weird\"port\\name".to_string(),
        }];
        let line = entry_line(0, &outcomes);
        let (_, parsed) = parse_entry(&line, 1, 1).unwrap();
        assert_eq!(parsed, outcomes);
    }

    #[test]
    fn digest_depends_on_each_config_axis() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let base = CampaignConfig::new(Engine::Graph, 32, 1);
        let digest = campaign_digest(&d, &list, &base);

        let mut other = base.clone();
        other.seed = 2;
        assert_ne!(digest, campaign_digest(&d, &list, &other));

        let mut other = base.clone();
        other.vectors = 33;
        assert_ne!(digest, campaign_digest(&d, &list, &other));

        let mut other = base.clone();
        other.engine = Engine::Switch;
        assert_ne!(digest, campaign_digest(&d, &list, &other));

        let mut other = base.clone();
        other.limits.fuel = Some(10);
        assert_ne!(digest, campaign_digest(&d, &list, &other));

        let mut short = list.clone();
        short.faults.pop();
        assert_ne!(digest, campaign_digest(&d, &short, &base));

        assert_eq!(digest, campaign_digest(&d, &list, &base));
    }

    #[test]
    fn journal_resume_recovers_recorded_words() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let cfg = CampaignConfig::new(Engine::Graph, 32, 1);
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);

        let opts = CheckpointOptions::new(&path);
        let (journal, done) = Journal::open(&d, &list, &cfg, Some(&opts)).unwrap();
        assert!(done.is_empty());
        let outcomes = sample_outcomes(list.faults.len().min(LANES));
        journal.unwrap().record(&[(0, outcomes.clone())]).unwrap();

        let opts = CheckpointOptions::resume(&path);
        let (_, done) = Journal::open(&d, &list, &cfg, Some(&opts)).unwrap();
        assert_eq!(done.get(&0), Some(&outcomes));

        let header = read_header(&path).unwrap();
        assert_eq!(header.seed, 1);
        assert_eq!(header.top, "halfadder");
        assert_eq!(header.config, campaign_digest(&d, &list, &cfg));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_different_campaign() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let cfg = CampaignConfig::new(Engine::Graph, 32, 1);
        let path = tmp("mismatch.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = CheckpointOptions::new(&path);
        Journal::open(&d, &list, &cfg, Some(&opts)).unwrap();

        let mut other = cfg.clone();
        other.seed = 99;
        let opts = CheckpointOptions::resume(&path);
        let e = Journal::open(&d, &list, &other, Some(&opts)).unwrap_err();
        assert!(e.message.contains("different campaign"), "{}", e.message);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_tolerated_and_truncated() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let cfg = CampaignConfig::new(Engine::Graph, 32, 1);
        let path = tmp("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = CheckpointOptions::new(&path);
        let (journal, _) = Journal::open(&d, &list, &cfg, Some(&opts)).unwrap();
        let outcomes = sample_outcomes(list.faults.len().min(LANES));
        journal.unwrap().record(&[(0, outcomes.clone())]).unwrap();

        // Simulate a crash mid-append: a second entry torn in half.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let torn = &entry_line(1, &outcomes)[..20];
        text.push_str(torn);
        std::fs::write(&path, &text).unwrap();

        let opts = CheckpointOptions::resume(&path);
        let (_, done) = Journal::open(&d, &list, &cfg, Some(&opts)).unwrap();
        assert_eq!(done.len(), 1, "the torn word is not recovered");
        assert_eq!(done.get(&0), Some(&outcomes));

        // The re-flush on open truncated the torn line on disk.
        let after = std::fs::read_to_string(&path).unwrap();
        assert!(after.ends_with('\n'));
        assert_eq!(after.lines().count(), 2, "header + one complete entry");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_before_the_final_line_is_an_error() {
        let d = design(HALFADDER, "halfadder");
        let list = enumerate_faults(&d, &FaultListOptions::default());
        let cfg = CampaignConfig::new(Engine::Graph, 32, 1);
        let path = tmp("corrupt.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = CheckpointOptions::new(&path);
        let (journal, _) = Journal::open(&d, &list, &cfg, Some(&opts)).unwrap();
        let outcomes = sample_outcomes(list.faults.len().min(LANES));
        journal.unwrap().record(&[(0, outcomes.clone())]).unwrap();

        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"word\":garbage}\n");
        text.push_str(&entry_line(0, &outcomes));
        text.push('\n');
        std::fs::write(&path, &text).unwrap();

        let opts = CheckpointOptions::resume(&path);
        let e = Journal::open(&d, &list, &cfg, Some(&opts)).unwrap_err();
        assert!(e.message.contains("corrupt"), "{}", e.message);
        let _ = std::fs::remove_file(&path);
    }
}
