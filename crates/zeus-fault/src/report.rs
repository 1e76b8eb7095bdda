//! Coverage reports: campaign results as text and deterministic JSON.
//!
//! The JSON is hand-rolled with a fixed key order and fixed number
//! formatting (strings go through the shared
//! [`zeus_elab::json::quote`]), so a campaign with the same design, seed
//! and vector count produces *byte-identical* reports across runs — a
//! property the test suite asserts, and which makes reports diffable in
//! CI. The partial
//! and tool-error annotations below are emitted *only* when present, so
//! a complete, error-free campaign renders exactly as it always has.

use crate::campaign::{outcome_tag, CampaignConfig, FaultResult, Outcome};
use crate::list::FaultList;
use std::fmt::Write as _;
use zeus_elab::{json, Design, PartialReason};

/// The result of a whole campaign.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Top component name.
    pub top: String,
    /// Engine name (`graph` or `switch`).
    pub engine: String,
    /// Vectors applied per fault.
    pub vectors: u32,
    /// The seed used.
    pub seed: u64,
    /// Faults enumerated before collapsing.
    pub total_enumerated: usize,
    /// Faults removed by structural collapsing.
    pub collapsed: usize,
    /// Per-fault results, in deterministic fault order.
    pub results: Vec<FaultResult>,
    /// `(port, detections)` for every OUT port, in declaration order.
    pub port_histogram: Vec<(String, usize)>,
    /// Faults the campaign planned to simulate (the collapsed universe).
    /// Equals `results.len()` unless the run is partial.
    pub planned: usize,
    /// `Some` when the campaign stopped early (interrupt or deadline):
    /// `results` then covers only the completed words.
    pub partial: Option<PartialReason>,
}

impl CoverageReport {
    /// Assembles a report from campaign results.
    pub fn new(
        design: &Design,
        list: &FaultList,
        cfg: &CampaignConfig,
        results: Vec<FaultResult>,
    ) -> CoverageReport {
        let mut port_histogram: Vec<(String, usize)> =
            design.outputs().map(|p| (p.name.clone(), 0)).collect();
        for r in &results {
            if let Outcome::Detected { port, .. } = &r.outcome {
                if let Some(entry) = port_histogram.iter_mut().find(|(n, _)| n == port) {
                    entry.1 += 1;
                }
            }
        }
        CoverageReport {
            top: design.top_type.clone(),
            engine: cfg.engine.name().to_string(),
            vectors: cfg.vectors,
            seed: cfg.seed,
            total_enumerated: list.total_enumerated,
            collapsed: list.collapsed,
            results,
            port_histogram,
            planned: list.faults.len(),
            partial: None,
        }
    }

    /// Simulated faults (the collapsed universe).
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Faults classified `Detected`.
    pub fn detected(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Detected { .. }))
            .count()
    }

    /// Faults classified `Undetected` (for either reason).
    pub fn undetected(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Undetected(_)))
            .count()
    }

    /// Faults classified `Hyperactive`.
    pub fn hyperactive(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Hyperactive))
            .count()
    }

    /// Faults classified `ToolError` (simulator failure, not a verdict
    /// about the fault). They count in the coverage denominator.
    pub fn tool_errors(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::ToolError))
            .count()
    }

    /// Detected / total, in [0, 1]; 0 for an empty universe.
    pub fn coverage(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.detected() as f64 / self.results.len() as f64
        }
    }

    /// Human-readable report: summary, per-port histogram, and the
    /// undetected/hyperactive fault lists.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fault campaign: {} ({} engine, {} vectors, seed {})",
            self.top, self.engine, self.vectors, self.seed
        );
        let _ = writeln!(
            s,
            "  universe: {} faults enumerated, {} collapsed, {} simulated",
            self.total_enumerated,
            self.collapsed,
            self.total()
        );
        if let Some(reason) = self.partial {
            let _ = writeln!(
                s,
                "  PARTIAL ({}): {}/{} faults simulated — resume with --resume",
                reason.tag(),
                self.total(),
                self.planned
            );
        }
        let _ = writeln!(
            s,
            "  coverage: {}/{} detected ({}), {} undetected, {} hyperactive",
            self.detected(),
            self.total(),
            fmt_pct(self.coverage()),
            self.undetected(),
            self.hyperactive()
        );
        if self.tool_errors() > 0 {
            let _ = writeln!(
                s,
                "  tool errors: {} (simulator failures; classification unknown)",
                self.tool_errors()
            );
        }
        let _ = writeln!(s, "  detections by port:");
        for (port, n) in &self.port_histogram {
            let _ = writeln!(s, "    {port}: {n}");
        }
        let _ = writeln!(s, "  per-fault classification:");
        for r in &self.results {
            match &r.outcome {
                Outcome::Detected { cycle, port } => {
                    let _ = writeln!(
                        s,
                        "    {} ({}) — detected at cycle {} on {}",
                        r.fault, r.site_name, cycle, port
                    );
                }
                other => {
                    let _ = writeln!(
                        s,
                        "    {} ({}) — {}",
                        r.fault,
                        r.site_name,
                        outcome_tag(other)
                    );
                }
            }
        }
        s
    }

    /// The report as deterministic JSON (fixed key order, sorted faults,
    /// fixed-precision coverage).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        let _ = write!(s, "\"top\":{}", json::quote(&self.top));
        let _ = write!(s, ",\"engine\":{}", json::quote(&self.engine));
        let _ = write!(s, ",\"vectors\":{}", self.vectors);
        let _ = write!(s, ",\"seed\":{}", self.seed);
        let _ = write!(s, ",\"total_enumerated\":{}", self.total_enumerated);
        let _ = write!(s, ",\"collapsed\":{}", self.collapsed);
        let _ = write!(s, ",\"simulated\":{}", self.total());
        let _ = write!(s, ",\"detected\":{}", self.detected());
        let _ = write!(s, ",\"undetected\":{}", self.undetected());
        let _ = write!(s, ",\"hyperactive\":{}", self.hyperactive());
        // Emitted only when non-zero / present, so complete error-free
        // reports keep their historical byte layout.
        if self.tool_errors() > 0 {
            let _ = write!(s, ",\"tool_errors\":{}", self.tool_errors());
        }
        if let Some(reason) = self.partial {
            let _ = write!(
                s,
                ",\"partial\":true,\"partial_reason\":{},\"planned\":{}",
                json::quote(reason.tag()),
                self.planned
            );
        }
        let _ = write!(s, ",\"coverage\":{:.6}", self.coverage());
        s.push_str(",\"ports\":[");
        for (i, (port, n)) in self.port_histogram.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"port\":{},\"detected\":{}}}", json::quote(port), n);
        }
        s.push(']');
        s.push_str(",\"faults\":[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"fault\":{},\"site\":{},\"outcome\":{}",
                json::quote(&r.fault.to_string()),
                json::quote(&r.site_name),
                json::quote(outcome_tag(&r.outcome))
            );
            if let Outcome::Detected { cycle, port } = &r.outcome {
                let _ = write!(s, ",\"cycle\":{cycle},\"port\":{}", json::quote(port));
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formatting_is_fixed() {
        assert_eq!(fmt_pct(0.5), "50.0%");
        assert_eq!(fmt_pct(1.0), "100.0%");
        assert_eq!(fmt_pct(1.0 / 3.0), "33.3%");
    }
}
