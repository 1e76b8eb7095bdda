//! # zeus-fault
//!
//! Fault injection for Zeus designs: enumeration of a structural fault
//! universe over the elaborated semantics graph, classic fanout-free
//! fault collapsing, and deterministic differential fault campaigns that
//! classify every fault as detected, undetected or hyperactive and emit
//! a coverage report.
//!
//! The paper's type discipline exists to stop silicon from failing
//! ("burning transistors", §4.7) and its simulator computes over
//! {0, 1, UNDEF, NOINFL} (§8) so that partial information propagates
//! soundly. This crate turns that machinery on the *physical* failure
//! modes testability engineering cares about: stuck-at defects, resistive
//! bridges and single-event upsets, executed on both the semantics-graph
//! engine (`zeus-sim`, 64 faults per packed pass) and the switch-level
//! engine (`zeus-switch`). [`run_campaign_packed`] is the production
//! runner; [`run_campaign`] is the scalar reference it is checked
//! against, byte for byte.
//!
//! ## Example
//!
//! ```
//! use zeus_syntax::parse_program;
//! use zeus_elab::elaborate;
//! use zeus_fault::{enumerate_faults, run_campaign_packed, CampaignConfig, Engine, FaultListOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
//!      BEGIN s := XOR(a,b); cout := AND(a,b) END;",
//! )?;
//! let design = elaborate(&program, "halfadder", &[])?;
//! let list = enumerate_faults(&design, &FaultListOptions::default());
//! let report = run_campaign_packed(&design, &list, &CampaignConfig::new(Engine::Graph, 16, 1), 1)?;
//! assert!(report.coverage() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod campaign;
mod checkpoint;
mod list;
mod packed;
mod report;

pub use campaign::{
    run_campaign, run_campaign_with, CampaignConfig, Engine, FaultResult, Outcome, UndetectedReason,
};
pub use checkpoint::{campaign_digest, read_header, CheckpointHeader, CheckpointOptions};
pub use list::{enumerate_faults, FaultList, FaultListOptions};
pub use packed::{run_campaign_packed, run_campaign_packed_with};
pub use report::CoverageReport;
pub use zeus_elab::{Fault, FaultKind, PartialReason};
