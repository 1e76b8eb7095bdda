//! # zeus-elab
//!
//! Elaboration of Zeus programs into flat netlists (the paper's
//! *semantics graph*, §8). This crate implements:
//!
//! * resolution of (recursive, integer-parameterized) types into
//!   [`shape::Shape`]s,
//! * lazy, use-driven instantiation of component bodies ("hardware is only
//!   generated if it is used", §4.2),
//! * lowering of connection statements to assignments (§4.3), `==`
//!   aliasing by union-find, `IF` switches, replication and conditional
//!   generation,
//! * the static type rules of §4.7 with "exception 1" handling,
//! * the layout-language interpretation producing a resolved instance tree
//!   (consumed by `zeus-layout`), including `virtual` replacement (§6.4).
//!
//! ## Example
//!
//! ```
//! use zeus_syntax::parse_program;
//! use zeus_elab::elaborate;
//!
//! # fn main() -> Result<(), zeus_syntax::Diagnostics> {
//! let program = parse_program(
//!     "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
//!      BEGIN s := XOR(a,b); cout := AND(a,b) END;",
//! )?;
//! let design = elaborate(&program, "halfadder", &[])?;
//! assert_eq!(design.ports.len(), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod elab;

pub mod design;
pub mod durable;
pub mod fault;
pub mod hash;
pub mod json;
pub mod limits;
pub mod netlist;
pub mod serdes;
pub mod shape;

pub use design::{find_port, Design, Direction, InstanceNode, LayoutItem, Orientation, Port};
pub use durable::write_durable;
pub use elab::{elaborate, elaborate_signal, elaborate_signal_with, elaborate_with};
pub use fault::{Fault, FaultKind};
pub use hash::{design_digest, StableHasher};
pub use json::Json;
pub use limits::{Governor, Limits, PartialReason, StepBudget};
pub use netlist::{to_dot, GroupConstraint, Net, NetId, Netlist, Node, NodeId, NodeOp};
pub use serdes::{
    design_from_text, design_from_text_checked, design_to_text, SerdesError, DESIGN_MAGIC,
};
pub use shape::{BuiltinComponent, FieldShape, RecordShape, Shape};
