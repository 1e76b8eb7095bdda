//! # zeus-sim
//!
//! The Zeus simulator of paper §8: deterministic evaluation of the
//! semantics graph with four-valued firing rules, registers that latch per
//! clock cycle, and the runtime single-active-assignment check that
//! "safeguards against burning transistors".
//!
//! Three engines with identical semantics are provided:
//!
//! * [`Simulator`] — the reference levelized engine (full topological
//!   sweep per cycle),
//! * [`EventSimulator`] — a selective-trace event-driven engine for
//!   workloads with low activity (used by the benchmark ablations),
//! * [`PackedSim`] — a bit-parallel engine evaluating 64 independent
//!   patterns per sweep (two `u64` planes per net), lane-for-lane
//!   equivalent to [`Simulator`] and the substrate for sharded fault
//!   campaigns (see `docs/PERFORMANCE.md`).
//!
//! [`Recorder`] captures waveforms and renders ASCII timelines or a
//! VCD-style dump.
//!
//! ## Example
//!
//! ```
//! use zeus_syntax::parse_program;
//! use zeus_elab::elaborate;
//! use zeus_sim::Simulator;
//! use zeus_sema::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
//!      BEGIN s := XOR(a,b); cout := AND(a,b) END;",
//! )?;
//! let mut sim = Simulator::new(elaborate(&program, "halfadder", &[])?)?;
//! sim.set_port_bit("a", Value::One)?;
//! sim.set_port_bit("b", Value::One)?;
//! sim.step();
//! assert_eq!(sim.port("cout"), vec![Value::One]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod equiv;
mod event;
mod packed;
mod sim;
mod trace;
mod vectors;

pub use equiv::{
    check_equivalent, check_equivalent_with, run_differential, CounterExample, Divergence,
};
pub use event::EventSimulator;
pub use packed::{PackedConflict, PackedCycleReport, PackedSim, PackedWord, LANES};
pub use sim::{Conflict, CycleReport, Simulator};
pub use trace::Recorder;
pub use vectors::{Assignment, VectorSet, VectorStream};
