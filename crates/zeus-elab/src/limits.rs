//! The resource governor: one [`Limits`] struct bounds every phase of the
//! pipeline, and a [`Governor`] enforces the dynamic budgets (fuel and
//! wall-clock deadline) cooperatively from the hot loops.
//!
//! Zeus programs can demand unbounded work from a finite description: a
//! recursive component type without a `WHEN` guard elaborates forever
//! (§4.2), a mis-wired design can oscillate under switch-level relaxation,
//! and an equivalence check is exponential in input width. Every such
//! failure mode is reported as an `error[Z9xx]` diagnostic (see
//! [`zeus_syntax::diag::codes`]) instead of a hang, a panic, or an OOM
//! kill, so drivers — the CLI, tests, language servers — can distinguish
//! "your program is wrong" from "your program is too big for the budget I
//! gave it".

use std::time::{Duration, Instant};
use zeus_syntax::diag::{codes, Diagnostic};
use zeus_syntax::span::Span;

/// Unified resource limits for elaboration and simulation.
///
/// `Limits` covers instance and netlist-size, fuel, deadline and
/// simulation budgets. All budgets are *cooperative*: the pipeline
/// checks them at loop boundaries, so exceeding one yields a clean
/// diagnostic with all partial results intact rather than an abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of component instances before elaboration is
    /// declared non-terminating (a recursive type without a `WHEN` guard).
    /// Exceeding it reports `Z901`.
    pub max_instances: usize,
    /// Maximum function-component call nesting (`Z906`).
    pub max_call_depth: usize,
    /// Maximum nesting depth of resolved types (`Z907`).
    pub max_type_depth: usize,
    /// Maximum number of nets in the elaborated netlist (`Z902`). This is
    /// the budget that stops runaway recursion *before* memory does:
    /// every instance allocates its pin nets eagerly.
    pub max_nets: usize,
    /// Maximum number of nodes (gates/registers) in the netlist (`Z903`).
    pub max_nodes: usize,
    /// Cooperative fuel budget (`Z904`): elaboration charges one unit per
    /// instance and per statement, simulation one per node evaluation.
    /// `None` means unlimited.
    pub fuel: Option<u64>,
    /// Wall-clock budget from governor creation (`Z905`). Checked
    /// amortized (every few hundred charges), so overshoot is bounded by
    /// one batch of work. `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Simulation step budget for `run`-style loops (`Z908`). `None`
    /// means unlimited.
    pub max_steps: Option<u64>,
    /// Per-cycle relaxation-sweep cap for the switch-level simulator.
    /// `None` uses the adaptive default `2 * nodes + 16`; exceeding the
    /// cap reports a `Z310` oscillation diagnostic.
    pub relax_iter_cap: Option<u32>,
    /// Maximum total input width for exhaustive equivalence checking
    /// (`Z909`); the check enumerates `2^bits` vectors.
    pub max_input_bits: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_instances: 1_000_000,
            // Recursive function components halve their parameter per
            // level (§4.2 style), so 64 suffices for any 64-bit size
            // while staying within default thread stacks.
            max_call_depth: 64,
            max_type_depth: 64,
            // Generous for real designs (the paper's largest examples
            // elaborate to thousands of nets) but small enough that an
            // unguarded recursion trips the budget in well under a
            // second, long before memory pressure.
            max_nets: 2_000_000,
            max_nodes: 4_000_000,
            fuel: None,
            deadline: None,
            max_steps: None,
            relax_iter_cap: None,
            max_input_bits: 20,
        }
    }
}

impl Limits {
    /// Default limits (same as [`Default`], reads better at call sites).
    pub fn new() -> Self {
        Self::default()
    }

    /// Tight limits for fuzzing and property tests: small enough that a
    /// pathological generated program finishes in microseconds.
    pub fn tiny() -> Self {
        Limits {
            max_instances: 256,
            max_call_depth: 16,
            max_type_depth: 16,
            max_nets: 4_096,
            max_nodes: 4_096,
            fuel: Some(100_000),
            deadline: None,
            max_steps: Some(64),
            relax_iter_cap: Some(256),
            max_input_bits: 8,
        }
    }

    /// Sets the fuel budget (builder style).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Sets the wall-clock deadline (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the simulation step budget (builder style).
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Starts a governor enforcing these limits from now.
    pub fn governor(&self) -> Governor {
        Governor::new(self)
    }
}

/// How often (in charges) the governor reads the clock. Deadline overshoot
/// is bounded by this many units of work.
const DEADLINE_STRIDE: u64 = 64;

/// Enforces the dynamic budgets of a [`Limits`]: fuel and deadline.
///
/// A governor is created when a phase starts ([`Limits::governor`]) and
/// threaded through its hot loops; each loop iteration calls
/// [`Governor::charge`]. Both checks are cheap — fuel is a subtraction,
/// and the clock is read only every [`DEADLINE_STRIDE`] charges.
#[derive(Debug, Clone)]
pub struct Governor {
    fuel_left: Option<u64>,
    fuel_total: u64,
    deadline_at: Option<Instant>,
    deadline_total: Duration,
    charges: u64,
}

impl Governor {
    /// A governor whose deadline countdown starts now.
    pub fn new(limits: &Limits) -> Self {
        Governor {
            fuel_left: limits.fuel,
            fuel_total: limits.fuel.unwrap_or(0),
            deadline_at: limits.deadline.map(|d| Instant::now() + d),
            deadline_total: limits.deadline.unwrap_or_default(),
            charges: 0,
        }
    }

    /// Consumes `amount` units of fuel and (amortized) checks the
    /// deadline.
    ///
    /// # Errors
    ///
    /// `Z904` when the fuel budget is exhausted, `Z905` when the deadline
    /// has passed.
    pub fn charge(&mut self, amount: u64, span: Span) -> Result<(), Diagnostic> {
        if let Some(left) = &mut self.fuel_left {
            if *left < amount {
                *left = 0;
                return Err(Diagnostic::error(
                    span,
                    format!(
                        "fuel budget exhausted (limit {}): compilation cancelled before \
                         completion; raise the fuel limit to continue",
                        self.fuel_total
                    ),
                )
                .with_code(codes::LIMIT_FUEL));
            }
            *left -= amount;
        }
        self.charges += 1;
        if self.deadline_at.is_some() && self.charges.is_multiple_of(DEADLINE_STRIDE) {
            self.check_deadline(span)?;
        }
        Ok(())
    }

    /// Checks the deadline immediately (un-amortized; use at phase
    /// boundaries).
    ///
    /// # Errors
    ///
    /// `Z905` when the deadline has passed.
    pub fn check_deadline(&self, span: Span) -> Result<(), Diagnostic> {
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                return Err(Diagnostic::error(
                    span,
                    format!(
                        "deadline of {:?} exceeded: compilation cancelled before completion; \
                         raise the timeout to continue",
                        self.deadline_total
                    ),
                )
                .with_code(codes::LIMIT_DEADLINE));
            }
        }
        Ok(())
    }

    /// Fuel remaining, or `None` when unlimited.
    pub fn fuel_left(&self) -> Option<u64> {
        self.fuel_left
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_runs_out_with_z904() {
        let mut g = Limits::new().with_fuel(10).governor();
        let span = Span::new(0, 0);
        for _ in 0..10 {
            g.charge(1, span).unwrap();
        }
        let err = g.charge(1, span).unwrap_err();
        assert_eq!(err.code, Some(codes::LIMIT_FUEL));
        assert!(err.is_resource_limit());
        assert_eq!(g.fuel_left(), Some(0));
    }

    #[test]
    fn unlimited_fuel_never_errors() {
        let mut g = Limits::new().governor();
        let span = Span::new(0, 0);
        for _ in 0..10_000 {
            g.charge(7, span).unwrap();
        }
    }

    #[test]
    fn zero_deadline_trips_z905() {
        let g = Limits::new()
            .with_deadline(Duration::from_secs(0))
            .governor();
        let err = g.check_deadline(Span::new(0, 0)).unwrap_err();
        assert_eq!(err.code, Some(codes::LIMIT_DEADLINE));
        // And the amortized path reaches it too.
        let mut g = Limits::new()
            .with_deadline(Duration::from_secs(0))
            .governor();
        let res: Result<(), _> = (0..1_000).try_for_each(|_| g.charge(1, Span::new(0, 0)));
        assert_eq!(res.unwrap_err().code, Some(codes::LIMIT_DEADLINE));
    }

    #[test]
    fn tiny_limits_are_small() {
        let t = Limits::tiny();
        let d = Limits::default();
        assert!(t.max_instances < d.max_instances);
        assert!(t.max_nets < d.max_nets);
        assert!(t.fuel.is_some());
    }
}
