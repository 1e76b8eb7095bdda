//! `zeusd` — a crash-tolerant compile/sim/fault daemon for the Zeus
//! HDL toolchain.
//!
//! The daemon keeps whole `sim`, `fault` and `atpg` answers in a
//! content-addressed on-disk text store ([`store::Store`]), so a
//! repeated `zeusc` command line is answered before any work. It is
//! built to be left running:
//!
//! * **Deadlines** — every request executes under a wall-clock budget
//!   that propagates into the limits of every engine it runs; a stuck
//!   request cannot wedge a worker, and a run that reaches the deadline
//!   answers `Z905` instead of a clock-dependent answer ([`server`]).
//! * **Backpressure** — each connection's request line is read on a
//!   reader of its own, so a slow client holds up no other; the readers
//!   and the request queue are bounded, and the queue is fair across
//!   clients; past a bound, clients are told `overloaded` with a retry
//!   hint instead of queueing unboundedly.
//! * **Panic isolation** — a request that panics the compiler returns
//!   a Z-coded internal error; the daemon keeps serving.
//! * **Graceful drain** — SIGTERM/SIGINT stop intake, answer queued
//!   work with `shutting_down`, and let in-flight campaigns flush
//!   their checkpoint journals before exit.
//! * **Crash-safe cache** — every store entry is written atomically
//!   with `fsync` and verified (length + checksum) on read; torn or
//!   corrupted entries are quarantined and rebuilt, never served.
//!
//! The wire protocol (single-line JSON over a Unix socket, one request
//! per connection) and the retrying client live in `zeus_cli::proto`
//! and `zeus_cli::remote`; `zeusc --remote SOCKET` is the intended
//! front end. See `docs/DAEMON.md` for the full protocol and
//! failure-mode table.

#![cfg(unix)]

pub mod server;
pub mod store;

pub use server::{run, ServerConfig, SHUTDOWN};
pub use store::{RecoveryReport, Store};
