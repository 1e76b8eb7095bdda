//! The `zeusc` driver as a library.
//!
//! Everything the `zeusc` binary does — argument parsing, command
//! dispatch, output formatting, exit-code classification — lives here,
//! executed against a [`Session`]: the one door between a command and
//! the world. The binary builds a plain local session and prints the
//! buffers; the `zeusd` daemon builds one request-scoped session per
//! client request. A command meets the world only through the session,
//! each concern at one site:
//!
//! * **inputs** — the files a command line names (its program or
//!   netlist file, `--vectors-file`, each `--replay`) are read once,
//!   before any work: from the filesystem, or in the daemon from the
//!   request's inlined [`Session::sources`]. The `--remote` client reads
//!   the same list to fill its request, so an unreadable file fails on
//!   the client with the message a local run gives;
//! * **outputs** — every emitted file goes through one writer, which
//!   creates parent directories. In the daemon it captures the file into
//!   the answer, and the client writes it through the same writer;
//! * **the server deadline** ([`Session::deadline`]) — merged into the
//!   limits every engine runs under, a fault campaign's and an ATPG
//!   run's included. It never changes an answer: a command that ends
//!   past it answers `Z905` (exit 3) instead, and nothing is stored;
//! * **reuse** ([`Cache`]) — the whole answer of a `sim`, `fault` or
//!   `atpg` command line is looked up before any work and stored after a
//!   successful run (see `docs/DAEMON.md` for the exact keying);
//! * **cancellation** ([`Session::cancel`]) — attached, beside the
//!   server deadline, to the limits of a fault campaign or ATPG run; the
//!   daemon's shutdown flag doubles as every in-flight run's Ctrl-C, so
//!   a graceful drain flushes checkpoints exactly like an interactive
//!   interrupt.
//!
//! The contract that keeps the remote path honest: for any request a
//! daemon accepts, the bytes in [`Session::out`]/[`Session::err`], the
//! emitted files and the exit code are identical to a local `zeusc` run
//! of the same command line (given the same input files), stored answer
//! or not. It rests on one invariant: a stored answer is everything one
//! command line wrote, from its first byte.

pub mod proto;
#[cfg(unix)]
pub mod remote;

/// Graceful Ctrl-C for fault campaigns and ATPG, without a libc
/// dependency: the first SIGINT raises [`sigint::INTERRUPTED`] (runs
/// drain in-flight work, flush checkpoints and report partially) and
/// restores the default disposition so a second Ctrl-C kills the
/// process immediately.
#[cfg(unix)]
pub mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the first SIGINT; a run's stop flag (`Limits::cancel`),
    /// read where the run reads its deadline: in a campaign's golden
    /// trace, between fault words and between ATPG faults.
    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::Relaxed);
        // Async-signal-safe: one atomic store and one signal(2) call.
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    /// Installs the handler (idempotent).
    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};
use zeus::{examples, Json, Limits, StableHasher, Zeus};

/// Appends a line to a session buffer (stdout or stderr).
macro_rules! wln {
    ($buf:expr, $($t:tt)*) => {{
        let _ = writeln!($buf, $($t)*);
    }};
}

/// Appends without a newline.
macro_rules! w {
    ($buf:expr, $($t:tt)*) => {{
        let _ = write!($buf, $($t)*);
    }};
}

/// Why `zeusc` failed; each variant maps to a documented exit code.
pub enum Failure {
    /// Bad invocation or I/O problem → exit 1.
    Usage(String),
    /// The Zeus program has diagnostics (or a check found a difference)
    /// → exit 2.
    Diags(String),
    /// A resource limit (`Z9xx`) was hit → exit 3.
    Limit(String),
    /// A fault campaign or ATPG run was interrupted (Ctrl-C, daemon
    /// drain) after reporting partially → exit 130 (128 + SIGINT), the
    /// shell convention.
    Interrupted(String),
}

impl Failure {
    /// The message printed on stderr.
    pub fn message(&self) -> &str {
        match self {
            Failure::Usage(m) | Failure::Diags(m) | Failure::Limit(m) | Failure::Interrupted(m) => {
                m
            }
        }
    }

    /// The documented exit code.
    pub fn code(&self) -> u8 {
        match self {
            Failure::Usage(_) => 1,
            Failure::Diags(_) => 2,
            Failure::Limit(_) => 3,
            Failure::Interrupted(_) => 130,
        }
    }
}

impl From<String> for Failure {
    fn from(m: String) -> Failure {
        Failure::Usage(m)
    }
}

impl From<&str> for Failure {
    fn from(m: &str) -> Failure {
        Failure::Usage(m.to_string())
    }
}

/// The text store a hosting daemon may provide. `zeusc` files the whole
/// answer of a `sim`, `fault` or `atpg` command line (a
/// [`proto::Response::Ok`] line) under the command's name as `kind`.
/// Both methods are best-effort: a `get` miss or a dropped `put` only
/// costs time, never correctness, so implementations are free to shed
/// entries (or whole writes) under I/O pressure.
pub trait Cache {
    /// The text previously stored under `kind` and `key`.
    fn get_text(&self, kind: &str, key: u64) -> Option<String>;
    /// Stores text under `kind` and `key`, replacing any entry there.
    fn put_text(&self, kind: &str, key: u64, text: &str);
}

/// One driver invocation's environment and captured output: the only
/// way a command reads a file, writes one, meets the server deadline or
/// reuses a stored answer.
#[derive(Default)]
pub struct Session<'a> {
    /// Captured stdout bytes.
    pub out: String,
    /// Captured stderr bytes.
    pub err: String,
    /// When set (daemon mode), input files are read from this map instead
    /// of the filesystem (`@name` examples still work), and emitted files
    /// are captured into [`Session::emitted`] instead of written. Reading
    /// a path absent from the map is a usage error rather than a
    /// filesystem access.
    pub sources: Option<&'a HashMap<String, String>>,
    /// The stop flag `Session::limits` attaches to a fault campaign's
    /// or ATPG run's limits; when it goes high the run drains, flushes
    /// checkpoints and reports partially.
    pub cancel: Option<&'static AtomicBool>,
    /// Server-enforced wall-clock deadline. The limits every engine runs
    /// under are tightened to it, and a run that finishes past it
    /// answers `Z905` (exit 3) instead of its output, unstored.
    pub deadline: Option<Instant>,
    /// Content-addressed cache hooks (daemon mode).
    pub cache: Option<&'a dyn Cache>,
    /// When set, fault campaigns without an explicit `--checkpoint` are
    /// journaled here under their campaign digest (and the journal is
    /// removed on completion) so a drained daemon can resume them.
    pub journal_dir: Option<PathBuf>,
    /// Files the run emitted in daemon mode, as `(path, content)`, for
    /// the client to write.
    pub emitted: Vec<(String, String)>,
    /// How many stored answers the run replayed (0 or 1). The daemon
    /// reports `cached: true` when nonzero.
    pub cache_hits: usize,
}

impl<'a> Session<'a> {
    /// A plain local session (the binary's).
    pub fn local() -> Session<'a> {
        Session::default()
    }

    /// Reads one input file: from the inlined sources in daemon mode,
    /// else from the filesystem.
    fn read(&self, path: &str) -> Result<String, Failure> {
        match self.sources {
            Some(map) => map.get(path).cloned().ok_or_else(|| {
                Failure::Usage(format!("cannot read {path}: not inlined in the request"))
            }),
            None => std::fs::read_to_string(path)
                .map_err(|e| Failure::Usage(format!("cannot read {path}: {e}"))),
        }
    }

    /// Writes one output file, creating its parent directories, or
    /// captures it for the client in daemon mode. Every file `zeusc`
    /// emits goes through here, and so does every file the `--remote`
    /// client receives.
    ///
    /// # Errors
    ///
    /// A usage failure (exit 1) naming the path that cannot be written.
    pub fn write_file(&mut self, path: &str, content: &str) -> Result<(), Failure> {
        if self.sources.is_some() {
            self.emitted.push((path.to_string(), content.to_string()));
            return Ok(());
        }
        let parent = std::path::Path::new(path).parent();
        parent
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, content))
            .map_err(|e| Failure::Usage(format!("cannot write {path}: {e}")))
    }

    /// The user's limit flags with the deadline tightened to the time
    /// left before the server deadline: the one site where the server
    /// deadline and the stop flag enter a command's budget. A fault
    /// campaign or ATPG run (`run`) takes `--campaign-timeout` too, the
    /// smaller deadline winning, and [`Session::cancel`]; the other
    /// phases (elaboration, optimization, a simulation) take `--timeout`
    /// alone.
    fn limits(&self, p: &Parsed, run: bool) -> Result<Limits, Failure> {
        let mut limits = p.limits()?;
        let run_ms = p.u64_value("--campaign-timeout")?.filter(|_| run);
        let left = self
            .deadline
            .map(|at| at.saturating_duration_since(Instant::now()));
        let bounds = [limits.deadline, run_ms.map(Duration::from_millis), left];
        limits.deadline = bounds.into_iter().flatten().min();
        limits.cancel = self.cancel.filter(|_| run);
        Ok(limits)
    }
}

/// Runs one `zeusc` command line against `sess`, capturing output.
/// Returns the exit code (0 on success); the failure message, if any,
/// is appended to `sess.err` exactly as the binary would print it.
pub fn run_to_completion(args: &[String], sess: &mut Session) -> u8 {
    match run(args, sess) {
        Ok(()) => 0,
        Err(f) => {
            wln!(sess.err, "{}", f.message());
            f.code()
        }
    }
}

/// Convenience: run locally with a fresh session, returning
/// `(exit code, stdout, stderr)`.
pub fn run_captured(args: &[String]) -> (u8, String, String) {
    let mut sess = Session::local();
    let code = run_to_completion(args, &mut sess);
    (code, sess.out, sess.err)
}

/// Classifies rendered diagnostics: resource-limit errors exit 3, all
/// other diagnostics exit 2.
fn diags_failure(e: &zeus::Diagnostics, rendered: String) -> Failure {
    if e.has_resource_limit() {
        Failure::Limit(rendered)
    } else {
        Failure::Diags(rendered)
    }
}

/// Same classification for a single diagnostic (simulator errors).
fn diag_failure(e: &zeus::Diagnostic) -> Failure {
    if e.is_resource_limit() {
        Failure::Limit(e.to_string())
    } else {
        Failure::Diags(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------

/// The resource-limit flags, accepted by every compiling command.
const LIMIT_FLAGS: [(&str, bool); 4] = [
    ("--max-instances", true),
    ("--max-nets", true),
    ("--fuel", true),
    ("--timeout", true),
];

/// Per-command flag table: `(name, takes a value)`. Flags may appear in
/// any position after the subcommand; anything not in the table is a
/// usage error.
fn known_flags(cmd: &str) -> Vec<(&'static str, bool)> {
    let mut flags: Vec<(&'static str, bool)> = Vec::new();
    if !matches!(cmd, "examples" | "help") {
        flags.extend(LIMIT_FLAGS);
    }
    match cmd {
        "elab" | "layout" | "svg" | "graph" | "synth" => flags.push(("--top", true)),
        "sim" => flags.extend([
            ("--top", true),
            ("--cycles", true),
            ("--seed", true),
            ("--set", true),
            ("--opt", false),
        ]),
        "fault" => flags.extend([
            ("--top", true),
            ("--vectors", true),
            ("--seed", true),
            ("--engine", true),
            ("--bridges", false),
            ("--transients", true),
            ("--json", false),
            ("--jobs", true),
            ("--checkpoint", true),
            ("--resume", false),
            ("--campaign-timeout", true),
            ("--vectors-file", true),
            ("--opt", false),
        ]),
        "atpg" => flags.extend([
            ("--top", true),
            ("--seed", true),
            ("--coverage-target", true),
            ("--max-vectors", true),
            ("--backtrack-limit", true),
            ("--emit-vectors", true),
            ("--json", false),
            ("--bridges", false),
            ("--transients", true),
            ("--opt", false),
            ("--sat", false),
            ("--max-frames", true),
            ("--sat-conflicts", true),
            ("--emit-cnf", true),
            ("--campaign-timeout", true),
        ]),
        "opt" => flags.extend([
            ("--top", true),
            ("--report", false),
            ("--json", false),
            ("--seed", true),
            ("--emit", true),
        ]),
        "import" => flags.extend([("--format", true), ("--validate-only", false)]),
        "export" => flags.extend([("--top", true), ("--format", true), ("--out", true)]),
        "fuzz" => flags.extend([
            ("--seed", true),
            ("--budget", true),
            ("--jobs", true),
            ("--size", true),
            ("--cycles", true),
            ("--vectors", true),
            ("--corpus", true),
            ("--replay", true),
            ("--chaos", true),
            ("--shrink-evals", true),
        ]),
        _ => {}
    }
    flags
}

/// One-line synopsis per command, shown by `help` and on usage errors.
fn synopsis(cmd: &str) -> &'static str {
    match cmd {
        "check" => "zeusc check <file.zeus> [limit flags]",
        "print" => "zeusc print <file.zeus> [limit flags]",
        "elab" => "zeusc elab <file.zeus> <top> [type args...] [limit flags]",
        "sim" => {
            "zeusc sim <file.zeus> <top> [type args...] [--cycles N] [--seed S] \
             [--set port=value ...] [--opt] [limit flags]"
        }
        "layout" => "zeusc layout <file.zeus> <top> [type args...] [limit flags]",
        "svg" => "zeusc svg <file.zeus> <top> [type args...] [limit flags]",
        "graph" => "zeusc graph <file.zeus> <top> [type args...] [limit flags]",
        "synth" => "zeusc synth <file.zeus> <top> [type args...] [limit flags]",
        "equiv" => "zeusc equiv <file.zeus> <topA> [args] --vs <topB> [args] [limit flags]",
        "fault" => {
            "zeusc fault <file.zeus> <top> [type args...] [--vectors N] [--seed S] \
             [--engine graph|switch] [--bridges] [--transients C] [--json] \
             [--jobs N] [--checkpoint FILE] [--resume] \
             [--campaign-timeout MS] [--vectors-file FILE] [--opt] [limit flags]"
        }
        "atpg" => {
            "zeusc atpg <file.zeus> <top> [type args...] [--seed S] \
             [--coverage-target PCT] [--max-vectors N] [--backtrack-limit N] \
             [--emit-vectors FILE] [--json] [--bridges] [--transients C] \
             [--opt] [--sat] [--max-frames K] [--sat-conflicts N] \
             [--emit-cnf DIR] [--campaign-timeout MS] [limit flags]"
        }
        "opt" => {
            "zeusc opt <file.zeus> <top> [type args...] [--report] [--json] \
             [--seed S] [--emit FILE] [limit flags]"
        }
        "fuzz" => {
            "zeusc fuzz [--seed S] [--budget N] [--jobs N] [--size CLASS] \
             [--cycles N] [--vectors N] [--corpus DIR] [--replay FILE ...] \
             [--chaos ORACLE] [--shrink-evals N] [limit flags]"
        }
        "import" => {
            "zeusc import <file.znl|file.json> [--format text|yosys-json] \
             [--validate-only] [limit flags]"
        }
        "export" => {
            "zeusc export <file.zeus|file.znl> [<top>] [type args...] \
             [--format text|yosys-json] [--out FILE] [limit flags]"
        }
        "examples" => "zeusc examples",
        "help" => "zeusc help [command]",
        _ => "",
    }
}

/// Longer per-command help for `zeusc help <cmd>` / `zeusc <cmd> --help`.
fn detail(cmd: &str) -> &'static str {
    match cmd {
        "check" => "Parses the program and runs the static checks of paper §6.",
        "print" => "Parses the program and pretty-prints it in canonical form.",
        "elab" => "Elaborates <top> and prints netlist statistics and ports.",
        "sim" => {
            "Simulates <top> for --cycles clock cycles (default 8) and prints the\n\
             final port values. --set forces an IN port each cycle; --seed seeds\n\
             the RANDOM source (default 0x2E051983).\n\
             --opt runs the equivalence-gated optimizer first and simulates\n\
             the optimized netlist (gate/depth deltas echoed on stderr)."
        }
        "layout" => "Computes the §7 floorplan and draws it as ASCII art.",
        "svg" => "Computes the §7 floorplan and emits it as SVG on stdout.",
        "graph" => "Emits the elaborated semantics graph as Graphviz dot.",
        "synth" => "Synthesizes to the CMOS switch network and prints its size.",
        "equiv" => {
            "Elaborates both tops and checks exhaustive input equivalence:\n\
             every boolean input vector, 64 per step on the packed simulator.\n\
             Designs with registers or RANDOM nodes are refused, and so are\n\
             more than 22 input bits (Z909, exit 3).\n\
             Exit 0 when equivalent, 2 with a counterexample when not."
        }
        "fault" => {
            "Enumerates stuck-at (--bridges, --transients add more) faults,\n\
             runs a differential campaign against the fault-free design, and\n\
             prints a coverage report (--json for machine-readable output).\n\
             The graph engine simulates 64 faults per pass with the\n\
             bit-parallel engine; the switch engine runs them one at a time.\n\
             --jobs N shards the fault words over N threads on either engine\n\
             (default: one per core); the report is byte-identical for any N.\n\
             --checkpoint FILE journals completed work after every 64-fault\n\
             word; --resume skips the journaled words (the final report is\n\
             byte-identical to an uninterrupted run, and the seed is\n\
             recovered from the checkpoint when --seed is omitted).\n\
             --campaign-timeout MS bounds the campaign, --timeout MS\n\
             elaboration and then the campaign: the deadline stops it,\n\
             dropping an unfinished word (partial report, exit 3), and\n\
             never changes an outcome.\n\
             Ctrl-C drains in-flight words, flushes the checkpoint and\n\
             reports partially (exit 130); a second Ctrl-C aborts.\n\
             --vectors-file FILE replays an explicit vector set written by\n\
             `zeusc atpg --emit-vectors` instead of a random stream; the\n\
             seed is recovered from the file when --seed is omitted, and\n\
             the file's content is folded into the checkpoint digest.\n\
             --opt runs the equivalence-gated optimizer first and campaigns\n\
             against the optimized netlist (a smaller collapsed fault\n\
             universe; checkpoints are incompatible with unoptimized runs\n\
             by digest)."
        }
        "atpg" => {
            "Generates a compact deterministic test-vector set for the stuck-at\n\
             fault universe (--bridges/--transients extend it): a packed random\n\
             harvest, then a PODEM structural search for the faults random\n\
             vectors missed (proving untestable faults redundant), then\n\
             reverse-order compaction. The emitted set is re-graded by a full\n\
             fault campaign; the reported coverage is exactly what `zeusc\n\
             fault --vectors-file` reproduces on the emitted file.\n\
             --coverage-target PCT stops generation early and makes the exit\n\
             status enforce the target (exit 2 below it); --max-vectors caps\n\
             the set (default 256); --backtrack-limit bounds each PODEM\n\
             search (default 256); --emit-vectors FILE writes the canonical\n\
             vector file. Same seed + design + limits reproduce the set and\n\
             report byte for byte (default seed 0x2E051983).\n\
             Ctrl-C stops after the current fault: the vectors found so far\n\
             are still graded, emitted with a PARTIAL marker, and the exit\n\
             status is 130.\n\
             --opt runs the equivalence-gated optimizer first and generates\n\
             vectors for the optimized netlist's fault universe.\n\
             --sat enables the in-tree CDCL engine: every PODEM redundancy\n\
             verdict is confirmed UNSAT before it is reported, aborted\n\
             faults get a decoded (simulator-verified) SAT vector, and\n\
             sequential faults the random prefix missed are first tried\n\
             against a one-frame lockstep-equivalence proof (UNSAT promotes\n\
             the fault to redundant outright), then solved over a\n\
             time-frame unroll of 1, 2, 4, ... up to --max-frames (default\n\
             8) frames seeded with the circuit's concrete register state.\n\
             --sat-conflicts N bounds each solve (default 20000, 0 =\n\
             unlimited); --emit-cnf DIR writes one DIMACS file per\n\
             confirmed-redundant claim as an externally checkable audit\n\
             trail; --campaign-timeout MS bounds the run, --timeout MS\n\
             elaboration and then the run: the deadline stops it between\n\
             faults (PARTIAL report, exit 3), never changing a verdict."
        }
        "opt" => {
            "Runs the equivalence-gated netlist optimizer (constant folding\n\
             through the 4-valued domain, chain collapse, common-subexpression\n\
             elimination, buffer elimination, dead sweep) and prints the\n\
             gate-count, levelized-depth, net-count and collapsed-fault-\n\
             universe deltas. Every changed netlist is verified against the\n\
             original before anything is reported — exhaustively on small\n\
             input cones, by packed-random lockstep elsewhere — and the\n\
             command fails (exit 2) rather than emit an unverified result.\n\
             --report adds the per-pass rewrite counts; --json emits the\n\
             whole report machine-readably; --seed S seeds the lockstep\n\
             verifier (default 0x5EED2E05); --emit FILE writes the optimized\n\
             design as `zeus netlist v1` text, which `zeusc import`, `sim`,\n\
             `fault` and `atpg` read, distinguishable from the original by\n\
             digest."
        }
        "fuzz" => {
            "Differential fuzzing: generates --budget seeded well-typed programs\n\
             (default 100) and cross-checks the engines against each other —\n\
             scalar vs packed simulation lane-for-lane, graph vs switch-level\n\
             on the combinational subset, fault-campaign resume-from-every-\n\
             prefix vs fresh run, ATPG replay-equality, optimized-vs-\n\
             unoptimized netlist lockstep, netlist-interchange round-\n\
             trip/mutation robustness, and SAT-vs-exhaustive fault\n\
             detectability on small combinational designs — with every\n\
             panic caught and classified. Failures are deduplicated by\n\
             signature\n\
             (oracle + Z-code + divergence site), shrunk by delta debugging,\n\
             and written to --corpus (default fuzz-corpus/) as standalone\n\
             .zeus reproducers whose comment header replays the exact check;\n\
             reproducer paths are printed on stdout. Exit 0 on a clean\n\
             budget, 2 when failures were found.\n\
             Same --seed and --budget reproduce findings, reproducers and\n\
             report byte for byte; --jobs only changes wall-clock time\n\
             (default seed 0x2E051983).\n\
             --replay FILE re-runs a reproducer: exit 0 when the failure no\n\
             longer reproduces, 2 when it still does (repeatable).\n\
             --chaos ORACLE plants an artificial divergence in one oracle\n\
             (scalar-vs-packed, graph-vs-switch, resume-prefix, atpg-replay,\n\
             opt, interchange, sat) to prove the plumbing detects, shrinks\n\
             and persists it.\n\
             --size (0..=2, default 2) bounds program complexity; --cycles,\n\
             --vectors and --shrink-evals tune per-case effort."
        }
        "import" => {
            "Imports an untrusted netlist — `zeus netlist v1` text or Yosys-JSON\n\
             (the $and/$or/$xor/$not/$mux/$dff cell subset), format sniffed\n\
             unless --format pins it — runs the full structural validator\n\
             (driver uniqueness, port widths, REG-broken acyclicity, budget\n\
             limits), and prints the design's statistics and post-validation\n\
             digest. --validate-only prints only the digest line.\n\
             Every rejection is a Z6xx diagnostic: Z601 malformed, Z602\n\
             version skew, Z603 structural, Z604 cycle, Z605 digest\n\
             mismatch, Z606 unsupported operation (exit 2); Z607 over\n\
             budget (exit 3). No input panics the importer.\n\
             Netlist files are accepted directly by sim/fault/atpg/opt/elab\n\
             in place of a .zeus program (the top is read from the file):\n\
             `zeusc sim design.znl`, `zeusc fault design.znl`."
        }
        "export" => {
            "Exports a design in an interchange format: `zeus netlist v1` text\n\
             (--format text, the default — lossless, byte-stable, digest-\n\
             embedded) or Yosys-JSON (--format yosys-json — gate-level\n\
             $and/$or/$xor/$not/$mux/$dff cells; Zeus guarded contributions\n\
             become $mux cells with a constant \"z\" else-input, registers\n\
             become $dff with a synthesized $zeus$clk input when the design\n\
             never references CLK; RANDOM designs cannot be exported to\n\
             Yosys-JSON and fail with Z606).\n\
             The input is a .zeus program (elaborated first; <top> required)\n\
             or an existing netlist file (format conversion; <top> optional).\n\
             Output goes to stdout, or to --out FILE."
        }
        "examples" => "Lists the bundled example programs (usable as @name).",
        "help" => "Prints the command list, or one command's flags.",
        _ => "",
    }
}

const COMMANDS: [&str; 17] = [
    "check", "print", "elab", "sim", "layout", "svg", "graph", "synth", "equiv", "opt", "fault",
    "atpg", "import", "export", "fuzz", "examples", "help",
];

fn general_usage() -> String {
    let mut s = String::from("usage: zeusc <command> [...]\n\ncommands:\n");
    for cmd in COMMANDS {
        s.push_str(&format!("  {}\n", synopsis(cmd)));
    }
    s.push_str(
        "\nlimit flags (any compiling command): --max-instances N, --max-nets N,\n\
         --fuel N, --timeout MS\n\
         global flags: --remote SOCKET routes sim/fault/atpg through a zeusd\n\
         daemon; --remote-or-local SOCKET falls back to local execution with\n\
         a warning when the daemon is unreachable\n\
         file arguments of the form @name load a bundled example\n\
         run `zeusc help <command>` for details",
    );
    s
}

fn command_usage(cmd: &str) -> String {
    format!("usage: {}\n\n{}", synopsis(cmd), detail(cmd))
}

/// A parsed command line: flag values by name plus bare positionals in
/// order. `--flag=value` and `--flag value` are equivalent; repeated
/// value flags accumulate.
struct Parsed {
    cmd: String,
    flags: HashMap<&'static str, Vec<String>>,
    positionals: Vec<String>,
    /// The text of every file in [`input_files`], keyed by the path as
    /// written; [`run`] reads them before any work.
    inputs: Vec<(String, String)>,
}

impl Parsed {
    /// The text a file argument names: a bundled example for `@name`,
    /// else the input file [`run`] read.
    fn text(&self, path: &str) -> Result<&str, Failure> {
        if let Some(name) = path.strip_prefix('@') {
            return examples::ALL
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, src, _)| *src)
                .ok_or_else(|| {
                    Failure::Usage(format!(
                        "no bundled example '{name}' (try `zeusc examples`)"
                    ))
                });
        }
        self.inputs
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, text)| text.as_str())
            .ok_or_else(|| Failure::Usage(format!("cannot read {path}: not an input file")))
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn str_value(&self, flag: &str) -> Option<&str> {
        self.flags
            .get(flag)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    fn u64_value(&self, flag: &str) -> Result<Option<u64>, Failure> {
        match self.str_value(flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| Failure::Usage(format!("bad value '{v}' for {flag}"))),
        }
    }

    /// Like [`Parsed::u64_value`] but rejects zero: flags where 0 would
    /// silently mean "do nothing" (or underflow a later computation)
    /// are usage errors, not clamps.
    fn u64_nonzero(&self, flag: &str) -> Result<Option<u64>, Failure> {
        match self.u64_value(flag)? {
            Some(0) => Err(Failure::Usage(format!("{flag} must be at least 1"))),
            other => Ok(other),
        }
    }

    /// A count flag that must fit a `u32`: a value below `min` (0 or 1)
    /// or past `u32::MAX` is a usage error, never a silent clamp or wrap.
    fn u32_count(&self, flag: &str, min: u32) -> Result<Option<u32>, Failure> {
        let Some(n) = self.u64_value(flag)? else {
            return Ok(None);
        };
        if n < u64::from(min) {
            return Err(Failure::Usage(format!("{flag} must be at least {min}")));
        }
        u32::try_from(n)
            .map(Some)
            .map_err(|_| Failure::Usage(format!("{flag} {n} is too large (max {})", u32::MAX)))
    }

    fn values(&self, flag: &str) -> &[String] {
        self.flags.get(flag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `--jobs`, or one thread per core.
    fn jobs(&self) -> Result<usize, Failure> {
        Ok(match self.u64_nonzero("--jobs")? {
            Some(n) => n as usize,
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }

    /// The resource budget from the limit flags.
    fn limits(&self) -> Result<Limits, Failure> {
        let mut limits = Limits::default();
        if let Some(n) = self.u64_nonzero("--max-instances")? {
            limits.max_instances = n as usize;
        }
        if let Some(n) = self.u64_nonzero("--max-nets")? {
            limits.max_nets = n as usize;
        }
        if let Some(n) = self.u64_value("--fuel")? {
            limits.fuel = Some(n);
        }
        if let Some(ms) = self.u64_value("--timeout")? {
            limits.deadline = Some(Duration::from_millis(ms));
        }
        Ok(limits)
    }
}

/// Splits `args` (everything after the subcommand) into flags and
/// positionals, in any order. `--vs` is kept as a positional marker for
/// `equiv`; an unknown `--flag` is a usage error.
fn parse_command_line(cmd: &str, args: &[String]) -> Result<Parsed, Failure> {
    let known = known_flags(cmd);
    let mut flags: HashMap<&'static str, Vec<String>> = HashMap::new();
    let mut positionals = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if cmd == "equiv" && arg == "--vs" {
            positionals.push(arg.clone());
            continue;
        }
        if let Some(body) = arg.strip_prefix("--") {
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (format!("--{n}"), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let Some(&(canonical, takes_value)) = known.iter().find(|(n, _)| *n == name) else {
                return Err(Failure::Usage(format!(
                    "unknown flag '{name}' for `zeusc {cmd}`\n\n{}",
                    command_usage(cmd)
                )));
            };
            let value = match (takes_value, inline) {
                (true, Some(v)) => v,
                (true, None) => iter
                    .next()
                    .cloned()
                    .ok_or_else(|| Failure::Usage(format!("{canonical} needs a value")))?,
                (false, Some(_)) => {
                    return Err(Failure::Usage(format!("{canonical} does not take a value")))
                }
                (false, None) => String::new(),
            };
            flags.entry(canonical).or_default().push(value);
        } else {
            positionals.push(arg.clone());
        }
    }
    Ok(Parsed {
        cmd: cmd.to_string(),
        flags,
        positionals,
        inputs: Vec::new(),
    })
}

/// Numeric type parameters following the top component name.
fn top_args(rest: &[String]) -> Result<Vec<i64>, Failure> {
    rest.iter()
        .map(|a| {
            a.parse::<i64>()
                .map_err(|_| Failure::Usage(format!("'{a}' is not a numeric type parameter")))
        })
        .collect()
}

/// Resolves `<file> [<top>] [type args...]` from the positionals, with
/// the top component optionally supplied as `--top` instead.
fn file_top_args(p: &Parsed) -> Result<(&str, &str, Vec<i64>), Failure> {
    let mut pos = p.positionals.iter();
    let file = pos
        .next()
        .ok_or_else(|| Failure::Usage(command_usage(&p.cmd)))?;
    let (top, rest_at) = match p.str_value("--top") {
        Some(t) => (t, 1),
        None => (
            pos.next().map(String::as_str).ok_or_else(|| {
                Failure::Usage(format!(
                    "missing top component type\n\n{}",
                    command_usage(&p.cmd)
                ))
            })?,
            2,
        ),
    };
    let targs = top_args(&p.positionals[rest_at..])?;
    Ok((file, top, targs))
}

/// The files a command line reads, in order: its program or netlist
/// file (unless it names a bundled `@example`), `--vectors-file`, and
/// each `--replay`. [`run`] reads them all before any work, and the
/// `--remote` client reads the same list to inline them in its request.
fn input_files(p: &Parsed) -> Vec<&str> {
    let file = match p.cmd.as_str() {
        "fuzz" | "examples" => None,
        _ => p
            .positionals
            .first()
            .filter(|f| !f.starts_with('@') && *f != "--vs"),
    };
    file.map(String::as_str)
        .into_iter()
        .chain(p.str_value("--vectors-file"))
        .chain(p.values("--replay").iter().map(String::as_str))
        .collect()
}

/// Reads every file in [`input_files`] through the session, each once.
fn read_inputs(p: &Parsed, sess: &Session) -> Result<Vec<(String, String)>, Failure> {
    let mut inputs: Vec<(String, String)> = Vec::new();
    for path in input_files(p) {
        if !inputs.iter().any(|(seen, _)| seen == path) {
            inputs.push((path.to_string(), sess.read(path)?));
        }
    }
    Ok(inputs)
}

/// The input files of `args` read from the local filesystem, as [`run`]
/// reads them before any work: what the `--remote` client inlines in its
/// request. A command line `run` answers without reading (help, an
/// unknown command or flag) has none.
///
/// # Errors
///
/// The failure a local run reports for an unreadable input file.
pub(crate) fn local_inputs(args: &[String]) -> Result<Vec<(String, String)>, Failure> {
    match command_line(args) {
        Ok(Line::Command(p)) => read_inputs(&p, &Session::local()),
        _ => Ok(Vec::new()),
    }
}

fn parse(src: &str) -> Result<Zeus, Failure> {
    Zeus::parse(src).map_err(|e| {
        let map = zeus::SourceMap::new(src);
        let rendered = e.render(&map);
        diags_failure(&e, rendered)
    })
}

// ---------------------------------------------------------------------
// Whole-answer reuse
// ---------------------------------------------------------------------

/// Key for whole answers: the full command identity (program text, every
/// input file's text, every flag with its values in order, positionals).
/// The flags determine the seed, so two invocations with equal keys are
/// byte-identical runs.
fn answer_key(p: &Parsed, src: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("artifact-v3");
    h.write_str(&p.cmd);
    h.write_str(src);
    h.write_usize(p.inputs.len());
    for (path, text) in &p.inputs {
        h.write_str(path);
        h.write_str(text);
    }
    let mut names: Vec<&&str> = p.flags.keys().collect();
    names.sort();
    for name in names {
        h.write_str(name);
        let vals = &p.flags[*name];
        h.write_usize(vals.len());
        for v in vals {
            h.write_str(v);
        }
    }
    h.write_usize(p.positionals.len());
    for pos in &p.positionals {
        h.write_str(pos);
    }
    h.finish()
}

/// The cache and key under which a command line's whole answer is
/// stored, or `None` when the session has no cache, the command is not
/// `sim`, `fault` or `atpg`, or its bytes are not a pure function of the
/// command line and its inputs: a `fault` run needs `--seed` or
/// `--vectors-file` (else its seed is time-based) and no `--checkpoint`
/// (local files).
fn answer_slot<'a>(p: &Parsed, sess: &Session<'a>) -> Option<(&'a dyn Cache, u64)> {
    let cache = sess.cache?;
    let pure = match p.cmd.as_str() {
        "sim" | "atpg" => true,
        "fault" => !p.has("--checkpoint") && (p.has("--seed") || p.has("--vectors-file")),
        _ => false,
    };
    let src = p.text(p.positionals.first()?).ok()?;
    pure.then(|| (cache, answer_key(p, src)))
}

// ---------------------------------------------------------------------
// Command dispatch
// ---------------------------------------------------------------------

/// A command line as [`run`] first sees it.
enum Line {
    /// Help text, printed with exit 0 before any work.
    Help(String),
    /// A command to run.
    Command(Parsed),
}

/// Parses a command line, or answers it with help; an unknown command or
/// flag fails here, before any file is read.
fn command_line(args: &[String]) -> Result<Line, Failure> {
    let cmd = args.first().ok_or_else(general_usage)?;

    // `--help`/`-h` anywhere prints usage and exits 0; `zeusc help
    // [cmd]` is the spelled-out form.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Line::Help(match cmd.as_str() {
            c if COMMANDS.contains(&c) && c != "help" => command_usage(c),
            _ => general_usage(),
        }));
    }
    if cmd == "help" {
        return match args.get(1).map(String::as_str) {
            None => Ok(Line::Help(general_usage())),
            Some(c) if COMMANDS.contains(&c) => Ok(Line::Help(command_usage(c))),
            Some(other) => Err(Failure::Usage(format!(
                "unknown command '{other}'\n\n{}",
                general_usage()
            ))),
        };
    }
    if !COMMANDS.contains(&cmd.as_str()) {
        return Err(Failure::Usage(format!(
            "unknown command '{cmd}'\n\n{}",
            general_usage()
        )));
    }
    parse_command_line(cmd, &args[1..]).map(Line::Command)
}

/// Runs one command line against the session: reads its inputs, replays
/// a stored answer or runs the command, answers `Z905` in place of a
/// command that ended past the server deadline (successful or not), and
/// stores a successful answer.
///
/// # Errors
///
/// The [`Failure`] carrying the message and exit code the binary
/// prints; see the crate docs for the exit-code contract.
pub fn run(args: &[String], sess: &mut Session) -> Result<(), Failure> {
    let mut p = match command_line(args)? {
        Line::Help(text) => {
            wln!(sess.out, "{text}");
            return Ok(());
        }
        Line::Command(p) => p,
    };
    p.inputs = read_inputs(&p, sess)?;

    let slot = answer_slot(&p, sess);
    let stored = slot
        .and_then(|(cache, key)| cache.get_text(&p.cmd, key))
        .and_then(|text| proto::Response::decode(&text).ok());
    if let Some(proto::Response::Ok {
        code: 0,
        out,
        err,
        files,
        ..
    }) = stored
    {
        sess.cache_hits += 1;
        sess.out.push_str(&out);
        sess.err.push_str(&err);
        for (path, content) in files {
            sess.write_file(&path, &content)?;
        }
        return Ok(());
    }

    let marks = (sess.out.len(), sess.err.len(), sess.emitted.len());
    let ran = dispatch(&p, sess);
    if sess.deadline.is_some_and(|at| Instant::now() >= at) {
        // The server's clock may have cut a budget short or stopped a
        // run, so these bytes need not be the command's answer: report
        // the limit instead.
        sess.out.truncate(marks.0);
        sess.err.truncate(marks.1);
        sess.emitted.truncate(marks.2);
        return Err(Failure::Limit(
            zeus::Diagnostic::error(
                zeus::Span::dummy(),
                "request deadline exceeded before the command finished; its output is \
                 withheld and not stored",
            )
            .with_code(zeus::codes::LIMIT_DEADLINE)
            .to_string(),
        ));
    }
    ran?;
    if let Some((cache, key)) = slot {
        // Everything the command wrote from its first byte: warnings,
        // `--opt` and seed lines, the report, emitted files.
        let answer = proto::Response::Ok {
            code: 0,
            out: sess.out[marks.0..].to_string(),
            err: sess.err[marks.1..].to_string(),
            files: sess.emitted[marks.2..].to_vec(),
            cached: false,
        };
        cache.put_text(&p.cmd, key, &answer.encode());
    }
    Ok(())
}

/// Runs the command itself.
fn dispatch(p: &Parsed, sess: &mut Session) -> Result<(), Failure> {
    match p.cmd.as_str() {
        "examples" => {
            for (name, src, top) in examples::ALL {
                wln!(sess.out, "@{name:<14} top={top:<16} ({} bytes)", src.len());
            }
            Ok(())
        }
        "check" | "print" => {
            let file = p
                .positionals
                .first()
                .ok_or_else(|| Failure::Usage(command_usage(&p.cmd)))?;
            let z = parse(p.text(file)?)?;
            if p.cmd == "check" {
                wln!(sess.out, "ok");
            } else {
                w!(sess.out, "{}", z.to_canonical_text());
            }
            Ok(())
        }
        "equiv" => cmd_equiv(p, sess),
        "fuzz" => cmd_fuzz(p, sess),
        "import" => cmd_import(p, sess),
        "export" => cmd_export(p, sess),
        _ => cmd_elaborating(p, sess),
    }
}

/// Exit-code classification for import diagnostics: over-budget (`Z607`
/// or any `Z9xx`) exits 3 like other limit failures, every other Z-coded
/// rejection exits 2.
fn import_failure(e: &zeus::Diagnostic) -> Failure {
    if e.is_resource_limit() || e.code == Some(zeus::codes::NETLIST_LIMIT) {
        Failure::Limit(e.to_string())
    } else {
        Failure::Diags(e.to_string())
    }
}

/// The design a command works on, and the limits its engines run under.
/// A netlist interchange payload in place of a .zeus program is imported
/// through the structural validator instead of elaborated: its top
/// component is read from the file, and a positional or `--top`, when
/// given, is checked against it. A program is parsed and elaborated, and
/// its warnings printed.
fn load_design(p: &Parsed, sess: &mut Session) -> Result<(zeus::Design, Limits), Failure> {
    let file = p
        .positionals
        .first()
        .ok_or_else(|| Failure::Usage(command_usage(&p.cmd)))?;
    let src = p.text(file)?;
    if zeus::detect_format(src) != zeus::NetlistFormat::Unknown {
        if p.positionals.len() > 2 {
            return Err(Failure::Usage(
                "netlist inputs carry their elaboration; type parameters don't apply".to_string(),
            ));
        }
        let limits = sess.limits(p, false)?;
        let design = zeus::import_design(src, &limits).map_err(|e| import_failure(&e))?;
        let claimed = p
            .str_value("--top")
            .or_else(|| p.positionals.get(1).map(String::as_str))
            .filter(|top| !top.is_empty());
        if let Some(top) = claimed.filter(|top| *top != design.top_type) {
            return Err(Failure::Usage(format!(
                "netlist file's top is '{}', not '{top}'",
                design.top_type
            )));
        }
        return Ok((design, limits));
    }
    let (_, top, targs) = file_top_args(p)?;
    let limits = sess.limits(p, false)?;
    let design = parse(src)?
        .elaborate_limited(top, &targs, &limits)
        .map_err(|e| diags_failure(&e, e.render(&zeus::SourceMap::new(src))))?;
    for w in &design.warnings {
        wln!(sess.err, "{}", w.render(&zeus::SourceMap::new(src)));
    }
    Ok((design, limits))
}

/// The statistics `elab` and `import` print; `import` adds the validated
/// digest after the top, `elab` the instance count after the registers.
fn design_stats(
    out: &mut String,
    design: &zeus::Design,
    digest: Option<&str>,
    instances: Option<usize>,
) {
    wln!(out, "top       : {}", design.top_type);
    if let Some(digest) = digest {
        wln!(out, "digest    : {digest}");
    }
    wln!(out, "nets      : {}", design.netlist.net_count());
    wln!(out, "nodes     : {}", design.netlist.node_count());
    wln!(out, "registers : {}", design.netlist.registers().count());
    if let Some(n) = instances {
        wln!(out, "instances : {n}");
    }
    for port in &design.ports {
        wln!(
            out,
            "port      : {} {} [{} bit]",
            port.mode,
            port.name,
            port.width()
        );
    }
}

/// Parses `--format` into a sniffable format choice.
fn format_flag(p: &Parsed) -> Result<Option<zeus::NetlistFormat>, Failure> {
    match p.str_value("--format") {
        None => Ok(None),
        Some("text") => Ok(Some(zeus::NetlistFormat::Text)),
        Some("yosys-json") => Ok(Some(zeus::NetlistFormat::YosysJson)),
        Some(other) => Err(Failure::Usage(format!(
            "unknown --format '{other}' (expected text or yosys-json)"
        ))),
    }
}

fn cmd_import(p: &Parsed, sess: &mut Session) -> Result<(), Failure> {
    let file = p
        .positionals
        .first()
        .ok_or_else(|| Failure::Usage(command_usage("import")))?;
    if p.positionals.len() > 1 {
        return Err(Failure::Usage(format!(
            "`zeusc import` takes one file\n\n{}",
            command_usage("import")
        )));
    }
    let src = p.text(file)?;
    if let Some(want) = format_flag(p)? {
        let got = zeus::detect_format(src);
        if got != want {
            return Err(Failure::Diags(format!(
                "error[Z601]: {file} does not look like the requested format \
                 (sniffed {got:?}, --format wants {want:?})"
            )));
        }
    }
    let design =
        zeus::import_design(src, &sess.limits(p, false)?).map_err(|e| import_failure(&e))?;
    let digest = zeus::validated_digest(&design);
    if p.has("--validate-only") {
        wln!(sess.out, "valid     : {digest}");
        return Ok(());
    }
    design_stats(&mut sess.out, &design, Some(&digest), None);
    Ok(())
}

fn cmd_export(p: &Parsed, sess: &mut Session) -> Result<(), Failure> {
    let format = format_flag(p)?.unwrap_or(zeus::NetlistFormat::Text);
    let (design, _) = load_design(p, sess)?;
    let text = zeus::export_design(&design, format).map_err(|e| import_failure(&e))?;
    match p.str_value("--out") {
        Some(path) => {
            sess.write_file(path, &text)?;
            wln!(
                sess.err,
                "exported  : {} ({} bytes) -> {path}",
                design.top_type,
                text.len()
            );
        }
        None => w!(sess.out, "{text}"),
    }
    Ok(())
}

fn cmd_equiv(p: &Parsed, sess: &mut Session) -> Result<(), Failure> {
    let split = p
        .positionals
        .iter()
        .position(|a| a == "--vs")
        .ok_or("missing --vs separator")?;
    let (left, right) = p.positionals.split_at(split);
    let right = &right[1..];
    let file = left
        .first()
        .ok_or_else(|| Failure::Usage(command_usage("equiv")))?;
    let top_a = left.get(1).ok_or("missing first top")?;
    let args_a = top_args(&left[2..])?;
    let top_b = right.first().ok_or("missing second top")?;
    let args_b = top_args(&right[1..])?;
    let src = p.text(file)?;
    let z = parse(src)?;
    let map = zeus::SourceMap::new(src);
    let mut limits = sess.limits(p, false)?;
    // The historical CLI cap (slightly above the library default).
    limits.max_input_bits = 22;
    let elab = |top: &str, targs: &[i64]| {
        z.elaborate_limited(top, targs, &limits)
            .map_err(|e| diags_failure(&e, e.render(&map)))
    };
    let da = elab(top_a, &args_a)?;
    let db = elab(top_b, &args_b)?;
    match zeus::check_equivalent_with(&da, &db, &limits).map_err(|e| diag_failure(&e))? {
        None => {
            wln!(sess.out, "equivalent (exhaustive)");
            Ok(())
        }
        Some(ce) => Err(Failure::Diags(format!("NOT equivalent: {ce}"))),
    }
}

/// The commands that elaborate a design first: `elab`, `sim`, `layout`,
/// `svg`, `graph`, `synth`, `opt`, `fault`, `atpg`.
fn cmd_elaborating(p: &Parsed, sess: &mut Session) -> Result<(), Failure> {
    let (design, limits) = load_design(p, sess)?;
    // `--opt` (sim/fault/atpg) threads the elaborated design through
    // the equivalence-gated optimizer before the engine sees it. The
    // optimized design has a distinct digest, so fault checkpoints and
    // campaign journals never splice across the optimization boundary.
    let design = if p.has("--opt") {
        optimized_design(sess, design, &limits)?
    } else {
        design
    };
    match p.cmd.as_str() {
        "elab" => {
            let instances = design.instances.size();
            design_stats(&mut sess.out, &design, None, Some(instances));
            Ok(())
        }
        "sim" => cmd_sim(p, sess, design, &limits),
        "svg" => {
            let plan = zeus::floorplan(&design);
            w!(sess.out, "{}", plan.render_svg(16));
            Ok(())
        }
        "graph" => {
            w!(sess.out, "{}", zeus::to_dot(&design.netlist));
            Ok(())
        }
        "layout" => {
            let plan = zeus::floorplan(&design);
            wln!(
                sess.out,
                "bounding box: {} x {} (area {})",
                plan.width,
                plan.height,
                plan.area()
            );
            wln!(sess.out, "leaf cells  : {}", plan.leaf_count());
            let art = plan.render_ascii();
            if !art.is_empty() {
                wln!(sess.out, "{art}");
            }
            Ok(())
        }
        "opt" => cmd_opt(p, sess, design, &limits),
        "fault" => cmd_fault(p, sess, design),
        "atpg" => cmd_atpg(p, sess, design),
        _ => {
            let sw = zeus::SwitchSim::with_limits(&design, &limits);
            wln!(sess.out, "transistors : {}", sw.transistor_count());
            wln!(sess.out, "nodes       : {}", sw.node_count());
            Ok(())
        }
    }
}

/// Runs the optimizer for a `--opt` engine command, echoing the deltas
/// on stderr so stdout stays the engine's report.
fn optimized_design(
    sess: &mut Session,
    design: zeus::Design,
    limits: &Limits,
) -> Result<zeus::Design, Failure> {
    let cfg = zeus::OptConfig {
        limits: limits.clone(),
        ..zeus::OptConfig::default()
    };
    let out = zeus::optimize(&design, &cfg).map_err(|e| diag_failure(&e))?;
    let r = &out.report;
    if r.skipped_random {
        wln!(
            sess.err,
            "opt       : skipped (design uses RANDOM); netlist unchanged"
        );
    } else {
        wln!(
            sess.err,
            "opt       : gates {} -> {}, depth {} -> {}, verified {}",
            r.before.gates,
            r.after.gates,
            r.before.depth,
            r.after.depth,
            r.verification
        );
    }
    Ok(out.design)
}

/// One `label : before -> after (-pct%)` delta line.
fn delta_line(buf: &mut String, label: &str, before: usize, after: usize) {
    if before == after {
        wln!(buf, "{label:<10}: {before} (unchanged)");
    } else {
        let pct = 100.0 * (after as f64 - before as f64) / before as f64;
        wln!(buf, "{label:<10}: {before} -> {after} ({pct:+.1}%)");
    }
}

fn cmd_opt(
    p: &Parsed,
    sess: &mut Session,
    design: zeus::Design,
    limits: &Limits,
) -> Result<(), Failure> {
    let cfg = zeus::OptConfig {
        seed: match p.u64_value("--seed")? {
            Some(s) => s,
            None => zeus::OptConfig::default().seed,
        },
        limits: limits.clone(),
    };
    // The gate: a non-equivalent (or cyclic) result is a hard error
    // carrying the counterexample — nothing below this line runs on an
    // unverified netlist.
    let out = zeus::optimize(&design, &cfg).map_err(|e| diag_failure(&e))?;
    let r = &out.report;
    let fopts = zeus::FaultListOptions::default();
    let faults_before = zeus::enumerate_faults(&design, &fopts).faults.len();
    let faults_after = zeus::enumerate_faults(&out.design, &fopts).faults.len();
    if p.has("--json") {
        let m = |m: &zeus::Metrics| {
            Json::Obj(vec![
                ("gates".to_string(), Json::Num(m.gates as u64)),
                ("depth".to_string(), Json::Num(m.depth as u64)),
                ("nets".to_string(), Json::Num(m.nets as u64)),
            ])
        };
        let passes = r
            .passes
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("rewrites".to_string(), Json::Num(s.rewrites as u64)),
                ])
            })
            .collect();
        let obj = Json::Obj(vec![
            ("top".to_string(), Json::Str(design.top_type.clone())),
            ("before".to_string(), m(&r.before)),
            ("after".to_string(), m(&r.after)),
            ("faults_before".to_string(), Json::Num(faults_before as u64)),
            ("faults_after".to_string(), Json::Num(faults_after as u64)),
            ("rewrites".to_string(), Json::Num(r.total_rewrites() as u64)),
            ("iterations".to_string(), Json::Num(r.iterations as u64)),
            ("skipped_random".to_string(), Json::Bool(r.skipped_random)),
            (
                "verified".to_string(),
                Json::Str(r.verification.to_string()),
            ),
            ("passes".to_string(), Json::Arr(passes)),
        ]);
        wln!(sess.out, "{}", obj.encode());
    } else {
        wln!(sess.out, "top       : {}", design.top_type);
        delta_line(&mut sess.out, "gates", r.before.gates, r.after.gates);
        delta_line(&mut sess.out, "depth", r.before.depth, r.after.depth);
        delta_line(&mut sess.out, "nets", r.before.nets, r.after.nets);
        delta_line(&mut sess.out, "faults", faults_before, faults_after);
        wln!(
            sess.out,
            "rewrites  : {} in {} iteration(s)",
            r.total_rewrites(),
            r.iterations
        );
        if r.skipped_random {
            wln!(
                sess.out,
                "note      : design uses RANDOM; optimization skipped"
            );
        }
        wln!(sess.out, "verified  : {}", r.verification);
        if p.has("--report") {
            for s in &r.passes {
                wln!(
                    sess.out,
                    "pass      : {:<16} {} rewrites",
                    s.name,
                    s.rewrites
                );
            }
        }
    }
    if let Some(path) = p.str_value("--emit") {
        sess.write_file(path, &zeus::netlist_to_text(&out.design))?;
    }
    Ok(())
}

/// The seed `sim`, `atpg` and `fuzz` use without `--seed`, and every
/// simulator's own.
const DEFAULT_SEED: u64 = 0x2E05_1983;

/// `--seed`, or [`DEFAULT_SEED`]: the fixed default keeps runs
/// reproducible, and stderr says which seed was used (satisfying
/// scripted reproduction) without touching stdout.
fn seed_or_default(p: &Parsed, sess: &mut Session) -> Result<u64, Failure> {
    let seed = p.u64_value("--seed")?;
    if seed.is_none() {
        wln!(
            sess.err,
            "seed      : {DEFAULT_SEED} (default; pass --seed to vary)"
        );
    }
    Ok(seed.unwrap_or(DEFAULT_SEED))
}

fn cmd_sim(
    p: &Parsed,
    sess: &mut Session,
    design: zeus::Design,
    limits: &Limits,
) -> Result<(), Failure> {
    let cycles = p.u64_nonzero("--cycles")?.unwrap_or(8);
    let seed = seed_or_default(p, sess)?;
    let forcings: Vec<(String, u64)> = p
        .values("--set")
        .iter()
        .map(|kv| {
            let (port, val) = kv
                .split_once('=')
                .ok_or_else(|| Failure::Usage(format!("bad --set '{kv}', want port=value")))?;
            let val: u64 = val
                .parse()
                .map_err(|_| Failure::Usage(format!("bad value in --set '{kv}'")))?;
            Ok((port.to_string(), val))
        })
        .collect::<Result<_, Failure>>()?;

    let ports = design.ports.clone();
    let mut sim = zeus::Simulator::with_limits(design, limits).map_err(|e| diag_failure(&e))?;
    sim.reseed(seed);
    for (port, val) in &forcings {
        sim.set_port_num(port, *val)
            .map_err(|e| Failure::Usage(e.to_string()))?;
    }
    let mut violations = 0u64;
    for _ in 0..cycles {
        let r = sim.try_step().map_err(|e| diag_failure(&e))?;
        violations += r.conflicts.len() as u64;
    }
    wln!(sess.out, "cycles    : {cycles}");
    wln!(sess.out, "conflicts : {violations}");
    for port in &ports {
        let vals: String = sim.port(&port.name).iter().map(|v| v.to_string()).collect();
        wln!(sess.out, "{:<10}: {vals}", port.name);
    }
    Ok(())
}

fn cmd_fault(p: &Parsed, sess: &mut Session, design: zeus::Design) -> Result<(), Failure> {
    let vectors = p.u32_count("--vectors", 1)?.unwrap_or(64);
    let vector_set = match p.str_value("--vectors-file") {
        None => None,
        Some(path) => {
            if p.has("--vectors") {
                return Err(Failure::Usage(
                    "--vectors-file supplies the vectors; don't also pass --vectors".to_string(),
                ));
            }
            Some(zeus::VectorSet::parse(p.text(path)?).map_err(|e| diag_failure(&e))?)
        }
    };
    let checkpoint = match (p.str_value("--checkpoint"), p.has("--resume")) {
        (None, true) => {
            return Err(Failure::Usage(
                "--resume needs --checkpoint FILE to resume from".to_string(),
            ))
        }
        (None, false) => None,
        (Some(path), resume) => {
            if sess.sources.is_some() {
                return Err(Failure::Usage(
                    "--checkpoint/--resume are local-only; remote campaigns are journaled \
                     server-side and resume automatically"
                        .to_string(),
                ));
            }
            Some(zeus::CheckpointOptions {
                path: path.into(),
                resume,
            })
        }
    };
    let seed = match (p.u64_value("--seed")?, &vector_set) {
        (Some(s), _) => s,
        (None, Some(set)) => {
            // An explicit vector file carries the seed it was generated
            // with in its header; reuse it so a bare `--vectors-file`
            // replay reproduces the ATPG grade exactly.
            wln!(
                sess.err,
                "seed      : {} (recovered from vector file)",
                set.seed
            );
            set.seed
        }
        (None, None) => {
            // When resuming, the original seed lives in the checkpoint
            // header: recover it so `--resume` never needs `--seed`
            // repeated (a resumed campaign with a different seed would
            // be rejected by the digest check anyway).
            let recovered = checkpoint
                .as_ref()
                .filter(|c| c.resume && c.path.exists())
                .and_then(|c| zeus::read_header(&c.path).ok())
                .map(|h| h.seed);
            match recovered {
                Some(s) => {
                    wln!(sess.err, "seed      : {s} (recovered from checkpoint)");
                    s
                }
                None => {
                    let s = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_nanos() as u64)
                        .unwrap_or(0);
                    wln!(sess.err, "seed      : {s} (pass --seed {s} to reproduce)");
                    s
                }
            }
        }
    };
    let engine = match p.str_value("--engine") {
        None | Some("graph") => zeus::Engine::Graph,
        Some("switch") => zeus::Engine::Switch,
        Some(e) => {
            return Err(Failure::Usage(format!(
                "unknown engine '{e}' (expected graph or switch)"
            )))
        }
    };
    // Every campaign runs on the packed runner; --jobs shards either
    // engine.
    let jobs = p.jobs()?;

    let opts = zeus::FaultListOptions {
        bridges: p.has("--bridges"),
        transients: p.u64_value("--transients")?,
    };
    let list = zeus::enumerate_faults(&design, &opts);
    let mut cfg = match vector_set {
        Some(set) => {
            let mut c = zeus::CampaignConfig::replay(engine, set);
            c.seed = seed;
            c
        }
        None => zeus::CampaignConfig::new(engine, vectors, seed),
    };
    cfg.limits = sess.limits(p, true)?;

    // Daemon-side auto-journal: campaigns without a user checkpoint are
    // journaled under their campaign digest so a drained daemon resumes
    // them; a completed campaign deletes its journal (the artifact
    // cache now holds the result).
    let auto_journal = match (&checkpoint, &sess.journal_dir) {
        (None, Some(dir)) => {
            let digest = zeus::campaign_digest(&design, &list, &cfg);
            Some(zeus::CheckpointOptions {
                path: dir.join(format!("{digest:016x}.journal")),
                resume: true,
            })
        }
        _ => None,
    };
    let journal = checkpoint.as_ref().or(auto_journal.as_ref());

    let report = zeus::run_campaign_packed_with(&design, &list, &cfg, jobs, journal)
        .map_err(|e| diag_failure(&e))?;
    if p.has("--json") {
        wln!(sess.out, "{}", report.to_json());
    } else {
        w!(sess.out, "{}", report.to_text());
    }
    match report.partial {
        None => {
            if let Some(j) = &auto_journal {
                let _ = std::fs::remove_file(&j.path);
            }
            Ok(())
        }
        Some(zeus::PartialReason::Interrupted) => Err(Failure::Interrupted(
            "fault campaign interrupted; partial results reported above".to_string(),
        )),
        Some(zeus::PartialReason::DeadlineExceeded) => Err(Failure::Limit(
            "fault campaign stopped at --timeout/--campaign-timeout; partial results reported above"
                .to_string(),
        )),
    }
}

fn cmd_atpg(p: &Parsed, sess: &mut Session, design: zeus::Design) -> Result<(), Failure> {
    // Unlike `fault`, the default seed is fixed, not time-based:
    // reproducible vector sets are the whole point of ATPG.
    let mut cfg = zeus::AtpgConfig {
        seed: seed_or_default(p, sess)?,
        limits: sess.limits(p, true)?,
        ..zeus::AtpgConfig::default()
    };
    let target = match p.str_value("--coverage-target") {
        None => None,
        Some(v) => {
            let pct: f64 = v
                .parse()
                .map_err(|_| Failure::Usage(format!("bad value '{v}' for --coverage-target")))?;
            if !(0.0..=100.0).contains(&pct) {
                return Err(Failure::Usage(
                    "--coverage-target must be a percentage between 0 and 100".to_string(),
                ));
            }
            Some(pct / 100.0)
        }
    };
    if let Some(t) = target {
        cfg.coverage_target = t;
    }
    if let Some(n) = p.u32_count("--max-vectors", 0)? {
        cfg.max_vectors = n as usize;
    }
    if let Some(n) = p.u64_value("--backtrack-limit")? {
        cfg.backtrack_limit = n;
    }
    cfg.fault_opts = zeus::FaultListOptions {
        bridges: p.has("--bridges"),
        transients: p.u64_value("--transients")?,
    };
    cfg.sat = p.has("--sat");
    if let Some(k) = p.u32_count("--max-frames", 0)? {
        cfg.max_frames = k;
    }
    if let Some(n) = p.u64_value("--sat-conflicts")? {
        cfg.sat_conflicts = n;
    }
    let cnf_dir = p.str_value("--emit-cnf");
    if cnf_dir.is_some() && !cfg.sat {
        return Err(Failure::Usage(
            "--emit-cnf requires --sat (the audit trail is the SAT engine's)".to_string(),
        ));
    }
    cfg.emit_cnf = cnf_dir.is_some();
    let report = zeus::run_atpg(&design, &cfg).map_err(|e| diag_failure(&e))?;
    if let Some(dir) = cnf_dir {
        // One DIMACS file per SAT-backed redundancy claim, in claim order.
        for (i, text) in report.cnf_audits.iter().enumerate() {
            let path = std::path::Path::new(dir).join(format!("redundant-{i:03}.cnf"));
            sess.write_file(&path.to_string_lossy(), text)?;
        }
    }
    if report.mode == zeus::AtpgMode::Sequence {
        // Sequential designs never get PODEM redundancy proofs; say
        // which fallback built the set and how to do better.
        wln!(
            sess.err,
            "strategy  : {}{}",
            report.strategy.name(),
            if cfg.sat {
                ""
            } else {
                " (sequential design; pass --sat for time-frame-expanded targeted tests)"
            }
        );
    }
    if let Some(path) = p.str_value("--emit-vectors") {
        let mut text = report.vectors.to_text();
        if let Some(cause) = report.stop_cause() {
            // Parsers drop comment lines, so a partial set still
            // replays; the marker is for humans and scripts that grep.
            wln!(
                text,
                "# PARTIAL: generation {cause}; this set is incomplete"
            );
        }
        sess.write_file(path, &text)?;
    }
    if p.has("--json") {
        wln!(sess.out, "{}", report.to_json());
    } else {
        w!(sess.out, "{}", report.to_text());
    }
    if let (Some(reason), Some(cause)) = (report.partial_reason, report.stop_cause()) {
        let stopped = match reason {
            zeus::PartialReason::Interrupted => Failure::Interrupted,
            zeus::PartialReason::DeadlineExceeded => Failure::Limit,
        };
        return Err(stopped(format!(
            "atpg {cause}; partial vector set reported above"
        )));
    }
    // An explicit target is a pass/fail contract, not just a stopping
    // heuristic: fall below it and the exit status says so.
    match target {
        Some(t) if report.coverage() + 1e-12 < t => Err(Failure::Diags(format!(
            "coverage {:.2}% is below the target {:.2}%",
            report.coverage() * 100.0,
            t * 100.0
        ))),
        _ => Ok(()),
    }
}

/// Scratch directory for fuzz checkpoint journals, keyed by seed so
/// concurrent campaigns with different seeds never collide.
fn fuzz_scratch(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("zeusc-fuzz-{seed:016x}"))
}

fn cmd_fuzz(p: &Parsed, sess: &mut Session) -> Result<(), Failure> {
    if !p.positionals.is_empty() {
        return Err(Failure::Usage(format!(
            "`zeusc fuzz` takes no positional arguments\n\n{}",
            command_usage("fuzz")
        )));
    }

    // --replay mode: re-run reproducer files instead of a fresh budget.
    let replays = p.values("--replay");
    if !replays.is_empty() {
        let mut reproduced = 0usize;
        for path in replays {
            let outcome = zeus_fuzz::replay(p.text(path)?, fuzz_scratch(DEFAULT_SEED))
                .map_err(|e| Failure::Usage(format!("{path}: {e}")))?;
            let verdict = if outcome.reproduced {
                reproduced += 1;
                "REPRODUCED"
            } else {
                "clean"
            };
            wln!(
                sess.out,
                "{verdict:<10} {} {path}",
                outcome.header.signature()
            );
        }
        if reproduced > 0 {
            return Err(Failure::Diags(format!(
                "fuzz: {reproduced} reproducer(s) still fail"
            )));
        }
        return Ok(());
    }

    let seed = seed_or_default(p, sess)?;
    let mut cfg = zeus_fuzz::FuzzConfig::new(
        seed,
        p.u64_nonzero("--budget")?.unwrap_or(100),
        fuzz_scratch(seed),
    );
    cfg.jobs = p.jobs()?;
    if let Some(n) = p.u32_count("--size", 0)? {
        cfg.size = n;
    }
    if let Some(n) = p.u32_count("--cycles", 1)? {
        cfg.cycles = n;
    }
    if let Some(n) = p.u32_count("--vectors", 1)? {
        cfg.campaign_vectors = n;
    }
    if let Some(n) = p.u32_count("--shrink-evals", 1)? {
        cfg.max_shrink_evals = n;
    }
    if let Some(name) = p.str_value("--chaos") {
        let oracle = zeus_fuzz::Oracle::from_name(name).ok_or_else(|| {
            Failure::Usage(format!(
                "unknown --chaos oracle '{name}' (expected one of: scalar-vs-packed, \
                 graph-vs-switch, resume-prefix, atpg-replay, opt, interchange, sat)"
            ))
        })?;
        cfg.chaos = Some(oracle);
    }
    cfg.limits = sess.limits(p, false)?;

    let report = zeus_fuzz::run_fuzz(&cfg);
    w!(sess.out, "{}", report.render());

    if report.failures.is_empty() {
        return Ok(());
    }
    // Persist reproducers and print their paths on stdout — the exit-2
    // contract scripts rely on.
    let corpus = p.str_value("--corpus").unwrap_or("fuzz-corpus");
    wln!(sess.out, "");
    for f in &report.failures {
        let path = format!("{corpus}/{}", f.file_name);
        sess.write_file(&path, &f.contents)?;
        wln!(sess.out, "reproducer: {path}");
    }
    Err(Failure::Diags(format!(
        "fuzz: {} unique failure(s) found; reproducers written to {corpus}/",
        report.failures.len()
    )))
}
