//! The `zeusc` driver as a library.
//!
//! Everything the `zeusc` binary does — argument parsing, command
//! dispatch, output formatting, exit-code classification — lives here,
//! executed against a [`Session`]: a capture buffer plus the hooks a
//! *hosted* invocation needs. The binary builds a plain local session
//! and prints the buffers; the `zeusd` daemon builds one request-scoped
//! session per client request with
//!
//! * **inlined sources** ([`Session::sources`]) — the daemon never
//!   reads client-relative paths, the client ships file contents;
//! * **a cancellation flag** ([`Session::cancel`]) — the daemon's
//!   shutdown flag doubles as every in-flight campaign's Ctrl-C, so a
//!   graceful drain flushes checkpoints exactly like an interactive
//!   interrupt;
//! * **a server-enforced deadline** ([`Session::deadline`]) — merged
//!   into [`Limits::deadline`] and `campaign_deadline`, so a stuck
//!   request burns its budget and returns `Z905` instead of wedging a
//!   worker;
//! * **a content-addressed cache** ([`Cache`]) — elaborated designs,
//!   collapsed fault lists and whole deterministic reports are reused
//!   across requests (see `docs/DAEMON.md` for the exact keying).
//!
//! The contract that keeps the remote path honest: for any request a
//! daemon accepts, the bytes in [`Session::out`]/[`Session::err`] and
//! the exit code are identical to a local `zeusc` run of the same
//! command line (given the same source text), caches hit or missed.

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

    /// Set by the first SIGINT; polled between fault words / ATPG
    /// faults.
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
use std::sync::Arc;
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
    /// A fault campaign was interrupted (Ctrl-C) after reporting
    /// partially → exit 130 (128 + SIGINT), the shell convention.
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

/// Cache hooks a hosting daemon may provide. All methods are
/// best-effort: a `get` miss or a dropped `put` only costs time, never
/// correctness, so implementations are free to shed entries (or whole
/// writes) under I/O pressure.
pub trait Cache {
    /// An elaborated design previously stored under `key`.
    fn get_design(&self, key: u64) -> Option<Arc<zeus::Design>>;
    /// Stores an elaborated design under `key`.
    fn put_design(&self, key: u64, design: &zeus::Design);
    /// A text artifact (report, fault list, vector set) of the given
    /// kind previously stored under `key`.
    fn get_text(&self, kind: &str, key: u64) -> Option<String>;
    /// Stores a text artifact.
    fn put_text(&self, kind: &str, key: u64, text: &str);
}

/// One driver invocation's environment and captured output.
#[derive(Default)]
pub struct Session<'a> {
    /// Captured stdout bytes.
    pub out: String,
    /// Captured stderr bytes.
    pub err: String,
    /// When set, file arguments resolve from this map instead of the
    /// filesystem (daemon mode; `@name` examples still work). Reading a
    /// path absent from the map is a usage error rather than a
    /// filesystem access.
    pub sources: Option<&'a HashMap<String, String>>,
    /// Polled between fault words / ATPG faults; when it goes high the
    /// run drains, flushes checkpoints and reports partially.
    pub cancel: Option<&'static AtomicBool>,
    /// Server-enforced wall-clock deadline, merged into every limit
    /// budget the commands build.
    pub deadline: Option<Instant>,
    /// Content-addressed cache hooks (daemon mode).
    pub cache: Option<&'a dyn Cache>,
    /// When set, fault campaigns without an explicit `--checkpoint` are
    /// journaled here under their campaign digest (and the journal is
    /// removed on completion) so a drained daemon can resume them.
    pub journal_dir: Option<PathBuf>,
    /// Files the run wants written on the *client* side (daemon mode
    /// capture of `--emit-vectors`), as `(path, content)`.
    pub emitted: Vec<(String, String)>,
    /// How many cache lookups (design, fault list, whole artifact) hit
    /// during the run. The daemon reports `cached: true` when nonzero.
    pub cache_hits: usize,
}

impl<'a> Session<'a> {
    /// A plain local session (the binary's).
    pub fn local() -> Session<'a> {
        Session::default()
    }

    /// Wall clock remaining until the server deadline, if any.
    fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Tightens `limits.deadline` to the server deadline.
    fn merge_deadline(&self, limits: &mut Limits) {
        if let Some(rem) = self.remaining() {
            limits.deadline = Some(limits.deadline.map_or(rem, |u| u.min(rem)));
        }
    }

    /// Writes a file, or captures it for the client in daemon mode.
    fn write_file(&mut self, path: &str, content: &str) -> Result<(), Failure> {
        if self.sources.is_some() {
            self.emitted.push((path.to_string(), content.to_string()));
            Ok(())
        } else {
            std::fs::write(path, content)
                .map_err(|e| Failure::Usage(format!("cannot write {path}: {e}")))
        }
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
            ("--packed", false),
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
            ("--packed", false),
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
             the RANDOM source (default 0x2E051983). --packed is accepted\n\
             and changes nothing (sim has one engine).\n\
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
             --packed is accepted and changes nothing.\n\
             --checkpoint FILE journals completed work after every 64-fault\n\
             word; --resume skips the journaled words (the final report is\n\
             byte-identical to an uninterrupted run, and the seed is\n\
             recovered from the checkpoint when --seed is omitted).\n\
             --campaign-timeout MS bounds the whole campaign's wall clock.\n\
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
             trail; --campaign-timeout MS bounds the whole run's wall\n\
             clock, giving every pending fault a fair slice of what is\n\
             left (expiry yields a graded PARTIAL report, exit 130)."
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
             design in the `zeus-design` interchange format, loadable by\n\
             downstream tools and distinguishable from the original by\n\
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
}

impl Parsed {
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

fn load_source(sess: &Session, path: &str) -> Result<String, Failure> {
    if let Some(name) = path.strip_prefix('@') {
        for (n, src, _) in examples::ALL {
            if *n == name {
                return Ok((*src).to_string());
            }
        }
        return Err(Failure::Usage(format!(
            "no bundled example '{name}' (try `zeusc examples`)"
        )));
    }
    if let Some(map) = sess.sources {
        // Daemon mode: the client inlines every file it references; the
        // server never touches client-relative paths.
        return map.get(path).cloned().ok_or_else(|| {
            Failure::Usage(format!("cannot read {path}: not inlined in the request"))
        });
    }
    std::fs::read_to_string(path).map_err(|e| Failure::Usage(format!("cannot read {path}: {e}")))
}

fn parse(src: &str) -> Result<Zeus, Failure> {
    Zeus::parse(src).map_err(|e| {
        let map = zeus::SourceMap::new(src);
        let rendered = e.render(&map);
        diags_failure(&e, rendered)
    })
}

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

/// Key for the elaborated-design cache: source text, top, type args and
/// the user's limit flags (a design elaborated under tighter budgets is
/// a different cache object — a hit must never mask the `Z9xx` a cold
/// run would produce). The server deadline is deliberately excluded.
fn design_cache_key(p: &Parsed, src: &str, top: &str, targs: &[i64]) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("design-v1");
    h.write_str(src);
    h.write_str(top);
    h.write_usize(targs.len());
    for t in targs {
        h.write_u64(*t as u64);
    }
    for (flag, _) in LIMIT_FLAGS {
        match p.str_value(flag) {
            Some(v) => {
                h.write_str(flag);
                h.write_str(v);
            }
            None => h.write_str("-"),
        }
    }
    h.finish()
}

/// Key for whole-report artifacts: the full command identity (source
/// text, every flag with its values in order, positionals) plus the
/// resolved seed and any replayed vector-file content. Two invocations
/// with equal keys are guaranteed byte-identical runs.
fn artifact_key(p: &Parsed, src: &str, seed: u64, vector_text: Option<&str>) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("artifact-v1");
    h.write_str(&p.cmd);
    h.write_str(src);
    h.write_u64(seed);
    match vector_text {
        Some(t) => h.write_str(t),
        None => h.write_str("-"),
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

/// Serializes a completed run (stdout/stderr deltas + emitted files)
/// for the artifact cache.
fn artifact_encode(out: &str, err: &str, files: &[(String, String)]) -> String {
    let mut obj = vec![
        ("out".to_string(), Json::Str(out.to_string())),
        ("err".to_string(), Json::Str(err.to_string())),
    ];
    let f = files
        .iter()
        .map(|(p, c)| (p.clone(), Json::Str(c.clone())))
        .collect();
    obj.push(("files".to_string(), Json::Obj(f)));
    Json::Obj(obj).encode()
}

/// Parses an artifact back into `(out, err, files)`.
#[allow(clippy::type_complexity)]
fn artifact_decode(text: &str) -> Option<(String, String, Vec<(String, String)>)> {
    let v = Json::parse(text).ok()?;
    let out = v.get("out")?.as_str()?.to_string();
    let err = v.get("err")?.as_str()?.to_string();
    let mut files = Vec::new();
    if let Some(Json::Obj(fs)) = v.get("files") {
        for (p, c) in fs {
            files.push((p.clone(), c.as_str()?.to_string()));
        }
    }
    Some((out, err, files))
}

/// Replays a cached artifact into the session: the buffers are rolled
/// back to the command's start offsets (dropping any live seed
/// announcements) and replaced with the recorded bytes, which include
/// the original run's announcements — byte-identical to a cold run.
fn artifact_replay(
    sess: &mut Session,
    marks: (usize, usize),
    artifact: &str,
) -> Option<Result<(), Failure>> {
    let (out, err, files) = artifact_decode(artifact)?;
    sess.cache_hits += 1;
    sess.out.truncate(marks.0);
    sess.err.truncate(marks.1);
    sess.out.push_str(&out);
    sess.err.push_str(&err);
    for (path, content) in files {
        if let Err(e) = sess.write_file(&path, &content) {
            return Some(Err(e));
        }
    }
    Some(Ok(()))
}

/// Stores the run since `marks` as an artifact.
fn artifact_store(sess: &Session, kind: &str, key: u64, marks: (usize, usize)) {
    if let Some(cache) = sess.cache {
        let text = artifact_encode(&sess.out[marks.0..], &sess.err[marks.1..], &sess.emitted);
        cache.put_text(kind, key, &text);
    }
}

// ---------------------------------------------------------------------
// Command dispatch
// ---------------------------------------------------------------------

/// Runs one command line against the session.
///
/// # Errors
///
/// The [`Failure`] carrying the message and exit code the binary
/// prints; see the crate docs for the exit-code contract.
pub fn run(args: &[String], sess: &mut Session) -> Result<(), Failure> {
    let cmd = args.first().ok_or_else(general_usage)?;

    // `--help`/`-h` anywhere prints usage and exits 0; `zeusc help
    // [cmd]` is the spelled-out form.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let topic = if COMMANDS.contains(&cmd.as_str()) {
            Some(cmd.as_str())
        } else {
            None
        };
        match topic {
            Some(c) if c != "help" => wln!(sess.out, "{}", command_usage(c)),
            _ => wln!(sess.out, "{}", general_usage()),
        }
        return Ok(());
    }
    if cmd == "help" {
        match args.get(1).map(String::as_str) {
            None => wln!(sess.out, "{}", general_usage()),
            Some(c) if COMMANDS.contains(&c) => wln!(sess.out, "{}", command_usage(c)),
            Some(other) => {
                return Err(Failure::Usage(format!(
                    "unknown command '{other}'\n\n{}",
                    general_usage()
                )))
            }
        }
        return Ok(());
    }
    if !COMMANDS.contains(&cmd.as_str()) {
        return Err(Failure::Usage(format!(
            "unknown command '{cmd}'\n\n{}",
            general_usage()
        )));
    }

    let p = parse_command_line(cmd, &args[1..])?;
    match cmd.as_str() {
        "examples" => {
            for (name, src, top) in examples::ALL {
                wln!(sess.out, "@{name:<14} top={top:<16} ({} bytes)", src.len());
            }
            Ok(())
        }
        "check" => {
            let file = p
                .positionals
                .first()
                .ok_or_else(|| Failure::Usage(command_usage("check")))?;
            parse(&load_source(sess, file)?)?;
            wln!(sess.out, "ok");
            Ok(())
        }
        "print" => {
            let file = p
                .positionals
                .first()
                .ok_or_else(|| Failure::Usage(command_usage("print")))?;
            let z = parse(&load_source(sess, file)?)?;
            w!(sess.out, "{}", z.to_canonical_text());
            Ok(())
        }
        "equiv" => cmd_equiv(&p, sess),
        "fuzz" => cmd_fuzz(&p, sess),
        "import" => cmd_import(&p, sess),
        "export" => cmd_export(&p, sess),
        _ => cmd_elaborating(&p, sess),
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

/// The budget untrusted imports run under: the user's limit flags, with
/// `max_input_bits` raised to the import default (the CLI has no flag
/// for it, and the elaborator's exhaustive-simulation bound would
/// reject ISCAS-class benchmark inputs).
fn import_budget(p: &Parsed, sess: &Session) -> Result<Limits, Failure> {
    let mut limits = p.limits()?;
    sess.merge_deadline(&mut limits);
    limits.max_input_bits = limits
        .max_input_bits
        .max(zeus::import_limits().max_input_bits);
    Ok(limits)
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
    let src = load_source(sess, file)?;
    if let Some(want) = format_flag(p)? {
        let got = zeus::detect_format(&src);
        if got != want {
            return Err(Failure::Diags(format!(
                "error[Z601]: {file} does not look like the requested format \
                 (sniffed {got:?}, --format wants {want:?})"
            )));
        }
    }
    let limits = import_budget(p, sess)?;
    let design = zeus::import_design(&src, &limits).map_err(|e| import_failure(&e))?;
    let digest = zeus::validated_digest(&design);
    if p.has("--validate-only") {
        wln!(sess.out, "valid     : {digest}");
        return Ok(());
    }
    wln!(sess.out, "top       : {}", design.top_type);
    wln!(sess.out, "digest    : {digest}");
    wln!(sess.out, "nets      : {}", design.netlist.net_count());
    wln!(sess.out, "nodes     : {}", design.netlist.node_count());
    wln!(
        sess.out,
        "registers : {}",
        design.netlist.registers().count()
    );
    for port in &design.ports {
        wln!(
            sess.out,
            "port      : {} {} [{} bit]",
            port.mode,
            port.name,
            port.width()
        );
    }
    Ok(())
}

fn cmd_export(p: &Parsed, sess: &mut Session) -> Result<(), Failure> {
    let file = p
        .positionals
        .first()
        .ok_or_else(|| Failure::Usage(command_usage("export")))?
        .clone();
    let src = load_source(sess, &file)?;
    let format = format_flag(p)?.unwrap_or(zeus::NetlistFormat::Text);
    let design = if zeus::detect_format(&src) != zeus::NetlistFormat::Unknown {
        // Format conversion: an existing netlist payload re-exports
        // (still through the validator — conversion of a hostile file
        // is an import like any other).
        let limits = import_budget(p, sess)?;
        let design = zeus::import_design(&src, &limits).map_err(|e| import_failure(&e))?;
        let claimed = p
            .str_value("--top")
            .or_else(|| p.positionals.get(1).map(String::as_str));
        if let Some(top) = claimed {
            if top != design.top_type {
                return Err(Failure::Usage(format!(
                    "netlist file's top is '{}', not '{top}'",
                    design.top_type
                )));
            }
        }
        design
    } else {
        let (_, top, targs) = file_top_args(p)?;
        let top = top.to_string();
        let mut limits = p.limits()?;
        sess.merge_deadline(&mut limits);
        let z = parse(&src)?;
        let design = z.elaborate_limited(&top, &targs, &limits).map_err(|e| {
            let map = zeus::SourceMap::new(&src);
            let rendered = e.render(&map);
            diags_failure(&e, rendered)
        })?;
        for w in &design.warnings {
            wln!(sess.err, "{}", w.render(&zeus::SourceMap::new(&src)));
        }
        design
    };
    let text = zeus::export_design(&design, format).map_err(|e| import_failure(&e))?;
    match p.str_value("--out") {
        Some(path) => {
            let path = path.to_string();
            sess.write_file(&path, &text)?;
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
    let src = load_source(sess, file)?;
    let z = parse(&src)?;
    let map = zeus::SourceMap::new(&src);
    let mut limits = p.limits()?;
    sess.merge_deadline(&mut limits);
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
/// `svg`, `graph`, `synth`, `fault`, `atpg`.
fn cmd_elaborating(p: &Parsed, sess: &mut Session) -> Result<(), Failure> {
    let file = p
        .positionals
        .first()
        .ok_or_else(|| Failure::Usage(command_usage(&p.cmd)))?
        .clone();
    let src = load_source(sess, &file)?;
    // A netlist interchange payload in place of a .zeus program: import
    // (through the structural validator) instead of elaborating. The
    // top component is read from the file; a positional or --top, when
    // given, is checked against it.
    let netlist_input = zeus::detect_format(&src) != zeus::NetlistFormat::Unknown;
    let (top, targs) = if netlist_input {
        if p.positionals.len() > 2 {
            return Err(Failure::Usage(
                "netlist inputs carry their elaboration; type parameters don't apply".to_string(),
            ));
        }
        let claimed = p
            .str_value("--top")
            .or_else(|| p.positionals.get(1).map(String::as_str))
            .unwrap_or("")
            .to_string();
        (claimed, Vec::new())
    } else {
        let (_, top, targs) = file_top_args(p)?;
        (top.to_string(), targs)
    };
    let limits = p.limits()?;
    // The server wall-clock budget merges into the limits used for
    // elaboration and simulation, but NOT into the set handed to
    // `fault`: those are hashed into the campaign digest, which must
    // be stable across requests for the auto-journal resume to find
    // its file again (the budget reaches campaigns through the
    // campaign deadline instead).
    let mut budgeted = limits.clone();
    sess.merge_deadline(&mut budgeted);

    // Only the daemon-routed commands consult the design cache: the
    // cached form drops the instance/layout tree and spans, which
    // `elab`/`layout`/`svg` output depends on.
    let cache_design = !netlist_input && matches!(p.cmd.as_str(), "sim" | "fault" | "atpg");
    let dkey = design_cache_key(p, &src, &top, &targs);
    let cached = if cache_design {
        sess.cache.and_then(|c| c.get_design(dkey))
    } else {
        None
    };
    let design = if netlist_input {
        // Imports are cheap relative to elaboration and already carry
        // their own digest, so they bypass the design cache.
        let import_limits = import_budget(p, sess)?;
        let design = zeus::import_design(&src, &import_limits).map_err(|e| import_failure(&e))?;
        if !top.is_empty() && top != design.top_type {
            return Err(Failure::Usage(format!(
                "netlist file's top is '{}', not '{top}'",
                design.top_type
            )));
        }
        design
    } else {
        match cached {
            // Cached designs were stored warning-free, so skipping the
            // warning loop below keeps stderr byte-identical.
            Some(d) => {
                sess.cache_hits += 1;
                (*d).clone()
            }
            None => {
                let z = parse(&src)?;
                let design = z.elaborate_limited(&top, &targs, &budgeted).map_err(|e| {
                    let map = zeus::SourceMap::new(&src);
                    let rendered = e.render(&map);
                    diags_failure(&e, rendered)
                })?;
                for w in &design.warnings {
                    wln!(sess.err, "{}", w.render(&zeus::SourceMap::new(&src)));
                }
                if cache_design && design.warnings.is_empty() {
                    if let Some(cache) = sess.cache {
                        cache.put_design(dkey, &design);
                    }
                }
                design
            }
        }
    };
    // `--opt` (sim/fault/atpg) threads the elaborated design through
    // the equivalence-gated optimizer before the engine sees it. The
    // optimized design has a distinct digest, so fault checkpoints and
    // campaign journals never splice across the optimization boundary.
    let design = if p.has("--opt") {
        optimized_design(sess, design, &budgeted)?
    } else {
        design
    };
    match p.cmd.as_str() {
        "elab" => {
            wln!(sess.out, "top       : {}", design.top_type);
            wln!(sess.out, "nets      : {}", design.netlist.net_count());
            wln!(sess.out, "nodes     : {}", design.netlist.node_count());
            wln!(
                sess.out,
                "registers : {}",
                design.netlist.registers().count()
            );
            wln!(sess.out, "instances : {}", design.instances.size());
            for p in &design.ports {
                wln!(
                    sess.out,
                    "port      : {} {} [{} bit]",
                    p.mode,
                    p.name,
                    p.width()
                );
            }
            Ok(())
        }
        "sim" => cmd_sim(p, sess, design, &budgeted, &src),
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
        "opt" => cmd_opt(p, sess, design, &budgeted),
        "fault" => cmd_fault(p, sess, design, &limits, &src, dkey),
        "atpg" => cmd_atpg(p, sess, design, &budgeted, &src),
        _ => {
            let sw = zeus::SwitchSim::with_limits(&design, &budgeted);
            wln!(sess.out, "transistors : {}", sw.transistor_count());
            wln!(sess.out, "nodes       : {}", sw.node_count());
            Ok(())
        }
    }
}

/// Runs the optimizer for a `--opt` engine command, echoing the deltas
/// on stderr so stdout stays the engine's report (and the whole-report
/// artifact cache, whose marks are taken after this line, replays
/// byte-identically).
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
        let path = path.to_string();
        sess.write_file(&path, &zeus::design_to_text(&out.design))?;
    }
    Ok(())
}

/// The collapsed fault list, through the cache when available.
fn fault_list(
    sess: &mut Session,
    design: &zeus::Design,
    opts: &zeus::FaultListOptions,
    dkey: u64,
) -> zeus::FaultList {
    let key = {
        let mut h = zeus::StableHasher::new();
        h.write_str("faultlist-v1");
        h.write_u64(dkey);
        h.write_u64(opts.bridges as u64);
        h.write_opt_u64(opts.transients);
        h.finish()
    };
    if let Some(cache) = sess.cache {
        if let Some(text) = cache.get_text("faults", key) {
            if let Ok(list) = zeus::FaultList::parse(&text) {
                sess.cache_hits += 1;
                return list;
            }
        }
        let list = zeus::enumerate_faults(design, opts);
        cache.put_text("faults", key, &list.to_text());
        return list;
    }
    zeus::enumerate_faults(design, opts)
}

fn cmd_sim(
    p: &Parsed,
    sess: &mut Session,
    design: zeus::Design,
    limits: &Limits,
    src: &str,
) -> Result<(), Failure> {
    let marks = (sess.out.len(), sess.err.len());
    let cycles = p.u64_nonzero("--cycles")?.unwrap_or(8);
    let seed = p.u64_value("--seed")?;
    let akey = artifact_key(p, src, seed.unwrap_or(0x2E05_1983), None);
    if let Some(hit) = sess.cache.and_then(|c| c.get_text("sim", akey)) {
        if let Some(r) = artifact_replay(sess, marks, &hit) {
            return r;
        }
    }
    if seed.is_none() {
        // The fixed default seed keeps runs reproducible; say which one
        // was used (satisfying scripted reproduction) without polluting
        // stdout.
        wln!(
            sess.err,
            "seed      : {} (default; pass --seed to vary)",
            0x2E05_1983u64
        );
    }
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
    if let Some(s) = seed {
        sim.reseed(s);
    }
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
    // A completed sim is a golden port trace: deterministic for its key
    // (the default seed is fixed), so cache the whole report.
    artifact_store(sess, "sim", akey, marks);
    Ok(())
}

fn cmd_fault(
    p: &Parsed,
    sess: &mut Session,
    design: zeus::Design,
    limits: &Limits,
    src: &str,
    dkey: u64,
) -> Result<(), Failure> {
    let marks = (sess.out.len(), sess.err.len());
    let vectors = p.u32_count("--vectors", 1)?.unwrap_or(64);
    let vector_text = match p.str_value("--vectors-file") {
        None => None,
        Some(path) => {
            if p.has("--vectors") {
                return Err(Failure::Usage(
                    "--vectors-file supplies the vectors; don't also pass --vectors".to_string(),
                ));
            }
            Some(load_source(sess, path)?)
        }
    };
    let vector_set = match &vector_text {
        None => None,
        Some(text) => Some(zeus::VectorSet::parse(text).map_err(|e| diag_failure(&e))?),
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
    let mut seed_deterministic = true;
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
                    seed_deterministic = false;
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
    // Every campaign runs on the packed runner, so --packed is accepted
    // and changes nothing; --jobs shards either engine.
    let jobs = match p.u64_nonzero("--jobs")? {
        Some(n) => n as usize,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };

    // Whole-report artifact cache: only for runs whose bytes are a pure
    // function of the command line (deterministic seed, no local
    // checkpoint files involved).
    let cacheable = checkpoint.is_none() && seed_deterministic;
    let akey = artifact_key(p, src, seed, vector_text.as_deref());
    if cacheable {
        if let Some(hit) = sess.cache.and_then(|c| c.get_text("fault", akey)) {
            if let Some(r) = artifact_replay(sess, marks, &hit) {
                return r;
            }
        }
    }

    let opts = zeus::FaultListOptions {
        bridges: p.has("--bridges"),
        transients: p.u64_value("--transients")?,
        ..zeus::FaultListOptions::default()
    };
    let list = fault_list(sess, &design, &opts, dkey);
    let mut cfg = match vector_set {
        Some(set) => {
            let mut c = zeus::CampaignConfig::replay(engine, set);
            c.seed = seed;
            c
        }
        None => zeus::CampaignConfig::new(engine, vectors, seed),
    };
    cfg.limits = limits.clone();
    if let Some(ms) = p.u64_value("--campaign-timeout")? {
        cfg.campaign_deadline = Some(Duration::from_millis(ms));
    }
    if let Some(rem) = sess.remaining() {
        cfg.campaign_deadline = Some(cfg.campaign_deadline.map_or(rem, |u| u.min(rem)));
    }
    cfg.cancel = sess.cancel;

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
            if cacheable {
                artifact_store(sess, "fault", akey, marks);
            }
            Ok(())
        }
        Some(zeus::PartialReason::Interrupted) => Err(Failure::Interrupted(
            "fault campaign interrupted; partial results reported above".to_string(),
        )),
        Some(zeus::PartialReason::DeadlineExceeded) => Err(Failure::Limit(
            "fault campaign stopped at --campaign-timeout; partial results reported above"
                .to_string(),
        )),
    }
}

fn cmd_atpg(
    p: &Parsed,
    sess: &mut Session,
    design: zeus::Design,
    limits: &Limits,
    src: &str,
) -> Result<(), Failure> {
    let marks = (sess.out.len(), sess.err.len());
    let mut cfg = zeus::AtpgConfig {
        limits: limits.clone(),
        ..zeus::AtpgConfig::default()
    };
    sess.merge_deadline(&mut cfg.limits);
    cfg.seed = match p.u64_value("--seed")? {
        Some(s) => s,
        None => {
            // Unlike `fault`, the default is fixed, not time-based:
            // reproducible vector sets are the whole point of ATPG.
            wln!(
                sess.err,
                "seed      : {} (default; pass --seed to vary)",
                0x2E05_1983u64
            );
            0x2E05_1983
        }
    };
    let akey = artifact_key(p, src, cfg.seed, None);
    if let Some(hit) = sess.cache.and_then(|c| c.get_text("atpg", akey)) {
        if let Some(r) = artifact_replay(sess, marks, &hit) {
            return r;
        }
    }
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
        ..zeus::FaultListOptions::default()
    };
    cfg.cancel = sess.cancel;
    cfg.sat = p.has("--sat");
    if let Some(k) = p.u32_count("--max-frames", 0)? {
        cfg.max_frames = k;
    }
    if let Some(n) = p.u64_value("--sat-conflicts")? {
        cfg.sat_conflicts = n;
    }
    if let Some(dir) = p.str_value("--emit-cnf") {
        if !cfg.sat {
            return Err(Failure::Usage(
                "--emit-cnf requires --sat (the audit trail is the SAT engine's)".to_string(),
            ));
        }
        cfg.emit_cnf = Some(PathBuf::from(dir));
    }
    if let Some(ms) = p.u64_value("--campaign-timeout")? {
        cfg.campaign_deadline = Some(Duration::from_millis(ms));
    }
    if let Some(rem) = sess.remaining() {
        cfg.campaign_deadline = Some(cfg.campaign_deadline.map_or(rem, |u| u.min(rem)));
    }
    let report = zeus::run_atpg(&design, &cfg).map_err(|e| diag_failure(&e))?;
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
        if report.partial {
            // Parsers drop comment lines, so a partial set still
            // replays; the marker is for humans and scripts that grep.
            text.push_str("# PARTIAL: generation was interrupted; this set is incomplete\n");
        }
        let path = path.to_string();
        sess.write_file(&path, &text)?;
    }
    if p.has("--json") {
        wln!(sess.out, "{}", report.to_json());
    } else {
        w!(sess.out, "{}", report.to_text());
    }
    if report.partial {
        return Err(Failure::Interrupted(
            "atpg interrupted; partial vector set reported above".to_string(),
        ));
    }
    // An explicit target is a pass/fail contract, not just a stopping
    // heuristic: fall below it and the exit status says so.
    match target {
        Some(t) if report.coverage() + 1e-12 < t => Err(Failure::Diags(format!(
            "coverage {:.2}% is below the target {:.2}%",
            report.coverage() * 100.0,
            t * 100.0
        ))),
        _ => {
            artifact_store(sess, "atpg", akey, marks);
            Ok(())
        }
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
            let text = load_source(sess, path)?;
            let seed_hint = 0x2E05_1983u64;
            let outcome = zeus_fuzz::replay(&text, fuzz_scratch(seed_hint))
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

    let seed = match p.u64_value("--seed")? {
        Some(s) => s,
        None => {
            // Fixed default, like sim/atpg: reproducible campaigns are
            // the point, and the echo satisfies scripted reproduction.
            wln!(
                sess.err,
                "seed      : {} (default; pass --seed to vary)",
                0x2E05_1983u64
            );
            0x2E05_1983
        }
    };
    let mut cfg = zeus_fuzz::FuzzConfig::new(
        seed,
        p.u64_nonzero("--budget")?.unwrap_or(100),
        fuzz_scratch(seed),
    );
    cfg.jobs = match p.u64_nonzero("--jobs")? {
        Some(n) => n as usize,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
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
    let mut limits = p.limits()?;
    sess.merge_deadline(&mut limits);
    cfg.limits = limits;

    let report = zeus_fuzz::run_fuzz(&cfg);
    w!(sess.out, "{}", report.render());

    if report.failures.is_empty() {
        return Ok(());
    }
    // Persist reproducers and print their paths on stdout — the exit-2
    // contract scripts rely on.
    let corpus = p.str_value("--corpus").unwrap_or("fuzz-corpus");
    if sess.sources.is_none() {
        std::fs::create_dir_all(corpus)
            .map_err(|e| Failure::Usage(format!("cannot create {corpus}: {e}")))?;
    }
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
