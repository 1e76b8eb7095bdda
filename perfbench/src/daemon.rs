//! `daemon`: one closed-loop client sends one request at a time to a
//! `zeusd` with one worker, over the zeusc wire protocol. The store was
//! filled by an untimed pass and lives in the checkout, on a real disk,
//! so `fsync` is part of every miss.
//!
//! The daemon runs in a child process: this binary re-executed as
//! `perfbench zeusd ...`, which calls `zeus_daemon::run` with the
//! configuration `zeusd --workers 1` builds and stops when its stdin
//! closes, where `zeusd` stops on SIGTERM.
//!
//! zeusd's accept loop sleeps [`POLL_US`] whenever no connection waits.
//! A client that connects as soon as its last answer arrives always
//! waits out a whole sleep, so every hit would take one poll period
//! whatever its service time. Each request therefore waits an untimed,
//! seeded think time first, spread evenly over one poll period, so
//! requests arrive at every phase of the poll: a hit then takes half a
//! period plus its service time at the median.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::Duration;

use zeus_cli::remote::{run_remote, RemoteOpts, RemoteOutcome};
use zeus_cli::Session;
use zeus_daemon::{ServerConfig, Store};

use crate::campaign::elaborate;
use crate::common::{latency_metrics, measure, peak_rss_mb, timed, Cfg, Outcome, Pace, Rng};
use crate::trace::Tracer;

/// Requests that repeat: default flags on small bundled designs, with
/// the fixed `--seed` a `fault` request needs to be reproducible.
const HITS: &[&[&str]] = &[
    &["sim", "@adders", "rippleCarry4"],
    &["sim", "@recognizer", "recab", "--cycles", "32"],
    &["sim", "@counter", "counter", "4", "--cycles", "32"],
    &["fault", "@adders", "rippleCarry4", "--seed", "1"],
    &["fault", "@recognizer", "recab", "--seed", "1"],
    &["fault", "@mux", "muxtop", "--seed", "1"],
    &["fault", "@counter", "counter", "4", "--seed", "1"],
    &["atpg", "@adders", "rippleCarry4"],
    &["atpg", "@mux", "muxtop"],
    &["atpg", "@recognizer", "recab"],
];

/// Requests that miss: the same commands with a fresh `--seed`, so the
/// daemon recomputes them with the default scalar engine and writes the
/// result to its store.
const MISSES: &[&[&str]] = &[
    &["sim", "@recognizer", "recab", "--cycles", "32"],
    &["fault", "@adders", "rippleCarry4"],
    &["fault", "@recognizer", "recab"],
    &["fault", "@mux", "muxtop"],
    &["atpg", "@mux", "muxtop"],
];

/// Designs the request mix works on, for `opt_gates`.
const DESIGNS: &[(&str, &str, &[i64])] = &[
    ("zeus-programs/adders.zeus", "rippleCarry4", &[]),
    ("zeus-programs/recognizer.zeus", "recab", &[]),
    ("zeus-programs/counter.zeus", "counter", &[4]),
    ("zeus-programs/mux.zeus", "muxtop", &[]),
];

/// Requests per block; exactly one per block misses.
const BLOCK: usize = 10;

/// The sleep of zeusd's accept loop when no connection waits, in µs.
const POLL_US: u64 = 25_000;

/// Repetitions of the in-process store and serve probes.
const PROBE_REPS: usize = 5;

/// One scheduled request, whether the schedule made it a repeat, and
/// the untimed think time before it.
#[derive(Debug, Clone, PartialEq)]
struct Req {
    argv: Vec<String>,
    hit: bool,
    think_us: u64,
}

/// Block `b` of the seeded request mix: [`BLOCK`] requests, one of them
/// (at a seeded position) a miss with a fresh seed, the rest seeded
/// picks from [`HITS`]. Misses take the [`MISSES`] commands in turn, so
/// every run has the same share of each. The think times fall one in
/// each [`BLOCK`]th of the poll period, so each block meets the poll at
/// evenly spread phases; each miss command takes every slot in turn, in
/// seeded order, because the slowest one makes the tail.
fn block(seed: u64, b: usize) -> Vec<Req> {
    let fresh = (Rng::new(seed, 0xf5e5).next_u64() >> 24) + 1_000_000 + b as u64;
    let kind = b % MISSES.len();
    let mut turns: Vec<u64> = (0..BLOCK as u64).collect();
    Rng::new(seed, 0x5107_0000 + kind as u64).shuffle(&mut turns);
    let miss_slot = turns[(b / MISSES.len()) % BLOCK];
    let mut rng = Rng::new(seed, 0xdae0_0000 + b as u64);
    let miss_at = rng.below(BLOCK);
    let mut slots: Vec<u64> = (0..BLOCK as u64).filter(|&t| t != miss_slot).collect();
    rng.shuffle(&mut slots);
    slots.insert(miss_at, miss_slot);
    slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| {
            let think_us = (slot * POLL_US + rng.next_u64() % POLL_US) / BLOCK as u64;
            if k == miss_at {
                let mut argv = argv_of(MISSES[kind]);
                argv.push("--seed".to_string());
                argv.push(fresh.to_string());
                Req {
                    argv,
                    hit: false,
                    think_us,
                }
            } else {
                Req {
                    argv: argv_of(HITS[rng.below(HITS.len())]),
                    hit: true,
                    think_us,
                }
            }
        })
        .collect()
}

/// `perfbench zeusd --socket PATH --cache DIR`: the daemon side of the
/// workload, with one worker.
pub fn serve(args: &[String]) -> ExitCode {
    let mut cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("zeusd: {flag} needs a value");
            return ExitCode::FAILURE;
        };
        match flag.as_str() {
            "--socket" => cfg.socket = PathBuf::from(value),
            "--cache" => cfg.cache_dir = PathBuf::from(value),
            _ => {
                eprintln!("zeusd: unknown flag {flag}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The parent closes our stdin to stop us: the graceful drain
    // SIGTERM starts in `zeusd`.
    let watcher = std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        zeus_daemon::SHUTDOWN.store(true, Ordering::SeqCst);
    });
    let result = zeus_daemon::run(&cfg);
    // `run` returns only after SHUTDOWN, which the watcher raised.
    let _ = watcher.join();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zeusd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon child.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon and returns once it listens.
    fn start(socket: &Path, store: &Path) -> Result<Daemon, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("zeusd")
            .arg("--socket")
            .arg(socket)
            .arg("--cache")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut lines =
            BufReader::new(child.stderr.take().ok_or("daemon stderr not piped")?).lines();
        let mut log = String::new();
        loop {
            match lines.next() {
                Some(Ok(line)) => {
                    let ready = line.contains("listening on");
                    log.push_str(&line);
                    log.push('\n');
                    if ready {
                        break;
                    }
                }
                _ => {
                    drop(stdin);
                    let _ = child.wait();
                    return Err(format!("daemon exited before listening:\n{log}"));
                }
            }
        }
        // Keep draining its log so the daemon never blocks on a full pipe.
        let stderr = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Ok(Daemon {
            child,
            stdin,
            stderr: Some(stderr),
        })
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot wait for the daemon: {e}"))?;
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.shutdown();
        }
    }
}

fn argv_of(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// One answer: exit code, stdout and stderr.
type Answer = (u8, String, String);

fn send(socket: &Path, argv: &[String]) -> Result<Answer, String> {
    let opts = RemoteOpts {
        socket: socket.to_path_buf(),
        fallback_local: false,
    };
    match run_remote(&opts, argv) {
        RemoteOutcome::Done { code, out, err, .. } => Ok((code, out, err)),
        RemoteOutcome::Fallback(msg) => Err(msg),
    }
}

/// The `A/B` of the first `coverage:` line of a fault or atpg report.
fn coverage_of(report: &str) -> Option<(u64, u64)> {
    let line = report
        .lines()
        .find(|l| l.trim_start().starts_with("coverage:"))?;
    let token = line
        .split(|c: char| c.is_whitespace() || c == '(')
        .find(|t| t.contains('/'))?;
    let (a, b) = token.split_once('/')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// The `N` of an atpg report's `vectors: N emitted` line.
fn emitted_of(report: &str) -> Option<u64> {
    let line = report
        .lines()
        .find(|l| l.trim_start().starts_with("vectors:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = cfg.work_dir()?.join(format!("daemon-{}", cfg.seed));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let socket = dir.join("zeusd.sock");
    let store = dir.join("store");
    // Set-up is timed on a twin of the store that never serves, so every
    // start sweeps the same entries however many misses the run wrote.
    let twin_socket = dir.join("twin.sock");
    let twin_store = dir.join("twin-store");

    // Untimed fill of both stores: every repeating request once.
    for (sock, st) in [(&socket, &store), (&twin_socket, &twin_store)] {
        let filler = Daemon::start(sock, st)?;
        for h in HITS {
            let (code, _, err) = send(sock, &argv_of(h))?;
            if code != 0 {
                return Err(format!("{h:?} failed with exit {code}: {err}"));
            }
        }
        filler.stop()?;
    }

    // Each start-up is timed from spawn to listening; stopping stays
    // outside the clock. One twin start between blocks spreads the
    // samples over the run, like the batch workloads' set-up repeats.
    let (first_setup_s, daemon) = timed(|| Daemon::start(&socket, &store))?;
    let reqs: RefCell<Vec<Req>> = RefCell::new(Vec::new());
    let mut tr = Tracer::new();
    // Each distinct command's first answer, and how many requests sent it.
    let mut answers: BTreeMap<Vec<String>, (Answer, u64)> = BTreeMap::new();
    let mut unstable: Vec<String> = Vec::new();
    // The loop stops at a block boundary, so every run sends whole blocks.
    let m = measure(
        cfg,
        Pace::Blocks(BLOCK),
        &mut tr,
        &mut out,
        |i| {
            let mut setup_s = None;
            if i % BLOCK == 0 {
                *reqs.borrow_mut() = block(cfg.seed, i / BLOCK);
                if i > 0 {
                    let (s, twin) = timed(|| Daemon::start(&twin_socket, &twin_store))?;
                    twin.stop()?;
                    setup_s = Some(s);
                }
            }
            std::thread::sleep(Duration::from_micros(reqs.borrow()[i % BLOCK].think_us));
            Ok(setup_s)
        },
        |i, tr| {
            let req = reqs.borrow()[i % BLOCK].clone();
            let answer = tr.span(if req.hit { "daemon.hit" } else { "daemon.miss" }, || {
                send(&socket, &req.argv)
            })?;
            Ok((req.argv, answer))
        },
        |_, (argv, answer)| {
            let ok = answer.0 == 0;
            match answers.get_mut(&argv) {
                Some((first, n)) => {
                    *n += 1;
                    if *first != answer {
                        unstable.push(format!("{argv:?}"));
                        return false;
                    }
                    ok
                }
                None => {
                    answers.insert(argv, (answer, 1));
                    ok
                }
            }
        },
    )?;
    let rss = peak_rss_mb("self")? + peak_rss_mb(&daemon.child.id().to_string())?;
    daemon.stop()?;
    for what in unstable {
        out.note(format!("answer changed between repeats of {what}"));
    }

    // Each distinct answer must equal a local run of the same command;
    // a traced run times the local runs of the misses as `cli.local`.
    for (argv, (answer, n)) in &answers {
        tr.set_on(cfg.trace && !HITS.iter().any(|h| argv_of(h) == *argv));
        let local = tr.span("cli.local", || zeus_cli::run_captured(argv));
        if &local != answer {
            out.fail(
                *n,
                format!("{argv:?}: daemon answer differs from a local run"),
            );
        }
    }

    let hit_answers: Vec<&Answer> = HITS
        .iter()
        .filter_map(|h| answers.get(&argv_of(h)).map(|(a, _)| a))
        .collect();
    let (det, tot) = hit_answers
        .iter()
        .filter_map(|a| coverage_of(&a.1))
        .fold((0, 0), |(d, t), (a, b)| (d + a, t + b));
    let vectors: u64 = hit_answers.iter().filter_map(|a| emitted_of(&a.1)).sum();
    let gates = DESIGNS
        .iter()
        .map(|(f, top, args)| elaborate(f, top, args).map(|d| d.netlist.node_count()))
        .sum::<Result<usize, String>>()?;

    out.metric("setup_s", m.setup_median(first_setup_s), "s");
    latency_metrics(&m, &mut out);
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("opt_gates", gates as f64, "gates");
    out.metric("coverage_pct", 100.0 * det as f64 / tot.max(1) as f64, "%");
    out.metric("test_vectors", vectors as f64, "count");
    let misses = m.lat_ms.len() / BLOCK;
    out.note(format!(
        "{} distinct answers checked against local runs; {} hits, {} misses",
        answers.len(),
        m.lat_ms.len() - misses,
        misses
    ));

    if cfg.trace {
        tr.set_on(true);
        for _ in 0..PROBE_REPS {
            let id = tr.open("daemon.recovery");
            let (st, recovery) =
                Store::open(&twin_store).map_err(|e| format!("cannot open the store: {e}"))?;
            tr.close(id);
            tr.count(id, "entries", recovery.ok as u64);
            let sources: HashMap<String, String> = HashMap::new();
            for h in HITS {
                let argv = argv_of(h);
                let Some((answer, n)) = answers.get(&argv) else {
                    continue;
                };
                let mut sess = Session {
                    sources: Some(&sources),
                    cache: Some(&st),
                    journal_dir: Some(st.journal_dir()),
                    ..Session::default()
                };
                let id = tr.open("daemon.serve");
                let code = zeus_cli::run_to_completion(&argv, &mut sess);
                tr.close(id);
                if *answer != (code, sess.out, sess.err) {
                    out.fail(
                        *n,
                        format!("{argv:?}: store-served answer differs from the daemon's"),
                    );
                }
            }
        }
        tr.set_on(false);
        crate::layers::finish(cfg, &tr, &m, &mut out)?;
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_reproduces_exactly_from_its_seed() {
        for b in [0, 1, 57] {
            assert_eq!(block(7, b), block(7, b));
        }
        let run = |seed| (0..40).flat_map(|b| block(seed, b)).collect::<Vec<_>>();
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn each_block_misses_once_with_a_fresh_seed() {
        let mut fresh = std::collections::BTreeSet::new();
        for b in 0..200 {
            let reqs = block(3, b);
            assert_eq!(reqs.len(), BLOCK);
            let misses: Vec<&Req> = reqs.iter().filter(|r| !r.hit).collect();
            assert_eq!(misses.len(), 1);
            assert!(fresh.insert(misses[0].argv.clone()), "miss repeats");
            for r in reqs.iter().filter(|r| r.hit) {
                assert!(HITS.iter().any(|h| argv_of(h) == r.argv));
            }
        }
    }

    #[test]
    fn think_times_fall_one_in_each_slice_of_the_poll() {
        let slice = POLL_US / BLOCK as u64;
        for b in 0..50 {
            let mut slices: Vec<u64> = block(9, b).iter().map(|r| r.think_us / slice).collect();
            slices.sort_unstable();
            assert_eq!(slices, (0..BLOCK as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn each_miss_command_meets_every_phase_in_turn() {
        let slice = POLL_US / BLOCK as u64;
        for kind in 0..MISSES.len() {
            let mut slots: Vec<u64> = (0..BLOCK)
                .map(|j| kind + j * MISSES.len())
                .flat_map(|b| block(4, b))
                .filter(|r| !r.hit)
                .map(|r| r.think_us / slice)
                .collect();
            slots.sort_unstable();
            assert_eq!(slots, (0..BLOCK as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn report_lines_parse() {
        let fault = "fault campaign: x\n  coverage: 42/50 detected (84.0%), 8 undetected\n";
        assert_eq!(coverage_of(fault), Some((42, 50)));
        let atpg = "  vectors: 9 emitted (digest 88)\n  coverage: 68.00% (34/50 detected), testable 100.00%\n";
        assert_eq!(coverage_of(atpg), Some((34, 50)));
        assert_eq!(emitted_of(atpg), Some(9));
    }
}
