//! End-to-end tests against a live `zeusd` process: contract parity
//! with local `zeusc`, caching, backpressure, slow clients, panic
//! isolation, graceful drain with journaled resume, and cache-hit
//! latency.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zeus_cli::proto::{Request, Response};
use zeus_cli::remote::{run_remote, RemoteOpts, RemoteOutcome};

/// One daemon instance on its own socket and cache directory,
/// killed (hard) on drop if the test did not already stop it.
struct Daemon {
    child: Child,
    socket: PathBuf,
    root: PathBuf,
}

impl Daemon {
    fn spawn(tag: &str, extra: &[&str]) -> Daemon {
        let root = std::env::temp_dir().join(format!("zeusd-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Daemon::spawn_at(root, extra)
    }

    /// Spawns against an existing root (restart case: keep the cache).
    fn spawn_at(root: PathBuf, extra: &[&str]) -> Daemon {
        let socket = root.join("zeusd.sock");
        // Its own working directory, so a file the daemon wrote itself
        // could never pass for one the client received.
        let child = Command::new(env!("CARGO_BIN_EXE_zeusd"))
            .current_dir(&root)
            .arg("--socket")
            .arg(&socket)
            .arg("--cache")
            .arg(root.join("cache"))
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn zeusd");
        let daemon = Daemon {
            child,
            socket,
            root,
        };
        let start = Instant::now();
        while !daemon.socket.exists() {
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "zeusd never bound its socket"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    fn opts(&self) -> RemoteOpts {
        RemoteOpts {
            socket: self.socket.clone(),
            fallback_local: false,
        }
    }

    /// SIGTERM + wait: the graceful path the daemon advertises.
    fn terminate(&mut self) {
        self.signal_term();
        self.wait_exit();
    }

    /// Sends SIGTERM and returns at once: the drain has begun.
    fn signal_term(&self) {
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
    }

    fn wait_exit(&mut self) {
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                _ if start.elapsed() > Duration::from_secs(30) => {
                    let _ = self.child.kill();
                    panic!("zeusd did not drain within 30s of SIGTERM");
                }
                _ => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// A raw protocol exchange, bypassing the retrying client (so tests can
/// see `overloaded` / `shutting_down` / `cached` verbatim).
fn raw(socket: &Path, req: &Request) -> Response {
    let mut line = req.encode();
    line.push('\n');
    raw_bytes(socket, line.as_bytes())
}

/// Sends `bytes` as the whole request (no framing added) and decodes
/// the answer. A daemon past its reader bound answers and closes before
/// reading anything, so a failed send still leaves an answer to read.
fn raw_bytes(socket: &Path, bytes: &[u8]) -> Response {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .unwrap();
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut answer = String::new();
    BufReader::new(stream).read_line(&mut answer).unwrap();
    Response::decode(answer.trim_end()).expect("decode response")
}

/// A client that connects, sends the first byte of a request line, and
/// then one more byte every 100 ms, never a newline, until dropped or
/// the daemon closes the connection.
struct Trickler {
    stream: UnixStream,
    thread: Option<JoinHandle<()>>,
}

impl Trickler {
    /// Connects and returns once the daemon has surely accepted the
    /// connection and is reading it.
    fn start(socket: &Path) -> Trickler {
        let mut stream = UnixStream::connect(socket).expect("connect");
        stream.write_all(b"{").unwrap();
        let mut writer = stream.try_clone().unwrap();
        let thread = std::thread::spawn(move || {
            while writer.write_all(b" ").is_ok() {
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        std::thread::sleep(Duration::from_millis(300));
        Trickler {
            stream,
            thread: Some(thread),
        }
    }
}

impl Drop for Trickler {
    fn drop(&mut self) {
        // The next write fails, and the thread ends.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn request(parts: &[&str]) -> Request {
    Request {
        id: std::process::id().into(),
        argv: argv(parts),
        ..Request::default()
    }
}

/// A campaign that keeps a worker busy for about three seconds in
/// either build profile. A fifth of am2901's faults stay undetected, so
/// its run grows with the vector count, which is scaled to the profile
/// (a release build is about ten times faster). One thread runs its 32
/// fault words in four windows of eight, each journaled when done.
/// `seed` keeps concurrent requests distinct.
fn slow_campaign(seed: &str) -> [&str; 9] {
    let vectors = if cfg!(debug_assertions) {
        "3600"
    } else {
        "36000"
    };
    [
        "fault",
        "@am2901",
        "am2901",
        "--vectors",
        vectors,
        "--jobs",
        "1",
        "--seed",
        seed,
    ]
}

// -------------------------------------------------------------------
// Contract parity: the daemon's answer is byte-identical to local.
// -------------------------------------------------------------------

#[test]
fn remote_matches_local_byte_for_byte() {
    let daemon = Daemon::spawn("parity", &[]);
    let cases: &[&[&str]] = &[
        &["elab", "@adders", "rippleCarry4"],
        &[
            "sim",
            "@adders",
            "rippleCarry4",
            "--cycles",
            "4",
            "--seed",
            "7",
        ],
        &[
            "fault",
            "@adders",
            "rippleCarry4",
            "--seed",
            "1",
            "--vectors",
            "64",
        ],
        &[
            "fault",
            "@mux",
            "muxtop",
            "--seed",
            "2",
            "--vectors",
            "16",
            "--json",
        ],
        &["atpg", "@adders", "rippleCarry4", "--seed", "5"],
        // Diagnostics (exit 2) and usage errors (exit 1) must mirror too.
        &["sim", "@adders", "noSuchTop"],
        &["fault", "@adders", "rippleCarry4", "--vectors", "0"],
        &["frobnicate"],
        // An unreadable input fails with the local message.
        &[
            "fault",
            "@adders",
            "rippleCarry4",
            "--vectors-file",
            "missing.txt",
        ],
    ];
    for case in cases {
        let (code, out, err) = zeus_cli::run_captured(&argv(case));
        match run_remote(&daemon.opts(), &argv(case)) {
            RemoteOutcome::Done {
                code: rcode,
                out: rout,
                err: rerr,
                files,
            } => {
                assert_eq!(rcode, code, "exit code diverged for {case:?}");
                assert_eq!(rout, out, "stdout diverged for {case:?}");
                assert_eq!(rerr, err, "stderr diverged for {case:?}");
                assert!(files.is_empty(), "unexpected files for {case:?}");
            }
            other => panic!("remote {case:?} did not complete: {other:?}"),
        }
    }
}

#[test]
fn repeat_requests_are_served_from_cache() {
    let daemon = Daemon::spawn("cache", &[]);
    let req = request(&[
        "fault",
        "@adders",
        "rippleCarry4",
        "--seed",
        "9",
        "--vectors",
        "32",
    ]);
    let first = raw(&daemon.socket, &req);
    let second = raw(&daemon.socket, &req);
    let (
        Response::Ok {
            code: c1,
            out: o1,
            cached: k1,
            ..
        },
        Response::Ok {
            code: c2,
            out: o2,
            cached: k2,
            ..
        },
    ) = (first, second)
    else {
        panic!("requests did not complete");
    };
    assert_eq!((c1, c2), (0, 0));
    assert_eq!(o1, o2, "cached replay changed the bytes");
    assert!(!k1, "first run cannot be a cache hit");
    assert!(k2, "second identical run should hit the artifact cache");
}

/// Plain and `--opt` campaigns over one design, each sent twice (a miss,
/// then a hit), in both orders: every answer equals a local run. The
/// two runs share a design but have different fault universes, so
/// anything reused between them would show here.
#[test]
fn plain_and_opt_campaigns_interleave_without_crossing_answers() {
    let daemon = Daemon::spawn("interleave", &[]);
    let fault = |extra: &[&'static str]| {
        let mut args = vec!["fault", "@adders", "rippleCarry4", "--vectors", "16"];
        args.extend_from_slice(extra);
        args
    };
    let runs = [
        fault(&["--seed", "1"]),
        fault(&["--seed", "2", "--opt"]),
        fault(&["--seed", "5", "--opt", "--bridges"]),
        fault(&["--seed", "6", "--bridges"]),
    ];
    for args in &runs {
        let (code, out, err) = zeus_cli::run_captured(&argv(args));
        for attempt in ["miss", "hit"] {
            let Response::Ok {
                code: rcode,
                out: rout,
                err: rerr,
                cached,
                ..
            } = raw(&daemon.socket, &request(args))
            else {
                panic!("{args:?} did not complete");
            };
            assert_eq!(
                (rcode, &rout, &rerr),
                (code, &out, &err),
                "{attempt} of {args:?}"
            );
            assert!(attempt == "miss" || cached, "{args:?} was not replayed");
        }
    }
}

#[test]
fn emitted_files_come_back_instead_of_landing_on_the_server() {
    let daemon = Daemon::spawn("emit", &[]);
    let req = request(&[
        "atpg",
        "@adders",
        "rippleCarry4",
        "--seed",
        "5",
        "--emit-vectors",
        "out.vec",
    ]);
    match raw(&daemon.socket, &req) {
        Response::Ok { code, files, .. } => {
            assert_eq!(code, 0);
            assert_eq!(files.len(), 1, "expected exactly the emitted vector set");
            assert_eq!(files[0].0, "out.vec");
            assert!(files[0].1.starts_with("zeus-vectors"), "not a vector set");
        }
        other => panic!("atpg did not complete: {other:?}"),
    }
}

/// Every file under `dir`, as `(path below dir, content)`, sorted.
fn tree(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name, std::fs::read_to_string(e.path()).unwrap())
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Emitted directories travel in the answer: the CNF audit of an
/// `atpg --emit-cnf` (on a miss and on a hit) and the reproducers of a
/// `fuzz --corpus` into a directory that does not exist yet, written by
/// the client through the writer a local run uses, equal a local run's.
/// The path is relative, and the daemon runs in its own directory, so a
/// file the daemon wrote itself never shows up here.
#[test]
fn emitted_directories_equal_a_local_run_miss_and_hit() {
    let daemon = Daemon::spawn("emitdirs", &[]);
    let dir = format!("target/zeusd-emitdirs-{}", std::process::id());
    let out = format!("{dir}/out");
    let cases: [&[&str]; 2] = [
        &[
            "atpg",
            "@counter",
            "counter",
            "4",
            "--seed",
            "7",
            "--sat",
            "--emit-cnf",
            &out,
        ],
        &[
            "fuzz", "--budget", "6", "--chaos", "opt", "--seed", "1", "--corpus", &out,
        ],
    ];
    for case in cases {
        let _ = std::fs::remove_dir_all(&dir);
        let want = zeus_cli::run_captured(&argv(case));
        let want_files = tree(Path::new(&out));
        assert!(!want_files.is_empty(), "{case:?} emitted nothing: {want:?}");
        for attempt in ["miss", "hit"] {
            let _ = std::fs::remove_dir_all(&dir);
            let Response::Ok {
                code,
                out: rout,
                err: rerr,
                files,
                cached,
            } = raw(&daemon.socket, &request(case))
            else {
                panic!("{attempt} of {case:?} did not complete");
            };
            let mut sess = zeus_cli::Session::local();
            for (path, content) in &files {
                if let Err(f) = sess.write_file(path, content) {
                    panic!("{}", f.message());
                }
            }
            assert_eq!((code, rout, rerr), want, "{attempt} of {case:?}");
            assert_eq!(tree(Path::new(&out)), want_files, "{attempt} of {case:?}");
            // Only a successful answer is stored and replayed.
            assert_eq!(cached, attempt == "hit" && want.0 == 0, "{case:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// -------------------------------------------------------------------
// Backpressure: past the queue bound, clients are shed with a hint.
// -------------------------------------------------------------------

#[test]
fn overload_sheds_with_retry_hint() {
    let daemon = Daemon::spawn("overload", &["--workers", "1", "--queue", "1"]);
    let socket = daemon.socket.clone();

    let slow = || request(&slow_campaign("1"));
    let occupier = std::thread::spawn({
        let socket = socket.clone();
        let req = slow();
        move || raw(&socket, &req)
    });
    std::thread::sleep(Duration::from_millis(600)); // worker now busy

    // Fills the single queue slot (a different client id keeps the
    // lanes honest; fairness must not bypass the bound).
    let queued = std::thread::spawn({
        let socket = socket.clone();
        let mut req = slow();
        req.id += 1;
        move || raw(&socket, &req)
    });
    std::thread::sleep(Duration::from_millis(300)); // definitely enqueued

    // Queue full: this one must be shed, not queued.
    let mut third = slow();
    third.id += 2;
    match raw(&socket, &third) {
        Response::Overloaded { retry_after_ms } => {
            assert!(
                (25..=1000).contains(&retry_after_ms),
                "retry hint {retry_after_ms}ms outside the advertised range"
            );
        }
        other => panic!("expected overloaded, got {other:?}"),
    }

    // The shed request cost nothing; the accepted ones still finish.
    for handle in [occupier, queued] {
        match handle.join().unwrap() {
            Response::Ok { code, .. } => assert_eq!(code, 0),
            other => panic!("accepted request failed: {other:?}"),
        }
    }
}

#[test]
fn retrying_client_rides_out_an_overload() {
    let daemon = Daemon::spawn("retry", &["--workers", "1", "--queue", "1"]);
    let socket = daemon.socket.clone();
    let slow = || request(&slow_campaign("1"));
    let occupier = std::thread::spawn({
        let socket = socket.clone();
        let req = slow();
        move || raw(&socket, &req)
    });
    let queued = std::thread::spawn({
        let socket = socket.clone();
        let mut req = slow();
        req.id += 1;
        move || raw(&socket, &req)
    });
    std::thread::sleep(Duration::from_millis(400));

    // The high-level client sees `overloaded` and backs off. Its five
    // attempts usually outlast the burst; under a heavily loaded test
    // box they may not, in which case it reports the documented
    // exhausted-overload exit (3) — which is itself the contract — and
    // we simply invoke it again, as a scripted caller would.
    let args = argv(&[
        "fault",
        "@adders",
        "rippleCarry4",
        "--seed",
        "3",
        "--vectors",
        "16",
    ]);
    let (code, out, _) = zeus_cli::run_captured(&args);
    let mut rounds = 0;
    loop {
        match run_remote(&daemon.opts(), &args) {
            RemoteOutcome::Done { code: 3, err, .. } if err.contains("overloaded") => {
                rounds += 1;
                assert!(rounds < 20, "daemon never freed up: {err}");
                std::thread::sleep(Duration::from_millis(200));
            }
            RemoteOutcome::Done {
                code: rcode,
                out: rout,
                ..
            } => {
                assert_eq!(rcode, code);
                assert_eq!(rout, out, "retried request diverged from local bytes");
                break;
            }
            other => panic!("retrying client gave up: {other:?}"),
        }
    }
    occupier.join().unwrap();
    queued.join().unwrap();
}

// -------------------------------------------------------------------
// Slow clients: a trickled request line holds only its own reader.
// -------------------------------------------------------------------

#[test]
fn a_trickling_client_does_not_hold_up_another() {
    let daemon = Daemon::spawn("trickle", &[]);
    let _slow = Trickler::start(&daemon.socket);
    let case = argv(&[
        "sim",
        "@adders",
        "rippleCarry4",
        "--cycles",
        "4",
        "--seed",
        "7",
    ]);
    let want = zeus_cli::run_captured(&case);
    let start = Instant::now();
    let got = run_remote(&daemon.opts(), &case);
    let took = start.elapsed();
    match got {
        RemoteOutcome::Done { code, out, err, .. } => {
            assert_eq!((code, out, err), want, "remote bytes diverged")
        }
        other => panic!("remote sim did not complete: {other:?}"),
    }
    assert!(
        took < Duration::from_secs(2),
        "a trickling client held another's request for {took:?}"
    );
}

#[test]
fn past_the_reader_bound_a_connection_is_shed_at_once() {
    let daemon = Daemon::spawn("readers", &["--queue", "1"]);
    // The trickler holds the only reader slot.
    let _slow = Trickler::start(&daemon.socket);
    let start = Instant::now();
    match raw(&daemon.socket, &request(&["help"])) {
        Response::Overloaded { retry_after_ms } => assert!(
            (25..=1000).contains(&retry_after_ms),
            "retry hint {retry_after_ms}ms outside the advertised range"
        ),
        other => panic!("expected overloaded, got {other:?}"),
    }
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shed after {took:?}");

    // zeusc reads the same answer, although the daemon closed before
    // reading its request: its retries end in the overload exit.
    match run_remote(&daemon.opts(), &argv(&["help"])) {
        RemoteOutcome::Done { code: 3, err, .. } => {
            assert!(err.contains("overloaded"), "not an overload: {err}")
        }
        other => panic!("expected the persistent-overload exit, got {other:?}"),
    }
}

// -------------------------------------------------------------------
// Panic isolation: a poisoned request answers Z999; the daemon lives.
// -------------------------------------------------------------------

#[test]
fn worker_panic_is_isolated() {
    let daemon = Daemon::spawn("panic", &["--chaos"]);
    let mut poison = request(&["help"]);
    poison.chaos_panic = true;
    match raw(&daemon.socket, &poison) {
        Response::Ok { code, err, .. } => {
            assert_eq!(code, 2, "a panicked request reports a diagnostic exit");
            assert!(err.contains("Z999"), "panic not downgraded to Z999: {err}");
            assert!(err.contains("chaos"), "panic payload lost: {err}");
        }
        other => panic!("expected a Z999 answer, got {other:?}"),
    }
    // The worker that caught the panic is still serving.
    match raw(&daemon.socket, &request(&["help"])) {
        Response::Ok { code, .. } => assert_eq!(code, 0),
        other => panic!("daemon wedged after panic: {other:?}"),
    }
}

#[test]
fn chaos_panic_is_ignored_without_opt_in() {
    let daemon = Daemon::spawn("nochaos", &[]);
    let mut req = request(&["help"]);
    req.chaos_panic = true;
    match raw(&daemon.socket, &req) {
        Response::Ok { code, .. } => assert_eq!(code, 0, "chaos honored without --chaos"),
        other => panic!("request failed: {other:?}"),
    }
}

// -------------------------------------------------------------------
// Hostile request lines: answered `bad_request`; the daemon lives.
// -------------------------------------------------------------------

#[test]
fn malformed_request_lines_get_bad_request() {
    let daemon = Daemon::spawn("badreq", &[]);
    let deep = format!("{{\"id\":1,\"argv\":{}\n", "[".repeat(1_000_000));
    let lines: [&[u8]; 3] = [
        deep.as_bytes(),
        b"{\"id\":1,\"argv\":[\"sim\",\"@add",
        b"this is not json\n",
    ];
    for line in lines {
        match raw_bytes(&daemon.socket, line) {
            Response::BadRequest { .. } => {}
            other => panic!(
                "{:?}… was answered {other:?}",
                String::from_utf8_lossy(&line[..line.len().min(40)])
            ),
        }
    }
    // The daemon still serves, byte for byte.
    let case = argv(&["sim", "@adders", "halfadder"]);
    let (code, out, err) = zeus_cli::run_captured(&case);
    match run_remote(&daemon.opts(), &case) {
        RemoteOutcome::Done {
            code: rcode,
            out: rout,
            err: rerr,
            ..
        } => assert_eq!((rcode, rout, rerr), (code, out, err)),
        other => panic!("daemon stopped serving after bad lines: {other:?}"),
    }
}

// -------------------------------------------------------------------
// Deadlines: a request that burned its budget in the queue gets Z905.
// -------------------------------------------------------------------

#[test]
fn queue_wait_burns_the_deadline() {
    let daemon = Daemon::spawn("deadline", &["--workers", "1"]);
    let socket = daemon.socket.clone();
    let occupier = std::thread::spawn({
        let socket = socket.clone();
        let req = request(&slow_campaign("1"));
        move || raw(&socket, &req)
    });
    std::thread::sleep(Duration::from_millis(400));

    // 10ms of budget cannot survive seconds of queue wait.
    let mut doomed = request(&["help"]);
    doomed.id += 1;
    doomed.deadline_ms = Some(10);
    match raw(&socket, &doomed) {
        Response::Ok { code, err, .. } => {
            assert_eq!(code, 3, "deadline miss is a resource-limit exit");
            assert!(err.contains("Z905"), "wrong deadline diagnostic: {err}");
        }
        other => panic!("expected a Z905 answer, got {other:?}"),
    }
    occupier.join().unwrap();
}

// -------------------------------------------------------------------
// Drain: SIGTERM mid-campaign journals, restart resumes byte-identical.
// -------------------------------------------------------------------

#[test]
fn sigterm_mid_campaign_drains_and_restart_resumes_byte_identical() {
    let mut daemon = Daemon::spawn("drain", &["--workers", "1"]);
    let socket = daemon.socket.clone();
    let parts = slow_campaign("4");
    let req = request(&parts);

    let in_flight = std::thread::spawn({
        let socket = socket.clone();
        let req = req.clone();
        move || raw(&socket, &req)
    });
    // Let the campaign get well into its fault list, then pull the plug.
    std::thread::sleep(Duration::from_millis(900));
    daemon.signal_term();

    // Connections made once the drain has begun, at once and once the
    // daemon has surely stopped listening, are refused or answered
    // `shutting_down` at once: none waits on the in-flight work.
    for pause in [0, 200] {
        std::thread::sleep(Duration::from_millis(pause));
        let start = Instant::now();
        if let Ok(mut stream) = UnixStream::connect(&socket) {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut line = request(&["help"]).encode();
            line.push('\n');
            let _ = stream.write_all(line.as_bytes());
            let mut answer = String::new();
            // A reset reads as an error: refused as well.
            if BufReader::new(stream).read_line(&mut answer).is_ok() && !answer.is_empty() {
                assert_eq!(
                    Response::decode(answer.trim_end()),
                    Ok(Response::ShuttingDown),
                    "a connection {pause} ms into the drain"
                );
            }
        }
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "a connection {pause} ms into the drain waited {took:?}"
        );
    }
    daemon.wait_exit();

    // The in-flight request was not dropped: it answered with partial
    // results and the interrupted exit code, exactly like local Ctrl-C.
    match in_flight.join().unwrap() {
        Response::Ok {
            code: 130,
            out,
            err,
            ..
        } => {
            assert!(out.contains("PARTIAL"), "no partial marker in:\n{out}");
            assert!(
                err.contains("interrupted"),
                "missing interruption notice: {err}"
            );
            // The flushed journal is what makes the resume cheap.
            let journals: Vec<_> = std::fs::read_dir(daemon.root.join("cache/journals"))
                .unwrap()
                .flatten()
                .collect();
            assert_eq!(journals.len(), 1, "campaign journal not flushed on drain");
            let journal = std::fs::read_to_string(journals[0].path()).unwrap();
            assert!(
                journal.lines().count() >= 2,
                "journal holds a header and at least one completed word:\n{journal}"
            );
        }
        Response::Ok { code: 0, .. } => {
            // The campaign beat the signal — legal, nothing to resume.
        }
        other => panic!("drained request mishandled: {other:?}"),
    }

    // Restart over the same cache; the same request resumes from the
    // journal and the final report is byte-identical to a local
    // uninterrupted run.
    let root = daemon.root.clone();
    std::mem::forget(std::mem::replace(
        &mut daemon,
        Daemon::spawn_at(root, &["--workers", "1"]),
    ));
    let (code, out, err) = zeus_cli::run_captured(&argv(&parts));
    match raw(&daemon.socket, &req) {
        Response::Ok {
            code: rcode,
            out: rout,
            err: rerr,
            ..
        } => {
            assert_eq!(rcode, code);
            assert_eq!(rout, out, "resumed report diverged from local bytes");
            assert_eq!(rerr, err, "resumed stderr diverged from local bytes");
        }
        other => panic!("resume request failed: {other:?}"),
    }
    // Completion cleans the journal up.
    assert_eq!(
        std::fs::read_dir(daemon.root.join("cache/journals"))
            .unwrap()
            .flatten()
            .count(),
        0,
        "journal not removed after the resumed campaign completed"
    );
}

#[test]
fn draining_daemon_tells_clients_to_go_away() {
    let mut daemon = Daemon::spawn("drainreject", &["--workers", "1", "--queue", "4"]);
    let socket = daemon.socket.clone();
    let occupier = std::thread::spawn({
        let socket = socket.clone();
        let req = request(&slow_campaign("1"));
        move || raw(&socket, &req)
    });
    let queued = std::thread::spawn({
        let socket = socket.clone();
        let mut req = request(&slow_campaign("2"));
        req.id += 1;
        move || raw(&socket, &req)
    });
    std::thread::sleep(Duration::from_millis(700));
    daemon.terminate();

    // The queued-but-unstarted request is answered, not dropped.
    let answers = [occupier.join().unwrap(), queued.join().unwrap()];
    assert!(
        answers.iter().any(|r| matches!(r, Response::ShuttingDown)),
        "no shutting_down answer among {answers:?}"
    );
}

#[test]
fn sigterm_does_not_wait_on_a_trickling_client() {
    let mut daemon = Daemon::spawn("trickleterm", &[]);
    let _slow = Trickler::start(&daemon.socket);
    let start = Instant::now();
    daemon.terminate();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(2), "drain took {took:?}");
}

/// The acceptor is woken without the socket file: a drain after the
/// file was unlinked is as prompt as any.
#[test]
fn sigterm_drains_after_the_socket_file_was_unlinked() {
    let mut daemon = Daemon::spawn("unlinked", &[]);
    std::fs::remove_file(&daemon.socket).unwrap();
    let start = Instant::now();
    daemon.terminate();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "drain took {took:?}");
}

/// Every reader waiting in `accept` wakes in the drain, not just one:
/// three slow lines grow the pool to four readers, which all wait in
/// `accept` again once those clients leave. The socket file is gone, so
/// only the listening socket itself can wake them.
#[test]
fn sigterm_wakes_every_idle_reader() {
    let mut daemon = Daemon::spawn("idlereaders", &[]);
    drop(
        (0..3)
            .map(|_| Trickler::start(&daemon.socket))
            .collect::<Vec<_>>(),
    );
    std::thread::sleep(Duration::from_millis(200));
    std::fs::remove_file(&daemon.socket).unwrap();
    let start = Instant::now();
    daemon.terminate();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "drain took {took:?}");
}

/// Requests one at a time reuse the reader pool: zeusd keeps its main
/// thread, its worker and two readers however many it serves. Each
/// line read while every reader is busy adds one reader.
#[cfg(target_os = "linux")]
#[test]
fn the_reader_pool_grows_only_while_every_reader_is_busy() {
    let daemon = Daemon::spawn("pool", &["--workers", "1"]);
    let threads = || {
        let status = std::fs::read_to_string(format!("/proc/{}/status", daemon.child.id()));
        let status = status.expect("zeusd's /proc status");
        let line = status.lines().find(|l| l.starts_with("Threads:"));
        line.and_then(|l| l[8..].trim().parse::<usize>().ok())
            .expect("a Threads: line")
    };
    // The pool never shrinks before the drain, so the count settles.
    let settles_at = |want: usize, what: &str| {
        let start = Instant::now();
        while threads() != want {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "{} threads, not {want}: {what}",
                threads()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let serve = || match raw(&daemon.socket, &request(&["help"])) {
        Response::Ok { code: 0, .. } => {}
        other => panic!("help failed: {other:?}"),
    };
    for _ in 0..20 {
        serve();
    }
    settles_at(4, "main, worker and two readers");
    let _slow: Vec<Trickler> = (0..3).map(|_| Trickler::start(&daemon.socket)).collect();
    settles_at(6, "the third slow line found every reader busy");
    for _ in 0..20 {
        serve();
    }
    settles_at(7, "one reader more than the slow lines hold");
}

/// A daemon started on the same path replaces the socket file; the
/// first daemon's drain leaves the successor's file, and so its
/// service, alone.
#[test]
fn a_drain_leaves_a_successors_socket_file_alone() {
    let mut first = Daemon::spawn("successor", &[]);
    let socket = first.socket.clone();
    let replaced = std::fs::metadata(&socket).unwrap().ino();
    let root = first.root.join("second");
    let second = Daemon {
        child: Command::new(env!("CARGO_BIN_EXE_zeusd"))
            .arg("--socket")
            .arg(&socket)
            .arg("--cache")
            .arg(root.join("cache"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn zeusd"),
        socket: socket.clone(),
        root,
    };
    let start = Instant::now();
    while std::fs::metadata(&socket).map(|m| m.ino()).ok() == Some(replaced) {
        assert!(start.elapsed() < Duration::from_secs(20), "never replaced");
        std::thread::sleep(Duration::from_millis(20));
    }
    first.terminate();
    match raw(&second.socket, &request(&["help"])) {
        Response::Ok { code: 0, .. } => {}
        other => panic!("the successor stopped serving: {other:?}"),
    }
}

// -------------------------------------------------------------------
// Cache-hit latency vs a cold run.
// -------------------------------------------------------------------

#[test]
fn cache_hit_latency_beats_cold_by_a_wide_margin() {
    let daemon = Daemon::spawn("bench", &[]);
    // The cold run must cost well above the warm one's transport and
    // store read: about half of blackjack's faults stay undetected, so
    // they run all 128 vectors.
    let req = request(&[
        "fault",
        "@blackjack",
        "blackjack",
        "--seed",
        "6",
        "--vectors",
        "128",
    ]);

    let cold_start = Instant::now();
    let cold = raw(&daemon.socket, &req);
    let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    assert!(matches!(
        cold,
        Response::Ok {
            code: 0,
            cached: false,
            ..
        }
    ));

    let warm_start = Instant::now();
    let warm = raw(&daemon.socket, &req);
    let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
    let Response::Ok {
        code: 0,
        cached: true,
        out,
        ..
    } = warm
    else {
        panic!("warm request missed the cache: {warm:?}");
    };
    let Response::Ok { out: cold_out, .. } = cold else {
        unreachable!()
    };
    assert_eq!(out, cold_out, "cache changed the bytes");

    let speedup = cold_ms / warm_ms.max(0.001);
    println!("cache-hit latency: cold {cold_ms:.2} ms, warm {warm_ms:.2} ms ({speedup:.1}x)");
    // ≥10x is typical (full campaign vs one disk read); assert a slack
    // 2x so a loaded CI box cannot flake the build.
    assert!(
        speedup >= 2.0,
        "cache hit barely helped: cold {cold_ms:.1}ms, warm {warm_ms:.1}ms"
    );
}
