//! The `zeusc --remote` client: ships a command line to a `zeusd`
//! daemon and retries transient failures with exponential backoff.
//!
//! Retry contract (documented in `docs/DAEMON.md`):
//!
//! * **overloaded** responses and **connection failures** are retried
//!   up to [`MAX_ATTEMPTS`] times with exponential backoff starting at
//!   [`BASE_BACKOFF_MS`], doubling per attempt, plus up to 50% random
//!   jitter (decorrelates a burst of clients all told to come back
//!   later). An `overloaded` response's `retry_after_ms` hint is a
//!   floor under the computed backoff.
//! * **shutting_down** is treated like a connection failure: a
//!   replacement daemon may be seconds away.
//! * When retries are exhausted: persistent overload exits 3 (a
//!   resource limit, same class as `Z905`); an unreachable daemon exits
//!   1 — unless the user passed `--remote-or-local`, in which case the
//!   client warns on stderr and falls back to local execution.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use crate::proto::{Request, Response};

/// Total tries per request (1 initial + 4 retries).
pub const MAX_ATTEMPTS: u32 = 5;

/// The longest usable `AF_UNIX` socket path on this platform, in bytes:
/// `sun_path` is 108 bytes on Linux and 104 on the BSD family (macOS),
/// one of which the kernel needs for the NUL terminator. Checked up
/// front so an over-long `--remote` path is a clear usage error instead
/// of a confusing `connect()` failure from the OS.
#[cfg(any(
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd"
))]
pub const MAX_SOCKET_PATH: usize = 103;
/// The longest usable `AF_UNIX` socket path on this platform, in bytes.
#[cfg(not(any(
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd"
)))]
pub const MAX_SOCKET_PATH: usize = 107;

/// First backoff delay; doubles each retry (25, 50, 100, 200 ms).
pub const BASE_BACKOFF_MS: u64 = 25;

/// How the client should reach the daemon.
#[derive(Debug, Clone)]
pub struct RemoteOpts {
    /// The daemon's Unix socket path.
    pub socket: PathBuf,
    /// Fall back to local execution (with a warning) when the daemon
    /// cannot be reached (`--remote-or-local`).
    pub fallback_local: bool,
}

/// The final word on one remote invocation.
#[derive(Debug)]
pub enum RemoteOutcome {
    /// The daemon answered: mirror these bytes and exit with `code`
    /// after writing `files`.
    Done {
        /// Exit code of the equivalent local run.
        code: u8,
        /// stdout bytes.
        out: String,
        /// stderr bytes.
        err: String,
        /// Files to write locally, as `(path, content)`.
        files: Vec<(String, String)>,
    },
    /// Run locally instead; print this warning on stderr first.
    Fallback(String),
}

/// Extracts `--remote SOCKET` / `--remote-or-local SOCKET` (either
/// position, `=` form accepted) from the argument list, removing them.
///
/// # Errors
///
/// A usage message (exit 1) for a missing value or both flags at once.
pub fn extract_remote_flags(args: &mut Vec<String>) -> Result<Option<RemoteOpts>, String> {
    let mut found: Option<RemoteOpts> = None;
    let mut i = 0;
    while i < args.len() {
        let (name, inline) = match args[i].split_once('=') {
            Some((n, v)) => (n.to_string(), Some(v.to_string())),
            None => (args[i].clone(), None),
        };
        if name != "--remote" && name != "--remote-or-local" {
            i += 1;
            continue;
        }
        if found.is_some() {
            return Err("pass only one of --remote / --remote-or-local".to_string());
        }
        let socket = match inline {
            Some(v) => {
                args.remove(i);
                v
            }
            None => {
                if i + 1 >= args.len() {
                    return Err(format!("{name} needs a socket path"));
                }
                let v = args.remove(i + 1);
                args.remove(i);
                v
            }
        };
        if socket.len() > MAX_SOCKET_PATH {
            return Err(format!(
                "error[Z401]: socket path is {} bytes, but AF_UNIX paths are limited to \
                 {MAX_SOCKET_PATH} bytes on this platform; use a shorter path (e.g. under /tmp): \
                 '{socket}'",
                socket.len()
            ));
        }
        found = Some(RemoteOpts {
            socket: PathBuf::from(socket),
            fallback_local: name == "--remote-or-local",
        });
    }
    Ok(found)
}

/// Cheap random jitter without a dependency: the randomly-seeded
/// default hasher state, hashed once.
fn jitter_ms(max: u64) -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    if max == 0 {
        return 0;
    }
    RandomState::new().build_hasher().finish() % max
}

/// One request/response exchange over a fresh connection.
fn exchange(opts: &RemoteOpts, line: &str) -> Result<Response, String> {
    let mut stream = UnixStream::connect(&opts.socket)
        .map_err(|e| format!("cannot connect to {}: {e}", opts.socket.display()))?;
    // Generous guard rails so a wedged daemon cannot hang the client
    // forever; the server's own deadline fires well before these.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_read_timeout(Some(Duration::from_secs(600)));
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("cannot send request: {e}"))?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut buf = String::new();
    stream
        .read_to_string(&mut buf)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let line = buf.lines().next().unwrap_or("");
    if line.is_empty() {
        return Err("daemon closed the connection without responding".to_string());
    }
    Response::decode(line).map_err(|e| format!("malformed response: {e}"))
}

/// Runs `argv` against the daemon, with retries per the module docs.
/// The input files a local run would read are read here and inlined in
/// the request; one that cannot be read fails right here, with the
/// message and exit code of the local run.
pub fn run_remote(opts: &RemoteOpts, argv: &[String]) -> RemoteOutcome {
    let sources = match crate::local_inputs(argv) {
        Ok(sources) => sources,
        Err(f) => {
            return RemoteOutcome::Done {
                code: f.code(),
                out: String::new(),
                err: format!("{}\n", f.message()),
                files: Vec::new(),
            }
        }
    };
    let req = Request {
        id: std::process::id().into(),
        argv: argv.to_vec(),
        sources,
        deadline_ms: None,
        chaos_panic: false,
    };
    let line = req.encode();
    let mut last_error = String::new();
    let mut saw_overload = false;
    for attempt in 0..MAX_ATTEMPTS {
        if attempt > 0 {
            let backoff = BASE_BACKOFF_MS << (attempt - 1);
            std::thread::sleep(Duration::from_millis(backoff + jitter_ms(backoff / 2 + 1)));
        }
        match exchange(opts, &line) {
            Ok(Response::Ok {
                code,
                out,
                err,
                files,
                ..
            }) => {
                return RemoteOutcome::Done {
                    code,
                    out,
                    err,
                    files,
                }
            }
            Ok(Response::Overloaded { retry_after_ms }) => {
                saw_overload = true;
                last_error = "daemon overloaded".to_string();
                // Honor the server's hint as a floor before the next
                // attempt's computed backoff kicks in.
                std::thread::sleep(Duration::from_millis(retry_after_ms));
            }
            Ok(Response::ShuttingDown) => {
                last_error = "daemon is shutting down".to_string();
            }
            Ok(Response::BadRequest { msg }) => {
                return RemoteOutcome::Done {
                    code: 1,
                    out: String::new(),
                    err: format!("daemon rejected the request: {msg}\n"),
                    files: Vec::new(),
                }
            }
            Err(e) => {
                last_error = e;
            }
        }
    }
    if opts.fallback_local {
        return RemoteOutcome::Fallback(format!(
            "warning: {last_error} after {MAX_ATTEMPTS} attempts; running locally"
        ));
    }
    let code = if saw_overload { 3 } else { 1 };
    RemoteOutcome::Done {
        code,
        out: String::new(),
        err: format!(
            "error: {last_error} after {MAX_ATTEMPTS} attempts (socket {})\n",
            opts.socket.display()
        ),
        files: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extracts_remote_flag_anywhere() {
        let mut a = argv(&["sim", "--remote", "/tmp/z.sock", "@adders", "halfadder"]);
        let opts = extract_remote_flags(&mut a).unwrap().unwrap();
        assert_eq!(opts.socket, PathBuf::from("/tmp/z.sock"));
        assert!(!opts.fallback_local);
        assert_eq!(a, argv(&["sim", "@adders", "halfadder"]));

        let mut b = argv(&["fault", "@adders", "rippleCarry4", "--remote-or-local=/x"]);
        let opts = extract_remote_flags(&mut b).unwrap().unwrap();
        assert!(opts.fallback_local);
        assert_eq!(b, argv(&["fault", "@adders", "rippleCarry4"]));
    }

    #[test]
    fn rejects_conflicting_and_valueless_remote_flags() {
        let mut a = argv(&["sim", "--remote", "/a", "--remote-or-local", "/b"]);
        assert!(extract_remote_flags(&mut a).is_err());
        let mut b = argv(&["sim", "--remote"]);
        assert!(extract_remote_flags(&mut b).is_err());
    }

    #[test]
    fn overlong_socket_path_is_a_clear_usage_error() {
        // One byte past the platform limit: must be rejected up front
        // with a Z-coded message, not handed to connect(2).
        let long = format!("/tmp/{}", "s".repeat(MAX_SOCKET_PATH - 4));
        assert_eq!(long.len(), MAX_SOCKET_PATH + 1);
        let mut a = argv(&["sim", "--remote", &long, "@adders", "halfadder"]);
        let err = extract_remote_flags(&mut a).expect_err("over-long path rejected");
        assert!(err.contains("Z401"), "{err}");
        assert!(err.contains("AF_UNIX"), "{err}");
        assert!(err.contains(&format!("{MAX_SOCKET_PATH} bytes")), "{err}");
        // Exactly at the limit is fine (the parse layer's job ends here;
        // whether the socket exists is connect()'s business).
        let ok = format!("/tmp/{}", "s".repeat(MAX_SOCKET_PATH - 5));
        let mut b = argv(&["sim", "--remote", &ok, "@adders", "halfadder"]);
        assert!(extract_remote_flags(&mut b).unwrap().is_some());
    }

    #[test]
    fn no_remote_flags_is_none() {
        let mut a = argv(&["sim", "@adders", "halfadder"]);
        assert!(extract_remote_flags(&mut a).unwrap().is_none());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn ships_the_inputs_a_local_run_reads() {
        let dir = std::env::temp_dir().join(format!("zeus-remote-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("a.zeus");
        std::fs::write(&src, "TYPE t = ...").unwrap();
        let src = src.to_str().unwrap();
        let vecs = dir.join("v.txt");
        std::fs::write(&vecs, "zeus-vectors").unwrap();
        let vecs = vecs.to_str().unwrap();
        let journal = dir.join("j.json");
        std::fs::write(&journal, "{}").unwrap();
        // The program file and --vectors-file, never a flag value that
        // happens to name a file, nor a bundled example.
        let srcs = crate::local_inputs(&argv(&[
            "fault",
            src,
            "halfadder",
            "--vectors-file",
            vecs,
            "--checkpoint",
            journal.to_str().unwrap(),
        ]))
        .unwrap_or_else(|f| panic!("{}", f.message()));
        assert_eq!(
            srcs,
            [
                (src.to_string(), "TYPE t = ...".to_string()),
                (vecs.to_string(), "zeus-vectors".to_string())
            ]
        );
        let example = crate::local_inputs(&argv(&["sim", "@adders", src])).ok();
        assert_eq!(example, Some(Vec::new()));
        // Help and a bad flag read nothing; the daemon answers them.
        for args in [
            ["sim", "missing.zeus", "--help"],
            ["sim", "missing.zeus", "--bogus"],
        ] {
            assert_eq!(crate::local_inputs(&argv(&args)).ok(), Some(Vec::new()));
        }
        // An unreadable input fails with the local run's message.
        let missing = argv(&[
            "fault",
            "@adders",
            "rippleCarry4",
            "--vectors-file",
            "missing.txt",
        ]);
        let (code, _, err) = crate::run_captured(&missing);
        match run_remote(
            &RemoteOpts {
                socket: dir.join("no.sock"),
                fallback_local: false,
            },
            &missing,
        ) {
            RemoteOutcome::Done {
                code: rcode,
                err: rerr,
                ..
            } => assert_eq!((rcode, rerr), (code, err)),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
