//! `zeusc` — command-line driver for the Zeus HDL toolchain.
//!
//! A thin shell over the [`zeus_cli`] library, which holds all the
//! parsing, dispatch and formatting (shared with the `zeusd` daemon):
//! this binary only decides *where* the command runs.
//!
//! * By default, locally: a [`zeus_cli::Session`] captures the output,
//!   which is flushed to stdout/stderr at the end (broken pipes are
//!   ignored — `zeusc ... | head` must not panic).
//! * With `--remote SOCKET`, against a running `zeusd`: the command
//!   line and the input files a local run would read are shipped over
//!   the socket, and the daemon's answer (bytes, exit code, emitted
//!   files, written through the same writer a local run uses) is
//!   mirrored exactly. Transient failures (`overloaded`, connection
//!   refused) are retried with exponential backoff; see
//!   `zeus_cli::remote`.
//! * With `--remote-or-local SOCKET`, the same, but an unreachable
//!   daemon degrades to a local run with a warning instead of an error.
//!
//! Run `zeusc help` for the command list and the exit-code contract
//! (0 success, 1 usage/IO, 2 diagnostics, 3 resource limit, 130
//! interrupted).

use std::process::ExitCode;

/// Writes captured bytes to a stream, ignoring broken pipes.
fn flush_to(stream: &mut dyn std::io::Write, bytes: &str) {
    let _ = stream.write_all(bytes.as_bytes());
}

fn run_local(args: &[String]) -> ExitCode {
    let mut sess = zeus_cli::Session::local();
    #[cfg(unix)]
    if matches!(
        args.first().map(String::as_str),
        Some("fault") | Some("atpg")
    ) {
        zeus_cli::sigint::install();
        sess.cancel = Some(&zeus_cli::sigint::INTERRUPTED);
    }
    let code = zeus_cli::run_to_completion(args, &mut sess);
    flush_to(&mut std::io::stdout(), &sess.out);
    flush_to(&mut std::io::stderr(), &sess.err);
    ExitCode::from(code)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    #[cfg(unix)]
    {
        let remote = match zeus_cli::remote::extract_remote_flags(&mut args) {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(1);
            }
        };
        if let Some(opts) = remote {
            match zeus_cli::remote::run_remote(&opts, &args) {
                zeus_cli::remote::RemoteOutcome::Done {
                    code,
                    out,
                    err,
                    files,
                } => {
                    let mut sess = zeus_cli::Session::local();
                    for (path, content) in &files {
                        if let Err(f) = sess.write_file(path, content) {
                            eprintln!("{}", f.message());
                            return ExitCode::from(f.code());
                        }
                    }
                    flush_to(&mut std::io::stdout(), &out);
                    flush_to(&mut std::io::stderr(), &err);
                    return ExitCode::from(code);
                }
                zeus_cli::remote::RemoteOutcome::Fallback(warning) => {
                    eprintln!("{warning}");
                    // Fall through to the local path below.
                }
            }
        }
    }

    run_local(&args)
}
