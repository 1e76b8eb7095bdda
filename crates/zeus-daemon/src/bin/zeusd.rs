//! `zeusd` binary: flag parsing and signal wiring around
//! [`zeus_daemon::run`].

#![cfg(unix)]

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

const USAGE: &str = "\
usage: zeusd --socket PATH --cache DIR [options]

options:
  --socket PATH        Unix socket to listen on (required)
  --cache DIR          store root for cached artifacts (required)
  --workers N          worker threads (default 2)
  --queue N            admission bound: request lines read at once, and
                       requests queued, before shedding (default 32)
  --deadline-ms N      default/maximum per-request deadline (default 300000)
  --chaos              honor chaos_panic request hooks (tests only)
  --chaos-fail-every N inject a store write failure every Nth write
  --chaos-tear-every N tear (half-write) every Nth store write

SIGTERM or SIGINT drains gracefully: queued requests are answered
shutting_down, in-flight campaigns flush their checkpoint journals,
then the daemon exits. A restart recovers the cache, quarantining any
entry torn by a crash.";

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_shutdown_signal(_sig: i32) {
    zeus_daemon::SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Parses `--flag N` where the value must be a number.
fn num_value(args: &mut std::slice::Iter<String>, flag: &str) -> Result<u64, String> {
    args.next()
        .ok_or_else(|| format!("{flag} requires a value"))?
        .parse()
        .map_err(|_| format!("{flag} requires a number"))
}

fn parse(args: &[String]) -> Result<zeus_daemon::ServerConfig, String> {
    let mut cfg = zeus_daemon::ServerConfig::default();
    let mut socket = None;
    let mut cache = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                socket = Some(it.next().ok_or("--socket requires a path")?.into());
            }
            "--cache" => {
                cache = Some(it.next().ok_or("--cache requires a directory")?.into());
            }
            "--workers" => {
                cfg.workers = num_value(&mut it, "--workers")?.max(1) as usize;
            }
            "--queue" => {
                cfg.queue_limit = num_value(&mut it, "--queue")?.max(1) as usize;
            }
            "--deadline-ms" => {
                let ms = num_value(&mut it, "--deadline-ms")?;
                if ms == 0 {
                    return Err("--deadline-ms must be at least 1".to_string());
                }
                cfg.default_deadline = Duration::from_millis(ms);
            }
            "--chaos" => cfg.chaos = true,
            "--chaos-fail-every" => {
                cfg.chaos_fail_every = num_value(&mut it, "--chaos-fail-every")?;
            }
            "--chaos-tear-every" => {
                cfg.chaos_tear_every = num_value(&mut it, "--chaos-tear-every")?;
            }
            "--help" | "help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    cfg.socket = socket.ok_or(format!("--socket is required\n\n{USAGE}"))?;
    cfg.cache_dir = cache.ok_or(format!("--cache is required\n\n{USAGE}"))?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };

    // Graceful drain on both the service signal (TERM) and a terminal
    // Ctrl-C (INT). The handler only flips an atomic; the server
    // notices within 25 ms and wakes its readers blocked in accept.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal as *const () as usize);
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
    }

    match zeus_daemon::run(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zeusd: {e}");
            ExitCode::from(1)
        }
    }
}
