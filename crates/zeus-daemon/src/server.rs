//! The `zeusd` server loop: bounded fair queue, worker pool, deadlines,
//! panic isolation and graceful drain.
//!
//! # Lifecycle
//!
//! [`run`] binds the Unix socket, opens (and recovers) the store, spawns
//! the worker pool and accepts connections until [`SHUTDOWN`] goes high
//! (the binary raises it from its SIGTERM/SIGINT handlers). One request
//! travels per connection: a single JSON line in, a single JSON line
//! out (see `zeus_cli::proto`).
//!
//! # Backpressure
//!
//! The queue is bounded. When it is full the acceptor answers
//! `overloaded` immediately — with a `retry_after_ms` hint scaled to
//! the backlog — rather than letting latency grow without bound.
//! Within the bound, jobs are scheduled fairly: each client (keyed by
//! the request `id`, which `zeusc` sets to its process id) gets its own
//! FIFO lane and workers round-robin across lanes, so one client
//! bursting 50 requests cannot starve another's single request.
//!
//! # Deadlines
//!
//! Every request carries a deadline from the moment it is accepted:
//! the client's `deadline_ms` clamped to the server maximum, or the
//! server default. Queue wait burns deadline — that is the point; a
//! request that waited too long is answered with a Z905 error instead
//! of being executed late. During execution the remaining budget is
//! merged into the limits every engine runs under (a fault campaign's
//! and an ATPG run's deadline included), so a stuck request cannot
//! wedge a worker. The deadline never changes an answer: a command that
//! ends past it answers Z905 (exit 3), and nothing is stored.
//!
//! # Panic isolation
//!
//! The whole command runs inside `zeus::catch_panic`. A panicking
//! request — a compiler bug, or the `chaos_panic` test hook — poisons
//! nothing: the client gets a Z-coded internal error and the worker
//! moves on to the next job.
//!
//! # Drain
//!
//! On shutdown the acceptor answers new connections with
//! `shutting_down`, queued-but-unstarted jobs are answered
//! `shutting_down`, and in-flight jobs see the shared cancel flag:
//! campaigns stop in their golden trace or at the next fault word,
//! flush their checkpoint journal (kept under the store root), and
//! report partial results.
//! A restarted daemon resumes those journals automatically when the
//! same request returns.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use zeus_cli::proto::{Request, Response};
use zeus_cli::Session;

use crate::store::Store;

/// Raised by the binary's signal handlers (and by tests) to start a
/// graceful drain. Shared with every in-flight `Session` as its cancel
/// flag, which the session puts in each fault campaign's and ATPG run's
/// `Limits::cancel`: raising it stops a golden trace within 64 ticks
/// and a run at its next fault word or ATPG fault (in-flight words and
/// searches finish).
pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Store root (objects, quarantine, journals).
    pub cache_dir: PathBuf,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Maximum queued (accepted but unstarted) requests before the
    /// acceptor sheds load.
    pub queue_limit: usize,
    /// Default and maximum per-request deadline.
    pub default_deadline: Duration,
    /// Honor the `chaos_panic` request hook (tests only).
    pub chaos: bool,
    /// Inject a store write failure every Nth write (0 = off).
    pub chaos_fail_every: u64,
    /// Tear every Nth store write (0 = off).
    pub chaos_tear_every: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            socket: PathBuf::from("zeusd.sock"),
            cache_dir: PathBuf::from("zeusd-cache"),
            workers: 2,
            queue_limit: 32,
            default_deadline: Duration::from_secs(300),
            chaos: false,
            chaos_fail_every: 0,
            chaos_tear_every: 0,
        }
    }
}

/// One accepted request waiting for a worker.
struct Job {
    stream: UnixStream,
    req: Request,
    deadline: Instant,
}

/// Per-client FIFO lanes plus a round-robin cursor. Every lane holds at
/// least one job: a lane is removed when it empties, so the lanes scanned
/// under the mutex are the clients with queued work, not every client
/// ever seen.
struct QueueInner {
    lanes: Vec<(u64, VecDeque<Job>)>,
    cursor: usize,
    len: usize,
    draining: bool,
}

struct Queue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    limit: usize,
}

fn unpoisoned<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Queue {
    fn new(limit: usize) -> Queue {
        Queue {
            inner: Mutex::new(QueueInner {
                lanes: Vec::new(),
                cursor: 0,
                len: 0,
                draining: false,
            }),
            ready: Condvar::new(),
            limit,
        }
    }

    /// Enqueues into the client's lane, or reports the backlog size
    /// when the bound is hit (the caller sheds the request).
    fn push(&self, job: Job) -> Result<(), (Job, usize)> {
        let mut q = unpoisoned(self.inner.lock());
        if q.len >= self.limit {
            let backlog = q.len;
            return Err((job, backlog));
        }
        let client = job.req.id;
        match q.lanes.iter_mut().find(|(id, _)| *id == client) {
            Some((_, lane)) => lane.push_back(job),
            None => {
                let mut lane = VecDeque::new();
                lane.push_back(job);
                q.lanes.push((client, lane));
            }
        }
        q.len += 1;
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops the next job, round-robining across client lanes. Returns
    /// `None` once the queue is draining and empty (worker exit).
    fn pop(&self) -> Option<Job> {
        let mut q = unpoisoned(self.inner.lock());
        loop {
            if q.len > 0 {
                let i = q.cursor % q.lanes.len();
                let Some(job) = q.lanes[i].1.pop_front() else {
                    unreachable!("queue holds an empty lane");
                };
                // An emptied lane leaves; the next lane then slides into
                // slot `i` and is served next, keeping the rotation.
                if q.lanes[i].1.is_empty() {
                    q.lanes.remove(i);
                    q.cursor = i;
                } else {
                    q.cursor = i + 1;
                }
                q.len -= 1;
                return Some(job);
            }
            if q.draining {
                return None;
            }
            q = unpoisoned(self.ready.wait_timeout(q, Duration::from_millis(100))).0;
        }
    }

    /// Flips to draining and hands back every unstarted job so the
    /// caller can answer `shutting_down`.
    fn drain(&self) -> Vec<Job> {
        let mut q = unpoisoned(self.inner.lock());
        q.draining = true;
        let orphans = q.lanes.drain(..).flat_map(|(_, lane)| lane).collect();
        q.len = 0;
        drop(q);
        self.ready.notify_all();
        orphans
    }
}

/// Writes one response line and closes the write half; errors are
/// ignored (the client may already be gone).
fn respond(stream: &mut UnixStream, resp: &Response) {
    let mut line = resp.encode();
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Executes one request against the store and answers the client.
fn handle(job: Job, store: &Store, cfg: &ServerConfig) {
    let Job {
        mut stream,
        req,
        deadline,
    } = job;

    if Instant::now() >= deadline {
        // Burned its whole budget in the queue: answering late with a
        // real result would be worse than this honest limit error.
        respond(
            &mut stream,
            &Response::Ok {
                code: 3,
                out: String::new(),
                err: "error[Z905] request deadline exceeded before execution\n".to_string(),
                files: Vec::new(),
                cached: false,
            },
        );
        return;
    }

    let sources: HashMap<String, String> = req.sources.iter().cloned().collect();
    let chaos_panic = cfg.chaos && req.chaos_panic;
    let journal_dir = store.journal_dir();
    let argv = req.argv.clone();

    let outcome = zeus::catch_panic(move || {
        if chaos_panic {
            panic!("chaos: injected worker panic");
        }
        let mut sess = Session {
            sources: Some(&sources),
            cancel: Some(&SHUTDOWN),
            deadline: Some(deadline),
            cache: Some(store),
            journal_dir: Some(journal_dir),
            ..Session::default()
        };
        let code = zeus_cli::run_to_completion(&argv, &mut sess);
        (code, sess.out, sess.err, sess.emitted, sess.cache_hits)
    });

    let resp = match outcome {
        Ok((code, out, err, files, cache_hits)) => Response::Ok {
            code,
            out,
            err,
            files,
            cached: cache_hits > 0,
        },
        // The worker survives the panic; the client gets the Z-coded
        // internal error a local zeusc crash would have printed.
        Err(diag) => Response::Ok {
            code: 2,
            out: String::new(),
            err: format!("{diag}\n"),
            files: Vec::new(),
            cached: false,
        },
    };
    respond(&mut stream, &resp);
}

/// How long a client may take to send its whole request line.
const REQUEST_LINE_TIMEOUT: Duration = Duration::from_secs(10);

/// Reads the single request line from a fresh connection, giving the
/// whole line one `timeout` (a socket read timeout alone restarts on
/// every byte, so a client trickling bytes could hold the acceptor
/// forever). `None` on timeout, disconnect, or unreadable bytes (the
/// connection is simply dropped — there is nothing to answer).
fn read_request_line(stream: &UnixStream, timeout: Duration) -> Option<String> {
    let deadline = Instant::now() + timeout;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return None;
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        };
        if buf.is_empty() {
            break;
        }
        let (take, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if done {
            break;
        }
    }
    if line.is_empty() {
        return None;
    }
    String::from_utf8(line).ok()
}

/// Runs the daemon until [`SHUTDOWN`] goes high, then drains. Returns
/// after the socket file is removed and all workers have exited.
///
/// # Errors
///
/// Socket binding or store-directory creation failures; everything
/// after startup is handled (or answered) in-band.
pub fn run(cfg: &ServerConfig) -> std::io::Result<()> {
    let (store, recovery) = Store::open(&cfg.cache_dir)?;
    store.chaos_fail_every(cfg.chaos_fail_every);
    store.chaos_tear_every(cfg.chaos_tear_every);
    eprintln!(
        "zeusd: store {} — {}",
        cfg.cache_dir.display(),
        recovery.summary()
    );

    // A stale socket file from a crashed predecessor would make bind
    // fail; the store recovery above already proved the cache is ours.
    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)?;
    listener.set_nonblocking(true)?;
    eprintln!(
        "zeusd: listening on {} (workers {}, queue {})",
        cfg.socket.display(),
        cfg.workers,
        cfg.queue_limit
    );

    let queue = Queue::new(cfg.queue_limit);
    let max_deadline_ms = cfg.default_deadline.as_millis() as u64;

    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            scope.spawn(|| {
                while let Some(job) = queue.pop() {
                    handle(job, &store, cfg);
                }
            });
        }

        while !SHUTDOWN.load(Ordering::SeqCst) {
            let (mut stream, _) = match listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
                Err(_) => continue,
            };
            let Some(line) = read_request_line(&stream, REQUEST_LINE_TIMEOUT) else {
                continue;
            };
            let req = match Request::decode(line.trim_end()) {
                Ok(req) => req,
                Err(msg) => {
                    respond(&mut stream, &Response::BadRequest { msg });
                    continue;
                }
            };
            let budget_ms = req
                .deadline_ms
                .map_or(max_deadline_ms, |ms| ms.min(max_deadline_ms));
            let job = Job {
                stream,
                req,
                deadline: Instant::now() + Duration::from_millis(budget_ms),
            };
            if let Err((mut shed, backlog)) = queue.push(job) {
                // Load shed: hint a backoff proportional to the backlog
                // per worker, so a thundering herd spreads out.
                let retry_after_ms =
                    (25 * backlog as u64 / cfg.workers.max(1) as u64).clamp(25, 1000);
                respond(&mut shed.stream, &Response::Overloaded { retry_after_ms });
            }
        }

        eprintln!("zeusd: draining — rejecting queued work, finishing in-flight requests");
        for mut job in queue.drain() {
            respond(&mut job.stream, &Response::ShuttingDown);
        }
        // Scope join: workers finish their in-flight jobs (campaigns see
        // the cancel flag and stop at the next fault boundary).
    });

    let _ = std::fs::remove_file(&cfg.socket);
    eprintln!("zeusd: drained, exiting");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(client: u64) -> Job {
        Job {
            stream: UnixStream::pair().unwrap().0,
            req: Request {
                id: client,
                ..Request::default()
            },
            deadline: Instant::now(),
        }
    }

    fn push(q: &Queue, client: u64) {
        assert!(q.push(job(client)).is_ok(), "queue refused client {client}");
    }

    #[test]
    fn emptied_lanes_leave_and_the_rotation_holds() {
        let q = Queue::new(64);
        // Every zeusc invocation is a new client id.
        for batch in 0..20u64 {
            for client in batch * 50..(batch + 1) * 50 {
                push(&q, client);
            }
            for client in batch * 50..(batch + 1) * 50 {
                assert_eq!(q.pop().map(|j| j.req.id), Some(client));
            }
        }
        assert!(unpoisoned(q.inner.lock()).lanes.is_empty(), "lanes leaked");

        // Two clients with queued work still alternate, whoever queued
        // more, and a third joining mid-way takes the next turn.
        for _ in 0..3 {
            push(&q, 1);
        }
        push(&q, 2);
        push(&q, 2);
        let mut order: Vec<u64> = (0..2).map(|_| q.pop().unwrap().req.id).collect();
        push(&q, 3);
        order.extend((0..4).map(|_| q.pop().unwrap().req.id));
        assert_eq!(order, [1, 2, 3, 1, 2, 1]);
        assert!(unpoisoned(q.inner.lock()).lanes.is_empty());
    }

    #[test]
    fn request_line_timeout_covers_the_whole_line() {
        let (server, mut client) = UnixStream::pair().unwrap();
        // A byte every 20 ms never trips a per-read timeout of 200 ms.
        let trickle = std::thread::spawn(move || {
            for _ in 0..100 {
                if client.write_all(b"[").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let start = Instant::now();
        assert_eq!(read_request_line(&server, Duration::from_millis(200)), None);
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "held for {took:?}");
        drop(server);
        trickle.join().unwrap();
    }

    #[test]
    fn request_line_stops_at_the_newline_or_eof() {
        let (server, mut client) = UnixStream::pair().unwrap();
        client.write_all(b"{\"id\":1}\nrest").unwrap();
        assert_eq!(
            read_request_line(&server, Duration::from_secs(5)).as_deref(),
            Some("{\"id\":1}\n")
        );
        let (server, mut client) = UnixStream::pair().unwrap();
        client.write_all(b"{\"id\":").unwrap();
        drop(client);
        assert_eq!(
            read_request_line(&server, Duration::from_secs(5)).as_deref(),
            Some("{\"id\":")
        );
        let (server, client) = UnixStream::pair().unwrap();
        drop(client);
        assert_eq!(read_request_line(&server, Duration::from_secs(5)), None);
    }
}
