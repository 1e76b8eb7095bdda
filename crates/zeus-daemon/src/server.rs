//! The `zeusd` server loop: blocking accept, bounded line readers, a
//! bounded fair queue, worker pool, deadlines, panic isolation and
//! graceful drain.
//!
//! # Lifecycle
//!
//! [`run`] binds the Unix socket, opens (and recovers) the store, spawns
//! the worker pool and accepts connections until [`SHUTDOWN`] goes high
//! (the binary raises it from its SIGTERM/SIGINT handlers). One request
//! travels per connection: a single JSON line in, a single JSON line
//! out (see `zeus_cli::proto`).
//!
//! A pool of reader threads blocks in `accept` on the shared listener.
//! The reader that accepts a connection reads and decodes its request
//! line and enqueues the job, then accepts again; the pool grows so one
//! reader always waits in `accept`. A client that paces its bytes slowly
//! holds only its own reader, never another client. Nothing on a
//! request's path sleeps or polls, and once the pool has grown to the
//! load none starts a thread: the thread that called [`run`] checks
//! [`SHUTDOWN`] every 25 ms and wakes the blocked readers when it goes
//! high, so a bare store to the flag drains the daemon too.
//!
//! # Backpressure
//!
//! Both stages are bounded by `queue_limit`. A connection that finds
//! that many lines being read, or a request that finds that many jobs
//! queued, is answered `overloaded` immediately — with a
//! `retry_after_ms` hint scaled to the backlog — rather than letting
//! latency grow without bound.
//! Within the bound, jobs are scheduled fairly: each client (keyed by
//! the request `id`, which `zeusc` sets to its process id) gets its own
//! FIFO lane and workers round-robin across lanes, so one client
//! bursting 50 requests cannot starve another's single request.
//!
//! # Deadlines
//!
//! Every request carries a deadline from the moment its line has been
//! read: the client's `deadline_ms` clamped to the server maximum, or the
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
//! On shutdown the daemon stops listening: it shuts the listening socket
//! down and removes the socket file, so new connections are refused at
//! once and the client's retry or local fallback takes over. A reader
//! still waiting for its line gives up within 100 ms; it, a connection
//! still in the listen backlog, a line completed after the drain began
//! and every queued-but-unstarted job are answered `shutting_down`.
//! In-flight jobs see the shared cancel flag: campaigns stop in their
//! golden trace or at the next fault word, flush their checkpoint
//! journal (kept under the store root), and report partial results.
//! A restarted daemon resumes those journals automatically when the
//! same request returns.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::Shutdown;
use std::os::fd::OwnedFd;
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread::Scope;
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
    /// The admission bound, applied twice: at most this many request
    /// lines are read at once, and at most this many read requests wait
    /// for a worker. Past either bound the client is answered
    /// `overloaded`.
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
    workers: usize,
}

fn unpoisoned<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The load-shedding answer: a backoff hint proportional to the backlog
/// per worker, so a thundering herd spreads out.
fn overloaded(backlog: usize, workers: usize) -> Response {
    let retry_after_ms = (25 * backlog as u64 / workers.max(1) as u64).clamp(25, 1000);
    Response::Overloaded { retry_after_ms }
}

impl Queue {
    fn new(limit: usize, workers: usize) -> Queue {
        Queue {
            inner: Mutex::new(QueueInner {
                lanes: Vec::new(),
                cursor: 0,
                len: 0,
                draining: false,
            }),
            ready: Condvar::new(),
            limit,
            workers,
        }
    }

    /// Enqueues into the client's lane and returns true, or answers the
    /// client instead and returns false: `overloaded` at the bound,
    /// `shutting_down` once the queue is draining (no worker would ever
    /// start the job).
    fn push(&self, mut job: Job) -> bool {
        let mut q = unpoisoned(self.inner.lock());
        if q.draining || q.len >= self.limit {
            let answer = if q.draining {
                Response::ShuttingDown
            } else {
                overloaded(q.len, self.workers)
            };
            drop(q);
            respond(&mut job.stream, &answer);
            return false;
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
        true
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
            // Every push notifies one waiter and `drain` all of them.
            q = unpoisoned(self.ready.wait(q));
        }
    }

    /// Flips to draining (later pushes are refused) and hands back every
    /// unstarted job so the caller can answer `shutting_down`.
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

/// The longest a reader waits for request bytes before it looks at
/// [`SHUTDOWN`] again, and so the longest a drain waits on a slow line.
/// A client that sends its bytes promptly never waits out a slice.
const READ_SLICE: Duration = Duration::from_millis(100);

/// How often [`run`] looks at [`SHUTDOWN`]; it is off every request's
/// path.
const SHUTDOWN_CHECK: Duration = Duration::from_millis(25);

/// Reads the single request line from a fresh connection, giving the
/// whole line one `timeout` (a socket read timeout alone restarts on
/// every byte, so a client trickling bytes could hold its reader
/// forever). It waits in slices of at most [`READ_SLICE`] and gives up
/// once [`SHUTDOWN`] is high. `None` on timeout, drain, disconnect, or
/// unreadable bytes.
fn read_request_line(stream: &UnixStream, timeout: Duration) -> Option<String> {
    let deadline = Instant::now() + timeout;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero()
            || SHUTDOWN.load(Ordering::SeqCst)
            || stream.set_read_timeout(Some(left.min(READ_SLICE))).is_err()
        {
            return None;
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            // A slice ran out (a read timeout reads as `WouldBlock` on
            // Unix) or a signal arrived: look at the clocks again.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                continue
            }
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

/// The reader pool: threads that each block in `accept` on the shared
/// listener, read one request line and enqueue its job, then accept
/// again. A connection is read by the thread that accepted it and is
/// never handed to another before its line is in. The pool grows by one
/// thread whenever all its readers are reading (and keeps it), so a
/// reader always waits in `accept`, up to `limit + 1` threads: at most
/// `limit` lines are read at once, and the spare answers a connection
/// past that bound `overloaded` at once. Readers leave in the drain.
struct Readers<'a> {
    listener: &'a UnixListener,
    queue: &'a Queue,
    limit: usize,
    max_deadline_ms: u64,
    /// Reader threads started.
    started: AtomicUsize,
    /// Request lines being read.
    reading: AtomicUsize,
}

impl Readers<'_> {
    /// Starts one more reader unless the pool is full; a failed spawn
    /// leaves the pool as it was.
    fn grow<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        if self.started.fetch_add(1, Ordering::SeqCst) > self.limit {
            self.started.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let reader = std::thread::Builder::new().spawn_scoped(scope, || self.serve(scope));
        if reader.is_err() {
            self.started.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// One reader's loop, until the drain has emptied the backlog.
    fn serve<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) {
        loop {
            let conn = self.listener.accept();
            if SHUTDOWN.load(Ordering::SeqCst) {
                // Once [`Readers::stop`] has run, `accept` fails as soon
                // as the backlog is empty.
                let Ok((mut stream, _)) = conn else { return };
                respond(&mut stream, &Response::ShuttingDown);
                continue;
            }
            let Ok((mut stream, _)) = conn else { continue };
            let reading = self.reading.fetch_add(1, Ordering::SeqCst) + 1;
            if reading > self.limit {
                self.reading.fetch_sub(1, Ordering::SeqCst);
                respond(&mut stream, &overloaded(self.limit, self.queue.workers));
                continue;
            }
            if reading == self.started.load(Ordering::SeqCst) {
                self.grow(scope);
            }
            self.read_job(stream);
        }
    }

    /// Reads and decodes one request line, then enqueues it. The reading
    /// slot frees once the line is in, before its answer can reach the
    /// client, and the request's deadline starts then.
    fn read_job(&self, mut stream: UnixStream) {
        let line = read_request_line(&stream, REQUEST_LINE_TIMEOUT);
        self.reading.fetch_sub(1, Ordering::SeqCst);
        let Some(line) = line else {
            // A line cut short by the drain is told so. One that timed
            // out, or whose client left, is dropped: there is nothing to
            // answer.
            if SHUTDOWN.load(Ordering::SeqCst) {
                respond(&mut stream, &Response::ShuttingDown);
            }
            return;
        };
        let req = match Request::decode(line.trim_end()) {
            Ok(req) => req,
            Err(msg) => {
                respond(&mut stream, &Response::BadRequest { msg });
                return;
            }
        };
        let budget_ms = req
            .deadline_ms
            .map_or(self.max_deadline_ms, |ms| ms.min(self.max_deadline_ms));
        self.queue.push(Job {
            stream,
            req,
            deadline: Instant::now() + Duration::from_millis(budget_ms),
        });
    }

    /// Stops listening and wakes every reader blocked in `accept`. The
    /// listener turns non-blocking first, so the readers answer the
    /// backlog `shutting_down` and leave once it is empty. On Linux,
    /// shutting the listening socket down wakes every blocked `accept`
    /// and refuses new connections at once, whatever became of the
    /// socket file; where that is refused, one connection to the socket
    /// path per reader wakes them instead.
    fn stop(&self, socket: &Path) {
        let _ = self.listener.set_nonblocking(true);
        let shut = self
            .listener
            .try_clone()
            .and_then(|l| UnixStream::from(OwnedFd::from(l)).shutdown(Shutdown::Both));
        if shut.is_err() {
            for _ in 0..self.started.load(Ordering::SeqCst) {
                let _ = UnixStream::connect(socket);
            }
        }
    }
}

/// Runs the daemon until [`SHUTDOWN`] goes high, then drains. Returns
/// after all readers and workers have exited.
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
    // A daemon started later on the same path replaces this file; the
    // drain must leave that one alone.
    let file_id = |m: std::fs::Metadata| (m.dev(), m.ino());
    let ours = file_id(std::fs::metadata(&cfg.socket)?);
    eprintln!(
        "zeusd: listening on {} (workers {}, queue {})",
        cfg.socket.display(),
        cfg.workers,
        cfg.queue_limit
    );

    let workers = cfg.workers.max(1);
    let queue = &Queue::new(cfg.queue_limit, workers);
    let readers = &Readers {
        listener: &listener,
        queue,
        limit: cfg.queue_limit,
        max_deadline_ms: cfg.default_deadline.as_millis() as u64,
        started: AtomicUsize::new(0),
        reading: AtomicUsize::new(0),
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(job) = queue.pop() {
                    handle(job, &store, cfg);
                }
            });
        }
        // The first reader starts as the workers do: failing to start
        // it panics.
        readers.started.store(1, Ordering::SeqCst);
        scope.spawn(|| readers.serve(scope));

        // This thread watches the flag a bare store may raise; it is off
        // every request's path.
        while !SHUTDOWN.load(Ordering::SeqCst) {
            std::thread::sleep(SHUTDOWN_CHECK);
        }
        readers.stop(&cfg.socket);
        // The listener still holds its file, so a successor's cannot
        // have reused the identity.
        if std::fs::symlink_metadata(&cfg.socket).map(file_id).ok() == Some(ours) {
            let _ = std::fs::remove_file(&cfg.socket);
        }
        eprintln!("zeusd: draining — rejecting queued work, finishing in-flight requests");
        for mut job in queue.drain() {
            respond(&mut job.stream, &Response::ShuttingDown);
        }
        // Scope join: readers give up within a read slice, and workers
        // finish their in-flight jobs (campaigns see the cancel flag and
        // stop at the next fault boundary).
    });

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
        assert!(q.push(job(client)), "queue refused client {client}");
    }

    #[test]
    fn emptied_lanes_leave_and_the_rotation_holds() {
        let q = Queue::new(64, 1);
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
    fn a_full_or_draining_queue_answers_instead_of_queueing() {
        let q = Queue::new(1, 2);
        push(&q, 1);
        // What the client of a refused job reads.
        let refused = |client: u64| {
            let (stream, peer) = UnixStream::pair().unwrap();
            let req = Request {
                id: client,
                ..Request::default()
            };
            let deadline = Instant::now();
            assert!(
                !q.push(Job {
                    stream,
                    req,
                    deadline
                }),
                "took client {client}"
            );
            let mut answer = String::new();
            BufReader::new(peer).read_line(&mut answer).unwrap();
            Response::decode(answer.trim_end())
        };
        assert_eq!(refused(2), Ok(Response::Overloaded { retry_after_ms: 25 }));
        assert_eq!(q.drain().len(), 1);
        assert_eq!(refused(3), Ok(Response::ShuttingDown));
        assert!(q.pop().is_none(), "a draining queue still hands out work");
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
