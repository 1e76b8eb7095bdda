//! What every workload shares: the run configuration, the seeded
//! generator, the measured loop, the result line and peak memory.

use std::path::PathBuf;
use std::time::Instant;

use crate::reference::{self, Reference};
use crate::stats::{self, median};
use crate::trace::{Tracer, JOB};

/// One benchmark invocation.
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Cfg {
    /// Scratch directory for span files, the daemon's store and its
    /// socket, relative to the checkout the benchmark runs in.
    pub fn work_dir(&self) -> Result<PathBuf, String> {
        let dir = PathBuf::from(".perfbench");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    pub fn span_file(&self) -> Result<PathBuf, String> {
        Ok(self
            .work_dir()?
            .join(format!("spans-{}-{}.jsonl", self.workload, self.seed)))
    }
}

/// SplitMix64: the benchmark's only source of input randomness, so the
/// same `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The seeded order in which pass `pass` visits `n` inputs. Every pass
/// does the same work; only the order (and so the cache state each
/// input meets) follows the seed.
pub fn pass_order(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 0x7061_7373 + pass as u64).shuffle(&mut order);
    order
}

/// The end-to-end metrics every workload reports with tracing off, with
/// their units, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("opt_gates", "gates"),
    ("coverage_pct", "%"),
    ("test_vectors", "count"),
];

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks of outputs, for the `#` lines.
    pub broken: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check of an output `jobs` jobs produced.
    pub fn fail(&mut self, jobs: u64, what: String) {
        self.failed = (self.failed + jobs).min(self.attempted);
        self.broken.push(what);
    }

    /// Records a failed check of an output every job reproduced, as the
    /// determinism guard makes sure they do.
    pub fn fail_all(&mut self, what: String) {
        self.fail(self.attempted, what);
    }

    /// Names and units of the metrics collected so far.
    pub fn names(&self) -> Vec<(&str, &str)> {
        self.metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect()
    }

    /// The result line: one JSON object.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.broken.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Latencies of the measured loop.
pub struct Measured {
    /// Untraced job latencies as measured, ms.
    pub lat_ms: Vec<f64>,
    /// The same divided by the host's slowness before each job
    /// ([`Pace::Batch`]); equal to `lat_ms` on [`Pace::Blocks`].
    pub scaled_ms: Vec<f64>,
    /// Traced job latencies as measured, ms (trace runs only).
    pub traced_ms: Vec<f64>,
    /// Set-up repeated between jobs, s, scaled like `scaled_ms`.
    pub setup_s: Vec<f64>,
    /// The same as measured.
    pub setup_raw_s: Vec<f64>,
    /// The host's slowness measured before each job, in job order and
    /// smoothed ([`reference::smooth`]), on [`Pace::Batch`]; empty on
    /// [`Pace::Blocks`].
    pub slowness: Vec<f64>,
}

impl Measured {
    /// Median set-up time over the first set-up and the repeats. The
    /// first set-up comes right before the loop, so the slowness measured
    /// before the first job scales it.
    pub fn setup_median(&self, first_s: f64) -> f64 {
        let mut all = self.setup_s.clone();
        all.push(first_s / self.slowness.first().copied().unwrap_or(1.0));
        median(&all)
    }
}

/// How [`measure`] paces its jobs.
#[derive(Clone, Copy)]
pub enum Pace {
    /// One job at a time, each right after the reference kernel is timed
    /// (the batch workloads). Reported times are scaled to the kernel's
    /// nominal speed.
    Batch,
    /// Whole groups of this many jobs, with nothing timed between them
    /// (`daemon`, whose latency is mostly a timer, not host speed).
    Blocks(usize),
}

/// Fewest jobs a run measures, so the tail rule always has a sample.
pub const MIN_JOBS: usize = stats::TAIL_BEYOND + 1;

/// Runs jobs back to back for `cfg.seconds` (and at least [`MIN_JOBS`]
/// untraced ones, or two groups of each kind in a trace run), stopping
/// only after a whole group of jobs. On [`Pace::Batch`] those are
/// seconds at the reference kernel's nominal speed.
///
/// `before(i)` runs off the clock before job `i`. It may repeat the
/// workload's set-up and return that repeat's time in seconds, so
/// set-up is sampled across the same stretch of time as the jobs: a
/// one-off step is too short to time once within a tenth. On
/// [`Pace::Batch`] the reference kernel is timed next, right before the
/// job, and the smoothed slowness it gives divides both. `job(i,
/// tracer)` does job `i` and returns what its checks need; only that
/// call is timed. `check(i, output)` runs after the clock stops and
/// returns false when the job's output is wrong.
///
/// In a trace run every other group is traced, so traced and untraced
/// latencies come from the same stretch of time and the same mix of
/// jobs.
pub fn measure<T>(
    cfg: &Cfg,
    pace: Pace,
    tracer: &mut Tracer,
    out: &mut Outcome,
    mut before: impl FnMut(usize) -> Result<Option<f64>, String>,
    mut job: impl FnMut(usize, &mut Tracer) -> Result<T, String>,
    mut check: impl FnMut(usize, T) -> bool,
) -> Result<Measured, String> {
    let group = match pace {
        Pace::Batch => 1,
        Pace::Blocks(n) => n,
    };
    let mut reference = matches!(pace, Pace::Batch).then(Reference::new);
    let mut m = Measured {
        lat_ms: Vec::new(),
        scaled_ms: Vec::new(),
        traced_ms: Vec::new(),
        setup_s: Vec::new(),
        setup_raw_s: Vec::new(),
        slowness: Vec::new(),
    };
    // Per job, in job order: its time, whether it was traced, and the
    // set-up repeat before it; scaled once the whole run's slowness is in.
    let mut jobs: Vec<(f64, bool, Option<f64>)> = Vec::new();
    let mut slowness = Vec::new();
    // Seconds run so far, each lap divided by the slowness measured in it:
    // a run then holds about as many jobs on a fast host as on a slow one,
    // so its tail sits at the same percentile.
    let mut clock = 0.0;
    let mut i = 0usize;
    let enough = |m: &Measured| {
        if cfg.trace {
            m.traced_ms.len() >= 2 * group && m.lat_ms.len() >= 2 * group
        } else {
            m.lat_ms.len() >= MIN_JOBS
        }
    };
    while clock < cfg.seconds || !enough(&m) || !i.is_multiple_of(group) {
        let lap = Instant::now();
        let setup_s = before(i)?;
        let slow = match &mut reference {
            Some(r) => {
                slowness.push(r.slowness());
                slowness[i]
            }
            None => 1.0,
        };
        let traced = cfg.trace && (i / group) % 2 == 1;
        tracer.set_on(traced);
        tracer.set_job(i as u64);
        let t0 = Instant::now();
        let root = tracer.open(JOB);
        let output = job(i, tracer)?;
        tracer.close(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.set_on(false);
        jobs.push((ms, traced, setup_s));
        if traced {
            m.traced_ms.push(ms);
        } else {
            m.lat_ms.push(ms);
        }
        out.attempted += 1;
        if !check(i, output) {
            out.failed += 1;
        }
        i += 1;
        clock += lap.elapsed().as_secs_f64() / slow;
    }
    m.slowness = reference::smooth(&slowness);
    for (k, (ms, traced, setup_s)) in jobs.into_iter().enumerate() {
        let slow = m.slowness.get(k).copied().unwrap_or(1.0);
        if !traced {
            m.scaled_ms.push(ms / slow);
        }
        if let Some(s) = setup_s {
            m.setup_s.push(s / slow);
            m.setup_raw_s.push(s);
        }
    }
    Ok(m)
}

/// The latency metrics every workload reports: median, the tail rule,
/// and completed jobs per second of job time, all over the scaled job
/// times. [`measure`] always takes enough untraced samples for the tail
/// rule outside a trace run. On [`Pace::Batch`] a `#` line gives the
/// median as measured beside the host's slowness.
pub fn latency_metrics(m: &Measured, out: &mut Outcome) {
    let lat_ms = &m.scaled_ms;
    out.metric("p50_ms", median(lat_ms), "ms");
    if let Some(tail) = stats::tail(lat_ms) {
        out.metric("tail_ms", tail.value, "ms");
        out.note(format!(
            "tail_ms is p{:.1} of {} samples ({} beyond)",
            tail.pct, tail.samples, tail.beyond
        ));
    }
    let total_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    out.metric("req_per_s", lat_ms.len() as f64 / total_s, "1/s");
    if m.slowness.is_empty() {
        return;
    }
    out.note(format!(
        "as measured: p50 {:.3} ms, set-up repeats {:.6} s; host slowness median {:.4} (reference kernel {:.3} ms, nominal {} ms)",
        median(&m.lat_ms),
        median(&m.setup_raw_s),
        median(&m.slowness),
        median(&m.slowness) * reference::NOMINAL_MS,
        reference::NOMINAL_MS
    ));
}

/// Runs `f` once and returns its time in seconds with its result.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let t0 = Instant::now();
    let v = f()?;
    Ok((t0.elapsed().as_secs_f64(), v))
}

/// A `before` hook for [`measure`] that repeats a batch workload's
/// `setup` before every job but the first, which follows the first
/// set-up directly, and returns its time.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> impl FnMut(usize) -> Result<Option<f64>, String> {
    move |i| {
        if i == 0 {
            return Ok(None);
        }
        timed(&mut setup).map(|(s, _)| Some(s))
    }
}

/// Peak resident set size of process `pid` (`"self"` for this one) in
/// MB: the kernel's high-water mark for the process image, which an
/// `exec` starts afresh, so it never counts the parent that spawned us.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// FNV-1a over a string: cheap byte-identity digests between passes.
pub fn digest(text: &str) -> u64 {
    let mut h = zeus::StableHasher::new();
    h.write_str(text);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_times_are_divided_by_the_smoothed_slowness_before_each_job() {
        let cfg = Cfg {
            workload: "test".to_string(),
            seed: 1,
            seconds: 0.0,
            trace: false,
        };
        let mut out = Outcome::default();
        let m = measure(
            &cfg,
            Pace::Batch,
            &mut Tracer::new(),
            &mut out,
            |i| Ok((i > 0).then_some(0.5)),
            |_, _| Ok(()),
            |_, ()| true,
        )
        .expect("jobs that cannot fail");
        assert_eq!(m.lat_ms.len(), MIN_JOBS);
        assert_eq!(m.slowness.len(), MIN_JOBS);
        for ((lat, scaled), slow) in m.lat_ms.iter().zip(&m.scaled_ms).zip(&m.slowness) {
            assert!((scaled * slow - lat).abs() <= 1e-9 * lat.max(1.0));
        }
        for (setup, slow) in m.setup_s.iter().zip(&m.slowness[1..]) {
            assert!((setup * slow - 0.5).abs() < 1e-12);
        }
        assert_eq!(out.attempted, MIN_JOBS as u64);
    }

    #[test]
    fn blocks_are_reported_as_measured() {
        let cfg = Cfg {
            workload: "test".to_string(),
            seed: 1,
            seconds: 0.0,
            trace: false,
        };
        let m = measure(
            &cfg,
            Pace::Blocks(4),
            &mut Tracer::new(),
            &mut Outcome::default(),
            |_| Ok(Some(0.5)),
            |_, _| Ok(()),
            |_, ()| true,
        )
        .expect("jobs that cannot fail");
        assert_eq!(m.lat_ms.len(), 12, "whole blocks of four past MIN_JOBS");
        assert_eq!(m.scaled_ms, m.lat_ms);
        assert!(m.slowness.is_empty());
        assert_eq!(m.setup_median(0.5), 0.5);
    }
}
