//! Outside-in spans: the benchmark times each public call it makes into
//! a layer, keeps the spans in memory, writes them to a JSON-lines file
//! when the run ends, and derives the per-layer metrics from that file.
//!
//! A root span is either a traced job (`job`) or a probe: a call timed
//! on its own after the measured loop (golden traces, grading replays,
//! store recovery, ...). Every other span is a direct child of a job.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use zeus_cli::proto::Json;

use crate::stats::median;

/// The layers a span name can belong to: the crates on the user path.
/// A span's layer is the part of its name before the first dot.
pub const LAYERS: &[&str] = &[
    "syntax", "sema", "elab", "opt", "netlist", "sim", "fault", "atpg", "sat", "cli", "daemon",
];

/// Name of the root span around one traced job.
pub const JOB: &str = "job";

/// Handle of an open span; `OFF` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

const OFF: SpanId = SpanId(usize::MAX);

struct Span {
    parent: Option<usize>,
    job: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, u64)>,
}

/// In-memory span recorder. With tracing off every call is a branch
/// and nothing else.
pub struct Tracer {
    on: bool,
    base: Instant,
    job: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            base: Instant::now(),
            job: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans that follow with job id `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            job: self.job,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn close(&mut self, id: SpanId) {
        if id.0 == OFF.0 {
            return;
        }
        let end = self.now_ns();
        self.spans[id.0].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans close in LIFO order");
    }

    /// Attaches a work count to an open or closed span.
    pub fn count(&mut self, id: SpanId, key: &'static str, value: u64) {
        if id.0 != OFF.0 {
            self.spans[id.0].counts.push((key, value));
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{{counts}}}}}",
                s.job, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// One span read back from a span file.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub parent: Option<usize>,
    pub job: u64,
    pub name: String,
    pub dur_ns: u64,
    pub counts: Vec<(String, u64)>,
}

/// Reads a span file written by [`Tracer::write`].
pub fn read(path: &Path) -> Result<Vec<SpanRec>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let bad = || format!("{}:{}: malformed span", path.display(), i + 1);
        let j = Json::parse(line).map_err(|e| format!("{}: {e}", bad()))?;
        let num = |k: &str| j.get(k).and_then(Json::as_u64).ok_or_else(bad);
        if num("id")? != i as u64 {
            return Err(bad());
        }
        let counts = match j.get("counts") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| match v {
                    Json::Num(n) => Ok((k.clone(), *n)),
                    _ => Err(bad()),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(bad()),
        };
        let (start, end) = (num("start_ns")?, num("end_ns")?);
        out.push(SpanRec {
            parent: j.get("parent").and_then(Json::as_u64).map(|p| p as usize),
            job: num("job")?,
            name: j
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(bad)?
                .to_string(),
            dur_ns: end.checked_sub(start).ok_or_else(bad)?,
            counts,
        });
    }
    Ok(out)
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-layer figures derived from a span file.
pub struct Profile {
    /// Per traced job: summed span time by span name (ns).
    by_name: Vec<BTreeMap<String, u64>>,
    /// Per traced job: summed counts by `name/key`.
    counts: Vec<BTreeMap<String, u64>>,
    /// Per traced job: self time by layer, plus `harness` (ns).
    self_ns: Vec<BTreeMap<String, u64>>,
    /// Per traced job: its whole duration (ns).
    job_ns: Vec<u64>,
    /// Probe durations by span name (ns), one entry per probe span.
    probes: BTreeMap<String, Vec<u64>>,
    /// Probe counts summed by `name/key`.
    probe_counts: BTreeMap<String, u64>,
}

impl Profile {
    /// Attributes every span to its job and layer. A job's harness time
    /// is the remainder of its span after its layer spans. Fails on a
    /// span shorter than its children or nested below a layer span.
    pub fn from_spans(spans: &[SpanRec]) -> Result<Profile, String> {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                if p >= spans.len() {
                    return Err(format!("span parent {p} out of range"));
                }
                child_ns[p] += s.dur_ns;
            }
        }
        let mut job_index: BTreeMap<usize, usize> = BTreeMap::new();
        let mut prof = Profile {
            by_name: Vec::new(),
            counts: Vec::new(),
            self_ns: Vec::new(),
            job_ns: Vec::new(),
            probes: BTreeMap::new(),
            probe_counts: BTreeMap::new(),
        };
        for (i, s) in spans.iter().enumerate() {
            let self_ns = s
                .dur_ns
                .checked_sub(child_ns[i])
                .ok_or_else(|| format!("span {i} ({}) is shorter than its children", s.name))?;
            match s.parent {
                None if s.name == JOB => {
                    job_index.insert(i, prof.job_ns.len());
                    prof.job_ns.push(s.dur_ns);
                    prof.by_name.push(BTreeMap::new());
                    prof.counts.push(BTreeMap::new());
                    let mut layers = BTreeMap::new();
                    layers.insert("harness".to_string(), self_ns);
                    prof.self_ns.push(layers);
                }
                None => {
                    prof.probes
                        .entry(s.name.clone())
                        .or_default()
                        .push(s.dur_ns);
                    for (k, v) in &s.counts {
                        *prof
                            .probe_counts
                            .entry(format!("{}/{k}", s.name))
                            .or_default() += v;
                    }
                }
                Some(p) => {
                    let Some(&j) = job_index.get(&p) else {
                        return Err(format!("span {i} ({}) is not a child of a job", s.name));
                    };
                    if spans[p].job != s.job {
                        return Err(format!("span {i} ({}) carries another job id", s.name));
                    }
                    if !LAYERS.contains(&layer_of(&s.name)) {
                        return Err(format!("span {i} ({}) names no layer", s.name));
                    }
                    *prof.by_name[j].entry(s.name.clone()).or_default() += s.dur_ns;
                    *prof.self_ns[j]
                        .entry(layer_of(&s.name).to_string())
                        .or_default() += self_ns;
                    for (k, v) in &s.counts {
                        *prof.counts[j].entry(format!("{}/{k}", s.name)).or_default() += v;
                    }
                }
            }
        }
        Ok(prof)
    }

    pub fn jobs(&self) -> usize {
        self.job_ns.len()
    }

    /// Median, over the traced jobs that call `name`, of the time spent
    /// in spans of that name; zero when no job calls it.
    pub fn job_ms(&self, name: &str) -> f64 {
        let xs: Vec<f64> = self
            .by_name
            .iter()
            .filter_map(|m| m.get(name))
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        median(&xs)
    }

    /// Traced jobs holding at least one span named `name`.
    pub fn jobs_with(&self, name: &str) -> usize {
        self.by_name.iter().filter(|m| m.contains_key(name)).count()
    }

    /// A work count summed over each traced job; the jobs must agree.
    pub fn job_count(&self, name: &str, key: &str) -> Result<u64, String> {
        let k = format!("{name}/{key}");
        let mut vals = self.counts.iter().map(|m| m.get(&k).copied().unwrap_or(0));
        let first = vals.next().unwrap_or(0);
        if vals.any(|v| v != first) {
            return Err(format!("work count {k} differs between jobs"));
        }
        Ok(first)
    }

    /// Median over traced jobs of a layer's self time.
    pub fn self_ms(&self, layer: &str) -> f64 {
        let xs: Vec<f64> = self
            .self_ns
            .iter()
            .map(|m| m.get(layer).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        median(&xs)
    }

    /// Median over traced jobs of the harness's share of the job, in %.
    pub fn harness_pct(&self) -> f64 {
        let xs: Vec<f64> = self
            .self_ns
            .iter()
            .zip(&self.job_ns)
            .map(|(m, &job)| 100.0 * m["harness"] as f64 / job.max(1) as f64)
            .collect();
        median(&xs)
    }

    /// Median duration of the probe spans named `name`, in ms.
    pub fn probe_ms(&self, name: &str) -> f64 {
        let xs: Vec<f64> = self
            .probes
            .get(name)
            .map(|v| v.iter().map(|&ns| ns as f64 / 1e6).collect())
            .unwrap_or_default();
        median(&xs)
    }

    /// How many probe spans are named `name`.
    pub fn probe_reps(&self, name: &str) -> usize {
        self.probes.get(name).map_or(0, Vec::len)
    }

    /// Summed count `key` over the probe spans named `name`.
    pub fn probe_count(&self, name: &str, key: &str) -> u64 {
        self.probe_counts
            .get(&format!("{name}/{key}"))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_round_trip_through_the_span_file() {
        let mut t = Tracer::new();
        t.set_on(true);
        for job in 0..3 {
            t.set_job(job);
            let root = t.open(JOB);
            let id = t.open("elab.elaborate");
            t.count(id, "gates", 10);
            t.close(id);
            t.span("netlist.export", || std::hint::black_box(0));
            t.close(root);
        }
        t.span("sim.golden", || ());
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("spans.jsonl");
        t.write(&path).expect("write spans");
        let spans = read(&path).expect("read spans");
        std::fs::remove_dir_all(&dir).expect("clean temp dir");
        assert_eq!(spans.len(), 3 * 3 + 1);

        let p = Profile::from_spans(&spans).expect("profile");
        assert_eq!(p.jobs(), 3);
        assert_eq!(p.job_count("elab.elaborate", "gates"), Ok(10));
        assert_eq!(p.probes["sim.golden"].len(), 1);
        assert_eq!(p.jobs_with("netlist.export"), 3);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new();
        let id = t.open(JOB);
        t.count(id, "x", 1);
        t.close(id);
        assert!(t.spans.is_empty());
    }
}
