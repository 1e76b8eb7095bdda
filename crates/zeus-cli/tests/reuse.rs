//! The reuse layer against an in-memory [`Cache`]: every answer a
//! cached session gives, miss or hit, equals a local run of the same
//! command line, and a hit reads nothing but its stored answer. A
//! server deadline never changes an answer either: unreached, it leaves
//! the bytes alone; reached, the run answers Z905 and stores nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use zeus_cli::{run_captured, run_to_completion, Cache, Session};

/// A `HashMap`-backed cache that logs every call as `get <kind>` or
/// `put <kind>`.
#[derive(Default)]
struct MemCache {
    entries: RefCell<HashMap<(String, u64), String>>,
    log: RefCell<Vec<String>>,
}

impl Cache for MemCache {
    fn get_text(&self, kind: &str, key: u64) -> Option<String> {
        self.log.borrow_mut().push(format!("get {kind}"));
        self.entries.borrow().get(&(kind.to_string(), key)).cloned()
    }

    fn put_text(&self, kind: &str, key: u64, text: &str) {
        self.log.borrow_mut().push(format!("put {kind}"));
        self.entries
            .borrow_mut()
            .insert((kind.to_string(), key), text.to_string());
    }
}

impl MemCache {
    fn take_log(&self) -> Vec<String> {
        std::mem::take(&mut self.log.borrow_mut())
    }

    fn kinds(&self) -> Vec<String> {
        let mut kinds: Vec<String> = self
            .entries
            .borrow()
            .keys()
            .map(|(k, _)| k.clone())
            .collect();
        kinds.sort();
        kinds.dedup();
        kinds
    }
}

/// What one run produced: exit code, stdout, stderr, emitted files.
type Answer = (u8, String, String, Vec<(String, String)>);

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Runs `args` the way zeusd does (inlined sources, captured files)
/// against `cache`; also returns the session's cache-hit count.
fn cached(cache: &MemCache, sources: &HashMap<String, String>, args: &[&str]) -> (Answer, usize) {
    let mut sess = Session {
        sources: Some(sources),
        cache: Some(cache),
        ..Session::default()
    };
    let code = run_to_completion(&argv(args), &mut sess);
    ((code, sess.out, sess.err, sess.emitted), sess.cache_hits)
}

/// Runs `args` locally; files named in `emitted` are read back from
/// disk and removed, so the answer compares with a cached one.
fn local(args: &[&str], emitted: &[&str]) -> Answer {
    let (code, out, err) = run_captured(&argv(args));
    let files = emitted
        .iter()
        .filter_map(|path| {
            let content = std::fs::read_to_string(path).ok()?;
            let _ = std::fs::remove_file(path);
            Some((path.to_string(), content))
        })
        .collect();
    (code, out, err, files)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zeusc-reuse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Sends each command line twice through one cache, in order, and
/// checks every answer against a local run: the first of a pair is a
/// miss, the second a hit on the whole answer.
fn assert_interleaving_matches_local(runs: &[&[&str]]) {
    let cache = MemCache::default();
    let sources = HashMap::new();
    for args in runs {
        let want = local(args, &[]);
        let (miss, _) = cached(&cache, &sources, args);
        assert_eq!(miss, want, "first answer to {args:?}");
        let (hit, hits) = cached(&cache, &sources, args);
        assert_eq!(hit, want, "replayed answer to {args:?}");
        assert!(hits > 0, "second {args:?} missed");
    }
    assert_eq!(cache.kinds(), ["fault"]);
}

#[test]
fn opt_after_plain_campaign_uses_its_own_fault_universe() {
    assert_interleaving_matches_local(&[
        &[
            "fault",
            "@adders",
            "rippleCarry4",
            "--seed",
            "1",
            "--vectors",
            "16",
        ],
        &[
            "fault",
            "@adders",
            "rippleCarry4",
            "--seed",
            "2",
            "--vectors",
            "16",
            "--opt",
        ],
    ]);
}

#[test]
fn plain_after_opt_campaign_uses_its_own_fault_universe() {
    assert_interleaving_matches_local(&[
        &[
            "fault",
            "@adders",
            "rippleCarry4",
            "--seed",
            "5",
            "--vectors",
            "16",
            "--opt",
            "--bridges",
        ],
        &[
            "fault",
            "@adders",
            "rippleCarry4",
            "--seed",
            "6",
            "--vectors",
            "16",
            "--bridges",
        ],
    ]);
}

#[test]
fn plain_and_opt_answers_with_one_seed_stay_apart() {
    assert_interleaving_matches_local(&[
        &["fault", "@mux", "muxtop", "--seed", "4", "--vectors", "8"],
        &[
            "fault",
            "@mux",
            "muxtop",
            "--seed",
            "4",
            "--vectors",
            "8",
            "--opt",
        ],
    ]);
}

#[test]
fn an_answer_hit_reads_only_its_answer_entry() {
    let cache = MemCache::default();
    let sources = HashMap::new();
    let vecs = scratch("hit.vec");
    let vecs = vecs.to_str().unwrap();
    let cases: &[&[&str]] = &[
        &["sim", "@adders", "rippleCarry4", "--seed", "7"],
        &[
            "fault",
            "@adders",
            "rippleCarry4",
            "--seed",
            "3",
            "--vectors",
            "24",
            "--opt",
        ],
        &[
            "atpg",
            "@adders",
            "rippleCarry4",
            "--seed",
            "5",
            "--emit-vectors",
            vecs,
        ],
    ];
    for args in cases {
        let (first, _) = cached(&cache, &sources, args);
        assert_eq!(first.0, 0, "{args:?}: {}", first.2);
        cache.take_log();
        let (again, hits) = cached(&cache, &sources, args);
        assert_eq!(again, first, "{args:?}");
        assert_eq!(hits, 1, "{args:?}");
        assert_eq!(cache.take_log(), [format!("get {}", args[0])], "{args:?}");
    }
    assert!(
        !std::path::Path::new(vecs).exists(),
        "a cached session wrote a client file"
    );
}

#[test]
fn warnings_opt_lines_and_emitted_files_replay_byte_identically() {
    // `multiplex := multiplex` is legal with an elaboration warning.
    let src = "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
               SIGNAL x, y: multiplex; \
               BEGIN x := a; y := x; s := y END;";
    let file = scratch("warns.zeus");
    std::fs::write(&file, src).unwrap();
    let file = file.to_str().unwrap().to_string();
    let vecs = scratch("replay.vec");
    let vecs = vecs.to_str().unwrap().to_string();
    let sources = HashMap::from([(file.clone(), src.to_string())]);
    let cache = MemCache::default();
    let cases: &[&[&str]] = &[
        &["sim", &file, "t", "--set", "a=1"],
        &["fault", &file, "t", "--seed", "4", "--vectors", "8"],
        &["atpg", &file, "t", "--seed", "2", "--emit-vectors", &vecs],
        &["sim", "@adders", "rippleCarry4", "--opt", "--seed", "7"],
        &[
            "atpg",
            "@adders",
            "rippleCarry4",
            "--opt",
            "--sat",
            "--emit-vectors",
            &vecs,
        ],
    ];
    for args in cases {
        let want = local(args, &[&vecs]);
        assert_eq!(want.0, 0, "{args:?}: {}", want.2);
        assert!(
            want.2.contains("warning") || want.2.contains("opt       :"),
            "{args:?} writes no warning or opt line: {}",
            want.2
        );
        let (miss, _) = cached(&cache, &sources, args);
        assert_eq!(miss, want, "first answer to {args:?}");
        let (hit, hits) = cached(&cache, &sources, args);
        assert_eq!(hit, want, "replayed answer to {args:?}");
        assert_eq!(hits, 1, "{args:?}");
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn uncomputable_keys_and_failures_are_neither_looked_up_nor_stored() {
    let cache = MemCache::default();
    let sources = HashMap::new();
    let cases: &[&[&str]] = &[
        // The vector file cannot be read: the run fails before any
        // lookup.
        &[
            "fault",
            "@adders",
            "rippleCarry4",
            "--vectors-file",
            "missing.txt",
        ],
        // A time-based seed: not a pure function of the command line.
        &["fault", "@adders", "rippleCarry4", "--vectors", "4"],
    ];
    for args in cases {
        cached(&cache, &sources, args);
        assert!(
            !cache.take_log().iter().any(|c| c.ends_with(" fault")),
            "{args:?} used the answer cache"
        );
    }
    // A failed run is looked up but not stored.
    let args = [
        "atpg",
        "@adders",
        "rippleCarry4",
        "--coverage-target",
        "101",
    ];
    let (answer, _) = cached(&cache, &sources, &args);
    assert_eq!(answer.0, 1, "{}", answer.2);
    assert_eq!(answer, local(&args, &[]));
    let log = cache.take_log();
    assert_eq!(log.first().map(String::as_str), Some("get atpg"));
    assert!(!log.iter().any(|c| c == "put atpg"), "{log:?}");
}

/// A run that finishes past the server deadline answers Z905 (exit 3)
/// in place of output the deadline may have cut short, and stores
/// nothing: an ATPG run whose searches the deadline aborted (which is
/// not an error) must not pass off that answer as the command's.
#[test]
fn a_run_past_the_deadline_answers_z905_and_stores_nothing() {
    let cache = MemCache::default();
    let sources = HashMap::new();
    let cases: &[&[&str]] = &[
        &[
            "atpg",
            "@adders",
            "rippleCarry4",
            "--seed",
            "5",
            "--emit-vectors",
            "v.vec",
        ],
        &["sim", "@adders", "rippleCarry4", "--seed", "3"],
    ];
    for args in cases {
        let mut sess = Session {
            sources: Some(&sources),
            cache: Some(&cache),
            deadline: Some(Instant::now()),
            ..Session::default()
        };
        let code = run_to_completion(&argv(args), &mut sess);
        assert_eq!(code, 3, "{args:?}: {}", sess.err);
        assert!(
            sess.err.starts_with("error[Z905]"),
            "{args:?}: {}",
            sess.err
        );
        assert_eq!(sess.out, "", "{args:?}");
        assert!(sess.emitted.is_empty(), "{args:?}");
        assert_eq!(cache.take_log(), [format!("get {}", args[0])], "{args:?}");
    }
    assert!(cache.kinds().is_empty(), "{:?}", cache.kinds());
}

/// ram(16, 8, 8) capped at 52 vectors fills its cap with one SAT solve
/// while over a thousand faults are pending, then gives each of them a
/// lockstep proof (about two seconds in all in a debug build): a
/// deadline sliced into per-fault shares would cut that solve short and
/// change the answer.
const RAM_SAT: [&str; 11] = [
    "atpg",
    "@ram",
    "ram",
    "16",
    "8",
    "8",
    "--seed",
    "7",
    "--sat",
    "--max-vectors",
    "52",
];

/// A server deadline the run never reaches leaves an `atpg --sat` answer
/// byte-identical to a local run.
#[test]
fn an_unreached_deadline_leaves_atpg_sat_answers_alone() {
    let args = RAM_SAT;
    let want = run_captured(&argv(&args));
    assert_eq!(want.0, 0, "{}", want.2);
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut sess = Session {
        deadline: Some(deadline),
        ..Session::default()
    };
    let code = run_to_completion(&argv(&args), &mut sess);
    let reached = Instant::now() >= deadline;
    assert_eq!(
        (code, sess.out, sess.err),
        want,
        "deadline reached: {reached}"
    );
}

/// The same holds for the user's own `--campaign-timeout`: unreached, it
/// changes no byte of the answer.
#[test]
fn an_unreached_campaign_timeout_leaves_atpg_sat_answers_alone() {
    let want = run_captured(&argv(&RAM_SAT));
    assert_eq!(want.0, 0, "{}", want.2);
    let started = Instant::now();
    let bounded = run_captured(&argv(
        &[&RAM_SAT[..], &["--campaign-timeout", "15000"]].concat(),
    ));
    let reached = started.elapsed() >= Duration::from_secs(15);
    assert_eq!(bounded, want, "deadline reached: {reached}");
}
