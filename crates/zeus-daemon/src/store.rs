//! The daemon's content-addressed on-disk cache.
//!
//! Layout under the store root:
//!
//! ```text
//! objects/<kind>-<key:016x>   one cache entry (header line + body)
//! quarantine/<name>.<n>       entries that failed verification
//! journals/<digest:016x>.journal   auto-checkpoints of in-flight campaigns
//! ```
//!
//! Every entry is written through [`zeus::write_durable`] (temp file,
//! `fsync`, atomic rename, parent-directory `fsync`), and carries a
//! self-describing header:
//!
//! ```text
//! zeus-store v1 kind=<kind> key=<016x> len=<bytes> sum=<fnv:016x>
//! <body...>
//! ```
//!
//! A read verifies all four fields before returning the body; an entry
//! that is torn, truncated, bit-flipped or misnamed is moved to
//! `quarantine/` (never deleted — it is evidence) and treated as a
//! miss, so the worst corruption can do is cost a rebuild. The same
//! verification runs as a sweep over every entry at startup, which is
//! how a daemon restarted after a crash recovers: intact entries are
//! kept, torn ones are quarantined, and the store reports the counts.
//!
//! The store holds only checksummed text; what the text means is the
//! caller's business. `zeusc` files whole answers under `sim`, `fault`
//! and `atpg`, and elaborated designs under `design`, which it decodes
//! itself with [`zeus::design_from_text`] (recomputing the embedded
//! digest, so a design entry gets a second verification layer).
//!
//! All writes are best-effort — an I/O error costs a future cache hit,
//! never the request. The chaos knobs ([`Store::chaos_fail_every`],
//! [`Store::chaos_tear_every`]) inject write failures and torn final
//! writes deterministically for the crash-recovery tests.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use zeus::StableHasher;

/// The magic + version on every entry's header line. Bump the version
/// when the entry layout changes: old entries then fail the header
/// check and are rebuilt rather than misread.
const MAGIC: &str = "zeus-store v1";

/// What a startup recovery sweep found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Entries that passed verification.
    pub ok: usize,
    /// Entries moved to `quarantine/`.
    pub quarantined: usize,
    /// Leftover `*.tmp` files removed (a write died before its rename).
    pub tmp_removed: usize,
    /// On-disk bytes across the verified entries.
    pub total_bytes: u64,
    /// Verified entries per kind, sorted by kind name.
    pub kinds: Vec<(String, usize)>,
}

impl RecoveryReport {
    /// One-line summary for the daemon's startup log.
    pub fn summary(&self) -> String {
        let kinds = if self.kinds.is_empty() {
            "none".to_string()
        } else {
            self.kinds
                .iter()
                .map(|(k, n)| format!("{k}={n}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "{} entries ({} bytes; {kinds}), {} quarantined, {} tmp removed",
            self.ok, self.total_bytes, self.quarantined, self.tmp_removed
        )
    }
}

/// Counters the daemon exposes for observability and tests.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Hits.
    pub hits: AtomicU64,
    /// Misses (no entry).
    pub misses: AtomicU64,
    /// Entries quarantined after failing verification at read time.
    pub quarantined: AtomicU64,
    /// Writes dropped by an I/O error (including injected ones).
    pub failed_writes: AtomicU64,
}

/// The content-addressed text store.
pub struct Store {
    root: PathBuf,
    /// Fail every Nth write with an injected I/O error (0 = off).
    chaos_fail: AtomicU64,
    /// Tear every Nth write: write only half the bytes, non-atomically,
    /// simulating power loss mid-write (0 = off).
    chaos_tear: AtomicU64,
    /// Treat every Nth swept entry as unreadable (0 = off). The tests
    /// run with privileges that read through `chmod 0`, so permission
    /// loss has to be injected rather than staged on disk.
    chaos_unreadable: AtomicU64,
    writes: AtomicU64,
    swept: AtomicU64,
    /// Hit/miss/quarantine counters.
    pub stats: StoreStats,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root` and runs the
    /// recovery sweep over existing entries.
    ///
    /// # Errors
    ///
    /// Only directory creation failures; a corrupt entry is never an
    /// error (it is quarantined).
    pub fn open(root: &Path) -> io::Result<(Store, RecoveryReport)> {
        let store = Store {
            root: root.to_path_buf(),
            chaos_fail: AtomicU64::new(0),
            chaos_tear: AtomicU64::new(0),
            chaos_unreadable: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            swept: AtomicU64::new(0),
            stats: StoreStats::default(),
        };
        ensure_dir(&store.objects_dir())?;
        ensure_dir(&store.quarantine_dir())?;
        ensure_dir(&store.journal_dir())?;
        let report = store.recover();
        Ok((store, report))
    }

    /// Where auto-checkpoint journals for in-flight campaigns live.
    pub fn journal_dir(&self) -> PathBuf {
        self.root.join("journals")
    }

    fn objects_dir(&self) -> PathBuf {
        self.root.join("objects")
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    fn entry_path(&self, kind: &str, key: u64) -> PathBuf {
        self.objects_dir().join(format!("{kind}-{key:016x}"))
    }

    /// Injects an I/O failure on every `n`th write (`0` disables).
    pub fn chaos_fail_every(&self, n: u64) {
        self.chaos_fail.store(n, Ordering::Relaxed);
    }

    /// Tears every `n`th write (`0` disables): half the bytes land,
    /// non-atomically, as if power was lost mid-write.
    pub fn chaos_tear_every(&self, n: u64) {
        self.chaos_tear.store(n, Ordering::Relaxed);
    }

    /// Makes every `n`th entry swept by [`Store::recover`] read as
    /// unreadable (`0` disables), as if its permissions were lost. The
    /// sweep must quarantine it and keep serving the rest.
    pub fn chaos_unreadable_every(&self, n: u64) {
        self.chaos_unreadable.store(n, Ordering::Relaxed);
    }

    /// Verifies every on-disk entry, quarantining failures and sweeping
    /// orphaned temp files. Called by [`Store::open`]; harmless to call
    /// again.
    pub fn recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let mut kinds: std::collections::BTreeMap<String, usize> = Default::default();
        let Ok(entries) = std::fs::read_dir(self.objects_dir()) else {
            return report;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                // A durable write that died between create and rename;
                // the entry it was replacing (if any) is still intact.
                let _ = std::fs::remove_file(&path);
                report.tmp_removed += 1;
                continue;
            }
            let n = self.swept.fetch_add(1, Ordering::Relaxed) + 1;
            let unreadable = self.chaos_unreadable.load(Ordering::Relaxed);
            let verified = if unreadable != 0 && n.is_multiple_of(unreadable) {
                None
            } else {
                read_verified(&path)
            };
            match verified {
                Some((kind, _, _)) => {
                    report.ok += 1;
                    report.total_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
                    *kinds.entry(kind).or_insert(0) += 1;
                }
                None => {
                    // Covers torn and bit-flipped entries, but also
                    // unreadable files and whole subdirectories that
                    // appeared under objects/: rename needs only write
                    // access to the parents, so quarantining works even
                    // when reading the entry does not.
                    self.quarantine(&path);
                    report.quarantined += 1;
                }
            }
        }
        report.kinds = kinds.into_iter().collect();
        report
    }

    /// Moves a failed entry aside, keeping it for post-mortems.
    fn quarantine(&self, path: &Path) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_string());
        for i in 0.. {
            let dest = self.quarantine_dir().join(format!("{name}.{i}"));
            if !dest.exists() {
                let _ = std::fs::rename(path, &dest);
                break;
            }
        }
        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
    }
}

/// Creates a store directory, moving aside anything that is squatting
/// on the path as a non-directory (e.g. a stray `objects` file left by
/// a misbehaving tool). The squatter is kept as `<name>.corrupt.<n>` —
/// like quarantine, it is evidence, not garbage.
fn ensure_dir(path: &Path) -> io::Result<()> {
    if path.exists() && !path.is_dir() {
        for i in 0.. {
            let dest = path.with_extension(format!("corrupt.{i}"));
            if !dest.exists() {
                std::fs::rename(path, &dest)?;
                break;
            }
        }
    }
    std::fs::create_dir_all(path)
}

/// Header + checksummed body for one entry.
fn encode_entry(kind: &str, key: u64, body: &str) -> String {
    let mut h = StableHasher::new();
    h.write_bytes(body.as_bytes());
    format!(
        "{MAGIC} kind={kind} key={key:016x} len={} sum={:016x}\n{body}",
        body.len(),
        h.finish()
    )
}

/// Parses and verifies one entry file: magic, length, checksum. Returns
/// `(kind, key, body)` or `None` on any mismatch.
fn read_verified(path: &Path) -> Option<(String, u64, String)> {
    let text = std::fs::read_to_string(path).ok()?;
    let (header, body) = text.split_once('\n')?;
    let mut fields = header.split(' ');
    if fields.next()? != "zeus-store" || fields.next()? != "v1" {
        return None;
    }
    let mut kind = None;
    let mut key = None;
    let mut len = None;
    let mut sum = None;
    for field in fields {
        let (name, value) = field.split_once('=')?;
        match name {
            "kind" => kind = Some(value.to_string()),
            "key" => key = u64::from_str_radix(value, 16).ok(),
            "len" => len = value.parse::<usize>().ok(),
            "sum" => sum = u64::from_str_radix(value, 16).ok(),
            _ => return None,
        }
    }
    let (kind, key, len, sum) = (kind?, key?, len?, sum?);
    if body.len() != len {
        return None;
    }
    let mut h = StableHasher::new();
    h.write_bytes(body.as_bytes());
    if h.finish() != sum {
        return None;
    }
    Some((kind, key, body.to_string()))
}

impl zeus_cli::Cache for Store {
    /// Reads and verifies one entry; quarantines it on any mismatch.
    fn get_text(&self, kind: &str, key: u64) -> Option<String> {
        let path = self.entry_path(kind, key);
        if !path.exists() {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match read_verified(&path) {
            Some((k, got_key, body)) if k == kind && got_key == key => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(body)
            }
            _ => {
                // Torn, flipped, or filed under the wrong name: never
                // serve it, never trust it again.
                self.quarantine(&path);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Durably writes one entry (best-effort; errors are counted and
    /// swallowed).
    fn put_text(&self, kind: &str, key: u64, body: &str) {
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        let path = self.entry_path(kind, key);
        let text = encode_entry(kind, key, body);

        let fail = self.chaos_fail.load(Ordering::Relaxed);
        if fail != 0 && n.is_multiple_of(fail) {
            self.stats.failed_writes.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let tear = self.chaos_tear.load(Ordering::Relaxed);
        if tear != 0 && n.is_multiple_of(tear) {
            // Simulated power loss: a direct, truncated, non-durable
            // write to the final path. Verification must catch it.
            let _ = std::fs::write(&path, &text.as_bytes()[..text.len() / 2]);
            self.stats.failed_writes.fetch_add(1, Ordering::Relaxed);
            return;
        }

        if zeus::write_durable(&path, text.as_bytes()).is_err() {
            self.stats.failed_writes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_cli::Cache;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zeus-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_and_survives_reopen() {
        let root = tmp_root("roundtrip");
        let (store, _) = Store::open(&root).unwrap();
        store.put_text("sim", 7, "cycles    : 2\n");
        assert_eq!(store.get_text("sim", 7).as_deref(), Some("cycles    : 2\n"));

        let (reopened, report) = Store::open(&root).unwrap();
        assert_eq!(
            (report.ok, report.quarantined, report.tmp_removed),
            (1, 0, 0)
        );
        assert_eq!(report.kinds, vec![("sim".to_string(), 1)]);
        let entry_len = std::fs::metadata(reopened.entry_path("sim", 7))
            .unwrap()
            .len();
        assert_eq!(report.total_bytes, entry_len);
        assert!(report.summary().contains("sim=1"), "{}", report.summary());
        assert_eq!(
            reopened.get_text("sim", 7).as_deref(),
            Some("cycles    : 2\n")
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn bit_flip_is_quarantined_not_served() {
        let root = tmp_root("flip");
        let (store, _) = Store::open(&root).unwrap();
        store.put_text("fault", 3, "coverage: 68/68 detected\n");
        let path = store.entry_path("fault", 3);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(store.get_text("fault", 3), None, "corrupt entry served");
        assert!(!path.exists(), "corrupt entry left in objects/");
        assert_eq!(
            std::fs::read_dir(store.quarantine_dir()).unwrap().count(),
            1,
            "corrupt entry not quarantined"
        );
        // The slot is rebuildable immediately.
        store.put_text("fault", 3, "rebuilt\n");
        assert_eq!(store.get_text("fault", 3).as_deref(), Some("rebuilt\n"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_write_is_quarantined_on_startup() {
        let root = tmp_root("torn");
        let (store, _) = Store::open(&root).unwrap();
        store.put_text("atpg", 1, "intact entry\n");
        store.chaos_tear_every(1);
        store.put_text("atpg", 2, "this write will be torn in half\n");
        store.chaos_tear_every(0);

        // Same process: the torn entry reads as a miss and is
        // quarantined on access.
        assert_eq!(store.get_text("atpg", 2), None);

        // Restart: the sweep finds the intact entry and nothing else.
        let (reopened, report) = Store::open(&root).unwrap();
        assert_eq!(report.ok, 1, "{report:?}");
        assert_eq!(
            reopened.get_text("atpg", 1).as_deref(),
            Some("intact entry\n")
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_write_failure_is_a_silent_miss() {
        let root = tmp_root("fail");
        let (store, _) = Store::open(&root).unwrap();
        store.chaos_fail_every(1);
        store.put_text("sim", 9, "dropped\n");
        store.chaos_fail_every(0);
        assert_eq!(store.get_text("sim", 9), None);
        assert_eq!(store.stats.failed_writes.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_slot_entry_is_rejected() {
        // An entry whose header says key=A but which sits in slot B
        // (e.g. a bad copy) must not be served for B.
        let root = tmp_root("slot");
        let (store, _) = Store::open(&root).unwrap();
        store.put_text("sim", 0xA, "for slot A\n");
        std::fs::copy(store.entry_path("sim", 0xA), store.entry_path("sim", 0xB)).unwrap();
        assert_eq!(store.get_text("sim", 0xB), None);
        assert_eq!(store.get_text("sim", 0xA).as_deref(), Some("for slot A\n"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn hostile_subdirectory_in_objects_is_quarantined() {
        let root = tmp_root("subdir");
        let (store, _) = Store::open(&root).unwrap();
        store.put_text("sim", 1, "good entry\n");

        // A directory (readonly, non-empty) appears under objects/ —
        // say a botched restore from backup. The sweep cannot read it
        // as an entry; it must move it aside and keep serving.
        let evil = store.objects_dir().join("evil");
        std::fs::create_dir(&evil).unwrap();
        std::fs::write(evil.join("junk"), b"not an entry").unwrap();
        let mut perms = std::fs::metadata(&evil).unwrap().permissions();
        perms.set_readonly(true);
        std::fs::set_permissions(&evil, perms).unwrap();

        let (reopened, report) = Store::open(&root).unwrap();
        assert_eq!(
            (report.ok, report.quarantined, report.tmp_removed),
            (1, 1, 0)
        );
        assert!(!evil.exists(), "hostile subdirectory left in objects/");
        let moved = reopened.quarantine_dir().join("evil.0");
        assert!(moved.is_dir(), "hostile subdirectory not kept as evidence");
        assert_eq!(reopened.get_text("sim", 1).as_deref(), Some("good entry\n"));
        reopened.put_text("sim", 2, "still writable\n");
        assert_eq!(
            reopened.get_text("sim", 2).as_deref(),
            Some("still writable\n")
        );

        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            std::fs::set_permissions(&moved, std::fs::Permissions::from_mode(0o755)).unwrap();
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn chaos_unreadable_sweep_quarantines_and_keeps_serving() {
        let root = tmp_root("unreadable");
        let (store, _) = Store::open(&root).unwrap();
        store.put_text("sim", 1, "one\n");
        store.put_text("sim", 2, "two\n");

        // Every second swept entry reads as unreadable: exactly one of
        // the two is quarantined, whichever order the sweep visits.
        store.chaos_unreadable_every(2);
        let report = store.recover();
        store.chaos_unreadable_every(0);
        assert_eq!(report.ok, 1, "{report:?}");
        assert_eq!(report.quarantined, 1, "{report:?}");
        assert_eq!(
            std::fs::read_dir(store.quarantine_dir()).unwrap().count(),
            1,
            "unreadable entry not kept as evidence"
        );

        // The survivor is still served and the quarantined slot is
        // rebuildable: the store kept serving through permission loss.
        let survivors = (1..=2u64)
            .filter(|k| store.get_text("sim", *k).is_some())
            .count();
        assert_eq!(survivors, 1);
        store.put_text("sim", 3, "after\n");
        assert_eq!(store.get_text("sim", 3).as_deref(), Some("after\n"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn objects_path_squatted_by_a_file_is_moved_aside() {
        let root = tmp_root("squat");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("objects"), b"i am not a directory").unwrap();

        let (store, report) = Store::open(&root).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(
            std::fs::read(root.join("objects.corrupt.0")).unwrap(),
            b"i am not a directory",
            "squatting file not kept as evidence"
        );
        store.put_text("sim", 5, "works\n");
        assert_eq!(store.get_text("sim", 5).as_deref(), Some("works\n"));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The `design` entry keys in the store.
    fn design_keys(store: &Store) -> Vec<u64> {
        std::fs::read_dir(store.objects_dir())
            .unwrap()
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                u64::from_str_radix(name.strip_prefix("design-")?, 16).ok()
            })
            .collect()
    }

    /// A `design` entry whose store checksum holds but whose payload
    /// `zeus::design_from_text` rejects (say, one written in an older
    /// `zeus-design` format): zeusc treats it as a miss, re-elaborates,
    /// and the fresh design overwrites it.
    #[test]
    fn undecodable_design_entry_is_a_miss_and_is_rewritten() {
        let root = tmp_root("stale-design");
        let (store, _) = Store::open(&root).unwrap();
        let sources = std::collections::HashMap::new();
        let run = |seed: &str| {
            let argv: Vec<String> = ["sim", "@adders", "rippleCarry4", "--seed", seed]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let mut sess = zeus_cli::Session {
                sources: Some(&sources),
                cache: Some(&store),
                ..zeus_cli::Session::default()
            };
            let code = zeus_cli::run_to_completion(&argv, &mut sess);
            assert_eq!(
                (code, sess.out, sess.err),
                zeus_cli::run_captured(&argv),
                "seed {seed}"
            );
            sess.cache_hits
        };

        assert_eq!(run("1"), 0);
        let [key] = design_keys(&store)[..] else {
            panic!("expected one design entry");
        };
        let fresh = store.get_text("design", key).unwrap();
        let stale = fresh.replacen("zeus-design v", "zeus-design v0.", 1);
        assert!(zeus::design_from_text(&stale).is_err());
        store.put_text("design", key, &stale);
        assert_eq!(store.get_text("design", key).as_deref(), Some(&*stale));

        // A new answer over the same design: the stale entry is a miss.
        assert_eq!(run("2"), 0, "an undecodable design entry counted as a hit");
        assert_eq!(store.get_text("design", key), Some(fresh));
        assert_eq!(run("3"), 1, "the rewritten entry is not reused");
        assert_eq!(store.stats.quarantined.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
