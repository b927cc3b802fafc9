//! The optionally-persistent synthesis cache behind [`lakeroad::MapCache`].
//!
//! Entries are keyed by [`lakeroad::CacheKey`] (canonical spec × architecture ×
//! template) and store replayable verdicts
//! ([`lakeroad::CachedOutcome`]): hole assignments for successes, a bare marker
//! for UNSATs. The whole table — entries, insertion order, cap and
//! hit/miss/store/invalidation/eviction counters — sits behind one
//! `std::sync::Mutex`: a lookup holds it for a hash probe, while the request
//! around it is a solver run or a replay of a millisecond or more, so one
//! lock is all the traffic needs. An optional entry-count
//! cap ([`SynthCache::set_capacity`]) bounds the whole cache exactly, evicting
//! the oldest insertions first, so a long-lived daemon process cannot grow
//! without bound; the cap defaults to off for one-shot batch runs.
//!
//! [`SynthCache::save`] / [`SynthCache::load`] persist the table as a sorted
//! line-oriented text file, written atomically (temp file + rename), so a warm
//! cache survives across CLI invocations (`lakeroad batch --cache <path>`).
//! The format is versioned and forward-fails: an unrecognized header is an
//! error, a torn line is an error, and a key that does not parse is an error —
//! a corrupt cache file must never silently load as a smaller cache. Bump the
//! format header's version whenever sketch generation or synthesis semantics
//! change what is mappable: success entries self-check on replay,
//! but UNSAT entries are trusted from the address alone, so a semantic change
//! must orphan old files rather than let them answer for the new engine. A
//! change to what the key hashes alone needs no bump: an old file still
//! loads, and its entries, which no new key addresses, are never served and
//! age out wherever a cap is set.

use std::collections::{hash_map::Entry, BTreeMap, HashMap};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use lakeroad::{CacheKey, CachedOutcome, MapCache};
use lr_bv::BitVec;

/// Point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (including overwrites).
    pub stores: u64,
    /// Entries dropped because a replay failed verification.
    pub invalidations: u64,
    /// Entries dropped to keep the cache under its entry-count cap.
    pub evictions: u64,
}

impl CacheSnapshot {
    /// Hits as a fraction of all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter deltas between two snapshots (`later - self`).
    pub fn delta(&self, later: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: later.hits - self.hits,
            misses: later.misses - self.misses,
            stores: later.stores - self.stores,
            invalidations: later.invalidations - self.invalidations,
            evictions: later.evictions - self.evictions,
        }
    }
}

/// The whole cache state. Every live entry has one generation, assigned when
/// its key is first stored, and `order` maps each live generation back to its
/// key, so the first entry of `order` is always the oldest live entry.
#[derive(Debug, Default)]
struct Table {
    map: HashMap<CacheKey, (u64, CachedOutcome)>,
    order: BTreeMap<u64, CacheKey>,
    next_gen: u64,
    /// Entry-count cap; `None` is unbounded (the default, right for one-shot
    /// batch runs — the daemon turns the cap on).
    cap: Option<usize>,
    counters: CacheSnapshot,
}

impl Table {
    /// Inserts or overwrites one entry. A fresh key gets a new generation; an
    /// overwrite keeps the existing one (and so its insertion-order position).
    fn insert(&mut self, key: CacheKey, outcome: CachedOutcome) {
        match self.map.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().1 = outcome,
            Entry::Vacant(e) => {
                let gen = self.next_gen;
                self.next_gen += 1;
                e.insert((gen, outcome));
                self.order.insert(gen, key);
            }
        }
    }

    /// Evicts the oldest entries until the table is within its cap.
    fn trim(&mut self) {
        let Some(cap) = self.cap else { return };
        while self.map.len() > cap {
            let Some((_, oldest)) = self.order.pop_first() else { break };
            self.map.remove(&oldest);
            self.counters.evictions += 1;
        }
    }
}

/// An in-memory synthesis cache with optional on-disk persistence and an
/// optional entry-count cap (see [`SynthCache::set_capacity`]).
#[derive(Debug, Default)]
pub struct SynthCache {
    table: Mutex<Table>,
}

impl SynthCache {
    /// An empty, unbounded cache.
    pub fn new() -> SynthCache {
        SynthCache::default()
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("a thread panicked while holding the cache lock")
    }

    /// Sets (or clears, with `None`/`Some(0)` meaning unbounded) the entry-count
    /// cap and immediately evicts down to it, oldest insertions first.
    pub fn set_capacity(&self, cap: Option<usize>) {
        let mut table = self.table();
        table.cap = cap.filter(|&cap| cap > 0);
        table.trim();
    }

    /// The configured entry-count cap (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.table().cap
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.table().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counter values.
    pub fn snapshot(&self) -> CacheSnapshot {
        self.table().counters
    }

    /// All entries, sorted by key (the persistence order; also handy for tests).
    pub fn entries(&self) -> Vec<(CacheKey, CachedOutcome)> {
        let mut out: Vec<(CacheKey, CachedOutcome)> =
            self.table().map.iter().map(|(k, (_, v))| (*k, v.clone())).collect();
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// Writes the cache to `path` in the versioned text format. The write is
    /// atomic (a unique temp file in the same directory, fsynced, renamed over
    /// the target): a crash or full disk mid-save must not replace a good warm
    /// cache with a torn file that the strict loader would then reject
    /// forever, and two concurrent writers (the daemon's background persister
    /// racing a `lakeroad batch --cache` exit save, or two batch processes
    /// sharing one warm file) land whole-file last-writer-wins.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut out = Vec::new();
        writeln!(out, "{FORMAT_HEADER}")?;
        for (key, outcome) in self.entries() {
            match outcome {
                CachedOutcome::Unsat => writeln!(out, "{key} unsat")?,
                CachedOutcome::Success { holes } => {
                    write!(out, "{key} success")?;
                    for (name, value) in &holes {
                        write!(out, " {name}={value}")?;
                    }
                    writeln!(out)?;
                }
            }
        }
        write_atomic(path, &out)
    }

    /// Reads a cache from `path`. A missing file yields an empty cache (cold
    /// start); an unreadable or malformed file is an error.
    ///
    /// # Errors
    /// Propagates I/O errors; malformed content maps to
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<SynthCache> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(SynthCache::new()),
            Err(e) => return Err(e),
        };
        let cache = SynthCache::new();
        let mut lines = text.lines();
        match lines.next() {
            Some(FORMAT_HEADER) => {}
            other => {
                return Err(invalid(format!("unrecognized cache header {other:?}")));
            }
        }
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let entry = parse_entry(line)
                .map_err(|e| invalid(format!("cache line {}: {e}", lineno + 2)))?;
            let (key, outcome) = entry;
            cache.table().insert(key, outcome);
        }
        Ok(cache)
    }
}

const FORMAT_HEADER: &str = "lakeroad-serve-cache v1";

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn parse_entry(line: &str) -> Result<(CacheKey, CachedOutcome), String> {
    let mut fields = line.split_whitespace();
    let key: CacheKey = fields.next().ok_or("missing key")?.parse()?;
    match fields.next() {
        Some("unsat") => match fields.next() {
            None => Ok((key, CachedOutcome::Unsat)),
            Some(extra) => Err(format!("trailing field `{extra}` after unsat")),
        },
        Some("success") => {
            let mut holes = std::collections::BTreeMap::new();
            for field in fields {
                let (name, literal) =
                    field.split_once('=').ok_or_else(|| format!("malformed hole `{field}`"))?;
                let value =
                    BitVec::parse_verilog(literal).map_err(|e| format!("hole `{name}`: {e}"))?;
                holes.insert(name.to_string(), value);
            }
            Ok((key, CachedOutcome::Success { holes }))
        }
        other => Err(format!("unknown verdict {other:?}")),
    }
}

impl MapCache for SynthCache {
    fn lookup(&self, key: &CacheKey) -> Option<CachedOutcome> {
        let mut table = self.table();
        let found = table.map.get(key).map(|(_, v)| v.clone());
        match found {
            Some(_) => table.counters.hits += 1,
            None => table.counters.misses += 1,
        }
        found
    }

    fn store(&self, key: CacheKey, outcome: CachedOutcome) {
        let mut table = self.table();
        table.insert(key, outcome);
        table.trim();
        table.counters.stores += 1;
    }

    fn invalidate(&self, key: &CacheKey) {
        let mut table = self.table();
        if let Some((gen, _)) = table.map.remove(key) {
            table.order.remove(&gen);
            table.counters.invalidations += 1;
        }
    }
}

/// Writes `bytes` to `path` atomically: into a temp file in the same
/// directory, fsynced, then renamed over the target, so a reader sees either
/// the old file or the whole new one and a crash cannot leave the target
/// pointing at not-yet-durable content. The directory is fsynced after the
/// rename so the new entry itself survives a crash. The temp name is unique
/// per process *and* per write, so concurrent writers never interleave
/// through one temp file; a failed write removes its temp file.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TICKET: AtomicU64 = AtomicU64::new(0);
    let base = path
        .file_name()
        .map_or_else(|| "file".to_string(), |name| name.to_string_lossy().into_owned());
    let tmp = path.with_file_name(format!(
        "{base}.{}.{}.tmp",
        std::process::id(),
        TICKET.fetch_add(1, Ordering::Relaxed),
    ));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn key(n: u64) -> CacheKey {
        CacheKey([n, n.wrapping_mul(0x9E37_79B9_7F4A_7C15)])
    }

    fn success(bits: u64) -> CachedOutcome {
        let mut holes = BTreeMap::new();
        holes.insert("k".to_string(), BitVec::from_u64(bits, 8));
        holes.insert("mode".to_string(), BitVec::from_u64(bits % 4, 2));
        CachedOutcome::Success { holes }
    }

    #[test]
    fn lookup_store_invalidate_and_counters() {
        let cache = SynthCache::new();
        assert_eq!(cache.lookup(&key(1)), None);
        cache.store(key(1), success(7));
        cache.store(key(2), CachedOutcome::Unsat);
        assert_eq!(cache.lookup(&key(1)), Some(success(7)));
        assert_eq!(cache.lookup(&key(2)), Some(CachedOutcome::Unsat));
        cache.invalidate(&key(1));
        cache.invalidate(&key(1)); // second invalidation of a gone key is a no-op
        assert_eq!(cache.lookup(&key(1)), None);
        let snap = cache.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.misses, 2);
        assert_eq!(snap.stores, 2);
        assert_eq!(snap.invalidations, 1);
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn persistence_roundtrips() {
        let cache = SynthCache::new();
        cache.store(key(10), success(0xAB));
        cache.store(key(11), CachedOutcome::Unsat);
        let dir = std::env::temp_dir().join("lr_serve_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.lrc");
        cache.save(&path).unwrap();
        let loaded = SynthCache::load(&path).unwrap();
        assert_eq!(loaded.entries(), cache.entries());
        std::fs::remove_file(&path).unwrap();
        // A missing file is a cold start, not an error.
        assert!(SynthCache::load(&path).unwrap().is_empty());
    }

    #[test]
    fn malformed_files_are_rejected() {
        let dir = std::env::temp_dir().join("lr_serve_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, content) in [
            ("bad_header.lrc", "some-other-format v9\n"),
            ("bad_key.lrc", "lakeroad-serve-cache v1\nnothex unsat\n"),
            ("bad_verdict.lrc", &format!("lakeroad-serve-cache v1\n{} maybe\n", key(1))),
            ("bad_hole.lrc", &format!("lakeroad-serve-cache v1\n{} success k=zz'q0\n", key(1))),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            let err = SynthCache::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn unbounded_by_default_grows_without_eviction() {
        // Regression (unbounded-growth bug): before the cap existed this was
        // the *only* behaviour; now it must remain the default.
        let cache = SynthCache::new();
        assert_eq!(cache.capacity(), None);
        for n in 0..200 {
            cache.store(key(n), CachedOutcome::Unsat);
        }
        assert_eq!(cache.len(), 200);
        assert_eq!(cache.snapshot().evictions, 0);
    }

    #[test]
    fn capacity_cap_evicts_oldest_insertions() {
        let cache = SynthCache::new();
        cache.set_capacity(Some(32));
        for n in 0..200 {
            cache.store(key(n), CachedOutcome::Unsat);
        }
        assert_eq!(cache.len(), 32);
        let snap = cache.snapshot();
        assert_eq!(snap.stores, 200);
        assert_eq!(snap.evictions, 200 - 32);
        // The 32 newest keys survived; the oldest ones are gone.
        assert!(cache.lookup(&key(199)).is_some());
        assert!(cache.lookup(&key(168)).is_some());
        assert!(cache.lookup(&key(167)).is_none());
        assert!(cache.lookup(&key(0)).is_none());
    }

    #[test]
    fn the_cap_bounds_the_whole_cache() {
        let cache = SynthCache::new();
        cache.set_capacity(Some(2));
        for n in 1..=3 {
            cache.store(key(n), CachedOutcome::Unsat);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&key(1)), None);
        assert_eq!(cache.snapshot().evictions, 1);
    }

    #[test]
    fn setting_a_capacity_trims_immediately() {
        let cache = SynthCache::new();
        for n in 0..100 {
            cache.store(key(n), CachedOutcome::Unsat);
        }
        assert_eq!(cache.len(), 100);
        cache.set_capacity(Some(16));
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.snapshot().evictions, 100 - 16);
        // Clearing the cap stops eviction again.
        cache.set_capacity(None);
        for n in 100..200 {
            cache.store(key(n), CachedOutcome::Unsat);
        }
        assert_eq!(cache.len(), 16 + 100);
    }

    #[test]
    fn eviction_skips_invalidated_keys_without_counting_them() {
        let cache = SynthCache::new();
        cache.set_capacity(Some(1));
        cache.store(key(16), CachedOutcome::Unsat);
        cache.invalidate(&key(16));
        cache.store(key(32), CachedOutcome::Unsat); // within the cap: no eviction needed
        assert_eq!(cache.lookup(&key(32)), Some(CachedOutcome::Unsat));
        assert_eq!(cache.snapshot().evictions, 0);
    }

    #[test]
    fn a_restored_key_is_not_evicted_through_its_stale_queue_slot() {
        // Regression: a key invalidated and then re-stored used to be queued
        // twice; eviction popping the stale first occurrence removed the live,
        // freshly-stored entry (and counted it), evicting it ahead of
        // genuinely older entries. Invalidation drops the key's place in the
        // insertion order along with the entry, so no stale slot remains.
        let cache = SynthCache::new();
        cache.set_capacity(Some(2));
        let (a, b, c) = (key(16), key(32), key(48));
        cache.store(a, CachedOutcome::Unsat);
        cache.store(b, CachedOutcome::Unsat);
        cache.invalidate(&a);
        cache.store(a, success(1)); // re-store: `a` is now the newest entry
        cache.store(c, CachedOutcome::Unsat); // over cap: must evict `b`, the oldest
        assert_eq!(cache.lookup(&a), Some(success(1)), "freshly re-stored entry evicted");
        assert_eq!(cache.lookup(&b), None);
        assert_eq!(cache.lookup(&c), Some(CachedOutcome::Unsat));
        assert_eq!(cache.snapshot().evictions, 1);
    }

    #[test]
    fn two_writer_saves_never_tear_the_file() {
        // Regression (save race): the fixed `path.with_extension("tmp")` temp
        // name let two concurrent writers interleave create/truncate/write on
        // one temp path and rename a half-written file over a good cache. With
        // unique per-save temp names every observable file state is one
        // writer's complete output, so a strict load after each save always
        // succeeds.
        let dir = std::env::temp_dir().join("lr_serve_cache_two_writer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.lrc");
        let big = SynthCache::new();
        for n in 0..400 {
            big.store(key(n), success(n % 251));
        }
        let small = SynthCache::new();
        small.store(key(9_999), CachedOutcome::Unsat);
        std::thread::scope(|scope| {
            for cache in [&big, &small] {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..40 {
                        cache.save(path).unwrap();
                        let loaded = SynthCache::load(path).unwrap();
                        let n = loaded.len();
                        assert!(n == 400 || n == 1, "torn cache file: {n} entries");
                    }
                });
            }
        });
        // No temp litter: every save either renamed or cleaned up after itself.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_temp_file_never_replaces_a_good_cache() {
        // Crash-safety for the daemon's snapshot persister: a writer that dies
        // mid-write leaves only its private temp file. The good cache stays
        // loadable, and a later successful save neither trips over nor
        // resurrects the torn temp.
        let dir = std::env::temp_dir().join("lr_serve_cache_torn_tmp_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.lrc");
        let cache = SynthCache::new();
        cache.store(key(1), success(1));
        cache.save(&path).unwrap();

        // Simulate a crash mid-write: a half-written temp alongside the target.
        let torn = dir.join("warm.lrc.4242.0.tmp");
        std::fs::write(&torn, "lakeroad-serve-cache v1\n0123").unwrap();

        let loaded = SynthCache::load(&path).unwrap();
        assert_eq!(loaded.entries(), cache.entries());

        cache.store(key(2), CachedOutcome::Unsat);
        cache.save(&path).unwrap();
        assert_eq!(SynthCache::load(&path).unwrap().len(), 2);
        // The torn temp is still just litter, not part of the cache.
        assert!(torn.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = SynthCache::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..100 {
                        let k = key(t * 1000 + i);
                        cache.store(k, CachedOutcome::Unsat);
                        assert!(cache.lookup(&k).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 400);
        assert_eq!(cache.snapshot().hits, 400);
    }
}
