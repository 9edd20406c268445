//! Persistent harden response cache on the store's keyed log.
//!
//! The whole response cache is one last-wins [`KeyedLog`] at
//! `<cache_dir>/harden-cache.log`. Every stored response is appended as
//! a [`CacheEntry`]; on boot the log is replayed into the store's live
//! map, so a restarted server answers repeat requests from the
//! warm-loaded cache without re-running the flow. Warm entries that hit
//! report `store.cache_warm_hits`.
//!
//! Durability is [`FsyncPolicy::Never`]: losing a cache entry costs a
//! recomputation, never correctness, so the log rides the OS page
//! cache, and [`HardenCache::flush`] fsyncs it on a graceful drain.
//! Entries recorded under a different [`HARDEN_KEY_VERSION`] do not
//! decode (the keying scheme changed under them), so the store skips
//! them and compacts them away at open.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use sttlock_exec::CacheKey;
use sttlock_store::{FsyncPolicy, KeyedLog, TextEntry};

/// Version salt for the harden response-cache keying. v1 was the
/// pre-exec string-descriptor scheme (`serve.harden|v1|…`); v2 keys the
/// same inputs as typed [`sttlock_exec::KeyBuilder`] fields, so stale
/// v1 entries are invisible rather than misparsed.
pub const HARDEN_KEY_VERSION: u32 = 2;

/// One persisted response: the 128-bit cache key as hex and the cached
/// JSON response body, stamped with [`HARDEN_KEY_VERSION`].
pub type CacheEntry = TextEntry<HARDEN_KEY_VERSION>;

/// The serve layer's persistent response cache.
pub struct HardenCache {
    store: Mutex<KeyedLog<CacheEntry>>,
    /// Keys loaded from a previous process life: a hit on one is a
    /// cross-restart hit and counts `store.cache_warm_hits`.
    warm: HashSet<String>,
}

impl HardenCache {
    /// Opens (creating if needed) the cache log under `dir` and
    /// warm-loads its entries. Returns `None` if the log cannot be
    /// opened — the server then runs uncached rather than failing.
    pub fn open(dir: PathBuf) -> Option<HardenCache> {
        let opened = KeyedLog::open(dir.join("harden-cache.log"), FsyncPolicy::Never).ok()?;
        sttlock_obs::counter("store.cache_warm_loaded", opened.entries.len() as u64);
        Some(HardenCache {
            store: Mutex::new(opened.store),
            warm: opened.entries.into_keys().collect(),
        })
    }

    /// The log stays valid across a panic elsewhere: a put appends a
    /// whole record, then inserts it.
    fn locked(&self) -> MutexGuard<'_, KeyedLog<CacheEntry>> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a cached response body. A hit on an entry warm-loaded
    /// from a previous process life reports `store.cache_warm_hits`.
    pub fn lookup_text(&self, key: CacheKey) -> Option<String> {
        let hex = key.hex();
        let body = self.locked().get(&hex)?.body.clone();
        if self.warm.contains(&hex) {
            sttlock_obs::counter("store.cache_warm_hits", 1);
        }
        Some(body)
    }

    /// Stores a response body under `key` for this and the next process
    /// life. Append failures are swallowed — the cache is an
    /// accelerator, never a correctness dependency.
    pub fn store_text(&self, key: CacheKey, text: &str) {
        let _ = self.locked().put(CacheEntry {
            key: key.hex(),
            body: text.to_owned(),
        });
    }

    /// Best-effort fsync of the log, called on graceful shutdown so a
    /// clean exit leaves a durable cache even under `FsyncPolicy::Never`.
    pub fn flush(&self) {
        let _ = self.locked().sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttlock_exec::KeyBuilder;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sttlock-serve-cache-tests")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(seed: u64) -> CacheKey {
        KeyBuilder::new(HARDEN_KEY_VERSION)
            .field("seed", &seed)
            .finish()
    }

    #[test]
    fn stores_survive_a_reopen_as_warm_entries() {
        let dir = tmp_dir("warm");
        {
            let cache = HardenCache::open(dir.clone()).unwrap();
            cache.store_text(key(1), "body-1");
            cache.store_text(key(2), "body-2");
            // Same-life hits are not warm hits.
            assert_eq!(cache.lookup_text(key(1)).as_deref(), Some("body-1"));
        }
        let cache = HardenCache::open(dir).unwrap();
        assert_eq!(cache.lookup_text(key(1)).as_deref(), Some("body-1"));
        assert_eq!(cache.lookup_text(key(2)).as_deref(), Some("body-2"));
        assert_eq!(cache.lookup_text(key(3)), None);
    }

    #[test]
    fn version_skewed_entries_are_invisible_and_compacted_away() {
        let dir = tmp_dir("skew");
        let stale_key = key(7);
        let path = dir.join("harden-cache.log");
        {
            let mut opened =
                sttlock_store::RecordLog::<TextEntry<{ HARDEN_KEY_VERSION + 1 }>>::open(
                    &path,
                    FsyncPolicy::Never,
                )
                .unwrap();
            opened
                .log
                .append(&TextEntry {
                    key: stale_key.hex(),
                    body: "from-the-future".to_owned(),
                })
                .unwrap();
        }
        {
            let cache = HardenCache::open(dir).unwrap();
            assert_eq!(cache.lookup_text(stale_key), None);
            cache.store_text(key(8), "live");
        }
        // The stale entry was compacted out, not just hidden: the
        // reopened log holds only the live record.
        let (payloads, _) = sttlock_store::read_all::<Vec<u8>>(&path).unwrap();
        assert_eq!(payloads.len(), 1);
        use sttlock_store::Record as _;
        assert_eq!(CacheEntry::decode(&payloads[0]).unwrap().body, "live");
    }
}
