//! Content-hash result cache.
//!
//! A cell's cache key hashes everything that determines its outcome:
//!
//! * a format-version salt ([`CACHE_VERSION`]) so stale layouts are
//!   invisible rather than misparsed,
//! * the cell descriptor (circuit label, algorithm, seed, attack kind
//!   *with its limits*),
//! * the generated netlist's `.bench` text — the actual input of the
//!   flow. If the generator, the profile table or the seed scheme
//!   changes, the text changes and every affected cell re-runs; cells
//!   whose circuits are byte-identical keep hitting.
//!
//! Keys are 128-bit [`sttlock_exec::CacheKey`]s — the keying scheme
//! itself lives in the exec runtime and is shared with serve's response
//! cache. The records live in one [`KeyedLog`] at
//! `<cache_dir>/campaign-cache.log`, last write wins. Only
//! [`RunStatus::Ok`](crate::RunStatus::Ok) records are stored:
//! failures, panics and timeouts always re-execute, because they are
//! exactly the cells one is trying to fix.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sttlock_exec::KeyBuilder;
use sttlock_store::{FsyncPolicy, KeyedLog, TextEntry};

use crate::json::Json;
use crate::record::RunRecord;

pub use sttlock_exec::CacheKey;

/// Bump when the record layout or keying scheme changes.
pub const CACHE_VERSION: u32 = 2;

/// One cached record: the key's hex form and the record's JSON.
type Entry = TextEntry<CACHE_VERSION>;

/// A persistent store of [`RunRecord`]s keyed by content hash. Clones
/// share one open log.
#[derive(Clone)]
pub struct Cache {
    store: Arc<Mutex<KeyedLog<Entry>>>,
}

/// Computes the key for one cell from its descriptor and the generated
/// netlist text.
pub fn cell_key(descriptor: &str, bench_text: &str) -> CacheKey {
    KeyBuilder::new(CACHE_VERSION)
        .field("cell", &descriptor)
        .text(bench_text)
        .finish()
}

impl Cache {
    /// Opens (creating if needed) the cache log under `dir`. Returns
    /// `None` if it cannot be opened — the campaign then runs uncached
    /// rather than failing.
    ///
    /// Fsync policy is [`FsyncPolicy::Never`]: losing an entry costs a
    /// recomputation, never correctness.
    pub fn open(dir: PathBuf) -> Option<Cache> {
        let opened = KeyedLog::open(dir.join("campaign-cache.log"), FsyncPolicy::Never).ok()?;
        Some(Cache {
            store: Arc::new(Mutex::new(opened.store)),
        })
    }

    /// The log stays valid across a panic elsewhere: a put appends a
    /// whole record, then inserts it.
    fn locked(&self) -> MutexGuard<'_, KeyedLog<Entry>> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a cached record. An entry that does not parse reads as
    /// a miss.
    pub fn lookup(&self, key: CacheKey) -> Option<RunRecord> {
        let text = self.locked().get(&key.hex())?.body.clone();
        RunRecord::from_json(&Json::parse(&text).ok()?)
    }

    /// Stores a successful record. Write failures are swallowed: the
    /// cache is an accelerator, never a correctness dependency.
    pub fn store(&self, key: CacheKey, record: &RunRecord) {
        if !record.status.is_ok() {
            return;
        }
        let _ = self.locked().put(Entry {
            key: key.hex(),
            body: record.to_json().to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunStatus;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sttlock-campaign-cache-tests")
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tmp_cache(name: &str) -> Cache {
        Cache::open(tmp_dir(name)).unwrap()
    }

    fn ok_record() -> RunRecord {
        RunRecord {
            status: RunStatus::Ok,
            flow: Some(crate::record::FlowMetrics::default()),
            wall_ms: 5,
            ..RunRecord::failure("s27", "independent", 42, "none", RunStatus::Ok)
        }
    }

    #[test]
    fn keys_separate_descriptor_and_content() {
        let k = cell_key("s27|independent|42|none", "INPUT(a)\n");
        assert_eq!(k, cell_key("s27|independent|42|none", "INPUT(a)\n"));
        assert_ne!(k, cell_key("s27|independent|43|none", "INPUT(a)\n"));
        assert_ne!(k, cell_key("s27|independent|42|none", "INPUT(b)\n"));
        // The separator prevents boundary ambiguity.
        assert_ne!(
            cell_key("ab", "c"),
            cell_key("a", "bc"),
            "descriptor/content boundary must be keyed"
        );
        assert_eq!(k.hex().len(), 32);
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = tmp_cache("roundtrip");
        let key = cell_key("d", "t");
        assert_eq!(cache.lookup(key), None);
        let r = ok_record();
        cache.store(key, &r);
        assert_eq!(cache.lookup(key), Some(r));
    }

    #[test]
    fn failures_are_never_cached() {
        let cache = tmp_cache("failures");
        let key = cell_key("d", "t");
        for status in [
            RunStatus::Failed("x".into()),
            RunStatus::Panicked("y".into()),
            RunStatus::TimedOut,
        ] {
            cache.store(key, &RunRecord::failure("c", "a", 1, "none", status));
            assert_eq!(cache.lookup(key), None);
        }
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let dir = tmp_dir("corrupt");
        let key = cell_key("d", "t");
        let mut opened =
            KeyedLog::open(dir.join("campaign-cache.log"), FsyncPolicy::Never).unwrap();
        opened
            .store
            .put(Entry {
                key: key.hex(),
                body: "not json{".to_owned(),
            })
            .unwrap();
        drop(opened);
        assert_eq!(Cache::open(dir).unwrap().lookup(key), None);
    }
}
