//! The last-wins keyed record store: a [`RecordLog`] replayed into a
//! live map, where the last record appended under a key wins.
//!
//! Both result caches and the campaign resume journal are this shape —
//! a log of updates whose meaning is "the newest record per key" — so
//! they share one implementation of replay, dead-weight detection and
//! deterministic compaction.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;

use crate::log::{FsyncPolicy, OpenedLog, Record, RecordLog, RecoveryReport};

/// A [`Record`] stored under a key in a [`KeyedLog`]: a later record
/// with the same key replaces an earlier one.
pub trait Keyed: Record + Clone {
    /// The key this record is stored under.
    fn key(&self) -> String;
}

/// A text body under a string key, stamped with a layout version — the
/// record both result caches keep. A payload stamped with another
/// version does not decode, so bumping the version turns old entries
/// into dead weight that the next open compacts away.
///
/// Payload layout: `[u32 VERSION LE][u16 key_len LE][key][body]`. The
/// frame already carries the total length and CRC, so the body needs no
/// terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextEntry<const VERSION: u32> {
    /// The key.
    pub key: String,
    /// The stored text.
    pub body: String,
}

impl<const VERSION: u32> Record for TextEntry<VERSION> {
    fn encode(&self) -> Vec<u8> {
        let key = self.key.as_bytes();
        let mut out = Vec::with_capacity(6 + key.len() + self.body.len());
        out.extend_from_slice(&VERSION.to_le_bytes());
        let key_len = u16::try_from(key.len()).expect("TextEntry keys are shorter than 64 KiB");
        out.extend_from_slice(&key_len.to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let (header, rest) = (bytes.get(..6)?, &bytes[6..]);
        let version = u32::from_le_bytes(header[..4].try_into().ok()?);
        let key_len = u16::from_le_bytes(header[4..6].try_into().ok()?) as usize;
        if version != VERSION || rest.len() < key_len {
            return None;
        }
        Some(TextEntry {
            key: String::from_utf8(rest[..key_len].to_vec()).ok()?,
            body: String::from_utf8(rest[key_len..].to_vec()).ok()?,
        })
    }
}

impl<const VERSION: u32> Keyed for TextEntry<VERSION> {
    fn key(&self) -> String {
        self.key.clone()
    }
}

/// The result of [`KeyedLog::open`]: the store plus its live entries
/// as they were when it was opened.
pub struct OpenedKeyed<T: Keyed> {
    /// The open store, positioned for [`KeyedLog::put`].
    pub store: KeyedLog<T>,
    /// The last record per key at open. Later puts do not change it,
    /// so callers can decide from the state a previous process left.
    pub entries: HashMap<String, T>,
    /// What the log's tail-heal recovery found.
    pub recovery: RecoveryReport,
}

/// A last-wins keyed store over a checksummed [`RecordLog`].
pub struct KeyedLog<T: Keyed> {
    log: RecordLog<T>,
    /// Each live key's record and the ordinal of its last append;
    /// compaction writes the live set in ordinal order.
    live: HashMap<String, (u64, T)>,
    next: u64,
}

impl<T: Keyed> KeyedLog<T> {
    /// Opens (creating if absent) the store at `path`: heals a torn
    /// tail, replays the records last-wins, and compacts the log to the
    /// live set when replay found dead weight (overwritten keys or
    /// undecodable payloads). Compaction writes each live record in the
    /// order of its key's last append, so the rewritten bytes depend
    /// only on the log's contents.
    pub fn open(path: impl Into<PathBuf>, policy: FsyncPolicy) -> io::Result<OpenedKeyed<T>> {
        let OpenedLog {
            log,
            records,
            recovery,
        } = RecordLog::<T>::open(path, policy)?;
        let appended = records.len();
        let mut store = KeyedLog {
            log,
            live: HashMap::with_capacity(appended),
            next: appended as u64,
        };
        for (ordinal, record) in (0u64..).zip(records) {
            store.live.insert(record.key(), (ordinal, record));
        }
        if store.live.len() < appended || recovery.undecodable > 0 {
            let mut live: Vec<&(u64, T)> = store.live.values().collect();
            live.sort_unstable_by_key(|(ordinal, _)| *ordinal);
            store
                .log
                .compact(live.into_iter().map(|(_, record)| record))?;
        }
        let entries = store
            .live
            .iter()
            .map(|(key, (_, record))| (key.clone(), record.clone()))
            .collect();
        Ok(OpenedKeyed {
            store,
            entries,
            recovery,
        })
    }

    /// The live record under `key`.
    pub fn get(&self, key: &str) -> Option<&T> {
        self.live.get(key).map(|(_, record)| record)
    }

    /// Appends `record` to the log, then makes it the live record for
    /// its key. The live map takes the record even when the append
    /// fails; the error says it will not survive a reopen.
    pub fn put(&mut self, record: T) -> io::Result<()> {
        let appended = self.log.append(&record);
        self.live.insert(record.key(), (self.next, record));
        self.next += 1;
        appended
    }

    /// Forces an fsync of the log regardless of its policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Kv(String);

    impl Record for Kv {
        fn encode(&self) -> Vec<u8> {
            self.0.clone().into_bytes()
        }

        fn decode(bytes: &[u8]) -> Option<Self> {
            String::from_utf8(bytes.to_vec()).ok().map(Kv)
        }
    }

    impl Keyed for Kv {
        fn key(&self) -> String {
            self.0.split('=').next().unwrap_or_default().to_owned()
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sttlock-store-keyed-tests")
            .join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("log")
    }

    #[test]
    fn text_entries_round_trip_only_under_their_version() {
        let entry = TextEntry::<2> {
            key: "k".to_owned(),
            body: "{\"cached\":false}".to_owned(),
        };
        assert_eq!(TextEntry::<2>::decode(&entry.encode()), Some(entry.clone()));
        assert_eq!(TextEntry::<3>::decode(&entry.encode()), None);
        assert_eq!(TextEntry::<2>::decode(&[2, 0, 0]), None); // short header
    }

    #[test]
    fn entries_keep_the_state_at_open_while_get_sees_puts() {
        let path = tmp_path("snapshot");
        {
            let mut opened = KeyedLog::<Kv>::open(&path, FsyncPolicy::Never).unwrap();
            opened.store.put(Kv("a=1".into())).unwrap();
        }
        let mut opened = KeyedLog::<Kv>::open(&path, FsyncPolicy::Never).unwrap();
        opened.store.put(Kv("a=2".into())).unwrap();
        assert_eq!(opened.store.get("a"), Some(&Kv("a=2".into())));
        assert_eq!(opened.entries["a"], Kv("a=1".into()));
        assert_eq!(opened.store.get("b"), None);
    }
}
