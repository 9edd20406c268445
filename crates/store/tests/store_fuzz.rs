//! Byte-mangle fuzz over the store reader, mirroring `http_fuzz.rs`:
//! build a valid framed log, corrupt it with arbitrary byte edits,
//! and require that scanning/opening never panics and never yields a
//! payload whose CRC does not match its header — the two invariants
//! every `--resume` sits on. The keyed store is held to a last-wins
//! model over the same truncations.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use sttlock_store::{frame, FsyncPolicy, Keyed, KeyedLog, Record, RecordLog};

fn framed_log(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        out.extend_from_slice(&frame::encode(p));
    }
    out
}

/// Byte-level replace/insert/delete/truncate edits.
fn mangle(bytes: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &(pos, byte, op) in edits {
        if out.is_empty() {
            break;
        }
        let at = pos % out.len();
        match op % 4 {
            0 => out[at] = byte,
            1 => out.insert(at, byte),
            2 => {
                out.remove(at);
            }
            _ => out.truncate(at),
        }
    }
    out
}

/// Each scanned payload must satisfy the frame invariant: whatever the
/// mangle did, a yielded record's bytes re-encode to a frame whose CRC
/// matches — i.e. the scanner never hands back bytes it cannot vouch
/// for. (Scan recomputes the CRC to accept, so this is a tautology
/// only if scan is correct — which is exactly what we are fuzzing.)
fn assert_scan_invariants(bytes: &[u8]) {
    let scan = frame::scan(bytes);
    assert!(scan.valid_len <= bytes.len());
    let mut reencoded = Vec::new();
    for payload in &scan.payloads {
        assert!(payload.len() <= frame::MAX_RECORD_LEN);
        reencoded.extend_from_slice(&frame::encode(payload));
    }
    // The valid prefix is literally the re-encoding of the payloads.
    assert_eq!(&bytes[..scan.valid_len], &reencoded[..]);
    if scan.corruption.is_none() {
        assert_eq!(scan.valid_len, bytes.len());
    }
}

/// A keyed test record: payload `[key, value...]`. The empty payload
/// is CRC-valid but undecodable.
#[derive(Debug, Clone, PartialEq)]
struct Kv {
    key: u8,
    value: Vec<u8>,
}

impl Record for Kv {
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.key];
        out.extend_from_slice(&self.value);
        out
    }

    fn decode(bytes: &[u8]) -> Option<Kv> {
        let (&key, value) = bytes.split_first()?;
        Some(Kv {
            key,
            value: value.to_vec(),
        })
    }
}

impl Keyed for Kv {
    fn key(&self) -> String {
        self.key.to_string()
    }
}

/// The last-wins model: the live records in the order of each key's
/// last append — the exact content a compacted log must hold.
fn last_wins(records: &[Kv]) -> Vec<Kv> {
    let mut live: Vec<Kv> = Vec::new();
    for r in records {
        live.retain(|l| l.key != r.key);
        live.push(r.clone());
    }
    live
}

static FUZZ_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_path() -> PathBuf {
    let dir = std::env::temp_dir()
        .join("sttlock-store-fuzz")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("log-{}", FUZZ_SEQ.fetch_add(1, Ordering::Relaxed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary corruption of a valid log never panics the scanner
    /// and never yields a record that fails CRC.
    #[test]
    fn mangled_logs_scan_without_panics_or_bad_records(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..6),
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 1..12),
    ) {
        let bad = mangle(&framed_log(&payloads), &edits);
        assert_scan_invariants(&bad);
    }

    /// Pure garbage (no valid substrate) follows the same rule.
    #[test]
    fn arbitrary_bytes_scan_safely(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        assert_scan_invariants(&bytes);
    }

    /// Recovery after ANY prefix truncation yields exactly a prefix of
    /// the original record sequence, and opening the healed log is
    /// idempotent (a second open reports clean and the same records).
    #[test]
    fn any_prefix_truncation_recovers_a_record_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..6),
        cut_seed in any::<usize>(),
    ) {
        let full = framed_log(&payloads);
        let cut = cut_seed % (full.len() + 1);
        let path = scratch_path();
        std::fs::write(&path, &full[..cut]).unwrap();

        let opened = RecordLog::<Vec<u8>>::open(&path, FsyncPolicy::Never).unwrap();
        let n = opened.records.len();
        prop_assert!(n <= payloads.len());
        prop_assert_eq!(&opened.records[..], &payloads[..n]);
        prop_assert_eq!(opened.recovery.kept_bytes + opened.recovery.dropped_bytes, cut);
        drop(opened);

        // Idempotence: the heal truncated the tail, so a second open
        // sees a clean log with the same records.
        let again = RecordLog::<Vec<u8>>::open(&path, FsyncPolicy::Never).unwrap();
        prop_assert!(again.recovery.is_clean());
        prop_assert_eq!(again.records.len(), n);
        std::fs::remove_file(&path).ok();
    }

    /// Appending after recovery from a mangled log produces a log that
    /// re-opens to recovered-prefix + new record — resume semantics at
    /// the byte level.
    #[test]
    fn append_after_mangled_recovery_is_clean(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..5),
        edits in prop::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 1..8),
    ) {
        let bad = mangle(&framed_log(&payloads), &edits);
        let path = scratch_path();
        std::fs::write(&path, &bad).unwrap();

        let mut opened = RecordLog::<Vec<u8>>::open(&path, FsyncPolicy::Never).unwrap();
        let recovered = opened.records.clone();
        let appended = b"appended-after-recovery".to_vec();
        opened.log.append(&appended).unwrap();
        drop(opened);

        let again = RecordLog::<Vec<u8>>::open(&path, FsyncPolicy::Never).unwrap();
        prop_assert!(again.recovery.is_clean());
        let mut want = recovered;
        want.push(appended);
        prop_assert_eq!(again.records, want);
        std::fs::remove_file(&path).ok();
    }

    /// A keyed log reopened after any prefix truncation holds exactly
    /// the last-wins map of the whole records that survived, and its
    /// file is then exactly those live records in last-append order:
    /// compacting the same live set twice gives identical bytes.
    #[test]
    fn keyed_log_replays_last_wins_after_any_truncation(
        puts in prop::collection::vec(
            (0u8..5, prop::collection::vec(any::<u8>(), 0..12)),
            1..16,
        ),
        cut_seed in any::<usize>(),
    ) {
        // Key 4 writes an undecodable (empty) payload: dead weight the
        // open must compact away.
        let payloads: Vec<Vec<u8>> = puts
            .iter()
            .map(|(key, value)| match key {
                4 => Vec::new(),
                _ => Kv { key: *key, value: value.clone() }.encode(),
            })
            .collect();
        let full = framed_log(&payloads);
        let cut = cut_seed % (full.len() + 1);
        let mut end = 0;
        let survived: Vec<Kv> = payloads
            .iter()
            .take_while(|p| {
                end += frame::encode(p).len();
                end <= cut
            })
            .filter_map(|p| Kv::decode(p))
            .collect();
        let live = last_wins(&survived);

        let first = scratch_path();
        let second = scratch_path();
        std::fs::write(&first, &full[..cut]).unwrap();
        std::fs::write(&second, &full[..cut]).unwrap();
        let mut opened = KeyedLog::<Kv>::open(&first, FsyncPolicy::Never).unwrap();
        let model: HashMap<String, Kv> = live.iter().map(|r| (r.key(), r.clone())).collect();
        prop_assert_eq!(&opened.entries, &model);
        for (key, record) in &model {
            prop_assert_eq!(opened.store.get(key), Some(record));
        }
        let compacted = framed_log(&live.iter().map(Kv::encode).collect::<Vec<_>>());
        prop_assert_eq!(std::fs::read(&first).unwrap(), compacted.clone());
        drop(KeyedLog::<Kv>::open(&second, FsyncPolicy::Never).unwrap());
        prop_assert_eq!(std::fs::read(&second).unwrap(), compacted);

        // A put after recovery is live now and after a reopen.
        let put = Kv { key: 0, value: b"after".to_vec() };
        opened.store.put(put.clone()).unwrap();
        prop_assert_eq!(opened.store.get("0"), Some(&put));
        drop(opened);
        let reopened = KeyedLog::<Kv>::open(&first, FsyncPolicy::Never).unwrap();
        prop_assert!(reopened.recovery.is_clean());
        let mut want = survived;
        want.push(put);
        let want: HashMap<String, Kv> =
            last_wins(&want).into_iter().map(|r| (r.key(), r)).collect();
        prop_assert_eq!(reopened.entries, want);
        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&second).ok();
    }
}
