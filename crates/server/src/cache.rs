//! The result cache: canonical job key → serialized result payload.
//!
//! Keys are the canonical JSON of the job (see
//! [`crate::protocol::RunJob::cache_key`]); values are the *serialized*
//! result payload, so a cache hit replays the exact bytes a fresh run
//! would produce — trace generation and the simulator are deterministic,
//! which is what makes this sound. Capacity is bounded with FIFO
//! eviction; the full key string is compared on lookup, so hash
//! collisions cannot alias jobs.
//!
//! The cache can be persisted to a plain line-oriented file
//! ([`ResultCache::save_to_file`] / [`ResultCache::load_from_file`]) so
//! sweep results survive daemon restarts. Keys and payloads are compact
//! single-line JSON, so the format is simply a header line followed by
//! alternating key / payload lines, each key line prefixed with an
//! FNV-1a digest of its entry. Because the stored payload bytes are
//! written and read back verbatim, a reloaded cache replays exactly the
//! bytes the original run produced, and the digest keeps a damaged
//! entry from being replayed at all.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

/// First line of a persisted cache file.
pub const CACHE_FILE_HEADER: &str = "ssimd-cache v2";

/// The digest a persisted entry carries on its key line: FNV-1a over
/// the key, a newline and the payload.
fn entry_digest(key: &str, payload: &str) -> String {
    format!(
        "{:016x}",
        sharing_dc::fnv64(format!("{key}\n{payload}").as_bytes())
    )
}

/// A bounded, thread-safe string-keyed result cache.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, String>,
    order: VecDeque<String>,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries (0 disables
    /// caching entirely).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    /// Looks up a payload by its canonical key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<String> {
        self.inner.lock().expect("cache lock").map.get(key).cloned()
    }

    /// Inserts a payload, evicting the oldest entry when full. Re-inserting
    /// an existing key refreshes the value without growing the cache.
    pub fn insert(&self, key: &str, payload: &str) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        if inner
            .map
            .insert(key.to_string(), payload.to_string())
            .is_none()
        {
            inner.order.push_back(key.to_string());
            while inner.order.len() > self.capacity {
                let oldest = inner.order.pop_front().expect("non-empty");
                inner.map.remove(&oldest);
            }
        }
    }

    /// All entries in FIFO (insertion) order, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, String)> {
        let inner = self.inner.lock().expect("cache lock");
        inner
            .order
            .iter()
            .filter_map(|k| inner.map.get(k).map(|v| (k.clone(), v.clone())))
            .collect()
    }

    /// Writes the cache to a plain-format file: a header line, then one
    /// `<digest> <key>` line and one payload line per entry, oldest first
    /// (so a reload into the same capacity evicts the same entries).
    /// Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the file is written atomically via a
    /// sibling temp file so a crash cannot leave a torn cache.
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> io::Result<usize> {
        let path = path.as_ref();
        let entries = self.snapshot();
        let tmp = path.with_extension("tmp");
        {
            let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
            writeln!(f, "{CACHE_FILE_HEADER}")?;
            for (key, payload) in &entries {
                // Keys and payloads are compact JSON and never contain
                // newlines; skip (rather than corrupt) anything odd.
                if key.contains('\n') || payload.contains('\n') {
                    continue;
                }
                writeln!(f, "{} {key}", entry_digest(key, payload))?;
                writeln!(f, "{payload}")?;
            }
            f.flush()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(entries.len())
    }

    /// Loads entries from a file produced by [`ResultCache::save_to_file`],
    /// preserving their order (FIFO eviction applies if the file holds
    /// more than the capacity). A missing file loads zero entries; a file
    /// with the wrong header is rejected. Loading stops at the first
    /// entry whose digest does not match, so only intact entries are
    /// ever inserted. Returns the number loaded.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; `InvalidData` for a bad header, a
    /// truncated trailing entry or an entry that fails its digest.
    pub fn load_from_file(&self, path: impl AsRef<Path>) -> io::Result<usize> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut lines = text.lines();
        if lines.next() != Some(CACHE_FILE_HEADER) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an ssimd cache file",
            ));
        }
        let mut loaded = 0usize;
        while let Some(key_line) = lines.next() {
            let Some(payload) = lines.next() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "cache file ends with a key but no payload",
                ));
            };
            let key = match key_line.split_once(' ') {
                Some((digest, key)) if digest == entry_digest(key, payload) => key,
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("cache entry {} fails its digest", loaded + 1),
                    ))
                }
            };
            self.insert(key, payload);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Drops every entry, e.g. to fall back to a cold cache after a
    /// partial load from a corrupt file.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.map.clear();
        inner.order.clear();
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_round_trips() {
        let c = ResultCache::new(4);
        assert_eq!(c.get("k"), None);
        c.insert("k", "payload");
        assert_eq!(c.get("k").as_deref(), Some("payload"));
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let c = ResultCache::new(2);
        c.insert("a", "1");
        c.insert("b", "2");
        c.insert("c", "3");
        assert_eq!(c.get("a"), None, "oldest evicted");
        assert_eq!(c.get("b").as_deref(), Some("2"));
        assert_eq!(c.get("c").as_deref(), Some("3"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let c = ResultCache::new(2);
        c.insert("a", "1");
        c.insert("a", "updated");
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("a").as_deref(), Some("updated"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ResultCache::new(0);
        c.insert("a", "1");
        assert!(c.is_empty());
        assert_eq!(c.get("a"), None);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ssimd-cache-unit-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_and_load_round_trip_preserves_bytes_and_order() {
        let path = temp_path("round-trip");
        let c = ResultCache::new(8);
        c.insert(r#"{"job":1}"#, r#"{"ipc":1.25,"cycles":800}"#);
        c.insert(r#"{"job":2}"#, r#"{"ipc":0.5}"#);
        assert_eq!(c.save_to_file(&path).unwrap(), 2);

        let fresh = ResultCache::new(8);
        assert_eq!(fresh.load_from_file(&path).unwrap(), 2);
        assert_eq!(
            fresh.get(r#"{"job":1}"#).as_deref(),
            Some(r#"{"ipc":1.25,"cycles":800}"#),
            "payload bytes must survive the round trip"
        );
        assert_eq!(fresh.snapshot(), c.snapshot(), "FIFO order preserved");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_respects_capacity_with_fifo_eviction() {
        let path = temp_path("capacity");
        let big = ResultCache::new(8);
        big.insert("old", "1");
        big.insert("mid", "2");
        big.insert("new", "3");
        big.save_to_file(&path).unwrap();

        let small = ResultCache::new(2);
        assert_eq!(small.load_from_file(&path).unwrap(), 3);
        assert_eq!(small.get("old"), None, "oldest entry evicted on load");
        assert_eq!(small.get("new").as_deref(), Some("3"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_a_cold_start_but_garbage_is_an_error() {
        let c = ResultCache::new(4);
        assert_eq!(c.load_from_file(temp_path("nonexistent")).unwrap(), 0);
        assert!(c.is_empty());

        let path = temp_path("garbage");
        std::fs::write(&path, "definitely not a cache\n").unwrap();
        assert!(c.load_from_file(&path).is_err(), "bad header rejected");
        std::fs::write(&path, format!("{CACHE_FILE_HEADER}\nkey-without-payload\n")).unwrap();
        assert!(c.load_from_file(&path).is_err(), "truncated entry rejected");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_damaged_entry_stops_the_load() {
        let path = temp_path("damaged");
        let c = ResultCache::new(4);
        c.insert("good-key", "good-payload");
        c.insert("next-key", "next-payload");
        c.save_to_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("next-payload", "next-paylaod")).unwrap();
        let fresh = ResultCache::new(4);
        assert!(fresh.load_from_file(&path).is_err());
        assert_eq!(
            fresh.snapshot(),
            vec![("good-key".into(), "good-payload".into())]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clear_discards_partial_loads() {
        let path = temp_path("partial");
        // One good entry, then a trailing key with no payload: the load
        // errors but has already inserted the good entry.
        let good = ResultCache::new(4);
        good.insert("good-key", "good-payload");
        good.save_to_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{text}dangling-key\n")).unwrap();
        let c = ResultCache::new(4);
        assert!(c.load_from_file(&path).is_err());
        assert_eq!(c.get("good-key").as_deref(), Some("good-payload"));
        c.clear();
        assert!(c.is_empty(), "cold cache after clearing the partial load");
        std::fs::remove_file(&path).unwrap();
    }
}
