//! A persistent, content-addressed store of memoized serve responses.
//!
//! Without it every finished `SimReport` dies with its process. The
//! report store closes that gap for the serve daemon: the canonical
//! response body of a completed request is spilled to disk in the
//! checksummed POMREP1 format, addressed by the request digest
//! ([`crate::request_digest`]), so a repeated identical request — same
//! TraceKey, same hardware/run configuration — is a disk read, not a
//! simulation.
//!
//! # Layout on disk
//!
//! ```text
//! <root>/
//!   <64-hex-char request digest>.pomrep   one memoized body each (POMREP1)
//!   manifest.tsv                          advisory index: sizes, LRU stamps
//! ```
//!
//! One POMREP1 file (all integers little-endian):
//!
//! ```text
//! offset size
//! 0      8   magic "POMREP1\n"
//! 8      4   format version (1)
//! 12     32  request digest (must match the file stem's hex)
//! 44     8   payload length in bytes
//! 52     8   FNV-1a 64 checksum of the payload
//! 60     8   FNV-1a 64 checksum of header bytes [0, 60)
//! 68         payload: the canonical JSON response body, byte-exact
//! ```
//!
//! Files are written to a tmp name and atomically renamed, so readers
//! never observe a half-written entry. The manifest is *advisory*: it
//! accelerates `stats` and feeds LRU eviction, but entries are
//! self-describing and self-checking.
//!
//! # Fallback rules
//!
//! [`ReportStore::load`] returns `None` — and the service recomputes — for
//! *any* defect: missing file, foreign magic, version or digest mismatch,
//! bad length, failed checksum. A defective entry is reported on stderr
//! and counted, never trusted; the recompute's save overwrites it. The
//! store can make a request cheaper or leave it unchanged, but never
//! wrong — and because the payload is stored byte-exact, a hit is
//! byte-identical to the computed response it memoizes.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use pomtlb_trace::digest::{digest_hex, fnv1a64};

/// File magic for memoized response bodies.
const REPORT_MAGIC: &[u8; 8] = b"POMREP1\n";
/// Bumped whenever the layout above changes; readers reject other versions.
pub const REPORT_FORMAT_VERSION: u32 = 1;
/// Fixed header size in bytes.
const HEADER_BYTES: usize = 68;
/// Default size cap for [`ReportStore::gc`]: 256 MiB (bodies are small
/// JSON documents; this is thousands of memoized sweeps).
pub const DEFAULT_REPORT_MAX_BYTES: u64 = 256 << 20;

const MANIFEST_FILE: &str = "manifest.tsv";
const MANIFEST_LOCK_FILE: &str = "manifest.lock";
const REPORT_EXT: &str = "pomrep";

/// A lock file older than this is presumed left by a crashed writer and
/// broken.
const LOCK_STALE_AGE: Duration = Duration::from_secs(2);

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Counter snapshot of one store handle's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportCounters {
    /// Bodies served from disk.
    pub hits: u64,
    /// Lookups that found no usable entry (absent or defective).
    pub misses: u64,
    /// Bodies persisted by this handle.
    pub stores: u64,
    /// Total payload bytes read for hits.
    pub bytes_read: u64,
    /// Misses caused by a defective file rather than an absent one.
    pub load_failures: u64,
}

/// One memoized body visible in the store directory, merged from the file
/// scan and the advisory manifest.
#[derive(Debug, Clone)]
pub struct ReportEntry {
    /// Request digest (the file stem).
    pub digest: String,
    /// Request kind ("?" when the manifest lacks the entry).
    pub kind: String,
    /// Workload name ("?" when the manifest lacks the entry).
    pub workload: String,
    /// File size in bytes (from the file system, not the manifest).
    pub bytes: u64,
    /// Unix seconds of last load or save (0 when unknown).
    pub last_used: u64,
}

/// Integrity-check result for one on-disk body.
#[derive(Debug, Clone)]
pub struct ReportVerifyEntry {
    /// Request digest (the file stem).
    pub digest: String,
    /// File size in bytes.
    pub bytes: u64,
    /// `None` when the file passed every check, else the failure reason.
    pub error: Option<String>,
}

impl ReportVerifyEntry {
    /// Whether the body passed every check.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// What one [`ReportStore::gc`] pass evicted.
#[derive(Debug, Clone, Default)]
pub struct ReportGcReport {
    /// `(digest, bytes)` of evicted bodies, least recently used first.
    pub evicted: Vec<(String, u64)>,
    /// Body bytes remaining on disk after the pass.
    pub live_bytes: u64,
}

#[derive(Debug, Default)]
struct Manifest {
    entries: Vec<ReportEntry>,
}

/// Versioned tab-separated manifest; free-form fields (kind, workload)
/// come last so embedded tabs cannot shift the fixed columns. Unreadable
/// lines are skipped on parse — the manifest is advisory.
fn format_manifest(m: &Manifest) -> String {
    let mut out = format!("pomtlb-report-manifest\t{REPORT_FORMAT_VERSION}\n");
    for e in &m.entries {
        let clean = |s: &str| s.chars().filter(|c| !c.is_control()).collect::<String>();
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            e.digest,
            e.bytes,
            e.last_used,
            clean(&e.kind),
            clean(&e.workload),
        ));
    }
    out
}

fn parse_manifest(text: &str) -> Manifest {
    let mut lines = text.lines();
    if lines.next().and_then(|h| h.strip_prefix("pomtlb-report-manifest\t")).is_none() {
        return Manifest::default();
    }
    let mut m = Manifest::default();
    for line in lines {
        let f: Vec<&str> = line.splitn(5, '\t').collect();
        if f.len() != 5 {
            continue;
        }
        let (Ok(bytes), Ok(last_used)) = (f[1].parse::<u64>(), f[2].parse::<u64>()) else {
            continue;
        };
        m.entries.push(ReportEntry {
            digest: f[0].to_string(),
            kind: f[3].to_string(),
            workload: f[4].to_string(),
            bytes,
            last_used,
        });
    }
    m
}

fn unix_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

/// Encodes one POMREP1 file: header + payload.
fn encode_entry(digest: &[u8; 32], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(REPORT_MAGIC);
    out.extend_from_slice(&REPORT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(digest);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    let header_sum = fnv1a64(&out[..60]);
    out.extend_from_slice(&header_sum.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes and fully validates one POMREP1 file against the expected
/// request digest, returning the payload bytes.
fn decode_entry(bytes: &[u8], expect_digest: &[u8; 32]) -> io::Result<Vec<u8>> {
    if bytes.len() < HEADER_BYTES {
        return Err(invalid("file shorter than the POMREP1 header"));
    }
    if &bytes[..8] != REPORT_MAGIC {
        return Err(invalid("bad magic (not a POMREP1 file)"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap_or_default());
    if version != REPORT_FORMAT_VERSION {
        return Err(invalid(format!(
            "format version {version}, expected {REPORT_FORMAT_VERSION}"
        )));
    }
    let header_sum = u64::from_le_bytes(bytes[60..68].try_into().unwrap_or_default());
    if fnv1a64(&bytes[..60]) != header_sum {
        return Err(invalid("header checksum mismatch"));
    }
    if &bytes[12..44] != expect_digest {
        return Err(invalid("stored digest does not match the requested key"));
    }
    let payload_len = u64::from_le_bytes(bytes[44..52].try_into().unwrap_or_default());
    let expect_len = HEADER_BYTES as u64 + payload_len;
    if bytes.len() as u64 != expect_len {
        return Err(invalid(format!(
            "file is {} bytes, header implies {expect_len}",
            bytes.len()
        )));
    }
    let payload = &bytes[HEADER_BYTES..];
    let payload_sum = u64::from_le_bytes(bytes[52..60].try_into().unwrap_or_default());
    if fnv1a64(payload) != payload_sum {
        return Err(invalid("payload checksum mismatch"));
    }
    Ok(payload.to_vec())
}

/// Validates one POMREP1 file on disk without an expected digest (the
/// stem supplies it): `verify`'s per-file check.
fn verify_file(path: &Path, stem_hex: &str) -> io::Result<()> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_BYTES {
        return Err(invalid("file shorter than the POMREP1 header"));
    }
    let mut digest = [0u8; 32];
    digest.copy_from_slice(&bytes[12..44]);
    if digest_hex(&digest) != stem_hex {
        return Err(invalid("stored digest does not match the file name"));
    }
    decode_entry(&bytes, &digest).map(|_| ())
}

/// A persistent, content-addressed cache of serve response bodies under
/// one directory. See the module docs for the on-disk contract.
///
/// Handles are cheap and independent: two processes (or two handles in
/// one process) pointed at the same directory interoperate through the
/// atomic-rename write protocol.
#[derive(Debug)]
pub struct ReportStore {
    root: PathBuf,
    max_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    bytes_read: AtomicU64,
    load_failures: AtomicU64,
    /// Serializes manifest read-modify-write cycles within this handle;
    /// cross-handle writers are serialized by the advisory lock file.
    manifest_lock: Mutex<()>,
}

impl ReportStore {
    /// Opens (creating if needed) a store rooted at `dir`, with the
    /// default [`DEFAULT_REPORT_MAX_BYTES`] garbage-collection cap.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ReportStore> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(ReportStore {
            root,
            max_bytes: DEFAULT_REPORT_MAX_BYTES,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
            manifest_lock: Mutex::new(()),
        })
    }

    /// Replaces the garbage-collection size cap (floored at one byte).
    pub fn with_max_bytes(mut self, max_bytes: u64) -> ReportStore {
        self.max_bytes = max_bytes.max(1);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The garbage-collection size cap in bytes.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Snapshot of this handle's hit/miss counters.
    pub fn counters(&self) -> ReportCounters {
        ReportCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
        }
    }

    fn file_path(&self, digest_hex: &str) -> PathBuf {
        self.root.join(format!("{digest_hex}.{REPORT_EXT}"))
    }

    /// Loads the memoized body for `digest`, or `None` on a miss.
    ///
    /// A miss is an absent file *or any defect whatsoever* — wrong magic,
    /// version or digest mismatch, truncation, checksum failure. Defects
    /// warn on stderr and count as [`ReportCounters::load_failures`]; the
    /// service recomputes, so a damaged store costs time, never a wrong
    /// (or non-identical) answer.
    pub fn load(&self, digest: &[u8; 32]) -> Option<Vec<u8>> {
        let hex = digest_hex(digest);
        let path = self.file_path(&hex);
        if !path.exists() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let read = fs::read(&path).and_then(|bytes| decode_entry(&bytes, digest));
        match read {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read.fetch_add(payload.len() as u64, Ordering::Relaxed);
                self.touch(&hex);
                Some(payload)
            }
            Err(e) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.load_failures.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "report-store: {} unusable ({e}); recomputing",
                    path.display()
                );
                None
            }
        }
    }

    /// Persists `payload` as the memoized body for `digest`, returning the
    /// bytes written. The write goes to a tmp file and is atomically
    /// renamed into place, then the manifest is updated and a GC pass
    /// enforces the size cap. `kind` and `workload` label the manifest row.
    pub fn save(
        &self,
        digest: &[u8; 32],
        payload: &[u8],
        kind: &str,
        workload: &str,
    ) -> io::Result<u64> {
        // The tmp name is unique per call (not just per digest): two
        // handles saving the same key concurrently must each stage into
        // their own file, or the interleaved writes could rename a torn
        // body into place.
        static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
        let hex = digest_hex(digest);
        let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self.root.join(format!(".{hex}.{}.{seq}.tmp", std::process::id()));
        let path = self.file_path(&hex);
        let encoded = encode_entry(digest, payload);
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&encoded)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.index(&hex, encoded.len() as u64, kind, workload);
        self.gc();
        Ok(encoded.len() as u64)
    }

    /// Scans the directory for body files: `(digest, bytes)` pairs.
    fn scan(&self) -> Vec<(String, u64)> {
        let Ok(dir) = fs::read_dir(&self.root) else { return Vec::new() };
        let mut out: Vec<(String, u64)> = dir
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == REPORT_EXT) {
                    let stem = path.file_stem()?.to_str()?.to_string();
                    let bytes = entry.metadata().ok()?.len();
                    Some((stem, bytes))
                } else {
                    None
                }
            })
            .collect();
        out.sort();
        out
    }

    fn file_mtime_unix(&self, digest: &str) -> u64 {
        fs::metadata(self.file_path(digest))
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }

    /// Every memoized body currently on disk, most recently used first.
    pub fn entries(&self) -> Vec<ReportEntry> {
        let manifest = self.read_manifest();
        let mut out: Vec<ReportEntry> = self
            .scan()
            .into_iter()
            .map(|(digest, bytes)| match manifest.entries.iter().find(|e| e.digest == digest) {
                Some(m) => ReportEntry { bytes, ..m.clone() },
                None => ReportEntry {
                    last_used: self.file_mtime_unix(&digest),
                    digest,
                    kind: "?".into(),
                    workload: "?".into(),
                    bytes,
                },
            })
            .collect();
        out.sort_by(|a, b| b.last_used.cmp(&a.last_used).then_with(|| a.digest.cmp(&b.digest)));
        out
    }

    /// Total bytes of memoized bodies on disk (manifest excluded).
    pub fn total_bytes(&self) -> u64 {
        self.scan().iter().map(|(_, b)| b).sum()
    }

    /// Integrity-checks every body on disk: header, digest-vs-name, exact
    /// length, checksums. Defective entries are reported with the reason
    /// but left in place (the next `save` of that key overwrites them;
    /// `gc` evicts them like any other entry).
    pub fn verify(&self) -> Vec<ReportVerifyEntry> {
        self.scan()
            .into_iter()
            .map(|(digest, bytes)| {
                let error =
                    verify_file(&self.file_path(&digest), &digest).err().map(|e| e.to_string());
                ReportVerifyEntry { digest, bytes, error }
            })
            .collect()
    }

    /// Evicts least-recently-used bodies until the store fits
    /// [`ReportStore::max_bytes`]. Recency comes from the manifest's
    /// `last_used` stamps, falling back to file mtime for unindexed files;
    /// ties break by digest so the pass is deterministic.
    pub fn gc(&self) -> ReportGcReport {
        let files = self.scan();
        let mut total: u64 = files.iter().map(|(_, b)| b).sum();
        if total <= self.max_bytes {
            return ReportGcReport { evicted: Vec::new(), live_bytes: total };
        }
        let manifest = self.read_manifest();
        let mut ranked: Vec<(u64, String, u64)> = files
            .into_iter()
            .map(|(digest, bytes)| {
                let stamp = manifest
                    .entries
                    .iter()
                    .find(|e| e.digest == digest)
                    .map(|e| e.last_used)
                    .unwrap_or_else(|| self.file_mtime_unix(&digest));
                (stamp, digest, bytes)
            })
            .collect();
        ranked.sort();
        let mut evicted = Vec::new();
        for (_, digest, bytes) in ranked {
            if total <= self.max_bytes {
                break;
            }
            if fs::remove_file(self.file_path(&digest)).is_ok() {
                total = total.saturating_sub(bytes);
                evicted.push((digest, bytes));
            }
        }
        if !evicted.is_empty() {
            let _guard = self.manifest_lock.lock().unwrap_or_else(|e| e.into_inner());
            let _dir = self.lock_manifest_dir();
            let mut manifest = self.read_manifest();
            manifest.entries.retain(|e| !evicted.iter().any(|(d, _)| *d == e.digest));
            self.write_manifest(&manifest);
        }
        ReportGcReport { evicted, live_bytes: total }
    }

    fn read_manifest(&self) -> Manifest {
        fs::read_to_string(self.root.join(MANIFEST_FILE))
            .map(|s| parse_manifest(&s))
            .unwrap_or_default()
    }

    /// Best-effort manifest write (tmp + rename). The manifest is
    /// advisory, so failures are silently absorbed.
    fn write_manifest(&self, manifest: &Manifest) {
        let tmp = self.root.join(".manifest.tmp");
        if fs::write(&tmp, format_manifest(manifest)).is_ok() {
            let _ = fs::rename(&tmp, self.root.join(MANIFEST_FILE));
        }
    }

    /// Acquires the advisory cross-process manifest lock (create-new lock
    /// file, stale-broken after [`LOCK_STALE_AGE`], bounded wait).
    fn lock_manifest_dir(&self) -> DirLockGuard {
        let path = self.root.join(MANIFEST_LOCK_FILE);
        for _ in 0..50 {
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(_) => return DirLockGuard { path, held: true },
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| SystemTime::now().duration_since(t).ok())
                        .is_some_and(|age| age > LOCK_STALE_AGE);
                    if stale {
                        let _ = fs::remove_file(&path);
                    } else {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                // Unwritable directory or the like: locking is impossible,
                // proceed unlocked rather than spinning.
                Err(_) => break,
            }
        }
        DirLockGuard { path, held: false }
    }

    fn index(&self, digest: &str, bytes: u64, kind: &str, workload: &str) {
        let _guard = self.manifest_lock.lock().unwrap_or_else(|e| e.into_inner());
        let _dir = self.lock_manifest_dir();
        let mut manifest = self.read_manifest();
        manifest.entries.retain(|e| e.digest != digest);
        manifest.entries.push(ReportEntry {
            digest: digest.to_string(),
            kind: kind.to_string(),
            workload: workload.to_string(),
            bytes,
            last_used: unix_now(),
        });
        self.write_manifest(&manifest);
    }

    /// Stamps `digest` as just-used; unindexed entries (orphaned by a lost
    /// manifest) are indexed on the spot so GC recency stays honest.
    fn touch(&self, digest: &str) {
        let _guard = self.manifest_lock.lock().unwrap_or_else(|e| e.into_inner());
        let _dir = self.lock_manifest_dir();
        let mut manifest = self.read_manifest();
        match manifest.entries.iter_mut().find(|e| e.digest == digest) {
            Some(entry) => entry.last_used = unix_now(),
            None => {
                let bytes = fs::metadata(self.file_path(digest)).map(|m| m.len()).unwrap_or(0);
                manifest.entries.push(ReportEntry {
                    digest: digest.to_string(),
                    kind: "?".into(),
                    workload: "?".into(),
                    bytes,
                    last_used: unix_now(),
                });
            }
        }
        self.write_manifest(&manifest);
    }

    #[cfg(test)]
    fn force_last_used(&self, digest: &str, stamp: u64) {
        let _guard = self.manifest_lock.lock().unwrap_or_else(|e| e.into_inner());
        let _dir = self.lock_manifest_dir();
        let mut manifest = self.read_manifest();
        if let Some(entry) = manifest.entries.iter_mut().find(|e| e.digest == digest) {
            entry.last_used = stamp;
            self.write_manifest(&manifest);
        }
    }
}

/// Guard for [`ReportStore::lock_manifest_dir`]: removes the lock file on
/// drop when it was actually acquired.
#[derive(Debug)]
struct DirLockGuard {
    path: PathBuf,
    held: bool,
}

impl Drop for DirLockGuard {
    fn drop(&mut self) {
        if self.held {
            let _ = fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomtlb_trace::digest::digest256;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir()
                .join(format!("pomtlb-report-store-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn save_then_load_round_trips_byte_exact() {
        let dir = TempDir::new("roundtrip");
        let store = ReportStore::open(&dir.0).expect("open");
        let digest = digest256(b"request-1");
        let payload = br#"{"kind":"compare","reports":[1,2,3]}"#;
        store.save(&digest, payload, "compare", "gups").expect("save");
        let back = store.load(&digest).expect("hit");
        assert_eq!(back, payload.to_vec(), "payload is byte-exact");
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.stores), (1, 0, 1));
        assert_eq!(c.bytes_read, payload.len() as u64);
    }

    #[test]
    fn absent_entry_is_a_clean_miss() {
        let dir = TempDir::new("miss");
        let store = ReportStore::open(&dir.0).expect("open");
        assert!(store.load(&digest256(b"never-saved")).is_none());
        let c = store.counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.load_failures, 0, "absence is not a defect");
    }

    #[test]
    fn corruption_is_detected_and_recomputed() {
        let dir = TempDir::new("corrupt");
        let store = ReportStore::open(&dir.0).expect("open");
        let digest = digest256(b"to-corrupt");
        store.save(&digest, b"payload bytes here", "sim", "mcf").expect("save");
        // Flip one payload byte on disk.
        let path = store.file_path(&digest_hex(&digest));
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        assert!(store.load(&digest).is_none(), "corrupt entry must miss");
        assert_eq!(store.counters().load_failures, 1);
        // A recompute's save overwrites and the entry is usable again.
        store.save(&digest, b"payload bytes here", "sim", "mcf").expect("resave");
        assert_eq!(store.load(&digest).expect("hit"), b"payload bytes here".to_vec());
    }

    #[test]
    fn truncation_and_foreign_magic_are_defects() {
        let dir = TempDir::new("defects");
        let store = ReportStore::open(&dir.0).expect("open");
        let digest = digest256(b"trunc");
        store.save(&digest, b"0123456789", "sim", "gups").expect("save");
        let path = store.file_path(&digest_hex(&digest));
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 1]).expect("truncate");
        assert!(store.load(&digest).is_none());
        fs::write(&path, b"NOTAREPORTFILE..").expect("clobber");
        assert!(store.load(&digest).is_none());
        assert_eq!(store.counters().load_failures, 2);
    }

    #[test]
    fn verify_reports_defects_with_reasons() {
        let dir = TempDir::new("verify");
        let store = ReportStore::open(&dir.0).expect("open");
        let good = digest256(b"good");
        let bad = digest256(b"bad");
        store.save(&good, b"fine", "compare", "gups").expect("save");
        store.save(&bad, b"doomed", "compare", "mcf").expect("save");
        let path = store.file_path(&digest_hex(&bad));
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).expect("rewrite");
        let entries = store.verify();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries.iter().filter(|e| e.is_ok()).count(), 1);
        let defect = entries.iter().find(|e| !e.is_ok()).expect("one defect");
        assert_eq!(defect.digest, digest_hex(&bad));
        assert!(defect.error.as_deref().unwrap_or("").contains("checksum"));
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let dir = TempDir::new("gc");
        let store = ReportStore::open(&dir.0).expect("open");
        let payload = vec![0x5a_u8; 1024];
        let digests: Vec<[u8; 32]> =
            (0..4).map(|i| digest256(format!("entry-{i}").as_bytes())).collect();
        for (i, d) in digests.iter().enumerate() {
            store.save(d, &payload, "compare", "gups").expect("save");
            store.force_last_used(&digest_hex(d), 1000 + i as u64);
        }
        let total = store.total_bytes();
        let store = ReportStore::open(&dir.0).expect("reopen").with_max_bytes(total - 1);
        let report = store.gc();
        assert_eq!(report.evicted.len(), 1);
        assert_eq!(report.evicted[0].0, digest_hex(&digests[0]), "LRU entry goes first");
        assert!(store.load(&digests[0]).is_none());
        assert!(store.load(&digests[3]).is_some());
    }

    #[test]
    fn entries_merge_manifest_and_scan() {
        let dir = TempDir::new("entries");
        let store = ReportStore::open(&dir.0).expect("open");
        let d = digest256(b"listed");
        store.save(&d, b"body", "fault-sweep", "streamcluster").expect("save");
        let entries = store.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].digest, digest_hex(&d));
        assert_eq!(entries[0].kind, "fault-sweep");
        assert_eq!(entries[0].workload, "streamcluster");
        // A lost manifest degrades to "?" labels, never to a failure.
        fs::remove_file(dir.0.join(MANIFEST_FILE)).expect("drop manifest");
        let entries = store.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, "?");
    }
}
