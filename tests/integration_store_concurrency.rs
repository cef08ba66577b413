//! Multi-handle store safety: two independent [`ReportStore`] handles
//! pointed at one directory — the daemon's per-connection world — racing
//! saves, loads and GC passes must never lose an entry or surface a torn
//! body. The
//! write protocol that makes this true: stage into a per-call tmp file,
//! atomically rename into place, serialize manifest read-modify-write
//! behind the in-process mutex plus the advisory lock file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, OnceLock};

use pomtlb_serve::ReportStore;

/// Every test here hammers the filesystem; serialize them.
fn serialize() -> MutexGuard<'static, ()> {
    static SEQ: OnceLock<Mutex<()>> = OnceLock::new();
    SEQ.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path =
            std::env::temp_dir().join(format!("pomtlb-store-conc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn digest(i: u64) -> [u8; 32] {
    let mut d = [0u8; 32];
    d[..8].copy_from_slice(&i.to_le_bytes());
    d[8] = 0xa5;
    d
}

fn payload(i: u64) -> Vec<u8> {
    format!("{{\"entry\":{i},\"fill\":\"{}\"}}", "x".repeat(64 + (i as usize % 7) * 17))
        .into_bytes()
}

#[test]
fn racing_handles_saving_disjoint_keys_lose_nothing() {
    let _guard = serialize();
    let dir = TempDir::new("disjoint");
    const PER_HANDLE: u64 = 24;

    let a = ReportStore::open(dir.path()).expect("open handle a");
    let b = ReportStore::open(dir.path()).expect("open handle b");
    let gc_handle = ReportStore::open(dir.path()).expect("open gc handle");

    let barrier = Barrier::new(3);
    let done = AtomicBool::new(false);
    let saver = |store: &ReportStore, base: u64| {
        for i in base..base + PER_HANDLE {
            store
                .save(&digest(i), &payload(i), "sim", "gups")
                .expect("save succeeds under contention");
        }
    };
    std::thread::scope(|scope| {
        let ta = scope.spawn(|| {
            barrier.wait();
            saver(&a, 0);
        });
        let tb = scope.spawn(|| {
            barrier.wait();
            saver(&b, PER_HANDLE);
        });
        // A third handle runs GC passes the whole time the writers are
        // racing (each save also runs its own pass).
        scope.spawn(|| {
            barrier.wait();
            while !done.load(Ordering::Relaxed) {
                gc_handle.gc();
            }
        });
        ta.join().expect("writer a");
        tb.join().expect("writer b");
        done.store(true, Ordering::Relaxed);
    });

    // A fresh handle sees every entry, byte-exact, with a clean verify.
    let fresh = ReportStore::open(dir.path()).expect("reopen");
    assert_eq!(
        fresh.entries().len(),
        2 * PER_HANDLE as usize,
        "no entry lost to the concurrent manifest rewrites"
    );
    for i in 0..2 * PER_HANDLE {
        assert_eq!(
            fresh.load(&digest(i)).as_deref(),
            Some(payload(i).as_slice()),
            "entry {i} loads byte-exact"
        );
    }
    let verify = fresh.verify();
    assert_eq!(verify.len(), 2 * PER_HANDLE as usize);
    assert!(verify.iter().all(|e| e.is_ok()), "every body passes checksums: {verify:?}");
    assert_eq!(fresh.counters().load_failures, 0);
}

#[test]
fn racing_writers_of_one_key_never_surface_a_torn_body() {
    let _guard = serialize();
    let dir = TempDir::new("torn");
    const ROUNDS: u64 = 40;
    let key = digest(7777);
    // Two distinct bodies of different lengths: a torn mix of the two
    // would fail the length or checksum validation — and a lost rename
    // would fail the load outright.
    let body_a = payload(1).repeat(97);
    let body_b = payload(2).repeat(61);

    let a = ReportStore::open(dir.path()).expect("open handle a");
    let b = ReportStore::open(dir.path()).expect("open handle b");
    let reader = ReportStore::open(dir.path()).expect("open reader");

    // Seed the key so the reader never races file creation itself.
    a.save(&key, &body_a, "sim", "gups").expect("seed save");

    let done = AtomicBool::new(false);
    let barrier = Barrier::new(3);
    std::thread::scope(|scope| {
        let ta = scope.spawn(|| {
            barrier.wait();
            for _ in 0..ROUNDS {
                a.save(&key, &body_a, "sim", "gups").expect("save a");
            }
        });
        let tb = scope.spawn(|| {
            barrier.wait();
            for _ in 0..ROUNDS {
                b.save(&key, &body_b, "sim", "gups").expect("save b");
            }
        });
        let observed = scope.spawn(|| {
            barrier.wait();
            let mut loads = 0u64;
            while !done.load(Ordering::Relaxed) {
                let got = reader.load(&key).expect("the key always loads once seeded");
                assert!(
                    got == body_a || got == body_b,
                    "a load surfaced bytes that were never saved (torn body)"
                );
                loads += 1;
            }
            loads
        });
        ta.join().expect("writer a");
        tb.join().expect("writer b");
        done.store(true, Ordering::Relaxed);
        assert!(observed.join().expect("reader") > 0, "the reader observed at least one load");
    });

    assert_eq!(reader.counters().load_failures, 0, "no load ever saw a defective file");
    let fresh = ReportStore::open(dir.path()).expect("reopen");
    let last = fresh.load(&key).expect("final load");
    assert!(last == body_a || last == body_b);
    assert!(fresh.verify().iter().all(|e| e.is_ok()), "the surviving file is intact");
}
