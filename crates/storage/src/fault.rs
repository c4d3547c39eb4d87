//! Deterministic I/O fault injection.
//!
//! Every fallible filesystem operation in the storage layer (column
//! files, sidecars, WAL, catalog, checkpoint GC) and in the executor's
//! spill files routes through the wrappers in this module, each tagged
//! with a stable *site* name like `"persist.column.rename"`. The
//! injector is process-global and disarmed by default — a disarmed
//! wrapper costs one relaxed atomic load before delegating to `std` —
//! so production builds carry no measurable overhead and no behavioural
//! change.
//!
//! When armed ([`arm`]) a global monotonic counter assigns each wrapped
//! I/O an ordinal and the active [`FaultPolicy`] decides whether to
//! inject. Three [`FaultMode`]s are supported:
//!
//! * [`FaultMode::Error`] — the operation fails with an injected
//!   `io::Error` and has no effect (a transient `EIO`).
//! * [`FaultMode::ShortWrite`] — a write persists only a prefix of the
//!   buffer and then reports failure (`ENOSPC` mid-buffer). Non-write
//!   operations degrade to [`FaultMode::Error`].
//! * [`FaultMode::TornWrite`] — a write persists a prefix but reports
//!   *success*; every subsequent wrapped I/O then fails ("the process
//!   lost power mid-write"). Recovery code must cope with the torn
//!   bytes on the next open.
//!
//! The exhaustive fail-at-Nth-I/O sweep in `tests/tests/fault_sweep.rs`
//! runs a full workload once per ordinal until a run completes without
//! firing — the SQLite I/O-error-test discipline.
//!
//! Besides injection, the wrappers also give every *real* error uniform
//! context: `"<op> <path>: <cause> (site=<name>)"`, so an I/O failure
//! anywhere in the engine names the operation, the file and the code
//! site that issued it.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which wrapped I/O the armed injector fails.
#[derive(Debug, Clone)]
pub enum FaultPolicy {
    /// Fail the k-th wrapped I/O after arming (0-based).
    Nth(u64),
    /// Fail every wrapped I/O whose site name contains the substring.
    SiteMatching(String),
}

/// How the selected I/O fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fail with an injected error; the operation has no effect.
    Error,
    /// Writes persist a prefix of the buffer, then report failure.
    ShortWrite,
    /// Writes persist a prefix of the buffer but report success; every
    /// later wrapped I/O fails (simulated power loss mid-write).
    TornWrite,
}

/// What [`disarm`] reports about the armed window.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultReport {
    /// Wrapped I/O operations counted while armed.
    pub ios: u64,
    /// Whether the policy selected (and injected) a fault.
    pub fired: bool,
}

struct Armed {
    policy: FaultPolicy,
    mode: FaultMode,
    count: u64,
    fired: bool,
    /// Torn-write kill switch: the simulated process has "died" and every
    /// further wrapped I/O fails until [`disarm`].
    dead: bool,
}

/// Disarmed fast path: one relaxed load decides "not injecting".
static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Armed>> = Mutex::new(None);
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serialise fault-injection tests: the injector is process-global, so
/// every test that arms it must hold this guard for its whole armed
/// region (including recovery assertions).
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm the injector. Resets the I/O counter and the fired flag.
pub fn arm(policy: FaultPolicy, mode: FaultMode) {
    let mut g = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    *g = Some(Armed { policy, mode, count: 0, fired: false, dead: false });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disarm the injector and report what happened while it was armed.
pub fn disarm() -> FaultReport {
    ENABLED.store(false, Ordering::SeqCst);
    let mut g = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    match g.take() {
        Some(s) => FaultReport { ios: s.count, fired: s.fired },
        None => FaultReport::default(),
    }
}

enum Decision {
    Pass,
    Fail(FaultMode),
    /// Post-torn-write kill switch: fail without consuming an ordinal.
    Dead,
}

fn decide(site: &str) -> Decision {
    if !ENABLED.load(Ordering::Relaxed) {
        return Decision::Pass;
    }
    let mut g = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(s) = g.as_mut() else {
        return Decision::Pass;
    };
    if s.dead {
        return Decision::Dead;
    }
    let n = s.count;
    s.count += 1;
    let hit = match &s.policy {
        FaultPolicy::Nth(k) => n == *k,
        FaultPolicy::SiteMatching(pat) => site.contains(pat.as_str()),
    };
    if hit {
        s.fired = true;
        if s.mode == FaultMode::TornWrite {
            s.dead = true;
        }
        Decision::Fail(s.mode)
    } else {
        Decision::Pass
    }
}

fn injected(op: &str, what: &str, site: &str) -> std::io::Error {
    std::io::Error::other(format!("{op} {what}: injected I/O fault (site={site})"))
}

/// Wrap a real error with operation, target and site context. The error
/// kind is preserved so callers matching on `NotFound`/`AlreadyExists`
/// keep working.
fn ctx(op: &str, what: &str, site: &str, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{op} {what}: {e} (site={site})"))
}

fn p(path: &Path) -> String {
    path.display().to_string()
}

// ---------------------------------------------------------------------------
// Path-level wrappers
// ---------------------------------------------------------------------------

/// `File::create` through the failpoint.
pub fn create(site: &'static str, path: &Path) -> std::io::Result<File> {
    match decide(site) {
        Decision::Pass => File::create(path).map_err(|e| ctx("create", &p(path), site, e)),
        _ => Err(injected("create", &p(path), site)),
    }
}

/// `File::open` through the failpoint.
pub fn open(site: &'static str, path: &Path) -> std::io::Result<File> {
    match decide(site) {
        Decision::Pass => File::open(path).map_err(|e| ctx("open", &p(path), site, e)),
        _ => Err(injected("open", &p(path), site)),
    }
}

/// Open append-mode (creating if absent) through the failpoint.
pub fn open_append(site: &'static str, path: &Path) -> std::io::Result<File> {
    match decide(site) {
        Decision::Pass => OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| ctx("open-append", &p(path), site, e)),
        _ => Err(injected("open-append", &p(path), site)),
    }
}

/// Exclusive create (`create_new`) through the failpoint; preserves the
/// `AlreadyExists` kind callers probe for.
pub fn create_new(site: &'static str, path: &Path) -> std::io::Result<File> {
    match decide(site) {
        Decision::Pass => OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| ctx("create-new", &p(path), site, e)),
        _ => Err(injected("create-new", &p(path), site)),
    }
}

/// `fs::rename` through the failpoint.
pub fn rename(site: &'static str, from: &Path, to: &Path) -> std::io::Result<()> {
    let what = format!("{} -> {}", from.display(), to.display());
    match decide(site) {
        Decision::Pass => std::fs::rename(from, to).map_err(|e| ctx("rename", &what, site, e)),
        _ => Err(injected("rename", &what, site)),
    }
}

/// `fs::remove_file` through the failpoint.
pub fn remove_file(site: &'static str, path: &Path) -> std::io::Result<()> {
    match decide(site) {
        Decision::Pass => std::fs::remove_file(path).map_err(|e| ctx("remove", &p(path), site, e)),
        _ => Err(injected("remove", &p(path), site)),
    }
}

/// `fs::create_dir_all` through the failpoint.
pub fn create_dir_all(site: &'static str, path: &Path) -> std::io::Result<()> {
    match decide(site) {
        Decision::Pass => {
            std::fs::create_dir_all(path).map_err(|e| ctx("mkdir", &p(path), site, e))
        }
        _ => Err(injected("mkdir", &p(path), site)),
    }
}

/// `fs::read_dir` through the failpoint, collecting the entries so
/// per-entry errors surface here with context too.
pub fn read_dir(site: &'static str, path: &Path) -> std::io::Result<Vec<std::fs::DirEntry>> {
    match decide(site) {
        Decision::Pass => std::fs::read_dir(path)
            .and_then(|it| it.collect::<std::io::Result<Vec<_>>>())
            .map_err(|e| ctx("readdir", &p(path), site, e)),
        _ => Err(injected("readdir", &p(path), site)),
    }
}

/// A pure failpoint for operations with no wrappable std call (e.g. temp
/// directory creation via the `tempfile` shim).
pub fn hit(site: &'static str) -> std::io::Result<()> {
    match decide(site) {
        Decision::Pass => Ok(()),
        _ => Err(injected("io", site, site)),
    }
}

// ---------------------------------------------------------------------------
// Handle-level wrappers
// ---------------------------------------------------------------------------

/// `write_all` through the failpoint. [`FaultMode::ShortWrite`] persists
/// half the buffer then errors; [`FaultMode::TornWrite`] persists half,
/// reports success, and trips the kill switch.
pub fn write_all(site: &'static str, w: &mut impl Write, buf: &[u8]) -> std::io::Result<()> {
    match decide(site) {
        Decision::Pass => w.write_all(buf).map_err(|e| ctx("write", site, site, e)),
        Decision::Fail(FaultMode::ShortWrite) => {
            let _ = w.write_all(&buf[..buf.len() / 2]);
            Err(injected("write", "short write", site))
        }
        Decision::Fail(FaultMode::TornWrite) => {
            let _ = w.write_all(&buf[..buf.len() / 2]);
            Ok(())
        }
        _ => Err(injected("write", "buffer", site)),
    }
}

/// [`write_all`] of one `len`-byte buffer that `parts` streams out piece
/// by piece (a frame written from the arrays it encodes, never assembled):
/// the pieces are one wrapped I/O under one decision, however many there
/// are. The fault modes act on the buffer as a whole, as in [`write_all`]:
/// [`FaultMode::ShortWrite`] persists its first `len / 2` bytes then
/// errors; [`FaultMode::TornWrite`] persists them, reports success and
/// trips the kill switch. Under a fault `parts` still runs to its end.
pub(crate) fn write_parts<E: From<std::io::Error>>(
    site: &'static str,
    w: &mut impl Write,
    len: usize,
    parts: impl FnOnce(&mut dyn FnMut(&[u8]) -> Result<(), E>) -> Result<(), E>,
) -> Result<(), E> {
    let (mut keep, torn) = match decide(site) {
        Decision::Pass => (usize::MAX, None),
        Decision::Fail(mode @ (FaultMode::ShortWrite | FaultMode::TornWrite)) => {
            (len / 2, Some(mode))
        }
        _ => return Err(injected("write", "buffer", site).into()),
    };
    parts(&mut |part| {
        let n = part.len().min(keep);
        keep -= n;
        let written = w.write_all(&part[..n]);
        if torn.is_none() {
            written.map_err(|e| ctx("write", site, site, e))?;
        }
        Ok(())
    })?;
    match torn {
        Some(FaultMode::ShortWrite) => Err(injected("write", "short write", site).into()),
        _ => Ok(()),
    }
}

/// `flush` through the failpoint.
pub fn flush(site: &'static str, w: &mut impl Write) -> std::io::Result<()> {
    match decide(site) {
        Decision::Pass => w.flush().map_err(|e| ctx("flush", site, site, e)),
        _ => Err(injected("flush", "buffer", site)),
    }
}

/// `File::sync_all` through the failpoint.
pub fn sync_all(site: &'static str, f: &File) -> std::io::Result<()> {
    match decide(site) {
        Decision::Pass => f.sync_all().map_err(|e| ctx("fsync", site, site, e)),
        _ => Err(injected("fsync", "file", site)),
    }
}

/// `File::set_len` through the failpoint (WAL truncate-to-known-good).
pub fn set_len(site: &'static str, f: &File, len: u64) -> std::io::Result<()> {
    match decide(site) {
        Decision::Pass => f.set_len(len).map_err(|e| ctx("truncate", site, site, e)),
        _ => Err(injected("truncate", "file", site)),
    }
}

/// Query a handle's length through the failpoint.
pub fn file_len(site: &'static str, f: &File) -> std::io::Result<u64> {
    match decide(site) {
        Decision::Pass => f.metadata().map(|m| m.len()).map_err(|e| ctx("stat", site, site, e)),
        _ => Err(injected("stat", "file", site)),
    }
}

/// `read` (single call, for header loops) through the failpoint.
pub fn read(site: &'static str, r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    match decide(site) {
        Decision::Pass => r.read(buf).map_err(|e| ctx("read", site, site, e)),
        _ => Err(injected("read", "buffer", site)),
    }
}

/// `read_exact` through the failpoint.
pub fn read_exact(site: &'static str, r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<()> {
    match decide(site) {
        Decision::Pass => r.read_exact(buf).map_err(|e| ctx("read", site, site, e)),
        _ => Err(injected("read", "buffer", site)),
    }
}

/// `read_to_end` through the failpoint.
pub fn read_to_end(
    site: &'static str,
    r: &mut impl Read,
    buf: &mut Vec<u8>,
) -> std::io::Result<usize> {
    match decide(site) {
        Decision::Pass => r.read_to_end(buf).map_err(|e| ctx("read", site, site, e)),
        _ => Err(injected("read", "stream", site)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_wrappers_delegate() {
        let _g = test_lock();
        let mut buf = Vec::new();
        write_all("t.write", &mut buf, b"abc").unwrap();
        assert_eq!(buf, b"abc");
        let mut out = [0u8; 3];
        read_exact("t.read", &mut buf.as_slice(), &mut out).unwrap();
        assert_eq!(&out, b"abc");
    }

    #[test]
    fn nth_policy_fails_exactly_one_op() {
        let _g = test_lock();
        arm(FaultPolicy::Nth(1), FaultMode::Error);
        let mut buf = Vec::new();
        assert!(write_all("t.a", &mut buf, b"x").is_ok());
        let e = write_all("t.b", &mut buf, b"y").unwrap_err();
        assert!(e.to_string().contains("(site=t.b)"), "{e}");
        assert!(write_all("t.c", &mut buf, b"z").is_ok());
        let rep = disarm();
        assert!(rep.fired);
        assert_eq!(rep.ios, 3);
    }

    #[test]
    fn site_policy_fails_every_match() {
        let _g = test_lock();
        arm(FaultPolicy::SiteMatching("wal".into()), FaultMode::Error);
        let mut buf = Vec::new();
        assert!(write_all("persist.x", &mut buf, b"x").is_ok());
        assert!(write_all("wal.append", &mut buf, b"x").is_err());
        assert!(write_all("wal.flush", &mut buf, b"x").is_err());
        assert!(disarm().fired);
    }

    #[test]
    fn short_write_persists_a_prefix_then_errors() {
        let _g = test_lock();
        arm(FaultPolicy::Nth(0), FaultMode::ShortWrite);
        let mut buf = Vec::new();
        assert!(write_all("t.w", &mut buf, b"abcdef").is_err());
        disarm();
        assert_eq!(buf, b"abc", "exactly half the buffer persisted");
    }

    #[test]
    fn torn_write_reports_success_then_kills_all_io() {
        let _g = test_lock();
        arm(FaultPolicy::Nth(0), FaultMode::TornWrite);
        let mut buf = Vec::new();
        assert!(write_all("t.w", &mut buf, b"abcdef").is_ok(), "torn write lies");
        assert_eq!(buf, b"abc");
        assert!(write_all("t.w2", &mut buf, b"more").is_err(), "kill switch");
        assert!(flush("t.f", &mut std::io::sink()).is_err(), "kill switch");
        let rep = disarm();
        assert!(rep.fired);
        assert_eq!(rep.ios, 1, "dead I/O does not consume ordinals");
    }

    #[test]
    fn streamed_parts_are_one_operation_torn_as_a_whole() {
        let _g = test_lock();
        let parts = |put: &mut dyn FnMut(&[u8]) -> std::io::Result<()>| {
            for p in [&b"ab"[..], b"", b"cdef", b"gh"] {
                put(p)?;
            }
            Ok(())
        };
        let mut buf = Vec::new();
        write_parts("t.w", &mut buf, 8, parts).unwrap();
        assert_eq!(buf, b"abcdefgh", "disarmed: every piece, in order");
        for (mode, ok) in [(FaultMode::ShortWrite, false), (FaultMode::TornWrite, true)] {
            arm(FaultPolicy::Nth(0), mode);
            let mut buf = Vec::new();
            assert_eq!(write_parts("t.w", &mut buf, 8, parts).is_ok(), ok, "{mode:?}");
            let rep = disarm();
            assert_eq!(buf, b"abcd", "{mode:?}: half the whole buffer, across pieces");
            assert_eq!(rep.ios, 1, "{mode:?}: the pieces are one operation");
        }
        arm(FaultPolicy::Nth(0), FaultMode::Error);
        let mut buf = Vec::new();
        assert!(write_parts("t.w", &mut buf, 8, parts).is_err());
        disarm();
        assert!(buf.is_empty(), "an injected error writes nothing");
    }

    #[test]
    fn real_errors_gain_site_context_and_keep_their_kind() {
        let _g = test_lock();
        let e = open("t.open", Path::new("/definitely/not/here")).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
        assert!(e.to_string().contains("(site=t.open)"), "{e}");
        assert!(e.to_string().contains("/definitely/not/here"), "{e}");
    }
}
