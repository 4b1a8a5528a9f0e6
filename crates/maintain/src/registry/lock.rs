//! Per-shard advisory file locks: one daemon process per shard.
//!
//! A lock is a `lock` file inside the shard directory holding the owning
//! process id.  It is acquired at [`PersistentRegistry::create`],
//! [`open`](PersistentRegistry::open) and
//! [`recover`](PersistentRegistry::recover) time and released when the
//! registry is dropped, so two *processes* can never append to the same
//! shard log concurrently — interleaved appends from two writers would be
//! indistinguishable from corruption at recovery time.
//!
//! The lock is **advisory and per-process**:
//!
//! * A second acquisition from the *same* process (e.g. a test holding a
//!   live registry while probing a fresh `recover`) is granted as a
//!   borrowed, non-owning handle; single-process exclusion stays the
//!   caller's responsibility, exactly as before locks existed.
//! * A lock whose recorded holder is no longer alive (checked via
//!   `/proc/<pid>` where procfs exists) is stale — e.g. a daemon killed
//!   with SIGKILL — and is silently reclaimed, so a crashed service can
//!   always restart over its own registry.
//! * Without procfs the liveness probe is undecidable and stale locks are
//!   reclaimed optimistically: a crashed daemon must never brick its
//!   registry, and the lock remains advisory either way.
//!
//! [`PersistentRegistry::create`]: super::PersistentRegistry::create
//! [`PersistentRegistry::open`]: super::PersistentRegistry::open
//! [`PersistentRegistry::recover`]: super::PersistentRegistry::recover

use super::log::RegistryError;
use super::shard::sync_dir;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// How many acquire attempts to make before giving up: each failed attempt
/// means another process raced us between staleness check and reclaim.
const MAX_ATTEMPTS: usize = 4;

/// An acquired shard lock.  Owning handles delete the lock file on drop;
/// borrowed (same-process re-entrant) handles leave it to the owner.
#[derive(Debug)]
pub(crate) struct ShardLock {
    path: PathBuf,
    owned: bool,
}

impl ShardLock {
    /// Acquires the lock at `path`, failing with [`RegistryError::Locked`]
    /// when another live process holds it.
    #[expect(
        clippy::disallowed_methods,
        reason = "the pid stamp is this lock's whole job, and the lock file's create_new is paired with the sync_dir of its parent below"
    )]
    pub(crate) fn acquire(path: PathBuf) -> Result<ShardLock, RegistryError> {
        for _ in 0..MAX_ATTEMPTS {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // Best-effort pid stamp: an empty lock file (crash
                    // between create and write) reads as stale below.
                    let _ = writeln!(file, "{}", std::process::id());
                    let _ = file.sync_all();
                    // The created directory entry must survive a crash too:
                    // a lock that silently vanishes on power loss would let
                    // a second process in (best-effort, like the stamp —
                    // the lock stays advisory either way).
                    if let Some(parent) = path.parent() {
                        let _ = sync_dir(parent);
                    }
                    return Ok(ShardLock { path, owned: true });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match read_holder(&path) {
                        Some(pid) if pid == std::process::id() => {
                            return Ok(ShardLock { path, owned: false });
                        }
                        Some(pid) if holder_alive(pid) => {
                            return Err(RegistryError::Locked { path, pid });
                        }
                        // Dead holder or unreadable stamp: reclaim and retry.
                        _ => {
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => return Err(RegistryError::io(&path, e)),
            }
        }
        // Every attempt lost a reclaim race to another process.
        Err(RegistryError::Locked { path, pid: 0 })
    }
}

impl Drop for ShardLock {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// The pid recorded in a lock file, if it can be read and parsed.
fn read_holder(path: &Path) -> Option<u32> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Whether the recorded holder is still alive.  Decided via procfs; where
/// procfs is unavailable the holder is assumed gone (see the module docs).
fn holder_alive(pid: u32) -> bool {
    if !Path::new("/proc/self").exists() {
        return false;
    }
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_lock(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wi-lock-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn acquire_is_reentrant_within_one_process() {
        let path = temp_lock("reentrant");
        let _ = std::fs::remove_file(&path);
        let first = ShardLock::acquire(path.clone()).unwrap();
        assert!(first.owned);
        let second = ShardLock::acquire(path.clone()).unwrap();
        assert!(!second.owned, "same-process re-acquire is borrowed");
        // Dropping the borrowed handle leaves the lock in place …
        drop(second);
        assert!(path.exists());
        // … dropping the owner releases it.
        drop(first);
        assert!(!path.exists());
    }

    #[test]
    fn lock_held_by_a_live_foreign_process_is_refused() {
        let path = temp_lock("foreign");
        // pid 1 is init and always alive where procfs exists; without
        // procfs the probe degrades to "assume gone", so skip there.
        if !Path::new("/proc/1").exists() {
            return;
        }
        std::fs::write(&path, "1\n").unwrap();
        match ShardLock::acquire(path.clone()) {
            Err(RegistryError::Locked { pid, .. }) => assert_eq!(pid, 1),
            other => panic!("expected Locked, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_lock_of_a_dead_process_is_reclaimed() {
        let path = temp_lock("stale");
        // A pid that cannot be alive: far beyond any default pid_max.
        std::fs::write(&path, "4294000000\n").unwrap();
        let lock = ShardLock::acquire(path.clone()).unwrap();
        assert!(lock.owned, "stale lock is taken over");
        drop(lock);
        assert!(!path.exists());
    }
}
