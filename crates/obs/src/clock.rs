//! The monotonic process clock every observability record is anchored to.
//!
//! Wall-clock time (`SystemTime::now`) is banned in library code by the
//! workspace `clippy.toml` because it makes replay non-deterministic.
//! Observability records therefore carry *monotonic offsets*: microseconds
//! since a process-wide [`Instant`] anchor captured on first use.  Offsets are
//! totally ordered within a process, immune to NTP steps, and cheap to
//! subtract; they are meaningless across processes, which is fine for a
//! per-daemon introspection surface.

use std::sync::OnceLock;
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// The process anchor instant.  First call wins; call this early (daemon
/// startup) so offsets cover the whole process lifetime.
pub fn anchor() -> Instant {
    *ANCHOR.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process anchor.
pub fn offset_us() -> u64 {
    u64::try_from(anchor().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The monotonic offset (µs) of an already-captured instant.  Instants
/// taken before the anchor saturate to zero (`Instant::duration_since`
/// is saturating), so this never panics.
pub fn offset_us_of(at: Instant) -> u64 {
    u64::try_from(at.duration_since(anchor()).as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_monotone() {
        let a = offset_us();
        let b = offset_us();
        assert!(b >= a);
    }

    #[test]
    fn pre_anchor_instants_saturate_to_zero() {
        // `anchor()` is already initialised by the time this runs (or is
        // initialised right now); an instant equal to the anchor maps to 0.
        let at = anchor();
        assert_eq!(offset_us_of(at), 0);
    }
}
