//! A single database segment and its per-segment checkpointing metadata.

use mmdb_types::{Lsn, Timestamp, Word};
use std::sync::atomic::{AtomicU64, Ordering};

/// The two-color paint state of a segment (paper §3.2.1, after Pu).
///
/// Outside an active two-color checkpoint every segment is black; a
/// checkpoint begin paints its to-be-processed set white, and the
/// checkpointer repaints each segment black as it processes it. No
/// transaction may access both a white and a black record while a
/// checkpoint is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Color {
    /// Not yet included in the current checkpoint.
    White,
    /// Included in the current checkpoint (or not participating).
    #[default]
    Black,
}

/// A copy-on-update "old copy": the pre-update image of a segment saved by
/// the first transaction to update it after a COU checkpoint began
/// (Figure 3.2's special buffer, reached through `p(S)`).
#[derive(Debug, Clone)]
pub struct OldCopy {
    /// The snapshot content of the segment.
    pub data: Box<[Word]>,
    /// `τ(S)` at the time the copy was made — the timestamp of the most
    /// recent transaction to have updated the segment *before* the
    /// checkpoint began.
    pub tau: Timestamp,
    /// The segment version at the time the copy was made; used for
    /// ping-pong dirty accounting when the old copy is flushed.
    pub version: u64,
    /// Highest LSN contained in the copied image. All of it predates the
    /// checkpoint's begin-log force, so flushing an old copy never needs
    /// the WAL gate — this field lets the audit stream verify that.
    pub max_lsn: Lsn,
}

/// A snapshot of one segment's checkpointing metadata (see
/// [`crate::Storage::segment_meta`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Version of the latest installed update (0 = never updated since
    /// load). Draws from the storage-wide monotonic counter, so versions
    /// are comparable across segments.
    pub version: u64,
    /// Version captured by the last flush to each ping-pong backup copy.
    /// `version > flushed_version[c]` ⇔ the segment is dirty w.r.t. copy
    /// `c` — the generalized dirty bit of paper §3.
    pub flushed_version: [u64; 2],
    /// Highest LSN of any update installed in this segment; the WAL gate
    /// for flushing it.
    pub max_lsn: Lsn,
    /// `τ(S)`: timestamp of the most recent updating transaction
    /// (copy-on-update protocol, §3.2.2).
    pub tau: Timestamp,
    /// Two-color paint bit.
    pub color: Color,
    /// Whether `p(S)`, the COU old copy, exists.
    pub has_old: bool,
}

/// A segment's metadata; its words live in the storage's shared
/// [`crate::SeqWords`] array. The fields a shared-mode install changes
/// (version, max LSN, τ) are atomics, advanced with `fetch_max` by
/// installers that hold the segment's latch or exclusive access. They
/// publish no other data, so `Relaxed` suffices: whoever reads them holds
/// exclusive access, and acquiring the engine gate orders every shared
/// install before the read.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    pub(crate) version: AtomicU64,
    pub(crate) max_lsn: AtomicU64,
    pub(crate) tau: AtomicU64,
    pub(crate) flushed_version: [u64; 2],
    pub(crate) color: Color,
    pub(crate) old: Option<Box<OldCopy>>,
}

impl Segment {
    /// Records one install: the fresh `version` draw, the update's LSN
    /// and the installing transaction's timestamp.
    pub(crate) fn note_install(&self, version: u64, lsn: Lsn, tau: Timestamp) {
        self.version.fetch_max(version, Ordering::Relaxed);
        self.max_lsn.fetch_max(lsn.raw(), Ordering::Relaxed);
        self.tau.fetch_max(tau.raw(), Ordering::Relaxed);
    }

    pub(crate) fn meta(&self) -> SegmentMeta {
        SegmentMeta {
            version: self.version.load(Ordering::Relaxed),
            flushed_version: self.flushed_version,
            max_lsn: Lsn(self.max_lsn.load(Ordering::Relaxed)),
            tau: Timestamp(self.tau.load(Ordering::Relaxed)),
            color: self.color,
            has_old: self.old.is_some(),
        }
    }

    /// Resets the metadata after a whole-segment load: clean with
    /// respect to `source_copy` at `version` (dirty for the other
    /// ping-pong copy), or entirely fresh when there is no source copy.
    pub(crate) fn reset(&mut self, version: u64, source_copy: Option<usize>) {
        *self = Segment::default();
        if let Some(copy) = source_copy {
            *self.version.get_mut() = version;
            self.flushed_version[copy & 1] = version;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_segment_is_black_and_clean() {
        assert_eq!(Color::default(), Color::Black);
        assert_eq!(Segment::default().meta(), SegmentMeta::default());
    }
}
