//! The memory-resident (primary) database.
//!
//! Storage is an array of fixed-size *segments*, each holding a fixed
//! number of fixed-size *records* (paper §2.4). The record is the granule
//! of the transaction interface; the segment is the granule of transfer
//! to the backup disks and of every checkpointing protocol:
//!
//! * each segment carries a **version** (bumped on every record install)
//!   and a per-ping-pong-copy **flushed version**, which together implement
//!   dirty tracking for partial checkpoints (§3: "database segments can
//!   include a dirty bit which is set by transaction updates and cleared
//!   by the checkpointer" — generalized to two backup copies);
//! * each segment carries a **max LSN**, the log sequence number of the
//!   latest update installed in it, used by the LSN-gated algorithms to
//!   respect the write-ahead-log protocol (§3.1);
//! * each segment carries a **paint bit** for the two-color algorithms
//!   (§3.2.1, after Pu);
//! * each segment carries a **timestamp `τ(S)`** and an **old-copy
//!   pointer `p(S)`** for the copy-on-update algorithms (§3.2.2).
//!
//! The record words live in one shared [`SeqWords`] array — the only
//! copy of the data — whose per-record seqlocks let readers holding
//! [`Storage::read_handle`] read without any engine lock. Everything else
//! is serialized by the engine (see `mmdb-core`): `&mut Storage` paths
//! are exclusive, and [`Storage::install_record`] is the one `&self`
//! writer, for callers holding exclusive access or the segment's latch. All data movement is
//! charged to a caller-supplied [`CostMeter`] at 1 instruction/word.

#![warn(missing_docs)]

mod segment;
mod words;

pub use segment::{Color, OldCopy, SegmentMeta};
pub use words::SeqWords;

use mmdb_types::{
    hash::Fnv1a, CostMeter, DbParams, Lsn, MmdbError, RecordId, Result, SegmentId, Timestamp, Word,
};
use segment::Segment;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The memory-resident database: every segment's metadata, the shared
/// record words, and the global version counter that dirty tracking is
/// built on.
#[derive(Debug)]
pub struct Storage {
    db: DbParams,
    segments: Vec<Segment>,
    /// Monotonic counter bumped on every record install; segment versions
    /// are draws from this counter.
    version_counter: AtomicU64,
    /// The record data, seqlocked per record for lock-free readers.
    words: Arc<SeqWords>,
}

/// A segment's content captured for flushing, together with the metadata
/// the checkpointer needs to gate and account the flush.
#[derive(Debug, Clone)]
pub struct Capture {
    /// A copy of the segment's live words.
    pub data: Box<[Word]>,
    /// The segment version at capture time; pass to
    /// [`Storage::mark_flushed`] once the image is on disk.
    pub version: u64,
    /// Highest LSN of any update reflected in the data — the image must
    /// not reach the backup disks until the log is durable through this
    /// LSN (write-ahead rule).
    pub max_lsn: Lsn,
}

fn check_record(db: &DbParams, rid: RecordId, value: &[Word]) -> Result<()> {
    if value.len() as u64 != db.s_rec {
        return Err(MmdbError::BadRecordSize {
            expected: db.s_rec,
            got: value.len() as u64,
        });
    }
    check_rid(db, rid)
}

fn check_rid(db: &DbParams, rid: RecordId) -> Result<()> {
    if rid.raw() >= db.n_records() {
        return Err(MmdbError::RecordOutOfRange {
            record: rid,
            n_records: db.n_records(),
        });
    }
    Ok(())
}

fn check_image(db: &DbParams, data: &[Word]) -> Result<()> {
    if data.len() as u64 != db.s_seg {
        return Err(MmdbError::Invalid(format!(
            "segment image has {} words, expected {}",
            data.len(),
            db.s_seg
        )));
    }
    Ok(())
}

fn first_record(db: &DbParams, sid: SegmentId) -> RecordId {
    RecordId(u64::from(sid.raw()) * db.records_per_segment())
}

/// Fresh draw from a version counter (post-increment value).
fn draw(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed) + 1
}

impl Storage {
    /// Creates a zero-filled database of the given shape.
    pub fn new(db: DbParams) -> Result<Storage> {
        db.validate().map_err(MmdbError::Invalid)?;
        let n = db.n_segments() as usize;
        Ok(Storage {
            words: Arc::new(SeqWords::new(&db)),
            db,
            segments: (0..n).map(|_| Segment::default()).collect(),
            version_counter: AtomicU64::new(0),
        })
    }

    /// The lock-free read handle: the shared word array itself. Clone the
    /// `Arc` once and keep it — the storage is never reallocated, so the
    /// handle stays valid across crash and recovery (its gate closes
    /// while recovery rebuilds the contents, failing reads over to the
    /// locked path).
    pub fn read_handle(&self) -> &Arc<SeqWords> {
        &self.words
    }

    /// Takes the storage out of service for lock-free readers (crash,
    /// start of recovery). Idempotent.
    pub fn close_gate(&self) {
        self.words.gate_close();
    }

    /// Puts rebuilt storage back in service for lock-free readers (end
    /// of recovery or restore). Installs already stored every word in
    /// place, so nothing is copied; this only reopens the gate.
    /// Idempotent.
    pub fn republish_all(&self) {
        self.words.gate_open();
    }

    /// Resets every segment's metadata and the version counter to those
    /// of a fresh storage, keeping the allocation (and every read
    /// handle). The words are left as they are: recovery loads every
    /// segment from the backup next, behind the closed gate.
    pub fn reset_meta(&mut self) {
        for s in &mut self.segments {
            s.reset(0, None);
        }
        *self.version_counter.get_mut() = 0;
    }

    /// The database shape.
    pub fn db_params(&self) -> &DbParams {
        &self.db
    }

    /// Number of segments.
    pub fn n_segments(&self) -> u64 {
        self.db.n_segments()
    }

    /// Number of records.
    pub fn n_records(&self) -> u64 {
        self.db.n_records()
    }

    /// The current value of the global version counter. Captured by COU
    /// checkpoints as the snapshot horizon.
    pub fn current_version(&self) -> u64 {
        self.version_counter.load(Ordering::Relaxed)
    }

    /// The segment containing `rid`.
    pub fn segment_of(&self, rid: RecordId) -> Result<SegmentId> {
        check_rid(&self.db, rid)?;
        Ok(SegmentId(
            (rid.raw() / self.db.records_per_segment()) as u32,
        ))
    }

    fn check_segment(&self, sid: SegmentId) -> Result<()> {
        if sid.raw() as u64 >= self.n_segments() {
            return Err(MmdbError::SegmentOutOfRange {
                segment: sid,
                n_segments: self.n_segments(),
            });
        }
        Ok(())
    }

    fn seg_of(&self, rid: RecordId) -> &Segment {
        &self.segments[(rid.raw() / self.db.records_per_segment()) as usize]
    }

    /// Copies a segment's words out (exclusive access).
    fn copy_segment(&self, sid: SegmentId) -> Box<[Word]> {
        let s_seg = self.db.s_seg as usize;
        self.words
            .load(sid.index() * s_seg..(sid.index() + 1) * s_seg)
    }

    /// Reads a record's current value.
    pub fn read_record(&self, rid: RecordId) -> Result<Vec<Word>> {
        check_rid(&self.db, rid)?;
        let s_rec = self.db.s_rec as usize;
        let at = rid.raw() as usize * s_rec;
        Ok(self.words.load(at..at + s_rec).into_vec())
    }

    /// Installs a committed update into the primary database, bumping the
    /// segment version and recording the update's LSN and the updating
    /// transaction's timestamp. Charges `S_rec` words of data movement.
    ///
    /// This is the *install* half of the shadow-copy scheme (§2.6): the
    /// transaction manager calls it only at commit. The caller excludes
    /// every other writer of `rid`'s segment — with exclusive access, or
    /// with the segment's latch while the engine gate excludes exclusive
    /// holders (shared-mode commit). The word store follows the seqlock
    /// writer protocol and the metadata fields are atomics, so the next
    /// exclusive holder sees the data, version, max LSN and τ with no
    /// drain step.
    pub fn install_record(
        &self,
        rid: RecordId,
        value: &[Word],
        lsn: Lsn,
        tau: Timestamp,
        meter: &CostMeter,
    ) -> Result<()> {
        check_record(&self.db, rid, value)?;
        let version = draw(&self.version_counter);
        self.words.store(rid, value);
        meter.move_words(value.len() as u64);
        self.seg_of(rid).note_install(version, lsn, tau);
        Ok(())
    }

    /// A copy of the segment's words (e.g. for tests and recovery
    /// verification).
    pub fn segment_data(&self, sid: SegmentId) -> Result<Vec<Word>> {
        self.check_segment(sid)?;
        Ok(self.copy_segment(sid).into_vec())
    }

    /// A snapshot of the segment metadata (version, LSN, paint, COU state).
    pub fn segment_meta(&self, sid: SegmentId) -> Result<SegmentMeta> {
        self.check_segment(sid)?;
        Ok(self.segments[sid.index()].meta())
    }

    /// Is the segment dirty with respect to ping-pong copy `copy`
    /// (i.e. modified since it was last flushed there)?
    pub fn is_dirty(&self, sid: SegmentId, copy: usize) -> Result<bool> {
        self.check_segment(sid)?;
        let m = self.segments[sid.index()].meta();
        Ok(m.version > m.flushed_version[copy & 1])
    }

    /// Captures a copy of the live segment content for flushing.
    pub fn capture(&self, sid: SegmentId) -> Result<Capture> {
        self.check_segment(sid)?;
        let m = self.segments[sid.index()].meta();
        Ok(Capture {
            data: self.copy_segment(sid),
            version: m.version,
            max_lsn: m.max_lsn,
        })
    }

    /// Records that an image of `sid` at `version` has reached ping-pong
    /// copy `copy` (clears the dirty state up to that version).
    pub fn mark_flushed(&mut self, sid: SegmentId, copy: usize, version: u64) -> Result<()> {
        self.check_segment(sid)?;
        let slot = &mut self.segments[sid.index()].flushed_version[copy & 1];
        if version > *slot {
            *slot = version;
        }
        Ok(())
    }

    // ----- two-color (paint) protocol ------------------------------------

    /// Paints every segment for a two-color checkpoint begin: segments in
    /// the white set become white (to be processed), all others are
    /// immediately black (they are already consistent with the backup).
    pub fn paint_for_checkpoint(&mut self, white: impl Fn(SegmentId) -> bool) {
        for (i, seg) in self.segments.iter_mut().enumerate() {
            let sid = SegmentId(i as u32);
            seg.color = if white(sid) {
                Color::White
            } else {
                Color::Black
            };
        }
    }

    /// Paints one segment black (the checkpointer has processed it).
    pub fn paint_black(&mut self, sid: SegmentId) -> Result<()> {
        self.check_segment(sid)?;
        self.segments[sid.index()].color = Color::Black;
        Ok(())
    }

    /// The segment's current color.
    pub fn color(&self, sid: SegmentId) -> Result<Color> {
        self.check_segment(sid)?;
        Ok(self.segments[sid.index()].color)
    }

    /// Number of white segments remaining (test/diagnostic aid).
    pub fn white_count(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.color == Color::White)
            .count() as u64
    }

    // ----- copy-on-update protocol ----------------------------------------

    /// Saves an old copy of the segment for the COU snapshot: allocates a
    /// buffer, copies the live content, and hangs it off `p(S)`
    /// (Figure 3.2). Charges one allocation and `S_seg` words of movement.
    ///
    /// Returns an error if an old copy already exists — the COU update
    /// protocol guarantees at most one copy per segment per checkpoint,
    /// and a second copy would clobber the snapshot.
    pub fn cou_save_old(&mut self, sid: SegmentId, meter: &CostMeter) -> Result<()> {
        self.check_segment(sid)?;
        if self.segments[sid.index()].old.is_some() {
            return Err(MmdbError::Invalid(format!(
                "COU old copy already exists for {sid}"
            )));
        }
        let data = self.copy_segment(sid);
        meter.alloc_op();
        meter.move_words(data.len() as u64);
        let s = &mut self.segments[sid.index()];
        let m = s.meta();
        s.old = Some(Box::new(OldCopy {
            data,
            tau: m.tau,
            version: m.version,
            max_lsn: m.max_lsn,
        }));
        Ok(())
    }

    /// Does the segment currently have a COU old copy?
    pub fn has_old(&self, sid: SegmentId) -> Result<bool> {
        self.check_segment(sid)?;
        Ok(self.segments[sid.index()].old.is_some())
    }

    /// Detaches and returns the segment's COU old copy, if any. Charges
    /// the buffer deallocation (the caller is about to free it after the
    /// flush).
    pub fn take_old(&mut self, sid: SegmentId, meter: &CostMeter) -> Result<Option<Box<OldCopy>>> {
        self.check_segment(sid)?;
        let old = self.segments[sid.index()].old.take();
        if old.is_some() {
            meter.alloc_op();
        }
        Ok(old)
    }

    /// Drops any leftover old copies (end of a COU checkpoint). Returns
    /// how many were dropped; each dropped buffer charges a deallocation.
    pub fn drop_all_old(&mut self, meter: &CostMeter) -> u64 {
        let mut n = 0;
        for s in &mut self.segments {
            if s.old.take().is_some() {
                meter.alloc_op();
                n += 1;
            }
        }
        n
    }

    /// Total words currently held in COU old copies (the snapshot-buffer
    /// footprint the paper warns about: "Potentially, the snapshot could
    /// grow to be as large as the database itself", §3.2.2).
    pub fn old_copy_words(&self) -> u64 {
        self.segments
            .iter()
            .filter_map(|s| s.old.as_ref())
            .map(|o| o.data.len() as u64)
            .sum()
    }

    // ----- recovery support ------------------------------------------------

    /// Overwrites a segment's content wholesale (recovery loading a backup
    /// image) and resets the segment metadata.
    ///
    /// When `source_copy` is given, the segment is marked clean with
    /// respect to that ping-pong copy but *dirty* with respect to the
    /// other one — the other copy does not hold this image, so the next
    /// partial checkpoint targeting it must not skip the segment.
    pub fn load_segment(
        &mut self,
        sid: SegmentId,
        data: &[Word],
        source_copy: Option<usize>,
        meter: &CostMeter,
    ) -> Result<()> {
        self.check_segment(sid)?;
        check_image(&self.db, data)?;
        let version = draw(&self.version_counter);
        self.words.store_records(first_record(&self.db, sid), data);
        meter.move_words(data.len() as u64);
        self.segments[sid.index()].reset(version, source_copy);
        Ok(())
    }

    /// Splits the storage into `n` disjoint *lanes* of contiguous
    /// segments and runs `f` on them; each lane can be handed to its own
    /// apply worker (parallel recovery partitions the committed-REDO
    /// window by segment, and segments are independent after commit
    /// resolution). Lanes draw from the storage's own atomic version
    /// counter, so per-segment dirty-tracking invariants hold exactly as
    /// in the serial path.
    ///
    /// Lane `i` covers segments `[i*ceil(S/n), …)`. With `n` larger than the segment
    /// count, trailing lanes are empty.
    pub fn with_lanes<R>(&mut self, n: usize, f: impl FnOnce(Vec<StorageLane<'_>>) -> R) -> R {
        let n = n.max(1);
        let per = self.segments.len().div_ceil(n);
        let mut lanes = Vec::with_capacity(n);
        let mut rest: &mut [Segment] = &mut self.segments;
        let mut first = 0u32;
        for _ in 0..n {
            let take = per.min(rest.len());
            let (now, later) = rest.split_at_mut(take);
            lanes.push(StorageLane {
                db: self.db,
                segments: now,
                first,
                counter: &self.version_counter,
                words: &self.words,
            });
            first += take as u32;
            rest = later;
        }
        f(lanes)
    }

    /// A content fingerprint of the whole database — used by tests to
    /// compare pre-crash and post-recovery states.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for sid in self.segment_ids() {
            h.update_words(&self.copy_segment(sid));
        }
        h.finish()
    }

    /// Iterator over all segment ids in sweep order.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> {
        (0..self.n_segments() as u32).map(SegmentId)
    }
}

/// One worker's disjoint view of the storage: a contiguous run of
/// segments plus the shared version counter and word array. Created by
/// [`Storage::with_lanes`]; safe to move to a scoped thread.
#[derive(Debug)]
pub struct StorageLane<'a> {
    db: DbParams,
    segments: &'a mut [Segment],
    /// Global id of `segments[0]`.
    first: u32,
    counter: &'a AtomicU64,
    /// The shared word array; lanes own disjoint segments, so no two
    /// lanes store the same record.
    words: &'a SeqWords,
}

impl StorageLane<'_> {
    /// Number of segments in the lane (possibly zero).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the lane owns no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Does this lane own segment `sid`?
    pub fn owns(&self, sid: SegmentId) -> bool {
        let i = sid.raw() as usize;
        let first = self.first as usize;
        first <= i && i < first + self.segments.len()
    }

    fn local(&mut self, sid: SegmentId) -> Result<&mut Segment> {
        if !self.owns(sid) {
            return Err(MmdbError::Invalid(format!(
                "segment {sid} is outside this lane ([{}, {}))",
                self.first,
                self.first as usize + self.segments.len()
            )));
        }
        Ok(&mut self.segments[sid.raw() as usize - self.first as usize])
    }

    /// Lane-local [`Storage::load_segment`]: overwrites the segment
    /// wholesale, resets its metadata, and marks it clean with respect to
    /// `source_copy` (dirty for the other ping-pong copy).
    pub fn load_segment(
        &mut self,
        sid: SegmentId,
        data: &[Word],
        source_copy: Option<usize>,
        meter: &CostMeter,
    ) -> Result<()> {
        check_image(&self.db, data)?;
        self.local(sid)?;
        let version = draw(self.counter);
        self.words.store_records(first_record(&self.db, sid), data);
        meter.move_words(data.len() as u64);
        self.local(sid)?.reset(version, source_copy);
        Ok(())
    }

    /// Lane-local [`Storage::install_record`] (recovery replay installs
    /// with the same version/τ/LSN bookkeeping as the live path). The
    /// record must live in a segment this lane owns.
    pub fn install_record(
        &mut self,
        rid: RecordId,
        value: &[Word],
        lsn: Lsn,
        tau: Timestamp,
        meter: &CostMeter,
    ) -> Result<()> {
        check_record(&self.db, rid, value)?;
        let sid = SegmentId((rid.raw() / self.db.records_per_segment()) as u32);
        self.local(sid)?;
        let version = draw(self.counter);
        self.words.store(rid, value);
        meter.move_words(value.len() as u64);
        self.local(sid)?.note_install(version, lsn, tau);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::{CostCategory, CostParams, Params};

    fn small() -> Storage {
        Storage::new(Params::small().db).unwrap()
    }

    fn meter() -> CostMeter {
        CostMeter::new(CostParams::default())
    }

    fn rec(storage: &Storage, fill: Word) -> Vec<Word> {
        vec![fill; storage.db_params().s_rec as usize]
    }

    #[test]
    fn geometry_small() {
        let s = small();
        assert_eq!(s.n_segments(), 32);
        assert_eq!(s.n_records(), 2048);
        assert_eq!(s.segment_of(RecordId(0)).unwrap(), SegmentId(0));
        assert_eq!(s.segment_of(RecordId(63)).unwrap(), SegmentId(0));
        assert_eq!(s.segment_of(RecordId(64)).unwrap(), SegmentId(1));
        assert_eq!(s.segment_of(RecordId(2047)).unwrap(), SegmentId(31));
        assert!(s.segment_of(RecordId(2048)).is_err());
    }

    #[test]
    fn install_and_read_roundtrip() {
        let s = small();
        let m = meter();
        let v = rec(&s, 0xABCD);
        s.install_record(RecordId(100), &v, Lsn(10), Timestamp(1), &m)
            .unwrap();
        assert_eq!(s.read_record(RecordId(100)).unwrap(), &v[..]);
        // neighbours untouched
        assert_eq!(s.read_record(RecordId(99)).unwrap(), &rec(&s, 0)[..]);
        assert_eq!(s.read_record(RecordId(101)).unwrap(), &rec(&s, 0)[..]);
    }

    #[test]
    fn install_charges_move_cost() {
        let s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(1), &m)
            .unwrap();
        assert_eq!(m.snapshot().get(CostCategory::Move), 32);
    }

    #[test]
    fn install_rejects_wrong_size() {
        let s = small();
        let m = meter();
        let err = s
            .install_record(RecordId(0), &[1, 2, 3], Lsn(1), Timestamp(1), &m)
            .unwrap_err();
        assert!(matches!(
            err,
            MmdbError::BadRecordSize {
                expected: 32,
                got: 3
            }
        ));
    }

    #[test]
    fn versions_bump_and_track_dirtiness() {
        let mut s = small();
        let m = meter();
        assert!(!s.is_dirty(SegmentId(0), 0).unwrap());
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(1), &m)
            .unwrap();
        assert!(s.is_dirty(SegmentId(0), 0).unwrap());
        assert!(s.is_dirty(SegmentId(0), 1).unwrap());

        let ver = s.capture(SegmentId(0)).unwrap().version;
        s.mark_flushed(SegmentId(0), 0, ver).unwrap();
        assert!(!s.is_dirty(SegmentId(0), 0).unwrap());
        assert!(
            s.is_dirty(SegmentId(0), 1).unwrap(),
            "other copy still dirty"
        );

        // an update after the flush re-dirties copy 0
        s.install_record(RecordId(1), &rec(&s, 2), Lsn(2), Timestamp(2), &m)
            .unwrap();
        assert!(s.is_dirty(SegmentId(0), 0).unwrap());
    }

    #[test]
    fn mark_flushed_never_regresses() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(1), &m)
            .unwrap();
        let v1 = s.capture(SegmentId(0)).unwrap().version;
        s.install_record(RecordId(1), &rec(&s, 2), Lsn(2), Timestamp(2), &m)
            .unwrap();
        let v2 = s.capture(SegmentId(0)).unwrap().version;
        s.mark_flushed(SegmentId(0), 0, v2).unwrap();
        // a stale flush completion must not clear the newer version
        s.mark_flushed(SegmentId(0), 0, v1).unwrap();
        assert_eq!(s.segment_meta(SegmentId(0)).unwrap().flushed_version[0], v2);
    }

    #[test]
    fn capture_carries_max_lsn() {
        let s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(500), Timestamp(1), &m)
            .unwrap();
        s.install_record(RecordId(1), &rec(&s, 2), Lsn(300), Timestamp(2), &m)
            .unwrap();
        let cap = s.capture(SegmentId(0)).unwrap();
        assert_eq!(cap.max_lsn, Lsn(500), "max, not latest");
    }

    #[test]
    fn tau_is_max_of_updaters() {
        let s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(9), &m)
            .unwrap();
        s.install_record(RecordId(1), &rec(&s, 2), Lsn(2), Timestamp(4), &m)
            .unwrap();
        assert_eq!(s.segment_meta(SegmentId(0)).unwrap().tau, Timestamp(9));
    }

    #[test]
    fn paint_protocol() {
        let mut s = small();
        s.paint_for_checkpoint(|sid| sid.raw() < 4);
        assert_eq!(s.white_count(), 4);
        assert_eq!(s.color(SegmentId(0)).unwrap(), Color::White);
        assert_eq!(s.color(SegmentId(4)).unwrap(), Color::Black);
        s.paint_black(SegmentId(0)).unwrap();
        assert_eq!(s.color(SegmentId(0)).unwrap(), Color::Black);
        assert_eq!(s.white_count(), 3);
    }

    #[test]
    fn cou_old_copy_lifecycle() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 7), Lsn(1), Timestamp(3), &m)
            .unwrap();
        let before = mmdb_types::hash::fnv1a_words(&s.segment_data(SegmentId(0)).unwrap());

        s.cou_save_old(SegmentId(0), &m).unwrap();
        assert!(s.has_old(SegmentId(0)).unwrap());
        assert_eq!(s.old_copy_words(), 2048);
        // double-save is a protocol violation
        assert!(s.cou_save_old(SegmentId(0), &m).is_err());

        // mutate the live segment; the old copy must keep the snapshot
        s.install_record(RecordId(1), &rec(&s, 9), Lsn(2), Timestamp(5), &m)
            .unwrap();
        let old = s.take_old(SegmentId(0), &m).unwrap().unwrap();
        assert_eq!(mmdb_types::hash::fnv1a_words(&old.data), before);
        assert_eq!(old.tau, Timestamp(3));
        assert!(!s.has_old(SegmentId(0)).unwrap());
        assert_eq!(s.old_copy_words(), 0);
    }

    #[test]
    fn cou_save_charges_alloc_and_copy() {
        let mut s = small();
        let m = meter();
        s.cou_save_old(SegmentId(0), &m).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.get(CostCategory::Alloc), 100);
        assert_eq!(snap.get(CostCategory::Move), 2048);
        // take_old charges the deallocation
        s.take_old(SegmentId(0), &m).unwrap();
        assert_eq!(m.snapshot().get(CostCategory::Alloc), 200);
    }

    #[test]
    fn drop_all_old_counts_and_charges() {
        let mut s = small();
        let m = meter();
        s.cou_save_old(SegmentId(1), &m).unwrap();
        s.cou_save_old(SegmentId(2), &m).unwrap();
        let before = m.snapshot().get(CostCategory::Alloc);
        assert_eq!(s.drop_all_old(&m), 2);
        assert_eq!(m.snapshot().get(CostCategory::Alloc) - before, 200);
        assert_eq!(s.drop_all_old(&m), 0);
    }

    #[test]
    fn load_segment_resets_meta() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(5), Timestamp(2), &m)
            .unwrap();
        let image = vec![42 as Word; 2048];
        s.load_segment(SegmentId(0), &image, None, &m).unwrap();
        assert_eq!(s.segment_data(SegmentId(0)).unwrap(), &image[..]);
        let meta = s.segment_meta(SegmentId(0)).unwrap();
        assert_eq!(meta.version, 0);
        assert_eq!(meta.max_lsn, Lsn::ZERO);
        assert!(!meta.has_old);
    }

    #[test]
    fn load_segment_from_copy_stays_dirty_for_other_copy() {
        let mut s = small();
        let m = meter();
        let image = vec![7 as Word; 2048];
        s.load_segment(SegmentId(3), &image, Some(1), &m).unwrap();
        assert!(
            !s.is_dirty(SegmentId(3), 1).unwrap(),
            "clean w.r.t. the copy it was read from"
        );
        assert!(
            s.is_dirty(SegmentId(3), 0).unwrap(),
            "dirty w.r.t. the copy that lacks this image"
        );
    }

    #[test]
    fn load_segment_rejects_wrong_size() {
        let mut s = small();
        let m = meter();
        assert!(s.load_segment(SegmentId(0), &[1, 2, 3], None, &m).is_err());
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let s = small();
        let m = meter();
        let f0 = s.fingerprint();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(1), &m)
            .unwrap();
        assert_ne!(s.fingerprint(), f0);
    }

    #[test]
    fn lanes_partition_all_segments() {
        let mut s = small();
        for n in [1, 2, 3, 8, 32, 100] {
            let total: usize = s.with_lanes(n, |lanes| {
                assert_eq!(lanes.len(), n);
                lanes.iter().map(|l| l.len()).sum()
            });
            assert_eq!(total, 32, "n = {n}");
        }
        // lane i owns segments [i*ceil(S/n), ...)
        s.with_lanes(3, |lanes| {
            for sid in (0..32u32).map(SegmentId) {
                let idx = lanes.iter().position(|l| l.owns(sid)).unwrap();
                assert_eq!(idx, (sid.raw() as usize) / 32usize.div_ceil(3));
            }
        });
    }

    #[test]
    fn lane_installs_match_serial_semantics() {
        let m = meter();
        let serial = small();
        let mut parallel = small();
        let v1 = rec(&serial, 5);
        let v2 = rec(&serial, 9);
        serial
            .install_record(RecordId(0), &v1, Lsn(10), Timestamp(2), &m)
            .unwrap();
        serial
            .install_record(RecordId(2000), &v2, Lsn(20), Timestamp(3), &m)
            .unwrap();

        parallel.with_lanes(2, |mut lanes| {
            std::thread::scope(|scope| {
                let (a, b) = {
                    let mut it = lanes.drain(..);
                    (it.next().unwrap(), it.next().unwrap())
                };
                let m1 = meter();
                let m2 = meter();
                let t1 = scope.spawn(move || {
                    let mut a = a;
                    a.install_record(RecordId(0), &v1, Lsn(10), Timestamp(2), &m1)
                });
                let t2 = scope.spawn(move || {
                    let mut b = b;
                    b.install_record(RecordId(2000), &v2, Lsn(20), Timestamp(3), &m2)
                });
                t1.join().unwrap().unwrap();
                t2.join().unwrap().unwrap();
            });
        });
        assert_eq!(parallel.fingerprint(), serial.fingerprint());
        assert_eq!(parallel.current_version(), serial.current_version());
        for sid in [SegmentId(0), SegmentId(31)] {
            let sm = serial.segment_meta(sid).unwrap();
            let pm = parallel.segment_meta(sid).unwrap();
            assert_eq!(sm.max_lsn, pm.max_lsn);
            assert_eq!(sm.tau, pm.tau);
        }
    }

    #[test]
    fn lane_rejects_foreign_segment() {
        let mut s = small();
        let m = meter();
        let image = vec![1 as Word; 2048];
        s.with_lanes(2, |mut lanes| {
            // lane 1 starts at segment 16; record 0 lives in segment 0
            assert!(lanes[1]
                .install_record(RecordId(0), &[0; 32], Lsn(1), Timestamp(1), &m)
                .is_err());
            assert!(lanes[1]
                .load_segment(SegmentId(0), &image, None, &m)
                .is_err());
            assert!(lanes[0]
                .load_segment(SegmentId(0), &image, None, &m)
                .is_ok());
        });
        assert_eq!(s.segment_data(SegmentId(0)).unwrap(), &image[..]);
    }

    #[test]
    fn read_handle_tracks_installs() {
        let s = small();
        let m = meter();
        let v = rec(&s, 0xBEEF);
        s.install_record(RecordId(7), &v, Lsn(3), Timestamp(1), &m)
            .unwrap();
        let handle = s.read_handle().clone();
        let mut out = vec![0; 32];
        assert!(handle.try_read(RecordId(7), &mut out));
        assert_eq!(out, v);
        assert!(handle.try_read(RecordId(8), &mut out));
        assert_eq!(out, rec(&s, 0), "neighbour untouched");
        assert!(!handle.try_read(RecordId(9999), &mut out), "out of range");
        assert!(!handle.try_read(RecordId(7), &mut [0; 3]), "bad size");
    }

    /// Recovery reuses the allocation: after `reset_meta` and a reload
    /// the old handle serves the rebuilt content, and the metadata is
    /// that of a fresh storage.
    #[test]
    fn reset_and_reload_keep_the_read_handle() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(1), &m)
            .unwrap();
        s.cou_save_old(SegmentId(1), &m).unwrap();
        let handle = s.read_handle().clone();
        s.close_gate();
        let mut out = vec![0; 32];
        assert!(!handle.try_read(RecordId(0), &mut out));
        s.reset_meta();
        assert_eq!(s.current_version(), 0);
        assert_eq!(s.old_copy_words(), 0);
        let image = vec![9 as Word; 2048];
        for sid in s.segment_ids().collect::<Vec<_>>() {
            s.load_segment(sid, &image, Some(0), &m).unwrap();
        }
        s.republish_all();
        assert!(handle.try_read(RecordId(0), &mut out));
        assert_eq!(out, rec(&s, 9), "old handle serves recovered content");
        let mut fresh = small();
        for sid in fresh.segment_ids().collect::<Vec<_>>() {
            fresh.load_segment(sid, &image, Some(0), &m).unwrap();
        }
        assert_eq!(s.fingerprint(), fresh.fingerprint());
        assert_eq!(s.current_version(), fresh.current_version());
        for sid in s.segment_ids() {
            assert_eq!(
                s.segment_meta(sid).unwrap(),
                fresh.segment_meta(sid).unwrap()
            );
        }
    }

    #[test]
    fn lane_installs_reach_the_read_handle() {
        let mut s = small();
        let m = meter();
        let v = rec(&s, 3);
        let image = vec![8 as Word; 2048];
        s.with_lanes(2, |mut lanes| {
            lanes[0]
                .install_record(RecordId(1), &v, Lsn(1), Timestamp(1), &m)
                .unwrap();
            lanes[1]
                .load_segment(SegmentId(20), &image, None, &m)
                .unwrap();
        });
        let handle = s.read_handle().clone();
        let mut out = vec![0; 32];
        assert!(handle.try_read(RecordId(1), &mut out));
        assert_eq!(out, v);
        assert!(handle.try_read(RecordId(20 * 64), &mut out));
        assert_eq!(out, vec![8 as Word; 32]);
    }

    #[test]
    fn out_of_range_segment_ops_fail() {
        let mut s = small();
        let m = meter();
        let bad = SegmentId(32);
        assert!(s.segment_data(bad).is_err());
        assert!(s.capture(bad).is_err());
        assert!(s.paint_black(bad).is_err());
        assert!(s.cou_save_old(bad, &m).is_err());
        assert!(s.is_dirty(bad, 0).is_err());
    }
}
