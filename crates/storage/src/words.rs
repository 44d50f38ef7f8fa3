//! The record words themselves — the only copy of the database
//! contents: one flat array of `AtomicU32`s, one seqlock per record and a
//! storage-wide gate.
//!
//! Writers exclude each other per record (`&mut Storage`, the engine's
//! per-segment latches, or lane disjointness) and store with the seqlock
//! writer protocol: counter odd, release fence, relaxed word stores,
//! counter even with release. Lock-free readers load the counter with
//! acquire, the words relaxed, fence with acquire and re-check the
//! counter, so they never observe a torn record. The **gate** (odd =
//! closed) takes the whole array out of service while crash recovery
//! rebuilds it in place. Holders of exclusive access copy words out with
//! plain relaxed loads: nothing stores concurrently, and the engine gate
//! that granted the access orders every earlier store before them.

use mmdb_types::{DbParams, RecordId, Word};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

/// The seqlocked word array. Owned by `Storage`; share via `Arc` for
/// lock-free reads (see [`crate::Storage::read_handle`]).
pub struct SeqWords {
    s_rec: usize,
    /// Flat record data: record `r` occupies words `[r*s_rec, (r+1)*s_rec)`.
    words: Box<[AtomicU32]>,
    /// Per-record sequence counters; odd while a writer is copying.
    seqs: Box<[AtomicU64]>,
    /// Storage-wide gate; odd while crash/recovery has the array closed.
    gate: AtomicU64,
}

impl std::fmt::Debug for SeqWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqWords")
            .field("n_records", &self.n_records())
            .field("s_rec", &self.s_rec)
            .field("gate_closed", &self.gate_closed())
            .finish()
    }
}

impl SeqWords {
    pub(crate) fn new(db: &DbParams) -> SeqWords {
        let n_records = db.n_records() as usize;
        let s_rec = db.s_rec as usize;
        SeqWords {
            s_rec,
            words: (0..n_records * s_rec).map(|_| AtomicU32::new(0)).collect(),
            seqs: (0..n_records).map(|_| AtomicU64::new(0)).collect(),
            gate: AtomicU64::new(0),
        }
    }

    /// Number of records held.
    pub(crate) fn n_records(&self) -> u64 {
        self.seqs.len() as u64
    }

    fn span(&self, rid: RecordId) -> std::ops::Range<usize> {
        let i = rid.raw() as usize * self.s_rec;
        i..i + self.s_rec
    }

    /// One optimistic read attempt. On success `out` holds a consistent
    /// committed value and `true` is returned; `false` means a writer or
    /// the gate interfered (or `rid` is out of range) and the caller
    /// should retry or fall back to the locked path.
    pub fn try_read(&self, rid: RecordId, out: &mut [Word]) -> bool {
        if rid.raw() >= self.n_records() || out.len() != self.s_rec {
            return false;
        }
        let gate0 = self.gate.load(Ordering::Acquire);
        if gate0 & 1 == 1 {
            return false;
        }
        let seq = &self.seqs[rid.raw() as usize];
        let seq0 = seq.load(Ordering::Acquire);
        if seq0 & 1 == 1 {
            return false;
        }
        for (o, w) in out.iter_mut().zip(&self.words[self.span(rid)]) {
            *o = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        seq.load(Ordering::Relaxed) == seq0 && self.gate.load(Ordering::Relaxed) == gate0
    }

    /// Stores one record with the seqlock writer protocol. The caller
    /// must exclude every other writer of this record (segment latch,
    /// `&mut Storage`, or lane ownership).
    pub(crate) fn store(&self, rid: RecordId, value: &[Word]) {
        debug_assert_eq!(value.len(), self.s_rec);
        let seq = &self.seqs[rid.raw() as usize];
        let seq0 = seq.load(Ordering::Relaxed);
        debug_assert_eq!(seq0 & 1, 0, "concurrent store to one record");
        seq.store(seq0 + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, v) in self.words[self.span(rid)].iter().zip(value) {
            w.store(*v, Ordering::Relaxed);
        }
        seq.store(seq0 + 2, Ordering::Release);
    }

    /// Stores consecutive whole records starting at `first`.
    pub(crate) fn store_records(&self, first: RecordId, data: &[Word]) {
        for (k, chunk) in data.chunks_exact(self.s_rec).enumerate() {
            self.store(RecordId(first.raw() + k as u64), chunk);
        }
    }

    /// Copies the words in `range` out with plain loads. Only meaningful
    /// while the caller excludes every writer of those words (exclusive
    /// access to the storage).
    pub(crate) fn load(&self, range: std::ops::Range<usize>) -> Box<[Word]> {
        self.words[range]
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    // ----- gate ------------------------------------------------------------

    /// Closes the gate (crash): every `try_read` fails until the gate
    /// reopens. Idempotent.
    pub(crate) fn gate_close(&self) {
        let g = self.gate.load(Ordering::Relaxed);
        if g & 1 == 0
            && self
                .gate
                .compare_exchange(g, g + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            fence(Ordering::Release);
        }
    }

    /// Reopens the gate (end of recovery). Idempotent.
    pub(crate) fn gate_open(&self) {
        let g = self.gate.load(Ordering::Relaxed);
        if g & 1 == 1 {
            let _ = self
                .gate
                .compare_exchange(g, g + 1, Ordering::Release, Ordering::Relaxed);
        }
    }

    /// Is the gate currently closed?
    pub fn gate_closed(&self) -> bool {
        self.gate.load(Ordering::Acquire) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn words() -> Arc<SeqWords> {
        Arc::new(SeqWords::new(&DbParams {
            s_db: 4096,
            s_rec: 16,
            s_seg: 256,
        }))
    }

    /// The raw seqlock under fire: two writers on disjoint record halves
    /// (the external-serialization contract), two readers racing them.
    /// Writers store uniform values, so any successful read with unequal
    /// words is a torn read — the one thing the protocol exists to
    /// prevent. This is the TSan target for the word array in isolation.
    #[test]
    fn racing_readers_never_see_a_torn_publish() {
        let m = words();
        let n = m.n_records();
        let s_rec = m.s_rec;
        for r in 0..n {
            m.store(RecordId(r), &vec![1; s_rec]);
        }

        let stop = Arc::new(AtomicBool::new(false));
        // Writers keep going until every reader has read during the race
        // (bounded, so a starved reader fails the assertion below rather
        // than hanging the test).
        let reads: Arc<[AtomicU64; 2]> = Arc::default();
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let m = Arc::clone(&m);
                let reads = Arc::clone(&reads);
                let half = (w * n / 2)..((w + 1) * n / 2);
                std::thread::spawn(move || {
                    let mut i = 0u32;
                    let starved = || reads.iter().any(|r| r.load(Ordering::Relaxed) < 100);
                    while i < 20_000 || (starved() && i < 5_000_000) {
                        let r = half.start + u64::from(i) % (half.end - half.start);
                        m.store(RecordId(r), &vec![i | 1; s_rec]);
                        i += 1;
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|r| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                let reads = Arc::clone(&reads);
                std::thread::spawn(move || {
                    let mut x = 0x243F_6A88_85A3_08D3u64 ^ (r + 1);
                    let mut ok = 0u64;
                    let mut out = vec![0; s_rec];
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if m.try_read(RecordId(x % n), &mut out) {
                            assert!(out.iter().all(|&w| w == out[0]), "torn read: {out:?}");
                            ok += 1;
                            reads[r as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    ok
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let ok = r.join().unwrap();
            assert!(ok > 0, "reader starved — every optimistic read failed");
        }
    }

    #[test]
    fn closed_gate_fails_every_read_until_reopened() {
        let m = words();
        let s_rec = m.s_rec;
        m.store(RecordId(3), &vec![9; s_rec]);
        let mut out = vec![0; s_rec];
        assert!(m.try_read(RecordId(3), &mut out));
        assert_eq!(out, vec![9; s_rec]);

        m.gate_close();
        m.gate_close();
        assert!(m.gate_closed(), "closing twice leaves the gate closed");
        assert!(!m.try_read(RecordId(3), &mut out), "closed gate must fail");
        m.gate_open();
        m.gate_open();
        assert!(!m.gate_closed(), "opening twice leaves the gate open");
        assert!(m.try_read(RecordId(3), &mut out));
    }
}
