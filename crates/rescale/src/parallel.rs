//! Parallel partitioned replay (recovery pillar 1).
//!
//! The serial recovery path (`mmdb-recovery`) is a strict sequence: read
//! every backup segment, checksum-validate the whole log, then replay
//! forward installing at each commit. Its wall-clock cost is dominated
//! by two bulks that are independent after commit resolution — backup
//! segment images and committed update payloads — so this module splits
//! the work:
//!
//! 1. **Structural scan** (single-threaded, cheap): walk the log with
//!    [`LogRecord::peek`], which fully verifies small control frames but
//!    only *locates* update payloads, deferring their checksums.
//! 2. **Commit resolution** (single-threaded): the same staging logic as
//!    the serial path, but producing per-lane *apply queues* (commit
//!    order preserved within each lane) instead of installing inline.
//! 3. **Parallel apply**: the storage is split into per-worker lanes
//!    ([`Storage::with_lanes`]); each worker verifies the update frames
//!    whose records it owns, loads its backup segment images as the main
//!    thread streams them in, and then installs its apply queue — all
//!    concurrently with the other lanes and with the backup reads.
//!
//! Records for disjoint segments are independent once commits are
//! resolved, and within a lane the queue preserves global commit order,
//! so the final segment contents are bit-identical to the serial path
//! (`fsck --compare` is the oracle; the version counter is shared
//! atomically so dirty-tracking invariants match too).
//!
//! **Corruption fallback:** the serial path treats the first bad frame
//! as the end of the durable log, which can change everything (a later
//! checkpoint marker may vanish). If any deferred update checksum fails,
//! this module throws away the partial parallel state — resetting the
//! storage's metadata in place, so lock-free read handles stay valid —
//! and re-runs the serial path, guaranteeing the exact serial result.

use mmdb_disk::BackupStore;
use mmdb_log::{FramePeek, LogDevice, LogRecord};
use mmdb_obs::Obs;
use mmdb_recovery::{recover_observed, InDoubtTxn, RecoveryReport};
use mmdb_storage::Storage;
use mmdb_types::{
    CostMeter, DiskParams, Lsn, MmdbError, RecordId, Result, SegmentId, Timestamp, TxnId, Word,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

/// One staged write awaiting its transaction's commit.
struct StagedWrite {
    frame: usize,
    record: RecordId,
    end_lsn: Lsn,
}

/// One resolved install, queued for the lane that owns the record.
struct ApplyOp {
    frame: usize,
    record: RecordId,
    end_lsn: Lsn,
}

fn decode_value(frame: &[u8], value_off: usize, value_words: usize) -> Vec<Word> {
    frame[value_off..value_off + value_words * 4]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

fn log_read_time(disk: &DiskParams, log_words: u64) -> f64 {
    if log_words == 0 {
        0.0
    } else {
        disk.t_seek + log_words as f64 * disk.t_trans / disk.n_bdisks as f64
    }
}

/// Parallel recovery: [`mmdb_recovery::recover_observed`] semantics with
/// `workers` apply lanes. With `workers <= 1` this *is* the serial path.
/// The report's modeled-time fields use the paper's formulas (identical
/// to serial — parallelism changes wall-clock, not the model).
pub fn recover_parallel(
    storage: &mut Storage,
    backup: &mut dyn BackupStore,
    log_device: &mut dyn LogDevice,
    disk: &DiskParams,
    meter: &CostMeter,
    obs: &Obs,
    workers: usize,
) -> Result<RecoveryReport> {
    if workers <= 1 {
        return recover_observed(storage, backup, log_device, disk, meter, obs);
    }
    let (copy, ckpt) = backup.recovery_copy()?;
    let db = *storage.db_params();

    // 1: structural scan — control frames fully verified, update frames
    // located with their checksums deferred to the apply workers.
    let resolve_timer = obs.timer();
    let base = log_device.start_offset();
    let bytes = log_device.read_all()?;
    let mut frames: Vec<(usize, usize, FramePeek)> = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match LogRecord::peek(&bytes[pos..]) {
            Ok((peek, used)) => {
                frames.push((pos, used, peek));
                pos += used;
            }
            Err(_) => break, // torn tail: stop here, like the serial scanner
        }
    }
    let valid_len = pos;

    // Locate the restored checkpoint's begin marker and the replay start
    // (mirrors `LogScanner::last_complete_checkpoint` + `replay_start`).
    let mark = frames
        .iter()
        .rev()
        .find_map(|(off, _, peek)| match peek {
            FramePeek::Other(LogRecord::BeginCheckpoint {
                ckpt: c, active, ..
            }) if *c == ckpt => Some((Lsn(base + *off as u64), active.clone())),
            _ => None,
        })
        .ok_or_else(|| {
            MmdbError::Corrupt(format!(
                "backup copy {copy} is complete for {ckpt} but the log has no begin marker for it"
            ))
        })?;
    let (begin_lsn, active) = mark;
    let replay_start = if active.is_empty() {
        begin_lsn
    } else {
        let mut remaining = active;
        let mut earliest = begin_lsn;
        for (off, _, peek) in frames.iter().rev() {
            let lsn = Lsn(base + *off as u64);
            if lsn >= begin_lsn {
                continue;
            }
            if let FramePeek::Other(LogRecord::TxnBegin { txn, .. }) = peek {
                if let Some(i) = remaining.iter().position(|t| t == txn) {
                    remaining.swap_remove(i);
                    earliest = lsn;
                    if remaining.is_empty() {
                        break;
                    }
                }
            }
        }
        earliest
    };

    // 2: commit resolution — the serial staging logic, emitting per-lane
    // apply queues instead of installing inline. Lane assignment is by
    // record segment; every update frame in the validated window (even
    // outside the replay window) joins its lane's verify list, because
    // the serial path checksums the whole log and stops at the first bad
    // frame — a corruption anywhere must trigger the fallback.
    let n_segments = db.n_segments();
    let lane_span = (n_segments as usize).div_ceil(workers).max(1);
    let lane_for = |rid: RecordId| -> usize {
        let sid = (rid.raw() / db.records_per_segment()).min(n_segments.saturating_sub(1));
        (sid as usize / lane_span).min(workers - 1)
    };
    let mut verify: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut queues: Vec<Vec<ApplyOp>> = (0..workers).map(|_| Vec::new()).collect();
    let mut staged: HashMap<TxnId, Vec<StagedWrite>> = HashMap::new();
    let mut prepared: HashMap<TxnId, u64> = HashMap::new();
    let mut decided: HashMap<u64, bool> = HashMap::new();
    let mut max_gid = 0u64;
    let mut updates_applied = 0u64;
    let mut txns_replayed = 0u64;
    for (i, (off, used, peek)) in frames.iter().enumerate() {
        let lsn = Lsn(base + *off as u64);
        if let FramePeek::Update { record, .. } = peek {
            verify[lane_for(*record)].push(i);
        }
        if lsn < replay_start {
            continue;
        }
        match peek {
            FramePeek::Update { txn, record, .. } => {
                staged.entry(*txn).or_default().push(StagedWrite {
                    frame: i,
                    record: *record,
                    end_lsn: Lsn(base + (*off + *used) as u64),
                });
            }
            FramePeek::Other(LogRecord::Commit { txn }) => {
                if let Some(writes) = staged.remove(txn) {
                    for w in writes {
                        queues[lane_for(w.record)].push(ApplyOp {
                            frame: w.frame,
                            record: w.record,
                            end_lsn: w.end_lsn,
                        });
                        updates_applied += 1;
                    }
                }
                prepared.remove(txn);
                txns_replayed += 1;
            }
            FramePeek::Other(LogRecord::Abort { txn }) => {
                staged.remove(txn);
                prepared.remove(txn);
            }
            FramePeek::Other(LogRecord::Prepare { txn, gid }) => {
                prepared.insert(*txn, *gid);
                max_gid = max_gid.max(*gid);
            }
            FramePeek::Other(LogRecord::Decide { gid, commit }) => {
                decided.insert(*gid, *commit);
                max_gid = max_gid.max(*gid);
            }
            _ => {}
        }
    }
    obs.span_end(
        "recovery.resolve",
        "recovery.resolve_ns",
        resolve_timer,
        || {
            format!(
                "{} frames, {} installs across {} lanes",
                frames.len(),
                updates_applied,
                workers
            )
        },
    );

    // 3: parallel apply — workers verify + load + install their lanes
    // while the main thread streams backup segment images to them.
    let apply_timer = obs.timer();
    let corrupt = AtomicBool::new(false);
    let segments_loaded = n_segments;
    storage.with_lanes(workers, |mut lanes| -> Result<()> {
        std::thread::scope(|scope| -> Result<()> {
            let mut senders = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for (w, lane) in lanes.drain(..).enumerate() {
                let (tx, rx) = mpsc::channel::<(SegmentId, Vec<Word>)>();
                senders.push(tx);
                let (bytes, frames) = (&bytes, &frames);
                let (my_verify, my_queue) = (&verify[w], &queues[w]);
                let corrupt = &corrupt;
                handles.push(scope.spawn(move || -> Result<()> {
                    let mut lane = lane;
                    // deferred checksums first: pure CPU, overlaps the
                    // main thread's backup I/O
                    for &fi in my_verify {
                        let (off, len, _) = frames[fi];
                        if !LogRecord::verify_frame(&bytes[off..off + len]) {
                            corrupt.store(true, Ordering::SeqCst);
                            return Ok(());
                        }
                    }
                    // backup images for this lane's segments
                    for (sid, img) in rx {
                        lane.load_segment(sid, &img, Some(copy), meter)?;
                    }
                    if corrupt.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    // installs, in resolved commit order
                    for op in my_queue {
                        let (off, len, ref peek) = frames[op.frame];
                        let (value_off, value_words) = match *peek {
                            FramePeek::Update {
                                value_off,
                                value_words,
                                ..
                            } => (value_off, value_words),
                            _ => {
                                return Err(MmdbError::Invalid(
                                    "apply queue references a non-update frame".into(),
                                ))
                            }
                        };
                        let value = decode_value(&bytes[off..off + len], value_off, value_words);
                        lane.install_record(op.record, &value, op.end_lsn, Timestamp::ZERO, meter)?;
                    }
                    Ok(())
                }));
            }
            let mut buf: Vec<Word> = vec![0; db.s_seg as usize];
            for sid in 0..n_segments as u32 {
                meter.io_op();
                backup.read_segment(copy, SegmentId(sid), &mut buf)?;
                let lane = (sid as usize / lane_span).min(workers - 1);
                // a worker that bailed on corruption dropped its receiver;
                // the send error is fine, the fallback rebuilds everything
                let _ = senders[lane].send((SegmentId(sid), buf.clone()));
            }
            drop(senders);
            for h in handles {
                h.join()
                    .map_err(|_| MmdbError::Invalid("recovery apply worker panicked".into()))??;
            }
            Ok(())
        })
    })?;
    obs.span_end(
        "recovery.parallel_apply",
        "recovery.parallel_apply_ns",
        apply_timer,
        || format!("{workers} workers, {segments_loaded} segments, {updates_applied} installs"),
    );

    if corrupt.load(Ordering::SeqCst) {
        // A deferred update checksum failed. The serial path would have
        // treated that frame as the end of the durable log, which can
        // change the chosen marker and the whole replay — so discard the
        // partial parallel state and defer to the oracle entirely. The
        // reset keeps the allocation: the serial path reloads every
        // segment, and readers holding the read handle keep it.
        obs.counter("recovery.parallel_fallbacks", 1);
        storage.reset_meta();
        return recover_observed(storage, backup, log_device, disk, meter, obs);
    }

    // Prepared branches with no durable outcome are in doubt (their
    // frames were verified above, so decoding the values is safe).
    let mut in_doubt: Vec<InDoubtTxn> = prepared
        .iter()
        .map(|(&txn, &gid)| InDoubtTxn {
            gid,
            txn,
            writes: staged
                .remove(&txn)
                .unwrap_or_default()
                .into_iter()
                .map(|w| {
                    let (off, len, ref peek) = frames[w.frame];
                    let value = match *peek {
                        FramePeek::Update {
                            value_off,
                            value_words,
                            ..
                        } => decode_value(&bytes[off..off + len], value_off, value_words),
                        _ => Vec::new(),
                    };
                    (w.record, value)
                })
                .collect(),
        })
        .collect();
    in_doubt.sort_by_key(|t| (t.gid, t.txn));
    let mut decisions: Vec<(u64, bool)> = decided.into_iter().collect();
    decisions.sort_unstable();
    let txns_discarded = staged.len() as u64;

    let backup_words = segments_loaded * db.s_seg;
    let log_words = (base + valid_len as u64)
        .saturating_sub(replay_start.raw())
        .div_ceil(4);
    let backup_read_seconds = disk.array_time(segments_loaded, db.s_seg);
    let log_read_seconds = log_read_time(disk, log_words);
    obs.observe(
        "recovery.total_modeled_us",
        ((backup_read_seconds + log_read_seconds) * 1e6) as u64,
    );
    obs.counter("recovery.runs", 1);
    obs.counter("recovery.parallel_runs", 1);

    Ok(RecoveryReport {
        ckpt,
        copy,
        segments_loaded,
        backup_words,
        replay_start,
        log_words,
        updates_applied,
        txns_replayed,
        txns_discarded,
        backup_read_seconds,
        log_read_seconds,
        in_doubt,
        decisions,
        max_gid,
    })
}
