//! `recover`: restart a crashed 256 MiB FUZZYCOPY database directory.
//!
//! Set-up builds the crashed directory: two full checkpoints, a
//! seeded uniform update stream with a fuzzy checkpoint running in the
//! middle of it, a log force and `Mmdb::crash`. The timed part reopens
//! that directory with `Mmdb::open_dir`, alternating one apply worker
//! (the default) and `nproc` workers. Recovery only reads the directory,
//! so every restart sees the same bytes; each restart must reproduce the
//! fingerprint taken before the crash.

use crate::measure::{self, Outcome, Samples};
use crate::Ctx;
use mmdb_core::{CheckpointStart, CommitDurability, Mmdb, MmdbConfig, StepOutcome};
use mmdb_disk::{BackupStore, FileBackup};
use mmdb_log::{LogRecord, LogScanner, SegmentedLogDevice};
use mmdb_types::{Algorithm, DbParams, RecordId, SegmentId, Word};
use std::path::Path;
use std::time::{Duration, Instant};

/// 256 MiB: 8192 segments of 8192 words, 32-word records.
const DB: DbParams = DbParams {
    s_db: 64 << 20,
    s_rec: 32,
    s_seg: 8192,
};
const UPDATES_PER_TXN: usize = 4;
/// Transactions before the mid-stream checkpoint begins.
const TXNS_BEFORE: u64 = 20_000;
/// Transactions run between consecutive steps of that checkpoint.
const TXNS_PER_STEP: u64 = 4;
/// Transactions after the checkpoint completes (all inside the replay
/// window together with those that ran during it).
const TXNS_AFTER: u64 = 40_000;

pub fn config(workers: usize, telemetry: bool) -> MmdbConfig {
    let mut cfg = MmdbConfig::new(Algorithm::FuzzyCopy);
    cfg.params.db = DB;
    cfg.recovery_workers = workers;
    cfg.telemetry = telemetry;
    cfg
}

/// The seeded update stream, generated before anything is timed: per
/// transaction, `UPDATES_PER_TXN` distinct uniform records.
fn stream(seed: u64, txns: u64) -> Vec<[u64; UPDATES_PER_TXN]> {
    let mut rng = crate::Rng::new(seed);
    let n = DB.n_records();
    (0..txns)
        .map(|_| {
            let mut t = [0u64; UPDATES_PER_TXN];
            let mut k = 0;
            while k < UPDATES_PER_TXN {
                let r = rng.below(n);
                if !t[..k].contains(&r) {
                    t[k] = r;
                    k += 1;
                }
            }
            t
        })
        .collect()
}

fn commit(db: &mut Mmdb, recs: &[u64; UPDATES_PER_TXN], stamp: Word, words: usize) -> bool {
    let updates: Vec<(RecordId, Vec<Word>)> = recs
        .iter()
        .map(|&r| (RecordId(r), vec![stamp ^ r as Word; words]))
        .collect();
    db.run_txn(&updates).is_ok()
}

/// Builds the crashed directory and returns the committed-state
/// fingerprint taken just before the crash, or a description of what
/// failed.
fn build(dir: &Path, seed: u64) -> Result<u64, String> {
    let mut cfg = config(1, false);
    // The builder only writes the directory; lazy commits plus the
    // explicit force before the crash leave the same durable log a
    // forcing client would, without one write call per commit.
    cfg.commit_durability = CommitDurability::Lazy;
    let (mut db, _) = Mmdb::open_dir(cfg, dir).map_err(|e| format!("open: {e}"))?;
    let words = db.record_words();
    db.checkpoint().map_err(|e| format!("checkpoint 1: {e}"))?;
    db.checkpoint().map_err(|e| format!("checkpoint 2: {e}"))?;
    let txns = stream(seed, TXNS_BEFORE + TXNS_AFTER + 8 * DB.n_segments());
    let mut next = txns.iter().enumerate();
    let mut run = |db: &mut Mmdb, count: u64| -> Result<(), String> {
        for _ in 0..count {
            let Some((i, t)) = next.next() else {
                return Err("update stream too short".into());
            };
            if !commit(db, t, i as Word + 1, words) {
                return Err(format!("transaction {i} failed"));
            }
        }
        Ok(())
    };
    run(&mut db, TXNS_BEFORE)?;
    match db.try_begin_checkpoint() {
        Ok(CheckpointStart::Started(_)) => {}
        other => return Err(format!("mid-stream checkpoint did not start: {other:?}")),
    }
    loop {
        run(&mut db, TXNS_PER_STEP)?;
        match db.checkpoint_step() {
            Ok(StepOutcome::Done { .. }) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("checkpoint step: {e}")),
        }
    }
    run(&mut db, TXNS_AFTER)?;
    db.force_log().map_err(|e| format!("force: {e}"))?;
    let fingerprint = db.fingerprint();
    db.crash().map_err(|e| format!("crash: {e}"))?;
    Ok(fingerprint)
}

struct Restart {
    wall: Duration,
    cpu_s: f64,
    fingerprint: u64,
    log_mb: f64,
    backup_load_ns: u64,
    replay_ns: u64,
    fallbacks: u64,
    rss_peak_mb: f64,
}

/// Runs in the child process started by [`restart`]: reopens `dir` and
/// prints one line of space-separated fields for the parent to parse.
pub fn restart_child(dir: &Path, workers: usize, telemetry: bool) -> Result<String, String> {
    let cpu0 = measure::own_cpu_s();
    let t0 = Instant::now();
    let (db, report) =
        Mmdb::open_dir(config(workers, telemetry), dir).map_err(|e| format!("restart: {e}"))?;
    let wall = t0.elapsed();
    // One worker recovers on this thread alone, so its CPU is the
    // restart's CPU.
    let cpu_s = measure::own_cpu_s() - cpu0;
    let report = report.ok_or("restart found no backup to recover from")?;
    let snap = db.metrics_snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let span_ns = |name: &str| snap.hist(name).map_or(0, |h| h.sum);
    Ok(format!(
        "{} {} {} {} {} {} {} {}",
        wall.as_nanos(),
        cpu_s,
        db.fingerprint(),
        report.log_words,
        span_ns("recovery.backup_load_ns"),
        span_ns("recovery.redo_replay_ns")
            + span_ns("recovery.resolve_ns")
            + span_ns("recovery.parallel_apply_ns"),
        counter("recovery.parallel_fallbacks"),
        measure::rss_peak_mb(),
    ))
}

/// One restart, in a fresh process as after a real crash: this binary
/// started again in its restart mode. A process of its own also gives
/// every restart the same memory state to allocate from.
fn restart(dir: &Path, workers: usize, telemetry: bool) -> Result<Restart, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--restart")
        .arg(dir)
        .args(["--workers", &workers.to_string()])
        .args(["--telemetry", if telemetry { "1" } else { "0" }])
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("restart process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "restart with {workers} workers failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let f: Vec<&str> = text.split_whitespace().collect();
    let num = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("restart process printed {text:?}"))
    };
    let int = |i: usize| -> Result<u64, String> {
        f.get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("restart process printed {text:?}"))
    };
    Ok(Restart {
        wall: Duration::from_nanos(int(0)?),
        cpu_s: num(1)?,
        fingerprint: int(2)?,
        log_mb: int(3)? as f64 * 4.0 / 1e6,
        backup_load_ns: int(4)?,
        replay_ns: int(5)?,
        fallbacks: int(6)?,
        rss_peak_mb: num(7)?,
    })
}

/// The backup layer alone: read every segment of the newest complete
/// copy through `FileBackup`.
fn backup_load(dir: &Path) -> Result<Duration, String> {
    let t0 = Instant::now();
    let mut backup =
        FileBackup::open(&dir.join("backup"), DB, false).map_err(|e| format!("backup: {e}"))?;
    let (copy, _) = backup.recovery_copy().map_err(|e| format!("backup: {e}"))?;
    let mut buf = vec![0 as Word; DB.s_seg as usize];
    for sid in 0..DB.n_segments() {
        backup
            .read_segment(copy, SegmentId(sid as u32), &mut buf)
            .map_err(|e| format!("backup segment {sid}: {e}"))?;
    }
    std::hint::black_box(&buf);
    Ok(t0.elapsed())
}

/// The storage layer alone: allocate the primary copy and its read
/// mirror, then publish every record into the mirror, as a restart does
/// before it reopens the database to readers.
fn storage_rebuild() -> Result<Duration, String> {
    let t0 = Instant::now();
    let storage = mmdb_storage::Storage::new(DB).map_err(|e| format!("storage: {e}"))?;
    storage.republish_all();
    let took = t0.elapsed();
    drop(storage);
    Ok(took)
}

/// Recovery proper, without the engine around it: `recover_parallel`
/// with `workers` apply lanes (one lane is the serial path) into a fresh
/// storage. Returns its time and the recovered fingerprint.
fn recovery_direct(dir: &Path, workers: usize) -> Result<(Duration, u64), String> {
    let cfg = config(workers, false);
    let mut storage = mmdb_storage::Storage::new(DB).map_err(|e| format!("storage: {e}"))?;
    let mut backup =
        FileBackup::open(&dir.join("backup"), DB, false).map_err(|e| format!("backup: {e}"))?;
    let mut log = SegmentedLogDevice::open(&dir.join("log"), cfg.log_chunk_bytes, false)
        .map_err(|e| format!("log: {e}"))?;
    let meter = mmdb_types::CostMeter::new(cfg.params.cost);
    let t0 = Instant::now();
    mmdb_rescale::recover_parallel(
        &mut storage,
        &mut backup,
        &mut log,
        &cfg.params.disk,
        &meter,
        &mmdb_obs::Obs::disabled(),
        workers,
    )
    .map_err(|e| format!("recover_parallel with {workers} workers: {e}"))?;
    Ok((t0.elapsed(), storage.fingerprint()))
}

/// The log layer alone: a checksum-validating `LogScanner` pass that
/// finds the newest complete checkpoint and walks its replay window.
fn log_scan(dir: &Path) -> Result<Duration, String> {
    let t0 = Instant::now();
    let mut device =
        SegmentedLogDevice::open(&dir.join("log"), mmdb_log::DEFAULT_CHUNK_BYTES, false)
            .map_err(|e| format!("log: {e}"))?;
    let scanner = LogScanner::from_device(&mut device).map_err(|e| format!("log scan: {e}"))?;
    let mark = scanner
        .last_complete_checkpoint()
        .ok_or("log has no complete checkpoint")?;
    let commits = scanner
        .forward_from(scanner.replay_start(&mark))
        .filter(|(_, r)| matches!(r, LogRecord::Commit { .. }))
        .count();
    std::hint::black_box(commits);
    Ok(t0.elapsed())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx.work.join("recover");
    // Set-up: the crashed directory, built `SETUPS` times from scratch
    // so `setup_s` is a median; the last build is the one restarted.
    out.line(crate::config_line("recover", &config(1, false)));
    let mut setups = Vec::new();
    let mut fingerprint = 0;
    for _ in 0..crate::SETUPS {
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        match build(&dir, ctx.seed) {
            Ok(fp) => fingerprint = fp,
            Err(e) => {
                out.errors.push(format!("recover set-up: {e}"));
                return out;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = measure::median(&setups);

    // One untimed restart brings the directory into the page cache.
    if let Err(e) = restart(&dir, 1, false) {
        out.errors.push(e);
        return out;
    }

    let par = ctx.nproc.max(2);
    let mut serial = Samples::default();
    let mut parallel = Samples::default();
    let mut cpu_serial = Vec::new();
    let mut rss_serial = Vec::new();
    let mut traced = Vec::new();
    let mut log_mb = 0.0;
    let mut fallbacks = 0;
    let t_end = Instant::now() + ctx.seconds;
    while out.errors.is_empty() && (serial.len() < 3 || Instant::now() < t_end) {
        for workers in [1, par] {
            out.attempted += 1;
            match restart(&dir, workers, false) {
                Ok(r) => {
                    out.check(r.fingerprint == fingerprint, || {
                        format!(
                            "restart with {workers} workers: fingerprint {:#x}, expected {fingerprint:#x}",
                            r.fingerprint
                        )
                    });
                    log_mb = r.log_mb;
                    if workers == 1 {
                        serial.push(r.wall);
                        cpu_serial.push(r.cpu_s);
                        rss_serial.push(r.rss_peak_mb);
                    } else {
                        parallel.push(r.wall);
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e);
                }
            }
        }
        if ctx.traced {
            // Traced restarts (telemetry on) alternate with untraced ones
            // so both see the same cache state.
            for workers in [1, par] {
                match restart(&dir, workers, true) {
                    Ok(r) => {
                        out.check(r.fingerprint == fingerprint, || {
                            "traced restart fingerprint mismatch".to_string()
                        });
                        fallbacks += r.fallbacks;
                        traced.push((workers, r));
                    }
                    Err(e) => out.errors.push(e),
                }
            }
        }
    }

    let n = serial.len();
    let rec_s = serial.quantile(0.5).value_ns / 1e9;
    let rec_p99_s = serial.quantile(0.99).value_ns / 1e9;
    let par_s = parallel.quantile(0.5).value_ns / 1e9;
    let cpu_us = measure::median(&cpu_serial) * 1e6;
    let disk_mb = measure::dir_bytes(&dir) as f64 / 1e6;

    out.line(format!(
        "recover: {n} restarts each way; recover_s median {rec_s:.4} s (1 worker), recover_par_s median {par_s:.4} s ({par} workers); replay window {log_mb:.2} MB; directory {disk_mb:.1} MB"
    ));
    out.put("setup_s", setup_s, "s");
    out.put("ops_per_s", 1.0 / serial.mean_ns() * 1e9, "1/s");
    out.put("op_p50_us", rec_s * 1e6, "us");
    out.put("op_p99_us", rec_p99_s * 1e6, "us");
    out.put("cpu_us_per_op", cpu_us, "us");
    // The restarted process's own peak, not this one's (which built the
    // directory).
    out.put("rss_peak_mb", measure::median(&rss_serial), "MB");
    out.put("recover_s", rec_s, "s");
    out.put("recover_par_s", par_s, "s");
    out.put("disk_mb", disk_mb, "MB");

    if ctx.traced {
        trace_layers(
            &dir,
            &mut out,
            rec_s,
            par_s,
            par,
            fingerprint,
            log_mb,
            fallbacks,
            &traced,
        );
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn trace_layers(
    dir: &Path,
    out: &mut Outcome,
    rec_s: f64,
    par_s: f64,
    par: usize,
    fingerprint: u64,
    log_mb: f64,
    fallbacks: u64,
    traced: &[(usize, Restart)],
) {
    let (mut loads, mut scans, mut rebuilds, mut direct1, mut direct_n) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let passes = (|| -> Result<(), String> {
            loads.push(backup_load(dir)?.as_secs_f64());
            scans.push(log_scan(dir)?.as_secs_f64());
            rebuilds.push(storage_rebuild()?.as_secs_f64());
            for (workers, times) in [(1, &mut direct1), (par, &mut direct_n)] {
                let (t, fp) = recovery_direct(dir, workers)?;
                if fp != fingerprint {
                    return Err(format!(
                        "recover_parallel with {workers} workers: fingerprint {fp:#x}, expected {fingerprint:#x}"
                    ));
                }
                times.push(t.as_secs_f64());
            }
            Ok(())
        })();
        if let Err(e) = passes {
            out.errors.push(e);
            return;
        }
    }
    let load_s = measure::median(&loads);
    let scan_s = measure::median(&scans);
    let rebuild_s = measure::median(&rebuilds);
    let (direct1_s, direct_n_s) = (measure::median(&direct1), measure::median(&direct_n));
    out.put("recover.rescale.serial_s", direct1_s, "s");
    out.put("recover.rescale.parallel_s", direct_n_s, "s");
    out.put(
        "recover.rescale.direct_speedup",
        direct1_s / direct_n_s,
        "x",
    );
    // Everything of the restart the two timed layer passes do not cover:
    // installing records, and the storage rebuild measured beside it.
    let apply_s = rec_s - load_s - scan_s;
    out.put("recover.disk.backup_load_s", load_s, "s");
    out.put("recover.log.scan_s", scan_s, "s");
    out.put("recover.recovery.apply_s_derived", apply_s, "s");
    out.put("recover.storage.rebuild_s", rebuild_s, "s");
    out.put("recover.recovery.window_mb", log_mb, "MB");
    out.put("recover.rescale.speedup", rec_s / par_s, "x");
    out.put("recover.rescale.fallbacks", fallbacks as f64, "count");

    // The traced one-worker restarts: how much of their wall time the
    // engine's own backup-load and replay spans cover.
    let serial: Vec<&Restart> = traced
        .iter()
        .filter(|(w, _)| *w == 1)
        .map(|(_, r)| r)
        .collect();
    let wall = measure::median(
        &serial
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let spans = measure::median(
        &serial
            .iter()
            .map(|r| (r.backup_load_ns + r.replay_ns) as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    out.put("recover.recovery.span_cover_frac", spans / wall, "frac");
    out.put("recover.obs.overhead_frac", 1.0 - rec_s / wall, "frac");
    out.line(format!(
        "recover layers: recover_s {rec_s:.4} s = backup load {load_s:.4} s + log scan {scan_s:.4} s + apply (derived) {apply_s:.4} s; storage rebuild alone {rebuild_s:.4} s; traced restart {wall:.4} s, of which engine spans {spans:.4} s"
    ));

    // Reconcile: the apply share is the remainder, so the sum holds by
    // construction; what can fail is a layer pass that does not fit
    // inside the restart it is part of.
    let parts = load_s + scan_s + rebuild_s;
    out.check(parts <= rec_s * (1.0 + crate::RECONCILE_TOLERANCE), || {
        format!(
            "recover reconcile: backup load {load_s:.4} s + log scan {scan_s:.4} s + storage rebuild {rebuild_s:.4} s exceed the restart {rec_s:.4} s by more than {:.0}%",
            crate::RECONCILE_TOLERANCE * 100.0
        )
    });
    out.check(fallbacks == 0, || {
        format!("parallel recovery fell back to serial {fallbacks} times")
    });
}
