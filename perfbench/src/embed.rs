//! `embed-read`: the embedded read path, no wire and no checkpointer.
//!
//! An in-process one-shard `ShardedMmdb` (file-backed, group commit) over
//! a 16 MiB database. Each load thread runs a closed loop over a Zipf
//! (θ = 0.99) key sequence generated before timing starts: every 16th
//! operation commits one record, the rest are `read_committed` calls.
//! Every committed value has all words equal, so every read is checked
//! for tearing.

use crate::measure::{self, Outcome, Samples};
use crate::Ctx;
use mmdb_core::{CommitDurability, MmdbConfig};
use mmdb_shard::ShardedMmdb;
use mmdb_types::{Algorithm, DbParams, RecordId, Word};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// 16 MiB: 512 segments of 8192 words, 32-word records.
const DB: DbParams = DbParams {
    s_db: 4 << 20,
    s_rec: 32,
    s_seg: 8192,
};
const WRITE_EVERY: u64 = 16;
const THETA: f64 = 0.99;
/// Keys pre-generated per thread; the loop cycles through them.
const KEYS_PER_THREAD: usize = 1 << 20;

fn config(telemetry: bool) -> MmdbConfig {
    let mut cfg = MmdbConfig::new(Algorithm::TwoColorCopy);
    cfg.params.db = DB;
    cfg.commit_durability = CommitDurability::Group;
    cfg.telemetry = telemetry;
    cfg
}

/// Opens a fresh database in `dir`, writes every record once (one
/// transaction per segment) and takes a checkpoint, so the whole database
/// is resident and the directory recoverable before load starts.
fn open(dir: &Path, telemetry: bool) -> Result<ShardedMmdb, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (db, _) =
        ShardedMmdb::open_dir(config(telemetry), dir, 1).map_err(|e| format!("open: {e}"))?;
    let words = db.record_words();
    let per_seg = DB.records_per_segment();
    for seg in 0..DB.n_segments() {
        let updates: Vec<(RecordId, Vec<Word>)> = (seg * per_seg..(seg + 1) * per_seg)
            .map(|r| (RecordId(r), vec![r as Word; words]))
            .collect();
        db.run_txn(&updates)
            .map_err(|e| format!("populate segment {seg}: {e}"))?;
    }
    db.checkpoint_all()
        .map_err(|e| format!("checkpoint: {e}"))?;
    Ok(db)
}

fn keys(seed: u64, thread: usize) -> Vec<u32> {
    use mmdb_workload::Workload;
    let mut zipf = mmdb_workload::ZipfWorkload::new(
        DB.n_records(),
        1,
        THETA,
        seed.wrapping_add(thread as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    (0..KEYS_PER_THREAD)
        .map(|_| zipf.next_txn().updates[0].0.raw() as u32)
        .collect()
}

#[derive(Default)]
struct Pass {
    reads: Samples,
    commits: Samples,
    torn: u64,
    failed: u64,
    elapsed: Duration,
    cpu_s: f64,
}

impl Pass {
    fn ops(&self) -> usize {
        self.reads.len() + self.commits.len()
    }
}

fn load(db: &Arc<ShardedMmdb>, keys: &[Vec<u32>], secs: Duration) -> Pass {
    let words = db.record_words();
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(keys.len() + 1));
    let mut pass = Pass::default();
    std::thread::scope(|s| {
        let joins: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(t, ring)| {
                let (db, stop, start) = (Arc::clone(db), Arc::clone(&stop), Arc::clone(&start));
                s.spawn(move || {
                    let mut p = Pass { ..Pass::default() };
                    start.wait();
                    let mut op = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let rid = RecordId(u64::from(ring[op as usize % ring.len()]));
                        if op % WRITE_EVERY == WRITE_EVERY - 1 {
                            let stamp = ((t as Word) << 28) | (op / WRITE_EVERY) as Word;
                            let value = vec![stamp; words];
                            let t0 = Instant::now();
                            let r = db.run_txn(&[(rid, value)]);
                            p.commits.push(t0.elapsed());
                            if r.is_err() {
                                p.failed += 1;
                            }
                        } else {
                            let t0 = Instant::now();
                            let r = db.read_committed(rid);
                            p.reads.push(t0.elapsed());
                            match r {
                                Ok(v) => {
                                    if v.iter().any(|&w| w != v[0]) {
                                        p.torn += 1;
                                    }
                                }
                                Err(_) => p.failed += 1,
                            }
                        }
                        op += 1;
                    }
                    p
                })
            })
            .collect();
        start.wait();
        let threads0 = measure::thread_cpu();
        let t0 = Instant::now();
        std::thread::sleep(secs);
        // Read the load threads' CPU while they are still alive.
        pass.cpu_s = measure::cpu_total(&threads0, &measure::thread_cpu());
        stop.store(true, Ordering::Relaxed);
        pass.elapsed = t0.elapsed();
        for j in joins {
            match j.join() {
                Ok(p) => {
                    pass.reads.merge(&p.reads);
                    pass.commits.merge(&p.commits);
                    pass.torn += p.torn;
                    pass.failed += p.failed;
                }
                Err(_) => pass.failed += 1,
            }
        }
    });
    pass
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx.work.join("embed");
    let threads = ctx.nproc.clamp(1, 2);
    let rings: Vec<Vec<u32>> = (0..threads).map(|t| keys(ctx.seed, t)).collect();

    // Set-up runs `SETUPS` times so `setup_s` is a median; the first
    // one also gives the database's resident footprint (later ones may
    // reuse memory the allocator kept from the one before).
    out.line(crate::config_line("embed-read", &config(false)));
    let mut setups = Vec::new();
    let mut db = None;
    let mut rss_growth_mb = 0.0;
    for i in 0..crate::SETUPS {
        drop(db.take());
        let rss0 = measure::rss_mb();
        let t0 = Instant::now();
        match open(&dir, false) {
            Ok(d) => db = Some(d),
            Err(e) => {
                out.errors.push(format!("embed-read set-up: {e}"));
                return out;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            rss_growth_mb = measure::rss_mb() - rss0;
        }
    }
    let Some(db) = db else {
        return out;
    };
    let db = Arc::new(db);
    let secs = if ctx.traced {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };
    let mut pass = load(&db, &rings, secs);
    drop(db);
    out.put("setup_s", measure::median(&setups), "s");
    summarize(&mut pass, &mut out, "");

    if ctx.traced {
        trace_layers(ctx, &dir, &rings, &pass, rss_growth_mb, &mut out);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Records a pass's operation counts, checks and metrics.
fn summarize(pass: &mut Pass, out: &mut Outcome, label: &str) {
    let secs = pass.elapsed.as_secs_f64();
    let ops = pass.ops();
    out.attempted += ops as u64;
    out.failed += pass.failed;
    let torn = pass.torn;
    out.check(torn == 0, || {
        format!("embed-read{label}: {torn} torn reads")
    });
    let read_ops_s = pass.reads.len() as f64 / secs;
    let commit_tps = pass.commits.len() as f64 / secs;
    let r50 = pass.reads.quantile(0.5);
    let r99 = pass.reads.quantile(0.99);
    let c50 = pass.commits.quantile(0.5);
    let c99 = pass.commits.quantile(0.99);
    let mut all = Samples::default();
    all.merge(&pass.reads);
    all.merge(&pass.commits);
    let o50 = all.quantile(0.5);
    let o99 = all.quantile(0.99);
    out.line(format!(
        "embed-read{label}: {ops} ops in {secs:.3} s; read_ops_s {read_ops_s:.0}, read_p50_ns {:.1}, read_p99_ns {:.1} ({} reads); commit_tps {commit_tps:.0}, commit_p50_us {:.2}, commit_p99_us {:.2} ({} commits); cpu_us_per_txn {:.2}",
        r50.value_ns,
        r99.value_ns,
        r50.samples,
        c50.value_ns / 1e3,
        c99.value_ns / 1e3,
        c50.samples,
        pass.cpu_s * 1e6 / pass.commits.len().max(1) as f64,
    ));
    if label.is_empty() {
        out.put("ops_per_s", ops as f64 / secs, "1/s");
        out.put("op_p50_us", o50.value_ns / 1e3, "us");
        out.put("op_p99_us", o99.value_ns / 1e3, "us");
        out.put("cpu_us_per_op", pass.cpu_s * 1e6 / ops.max(1) as f64, "us");
        out.put("read_ops_s", read_ops_s, "1/s");
        out.put("read_p50_ns", r50.value_ns, "ns");
        out.put("read_p99_ns", r99.value_ns, "ns");
        out.put("commit_tps", commit_tps, "1/s");
        out.put("commit_p50_us", c50.value_ns / 1e3, "us");
        out.put("commit_p99_us", c99.value_ns / 1e3, "us");
    }
}

fn trace_layers(
    ctx: &Ctx,
    dir: &Path,
    rings: &[Vec<u32>],
    untraced: &Pass,
    rss_growth_mb: f64,
    out: &mut Outcome,
) {
    let db = match open(dir, true) {
        Ok(d) => Arc::new(d),
        Err(e) => {
            out.errors.push(format!("embed-read traced set-up: {e}"));
            return;
        }
    };
    let mut pass = load(&db, rings, ctx.seconds / 2);
    let snap = db.metrics_snapshot();
    let attribution = db.obs().attribution();
    drop(db);
    summarize(&mut pass, out, " (traced)");
    let c = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    let lockfree = c("router.reads_lockfree");
    let reads = pass.reads.len() as f64;
    let phase_mean_us = |name: &str| {
        let (n, ns) = attribution
            .iter()
            .flat_map(|a| a.phases.iter())
            .filter(|(p, _, _)| p == name)
            .fold((0u64, 0u64), |(n, ns), (_, c, t)| (n + c, ns + t));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    let untraced_ops = untraced.ops() as f64 / untraced.elapsed.as_secs_f64();
    let traced_ops = pass.ops() as f64 / pass.elapsed.as_secs_f64();
    out.put(
        "embed.shard.read_lockfree_frac",
        lockfree / reads.max(1.0),
        "frac",
    );
    out.put(
        "embed.shard.commit_shared_frac",
        c("router.txns_single_shared") / c("router.txns_single").max(1.0),
        "frac",
    );
    out.put(
        "embed.core.exec_shared_us",
        phase_mean_us("txn.exec_shared"),
        "us",
    );
    out.put(
        "embed.storage.rss_per_db_byte",
        rss_growth_mb * 1024.0 * 1024.0 / (DB.s_db * 4) as f64,
        "ratio",
    );
    out.put(
        "embed.obs.overhead_frac",
        1.0 - traced_ops / untraced_ops,
        "frac",
    );
}
