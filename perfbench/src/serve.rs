//! `serve-write`: closed-loop write transactions over loopback against an
//! in-process server.
//!
//! A one-shard, file-backed 256 MiB database (8192 segments × 8192 words,
//! 32-word records) with 2CCOPY partial checkpoints run continuously by
//! the server's background checkpointer and group-commit durability;
//! `sync_files` stays off (the production default), so log forces and
//! backup writes reach the page cache, not the device. Two client
//! connections each send one `Batch` per transaction: four distinct
//! uniform records from the connection's own half of the key space, the
//! paper's §2.5 load model. Timing starts after the checkpointer has
//! completed several cycles under load.

use crate::measure::{self, Outcome, Samples};
use crate::Ctx;
use mmdb_core::{CommitDurability, MetricsSnapshot, MmdbConfig, Obs};
use mmdb_server::{Server, ServerConfig, ServerHandle};
use mmdb_shard::ShardedMmdb;
use mmdb_types::{Algorithm, DbParams, RecordId, Word};
use mmdb_wire::Client;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DB: DbParams = DbParams {
    s_db: 64 << 20,
    s_rec: 32,
    s_seg: 8192,
};
const CONNECTIONS: usize = 2;
const UPDATES_PER_TXN: usize = 4;
/// Pre-generated transactions per connection; the loop cycles through them.
const TXNS_PER_CONN: usize = 1 << 15;
/// Checkpoint cycles completed under load before timing starts.
const WARM_CYCLES: u64 = 3;
/// Acked records read back per connection at the end.
const READ_BACK: usize = 500;
const RETRIES: u32 = 1000;

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

fn config(telemetry: bool) -> MmdbConfig {
    let mut cfg = MmdbConfig::new(Algorithm::TwoColorCopy);
    cfg.params.db = DB;
    cfg.commit_durability = CommitDurability::Group;
    cfg.telemetry = telemetry;
    cfg
}

/// Opens a fresh database, spawns the server and waits until its
/// checkpointer has written both ping-pong copies once. Also returns the
/// router's telemetry handle, which stays readable while the server owns
/// the database.
fn start(dir: &Path, telemetry: bool) -> Result<(ServerHandle, Obs), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (db, _) =
        ShardedMmdb::open_dir(config(telemetry), dir, 1).map_err(|e| format!("open: {e}"))?;
    let obs = db.obs().clone();
    let server =
        Server::spawn_sharded(db, ServerConfig::default()).map_err(|e| format!("spawn: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.checkpoints_completed() < 2 {
        if Instant::now() > deadline {
            server.shutdown_join();
            return Err("the first two checkpoints did not complete within 60 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((server, obs))
}

/// Each connection's transactions: `UPDATES_PER_TXN` distinct uniform
/// records from its own half of the key space.
fn txns(seed: u64, conn: usize) -> Vec<[u32; UPDATES_PER_TXN]> {
    let half = DB.n_records() / CONNECTIONS as u64;
    let base = half * conn as u64;
    let mut rng = crate::Rng::new(seed ^ (conn as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    (0..TXNS_PER_CONN)
        .map(|_| {
            let mut t = [0u32; UPDATES_PER_TXN];
            let mut k = 0;
            while k < UPDATES_PER_TXN {
                let r = (base + rng.below(half)) as u32;
                if !t[..k].contains(&r) {
                    t[k] = r;
                    k += 1;
                }
            }
            t
        })
        .collect()
}

#[derive(Default)]
struct Conn {
    latency: Samples,
    /// `(trace id, client-observed latency)` of traced commits.
    traced: Vec<(u64, Duration)>,
    /// Transactions sent, warm-up included.
    sent: u64,
    committed: u64,
    retries: u64,
    failed: u64,
    read_back: u64,
    mismatches: Vec<String>,
}

fn connection(
    addr: std::net::SocketAddr,
    conn: usize,
    txns: &[[u32; UPDATES_PER_TXN]],
    phase: &AtomicU8,
    tracing: bool,
) -> Result<Conn, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    client.set_tracing(tracing);
    let words = DB.s_rec as usize;
    let mut out = Conn::default();
    let mut acked: HashMap<u32, Word> = HashMap::new();
    let mut seq: u32 = 0;
    loop {
        let state = phase.load(Ordering::Acquire);
        if state == STOP {
            break;
        }
        let recs = &txns[seq as usize % txns.len()];
        seq += 1;
        let stamp = ((conn as Word) << 30) | (seq & 0x3FFF_FFFF);
        let updates: Vec<(RecordId, Vec<Word>)> = recs
            .iter()
            .map(|&r| (RecordId(u64::from(r)), vec![stamp; words]))
            .collect();
        out.sent += 1;
        let t0 = Instant::now();
        let r = client.retry_transient(RETRIES, |c| c.batch(&updates));
        let dt = t0.elapsed();
        match r {
            Ok((_, retries)) => {
                for &r in recs {
                    acked.insert(r, stamp);
                }
                if state == MEASURE {
                    out.latency.push(dt);
                    out.committed += 1;
                    out.retries += u64::from(retries);
                    if tracing {
                        out.traced.push((client.last_trace_id(), dt));
                    }
                }
            }
            Err(_) => out.failed += 1,
        }
    }
    // Read back a deterministic sample of acked records: each must hold
    // the value of its last acknowledged commit.
    client.set_tracing(false);
    let mut keys: Vec<(&u32, &Word)> = acked.iter().collect();
    keys.sort_unstable();
    let step = (keys.len() / READ_BACK).max(1);
    for (&rid, &stamp) in keys.iter().step_by(step) {
        out.read_back += 1;
        match client.get(RecordId(u64::from(rid))) {
            Ok(v) if v.len() == words && v.iter().all(|&w| w == stamp) => {}
            Ok(v) => out.mismatches.push(format!(
                "record {rid}: read {:?}.., last acked {stamp:#x}",
                v.first()
            )),
            Err(e) => out
                .mismatches
                .push(format!("record {rid}: read failed: {e}")),
        }
    }
    Ok(out)
}

fn stats(addr: std::net::SocketAddr) -> Result<MetricsSnapshot, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    let json = c.stats_json().map_err(|e| format!("stats: {e}"))?;
    MetricsSnapshot::from_json(&json)
}

/// One measured pass against a freshly started server.
struct Pass {
    conns: Vec<Conn>,
    window: Duration,
    cpu_s: f64,
    threads_before: std::collections::BTreeMap<u64, (String, u64)>,
    threads_after: std::collections::BTreeMap<u64, (String, u64)>,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    ckpt_cycles: u64,
    disk_mb: f64,
    /// Duration of each server root `net.request` span still in the
    /// flight recorder, by trace id (traced passes only).
    root_spans: HashMap<u64, u64>,
}

impl Pass {
    fn committed(&self) -> u64 {
        self.conns.iter().map(|c| c.committed).sum()
    }

    fn latency(&self) -> Samples {
        let mut s = Samples::default();
        for c in &self.conns {
            s.merge(&c.latency);
        }
        s
    }

    fn delta(&self, counter: &str) -> f64 {
        let c = |s: &MetricsSnapshot| s.counter(counter).unwrap_or(0);
        c(&self.after).saturating_sub(c(&self.before)) as f64
    }

    fn thread_cpu_s(&self, prefix: &str) -> f64 {
        measure::cpu_by_prefix(&self.threads_before, &self.threads_after, prefix)
    }
}

fn pass(
    (server, obs): (ServerHandle, Obs),
    dir: &Path,
    txns: &[Vec<[u32; UPDATES_PER_TXN]>],
    tracing: bool,
    secs: Duration,
) -> Result<Pass, String> {
    let addr = server.local_addr();
    let phase = Arc::new(AtomicU8::new(WARMUP));
    // Every exit from this scope raises STOP first: the scope joins the
    // load threads, which only return once they see it.
    let result = std::thread::scope(|s| -> Result<Pass, String> {
        let spawned: Vec<_> = txns
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let phase = Arc::clone(&phase);
                std::thread::Builder::new()
                    .name(format!("bench-conn-{i}"))
                    .spawn_scoped(s, move || connection(addr, i, t, &phase, tracing))
            })
            .collect();
        let measured = (|| {
            if let Some(Err(e)) = spawned.iter().find(|j| j.is_err()) {
                return Err(format!("spawn load thread: {e}"));
            }
            let warm_from = server.checkpoints_completed();
            let deadline = Instant::now() + Duration::from_secs(60);
            while server.checkpoints_completed() < warm_from + WARM_CYCLES {
                if Instant::now() > deadline {
                    return Err(
                        "checkpointer did not complete its warm-up cycles within 60 s".into(),
                    );
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let before = stats(addr)?;
            let ckpt0 = server.checkpoints_completed();
            let threads_before = measure::thread_cpu();
            let t0 = Instant::now();
            phase.store(MEASURE, Ordering::Release);
            std::thread::sleep(secs);
            // Capture the flight recorder while the measured requests are
            // still its most recent events.
            let (spans, _, _) = obs.flight_spans(usize::MAX);
            let root_spans = spans
                .iter()
                .filter(|s| s.name == "net.request")
                .map(|s| (s.trace_id, s.dur_ns))
                .collect();
            phase.store(WARMUP, Ordering::Release);
            let window = t0.elapsed();
            let threads_after = measure::thread_cpu();
            let ckpt_cycles = server.checkpoints_completed() - ckpt0;
            let after = stats(addr)?;
            Ok(Pass {
                conns: Vec::new(),
                window,
                cpu_s: measure::cpu_total(&threads_before, &threads_after),
                threads_before,
                threads_after,
                before,
                after,
                ckpt_cycles,
                disk_mb: 0.0,
                root_spans,
            })
        })();
        phase.store(STOP, Ordering::Release);
        let conns = spawned
            .into_iter()
            .flatten()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect::<Result<Vec<Conn>, String>>();
        let mut p = measured?;
        p.conns = conns?;
        Ok(p)
    });
    drop(server.shutdown_join());
    let mut p = result?;
    p.disk_mb = measure::dir_bytes(dir) as f64 / 1e6;
    Ok(p)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx.work.join("serve");
    let txns: Vec<_> = (0..CONNECTIONS).map(|c| txns(ctx.seed, c)).collect();
    let secs = if ctx.traced {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };

    out.line(crate::config_line("serve-write", &config(false)));
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..if ctx.traced { 1 } else { crate::SETUPS } {
        if let Some((s, _)) = server.take() {
            drop(ServerHandle::shutdown_join(s));
        }
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        match start(&dir, false) {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.errors.push(format!("serve-write set-up: {e}"));
                return out;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Some(server) = server else { return out };
    let plain = match pass(server, &dir, &txns, false, secs) {
        Ok(p) => p,
        Err(e) => {
            out.errors.push(format!("serve-write: {e}"));
            return out;
        }
    };
    out.put("setup_s", measure::median(&setups), "s");
    summarize(&mut out, &plain, "");
    if ctx.traced {
        trace_layers(&dir, &txns, secs, &plain, &mut out);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn summarize(out: &mut Outcome, p: &Pass, label: &str) {
    let committed = p.committed();
    let secs = p.window.as_secs_f64();
    let mut lat = p.latency();
    let p50 = lat.quantile(0.5);
    let p99 = lat.quantile(0.99);
    let failed: u64 = p.conns.iter().map(|c| c.failed).sum();
    let retries: u64 = p.conns.iter().map(|c| c.retries).sum();
    let read_back: u64 = p.conns.iter().map(|c| c.read_back).sum();
    out.attempted += p.conns.iter().map(|c| c.sent).sum::<u64>() + read_back;
    out.failed += failed;
    for c in &p.conns {
        for m in &c.mismatches {
            out.errors
                .push(format!("serve-write{label} read-back: {m}"));
        }
    }
    out.failed += p
        .conns
        .iter()
        .map(|c| c.mismatches.len() as u64)
        .sum::<u64>();
    let user_bytes = p.delta("txn.committed") * (UPDATES_PER_TXN as u64 * DB.s_rec * 4) as f64;
    let written = p.delta("log.bytes") + p.delta("ckpt.io_words") * 4.0;
    let tps = committed as f64 / secs;
    let cpu_us = p.cpu_s * 1e6 / committed.max(1) as f64;
    out.line(format!(
        "serve-write{label}: {committed} commits in {secs:.3} s ({retries} two-color retries, {failed} failed, {read_back} records read back); commit_tps {tps:.1}, commit_p50_us {:.1}, commit_p99_us {:.1} ({} samples); cpu_us_per_txn {cpu_us:.1}; write_amp {:.3}; {} checkpoint cycles; disk_mb {:.1}; flush policy: sync_files off",
        p50.value_ns / 1e3,
        p99.value_ns / 1e3,
        p50.samples,
        written / user_bytes.max(1.0),
        p.ckpt_cycles,
        p.disk_mb,
    ));
    if label.is_empty() {
        out.put("ops_per_s", tps, "1/s");
        out.put("op_p50_us", p50.value_ns / 1e3, "us");
        out.put("op_p99_us", p99.value_ns / 1e3, "us");
        out.put("cpu_us_per_op", cpu_us, "us");
        out.put("commit_tps", tps, "1/s");
        out.put("commit_p50_us", p50.value_ns / 1e3, "us");
        out.put("commit_p99_us", p99.value_ns / 1e3, "us");
        out.put("cpu_us_per_txn", cpu_us, "us");
        out.put("write_amp", written / user_bytes.max(1.0), "ratio");
        out.put("disk_mb", p.disk_mb, "MB");
    }
}

fn trace_layers(
    dir: &Path,
    txns: &[Vec<[u32; UPDATES_PER_TXN]>],
    secs: Duration,
    plain: &Pass,
    out: &mut Outcome,
) {
    let traced = match start(dir, true).and_then(|s| pass(s, dir, txns, true, secs)) {
        Ok(p) => p,
        Err(e) => {
            out.errors.push(format!("serve-write traced: {e}"));
            return;
        }
    };
    summarize(out, &traced, " (traced)");
    let commits = traced.committed() as f64;
    // Counter ratios use the server's own commit count over the same two
    // Stats calls as the counters.
    let server_commits = traced.delta("txn.committed");
    let a = &traced.after;
    let b = &traced.before;
    // Per-request means of the attribution table's `batch` row over the
    // window (difference of two Stats calls).
    let row = |s: &MetricsSnapshot| s.attribution.iter().find(|e| e.op == "batch").cloned();
    let (ra, rb) = (row(a).unwrap_or_default(), row(b).unwrap_or_default());
    let requests = ra.requests.saturating_sub(rb.requests) as f64;
    let request_us = ra.total_ns.saturating_sub(rb.total_ns) as f64 / requests.max(1.0) / 1e3;
    let phase_us = |name: &str| -> f64 {
        let get = |r: &mmdb_obs::AttributionEntry| {
            r.phases
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0, |(_, _, ns)| *ns)
        };
        get(&ra).saturating_sub(get(&rb)) as f64 / requests.max(1.0) / 1e3
    };
    let system_phase_mean_us = |name: &str| -> f64 {
        let get = |s: &MetricsSnapshot| {
            s.attribution
                .iter()
                .filter(|e| e.op == mmdb_obs::SYSTEM_OP)
                .flat_map(|e| e.phases.iter())
                .find(|(n, _, _)| n == name)
                .map_or((0, 0), |(_, c, ns)| (*c, *ns))
        };
        let ((ca, na), (cb, nb)) = (get(a), get(b));
        let n = ca.saturating_sub(cb);
        if n == 0 {
            0.0
        } else {
            na.saturating_sub(nb) as f64 / n as f64 / 1e3
        }
    };
    // Engine histograms sit in the Stats document once per shard, under
    // `shard.<i>.`; the router's own under their plain name.
    let hist_mean = |name: &str| -> f64 {
        let h = |s: &MetricsSnapshot| {
            s.hists
                .iter()
                .filter(|(n, _)| {
                    n == name
                        || n.strip_prefix("shard.")
                            .and_then(|r| r.split_once('.'))
                            .is_some_and(|(_, rest)| rest == name)
                })
                .fold((0, 0), |(c, t), (_, h)| (c + h.count, t + h.sum))
        };
        let ((ca, sa), (cb, sb)) = (h(a), h(b));
        let n = ca.saturating_sub(cb);
        if n == 0 {
            0.0
        } else {
            sa.saturating_sub(sb) as f64 / n as f64
        }
    };
    let client_mean_us = traced.latency().mean_ns() / 1e3;

    // Join client calls to the server's root `net.request` spans by
    // trace id: per call, the client-observed time minus the server's
    // own request time is what the wire and the client stack cost.
    let roots = &traced.root_spans;
    let mut wire = Samples::default();
    for c in &traced.conns {
        for (id, dt) in &c.traced {
            if let Some(&server_ns) = roots.get(id) {
                wire.push_ns((dt.as_nanos() as u64).saturating_sub(server_ns));
            }
        }
    }
    let joined = wire.len();
    let wire_joined_us = wire.mean_ns() / 1e3;
    let wire_us = client_mean_us - request_us;

    let gate = phase_us("engine.lock_wait");
    let exec = phase_us("txn.exec") + phase_us("txn.exec_shared");
    let group = phase_us("group.wait");
    let named = gate + exec + group;
    let process_cpu = traced.cpu_s.max(1e-9);
    let worker_cpu = traced.thread_cpu_s("mmdb-worker");
    let accept_cpu = traced.thread_cpu_s("mmdb-accept");
    let flush_cpu = traced.thread_cpu_s("mmdb-flush");
    let ckpt_cpu = traced.thread_cpu_s("mmdb-checkpoint");
    let tps = |p: &Pass| p.committed() as f64 / p.window.as_secs_f64();

    out.put("serve.wire.overhead_us", wire_us, "us");
    out.put("serve.wire.overhead_joined_us", wire_joined_us, "us");
    out.put("serve.server.request_us", request_us, "us");
    out.put(
        "serve.server.queue_us",
        system_phase_mean_us("net.queue"),
        "us",
    );
    out.put(
        "serve.server.worker_cpu_us_per_txn",
        worker_cpu * 1e6 / commits.max(1.0),
        "us",
    );
    out.put("serve.server.accept_cpu_ms", accept_cpu * 1e3, "ms");
    out.put("serve.shard.gate_wait_us", gate, "us");
    out.put("serve.core.exec_us", exec, "us");
    out.put(
        "serve.txn.runs_per_commit",
        hist_mean("txn.runs_per_commit"),
        "ratio",
    );
    out.put("serve.log.group_wait_us", group, "us");
    out.put(
        "serve.log.commits_per_force",
        traced.delta("log.group_commit.commits") / traced.delta("log.group_commit.forces").max(1.0),
        "ratio",
    );
    out.put("serve.log.flush_cpu_frac", flush_cpu / process_cpu, "frac");
    out.put(
        "serve.log.bytes_per_txn",
        traced.delta("log.bytes") / server_commits.max(1.0),
        "B",
    );
    out.put(
        "serve.checkpoint.cycle_ms",
        traced.window.as_secs_f64() * 1e3 / traced.ckpt_cycles.max(1) as f64,
        "ms",
    );
    out.put(
        "serve.checkpoint.gate_hold_us",
        hist_mean("ckpt.lock_hold_ns") / 1e3,
        "us",
    );
    out.put("serve.checkpoint.cpu_frac", ckpt_cpu / process_cpu, "frac");
    out.put(
        "serve.disk.backup_bytes_per_txn",
        traced.delta("ckpt.io_words") * 4.0 / server_commits.max(1.0),
        "B",
    );
    out.put(
        "serve.obs.overhead_frac",
        1.0 - tps(&traced) / tps(plain),
        "frac",
    );

    // Reconcile: the wire cost (joined per call) plus the named server
    // phases must account for the client-observed mean commit time.
    let sum = wire_joined_us + named;
    let gap = (client_mean_us - sum).abs() / client_mean_us;
    out.line(format!(
        "serve-write layers: client mean {client_mean_us:.1} us = wire {wire_joined_us:.1} us ({joined} calls joined by trace id) + gate wait {gate:.1} + exec {exec:.1} + group wait {group:.1} us (server request mean {request_us:.1} us); gap {:.1}%",
        gap * 100.0
    ));
    out.put("serve.reconcile_gap_frac", gap, "frac");
    out.check(joined > 0, || {
        "serve-write: no client call joined a server span".into()
    });
    out.check(gap <= crate::RECONCILE_TOLERANCE, || {
        format!(
            "serve-write reconcile: layers sum to {sum:.1} us against a client mean of {client_mean_us:.1} us ({:.1}% > {:.0}%)",
            gap * 100.0,
            crate::RECONCILE_TOLERANCE * 100.0
        )
    });
}
