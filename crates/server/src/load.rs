//! Network load driver (closed loop, or open loop at a target rate).
//!
//! Spawns one thread per connection; each thread replays a
//! [`mmdb_workload`] update stream (Uniform or Zipf, deterministic per
//! seed) as `Batch` transactions over its own [`Client`]. By default it
//! is a closed loop — each commit acks before the next send, so offered
//! load tracks service capacity. With
//! [`LoadConfig::target_rate_per_conn`] set, each connection instead
//! follows a fixed schedule (transaction `k` is due at `start + k/rate`)
//! and latency is measured **from the due time**: a stall charges the
//! server for every request it delayed, where a closed loop would
//! silently stop offering load during the stall and under-report tail
//! latency (coordinated omission).
//!
//! Transient server errors (two-color aborts surfacing through a
//! quiesce, COU quiesce refusals) are retried and *counted as retries*,
//! not errors: under continuous checkpointing they are the ordinary
//! cost of transaction-consistent checkpoints (paper §3.2), not
//! failures. Anything else increments `errors` — a correct run reports
//! zero.
//!
//! [`bench_net_json`] renders a [`LoadReport`] with a fixed key set
//! ("deterministic schema": keys and shapes never vary run to run, only
//! wall-clock values do) and [`validate_bench_net_json`] checks that
//! shape, so CI can validate fresh output without byte-diffing.

use mmdb_obs::hist::{HistSummary, Histogram};
use mmdb_obs::json::{parse, Value};
use mmdb_types::{RecordId, Word};
use mmdb_wire::{Client, ErrorCode, ServerInfo, WireError, WireResult};
use mmdb_workload::{UniformWorkload, Workload, ZipfWorkload};
use std::time::{Duration, Instant};

/// Which record-selection distribution each connection replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Uniform over the whole record space.
    Uniform,
    /// Zipf-like with the given skew parameter `theta` in `[0, 1)`.
    Zipf(f64),
}

impl WorkloadKind {
    /// Stable label used in the bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Zipf(_) => "zipf",
        }
    }

    /// The skew parameter (0.0 for uniform, keeping the JSON schema
    /// fixed across kinds).
    pub fn theta(self) -> f64 {
        match self {
            WorkloadKind::Uniform => 0.0,
            WorkloadKind::Zipf(theta) => theta,
        }
    }
}

/// Parameters for [`run_load`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `"127.0.0.1:7878"`.
    pub addr: String,
    /// Concurrent connections (one closed-loop thread each).
    pub connections: usize,
    /// Transactions each connection commits.
    pub txns_per_conn: u64,
    /// Records updated per transaction.
    pub updates_per_txn: u32,
    /// Base RNG seed; connection `i` derives an independent stream.
    pub seed: u64,
    /// Record-selection distribution.
    pub workload: WorkloadKind,
    /// Max transparent retries per transaction on transient errors.
    pub max_retries: u32,
    /// Per-response timeout for every connection.
    pub timeout: Duration,
    /// Shard count of the *server* topology (1 = unsharded). When > 1,
    /// each connection remaps its generated records onto a home shard
    /// (`connection_index % shards`) so the steady-state workload is
    /// shard-affine — the scale-out regime the topology is for. The
    /// distribution's shape is preserved within the shard.
    pub shards: usize,
    /// Fraction of transactions (per connection, deterministic) that
    /// deliberately span shards instead of staying on the home shard,
    /// exercising the two-phase cross-shard commit path. Ignored when
    /// `shards == 1`.
    pub cross_fraction: f64,
    /// Target send rate per connection, transactions per second. `0.0`
    /// keeps the closed loop. When positive, transaction `k` is due at
    /// `start + k/rate` and its latency is measured from that due time
    /// (the coordinated-omission-free measurement); a connection that
    /// falls behind sends immediately and the backlog shows up as tail
    /// latency instead of vanishing.
    pub target_rate_per_conn: f64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: String::new(),
            connections: 8,
            txns_per_conn: 200,
            updates_per_txn: 4,
            seed: 42,
            workload: WorkloadKind::Uniform,
            max_retries: 1000,
            timeout: Duration::from_secs(30),
            shards: 1,
            cross_fraction: 0.0,
            target_rate_per_conn: 0.0,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections that ran.
    pub connections: usize,
    /// Transactions committed across all connections.
    pub committed: u64,
    /// Non-transient failures (0 in a correct run).
    pub errors: u64,
    /// Transparent transient retries absorbed by the driver.
    pub retries: u64,
    /// Wall-clock time from first spawn to last join.
    pub elapsed: Duration,
    /// Committed transactions per wall-clock second.
    pub throughput_tps: f64,
    /// Commit latency digest in microseconds, merged over connections.
    pub latency_us: HistSummary,
}

struct ConnOutcome {
    committed: u64,
    errors: u64,
    retries: u64,
    latency_us: Histogram,
}

/// Runs the closed-loop driver to completion. Fails only on setup
/// errors (connect/info); per-transaction failures are counted in the
/// report instead.
pub fn run_load(cfg: &LoadConfig) -> WireResult<LoadReport> {
    let info = {
        let mut probe = Client::connect(&cfg.addr)?;
        probe.set_timeout(Some(cfg.timeout))?;
        probe.info()?
    };
    let s_rec = info.record_words as usize;
    let n_records = info.n_records;

    let started = Instant::now();
    let mut joins = Vec::with_capacity(cfg.connections);
    for i in 0..cfg.connections {
        let cfg = cfg.clone();
        joins.push(std::thread::spawn(move || -> WireResult<ConnOutcome> {
            run_connection(&cfg, i, n_records, s_rec)
        }));
    }

    let mut report = LoadReport {
        connections: cfg.connections,
        committed: 0,
        errors: 0,
        retries: 0,
        elapsed: Duration::ZERO,
        throughput_tps: 0.0,
        latency_us: HistSummary::default(),
    };
    let mut merged = Histogram::new();
    let mut first_err: Option<WireError> = None;
    for j in joins {
        match j.join() {
            Ok(Ok(out)) => {
                report.committed += out.committed;
                report.errors += out.errors;
                report.retries += out.retries;
                merged.merge(&out.latency_us);
            }
            Ok(Err(e)) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
            Err(_) => {
                if first_err.is_none() {
                    first_err = Some(WireError::Unexpected("load thread panicked".into()));
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    report.elapsed = started.elapsed();
    report.latency_us = merged.summary();
    let secs = report.elapsed.as_secs_f64();
    report.throughput_tps = if secs > 0.0 {
        report.committed as f64 / secs
    } else {
        0.0
    };
    Ok(report)
}

fn run_connection(
    cfg: &LoadConfig,
    index: usize,
    n_records: u64,
    s_rec: usize,
) -> WireResult<ConnOutcome> {
    let mut client = Client::connect(&cfg.addr)?;
    client.set_timeout(Some(cfg.timeout))?;

    // Independent deterministic stream per connection.
    let seed = cfg
        .seed
        .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut workload: Box<dyn Workload> = match cfg.workload {
        WorkloadKind::Uniform => {
            Box::new(UniformWorkload::new(n_records, cfg.updates_per_txn, seed))
        }
        WorkloadKind::Zipf(theta) => Box::new(ZipfWorkload::new(
            n_records,
            cfg.updates_per_txn,
            theta,
            seed,
        )),
    };

    let mut out = ConnOutcome {
        committed: 0,
        errors: 0,
        retries: 0,
        latency_us: Histogram::new(),
    };
    // Deterministic per-connection stream deciding which transactions
    // deliberately cross shards (xorshift64, independent of the record
    // distribution so remapping never perturbs it).
    let mut cross_rng = seed ^ 0x5DEE_CE66_D000_000B;
    if cross_rng == 0 {
        cross_rng = 0x9E37_79B9_7F4A_7C15;
    }
    let period = (cfg.target_rate_per_conn > 0.0)
        .then(|| Duration::from_secs_f64(1.0 / cfg.target_rate_per_conn));
    let schedule_start = Instant::now();
    for k in 0..cfg.txns_per_conn {
        let mut updates: Vec<(RecordId, Vec<Word>)> = workload.next_txn().materialize(s_rec);
        if cfg.shards > 1 {
            cross_rng ^= cross_rng << 13;
            cross_rng ^= cross_rng >> 7;
            cross_rng ^= cross_rng << 17;
            let cross = cfg.cross_fraction > 0.0
                && ((cross_rng >> 11) as f64) / ((1u64 << 53) as f64) < cfg.cross_fraction;
            remap_to_shards(&mut updates, index, cfg.shards, n_records, cross);
        }
        // Open loop: latency is anchored at the transaction's *due* time
        // under the schedule, not the actual send — the fix for
        // coordinated omission. A connection running behind does not
        // sleep; the accumulated delay is charged to every late request.
        let t0 = match period {
            Some(p) => {
                let due = schedule_start + p.mul_f64(k as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due
            }
            None => Instant::now(),
        };
        match client.retry_transient(cfg.max_retries, |c| c.batch(&updates)) {
            Ok((_committed, retries)) => {
                out.committed += 1;
                out.retries += u64::from(retries);
                let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
                out.latency_us.record(us);
            }
            Err(WireError::Remote {
                code: ErrorCode::ShuttingDown,
                ..
            }) => {
                // the server is draining: stop offering load (and do not
                // keep the connection pinned open, which would stall the
                // server's graceful shutdown); not a protocol failure
                return Ok(out);
            }
            Err(WireError::Io(_) | WireError::Protocol(_)) => {
                // the connection is gone or desynchronized: surface it
                out.errors += 1;
                return Ok(out);
            }
            Err(_) => out.errors += 1,
        }
    }
    Ok(out)
}

/// Rewrites each generated record onto the sharded record space: record
/// `r` becomes `(r / shards) * shards + target`, which lands on shard
/// `target` (`rid % shards` routing) while preserving the workload
/// distribution's shape within the shard. An affine transaction targets
/// only the connection's home shard; a cross transaction spreads
/// successive updates over successive shards.
fn remap_to_shards(
    updates: &mut [(RecordId, Vec<Word>)],
    conn_index: usize,
    shards: usize,
    n_records: u64,
    cross: bool,
) {
    let shards = shards as u64;
    let home = conn_index as u64 % shards;
    for (j, (rid, _)) in updates.iter_mut().enumerate() {
        let target = if cross {
            (home + j as u64) % shards
        } else {
            home
        };
        let mut g = (rid.raw() / shards) * shards + target;
        if g >= n_records {
            // the last partial stride: step back one stride, staying on
            // the same shard (valid whenever n_records >= shards)
            g = g.saturating_sub(shards);
        }
        *rid = RecordId(g.min(n_records.saturating_sub(1)));
    }
}

/// Schema tag for [`bench_net_json`] output.
pub const BENCH_NET_SCHEMA: &str = "mmdb-bench-net/v1";

/// Renders a load run as JSON with a fixed key set. `ckpts_completed`
/// comes from the server (background checkpoints during the run).
pub fn bench_net_json(
    cfg: &LoadConfig,
    report: &LoadReport,
    info: &ServerInfo,
    ckpts_completed: u64,
) -> String {
    let lat = &report.latency_us;
    let v = Value::Obj(vec![
        ("schema".into(), Value::s(BENCH_NET_SCHEMA)),
        (
            "config".into(),
            Value::Obj(vec![
                ("connections".into(), Value::u(report.connections as u64)),
                ("txns_per_conn".into(), Value::u(cfg.txns_per_conn)),
                (
                    "updates_per_txn".into(),
                    Value::u(u64::from(cfg.updates_per_txn)),
                ),
                ("workload".into(), Value::s(cfg.workload.label())),
                ("zipf_theta".into(), Value::f(cfg.workload.theta())),
                ("seed".into(), Value::u(cfg.seed)),
                ("algorithm".into(), Value::s(&info.algorithm)),
                ("n_records".into(), Value::u(info.n_records)),
                (
                    "target_rate_per_conn".into(),
                    Value::f(cfg.target_rate_per_conn),
                ),
            ]),
        ),
        (
            "results".into(),
            Value::Obj(vec![
                ("committed".into(), Value::u(report.committed)),
                ("errors".into(), Value::u(report.errors)),
                ("retries".into(), Value::u(report.retries)),
                ("elapsed_s".into(), Value::f(report.elapsed.as_secs_f64())),
                ("throughput_tps".into(), Value::f(report.throughput_tps)),
                (
                    "latency_us".into(),
                    Value::Obj(vec![
                        ("count".into(), Value::u(lat.count)),
                        ("mean".into(), Value::f(lat.mean)),
                        ("p50".into(), Value::u(lat.p50)),
                        ("p90".into(), Value::u(lat.p90)),
                        ("p99".into(), Value::u(lat.p99)),
                        ("p999".into(), Value::u(lat.p999)),
                        ("max".into(), Value::u(lat.max)),
                    ]),
                ),
                ("ckpts_completed".into(), Value::u(ckpts_completed)),
            ]),
        ),
    ]);
    let mut s = v.to_pretty();
    s.push('\n');
    s
}

/// Validates the fixed schema of [`bench_net_json`] output: the schema
/// tag, every required key, and basic type/sanity constraints. Values
/// are wall-clock so CI validates shape, not bytes.
pub fn validate_bench_net_json(text: &str) -> Result<(), String> {
    let v = parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema tag")?;
    if schema != BENCH_NET_SCHEMA {
        return Err(format!("schema {schema:?}, expected {BENCH_NET_SCHEMA:?}"));
    }
    let config = v.get("config").ok_or("missing config")?;
    for key in [
        "connections",
        "txns_per_conn",
        "updates_per_txn",
        "seed",
        "n_records",
    ] {
        config
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("config.{key} missing or not an integer"))?;
    }
    config
        .get("zipf_theta")
        .and_then(Value::as_f64)
        .ok_or("config.zipf_theta missing or not a number")?;
    config
        .get("target_rate_per_conn")
        .and_then(Value::as_f64)
        .ok_or("config.target_rate_per_conn missing or not a number")?;
    for key in ["workload", "algorithm"] {
        config
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("config.{key} missing or not a string"))?;
    }
    let results = v.get("results").ok_or("missing results")?;
    for key in ["committed", "errors", "retries", "ckpts_completed"] {
        results
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("results.{key} missing or not an integer"))?;
    }
    for key in ["elapsed_s", "throughput_tps"] {
        let n = results
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("results.{key} missing or not a number"))?;
        if !n.is_finite() || n < 0.0 {
            return Err(format!("results.{key} = {n} is not a finite non-negative"));
        }
    }
    let lat = results
        .get("latency_us")
        .ok_or("missing results.latency_us")?;
    for key in ["count", "p50", "p90", "p99", "p999", "max"] {
        lat.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("latency_us.{key} missing or not an integer"))?;
    }
    lat.get("mean")
        .and_then(Value::as_f64)
        .ok_or("latency_us.mean missing or not a number")?;
    let committed = results
        .get("committed")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let count = lat.get("count").and_then(Value::as_u64).unwrap_or(0);
    if committed != count {
        return Err(format!(
            "latency_us.count {count} != results.committed {committed}"
        ));
    }
    Ok(())
}

/// Schema tag for [`bench_shard_json`] output.
pub const BENCH_SHARD_SCHEMA: &str = "mmdb-bench-shard/v1";

/// Shard counts every sweep must cover (the scaling curve's x-axis).
const SWEEP_SHARD_COUNTS: [u64; 4] = [1, 2, 4, 8];

/// One point on the shard-scaling curve: a full load run at a fixed
/// shard count and workload.
#[derive(Debug, Clone)]
pub struct ShardSweepEntry {
    /// Shard count the server ran with.
    pub shards: usize,
    /// Workload the driver replayed.
    pub workload: WorkloadKind,
    /// Fraction of deliberately cross-shard transactions.
    pub cross_fraction: f64,
    /// Connections the driver ran.
    pub connections: usize,
    /// Transactions committed across all connections.
    pub committed: u64,
    /// Non-transient failures (0 in a correct run).
    pub errors: u64,
    /// Transparent transient retries absorbed by the driver.
    pub retries: u64,
    /// Wall-clock seconds for the run.
    pub elapsed_s: f64,
    /// Committed transactions per wall-clock second.
    pub throughput_tps: f64,
    /// Median commit latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile commit latency in microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile commit latency in microseconds.
    pub p999_us: u64,
    /// Maximum commit latency in microseconds.
    pub max_us: u64,
}

impl ShardSweepEntry {
    /// Builds a sweep point from a completed load run.
    pub fn from_report(cfg: &LoadConfig, report: &LoadReport) -> ShardSweepEntry {
        ShardSweepEntry {
            shards: cfg.shards,
            workload: cfg.workload,
            cross_fraction: cfg.cross_fraction,
            connections: report.connections,
            committed: report.committed,
            errors: report.errors,
            retries: report.retries,
            elapsed_s: report.elapsed.as_secs_f64(),
            throughput_tps: report.throughput_tps,
            p50_us: report.latency_us.p50,
            p99_us: report.latency_us.p99,
            p999_us: report.latency_us.p999,
            max_us: report.latency_us.max,
        }
    }
}

/// Renders a shard sweep as JSON with a fixed key set, mirroring
/// [`bench_net_json`]'s deterministic-schema discipline: keys and
/// shapes never vary run to run, only wall-clock values do.
pub fn bench_shard_json(
    cfg: &LoadConfig,
    log_force_latency_us: u32,
    entries: &[ShardSweepEntry],
) -> String {
    let sweep = entries
        .iter()
        .map(|e| {
            Value::Obj(vec![
                ("shards".into(), Value::u(e.shards as u64)),
                ("workload".into(), Value::s(e.workload.label())),
                ("zipf_theta".into(), Value::f(e.workload.theta())),
                ("cross_fraction".into(), Value::f(e.cross_fraction)),
                ("connections".into(), Value::u(e.connections as u64)),
                ("committed".into(), Value::u(e.committed)),
                ("errors".into(), Value::u(e.errors)),
                ("retries".into(), Value::u(e.retries)),
                ("elapsed_s".into(), Value::f(e.elapsed_s)),
                ("throughput_tps".into(), Value::f(e.throughput_tps)),
                ("p50_us".into(), Value::u(e.p50_us)),
                ("p99_us".into(), Value::u(e.p99_us)),
                ("p999_us".into(), Value::u(e.p999_us)),
                ("max_us".into(), Value::u(e.max_us)),
            ])
        })
        .collect();
    let v = Value::Obj(vec![
        ("schema".into(), Value::s(BENCH_SHARD_SCHEMA)),
        (
            "config".into(),
            Value::Obj(vec![
                ("txns_per_conn".into(), Value::u(cfg.txns_per_conn)),
                (
                    "updates_per_txn".into(),
                    Value::u(u64::from(cfg.updates_per_txn)),
                ),
                ("seed".into(), Value::u(cfg.seed)),
                (
                    "log_force_latency_us".into(),
                    Value::u(u64::from(log_force_latency_us)),
                ),
            ]),
        ),
        ("sweep".into(), Value::Arr(sweep)),
    ]);
    v.to_pretty()
}

/// Validates the fixed schema of [`bench_shard_json`] output: the
/// schema tag, every per-entry key, and that the sweep covers shard
/// counts 1, 2, 4 and 8 (the curve the scaling claim is made from).
pub fn validate_bench_shard_json(text: &str) -> Result<(), String> {
    let v = parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema tag")?;
    if schema != BENCH_SHARD_SCHEMA {
        return Err(format!(
            "schema {schema:?}, expected {BENCH_SHARD_SCHEMA:?}"
        ));
    }
    let config = v.get("config").ok_or("missing config")?;
    for key in [
        "txns_per_conn",
        "updates_per_txn",
        "seed",
        "log_force_latency_us",
    ] {
        config
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("config.{key} missing or not an integer"))?;
    }
    let sweep = v
        .get("sweep")
        .and_then(Value::as_arr)
        .ok_or("missing sweep array")?;
    if sweep.is_empty() {
        return Err("sweep array is empty".into());
    }
    let mut seen_shards = Vec::new();
    for (i, entry) in sweep.iter().enumerate() {
        for key in [
            "shards",
            "connections",
            "committed",
            "errors",
            "retries",
            "p50_us",
            "p99_us",
            "p999_us",
            "max_us",
        ] {
            entry
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("sweep[{i}].{key} missing or not an integer"))?;
        }
        for key in [
            "zipf_theta",
            "cross_fraction",
            "elapsed_s",
            "throughput_tps",
        ] {
            let n = entry
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("sweep[{i}].{key} missing or not a number"))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!("sweep[{i}].{key} = {n} is not finite non-negative"));
            }
        }
        entry
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("sweep[{i}].workload missing or not a string"))?;
        if let Some(s) = entry.get("shards").and_then(Value::as_u64) {
            seen_shards.push(s);
        }
    }
    for required in SWEEP_SHARD_COUNTS {
        if !seen_shards.contains(&required) {
            return Err(format!("sweep has no entry at shards = {required}"));
        }
    }
    Ok(())
}

/// Schema tag for [`bench_group_json`] output.
pub const BENCH_GROUP_SCHEMA: &str = "mmdb-bench-group/v1";

/// One leg of the group-commit comparison: a full load run with a fixed
/// commit-durability discipline, plus the log-force counters that show
/// the amortization directly.
#[derive(Debug, Clone)]
pub struct GroupCompareEntry {
    /// Commit discipline the server ran with (`"force"` or `"group"`).
    pub mode: &'static str,
    /// Connections the driver ran.
    pub connections: usize,
    /// Transactions committed across all connections.
    pub committed: u64,
    /// Non-transient failures (0 in a correct run).
    pub errors: u64,
    /// Transparent transient retries absorbed by the driver.
    pub retries: u64,
    /// Wall-clock seconds for the run.
    pub elapsed_s: f64,
    /// Committed transactions per wall-clock second.
    pub throughput_tps: f64,
    /// Median commit latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile commit latency in microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile commit latency in microseconds.
    pub p999_us: u64,
    /// Maximum commit latency in microseconds.
    pub max_us: u64,
    /// Log forces the engine issued during the run (`log.forces`).
    pub log_forces: u64,
    /// Commits acked through the batched group path
    /// (`log.group_commit.commits`; 0 for the force leg).
    pub group_commits: u64,
}

impl GroupCompareEntry {
    /// Builds a comparison leg from a completed load run and the
    /// server's post-run metrics counters.
    pub fn new(
        mode: &'static str,
        report: &LoadReport,
        log_forces: u64,
        group_commits: u64,
    ) -> GroupCompareEntry {
        GroupCompareEntry {
            mode,
            connections: report.connections,
            committed: report.committed,
            errors: report.errors,
            retries: report.retries,
            elapsed_s: report.elapsed.as_secs_f64(),
            throughput_tps: report.throughput_tps,
            p50_us: report.latency_us.p50,
            p99_us: report.latency_us.p99,
            p999_us: report.latency_us.p999,
            max_us: report.latency_us.max,
            log_forces,
            group_commits,
        }
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("mode".into(), Value::s(self.mode)),
            ("connections".into(), Value::u(self.connections as u64)),
            ("committed".into(), Value::u(self.committed)),
            ("errors".into(), Value::u(self.errors)),
            ("retries".into(), Value::u(self.retries)),
            ("elapsed_s".into(), Value::f(self.elapsed_s)),
            ("throughput_tps".into(), Value::f(self.throughput_tps)),
            ("p50_us".into(), Value::u(self.p50_us)),
            ("p99_us".into(), Value::u(self.p99_us)),
            ("p999_us".into(), Value::u(self.p999_us)),
            ("max_us".into(), Value::u(self.max_us)),
            ("log_forces".into(), Value::u(self.log_forces)),
            ("group_commits".into(), Value::u(self.group_commits)),
        ])
    }
}

/// Renders a group-vs-force comparison as JSON with a fixed key set.
/// Both legs run the same workload shape on a real (fsynced) log device
/// with no modeled latency; `speedup` is the group leg's throughput over
/// the force leg's.
pub fn bench_group_json(
    cfg: &LoadConfig,
    force: &GroupCompareEntry,
    group: &GroupCompareEntry,
) -> String {
    let speedup = if force.throughput_tps > 0.0 {
        group.throughput_tps / force.throughput_tps
    } else {
        0.0
    };
    let v = Value::Obj(vec![
        ("schema".into(), Value::s(BENCH_GROUP_SCHEMA)),
        (
            "config".into(),
            Value::Obj(vec![
                ("txns_per_conn".into(), Value::u(cfg.txns_per_conn)),
                (
                    "updates_per_txn".into(),
                    Value::u(u64::from(cfg.updates_per_txn)),
                ),
                ("workload".into(), Value::s(cfg.workload.label())),
                ("zipf_theta".into(), Value::f(cfg.workload.theta())),
                ("seed".into(), Value::u(cfg.seed)),
            ]),
        ),
        ("force".into(), force.to_value()),
        ("group".into(), group.to_value()),
        ("speedup".into(), Value::f(speedup)),
    ]);
    let mut s = v.to_pretty();
    s.push('\n');
    s
}

/// Validates the fixed schema of [`bench_group_json`] output: the
/// schema tag, both legs with every required key, mode tags in the
/// right slots, and a finite non-negative speedup.
pub fn validate_bench_group_json(text: &str) -> Result<(), String> {
    let v = parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema tag")?;
    if schema != BENCH_GROUP_SCHEMA {
        return Err(format!(
            "schema {schema:?}, expected {BENCH_GROUP_SCHEMA:?}"
        ));
    }
    let config = v.get("config").ok_or("missing config")?;
    for key in ["txns_per_conn", "updates_per_txn", "seed"] {
        config
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("config.{key} missing or not an integer"))?;
    }
    config
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("config.workload missing or not a string")?;
    for leg in ["force", "group"] {
        let entry = v.get(leg).ok_or_else(|| format!("missing {leg} leg"))?;
        let mode = entry
            .get("mode")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{leg}.mode missing or not a string"))?;
        if mode != leg {
            return Err(format!("{leg}.mode is {mode:?}"));
        }
        for key in [
            "connections",
            "committed",
            "errors",
            "retries",
            "p50_us",
            "p99_us",
            "p999_us",
            "max_us",
            "log_forces",
            "group_commits",
        ] {
            entry
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{leg}.{key} missing or not an integer"))?;
        }
        for key in ["elapsed_s", "throughput_tps"] {
            let n = entry
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{leg}.{key} missing or not a number"))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!("{leg}.{key} = {n} is not finite non-negative"));
            }
        }
    }
    let speedup = v
        .get("speedup")
        .and_then(Value::as_f64)
        .ok_or("missing speedup")?;
    if !speedup.is_finite() || speedup < 0.0 {
        return Err(format!("speedup = {speedup} is not finite non-negative"));
    }
    Ok(())
}

/// Schema tag for [`bench_intra_json`] output.
pub const BENCH_INTRA_SCHEMA: &str = "mmdb-bench-intra/v1";

/// Worker-thread counts every intra-shard sweep must cover (the
/// within-shard scaling curve's x-axis).
const INTRA_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Parameters for [`run_intra_sweep`].
#[derive(Debug, Clone)]
pub struct IntraSweepConfig {
    /// Wall-clock budget per sweep point.
    pub duration: Duration,
    /// Base RNG seed; each worker derives an independent stream.
    pub seed: u64,
    /// Mixed leg: one single-shard commit per this many operations
    /// (the rest are point reads).
    pub write_every: u64,
}

impl Default for IntraSweepConfig {
    fn default() -> IntraSweepConfig {
        IntraSweepConfig {
            duration: Duration::from_millis(200),
            seed: 42,
            write_every: 8,
        }
    }
}

/// One point on the within-shard scaling curve: `threads` workers
/// hammering a single shard in-process, with the point-read path either
/// lock-free (seqlocked segment words) or forced through the shard gate.
#[derive(Debug, Clone)]
pub struct IntraPoint {
    /// Operation mix: `"read"` (point reads only) or `"mixed"` (reads
    /// plus periodic single-shard commits).
    pub leg: &'static str,
    /// Read path: `"lockfree"` (seqlocked words) or `"locked"` (every
    /// read takes the shard gate — the single-mutex baseline).
    pub mode: &'static str,
    /// Concurrent worker threads.
    pub threads: usize,
    /// Point reads completed across all workers.
    pub reads: u64,
    /// Single-shard transactions committed across all workers.
    pub commits: u64,
    /// Operations that failed (0 in a correct run).
    pub errors: u64,
    /// Wall-clock seconds for the point.
    pub elapsed_s: f64,
    /// Total operations (reads + commits) per wall-clock second.
    pub ops_per_s: f64,
}

/// Runs the full within-shard sweep in-process: one single-shard
/// database, `{read, mixed} × {lockfree, locked} × {1, 2, 4, 8}`
/// worker threads, each point running for the configured duration.
/// In-process because the thing under test is the engine's internal
/// concurrency (seqlock reads, per-segment write latches), not the
/// network stack.
pub fn run_intra_sweep(cfg: &IntraSweepConfig) -> Result<Vec<IntraPoint>, String> {
    let db = mmdb_shard::ShardedMmdb::open_in_memory(
        mmdb_core::MmdbConfig::small(mmdb_types::Algorithm::FuzzyCopy),
        1,
    )
    .map_err(|e| format!("open: {e}"))?;
    let db = std::sync::Arc::new(db);
    let mut points = Vec::new();
    for leg in ["read", "mixed"] {
        for mode in ["lockfree", "locked"] {
            db.set_lockfree_reads(mode == "lockfree");
            for &threads in &INTRA_THREAD_COUNTS {
                points.push(run_intra_point(&db, cfg, leg, mode, threads)?);
            }
        }
    }
    db.set_lockfree_reads(true);
    Ok(points)
}

fn run_intra_point(
    db: &std::sync::Arc<mmdb_shard::ShardedMmdb>,
    cfg: &IntraSweepConfig,
    leg: &'static str,
    mode: &'static str,
    threads: usize,
) -> Result<IntraPoint, String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let start = std::sync::Arc::new(AtomicBool::new(false));
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let n_records = db.n_records();
    let words = db.record_words();
    let writes = leg == "mixed";
    let write_every = cfg.write_every.max(1);
    let mut joins = Vec::with_capacity(threads);
    for t in 0..threads {
        let db = std::sync::Arc::clone(db);
        let start = std::sync::Arc::clone(&start);
        let stop = std::sync::Arc::clone(&stop);
        let mut rng = cfg
            .seed
            .wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        joins.push(std::thread::spawn(move || {
            while !start.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let (mut reads, mut commits, mut errors) = (0u64, 0u64, 0u64);
            let mut op = 0u64;
            while !stop.load(Ordering::Relaxed) {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let rid = RecordId(rng % n_records);
                if writes && op % write_every == write_every - 1 {
                    let value = vec![(rng >> 32) as Word, op as Word]
                        .into_iter()
                        .cycle()
                        .take(words)
                        .collect::<Vec<_>>();
                    match db.run_txn(&[(rid, value)]) {
                        Ok(_) => commits += 1,
                        Err(_) => errors += 1,
                    }
                } else {
                    match db.read_committed(rid) {
                        Ok(_) => reads += 1,
                        Err(_) => errors += 1,
                    }
                }
                op += 1;
            }
            (reads, commits, errors)
        }));
    }
    let t0 = Instant::now();
    start.store(true, Ordering::Release);
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let (mut reads, mut commits, mut errors) = (0u64, 0u64, 0u64);
    for j in joins {
        let (r, c, e) = j.join().map_err(|_| "intra worker panicked".to_string())?;
        reads += r;
        commits += c;
        errors += e;
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let ops = reads + commits;
    Ok(IntraPoint {
        leg,
        mode,
        threads,
        reads,
        commits,
        errors,
        elapsed_s,
        ops_per_s: if elapsed_s > 0.0 {
            ops as f64 / elapsed_s
        } else {
            0.0
        },
    })
}

/// The sweep point at `(leg, mode, threads)`, if present.
fn intra_point<'a>(
    points: &'a [IntraPoint],
    leg: &str,
    mode: &str,
    threads: usize,
) -> Option<&'a IntraPoint> {
    points
        .iter()
        .find(|p| p.leg == leg && p.mode == mode && p.threads == threads)
}

/// Renders an intra-shard sweep as JSON with a fixed key set, mirroring
/// the other bench emitters' deterministic-schema discipline. The
/// headline `read_speedup_4t` (and `mixed_speedup_4t`) is the lock-free
/// leg's throughput over the forced-locked baseline at 4 threads — the
/// number the within-shard scaling claim is made from.
pub fn bench_intra_json(cfg: &IntraSweepConfig, points: &[IntraPoint]) -> String {
    let speedup = |leg: &str| -> f64 {
        match (
            intra_point(points, leg, "lockfree", 4),
            intra_point(points, leg, "locked", 4),
        ) {
            (Some(free), Some(locked)) if locked.ops_per_s > 0.0 => {
                free.ops_per_s / locked.ops_per_s
            }
            _ => 0.0,
        }
    };
    let sweep = points
        .iter()
        .map(|p| {
            Value::Obj(vec![
                ("leg".into(), Value::s(p.leg)),
                ("mode".into(), Value::s(p.mode)),
                ("threads".into(), Value::u(p.threads as u64)),
                ("reads".into(), Value::u(p.reads)),
                ("commits".into(), Value::u(p.commits)),
                ("errors".into(), Value::u(p.errors)),
                ("elapsed_s".into(), Value::f(p.elapsed_s)),
                ("ops_per_s".into(), Value::f(p.ops_per_s)),
            ])
        })
        .collect();
    let v = Value::Obj(vec![
        ("schema".into(), Value::s(BENCH_INTRA_SCHEMA)),
        (
            "config".into(),
            Value::Obj(vec![
                (
                    "duration_ms".into(),
                    Value::u(cfg.duration.as_millis().min(u64::MAX as u128) as u64),
                ),
                ("seed".into(), Value::u(cfg.seed)),
                ("write_every".into(), Value::u(cfg.write_every)),
            ]),
        ),
        ("sweep".into(), Value::Arr(sweep)),
        ("read_speedup_4t".into(), Value::f(speedup("read"))),
        ("mixed_speedup_4t".into(), Value::f(speedup("mixed"))),
    ]);
    let mut s = v.to_pretty();
    s.push('\n');
    s
}

/// Validates the fixed schema of [`bench_intra_json`] output: the
/// schema tag, every `{leg} × {mode} × {1, 2, 4, 8}` point with every
/// required key, and finite non-negative speedup headlines. Values are
/// wall-clock so CI validates shape, not bytes.
pub fn validate_bench_intra_json(text: &str) -> Result<(), String> {
    let v = parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema tag")?;
    if schema != BENCH_INTRA_SCHEMA {
        return Err(format!(
            "schema {schema:?}, expected {BENCH_INTRA_SCHEMA:?}"
        ));
    }
    let config = v.get("config").ok_or("missing config")?;
    for key in ["duration_ms", "seed", "write_every"] {
        config
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("config.{key} missing or not an integer"))?;
    }
    let sweep = v
        .get("sweep")
        .and_then(Value::as_arr)
        .ok_or("missing sweep array")?;
    let mut seen = Vec::new();
    for (i, entry) in sweep.iter().enumerate() {
        let leg = entry
            .get("leg")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("sweep[{i}].leg missing or not a string"))?;
        let mode = entry
            .get("mode")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("sweep[{i}].mode missing or not a string"))?;
        if !["read", "mixed"].contains(&leg) {
            return Err(format!("sweep[{i}].leg = {leg:?} is not a known leg"));
        }
        if !["lockfree", "locked"].contains(&mode) {
            return Err(format!("sweep[{i}].mode = {mode:?} is not a known mode"));
        }
        for key in ["threads", "reads", "commits", "errors"] {
            entry
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("sweep[{i}].{key} missing or not an integer"))?;
        }
        for key in ["elapsed_s", "ops_per_s"] {
            let n = entry
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("sweep[{i}].{key} missing or not a number"))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!("sweep[{i}].{key} = {n} is not finite non-negative"));
            }
        }
        let threads = entry.get("threads").and_then(Value::as_u64).unwrap_or(0);
        seen.push((leg.to_string(), mode.to_string(), threads));
    }
    for leg in ["read", "mixed"] {
        for mode in ["lockfree", "locked"] {
            for threads in INTRA_THREAD_COUNTS {
                let want = (leg.to_string(), mode.to_string(), threads as u64);
                if !seen.contains(&want) {
                    return Err(format!(
                        "sweep has no {leg}/{mode} point at {threads} threads"
                    ));
                }
            }
        }
    }
    for key in ["read_speedup_4t", "mixed_speedup_4t"] {
        let n = v
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing {key}"))?;
        if !n.is_finite() || n < 0.0 {
            return Err(format!("{key} = {n} is not finite non-negative"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json() -> String {
        let cfg = LoadConfig {
            addr: "127.0.0.1:0".into(),
            workload: WorkloadKind::Zipf(0.8),
            ..LoadConfig::default()
        };
        let mut hist = Histogram::new();
        for us in [120, 340, 95, 410, 230] {
            hist.record(us);
        }
        let report = LoadReport {
            connections: 8,
            committed: 5,
            errors: 0,
            retries: 3,
            elapsed: Duration::from_millis(250),
            throughput_tps: 20.0,
            latency_us: hist.summary(),
        };
        let info = ServerInfo {
            n_records: 2048,
            record_words: 8,
            n_segments: 32,
            algorithm: "FUZZYCOPY".into(),
        };
        bench_net_json(&cfg, &report, &info, 4)
    }

    #[test]
    fn bench_json_round_trips_through_its_own_validator() {
        let json = sample_json();
        validate_bench_net_json(&json).expect("fresh output validates");
    }

    #[test]
    fn validator_rejects_wrong_schema_and_missing_keys() {
        let json = sample_json();
        let wrong = json.replace(BENCH_NET_SCHEMA, "mmdb-bench-net/v0");
        assert!(validate_bench_net_json(&wrong).is_err());
        let broken = json.replace("\"throughput_tps\"", "\"throughput\"");
        assert!(validate_bench_net_json(&broken).is_err());
        assert!(validate_bench_net_json("{}").is_err());
        assert!(validate_bench_net_json("not json").is_err());
    }

    #[test]
    fn validator_cross_checks_committed_against_latency_count() {
        let json = sample_json();
        let tampered = json.replace("\"committed\": 5", "\"committed\": 6");
        assert!(validate_bench_net_json(&tampered).is_err());
    }

    fn sample_sweep_json() -> String {
        let cfg = LoadConfig::default();
        let entries: Vec<ShardSweepEntry> = [1usize, 2, 4, 8]
            .iter()
            .map(|&s| ShardSweepEntry {
                shards: s,
                workload: WorkloadKind::Uniform,
                cross_fraction: 0.05,
                connections: 2 * s,
                committed: 400,
                errors: 0,
                retries: 7,
                elapsed_s: 0.5,
                throughput_tps: 800.0 * s as f64,
                p50_us: 900 / s as u64,
                p99_us: 4000 / s as u64,
                p999_us: 9000 / s as u64,
                max_us: 12000 / s as u64,
            })
            .collect();
        bench_shard_json(&cfg, 1000, &entries)
    }

    #[test]
    fn shard_sweep_json_round_trips_through_its_own_validator() {
        let json = sample_sweep_json();
        validate_bench_shard_json(&json).expect("fresh sweep output validates");
    }

    #[test]
    fn shard_sweep_validator_rejects_missing_points_and_keys() {
        let json = sample_sweep_json();
        let wrong = json.replace(BENCH_SHARD_SCHEMA, "mmdb-bench-shard/v0");
        assert!(validate_bench_shard_json(&wrong).is_err());
        let broken = json.replace("\"p99_us\"", "\"p99\"");
        assert!(validate_bench_shard_json(&broken).is_err());
        // drop the 8-shard point: the curve is incomplete
        let missing = json.replace("\"shards\": 8", "\"shards\": 16");
        assert!(validate_bench_shard_json(&missing).is_err());
        assert!(validate_bench_shard_json("{}").is_err());
    }

    fn sample_group_json() -> String {
        let cfg = LoadConfig::default();
        let mut hist = Histogram::new();
        for us in [900, 1100, 950] {
            hist.record(us);
        }
        let force_report = LoadReport {
            connections: 8,
            committed: 800,
            errors: 0,
            retries: 2,
            elapsed: Duration::from_millis(1600),
            throughput_tps: 500.0,
            latency_us: hist.summary(),
        };
        let mut group_report = force_report.clone();
        group_report.throughput_tps = 1400.0;
        group_report.elapsed = Duration::from_millis(570);
        let force = GroupCompareEntry::new("force", &force_report, 805, 0);
        let group = GroupCompareEntry::new("group", &group_report, 122, 800);
        bench_group_json(&cfg, &force, &group)
    }

    #[test]
    fn group_compare_json_round_trips_through_its_own_validator() {
        let json = sample_group_json();
        validate_bench_group_json(&json).expect("fresh group output validates");
    }

    #[test]
    fn group_compare_validator_rejects_wrong_schema_and_swapped_legs() {
        let json = sample_group_json();
        let wrong = json.replace(BENCH_GROUP_SCHEMA, "mmdb-bench-group/v0");
        assert!(validate_bench_group_json(&wrong).is_err());
        let broken = json.replace("\"log_forces\"", "\"forces\"");
        assert!(validate_bench_group_json(&broken).is_err());
        // the legs carry their mode tags; a swap is caught
        let swapped = json
            .replace("\"mode\": \"group\"", "\"mode\": \"TMP\"")
            .replace("\"mode\": \"force\"", "\"mode\": \"group\"")
            .replace("\"mode\": \"TMP\"", "\"mode\": \"force\"");
        assert!(validate_bench_group_json(&swapped).is_err());
        assert!(validate_bench_group_json("{}").is_err());
    }

    fn sample_intra_json() -> String {
        let cfg = IntraSweepConfig::default();
        let mut points = Vec::new();
        for leg in ["read", "mixed"] {
            for mode in ["lockfree", "locked"] {
                for threads in [1usize, 2, 4, 8] {
                    let base = if mode == "lockfree" {
                        800_000.0
                    } else {
                        200_000.0
                    };
                    points.push(IntraPoint {
                        leg,
                        mode,
                        threads,
                        reads: 100_000,
                        commits: if leg == "mixed" { 12_000 } else { 0 },
                        errors: 0,
                        elapsed_s: 0.2,
                        ops_per_s: base * threads as f64,
                    });
                }
            }
        }
        bench_intra_json(&cfg, &points)
    }

    #[test]
    fn intra_json_round_trips_through_its_own_validator() {
        let json = sample_intra_json();
        validate_bench_intra_json(&json).expect("fresh intra output validates");
    }

    #[test]
    fn intra_validator_rejects_missing_points_and_keys() {
        let json = sample_intra_json();
        let wrong = json.replace(BENCH_INTRA_SCHEMA, "mmdb-bench-intra/v0");
        assert!(validate_bench_intra_json(&wrong).is_err());
        let broken = json.replace("\"ops_per_s\"", "\"ops\"");
        assert!(validate_bench_intra_json(&broken).is_err());
        // drop the lockfree/read 8-thread point: the curve is incomplete
        let missing = json.replacen("\"threads\": 8", "\"threads\": 16", 1);
        assert!(validate_bench_intra_json(&missing).is_err());
        assert!(validate_bench_intra_json("{}").is_err());
        assert!(validate_bench_intra_json("not json").is_err());
    }

    #[test]
    fn intra_json_headline_is_the_4_thread_ratio() {
        let json = sample_intra_json();
        let v = parse(&json).expect("valid JSON");
        let speedup = v
            .get("read_speedup_4t")
            .and_then(Value::as_f64)
            .expect("headline present");
        assert!(
            (speedup - 4.0).abs() < 1e-9,
            "800k/200k = 4.0, got {speedup}"
        );
    }

    #[test]
    fn intra_sweep_smoke_runs_and_validates() {
        // tiny budget: this is a correctness smoke, not a measurement
        let cfg = IntraSweepConfig {
            duration: Duration::from_millis(10),
            ..IntraSweepConfig::default()
        };
        let points = run_intra_sweep(&cfg).expect("sweep runs");
        assert_eq!(points.len(), 16);
        assert!(points.iter().all(|p| p.errors == 0), "no errors expected");
        validate_bench_intra_json(&bench_intra_json(&cfg, &points)).expect("validates");
    }

    #[test]
    fn shard_remap_preserves_residue_and_range() {
        let words = vec![0u32; 4];
        for n_records in [16u64, 17, 19, 2048] {
            for shards in [2usize, 4, 8] {
                for conn in 0..shards {
                    let mut updates: Vec<(RecordId, Vec<Word>)> = (0..n_records)
                        .map(|r| (RecordId(r), words.clone()))
                        .collect();
                    remap_to_shards(&mut updates, conn, shards, n_records, false);
                    let home = (conn % shards) as u64;
                    for (rid, _) in &updates {
                        assert!(rid.raw() < n_records);
                        assert_eq!(rid.raw() % shards as u64, home);
                    }
                }
            }
        }
    }

    #[test]
    fn shard_remap_cross_txn_spans_multiple_shards() {
        let words = vec![0u32; 4];
        let mut updates: Vec<(RecordId, Vec<Word>)> =
            (100..104).map(|r| (RecordId(r), words.clone())).collect();
        remap_to_shards(&mut updates, 0, 4, 2048, true);
        let mut shards_hit: Vec<u64> = updates.iter().map(|(r, _)| r.raw() % 4).collect();
        shards_hit.sort_unstable();
        shards_hit.dedup();
        assert_eq!(shards_hit, vec![0, 1, 2, 3]);
    }

    #[test]
    fn workload_kind_labels_are_stable() {
        assert_eq!(WorkloadKind::Uniform.label(), "uniform");
        assert_eq!(WorkloadKind::Zipf(0.5).label(), "zipf");
        assert_eq!(WorkloadKind::Uniform.theta(), 0.0);
        assert_eq!(WorkloadKind::Zipf(0.5).theta(), 0.5);
    }
}
