//! The mmdb benchmark: one command per workload, run from the repository
//! root.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-write --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the named workload runs in the production
//! configuration (`MmdbConfig::new`, telemetry and audit off) and the
//! result line carries the end-to-end metrics listed in `BENCHMARK.json`.
//! With `--trace 1` every workload runs with telemetry on, next to an
//! untraced pass for comparison, and the result line carries the
//! per-layer metrics; each layer is measured on the workload that
//! stresses it, so the traced run covers all three whichever workload is
//! named. Human-readable lines (host, settings, sample counts, every
//! metric with its unit) come first; the last line of standard output is
//! the JSON result. The exit code is non-zero when a correctness check
//! fails or any operation failed.

mod embed;
mod measure;
mod recover;
mod serve;

use measure::{json_num, Outcome};
use std::path::PathBuf;
use std::time::Duration;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// How far the traced run's per-layer times may fall short of, or
/// exceed, the end-to-end time they decompose, as a share of it.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub nproc: usize,
    /// Scratch directory for database files, inside the working
    /// directory and removed on exit.
    pub work: PathBuf,
}

/// splitmix64: a small deterministic generator for workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The settings a workload runs with, for the report.
pub fn config_line(workload: &str, cfg: &mmdb_core::MmdbConfig) -> String {
    let db = cfg.params.db;
    format!(
        "{workload} config: MmdbConfig::new({}) with a {} MiB database ({} segments x {} words, {}-word records), telemetry {}, audit {}, durability {:?}, sync_files {}, recovery_workers {}",
        cfg.algorithm.name(),
        (db.s_db * 4) >> 20,
        db.n_segments(),
        db.s_seg,
        db.s_rec,
        on_off(cfg.telemetry),
        on_off(cfg.audit),
        cfg.commit_durability,
        on_off(cfg.sync_files),
        cfg.recovery_workers,
    )
}

fn on_off(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// In the order a traced run measures them: `embed-read` first, so its
/// resident-memory reading starts from a process no other workload has
/// grown.
const WORKLOADS: [&str; 3] = ["embed-read", "serve-write", "recover"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Metric names declared in `BENCHMARK.json` under `key`.
fn declared(key: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = mmdb_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(key)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: a {key} entry has no name"))
        })
        .collect()
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit checked out, when the working directory is a git work tree.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none (not a git work tree)".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(PathBuf::from(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the Rust sources the benchmark builds, in path order:
/// identifies the code measured even where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() && !p.ends_with("target") {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(".perfbench_work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        traced: args.trace,
        nproc,
        work: work.clone(),
    };
    println!(
        "host: nproc {nproc}, kernel {}, git {}, sources {}, build {}",
        kernel(),
        git_revision(),
        source_digest(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    println!(
        "run: workload {}, seed {}, seconds {}, trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let run_one = |name: &str| match name {
        "serve-write" => serve::run(&ctx),
        "embed-read" => embed::run(&ctx),
        _ => recover::run(&ctx),
    };
    let host0 = measure::host_cpu_ticks();
    let mut outcome = if args.trace {
        let mut all = Outcome::default();
        for w in WORKLOADS {
            all.absorb(run_one(w));
        }
        all
    } else {
        let mut one = run_one(&args.workload);
        if !one.metrics.iter().any(|m| m.name == "rss_peak_mb") {
            one.put("rss_peak_mb", measure::rss_peak_mb(), "MB");
        }
        one
    };
    let host1 = measure::host_cpu_ticks();
    let steal = (host1.0 - host0.0) as f64 / (host1.1 - host0.1).max(1) as f64;
    outcome.line(format!(
        "host: steal {:.2}% of CPU time during the run (other guests on the same hardware)",
        steal * 100.0
    ));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(work.parent().unwrap_or(&work));
    Ok(outcome)
}

/// The restart mode `recover` starts itself in:
/// `--restart <dir> --workers <n> --telemetry <0|1>`.
fn restart_mode(argv: &[String]) -> Option<i32> {
    let [flag, dir, w, workers, t, telemetry] = argv else {
        return None;
    };
    if flag != "--restart" || w != "--workers" || t != "--telemetry" {
        return None;
    }
    let workers = workers.parse().unwrap_or(1);
    match recover::restart_child(std::path::Path::new(dir), workers, telemetry == "1") {
        Ok(line) => {
            println!("{line}");
            Some(0)
        }
        Err(e) => {
            eprintln!("{e}");
            Some(1)
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = restart_mode(&argv) {
        std::process::exit(code);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let names = match declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for line in &out.report {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, json_num(m.value), m.unit);
    }
    let mut fields = Vec::new();
    for name in &names {
        match out.metrics.iter().find(|m| &m.name == name) {
            Some(m) if m.value.is_finite() => fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(m.value),
                m.unit
            )),
            _ => out.errors.push(format!("metric {name} was not measured")),
        }
    }
    if out.attempted == 0 {
        out.errors.push("no operation was attempted".into());
    }
    if out.failed > 0 {
        out.errors.push(format!(
            "{} of {} operations failed",
            out.failed, out.attempted
        ));
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
