//! Measurement helpers: latency samples, process and per-thread CPU from
//! `/proc`, peak memory, directory sizes, and the output records.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Latencies below this many nanoseconds are counted per nanosecond;
/// longer ones are kept individually.
const EXACT_NS: usize = 1 << 16;

/// Latency samples in nanoseconds, kept exactly (no histogram buckets)
/// so percentiles are exact. Short latencies are counted per nanosecond,
/// so memory stays fixed however many fast operations a run records.
#[derive(Default)]
pub struct Samples {
    counts: Vec<u32>,
    long: Vec<u64>,
    n: usize,
    sum_ns: f64,
}

/// A latency percentile with the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    pub value_ns: f64,
    pub samples: usize,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.push_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    pub fn push_ns(&mut self, ns: u64) {
        if (ns as usize) < EXACT_NS {
            if self.counts.is_empty() {
                self.counts = vec![0; EXACT_NS];
            }
            self.counts[ns as usize] += 1;
        } else {
            self.long.push(ns);
        }
        self.n += 1;
        self.sum_ns += ns as f64;
    }

    pub fn merge(&mut self, other: &Samples) {
        if !other.counts.is_empty() {
            if self.counts.is_empty() {
                self.counts = vec![0; EXACT_NS];
            }
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.long.extend_from_slice(&other.long);
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_ns / self.n as f64
        }
    }

    /// The `q` quantile as the mean of the samples whose rank lies within
    /// ±0.05% of the sample count around `q · n` (at least the one sample
    /// at that rank). Averaging a narrow rank window keeps whole-nanosecond
    /// samples from pinning the result to one integer run after run.
    pub fn quantile(&mut self, q: f64) -> Pct {
        let n = self.n;
        if n == 0 {
            return Pct {
                value_ns: 0.0,
                samples: 0,
            };
        }
        self.long.sort_unstable();
        let centre = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        let half = n / 2000;
        let (lo, hi) = (centre.saturating_sub(half), (centre + half).min(n - 1));
        // Walk the values in ascending order as (value, count) runs and
        // sum the part of each run that falls in ranks lo..=hi.
        let runs = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as f64, c as usize))
            .chain(self.long.iter().map(|&v| (v as f64, 1)));
        let (mut rank, mut total) = (0usize, 0.0);
        for (v, c) in runs {
            let (a, b) = (rank.max(lo), (rank + c).min(hi + 1));
            if a < b {
                total += v * (b - a) as f64;
            }
            rank += c;
            if rank > hi {
                break;
            }
        }
        Pct {
            value_ns: total / (hi - lo + 1) as f64,
            samples: n,
        }
    }
}

/// Median of a small set of timings (set-up repetitions, restarts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn schedstat_ns(path: &Path) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// CPU seconds the calling thread has used (`/proc/thread-self/schedstat`,
/// nanosecond resolution).
pub fn own_cpu_s() -> f64 {
    schedstat_ns(Path::new("/proc/thread-self/schedstat")) as f64 / 1e9
}

/// CPU nanoseconds per live thread, keyed by thread id, with the thread's
/// name (`/proc/self/task/<tid>/{comm,schedstat}`).
pub fn thread_cpu() -> BTreeMap<u64, (String, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        let ns = schedstat_ns(&entry.path().join("schedstat"));
        out.insert(tid, (comm.trim().to_string(), ns));
    }
    out
}

/// CPU seconds each thread-name prefix used between two [`thread_cpu`]
/// readings. Threads that started after `before` count from zero.
pub fn cpu_by_prefix(
    before: &BTreeMap<u64, (String, u64)>,
    after: &BTreeMap<u64, (String, u64)>,
    prefix: &str,
) -> f64 {
    after
        .iter()
        .filter(|(_, (name, _))| name.starts_with(prefix))
        .map(|(tid, (_, ns))| {
            let base = before.get(tid).map_or(0, |(_, b)| *b);
            ns.saturating_sub(base) as f64 / 1e9
        })
        .sum()
}

/// CPU seconds all threads used between two [`thread_cpu`] readings;
/// threads that exited in between are not counted, so take both readings
/// while every thread of interest is alive.
pub fn cpu_total(
    before: &BTreeMap<u64, (String, u64)>,
    after: &BTreeMap<u64, (String, u64)>,
) -> f64 {
    cpu_by_prefix(before, after, "")
}

/// Host-wide CPU time counters from the `cpu` line of `/proc/stat`:
/// `(steal, total)` in clock ticks. Steal is time the hypervisor ran
/// something else while this machine's CPUs wanted to run.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set size of the process so far, in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size, in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next().and_then(|n| n.parse().ok()))
        .unwrap_or(0.0)
}

/// Bytes held by every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// One named result with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back: its metrics, its operation counts and
/// the outcome of its correctness checks.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check failures; any entry fails the command.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn line(&mut self, text: String) {
        self.report.push(text);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.report.extend(other.report);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Formats a number for the result line with every digit `f64` holds.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
