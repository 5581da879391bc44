//! Small std-only helpers: seeded RNG, order statistics, `/proc` readers
//! and a one-line JSON emitter.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed gives the same inputs on every commit.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Times one call, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Linear-interpolation quantile of an ascending slice, `p` in `[0, 1]`.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// `VmHWM` of one process in MiB, or 0 if it is gone.
fn vm_hwm_mb(pid: u32) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of this process plus every live descendant
/// (worker and daemon subprocesses), in MiB. Descendants are found by
/// parent pid in `/proc/<pid>/stat`, because `LocalCluster` keeps its
/// children's pids private.
pub fn peak_rss_mb() -> f64 {
    let mut parent_of: Vec<(u32, u32)> = Vec::new();
    if let Ok(dir) = std::fs::read_dir("/proc") {
        for entry in dir.flatten() {
            let Some(pid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                continue;
            };
            // The command name is parenthesised and may hold spaces;
            // the fields after the last ')' are: state ppid ...
            let ppid = stat
                .rsplit_once(')')
                .and_then(|(_, rest)| rest.split_whitespace().nth(1))
                .and_then(|s| s.parse::<u32>().ok());
            if let Some(ppid) = ppid {
                parent_of.push((pid, ppid));
            }
        }
    }
    let mut family = vec![std::process::id()];
    let mut next = 0;
    while next < family.len() {
        let p = family[next];
        next += 1;
        family.extend(
            parent_of
                .iter()
                .filter(|&&(_, pp)| pp == p)
                .map(|&(c, _)| c),
        );
    }
    family.into_iter().map(vm_hwm_mb).sum()
}

/// User + system CPU seconds this process has used so far
/// (`/proc/self/stat`, at the kernel's 100 Hz tick).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|s| s.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// A metric value with its unit, in the order it was reported.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: every digit as measured, non-finite values as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(","))
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn json_metrics(metrics: &Metrics) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}
