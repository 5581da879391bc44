//! `fractal_bench`: the repository's wall-clock benchmark. Four workloads,
//! four end-to-end metrics, per-layer probes and a traced run; see
//! `README.md` beside this package and `BENCHMARK.json` at the root.
//!
//! ```text
//! fractal_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fractal_bench --all [--seed <n>] [--seconds <s>] [--out <dir>]
//! fractal_bench --check
//! fractal_bench --write-expected [--out <file>]
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit code
//! is non-zero when any job failed.

mod inputs;
mod oracle;
mod probes;
mod trace;
mod util;
mod workloads;

use inputs::{Sizes, CHECK, FULL};
use oracle::Expected;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use util::{json_array, json_metrics, json_num, json_str, median, quantile, sorted, Metrics};
use workloads::{Measured, RunOpts, Workload, WARMUPS};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<Workload>,
    all: bool,
    check: bool,
    write_expected: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fractal_bench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]\n\
         \x20      fractal_bench --all [--seed <n>] [--seconds <s>] [--out <dir>]\n\
         \x20      fractal_bench --check\n\
         \x20      fractal_bench --write-expected [--out <file>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: None,
        all: false,
        check: false,
        write_expected: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(value()).unwrap_or_else(|| usage())),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value() == "1",
            "--out" => a.out = Some(PathBuf::from(value())),
            "--all" => a.all = true,
            "--check" => a.check = true,
            "--write-expected" => a.write_expected = true,
            _ => usage(),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        usage();
    }
    a
}

/// Where run artifacts go: beside the executable, so inside the build
/// directory of the checkout, unless `--out` says otherwise.
fn out_dir(args: &Args) -> io::Result<PathBuf> {
    let dir = match &args.out {
        Some(dir) => dir.clone(),
        None => std::env::current_exe()?
            .parent()
            .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
            .join("fractal_bench_out"),
    };
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A directory for generated graphs and journals, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path) -> io::Result<Scratch> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// What was measured, on what, with which noise discipline.
fn stamp(sizes: &Sizes, seed: u64, seconds: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"schema\": \"fractal-bench/2\", \"commit\": {}, \"rustc\": {}, \"nproc\": {nproc}, \
         \"seed\": {seed}, \"gen_seed\": {}, \"seconds\": {}, \"setup_reps\": {}, \
         \"warmups\": {WARMUPS}, \"max_compute_threads\": 2, \"sizes\": {}}}",
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["--version"])),
        inputs::GEN_SEED,
        json_num(seconds),
        sizes.setup_reps,
        json_str(&format!("{sizes:?}")),
    )
}

fn five_numbers(values: &[f64]) -> String {
    let v = sorted(values);
    format!(
        "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
        v.len(),
        json_num(quantile(&v, 0.0)),
        json_num(quantile(&v, 0.25)),
        json_num(quantile(&v, 0.5)),
        json_num(quantile(&v, 0.75)),
        json_num(quantile(&v, 1.0)),
    )
}

fn end_to_end(m: &Measured) -> Metrics {
    let ok = m.job_secs(None);
    vec![
        ("setup_s".to_string(), median(&m.setup_s), "s"),
        ("job_s".to_string(), median(&ok), "s"),
        (
            "jobs_per_s".to_string(),
            ok.len() as f64 / m.window_s,
            "1/s",
        ),
        ("peak_rss_mb".to_string(), m.peak_rss_mb, "MiB"),
    ]
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Outcome {
    fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            json_metrics(&self.metrics)
        )
    }
}

/// One run of one workload: end-to-end metrics with the tracer off, or
/// the per-layer metrics of a traced run.
fn run_one(
    w: Workload,
    sizes: &Sizes,
    args: &Args,
    traced: bool,
    out: &Path,
) -> io::Result<Outcome> {
    let expected = Expected::load();
    let scratch = Scratch::new(out)?;
    let per_20s = match w {
        Workload::ServeMix => sizes.serve_jobs_per_20s,
        _ => sizes.jobs_per_20s,
    };
    // A traced run spends half its time on the probes.
    let seconds = if traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let opts = RunOpts {
        sizes,
        seed: args.seed,
        jobs: sizes.jobs(per_20s, seconds),
        setup_reps: sizes.setup_reps,
        scratch: &scratch.0,
        expected: &expected,
    };
    let mut tracer = Tracer::new(Instant::now(), traced);
    let m = workloads::run(w, &opts, &mut tracer)?;
    let mut detail = format!(
        "{{\"stamp\": {}, \"workload\": {}, \"traced\": {traced}, \"attempted\": {}, \
         \"failed\": {}, \"window_s\": {}, \"job_s\": {}, \"setup_s\": {}, \"job_s_all\": {}, \
         \"end_to_end\": {}",
        stamp(sizes, args.seed, args.seconds),
        json_str(w.name()),
        m.jobs.len(),
        m.failed(),
        json_num(m.window_s),
        five_numbers(&m.job_secs(None)),
        five_numbers(&m.setup_s),
        json_array(&m.jobs.iter().map(|j| j.secs).collect::<Vec<_>>()),
        json_metrics(&end_to_end(&m)),
    );
    let metrics = if traced {
        let mut layers = probes::run_all(sizes, args.seed, &scratch.0, &expected, (w, &m))?;
        let traced_job_s = median(&m.job_secs(Some(true)));
        layers.push((
            "bench.trace_overhead".to_string(),
            traced_job_s / median(&m.job_secs(Some(false))),
            "ratio",
        ));
        // Self time by layer, as a share of the traced jobs' total time.
        let jobs_s = tracer.total("job");
        let self_times = tracer.self_times();
        let shares: Vec<String> = self_times
            .iter()
            .map(|(name, secs)| {
                format!(
                    "{}: {{\"self_s\": {}, \"share\": {}}}",
                    json_str(name),
                    json_num(*secs),
                    json_num(secs / jobs_s)
                )
            })
            .collect();
        let covered: f64 = self_times.values().sum();
        detail.push_str(&format!(
            ", \"traced_job_s\": {}, \"self_time_sum_over_jobs\": {}, \"self_times\": {{{}}}, \
             \"per_layer\": {}",
            json_num(traced_job_s),
            json_num(covered / jobs_s),
            shares.join(", "),
            json_metrics(&layers)
        ));
        tracer.write_jsonl(&out.join(format!("{}.spans.jsonl", w.name())))?;
        layers
    } else {
        end_to_end(&m)
    };
    detail.push_str("}\n");
    let suffix = if traced { ".traced" } else { "" };
    std::fs::write(out.join(format!("{}{suffix}.json", w.name())), detail)?;
    Ok(Outcome {
        attempted: m.jobs.len(),
        failed: m.failed(),
        metrics,
    })
}

/// `--all`: every workload plain and then traced, each in a process of
/// its own as the driver runs them, so that no run inherits another's
/// peak memory. Each prints its metrics by name, with value and unit.
fn run_all(args: &Args, out: &Path) -> io::Result<usize> {
    let mut failed = 0;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            println!("# {} --trace {trace}", w.name());
            let status = std::process::Command::new(std::env::current_exe()?)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(out)
                .status()?;
            failed += usize::from(!status.success());
        }
    }
    eprintln!("details and spans: {}", out.display());
    Ok(failed)
}

/// `--check`: the small-scale oracle recomputed on the independent paths
/// against the checked-in one, then every workload at a tenth of the
/// size, which proves the worker and daemon verbs. Nothing is timed.
fn check(args: &Args, out: &Path) -> io::Result<usize> {
    let mut failed = 0;
    if !Expected::load().matches(&oracle::compute(&CHECK)) {
        println!("check: expected.json disagrees with the independent paths");
        failed += 1;
    }
    for w in Workload::ALL {
        let o = run_one(w, &CHECK, args, false, out)?;
        println!(
            "check {}: {} of {} jobs failed",
            w.name(),
            o.failed,
            o.attempted
        );
        failed += o.failed;
    }
    Ok(failed)
}

fn write_expected(args: &Args) -> io::Result<()> {
    let mut entries = oracle::compute(&CHECK);
    eprintln!("full-size oracle: the 5-motif census by enumeration takes minutes");
    entries.extend(oracle::compute(&FULL));
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json"));
    std::fs::write(&path, oracle::to_json(&entries))?;
    eprintln!("wrote {}; rebuild to use it", path.display());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("worker") => workloads::worker_main(),
        Some("daemon") if argv.len() == 2 => workloads::daemon_main(&argv[1]),
        _ => {}
    }
    let args = parse_args(&argv);
    let run = || -> io::Result<usize> {
        if args.write_expected {
            return write_expected(&args).map(|()| 0);
        }
        let out = out_dir(&args)?;
        if args.check {
            return check(&args, &out);
        }
        if args.all {
            return run_all(&args, &out);
        }
        let Some(w) = args.workload else { usage() };
        let outcome = run_one(w, &FULL, &args, args.trace, &out)?;
        println!("{}", outcome.result_line());
        Ok(outcome.failed)
    };
    match run() {
        Ok(0) => {}
        Ok(failed) => {
            eprintln!("fractal_bench: {failed} job(s) or run(s) failed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("fractal_bench: {e}");
            std::process::exit(1);
        }
    }
}
