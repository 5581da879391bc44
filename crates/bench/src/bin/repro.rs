//! The reproduction harness.
//!
//! ```text
//! repro <experiment|all> [--scale tiny|small|paper] [--out DIR]
//! ```
//!
//! Experiments (one per table/figure of the paper; see DESIGN.md):
//! fig8 fig11 fig12 fig13 fig15 fig16 fig17 fig18 fig19 fig20a fig20b
//! table2 memest reduction-ec ws-overhead

#![forbid(unsafe_code)]

use fractal_bench::datasets::Scale;
use fractal_bench::experiments;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut out_dir = PathBuf::from("results");
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale takes tiny|small|paper"));
            }
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).unwrap_or_else(|| die("--out takes a dir")));
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        usage();
        std::process::exit(2);
    }
    std::fs::create_dir_all(&out_dir).ok();
    let list: Vec<&str> = if targets.iter().any(|t| t == "all") {
        experiments::ALL.to_vec()
    } else {
        targets.iter().map(|s| s.as_str()).collect()
    };
    println!(
        "fractal repro — scale {:?}, output {}\n",
        scale,
        out_dir.display()
    );
    let t0 = std::time::Instant::now();
    for id in list {
        let started = std::time::Instant::now();
        if !experiments::run(id, scale, &out_dir) {
            eprintln!("unknown experiment {id:?}; known: {:?}", experiments::ALL);
            std::process::exit(2);
        }
        println!("[{id} done in {:.1}s]\n", started.elapsed().as_secs_f64());
    }
    println!("all done in {:.1}s", t0.elapsed().as_secs_f64());
}

fn usage() {
    println!(
        "usage: repro <experiment|all>... [--scale tiny|small|paper] [--out DIR]\n\
         experiments: {}",
        experiments::ALL.join(" ")
    );
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
