//! Prints the experiment report: all tables/figures, or selected ids.
//! A full report is also written to `out/report_output.txt` (override
//! the directory with `$UCFG_OUT_DIR`).
//!
//! Usage:
//!   report            # everything, to stdout + out/report_output.txt
//!   report T5 T8      # selected experiments, stdout only
//!   report --list     # available experiment ids
//!   report --threads 4  # worker threads (overrides $UCFG_THREADS);
//!                       # also -j 4, --threads=4, -j4
//!   report --chunk-bits N  # block size of the blocked wordset scans
//!                          # (sets UCFG_WORDSET_CHUNK); also --chunk-bits=N
//!   report --trace    # per-experiment metrics (or UCFG_TRACE=1):
//!                     # summary to stderr + out/METRICS_report.json

use ucfg_bench::experiments;
use ucfg_support::bench::out_dir;
use ucfg_support::{obs, par};

fn main() {
    // Strip the `--trace` and thread-override flags (the latter funnels
    // into UCFG_THREADS, so every parallel kernel in the experiments
    // honours it); the remaining arguments are experiment ids.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (raw, trace) = obs::strip_trace_flag(&raw);
    if trace {
        obs::set_enabled(true);
    }
    let args = par::strip_thread_flags(&raw).unwrap_or_else(|e| {
        eprintln!("report: {e}");
        std::process::exit(2);
    });
    let args = ucfg_core::wordset::chunked::strip_chunk_flags(&args).unwrap_or_else(|e| {
        eprintln!("report: {e}");
        std::process::exit(2);
    });
    if args.iter().any(|a| a == "--list" || a == "-l") {
        println!("available experiments (see DESIGN.md §5):");
        for id in experiments::ALL_EXPERIMENTS {
            println!("  {id}");
        }
        return;
    }
    if args.is_empty() {
        let report = experiments::full_report();
        print!("{report}");
        let dir = out_dir();
        let path = dir.join("report_output.txt");
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &report))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("report written to {}", path.display());
        }
    } else {
        for id in &args {
            print!("{}", experiments::run(id));
        }
    }
    if obs::enabled() {
        match obs::write_metrics("report") {
            Ok(p) => eprintln!("metrics written to {}", p.display()),
            Err(e) => eprintln!("warning: could not write metrics: {e}"),
        }
        eprintln!("{}", obs::summary());
    }
}
