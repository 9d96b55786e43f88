//! Emits the headline figure data as CSV for plotting: the Theorem 1
//! separation over a dense `n`-sweep. The CSV goes to stdout and to
//! `out/separation_sweep.csv` (override the directory with
//! `$UCFG_OUT_DIR`).
//!
//! Usage:
//!   sweep                  # CSV to stdout + out/separation_sweep.csv
//!   sweep 512              # sweep up to the given n (default 256)
//!   sweep --kernels        # bitmap-kernel sweep (default max n 16) to
//!                          # stdout + out/kernel_sweep.csv
//!   sweep --threads 4      # worker threads (default: $UCFG_THREADS,
//!                          # else available cores); also -j 4,
//!                          # --threads=4, -j4
//!   sweep --chunk-bits N   # block size of the blocked wordset scans
//!                          # (sets UCFG_WORDSET_CHUNK); also
//!                          # --chunk-bits=N
//!   sweep --trace          # kernel metrics (or UCFG_TRACE=1): summary
//!                          # table to stderr + out/METRICS_sweep.json
//!
//! Columns: n, |L_n| (log2), CFG size, pattern-NFA transitions, exact-NFA
//! transitions, DAWG-uCFG size, Example 4 uCFG size (log2), Proposition 16
//! uCFG lower bound (log2). Fields not computed at a given `n` render as
//! the `NA` sentinel, so every row has the full column count.
//!
//! The sweep is deterministic: the same `n` ceiling yields a
//! byte-identical CSV regardless of the thread count — and so is the
//! non-`"volatile"` section of the metrics JSON, which the CI
//! determinism job byte-compares across `UCFG_THREADS` settings.

use ucfg_bench::sweep::{kernel_sweep_csv, sweep_csv};
use ucfg_support::bench::out_dir;
use ucfg_support::{obs, par};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (raw, trace) = obs::strip_trace_flag(&raw);
    if trace {
        obs::set_enabled(true);
    }
    let args = par::strip_thread_flags(&raw).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        std::process::exit(2);
    });
    let args = ucfg_core::wordset::chunked::strip_chunk_flags(&args).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        std::process::exit(2);
    });
    let mut max_n: Option<usize> = None;
    let mut kernels = false;
    for a in &args {
        match a.as_str() {
            "--kernels" => kernels = true,
            other => match other.parse() {
                Ok(v) => max_n = Some(v),
                Err(_) => {
                    eprintln!("sweep: unrecognised argument '{other}'");
                    std::process::exit(2);
                }
            },
        }
    }
    let threads = par::thread_count();
    let (csv, file) = if kernels {
        // The exhaustive columns cap themselves (NA above their
        // thresholds), so the default ceiling just bounds the cheap ones.
        (
            kernel_sweep_csv(max_n.unwrap_or(16), threads),
            "kernel_sweep.csv",
        )
    } else {
        (
            sweep_csv(max_n.unwrap_or(256), threads),
            "separation_sweep.csv",
        )
    };
    print!("{csv}");
    let dir = out_dir();
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &csv)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("sweep written to {}", path.display());
    }
    if obs::enabled() {
        match obs::write_metrics("sweep") {
            Ok(p) => eprintln!("metrics written to {}", p.display()),
            Err(e) => eprintln!("warning: could not write metrics: {e}"),
        }
        eprintln!("{}", obs::summary());
    }
}
