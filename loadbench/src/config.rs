//! The fixed per-workload numbers, picked once from seed 1 on the commit
//! that introduced this benchmark and never re-derived per run, so two
//! commits are always driven at the same rates:
//!
//! * `low` ≈ 25 % of that run's closed-loop `throughput_rps`;
//! * `high` ≈ 50 % (not 70 %: on the shared 2-vCPU machine the benchmark
//!   was built on, 70 % ran into the capacity dips other tenants cause
//!   and the phase measured backlog instead of service);
//! * the ladder: five rungs a factor 1.19 apart from ≈ 60 % of that
//!   throughput, past it;
//! * the p99 limit ≈ 5 × that run's `lat_p99_us.low`.

/// One workload's traffic shape and fixed rates.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Open-loop `low` rate, requests per second (both connections).
    pub low_rps: f64,
    /// Open-loop `high` rate.
    pub high_rps: f64,
    /// The geometric rate ladder, ascending.
    pub ladder_rps: [f64; 5],
    /// p99 latency limit for the ladder, µs.
    pub p99_limit_us: f64,
    /// Share of open-loop requests sent on connection 0 (the rest on 1).
    /// Matches the per-connection completion split of the closed loop,
    /// so neither connection is pushed past its own capacity first.
    pub conn0_share: f64,
    /// Zipf exponent over the `/parse` grammars (unused by `certify`).
    pub zipf_s: f64,
    /// Fractions of `--seconds` spent in the closed loop, `low`, `high`
    /// and the whole ladder (sized so `low` and `high` reach ≥ 1000
    /// samples at their rates).
    pub split: [f64; 4],
}

/// The daemon set-up is repeated at least `SETUPS.0` and at most
/// `SETUPS.1` times, stopping once `SETUP_BUDGET_S` is spent; `setup_s`
/// is the median.
pub const SETUPS: (usize, usize) = (3, 11);
/// Set-up time after which no further set-up starts, seconds.
pub const SETUP_BUDGET_S: f64 = 1.5;

/// A request not answered within this long counts as failed.
pub const REQUEST_TIMEOUT_S: f64 = 10.0;

/// Shards and worker threads of the daemon under test.
pub const SHARDS: usize = 2;
/// `UCFG_THREADS` of the daemon under test.
pub const THREADS: usize = 2;

const fn ladder(from: f64) -> [f64; 5] {
    const R: f64 = 1.19;
    [
        from,
        from * R,
        from * R * R,
        from * R * R * R,
        from * R * R * R * R,
    ]
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "parse_hot",
        low_rps: 2640.0,
        high_rps: 5280.0,
        ladder_rps: ladder(6330.0),
        p99_limit_us: 2000.0,
        conn0_share: 0.5,
        zipf_s: 1.0,
        split: [0.15, 0.3, 0.3, 0.25],
    },
    Workload {
        name: "parse_churn",
        low_rps: 360.0,
        high_rps: 720.0,
        ladder_rps: ladder(870.0),
        p99_limit_us: 70000.0,
        conn0_share: 0.5,
        zipf_s: 0.8,
        split: [0.15, 0.3, 0.3, 0.25],
    },
    Workload {
        name: "certify",
        low_rps: 130.0,
        high_rps: 260.0,
        ladder_rps: ladder(315.0),
        p99_limit_us: 350000.0,
        conn0_share: 0.5,
        zipf_s: 0.0,
        split: [0.1, 0.45, 0.3, 0.15],
    },
    Workload {
        name: "stream_mixed",
        low_rps: 360.0,
        high_rps: 720.0,
        ladder_rps: ladder(870.0),
        p99_limit_us: 390000.0,
        conn0_share: 0.41,
        zipf_s: 1.0,
        split: [0.15, 0.3, 0.3, 0.25],
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
