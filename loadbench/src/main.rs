//! `ucfg-loadbench`: the repository's end-to-end benchmark. It drives a
//! real `ucfg serve` child process with seeded traffic, checks every
//! answer against an independent reference, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! ```text
//! ucfg-loadbench --daemon target/release/ucfg --scratch target/loadbench \
//!     --workload parse_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `loadbench/run.sh` builds both binaries and fills in the two paths.

mod config;
mod daemon;
mod gen;
mod load;
mod probe;
mod reference;
mod scrape;
mod stats;
mod trace;
mod wire;

use config::{Workload, SETUPS, SETUP_BUDGET_S, SHARDS, THREADS};
use daemon::Daemon;
use gen::Req;
use load::{Lane, Phase};
use reference::Expect;
use scrape::Scrape;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wire::Conn;

/// Every end-to-end metric (`--trace 0`): name, unit, and whether it is
/// gated, i.e. listed under `end_to_end` in `BENCHMARK.json` and put in
/// the result JSON. Latency and throughput are printed but not gated:
/// other tenants of the shared 2-vCPU machine this benchmark was built
/// on take 1–25 % of its CPU time in bursts, which moved them by 2× and
/// more between runs of the same code. CPU time per request, peak
/// memory, set-up time and the answer check held still.
pub const END_TO_END: [(&str, &str, bool); 12] = [
    ("setup_s", "s", true),
    ("throughput_rps", "1/s", false),
    ("lat_p50_us.low", "us", false),
    ("lat_p99_us.low", "us", false),
    ("lat_p50_us.high", "us", false),
    ("lat_p99_us.high", "us", false),
    ("max_rate_rps", "1/s", false),
    ("cpu_ms_per_kreq", "ms", true),
    ("cpu_ms_per_kreq.low", "ms", true),
    ("rss_peak_mib", "MiB", true),
    ("ok_share", "ratio", true),
    ("fail_share", "ratio", false),
];

/// Every per-layer metric (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("ref.loopback_rtt_us", "us"),
    ("ref.healthz_single_write_us", "us"),
    ("ref.healthz_client_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("server.healthz_rtt_us", "us"),
    ("server.flush_writes_per_req", "ratio"),
    ("http.assemble_ns", "ns"),
    ("http.render_ns", "ns"),
    ("json.parse_ns", "ns"),
    ("json.render_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("protocol.grammar_build_us", "us"),
    ("grammar.content_hash_us", "us"),
    ("batch.handoff_us", "us"),
    ("batch.size_mean", "count"),
    ("batch.per_req", "ratio"),
    ("shard.skew", "ratio"),
    ("batch.shed", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.compile_grammar_us.p50", "us"),
    ("cache.compile_grammar_us.p99", "us"),
    ("cache.compile_rects_ms", "ms"),
    ("cyk.index_build_us", "us"),
    ("cyk.fill_us", "us"),
    ("cyk.count_us", "us"),
    ("earley.check_us", "us"),
    ("cover.verify_us.n8", "us"),
    ("cover.verify_us.n9", "us"),
    ("cover.verify_us.n10", "us"),
    ("cover.verify_us.n11", "us"),
    ("cover.verify_us.n12", "us"),
    ("cover.discrepancy_us.n8", "us"),
    ("cover.discrepancy_us.n12", "us"),
    ("simd.avx2_share", "ratio"),
    ("par.spawn_us", "us"),
    ("par.serial_share", "ratio"),
    ("arena.hit_ratio", "ratio"),
    ("stream.open_us", "us"),
    ("stream.feed_us_per_token.w64", "us"),
    ("stream.feed_us_per_token.w256", "us"),
    ("stream.feed_us_per_token.w1024", "us"),
    ("stream.query_us", "us"),
    ("stream.cells_reused_per_token", "count"),
    ("attr.unattributed_us", "us"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon, mut scratch) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(config::workload(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value()?)),
            "--scratch" => scratch = Some(PathBuf::from(value()?)),
            other => return Err(format!("unrecognised argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        daemon: daemon.ok_or("--daemon <path to ucfg> is required")?,
        scratch: scratch.unwrap_or_else(|| PathBuf::from("target/loadbench")),
    })
}

fn fingerprint() -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let simd = match ucfg_support::simd::backend() {
        ucfg_support::simd::Backend::Avx2 => "avx2",
        ucfg_support::simd::Backend::Scalar => "scalar",
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "git_rev={rev} nproc={nproc} simd={simd} UCFG_THREADS={THREADS} shards={SHARDS} profile={profile}"
    )
}

/// Send the priming requests, checking every answer.
fn prime(addr: &str, reqs: &[Req], expect: &[Expect]) -> Result<(), String> {
    let mut c = Conn::connect(addr).map_err(|e| format!("priming connect: {e}"))?;
    for (r, e) in reqs.iter().zip(expect) {
        let resp = c
            .roundtrip(&r.wire, Duration::from_secs(60))
            .map_err(|e| format!("priming: {e}"))?;
        e.check(resp.status, &resp.body)
            .map_err(|e| format!("priming answer wrong: {e}"))?;
    }
    Ok(())
}

/// Median round trip of `/healthz` bytes through a bare `std::net` echo.
fn loopback_rtt_us(reps: usize) -> f64 {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let wire = Req::healthz().wire;
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_nodelay(true).expect("nodelay");
        let mut buf = [0u8; 4096];
        while let Ok(k) = s.read(&mut buf) {
            if k == 0 || s.write_all(&buf[..k]).is_err() {
                break;
            }
        }
    });
    let mut c = std::net::TcpStream::connect(addr).expect("connect loopback");
    c.set_nodelay(true).expect("nodelay");
    let mut back = vec![0u8; wire.len()];
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            c.write_all(&wire).expect("echo write");
            c.read_exact(&mut back).expect("echo read");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    drop(c);
    echo.join().expect("echo thread");
    stats::median(&samples)
}

/// Median `/healthz` round trip through the one-write client.
fn healthz_us(addr: &str, reps: usize) -> Result<f64, String> {
    let mut c = Conn::connect(addr).map_err(|e| e.to_string())?;
    let wire = Req::healthz().wire;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let r = c
            .roundtrip(&wire, Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
        if r.status != 200 {
            return Err(format!("/healthz status {}", r.status));
        }
    }
    Ok(stats::median(&samples))
}

/// Median `/healthz` round trip through `ucfg_serve::Client::request`.
fn healthz_client_us(addr: &str, reps: usize) -> Result<f64, String> {
    let mut c = ucfg_serve::Client::connect(addr).map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        c.request("GET", "/healthz", None)
            .map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(stats::median(&samples))
}

/// `low` and `high` each run as this many interleaved blocks.
const BLOCKS: usize = 5;

/// Phases of one run, plus the daemon readings taken around them.
struct Measured {
    phases: Vec<Phase>,
    /// Daemon CPU time over the `low` and `high` blocks, ms.
    cpu_low_ms: f64,
    cpu_high_ms: f64,
    rss_mib: f64,
    /// `/metrics` + `/healthz` after set-up and after each phase (traced run).
    scrapes: Vec<Scrape>,
}

fn measure(args: &Args, d: &Daemon, lanes: &mut [Lane<'_>; 2]) -> Result<Measured, String> {
    let w = args.workload;
    let secs = |i: usize| args.seconds * w.split[i];
    let mut scrapes = Vec::new();
    let mut scrape_conn = if args.trace {
        Some(Conn::connect(&d.addr).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut snap = |scrapes: &mut Vec<Scrape>| -> Result<(), String> {
        if let Some(c) = scrape_conn.as_mut() {
            scrapes.push(scrape::scrape(c)?);
        }
        Ok(())
    };
    snap(&mut scrapes)?;
    let mut phases = vec![load::closed(lanes, secs(0))];
    snap(&mut scrapes)?;
    // `low` and `high` run interleaved in short blocks, so a stretch of
    // noise on the shared machine lands on both alike.
    let (mut low, mut high) = (Vec::new(), Vec::new());
    let (mut cpu_low_ms, mut cpu_high_ms) = (0.0, 0.0);
    let cpu = || d.cpu_ms().map_err(|e| e.to_string());
    for _ in 0..BLOCKS {
        let cpu0 = cpu()?;
        low.push(load::open(
            lanes,
            "low".into(),
            w.low_rps,
            w.conn0_share,
            secs(1) / BLOCKS as f64,
        ));
        let cpu1 = cpu()?;
        high.push(load::open(
            lanes,
            "high".into(),
            w.high_rps,
            w.conn0_share,
            secs(2) / BLOCKS as f64,
        ));
        cpu_low_ms += cpu1 - cpu0;
        cpu_high_ms += cpu()? - cpu1;
    }
    // Peak memory of the workload's traffic, read before the ladder,
    // whose deliberate overload buffers however many requests it outruns.
    let rss_mib = d.rss_peak_mib().map_err(|e| e.to_string())?;
    phases.push(Phase::merge("low".into(), low));
    phases.push(Phase::merge("high".into(), high));
    snap(&mut scrapes)?;
    let rung = secs(3) / w.ladder_rps.len() as f64;
    // Climb until the first rung misses the limit: rungs above it only
    // pile up backlog.
    for &rate in &w.ladder_rps {
        let p = load::open(
            lanes,
            format!("ladder.{rate:.0}"),
            rate,
            w.conn0_share,
            rung,
        );
        let passed = rung_passes(&p, w.p99_limit_us);
        phases.push(p);
        snap(&mut scrapes)?;
        if !passed {
            break;
        }
    }
    Ok(Measured {
        phases,
        cpu_low_ms,
        cpu_high_ms,
        rss_mib,
        scrapes,
    })
}

/// Does a ladder rung meet the limit with no growing backlog?
fn rung_passes(p: &Phase, limit_us: f64) -> bool {
    p.failed == 0 && p.p99_calm_us <= limit_us && p.tail_p50_us <= limit_us
}

/// Highest ladder rate meeting the p99 limit: the last rung of the
/// passing prefix, refined by log–log interpolation of p99 towards the
/// first failing rung (the `low` phase stands below the ladder).
fn max_rate(low: &Phase, ladder: &[Phase], limit_us: f64) -> f64 {
    let k = ladder
        .iter()
        .take_while(|p| rung_passes(p, limit_us))
        .count();
    if k == ladder.len() {
        return ladder[k - 1].rate.expect("open loop");
    }
    let below = if k == 0 { low } else { &ladder[k - 1] };
    let above = &ladder[k];
    let (r0, r1) = (
        below.rate.expect("open loop"),
        above.rate.expect("open loop"),
    );
    let (p0, p1) = (below.p99_calm_us, above.p99_calm_us);
    if above.failed > 0
        || p1.partial_cmp(&p0) != Some(std::cmp::Ordering::Greater)
        || p0.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
    {
        return r0;
    }
    let frac = ((limit_us / p0).ln() / (p1 / p0).ln()).clamp(0.0, 1.0);
    r0 * (r1 / r0).powf(frac)
}

fn phase_line(p: &Phase) -> String {
    format!(
        "phase {:<14} offered_rps={:<8} samples={:<6} attempted={:<6} succeeded={:<6} (per connection {:?}) failed={:<4} wrong={:<3} p50_us={:<9.1} p99_us={:<9.1} calm_p50_us={:<9.1} calm_p99_us={:<9.1} tail_p50_us={:<9.1} lag_p50_us={:.1} lag_p99_us={:.1}{}",
        p.name,
        p.rate.map_or("closed".into(), |r| format!("{r:.0}")),
        p.lat_us.len(),
        p.attempted,
        p.succeeded,
        p.per_lane,
        p.failed,
        p.wrong,
        p.p(0.5),
        p.p(0.99),
        p.p50_calm_us,
        p.p99_calm_us,
        p.tail_p50_us,
        stats::percentile_sorted(&p.lag_us, 0.5),
        stats::percentile_sorted(&p.lag_us, 0.99),
        p.first_error.as_ref().map_or(String::new(), |e| format!("  first_error: {e}"))
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(
    args: &Args,
    plan: &gen::Plan,
    m: &Measured,
    refs: [f64; 3],
    healthz_warm_us: f64,
) -> Vec<(&'static str, f64)> {
    let w = args.workload;
    let d = m.scrapes.last().expect("scraped").since(&m.scrapes[0]);
    let requests = d.sum_prefix("serve.requests.");
    let jobs = ["parse", "cover", "discrepancy", "stream_"]
        .iter()
        .map(|k| d.sum_prefix(&format!("serve.requests.{k}")))
        .sum::<f64>();
    let per_shard: Vec<f64> = (0..SHARDS)
        .map(|i| d.sum_prefix(&format!("serve.shard.{i}.cache.")))
        .collect();
    let shard_mean = per_shard.iter().sum::<f64>() / SHARDS as f64;
    let flush = d.get("healthz.flush_writes");
    let mut lags: Vec<f64> = m.phases[1..]
        .iter()
        .flat_map(|p| p.lag_us.iter().copied())
        .collect();
    lags.sort_by(f64::total_cmp);

    // In-process replay of this workload's own requests; layers it never
    // calls are timed on the same seed's requests of the workload where
    // they do the most work.
    let mut layers = trace::replay(plan, Duration::from_secs(4));
    let own_blocking = stats::median(&layers.blocking_us);
    let own_replayed = layers.replayed;
    let fallbacks: [(&str, &str, f64); 3] = [
        ("cyk.fill_us", "parse_hot", 1.0),
        ("stream.open_us", "stream_mixed", 2.0),
        ("cache.compile_rects_ms", "certify", 0.0),
    ];
    for (layer, donor, budget) in fallbacks {
        if !layers.has(layer) {
            let donor_plan = gen::plan(config::workload(donor).expect("known donor"), args.seed);
            let extra = trace::replay(&donor_plan, Duration::from_secs_f64(budget));
            for (k, v) in extra.samples {
                layers.samples.entry(k).or_insert(v);
            }
            for (k, v) in extra.feed {
                layers.feed.entry(k).or_insert(v);
            }
        }
    }
    trace::kernel_sweep(&mut layers);
    let handoff = trace::handoff_us(2000);
    let par_spawn = trace::par_spawn_us(500);
    let low = &m.phases[1];
    let compile_rects: f64 = layers
        .samples
        .get("cache.compile_rects_ms")
        .map_or(0.0, |v| v.iter().sum());
    println!(
        "trace replayed {own_replayed} requests of {} in-process; median blocking-path sum {own_blocking:.1} us",
        w.name
    );

    vec![
        ("ref.loopback_rtt_us", refs[0]),
        ("ref.healthz_single_write_us", refs[1]),
        ("ref.healthz_client_us", refs[2]),
        ("gen.lag_p99_us", stats::percentile_sorted(&lags, 0.99)),
        ("server.healthz_rtt_us", healthz_warm_us),
        ("server.flush_writes_per_req", ratio(flush, requests)),
        ("http.assemble_ns", layers.median("http.assemble_ns")),
        ("http.render_ns", layers.median("http.render_ns")),
        ("json.parse_ns", layers.median("json.parse_ns")),
        ("json.render_ns", layers.median("json.render_ns")),
        ("protocol.decode_ns", layers.median("protocol.decode_ns")),
        (
            "protocol.grammar_build_us",
            layers.median("protocol.grammar_build_us"),
        ),
        (
            "grammar.content_hash_us",
            layers.median("grammar.content_hash_us"),
        ),
        ("batch.handoff_us", handoff),
        (
            "batch.size_mean",
            ratio(
                d.get("serve.batch.size.total_ns"),
                d.get("serve.batch.size.count"),
            ),
        ),
        ("batch.per_req", ratio(d.get("serve.batches"), jobs)),
        (
            "shard.skew",
            ratio(per_shard.iter().copied().fold(0.0, f64::max), shard_mean),
        ),
        ("batch.shed", d.sum_prefix("serve.rejects.")),
        (
            "cache.hit_ratio",
            ratio(
                d.get("serve.cache.hits"),
                d.get("serve.cache.hits") + d.get("serve.cache.misses"),
            ),
        ),
        ("cache.evictions", d.get("serve.cache.evictions")),
        (
            "cache.compile_grammar_us.p50",
            layers.percentile("cache.compile_grammar_us", 0.5),
        ),
        (
            "cache.compile_grammar_us.p99",
            layers.percentile("cache.compile_grammar_us", 0.99),
        ),
        ("cache.compile_rects_ms", compile_rects),
        ("cyk.index_build_us", layers.median("cyk.index_build_us")),
        ("cyk.fill_us", layers.median("cyk.fill_us")),
        ("cyk.count_us", layers.median("cyk.count_us")),
        ("earley.check_us", layers.median("earley.check_us")),
        ("cover.verify_us.n8", layers.median("cover.verify_us.n8")),
        ("cover.verify_us.n9", layers.median("cover.verify_us.n9")),
        ("cover.verify_us.n10", layers.median("cover.verify_us.n10")),
        ("cover.verify_us.n11", layers.median("cover.verify_us.n11")),
        ("cover.verify_us.n12", layers.median("cover.verify_us.n12")),
        (
            "cover.discrepancy_us.n8",
            layers.median("cover.discrepancy_us.n8"),
        ),
        (
            "cover.discrepancy_us.n12",
            layers.median("cover.discrepancy_us.n12"),
        ),
        (
            "simd.avx2_share",
            ratio(
                d.get("simd.dispatch.avx2"),
                d.get("simd.dispatch.avx2") + d.get("simd.dispatch.scalar"),
            ),
        ),
        ("par.spawn_us", par_spawn),
        (
            "par.serial_share",
            ratio(d.get("par.serial_hits"), d.get("par.calls")),
        ),
        (
            "arena.hit_ratio",
            ratio(
                d.get("arena.hits"),
                d.get("arena.hits") + d.get("arena.misses"),
            ),
        ),
        ("stream.open_us", layers.median("stream.open_us")),
        ("stream.feed_us_per_token.w64", layers.feed_us_per_token(64)),
        (
            "stream.feed_us_per_token.w256",
            layers.feed_us_per_token(256),
        ),
        (
            "stream.feed_us_per_token.w1024",
            layers.feed_us_per_token(1024),
        ),
        ("stream.query_us", layers.median("stream.query_us")),
        (
            "stream.cells_reused_per_token",
            ratio(d.get("stream.chart_cells_reused"), d.get("stream.tokens")),
        ),
        (
            "attr.unattributed_us",
            low.p50_calm_us - (refs[0] + own_blocking + handoff),
        ),
    ]
}

/// The limits probe on a daemon of its own.
fn run_probe(args: &Args) -> Result<Vec<probe::Outcome>, String> {
    let mut d = Daemon::spawn(&args.daemon, &args.scratch).map_err(|e| format!("spawn: {e}"))?;
    daemon::wait_healthy(&d.addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    let outcomes = probe::run(&mut d);
    d.stop();
    Ok(outcomes)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns a negative zero into zero.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    println!(
        "loadbench workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint {}", fingerprint());
    if !args.daemon.is_file() {
        return Err(format!("no daemon binary at {}", args.daemon.display()));
    }

    // The limits probe runs on a daemon of its own while the reference
    // answers are computed, both before any set-up or timing.
    let t = Instant::now();
    let plan = gen::plan(w, args.seed);
    let (outcomes, (prime_expect, conn_expect)) = std::thread::scope(|s| {
        let probe = (!args.trace).then(|| s.spawn(|| run_probe(&args)));
        let expect = reference::Reference::for_plan(&plan);
        println!(
            "reference precompute {:.2} s for {} + {} requests",
            t.elapsed().as_secs_f64(),
            plan.conns[0].len(),
            plan.conns[1].len()
        );
        let outcomes = probe.map(|h| h.join().expect("probe thread")).transpose();
        (outcomes, expect)
    });
    let outcomes = outcomes?.unwrap_or_default();

    // Set up several times (see `SETUPS`); keep the last daemon for the run.
    let mut setups: Vec<f64> = Vec::new();
    let d = loop {
        let t = Instant::now();
        let d = Daemon::spawn(&args.daemon, &args.scratch).map_err(|e| format!("spawn: {e}"))?;
        daemon::wait_healthy(&d.addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
        prime(&d.addr, &plan.priming, &prime_expect)?;
        setups.push(t.elapsed().as_secs_f64());
        let spent: f64 = setups.iter().sum();
        if setups.len() >= SETUPS.1 || (setups.len() >= SETUPS.0 && spent >= SETUP_BUDGET_S) {
            break d;
        }
        d.stop();
    };
    println!("setup_s runs {:?}", setups);

    let refs = [
        loopback_rtt_us(2000),
        healthz_us(&d.addr, 2000)?,
        healthz_client_us(&d.addr, 2000)?,
    ];
    for (name, v) in [
        "ref.loopback_rtt_us",
        "ref.healthz_single_write_us",
        "ref.healthz_client_us",
    ]
    .iter()
    .zip(refs)
    {
        println!("{name} {v:.2} us");
    }

    let mut lanes = [0, 1].map(|i| Lane {
        addr: &d.addr,
        seq: &plan.conns[i],
        expect: &conn_expect[i],
        conn: None,
        cursor: 0,
    });
    let m = measure(&args, &d, &mut lanes)?;
    drop(lanes);
    for p in &m.phases {
        println!("{}", phase_line(p));
    }
    let attempted: usize = m.phases.iter().map(|p| p.attempted).sum();
    let failed: usize = m.phases.iter().map(|p| p.failed).sum();
    let mut correct = m.phases.iter().all(|p| p.wrong == 0);

    let metrics: Vec<(&str, f64)> = if args.trace {
        let warm = healthz_us(&d.addr, 2000)?;
        d.stop();
        per_layer(&args, &plan, &m, refs, warm)
    } else {
        d.stop();
        let mut probe_failed = 0;
        for o in &outcomes {
            correct &= !o.wrong;
            match &o.result {
                Ok(s) => println!("probe {:<36} succeeded in {s:.2} s", o.name),
                Err(e) => {
                    probe_failed += 1;
                    println!("probe {:<36} FAILED: {e}", o.name);
                }
            }
        }
        let all_attempted = attempted + outcomes.len();
        let all_failed = failed + probe_failed;
        println!("{all_failed} failed of {all_attempted} attempted, limits probe included");
        let closed = &m.phases[0];
        let (low, high) = (&m.phases[1], &m.phases[2]);
        vec![
            ("setup_s", stats::median(&setups)),
            ("throughput_rps", closed.window_rps),
            ("lat_p50_us.low", low.p50_calm_us),
            ("lat_p99_us.low", low.p99_calm_us),
            ("lat_p50_us.high", high.p50_calm_us),
            ("lat_p99_us.high", high.p99_calm_us),
            (
                "max_rate_rps",
                max_rate(low, &m.phases[3..], w.p99_limit_us),
            ),
            (
                "cpu_ms_per_kreq",
                ratio(m.cpu_high_ms, high.succeeded as f64 / 1e3),
            ),
            (
                "cpu_ms_per_kreq.low",
                ratio(m.cpu_low_ms, low.succeeded as f64 / 1e3),
            ),
            ("rss_peak_mib", m.rss_mib),
            (
                "ok_share",
                1.0 - ratio(all_failed as f64, all_attempted as f64),
            ),
            ("fail_share", ratio(all_failed as f64, all_attempted as f64)),
        ]
    };

    let table: Vec<(&str, &str, bool)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u)| (n, u, true)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut fields = Vec::new();
    for (name, value) in &metrics {
        let &(_, unit, gated) = table
            .iter()
            .find(|m| m.0 == *name)
            .expect("every metric is listed");
        let v = json_number(*value);
        println!(
            "metric {name} {v} {unit}{}",
            if gated { "" } else { " (not gated)" }
        );
        if gated {
            fields.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("loadbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucfg_serve::Json;

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// workloads, gated end-to-end metrics and per-layer metrics this
    /// program runs and prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to loadbench/");
        let v = Json::parse(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = v.get(key) else {
                panic!("{key} is a list")
            };
            items
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let names = |xs: Vec<(String, String)>| xs.into_iter().map(|x| x.0).collect::<Vec<_>>();
        let want_workloads: Vec<String> = config::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names(list("workloads")), want_workloads);
        let gated: Vec<(String, String)> = END_TO_END
            .iter()
            .filter(|m| m.2)
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), gated);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(list("per_layer"), layers);
    }
}
