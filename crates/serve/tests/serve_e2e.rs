//! End-to-end tests against a real daemon on a loopback socket.
//!
//! The acceptance criteria from the serving issues, verified live:
//! warm repeats of the same `/parse` hit the artifact cache (hit
//! counter up, no extra index build), responses are byte-identical
//! across worker-thread *and* shard counts, the connection budget
//! applies accept backpressure (late connections wait their turn
//! instead of being refused), and queue deadlines answer 504.
//!
//! The obs registry is process-global, so everything runs inside one
//! `#[test]` with sequential phases rather than racing tests.

use std::time::Duration;
use ucfg_serve::{Client, Json, ServeConfig, Server};
use ucfg_support::obs;

fn start(
    cfg: ServeConfig,
) -> (
    String,
    ucfg_serve::ServerHandle,
    std::thread::JoinHandle<ucfg_serve::ServeSummary>,
) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("run"));
    (addr, handle, join)
}

fn counter(name: &str) -> u64 {
    obs::counter(name).value()
}

#[test]
fn end_to_end() {
    obs::set_enabled(true);

    // ---- Phase 1: cache warm-up, counters, differential cross-check.
    let (addr, _handle, join) = start(ServeConfig {
        port: 0,
        ..ServeConfig::default()
    });
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");

    let health = c.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);
    let v = Json::parse(health.body.trim_end()).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(v.get("shards"), Some(&Json::Int(1)));
    assert_eq!(
        v.get("connections"),
        Some(&Json::Int(1)),
        "our own connection is live: {}",
        health.body
    );

    let parse_body = r#"{"grammar":"S -> a S b S | ()","word":"aabb","check":true}"#;
    let hits_before = counter("serve.cache.hits");
    let builds_before = counter("cyk.index_builds");

    let cold = c
        .request("POST", "/parse", Some(parse_body))
        .expect("parse");
    assert_eq!(cold.status, 200, "{}", cold.body);
    let v = Json::parse(cold.body.trim_end()).unwrap();
    assert_eq!(v.get("member"), Some(&Json::Bool(true)));
    assert_eq!(v.get("parse_count").and_then(Json::as_str), Some("1"));
    assert_eq!(v.get("ambiguous"), Some(&Json::Bool(false)));
    assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(v.get("cross_check").and_then(Json::as_str), Some("ok"));

    let builds_after_cold = counter("cyk.index_builds");
    assert_eq!(
        builds_after_cold,
        builds_before + 1,
        "cold query compiles exactly one index"
    );

    // Warm repeat: byte-identical except the cache tag flips, hit
    // counter increments, and — the headline — no index rebuild.
    let warm = c
        .request("POST", "/parse", Some(parse_body))
        .expect("parse");
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.body,
        cold.body.replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
        "warm answer identical apart from the cache tag"
    );
    assert!(
        counter("serve.cache.hits") > hits_before,
        "hit counter moved"
    );
    assert_eq!(
        counter("cyk.index_builds"),
        builds_after_cold,
        "warm repeat must not rebuild the index"
    );

    // Repeat again: still identical bytes.
    let warm2 = c
        .request("POST", "/parse", Some(parse_body))
        .expect("parse");
    assert_eq!(warm2.body, warm.body);

    // An ambiguous grammar reports exact counts.
    let amb = c
        .request(
            "POST",
            "/parse",
            Some(r#"{"grammar":"S -> S S | a","word":"aaa","check":true}"#),
        )
        .expect("parse");
    let v = Json::parse(amb.body.trim_end()).unwrap();
    assert_eq!(v.get("ambiguous"), Some(&Json::Bool(true)));
    assert_eq!(v.get("parse_count").and_then(Json::as_str), Some("2"));

    // Builtin grammars resolve and cache under their content hash.
    let b1 = c
        .request(
            "POST",
            "/parse",
            Some(r#"{"builtin":"example4","n":3,"word":"aababb"}"#),
        )
        .expect("parse");
    assert_eq!(b1.status, 200, "{}", b1.body);
    let b2 = c
        .request(
            "POST",
            "/parse",
            Some(r#"{"builtin":"example4","n":3,"word":"aababb"}"#),
        )
        .expect("parse");
    let v = Json::parse(b2.body.trim_end()).unwrap();
    assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));

    // Cover + discrepancy endpoints against the Example 8 family.
    let cover = c
        .request(
            "POST",
            "/cover/verify",
            Some(r#"{"n":4,"family":"example8"}"#),
        )
        .expect("cover");
    assert_eq!(cover.status, 200);
    let v = Json::parse(cover.body.trim_end()).unwrap();
    assert_eq!(v.get("covers_exactly"), Some(&Json::Bool(true)));
    let disc = c
        .request(
            "POST",
            "/discrepancy",
            Some(r#"{"n":4,"family":"example8"}"#),
        )
        .expect("discrepancy");
    let v = Json::parse(disc.body.trim_end()).unwrap();
    assert_eq!(v.get("sums_to_gap"), Some(&Json::Bool(true)));

    // Protocol errors.
    let bad = c.request("POST", "/parse", Some("{}")).expect("bad");
    assert_eq!(bad.status, 400);
    let missing = c.request("GET", "/nope", None).expect("404");
    assert_eq!(missing.status, 404);

    // Metrics endpoints: volatile last, deterministic view without it.
    let m = c.request("GET", "/metrics", None).expect("metrics");
    assert!(m.body.contains("\"serve.requests.parse\""));
    assert!(m.body.contains("\"volatile\""));
    // The `"check":true` parses above ran the Earley cross-check on the
    // chart the stream layer also uses, with no stream traffic at all:
    // the deterministic `stream.*` counters must not have moved.
    let metrics = Json::parse(m.body.trim_end()).unwrap();
    let counters = metrics.get("counters").expect("counters");
    for name in ["stream.tokens", "stream.chart_cells_reused"] {
        let v = counters.get(name).and_then(Json::as_i64).unwrap_or(0);
        assert_eq!(v, 0, "{name} moved by batch cross-checks alone");
    }
    let d = c
        .request("GET", "/metrics/deterministic", None)
        .expect("metrics det");
    assert!(!d.body.contains("\"volatile\""));

    // Graceful shutdown over the wire: POST /shutdown, run() returns.
    let bye = c.request("POST", "/shutdown", None).expect("shutdown");
    assert_eq!(bye.status, 200);
    assert!(bye.body.contains("draining"));
    let summary = join.join().expect("clean join");
    assert!(
        summary.requests >= 13,
        "answered {} requests",
        summary.requests
    );

    // ---- Phase 2: thread- and shard-count independence of response
    // bytes.
    let script: Vec<(&str, &str, Option<&str>)> = vec![
        (
            "POST",
            "/parse",
            Some(r#"{"grammar":"S -> a S b S | ()","word":"abab","check":true}"#),
        ),
        (
            "POST",
            "/parse",
            Some(r#"{"grammar":"S -> a S b S | ()","word":"abab","check":true}"#),
        ),
        (
            "POST",
            "/parse",
            Some(r#"{"builtin":"example4","n":2,"word":"abab"}"#),
        ),
        ("POST", "/cover/verify", Some(r#"{"n":5}"#)),
        ("POST", "/discrepancy", Some(r#"{"n":4}"#)),
    ];
    let mut transcripts = Vec::new();
    for (threads, shards) in [(1usize, 1usize), (4, 4)] {
        ucfg_support::par::set_thread_count(threads);
        let (addr, handle, join) = start(ServeConfig {
            port: 0,
            shards,
            ..ServeConfig::default()
        });
        let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
        let mut transcript = String::new();
        for (method, path, body) in &script {
            let r = c.request(method, path, *body).expect("scripted request");
            transcript.push_str(&format!("{} {}\n", r.status, r.body));
        }
        handle.shutdown();
        join.join().expect("clean join");
        transcripts.push(transcript);
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "responses must be byte-identical across (threads, shards) = (1,1) and (4,4)"
    );
    // The 4-shard run left its per-shard traffic in the volatile
    // stratum (shard placement is layout-dependent, so it must never
    // appear in the deterministic one).
    let volatile = obs::export_json("serve");
    assert!(
        volatile.contains(".cache.hits") && volatile.contains("serve.shard."),
        "per-shard counters recorded"
    );
    assert!(
        !obs::export_deterministic("serve").contains("serve.shard."),
        "per-shard counters must stay out of the deterministic stratum"
    );

    // ---- Phase 3: the connection budget applies *accept
    // backpressure* — a connection over the budget parks in the kernel
    // backlog and is served once a slot frees, rather than being
    // answered 503 or dropped.
    let (addr, handle, join) = start(ServeConfig {
        port: 0,
        max_connections: 1,
        ..ServeConfig::default()
    });
    let mut keep = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    let held = keep.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(held.status, 200);
    // Second connection: TCP-accepted into the backlog, but its request
    // can't be answered while the first holds the only slot.
    let waiter = std::thread::spawn(move || {
        let mut extra = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
        extra.request("GET", "/healthz", None).expect("healthz")
    });
    // Give the waiter time to queue, then free the slot.
    std::thread::sleep(Duration::from_millis(200));
    drop(keep);
    let late = waiter.join().expect("waiter thread");
    assert_eq!(
        late.status, 200,
        "backpressured connection must be served once the slot frees: {}",
        late.body
    );
    handle.shutdown();
    join.join().expect("clean join");

    // ---- Phase 4: queue-level load shedding over the wire. Deadline 0
    // forces every queued job to be rejected at dequeue (504), proving
    // the deadline path; depth bounds were proven at the unit level.
    let (addr, handle, join) = start(ServeConfig {
        port: 0,
        deadline_ms: 0,
        ..ServeConfig::default()
    });
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    let r = c
        .request("POST", "/parse", Some(r#"{"grammar":"S -> a","word":"a"}"#))
        .expect("parse");
    assert_eq!(r.status, 504, "{}", r.body);
    assert!(r.body.contains("deadline_exceeded"), "{}", r.body);
    handle.shutdown();
    join.join().expect("clean join");
}
