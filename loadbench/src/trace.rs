//! The traced run's in-process half: replay a seed's request sequence
//! one call at a time through the public functions the daemon calls, in
//! the daemon's order, and time each layer from outside.
//!
//! Per request the blocking path is: `http::Assembler` → `Json::parse` →
//! `*Request::from_json` → `GrammarSpec::build` + `Grammar::content_hash`
//! (event-loop thread) → shard hand-off → artifact lookup → kernel (CYK
//! fill + count, Earley check, cover / discrepancy, stream op) → JSON
//! render → `http::render_response`. The hand-off is timed separately on
//! a standalone `Scheduler` (see [`handoff_us`]).

use crate::gen::{Op, Plan, Req};
use crate::stats::{median, percentile_sorted};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ucfg_grammar::cyk::{CykChart, CykRuleIndex};
use ucfg_serve::batch::{
    Job, ParseJob, ReplySink, Scheduler, SessionStore, MAX_SESSIONS_PER_SHARD,
};
use ucfg_serve::cache::{ArtifactCache, GrammarArtifact, RectsArtifact};
use ucfg_serve::http::{render_response, Assembler, Limits};
use ucfg_serve::protocol::{
    session_from_json, GrammarSpec, ParseRequest, RectRequest, StreamFeedRequest, StreamOpenRequest,
};
use ucfg_serve::Json;
use ucfg_stream::StreamSession;

/// Samples per layer (µs unless the name says otherwise).
#[derive(Debug, Default)]
pub struct Layers {
    /// Layer name → samples.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Stream feed time and tokens, per window capacity.
    pub feed: BTreeMap<usize, (f64, usize)>,
    /// Blocking-path sum of each replayed request, µs.
    pub blocking_us: Vec<f64>,
    /// Requests replayed.
    pub replayed: usize,
}

impl Layers {
    fn add(&mut self, layer: &'static str, v: f64) {
        self.samples.entry(layer).or_default().push(v);
    }

    /// Median of a layer's samples (NaN when it saw none).
    pub fn median(&self, layer: &str) -> f64 {
        self.samples.get(layer).map_or(f64::NAN, |v| median(v))
    }

    /// Percentile `q` of a layer's samples.
    pub fn percentile(&self, layer: &str, q: f64) -> f64 {
        self.samples.get(layer).map_or(f64::NAN, |v| {
            let mut v = v.clone();
            v.sort_by(f64::total_cmp);
            percentile_sorted(&v, q)
        })
    }

    /// Has the layer been timed?
    pub fn has(&self, layer: &str) -> bool {
        self.samples.get(layer).is_some_and(|v| !v.is_empty())
    }

    /// Stream feed µs per token at window `w` (NaN when never fed).
    pub fn feed_us_per_token(&self, w: usize) -> f64 {
        self.feed
            .get(&w)
            .map_or(f64::NAN, |&(us, t)| us / t.max(1) as f64)
    }
}

/// Time `f` in µs.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_nanos() as f64 / 1e3)
}

/// The artifacts the replay has compiled so far (the daemon's cache at
/// steady state: every artifact already built).
#[derive(Default)]
struct Warm {
    grammars: HashMap<u64, Arc<GrammarArtifact>>,
    rects: HashMap<(&'static str, usize), Arc<RectsArtifact>>,
    sessions: HashMap<u64, StreamSession>,
}

fn single_line(v: Json) -> String {
    let mut s = v.render();
    s.push('\n');
    s
}

/// Replay one request; returns its blocking-path µs.
fn replay_one(req: &Req, warm: &mut Warm, l: &mut Layers) -> f64 {
    let mut sum = 0.0;
    let mut asm = Assembler::new(Limits::default());
    let (http_req, us) = timed(|| {
        asm.push(&req.wire);
        asm.next()
            .expect("valid request")
            .expect("complete request")
    });
    l.add("http.assemble_ns", us * 1e3);
    sum += us;
    let text = std::str::from_utf8(&http_req.body).expect("UTF-8 body");
    let (json, us) = timed(|| Json::parse(text).unwrap_or(Json::Null));
    if !text.is_empty() {
        l.add("json.parse_ns", us * 1e3);
        sum += us;
    }
    let build_spec = |spec: &GrammarSpec, l: &mut Layers, sum: &mut f64| {
        let (g, us) = timed(|| spec.build().expect("generated specs build"));
        l.add("protocol.grammar_build_us", us);
        *sum += us;
        let (h, us) = timed(|| g.content_hash());
        l.add("grammar.content_hash_us", us);
        *sum += us;
        (g, h)
    };
    let body: Json = match &req.op {
        Op::Parse { .. } => {
            let (p, us) = timed(|| ParseRequest::from_json(&json).expect("valid /parse"));
            l.add("protocol.decode_ns", us * 1e3);
            sum += us;
            let (g, h) = build_spec(&p.spec, l, &mut sum);
            let art = warm.grammars.entry(h).or_insert_with(|| {
                let (art, us) = timed(|| GrammarArtifact::compile(g.clone()));
                l.add("cache.compile_grammar_us", us);
                let (_, us) = timed(|| CykRuleIndex::new(&art.cnf));
                l.add("cyk.index_build_us", us);
                art
            });
            let (member, count) = match art.cnf.encode(&p.word) {
                None => (false, "0".to_string()),
                Some(w) => {
                    let (chart, us) =
                        timed(|| CykChart::build_with_index(&art.cnf, &art.index, &w));
                    l.add("cyk.fill_us", us);
                    sum += us;
                    let (count, us) = timed(|| chart.count_trees());
                    l.add("cyk.count_us", us);
                    sum += us;
                    (chart.accepted(), count.to_string())
                }
            };
            if p.check {
                let (_, us) = timed(|| art.earley().recognize_str(&p.word));
                l.add("earley.check_us", us);
                sum += us;
            }
            Json::obj(vec![
                ("member", Json::Bool(member)),
                ("parse_count", Json::str(count)),
                ("ambiguous", Json::Bool(false)),
                ("grammar_hash", Json::str(format!("{h:016x}"))),
                ("cache", Json::str("hit")),
            ])
        }
        &Op::Rect {
            discrepancy,
            family,
            n,
            ..
        } => {
            let (r, us) =
                timed(|| RectRequest::from_json(&json, discrepancy).expect("valid rect request"));
            l.add("protocol.decode_ns", us * 1e3);
            sum += us;
            let rects = warm
                .rects
                .entry((family, n))
                .or_insert_with(|| {
                    let (a, us) = timed(|| RectsArtifact::build(r).expect("family builds"));
                    l.add("cache.compile_rects_ms", us / 1e3);
                    a
                })
                .clone();
            if discrepancy {
                let ((discs, sums), us) =
                    timed(|| ucfg_core::cover::discrepancy_accounting_threads(n, &rects.rects, 2));
                l.add(disc_layer(n), us);
                sum += us;
                Json::obj(vec![
                    ("n", Json::Int(n as i64)),
                    (
                        "discrepancies",
                        Json::Arr(discs.into_iter().map(Json::Int).collect()),
                    ),
                    ("sums_to_gap", Json::Bool(sums)),
                ])
            } else {
                let (rep, us) =
                    timed(|| ucfg_core::cover::verify_cover_threads(n, &rects.rects, 2));
                l.add(verify_layer(n), us);
                sum += us;
                Json::obj(vec![
                    ("n", Json::Int(n as i64)),
                    ("size", Json::Int(rep.size as i64)),
                    ("covers_exactly", Json::Bool(rep.covers_exactly)),
                    ("max_overlap", Json::Int(rep.max_overlap as i64)),
                ])
            }
        }
        Op::Open { id, .. } => {
            let (o, us) = timed(|| StreamOpenRequest::from_json(&json).expect("valid open"));
            l.add("protocol.decode_ns", us * 1e3);
            sum += us;
            let (g, _) = build_spec(&o.spec, l, &mut sum);
            let (s, us) = timed(|| {
                StreamSession::open(Arc::new(g), o.window, o.regex.as_deref(), &o.name)
                    .expect("session opens")
            });
            l.add("stream.open_us", us);
            sum += us;
            warm.sessions.insert(*id, s);
            Json::obj(vec![("session", Json::str(format!("{id:016x}")))])
        }
        Op::Feed { id, .. } | Op::Truncate { id, .. } => {
            let (f, us) = timed(|| StreamFeedRequest::from_json(&json).expect("valid feed"));
            l.add("protocol.decode_ns", us * 1e3);
            sum += us;
            let s = warm.sessions.get_mut(id).expect("feed after open");
            let (rep, us) = match &f {
                StreamFeedRequest::Tokens { text, .. } => {
                    let (rep, us) = timed(|| s.feed(text).expect("alphabet tokens"));
                    let e = l.feed.entry(s.capacity()).or_default();
                    e.0 += us;
                    e.1 += text.len();
                    (rep, us)
                }
                StreamFeedRequest::Truncate { to, .. } => {
                    timed(|| s.truncate(*to).expect("in range"))
                }
            };
            sum += us;
            Json::obj(vec![
                ("fed", Json::Int(rep.fed as i64)),
                ("total", Json::Int(rep.total as i64)),
                ("member", Json::Bool(rep.member)),
            ])
        }
        Op::Query { id, .. } | Op::Close { id } => {
            let (sid, us) = timed(|| session_from_json(&json).expect("valid session"));
            l.add("protocol.decode_ns", us * 1e3);
            sum += us;
            debug_assert_eq!(sid, *id);
            if matches!(req.op, Op::Close { .. }) {
                warm.sessions.remove(id);
                Json::obj(vec![("closed", Json::Bool(true))])
            } else {
                let s = warm.sessions.get(id).expect("query after open");
                let (q, us) = timed(|| s.query());
                l.add("stream.query_us", us);
                sum += us;
                Json::obj(vec![
                    ("window", Json::str(q.window)),
                    ("member", Json::Bool(q.member)),
                    ("count", Json::str(q.count)),
                ])
            }
        }
        Op::Healthz => Json::obj(vec![("status", Json::str("ok"))]),
    };
    let (text, us) = timed(|| single_line(body));
    l.add("json.render_ns", us * 1e3);
    sum += us;
    let (_, us) = timed(|| render_response(200, text.as_bytes(), false));
    l.add("http.render_ns", us * 1e3);
    sum += us;
    sum
}

/// The layer name of `verify_cover_threads` at `n`.
pub fn verify_layer(n: usize) -> &'static str {
    match n {
        8 => "cover.verify_us.n8",
        9 => "cover.verify_us.n9",
        10 => "cover.verify_us.n10",
        11 => "cover.verify_us.n11",
        12 => "cover.verify_us.n12",
        _ => "cover.verify_us.other",
    }
}

/// The layer name of `discrepancy_accounting_threads` at `n`.
pub fn disc_layer(n: usize) -> &'static str {
    match n {
        8 => "cover.discrepancy_us.n8",
        12 => "cover.discrepancy_us.n12",
        _ => "cover.discrepancy_us.other",
    }
}

/// Replay the plan's connection sequences, interleaved as the daemon
/// receives them, until `budget` runs out or both are exhausted. The
/// priming requests run first, untimed into the blocking sums, so
/// replayed requests see warm artifacts as the daemon's do.
pub fn replay(plan: &Plan, budget: Duration) -> Layers {
    let mut l = Layers::default();
    let mut warm = Warm::default();
    for r in &plan.priming {
        replay_one(r, &mut warm, &mut l);
    }
    let deadline = Instant::now() + budget;
    let longest = plan.conns[0].len().max(plan.conns[1].len());
    'outer: for i in 0..longest {
        for seq in &plan.conns {
            if let Some(r) = seq.get(i) {
                let us = replay_one(r, &mut warm, &mut l);
                l.blocking_us.push(us);
                l.replayed += 1;
            }
            if Instant::now() >= deadline {
                break 'outer;
            }
        }
    }
    l
}

/// Time the cover and discrepancy kernels at every `n` the per-layer
/// metrics name, on the daemon's own rectangle families, `reps` times
/// each (fewer at large n).
pub fn kernel_sweep(l: &mut Layers) {
    for n in 8..=12usize {
        let rects = crate::reference::family_rects("example8", n);
        let reps = if n >= 11 { 3 } else { 15 };
        for _ in 0..reps {
            let (_, us) = timed(|| ucfg_core::cover::verify_cover_threads(n, &rects, 2));
            l.add(verify_layer(n), us);
            if n == 8 || n == 12 {
                let (_, us) =
                    timed(|| ucfg_core::cover::discrepancy_accounting_threads(n, &rects, 2));
                l.add(disc_layer(n), us);
            }
        }
    }
}

/// `run_chunks(2, 2, …)` on empty chunks: the fixed cost of one parallel
/// call (median µs over `reps`).
pub fn par_spawn_us(reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| timed(|| ucfg_support::par::run_chunks(2, 2, |_| ())).1)
        .collect();
    median(&samples)
}

/// Shard hand-off on a standalone `Scheduler`: `try_enqueue` of a
/// trivial `/parse` job until its `ReplySink` fires on the caller
/// (median µs over `reps`, artifact already cached).
pub fn handoff_us(reps: usize) -> f64 {
    let sched = Scheduler::new(256, Duration::from_secs(30));
    let cache = Mutex::new(ArtifactCache::new(64));
    let sessions = Mutex::new(SessionStore::new(MAX_SESSIONS_PER_SHARD));
    let g = ucfg_grammar::text::parse_grammar("S -> a").expect("static grammar");
    let key = g.content_hash();
    let mut samples = Vec::with_capacity(reps);
    std::thread::scope(|s| {
        s.spawn(|| sched.run(&cache, &sessions));
        for i in 0..=reps {
            let (reply, rx) = ReplySink::channel();
            let t = Instant::now();
            sched
                .try_enqueue(Job::Parse(ParseJob {
                    key,
                    grammar: g.clone(),
                    word: "a".into(),
                    check: false,
                    enqueued: t,
                    reply,
                }))
                .expect("queue has room");
            let out = rx.recv().expect("scheduler replies");
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            assert!(out.is_ok_and(|o| o.member), "trivial job answers");
            if i > 0 {
                samples.push(us);
            }
        }
        sched.stop();
    });
    median(&samples)
}
