//! Seeded request generation. A workload's whole request stream — the
//! priming requests and one cyclic sequence per connection — is a pure
//! function of `(workload, seed)`; the daemon sees only these bytes.

use crate::config::Workload;
use ucfg_grammar::text::parse_grammar;
use ucfg_grammar::Grammar;
use ucfg_support::rng::{Rng, SeedableRng, Xoshiro256StarStar};

/// Requests per connection sequence; a run cycles through them.
pub const SEQ_LEN: usize = 4096;
/// Requests per stream sequence (whole sessions, so cycling is consistent).
const STREAM_SESSIONS: usize = 48;

/// How a `/parse` or `/stream/open` request names its grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spec {
    /// Inline grammar text.
    Text(String),
    /// A builtin family at parameter `n`.
    Builtin(&'static str, usize),
}

impl Spec {
    /// The JSON fields naming this grammar (no braces).
    pub fn json_fields(&self) -> String {
        match self {
            Spec::Text(src) => format!("\"grammar\":{}", json_str(src)),
            Spec::Builtin(which, n) => format!("\"builtin\":\"{which}\",\"n\":{n}"),
        }
    }

    /// The grammar the daemon will build from this spec.
    pub fn build(&self) -> Grammar {
        match self {
            Spec::Text(src) => parse_grammar(src).expect("generated grammar text parses"),
            Spec::Builtin("appendix-a", n) => ucfg_core::ln_grammars::appendix_a_grammar(*n),
            Spec::Builtin("example3", n) => ucfg_core::ln_grammars::example3_grammar(*n),
            Spec::Builtin("example4", n) => ucfg_core::ln_grammars::example4_ucfg(*n),
            Spec::Builtin(other, _) => panic!("no builtin {other}"),
        }
    }
}

/// A `/parse` grammar of the workload with its word pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrammarDef {
    /// How requests name it.
    pub spec: Spec,
    /// The words requests draw from.
    pub words: Vec<String>,
}

/// The stream-session grammars (all unambiguous, infinite languages).
pub const STREAM_GRAMMARS: [&str; 3] =
    ["S -> a S b S | ()", "S -> a S b | ()", "S -> a S | b S | b"];
/// The product-layer regexes sessions may register.
pub const STREAM_REGEXES: [&str; 3] = ["a(a|b)*b", "(a|b)*bb", "(ab)*"];

/// What a request does, as the reference check needs to know it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `/parse` of `word` against grammar `g` of the plan.
    Parse { g: usize, word: String, check: bool },
    /// `/cover/verify` or `/discrepancy`.
    Rect {
        discrepancy: bool,
        family: &'static str,
        n: usize,
    },
    /// `/stream/open`; `id` is the deterministic session id.
    Open {
        id: u64,
        grammar: usize,
        window: usize,
        regex: Option<usize>,
    },
    /// `/stream/feed` with tokens; `after` is the window model after it.
    Feed {
        id: u64,
        fed: usize,
        evicted: u64,
        after: Window,
    },
    /// `/stream/feed` with a truncate position.
    Truncate { id: u64, after: Window },
    /// `/stream/query`.
    Query { id: u64, after: Window },
    /// `/stream/close`.
    Close { id: u64 },
    /// `GET /healthz`.
    Healthz,
}

/// The benchmark's own model of a session window after a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Session grammar (index into [`STREAM_GRAMMARS`]).
    pub grammar: usize,
    /// Registered regex (index into [`STREAM_REGEXES`]).
    pub regex: Option<usize>,
    /// Absolute stream position.
    pub total: u64,
    /// Oldest position still in the window.
    pub base: u64,
    /// The window content.
    pub text: String,
}

/// One request: its meaning and its exact bytes (sent in one write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// What it asks.
    pub op: Op,
    /// The complete HTTP/1.1 request.
    pub wire: Vec<u8>,
}

impl Req {
    fn new(op: Op, path: &str, body: Option<String>) -> Req {
        let wire = match body {
            Some(b) => format!(
                "POST {path} HTTP/1.1\r\nHost: loadbench\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            ),
            None => format!("GET {path} HTTP/1.1\r\nHost: loadbench\r\nContent-Length: 0\r\n\r\n"),
        };
        Req {
            op,
            wire: wire.into_bytes(),
        }
    }

    /// `GET /healthz`.
    pub fn healthz() -> Req {
        Req::new(Op::Healthz, "/healthz", None)
    }

    /// The request body (empty for GETs).
    pub fn body(&self) -> &[u8] {
        let at = self
            .wire
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("generated requests have a header end");
        &self.wire[at + 4..]
    }
}

/// Everything one run sends, before any timing starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The workload's `/parse` grammars.
    pub grammars: Vec<GrammarDef>,
    /// Sent once per set-up, before timing (warms the artifact cache).
    pub priming: Vec<Req>,
    /// One cyclic request sequence per connection.
    pub conns: [Vec<Req>; 2],
}

impl Plan {
    #[cfg(test)]
    /// Every request bytes of the plan, concatenated: the seed's request
    /// stream.
    pub fn stream_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in self
            .priming
            .iter()
            .chain(&self.conns[0])
            .chain(&self.conns[1])
        {
            out.extend_from_slice(&r.wire);
        }
        out
    }
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn rng_for(seed: u64, stream: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Split `total` into integer counts proportional to `weights` (largest
/// remainder), so every seed sends exactly the same mix.
fn exact_counts(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (shares[a] - shares[a].floor(), shares[b] - shares[b].floor());
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(missing) {
        counts[i] += 1;
    }
    counts
}

/// Zipf(`s`) weights over ranks `0..n`.
fn zipf(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect()
}

/// A random finite grammar of a fixed shape: `S` has one body of
/// `branching[0]` non-terminals of layer 1; every non-terminal of layer
/// `i` has two distinct bodies of `branching[i]` non-terminals of layer
/// `i + 1`; each of the `width` bottom non-terminals derives two
/// distinct letters of `{a, b, c}`. Every word has length
/// `∏ branching`, the grammar size is fixed by the shape, and the seed
/// only picks symbols. No ε- or unit rules, no repeated alternatives and
/// no recursion, so the language is finite and the CNF conversion keeps
/// parse counts.
fn shaped_grammar(rng: &mut Xoshiro256StarStar, branching: &[usize], width: usize) -> String {
    const LETTERS: [char; 3] = ['a', 'b', 'c'];
    let name = |layer: usize, i: usize| -> String {
        if layer == 0 {
            "S".to_string()
        } else {
            format!("{}{i}", (b'A' + layer as u8) as char)
        }
    };
    let mut out = String::new();
    for (layer, &k) in branching.iter().enumerate() {
        let (count, rules) = if layer == 0 { (1, 1) } else { (width, 2) };
        for i in 0..count {
            let mut bodies: Vec<String> = Vec::new();
            while bodies.len() < rules {
                let body = (0..k)
                    .map(|_| name(layer + 1, rng.random_range(0..width)))
                    .collect::<Vec<_>>()
                    .join(" ");
                // A repeated alternative would count its trees twice.
                if !bodies.contains(&body) {
                    bodies.push(body);
                }
            }
            out.push_str(&format!("{} -> {}\n", name(layer, i), bodies.join(" | ")));
        }
    }
    for i in 0..width {
        let mut letters = LETTERS.to_vec();
        rng.shuffle(&mut letters);
        out.push_str(&format!(
            "{} -> {} | {}\n",
            name(branching.len(), i),
            letters[0],
            letters[1]
        ));
    }
    out
}

/// A random word derived from `g`'s start symbol (so a member).
fn derive(rng: &mut Xoshiro256StarStar, g: &Grammar) -> String {
    use ucfg_grammar::Symbol;
    fn go(
        rng: &mut Xoshiro256StarStar,
        g: &Grammar,
        nt: ucfg_grammar::NonTerminal,
        out: &mut String,
    ) {
        let rules: Vec<_> = g.rules_for(nt).collect();
        let rule = rules[rng.random_range(0..rules.len())];
        for s in &rule.rhs {
            match *s {
                Symbol::T(t) => out.push(g.letter(t)),
                Symbol::N(m) => go(rng, g, m, out),
            }
        }
    }
    let mut out = String::new();
    go(rng, g, g.start(), &mut out);
    out
}

/// `count` words for a shaped grammar: even ones derived (members), odd
/// ones a derived word with one letter changed to another letter of the
/// grammar (mostly not members).
fn text_words(rng: &mut Xoshiro256StarStar, g: &Grammar, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let w = derive(rng, g);
            if i % 2 == 0 {
                return w;
            }
            // Stay inside the grammar's alphabet, so `"check": true`
            // requests always reach the Earley cross-check.
            let alphabet = g.alphabet();
            let mut cs: Vec<char> = w.chars().collect();
            let at = rng.random_range(0..cs.len());
            let k = alphabet
                .iter()
                .position(|&c| c == cs[at])
                .expect("derived letter");
            cs[at] = alphabet[(k + 1) % alphabet.len()];
            cs.into_iter().collect()
        })
        .collect()
}

/// `count` words of length `2n` over `{a, b}`: even ones in `L_n` (some
/// `i` with `a` at `i` and `i + n`), odd ones not.
fn ln_words(rng: &mut Xoshiro256StarStar, n: usize, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let mut x = vec!['b'; n];
            let mut y = vec!['b'; n];
            for k in 0..n {
                match rng.random_range(0..3u32) {
                    0 => x[k] = 'a',
                    1 => y[k] = 'a',
                    _ => {}
                }
            }
            if i % 2 == 0 {
                let k = rng.random_range(0..n);
                x[k] = 'a';
                y[k] = 'a';
            }
            x.into_iter().chain(y).collect()
        })
        .collect()
}

fn parse_req(plan_g: &[GrammarDef], g: usize, word: String, check: bool) -> Req {
    let body = format!(
        "{{{},\"word\":{}{}}}",
        plan_g[g].spec.json_fields(),
        json_str(&word),
        if check { ",\"check\":true" } else { "" }
    );
    Req::new(Op::Parse { g, word, check }, "/parse", Some(body))
}

/// Shapes of the eight `parse_hot` grammars, by Zipf rank (words 8–32).
const HOT_SHAPES: [&[usize]; 8] = [
    &[2, 2, 2, 2],
    &[2, 2, 3],
    &[2, 2, 2, 3],
    &[2, 2, 2],
    &[3, 2, 3],
    &[2, 2, 2, 2, 2],
    &[2, 3, 2],
    &[3, 3, 3],
];

/// The eight small `parse_hot` grammars with 16 words each.
fn hot_grammars(rng: &mut Xoshiro256StarStar) -> Vec<GrammarDef> {
    HOT_SHAPES
        .iter()
        .map(|shape| {
            let src = shaped_grammar(rng, shape, 3);
            let g = parse_grammar(&src).expect("generated grammar parses");
            let words = text_words(rng, &g, 16);
            GrammarDef {
                spec: Spec::Text(src),
                words,
            }
        })
        .collect()
}

/// `/parse` traffic over `grammars`: exactly `weights`-proportional
/// request counts per grammar, spread evenly (see [`stratified`]), words
/// cycling through each pool in seeded order, every tenth request of a
/// grammar with the Earley cross-check.
fn parse_sequence(
    rng: &mut Xoshiro256StarStar,
    grammars: &[GrammarDef],
    weights: &[f64],
) -> Vec<Req> {
    let counts = exact_counts(weights, SEQ_LEN);
    let mut draws: Vec<Vec<(String, bool)>> = counts
        .iter()
        .enumerate()
        .map(|(g, &count)| {
            let words = &grammars[g].words;
            let mut d: Vec<(String, bool)> = (0..count)
                .map(|k| (words[k % words.len()].clone(), k % 10 == 9))
                .collect();
            rng.shuffle(&mut d);
            d
        })
        .collect();
    stratified(rng, &counts)
        .into_iter()
        .map(|g| {
            let (word, check) = draws[g].pop().expect("counts match draws");
            parse_req(grammars, g, word, check)
        })
        .collect()
}

/// An order of `counts[k]` copies of each `k` in which every stretch of
/// requests carries close to the overall mix: smooth weighted
/// round-robin, then a seeded shuffle within consecutive chunks of
/// [`CHUNK`]. A phase consumes only part of a sequence, so a plain
/// shuffle would let its cost swing with how many of the rare, heavy
/// requests it happens to hold.
fn stratified(rng: &mut Xoshiro256StarStar, counts: &[usize]) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    let mut credit = vec![0i64; counts.len()];
    let mut order: Vec<usize> = (0..total)
        .map(|_| {
            for (c, &n) in credit.iter_mut().zip(counts) {
                *c += n as i64;
            }
            let k = (0..counts.len())
                .max_by_key(|&k| (credit[k], std::cmp::Reverse(k)))
                .expect("non-empty");
            credit[k] -= total as i64;
            k
        })
        .collect();
    for chunk in order.chunks_mut(CHUNK) {
        rng.shuffle(chunk);
    }
    order
}

/// Requests per locally shuffled chunk of a [`stratified`] order.
const CHUNK: usize = 32;

fn priming_for(grammars: &[GrammarDef], count: usize) -> Vec<Req> {
    (0..count.min(grammars.len()))
        .map(|g| parse_req(grammars, g, grammars[g].words[0].clone(), false))
        .collect()
}

/// Shapes of the `parse_churn` random grammars (words 32–144), cycled by rank.
const CHURN_SHAPES: [&[usize]; 8] = [
    &[2, 2, 2, 2, 2],
    &[2, 2, 2, 2, 3],
    &[2, 2, 2, 2, 2, 2],
    &[2, 2, 2, 3, 3],
    &[2, 2, 2, 2, 2, 3],
    &[2, 2, 3, 3, 3],
    &[2, 2, 2, 2, 3, 3],
    &[2, 2, 2, 2, 2, 2, 2],
];

/// The `parse_churn` population: 256 grammars whose kind and size at
/// each Zipf rank are fixed (so every seed has the same cost profile);
/// the seed picks the random grammars' symbols and every word. Builtins:
/// 32 `appendix-a` (n 16–80), 8 `example3` (n 4–11, where the reference
/// `TreeCounter` stays cheap) and 4 `example4` (n 4–7).
fn churn_grammars(rng: &mut Xoshiro256StarStar) -> Vec<GrammarDef> {
    (0..256usize)
        .map(|rank| {
            let spec = match (rank % 8, rank % 32, rank % 64) {
                (1, _, _) => Spec::Builtin("appendix-a", 16 + (rank * 7) % 65),
                (_, 5, _) => Spec::Builtin("example3", 4 + rank / 32),
                (_, _, 3) => Spec::Builtin("example4", 4 + rank / 64),
                _ => Spec::Text(shaped_grammar(rng, CHURN_SHAPES[rank % 8], 4)),
            };
            let words = match &spec {
                Spec::Builtin(_, n) => ln_words(rng, *n, 4),
                Spec::Text(src) => text_words(
                    rng,
                    &parse_grammar(src).expect("generated grammar parses"),
                    4,
                ),
            };
            GrammarDef { spec, words }
        })
        .collect()
}

fn rect_req(discrepancy: bool, family: &'static str, n: usize) -> Req {
    let body = format!("{{\"n\":{n},\"family\":\"{family}\"}}");
    let path = if discrepancy {
        "/discrepancy"
    } else {
        "/cover/verify"
    };
    Req::new(
        Op::Rect {
            discrepancy,
            family,
            n,
        },
        path,
        Some(body),
    )
}

/// The `certify` mix: (discrepancy?, family, n, weight per mille).
pub const CERTIFY_MIX: [(bool, &str, usize, u32); 10] = [
    (false, "example8", 8, 400),
    (false, "example8", 9, 150),
    (false, "example8", 10, 60),
    (false, "example8", 11, 20),
    (false, "example8", 12, 20),
    (false, "extraction", 4, 100),
    (false, "extraction", 5, 100),
    (true, "example8", 8, 80),
    (true, "example8", 12, 40),
    (true, "extraction", 4, 30),
];

/// Exactly the `CERTIFY_MIX` proportions, spread evenly (see
/// [`stratified`]).
fn certify_sequence(rng: &mut Xoshiro256StarStar) -> Vec<Req> {
    let weights: Vec<f64> = CERTIFY_MIX.iter().map(|m| f64::from(m.3)).collect();
    stratified(rng, &exact_counts(&weights, SEQ_LEN))
        .into_iter()
        .map(|k| {
            let (d, f, n, _) = CERTIFY_MIX[k];
            rect_req(d, f, n)
        })
        .collect()
}

/// Priming for `certify`: every rectangle family the mix touches.
fn certify_priming() -> Vec<Req> {
    let mut seen = Vec::new();
    for &(_, f, n, _) in &CERTIFY_MIX {
        if !seen.contains(&(f, n)) {
            seen.push((f, n));
        }
    }
    seen.into_iter()
        .map(|(f, n)| rect_req(false, f, n))
        .collect()
}

/// One stream session's fixed parameters.
struct Shape {
    /// Window capacity.
    window: usize,
    /// Index into [`STREAM_GRAMMARS`].
    grammar: usize,
    /// Index into [`STREAM_REGEXES`], if any.
    regex: Option<usize>,
    /// Tokens per feed.
    lens: &'static [usize],
    /// Truncate to half the window before the last feed.
    truncate: bool,
}

/// The stream sessions' shapes. The same for every seed and for
/// every run of 12 sessions — one at W = 1024, four at 256, seven at 64
/// — with one fixed feed plan per window size, so every stretch of the
/// stream sequence costs the same and only the order within a run of 12
/// and the tokens depend on the seed. W = 1024 sessions stop at 700
/// tokens: a query over a full 1024-token window costs ~0.4 s (its CYK
/// count) and would dominate the workload.
fn stream_shapes() -> Vec<Shape> {
    (0..STREAM_SESSIONS)
        .map(|s| {
            let (window, lens): (usize, &'static [usize]) = match s % 12 {
                0 => (1024, &[200, 500]),
                1 | 4 | 7 | 10 => (256, &[64, 200, 512]),
                _ => (64, &[16, 48, 160]),
            };
            let regex = match s % 4 {
                3 => None,
                r => Some(r),
            };
            Shape {
                window,
                grammar: s % STREAM_GRAMMARS.len(),
                regex,
                lens,
                truncate: s % 3 == 0,
            }
        })
        .collect()
}

/// A stream session's request script: open, feeds each followed by a
/// query, a truncate to half the window before the last feed in every
/// third shape, close.
fn stream_sequence(rng: &mut Xoshiro256StarStar) -> Vec<Req> {
    // Each run of 12 sessions holds one W = 1024 session, four at 256
    // and seven at 64; the seed orders sessions within those runs.
    let mut shapes = stream_shapes();
    for chunk in shapes.chunks_mut(12) {
        rng.shuffle(chunk);
    }
    let mut out = Vec::new();
    for (s, shape) in shapes.into_iter().enumerate() {
        let Shape {
            window,
            grammar,
            regex,
            lens,
            truncate,
        } = shape;
        let name = format!("s{}", s % 8);
        let g = parse_grammar(STREAM_GRAMMARS[grammar]).expect("stream grammar parses");
        let id = ucfg_stream::session_id(
            g.content_hash(),
            window,
            regex.map(|r| STREAM_REGEXES[r]),
            &name,
        );
        let mut body = format!(
            "{{\"grammar\":{},\"window\":{window},\"name\":\"{name}\"",
            json_str(STREAM_GRAMMARS[grammar])
        );
        if let Some(r) = regex {
            body.push_str(&format!(",\"regex\":{}", json_str(STREAM_REGEXES[r])));
        }
        body.push('}');
        out.push(Req::new(
            Op::Open {
                id,
                grammar,
                window,
                regex,
            },
            "/stream/open",
            Some(body),
        ));
        let mut tokens: Vec<char> = Vec::new();
        let mut base = 0usize;
        let snap = |tokens: &[char], base: usize| Window {
            grammar,
            regex,
            total: tokens.len() as u64,
            base: base as u64,
            text: tokens[base..].iter().collect(),
        };
        let hex = format!("{id:016x}");
        let feeds = lens.len();
        for (f, &len) in lens.iter().enumerate() {
            if truncate && f + 1 == feeds {
                let to = base + (tokens.len() - base) / 2;
                tokens.truncate(to);
                let body = format!("{{\"session\":\"{hex}\",\"truncate\":{to}}}");
                let after = snap(&tokens, base);
                out.push(Req::new(
                    Op::Truncate { id, after },
                    "/stream/feed",
                    Some(body),
                ));
            }
            // Biased towards `a` early and `b` late, so balanced windows occur.
            let chunk: String = (0..len)
                .map(|i| {
                    let p_a = if i < len / 2 { 0.6 } else { 0.4 };
                    if rng.random_bool(p_a) {
                        'a'
                    } else {
                        'b'
                    }
                })
                .collect();
            tokens.extend(chunk.chars());
            let new_base = tokens.len().saturating_sub(window).max(base);
            let evicted = (new_base - base) as u64;
            base = new_base;
            let body = format!("{{\"session\":\"{hex}\",\"tokens\":\"{chunk}\"}}");
            let after = snap(&tokens, base);
            out.push(Req::new(
                Op::Feed {
                    id,
                    fed: len,
                    evicted,
                    after: after.clone(),
                },
                "/stream/feed",
                Some(body),
            ));
            let body = format!("{{\"session\":\"{hex}\"}}");
            out.push(Req::new(
                Op::Query { id, after },
                "/stream/query",
                Some(body),
            ));
        }
        let body = format!("{{\"session\":\"{hex}\"}}");
        out.push(Req::new(Op::Close { id }, "/stream/close", Some(body)));
    }
    out
}

/// Build the plan for `workload` at `seed`.
pub fn plan(workload: &Workload, seed: u64) -> Plan {
    let mut rng = rng_for(seed, 1);
    let two_parse_lanes = |grammars: Vec<GrammarDef>, weights: Vec<f64>, primed: usize| Plan {
        conns: [
            parse_sequence(&mut rng_for(seed, 2), &grammars, &weights),
            parse_sequence(&mut rng_for(seed, 3), &grammars, &weights),
        ],
        priming: priming_for(&grammars, primed),
        grammars,
    };
    match workload.name {
        "parse_hot" => two_parse_lanes(hot_grammars(&mut rng), zipf(8, workload.zipf_s), 8),
        "parse_churn" => two_parse_lanes(churn_grammars(&mut rng), zipf(256, workload.zipf_s), 32),
        "certify" => Plan {
            grammars: Vec::new(),
            priming: certify_priming(),
            conns: [
                certify_sequence(&mut rng_for(seed, 2)),
                certify_sequence(&mut rng_for(seed, 3)),
            ],
        },
        "stream_mixed" => {
            let grammars = hot_grammars(&mut rng);
            let parse = parse_sequence(&mut rng_for(seed, 3), &grammars, &zipf(8, workload.zipf_s));
            Plan {
                priming: priming_for(&grammars, grammars.len()),
                grammars,
                conns: [stream_sequence(&mut rng_for(seed, 2)), parse],
            }
        }
        other => panic!("unknown workload {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WORKLOADS;

    #[test]
    fn same_seed_gives_byte_identical_request_stream() {
        for w in &WORKLOADS {
            let a = plan(w, 7).stream_bytes();
            let b = plan(w, 7).stream_bytes();
            assert_eq!(a, b, "{}", w.name);
            let c = plan(w, 8).stream_bytes();
            assert_ne!(a, c, "{}: another seed must give another stream", w.name);
        }
    }

    #[test]
    fn every_seed_sends_the_same_mix() {
        let kinds = |p: &Plan| {
            let mut k: Vec<String> = p.conns[1]
                .iter()
                .map(|r| match &r.op {
                    Op::Parse { g, word, check } => format!("{g}/{}/{check}", word.len()),
                    other => format!("{other:?}"),
                })
                .collect();
            k.sort();
            k
        };
        for w in &WORKLOADS {
            let (a, b) = (plan(w, 1), plan(w, 2));
            assert_eq!(kinds(&a), kinds(&b), "{}", w.name);
        }
        assert_eq!(exact_counts(&[1.0, 1.0, 2.0], 10), vec![3, 2, 5]);
    }

    #[test]
    fn stratified_orders_spread_every_kind() {
        let mut rng = rng_for(1, 1);
        let counts = [600, 300, 80, 20];
        let order = stratified(&mut rng, &counts);
        assert_eq!(order.len(), 1000);
        for (k, &n) in counts.iter().enumerate() {
            assert_eq!(order.iter().filter(|&&x| x == k).count(), n);
            // Any 200 consecutive requests hold the kind's share, give or
            // take what the two partly covered chunks at the ends can shift.
            let share = n as f64 / 1000.0;
            for w in order.windows(200) {
                let got = w.iter().filter(|&&x| x == k).count() as f64;
                assert!(
                    (got - 200.0 * share).abs() <= 2.0 + 2.0 * CHUNK as f64 * share,
                    "kind {k}: {got}"
                );
            }
        }
    }

    #[test]
    fn requests_are_well_formed_http() {
        let p = plan(&WORKLOADS[3], 1);
        for r in p.conns.iter().flatten() {
            let mut asm = ucfg_serve::http::Assembler::new(Default::default());
            asm.push(&r.wire);
            let req = asm
                .next()
                .expect("valid request")
                .expect("complete request");
            assert_eq!(req.body, r.body());
        }
    }
}
