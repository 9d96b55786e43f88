//! The limits probe: one request at each endpoint's advertised maximum
//! (`ucfg_serve::protocol::MAX_*`), recorded as succeeded or failed.
//! Each endpoint has a fixed cap; waiting also stops when the daemon
//! exits. The requests go out one at a time after the measured phases,
//! with `/parse` `example4` n = 10 last: on the seed commit it never
//! answers (the daemon dies ~33 s later allocating a dense nts × nts
//! `CykRuleIndex` table), so it always fails at its cap.

use crate::daemon::Daemon;
use crate::gen::json_str;
use crate::reference::{in_language, Expect};
use crate::wire::Conn;
use std::time::{Duration, Instant};
use ucfg_grammar::count::TreeCounter;
use ucfg_grammar::text::parse_grammar;
use ucfg_serve::protocol::{
    MAX_COVER_N, MAX_EXAMPLE4_N, MAX_EXTRACTION_N, MAX_FEED_CHARS, MAX_STREAM_WINDOW, MAX_WORD_LEN,
};
use ucfg_serve::Json;

/// Fixed wait caps per endpoint.
const PARSE_CAP: Duration = Duration::from_secs(2);
const COVER_CAP: Duration = Duration::from_secs(20);
const STREAM_CAP: Duration = Duration::from_secs(10);

/// One probe request's outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What was sent.
    pub name: String,
    /// `Ok(seconds)` or why it failed.
    pub result: Result<f64, String>,
    /// The daemon answered 200 with something other than the reference.
    pub wrong: bool,
}

struct Probe {
    name: String,
    path: &'static str,
    body: String,
    cap: Duration,
    expect: Expect,
}

/// `S -> X8 X8`, `Xk -> Xk-1 Xk-1`, `X0 -> a | b`: exactly the words of
/// length 512, each with one parse tree.
fn doubling_grammar() -> String {
    let mut g = String::from("S -> X8 X8\n");
    for k in (1..=8).rev() {
        g.push_str(&format!("X{k} -> X{} X{}\n", k - 1, k - 1));
    }
    g.push_str("X0 -> a | b\n");
    g
}

fn probes() -> Vec<Probe> {
    let mut out = Vec::new();
    let grammar = doubling_grammar();
    let word: String = (0..MAX_WORD_LEN)
        .map(|i| if (i * 7 + i / 3) % 5 < 2 { 'a' } else { 'b' })
        .collect();
    let count = TreeCounter::new(&parse_grammar(&grammar).expect("static grammar"))
        .expect("finite grammar")
        .count_str(&word);
    out.push(Probe {
        name: format!("/parse word of {MAX_WORD_LEN} letters"),
        path: "/parse",
        body: format!("{{\"grammar\":{},\"word\":\"{word}\"}}", json_str(&grammar)),
        cap: PARSE_CAP,
        expect: Expect(vec![
            ("member", Json::Bool(!count.is_zero())),
            ("parse_count", Json::Str(count.to_string())),
        ]),
    });
    // The Example 8 cover of L_n and the Proposition 7 extraction are
    // exact covers by balanced rectangles (the extraction a partition).
    out.push(Probe {
        name: format!("/cover/verify example8 n={MAX_COVER_N}"),
        path: "/cover/verify",
        body: format!("{{\"n\":{MAX_COVER_N},\"family\":\"example8\"}}"),
        cap: COVER_CAP,
        expect: Expect(vec![
            ("size", Json::Int(MAX_COVER_N as i64)),
            ("covers_exactly", Json::Bool(true)),
            ("all_balanced", Json::Bool(true)),
        ]),
    });
    out.push(Probe {
        name: format!("/cover/verify extraction n={MAX_EXTRACTION_N}"),
        path: "/cover/verify",
        body: format!("{{\"n\":{MAX_EXTRACTION_N},\"family\":\"extraction\"}}"),
        cap: COVER_CAP,
        expect: Expect(vec![
            ("covers_exactly", Json::Bool(true)),
            ("disjoint", Json::Bool(true)),
            ("all_balanced", Json::Bool(true)),
        ]),
    });
    let dyck = "S -> a S b S | ()";
    let id = ucfg_stream::session_id(
        parse_grammar(dyck).expect("static grammar").content_hash(),
        MAX_STREAM_WINDOW,
        None,
        "probe",
    );
    out.push(Probe {
        name: format!("/stream/open window={MAX_STREAM_WINDOW}"),
        path: "/stream/open",
        body: format!(
            "{{\"grammar\":{},\"window\":{MAX_STREAM_WINDOW},\"name\":\"probe\"}}",
            json_str(dyck)
        ),
        cap: STREAM_CAP,
        expect: Expect(vec![("session", Json::Str(format!("{id:016x}")))]),
    });
    let tokens: String = (0..MAX_FEED_CHARS)
        .map(|i| if (i / 3) % 2 == 0 { 'a' } else { 'b' })
        .collect();
    let window = &tokens.as_bytes()[MAX_FEED_CHARS - MAX_STREAM_WINDOW..];
    out.push(Probe {
        name: format!("/stream/feed {MAX_FEED_CHARS} tokens"),
        path: "/stream/feed",
        body: format!("{{\"session\":\"{id:016x}\",\"tokens\":\"{tokens}\"}}"),
        cap: STREAM_CAP,
        expect: Expect(vec![
            ("fed", Json::Int(MAX_FEED_CHARS as i64)),
            ("total", Json::Int(MAX_FEED_CHARS as i64)),
            ("window_len", Json::Int(MAX_STREAM_WINDOW as i64)),
            ("member", Json::Bool(in_language(0, window))),
        ]),
    });
    // example4 is the paper's uCFG for L_n: one tree for members.
    let n = MAX_EXAMPLE4_N;
    let word: String = (0..2 * n)
        .map(|i| if i == 0 || i == n { 'a' } else { 'b' })
        .collect();
    out.push(Probe {
        name: format!("/parse example4 n={n}"),
        path: "/parse",
        body: format!("{{\"builtin\":\"example4\",\"n\":{n},\"word\":\"{word}\"}}"),
        cap: PARSE_CAP,
        expect: Expect(vec![
            ("member", Json::Bool(true)),
            ("parse_count", Json::Str("1".into())),
        ]),
    });
    out
}

/// Run every probe against `daemon`, in order.
pub fn run(daemon: &mut Daemon) -> Vec<Outcome> {
    let mut conn: Option<Conn> = None;
    probes()
        .into_iter()
        .map(|p| {
            let wire = format!(
                "POST {} HTTP/1.1\r\nHost: loadbench\r\nContent-Length: {}\r\n\r\n{}",
                p.path,
                p.body.len(),
                p.body
            );
            let t = Instant::now();
            let answer = one(daemon, &mut conn, wire.as_bytes(), p.cap);
            let wrong = matches!(&answer, Ok((200, body)) if p.expect.check(200, body).is_err());
            let result = answer
                .and_then(|(status, body)| p.expect.check(status, &body))
                .map(|()| t.elapsed().as_secs_f64());
            if result.is_err() {
                conn = None;
            }
            Outcome {
                name: p.name,
                result,
                wrong,
            }
        })
        .collect()
}

fn one(
    daemon: &mut Daemon,
    conn: &mut Option<Conn>,
    wire: &[u8],
    cap: Duration,
) -> Result<(u16, String), String> {
    if daemon.exited() {
        return Err("daemon has exited".into());
    }
    if conn.is_none() {
        *conn = Some(Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let c = conn.as_mut().expect("connected above");
    c.send(wire).map_err(|e| format!("send: {e}"))?;
    let deadline = Instant::now() + cap;
    loop {
        if let Some(r) = c.take().map_err(|e| e.to_string())? {
            return Ok((r.status, r.body));
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(format!("no answer within the {} s cap", cap.as_secs()));
        }
        if daemon.exited() {
            return Err("daemon exited".into());
        }
        c.fill((deadline - now).min(Duration::from_millis(100)))
            .map_err(|e| e.to_string())?;
    }
}
